//! Engine-side telemetry: the handles [`SimEngine`](crate::SimEngine)
//! records into when a [`Recorder`] is attached.
//!
//! The overhead contract (see `mltc-telemetry`): the engine stores
//! `Option<Box<EngineTelemetry>>`, resolved into a compile-time sink
//! (`crate::tap`: `Logged` / `TelOff`) once per replay call. The tap bodies
//! carry no telemetry code either way, and neither do the frame loops:
//! `Logged` reads each tap's outcome off the `FrameCounters` the body
//! moved and logs it, with the wide commits, to the observer stream
//! (`crate::observe`), whose consumer replays it into
//! [`on_tap`](EngineTelemetry::on_tap) and
//! [`on_wide_commit`](EngineTelemetry::on_wide_commit) on a helper thread
//! or inline; the per-access entry calls `on_tap` after its tap. So
//! telemetry only *observes* — `FrameCounters`, cache and RNG state are
//! bit-identical attached or not. What the consumer reads lands in plain
//! integers this struct owns — one tally shaped like `FrameCounters` for
//! the engine counters, buffered handles for the rest — published into the
//! recorder once the replay call's last event is consumed, once per call.
//!
//! Naming: histograms are keyed per workload *group* (so the parallel
//! configs replaying one workload merge into one distribution, and the
//! L2 reuse-distance histogram is "exported per workload"), while the
//! per-frame series is keyed per *run label* so rows from different
//! configurations never interleave.

use mltc_cache::ClockStats;
use mltc_model::LocalityCapture;
use mltc_telemetry::{
    BufferedCounter, BufferedHistogram, Counter, EvictionCause, MissAttribution, Recorder, Series,
    StackDistance,
};
use mltc_texture::TextureId;
use mltc_trace::LevelQuad;

use crate::tap::L2Probe;
use crate::{AccessTrace, EngineConfig, FrameCounters, L1AddressMap, L2Outcome};

/// Bin count the L2 page heat maps fold onto (pages can number in the
/// thousands; per-set L1 maps use the true set count).
pub const L2_HEAT_BINS: usize = 64;

/// Options for
/// [`SimEngine::attach_telemetry_opts`](crate::SimEngine::attach_telemetry_opts).
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryOpts {
    /// Record 3C miss attribution (shadow fully-associative LRU
    /// classifiers), per-set/per-page heat maps and eviction-cause
    /// counters under `attrib/{group}/…`. Off by default: the plain
    /// attach pays nothing for the plane.
    pub attribution: bool,
    /// Capture a [`mltc_model::LocalityProfile`] during the replay: exact
    /// stack-distance curves, sector-survival curve, replacement mini
    /// ladders and TLB rungs, for the one-pass design-space explorer.
    /// Off by default. Like attribution, capture only observes — engine
    /// counters are bit-identical with it on or off — and it is fed every
    /// scalar tap's outcome plus the wide commits' per-lane replays, so
    /// every replay path produces the same profile.
    pub locality: bool,
}

/// Column names of the per-frame engine series, in row order.
pub const FRAME_SERIES_COLUMNS: [&str; 16] = [
    "frame",
    "l1_accesses",
    "l1_hits",
    "l2_full_hits",
    "l2_partial_hits",
    "l2_full_misses",
    "host_bytes",
    "l2_local_bytes",
    "tlb_accesses",
    "tlb_hits",
    "retries",
    "failed_transfers",
    "degraded_taps",
    "dropped_taps",
    "sweep_searches",
    "sweep_entries",
];

/// The `engine/{group}/…` counters a tally `t` of engine counters and
/// `delivered` transfers publish, each with its value.
fn tally_counts(t: &FrameCounters, delivered: u64) -> [(&'static str, u64); 12] {
    [
        ("l1_hits", t.l1_hits),
        ("l1_misses", t.l1_accesses - t.l1_hits),
        ("l2_full_hits", t.l2_full_hits),
        ("l2_partial_hits", t.l2_partial_hits),
        ("l2_full_misses", t.l2_full_misses),
        ("tlb_hits", t.tlb_hits),
        ("tlb_misses", t.tlb_accesses - t.tlb_hits),
        ("host_delivered", delivered),
        ("host_failed", t.failed_transfers),
        ("host_retries", t.retries),
        ("degraded_taps", t.degraded_taps),
        ("dropped_taps", t.dropped_taps),
    ]
}

/// All recording handles an instrumented engine holds, plus the small
/// amount of state needed to turn cumulative clock statistics into
/// per-miss and per-frame deltas.
#[derive(Debug)]
pub struct EngineTelemetry {
    /// What the taps and wide commits observed since the last publish
    /// moved the engine's counters by (its two byte counts stay zero: no
    /// counter publishes them), and the delivered transfers among them,
    /// which no `FrameCounters` field counts.
    tally: FrameCounters,
    delivered: u64,
    /// The handles [`tally_counts`] publishes into, in its order.
    tally_counters: [Counter; 12],
    /// Fragments the wide frame loops committed as one all-hit L1 batch,
    /// and fragments that declined to the scalar tap bodies: fast-path
    /// efficacy. The only engine counters that depend on the replay path
    /// (the scalar path leaves both at zero — except that a timed
    /// engine's scalar entry rides the wide loops and counts them).
    wide_commits: BufferedCounter,
    pub(crate) wide_declines: BufferedCounter,
    /// Host transfer sizes in bytes (per delivered transfer).
    transfer_bytes: BufferedHistogram,
    /// Clock sweep length (entries examined) per L2 full miss.
    sweep_len: BufferedHistogram,
    /// L2 reuse distance at page granularity (distinct pages between
    /// consecutive references to the same page).
    reuse_hist: BufferedHistogram,
    reuse_cold: BufferedCounter,
    reuse: StackDistance,
    frame_series: Series,
    /// The L2's cumulative clock stats as this engine last saw them: at
    /// its last full miss, or when it borrowed a shared L2 for a replay.
    clock: ClockStats,
    /// Clock searches and entries examined by the open frame's full
    /// misses.
    frame_searches: u64,
    frame_entries: u64,
    /// Opt-in miss attribution (3C shadow classifiers + heat maps);
    /// `None` under the plain [`attach_telemetry`]
    /// (crate::SimEngine::attach_telemetry) so the default recording
    /// cost is unchanged.
    attrib: Option<AttributionState>,
    /// Opt-in locality-profile capture for the analytic design-space
    /// model; `None` unless [`TelemetryOpts::locality`] asked for it.
    locality: Option<Box<LocalityCapture>>,
}

/// Cache geometry the attribution shadow models need, captured at attach
/// time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttributionParams {
    /// The pure L1 tag/set function (for block keys and set bins).
    pub(crate) l1_map: L1AddressMap,
    /// L1 set count (heat-map bins, occupancy model width).
    pub(crate) l1_sets: usize,
    /// L1 associativity (occupancy model depth).
    pub(crate) l1_ways: u64,
    /// L1 capacity in lines (shadow fully-associative model capacity).
    pub(crate) l1_lines: u64,
    /// L2 capacity in blocks/pages (0 for the pull architecture, whose
    /// L2 attribution then never records).
    pub(crate) l2_pages: u64,
}

impl AttributionParams {
    /// The geometry of an engine's `cfg` (for a service client, its slice
    /// of the hierarchy: its L1 and its L2 *share*).
    pub(crate) fn of(cfg: &EngineConfig, l1_map: L1AddressMap) -> Self {
        Self {
            l1_map,
            l1_sets: cfg.l1.sets(),
            l1_ways: cfg.l1.ways as u64,
            l1_lines: cfg.l1.lines() as u64,
            l2_pages: cfg.l2.map_or(0, |l2| {
                (l2.size_bytes / cfg.tiling.l2().cache_bytes()) as u64
            }),
        }
    }
}

/// A wide commit's lanes fed to locality capture in the order the scalar
/// fallback would replay them, each quad's corners a/b × a/b. Out of line:
/// the frame loops that inline the sink carry none of the capture's code.
#[inline(never)]
fn capture_quad_hits(c: &mut LocalityCapture, tid: TextureId, quads: &[LevelQuad; 2], nq: usize) {
    let t = tid.index();
    for q in &quads[..nq] {
        c.on_hit(t, q.m, q.xa, q.ya);
        c.on_hit(t, q.m, q.xb, q.ya);
        c.on_hit(t, q.m, q.xa, q.yb);
        c.on_hit(t, q.m, q.xb, q.yb);
    }
}

/// Per-engine attribution state: one [`MissAttribution`] per cache level
/// plus the L1 per-set occupancy model that turns installs into
/// capacity-eviction events.
#[derive(Debug)]
pub(crate) struct AttributionState {
    l1: MissAttribution,
    l2: MissAttribution,
    map: L1AddressMap,
    ways: u64,
    /// Resident-line count per L1 set. A miss into a full set displaces
    /// a victim (capacity eviction); a rollback invalidate removes the
    /// just-installed line (invalidation eviction).
    occupancy: Vec<u64>,
    l2_bins: usize,
}

impl EngineTelemetry {
    /// Registers every handle on `recorder`. `label` keys the per-frame
    /// series (one per run); `group` keys counters and histograms (shared
    /// by all runs of one workload).
    pub(crate) fn new(recorder: &Recorder, label: &str, group: &str) -> Self {
        let c = |name: &str| {
            recorder
                .counter(&format!("engine/{group}/{name}"))
                .buffered()
        };
        Self {
            tally: FrameCounters::default(),
            delivered: 0,
            tally_counters: tally_counts(&FrameCounters::default(), 0)
                .map(|(name, _)| recorder.counter(&format!("engine/{group}/{name}"))),
            wide_commits: c("wide_commits"),
            wide_declines: c("wide_declines"),
            transfer_bytes: recorder
                .histogram(&format!("host_transfer_bytes/{group}"))
                .buffered(),
            sweep_len: recorder
                .histogram(&format!("clock_sweep_len/{group}"))
                .buffered(),
            reuse_hist: recorder
                .histogram(&format!("l2_reuse_pages/{group}"))
                .buffered(),
            reuse_cold: c("l2_reuse_cold"),
            reuse: StackDistance::new(),
            frame_series: recorder.series(label, &FRAME_SERIES_COLUMNS),
            clock: ClockStats::default(),
            frame_searches: 0,
            frame_entries: 0,
            attrib: None,
            locality: None,
        }
    }

    /// Switches on miss attribution: 3C class counters, per-set/per-page
    /// heat maps and eviction-cause counters, registered under
    /// `attrib/{group}/l1` and `attrib/{group}/l2`. Attribution only
    /// observes the miss stream — engine counters stay bit-identical.
    pub(crate) fn enable_attribution(
        &mut self,
        recorder: &Recorder,
        group: &str,
        params: AttributionParams,
    ) {
        let l2_bins = (params.l2_pages as usize).clamp(1, L2_HEAT_BINS);
        self.attrib = Some(AttributionState {
            l1: MissAttribution::new(
                recorder,
                &format!("attrib/{group}/l1"),
                params.l1_lines,
                params.l1_sets,
            ),
            l2: MissAttribution::new(
                recorder,
                &format!("attrib/{group}/l2"),
                params.l2_pages,
                l2_bins,
            ),
            map: params.l1_map,
            ways: params.l1_ways,
            occupancy: vec![0; params.l1_sets],
            l2_bins,
        });
    }

    /// Switches on locality-profile capture for the one-pass analytic
    /// model. Capture only observes the tap stream; engine counters stay
    /// bit-identical.
    pub(crate) fn enable_locality(&mut self, cfg: mltc_model::CaptureConfig) {
        self.locality = Some(Box::new(LocalityCapture::new(cfg)));
    }

    /// Whether locality capture is on: the wide commits' corner quads are
    /// then part of what it reads.
    pub(crate) fn captures_locality(&self) -> bool {
        self.locality.is_some()
    }

    /// Finalizes the captured locality profile, if capture was on.
    pub(crate) fn locality_profile(&self) -> Option<mltc_model::LocalityProfile> {
        self.locality.as_ref().map(|c| c.finalize())
    }

    /// A wide all-hit commit of `n` taps on `tid` over the corner quads
    /// `quads[..nq]`.
    #[inline(always)]
    pub(crate) fn on_wide_commit(
        &mut self,
        tid: TextureId,
        quads: &[LevelQuad; 2],
        nq: usize,
        n: u64,
    ) {
        self.wide_commits.incr();
        self.tally.l1_accesses += n;
        self.tally.l1_hits += n;
        if let Some(c) = &mut self.locality {
            capture_quad_hits(c, tid, quads, nq);
        }
    }

    /// One scalar tap at `(tid, m, u, v)` as the sink read it: `trace`,
    /// and `probe` when it reached an L2. The tally advances by what the
    /// tap moved, and every stateful consumer sees the tap's events in the
    /// order the tap body ran them — the L1 hit or miss, the L2 access,
    /// the clock sweep, the host transfer, the rollback — so attribution
    /// and locality capture stay exact on every replay path.
    #[inline(always)]
    pub(crate) fn on_tap(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        trace: &AccessTrace,
        probe: Option<&L2Probe>,
    ) {
        self.tally.l1_accesses += 1;
        if trace.l1_hit {
            self.tally.l1_hits += 1;
            if let Some(c) = &mut self.locality {
                c.on_hit(tid.index(), m, u, v);
            }
            return;
        }
        self.on_miss_tap(tid, m, u, v, trace, probe);
    }

    /// [`on_tap`](Self::on_tap) for a tap that missed the L1, out of line
    /// so the frame loops keep only the hit path.
    #[inline(never)]
    fn on_miss_tap(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        trace: &AccessTrace,
        probe: Option<&L2Probe>,
    ) {
        // The L1 miss: locality capture, and with attribution its 3C class
        // against the block-granular shadow LRU and the per-set occupancy
        // model (a miss into a full set displaces a victim).
        if let Some(c) = &mut self.locality {
            c.on_miss(tid.index(), m, u, v);
        }
        let l1_set = self.attrib.as_mut().map(|a| {
            let (tag, set) = a.map.tag_set(tid, m, u, v);
            let set = set as usize;
            a.l1.record_miss(tag, set);
            let occ = &mut a.occupancy[set];
            if *occ >= a.ways {
                a.l1.record_eviction(set, EvictionCause::Capacity);
            } else {
                *occ += 1;
            }
            set
        });
        // The L2 access behind the TLB: its outcome, the page reuse
        // distance and — with attribution on — a full miss's 3C class (the
        // same exact stack distance drives the histogram and the class, so
        // the L2 shadow costs no extra memory), page heat and the victim.
        if let Some(hit) = trace.tlb_hit {
            self.tally.tlb_accesses += 1;
            self.tally.tlb_hits += hit as u64;
        }
        if let Some(p) = probe {
            let full_miss = p.trace.outcome == L2Outcome::FullMiss;
            match p.trace.outcome {
                L2Outcome::FullHit => self.tally.l2_full_hits += 1,
                L2Outcome::PartialHit => self.tally.l2_partial_hits += 1,
                L2Outcome::FullMiss => self.tally.l2_full_misses += 1,
            }
            let d = self.reuse.record(p.pt_index as u64);
            match d {
                Some(d) => self.reuse_hist.record(d),
                None => self.reuse_cold.incr(),
            }
            if let Some(a) = &mut self.attrib {
                if full_miss {
                    a.l2.record_miss_with_distance(d, p.pt_index as usize % a.l2_bins);
                }
                if let Some(victim) = p.trace.evicted_page {
                    a.l2.record_eviction(victim as usize % a.l2_bins, EvictionCause::Capacity);
                }
            }
            // The sweep: only full misses search, so the delta of the
            // cumulative stats since this engine last saw them is exactly
            // this miss's search.
            if full_miss {
                let entries = p.clock.entries_examined - self.clock.entries_examined;
                self.frame_searches += p.clock.searches - self.clock.searches;
                self.frame_entries += entries;
                self.clock = p.clock;
                self.sweep_len.record(entries);
            }
        }
        // The host transfer: only a delivered one moves the host bytes.
        self.tally.retries += trace.retries as u64;
        self.tally.failed_transfers += trace.failed as u64;
        if trace.host_bytes != 0 {
            self.delivered += 1;
            self.transfer_bytes.record(trace.host_bytes);
        }
        // The rollback of a failed or denied download: the line the miss
        // installed is invalidated (an invalidation eviction) and, below a
        // multi-level miss, the L2 residency it claimed is torn down (a
        // fault eviction on its page).
        if trace.degraded || trace.dropped {
            self.tally.degraded_taps += trace.degraded as u64;
            self.tally.dropped_taps += trace.dropped as u64;
            if let (Some(a), Some(set)) = (&mut self.attrib, l1_set) {
                let occ = &mut a.occupancy[set];
                *occ = occ.saturating_sub(1);
                a.l1.record_eviction(set, EvictionCause::Invalidation);
                if let Some(p) = probe {
                    a.l2.record_eviction(p.pt_index as usize % a.l2_bins, EvictionCause::Fault);
                }
            }
        }
    }

    /// Takes `clock` — the stats of an L2 this engine shares with others,
    /// borrowed for one replay — as the base of its next sweep delta, so
    /// the sweeps other engines ran since this one last held it are not
    /// counted as this engine's.
    pub(crate) fn rebase(&mut self, clock: ClockStats) {
        self.clock = clock;
    }

    /// Publishes everything tallied since the last publish into the
    /// recorder. The observer stream's schedules call it once a replay
    /// call's last event is consumed, i.e. when every replay call returns.
    #[cold]
    pub(crate) fn publish(&mut self) {
        let counts = tally_counts(
            &std::mem::take(&mut self.tally),
            std::mem::take(&mut self.delivered),
        );
        for (c, (_, n)) in self.tally_counters.iter().zip(counts) {
            if n != 0 {
                c.add(n);
            }
        }
        for c in [
            &mut self.wide_commits,
            &mut self.wide_declines,
            &mut self.reuse_cold,
        ] {
            c.publish();
        }
        self.transfer_bytes.publish();
        self.sweep_len.publish();
        self.reuse_hist.publish();
        if let Some(a) = &mut self.attrib {
            a.l1.publish();
            a.l2.publish();
        }
    }

    /// Pushes the closing frame's row onto the per-frame series.
    pub(crate) fn on_frame_end(&mut self, frame: u64, counters: &FrameCounters) {
        let row = [
            frame,
            counters.l1_accesses,
            counters.l1_hits,
            counters.l2_full_hits,
            counters.l2_partial_hits,
            counters.l2_full_misses,
            counters.host_bytes,
            counters.l2_local_bytes,
            counters.tlb_accesses,
            counters.tlb_hits,
            counters.retries,
            counters.failed_transfers,
            counters.degraded_taps,
            counters.dropped_taps,
            std::mem::take(&mut self.frame_searches),
            std::mem::take(&mut self.frame_entries),
        ];
        self.frame_series.push_row(&row);
    }
}
