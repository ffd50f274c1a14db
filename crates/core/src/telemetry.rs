//! Engine-side telemetry: the handles [`SimEngine`](crate::SimEngine)
//! records into when a [`Recorder`] is attached.
//!
//! The overhead contract (see `mltc-telemetry`): the engine stores
//! `Option<Box<EngineTelemetry>>`, resolved into a compile-time sink
//! (`crate::tap`: `TelOn` / `TelOff`) once per replay call — once per
//! access on the per-access entry — so with telemetry detached the tap
//! body carries no telemetry code, and attached or not, telemetry only
//! *observes* — `FrameCounters`, cache and
//! RNG state are bit-identical either way. Attached, the handles are
//! buffered: the tap bodies add to plain integers this struct owns, and
//! the sink publishes them into the recorder when it is dropped, once per
//! replay call.
//!
//! Naming: histograms are keyed per workload *group* (so the parallel
//! configs replaying one workload merge into one distribution, and the
//! L2 reuse-distance histogram is "exported per workload"), while the
//! per-frame series is keyed per *run label* so rows from different
//! configurations never interleave.

use mltc_cache::ClockStats;
use mltc_telemetry::{
    BufferedCounter, BufferedHistogram, EvictionCause, MissAttribution, Recorder, ReuseDistance,
    Series,
};
use mltc_texture::TextureId;

use crate::{EngineConfig, FrameCounters, L1AddressMap, L2Outcome};

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
    /// counters are bit-identical with it on or off — and it is fed from
    /// the shared scalar tap bodies plus the wide commits' per-lane
    /// replays, so every replay path produces the same profile.
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

/// All recording handles an instrumented engine holds, plus the small
/// amount of state needed to turn cumulative clock statistics into
/// per-miss and per-frame deltas.
#[derive(Debug)]
pub struct EngineTelemetry {
    pub(crate) l1_hits: BufferedCounter,
    pub(crate) l1_misses: BufferedCounter,
    pub(crate) l2_full_hits: BufferedCounter,
    pub(crate) l2_partial_hits: BufferedCounter,
    pub(crate) l2_full_misses: BufferedCounter,
    pub(crate) tlb_hits: BufferedCounter,
    pub(crate) tlb_misses: BufferedCounter,
    pub(crate) host_delivered: BufferedCounter,
    pub(crate) host_failed: BufferedCounter,
    pub(crate) host_retries: BufferedCounter,
    pub(crate) degraded_taps: BufferedCounter,
    pub(crate) dropped_taps: BufferedCounter,
    /// Fragments the wide frame loops committed as one all-hit L1 batch,
    /// and fragments that declined to the scalar tap bodies: fast-path
    /// efficacy. The only engine counters that depend on the replay path
    /// (the scalar path leaves both at zero — except that a timed
    /// engine's scalar entry rides the wide loops and counts them).
    pub(crate) wide_commits: BufferedCounter,
    pub(crate) wide_declines: BufferedCounter,
    /// Host transfer sizes in bytes (per delivered transfer).
    pub(crate) transfer_bytes: BufferedHistogram,
    /// Clock sweep length (entries examined) per L2 full miss.
    pub(crate) sweep_len: BufferedHistogram,
    /// L2 reuse distance at page granularity (distinct pages between
    /// consecutive references to the same page).
    pub(crate) reuse_hist: BufferedHistogram,
    pub(crate) reuse_cold: BufferedCounter,
    reuse: ReuseDistance,
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
    locality: Option<Box<mltc_model::LocalityCapture>>,
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
            l1_hits: c("l1_hits"),
            l1_misses: c("l1_misses"),
            l2_full_hits: c("l2_full_hits"),
            l2_partial_hits: c("l2_partial_hits"),
            l2_full_misses: c("l2_full_misses"),
            tlb_hits: c("tlb_hits"),
            tlb_misses: c("tlb_misses"),
            host_delivered: c("host_delivered"),
            host_failed: c("host_failed"),
            host_retries: c("host_retries"),
            degraded_taps: c("degraded_taps"),
            dropped_taps: c("dropped_taps"),
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
            reuse: ReuseDistance::new(),
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

    /// Whether attribution is recording.
    pub(crate) fn attribution_enabled(&self) -> bool {
        self.attrib.is_some()
    }

    /// Switches on locality-profile capture for the one-pass analytic
    /// model. Capture only observes the tap stream; engine counters stay
    /// bit-identical.
    pub(crate) fn enable_locality(&mut self, cfg: mltc_model::CaptureConfig) {
        self.locality = Some(Box::new(mltc_model::LocalityCapture::new(cfg)));
    }

    /// Whether locality capture is recording.
    pub(crate) fn locality_enabled(&self) -> bool {
        self.locality.is_some()
    }

    /// Finalizes the captured locality profile, if capture was on.
    pub(crate) fn locality_profile(&self) -> Option<mltc_model::LocalityProfile> {
        self.locality.as_ref().map(|c| c.finalize())
    }

    /// One L1 hit, with the tap's coordinates. Only locality capture
    /// consumes the hit stream; the `l1_hits` counter is bumped by the
    /// tap bodies themselves (including wide all-hit commits).
    #[inline]
    pub(crate) fn on_l1_hit(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        if let Some(c) = &mut self.locality {
            c.on_hit(tid.index(), m, u, v);
        }
    }

    /// A wide all-hit quad commit: feeds the 4 lanes in the exact order
    /// the scalar fallback would replay them (corner order a/b × a/b).
    #[inline]
    pub(crate) fn on_l1_hit_quad(
        &mut self,
        tid: TextureId,
        m: u32,
        xa: u32,
        xb: u32,
        ya: u32,
        yb: u32,
    ) {
        if let Some(c) = &mut self.locality {
            let t = tid.index();
            c.on_hit(t, m, xa, ya);
            c.on_hit(t, m, xb, ya);
            c.on_hit(t, m, xa, yb);
            c.on_hit(t, m, xb, yb);
        }
    }

    /// One L1 miss: classifies it against the block-granular shadow LRU
    /// and advances the per-set occupancy model (a miss into a full set
    /// displaces a victim). Call once per miss, at the miss site —
    /// batched all-hit commits never reach here, which is what keeps
    /// attribution exact on every replay path.
    #[inline]
    pub(crate) fn on_l1_miss(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        if let Some(c) = &mut self.locality {
            c.on_miss(tid.index(), m, u, v);
        }
        if let Some(a) = &mut self.attrib {
            let (tag, set) = a.map.tag_set(tid, m, u, v);
            let set = set as usize;
            a.l1.record_miss(tag, set);
            let occ = &mut a.occupancy[set];
            if *occ >= a.ways {
                a.l1.record_eviction(set, EvictionCause::Capacity);
            } else {
                *occ += 1;
            }
        }
    }

    /// The rollback of a speculative L1 install after a failed download:
    /// the just-installed line is invalidated, an invalidation eviction.
    #[inline]
    pub(crate) fn on_l1_rollback(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        if let Some(a) = &mut self.attrib {
            let (_, set) = a.map.tag_set(tid, m, u, v);
            let set = set as usize;
            let occ = &mut a.occupancy[set];
            *occ = occ.saturating_sub(1);
            a.l1.record_eviction(set, EvictionCause::Invalidation);
        }
    }

    /// Common bookkeeping for every L2 access (one per L1 miss): the L1
    /// miss itself, the TLB outcome when a TLB is modelled, the page
    /// reuse distance, and — with attribution on — the 3C class of a
    /// full miss (the same exact stack distance drives both the reuse
    /// histogram and the classification, so the L2 shadow model costs no
    /// extra memory) plus page heat and the replacement victim.
    #[inline]
    pub(crate) fn on_l2_access(
        &mut self,
        pt_index: u64,
        tlb_hit: Option<bool>,
        outcome: L2Outcome,
        evicted_page: Option<u32>,
    ) {
        self.l1_misses.incr();
        match tlb_hit {
            Some(true) => self.tlb_hits.incr(),
            Some(false) => self.tlb_misses.incr(),
            None => {}
        }
        let d = self.reuse.record(pt_index);
        match d {
            Some(d) => self.reuse_hist.record(d),
            None => self.reuse_cold.incr(),
        }
        if let Some(a) = &mut self.attrib {
            if matches!(outcome, L2Outcome::FullMiss) {
                a.l2.record_miss_with_distance(d, pt_index as usize % a.l2_bins);
            }
            if let Some(p) = evicted_page {
                a.l2.record_eviction(p as usize % a.l2_bins, EvictionCause::Capacity);
            }
        }
    }

    /// A failed download tore down the L2 residency it had speculatively
    /// installed (`fail_download`): a fault eviction on that page.
    #[inline]
    pub(crate) fn on_l2_fault(&mut self, pt_index: u64) {
        if let Some(a) = &mut self.attrib {
            a.l2.record_eviction(pt_index as usize % a.l2_bins, EvictionCause::Fault);
        }
    }

    /// Records the sweep a full miss just ran: the delta of the L2's
    /// cumulative clock stats since this engine last saw them (sweeps only
    /// happen on full misses, so the delta is exactly this miss's search).
    #[inline]
    pub(crate) fn on_full_miss_sweep(&mut self, clock: ClockStats) {
        let entries = clock.entries_examined - self.clock.entries_examined;
        self.frame_searches += clock.searches - self.clock.searches;
        self.frame_entries += entries;
        self.clock = clock;
        self.sweep_len.record(entries);
    }

    /// Takes `clock` — the stats of an L2 this engine shares with others,
    /// borrowed for one replay — as the base of its next sweep delta, so
    /// the sweeps other engines ran since this one last held it are not
    /// counted as this engine's.
    pub(crate) fn rebase(&mut self, clock: ClockStats) {
        self.clock = clock;
    }

    /// Publishes everything tallied since the last publish into the
    /// recorder. The replay sink (`TelOn`) calls it when it is dropped,
    /// i.e. when every replay call returns.
    #[cold]
    pub(crate) fn publish(&mut self) {
        for c in [
            &mut self.l1_hits,
            &mut self.l1_misses,
            &mut self.l2_full_hits,
            &mut self.l2_partial_hits,
            &mut self.l2_full_misses,
            &mut self.tlb_hits,
            &mut self.tlb_misses,
            &mut self.host_delivered,
            &mut self.host_failed,
            &mut self.host_retries,
            &mut self.degraded_taps,
            &mut self.dropped_taps,
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
