//! The non-blocking timing overlay: host latency/bandwidth model, MSHR
//! files and the lookahead prefetcher.
//!
//! Timing is strictly an *overlay* on the behavioral simulator. The
//! behavioral engine services every miss instantly and in order — its
//! counters, clock hands and host bytes are the ground truth the golden
//! matrix and the differential oracle pin down. A [`TimingSim`] attached
//! via [`SimEngine::attach_timing`](crate::SimEngine::attach_timing)
//! *observes* the resulting per-tap access stream and computes cycle
//! accounting on the side; it never touches cache state, so behavioral
//! results are bit-identical with and without it, by construction.
//!
//! The frame loops do not call it: they log what each fragment did to the
//! observer stream (`crate::observe`), and the timing consumer replays
//! that log into [`TimingSim::open_fragment`] and the sink entries
//! ([`commit_hits`](TimingSim::commit_hits),
//! [`observe_hit`](TimingSim::observe_hit),
//! [`observe_miss`](TimingSim::observe_miss)) in behavioural order, on a
//! helper thread when the `--jobs` cap leaves a slot for one and on the
//! replaying thread otherwise. The per-access entries feed
//! [`TimingSim::observe`] directly.
//!
//! The machine being modelled (after Igehy et al.'s prefetching texture
//! cache, the architecture the paper's §6 defers to for latency hiding):
//!
//! * a **tag-check / issue stage** that scans the already-decoded request
//!   stream up to [`LatencyModel::prefetch_depth`] *fragments* ahead of
//!   the retire stage, checking one tap per cycle and issuing fills for
//!   misses the moment they are discovered (the non-binding prefetch —
//!   behavioral state is untouched; only the fill's timing starts early);
//! * **MSHR files** at L1 and at the host interface bounding how many of
//!   those fills may be in flight ([`MshrFile`]): a full file is a
//!   structural hazard that stalls the issue stage until the earliest
//!   entry retires, and a reference to a line whose fill is already in
//!   flight merges instead of re-requesting (no double-counted bytes);
//! * a **host link** on which request latencies overlap but data
//!   streaming serializes under the bandwidth cap, with a bounded fill
//!   queue of outstanding transfers;
//! * an in-order **retire stage** consuming fragments one tap per cycle,
//!   waiting on any tap whose fill has not landed — those waits are the
//!   `stall_cycles` the prefetcher exists to hide.

use crate::batch::{lanes_of_tag, BATCH_LANES};
use crate::engine::AccessTrace;
use crate::mshr::MshrFile;
use crate::{L1AddressMap, L2Outcome};
use mltc_telemetry::Recorder;
use mltc_texture::TextureId;
use std::collections::VecDeque;

/// Configuration of the timing overlay.
///
/// `host_bytes_per_cycle == 0` means infinite bandwidth (transfers cross
/// the link in zero cycles once issued); every other field is a plain
/// cycle count or capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Host round-trip cycles from fill issue to first data (per attempt;
    /// a transfer that retries pays this once per attempt).
    pub host_latency: u64,
    /// Host link bandwidth in bytes per cycle; `0` = infinite.
    pub host_bytes_per_cycle: u64,
    /// Cycles for an L2→L1 fill (paid by L2 full hits, and as the last
    /// hop of host downloads in the multi-level architecture).
    pub l2_fill_latency: u64,
    /// L1 MSHRs: in-flight L1 fills (from L2 or host).
    pub l1_mshrs: usize,
    /// Host-interface MSHRs: in-flight host downloads.
    pub l2_mshrs: usize,
    /// Fill queue depth: host transfers outstanding on the link at once.
    pub fill_queue_depth: usize,
    /// Lookahead window of the issue stage, in *fragments* (pixel
    /// requests). `1` = blocking: a fragment's taps are tag-checked only
    /// once every older fragment has retired.
    pub prefetch_depth: usize,
}

impl Default for LatencyModel {
    /// A plausible AGP-era operating point: 200-cycle host round trip,
    /// 4 bytes/cycle link, 8 MSHRs at each level, 32 fragments of
    /// lookahead.
    fn default() -> Self {
        Self {
            host_latency: 200,
            host_bytes_per_cycle: 4,
            l2_fill_latency: 4,
            l1_mshrs: 8,
            l2_mshrs: 8,
            fill_queue_depth: 8,
            prefetch_depth: 32,
        }
    }
}

impl LatencyModel {
    /// The exact-lockstep model: depth 1, zero latency, infinite
    /// bandwidth, zero fill time. Every tap costs exactly one cycle, so
    /// `cycles_total == l1_accesses` — today's (instant-service) behavior
    /// expressed as a degenerate timing configuration. The timing
    /// conformance matrix replays the full behavioral matrix in this mode
    /// and requires exact agreement with the naive serial reference.
    pub fn lockstep() -> Self {
        Self {
            host_latency: 0,
            host_bytes_per_cycle: 0,
            l2_fill_latency: 0,
            l1_mshrs: 1,
            l2_mshrs: 1,
            fill_queue_depth: 1,
            prefetch_depth: 1,
        }
    }

    /// A blocking single-MSHR configuration of this model: depth 1, one
    /// register everywhere, same link numbers. The `latency` experiment's
    /// baseline.
    pub fn blocking(self) -> Self {
        Self {
            l1_mshrs: 1,
            l2_mshrs: 1,
            fill_queue_depth: 1,
            prefetch_depth: 1,
            ..self
        }
    }

    /// Short human-readable description (series labels in experiments).
    pub fn label(&self) -> String {
        format!(
            "lat{} bw{} mshr{}x{} depth{}",
            self.host_latency,
            self.host_bytes_per_cycle,
            self.l1_mshrs,
            self.l2_mshrs,
            self.prefetch_depth
        )
    }

    /// Link cycles to stream `bytes` (0 under infinite bandwidth).
    #[inline]
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if self.host_bytes_per_cycle == 0 {
            0
        } else {
            bytes.div_ceil(self.host_bytes_per_cycle)
        }
    }
}

/// Cumulative timing counters (also the per-frame delta payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingCounters {
    /// Total cycles: the retire clock after draining the window.
    pub cycles_total: u64,
    /// Retire-stage wait cycles (fills not landed when their tap retires).
    pub stall_cycles: u64,
    /// Issue-stage wait cycles (structural hazards: full MSHR files or
    /// fill queue).
    pub issue_stall_cycles: u64,
    /// Taps retired.
    pub taps: u64,
    /// Fragments retired.
    pub fragments: u64,
    /// Bytes scheduled on the host link (must equal behavioral
    /// `host_bytes` — merged misses schedule nothing).
    pub link_bytes: u64,
    /// Cycles the link spent streaming data (`Σ transfer_cycles`).
    pub link_busy_cycles: u64,
    /// Fills issued ahead of their fragment's retirement (the lookahead
    /// actually prefetching).
    pub prefetch_issued: u64,
    /// Prefetched fills that landed before their tap retired (full hide).
    pub prefetch_useful: u64,
    /// Prefetched fills still in flight at retire (partial hide).
    pub prefetch_late: u64,
    /// Prefetched fills whose early issue hid nothing (the tap stalled
    /// for at least the fill's whole cost anyway).
    pub prefetch_useless: u64,
    /// Secondary references merged into in-flight L1 fills.
    pub l1_merges: u64,
    /// Behavioral re-downloads that overlapped an in-flight host
    /// download of the same line (counted, never merged — the behavioral
    /// machine is ground truth for link bytes).
    pub l2_merges: u64,
}

impl TimingCounters {
    fn delta(&self, since: &TimingCounters) -> TimingCounters {
        TimingCounters {
            cycles_total: self.cycles_total - since.cycles_total,
            stall_cycles: self.stall_cycles - since.stall_cycles,
            issue_stall_cycles: self.issue_stall_cycles - since.issue_stall_cycles,
            taps: self.taps - since.taps,
            fragments: self.fragments - since.fragments,
            link_bytes: self.link_bytes - since.link_bytes,
            link_busy_cycles: self.link_busy_cycles - since.link_busy_cycles,
            prefetch_issued: self.prefetch_issued - since.prefetch_issued,
            prefetch_useful: self.prefetch_useful - since.prefetch_useful,
            prefetch_late: self.prefetch_late - since.prefetch_late,
            prefetch_useless: self.prefetch_useless - since.prefetch_useless,
            l1_merges: self.l1_merges - since.l1_merges,
            l2_merges: self.l2_merges - since.l2_merges,
        }
    }
}

/// One fragment in the lookahead window between tag check and retire.
///
/// The retire stage reads of most taps only that they are one more tap
/// and when their data is consumable; only a *prefetched* fill — issued
/// ahead of the retire point, with a nonzero cost — is also classified
/// (useful / late / useless) by how long its tap waits. So every other
/// tap folds into the slot, whatever its order among the fragment's taps,
/// and only prefetched fills queue in [`TimingSim`]'s `pending`.
#[derive(Debug, Clone, Copy, Default)]
struct FragmentSlot {
    /// Latest `ready` of the folded taps (issue-stage clock floor applied).
    ready: u64,
    /// Taps of the fragment, folded or queued.
    taps: u32,
    /// Of those, prefetched fills queued in `pending`.
    fills: u32,
}

/// A prefetched fill waiting in the lookahead window.
#[derive(Debug, Clone, Copy)]
struct PendingFill {
    /// Cycle its data is consumable (issue-stage clock floor applied).
    ready: u64,
    /// Nominal fill cost in cycles (> 0).
    cost: u64,
}

/// What the overlay reads of one behavioural L1 miss — the part of an
/// [`AccessTrace`] that moves a clock. The timing consumer of the frame
/// loops' event log builds it from the trace their outcome reader read off
/// the tap's `FrameCounters` delta.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MissOutcome {
    /// Served by an L2→L1 fill; otherwise a host download was attempted.
    pub(crate) l2_full_hit: bool,
    /// The hierarchy has an L2 (host downloads pay its fill as last hop).
    pub(crate) has_l2: bool,
    pub(crate) host_bytes: u64,
    pub(crate) retries: u64,
    pub(crate) failed: bool,
}

impl MissOutcome {
    pub(crate) fn of(tr: &AccessTrace) -> Self {
        Self {
            l2_full_hit: tr.l2 == Some(L2Outcome::FullHit),
            has_l2: tr.l2.is_some(),
            host_bytes: tr.host_bytes,
            retries: tr.retries as u64,
            failed: tr.failed,
        }
    }
}

/// How the overlay was fed: the efficacy of the wide frame loops' timing
/// sink. A per-tap replay ([`TimingSim::observe`]) leaves the two wide
/// counts at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Fragments that committed wide and were retired as one event.
    pub wide_fragments: u64,
    /// Of those, fragments that found one of their lines' fills still in
    /// flight (a behavioural hit that merges, and may wait, in timing).
    pub wide_in_flight: u64,
    /// Taps observed one at a time.
    pub taps_observed: u64,
}

/// The timing overlay attached to a [`SimEngine`](crate::SimEngine).
///
/// Fed the behavioural access stream in behavioural order — one
/// [`AccessTrace`] per tap through [`observe`](Self::observe), or whole
/// all-hit fragments from the wide frame loops (DESIGN.md §12);
/// fragment boundaries group taps into the units the lookahead window
/// counts. Produces [`TimingCounters`] totals and per-frame deltas.
#[derive(Debug, Clone)]
pub struct TimingSim {
    model: LatencyModel,
    map: L1AddressMap,
    /// Issue-stage (tag check) clock.
    tc: u64,
    /// Retire-stage clock; `cycles_total` once drained.
    rc: u64,
    /// Host link: cycle the link finishes its current data stream.
    link_free: u64,
    l1_mshrs: MshrFile,
    l2_mshrs: MshrFile,
    fill_queue: MshrFile,
    /// Prefetched fills checked but not retired, oldest first.
    pending: VecDeque<PendingFill>,
    /// Each open fragment, oldest first (`window.len()` is the lookahead
    /// distance currently in use).
    window: VecDeque<FragmentSlot>,
    counters: TimingCounters,
    sink: SinkStats,
    /// Totals at the last frame boundary.
    frame_mark: TimingCounters,
    frames: Vec<TimingCounters>,
}

impl TimingSim {
    /// Builds the overlay. `map` must be the engine's own
    /// [`L1AddressMap`] so in-flight fills are keyed exactly like L1
    /// lines.
    pub fn new(model: LatencyModel, map: L1AddressMap) -> Self {
        assert!(model.prefetch_depth >= 1, "lookahead window needs a slot");
        Self {
            model,
            map,
            tc: 0,
            rc: 0,
            link_free: 0,
            l1_mshrs: MshrFile::new(model.l1_mshrs),
            l2_mshrs: MshrFile::new(model.l2_mshrs),
            fill_queue: MshrFile::new(model.fill_queue_depth),
            pending: VecDeque::new(),
            window: VecDeque::new(),
            counters: TimingCounters::default(),
            sink: SinkStats::default(),
            frame_mark: TimingCounters::default(),
            frames: Vec::new(),
        }
    }

    /// The model.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// Opens a new fragment, retiring the oldest one first if the
    /// lookahead window is full. Call once per pixel request before
    /// observing its taps; a bare [`observe`](Self::observe) stream (one
    /// fragment per tap) is produced by opening before every tap.
    ///
    /// The pipeline issues one *fragment* per cycle — all of a fragment's
    /// tag checks run in parallel tap units, as in the paper's trilinear
    /// datapath — so the issue clock advances here, not per tap.
    pub fn open_fragment(&mut self) {
        if self.window.len() == self.model.prefetch_depth {
            self.retire_fragment();
            // The freed FIFO slot becomes available at the retire clock:
            // issue can run ahead of retire only as far as the window
            // allows. At depth 1 this makes the machine truly blocking —
            // each fragment issues only after the previous one completed.
            if self.rc > self.tc {
                self.counters.issue_stall_cycles += self.rc - self.tc;
                self.tc = self.rc;
            }
        }
        self.tc += 1;
        self.window.push_back(FragmentSlot::default());
    }

    /// Observes one behavioral tap of the currently open fragment. Taps of
    /// one fragment share the fragment's tag-check cycle; the issue clock
    /// only moves within a fragment on structural stalls (no free MSHR or
    /// fill-queue slot — the whole issue stage blocks under the hazard).
    ///
    /// This is the per-tap reference feed: every tap packs its tag and
    /// scans the L1 MSHR file. The frame loops' timing consumer
    /// ([`commit_hits`](Self::commit_hits),
    /// [`observe_hit`](Self::observe_hit),
    /// [`observe_miss`](Self::observe_miss)) is tested against it.
    pub fn observe(&mut self, tid: TextureId, m: u32, u: u32, v: u32, tr: &AccessTrace) {
        debug_assert!(!self.window.is_empty(), "observe() without open_fragment()");
        self.sink.taps_observed += 1;
        let key = self.map.tag_of(tid, m, u, v);
        if !tr.l1_hit {
            return self.issue_fill(key, MissOutcome::of(tr));
        }
        // Behavioral hit; in timing the line may still be in flight (the
        // fill that installed it has not landed) — a secondary reference
        // that merges with the pending entry.
        let ready = match self.l1_mshrs.merge_lookup(key, self.tc) {
            Some(r) => {
                self.counters.l1_merges += 1;
                r
            }
            // A tap can never be consumable before its own tag check.
            None => self.tc,
        };
        self.push_hits(ready, 1);
    }

    /// Sink entry for a fragment the wide kernel committed: `n` L1 hits
    /// over the distinct lines `uniq[..k]`, retired as *one* event. Hits
    /// issue nothing and never move the issue clock, so the fragment's
    /// taps all see the same `tc` and reach the retire stage only through
    /// their count and their latest `ready` — one fold. With no fill
    /// in flight (one compare) that `ready` is `tc`; otherwise each
    /// distinct line is looked up once on behalf of its lanes, because a
    /// behavioural hit on a line whose fill has not landed still merges
    /// and waits.
    pub(crate) fn commit_hits(
        &mut self,
        uniq: &[u64; BATCH_LANES],
        last: &[u32; BATCH_LANES],
        k: usize,
        n: u64,
    ) {
        self.sink.wide_fragments += 1;
        let mut ready = self.tc;
        if !self.l1_mshrs.quiet_at(self.tc) {
            let mut met = false;
            for (j, &key) in uniq[..k].iter().enumerate() {
                let lanes = lanes_of_tag(last, k, j);
                if let Some(r) = self.l1_mshrs.merge_lookup_lanes(key, self.tc, lanes) {
                    self.counters.l1_merges += lanes;
                    ready = ready.max(r);
                    met = true;
                }
            }
            self.sink.wide_in_flight += met as u64;
        }
        self.push_hits(ready, n as u32);
    }

    /// Sink entry for a scalar tap (of a fragment that declined the wide
    /// commit, or a point-sampled one) that hit the L1:
    /// [`observe`](Self::observe) minus the work a quiet MSHR file makes
    /// unnecessary.
    #[inline]
    pub(crate) fn observe_hit(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        self.sink.taps_observed += 1;
        let mut ready = self.tc;
        if !self.l1_mshrs.quiet_at(self.tc) {
            let key = self.map.tag_of(tid, m, u, v);
            if let Some(r) = self.l1_mshrs.merge_lookup(key, self.tc) {
                self.counters.l1_merges += 1;
                ready = r;
            }
        }
        self.push_hits(ready, 1);
    }

    /// Sink entry for a scalar tap that missed the L1: its fill issues
    /// exactly as under [`observe`](Self::observe).
    pub(crate) fn observe_miss(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        out: MissOutcome,
    ) {
        self.sink.taps_observed += 1;
        self.issue_fill(self.map.tag_of(tid, m, u, v), out);
    }

    /// Folds `n` taps of the open fragment, consumable at `ready`, into its
    /// slot.
    #[inline]
    fn push_hits(&mut self, ready: u64, n: u32) {
        let f = self.window.back_mut().expect("fragment is open");
        f.ready = f.ready.max(ready);
        f.taps += n;
    }

    /// Issues the fill of one L1 miss — from L2, or a host download
    /// attempt — and queues the tap: in `pending` when it is a prefetched
    /// fill, folded into its fragment's slot otherwise.
    fn issue_fill(&mut self, key: u64, out: MissOutcome) {
        // Issued ahead of the retire point: an older fragment, or an older
        // tap of this one, still waits to retire.
        let ahead = self.window.len() > 1 || self.window.back().expect("fragment is open").taps > 0;
        let (ready, cost) = if out.l2_full_hit {
            // L2→L1 fill: needs an L1 MSHR only.
            let stalled_from = self.tc;
            let issue = self.l1_mshrs.free_at(self.tc).max(self.tc);
            self.note_issue_stall(stalled_from, issue);
            let ready = issue + self.model.l2_fill_latency;
            self.l1_mshrs.insert(key, stalled_from, issue, ready);
            (ready, self.model.l2_fill_latency)
        } else {
            // Host download attempt (delivered or failed), through L2 in
            // the multi-level architecture or straight to L1 in pull. The
            // behavioral machine is ground truth for what crosses the
            // link, so every behavioral download schedules its own
            // transfer — even when the same line is still in flight (a
            // failed-transfer rollback can re-miss a line whose earlier
            // download has not timed out yet). Such overlaps are counted,
            // never merged: merging them would drop bytes the behavioral
            // machine moved.
            if self.l2_mshrs.merge_lookup(key, self.tc).is_some() {
                self.counters.l2_merges += 1;
            }
            let attempts = 1 + out.retries;
            let bytes = out.host_bytes;
            let l2_fill = if out.has_l2 && !out.failed {
                self.model.l2_fill_latency
            } else {
                0
            };
            let stalled_from = self.tc;
            let issue = self
                .l1_mshrs
                .free_at(self.tc)
                .max(self.l2_mshrs.free_at(self.tc))
                .max(self.fill_queue.free_at(self.tc))
                .max(self.tc);
            self.note_issue_stall(stalled_from, issue);
            let request_done = issue + attempts * self.model.host_latency;
            let (done, xfer) = if out.failed {
                // Failed attempts deliver nothing: the round trips are
                // paid, the link streams no data.
                (request_done, 0)
            } else {
                let xfer = self.model.transfer_cycles(bytes);
                // Request latencies overlap; data streaming serializes.
                let data_start = request_done.max(self.link_free);
                let done = data_start + xfer;
                self.link_free = done;
                self.counters.link_bytes += bytes;
                self.counters.link_busy_cycles += xfer;
                (done, xfer)
            };
            let ready = done + l2_fill;
            self.l1_mshrs.insert(key, stalled_from, issue, ready);
            self.l2_mshrs.insert(key, stalled_from, issue, done);
            self.fill_queue.insert(key, stalled_from, issue, done);
            (ready, attempts * self.model.host_latency + xfer + l2_fill)
        };
        // A tap can never be consumable before its own tag check.
        let ready = ready.max(self.tc);
        if ahead && cost > 0 {
            self.counters.prefetch_issued += 1;
            self.pending.push_back(PendingFill { ready, cost });
            let f = self.window.back_mut().expect("fragment is open");
            f.fills += 1;
            f.taps += 1;
        } else {
            self.push_hits(ready, 1);
        }
    }

    fn note_issue_stall(&mut self, from: u64, to: u64) {
        if to > from {
            self.counters.issue_stall_cycles += to - from;
            // The issue stage is blocked: its clock advances to the stall
            // target (later tag checks cannot run under the hazard).
            self.tc = to;
        }
    }

    /// Retires the oldest fragment: one fragment leaves the filter stage
    /// per cycle (its taps are consumed by parallel tap units), after
    /// waiting for its slowest tap's fill to land.
    fn retire_fragment(&mut self) {
        let f = self.window.pop_front().expect("window is non-empty");
        let arrive = self.rc + 1;
        let mut fragment_ready = arrive.max(f.ready);
        for _ in 0..f.fills {
            let p = self.pending.pop_front().expect("window counted this fill");
            let wait = p.ready.saturating_sub(arrive);
            if wait == 0 {
                self.counters.prefetch_useful += 1;
            } else if wait < p.cost {
                self.counters.prefetch_late += 1;
            } else {
                self.counters.prefetch_useless += 1;
            }
            fragment_ready = fragment_ready.max(p.ready);
        }
        self.counters.taps += f.taps as u64;
        self.counters.stall_cycles += fragment_ready - arrive;
        self.rc = fragment_ready;
        self.counters.fragments += 1;
        self.counters.cycles_total = self.rc;
    }

    /// Drains the lookahead window (frame boundaries flush the pipeline).
    pub fn drain(&mut self) {
        while !self.window.is_empty() {
            self.retire_fragment();
        }
        // The next fragment cannot be tag-checked before the pipeline
        // refilled behind the flush.
        self.tc = self.tc.max(self.rc);
    }

    /// Closes a frame: drains and records the frame's counter delta.
    pub fn end_frame(&mut self) {
        self.drain();
        self.frames.push(self.counters.delta(&self.frame_mark));
        self.frame_mark = self.counters;
    }

    /// Cumulative counters (drained totals only after
    /// [`drain`](Self::drain) or [`end_frame`](Self::end_frame)).
    pub fn totals(&self) -> &TimingCounters {
        &self.counters
    }

    /// Per-frame counter deltas, one per closed frame.
    pub fn frames(&self) -> &[TimingCounters] {
        &self.frames
    }

    /// Peak simultaneous in-flight fills seen by each file:
    /// `(l1, host, fill queue)`.
    pub fn peak_occupancy(&self) -> (usize, usize, usize) {
        (
            self.l1_mshrs.peak_occupancy,
            self.l2_mshrs.peak_occupancy,
            self.fill_queue.peak_occupancy,
        )
    }

    /// Mean L1-MSHR occupancy sampled at each allocation.
    pub fn mean_l1_occupancy(&self) -> f64 {
        self.l1_mshrs.mean_occupancy()
    }

    /// Structural-hazard event counts `(l1, host, fill queue)`.
    pub fn structural_stalls(&self) -> (u64, u64, u64) {
        (
            self.l1_mshrs.stalls,
            self.l2_mshrs.stalls,
            self.fill_queue.stalls,
        )
    }

    /// How the overlay was fed so far (see [`SinkStats`]).
    pub fn sink_stats(&self) -> &SinkStats {
        &self.sink
    }

    /// [`sink_stats`](Self::sink_stats) as the shares a report prints: why
    /// a timed replay was as fast as it was. Meaningful once drained.
    pub fn feed_summary(&self) -> String {
        let pct = |num: u64, den: u64| 100.0 * num as f64 / den.max(1) as f64;
        let (fed, t) = (&self.sink, &self.counters);
        format!(
            "{:.2} % of fragments retired as one all-hit event ({:.2} % of those met a fill \
             still in flight), {:.2} % of taps observed one at a time",
            pct(fed.wide_fragments, t.fragments),
            pct(fed.wide_in_flight, fed.wide_fragments),
            pct(fed.taps_observed, t.taps),
        )
    }

    /// Publishes the timing counters on `recorder` under `group/…` (no-op
    /// on a disabled recorder): `cycles_total`, `stall_cycles`,
    /// `mshr_occupancy` (peak, per file), the `prefetch_*` quartet — the
    /// names the Prometheus exporter then exposes — and the overlay's own
    /// efficacy, `sink_*` ([`SinkStats`]).
    pub fn publish(&self, recorder: &Recorder, group: &str) {
        if !recorder.is_enabled() {
            return;
        }
        let rec = recorder.scoped(group);
        let t = &self.counters;
        rec.counter("cycles_total").add(t.cycles_total);
        rec.counter("stall_cycles").add(t.stall_cycles);
        rec.counter("issue_stall_cycles").add(t.issue_stall_cycles);
        rec.counter("link_bytes").add(t.link_bytes);
        rec.counter("link_busy_cycles").add(t.link_busy_cycles);
        rec.counter("prefetch_issued").add(t.prefetch_issued);
        rec.counter("prefetch_useful").add(t.prefetch_useful);
        rec.counter("prefetch_late").add(t.prefetch_late);
        rec.counter("prefetch_useless").add(t.prefetch_useless);
        rec.counter("mshr_merges_l1").add(t.l1_merges);
        rec.counter("mshr_merges_host").add(t.l2_merges);
        rec.counter("sink_wide_fragments")
            .add(self.sink.wide_fragments);
        rec.counter("sink_wide_in_flight")
            .add(self.sink.wide_in_flight);
        rec.counter("sink_taps_observed")
            .add(self.sink.taps_observed);
        let (l1, host, queue) = self.peak_occupancy();
        rec.gauge("mshr_occupancy_l1_peak").set(l1 as f64);
        rec.gauge("mshr_occupancy_host_peak").set(host as f64);
        rec.gauge("fill_queue_peak").set(queue as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, L1Config, L2Config, SimEngine};
    use mltc_texture::{synth, MipPyramid, TextureId, TextureRegistry};

    fn registry() -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        reg.load(
            "t0",
            MipPyramid::from_image(synth::checkerboard(64, 4, [0; 3], [255; 3])),
        );
        reg
    }

    fn ml_cfg() -> EngineConfig {
        EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        }
    }

    #[test]
    fn lockstep_costs_one_cycle_per_tap() {
        let reg = registry();
        let mut e = SimEngine::new(ml_cfg(), &reg);
        e.attach_timing(LatencyModel::lockstep());
        for v in 0..64u32 {
            for u in 0..64u32 {
                e.access_texel(TextureId::from_index(0), 0, u, v);
            }
        }
        e.end_frame();
        let t = e.timing().expect("timing attached").totals();
        assert_eq!(t.cycles_total, 64 * 64);
        assert_eq!(t.stall_cycles, 0);
        assert_eq!(t.issue_stall_cycles, 0);
    }

    #[test]
    fn link_bytes_match_behavioral_host_bytes() {
        let reg = registry();
        let mut e = SimEngine::new(ml_cfg(), &reg);
        e.attach_timing(LatencyModel::default());
        for v in 0..64u32 {
            for u in 0..64u32 {
                e.access_texel(TextureId::from_index(0), 0, u, v);
            }
        }
        e.end_frame();
        let host = e.totals().host_bytes;
        let t = e.timing().unwrap().totals();
        assert!(host > 0);
        assert_eq!(t.link_bytes, host, "merges must never double-count bytes");
    }

    #[test]
    fn deeper_lookahead_never_slows_a_stream_down() {
        let reg = registry();
        let mut cycles = Vec::new();
        for depth in [1usize, 4, 32] {
            let mut e = SimEngine::new(ml_cfg(), &reg);
            e.attach_timing(LatencyModel {
                prefetch_depth: depth,
                ..LatencyModel::default()
            });
            for v in 0..64u32 {
                for u in 0..64u32 {
                    e.access_texel(TextureId::from_index(0), 0, u, v);
                }
            }
            e.end_frame();
            cycles.push(e.timing().unwrap().totals().cycles_total);
        }
        assert!(
            cycles[0] >= cycles[1] && cycles[1] >= cycles[2],
            "{cycles:?}"
        );
    }

    /// The window's bookkeeping, worked by hand: a fill is prefetched when
    /// an older fragment or an older tap of its own fragment still waits;
    /// retire classifies each prefetched fill by its wait and reads of
    /// every other tap only its `ready` and that it is one more tap.
    #[test]
    fn window_slots_retire_as_worked_by_hand() {
        let model = LatencyModel {
            host_latency: 10,
            host_bytes_per_cycle: 0,
            l2_fill_latency: 5,
            l1_mshrs: 4,
            l2_mshrs: 4,
            fill_queue_depth: 4,
            prefetch_depth: 4,
        };
        let mut t = TimingSim::new(
            model,
            crate::L1TextureCache::new(L1Config::kb(2)).address_map(),
        );
        let hit = AccessTrace {
            l1_hit: true,
            ..AccessTrace::default()
        };
        let l2_hit = AccessTrace {
            l2: Some(L2Outcome::FullHit),
            ..AccessTrace::default()
        };
        let download = AccessTrace {
            l2: Some(L2Outcome::FullMiss),
            host_bytes: 64,
            ..AccessTrace::default()
        };
        // Five distinct L1 lines.
        let tap = |t: &mut TimingSim, line: u32, tr: &AccessTrace| {
            t.observe(TextureId::from_index(0), 0, line * 4, 0, tr)
        };
        t.open_fragment(); // F1, tc 1
        tap(&mut t, 0, &l2_hit); // first tap of the only fragment: ready 6, not prefetched
        tap(&mut t, 1, &hit); // ready 1
        tap(&mut t, 2, &l2_hit); // behind an older tap: prefetched, ready 6, cost 5
        t.open_fragment(); // F2, tc 2
        tap(&mut t, 0, &hit); // merges with line 0's fill: ready 6
        tap(&mut t, 3, &download); // prefetched: ready 2 + 10 + 5 = 17, cost 15
        t.open_fragment(); // F3, tc 3
        tap(&mut t, 4, &l2_hit); // prefetched: ready 8, cost 5
        t.drain();
        // F1 arrives at 1, waits for 6 (line 2 waited 5 = its cost:
        // useless); F2 arrives at 7, waits for 17 (10 < 15: late); F3
        // arrives at 18, line 4 landed at 8 (useful).
        assert_eq!(
            *t.totals(),
            TimingCounters {
                cycles_total: 18,
                stall_cycles: 15,
                issue_stall_cycles: 0,
                taps: 6,
                fragments: 3,
                link_bytes: 64,
                link_busy_cycles: 0,
                prefetch_issued: 3,
                prefetch_useful: 1,
                prefetch_late: 1,
                prefetch_useless: 1,
                l1_merges: 1,
                l2_merges: 0,
            }
        );
    }

    #[test]
    fn timing_overlay_leaves_behavioral_state_untouched() {
        let reg = registry();
        let run = |timed: bool| {
            let mut e = SimEngine::new(ml_cfg(), &reg);
            if timed {
                e.attach_timing(LatencyModel::default());
            }
            for v in (0..64u32).step_by(3) {
                for u in (0..64u32).step_by(3) {
                    e.access_texel(TextureId::from_index(0), 0, u, v);
                }
            }
            e.end_frame();
            (
                e.frames().to_vec(),
                e.l2().and_then(|l2| l2.clock_hand()),
                e.host().transfers(),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
