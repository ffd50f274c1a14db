//! One-pass locality-profile capture.
//!
//! [`LocalityCapture`] listens to the engine's L1 tap stream — every hit
//! and every miss, in replay order — and builds everything the analytic
//! evaluator ([`crate::evaluate`]) needs to predict *any* cache
//! configuration without re-simulating:
//!
//! * an exact LRU stack-distance curve over **L1 blocks** (the full tap
//!   stream), which yields fully-associative-LRU hit counts for every L1
//!   capacity by the classic rule *hit at capacity C ⇔ distance < C*;
//! * per **page size**, over the L1-miss stream (the exact stream an L2
//!   cache of that page size would observe): the page stack-distance
//!   curve, the *sector-survival* curve (see below), ladders of tiny but
//!   bit-exact clock/LRU/FIFO replacement simulations at a handful of
//!   rung capacities, and a ladder of round-robin TLBs.
//!
//! ## The sector-survival statistic
//!
//! With sector mapping, an access full-hits a capacity-`C` LRU L2 iff the
//! page is resident *and* the page has stayed resident since the same
//! sector was last touched (eviction clears all sector bits; reallocation
//! sets only the newly missed sector). Between consecutive touches of a
//! page, the page survives in a capacity-`C` LRU iff the touch's stack
//! distance is `< C` — so the access full-hits iff
//!
//! ```text
//! m  =  max { stack distance of every touch of the page since the
//!             sector's last touch, the current touch included }  <  C.
//! ```
//!
//! `m` is capacity-independent, so one histogram of `m` gives the exact
//! full-hit count at *every* capacity, the page-distance histogram gives
//! the resident count, and partial hits are the difference. Per page the
//! capture keeps a monotone (decreasing-gap) stack of touch gaps, so `m`
//! is one binary search per miss.
//!
//! Clock and FIFO are not stack algorithms, so no such curve exists; the
//! capture instead runs real replacement state ([`mltc_cache::ClockList`],
//! an exact replica of the engine's FIFO list) at ladder capacities —
//! exact at the rungs, and the LRU curve brackets the rest. One mini
//! simulation serves both sector modes because the engine's replacement
//! stream (touch on any allocated access, assign on allocation) does not
//! depend on sector outcomes.

use crate::profile::{
    BlockProfile, CumCurve, LocalityProfile, MiniPoint, PageProfile, Policy, TlbPoint,
};
use mltc_cache::{ClockList, LruList, RoundRobinTlb};
use mltc_telemetry::StackDistance;
use std::collections::HashMap;

/// Geometry and ladder rungs for a capture run.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// `log2` of the L1 tile edge (2 = the paper's 4×4 tiles). Defines
    /// block keys and the sector-within-page coordinates.
    pub tile_shift: u32,
    /// L1 line size in bytes (the instrumented engine's).
    pub l1_line_bytes: u64,
    /// The instrumented engine's L1 capacity in lines; the evaluator
    /// serves this point from measured counters instead of the FA curve.
    pub l1_lines: u64,
    /// The instrumented engine's L1 associativity.
    pub l1_ways: u64,
    /// Page sizes to profile, as `log2` of the L2 tile edge (the paper
    /// studies 8×8, 16×16, 32×32 → shifts 3, 4, 5). Each must satisfy
    /// `shift - tile_shift ≤ 3` (≤ 64 sectors per page).
    pub page_shifts: Vec<u32>,
    /// Mini-simulation rung capacities, in L2 blocks, run per page shift
    /// for clock, LRU and FIFO replacement.
    pub mini_capacities: Vec<u64>,
    /// Round-robin TLB ladder sizes, in entries, run per page shift.
    pub tlb_rungs: Vec<usize>,
}

impl Default for CaptureConfig {
    /// The paper-default geometry: 4×4 L1 tiles of 64-byte lines, a 2 KB
    /// instrumented L1 (32 lines), page shifts 3–5, mini rungs covering
    /// the conformance matrix's 64 KB / 1 MB / 4 MB 16×16-block caches
    /// exactly, and TLB rungs around the studied 1–16-entry range.
    fn default() -> Self {
        Self {
            tile_shift: 2,
            l1_line_bytes: 64,
            l1_lines: 32,
            l1_ways: 2,
            page_shifts: vec![3, 4, 5],
            mini_capacities: vec![64, 256, 1024, 4096],
            tlb_rungs: vec![2, 4, 8, 16, 32, 64],
        }
    }
}

/// Packs (texture, mip, tile column, tile row) into one injective `u64`
/// key: 10 bits of texture, 6 of mip, 24 of each tile coordinate.
#[inline]
fn pack_key(tid: u32, m: u32, cu: u32, cv: u32) -> u64 {
    debug_assert!(tid < (1 << 10) && m < (1 << 6) && cu < (1 << 24) && cv < (1 << 24));
    ((tid as u64) << 54) | ((m as u64) << 48) | ((cu as u64) << 24) | cv as u64
}

/// Exact-count histogram: value → occurrences. Finalized into a
/// [`CumCurve`] for O(log n) `count_below` queries at any capacity.
#[derive(Debug, Clone, Default)]
struct DistHist {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl DistHist {
    #[inline]
    fn record(&mut self, v: u64) {
        *self.counts.entry(v).or_insert(0) += 1;
        self.total += 1;
    }
}

/// FIFO replacement by allocation order — a replica of the engine L2's
/// (private) FIFO list, so FIFO mini rungs are bit-exact: free blocks are
/// handed out low-to-high, then strict allocation order.
#[derive(Debug, Clone)]
struct FifoList {
    free: Vec<u32>,
    queue: std::collections::VecDeque<u32>,
    owners: Vec<u32>,
}

impl FifoList {
    fn new(blocks: usize) -> Self {
        Self {
            free: (0..blocks as u32).rev().collect(),
            queue: std::collections::VecDeque::with_capacity(blocks),
            owners: vec![0; blocks],
        }
    }

    fn find_victim(&mut self) -> usize {
        if let Some(b) = self.free.pop() {
            b as usize
        } else {
            self.queue
                .pop_front()
                .expect("FIFO queue empty with no free blocks") as usize
        }
    }

    fn assign(&mut self, b: usize, t_index: u32) {
        self.owners[b] = t_index;
        self.queue.push_back(b as u32);
    }

    fn owner(&self, b: usize) -> Option<u32> {
        (self.owners[b] != 0).then_some(self.owners[b])
    }
}

#[derive(Debug, Clone)]
enum MiniReplacer {
    Clock(ClockList),
    Lru(LruList),
    Fifo(FifoList),
}

impl MiniReplacer {
    fn new(policy: Policy, blocks: usize) -> Self {
        match policy {
            Policy::Clock => MiniReplacer::Clock(ClockList::new(blocks)),
            Policy::Lru => MiniReplacer::Lru(LruList::new(blocks)),
            Policy::Fifo => MiniReplacer::Fifo(FifoList::new(blocks)),
        }
    }

    #[inline]
    fn touch(&mut self, b: usize) {
        match self {
            MiniReplacer::Clock(c) => c.touch(b),
            MiniReplacer::Lru(l) => l.touch(b),
            MiniReplacer::Fifo(_) => {}
        }
    }

    fn find_victim(&mut self) -> usize {
        match self {
            MiniReplacer::Clock(c) => c.find_victim(),
            MiniReplacer::Lru(l) => l.find_victim(),
            MiniReplacer::Fifo(f) => f.find_victim(),
        }
    }

    fn assign(&mut self, b: usize, t_index: u32) {
        match self {
            MiniReplacer::Clock(c) => c.assign(b, t_index),
            MiniReplacer::Lru(l) => l.assign(b, t_index),
            MiniReplacer::Fifo(f) => f.assign(b, t_index),
        }
    }

    fn owner(&self, b: usize) -> Option<u32> {
        match self {
            MiniReplacer::Clock(c) => c.owner(b),
            MiniReplacer::Lru(l) => l.owner(b),
            MiniReplacer::Fifo(f) => f.owner(b),
        }
    }
}

/// One page-table entry of a mini simulation: 1-based physical block
/// (0 = unallocated) plus the page's sector presence mask.
#[derive(Debug, Clone, Copy, Default)]
struct MiniPt {
    block: u32,
    mask: u64,
}

/// A tiny replacement-exact L2 at one (policy, capacity) rung. The page
/// table is indexed by the level's dense page ids and tracks sector bits,
/// so one pass yields both sector-mapped and whole-block-download
/// counters (the replacement stream is identical in both modes).
#[derive(Debug, Clone)]
struct MiniL2 {
    policy: Policy,
    cap_blocks: u64,
    replacer: MiniReplacer,
    table: Vec<MiniPt>,
    full_hits_on: u64,
    partial_hits_on: u64,
    full_hits_off: u64,
    full_misses: u64,
}

impl MiniL2 {
    fn new(policy: Policy, cap_blocks: u64) -> Self {
        Self {
            policy,
            cap_blocks,
            replacer: MiniReplacer::new(policy, cap_blocks as usize),
            table: Vec::new(),
            full_hits_on: 0,
            partial_hits_on: 0,
            full_hits_off: 0,
            full_misses: 0,
        }
    }

    /// Mirrors `L2Cache::access` (steps C–F) on dense page ids, counting
    /// both sector modes at once.
    #[inline]
    fn access(&mut self, page_id: u32, sector: u32) {
        let pi = page_id as usize;
        if pi >= self.table.len() {
            self.table.resize(pi + 1, MiniPt::default());
        }
        let entry = self.table[pi];
        if entry.block != 0 {
            let b = (entry.block - 1) as usize;
            self.replacer.touch(b);
            self.full_hits_off += 1;
            if entry.mask & (1u64 << sector) != 0 {
                self.full_hits_on += 1;
            } else {
                self.table[pi].mask |= 1u64 << sector;
                self.partial_hits_on += 1;
            }
        } else {
            let b = self.replacer.find_victim();
            if let Some(old) = self.replacer.owner(b) {
                self.table[(old - 1) as usize] = MiniPt::default();
            }
            self.replacer.assign(b, page_id + 1);
            self.table[pi] = MiniPt {
                block: b as u32 + 1,
                mask: 1u64 << sector,
            };
            self.full_misses += 1;
        }
    }

    fn point(&self) -> MiniPoint {
        MiniPoint {
            policy: self.policy,
            cap_blocks: self.cap_blocks,
            full_hits_on: self.full_hits_on,
            partial_hits_on: self.partial_hits_on,
            full_hits_off: self.full_hits_off,
            full_misses: self.full_misses,
        }
    }
}

/// Per-page state for the sector-survival statistic.
#[derive(Debug, Clone, Default)]
struct PageState {
    /// Touches of this page so far (the next touch gets this index).
    touches: u32,
    /// Monotone stack of (touch index, stack distance at that touch):
    /// indices increase, distances strictly decrease. The maximum
    /// distance over touches in `(i, current]` is the first entry with
    /// index `> i`.
    gaps: Vec<(u32, u64)>,
    /// sector id → touch index of its last access.
    sector_last: HashMap<u32, u32>,
}

/// Everything captured per page size over the L1-miss stream.
#[derive(Debug)]
struct PageLevel {
    shift: u32,
    sd: StackDistance,
    dist: DistHist,
    sector_full: DistHist,
    cold: u64,
    accesses: u64,
    pages: HashMap<u64, PageState>,
    ids: HashMap<u64, u32>,
    minis: Vec<MiniL2>,
    /// One TLB per ladder rung, with the hits its `access` returned.
    tlbs: Vec<(RoundRobinTlb, u64)>,
}

impl PageLevel {
    fn new(shift: u32, cfg: &CaptureConfig) -> Self {
        let mut minis = Vec::new();
        for &cap in &cfg.mini_capacities {
            for policy in [Policy::Clock, Policy::Lru, Policy::Fifo] {
                minis.push(MiniL2::new(policy, cap));
            }
        }
        Self {
            shift,
            sd: StackDistance::new(),
            dist: DistHist::default(),
            sector_full: DistHist::default(),
            cold: 0,
            accesses: 0,
            pages: HashMap::new(),
            ids: HashMap::new(),
            minis,
            tlbs: cfg
                .tlb_rungs
                .iter()
                .map(|&e| (RoundRobinTlb::new(e), 0))
                .collect(),
        }
    }

    #[inline]
    fn on_miss(&mut self, tid: u32, m: u32, u: u32, v: u32, tile_shift: u32) {
        self.accesses += 1;
        let key = pack_key(tid, m, u >> self.shift, v >> self.shift);
        let edge_mask = (1u32 << (self.shift - tile_shift)) - 1;
        let sx = (u >> tile_shift) & edge_mask;
        let sy = (v >> tile_shift) & edge_mask;
        let sector = sy * (edge_mask + 1) + sx;

        let d = self.sd.record(key);
        let st = self.pages.entry(key).or_default();
        let cur = st.touches;
        st.touches += 1;
        match d {
            None => self.cold += 1,
            Some(d) => {
                self.dist.record(d);
                // Dominated older gaps can never be the (i, current]
                // maximum once this touch's gap is in range.
                while matches!(st.gaps.last(), Some(&(_, g)) if g <= d) {
                    st.gaps.pop();
                }
                st.gaps.push((cur, d));
                if let Some(&i) = st.sector_last.get(&sector) {
                    let pos = st.gaps.partition_point(|&(idx, _)| idx <= i);
                    let m_survival = st.gaps[pos].1;
                    self.sector_full.record(m_survival);
                }
            }
        }
        st.sector_last.insert(sector, cur);

        let next_id = self.ids.len() as u32;
        let id = *self.ids.entry(key).or_insert(next_id);
        for mini in &mut self.minis {
            mini.access(id, sector);
        }
        for (tlb, hits) in &mut self.tlbs {
            *hits += tlb.access(key) as u64;
        }
    }

    fn finalize(&self) -> PageProfile {
        PageProfile {
            shift: self.shift,
            accesses: self.accesses,
            cold: self.cold,
            distinct: self.ids.len() as u64,
            resident: CumCurve::from_counts(&self.dist.counts),
            sector_full: CumCurve::from_counts(&self.sector_full.counts),
            minis: self.minis.iter().map(MiniL2::point).collect(),
            tlbs: self
                .tlbs
                .iter()
                .map(|(t, hits)| TlbPoint {
                    entries: t.capacity(),
                    accesses: self.accesses,
                    hits: *hits,
                })
                .collect(),
        }
    }
}

/// The one-pass capture: feed it the instrumented replay's L1 hit and
/// miss streams (in tap order), then [`finalize`](Self::finalize) into a
/// [`LocalityProfile`].
///
/// The capture only observes — it owns all its state and never touches
/// engine counters, caches or RNG, the same contract miss attribution
/// keeps.
///
/// ```
/// use mltc_model::{CaptureConfig, LocalityCapture};
/// let mut cap = LocalityCapture::new(CaptureConfig::default());
/// cap.on_miss(0, 0, 0, 0); // cold tap: L1 miss
/// cap.on_hit(0, 0, 1, 0);  // same 4×4 tile: L1 hit
/// let profile = cap.finalize();
/// assert_eq!(profile.taps, 2);
/// assert_eq!(profile.l1_hits, 1);
/// ```
#[derive(Debug)]
pub struct LocalityCapture {
    cfg: CaptureConfig,
    taps: u64,
    l1_hits: u64,
    block_sd: StackDistance,
    block_dist: DistHist,
    levels: Vec<PageLevel>,
}

impl LocalityCapture {
    /// Builds a capture for the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if a page shift is not larger than the tile shift or exceeds
    /// it by more than 3 (more than 64 sectors per page), or if a ladder
    /// is empty where the config promises rungs.
    pub fn new(cfg: CaptureConfig) -> Self {
        for &s in &cfg.page_shifts {
            assert!(
                s > cfg.tile_shift && s - cfg.tile_shift <= 3,
                "page shift {s} incompatible with tile shift {}",
                cfg.tile_shift
            );
        }
        let levels = cfg
            .page_shifts
            .iter()
            .map(|&s| PageLevel::new(s, &cfg))
            .collect();
        Self {
            cfg,
            taps: 0,
            l1_hits: 0,
            block_sd: StackDistance::new(),
            block_dist: DistHist::default(),
            levels,
        }
    }

    /// The capture's geometry.
    pub fn config(&self) -> &CaptureConfig {
        &self.cfg
    }

    /// Taps observed so far.
    pub fn taps(&self) -> u64 {
        self.taps
    }

    /// One L1 hit, with the tap's texel coordinates. Feeds the L1 block
    /// stack-distance curve only (hits never reach the L2/TLB planes).
    #[inline]
    pub fn on_hit(&mut self, tid: u32, m: u32, u: u32, v: u32) {
        self.taps += 1;
        self.l1_hits += 1;
        self.record_block(tid, m, u, v);
    }

    /// One L1 miss. Feeds the L1 block curve and, since the L1-miss
    /// stream is exactly what any L2 and TLB would observe, every
    /// page-level plane.
    #[inline]
    pub fn on_miss(&mut self, tid: u32, m: u32, u: u32, v: u32) {
        self.taps += 1;
        self.record_block(tid, m, u, v);
        let ts = self.cfg.tile_shift;
        for level in &mut self.levels {
            level.on_miss(tid, m, u, v, ts);
        }
    }

    #[inline]
    fn record_block(&mut self, tid: u32, m: u32, u: u32, v: u32) {
        let ts = self.cfg.tile_shift;
        let key = pack_key(tid, m, u >> ts, v >> ts);
        if let Some(d) = self.block_sd.record(key) {
            self.block_dist.record(d);
        }
    }

    /// Folds the captured state into an immutable profile.
    pub fn finalize(&self) -> LocalityProfile {
        LocalityProfile {
            taps: self.taps,
            l1_hits: self.l1_hits,
            l1_misses: self.taps - self.l1_hits,
            l1_lines_instrumented: self.cfg.l1_lines,
            l1_ways_instrumented: self.cfg.l1_ways,
            l1_line_bytes: self.cfg.l1_line_bytes,
            tile_shift: self.cfg.tile_shift,
            blocks: vec![BlockProfile {
                shift: self.cfg.tile_shift,
                accesses: self.taps,
                cold: self.block_sd.cold_accesses(),
                distinct: self.block_sd.distinct_keys() as u64,
                curve: CumCurve::from_counts(&self.block_dist.counts),
            }],
            pages: self.levels.iter().map(PageLevel::finalize).collect(),
        }
    }
}
