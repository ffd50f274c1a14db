//! The L2 texture cache: virtual-memory-style caching of texture blocks
//! (paper §5.1–5.2 and the Appendix pseudo-code).
//!
//! The working-set results of §4.2 call for an L2 cache of megabytes; a
//! fully associative cache of that size is infeasible, and hashing for a
//! direct-mapped or set-associative organisation would have to capture
//! temporal as well as spatial locality across textures. The paper instead
//! treats L2 texture caching as virtual memory: a **texture page table**
//! (`t_table[]`) maps virtual blocks ⟨tid, L2⟩ to physical blocks in L2
//! cache memory, a **block replacement list** (`BRL[]`) runs the clock
//! algorithm to approximate LRU, and **sector mapping** downloads only the
//! L1 sub-block that missed, marking it in a per-page bit vector.

use mltc_cache::{ClockList, ClockStats, LruList, SectorBits};
use mltc_texture::TilingConfig;
use std::fmt;

/// L2 block replacement policy.
///
/// The paper uses clock ("a simple and robust algorithm that is still used
/// in practice", §5.1) and calls for investigating alternatives to avoid
/// "pesky" behaviour (§6); true LRU and FIFO are provided for that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Second-chance clock over the BRL (the paper's choice).
    #[default]
    Clock,
    /// True least-recently-used.
    Lru,
    /// First-in first-out (allocation order).
    Fifo,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementPolicy::Clock => "clock",
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
        })
    }
}

/// L2 cache configuration.
///
/// ```
/// use mltc_core::L2Config;
/// let c = L2Config::mb(2);
/// assert_eq!(c.size_bytes, 2 << 20);
/// assert!(c.sector_mapping);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity of L2 cache memory in bytes (32-bit texels).
    pub size_bytes: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
    /// When `true` (the paper's design), only the missing L1 sub-block is
    /// downloaded on a miss; when `false`, the whole L2 block is downloaded
    /// and all sectors marked resident (ablation C).
    pub sector_mapping: bool,
}

impl L2Config {
    /// A `mb`-megabyte clock-replaced sector-mapped cache (the paper studies
    /// 2, 4 and 8 MB).
    pub const fn mb(mb: usize) -> Self {
        Self {
            size_bytes: mb << 20,
            policy: ReplacementPolicy::Clock,
            sector_mapping: true,
        }
    }
}

/// Outcome of one L2 access (given an L1 miss).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Outcome {
    /// The virtual L2 block has a physical block *and* the wanted L1
    /// sub-block is resident: serve from local memory (paper step D → yes).
    FullHit,
    /// The block is allocated but the sub-block is vacant: download one L1
    /// sub-block from host memory into L2 (and L1 in parallel) (step F).
    PartialHit,
    /// No physical block: run replacement, allocate, then download (step E).
    FullMiss,
}

/// What one [`L2Cache::access`] did, in full: the outcome plus the
/// replacement decisions behind it. [`L2Cache::access_traced`] returns this
/// so a reference model can be compared decision-by-decision, not just on
/// aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2AccessTrace {
    /// Hit/miss classification.
    pub outcome: L2Outcome,
    /// Physical block serving the access (allocated on a full miss).
    pub block: u32,
    /// On a full miss that stole a live block: the 0-based page-table index
    /// of the evicted owner.
    pub evicted_page: Option<u32>,
}

/// A texture page table entry: the physical block number (`0` = none
/// allocated, else 1-based) and the sector presence bits.
#[derive(Debug, Clone, Copy, Default)]
struct PtEntry {
    l2_block: u32,
    sector: SectorBits,
}

/// Replacement machinery behind a common interface.
#[derive(Debug, Clone)]
enum Replacer {
    Clock(ClockList),
    Lru(LruList),
    Fifo(FifoList),
}

impl Replacer {
    fn new(policy: ReplacementPolicy, blocks: usize) -> Self {
        match policy {
            ReplacementPolicy::Clock => Replacer::Clock(ClockList::new(blocks)),
            ReplacementPolicy::Lru => Replacer::Lru(LruList::new(blocks)),
            ReplacementPolicy::Fifo => Replacer::Fifo(FifoList::new(blocks)),
        }
    }

    #[inline]
    fn touch(&mut self, b: usize) {
        match self {
            Replacer::Clock(c) => c.touch(b),
            Replacer::Lru(l) => l.touch(b),
            Replacer::Fifo(_) => {}
        }
    }

    fn find_victim(&mut self) -> usize {
        match self {
            Replacer::Clock(c) => c.find_victim(),
            Replacer::Lru(l) => l.find_victim(),
            Replacer::Fifo(f) => f.find_victim(),
        }
    }

    fn assign(&mut self, b: usize, t_index: u32) {
        match self {
            Replacer::Clock(c) => c.assign(b, t_index),
            Replacer::Lru(l) => l.assign(b, t_index),
            Replacer::Fifo(f) => f.assign(b, t_index),
        }
    }

    fn owner(&self, b: usize) -> Option<u32> {
        match self {
            Replacer::Clock(c) => c.owner(b),
            Replacer::Lru(l) => l.owner(b),
            Replacer::Fifo(f) => f.owner(b),
        }
    }

    // Cold (a failed download's teardown, a deleted texture) and reached
    // from every wide frame loop through the rollback tail. Never inlined,
    // so the loops' code does not depend on which codegen unit this module
    // is merged into (`scripts/kernel_identity.sh`).
    #[inline(never)]
    fn release(&mut self, b: usize) {
        match self {
            Replacer::Clock(c) => c.release(b),
            Replacer::Lru(l) => l.release(b),
            Replacer::Fifo(f) => f.release(b),
        }
    }
}

/// FIFO by allocation order.
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

    fn release(&mut self, b: usize) {
        self.owners[b] = 0;
        self.queue.retain(|&x| x != b as u32);
        self.free.push(b as u32);
    }
}

/// The L2 texture cache.
///
/// Physical texture data is not stored — this is a transaction-accurate
/// (not cycle-accurate) simulator, as in §3.3; only the page table, sector
/// bits and replacement state are modelled, which fully determine hits,
/// misses and traffic.
///
/// ```
/// use mltc_core::{L2Cache, L2Config, L2Outcome};
/// use mltc_texture::TilingConfig;
///
/// // 4 KB cache of 16x16 blocks = 4 physical blocks; 10-entry page table.
/// let mut l2 = L2Cache::new(
///     L2Config { size_bytes: 4096, ..L2Config::mb(2) },
///     TilingConfig::PAPER_DEFAULT, 10);
/// assert_eq!(l2.access(3, 0), L2Outcome::FullMiss);
/// assert_eq!(l2.access(3, 0), L2Outcome::FullHit);
/// assert_eq!(l2.access(3, 1), L2Outcome::PartialHit);
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    cfg: L2Config,
    tiling: TilingConfig,
    t_table: Vec<PtEntry>,
    replacer: Replacer,
    blocks: usize,
}

impl L2Cache {
    /// Builds an L2 cache with `page_table_entries` page-table slots (one
    /// per L2 block of every texture in system memory — see
    /// [`mltc_texture::PageTableLayout::entry_count`]).
    ///
    /// # Panics
    ///
    /// Panics if the configured size holds zero L2 blocks or the page table
    /// is empty.
    pub fn new(cfg: L2Config, tiling: TilingConfig, page_table_entries: u32) -> Self {
        let block_bytes = tiling.l2().cache_bytes();
        let blocks = cfg.size_bytes / block_bytes;
        assert!(
            blocks > 0,
            "L2 of {} bytes holds no {} blocks",
            cfg.size_bytes,
            tiling.l2()
        );
        assert!(page_table_entries > 0, "empty texture page table");
        Self {
            cfg,
            tiling,
            t_table: vec![PtEntry::default(); page_table_entries as usize],
            replacer: Replacer::new(cfg.policy, blocks),
            blocks,
        }
    }

    /// Configuration.
    #[inline]
    pub fn config(&self) -> L2Config {
        self.cfg
    }

    /// Tiling configuration (L2 block and L1 sub-block sizes).
    #[inline]
    pub fn tiling(&self) -> TilingConfig {
        self.tiling
    }

    /// Number of physical blocks.
    #[inline]
    pub fn block_count(&self) -> usize {
        self.blocks
    }

    /// Number of physical blocks currently allocated to virtual blocks.
    pub fn blocks_in_use(&self) -> usize {
        (0..self.blocks)
            .filter(|&b| self.replacer.owner(b).is_some())
            .count()
    }

    /// Presents an L1 miss for page-table entry `pt_index` (= `tstart + L2`)
    /// and L1 sub-block `l1_sub`; runs the control flow of the paper's
    /// Fig. 7 steps C–F and returns what happened.
    ///
    /// # Panics
    ///
    /// Panics if `pt_index` is out of page-table range or `l1_sub` exceeds
    /// the tiling's sub-blocks-per-block.
    pub fn access(&mut self, pt_index: u32, l1_sub: u16) -> L2Outcome {
        self.access_traced(pt_index, l1_sub).outcome
    }

    /// [`access`](Self::access) with the replacement decisions exposed:
    /// which physical block served the access and, on a full miss, which
    /// page (if any) lost its block. Behaviour is identical to `access` —
    /// this is the introspection hook the differential
    /// oracle's lockstep comparison runs on.
    pub fn access_traced(&mut self, pt_index: u32, l1_sub: u16) -> L2AccessTrace {
        assert!(
            (l1_sub as u32) < self.tiling.l1_per_l2(),
            "sub-block {l1_sub} out of range"
        );
        let ti = pt_index as usize;
        let entry = self.t_table[ti];

        if entry.l2_block != 0 {
            // Step C yes: a physical block is allocated.
            let b = (entry.l2_block - 1) as usize;
            let resident = !self.cfg.sector_mapping || entry.sector.get(l1_sub);
            self.replacer.touch(b);
            let outcome = if resident {
                L2Outcome::FullHit
            } else {
                // Step D no → F: download the missing sub-block.
                self.t_table[ti].sector.set(l1_sub);
                L2Outcome::PartialHit
            };
            L2AccessTrace {
                outcome,
                block: b as u32,
                evicted_page: None,
            }
        } else {
            // Step E: find a victim, steal its block, allocate, download.
            let b = self.replacer.find_victim();
            let evicted_page = self.replacer.owner(b).map(|old| {
                // Clear the victim's ownership via its t_index (1-based).
                self.t_table[(old - 1) as usize] = PtEntry::default();
                old - 1
            });
            self.replacer.assign(b, pt_index + 1);
            let mut sector = SectorBits::empty();
            if self.cfg.sector_mapping {
                sector.set(l1_sub);
            } else {
                sector = SectorBits::full(self.tiling.l1_per_l2());
            }
            self.t_table[ti] = PtEntry {
                l2_block: b as u32 + 1,
                sector,
            };
            L2AccessTrace {
                outcome: L2Outcome::FullMiss,
                block: b as u32,
                evicted_page,
            }
        }
    }

    /// Read-only residency probe: would `(pt_index, l1_sub)` full-hit right
    /// now? Unlike [`access`](Self::access) this touches neither the
    /// replacement state nor the page table — the engine uses it to look for
    /// a coarser mip level to degrade to after a failed download, and a
    /// degraded serve must not perturb what the caches would have done.
    pub fn is_resident(&self, pt_index: u32, l1_sub: u16) -> bool {
        let entry = self.t_table[pt_index as usize];
        entry.l2_block != 0 && (!self.cfg.sector_mapping || entry.sector.get(l1_sub))
    }

    /// Rolls back the residency that [`access`](Self::access) just recorded
    /// for `(pt_index, l1_sub)` because the host download behind it failed.
    ///
    /// With sector mapping only the failed sector is cleared; the physical
    /// block stays allocated (the page was claimed before the download, as
    /// in hardware — a later access partial-hits and retries). Without
    /// sector mapping the whole-block download failed, so the block is
    /// released entirely. Any victim evicted by the access is already gone;
    /// replacement ran before the download, which is the hardware ordering.
    pub fn fail_download(&mut self, pt_index: u32, l1_sub: u16) {
        let ti = pt_index as usize;
        let entry = self.t_table[ti];
        if entry.l2_block == 0 {
            return;
        }
        if self.cfg.sector_mapping {
            self.t_table[ti].sector.unset(l1_sub);
        } else {
            self.replacer.release((entry.l2_block - 1) as usize);
            self.t_table[ti] = PtEntry::default();
        }
    }

    /// Deallocates the page-table entries `tstart .. tstart + tlen` of a
    /// deleted texture, releasing any physical blocks they own (§5.2's
    /// deallocation walk).
    pub fn deallocate_texture(&mut self, tstart: u32, tlen: u32) {
        for ti in tstart..tstart + tlen {
            let entry = self.t_table[ti as usize];
            if entry.l2_block != 0 {
                self.replacer.release((entry.l2_block - 1) as usize);
                self.t_table[ti as usize] = PtEntry::default();
            }
        }
    }

    /// Clock victim-search statistics (zeroes for non-clock policies).
    pub fn clock_stats(&self) -> ClockStats {
        match &self.replacer {
            Replacer::Clock(c) => c.stats(),
            _ => ClockStats::default(),
        }
    }

    /// Current clock-hand position (`None` for non-clock policies).
    /// Conformance checking compares this against the reference model after
    /// every operation — a drifted hand means future victims diverge even
    /// while outcomes still agree.
    pub fn clock_hand(&self) -> Option<usize> {
        match &self.replacer {
            Replacer::Clock(c) => Some(c.hand()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_l2(blocks: usize, policy: ReplacementPolicy, entries: u32) -> L2Cache {
        let tiling = TilingConfig::PAPER_DEFAULT; // 1 KB blocks
        L2Cache::new(
            L2Config {
                size_bytes: blocks * 1024,
                policy,
                sector_mapping: true,
            },
            tiling,
            entries,
        )
    }

    #[test]
    fn miss_hit_partial_sequence() {
        let mut l2 = small_l2(4, ReplacementPolicy::Clock, 16);
        assert_eq!(l2.access(0, 0), L2Outcome::FullMiss);
        assert_eq!(l2.access(0, 0), L2Outcome::FullHit);
        assert_eq!(l2.access(0, 5), L2Outcome::PartialHit);
        assert_eq!(l2.access(0, 5), L2Outcome::FullHit);
    }

    #[test]
    fn conditional_rates() {
        // The paper reports L2 rates "as a conditional probability" of an
        // L1 miss (§5.4.2, fn. 5): each access here stands for one.
        let mut l2 = small_l2(4, ReplacementPolicy::Clock, 16);
        let outcomes = [(0, 0), (0, 0), (0, 1), (1, 0)].map(|(pt, sub)| l2.access(pt, sub));
        let share = |o| outcomes.iter().filter(|&&x| x == o).count() as f64 / 4.0;
        assert_eq!(share(L2Outcome::FullHit), 0.25);
        assert_eq!(share(L2Outcome::PartialHit), 0.25);
        assert_eq!(share(L2Outcome::FullMiss), 0.5);
    }

    #[test]
    fn replacement_clears_victims_page_entry() {
        let mut l2 = small_l2(2, ReplacementPolicy::Lru, 16);
        l2.access(0, 0);
        l2.access(1, 0);
        l2.access(2, 0); // evicts pt 0 (LRU)
        assert_eq!(l2.access(1, 0), L2Outcome::FullHit);
        assert_eq!(
            l2.access(0, 0),
            L2Outcome::FullMiss,
            "victim must have been unmapped"
        );
    }

    #[test]
    fn lru_keeps_recently_touched() {
        let mut l2 = small_l2(2, ReplacementPolicy::Lru, 16);
        l2.access(0, 0);
        l2.access(1, 0);
        l2.access(0, 1); // partial hit touches block of pt 0
        l2.access(2, 0); // should evict pt 1
        assert_eq!(l2.access(0, 0), L2Outcome::FullHit);
        assert_eq!(l2.access(1, 0), L2Outcome::FullMiss);
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut l2 = small_l2(2, ReplacementPolicy::Fifo, 16);
        l2.access(0, 0);
        l2.access(1, 0);
        l2.access(0, 1); // touch pt 0 — FIFO doesn't care
        l2.access(2, 0); // evicts pt 0 (first allocated)
        assert_eq!(l2.access(1, 0), L2Outcome::FullHit);
        assert_eq!(l2.access(0, 0), L2Outcome::FullMiss);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut l2 = small_l2(2, ReplacementPolicy::Clock, 16);
        l2.access(0, 0);
        l2.access(1, 0);
        // Both active; a miss sweeps, clears both, takes block 0 (pt 0).
        l2.access(2, 0);
        assert_eq!(
            l2.access(1, 0),
            L2Outcome::FullHit,
            "pt 1 got its second chance"
        );
    }

    #[test]
    fn sector_mapping_off_loads_whole_block() {
        let tiling = TilingConfig::PAPER_DEFAULT;
        let mut l2 = L2Cache::new(
            L2Config {
                size_bytes: 4096,
                policy: ReplacementPolicy::Clock,
                sector_mapping: false,
            },
            tiling,
            16,
        );
        assert_eq!(l2.access(0, 0), L2Outcome::FullMiss);
        assert_eq!(
            l2.access(0, 15),
            L2Outcome::FullHit,
            "all sectors resident after a miss"
        );
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_state_misses() {
        let mut l2 = small_l2(8, ReplacementPolicy::Clock, 8);
        for round in 0..3 {
            for pt in 0..8u32 {
                for sub in 0..16u16 {
                    let out = l2.access(pt, sub);
                    if round > 0 {
                        assert_eq!(out, L2Outcome::FullHit, "round {round} pt {pt} sub {sub}");
                    }
                }
            }
        }
    }

    #[test]
    fn thrashing_when_working_set_exceeds_capacity() {
        let mut l2 = small_l2(2, ReplacementPolicy::Lru, 8);
        // Cyclic sweep over 4 virtual blocks through 2 physical: LRU worst case.
        let mut misses = 0;
        for _ in 0..5 {
            for pt in 0..4u32 {
                if l2.access(pt, 0) == L2Outcome::FullMiss {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 20, "every access must miss under cyclic LRU thrash");
    }

    #[test]
    fn deallocate_texture_frees_blocks() {
        let mut l2 = small_l2(4, ReplacementPolicy::Clock, 16);
        l2.access(0, 0);
        l2.access(1, 0);
        assert_eq!(l2.blocks_in_use(), 2);
        l2.deallocate_texture(0, 2);
        assert_eq!(l2.blocks_in_use(), 0);
        assert_eq!(l2.access(0, 0), L2Outcome::FullMiss);
    }

    #[test]
    fn blocks_in_use_tracks_allocation() {
        let mut l2 = small_l2(4, ReplacementPolicy::Clock, 16);
        assert_eq!(l2.blocks_in_use(), 0);
        for pt in 0..6u32 {
            l2.access(pt, 0);
        }
        assert_eq!(l2.blocks_in_use(), 4, "capacity caps the allocation");
        assert_eq!(l2.block_count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_block_bounds_checked() {
        let mut l2 = small_l2(2, ReplacementPolicy::Clock, 4);
        let _ = l2.access(0, 16); // 16x16/4x4 has sub-blocks 0..16
    }

    #[test]
    fn is_resident_probe_is_side_effect_free() {
        let mut l2 = small_l2(2, ReplacementPolicy::Lru, 8);
        l2.access(0, 0);
        l2.access(1, 0);
        assert!(l2.is_resident(0, 0));
        assert!(!l2.is_resident(0, 1), "sector 1 never downloaded");
        assert!(!l2.is_resident(2, 0));
        // Probing pt 0 must not refresh its LRU position...
        for _ in 0..10 {
            l2.is_resident(0, 0);
        }
        l2.access(2, 0); // ...so pt 0 is still the LRU victim.
        assert_eq!(l2.access(1, 0), L2Outcome::FullHit);
        assert!(!l2.is_resident(0, 0));
    }

    #[test]
    fn fail_download_clears_the_sector_but_keeps_the_block() {
        let mut l2 = small_l2(4, ReplacementPolicy::Clock, 16);
        assert_eq!(l2.access(0, 3), L2Outcome::FullMiss);
        l2.fail_download(0, 3);
        assert!(!l2.is_resident(0, 3));
        assert_eq!(l2.blocks_in_use(), 1, "the page stays claimed");
        assert_eq!(
            l2.access(0, 3),
            L2Outcome::PartialHit,
            "a later access retries"
        );
    }

    #[test]
    fn fail_download_without_sector_mapping_releases_the_block() {
        let tiling = TilingConfig::PAPER_DEFAULT;
        let mut l2 = L2Cache::new(
            L2Config {
                size_bytes: 4096,
                policy: ReplacementPolicy::Clock,
                sector_mapping: false,
            },
            tiling,
            16,
        );
        l2.access(0, 0);
        l2.fail_download(0, 0);
        assert_eq!(l2.blocks_in_use(), 0);
        assert_eq!(
            l2.access(0, 5),
            L2Outcome::FullMiss,
            "nothing usable was kept"
        );
    }

    #[test]
    fn fail_download_on_unallocated_entry_is_a_no_op() {
        let mut l2 = small_l2(2, ReplacementPolicy::Clock, 8);
        l2.fail_download(3, 0);
        assert_eq!(l2.blocks_in_use(), 0);
    }

    #[test]
    fn lru_release_reuses_block_first() {
        let mut l2 = small_l2(2, ReplacementPolicy::Lru, 8);
        l2.access(0, 0);
        l2.access(1, 0);
        l2.deallocate_texture(0, 1); // free pt 0's block
        l2.access(2, 0); // must take the freed block, not evict pt 1
        assert_eq!(l2.access(1, 0), L2Outcome::FullHit);
    }

    #[test]
    fn access_traced_reports_blocks_and_victims() {
        let mut l2 = small_l2(2, ReplacementPolicy::Lru, 16);
        let a = l2.access_traced(0, 0);
        assert_eq!(a.outcome, L2Outcome::FullMiss);
        assert_eq!(a.block, 0);
        assert_eq!(a.evicted_page, None, "free block, nobody evicted");
        let b = l2.access_traced(1, 0);
        assert_eq!(
            (b.outcome, b.block, b.evicted_page),
            (L2Outcome::FullMiss, 1, None)
        );
        // Cache full: pt 2 steals pt 0's block (LRU).
        let c = l2.access_traced(2, 0);
        assert_eq!(
            (c.outcome, c.block, c.evicted_page),
            (L2Outcome::FullMiss, 0, Some(0))
        );
        // Hits and partial hits report the serving block, no victim.
        let d = l2.access_traced(2, 0);
        assert_eq!(
            (d.outcome, d.block, d.evicted_page),
            (L2Outcome::FullHit, 0, None)
        );
        let e = l2.access_traced(2, 3);
        assert_eq!(
            (e.outcome, e.block, e.evicted_page),
            (L2Outcome::PartialHit, 0, None)
        );
    }

    #[test]
    fn clock_hand_is_exposed_for_clock_only() {
        let mut clock = small_l2(2, ReplacementPolicy::Clock, 8);
        assert_eq!(clock.clock_hand(), Some(0));
        clock.access(0, 0);
        assert_eq!(clock.clock_hand(), Some(1), "hand advanced past victim");
        assert_eq!(small_l2(2, ReplacementPolicy::Lru, 8).clock_hand(), None);
        assert_eq!(small_l2(2, ReplacementPolicy::Fifo, 8).clock_hand(), None);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite coverage: random interleavings of `access`,
        /// `fail_download` and `deallocate_texture` must never leak blocks
        /// or corrupt the replacement state. "No leak" is checked by
        /// deallocating every page at the end — anything `blocks_in_use`
        /// still reports is a block no page owns; "no corruption" by the
        /// cache continuing to serve every later access without panicking
        /// and by the clock hand staying in range throughout.
        #[test]
        fn fail_dealloc_interleavings_never_leak_blocks(
            ops in proptest::collection::vec((0u32..3, 0u32..16, 0u32..16), 1..120usize),
            policy_pick in 0u32..3,
            blocks in 1usize..5,
            sector in any::<bool>(),
        ) {
            let policy = match policy_pick {
                0 => ReplacementPolicy::Clock,
                1 => ReplacementPolicy::Lru,
                _ => ReplacementPolicy::Fifo,
            };
            let entries = 16u32;
            let mut l2 = L2Cache::new(
                L2Config {
                    size_bytes: blocks * 1024,
                    policy,
                    sector_mapping: sector,
                },
                TilingConfig::PAPER_DEFAULT,
                entries,
            );
            for (kind, a, b) in ops {
                match kind {
                    0 => {
                        let _ = l2.access(a % entries, (b % 16) as u16);
                    }
                    1 => l2.fail_download(a % entries, (b % 16) as u16),
                    _ => {
                        let tstart = a % entries;
                        let tlen = (b % (entries - tstart)).max(1);
                        l2.deallocate_texture(tstart, tlen);
                    }
                }
                prop_assert!(l2.blocks_in_use() <= l2.block_count());
                if let Some(hand) = l2.clock_hand() {
                    prop_assert!(hand < l2.block_count(), "clock hand out of range");
                }
            }
            // The replacement state must still be able to cycle through
            // every page without panicking or double-allocating.
            for pt in 0..entries {
                let _ = l2.access(pt, 0);
                prop_assert!(l2.blocks_in_use() <= l2.block_count());
            }
            // Deallocating everything must return every block: anything
            // left in use afterwards is a leaked block.
            l2.deallocate_texture(0, entries);
            prop_assert_eq!(l2.blocks_in_use(), 0, "leaked physical blocks");
            // And the freed cache is fully reusable.
            for pt in 0..entries {
                let _ = l2.access(pt, 0);
            }
            prop_assert_eq!(l2.blocks_in_use(), l2.block_count().min(entries as usize));
        }
    }
}
