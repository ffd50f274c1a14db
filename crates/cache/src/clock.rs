//! The "clock" (second-chance) approximation of LRU.

/// Victim-search cost statistics for the clock algorithm.
///
/// The paper (§5.4.2) studies the variable cost of the clock's sweep for
/// "pesky" behaviour and reports that searching the active bits 16 at a time
/// always found a victim within 32 cycles on its workloads; these counters
/// let the harness reproduce that analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockStats {
    /// Victim searches performed.
    pub searches: u64,
    /// Total entries examined across all searches.
    pub entries_examined: u64,
    /// Longest single search, in entries examined.
    pub max_search: u64,
}

impl ClockStats {
    /// Mean entries examined per search (0 when no searches happened).
    pub fn mean_search(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.entries_examined as f64 / self.searches as f64
        }
    }

    /// Search cost in cycles if `width` active bits are examined per cycle
    /// (the paper evaluates `width = 16`).
    pub fn max_cycles(&self, width: u64) -> u64 {
        assert!(width > 0);
        self.max_search.div_ceil(width)
    }
}

#[derive(Debug, Clone, Copy)]
struct ClockEntry {
    active: bool,
    /// 1-based index into the owning structure's page table; 0 = free.
    t_index: u32,
}

/// The paper's Block Replacement List (`BRL[]`, §5.2): a circular FIFO with
/// one entry per physical L2 cache block, each holding a recent-`active` bit
/// and the page-table index `t_index` of the block's current owner.
///
/// When a victim is required, the clock hand marches around the list looking
/// for an entry with `active == false`, clearing the `active` bits it passes
/// over — the classic second-chance approximation of LRU.
///
/// ```
/// use mltc_cache::ClockList;
/// let mut brl = ClockList::new(2);
/// let a = brl.find_victim();
/// brl.assign(a, 10);
/// let b = brl.find_victim();
/// brl.assign(b, 20);
/// // Both blocks are active; the sweep clears them and takes the block the
/// // hand reaches first (`a`), giving `b` a second chance.
/// assert_eq!(brl.find_victim(), a);
/// ```
#[derive(Debug, Clone)]
pub struct ClockList {
    entries: Vec<ClockEntry>,
    hand: usize,
    stats: ClockStats,
}

impl ClockList {
    /// Creates a list of `blocks` free entries.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn new(blocks: usize) -> Self {
        assert!(blocks > 0, "replacement list needs at least one block");
        Self {
            entries: vec![
                ClockEntry {
                    active: false,
                    t_index: 0
                };
                blocks
            ],
            hand: 0,
            stats: ClockStats::default(),
        }
    }

    /// Number of physical blocks tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: the constructor rejects empty lists.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks block `i` recently used (the accelerator sets the `active` bit
    /// on every reference to a physical block).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn touch(&mut self, i: usize) {
        self.entries[i].active = true;
    }

    /// The 1-based page-table index owning block `i`, or `None` if free.
    pub fn owner(&self, i: usize) -> Option<u32> {
        let t = self.entries[i].t_index;
        (t != 0).then_some(t)
    }

    /// Records that block `i` is now owned by 1-based page-table index
    /// `t_index`, and marks it active.
    ///
    /// # Panics
    ///
    /// Panics if `t_index` is zero (reserved for "free") or `i` is out of
    /// range.
    pub fn assign(&mut self, i: usize, t_index: u32) {
        assert!(t_index != 0, "t_index 0 is reserved for free blocks");
        self.entries[i] = ClockEntry {
            active: true,
            t_index,
        };
    }

    /// Releases block `i` (e.g. when its texture is deleted).
    pub fn release(&mut self, i: usize) {
        self.entries[i] = ClockEntry {
            active: false,
            t_index: 0,
        };
    }

    /// Sweeps the clock hand to the next inactive entry, clearing `active`
    /// bits along the way, and returns that block index. The hand advances
    /// past the victim, as in the paper's Appendix pseudo-code.
    ///
    /// The sweep always terminates: after one full revolution every bit has
    /// been cleared, so the entry under the hand is inactive.
    pub fn find_victim(&mut self) -> usize {
        let n = self.entries.len();
        let mut examined = 0u64;
        loop {
            examined += 1;
            let i = self.hand;
            if self.entries[i].active {
                self.entries[i].active = false;
                self.hand = (self.hand + 1) % n;
            } else {
                self.hand = (self.hand + 1) % n;
                self.stats.searches += 1;
                self.stats.entries_examined += examined;
                self.stats.max_search = self.stats.max_search.max(examined);
                return i;
            }
            debug_assert!(examined <= 2 * n as u64, "clock sweep failed to terminate");
        }
    }

    /// Current hand position (the entry the next victim search examines
    /// first). Exposed for conformance checking: a reference model must
    /// agree on the hand after every operation, or victim choices diverge.
    #[inline]
    pub fn hand(&self) -> usize {
        self.hand
    }

    /// Victim-search statistics.
    #[inline]
    pub fn stats(&self) -> ClockStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_free_blocks_first() {
        let mut brl = ClockList::new(3);
        let picks: Vec<usize> = (0..3)
            .map(|_| {
                let v = brl.find_victim();
                brl.assign(v, 1);
                v
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    fn second_chance_spares_touched_blocks() {
        let mut brl = ClockList::new(3);
        for t in 1..=3 {
            let v = brl.find_victim();
            brl.assign(v, t);
        }
        // Touch 0 and 2; the sweep should clear them and take 1... but note
        // assign() also set active. One full sweep clears 0,1,2 then takes 0?
        // Work through it: all active. Hand at 0: clears 0, 1, 2, wraps,
        // takes 0. So the first victim after filling is block 0.
        assert_eq!(brl.find_victim(), 0);
        brl.assign(0, 4);
        // Now: 0 active, 1 and 2 inactive, hand at 1 -> victim 1.
        assert_eq!(brl.find_victim(), 1);
        brl.assign(1, 5);
        // Touch 2 so it survives the next sweep: hand at 2 (active: cleared),
        // 0 (active: cleared), 1 (active: cleared), 2 (now inactive) -> 2.
        brl.touch(2);
        assert_eq!(brl.find_victim(), 2);
    }

    #[test]
    fn owner_tracking() {
        let mut brl = ClockList::new(2);
        assert_eq!(brl.owner(0), None);
        brl.assign(0, 42);
        assert_eq!(brl.owner(0), Some(42));
        brl.release(0);
        assert_eq!(brl.owner(0), None);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn zero_t_index_rejected() {
        let mut brl = ClockList::new(1);
        brl.assign(0, 0);
    }

    #[test]
    fn stats_track_search_cost() {
        let mut brl = ClockList::new(4);
        for t in 1..=4 {
            let v = brl.find_victim();
            brl.assign(v, t);
        }
        let before = brl.stats();
        // All 4 active: the next search examines all 4 entries + wraps to 0.
        let _ = brl.find_victim();
        let s = brl.stats();
        assert_eq!(s.searches, before.searches + 1);
        assert_eq!(s.entries_examined, before.entries_examined + 5);
        assert_eq!(s.max_search, 5);
        assert_eq!(s.max_cycles(16), 1);
        assert!(s.mean_search() >= 1.0);
    }

    #[test]
    fn release_makes_block_immediately_claimable() {
        let mut brl = ClockList::new(2);
        for t in 1..=2 {
            let v = brl.find_victim();
            brl.assign(v, t);
        }
        brl.release(1);
        brl.touch(0);
        let v = brl.find_victim();
        assert_eq!(
            v, 1,
            "released block should be found (hand order permitting)"
        );
    }

    #[test]
    fn hand_advances_past_the_victim() {
        let mut brl = ClockList::new(3);
        assert_eq!(brl.hand(), 0);
        let v = brl.find_victim();
        assert_eq!(v, 0);
        assert_eq!(brl.hand(), 1, "hand moved past the victim");
        brl.assign(v, 1);
        let _ = brl.find_victim();
        assert_eq!(brl.hand(), 2);
    }

    #[test]
    fn single_block_list_recycles() {
        let mut brl = ClockList::new(1);
        let v = brl.find_victim();
        brl.assign(v, 1);
        assert_eq!(brl.find_victim(), 0);
    }
}
