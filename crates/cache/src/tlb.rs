//! Small fully-associative TLB with round-robin replacement.

/// The texture page-table TLB of paper §5.4.3: a small fully-associative
/// buffer of page-table entries, replaced round-robin. The paper studies
/// 1–16 entries and reports 36 %–92 % average hit rates.
///
/// Keys are opaque `u64`s (the engine uses the ⟨tid, L2⟩ page key) other
/// than `u64::MAX`, which marks an empty slot: the slots are one flat
/// array of keys, searched with plain compares.
///
/// ```
/// use mltc_cache::RoundRobinTlb;
/// let mut tlb = RoundRobinTlb::new(2);
/// assert!(!tlb.access(1));
/// assert!(tlb.access(1));
/// tlb.access(2);
/// tlb.access(3); // evicts 1 (round robin)
/// assert!(!tlb.access(1));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinTlb {
    /// Slot keys, [`EMPTY`] when unused.
    entries: Vec<u64>,
    next: usize,
}

/// The key of an empty slot.
const EMPTY: u64 = u64::MAX;

impl RoundRobinTlb {
    /// Creates a TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        Self {
            entries: vec![EMPTY; entries],
            next: 0,
        }
    }

    /// Capacity in entries.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Looks `key` up, installing it in the round-robin slot on a miss.
    /// Returns whether it hit.
    #[inline]
    pub fn access(&mut self, key: u64) -> bool {
        let hit = self.probe(key);
        if !hit {
            self.entries[self.next] = key;
            // A compare, not `%`: a 64-bit divide costs more than the
            // whole search.
            self.next += 1;
            if self.next == self.entries.len() {
                self.next = 0;
            }
        }
        hit
    }

    /// Non-mutating lookup: would `key` hit right now? No install, no
    /// pointer movement — the batch replay path uses this to
    /// test a whole tap batch before deciding to take the wide path.
    #[inline]
    pub fn probe(&self, key: u64) -> bool {
        debug_assert_ne!(key, EMPTY, "u64::MAX marks an empty TLB slot");
        // Every slot compared, no early exit: the loop vectorises, and a
        // hit's position is as good as random, so an exit branch would
        // mostly mispredict (so would a last-hit memo checked first:
        // trilinear misses alternate between two mip levels' pages).
        self.entries.iter().fold(false, |hit, &e| hit | (e == key))
    }

    /// Removes `key` if present (page-table entry deallocated).
    pub fn invalidate(&mut self, key: u64) {
        for e in &mut self.entries {
            if *e == key {
                *e = EMPTY;
            }
        }
    }

    /// Empties the TLB.
    pub fn flush(&mut self) {
        self.entries.fill(EMPTY);
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_entry_tlb_alternation_never_hits() {
        let mut tlb = RoundRobinTlb::new(1);
        for _ in 0..4 {
            assert!(!tlb.access(1));
            assert!(!tlb.access(2));
        }
    }

    #[test]
    fn repeated_key_hits() {
        let mut tlb = RoundRobinTlb::new(1);
        tlb.access(9);
        for _ in 0..5 {
            assert!(tlb.access(9));
        }
    }

    #[test]
    fn round_robin_evicts_oldest_slot() {
        let mut tlb = RoundRobinTlb::new(2);
        tlb.access(1); // slot 0
        tlb.access(2); // slot 1
        tlb.access(3); // slot 0, evicts 1
        assert!(tlb.access(2));
        assert!(!tlb.access(1));
    }

    #[test]
    fn hits_do_not_advance_pointer() {
        let mut tlb = RoundRobinTlb::new(2);
        tlb.access(1); // slot 0
        tlb.access(1); // hit
        tlb.access(2); // slot 1 — pointer must not have moved on the hit
        assert!(tlb.access(1), "key 1 must still be resident");
    }

    #[test]
    fn probe_observes_without_installing() {
        let mut tlb = RoundRobinTlb::new(2);
        assert!(!tlb.probe(1));
        assert!(!tlb.access(1), "probe must not have installed key 1");
        assert!(tlb.probe(1));
        assert!(!tlb.probe(2), "probe must not have installed key 2");
        assert_eq!(tlb.next, 1, "probes must not move the pointer");
    }

    #[test]
    fn invalidate_removes() {
        let mut tlb = RoundRobinTlb::new(4);
        tlb.access(5);
        tlb.invalidate(5);
        assert!(!tlb.access(5));
    }

    #[test]
    fn flush_clears_all() {
        let mut tlb = RoundRobinTlb::new(4);
        for k in 0..4 {
            tlb.access(k);
        }
        tlb.flush();
        for k in 0..4 {
            assert!(!tlb.access(k));
        }
    }

    #[test]
    fn bigger_tlb_holds_bigger_working_set() {
        let mut small = RoundRobinTlb::new(2);
        let mut big = RoundRobinTlb::new(8);
        let (mut small_hits, mut big_hits) = (0, 0);
        for _ in 0..10 {
            for k in 0..4 {
                small_hits += small.access(k) as u32;
                big_hits += big.access(k) as u32;
            }
        }
        // Four keys cycling through two slots always miss; eight slots
        // miss only the four cold accesses.
        assert_eq!(small_hits, 0);
        assert_eq!(big_hits, 40 - 4);
    }
}
