//! Property-based tests: the cache substrate vs simple reference models.

use mltc_cache::{ClockList, RoundRobinTlb, SectorBits, SetAssocCache};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference model of one set with true LRU.
#[derive(Default)]
struct LruSetModel {
    ways: usize,
    /// Front = LRU, back = MRU.
    lines: VecDeque<u64>,
}

impl LruSetModel {
    /// What an access of `tag` would return now, as `(hit, evicted)`.
    fn predict(&self, tag: u64) -> (bool, Option<u64>) {
        let hit = self.lines.contains(&tag);
        let full = self.lines.len() == self.ways;
        (hit, (!hit && full).then(|| self.lines[0]))
    }

    fn access(&mut self, tag: u64) -> bool {
        if let Some(pos) = self.lines.iter().position(|&t| t == tag) {
            self.lines.remove(pos);
            self.lines.push_back(tag);
            true
        } else {
            if self.lines.len() == self.ways {
                self.lines.pop_front();
            }
            self.lines.push_back(tag);
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The set-associative cache behaves exactly like a per-set true-LRU
    /// reference model on arbitrary access streams.
    #[test]
    fn setassoc_matches_lru_model(
        sets in 1usize..8,
        ways in 1usize..5,
        stream in proptest::collection::vec((0u64..32, 0usize..8), 1..300),
    ) {
        let mut cache = SetAssocCache::new(sets, ways);
        let mut models: Vec<LruSetModel> =
            (0..sets).map(|_| LruSetModel { ways, lines: VecDeque::new() }).collect();
        for (tag, set_raw) in stream {
            let set = set_raw % sets;
            let got = cache.access(tag, set).hit;
            let want = models[set].access(tag);
            prop_assert_eq!(got, want, "tag {} set {}", tag, set);
        }
    }

    /// The outcomes every hit counter is built from: each access returns
    /// the hit and the evicted tag the LRU model predicts from its state
    /// before that access, and probe agrees with residency after the
    /// access stream.
    #[test]
    fn setassoc_counters_and_probe(
        stream in proptest::collection::vec(0u64..16, 1..200),
    ) {
        let mut cache = SetAssocCache::new(4, 2);
        let mut model: Vec<LruSetModel> =
            (0..4).map(|_| LruSetModel { ways: 2, lines: VecDeque::new() }).collect();
        for (i, tag) in stream.iter().enumerate() {
            let set = (*tag % 4) as usize;
            let (hit, evicted) = model[set].predict(*tag);
            let got = cache.access(*tag, set);
            prop_assert_eq!((got.hit, got.evicted), (hit, evicted), "access {} of tag {}", i, tag);
            model[set].access(*tag);
        }
        for tag in 0u64..16 {
            let set = (tag % 4) as usize;
            prop_assert_eq!(cache.probe(tag, set), model[set].lines.contains(&tag));
        }
    }

    /// The clock list never hands out an out-of-range victim, and a victim
    /// freshly assigned and touched is never the immediate next victim when
    /// alternatives exist.
    #[test]
    fn clock_victims_in_range(blocks in 2usize..32, ops in proptest::collection::vec(0u8..4, 1..200)) {
        let mut clock = ClockList::new(blocks);
        let mut last: Option<usize> = None;
        for op in ops {
            match op {
                0 | 1 => {
                    let v = clock.find_victim();
                    prop_assert!(v < blocks);
                    clock.assign(v, (v + 1) as u32);
                    last = Some(v);
                }
                2 => {
                    if let Some(b) = last {
                        clock.touch(b);
                    }
                }
                _ => {
                    if let Some(b) = last {
                        clock.release(b);
                        prop_assert_eq!(clock.owner(b), None);
                        last = None;
                    }
                }
            }
        }
        // Accounting: every search examined at least one entry.
        let s = clock.stats();
        prop_assert!(s.entries_examined >= s.searches);
        prop_assert!(s.max_search <= 2 * blocks as u64);
    }

    /// Clock owner bookkeeping: after assigning distinct owners, each block
    /// reports exactly the owner it was given.
    #[test]
    fn clock_owner_roundtrip(blocks in 1usize..16) {
        let mut clock = ClockList::new(blocks);
        for i in 0..blocks {
            let v = clock.find_victim();
            clock.assign(v, (i + 100) as u32);
        }
        let mut owners: Vec<u32> = (0..blocks).filter_map(|b| clock.owner(b)).collect();
        owners.sort_unstable();
        let expect: Vec<u32> = (100..100 + blocks as u32).collect();
        prop_assert_eq!(owners, expect);
    }

    /// The TLB matches a reference round-robin model exactly, probes and
    /// invalidations included: each access returns the hit the model
    /// predicts from its slots before that access, and afterwards every
    /// key is resident exactly where the model holds it.
    #[test]
    fn tlb_matches_reference(
        entries in 1usize..8,
        stream in proptest::collection::vec((0u64..12, 0u8..10), 1..300),
    ) {
        let mut tlb = RoundRobinTlb::new(entries);
        let mut slots: Vec<Option<u64>> = vec![None; entries];
        let mut next = 0usize;
        for (key, op) in stream {
            let want = slots.contains(&Some(key));
            prop_assert_eq!(tlb.probe(key), want, "probe {}", key);
            if op == 0 {
                tlb.invalidate(key);
                slots.iter_mut().filter(|s| **s == Some(key)).for_each(|s| *s = None);
            } else {
                if !want {
                    slots[next] = Some(key);
                    next = (next + 1) % entries;
                }
                prop_assert_eq!(tlb.access(key), want, "key {}", key);
            }
            for k in 0u64..12 {
                prop_assert_eq!(tlb.probe(k), slots.contains(&Some(k)), "resident {}", k);
            }
        }
    }

    /// Sector bits: set/get/count agree with a reference u128 bitset.
    #[test]
    fn sector_bits_match_reference(ops in proptest::collection::vec(0u16..64, 0..100)) {
        let mut s = SectorBits::empty();
        let mut reference = [false; 64];
        for bit in ops {
            s.set(bit);
            reference[bit as usize] = true;
        }
        for bit in 0..64u16 {
            prop_assert_eq!(s.get(bit), reference[bit as usize]);
        }
        prop_assert_eq!(s.count() as usize, reference.iter().filter(|&&b| b).count());
    }
}
