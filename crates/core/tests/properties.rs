//! Property-based tests: the L2 cache against a reference virtual-memory
//! model, and engine traffic invariants.

use mltc_core::{
    EngineConfig, L1Config, L2Cache, L2Config, L2Outcome, ReplacementPolicy, SimEngine,
};
use mltc_texture::{synth, MipPyramid, TextureId, TextureRegistry, TilingConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model of the paper's L2: a map from page-table index to the
/// set of resident sub-blocks, with true-LRU eviction at `capacity` pages.
struct ReferenceL2 {
    capacity: usize,
    /// Insertion/recency order: front = LRU.
    order: Vec<u32>,
    sectors: HashMap<u32, u64>,
}

impl ReferenceL2 {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            order: Vec::new(),
            sectors: HashMap::new(),
        }
    }

    fn access(&mut self, pt: u32, sub: u16) -> L2Outcome {
        if let Some(pos) = self.order.iter().position(|&p| p == pt) {
            self.order.remove(pos);
            self.order.push(pt);
            let bits = self
                .sectors
                .get_mut(&pt)
                .expect("resident page has sectors");
            if *bits & (1 << sub) != 0 {
                L2Outcome::FullHit
            } else {
                *bits |= 1 << sub;
                L2Outcome::PartialHit
            }
        } else {
            if self.order.len() == self.capacity {
                let victim = self.order.remove(0);
                self.sectors.remove(&victim);
            }
            self.order.push(pt);
            self.sectors.insert(pt, 1u64 << sub);
            L2Outcome::FullMiss
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The LRU-policy L2 cache matches the reference virtual-memory model
    /// outcome-for-outcome on arbitrary access streams.
    #[test]
    fn l2_lru_matches_reference(
        blocks in 1usize..12,
        stream in proptest::collection::vec((0u32..24, 0u16..16), 1..500),
    ) {
        let tiling = TilingConfig::PAPER_DEFAULT;
        let mut l2 = L2Cache::new(
            L2Config {
                size_bytes: blocks * tiling.l2().cache_bytes(),
                policy: ReplacementPolicy::Lru,
                sector_mapping: true,
            },
            tiling,
            24,
        );
        let mut reference = ReferenceL2::new(blocks);
        for (i, (pt, sub)) in stream.iter().enumerate() {
            let got = l2.access(*pt, *sub);
            let want = reference.access(*pt, *sub);
            prop_assert_eq!(got, want, "step {} pt {} sub {}", i, pt, sub);
        }
        prop_assert!(l2.blocks_in_use() <= blocks);
        prop_assert_eq!(l2.blocks_in_use(), reference.order.len());
    }

    /// Whatever the policy, outcome counts add up and capacity is obeyed.
    #[test]
    fn l2_counters_consistent_for_all_policies(
        policy_pick in 0u8..3,
        blocks in 1usize..8,
        stream in proptest::collection::vec((0u32..16, 0u16..16), 1..300),
    ) {
        let policy = match policy_pick {
            0 => ReplacementPolicy::Clock,
            1 => ReplacementPolicy::Lru,
            _ => ReplacementPolicy::Fifo,
        };
        let tiling = TilingConfig::PAPER_DEFAULT;
        let mut l2 = L2Cache::new(
            L2Config {
                size_bytes: blocks * tiling.l2().cache_bytes(),
                policy,
                sector_mapping: true,
            },
            tiling,
            16,
        );
        let (mut full_hits, mut partial_hits, mut full_misses) = (0usize, 0usize, 0usize);
        for (pt, sub) in &stream {
            match l2.access(*pt, *sub) {
                L2Outcome::FullHit => full_hits += 1,
                L2Outcome::PartialHit => partial_hits += 1,
                L2Outcome::FullMiss => full_misses += 1,
            }
        }
        prop_assert_eq!(full_hits + partial_hits + full_misses, stream.len());
        prop_assert!(l2.blocks_in_use() <= blocks);
        // Every distinct page's first access is a full miss.
        let pages: std::collections::HashSet<u32> = stream.iter().map(|&(pt, _)| pt).collect();
        prop_assert!(full_misses >= pages.len());
    }

    /// A working set that fits never misses after the first pass, under any
    /// policy (all policies must respect capacity sufficiency).
    #[test]
    fn fitting_working_set_converges(policy_pick in 0u8..3, pages in 1u32..8) {
        let policy = match policy_pick {
            0 => ReplacementPolicy::Clock,
            1 => ReplacementPolicy::Lru,
            _ => ReplacementPolicy::Fifo,
        };
        let tiling = TilingConfig::PAPER_DEFAULT;
        let mut l2 = L2Cache::new(
            L2Config {
                size_bytes: 8 * tiling.l2().cache_bytes(),
                policy,
                sector_mapping: true,
            },
            tiling,
            8,
        );
        for round in 0..3 {
            for pt in 0..pages {
                for sub in 0..16u16 {
                    let out = l2.access(pt, sub);
                    if round > 0 {
                        prop_assert_eq!(out, L2Outcome::FullHit,
                            "round {} pt {} sub {} under {:?}", round, pt, sub, policy);
                    }
                }
            }
        }
    }

    /// Pull-architecture invariant: host bytes are exactly L1 misses times
    /// the line size, for arbitrary texel access streams.
    #[test]
    fn pull_traffic_equals_misses(
        stream in proptest::collection::vec((0u32..64, 0u32..64), 1..400),
    ) {
        let mut reg = TextureRegistry::new();
        let tid = reg.load("t", MipPyramid::from_image(
            synth::checkerboard(64, 8, [0; 3], [255; 3])));
        let _ = tid;
        let mut e = SimEngine::new(
            EngineConfig { l1: L1Config::kb(2), ..EngineConfig::default() }, &reg);
        for (u, v) in &stream {
            e.access_texel(TextureId::from_index(0), 0, *u, *v);
        }
        e.end_frame();
        let f = e.frame_stats();
        prop_assert_eq!(f.host_bytes, (f.l1_accesses - f.l1_hits) * 64);
        prop_assert_eq!(f.l1_accesses, stream.len() as u64);
    }

    /// Multi-level invariant: every L1 miss is accounted by exactly one L2
    /// outcome, and host traffic equals (partials + misses) × line bytes
    /// under sector mapping.
    #[test]
    fn multilevel_traffic_accounting(
        stream in proptest::collection::vec((0u32..128, 0u32..128), 1..400),
    ) {
        let mut reg = TextureRegistry::new();
        reg.load("t", MipPyramid::from_image(
            synth::checkerboard(128, 8, [0; 3], [255; 3])));
        let mut e = SimEngine::new(
            EngineConfig {
                l1: L1Config::kb(2),
                l2: Some(L2Config::mb(2)),
                ..EngineConfig::default()
            },
            &reg,
        );
        for (u, v) in &stream {
            e.access_texel(TextureId::from_index(0), 0, *u, *v);
        }
        e.end_frame();
        let f = e.frame_stats();
        let misses = f.l1_accesses - f.l1_hits;
        prop_assert_eq!(f.l2_accesses(), misses);
        prop_assert_eq!(f.host_bytes, (f.l2_partial_hits + f.l2_full_misses) * 64);
        prop_assert_eq!(f.l2_local_bytes,
            (f.l2_full_hits + f.l2_partial_hits + f.l2_full_misses) * 64);
    }

    /// An L2 never increases host traffic relative to the pull architecture
    /// on identical streams (it can only intercept downloads).
    #[test]
    fn l2_never_hurts_bandwidth(
        stream in proptest::collection::vec((0u32..256, 0u32..256), 1..300),
    ) {
        let mut reg = TextureRegistry::new();
        reg.load("t", MipPyramid::from_image(
            synth::checkerboard(256, 8, [0; 3], [255; 3])));
        let mk = |l2| SimEngine::new(EngineConfig {
            l1: L1Config::kb(2), l2, ..EngineConfig::default() }, &reg);
        let mut pull = mk(None);
        let mut ml = mk(Some(L2Config::mb(2)));
        for (u, v) in &stream {
            pull.access_texel(TextureId::from_index(0), 0, *u, *v);
            ml.access_texel(TextureId::from_index(0), 0, *u, *v);
        }
        pull.end_frame();
        ml.end_frame();
        prop_assert!(ml.frame_stats().host_bytes <= pull.frame_stats().host_bytes);
    }
}
