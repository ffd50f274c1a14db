//! Miss attribution: 3C classification against a shadow fully-associative
//! LRU model, plus per-bin heat maps and eviction-cause counters.
//!
//! The classic 3C decomposition (compulsory / capacity / conflict) asks,
//! for every miss of a real cache, what a *fully-associative LRU cache of
//! the same capacity* would have done with the same reference stream:
//!
//! * never-before-seen key → **compulsory** (no cache geometry helps);
//! * stack distance ≥ capacity → **capacity** (the fully-associative
//!   model misses too: the working set simply does not fit);
//! * stack distance < capacity → **conflict** (the model would have hit,
//!   so the miss is an artifact of limited associativity / placement —
//!   or, for non-LRU replacement, of the victim-selection policy).
//!
//! Two forms. [`record_miss`](MissAttribution::record_miss) runs the
//! model itself: an exact fully-associative LRU cache of `capacity` keys
//! plus the set of keys it has ever seen. By LRU inclusion a key is
//! resident exactly when its stack distance is below the capacity, so
//! *never seen* / *seen, not resident* / *resident* are the three classes
//! above, identically — at one or two hash probes and a list splice per
//! miss, with memory bounded by the distinct keys of the stream.
//! [`record_miss_with_distance`](MissAttribution::record_miss_with_distance)
//! takes the stack distance from a consumer that already measures it (the
//! engine's L2 reuse-distance tracker).
//!
//! Conservation holds by construction: every call to either form
//! increments exactly one of the three class counters, so as long as a
//! consumer calls it exactly once per miss, `compulsory + capacity +
//! conflict == misses` — the workspace's property tests drive random
//! streams through an engine to check exactly that.
//!
//! Counts are buffered: they reach the [`Recorder`] when the owner calls
//! [`publish`](MissAttribution::publish).

use std::collections::HashMap;

use crate::heat::BufferedHeatMap;
use crate::recorder::{BufferedCounter, Recorder};

/// Which of the 3 classic classes a miss fell into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissClass {
    /// First-ever reference to the key: no cache would have hit.
    Compulsory,
    /// The fully-associative same-capacity model misses too.
    Capacity,
    /// The model would have hit: placement/associativity artifact.
    Conflict,
}

/// Why a resident entry left the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionCause {
    /// Displaced by replacement to make room.
    Capacity,
    /// Invalidated (e.g. a speculative install rolled back).
    Invalidation,
    /// Torn down by a failed/fault-degraded download.
    Fault,
}

/// Opt-in miss attribution for one cache level: 3C class counters fed by
/// a shadow fully-associative LRU model, per-bin access/eviction heat
/// maps, and eviction-cause counters. All handles come from one
/// [`Recorder`], registered under `prefix`, so a disabled recorder makes
/// the whole component inert (the engine additionally gates attribution
/// behind an explicit opt-in so the default attach pays nothing at all).
#[derive(Debug)]
pub struct MissAttribution {
    compulsory: BufferedCounter,
    capacity_misses: BufferedCounter,
    conflict: BufferedCounter,
    evict_capacity: BufferedCounter,
    evict_invalidation: BufferedCounter,
    evict_fault: BufferedCounter,
    /// Per-bin miss counts (bin = cache set, or a folded page index).
    misses: BufferedHeatMap,
    /// Per-bin eviction counts (all causes).
    evictions: BufferedHeatMap,
    /// Shadow model of [`record_miss`](Self::record_miss) (the
    /// distance-fed form bypasses it).
    shadow: ShadowLru,
    /// Modelled capacity in keys (lines / blocks / pages).
    capacity: u64,
}

impl MissAttribution {
    /// Registers every handle on `recorder` under `prefix` (e.g.
    /// `attrib/village/l1`). `capacity` is the modelled cache size in
    /// keys; `bins` sizes both heat maps.
    pub fn new(recorder: &Recorder, prefix: &str, capacity: u64, bins: usize) -> Self {
        let c = |name: &str| recorder.counter(&format!("{prefix}/{name}")).buffered();
        let heat = |name: &str| {
            recorder
                .heatmap(&format!("{prefix}/{name}"), bins)
                .buffered()
        };
        Self {
            compulsory: c("compulsory"),
            capacity_misses: c("capacity"),
            conflict: c("conflict"),
            evict_capacity: c("evict_capacity"),
            evict_invalidation: c("evict_invalidation"),
            evict_fault: c("evict_fault"),
            misses: heat("miss_bins"),
            evictions: heat("eviction_bins"),
            shadow: ShadowLru::new(capacity),
            capacity,
        }
    }

    /// The modelled capacity in keys.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Distinct keys the internal shadow model has ever seen — its memory
    /// bound.
    pub fn shadow_distinct_keys(&self) -> usize {
        self.shadow.slot.len()
    }

    /// Maps a stack distance (`None` = first access) to a class.
    #[inline]
    pub fn classify(&self, distance: Option<u64>) -> MissClass {
        match distance {
            None => MissClass::Compulsory,
            Some(d) if d >= self.capacity => MissClass::Capacity,
            Some(_) => MissClass::Conflict,
        }
    }

    /// Classifies one miss by feeding `key` through the internal shadow
    /// LRU, counts it under the class and the heat bin, and returns the
    /// class. Call exactly once per miss.
    #[inline]
    pub fn record_miss(&mut self, key: u64, bin: usize) -> MissClass {
        let class = self.shadow.access(key);
        self.count(class, bin);
        class
    }

    /// Classifies one miss from an externally computed stack distance
    /// (for consumers that already measure the distance over the full
    /// access stream — hits too, which the internal shadow never sees).
    /// Call exactly once per miss.
    #[inline]
    pub fn record_miss_with_distance(&mut self, distance: Option<u64>, bin: usize) -> MissClass {
        let class = self.classify(distance);
        self.count(class, bin);
        class
    }

    #[inline]
    fn count(&mut self, class: MissClass, bin: usize) {
        match class {
            MissClass::Compulsory => self.compulsory.incr(),
            MissClass::Capacity => self.capacity_misses.incr(),
            MissClass::Conflict => self.conflict.incr(),
        }
        self.misses.record(bin);
    }

    /// Counts one eviction under its cause and heat bin.
    #[inline]
    pub fn record_eviction(&mut self, bin: usize, cause: EvictionCause) {
        match cause {
            EvictionCause::Capacity => self.evict_capacity.incr(),
            EvictionCause::Invalidation => self.evict_invalidation.incr(),
            EvictionCause::Fault => self.evict_fault.incr(),
        }
        self.evictions.record(bin);
    }

    /// Publishes every count recorded since the last publish into the
    /// recorder.
    pub fn publish(&mut self) {
        for c in [
            &mut self.compulsory,
            &mut self.capacity_misses,
            &mut self.conflict,
            &mut self.evict_capacity,
            &mut self.evict_invalidation,
            &mut self.evict_fault,
        ] {
            c.publish();
        }
        self.misses.publish();
        self.evictions.publish();
    }
}

/// `ShadowLru::slot` value of a key that was seen and is not resident.
const EVICTED: u32 = u32::MAX;

/// An exact fully-associative LRU cache of `capacity` keys that remembers
/// every key it has ever held: a recency list threaded through a slab of
/// nodes, and one map from key to node — or to [`EVICTED`].
#[derive(Debug)]
struct ShadowLru {
    slot: HashMap<u64, u32>,
    nodes: Vec<Node>,
    /// Most and least recently used node (meaningless while empty).
    head: u32,
    tail: u32,
    capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

impl ShadowLru {
    fn new(capacity: u64) -> Self {
        // Node indices are `u32`, with `EVICTED` reserved; no modelled
        // cache comes near that.
        let capacity = capacity.min(EVICTED as u64 - 1) as usize;
        Self {
            slot: HashMap::new(),
            nodes: Vec::with_capacity(capacity.min(1 << 16)),
            head: 0,
            tail: 0,
            capacity,
        }
    }

    /// References `key`: its class, and the model updated as an LRU cache
    /// updates on an access.
    fn access(&mut self, key: u64) -> MissClass {
        let class = match self.slot.get(&key) {
            None => MissClass::Compulsory,
            Some(&EVICTED) => MissClass::Capacity,
            Some(&s) => {
                self.make_most_recent(s);
                return MissClass::Conflict;
            }
        };
        let s = if self.nodes.len() < self.capacity {
            let s = self.nodes.len() as u32;
            self.nodes.push(Node {
                key,
                prev: s,
                next: s,
            });
            if s > 0 {
                self.link_front(s);
            }
            s
        } else if self.capacity > 0 {
            // Full: the least recent key leaves, its node takes `key`.
            let s = self.tail;
            let old = std::mem::replace(&mut self.nodes[s as usize].key, key);
            self.slot.insert(old, EVICTED);
            self.make_most_recent(s);
            s
        } else {
            EVICTED
        };
        self.slot.insert(key, s);
        class
    }

    /// Makes resident node `s` the most recent.
    fn make_most_recent(&mut self, s: u32) {
        if s == self.head {
            return;
        }
        let Node { prev, next, .. } = self.nodes[s as usize];
        self.nodes[prev as usize].next = next;
        if s == self.tail {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        self.link_front(s);
    }

    /// Threads unlinked node `s` in before the head.
    fn link_front(&mut self, s: u32) {
        let head = self.head;
        self.nodes[s as usize].next = head;
        self.nodes[head as usize].prev = s;
        self.head = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StackDistance;

    fn classes(rec: &Recorder, prefix: &str) -> (u64, u64, u64) {
        let s = rec.snapshot();
        let g = |n: &str| {
            s.counters
                .get(&format!("{prefix}/{n}"))
                .copied()
                .unwrap_or(0)
        };
        (g("compulsory"), g("capacity"), g("conflict"))
    }

    #[test]
    fn shadow_stream_classifies_all_three_ways() {
        let rec = Recorder::enabled();
        let mut a = MissAttribution::new(&rec, "t", 2, 4);
        // Cold: compulsory.
        assert_eq!(a.record_miss(1, 0), MissClass::Compulsory);
        assert_eq!(a.record_miss(2, 1), MissClass::Compulsory);
        // Distance 1 < capacity 2: the model would have hit → conflict.
        assert_eq!(a.record_miss(1, 0), MissClass::Conflict);
        // Touch two more distinct keys, then re-reference 1: distance 2
        // ≥ capacity → capacity miss.
        assert_eq!(a.record_miss(3, 2), MissClass::Compulsory);
        assert_eq!(a.record_miss(4, 3), MissClass::Compulsory);
        assert_eq!(a.record_miss(1, 0), MissClass::Capacity);
        assert_eq!(classes(&rec, "t"), (0, 0, 0), "nothing before publish");
        a.publish();
        assert_eq!(classes(&rec, "t"), (4, 1, 1));
        assert_eq!(
            a.shadow_distinct_keys(),
            4,
            "the seen set, evicted keys included"
        );
    }

    #[test]
    fn conservation_class_counts_sum_to_misses() {
        let rec = Recorder::enabled();
        let mut a = MissAttribution::new(&rec, "t", 3, 8);
        let mut misses = 0u64;
        for i in 0..500u64 {
            a.record_miss((i * 7) % 23, (i % 8) as usize);
            misses += 1;
            if i % 97 == 0 {
                a.publish();
            }
        }
        a.publish();
        let (c, cap, conf) = classes(&rec, "t");
        assert_eq!(c + cap + conf, misses);
        let snap = rec.snapshot();
        let heat: u64 = snap.heatmaps["t/miss_bins"].iter().sum();
        assert_eq!(heat, misses, "every miss lands in exactly one bin");
    }

    #[test]
    fn eviction_causes_and_bins_are_counted() {
        let rec = Recorder::enabled();
        let mut a = MissAttribution::new(&rec, "t", 4, 2);
        a.record_eviction(0, EvictionCause::Capacity);
        a.record_eviction(1, EvictionCause::Invalidation);
        a.record_eviction(1, EvictionCause::Fault);
        a.publish();
        let s = rec.snapshot();
        assert_eq!(s.counters["t/evict_capacity"], 1);
        assert_eq!(s.counters["t/evict_invalidation"], 1);
        assert_eq!(s.counters["t/evict_fault"], 1);
        assert_eq!(s.heatmaps["t/eviction_bins"], vec![1, 2]);
    }

    #[test]
    fn external_distance_form_matches_classify() {
        let rec = Recorder::enabled();
        let mut a = MissAttribution::new(&rec, "t", 10, 1);
        assert_eq!(a.record_miss_with_distance(None, 0), MissClass::Compulsory);
        assert_eq!(a.record_miss_with_distance(Some(9), 0), MissClass::Conflict);
        assert_eq!(
            a.record_miss_with_distance(Some(10), 0),
            MissClass::Capacity
        );
        assert_eq!(
            a.shadow_distinct_keys(),
            0,
            "external form bypasses the shadow"
        );
    }

    #[test]
    fn disabled_recorder_makes_the_component_inert() {
        let rec = Recorder::disabled();
        let mut a = MissAttribution::new(&rec, "t", 2, 4);
        a.record_miss(1, 0);
        a.record_eviction(0, EvictionCause::Capacity);
        a.publish();
        assert!(rec.snapshot().counters.is_empty());
    }

    /// The bounded shadow classifies exactly as the stack distance does,
    /// at capacities from one line to more than the stream's keys.
    #[test]
    fn bounded_shadow_matches_stack_distance_classification() {
        let stream: Vec<u64> = (0..20_000u64)
            .map(|i| (i * i / 3 + i / 5) % 300 + (i / 4000) * 100)
            .collect();
        for cap in [1u64, 2, 32, 256] {
            let rec = Recorder::enabled();
            let mut a = MissAttribution::new(&rec, "t", cap, 1);
            let mut sd = StackDistance::new();
            for (i, &k) in stream.iter().enumerate() {
                let want = a.classify(sd.record(k));
                assert_eq!(a.record_miss(k, 0), want, "capacity {cap}, access {i}");
            }
            assert_eq!(a.shadow_distinct_keys(), sd.distinct_keys());
        }
    }
}
