//! Exact LRU stack-distance measurement over an access stream — the one
//! shared primitive behind the L2 reuse-distance histogram, the 3C miss
//! attribution shadow caches and the locality-profile capture.
//!
//! The stack distance of an access is the number of *distinct* other keys
//! touched since the previous access to the same key — the quantity that
//! fully determines hit rates for any fully-associative LRU cache size
//! (cf. Ling et al., *Fast Modeling L2 Cache Reuse Distance Histograms*):
//! an access with distance `d` hits a capacity-`C` LRU cache iff `d < C`.
//!
//! Implementation: the standard Fenwick-tree formulation. Each key remembers
//! the timestamp of its latest access; a bit-indexed tree over timestamps
//! holds a `1` exactly at each key's latest access, so the distance is the
//! number of live keys less the prefix sum up to the key's previous access
//! — `O(log n)` per access. Timestamps grow with the stream, so the tree is
//! periodically *compacted*: live keys are re-stamped in order, which
//! preserves every distance and bounds memory by the number of distinct
//! keys, not the stream length.
//!
//! Runs are free: an immediate repeat of the previous key has distance 0
//! and changes nothing — that key is already the most recent, and a repeat
//! adds no distinct key between any later pair of accesses — so it is
//! answered before the map or the tree is touched. Texture streams are
//! made of such runs (consecutive taps to one L1 line, consecutive L1
//! misses to one L2 page), so the cost follows key *changes*, not accesses.

use std::collections::HashMap;

/// Fenwick (binary indexed) tree of `u32` counts with 1-based internals.
#[derive(Debug, Clone)]
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `delta` at 0-based position `i`.
    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0 ..= i` (0-based).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s += self.tree[i] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Streaming exact stack-distance (LRU reuse-distance) tracker.
///
/// ```
/// use mltc_telemetry::StackDistance;
/// let mut sd = StackDistance::new();
/// assert_eq!(sd.record(10), None);     // cold
/// assert_eq!(sd.record(20), None);     // cold
/// assert_eq!(sd.record(10), Some(1));  // one distinct key (20) in between
/// assert_eq!(sd.record(10), Some(0));  // immediate re-reference
/// ```
#[derive(Debug, Clone)]
pub struct StackDistance {
    /// key → timestamp of its latest access.
    last: HashMap<u64, usize>,
    /// `1` at each key's latest-access timestamp.
    bits: Fenwick,
    /// Next timestamp to hand out.
    time: usize,
    /// Cold (first-ever) accesses seen.
    cold: u64,
    /// The key of the latest access.
    prev: Option<u64>,
}

const INITIAL_SLOTS: usize = 1024;

impl Default for StackDistance {
    fn default() -> Self {
        Self::new()
    }
}

impl StackDistance {
    /// An empty tracker.
    pub fn new() -> Self {
        Self {
            last: HashMap::new(),
            bits: Fenwick::new(INITIAL_SLOTS),
            time: 0,
            cold: 0,
            prev: None,
        }
    }

    /// Distinct keys currently tracked.
    pub fn distinct_keys(&self) -> usize {
        self.last.len()
    }

    /// Cold (first-ever) accesses recorded so far.
    pub fn cold_accesses(&self) -> u64 {
        self.cold
    }

    /// Records an access to `key`. Returns `None` for the first-ever access
    /// to the key, otherwise `Some(d)` where `d` counts the distinct other
    /// keys accessed since the key's previous access.
    #[inline]
    pub fn record(&mut self, key: u64) -> Option<u64> {
        if self.prev == Some(key) {
            return Some(0);
        }
        self.prev = Some(key);
        self.record_change(key)
    }

    /// [`record`](Self::record) of a key other than the previous one.
    fn record_change(&mut self, key: u64) -> Option<u64> {
        if self.time == self.bits.len() {
            self.compact();
        }
        let now = self.time;
        self.time += 1;
        match self.last.insert(key, now) {
            None => {
                self.cold += 1;
                self.bits.add(now, 1);
                None
            }
            Some(prev) => {
                // Keys whose latest access lies after prev: every live key
                // holds one `1`, and `prefix(prev)` counts those at or
                // before it (`now` is not set yet).
                let d = self.last.len() as u64 - self.bits.prefix(prev);
                self.bits.add(prev, -1);
                self.bits.add(now, 1);
                Some(d)
            }
        }
    }

    /// Re-stamps live keys densely in access order. Relative order — and
    /// therefore every future distance — is preserved.
    fn compact(&mut self) {
        let mut live: Vec<(usize, u64)> = self.last.iter().map(|(&k, &t)| (t, k)).collect();
        live.sort_unstable();
        // Grow only when the live set actually crowds the slot space;
        // otherwise dead timestamps were the problem and the size holds.
        let slots = (live.len() * 2).max(INITIAL_SLOTS);
        self.bits = Fenwick::new(slots);
        for (i, &(_, key)) in live.iter().enumerate() {
            self.last.insert(key, i);
            self.bits.add(i, 1);
        }
        self.time = live.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force oracle: scan the raw access list backwards.
    fn oracle(stream: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for (i, &k) in stream.iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            let mut found = None;
            for j in (0..i).rev() {
                if stream[j] == k {
                    found = Some(seen.len() as u64);
                    break;
                }
                seen.insert(stream[j]);
            }
            out.push(found);
        }
        out
    }

    #[test]
    fn matches_brute_force_oracle() {
        let stream: Vec<u64> = (0..4000u64).map(|i| (i * i + i / 7) % 97).collect();
        let mut sd = StackDistance::new();
        let got: Vec<Option<u64>> = stream.iter().map(|&k| sd.record(k)).collect();
        assert_eq!(got, oracle(&stream));
        assert_eq!(sd.distinct_keys(), 97);
        assert_eq!(sd.cold_accesses(), 97);
    }

    #[test]
    fn compaction_preserves_distances() {
        // Far more accesses than INITIAL_SLOTS over few keys: many compactions.
        let stream: Vec<u64> = (0..10 * INITIAL_SLOTS as u64).map(|i| i % 5).collect();
        let mut sd = StackDistance::new();
        for (i, &k) in stream.iter().enumerate() {
            let d = sd.record(k);
            if i >= 5 {
                assert_eq!(d, Some(4), "access {i}: cyclic sweep over 5 keys");
            }
        }
        assert!(sd.bits.len() <= 2 * INITIAL_SLOTS, "memory stays bounded");
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let mut sd = StackDistance::new();
        sd.record(1);
        let time = sd.time;
        assert_eq!(sd.record(1), Some(0));
        assert_eq!(sd.record(1), Some(0));
        assert_eq!(sd.time, time, "a repeat hands out no timestamp");
        assert_eq!(sd.record(2), None);
        assert_eq!(sd.record(1), Some(1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(16))]

        /// Long immediate-repeat runs over a few keys, with enough key
        /// changes (one per run) to compact the tree at least three times.
        #[test]
        fn runs_match_the_brute_force_oracle_across_compactions(
            runs in proptest::collection::vec((1u64..24, 1usize..12), 3200..3300),
        ) {
            proptest::prop_assert!(runs.len() > 3 * INITIAL_SLOTS);
            let mut stream = Vec::new();
            let mut key = 0u64;
            for &(step, len) in &runs {
                // A step in 1..24 over 24 keys always changes the key.
                key = (key + step) % 24;
                stream.extend(std::iter::repeat_n(key, len));
            }
            let mut sd = StackDistance::new();
            let got: Vec<Option<u64>> = stream.iter().map(|&k| sd.record(k)).collect();
            proptest::prop_assert_eq!(got, oracle(&stream));
            proptest::prop_assert!(sd.bits.len() <= 2 * INITIAL_SLOTS);
        }
    }

    #[test]
    fn hit_rule_matches_a_simulated_fa_lru() {
        // d < C iff hit in a demand-filled fully-associative LRU of C slots.
        let stream: Vec<u64> = (0..2000u64).map(|i| (i * 7 + i / 11) % 31).collect();
        for cap in [1usize, 2, 5, 16, 31] {
            let mut sd = StackDistance::new();
            let mut lru: Vec<u64> = Vec::new();
            for &k in &stream {
                let predicted_hit = matches!(sd.record(k), Some(d) if (d as usize) < cap);
                let actual_hit = lru.iter().position(|&x| x == k).map(|i| {
                    lru.remove(i);
                });
                lru.push(k);
                if lru.len() > cap {
                    lru.remove(0);
                }
                assert_eq!(predicted_hit, actual_hit.is_some(), "cap {cap} key {k}");
            }
        }
    }
}
