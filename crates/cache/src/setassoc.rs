//! N-way set-associative tag array with per-set LRU replacement.

/// Widest batch [`SetAssocCache::access_all_hits_by_tag`] accepts: one
/// fragment's worth of filter taps (trilinear = 8 texel addresses).
pub const MAX_BATCH_LANES: usize = 8;

/// Result of a [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the tag was already resident.
    pub hit: bool,
    /// On a miss that replaced a valid line, the evicted tag.
    pub evicted: Option<u64>,
}

/// An N-way set-associative cache holding `u64` tags, with true LRU
/// replacement within each set.
///
/// The caller computes the set index (hashing policy is part of the
/// architecture under study, not of the substrate): the paper's L1 texture
/// cache indexes with bit-interleaved block coordinates (Hakura's "6D
/// blocked representation"), which `mltc-core` implements on top of this
/// type.
///
/// Storage is two flat `u64` arrays (tags and LRU stamps) rather than an
/// array of line structs: the per-access probe loop touches contiguous
/// words with no `Option` or bool decoding. Stamp `0` doubles as the
/// invalid marker — `tick` pre-increments, so a resident line's stamp is
/// always ≥ 1, and the LRU victim scan's "prefer invalid, else oldest"
/// rule collapses to a plain minimum over the raw stamp words (preserving
/// the exact first-minimum victim order of the struct-based layout).
///
/// ```
/// use mltc_cache::SetAssocCache;
/// let mut c = SetAssocCache::new(2, 2);
/// c.access(1, 0);
/// c.access(2, 0);
/// c.access(1, 0);          // refresh tag 1
/// let r = c.access(3, 0);  // evicts LRU tag 2
/// assert_eq!(r.evicted, Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    tags: Vec<u64>,
    /// LRU timestamps; larger = more recently used, `0` = invalid line.
    stamps: Vec<u64>,
    sets: usize,
    ways: usize,
    tick: u64,
    /// Flat index of the most recently touched line (`usize::MAX` before
    /// the first access). Consecutive accesses to the same line — the
    /// common case for filter-tap streams — skip the way scan; the memo
    /// never changes outcomes, because a matching valid tag at this slot
    /// *is* the hit the scan would find, and the stamp update is the same.
    last_slot: usize,
    /// Tag → slot pairs of the last committed
    /// [`access_all_hits_by_tag`](Self::access_all_hits_by_tag) batch
    /// (`batch_k == 0` = no such batch). Two uses, with different
    /// validity rules:
    ///
    /// * *Recommit*: the slots may be restamped wholesale only while
    ///   `tick == batch_tick` — any interleaved access moves the tick,
    ///   and the invalidation paths (which don't) clear `batch_k`.
    /// * *Probe hints*: a later batch may check `batch_tags[j]` against
    ///   a tag it is probing regardless of the tick, because a hint is
    ///   verified against the live line before use — a stale hint just
    ///   falls through to the hashed scan.
    batch_slots: [usize; MAX_BATCH_LANES],
    batch_tags: [u64; MAX_BATCH_LANES],
    batch_k: usize,
    batch_tick: u64,
}

impl SetAssocCache {
    /// Creates a cache of `sets` sets × `ways` ways, all lines invalid.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache must have at least one line");
        Self {
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            sets,
            ways,
            tick: 0,
            last_slot: usize::MAX,
            batch_slots: [usize::MAX; MAX_BATCH_LANES],
            batch_tags: [0; MAX_BATCH_LANES],
            batch_k: 0,
            batch_tick: 0,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Looks up `tag` in set `set` and installs it on a miss (LRU victim).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `set >= sets()`.
    #[inline]
    pub fn access(&mut self, tag: u64, set: usize) -> AccessResult {
        debug_assert!(set < self.sets, "set index {set} out of range");
        self.tick += 1;
        let base = set * self.ways;

        // Same line as last time: the scan would find exactly this slot
        // (tags are unique within a set), so touch it and return.
        let ls = self.last_slot;
        if ls.wrapping_sub(base) < self.ways && self.stamps[ls] != 0 && self.tags[ls] == tag {
            self.stamps[ls] = self.tick;
            return AccessResult {
                hit: true,
                evicted: None,
            };
        }

        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for i in 0..tags.len() {
            let stamp = stamps[i];
            if stamp != 0 && tags[i] == tag {
                stamps[i] = self.tick;
                self.last_slot = base + i;
                return AccessResult {
                    hit: true,
                    evicted: None,
                };
            }
            // Invalid lines carry stamp 0, so the plain minimum prefers
            // them, then the oldest resident line (first minimum wins).
            if stamp < victim_stamp {
                victim_stamp = stamp;
                victim = i;
            }
        }

        let evicted = (stamps[victim] != 0).then_some(tags[victim]);
        tags[victim] = tag;
        stamps[victim] = self.tick;
        self.last_slot = base + victim;
        AccessResult {
            hit: false,
            evicted,
        }
    }

    /// Batched all-hit probe/commit over one fragment's lanes, given as
    /// their distinct tags.
    ///
    /// `tags` holds the batch's unique tags (first-occurrence order, at
    /// most [`MAX_BATCH_LANES`]) and `last_lane[j]` the batch lane index of
    /// `tags[j]`'s *last* occurrence; `lane_count` is the original lane
    /// total. Nothing is mutated until every tag is known to be resident.
    /// A tag's slot is found, cheapest first, through the previous
    /// committed batch's tag → slot pairs, the last-slot memo, or a way
    /// scan of its home set, which `set_of` computes from the tag and is
    /// invoked only when the first two fail: tags are only ever installed
    /// at their home set, so a valid tag match at a remembered slot *is*
    /// proof of residency.
    ///
    /// On success the commit is bit-identical to `lane_count` sequential
    /// hitting [`access`](Self::access) calls — hits never change tag
    /// residency, so each lane's outcome is independent of the lanes
    /// before it: a unique tag's final stamp is `tick + last_lane + 1` (a
    /// duplicated tag's earlier touches are overwritten by its last one),
    /// the tick advances by `lane_count`, and the memo lands on the final
    /// lane's slot. Returns `true`
    /// (batch committed) or `false` (some tag absent, no state changed —
    /// the caller must replay every lane through the scalar path).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slices differ in length, exceed
    /// [`MAX_BATCH_LANES`], or name more unique tags than lanes.
    #[inline]
    pub fn access_all_hits_by_tag(
        &mut self,
        tags: &[u64],
        last_lane: &[u32],
        lane_count: u32,
        set_of: impl Fn(u64) -> u32,
    ) -> bool {
        debug_assert_eq!(tags.len(), last_lane.len());
        debug_assert!(tags.len() <= MAX_BATCH_LANES, "batch wider than 8 lanes");
        debug_assert!(tags.len() <= lane_count as usize);
        let k = tags.len();
        if k == 0 {
            return true;
        }
        let mut slots = [usize::MAX; MAX_BATCH_LANES];
        for (j, &tag) in tags.iter().enumerate() {
            // Overlap hints: spatially coherent batches mostly re-touch
            // the previous batch's lines, so its tag → slot pairs are
            // checked before anything is hashed. The scan is branch-free
            // conditional selection — hint positions vary batch to batch,
            // so a short-circuiting loop would mispredict constantly. A
            // hint is trusted only if the line still holds a valid copy
            // of the tag: tags are only ever installed at their home set,
            // so a verified match *is* residency, and a stale hint
            // (evicted or overwritten since) just falls through.
            let mut hint = usize::MAX;
            for j2 in 0..self.batch_k {
                let found = self.batch_tags[j2] == tag;
                hint = if found { self.batch_slots[j2] } else { hint };
            }
            if hint != usize::MAX && self.stamps[hint] != 0 && self.tags[hint] == tag {
                slots[j] = hint;
                continue;
            }
            // At most one unique tag can match the memo slot, so checking
            // it for every tag costs a compare and saves a hash whenever
            // this batch continues in the previous batch's line.
            let ls = self.last_slot;
            if ls < self.stamps.len() && self.stamps[ls] != 0 && self.tags[ls] == tag {
                slots[j] = ls;
                continue;
            }
            let set = set_of(tag) as usize;
            debug_assert!(set < self.sets, "set index {set} out of range");
            let base = set * self.ways;
            let mut slot = usize::MAX;
            for w in 0..self.ways {
                let idx = base + w;
                let hit = (self.stamps[idx] != 0) & (self.tags[idx] == tag);
                slot = if hit { idx } else { slot };
            }
            if slot == usize::MAX {
                return false;
            }
            slots[j] = slot;
        }
        let final_lane = lane_count - 1;
        for j in 0..k {
            self.stamps[slots[j]] = self.tick + 1 + last_lane[j] as u64;
            if last_lane[j] == final_lane {
                self.last_slot = slots[j];
            }
        }
        self.tick += lane_count as u64;
        self.batch_slots[..k].copy_from_slice(&slots[..k]);
        self.batch_tags[..k].copy_from_slice(tags);
        self.batch_k = k;
        self.batch_tick = self.tick;
        true
    }

    /// Recommits the batch of the immediately preceding committed
    /// [`access_all_hits_by_tag`](Self::access_all_hits_by_tag) without
    /// re-probing anything.
    ///
    /// **Caller contract:** the new batch's deduplicated tags must equal
    /// the previous committed batch's, in the same order (the wide replay
    /// kernel proves this by footprint equality — identical corner quads
    /// expand to identical tags). The cache guards everything else: the
    /// recommit is refused (`false`, nothing mutated) unless the tick is
    /// exactly where the previous batch commit left it — any interleaved
    /// access moves the tick, and the invalidation paths (which don't)
    /// clear the memo explicitly. Under both conditions the remembered
    /// slots still hold the same tags, since the only intervening event
    /// is the previous commit itself and hits never change residency; the
    /// commit is then bit-identical to re-deduping and re-probing.
    #[inline]
    pub fn recommit_last_batch(&mut self, last_lane: &[u32], lane_count: u32) -> bool {
        let k = self.batch_k;
        if k == 0 || k != last_lane.len() || self.tick != self.batch_tick {
            return false;
        }
        let final_lane = lane_count - 1;
        for (j, &lane) in last_lane.iter().enumerate().take(k) {
            self.stamps[self.batch_slots[j]] = self.tick + 1 + lane as u64;
            if lane == final_lane {
                self.last_slot = self.batch_slots[j];
            }
        }
        self.tick += lane_count as u64;
        self.batch_tick = self.tick;
        true
    }

    /// Non-mutating lookup: is `tag` resident in `set`?
    pub fn probe(&self, tag: u64, set: usize) -> bool {
        let base = set * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .zip(&self.stamps[base..base + self.ways])
            .any(|(&t, &s)| s != 0 && t == tag)
    }

    /// Invalidates `tag` in `set` if resident, returning whether a line was
    /// dropped. The tick is untouched: this models undoing a speculative
    /// fill whose download failed, not a cache access.
    pub fn invalidate(&mut self, tag: u64, set: usize) -> bool {
        self.batch_k = 0;
        let base = set * self.ways;
        for i in base..base + self.ways {
            if self.stamps[i] != 0 && self.tags[i] == tag {
                self.stamps[i] = 0;
                return true;
            }
        }
        false
    }

    /// Invalidates every line whose tag satisfies `pred` (used when an L2
    /// victim's sub-blocks must be shot down from L1 in inclusive designs;
    /// the paper's design is non-inclusive, so this exists for ablations).
    pub fn invalidate_matching<F: Fn(u64) -> bool>(&mut self, pred: F) -> usize {
        self.batch_k = 0;
        let mut n = 0;
        for i in 0..self.tags.len() {
            if self.stamps[i] != 0 && pred(self.tags[i]) {
                self.stamps[i] = 0;
                n += 1;
            }
        }
        n
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.batch_k = 0;
        self.stamps.fill(0);
    }

    /// The valid lines as `(flat slot, tag, LRU stamp)` in slot order —
    /// everything replacement decisions depend on, for state-equality
    /// checks between two caches.
    pub fn lines(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        (0..self.tags.len())
            .filter(|&i| self.stamps[i] != 0)
            .map(|i| (i, self.tags[i], self.stamps[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(!c.access(7, 1).hit);
        assert!(c.access(7, 1).hit);
        assert_eq!(c.lines().count(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = SetAssocCache::new(1, 2);
        c.access(1, 0);
        c.access(2, 0);
        c.access(1, 0); // 2 is now LRU
        let r = c.access(3, 0);
        assert_eq!(r.evicted, Some(2));
        assert!(c.probe(1, 0));
        assert!(c.probe(3, 0));
        assert!(!c.probe(2, 0));
    }

    #[test]
    fn invalid_lines_fill_before_eviction() {
        let mut c = SetAssocCache::new(1, 4);
        for t in 0..4 {
            assert_eq!(c.access(t, 0).evicted, None);
        }
        assert!(c.access(99, 0).evicted.is_some());
    }

    #[test]
    fn sets_are_independent() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(1, 0);
        c.access(2, 1);
        assert!(c.probe(1, 0));
        assert!(c.probe(2, 1));
        assert!(!c.probe(1, 1));
    }

    #[test]
    fn same_tag_different_sets_are_distinct_lines() {
        let mut c = SetAssocCache::new(2, 1);
        c.access(5, 0);
        assert!(!c.access(5, 1).hit);
    }

    #[test]
    fn flush_invalidates_all() {
        let mut c = SetAssocCache::new(2, 2);
        c.access(1, 0);
        c.access(2, 1);
        c.flush();
        assert!(!c.probe(1, 0));
        assert!(!c.probe(2, 1));
    }

    #[test]
    fn invalidate_matching_counts() {
        let mut c = SetAssocCache::new(1, 4);
        for t in 0..4 {
            c.access(t, 0);
        }
        let n = c.invalidate_matching(|t| t % 2 == 0);
        assert_eq!(n, 2);
        assert!(c.probe(1, 0));
        assert!(!c.probe(2, 0));
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_ways_rejected() {
        let _ = SetAssocCache::new(4, 0);
    }

    #[test]
    fn by_tag_batch_commits_identically_to_sequential() {
        let mut seq = SetAssocCache::new(4, 2);
        let warm = [(7u64, 1u32), (8, 1), (3, 0), (9, 2), (3, 0)];
        for &(t, s) in &warm {
            seq.access(t, s as usize);
        }
        let set_of = |tag: u64| warm.iter().find(|&&(t, _)| t == tag).unwrap().1;
        let mut wide = seq.clone();
        // Lanes [3, 3, 7, 8, 9, 3]: tag 3 duplicated at both ends, so its
        // final stamp must come from lane 5 and the memo must land on it.
        assert!(wide.access_all_hits_by_tag(&[3, 7, 8, 9], &[5, 2, 3, 4], 6, set_of));
        for &(t, s) in &[(3u64, 0usize), (3, 0), (7, 1), (8, 1), (9, 2), (3, 0)] {
            assert!(seq.access(t, s).hit);
        }
        assert_eq!(wide.tags, seq.tags);
        assert_eq!(wide.stamps, seq.stamps);
        assert_eq!(wide.tick, seq.tick);
        assert_eq!(wide.last_slot, seq.last_slot);
        assert_eq!(wide.access(99, 1).evicted, seq.access(99, 1).evicted);
    }

    #[test]
    fn by_tag_memo_resolves_without_set_fn() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(7, 1); // memo now points at tag 7's slot
        assert!(c.access_all_hits_by_tag(&[7], &[2], 3, |_| panic!("memo should have resolved")));
        assert_eq!(c.tick, 1 + 3);
    }

    #[test]
    fn overlap_hints_resolve_shared_tags_without_set_fn() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(7, 1);
        c.access(3, 0);
        assert!(c.access_all_hits_by_tag(&[7, 3], &[0, 1], 2, |t| if t == 3 { 0 } else { 1 }));
        // Tag 3 overlaps the previous batch: the hint must resolve it
        // with no set computation. Only the fresh tag 9 may hash.
        c.access(9, 2);
        assert!(c.access_all_hits_by_tag(&[3, 9], &[0, 1], 2, |t| {
            assert_ne!(t, 3, "overlap hint should have resolved tag 3");
            2
        }));
        // Three scalar installs and two two-lane batches.
        assert_eq!(c.tick, 3 + 2 + 2);
    }

    #[test]
    fn stale_overlap_hint_falls_through_to_the_scan() {
        let mut c = SetAssocCache::new(4, 1);
        c.access(7, 1);
        assert!(c.access_all_hits_by_tag(&[7], &[0], 1, |_| 1));
        // Evict tag 7 (direct-mapped set 1), leaving the hint stale.
        c.access(42, 1);
        let before = c.clone();
        // The stale hint must not report residency; the scan runs and
        // correctly declines.
        assert!(!c.access_all_hits_by_tag(&[7], &[0], 1, |_| 1));
        assert_eq!(c.tags, before.tags);
        assert_eq!(c.stamps, before.stamps);
        assert_eq!(c.tick, before.tick);
        // A hint whose slot now holds a *different but valid* tag must
        // also be re-verified rather than trusted: tag 42 is found by
        // the scan (or memo), not the dangling hint for 7.
        assert!(c.access_all_hits_by_tag(&[42], &[0], 1, |_| 1));
    }

    #[test]
    fn by_tag_batch_with_any_absent_tag_mutates_nothing() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(7, 1);
        c.access(3, 0);
        let before = c.clone();
        // Tag 42 sits between two resident tags: the whole batch declines.
        let set_of = |t| match t {
            3 => 0,
            42 => 2,
            _ => 1,
        };
        assert!(!c.access_all_hits_by_tag(&[7, 42, 3], &[0, 1, 2], 3, set_of));
        assert_eq!(c.tags, before.tags);
        assert_eq!(c.stamps, before.stamps);
        assert_eq!(c.tick, before.tick);
        assert_eq!(c.last_slot, before.last_slot);
    }

    #[test]
    fn recommit_is_bit_identical_to_reprobing() {
        let mut a = SetAssocCache::new(4, 2);
        for &(t, s) in &[(7u64, 1usize), (8, 1), (3, 0)] {
            a.access(t, s);
        }
        let set_of = |tag: u64| if tag == 3 { 0u32 } else { 1 };
        assert!(a.access_all_hits_by_tag(&[3, 7], &[2, 3], 4, set_of));
        let mut b = a.clone();
        // Same tags again: a re-probes, b recommits off the memo.
        assert!(a.access_all_hits_by_tag(&[3, 7], &[1, 3], 4, set_of));
        assert!(b.recommit_last_batch(&[1, 3], 4));
        assert_eq!(a.tags, b.tags);
        assert_eq!(a.stamps, b.stamps);
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.last_slot, b.last_slot);
    }

    #[test]
    fn recommit_refused_when_tick_moved_or_memo_cleared() {
        let mut c = SetAssocCache::new(4, 2);
        c.access(7, 1);
        assert!(c.access_all_hits_by_tag(&[7], &[0], 1, |_| 1));
        // An interleaved scalar access moves the tick: refuse.
        c.access(8, 1);
        let before = c.clone();
        assert!(!c.recommit_last_batch(&[0], 1));
        assert_eq!(c.stamps, before.stamps);
        assert_eq!(c.tick, before.tick);
        // Re-arm, then invalidate (which does not move the tick): refuse.
        assert!(c.access_all_hits_by_tag(&[7], &[0], 1, |_| 1));
        c.invalidate(8, 1);
        assert!(!c.recommit_last_batch(&[0], 1));
        // And before any batch at all: refuse.
        let mut fresh = SetAssocCache::new(4, 2);
        assert!(!fresh.recommit_last_batch(&[0], 1));
    }

    #[test]
    fn by_tag_empty_batch_is_a_noop_hit() {
        let mut c = SetAssocCache::new(2, 2);
        assert!(c.access_all_hits_by_tag(&[], &[], 0, |_| 0));
        assert_eq!(c.tick, 0);
        assert_eq!(c.lines().count(), 0);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = SetAssocCache::new(8, 2);
        // 16 distinct tags spread across 8 sets, 2 per set: fits exactly.
        for round in 0..4 {
            for i in 0..16u64 {
                let r = c.access(i, (i % 8) as usize);
                if round > 0 {
                    assert!(r.hit, "tag {i} should be resident in round {round}");
                }
            }
        }
    }
}
