//! Miss-status-holding registers (MSHRs): the bounded file of in-flight
//! fills that makes the timing overlay *non-blocking*.
//!
//! Each entry tracks one outstanding fill — its line key and the cycle its
//! data becomes consumable. A *primary* miss allocates an entry; a later
//! reference to the same key while the fill is still in flight is a
//! *secondary* reference and merges with the existing entry (it schedules
//! no new transfer, so merged misses never double-count host bytes). When
//! every register is busy the issue stage stalls until the earliest entry
//! retires — the structural hazard.
//!
//! Entries retire implicitly: a register whose `ready` cycle is at or
//! before the current issue clock is free. No explicit deallocation pass
//! is needed because timing only ever moves forward.

/// One in-flight fill.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    ready: u64,
}

/// A file of miss-status-holding registers with merge/stall accounting.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    /// Primary allocations (fills issued through this file).
    pub allocs: u64,
    /// Secondary references merged into an in-flight entry.
    pub merges: u64,
    /// Allocations that found every register busy.
    pub stalls: u64,
    /// Cycles the issue stage spent waiting on a free register.
    pub stall_cycles: u64,
    /// Highest number of simultaneously busy registers observed.
    pub peak_occupancy: usize,
    /// Sum of post-allocation occupancies (for average occupancy).
    occupancy_sum: u64,
    /// Latest `ready` cycle ever allocated. A register is only reused once
    /// its fill has landed, so the entry holding this cycle is still in
    /// the file while the clock is before it: the file has a fill in
    /// flight at `now` exactly when `max_ready > now`.
    max_ready: u64,
}

impl MshrFile {
    /// A file of `capacity` registers (`capacity >= 1`).
    ///
    /// # Panics
    ///
    /// Panics on a zero-register file: a hierarchy that can hold no miss
    /// in flight cannot make progress.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "an MSHR file needs at least one register");
        Self {
            entries: Vec::with_capacity(capacity),
            capacity,
            allocs: 0,
            merges: 0,
            stalls: 0,
            stall_cycles: 0,
            peak_occupancy: 0,
            occupancy_sum: 0,
            max_ready: 0,
        }
    }

    /// Register count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Busy registers at cycle `now` (entries whose fill has not landed).
    pub fn occupancy(&self, now: u64) -> usize {
        self.entries.iter().filter(|e| e.ready > now).count()
    }

    /// Mean busy registers sampled at each allocation.
    pub fn mean_occupancy(&self) -> f64 {
        if self.allocs == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.allocs as f64
        }
    }

    /// Whether no fill at all is in flight at cycle `now` — one compare,
    /// and then no [`merge_lookup`](Self::merge_lookup) at `now` can find
    /// anything.
    #[inline]
    pub fn quiet_at(&self, now: u64) -> bool {
        self.max_ready <= now
    }

    /// In-flight fill for `key` at cycle `now`: its ready cycle, if an
    /// entry is still pending. Records the secondary-reference merge.
    pub fn merge_lookup(&mut self, key: u64, now: u64) -> Option<u64> {
        self.merge_lookup_lanes(key, now, 1)
    }

    /// [`merge_lookup`](Self::merge_lookup) on behalf of `lanes`
    /// references to `key` made in the same cycle: one scan, every lane a
    /// secondary reference.
    pub fn merge_lookup_lanes(&mut self, key: u64, now: u64, lanes: u64) -> Option<u64> {
        let ready = self
            .entries
            .iter()
            .find(|e| e.key == key && e.ready > now)
            .map(|e| e.ready)?;
        self.merges += lanes;
        Some(ready)
    }

    /// Earliest cycle `>= now` at which a register is free: `now` when one
    /// already is, otherwise the smallest pending `ready` (the structural
    /// stall target). Purely a query — pair with [`insert`](Self::insert).
    pub fn free_at(&self, now: u64) -> u64 {
        if self.entries.len() < self.capacity || self.entries.iter().any(|e| e.ready <= now) {
            return now;
        }
        self.entries
            .iter()
            .map(|e| e.ready)
            .min()
            .expect("a full file has entries")
    }

    /// Allocates a register for `key` at cycle `issue` (which must satisfy
    /// `issue >= free_at(original now)`), with data landing at `ready`.
    /// `stalled_from` carries the pre-stall clock so the hazard is
    /// accounted to this file.
    pub fn insert(&mut self, key: u64, stalled_from: u64, issue: u64, ready: u64) {
        if issue > stalled_from {
            self.stalls += 1;
            self.stall_cycles += issue - stalled_from;
        }
        let entry = Entry { key, ready };
        self.max_ready = self.max_ready.max(ready);
        match self.entries.iter_mut().find(|e| e.ready <= issue) {
            Some(free) => *free = entry,
            None => {
                debug_assert!(
                    self.entries.len() < self.capacity,
                    "MSHR overflow: no free register at issue time"
                );
                self.entries.push(entry);
            }
        }
        self.allocs += 1;
        let occ = self.occupancy(issue);
        self.peak_occupancy = self.peak_occupancy.max(occ);
        self.occupancy_sum += occ as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_allocates_and_secondary_merges() {
        let mut f = MshrFile::new(2);
        f.insert(7, 0, 0, 100);
        assert_eq!(f.merge_lookup(7, 50), Some(100));
        assert_eq!(f.merge_lookup(7, 100), None, "landed fills do not merge");
        assert_eq!(f.merge_lookup(9, 50), None, "other keys do not merge");
        assert_eq!((f.allocs, f.merges), (1, 1));
        assert_eq!(f.merge_lookup_lanes(7, 99, 4), Some(100));
        assert_eq!(f.merges, 5, "every lane of a shared lookup merges");
    }

    #[test]
    fn quiet_exactly_when_no_lookup_can_merge() {
        let mut f = MshrFile::new(2);
        assert!(f.quiet_at(0));
        f.insert(1, 0, 0, 30);
        f.insert(2, 1, 1, 20);
        f.insert(3, 25, 25, 28); // reuses the register that landed at 20
        for now in 0..40 {
            let any = [1, 2, 3].iter().any(|&k| f.merge_lookup(k, now).is_some());
            assert_eq!(f.quiet_at(now), !any, "cycle {now}");
        }
    }

    #[test]
    fn full_file_stalls_to_earliest_retire() {
        let mut f = MshrFile::new(2);
        f.insert(1, 0, 0, 30);
        f.insert(2, 1, 1, 20);
        assert_eq!(f.free_at(5), 20, "both busy: wait for the earliest");
        f.insert(3, 5, 20, 90);
        assert_eq!(f.stalls, 1);
        assert_eq!(f.stall_cycles, 15);
        assert_eq!(f.free_at(25), 30, "remaining entries land at 30 and 90");
        assert_eq!(f.free_at(30), 30);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut f = MshrFile::new(3);
        let mut now = 0u64;
        for k in 0..40u64 {
            let issue = f.free_at(now);
            f.insert(k, now, issue, issue + 17);
            assert!(f.occupancy(issue) <= f.capacity());
            now = issue + 1;
        }
        assert!(f.peak_occupancy <= 3);
        assert!(f.stalls > 0, "40 fills through 3 registers must stall");
    }
}
