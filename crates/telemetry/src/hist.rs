//! Lock-free log2-bucketed histograms.
//!
//! A [`Histogram`] handle records `u64` samples into power-of-two buckets:
//! bucket 0 holds the value `0`, bucket `k ≥ 1` holds `2^(k-1) ..= 2^k - 1`
//! (so bucket 64 tops out at `u64::MAX`). Recording is a couple of relaxed
//! atomic adds — safe to call from replay worker threads without
//! coordination; a [`BufferedHistogram`] records into plain integers and
//! merges them in on publish — and a [`HistSnapshot`] taken later derives
//! count, mean, min/max and bucket-resolution percentiles.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Bucket count: one for zero plus one per bit position of a `u64`.
pub const BUCKETS: usize = 65;

/// The log2 bucket index of a value.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (the value percentiles report).
#[inline]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        64 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// Shared atomic histogram state behind [`Histogram`] handles.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of samples, saturating at `u64::MAX` (CAS loop, still lock-free).
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.add_sum(v);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Adds a distribution kept elsewhere: the state recording its samples
    /// one by one would have left (a saturated sum stays saturated, since
    /// saturating addition of naturals is `min(total, u64::MAX)` in any
    /// grouping).
    pub(crate) fn merge(&self, s: &HistSnapshot) {
        if s.count == 0 {
            return;
        }
        for i in bucket_of(s.min)..=bucket_of(s.max) {
            if s.buckets[i] != 0 {
                self.buckets[i].fetch_add(s.buckets[i], Relaxed);
            }
        }
        self.count.fetch_add(s.count, Relaxed);
        self.add_sum(s.sum);
        self.min.fetch_min(s.min, Relaxed);
        self.max.fetch_max(s.max, Relaxed);
    }

    fn add_sum(&self, v: u64) {
        // fetch_add would wrap; saturate instead so the mean of huge samples
        // degrades predictably.
        let mut cur = self.sum.load(Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self.sum.compare_exchange_weak(cur, next, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            min: self.min.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A recording handle. Disabled handles (from a disabled
/// [`Recorder`](crate::Recorder)) make [`record`](Self::record) a single
/// not-taken branch.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<AtomicHistogram>>);

impl Histogram {
    /// A handle that drops every sample.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether samples are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// A point-in-time copy of the distribution (empty when disabled).
    pub fn snapshot(&self) -> HistSnapshot {
        match &self.0 {
            Some(h) => h.snapshot(),
            None => HistSnapshot::default(),
        }
    }

    /// This histogram behind a private distribution (see
    /// [`BufferedHistogram`]).
    pub fn buffered(self) -> BufferedHistogram {
        BufferedHistogram {
            shared: self,
            local: HistSnapshot::default(),
        }
    }
}

/// A [`Histogram`] with a distribution in front that one owner keeps in
/// plain integers: [`record`](Self::record) touches no atomic, and
/// [`publish`](Self::publish) merges the distribution into the shared one
/// — the totals recording every sample there would have left.
#[derive(Debug, Default)]
pub struct BufferedHistogram {
    shared: Histogram,
    local: HistSnapshot,
}

impl BufferedHistogram {
    /// Records one sample into the private distribution.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let s = &mut self.local;
        s.buckets[bucket_of(v)] += 1;
        s.count += 1;
        s.sum = s.sum.saturating_add(v);
        s.min = s.min.min(v);
        s.max = s.max.max(v);
    }

    /// Merges the private distribution into the shared histogram and
    /// clears it.
    pub fn publish(&mut self) {
        let s = &mut self.local;
        if s.count == 0 {
            return;
        }
        if let Some(h) = &self.shared.0 {
            h.merge(s);
        }
        // Only the buckets between the extremes can be non-zero.
        s.buckets[bucket_of(s.min)..=bucket_of(s.max)].fill(0);
        s.count = 0;
        s.sum = 0;
        s.min = u64::MAX;
        s.max = 0;
    }
}

/// A point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (`0` when empty).
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Exact mean of the recorded samples (0 when empty; saturated if the
    /// sum overflowed `u64`).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) at bucket resolution: the inclusive
    /// upper bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Deterministic, monotone in `q`, and exact for
    /// single-valued buckets (0 and 1).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Never report past the true extremes.
                return bucket_upper_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist() -> Histogram {
        Histogram(Some(Arc::new(AtomicHistogram::new())))
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of((1 << 20) - 1), 20);
        assert_eq!(bucket_of(1 << 20), 21);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        // Every bucket's upper bound maps back into that bucket.
        for k in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper_bound(k)), k, "bucket {k}");
        }
    }

    #[test]
    fn zero_one_and_max_are_distinct_buckets() {
        let h = hist();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[64], 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50(), 1);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = hist();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.sum, u64::MAX);
        assert!(s.mean() > 0.0);
    }

    #[test]
    fn quantiles_are_monotone_and_clamped_to_extremes() {
        let h = hist();
        for v in [3u64, 3, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 3, "three of five samples are 3");
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99());
        assert!(s.p99() <= s.max, "never past the true max");
        assert!(s.quantile(0.0) >= s.min);
        assert_eq!(s.quantile(1.0), s.max.min(bucket_upper_bound(10)));
        assert!((s.mean() - (3.0 * 3.0 + 100.0 + 1000.0) / 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_disabled_snapshots_are_inert() {
        let s = HistSnapshot::default();
        assert_eq!(s.p50(), 0);
        assert_eq!(s.mean(), 0.0);
        let d = Histogram::disabled();
        d.record(42);
        assert!(!d.is_enabled());
        assert_eq!(d.snapshot().count, 0);
    }

    #[test]
    fn buffered_records_publish_to_the_direct_totals() {
        let direct = hist();
        let shared = hist();
        let mut buf = shared.clone().buffered();
        let samples = [7u64, 0, 1 << 40, 3, u64::MAX, 12, 12, 1];
        for (i, &v) in samples.iter().cycle().take(40).enumerate() {
            direct.record(v);
            buf.record(v);
            if i % 9 == 4 {
                buf.publish();
            }
        }
        assert_ne!(
            shared.snapshot(),
            direct.snapshot(),
            "a tail is unpublished"
        );
        buf.publish();
        buf.publish();
        assert_eq!(shared.snapshot(), direct.snapshot());
        Histogram::disabled().buffered().publish();
    }

    #[test]
    fn concurrent_records_never_lose_samples() {
        let h = hist();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
    }
}
