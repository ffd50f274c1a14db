//! Lock-free heat-map accumulators: fixed-size bins of relaxed counters.
//!
//! A [`HeatMap`] is the spatial analogue of a [`Counter`](crate::Counter):
//! a fixed number of bins (one per cache set, or a fixed-width fold of a
//! larger index space) each holding a relaxed `u64`. Recording is one
//! atomic add (a plain one into a [`BufferedHeatMap`], published later);
//! a snapshot is a plain `Vec<u64>`. Like every other handle,
//! a disabled heat map is `None` and each operation on it is a single
//! not-taken branch.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Shared atomic bin array behind [`HeatMap`] handles.
#[derive(Debug)]
pub(crate) struct AtomicHeatMap {
    bins: Vec<AtomicU64>,
}

impl AtomicHeatMap {
    pub(crate) fn new(bins: usize) -> Self {
        Self {
            bins: (0..bins.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub(crate) fn record(&self, bin: usize) {
        // Fold out-of-range bins instead of panicking: callers hash large
        // index spaces (e.g. L2 page numbers) down by modulo, and the map
        // must stay total for any input.
        let i = bin % self.bins.len();
        self.bins[i].fetch_add(1, Relaxed);
    }

    /// Adds counts kept elsewhere, bin by bin, `counts[0]` to bin `first`.
    fn merge(&self, first: usize, counts: &[u64]) {
        for (b, &n) in self.bins[first..].iter().zip(counts) {
            if n != 0 {
                b.fetch_add(n, Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> Vec<u64> {
        self.bins.iter().map(|b| b.load(Relaxed)).collect()
    }
}

/// A recording handle over shared bins. Disabled handles (from a disabled
/// [`Recorder`](crate::Recorder)) make [`record`](Self::record) a single
/// not-taken branch.
#[derive(Debug, Clone, Default)]
pub struct HeatMap(pub(crate) Option<Arc<AtomicHeatMap>>);

impl HeatMap {
    /// A handle that drops every sample.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether samples are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Number of bins (0 when disabled).
    pub fn bins(&self) -> usize {
        self.0.as_ref().map_or(0, |m| m.bins.len())
    }

    /// Adds one count to `bin` (folded modulo the bin count).
    #[inline]
    pub fn record(&self, bin: usize) {
        if let Some(m) = &self.0 {
            m.record(bin);
        }
    }

    /// A point-in-time copy of the bins (empty when disabled).
    pub fn snapshot(&self) -> Vec<u64> {
        self.0.as_ref().map_or_else(Vec::new, |m| m.snapshot())
    }

    /// This map behind private bins (see [`BufferedHeatMap`]).
    pub fn buffered(self) -> BufferedHeatMap {
        let bins = self.bins().max(1);
        BufferedHeatMap {
            shared: self,
            counts: vec![0; bins],
            lo: usize::MAX,
            hi: 0,
        }
    }
}

/// A [`HeatMap`] with bins in front that one owner keeps in plain
/// integers, as many as the shared map has (so a bin folds the same way
/// into either): [`record`](Self::record) touches no atomic, and
/// [`publish`](Self::publish) adds the counts into the shared bins.
#[derive(Debug)]
pub struct BufferedHeatMap {
    shared: HeatMap,
    counts: Vec<u64>,
    /// Bins `lo..hi` hold every non-zero count (none when `lo >= hi`).
    lo: usize,
    hi: usize,
}

impl BufferedHeatMap {
    /// Adds one count to `bin` (folded modulo the bin count).
    #[inline]
    pub fn record(&mut self, bin: usize) {
        let i = bin % self.counts.len();
        self.counts[i] += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i + 1);
    }

    /// Adds the private counts into the shared bins and clears them.
    pub fn publish(&mut self) {
        if self.lo >= self.hi {
            return;
        }
        let dirty = &mut self.counts[self.lo..self.hi];
        if let Some(m) = &self.shared.0 {
            m.merge(self.lo, dirty);
        }
        dirty.fill(0);
        self.lo = usize::MAX;
        self.hi = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fold_modulo_the_bin_count() {
        let m = HeatMap(Some(Arc::new(AtomicHeatMap::new(4))));
        m.record(0);
        m.record(4); // folds onto bin 0
        m.record(3);
        assert_eq!(m.snapshot(), vec![2, 0, 0, 1]);
        assert_eq!(m.bins(), 4);
    }

    #[test]
    fn buffered_bins_publish_to_the_direct_counts() {
        let direct = HeatMap(Some(Arc::new(AtomicHeatMap::new(5))));
        let shared = HeatMap(Some(Arc::new(AtomicHeatMap::new(5))));
        let mut buf = shared.clone().buffered();
        for i in 0..60usize {
            let bin = i * i % 13;
            direct.record(bin);
            buf.record(bin);
            if i % 7 == 3 {
                buf.publish();
            }
        }
        buf.publish();
        assert_eq!(shared.snapshot(), direct.snapshot());
        let mut off = HeatMap::disabled().buffered();
        off.record(3);
        off.publish();
    }

    #[test]
    fn disabled_maps_are_inert() {
        let m = HeatMap::disabled();
        m.record(7);
        assert!(!m.is_enabled());
        assert!(m.snapshot().is_empty());
        assert_eq!(m.bins(), 0);
    }

    #[test]
    fn zero_bins_clamps_to_one() {
        let m = HeatMap(Some(Arc::new(AtomicHeatMap::new(0))));
        m.record(123);
        assert_eq!(m.snapshot(), vec![1]);
    }
}
