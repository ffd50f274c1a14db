//! The [`Recorder`] handle and its registries.
//!
//! A recorder is either *enabled* — backed by shared registries of counters,
//! histograms, time series and a span ring — or *disabled*, in which case it
//! is a `None` and every operation on it (and on any handle it vends) is a
//! single not-taken branch. Handles are cheap to clone and safe to share
//! across threads; all hot-path mutation is relaxed atomics, with short
//! mutexes only on span close, series row push, and registry lookups (done
//! once at setup, never per texel). An owner that records far more often
//! than anyone reads keeps its counts in the buffered forms
//! ([`BufferedCounter`], [`BufferedHistogram`](crate::BufferedHistogram),
//! [`BufferedHeatMap`](crate::BufferedHeatMap)) and publishes them into
//! the shared handles at points of its choosing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::heat::{AtomicHeatMap, HeatMap};
use crate::hist::{AtomicHistogram, HistSnapshot, Histogram};
use crate::span::{enter_span, exit_span, thread_tid, SpanEvent, SpanRing, DEFAULT_SPAN_CAPACITY};

/// A named monotonic counter. Disabled handles drop every increment.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that drops every increment.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }

    /// This counter behind a private tally (see [`BufferedCounter`]).
    pub fn buffered(self) -> BufferedCounter {
        BufferedCounter {
            shared: self,
            pending: 0,
        }
    }
}

/// A [`Counter`] with a tally in front that one owner keeps: an increment
/// is a plain add, and [`publish`](Self::publish) moves the tally into the
/// shared atomic — one atomic add per publish instead of one per event.
/// Readers of the recorder see what was published, nothing more.
#[derive(Debug, Default)]
pub struct BufferedCounter {
    shared: Counter,
    pending: u64,
}

impl BufferedCounter {
    /// Adds `n` to the tally.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.pending = self.pending.wrapping_add(n);
    }

    /// Adds 1 to the tally.
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Adds the tally to the shared counter and clears it.
    pub fn publish(&mut self) {
        if self.pending != 0 {
            self.shared.add(std::mem::take(&mut self.pending));
        }
    }
}

/// A named last-write-wins `f64` value (stored as bits in an `AtomicU64`),
/// for derived quantities that are *set*, not accumulated — rates,
/// percentiles, ratios. Disabled handles drop every set.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A handle that drops every set.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether sets are being kept.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.load(Relaxed)))
    }
}

/// Shared row buffer behind [`Series`] handles.
#[derive(Debug)]
pub(crate) struct SeriesBuf {
    pub(crate) label: String,
    pub(crate) columns: Vec<String>,
    pub(crate) rows: Mutex<Vec<Vec<u64>>>,
}

/// A labelled time series: fixed columns, one row appended per tick
/// (typically per frame). Disabled handles drop every row.
#[derive(Debug, Clone, Default)]
pub struct Series(pub(crate) Option<Arc<SeriesBuf>>);

impl Series {
    /// A handle that drops every row.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether rows are being kept.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The label rows are filed under (empty when disabled).
    pub fn label(&self) -> &str {
        self.0.as_ref().map_or("", |s| s.label.as_str())
    }

    /// Appends one row. `values` must match the column count declared at
    /// registration.
    pub fn push_row(&self, values: &[u64]) {
        if let Some(s) = &self.0 {
            assert_eq!(
                values.len(),
                s.columns.len(),
                "series '{}' expects {} columns",
                s.label,
                s.columns.len()
            );
            s.rows.lock().unwrap().push(values.to_vec());
        }
    }

    /// Rows recorded so far.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.rows.lock().unwrap().len())
    }

    /// Whether no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A point-in-time copy of one time series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Series label (e.g. one replay run).
    pub label: String,
    /// Column names, in row order.
    pub columns: Vec<String>,
    /// Rows, each as long as `columns`.
    pub rows: Vec<Vec<u64>>,
}

/// A point-in-time copy of everything a recorder has gathered.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Heat-map bins by name.
    pub heatmaps: BTreeMap<String, Vec<u64>>,
    /// All registered series, label-sorted.
    pub series: Vec<SeriesSnapshot>,
    /// Closed spans still in the ring, oldest first.
    pub spans: Vec<SpanEvent>,
    /// Spans overwritten because the ring filled.
    pub dropped_spans: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    hists: Mutex<BTreeMap<String, Arc<AtomicHistogram>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    heatmaps: Mutex<BTreeMap<String, Arc<AtomicHeatMap>>>,
    series: Mutex<BTreeMap<String, Arc<SeriesBuf>>>,
    ring: SpanRing,
}

/// The instrumentation entry point. See the module docs for the
/// enabled/disabled contract.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    /// Scope applied to every name this handle vends (see
    /// [`scoped`](Self::scoped)); `None` = root.
    prefix: Option<Arc<str>>,
}

impl Recorder {
    /// A recorder that records nothing; every operation is one branch.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            prefix: None,
        }
    }

    /// An active recorder with the default span-ring capacity.
    pub fn enabled() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An active recorder keeping at most `capacity` closed spans.
    pub fn with_span_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                heatmaps: Mutex::new(BTreeMap::new()),
                series: Mutex::new(BTreeMap::new()),
                ring: SpanRing::new(capacity),
            })),
            prefix: None,
        }
    }

    /// Whether this recorder keeps anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle onto the same registries with every vended name (counters,
    /// histograms, series labels, spans) prefixed by `scope` + `/`: the
    /// per-client keying used by multi-client runs, so one shared recorder
    /// yields `client3/engine/village/l1_hits` without any consumer
    /// changes. Scopes nest; a disabled recorder stays disabled.
    pub fn scoped(&self, scope: &str) -> Recorder {
        Recorder {
            inner: self.inner.clone(),
            prefix: Some(match &self.prefix {
                None => Arc::from(scope),
                Some(p) => Arc::from(format!("{p}/{scope}").as_str()),
            }),
        }
    }

    /// `name` under this handle's scope.
    fn scoped_name(&self, name: &str) -> String {
        match &self.prefix {
            None => name.to_string(),
            Some(p) => format!("{p}/{name}"),
        }
    }

    /// The named counter, created on first use. Same name → same counter.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(inner) => {
                let mut map = inner.counters.lock().unwrap();
                let c = map
                    .entry(self.scoped_name(name))
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter(Some(Arc::clone(c)))
            }
        }
    }

    /// The named histogram, created on first use. Same name → same
    /// histogram, so parallel runs of one workload merge naturally.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(inner) => {
                let mut map = inner.hists.lock().unwrap();
                let h = map
                    .entry(self.scoped_name(name))
                    .or_insert_with(|| Arc::new(AtomicHistogram::new()));
                Histogram(Some(Arc::clone(h)))
            }
        }
    }

    /// The named gauge, created on first use. Same name → same gauge
    /// (last write wins).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(inner) => {
                let mut map = inner.gauges.lock().unwrap();
                let g = map
                    .entry(self.scoped_name(name))
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits())));
                Gauge(Some(Arc::clone(g)))
            }
        }
    }

    /// The named heat map, created on first use with `bins` bins. Same
    /// name → same map (the bin count of the first registration wins).
    pub fn heatmap(&self, name: &str, bins: usize) -> HeatMap {
        match &self.inner {
            None => HeatMap::disabled(),
            Some(inner) => {
                let mut map = inner.heatmaps.lock().unwrap();
                let m = map
                    .entry(self.scoped_name(name))
                    .or_insert_with(|| Arc::new(AtomicHeatMap::new(bins)));
                HeatMap(Some(Arc::clone(m)))
            }
        }
    }

    /// Registers a fresh time series. Labels are unique: a taken label gets
    /// a `#2`, `#3`, … suffix so concurrent runs never interleave rows.
    pub fn series(&self, label: &str, columns: &[&str]) -> Series {
        match &self.inner {
            None => Series::disabled(),
            Some(inner) => {
                let mut map = inner.series.lock().unwrap();
                let label = self.scoped_name(label);
                let mut unique = label.clone();
                let mut n = 1usize;
                while map.contains_key(&unique) {
                    n += 1;
                    unique = format!("{label}#{n}");
                }
                let buf = Arc::new(SeriesBuf {
                    label: unique.clone(),
                    columns: columns.iter().map(|c| c.to_string()).collect(),
                    rows: Mutex::new(Vec::new()),
                });
                map.insert(unique, Arc::clone(&buf));
                Series(Some(buf))
            }
        }
    }

    /// Opens a timed span; it closes (and lands in the ring) when the
    /// returned guard drops or [`Span::end`] is called.
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            None => Span { active: None },
            Some(inner) => Span {
                active: Some(ActiveSpan {
                    inner: Arc::clone(inner),
                    name: self.scoped_name(name),
                    start: Instant::now(),
                    depth: enter_span(),
                }),
            },
        }
    }

    /// A point-in-time copy of everything recorded (empty when disabled).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let Some(inner) = &self.inner else {
            return TelemetrySnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Relaxed)))
            .collect();
        let hists = inner
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Relaxed))))
            .collect();
        let heatmaps = inner
            .heatmaps
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let series = inner
            .series
            .lock()
            .unwrap()
            .values()
            .map(|s| SeriesSnapshot {
                label: s.label.clone(),
                columns: s.columns.clone(),
                rows: s.rows.lock().unwrap().clone(),
            })
            .collect();
        let (spans, dropped_spans) = inner.ring.snapshot();
        TelemetrySnapshot {
            counters,
            hists,
            gauges,
            heatmaps,
            series,
            spans,
            dropped_spans,
        }
    }
}

#[derive(Debug)]
struct ActiveSpan {
    inner: Arc<Inner>,
    name: String,
    start: Instant,
    depth: u32,
}

/// RAII guard for a timed span. Dropping it (in any order relative to its
/// siblings) closes the span; nothing panics on unbalanced closes.
#[derive(Debug)]
#[must_use = "a span measures until dropped; bind it with `let _span = ...`"]
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Span {
    /// A guard that measures nothing (what a disabled recorder vends).
    pub fn disabled() -> Self {
        Self { active: None }
    }

    /// Whether this guard will record an event on close.
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Closes the span now instead of at end of scope.
    pub fn end(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            let end = Instant::now();
            let start_us = a.start.duration_since(a.inner.epoch).as_micros() as u64;
            let dur_us = end.duration_since(a.start).as_micros() as u64;
            a.inner.ring.push(SpanEvent {
                name: a.name,
                start_us,
                dur_us,
                tid: thread_tid(),
                depth: a.depth,
            });
            exit_span();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_vends_inert_handles() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let c = rec.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let h = rec.histogram("y");
        h.record(9);
        assert_eq!(h.snapshot().count, 0);
        let s = rec.series("z", &["a"]);
        s.push_row(&[1]);
        assert_eq!(s.len(), 0);
        rec.span("w").end();
        let snap = rec.snapshot();
        assert!(snap.counters.is_empty() && snap.spans.is_empty());
    }

    #[test]
    fn gauges_are_last_write_wins_and_heatmaps_merge_by_name() {
        let rec = Recorder::enabled();
        rec.gauge("rate").set(1.5);
        rec.gauge("rate").set(2.25);
        let m = rec.heatmap("sets", 3);
        m.record(1);
        rec.heatmap("sets", 99).record(1); // same name: first bin count wins
        let snap = rec.snapshot();
        assert_eq!(snap.gauges["rate"], 2.25);
        assert_eq!(snap.heatmaps["sets"], vec![0, 2, 0]);

        let off = Recorder::disabled();
        off.gauge("g").set(7.0);
        off.heatmap("h", 4).record(0);
        assert_eq!(off.gauge("g").get(), 0.0);
        assert!(off.snapshot().gauges.is_empty() && off.snapshot().heatmaps.is_empty());
    }

    #[test]
    fn counters_merge_by_name() {
        let rec = Recorder::enabled();
        rec.counter("hits").add(3);
        rec.counter("hits").add(4);
        assert_eq!(rec.snapshot().counters["hits"], 7);
    }

    #[test]
    fn buffered_counters_reach_the_recorder_on_publish() {
        let rec = Recorder::enabled();
        let mut c = rec.counter("hits").buffered();
        c.incr();
        c.add(5);
        assert_eq!(rec.snapshot().counters["hits"], 0);
        c.publish();
        c.publish();
        assert_eq!(rec.snapshot().counters["hits"], 6);
        let mut off = Recorder::disabled().counter("x").buffered();
        off.incr();
        off.publish();
    }

    #[test]
    fn scoped_handles_share_the_registry_under_a_prefix() {
        let rec = Recorder::enabled();
        let c0 = rec.scoped("c0");
        let c1 = rec.scoped("c1");
        rec.counter("hits").add(1);
        c0.counter("hits").add(2);
        c0.counter("hits").add(3);
        c1.counter("hits").add(4);
        c1.histogram("lat").record(9);
        c0.series("frames", &["v"]).push_row(&[7]);
        c1.span("frame").end();
        let snap = rec.snapshot();
        assert_eq!(snap.counters["hits"], 1);
        assert_eq!(snap.counters["c0/hits"], 5);
        assert_eq!(snap.counters["c1/hits"], 4);
        assert_eq!(snap.hists["c1/lat"].count, 1);
        assert_eq!(snap.series[0].label, "c0/frames");
        assert_eq!(snap.spans[0].name, "c1/frame");
    }

    #[test]
    fn scopes_nest_and_disabled_scopes_stay_disabled() {
        let rec = Recorder::enabled();
        let nested = rec.scoped("svc").scoped("c3");
        nested.counter("taps").add(2);
        assert_eq!(rec.snapshot().counters["svc/c3/taps"], 2);

        let off = Recorder::disabled().scoped("c9");
        assert!(!off.is_enabled());
        off.counter("x").add(1);
        assert!(off.snapshot().counters.is_empty());
    }

    #[test]
    fn series_labels_get_dedup_suffixes() {
        let rec = Recorder::enabled();
        let a = rec.series("run", &["v"]);
        let b = rec.series("run", &["v"]);
        a.push_row(&[1]);
        b.push_row(&[2]);
        let snap = rec.snapshot();
        let labels: Vec<&str> = snap.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["run", "run#2"]);
        assert_eq!(snap.series[0].rows, vec![vec![1]]);
        assert_eq!(snap.series[1].rows, vec![vec![2]]);
    }

    #[test]
    #[should_panic(expected = "expects 2 columns")]
    fn series_row_width_is_checked() {
        let rec = Recorder::enabled();
        rec.series("s", &["a", "b"]).push_row(&[1]);
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Inner closes first (reverse drop order).
        assert_eq!(snap.spans[0].name, "inner");
        assert_eq!(snap.spans[0].depth, 1);
        assert_eq!(snap.spans[1].name, "outer");
        assert_eq!(snap.spans[1].depth, 0);
        assert!(snap.spans[1].start_us <= snap.spans[0].start_us);
        assert_eq!(crate::span::current_span_depth(), 0);
    }

    #[test]
    fn out_of_order_span_drop_is_harmless() {
        let rec = Recorder::enabled();
        let outer = rec.span("outer");
        let inner = rec.span("inner");
        drop(outer); // parent first — must not panic or underflow
        drop(inner);
        assert_eq!(rec.snapshot().spans.len(), 2);
        assert_eq!(crate::span::current_span_depth(), 0);
    }
}
