//! # mltc-telemetry — near-zero-overhead instrumentation
//!
//! Counters, log2-bucketed histograms, hierarchical timed spans and
//! per-frame time series for the MLTC simulator, with three exporters:
//! JSONL/CSV time series, histogram summaries (p50/p90/p99, mean) as a JSON
//! fragment for `BENCH_experiments.json` and as Prometheus text, and Chrome
//! trace-event JSON loadable in `chrome://tracing`; [`export::export_dir`]
//! writes them all from one snapshot. The JSON ones, and every other JSON
//! artefact of the workspace, are [`Json`] values: [`json`] holds the one
//! writer and parser.
//!
//! ## The overhead contract
//!
//! Every handle — [`Recorder`], [`Counter`], [`Histogram`], [`Series`],
//! [`Span`] — is an `Option` around shared state. A **disabled** handle is
//! `None`, so each operation on it compiles to a single predictable
//! not-taken branch. The simulator's per-texel path pays not even that: a
//! disabled recorder refuses attachment, and a detached engine replays
//! under a sink that compiles to nothing, so its tap bodies carry no
//! telemetry code at all (an attached recorder is priced by the
//! `telemetry.counters_ns_per_tap` ledger row of `BENCHMARK.json`, and the
//! detached path is guarded by an assertion test). An **enabled** handle
//! records with relaxed atomics; the only mutexes are taken on span close
//! and series row push — per frame or per store operation, never per
//! texel. The simulator's per-texel recording goes further: it tallies into
//! plain integers it owns — one tally of its engine counters, and the
//! buffered forms ([`BufferedCounter`], [`BufferedHistogram`],
//! [`BufferedHeatMap`]) — and publishes them into the shared handles once
//! per replay call. Telemetry only observes: simulator counters are
//! bit-identical with recording on or off.
//!
//! ## Shape
//!
//! ```
//! use mltc_telemetry::{export, Recorder};
//!
//! let rec = Recorder::enabled();
//! let hits = rec.counter("l1_hits");
//! let sweep = rec.histogram("clock_sweep");
//! let frames = rec.series("run0", &["frame", "l1_hits"]);
//! {
//!     let _span = rec.span("frame/0");
//!     hits.add(7);
//!     sweep.record(3);
//!     frames.push_row(&[0, hits.get()]);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counters["l1_hits"], 7);
//! assert_eq!(snap.spans.len(), 1);
//! let json = export::summaries_json(&snap);
//! assert_eq!(json.get("counters").unwrap().get("l1_hits").unwrap().as_u64(), Some(7));
//! ```

mod attrib;
pub mod export;
mod heat;
mod hist;
pub mod json;
mod recorder;
mod span;
mod stackdist;

pub use attrib::{EvictionCause, MissAttribution, MissClass};
pub use heat::{BufferedHeatMap, HeatMap};
pub use hist::{
    bucket_of, bucket_upper_bound, BufferedHistogram, HistSnapshot, Histogram, BUCKETS,
};
pub use json::{Json, JsonError};
pub use recorder::{
    BufferedCounter, Counter, Gauge, Recorder, Series, SeriesSnapshot, Span, TelemetrySnapshot,
};
pub use span::{chrome_trace_json, current_span_depth, SpanEvent, DEFAULT_SPAN_CAPACITY};
pub use stackdist::StackDistance;
