//! Differential oracle for the texture-cache hierarchy.
//!
//! The simulator in `mltc-core` is optimized: packed tags, shift-based
//! addressing, intrusive replacement lists. This crate holds a second,
//! deliberately naive implementation of the same architecture — flat maps,
//! linear scans, textbook replacement policies — and a harness that replays
//! access streams through **both** models in lockstep (the engine through
//! its per-access entry, `SimEngine::access_texel_traced`, which runs the
//! tap body every replay loop shares), asserting per-access agreement on:
//!
//! - L1 hit/miss classification,
//! - TLB hit/miss classification,
//! - L2 outcome (full hit / partial hit / full miss) and the block chosen,
//! - the eviction victim (page index), including the clock hand position,
//! - host-link byte counts, retries and fault outcomes.
//!
//! Because the two implementations share no code, a bug has to be made
//! *twice, identically* to escape: the oracle turns the paper's
//! architectural contract into an executable invariant.
//!
//! When the models disagree, [`DiffHarness::shrink`] delta-minimizes the
//! access stream and [`Repro`] persists it (with the engine configuration
//! and texture geometry) as a self-contained JSON file — reproducible with
//! `tracetool shrink` or a four-line test.
//!
//! The workspace's conformance test (`tests/oracle_conformance.rs`)
//! replays the committed `.mltct` traces through this harness across the
//! configuration matrix (`mltc_experiments::conformance_matrix`), and
//! writes a repro of any divergence under `CARGO_TARGET_TMPDIR/repros`;
//! `mltc_scene::TraceKey` rebuilds each trace's workload from the key
//! string embedded in the file, so conformance runs need no rendering. That file
//! is the one trace format there is, read with
//! `mltc_trace::codec::TraceFileReader` by the conformance test and by
//! every `tracetool` subcommand alike.

mod diff;
mod model;
mod repro;
mod timing;

pub use diff::{expand_frame, replay_pair, DiffHarness, Divergence, TexelAccess};
/// The workspace's JSON value lives in the leaf crate; repro and benchmark code name it here.
pub use mltc_telemetry::Json;
pub use model::OracleEngine;
pub use repro::{config_from_json, config_to_json, Repro};
pub use timing::NaiveTiming;
