//! The paper's contribution: multi-level (L1 + L2) texture caching.
//!
//! This crate assembles the substrate of `mltc-cache` into the architecture
//! of Cox, Bhandari & Shantz (ISCA '98):
//!
//! * [`L1TextureCache`] — the on-chip 2-way set-associative texture cache
//!   with ⟨tid, L2, L1⟩ tags and 6D-blocked set indexing (§2.3, §3.3);
//! * [`L2Cache`] — the proposal itself: a MB-scale cache in local
//!   accelerator memory organised like virtual memory, with a texture page
//!   table (`t_table[]`), a block replacement list (`BRL[]`) running the
//!   clock algorithm, and *sector mapping* of L1 sub-blocks (§5.1–5.2 and
//!   the Appendix pseudo-code);
//! * [`SimEngine`] — the transaction-accurate simulator that replays frame
//!   traces through L1 → (TLB) → L2 → host and accounts every byte of AGP
//!   and local-memory traffic (§3.3, §5.3);
//! * [`PushArchitecture`] — the traditional baseline with a perfect
//!   application-level replacement algorithm (§4.2); the *pull* baseline is
//!   simply a [`SimEngine`] with `l2: None`;
//! * [`model`] — the analytic models: expected inter-frame working set
//!   (§4.1), structure sizes (Table 4) and the fractional-advantage
//!   performance model (§5.4.2).
//!
//! # Example: pull vs 2-level caching on a synthetic stream
//!
//! ```
//! use mltc_core::{EngineConfig, L1Config, L2Config, SimEngine};
//! use mltc_texture::{synth, MipPyramid, TextureRegistry};
//!
//! let mut reg = TextureRegistry::new();
//! let tid = reg.load("t", MipPyramid::from_image(
//!     synth::checkerboard(256, 8, [0; 3], [255; 3])));
//!
//! let mut pull = SimEngine::new(EngineConfig { l1: L1Config::kb(2), l2: None,
//!     ..EngineConfig::default() }, &reg);
//! let mut ml = SimEngine::new(EngineConfig { l1: L1Config::kb(2),
//!     l2: Some(L2Config::mb(2)), ..EngineConfig::default() }, &reg);
//!
//! // Two identical "frames": the second is pure inter-frame re-use.
//! for _ in 0..2 {
//!     for v in 0..256 {
//!         for u in 0..256 {
//!             pull.access_texel(tid, 0, u, v);
//!             ml.access_texel(tid, 0, u, v);
//!         }
//!     }
//!     pull.end_frame();
//!     ml.end_frame();
//! }
//! // The L2 absorbs the second frame's L1 misses entirely.
//! let p = &pull.frames()[1];
//! let m = &ml.frames()[1];
//! assert!(p.host_bytes > 0);
//! assert_eq!(m.host_bytes, 0);
//! ```

mod batch;
mod engine;
mod error;
mod host_link;
mod l1;
mod l2;
mod latency;
pub mod model;
mod mshr;
mod push;
pub mod service;
mod tap;
mod telemetry;

pub use batch::{FramePrep, PreparedFrame, BATCH_LANES};
pub use engine::{AccessTrace, EngineConfig, FrameCounters, L1Pass, L1PassRecorder, SimEngine};
pub use error::EngineError;
pub use host_link::{FaultPlan, HostLink, TextureBlackout, Transfer};
pub use l1::{L1AddressMap, L1Config, L1TextureCache, StorageFormat};
pub use l2::{L2AccessTrace, L2Cache, L2Config, L2Outcome, ReplacementPolicy};
pub use latency::{LatencyModel, SinkStats, TimingCounters, TimingSim};
pub use mshr::MshrFile;
pub use push::PushArchitecture;
pub use service::{
    AdmissionControl, ClientEngine, ClientServiceStats, DegradeTier, L2PartitionMode,
    QuarantineReason, ServiceConfig, ServiceError, SharedL2, SharedL2Contention, TextureService,
};
pub use telemetry::{EngineTelemetry, TelemetryOpts, FRAME_SERIES_COLUMNS, L2_HEAT_BINS};
