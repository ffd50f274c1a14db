//! Texture access tracing and per-frame statistics (paper §3.2, §4).
//!
//! The study is *trace-driven*: the renderer in `mltc-raster` emits one
//! [`FrameTrace`] of per-pixel texture requests per frame, and every cache
//! configuration in `mltc-core` replays the same trace — exactly the
//! methodology of the paper, which instruments the Intel Scene Manager with
//! a tracing library that "calculates the virtual texture address
//! ⟨tid, L2, L1⟩ … and tracks all pixel references during each frame".
//!
//! This crate provides:
//!
//! * [`PixelRequest`] / [`FrameTrace`] — the trace records;
//! * [`FilterMode`] and [`filter_taps`] — the single authoritative mapping
//!   from a pixel request to the texels it touches under point, bilinear or
//!   trilinear filtering (used by both the renderer for colour and the cache
//!   engine for addresses, so they can never disagree);
//! * [`FrameStatsCollector`] — the §4 statistics: per-frame working sets
//!   (total and new) for every tile size, minimum L1 download bandwidth,
//!   depth complexity and block utilization;
//! * [`codec`] — a compact binary trace format for record/replay.

pub mod codec;
mod filter;
mod request;
mod stats;

pub use filter::{
    filter_footprint, filter_taps, FilterMode, Footprint, FootprintBlock, LevelQuad, Tap, TapList,
    FOOTPRINT_BLOCK, MAX_FILTER_TAPS,
};
pub use request::{FrameTrace, PixelRequest};
pub use stats::{FrameStatsCollector, FrameWorkingSet, TileClass, WorkloadSummary};
