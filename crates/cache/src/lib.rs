//! Generic cache substrate for the texture-caching study.
//!
//! `mltc-cache` provides the reusable hardware-ish building blocks that
//! `mltc-core` assembles into the paper's L1/L2 texture caching
//! architecture:
//!
//! * [`SetAssocCache`] — an N-way set-associative tag array with per-set LRU
//!   (the paper's 2-way set-associative L1 texture cache, §2.3);
//! * [`ClockList`] — the circular FIFO of `{active, t_index}` entries that
//!   implements the "clock" approximation of LRU for L2 block replacement
//!   (the paper's Block Replacement List, §5.2);
//! * [`LruList`] — the true-LRU alternative that clock approximates (used
//!   by the replacement-policy ablation);
//! * [`SectorBits`] — per-page sub-block presence bits for *sector mapping*
//!   (§5.2, following the IBM System/360 Model 85);
//! * [`RoundRobinTlb`] — the small translation look-aside buffer with
//!   round-robin replacement studied in §5.4.3;
//! * [`fxhash`] — a fast deterministic hasher for the block-set statistics
//!   in `mltc-trace`.
//!
//! Everything here is policy-parameterised and texture-agnostic; the texture
//! semantics (virtual block addresses, page tables, block download costs)
//! live in `mltc-core`.
//!
//! The caches hold state, not counts: each `access` returns its outcome
//! and the caller tallies it (`mltc-core`'s `FrameCounters` is the one hit
//! tally of a replay). The one statistic kept here is [`ClockStats`], the
//! clock sweep's search cost, which nothing outside the list can see.
//!
//! # Example
//!
//! ```
//! use mltc_cache::SetAssocCache;
//!
//! let mut l1 = SetAssocCache::new(64, 2); // 64 sets, 2-way
//! assert!(!l1.access(0xdead, 3).hit);     // cold miss
//! assert!(l1.access(0xdead, 3).hit);      // now resident
//! ```

pub mod fxhash;

mod clock;
mod lru;
mod sector;
mod setassoc;
mod stats;
mod tlb;

pub use clock::{ClockList, ClockStats};
pub use lru::LruList;
pub use sector::SectorBits;
pub use setassoc::{AccessResult, SetAssocCache, MAX_BATCH_LANES};
pub use stats::jain_fairness;
pub use tlb::RoundRobinTlb;
