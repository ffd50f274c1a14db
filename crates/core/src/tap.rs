//! The shared per-tap bodies of the cache hierarchy.
//!
//! `SimEngine::access_texel_traced` is the canonical per-tap slow path:
//! every dynamic decision (`Option<L2Cache>`, `Option<Tlb>`, attached
//! telemetry, filter mode) is re-examined per texel. The batch replay
//! entry points of [`SimEngine`](crate::SimEngine) — and the per-client
//! engines of the multi-client [`service`](crate::service) layer — resolve
//! those decisions once and instantiate a specialized loop per
//! combination. The tap bodies below are shared **verbatim** between every
//! consumer, so counters, cache state, host-link draws and telemetry stay
//! bit-identical across the slow path, the monomorphized fast path and a
//! partitioned service client (the differential oracle, the golden trace
//! tests and the multi-client containment tests all enforce this).

use crate::engine::FrameCounters;
use crate::telemetry::EngineTelemetry;
use crate::{HostLink, L1TextureCache, L2Cache, L2Outcome, Transfer};
use mltc_cache::RoundRobinTlb;
use mltc_texture::{TextureId, TranslationMemo, TranslationTables};
use mltc_trace::FilterMode;

/// Compile-time telemetry switch: `TelOn` forwards to the attached
/// [`EngineTelemetry`], `TelOff` erases the observation closures entirely,
/// and `MissLog` erases them too but records every L1 miss for a shared
/// replay's followers.
pub(crate) trait TelemetryMode {
    fn with(&mut self, f: impl FnOnce(&mut EngineTelemetry));

    /// Called once per L1 miss, before anything below the L1 runs.
    #[inline(always)]
    fn l1_miss(&mut self, _tid: TextureId, _m: u32, _u: u32, _v: u32) {}
}

pub(crate) struct TelOn<'a>(pub(crate) &'a mut EngineTelemetry);

impl TelemetryMode for TelOn<'_> {
    #[inline(always)]
    fn with(&mut self, f: impl FnOnce(&mut EngineTelemetry)) {
        f(self.0);
    }
}

pub(crate) struct TelOff;

impl TelemetryMode for TelOff {
    #[inline(always)]
    fn with(&mut self, _f: impl FnOnce(&mut EngineTelemetry)) {}
}

/// One L1 miss `(texture index, m, u, v)` as the leader of a shared replay
/// logs it.
pub(crate) type L1Miss = (u32, u32, u32, u32);

/// The leader's sink in a shared replay
/// ([`SimEngine::try_run_frame_shared`](crate::SimEngine::try_run_frame_shared)):
/// telemetry off, L1 misses appended to the log in tap order.
pub(crate) struct MissLog<'a>(pub(crate) &'a mut Vec<L1Miss>);

impl TelemetryMode for MissLog<'_> {
    #[inline(always)]
    fn with(&mut self, _f: impl FnOnce(&mut EngineTelemetry)) {}

    #[inline(always)]
    fn l1_miss(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        self.0.push((tid.index(), m, u, v));
    }
}

/// Compile-time TLB switch mirroring the slow path's `Option<Tlb>` probe:
/// `TlbOff::access` is a constant `None`, so the hit bookkeeping folds away.
pub(crate) trait TlbMode {
    fn access(&mut self, key: u64) -> Option<bool>;
}

pub(crate) struct TlbOn<'a>(pub(crate) &'a mut RoundRobinTlb);

impl TlbMode for TlbOn<'_> {
    #[inline(always)]
    fn access(&mut self, key: u64) -> Option<bool> {
        Some(self.0.access(key))
    }
}

pub(crate) struct TlbOff;

impl TlbMode for TlbOff {
    #[inline(always)]
    fn access(&mut self, _key: u64) -> Option<bool> {
        None
    }
}

/// Maps the replay loops' filter const back to the runtime enum (resolved
/// at monomorphization time, so `filter_taps` sees a literal).
#[inline(always)]
pub(crate) const fn const_filter<const F: u8>() -> FilterMode {
    match F {
        0 => FilterMode::Point,
        1 => FilterMode::Bilinear,
        _ => FilterMode::Trilinear,
    }
}

/// One pull-architecture tap; mirrors the `None` L2 arm of
/// [`SimEngine::access_texel_traced`](crate::SimEngine::access_texel_traced)
/// line for line.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_pull<Te: TelemetryMode>(
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
    l1_bytes: u64,
    l1: &mut L1TextureCache,
    host: &mut HostLink,
    current: &mut FrameCounters,
    tel: &mut Te,
) {
    current.l1_accesses += 1;
    if l1.access(tid, m, u, v) {
        current.l1_hits += 1;
        tel.with(|t| {
            t.l1_hits.incr();
            t.on_l1_hit(tid, m, u, v);
        });
        return;
    }
    tel.with(|t| t.on_l1_miss(tid, m, u, v));
    tel.l1_miss(tid, m, u, v);
    tap_pull_below_l1(tid, m, u, v, l1_bytes, l1, host, current, tel);
}

/// The below-L1 half of a pull tap (host transfer → rollback). Split out
/// so a shared replay's followers can run it straight off the leader's L1
/// miss log.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_pull_below_l1<Te: TelemetryMode>(
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
    l1_bytes: u64,
    l1: &mut L1TextureCache,
    host: &mut HostLink,
    current: &mut FrameCounters,
    tel: &mut Te,
) {
    match host.transfer(tid) {
        Transfer::Delivered { retries } => {
            current.retries += retries as u64;
            current.host_bytes += l1_bytes;
            tel.with(|t| {
                t.l1_misses.incr();
                t.host_delivered.incr();
                t.host_retries.add(retries as u64);
                t.transfer_bytes.record(l1_bytes);
            });
        }
        Transfer::Failed { retries } => {
            current.retries += retries as u64;
            current.failed_transfers += 1;
            l1.invalidate(tid, m, u, v);
            current.dropped_taps += 1;
            tel.with(|t| {
                t.l1_misses.incr();
                t.host_failed.incr();
                t.host_retries.add(retries as u64);
                t.dropped_taps.incr();
                t.on_l1_rollback(tid, m, u, v);
            });
        }
    }
}

/// One multi-level tap; mirrors the `Some(l2)` arm of
/// [`SimEngine::access_texel_traced`](crate::SimEngine::access_texel_traced)
/// line for line, with translation served by the shift/mask tables and the
/// one-entry memo.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_ml<Tl: TlbMode, Te: TelemetryMode>(
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
    l1_bytes: u64,
    dl_full_miss: u64,
    tables: &TranslationTables,
    memo: &mut TranslationMemo,
    dims: &[Option<Vec<(u32, u32)>>],
    l1: &mut L1TextureCache,
    l2: &mut L2Cache,
    host: &mut HostLink,
    current: &mut FrameCounters,
    tlb: &mut Tl,
    tel: &mut Te,
) {
    current.l1_accesses += 1;
    if l1.access(tid, m, u, v) {
        current.l1_hits += 1;
        tel.with(|t| {
            t.l1_hits.incr();
            t.on_l1_hit(tid, m, u, v);
        });
        return;
    }
    tel.with(|t| t.on_l1_miss(tid, m, u, v));
    tel.l1_miss(tid, m, u, v);
    tap_ml_miss(
        tid,
        m,
        u,
        v,
        l1_bytes,
        dl_full_miss,
        tables,
        memo,
        dims,
        l1,
        l2,
        host,
        current,
        tlb,
        tel,
    );
}

/// Everything a multi-level tap does after its L1 miss: translation, the
/// TLB probe and the below-L1 half. Split out so a shared replay's
/// followers can run it straight off the leader's L1 miss log.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_ml_miss<Tl: TlbMode, Te: TelemetryMode>(
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
    l1_bytes: u64,
    dl_full_miss: u64,
    tables: &TranslationTables,
    memo: &mut TranslationMemo,
    dims: &[Option<Vec<(u32, u32)>>],
    l1: &mut L1TextureCache,
    l2: &mut L2Cache,
    host: &mut HostLink,
    current: &mut FrameCounters,
    tlb: &mut Tl,
    tel: &mut Te,
) {
    let (pt_index, l1_sub) = tables.lookup(memo, tid.index(), m, u, v);
    let tlb_hit = tlb.access(pt_index as u64);
    if let Some(hit) = tlb_hit {
        current.tlb_accesses += 1;
        current.tlb_hits += hit as u64;
    }
    tap_ml_below_l1(
        tid,
        m,
        u,
        v,
        pt_index,
        l1_sub,
        tlb_hit,
        l1_bytes,
        dl_full_miss,
        tables,
        dims,
        l1,
        l2,
        host,
        current,
        tel,
    );
}

/// The below-L1 half of a multi-level tap (L2 probe → host transfer →
/// rollback / degradation), after translation and the TLB probe. Split out
/// so the service layer's admission-controlled taps can reuse the exact
/// miss semantics after making their own tier decision.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn tap_ml_below_l1<Te: TelemetryMode>(
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
    pt_index: u32,
    l1_sub: u16,
    tlb_hit: Option<bool>,
    l1_bytes: u64,
    dl_full_miss: u64,
    tables: &TranslationTables,
    dims: &[Option<Vec<(u32, u32)>>],
    l1: &mut L1TextureCache,
    l2: &mut L2Cache,
    host: &mut HostLink,
    current: &mut FrameCounters,
    tel: &mut Te,
) {
    let l2_trace = l2.access_traced(pt_index, l1_sub);
    let outcome = l2_trace.outcome;
    let evicted_page = l2_trace.evicted_page;
    let dl = match outcome {
        L2Outcome::FullHit => {
            current.l2_full_hits += 1;
            current.l2_local_bytes += l1_bytes;
            tel.with(|t| {
                t.on_l2_access(pt_index as u64, tlb_hit, outcome, evicted_page);
                t.l2_full_hits.incr();
            });
            return;
        }
        L2Outcome::PartialHit => {
            current.l2_partial_hits += 1;
            l1_bytes
        }
        L2Outcome::FullMiss => {
            current.l2_full_misses += 1;
            dl_full_miss
        }
    };
    match host.transfer(tid) {
        Transfer::Delivered { retries } => {
            current.retries += retries as u64;
            current.host_bytes += dl;
            current.l2_local_bytes += dl;
            tel.with(|t| {
                t.on_l2_access(pt_index as u64, tlb_hit, outcome, evicted_page);
                match outcome {
                    L2Outcome::PartialHit => t.l2_partial_hits.incr(),
                    L2Outcome::FullMiss => {
                        t.l2_full_misses.incr();
                        t.on_full_miss_sweep(l2.clock_stats());
                    }
                    L2Outcome::FullHit => unreachable!("full hits return above"),
                }
                t.host_delivered.incr();
                t.host_retries.add(retries as u64);
                t.transfer_bytes.record(dl);
            });
        }
        Transfer::Failed { retries } => {
            current.retries += retries as u64;
            current.failed_transfers += 1;
            l2.fail_download(pt_index, l1_sub);
            l1.invalidate(tid, m, u, v);
            let served = degraded_probe(tables, dims, l2, tid, m, u, v);
            if served {
                current.degraded_taps += 1;
                current.l2_local_bytes += l1_bytes;
            } else {
                current.dropped_taps += 1;
            }
            tel.with(|t| {
                t.on_l2_access(pt_index as u64, tlb_hit, outcome, evicted_page);
                match outcome {
                    L2Outcome::PartialHit => t.l2_partial_hits.incr(),
                    L2Outcome::FullMiss => {
                        t.l2_full_misses.incr();
                        t.on_full_miss_sweep(l2.clock_stats());
                    }
                    L2Outcome::FullHit => unreachable!("full hits return above"),
                }
                t.host_failed.incr();
                t.host_retries.add(retries as u64);
                if served {
                    t.degraded_taps.incr();
                } else {
                    t.dropped_taps.incr();
                }
                t.on_l1_rollback(tid, m, u, v);
                t.on_l2_fault(pt_index as u64);
            });
        }
    }
}

/// Read-only search for the nearest coarser mip level whose covering texel
/// is resident in L2 (graceful degradation after a failed download). Shared
/// by the slow and fast paths; geometry comes from the precomputed layout
/// tables instead of a full `translate` per candidate level.
#[inline]
pub(crate) fn degraded_probe(
    tables: &TranslationTables,
    dims: &[Option<Vec<(u32, u32)>>],
    l2: &L2Cache,
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
) -> bool {
    let Some(dims) = dims.get(tid.index() as usize).and_then(|d| d.as_ref()) else {
        return false;
    };
    for cm in (m + 1)..dims.len() as u32 {
        let (cw, ch) = dims[cm as usize];
        let cu = (u >> (cm - m)).min(cw.saturating_sub(1));
        let cv = (v >> (cm - m)).min(ch.saturating_sub(1));
        if let Some(e) = tables.entry(tid.index(), cm) {
            let (cpt, csub) = tables.pt_and_sub(e, cu, cv);
            if l2.is_resident(cpt, csub) {
                return true;
            }
        }
    }
    false
}
