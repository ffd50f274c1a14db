//! The wide (batched) replay path: fragment tap batches as fixed lanes.
//!
//! The scalar frame loop removed the per-tap *dynamic* branches but still
//! drives the cache one tap at a time. This module processes a fragment's
//! taps (trilinear = 8 texel addresses) as a fixed-width lane batch
//! instead:
//!
//! 1. **Expand** the request address-only, to its corner-quad footprint
//!    ([`FootprintBlock`], [`filter_footprint`](mltc_trace::filter_footprint)'s
//!    math): the blend weights the cache simulation never reads are skipped
//!    entirely;
//! 2. **Dedupe** the lanes to their distinct L1 tags (cheap shift/OR
//!    [`L1BlockKey`](mltc_texture::L1BlockKey) packs — a bilinear
//!    footprint usually sits inside one or two 4×4 tiles, so eight lanes
//!    collapse to one or two tags) while recording each tag's
//!    last-occurrence lane;
//! 3. **Probe & commit wide** iff *every* unique tag is resident
//!    ([`SetAssocCache::access_all_hits_by_tag`]
//!    (mltc_cache::SetAssocCache::access_all_hits_by_tag)): a tag's home
//!    set — unpacked from the tag, Morton-interleaved and folded in
//!    closed form — and the way scan behind it run *lazily*, only for
//!    unique tags the previous batch's slots and the cache's last-slot
//!    memo cannot already prove resident — a valid tag match at a
//!    remembered slot is proof of residency, because tags are only ever
//!    installed at their home set.
//!    The commit (stamps, tick, counters, memo) is bit-identical to
//!    replaying the lanes one at a time: L1 hits never change tag
//!    residency and never consult anything below L1.
//!
//! **Scalar fall-through contract:** if *any* lane misses the L1, the
//! whole batch leaves the wide path untouched and every lane replays in
//! order through the one tap body ([`Levels::tap`], the body the
//! per-access entry and the scalar loops run too) — translation, TLB, L2,
//! host transfers, fault rollback and degradation therefore run exactly
//! the scalar code, in the scalar order. The golden trace tests, the
//! oracle's lockstep batched model and the conformance matrix all enforce
//! the resulting bit-identity.
//!
//! **One loop, generic over the architecture:** [`wide_frame_loop`] is
//! written once over [`Levels`] — pull and multi-level differ only in what
//! a declined lane finds below the L1 — and over the sink and the
//! admission mode; [`WideFrame`] is its [`Replay`] form, instantiated by
//! the one dispatch in `crate::tap`.
//!
//! **Observers:** with telemetry or the timing overlay attached the same
//! loops run under `Logged`, which logs a wide commit as one event for the
//! whole fragment and a declined fragment's scalar taps one by one, each
//! outcome read off the `FrameCounters` the unedited tap body moved; the
//! observers consume that log on a helper thread or inline
//! (`crate::observe`, DESIGN.md §6 and §12). Every other instantiation
//! compiles to the code it had without the sink's hooks
//! (`scripts/kernel_identity.sh`).
//!
//! [`FramePrep`] is the decode stage a frame pipeline runs in front of
//! this loop: a prep thread collects frame N+1's requests into a
//! [`PreparedFrame`] while the engine replays frame N, and the engine
//! replays a prepared frame through the same wide frame loop.

use crate::engine::{EngineConfig, FrameCounters};
use crate::tap::{const_filter, AdmissionMode, Levels, MipDims, Replay, TelemetryMode};
use crate::{EngineError, HostLink, L1AddressMap, L1TextureCache};
use mltc_texture::{L1BlockKey, TextureId, TextureRegistry};
use mltc_trace::{
    FilterMode, Footprint, FootprintBlock, LevelQuad, PixelRequest, FOOTPRINT_BLOCK,
    MAX_FILTER_TAPS,
};

/// Batch width: one fragment's worth of taps. Mirrors
/// [`mltc_cache::MAX_BATCH_LANES`]; the two are one contract.
pub const BATCH_LANES: usize = MAX_FILTER_TAPS;

const _: () = assert!(BATCH_LANES == mltc_cache::MAX_BATCH_LANES);

/// Per-stream state of the wide kernel: the previous request's corner
/// quads and their deduplicated tags.
///
/// Pixel-adjacent fragments very often sample the *same* corner texels
/// (a bilinear footprint moves by less than a texel per pixel), so the
/// previous request's footprint is memoized: when the new footprint is
/// identical, its tags are identical by construction and the cache can
/// recommit the previous batch's slots without packing, deduping or
/// probing anything ([`SetAssocCache::recommit_last_batch`]
/// (mltc_cache::SetAssocCache::recommit_last_batch) guards the cases
/// where the cache moved underneath the memo).
struct QuadKernel {
    map: L1AddressMap,
    /// Texture of the memoized footprint.
    tid: u32,
    /// Memoized per-level block rectangles `(bxa, bxb, bya, byb)` and
    /// mip levels (`..nq`); `nq == 0` = nothing memoized. Block
    /// granularity, not corner granularity: corners that moved *within*
    /// the same blocks leave the tag set — and the dedupe's lane
    /// structure — untouched, so the memo keeps hitting while a
    /// footprint walks across a block's interior texels.
    blocks: [(u32, u32, u32, u32); 2],
    ms: [u32; 2],
    nq: usize,
    /// Distinct L1 tags of the memoized footprint, first-occurrence
    /// order, with each tag's last-occurrence lane index.
    uniq: [u64; BATCH_LANES],
    last: [u32; BATCH_LANES],
    k: usize,
}

impl QuadKernel {
    #[inline(always)]
    fn new(map: L1AddressMap) -> Self {
        Self {
            map,
            tid: u32::MAX,
            blocks: [(0, 0, 0, 0); 2],
            ms: [0; 2],
            nq: 0,
            uniq: [0; BATCH_LANES],
            last: [0; BATCH_LANES],
            k: 0,
        }
    }

    /// Wide attempt for a quad footprint: returns the lane count if the
    /// whole batch committed as L1 hits, or `None` — with the cache
    /// untouched — when any line is absent and the caller must replay
    /// the lanes through the scalar tap bodies.
    #[inline(always)]
    fn run(
        &mut self,
        tid: TextureId,
        quads: &[LevelQuad; 2],
        nq: usize,
        l1: &mut L1TextureCache,
    ) -> Option<u64> {
        let n = (nq * 4) as u32;
        let mut blocks = [(0u32, 0u32, 0u32, 0u32); 2];
        let mut ms = [0u32; 2];
        for (i, q) in quads[..nq].iter().enumerate() {
            blocks[i] = self.map.quad_blocks(q.xa, q.xb, q.ya, q.yb);
            ms[i] = q.m;
        }
        if self.nq == nq
            && self.tid == tid.index()
            && self.ms[..nq] == ms[..nq]
            && self.blocks[..nq] == blocks[..nq]
        {
            // Identical blocks ⇒ identical tags, identical dedupe and
            // identical last-occurrence lanes: the memo is still exact,
            // and if nothing moved the cache since the previous commit,
            // the slots are too.
            if l1.recommit_last_batch(&self.last[..self.k], n) {
                return Some(n as u64);
            }
            return l1
                .access_all_hits_by_tag(&self.uniq[..self.k], &self.last[..self.k], n)
                .then_some(n as u64);
        }
        self.tid = tid.index();
        self.blocks = blocks;
        self.ms = ms;
        self.nq = nq;
        // Distinct tags straight from the block structure: block mapping
        // is componentwise, so a level's corners occupy the blocks
        // {bxa,bxb} × {bya,byb} and the two inequalities decide the
        // count; levels never collide (the mip bits differ), so their
        // unique lists concatenate without any cross-scan.
        let mut k = 0usize;
        let mut off = 0u32;
        for i in 0..nq {
            let (bxa, bxb, bya, byb) = blocks[i];
            let m = ms[i];
            let pack = |bx, by| L1BlockKey::from_block_coords(tid, m, bx, by).packed();
            match (bxa != bxb, bya != byb) {
                (false, false) => {
                    self.uniq[k] = pack(bxa, bya);
                    self.last[k] = off + 3;
                    k += 1;
                }
                (true, false) => {
                    self.uniq[k] = pack(bxa, bya);
                    self.last[k] = off + 2;
                    self.uniq[k + 1] = pack(bxb, bya);
                    self.last[k + 1] = off + 3;
                    k += 2;
                }
                (false, true) => {
                    self.uniq[k] = pack(bxa, bya);
                    self.last[k] = off + 1;
                    self.uniq[k + 1] = pack(bxa, byb);
                    self.last[k + 1] = off + 3;
                    k += 2;
                }
                (true, true) => {
                    self.uniq[k] = pack(bxa, bya);
                    self.uniq[k + 1] = pack(bxb, bya);
                    self.uniq[k + 2] = pack(bxa, byb);
                    self.uniq[k + 3] = pack(bxb, byb);
                    for c in 0..4 {
                        self.last[k + c] = off + c as u32;
                    }
                    k += 4;
                }
            }
            off += 4;
        }
        self.k = k;
        l1.access_all_hits_by_tag(&self.uniq[..k], &self.last[..k], n)
            .then_some(n as u64)
    }
}

/// Lanes of a quad footprint that read its `j`-th distinct tag, from the
/// kernel's last-lane list `last[..k]` alone. [`QuadKernel`] lays level
/// `i`'s four corners at lanes `4i..4i + 4` and a level's corners split
/// evenly over its 1, 2 or 4 blocks, so the count follows from how many of
/// the `k` tags end in the same level.
pub(crate) fn lanes_of_tag(last: &[u32; BATCH_LANES], k: usize, j: usize) -> u64 {
    let level = last[j] / 4;
    let tags = last[..k].iter().filter(|&&l| l / 4 == level).count();
    4 / tags as u64
}

/// The wide frame loop: every request's taps probe the L1 as one lane
/// batch and commit wide when they all hit, or replay one by one through
/// [`Levels::tap`] when any misses.
// Never inlined: one loop per function keeps each instantiation's code
// independent of how many others its dispatch site names.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn wide_frame_loop<const F: u8, I, Lv, Te, Ad>(
    requests: I,
    lv: Lv,
    dims: &MipDims,
    l1: &mut L1TextureCache,
    host: &mut HostLink,
    current: &mut FrameCounters,
    mut tel: Te,
    mut ad: Ad,
) -> Result<(), EngineError>
where
    I: IntoIterator<Item = PixelRequest>,
    Lv: Levels,
    Te: TelemetryMode,
    Ad: AdmissionMode,
{
    // A by-value struct arrives behind a pointer; moved into a local its
    // fields (the translation memo, the L2 and table references) are
    // registers again, as they were when they were arguments of their own.
    let mut lv = lv;
    let mut kern = QuadKernel::new(l1.address_map());
    let mut block = FootprintBlock::new();
    let mut qbuf = [[LevelQuad::default(); 2]; FOOTPRINT_BLOCK];
    macro_rules! wide_or_scalar {
        ($tid:expr, $quads:expr, $nq:expr) => {
            if ad.admit(($nq * 4) as u64) {
                match kern.run($tid, &$quads, $nq, l1) {
                    Some(n) => {
                        current.l1_accesses += n;
                        current.l1_hits += n;
                        tel.wide_commit($tid, &$quads, $nq, &kern.uniq, &kern.last, kern.k, n);
                    }
                    None => {
                        tel.wide_decline();
                        tel.before_taps(current);
                        for q in &$quads[..$nq] {
                            let xs = [q.xa, q.xb, q.xa, q.xb];
                            let ys = [q.ya, q.ya, q.yb, q.yb];
                            for c in 0..4 {
                                lv.tap(
                                    $tid, q.m, xs[c], ys[c], l1, host, current, &mut tel, &mut ad,
                                );
                                tel.after_tap($tid, q.m, xs[c], ys[c], current);
                            }
                        }
                    }
                }
            }
        };
    }
    // Queued requests are older than whatever triggers the drain, so
    // every drain point replays them first, preserving request order.
    macro_rules! drain {
        () => {
            if !block.is_empty() {
                let reqs = block.flush(&mut qbuf);
                for (i, r) in reqs.iter().enumerate() {
                    wide_or_scalar!(r.tid, qbuf[i], 2);
                }
            }
        };
    }
    // Texture runs are long, so the pyramid-dimension lookup is hoisted
    // out of the steady state and repeated only when the texture changes.
    let mut cur_tid = u32::MAX;
    let mut d: &[(u32, u32)] = &[];
    for req in requests {
        if req.tid.index() != cur_tid {
            match dims.get(req.tid.index() as usize).and_then(|d| d.as_ref()) {
                Some(found) => {
                    d = found;
                    cur_tid = req.tid.index();
                }
                None => {
                    drain!();
                    return Err(EngineError::UnknownTexture(req.tid));
                }
            }
        }
        match block.push(&req, const_filter::<F>(), d.len() as u32, |m| d[m as usize]) {
            None => {
                if block.is_full() {
                    drain!();
                }
            }
            // A single tap has nothing to batch: the scalar body IS the path.
            Some(Footprint::Point { m, u, v }) => {
                drain!();
                tel.before_taps(current);
                lv.tap(req.tid, m, u, v, l1, host, current, &mut tel, &mut ad);
                tel.after_tap(req.tid, m, u, v, current);
            }
            Some(Footprint::Quads { quads, n: nq }) => {
                drain!();
                wide_or_scalar!(req.tid, quads, nq);
            }
        }
    }
    drain!();
    Ok(())
}

/// One frame's requests waiting for the wide frame loop, under the
/// admission mode `ad`: [`SimEngine`](crate::SimEngine) replays with
/// [`AdmitAll`](crate::tap::AdmitAll), a service
/// [`ClientEngine`](crate::ClientEngine) with its budget. The frame stays
/// open.
pub(crate) struct WideFrame<I, Ad> {
    pub(crate) filter: FilterMode,
    pub(crate) requests: I,
    pub(crate) ad: Ad,
}

impl<I, Ad> Replay for WideFrame<I, Ad>
where
    I: IntoIterator<Item = PixelRequest>,
    Ad: AdmissionMode,
{
    type Out = Result<(), EngineError>;

    fn run<Lv: Levels, Te: TelemetryMode>(
        self,
        lv: Lv,
        tel: Te,
        dims: &MipDims,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
    ) -> Self::Out {
        let Self {
            filter,
            requests,
            ad,
        } = self;
        match filter {
            FilterMode::Point => {
                wide_frame_loop::<0, _, _, _, _>(requests, lv, dims, l1, host, current, tel, ad)
            }
            FilterMode::Bilinear => {
                wide_frame_loop::<1, _, _, _, _>(requests, lv, dims, l1, host, current, tel, ad)
            }
            FilterMode::Trilinear => {
                wide_frame_loop::<2, _, _, _, _>(requests, lv, dims, l1, host, current, tel, ad)
            }
        }
    }
}

/// One frame decoded off-engine — its filter and its pixel requests —
/// ready for
/// [`SimEngine::try_run_frame_prepared`](crate::SimEngine::try_run_frame_prepared),
/// which replays it through the wide frame loop. The pipelined runner
/// recycles `PreparedFrame`s through a return channel, so the request
/// buffer keeps its capacity and the steady state allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct PreparedFrame {
    pub(crate) filter: FilterMode,
    pub(crate) requests: Vec<PixelRequest>,
}

/// The pipeline's decode stage: collects a frame's pixel requests into a
/// [`PreparedFrame`] on a thread other than the engine's. It holds no
/// state; the wide frame loop expands, translates and checks every request
/// when the engine replays the frame.
#[derive(Debug, Clone)]
pub struct FramePrep(());

impl FramePrep {
    /// The decode stage for an engine built from `cfg` over `registry`.
    pub fn new(_cfg: &EngineConfig, _registry: &TextureRegistry) -> Self {
        Self(())
    }

    /// Records `filter` and collects `requests` into `out`, whose previous
    /// contents are dropped. A request naming an unknown texture is kept:
    /// the replay reports it with the frame left open, as every other
    /// entry does.
    pub fn prepare<I>(&self, filter: FilterMode, requests: I, out: &mut PreparedFrame)
    where
        I: IntoIterator<Item = PixelRequest>,
    {
        out.filter = filter;
        out.requests.clear();
        out.requests.extend(requests);
    }
}
