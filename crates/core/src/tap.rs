//! The per-tap body of the cache hierarchy, and the one place its levels
//! and its observers are chosen.
//!
//! The paper specifies the hierarchy as one per-texel control flow (Fig. 7,
//! steps A–F). [`Levels::tap`] is that flow, written once: the L1 probe,
//! then — through [`Levels::below_l1`] — whatever the architecture keeps
//! below it ([`Pull`]: the host link; [`MultiLevel`]: translation, the TLB,
//! the L2 and the host link behind it). Every entry point of
//! [`SimEngine`](crate::SimEngine) and every client of the multi-client
//! [`service`](crate::service) reaches the hierarchy through it, so counters,
//! cache state, host-link draws and telemetry cannot differ between the
//! per-access entry the differential oracle drives in lockstep, the scalar
//! and wide frame loops and a partitioned service client.
//!
//! What varies between those consumers is resolved once per replay, at
//! compile time, by [`Hierarchy`]: `(l2, tlb)` become a [`Levels`] value in
//! [`Hierarchy::replay_under`], and [`Hierarchy::replay`] picks the sink —
//! [`TelOff`] when nothing observes the replay, [`Logged`] when telemetry
//! or the timing overlay does — and the replay loop — a [`Replay`] — is
//! instantiated over both. Observers are never arms of the body: the
//! bodies update the caches, the host link and the [`FrameCounters`] and
//! nothing else, and [`Logged`] and [`Traced`] learn what a tap did from
//! one outcome reader, [`TapReader`], which reads it off the movement of
//! the counters around the unedited body. The two facts no counter carries
//! — the page an L1 miss probed in the L2 and the L2's clock statistics
//! after it — reach the sinks through [`TelemetryMode::l2_probed`], with the
//! block and the eviction victim. [`Logged`] does not call the observers
//! either: it appends each event to the observer stream
//! ([`crate::observe`]), which telemetry and the timing overlay consume on
//! a helper thread or inline.

use crate::batch::BATCH_LANES;
use crate::engine::{AccessTrace, EngineConfig, FrameCounters};
use crate::latency::TimingSim;
use crate::observe::{self, EventLog, Observers};
use crate::service::{AdmissionControl, ClientServiceStats, DegradeTier};
use crate::telemetry::EngineTelemetry;
use crate::{HostLink, L1TextureCache, L2AccessTrace, L2Cache, L2Outcome, Transfer};
use mltc_cache::{ClockStats, RoundRobinTlb};
use mltc_texture::{TextureId, TranslationMemo, TranslationTables};
use mltc_trace::{FilterMode, LevelQuad};

/// Per-texture mip-chain dimensions (`None` = no such texture), indexed by
/// texture id.
pub(crate) type MipDims = [Option<Vec<(u32, u32)>>];

/// Compile-time observer switch: `TelOff` observes nothing, `MissLog`
/// records every L1 miss into an [`L1Pass`](crate::L1Pass), `Logged`
/// logs what each tap and each wide commit did for the attached telemetry
/// and timing overlay, and `Traced` reports one tap as an [`AccessTrace`].
///
/// Every hook is empty unless a mode fills it, and the call sites pass
/// nothing that costs anything to evaluate (values the body already holds,
/// whole arrays, never a slice made for the hook: the bounds check of a
/// slice argument survives in instantiations whose hook is empty), so
/// `TelOff` and `MissLog` compile to the bare hierarchy.
pub(crate) trait TelemetryMode {
    /// Called once per L1 miss, before anything below the L1 runs.
    #[inline(always)]
    fn l1_miss(&mut self, _tid: TextureId, _m: u32, _u: u32, _v: u32) {}

    /// Called once per L2 probe with what the L2 reports of it, the page
    /// it probed and the L2 itself: the physical block, the eviction
    /// victim, the page and the clock's cumulative sweep statistics are
    /// the facts of a tap the counters do not carry.
    #[inline(always)]
    fn l2_probed(&mut self, _probe: &L2AccessTrace, _pt_index: u32, _l2: &L2Cache) {}

    /// A pixel request — one lookahead fragment — committed wide: `n` L1
    /// hits on `tid` over the corner quads `quads[..nq]`, whose distinct
    /// tags are `uniq[..k]` with last lanes `last[..k]`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn wide_commit(
        &mut self,
        _tid: TextureId,
        _quads: &[LevelQuad; 2],
        _nq: usize,
        _uniq: &[u64; BATCH_LANES],
        _last: &[u32; BATCH_LANES],
        _k: usize,
        _n: u64,
    ) {
    }

    /// A pixel request declined the wide commit: its taps replay as scalar
    /// taps next.
    #[inline(always)]
    fn wide_decline(&mut self) {}

    /// A pixel request — one lookahead fragment — is about to replay as
    /// scalar taps; the counters as they stand.
    #[inline(always)]
    fn before_taps(&mut self, _current: &FrameCounters) {}

    /// Called after each of those scalar taps, with the counters as the
    /// tap left them.
    #[inline(always)]
    fn after_tap(&mut self, _tid: TextureId, _m: u32, _u: u32, _v: u32, _current: &FrameCounters) {}
}

/// What an L2 probe reported beyond the counters, as
/// [`l2_probed`](TelemetryMode::l2_probed) hands it over.
#[derive(Clone, Copy)]
pub(crate) struct L2Probe {
    pub(crate) trace: L2AccessTrace,
    pub(crate) pt_index: u32,
    /// The L2's cumulative clock statistics after the probe: a full miss's
    /// sweep has run.
    pub(crate) clock: ClockStats,
}

/// The one outcome reader: what a scalar tap did, read off the movement of
/// the [`FrameCounters`] around the unedited tap body plus what its L2 probe
/// reported. Every sink that observes taps — [`Logged`], [`Traced`] —
/// keeps one and learns a tap's outcome only through it.
#[derive(Default)]
pub(crate) struct TapReader {
    before: FrameCounters,
    probe: Option<L2Probe>,
}

impl TapReader {
    #[inline(always)]
    fn before_taps(&mut self, current: &FrameCounters) {
        self.before = *current;
    }

    #[inline(always)]
    fn l2_probed(&mut self, trace: &L2AccessTrace, pt_index: u32, l2: &L2Cache) {
        self.probe = Some(L2Probe {
            trace: *trace,
            pt_index,
            clock: l2.clock_stats(),
        });
    }

    /// The tap that moved the counters from where the previous tap (or
    /// `before_taps`) left them to `now`, with its L2 probe; `None` for a
    /// tap the admission mode shed, which never reached the L1.
    #[inline(always)]
    fn after_tap(&mut self, now: &FrameCounters) -> Option<(AccessTrace, Option<L2Probe>)> {
        let was = std::mem::replace(&mut self.before, *now);
        let probe = self.probe.take();
        if now.l1_accesses == was.l1_accesses {
            return None;
        }
        let trace = AccessTrace {
            l1_hit: now.l1_hits != was.l1_hits,
            tlb_hit: (now.tlb_accesses != was.tlb_accesses).then_some(now.tlb_hits != was.tlb_hits),
            l2: probe.map(|p| p.trace.outcome),
            l2_block: probe.map(|p| p.trace.block),
            evicted_page: probe.and_then(|p| p.trace.evicted_page),
            host_bytes: now.host_bytes - was.host_bytes,
            retries: (now.retries - was.retries) as u32,
            failed: now.failed_transfers != was.failed_transfers,
            degraded: now.degraded_taps != was.degraded_taps,
            dropped: now.dropped_taps != was.dropped_taps,
        };
        Some((trace, probe))
    }
}

/// The observing sink of the frame loops, for telemetry, the timing
/// overlay or both: each wide commit, decline and fragment opening, and
/// each scalar tap's outcome as the [`TapReader`] reads it, appended to the
/// observer stream's [`EventLog`], whose consumer
/// ([`Observers`](crate::observe::Observers)) feeds them on.
pub(crate) struct Logged<'l, 'a> {
    log: &'l mut EventLog<'a>,
    reader: TapReader,
}

impl<'l, 'a> Logged<'l, 'a> {
    pub(crate) fn new(log: &'l mut EventLog<'a>) -> Self {
        Self {
            log,
            reader: TapReader::default(),
        }
    }
}

impl TelemetryMode for Logged<'_, '_> {
    #[inline(always)]
    fn l2_probed(&mut self, probe: &L2AccessTrace, pt_index: u32, l2: &L2Cache) {
        self.reader.l2_probed(probe, pt_index, l2);
    }

    #[inline(always)]
    fn wide_commit(
        &mut self,
        tid: TextureId,
        quads: &[LevelQuad; 2],
        nq: usize,
        uniq: &[u64; BATCH_LANES],
        last: &[u32; BATCH_LANES],
        k: usize,
        _n: u64,
    ) {
        self.log.commit(tid, quads, nq, uniq, last, k);
    }

    #[inline(always)]
    fn wide_decline(&mut self) {
        self.log.decline();
    }

    #[inline(always)]
    fn before_taps(&mut self, current: &FrameCounters) {
        self.reader.before_taps(current);
        self.log.open();
    }

    #[inline(always)]
    fn after_tap(&mut self, tid: TextureId, m: u32, u: u32, v: u32, current: &FrameCounters) {
        if let Some((trace, probe)) = self.reader.after_tap(current) {
            self.log.tap(tid, m, u, v, &trace, probe.as_ref());
        }
    }
}

pub(crate) struct TelOff;

impl TelemetryMode for TelOff {}

/// One L1 miss `(texture index, m, u, v)` as a leader recording an
/// [`L1Pass`](crate::L1Pass) logs it.
pub(crate) type L1Miss = (u32, u32, u32, u32);

/// The sink of a leader recording an [`L1Pass`](crate::L1Pass)
/// ([`SimEngine::try_run_frame_recorded_as`](crate::SimEngine::try_run_frame_recorded_as)):
/// telemetry off, L1 misses appended to the recorder's log in tap order.
pub(crate) struct MissLog<'a>(pub(crate) &'a mut Vec<L1Miss>);

impl TelemetryMode for MissLog<'_> {
    #[inline(always)]
    fn l1_miss(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        self.0.push((tid.index(), m, u, v));
    }
}

/// The trace sink of the per-access entry
/// ([`SimEngine::access_texel_traced`](crate::SimEngine::access_texel_traced)):
/// the [`AccessTrace`] and the L2 probe the [`TapReader`] reads of the tap
/// between [`before_taps`](TelemetryMode::before_taps) and
/// [`after_tap`](TelemetryMode::after_tap), which the entry hands to the
/// observers itself.
#[derive(Default)]
pub(crate) struct Traced {
    reader: TapReader,
    /// What happened to the tap the last `after_tap` closed, `None` for a
    /// shed tap.
    pub(crate) tap: Option<(AccessTrace, Option<L2Probe>)>,
}

impl TelemetryMode for Traced {
    #[inline(always)]
    fn l2_probed(&mut self, probe: &L2AccessTrace, pt_index: u32, l2: &L2Cache) {
        self.reader.l2_probed(probe, pt_index, l2);
    }

    #[inline(always)]
    fn before_taps(&mut self, current: &FrameCounters) {
        self.reader.before_taps(current);
    }

    #[inline(always)]
    fn after_tap(&mut self, _tid: TextureId, _m: u32, _u: u32, _v: u32, current: &FrameCounters) {
        self.tap = self.reader.after_tap(current);
    }
}

/// Compile-time TLB switch, the engine's `Option<Tlb>` resolved once:
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

/// Compile-time admission switch: the service's degradation tiers as a
/// fourth mode beside filter, TLB and telemetry. [`AdmitAll`] erases both
/// hooks, so every engine instantiation is the plain hierarchy; the
/// service's [`Budgeted`] mode charges them against a client's per-frame
/// transfer budgets.
pub(crate) trait AdmissionMode {
    /// Hard tier, asked before the next `n` taps touch anything: `false`
    /// sheds them (taps counted by the mode, caches untouched). Every
    /// tap body asks for itself; a wide batch asks once for all its
    /// lanes, which is exact because only a host transfer moves a budget
    /// and an all-hit batch makes none — a batch that declines the wide
    /// commit replays through the tap bodies, which ask again per tap.
    fn admit(&mut self, n: u64) -> bool;

    /// Soft tier, asked at the transfer site once per L1 miss that needs
    /// the host: `false` denies the link, and the tap takes the
    /// failed-download rollback without any link statistics.
    fn grant_transfer(&mut self) -> bool;
}

pub(crate) struct AdmitAll;

impl AdmissionMode for AdmitAll {
    #[inline(always)]
    fn admit(&mut self, _n: u64) -> bool {
        true
    }

    #[inline(always)]
    fn grant_transfer(&mut self) -> bool {
        true
    }
}

/// The admission mode of a service client with a budget set: charges the
/// two hooks against its [`AdmissionControl`] for one frame.
pub(crate) struct Budgeted<'a> {
    pub(crate) ctl: AdmissionControl,
    /// Transfers the open frame has attempted so far (delivered, failed
    /// or denied): one per arrival at a transfer site.
    pub(crate) attempted: u64,
    pub(crate) stats: &'a mut ClientServiceStats,
    pub(crate) shed_frame: &'a mut bool,
}

impl AdmissionMode for Budgeted<'_> {
    #[inline(always)]
    fn admit(&mut self, n: u64) -> bool {
        let hard = self.ctl.hard_transfers_per_frame;
        if hard > 0 && self.attempted >= hard {
            self.stats.shed_taps += n;
            *self.shed_frame = true;
            return false;
        }
        let soft = self.ctl.soft_transfers_per_frame;
        if soft > 0 && self.attempted >= soft {
            // Every tap that arrives over the soft budget is in tier 1,
            // whether or not it goes on to need the host.
            self.stats.bump_tier(DegradeTier::DegradedTaps);
        }
        true
    }

    #[inline(always)]
    fn grant_transfer(&mut self) -> bool {
        let soft = self.ctl.soft_transfers_per_frame;
        let denied = soft > 0 && self.attempted >= soft;
        self.attempted += 1;
        self.stats.denied_transfers += denied as u64;
        !denied
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

/// The levels below the L1 as a value: the architecture a replay loop is
/// generic over. [`Pull`] and [`MultiLevel`] are the two the paper compares.
pub(crate) trait Levels {
    /// Everything a tap does after its L1 miss. A method of its own so a
    /// member replaying an [`L1Pass`](crate::L1Pass) can run it straight
    /// off the leader's L1 misses.
    #[allow(clippy::too_many_arguments)]
    fn below_l1<Te: TelemetryMode, Ad: AdmissionMode>(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
        tel: &mut Te,
        ad: &mut Ad,
    );

    /// One tap — the paper's Fig. 7 — through the L1 and, on a miss,
    /// [`below_l1`](Self::below_l1).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn tap<Te: TelemetryMode, Ad: AdmissionMode>(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
        tel: &mut Te,
        ad: &mut Ad,
    ) {
        if !ad.admit(1) {
            return;
        }
        current.l1_accesses += 1;
        if l1.access(tid, m, u, v) {
            current.l1_hits += 1;
            return;
        }
        tel.l1_miss(tid, m, u, v);
        self.below_l1(tid, m, u, v, l1, host, current, tel, ad);
    }
}

/// The pull architecture: an L1 miss downloads its L1 tile straight from
/// host memory (no L2, hence no translation and no TLB).
pub(crate) struct Pull {
    l1_bytes: u64,
}

impl Pull {
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        Self {
            l1_bytes: cfg.l1.line_bytes() as u64,
        }
    }
}

impl Levels for Pull {
    /// Host transfer → rollback. Without an L2 there is nothing to degrade
    /// to, so a failed or denied transfer drops the tap, and nothing to
    /// tell the sink that the counters do not.
    #[inline(always)]
    fn below_l1<Te: TelemetryMode, Ad: AdmissionMode>(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
        _tel: &mut Te,
        ad: &mut Ad,
    ) {
        // A denied transfer is a third outcome beside delivered and failed:
        // the failed-download rollback, with the link never touched.
        if !ad.grant_transfer() {
            return pull_rollback(tid, m, u, v, l1, current);
        }
        match host.transfer(tid) {
            Transfer::Delivered { retries } => {
                current.retries += retries as u64;
                current.host_bytes += self.l1_bytes;
            }
            Transfer::Failed { retries } => {
                current.retries += retries as u64;
                current.failed_transfers += 1;
                pull_rollback(tid, m, u, v, l1, current);
            }
        }
    }
}

/// A pull tap whose download did not arrive — the link failed it or
/// admission denied it: the speculative L1 install is rolled back and, with
/// no L2 to degrade to, the tap dropped.
#[inline(always)]
fn pull_rollback(
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
    l1: &mut L1TextureCache,
    current: &mut FrameCounters,
) {
    l1.invalidate(tid, m, u, v);
    current.dropped_taps += 1;
}

/// The proposed multi-level architecture: an L1 miss is translated (the
/// shift/mask tables behind a one-entry memo), probes the TLB when one is
/// modelled, and is served from the L2 or downloaded into L2 and L1 in
/// parallel. Per-replay constants (line bytes, the full-miss download
/// size) are worked out once, here.
pub(crate) struct MultiLevel<'a, Tl> {
    l1_bytes: u64,
    dl_full_miss: u64,
    tables: &'a TranslationTables,
    memo: TranslationMemo,
    dims: &'a MipDims,
    l2: &'a mut L2Cache,
    tlb: Tl,
}

impl<Tl: TlbMode> Levels for MultiLevel<'_, Tl> {
    /// Translation → TLB probe → L2 probe → host transfer → rollback /
    /// degradation. A transfer the admission mode denies takes the
    /// failed-download rollback — the speculative installs are torn down
    /// and the tap is served from a resident coarser mip or dropped —
    /// minus the link statistics.
    #[inline(always)]
    fn below_l1<Te: TelemetryMode, Ad: AdmissionMode>(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
        tel: &mut Te,
        ad: &mut Ad,
    ) {
        let (pt_index, l1_sub) = self.tables.lookup(&mut self.memo, tid.index(), m, u, v);
        let tlb_hit = self.tlb.access(pt_index as u64);
        if let Some(hit) = tlb_hit {
            current.tlb_accesses += 1;
            current.tlb_hits += hit as u64;
        }
        let l1_bytes = self.l1_bytes;
        let probe = self.l2.access_traced(pt_index, l1_sub);
        tel.l2_probed(&probe, pt_index, self.l2);
        let dl = match probe.outcome {
            L2Outcome::FullHit => {
                current.l2_full_hits += 1;
                current.l2_local_bytes += l1_bytes;
                return;
            }
            L2Outcome::PartialHit => {
                current.l2_partial_hits += 1;
                l1_bytes
            }
            L2Outcome::FullMiss => {
                current.l2_full_misses += 1;
                self.dl_full_miss
            }
        };
        // A denied transfer is a third outcome beside delivered and failed:
        // the failed-download rollback, with the link never touched.
        if !ad.grant_transfer() {
            return self.rollback(tid, m, u, v, pt_index, l1_sub, l1, current);
        }
        match host.transfer(tid) {
            Transfer::Delivered { retries } => {
                current.retries += retries as u64;
                current.host_bytes += dl;
                current.l2_local_bytes += dl;
            }
            Transfer::Failed { retries } => {
                current.retries += retries as u64;
                current.failed_transfers += 1;
                self.rollback(tid, m, u, v, pt_index, l1_sub, l1, current);
            }
        }
    }
}

impl<'a, Tl: TlbMode> MultiLevel<'a, Tl> {
    pub(crate) fn new(
        cfg: &EngineConfig,
        tables: &'a TranslationTables,
        dims: &'a MipDims,
        l2: &'a mut L2Cache,
        tlb: Tl,
    ) -> Self {
        let l1_bytes = cfg.l1.line_bytes() as u64;
        Self {
            l1_bytes,
            dl_full_miss: if l2.config().sector_mapping {
                l1_bytes
            } else {
                cfg.tiling.l2().cache_bytes() as u64
            },
            tables,
            memo: TranslationMemo::default(),
            dims,
            l2,
            tlb,
        }
    }

    /// A multi-level tap whose download did not arrive — the link failed
    /// it or admission denied it: both speculative installs are torn down
    /// and the tap is served from a resident coarser mip (degraded) or
    /// dropped.
    ///
    /// A function of its own rather than a shared tail of the transfer
    /// `match`: with the rollback out of the way of the delivered arm,
    /// `city_miss_path` (every fifth tap misses the L1) replays ≈ 20 %
    /// faster than with the two arms folded into one `Option<Transfer>`
    /// match (DESIGN.md §9, measured).
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn rollback(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        pt_index: u32,
        l1_sub: u16,
        l1: &mut L1TextureCache,
        current: &mut FrameCounters,
    ) {
        self.l2.fail_download(pt_index, l1_sub);
        l1.invalidate(tid, m, u, v);
        if degraded_probe(self.tables, self.dims, self.l2, tid, m, u, v) {
            current.degraded_taps += 1;
            current.l2_local_bytes += self.l1_bytes;
        } else {
            current.dropped_taps += 1;
        }
    }
}

/// A replay loop waiting for its levels and its sink: what [`Hierarchy`]
/// instantiates once it has resolved both. Each loop shape is written
/// once, generic over the architecture and the observers.
pub(crate) trait Replay {
    type Out;

    fn run<Lv: Levels, Te: TelemetryMode>(
        self,
        lv: Lv,
        tel: Te,
        dims: &MipDims,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
    ) -> Self::Out;
}

/// One engine's hierarchy — a service client's is its engine's, with a
/// unified service's L2 borrowed in — for a replay: the dynamic form
/// (`Option<L2>`, `Option<Tlb>`) that [`replay_under`](Self::replay_under)
/// resolves into a [`Levels`] value.
pub(crate) struct Hierarchy<'a> {
    pub(crate) cfg: &'a EngineConfig,
    pub(crate) tables: &'a TranslationTables,
    pub(crate) dims: &'a MipDims,
    pub(crate) l1: &'a mut L1TextureCache,
    pub(crate) l2: Option<&'a mut L2Cache>,
    pub(crate) tlb: Option<&'a mut RoundRobinTlb>,
    pub(crate) host: &'a mut HostLink,
    pub(crate) current: &'a mut FrameCounters,
}

impl Hierarchy<'_> {
    /// Runs `replay` over this hierarchy under the sink `tel`: the one
    /// place `(l2, tlb)` become a [`Levels`] value.
    pub(crate) fn replay_under<Te: TelemetryMode, R: Replay>(self, tel: Te, replay: R) -> R::Out {
        let (cfg, tables, dims) = (self.cfg, self.tables, self.dims);
        match (self.l2, self.tlb) {
            (None, _) => replay.run(Pull::new(cfg), tel, dims, self.l1, self.host, self.current),
            (Some(l2), None) => {
                let lv = MultiLevel::new(cfg, tables, dims, l2, TlbOff);
                replay.run(lv, tel, dims, self.l1, self.host, self.current)
            }
            (Some(l2), Some(tlb)) => {
                let lv = MultiLevel::new(cfg, tables, dims, l2, TlbOn(tlb));
                replay.run(lv, tel, dims, self.l1, self.host, self.current)
            }
        }
    }

    /// Runs `replay` under the sink the attached observers call for — the
    /// one place `(telemetry, timing)` become a [`TelemetryMode`]: [`TelOff`]
    /// when neither is attached, otherwise [`Logged`], whose event log the
    /// observers consume on a helper thread or inline
    /// ([`observed_frame`](crate::observe::observed_frame)) before this
    /// returns.
    pub(crate) fn replay<R: Replay>(
        self,
        tel: Option<&mut EngineTelemetry>,
        timing: Option<&mut TimingSim>,
        replay: R,
    ) -> R::Out {
        if tel.is_none() && timing.is_none() {
            return self.replay_under(TelOff, replay);
        }
        observe::observed_frame(Observers { tel, timing }, |log| {
            self.replay_under(Logged::new(log), replay)
        })
    }
}

/// Read-only search for the nearest coarser mip level whose covering texel
/// is resident in L2 (graceful degradation after a failed download);
/// geometry comes from the precomputed layout tables instead of a full
/// `translate` per candidate level.
#[inline]
pub(crate) fn degraded_probe(
    tables: &TranslationTables,
    dims: &MipDims,
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
