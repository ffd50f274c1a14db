//! The transaction-accurate multi-level cache simulator (paper §3.3, §5.3).

use crate::batch::{PreparedFrame, WideFrame};
use crate::latency::{LatencyModel, TimingSim};
use crate::observe::Observers;
use crate::tap::{
    const_filter, AdmitAll, Hierarchy, L1Miss, L2Probe, Levels, MipDims, Replay, TelOff,
    TelemetryMode, Traced,
};
use crate::telemetry::{AttributionParams, EngineTelemetry, TelemetryOpts};
use crate::{
    EngineError, FaultPlan, HostLink, L1Config, L1TextureCache, L2Cache, L2Config, L2Outcome,
};
use mltc_cache::RoundRobinTlb;
use mltc_telemetry::Recorder;
use mltc_texture::{PageTableLayout, TextureId, TextureRegistry, TilingConfig};
use mltc_trace::{filter_taps, FilterMode, FrameTrace, PixelRequest};

mod l1pass;
pub use l1pass::{L1Pass, L1PassRecorder};

/// Full configuration of a simulated architecture.
///
/// * `l2: None` models the **pull** architecture (L1 misses download L1
///   tiles straight from host memory over AGP);
/// * `l2: Some(..)` models the proposed **multi-level** architecture.
///
/// ```
/// use mltc_core::EngineConfig;
/// let pull = EngineConfig::default();
/// assert!(pull.l2.is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// On-chip L1 texture cache.
    pub l1: L1Config,
    /// Optional local-memory L2 cache.
    pub l2: Option<L2Config>,
    /// Texture page-table TLB entries; `0` disables TLB modelling. Only
    /// meaningful when an L2 is present (§5.4.3).
    pub tlb_entries: usize,
    /// L2 block / L1 sub-block tiling.
    pub tiling: TilingConfig,
    /// Host-link fault injection. [`FaultPlan::none()`] (the default)
    /// reproduces the fault-free engine bit for bit.
    pub fault: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            l1: L1Config::default(),
            l2: None,
            tlb_entries: 0,
            tiling: TilingConfig::PAPER_DEFAULT,
            fault: FaultPlan::none(),
        }
    }
}

impl EngineConfig {
    /// Short human-readable description (used as series labels in the
    /// experiment harness). L1 sizes below 1 KB print in bytes, L2 sizes
    /// below 1 MB in KB.
    pub fn label(&self) -> String {
        let l1 = match self.l1.size_bytes {
            b if b < 1 << 10 => format!("{b} B"),
            b => format!("{} KB", b >> 10),
        };
        match self.l2 {
            None => format!("{l1} L1, no L2"),
            Some(l2) if l2.size_bytes < 1 << 20 => {
                format!("{l1} L1, {} KB L2", l2.size_bytes >> 10)
            }
            Some(l2) => format!("{l1} L1, {} MB L2", l2.size_bytes >> 20),
        }
    }

    /// Validates the cache geometry (what [`SimEngine::try_new`] checks
    /// first — for a [`TextureService`](crate::TextureService), of each
    /// client's slice of the hierarchy).
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidGeometry`] for an L1 with zero ways, zero sets
    /// or a non-power-of-two set count, or an L2 smaller than one block.
    pub fn validate_geometry(&self) -> Result<(), EngineError> {
        if self.l1.ways == 0 {
            return Err(EngineError::InvalidGeometry(
                "L1 must have at least one way".into(),
            ));
        }
        let sets = self.l1.sets();
        if sets == 0 {
            return Err(EngineError::InvalidGeometry(format!(
                "L1 of {} bytes has no sets",
                self.l1.size_bytes
            )));
        }
        if !sets.is_power_of_two() {
            return Err(EngineError::InvalidGeometry(format!(
                "L1 set count {sets} must be a power of two"
            )));
        }
        if let Some(l2) = self.l2 {
            let block_bytes = self.tiling.l2().cache_bytes();
            if l2.size_bytes < block_bytes {
                return Err(EngineError::InvalidGeometry(format!(
                    "L2 of {} bytes holds no {} blocks",
                    l2.size_bytes,
                    self.tiling.l2()
                )));
            }
        }
        Ok(())
    }
}

/// Per-frame traffic and hit counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounters {
    /// Texel lookups presented to the L1.
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 full hits (conditional on L1 miss).
    pub l2_full_hits: u64,
    /// L2 partial hits.
    pub l2_partial_hits: u64,
    /// L2 full misses.
    pub l2_full_misses: u64,
    /// Bytes downloaded from host memory over AGP.
    pub host_bytes: u64,
    /// Bytes moved through local L2 cache memory (reads on full hits,
    /// writes on downloads).
    pub l2_local_bytes: u64,
    /// TLB lookups (one per L1 miss when a TLB is modelled).
    pub tlb_accesses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// Host-transfer re-attempts beyond each first try (fault injection).
    pub retries: u64,
    /// Host transfers that exhausted their retry budget.
    pub failed_transfers: u64,
    /// Taps whose download failed but that were served from the nearest
    /// coarser mip level resident in L2 (graceful degradation).
    pub degraded_taps: u64,
    /// Taps lost entirely: the download failed and no coarser-mip data was
    /// available (always the case in the pull architecture, which has no
    /// L2 to fall back on).
    pub dropped_taps: u64,
}

impl FrameCounters {
    /// L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        rate(self.l1_hits, self.l1_accesses)
    }

    /// L1 miss rate (0.0 when no accesses happened, like every other rate).
    pub fn l1_miss_rate(&self) -> f64 {
        rate(self.l1_accesses - self.l1_hits, self.l1_accesses)
    }

    /// L2 full-hit rate given an L1 miss.
    pub fn l2_full_hit_rate(&self) -> f64 {
        rate(self.l2_full_hits, self.l2_accesses())
    }

    /// L2 partial-hit rate given an L1 miss.
    pub fn l2_partial_hit_rate(&self) -> f64 {
        rate(self.l2_partial_hits, self.l2_accesses())
    }

    /// L1 misses presented to the L2.
    pub fn l2_accesses(&self) -> u64 {
        self.l2_full_hits + self.l2_partial_hits + self.l2_full_misses
    }

    /// TLB hit rate.
    pub fn tlb_hit_rate(&self) -> f64 {
        rate(self.tlb_hits, self.tlb_accesses)
    }

    /// Host download traffic in megabytes.
    pub fn host_mb(&self) -> f64 {
        self.host_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Accumulates another frame's counters.
    pub fn merge(&mut self, o: &FrameCounters) {
        self.l1_accesses += o.l1_accesses;
        self.l1_hits += o.l1_hits;
        self.l2_full_hits += o.l2_full_hits;
        self.l2_partial_hits += o.l2_partial_hits;
        self.l2_full_misses += o.l2_full_misses;
        self.host_bytes += o.host_bytes;
        self.l2_local_bytes += o.l2_local_bytes;
        self.tlb_accesses += o.tlb_accesses;
        self.tlb_hits += o.tlb_hits;
        self.retries += o.retries;
        self.failed_transfers += o.failed_transfers;
        self.degraded_taps += o.degraded_taps;
        self.dropped_taps += o.dropped_taps;
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What happened to a single texel access, step by step.
///
/// Returned by [`SimEngine::access_texel_traced`] so an external reference
/// model (`mltc-oracle`) can compare the engine's decisions in lockstep:
/// classification at every level, the physical L2 block involved, the
/// eviction victim (if any) and the bytes that crossed the host link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTrace {
    /// The access hit in L1 (nothing below L1 was consulted).
    pub l1_hit: bool,
    /// TLB outcome; `None` when no TLB is modelled or L1 hit.
    pub tlb_hit: Option<bool>,
    /// L2 classification; `None` without an L2 or on an L1 hit.
    pub l2: Option<L2Outcome>,
    /// Physical L2 block that served (or was allocated for) the access.
    pub l2_block: Option<u32>,
    /// Page-table index whose block was evicted to make room, if the access
    /// caused a replacement.
    pub evicted_page: Option<u32>,
    /// Bytes actually delivered over the host link by this access.
    pub host_bytes: u64,
    /// Host-link re-attempts beyond the first try.
    pub retries: u32,
    /// The host transfer exhausted its retry budget.
    pub failed: bool,
    /// Failed tap served from a coarser resident mip level.
    pub degraded: bool,
    /// Failed tap lost entirely.
    pub dropped: bool,
}

/// Per-texture mip-chain dimensions of `registry`, indexed by texture id
/// (`None` where an id was issued but its texture is gone): what filter
/// expansion and the degraded-mip probe read instead of the registry.
fn mip_dims(registry: &TextureRegistry) -> Vec<Option<Vec<(u32, u32)>>> {
    let mut dims = vec![None; registry.issued_count()];
    for (tid, pyr) in registry.iter() {
        dims[tid.index() as usize] = Some(pyr.iter().map(|l| (l.width(), l.height())).collect());
    }
    dims
}

/// The simulator: one architecture configuration replaying texel accesses.
///
/// Control flow per texel (the paper's Fig. 7): compute the virtual block
/// address (step A); probe L1 (B); on a miss consult the page table —
/// through the TLB when modelled — and either serve from L2 (C/D), download
/// the missing L1 sub-block from host into L2 and L1 in parallel (F), or
/// run block replacement first (E). Without an L2, every L1 miss downloads
/// an L1 tile from host memory (pull architecture).
#[derive(Debug)]
pub struct SimEngine {
    cfg: EngineConfig,
    layout: PageTableLayout,
    /// Per-tid mip dims for filter expansion (`None` = deleted texture).
    dims: Vec<Option<Vec<(u32, u32)>>>,
    l1: L1TextureCache,
    l2: Option<L2Cache>,
    tlb: Option<RoundRobinTlb>,
    host: HostLink,
    current: FrameCounters,
    frames: Vec<FrameCounters>,
    /// Telemetry handles; `None` (detached) selects the `TelOff` sink —
    /// once per replay call, once per access through
    /// [`access_texel`](Self::access_texel) — under which the tap body
    /// carries no telemetry code at all.
    tel: Option<Box<EngineTelemetry>>,
    /// Timing overlay; `None` (detached) keeps the replay paths free of
    /// timing work entirely (attached, the frame loops run under the
    /// observing sink, whose event log the timing consumer replays into it
    /// — other instantiations carry no timing code). Timing observes the behavioral access stream and
    /// never mutates cache state, so behavioral results are bit-identical
    /// with and without it.
    timing: Option<Box<TimingSim>>,
}

impl SimEngine {
    /// Builds an engine for the textures of `registry`.
    ///
    /// # Panics
    ///
    /// Panics on any error [`try_new`](Self::try_new) would report.
    pub fn new(cfg: EngineConfig, registry: &TextureRegistry) -> Self {
        Self::try_new(cfg, registry).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an engine for the textures of `registry`, reporting invalid
    /// configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidGeometry`] for an L1 with zero ways, zero
    /// sets or a non-power-of-two set count, or an L2 smaller than one
    /// block; [`EngineError::EmptyPageTable`] when an L2 is configured but
    /// the registry holds no textures.
    pub fn try_new(cfg: EngineConfig, registry: &TextureRegistry) -> Result<Self, EngineError> {
        Self::try_build(cfg, registry, true)
    }

    /// [`try_new`](Self::try_new); without `own_l2` the engine builds no
    /// L2 even when `cfg` has one, and its multi-level replays borrow one
    /// per frame (a unified service client, [`hierarchy`](Self::hierarchy)).
    pub(crate) fn try_build(
        cfg: EngineConfig,
        registry: &TextureRegistry,
        own_l2: bool,
    ) -> Result<Self, EngineError> {
        cfg.validate_geometry()?;
        let layout = PageTableLayout::new(registry, cfg.tiling);
        if cfg.l2.is_some() && layout.entry_count() == 0 {
            return Err(EngineError::EmptyPageTable);
        }
        Ok(Self::over(cfg, layout, mip_dims(registry), own_l2))
    }

    /// A fresh engine over this one's textures and configuration but for
    /// its fault plan: what [`try_build`](Self::try_build) builds from the
    /// registry this engine was built from (a service client, derived from
    /// the service's template).
    pub(crate) fn sibling(&self, fault: FaultPlan, own_l2: bool) -> Self {
        let cfg = EngineConfig { fault, ..self.cfg };
        Self::over(cfg, self.layout.clone(), self.dims.clone(), own_l2)
    }

    fn over(
        cfg: EngineConfig,
        layout: PageTableLayout,
        dims: Vec<Option<Vec<(u32, u32)>>>,
        own_l2: bool,
    ) -> Self {
        let l2 = cfg
            .l2
            .filter(|_| own_l2)
            .map(|c| L2Cache::new(c, cfg.tiling, layout.entry_count()));
        let tlb = (cfg.tlb_entries > 0).then(|| RoundRobinTlb::new(cfg.tlb_entries));
        Self {
            cfg,
            layout,
            dims,
            l1: L1TextureCache::new(cfg.l1),
            l2,
            tlb,
            host: HostLink::new(cfg.fault),
            current: FrameCounters::default(),
            frames: Vec::new(),
            tel: None,
            timing: None,
        }
    }

    /// Hands this engine's L2 out (the service's unified cache is built
    /// here, by the constructor every other L2 comes from).
    pub(crate) fn take_l2(&mut self) -> Option<L2Cache> {
        self.l2.take()
    }

    /// The configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Attaches telemetry handles registered on `recorder`: outcome
    /// counters and histograms under `group` (one namespace per workload,
    /// merged across configurations) and a per-frame time series under
    /// `label` (unique per run). A disabled recorder detaches — the engine
    /// then replays through the telemetry-off instantiation of its loops,
    /// and counters are bit-identical either way because telemetry only
    /// observes.
    pub fn attach_telemetry(&mut self, recorder: &Recorder, label: &str, group: &str) {
        self.attach_telemetry_opts(recorder, label, group, TelemetryOpts::default());
    }

    /// [`attach_telemetry`](Self::attach_telemetry) with options. With
    /// [`TelemetryOpts::attribution`] set, the engine additionally
    /// registers 3C miss classifiers (shadow fully-associative LRU per
    /// level), per-set/per-page heat maps and eviction-cause counters
    /// under `attrib/{group}/…`. Attribution observes the miss stream
    /// only, so engine counters — and the attribution counters
    /// themselves — are bit-identical across the traced, fast, batched
    /// and prepared replay paths (all misses flow through the scalar tap
    /// body; batched all-hit commits record no misses).
    pub fn attach_telemetry_opts(
        &mut self,
        recorder: &Recorder,
        label: &str,
        group: &str,
        opts: TelemetryOpts,
    ) {
        self.tel = recorder.is_enabled().then(|| {
            let mut tel = EngineTelemetry::new(recorder, label, group);
            if opts.attribution {
                let params = AttributionParams::of(&self.cfg, self.l1.address_map());
                tel.enable_attribution(recorder, group, params);
            }
            if opts.locality {
                let tile_shift = self.cfg.l1.tile.shift();
                let defaults = mltc_model::CaptureConfig::default();
                tel.enable_locality(mltc_model::CaptureConfig {
                    tile_shift,
                    l1_line_bytes: self.cfg.l1.line_bytes() as u64,
                    l1_lines: self.cfg.l1.lines() as u64,
                    l1_ways: self.cfg.l1.ways as u64,
                    // The paper's L2 tile range, constrained to what the
                    // sector mask can hold for this L1 tile.
                    page_shifts: (tile_shift + 1..=tile_shift + 3)
                        .filter(|&s| (3..=5).contains(&s))
                        .collect(),
                    ..defaults
                });
            }
            Box::new(tel)
        });
    }

    /// Whether telemetry is currently attached (i.e. recording).
    pub fn telemetry_attached(&self) -> bool {
        self.tel.is_some()
    }

    /// Finalizes and returns the locality profile captured so far, if
    /// [`TelemetryOpts::locality`] was set at attach time. Non-consuming:
    /// the capture keeps recording if more frames are replayed.
    pub fn locality_profile(&self) -> Option<mltc_model::LocalityProfile> {
        self.tel.as_ref().and_then(|t| t.locality_profile())
    }

    /// Attaches the non-blocking timing overlay (DESIGN.md §12): cycle
    /// accounting under `model` for every subsequent tap. Timing observes
    /// the behavioral access stream and never mutates cache state, so
    /// counters, clock hands and host bytes stay bit-identical to an
    /// untimed engine — the golden matrix and the timing conformance
    /// tests both enforce this. Frame replays feed the overlay from the
    /// wide frame loops, one lookahead fragment per pixel request
    /// ([`try_run_frame_as_traced`](Self::try_run_frame_as_traced) is the
    /// per-tap reference they are tested against); single accesses via
    /// [`access_texel_traced`](Self::access_texel_traced) count as one
    /// fragment each.
    pub fn attach_timing(&mut self, model: LatencyModel) {
        self.timing = Some(Box::new(TimingSim::new(model, self.l1.address_map())));
    }

    /// The timing overlay, when attached (cycle totals, per-frame deltas,
    /// MSHR/prefetch statistics).
    pub fn timing(&self) -> Option<&TimingSim> {
        self.timing.as_deref()
    }

    /// Whether the timing overlay is attached.
    pub fn timing_attached(&self) -> bool {
        self.timing.is_some()
    }

    /// Simulates one texel read: `(u, v)` are in-bounds texel coordinates of
    /// mip level `m` of `tid`.
    ///
    /// Host downloads go through the configured [`HostLink`]; a transfer
    /// that exhausts its retry budget is rolled back (the speculatively
    /// installed L1 line — and L2 sector, if any — is invalidated so failed
    /// data never reads as resident) and the tap is either *degraded* to
    /// the nearest coarser mip level resident in L2 or *dropped*.
    ///
    /// # Panics
    ///
    /// Panics if the texture is unknown. Out-of-range coordinates are
    /// caught in debug builds; use
    /// [`try_access_texel`](Self::try_access_texel) for untrusted input.
    #[inline]
    pub fn access_texel(&mut self, tid: TextureId, m: u32, u: u32, v: u32) {
        let _ = self.access_texel_traced(tid, m, u, v);
    }

    /// [`access_texel`](Self::access_texel), additionally reporting what
    /// happened as an [`AccessTrace`] (counters are updated identically —
    /// the plain form merely discards the trace). This is the lockstep
    /// introspection hook the differential oracle compares against: the
    /// levels and the observers are chosen per call, and the tap runs
    /// through the one tap body every replay loop shares, under a trace
    /// sink.
    ///
    /// With timing attached, each access observed here is one fragment of
    /// the lookahead window (the differential harness feeds accesses one
    /// at a time, so per-access fragments keep its stream semantics).
    pub fn access_texel_traced(&mut self, tid: TextureId, m: u32, u: u32, v: u32) -> AccessTrace {
        let trace = self.tap_traced(tid, m, u, v);
        if let Some(t) = &mut self.timing {
            t.open_fragment();
            t.observe(tid, m, u, v, &trace);
        }
        trace
    }

    /// Everything [`access_texel_traced`](Self::access_texel_traced) does
    /// *except* feeding the timing overlay (callers group taps into
    /// fragments themselves): the tap under the trace sink, and its
    /// outcome straight to the telemetry, inline.
    fn tap_traced(&mut self, tid: TextureId, m: u32, u: u32, v: u32) -> AccessTrace {
        let (h, tel, _) = self.hierarchy(None);
        let Some((trace, probe)) = h.replay_under(TelOff, OneTap { tid, m, u, v }) else {
            return AccessTrace::default();
        };
        if let Some(tel) = tel {
            let mut obs = Observers::of(tel);
            obs.tap(tid, m, u, v, &trace, probe.as_ref());
            obs.publish();
        }
        trace
    }

    /// The hierarchy, borrowed for one replay, beside the two observers
    /// that decide its sink. `borrowed` stands in for the engine's own L2
    /// when it has none (a unified service client's frame); telemetry then
    /// counts clock sweeps from the borrowed L2's stats as they stand.
    pub(crate) fn hierarchy<'a>(
        &'a mut self,
        borrowed: Option<&'a mut L2Cache>,
    ) -> (
        Hierarchy<'a>,
        Option<&'a mut EngineTelemetry>,
        Option<&'a mut TimingSim>,
    ) {
        if let (Some(l2), Some(tel)) = (&borrowed, &mut self.tel) {
            tel.rebase(l2.clock_stats());
        }
        let h = Hierarchy {
            cfg: &self.cfg,
            tables: self.layout.tables(),
            dims: &self.dims,
            l1: &mut self.l1,
            l2: borrowed.or(self.l2.as_mut()),
            tlb: self.tlb.as_mut(),
            host: &mut self.host,
            current: &mut self.current,
        };
        (h, self.tel.as_deref_mut(), self.timing.as_deref_mut())
    }

    /// [`access_texel`](Self::access_texel) with full validation: unknown
    /// textures, missing mip levels and out-of-range coordinates are
    /// reported as errors (in release builds too) instead of panicking.
    pub fn try_access_texel(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
    ) -> Result<(), EngineError> {
        let dims = self
            .dims
            .get(tid.index() as usize)
            .and_then(|d| d.as_ref())
            .ok_or(EngineError::UnknownTexture(tid))?;
        let (width, height) = dims.get(m as usize).copied().unwrap_or((0, 0));
        if u >= width || v >= height {
            return Err(EngineError::CoordsOutOfRange {
                tid,
                m,
                u,
                v,
                width,
                height,
            });
        }
        self.access_texel(tid, m, u, v);
        Ok(())
    }

    /// Replays a whole frame trace (expanding each pixel request through the
    /// trace's filter mode) and closes the frame.
    ///
    /// # Panics
    ///
    /// Panics if the trace references a texture unknown to the engine.
    pub fn run_frame(&mut self, trace: &FrameTrace) {
        self.try_run_frame(trace).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_frame`](Self::run_frame), reporting unknown textures as
    /// [`EngineError::UnknownTexture`] instead of panicking.
    ///
    /// # Errors
    ///
    /// On error the frame is left open: taps replayed before the offending
    /// request stay in the current (unclosed) frame's counters and
    /// [`end_frame`](Self::end_frame) has not run.
    pub fn try_run_frame(&mut self, trace: &FrameTrace) -> Result<(), EngineError> {
        self.try_run_frame_as(trace, trace.filter)
    }

    /// [`try_run_frame`](Self::try_run_frame) with the filter mode
    /// overridden.
    ///
    /// A recorded request stream is filter-independent — the rasterizer
    /// emits one request per textured fragment regardless of filtering, and
    /// tap expansion happens here — so one canonical (point-filtered) trace
    /// can be replayed as bilinear or trilinear without re-rendering. This
    /// is what lets the experiment suite's trace store key traces without
    /// the filter.
    ///
    /// This is the scalar frame loop: the levels and the observers
    /// [`access_texel_traced`](Self::access_texel_traced) chooses per tap
    /// are chosen once here and the loop runs monomorphized over them. The
    /// entry is not generic, so callers in other crates share this crate's
    /// copy of the loop.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_frame`](Self::try_run_frame).
    pub fn try_run_frame_as(
        &mut self,
        trace: &FrameTrace,
        filter: FilterMode,
    ) -> Result<(), EngineError> {
        if self.timing.is_some() {
            // The wide loop is the one timed frame loop; behaviourally it
            // is bit-identical to the scalar loop.
            return self.replay_frame_batched(filter, &trace.requests);
        }
        let requests = trace.requests.iter().copied();
        let (h, tel, _) = self.hierarchy(None);
        h.replay(tel, None, ScalarFrame { filter, requests })?;
        self.end_frame();
        Ok(())
    }

    /// [`try_run_frame_as`](Self::try_run_frame_as) routed tap-by-tap
    /// through the per-access entry. Counters, cache state and telemetry
    /// are bit-identical to the frame loops — the golden replay tests
    /// assert exactly that on every committed trace.
    ///
    /// With timing attached this is also the overlay's per-tap reference:
    /// each request opens one lookahead fragment and every tap is observed
    /// on its own, the stream the wide loops' timing consumer must
    /// reproduce cycle for cycle.
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_frame`](Self::try_run_frame).
    pub fn try_run_frame_as_traced(
        &mut self,
        trace: &FrameTrace,
        filter: FilterMode,
    ) -> Result<(), EngineError> {
        for req in &trace.requests {
            let dims = self
                .dims
                .get(req.tid.index() as usize)
                .and_then(|d| d.as_ref())
                .ok_or(EngineError::UnknownTexture(req.tid))?;
            let levels = dims.len() as u32;
            let taps = filter_taps(req, filter, levels, |m| dims[m as usize]);
            if let Some(t) = &mut self.timing {
                t.open_fragment();
            }
            for tap in &taps {
                let trace = self.tap_traced(req.tid, tap.m, tap.u, tap.v);
                if let Some(t) = &mut self.timing {
                    t.observe(req.tid, tap.m, tap.u, tap.v, &trace);
                }
            }
        }
        self.end_frame();
        Ok(())
    }

    /// [`try_run_frame_as`](Self::try_run_frame_as) routed through the
    /// wide (batched) tap kernel: each request's taps probe the L1 as one
    /// lane batch and commit wide when they all hit, falling through to
    /// the tap body otherwise — bit-identical by construction and by test
    /// (see `crate::batch`).
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_frame`](Self::try_run_frame).
    pub fn try_run_frame_as_batched(
        &mut self,
        trace: &FrameTrace,
        filter: FilterMode,
    ) -> Result<(), EngineError> {
        self.replay_frame_batched(filter, &trace.requests)
    }

    /// Whether `self` and `other` may share one [`L1Pass`]: one of them
    /// records it and the other replays it
    /// ([`replay_pass_frame`](Self::replay_pass_frame)). Their L1s see the
    /// same taps and nothing below either L1 can reach back up into it.
    /// That takes equal L1 geometry and tiling over the same textures, a
    /// fault-free host link on both (a failed download rolls its L1 line
    /// back, so L1 state would depend on the link), and neither telemetry
    /// nor timing attached: a member replaying the pass sees only the
    /// leader's L1 misses, while telemetry records L1 hits too and the
    /// timing overlay needs every fragment and every hit's tag (a hit on
    /// a line whose fill is still in flight waits). The textures must also
    /// be ones whose every miss packs into a pass's word, so a recording
    /// leader never meets a miss it cannot keep.
    pub fn shares_l1_with(&self, other: &SimEngine) -> bool {
        self.l1_stands_alone()
            && other.l1_stands_alone()
            && self.cfg.l1 == other.cfg.l1
            && self.cfg.tiling == other.cfg.tiling
            && self.dims == other.dims
            && l1pass::packs_every_miss(&self.dims)
    }

    /// The per-engine half of [`shares_l1_with`](Self::shares_l1_with):
    /// a fault-free link, so nothing below the L1 reaches back up into it,
    /// and neither telemetry nor timing watching its hits.
    fn l1_stands_alone(&self) -> bool {
        self.cfg.fault.is_none() && self.tel.is_none() && self.timing.is_none()
    }

    /// Replays a frame decoded off-engine by [`FramePrep`](crate::FramePrep)
    /// through the wide frame loop of
    /// [`try_run_frame_as_batched`](Self::try_run_frame_as_batched).
    ///
    /// # Errors
    ///
    /// Same contract as [`try_run_frame`](Self::try_run_frame).
    pub fn try_run_frame_prepared(&mut self, prepared: &PreparedFrame) -> Result<(), EngineError> {
        self.replay_frame_batched(prepared.filter, &prepared.requests)
    }

    /// The wide-path frame replay over this engine's own levels, every tap
    /// admitted, under the observing sink when telemetry or the overlay is
    /// attached.
    fn replay_frame_batched(
        &mut self,
        filter: FilterMode,
        requests: &[PixelRequest],
    ) -> Result<(), EngineError> {
        let (h, tel, timing) = self.hierarchy(None);
        let frame = WideFrame {
            filter,
            requests: requests.iter().copied(),
            ad: AdmitAll,
        };
        h.replay(tel, timing, frame)?;
        self.end_frame();
        Ok(())
    }

    /// Closes the current frame: pushes its counters and starts a new one.
    /// With timing attached, the frame boundary flushes the lookahead
    /// window (fills must land before the frame's cycle count closes) and
    /// records the frame's timing delta.
    pub fn end_frame(&mut self) {
        if let Some(t) = &mut self.timing {
            t.end_frame();
        }
        if let Some(tel) = &mut self.tel {
            tel.on_frame_end(self.frames.len() as u64, &self.current);
        }
        self.frames.push(self.current);
        self.current = FrameCounters::default();
    }

    /// Counters of the most recently completed frame.
    ///
    /// # Panics
    ///
    /// Panics if no frame has been completed yet.
    pub fn frame_stats(&self) -> &FrameCounters {
        self.frames.last().expect("no completed frames")
    }

    /// Per-frame counters for all completed frames.
    pub fn frames(&self) -> &[FrameCounters] {
        &self.frames
    }

    /// Sum of all completed frames.
    pub fn totals(&self) -> FrameCounters {
        let mut t = FrameCounters::default();
        for f in &self.frames {
            t.merge(f);
        }
        t
    }

    /// The L1 cache (for hit statistics and line-level state comparison).
    pub fn l1(&self) -> &L1TextureCache {
        &self.l1
    }

    /// The L2 cache, when configured (for clock statistics etc.).
    pub fn l2(&self) -> Option<&L2Cache> {
        self.l2.as_ref()
    }

    /// The host download link (for fault-injection statistics).
    pub fn host(&self) -> &HostLink {
        &self.host
    }

    /// Deletes a texture mid-run: deallocates its page-table entries and
    /// releases its L2 blocks. (L1 lines age out naturally; the design is
    /// non-inclusive.)
    pub fn delete_texture(&mut self, tid: TextureId) {
        if let (Some(l2), Some(tstart), Some(tlen)) =
            (&mut self.l2, self.layout.tstart(tid), self.layout.tlen(tid))
        {
            l2.deallocate_texture(tstart, tlen);
        }
    }
}

// ---------------------------------------------------------------------------
// The replay loops.
//
// `access_texel_traced` above chooses the levels (`Option<L2Cache>`,
// `Option<Tlb>`) and the observers (telemetry, the trace) per texel. The
// replay entry points choose them once per call — `Hierarchy` in
// `crate::tap` is the one place that happens — and instantiate one loop
// per combination. Each loop shape below is written once, as a `Replay`
// generic over the architecture and the sink; the wide frame loop, which
// the prepared entry runs too, lives in `crate::batch`. All of them, and the
// multi-client service layer, drive the one tap body (`Levels::tap`), so
// counters, cache state, host-link draws and telemetry are bit-identical
// across entries (the differential oracle and the golden trace tests
// enforce this).
// ---------------------------------------------------------------------------

/// One tap under the trace sink, whatever sink it is handed: the
/// per-access entry. Its outcome and L2 probe, `None` for a shed tap.
struct OneTap {
    tid: TextureId,
    m: u32,
    u: u32,
    v: u32,
}

impl Replay for OneTap {
    type Out = Option<(AccessTrace, Option<L2Probe>)>;

    fn run<Lv: Levels, Te: TelemetryMode>(
        self,
        mut lv: Lv,
        _tel: Te,
        _dims: &MipDims,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
    ) -> Self::Out {
        let Self { tid, m, u, v } = self;
        let mut tel = Traced::default();
        tel.before_taps(current);
        lv.tap(tid, m, u, v, l1, host, current, &mut tel, &mut AdmitAll);
        tel.after_tap(tid, m, u, v, current);
        tel.tap
    }
}

/// The scalar frame loop: every request expanded through the filter and
/// replayed tap by tap. A loop of its own beside the wide one because it is
/// what the wide loop is measured against (`engine.batched_over_scalar`).
/// The frame stays open.
struct ScalarFrame<I> {
    filter: FilterMode,
    requests: I,
}

impl<I: IntoIterator<Item = PixelRequest>> Replay for ScalarFrame<I> {
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
        let requests = self.requests;
        match self.filter {
            FilterMode::Point => {
                scalar_frame_loop::<0, _, _, _>(requests, lv, tel, dims, l1, host, current)
            }
            FilterMode::Bilinear => {
                scalar_frame_loop::<1, _, _, _>(requests, lv, tel, dims, l1, host, current)
            }
            FilterMode::Trilinear => {
                scalar_frame_loop::<2, _, _, _>(requests, lv, tel, dims, l1, host, current)
            }
        }
    }
}

/// [`ScalarFrame`] with the filter a constant (`F`: 0 = point, 1 =
/// bilinear, 2 = trilinear), so the million-tap loop carries no dynamic
/// branches.
fn scalar_frame_loop<const F: u8, I, Lv, Te>(
    requests: I,
    mut lv: Lv,
    mut tel: Te,
    dims: &MipDims,
    l1: &mut L1TextureCache,
    host: &mut HostLink,
    current: &mut FrameCounters,
) -> Result<(), EngineError>
where
    I: IntoIterator<Item = PixelRequest>,
    Lv: Levels,
    Te: TelemetryMode,
{
    for req in requests {
        let d = dims
            .get(req.tid.index() as usize)
            .and_then(|d| d.as_ref())
            .ok_or(EngineError::UnknownTexture(req.tid))?;
        let levels = d.len() as u32;
        let taps = filter_taps(&req, const_filter::<F>(), levels, |m| d[m as usize]);
        tel.before_taps(current);
        for tap in &taps {
            let (tid, m, u, v) = (req.tid, tap.m, tap.u, tap.v);
            lv.tap(tid, m, u, v, l1, host, current, &mut tel, &mut AdmitAll);
            tel.after_tap(tid, m, u, v, current);
        }
    }
    Ok(())
}

/// The below-L1 loop of [`SimEngine::replay_pass_frame`]: a pass's L1
/// misses, in order, through everything below the engine's L1.
struct Misses<I>(I);

impl<I: Iterator<Item = L1Miss>> Replay for Misses<I> {
    type Out = ();

    fn run<Lv: Levels, Te: TelemetryMode>(
        self,
        mut lv: Lv,
        mut tel: Te,
        _dims: &MipDims,
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
    ) {
        // Internal iteration: a stored pass's misses are a `flat_map` over
        // texture runs, which `for_each` walks as the nested loops it is.
        self.0.for_each(|(tid, m, u, v)| {
            let tid = TextureId::from_index(tid);
            lv.below_l1(tid, m, u, v, l1, host, current, &mut tel, &mut AdmitAll);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FramePrep, TextureBlackout};
    use mltc_texture::{synth, MipPyramid};
    use mltc_trace::{FilterMode, PixelRequest};

    pub(super) fn registry(n: usize, dim: u32) -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        for i in 0..n {
            reg.load(
                format!("t{i}"),
                MipPyramid::from_image(synth::checkerboard(dim, 4, [0; 3], [255; 3])),
            );
        }
        reg
    }

    fn sweep(engine: &mut SimEngine, tid: TextureId, dim: u32) {
        for v in 0..dim {
            for u in 0..dim {
                engine.access_texel(tid, 0, u, v);
            }
        }
        engine.end_frame();
    }

    #[test]
    fn pull_downloads_every_l1_miss() {
        let reg = registry(1, 64);
        let mut e = SimEngine::new(
            EngineConfig {
                l1: L1Config::kb(2),
                ..EngineConfig::default()
            },
            &reg,
        );
        sweep(&mut e, TextureId::from_index(0), 64);
        let f = e.frame_stats();
        assert_eq!(f.l1_accesses, 64 * 64);
        let misses = f.l1_accesses - f.l1_hits;
        assert_eq!(f.host_bytes, misses * 64);
        assert_eq!(f.l2_accesses(), 0);
        assert_eq!(f.l2_local_bytes, 0);
    }

    #[test]
    fn l2_absorbs_interframe_reuse() {
        let reg = registry(1, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        sweep(&mut e, TextureId::from_index(0), 128);
        sweep(&mut e, TextureId::from_index(0), 128);
        let first = e.frames()[0];
        let second = e.frames()[1];
        assert!(first.host_bytes > 0);
        assert_eq!(second.host_bytes, 0, "second frame served entirely from L2");
        assert!(second.l2_full_hit_rate() > 0.999);
        assert!(second.l2_local_bytes > 0);
    }

    #[test]
    fn partial_hits_download_sub_blocks_on_demand() {
        let reg = registry(1, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        // Touch one texel per L2 block: full misses only.
        for by in 0..4u32 {
            for bx in 0..4u32 {
                e.access_texel(TextureId::from_index(0), 0, bx * 16, by * 16);
            }
        }
        e.end_frame();
        let f1 = e.frames()[0];
        assert_eq!(f1.l2_full_misses, 16);
        assert_eq!(f1.l2_partial_hits, 0);
        // Now touch a different sub-block of each: partial hits.
        for by in 0..4u32 {
            for bx in 0..4u32 {
                e.access_texel(TextureId::from_index(0), 0, bx * 16 + 8, by * 16 + 8);
            }
        }
        e.end_frame();
        let f2 = e.frames()[1];
        assert_eq!(f2.l2_partial_hits, 16);
        assert_eq!(f2.l2_full_misses, 0);
        assert_eq!(f2.host_bytes, 16 * 64);
    }

    #[test]
    fn without_sector_mapping_misses_cost_whole_blocks() {
        let reg = registry(1, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config {
                sector_mapping: false,
                ..L2Config::mb(2)
            }),
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        e.access_texel(TextureId::from_index(0), 0, 0, 0);
        e.end_frame();
        assert_eq!(
            e.frame_stats().host_bytes,
            1024,
            "full 16x16x4B block downloaded"
        );
    }

    #[test]
    fn tlb_counters_track_l1_misses() {
        let reg = registry(2, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 2,
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        sweep(&mut e, TextureId::from_index(0), 64);
        let f = e.frame_stats();
        let misses = f.l1_accesses - f.l1_hits;
        assert_eq!(f.tlb_accesses, misses);
        assert!(f.tlb_hits <= f.tlb_accesses);
        assert!(f.tlb_hits > 0, "sequential blocks re-hit the TLB");
    }

    #[test]
    fn run_frame_expands_filter_footprints() {
        let reg = registry(1, 64);
        let mut e = SimEngine::new(EngineConfig::default(), &reg);
        let mut t = FrameTrace::new(0, 8, 8, FilterMode::Trilinear);
        t.push(PixelRequest {
            tid: TextureId::from_index(0),
            u: 8.0,
            v: 8.0,
            lod: 0.5,
        });
        e.run_frame(&t);
        assert_eq!(e.frame_stats().l1_accesses, 8, "trilinear = 8 taps");
    }

    /// Deterministic synthetic frame: 3 textures, drifting coordinates,
    /// lod sweep over several mip levels — enough working set to force a
    /// healthy mix of L1 hits, misses, L2 traffic and (with a fault plan)
    /// failed-transfer rollbacks.
    pub(super) fn wavy_trace(frame: u32) -> FrameTrace {
        let mut t = FrameTrace::new(frame, 64, 64, FilterMode::Point);
        for i in 0..2000u32 {
            t.push(PixelRequest {
                tid: TextureId::from_index(i % 3),
                u: ((i * 13 + frame * 7) % 512) as f32 * 0.25,
                v: ((i * 29 + frame * 3) % 512) as f32 * 0.25,
                lod: (i % 40) as f32 / 10.0,
            });
        }
        t
    }

    #[test]
    fn batched_and_prepared_paths_match_scalar_bit_for_bit() {
        let reg = registry(3, 128);
        let configs = [
            EngineConfig {
                l1: L1Config::kb(2),
                ..EngineConfig::default()
            },
            EngineConfig {
                l1: L1Config::kb(2),
                l2: Some(L2Config::mb(2)),
                tlb_entries: 4,
                ..EngineConfig::default()
            },
            EngineConfig {
                l1: L1Config::kb(2),
                l2: Some(L2Config::mb(2)),
                fault: FaultPlan::with_rate(99, 100_000), // 10 % failures
                ..EngineConfig::default()
            },
        ];
        for cfg in configs {
            for filter in [
                FilterMode::Point,
                FilterMode::Bilinear,
                FilterMode::Trilinear,
            ] {
                let mut scalar = SimEngine::new(cfg, &reg);
                let mut batched = SimEngine::new(cfg, &reg);
                let mut pipelined = SimEngine::new(cfg, &reg);
                let prep = FramePrep::new(&cfg, &reg);
                let mut pf = PreparedFrame::default();
                for f in 0..3 {
                    let trace = wavy_trace(f);
                    scalar.try_run_frame_as(&trace, filter).unwrap();
                    batched.try_run_frame_as_batched(&trace, filter).unwrap();
                    prep.prepare(filter, trace.requests.iter().copied(), &mut pf);
                    pipelined.try_run_frame_prepared(&pf).unwrap();
                }
                let label = format!("{} / {filter}", cfg.label());
                assert!(
                    scalar.totals().l1_hits > 0
                        && scalar.totals().l1_hits < scalar.totals().l1_accesses,
                    "{label}: stream must mix hits and misses to exercise both paths"
                );
                assert_eq!(scalar.frames(), batched.frames(), "{label}: batched");
                assert_eq!(scalar.frames(), pipelined.frames(), "{label}: prepared");
                assert_eq!(scalar.host().transfers(), batched.host().transfers());
                assert_eq!(scalar.host().transfers(), pipelined.host().transfers());
            }
        }
    }

    #[test]
    fn batched_and_prepared_error_contract_matches_scalar() {
        let reg = registry(1, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        // Second request names an unknown texture: the first request's
        // taps must stay in the open frame on every path.
        let mut t = FrameTrace::new(0, 8, 8, FilterMode::Point);
        for tid in [0u32, 7, 0] {
            t.push(PixelRequest {
                tid: TextureId::from_index(tid),
                u: 1.0,
                v: 1.0,
                lod: 0.0,
            });
        }
        let expect = EngineError::UnknownTexture(TextureId::from_index(7));

        let mut scalar = SimEngine::new(cfg, &reg);
        assert_eq!(
            scalar.try_run_frame_as(&t, FilterMode::Bilinear),
            Err(expect.clone())
        );
        let mut batched = SimEngine::new(cfg, &reg);
        assert_eq!(
            batched.try_run_frame_as_batched(&t, FilterMode::Bilinear),
            Err(expect.clone())
        );
        let prep = FramePrep::new(&cfg, &reg);
        let mut pf = PreparedFrame::default();
        prep.prepare(FilterMode::Bilinear, t.requests.iter().copied(), &mut pf);
        let mut pipelined = SimEngine::new(cfg, &reg);
        assert_eq!(pipelined.try_run_frame_prepared(&pf), Err(expect));

        assert_eq!(scalar.frames().len(), 0, "frame must be left open");
        for e in [&mut batched, &mut pipelined] {
            assert_eq!(e.frames().len(), 0, "frame must be left open");
        }
        scalar.end_frame();
        batched.end_frame();
        pipelined.end_frame();
        assert_eq!(scalar.frames(), batched.frames());
        assert_eq!(scalar.frames(), pipelined.frames());
        assert_eq!(scalar.frame_stats().l1_accesses, 4, "one bilinear request");
    }

    #[test]
    fn prepared_path_exports_what_the_batched_path_exports() {
        use mltc_telemetry::export::summaries_json;
        let reg = registry(3, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 4,
            ..EngineConfig::default()
        };
        let opts = TelemetryOpts {
            attribution: true,
            locality: true,
        };
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            let (rec_b, rec_p) = (Recorder::enabled(), Recorder::enabled());
            let mut batched = SimEngine::new(cfg, &reg);
            let mut prepared = SimEngine::new(cfg, &reg);
            batched.attach_telemetry_opts(&rec_b, "run", "g", opts);
            prepared.attach_telemetry_opts(&rec_p, "run", "g", opts);
            let prep = FramePrep::new(&cfg, &reg);
            let mut pf = PreparedFrame::default();
            for f in 0..3 {
                let trace = wavy_trace(f);
                batched.try_run_frame_as_batched(&trace, filter).unwrap();
                prep.prepare(filter, trace.requests.iter().copied(), &mut pf);
                prepared.try_run_frame_prepared(&pf).unwrap();
            }
            let (b, p) = (rec_b.snapshot(), rec_p.snapshot());
            // Fast-path efficacy included: both entries run one loop.
            if filter != FilterMode::Point {
                let wide = |name: &str| b.counters[&format!("engine/g/{name}")];
                assert!(
                    wide("wide_commits") > 0 && wide("wide_declines") > 0,
                    "{filter}: the stream must commit and decline fragments"
                );
            }
            assert_eq!(
                summaries_json(&p),
                summaries_json(&b),
                "{filter}: summaries"
            );
            assert_eq!(p.series, b.series, "{filter}: per-frame series");
            assert_eq!(
                prepared.locality_profile().map(|l| l.to_json()),
                batched.locality_profile().map(|l| l.to_json()),
                "{filter}: locality profile"
            );
        }
    }

    /// Configurations that all sit on a 2 KB L1: pull, multi-level with
    /// and without TLB, every replacement policy, sectors on and off.
    pub(super) fn shared_l1_configs() -> Vec<EngineConfig> {
        let base = EngineConfig {
            l1: L1Config::kb(2),
            ..EngineConfig::default()
        };
        let ml = |size_bytes, policy, sector_mapping, tlb_entries| EngineConfig {
            l2: Some(L2Config {
                size_bytes,
                policy,
                sector_mapping,
            }),
            tlb_entries,
            ..base
        };
        vec![
            ml(2 << 20, crate::ReplacementPolicy::Clock, true, 0),
            base,
            ml(16 << 10, crate::ReplacementPolicy::Clock, true, 4),
            ml(16 << 10, crate::ReplacementPolicy::Lru, false, 1),
            ml(32 << 10, crate::ReplacementPolicy::Fifo, true, 16),
        ]
    }

    /// Everything a replay leaves behind that a later frame could observe.
    pub(super) fn assert_same_state(a: &SimEngine, b: &SimEngine, ctx: &str) {
        assert_eq!(a.frames(), b.frames(), "{ctx}: frame counters");
        assert_eq!(
            a.l2().map(|l2| (l2.clock_hand(), l2.clock_stats())),
            b.l2().map(|l2| (l2.clock_hand(), l2.clock_stats())),
            "{ctx}: clock state"
        );
        assert_eq!(a.host().transfers(), b.host().transfers(), "{ctx}: host");
        assert!(a.l1().lines().eq(b.l1().lines()), "{ctx}: L1 contents");
    }

    #[test]
    fn faults_observers_and_other_geometry_do_not_share_an_l1() {
        let reg = registry(1, 64);
        let base = shared_l1_configs()[0];
        let plain = SimEngine::new(base, &reg);
        assert!(plain.shares_l1_with(&SimEngine::new(shared_l1_configs()[1], &reg)));
        let faulty = EngineConfig {
            fault: FaultPlan::with_rate(1, 10_000),
            ..base
        };
        let bigger = EngineConfig {
            l1: L1Config::kb(4),
            ..base
        };
        let tiled = EngineConfig {
            tiling: TilingConfig::new(mltc_texture::TileSize::X32, mltc_texture::TileSize::X4)
                .unwrap(),
            ..base
        };
        for cfg in [faulty, bigger, tiled] {
            let other = SimEngine::new(cfg, &reg);
            assert!(!plain.shares_l1_with(&other), "{cfg:?}");
            assert!(!other.shares_l1_with(&plain), "{cfg:?}");
        }
        let mut timed = SimEngine::new(base, &reg);
        timed.attach_timing(LatencyModel::default());
        assert!(!plain.shares_l1_with(&timed) && !timed.shares_l1_with(&plain));
        let mut observed = SimEngine::new(base, &reg);
        observed.attach_telemetry(&Recorder::enabled(), "observed", "test");
        assert!(!plain.shares_l1_with(&observed) && !observed.shares_l1_with(&plain));
        // Other textures expand the same requests to other taps.
        assert!(!plain.shares_l1_with(&SimEngine::new(base, &registry(2, 64))));
    }

    #[test]
    fn totals_accumulate_frames() {
        let reg = registry(1, 64);
        let mut e = SimEngine::new(EngineConfig::default(), &reg);
        sweep(&mut e, TextureId::from_index(0), 64);
        sweep(&mut e, TextureId::from_index(0), 64);
        let t = e.totals();
        assert_eq!(t.l1_accesses, 2 * 64 * 64);
        assert_eq!(e.frames().len(), 2);
    }

    #[test]
    fn delete_texture_releases_l2_blocks() {
        let reg = registry(2, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        sweep(&mut e, TextureId::from_index(0), 64);
        let used = e.l2().unwrap().blocks_in_use();
        assert!(used > 0);
        e.delete_texture(TextureId::from_index(0));
        assert_eq!(e.l2().unwrap().blocks_in_use(), 0);
    }

    #[test]
    fn try_new_reports_invalid_configs() {
        let reg = registry(1, 64);
        let empty = TextureRegistry::new();
        let ml = EngineConfig {
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        assert_eq!(
            SimEngine::try_new(ml, &empty).unwrap_err(),
            EngineError::EmptyPageTable
        );
        let bad_l1 = EngineConfig {
            l1: L1Config {
                size_bytes: 3072,
                ..L1Config::kb(2)
            },
            ..EngineConfig::default()
        };
        assert!(matches!(
            SimEngine::try_new(bad_l1, &reg).unwrap_err(),
            EngineError::InvalidGeometry(_)
        ));
        let tiny_l2 = EngineConfig {
            l2: Some(L2Config {
                size_bytes: 16,
                ..L2Config::mb(2)
            }),
            ..EngineConfig::default()
        };
        assert!(matches!(
            SimEngine::try_new(tiny_l2, &reg).unwrap_err(),
            EngineError::InvalidGeometry(_)
        ));
    }

    #[test]
    fn try_access_texel_validates_everything() {
        let reg = registry(1, 64);
        let mut e = SimEngine::try_new(EngineConfig::default(), &reg).unwrap();
        assert_eq!(
            e.try_access_texel(TextureId::from_index(9), 0, 0, 0),
            Err(EngineError::UnknownTexture(TextureId::from_index(9)))
        );
        let t = TextureId::from_index(0);
        assert_eq!(
            e.try_access_texel(t, 0, 64, 0),
            Err(EngineError::CoordsOutOfRange {
                tid: t,
                m: 0,
                u: 64,
                v: 0,
                width: 64,
                height: 64
            })
        );
        assert_eq!(
            e.try_access_texel(t, 99, 0, 0),
            Err(EngineError::CoordsOutOfRange {
                tid: t,
                m: 99,
                u: 0,
                v: 0,
                width: 0,
                height: 0
            })
        );
        assert!(e.try_access_texel(t, 0, 63, 63).is_ok());
        assert_eq!(e.current.l1_accesses, 1, "rejected accesses must not count");
    }

    #[test]
    fn no_fault_plan_is_byte_identical() {
        let reg = registry(1, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 4,
            ..EngineConfig::default()
        };
        let mut plain = SimEngine::new(cfg, &reg);
        let mut faulted = SimEngine::new(cfg, &reg); // fault = FaultPlan::none()
        sweep(&mut plain, TextureId::from_index(0), 128);
        sweep(&mut faulted, TextureId::from_index(0), 128);
        assert_eq!(plain.frame_stats(), faulted.frame_stats());
        let f = faulted.frame_stats();
        assert_eq!(
            (
                f.retries,
                f.failed_transfers,
                f.degraded_taps,
                f.dropped_taps
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn same_seed_same_counters() {
        let reg = registry(1, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            fault: FaultPlan::with_rate(99, 100_000), // 10 %
            ..EngineConfig::default()
        };
        let mut a = SimEngine::new(cfg, &reg);
        let mut b = SimEngine::new(cfg, &reg);
        sweep(&mut a, TextureId::from_index(0), 128);
        sweep(&mut b, TextureId::from_index(0), 128);
        assert_eq!(a.frame_stats(), b.frame_stats());
        assert!(
            a.frame_stats().retries > 0,
            "10 % per attempt must retry sometimes"
        );
    }

    #[test]
    fn pull_drops_taps_when_the_link_is_dead() {
        let reg = registry(1, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            fault: FaultPlan::with_rate(1, 1_000_000), // every attempt fails
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        sweep(&mut e, TextureId::from_index(0), 64);
        let f = e.frame_stats();
        assert_eq!(f.host_bytes, 0, "nothing was ever delivered");
        assert_eq!(f.l1_hits, 0, "failed lines must not read as resident");
        assert_eq!(f.failed_transfers, f.l1_accesses);
        assert_eq!(f.dropped_taps, f.l1_accesses);
        assert_eq!(f.retries, 2 * f.l1_accesses, "3 attempts = 2 retries each");
        assert_eq!(f.degraded_taps, 0, "no L2 to degrade to");
    }

    #[test]
    fn l2_degrades_to_coarser_mips_when_available() {
        let reg = registry(1, 64);
        let t = TextureId::from_index(0);
        let base = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        // Measure how many transfers warming mip level 1 takes (the
        // blackout below must start right after them). A never-firing
        // blackout keeps the link counting without injecting failures.
        let probe = TextureBlackout {
            tid: 0,
            from: u64::MAX,
            until: u64::MAX,
        };
        let mut warm = SimEngine::new(
            EngineConfig {
                fault: FaultPlan {
                    blackout: Some(probe),
                    ..FaultPlan::none()
                },
                ..base
            },
            &reg,
        );
        for v in 0..32 {
            for u in 0..32 {
                warm.access_texel(t, 1, u, v);
            }
        }
        let warm_transfers = warm.host().transfers();
        assert!(warm_transfers > 0);

        // Same warm-up, then a total blackout: every level-0 download
        // fails, and every failed tap finds its level-1 parent resident.
        let blackout = TextureBlackout {
            tid: 0,
            from: warm_transfers,
            until: u64::MAX,
        };
        let mut e = SimEngine::new(
            EngineConfig {
                fault: FaultPlan {
                    blackout: Some(blackout),
                    max_attempts: 2,
                    ..FaultPlan::none()
                },
                ..base
            },
            &reg,
        );
        for v in 0..32 {
            for u in 0..32 {
                e.access_texel(t, 1, u, v);
            }
        }
        e.end_frame();
        for v in 0..64 {
            for u in 0..64 {
                e.access_texel(t, 0, u, v);
            }
        }
        e.end_frame();
        let f = e.frames()[1];
        assert!(f.failed_transfers > 0);
        assert_eq!(
            f.degraded_taps, f.failed_transfers,
            "level 1 is fully resident"
        );
        assert_eq!(f.dropped_taps, 0);
        assert_eq!(
            f.host_bytes, 0,
            "the blackout blocks every level-0 download"
        );
        assert_eq!(
            f.retries, f.failed_transfers,
            "2 attempts = 1 retry per failure"
        );
    }

    #[test]
    fn faulty_runs_keep_cache_state_consistent() {
        // A 50 % link with retries: delivered lines hit later, failed lines
        // never read as resident, and counters reconcile.
        let reg = registry(1, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            fault: FaultPlan::with_rate(5, 500_000).attempts(1),
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        sweep(&mut e, TextureId::from_index(0), 64);
        sweep(&mut e, TextureId::from_index(0), 64);
        let t = e.totals();
        assert!(t.failed_transfers > 0);
        assert!(t.host_bytes > 0);
        assert_eq!(t.degraded_taps + t.dropped_taps, t.failed_transfers);
        assert_eq!(t.retries, 0, "a single attempt never retries");
    }

    #[test]
    fn merge_is_associative() {
        let samples = [
            FrameCounters {
                l1_accesses: 7,
                l1_hits: 3,
                l2_full_hits: 2,
                l2_partial_hits: 1,
                l2_full_misses: 1,
                host_bytes: 640,
                l2_local_bytes: 192,
                tlb_accesses: 4,
                tlb_hits: 2,
                retries: 1,
                failed_transfers: 1,
                degraded_taps: 1,
                dropped_taps: 0,
            },
            FrameCounters {
                l1_accesses: 100,
                l1_hits: 90,
                dropped_taps: 5,
                ..FrameCounters::default()
            },
            FrameCounters {
                l2_full_misses: 13,
                host_bytes: 13 * 1024,
                retries: 26,
                ..FrameCounters::default()
            },
        ];
        let [a, b, c] = samples;
        // (a ⊕ b) ⊕ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        // Identity element.
        let mut with_id = left;
        with_id.merge(&FrameCounters::default());
        assert_eq!(with_id, left);
    }

    #[test]
    fn counters_bit_identical_with_telemetry_on_or_off() {
        use mltc_telemetry::Recorder;
        let reg = registry(2, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 4,
            fault: FaultPlan::with_rate(7, 200_000), // some failures too
            ..EngineConfig::default()
        };
        let mut plain = SimEngine::new(cfg, &reg);
        let mut recorded = SimEngine::new(cfg, &reg);
        let rec = Recorder::enabled();
        recorded.attach_telemetry(&rec, "run0", "test");
        assert!(recorded.telemetry_attached());
        let mut detached = SimEngine::new(cfg, &reg);
        detached.attach_telemetry(&Recorder::disabled(), "run0", "test");
        assert!(!detached.telemetry_attached(), "disabled recorder detaches");

        for e in [&mut plain, &mut recorded, &mut detached] {
            sweep(e, TextureId::from_index(0), 128);
            sweep(e, TextureId::from_index(1), 128);
            sweep(e, TextureId::from_index(0), 128);
        }
        assert_eq!(plain.frames(), recorded.frames());
        assert_eq!(plain.frames(), detached.frames());

        // And the telemetry view reconciles with the engine's own counters.
        let t = recorded.totals();
        let snap = rec.snapshot();
        assert_eq!(snap.counters["engine/test/l1_hits"], t.l1_hits);
        assert_eq!(
            snap.counters["engine/test/l1_misses"],
            t.l1_accesses - t.l1_hits
        );
        assert_eq!(snap.counters["engine/test/l2_full_hits"], t.l2_full_hits);
        assert_eq!(
            snap.counters["engine/test/l2_full_misses"],
            t.l2_full_misses
        );
        assert_eq!(snap.counters["engine/test/tlb_hits"], t.tlb_hits);
        assert_eq!(
            snap.counters["engine/test/tlb_misses"],
            t.tlb_accesses - t.tlb_hits
        );
        assert_eq!(snap.counters["engine/test/host_retries"], t.retries);
        assert_eq!(snap.counters["engine/test/host_failed"], t.failed_transfers);
        assert_eq!(
            snap.counters["engine/test/degraded_taps"] + snap.counters["engine/test/dropped_taps"],
            t.degraded_taps + t.dropped_taps
        );
        // Every L2 access recorded a reuse observation (cold or distance).
        let reuse = &snap.hists["l2_reuse_pages/test"];
        assert_eq!(
            reuse.count + snap.counters["engine/test/l2_reuse_cold"],
            t.l2_accesses()
        );
        // Full misses each contributed one sweep-length sample.
        assert_eq!(snap.hists["clock_sweep_len/test"].count, t.l2_full_misses);
        assert_eq!(
            snap.hists["host_transfer_bytes/test"].count,
            snap.counters["engine/test/host_delivered"]
        );
    }

    #[test]
    fn frame_series_rows_match_frame_counters() {
        use mltc_telemetry::Recorder;
        let reg = registry(1, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 4,
            ..EngineConfig::default()
        };
        let rec = Recorder::enabled();
        let mut e = SimEngine::new(cfg, &reg);
        e.attach_telemetry(&rec, "series-run", "test");
        sweep(&mut e, TextureId::from_index(0), 128);
        sweep(&mut e, TextureId::from_index(0), 128);
        let snap = rec.snapshot();
        let series = snap
            .series
            .iter()
            .find(|s| s.label == "series-run")
            .expect("series registered");
        assert_eq!(series.columns, crate::FRAME_SERIES_COLUMNS);
        assert_eq!(series.rows.len(), e.frames().len());
        for (i, (row, f)) in series.rows.iter().zip(e.frames()).enumerate() {
            assert_eq!(row[0], i as u64);
            assert_eq!(row[1], f.l1_accesses);
            assert_eq!(row[2], f.l1_hits);
            assert_eq!(row[3], f.l2_full_hits);
            assert_eq!(row[5], f.l2_full_misses);
            assert_eq!(row[6], f.host_bytes);
            assert_eq!(row[8], f.tlb_accesses);
        }
        // Per-frame sweep deltas sum to the cumulative clock stats.
        let cs = e.l2().unwrap().clock_stats();
        let sum_searches: u64 = series.rows.iter().map(|r| r[14]).sum();
        let sum_entries: u64 = series.rows.iter().map(|r| r[15]).sum();
        assert_eq!(sum_searches, cs.searches);
        assert_eq!(sum_entries, cs.entries_examined);
    }

    #[test]
    fn zero_access_frame_rates_are_zero_not_nan() {
        let f = FrameCounters::default();
        assert_eq!(f.l1_hit_rate(), 0.0);
        assert_eq!(f.l1_miss_rate(), 0.0, "no accesses is not a 100% miss rate");
        assert_eq!(f.l2_full_hit_rate(), 0.0);
        assert_eq!(f.l2_partial_hit_rate(), 0.0);
        assert_eq!(f.tlb_hit_rate(), 0.0);
    }

    #[test]
    fn traced_access_reports_the_same_story_as_the_counters() {
        let reg = registry(1, 64);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 2,
            ..EngineConfig::default()
        };
        let mut e = SimEngine::new(cfg, &reg);
        let t = TextureId::from_index(0);
        let miss = e.access_texel_traced(t, 0, 0, 0);
        assert!(!miss.l1_hit);
        assert_eq!(miss.l2, Some(L2Outcome::FullMiss));
        assert_eq!(miss.l2_block, Some(0));
        assert_eq!(miss.evicted_page, None, "cold cache evicts nothing");
        assert_eq!(miss.tlb_hit, Some(false));
        assert_eq!(miss.host_bytes, 64);
        let hit = e.access_texel_traced(t, 0, 0, 0);
        assert!(hit.l1_hit);
        assert_eq!(hit.l2, None, "L1 hits never consult the L2");
        assert_eq!(hit.host_bytes, 0);
        e.end_frame();
        let f = e.frame_stats();
        assert_eq!((f.l1_accesses, f.l1_hits), (2, 1));
        assert_eq!(f.host_bytes, 64);
    }

    #[test]
    fn plain_and_traced_access_update_counters_identically() {
        let reg = registry(1, 128);
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 4,
            fault: FaultPlan::with_rate(3, 300_000),
            ..EngineConfig::default()
        };
        let mut plain = SimEngine::new(cfg, &reg);
        let mut traced = SimEngine::new(cfg, &reg);
        let t = TextureId::from_index(0);
        for v in 0..128 {
            for u in 0..128 {
                plain.access_texel(t, 0, u, v);
                let _ = traced.access_texel_traced(t, 0, u, v);
            }
        }
        plain.end_frame();
        traced.end_frame();
        assert_eq!(plain.frame_stats(), traced.frame_stats());
    }

    #[test]
    fn labels_are_descriptive() {
        let pull = EngineConfig {
            l1: L1Config::kb(2),
            ..EngineConfig::default()
        };
        assert_eq!(pull.label(), "2 KB L1, no L2");
        let ml = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(4)),
            ..pull
        };
        assert_eq!(ml.label(), "2 KB L1, 4 MB L2");
        let small = EngineConfig {
            l2: Some(L2Config {
                size_bytes: 64 << 10,
                ..L2Config::mb(2)
            }),
            ..ml
        };
        assert_eq!(small.label(), "2 KB L1, 64 KB L2");
        let tiny = |size_bytes| EngineConfig {
            l1: L1Config {
                size_bytes,
                ..L1Config::kb(2)
            },
            ..small
        };
        assert_eq!(tiny(128).label(), "128 B L1, 64 KB L2");
        assert_eq!(tiny(512).label(), "512 B L1, 64 KB L2");
    }
}
