//! Fault-isolated multi-client texture service substrate.
//!
//! The paper models a single renderer in front of the hierarchy; the
//! ROADMAP's north star is a texture *service* multiplexing many camera
//! streams through one shared L2. This module is the shardable core of
//! that service: per-client L1s (and TLBs) in front of a shared,
//! partition-configurable L2, with per-client host-link fault scoping and
//! admission control. A [`ClientEngine`] is a [`SimEngine`] plus the
//! client's admission policy — one copy of the per-engine state. Everything
//! here is `Send`, so a service layer can hand each client to its own
//! worker thread.
//!
//! # Containment contract
//!
//! * **Fault scoping** — each client's [`HostLink`] runs
//!   [`FaultPlan::for_client`], so its fault schedule depends only on
//!   `(base plan, client id)` and the client's own transfer ordinals,
//!   never on how clients interleave.
//! * **Partitioned isolation** — under
//!   [`L2PartitionMode::Partitioned`] a client's engine *is* the solo
//!   [`SimEngine`] of [`TextureService::solo_config`]: it owns its `total/N`
//!   L2 share, which no other client can reach, so it runs without a lock
//!   and its counters are bit-identical to a solo run by construction, no
//!   matter what other clients do — including panicking or running a
//!   100 %-failure fault plan.
//! * **Graceful degradation tiers** — [`AdmissionControl`] bounds each
//!   client's per-frame host transfers: over the soft budget the client's
//!   misses are served read-degraded from resident L2 data instead of
//!   touching the host link (tier 1, *degrade taps*); over the hard
//!   budget the rest of the frame is shed (tier 2, *shed frames*); too
//!   many consecutive shed frames quarantine the client (tier 3), turning
//!   every further [`ClientEngine::run_frame`] into
//!   [`ServiceError::Quarantined`]. The tiers are an admission *mode* of
//!   the shared frame loops (`AdmissionMode` in `crate::tap`), not a loop
//!   of their own: `AdmitAll` when no budget is set, which compiles to the
//!   engine's code, and `Budgeted` below otherwise.
//!
//! [`L2PartitionMode::Unified`] shares one L2 among all clients behind a
//! single lock, which each client's engine borrows for a frame; results
//! then genuinely depend on client interleaving, which is why the
//! conformance gates run partitioned. That lock is the only one left, so
//! [`SharedL2::contention`] and the per-client lock gauges count unified
//! frames only: a partitioned run reports zero acquisitions.

use crate::batch::WideFrame;
use crate::engine::FrameCounters;
use crate::tap::{AdmitAll, Budgeted};
use crate::telemetry::TelemetryOpts;
use crate::{
    EngineConfig, EngineError, FaultPlan, HostLink, L1Config, L2Cache, L2Config, SimEngine,
};
use mltc_telemetry::Recorder;
use mltc_texture::{TextureRegistry, TilingConfig};
use mltc_trace::{FilterMode, FrameTrace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// How the shared L2 capacity is divided among clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum L2PartitionMode {
    /// Each client owns a private `total/N` partition (its own page table
    /// and replacement state): zero cross-client interference, and the
    /// basis of the bit-identical containment guarantee.
    #[default]
    Partitioned,
    /// All clients share one full-size L2 and page table behind a single
    /// arbitration point: maximal capacity sharing, measurable contention,
    /// results dependent on client interleaving.
    Unified,
}

/// Per-client admission control: deterministic per-frame host-transfer
/// budgets driving the degradation tiers. All budgets count *attempted*
/// transfers (delivered, failed **or denied**), so tier decisions depend
/// only on the client's own stream. `0` disables a budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Tier-1 budget: once a frame has attempted this many transfers,
    /// further misses are denied host access and served degraded (coarser
    /// resident mip) or dropped — exactly the failed-download fallback,
    /// minus the link traffic.
    pub soft_transfers_per_frame: u64,
    /// Tier-2 budget: once reached, the remainder of the frame is shed
    /// (taps counted, caches untouched).
    pub hard_transfers_per_frame: u64,
    /// Tier-3 trigger: this many *consecutive* shed frames quarantine the
    /// client.
    pub quarantine_after_shed_frames: u32,
}

impl AdmissionControl {
    /// No budgets: every transfer is admitted (the default).
    pub const fn unlimited() -> Self {
        Self {
            soft_transfers_per_frame: 0,
            hard_transfers_per_frame: 0,
            quarantine_after_shed_frames: 0,
        }
    }
}

/// Configuration of a [`TextureService`]. `l2` is the **total** budget
/// shared by all clients; `fault` is the base plan scoped per client via
/// [`FaultPlan::for_client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Per-client on-chip L1.
    pub l1: L1Config,
    /// Total shared L2 budget; `None` = per-client pull architecture.
    pub l2: Option<L2Config>,
    /// How the L2 budget is divided.
    pub partition: L2PartitionMode,
    /// Per-client TLB entries (`0` disables).
    pub tlb_entries: usize,
    /// L2 block / L1 sub-block tiling (shared page-table geometry).
    pub tiling: TilingConfig,
    /// Base host-link fault plan.
    pub fault: FaultPlan,
    /// Per-client admission control.
    pub admission: AdmissionControl,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            l1: L1Config::default(),
            l2: None,
            partition: L2PartitionMode::Partitioned,
            tlb_entries: 0,
            tiling: TilingConfig::PAPER_DEFAULT,
            fault: FaultPlan::none(),
            admission: AdmissionControl::unlimited(),
        }
    }
}

/// Why a client was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The client's worker panicked (isolated by the service layer's
    /// per-client `catch_unwind`); the payload message is preserved.
    Panicked(String),
    /// The client exhausted its shed-frame budget
    /// ([`AdmissionControl::quarantine_after_shed_frames`]).
    ShedBudget {
        /// Consecutive shed frames at the moment of quarantine.
        consecutive_shed_frames: u32,
    },
}

impl std::fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked(msg) => write!(f, "worker panicked: {msg}"),
            Self::ShedBudget {
                consecutive_shed_frames,
            } => write!(f, "shed {consecutive_shed_frames} consecutive frames"),
        }
    }
}

/// A client-scoped failure: either a plain engine error or the client
/// crossing into quarantine. Never fatal to the service — survivors keep
/// running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The underlying engine rejected the stream (e.g. unknown texture).
    Engine(EngineError),
    /// The client is quarantined; no further frames will run.
    Quarantined {
        /// Which client.
        client: u32,
        /// Why.
        reason: QuarantineReason,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Engine(e) => write!(f, "{e}"),
            Self::Quarantined { client, reason } => {
                write!(f, "client {client} quarantined: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

/// The degradation tier a client has reached (monotonic per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeTier {
    /// All transfers admitted.
    #[default]
    Normal = 0,
    /// Tier 1: soft budget hit, misses served degraded without the host.
    DegradedTaps = 1,
    /// Tier 2: hard budget hit, frames partially shed.
    ShedFrames = 2,
    /// Tier 3: client quarantined.
    Quarantined = 3,
}

/// Service-level per-client statistics, on top of [`FrameCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientServiceStats {
    /// Host transfers denied by the soft budget (served degraded/dropped).
    pub denied_transfers: u64,
    /// Taps shed by the hard budget (caches untouched).
    pub shed_taps: u64,
    /// Frames that shed at least one tap.
    pub shed_frames: u64,
    /// Frames run to completion (shed or not).
    pub frames_run: u64,
    /// Highest degradation tier reached.
    pub peak_tier: DegradeTier,
}

impl ClientServiceStats {
    pub(crate) fn bump_tier(&mut self, tier: DegradeTier) {
        self.peak_tier = self.peak_tier.max(tier);
    }
}

/// Cross-client contention on the unified L2's lock. Only a unified
/// service has one: a partitioned client owns its L2 share and takes no
/// lock, so a partitioned run reports all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedL2Contention {
    /// Lock acquisitions (one per frame per client, unified only).
    pub acquisitions: u64,
    /// Acquisitions that found the lock held.
    pub contended: u64,
    /// Nanoseconds spent waiting on the held lock (wall clock;
    /// observe-only, never fed back into simulation state).
    pub contended_nanos: u64,
    /// Nanoseconds the lock was held, summed over all frames of all
    /// clients (wall clock; observe-only): the serial section of a unified
    /// service.
    pub held_nanos: u64,
}

/// The shared L2 level: in unified mode the one [`L2Cache`] every client
/// borrows per frame, behind a mutex; nothing otherwise (a partitioned
/// client's engine owns its share). Lock poisoning is deliberately
/// recovered — a panicked client must never wedge the survivors.
#[derive(Debug)]
pub struct SharedL2 {
    unified: Option<Mutex<L2Cache>>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    contended_nanos: AtomicU64,
    held_nanos: AtomicU64,
    /// Contended acquisitions per client id (observability: which client
    /// is stalling on the shared level, not just how often anyone does).
    client_stalls: Vec<AtomicU64>,
}

impl SharedL2 {
    fn new(unified: Option<L2Cache>, clients: u32) -> Self {
        Self {
            unified: unified.map(Mutex::new),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            contended_nanos: AtomicU64::new(0),
            held_nanos: AtomicU64::new(0),
            client_stalls: (0..clients).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Whether all clients share one cache.
    pub fn is_unified(&self) -> bool {
        self.unified.is_some()
    }

    /// Locks the unified cache for `client` (`None` when there is none),
    /// recovering from poisoning and accounting contention.
    fn lock(&self, client: u32) -> Option<MutexGuard<'_, L2Cache>> {
        let m = self.unified.as_ref()?;
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match m.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => {
                self.contended.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = self.client_stalls.get(client as usize) {
                    s.fetch_add(1, Ordering::Relaxed);
                }
                let start = Instant::now();
                let g = m.lock().unwrap_or_else(PoisonError::into_inner);
                self.contended_nanos
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                Some(g)
            }
        }
    }

    /// Contended lock acquisitions charged to `client` (0 for ids outside
    /// the service population).
    pub fn client_stalls(&self, client: u32) -> u64 {
        self.client_stalls
            .get(client as usize)
            .map_or(0, |s| s.load(Ordering::Relaxed))
    }

    /// The unified cache's clock statistics (`None` when partitioned).
    pub fn clock_stats(&self) -> Option<mltc_cache::ClockStats> {
        let l2 = self.unified.as_ref()?;
        Some(
            l2.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clock_stats(),
        )
    }

    /// Contention counters so far.
    pub fn contention(&self) -> SharedL2Contention {
        SharedL2Contention {
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            contended_nanos: self.contended_nanos.load(Ordering::Relaxed),
            held_nanos: self.held_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Factory for a fixed population of [`ClientEngine`]s over one texture
/// registry: owns the unified L2, if any, and the template every client's
/// engine is derived from. `Sync`, so worker threads borrow it directly.
#[derive(Debug)]
pub struct TextureService {
    cfg: ServiceConfig,
    clients: u32,
    /// Every client's engine but for its fault plan: the engine of
    /// [`solo_config`](Self::solo_config) under the base plan, owning no L2.
    template: SimEngine,
    l2: SharedL2,
}

impl TextureService {
    /// Builds a service for `clients` clients over `registry`.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidGeometry`] when `clients == 0`, when the
    /// per-client cache geometry is invalid, or when a partitioned share
    /// (`total/N`) holds no L2 block; [`EngineError::EmptyPageTable`] when
    /// an L2 is configured over an empty registry.
    pub fn try_new(
        cfg: ServiceConfig,
        registry: &TextureRegistry,
        clients: u32,
    ) -> Result<Self, EngineError> {
        if clients == 0 {
            return Err(EngineError::InvalidGeometry(
                "service needs at least one client".into(),
            ));
        }
        let unified = cfg.partition == L2PartitionMode::Unified;
        // A client's L2: its `total/N` share when partitioned, the full
        // cache when unified (a unified client can in principle use all of
        // it).
        let l2 = cfg.l2.map(|total| L2Config {
            size_bytes: total.size_bytes / if unified { 1 } else { clients as usize },
            ..total
        });
        let solo = EngineConfig {
            l1: cfg.l1,
            l2,
            tlb_entries: cfg.tlb_entries,
            tiling: cfg.tiling,
            fault: cfg.fault,
        };
        // Unified, the template builds the one shared L2 and hands it over.
        let mut template = SimEngine::try_build(solo, registry, unified)?;
        let l2 = SharedL2::new(template.take_l2(), clients);
        Ok(Self {
            cfg,
            clients,
            template,
            l2,
        })
    }

    /// The configuration.
    pub fn config(&self) -> ServiceConfig {
        self.cfg
    }

    /// Number of clients the service was built for.
    pub fn clients(&self) -> u32 {
        self.clients
    }

    /// The shared L2 level (pass to [`ClientEngine::run_frame`]).
    pub fn shared_l2(&self) -> &SharedL2 {
        &self.l2
    }

    /// The solo-baseline engine configuration for `client`: the exact
    /// [`EngineConfig`] under which a plain [`SimEngine`] reproduces this
    /// client's partitioned counters bit for bit (its L2 share, its scoped
    /// fault plan) — a partitioned client's engine is built from it. This
    /// is the containment oracle.
    pub fn solo_config(&self, client: u32) -> EngineConfig {
        EngineConfig {
            fault: self.cfg.fault.for_client(client),
            ..self.template.config()
        }
    }

    /// Builds the engine for `client`, with its scoped fault plan.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidGeometry`] for a client id outside the
    /// service's population.
    pub fn client(&self, client: u32) -> Result<ClientEngine, EngineError> {
        self.client_with_fault(client, self.cfg.fault.for_client(client))
    }

    /// [`client`](Self::client) with the fault plan overridden (chaos
    /// testing: e.g. a 100 %-failure plan for one client). The override is
    /// used as-is — not re-scoped — so tests can inject exact plans.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidGeometry`] for a client id outside the
    /// service's population.
    pub fn client_with_fault(
        &self,
        client: u32,
        fault: FaultPlan,
    ) -> Result<ClientEngine, EngineError> {
        if client >= self.clients {
            return Err(EngineError::InvalidGeometry(format!(
                "client {client} outside service population {}",
                self.clients
            )));
        }
        Ok(ClientEngine {
            id: client,
            admission: self.cfg.admission,
            engine: self.template.sibling(fault, !self.l2.is_unified()),
            svc: ClientServiceStats::default(),
            consecutive_shed: 0,
            quarantine: None,
            l2_held_nanos: 0,
        })
    }
}

/// One client: an engine — its L1, TLB, scoped host link, counters and,
/// partitioned, its L2 share — and the admission policy that drives it.
/// `Send` — hand it to a worker thread and drive it with
/// [`run_frame`](Self::run_frame) against the service's [`SharedL2`].
#[derive(Debug)]
pub struct ClientEngine {
    id: u32,
    admission: AdmissionControl,
    /// [`TextureService::solo_config`] with the client's fault plan;
    /// unified, it owns no L2 and borrows the shared one per frame.
    engine: SimEngine,
    svc: ClientServiceStats,
    consecutive_shed: u32,
    quarantine: Option<QuarantineReason>,
    /// Nanoseconds this client held the unified L2's lock (wall clock;
    /// observe-only).
    l2_held_nanos: u64,
}

impl ClientEngine {
    /// The client id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Attaches per-client telemetry (see
    /// [`SimEngine::attach_telemetry`]; pass a [`Recorder::scoped`]
    /// recorder to key everything per client).
    pub fn attach_telemetry(&mut self, recorder: &Recorder, label: &str, group: &str) {
        self.engine.attach_telemetry(recorder, label, group);
    }

    /// [`attach_telemetry`](Self::attach_telemetry) with options; with
    /// [`TelemetryOpts::attribution`] the client records 3C miss
    /// attribution against its own slice of the hierarchy (its L1 and its
    /// L2 *share* — the partition size, or the full cache when unified).
    pub fn attach_telemetry_opts(
        &mut self,
        recorder: &Recorder,
        label: &str,
        group: &str,
        opts: TelemetryOpts,
    ) {
        self.engine
            .attach_telemetry_opts(recorder, label, group, opts);
    }

    /// Publishes this client's service-scoped health metrics as gauges
    /// (`service/…` under the recorder's scope — pass the same
    /// [`Recorder::scoped`] recorder used for
    /// [`attach_telemetry`](Self::attach_telemetry)): shed/denied/degraded
    /// work, queue stalls, the unified L2 lock's stalls and the time this
    /// client held it (both zero when partitioned: there is no lock), and
    /// the p99 per-frame L1 miss rate.
    /// Last write wins, so call it after the client's final frame.
    pub fn publish_metrics(&self, recorder: &Recorder, shared: &SharedL2, queue_stalls: u64) {
        if !recorder.is_enabled() {
            return;
        }
        let g = |name: &str, v: f64| recorder.gauge(&format!("service/{name}")).set(v);
        let totals = self.totals();
        g("frames_run", self.svc.frames_run as f64);
        g("shed_frames", self.svc.shed_frames as f64);
        g("shed_taps", self.svc.shed_taps as f64);
        g("denied_transfers", self.svc.denied_transfers as f64);
        g("degraded_taps", totals.degraded_taps as f64);
        g("dropped_taps", totals.dropped_taps as f64);
        g("queue_stalls", queue_stalls as f64);
        g("l2_lock_stalls", shared.client_stalls(self.id) as f64);
        g("l2_lock_held_ms", self.l2_held_nanos as f64 / 1e6);
        g("peak_tier", self.svc.peak_tier as u64 as f64);
        let mut rates: Vec<f64> = self
            .frames()
            .iter()
            .filter(|f| f.l1_accesses > 0)
            .map(FrameCounters::l1_miss_rate)
            .collect();
        rates.sort_by(f64::total_cmp);
        // Nearest rank, the rule of `multiclient`'s `p99_frame_miss_pct`:
        // the ⌈0.99·n⌉-th smallest.
        let rank = (rates.len() as f64 * 0.99).ceil() as usize;
        let p99 = rates.get(rank.max(1) - 1).copied().unwrap_or(0.0);
        g("p99_frame_miss_rate", p99);
    }

    /// Per-frame counters for all completed frames.
    pub fn frames(&self) -> &[FrameCounters] {
        self.engine.frames()
    }

    /// Sum of all completed frames.
    pub fn totals(&self) -> FrameCounters {
        self.engine.totals()
    }

    /// Service-level statistics (tiers, shed/denied work).
    pub fn service_stats(&self) -> ClientServiceStats {
        self.svc
    }

    /// The host link (for fault statistics).
    pub fn host(&self) -> &HostLink {
        self.engine.host()
    }

    /// Why this client is quarantined, if it is.
    pub fn quarantined(&self) -> Option<&QuarantineReason> {
        self.quarantine.as_ref()
    }

    /// Quarantines the client externally (the service layer calls this
    /// after catching a worker panic, preserving the payload).
    pub fn quarantine(&mut self, reason: QuarantineReason) {
        self.svc.bump_tier(DegradeTier::Quarantined);
        self.quarantine = Some(reason);
    }

    /// Replays one frame through this client's engine — its wide frame
    /// loop under this client's admission mode — then closes the frame. A
    /// unified client holds the shared L2's lock for the replay; a
    /// partitioned one takes no lock.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Quarantined`] when the client is (or just became)
    /// quarantined; [`ServiceError::Engine`] for unknown textures — in
    /// that case the frame is left open, exactly like
    /// [`SimEngine::try_run_frame`].
    pub fn run_frame(
        &mut self,
        shared: &SharedL2,
        trace: &FrameTrace,
        filter: FilterMode,
    ) -> Result<(), ServiceError> {
        self.check_quarantine()?;
        let mut shed_frame = false;
        let mut guard = shared.lock(self.id);
        let locked = Instant::now();
        let replayed = self.replay(guard.as_deref_mut(), trace, filter, &mut shed_frame);
        if let Some(guard) = guard {
            drop(guard);
            let held = locked.elapsed().as_nanos() as u64;
            self.l2_held_nanos += held;
            shared.held_nanos.fetch_add(held, Ordering::Relaxed);
        }
        replayed?;
        self.close_frame(shed_frame)
    }

    fn check_quarantine(&self) -> Result<(), ServiceError> {
        match &self.quarantine {
            None => Ok(()),
            Some(reason) => Err(ServiceError::Quarantined {
                client: self.id,
                reason: reason.clone(),
            }),
        }
    }

    /// The frame body: the engine's wide frame loop under this client's
    /// admission mode, over the borrowed `l2` when unified.
    fn replay(
        &mut self,
        l2: Option<&mut L2Cache>,
        trace: &FrameTrace,
        filter: FilterMode,
        shed_frame: &mut bool,
    ) -> Result<(), EngineError> {
        let requests = trace.requests.iter().copied();
        let ctl = self.admission;
        let (h, tel, timing) = self.engine.hierarchy(l2);
        if ctl.soft_transfers_per_frame == 0 && ctl.hard_transfers_per_frame == 0 {
            let frame = WideFrame {
                filter,
                requests,
                ad: AdmitAll,
            };
            return h.replay(tel, timing, frame);
        }
        // Whatever the frame attempted before an unknown texture left it
        // open still counts against its budgets.
        let c = &h.current;
        let attempted = match h.l2 {
            Some(_) => c.l2_partial_hits + c.l2_full_misses,
            None => c.l1_accesses - c.l1_hits,
        };
        let ad = Budgeted {
            ctl,
            attempted,
            stats: &mut self.svc,
            shed_frame,
        };
        let frame = WideFrame {
            filter,
            requests,
            ad,
        };
        h.replay(tel, timing, frame)
    }

    /// Closes the frame the replay left open and applies the shed-frame
    /// policy (tiers 2 and 3).
    fn close_frame(&mut self, shed_frame: bool) -> Result<(), ServiceError> {
        self.engine.end_frame();
        self.svc.frames_run += 1;
        if shed_frame {
            self.svc.shed_frames += 1;
            self.consecutive_shed += 1;
            self.svc.bump_tier(DegradeTier::ShedFrames);
        } else {
            self.consecutive_shed = 0;
        }
        let quota = self.admission.quarantine_after_shed_frames;
        if quota > 0 && self.consecutive_shed >= quota {
            let reason = QuarantineReason::ShedBudget {
                consecutive_shed_frames: self.consecutive_shed,
            };
            self.quarantine(reason.clone());
            return Err(ServiceError::Quarantined {
                client: self.id,
                reason,
            });
        }
        Ok(())
    }
}

/// The per-tap service frame loops this module had before it took the
/// engine's wide path, kept as the independent reference the budget
/// property checks the `Budgeted` admission mode against.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::observe::{observed_frame, Observers};
    use crate::tap::{
        degraded_probe, Hierarchy, Levels, Logged, MultiLevel, Pull, TelOff, TelemetryMode,
        TlbMode, TlbOff, TlbOn,
    };
    use crate::{L1TextureCache, L2Outcome};
    use mltc_texture::{TranslationMemo, TranslationTables};
    use mltc_trace::filter_taps;

    /// The reference loops lend their TLB mode to one tap at a time.
    impl<Tl: TlbMode> TlbMode for &mut Tl {
        fn access(&mut self, key: u64) -> Option<bool> {
            (**self).access(key)
        }
    }

    impl ClientEngine {
        /// [`run_frame`](Self::run_frame) over the reference loops.
        pub(super) fn run_frame_reference(
            &mut self,
            shared: &SharedL2,
            trace: &FrameTrace,
            filter: FilterMode,
        ) -> Result<(), ServiceError> {
            self.check_quarantine()?;
            let mut shed_frame = false;
            let mut guard = shared.lock(self.id);
            let Self {
                admission,
                engine,
                svc,
                ..
            } = self;
            let (h, tel, _) = engine.hierarchy(guard.as_deref_mut());
            let Hierarchy {
                cfg,
                tables,
                dims,
                l1,
                l2,
                tlb,
                host,
                current,
            } = h;
            let shed = &mut shed_frame;
            match l2 {
                None => {
                    macro_rules! pull {
                        ($tel:expr) => {
                            pull_loop(
                                trace, filter, admission, cfg, dims, l1, host, current, svc, shed,
                                $tel,
                            )
                        };
                    }
                    match tel {
                        None => pull!(TelOff),
                        Some(t) => observed_frame(Observers::of(t), |log| pull!(Logged::new(log))),
                    }
                }
                Some(l2) => {
                    macro_rules! ml {
                        ($tlb:expr, $tel:expr) => {
                            ml_loop(
                                trace, filter, admission, cfg, tables, dims, l1, l2, host, current,
                                svc, shed, $tlb, $tel,
                            )
                        };
                    }
                    match (tlb, tel) {
                        (None, None) => ml!(TlbOff, TelOff),
                        (None, Some(t)) => {
                            observed_frame(Observers::of(t), |log| ml!(TlbOff, Logged::new(log)))
                        }
                        (Some(tlb), None) => ml!(TlbOn(tlb), TelOff),
                        (Some(tlb), Some(t)) => observed_frame(Observers::of(t), |log| {
                            ml!(TlbOn(tlb), Logged::new(log))
                        }),
                    }
                }
            }?;
            drop(guard);
            self.close_frame(shed_frame)
        }
    }

    /// Reference multi-level frame loop with admission tiers, one tap at a
    /// time (the service's own loop before it took the wide path). Under
    /// budget, every tap is the engine's own [`Levels::tap`]. Over the soft
    /// budget, a miss is denied host access: the speculative install is rolled
    /// back exactly like a failed download and the tap is served degraded or
    /// dropped. Over the hard budget, taps are shed outright.
    #[allow(clippy::too_many_arguments)]
    fn ml_loop<Tl: TlbMode, Te: TelemetryMode>(
        trace: &FrameTrace,
        filter: FilterMode,
        admission: &AdmissionControl,
        cfg: &EngineConfig,
        tables: &TranslationTables,
        dims: &[Option<Vec<(u32, u32)>>],
        l1: &mut L1TextureCache,
        l2: &mut L2Cache,
        host: &mut HostLink,
        current: &mut FrameCounters,
        svc: &mut ClientServiceStats,
        shed_frame: &mut bool,
        mut tlb: Tl,
        mut tel: Te,
    ) -> Result<(), EngineError> {
        let l1_bytes = cfg.l1.line_bytes() as u64;
        let mut memo = TranslationMemo::default();
        for req in &trace.requests {
            let d = dims
                .get(req.tid.index() as usize)
                .and_then(|d| d.as_ref())
                .ok_or(EngineError::UnknownTexture(req.tid))?;
            let levels = d.len() as u32;
            let taps = filter_taps(req, filter, levels, |m| d[m as usize]);
            tel.before_taps(current);
            for tap in &taps {
                'tap: {
                    let transfers = current.l2_partial_hits + current.l2_full_misses;
                    if admission.hard_transfers_per_frame > 0
                        && transfers >= admission.hard_transfers_per_frame
                    {
                        svc.shed_taps += 1;
                        *shed_frame = true;
                        break 'tap;
                    }
                    if admission.soft_transfers_per_frame > 0
                        && transfers >= admission.soft_transfers_per_frame
                    {
                        svc.bump_tier(DegradeTier::DegradedTaps);
                        current.l1_accesses += 1;
                        if l1.access(req.tid, tap.m, tap.u, tap.v) {
                            current.l1_hits += 1;
                            break 'tap;
                        }
                        let (pt_index, l1_sub) =
                            tables.lookup(&mut memo, req.tid.index(), tap.m, tap.u, tap.v);
                        if let Some(hit) = tlb.access(pt_index as u64) {
                            current.tlb_accesses += 1;
                            current.tlb_hits += hit as u64;
                        }
                        let l2_trace = l2.access_traced(pt_index, l1_sub);
                        tel.l2_probed(&l2_trace, pt_index, l2);
                        // The transfer the miss needs is denied: roll back
                        // the speculative install exactly like a failed
                        // download and fall back to resident coarser data.
                        match l2_trace.outcome {
                            L2Outcome::FullHit => {
                                current.l2_full_hits += 1;
                                current.l2_local_bytes += l1_bytes;
                                break 'tap;
                            }
                            L2Outcome::PartialHit => current.l2_partial_hits += 1,
                            L2Outcome::FullMiss => current.l2_full_misses += 1,
                        }
                        svc.denied_transfers += 1;
                        l2.fail_download(pt_index, l1_sub);
                        l1.invalidate(req.tid, tap.m, tap.u, tap.v);
                        if degraded_probe(tables, dims, l2, req.tid, tap.m, tap.u, tap.v) {
                            current.degraded_taps += 1;
                            current.l2_local_bytes += l1_bytes;
                        } else {
                            current.dropped_taps += 1;
                        }
                        break 'tap;
                    }
                    MultiLevel::new(cfg, tables, dims, l2, &mut tlb).tap(
                        req.tid,
                        tap.m,
                        tap.u,
                        tap.v,
                        l1,
                        host,
                        current,
                        &mut tel,
                        &mut AdmitAll,
                    );
                }
                tel.after_tap(req.tid, tap.m, tap.u, tap.v, current);
            }
        }
        Ok(())
    }

    /// Reference pull-architecture frame loop with admission tiers: without
    /// an L2 there is nothing to degrade to, so a denied transfer drops the
    /// tap.
    #[allow(clippy::too_many_arguments)]
    fn pull_loop<Te: TelemetryMode>(
        trace: &FrameTrace,
        filter: FilterMode,
        admission: &AdmissionControl,
        cfg: &EngineConfig,
        dims: &[Option<Vec<(u32, u32)>>],
        l1: &mut L1TextureCache,
        host: &mut HostLink,
        current: &mut FrameCounters,
        svc: &mut ClientServiceStats,
        shed_frame: &mut bool,
        mut tel: Te,
    ) -> Result<(), EngineError> {
        for req in &trace.requests {
            let d = dims
                .get(req.tid.index() as usize)
                .and_then(|d| d.as_ref())
                .ok_or(EngineError::UnknownTexture(req.tid))?;
            let levels = d.len() as u32;
            let taps = filter_taps(req, filter, levels, |m| d[m as usize]);
            tel.before_taps(current);
            for tap in &taps {
                'tap: {
                    let transfers = current.l1_accesses - current.l1_hits;
                    if admission.hard_transfers_per_frame > 0
                        && transfers >= admission.hard_transfers_per_frame
                    {
                        svc.shed_taps += 1;
                        *shed_frame = true;
                        break 'tap;
                    }
                    if admission.soft_transfers_per_frame > 0
                        && transfers >= admission.soft_transfers_per_frame
                    {
                        svc.bump_tier(DegradeTier::DegradedTaps);
                        current.l1_accesses += 1;
                        if l1.access(req.tid, tap.m, tap.u, tap.v) {
                            current.l1_hits += 1;
                            break 'tap;
                        }
                        svc.denied_transfers += 1;
                        l1.invalidate(req.tid, tap.m, tap.u, tap.v);
                        current.dropped_taps += 1;
                        break 'tap;
                    }
                    Pull::new(cfg).tap(
                        req.tid,
                        tap.m,
                        tap.u,
                        tap.v,
                        l1,
                        host,
                        current,
                        &mut tel,
                        &mut AdmitAll,
                    );
                }
                tel.after_tap(req.tid, tap.m, tap.u, tap.v, current);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimEngine;
    use mltc_cache::ClockStats;
    use mltc_texture::{synth, MipPyramid, TextureId};
    use mltc_trace::PixelRequest;
    use proptest::prelude::*;

    fn registry(n: usize, dim: u32) -> TextureRegistry {
        let mut reg = TextureRegistry::new();
        for i in 0..n {
            reg.load(
                format!("t{i}"),
                MipPyramid::from_image(synth::checkerboard(dim, 4, [0; 3], [255; 3])),
            );
        }
        reg
    }

    /// Deterministic pseudo-random request stream, distinct per seed.
    fn frames(
        seed: u64,
        n_frames: u32,
        per_frame: usize,
        textures: u32,
        dim: u32,
    ) -> Vec<FrameTrace> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..n_frames)
            .map(|f| {
                let mut t = FrameTrace::new(f, dim, dim, FilterMode::Trilinear);
                for _ in 0..per_frame {
                    let r = next();
                    t.push(PixelRequest {
                        tid: TextureId::from_index((r % textures as u64) as u32),
                        u: ((r >> 8) % dim as u64) as f32,
                        v: ((r >> 24) % dim as u64) as f32,
                        lod: ((r >> 40) % 300) as f32 / 100.0,
                    });
                }
                t
            })
            .collect()
    }

    fn ml_service_cfg() -> ServiceConfig {
        ServiceConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            tlb_entries: 4,
            fault: FaultPlan::with_rate(0x4d4c_5443, 50_000),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn service_types_are_send_and_sync() {
        fn send<T: Send>() {}
        fn sync<T: Sync>() {}
        send::<ClientEngine>();
        send::<TextureService>();
        sync::<TextureService>();
        sync::<SharedL2>();
    }

    #[test]
    fn partitioned_client_matches_solo_engine_bit_for_bit() {
        let reg = registry(3, 64);
        let svc = TextureService::try_new(ml_service_cfg(), &reg, 4).unwrap();
        for c in 0..4 {
            let stream = frames(1000 + c as u64, 3, 400, 3, 64);
            let mut client = svc.client(c).unwrap();
            for f in &stream {
                client
                    .run_frame(svc.shared_l2(), f, FilterMode::Trilinear)
                    .unwrap();
            }
            // The client runs the wide path; hold it against both the wide
            // and the scalar replay of its solo engine.
            let mut scalar = SimEngine::try_new(svc.solo_config(c), &reg).unwrap();
            let mut batched = SimEngine::try_new(svc.solo_config(c), &reg).unwrap();
            for f in &stream {
                scalar.try_run_frame_as(f, FilterMode::Trilinear).unwrap();
                batched
                    .try_run_frame_as_batched(f, FilterMode::Trilinear)
                    .unwrap();
            }
            assert_eq!(client.frames(), scalar.frames(), "client {c} vs scalar");
            assert_eq!(client.frames(), batched.frames(), "client {c} vs batched");
            assert!(
                client.engine.l1().lines().eq(scalar.l1().lines()),
                "client {c} L1"
            );
            assert_eq!(client.host().transfers(), scalar.host().transfers());
            assert!(client.totals().retries > 0, "fault plan must have fired");
        }
        // Each client owned its share: no lock was ever taken.
        assert_eq!(svc.shared_l2().contention(), SharedL2Contention::default());
    }

    #[test]
    fn client_zero_of_one_keeps_the_base_plan() {
        let reg = registry(1, 64);
        let svc = TextureService::try_new(ml_service_cfg(), &reg, 1).unwrap();
        assert_eq!(svc.solo_config(0).fault, ml_service_cfg().fault);
        assert_eq!(
            svc.solo_config(0).l2.unwrap().size_bytes,
            L2Config::mb(2).size_bytes,
            "single client owns the whole budget"
        );
    }

    #[test]
    fn unified_mode_shares_one_partition_and_counts_contention() {
        let reg = registry(2, 64);
        let cfg = ServiceConfig {
            partition: L2PartitionMode::Unified,
            ..ml_service_cfg()
        };
        let svc = TextureService::try_new(cfg, &reg, 3).unwrap();
        assert!(svc.shared_l2().is_unified());
        let stream = frames(7, 2, 200, 2, 64);
        for c in 0..3 {
            let mut client = svc.client(c).unwrap();
            for f in &stream {
                client
                    .run_frame(svc.shared_l2(), f, FilterMode::Bilinear)
                    .unwrap();
            }
        }
        let cont = svc.shared_l2().contention();
        assert_eq!(cont.acquisitions, 6, "one acquisition per client frame");
    }

    #[test]
    fn admission_tiers_degrade_then_shed_then_quarantine() {
        let reg = registry(2, 64);
        let cfg = ServiceConfig {
            admission: AdmissionControl {
                soft_transfers_per_frame: 8,
                hard_transfers_per_frame: 16,
                quarantine_after_shed_frames: 2,
            },
            fault: FaultPlan::none(),
            ..ml_service_cfg()
        };
        let svc = TextureService::try_new(cfg, &reg, 1).unwrap();
        let mut client = svc.client(0).unwrap();
        let stream = frames(42, 3, 500, 2, 64);
        let r0 = client.run_frame(svc.shared_l2(), &stream[0], FilterMode::Trilinear);
        assert!(r0.is_ok(), "first shed frame only escalates: {r0:?}");
        let r1 = client.run_frame(svc.shared_l2(), &stream[1], FilterMode::Trilinear);
        assert!(
            matches!(
                r1,
                Err(ServiceError::Quarantined {
                    client: 0,
                    reason: QuarantineReason::ShedBudget {
                        consecutive_shed_frames: 2
                    }
                })
            ),
            "second consecutive shed frame quarantines: {r1:?}"
        );
        let r2 = client.run_frame(svc.shared_l2(), &stream[2], FilterMode::Trilinear);
        assert!(matches!(r2, Err(ServiceError::Quarantined { .. })));
        assert_eq!(client.frames().len(), 2, "quarantined frame never ran");
        let svc_stats = client.service_stats();
        assert!(svc_stats.denied_transfers > 0, "soft tier fired");
        assert!(svc_stats.shed_taps > 0, "hard tier fired");
        assert_eq!(svc_stats.shed_frames, 2);
        assert_eq!(svc_stats.peak_tier, DegradeTier::Quarantined);
        for f in client.frames() {
            assert!(
                f.l2_partial_hits + f.l2_full_misses <= 16,
                "hard budget bounds attempted transfers"
            );
        }
        assert_eq!(
            client.totals().host_bytes / client.engine.config().l1.line_bytes() as u64,
            client
                .frames()
                .iter()
                .map(|f| f.l2_partial_hits + f.l2_full_misses)
                .sum::<u64>()
                - svc_stats.denied_transfers,
            "denied transfers moved no host bytes"
        );
    }

    #[test]
    fn admission_without_budgets_is_inert() {
        let reg = registry(1, 64);
        let svc = TextureService::try_new(ml_service_cfg(), &reg, 2).unwrap();
        let stream = frames(5, 2, 300, 1, 64);
        let mut client = svc.client(1).unwrap();
        for f in &stream {
            client
                .run_frame(svc.shared_l2(), f, FilterMode::Trilinear)
                .unwrap();
        }
        let s = client.service_stats();
        assert_eq!((s.denied_transfers, s.shed_taps, s.shed_frames), (0, 0, 0));
        assert_eq!(s.peak_tier, DegradeTier::Normal);
        assert_eq!(s.frames_run, 2);
    }

    #[test]
    fn pull_service_drops_denied_taps() {
        let reg = registry(1, 64);
        let cfg = ServiceConfig {
            l1: L1Config::kb(2),
            l2: None,
            admission: AdmissionControl {
                soft_transfers_per_frame: 4,
                hard_transfers_per_frame: 0,
                quarantine_after_shed_frames: 0,
            },
            ..ServiceConfig::default()
        };
        let svc = TextureService::try_new(cfg, &reg, 1).unwrap();
        let mut client = svc.client(0).unwrap();
        let stream = frames(9, 1, 300, 1, 64);
        client
            .run_frame(svc.shared_l2(), &stream[0], FilterMode::Point)
            .unwrap();
        let s = client.service_stats();
        assert!(s.denied_transfers > 0);
        assert_eq!(s.denied_transfers, client.totals().dropped_taps);
        assert_eq!(
            client.totals().host_bytes / client.engine.config().l1.line_bytes() as u64,
            4,
            "only the admitted transfers moved bytes"
        );
    }

    #[test]
    fn invalid_populations_are_rejected() {
        let reg = registry(1, 64);
        assert!(matches!(
            TextureService::try_new(ml_service_cfg(), &reg, 0),
            Err(EngineError::InvalidGeometry(_))
        ));
        // 2 MB over 4096 clients: 512-byte shares hold no 1 KB block.
        assert!(matches!(
            TextureService::try_new(ml_service_cfg(), &reg, 4096),
            Err(EngineError::InvalidGeometry(_))
        ));
        let svc = TextureService::try_new(ml_service_cfg(), &reg, 2).unwrap();
        assert!(matches!(
            svc.client(2),
            Err(EngineError::InvalidGeometry(_))
        ));
        assert!(matches!(
            TextureService::try_new(ml_service_cfg(), &TextureRegistry::new(), 1),
            Err(EngineError::EmptyPageTable)
        ));
    }

    #[test]
    fn quarantine_is_sticky_and_reported() {
        let reg = registry(1, 64);
        let svc = TextureService::try_new(ml_service_cfg(), &reg, 2).unwrap();
        let mut client = svc.client(0).unwrap();
        client.quarantine(QuarantineReason::Panicked("boom".into()));
        let stream = frames(3, 1, 10, 1, 64);
        let r = client.run_frame(svc.shared_l2(), &stream[0], FilterMode::Point);
        assert!(matches!(
            r,
            Err(ServiceError::Quarantined {
                client: 0,
                reason: QuarantineReason::Panicked(_)
            })
        ));
        assert_eq!(
            client.quarantined(),
            Some(&QuarantineReason::Panicked("boom".into()))
        );
        assert_eq!(
            r.unwrap_err().to_string(),
            "client 0 quarantined: worker panicked: boom"
        );
    }

    /// The p99 gauge is the nearest rank, as `multiclient`'s CSV computes
    /// it: over 50 frames of distinct miss rates, the 50th smallest.
    #[test]
    fn p99_frame_miss_rate_is_the_nearest_rank() {
        let reg = registry(1, 64);
        let cfg = ServiceConfig {
            l1: L1Config::kb(2),
            ..ServiceConfig::default()
        };
        let svc = TextureService::try_new(cfg, &reg, 1).unwrap();
        let mut client = svc.client(0).unwrap();
        // Frame i: one tap on a tile never touched before, then i taps
        // on the same texel — a miss rate of 1/(i+1), distinct per frame.
        for i in 0..50u32 {
            let mut t = FrameTrace::new(i, 64, 64, FilterMode::Point);
            let (u, v) = ((i % 16 * 4) as f32 + 1.5, (i / 16 * 4) as f32 + 1.5);
            for _ in 0..=i {
                t.push(PixelRequest {
                    tid: TextureId::from_index(0),
                    u,
                    v,
                    lod: 0.0,
                });
            }
            client
                .run_frame(svc.shared_l2(), &t, FilterMode::Point)
                .unwrap();
        }
        let mut rates: Vec<f64> = client.frames().iter().map(|f| f.l1_miss_rate()).collect();
        rates.sort_by(f64::total_cmp);
        rates.dedup();
        assert_eq!(rates.len(), 50, "distinct per-frame miss rates");
        let rec = Recorder::enabled();
        client.publish_metrics(&rec, svc.shared_l2(), 0);
        assert_eq!(
            rec.snapshot().gauges["service/p99_frame_miss_rate"],
            rates[49]
        );
    }

    /// Hit-and-miss-mixing synthetic frames: drifting coordinates over
    /// three textures and a lod sweep, strides drawn from `seed`.
    fn wavy_frames(seed: u64, n_frames: u32, per_frame: u32) -> Vec<FrameTrace> {
        let (a, b) = (5 + (seed % 23) as u32 * 2, 7 + (seed / 23 % 31) as u32 * 2);
        (0..n_frames)
            .map(|f| {
                let mut t = FrameTrace::new(f, 64, 64, FilterMode::Point);
                for i in 0..per_frame {
                    t.push(PixelRequest {
                        tid: TextureId::from_index(i % 3),
                        u: ((i * a + f * 7) % 512) as f32 * 0.25,
                        v: ((i * b + f * 3) % 512) as f32 * 0.25,
                        lod: (i % 40) as f32 / 10.0,
                    });
                }
                t
            })
            .collect()
    }

    /// Everything that must not tell the wide `Budgeted` loop from the
    /// per-tap reference: counters, service stats, quarantine, L1 lines,
    /// L2 replacement state and the host link (its `Debug` form carries
    /// the RNG state and the transfer ordinal).
    #[allow(clippy::type_complexity)]
    fn observable_state(
        c: &mut ClientEngine,
    ) -> (
        Vec<FrameCounters>,
        FrameCounters,
        ClientServiceStats,
        Option<QuarantineReason>,
        Vec<(usize, u64, u64)>,
        Option<(ClockStats, Option<usize>, usize)>,
        String,
    ) {
        let current = *c.engine.hierarchy(None).0.current;
        let e = &c.engine;
        (
            e.frames().to_vec(),
            current,
            c.svc,
            c.quarantine.clone(),
            e.l1().lines().collect(),
            e.l2()
                .map(|l2| (l2.clock_stats(), l2.clock_hand(), l2.blocks_in_use())),
            format!("{:?}", e.host()),
        )
    }

    fn budget() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), Just(1u64), 2u64..40, 40u64..400]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The budget tiers' reference test: the wide frame loops under
        /// `Budgeted` equal the per-tap reference loops frame by frame,
        /// for every filter and architecture, on a perfect and a lossy
        /// link, with and without telemetry watching.
        #[test]
        fn budgeted_wide_loop_equals_the_per_tap_reference(
            soft in budget(),
            hard in budget(),
            equal in any::<bool>(),
            quarantine_after in 0u32..4,
            seed in any::<u64>(),
            observed in any::<bool>(),
        ) {
            let admission = AdmissionControl {
                soft_transfers_per_frame: soft,
                // Half the cases pin soft == hard, a boundary the two
                // independent draws would almost never land on.
                hard_transfers_per_frame: if equal { soft } else { hard },
                quarantine_after_shed_frames: quarantine_after,
            };
            let reg = registry(3, 128);
            let stream = wavy_frames(seed, 4, 500);
            // 48 blocks: small enough that the clock sweeps and a
            // degraded probe can come up empty.
            let small_l2 = Some(L2Config { size_bytes: 48 << 10, ..L2Config::mb(2) });
            for (l2, tlb_entries) in [(None, 0), (small_l2, 0), (small_l2, 4)] {
                for fault in [FaultPlan::none(), FaultPlan::with_rate(seed, 150_000)] {
                    for filter in [FilterMode::Point, FilterMode::Bilinear, FilterMode::Trilinear] {
                        let cfg = ServiceConfig {
                            l1: L1Config::kb(2),
                            l2,
                            tlb_entries,
                            fault,
                            admission,
                            ..ServiceConfig::default()
                        };
                        let ctx = format!("{admission:?} / l2 {} / tlb {tlb_entries} / {fault:?} / {filter}", l2.is_some());
                        let (svc_new, svc_ref) = (
                            TextureService::try_new(cfg, &reg, 2).unwrap(),
                            TextureService::try_new(cfg, &reg, 2).unwrap(),
                        );
                        let (mut new, mut reference) = (svc_new.client(1).unwrap(), svc_ref.client(1).unwrap());
                        let (rec_new, rec_ref) = (Recorder::enabled(), Recorder::enabled());
                        if observed {
                            let opts = TelemetryOpts { attribution: true, ..TelemetryOpts::default() };
                            new.attach_telemetry_opts(&rec_new, "c", "g", opts);
                            reference.attach_telemetry_opts(&rec_ref, "c", "g", opts);
                        }
                        for f in &stream {
                            let got = new.run_frame(svc_new.shared_l2(), f, filter);
                            let want = reference.run_frame_reference(svc_ref.shared_l2(), f, filter);
                            prop_assert_eq!(got, want, "{}: frame {} result", ctx, f.frame);
                            prop_assert_eq!(
                                observable_state(&mut new),
                                observable_state(&mut reference),
                                "{}: frame {}", ctx, f.frame
                            );
                        }
                        // Path efficacy is the one thing the paths differ in.
                        let path_neutral = |rec: &Recorder| {
                            let mut snap = rec.snapshot();
                            snap.counters.retain(|name, _| !name.contains("/wide_"));
                            snap
                        };
                        let (got, want) = (path_neutral(&rec_new), path_neutral(&rec_ref));
                        prop_assert_eq!(got.counters, want.counters, "{}: telemetry counters", ctx);
                        prop_assert_eq!(got.hists, want.hists, "{}: telemetry histograms", ctx);
                        prop_assert_eq!(got.series, want.series, "{}: per-frame series", ctx);
                        prop_assert_eq!(got.heatmaps, want.heatmaps, "{}: heat maps", ctx);
                    }
                }
            }
        }
    }

    /// The property above is only as strong as the tiers it reaches: the
    /// same harness at a fixed budget must deny, shed and quarantine.
    #[test]
    fn reference_harness_reaches_every_tier() {
        let reg = registry(3, 128);
        let cfg = ServiceConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config {
                size_bytes: 48 << 10,
                ..L2Config::mb(2)
            }),
            admission: AdmissionControl {
                soft_transfers_per_frame: 10,
                hard_transfers_per_frame: 60,
                quarantine_after_shed_frames: 3,
            },
            ..ServiceConfig::default()
        };
        let svc = TextureService::try_new(cfg, &reg, 1).unwrap();
        let mut client = svc.client(0).unwrap();
        let mut last = Ok(());
        for f in &wavy_frames(1, 4, 500) {
            last = client.run_frame_reference(svc.shared_l2(), f, FilterMode::Trilinear);
        }
        let s = client.service_stats();
        assert!(s.denied_transfers > 0 && s.shed_taps > 0, "{s:?}");
        assert!(client.totals().degraded_taps > 0 && client.totals().dropped_taps > 0);
        assert!(matches!(last, Err(ServiceError::Quarantined { .. })));
        assert_eq!(s.peak_tier, DegradeTier::Quarantined);
    }
}
