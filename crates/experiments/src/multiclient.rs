//! Multi-client texture service simulation: N independent camera streams
//! replayed through one shared L2.
//!
//! This is the experiment-harness face of [`mltc_core::TextureService`].
//! Each client is a [`ClientSpec`]: a filter, a *phase offset* into the
//! shared animation (the same [`TraceStore`] trace, rotated — N cameras
//! walking the same scene out of phase), an optional fault-plan override
//! and an optional injected panic (chaos testing). Frames flow from one
//! producer over **bounded** per-client queues — [`MultiClientConfig::
//! queue_depth`] frames of backpressure — to the workers. Clients that
//! share an L2 share a worker, as configurations that share an L1 do in
//! the runner: a unified service runs all its clients on one worker, a
//! partitioned one gives each client a worker of its own. Every frame's
//! panics are caught and converted into a quarantine, so a poisoned
//! client never takes the service down.
//!
//! Containment contract (enforced by tests here and in `tests/`):
//!
//! * **Partitioned** L2: every client is bit-identical to a solo
//!   [`SimEngine`] running [`TextureService::solo_config`] — on the wide
//!   path the client itself runs and on the scalar path — no matter what
//!   the other clients do (panic, 100 % fault plans, shed frames).
//! * **Unified** L2: clients share one cache and one page table; their
//!   worker runs each step's frames round-robin in client-id order, so
//!   results are deterministic run to run (they still depend on the
//!   population — that is the point of the experiment).
//! * A retired client (quarantined, errored or done) drops its queue at
//!   once; the producer drops its sender and keeps feeding the survivors.

use crate::runner::{mb, panic_message, pct, RunError};
use crate::store::TraceStore;
use crate::{Outputs, Scale, TextTable};
use mltc_cache::jain_fairness;
use mltc_core::{
    ClientEngine, ClientServiceStats, EngineError, FaultPlan, FrameCounters, L1Config, L2Config,
    L2PartitionMode, QuarantineReason, ServiceConfig, ServiceError, SharedL2, SharedL2Contention,
    SimEngine, TelemetryOpts, TextureService,
};
use mltc_scene::Workload;
use mltc_telemetry::Recorder;
use mltc_texture::TextureRegistry;
use mltc_trace::{FilterMode, FrameTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::Arc;

/// One client of the service: which filter it samples with, where in the
/// shared animation its camera starts, and its chaos knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSpec {
    /// Tap expansion applied at replay time (traces are point-sampled).
    pub filter: FilterMode,
    /// Frame index this client's camera starts at (wraps around).
    pub phase_offset: usize,
    /// Overrides the service's scoped fault plan for this client only
    /// (used as-is, not re-scoped — chaos tests inject exact plans).
    pub fault_override: Option<FaultPlan>,
    /// Panic this client's worker just before running the given frame
    /// index (chaos testing; the panic is injected outside the L2 lock).
    pub panic_at_frame: Option<usize>,
}

impl ClientSpec {
    /// A well-behaved client with no phase offset.
    pub fn new(filter: FilterMode) -> Self {
        Self {
            filter,
            phase_offset: 0,
            fault_override: None,
            panic_at_frame: None,
        }
    }
}

/// Configuration of one multi-client run.
#[derive(Debug, Clone, Copy)]
pub struct MultiClientConfig {
    /// The shared-hierarchy configuration (total L2, partition mode,
    /// per-client admission control, base fault plan).
    pub service: ServiceConfig,
    /// Bounded per-client frame-queue depth; the producer stalls (and
    /// counts the stall) when a queue is full. Clamped to at least 1.
    pub queue_depth: usize,
    /// Frames each client replays; `None` = one full pass over the trace.
    pub steps: Option<usize>,
}

impl Default for MultiClientConfig {
    fn default() -> Self {
        Self {
            service: ServiceConfig::default(),
            queue_depth: 4,
            steps: None,
        }
    }
}

/// What one client did during a run.
#[derive(Debug, Clone)]
pub struct ClientReport {
    /// Client id (index into the spec slice).
    pub id: u32,
    /// Per-frame counters for every frame the client completed.
    pub frames: Vec<FrameCounters>,
    /// Sum over `frames`.
    pub totals: FrameCounters,
    /// Service-layer bookkeeping (denied transfers, shed taps/frames,
    /// peak degradation tier).
    pub service: ClientServiceStats,
    /// Why the client was quarantined, when it was.
    pub quarantined: Option<QuarantineReason>,
    /// A non-quarantine failure (engine error, worker death).
    pub error: Option<RunError>,
    /// Producer stalls on this client's bounded queue (backpressure
    /// events; scheduling noise, never part of the simulated counters).
    pub queue_stalls: u64,
}

impl ClientReport {
    /// Whether the client finished its stream unharmed.
    pub fn is_survivor(&self) -> bool {
        self.quarantined.is_none() && self.error.is_none()
    }

    /// Fraction of taps served without a host transfer (L1 hits + L2
    /// full hits over all taps); the per-client service quality that
    /// fairness is computed over. Zero taps count as rate 0.
    pub fn local_rate(&self) -> f64 {
        local_rate_of(&self.totals)
    }

    /// Plain L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.totals.l1_accesses == 0 {
            0.0
        } else {
            self.totals.l1_hits as f64 / self.totals.l1_accesses as f64
        }
    }
}

fn local_rate_of(c: &FrameCounters) -> f64 {
    if c.l1_accesses == 0 {
        0.0
    } else {
        (c.l1_hits + c.l2_full_hits) as f64 / c.l1_accesses as f64
    }
}

/// The outcome of one [`run_multi_client`] call.
#[derive(Debug, Clone)]
pub struct MultiClientReport {
    /// One report per client, in spec order.
    pub clients: Vec<ClientReport>,
    /// Shared-L2 lock contention over the whole run.
    pub contention: SharedL2Contention,
    /// Jain's fairness index over the survivors' [`ClientReport::
    /// local_rate`] (1.0 = perfectly fair; `k/n` = k clients starved).
    pub fairness: f64,
    /// Frames each client was fed.
    pub steps: usize,
}

impl MultiClientReport {
    /// Clients that finished unharmed.
    pub fn survivors(&self) -> impl Iterator<Item = &ClientReport> {
        self.clients.iter().filter(|c| c.is_survivor())
    }

    /// Ids of the quarantined clients.
    pub fn quarantined_ids(&self) -> Vec<u32> {
        self.clients
            .iter()
            .filter(|c| c.quarantined.is_some())
            .map(|c| c.id)
            .collect()
    }
}

/// One client on its group's worker: its engine, the queue it is fed
/// from (`None` once the client retired) and the error it left with.
struct Seat {
    id: usize,
    spec: ClientSpec,
    engine: ClientEngine,
    rx: Option<Receiver<Arc<FrameTrace>>>,
    error: Option<RunError>,
}

impl Seat {
    /// Runs the client's frame of `step`; `false` when the client retires
    /// (quarantine, engine error, end of stream).
    fn run_step(&mut self, shared: &SharedL2, step: usize) -> bool {
        let Some(trace) = self.rx.as_ref().and_then(|rx| rx.recv().ok()) else {
            return false;
        };
        let spec = self.spec;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if spec.panic_at_frame == Some(step) {
                panic!("injected client panic at frame {step}");
            }
            self.engine.run_frame(shared, &trace, spec.filter)
        }));
        match outcome {
            Ok(Ok(())) => return true,
            Ok(Err(ServiceError::Quarantined { .. })) => {}
            Ok(Err(ServiceError::Engine(e))) => self.error = Some(RunError::Engine(e)),
            Err(payload) => {
                let reason = QuarantineReason::Panicked(panic_message(payload.as_ref()));
                self.engine.quarantine(reason);
            }
        }
        false
    }

    fn report(self, stalls: u64) -> ClientReport {
        ClientReport {
            id: self.id as u32,
            frames: self.engine.frames().to_vec(),
            totals: self.engine.totals(),
            service: self.engine.service_stats(),
            quarantined: self.engine.quarantined().cloned(),
            error: self.error,
            queue_stalls: stalls,
        }
    }
}

/// A group's worker: at each step, each live client's next frame in id
/// order. A client that retires drops its queue at once, so the producer
/// never blocks on a queue nobody reads; deadlock-free because the
/// producer feeds the clients in the order the worker reads them.
fn serve(seats: &mut [Seat], shared: &SharedL2, steps: usize) {
    for step in 0..steps {
        for seat in seats.iter_mut().filter(|s| s.rx.is_some()) {
            if !seat.run_step(shared, step) {
                seat.rx = None;
            }
        }
    }
}

/// Replays `specs.len()` phase-offset camera streams over `frames`
/// through one shared [`TextureService`]: one worker per shared L2, so a
/// unified service's clients take turns on one thread and a partitioned
/// service's clients run on a thread each.
///
/// Per-client failures never abort the run: a panicking or shed-budget
/// client lands in its [`ClientReport`] as quarantined, an engine error
/// as `error`, and the survivors finish their streams. Only *construction*
/// failures (invalid service geometry, empty inputs) return `Err`.
///
/// When `recorder` is enabled, every client gets its own scoped recorder
/// (`c<id>/…`) so counters, per-frame series and histograms are keyed per
/// client in one shared registry.
pub fn run_multi_client(
    registry: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    specs: &[ClientSpec],
    cfg: &MultiClientConfig,
    recorder: &Recorder,
) -> Result<MultiClientReport, RunError> {
    if frames.is_empty() {
        return Err(RunError::Engine(EngineError::InvalidGeometry(
            "multi-client run needs at least one frame".into(),
        )));
    }
    if specs.is_empty() {
        return Err(RunError::Engine(EngineError::InvalidGeometry(
            "multi-client run needs at least one client".into(),
        )));
    }
    let service = TextureService::try_new(cfg.service, registry, specs.len() as u32)?;
    let shared = service.shared_l2();
    let steps = cfg.steps.unwrap_or(frames.len());
    let depth = cfg.queue_depth.max(1);
    let mut stalls = vec![0u64; specs.len()];

    let mut senders = Vec::with_capacity(specs.len());
    let mut seats = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let (tx, rx) = sync_channel::<Arc<FrameTrace>>(depth);
        senders.push(Some(tx));
        let mut engine = match spec.fault_override {
            Some(plan) => service.client_with_fault(i as u32, plan),
            None => service.client(i as u32),
        }?;
        if recorder.is_enabled() {
            // Attribution on: 3C classification hangs off the L1 miss
            // site, which every replay path reaches through the same
            // tap body, so it is exact on the wide path too.
            engine.attach_telemetry_opts(
                &recorder.scoped(&format!("c{i}")),
                &format!("c{i}"),
                "mc",
                TelemetryOpts {
                    attribution: true,
                    ..TelemetryOpts::default()
                },
            );
        }
        seats.push(Seat {
            id: i,
            spec: *spec,
            engine,
            rx: Some(rx),
            error: None,
        });
    }
    // Clients that share an L2 share a worker: one group of every client
    // when unified, one group per client when partitioned.
    let groups: Vec<Vec<Seat>> = if shared.is_unified() {
        vec![seats]
    } else {
        seats.into_iter().map(|seat| vec![seat]).collect()
    };

    let clients = std::thread::scope(|scope| {
        let workers: Vec<_> = groups
            .into_iter()
            .map(|mut group| {
                let ids: Vec<usize> = group.iter().map(|seat| seat.id).collect();
                let worker = scope.spawn(move || {
                    serve(&mut group, shared, steps);
                    group
                });
                (ids, worker)
            })
            .collect();

        // The producer: one pass over the schedule, fanning each client
        // its phase-rotated frame. try_send first so a full queue is
        // observable as a backpressure stall before we block on it.
        for step in 0..steps {
            for (i, spec) in specs.iter().enumerate() {
                let Some(tx) = &senders[i] else { continue };
                let f = Arc::clone(&frames[(step + spec.phase_offset) % frames.len()]);
                let dead = match tx.try_send(f) {
                    Ok(()) => false,
                    Err(TrySendError::Full(f)) => {
                        stalls[i] += 1;
                        tx.send(f).is_err()
                    }
                    Err(TrySendError::Disconnected(_)) => true,
                };
                if dead {
                    // Retired client: its worker dropped the receiver.
                    senders[i] = None;
                }
            }
        }
        drop(senders);

        let mut clients = Vec::with_capacity(specs.len());
        for (ids, worker) in workers {
            match worker.join() {
                Ok(group) => {
                    for seat in group {
                        let queue_stalls = stalls[seat.id];
                        if recorder.is_enabled() {
                            // Scoped health gauges (`c<id>/service/…`):
                            // queue and lock stalls, shed/denied work, p99
                            // frame miss rate. After the final frame, so
                            // the gauges describe the whole run.
                            let scoped = recorder.scoped(&format!("c{}", seat.id));
                            seat.engine.publish_metrics(&scoped, shared, queue_stalls);
                        }
                        clients.push(seat.report(queue_stalls));
                    }
                }
                // The worker catches client panics per frame; one that
                // dies outside them fails every client of its group, as
                // the runner's groups do — report, don't unwind.
                Err(payload) => {
                    let e = RunError::Panicked(panic_message(payload.as_ref()));
                    clients.extend(ids.into_iter().map(|i| ClientReport {
                        id: i as u32,
                        frames: Vec::new(),
                        totals: FrameCounters::default(),
                        service: ClientServiceStats::default(),
                        quarantined: None,
                        error: Some(e.clone()),
                        queue_stalls: stalls[i],
                    }));
                }
            }
        }
        clients
    });

    let rates: Vec<f64> = clients
        .iter()
        .filter(|c| c.is_survivor())
        .map(|c| c.local_rate())
        .collect();
    Ok(MultiClientReport {
        fairness: jain_fairness(&rates),
        contention: shared.contention(),
        clients,
        steps,
    })
}

/// The solo baseline for client `i` of a would-be service over `frames`:
/// a plain [`SimEngine`] under [`TextureService::solo_config`], fed the
/// same phase-rotated stream through the wide (batched) frame loops — the
/// path the service client itself runs. In partitioned mode the service
/// client must match this bit for bit — the containment oracle of the
/// tests, which hold every survivor against [`solo_baseline_scalar`] as
/// well so the gate covers both paths.
pub fn solo_baseline(
    registry: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    specs: &[ClientSpec],
    cfg: &MultiClientConfig,
    client: usize,
) -> Result<SimEngine, RunError> {
    let run = SimEngine::try_run_frame_as_batched;
    solo_replay(registry, frames, specs, cfg, client, run)
}

/// [`solo_baseline`] over the scalar path: one tap at a time through the
/// canonical tap bodies, no wide kernel. The independent half of the
/// containment oracle now that the service replays wide.
pub fn solo_baseline_scalar(
    registry: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    specs: &[ClientSpec],
    cfg: &MultiClientConfig,
    client: usize,
) -> Result<SimEngine, RunError> {
    let run = SimEngine::try_run_frame_as;
    solo_replay(registry, frames, specs, cfg, client, run)
}

fn solo_replay(
    registry: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    specs: &[ClientSpec],
    cfg: &MultiClientConfig,
    client: usize,
    run: fn(&mut SimEngine, &FrameTrace, FilterMode) -> Result<(), EngineError>,
) -> Result<SimEngine, RunError> {
    let service = TextureService::try_new(cfg.service, registry, specs.len() as u32)?;
    let spec = &specs[client];
    let mut solo_cfg = service.solo_config(client as u32);
    if let Some(plan) = spec.fault_override {
        // Mirror run_multi_client: an override replaces the scoped plan
        // verbatim, so the baseline must replay under the same link.
        solo_cfg.fault = plan;
    }
    let mut solo = SimEngine::try_new(solo_cfg, registry)?;
    let steps = cfg.steps.unwrap_or(frames.len());
    for step in 0..steps {
        let trace = &frames[(step + spec.phase_offset) % frames.len()];
        run(&mut solo, trace, spec.filter)?;
    }
    Ok(solo)
}

/// Materialises the workload's trace as shared in-memory frames whatever
/// the store's handle state (memory / disk / uncached): a visitor of the
/// store's feed, so a damaged persisted file is healed on the way. It
/// cannot fail; the `Result` is the signature its callers compile against.
pub fn collect_frames(store: &TraceStore, w: &Workload) -> Result<Vec<Arc<FrameTrace>>, RunError> {
    let scanline = mltc_raster::Traversal::Scanline;
    Ok(store.fold_frames(w, false, scanline, Vec::new, |frames, t| frames.push(t)))
}

/// The client populations the `multiclient` experiment sweeps.
const POPULATIONS: [u32; 4] = [1, 2, 4, 8];

/// The L2 organisations the `multiclient` experiment sweeps, each at
/// every population.
const PARTITION_MODES: [L2PartitionMode; 2] =
    [L2PartitionMode::Partitioned, L2PartitionMode::Unified];

/// The service configuration the `multiclient` experiment sweeps: a
/// fixed **total** L2 budget shared by however many clients run.
pub fn experiment_service_config(partition: L2PartitionMode) -> ServiceConfig {
    ServiceConfig {
        l1: L1Config::kb(4),
        l2: Some(L2Config::mb(4)),
        partition,
        tlb_entries: 16,
        ..ServiceConfig::default()
    }
}

fn p99(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() as f64) * 0.99).ceil() as usize;
    values[idx.clamp(1, values.len()) - 1]
}

/// The `multiclient` experiment: service quality and fairness of the
/// shared L2 as the client population grows, for both sharded
/// (partitioned, one page table per client) and unified (one page table)
/// organisations.
///
/// Summary CSV: one row per (population, partition mode) with Jain's
/// fairness over per-client local-service rates, min/mean/max rates, the
/// p99 per-frame miss rate, host traffic and backpressure stalls.
/// Per-client CSV: one row per client with its rates, traffic and
/// backpressure stalls.
pub fn multiclient(scale: &Scale, out: &Outputs, store: &TraceStore) -> Result<(), RunError> {
    let w = scale.village();
    let frames = collect_frames(store, &w)?;
    let mut summary = TextTable::new(&[
        "clients",
        "partition",
        "fairness",
        "min_rate_pct",
        "mean_rate_pct",
        "max_rate_pct",
        "p99_frame_miss_pct",
        "host_mb",
        "denied",
        "shed_taps",
        "stalls",
    ]);
    let mut per_client = TextTable::new(&[
        "clients",
        "partition",
        "client",
        "local_rate_pct",
        "l1_hit_rate_pct",
        "host_mb",
        "denied_transfers",
        "shed_taps",
        "queue_stalls",
        "quarantined",
    ]);
    for n in POPULATIONS {
        for mode in PARTITION_MODES {
            let specs: Vec<ClientSpec> = (0..n as usize)
                .map(|i| ClientSpec {
                    phase_offset: i * frames.len() / n as usize,
                    ..ClientSpec::new(FilterMode::Bilinear)
                })
                .collect();
            let cfg = MultiClientConfig {
                service: experiment_service_config(mode),
                ..MultiClientConfig::default()
            };
            let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &store.recorder())?;
            // With no faults and no admission budgets every client must
            // finish; anything else is a bug worth failing the suite for.
            for c in &report.clients {
                if let Some(e) = &c.error {
                    return Err(e.clone());
                }
                if let Some(q) = &c.quarantined {
                    return Err(RunError::Panicked(format!(
                        "client {} unexpectedly quarantined: {q}",
                        c.id
                    )));
                }
            }
            let mode_name = match mode {
                L2PartitionMode::Partitioned => "partitioned",
                L2PartitionMode::Unified => "unified",
            };
            let rates: Vec<f64> = report.clients.iter().map(|c| c.local_rate()).collect();
            let frame_misses: Vec<f64> = report
                .clients
                .iter()
                .flat_map(|c| c.frames.iter().map(|f| 1.0 - local_rate_of(f)))
                .collect();
            let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = rates.iter().cloned().fold(0.0, f64::max);
            let mean = rates.iter().sum::<f64>() / rates.len() as f64;
            let host: u64 = report.clients.iter().map(|c| c.totals.host_bytes).sum();
            let denied: u64 = report
                .clients
                .iter()
                .map(|c| c.service.denied_transfers)
                .sum();
            let shed: u64 = report.clients.iter().map(|c| c.service.shed_taps).sum();
            let stalls: u64 = report.clients.iter().map(|c| c.queue_stalls).sum();
            summary.row(vec![
                n.to_string(),
                mode_name.to_string(),
                format!("{:.4}", report.fairness),
                pct(min),
                pct(mean),
                pct(max),
                pct(p99(frame_misses)),
                mb(host),
                denied.to_string(),
                shed.to_string(),
                stalls.to_string(),
            ]);
            for c in &report.clients {
                per_client.row(vec![
                    n.to_string(),
                    mode_name.to_string(),
                    c.id.to_string(),
                    pct(c.local_rate()),
                    pct(c.l1_hit_rate()),
                    mb(c.totals.host_bytes),
                    c.service.denied_transfers.to_string(),
                    c.service.shed_taps.to_string(),
                    c.queue_stalls.to_string(),
                    c.quarantined
                        .as_ref()
                        .map(|q| q.to_string())
                        .unwrap_or_else(|| "-".to_string()),
                ]);
            }
        }
    }
    out.table(
        "multiclient",
        "Shared-L2 fairness vs client population (Village)",
        &summary,
    );
    out.table(
        "multiclient_clients",
        "Per-client service quality by population and partition mode",
        &per_client,
    );
    out.note(
        "local rate = taps served without a host transfer (L1 hits + L2 full hits).\n\
         fairness = Jain's index over per-client local rates (1.0 = perfectly fair).\n\
         partitioned = total L2 split N ways (sharded page tables, bit-identical to\n\
         solo baselines); unified = one cache + page table shared by all clients.",
    );
    // With telemetry on, attribution heat maps (per-set L1 pressure,
    // L2 page-index pressure, per client) land next to multiclient.csv.
    let snap = store.recorder().snapshot();
    if !snap.heatmaps.is_empty() {
        let path = out.artefact_path("multiclient_heatmaps.csv");
        let mut csv = Vec::new();
        mltc_telemetry::export::write_heatmaps_csv(&snap.heatmaps, &mut csv)
            .and_then(|()| std::fs::write(&path, csv))
            .map_err(|e| RunError::Panicked(format!("writing {}: {e}", path.display())))?;
        out.note(&format!("wrote {}", path.display()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltc_core::AdmissionControl;
    use mltc_scene::WorkloadParams;

    fn tiny_village() -> Workload {
        Workload::village(&WorkloadParams::tiny())
    }

    fn specs(n: usize, frames: usize) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| ClientSpec {
                phase_offset: i * frames / n,
                ..ClientSpec::new(FilterMode::Bilinear)
            })
            .collect()
    }

    fn faulty_cfg(mode: L2PartitionMode) -> MultiClientConfig {
        MultiClientConfig {
            service: ServiceConfig {
                fault: FaultPlan::with_rate(0x4d4c_5443, 50_000),
                ..experiment_service_config(mode)
            },
            ..MultiClientConfig::default()
        }
    }

    #[test]
    fn partitioned_clients_match_their_solo_baselines() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let specs = specs(4, frames.len());
        let cfg = faulty_cfg(L2PartitionMode::Partitioned);
        let report =
            run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled()).unwrap();
        assert_eq!(report.quarantined_ids(), Vec::<u32>::new());
        assert!((report.fairness - 1.0).abs() < 0.5, "{}", report.fairness);
        for c in &report.clients {
            let solo = solo_baseline(w.registry(), &frames, &specs, &cfg, c.id as usize).unwrap();
            assert_eq!(
                c.frames,
                solo.frames(),
                "client {} must be bit-identical to its solo baseline",
                c.id
            );
        }
    }

    #[test]
    fn injected_panic_quarantines_one_client_and_spares_the_rest() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let mut specs = specs(4, frames.len());
        specs[2].panic_at_frame = Some(1);
        let cfg = faulty_cfg(L2PartitionMode::Partitioned);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report =
            run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled()).unwrap();
        std::panic::set_hook(prev_hook);
        assert_eq!(report.quarantined_ids(), vec![2]);
        let poisoned = &report.clients[2];
        assert!(matches!(
            poisoned.quarantined,
            Some(QuarantineReason::Panicked(ref m)) if m.contains("injected")
        ));
        // The panic fired before frame 1 started: exactly one frame done.
        assert_eq!(poisoned.frames.len(), 1);
        for c in report.survivors() {
            let solo = solo_baseline(w.registry(), &frames, &specs, &cfg, c.id as usize).unwrap();
            assert_eq!(
                c.frames,
                solo.frames(),
                "survivor {} must be unaffected by the poisoned client",
                c.id
            );
            assert_eq!(c.frames.len(), frames.len());
        }
    }

    #[test]
    fn hundred_percent_fault_override_is_scoped_to_its_client() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let mut specs = specs(3, frames.len());
        specs[1].fault_override = Some(FaultPlan {
            max_attempts: 1,
            ..FaultPlan::with_rate(7, 1_000_000)
        });
        let cfg = MultiClientConfig {
            service: experiment_service_config(L2PartitionMode::Partitioned),
            ..MultiClientConfig::default()
        };
        let report =
            run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled()).unwrap();
        assert!(report.clients[1].totals.failed_transfers > 0);
        assert_eq!(report.clients[1].totals.host_bytes, 0);
        assert_eq!(report.clients[0].totals.failed_transfers, 0);
        assert_eq!(report.clients[2].totals.failed_transfers, 0);
        // Every client — including the 100%-faulted one — matches its
        // solo baseline (the baseline honours the override).
        for id in [0usize, 1, 2] {
            let solo = solo_baseline(w.registry(), &frames, &specs, &cfg, id).unwrap();
            assert_eq!(report.clients[id].frames, solo.frames(), "client {id}");
        }
    }

    #[test]
    fn queue_depth_only_affects_scheduling() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let specs = specs(3, frames.len());
        let narrow = MultiClientConfig {
            queue_depth: 1,
            ..faulty_cfg(L2PartitionMode::Partitioned)
        };
        let wide = MultiClientConfig {
            queue_depth: 64,
            ..narrow
        };
        let a = run_multi_client(
            w.registry(),
            &frames,
            &specs,
            &narrow,
            &Recorder::disabled(),
        )
        .unwrap();
        let b =
            run_multi_client(w.registry(), &frames, &specs, &wide, &Recorder::disabled()).unwrap();
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(x.frames, y.frames, "backpressure must not change results");
        }
    }

    #[test]
    fn unified_mode_is_deterministic_run_to_run() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let specs = specs(4, frames.len());
        let cfg = faulty_cfg(L2PartitionMode::Unified);
        let a =
            run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled()).unwrap();
        let b =
            run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled()).unwrap();
        for (x, y) in a.clients.iter().zip(&b.clients) {
            assert_eq!(
                x.frames, y.frames,
                "the round-robin loop must pin the interleaving"
            );
        }
        assert!(a.contention.acquisitions > 0);
    }

    #[test]
    fn shed_budget_quarantine_retires_the_client_gracefully() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let specs = specs(2, frames.len());
        let cfg = MultiClientConfig {
            service: ServiceConfig {
                admission: AdmissionControl {
                    soft_transfers_per_frame: 1,
                    hard_transfers_per_frame: 1,
                    quarantine_after_shed_frames: 1,
                },
                ..experiment_service_config(L2PartitionMode::Partitioned)
            },
            ..MultiClientConfig::default()
        };
        let report =
            run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled()).unwrap();
        assert_eq!(report.quarantined_ids(), vec![0, 1]);
        for c in &report.clients {
            assert!(matches!(
                c.quarantined,
                Some(QuarantineReason::ShedBudget { .. })
            ));
            assert!(c.service.shed_taps > 0);
        }
    }

    #[test]
    fn per_client_telemetry_is_scoped() {
        let w = tiny_village();
        let store = TraceStore::in_memory();
        let frames = collect_frames(&store, &w).unwrap();
        let specs = specs(2, frames.len());
        let cfg = MultiClientConfig {
            service: experiment_service_config(L2PartitionMode::Partitioned),
            ..MultiClientConfig::default()
        };
        let rec = Recorder::enabled();
        let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &rec).unwrap();
        let snap = rec.snapshot();
        for c in &report.clients {
            let key = format!("c{}/engine/mc/l1_hits", c.id);
            assert_eq!(snap.counters[&key], c.totals.l1_hits);
            // Attribution is exact on the service path: per client, the
            // 3C classes partition the misses at both levels.
            let cnt = |n: &str| {
                snap.counters
                    .get(&format!("c{}/{n}", c.id))
                    .copied()
                    .unwrap_or(0)
            };
            let l1_misses = c.totals.l1_accesses - c.totals.l1_hits;
            assert_eq!(
                cnt("attrib/mc/l1/compulsory")
                    + cnt("attrib/mc/l1/capacity")
                    + cnt("attrib/mc/l1/conflict"),
                l1_misses,
                "client {} L1 3C conservation",
                c.id
            );
            assert_eq!(
                cnt("attrib/mc/l2/compulsory")
                    + cnt("attrib/mc/l2/capacity")
                    + cnt("attrib/mc/l2/conflict"),
                c.totals.l2_full_misses,
                "client {} L2 3C conservation",
                c.id
            );
            // publish_metrics ran after the join: the scoped service
            // gauges are present.
            for g in ["service/frames_run", "service/p99_frame_miss_rate"] {
                assert!(
                    snap.gauges.contains_key(&format!("c{}/{g}", c.id)),
                    "client {} missing gauge {g}",
                    c.id
                );
            }
            assert!(snap
                .heatmaps
                .contains_key(&format!("c{}/attrib/mc/l1/miss_bins", c.id)));
        }
    }

    #[test]
    fn experiment_writes_summary_and_per_client_csv() {
        let dir = std::env::temp_dir().join(format!("mltc-multiclient-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = Outputs::quiet(&dir);
        let store = TraceStore::in_memory();
        multiclient(&Scale::tiny(), &out, &store).unwrap();
        let summary = std::fs::read_to_string(out.artefact_path("multiclient.csv")).unwrap();
        // Header + (4 populations × 2 modes).
        assert_eq!(summary.lines().count(), 9, "{summary}");
        let per_client =
            std::fs::read_to_string(out.artefact_path("multiclient_clients.csv")).unwrap();
        // Header + (1+2+4+8) clients × 2 modes.
        assert_eq!(per_client.lines().count(), 31, "{per_client}");
        assert!(summary.lines().nth(1).unwrap().starts_with("1,partitioned"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
