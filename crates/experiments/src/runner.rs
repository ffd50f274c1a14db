//! Shared run machinery: look up (or render once) a trace, replay it
//! through many cache configurations.
//!
//! There is one way from the [`TraceStore`]'s answer to an engine:
//!
//! * the store's *feed* (`TraceStore::feed`) alone turns a [`TraceHandle`],
//!   whichever of its three states it is in, into frames, each a decoded,
//!   shared `Arc<FrameTrace>`: a resident trace's own, a live
//!   rasterization's, or one a disk stream decoded once on the feed's
//!   thread;
//! * one group routine ([`Replay::run_group`]) replays them: its leader
//!   takes a [`jobs`] permit per frame, then runs the frame on the selected
//!   [`ReplayPath`] through the engine's non-generic `_as` entries — the
//!   one place an entry point is chosen. Stored traces are point-sampled,
//!   so the requested filter is applied here
//!   ([`SimEngine::try_run_frame_as`]);
//! * two drivers put frames in front of that routine. Over a resident trace
//!   ([`TraceHandle::Memory`]) every worker walks the shared slice itself —
//!   no channel, no producer ([`replay_resident`]). Anything else is
//!   *producer-fed* ([`replay_fed`]): the feed runs once on the calling
//!   thread and fans each frame out over one bounded channel per group.
//!
//! A worker replays one *group*: wherever the frames come from,
//! configurations whose engines share an L1 ([`SimEngine::shares_l1_with`])
//! share one [`L1Pass`], the only way configurations share an L1. The
//! group's leader walks the frames and records its pass; every other member
//! replays the pass ([`SimEngine::replay_pass_frame`]), each on a worker of
//! its own under the same per-frame permits. Everything else is a group of
//! one. Each configuration still gets its own `Result`: a leader's error is
//! every member's error, and a member that fails while replaying the pass
//! fails alone.
//!
//! From memory the pass outlives the call: a run in which every
//! configuration succeeded leaves each group's pass beside the resident
//! trace ([`TraceStore::keep_pass`]) — so over a resident trace even a group
//! of one records — and a later group on the same L1, in any `engine_run*`
//! call over that store, has no leader: every member replays the stored
//! pass (DESIGN.md §14, "Stored passes"). Producer-fed replays keep and
//! find no pass; their groups' fresh passes, O(misses) bytes outside the
//! store's budget, live until the stream has ended and the members have
//! replayed them.
//!
//! A streamed file found damaged mid-replay fails that replay — its engines
//! saw a prefix — with [`RunError::Trace`] on every configuration; the feed
//! has told the store, so the next `engine_run*` re-renders, heals the file
//! and succeeds.

use crate::store::{StatsBundle, TraceHandle, TraceSet, TraceStore};
use mltc_core::{jobs, EngineConfig, EngineError, FramePrep, L1Pass, PreparedFrame, SimEngine};
use mltc_scene::{traversal_tag, Workload};
use mltc_telemetry::Recorder;
use mltc_texture::TextureRegistry;
use mltc_trace::{FilterMode, FrameTrace};
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

pub use mltc_core::jobs::{max_replay_jobs, set_max_replay_jobs};

/// The engine path replay workers drive; indexes into [`ReplayPath`]'s
/// discriminants. Defaults to the wide (batched) kernel.
static REPLAY_PATH: AtomicUsize = AtomicUsize::new(ReplayPath::Batched as usize);

/// Which engine replay path configuration workers drive. Every path is
/// bit-identical — the golden tests, the oracle lockstep and the
/// conformance matrix all enforce it — so switching paths only moves
/// wall-clock time, never a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayPath {
    /// The canonical scalar tap loop
    /// ([`SimEngine::try_run_frame_as`]).
    Scalar,
    /// The wide tap kernel: per-fragment lane batches probe the L1
    /// branch-free and commit wide on all-hit batches
    /// ([`SimEngine::try_run_frame_as_batched`]). The default.
    #[default]
    Batched,
    /// The batched kernel fed by a frame pipeline: a prep thread decodes
    /// frame N+1 ([`FramePrep`]) while the engine runs frame N through the
    /// wide frame loop ([`SimEngine::try_run_frame_prepared`]). Both
    /// stages take [`jobs`] permits per frame, so the `--jobs` budget
    /// still bounds concurrent CPU burn; with `--jobs 1` the stages
    /// simply alternate.
    Pipelined,
}

impl ReplayPath {
    /// The flag/report spelling: `scalar`, `batched` or `pipelined`.
    pub fn name(self) -> &'static str {
        match self {
            ReplayPath::Scalar => "scalar",
            ReplayPath::Batched => "batched",
            ReplayPath::Pipelined => "pipelined",
        }
    }

    /// Parses [`name`](Self::name)'s spellings (the `--replay-path` flag).
    pub fn parse(s: &str) -> Option<ReplayPath> {
        match s {
            "scalar" => Some(ReplayPath::Scalar),
            "batched" => Some(ReplayPath::Batched),
            "pipelined" => Some(ReplayPath::Pipelined),
            _ => None,
        }
    }
}

/// Selects the replay path for subsequent runs (the `--replay-path` flag).
pub fn set_replay_path(path: ReplayPath) {
    REPLAY_PATH.store(path as usize, Relaxed);
}

/// The replay path new workers will drive.
pub fn replay_path() -> ReplayPath {
    match REPLAY_PATH.load(Relaxed) {
        0 => ReplayPath::Scalar,
        2 => ReplayPath::Pipelined,
        _ => ReplayPath::Batched,
    }
}

/// Locks `m`, recovering from poisoning. State under the harness's locks
/// is plain bookkeeping (memo maps, counters, kept passes) that stays
/// consistent even when a holder panicked mid-update, and one poisoned
/// worker must never cascade a panic into every other thread — worker
/// failures are reported as typed [`RunError`]s instead.
pub(crate) fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Frames the pipelined path keeps in flight between the prep thread and
/// the engine: deep enough to hide stage jitter, shallow enough that a
/// recycled [`PreparedFrame`] pool of `PIPELINE_DEPTH + 2` buffers (the
/// queue, one at each stage) keeps the steady state allocation-free.
const PIPELINE_DEPTH: usize = 2;

/// One configuration's frame-pipelined replay: a prep thread collects each
/// fed frame's requests ([`FramePrep`]) into a [`PreparedFrame`] under
/// `filter` while the engine runs the previous one through the wide frame
/// loop. Prepared buffers recycle through a return channel, so after
/// warm-up no allocation happens per frame.
///
/// Both stages take a [`jobs`] permit per frame and neither blocks on a
/// channel while holding one (the prep side grabs its recycled buffer
/// *before* acquiring, and the recycle channel is deep enough that
/// returns never block), so the `--jobs` budget bounds concurrent CPU
/// burn without deadlock even at one permit.
///
/// An engine error (unknown texture) stops the replay on that frame with
/// the frame left open, exactly like the unpipelined worker loop.
fn replay_pipelined(
    engine: &mut SimEngine,
    registry: &TextureRegistry,
    frames: impl IntoIterator<Item = Arc<FrameTrace>> + Send,
    filter: FilterMode,
) -> Result<(), RunError> {
    let prep = FramePrep::new(&engine.config(), registry);
    let (ptx, prx) = sync_channel::<PreparedFrame>(PIPELINE_DEPTH);
    let (rtx, rrx) = sync_channel::<PreparedFrame>(PIPELINE_DEPTH + 2);
    for _ in 0..PIPELINE_DEPTH + 2 {
        let _ = rtx.send(PreparedFrame::default());
    }
    std::thread::scope(|scope| {
        let prep_worker = scope.spawn(move || {
            for frame in frames {
                let mut buf = rrx.recv().unwrap_or_default();
                {
                    let _permit = jobs::acquire();
                    prep.prepare(filter, frame.requests.iter().copied(), &mut buf);
                }
                if ptx.send(buf).is_err() {
                    break; // engine side bailed; it reports the error
                }
            }
        });
        let mut sim_result = Ok(());
        for buf in &prx {
            let _permit = jobs::acquire();
            let replayed = engine.try_run_frame_prepared(&buf);
            let _ = rtx.send(buf);
            if let Err(e) = replayed {
                sim_result = Err(RunError::Engine(e));
                break;
            }
        }
        // Unblock a prep thread parked on a full prepared queue (after an
        // engine error) before joining it.
        drop(prx);
        drop(rtx);
        let prepped = prep_worker
            .join()
            .map_err(|payload| RunError::Panicked(panic_message(payload.as_ref())));
        sim_result.and(prepped)
    })
}

/// Why one configuration's replay produced no finished engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The engine rejected the configuration or the trace.
    Engine(EngineError),
    /// The worker thread panicked; the payload's message when it had one.
    Panicked(String),
    /// A persisted trace file failed mid-replay (corruption detected
    /// after streaming began), so the replay's counters are unusable.
    Trace(String),
    /// A service client was quarantined mid-run (multi-client replays);
    /// the payload is the rendered [`QuarantineReason`]
    /// (`mltc_core::QuarantineReason`).
    Quarantined(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Engine(e) => write!(f, "engine error: {e}"),
            RunError::Panicked(msg) => write!(f, "engine worker panicked: {msg}"),
            RunError::Trace(msg) => write!(f, "trace replay failed: {msg}"),
            RunError::Quarantined(msg) => write!(f, "client quarantined: {msg}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Engine(e) => Some(e),
            RunError::Panicked(_) | RunError::Trace(_) | RunError::Quarantined(_) => None,
        }
    }
}

impl From<EngineError> for RunError {
    fn from(e: EngineError) -> Self {
        RunError::Engine(e)
    }
}

/// The §4 per-frame working-set statistics for `workload`, computed at
/// most once per process (memoized in the store, derived from the cached
/// trace).
pub fn stats_run(store: &TraceStore, workload: &Workload) -> Arc<StatsBundle> {
    store.stats_bundle(workload)
}

/// Replays already-rendered frames through each cache configuration — one
/// worker thread per group of configurations sharing an L1, every worker
/// reading the same shared frames (the paper's rasterize-once, trace-driven
/// methodology, parallelised across the *configurations*, never across
/// frames: cache state must carry between frames to capture inter-frame
/// locality).
///
/// `filter` selects the tap expansion applied at simulation time; the
/// frames themselves are filter-independent.
///
/// Returns one result per configuration, in input order. A configuration
/// whose worker fails yields `Err` for that slot only; the surviving
/// configurations finish normally.
pub fn replay_run(
    registry: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    filter: FilterMode,
    configs: &[EngineConfig],
) -> Vec<Result<SimEngine, RunError>> {
    let plan = plan_replay(registry, configs, &|_, cfg, reg| {
        SimEngine::try_new(cfg, reg)
    });
    replay_resident(registry, frames, filter, plan, &Recorder::disabled()).0
}

/// Looks up (or renders once) the workload's trace and replays it through
/// each configuration. See [`replay_run`] for the per-configuration
/// failure contract.
///
/// `zprepass` applies the §6 z-buffer-before-texture ablation to the
/// trace.
pub fn engine_run(
    store: &TraceStore,
    workload: &Workload,
    filter: FilterMode,
    configs: &[EngineConfig],
    zprepass: bool,
) -> Vec<Result<SimEngine, RunError>> {
    engine_run_traversal(
        store,
        workload,
        filter,
        configs,
        zprepass,
        mltc_raster::Traversal::Scanline,
    )
}

/// [`engine_run`] with an explicit fragment traversal order (for the
/// tiled-rasterization ablation of §2.3).
pub fn engine_run_traversal(
    store: &TraceStore,
    workload: &Workload,
    filter: FilterMode,
    configs: &[EngineConfig],
    zprepass: bool,
    traversal: mltc_raster::Traversal,
) -> Vec<Result<SimEngine, RunError>> {
    engine_run_traversal_with(
        store,
        workload,
        filter,
        configs,
        zprepass,
        traversal,
        &|_, cfg, reg| SimEngine::try_new(cfg, reg),
    )
}

/// All-or-nothing [`engine_run`]: the first failed configuration aborts the
/// whole batch. Most experiments use this — their configurations are static
/// and a failure is a bug worth surfacing, not routing around.
pub fn engine_run_all(
    store: &TraceStore,
    workload: &Workload,
    filter: FilterMode,
    configs: &[EngineConfig],
    zprepass: bool,
) -> Result<Vec<SimEngine>, RunError> {
    engine_run(store, workload, filter, configs, zprepass)
        .into_iter()
        .collect()
}

/// All-or-nothing [`engine_run_traversal`].
pub fn engine_run_traversal_all(
    store: &TraceStore,
    workload: &Workload,
    filter: FilterMode,
    configs: &[EngineConfig],
    zprepass: bool,
    traversal: mltc_raster::Traversal,
) -> Result<Vec<SimEngine>, RunError> {
    engine_run_traversal(store, workload, filter, configs, zprepass, traversal)
        .into_iter()
        .collect()
}

/// The engine-construction seam: tests inject factories that fail or panic
/// to exercise worker isolation without needing a genuinely broken engine.
/// The first argument is the configuration's position in the run.
type EngineFactory<'a> =
    dyn Fn(usize, EngineConfig, &TextureRegistry) -> Result<SimEngine, EngineError> + Sync + 'a;

/// One replay worker's engines: `engines[0]` leads and the rest share its
/// L1 ([`SimEngine::shares_l1_with`]), so they replay the [`L1Pass`] it
/// records. `slots[i]` is `engines[i]`'s position in the run's
/// configurations.
struct Group {
    slots: Vec<usize>,
    engines: Vec<SimEngine>,
    /// Telemetry label of the leader's configuration (names the worker's
    /// span).
    label: String,
    /// A pass an earlier run stored that answers this group's L1: nobody
    /// walks the frames, every member replays the pass.
    stored: Option<Arc<L1Pass>>,
}

/// A run's engines, built and grouped for replay.
struct Plan {
    /// Per configuration, why its engine could not be built.
    failed: Vec<Option<RunError>>,
    groups: Vec<Group>,
    /// Whether configurations sharing an L1 were grouped.
    share: bool,
    /// Whether the trace is resident, so the passes the groups record are
    /// kept beside it: then a group of one records too.
    keep: bool,
}

impl Plan {
    /// Replays over `set`, a resident trace: groups whose L1 pass an
    /// earlier run left there replay that, the others record theirs.
    fn use_stored_passes(&mut self, set: &TraceSet, filter: FilterMode) {
        self.keep = true;
        for g in &mut self.groups {
            g.stored = set.stored_pass(&g.engines[0], filter);
        }
    }

    /// How the configurations are answered: L1 passes run, members
    /// replaying one of those, members replaying a stored pass.
    fn l1_passes(&self) -> (u64, u64, u64) {
        let (mut run, mut shared, mut reused) = (0, 0, 0);
        for g in &self.groups {
            let members = g.engines.len() as u64;
            match g.stored {
                Some(_) => reused += members,
                None => {
                    run += 1;
                    shared += members - 1;
                }
            }
        }
        (run, shared, reused)
    }
}

/// A configuration's telemetry label within a run: its
/// [`EngineConfig::label`] plus its position, because sweeps over anything
/// the label leaves out (TLB entries, replacement policy) would otherwise
/// all record under one name.
fn slot_label(slot: usize, cfg: &EngineConfig) -> String {
    format!("{} [{slot}]", cfg.label())
}

/// Builds every configuration's engine — each under its own
/// `catch_unwind`, so an invalid or panicking configuration fails alone —
/// and groups the survivors: on the batched path, wherever the frames come
/// from (DESIGN.md §14), an engine joins the first group whose leader it
/// shares an L1 with; everything else (faults, telemetry or timing
/// attached) replays solo, as everything does on the other paths.
fn plan_replay(
    registry: &TextureRegistry,
    configs: &[EngineConfig],
    factory: &EngineFactory<'_>,
) -> Plan {
    let share = replay_path() == ReplayPath::Batched;
    let mut failed = Vec::with_capacity(configs.len());
    let mut groups: Vec<Group> = Vec::new();
    for (slot, cfg) in configs.iter().enumerate() {
        let built = catch_unwind(AssertUnwindSafe(|| factory(slot, *cfg, registry)))
            .map_err(|payload| RunError::Panicked(panic_message(payload.as_ref())))
            .and_then(|built| built.map_err(RunError::Engine));
        let engine = match built {
            Ok(engine) => engine,
            Err(e) => {
                failed.push(Some(e));
                continue;
            }
        };
        failed.push(None);
        match groups
            .iter_mut()
            .find(|g| share && g.engines[0].shares_l1_with(&engine))
        {
            Some(g) => {
                g.slots.push(slot);
                g.engines.push(engine);
            }
            None => groups.push(Group {
                slots: vec![slot],
                engines: vec![engine],
                label: slot_label(slot, cfg),
                stored: None,
            }),
        }
    }
    Plan {
        failed,
        groups,
        share,
        keep: false,
    }
}

/// A group's worker: its members' slots, kept outside the thread so a
/// panicking worker still fails exactly its own members.
type GroupHandle<'scope> = (
    Vec<usize>,
    std::thread::ScopedJoinHandle<'scope, Vec<Result<SimEngine, RunError>>>,
);

/// Joins the group workers and lays their members' results (a panicked
/// worker's error cloned to every member) back out in configuration order.
fn join_groups(
    failed: Vec<Option<RunError>>,
    workers: Vec<GroupHandle<'_>>,
) -> Vec<Result<SimEngine, RunError>> {
    let mut results: Vec<_> = failed.into_iter().map(|e| e.map(Err)).collect();
    for (slots, handle) in workers {
        let members = handle.join().unwrap_or_else(|payload| {
            let e = RunError::Panicked(panic_message(payload.as_ref()));
            slots.iter().map(|_| Err(e.clone())).collect()
        });
        for (&slot, result) in slots.iter().zip(members) {
            results[slot] = Some(result);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every configuration failed to build or joined a group"))
        .collect()
}

fn engine_run_traversal_with(
    store: &TraceStore,
    workload: &Workload,
    filter: FilterMode,
    configs: &[EngineConfig],
    zprepass: bool,
    traversal: mltc_raster::Traversal,
    factory: &EngineFactory<'_>,
) -> Vec<Result<SimEngine, RunError>> {
    let rec = store.recorder();
    // One tag per (workload, render options, filter) run: engine series
    // labels hang off it, so rows from different runs never interleave.
    let run_tag = format!(
        "{}/{}/{}/{:?}",
        workload.kind.name(),
        if zprepass { "zpre" } else { "late" },
        traversal_tag(traversal),
        filter
    );
    let _run_span = rec.span(&format!("run/{run_tag}"));
    let group = workload.kind.name();
    let wrapped =
        |slot: usize, cfg: EngineConfig, reg: &TextureRegistry| -> Result<SimEngine, EngineError> {
            let mut engine = factory(slot, cfg, reg)?;
            if rec.is_enabled() {
                let label = format!("{run_tag}/{}", slot_label(slot, &cfg));
                engine.attach_telemetry(&rec, &label, group);
            }
            Ok(engine)
        };
    let handle = store.get_or_render(workload, zprepass, traversal);
    let start = Instant::now();
    let registry = workload.registry();
    let mut plan = plan_replay(registry, configs, &wrapped);
    if let (true, TraceHandle::Memory(set)) = (plan.share, &handle) {
        plan.use_stored_passes(set, filter);
    }
    let (run, shared, reused) = plan.l1_passes();
    store.note_l1_passes(run, shared, reused);
    let results = match &handle {
        TraceHandle::Memory(set) => {
            let (results, passes) = replay_resident(registry, &set.frames, filter, plan, &rec);
            // Only a run in which nothing failed leaves its passes behind.
            if results.iter().all(Result::is_ok) {
                for pass in passes {
                    store.keep_pass(set, pass);
                }
            }
            results
        }
        streamed => replay_fed(registry, filter, plan, &rec, |visit| {
            store.feed(streamed, workload, zprepass, traversal, visit)
        }),
    };
    // Taps answered: a member that shared its leader's L1 pass, or replayed
    // a stored one, counts the pass's taps again, exactly as its solo
    // replay would have.
    let taps: u64 = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|e| e.totals().l1_accesses)
        .sum();
    store.note_sim(taps, start.elapsed().as_nanos() as u64);
    results
}

/// What the group workers of one replay share.
struct Replay<'a> {
    registry: &'a TextureRegistry,
    filter: FilterMode,
    path: ReplayPath,
    rec: &'a Recorder,
    /// Whether every group records its L1 pass for the store (the trace is
    /// resident), and where those that recorded to the end leave it.
    keep: bool,
    kept: Mutex<Vec<Arc<L1Pass>>>,
}

impl<'a> Replay<'a> {
    fn new(registry: &'a TextureRegistry, filter: FilterMode, rec: &'a Recorder) -> Self {
        Self {
            registry,
            filter,
            path: replay_path(),
            rec,
            keep: false,
            kept: Mutex::default(),
        }
    }

    /// The one group routine, the same whether `frames` is the resident
    /// slice or a channel. Unless a stored pass answers the group, its
    /// leader walks the frames, recording its pass when the group has
    /// followers or the trace is resident; then every other member replays
    /// the pass, each on a worker of its own under the same per-frame
    /// permits. One result per member, in the group's order: a leader's
    /// error is every member's, a member that fails replaying the pass
    /// fails alone.
    fn run_group<I>(&self, group: Group, frames: I) -> Vec<Result<SimEngine, RunError>>
    where
        I: IntoIterator<Item = Arc<FrameTrace>> + Send,
    {
        let _span = self.rec.span(&format!("replay/{}", group.label));
        let (mut members, mut done) = (group.engines, Vec::new());
        let pass = match group.stored {
            Some(pass) => pass,
            None => {
                let mut leader = members.remove(0);
                let record = self.keep || !members.is_empty();
                let pass = match self.lead(&mut leader, frames, record) {
                    Ok(pass) => pass,
                    Err(e) => return (0..=members.len()).map(|_| Err(e.clone())).collect(),
                };
                done.push(Ok(leader));
                let Some(pass) = pass else {
                    assert!(members.is_empty(), "a leader sharing its L1 records a pass");
                    return done;
                };
                let pass = Arc::new(pass);
                if self.keep {
                    lock_clean(&self.kept).push(pass.clone());
                }
                pass
            }
        };
        done.extend(self.replay_pass(&pass, members));
        done
    }

    /// Replays `pass` into each of `members`, each on a worker of its own
    /// under the same per-frame permits: once the miss stream exists they
    /// are independent, so one that fails fails alone.
    fn replay_pass(
        &self,
        pass: &L1Pass,
        members: Vec<SimEngine>,
    ) -> Vec<Result<SimEngine, RunError>> {
        std::thread::scope(|scope| {
            let workers: Vec<_> = members
                .into_iter()
                .map(|mut engine| {
                    scope.spawn(move || {
                        for frame in 0..pass.frame_count() {
                            let _permit = jobs::acquire();
                            engine.replay_pass_frame(pass, frame);
                        }
                        engine
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| {
                    w.join()
                        .map_err(|payload| RunError::Panicked(panic_message(payload.as_ref())))
                })
                .collect()
        })
    }

    /// The leader's walk: a [`jobs`] permit per frame, so at most
    /// [`max_replay_jobs`] workers simulate at any instant, then the frame
    /// on the replay path; with `record`, the batched path's pass.
    fn lead<I>(
        &self,
        leader: &mut SimEngine,
        frames: I,
        record: bool,
    ) -> Result<Option<L1Pass>, RunError>
    where
        I: IntoIterator<Item = Arc<FrameTrace>> + Send,
    {
        let filter = self.filter;
        if self.path == ReplayPath::Pipelined {
            // One more thread for the leader, still permit-gated per frame.
            replay_pipelined(leader, self.registry, frames, filter)?;
            return Ok(None);
        }
        let mut recorder = record.then(|| leader.record_l1_pass(filter));
        for frame in frames {
            let _permit = jobs::acquire();
            match (self.path, &mut recorder) {
                (ReplayPath::Scalar, _) => leader.try_run_frame_as(&frame, filter)?,
                // The batched path; a pipelined leader went its way above.
                (_, Some(r)) => leader.try_run_frame_recorded_as(&frame, r)?,
                (_, None) => leader.try_run_frame_as_batched(&frame, filter)?,
            }
        }
        Ok(recorder.and_then(|r| r.finish(leader)))
    }
}

/// Resident replay: no channel, no producer — every group's worker walks
/// the shared frame list at its own pace (a group answered by a stored
/// pass walks nothing). Returns the passes the groups recorded to the
/// end, when the plan keeps them, beside the results.
fn replay_resident(
    registry: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    filter: FilterMode,
    plan: Plan,
    rec: &Recorder,
) -> (Vec<Result<SimEngine, RunError>>, Vec<Arc<L1Pass>>) {
    let mut replay = Replay::new(registry, filter, rec);
    replay.keep = plan.keep;
    let results = std::thread::scope(|scope| {
        let replay = &replay;
        let workers = plan
            .groups
            .into_iter()
            .map(|mut group| {
                let slots = std::mem::take(&mut group.slots);
                let walk = frames.iter().cloned();
                (slots, scope.spawn(move || replay.run_group(group, walk)))
            })
            .collect();
        join_groups(plan.failed, workers)
    });
    let kept = replay.kept.into_inner();
    (results, kept.unwrap_or_else(PoisonError::into_inner))
}

/// Sends `item` to every group still listening, and breaks once none is.
/// A failed worker closes its receiver: drop its sender and keep feeding
/// the survivors; the join reports the failure.
fn fan_out<T: Clone>(senders: &mut [Option<SyncSender<T>>], item: &T) -> ControlFlow<()> {
    let mut flow = ControlFlow::Break(());
    for slot in senders {
        if let Some(tx) = slot {
            match tx.send(item.clone()) {
                Ok(()) => flow = ControlFlow::Continue(()),
                Err(_) => *slot = None,
            }
        }
    }
    flow
}

/// Producer-fed replay, for a trace that is not resident: `feed` (the
/// store's, over the handle) runs once on this thread — the file is streamed,
/// validated and each frame decoded, or the animation rasterized, once
/// however many configurations consume it — and each frame is fanned out
/// over one bounded channel per group, until no worker is left to read for.
///
/// A feed that fails mid-stream (a damaged file) taints every
/// still-successful configuration with its error: their engines saw a
/// prefix of the animation. An enabled recorder gets the frames delivered
/// (`replay/stream_frames`) and how long the producer sat in sends to full
/// channels (`replay/stream_reader_blocked_us`).
fn replay_fed(
    registry: &TextureRegistry,
    filter: FilterMode,
    plan: Plan,
    rec: &Recorder,
    feed: impl FnOnce(&mut dyn FnMut(&Arc<FrameTrace>) -> ControlFlow<()>) -> Result<(), RunError>,
) -> Vec<Result<SimEngine, RunError>> {
    let replay = &Replay::new(registry, filter, rec);
    std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(plan.groups.len());
        let workers = plan
            .groups
            .into_iter()
            .map(|mut group| {
                let (tx, rx) = sync_channel::<Arc<FrameTrace>>(4);
                senders.push(Some(tx));
                let slots = std::mem::take(&mut group.slots);
                (slots, scope.spawn(|| replay.run_group(group, rx)))
            })
            .collect();
        let (mut frames, mut blocked) = (0u64, Duration::ZERO);
        let fed = feed(&mut |frame| {
            frames += 1;
            let sending = rec.is_enabled().then(Instant::now);
            let flow = fan_out(&mut senders, frame);
            blocked += sending.map_or(Duration::ZERO, |t| t.elapsed());
            flow
        });
        rec.counter("replay/stream_frames").add(frames);
        rec.counter("replay/stream_reader_blocked_us")
            .add(blocked.as_micros() as u64);
        drop(senders);
        let mut results = join_groups(plan.failed, workers);
        if let Err(e) = fed {
            for r in results.iter_mut().filter(|r| r.is_ok()) {
                *r = Err(e.clone());
            }
        }
        results
    })
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Formats bytes as megabytes with two decimals.
pub(crate) fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

/// Formats an f64 byte count as megabytes with two decimals.
pub(crate) fn mb_f(bytes: f64) -> String {
    format!("{:.2}", bytes / (1 << 20) as f64)
}

/// Formats a rate as a percentage with two decimals.
pub(crate) fn pct(rate: f64) -> String {
    format!("{:.2}", rate * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltc_core::{L1Config, L2Config};
    use mltc_scene::WorkloadParams;

    fn tiny_village() -> Workload {
        Workload::village(&WorkloadParams::tiny())
    }

    #[test]
    fn stats_run_covers_all_frames() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let bundle = stats_run(&store, &w);
        assert_eq!(bundle.frames.len(), w.frame_count as usize);
        assert_eq!(bundle.summary.frames, bundle.frames.len());
        assert!(bundle.summary.depth_complexity > 1.0);
    }

    #[test]
    fn engine_run_returns_engines_in_config_order() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let configs = [
            EngineConfig {
                l1: L1Config::kb(2),
                ..EngineConfig::default()
            },
            EngineConfig {
                l1: L1Config::kb(16),
                ..EngineConfig::default()
            },
        ];
        let engines = engine_run_all(&store, &w, FilterMode::Bilinear, &configs, false).unwrap();
        assert_eq!(engines.len(), 2);
        assert_eq!(engines[0].config().l1.size_bytes, 2048);
        assert_eq!(engines[1].config().l1.size_bytes, 16 * 1024);
        for e in &engines {
            assert_eq!(e.frames().len(), w.frame_count as usize);
            assert!(e.totals().l1_accesses > 0);
        }
        // Identical trace: both saw the same number of texel accesses.
        assert_eq!(
            engines[0].totals().l1_accesses,
            engines[1].totals().l1_accesses
        );
        // The bigger L1 downloads less.
        assert!(engines[1].totals().host_bytes <= engines[0].totals().host_bytes);
        // And the animation was rendered exactly once.
        assert_eq!(store.snapshot().renders, 1);
    }

    #[test]
    fn repeated_runs_share_one_render() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let cfg = EngineConfig::default();
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            engine_run_all(&store, &w, filter, &[cfg], false).unwrap();
        }
        let s = store.snapshot();
        assert_eq!(s.renders, 1, "filters must share one point-sampled trace");
        assert_eq!(s.mem_hits, 2);
        assert!(s.taps_simulated > 0);
        assert!(s.sim_nanos > 0);
    }

    #[test]
    fn store_replay_matches_a_direct_render_per_filter() {
        let w = tiny_village();
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            let store = TraceStore::in_memory();
            let via_store = engine_run_all(&store, &w, filter, &[cfg], false).unwrap();
            let mut direct = SimEngine::try_new(cfg, w.registry()).unwrap();
            w.render_animation(filter, false, |t| direct.try_run_frame(&t).unwrap());
            assert_eq!(
                via_store[0].totals(),
                direct.totals(),
                "filter {filter:?} must replay identically through the store"
            );
        }
    }

    #[test]
    fn disk_streamed_replay_matches_memory_replay() {
        let (dir, disk_store) = streaming_store("disk");
        let w = tiny_village();
        let cfg = EngineConfig::default();
        let mem_store = TraceStore::in_memory();
        let from_memory =
            engine_run_all(&mem_store, &w, FilterMode::Bilinear, &[cfg], false).unwrap();
        let from_disk =
            engine_run_all(&disk_store, &w, FilterMode::Bilinear, &[cfg], false).unwrap();
        assert_eq!(from_memory[0].totals(), from_disk[0].totals());
        assert_eq!(from_memory[0].frames(), from_disk[0].frames());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn pull(l1_kb: usize) -> EngineConfig {
        EngineConfig {
            l1: L1Config::kb(l1_kb),
            ..EngineConfig::default()
        }
    }

    fn ml(l1_kb: usize, l2_bytes: usize, tlb_entries: usize) -> EngineConfig {
        EngineConfig {
            l2: Some(L2Config {
                size_bytes: l2_bytes,
                ..L2Config::mb(2)
            }),
            tlb_entries,
            ..pull(l1_kb)
        }
    }

    /// Each result must be what the configuration produces replayed on
    /// its own.
    fn assert_match_solo(
        results: &[Result<SimEngine, RunError>],
        w: &Workload,
        filter: FilterMode,
        survivors: &[usize],
    ) {
        let frames: Vec<Arc<FrameTrace>> = {
            let mut v = Vec::new();
            w.render_animation(FilterMode::Point, false, |t| v.push(Arc::new(t)));
            v
        };
        for &idx in survivors {
            let e = results[idx]
                .as_ref()
                .unwrap_or_else(|e| panic!("config {idx}: {e}"));
            assert_eq!(
                e.frames().len(),
                w.frame_count as usize,
                "survivor {idx} must see every frame"
            );
            let solo = replay_run(w.registry(), &frames, filter, &[e.config()])
                .remove(0)
                .unwrap();
            assert_eq!(e.frames(), solo.frames(), "survivor {idx} vs solo");
            assert!(e.l1().lines().eq(solo.l1().lines()), "survivor {idx} L1");
        }
    }

    /// A persistent store whose 64-byte budget keeps nothing resident, so
    /// every replay streams from disk. The caller removes the directory.
    fn streaming_store(tag: &str) -> (std::path::PathBuf, TraceStore) {
        let dir = std::env::temp_dir().join(format!("mltc-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::persistent(&dir).with_budget(64);
        (dir, store)
    }

    /// The failure-isolation tests run twice per store, from memory and
    /// streamed from disk: over three distinct L1s (three workers) and over
    /// one shared L1 with the failing configuration first, so its group has
    /// to promote a new leader. Each set is `(configs, index of the one that
    /// fails)`.
    fn isolation_sets(bad: EngineConfig) -> [([EngineConfig; 3], usize); 2] {
        [
            ([pull(2), bad, pull(16)], 1),
            (
                [
                    EngineConfig {
                        l1: L1Config::kb(2),
                        ..bad
                    },
                    pull(2),
                    ml(2, 2 << 20, 4),
                ],
                0,
            ),
        ]
    }

    #[test]
    fn bad_config_fails_alone_and_survivors_finish() {
        let (dir, streaming) = streaming_store("bad-config");
        let w = tiny_village();
        // 3 KB L1 = 24 sets, or an L2 smaller than one block: both are
        // rejected as invalid geometry.
        let bad = [
            EngineConfig {
                l1: L1Config {
                    size_bytes: 3072,
                    ..L1Config::kb(2)
                },
                ..EngineConfig::default()
            },
            ml(2, 512, 0),
        ];
        for store in [TraceStore::in_memory(), streaming] {
            for ((mut configs, bad_idx), bad) in isolation_sets(pull(2)).into_iter().zip(bad) {
                configs[bad_idx] = bad;
                let results = with_path(ReplayPath::Batched, || {
                    engine_run(&store, &w, FilterMode::Bilinear, &configs, false)
                });
                assert_eq!(results.len(), 3);
                assert!(matches!(
                    &results[bad_idx],
                    Err(RunError::Engine(EngineError::InvalidGeometry(_)))
                ));
                let survivors: Vec<usize> = (0..3).filter(|&i| i != bad_idx).collect();
                assert_match_solo(&results, &w, FilterMode::Bilinear, &survivors);
                // And the all-or-nothing wrapper surfaces the failure.
                assert!(engine_run_all(&store, &w, FilterMode::Bilinear, &configs, false).is_err());
            }
            assert_no_pass_was_kept(&store);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run in which anything failed leaves no pass behind, and so none
    /// for a later run to find.
    fn assert_no_pass_was_kept(store: &TraceStore) {
        let s = store.snapshot();
        assert_eq!((s.pass_bytes, s.l1_passes_reused), (0, 0));
    }

    #[test]
    fn panicking_worker_fails_alone_and_survivors_finish() {
        let store = TraceStore::in_memory();
        let (dir, streaming) = streaming_store("panicking");
        let w = tiny_village();
        for store in [&store, &streaming] {
            for (configs, bad_idx) in isolation_sets(pull(4)) {
                // Suppress the expected panic's default stderr backtrace.
                let prev_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let results = with_path(ReplayPath::Batched, || {
                    engine_run_traversal_with(
                        store,
                        &w,
                        FilterMode::Bilinear,
                        &configs,
                        false,
                        mltc_raster::Traversal::Scanline,
                        &|slot, cfg, reg| {
                            if slot == bad_idx {
                                panic!("injected worker failure");
                            }
                            SimEngine::try_new(cfg, reg)
                        },
                    )
                });
                std::panic::set_hook(prev_hook);
                assert_eq!(results.len(), 3);
                match &results[bad_idx] {
                    Err(RunError::Panicked(msg)) => assert!(msg.contains("injected"), "{msg}"),
                    other => panic!("expected a panic report, got {other:?}"),
                }
                let survivors: Vec<usize> = (0..3).filter(|&i| i != bad_idx).collect();
                assert_match_solo(&results, &w, FilterMode::Bilinear, &survivors);
                assert_no_pass_was_kept(store);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // The same sets with nobody failing: passes are kept, and found.
        for (configs, _) in isolation_sets(pull(4)) {
            let before = store.snapshot().l1_passes_reused;
            for _ in 0..2 {
                let results = with_path(ReplayPath::Batched, || {
                    engine_run(&store, &w, FilterMode::Bilinear, &configs, false)
                });
                assert_match_solo(&results, &w, FilterMode::Bilinear, &[0, 1, 2]);
            }
            assert!(store.snapshot().l1_passes_reused >= before + 3);
        }
    }

    #[test]
    fn a_replay_that_ends_in_an_error_stores_no_pass_and_errs_again() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        // Engines built over no textures at all: the first request of the
        // trace names a texture they do not know.
        let empty = TextureRegistry::new();
        for _ in 0..2 {
            let results = with_path(ReplayPath::Batched, || {
                engine_run_traversal_with(
                    &store,
                    &w,
                    FilterMode::Bilinear,
                    &[pull(2), pull(2), pull(16)],
                    false,
                    mltc_raster::Traversal::Scanline,
                    &|_, cfg, _| SimEngine::try_new(cfg, &empty),
                )
            });
            for r in &results {
                assert!(
                    matches!(r, Err(RunError::Engine(EngineError::UnknownTexture(_)))),
                    "{r:?}"
                );
            }
            assert_no_pass_was_kept(&store);
        }
    }

    #[test]
    fn mid_stream_corruption_taints_the_batch_with_typed_errors() {
        let (dir, streaming) = streaming_store("taint");
        let w = tiny_village();
        {
            // Persist the trace, then truncate it mid-body.
            let store = TraceStore::persistent(&dir);
            engine_run_all(&store, &w, FilterMode::Point, &[pull(2)], false).unwrap();
        }
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .find(|e| e.path().extension().is_some_and(|x| x == "mltct"))
            .expect("a persisted trace")
            .path();
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..bytes.len() - 7]).unwrap();
        // Two configurations on one L1 pass and an outsider: the truncated
        // tail must surface as RunError::Trace on every member of both
        // groups, not a panic.
        let configs = [pull(2), ml(2, 2 << 20, 4), pull(16)];
        let results = with_path(ReplayPath::Batched, || {
            engine_run(&streaming, &w, FilterMode::Point, &configs, false)
        });
        let s = streaming.snapshot();
        assert_eq!((s.l1_passes, s.l1_shared_members), (2, 1));
        assert_eq!(results.len(), 3);
        for r in &results {
            match r {
                Err(RunError::Trace(msg)) => assert!(msg.contains("mltct"), "{msg}"),
                other => panic!("expected RunError::Trace, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_reader_stops_once_no_worker_is_left_to_read_for() {
        let w = Workload::village(&WorkloadParams {
            frames: 12,
            ..WorkloadParams::tiny()
        });
        let rec = Recorder::enabled();
        let (dir, streaming) = streaming_store("reader");
        let streaming = streaming.with_recorder(rec.clone());
        let configs = [pull(2), pull(2), pull(16)];
        let frames_read = || rec.snapshot().counters["replay/stream_frames"];
        // A healthy replay (which also persists the trace) reads it all.
        engine_run_all(&streaming, &w, FilterMode::Bilinear, &configs, false).unwrap();
        assert_eq!(frames_read(), 12);
        // Engines built over no textures at all fail on frame 0. Each worker
        // took that frame and left at most four more in its channel, so the
        // sixth frame's sends find every receiver closed and end the stream.
        let empty = TextureRegistry::new();
        let results = engine_run_traversal_with(
            &streaming,
            &w,
            FilterMode::Bilinear,
            &configs,
            false,
            mltc_raster::Traversal::Scanline,
            &|_, cfg, _| SimEngine::try_new(cfg, &empty),
        );
        for r in &results {
            assert!(
                matches!(r, Err(RunError::Engine(EngineError::UnknownTexture(_)))),
                "{r:?}"
            );
        }
        let after_the_failure = frames_read() - 12;
        assert!((1..=6).contains(&after_the_failure), "{after_the_failure}");
        assert!(rec
            .snapshot()
            .counters
            .contains_key("replay/stream_reader_blocked_us"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn configs_sharing_an_l1_replay_in_one_pass_from_every_handle() {
        // fig11's shape: one L1, five TLB sizes — plus an outsider.
        let mut configs: Vec<EngineConfig> = [1, 2, 4, 8, 16]
            .iter()
            .map(|&n| ml(2, 2 << 20, n))
            .collect();
        configs.push(pull(16));
        let w = tiny_village();
        let (dir, streaming) = streaming_store("shared");
        let all: Vec<usize> = (0..configs.len()).collect();
        // Memory, disk-stream and live-render replays all make two L1
        // passes for the six configurations.
        let passes = (2, 4);
        for store in [
            TraceStore::in_memory(),
            streaming,
            TraceStore::in_memory().with_budget(64),
        ] {
            let results = with_path(ReplayPath::Batched, || {
                engine_run(&store, &w, FilterMode::Trilinear, &configs, false)
            });
            assert_match_solo(&results, &w, FilterMode::Trilinear, &all);
            let s = store.snapshot();
            assert_eq!((s.l1_passes, s.l1_shared_members), passes);
            assert_eq!(s.l1_passes_reused, 0);
            let rates: Vec<f64> = results[..5]
                .iter()
                .map(|r| r.as_ref().unwrap().totals().tlb_hit_rate())
                .collect();
            assert!(rates.windows(2).all(|p| p[0] < p[1]), "{rates:?}");
            // Again: the resident trace kept both passes and all six
            // configurations replay them; a disk stream and a live render
            // keep nothing and make their two passes again.
            let resident = matches!(
                store.get_or_render(&w, false, mltc_raster::Traversal::Scanline),
                TraceHandle::Memory(_)
            );
            let results = with_path(ReplayPath::Batched, || {
                engine_run(&store, &w, FilterMode::Trilinear, &configs, false)
            });
            assert_match_solo(&results, &w, FilterMode::Trilinear, &all);
            let s = store.snapshot();
            if resident {
                assert_eq!((s.l1_passes, s.l1_shared_members), passes);
                assert_eq!(s.l1_passes_reused, 6);
                assert!(s.pass_bytes > 0 && s.pass_bytes < s.resident_bytes);
            } else {
                assert_eq!(
                    (s.l1_passes, s.l1_shared_members),
                    (2 * passes.0, 2 * passes.1)
                );
                assert_eq!((s.l1_passes_reused, s.pass_bytes), (0, 0));
            }
            // Another filter is another pass.
            let results = with_path(ReplayPath::Batched, || {
                engine_run(&store, &w, FilterMode::Bilinear, &configs, false)
            });
            assert_match_solo(&results, &w, FilterMode::Bilinear, &all);
            assert_eq!(store.snapshot().l1_passes_reused, s.l1_passes_reused);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_and_timed_members_replay_solo_beside_a_shared_group() {
        use mltc_core::{FaultPlan, LatencyModel};
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let faulty = EngineConfig {
            fault: FaultPlan::with_rate(7, 50_000),
            ..ml(2, 2 << 20, 0)
        };
        // Slot 3 gets a timing overlay; slots 0 and 2 are left to share.
        let configs = [ml(2, 2 << 20, 0), faulty, pull(2), ml(2, 2 << 20, 4)];
        // Twice: the second run finds the store holding the 2 KB pass the
        // first one's plain members left, and still only they replay it.
        for (run, passes) in [(3, 1, 0), (5, 1, 2)].into_iter().enumerate() {
            let results = with_path(ReplayPath::Batched, || {
                engine_run_traversal_with(
                    &store,
                    &w,
                    FilterMode::Bilinear,
                    &configs,
                    false,
                    mltc_raster::Traversal::Scanline,
                    &|slot, cfg, reg| {
                        let mut engine = SimEngine::try_new(cfg, reg)?;
                        if slot == 3 {
                            engine.attach_timing(LatencyModel::default());
                        }
                        Ok(engine)
                    },
                )
            });
            assert_match_solo(&results, &w, FilterMode::Bilinear, &[0, 1, 2, 3]);
            let s = store.snapshot();
            assert_eq!(
                (s.l1_passes, s.l1_shared_members, s.l1_passes_reused),
                passes,
                "run {run}"
            );
            let faulty = results[1].as_ref().unwrap();
            assert!(faulty.totals().retries > 0, "the fault plan must bite");
            let timed = results[3].as_ref().unwrap();
            let timing = timed.timing().expect("the overlay survives the replay");
            assert_eq!(timing.totals().taps, timed.totals().l1_accesses);
        }
    }

    #[test]
    fn only_the_batched_path_shares_an_l1() {
        let w = tiny_village();
        let configs = [ml(2, 2 << 20, 0), pull(2)];
        for (path, passes) in [
            (ReplayPath::Scalar, 2),
            (ReplayPath::Pipelined, 2),
            (ReplayPath::Batched, 1),
        ] {
            let store = TraceStore::in_memory();
            let results = with_path(path, || {
                engine_run(&store, &w, FilterMode::Bilinear, &configs, false)
            });
            assert_match_solo(&results, &w, FilterMode::Bilinear, &[0, 1]);
            let s = store.snapshot();
            assert_eq!(s.l1_passes, passes, "{path:?}");
            // And only it keeps the pass, or would find one kept.
            assert_eq!(s.pass_bytes > 0, path == ReplayPath::Batched, "{path:?}");
            let stored = TraceStore::in_memory();
            for then in [ReplayPath::Batched, path] {
                let results = with_path(then, || {
                    engine_run(&stored, &w, FilterMode::Bilinear, &configs, false)
                });
                assert_match_solo(&results, &w, FilterMode::Bilinear, &[0, 1]);
            }
            let reused = if path == ReplayPath::Batched { 2 } else { 0 };
            assert_eq!(stored.snapshot().l1_passes_reused, reused, "{path:?}");
        }
    }

    #[test]
    fn engine_run_records_telemetry_through_the_store() {
        let rec = Recorder::enabled();
        let store = TraceStore::in_memory().with_recorder(rec.clone());
        let w = tiny_village();
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let engines = engine_run_all(&store, &w, FilterMode::Bilinear, &[cfg], false).unwrap();
        let totals = engines[0].totals();
        let snap = rec.snapshot();
        // Engine counters flowed into the recorder under the workload group.
        assert_eq!(snap.counters["engine/village/l1_hits"], totals.l1_hits);
        assert_eq!(
            snap.counters["engine/village/l2_full_hits"],
            totals.l2_full_hits
        );
        // Spans: the whole run plus one replay worker per configuration.
        assert!(snap
            .spans
            .iter()
            .any(|s| s.name.starts_with("run/village/")));
        assert!(snap.spans.iter().any(|s| s.name.starts_with("replay/")));
        // One per-frame series row per animation frame, labelled by run,
        // config and the config's position in the run.
        let label = format!("village/late/scanline/Bilinear/{} [0]", cfg.label());
        let series = snap
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("no series {label:?}"));
        assert_eq!(series.rows.len(), w.frame_count as usize);
        // The recorder saw a run that shared nothing: an observed engine
        // runs its own L1 pass.
        assert_eq!(snap.counters["replay/l1_passes"], 1);
        assert_eq!(snap.counters["replay/l1_shared_members"], 0);
        // The L2 reuse-distance histogram is exported per workload.
        let reuse = &snap.hists["l2_reuse_pages/village"];
        assert_eq!(
            reuse.count + snap.counters["engine/village/l2_reuse_cold"],
            totals.l2_accesses()
        );
    }

    #[test]
    fn disabled_recorder_store_runs_clean() {
        // The default store recorder is disabled: nothing registers, and
        // replays produce identical counters to an instrumented store.
        let w = tiny_village();
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let plain = TraceStore::in_memory();
        let a = engine_run_all(&plain, &w, FilterMode::Bilinear, &[cfg], false).unwrap();
        let rec = Recorder::enabled();
        let recorded = TraceStore::in_memory().with_recorder(rec.clone());
        let b = engine_run_all(&recorded, &w, FilterMode::Bilinear, &[cfg], false).unwrap();
        assert_eq!(a[0].totals(), b[0].totals(), "telemetry only observes");
        assert_eq!(a[0].frames(), b[0].frames());
        assert!(plain.recorder().snapshot().series.is_empty());
        assert!(!rec.snapshot().series.is_empty());
    }

    #[test]
    fn jobs_cap_serializes_replay_without_changing_results() {
        let (dir, streaming) = streaming_store("jobs");
        let w = tiny_village();
        // Two workers' worth of solo configurations and one shared L1 pass.
        let configs = [pull(2), pull(4), ml(2, 2 << 20, 4), pull(16)];
        for store in [TraceStore::in_memory(), streaming] {
            let run = || {
                with_path(ReplayPath::Batched, || {
                    engine_run_all(&store, &w, FilterMode::Bilinear, &configs, false).unwrap()
                })
            };
            let unbounded = run();
            set_max_replay_jobs(1);
            let serial = run();
            set_max_replay_jobs(0);
            assert_eq!(serial.len(), unbounded.len());
            for (a, b) in unbounded.iter().zip(&serial) {
                assert_eq!(a.config(), b.config());
                assert_eq!(
                    a.totals(),
                    b.totals(),
                    "jobs cap must only affect scheduling"
                );
                assert_eq!(a.frames(), b.frames());
            }
        }
        assert!(max_replay_jobs() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `f` with the global replay path pinned, restoring the default
    /// afterwards (also on panic, so one failure can't skew later tests).
    /// Pinned sections run one at a time; tests outside them may see any
    /// path, which never changes a counter — only how configurations are
    /// grouped, so tests that count L1 passes pin the path too.
    fn with_path<T>(path: ReplayPath, f: impl FnOnce() -> T) -> T {
        static PINNED: Mutex<()> = Mutex::new(());
        let _serial = lock_clean(&PINNED);
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_replay_path(ReplayPath::default());
            }
        }
        let _restore = Restore;
        set_replay_path(path);
        f()
    }

    #[test]
    fn replay_paths_agree_bit_for_bit_from_memory() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let baseline = with_path(ReplayPath::Scalar, || {
            engine_run_all(&store, &w, FilterMode::Trilinear, &[cfg], false).unwrap()
        });
        for path in [ReplayPath::Batched, ReplayPath::Pipelined] {
            let run = with_path(path, || {
                engine_run_all(&store, &w, FilterMode::Trilinear, &[cfg], false).unwrap()
            });
            assert_eq!(
                run[0].totals(),
                baseline[0].totals(),
                "{path:?} must replay bit-identically"
            );
            assert_eq!(run[0].frames(), baseline[0].frames(), "{path:?}");
        }
    }

    #[test]
    fn pipelined_disk_stream_matches_scalar_memory_replay() {
        let (dir, disk_store) = streaming_store("pipe");
        let w = tiny_village();
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        };
        let mem_store = TraceStore::in_memory();
        let baseline = with_path(ReplayPath::Scalar, || {
            engine_run_all(&mem_store, &w, FilterMode::Trilinear, &[cfg], false).unwrap()
        });
        // Two jobs let the prep thread genuinely overlap the simulation.
        set_max_replay_jobs(2);
        let piped = with_path(ReplayPath::Pipelined, || {
            engine_run_all(&disk_store, &w, FilterMode::Trilinear, &[cfg], false).unwrap()
        });
        set_max_replay_jobs(0);
        assert_eq!(piped[0].totals(), baseline[0].totals());
        assert_eq!(piped[0].frames(), baseline[0].frames());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_path_reports_unknown_textures_identically() {
        use mltc_trace::PixelRequest;
        let w = tiny_village();
        let registry = w.registry();
        let bogus = mltc_texture::TextureId::from_index(registry.issued_count() as u32 + 7);
        let frames = vec![Arc::new(FrameTrace {
            frame: 0,
            width: 1,
            height: 1,
            pixels_rendered: 1,
            filter: FilterMode::Bilinear,
            requests: vec![PixelRequest {
                tid: bogus,
                u: 0.5,
                v: 0.5,
                lod: 0.0,
            }],
        })];
        // Two configurations on one L1 (one pass on the batched path) and
        // one on its own: every member reports the error.
        let configs = [pull(16), ml(16, 2 << 20, 4), pull(2)];
        for path in [
            ReplayPath::Scalar,
            ReplayPath::Batched,
            ReplayPath::Pipelined,
        ] {
            let results = with_path(path, || {
                replay_run(registry, &frames, FilterMode::Bilinear, &configs)
            });
            assert_eq!(results.len(), configs.len());
            for r in &results {
                match r {
                    Err(RunError::Engine(EngineError::UnknownTexture(t))) => assert_eq!(*t, bogus),
                    other => panic!("{path:?}: expected UnknownTexture, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn replay_path_names_round_trip() {
        for path in [
            ReplayPath::Scalar,
            ReplayPath::Batched,
            ReplayPath::Pipelined,
        ] {
            assert_eq!(ReplayPath::parse(path.name()), Some(path));
        }
        assert_eq!(ReplayPath::parse("turbo"), None);
        assert_eq!(ReplayPath::default(), ReplayPath::Batched);
    }

    #[test]
    fn run_errors_format_usefully() {
        let e = RunError::Engine(EngineError::EmptyPageTable);
        assert!(e.to_string().contains("page table"));
        assert!(RunError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
        assert!(RunError::Trace("bad file".into())
            .to_string()
            .contains("bad file"));
        assert!(RunError::Quarantined("client 3: worker panicked".into())
            .to_string()
            .contains("quarantined"));
        assert_eq!(RunError::from(EngineError::EmptyPageTable), e);
    }

    #[test]
    fn formatters() {
        assert_eq!(mb(2 << 20), "2.00");
        assert_eq!(pct(0.1234), "12.34");
        assert_eq!(mb_f(1.5 * (1 << 20) as f64), "1.50");
    }
}
