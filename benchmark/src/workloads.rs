//! The six workloads: what each one sets up, what one repetition does, and
//! how its simulated statistics are checked.
//!
//! Every workload is a closed loop: one replay at a time, a fresh
//! engine/service per repetition, modelled caches empty at the start of a
//! repetition (state carries across the frames of a repetition, never
//! across repetitions). README.md records why each one exists.

use crate::spans::Spans;
use crate::stats::Digest;
use mltc_core::{
    EngineConfig, FrameCounters, FramePrep, L1Config, L2Config, L2PartitionMode, LatencyModel,
    PreparedFrame, ServiceConfig, SimEngine, TelemetryOpts, TextureService, TimingCounters,
};
use mltc_experiments::{
    collect_frames, engine_run, find_experiment, run_multi_client, ClientSpec, MultiClientConfig,
    Outputs, Scale, TraceHandle, TraceStore,
};
use mltc_raster::Traversal;
use mltc_scene::{Workload, WorkloadKind};
use mltc_telemetry::Recorder;
use mltc_texture::TextureRegistry;
use mltc_trace::{filter_taps, FilterMode, FrameTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The experiments `suite_sweeps` regenerates each repetition, each with
/// the per-layer metric that carries its seconds.
pub const SUITE: [(&str, &str); 4] = [
    ("fig10", "suite.fig10_s"),
    ("table5_6", "suite.table5_6_s"),
    ("fig11", "suite.fig11_s"),
    ("ablate-replacement", "suite.ablate-replacement_s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    VillageMlHot,
    CityMissPath,
    StreamSweep,
    Service2c,
    ObservedTimed,
    SuiteSweeps,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::VillageMlHot,
        Kind::CityMissPath,
        Kind::StreamSweep,
        Kind::Service2c,
        Kind::ObservedTimed,
        Kind::SuiteSweeps,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::VillageMlHot => "village_ml_hot",
            Kind::CityMissPath => "city_miss_path",
            Kind::StreamSweep => "stream_sweep",
            Kind::Service2c => "service_2c",
            Kind::ObservedTimed => "observed_timed",
            Kind::SuiteSweeps => "suite_sweeps",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn scene(self) -> WorkloadKind {
        match self {
            Kind::CityMissPath => WorkloadKind::City,
            _ => WorkloadKind::Village,
        }
    }

    /// The workload's reference hierarchy: the filter and configuration
    /// whose simulated statistics it reports and whose isolated stages the
    /// traced run measures. For the single-engine workloads it is the
    /// configuration they replay; for the sweeps it is the paper's
    /// reference point among the configurations they cover.
    pub fn reference(self) -> (FilterMode, EngineConfig) {
        match self {
            Kind::CityMissPath => (
                FilterMode::Trilinear,
                EngineConfig {
                    // One 2-way set: nearly every fragment misses somewhere.
                    l1: L1Config {
                        size_bytes: 128,
                        ..L1Config::kb(2)
                    },
                    l2: Some(L2Config {
                        size_bytes: 64 << 10,
                        ..L2Config::mb(2)
                    }),
                    tlb_entries: 2,
                    ..EngineConfig::default()
                },
            ),
            Kind::StreamSweep => (FilterMode::Bilinear, stream_configs()[2]),
            _ => (
                FilterMode::Trilinear,
                EngineConfig {
                    l1: L1Config::kb(2),
                    l2: Some(L2Config::mb(2)),
                    tlb_entries: 16,
                    ..EngineConfig::default()
                },
            ),
        }
    }
}

/// The six configurations `stream_sweep` fans one streamed trace out to.
pub fn stream_configs() -> [EngineConfig; 6] {
    let base = EngineConfig::default();
    let ml = |l1_kb: usize, l2_bytes: usize, tlb_entries: usize| EngineConfig {
        l1: L1Config::kb(l1_kb),
        l2: Some(L2Config {
            size_bytes: l2_bytes,
            ..L2Config::mb(2)
        }),
        tlb_entries,
        ..base
    };
    [
        EngineConfig {
            l1: L1Config::kb(2),
            ..base
        },
        EngineConfig {
            l1: L1Config::kb(16),
            ..base
        },
        ml(2, 2 << 20, 0),
        ml(2, 8 << 20, 0),
        ml(16, 2 << 20, 0),
        ml(2, 64 << 10, 8),
    ]
}

/// `service_2c`'s service: a 4 MB L2 partitioned between two clients.
pub fn service_config() -> MultiClientConfig {
    MultiClientConfig {
        service: ServiceConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(4)),
            partition: L2PartitionMode::Partitioned,
            tlb_entries: 16,
            ..ServiceConfig::default()
        },
        queue_depth: 4,
        steps: None,
    }
}

/// `service_2c`'s clients: trilinear from frame 0, bilinear from frame 12.
pub fn service_clients() -> [ClientSpec; 2] {
    [
        ClientSpec::new(FilterMode::Trilinear),
        ClientSpec {
            phase_offset: 12,
            ..ClientSpec::new(FilterMode::Bilinear)
        },
    ]
}

/// What a run works in: the scale (whose `params.seed` is the only way the
/// seed reaches the product) and a scratch directory under `benchmark/out`.
pub struct Env {
    pub scale: Scale,
    pub tmp: PathBuf,
}

/// What set-up leaves behind for the repetitions.
pub struct Inputs {
    pub store: TraceStore,
    pub scene: Arc<Workload>,
}

impl Inputs {
    /// The workload's frames, decoded and in memory.
    pub fn frames(&self) -> Vec<Arc<FrameTrace>> {
        collect_frames(&self.store, &self.scene).expect("decode the workload's own trace")
    }
}

/// Builds the scene and renders its point-sampled trace once, through the
/// store, as the product's own runs do. `stream_sweep` gives the store a
/// directory and a budget of about one frame, so the trace is encoded,
/// persisted and handed back as a file to stream; `suite_sweeps` also
/// renders the City the experiments will ask for.
pub fn setup(kind: Kind, env: &Env, slot: &str) -> Inputs {
    let p = env.scale.params;
    let store = match kind {
        Kind::StreamSweep => {
            // A fresh directory each time. Removing the slot's last one
            // also drops its unwritten pages, so set-ups do not queue
            // behind each other's write-back.
            let dir = env.tmp.join(format!("store-{slot}"));
            let _ = std::fs::remove_dir_all(&dir);
            TraceStore::persistent(dir).with_budget(u64::from(p.width * p.height) * 16)
        }
        _ => TraceStore::in_memory(),
    };
    let scene = store.workload(kind.scene(), &p);
    let handle = store.get_or_render(&scene, false, Traversal::Scanline);
    match (kind, &handle) {
        (Kind::StreamSweep, TraceHandle::Disk(_)) => {}
        (Kind::StreamSweep, other) => panic!("stream_sweep needs a disk handle, got {other:?}"),
        (_, TraceHandle::Memory(_)) => {}
        (_, other) => panic!("{} needs its trace in memory, got {other:?}", kind.name()),
    }
    if kind == Kind::SuiteSweeps {
        let city = store.city(&p);
        let _ = store.get_or_render(&city, false, Traversal::Scanline);
    }
    Inputs { store, scene }
}

/// One repetition's result. `wall_s` covers only the product calls;
/// digests and totals are taken after the clock stops.
pub struct Outcome {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of every simulated statistic the repetition produced.
    pub digest: Digest,
    /// Counter totals and the number of frames they cover, where the
    /// repetition simulates the reference hierarchy itself.
    pub totals: Option<(FrameCounters, u64)>,
    /// Taps the repetition simulated (0 for `suite_sweeps`, whose tap count
    /// is fixed from its inputs instead — see [`input_taps`]).
    pub taps: u64,
    pub timing: Option<TimingCounters>,
    /// Seconds per experiment, `suite_sweeps` only, in [`SUITE`] order.
    pub parts: Vec<f64>,
}

fn digest_counters(d: &mut Digest, c: &FrameCounters) {
    for x in [
        c.l1_accesses,
        c.l1_hits,
        c.l2_full_hits,
        c.l2_partial_hits,
        c.l2_full_misses,
        c.host_bytes,
        c.l2_local_bytes,
        c.tlb_accesses,
        c.tlb_hits,
        c.retries,
        c.failed_transfers,
        c.degraded_taps,
        c.dropped_taps,
    ] {
        d.u64(x);
    }
}

fn digest_timing(d: &mut Digest, t: &TimingCounters) {
    for x in [
        t.cycles_total,
        t.stall_cycles,
        t.issue_stall_cycles,
        t.taps,
        t.fragments,
        t.link_bytes,
        t.link_busy_cycles,
        t.prefetch_issued,
        t.prefetch_useful,
        t.prefetch_late,
        t.prefetch_useless,
        t.l1_merges,
        t.l2_merges,
    ] {
        d.u64(x);
    }
}

/// Runs `f` under a span when the run is traced, bare otherwise.
fn span<R>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(sp) => sp.time(name, |_| f()).0,
        None => f(),
    }
}

/// One repetition of `kind`. With `spans`, every call into the product is
/// wrapped in a span; the work is the same either way.
pub fn rep(
    kind: Kind,
    inp: &Inputs,
    frames: &[Arc<FrameTrace>],
    env: &Env,
    mut spans: Option<&mut Spans>,
) -> Outcome {
    let reg = inp.scene.registry();
    let mut out = Outcome {
        wall_s: 0.0,
        attempted: 0,
        failed: 0,
        digest: Digest::default(),
        totals: None,
        taps: 0,
        timing: None,
        parts: Vec::new(),
    };
    match kind {
        Kind::VillageMlHot | Kind::CityMissPath | Kind::ObservedTimed => {
            let (filter, cfg) = kind.reference();
            let start = Instant::now();
            let mut engine = SimEngine::try_new(cfg, reg).expect("reference geometry is valid");
            if kind == Kind::ObservedTimed {
                engine.attach_telemetry_opts(
                    &Recorder::enabled(),
                    "benchmark/observed",
                    "benchmark",
                    TelemetryOpts {
                        attribution: true,
                        ..TelemetryOpts::default()
                    },
                );
                engine.attach_timing(LatencyModel::default());
            }
            for f in frames {
                out.attempted += 1;
                let ok = span(&mut spans, "engine.frame_batched", || {
                    engine.try_run_frame_as_batched(f, filter).is_ok()
                });
                out.failed += u64::from(!ok);
            }
            out.wall_s = start.elapsed().as_secs_f64();
            for c in engine.frames() {
                digest_counters(&mut out.digest, c);
            }
            if let Some(t) = engine.timing() {
                digest_timing(&mut out.digest, t.totals());
                out.timing = Some(*t.totals());
            }
            out.taps = engine.totals().l1_accesses;
            out.totals = Some((engine.totals(), engine.frames().len() as u64));
        }
        Kind::StreamSweep => {
            let (filter, _) = kind.reference();
            let configs = stream_configs();
            let start = Instant::now();
            let results = span(&mut spans, "runner.engine_run", || {
                engine_run(&inp.store, &inp.scene, filter, &configs, false)
            });
            out.wall_s = start.elapsed().as_secs_f64();
            for (i, r) in results.iter().enumerate() {
                out.attempted += 1;
                match r {
                    Ok(engine) => {
                        for c in engine.frames() {
                            digest_counters(&mut out.digest, c);
                        }
                        out.taps += engine.totals().l1_accesses;
                        if i == 2 {
                            out.totals = Some((engine.totals(), engine.frames().len() as u64));
                        }
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        Kind::Service2c => {
            let start = Instant::now();
            let report = span(&mut spans, "service.run_multi_client", || {
                run_multi_client(
                    reg,
                    frames,
                    &service_clients(),
                    &service_config(),
                    &Recorder::disabled(),
                )
            });
            out.wall_s = start.elapsed().as_secs_f64();
            out.attempted = service_clients().len() as u64;
            match report {
                Ok(report) => {
                    let mut sum = FrameCounters::default();
                    let mut n = 0;
                    for c in &report.clients {
                        out.failed += u64::from(!c.is_survivor());
                        for f in &c.frames {
                            digest_counters(&mut out.digest, f);
                        }
                        sum.merge(&c.totals);
                        n += c.frames.len() as u64;
                    }
                    out.taps = sum.l1_accesses;
                    out.totals = Some((sum, n));
                }
                Err(_) => out.failed = out.attempted,
            }
        }
        Kind::SuiteSweeps => {
            let dir = env.tmp.join("suite");
            let _ = std::fs::remove_dir_all(&dir);
            let outputs = Outputs::quiet(&dir);
            let start = Instant::now();
            for (id, _) in SUITE {
                out.attempted += 1;
                let run = find_experiment(id).expect("suite ids are registered");
                let t = Instant::now();
                // Experiments report run failures as `Err` and panic on an
                // unwritable results directory; both are failed operations.
                let ok = span(&mut spans, "suite.experiment", || {
                    matches!(
                        catch_unwind(AssertUnwindSafe(|| run(&env.scale, &outputs, &inp.store))),
                        Ok(Ok(()))
                    )
                });
                out.parts.push(t.elapsed().as_secs_f64());
                out.failed += u64::from(!ok);
            }
            out.wall_s = start.elapsed().as_secs_f64();
            let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
                .map(|rd| rd.filter_map(|e| Some(e.ok()?.path())).collect())
                .unwrap_or_default();
            files.sort();
            for f in files {
                out.digest
                    .bytes(f.file_name().unwrap_or_default().as_encoded_bytes());
                out.digest.bytes(&std::fs::read(&f).unwrap_or_default());
            }
        }
    }
    out
}

/// Per-texture mip dimensions, indexed by texture id (what filter expansion
/// needs to know about a texture).
pub fn mip_dims(reg: &TextureRegistry) -> Vec<Vec<(u32, u32)>> {
    let mut dims = vec![Vec::new(); reg.issued_count()];
    for (tid, pyr) in reg.iter() {
        dims[tid.index() as usize] = pyr.iter().map(|l| (l.width(), l.height())).collect();
    }
    dims
}

/// Taps in the workload's input traces under trilinear expansion: the
/// fixed tap count of `suite_sweeps`. It is a property of the inputs, not
/// of how many configurations the suite chooses to simulate, so a suite
/// that answers from a model instead of a replay is not marked down.
pub fn input_taps(inp: &Inputs, env: &Env) -> u64 {
    let mut taps = 0u64;
    for scene in [
        inp.store.village(&env.scale.params),
        inp.store.city(&env.scale.params),
    ] {
        let dims = mip_dims(scene.registry());
        for f in collect_frames(&inp.store, &scene).expect("suite traces are in memory") {
            for req in &f.requests {
                let d = &dims[req.tid.index() as usize];
                taps += filter_taps(req, FilterMode::Trilinear, d.len() as u32, |m| {
                    d[m as usize]
                })
                .len() as u64;
            }
        }
    }
    taps
}

/// The reference hierarchy replayed four ways.
pub struct Reference {
    pub frames: Vec<FrameCounters>,
    pub totals: FrameCounters,
    pub timing: TimingCounters,
}

/// Replays the reference hierarchy through the scalar, batched, prepared
/// and timed paths and requires the same counters, frame by frame, from
/// all four — the check that holds for any seed.
pub fn reference(
    kind: Kind,
    inp: &Inputs,
    frames: &[Arc<FrameTrace>],
) -> Result<Reference, String> {
    let (filter, mut cfg) = kind.reference();
    let reg = inp.scene.registry();
    if kind == Kind::Service2c {
        // Client 0's partition of the service, as a plain engine.
        cfg = TextureService::try_new(service_config().service, reg, 2)
            .map_err(|e| e.to_string())?
            .solo_config(0);
    }
    let fresh = || SimEngine::try_new(cfg, reg).map_err(|e| e.to_string());
    let run = |path: &str, f: &mut dyn FnMut(&mut SimEngine, &FrameTrace) -> bool| {
        let mut engine = fresh()?;
        if path == "timed" {
            engine.attach_timing(LatencyModel::default());
        }
        for t in frames {
            if !f(&mut engine, t) {
                return Err(format!("{path} replay failed on frame {}", t.frame));
            }
        }
        Ok(engine)
    };
    let scalar = run("scalar", &mut |e, t| e.try_run_frame_as(t, filter).is_ok())?;
    let batched = run("batched", &mut |e, t| {
        e.try_run_frame_as_batched(t, filter).is_ok()
    })?;
    let prep = FramePrep::new(&cfg, reg);
    let mut buf = PreparedFrame::default();
    let prepared = run("prepared", &mut |e, t| {
        prep.prepare(filter, t.requests.iter().copied(), &mut buf);
        e.try_run_frame_prepared(&buf).is_ok()
    })?;
    let timed = run("timed", &mut |e, t| e.try_run_frame_as(t, filter).is_ok())?;
    for (path, engine) in [
        ("batched", &batched),
        ("prepared", &prepared),
        ("timed", &timed),
    ] {
        if engine.frames() != scalar.frames() {
            return Err(format!("{path} counters differ from scalar counters"));
        }
    }
    Ok(Reference {
        frames: scalar.frames().to_vec(),
        totals: scalar.totals(),
        timing: *timed.timing().expect("timing was attached").totals(),
    })
}
