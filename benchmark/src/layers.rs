//! The traced run: one figure per layer boundary, measured from outside by
//! timing calls into the product's public functions, every call under a
//! span of the benchmark's own recorder.
//!
//! The stages a tap crosses (filter → L1 → translation → TLB → L2 → host)
//! are timed in isolation on the workload's reference hierarchy: the tap
//! stream of each frame is expanded once, the L1 runs over it and leaves
//! the miss stream, translation turns misses into page-table indices, and
//! so on down — each stage a tight loop over the previous stage's output,
//! with its own fresh state carried across the frames of a pass. The
//! stage costs per tap are summed against the scalar engine's cost per
//! tap and the remainder is reported as `engine.unattributed_ns_per_tap`.
//!
//! Path-specific layers (store and runner, service, telemetry and timing
//! overlay, model and suite) are measured only by the workload whose path
//! enters them; on the others they read 0.

use crate::metrics::{Metrics, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{self, ratio};
use crate::workloads::{self, Env, Inputs, Kind, Outcome, SUITE};
use mltc_cache::RoundRobinTlb;
use mltc_core::{
    EngineConfig, FaultPlan, FramePrep, HostLink, L1TextureCache, L2Cache, L2Config, L2Outcome,
    LatencyModel, PreparedFrame, SimEngine, TelemetryOpts, Transfer,
};
use mltc_experiments::{
    capture_profile, engine_run_all, run_multi_client, set_max_replay_jobs, set_replay_path,
    solo_baseline, MultiClientConfig, ReplayPath, TraceStore,
};
use mltc_model::{default_grid, predict};
use mltc_raster::Traversal;
use mltc_telemetry::Recorder;
use mltc_texture::{PageTableLayout, TextureId, TextureRegistry};
use mltc_trace::codec::{decode_frame, encode_frame, frame_cursor, TraceFileWriter};
use mltc_trace::{filter_footprint, filter_taps, FilterMode, FrameTrace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named values being collected; whatever is never set reads 0.
struct Ledger(BTreeMap<&'static str, f64>);

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn metrics(&self) -> Metrics {
        PER_LAYER
            .iter()
            .map(|d| (d.name, self.0.get(d.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Seconds each isolated stage took over one pass of the frames, and the
/// counts the pass produced (the same in every pass).
#[derive(Default, Clone, Copy)]
struct StagePass {
    filter_taps: f64,
    footprint: f64,
    prepare: f64,
    prepared_sim: f64,
    l1: f64,
    translate: f64,
    tlb: f64,
    l2: f64,
    host: f64,
    host_fault: f64,
    taps: u64,
    frags: u64,
    l1_hits: u64,
    misses: u64,
    tlb_hits: u64,
    l2_full: u64,
    l2_partial: u64,
    l2_miss: u64,
    clock_mean_search: f64,
    downloads: u64,
    fault_retries: u64,
}

impl StagePass {
    /// Keeps the faster time of each stage.
    fn keep_min(&mut self, o: &StagePass) {
        for (a, b) in [
            (&mut self.filter_taps, o.filter_taps),
            (&mut self.footprint, o.footprint),
            (&mut self.prepare, o.prepare),
            (&mut self.prepared_sim, o.prepared_sim),
            (&mut self.l1, o.l1),
            (&mut self.translate, o.translate),
            (&mut self.tlb, o.tlb),
            (&mut self.l2, o.l2),
            (&mut self.host, o.host),
            (&mut self.host_fault, o.host_fault),
        ] {
            *a = a.min(b);
        }
    }
}

/// One pass of the frames through every isolated stage.
fn stage_pass(
    sp: &mut Spans,
    filter: FilterMode,
    cfg: EngineConfig,
    reg: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    seed: u64,
) -> StagePass {
    let dims = workloads::mip_dims(reg);
    let layout = PageTableLayout::new(reg, cfg.tiling);
    let prep = FramePrep::new(&cfg, reg);
    let mut prepared = PreparedFrame::default();
    let mut engine = SimEngine::try_new(cfg, reg).expect("reference geometry is valid");
    let mut l1 = L1TextureCache::new(cfg.l1);
    let mut tlb = (cfg.tlb_entries > 0).then(|| RoundRobinTlb::new(cfg.tlb_entries));
    let mut l2 = cfg
        .l2
        .map(|c| L2Cache::new(c, cfg.tiling, layout.entry_count()));
    let mut host = HostLink::new(FaultPlan::none());
    // One attempt in a hundred fails: the link's retry machinery at work.
    let mut faulty = HostLink::new(FaultPlan::with_rate(seed, 10_000));
    let mut p = StagePass::default();
    let mut taps: Vec<(TextureId, u32, u32, u32)> = Vec::new();
    let mut misses: Vec<(TextureId, u32, u32, u32)> = Vec::new();
    let mut pages: Vec<(u32, u16)> = Vec::new();
    let mut downloads: Vec<TextureId> = Vec::new();

    for f in frames.iter().map(Arc::as_ref) {
        p.frags += f.requests.len() as u64;
        let (n, secs) = sp.time("filter.taps", |_| {
            let mut n = 0usize;
            for req in &f.requests {
                let d = &dims[req.tid.index() as usize];
                n += black_box(filter_taps(req, filter, d.len() as u32, |m| d[m as usize])).len();
            }
            n
        });
        p.filter_taps += secs;
        p.taps += n as u64;
        p.footprint += sp
            .time("filter.footprint", |_| {
                for req in &f.requests {
                    let d = &dims[req.tid.index() as usize];
                    black_box(filter_footprint(req, filter, d.len() as u32, |m| {
                        d[m as usize]
                    }));
                }
            })
            .1;
        p.prepare += sp
            .time("batch.prepare", |_| {
                prep.prepare(filter, f.requests.iter().copied(), &mut prepared)
            })
            .1;
        p.prepared_sim += sp
            .time("batch.prepared_sim", |_| {
                engine
                    .try_run_frame_prepared(&prepared)
                    .expect("prepared frame names live textures")
            })
            .1;

        // The tap stream itself, expanded outside any span.
        taps.clear();
        for req in &f.requests {
            let d = &dims[req.tid.index() as usize];
            for tap in &filter_taps(req, filter, d.len() as u32, |m| d[m as usize]) {
                taps.push((req.tid, tap.m, tap.u, tap.v));
            }
        }
        misses.clear();
        p.l1 += sp
            .time("l1.access", |_| {
                for &(tid, m, u, v) in &taps {
                    if !l1.access(tid, m, u, v) {
                        misses.push((tid, m, u, v));
                    }
                }
            })
            .1;
        p.misses += misses.len() as u64;
        p.l1_hits += (taps.len() - misses.len()) as u64;

        downloads.clear();
        if let Some(l2) = &mut l2 {
            pages.clear();
            p.translate += sp
                .time("address.translate", |_| {
                    for &(tid, m, u, v) in &misses {
                        let addr = layout
                            .translate(tid, u, v, m)
                            .expect("miss names a live texture");
                        pages.push((layout.page_table_index(&addr), addr.l1));
                    }
                })
                .1;
            if let Some(tlb) = &mut tlb {
                let (hits, secs) = sp.time("tlb.access", |_| {
                    pages
                        .iter()
                        .filter(|&&(pt, _)| tlb.access(u64::from(pt)))
                        .count()
                });
                p.tlb += secs;
                p.tlb_hits += hits as u64;
            }
            let (counts, secs) = sp.time("l2.access", |_| {
                let mut counts = [0u64; 3];
                for (&(pt, sub), &(tid, ..)) in pages.iter().zip(&misses) {
                    match l2.access(pt, sub) {
                        L2Outcome::FullHit => counts[0] += 1,
                        L2Outcome::PartialHit => {
                            counts[1] += 1;
                            downloads.push(tid);
                        }
                        L2Outcome::FullMiss => {
                            counts[2] += 1;
                            downloads.push(tid);
                        }
                    }
                }
                counts
            });
            p.l2 += secs;
            p.l2_full += counts[0];
            p.l2_partial += counts[1];
            p.l2_miss += counts[2];
        } else {
            downloads.extend(misses.iter().map(|&(tid, ..)| tid));
        }
        p.downloads += downloads.len() as u64;
        p.host += sp
            .time("host.transfer", |_| {
                for &tid in &downloads {
                    black_box(host.transfer(tid));
                }
            })
            .1;
        let (retries, secs) = sp.time("host.transfer_fault", |_| {
            let mut retries = 0u64;
            for &tid in &downloads {
                retries += match faulty.transfer(tid) {
                    Transfer::Delivered { retries } | Transfer::Failed { retries } => {
                        u64::from(retries)
                    }
                };
            }
            retries
        });
        p.host_fault += secs;
        p.fault_retries += retries;
    }
    if let Some(l2) = &l2 {
        p.clock_mean_search = l2.clock_stats().mean_search();
    }
    p
}

/// Ways to drive one whole replay of the reference hierarchy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Path {
    Scalar,
    Batched,
    Traced,
    /// Batched with the counters tier of telemetry attached.
    Counters,
    /// ... plus 3C attribution.
    Attribution,
    /// ... plus locality capture (and no attribution).
    Locality,
    /// Scalar entry point with the timing overlay attached, which diverts
    /// to the traced tap body.
    Timed,
}

impl Path {
    fn span(self) -> &'static str {
        match self {
            Path::Scalar => "engine.scalar",
            Path::Batched => "engine.batched",
            Path::Traced => "engine.traced",
            Path::Counters => "telemetry.counters",
            Path::Attribution => "telemetry.attribution",
            Path::Locality => "telemetry.locality",
            Path::Timed => "latency.overlay",
        }
    }
}

/// One whole replay along `path`; returns the seconds and the engine.
fn replay(
    sp: &mut Spans,
    path: Path,
    filter: FilterMode,
    cfg: EngineConfig,
    reg: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
) -> (SimEngine, f64) {
    sp.time(path.span(), |_| {
        let mut e = SimEngine::try_new(cfg, reg).expect("reference geometry is valid");
        let tel = |attribution, locality| TelemetryOpts {
            attribution,
            locality,
        };
        match path {
            Path::Counters => {
                e.attach_telemetry(&Recorder::enabled(), "benchmark/layers", "benchmark")
            }
            Path::Attribution => e.attach_telemetry_opts(
                &Recorder::enabled(),
                "benchmark/layers",
                "benchmark",
                tel(true, false),
            ),
            Path::Locality => e.attach_telemetry_opts(
                &Recorder::enabled(),
                "benchmark/layers",
                "benchmark",
                tel(false, true),
            ),
            Path::Timed => e.attach_timing(LatencyModel::default()),
            Path::Scalar | Path::Batched | Path::Traced => {}
        }
        for f in frames {
            match path {
                Path::Scalar | Path::Timed => e.try_run_frame_as(f, filter),
                Path::Traced => e.try_run_frame_as_traced(f, filter),
                _ => e.try_run_frame_as_batched(f, filter),
            }
            .expect("frame names live textures");
        }
        e
    })
}

/// Runs `round` (one measurement of every candidate, interleaved) at least
/// twice and then until `budget` is spent; the caller keeps minima.
fn rounds(budget: Duration, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < 2 || start.elapsed() < budget {
        round();
        n += 1;
    }
}

fn keep_min(slot: &mut f64, secs: f64) {
    *slot = slot.min(secs);
}

/// The traced run of `kind`: returns every per-layer metric, the
/// operations attempted and failed, and what went wrong if anything did.
pub fn traced_run(kind: Kind, env: &Env, seconds: f64) -> (Metrics, u64, u64, Vec<String>) {
    let mut sp = Spans::new();
    let mut led = Ledger(BTreeMap::new());
    let mut problems = Vec::new();
    let share = |part: f64| Duration::from_secs_f64(seconds * part);
    let p = env.scale.params;

    // Input layers, timed directly rather than through the store.
    let (scene, secs) = sp.time("scene.build", |_| kind.scene().build(&p));
    led.set("scene.build_ms", secs * 1e3);
    let (frags, secs) = sp.time("raster.render", |_| {
        let mut frags = 0u64;
        scene.render_animation(FilterMode::Point, false, |t| {
            frags += t.requests.len() as u64
        });
        frags
    });
    led.set("raster.render_mfrag_per_s", ratio(frags as f64 / 1e6, secs));
    drop(scene);

    let inputs = sp
        .time("harness.setup", |_| workloads::setup(kind, env, "inputs"))
        .0;
    let frames = inputs.frames();
    let reg = inputs.scene.registry();
    let (filter, cfg) = kind.reference();

    // The workload itself, untraced and traced in turn: how steady the
    // repetitions are, and what the spans cost.
    let _warm_up = workloads::rep(kind, &inputs, &frames, env, None);
    let mut plain: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Outcome> = Vec::new();
    rounds(share(0.25), || {
        plain.push(workloads::rep(kind, &inputs, &frames, env, None));
        traced.push(workloads::rep(kind, &inputs, &frames, env, Some(&mut sp)));
    });
    let plain_s: Vec<f64> = plain.iter().map(|r| r.wall_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    led.set("harness.rep_ms_p50", stats::quartiles(&plain_s).1 * 1e3);
    led.set("harness.rep_spread", stats::spread(&plain_s));
    led.set(
        "harness.trace_overhead_share",
        ratio(
            stats::min(&traced_s) - stats::min(&plain_s),
            stats::min(&plain_s),
        ),
    );
    let mut attempted = 1u64;
    let mut failed = 0u64;
    for r in plain.iter().chain(&traced) {
        attempted += r.attempted;
        failed += r.failed;
        if r.digest != plain[0].digest {
            problems.push("repetitions disagree on simulated statistics".to_string());
        }
    }

    // The isolated stages.
    let mut stage: Option<StagePass> = None;
    rounds(share(0.3), || {
        let pass = stage_pass(&mut sp, filter, cfg, reg, &frames, p.seed);
        match &mut stage {
            Some(best) => best.keep_min(&pass),
            None => stage = Some(pass),
        }
    });
    let stage = stage.expect("at least one pass ran");
    let taps = stage.taps as f64;
    let per_tap = |secs: f64| ratio(secs * 1e9, taps);
    led.set("filter.taps_ns_per_tap", per_tap(stage.filter_taps));
    led.set(
        "filter.footprint_ns_per_frag",
        ratio(stage.footprint * 1e9, stage.frags as f64),
    );
    led.set("batch.prepare_ns_per_tap", per_tap(stage.prepare));
    led.set("batch.prepared_sim_ns_per_tap", per_tap(stage.prepared_sim));
    led.set("l1.access_ns_per_tap", per_tap(stage.l1));
    led.set("l1.hit_share", ratio(stage.l1_hits as f64, taps));
    led.set("address.translate_ns_per_tap", per_tap(stage.translate));
    let misses = stage.misses as f64;
    if cfg.l2.is_some() {
        if cfg.tlb_entries > 0 {
            led.set("tlb.access_ns", ratio(stage.tlb * 1e9, misses));
            led.set("tlb.hit_share", ratio(stage.tlb_hits as f64, misses));
        }
        led.set("l2.access_ns", ratio(stage.l2 * 1e9, misses));
        led.set("l2.full_hit_share", ratio(stage.l2_full as f64, misses));
        led.set(
            "l2.partial_hit_share",
            ratio(stage.l2_partial as f64, misses),
        );
        led.set("l2.miss_share", ratio(stage.l2_miss as f64, misses));
        led.set("l2.clock_mean_search", stage.clock_mean_search);
    }
    let downloads = stage.downloads as f64;
    led.set("host.transfer_ns", ratio(stage.host * 1e9, downloads));
    led.set(
        "host.transfer_fault_ns",
        ratio(stage.host_fault * 1e9, downloads),
    );
    led.set(
        "host.retry_share",
        ratio(stage.fault_retries as f64, downloads),
    );

    // Whole-engine replays of the same hierarchy, path against path.
    let observed = kind == Kind::ObservedTimed;
    let paths: &[Path] = if observed {
        &[
            Path::Scalar,
            Path::Batched,
            Path::Traced,
            Path::Counters,
            Path::Attribution,
            Path::Locality,
            Path::Timed,
        ]
    } else {
        &[Path::Scalar, Path::Batched]
    };
    let mut best = vec![f64::INFINITY; paths.len()];
    let mut stall_share = 0.0;
    let mut scalar_frames = Vec::new();
    rounds(share(if observed { 0.45 } else { 0.35 }), || {
        for (slot, &path) in best.iter_mut().zip(paths) {
            let (engine, secs) = replay(&mut sp, path, filter, cfg, reg, &frames);
            keep_min(slot, secs);
            match path {
                Path::Scalar => scalar_frames = engine.frames().to_vec(),
                Path::Timed => {
                    let t = engine.timing().expect("timing was attached").totals();
                    stall_share = ratio(
                        (t.stall_cycles + t.issue_stall_cycles) as f64,
                        t.cycles_total as f64,
                    );
                }
                _ => {}
            }
            if engine.frames() != scalar_frames.as_slice() {
                problems.push(format!(
                    "{} counters differ from scalar counters",
                    path.span()
                ));
            }
        }
    });
    let of = |path: Path| best[paths.iter().position(|&p| p == path).expect("path was run")];
    led.set("engine.scalar_ns_per_tap", per_tap(of(Path::Scalar)));
    led.set("engine.batched_ns_per_tap", per_tap(of(Path::Batched)));
    led.set(
        "engine.batched_over_scalar",
        ratio(of(Path::Scalar), of(Path::Batched)),
    );
    let stage_sum =
        stage.filter_taps + stage.l1 + stage.translate + stage.tlb + stage.l2 + stage.host;
    led.set(
        "engine.unattributed_ns_per_tap",
        per_tap(of(Path::Scalar) - stage_sum),
    );
    if observed {
        led.set("engine.traced_ns_per_tap", per_tap(of(Path::Traced)));
        led.set(
            "telemetry.counters_ns_per_tap",
            per_tap(of(Path::Counters) - of(Path::Batched)),
        );
        led.set(
            "telemetry.attribution_ns_per_tap",
            per_tap(of(Path::Attribution) - of(Path::Counters)),
        );
        led.set(
            "telemetry.locality_ns_per_tap",
            per_tap(of(Path::Locality) - of(Path::Counters)),
        );
        led.set(
            "latency.overlay_ns_per_tap",
            per_tap(of(Path::Timed) - of(Path::Traced)),
        );
        led.set("latency.stall_share", stall_share);
    }

    match kind {
        Kind::StreamSweep => stream_layers(&mut sp, &mut led, &inputs, &frames, env, share(0.25)),
        Kind::Service2c => {
            service_layers(&mut sp, &mut led, reg, &frames, share(0.25), &mut problems)
        }
        Kind::SuiteSweeps => {
            for (i, (_, metric)) in SUITE.into_iter().enumerate() {
                let secs: Vec<f64> = plain.iter().chain(&traced).map(|r| r.parts[i]).collect();
                led.set(metric, stats::min(&secs));
            }
            model_layers(&mut sp, &mut led, reg, &frames, taps);
        }
        _ => {}
    }

    failed += u64::from(!problems.is_empty());
    led.set("failed_share", ratio(failed as f64, attempted as f64));
    let out = crate::home().join("out");
    let path = out.join(format!("trace-{}.json", kind.name()));
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| sp.write(&path, kind.name())) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    (led.metrics(), attempted, failed, problems)
}

/// Container, store and runner: the layers only `stream_sweep` crosses.
fn stream_layers(
    sp: &mut Spans,
    led: &mut Ledger,
    inputs: &Inputs,
    frames: &[Arc<FrameTrace>],
    env: &Env,
    budget: Duration,
) {
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let (encoded, secs) = sp.time("codec.encode", |_| {
        frames.iter().map(|f| encode_frame(f)).collect::<Vec<_>>()
    });
    let bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();
    led.set("codec.encode_mb_per_s", ratio(mb(bytes), secs));
    let ((), secs) = sp.time("codec.decode", |_| {
        for b in &encoded {
            black_box(decode_frame(&mut &b[..]).expect("decode what was just encoded"));
        }
    });
    led.set("codec.decode_mb_per_s", ratio(mb(bytes), secs));
    let (reqs, secs) = sp.time("codec.cursor", |_| {
        let mut reqs = 0u64;
        for b in &encoded {
            let (cursor, _) = frame_cursor(b).expect("cursor over what was just encoded");
            for r in cursor.requests() {
                black_box(r);
                reqs += 1;
            }
        }
        reqs
    });
    led.set("codec.decode_ns_per_req", ratio(secs * 1e9, reqs as f64));
    drop(encoded);

    // The store's write side: the container writer over a buffered file.
    let file = env.tmp.join("persist.mltct");
    let (written, secs) = sp.time("store.persist", |_| {
        let f = std::fs::File::create(&file).expect("create file under benchmark/out");
        let mut w = TraceFileWriter::new(BufWriter::new(f), "benchmark", frames.len() as u32)
            .expect("write container header");
        for f in frames {
            w.write_frame(f).expect("write frame");
        }
        w.finish()
            .and_then(|mut inner| Ok(inner.flush()?))
            .expect("flush container");
        std::fs::metadata(&file).map_or(0, |m| m.len())
    });
    led.set("store.persist_mb_per_s", ratio(mb(written), secs));

    // A second store over the same directory with room to hold the trace:
    // its first request loads the file, later ones hit memory.
    let dir = inputs
        .store
        .dir()
        .expect("stream_sweep's store is persistent");
    let resident = TraceStore::persistent(dir);
    let (_, secs) = sp.time("store.load", |_| {
        resident.get_or_render(&inputs.scene, false, Traversal::Scanline)
    });
    led.set(
        "store.load_mb_per_s",
        ratio(mb(resident.snapshot().bytes_read), secs),
    );
    const HITS: u32 = 10_000;
    let ((), secs) = sp.time("store.mem_hit", |_| {
        for _ in 0..HITS {
            black_box(resident.get_or_render(&inputs.scene, false, Traversal::Scanline));
        }
    });
    led.set("store.mem_hit_us", secs * 1e6 / f64::from(HITS));

    let (filter, _) = Kind::StreamSweep.reference();
    let configs = workloads::stream_configs();
    let sweep = |sp: &mut Spans, name: &'static str, store: &TraceStore| {
        sp.time(name, |_| {
            engine_run_all(store, &inputs.scene, filter, &configs, false).expect("sweep replays")
        })
        .1
    };
    let [mut disk, mut memory, mut serial, mut pipelined] = [f64::INFINITY; 4];
    rounds(budget, || {
        keep_min(&mut disk, sweep(sp, "runner.disk", &inputs.store));
        keep_min(&mut memory, sweep(sp, "runner.memory", &resident));
        set_max_replay_jobs(1);
        keep_min(&mut serial, sweep(sp, "runner.memory_1job", &resident));
        set_max_replay_jobs(crate::JOBS);
        set_replay_path(ReplayPath::Pipelined);
        keep_min(
            &mut pipelined,
            sweep(sp, "runner.disk_pipelined", &inputs.store),
        );
        set_replay_path(ReplayPath::Batched);
    });
    led.set("runner.stream_over_memory", ratio(disk, memory));
    led.set(
        "runner.parallel_efficiency",
        ratio(serial, crate::JOBS as f64 * memory),
    );
    led.set("runner.pipelined_over_batched", ratio(pipelined, disk));
}

/// The service layer: the same two clients through the service, alone as
/// plain engines, and one at a time through a one-client service.
fn service_layers(
    sp: &mut Spans,
    led: &mut Ledger,
    reg: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    budget: Duration,
    problems: &mut Vec<String>,
) {
    let cfg = workloads::service_config();
    let clients = workloads::service_clients();
    // Half the L2 for a lone client: the partition it has among two.
    let mut alone_cfg = cfg;
    alone_cfg.service.l2 = Some(L2Config::mb(2));
    let quiet = Recorder::disabled();
    let [mut together, mut solo, mut alone] = [f64::INFINITY; 3];
    let mut last = None;
    rounds(budget, || {
        let (report, secs) = sp.time("service.together", |_| {
            run_multi_client(reg, frames, &clients, &cfg, &quiet).expect("service runs")
        });
        keep_min(&mut together, secs);
        let (solos, secs) = sp.time("service.solo_engines", |_| {
            [0, 1].map(|i| solo_baseline(reg, frames, &clients, &cfg, i).expect("solo replays"))
        });
        keep_min(&mut solo, secs);
        let (alones, secs) = sp.time("service.one_client_each", |_| {
            [0, 1].map(|i| one_client(reg, frames, &alone_cfg, i))
        });
        keep_min(&mut alone, secs);
        for i in 0..2 {
            let c = &report.clients[i];
            if c.totals != solos[i].totals() || c.totals != alones[i] {
                problems.push(format!("client {i} differs from its solo baseline"));
            }
        }
        last = Some(report);
    });
    let report = last.expect("at least one round ran");
    let taps: u64 = report.clients.iter().map(|c| c.totals.l1_accesses).sum();
    led.set(
        "service.client_ns_per_tap",
        ratio(together * 1e9, taps as f64),
    );
    led.set("service.over_solo", ratio(together, solo));
    led.set(
        "service.parallel_efficiency",
        ratio(alone, crate::JOBS as f64 * together),
    );
    led.set(
        "service.lock_stall_share",
        ratio(
            report.contention.contended_nanos as f64 / 1e9,
            together * clients.len() as f64,
        ),
    );
    led.set(
        "service.queue_stalls",
        report.clients.iter().map(|c| c.queue_stalls).sum::<u64>() as f64,
    );

    fn one_client(
        reg: &TextureRegistry,
        frames: &[Arc<FrameTrace>],
        cfg: &MultiClientConfig,
        i: usize,
    ) -> mltc_core::FrameCounters {
        let spec = [workloads::service_clients()[i]];
        run_multi_client(reg, frames, &spec, cfg, &Recorder::disabled())
            .expect("one-client service runs")
            .clients[0]
            .totals
    }
}

/// The analytic model: one instrumented capture replay, then the default
/// grid predicted from the profile.
fn model_layers(
    sp: &mut Spans,
    led: &mut Ledger,
    reg: &TextureRegistry,
    frames: &[Arc<FrameTrace>],
    taps: f64,
) {
    let (profile, secs) = sp.time("model.capture", |_| {
        capture_profile(reg, frames).expect("capture replay")
    });
    led.set("model.capture_ns_per_tap", ratio(secs * 1e9, taps));
    let grid = default_grid(&profile);
    let ((), secs) = sp.time("model.predict", |_| {
        for point in &grid {
            let _ = black_box(predict(&profile, point));
        }
    });
    led.set(
        "model.predict_us_per_point",
        ratio(secs * 1e6, grid.len() as f64),
    );
}
