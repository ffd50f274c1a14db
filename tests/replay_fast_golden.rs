//! Golden bit-identity: every committed trace, replayed through the
//! monomorphized batch fast path, the wide (batched) tap kernel, the
//! prepared pipeline stage, and through the canonical per-tap traced
//! path, must produce identical per-frame counters, identical cache/host
//! end state, and identical telemetry — across every specialization the
//! fast path monomorphizes over (L2 on/off, TLB on/off, telemetry
//! on/off, all three filters). The frame-pipelined runner gets the same
//! treatment at `--jobs 2`, where its prep thread genuinely overlaps the
//! simulation. And the runner's shared-L1 replay — one L1 pass per group
//! of configurations on the same L1, recorded by the group's leader and
//! replayed by every other member — must leave every member in the state
//! its solo replay reaches, from every trace-handle kind — the three states
//! the store's one feed serves, whose other visitors (`collect_frames`,
//! `stats_bundle`) must see the same frames the engines did.

use mltc_core::{
    EngineConfig, FramePrep, L1Config, L2Config, PreparedFrame, ReplacementPolicy, SimEngine,
    TelemetryOpts,
};
use mltc_experiments::{
    collect_frames, engine_run, replay_run, set_max_replay_jobs, set_replay_path, ReplayPath,
    TraceStore,
};
use mltc_scene::TraceKey;
use mltc_telemetry::Recorder;
use mltc_trace::codec::TraceFileReader;
use mltc_trace::{FilterMode, FrameStatsCollector, FrameTrace};
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

/// The replay path and the jobs cap are process-wide: tests that set them
/// take this lock so they never see each other's values.
static RUNNER_GLOBALS: Mutex<()> = Mutex::new(());

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/traces")
}

/// Every committed trace, decoded in full, with its rebuilt workload
/// (which owns the registry the engines need).
fn committed_traces() -> Vec<(String, mltc_scene::Workload, Vec<FrameTrace>)> {
    let mut out = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(traces_dir())
        .expect("committed traces directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mltct"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "no committed .mltct traces found");
    for path in names {
        let mut reader = TraceFileReader::new(BufReader::new(
            File::open(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        ))
        .expect("committed trace is a valid container");
        let key = TraceKey::parse(reader.key()).expect("committed trace has a parseable key");
        let workload = key.workload();
        let frames: Vec<FrameTrace> = (0..reader.frame_count())
            .map(|_| reader.read_frame().expect("committed trace decodes"))
            .collect();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        out.push((name, workload, frames));
    }
    out
}

/// The specialization matrix: one configuration per fast-path arm shape.
fn matrix() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig {
        l1: L1Config::kb(2),
        ..EngineConfig::default()
    };
    vec![
        // No L2: the pull-architecture arm.
        ("pull", base),
        // L2 + TLB, small enough that replacement and the TLB both churn.
        (
            "ml-tlb",
            EngineConfig {
                l2: Some(L2Config {
                    size_bytes: 64 * 1024,
                    ..L2Config::mb(1)
                }),
                tlb_entries: 4,
                ..base
            },
        ),
        // L2 without a TLB, clock replacement, sector mapping on.
        (
            "ml-sector",
            EngineConfig {
                l2: Some(L2Config {
                    size_bytes: 64 * 1024,
                    policy: ReplacementPolicy::Clock,
                    ..L2Config::mb(1)
                }),
                tlb_entries: 0,
                ..base
            },
        ),
    ]
}

/// Which engine entry point a golden replay drives.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Canonical per-tap `access_texel_traced` loop — the baseline.
    Traced,
    /// Monomorphized scalar fast path.
    Fast,
    /// Wide tap kernel with scalar fall-through.
    Batched,
    /// The pipeline's prep stage + prepared replay, in-process.
    Prepared,
}

fn replay(
    cfg: EngineConfig,
    workload: &mltc_scene::Workload,
    frames: &[FrameTrace],
    filter: FilterMode,
    mode: Mode,
    rec: &Recorder,
) -> SimEngine {
    let registry = workload.scene().registry();
    let mut engine = SimEngine::try_new(cfg, registry).expect("matrix configs are valid");
    if rec.is_enabled() {
        // Attribution on: the golden matrix also proves the observability
        // plane never perturbs engine counters on any replay path.
        engine.attach_telemetry_opts(
            rec,
            "golden",
            "golden",
            TelemetryOpts {
                attribution: true,
                ..TelemetryOpts::default()
            },
        );
    }
    match mode {
        Mode::Prepared => {
            let prep = FramePrep::new(&cfg, registry);
            let mut buf = PreparedFrame::default();
            for t in frames {
                prep.prepare(filter, t.requests.iter().copied(), &mut buf);
                engine.try_run_frame_prepared(&buf).expect("replay");
            }
        }
        _ => {
            for t in frames {
                match mode {
                    Mode::Traced => engine.try_run_frame_as_traced(t, filter).expect("replay"),
                    Mode::Fast => engine.try_run_frame_as(t, filter).expect("replay"),
                    Mode::Batched => engine.try_run_frame_as_batched(t, filter).expect("replay"),
                    Mode::Prepared => unreachable!(),
                }
            }
        }
    }
    engine
}

#[test]
fn fast_batched_and_prepared_paths_are_bit_identical_to_traced_on_every_committed_trace() {
    for (name, workload, frames) in committed_traces() {
        for (label, cfg) in matrix() {
            for filter in [
                FilterMode::Point,
                FilterMode::Bilinear,
                FilterMode::Trilinear,
            ] {
                for telemetry in [false, true] {
                    let rec_traced = if telemetry {
                        Recorder::enabled()
                    } else {
                        Recorder::disabled()
                    };
                    let slow = replay(cfg, &workload, &frames, filter, Mode::Traced, &rec_traced);
                    // `wide_commits`/`wide_declines` say how a path got its
                    // answer — the one thing the paths are meant to differ in.
                    let path_neutral = |rec: &Recorder| {
                        let mut snap = rec.snapshot();
                        snap.counters.retain(|name, _| !name.contains("/wide_"));
                        snap
                    };
                    let st = path_neutral(&rec_traced);
                    for mode in [Mode::Fast, Mode::Batched, Mode::Prepared] {
                        let rec = if telemetry {
                            Recorder::enabled()
                        } else {
                            Recorder::disabled()
                        };
                        let fast = replay(cfg, &workload, &frames, filter, mode, &rec);
                        let ctx = format!(
                            "{name} / {label} / {filter:?} / {mode:?} / telemetry={telemetry}"
                        );
                        assert_eq!(fast.frames(), slow.frames(), "{ctx}: frame counters");
                        assert_eq!(fast.totals(), slow.totals(), "{ctx}: totals");
                        assert_eq!(
                            fast.l2().and_then(|l2| l2.clock_hand()),
                            slow.l2().and_then(|l2| l2.clock_hand()),
                            "{ctx}: clock hand"
                        );
                        assert_eq!(
                            fast.host().transfers(),
                            slow.host().transfers(),
                            "{ctx}: host transfer draws"
                        );
                        let sf = path_neutral(&rec);
                        assert_eq!(sf.counters, st.counters, "{ctx}: telemetry counters");
                        assert_eq!(sf.hists, st.hists, "{ctx}: telemetry histograms");
                    }
                }
            }
        }
    }
}

#[test]
fn pipelined_runner_at_two_jobs_is_bit_identical_to_traced() {
    // The threaded handoff itself: the experiments runner's pipelined
    // path (prep thread + recycled PreparedFrames) at `--jobs 2`, so the
    // prep of frame N+1 really does overlap the simulation of frame N.
    let _globals = RUNNER_GLOBALS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    set_max_replay_jobs(2);
    set_replay_path(ReplayPath::Pipelined);
    for (name, workload, frames) in committed_traces() {
        let shared: Vec<Arc<FrameTrace>> = frames.iter().cloned().map(Arc::new).collect();
        for (label, cfg) in matrix() {
            for filter in [
                FilterMode::Point,
                FilterMode::Bilinear,
                FilterMode::Trilinear,
            ] {
                let slow = replay(
                    cfg,
                    &workload,
                    &frames,
                    filter,
                    Mode::Traced,
                    &Recorder::disabled(),
                );
                let registry = workload.scene().registry();
                let piped = replay_run(registry, &shared, filter, &[cfg])
                    .remove(0)
                    .expect("pipelined replay succeeds");
                let ctx = format!("{name} / {label} / {filter:?} / pipelined-runner");
                assert_eq!(piped.frames(), slow.frames(), "{ctx}: frame counters");
                assert_eq!(piped.totals(), slow.totals(), "{ctx}: totals");
                assert_eq!(
                    piped.l2().and_then(|l2| l2.clock_hand()),
                    slow.l2().and_then(|l2| l2.clock_hand()),
                    "{ctx}: clock hand"
                );
                assert_eq!(
                    piped.host().transfers(),
                    slow.host().transfers(),
                    "{ctx}: host transfer draws"
                );
            }
        }
    }
    set_replay_path(ReplayPath::default());
    set_max_replay_jobs(0);
}

/// The sweeps whose configurations share an L1: `fig10`'s architecture set
/// (four of five on a 2 KB L1), `fig11`/`table8`'s five TLB sizes and
/// `ablate-replacement`'s three policies; then the L1 extremes, the largest
/// pass per tap — `city_miss_path`'s one-set 128 B L1 — and the smallest, a
/// 64 KB 4-way L1.
fn sweep_sets() -> Vec<(&'static str, Vec<EngineConfig>)> {
    let base = EngineConfig {
        l1: L1Config::kb(2),
        ..EngineConfig::default()
    };
    let ml = |l2: L2Config, tlb_entries| EngineConfig {
        l2: Some(l2),
        tlb_entries,
        ..base
    };
    vec![
        (
            "fig10",
            vec![
                base,
                EngineConfig {
                    l1: L1Config::kb(16),
                    ..base
                },
                ml(L2Config::mb(2), 0),
                ml(L2Config::mb(4), 0),
                ml(L2Config::mb(8), 0),
            ],
        ),
        (
            "fig11/table8",
            [1, 2, 4, 8, 16]
                .iter()
                .map(|&n| ml(L2Config::mb(2), n))
                .collect(),
        ),
        (
            "ablate-replacement",
            [
                ReplacementPolicy::Clock,
                ReplacementPolicy::Lru,
                ReplacementPolicy::Fifo,
            ]
            .iter()
            .map(|&policy| {
                ml(
                    L2Config {
                        policy,
                        ..L2Config::mb(2)
                    },
                    0,
                )
            })
            .collect(),
        ),
        {
            let one_set = EngineConfig {
                l1: L1Config {
                    size_bytes: 128,
                    ..L1Config::kb(2)
                },
                ..EngineConfig::default()
            };
            let l2 = L2Config {
                size_bytes: 64 << 10,
                ..L2Config::mb(2)
            };
            let ml = |tlb_entries| EngineConfig {
                l2: Some(l2),
                tlb_entries,
                ..one_set
            };
            ("one-set 128 B L1", vec![one_set, ml(2), ml(0)])
        },
        {
            let wide = EngineConfig {
                l1: L1Config {
                    size_bytes: 64 << 10,
                    ways: 4,
                    ..L1Config::kb(2)
                },
                ..EngineConfig::default()
            };
            let ml = |l2, tlb_entries| EngineConfig {
                l2: Some(l2),
                tlb_entries,
                ..wide
            };
            (
                "64 KB 4-way L1",
                vec![wide, ml(L2Config::mb(2), 16), ml(L2Config::mb(4), 0)],
            )
        },
    ]
}

#[test]
fn shared_l1_runner_is_state_identical_to_solo_replays_from_every_handle() {
    let _globals = RUNNER_GLOBALS
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("mltc-golden-shared-{}", std::process::id()));
    // The sweeps in suite order, then the first again: through one store,
    // every run on an L1 an earlier run made a pass for finds that pass —
    // the suite's sweeps after the first their 2 KB one, the last the 16 KB
    // one too.
    let mut runs = sweep_sets();
    runs.push(runs[0].clone());
    for (name, workload, frames) in committed_traces() {
        let mut collector = FrameStatsCollector::new(workload.registry());
        let working_sets: Vec<_> = frames.iter().map(|t| collector.process_frame(t)).collect();
        for filter in [
            FilterMode::Point,
            FilterMode::Bilinear,
            FilterMode::Trilinear,
        ] {
            let solo: Vec<Vec<SimEngine>> = runs
                .iter()
                .map(|(_, configs)| {
                    configs
                        .iter()
                        .map(|&cfg| {
                            let rec = Recorder::disabled();
                            replay(cfg, &workload, &frames, filter, Mode::Batched, &rec)
                        })
                        .collect()
                })
                .collect();
            for jobs in [1, 2] {
                set_max_replay_jobs(jobs);
                let _ = std::fs::remove_dir_all(&dir);
                // A 64-byte budget keeps nothing resident: the
                // persistent store streams from disk, the in-memory one
                // renders live. Both share L1 passes within a run; neither
                // has a trace to keep a pass beside.
                for (handle, store) in [
                    ("memory", TraceStore::in_memory()),
                    ("disk", TraceStore::persistent(&dir).with_budget(64)),
                    ("uncached", TraceStore::in_memory().with_budget(64)),
                ] {
                    let (mut reused, mut made) = (0, Vec::new());
                    for (run, ((set, configs), solo)) in runs.iter().zip(&solo).enumerate() {
                        let before = store.snapshot();
                        let shared = engine_run(&store, &workload, filter, configs, false);
                        let stats = store.snapshot();
                        let ctx = format!("{name} / {set} (run {run}) / {filter:?} / {handle}");
                        // From memory, every configuration on an L1 an
                        // earlier run made the pass for.
                        let mut from_store = 0;
                        if handle == "memory" {
                            from_store = configs.iter().filter(|c| made.contains(&c.l1)).count();
                            made.extend(configs.iter().map(|c| c.l1));
                            reused += from_store as u64;
                            assert!(stats.pass_bytes > 0, "{ctx}: passes held");
                        } else {
                            assert_eq!(stats.pass_bytes, 0, "{ctx}: nothing to keep a pass beside");
                        }
                        assert_eq!(stats.l1_passes_reused, reused, "{ctx}: stored-pass replays");
                        let shared_now = stats.l1_shared_members - before.l1_shared_members;
                        if from_store == configs.len() {
                            assert_eq!(shared_now, 0, "{ctx}: all from the store");
                        } else {
                            assert!(
                                shared_now >= 2,
                                "{ctx}: the sweep must actually share an L1 pass"
                            );
                        }
                        for (i, (got, want)) in shared.iter().zip(solo).enumerate() {
                            let got = got.as_ref().expect("shared replay succeeds");
                            let ctx = format!("{ctx} [{i}] / jobs={jobs}");
                            assert_eq!(got.frames(), want.frames(), "{ctx}: frame counters");
                            assert_eq!(got.totals(), want.totals(), "{ctx}: totals");
                            assert_eq!(
                                got.l2().map(|l2| (l2.clock_stats(), l2.clock_hand())),
                                want.l2().map(|l2| (l2.clock_stats(), l2.clock_hand())),
                                "{ctx}: clock state"
                            );
                            assert_eq!(
                                got.host().transfers(),
                                want.host().transfers(),
                                "{ctx}: host transfer draws"
                            );
                            assert!(got.l1().lines().eq(want.l1().lines()), "{ctx}: L1 contents");
                        }
                    }
                    // The engines saw the committed frames; so do the feed's
                    // other two visitors, whatever state the handle is in.
                    let fed = collect_frames(&store, &workload).expect("the feed cannot fail");
                    assert!(
                        fed.iter().map(|t| &**t).eq(&frames),
                        "{name} / {handle}: collect_frames"
                    );
                    assert_eq!(
                        store.stats_bundle(&workload).frames,
                        working_sets,
                        "{name} / {handle}: stats_bundle"
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    set_max_replay_jobs(0);
}

#[test]
fn timing_overlay_keeps_every_committed_trace_byte_identical() {
    // With the timing overlay attached the frame entry points ride the
    // wide frame loops under the timing sink — behavioral counters, cache
    // end state and host draws must still match the untimed traced
    // baseline bit-for-bit, while the overlay's own cycle accounting runs
    // on the side.
    use mltc_core::LatencyModel;
    for (name, workload, frames) in committed_traces() {
        for (label, cfg) in matrix() {
            for filter in [FilterMode::Bilinear, FilterMode::Trilinear] {
                let slow = replay(
                    cfg,
                    &workload,
                    &frames,
                    filter,
                    Mode::Traced,
                    &Recorder::disabled(),
                );
                for model in [LatencyModel::lockstep(), LatencyModel::default()] {
                    let registry = workload.scene().registry();
                    let mut timed = SimEngine::try_new(cfg, registry).expect("valid config");
                    timed.attach_timing(model);
                    for t in &frames {
                        timed.try_run_frame_as(t, filter).expect("timed replay");
                    }
                    let ctx = format!("{name} / {label} / {filter:?} / timing={}", model.label());
                    assert_eq!(timed.frames(), slow.frames(), "{ctx}: frame counters");
                    assert_eq!(timed.totals(), slow.totals(), "{ctx}: totals");
                    assert_eq!(
                        timed.l2().and_then(|l2| l2.clock_hand()),
                        slow.l2().and_then(|l2| l2.clock_hand()),
                        "{ctx}: clock hand"
                    );
                    assert_eq!(
                        timed.host().transfers(),
                        slow.host().transfers(),
                        "{ctx}: host transfer draws"
                    );
                    let t = timed.timing().expect("timing attached").totals();
                    assert_eq!(
                        t.taps,
                        slow.totals().l1_accesses,
                        "{ctx}: overlay observed every tap"
                    );
                    assert_eq!(
                        t.link_bytes,
                        slow.totals().host_bytes,
                        "{ctx}: link byte conservation"
                    );
                }
            }
        }
    }
}

/// Hierarchies the timing sink is checked on: the shapes of `matrix()`
/// are not enough here, because what the sink can get wrong lives in the
/// misses — lossy links (retries, failed downloads, rollbacks that re-miss
/// a line still in flight), a one-set L1 that declines most fragments, and
/// whole-block downloads.
fn timed_matrix() -> Vec<(&'static str, EngineConfig)> {
    use mltc_core::FaultPlan;
    let lossy = FaultPlan::with_rate(0x0bad_5eed, 150_000);
    let pull = EngineConfig {
        l1: L1Config::kb(2),
        ..EngineConfig::default()
    };
    let ml = EngineConfig {
        l2: Some(L2Config::mb(2)),
        ..pull
    };
    vec![
        ("pull", pull),
        (
            "pull-lossy",
            EngineConfig {
                fault: lossy,
                ..pull
            },
        ),
        ("ml", ml),
        (
            "ml-tlb",
            EngineConfig {
                tlb_entries: 16,
                ..ml
            },
        ),
        (
            "ml-tiny",
            EngineConfig {
                l1: L1Config {
                    size_bytes: 128,
                    ..L1Config::kb(2)
                },
                l2: Some(L2Config {
                    size_bytes: 64 * 1024,
                    ..L2Config::mb(2)
                }),
                tlb_entries: 2,
                ..pull
            },
        ),
        (
            "ml-blocks-lossy",
            EngineConfig {
                l2: Some(L2Config {
                    sector_mapping: false,
                    ..L2Config::mb(2)
                }),
                fault: lossy,
                ..pull
            },
        ),
    ]
}

#[test]
fn timing_sink_matches_the_per_tap_reference_cycle_for_cycle() {
    // With timing attached the scalar and the batched entry points ride
    // the wide frame loops, which hand the overlay whole all-hit fragments
    // and coalesced hit runs. `try_run_frame_as_traced` keeps the per-tap
    // feed (one tag pack, one MSHR scan, one window entry per tap): every
    // timing statistic of the two must agree, not just the behaviour.
    use mltc_core::LatencyModel;
    let models = [
        LatencyModel::default(),
        LatencyModel::lockstep(),
        LatencyModel::default().blocking(),
        LatencyModel {
            l1_mshrs: 2,
            l2_mshrs: 1,
            fill_queue_depth: 1,
            ..LatencyModel::default()
        },
        LatencyModel {
            host_bytes_per_cycle: 0,
            prefetch_depth: 4,
            ..LatencyModel::default()
        },
        LatencyModel {
            host_latency: 1000,
            l2_fill_latency: 40,
            host_bytes_per_cycle: 1,
            ..LatencyModel::default()
        },
    ];
    let mut merges = 0;
    for (name, workload, frames) in committed_traces() {
        let registry = workload.scene().registry();
        for (label, cfg) in timed_matrix() {
            for filter in [
                FilterMode::Point,
                FilterMode::Bilinear,
                FilterMode::Trilinear,
            ] {
                for model in models {
                    let run = |entry: fn(&mut SimEngine, &FrameTrace, FilterMode)| {
                        let mut e = SimEngine::try_new(cfg, registry).expect("valid config");
                        e.attach_timing(model);
                        for t in &frames {
                            entry(&mut e, t, filter);
                        }
                        e
                    };
                    let reference = run(|e, t, f| e.try_run_frame_as_traced(t, f).expect("replay"));
                    let rt = reference.timing().expect("timing attached");
                    merges += rt.totals().l1_merges;
                    for (entry, wide) in [
                        (
                            "scalar",
                            run(|e, t, f| e.try_run_frame_as(t, f).expect("replay")),
                        ),
                        (
                            "batched",
                            run(|e, t, f| e.try_run_frame_as_batched(t, f).expect("replay")),
                        ),
                    ] {
                        let ctx = format!(
                            "{name} / {label} / {filter:?} / {} / {entry}",
                            model.label()
                        );
                        let wt = wide.timing().expect("timing attached");
                        assert_eq!(wide.frames(), reference.frames(), "{ctx}: frame counters");
                        assert_eq!(wt.totals(), rt.totals(), "{ctx}: timing totals");
                        assert_eq!(wt.frames(), rt.frames(), "{ctx}: per-frame timing");
                        assert_eq!(wt.peak_occupancy(), rt.peak_occupancy(), "{ctx}: peaks");
                        assert_eq!(
                            wt.structural_stalls(),
                            rt.structural_stalls(),
                            "{ctx}: structural stalls"
                        );
                        assert_eq!(
                            wt.mean_l1_occupancy().to_bits(),
                            rt.mean_l1_occupancy().to_bits(),
                            "{ctx}: mean L1 MSHR occupancy"
                        );
                        assert_eq!(
                            wt.totals().link_bytes,
                            wide.totals().host_bytes,
                            "{ctx}: link byte conservation"
                        );
                        let fed = wt.sink_stats();
                        assert_eq!(
                            fed.wide_fragments > 0,
                            filter != FilterMode::Point,
                            "{ctx}: quad fragments, and only they, retire as one event"
                        );
                    }
                }
            }
        }
    }
    assert!(merges > 0, "no replay ever hit a line still in flight");
}

#[test]
fn fast_path_totals_are_nonzero_on_committed_traces() {
    // Guard against the golden test passing vacuously (empty traces or a
    // replay that silently does nothing).
    let (_, workload, frames) = committed_traces().remove(0);
    let (_, cfg) = matrix().remove(1);
    let fast = replay(
        cfg,
        &workload,
        &frames,
        FilterMode::Bilinear,
        Mode::Fast,
        &Recorder::disabled(),
    );
    assert!(fast.totals().l1_accesses > 0);
    assert!(fast.frames().len() == frames.len());
}
