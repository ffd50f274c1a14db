//! End-to-end conformance: the committed tiny traces replayed through the
//! differential oracle (the paper's Appendix pseudo-code, held as a naive
//! model), behaviourally and with the timing overlay attached, plus the
//! divergence/shrink/repro pipeline driven with a deliberately mismatched
//! model pair.
//!
//! The matrix tests run every row of [`conformance_matrix`] — the 19
//! configurations the explorer also grades its model against — and the
//! smallest caches each level allows over both committed traces. Every
//! timed replay carries three checks (see `DiffHarness::with_timing`):
//! the engine's cycle total never exceeds the naive single-queue serial
//! reference, the lockstep model is *exactly* one cycle per access, and
//! the timed link moves exactly the bytes the behavioural machine
//! downloaded. A divergence is delta-minimized and written as a
//! self-contained repro JSON under `CARGO_TARGET_TMPDIR/repros` (replay
//! it with `tracetool shrink <trace> --config <repro>`), and the test
//! fails naming the trace, the row, the filter, the model and that path.

use mltc_core::{
    EngineConfig, L1Config, L2Config, LatencyModel, ReplacementPolicy, SimEngine, StorageFormat,
};
use mltc_experiments::conformance_matrix;
use mltc_oracle::{
    expand_frame, replay_pair, DiffHarness, OracleEngine, Repro, TexelAccess, TraceKey,
};
use mltc_scene::Workload;
use mltc_trace::codec::TraceFileReader;
use mltc_trace::FilterMode;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

const CITY: &str = "city-64x48-f4-ts8-s5eed-late-scanline.mltct";
const VILLAGE: &str = "village-64x48-f4-ts8-s5eed-late-scanline.mltct";

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/traces")
}

/// Loads a committed trace and expands it at `filter` to a texel stream,
/// returning the rebuilt workload alongside (it owns the registry). The
/// committed traces are recorded at point sampling.
fn load(name: &str, filter: FilterMode) -> (Workload, Vec<TexelAccess>) {
    let path = traces_dir().join(name);
    let mut reader = TraceFileReader::new(BufReader::new(
        File::open(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    ))
    .expect("committed trace is a valid container");
    let key = TraceKey::parse(reader.key()).expect("committed trace has a parseable key");
    let workload = key.workload();
    let mut stream = Vec::new();
    for _ in 0..reader.frame_count() {
        let frame = reader.read_frame().expect("committed trace decodes");
        expand_frame(&frame, filter, workload.scene().registry(), &mut stream)
            .expect("trace tids exist in the rebuilt workload");
    }
    assert!(
        !stream.is_empty(),
        "tiny trace expands to a nonempty stream"
    );
    (workload, stream)
}

/// The matrix's eviction-stress row for `policy`: a 64 KB (64-block) L2,
/// so replacement actually runs on the tiny traces.
fn stress_cfg(policy: ReplacementPolicy) -> EngineConfig {
    EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config {
            size_bytes: 64 * 1024,
            policy,
            ..L2Config::mb(1)
        }),
        tlb_entries: 8,
        ..EngineConfig::default()
    }
}

/// The smallest caches each level allows, where every access is an edge
/// of some counter or index: a one-line L1, a one-block L2 under each
/// policy, a one-entry TLB, and a pull engine on the one-line L1.
fn smallest_caches() -> Vec<(String, EngineConfig)> {
    let clock = stress_cfg(ReplacementPolicy::Clock);
    let one_line = L1Config {
        size_bytes: clock.l1.line_bytes(),
        ways: 1,
        ..clock.l1
    };
    let mut rows = vec![
        (
            "l1=1 line l2=64KB policy=clock tlb=8".to_string(),
            EngineConfig {
                l1: one_line,
                ..clock
            },
        ),
        (
            "l1=1 line l2=off".to_string(),
            EngineConfig {
                l1: one_line,
                l2: None,
                ..EngineConfig::default()
            },
        ),
        (
            "l2=64KB policy=clock tlb=1".to_string(),
            EngineConfig {
                tlb_entries: 1,
                ..clock
            },
        ),
    ];
    for policy in [
        ReplacementPolicy::Clock,
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
    ] {
        let cfg = stress_cfg(policy);
        rows.push((
            format!("l2=1 block policy={policy} tlb=8"),
            EngineConfig {
                l2: Some(L2Config {
                    size_bytes: cfg.tiling.l2().cache_bytes(),
                    ..cfg.l2.expect("stress rows have an L2")
                }),
                ..cfg
            },
        ));
    }
    rows
}

/// Replays `stream` through the engine and the oracle under `cfg` (timed
/// under `model`, if any). On a divergence, shrinks the stream, writes a
/// self-contained repro and fails naming the case and the repro's path.
fn conform(
    case: &str,
    workload: &Workload,
    stream: &[TexelAccess],
    cfg: EngineConfig,
    model: Option<LatencyModel>,
) {
    let registry = workload.scene().registry();
    let harness =
        DiffHarness::new(cfg, registry).unwrap_or_else(|e| panic!("{case}: invalid config: {e}"));
    let (harness, case) = match model {
        Some(model) => (
            harness.with_timing(model),
            format!("{case} [timing {}]", model.label()),
        ),
        None => (harness, format!("{case} [behavioural]")),
    };
    if let Err(div) = harness.replay(stream) {
        let shrunk = harness.shrink(stream);
        let detail = harness
            .replay(&shrunk)
            .expect_err("shrunk stream still diverges");
        let repro = Repro::capture(format!("{case}: {detail}"), cfg, registry, &shrunk);
        let written = repro
            .write(&Path::new(env!("CARGO_TARGET_TMPDIR")).join("repros"))
            .map_or_else(|e| format!("not written: {e}"), |p| p.display().to_string());
        panic!(
            "{case}: {div}\n  shrunk to {} accesses, repro: {written}",
            shrunk.len()
        );
    }
}

/// Behavioural conformance: every matrix row and every smallest-cache row
/// on both traces at point and trilinear sampling.
#[test]
fn every_matrix_row_conforms_at_point_and_trilinear() {
    let rows: Vec<_> = conformance_matrix()
        .into_iter()
        .chain(smallest_caches())
        .collect();
    for name in [CITY, VILLAGE] {
        for filter in [FilterMode::Point, FilterMode::Trilinear] {
            let (workload, stream) = load(name, filter);
            for (row, cfg) in &rows {
                conform(
                    &format!("{name}, {row}, {filter:?}"),
                    &workload,
                    &stream,
                    *cfg,
                    None,
                );
            }
        }
    }
}

/// The lockstep timing model (every cost zero: exactly one cycle per
/// access) on every matrix row at point, and on the smallest-cache rows
/// at point and trilinear.
#[test]
fn every_matrix_row_keeps_lockstep_timing() {
    for name in [CITY, VILLAGE] {
        for filter in [FilterMode::Point, FilterMode::Trilinear] {
            let (workload, stream) = load(name, filter);
            let mut rows = smallest_caches();
            if filter == FilterMode::Point {
                rows.extend(conformance_matrix());
            }
            for (row, cfg) in &rows {
                conform(
                    &format!("{name}, {row}, {filter:?}"),
                    &workload,
                    &stream,
                    *cfg,
                    Some(LatencyModel::lockstep()),
                );
            }
        }
    }
}

/// The default non-blocking machine, a high-latency starved link, and the
/// blocking degeneration of each, held to the naive serial bound and to
/// link byte conservation on every fourth matrix row and the three
/// eviction-stress rows, at point.
#[test]
fn latency_models_meet_their_bounds_on_sampled_and_eviction_stress_rows() {
    let stressed = LatencyModel {
        host_latency: 200,
        host_bytes_per_cycle: 1,
        ..LatencyModel::default()
    };
    let models = [
        LatencyModel::default(),
        LatencyModel::default().blocking(),
        stressed,
        stressed.blocking(),
    ];
    let rows: Vec<_> = conformance_matrix()
        .into_iter()
        .enumerate()
        .filter(|(i, (row, _))| i % 4 == 0 || row.ends_with("(eviction stress)"))
        .map(|(_, row)| row)
        .collect();
    assert_eq!(rows.len(), 7, "rows 0, 4, 8, 12 and the three stress rows");
    // The pull engine on the 2 KB L1 and each policy's eviction-stress
    // hierarchy are among them.
    let pull = EngineConfig {
        l1: L1Config::kb(2),
        ..EngineConfig::default()
    };
    for cfg in [
        pull,
        stress_cfg(ReplacementPolicy::Clock),
        stress_cfg(ReplacementPolicy::Lru),
        stress_cfg(ReplacementPolicy::Fifo),
    ] {
        assert!(rows.iter().any(|(_, row)| *row == cfg), "{}", cfg.label());
    }
    for name in [CITY, VILLAGE] {
        let (workload, stream) = load(name, FilterMode::Point);
        for (row, cfg) in &rows {
            for model in models {
                conform(
                    &format!("{name}, {row}, Point"),
                    &workload,
                    &stream,
                    *cfg,
                    Some(model),
                );
            }
        }
    }
}

/// The engine's closed-form set index against the oracle's serial fold
/// at L1 shapes from one set to 256: 128 B (1 set), 256 B (2 sets),
/// 256 B direct-mapped (4 sets, the one here whose fold keeps hash bit
/// 31), 512 B direct-mapped (8 sets), 16 KB (128 sets) and 64 KB 4-way
/// (256 sets), tiled and linear, with and without an L2. Small caches
/// conflict constantly, so a line placed in another set than the
/// oracle's shows as a hit/miss divergence.
#[test]
fn committed_traces_conform_across_l1_geometries() {
    let geometries = [
        (128, 2),
        (256, 2),
        (256, 1),
        (512, 1),
        (16 << 10, 2),
        (64 << 10, 4),
    ];
    for name in [CITY, VILLAGE] {
        let (workload, stream) = load(name, FilterMode::Point);
        let registry = workload.scene().registry();
        for (size_bytes, ways) in geometries {
            for storage in [StorageFormat::Tiled, StorageFormat::Linear] {
                let l1 = L1Config {
                    size_bytes,
                    ways,
                    storage,
                    ..L1Config::kb(2)
                };
                let multi_level = EngineConfig {
                    l1,
                    ..stress_cfg(ReplacementPolicy::Clock)
                };
                let pull = EngineConfig {
                    l1,
                    ..EngineConfig::default()
                };
                for cfg in [pull, multi_level] {
                    let harness = DiffHarness::new(cfg, registry).unwrap();
                    if let Err(div) = harness.replay(&stream) {
                        panic!("{name}, {} {ways}-way {storage:?}: {div}", cfg.label());
                    }
                }
            }
        }
    }
}

/// The full divergence pipeline on a deliberately mismatched pair: an
/// engine with more L2 capacity than the oracle must diverge; the shrunk
/// stream must stay small and round-trip through the repro JSON into a
/// registry that reproduces the divergence.
#[test]
fn mismatched_models_shrink_to_a_small_repro_that_roundtrips() {
    let (workload, stream) = load(CITY, FilterMode::Point);
    let registry = workload.scene().registry();
    let small = EngineConfig {
        l2: Some(L2Config {
            size_bytes: 8 * 1024,
            ..stress_cfg(ReplacementPolicy::Clock).l2.unwrap()
        }),
        ..stress_cfg(ReplacementPolicy::Clock)
    };
    let big = stress_cfg(ReplacementPolicy::Clock);

    let mut engine = SimEngine::new(big, registry);
    let mut oracle = OracleEngine::new(small, registry);
    let div =
        replay_pair(&mut engine, &mut oracle, &stream).expect_err("capacity mismatch must diverge");

    // Shrink under the *small* config by replaying against a fresh oracle
    // pair per candidate: use the harness of the small config on a synthetic
    // "bug" — here we just assert the ddmin machinery produces a stream that
    // still triggers the divergence between the two configs.
    let mut cursor = stream[..=div.index].to_vec();
    // Greedy one-at-a-time shrink against the mismatched pair.
    let diverges = |accesses: &[TexelAccess]| {
        let mut e = SimEngine::new(big, registry);
        let mut o = OracleEngine::new(small, registry);
        replay_pair(&mut e, &mut o, accesses).is_err()
    };
    let mut i = 0;
    while cursor.len() > 1 && i < cursor.len() {
        let mut candidate = cursor.clone();
        candidate.remove(i);
        if diverges(&candidate) {
            cursor = candidate;
        } else {
            i += 1;
        }
    }
    assert!(
        cursor.len() <= 64,
        "shrunk repro should be tiny, got {} accesses",
        cursor.len()
    );
    assert!(diverges(&cursor), "shrunk stream still diverges");

    // Round-trip through the repro JSON and make sure the rebuilt registry
    // reproduces the same divergence.
    let repro = Repro::capture(div.to_string(), small, registry, &cursor);
    let parsed = Repro::parse(&repro.to_json().render()).expect("repro JSON parses back");
    assert_eq!(parsed, repro);
    let rebuilt = parsed.build_registry();
    let mut e = SimEngine::new(big, &rebuilt);
    let mut o = OracleEngine::new(parsed.config, &rebuilt);
    replay_pair(&mut e, &mut o, &parsed.accesses)
        .expect_err("repro reproduces the divergence on a rebuilt registry");
}

/// A healthy harness shrink is the identity on conforming streams, even on
/// real trace data.
#[test]
fn shrink_is_identity_on_conforming_trace_prefix() {
    let (workload, stream) = load(VILLAGE, FilterMode::Point);
    let harness = DiffHarness::new(
        stress_cfg(ReplacementPolicy::Lru),
        workload.scene().registry(),
    )
    .unwrap();
    let prefix = &stream[..stream.len().min(512)];
    assert_eq!(harness.shrink(prefix), prefix);
}

/// Timing divergences flow through the same ddmin shrink machinery as
/// behavioural ones: a conforming stream shrinks to itself under a timed
/// harness (the shrinker replays with timing checks enabled).
#[test]
fn timed_shrink_is_identity_on_conforming_trace_prefix() {
    let (workload, stream) = load(VILLAGE, FilterMode::Point);
    let harness = DiffHarness::new(
        stress_cfg(ReplacementPolicy::Lru),
        workload.scene().registry(),
    )
    .unwrap()
    .with_timing(LatencyModel::default());
    let prefix = &stream[..stream.len().min(512)];
    assert_eq!(harness.shrink(prefix), prefix);
}
