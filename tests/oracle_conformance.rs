//! End-to-end conformance: the committed tiny traces replayed through the
//! differential oracle, plus the divergence/shrink/repro pipeline driven
//! with a deliberately mismatched model pair.

use mltc_core::{EngineConfig, L1Config, L2Config, ReplacementPolicy, SimEngine, StorageFormat};
use mltc_oracle::{
    expand_frame, replay_pair, DiffHarness, OracleEngine, Repro, TexelAccess, TraceKey,
};
use mltc_trace::codec::TraceFileReader;
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

fn traces_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/traces")
}

/// Loads a committed trace and expands it to a texel stream, returning the
/// rebuilt workload alongside (it owns the registry).
fn load(name: &str) -> (mltc_scene::Workload, Vec<TexelAccess>) {
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
        expand_frame(
            &frame,
            frame.filter,
            workload.scene().registry(),
            &mut stream,
        )
        .expect("trace tids exist in the rebuilt workload");
    }
    assert!(
        !stream.is_empty(),
        "tiny trace expands to a nonempty stream"
    );
    (workload, stream)
}

fn stress_cfg(policy: ReplacementPolicy) -> EngineConfig {
    EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config {
            size_bytes: 64 * 1024, // 64 blocks: replacement actually runs
            policy,
            ..L2Config::mb(1)
        }),
        tlb_entries: 8,
        ..EngineConfig::default()
    }
}

#[test]
fn committed_city_trace_conforms_across_policies() {
    let (workload, stream) = load("city-64x48-f4-ts8-s5eed-late-scanline.mltct");
    let registry = workload.scene().registry();
    for policy in [
        ReplacementPolicy::Clock,
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
    ] {
        let harness = DiffHarness::new(stress_cfg(policy), registry).unwrap();
        if let Err(div) = harness.replay(&stream) {
            panic!("policy {policy}: {div}");
        }
    }
}

#[test]
fn committed_village_trace_conforms_without_l2() {
    let (workload, stream) = load("village-64x48-f4-ts8-s5eed-late-scanline.mltct");
    let cfg = EngineConfig {
        l1: L1Config::kb(2),
        l2: None,
        ..EngineConfig::default()
    };
    let harness = DiffHarness::new(cfg, workload.scene().registry()).unwrap();
    harness.replay(&stream).expect("pull architecture conforms");
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
    for name in [
        "city-64x48-f4-ts8-s5eed-late-scanline.mltct",
        "village-64x48-f4-ts8-s5eed-late-scanline.mltct",
    ] {
        let (workload, stream) = load(name);
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
    let (workload, stream) = load("city-64x48-f4-ts8-s5eed-late-scanline.mltct");
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
    let (workload, stream) = load("village-64x48-f4-ts8-s5eed-late-scanline.mltct");
    let harness = DiffHarness::new(
        stress_cfg(ReplacementPolicy::Lru),
        workload.scene().registry(),
    )
    .unwrap();
    let prefix = &stream[..stream.len().min(512)];
    assert_eq!(harness.shrink(prefix), prefix);
}
