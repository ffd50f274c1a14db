//! Property and metamorphic tests over the differential oracle.
//!
//! Access streams are generated from raw integer tuples and shaped in-body
//! (the vendored proptest supports the `proptest!` macro with basic
//! strategies only): skewed texture ids (texture 0 is hot), mip-level
//! walks, and frame-coherent re-touch (the whole stream optionally replays
//! a second time, modelling the next frame touching the same texels).

use mltc_core::{
    AccessTrace, EngineConfig, FaultPlan, FrameCounters, L1Config, L2Config, L2Outcome,
    LatencyModel, ReplacementPolicy, SimEngine, StorageFormat, TelemetryOpts,
};
use mltc_oracle::{expand_frame, DiffHarness, OracleEngine, TexelAccess};
use mltc_telemetry::Recorder;
use mltc_texture::{synth, MipPyramid, TextureId, TextureRegistry};
use mltc_trace::{FilterMode, FrameTrace, PixelRequest};
use proptest::prelude::*;

const TEX_DIM: u32 = 64;
const TEX_COUNT: u32 = 3;

fn registry() -> TextureRegistry {
    let mut reg = TextureRegistry::new();
    for i in 0..TEX_COUNT {
        reg.load(
            format!("t{i}"),
            MipPyramid::from_image(synth::checkerboard(TEX_DIM, 4, [0; 3], [255; 3])),
        );
    }
    reg
}

/// Shapes raw tuples into a valid access stream. `tid_sel` is skewed so
/// texture 0 dominates (cache contention on a hot texture); `walk` turns an
/// access into a short mip-level walk (the trilinear pattern); `retouch`
/// replays the whole stream once more, frame-coherently.
fn shape_stream(raw: &[(u8, u8, u32, u32, u8)], retouch: bool) -> Vec<TexelAccess> {
    let mut stream = Vec::new();
    for &(tid_sel, m_raw, u_raw, v_raw, walk) in raw {
        // Skew: 0..=4 -> texture 0, 5..=6 -> 1, 7 -> 2.
        let tid = match tid_sel % 8 {
            0..=4 => 0,
            5 | 6 => 1,
            _ => 2,
        };
        let m0 = (m_raw % 4) as u32; // dims 64,32,16,8 at m 0..=3
        let walk_len = if walk % 4 == 0 { 2 } else { 1 };
        for step in 0..walk_len {
            let m = (m0 + step).min(3);
            let dim = TEX_DIM >> m;
            stream.push(TexelAccess {
                tid,
                m,
                u: u_raw % dim,
                v: v_raw % dim,
            });
        }
    }
    if retouch {
        let first: Vec<TexelAccess> = stream.clone();
        stream.extend(first);
    }
    stream
}

/// Shapes a raw selector into an L1 geometry: 1…512 sets of 1, 2 or 4
/// ways, tiled or linear lines — every set count the set hash folds to.
fn l1_config(sel: u16) -> L1Config {
    let sets = 1usize << (sel % 10);
    let ways = [1usize, 2, 4][(sel / 10 % 3) as usize];
    let storage = [StorageFormat::Tiled, StorageFormat::Linear][(sel / 30 % 2) as usize];
    L1Config {
        size_bytes: sets * ways * L1Config::kb(2).line_bytes(),
        ways,
        storage,
        ..L1Config::kb(2)
    }
}

fn config(
    l1_sel: u16,
    l2_sel: u8,
    policy_sel: u8,
    tlb_sel: u8,
    sector: bool,
    fault_sel: u8,
) -> EngineConfig {
    // Small L2 sizes keep eviction pressure high: 4 KB is 4 blocks.
    let l2 = match l2_sel % 4 {
        0 => None,
        1 => Some(4 * 1024),
        2 => Some(8 * 1024),
        _ => Some(32 * 1024),
    };
    let policy = match policy_sel % 3 {
        0 => ReplacementPolicy::Clock,
        1 => ReplacementPolicy::Lru,
        _ => ReplacementPolicy::Fifo,
    };
    let fault = match fault_sel % 3 {
        0 => FaultPlan::none(),
        1 => FaultPlan::with_rate(0x0bad_5eed, 200_000), // 20 % per attempt
        _ => FaultPlan {
            burst_period: 7,
            burst_len: 2,
            ..FaultPlan::with_rate(0xfeed_face, 50_000)
        },
    };
    EngineConfig {
        l1: l1_config(l1_sel),
        l2: l2.map(|size_bytes| L2Config {
            size_bytes,
            policy,
            sector_mapping: sector,
        }),
        tlb_entries: [0usize, 2, 8][(tlb_sel % 3) as usize],
        fault,
        ..EngineConfig::default()
    }
}

/// Shapes a raw selector into a timing model spanning the interesting
/// corners: the exact lockstep point, a blocking single-MSHR machine, a
/// bandwidth-starved link, and deep-lookahead configurations.
fn timing_model(sel: u8, latency_raw: u8, depth_raw: u8) -> LatencyModel {
    let base = LatencyModel {
        host_latency: [0u64, 10, 50, 200][(latency_raw % 4) as usize],
        host_bytes_per_cycle: [0u64, 1, 4, 16][(sel % 4) as usize],
        l2_fill_latency: (sel % 3) as u64 * 4,
        l1_mshrs: [1usize, 2, 8][(depth_raw % 3) as usize],
        l2_mshrs: [1usize, 4, 8][(sel % 3) as usize],
        fill_queue_depth: [1usize, 4, 16][(latency_raw % 3) as usize],
        prefetch_depth: [1usize, 4, 32][(depth_raw as usize / 3) % 3],
    };
    match sel % 5 {
        0 => LatencyModel::lockstep(),
        1 => base.blocking(),
        _ => base,
    }
}

/// Adds one fault-free oracle access to the frame counters the engine
/// would report for it.
fn tally(c: &mut FrameCounters, t: &AccessTrace, line_bytes: u64) {
    c.l1_accesses += 1;
    if t.l1_hit {
        c.l1_hits += 1;
        return;
    }
    if let Some(hit) = t.tlb_hit {
        c.tlb_accesses += 1;
        c.tlb_hits += hit as u64;
    }
    c.host_bytes += t.host_bytes;
    match t.l2 {
        None => {}
        Some(L2Outcome::FullHit) => {
            c.l2_full_hits += 1;
            c.l2_local_bytes += line_bytes;
        }
        Some(L2Outcome::PartialHit) => {
            c.l2_partial_hits += 1;
            c.l2_local_bytes += t.host_bytes;
        }
        Some(L2Outcome::FullMiss) => {
            c.l2_full_misses += 1;
            c.l2_local_bytes += t.host_bytes;
        }
    }
}

fn full_hits(cfg: EngineConfig, reg: &TextureRegistry, stream: &[TexelAccess]) -> u64 {
    let mut engine = SimEngine::new(cfg, reg);
    let mut hits = 0;
    for a in stream {
        let t = engine.access_texel_traced(TextureId::from_index(a.tid), a.m, a.u, a.v);
        if t.l2 == Some(L2Outcome::FullHit) {
            hits += 1;
        }
    }
    hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole invariant: for any configuration in the modelled space
    /// and any shaped access stream, the optimized engine and the naive
    /// oracle agree access-by-access (classification, bytes, victims, clock
    /// hand). A divergence here is a real bug in one of the two models.
    #[test]
    fn engine_matches_oracle_on_random_configs_and_streams(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..120),
        retouch in any::<bool>(),
        l2_sel in any::<u8>(),
        policy_sel in any::<u8>(),
        tlb_sel in any::<u8>(),
        sector in any::<bool>(),
        fault_sel in any::<u8>(),
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let stream = shape_stream(&raw, retouch);
        let cfg = config(l1_sel, l2_sel, policy_sel, tlb_sel, sector, fault_sel);
        let harness = DiffHarness::new(cfg, &reg).expect("generated configs are valid");
        if let Err(div) = harness.replay(&stream) {
            let shrunk = harness.shrink(&stream);
            prop_assert!(false, "{div}\nshrunk to {} accesses", shrunk.len());
        }
    }

    /// Shared-L1 replay: any set of fault-free configurations on one L1,
    /// replayed as one group — the leader walks the frames and records its
    /// L1 pass, every other member replays that pass — leaves each
    /// member's per-frame counters and clock hand exactly where the naive
    /// model puts that configuration replayed on its own. The leader's own
    /// configuration, replaying the pass afresh, lands there too.
    #[test]
    fn shared_l1_groups_stay_in_lockstep_with_the_oracle_per_member(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..160),
        members in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>(), any::<bool>()), 2..6),
        filter_sel in any::<u8>(),
        frame_count in 1usize..4,
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let filter = [FilterMode::Point, FilterMode::Bilinear, FilterMode::Trilinear]
            [(filter_sel % 3) as usize];
        // Coordinates run past the texture edge (wrapping) and the lod
        // sweeps every level, fractions included.
        let requests: Vec<PixelRequest> = raw
            .iter()
            .map(|&(tid_sel, lod_raw, u_raw, v_raw, _)| PixelRequest {
                tid: TextureId::from_index(match tid_sel % 8 {
                    0..=4 => 0,
                    5 | 6 => 1,
                    _ => 2,
                }),
                u: (u_raw % (4 * TEX_DIM)) as f32 * 0.5,
                v: (v_raw % (4 * TEX_DIM)) as f32 * 0.5,
                lod: (lod_raw % 40) as f32 / 8.0,
            })
            .collect();
        let configs: Vec<EngineConfig> = members
            .iter()
            .map(|&(l2_sel, policy_sel, tlb_sel, sector)| config(l1_sel, l2_sel, policy_sel, tlb_sel, sector, 0))
            .collect();
        let mut leader = SimEngine::new(configs[0], &reg);
        let mut oracles: Vec<OracleEngine> =
            configs.iter().map(|&c| OracleEngine::new(c, &reg)).collect();
        let line_bytes = configs[0].l1.line_bytes() as u64;
        let per_frame = requests.len().div_ceil(frame_count);
        let mut recorder = leader.record_l1_pass(filter);
        // Per member, what the oracle says of each frame.
        let mut model = vec![Vec::new(); configs.len()];
        for (f, chunk) in requests.chunks(per_frame).enumerate() {
            let mut trace = FrameTrace::new(f as u32, 8, 8, FilterMode::Point);
            for &req in chunk {
                trace.push(req);
            }
            leader
                .try_run_frame_recorded_as(&trace, &mut recorder)
                .expect("every texture is registered");
            let mut accesses = Vec::new();
            expand_frame(&trace, filter, &reg, &mut accesses).expect("every texture is registered");
            for (i, oracle) in oracles.iter_mut().enumerate() {
                let mut want = FrameCounters::default();
                for a in &accesses {
                    let t = oracle.access_texel(TextureId::from_index(a.tid), a.m, a.u, a.v);
                    tally(&mut want, &t, line_bytes);
                }
                model[i].push((want, oracle.clock_hand()));
            }
            let (want, hand) = model[0][f];
            prop_assert_eq!(
                leader.frames()[f], want,
                "leader ({:?}) frame {} under {:?}", configs[0], f, filter
            );
            prop_assert_eq!(
                leader.l2().and_then(|l2| l2.clock_hand()), hand,
                "leader clock hand after frame {}", f
            );
        }
        let pass = recorder.finish(&leader).expect("a fault-free leader records its pass");
        for (i, (&cfg, frames)) in configs.iter().zip(&model).enumerate() {
            prop_assert!(pass.answers(&SimEngine::new(cfg, &reg), filter));
            let mut member = SimEngine::new(cfg, &reg);
            for (f, &(want, hand)) in frames.iter().enumerate() {
                member.replay_pass_frame(&pass, f);
                prop_assert_eq!(
                    member.frames()[f], want,
                    "member {} ({:?}) frame {} from the pass under {:?}", i, cfg, f, filter
                );
                prop_assert_eq!(
                    member.l2().and_then(|l2| l2.clock_hand()), hand,
                    "member {} clock hand after pass frame {}", i, f
                );
            }
        }
    }

    /// Metamorphic: under LRU, the L2 full-hit count is monotone
    /// non-decreasing in L2 size on a fixed trace (the stack/inclusion
    /// property of LRU). Deliberately restricted to LRU — clock and FIFO
    /// exhibit Belady's anomaly, where more capacity can hit *less*.
    #[test]
    fn lru_full_hits_monotone_in_l2_size(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..150),
        retouch in any::<bool>(),
        sector in any::<bool>(),
        tlb_sel in any::<u8>(),
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let stream = shape_stream(&raw, retouch);
        let sizes = [4 * 1024usize, 8 * 1024, 16 * 1024, 64 * 1024];
        let mut prev = None;
        for size in sizes {
            let cfg = EngineConfig {
                l1: l1_config(l1_sel),
                l2: Some(L2Config {
                    size_bytes: size,
                    policy: ReplacementPolicy::Lru,
                    sector_mapping: sector,
                }),
                tlb_entries: [0usize, 2, 8][(tlb_sel % 3) as usize],
                ..EngineConfig::default()
            };
            let hits = full_hits(cfg, &reg, &stream);
            if let Some(prev) = prev {
                prop_assert!(
                    hits >= prev,
                    "LRU full hits dropped from {prev} to {hits} when L2 grew to {size} bytes"
                );
            }
            prev = Some(hits);
        }
    }

    /// Structural invariant: after any replay, every resident sector's page
    /// owns a block, and the page table and block-owner maps agree
    /// (sector ⊆ page residency inclusion), checked on the oracle's flat
    /// state where the relation is explicit.
    #[test]
    fn sector_residency_implies_page_residency(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..120),
        l2_sel in 1u8..4,
        policy_sel in any::<u8>(),
        sector in any::<bool>(),
        fault_sel in any::<u8>(),
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let stream = shape_stream(&raw, false);
        let cfg = config(l1_sel, l2_sel, policy_sel, 0, sector, fault_sel);
        let mut oracle = OracleEngine::new(cfg, &reg);
        for a in &stream {
            oracle.access_texel(TextureId::from_index(a.tid), a.m, a.u, a.v);
            if let Err(e) = oracle.check_invariants() {
                prop_assert!(false, "invariant broken mid-stream: {e}");
            }
        }
    }

    /// Conservation: with a perfect host link, every byte the engine
    /// reports downloading is explained by its own per-access
    /// classification — L1-line-sized pulls on partial hits (and no-L2
    /// misses), block- or line-sized downloads on full misses depending on
    /// sector mapping — and the per-access sum equals the frame totals.
    #[test]
    fn bytes_downloaded_match_miss_classification_without_faults(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..150),
        retouch in any::<bool>(),
        l2_sel in any::<u8>(),
        policy_sel in any::<u8>(),
        tlb_sel in any::<u8>(),
        sector in any::<bool>(),
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let stream = shape_stream(&raw, retouch);
        let cfg = config(l1_sel, l2_sel, policy_sel, tlb_sel, sector, 0);
        let line = cfg.l1.line_bytes() as u64;
        let block = cfg.tiling.l2().cache_bytes() as u64;
        let mut engine = SimEngine::new(cfg, &reg);
        let mut summed = 0u64;
        for a in &stream {
            let t = engine.access_texel_traced(TextureId::from_index(a.tid), a.m, a.u, a.v);
            let expected = match (t.l1_hit, t.l2) {
                (true, _) => 0,
                (false, Some(L2Outcome::FullHit)) => 0,
                (false, Some(L2Outcome::PartialHit)) => line,
                (false, Some(L2Outcome::FullMiss)) => if sector { line } else { block },
                (false, None) => line, // no L2: every L1 miss pulls a line
            };
            prop_assert_eq!(
                t.host_bytes, expected,
                "access ({}, {}, {}, {}) classified {:?}", a.tid, a.m, a.u, a.v, t.l2
            );
            summed += t.host_bytes;
        }
        engine.end_frame();
        prop_assert_eq!(engine.totals().host_bytes, summed);
    }

    /// Conservation: L2 outcomes partition L1 misses — full hits + partial
    /// hits + full misses add up to exactly the L1 misses (when an L2 is
    /// present), and the engine counted every access we issued.
    #[test]
    fn l2_outcomes_partition_l1_misses(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..150),
        retouch in any::<bool>(),
        l2_sel in 1u8..4,
        policy_sel in any::<u8>(),
        tlb_sel in any::<u8>(),
        sector in any::<bool>(),
        fault_sel in any::<u8>(),
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let stream = shape_stream(&raw, retouch);
        let cfg = config(l1_sel, l2_sel, policy_sel, tlb_sel, sector, fault_sel);
        let mut engine = SimEngine::new(cfg, &reg);
        for a in &stream {
            engine.access_texel_traced(TextureId::from_index(a.tid), a.m, a.u, a.v);
        }
        engine.end_frame();
        let t = engine.totals();
        prop_assert_eq!(t.l1_accesses, stream.len() as u64);
        prop_assert_eq!(
            t.l2_full_hits + t.l2_partial_hits + t.l2_full_misses,
            t.l1_accesses - t.l1_hits,
            "L2 outcomes must partition L1 misses"
        );
        // TLB lookups happen exactly once per L1 miss when modelled.
        if cfg.tlb_entries > 0 {
            prop_assert_eq!(t.tlb_accesses, t.l1_accesses - t.l1_hits);
        }
    }

    /// Timing conformance: for any latency model (including the exact
    /// lockstep point and blocking degenerations) and any shaped stream,
    /// the harness replay must pass its three built-in timing checks —
    /// engine cycles never exceed the naive serial bound, lockstep mode is
    /// exactly one cycle per tap, and the timed link moves exactly the
    /// bytes the behavioral machine downloaded.
    #[test]
    fn timed_replay_respects_naive_bound_and_lockstep(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 0..40),
        retouch in any::<bool>(),
        l2_sel in any::<u8>(),
        policy_sel in any::<u8>(),
        tlb_sel in any::<u8>(),
        sector in any::<bool>(),
        fault_sel in any::<u8>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
        l1_sel in any::<u16>(),
    ) {
        let stream = shape_stream(&raw, retouch);
        let cfg = config(l1_sel, l2_sel, policy_sel, tlb_sel, sector, fault_sel);
        let model = timing_model(model_sel, latency_raw, depth_raw);
        let reg = registry();
        let harness = DiffHarness::new(cfg, &reg).unwrap().with_timing(model);
        if let Err(div) = harness.replay(&stream) {
            prop_assert!(false, "timing divergence under {}: {div}", model.label());
        }
    }

    /// Observers stacked on the per-access entry stay observe-only. The
    /// harness drives `access_texel_traced` bare or timed, never with
    /// telemetry, so this is where the trace sink wraps a recording sink:
    /// over a pull, a multi-level and a fault-injected configuration with
    /// counters and 3C attribution attached, timed and untimed, every
    /// per-tap trace equals the oracle's and the bare engine's, the
    /// untimed recorder counts the bare engine's L1 hits, and the timed
    /// recorder ends up holding exactly what the untimed one holds.
    #[test]
    fn stacked_observers_stay_observe_only_on_the_per_access_entry(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>(), any::<u8>()), 1..100),
        retouch in any::<bool>(),
        policy_sel in any::<u8>(),
        tlb_sel in any::<u8>(),
        sector in any::<bool>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
        l1_sel in any::<u16>(),
    ) {
        let reg = registry();
        let stream = shape_stream(&raw, retouch);
        let model = timing_model(model_sel, latency_raw, depth_raw);
        let observed = |cfg, rec: &Recorder| {
            let mut e = SimEngine::new(cfg, &reg);
            let opts = TelemetryOpts { attribution: true, ..TelemetryOpts::default() };
            e.attach_telemetry_opts(rec, "stacked", "prop", opts);
            e
        };
        for (l2_sel, fault_sel) in [(0, 0), (1, 0), (2, 1)] {
            let cfg = config(l1_sel, l2_sel, policy_sel, tlb_sel, sector, fault_sel);
            let mut bare = SimEngine::new(cfg, &reg);
            let mut oracle = OracleEngine::new(cfg, &reg);
            let want: Vec<AccessTrace> = stream
                .iter()
                .map(|a| {
                    let tid = TextureId::from_index(a.tid);
                    let t = bare.access_texel_traced(tid, a.m, a.u, a.v);
                    assert_eq!(t, oracle.access_texel(tid, a.m, a.u, a.v), "bare engine vs oracle");
                    t
                })
                .collect();
            bare.end_frame();

            let mut reference = None;
            for timed in [false, true] {
                let rec = Recorder::enabled();
                let mut e = observed(cfg, &rec);
                if timed {
                    e.attach_timing(model);
                }
                for (i, a) in stream.iter().enumerate() {
                    let t = e.access_texel_traced(TextureId::from_index(a.tid), a.m, a.u, a.v);
                    prop_assert_eq!(t, want[i], "access {} under {:?}, timed {}", i, cfg, timed);
                }
                e.end_frame();
                prop_assert_eq!(e.frames(), bare.frames());
                let got = rec.snapshot();
                // The untimed replay is the recorder's reference.
                let Some(want_rec) = &reference else {
                    prop_assert_eq!(got.counters["engine/prop/l1_hits"], bare.totals().l1_hits);
                    reference = Some(got);
                    continue;
                };
                prop_assert_eq!(&got.counters, &want_rec.counters, "counters under timing");
                prop_assert_eq!(&got.hists, &want_rec.hists, "histograms under timing");
                prop_assert_eq!(&got.heatmaps, &want_rec.heatmaps, "heat maps under timing");
                prop_assert_eq!(&got.gauges, &want_rec.gauges, "gauges under timing");
                prop_assert_eq!(&got.series, &want_rec.series, "per-frame series under timing");
            }
        }
    }
}
