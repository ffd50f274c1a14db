//! Property tests for the non-blocking timing overlay: MSHR invariants,
//! link byte conservation, bandwidth accounting, prefetch bookkeeping,
//! — the contract everything else rests on — behavioral bit-identity
//! with the untimed engine, and cycle-for-cycle identity of the frame
//! loops' timing consumer (wide and prepared entries) with the per-tap
//! reference feed.
//!
//! Streams are shaped from raw integer tuples exactly like the oracle
//! property suite (the vendored proptest supports basic strategies
//! only); latency models are shaped to span the interesting corners
//! (lockstep, blocking, bandwidth-starved, deep lookahead).

use mltc_core::{
    EngineConfig, FaultPlan, FramePrep, L1Config, L2Config, LatencyModel, PreparedFrame,
    ReplacementPolicy, SimEngine,
};
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

/// Shapes raw tuples into per-tap replay input: skewed texture ids,
/// bounded mip levels, in-range coordinates.
fn shape_taps(raw: &[(u8, u8, u32, u32)]) -> Vec<(u32, u32, u32, u32)> {
    raw.iter()
        .map(|&(tid_sel, m_raw, u_raw, v_raw)| {
            let tid = match tid_sel % 8 {
                0..=4 => 0,
                5 | 6 => 1,
                _ => 2,
            };
            let m = (m_raw % 4) as u32;
            let dim = TEX_DIM >> m;
            (tid, m, u_raw % dim, v_raw % dim)
        })
        .collect()
}

/// Shapes raw tuples into pixel requests (fragments) for the frame path.
fn shape_requests(raw: &[(u8, u8, u32, u32)]) -> Vec<PixelRequest> {
    raw.iter()
        .map(|&(tid_sel, lod_raw, u_raw, v_raw)| PixelRequest {
            tid: TextureId::from_index((tid_sel % TEX_COUNT as u8) as u32),
            u: (u_raw % (TEX_DIM * 2)) as f32 * 0.5,
            v: (v_raw % (TEX_DIM * 2)) as f32 * 0.5,
            lod: (lod_raw % 7) as f32 * 0.5,
        })
        .collect()
}

fn config(l2_sel: u8, fault_sel: u8) -> EngineConfig {
    let l2 = match l2_sel % 3 {
        0 => None,
        1 => Some(4 * 1024),
        _ => Some(8 * 1024),
    };
    let fault = match fault_sel % 3 {
        0 => FaultPlan::none(),
        1 => FaultPlan::with_rate(0x0bad_5eed, 200_000),
        _ => FaultPlan {
            burst_period: 7,
            burst_len: 2,
            ..FaultPlan::with_rate(0xfeed_face, 50_000)
        },
    };
    EngineConfig {
        l1: L1Config::kb(2),
        l2: l2.map(|size_bytes| L2Config {
            size_bytes,
            policy: ReplacementPolicy::Clock,
            sector_mapping: true,
        }),
        fault,
        ..EngineConfig::default()
    }
}

/// Shapes a raw selector into a timing model spanning the corners of the
/// model space, including the exact lockstep point and blocking machines.
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

/// Runs a timed engine over per-tap input and closes the frame so the
/// lookahead window drains and cycle totals are final.
fn run_timed(
    cfg: EngineConfig,
    reg: &TextureRegistry,
    model: LatencyModel,
    taps: &[(u32, u32, u32, u32)],
) -> SimEngine {
    let mut engine = SimEngine::new(cfg, reg);
    engine.attach_timing(model);
    for &(tid, m, u, v) in taps {
        engine.access_texel(TextureId::from_index(tid), m, u, v);
    }
    engine.end_frame();
    engine
}

/// A multi-frame request stream that walks the textures in waves:
/// neighbouring fragments share lines (wide commits, and hits on lines
/// whose fill is still in flight) while the walk keeps missing.
fn wavy_frames(seed: u64, n_frames: u32, per_frame: u32) -> Vec<FrameTrace> {
    let (a, b) = (5 + (seed % 23) as u32 * 2, 7 + (seed / 23 % 31) as u32 * 2);
    (0..n_frames)
        .map(|f| {
            let mut t = FrameTrace::new(f, 64, 64, FilterMode::Point);
            for i in 0..per_frame {
                t.push(PixelRequest {
                    tid: TextureId::from_index(i % TEX_COUNT),
                    u: ((i * a + f * 7) % 512) as f32 * 0.25,
                    v: ((i * b + f * 3) % 512) as f32 * 0.25,
                    lod: (i % 40) as f32 / 10.0,
                });
            }
            t
        })
        .collect()
}

/// The hierarchy shapes the sink is instantiated over: pull, L2, L2 + TLB,
/// each behind a perfect or a lossy link.
fn sink_config(levels: u8, lossy: bool) -> EngineConfig {
    EngineConfig {
        l1: L1Config::kb(2),
        l2: (levels > 0).then(|| L2Config {
            size_bytes: 16 * 1024,
            ..L2Config::mb(2)
        }),
        tlb_entries: if levels > 1 { 4 } else { 0 },
        fault: if lossy {
            FaultPlan::with_rate(0x0bad_5eed, 150_000)
        } else {
            FaultPlan::none()
        },
        ..EngineConfig::default()
    }
}

/// Replays `frames` timed through the per-tap reference
/// (`try_run_frame_as_traced`) and through every entry point that runs
/// with the timing consumer — the three that ride the wide frame loop, the
/// prepared entry among them — requires every timing statistic to agree, and
/// returns the reference's `(l1_merges, l2_merges, structural stalls)`.
fn sink_equals_reference(
    cfg: EngineConfig,
    model: LatencyModel,
    filter: FilterMode,
    frames: &[FrameTrace],
) -> Result<(u64, u64, u64), TestCaseError> {
    let reg = registry();
    let prep = FramePrep::new(&cfg, &reg);
    let run = |entry: &dyn Fn(&mut SimEngine, &FrameTrace, FilterMode)| {
        let mut e = SimEngine::new(cfg, &reg);
        e.attach_timing(model);
        for t in frames {
            entry(&mut e, t, filter);
        }
        e
    };
    let reference = run(&|e, t, f| e.try_run_frame_as_traced(t, f).unwrap());
    let rt = reference.timing().expect("timing attached");
    for wide in [
        run(&|e, t, f| e.try_run_frame_as(t, f).unwrap()),
        run(&|e, t, f| e.try_run_frame_as_batched(t, f).unwrap()),
        run(&|e, t, f| {
            let mut lanes = PreparedFrame::default();
            prep.prepare(f, t.requests.iter().copied(), &mut lanes);
            e.try_run_frame_prepared(&lanes).unwrap()
        }),
    ] {
        let wt = wide.timing().expect("timing attached");
        prop_assert_eq!(wide.frames(), reference.frames());
        prop_assert_eq!(wt.totals(), rt.totals());
        prop_assert_eq!(wt.frames(), rt.frames());
        prop_assert_eq!(wt.peak_occupancy(), rt.peak_occupancy());
        prop_assert_eq!(wt.structural_stalls(), rt.structural_stalls());
        prop_assert_eq!(
            wt.mean_l1_occupancy().to_bits(),
            rt.mean_l1_occupancy().to_bits()
        );
        prop_assert_eq!(wt.totals().link_bytes, wide.totals().host_bytes);
    }
    let (s1, s2, s3) = rt.structural_stalls();
    Ok((rt.totals().l1_merges, rt.totals().l2_merges, s1 + s2 + s3))
}

/// The property below is only as strong as the hazards it reaches: a
/// behavioural hit on a line whose fill is still in flight is exactly what
/// an "all-hit fragment" shortcut would skip. The same harness at fixed
/// points must merge at both levels and stall on a full file.
#[test]
fn sink_harness_reaches_merges_and_structural_stalls() {
    let starved = LatencyModel {
        host_latency: 300,
        host_bytes_per_cycle: 1,
        l2_fill_latency: 40,
        l1_mshrs: 2,
        l2_mshrs: 2,
        fill_queue_depth: 2,
        prefetch_depth: 16,
    };
    let (mut l1_merges, mut l2_merges, mut stalls) = (0, 0, 0);
    for (levels, lossy) in [(0, true), (2, false), (2, true)] {
        let (a, b, c) = sink_equals_reference(
            sink_config(levels, lossy),
            starved,
            FilterMode::Trilinear,
            &wavy_frames(11, 3, 400),
        )
        .unwrap();
        l1_merges += a;
        l2_merges += b;
        stalls += c;
    }
    assert!(l1_merges > 0, "no hit ever met a line still in flight");
    assert!(
        l2_merges > 0,
        "no re-download ever overlapped its predecessor"
    );
    assert!(stalls > 0, "no fill ever found its file full");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With timing attached the frame entry points — wide and prepared —
    /// hand the overlay whole all-hit fragments and coalesced hit runs; the
    /// per-tap reference
    /// packs, scans and queues every tap on its own. Whatever the model,
    /// hierarchy, link and filter, the two agree on every timing
    /// statistic: totals, per-frame deltas, peak and mean occupancy,
    /// structural stalls.
    #[test]
    fn wide_timed_replay_equals_the_per_tap_reference(
        seed in any::<u64>(),
        caps in (1usize..=8, 1usize..=8, 1usize..=8),
        depth in 1usize..=32,
        bandwidth in 0u64..=8,
        latencies in (0u64..=400, 0u64..=400),
        shape in (0u8..3, any::<bool>(), 0u8..3),
    ) {
        let model = LatencyModel {
            host_latency: latencies.0,
            host_bytes_per_cycle: bandwidth,
            l2_fill_latency: latencies.1,
            l1_mshrs: caps.0,
            l2_mshrs: caps.1,
            fill_queue_depth: caps.2,
            prefetch_depth: depth,
        };
        let (levels, lossy, filter) = shape;
        let filter = [FilterMode::Point, FilterMode::Bilinear, FilterMode::Trilinear][filter as usize];
        sink_equals_reference(sink_config(levels, lossy), model, filter, &wavy_frames(seed, 3, 250))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Attaching the timing overlay must not change behavioral results at
    /// all: frame counters, totals and the L2 clock hand are bit-identical
    /// to an untimed engine replaying the same frame through the
    /// monomorphized fast path. Timing is an observer, never an actor.
    #[test]
    fn timing_overlay_is_behaviorally_invisible(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()), 0..80),
        l2_sel in any::<u8>(),
        fault_sel in any::<u8>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
    ) {
        let reg = registry();
        let cfg = config(l2_sel, fault_sel);
        let mut frame = FrameTrace::new(0, 64, 64, FilterMode::Point);
        frame.requests = shape_requests(&raw);
        let model = timing_model(model_sel, latency_raw, depth_raw);

        let mut plain = SimEngine::new(cfg, &reg);
        plain.try_run_frame_as(&frame, FilterMode::Trilinear).unwrap();

        let mut timed = SimEngine::new(cfg, &reg);
        timed.attach_timing(model);
        timed.try_run_frame_as(&frame, FilterMode::Trilinear).unwrap();

        prop_assert_eq!(plain.frames(), timed.frames());
        prop_assert_eq!(plain.totals(), timed.totals());
        let plain_hand = plain.l2().and_then(|l2| l2.clock_hand());
        let timed_hand = timed.l2().and_then(|l2| l2.clock_hand());
        prop_assert_eq!(plain_hand, timed_hand, "L2 clock hand diverged under timing");
    }

    /// Byte conservation: the timed link moves exactly the bytes the
    /// behavioral machine downloaded — L1 secondary merges schedule no
    /// transfer (behaviorally they are hits), and overlapping re-downloads
    /// are never merged away. Also one tag check per behavioral access.
    #[test]
    fn merged_misses_never_double_count_host_bytes(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()), 0..120),
        l2_sel in any::<u8>(),
        fault_sel in any::<u8>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
    ) {
        let reg = registry();
        let taps = shape_taps(&raw);
        let model = timing_model(model_sel, latency_raw, depth_raw);
        let engine = run_timed(config(l2_sel, fault_sel), &reg, model, &taps);
        let behavioral = engine.totals();
        let t = *engine.timing().expect("timing attached").totals();
        prop_assert_eq!(t.link_bytes, behavioral.host_bytes,
            "timed link bytes must equal behavioral host bytes");
        prop_assert_eq!(t.taps, behavioral.l1_accesses);
        prop_assert_eq!(t.fragments, taps.len() as u64,
            "per-tap replay opens one fragment per tap");
    }

    /// Structural capacity: in-flight entries never exceed any MSHR file's
    /// capacity, at peak or on average.
    #[test]
    fn mshr_occupancy_never_exceeds_capacity(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()), 0..120),
        l2_sel in any::<u8>(),
        fault_sel in any::<u8>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
    ) {
        let reg = registry();
        let taps = shape_taps(&raw);
        let model = timing_model(model_sel, latency_raw, depth_raw);
        let engine = run_timed(config(l2_sel, fault_sel), &reg, model, &taps);
        let timing = engine.timing().expect("timing attached");
        let (l1_peak, host_peak, fq_peak) = timing.peak_occupancy();
        prop_assert!(l1_peak <= model.l1_mshrs,
            "L1 MSHR peak {} > capacity {}", l1_peak, model.l1_mshrs);
        prop_assert!(host_peak <= model.l2_mshrs,
            "host MSHR peak {} > capacity {}", host_peak, model.l2_mshrs);
        prop_assert!(fq_peak <= model.fill_queue_depth,
            "fill queue peak {} > depth {}", fq_peak, model.fill_queue_depth);
        prop_assert!(timing.mean_l1_occupancy() <= model.l1_mshrs as f64 + 1e-9);
    }

    /// Bandwidth accounting: with a finite link, busy cycles are at least
    /// the ideal streaming time of every byte moved (per-transfer ceiling
    /// rounding only adds cycles), and the retire clock covers the link's
    /// busy time — data cannot finish after the stream that consumed it.
    /// An infinite link (bw = 0) is never busy.
    #[test]
    fn retire_order_respects_bandwidth(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()), 0..120),
        l2_sel in any::<u8>(),
        fault_sel in any::<u8>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
    ) {
        let reg = registry();
        let taps = shape_taps(&raw);
        let model = timing_model(model_sel, latency_raw, depth_raw);
        let engine = run_timed(config(l2_sel, fault_sel), &reg, model, &taps);
        let t = *engine.timing().expect("timing attached").totals();
        if model.host_bytes_per_cycle == 0 {
            prop_assert_eq!(t.link_busy_cycles, 0, "infinite link is never busy");
        } else {
            prop_assert!(t.link_busy_cycles >= model.transfer_cycles(t.link_bytes),
                "busy {} < ideal streaming time {}",
                t.link_busy_cycles, model.transfer_cycles(t.link_bytes));
            prop_assert!(t.cycles_total >= t.link_busy_cycles,
                "retire clock {} ran past the link's busy time {}",
                t.cycles_total, t.link_busy_cycles);
        }
    }

    /// Prefetch bookkeeping: after the frame drains, every issued prefetch
    /// has been classified exactly once (useful + late + useless), the
    /// retire clock covers one cycle per tap, and stall accounting is
    /// consistent with the total.
    #[test]
    fn prefetch_never_changes_behavioral_state_and_partitions(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()), 0..120),
        l2_sel in any::<u8>(),
        fault_sel in any::<u8>(),
        model_sel in any::<u8>(),
        latency_raw in any::<u8>(),
        depth_raw in any::<u8>(),
    ) {
        let reg = registry();
        let taps = shape_taps(&raw);
        let model = timing_model(model_sel, latency_raw, depth_raw);
        let engine = run_timed(config(l2_sel, fault_sel), &reg, model, &taps);
        let t = *engine.timing().expect("timing attached").totals();
        prop_assert_eq!(
            t.prefetch_useful + t.prefetch_late + t.prefetch_useless,
            t.prefetch_issued,
            "issued prefetches must partition into useful/late/useless"
        );
        prop_assert!(t.cycles_total >= t.taps,
            "retire clock {} below one cycle per tap ({})", t.cycles_total, t.taps);
        prop_assert!(t.cycles_total >= t.stall_cycles,
            "stall cycles {} exceed the total {}", t.stall_cycles, t.cycles_total);
    }
}
