//! Containment contract for the multi-client texture service, exercised
//! end-to-end through the public facade, at 4 and 8 clients over a bursty
//! host link: with a partitioned shared L2, a client whose worker panics
//! must be quarantined and reported, and one whose host link fails every
//! transfer must degrade alone, while every survivor replays
//! bit-identically to a solo engine given the same per-client slice of
//! the hierarchy — replayed wide, as the service client itself runs, and
//! replayed one scalar tap at a time. A unified service is the
//! round-robin loop over its clients and soaks through three passes of
//! the animation with nobody quarantined, and a client of one is its solo
//! engine in either partition mode, the unified one's borrowed L2
//! included.

use mltc::core::{
    ClientEngine, EngineConfig, FaultPlan, L2Config, L2PartitionMode, QuarantineReason,
    ServiceConfig, SimEngine, TelemetryOpts, TextureService, FRAME_SERIES_COLUMNS,
};
use mltc::experiments::{
    collect_frames, experiment_service_config, run_multi_client, solo_baseline,
    solo_baseline_scalar, ClientReport, ClientSpec, MultiClientConfig, TraceStore,
};
use mltc::scene::{Workload, WorkloadParams};
use mltc::telemetry::Recorder;
use mltc::trace::{FilterMode, FrameTrace};
use std::sync::Arc;

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

/// A bursty shared link — 2 of every 10 transfers fail all attempts — so
/// containment is proven under fire, not in a quiet system.
fn chaos_cfg(mode: L2PartitionMode) -> MultiClientConfig {
    MultiClientConfig {
        service: ServiceConfig {
            fault: FaultPlan {
                seed: 0x4d4c_5443,
                burst_period: 10,
                burst_len: 2,
                ..FaultPlan::none()
            },
            ..experiment_service_config(mode)
        },
        ..MultiClientConfig::default()
    }
}

/// Both halves of the containment oracle: the client's frames against its
/// solo engine on the wide path and on the scalar path.
fn assert_matches_solo_baselines(
    c: &ClientReport,
    w: &Workload,
    frames: &[Arc<FrameTrace>],
    specs: &[ClientSpec],
    cfg: &MultiClientConfig,
) {
    let id = c.id as usize;
    let wide = solo_baseline(w.registry(), frames, specs, cfg, id).expect("wide solo replays");
    let scalar =
        solo_baseline_scalar(w.registry(), frames, specs, cfg, id).expect("scalar solo replays");
    assert_eq!(c.frames, wide.frames(), "client {id} vs its wide solo");
    assert_eq!(c.frames, scalar.frames(), "client {id} vs its scalar solo");
}

#[test]
fn panicked_client_is_quarantined_and_survivors_match_solo_baselines() {
    let w = tiny_village();
    let store = TraceStore::in_memory();
    let frames = collect_frames(&store, &w).expect("tiny trace renders");
    let cfg = chaos_cfg(L2PartitionMode::Partitioned);
    for (n, poisoned) in [(4usize, 1u32), (8, 2)] {
        let mut specs = specs(n, frames.len());
        specs[poisoned as usize].panic_at_frame = Some(1);

        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled())
            .expect("service constructs");
        std::panic::set_hook(prev_hook);

        // Exactly the poisoned client is quarantined, and reported as such.
        assert_eq!(report.quarantined_ids(), vec![poisoned], "{n} clients");
        let victim = &report.clients[poisoned as usize];
        assert!(matches!(
            victim.quarantined,
            Some(QuarantineReason::Panicked(ref m)) if m.contains("injected")
        ));
        assert!(!victim.is_survivor());

        // Every survivor completed the run and is bit-identical to a solo
        // engine over its own partition of the shared L2.
        for c in report.survivors() {
            assert_eq!(c.frames.len(), frames.len(), "survivor {} completed", c.id);
            assert_matches_solo_baselines(c, &w, &frames, &specs, &cfg);
        }
        assert_eq!(report.survivors().count(), n - 1);
    }
}

#[test]
fn total_link_failure_is_scoped_to_the_faulted_client() {
    let w = tiny_village();
    let store = TraceStore::in_memory();
    let frames = collect_frames(&store, &w).expect("tiny trace renders");
    let cfg = chaos_cfg(L2PartitionMode::Partitioned);
    for (n, faulted) in [(4usize, 3usize), (8, 5)] {
        let mut specs = specs(n, frames.len());
        // The faulted client's host link fails 100 % of transfers on the
        // first (only) attempt; everyone else rides the shared bursty link.
        specs[faulted].fault_override = Some(FaultPlan {
            max_attempts: 1,
            ..FaultPlan::with_rate(7, 1_000_000)
        });

        let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled())
            .expect("service constructs");

        // A failing link degrades the client; it must not poison anyone
        // else, and nobody is quarantined for it.
        assert_eq!(report.quarantined_ids(), Vec::<u32>::new(), "{n} clients");
        for c in &report.clients {
            assert!(c.error.is_none(), "client {} errored: {:?}", c.id, c.error);
            assert_matches_solo_baselines(c, &w, &frames, &specs, &cfg);
        }
        let faulted = &report.clients[faulted];
        assert!(
            faulted.totals.failed_transfers > 0 && faulted.totals.host_bytes == 0,
            "the fault plan must actually bite"
        );
    }
}

/// A unified service is the round-robin loop: engines built by hand from
/// the same service, each step running every client's phase-rotated frame
/// in id order on this thread, end where `run_multi_client`'s clients do,
/// frame for frame. The run is also the unified soak: up to eight clients
/// share one cache, one page table and the bursty link for three passes
/// over the animation (each stream wraps around twice), and nobody is
/// quarantined or errors.
#[test]
fn a_unified_run_is_the_round_robin_loop() {
    let w = tiny_village();
    let frames = collect_frames(&TraceStore::in_memory(), &w).expect("tiny trace renders");
    let steps = 3 * frames.len();
    let cfg = MultiClientConfig {
        steps: Some(steps),
        ..chaos_cfg(L2PartitionMode::Unified)
    };
    for n in [2usize, 8] {
        let specs = specs(n, frames.len());
        let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled())
            .expect("service constructs");
        assert_eq!(report.steps, steps);
        for c in &report.clients {
            let (q, e) = (&c.quarantined, &c.error);
            assert!(c.is_survivor(), "{n} clients: client {}: {q:?} {e:?}", c.id);
            assert_eq!(c.frames.len(), steps, "client {} ran every step", c.id);
        }
        let bitten = report.clients.iter().any(|c| c.totals.failed_transfers > 0);
        assert!(bitten, "the bursty link must bite");

        let svc = TextureService::try_new(cfg.service, w.registry(), n as u32)
            .expect("service constructs");
        let mut clients: Vec<ClientEngine> = (0..n as u32)
            .map(|id| svc.client(id).expect("client exists"))
            .collect();
        for step in 0..steps {
            for (client, spec) in clients.iter_mut().zip(&specs) {
                let trace = &frames[(step + spec.phase_offset) % frames.len()];
                client
                    .run_frame(svc.shared_l2(), trace, spec.filter)
                    .expect("client replays");
            }
        }
        for (got, want) in report.clients.iter().zip(&clients) {
            assert_eq!(got.frames, want.frames(), "{n} clients: client {}", got.id);
        }
    }
}

/// Unified mode's reference beyond run-to-run determinism: a client alone
/// in a service — borrowing the one shared L2 per frame when unified,
/// owning it when partitioned — is a solo engine with the full L2, under a
/// lossy link and with 3C attribution watching. Frame counters, the L2's
/// clock (read off the per-frame series, whose sweep columns a frame
/// closed with the wrong clock stats gets wrong), host-link transfers and
/// every recorder export must agree.
#[test]
fn a_lone_client_is_its_solo_engine_in_either_partition_mode() {
    let w = tiny_village();
    let frames = collect_frames(&TraceStore::in_memory(), &w).expect("tiny trace renders");
    let filter = FilterMode::Trilinear;
    let opts = TelemetryOpts {
        attribution: true,
        ..TelemetryOpts::default()
    };
    for mode in [L2PartitionMode::Unified, L2PartitionMode::Partitioned] {
        let cfg = ServiceConfig {
            // Small enough that the clock sweeps.
            l2: Some(L2Config {
                size_bytes: 64 << 10,
                ..L2Config::mb(4)
            }),
            fault: FaultPlan {
                burst_period: 10,
                burst_len: 2,
                ..FaultPlan::with_rate(0x4d4c_5443, 50_000)
            },
            ..experiment_service_config(mode)
        };
        let svc = TextureService::try_new(cfg, w.registry(), 1).expect("service constructs");
        assert_eq!(
            svc.shared_l2().is_unified(),
            mode == L2PartitionMode::Unified
        );
        let rec_client = Recorder::enabled();
        let mut client = svc.client(0).expect("client 0 exists");
        client.attach_telemetry_opts(&rec_client, "run", "village", opts);

        let solo_cfg = EngineConfig {
            l1: cfg.l1,
            l2: cfg.l2,
            tlb_entries: cfg.tlb_entries,
            tiling: cfg.tiling,
            fault: cfg.fault,
        };
        let rec_solo = Recorder::enabled();
        let mut solo = SimEngine::try_new(solo_cfg, w.registry()).expect("solo engine builds");
        solo.attach_telemetry_opts(&rec_solo, "run", "village", opts);

        for trace in &frames {
            client
                .run_frame(svc.shared_l2(), trace, filter)
                .expect("client replays");
            solo.try_run_frame_as_batched(trace, filter)
                .expect("solo replays");
        }
        let ctx = format!("{mode:?}");
        assert_eq!(client.frames(), solo.frames(), "{ctx}: frame counters");
        assert!(
            client.totals().failed_transfers > 0,
            "{ctx}: the link must bite"
        );
        assert_eq!(
            client.host().transfers(),
            solo.host().transfers(),
            "{ctx}: host transfers"
        );

        let (got, want) = (rec_client.snapshot(), rec_solo.snapshot());
        let series = got
            .series
            .iter()
            .find(|s| s.label == "run")
            .expect("client series");
        let column = |name: &str| {
            let i = FRAME_SERIES_COLUMNS
                .iter()
                .position(|c| *c == name)
                .unwrap();
            series.rows.iter().map(|r| r[i]).sum::<u64>()
        };
        let clock = solo.l2().expect("solo has an L2").clock_stats();
        assert!(clock.searches > 0, "{ctx}: the clock must sweep");
        assert_eq!(
            (column("sweep_searches"), column("sweep_entries")),
            (clock.searches, clock.entries_examined),
            "{ctx}: L2 clock stats"
        );
        assert_eq!(got.counters, want.counters, "{ctx}: counters");
        assert_eq!(got.hists, want.hists, "{ctx}: histograms");
        assert_eq!(got.series, want.series, "{ctx}: per-frame series");
        assert_eq!(got.heatmaps, want.heatmaps, "{ctx}: heat maps");
    }
}

/// Unified clients share one clock: each one's sweep telemetry must count
/// its own sweeps only. Two clients take turns on a 64 KB L2; their
/// `clock_sweep_len` histogram sums, and their series' `sweep_entries`
/// columns, must each add up to the shared L2's `entries_examined` — not
/// each claim nearly all of it.
#[test]
fn unified_clients_count_only_their_own_clock_sweeps() {
    let w = tiny_village();
    let frames = collect_frames(&TraceStore::in_memory(), &w).expect("tiny trace renders");
    let cfg = ServiceConfig {
        l2: Some(L2Config {
            size_bytes: 64 << 10,
            ..L2Config::mb(4)
        }),
        ..experiment_service_config(L2PartitionMode::Unified)
    };
    let svc = TextureService::try_new(cfg, w.registry(), 2).expect("service constructs");
    let rec = Recorder::enabled();
    let mut clients: Vec<_> = (0..2)
        .map(|id| {
            let mut c = svc.client(id).expect("client exists");
            c.attach_telemetry(&rec.scoped(&format!("c{id}")), "run", "village");
            c
        })
        .collect();
    for trace in &frames {
        for c in &mut clients {
            c.run_frame(svc.shared_l2(), trace, FilterMode::Trilinear)
                .expect("client replays");
        }
    }
    let clock = svc.shared_l2().clock_stats().expect("unified L2");
    let snap = rec.snapshot();
    let entries_column = FRAME_SERIES_COLUMNS
        .iter()
        .position(|c| *c == "sweep_entries")
        .unwrap();
    let mut hist_sums = Vec::new();
    let mut column_sums = Vec::new();
    for id in 0..2 {
        hist_sums.push(snap.hists[&format!("c{id}/clock_sweep_len/village")].sum);
        let series = snap
            .series
            .iter()
            .find(|s| s.label == format!("c{id}/run"))
            .expect("client series");
        column_sums.push(series.rows.iter().map(|r| r[entries_column]).sum::<u64>());
    }
    assert!(
        hist_sums.iter().all(|&s| s > 0),
        "both clients sweep: {hist_sums:?}"
    );
    assert_eq!(hist_sums.iter().sum::<u64>(), clock.entries_examined);
    assert_eq!(column_sums.iter().sum::<u64>(), clock.entries_examined);
    assert_eq!(hist_sums, column_sums);
}
