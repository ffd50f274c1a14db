//! Containment contract for the multi-client texture service, exercised
//! end-to-end through the public facade: with a partitioned shared L2, a
//! poisoned client — whether its worker panics or its host link fails
//! every transfer — must be quarantined and reported, while every
//! survivor replays bit-identically to a solo engine given the same
//! per-client slice of the hierarchy — replayed wide, as the service
//! client itself runs, and replayed one scalar tap at a time.

use mltc::core::{FaultPlan, L2PartitionMode, QuarantineReason, ServiceConfig};
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
fn chaos_cfg() -> MultiClientConfig {
    MultiClientConfig {
        service: ServiceConfig {
            fault: FaultPlan {
                seed: 0x4d4c_5443,
                burst_period: 10,
                burst_len: 2,
                ..FaultPlan::none()
            },
            ..experiment_service_config(L2PartitionMode::Partitioned)
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
    let mut specs = specs(4, frames.len());
    specs[1].panic_at_frame = Some(1);
    let cfg = chaos_cfg();

    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled())
        .expect("service constructs");
    std::panic::set_hook(prev_hook);

    // The poisoned client is quarantined and reported as such.
    assert_eq!(report.quarantined_ids(), vec![1]);
    assert!(matches!(
        report.clients[1].quarantined,
        Some(QuarantineReason::Panicked(_))
    ));
    assert!(!report.clients[1].is_survivor());

    // Every survivor completed the run and is bit-identical to a solo
    // engine over its own partition of the shared L2.
    for c in report.survivors() {
        assert_eq!(c.frames.len(), frames.len(), "survivor {} completed", c.id);
        assert_matches_solo_baselines(c, &w, &frames, &specs, &cfg);
    }
    assert_eq!(report.survivors().count(), 3);
}

#[test]
fn total_link_failure_is_scoped_to_the_faulted_client() {
    let w = tiny_village();
    let store = TraceStore::in_memory();
    let frames = collect_frames(&store, &w).expect("tiny trace renders");
    let mut specs = specs(4, frames.len());
    // Client 3's host link fails 100 % of transfers on the first (only)
    // attempt; everyone else rides the shared bursty link.
    specs[3].fault_override = Some(FaultPlan {
        max_attempts: 1,
        ..FaultPlan::with_rate(7, 1_000_000)
    });
    let cfg = chaos_cfg();

    let report = run_multi_client(w.registry(), &frames, &specs, &cfg, &Recorder::disabled())
        .expect("service constructs");

    // A failing link degrades the client; it must not poison anyone else.
    for c in &report.clients {
        assert!(c.error.is_none(), "client {} errored: {:?}", c.id, c.error);
        assert_matches_solo_baselines(c, &w, &frames, &specs, &cfg);
    }
    let faulted = &report.clients[3];
    assert!(
        faulted.totals.l2_full_misses > 0 || faulted.service.denied_transfers > 0,
        "the fault plan must actually bite"
    );
}
