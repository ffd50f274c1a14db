//! Multi-client chaos and containment gate.
//!
//! Runs N phase-offset camera streams through one shared [`TextureService`]
//! under a bursty host link (2 of every 10 transfers fail, 3 attempts
//! each), optionally poisons one client (an injected worker panic or a
//! 100 %-failure fault plan), and then **gates** on the containment
//! contract:
//!
//! * the poisoned client must end up quarantined (exit 1 when it does
//!   not, or when anything *else* was quarantined or errored);
//! * with `--verify-containment` (partitioned mode), every survivor must
//!   be bit-identical to its solo baseline on both the wide and the
//!   scalar replay path (exit 2 on any divergence).
//!
//! A machine-readable summary lands in `<out>/multiclient_chaos.json`;
//! `--telemetry <dir>` additionally exports the per-client scoped
//! recorders (counters, per-frame series, histograms).
//!
//! ```text
//! multiclient [--tiny|--quick|--default|--full] [--clients <n>]
//!             [--partition partitioned|unified] [--inject-panic <c>]
//!             [--fault-client <c>] [--verify-containment]
//!             [--out <dir>] [--telemetry <dir>]
//! ```

use mltc_core::{FaultPlan, L2PartitionMode, ServiceConfig};
use mltc_experiments::{
    collect_frames, experiment_service_config, run_multi_client, solo_baseline,
    solo_baseline_scalar, ClientReport, ClientSpec, MultiClientConfig, MultiClientReport, Scale,
    TraceStore,
};
use mltc_telemetry::{export, Json, Recorder};
use mltc_trace::FilterMode;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: multiclient [--tiny|--quick|--default|--full] [--clients <n>]\n\
         \x20                  [--partition partitioned|unified] [--inject-panic <c>]\n\
         \x20                  [--fault-client <c>] [--verify-containment]\n\
         \x20                  [--out <dir>] [--telemetry <dir>]\n\
         \n\
         --clients <n>         client population (default 8)\n\
         --partition <m>       L2 organisation (default partitioned)\n\
         --inject-panic <c>    panic client <c>'s worker before its frame 1\n\
         --fault-client <c>    give client <c> a 100%-failure host link\n\
         --verify-containment  diff every survivor against its wide and scalar solo baselines\n\
         --out <dir>           where the JSON summary goes (default results)\n\
         --telemetry <dir>     export per-client telemetry into <dir>"
    );
    ExitCode::from(64)
}

/// The chaos link: of every 10 transfers the first 2 fail all 3 attempts.
fn burst_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x4d4c_5443,
        burst_period: 10,
        burst_len: 2,
        ..FaultPlan::none()
    }
}

/// The machine-readable summary (`multiclient_chaos.json`). A healthy
/// client has no `quarantined` field.
fn chaos_summary(
    scale: &str,
    partition: L2PartitionMode,
    report: &MultiClientReport,
    divergent: &[u32],
    gate_failures: &[String],
) -> Json {
    let ids = |ids: &[u32]| Json::Arr(ids.iter().map(|&i| Json::Num(i.into())).collect());
    let client = |c: &ClientReport| {
        let mut fields = vec![
            ("id", Json::Num(c.id.into())),
            ("frames", Json::Num(c.frames.len() as u64)),
            ("local_rate", Json::fixed(c.local_rate(), 6)),
            ("host_bytes", Json::Num(c.totals.host_bytes)),
            ("denied", Json::Num(c.service.denied_transfers)),
            ("shed_taps", Json::Num(c.service.shed_taps)),
            ("stalls", Json::Num(c.queue_stalls)),
        ];
        let reason = c.quarantined.as_ref().map(|q| Json::Str(q.to_string()));
        fields.extend(reason.map(|q| ("quarantined", q)));
        Json::obj(fields)
    };
    let failures = Json::Arr(gate_failures.iter().cloned().map(Json::Str).collect());
    let clients = Json::Arr(report.clients.iter().map(client).collect());
    Json::obj([
        ("scale", Json::Str(scale.to_string())),
        ("clients", Json::Num(report.clients.len() as u64)),
        ("partition", Json::Str(format!("{partition:?}"))),
        ("fairness", Json::fixed(report.fairness, 6)),
        ("contended", Json::Num(report.contention.contended)),
        ("acquisitions", Json::Num(report.contention.acquisitions)),
        ("quarantined", ids(&report.quarantined_ids())),
        ("divergent", ids(divergent)),
        ("gate_failures", failures),
        ("client_reports", clients),
    ])
}

fn main() -> ExitCode {
    let mut scale = Scale::quick();
    let mut clients = 8usize;
    let mut partition = L2PartitionMode::Partitioned;
    let mut inject_panic: Option<usize> = None;
    let mut fault_client: Option<usize> = None;
    let mut verify_containment = false;
    let mut out_dir = "results".to_string();
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" | "--quick" | "--default" | "--full" => {
                scale = Scale::from_flag(&a).expect("known flag");
            }
            "--clients" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => clients = n,
                _ => return usage(),
            },
            "--partition" => match it.next().as_deref() {
                Some("partitioned") => partition = L2PartitionMode::Partitioned,
                Some("unified") => partition = L2PartitionMode::Unified,
                _ => return usage(),
            },
            "--inject-panic" => match it.next().and_then(|s| s.parse().ok()) {
                Some(c) => inject_panic = Some(c),
                None => return usage(),
            },
            "--fault-client" => match it.next().and_then(|s| s.parse().ok()) {
                Some(c) => fault_client = Some(c),
                None => return usage(),
            },
            "--verify-containment" => verify_containment = true,
            "--out" => match it.next() {
                Some(d) => out_dir = d,
                None => return usage(),
            },
            "--telemetry" => match it.next() {
                Some(d) => telemetry_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "-h" | "--help" => return usage(),
            other => {
                eprintln!("unknown argument: {other}");
                return usage();
            }
        }
    }
    if inject_panic.is_some_and(|c| c >= clients) || fault_client.is_some_and(|c| c >= clients) {
        eprintln!("poisoned client id outside population 0..{clients}");
        return usage();
    }

    println!(
        "# multiclient chaos — {} clients, {:?}, scale {}, burst 2/10",
        clients, partition, scale.name
    );
    let w = scale.village();
    let store = TraceStore::in_memory();
    let frames = match collect_frames(&store, &w) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace render failed: {e}");
            return ExitCode::from(3);
        }
    };
    let mut specs: Vec<ClientSpec> = (0..clients)
        .map(|i| ClientSpec {
            phase_offset: i * frames.len() / clients,
            ..ClientSpec::new(FilterMode::Bilinear)
        })
        .collect();
    if let Some(c) = inject_panic {
        specs[c].panic_at_frame = Some(1);
    }
    if let Some(c) = fault_client {
        specs[c].fault_override = Some(FaultPlan {
            max_attempts: 1,
            ..FaultPlan::with_rate(7, 1_000_000)
        });
    }
    let cfg = MultiClientConfig {
        service: ServiceConfig {
            fault: burst_plan(),
            ..experiment_service_config(partition)
        },
        ..MultiClientConfig::default()
    };
    let recorder = if telemetry_dir.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    if inject_panic.is_some() {
        // The injected panic is the point of the run — one line, not a
        // backtrace, so the gate output stays readable.
        std::panic::set_hook(Box::new(|info| eprintln!("worker panic: {info}")));
    }
    let report = match run_multi_client(w.registry(), &frames, &specs, &cfg, &recorder) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("service construction failed: {e}");
            return ExitCode::from(3);
        }
    };

    let mut gate_failures: Vec<String> = Vec::new();
    for c in &report.clients {
        let expected_poison = inject_panic == Some(c.id as usize);
        match (&c.quarantined, expected_poison) {
            (Some(q), true) => println!("client {}: quarantined as expected ({q})", c.id),
            (Some(q), false) => {
                gate_failures.push(format!("client {} unexpectedly quarantined: {q}", c.id))
            }
            (None, true) => {
                gate_failures.push(format!("client {} should have been quarantined", c.id))
            }
            (None, false) => {}
        }
        if let Some(e) = &c.error {
            gate_failures.push(format!("client {} errored: {e}", c.id));
        }
    }

    let mut divergent: Vec<u32> = Vec::new();
    if verify_containment {
        if partition == L2PartitionMode::Unified {
            println!("note: --verify-containment is a no-op in unified mode (shared state)");
        } else {
            for c in report.survivors() {
                let id = c.id as usize;
                let diverged = [solo_baseline, solo_baseline_scalar]
                    .iter()
                    .any(
                        |baseline| match baseline(w.registry(), &frames, &specs, &cfg, id) {
                            Ok(solo) => solo.frames() != c.frames.as_slice(),
                            Err(e) => {
                                gate_failures.push(format!("solo baseline {id} failed: {e}"));
                                false
                            }
                        },
                    );
                if diverged {
                    divergent.push(c.id);
                }
            }
            match divergent.as_slice() {
                [] => println!(
                    "containment verified: {} survivors bit-identical to their wide and scalar solo baselines",
                    report.survivors().count()
                ),
                ids => gate_failures.push(format!("containment VIOLATED for clients {ids:?}")),
            }
        }
    }

    println!(
        "fairness {:.4}, contention {}/{} acquisitions, {} stalls, L2 locks held {:.1} ms",
        report.fairness,
        report.contention.contended,
        report.contention.acquisitions,
        report.clients.iter().map(|c| c.queue_stalls).sum::<u64>(),
        report.contention.held_nanos as f64 / 1e6
    );
    if recorder.is_enabled() {
        // Fast-path efficacy over all clients (`c<i>/engine/mc/wide_*`).
        let snap = recorder.snapshot();
        let sum = |name: &str| -> u64 {
            let suffix = format!("/engine/mc/{name}");
            let matching = snap.counters.iter().filter(|(k, _)| k.ends_with(&suffix));
            matching.map(|(_, v)| v).sum()
        };
        let (commits, declines) = (sum("wide_commits"), sum("wide_declines"));
        println!(
            "wide kernel: {commits} commits, {declines} declines ({:.1} % of fragments committed wide)",
            100.0 * commits as f64 / (commits + declines).max(1) as f64
        );
    }

    let summary = chaos_summary(scale.name, partition, &report, &divergent, &gate_failures);
    let out_path = PathBuf::from(&out_dir).join("multiclient_chaos.json");
    if let Err(e) =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&out_path, summary.render()))
    {
        eprintln!("failed to write {}: {e}", out_path.display());
        return ExitCode::from(3);
    }
    println!("summary: {}", out_path.display());

    if let Some(dir) = &telemetry_dir {
        if let Err(e) = export::export_dir(&recorder.snapshot(), dir) {
            eprintln!("telemetry export failed: {e}");
            return ExitCode::from(3);
        }
        println!("telemetry: {}", dir.display());
    }

    if !divergent.is_empty() {
        for f in &gate_failures {
            eprintln!("GATE: {f}");
        }
        return ExitCode::from(2);
    }
    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("GATE: {f}");
        }
        return ExitCode::from(1);
    }
    println!("gate: OK");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltc_core::QuarantineReason;

    #[test]
    fn summary_reads_back_whatever_the_reasons_say() {
        let reason = QuarantineReason::Panicked("index \"7\"\nout of range".into());
        let client = |id, quarantined| ClientReport {
            id,
            frames: Vec::new(),
            totals: Default::default(),
            service: Default::default(),
            quarantined,
            error: None,
            queue_stalls: 3,
        };
        let report = MultiClientReport {
            clients: vec![client(0, None), client(1, Some(reason.clone()))],
            contention: Default::default(),
            fairness: 0.5,
            steps: 4,
        };
        let failures = [format!("client 1 unexpectedly quarantined: {reason}")];
        let scale = "tiny \"scale\"";
        let summary = chaos_summary(scale, L2PartitionMode::Unified, &report, &[], &failures);
        let doc = Json::parse(&summary.render()).expect("the summary is JSON");
        assert_eq!(doc, summary);
        let clients = doc.get("client_reports").and_then(Json::as_arr).unwrap();
        assert_eq!(clients[0].get("quarantined"), None, "healthy: no field");
        let said = clients[1].get("quarantined").and_then(Json::as_str);
        assert_eq!(said, Some(&*reason.to_string()));
        assert_eq!(doc.get("scale").and_then(Json::as_str), Some(scale));
        let gate = doc.get("gate_failures").and_then(Json::as_arr).unwrap();
        assert_eq!(gate[0].as_str(), Some(&*failures[0]));
    }
}
