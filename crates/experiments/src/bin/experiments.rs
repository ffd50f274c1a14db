//! Experiment runner binary.
//!
//! ```text
//! experiments <id>... [--tiny|--quick|--default|--full] [--out <dir>] [--no-store] [--expect-warm]
//! experiments all [--default]
//! experiments list
//! ```
//!
//! Rendered traces are memoized in a [`TraceStore`] persisted under
//! `<out>/traces/`: the first run at a given scale rasterizes each unique
//! animation once and later runs replay from disk without rasterizing at
//! all (`--expect-warm` turns that expectation into an exit code, for
//! CI). Per-experiment wall times and store throughput counters append to
//! `<out>/BENCH_experiments.json`. Delete `<out>/traces/` to force a
//! cold re-render (for example after changing the renderer).

use mltc_experiments::{
    find_experiment, replay_path, set_max_replay_jobs, set_replay_path, Outputs, ReplayPath, Scale,
    TraceStore, EXPERIMENTS,
};
use mltc_telemetry::{export, Json, Recorder};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments <id>... [--tiny|--quick|--default|--full] [--out <dir>] \
         [--no-store] [--expect-warm] [--jobs <n>] [--telemetry <dir>] \
         [--heartbeat <secs>]\n\
         \n\
         --no-store           do not persist traces under <out>/traces/\n\
         --expect-warm        fail if anything had to be rasterized (CI warm-run check)\n\
         --jobs <n>           use at most <n> busy threads: replay at most <n>\n\
         \x20                    configurations concurrently and render each trace\n\
         \x20                    on up to <n> threads (default: one per available core)\n\
         --replay-path <p>    engine path: scalar, batched (default) or pipelined\n\
         \x20                    (bit-identical; pipelined decodes the next frame on a\n\
         \x20                    second thread while the batched loop replays this one,\n\
         \x20                    inside the --jobs budget)\n\
         --telemetry <dir>    record spans/counters/histograms; export JSONL, CSV,\n\
         \x20                    summary JSON, its Prometheus text and a\n\
         \x20                    chrome://tracing trace-event file into <dir>\n\
         --heartbeat <secs>   print store throughput every <secs> seconds\n\
         \n\
         ids: all, list, {}",
        EXPERIMENTS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }

    let mut scale = Scale::default_scale();
    let mut out_dir = "results".to_string();
    let mut persist = true;
    let mut expect_warm = false;
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut heartbeat_secs: u64 = 0;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tiny" | "--quick" | "--default" | "--full" => {
                scale = Scale::from_flag(&a).expect("known flag");
            }
            "--out" => match it.next() {
                Some(d) => out_dir = d,
                None => return usage(),
            },
            "--no-store" => persist = false,
            "--expect-warm" => expect_warm = true,
            "--jobs" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => set_max_replay_jobs(n),
                _ => return usage(),
            },
            "--replay-path" => match it.next().as_deref().and_then(ReplayPath::parse) {
                Some(p) => set_replay_path(p),
                None => return usage(),
            },
            "--telemetry" => match it.next() {
                Some(d) => telemetry_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            "--heartbeat" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) => heartbeat_secs = secs,
                None => return usage(),
            },
            "list" => {
                for (n, _) in EXPERIMENTS {
                    println!("{n}");
                }
                return ExitCode::SUCCESS;
            }
            "-h" | "--help" => return usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return usage();
    }

    let outputs = Outputs::new(&out_dir);
    // One recorder for the whole suite: the store hands it to every run, so
    // engine counters, store spans and per-frame series all land in one
    // snapshot. Left disabled (a single not-taken branch per texel) unless
    // an export destination was asked for.
    let recorder = if telemetry_dir.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let store = if persist {
        TraceStore::persistent(Path::new(&out_dir).join("traces"))
    } else {
        TraceStore::in_memory()
    }
    .with_recorder(recorder.clone());
    println!(
        "# mltc experiments — scale: {} ({}x{})",
        scale.name, scale.params.width, scale.params.height
    );
    let heartbeat = Heartbeat::start(&store, heartbeat_secs);

    let run_list: Vec<&str> = if ids.iter().any(|i| i == "all") {
        EXPERIMENTS
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| *n != "calibrate")
            .collect()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    // One broken experiment must not take the suite down: failures (typed
    // errors and outright panics alike) are collected and reported at the
    // end, and the process exits nonzero.
    let suite_start = std::time::Instant::now();
    let path_name = replay_path().name();
    let mut failures: Vec<(String, String)> = Vec::new();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in &run_list {
        match find_experiment(id) {
            Some(f) => {
                let start = std::time::Instant::now();
                println!("\n### running {id} ...");
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    f(&scale, &outputs, &store)
                }));
                let secs = start.elapsed().as_secs_f64();
                timings.push((id.to_string(), secs));
                match outcome {
                    Ok(Ok(())) => {
                        println!("### {id} done in {secs:.1}s [{path_name}]")
                    }
                    Ok(Err(e)) => {
                        eprintln!("### {id} FAILED: {e}");
                        failures.push((id.to_string(), e.to_string()));
                    }
                    Err(payload) => {
                        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                            (*s).to_string()
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "non-string panic payload".to_string()
                        };
                        eprintln!("### {id} PANICKED: {msg}");
                        failures.push((id.to_string(), format!("panicked: {msg}")));
                    }
                }
            }
            None => {
                eprintln!("unknown experiment: {id}");
                return usage();
            }
        }
    }

    let wall = suite_start.elapsed().as_secs_f64();
    heartbeat.stop();
    let stats = store.snapshot();
    // One snapshot, one rate computation: the summary line and the bench
    // record must agree, so derive each rate exactly once per report.
    let frag_rate = stats.fragments_per_sec();
    let tap_rate = stats.taps_per_sec();
    println!(
        "\n### trace store: {} renders ({} frames, {:.1} Mfrag/s), {} memory hits, \
         {} disk hits, {} healed, {:.1} Mtaps/s answered [{path_name}]",
        stats.renders,
        stats.frames_rendered,
        frag_rate / 1e6,
        stats.mem_hits,
        stats.disk_hits,
        stats.healed_files,
        tap_rate / 1e6,
    );
    // Taps answered = configurations x trace taps: a configuration that
    // rode on another's L1 pass, or replayed one stored beside the trace,
    // counts its taps without an L1 pass of its own, which is what lifts
    // the rate above the kernel's.
    println!(
        "### replay: {} L1 passes answered {} configurations ({} shared a pass, \
         {} replayed a stored one; {:.1} MB of passes held)",
        stats.l1_passes,
        stats.l1_passes + stats.l1_shared_members + stats.l1_passes_reused,
        stats.l1_shared_members,
        stats.l1_passes_reused,
        stats.pass_bytes as f64 / 1e6,
    );
    if stats.bytes_written + stats.bytes_read > 0 {
        println!(
            "### trace files: {:.1} MB written, {:.1} MB read, {} corrupt, {} stale",
            stats.bytes_written as f64 / 1e6,
            stats.bytes_read as f64 / 1e6,
            stats.corrupt_files,
            stats.stale_files,
        );
    }

    // Telemetry export: one snapshot feeds every file, so the JSONL rows,
    // the summaries and the trace events always agree.
    if let Some(dir) = &telemetry_dir {
        match export::export_dir(&recorder.snapshot(), dir) {
            Ok(()) => println!("### telemetry: {}", dir.display()),
            Err(e) => eprintln!("could not export telemetry to {}: {e}", dir.display()),
        }
    }
    let bench = Path::new(&out_dir).join("BENCH_experiments.json");
    let run = bench_run(
        &scale,
        wall,
        path_name,
        &timings,
        &stats,
        (frag_rate, tap_rate),
    );
    if let Err(e) = append_bench_run(&bench, run) {
        eprintln!("could not write {}: {e}", bench.display());
    } else {
        println!("### bench report: {}", bench.display());
    }

    if expect_warm && stats.renders > 0 {
        eprintln!(
            "--expect-warm: store rasterized {} animation(s); expected 100% trace hits",
            stats.renders
        );
        return ExitCode::FAILURE;
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} experiment(s) failed:", failures.len());
        for (id, why) in &failures {
            eprintln!("  {id}: {why}");
        }
        ExitCode::FAILURE
    }
}

/// A periodic progress printer: every `secs` seconds a background thread
/// snapshots the trace store and reports cumulative throughput, so long
/// `--full` runs show signs of life. Disabled (no thread) when `secs` is 0.
struct Heartbeat {
    stop_tx: Option<std::sync::mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(store: &TraceStore, secs: u64) -> Self {
        if secs == 0 {
            return Heartbeat {
                stop_tx: None,
                handle: None,
            };
        }
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let store = store.clone();
        let start = std::time::Instant::now();
        let beat = move |elapsed: Duration| {
            let s = store.snapshot();
            eprintln!(
                "### heartbeat {:>6.0}s: {} renders, {} frames, {:.1} Mfrag/s, \
                 {} mem hits, {} disk hits, {} healed, {} stalls, {:.1} Mtaps/s, \
                 {} stored-pass replays, {:.1} MB of passes",
                elapsed.as_secs_f64(),
                s.renders,
                s.frames_rendered,
                s.fragments_per_sec() / 1e6,
                s.mem_hits,
                s.disk_hits,
                s.healed_files,
                s.build_stalls,
                s.taps_per_sec() / 1e6,
                s.l1_passes_reused,
                s.pass_bytes as f64 / 1e6,
            );
        };
        let handle = std::thread::spawn(move || loop {
            match stop_rx.recv_timeout(Duration::from_secs(secs)) {
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => beat(start.elapsed()),
                Ok(()) => {
                    // Clean shutdown: flush one final line so the log
                    // always ends on the finished totals.
                    beat(start.elapsed());
                    return;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        });
        Heartbeat {
            stop_tx: Some(stop_tx),
            handle: Some(handle),
        }
    }

    fn stop(mut self) {
        if let Some(tx) = self.stop_tx.take() {
            let _ = tx.send(());
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One run record of `BENCH_experiments.json`. `rates` carries the
/// already-computed `(fragments_per_sec, taps_per_sec)` so the record can
/// never disagree with the printed summary. The telemetry summaries and
/// the explorer's `model_summary.json` are files of their own beside it.
fn bench_run(
    scale: &Scale,
    wall_seconds: f64,
    replay_path: &str,
    timings: &[(String, f64)],
    stats: &mltc_experiments::StoreStats,
    rates: (f64, f64),
) -> Json {
    let (frag_rate, tap_rate) = rates;
    let (n, str) = (Json::Num, |s: &str| Json::Str(s.to_string()));
    let secs = |nanos: u64| Json::fixed(nanos as f64 / 1e9, 3);
    let timing = |(id, secs): &(String, f64)| {
        Json::obj([("id", str(id)), ("seconds", Json::fixed(*secs, 3))])
    };
    let counted = str("answered (configurations x trace taps)");
    let store = Json::obj([
        ("renders", n(stats.renders)),
        ("mem_hits", n(stats.mem_hits)),
        ("disk_hits", n(stats.disk_hits)),
        ("frames_rendered", n(stats.frames_rendered)),
        ("fragments_rasterized", n(stats.fragments_rasterized)),
        ("fragments_per_sec", Json::fixed(frag_rate, 0)),
        ("render_seconds", secs(stats.render_nanos)),
        ("taps_simulated", n(stats.taps_simulated)),
        ("taps_per_sec", Json::fixed(tap_rate, 0)),
        ("sim_seconds", secs(stats.sim_nanos)),
        ("taps_counted", counted),
        ("l1_passes", n(stats.l1_passes)),
        ("l1_shared_members", n(stats.l1_shared_members)),
        ("l1_passes_reused", n(stats.l1_passes_reused)),
        ("pass_bytes", n(stats.pass_bytes)),
        ("bytes_written", n(stats.bytes_written)),
        ("bytes_read", n(stats.bytes_read)),
        ("corrupt_files", n(stats.corrupt_files)),
        ("stale_files", n(stats.stale_files)),
        ("io_errors", n(stats.io_errors)),
        ("evictions", n(stats.evictions)),
        ("spills", n(stats.spills)),
        ("resident_bytes", n(stats.resident_bytes)),
        ("healed_files", n(stats.healed_files)),
        ("build_stalls", n(stats.build_stalls)),
    ]);
    let experiments = Json::Arr(timings.iter().map(timing).collect());
    Json::obj([
        ("scale", str(scale.name)),
        ("wall_seconds", Json::fixed(wall_seconds, 3)),
        ("replay_path", str(replay_path)),
        ("experiments", experiments),
        ("store", store),
    ])
}

/// Appends `run` to the report at `path` (`{"schema":1,"runs":[...]}`). A
/// report that parses keeps its runs and every other top-level key it
/// carries (a hand-written `note`, say); anything else found there is
/// reported on stderr and replaced. The report is written to a temporary
/// file and renamed over `path`, so an interrupted run leaves the previous
/// report whole instead of a torn one the next run would replace.
fn append_bench_run(path: &Path, run: Json) -> std::io::Result<()> {
    let fresh = || {
        let fields = [("schema", Json::Num(1)), ("runs", Json::Arr(vec![]))];
        BTreeMap::from(fields.map(|(k, v)| (k.to_string(), v)))
    };
    let found = match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Json::Obj(fresh())),
        Err(e) => Err(e.to_string()),
        Ok(text) => Json::parse(&text).map_err(|e| e.to_string()),
    };
    let mut report = match found {
        Ok(Json::Obj(m)) if matches!(m.get("runs"), Some(Json::Arr(_))) => m,
        other => {
            let why = other.err().unwrap_or("no \"runs\" array".to_string());
            let name = path.display();
            eprintln!("{name}: not a bench report ({why}); replacing it");
            fresh()
        }
    };
    if let Some(Json::Arr(runs)) = report.get_mut("runs") {
        runs.push(run);
    }
    let tmp = path.with_extension("json.tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(Json::Obj(report).render().as_bytes())?;
    // Durable before the rename, and the rename durable once the directory
    // entry is: a crash leaves either report whole, never an empty one.
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}
