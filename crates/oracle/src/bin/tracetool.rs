//! Inspect recorded trace files and shrink divergences against the oracle.
//!
//! ```text
//! tracetool <trace-file> [--per-frame]
//! tracetool stats <trace-file> [--per-frame] [--out <file>]
//! tracetool model <trace-file> [--out <csv>] [--profile-out <json>]
//! tracetool shrink <trace-file> --config <json|file> [--out <dir>] [--filter <mode>]
//! ```
//!
//! The bare form prints a human summary. `stats` is machine-oriented: with
//! `--per-frame` it dumps one CSV row per frame (request count, nominal
//! texel-tap count at the recorded filter mode, distinct textures) through
//! the shared `mltc-telemetry` time-series exporter, so the columns match
//! the engine's own telemetry exports byte for byte.
//!
//! Every form reads one kind of file, the versioned `.mltct` trace file
//! (`MLTS` container, [`mltc_trace::codec`]) the experiment suite's trace
//! store and `examples/record_replay.rs` write. The store's key names the
//! workload that recorded the trace, which `model` and `shrink` rebuild to
//! get the recording scene's textures.
//!
//! `model` runs the one-pass analytic design-space explorer (DESIGN.md
//! §13) over a trace file: one instrumented replay captures a
//! locality profile, then the full default design grid (L1 size × L2
//! size × page size × policy × sector mode × TLB entries) is predicted
//! analytically and dumped as CSV — thousands of cache configurations
//! for the price of a single replay.
//!
//! `shrink` replays a cached `.mltct` trace through the differential
//! harness under the given engine configuration (inline JSON, a path to a
//! config file, or a previously written repro file, whose embedded config
//! is reused). On divergence it delta-minimizes the access stream and
//! writes a self-contained repro JSON (default `results/repros/`), exiting
//! nonzero; with no divergence it exits zero.

use mltc_core::{EngineConfig, L1Config, SimEngine, TelemetryOpts};
use mltc_model::{default_grid, predict};
use mltc_oracle::{
    config_from_json, expand_frame, DiffHarness, Json, Repro, TexelAccess, TraceKey,
};
use mltc_telemetry::{export, Recorder, SeriesSnapshot};
use mltc_trace::codec::TraceFileReader;
use mltc_trace::FilterMode;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracetool <trace-file> [--per-frame]\n\
         \x20      tracetool stats <trace-file> [--per-frame] [--out <file>]\n\
         \x20      tracetool model <trace-file> [--out <csv>] [--profile-out <json>]\n\
         \x20      tracetool shrink <trace-file> --config <json|file> [--out <dir>] [--filter <mode>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("stats") => return stats_main(&args[1..]),
        Some("model") => return model_main(&args[1..]),
        Some("shrink") => return shrink_main(&args[1..]),
        _ => {}
    }
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        return usage();
    };
    let per_frame = args.iter().any(|a| a == "--per-frame");

    let mut reader = match open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut frames = 0u64;
    let mut requests = 0u64;
    let mut depth_sum = 0.0f64;
    let mut tids: BTreeMap<u32, u64> = BTreeMap::new();
    let mut lod_min = f32::INFINITY;
    let mut lod_max = f32::NEG_INFINITY;
    let mut dims = (0u32, 0u32);
    let mut filter = None;

    if per_frame {
        println!("{:>6} {:>10} {:>8}", "frame", "requests", "d");
    }
    for _ in 0..reader.frame_count() {
        match reader.read_frame() {
            Ok(t) => {
                frames += 1;
                requests += t.requests.len() as u64;
                depth_sum += t.depth_complexity();
                dims = (t.width, t.height);
                filter = Some(t.filter);
                for r in &t.requests {
                    *tids.entry(r.tid.index()).or_insert(0) += 1;
                    lod_min = lod_min.min(r.lod);
                    lod_max = lod_max.max(r.lod);
                }
                if per_frame {
                    println!(
                        "{:>6} {:>10} {:>8.2}",
                        t.frame,
                        t.requests.len(),
                        t.depth_complexity()
                    );
                }
            }
            Err(e) => {
                eprintln!("corrupt trace after {frames} frames: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if frames == 0 {
        println!("{path}: empty trace");
        return ExitCode::SUCCESS;
    }

    println!("\n{path}:");
    println!("  frames           : {frames}");
    println!("  resolution       : {}x{}", dims.0, dims.1);
    println!(
        "  filter           : {}",
        filter.map(|f| f.name()).unwrap_or("?")
    );
    println!("  total requests   : {requests}");
    println!("  mean depth compl.: {:.2}", depth_sum / frames as f64);
    println!("  distinct textures: {}", tids.len());
    println!("  lod range        : {lod_min:.2} .. {lod_max:.2}");
    let mut top: Vec<(u32, u64)> = tids.into_iter().collect();
    top.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("  hottest textures :");
    for (tid, n) in top.into_iter().take(5) {
        println!(
            "    tid{tid:<6} {:>6.2}% of requests",
            n as f64 * 100.0 / requests as f64
        );
    }
    ExitCode::SUCCESS
}

/// `tracetool stats`: machine-readable per-frame counts.
fn stats_main(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut per_frame = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--per-frame" => per_frame = true,
            "--out" => match it.next() {
                Some(f) => out = Some(f.clone()),
                None => return usage(),
            },
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };

    let series = match per_frame_series(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if per_frame {
        let written = match out {
            Some(ref f) => File::create(f)
                .and_then(|file| {
                    let mut w = std::io::BufWriter::new(file);
                    export::write_single_series_csv(&series, &mut w)?;
                    w.flush()
                })
                .map(|()| eprintln!("wrote {f}")),
            None => {
                let stdout = std::io::stdout();
                export::write_single_series_csv(&series, &mut stdout.lock())
            }
        };
        if let Err(e) = written {
            eprintln!("cannot write per-frame CSV: {e}");
            return ExitCode::FAILURE;
        }
    } else {
        let frames = series.rows.len();
        let requests: u64 = series.rows.iter().map(|r| r[1]).sum();
        let taps: u64 = series.rows.iter().map(|r| r[2]).sum();
        println!("{path}: {frames} frames, {requests} requests, {taps} taps");
    }
    ExitCode::SUCCESS
}

/// `tracetool model`: one instrumented replay, then the analytic sweep of
/// the whole default design grid (DESIGN.md §13).
fn model_main(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(f) => out = Some(f.clone()),
                None => return usage(),
            },
            "--profile-out" => match it.next() {
                Some(f) => profile_out = Some(f.clone()),
                None => return usage(),
            },
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    match run_model(&path, out.as_deref(), profile_out.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_model(path: &str, out: Option<&str>, profile_out: Option<&str>) -> Result<(), String> {
    let mut reader = open(path)?;
    // The profile is captured by replaying against the recording scene's
    // texture registry, which only the container key can reconstruct.
    let key = TraceKey::parse(reader.key())?;
    let workload = key.workload();
    let registry = workload.scene().registry();

    let cfg = EngineConfig {
        l1: L1Config::kb(2),
        l2: None,
        tlb_entries: 0,
        ..EngineConfig::default()
    };
    let mut engine = SimEngine::try_new(cfg, registry).map_err(|e| format!("config: {e}"))?;
    engine.attach_telemetry_opts(
        &Recorder::enabled(),
        "tracetool/model",
        "model",
        TelemetryOpts {
            locality: true,
            ..TelemetryOpts::default()
        },
    );
    let frames = reader.frame_count();
    for _ in 0..frames {
        let f = reader.read_frame().map_err(|e| e.to_string())?;
        engine
            .try_run_frame_as(&f, FilterMode::Trilinear)
            .map_err(|e| e.to_string())?;
    }
    let profile = engine
        .locality_profile()
        .expect("locality capture attached");
    if let Some(f) = profile_out {
        std::fs::write(f, profile.to_json().render())
            .map_err(|e| format!("cannot write {f}: {e}"))?;
        eprintln!("wrote {f}");
    }

    let grid = default_grid(&profile);
    let start = std::time::Instant::now();
    let mut csv =
        String::from("point,l1_hit_pct,l2_full_pct,l2_partial_pct,tlb_hit_pct,host_mb,exact\n");
    for p in &grid {
        let pr = predict(&profile, p).map_err(|e| format!("{p}: {e:?}"))?;
        let (full, partial) = pr
            .l2
            .as_ref()
            .map(|l| (l.full_hit_rate(), l.partial_hit_rate()))
            .unwrap_or((0.0, 0.0));
        csv.push_str(&format!(
            "{p},{:.2},{:.2},{:.2},{:.2},{:.3},{}\n",
            pr.l1_hit_rate() * 100.0,
            full * 100.0,
            partial * 100.0,
            pr.tlb_hit_rate.unwrap_or(0.0) * 100.0,
            pr.host_bytes / (1024.0 * 1024.0),
            pr.exact
        ));
    }
    let secs = start.elapsed().as_secs_f64();
    match out {
        Some(f) => {
            std::fs::write(f, csv).map_err(|e| format!("cannot write {f}: {e}"))?;
            eprintln!("wrote {f}");
        }
        None => print!("{csv}"),
    }
    eprintln!(
        "{path}: {frames} frames captured once, {} design points predicted in {secs:.3}s",
        grid.len()
    );
    Ok(())
}

/// `tracetool shrink`: differential replay + delta minimization.
fn shrink_main(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut config_arg = None;
    let mut out_dir = PathBuf::from("results/repros");
    let mut filter_override = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => match it.next() {
                Some(c) => config_arg = Some(c.clone()),
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--filter" => match it.next().map(String::as_str) {
                Some("point") => filter_override = Some(FilterMode::Point),
                Some("bilinear") => filter_override = Some(FilterMode::Bilinear),
                Some("trilinear") => filter_override = Some(FilterMode::Trilinear),
                other => {
                    eprintln!("unknown --filter {other:?} (point|bilinear|trilinear)");
                    return usage();
                }
            },
            other if !other.starts_with("--") && path.is_none() => path = Some(other.to_string()),
            _ => return usage(),
        }
    }
    let (Some(path), Some(config_arg)) = (path, config_arg) else {
        return usage();
    };

    let config = match load_config(&config_arg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bad --config: {e}");
            return ExitCode::FAILURE;
        }
    };

    match run_shrink(&path, config, filter_override, &out_dir) {
        Ok(None) => {
            println!("{path}: no divergence");
            ExitCode::SUCCESS
        }
        Ok(Some((detail, len, repro_path))) => {
            eprintln!("{path}: DIVERGENCE — {detail}");
            eprintln!("shrunk to {len} accesses; repro: {}", repro_path.display());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Accepts inline JSON, a path to a config JSON file, or a path to a full
/// repro file (whose `config` member is reused).
fn load_config(arg: &str) -> Result<mltc_core::EngineConfig, String> {
    let text = if std::path::Path::new(arg).exists() {
        std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?
    } else {
        arg.to_string()
    };
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let config_doc = doc.get("config").unwrap_or(&doc);
    config_from_json(config_doc)
}

fn run_shrink(
    path: &str,
    config: mltc_core::EngineConfig,
    filter_override: Option<FilterMode>,
    out_dir: &std::path::Path,
) -> Result<Option<(String, usize, PathBuf)>, String> {
    let mut reader = open(path)?;
    let key = TraceKey::parse(reader.key())?;
    let workload = key.workload();
    let registry = workload.scene().registry();

    let mut stream: Vec<TexelAccess> = Vec::new();
    for _ in 0..reader.frame_count() {
        let frame = reader.read_frame().map_err(|e| e.to_string())?;
        let filter = filter_override.unwrap_or(frame.filter);
        expand_frame(&frame, filter, registry, &mut stream).map_err(|e| e.to_string())?;
    }

    let harness = DiffHarness::new(config, registry).map_err(|e| format!("config: {e}"))?;
    match harness.replay(&stream) {
        Ok(()) => Ok(None),
        Err(div) => {
            let shrunk = harness.shrink(&stream);
            let detail = harness
                .replay(&shrunk)
                .expect_err("shrunk stream still diverges")
                .to_string();
            let repro = Repro::capture(&detail, config, registry, &shrunk);
            let repro_path = repro.write(out_dir).map_err(|e| e.to_string())?;
            let _ = div; // first divergence superseded by the shrunk one
            Ok(Some((detail, shrunk.len(), repro_path)))
        }
    }
}

/// Decodes `path` into one row per frame: request count, nominal tap count
/// (requests × the filter mode's maximum taps — point 1, bilinear 4,
/// trilinear 8), and distinct textures touched.
fn per_frame_series(path: &str) -> Result<SeriesSnapshot, String> {
    let mut series = SeriesSnapshot {
        label: path.to_string(),
        columns: ["frame", "requests", "taps", "distinct_textures"]
            .iter()
            .map(|c| c.to_string())
            .collect(),
        rows: Vec::new(),
    };
    let mut reader = open(path)?;
    for _ in 0..reader.frame_count() {
        let t = reader.read_frame().map_err(|e| e.to_string())?;
        let requests = t.requests.len() as u64;
        let tids: BTreeSet<u32> = t.requests.iter().map(|r| r.tid.index()).collect();
        series.rows.push(vec![
            u64::from(t.frame),
            requests,
            requests * t.filter.max_taps() as u64,
            tids.len() as u64,
        ]);
    }
    Ok(series)
}

/// Opens the trace file at `path`, its header parsed.
fn open(path: &str) -> Result<TraceFileReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| e.to_string())?;
    TraceFileReader::new(BufReader::new(file)).map_err(|e| format!("not a .mltct trace file: {e}"))
}
