//! The workspace's one JSON reader against what reaches it: every artefact
//! a `--tiny` run writes parses (`mltc_telemetry::Json`), a bench report
//! keeps what it held when a run is appended, the telemetry export's
//! `summary.prom` carries the counters, histograms and heat maps of the
//! `summary.json` beside it, and hostile documents — a megabyte of
//! strings, a tower of brackets — cost linear time and an `Err`.
//!
//! The artefacts come from the real binaries: the test has the cargo that
//! is running it build them in its own profile (they land next to it in
//! `target/` and rebuild only when their sources moved), then drives them
//! from a scratch directory.

use mltc::telemetry::json::MAX_DEPTH;
use mltc::telemetry::{Json, JsonError};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds the workspace's binaries; returns the directory they are in.
fn build_bins() -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut build = Command::new(cargo);
    build
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["build", "--offline", "--quiet", "--bins"])
        .args(["-p", "mltc-experiments", "-p", "mltc-oracle"]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let status = build.status().expect("cargo runs");
    assert!(status.success(), "building the binaries: {status}");
    // target/<profile>/deps/json_artefacts-<hash> -> target/<profile>
    let test = std::env::current_exe().expect("test binary path");
    let profile_dir = test.ancestors().nth(2).expect("deps/ in a profile dir");
    profile_dir.into()
}

/// Runs `bin args...` to a clean exit in `dir` (artefact paths are relative
/// to it, so they split on whitespace whatever the temp dir is called);
/// returns what it said on stderr.
fn run(bins: &Path, dir: &Path, bin: &str, args: &str) -> String {
    let out = Command::new(bins.join(bin))
        .current_dir(dir)
        .args(args.split_whitespace())
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{bin} {args} exited {:?}\nstdout: {}\nstderr: {stderr}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
    );
    stderr
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn parse(path: &Path) -> Json {
    Json::parse(&read(path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One value per line of a JSONL file.
fn parse_lines(path: &Path) -> Vec<Json> {
    let parse = |(i, l)| Json::parse(l).unwrap_or_else(|e| panic!("{}:{i}: {e}", path.display()));
    read(path).lines().enumerate().map(parse).collect()
}

/// A report no binary wrote: pretty-printed, with one run and a `note`.
const SEEDED_REPORT: &str = r#"{
  "note": "hand-written: a key and a run no binary writes",
  "runs": [
    {
      "scale": "quick",
      "wall_seconds": 1.5
    }
  ],
  "schema": 1
}
"#;

/// The `name` label and value of each `family{name="…"…} value` sample in
/// a Prometheus exposition.
fn prom_samples<'a>(text: &'a str, family: &str) -> Vec<(&'a str, &'a str)> {
    let head = format!("{family}{{name=\"");
    let sample = |line: &'a str| {
        let rest = line.strip_prefix(head.as_str())?;
        let (name, rest) = rest.split_once('"')?;
        let (_, value) = rest.rsplit_once(' ')?;
        assert!(!name.contains('\\'), "escaped label {line}");
        Some((name, value))
    };
    text.lines().filter_map(sample).collect()
}

#[test]
fn every_artefact_of_a_tiny_run_parses_and_the_exports_agree() {
    let bins = build_bins();
    let dir = std::env::temp_dir().join(format!("mltc_json_artefacts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // The out directory already holds a report the runs append to.
    std::fs::write(dir.join("BENCH_experiments.json"), SEEDED_REPORT).unwrap();
    let seeded = Json::parse(SEEDED_REPORT).unwrap();
    let kept = seeded.get("runs").and_then(Json::as_arr).expect("runs");

    // The suite, recorded: telemetry export (trace events among it), the
    // explorer's summary, and the bench report appended to twice.
    let recorded = "all --tiny --out . --telemetry telemetry";
    run(&bins, &dir, "experiments", recorded);
    run(&bins, &dir, "experiments", "fig10 --tiny --out .");
    let dumped = "model traces/village-64x48-f4-ts8-s5eed-late-scanline.mltct \
                  --out grid.csv --profile-out profile.json";
    run(&bins, &dir, "tracetool", dumped);

    let summary = parse(&dir.join("telemetry/summary.json"));
    let renders = summary.get("counters").and_then(|c| c.get("store/renders"));
    assert!(renders.and_then(Json::as_u64).is_some_and(|n| n > 0));
    let rows = parse_lines(&dir.join("telemetry/metrics.jsonl"));
    assert!(!rows.is_empty());
    let labelled = |r: &Json| r.get("series").is_some() && r.get("seq").is_some();
    assert!(rows.iter().all(labelled));
    let events = parse(&dir.join("telemetry/trace_events.json"));
    let events = events.get("traceEvents").and_then(Json::as_arr);
    assert!(events.is_some_and(|e| !e.is_empty()));

    // Both invocations appended, and the report kept what it held. The
    // explorer's summary is a file of its own beside it.
    let bench = parse(&dir.join("BENCH_experiments.json"));
    let tmp = dir.join("BENCH_experiments.json.tmp");
    assert!(!tmp.exists(), "the report is renamed into place");
    assert_eq!(bench.get("note"), seeded.get("note"));
    assert_eq!(bench.get("schema"), Some(&Json::Num(1)));
    let runs = bench.get("runs").and_then(Json::as_arr).expect("runs");
    let (old, new) = runs.split_at(kept.len());
    assert_eq!(old, kept);
    assert_eq!(new.len(), 2);
    let model = parse(&dir.join("model_summary.json"));
    assert!(model.get("mean_abs_err").is_some());
    assert_eq!(new[1].get("scale").and_then(Json::as_str), Some("tiny"));
    let timed = new[1]
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("timings");
    assert_eq!(timed[0].get("id").and_then(Json::as_str), Some("fig10"));

    let profile = parse(&dir.join("profile.json"));
    let pages = profile.get("pages").and_then(Json::as_arr);
    assert!(pages.is_some_and(|p| !p.is_empty()));

    // summary.prom and summary.json come from one snapshot: the same
    // counters with the same values, and as many histograms and heat maps.
    let prom = read(&dir.join("telemetry/summary.prom"));
    let of = |key: &str| match summary.get(key) {
        Some(Json::Obj(m)) => m,
        other => panic!("summary.json {key}: {other:?}"),
    };
    let counters: BTreeMap<&str, u64> = prom_samples(&prom, "mltc_counter")
        .into_iter()
        .map(|(name, v)| (name, v.parse().unwrap_or_else(|_| panic!("{name} {v}"))))
        .collect();
    let recorded: BTreeMap<&str, u64> = of("counters")
        .iter()
        .map(|(name, v)| (name.as_str(), v.as_u64().expect("a u64 counter")))
        .collect();
    assert!(!counters.is_empty());
    assert_eq!(counters, recorded);
    let names = |family| -> BTreeSet<&str> {
        let samples = prom_samples(&prom, family).into_iter();
        samples.map(|(name, _)| name).collect()
    };
    assert_eq!(names("mltc_histogram").len(), of("histograms").len());
    assert_eq!(names("mltc_heatmap").len(), of("heatmaps").len());

    // What is there and is not a report is named on stderr, then replaced.
    for torn in ["{\"schema\":1,\"runs\":[{", "{\"runs\": 3}"] {
        std::fs::write(dir.join("BENCH_experiments.json"), torn).unwrap();
        let said = run(&bins, &dir, "experiments", "fig3 --tiny --no-store --out .");
        assert!(said.contains("not a bench report"), "stderr: {said}");
        let fresh = parse(&dir.join("BENCH_experiments.json"));
        let runs = fresh.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!((runs.len(), fresh.get("schema")), (1, Some(&Json::Num(1))));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `parse_string` used to re-validate the whole remaining document per
/// character: 13 s for this input in release, minutes in debug.
#[test]
fn a_megabyte_of_strings_parses_in_linear_time() {
    let items: Vec<Json> = (0..120_000)
        .map(|i| Json::Str(format!("é{i:06}")))
        .collect();
    let text = Json::Arr(items.clone()).render();
    assert!(text.len() >= 1 << 20, "{} bytes", text.len());
    let start = std::time::Instant::now();
    assert_eq!(Json::parse(&text).unwrap(), Json::Arr(items));
    assert!(start.elapsed() < std::time::Duration::from_secs(5));
}

/// Reports come from outside; a tower used to overflow the stack and abort
/// the process.
#[test]
fn nesting_towers_are_an_error_not_a_stack_overflow() {
    for unit in ["[", "{\"a\":"] {
        let tower = unit.repeat(2_000_000);
        assert!(matches!(Json::parse(&tower), Err(JsonError::TooDeep(_))));
    }
    let at_limit = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(&at_limit).is_ok());
    let over = Json::parse(&format!("[{at_limit}]")).unwrap_err();
    assert_eq!(over, JsonError::TooDeep(MAX_DEPTH + 1), "{over}");
}
