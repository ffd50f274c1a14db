//! Negative-path CLI tests for `bench-sentinel`: the exit-code contract
//! CI relies on. A malformed current report must exit 2 (the run under
//! test stopped producing bench records), a missing baseline must exit 0
//! (new branches only warn), and a genuine throughput regression must
//! exit 1.

use mltc_telemetry::Json;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn sentinel() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench-sentinel"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mltc_sentinel_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The verdict a run printed: its one stdout line, parsed.
fn verdict_of(out: &std::process::Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    Json::parse(stdout.trim_end()).unwrap_or_else(|e| panic!("verdict {stdout:?}: {e}"))
}

/// `doc.a.b` as a string, for `verdict` / `model.verdict` lookups.
fn word<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a str> {
    path.iter().try_fold(doc, |j, k| j.get(k))?.as_str()
}

fn report(taps: &[f64]) -> String {
    let runs: Vec<String> = taps
        .iter()
        .map(|t| {
            format!(
                "{{\"scale\":\"quick\",\"wall_seconds\":1.0,\"store\":{{\"taps_per_sec\":{t}}}}}"
            )
        })
        .collect();
    format!("{{\"runs\":[{}]}}", runs.join(","))
}

#[test]
fn malformed_current_report_exits_2() {
    let dir = scratch("malformed");
    let base = dir.join("baseline.json");
    // The reason names the file: quotes and a newline must not break it.
    let cur = dir.join("cur \"rent\"\n.json");
    fs::write(&base, report(&[1000.0])).unwrap();
    for bad in [
        "not json at all",
        "{\"runs\":[]}",
        "{\"runs\":[{\"store\":{}}]}",
        "{}",
    ] {
        fs::write(&cur, bad).unwrap();
        let out = sentinel()
            .args(["--baseline", base.to_str().unwrap()])
            .args(["--current", cur.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "current report {bad:?} must exit 2, stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let verdict = verdict_of(&out);
        assert_eq!(word(&verdict, &["verdict"]), Some("error"));
        let reason = word(&verdict, &["reason"]).unwrap();
        assert!(reason.starts_with(cur.to_str().unwrap()), "got {reason:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_baseline_warns_but_exits_0() {
    let dir = scratch("nobase");
    let cur = dir.join("current.json");
    fs::write(&cur, report(&[1000.0])).unwrap();
    let out = sentinel()
        .args([
            "--baseline",
            dir.join("does-not-exist.json").to_str().unwrap(),
        ])
        .args(["--current", cur.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "no baseline must pass");
    let verdict = verdict_of(&out);
    assert_eq!(word(&verdict, &["verdict"]), Some("no-baseline"));
    assert_eq!(
        verdict.get("current").and_then(|c| c.get("taps_per_sec")),
        Some(&Json::Num(1000))
    );
}

#[test]
fn regression_beyond_threshold_exits_1_and_writes_verdict() {
    let dir = scratch("regress");
    let base = dir.join("baseline.json");
    let cur = dir.join("current.json");
    let verdict = dir.join("verdict.json");
    // Best committed run is 4000 taps/s; the run under test collapsed to
    // 1000 (-75%), beyond the default -50% gate.
    fs::write(&base, report(&[3000.0, 4000.0, 2000.0])).unwrap();
    fs::write(&cur, report(&[1000.0])).unwrap();
    let out = sentinel()
        .args(["--baseline", base.to_str().unwrap()])
        .args(["--current", cur.to_str().unwrap()])
        .args(["--out", verdict.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let written = Json::parse(&fs::read_to_string(&verdict).unwrap()).unwrap();
    assert_eq!(written, verdict_of(&out), "file and stdout agree");
    assert_eq!(word(&written, &["verdict"]), Some("regression"));
    assert_eq!(written.get("delta_pct"), Some(&Json::Float(-75.0)));

    // The same pair passes with a wider gate: the threshold is the knob.
    let out = sentinel()
        .args(["--baseline", base.to_str().unwrap()])
        .args(["--current", cur.to_str().unwrap()])
        .args(["--threshold", "-90"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "wider gate must pass");
    let _ = fs::remove_dir_all(&dir);
}

fn report_with_model(taps: f64, mean_abs_err: Option<f64>) -> String {
    let model = mean_abs_err
        .map(|e| format!(",\"model\":{{\"mean_abs_err\":{e}}}"))
        .unwrap_or_default();
    format!(
        "{{\"runs\":[{{\"scale\":\"quick\",\"wall_seconds\":1.0,\
         \"store\":{{\"taps_per_sec\":{taps}}}{model}}}]}}"
    )
}

#[test]
fn model_error_regression_exits_1_and_absent_fragment_skips() {
    let dir = scratch("model");
    let base = dir.join("baseline.json");
    let cur = dir.join("current.json");
    // Committed model error 0.4 pp; the run under test ballooned to 2 pp
    // (+1.6 pp growth, beyond the default 0.5 pp gate) at equal speed.
    fs::write(&base, report_with_model(1000.0, Some(0.004))).unwrap();
    fs::write(&cur, report_with_model(1000.0, Some(0.02))).unwrap();
    let args = |b: &PathBuf, c: &PathBuf| {
        vec![
            "--baseline".to_string(),
            b.to_str().unwrap().to_string(),
            "--current".to_string(),
            c.to_str().unwrap().to_string(),
        ]
    };
    let out = sentinel().args(args(&base, &cur)).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "model regression must exit 1");
    let verdict = verdict_of(&out);
    assert_eq!(word(&verdict, &["model", "verdict"]), Some("regression"));
    let growth = verdict.get("model").and_then(|m| m.get("growth_pp"));
    assert_eq!(growth, Some(&Json::Float(1.6)));

    // The same pair passes with a wider model gate.
    let out = sentinel()
        .args(args(&base, &cur))
        .args(["--model-threshold", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "wider model gate must pass");

    // A current report without a model fragment skips the dimension.
    fs::write(&cur, report_with_model(1000.0, None)).unwrap();
    let out = sentinel().args(args(&base, &cur)).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "missing fragment must skip");
    assert_eq!(
        verdict_of(&out).get("model"),
        Some(&Json::obj([("verdict", Json::Str("skipped".into()))])),
        "skip must be visible in the verdict"
    );

    // A baseline without model history arms the gate without failing.
    fs::write(&base, report_with_model(1000.0, None)).unwrap();
    fs::write(&cur, report_with_model(1000.0, Some(0.004))).unwrap();
    let out = sentinel().args(args(&base, &cur)).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "no model baseline must pass");
    assert_eq!(
        word(&verdict_of(&out), &["model", "verdict"]),
        Some("no-baseline")
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn records_with_and_without_stored_pass_fields_compare() {
    let dir = scratch("passes");
    let base = dir.join("baseline.json");
    let cur = dir.join("current.json");
    // A committed record from before stored passes against a run that
    // answered 84 configurations from them, and the other way round.
    let with = "{\"runs\":[{\"scale\":\"quick\",\"wall_seconds\":1.0,\"store\":\
                {\"taps_per_sec\":4000,\"l1_passes_reused\":84,\"pass_bytes\":27000000}}]}";
    for (b, c, said, silent) in [
        (report(&[2000.0]), with.to_string(), "current", "baseline"),
        (with.to_string(), report(&[3000.0]), "baseline", "current"),
    ] {
        fs::write(&base, b).unwrap();
        fs::write(&cur, c).unwrap();
        let out = sentinel()
            .args(["--baseline", base.to_str().unwrap()])
            .args(["--current", cur.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        // The verdict says which side reused passes, and only that side.
        let verdict = verdict_of(&out);
        let reused = |side: &str| verdict.get(side).unwrap().get("l1_passes_reused");
        assert_eq!(reused(said), Some(&Json::Num(84)));
        assert_eq!(reused(silent), None);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_2() {
    for args in [
        &["--threshold", "not-a-number"][..],
        &["--unknown-flag"][..],
        &["--baseline"][..],
    ] {
        let out = sentinel().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?} must exit 2");
    }
}
