//! Negative-path CLI tests for `bench-sentinel`: the exit-code contract
//! CI relies on. A malformed current report must exit 2 (the run under
//! test stopped producing bench records), a missing baseline must exit 0
//! (new branches only warn), and a genuine throughput regression must
//! exit 1.

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
    let cur = dir.join("current.json");
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
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("\"verdict\":\"error\""),
            "verdict must be error, got {stdout}"
        );
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
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"verdict\":\"no-baseline\""),
        "verdict must flag the missing baseline, got {stdout}"
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
    let written = fs::read_to_string(&verdict).unwrap();
    assert!(
        written.contains("\"verdict\":\"regression\""),
        "verdict file must record the regression, got {written}"
    );
    assert!(written.contains("\"delta_pct\":-75.0"), "got {written}");

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
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"model\":{\"verdict\":\"regression\""),
        "model dimension must flag the regression, got {stdout}"
    );

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
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"model\":{\"verdict\":\"skipped\"}"),
        "skip must be visible in the verdict, got {stdout}"
    );

    // A baseline without model history arms the gate without failing.
    fs::write(&base, report_with_model(1000.0, None)).unwrap();
    fs::write(&cur, report_with_model(1000.0, Some(0.004))).unwrap();
    let out = sentinel().args(args(&base, &cur)).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "no model baseline must pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"model\":{\"verdict\":\"no-baseline\""),
        "got {stdout}"
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
    for (b, c, said) in [
        (report(&[2000.0]), with.to_string(), "\"current\":{"),
        (with.to_string(), report(&[3000.0]), "\"baseline\":{"),
    ] {
        fs::write(&base, b).unwrap();
        fs::write(&cur, c).unwrap();
        let out = sentinel()
            .args(["--baseline", base.to_str().unwrap()])
            .args(["--current", cur.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The verdict says which side reused passes, and only that side.
        assert_eq!(stdout.matches("\"l1_passes_reused\":84").count(), 1);
        let side = &stdout[stdout.find(said).expect("side present")..];
        assert!(
            side[..side.find('}').unwrap()].contains("\"l1_passes_reused\":84"),
            "got {stdout}"
        );
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
