//! CI regression sentinel over `BENCH_experiments.json`.
//!
//! Compares the *last* run of a fresh bench report (the CI run that just
//! finished) against the *best committed* run by `taps_per_sec` (a
//! committed run that happened to be noisy must not mask a regression)
//! and emits one structured verdict object CI can log and archive.
//!
//! ```text
//! bench-sentinel --baseline BENCH_experiments.json \
//!                --current ci-results/BENCH_experiments.json \
//!                [--threshold -50] [--model-threshold 0.5] [--out verdict.json]
//! ```
//!
//! CI runners and the baseline box differ in hardware, so the default
//! threshold is wide (-50%): the gate exists to catch order-of-magnitude
//! mistakes (losing the wide replay kernel costs roughly -73%), not
//! single-digit noise.
//!
//! The verdict has a second, hardware-independent dimension: the
//! analytic model's accuracy. Runs that include the `explore`
//! experiment carry a `model` object with the mean absolute hit-rate
//! error over the replayed conformance matrix. The run under test
//! fails when its error exceeds the *best committed* model error by
//! more than `--model-threshold` percentage points (default 0.5 pp —
//! the model is exact on fault-free configurations, so any real growth
//! means a capture or evaluator bug, not noise). Reports without a
//! model fragment on either side only warn: the gate arms itself once
//! accuracy numbers are committed.
//!
//! Exit codes: `0` pass or no usable baseline (cold caches on new
//! branches only warn), `1` regression beyond the threshold, `2` a
//! malformed current report or bad usage — CI must notice when the run
//! under test stopped producing bench records at all.

use mltc_telemetry::Json;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-sentinel [--baseline <file>] [--current <file>] \
         [--threshold <pct>] [--out <file>]\n\
         \n\
         --baseline   committed bench report; best run by taps_per_sec\n\
         \x20            (default BENCH_experiments.json)\n\
         --current    fresh bench report; last run is the run under test\n\
         \x20            (default ci-results/BENCH_experiments.json)\n\
         --threshold  fail below this percent delta (default -50)\n\
         --model-threshold  fail when the model's mean absolute hit-rate\n\
         \x20            error grows more than this many percentage points\n\
         \x20            over the best committed run (default 0.5)\n\
         --out        also write the verdict JSON to a file"
    );
    ExitCode::from(2)
}

/// One run's numbers, as the verdict reports them.
struct Run {
    taps_per_sec: f64,
    wall_seconds: f64,
    scale: String,
    /// Mean absolute hit-rate error (fraction) from the run's `model`
    /// fragment, when the run included the `explore` experiment.
    model_err: Option<f64>,
    /// Configurations the run answered from stored L1 passes, in records
    /// that say (DESIGN.md §14): `taps_per_sec` counts taps answered, so a
    /// run that reuses passes outruns one that does not on the same code.
    passes_reused: Option<f64>,
}

impl Run {
    fn json(&self) -> Json {
        let mut fields = vec![
            ("taps_per_sec", Json::fixed(self.taps_per_sec, 0)),
            ("wall_seconds", Json::fixed(self.wall_seconds, 3)),
            ("scale", Json::Str(self.scale.clone())),
        ];
        let reused = self.passes_reused.map(|n| Json::fixed(n, 0));
        fields.extend(reused.map(|n| ("l1_passes_reused", n)));
        let model_err = self.model_err.map(|e| Json::fixed(e, 6));
        fields.extend(model_err.map(|e| ("model_mean_abs_err", e)));
        Json::obj(fields)
    }
}

/// A verdict's (or one of its fragments') `"verdict"` field.
fn verdict(word: &str) -> (&'static str, Json) {
    ("verdict", Json::Str(word.to_string()))
}

/// Parses every run of one bench report. Any shape problem is reported as
/// a string so the caller decides whether it is fatal (current) or only a
/// warning (baseline).
fn parse_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    let mut out = Vec::with_capacity(runs.len());
    for (i, r) in runs.iter().enumerate() {
        let store = r.get("store");
        let taps = store
            .and_then(|s| s.get("taps_per_sec"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: run {i} has no store.taps_per_sec"))?;
        out.push(Run {
            taps_per_sec: taps,
            wall_seconds: r.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            scale: r
                .get("scale")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            model_err: r
                .get("model")
                .and_then(|m| m.get("mean_abs_err"))
                .and_then(Json::as_f64),
            passes_reused: store
                .and_then(|s| s.get("l1_passes_reused"))
                .and_then(Json::as_f64),
        });
    }
    if out.is_empty() {
        return Err(format!("{path}: empty \"runs\" array"));
    }
    Ok(out)
}

/// Prints the verdict object as one line and, with `--out`, writes the same
/// line to a file.
fn emit(verdict: Json, out: Option<&str>) {
    let line = verdict.render_compact();
    println!("{line}");
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("bench-sentinel: writing {path}: {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline = "BENCH_experiments.json".to_string();
    let mut current = "ci-results/BENCH_experiments.json".to_string();
    let mut threshold = -50.0f64;
    let mut model_threshold = 0.5f64;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--baseline" => match val("--baseline") {
                Ok(v) => baseline = v,
                Err(e) => return err_usage(&e),
            },
            "--current" => match val("--current") {
                Ok(v) => current = v,
                Err(e) => return err_usage(&e),
            },
            "--threshold" => match val("--threshold").map(|v| v.parse::<f64>()) {
                Ok(Ok(v)) => threshold = v,
                _ => return err_usage("--threshold needs a number"),
            },
            "--model-threshold" => match val("--model-threshold").map(|v| v.parse::<f64>()) {
                Ok(Ok(v)) => model_threshold = v,
                _ => return err_usage("--model-threshold needs a number"),
            },
            "--out" => match val("--out") {
                Ok(v) => out = Some(v),
                Err(e) => return err_usage(&e),
            },
            "--help" | "-h" => return usage(),
            other => return err_usage(&format!("unknown argument {other}")),
        }
    }

    // The run under test must parse; a broken current report is a CI
    // failure in its own right.
    let cur = match parse_runs(&current) {
        Ok(mut runs) => runs.pop().expect("parse_runs rejects empty"),
        Err(e) => {
            emit(
                Json::obj([verdict("error"), ("reason", Json::Str(e))]),
                out.as_deref(),
            );
            return ExitCode::from(2);
        }
    };
    // A missing baseline only warns: new branches start with cold caches
    // and no committed history.
    let base_runs = match parse_runs(&baseline) {
        Ok(runs) => runs,
        Err(e) => {
            emit(
                Json::obj([
                    verdict("no-baseline"),
                    ("reason", Json::Str(e)),
                    ("current", cur.json()),
                ]),
                out.as_deref(),
            );
            return ExitCode::SUCCESS;
        }
    };
    // Best committed baseline per dimension: fastest run for throughput,
    // most accurate model fragment for model error.
    let base_model_err = base_runs
        .iter()
        .filter_map(|r| r.model_err)
        .min_by(f64::total_cmp);
    let base = base_runs
        .into_iter()
        .max_by(|a, b| a.taps_per_sec.total_cmp(&b.taps_per_sec))
        .expect("parse_runs rejects empty");

    let delta = if base.taps_per_sec > 0.0 {
        100.0 * (cur.taps_per_sec - base.taps_per_sec) / base.taps_per_sec
    } else {
        0.0
    };
    let pass = delta >= threshold;
    // Second dimension: model accuracy. Growth is measured in percentage
    // points of mean absolute hit-rate error against the most accurate
    // committed run; a missing fragment on either side only warns.
    let (model_verdict, model_json) = match (cur.model_err, base_model_err) {
        (Some(c), Some(b)) => {
            let growth_pp = (c - b) * 100.0;
            let ok = growth_pp <= model_threshold;
            (
                ok,
                Json::obj([
                    verdict(if ok { "pass" } else { "regression" }),
                    ("mean_abs_err", Json::fixed(c, 6)),
                    ("baseline_err", Json::fixed(b, 6)),
                    ("growth_pp", Json::fixed(growth_pp, 3)),
                    ("threshold_pp", Json::fixed(model_threshold, 3)),
                ]),
            )
        }
        (Some(c), None) => (
            true,
            Json::obj([verdict("no-baseline"), ("mean_abs_err", Json::fixed(c, 6))]),
        ),
        (None, _) => {
            eprintln!("bench-sentinel: current run carries no model fragment (explore not run)");
            (true, Json::obj([verdict("skipped")]))
        }
    };
    emit(
        Json::obj([
            verdict(if pass && model_verdict {
                "pass"
            } else {
                "regression"
            }),
            ("delta_pct", Json::fixed(delta, 1)),
            ("threshold_pct", Json::fixed(threshold, 1)),
            ("baseline", base.json()),
            ("current", cur.json()),
            ("model", model_json),
        ]),
        out.as_deref(),
    );
    if !pass {
        eprintln!(
            "bench-sentinel: replay throughput regressed {delta:.1}% \
             (gate: fail below {threshold:.1}%) vs best committed baseline"
        );
    }
    if !model_verdict {
        eprintln!(
            "bench-sentinel: analytic model error regressed more than \
             {model_threshold:.3} pp vs best committed baseline"
        );
    }
    if pass && model_verdict {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn err_usage(msg: &str) -> ExitCode {
    eprintln!("bench-sentinel: {msg}");
    usage()
}
