//! The multi-pass report, the `compare` subcommand that judges two reports
//! against the bounds, and the golden digests.

use crate::metrics::{self, Better, Def, END_TO_END};
use crate::workloads::Kind;
use crate::{home, stats, Measured, DEFAULT_SEED};
use mltc_oracle::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn golden_path(kind: Kind) -> PathBuf {
    home().join("golden").join(format!("{}.json", kind.name()))
}

/// The committed digest of `kind`'s simulated statistics at the default
/// seed and quick scale.
pub fn golden_digest(kind: Kind) -> Option<u64> {
    let text = std::fs::read_to_string(golden_path(kind)).ok()?;
    let hex = Json::parse(&text)
        .ok()?
        .get("digest")?
        .as_str()?
        .to_string();
    u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok()
}

/// Rewrites `kind`'s golden file from this run (`--bless`). Only the digest
/// is compared; the statistics beside it say what the digest stands for.
pub fn write_golden(kind: Kind, seed: u64, m: &Measured) {
    let mut fields = vec![
        ("workload", Json::Str(kind.name().to_string())),
        ("seed", Json::Num(seed)),
        ("scale", Json::Str("quick".to_string())),
        ("digest", Json::Str(format!("{:#018x}", m.reps[0].digest.0))),
        ("taps", Json::Num(m.taps)),
    ];
    for (name, value) in metrics::end_to_end(m) {
        if metrics::def(name).is_some_and(|d| d.exact) {
            fields.push((name, Json::Float(value)));
        }
    }
    let path = golden_path(kind);
    std::fs::create_dir_all(path.parent().expect("golden/ has a parent")).expect("create golden/");
    std::fs::write(&path, obj(fields).render()).expect("write golden file");
    eprintln!("blessed {}", path.display());
}

/// `describe`: the workloads and both metric tables, in the shape
/// `BENCHMARK.json` lists them (`tests/smoke.rs` holds the two equal).
pub fn describe() -> Json {
    let defs = |table: &[Def]| {
        Json::Arr(
            table
                .iter()
                .map(|d| {
                    let mut fields = vec![
                        ("name", Json::Str(d.name.to_string())),
                        ("unit", Json::Str(d.unit.to_string())),
                        ("better", Json::Str(d.better.name().to_string())),
                    ];
                    fields.extend(d.bound.map(|b| ("bound", Json::Float(b))));
                    obj(fields)
                })
                .collect(),
        )
    };
    obj([
        (
            "workloads",
            Json::Arr(Kind::ALL.map(|k| Json::Str(k.name().to_string())).to_vec()),
        ),
        ("run_seconds", Json::Float(crate::RUN_SECONDS)),
        ("end_to_end", defs(&END_TO_END)),
        ("per_layer", defs(&metrics::PER_LAYER)),
    ])
}

/// One child run's last stdout line, parsed.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| {
        format!(
            "{}: no result line ({e}); stderr: {}",
            kind.name(),
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    let count = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("missing {k}"))
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (name, v) in m {
            let value = v.get("value").and_then(Json::as_f64);
            metrics.insert(name.clone(), value.ok_or(format!("{name} has no value"))?);
        }
    }
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// The headline of a metric over the passes: the median set-up, the
/// highest memory peak, the best timed figure. A simulated statistic is
/// the same in every pass.
fn headline(d: &Def, runs: &[f64]) -> f64 {
    match (d.name, d.better) {
        ("setup_s", _) => stats::quartiles(runs).1,
        ("peak_rss_mb", _) => stats::max(runs),
        (_, Better::Lower) => stats::min(runs),
        (_, Better::Higher) => stats::max(runs),
    }
}

fn metric_json(d: &Def, runs: &[f64]) -> Json {
    let (p25, median, p75) = stats::quartiles(runs);
    obj([
        ("unit", Json::Str(d.unit.to_string())),
        ("better", Json::Str(d.better.name().to_string())),
        ("value", Json::Float(headline(d, runs))),
        ("n", Json::Num(runs.len() as u64)),
        ("median", Json::Float(median)),
        ("p25", Json::Float(p25)),
        ("p75", Json::Float(p75)),
        (
            "runs",
            Json::Arr(runs.iter().map(|&x| Json::Float(x)).collect()),
        ),
    ])
}

/// `report`: round-robin passes over the workloads, one child process per
/// (pass, workload), then optionally one traced child per workload. Prints
/// every metric by name with its unit and writes the report JSON.
pub fn report(args: &[String]) -> Option<ExitCode> {
    let mut passes = 3usize;
    let mut seconds = crate::RUN_SECONDS;
    let mut seed = DEFAULT_SEED;
    let mut traced = false;
    let mut out = home().join("out").join("report.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--passes" => passes = it.next()?.parse().ok().filter(|&n| n > 0)?,
            "--seconds" => seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--seed" => seed = crate::parse_seed(it.next()?)?,
            "--traced" => traced = true,
            "--out" => out = PathBuf::from(it.next()?),
            _ => return None,
        }
    }

    let mut runs: BTreeMap<Kind, Vec<ChildResult>> = BTreeMap::new();
    let mut broken = false;
    for pass in 0..passes {
        for kind in Kind::ALL {
            eprintln!("pass {}/{passes}: {}", pass + 1, kind.name());
            match run_child(kind, seed, seconds, false) {
                Ok(r) => runs.entry(kind).or_default().push(r),
                Err(e) => {
                    eprintln!("{e}");
                    broken = true;
                }
            }
        }
    }
    let mut layers: BTreeMap<Kind, ChildResult> = BTreeMap::new();
    if traced {
        for kind in Kind::ALL {
            eprintln!("traced: {}", kind.name());
            match run_child(kind, seed, seconds, true) {
                Ok(r) => {
                    layers.insert(kind, r);
                }
                Err(e) => {
                    eprintln!("{e}");
                    broken = true;
                }
            }
        }
    }

    let mut workloads = BTreeMap::new();
    for kind in Kind::ALL {
        let Some(results) = runs.get(&kind) else {
            continue;
        };
        println!("\n== {} ==", kind.name());
        let attempted: u64 = results.iter().map(|r| r.attempted).sum();
        let failed: u64 = results.iter().map(|r| r.failed).sum();
        broken |= failed > 0;
        let failed_share = stats::ratio(failed as f64, attempted as f64);
        println!(
            "  {:<34} {:>16} ratio   ({failed} of {attempted})",
            "failed_share", failed_share
        );
        let mut e2e = BTreeMap::new();
        for d in &END_TO_END {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.get(d.name).copied())
                .collect();
            if values.is_empty() {
                continue;
            }
            let (p25, median, p75) = stats::quartiles(&values);
            println!(
                "  {:<34} {:>16.6} {:<13} n={} median {median:.6} p25 {p25:.6} p75 {p75:.6}",
                d.name,
                headline(d, &values),
                d.unit,
                values.len()
            );
            e2e.insert(d.name.to_string(), metric_json(d, &values));
        }
        let mut per_layer = BTreeMap::new();
        if let Some(l) = layers.get(&kind) {
            broken |= l.failed > 0;
            for d in &metrics::PER_LAYER {
                if let Some(&v) = l.metrics.get(d.name) {
                    println!("  {:<34} {v:>16.6} {}", d.name, d.unit);
                    per_layer.insert(
                        d.name.to_string(),
                        obj([
                            ("unit", Json::Str(d.unit.to_string())),
                            ("value", Json::Float(v)),
                        ]),
                    );
                }
            }
        }
        workloads.insert(
            kind.name().to_string(),
            obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("failed_share", Json::Float(failed_share)),
                ("end_to_end", Json::Obj(e2e)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        );
    }
    let doc = obj([
        ("schema", Json::Num(1)),
        ("seed", Json::Num(seed)),
        ("passes", Json::Num(passes as u64)),
        ("run_seconds", Json::Float(seconds)),
        ("threads", Json::Num(crate::JOBS as u64)),
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out, doc.render()) {
        Ok(()) => eprintln!("\nreport written to {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            broken = true;
        }
    }
    Some(if broken {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn runs_of(metric: &Json) -> Vec<f64> {
    metric
        .get("runs")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// How far `b` is worse than `a`, as a share of `a`, in the direction that
/// counts as worse for this metric (negative when `b` is better).
fn worse_by(d: &Def, a: f64, b: f64) -> f64 {
    let delta = match d.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

/// `compare a.json b.json`: judges report `b` against baseline `a`, one
/// row per workload and end-to-end metric. A simulated statistic must be
/// equal. A timed metric whose headline is worse by more than its bound
/// has `regressed`; within the bound it is `unchanged` only when the
/// run-to-run spread of both sides is within the bound too — otherwise it
/// is `unresolved`, unless every run of `b` beats every run of `a`
/// (`improved`). Exits non-zero on any `DIFFERENT`, `regressed` or failed
/// operation.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    if a.get("seed") != b.get("seed") {
        eprintln!("the reports were taken at different seeds; their statistics cannot be compared");
        return ExitCode::from(2);
    }
    let mut bad = 0;
    println!(
        "{:<16} {:<22} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "a", "b", "worse by"
    );
    for kind in Kind::ALL {
        let side = |doc: &Json| doc.get("workloads")?.get(kind.name()).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{:<16} missing from one report", kind.name());
            bad += 1;
            continue;
        };
        for (label, w) in [("a", &wa), ("b", &wb)] {
            let failed = w.get("failed").and_then(Json::as_u64).unwrap_or(1);
            if failed > 0 {
                println!("{:<16} {failed} failed operations in {label}", kind.name());
                bad += 1;
            }
        }
        for d in &END_TO_END {
            let get = |w: &Json| w.get("end_to_end")?.get(d.name).cloned();
            let (Some(ma), Some(mb)) = (get(&wa), get(&wb)) else {
                println!("{:<16} {:<22} missing from one report", kind.name(), d.name);
                bad += 1;
                continue;
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (value(&ma), value(&mb));
            let (ra, rb) = (runs_of(&ma), runs_of(&mb));
            let worse = worse_by(d, va, vb);
            let bound = d.bound.unwrap_or(0.0);
            let verdict = if d.exact {
                if ra == rb && ra.iter().all(|&x| x == va) {
                    "identical"
                } else {
                    bad += 1;
                    "DIFFERENT"
                }
            } else {
                let b_always_better = !ra.is_empty()
                    && !rb.is_empty()
                    && match d.better {
                        Better::Lower => stats::max(&rb) < stats::min(&ra),
                        Better::Higher => stats::min(&rb) > stats::max(&ra),
                    };
                if b_always_better {
                    "improved"
                } else if worse > bound {
                    bad += 1;
                    "regressed"
                } else if stats::spread(&ra).max(stats::spread(&rb)) > bound {
                    "unresolved"
                } else {
                    "unchanged"
                }
            };
            println!(
                "{:<16} {:<22} {va:>16.6} {vb:>16.6} {:>8.2}%  {verdict}",
                kind.name(),
                d.name,
                worse * 100.0
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{bad} rows fail");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = &END_TO_END[2];
        let higher = &END_TO_END[1];
        assert_eq!(
            (lower.better, higher.better),
            (Better::Lower, Better::Higher)
        );
        assert!((worse_by(lower, 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worse_by(higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worse_by(higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn headline_is_best_timed_median_setup_peak_memory() {
        let runs = [3.0, 1.0, 2.0];
        assert_eq!(headline(&END_TO_END[0], &runs), 2.0);
        assert_eq!(headline(&END_TO_END[1], &runs), 3.0);
        assert_eq!(headline(&END_TO_END[2], &runs), 1.0);
        assert_eq!(headline(&END_TO_END[3], &runs), 3.0);
    }
}
