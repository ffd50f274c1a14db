//! Holds `BENCHMARK.json`, the binary and the manifests together: a
//! tiny-scale run of every workload must emit exactly the metrics the
//! contract file names, with its units, and the release profile measured
//! here must be the one the product ships.

use mltc_oracle::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
}

fn contract() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// One of the contract's metric lists as `name -> (unit, better, bound)`.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, (String, String, Option<f64>)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            let bound = m.get("bound").and_then(Json::as_f64);
            (field("name"), (field("unit"), field("better"), bound))
        })
        .collect()
}

fn units(list: &BTreeMap<String, (String, String, Option<f64>)>) -> BTreeMap<String, String> {
    list.iter()
        .map(|(n, (unit, ..))| (n.clone(), unit.clone()))
        .collect()
}

fn names_ok(names: impl IntoIterator<Item = String>) {
    for n in names {
        let ok = !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "name {n:?} is outside [A-Za-z0-9_.-]+");
    }
}

/// Runs one tiny workload and returns `name -> unit` of what it emitted.
fn emitted(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_mltc-benchmark"))
        .args(["--workload", workload, "--scale", "tiny", "--seconds", "0"])
        .args(["--seed", "7", "--trace", trace])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line).expect("result line is JSON");
    let Json::Obj(top) = &doc else {
        panic!("result line is not an object")
    };
    assert_eq!(
        top.keys().map(String::as_str).collect::<Vec<_>>(),
        ["attempted", "correct", "failed", "metrics"]
    );
    assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
    assert!(doc.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_declared_metric_and_workload_is_emitted_and_no_other() {
    let doc = contract();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    names_ok(
        end_to_end
            .keys()
            .chain(per_layer.keys())
            .chain(&workloads)
            .cloned(),
    );
    assert!(end_to_end.contains_key("setup_s"));

    // The binary's own tables say the same, bounds and directions included.
    let described = Command::new(env!("CARGO_BIN_EXE_mltc-benchmark"))
        .arg("describe")
        .output()
        .expect("run the benchmark binary");
    let table = Json::parse(&String::from_utf8_lossy(&described.stdout)).expect("describe is JSON");
    assert_eq!(declared(&table, "end_to_end"), end_to_end);
    assert_eq!(declared(&table, "per_layer"), per_layer);
    let listed: Vec<&str> = table
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("describe lists the workloads")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(listed, workloads);
    let run_seconds = |d: &Json| d.get("run_seconds").and_then(Json::as_f64);
    assert_eq!(run_seconds(&table), run_seconds(&doc));

    for w in &workloads {
        assert_eq!(
            emitted(w, "0"),
            units(&end_to_end),
            "{w}: end-to-end metrics"
        );
        assert_eq!(emitted(w, "1"), units(&per_layer), "{w}: per-layer metrics");
    }
}

/// The `[profile.release]` table of a manifest, comments and blanks dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("read manifest");
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a release profile");
    assert_eq!(
        release_profile(&repo_root().join("benchmark/Cargo.toml")),
        root
    );
}
