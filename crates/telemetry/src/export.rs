//! Exporters: JSONL / CSV time series, histogram summaries as a JSON
//! fragment for `BENCH_experiments.json`, and Chrome trace-event files.
//! [`export_dir`] writes them all from one snapshot, with the summary's
//! Prometheus text exposition (`summary.prom`) beside it: the workspace's
//! only metrics export.
//!
//! Every JSON document is a [`Json`] value (the workspace carries no
//! serde) rendered by the one writer in [`crate::json`], so the output is
//! loadable by any JSON parser — the workspace's own included — and by
//! `chrome://tracing` / Perfetto for the span file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::hist::HistSnapshot;
use crate::recorder::{SeriesSnapshot, TelemetrySnapshot};
use crate::span::chrome_trace_json;
use crate::Json;

/// Writes one JSON object per row: series label, row sequence number, then
/// each column. One physical line per row (JSONL).
pub fn write_series_jsonl(series: &[SeriesSnapshot], out: &mut impl Write) -> io::Result<()> {
    for s in series {
        for (seq, row) in s.rows.iter().enumerate() {
            let head = [
                ("series".to_string(), Json::Str(s.label.clone())),
                ("seq".to_string(), Json::Num(seq as u64)),
            ];
            let cells = row.iter().map(|&v| Json::Num(v));
            let line = Json::obj(head.into_iter().chain(s.columns.iter().cloned().zip(cells)));
            writeln!(out, "{}", line.render_compact())?;
        }
    }
    Ok(())
}

/// Writes all series as one CSV: `series,seq,<union of columns>`, blank
/// cells where a series lacks a column.
pub fn write_series_csv(series: &[SeriesSnapshot], out: &mut impl Write) -> io::Result<()> {
    let mut columns: Vec<&str> = Vec::new();
    for s in series {
        for c in &s.columns {
            if !columns.contains(&c.as_str()) {
                columns.push(c);
            }
        }
    }
    write!(out, "series,seq")?;
    for c in &columns {
        write!(out, ",{}", csv_field(c))?;
    }
    writeln!(out)?;
    for s in series {
        for (seq, row) in s.rows.iter().enumerate() {
            write!(out, "{},{}", csv_field(&s.label), seq)?;
            for c in &columns {
                match s.columns.iter().position(|sc| sc == c) {
                    Some(i) => write!(out, ",{}", row[i])?,
                    None => write!(out, ",")?,
                }
            }
            writeln!(out)?;
        }
    }
    Ok(())
}

/// Writes a single-series CSV with just that series' columns — the shape
/// `tracetool stats --per-frame` emits.
pub fn write_single_series_csv(series: &SeriesSnapshot, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{}",
        series
            .columns
            .iter()
            .map(|c| csv_field(c))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in &series.rows {
        writeln!(
            out,
            "{}",
            row.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )?;
    }
    Ok(())
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Counter values, histogram summaries (count/mean/min/max and
/// p50/p90/p99), gauges and heat maps as one JSON object — the fragment
/// the experiments binary puts into each `BENCH_experiments.json` run
/// record, and the body of `summary.json`.
pub fn summaries_json(snap: &TelemetrySnapshot) -> Json {
    fn by_name<T>(map: &BTreeMap<String, T>, value: impl Fn(&T) -> Json) -> Json {
        Json::obj(map.iter().map(|(name, v)| (name.clone(), value(v))))
    }
    let hist = |h: &HistSnapshot| {
        let h = HistSummary::of(h);
        Json::obj([
            ("count", Json::Num(h.count)),
            ("mean", Json::fixed(h.mean, 3)),
            ("min", Json::Num(h.min)),
            ("max", Json::Num(h.max)),
            ("p50", Json::Num(h.p50)),
            ("p90", Json::Num(h.p90)),
            ("p99", Json::Num(h.p99)),
        ])
    };
    let bins = |b: &Vec<u64>| Json::Arr(b.iter().map(|&n| Json::Num(n)).collect());
    Json::obj([
        ("counters", by_name(&snap.counters, |&v| Json::Num(v))),
        ("histograms", by_name(&snap.hists, hist)),
        ("gauges", by_name(&snap.gauges, |&v| Json::fixed(v, 6))),
        ("heatmaps", by_name(&snap.heatmaps, bins)),
        ("spans", Json::Num(snap.spans.len() as u64)),
        ("dropped_spans", Json::Num(snap.dropped_spans)),
    ])
}

/// One histogram's summary statistics: all `summary.json` and
/// `summary.prom` keep of it (full bucket arrays are not persisted).
struct HistSummary {
    count: u64,
    mean: f64,
    /// Smallest sample (0 when empty).
    min: u64,
    max: u64,
    /// Percentiles at bucket resolution.
    p50: u64,
    p90: u64,
    p99: u64,
}

impl HistSummary {
    fn of(h: &HistSnapshot) -> Self {
        Self {
            count: h.count,
            mean: h.mean(),
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
        }
    }
}

/// The snapshot as Prometheus text exposition format (version 0.0.4), the
/// body of `summary.prom`. Recorder names contain `/`, which is illegal
/// in a metric name, so every sample is emitted under a fixed family with
/// the recorder name carried as a `name` label value (heat maps add a
/// `bin` label; histogram summaries a `stat` label).
fn prom_exposition(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP mltc_counter Monotonic counter from the mltc recorder.\n");
    out.push_str("# TYPE mltc_counter counter\n");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "mltc_counter{{name={}}} {v}", prom_label(name));
    }
    out.push_str("# HELP mltc_gauge Last-write-wins gauge from the mltc recorder.\n");
    out.push_str("# TYPE mltc_gauge gauge\n");
    for (name, v) in &snap.gauges {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = writeln!(out, "mltc_gauge{{name={}}} {v}", prom_label(name));
    }
    out.push_str(
        "# HELP mltc_histogram Histogram summary statistic (count/mean/min/max/p50/p90/p99).\n",
    );
    out.push_str("# TYPE mltc_histogram gauge\n");
    for (name, h) in &snap.hists {
        let n = prom_label(name);
        let h = HistSummary::of(h);
        let stats: [(&str, f64); 7] = [
            ("count", h.count as f64),
            ("mean", h.mean),
            ("min", h.min as f64),
            ("max", h.max as f64),
            ("p50", h.p50 as f64),
            ("p90", h.p90 as f64),
            ("p99", h.p99 as f64),
        ];
        for (stat, v) in stats {
            let _ = writeln!(out, "mltc_histogram{{name={n},stat=\"{stat}\"}} {v}");
        }
    }
    out.push_str("# HELP mltc_heatmap Per-bin heat-map count from the mltc recorder.\n");
    out.push_str("# TYPE mltc_heatmap counter\n");
    for (name, bins) in &snap.heatmaps {
        let n = prom_label(name);
        for (bin, v) in bins.iter().enumerate() {
            let _ = writeln!(out, "mltc_heatmap{{name={n},bin=\"{bin}\"}} {v}");
        }
    }
    out
}

/// A Prometheus label value: double-quoted with `\\`, `\"` and `\n`
/// escaped (the exposition format's only escapes).
fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes every heat map as one long-format CSV: `heatmap,bin,count` —
/// the shape the multi-client experiment drops next to `multiclient.csv`
/// for plotting per-set pressure.
pub fn write_heatmaps_csv(
    heatmaps: &BTreeMap<String, Vec<u64>>,
    out: &mut impl Write,
) -> io::Result<()> {
    writeln!(out, "heatmap,bin,count")?;
    for (name, bins) in heatmaps {
        for (bin, v) in bins.iter().enumerate() {
            writeln!(out, "{},{bin},{v}", csv_field(name))?;
        }
    }
    Ok(())
}

/// Writes the full snapshot into `dir`: `metrics.jsonl`, `metrics.csv`,
/// `summary.json` (counters + histogram percentiles + gauges + heat
/// maps), `summary.prom` (Prometheus text exposition), `heatmaps.csv`,
/// and `trace_events.json`. Creates the directory if needed.
pub fn export_dir(snap: &TelemetrySnapshot, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let mut jsonl = io::BufWriter::new(fs::File::create(dir.join("metrics.jsonl"))?);
    write_series_jsonl(&snap.series, &mut jsonl)?;
    jsonl.flush()?;
    let mut csv = io::BufWriter::new(fs::File::create(dir.join("metrics.csv"))?);
    write_series_csv(&snap.series, &mut csv)?;
    csv.flush()?;
    fs::write(dir.join("summary.json"), summaries_json(snap).render())?;
    fs::write(dir.join("summary.prom"), prom_exposition(snap))?;
    let mut heat = io::BufWriter::new(fs::File::create(dir.join("heatmaps.csv"))?);
    write_heatmaps_csv(&snap.heatmaps, &mut heat)?;
    heat.flush()?;
    // One line: the ring holds up to 65 536 events and only tools read it.
    fs::write(
        dir.join("trace_events.json"),
        chrome_trace_json(&snap.spans).render_compact(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn sample_snapshot() -> TelemetrySnapshot {
        let rec = Recorder::enabled();
        rec.counter("renders").add(2);
        let h = rec.histogram("lat");
        h.record(0);
        h.record(1);
        h.record(300);
        let s = rec.series("runA", &["frame", "hits"]);
        s.push_row(&[0, 10]);
        s.push_row(&[1, 12]);
        let t = rec.series("runB", &["frame", "misses"]);
        t.push_row(&[0, 3]);
        rec.gauge("c0/miss_rate").set(0.125);
        let m = rec.heatmap("c0/l1/sets", 3);
        m.record(0);
        m.record(2);
        m.record(2);
        rec.span("work").end();
        rec.snapshot()
    }

    #[test]
    fn jsonl_is_one_object_per_row() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_series_jsonl(&snap.series, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rows: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get("series").and_then(Json::as_str), Some("runA"));
        assert_eq!(rows[0].get("seq").and_then(Json::as_u64), Some(0));
        assert_eq!(rows[0].get("hits").and_then(Json::as_u64), Some(10));
        assert_eq!(rows[2].get("misses").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn csv_unions_columns_with_blanks() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_series_csv(&snap.series, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "series,seq,frame,hits,misses");
        assert_eq!(lines[1], "runA,0,0,10,");
        assert_eq!(lines[3], "runB,0,0,,3");
    }

    #[test]
    fn single_series_csv_has_plain_header() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_single_series_csv(&snap.series[0], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().next().unwrap(), "frame,hits");
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn summaries_json_carries_percentiles() {
        let snap = sample_snapshot();
        let json = Json::parse(&summaries_json(&snap).render()).unwrap();
        let at = |path: &[&str]| path.iter().fold(&json, |j, k| j.get(k).unwrap());
        assert_eq!(at(&["counters"]), &Json::obj([("renders", Json::Num(2))]));
        assert_eq!(at(&["histograms", "lat", "count"]).as_u64(), Some(3));
        assert_eq!(at(&["histograms", "lat", "p50"]).as_u64(), Some(1));
        assert_eq!(at(&["spans"]).as_u64(), Some(1));
        assert_eq!(at(&["gauges", "c0/miss_rate"]).as_f64(), Some(0.125));
        let bins = Json::Arr([1, 0, 2].map(Json::Num).to_vec());
        assert_eq!(at(&["heatmaps", "c0/l1/sets"]), &bins);
    }

    #[test]
    fn prometheus_exposition_is_labelled_and_typed() {
        let snap = sample_snapshot();
        let text = prom_exposition(&snap);
        assert!(text.contains("# TYPE mltc_counter counter\n"));
        assert!(text.contains("mltc_counter{name=\"renders\"} 2\n"));
        assert!(text.contains("mltc_gauge{name=\"c0/miss_rate\"} 0.125\n"));
        assert!(text.contains("mltc_histogram{name=\"lat\",stat=\"count\"} 3\n"));
        assert!(text.contains("mltc_histogram{name=\"lat\",stat=\"p99\"} "));
        assert!(text.contains("mltc_heatmap{name=\"c0/l1/sets\",bin=\"2\"} 2\n"));
        // Every non-comment line is `family{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.starts_with("mltc_"), "{line}");
            let (_, value) = line.rsplit_once(' ').expect("has a value");
            value.parse::<f64>().unwrap_or_else(|_| panic!("{line}"));
        }
    }

    #[test]
    fn prom_label_escapes_quotes_and_backslashes() {
        assert_eq!(prom_label("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn heatmap_csv_is_long_format() {
        let snap = sample_snapshot();
        let mut buf = Vec::new();
        write_heatmaps_csv(&snap.heatmaps, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "heatmap,bin,count");
        assert_eq!(lines[1], "c0/l1/sets,0,1");
        assert_eq!(lines[3], "c0/l1/sets,2,2");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn export_dir_writes_all_four_files() {
        let dir = std::env::temp_dir().join(format!("mltc_tel_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let snap = sample_snapshot();
        export_dir(&snap, &dir).unwrap();
        for f in [
            "metrics.jsonl",
            "metrics.csv",
            "summary.json",
            "summary.prom",
            "heatmaps.csv",
            "trace_events.json",
        ] {
            assert!(dir.join(f).is_file(), "{f} missing");
        }
        let trace = std::fs::read_to_string(dir.join("trace_events.json")).unwrap();
        assert!(Json::parse(&trace).unwrap().get("traceEvents").is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
