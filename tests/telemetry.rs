//! Cross-crate telemetry guarantees: the JSONL export is a faithful view
//! of what the engine reports, and a detached recorder costs (next to)
//! nothing on the texel path.

use mltc::cache::ClockStats;
use mltc::core::{
    AdmissionControl, ClientEngine, DegradeTier, EngineConfig, EngineError, FaultPlan,
    FrameCounters, FramePrep, L1Config, L2Config, LatencyModel, PreparedFrame, ServiceConfig,
    ServiceError, SimEngine, TelemetryOpts, TextureService, FRAME_SERIES_COLUMNS,
};
use mltc::raster::FilterMode;
use mltc::scene::{TraceKey, Workload, WorkloadParams};
use mltc::telemetry::{export, Json, Recorder, TelemetrySnapshot};
use mltc::texture::TextureId;
use mltc::trace::codec::TraceFileReader;
use mltc::trace::{filter_taps, FrameTrace};

fn tiny_village() -> Workload {
    Workload::village(&WorkloadParams::tiny())
}

fn cfg() -> EngineConfig {
    EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config::mb(2)),
        ..EngineConfig::default()
    }
}

fn run_animation(engine: &mut SimEngine, w: &Workload, filter: FilterMode) {
    for i in 0..w.frame_count {
        let trace = w.trace_frame(i, filter);
        engine.run_frame(&trace);
    }
}

/// An integer column of one parsed JSONL row.
fn field(row: &Json, key: &str) -> Option<u64> {
    row.get(key)?.as_u64()
}

/// Golden round-trip: export the per-frame series as JSONL, parse it back,
/// and check the column sums equal the totals the engine itself reports.
#[test]
fn jsonl_export_round_trips_engine_totals() {
    let w = tiny_village();
    let rec = Recorder::enabled();
    let mut engine = SimEngine::new(cfg(), w.scene().registry());
    engine.attach_telemetry(&rec, "golden-run", "village");
    run_animation(&mut engine, &w, FilterMode::Bilinear);
    let totals = engine.totals();

    let snap = rec.snapshot();
    let mut jsonl = Vec::new();
    export::write_series_jsonl(&snap.series, &mut jsonl).unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();

    let rows: Vec<Json> = jsonl
        .lines()
        .map(|l| Json::parse(l).expect("every line is one JSON object"))
        .filter(|row| row.get("series").and_then(Json::as_str) == Some("golden-run"))
        .collect();
    assert_eq!(rows.len(), w.frame_count as usize, "one line per frame");

    let sum = |key: &str| -> u64 {
        rows.iter()
            .map(|l| field(l, key).unwrap_or_else(|| panic!("no {key} in {l:?}")))
            .sum()
    };
    assert_eq!(sum("l1_accesses"), totals.l1_accesses);
    assert_eq!(sum("l1_hits"), totals.l1_hits);
    assert_eq!(sum("l2_full_hits"), totals.l2_full_hits);
    assert_eq!(sum("l2_partial_hits"), totals.l2_partial_hits);
    assert_eq!(sum("l2_full_misses"), totals.l2_full_misses);
    assert_eq!(sum("host_bytes"), totals.host_bytes);
    assert_eq!(sum("l2_local_bytes"), totals.l2_local_bytes);
    // Frame numbers come through in order, and every declared column is
    // present on every line.
    for (i, line) in rows.iter().enumerate() {
        assert_eq!(field(line, "frame"), Some(i as u64));
        for col in FRAME_SERIES_COLUMNS {
            assert!(field(line, col).is_some(), "line {i} lacks {col}");
        }
    }
}

/// The CSV exporter agrees with the JSONL exporter on the same snapshot.
#[test]
fn csv_export_matches_engine_row_count() {
    let w = tiny_village();
    let rec = Recorder::enabled();
    let mut engine = SimEngine::new(cfg(), w.scene().registry());
    engine.attach_telemetry(&rec, "csv-run", "village");
    run_animation(&mut engine, &w, FilterMode::Bilinear);

    let snap = rec.snapshot();
    let mut csv = Vec::new();
    export::write_series_csv(&snap.series, &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let data_rows = csv.lines().skip(1).filter(|l| !l.is_empty()).count();
    assert_eq!(data_rows, w.frame_count as usize);
    let header = csv.lines().next().unwrap();
    for col in FRAME_SERIES_COLUMNS {
        assert!(header.contains(col), "CSV header lacks {col}");
    }
}

/// The overhead contract, as an assertion: a detached engine and one whose
/// attach was refused by a disabled recorder run the same code, produce
/// bit-identical counters, and stay within a (very generous) factor of
/// each other in wall time. A real regression here — say an unconditional
/// format! or lock on the texel path — blows past 4x immediately.
#[test]
fn disabled_recorder_costs_nothing_measurable() {
    let w = tiny_village();
    let filter = FilterMode::Bilinear;
    // Warm up: render all traces once so timing measures simulation only.
    let traces: Vec<_> = (0..w.frame_count)
        .map(|i| w.trace_frame(i, filter))
        .collect();

    let mut plain = SimEngine::new(cfg(), w.scene().registry());
    let t0 = std::time::Instant::now();
    for t in &traces {
        plain.run_frame(t);
    }
    let plain_time = t0.elapsed();

    let disabled = Recorder::disabled();
    let mut gated = SimEngine::new(cfg(), w.scene().registry());
    gated.attach_telemetry(&disabled, "unused", "village");
    assert!(
        !gated.telemetry_attached(),
        "a disabled recorder must refuse attachment"
    );
    let t1 = std::time::Instant::now();
    for t in &traces {
        gated.run_frame(t);
    }
    let gated_time = t1.elapsed();

    assert_eq!(plain.totals(), gated.totals(), "identical counters");
    assert_eq!(plain.frames(), gated.frames());
    assert!(
        gated_time < plain_time * 4 + std::time::Duration::from_millis(50),
        "disabled-telemetry run took {gated_time:?} vs {plain_time:?} plain"
    );
    // And the disabled recorder itself gathered nothing.
    let snap = disabled.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.series.is_empty());
    assert!(snap.spans.is_empty());
}

/// Counters are bit-identical whether telemetry observes the run or not —
/// the integration-level version of the core crate's equivalence test.
#[test]
fn enabled_recorder_only_observes() {
    let w = tiny_village();
    let mut plain = SimEngine::new(cfg(), w.scene().registry());
    run_animation(&mut plain, &w, FilterMode::Trilinear);

    let rec = Recorder::enabled();
    let mut observed = SimEngine::new(cfg(), w.scene().registry());
    observed.attach_telemetry(&rec, "observed", "village");
    run_animation(&mut observed, &w, FilterMode::Trilinear);

    assert_eq!(plain.totals(), observed.totals());
    assert_eq!(plain.frames(), observed.frames());
    let snap = rec.snapshot();
    assert_eq!(
        snap.counters["engine/village/l1_hits"],
        plain.totals().l1_hits
    );
}

/// Golden attribution equivalence: switching the 3C observability plane
/// on changes *nothing* the engine reports — every counter the recorder
/// already held, the per-frame series, and the engine's own totals are
/// bit-identical — while the attribution counters it adds partition the
/// misses exactly (conservation at both cache levels).
#[test]
fn attribution_only_adds_counters_never_perturbs() {
    let w = tiny_village();
    let rec_off = Recorder::enabled();
    let mut off = SimEngine::new(cfg(), w.scene().registry());
    off.attach_telemetry(&rec_off, "golden", "village");
    run_animation(&mut off, &w, FilterMode::Trilinear);

    let rec_on = Recorder::enabled();
    let mut on = SimEngine::new(cfg(), w.scene().registry());
    on.attach_telemetry_opts(
        &rec_on,
        "golden",
        "village",
        TelemetryOpts {
            attribution: true,
            ..TelemetryOpts::default()
        },
    );
    run_animation(&mut on, &w, FilterMode::Trilinear);

    assert_eq!(off.totals(), on.totals());
    assert_eq!(off.frames(), on.frames());
    let s_off = rec_off.snapshot();
    let s_on = rec_on.snapshot();
    // Every counter the attribution-off run recorded exists unchanged in
    // the attribution-on run; the extras are all under attrib/.
    for (name, v) in &s_off.counters {
        assert_eq!(s_on.counters.get(name), Some(v), "counter {name} changed");
    }
    for name in s_on.counters.keys() {
        assert!(
            s_off.counters.contains_key(name) || name.starts_with("attrib/"),
            "unexpected new counter {name}"
        );
    }
    assert_eq!(s_off.series, s_on.series, "per-frame series changed");
    assert_eq!(s_off.hists, s_on.hists, "histograms changed");

    // Conservation: the 3C classes partition the misses at both levels.
    let c = |n: &str| s_on.counters.get(n).copied().unwrap_or(0);
    let t = on.totals();
    assert_eq!(
        c("attrib/village/l1/compulsory")
            + c("attrib/village/l1/capacity")
            + c("attrib/village/l1/conflict"),
        t.l1_accesses - t.l1_hits,
        "L1 3C conservation"
    );
    assert_eq!(
        c("attrib/village/l2/compulsory")
            + c("attrib/village/l2/capacity")
            + c("attrib/village/l2/conflict"),
        t.l2_full_misses,
        "L2 3C conservation"
    );
    // Heat maps: every miss lands in exactly one bin.
    let l1_heat: u64 = s_on.heatmaps["attrib/village/l1/miss_bins"].iter().sum();
    assert_eq!(l1_heat, t.l1_accesses - t.l1_hits);
}

/// A hierarchy that exercises every recorded event: a TLB, an L2 small
/// enough for the clock to sweep, and a link that fails 2 of every 10
/// transfers.
fn busy_cfg() -> EngineConfig {
    EngineConfig {
        l2: Some(L2Config {
            size_bytes: 64 << 10,
            ..L2Config::mb(4)
        }),
        tlb_entries: 4,
        fault: FaultPlan {
            burst_period: 10,
            burst_len: 2,
            ..FaultPlan::with_rate(0x4d4c_5443, 50_000)
        },
        ..cfg()
    }
}

/// The link of [`busy_cfg`] on a pull engine: every L1 miss is a host
/// transfer, and a failed one drops its tap.
fn busy_pull_cfg() -> EngineConfig {
    EngineConfig {
        l2: None,
        tlb_entries: 0,
        ..busy_cfg()
    }
}

/// What the recorder must hold of an attributed engine under group `g`, in
/// either architecture, derived from the engine's own counters `t`, the
/// transfers admission `denied` and its L2's clock (when the caller can
/// see it) rather than from any recording.
fn assert_published(
    rec: &Recorder,
    t: &FrameCounters,
    denied: u64,
    clock: Option<ClockStats>,
    ctx: &str,
) {
    let s = rec.snapshot();
    let c = |n: &str| s.counters[&format!("engine/g/{n}")];
    let misses = t.l1_accesses - t.l1_hits;
    assert_eq!(c("l1_hits"), t.l1_hits, "{ctx}: l1_hits");
    assert_eq!(c("l1_misses"), misses, "{ctx}: l1_misses");
    assert_eq!(c("l2_full_hits"), t.l2_full_hits, "{ctx}: l2_full_hits");
    assert_eq!(c("l2_partial_hits"), t.l2_partial_hits, "{ctx}");
    assert_eq!(c("l2_full_misses"), t.l2_full_misses, "{ctx}");
    assert_eq!(c("tlb_hits"), t.tlb_hits, "{ctx}: tlb_hits");
    assert_eq!(c("tlb_misses"), t.tlb_accesses - t.tlb_hits, "{ctx}");
    // Every miss an L2 does not serve needs the host — all of them in the
    // pull architecture — and is delivered, failed or denied.
    assert_eq!(
        c("host_delivered") + c("host_failed") + denied,
        misses - t.l2_full_hits,
        "{ctx}: transfers"
    );
    assert_eq!(c("host_failed"), t.failed_transfers, "{ctx}: host_failed");
    assert_eq!(c("host_retries"), t.retries, "{ctx}: host_retries");
    assert_eq!(c("degraded_taps"), t.degraded_taps, "{ctx}");
    assert_eq!(c("dropped_taps"), t.dropped_taps, "{ctx}");
    let h = |n: &str| &s.hists[&format!("{n}/g")];
    assert_eq!(h("host_transfer_bytes").sum, t.host_bytes, "{ctx}: bytes");
    assert_eq!(
        h("l2_reuse_pages").count + c("l2_reuse_cold"),
        t.l2_accesses(),
        "{ctx}: one reuse distance per L2 access"
    );
    // Every rollback — a failed or a denied transfer — invalidates its L1
    // line, and a multi-level one tears down its L2 residency too.
    let a = |n: &str| s.counters[&format!("attrib/g/{n}")];
    let rollbacks = t.degraded_taps + t.dropped_taps;
    assert_eq!(a("l1/evict_invalidation"), rollbacks, "{ctx}: L1 rollbacks");
    let l2_rollbacks = if t.l2_accesses() > 0 { rollbacks } else { 0 };
    assert_eq!(a("l2/evict_fault"), l2_rollbacks, "{ctx}: L2 rollbacks");
    if let Some(clock) = clock {
        assert_eq!(
            h("clock_sweep_len").sum,
            clock.entries_examined,
            "{ctx}: sweeps"
        );
    }
    let classes = |level: &str| {
        ["compulsory", "capacity", "conflict"]
            .iter()
            .map(|n| s.counters[&format!("attrib/g/{level}/{n}")])
            .sum::<u64>()
    };
    assert_eq!(classes("l1"), misses, "{ctx}: L1 3C");
    assert_eq!(classes("l2"), t.l2_full_misses, "{ctx}: L2 3C");
    let heat: u64 = s.heatmaps["attrib/g/l1/miss_bins"].iter().sum();
    assert_eq!(heat, misses, "{ctx}: L1 miss heat");
}

/// The taps of `trace` under `filter`, as `(tid, m, u, v)`.
fn expand_taps(w: &Workload, trace: &FrameTrace, filter: FilterMode) -> Vec<(u32, u32, u32, u32)> {
    let mut taps = Vec::new();
    for req in &trace.requests {
        let p = w.registry().pyramid(req.tid).expect("live texture");
        let dims = |m: u32| (p.level(m as usize).width(), p.level(m as usize).height());
        for tap in &filter_taps(req, filter, p.level_count() as u32, dims) {
            taps.push((req.tid.index(), tap.m, tap.u, tap.v));
        }
    }
    taps
}

/// Recording is buffered and published when a replay call returns. After
/// every call of every public entry — per access, each frame loop, the
/// recording replay, a timed replay, a service client's frame —
/// in either architecture, the recorder holds everything the engine's own
/// counters imply, and an `UnknownTexture` error return publishes what the
/// frame did before it. A service client under a budget adds the one
/// rollback no link statistic shows: the transfer admission denied.
#[test]
fn every_replay_call_returns_with_its_counts_published() {
    let w = tiny_village();
    let reg = w.registry();
    let filter = FilterMode::Trilinear;
    let traces: Vec<FrameTrace> = (0..w.frame_count)
        .map(|i| w.trace_frame(i, filter))
        .collect();
    let attached_as = |cfg: EngineConfig, rec: &Recorder| {
        let mut e = SimEngine::new(cfg, reg);
        e.attach_telemetry_opts(rec, "run", "g", ATTRIBUTED);
        e
    };
    let attached = |rec: &Recorder| attached_as(busy_cfg(), rec);

    type Entry<'a> = Box<dyn Fn(&mut SimEngine, &FrameTrace) -> Result<(), EngineError> + 'a>;
    let entries: Vec<(&str, Entry)> = vec![
        ("scalar", Box::new(|e, t| e.try_run_frame_as(t, filter))),
        (
            "batched",
            Box::new(|e, t| e.try_run_frame_as_batched(t, filter)),
        ),
        (
            "traced",
            Box::new(|e, t| e.try_run_frame_as_traced(t, filter)),
        ),
        (
            "prepared",
            Box::new(|e, t| {
                let mut p = PreparedFrame::default();
                FramePrep::new(&e.config(), reg).prepare(
                    filter,
                    t.requests.iter().copied(),
                    &mut p,
                );
                e.try_run_frame_prepared(&p)
            }),
        ),
        (
            "recorded",
            Box::new(|e, t| {
                let mut pass = e.record_l1_pass(filter);
                e.try_run_frame_recorded_as(t, &mut pass)
            }),
        ),
        (
            "timed",
            Box::new(|e, t| {
                if !e.timing_attached() {
                    e.attach_timing(LatencyModel::default());
                }
                e.try_run_frame_as(t, filter)
            }),
        ),
    ];
    for (arch, cfg) in [("multi-level", busy_cfg()), ("pull", busy_pull_cfg())] {
        for (name, entry) in &entries {
            let rec = Recorder::enabled();
            let mut e = attached_as(cfg, &rec);
            for (i, t) in traces.iter().enumerate() {
                entry(&mut e, t).expect("frame names live textures");
                let clock = e.l2().map(|l2| l2.clock_stats());
                let ctx = format!("{arch} {name} frame {i}");
                assert_published(&rec, &e.totals(), 0, clock, &ctx);
            }
            assert!(
                e.totals().failed_transfers > 0,
                "{arch} {name}: the link must bite"
            );
            if let Some(l2) = e.l2() {
                assert!(l2.clock_stats().searches > 0, "{name}: sweeps");
            }
        }
    }

    // Per access: every call publishes its one tap.
    let rec = Recorder::enabled();
    let mut e = attached(&rec);
    for (i, &(tid, m, u, v)) in expand_taps(&w, &traces[0], filter).iter().enumerate() {
        e.access_texel(TextureId::from_index(tid), m, u, v);
        let s = rec.snapshot();
        let taps = s.counters["engine/g/l1_hits"] + s.counters["engine/g/l1_misses"];
        assert_eq!(taps, i as u64 + 1, "access {i}");
    }
    e.end_frame();
    let clock = e.l2().map(|l2| l2.clock_stats());
    assert_published(&rec, &e.totals(), 0, clock, "access_texel");

    // An error return: everything before the unknown texture is published.
    let t = &traces[traces.len() / 2];
    let half = t.requests.len() / 2;
    let mut bad = t.clone();
    bad.requests[half].tid = TextureId::from_index(9_999);
    let mut prefix = t.clone();
    prefix.requests.truncate(half);
    let (rec_bad, rec_prefix) = (Recorder::enabled(), Recorder::enabled());
    let (mut e_bad, mut e_prefix) = (attached(&rec_bad), attached(&rec_prefix));
    for t in &traces[..traces.len() / 2] {
        e_bad.try_run_frame_as_batched(t, filter).unwrap();
        e_prefix.try_run_frame_as_batched(t, filter).unwrap();
    }
    assert!(matches!(
        e_bad.try_run_frame_as_batched(&bad, filter),
        Err(EngineError::UnknownTexture(_))
    ));
    e_prefix.try_run_frame_as_batched(&prefix, filter).unwrap();
    let (got, want) = (rec_bad.snapshot(), rec_prefix.snapshot());
    assert!(want.counters["engine/g/l1_misses"] > 0);
    assert_eq!(got.counters, want.counters, "error return: counters");
    assert_eq!(got.hists, want.hists, "error return: histograms");
    assert_eq!(got.heatmaps, want.heatmaps, "error return: heat maps");

    // A service client's frame, every tap admitted or under a budget that
    // denies transfers and sheds taps, in either architecture.
    let budget = AdmissionControl {
        soft_transfers_per_frame: 8,
        hard_transfers_per_frame: 64,
        quarantine_after_shed_frames: 0,
    };
    for admission in [AdmissionControl::unlimited(), budget] {
        let ml = service_cfg(admission);
        let pull = ServiceConfig {
            l2: None,
            tlb_entries: 0,
            ..ml
        };
        for (arch, cfg) in [("multi-level", ml), ("pull", pull)] {
            let svc = TextureService::try_new(cfg, reg, 2).unwrap();
            let rec = Recorder::enabled();
            let mut client = svc.client(1).unwrap();
            client.attach_telemetry_opts(&rec, "client", "g", ATTRIBUTED);
            for (i, t) in traces.iter().enumerate() {
                client.run_frame(svc.shared_l2(), t, filter).unwrap();
                let denied = client.service_stats().denied_transfers;
                let ctx = format!("{arch} client {admission:?} frame {i}");
                assert_published(&rec, &client.totals(), denied, None, &ctx);
            }
            let s = client.service_stats();
            if admission == budget {
                assert!(s.denied_transfers > 0 && s.shed_taps > 0, "{arch}: {s:?}");
            }
        }
    }
}

/// FNV-1a, the digest [`golden_digest`] folds a snapshot into.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One digest of everything a recorder holds but its spans (wall-clock
/// times): every counter, histogram bucket, gauge, heat-map bin and series
/// row, plus the captured locality profile's JSON.
fn golden_digest(rec: &Recorder, profile: Option<&mltc_model::LocalityProfile>) -> u64 {
    let s = rec.snapshot();
    let profile = profile.map(|p| p.to_json().render_compact());
    let text = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{profile:?}",
        s.counters, s.hists, s.gauges, s.heatmaps, s.series
    );
    fnv1a(text.as_bytes())
}

/// Golden telemetry: the absolute values every recorder export holds, not
/// just one replay path against another. Each committed trace replays
/// trilinear through the wide frame loop of a busy multi-level engine and
/// of a pull engine on the same faulty link, with attribution and locality
/// capture on; the digest of everything recorded must match the one taken
/// when these values were last reviewed. A sink that shifted every path's
/// reuse histogram, heat maps or 3C classes the same way fails here.
#[test]
fn recorder_exports_match_their_golden_digests() {
    const GOLDEN: [(&str, &str, u64); 4] = [
        ("city", "multi-level", 0xc43f_0a00_ad65_1a9f),
        ("city", "pull", 0x3783_0162_4cbe_e2d9),
        ("village", "multi-level", 0x503b_3684_0c3b_2341),
        ("village", "pull", 0xec53_2ec0_35b9_4e6f),
    ];
    let mut got = Vec::new();
    for (name, w, frames) in committed_traces() {
        for (arch, cfg) in [("multi-level", busy_cfg()), ("pull", busy_pull_cfg())] {
            let rec = Recorder::enabled();
            let mut e = SimEngine::new(cfg, w.registry());
            let opts = TelemetryOpts {
                attribution: true,
                locality: true,
            };
            e.attach_telemetry_opts(&rec, "golden", "g", opts);
            for f in &frames {
                e.try_run_frame_as_batched(f, FilterMode::Trilinear)
                    .unwrap();
            }
            assert!(e.totals().failed_transfers > 0, "{name} {arch}: faults");
            let scene = name.split('-').next().unwrap().to_owned();
            got.push((
                scene,
                arch,
                golden_digest(&rec, e.locality_profile().as_ref()),
            ));
        }
    }
    let want: Vec<_> = GOLDEN
        .iter()
        .map(|&(s, a, d)| (s.to_owned(), a, d))
        .collect();
    assert_eq!(
        got,
        want,
        "digests as {:#018x?}",
        got.iter().map(|g| g.2).collect::<Vec<_>>()
    );
}

/// Every committed `.mltct` trace (file name, rebuilt workload, frames),
/// in file-name order.
fn committed_traces() -> Vec<(String, Workload, Vec<FrameTrace>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/traces");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("committed traces directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mltct"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed traces");
    paths
        .into_iter()
        .map(|path| {
            let file = std::fs::File::open(&path).unwrap();
            let mut reader = TraceFileReader::new(std::io::BufReader::new(file)).unwrap();
            let key = TraceKey::parse(reader.key()).expect("committed trace has a key");
            let frames = (0..reader.frame_count())
                .map(|_| reader.read_frame().expect("committed trace decodes"))
                .collect();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, key.workload(), frames)
        })
        .collect()
}

/// A recorder-enabled sweep never shares an L1 pass: every configuration
/// is observed tap by tap, so the recorder holds exactly what the same
/// configurations record replayed one at a time — every engine counter,
/// histogram and per-frame series — under labels that say which
/// configuration of the run each series belongs to. Nor does it replay a
/// stored one: the same holds, byte for byte, on a store that an unobserved
/// run of the sweep has already left its pass in.
#[test]
fn recorded_sweep_observes_each_config_exactly_as_its_solo_replay() {
    for prewarmed in [false, true] {
        recorded_sweep_matches_solo_replays(prewarmed);
    }
}

fn recorded_sweep_matches_solo_replays(prewarmed: bool) {
    use mltc::experiments::{collect_frames, engine_run_all, TraceStore};
    let w = tiny_village();
    // fig11's shape: one L1, one L2, five TLB sizes — one label, and one
    // L1 pass for all five when nobody is watching.
    let configs: Vec<EngineConfig> = [1, 2, 4, 8, 16]
        .iter()
        .map(|&tlb_entries| EngineConfig {
            tlb_entries,
            ..cfg()
        })
        .collect();
    let filter = FilterMode::Trilinear;

    let rec = Recorder::enabled();
    let store = TraceStore::in_memory();
    if prewarmed {
        engine_run_all(&store, &w, filter, &configs, false).unwrap();
        assert!(store.snapshot().pass_bytes > 0, "the pass is there to find");
    }
    let store = store.with_recorder(rec.clone());
    let swept = engine_run_all(&store, &w, filter, &configs, false).unwrap();
    assert_eq!(store.snapshot().l1_passes_reused, 0);

    let solo_rec = Recorder::enabled();
    let frames = collect_frames(&store, &w).unwrap();
    for (i, (cfg, swept)) in configs.iter().zip(&swept).enumerate() {
        let mut solo = SimEngine::new(*cfg, w.registry());
        let label = format!("village/late/scanline/Trilinear/{} [{i}]", cfg.label());
        solo.attach_telemetry(&solo_rec, &label, "village");
        for f in &frames {
            solo.try_run_frame_as_batched(f, filter).unwrap();
        }
        assert!(swept.telemetry_attached());
        assert_eq!(swept.frames(), solo.frames(), "config {i}");
    }

    let got = rec.snapshot();
    let want = solo_rec.snapshot();
    for (name, v) in &want.counters {
        assert_eq!(got.counters.get(name), Some(v), "counter {name}");
    }
    for name in got.counters.keys() {
        assert!(
            want.counters.contains_key(name)
                || name.starts_with("store/")
                || name.starts_with("replay/"),
            "unexpected counter {name}"
        );
    }
    assert_eq!(got.hists, want.hists, "histograms");
    assert_eq!(got.series, want.series, "per-frame series");
    assert_eq!(got.series.len(), configs.len(), "one series per config");
    assert_eq!(got.counters["replay/l1_passes"], configs.len() as u64);
    assert_eq!(got.counters["replay/l1_shared_members"], 0);
    assert_eq!(got.counters["replay/l1_passes_reused"], 0);
    // The same sweep unobserved is one pass.
    let quiet = TraceStore::in_memory();
    let unobserved = engine_run_all(&quiet, &w, filter, &configs, false).unwrap();
    for (a, b) in unobserved.iter().zip(&swept) {
        assert_eq!(a.frames(), b.frames());
    }
    let s = quiet.snapshot();
    assert_eq!((s.l1_passes, s.l1_shared_members), (1, 4));
}

const ATTRIBUTED: TelemetryOpts = TelemetryOpts {
    attribution: true,
    locality: false,
};

/// A two-client partitioned service over a bursty link (2 of every 10
/// transfers fail every attempt), so the observed stream includes
/// failed-download rollbacks.
fn service_cfg(admission: AdmissionControl) -> ServiceConfig {
    ServiceConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config::mb(2)),
        tlb_entries: 4,
        fault: FaultPlan {
            burst_period: 10,
            burst_len: 2,
            ..FaultPlan::with_rate(0x4d4c_5443, 50_000)
        },
        admission,
        ..ServiceConfig::default()
    }
}

/// Runs client 1 of `svc` over the whole animation, stopping at quarantine.
fn run_client(
    svc: &TextureService,
    w: &Workload,
    filter: FilterMode,
    rec: &Recorder,
) -> ClientEngine {
    let mut client = svc.client(1).unwrap();
    client.attach_telemetry_opts(rec, "client", "village", ATTRIBUTED);
    for i in 0..w.frame_count {
        match client.run_frame(svc.shared_l2(), &w.trace_frame(i, filter), filter) {
            Ok(()) => {}
            Err(ServiceError::Quarantined { .. }) => break,
            Err(e) => panic!("client failed: {e}"),
        }
    }
    client
}

/// Everything but the wide-kernel efficacy counters, the one export that
/// is meant to differ between replay paths.
fn path_neutral(rec: &Recorder) -> TelemetrySnapshot {
    let mut snap = rec.snapshot();
    snap.counters.retain(|name, _| !name.contains("/wide_"));
    snap
}

/// Two observers on one engine stay out of each other's way. With
/// counters and 3C attribution attached, attaching the timing overlay
/// changes no recorder export on the batched entry — the wide-kernel
/// efficacy counters included, which a timed replay counts like an untimed
/// one now that it rides the same loops — and the overlay computes the
/// same cycles whether the recorder is listening or not.
#[test]
fn timing_and_recorder_observe_without_seeing_each_other() {
    let w = tiny_village();
    let lossy = EngineConfig {
        tlb_entries: 4,
        fault: FaultPlan::with_rate(0x4d4c_5443, 100_000),
        ..cfg()
    };
    for (cfg, filter) in [
        (cfg(), FilterMode::Trilinear),
        (lossy, FilterMode::Bilinear),
    ] {
        let run = |timed: bool, rec: &Recorder| {
            let mut e = SimEngine::new(cfg, w.scene().registry());
            e.attach_telemetry_opts(rec, "run", "village", ATTRIBUTED);
            if timed {
                e.attach_timing(LatencyModel::default());
            }
            for i in 0..w.frame_count {
                e.try_run_frame_as_batched(&w.trace_frame(i, filter), filter)
                    .unwrap();
            }
            e
        };
        let (rec_plain, rec_timed) = (Recorder::enabled(), Recorder::enabled());
        let plain = run(false, &rec_plain);
        let timed = run(true, &rec_timed);
        let unrecorded = run(true, &Recorder::disabled());

        assert_eq!(plain.frames(), timed.frames());
        let (a, b) = (rec_plain.snapshot(), rec_timed.snapshot());
        assert!(a.counters["engine/village/wide_commits"] > 0);
        assert!(a.counters["engine/village/wide_declines"] > 0);
        assert_eq!(a.counters, b.counters, "counters");
        assert_eq!(a.hists, b.hists, "histograms");
        assert_eq!(a.heatmaps, b.heatmaps, "heat maps");
        assert_eq!(a.gauges, b.gauges, "gauges");
        assert_eq!(a.series, b.series, "per-frame series");

        let (t, u) = (timed.timing().unwrap(), unrecorded.timing().unwrap());
        assert!(t.totals().cycles_total > 0);
        assert_eq!(t.totals(), u.totals(), "timing totals");
        assert_eq!(t.frames(), u.frames(), "per-frame timing");
        assert_eq!(t.sink_stats(), u.sink_stats());
    }
}

/// The service client replays through the wide kernel; what it exports
/// with counters and 3C attribution attached is what its solo engine
/// exports replayed one scalar tap at a time with the same options.
#[test]
fn service_client_exports_what_its_scalar_solo_engine_exports() {
    let w = tiny_village();
    let filter = FilterMode::Bilinear;
    let svc = TextureService::try_new(service_cfg(AdmissionControl::unlimited()), w.registry(), 2)
        .unwrap();
    let rec_client = Recorder::enabled();
    let client = run_client(&svc, &w, filter, &rec_client);

    let rec_solo = Recorder::enabled();
    let mut solo = SimEngine::new(svc.solo_config(1), w.registry());
    solo.attach_telemetry_opts(&rec_solo, "client", "village", ATTRIBUTED);
    let mut fragments = 0;
    for i in 0..w.frame_count {
        let trace = w.trace_frame(i, filter);
        fragments += trace.requests.len() as u64;
        solo.try_run_frame_as(&trace, filter).unwrap();
    }
    assert_eq!(client.frames(), solo.frames());
    assert!(client.totals().failed_transfers > 0, "the link must bite");

    let (got, want) = (path_neutral(&rec_client), path_neutral(&rec_solo));
    assert_eq!(got.counters, want.counters, "counters");
    assert_eq!(got.hists, want.hists, "histograms");
    assert_eq!(got.series, want.series, "per-frame series");
    assert_eq!(got.heatmaps, want.heatmaps, "heat maps");

    // Every bilinear fragment made exactly one wide attempt in the
    // service, and none on the scalar path.
    let wide =
        |rec: &Recorder, name: &str| rec.snapshot().counters[&format!("engine/village/{name}")];
    assert!(wide(&rec_client, "wide_commits") > 0);
    assert_eq!(
        wide(&rec_client, "wide_commits") + wide(&rec_client, "wide_declines"),
        fragments
    );
    assert_eq!(
        wide(&rec_solo, "wide_commits") + wide(&rec_solo, "wide_declines"),
        0
    );
}

/// Attaching a recorder changes nothing a service client computes —
/// with every tap admitted, and under a budget that degrades taps, sheds
/// frames and ends in quarantine.
#[test]
fn recorder_never_perturbs_a_service_client_in_any_admission_mode() {
    let w = tiny_village();
    let filter = FilterMode::Trilinear;
    let all_tiers = AdmissionControl {
        soft_transfers_per_frame: 8,
        hard_transfers_per_frame: 64,
        quarantine_after_shed_frames: 2,
    };
    for admission in [AdmissionControl::unlimited(), all_tiers] {
        let svc = TextureService::try_new(service_cfg(admission), w.registry(), 2).unwrap();
        let plain = run_client(&svc, &w, filter, &Recorder::disabled());
        let svc = TextureService::try_new(service_cfg(admission), w.registry(), 2).unwrap();
        let rec = Recorder::enabled();
        let observed = run_client(&svc, &w, filter, &rec);

        assert_eq!(plain.frames(), observed.frames(), "{admission:?}");
        assert_eq!(
            plain.service_stats(),
            observed.service_stats(),
            "{admission:?}"
        );
        assert_eq!(plain.quarantined(), observed.quarantined(), "{admission:?}");
        let stats = observed.service_stats();
        if admission == all_tiers {
            assert!(
                stats.denied_transfers > 0 && stats.shed_taps > 0,
                "{stats:?}"
            );
            assert_eq!(stats.peak_tier, DegradeTier::Quarantined);
            // Denied transfers took the rollback without touching the
            // link: the recorder saw the drops but no failed transfer
            // beyond the ones the link itself produced.
            let snap = rec.snapshot();
            assert_eq!(
                snap.counters["engine/village/host_failed"],
                observed.totals().failed_transfers
            );
            assert_eq!(
                snap.counters["engine/village/degraded_taps"]
                    + snap.counters["engine/village/dropped_taps"],
                observed.totals().degraded_taps + observed.totals().dropped_taps
            );
        } else {
            assert_eq!(stats.peak_tier, DegradeTier::Normal);
            assert_eq!(observed.frames().len(), w.frame_count as usize);
        }
    }
}
