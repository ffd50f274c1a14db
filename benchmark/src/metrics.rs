//! Every metric the benchmark emits, by name, with its unit, direction and
//! regression bound — the same tables `BENCHMARK.json` carries
//! (`tests/smoke.rs` holds the two together).

use crate::stats;
use crate::Measured;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// A simulated statistic: the same on every run of one seed, so
    /// `compare` requires it equal, digit for digit, whatever the bound.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: true,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. The bounds are the ones
/// `BENCHMARK.json` carries. A timed metric's bound is set by the box: two
/// shared cores whose speed moves in plateaus of seconds, so ten runs of
/// one commit spread by 7-15 %. A simulated statistic is exact on one seed;
/// its bound only has to cover how far it moves from one seed's scene to
/// the next (about three times the spread seen over ten seeds).
pub const END_TO_END: [Def; 8] = [
    timed("setup_s", "s", Lower, 0.25),
    timed("taps_per_s", "taps/s", Higher, 0.25),
    timed("suite_wall_s", "s", Lower, 0.25),
    timed("peak_rss_mb", "MB", Lower, 0.10),
    simulated("host_mb_per_frame", "MB/frame", Lower, 0.25),
    simulated("l1_hit_rate", "ratio", Higher, 0.01),
    simulated("l2_full_hit_rate", "ratio", Higher, 0.02),
    simulated("sim_cycles_per_frame", "cycles/frame", Lower, 0.15),
];

/// One figure per layer boundary, from the traced run. A layer the
/// workload's path never enters reads 0.
pub const PER_LAYER: [Def; 53] = [
    layer("scene.build_ms", "ms", Lower),
    layer("raster.render_mfrag_per_s", "Mfrag/s", Higher),
    layer("codec.encode_mb_per_s", "MB/s", Higher),
    layer("codec.decode_mb_per_s", "MB/s", Higher),
    layer("codec.decode_ns_per_req", "ns", Lower),
    layer("store.persist_mb_per_s", "MB/s", Higher),
    layer("store.load_mb_per_s", "MB/s", Higher),
    layer("store.mem_hit_us", "us", Lower),
    layer("runner.stream_over_memory", "ratio", Lower),
    layer("runner.parallel_efficiency", "ratio", Higher),
    layer("runner.pipelined_over_batched", "ratio", Lower),
    layer("filter.taps_ns_per_tap", "ns", Lower),
    layer("filter.footprint_ns_per_frag", "ns", Lower),
    layer("batch.prepare_ns_per_tap", "ns", Lower),
    layer("batch.prepared_sim_ns_per_tap", "ns", Lower),
    layer("l1.access_ns_per_tap", "ns", Lower),
    layer("l1.hit_share", "ratio", Higher),
    layer("address.translate_ns_per_tap", "ns", Lower),
    layer("tlb.access_ns", "ns", Lower),
    layer("tlb.hit_share", "ratio", Higher),
    layer("l2.access_ns", "ns", Lower),
    layer("l2.full_hit_share", "ratio", Higher),
    layer("l2.partial_hit_share", "ratio", Lower),
    layer("l2.miss_share", "ratio", Lower),
    layer("l2.clock_mean_search", "count", Lower),
    layer("host.transfer_ns", "ns", Lower),
    layer("host.transfer_fault_ns", "ns", Lower),
    layer("host.retry_share", "ratio", Lower),
    layer("engine.scalar_ns_per_tap", "ns", Lower),
    layer("engine.batched_ns_per_tap", "ns", Lower),
    layer("engine.batched_over_scalar", "ratio", Higher),
    layer("engine.traced_ns_per_tap", "ns", Lower),
    layer("engine.unattributed_ns_per_tap", "ns", Lower),
    layer("telemetry.counters_ns_per_tap", "ns", Lower),
    layer("telemetry.attribution_ns_per_tap", "ns", Lower),
    layer("telemetry.locality_ns_per_tap", "ns", Lower),
    layer("latency.overlay_ns_per_tap", "ns", Lower),
    layer("latency.stall_share", "ratio", Lower),
    layer("service.client_ns_per_tap", "ns", Lower),
    layer("service.over_solo", "ratio", Lower),
    layer("service.lock_stall_share", "ratio", Lower),
    layer("service.queue_stalls", "count", Lower),
    layer("service.parallel_efficiency", "ratio", Higher),
    layer("model.capture_ns_per_tap", "ns", Lower),
    layer("model.predict_us_per_point", "us", Lower),
    layer("suite.fig10_s", "s", Lower),
    layer("suite.table5_6_s", "s", Lower),
    layer("suite.fig11_s", "s", Lower),
    layer("suite.ablate-replacement_s", "s", Lower),
    layer("harness.rep_ms_p50", "ms", Lower),
    layer("harness.rep_spread", "ratio", Lower),
    layer("harness.trace_overhead_share", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
];

pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Metric values by name, in table order.
pub type Metrics = Vec<(&'static str, f64)>;

/// The end-to-end metrics of one untraced run. Timed figures come from the
/// fastest repetition: on a shared box the minimum is the repetition the
/// neighbours disturbed least, and it repeats to a few per cent where the
/// median swings by tens.
pub fn end_to_end(m: &Measured) -> Metrics {
    let walls: Vec<f64> = m.reps.iter().map(|r| r.wall_s).collect();
    let best = stats::min(&walls);
    let reference = m.reference.as_ref().ok();
    let first = &m.reps[0];
    // `suite_sweeps` simulates no single hierarchy itself and borrows the
    // reference replay's counters.
    let (totals, frames) = first
        .totals
        .or(reference.map(|r| (r.totals, r.frames.len() as u64)))
        .unwrap_or_default();
    let cycles = first
        .timing
        .or(reference.map(|r| r.timing))
        .map_or(0, |t| t.cycles_total);
    let timed_frames = reference.map_or(0, |r| r.frames.len());
    vec![
        ("setup_s", stats::quartiles(&m.setup_s).1),
        ("taps_per_s", m.taps as f64 / best),
        ("suite_wall_s", best),
        ("peak_rss_mb", m.peak_rss_mb),
        (
            "host_mb_per_frame",
            stats::ratio(totals.host_mb(), frames as f64),
        ),
        ("l1_hit_rate", totals.l1_hit_rate()),
        ("l2_full_hit_rate", totals.l2_full_hit_rate()),
        (
            "sim_cycles_per_frame",
            stats::ratio(cycles as f64, timed_frames as f64),
        ),
    ]
}

/// The one-line result the contract asks for as the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = def(name).map_or("", |d| d.unit);
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
