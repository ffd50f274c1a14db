//! The repo benchmark. README.md in this directory is the manual; the
//! contract it is written to is `BENCHMARK.json` at the repo root.
//!
//! ```text
//! mltc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mltc-benchmark report [--passes 3] [--seconds <s>] [--seed <n>] [--traced] [--out <file>]
//! mltc-benchmark compare <a.json> <b.json>
//! mltc-benchmark describe
//! ```

mod layers;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use mltc_experiments::Scale;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Env, Kind, Outcome, Reference};

/// The seed the committed golden digests were taken at.
pub const DEFAULT_SEED: u64 = 0x5eed;
/// Busy threads a run may use: the measurement box has two cores, and a
/// figure that depends on the core count of whoever runs it compares with
/// nothing.
pub const JOBS: usize = 2;
/// Seconds a run measures for unless told otherwise (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 12.0;
/// Seconds of repetitions between two set-ups; `setup_s` is the median
/// of all the set-ups of a run.
const SETUP_EVERY: f64 = 1.5;
/// Fewest set-ups in a run, however short `--seconds` is.
const MIN_SETUPS: usize = 3;
/// Fewest timed repetitions in a run, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Where this package lives; its `out/` and `golden/` hang off it. Fixed
/// at build time, which is right for a checkout that builds and then runs.
pub fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    bless: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mltc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--scale quick|tiny] [--bless]\n       \
         mltc-benchmark report [--passes <n>] [--seconds <s>] [--seed <n>] [--traced] [--out <file>]\n       \
         mltc-benchmark compare <a.json> <b.json>\n       \
         mltc-benchmark describe\nworkloads: {}",
        Kind::ALL.map(Kind::name).join(" ")
    );
    ExitCode::from(2)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: Kind::VillageMlHot,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        scale: Scale::quick(),
        bless: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                a.workload = Kind::parse(it.next()?)?;
                named = true;
            }
            "--seed" => a.seed = parse_seed(it.next()?)?,
            "--seconds" => a.seconds = it.next()?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
            "--trace" => {
                a.trace = match it.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--scale" => a.scale = Scale::from_flag(it.next()?).filter(|s| s.params.frames > 0)?,
            "--bless" => a.bless = true,
            _ => return None,
        }
    }
    a.scale.params.seed = a.seed;
    named.then_some(a)
}

/// A scratch directory under `benchmark/out`, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = home()
            .join("out")
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything one run found out, before it is turned into metrics.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub reps: Vec<Outcome>,
    pub reference: Result<Reference, String>,
    /// Taps one repetition stands for (see `workloads::input_taps`).
    pub taps: u64,
    pub peak_rss_mb: f64,
}

/// The correctness gate: every repetition produced the same statistics,
/// they agree with the four-path reference replay, and at the default seed
/// and scale they match the committed golden digest. Returns the failures.
fn check(a: &Args, m: &Measured) -> Vec<String> {
    let mut bad = Vec::new();
    let first = &m.reps[0];
    if m.reps.iter().any(|r| r.digest != first.digest) {
        bad.push("repetitions disagree on simulated statistics".to_string());
    }
    match &m.reference {
        Err(e) => bad.push(format!("reference replay: {e}")),
        Ok(reference) => {
            let same = match a.workload {
                // Partitioned service: client 0 equals its solo baseline,
                // but the totals here sum both clients.
                Kind::Service2c | Kind::SuiteSweeps => true,
                _ => first.totals.map(|(t, _)| t) == Some(reference.totals),
            };
            if !same {
                bad.push("workload counters differ from the reference replay".to_string());
            }
            if first.timing.is_some_and(|t| t != reference.timing) {
                bad.push("overlay cycles differ from the reference replay".to_string());
            }
        }
    }
    if a.seed == DEFAULT_SEED && a.scale.name == "quick" && !a.bless {
        match report::golden_digest(a.workload) {
            Some(want) if want == first.digest.0 => {}
            Some(want) => bad.push(format!(
                "digest {:#018x} differs from golden {want:#018x}",
                first.digest.0
            )),
            None => bad.push("no golden digest committed".to_string()),
        }
    }
    bad
}

fn run(a: &Args) -> ExitCode {
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create scratch directory under benchmark/out: {e}");
            return ExitCode::from(1);
        }
    };
    let env = Env {
        scale: a.scale,
        tmp: scratch.0.clone(),
    };
    mltc_experiments::set_max_replay_jobs(JOBS);

    let (metrics, attempted, failed, problems) = if a.trace {
        layers::traced_run(a.workload, &env, a.seconds)
    } else {
        let m = untraced_run(a.workload, &env, a.seconds);
        let problems = check(a, &m);
        let walls: Vec<f64> = m.reps.iter().map(|r| r.wall_s).collect();
        let (p25, median, p75) = stats::quartiles(&walls);
        eprintln!(
            "{}: {} reps, wall min {:.6} s, median {median:.6} s, p25 {p25:.6} s, p75 {p75:.6} s; \
             {} set-ups, min {:.6} s, median {:.6} s",
            a.workload.name(),
            walls.len(),
            stats::min(&walls),
            m.setup_s.len(),
            stats::min(&m.setup_s),
            stats::quartiles(&m.setup_s).1
        );
        let attempted = m.reps.iter().map(|r| r.attempted).sum::<u64>() + 1;
        let failed = m.reps.iter().map(|r| r.failed).sum::<u64>() + u64::from(!problems.is_empty());
        if a.bless {
            report::write_golden(a.workload, a.seed, &m);
        }
        (metrics::end_to_end(&m), attempted, failed, problems)
    };
    drop(scratch);
    for p in &problems {
        eprintln!("{}: {p}", a.workload.name());
    }
    let correct = failed == 0;
    println!(
        "{}",
        metrics::result_line(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The untraced run: set up, warm up once, repeat until `seconds` of
/// repetitions have run, then replay the reference hierarchy for the check.
/// Further set-ups are taken between repetitions, one every
/// [`SETUP_EVERY`] seconds: the box's speed moves in plateaus of seconds, so
/// set-ups taken back to back would all sit on one plateau and their median
/// would move with it.
fn untraced_run(kind: Kind, env: &Env, seconds: f64) -> Measured {
    let timed_setup = |slot: &str| {
        let start = Instant::now();
        let inputs = workloads::setup(kind, env, slot);
        (inputs, start.elapsed().as_secs_f64())
    };
    let (inputs, secs) = timed_setup("inputs");
    let mut setup_s = vec![secs];
    let frames = inputs.frames();
    let _warm_up = workloads::rep(kind, &inputs, &frames, env, None);
    let mut reps = Vec::new();
    let mut measured = 0.0;
    let mut next_setup = SETUP_EVERY;
    let mut peak_rss_mb = None;
    while reps.len() < MIN_REPS || measured < seconds {
        let start = Instant::now();
        reps.push(workloads::rep(kind, &inputs, &frames, env, None));
        measured += start.elapsed().as_secs_f64();
        if measured >= next_setup {
            // A later set-up holds a second scene and trace beside the
            // inputs; read the workload's memory peak before the first.
            peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
            setup_s.push(timed_setup("probe").1);
            next_setup += SETUP_EVERY;
        }
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(stats::peak_rss_mb);
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(timed_setup("probe").1);
    }
    let taps = match kind {
        Kind::SuiteSweeps => workloads::input_taps(&inputs, env),
        _ => reps[0].taps,
    };
    let reference = workloads::reference(kind, &inputs, &frames);
    Measured {
        setup_s,
        reps,
        reference,
        taps,
        peak_rss_mb,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", report::describe().render());
            ExitCode::SUCCESS
        }
        Some("report") => report::report(&args[1..]).unwrap_or_else(usage),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)),
            _ => usage(),
        },
        _ => match parse_run(&args) {
            Some(a) => run(&a),
            None => usage(),
        },
    }
}
