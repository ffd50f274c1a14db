//! Record a workload's texture-access traces to a trace file (the `MLTS`
//! container the experiment suite's trace store writes), then replay them
//! through several cache configurations without re-rendering — the paper's
//! trace-driven methodology as a workflow.
//!
//! ```text
//! cargo run --release --example record_replay -- [trace_file]
//! ```

use mltc::core::{EngineConfig, L1Config, L2Config, SimEngine};
use mltc::scene::{Workload, WorkloadParams};
use mltc::trace::codec::{TraceFileReader, TraceFileWriter};
use mltc::trace::FilterMode;
use std::fs::File;
use std::io::{BufReader, BufWriter};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "village.mltct".to_string());
    let params = WorkloadParams::quick();
    let village = Workload::village(&params);

    // Record: render once, stream every frame to disk.
    let t0 = std::time::Instant::now();
    let file = BufWriter::new(File::create(&path).expect("create"));
    // The key names what was recorded; the trace store's keys also let
    // `tracetool model` rebuild the scene, this one is only a label.
    let mut writer = TraceFileWriter::new(file, "village-quick-trilinear", village.frame_count)
        .expect("write header");
    village.render_animation(FilterMode::Trilinear, false, |t| {
        writer.write_frame(&t).expect("write frame");
    });
    writer.finish().expect("every frame written");
    let size = std::fs::metadata(&path).expect("stat").len();
    println!(
        "recorded {} frames to {path} ({:.1} MB) in {:.1}s",
        village.frame_count,
        size as f64 / (1 << 20) as f64,
        t0.elapsed().as_secs_f64()
    );

    // Replay: sweep architectures from the file, no rasterization at all.
    let t1 = std::time::Instant::now();
    println!("\n{:<22} {:>10}", "architecture", "MB/frame");
    for l2_mb in [0usize, 2, 8] {
        let cfg = EngineConfig {
            l1: L1Config::kb(2),
            l2: (l2_mb > 0).then(|| L2Config::mb(l2_mb)),
            ..EngineConfig::default()
        };
        let mut engine = SimEngine::new(cfg, village.registry());
        let file = BufReader::new(File::open(&path).expect("open"));
        let mut reader = TraceFileReader::new(file).expect("read header");
        for _ in 0..reader.frame_count() {
            engine.run_frame(&reader.read_frame().expect("read frame"));
        }
        println!(
            "{:<22} {:>10.2}",
            cfg.label(),
            engine.totals().host_mb() / village.frame_count as f64
        );
    }
    println!(
        "\nreplayed 3 architectures in {:.1}s",
        t1.elapsed().as_secs_f64()
    );
    println!(
        "inspect the trace with: cargo run --release -p mltc-oracle --bin tracetool -- {path}"
    );
}
