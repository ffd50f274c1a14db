//! Record/replay integration: traces serialised to a trace file and
//! replayed must drive the caches identically to a live run.

use mltc::core::{EngineConfig, L1Config, L2Config, SimEngine};
use mltc::scene::{Workload, WorkloadParams};
use mltc::trace::codec::{TraceFileReader, TraceFileWriter};
use mltc::trace::{FilterMode, FrameTrace};

/// Renders `w`'s animation under `filter` into an in-memory trace file,
/// handing each frame to `live` as it is recorded.
fn record(w: &Workload, filter: FilterMode, mut live: impl FnMut(&FrameTrace)) -> Vec<u8> {
    let mut file = Vec::new();
    let mut writer = TraceFileWriter::new(&mut file, "tiny", w.frame_count).expect("header");
    w.render_animation(filter, false, |t| {
        writer.write_frame(&t).expect("record frame");
        live(&t);
    });
    writer.finish().expect("every declared frame written");
    file
}

/// Every frame of a trace file, in order.
fn frames(file: &[u8]) -> Vec<FrameTrace> {
    let mut reader = TraceFileReader::new(file).expect("header");
    (0..reader.frame_count())
        .map(|_| reader.read_frame().expect("read frame"))
        .collect()
}

fn config() -> EngineConfig {
    EngineConfig {
        l1: L1Config::kb(2),
        l2: Some(L2Config::mb(2)),
        tlb_entries: 4,
        ..EngineConfig::default()
    }
}

#[test]
fn serialised_replay_matches_live_run() {
    let w = Workload::village(&WorkloadParams::tiny());

    // Live run, recording every frame to an in-memory trace file.
    let mut live = SimEngine::new(config(), w.registry());
    let file = record(&w, FilterMode::Trilinear, |t| live.run_frame(t));

    // Replay run from the serialised traces.
    let mut replay = SimEngine::new(config(), w.registry());
    let replayed = frames(&file);
    assert_eq!(replayed.len(), w.frame_count as usize);
    for t in &replayed {
        replay.run_frame(t);
    }

    // Bit-identical counters, frame by frame.
    assert_eq!(live.frames(), replay.frames());
    assert_eq!(live.totals(), replay.totals());
}

#[test]
fn recorded_traces_are_portable_across_configs() {
    // One recording drives arbitrarily many architectures (the paper's
    // methodology): record once, then sweep.
    let w = Workload::city(&WorkloadParams::tiny());
    let file = record(&w, FilterMode::Bilinear, |_| {});

    let mut results = Vec::new();
    for l2 in [None, Some(L2Config::mb(2))] {
        let mut engine = SimEngine::new(
            EngineConfig {
                l1: L1Config::kb(2),
                l2,
                ..EngineConfig::default()
            },
            w.registry(),
        );
        for t in frames(&file) {
            engine.run_frame(&t);
        }
        results.push(engine.totals());
    }
    assert_eq!(
        results[0].l1_accesses, results[1].l1_accesses,
        "same trace, same accesses"
    );
    assert!(results[1].host_bytes <= results[0].host_bytes);
}

#[test]
fn rerendering_is_deterministic() {
    let params = WorkloadParams::tiny();
    let collect = |w: &Workload| {
        let mut out = Vec::new();
        w.render_animation(FilterMode::Trilinear, false, |t| out.push(t));
        out
    };
    let a = collect(&Workload::village(&params));
    let b = collect(&Workload::village(&params));
    assert_eq!(
        a, b,
        "two builds of the same workload must trace identically"
    );
}
