//! Golden tests for the persisted trace store: a trace written to disk and
//! reloaded by a fresh store must drive the simulator to bit-identical
//! counters, and damaged files — truncated, corrupted, or written by a
//! different format version — must be rejected with a re-render, never a
//! panic — also when the file is larger than the budget, so only a replay
//! streaming it can find the damage. And the L1 passes replays leave beside a
//! resident trace live and die with it, inside the same byte budget. And a
//! render spread over several threads hands out the one-thread render.

use mltc::core::{EngineConfig, FrameCounters, L1Config, L2Config};
use mltc::experiments::{engine_run, engine_run_all, RunError, TraceHandle, TraceStore};
use mltc::raster::Traversal;
use mltc::scene::{Workload, WorkloadParams};
use mltc::trace::FilterMode;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

fn tiny_village() -> Workload {
    Workload::village(&WorkloadParams::tiny())
}

fn configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig {
            l1: L1Config::kb(2),
            ..EngineConfig::default()
        },
        EngineConfig {
            l1: L1Config::kb(2),
            l2: Some(L2Config::mb(2)),
            ..EngineConfig::default()
        },
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mltc_golden_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the full pipeline against a fresh store over `dir` and returns the
/// per-configuration totals plus the store's counters.
fn run_totals(dir: &Path, w: &Workload) -> (Vec<FrameCounters>, mltc::experiments::StoreStats) {
    let store = TraceStore::persistent(dir);
    let engines = engine_run_all(&store, w, FilterMode::Trilinear, &configs(), false)
        .expect("valid configurations");
    (
        engines.iter().map(|e| e.totals()).collect(),
        store.snapshot(),
    )
}

fn trace_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("trace dir exists after a cold run")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mltct"))
        .collect()
}

#[test]
fn persisted_and_reloaded_trace_is_bit_identical() {
    let dir = temp_dir("roundtrip");
    let w = tiny_village();

    let (cold, cold_stats) = run_totals(&dir, &w);
    assert_eq!(cold_stats.renders, 1, "cold run rasterizes once");
    assert!(!trace_files(&dir).is_empty(), "cold run persisted a file");

    // A brand-new store over the same directory: zero rasterization, and
    // every counter of every configuration matches the cold run exactly.
    let (warm, warm_stats) = run_totals(&dir, &w);
    assert_eq!(warm_stats.renders, 0, "warm run must not rasterize");
    assert!(warm_stats.disk_hits >= 1);
    assert_eq!(cold, warm, "replay from disk must be bit-identical");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_file_is_rejected_and_healed_by_a_rerender() {
    let dir = temp_dir("truncate");
    let w = tiny_village();
    let (cold, _) = run_totals(&dir, &w);

    for f in trace_files(&dir) {
        let len = std::fs::metadata(&f).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&f).unwrap();
        file.set_len(len / 2).unwrap();
    }

    let (healed, stats) = run_totals(&dir, &w);
    assert!(stats.corrupt_files >= 1, "truncation must be detected");
    assert_eq!(stats.renders, 1, "the damaged trace re-renders");
    assert_eq!(cold, healed, "results survive the corruption");

    // The re-render rewrote the file: a third store loads it cleanly.
    let (reloaded, stats) = run_totals(&dir, &w);
    assert_eq!(stats.renders, 0, "healed file loads without rasterizing");
    assert_eq!(stats.corrupt_files, 0);
    assert_eq!(cold, reloaded);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_bytes_are_rejected_not_a_panic() {
    let dir = temp_dir("garbage");
    let w = tiny_village();
    let (cold, _) = run_totals(&dir, &w);

    for f in trace_files(&dir) {
        // Keep the length plausible but destroy the content entirely.
        let len = std::fs::metadata(&f).unwrap().len() as usize;
        std::fs::write(&f, vec![0xA5u8; len]).unwrap();
    }

    let (healed, stats) = run_totals(&dir, &w);
    assert!(stats.corrupt_files >= 1);
    assert_eq!(stats.renders, 1);
    assert_eq!(cold, healed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_format_version_is_rejected_not_a_panic() {
    let dir = temp_dir("version");
    let w = tiny_village();
    let (cold, _) = run_totals(&dir, &w);

    for f in trace_files(&dir) {
        // The container header is magic (4 bytes) then a little-endian
        // format version; stamp a version from the future.
        let mut bytes = std::fs::read(&f).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&f, bytes).unwrap();
    }

    let (healed, stats) = run_totals(&dir, &w);
    assert!(stats.corrupt_files >= 1, "future versions must be rejected");
    assert_eq!(stats.renders, 1);
    assert_eq!(cold, healed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_key_in_the_right_file_name_is_stale_not_wrong() {
    let dir = temp_dir("stale");
    let v = tiny_village();
    let c = Workload::city(&WorkloadParams::tiny());
    let (cold_v, _) = run_totals(&dir, &v);
    {
        let store = TraceStore::persistent(&dir);
        engine_run_all(&store, &c, FilterMode::Trilinear, &configs(), false).unwrap();
    }

    // Swap the two files: each now holds a well-formed trace whose embedded
    // key disagrees with the name the store will look it up under.
    let files = trace_files(&dir);
    assert_eq!(files.len(), 2);
    let tmp = dir.join("swap.tmp");
    std::fs::rename(&files[0], &tmp).unwrap();
    std::fs::rename(&files[1], &files[0]).unwrap();
    std::fs::rename(&tmp, &files[1]).unwrap();

    let (healed, stats) = run_totals(&dir, &v);
    assert!(stats.stale_files >= 1, "key mismatch must be detected");
    assert_eq!(stats.renders, 1, "the mismatched trace re-renders");
    assert_eq!(cold_v, healed, "village results are unaffected");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_writer_leftovers_are_swept_and_torn_files_healed() {
    let dir = temp_dir("crash");
    let w = tiny_village();
    let (cold, _) = run_totals(&dir, &w);

    // Simulate a writer that died mid-flight: a stale partial `.tmp` next
    // to the container (from a PID that is long gone), plus a torn tail on
    // the container itself — the on-disk shape an unclean shutdown leaves.
    let files = trace_files(&dir);
    assert!(!files.is_empty());
    let mut tmp_paths = Vec::new();
    for f in &files {
        let mut name = f.file_name().unwrap().to_os_string();
        name.push(".tmp.424242");
        let tmp = f.with_file_name(name);
        std::fs::write(&tmp, b"partial bytes from a dead writer").unwrap();
        tmp_paths.push(tmp);

        let bytes = std::fs::read(f).unwrap();
        std::fs::write(f, &bytes[..bytes.len() - 7]).unwrap();
    }

    let (healed, stats) = run_totals(&dir, &w);
    for tmp in &tmp_paths {
        assert!(!tmp.exists(), "stale tmp files are swept at store startup");
    }
    assert!(stats.corrupt_files >= 1, "the torn container is Damaged");
    assert_eq!(stats.renders, 1, "damage forces exactly one re-render");
    assert!(
        stats.healed_files >= 1,
        "the re-render re-persists the file"
    );
    assert_eq!(cold, healed, "results survive the crash damage");

    // After healing, a brand-new store over the directory is pristine.
    let (reloaded, stats) = run_totals(&dir, &w);
    assert_eq!(stats.renders, 0, "healed file loads without rasterizing");
    assert_eq!(stats.corrupt_files, 0);
    assert_eq!(stats.healed_files, 0);
    assert_eq!(cold, reloaded);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The trace's own resident bytes (the handle request counts as a hit).
fn trace_bytes(store: &TraceStore, w: &Workload, zprepass: bool) -> u64 {
    match store.get_or_render(w, zprepass, Traversal::Scanline) {
        TraceHandle::Memory(set) => set.bytes,
        other => panic!("expected a resident trace, got {other:?}"),
    }
}

fn sweep(store: &TraceStore, w: &Workload) -> Vec<FrameCounters> {
    engine_run_all(store, w, FilterMode::Trilinear, &configs(), false)
        .expect("valid configurations")
        .iter()
        .map(|e| e.totals())
        .collect()
}

/// Cuts seven bytes off the tail of every persisted trace.
fn tear_trace_files(dir: &Path) {
    for f in trace_files(dir) {
        let bytes = std::fs::read(&f).unwrap();
        std::fs::write(&f, &bytes[..bytes.len() - 7]).unwrap();
    }
}

#[test]
fn a_streamed_file_found_damaged_mid_replay_heals_on_the_next_request() {
    let dir = temp_dir("stream_heal");
    let w = tiny_village();
    let (from_memory, _) = run_totals(&dir, &w);
    tear_trace_files(&dir);

    // Larger than the budget, the file is streamed, never loaded: its header
    // is sound, so only the replay that reaches the torn tail can tell.
    let store = TraceStore::persistent(&dir).with_budget(64);
    let tainted = engine_run(&store, &w, FilterMode::Trilinear, &configs(), false);
    for r in &tainted {
        assert!(matches!(r, Err(RunError::Trace(_))), "{r:?}");
    }
    let s = store.snapshot();
    assert_eq!((s.corrupt_files, s.renders, s.healed_files), (1, 0, 0));

    // The next request for the key is the healing render.
    assert_eq!(sweep(&store, &w), from_memory);
    let s = store.snapshot();
    assert_eq!((s.corrupt_files, s.renders, s.healed_files), (1, 1, 1));
    let fresh = TraceStore::persistent(&dir).with_budget(64);
    assert_eq!(sweep(&fresh, &w), from_memory);
    let s = fresh.snapshot();
    assert_eq!((s.corrupt_files, s.renders, s.disk_hits), (0, 0, 1));

    // A statistics visitor that meets the same damage starts over on the
    // healed trace: one render, not one per call.
    tear_trace_files(&dir);
    let store = TraceStore::persistent(&dir).with_budget(64);
    let want = TraceStore::in_memory().mean_depth_complexity(&w, false);
    for _ in 0..2 {
        let got = store.mean_depth_complexity(&w, false);
        assert_eq!(got.to_bits(), want.to_bits());
    }
    let s = store.snapshot();
    assert_eq!((s.corrupt_files, s.renders, s.healed_files), (1, 1, 1));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_rasterizations_of_an_uncached_trace_are_counted() {
    // Nowhere to keep the trace and nowhere to persist it: every use
    // rasterizes it again.
    let store = TraceStore::in_memory().with_budget(64);
    let w = tiny_village();
    let first = sweep(&store, &w);
    assert_eq!(sweep(&store, &w), first);
    let s = store.snapshot();
    assert_eq!(s.renders, 3, "one by get_or_render, one per replay");
    assert_eq!(s.frames_rendered, 3 * u64::from(w.frame_count));
    assert_eq!(s.fragments_rasterized % 3, 0);
}

#[test]
fn stored_passes_count_as_resident_and_leave_with_their_trace() {
    let store = TraceStore::in_memory();
    let w = tiny_village();
    let first = sweep(&store, &w);
    let s = store.snapshot();
    assert_eq!((s.l1_passes, s.l1_shared_members), (1, 1));
    assert!(s.pass_bytes > 0, "the sweep left its pass behind");
    let village = trace_bytes(&store, &w, false);
    assert_eq!(s.resident_bytes, village + s.pass_bytes);

    // The next sweep replays the stored pass: no L1 pass runs.
    assert_eq!(sweep(&store, &w), first);
    let s = store.snapshot();
    assert_eq!((s.l1_passes, s.l1_passes_reused), (1, 2));

    // Room for one trace: rendering another demotes the village, and the
    // pass goes with it.
    let store = store.with_budget(village);
    let other = trace_bytes(&store, &w, true);
    let s = store.snapshot();
    assert!(s.evictions >= 1, "{s:?}");
    assert_eq!((s.pass_bytes, s.resident_bytes), (0, other));

    // So the sweep after that runs its own pass again, to the same result.
    assert_eq!(sweep(&store, &w), first);
    let s = store.snapshot();
    assert_eq!((s.l1_passes, s.l1_passes_reused), (2, 2));
}

#[test]
fn a_pass_that_would_not_fit_the_budget_is_not_kept_and_evicts_nothing() {
    let w = tiny_village();
    let roomy = TraceStore::in_memory();
    let first = sweep(&roomy, &w);
    let pass = roomy.snapshot().pass_bytes;
    // The trace fits with a few bytes to spare; its pass does not.
    let village = trace_bytes(&roomy, &w, false);
    let store = TraceStore::in_memory().with_budget(village + pass - 1);
    for _ in 0..2 {
        assert_eq!(sweep(&store, &w), first);
    }
    let s = store.snapshot();
    assert_eq!((s.renders, s.evictions), (1, 0), "the trace stayed");
    assert_eq!((s.pass_bytes, s.l1_passes_reused), (0, 0));
    assert_eq!((s.l1_passes, s.resident_bytes), (2, village));
}

#[test]
fn concurrent_sweeps_over_one_store_leave_one_pass_counted_once() {
    let w = tiny_village();
    let alone = TraceStore::in_memory();
    let first = sweep(&alone, &w);
    let store = TraceStore::in_memory();
    trace_bytes(&store, &w, false);
    // Both sweeps start on the resident trace together: whether one finds
    // the other's pass or both make it, one is kept.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                assert_eq!(sweep(&store, &w), first);
            });
        }
    });
    let (s, want) = (store.snapshot(), alone.snapshot());
    assert_eq!(s.pass_bytes, want.pass_bytes);
    assert_eq!(s.resident_bytes, want.resident_bytes);
    assert_eq!(s.l1_passes + s.l1_passes_reused / 2, 2);
    assert_eq!(sweep(&store, &w), first);
    assert_eq!(store.snapshot().l1_passes, s.l1_passes);
}

#[test]
fn a_parallel_render_is_the_serial_render() {
    // Frames are independent, so however many rasterizers share the
    // animation, the sink sees the one-rasterizer trace, frame by frame and
    // in order — whether it hands every buffer back or keeps them all.
    let params = WorkloadParams::tiny();
    for w in [Workload::village(&params), Workload::city(&params)] {
        for traversal in [Traversal::Scanline, Traversal::Tiled(8)] {
            for zprepass in [false, true] {
                for filter in [FilterMode::Point, FilterMode::Trilinear] {
                    let mut serial = Vec::new();
                    w.render_animation_traversal(filter, zprepass, traversal, |t| serial.push(t));
                    assert_eq!(serial.len(), w.frame_count as usize);
                    for jobs in [1, 2, 3, 4, 7] {
                        for recycle in [true, false] {
                            let mut seen = Vec::new();
                            w.render_animation_feed(filter, zprepass, traversal, jobs, |t| {
                                let recycled = recycle.then(|| t.requests.clone());
                                seen.push(t);
                                ControlFlow::Continue(recycled)
                            });
                            let case = format!(
                                "{} {traversal:?} zprepass {zprepass} {filter:?} \
                                 jobs {jobs} recycle {recycle}",
                                w.name
                            );
                            let order: Vec<u32> = seen.iter().map(|t| t.frame).collect();
                            assert_eq!(order, (0..w.frame_count).collect::<Vec<_>>(), "{case}");
                            assert!(
                                seen == serial,
                                "{case}: traces differ from the serial render"
                            );
                        }
                    }
                }
            }
        }
    }
}
