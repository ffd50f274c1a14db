//! Render-once trace store: memoized + persisted frame traces shared
//! across the whole experiment suite.
//!
//! Every experiment in this crate consumes the same handful of rendered
//! animations (Village / City / future-City, with or without a z-prepass,
//! scanline or tiled traversal) and replays them through many cache
//! configurations. Pre-store, each experiment re-rasterized its workload
//! from scratch — the same animation dozens of times per suite run. The
//! [`TraceStore`] renders each unique trace **exactly once per process**
//! and, when given a directory, **once per machine**: traces persist as
//! versioned binary files (the `MLTS` container from
//! [`mltc_trace::codec`]) and later runs replay from disk without touching
//! the rasterizer at all.
//!
//! # Cache key
//!
//! A trace is identified by [`TraceKey`]: workload identity
//! ([`WorkloadKind`] + [`WorkloadParams`]), the z-prepass flag, and the
//! fragment [`Traversal`] order. The texture **filter is deliberately not
//! part of the key**: a [`FrameTrace`] records per-pixel requests whose
//! expansion into taps happens at *simulation* time
//! ([`mltc_core::SimEngine::try_run_frame_as`]), so one point-sampled
//! render serves every filter mode. This alone collapses the suite's
//! renders by another 2–3× beyond memoization.
//!
//! # Memory budget and handle states
//!
//! Traces are large (a default-scale Village animation is gigabytes of
//! requests), so the store enforces a byte budget (default 4 GiB):
//!
//! * within budget, a trace lives in memory ([`TraceHandle::Memory`]) and
//!   replays at full speed;
//! * over budget, least-recently-used traces are demoted — to their disk
//!   file when one exists ([`TraceHandle::Disk`]), otherwise dropped for
//!   on-demand re-render;
//! * a trace too large to hold that also could not be persisted degrades
//!   to [`TraceHandle::Uncached`], which is rasterized again per use.
//!
//! One function turns a handle into frames, whichever of the three it is:
//! the crate-private *feed* (`TraceStore::feed`), and every frame it hands
//! out is a decoded, shared [`FrameTrace`]. Resident frames are handed out
//! as they are; a file is read frame by frame into one reused buffer and
//! each frame decoded once, on the feed's thread; an uncached trace is
//! rasterized live — and counted as the render it is — until the visitor
//! breaks. Every render, keyed or live, runs on up to
//! [`max_replay_jobs`](crate::max_replay_jobs) threads and delivers its
//! frames in order, so the `--jobs` cap never changes a trace. Replays
//! ([`crate::runner`]),
//! [`TraceStore::stats_bundle`], [`TraceStore::mean_depth_complexity`] and
//! [`crate::collect_frames`] are its visitors.
//!
//! Corrupt, truncated, or wrong-version files are never fatal: the codec
//! reports a typed [`CodecError`], the store counts it and re-renders, which
//! rewrites the file (a *heal*). A file small enough to load is checked as
//! it loads. One that is streamed can only be found damaged mid-stream, by
//! the feed, which then forgets the handle: the visitor that met the damage
//! fails (a replay) or starts over (the others), and the key's next
//! [`TraceStore::get_or_render`] is the healing render.
//!
//! # Stored L1 passes
//!
//! A resident trace also keeps the L1 passes replays have made over it
//! ([`TraceStore::keep_pass`], DESIGN.md §14): the L1-filtered miss stream
//! per (filter, L1, tiling), from which any later configuration on that L1
//! is replayed without touching the frames. They hang off the [`TraceSet`],
//! so they are keyed by [`TraceKey`] for free, count into the same byte
//! budget (reported apart as [`StoreStats::pass_bytes`]), leave when the
//! trace is demoted, and are never kept for a [`TraceHandle::Disk`] or
//! [`TraceHandle::Uncached`] trace — a replay over one holds its groups'
//! fresh passes, O(misses) bytes outside the budget, only until the
//! stream ends. Nothing is persisted: a pass costs one replay to make
//! again.

use crate::runner::{lock_clean, max_replay_jobs, RunError};
use mltc_core::{L1Pass, SimEngine};
use mltc_raster::Traversal;
use mltc_scene::{traversal_tag, TraceKey, Workload, WorkloadKind, WorkloadParams};
use mltc_telemetry::Recorder;
use mltc_trace::codec::{CodecError, TraceFileReader, TraceFileWriter};
use mltc_trace::{
    FilterMode, FrameStatsCollector, FrameTrace, FrameWorkingSet, PixelRequest, WorkloadSummary,
};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Default in-memory budget: 4 GiB of decoded trace data.
pub const DEFAULT_MEM_BUDGET: u64 = 4 << 30;

/// A fully decoded animation: every frame behind an [`Arc`] so replay
/// workers share them without copying.
///
/// The L1 passes replays have made over the frames are kept beside them
/// ([`TraceStore::keep_pass`]): a later configuration on the same L1 replays
/// the stored pass instead of the frames. They live exactly as long as the
/// trace is resident, so a trace streamed from disk or rendered live has
/// none.
#[derive(Debug)]
pub struct TraceSet {
    /// The frames, in animation order.
    pub frames: Vec<Arc<FrameTrace>>,
    /// Approximate decoded size in bytes (for budget accounting).
    pub bytes: u64,
    passes: Mutex<PassShelf>,
}

#[derive(Debug, Default)]
struct PassShelf {
    kept: Vec<Arc<L1Pass>>,
    /// The trace has been demoted: a replay still holding it keeps no pass.
    demoted: bool,
}

impl TraceSet {
    fn new(frames: Vec<Arc<FrameTrace>>, bytes: u64) -> Self {
        Self {
            frames,
            bytes,
            passes: Mutex::default(),
        }
    }

    /// The stored pass that answers `engine` replaying these frames under
    /// `filter`, if a replay has left one.
    pub(crate) fn stored_pass(
        &self,
        engine: &SimEngine,
        filter: FilterMode,
    ) -> Option<Arc<L1Pass>> {
        let shelf = lock_clean(&self.passes);
        shelf
            .kept
            .iter()
            .find(|p| p.answers(engine, filter))
            .cloned()
    }

    /// Drops the stored passes for good (the trace is being demoted) and
    /// returns the bytes they held.
    fn drop_passes(&self) -> u64 {
        let mut shelf = lock_clean(&self.passes);
        shelf.demoted = true;
        std::mem::take(&mut shelf.kept)
            .iter()
            .map(|p| p.bytes())
            .sum()
    }
}

/// Where a requested trace currently lives.
#[derive(Debug, Clone)]
pub enum TraceHandle {
    /// Decoded and resident: replay directly.
    Memory(Arc<TraceSet>),
    /// Persisted but not resident: stream frames from this file. A replay
    /// over it keeps no L1 pass, yet holds each sharing group's fresh pass
    /// until the stream ends: about 4.1 bytes an L1 miss, outside the byte
    /// budget (DESIGN.md §14, "What a streamed replay holds").
    Disk(PathBuf),
    /// Too large to hold and not persisted: render live per use. A replay
    /// holds its groups' fresh passes as over [`TraceHandle::Disk`].
    Uncached,
}

/// Approximate decoded footprint of one frame (requests + fixed overhead).
fn frame_cost(t: &FrameTrace) -> u64 {
    (t.requests.len() * std::mem::size_of::<PixelRequest>()) as u64 + 96
}

enum CellState {
    Empty,
    Building,
    Ready(TraceHandle),
    /// The feed found the key's streamed file damaged: the next request
    /// re-renders over it (a heal) instead of trusting the file again.
    Damaged,
}

/// What [`TraceStore::try_load`] found on disk.
enum LoadResult {
    /// A good file (loaded or deferred to streaming).
    Loaded(TraceHandle),
    /// No persisted file for this key.
    Missing,
    /// A file exists but is corrupt, truncated, or stale — re-rendering
    /// and re-persisting it counts as a heal.
    Damaged,
}

/// One key's slot: a tiny state machine guarded by a mutex + condvar so
/// concurrent requests for the same key render it once and the rest wait.
struct KeyCell {
    state: Mutex<CellState>,
    cv: Condvar,
    last_used: AtomicU64,
}

impl KeyCell {
    fn new() -> Self {
        Self {
            state: Mutex::new(CellState::Empty),
            cv: Condvar::new(),
            last_used: AtomicU64::new(0),
        }
    }
}

/// Restores a cell to `Empty` (and wakes waiters) if the builder panics,
/// so a failed render never wedges every other thread on the condvar.
struct BuildGuard<'a> {
    cell: &'a KeyCell,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            *lock_clean(&self.cell.state) = CellState::Empty;
            self.cell.cv.notify_all();
        }
    }
}

/// Per-frame working-set statistics for a whole workload, memoized by the
/// store (replaces ad-hoc `stats_run` re-renders).
#[derive(Debug)]
pub struct StatsBundle {
    /// Per-frame §4 working sets, in animation order.
    pub frames: Vec<FrameWorkingSet>,
    /// The aggregate summary over those frames.
    pub summary: WorkloadSummary,
}

#[derive(Default)]
struct Counters {
    renders: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    frames_rendered: AtomicU64,
    fragments_rasterized: AtomicU64,
    render_nanos: AtomicU64,
    taps_simulated: AtomicU64,
    sim_nanos: AtomicU64,
    l1_passes: AtomicU64,
    l1_shared_members: AtomicU64,
    l1_passes_reused: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    corrupt_files: AtomicU64,
    stale_files: AtomicU64,
    io_errors: AtomicU64,
    evictions: AtomicU64,
    spills: AtomicU64,
    healed_files: AtomicU64,
    build_stalls: AtomicU64,
}

/// A point-in-time snapshot of the store's instrumentation, cheap to copy
/// into reports ([`TraceStore::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Animations rendered from scratch this process: once per key, plus
    /// once per use of a [`TraceHandle::Uncached`] trace.
    pub renders: u64,
    /// Requests served from a resident [`TraceHandle::Memory`].
    pub mem_hits: u64,
    /// Requests served from a persisted file (loaded or streamed).
    pub disk_hits: u64,
    /// Frames rasterized.
    pub frames_rendered: u64,
    /// Textured fragments rasterized.
    pub fragments_rasterized: u64,
    /// Wall time spent rasterizing, in nanoseconds — what took the frames
    /// (persisting them, or a live replay's channels) included.
    pub render_nanos: u64,
    /// Texture taps replayed through cache simulations.
    pub taps_simulated: u64,
    /// Wall time spent simulating, in nanoseconds.
    pub sim_nanos: u64,
    /// L1 passes the replays actually ran: one per group of configurations
    /// that share an L1 and found no stored pass, so one per configuration
    /// when nothing shares and nothing is stored.
    pub l1_passes: u64,
    /// Configurations that replayed the L1 pass their group's leader
    /// recorded in the same run instead of running their own.
    pub l1_shared_members: u64,
    /// Configurations that replayed a pass an earlier run had stored
    /// beside the trace (`l1_passes + l1_shared_members +
    /// l1_passes_reused` = configurations replayed).
    pub l1_passes_reused: u64,
    /// Bytes persisted to trace files.
    pub bytes_written: u64,
    /// Bytes loaded back from trace files.
    pub bytes_read: u64,
    /// Files rejected by the codec (corrupt / truncated / wrong version).
    pub corrupt_files: u64,
    /// Files whose embedded key did not match (stale generator).
    pub stale_files: u64,
    /// Filesystem errors swallowed while persisting.
    pub io_errors: u64,
    /// Resident traces demoted to disk or dropped by the byte budget.
    pub evictions: u64,
    /// Renders that overflowed the budget mid-flight and kept only the
    /// on-disk copy.
    pub spills: u64,
    /// Damaged (corrupt or stale) persisted files replaced by a good copy
    /// from the re-render that followed.
    pub healed_files: u64,
    /// Requests that arrived while another thread was rendering the same
    /// key and had to block on its completion (queue stalls).
    pub build_stalls: u64,
    /// Decoded bytes currently resident, stored L1 passes included.
    pub resident_bytes: u64,
    /// The part of `resident_bytes` that is stored L1 passes.
    pub pass_bytes: u64,
}

impl StoreStats {
    /// Fragments rasterized per second of render wall time.
    pub fn fragments_per_sec(&self) -> f64 {
        per_sec(self.fragments_rasterized, self.render_nanos)
    }

    /// Texture taps *answered* per second of simulation wall time: a
    /// configuration that shared another's L1 pass, or replayed a stored
    /// one, still counts every tap of the trace, so this rises with
    /// [`l1_shared_members`](Self::l1_shared_members) and — by far more,
    /// since no L1 pass runs at all —
    /// [`l1_passes_reused`](Self::l1_passes_reused).
    pub fn taps_per_sec(&self) -> f64 {
        per_sec(self.taps_simulated, self.sim_nanos)
    }
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 / (nanos as f64 / 1e9)
    }
}

struct StoreInner {
    dir: Option<PathBuf>,
    budget: AtomicU64,
    clock: AtomicU64,
    mem_bytes: AtomicU64,
    /// The part of `mem_bytes` that is stored L1 passes.
    pass_bytes: AtomicU64,
    entries: Mutex<HashMap<TraceKey, Arc<KeyCell>>>,
    workloads: Mutex<HashMap<(WorkloadKind, WorkloadParams), Arc<Workload>>>,
    bundles: Mutex<HashMap<(WorkloadKind, WorkloadParams), Arc<StatsBundle>>>,
    counters: Counters,
    /// Telemetry recorder shared by the store and the replay machinery
    /// riding on it (defaults to disabled). Behind a mutex only because it
    /// is set after construction; cloned out once per operation.
    recorder: Mutex<Recorder>,
}

/// The render-once trace store. Cheap to clone (shared internally); see
/// the [module docs](self) for the full design.
#[derive(Clone)]
pub struct TraceStore {
    inner: Arc<StoreInner>,
}

impl TraceStore {
    fn new(dir: Option<PathBuf>) -> Self {
        Self {
            inner: Arc::new(StoreInner {
                dir,
                budget: AtomicU64::new(DEFAULT_MEM_BUDGET),
                clock: AtomicU64::new(0),
                mem_bytes: AtomicU64::new(0),
                pass_bytes: AtomicU64::new(0),
                entries: Mutex::new(HashMap::new()),
                workloads: Mutex::new(HashMap::new()),
                bundles: Mutex::new(HashMap::new()),
                counters: Counters::default(),
                recorder: Mutex::new(Recorder::disabled()),
            }),
        }
    }

    /// A store that memoizes within this process only.
    pub fn in_memory() -> Self {
        Self::new(None)
    }

    /// A store that additionally persists traces under `dir` (created on
    /// first write). Leftover temporary files from crashed writers are
    /// swept on construction.
    pub fn persistent(dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        sweep_stale_tmp(&dir);
        Self::new(Some(dir))
    }

    /// Overrides the in-memory byte budget (default 4 GiB).
    pub fn with_budget(self, bytes: u64) -> Self {
        self.inner.budget.store(bytes, Relaxed);
        self
    }

    /// Attaches a telemetry recorder: store operations emit spans and
    /// hit/miss counters to it, and the replay machinery running on this
    /// store instruments its engines through it. The default (a disabled
    /// recorder) records nothing.
    pub fn with_recorder(self, recorder: Recorder) -> Self {
        *lock_clean(&self.inner.recorder) = recorder;
        self
    }

    /// The attached telemetry recorder (disabled unless
    /// [`with_recorder`](Self::with_recorder) was called).
    pub fn recorder(&self) -> Recorder {
        lock_clean(&self.inner.recorder).clone()
    }

    /// The directory traces persist to, when persistence is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// Current instrumentation counters.
    pub fn snapshot(&self) -> StoreStats {
        let c = &self.inner.counters;
        StoreStats {
            renders: c.renders.load(Relaxed),
            mem_hits: c.mem_hits.load(Relaxed),
            disk_hits: c.disk_hits.load(Relaxed),
            frames_rendered: c.frames_rendered.load(Relaxed),
            fragments_rasterized: c.fragments_rasterized.load(Relaxed),
            render_nanos: c.render_nanos.load(Relaxed),
            taps_simulated: c.taps_simulated.load(Relaxed),
            sim_nanos: c.sim_nanos.load(Relaxed),
            l1_passes: c.l1_passes.load(Relaxed),
            l1_shared_members: c.l1_shared_members.load(Relaxed),
            l1_passes_reused: c.l1_passes_reused.load(Relaxed),
            bytes_written: c.bytes_written.load(Relaxed),
            bytes_read: c.bytes_read.load(Relaxed),
            corrupt_files: c.corrupt_files.load(Relaxed),
            stale_files: c.stale_files.load(Relaxed),
            io_errors: c.io_errors.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            spills: c.spills.load(Relaxed),
            healed_files: c.healed_files.load(Relaxed),
            build_stalls: c.build_stalls.load(Relaxed),
            resident_bytes: self.inner.mem_bytes.load(Relaxed),
            pass_bytes: self.inner.pass_bytes.load(Relaxed),
        }
    }

    /// Records simulation throughput (called by the run machinery after
    /// each replay).
    pub fn note_sim(&self, taps: u64, nanos: u64) {
        self.inner.counters.taps_simulated.fetch_add(taps, Relaxed);
        self.inner.counters.sim_nanos.fetch_add(nanos, Relaxed);
    }

    /// Records how a replay's configurations were answered (called by the
    /// run machinery before each replay): `passes` L1 passes ran,
    /// `shared_members` further configurations rode on one of them, and
    /// `reused` replayed a stored pass.
    pub fn note_l1_passes(&self, passes: u64, shared_members: u64, reused: u64) {
        let c = &self.inner.counters;
        c.l1_passes.fetch_add(passes, Relaxed);
        c.l1_shared_members.fetch_add(shared_members, Relaxed);
        c.l1_passes_reused.fetch_add(reused, Relaxed);
        let rec = self.recorder();
        rec.counter("replay/l1_passes").add(passes);
        rec.counter("replay/l1_shared_members").add(shared_members);
        rec.counter("replay/l1_passes_reused").add(reused);
    }

    /// Keeps `pass`, made over `set`'s frames, beside them for later
    /// replays ([`TraceSet::stored_pass`]). Its bytes count into the
    /// store's budget like the trace's own, but a pass is an optimisation,
    /// never worth a trace: one that does not fit is dropped and evicts
    /// nothing. So are a second pass over the same L1 (two replays raced to
    /// make it) and one whose trace has been demoted meanwhile.
    pub(crate) fn keep_pass(&self, set: &TraceSet, pass: Arc<L1Pass>) -> bool {
        let mut shelf = lock_clean(&set.passes);
        if shelf.demoted
            || pass.frame_count() != set.frames.len()
            || shelf.kept.iter().any(|p| p.same_l1_as(&pass))
        {
            return false;
        }
        let bytes = pass.bytes();
        let budget = self.inner.budget.load(Relaxed);
        let reserve = |held: u64| held.checked_add(bytes).filter(|&b| b <= budget);
        if self
            .inner
            .mem_bytes
            .fetch_update(Relaxed, Relaxed, reserve)
            .is_err()
        {
            return false;
        }
        self.inner.pass_bytes.fetch_add(bytes, Relaxed);
        self.recorder().counter("store/pass_bytes").add(bytes);
        shelf.kept.push(pass);
        true
    }

    /// The memoized workload for `kind` at `params`: builds the scene at
    /// most once per process (scenes carry full texture pyramids, so
    /// rebuilding them per experiment was measurable).
    pub fn workload(&self, kind: WorkloadKind, params: &WorkloadParams) -> Arc<Workload> {
        if let Some(w) = lock_clean(&self.inner.workloads).get(&(kind, *params)) {
            return w.clone();
        }
        // Build outside the lock; a concurrent duplicate build loses the
        // race below and is dropped.
        let built = Arc::new(kind.build(params));
        lock_clean(&self.inner.workloads)
            .entry((kind, *params))
            .or_insert(built)
            .clone()
    }

    /// Memoized Village workload.
    pub fn village(&self, params: &WorkloadParams) -> Arc<Workload> {
        self.workload(WorkloadKind::Village, params)
    }

    /// Memoized City workload.
    pub fn city(&self, params: &WorkloadParams) -> Arc<Workload> {
        self.workload(WorkloadKind::City, params)
    }

    /// Memoized future-City workload.
    pub fn future_city(&self, params: &WorkloadParams) -> Arc<Workload> {
        self.workload(WorkloadKind::FutureCity, params)
    }

    /// The trace for `w` under the given render options: served from
    /// memory or disk when available, rendered (exactly once, however many
    /// threads ask) otherwise. Infallible — every failure mode degrades to
    /// re-rendering, which is the pre-store behaviour.
    pub fn get_or_render(&self, w: &Workload, zprepass: bool, traversal: Traversal) -> TraceHandle {
        let key = TraceKey::of(w, zprepass, traversal);
        let cell = {
            let mut entries = lock_clean(&self.inner.entries);
            entries
                .entry(key)
                .or_insert_with(|| Arc::new(KeyCell::new()))
                .clone()
        };
        cell.last_used
            .store(self.inner.clock.fetch_add(1, Relaxed) + 1, Relaxed);
        let known_damaged = {
            let mut st = lock_clean(&cell.state);
            let mut stalled = false;
            loop {
                match &*st {
                    CellState::Ready(h) => {
                        self.count_hit(!matches!(h, TraceHandle::Memory(_)));
                        return h.clone();
                    }
                    CellState::Building => {
                        // Count the stall once per request, not per
                        // (possibly spurious) wakeup.
                        if !stalled {
                            stalled = true;
                            self.inner.counters.build_stalls.fetch_add(1, Relaxed);
                            self.recorder().counter("store/build_stalls").incr();
                        }
                        st = cell.cv.wait(st).unwrap_or_else(PoisonError::into_inner)
                    }
                    CellState::Empty | CellState::Damaged => {
                        let damaged = matches!(&*st, CellState::Damaged);
                        *st = CellState::Building;
                        break damaged;
                    }
                }
            }
        };
        let mut guard = BuildGuard {
            cell: &cell,
            armed: true,
        };
        let found = if known_damaged {
            LoadResult::Damaged
        } else {
            self.try_load(&key)
        };
        let handle = match found {
            LoadResult::Loaded(h) => h,
            LoadResult::Missing => self.render(&key, w, false),
            // The render re-persists over the damaged file: the heal.
            LoadResult::Damaged => self.render(&key, w, true),
        };
        *lock_clean(&cell.state) = CellState::Ready(handle.clone());
        guard.armed = false;
        drop(guard);
        cell.cv.notify_all();
        if let TraceHandle::Memory(set) = &handle {
            self.inner.mem_bytes.fetch_add(set.bytes, Relaxed);
            self.evict_to_budget(&key);
        }
        handle
    }

    /// The memoized §4 working-set statistics for a workload (computed
    /// from the cached late-depth scanline trace, never a dedicated
    /// render).
    pub fn stats_bundle(&self, w: &Workload) -> Arc<StatsBundle> {
        let id = (w.kind, w.params);
        if let Some(b) = lock_clean(&self.inner.bundles).get(&id) {
            return b.clone();
        }
        let (_, frames) = self.fold_frames(
            w,
            false,
            Traversal::Scanline,
            || (FrameStatsCollector::new(w.registry()), Vec::new()),
            |(collector, frames), t| frames.push(collector.process_frame(&t)),
        );
        let summary = WorkloadSummary::from_frames(&frames, w.width, w.height);
        let bundle = Arc::new(StatsBundle { frames, summary });
        lock_clean(&self.inner.bundles)
            .entry(id)
            .or_insert(bundle)
            .clone()
    }

    /// Mean per-frame depth complexity under the given prepass setting,
    /// derived from the cached trace (accumulated in frame order, so the
    /// result is bit-identical to the historical per-frame re-render
    /// loop).
    pub fn mean_depth_complexity(&self, w: &Workload, zprepass: bool) -> f64 {
        let (sum, frames) = self.fold_frames(
            w,
            zprepass,
            Traversal::Scanline,
            || (0.0f64, 0u64),
            |acc, t| {
                acc.0 += t.depth_complexity();
                acc.1 += 1;
            },
        );
        if frames == 0 {
            0.0
        } else {
            sum / frames as f64
        }
    }

    /// Folds every frame of the trace, decoded and in order, into a `fresh`
    /// accumulator. A disk stream that turns out damaged has been reported
    /// by the [feed](Self::feed): the fold starts over on what
    /// [`get_or_render`](Self::get_or_render) makes of the key next — the
    /// healing render — so no accumulator sees a frame twice.
    pub(crate) fn fold_frames<S>(
        &self,
        w: &Workload,
        zprepass: bool,
        traversal: Traversal,
        fresh: impl Fn() -> S,
        mut step: impl FnMut(&mut S, Arc<FrameTrace>),
    ) -> S {
        loop {
            let handle = self.get_or_render(w, zprepass, traversal);
            let mut acc = fresh();
            let fed = self.feed(&handle, w, zprepass, traversal, |frame| {
                step(&mut acc, frame.clone());
                ControlFlow::Continue(())
            });
            if fed.is_ok() {
                return acc;
            }
        }
    }

    /// Delivers every frame of the trace behind `handle` — what
    /// [`get_or_render`](Self::get_or_render) answered for `w` under these
    /// render options — to `visit`, decoded and in order, until it breaks:
    /// the one place a handle's three states turn into frames. A file is
    /// read through one reused buffer and each frame decoded once, here, to
    /// be shared by every consumer; the rest of the file is neither read nor
    /// validated once `visit` breaks. An uncached trace is rasterized live
    /// ([`rasterize`](Self::rasterize)), and a `visit` that breaks stops
    /// that render too: no frame after the one it broke on is delivered or
    /// counted.
    ///
    /// # Errors
    ///
    /// A streamed file found damaged ends the feed in [`RunError::Trace`] —
    /// `visit` has seen a prefix of the animation — after the store has
    /// counted it and forgotten the handle.
    pub(crate) fn feed(
        &self,
        handle: &TraceHandle,
        w: &Workload,
        zprepass: bool,
        traversal: Traversal,
        mut visit: impl FnMut(&Arc<FrameTrace>) -> ControlFlow<()>,
    ) -> Result<(), RunError> {
        let key = TraceKey::of(w, zprepass, traversal);
        match handle {
            TraceHandle::Memory(set) => {
                let _ = set.frames.iter().try_for_each(visit);
            }
            TraceHandle::Disk(path) => {
                let rec = self.recorder();
                let _span = rec.span(&format!("store/disk-stream/{}", key.kind.name()));
                stream_file(path, visit).map_err(|e| {
                    self.forget_damaged(&key);
                    RunError::Trace(format!("{}: {e}", path.display()))
                })?;
            }
            TraceHandle::Uncached => self.rasterize(&key, w, "render", |t| {
                visit(&Arc::new(t))?;
                ControlFlow::Continue(None)
            }),
        }
        Ok(())
    }

    /// A request answered without a render, from memory (`mem_hits`) or
    /// from a file (`disk_hits`): the one place a hit is counted, in the
    /// store's stats and its recorder alike.
    fn count_hit(&self, from_disk: bool) {
        let c = &self.inner.counters;
        let (tally, name) = if from_disk {
            (&c.disk_hits, "store/disk_hits")
        } else {
            (&c.mem_hits, "store/mem_hits")
        };
        tally.fetch_add(1, Relaxed);
        self.recorder().counter(name).incr();
    }

    /// The feed found `key`'s streamed file damaged: count it, and stop
    /// serving the handle — the key's next request re-renders over the file.
    fn forget_damaged(&self, key: &TraceKey) {
        let cell = lock_clean(&self.inner.entries).get(key).cloned();
        let Some(cell) = cell else { return };
        let mut st = lock_clean(&cell.state);
        // Concurrent visitors of one damaged file report it once.
        if matches!(&*st, CellState::Ready(TraceHandle::Disk(_))) {
            *st = CellState::Damaged;
            self.inner.counters.corrupt_files.fetch_add(1, Relaxed);
        }
    }

    /// Rasterizes `key`'s animation into `sink`, in frame order, until it
    /// breaks (it may hand a request buffer back for the next frame): the
    /// one place the store renders, so the one place a render is counted
    /// and timed. The render runs on up to [`max_replay_jobs`] threads
    /// ([`Workload::render_animation_feed`]); `frames_rendered` and
    /// `fragments_rasterized` count the frames delivered to `sink`.
    fn rasterize(
        &self,
        key: &TraceKey,
        w: &Workload,
        why: &str,
        mut sink: impl FnMut(FrameTrace) -> ControlFlow<(), Option<Vec<PixelRequest>>>,
    ) {
        let rec = self.recorder();
        let _span = rec.span(&format!("store/{why}/{}", key.kind.name()));
        rec.counter("store/renders").incr();
        let c = &self.inner.counters;
        c.renders.fetch_add(1, Relaxed);
        let start = Instant::now();
        let (mut frames, mut fragments) = (0u64, 0u64);
        w.render_animation_feed(
            FilterMode::Point,
            key.zprepass,
            key.traversal,
            max_replay_jobs(),
            |t| {
                frames += 1;
                fragments += t.pixels_rendered;
                sink(t)
            },
        );
        c.frames_rendered.fetch_add(frames, Relaxed);
        c.fragments_rasterized.fetch_add(fragments, Relaxed);
        c.render_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    /// Attempts to serve `key` from its persisted file. Any codec error —
    /// corruption, truncation, a foreign format version — is counted and
    /// answered with [`LoadResult::Damaged`] (re-render + heal), never a
    /// panic.
    fn try_load(&self, key: &TraceKey) -> LoadResult {
        let Some(path) = self.file_path(key) else {
            return LoadResult::Missing;
        };
        let Ok(file) = File::open(&path) else {
            return LoadResult::Missing;
        };
        let file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
        let c = &self.inner.counters;
        let mut reader = match TraceFileReader::new(BufReader::new(file)) {
            Ok(r) => r,
            Err(_) => {
                c.corrupt_files.fetch_add(1, Relaxed);
                return LoadResult::Damaged;
            }
        };
        if reader.key() != key.render() {
            c.stale_files.fetch_add(1, Relaxed);
            return LoadResult::Damaged;
        }
        if file_len > self.inner.budget.load(Relaxed) {
            // Too big to decode into memory: stream it per replay.
            self.count_hit(true);
            return LoadResult::Loaded(TraceHandle::Disk(path));
        }
        let mut frames = Vec::with_capacity(reader.frame_count() as usize);
        let mut bytes = 0u64;
        for _ in 0..reader.frame_count() {
            match reader.read_frame() {
                Ok(t) => {
                    bytes += frame_cost(&t);
                    frames.push(Arc::new(t));
                }
                Err(_) => {
                    c.corrupt_files.fetch_add(1, Relaxed);
                    return LoadResult::Damaged;
                }
            }
        }
        self.count_hit(true);
        c.bytes_read.fetch_add(file_len, Relaxed);
        LoadResult::Loaded(TraceHandle::Memory(Arc::new(TraceSet::new(frames, bytes))))
    }

    /// Renders the animation once, persisting frames as they stream out
    /// (when a directory is configured) and keeping them resident while
    /// the budget allows. Returned request buffers are recycled into the
    /// rasterizer whenever a frame is not being retained. `healing` marks
    /// a render replacing a damaged persisted file: successfully
    /// re-persisting then counts as a heal.
    fn render(&self, key: &TraceKey, w: &Workload, healing: bool) -> TraceHandle {
        let rec = self.recorder();
        let c = &self.inner.counters;
        let budget = self.inner.budget.load(Relaxed);
        let mut final_path = self.file_path(key);

        let mut writer = None;
        let mut tmp_path: Option<PathBuf> = None;
        if let (Some(path), Some(dir)) = (&final_path, &self.inner.dir) {
            let _ = fs::create_dir_all(dir);
            let tmp = tmp_file_path(path);
            match File::create(&tmp) {
                Ok(f) => {
                    match TraceFileWriter::new(BufWriter::new(f), &key.render(), w.frame_count) {
                        Ok(wr) => {
                            writer = Some(wr);
                            tmp_path = Some(tmp);
                        }
                        Err(_) => {
                            c.io_errors.fetch_add(1, Relaxed);
                            let _ = fs::remove_file(&tmp);
                        }
                    }
                }
                Err(_) => {
                    c.io_errors.fetch_add(1, Relaxed);
                }
            }
        }

        let mut frames: Vec<Arc<FrameTrace>> = Vec::with_capacity(w.frame_count as usize);
        let mut bytes = 0u64;
        let mut keep_in_memory = true;
        self.rasterize(key, w, if healing { "heal" } else { "render" }, |t| {
            if let Some(wr) = writer.as_mut() {
                if wr.write_frame(&t).is_err() {
                    c.io_errors.fetch_add(1, Relaxed);
                    writer = None;
                }
            }
            let cost = frame_cost(&t);
            if keep_in_memory && bytes + cost > budget {
                keep_in_memory = false;
                frames.clear();
                frames.shrink_to_fit();
                bytes = 0;
                if writer.is_some() {
                    c.spills.fetch_add(1, Relaxed);
                }
            }
            ControlFlow::Continue(if keep_in_memory {
                bytes += cost;
                frames.push(Arc::new(t));
                None
            } else {
                Some(t.requests)
            })
        });

        // A writer only exists alongside its tmp and final paths (set as
        // one unit above), so destructure the trio instead of unwrapping.
        let mut persisted_path = None;
        if let (Some(wr), Some(tmp), Some(path)) = (writer, tmp_path.take(), final_path.take()) {
            match wr.finish() {
                Ok(_) => {
                    if fs::rename(&tmp, &path).is_ok() {
                        if healing {
                            c.healed_files.fetch_add(1, Relaxed);
                            rec.counter("store/healed_files").incr();
                        }
                        if let Ok(meta) = fs::metadata(&path) {
                            c.bytes_written.fetch_add(meta.len(), Relaxed);
                        }
                        persisted_path = Some(path);
                    } else {
                        c.io_errors.fetch_add(1, Relaxed);
                        let _ = fs::remove_file(&tmp);
                    }
                }
                Err(_) => {
                    c.io_errors.fetch_add(1, Relaxed);
                    let _ = fs::remove_file(&tmp);
                }
            }
        }
        if let Some(tmp) = tmp_path {
            let _ = fs::remove_file(tmp);
        }

        if keep_in_memory {
            TraceHandle::Memory(Arc::new(TraceSet::new(frames, bytes)))
        } else if let Some(path) = persisted_path {
            TraceHandle::Disk(path)
        } else {
            // Nowhere to put it: callers render live, as before the store.
            TraceHandle::Uncached
        }
    }

    /// Demotes least-recently-used resident traces until the budget holds,
    /// sparing `keep` (the trace being returned right now). Lock order is
    /// entries map → cell, matching every other path.
    fn evict_to_budget(&self, keep: &TraceKey) {
        let budget = self.inner.budget.load(Relaxed);
        if self.inner.mem_bytes.load(Relaxed) <= budget {
            return;
        }
        let mut candidates: Vec<(u64, TraceKey, Arc<KeyCell>)> = {
            let entries = lock_clean(&self.inner.entries);
            entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .map(|(k, cell)| (cell.last_used.load(Relaxed), *k, cell.clone()))
                .collect()
        };
        candidates.sort_by_key(|(stamp, _, _)| *stamp);
        for (_, key, cell) in candidates {
            if self.inner.mem_bytes.load(Relaxed) <= budget {
                break;
            }
            let mut st = lock_clean(&cell.state);
            if let CellState::Ready(TraceHandle::Memory(set)) = &*st {
                // The passes made over a trace leave with it.
                let passes = set.drop_passes();
                let freed = set.bytes + passes;
                *st = match self.file_path(&key) {
                    Some(path) if path.exists() => CellState::Ready(TraceHandle::Disk(path)),
                    _ => CellState::Empty,
                };
                drop(st);
                self.inner.pass_bytes.fetch_sub(passes, Relaxed);
                self.inner.mem_bytes.fetch_sub(freed, Relaxed);
                self.inner.counters.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    fn file_path(&self, key: &TraceKey) -> Option<PathBuf> {
        self.inner.dir.as_ref().map(|d| d.join(file_name(key)))
    }
}

/// The feed's disk arm: reads `path` frame by frame into one reused
/// buffer, decodes each frame once and hands it to `visit` until it breaks.
fn stream_file(
    path: &Path,
    mut visit: impl FnMut(&Arc<FrameTrace>) -> ControlFlow<()>,
) -> Result<(), CodecError> {
    let mut reader = TraceFileReader::new(BufReader::new(File::open(path)?))?;
    let mut scratch = Vec::new();
    for _ in 0..reader.frame_count() {
        let frame = Arc::new(reader.read_frame_into(&mut scratch)?.into_frame());
        if visit(&frame).is_break() {
            break;
        }
    }
    Ok(())
}

fn file_name(key: &TraceKey) -> String {
    let p = &key.params;
    format!(
        "{}-{}x{}-f{}-ts{}-s{:x}-{}-{}.mltct",
        key.kind.name(),
        p.width,
        p.height,
        p.frames,
        p.texture_scale,
        p.seed,
        if key.zprepass { "zpre" } else { "late" },
        traversal_tag(key.traversal)
    )
}

fn tmp_file_path(final_path: &Path) -> PathBuf {
    let mut name = final_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    final_path.with_file_name(name)
}

/// Deletes temporary files abandoned by a previous crashed writer.
fn sweep_stale_tmp(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        if name.to_string_lossy().contains(".mltct.tmp.") {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_village() -> Workload {
        Workload::village(&WorkloadParams::tiny())
    }

    fn frame_counts(h: &TraceHandle) -> usize {
        match h {
            TraceHandle::Memory(set) => set.frames.len(),
            other => panic!("expected a resident handle, got {other:?}"),
        }
    }

    #[test]
    fn second_request_is_a_memory_hit() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let a = store.get_or_render(&w, false, Traversal::Scanline);
        let b = store.get_or_render(&w, false, Traversal::Scanline);
        assert_eq!(frame_counts(&a), w.frame_count as usize);
        let stats = store.snapshot();
        assert_eq!(stats.renders, 1);
        assert_eq!(stats.mem_hits, 1);
        assert_eq!(stats.frames_rendered, w.frame_count as u64);
        assert!(stats.fragments_rasterized > 0);
        // The two handles share the same frames.
        match (&a, &b) {
            (TraceHandle::Memory(x), TraceHandle::Memory(y)) => {
                assert!(Arc::ptr_eq(x, y));
            }
            other => panic!("expected resident handles, got {other:?}"),
        }
    }

    #[test]
    fn distinct_options_are_distinct_keys() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        store.get_or_render(&w, false, Traversal::Scanline);
        store.get_or_render(&w, true, Traversal::Scanline);
        store.get_or_render(&w, false, Traversal::Tiled(8));
        assert_eq!(store.snapshot().renders, 3);
    }

    #[test]
    fn persisted_trace_survives_a_new_store() {
        let dir = std::env::temp_dir().join(format!("mltc-store-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let w = tiny_village();
        {
            let store = TraceStore::persistent(&dir);
            store.get_or_render(&w, false, Traversal::Scanline);
            let s = store.snapshot();
            assert_eq!(s.renders, 1);
            assert!(s.bytes_written > 0, "cold run must persist");
        }
        let store = TraceStore::persistent(&dir);
        let h = store.get_or_render(&w, false, Traversal::Scanline);
        let s = store.snapshot();
        assert_eq!(s.renders, 0, "warm run must not rasterize");
        assert_eq!(s.disk_hits, 1);
        assert!(s.bytes_read > 0);
        assert_eq!(frame_counts(&h), w.frame_count as usize);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_counted_and_rerendered() {
        let dir = std::env::temp_dir().join(format!("mltc-store-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let w = tiny_village();
        {
            let store = TraceStore::persistent(&dir);
            store.get_or_render(&w, false, Traversal::Scanline);
        }
        // Truncate the persisted file mid-body.
        let key = TraceKey::of(&w, false, Traversal::Scanline);
        let path = dir.join(file_name(&key));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let store = TraceStore::persistent(&dir);
        let h = store.get_or_render(&w, false, Traversal::Scanline);
        let s = store.snapshot();
        assert_eq!(s.corrupt_files, 1);
        assert_eq!(s.renders, 1, "corruption falls back to rendering");
        assert_eq!(s.healed_files, 1, "the re-render re-persisted the file");
        assert_eq!(frame_counts(&h), w.frame_count as usize);
        // The re-render healed the file.
        let healed = TraceStore::persistent(&dir);
        healed.get_or_render(&w, false, Traversal::Scanline);
        let hs = healed.snapshot();
        assert_eq!(hs.renders, 0);
        assert_eq!(hs.healed_files, 0, "a clean load is not a heal");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recorder_sees_store_spans_and_hit_counters() {
        let rec = Recorder::enabled();
        let store = TraceStore::in_memory().with_recorder(rec.clone());
        let w = tiny_village();
        store.get_or_render(&w, false, Traversal::Scanline);
        store.get_or_render(&w, false, Traversal::Scanline);
        let snap = rec.snapshot();
        assert_eq!(snap.counters["store/renders"], 1);
        assert_eq!(snap.counters["store/mem_hits"], 1);
        assert!(
            snap.spans.iter().any(|s| s.name == "store/render/village"),
            "render span recorded, got {:?}",
            snap.spans
        );
        // And the store's own counters agree with the recorder's, also for
        // the hits a fresh store answers from the files of an earlier one.
        let agree = |store: &TraceStore, rec: &Recorder| {
            let snap = rec.snapshot();
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            let stats = store.snapshot();
            assert_eq!(stats.renders, counter("store/renders"));
            assert_eq!(stats.mem_hits, counter("store/mem_hits"));
            assert_eq!(stats.disk_hits, counter("store/disk_hits"));
            assert_eq!(stats.build_stalls, counter("store/build_stalls"));
            assert_eq!(stats.healed_files, counter("store/healed_files"));
        };
        agree(&store, &rec);

        let dir = std::env::temp_dir().join(format!("mltc-store-rec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cold_rec = Recorder::enabled();
        let cold = TraceStore::persistent(&dir).with_recorder(cold_rec.clone());
        cold.get_or_render(&w, false, Traversal::Scanline);
        agree(&cold, &cold_rec);
        let warm_rec = Recorder::enabled();
        let warm = TraceStore::persistent(&dir).with_recorder(warm_rec.clone());
        warm.get_or_render(&w, false, Traversal::Scanline);
        warm.get_or_render(&w, false, Traversal::Scanline);
        let stats = warm.snapshot();
        assert_eq!((stats.renders, stats.disk_hits, stats.mem_hits), (0, 1, 1));
        agree(&warm, &warm_rec);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn over_budget_in_memory_store_degrades_to_uncached() {
        let store = TraceStore::in_memory().with_budget(64);
        let w = tiny_village();
        let h = store.get_or_render(&w, false, Traversal::Scanline);
        assert!(matches!(h, TraceHandle::Uncached), "got {h:?}");
        // Sticky: asking again does not re-render eagerly.
        let h2 = store.get_or_render(&w, false, Traversal::Scanline);
        assert!(matches!(h2, TraceHandle::Uncached));
        assert_eq!(store.snapshot().renders, 1);
    }

    #[test]
    fn a_live_render_stops_when_its_visitor_breaks() {
        let w = tiny_village();
        for jobs in [1, 2] {
            crate::runner::set_max_replay_jobs(jobs);
            let store = TraceStore::in_memory();
            let mut seen = Vec::new();
            let fed = store.feed(
                &TraceHandle::Uncached,
                &w,
                false,
                Traversal::Scanline,
                |t| {
                    seen.push(t.frame);
                    ControlFlow::Break(())
                },
            );
            assert!(fed.is_ok());
            assert_eq!(seen, [0], "jobs {jobs}");
            let s = store.snapshot();
            assert_eq!((s.renders, s.frames_rendered), (1, 1), "jobs {jobs}");

            // A visitor that panics reaches the caller as that panic.
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = store.feed(
                    &TraceHandle::Uncached,
                    &w,
                    false,
                    Traversal::Scanline,
                    |_| panic!("visitor gave up"),
                );
            }));
            let payload = caught.expect_err("the visitor's panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"visitor gave up"));
        }
        crate::runner::set_max_replay_jobs(0);
    }

    #[test]
    fn over_budget_persistent_store_streams_from_disk() {
        let dir = std::env::temp_dir().join(format!("mltc-store-budget-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = TraceStore::persistent(&dir).with_budget(64);
        let w = tiny_village();
        let h = store.get_or_render(&w, false, Traversal::Scanline);
        match &h {
            TraceHandle::Disk(_) => {
                let mut n = 0;
                let fed = store.feed(&h, &w, false, Traversal::Scanline, |_| {
                    n += 1;
                    ControlFlow::Continue(())
                });
                assert!(fed.is_ok());
                assert_eq!(n, w.frame_count);
            }
            other => panic!("expected a disk handle, got {other:?}"),
        }
        assert_eq!(store.snapshot().spills, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_demotes_the_least_recently_used_key() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let a = store.get_or_render(&w, false, Traversal::Scanline);
        let a_bytes = match &a {
            TraceHandle::Memory(set) => set.bytes,
            other => panic!("expected resident, got {other:?}"),
        };
        // Shrink the budget so the *next* resident trace evicts this one.
        let store = store.with_budget(a_bytes);
        store.get_or_render(&w, true, Traversal::Scanline);
        let s = store.snapshot();
        assert!(s.evictions >= 1, "stats: {s:?}");
        // The evicted key re-renders on demand (no file to demote to).
        store.get_or_render(&w, false, Traversal::Scanline);
        assert_eq!(store.snapshot().renders, 3);
    }

    #[test]
    fn passes_are_kept_once_within_budget_and_only_beside_a_resident_trace() {
        use mltc_core::{EngineConfig, L1Config};
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let TraceHandle::Memory(set) = store.get_or_render(&w, false, Traversal::Scanline) else {
            panic!("expected a resident handle");
        };
        let engine = |kb| {
            let cfg = EngineConfig {
                l1: L1Config::kb(kb),
                ..EngineConfig::default()
            };
            SimEngine::new(cfg, w.registry())
        };
        let record = |kb, frames: &[Arc<FrameTrace>]| {
            let mut leader = engine(kb);
            let mut recorder = leader.record_l1_pass(FilterMode::Bilinear);
            for t in frames {
                leader.try_run_frame_recorded_as(t, &mut recorder).unwrap();
            }
            Arc::new(recorder.finish(&leader).expect("a plain leader records"))
        };
        let bytes = record(2, &set.frames).bytes();
        assert!(store.keep_pass(&set, record(2, &set.frames)));
        // Two replays raced to make the same pass: one is kept.
        assert!(!store.keep_pass(&set, record(2, &set.frames)));
        // A pass over other frames than the trace's is nobody's.
        assert!(!store.keep_pass(&set, record(16, &set.frames[..1])));
        let s = store.snapshot();
        assert_eq!((s.pass_bytes, s.resident_bytes), (bytes, set.bytes + bytes));
        assert!(set.stored_pass(&engine(2), FilterMode::Bilinear).is_some());
        assert!(set.stored_pass(&engine(2), FilterMode::Point).is_none());
        assert!(set.stored_pass(&engine(16), FilterMode::Bilinear).is_none());

        // No room for a second one: it is dropped, and evicts nothing.
        let store = store.with_budget(set.bytes + bytes + 16);
        assert!(!store.keep_pass(&set, record(16, &set.frames)));
        let s = store.snapshot();
        assert_eq!((s.pass_bytes, s.evictions), (bytes, 0));

        // The next trace demotes this one, and its pass leaves with it —
        // also for a replay that still holds the frames.
        let TraceHandle::Memory(next) = store.get_or_render(&w, true, Traversal::Scanline) else {
            panic!("expected a resident handle");
        };
        let s = store.snapshot();
        assert_eq!((s.evictions, s.pass_bytes), (1, 0));
        assert_eq!(s.resident_bytes, next.bytes);
        assert!(set.stored_pass(&engine(2), FilterMode::Bilinear).is_none());
        assert!(!store.keep_pass(&set, record(2, &set.frames)));
        assert_eq!(store.snapshot().resident_bytes, next.bytes);
    }

    #[test]
    fn stats_bundle_is_memoized_and_matches_a_direct_run() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let a = store.stats_bundle(&w);
        let b = store.stats_bundle(&w);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.snapshot().renders, 1);

        let mut collector = FrameStatsCollector::new(w.registry());
        let mut frames = Vec::new();
        w.render_animation(FilterMode::Point, false, |t| {
            frames.push(collector.process_frame(&t));
        });
        let direct = WorkloadSummary::from_frames(&frames, w.width, w.height);
        assert_eq!(a.frames.len(), frames.len());
        assert_eq!(
            a.summary.depth_complexity.to_bits(),
            direct.depth_complexity.to_bits()
        );
        assert_eq!(
            a.summary.expected_working_set.to_bits(),
            direct.expected_working_set.to_bits()
        );
    }

    #[test]
    fn mean_depth_complexity_matches_per_frame_rendering() {
        let store = TraceStore::in_memory();
        let w = tiny_village();
        let via_store = store.mean_depth_complexity(&w, true);
        let mut acc = 0.0;
        let mut n = 0u32;
        for f in 0..w.frame_count {
            acc += w
                .trace_frame_zprepass(f, FilterMode::Point)
                .depth_complexity();
            n += 1;
        }
        let direct = acc / n as f64;
        assert_eq!(via_store.to_bits(), direct.to_bits());
    }

    #[test]
    fn workloads_are_memoized() {
        let store = TraceStore::in_memory();
        let p = WorkloadParams::tiny();
        let a = store.village(&p);
        let b = store.village(&p);
        assert!(Arc::ptr_eq(&a, &b));
        let c = store.city(&p);
        assert_eq!(c.kind, WorkloadKind::City);
    }

    #[test]
    fn concurrent_requests_render_once() {
        let store = TraceStore::in_memory();
        let w = Arc::new(tiny_village());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = store.clone();
                let w = w.clone();
                scope.spawn(move || {
                    store.get_or_render(&w, false, Traversal::Scanline);
                });
            }
        });
        assert_eq!(store.snapshot().renders, 1);
    }

    #[test]
    fn key_strings_and_file_names_are_distinct_per_key() {
        let w = tiny_village();
        let keys = [
            TraceKey::of(&w, false, Traversal::Scanline),
            TraceKey::of(&w, true, Traversal::Scanline),
            TraceKey::of(&w, false, Traversal::Tiled(8)),
            TraceKey::of(&w, false, Traversal::Tiled(16)),
        ];
        let mut strings: Vec<String> = keys.iter().map(TraceKey::render).collect();
        let mut names: Vec<String> = keys.iter().map(file_name).collect();
        strings.sort();
        strings.dedup();
        names.sort();
        names.dedup();
        assert_eq!(strings.len(), keys.len());
        assert_eq!(names.len(), keys.len());
        assert!(names.iter().all(|n| n.ends_with(".mltct")));
    }
}
