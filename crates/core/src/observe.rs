//! The observer stream: what the frame loops tell telemetry and the timing
//! overlay, as one log of compact events, and the two schedules its
//! consumer runs on.
//!
//! Telemetry ([`EngineTelemetry`]) and the timing overlay ([`TimingSim`])
//! only observe the hierarchy: nothing they compute reaches back into a
//! cache, a counter or the host link. So the frame loops do not call them.
//! Under the one observing sink, `Logged` (`crate::tap`), the loops append
//! what they did to an [`EventLog`] of fixed-size word chunks:
//!
//! * a wide commit — `tid`, the lane count, the distinct tags and their
//!   last lanes, and the corner quads only when locality capture wants
//!   them;
//! * a wide decline;
//! * a fragment opening on the scalar taps;
//! * each scalar tap — `(tid, m, u, v)` and its [`AccessTrace`], and with
//!   an L2 probe the [`L2Probe`] and its clock snapshot.
//!
//! [`Observers`] replays those events, in order, into the telemetry's and
//! the overlay's methods for them, so every export and every cycle count is
//! the same whichever thread consumes them. Each observed frame call consumes them
//! on one of two schedules ([`observed_frame`]):
//!
//! * **on a helper**: a scoped thread that holds a [`jobs`](crate::jobs)
//!   permit — taken only when the cap is at least two and a slot is free —
//!   and receives full chunks over a bounded channel while the replaying
//!   thread fills the next; used chunks return over a second channel, so a
//!   frame keeps at most [`POOL`] chunks alive. The helper is joined when
//!   the frame loop returns, and a panic in it is re-raised on the caller;
//! * **inline**: the replaying thread consumes each chunk as soon as it
//!   is full.
//!
//! Either way the telemetry publishes into its recorder once the last
//! event is consumed, before the call returns.

use crate::engine::AccessTrace;
use crate::jobs::{self, Permit};
use crate::latency::{MissOutcome, TimingSim};
use crate::tap::L2Probe;
use crate::telemetry::EngineTelemetry;
use crate::{L2AccessTrace, L2Outcome, BATCH_LANES};
use mltc_cache::ClockStats;
use mltc_texture::TextureId;
use mltc_trace::LevelQuad;
use std::sync::mpsc::sync_channel;

/// Words per chunk.
const CHUNK_WORDS: usize = 8192;
/// Full chunks queued for the helper.
const IN_FLIGHT: usize = 4;
/// Chunks one helper-consumed frame call allocates at most: one filling,
/// the queue, one being consumed.
const POOL: usize = IN_FLIGHT + 2;
/// The longest event: a commit's header, eight tags and two quads.
const MAX_EVENT_WORDS: usize = 1 + BATCH_LANES + 6;

// Event kinds, the low three bits of an event's first word.
const COMMIT: u64 = 0;
const DECLINE: u64 = 1;
const OPEN: u64 = 2;
const HIT: u64 = 3;
const MISS: u64 = 4;

/// One chunk of the log: `words[..len]` are events. Fixed-size, so an
/// event is written as a whole array of its longest form and only its
/// length counted.
pub(crate) struct Chunk {
    words: Box<[u64; CHUNK_WORDS]>,
    len: usize,
}

impl Chunk {
    fn new() -> Self {
        let words = vec![0; CHUNK_WORDS].into_boxed_slice();
        Self {
            words: words.try_into().expect("CHUNK_WORDS words"),
            len: 0,
        }
    }

    fn events(&self) -> &[u64] {
        &self.words[..self.len]
    }
}

/// The event writer the `Logged` sink appends to: one chunk, handed to
/// the schedule when it cannot take another event.
pub(crate) struct EventLog<'a> {
    chunk: Chunk,
    /// Whether commits carry their corner quads (locality capture is on).
    quads: bool,
    hand_over: &'a mut dyn FnMut(&mut Chunk),
}

impl EventLog<'_> {
    /// Runs `produce` against a fresh log and hands its last chunk over.
    fn run<R>(
        quads: bool,
        hand_over: &mut dyn FnMut(&mut Chunk),
        produce: impl FnOnce(&mut EventLog<'_>) -> R,
    ) -> R {
        let mut log = EventLog {
            chunk: Chunk::new(),
            quads,
            hand_over,
        };
        let out = produce(&mut log);
        if log.chunk.len > 0 {
            (log.hand_over)(&mut log.chunk);
        }
        out
    }

    /// Appends the first `len` words of `event`, the last part of an
    /// event.
    #[inline(always)]
    fn put<const N: usize>(&mut self, event: [u64; N], len: usize) {
        self.write(event, len);
        if self.chunk.len > CHUNK_WORDS - MAX_EVENT_WORDS {
            self.spill();
        }
    }

    /// Appends the first `len` words of `event`, a part of an event that
    /// [`put`](Self::put) ends: a chunk is handed over only between events.
    #[inline(always)]
    fn write<const N: usize>(&mut self, event: [u64; N], len: usize) {
        let at = self.chunk.len;
        self.chunk.words[at..at + N].copy_from_slice(&event);
        self.chunk.len = at + len;
    }

    #[cold]
    #[inline(never)]
    fn spill(&mut self) {
        (self.hand_over)(&mut self.chunk);
    }

    /// A fragment committed wide: `nq` quads on `tid`, distinct tags
    /// `uniq[..k]` with last lanes `last[..k]`.
    #[inline(always)]
    pub(crate) fn commit(
        &mut self,
        tid: TextureId,
        quads: &[LevelQuad; 2],
        nq: usize,
        uniq: &[u64; BATCH_LANES],
        last: &[u32; BATCH_LANES],
        k: usize,
    ) {
        // Every lane's last-lane entry, the stale ones past `k` included:
        // a fixed shift-or the consumer reads only `k` of.
        let mut lanes = 0u64;
        for (j, &l) in last.iter().enumerate() {
            lanes |= ((l & 7) as u64) << (3 * j);
        }
        let mut ev = [0u64; 1 + BATCH_LANES];
        ev[0] = COMMIT
            | ((nq as u64 - 1) << 3)
            | ((k as u64 - 1) << 4)
            | ((self.quads as u64) << 7)
            | (lanes << 8)
            | ((tid.index() as u64) << 32);
        ev[1..].copy_from_slice(uniq);
        if !self.quads {
            return self.put(ev, 1 + k);
        }
        self.write(ev, 1 + k);
        let word = |q: &LevelQuad| {
            [
                q.m as u64 | (q.xa as u64) << 32,
                q.xb as u64 | (q.ya as u64) << 32,
                q.yb as u64,
            ]
        };
        let ([a, b, c], [d, e, f]) = (word(&quads[0]), word(&quads[1]));
        self.put([a, b, c, d, e, f], 3 * nq);
    }

    /// A fragment declined the wide commit.
    #[inline(always)]
    pub(crate) fn decline(&mut self) {
        self.put([DECLINE], 1);
    }

    /// A fragment opens on scalar taps.
    #[inline(always)]
    pub(crate) fn open(&mut self) {
        self.put([OPEN], 1);
    }

    /// One scalar tap and what it did.
    #[inline(always)]
    pub(crate) fn tap(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        trace: &AccessTrace,
        probe: Option<&L2Probe>,
    ) {
        let head = (m as u64) << 16 | (tid.index() as u64) << 32;
        let at = u as u64 | (v as u64) << 32;
        if trace.l1_hit {
            return self.put([HIT | head, at], 2);
        }
        self.miss(head, at, trace, probe);
    }

    /// [`tap`](Self::tap) for an L1 miss, out of line like the tap body's
    /// own miss path.
    #[inline(never)]
    fn miss(&mut self, head: u64, at: u64, trace: &AccessTrace, probe: Option<&L2Probe>) {
        let tlb = trace.tlb_hit.map_or(0, |h| 2 | h as u64);
        let l2 = probe.map_or(0, |p| match p.trace.outcome {
            L2Outcome::FullHit => 1,
            L2Outcome::PartialHit => 2,
            L2Outcome::FullMiss => 3,
        });
        let evicted = probe.and_then(|p| p.trace.evicted_page);
        let flags = tlb
            | l2 << 2
            | (evicted.is_some() as u64) << 4
            | (trace.failed as u64) << 5
            | (trace.degraded as u64) << 6
            | (trace.dropped as u64) << 7;
        let mut ev = [0u64; 8];
        ev[0] = MISS | flags << 3 | head;
        ev[1] = at;
        ev[2] = trace.host_bytes;
        ev[3] = trace.retries as u64 | (evicted.unwrap_or(0) as u64) << 32;
        let len = match probe {
            None => 4,
            Some(p) => {
                ev[4] = p.pt_index as u64 | (p.trace.block as u64) << 32;
                ev[5] = p.clock.searches;
                ev[6] = p.clock.entries_examined;
                ev[7] = p.clock.max_search;
                8
            }
        };
        self.put(ev, len);
    }
}

/// A consumer of the event log's chunks.
pub(crate) trait Consume: Send {
    fn consume(&mut self, words: &[u64]);
}

/// The observers of one engine for one replay call, as the consumer of its
/// event log: each event goes, in log order, to the telemetry's and the
/// timing overlay's method for it.
pub(crate) struct Observers<'a> {
    pub(crate) tel: Option<&'a mut EngineTelemetry>,
    pub(crate) timing: Option<&'a mut TimingSim>,
}

impl<'a> Observers<'a> {
    /// Telemetry alone.
    pub(crate) fn of(tel: &'a mut EngineTelemetry) -> Self {
        Self {
            tel: Some(tel),
            timing: None,
        }
    }

    /// One scalar tap's outcome: the timing overlay's sink entries and the
    /// telemetry tally. The per-access entries call it straight after
    /// their tap.
    #[inline(always)]
    pub(crate) fn tap(
        &mut self,
        tid: TextureId,
        m: u32,
        u: u32,
        v: u32,
        trace: &AccessTrace,
        probe: Option<&L2Probe>,
    ) {
        if let Some(sim) = &mut self.timing {
            if trace.l1_hit {
                sim.observe_hit(tid, m, u, v);
            } else {
                sim.observe_miss(tid, m, u, v, MissOutcome::of(trace));
            }
        }
        if let Some(tel) = &mut self.tel {
            tel.on_tap(tid, m, u, v, trace, probe);
        }
    }

    /// Publishes what the telemetry tallied; the schedules call it once
    /// the last event is consumed.
    pub(crate) fn publish(&mut self) {
        if let Some(tel) = &mut self.tel {
            tel.publish();
        }
    }

    /// The wide commit that starts `w`; returns its length in words.
    fn commit(&mut self, w: &[u64]) -> usize {
        let head = w[0];
        let nq = ((head >> 3) & 1) as usize + 1;
        let k = ((head >> 4) & 7) as usize + 1;
        let n = (nq * 4) as u64;
        let tid = TextureId::from_index((head >> 32) as u32);
        let with_quads = head & (1 << 7) != 0;
        let mut uniq = [0u64; BATCH_LANES];
        let mut last = [0u32; BATCH_LANES];
        uniq[..k].copy_from_slice(&w[1..=k]);
        for (j, l) in last[..k].iter_mut().enumerate() {
            *l = ((head >> (8 + 3 * j)) & 7) as u32;
        }
        if let Some(sim) = &mut self.timing {
            sim.open_fragment();
            sim.commit_hits(&uniq, &last, k, n);
        }
        if let Some(tel) = &mut self.tel {
            let mut quads = [LevelQuad::default(); 2];
            if with_quads {
                for (i, q) in quads[..nq].iter_mut().enumerate() {
                    let at = &w[1 + k + 3 * i..];
                    *q = LevelQuad {
                        m: at[0] as u32,
                        xa: (at[0] >> 32) as u32,
                        xb: at[1] as u32,
                        ya: (at[1] >> 32) as u32,
                        yb: at[2] as u32,
                    };
                }
            }
            tel.on_wide_commit(tid, &quads, nq, n);
        }
        1 + k + if with_quads { 3 * nq } else { 0 }
    }

    /// The scalar tap that starts `w`; returns its length in words: 2 for
    /// a hit, 4 for a miss, 8 for a miss that probed an L2.
    fn tap_event(&mut self, w: &[u64]) -> usize {
        let head = w[0];
        let tid = TextureId::from_index((head >> 32) as u32);
        let m = ((head >> 16) & 0xffff) as u32;
        let (u, v) = (w[1] as u32, (w[1] >> 32) as u32);
        if head & 7 == HIT {
            let hit = AccessTrace {
                l1_hit: true,
                ..AccessTrace::default()
            };
            self.tap(tid, m, u, v, &hit, None);
            return 2;
        }
        let flags = head >> 3;
        let probe = (flags >> 2 & 3 != 0).then(|| L2Probe {
            trace: L2AccessTrace {
                outcome: match flags >> 2 & 3 {
                    1 => L2Outcome::FullHit,
                    2 => L2Outcome::PartialHit,
                    _ => L2Outcome::FullMiss,
                },
                block: (w[4] >> 32) as u32,
                evicted_page: (flags & 1 << 4 != 0).then_some((w[3] >> 32) as u32),
            },
            pt_index: w[4] as u32,
            clock: ClockStats {
                searches: w[5],
                entries_examined: w[6],
                max_search: w[7],
            },
        });
        let trace = AccessTrace {
            l1_hit: false,
            tlb_hit: (flags & 2 != 0).then_some(flags & 1 != 0),
            l2: probe.map(|p| p.trace.outcome),
            l2_block: probe.map(|p| p.trace.block),
            evicted_page: probe.and_then(|p| p.trace.evicted_page),
            host_bytes: w[2],
            retries: w[3] as u32,
            failed: flags & 1 << 5 != 0,
            degraded: flags & 1 << 6 != 0,
            dropped: flags & 1 << 7 != 0,
        };
        self.tap(tid, m, u, v, &trace, probe.as_ref());
        if probe.is_some() {
            8
        } else {
            4
        }
    }

    /// Whether the log must carry the commits' corner quads.
    fn wants_quads(&self) -> bool {
        self.tel.as_ref().is_some_and(|t| t.captures_locality())
    }
}

impl Consume for Observers<'_> {
    fn consume(&mut self, words: &[u64]) {
        let mut i = 0;
        while i < words.len() {
            let head = words[i];
            i += match head & 7 {
                COMMIT => self.commit(&words[i..]),
                DECLINE => {
                    if let Some(tel) = &mut self.tel {
                        tel.wide_declines.incr();
                    }
                    1
                }
                OPEN => {
                    if let Some(sim) = &mut self.timing {
                        sim.open_fragment();
                    }
                    1
                }
                _ => self.tap_event(&words[i..]),
            };
        }
    }
}

/// Runs one observed frame call: `produce` replays the frame into the
/// event log it is given, and `obs` consumes the log on a helper when a
/// [`jobs`] permit is free for one, inline otherwise; then publishes.
pub(crate) fn observed_frame<R>(
    mut obs: Observers<'_>,
    produce: impl FnOnce(&mut EventLog<'_>) -> R,
) -> R {
    let quads = obs.wants_quads();
    let out = run_logged(jobs::helper(), &mut obs, quads, produce);
    obs.publish();
    out
}

/// The two schedules: with a `helper` permit, `consumer` runs on a scoped
/// thread fed full chunks over a bounded channel; without one, on this
/// thread as each chunk fills.
fn run_logged<C: Consume, R>(
    helper: Option<Permit>,
    consumer: &mut C,
    quads: bool,
    produce: impl FnOnce(&mut EventLog<'_>) -> R,
) -> R {
    let Some(permit) = helper else {
        let mut consume = |chunk: &mut Chunk| {
            consumer.consume(chunk.events());
            chunk.len = 0;
        };
        return EventLog::run(quads, &mut consume, produce);
    };
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = sync_channel::<Chunk>(IN_FLIGHT);
        let (free_tx, free_rx) = sync_channel::<Chunk>(POOL);
        let helper = scope.spawn(move || {
            let _permit = permit;
            for mut chunk in full_rx {
                consumer.consume(chunk.events());
                chunk.len = 0;
                let _ = free_tx.send(chunk);
            }
        });
        let mut made = 1;
        let mut hand_over = move |chunk: &mut Chunk| {
            let free = match free_rx.try_recv() {
                Ok(free) => free,
                Err(_) if made < POOL => {
                    made += 1;
                    Chunk::new()
                }
                Err(_) => free_rx.recv().unwrap_or_else(|_| Chunk::new()),
            };
            // A helper that died has dropped its receiver: the chunk is
            // lost, and its panic is re-raised at the join below.
            let _ = full_tx.send(std::mem::replace(chunk, free));
        };
        let out = EventLog::run(quads, &mut hand_over, produce);
        // Closes the chunk channel: the helper drains it and returns.
        drop(hand_over);
        match helper.join() {
            Ok(()) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// The tests that set the process-wide cap.
    static JOBS: Mutex<()> = Mutex::new(());

    /// Records the events' words and the threads that consumed them.
    #[derive(Default)]
    struct Collect {
        words: Vec<u64>,
        threads: Vec<ThreadId>,
    }

    impl Consume for Collect {
        fn consume(&mut self, words: &[u64]) {
            self.words.extend_from_slice(words);
            self.threads.push(std::thread::current().id());
        }
    }

    /// Enough taps to fill several chunks.
    fn produce(log: &mut EventLog<'_>) -> usize {
        let tid = TextureId::from_index(3);
        let hit = AccessTrace {
            l1_hit: true,
            ..AccessTrace::default()
        };
        let taps = 4 * CHUNK_WORDS;
        for i in 0..taps as u32 {
            log.open();
            log.tap(tid, 1, i, i + 1, &hit, None);
        }
        taps
    }

    #[test]
    fn at_one_job_the_caller_consumes_and_at_two_a_helper_does() {
        let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
        let caller = std::thread::current().id();
        let mut inline = Collect::default();
        crate::set_max_replay_jobs(1);
        assert!(jobs::helper().is_none(), "no helper at one job");
        let taps = run_logged(jobs::helper(), &mut inline, false, produce);
        assert!(inline.threads.len() > 1 && inline.threads.iter().all(|&t| t == caller));
        let mut helped = Collect::default();
        crate::set_max_replay_jobs(8);
        let permit = jobs::helper().expect("a free slot at eight jobs");
        assert_eq!(run_logged(Some(permit), &mut helped, false, produce), taps);
        crate::set_max_replay_jobs(0);
        assert!(helped.threads.iter().all(|&t| t != caller));
        assert_eq!(helped.threads.len(), inline.threads.len());
        assert_eq!(helped.words, inline.words, "one log on either schedule");
        assert_eq!(inline.words.len(), taps * 3);
    }

    struct Panics;

    impl Consume for Panics {
        fn consume(&mut self, _: &[u64]) {
            panic!("consumer gave up");
        }
    }

    #[test]
    fn a_panicking_helper_reaches_the_caller_with_its_payload() {
        let _jobs = JOBS.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_max_replay_jobs(8);
        let permit = jobs::helper().expect("a free slot at eight jobs");
        crate::set_max_replay_jobs(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_logged(Some(permit), &mut Panics, false, produce)
        }));
        let payload = caught.expect_err("the helper's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"consumer gave up"));
    }
}
