//! Hierarchical timed spans and the bounded event ring they land in.
//!
//! A [`Span`](crate::Span) guard is opened by
//! [`Recorder::span`](crate::Recorder::span) and measures wall time until it
//! is dropped (or explicitly [`end`](crate::Span::end)ed). Closing a span
//! pushes one [`SpanEvent`] into a bounded ring buffer — the only
//! mutex-guarded structure in the recorder, taken once per span close, never
//! on the per-texel path. When the ring is full the oldest event is
//! overwritten and a drop counter ticks, so a long suite run can never grow
//! without bound.
//!
//! Nesting is tracked per thread with a saturating depth counter:
//! out-of-order drops (a parent guard dropped before its child) never
//! underflow or panic — the child simply records at its captured depth and
//! the counter re-converges to zero once every guard is gone.

use crate::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Default ring capacity (events kept before the oldest are overwritten).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span label.
    pub name: String,
    /// Start, in microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small dense id of the thread that ran the span.
    pub tid: u32,
    /// Nesting depth at open (0 = top level on its thread).
    pub depth: u32,
}

/// Bounded MPMC ring of closed spans.
#[derive(Debug)]
pub(crate) struct SpanRing {
    buf: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl SpanRing {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn push(&self, ev: SpanEvent) {
        let mut buf = self.buf.lock().unwrap();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Relaxed);
        }
        buf.push_back(ev);
    }

    /// Events in arrival order plus how many were overwritten before them.
    pub(crate) fn snapshot(&self) -> (Vec<SpanEvent>, u64) {
        let buf = self.buf.lock().unwrap();
        (buf.iter().cloned().collect(), self.dropped.load(Relaxed))
    }
}

thread_local! {
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    static THREAD_TID: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// A small dense id for the current thread (stable for its lifetime), used
/// as the `tid` of Chrome trace events.
pub(crate) fn thread_tid() -> u32 {
    THREAD_TID.with(|c| {
        let mut t = c.get();
        if t == u32::MAX {
            t = NEXT_TID.fetch_add(1, Relaxed) as u32;
            c.set(t);
        }
        t
    })
}

/// Opens a nesting level; returns the depth the span runs at.
pub(crate) fn enter_span() -> u32 {
    SPAN_DEPTH.with(|c| {
        let d = c.get();
        c.set(d.saturating_add(1));
        d
    })
}

/// Closes a nesting level (saturating: unbalanced closes are harmless).
pub(crate) fn exit_span() {
    SPAN_DEPTH.with(|c| c.set(c.get().saturating_sub(1)));
}

/// The current thread's span nesting depth (for tests).
pub fn current_span_depth() -> u32 {
    SPAN_DEPTH.with(|c| c.get())
}

/// Builds the Chrome trace-event document that `chrome://tracing` /
/// Perfetto load directly (complete `"X"` events).
pub fn chrome_trace_json(events: &[SpanEvent]) -> Json {
    let str = |s: &str| Json::Str(s.to_string());
    let event = |ev: &SpanEvent| {
        Json::obj([
            ("name", str(&ev.name)),
            ("cat", str("mltc")),
            ("ph", str("X")),
            ("ts", Json::Num(ev.start_us)),
            ("dur", Json::Num(ev.dur_us)),
            ("pid", Json::Num(1)),
            ("tid", Json::Num(ev.tid.into())),
            ("args", Json::obj([("depth", Json::Num(ev.depth.into()))])),
        ])
    };
    Json::obj([
        ("displayTimeUnit", str("ms")),
        ("traceEvents", Json::Arr(events.iter().map(event).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let ring = SpanRing::new(2);
        for i in 0..5u64 {
            ring.push(SpanEvent {
                name: format!("e{i}"),
                start_us: i,
                dur_us: 1,
                tid: 0,
                depth: 0,
            });
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 3);
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["e3", "e4"]);
    }

    #[test]
    fn depth_saturates_on_unbalanced_close() {
        assert_eq!(current_span_depth(), 0);
        exit_span(); // unbalanced: must not underflow
        assert_eq!(current_span_depth(), 0);
        assert_eq!(enter_span(), 0);
        assert_eq!(enter_span(), 1);
        exit_span();
        exit_span();
        exit_span(); // one too many, still fine
        assert_eq!(current_span_depth(), 0);
    }

    #[test]
    fn chrome_json_escapes_names() {
        let ev = SpanEvent {
            name: "weird \"name\"\n\\".to_string(),
            start_us: 10,
            dur_us: 5,
            tid: 3,
            depth: 1,
        };
        let text = chrome_trace_json(std::slice::from_ref(&ev)).render_compact();
        assert!(text.contains("\\\"name\\\"") && text.contains("\\n"));
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some(&*ev.name)
        );
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[0].get("ts").and_then(Json::as_u64), Some(10));
        let depth = events[0].get("args").and_then(|a| a.get("depth"));
        assert_eq!(depth.and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct_across() {
        let a = thread_tid();
        assert_eq!(a, thread_tid());
        let b = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(a, b);
    }
}
