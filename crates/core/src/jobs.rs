//! The process-wide cap on busy threads (the `--jobs` flag) and the one
//! count every busy thread draws on.
//!
//! Three kinds of thread burn CPU on behalf of a run: the experiment
//! runner's replay workers, which take a [`Permit`] per frame
//! ([`acquire`]) — every worker is spawned up front and parks between
//! frames, so a single producer feeding them all (a disk stream, a live
//! render) never waits on a worker that holds a slot while its channel is
//! full; the observer helpers of observed frame replays, which take one
//! per frame call when a slot is free and the cap is at least two, and
//! otherwise leave the observers to run inline on the replaying thread;
//! and the trace store's render threads, which are sized by
//! [`max_replay_jobs`] itself. Permits are counted once for the whole
//! process, so the helpers and the permitted replay workers together never
//! exceed the cap.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, Mutex, PoisonError};

/// The cap; `0` means "ask the OS" (see [`max_replay_jobs`]).
static MAX_REPLAY_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Threads holding a [`Permit`] now.
static BUSY: Mutex<usize> = Mutex::new(0);
static FREED: Condvar = Condvar::new();

/// Caps the busy threads a run may use (the `--jobs` flag): the permitted
/// replay workers and observer helpers together, and the threads the
/// trace store renders a trace on. `0` restores the default: one per
/// available core.
pub fn set_max_replay_jobs(jobs: usize) {
    MAX_REPLAY_JOBS.store(jobs, Relaxed);
    // A raised cap may free waiters. Taking the lock orders the store
    // before the check of any waiter not yet parked, so none misses it.
    drop(BUSY.lock().unwrap_or_else(PoisonError::into_inner));
    FREED.notify_all();
}

/// The effective cap: the value of [`set_max_replay_jobs`], or the
/// machine's available parallelism when unset.
pub fn max_replay_jobs() -> usize {
    match MAX_REPLAY_JOBS.load(Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// One busy thread's slot in the process-wide count; dropping it (also
/// while unwinding, so a dying thread never strands the others) frees
/// the slot.
#[derive(Debug)]
pub struct Permit(());

impl Drop for Permit {
    fn drop(&mut self) {
        *BUSY.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        FREED.notify_one();
    }
}

/// Blocks until fewer than [`max_replay_jobs`] threads hold a permit, then
/// takes one. A thread that holds a permit must not block here for a
/// second one: at a cap of one that never returns.
pub fn acquire() -> Permit {
    let mut busy = BUSY.lock().unwrap_or_else(PoisonError::into_inner);
    while *busy >= max_replay_jobs() {
        busy = FREED.wait(busy).unwrap_or_else(PoisonError::into_inner);
    }
    *busy += 1;
    Permit(())
}

/// The permit of an observer helper, if one is free now, without waiting:
/// only under a cap of at least two, so the replaying thread keeps a core
/// of its own.
pub(crate) fn helper() -> Option<Permit> {
    if max_replay_jobs() < 2 {
        return None;
    }
    let mut busy = BUSY.lock().unwrap_or_else(PoisonError::into_inner);
    (*busy < max_replay_jobs()).then(|| {
        *busy += 1;
        Permit(())
    })
}
