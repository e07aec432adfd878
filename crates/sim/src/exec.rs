//! The deterministic parallel executor behind every fan-out in the
//! workspace: Monte-Carlo batches, wafer chunks and scenario sweeps.
//!
//! All of them share one shape: item `i` is a pure function of its index
//! (typically of an RNG seeded with `split_seed(seed, i)`), and results
//! must be consumed in index order so the outcome does not depend on how
//! many threads computed it. [`ordered_par_map`] is that loop, written
//! once.
//!
//! ## Contract
//!
//! * Items `0..n` run on `min(workers, n)` threads. The calling thread is
//!   one of them, so `workers == 1` spawns nothing and runs the items
//!   serially, in order.
//! * Each worker builds one per-worker state with `init` (a reusable
//!   sample buffer, say) and calls `work(&mut state, i)` on the indices it
//!   claims from one shared counter.
//! * Results reach `commit(i, value)` in strict index order, one call at
//!   a time, on whichever thread completes the next-in-order item
//!   (commit-by-completer).
//! * A sink returning [`ControlFlow`] may stop the run with `Break`: no
//!   later item is committed and no new index is claimed. For such a sink
//!   an index is claimed only while it lies within `workers` of the lowest
//!   uncommitted index, so `work` runs at most `workers − 1` times past
//!   the stop index.
//! * A sink returning `()` never stops the run, so nothing it is handed is
//!   wasted and claims are not windowed: a slow item does not idle the
//!   other workers.
//! * Once the external `cancel` flag is raised no new index is claimed;
//!   items already claimed still finish and commit in order.
//! * A panic in `init`, `work` or `commit` stops the other workers from
//!   claiming and is re-raised on the caller once every thread has
//!   joined.
//! * Errors are ordinary values: a `Result` item is committed like any
//!   other, so a sink that stops at the first `Err` always reports the
//!   lowest-index error, at any worker count.
//!
//! The committed sequence is therefore exactly the serial map's prefix,
//! whatever `workers` is.
//!
//! ```
//! use cnfet_sim::exec::ordered_par_map;
//! use std::ops::ControlFlow;
//!
//! let mut squares = Vec::new();
//! ordered_par_map(8, 3, None, || (), |_, i| i * i, |i, v| {
//!     squares.push(v);
//!     if i == 5 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
//! });
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25]);
//! ```

use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a commit sink returns: [`ControlFlow`] for a sink that may stop
/// the run, `()` for one that never does.
pub trait Flow {
    /// Whether the sink can stop the run, and so needs the claim window.
    const CAN_STOP: bool;
    /// Whether this value stops the run.
    fn stops(&self) -> bool;
}

impl Flow for ControlFlow<()> {
    const CAN_STOP: bool = true;
    fn stops(&self) -> bool {
        self.is_break()
    }
}

impl Flow for () {
    const CAN_STOP: bool = false;
    fn stops(&self) -> bool {
        false
    }
}

/// The commit side of a run, guarded by one lock.
struct Frontier<T, C> {
    /// Next index to hand out.
    claimed: usize,
    /// Lowest uncommitted index.
    next: usize,
    /// Completed, not yet committed results; index `i` lives in slot
    /// `i % slots.len()` (the claim window keeps them distinct).
    slots: Vec<Option<T>>,
    /// Set once the run must claim nothing more: the sink stopped it, or a
    /// thread panicked.
    stopped: bool,
    commit: C,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking sink poisons the lock; the panic itself is re-raised on
    // the caller, so the survivors only need the state to wind down.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Map `work` over `0..n` on up to `workers` threads and feed the results
/// to `commit` in index order (see the module docs for the full contract).
///
/// # Panics
///
/// Re-raises the first panic of `init`, `work` or `commit`.
pub fn ordered_par_map<S, T, I, W, C, F>(
    n: usize,
    workers: usize,
    cancel: Option<&AtomicBool>,
    init: I,
    work: W,
    commit: C,
) where
    T: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, usize) -> T + Sync,
    C: FnMut(usize, T) -> F + Send,
    F: Flow,
{
    let threads = workers.max(1).min(n);
    if threads == 0 {
        return;
    }
    let window = if F::CAN_STOP { threads } else { n };
    let frontier = Mutex::new(Frontier {
        claimed: 0,
        next: 0,
        slots: (0..window).map(|_| None).collect(),
        stopped: false,
        commit,
    });
    let advanced = Condvar::new();
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Acquire));

    let worker_loop = || {
        let mut state = init();
        loop {
            let i = {
                let mut f = lock(&frontier);
                while !f.stopped && f.claimed < n && f.claimed >= f.next + window {
                    f = advanced.wait(f).unwrap_or_else(PoisonError::into_inner);
                }
                if f.stopped || f.claimed >= n || cancelled() {
                    return;
                }
                f.claimed += 1;
                f.claimed - 1
            };
            let value = work(&mut state, i);
            let mut guard = lock(&frontier);
            let f = &mut *guard;
            if f.stopped {
                return;
            }
            f.slots[i % window] = Some(value);
            while let Some(value) = f.slots[f.next % window].take() {
                let k = f.next;
                f.next += 1;
                if (f.commit)(k, value).stops() {
                    f.stopped = true;
                    break;
                }
            }
            advanced.notify_all();
        }
    };
    let run = || {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(worker_loop)) {
            lock(&frontier).stopped = true;
            lock(&panicked).get_or_insert(payload);
        }
        // Wake any thread waiting on a frontier this one will not advance.
        advanced.notify_all();
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(run);
        }
        run();
    });
    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}
