//! The contract of `cnfet_sim::exec::ordered_par_map`: the committed
//! sequence is the serial map for any worker count and either kind of
//! sink, a stop bounds the speculative work, a cancel stops new claims,
//! panics reach the caller, and the lowest-index error is the one
//! reported.

use cnfet_sim::exec::ordered_par_map;
use cnt_stats::seed::split_seed;
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A pure, index-seeded item whose cost varies with the index, so threads
/// finish out of order.
fn item(salt: u64, i: usize) -> u64 {
    (0..split_seed(salt, i as u64) % 2_000)
        .fold(split_seed(salt, i as u64), |h, _| split_seed(h, 1))
}

/// What one run committed, how often `work` ran, and how many per-worker
/// states were built.
struct Run {
    committed: Vec<(usize, u64)>,
    calls: usize,
    inits: usize,
}

/// Map `item(salt, ·)` over `0..n`, raising the cancel flag inside
/// `work(cancel_at)`. `stop_at: None` commits through a `()` sink that
/// never stops; `Some(k)` through a `ControlFlow` sink that breaks after
/// committing `k` (never, for `k >= n`).
fn run(
    n: usize,
    workers: usize,
    salt: u64,
    stop_at: Option<usize>,
    cancel_at: Option<usize>,
) -> Run {
    let (cancel, calls, inits) = (
        AtomicBool::new(false),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let init = || inits.fetch_add(1, Ordering::Relaxed);
    let work = |_: &mut usize, i| {
        calls.fetch_add(1, Ordering::Relaxed);
        cancel.fetch_or(cancel_at == Some(i), Ordering::Release);
        item(salt, i)
    };
    let mut committed = Vec::new();
    match stop_at {
        None => ordered_par_map(n, workers, Some(&cancel), init, work, |i, v| {
            committed.push((i, v))
        }),
        Some(k) => ordered_par_map(n, workers, Some(&cancel), init, work, |i, v| {
            committed.push((i, v));
            if i == k {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        }),
    }
    Run {
        committed,
        calls: calls.into_inner(),
        inits: inits.into_inner(),
    }
}

fn serial(salt: u64, len: usize) -> Vec<(usize, u64)> {
    (0..len).map(|i| (i, item(salt, i))).collect()
}

proptest! {
    #[test]
    fn committed_sequence_is_the_serial_map(salt in 0u64..u64::MAX, workers in 1usize..9) {
        for n in [0usize, 1, 7, 1000] {
            for sink in [None, Some(usize::MAX)] {
                let r = run(n, workers, salt, sink, None);
                prop_assert_eq!(r.committed, serial(salt, n), "n = {}, workers = {}", n, workers);
                prop_assert_eq!(r.calls, n);
            }
        }
    }

    #[test]
    fn a_break_commits_exactly_the_prefix(salt in 0u64..u64::MAX, n in 1usize..200, stop in 0usize..200, workers in 1usize..9) {
        let k = stop % n;
        let r = run(n, workers, salt, Some(k), None);
        prop_assert_eq!(r.committed, serial(salt, k + 1));
        prop_assert!(r.calls <= k + workers, "{} calls for a break at {}", r.calls, k);
    }

    #[test]
    fn an_external_cancel_stops_new_claims(salt in 0u64..u64::MAX, n in 1usize..300, at in 0usize..300, workers in 1usize..9) {
        let c = at % n;
        for sink in [None, Some(usize::MAX)] {
            let r = run(n, workers, salt, sink, Some(c));
            // Claimed items still finish and commit: no gap, nothing lost.
            prop_assert_eq!(r.committed, serial(salt, r.calls));
            if sink.is_some() {
                prop_assert!(r.calls <= c + workers, "{} calls after a cancel at {}", r.calls, c);
            }
        }
    }

    #[test]
    fn more_workers_than_items(salt in 0u64..u64::MAX, n in 0usize..6, extra in 1usize..10) {
        for sink in [None, Some(usize::MAX)] {
            let r = run(n, n + extra, salt, sink, None);
            prop_assert_eq!(r.committed, serial(salt, n));
            prop_assert_eq!(r.inits, n, "one thread per item, no more");
        }
    }

    #[test]
    fn the_lowest_index_error_wins(bad in prop::collection::vec(0usize..60, 1..6), workers in 1usize..9) {
        let work = |_: &mut (), i| {
            item(7, i);
            if bad.contains(&i) { Err(i) } else { Ok(i) }
        };
        // A sink that breaks on the first error...
        let mut reported = None;
        ordered_par_map(60, workers, None, || (), work, |_, r| match r {
            Ok(_) => ControlFlow::Continue(()),
            Err(i) => {
                reported = Some(i);
                ControlFlow::Break(())
            }
        });
        prop_assert_eq!(reported, bad.iter().copied().min());
        // ...and one that keeps the first error and cancels the rest.
        let (cancel, mut first) = (AtomicBool::new(false), None);
        ordered_par_map(60, workers, Some(&cancel), || (), work, |_, r| {
            if let Err(i) = r {
                first.get_or_insert(i);
                cancel.store(true, Ordering::Release);
            }
        });
        prop_assert_eq!(first, bad.iter().copied().min());
    }
}

#[test]
fn one_worker_runs_on_the_caller_and_a_raised_cancel_claims_nothing() {
    let caller = std::thread::current().id();
    let mut seen = Vec::new();
    ordered_par_map(
        5,
        1,
        None,
        || (),
        |_, i| (i, std::thread::current().id()),
        |_, v| seen.push(v),
    );
    assert_eq!(seen, (0..5).map(|i| (i, caller)).collect::<Vec<_>>());
    let cancel = AtomicBool::new(true);
    ordered_par_map(
        10,
        4,
        Some(&cancel),
        || (),
        |_, i| i,
        |_, _| -> () { panic!("nothing may commit") },
    );
}

#[test]
fn a_panic_in_work_or_commit_re_raises_on_the_caller_without_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for workers in 1..=8 {
            for bad in [0usize, 5, 99] {
                let in_work = std::panic::catch_unwind(|| {
                    ordered_par_map(
                        100,
                        workers,
                        None,
                        || (),
                        |_, i| {
                            assert!(i != bad, "item {bad} failed");
                            item(3, i)
                        },
                        |_, _| (),
                    );
                });
                let payload = in_work.expect_err("a work panic must reach the caller");
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default();
                assert!(
                    message.contains(&format!("item {bad} failed")),
                    "workers {workers}: `{message}`"
                );
                let in_commit = std::panic::catch_unwind(|| {
                    ordered_par_map(
                        100,
                        workers,
                        None,
                        || (),
                        |_, i| item(4, i),
                        |i, _| {
                            assert!(i != bad, "sink failed");
                            ControlFlow::Continue(())
                        },
                    );
                });
                assert!(in_commit.is_err(), "a commit panic must reach the caller");
            }
        }
        tx.send(()).unwrap();
    });
    rx.recv_timeout(std::time::Duration::from_secs(120))
        .expect("executor hung, or a check above failed");
}
