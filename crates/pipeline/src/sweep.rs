//! Streaming scenario sweeps: [`SweepHandle`] runs a sweep on
//! [`cnfet_sim::exec::ordered_par_map`] and hands its reports out in
//! index order. Start one with [`crate::YieldService::sweep`].

use crate::report::ScenarioReport;
use crate::spec::ScenarioSpec;
use crate::Result;
use cnfet_sim::exec::ordered_par_map;
use cnt_stats::seed::split_seed;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Progress snapshot of a streaming sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// Scenarios whose evaluation has finished (any order).
    pub completed: usize,
    /// Reports already handed to the consumer (index order).
    pub delivered: usize,
    /// Scenarios in the sweep.
    pub total: usize,
}

/// One streamed sweep result.
#[derive(Debug)]
pub struct SweepItem {
    /// Index of the scenario within the sweep's spec list.
    pub index: usize,
    /// The evaluation outcome.
    pub report: Result<ScenarioReport>,
}

/// A handle to an in-flight sweep: an iterator of [`SweepItem`]s in
/// strict index order, plus cooperative cancellation and progress.
///
/// One driver thread runs the sweep through
/// [`cnfet_sim::exec::ordered_par_map`], whose in-order commit sends each
/// report down a channel, so `next()` blocks until the next index is
/// available. After [`SweepHandle::cancel`], no new scenario is claimed
/// (in-flight ones finish and still stream out in order) and the stream
/// then ends. Dropping the handle cancels and joins the driver.
pub struct SweepHandle {
    total: usize,
    delivered: usize,
    rx: mpsc::Receiver<(usize, Result<ScenarioReport>)>,
    cancel: Arc<AtomicBool>,
    completed: Arc<AtomicUsize>,
    driver: Option<JoinHandle<()>>,
}

impl SweepHandle {
    /// Start a sweep whose scenario `i` is `evaluate(&specs[i],
    /// split_seed(seed, i))`.
    pub(crate) fn spawn<E>(specs: Vec<ScenarioSpec>, seed: u64, workers: usize, evaluate: E) -> Self
    where
        E: Fn(&ScenarioSpec, u64) -> Result<ScenarioReport> + Send + Sync + 'static,
    {
        let total = specs.len();
        let cancel = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let driver = {
            let (cancel, completed) = (Arc::clone(&cancel), Arc::clone(&completed));
            std::thread::spawn(move || {
                ordered_par_map(
                    total,
                    workers,
                    Some(&cancel),
                    || (),
                    |_, i| {
                        let report = evaluate(&specs[i], split_seed(seed, i as u64));
                        completed.fetch_add(1, Ordering::Release);
                        report
                    },
                    // The handle joins this thread before its receiver
                    // drops, so the send cannot fail.
                    |i, report| {
                        let _ = tx.send((i, report));
                    },
                );
            })
        };
        Self {
            total,
            delivered: 0,
            rx,
            cancel,
            completed,
            driver: Some(driver),
        }
    }

    /// The number of scenarios in the sweep.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Stop claiming new scenarios. In-flight ones finish and still
    /// stream out in index order; the iterator then ends.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// A progress snapshot (safe to call between `next()` calls).
    pub fn progress(&self) -> SweepProgress {
        SweepProgress {
            completed: self.completed.load(Ordering::Acquire),
            delivered: self.delivered,
            total: self.total,
        }
    }
}

impl Iterator for SweepHandle {
    type Item = SweepItem;

    /// Block until the next in-index-order item is available; `None` once
    /// the sweep is exhausted or cancellation truncated the stream.
    fn next(&mut self) -> Option<SweepItem> {
        let (index, report) = self.rx.recv().ok()?;
        self.delivered += 1;
        Some(SweepItem { index, report })
    }
}

impl Drop for SweepHandle {
    fn drop(&mut self) {
        self.cancel();
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::{BackendSpec, CorrelationSpec, ScenarioGrid};
    use crate::{Pipeline, ScenarioReport, ScenarioSpec, YieldService};
    use cnt_stats::seed::split_seed;

    fn fast_grid() -> Vec<ScenarioSpec> {
        let grid = ScenarioGrid::parse(
            r#"{
                "name": "t",
                "defaults": {
                    "backend": "gaussian-sum",
                    "rho": "paper",
                    "fast_design": true,
                    "m_min": "self-consistent"
                },
                "axes": {
                    "node_nm": [45, 32],
                    "correlation": ["none", "growth+aligned-layout"]
                }
            }"#,
        )
        .unwrap();
        grid.scenarios
    }

    /// Every report of a sweep, in delivery order, checking the indices.
    fn run(
        service: &YieldService,
        specs: &[ScenarioSpec],
        seed: u64,
        workers: usize,
    ) -> Vec<crate::Result<ScenarioReport>> {
        service
            .sweep_with_workers(specs.to_vec(), seed, workers)
            .enumerate()
            .map(|(i, item)| {
                assert_eq!(item.index, i, "delivery must be in index order");
                item.report
            })
            .collect()
    }

    #[test]
    fn results_keep_input_order_and_are_deterministic() {
        let service = YieldService::new();
        let specs = fast_grid();
        let one = run(&service, &specs, 99, 1);
        let many = run(&service, &specs, 99, 4);
        assert_eq!(one.len(), specs.len());
        for (i, (a, b)) in one.iter().zip(many.iter()).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.name, specs[i].name, "order must match input");
            assert_eq!(a.w_min_nm, b.w_min_nm, "worker count must not matter");
            assert_eq!(a.seed, b.seed, "seeds split by index, not by worker");
            assert_eq!(a.seed, split_seed(99, i as u64));
        }
        // A fresh service (cold caches) reproduces the same numbers, and
        // so does a cold one-shot pipeline.
        let again = run(&YieldService::new(), &specs, 99, 3);
        let pipeline = Pipeline::new();
        for (i, (a, b)) in one.iter().zip(again.iter()).enumerate() {
            let a = a.as_ref().unwrap();
            assert_eq!(
                a.w_min_nm,
                b.as_ref().unwrap().w_min_nm,
                "cache warmth must not change answers"
            );
            assert_eq!(a, &pipeline.evaluate(&specs[i], a.seed).unwrap());
        }
    }

    #[test]
    fn monte_carlo_backend_sweeps_are_worker_independent() {
        // The acceptance contract of the MC back-end: a sweep over
        // stochastic scenarios is bit-identical for --workers 1 vs
        // --workers 8 at a fixed seed, including trial counts and CI
        // bounds.
        let grid = ScenarioGrid::parse(
            r#"{
                "name": "mc",
                "defaults": {
                    "backend": { "monte-carlo": { "rel_ci": 0.15, "max_trials": 100000, "batch": 1000 } },
                    "rho": "paper",
                    "fast_design": true
                },
                "axes": { "correlation": ["none", "growth+aligned-layout"] }
            }"#,
        )
        .unwrap();
        let service = YieldService::new();
        let one = run(&service, &grid.scenarios, 7, 1);
        let many = run(&service, &grid.scenarios, 7, 8);
        for (a, b) in one.iter().zip(many.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a, b, "MC scenario reports must be worker-independent");
            let mc = a.mc.as_ref().expect("mc provenance present");
            assert!(mc.trials > 0 && mc.ci_lo <= a.p_at_w_min && a.p_at_w_min <= mc.ci_hi);
        }
        // Correlation must still shrink W_min under the stochastic backend.
        let plain = one[0].as_ref().unwrap();
        let corr = one[1].as_ref().unwrap();
        assert!(corr.w_min_nm < plain.w_min_nm - 30.0);
    }

    #[test]
    fn bad_scenarios_fail_individually() {
        let service = YieldService::new();
        let mut specs = fast_grid();
        specs[1].yield_target = 1.5; // invalid
        specs[1].backend = BackendSpec::GaussianSum;
        for workers in [1, 2, 8] {
            let results = run(&service, &specs, 1, workers);
            assert_eq!(results.len(), specs.len(), "workers = {workers}");
            assert!(results[0].is_ok());
            assert!(results[1].is_err());
            assert!(
                results[2..].iter().all(Result::is_ok),
                "later scenarios still run"
            );
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let service = YieldService::new();
        let mut sweep = service.sweep(Vec::new(), 0);
        assert_eq!(sweep.total(), 0);
        assert!(sweep.next().is_none());
        let progress = sweep.progress();
        assert_eq!((progress.completed, progress.delivered), (0, 0));
    }

    #[test]
    fn correlated_scenarios_beat_uncorrelated_at_every_node() {
        let service = YieldService::new();
        let specs = fast_grid();
        let results = run(&service, &specs, 5, 2);
        // Grid order: (45, none), (45, corr), (32, none), (32, corr).
        for pair in results.chunks(2) {
            let plain = pair[0].as_ref().unwrap();
            let corr = pair[1].as_ref().unwrap();
            assert_eq!(plain.correlation, CorrelationSpec::None.name());
            assert!(corr.w_min_nm < plain.w_min_nm);
            assert!(corr.upsizing_penalty <= plain.upsizing_penalty);
        }
    }
}
