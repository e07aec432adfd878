//! Tests of the Monte-Carlo engine as a whole: the adaptive driver
//! ([`crate::adaptive`]) fanning batches out over the ordered executor
//! ([`crate::exec`]). Test-only; the crate has no `engine` API.

mod tests {
    use crate::adaptive::{run_adaptive, McPrecision};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A precision target no run reaches, so every run goes to its cap.
    fn to_the_cap(max_trials: u64, batch: u32) -> McPrecision {
        McPrecision {
            rel_ci: 1e-9,
            max_trials,
            batch,
            level: 0.95,
        }
    }

    #[test]
    fn trial_counts_are_exact() {
        for workers in 1..=8 {
            let out = run_adaptive(&to_the_cap(10_000, 250), workers, 7, |rng: &mut StdRng| {
                rng.gen::<f64>()
            })
            .unwrap();
            assert_eq!(out.trials, 10_000, "workers = {workers}");
            assert_eq!(out.summary.count(), 10_000, "workers = {workers}");
            assert_eq!(out.batches, 40, "workers = {workers}");
        }
        // A run that stops early counts committed batches only.
        let out = run_adaptive(&to_the_cap(10_000, 250), 4, 7, |_| 1.0).unwrap();
        assert!(out.converged);
        assert_eq!(out.trials, u64::from(out.batches) * 250);
        assert_eq!(out.summary.count(), out.trials);
        assert_eq!(out.summary.mean(), 1.0);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_workers() {
        let precision = to_the_cap(10_000, 1_000);
        let f = |rng: &mut StdRng| rng.gen::<f64>();
        let a = run_adaptive(&precision, 3, 42, f).unwrap();
        let b = run_adaptive(&precision, 3, 42, f).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.summary.variance(), b.summary.variance());
        // Stronger than per-(seed, workers): the worker count never matters.
        assert_eq!(a, run_adaptive(&precision, 5, 42, f).unwrap());
        let c = run_adaptive(&precision, 3, 43, f).unwrap();
        assert_ne!(a.summary.mean(), c.summary.mean());
    }

    #[test]
    fn mean_of_uniform_converges() {
        let precision = McPrecision {
            rel_ci: 0.005,
            max_trials: 200_000,
            batch: 10_000,
            level: 0.95,
        };
        let out = run_adaptive(&precision, 8, 11, |rng: &mut StdRng| rng.gen::<f64>()).unwrap();
        assert!(out.converged, "{out:?}");
        let mean = out.summary.mean();
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        assert!(out.ci.contains(0.5), "ci {} must cover 0.5", out.ci);
    }
}
