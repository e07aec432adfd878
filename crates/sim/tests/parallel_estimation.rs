//! Integration: the adaptive parallel driver running the conditional row
//! estimator at Table-1 scale.

use cnfet_sim::adaptive::{run_adaptive, McPrecision};
use cnfet_sim::condmc::{estimate_row_failure, RowScenario};
use cnt_stats::ci::conditional_mc_ci;
use cnt_stats::TruncatedGaussian;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn scenario() -> RowScenario {
    // 120 devices at staggered offsets in a 560-nm band — a scaled-down
    // Table-1 row that still exercises interval overlap heavily.
    let width = 103.0;
    let spans: Vec<(f64, f64)> = (0..120)
        .map(|i| {
            let y0 = ((i * 7) % 10) as f64 * 45.0;
            (y0, y0 + width)
        })
        .collect();
    RowScenario {
        row_height: 560.0,
        fet_spans: spans,
        pitch: TruncatedGaussian::positive_with_moments(4.0, 3.2).expect("valid pitch"),
        pf: 0.531,
    }
}

/// A precision target no run reaches, so every batch up to `trials` is
/// committed.
fn exhaustive(trials: u64, batch: u32) -> McPrecision {
    McPrecision {
        rel_ci: 1e-9,
        max_trials: trials,
        batch,
        level: 0.95,
    }
}

#[test]
fn parallel_workers_agree_with_single_threaded_estimate() {
    let sc = scenario();

    // Single-threaded reference.
    let mut rng = StdRng::seed_from_u64(1234);
    let reference = estimate_row_failure(&sc, 3000, &mut rng).expect("estimable");

    // Parallel: each job runs a 25-trial conditional estimate and returns
    // its mean; the merged mean is an unbiased estimate of the same p_RF.
    let job = |rng: &mut StdRng| {
        estimate_row_failure(&sc, 25, rng)
            .expect("estimable")
            .probability
    };
    let out = run_adaptive(&exhaustive(120, 30), 4, 99, job).unwrap();
    assert_eq!(out.summary.count(), 120);
    assert_eq!(
        out,
        run_adaptive(&exhaustive(120, 30), 1, 99, job).unwrap(),
        "one worker must reproduce the four-worker run"
    );

    let merged = &out.summary;
    let ci = conditional_mc_ci(merged, 0.999).expect("ci");
    assert!(
        ci.contains(reference.probability)
            || (merged.mean() / reference.probability - 1.0).abs() < 0.5,
        "parallel {:.3e} vs reference {:.3e} (ci {ci})",
        merged.mean(),
        reference.probability
    );
}

#[test]
fn parallel_run_is_reproducible() {
    let sc = scenario();
    let f = |rng: &mut StdRng| {
        estimate_row_failure(&sc, 10, rng)
            .expect("estimable")
            .probability
    };
    let a = run_adaptive(&exhaustive(40, 10), 4, 7, f).unwrap();
    let b = run_adaptive(&exhaustive(40, 10), 4, 7, f).unwrap();
    assert_eq!(a, b);
    for workers in [1, 2, 3] {
        assert_eq!(
            a,
            run_adaptive(&exhaustive(40, 10), workers, 7, f).unwrap(),
            "workers = {workers}"
        );
    }
}

#[test]
fn engine_handles_more_workers_than_trials() {
    let precision = exhaustive(3, 3);
    let s = run_adaptive(&precision, 8, 5, |rng| rng.gen::<f64>()).unwrap();
    assert_eq!(s.trials, 3);
    assert_eq!(
        s,
        run_adaptive(&precision, 1, 5, |rng| rng.gen::<f64>()).unwrap()
    );
}
