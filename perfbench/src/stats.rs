//! Latency tallies, nearest-rank percentiles and the tail-percentile rule.

use std::time::Duration;

/// Percentiles the tail may be reported at, in per mille, highest first.
/// The rungs need 20 and 100 ops, so a workload's op count sits well
/// inside one band and every run of it reports the same percentile. The
/// ladder stops at p90: on a shared host a higher percentile is set by how
/// many seconds of a run a neighbour slowed, and p99 of `serve_evaluate`
/// spread past its bound between runs of the same code.
pub const TAIL_LADDER: [u64; 2] = [900, 500];

/// The minimum number of ops that must lie beyond a reported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Ops attempted in one closed-loop phase and the latency of each. A
/// failed op is never timed: it counts as missing every latency, so it
/// enters the latency list as `+inf`.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Latency of every attempted op in ms (`+inf` for a failed op).
    pub latencies_ms: Vec<f64>,
    /// Ops that failed the correctness gate.
    pub failed: u64,
    /// The first failure message, kept for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Record one op: its measured latency when `outcome` is `Ok`, a
    /// failure otherwise.
    pub fn record(&mut self, latency: Duration, outcome: Result<(), String>) {
        match outcome {
            Ok(()) => self.latencies_ms.push(latency.as_secs_f64() * 1e3),
            Err(message) => {
                self.latencies_ms.push(f64::INFINITY);
                self.failed += 1;
                self.first_failure.get_or_insert(message);
            }
        }
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    /// The latencies in ascending order (`+inf` last).
    pub fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }
}

/// Nearest-rank quantile of an ascending slice, given in per mille: the
/// value at rank `ceil(permille · n / 1000)` (1-based) and the number of
/// samples beyond it.
pub fn nearest_rank(sorted: &[f64], permille: u64) -> Option<(f64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (permille as usize * n).div_ceil(1000).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// A tail latency: the percentile it was read at and the samples beyond.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile of [`TAIL_LADDER`] the value was read at.
    pub percentile: f64,
    /// The latency at that percentile.
    pub value: f64,
    /// Samples strictly ranked beyond it.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it; `None` below 20 samples.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_LADDER.iter().find_map(|&permille| {
        let (value, beyond) = nearest_rank(sorted, permille)?;
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            percentile: permille as f64 / 10.0,
            value,
            beyond,
        })
    })
}

/// The median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// The arithmetic mean, `0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_beyond() {
        // 19 samples: not even the median has ten beyond it.
        assert_eq!(tail(&ramp(19)), None);
        // 20..99 samples: the median.
        let t = tail(&ramp(20)).expect("20 samples give a median tail");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&ramp(99)).expect("tail").percentile, 50.0);
        // From 100 on: p90 (rank 90 of 100 leaves exactly ten beyond),
        // however many ops there are.
        let t = tail(&ramp(100)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let t = tail(&ramp(10_000)).expect("tail");
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 9000.0, 1000));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
