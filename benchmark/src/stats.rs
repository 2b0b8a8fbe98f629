//! Order statistics for timings: medians, quartiles and tail percentiles.

/// Sorted copy of `values` (NaN-free input; infinities sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The first and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so spreads read the same here and in any script checking them.
/// With fewer than two values both quartiles are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread a
/// metric's regression bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics. A failed request is recorded as `f64::INFINITY`, so it
/// counts as missing every latency limit.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || v[hi] == v[lo] {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
    }
}

/// The `p`-th percentile smoothed over its neighbourhood: the mean of the
/// percentiles at `p` − 4, − 2, 0, + 2 and + 4 points. Latencies can sit
/// on a lattice — every `dmdc serve` round trip waits out the accept
/// loop's 20 ms sleep — and a plain percentile of lattice values jumps a
/// whole step when a few samples cross it; this one moves a fifth of a
/// step at a time.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn smoothed_percentile(values: &[f64], p: f64) -> f64 {
    [-4.0, -2.0, 0.0, 2.0, 4.0]
        .iter()
        .map(|d| percentile(values, (p + d).clamp(0.0, 100.0)))
        .sum::<f64>()
        / 5.0
}

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((n as f64) * p / 100.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        let s = spread(&ten);
        assert!((s - 5.5 / 5.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn percentiles_interpolate_and_keep_failures_infinite() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        let mut with_failures = vec![1.0; 8];
        with_failures.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&with_failures, 50.0), 1.0);
        assert_eq!(percentile(&with_failures, 90.0), f64::INFINITY);
    }

    #[test]
    fn smoothed_percentiles_move_in_small_steps_on_a_lattice() {
        // 100 latencies on a 20 ms lattice; k more of them a step up.
        let lattice = |k: usize| -> Vec<f64> {
            (0..100)
                .map(|i| if i < 90 - k { 140.0 } else { 160.0 })
                .collect()
        };
        // One sample moving up moves a plain p90 most of a step...
        assert!((percentile(&lattice(0), 90.0) - 142.0).abs() < 1e-9);
        assert_eq!(percentile(&lattice(1), 90.0), 160.0);
        // ...and the smoothed one by at most a fifth of it.
        let steps: Vec<f64> = (0..=5)
            .map(|k| smoothed_percentile(&lattice(k), 90.0))
            .collect();
        assert!(
            steps
                .windows(2)
                .all(|w| (0.0..=4.0).contains(&(w[1] - w[0]))),
            "{steps:?}"
        );
        assert_eq!(steps[5], 160.0);
        let flat = vec![40.0; 7];
        assert_eq!(smoothed_percentile(&flat, 50.0), 40.0);
        let mut with_failures = vec![1.0; 8];
        with_failures.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(smoothed_percentile(&with_failures, 50.0), 1.0);
        assert_eq!(smoothed_percentile(&with_failures, 90.0), f64::INFINITY);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), MIN_BEYOND);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(264, 90.0), 26);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(3, 90.0), 0);
    }
}
