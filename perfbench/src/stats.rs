//! Statistics the benchmark reports: medians, means, the "highest
//! percentile with at least ten samples beyond it" tail rule, and a
//! least-squares slope for backlog growth.

/// Percentiles the tail rule may choose from, lowest first.
pub const TAIL_CANDIDATES: [f64; 10] = [
    50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.999,
];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The highest candidate percentile with at least [`TAIL_MIN_BEYOND`]
/// samples strictly beyond its nearest-rank position, and its value:
/// `(percentile, value)`.  `None` when fewer than `2 · TAIL_MIN_BEYOND`
/// samples exist (not even the median qualifies).
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - 1 - rank(p, n) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, v[rank(p, n)]))
}

/// Least-squares slope of `ys` against `xs`; 0 for fewer than two points or
/// no spread in `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs[..n].iter().zip(&ys[..n]) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert!(close(median(&[3.0, 1.0, 2.0]), 2.0));
        assert!(close(median(&[4.0, 1.0, 3.0, 2.0]), 2.5));
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mean_of_values() {
        assert!(close(mean(&[1.0, 2.0, 6.0]), 3.0));
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly 10 beyond; p99.5
        // would leave only 5.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        // 999 samples: p99 leaves 9 beyond, so the rule falls back to p95.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, value) = tail(&v).unwrap();
        assert!(close(p, 95.0));
        assert!(close(value, 950.0));
        // 2000 samples reach p99.5 (10 beyond), not p99.9.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(99.5));
        // 20 samples: only the median has ten beyond; 19 have none.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
    }

    #[test]
    fn slope_fits_a_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert!(close(slope(&xs, &ys), 2.0));
        assert!(close(slope(&[1.0], &[5.0]), 0.0));
        assert!(close(slope(&[2.0, 2.0], &[1.0, 9.0]), 0.0));
    }
}
