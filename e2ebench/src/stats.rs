//! Order statistics used by every reported metric.

/// Samples that must lie strictly beyond a percentile before it is
/// reported: with fewer, the "tail" is a handful of points and moves with
/// each one.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let mid = n / 2;
    if n % 2 == 1 {
        v.get(mid).copied()
    } else {
        Some((v.get(mid - 1)? + v.get(mid)?) / 2.0)
    }
}

/// Nearest-rank percentile `p` (0 < p < 1): the value at 1-based rank
/// `ceil(p * n)`. Reported only when at least [`MIN_BEYOND`] samples lie
/// beyond that rank, so p99 needs 1 000 samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(p > 0.0 && p < 1.0) {
        return None;
    }
    // `p * n` is far below 2^53 for any sample count this program holds.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    v.get(rank - 1).copied()
}

/// Geometric mean of strictly positive values; `None` if empty or if any
/// value is not positive (a zero latency would mean a broken clock).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let ln_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((ln_sum / xs.len() as f64).exp())
}

/// Arithmetic mean, or 0 for no samples (used for per-statement counts).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // rank ceil(0.99 * 1000) = 990, with exactly 10 samples beyond.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // One sample fewer leaves only 9 beyond rank 990.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        // p50 of 20 samples: rank 10, 10 beyond; of 19: rank 10, 9 beyond.
        let small: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.5), Some(10.0));
        assert_eq!(percentile(&small[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 1.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 0.99), Some(1980.0));
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 100.0]).expect("positive inputs");
        assert!((g - 10.0).abs() < 1e-9);
        let g = geomean(&[2.0, 8.0, 4.0]).expect("positive inputs");
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
