//! Order statistics for timings.

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles a timing may be reported at, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`LADDER`] with at least ten samples
/// beyond it, or `None` when even the median lacks them.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A latency sample summarised by the percentile rule: median, the
/// highest supported tail percentile, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarises `xs`, or `None` when it has too few samples for a median
/// with ten beyond it.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let tail_pct = highest_supported_percentile(xs.len())?;
    Some(Tail {
        n: xs.len(),
        p50: quantile(xs, 0.5),
        tail_pct,
        tail: quantile(xs, tail_pct / 100.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_reports_count_and_supported_percentile() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("enough samples");
        assert_eq!(t.n, 1000);
        assert_eq!(t.tail_pct, 99.0);
        assert!((t.p50 - 500.5).abs() < 1e-9);
        assert!((t.tail - 990.01).abs() < 1e-9);
        assert!(tail(&xs[..19]).is_none());
    }

    #[test]
    fn quantile_interpolates_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
