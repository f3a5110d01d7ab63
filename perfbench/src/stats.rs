//! Order statistics for timing samples.

/// Quantile `q` in `[0, 1]` of `xs` by linear interpolation between
/// closest ranks (the same rule as Python's `statistics.quantiles(...,
/// method="inclusive")` and NumPy's default). `0.0` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The tail of a timing distribution: the highest whole percentile that
/// still has at least ten samples beyond it, and its value. With fewer
/// than 20 samples no percentile at or above the median qualifies and
/// `None` is returned.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    let pct = (100.0 * (1.0 - 10.0 / n)).floor();
    (pct >= 50.0).then(|| (pct, quantile(xs, pct / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("100 samples have a tail");
        assert_eq!(pct, 90.0);
        // 10 samples (91..=100) lie strictly beyond the 90th percentile.
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..19]).is_none());
        assert_eq!(tail(&xs[..20]).map(|t| t.0), Some(50.0));
    }
}
