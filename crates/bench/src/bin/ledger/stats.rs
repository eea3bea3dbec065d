//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are benchmark bugs.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Lower quartile of `xs`: the sample at index `(n − 1) / 4` of the sorted
/// samples.
///
/// # Panics
/// Panics on an empty slice or a NaN sample: both are benchmark bugs.
pub fn lower_quartile(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "quartile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing sample"));
    v[(v.len() - 1) / 4]
}

/// Nearest-rank percentile `p` (0–100) of integer samples: the value at
/// index `(n − 1) · p / 100` of the sorted samples, the same rule the
/// serving daemon applies to its own latency ring.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[u64], p: usize) -> u64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) * p / 100]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn lower_quartile_by_rank() {
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(lower_quartile(&[9.0]), 9.0);
    }

    #[test]
    fn percentile_matches_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50), 50);
        assert_eq!(percentile(&xs, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
    }
}
