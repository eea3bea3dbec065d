//! Gaussian kernel density estimation (Rosenblatt 1956, the paper's ref. 13).
//!
//! The paper estimates the differential entropy of each continuous feature by
//! "fitting a Gaussian kernel density estimator to the feature values over the
//! training set, and computing the differential entropy of f(x)". This module
//! provides that estimator with the standard Silverman bandwidth rule and a
//! resubstitution (leave-none-out Monte-Carlo-free) entropy estimate
//! `Ĥ = −(1/n) Σ_i log f̂(x_i)`.

use crate::stats;

/// A fitted Gaussian kernel density estimator over one real feature.
#[derive(Debug, Clone)]
pub struct GaussianKde {
    points: Vec<f64>,
    bandwidth: f64,
}

impl GaussianKde {
    /// Fit with Silverman's rule-of-thumb bandwidth
    /// `h = 0.9 · min(σ̂, IQR/1.34) · n^{−1/5}` (falling back to σ̂ or a small
    /// constant when degenerate).
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn fit(points: &[f64]) -> Self {
        assert!(!points.is_empty(), "KDE requires at least one point");
        let sd = stats::std_dev(points).unwrap_or(0.0);
        let iqr = stats::iqr(points).unwrap_or(0.0);
        let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
        let n = points.len() as f64;
        let mut h = 0.9 * spread * n.powf(-0.2);
        if !(h.is_finite() && h > 0.0) {
            // Degenerate sample (constant feature): pick a tiny bandwidth so
            // the density is a narrow spike and entropy is very negative,
            // which correctly ranks constant features as least interesting.
            h = 1e-3;
        }
        GaussianKde { points: points.to_vec(), bandwidth: h }
    }

    /// Fit with an explicit bandwidth.
    ///
    /// # Panics
    /// Panics if `points` is empty or `bandwidth` is not positive and finite.
    pub fn with_bandwidth(points: &[f64], bandwidth: f64) -> Self {
        assert!(!points.is_empty(), "KDE requires at least one point");
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive and finite"
        );
        GaussianKde { points: points.to_vec(), bandwidth }
    }

    /// The bandwidth in use.
    #[inline]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of support points.
    #[inline]
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// Density estimate `f̂(x) = (1/(n·h)) Σ_i φ((x − x_i)/h)`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.points.len() as f64) * h * (2.0 * std::f64::consts::PI).sqrt());
        let mut acc = 0.0;
        for &p in &self.points {
            let z = (x - p) / h;
            acc += (-0.5 * z * z).exp();
        }
        acc * norm
    }

    /// Natural-log density, computed with a numerically stable
    /// log-sum-exp over the kernel contributions.
    pub fn log_density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        // log f(x) = logsumexp_i(−z_i²/2) − log(n h √(2π))
        let mut max_term = f64::NEG_INFINITY;
        let mut terms = Vec::with_capacity(self.points.len());
        for &p in &self.points {
            let z = (x - p) / h;
            let t = -0.5 * z * z;
            terms.push(t);
            if t > max_term {
                max_term = t;
            }
        }
        if !max_term.is_finite() {
            return f64::NEG_INFINITY;
        }
        let sum: f64 = terms.iter().map(|t| (t - max_term).exp()).sum();
        max_term + sum.ln()
            - ((self.points.len() as f64) * h * (2.0 * std::f64::consts::PI).sqrt()).ln()
    }

    /// Resubstitution differential-entropy estimate
    /// `Ĥ = −(1/n) Σ_i log f̂(x_i)` (in nats).
    ///
    /// Each pair's kernel is computed once and added to both points' sums,
    /// visiting the pairs row by row, so every point's sum still adds its
    /// terms in support order. The result has the bits of the per-point
    /// [`GaussianKde::log_density`] fold: `x_j − x_i = −(x_i − x_j)`
    /// exactly, so a pair's kernel is the same either way round, and a
    /// finite point's own term `−0.0` is its largest, which makes the
    /// log-sum-exp shift exact. Non-finite points take the per-point fold.
    pub fn resubstitution_entropy(&self) -> f64 {
        let n = self.points.len() as f64;
        if !self.points.iter().all(|x| x.is_finite()) {
            let s: f64 = self.points.iter().map(|&x| self.log_density(x)).sum();
            return -s / n;
        }
        let h = self.bandwidth;
        let log_norm = (n * h * (2.0 * std::f64::consts::PI).sqrt()).ln();
        // Sums start where `Iterator::sum` does; every term is positive or
        // +0.0, so the sign of that start cannot show.
        let mut sums = vec![-0.0f64; self.points.len()];
        let mut s = -0.0f64;
        for (i, &xi) in self.points.iter().enumerate() {
            // The point's own term: exp(−0.0).
            sums[i] += 1.0;
            let (own, later) = sums[i..].split_first_mut().expect("i < n");
            for (sum, &xj) in later.iter_mut().zip(&self.points[i + 1..]) {
                let z = (xi - xj) / h;
                let k = (-0.5 * z * z).exp();
                *own += k;
                *sum += k;
            }
            // Every term of point i is in: rows after i add to later points only.
            s += own.ln() - log_norm;
        }
        -s / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaussian_sample(n: usize, mu: f64, sigma: f64, seed: u64) -> Vec<f64> {
        // Small deterministic Box–Muller generator for test data; avoids a
        // dev-dependency cycle with the synth crate.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                let (u1, u2): (f64, f64) = (next().max(1e-12), next());
                mu + sigma
                    * (-2.0 * u1.ln()).sqrt()
                    * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn density_integrates_to_one() {
        let pts = gaussian_sample(200, 0.0, 1.0, 7);
        let kde = GaussianKde::fit(&pts);
        // Trapezoid rule over a wide range.
        let (a, b, steps) = (-8.0f64, 8.0f64, 3000usize);
        let dx = (b - a) / steps as f64;
        let mut total = 0.0;
        for i in 0..=steps {
            let x = a + i as f64 * dx;
            let w = if i == 0 || i == steps { 0.5 } else { 1.0 };
            total += w * kde.density(x) * dx;
        }
        assert!((total - 1.0).abs() < 1e-3, "integral = {total}");
    }

    #[test]
    fn log_density_consistent_with_density() {
        let pts = gaussian_sample(50, 2.0, 0.5, 3);
        let kde = GaussianKde::fit(&pts);
        for &x in &[0.0, 1.5, 2.0, 3.0] {
            assert!((kde.log_density(x) - kde.density(x).ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn entropy_close_to_gaussian_truth() {
        // True differential entropy of N(0,σ²) is ½ln(2πeσ²).
        let sigma = 2.0f64;
        let pts = gaussian_sample(800, 0.0, sigma, 11);
        let kde = GaussianKde::fit(&pts);
        let truth = 0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * sigma * sigma).ln();
        let est = kde.resubstitution_entropy();
        assert!(
            (est - truth).abs() < 0.15,
            "estimate {est} too far from truth {truth}"
        );
    }

    #[test]
    fn entropy_orders_by_spread() {
        // Wider distributions must rank higher — this is exactly the property
        // the paper's entropy filter relies on.
        let narrow = GaussianKde::fit(&gaussian_sample(300, 0.0, 0.1, 5));
        let wide = GaussianKde::fit(&gaussian_sample(300, 0.0, 3.0, 5));
        assert!(wide.resubstitution_entropy() > narrow.resubstitution_entropy());
    }

    #[test]
    fn constant_feature_has_very_low_entropy() {
        let kde = GaussianKde::fit(&[5.0; 40]);
        assert!(kde.resubstitution_entropy() < -1.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The pairwise fold has the bits of the per-point `log_density`
        /// fold, on samples with duplicates, constant samples and single
        /// points, under the fitted and explicit bandwidths.
        #[test]
        fn pairwise_entropy_matches_the_per_point_fold(
            n in 1usize..200,
            distinct in 1usize..40,
            scale in 1e-6f64..1e6,
            seed in 0u64..u64::MAX,
            bandwidth in 1e-4f64..10.0,
        ) {
            // `distinct` values drawn with repetition: duplicates whenever
            // n > distinct, a constant sample at distinct = 1.
            let values = gaussian_sample(distinct, 0.5, scale, seed);
            let pts: Vec<f64> = (0..n).map(|i| values[(i * 7 + i / 3) % distinct]).collect();
            for kde in [GaussianKde::fit(&pts), GaussianKde::with_bandwidth(&pts, bandwidth)] {
                let per_point: f64 = pts.iter().map(|&x| kde.log_density(x)).sum();
                let want = -per_point / pts.len() as f64;
                proptest::prop_assert_eq!(kde.resubstitution_entropy().to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn non_finite_points_take_the_per_point_fold() {
        let kde = GaussianKde::with_bandwidth(&[0.0, f64::INFINITY, 1.0], 0.5);
        let per_point: f64 = [0.0, f64::INFINITY, 1.0].iter().map(|&x| kde.log_density(x)).sum();
        assert_eq!(kde.resubstitution_entropy().to_bits(), (-per_point / 3.0).to_bits());
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let kde = GaussianKde::with_bandwidth(&[0.0, 1.0], 0.25);
        assert_eq!(kde.bandwidth(), 0.25);
        assert_eq!(kde.n(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_fit_panics() {
        GaussianKde::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_bandwidth_panics() {
        GaussianKde::with_bandwidth(&[1.0], -1.0);
    }
}
