//! Error models: the probability estimators behind normalized surprisal.
//!
//! FRaC estimates `P(x_i | p_ij(x_{−i}))` with *error models* — "in the
//! discrete case confusion matrices, and in the continuous case density
//! function estimators for … `x_i − p_ij(…)`" (paper §I-A-1). The continuous
//! error model "simply fit\[s\] a Gaussian to the error distribution, as …
//! there is insufficient data to accurately learn a more detailed model."
//!
//! Both models are fit on *cross-validated* (true, predicted) pairs so that
//! the error distribution reflects out-of-sample behaviour, and both expose
//! surprisal in nats: `−log P(true | predicted)`.

use frac_dataset::stats;

/// Gaussian error model for continuous predictions.
///
/// Fits `e = y_true − y_pred ~ N(μ, σ²)` and scores new observations by the
/// negative log-density of their residual. σ is floored to keep surprisal
/// finite when a feature is perfectly predictable on the training set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianErrorModel {
    mu: f64,
    sigma: f64,
}

impl GaussianErrorModel {
    /// Minimum admissible σ; prevents infinite surprisal from degenerate
    /// (zero-residual) fits on tiny training sets.
    pub const MIN_SIGMA: f64 = 1e-6;

    /// Fit from (true, predicted) pairs. Pairs with a non-finite value on
    /// either side are ignored. With no usable pairs, falls back to a
    /// standard normal.
    pub fn fit(pairs: &[(f64, f64)]) -> Self {
        let residuals: Vec<f64> = pairs
            .iter()
            .filter(|(t, p)| t.is_finite() && p.is_finite())
            .map(|(t, p)| t - p)
            .collect();
        if residuals.is_empty() {
            return GaussianErrorModel { mu: 0.0, sigma: 1.0 };
        }
        let mu = stats::mean(&residuals).unwrap_or(0.0);
        let sigma = stats::std_dev(&residuals).unwrap_or(0.0);
        GaussianErrorModel { mu, sigma: sigma.max(Self::MIN_SIGMA) }
    }

    /// Construct directly from parameters (σ floored).
    pub fn from_params(mu: f64, sigma: f64) -> Self {
        GaussianErrorModel { mu, sigma: sigma.max(Self::MIN_SIGMA) }
    }

    /// Mean residual.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Residual standard deviation (post-floor).
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Log-density of observing `truth` given prediction `pred`.
    pub fn log_likelihood(&self, truth: f64, pred: f64) -> f64 {
        stats::log_gaussian_pdf(truth - pred, self.mu, self.sigma)
    }

    /// Surprisal `−log P(truth | pred)` in nats. (For continuous features
    /// this is a negative log *density*, so it may be negative — exactly as
    /// the differential-entropy term it is compared against.)
    pub fn surprisal(&self, truth: f64, pred: f64) -> f64 {
        -self.log_likelihood(truth, pred)
    }

    /// Resident bytes (for the resource meter).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Serialize into a byte writer (model persistence): μ, then σ.
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.f64(self.mu);
        w.f64(self.sigma);
    }

    /// Parse a model previously produced by
    /// [`GaussianErrorModel::write_bin`]. A σ below [`Self::MIN_SIGMA`]
    /// (or NaN) is refused rather than floored: no writer produces one,
    /// and flooring it would give the file a second byte image.
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        let mu = r.f64("gaussian mu")?;
        let at = r.offset();
        let sigma = r.f64("gaussian sigma")?;
        if sigma.is_nan() || sigma < Self::MIN_SIGMA {
            return Err(frac_dataset::binio::ByteError::new(
                at,
                format!("gaussian sigma {sigma} is below the floor {}", Self::MIN_SIGMA),
            ));
        }
        Ok(GaussianErrorModel { mu, sigma })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        let v: Vec<f64> = r.parse_all("gauss_err")?;
        if v.len() != 2 {
            return Err("gauss_err expects mu sigma".into());
        }
        Ok(GaussianErrorModel::from_params(v[0], v[1]))
    }
}

/// Confusion-matrix error model for categorical predictions.
///
/// `counts[pred][true]` accumulates cross-validated outcomes; conditional
/// probabilities are Laplace-smoothed with pseudo-count `alpha` so unseen
/// (pred, true) combinations keep finite surprisal.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionErrorModel {
    arity: u32,
    counts: Vec<u64>, // row-major [pred][true]
    alpha: f64,
}

impl ConfusionErrorModel {
    /// Fit from (true, predicted) code pairs with the default smoothing
    /// `alpha = 1` (add-one).
    pub fn fit(pairs: &[(u32, u32)], arity: u32) -> Self {
        Self::fit_with_alpha(pairs, arity, 1.0)
    }

    /// Fit with explicit Laplace pseudo-count `alpha > 0`.
    ///
    /// # Panics
    /// Panics if `alpha <= 0` or any code is out of range.
    pub fn fit_with_alpha(pairs: &[(u32, u32)], arity: u32, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive for finite surprisal");
        let k = arity as usize;
        let mut counts = vec![0u64; k * k];
        for &(truth, pred) in pairs {
            assert!(truth < arity && pred < arity, "code out of range");
            counts[pred as usize * k + truth as usize] += 1;
        }
        ConfusionErrorModel { arity, counts, alpha }
    }

    /// Class arity.
    pub fn arity(&self) -> u32 {
        self.arity
    }

    /// Raw count of (pred, true) outcomes.
    pub fn count(&self, pred: u32, truth: u32) -> u64 {
        self.counts[pred as usize * self.arity as usize + truth as usize]
    }

    /// Smoothed conditional probability `P(truth | pred)`.
    pub fn probability(&self, truth: u32, pred: u32) -> f64 {
        let k = self.arity as usize;
        let row = &self.counts[pred as usize * k..(pred as usize + 1) * k];
        let row_total: u64 = row.iter().sum();
        (row[truth as usize] as f64 + self.alpha)
            / (row_total as f64 + self.alpha * k as f64)
    }

    /// Surprisal `−ln P(truth | pred)` in nats — always positive and finite.
    pub fn surprisal(&self, truth: u32, pred: u32) -> f64 {
        -self.probability(truth, pred).ln()
    }

    /// Resident bytes (for the resource meter).
    pub fn approx_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }

    /// Serialize into a byte writer (model persistence): arity, α, then
    /// the arity² counts row-major by prediction.
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.u32(self.arity);
        w.f64(self.alpha);
        for &c in &self.counts {
            w.u64(c);
        }
    }

    /// Parse a model previously produced by
    /// [`ConfusionErrorModel::write_bin`]: `alpha > 0` (NaN refused) and
    /// exactly arity² counts, checked against the bytes left before they
    /// are read.
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        let arity = r.u32("confusion arity")?;
        let at = r.offset();
        let alpha = r.f64("confusion alpha")?;
        if alpha.is_nan() || alpha <= 0.0 {
            return Err(frac_dataset::binio::ByteError::new(at, "alpha must be positive"));
        }
        let k = arity as usize;
        let n = k.checked_mul(k).ok_or_else(|| r.error("confusion arity overflows"))?;
        let counts = r.u64s(n, "confusion counts")?;
        Ok(ConfusionErrorModel { arity, counts, alpha })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        let head = r.expect("conf_err")?;
        if head.len() != 2 {
            return Err("conf_err expects arity alpha".into());
        }
        let arity: u32 = head[0].parse().map_err(|_| "bad arity".to_string())?;
        let alpha: f64 = head[1].parse().map_err(|_| "bad alpha".to_string())?;
        if alpha <= 0.0 {
            return Err("alpha must be positive".into());
        }
        let counts: Vec<u64> = r.parse_all("conf_counts")?;
        if counts.len() != (arity as usize) * (arity as usize) {
            return Err(format!(
                "conf_counts expects {} entries, found {}",
                (arity as usize).pow(2),
                counts.len()
            )
            .into());
        }
        Ok(ConfusionErrorModel { arity, counts, alpha })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_fit_recovers_moments() {
        let pairs: Vec<(f64, f64)> = (0..110)
            .map(|i| {
                // Residues 0..=10 each appear exactly 10 times → mean 0.5.
                let e = ((i % 11) as f64 - 5.0) * 0.1 + 0.5;
                (e, 0.0)
            })
            .collect();
        let m = GaussianErrorModel::fit(&pairs);
        assert!((m.mu() - 0.5).abs() < 1e-12);
        assert!(m.sigma() > 0.0);
    }

    #[test]
    fn gaussian_surprisal_grows_with_residual() {
        let m = GaussianErrorModel::from_params(0.0, 1.0);
        let s0 = m.surprisal(0.0, 0.0);
        let s2 = m.surprisal(2.0, 0.0);
        let s5 = m.surprisal(5.0, 0.0);
        assert!(s0 < s2 && s2 < s5);
    }

    #[test]
    fn gaussian_degenerate_fit_is_floored() {
        // All residuals identical → σ would be 0 without the floor.
        let pairs = vec![(1.0, 1.0); 10];
        let m = GaussianErrorModel::fit(&pairs);
        assert_eq!(m.sigma(), GaussianErrorModel::MIN_SIGMA);
        assert!(m.surprisal(1.0, 1.0).is_finite());
        assert!(m.surprisal(2.0, 1.0).is_finite());
    }

    #[test]
    fn gaussian_ignores_nan_pairs() {
        let pairs = vec![(1.0, 0.0), (f64::NAN, 0.0), (3.0, 0.0), (2.0, f64::NAN)];
        let m = GaussianErrorModel::fit(&pairs);
        assert!((m.mu() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_empty_fit_is_standard_normal() {
        let m = GaussianErrorModel::fit(&[]);
        assert_eq!(m.mu(), 0.0);
        assert_eq!(m.sigma(), 1.0);
    }

    #[test]
    fn confusion_probabilities_sum_to_one_per_row() {
        let pairs = vec![(0, 0), (0, 0), (1, 0), (2, 1), (1, 1), (2, 2)];
        let m = ConfusionErrorModel::fit(&pairs, 3);
        for pred in 0..3 {
            let total: f64 = (0..3).map(|t| m.probability(t, pred)).sum();
            assert!((total - 1.0).abs() < 1e-12, "row {pred}");
        }
    }

    #[test]
    fn confusion_correct_prediction_less_surprising() {
        // Predictor is usually right: P(true=c | pred=c) high.
        let mut pairs = Vec::new();
        for c in 0..3u32 {
            for _ in 0..20 {
                pairs.push((c, c));
            }
            pairs.push(((c + 1) % 3, c));
        }
        let m = ConfusionErrorModel::fit(&pairs, 3);
        assert!(m.surprisal(0, 0) < m.surprisal(2, 0));
    }

    #[test]
    fn confusion_unseen_combination_is_finite() {
        let m = ConfusionErrorModel::fit(&[(0, 0)], 4);
        let s = m.surprisal(3, 2);
        assert!(s.is_finite());
        // With an all-zero row, smoothing yields the uniform distribution.
        assert!((s - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn confusion_uninformative_predictor_matches_prior_shape() {
        // A predictor that always answers 0: its row is the full class
        // distribution, so surprisal(t | 0) ≈ −ln pr(t).
        let pairs: Vec<(u32, u32)> = (0..90)
            .map(|i| ((i % 3) as u32, 0u32))
            .collect();
        let m = ConfusionErrorModel::fit(&pairs, 3);
        for t in 0..3 {
            assert!((m.probability(t, 0) - 1.0 / 3.0).abs() < 0.01);
        }
    }

    #[test]
    fn confusion_counts_are_exact() {
        let m = ConfusionErrorModel::fit(&[(1, 0), (1, 0), (2, 0)], 3);
        assert_eq!(m.count(0, 1), 2);
        assert_eq!(m.count(0, 2), 1);
        assert_eq!(m.count(1, 1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn confusion_rejects_bad_codes() {
        ConfusionErrorModel::fit(&[(5, 0)], 3);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn confusion_rejects_zero_alpha() {
        ConfusionErrorModel::fit_with_alpha(&[], 2, 0.0);
    }
}
