//! Constant baselines.
//!
//! Two roles: (1) the degenerate fallback when a predictor's input subset is
//! empty (Diverse FRaC with very small `p` routinely produces such subsets);
//! (2) sanity baselines — a feature whose model cannot beat the constant
//! predictor contributes nothing but noise to NS, the phenomenon the paper's
//! §II-D footnote discusses.

use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::traits::{
    Classifier, ClassifierTrainer, Regressor, RegressorTrainer, Trained, TrainingCost,
};
use frac_dataset::{stats, DesignView};

/// Predicts the training-target mean regardless of input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantRegressor {
    mean: f64,
}

impl ConstantRegressor {
    /// The constant prediction.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Construct directly (persistence path).
    pub fn from_mean(mean: f64) -> Self {
        ConstantRegressor { mean }
    }

    /// Serialize into a byte writer (model persistence).
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.f64(self.mean);
    }

    /// Parse a model previously produced by
    /// [`ConstantRegressor::write_bin`].
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        Ok(ConstantRegressor { mean: r.f64("constant mean")? })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        Ok(ConstantRegressor { mean: r.parse_one("const_reg")? })
    }
}

impl Regressor for ConstantRegressor {
    fn predict(&self, _x: &[f64]) -> f64 {
        self.mean
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Trainer for [`ConstantRegressor`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstantRegressorTrainer;

impl RegressorTrainer for ConstantRegressorTrainer {
    type Model = ConstantRegressor;

    /// The budget is checked once up front: the fit is one pass over `y`.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        _warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<ConstantRegressor>, Option<Vec<f64>>), TrainError> {
        budget.check()?;
        fault::check_regression_problem(x, y)?;
        let trained = Trained {
            model: ConstantRegressor { mean: stats::mean(y).unwrap_or(0.0) },
            cost: TrainingCost {
                flops: y.len() as u64,
                peak_bytes: std::mem::size_of::<f64>() as u64,
            },
        };
        Ok((trained, None))
    }
}

/// Predicts the training-set majority class regardless of input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MajorityClassifier {
    class: u32,
}

impl MajorityClassifier {
    /// The constant prediction.
    pub fn class(&self) -> u32 {
        self.class
    }

    /// Construct directly (persistence path).
    pub fn from_class(class: u32) -> Self {
        MajorityClassifier { class }
    }

    /// Serialize into a byte writer (model persistence).
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.u32(self.class);
    }

    /// Parse a model previously produced by
    /// [`MajorityClassifier::write_bin`].
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        Ok(MajorityClassifier { class: r.u32("majority class")? })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        Ok(MajorityClassifier { class: r.parse_one("majority_clf")? })
    }
}

impl Classifier for MajorityClassifier {
    fn predict(&self, _x: &[f64]) -> u32 {
        self.class
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

/// Trainer for [`MajorityClassifier`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MajorityClassifierTrainer;

impl ClassifierTrainer for MajorityClassifierTrainer {
    type Model = MajorityClassifier;

    /// The budget is checked once up front: the fit is one pass over `y`.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        _warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<MajorityClassifier>, Option<Vec<Vec<f64>>>), TrainError> {
        budget.check()?;
        fault::check_classification_problem(x, y)?;
        let mut counts = vec![0usize; arity as usize];
        for &c in y {
            counts[c as usize] += 1;
        }
        let class = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c as u32)
            .unwrap_or(0);
        let trained = Trained {
            model: MajorityClassifier { class },
            cost: TrainingCost {
                flops: y.len() as u64,
                peak_bytes: (arity as u64) * std::mem::size_of::<usize>() as u64,
            },
        };
        Ok((trained, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    #[test]
    fn constant_regressor_predicts_mean() {
        let x = DesignMatrix::from_raw(3, 1, vec![0.0, 1.0, 2.0]);
        let t = ConstantRegressorTrainer.train(&x, &[1.0, 2.0, 6.0]);
        assert_eq!(t.model.predict(&[100.0]), 3.0);
        assert_eq!(t.model.mean(), 3.0);
    }

    #[test]
    fn constant_regressor_empty_defaults_to_zero() {
        let x = DesignMatrix::from_raw(0, 1, vec![]);
        let t = ConstantRegressorTrainer.train(&x, &[]);
        assert_eq!(t.model.predict(&[1.0]), 0.0);
    }

    #[test]
    fn majority_classifier_picks_mode() {
        let x = DesignMatrix::from_raw(5, 1, vec![0.0; 5]);
        let t = MajorityClassifierTrainer.train(&x, &[2, 2, 1, 2, 0], 3);
        assert_eq!(t.model.predict(&[9.9]), 2);
    }

    #[test]
    fn majority_tie_breaks_low() {
        let x = DesignMatrix::from_raw(4, 1, vec![0.0; 4]);
        let t = MajorityClassifierTrainer.train(&x, &[0, 1, 1, 0], 2);
        assert_eq!(t.model.class(), 0);
    }

    #[test]
    fn majority_empty_defaults_to_zero() {
        let x = DesignMatrix::from_raw(0, 1, vec![]);
        let t = MajorityClassifierTrainer.train(&x, &[], 3);
        assert_eq!(t.model.class(), 0);
    }
}
