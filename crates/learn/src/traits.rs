//! Model and trainer abstractions.
//!
//! FRaC is model-agnostic ("predictors can be any supervised learning
//! algorithm"); the core crate drives everything through these traits so any
//! regressor/classifier pair can be plugged in. Each trainer has one
//! training method, `fit`: it validates the problem, polls a
//! [`TargetBudget`] cooperatively and rejects a diverged solve, returning a
//! [`TrainError`] instead of panicking or emitting a poisoned model (see
//! [`crate::fault`]). `train` is the cold-start, unlimited-budget
//! convenience on top of it for tests and benches. Trainers also report a
//! [`TrainingCost`], the raw material for reproducing the paper's CPU-time
//! and memory columns.

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use frac_dataset::DesignView;

/// Analytic cost of one model-training call.
///
/// `flops` approximates the floating-point work performed; `peak_bytes`
/// approximates the solver's peak transient working set **excluding** the
/// design matrix itself (the caller owns and accounts for that). Both are
/// deterministic functions of the training run, so resource tables built
/// from them are reproducible, unlike wall-clock/RSS sampling at small
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainingCost {
    /// Approximate floating-point operations performed.
    pub flops: u64,
    /// Approximate peak working-set bytes allocated by the trainer.
    pub peak_bytes: u64,
}

/// A fitted model plus the cost of fitting it.
#[derive(Debug, Clone)]
pub struct Trained<M> {
    /// The fitted model.
    pub model: M,
    /// What it cost to fit.
    pub cost: TrainingCost,
}

/// A fitted real-valued predictor.
pub trait Regressor: Send + Sync {
    /// Predict the target for one encoded input row.
    fn predict(&self, x: &[f64]) -> f64;

    /// Approximate resident bytes of the fitted model.
    fn approx_bytes(&self) -> usize;
}

/// A fitted categorical predictor (outputs a class code).
pub trait Classifier: Send + Sync {
    /// Predict the class code for one encoded input row.
    fn predict(&self, x: &[f64]) -> u32;

    /// Approximate resident bytes of the fitted model.
    fn approx_bytes(&self) -> usize;
}

/// Trains regressors from `(design view, real targets)` pairs.
///
/// The design is any [`DesignView`], so the caller can hand over a
/// zero-copy slice of a shared [`frac_dataset::EncodedPool`] (or a
/// [`frac_dataset::RowSubset`] of one) instead of materializing an owned
/// matrix per target/fold.
pub trait RegressorTrainer: Send + Sync {
    /// The model type produced.
    type Model: Regressor;

    /// Fit a model, optionally warm-started, under `budget`.
    ///
    /// `y.len()` must equal `x.n_rows()` and `y` holds no NaNs (the caller
    /// drops rows with missing targets); a shape mismatch, an
    /// unaddressable problem size or a non-finite target comes back as a
    /// [`TrainError`]. The budget is polled cooperatively — once per
    /// coordinate-descent epoch, every few tree expansions, or once up
    /// front for trainers whose fits are short — and a tripped budget
    /// returns [`TrainError::DeadlineExceeded`]. A diverged solve
    /// (NaN/Inf weights after the epoch budget) returns
    /// [`TrainError::NonConvergence`]. [`TargetBudget::unlimited`] never
    /// trips and reads no clock, so it costs nothing and moves no bit.
    ///
    /// `warm`, when given, has `x.n_rows()` entries — one dual per **row
    /// of this view, in view order** — and may come from *any* prior
    /// solve (other fold, other replicate, other hyperparameters); the
    /// trainer clamps it into its own feasible box, so any real vector is
    /// a legal start and can only change where the solver starts, never
    /// what fixed point it converges to. The returned duals follow the
    /// same row-order convention. Trainers without a dual formulation
    /// (trees, baselines) ignore `warm` and return `None`, and callers
    /// degrade to cold starts.
    #[allow(clippy::type_complexity)]
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<Self::Model>, Option<Vec<f64>>), TrainError>;

    /// Cold-start [`Self::fit`] under an unlimited budget, for tests and
    /// benches.
    ///
    /// # Panics
    ///
    /// On any [`TrainError`] — an invalid problem or a diverged solve.
    fn train(&self, x: &dyn DesignView, y: &[f64]) -> Trained<Self::Model> {
        match self.fit(x, y, None, &TargetBudget::unlimited()) {
            Ok((trained, _)) => trained,
            Err(e) => panic!("training failed: {e}"),
        }
    }
}

/// Trains classifiers from `(design view, class codes, arity)` triples.
pub trait ClassifierTrainer: Send + Sync {
    /// The model type produced.
    type Model: Classifier;

    /// Fit a model, optionally warm-started, under `budget`.
    ///
    /// Same contract as [`RegressorTrainer::fit`], with all codes
    /// `< arity` and the duals **per one-vs-rest class**: `warm[k][i]`
    /// seeds class `k`'s dual for row `i` (in view order), and a `warm`
    /// slice shorter than the number of classes cold-starts the missing
    /// classes.
    #[allow(clippy::type_complexity)]
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<Self::Model>, Option<Vec<Vec<f64>>>), TrainError>;

    /// Cold-start [`Self::fit`] under an unlimited budget, for tests and
    /// benches.
    ///
    /// # Panics
    ///
    /// On any [`TrainError`] — an invalid problem or a diverged solve.
    fn train(&self, x: &dyn DesignView, y: &[u32], arity: u32) -> Trained<Self::Model> {
        match self.fit(x, y, arity, None, &TargetBudget::unlimited()) {
            Ok((trained, _)) => trained,
            Err(e) => panic!("training failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    /// A trainer whose every fit fails validation.
    struct Refuses;
    impl RegressorTrainer for Refuses {
        type Model = crate::baseline::ConstantRegressor;
        fn fit(
            &self,
            _x: &dyn DesignView,
            _y: &[f64],
            _warm: Option<&[f64]>,
            _budget: &TargetBudget,
        ) -> Result<(Trained<Self::Model>, Option<Vec<f64>>), TrainError> {
            Err(TrainError::NonFiniteData { what: "regression targets" })
        }
    }

    #[test]
    #[should_panic(expected = "training failed: non-finite value in regression targets")]
    fn train_panics_with_the_train_error() {
        let x = DesignMatrix::from_raw(2, 1, vec![1.0, 2.0]);
        Refuses.train(&x, &[0.0, 1.0]);
    }
}
