//! Cross-validated predictions for error-model fitting.
//!
//! "In order to train error models, k-fold cross validation is used, and
//! predictions on the holdout fold, paired with the true value, are used to
//! construct error models. Then, the entire data set is used to train
//! predictors." (paper §I-A-1)
//!
//! These drivers run the k-fold half, one per target kind: for every
//! training row they return the prediction made by the fold model that did
//! *not* see it, plus the accumulated [`TrainingCost`] of all fold models.
//! Every fold trains through the trainer's one fallible, budgeted `fit`, so
//! the first fold that fails — a tripped budget, a problem that fails
//! validation, or a diverged solve — aborts the CV with its [`TrainError`],
//! with or without a deadline, and the caller's fallback ladder handles it.

use crate::budget::TargetBudget;
use crate::fault::TrainError;
use crate::telemetry;
use crate::traits::{ClassifierTrainer, Classifier, Regressor, RegressorTrainer, TrainingCost};
use frac_dataset::split::Fold;
use frac_dataset::{DesignView, RowSubset};

/// Out-of-fold predictions for a regression problem over a caller-supplied
/// fold plan, with warm-started duals threaded fold to fold.
///
/// Returns `(predictions, cost, duals)` where `predictions[r]` is the
/// held-out prediction for row `r`. `cost.flops` sums over folds;
/// `cost.peak_bytes` is the largest single-fold working set (folds run
/// sequentially, so their transient memory is not concurrently live). Each
/// fold trains on a [`RowSubset`] view of `x` — the only per-fold memory
/// beyond the solver's own state is the row-index vector and a one-row
/// prediction buffer, not a copy of the training slice.
///
/// The fold plan is computed once per FRaC run and shared across targets
/// (the per-target plan is its restriction to present rows), so the k-fold
/// shuffle is not re-derived per target. Each fold's solve seeds from
/// `dual_by_row` — the latest dual seen for each row of `x`, initialized
/// from `init_duals` (e.g. a previous replicate's solution) or zeros — and
/// scatters its solution back, so fold `j+1` starts from the duals of the
/// shared rows it has in common with folds `1..=j`. The returned duals are
/// the final `dual_by_row`, ready to seed the full-data fit; they are
/// `None` when the trainer has no dual formulation (trees, baselines).
///
/// `budget` is polled inside every fold's fit; the first fold error is
/// returned as is.
#[allow(clippy::type_complexity)]
pub fn cv_regression_folds<T: RegressorTrainer>(
    trainer: &T,
    x: &dyn DesignView,
    y: &[f64],
    folds: &[Fold],
    init_duals: Option<&[f64]>,
    budget: &TargetBudget,
) -> Result<(Vec<f64>, TrainingCost, Option<Vec<f64>>), TrainError> {
    assert_eq!(x.n_rows(), y.len(), "target length must match rows");
    let n = x.n_rows();
    let mut preds = vec![f64::NAN; n];
    let mut row_buf = vec![0.0f64; x.n_cols()];
    let mut dual_by_row: Vec<f64> = match init_duals {
        Some(d) => {
            assert_eq!(d.len(), n, "init dual length must match rows");
            d.to_vec()
        }
        None => vec![0.0; n],
    };
    let mut have_duals = true;
    let mut flops = 0u64;
    let mut peak = 0u64;
    let mut warm_buf: Vec<f64> = Vec::new();
    for (fold_idx, fold) in folds.iter().enumerate() {
        let _fold_span = telemetry::span(telemetry::Stage::CvFold);
        let x_train = RowSubset::new(x, &fold.train);
        let y_train: Vec<f64> = fold.train.iter().map(|&r| y[r]).collect();
        warm_buf.clear();
        warm_buf.extend(fold.train.iter().map(|&r| dual_by_row[r]));
        let warm = if have_duals { Some(warm_buf.as_slice()) } else { None };
        // Declare this fold's rows to the per-scope pack cache (slot 0 is
        // the final fit) — inert unless a fit scope is active.
        crate::solver::pack_cache::set_rows(1 + fold_idx as u64, &fold.train);
        let fitted = trainer.fit(&x_train, &y_train, warm, budget);
        crate::solver::pack_cache::clear_rows();
        let (trained, duals) = fitted?;
        match duals {
            Some(d) => {
                for (&r, &b) in fold.train.iter().zip(&d) {
                    dual_by_row[r] = b;
                }
            }
            None => have_duals = false,
        }
        flops += trained.cost.flops;
        peak = peak.max(
            trained.cost.peak_bytes
                + fold_overhead_bytes(&x_train, &row_buf)
                + 2 * std::mem::size_of_val(dual_by_row.as_slice()) as u64,
        );
        for &r in &fold.holdout {
            x.copy_row_into(r, &mut row_buf);
            preds[r] = trained.model.predict(&row_buf);
        }
    }
    if have_duals {
        flops += warm_init_flops(init_duals.map_or(0, count_nonzero), x.n_cols());
    }
    let out_duals = have_duals.then_some(dual_by_row);
    Ok((preds, TrainingCost { flops, peak_bytes: peak }, out_duals))
}

/// Out-of-fold predictions for a classification problem; see
/// [`cv_regression_folds`] for the fold, warm-start, cost and failure
/// contract. Duals are per one-vs-rest class: `duals[k][r]` is row `r`'s
/// latest dual for class `k`'s binary problem.
#[allow(clippy::type_complexity)]
pub fn cv_classification_folds<T: ClassifierTrainer>(
    trainer: &T,
    x: &dyn DesignView,
    y: &[u32],
    arity: u32,
    folds: &[Fold],
    init_duals: Option<&[Vec<f64>]>,
    budget: &TargetBudget,
) -> Result<(Vec<u32>, TrainingCost, Option<Vec<Vec<f64>>>), TrainError> {
    assert_eq!(x.n_rows(), y.len(), "target length must match rows");
    let n = x.n_rows();
    let k_classes = arity as usize;
    let mut preds = vec![0u32; n];
    let mut row_buf = vec![0.0f64; x.n_cols()];
    let mut dual_by_row: Vec<Vec<f64>> = match init_duals {
        Some(d) => {
            assert_eq!(d.len(), k_classes, "init duals must have one vector per class");
            d.to_vec()
        }
        None => vec![vec![0.0; n]; k_classes],
    };
    let mut have_duals = true;
    let mut flops = 0u64;
    let mut peak = 0u64;
    for (fold_idx, fold) in folds.iter().enumerate() {
        let _fold_span = telemetry::span(telemetry::Stage::CvFold);
        let x_train = RowSubset::new(x, &fold.train);
        let y_train: Vec<u32> = fold.train.iter().map(|&r| y[r]).collect();
        let warm_vecs: Vec<Vec<f64>> = if have_duals {
            dual_by_row
                .iter()
                .map(|class_duals| fold.train.iter().map(|&r| class_duals[r]).collect())
                .collect()
        } else {
            Vec::new()
        };
        let warm = if have_duals { Some(warm_vecs.as_slice()) } else { None };
        crate::solver::pack_cache::set_rows(1 + fold_idx as u64, &fold.train);
        let fitted = trainer.fit(&x_train, &y_train, arity, warm, budget);
        crate::solver::pack_cache::clear_rows();
        let (trained, duals) = fitted?;
        match duals {
            Some(d) => {
                for (class_duals, class_out) in dual_by_row.iter_mut().zip(&d) {
                    for (&r, &a) in fold.train.iter().zip(class_out) {
                        class_duals[r] = a;
                    }
                }
            }
            None => have_duals = false,
        }
        flops += trained.cost.flops;
        peak = peak.max(
            trained.cost.peak_bytes
                + fold_overhead_bytes(&x_train, &row_buf)
                + 2 * (k_classes * n * std::mem::size_of::<f64>()) as u64,
        );
        for &r in &fold.holdout {
            x.copy_row_into(r, &mut row_buf);
            preds[r] = trained.model.predict(&row_buf);
        }
    }
    if have_duals {
        let nz = init_duals.map_or(0, |d| d.iter().map(|v| count_nonzero(v)).sum());
        flops += warm_init_flops(nz, x.n_cols());
    }
    let out_duals = have_duals.then_some(dual_by_row);
    Ok((preds, TrainingCost { flops, peak_bytes: peak }, out_duals))
}

/// One-time price of folding a caller-supplied warm dual vector into the
/// solver state: ~2 flops per augmented column per nonzero row. Charged
/// here — once per dual vector handed in — not inside each solve, because
/// the same cached duals (e.g. one `fit_cached` entry shared across
/// ensemble members) seed every fold and the final full-data fit, and a
/// per-solve charge would count that single fold-in many times over.
fn warm_init_flops(nonzero_rows: u64, n_cols: usize) -> u64 {
    nonzero_rows * ((n_cols as u64) + 1) * 2
}

fn count_nonzero(duals: &[f64]) -> u64 {
    duals.iter().filter(|&&b| b != 0.0).count() as u64
}

/// Per-fold working-set bytes beyond the solver's own state: the fold's
/// row-index view plus the holdout prediction buffer. Before the shared
/// encoded pool this was a full copy of the fold's training slice
/// (`rows × cols × 8` bytes); the view reduces it to `rows × 8 + cols × 8`.
fn fold_overhead_bytes(view: &dyn DesignView, row_buf: &[f64]) -> u64 {
    (view.view_overhead_bytes() + std::mem::size_of_val(row_buf)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{ConstantRegressorTrainer, MajorityClassifierTrainer};
    use crate::budget::RunBudget;
    use crate::svr::{SvrConfig, SvrTrainer};
    use crate::traits::Trained;
    use crate::tree::ClassificationTreeTrainer;
    use frac_dataset::split::k_fold;
    use frac_dataset::DesignMatrix;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Regression CV over a fresh `k`-fold plan, cold, unlimited budget.
    fn oof_regression<T: RegressorTrainer>(
        t: &T,
        x: &dyn DesignView,
        y: &[f64],
        k: usize,
        seed: u64,
    ) -> (Vec<f64>, TrainingCost) {
        let folds = k_fold(x.n_rows(), k, seed);
        let (preds, cost, _) =
            cv_regression_folds(t, x, y, &folds, None, &TargetBudget::unlimited()).unwrap();
        (preds, cost)
    }

    /// Classification CV over a fresh `k`-fold plan, cold, unlimited budget.
    fn oof_classification<T: ClassifierTrainer>(
        t: &T,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        k: usize,
        seed: u64,
    ) -> Vec<u32> {
        let folds = k_fold(x.n_rows(), k, seed);
        cv_classification_folds(t, x, y, arity, &folds, None, &TargetBudget::unlimited())
            .unwrap()
            .0
    }

    #[test]
    fn every_row_receives_a_prediction() {
        let x = DesignMatrix::from_raw(10, 1, (0..10).map(|i| i as f64).collect());
        let y: Vec<f64> = (0..10).map(|i| i as f64 * 2.0).collect();
        let (preds, _) = oof_regression(&ConstantRegressorTrainer, &x, &y, 5, 1);
        assert!(preds.iter().all(|p| !p.is_nan()));
    }

    #[test]
    fn holdout_predictions_exclude_own_row() {
        // With a constant-mean model and distinct targets, a row's holdout
        // prediction can never equal its own value — proof the row was
        // outside its fold's training set.
        let x = DesignMatrix::from_raw(6, 1, vec![0.0; 6]);
        let y = vec![0.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        let (preds, _) = oof_regression(&ConstantRegressorTrainer, &x, &y, 3, 7);
        for (r, (&p, &t)) in preds.iter().zip(&y).enumerate() {
            assert!((p - t).abs() > 1e-9, "row {r} leaked into its own fold");
        }
    }

    #[test]
    fn learnable_signal_yields_accurate_oof_predictions() {
        let n = 30;
        let x = DesignMatrix::from_raw(n, 1, (0..n).map(|i| i as f64 * 0.1).collect());
        let y: Vec<f64> = (0..n).map(|i| 3.0 * (i as f64 * 0.1) + 1.0).collect();
        let cfg = SvrConfig { epsilon: 0.01, c: 100.0, ..SvrConfig::default() };
        let (preds, cost) = oof_regression(&SvrTrainer::new(cfg), &x, &y, 5, 3);
        let max_err = preds
            .iter()
            .zip(&y)
            .map(|(p, t)| (p - t).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.5, "max_err = {max_err}");
        assert!(cost.flops > 0);
        assert!(cost.peak_bytes > 0);
    }

    #[test]
    fn classification_cv_covers_all_rows() {
        let x = DesignMatrix::from_raw(12, 1, (0..12).map(|i| (i % 2) as f64).collect());
        let y: Vec<u32> = (0..12).map(|i| (i % 2) as u32).collect();
        let preds = oof_classification(&ClassificationTreeTrainer::default(), &x, &y, 2, 4, 5);
        assert_eq!(preds.len(), 12);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let x = DesignMatrix::from_raw(8, 1, (0..8).map(|i| i as f64).collect());
        let y: Vec<u32> = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let a = oof_classification(&MajorityClassifierTrainer, &x, &y, 2, 4, 9);
        let b = oof_classification(&MajorityClassifierTrainer, &x, &y, 2, 4, 9);
        assert_eq!(a, b);
        let c = oof_classification(&MajorityClassifierTrainer, &x, &y, 2, 4, 10);
        // Different seed shuffles folds differently (may coincide rarely, but
        // not for this configuration).
        assert_ne!(a, c);
    }

    #[test]
    fn fold_peak_charges_view_overhead_not_a_copy() {
        let (n, d) = (40usize, 25usize);
        let x = DesignMatrix::from_raw(n, d, vec![1.0; n * d]);
        let y = vec![0.0f64; n];
        let k = 5;
        let (_, cost) = oof_regression(&ConstantRegressorTrainer, &x, &y, k, 3);
        // Largest fold trains on n - n/k rows. The old model charged a full
        // copy of that slice; the view model charges only row indices plus
        // the one-row prediction buffer (+ the trainer's own peak).
        let fold_rows = n - n / k;
        let copy_bytes = (fold_rows * d * 8) as u64;
        let view_bytes = (fold_rows * std::mem::size_of::<usize>() + d * 8) as u64;
        assert!(cost.peak_bytes < copy_bytes, "peak {} still charges a copy", cost.peak_bytes);
        assert!(cost.peak_bytes >= view_bytes, "peak {} omits view overhead", cost.peak_bytes);
    }

    #[test]
    fn expired_budget_aborts_both_drivers() {
        let n = 20;
        let x = DesignMatrix::from_raw(n, 1, (0..n).map(|i| i as f64 * 0.1).collect());
        let y: Vec<f64> = (0..n).map(|i| 2.0 * (i as f64 * 0.1)).collect();
        let folds = k_fold(n, 4, 11);
        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert!(matches!(
            cv_regression_folds(&SvrTrainer::default(), &x, &y, &folds, None, &expired),
            Err(TrainError::DeadlineExceeded)
        ));
        let yc: Vec<u32> = (0..n).map(|i| (i % 2) as u32).collect();
        assert!(matches!(
            cv_classification_folds(
                &ClassificationTreeTrainer::default(),
                &x,
                &yc,
                2,
                &folds,
                None,
                &expired
            ),
            Err(TrainError::DeadlineExceeded)
        ));
    }

    /// Fits a baseline, except on the fold whose training set lacks the
    /// row with target `poison` (the fold holding that row out): that fold
    /// "diverges". Counts its calls.
    struct DivergesWithout {
        poison: u32,
        calls: AtomicUsize,
    }

    const STUB_ERROR: TrainError = TrainError::NonConvergence { epochs: 3 };

    impl RegressorTrainer for DivergesWithout {
        type Model = crate::baseline::ConstantRegressor;
        fn fit(
            &self,
            x: &dyn DesignView,
            y: &[f64],
            warm: Option<&[f64]>,
            budget: &TargetBudget,
        ) -> Result<(Trained<Self::Model>, Option<Vec<f64>>), TrainError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if !y.contains(&f64::from(self.poison)) {
                return Err(STUB_ERROR);
            }
            ConstantRegressorTrainer.fit(x, y, warm, budget)
        }
    }

    impl ClassifierTrainer for DivergesWithout {
        type Model = crate::baseline::MajorityClassifier;
        fn fit(
            &self,
            x: &dyn DesignView,
            y: &[u32],
            arity: u32,
            warm: Option<&[Vec<f64>]>,
            budget: &TargetBudget,
        ) -> Result<(Trained<Self::Model>, Option<Vec<Vec<f64>>>), TrainError> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            if !y.contains(&self.poison) {
                return Err(STUB_ERROR);
            }
            MajorityClassifierTrainer.fit(x, y, arity, warm, budget)
        }
    }

    #[test]
    fn failing_fold_aborts_the_cv_without_a_deadline() {
        // One rule with or without a deadline: the first fold that fails
        // ends the CV with its error, and no later fold runs.
        let n = 10;
        let x = DesignMatrix::from_raw(n, 1, (0..n).map(|i| i as f64).collect());
        let folds = k_fold(n, 5, 2);
        let poison = 4;
        let bad = folds.iter().position(|f| f.holdout.contains(&poison)).unwrap();
        let unlimited = TargetBudget::unlimited();

        let t = DivergesWithout { poison: poison as u32, calls: AtomicUsize::new(0) };
        let y: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let err = cv_regression_folds(&t, &x, &y, &folds, None, &unlimited).unwrap_err();
        assert_eq!(err, STUB_ERROR);
        assert_eq!(t.calls.load(Ordering::Relaxed), bad + 1);

        let t = DivergesWithout { poison: poison as u32, calls: AtomicUsize::new(0) };
        let yc: Vec<u32> = (0..n as u32).collect();
        let err =
            cv_classification_folds(&t, &x, &yc, n as u32, &folds, None, &unlimited).unwrap_err();
        assert_eq!(err, STUB_ERROR);
        assert_eq!(t.calls.load(Ordering::Relaxed), bad + 1);
    }

    #[test]
    fn warm_init_flops_charged_once_per_dual_vector() {
        // Regression test: a warm dual vector handed to the CV driver used
        // to be re-charged inside every fold solve (and again by the final
        // full-data fit), so `fit_cached` reusing one cache entry across
        // ensemble members inflated `TrainingCost.flops`. The fold-in must
        // now be priced exactly once per supplied vector.
        let n = 12;
        let x = DesignMatrix::from_raw(n, 1, (0..n).map(|i| i as f64 * 0.1).collect());
        let y: Vec<f64> = (0..n).map(|i| 2.0 * (i as f64 * 0.1)).collect();
        let folds = k_fold(n, 3, 5);
        let unlimited = TargetBudget::unlimited();
        // One epoch, and epoch 1 never shrinks (the threshold starts at
        // infinity), so per-fold visits are identical with or without warm
        // duals — any flops difference is the init charge alone.
        let t = SvrTrainer::new(SvrConfig { max_epochs: 1, ..SvrConfig::default() });
        let (_, cold, _) = cv_regression_folds(&t, &x, &y, &folds, None, &unlimited).unwrap();
        let init: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 0.5 } else { 0.0 }).collect();
        let (_, warm, _) =
            cv_regression_folds(&t, &x, &y, &folds, Some(&init), &unlimited).unwrap();
        let nonzero = init.iter().filter(|&&b| b != 0.0).count() as u64;
        let one_charge = nonzero * ((x.n_cols() as u64) + 1) * 2;
        assert_eq!(
            warm.flops,
            cold.flops + one_charge,
            "warm-init fold-in must be charged exactly once, not per fold"
        );
    }

    #[test]
    fn single_row_degenerate_cv_still_returns() {
        let x = DesignMatrix::from_raw(1, 1, vec![0.5]);
        let (preds, _) = oof_regression(&ConstantRegressorTrainer, &x, &[2.0], 5, 0);
        assert_eq!(preds.len(), 1);
        assert!(!preds[0].is_nan());
    }
}
