//! Linear support vector classification.
//!
//! Dual coordinate descent for the L2-regularized L1-loss (hinge) linear SVM
//! (Hsieh et al., *A Dual Coordinate Descent Method for Large-scale Linear
//! SVM*, ICML 2008), with one-vs-rest reduction for multi-class targets.
//!
//! FRaC's SNP experiments found trees better suited to discrete data, but
//! the paper's methodology explicitly covers SVM classification of discrete
//! features, and the comparison (tree vs. SVM on SNP data, paper §III-B) is
//! one of the ablations our bench harness reproduces — so the classifier is
//! a first-class substrate here.
//!
//! Like [`crate::svr`], the trainer has two solver paths selected by
//! [`SolverMode`]: the strict reference sweep, and a fast path with
//! liblinear-style active-set shrinking, warm-started per-class duals, and
//! blocked view kernels (see [`crate::solver`] for the contract).

use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::solver::{stats, GramMatrix, SolverMode, SolverRows, SolverStrategy};
use crate::telemetry;
use crate::traits::{Classifier, ClassifierTrainer, Trained, TrainingCost};
use frac_dataset::split::derive_seed;
use frac_dataset::{DesignView, PackedDesign};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Hyperparameters for [`LinearSvc`] training.
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// Soft-margin cost C.
    pub c: f64,
    /// Maximum coordinate-descent epochs per binary problem.
    pub max_epochs: usize,
    /// Stop when the largest projected-gradient violation falls below this.
    pub tolerance: f64,
    /// Include a bias term (constant-feature augmentation).
    pub bias: bool,
    /// Seed for per-epoch coordinate permutations.
    pub seed: u64,
    /// Solver path: fast (shrinking + warm starts, default) or strict.
    pub mode: SolverMode,
    /// Fast-path execution strategy: Gram-matrix dual maintenance, primal
    /// maintenance, or cost-model auto-selection (default). Strict mode
    /// ignores this and always runs the primal reference sweep. Under the
    /// Gram strategy all one-vs-rest classes share one Q build (the Gram
    /// matrix is label-independent).
    pub strategy: SolverStrategy,
}

impl Default for SvcConfig {
    fn default() -> Self {
        // Loose stopping for the same reason as `SvrConfig`: inseparable
        // problems never reach tight tolerances, and FRaC's accuracy is
        // insensitive to the last digits of the dual.
        SvcConfig {
            c: 1.0,
            max_epochs: 60,
            tolerance: 0.01,
            bias: true,
            seed: 0x0c1a_55e5,
            mode: SolverMode::Fast,
            strategy: SolverStrategy::Auto,
        }
    }
}

/// One-vs-rest linear SVM classifier: `argmax_k (w_kᵀx + b_k)`.
#[derive(Debug, Clone)]
pub struct LinearSvc {
    /// One (weights, bias) pair per class.
    hyperplanes: Vec<(Vec<f64>, f64)>,
}

impl LinearSvc {
    /// Decision value for class `k` on input `x`.
    pub fn decision_value(&self, k: usize, x: &[f64]) -> f64 {
        let (w, b) = &self.hyperplanes[k];
        w.iter().zip(x).map(|(a, v)| a * v).sum::<f64>() + b
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.hyperplanes.len()
    }

    /// Class `k`'s hyperplane as (weights, bias).
    pub fn hyperplane(&self, k: usize) -> (&[f64], f64) {
        let (w, b) = &self.hyperplanes[k];
        (w, *b)
    }

    /// Construct directly from fitted hyperplanes (persistence path).
    pub fn from_parts(hyperplanes: Vec<(Vec<f64>, f64)>) -> Self {
        LinearSvc { hyperplanes }
    }

    /// Serialize into a byte writer (model persistence): the class count,
    /// then each class's bias and counted weights.
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.len32(self.hyperplanes.len());
        for (weights, bias) in &self.hyperplanes {
            w.f64(*bias);
            w.f64s(weights);
        }
    }

    /// Parse a model previously produced by [`LinearSvc::write_bin`].
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        // Each class takes at least its bias and a weight count.
        let k = r.count("svc classes", 12)?;
        let mut hyperplanes = Vec::with_capacity(k);
        for _ in 0..k {
            let bias = r.f64("svc bias")?;
            let weights = r.f64s("svc weights")?;
            hyperplanes.push((weights, bias));
        }
        Ok(LinearSvc { hyperplanes })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        let k: usize = r.parse_one("svc_classes")?;
        let mut hyperplanes = Vec::with_capacity(k);
        for _ in 0..k {
            let bias: f64 = r.parse_one("svc_bias")?;
            let weights: Vec<f64> = r.parse_all("svc_weights")?;
            hyperplanes.push((weights, bias));
        }
        Ok(LinearSvc { hyperplanes })
    }
}

impl Classifier for LinearSvc {
    fn predict(&self, x: &[f64]) -> u32 {
        let mut best = 0usize;
        let mut best_v = f64::NEG_INFINITY;
        for k in 0..self.hyperplanes.len() {
            let v = self.decision_value(k, x);
            if v > best_v {
                best_v = v;
                best = k;
            }
        }
        best as u32
    }

    fn approx_bytes(&self) -> usize {
        self.hyperplanes
            .iter()
            .map(|(w, _)| (w.len() + 1) * std::mem::size_of::<f64>())
            .sum()
    }
}

/// Trainer implementing one-vs-rest dual coordinate descent.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvcTrainer {
    /// Hyperparameters.
    pub config: SvcConfig,
}

impl SvcTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: SvcConfig) -> Self {
        SvcTrainer { config }
    }

    /// Strict reference sweep for one binary (±1) problem: every coordinate
    /// every epoch, exact sequential kernels, warm start ignored.
    fn solve_binary_strict(
        &self,
        x: &dyn DesignView,
        labels: &[f64],
        class_seed: u64,
        budget: &TargetBudget,
    ) -> Result<SvcSolve, TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
        let q_diag: Vec<f64> = (0..n).map(|i| x.row_sq_norm(i) + bias_sq).collect();

        let mut alpha = vec![0.0f64; n];
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut epochs_run = 0u64;

        for epoch in 0..cfg.max_epochs {
            budget.check()?;
            let mut rng = StdRng::seed_from_u64(derive_seed(class_seed, epoch as u64));
            order.shuffle(&mut rng);
            let mut max_violation = 0.0f64;

            for &i in &order {
                let yi = labels[i];
                // G = y_i wᵀx_i − 1 (ascending-column fold, see svr.rs)
                let mut g = x.row_dot_acc(i, &w, w_bias * bias_sq);
                g = yi * g - 1.0;

                let a = alpha[i];
                let pg = if a == 0.0 {
                    g.min(0.0)
                } else if a >= cfg.c {
                    g.max(0.0)
                } else {
                    g
                };
                max_violation = max_violation.max(pg.abs());

                if pg.abs() > 1e-14 && q_diag[i] > 0.0 {
                    let a_new = (a - g / q_diag[i]).clamp(0.0, cfg.c);
                    let delta = (a_new - a) * yi;
                    if delta != 0.0 {
                        alpha[i] = a_new;
                        x.axpy_row(i, delta, &mut w);
                        w_bias += delta * bias_sq;
                    }
                }
            }

            epochs_run = (epoch + 1) as u64;
            if max_violation < cfg.tolerance {
                break;
            }
        }
        let visits = epochs_run * n as u64;
        let flops = visits * ((d as u64) + 1) * 4;
        Ok(SvcSolve { w, w_bias, alpha, epochs: epochs_run, visits, path_bits: 0, flops })
    }

    /// The Gram-strategy fast loop for one binary problem: identical sweep
    /// order, shrinking, and stopping logic to
    /// [`SvcTrainer::solve_binary_fast_rows`], but the gradient comes from
    /// a maintained dual image `qs[i] = Σ_j Q_ij α_j y_j` (= w·x_i +
    /// w_bias·bias, since Q folds the bias in) instead of an O(d) primal
    /// dot. Q is label-independent, so every one-vs-rest class reuses the
    /// same matrix.
    fn solve_binary_fast_gram(
        &self,
        x: &PackedDesign,
        q: &GramMatrix,
        labels: &[f64],
        class_seed: u64,
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<SvcSolve, TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };

        let mut alpha = vec![0.0f64; n];
        let mut qs = vec![0.0f64; n];
        if let Some(warm) = warm {
            debug_assert_eq!(warm.len(), n, "warm-start dual length must match rows");
            for (i, &wv) in warm.iter().enumerate() {
                let a = wv.clamp(0.0, cfg.c);
                if a != 0.0 {
                    alpha[i] = a;
                    frac_dataset::kernels::axpy_blocked(a * labels[i], q.row(i), &mut qs);
                }
            }
        }

        let mut active: Vec<usize> = (0..n).collect();
        let mut shrink_thr = f64::INFINITY;
        let mut epochs = 0u64;
        let mut visits = 0u64;

        while epochs < cfg.max_epochs as u64 {
            budget.check()?;
            let mut rng = StdRng::seed_from_u64(derive_seed(class_seed, epochs));
            crate::solver::shuffle_fast(&mut active, &mut rng);
            let mut max_violation = 0.0f64;

            let mut idx = 0usize;
            while idx < active.len() {
                let i = active[idx];
                let yi = labels[i];
                let g = yi * qs[i] - 1.0;
                visits += 1;

                let a = alpha[i];
                let shrink = if a == 0.0 {
                    g > shrink_thr
                } else if a >= cfg.c {
                    g < -shrink_thr
                } else {
                    false
                };
                if shrink {
                    active.swap_remove(idx);
                    continue;
                }

                let pg = if a == 0.0 {
                    g.min(0.0)
                } else if a >= cfg.c {
                    g.max(0.0)
                } else {
                    g
                };
                max_violation = max_violation.max(pg.abs());

                let h = q.diag(i);
                if pg.abs() > 1e-14 && h > 0.0 {
                    let a_new = (a - g / h).clamp(0.0, cfg.c);
                    let delta = (a_new - a) * yi;
                    if delta != 0.0 {
                        alpha[i] = a_new;
                        frac_dataset::kernels::axpy_blocked(delta, q.row(i), &mut qs);
                    }
                }
                idx += 1;
            }

            epochs += 1;
            if max_violation < cfg.tolerance {
                if active.len() == n {
                    break;
                }
                active = (0..n).collect();
                shrink_thr = f64::INFINITY;
            } else {
                shrink_thr = max_violation;
            }
        }

        // Reconstruct the primal once: w = Σ α_i y_i x_i over the support.
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        let mut nnz = 0u64;
        for (i, &a) in alpha.iter().enumerate() {
            if a != 0.0 {
                let scaled = a * labels[i];
                x.axpy_row_blocked(i, scaled, &mut w);
                w_bias += scaled * bias_sq;
                nnz += 1;
            }
        }

        stats::record_gram_solve();
        let flops = visits * ((n as u64) + 1) * 4 + nnz * ((d as u64) + 1) * 2;
        Ok(SvcSolve {
            w,
            w_bias,
            alpha,
            epochs,
            visits,
            path_bits: crate::solver::STRATEGY_GRAM_CODE,
            flops,
        })
    }

    /// Fast primal-maintenance path for one binary problem: active-set
    /// shrinking, optional warm-started duals, blocked kernels. Mirrors the
    /// SVR fast path; the box here is `[0, C]` (hinge loss), so the shrink
    /// conditions are the one-sided liblinear ones.
    fn solve_binary_fast_rows<X: SolverRows + ?Sized>(
        &self,
        x: &X,
        labels: &[f64],
        class_seed: u64,
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<SvcSolve, TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
        let q_diag: Vec<f64> = (0..n).map(|i| x.sq_norm(i) + bias_sq).collect();

        let mut alpha = vec![0.0f64; n];
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        if let Some(warm) = warm {
            debug_assert_eq!(warm.len(), n, "warm-start dual length must match rows");
            for (i, &wv) in warm.iter().enumerate() {
                let a = wv.clamp(0.0, cfg.c);
                if a != 0.0 {
                    alpha[i] = a;
                    let scaled = a * labels[i];
                    x.axpy(i, scaled, &mut w);
                    w_bias += scaled * bias_sq;
                }
            }
        }

        let mut active: Vec<usize> = (0..n).collect();
        let mut shrink_thr = f64::INFINITY;
        let mut epochs = 0u64;
        let mut visits = 0u64;

        while epochs < cfg.max_epochs as u64 {
            budget.check()?;
            let mut rng = StdRng::seed_from_u64(derive_seed(class_seed, epochs));
            crate::solver::shuffle_fast(&mut active, &mut rng);
            let mut max_violation = 0.0f64;

            let mut idx = 0usize;
            while idx < active.len() {
                let i = active[idx];
                let yi = labels[i];
                let g = yi * x.dot(i, &w, w_bias * bias_sq) - 1.0;
                visits += 1;

                let a = alpha[i];
                // Shrink: pinned at a box edge with the gradient pointing
                // firmly out of the feasible interval.
                let shrink = if a == 0.0 {
                    g > shrink_thr
                } else if a >= cfg.c {
                    g < -shrink_thr
                } else {
                    false
                };
                if shrink {
                    active.swap_remove(idx);
                    continue;
                }

                let pg = if a == 0.0 {
                    g.min(0.0)
                } else if a >= cfg.c {
                    g.max(0.0)
                } else {
                    g
                };
                max_violation = max_violation.max(pg.abs());

                if pg.abs() > 1e-14 && q_diag[i] > 0.0 {
                    let a_new = (a - g / q_diag[i]).clamp(0.0, cfg.c);
                    let delta = (a_new - a) * yi;
                    if delta != 0.0 {
                        alpha[i] = a_new;
                        x.axpy(i, delta, &mut w);
                        w_bias += delta * bias_sq;
                    }
                }
                idx += 1;
            }

            epochs += 1;
            if max_violation < cfg.tolerance {
                if active.len() == n {
                    break;
                }
                // Unshrink and recheck before declaring convergence.
                active = (0..n).collect();
                shrink_thr = f64::INFINITY;
            } else {
                shrink_thr = max_violation;
            }
        }

        let flops = visits * ((d as u64) + 1) * 4;
        Ok(SvcSolve {
            w,
            w_bias,
            alpha,
            epochs,
            visits,
            path_bits: crate::solver::STRATEGY_PRIMAL_CODE,
            flops,
        })
    }

    /// Dispatch one binary problem on the configured [`SolverMode`] and
    /// record solver stats. `packed`/`gram` carry the per-train fast-path
    /// context hoisted by [`SvcTrainer::train_warm_impl`] (one gather and
    /// at most one Q build shared by all one-vs-rest classes). Fails only
    /// when `budget` trips (the budget is polled once per coordinate-descent
    /// epoch).
    #[allow(clippy::too_many_arguments)]
    fn solve_binary(
        &self,
        x: &dyn DesignView,
        packed: Option<&PackedDesign>,
        gram: Option<&GramMatrix>,
        labels: &[f64],
        class_seed: u64,
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<SvcSolve, TrainError> {
        let span = telemetry::span(telemetry::Stage::Solve);
        let out = match self.config.mode {
            SolverMode::Strict => self.solve_binary_strict(x, labels, class_seed, budget)?,
            SolverMode::Fast => match (packed, gram) {
                (Some(p), Some(q)) => {
                    self.solve_binary_fast_gram(p, q, labels, class_seed, warm, budget)?
                }
                (Some(p), None) => {
                    self.solve_binary_fast_rows(p, labels, class_seed, warm, budget)?
                }
                _ => self.solve_binary_fast_rows(x, labels, class_seed, warm, budget)?,
            },
        };
        drop(span);
        stats::record(out.epochs, out.visits, out.epochs * x.n_rows() as u64);
        telemetry::counter_add(telemetry::Counter::SolverEpochs, out.epochs);
        telemetry::counter_add(telemetry::Counter::SolverVisits, out.visits);
        if out.path_bits != 0 {
            telemetry::counter_add(telemetry::Counter::SolverStrategy, out.path_bits);
        }
        Ok(out)
    }

    /// One-vs-rest solve over all classes with cooperative budget polling.
    /// With an unlimited budget this is the arithmetic of
    /// [`ClassifierTrainer::train_view_warm`], bit for bit.
    #[allow(clippy::type_complexity)]
    fn train_warm_impl(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvc>, Vec<Vec<f64>>), TrainError> {
        assert_eq!(x.n_rows(), y.len(), "target length must match rows");
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let k = arity as usize;

        // Hoist the fast-path gather — and, under the Gram strategy, Q —
        // out of the per-class loop: Q depends only on the design (labels
        // enter the maintained gradient, not the matrix), so every
        // one-vs-rest class shares one Q.
        let packed = if cfg.mode == SolverMode::Fast && n > 0 {
            crate::solver::pack_for_solve(x)
        } else {
            None
        };
        let mut total_flops = 0u64;
        let gram = match &packed {
            Some(p) => {
                let use_gram = match cfg.strategy {
                    SolverStrategy::Primal => false,
                    SolverStrategy::Gram => true,
                    SolverStrategy::Auto => crate::solver::gram_policy().should_use_gram(n, d),
                };
                if use_gram {
                    let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
                    let (q, dots) = crate::solver::gram_for_solve(p, bias_sq, budget)?;
                    total_flops += dots * (d as u64) * 2;
                    Some(q)
                } else {
                    None
                }
            }
            None => None,
        };

        let mut hyperplanes = Vec::with_capacity(k);
        let mut duals = Vec::with_capacity(k);
        let mut used_gram = false;
        for class in 0..k {
            let labels: Vec<f64> = y
                .iter()
                .map(|&c| if c as usize == class { 1.0 } else { -1.0 })
                .collect();
            if n == 0 {
                hyperplanes.push((vec![0.0; d], 0.0));
                duals.push(Vec::new());
                continue;
            }
            let class_warm = warm.and_then(|w| w.get(class)).map(|v| v.as_slice());
            let out = self.solve_binary(
                x,
                packed.as_deref(),
                gram.as_ref(),
                &labels,
                derive_seed(cfg.seed, class as u64),
                class_warm,
                budget,
            )?;
            total_flops += out.flops;
            used_gram |= out.path_bits & crate::solver::STRATEGY_GRAM_CODE != 0;
            hyperplanes.push((out.w, if cfg.bias { out.w_bias } else { 0.0 }));
            duals.push(out.alpha);
        }

        // Visit-based accounting (see svr.rs): flops are priced per path
        // inside each solve (plus the Q entries computed above, charged
        // once); shrinking's skipped coordinates are not charged; warm-init
        // fold-in is priced by the CV driver once per dual vector, never
        // per solve.
        let active_set_bytes = match cfg.mode {
            SolverMode::Fast => n * std::mem::size_of::<usize>(),
            SolverMode::Strict => 0,
        };
        let gram_bytes = if used_gram {
            (n * n + n) * std::mem::size_of::<f64>()
        } else {
            0
        };
        let cost = TrainingCost {
            flops: total_flops,
            peak_bytes: ((2 * n + d) * std::mem::size_of::<f64>() + active_set_bytes + gram_bytes)
                as u64,
        };
        Ok((Trained { model: LinearSvc { hyperplanes }, cost }, duals))
    }
}

/// The raw output of one binary SVC solve.
struct SvcSolve {
    w: Vec<f64>,
    w_bias: f64,
    alpha: Vec<f64>,
    epochs: u64,
    visits: u64,
    /// `STRATEGY_*` mask bits for the path this solve took (0 on strict).
    path_bits: u64,
    /// Flops performed by this solve, priced per path (the shared Q build
    /// is charged once by [`SvcTrainer::train_warm_impl`], not here).
    flops: u64,
}

impl ClassifierTrainer for SvcTrainer {
    type Model = LinearSvc;

    fn train_view(&self, x: &dyn DesignView, y: &[u32], arity: u32) -> Trained<LinearSvc> {
        self.train_view_warm(x, y, arity, None).0
    }

    fn train_view_warm(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
    ) -> (Trained<LinearSvc>, Option<Vec<Vec<f64>>>) {
        match self.train_warm_impl(x, y, arity, warm, &TargetBudget::unlimited()) {
            Ok((trained, duals)) => (trained, Some(duals)),
            Err(_) => unreachable!("unlimited budget cannot trip"),
        }
    }

    /// Same one-vs-rest solve as the infallible path (bit-identical on
    /// success), but validates the problem up front and rejects diverged
    /// binary solves — any NaN/Inf hyperplane — as
    /// [`TrainError::NonConvergence`].
    fn try_train_view_warm(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
    ) -> Result<(Trained<LinearSvc>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        let (trained, duals) = self.train_view_warm(x, y, arity, warm);
        let diverged = trained.model.hyperplanes.iter().any(|(w, b)| {
            !fault::all_finite(w) || !b.is_finite()
        });
        if diverged {
            return Err(TrainError::NonConvergence {
                epochs: self.config.max_epochs as u64,
            });
        }
        Ok((trained, duals))
    }

    /// Budget-polling one-vs-rest solve: same arithmetic as the other
    /// paths, with the budget checked once per epoch of every binary
    /// sub-problem.
    fn try_train_view_budgeted(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvc>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        budget.check()?;
        let (trained, duals) = self.train_warm_impl(x, y, arity, warm, budget)?;
        let diverged = trained.model.hyperplanes.iter().any(|(w, b)| {
            !fault::all_finite(w) || !b.is_finite()
        });
        if diverged {
            return Err(TrainError::NonConvergence {
                epochs: self.config.max_epochs as u64,
            });
        }
        Ok((trained, Some(duals)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    fn matrix(rows: &[&[f64]]) -> DesignMatrix {
        let n_cols = rows[0].len();
        let values: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        DesignMatrix::from_raw(rows.len(), n_cols, values)
    }

    #[test]
    fn separates_binary_classes() {
        let x = matrix(&[
            &[-2.0, -1.5],
            &[-1.5, -2.0],
            &[-1.0, -1.0],
            &[1.0, 1.5],
            &[2.0, 1.0],
            &[1.5, 2.0],
        ]);
        let y = vec![0, 0, 0, 1, 1, 1];
        let t = SvcTrainer::default().train(&x, &y, 2);
        for (i, &label) in y.iter().enumerate() {
            assert_eq!(t.model.predict(x.row(i)), label, "sample {i}");
        }
        assert_eq!(t.model.predict(&[-3.0, -3.0]), 0);
        assert_eq!(t.model.predict(&[3.0, 3.0]), 1);
    }

    #[test]
    fn three_class_one_vs_rest() {
        // Three well-separated clusters, mimicking ternary SNP structure.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        let centers = [(-3.0, 0.0), (0.0, 3.0), (3.0, 0.0)];
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for k in 0..8 {
                let jx = (k % 3) as f64 * 0.1 - 0.1;
                let jy = (k % 4) as f64 * 0.1 - 0.15;
                rows.push(vec![cx + jx, cy + jy]);
                y.push(c as u32);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = matrix(&refs);
        let t = SvcTrainer::default().train(&x, &y, 3);
        assert_eq!(t.model.n_classes(), 3);
        let correct = y
            .iter()
            .enumerate()
            .filter(|&(i, &label)| t.model.predict(x.row(i)) == label)
            .count();
        assert_eq!(correct, y.len());
    }

    #[test]
    fn never_seen_class_still_has_hyperplane() {
        let x = matrix(&[&[0.0], &[1.0]]);
        let y = vec![0, 0];
        let t = SvcTrainer::default().train(&x, &y, 3);
        // Predictions remain valid codes even though classes 1,2 were absent.
        assert!(t.model.predict(&[0.5]) < 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let x = matrix(&[&[0.1], &[0.9], &[0.4], &[0.6]]);
        let y = vec![0, 1, 0, 1];
        let a = SvcTrainer::default().train(&x, &y, 2);
        let b = SvcTrainer::default().train(&x, &y, 2);
        for i in 0..4 {
            assert_eq!(
                a.model.decision_value(1, x.row(i)),
                b.model.decision_value(1, x.row(i))
            );
        }
    }

    #[test]
    fn empty_training_set_yields_valid_model() {
        let x = DesignMatrix::from_raw(0, 2, vec![]);
        let t = SvcTrainer::default().train(&x, &[], 3);
        assert!(t.model.predict(&[1.0, 1.0]) < 3);
        assert_eq!(t.cost.flops, 0);
    }

    #[test]
    fn small_c_is_more_regularized() {
        let x = matrix(&[&[-1.0], &[-0.5], &[0.5], &[1.0]]);
        let y = vec![0, 0, 1, 1];
        let small = SvcTrainer::new(SvcConfig { c: 1e-3, ..SvcConfig::default() })
            .train(&x, &y, 2);
        let large = SvcTrainer::new(SvcConfig { c: 100.0, ..SvcConfig::default() })
            .train(&x, &y, 2);
        let norm = |m: &LinearSvc| {
            m.hyperplanes[1].0.iter().map(|w| w * w).sum::<f64>().sqrt()
        };
        assert!(norm(&small.model) <= norm(&large.model) + 1e-9);
    }

    #[test]
    fn budgeted_path_matches_warm_path_and_trips_when_expired() {
        use crate::budget::RunBudget;
        let x = matrix(&[&[-1.0], &[-0.5], &[0.5], &[1.0]]);
        let y = vec![0, 0, 1, 1];
        let t = SvcTrainer::default();
        let (a, da) = t
            .try_train_view_budgeted(&x, &y, 2, None, &TargetBudget::unlimited())
            .unwrap();
        let (b, db) = t.try_train_view_warm(&x, &y, 2, None).unwrap();
        for k in 0..2 {
            assert_eq!(a.model.hyperplanes[k], b.model.hyperplanes[k]);
        }
        assert_eq!(da, db);

        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert_eq!(
            t.try_train_view_budgeted(&x, &y, 2, None, &expired).unwrap_err(),
            TrainError::DeadlineExceeded
        );
    }

    #[test]
    fn approx_bytes_counts_all_hyperplanes() {
        let x = matrix(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let t = SvcTrainer::default().train(&x, &[0, 1], 4);
        assert_eq!(t.model.approx_bytes(), 4 * 3 * 8);
    }

    /// Bits of one binary solve's weights, bias, and duals.
    fn solve_bits(s: &SvcSolve) -> (Vec<u64>, u64, Vec<u64>) {
        (
            s.w.iter().map(|v| v.to_bits()).collect(),
            s.w_bias.to_bits(),
            s.alpha.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn view_fallback_matches_packed_rows_bit_for_bit() {
        // The zero-copy view loop (designs beyond `PackedDesign::MAX_ELEMS`)
        // and the packed loop feed the blocked kernels the same contiguous
        // rows of an owned matrix, so they must agree to the bit — cold and
        // warm-started. See the SVR twin of this test.
        let (n, d) = (24usize, 37usize);
        let values: Vec<f64> =
            (0..n * d).map(|k| ((k * 7919 % 23) as f64 / 11.0 - 1.0) * 0.5).collect();
        let x = DesignMatrix::from_raw(n, d, values);
        let labels: Vec<f64> = (0..n).map(|i| if i * 13 % 7 < 3 { 1.0 } else { -1.0 }).collect();
        let packed = PackedDesign::from_view(&x).unwrap();
        let view: &dyn DesignView = &x;
        let t = SvcTrainer::default();
        let seed = t.config.seed;
        let unlimited = TargetBudget::unlimited();

        let cold = t.solve_binary_fast_rows(view, &labels, seed, None, &unlimited).unwrap();
        assert!(cold.alpha.iter().any(|&a| a != 0.0), "solve must move the duals");
        let cold_packed =
            t.solve_binary_fast_rows(&packed, &labels, seed, None, &unlimited).unwrap();
        assert_eq!(solve_bits(&cold), solve_bits(&cold_packed), "cold");
        assert_eq!((cold.epochs, cold.visits), (cold_packed.epochs, cold_packed.visits));

        // Warm start from scaled cold duals, some pushed outside the box so
        // the clamp runs too.
        let warm: Vec<f64> = cold
            .alpha
            .iter()
            .enumerate()
            .map(|(i, &a)| if i % 5 == 0 { 3.0 } else { 0.5 * a })
            .collect();
        let hot = t.solve_binary_fast_rows(view, &labels, seed, Some(&warm), &unlimited).unwrap();
        let hot_packed =
            t.solve_binary_fast_rows(&packed, &labels, seed, Some(&warm), &unlimited).unwrap();
        assert_eq!(solve_bits(&hot), solve_bits(&hot_packed), "warm");
        assert_eq!((hot.epochs, hot.visits), (hot_packed.epochs, hot_packed.visits));
    }
}
