//! Linear ε-insensitive support vector regression.
//!
//! The paper learns every continuous feature with a linear-kernel SVM
//! (originally libSVM's ε-SVR), chosen because "the SVM is a regularized
//! model … not highly susceptible to overfitting", which matters for the
//! high-dimension / tiny-sample data sets of precision medicine.
//!
//! For a linear kernel the kernelized SMO of libSVM is equivalent to — but
//! far slower than — the **dual coordinate descent** method of liblinear
//! (Ho & Lin, *Large-scale Linear Support Vector Regression*, JMLR 2012).
//! We implement that solver for the L1-loss (hinge-ε) primal
//!
//! ```text
//!   min_w  ½‖w‖² + C Σ_i max(0, |wᵀx_i − y_i| − ε)
//! ```
//!
//! via its dual over β ∈ [−C, C]ⁿ, sweeping coordinates in a seeded random
//! permutation per epoch and maintaining `w = Σ βᵢ xᵢ` incrementally. A bias
//! term is handled by the standard constant-feature augmentation.
//!
//! Two solver paths exist (see [`crate::solver`]): the **strict** reference
//! sweep above, and the default **fast** path adding liblinear's two classic
//! accelerations — active-set shrinking with an unshrink-and-recheck pass,
//! and warm-started duals through [`RegressorTrainer::train_view_warm`] —
//! on top of the blocked view kernels.

use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::solver::{stats, GramMatrix, SolverMode, SolverRows, SolverStrategy};
use crate::telemetry;
use crate::traits::{Regressor, RegressorTrainer, Trained, TrainingCost};
use frac_dataset::split::derive_seed;
use frac_dataset::DesignView;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Hyperparameters for [`LinearSvr`] training.
#[derive(Debug, Clone, Copy)]
pub struct SvrConfig {
    /// Soft-margin cost C (upper bound on |βᵢ|).
    pub c: f64,
    /// ε-insensitivity width.
    pub epsilon: f64,
    /// Maximum coordinate-descent epochs.
    pub max_epochs: usize,
    /// Stop when the largest projected-gradient violation in an epoch falls
    /// below this tolerance.
    pub tolerance: f64,
    /// Include a bias term (constant-feature augmentation).
    pub bias: bool,
    /// Seed for the per-epoch coordinate permutation.
    pub seed: u64,
    /// Solver path: fast (shrinking + warm starts, default) or strict.
    pub mode: SolverMode,
    /// Fast-path execution strategy: Gram-matrix dual maintenance, primal
    /// maintenance, or cost-model auto-selection (default). Strict mode
    /// ignores this and always runs the primal reference sweep.
    pub strategy: SolverStrategy,
}

impl Default for SvrConfig {
    fn default() -> Self {
        // C = 1, ε = 0.1 are libSVM's defaults, which the original FRaC code
        // used unchanged. The epoch cap and tolerance follow liblinear's
        // philosophy of loose stopping (its SVR default eps is 0.1): models
        // that cannot fit inside the ε-tube (e.g. tiny Diverse subsets of
        // mostly-irrelevant inputs) never drive their violation to zero, so
        // a tight tolerance would burn the full epoch budget on them and
        // distort the variant cost ratios of the paper's Tables III–IV.
        SvrConfig {
            c: 1.0,
            epsilon: 0.1,
            max_epochs: 100,
            tolerance: 0.01,
            bias: true,
            seed: 0x5f3c_9e1d,
            mode: SolverMode::Fast,
            strategy: SolverStrategy::Auto,
        }
    }
}

/// A fitted linear SVR model: `ŷ(x) = wᵀx + b`.
#[derive(Debug, Clone)]
pub struct LinearSvr {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvr {
    /// The weight vector (one entry per design-matrix column).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Construct directly from fitted parameters (persistence path).
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        LinearSvr { weights, bias }
    }

    /// Serialize into a byte writer (model persistence): bias, then the
    /// counted weights.
    pub fn write_bin(&self, w: &mut frac_dataset::binio::ByteWriter) {
        w.f64(self.bias);
        w.f64s(&self.weights);
    }

    /// Parse a model previously produced by [`LinearSvr::write_bin`].
    pub fn parse_bin(
        r: &mut frac_dataset::binio::ByteReader<'_>,
    ) -> Result<Self, frac_dataset::binio::ByteError> {
        let bias = r.f64("svr bias")?;
        let weights = r.f64s("svr weights")?;
        Ok(LinearSvr { weights, bias })
    }

    /// Parse a model from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut frac_dataset::textio::TextReader<'_>,
    ) -> Result<Self, frac_dataset::textio::TextError> {
        let bias: f64 = r.parse_one("svr_bias")?;
        let weights: Vec<f64> = r.parse_all("svr_weights")?;
        Ok(LinearSvr { weights, bias })
    }
}

impl Regressor for LinearSvr {
    fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.weights.len());
        self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>() + self.bias
    }

    fn approx_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<f64>() + std::mem::size_of::<f64>()
    }
}

/// Trainer implementing the dual coordinate-descent ε-SVR solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvrTrainer {
    /// Hyperparameters.
    pub config: SvrConfig,
}

/// The raw output of one dual solve: primal weights, duals, and work done.
struct SvrSolve {
    w: Vec<f64>,
    w_bias: f64,
    beta: Vec<f64>,
    epochs: u64,
    /// Coordinates whose gradient was evaluated (= dense `epochs · n` on the
    /// strict path; less under shrinking).
    visits: u64,
    /// `STRATEGY_*` mask bits describing the path this solve actually took
    /// (0 on the strict path, which predates the strategy telemetry).
    path_bits: u64,
    /// Flops actually performed, priced per path: the primal loop pays
    /// O(d) per visit, the Gram loop O(n) per visit plus the one-off Q
    /// build and final w reconstruction.
    flops: u64,
}

impl SvrTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: SvrConfig) -> Self {
        SvrTrainer { config }
    }

    /// The strict reference sweep: every coordinate every epoch, exact
    /// sequential kernels. Ignores warm starts by design — this path's
    /// results depend only on (data, config), never on solve history.
    /// The budget is polled once per epoch (the cooperative cancellation
    /// granularity of the ISSUE's "checked every N passes").
    fn solve_strict(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        budget: &TargetBudget,
    ) -> Result<SvrSolve, TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
        // Q_ii = x_i·x_i (+1 for the bias augmentation).
        let q_diag: Vec<f64> = (0..n).map(|i| x.row_sq_norm(i) + bias_sq).collect();

        let mut beta = vec![0.0f64; n];
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        let mut order: Vec<usize> = (0..n).collect();
        let mut epochs_run = 0u64;

        for epoch in 0..cfg.max_epochs {
            budget.check()?;
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, epoch as u64));
            order.shuffle(&mut rng);
            let mut max_violation = 0.0f64;

            for &i in &order {
                let h = q_diag[i];
                // G = wᵀx_i − y_i (folded in ascending column order — any
                // view must reproduce the owned accumulation bit for bit).
                let g = x.row_dot_acc(i, &w, -y[i] + w_bias * bias_sq);
                let gp = g + cfg.epsilon;
                let gn = g - cfg.epsilon;

                // Projected-gradient violation (liblinear's criterion): at a
                // bound, only a gradient pointing back *into* the feasible
                // interval counts — a blocked direction is KKT-optimal.
                let b = beta[i];
                let violation = svr_violation(b, gp, gn, cfg.c);
                max_violation = max_violation.max(violation);

                if h <= 0.0 {
                    // Zero row: objective is linear in β_i; any movement is
                    // unbounded or useless. Reset to 0.
                    beta[i] = 0.0;
                    continue;
                }

                // Newton step on the piecewise-quadratic dual coordinate.
                let dstep = if gp < h * b {
                    -gp / h
                } else if gn > h * b {
                    -gn / h
                } else {
                    -b
                };
                if dstep.abs() < 1e-14 {
                    continue;
                }
                let beta_new = (b + dstep).clamp(-cfg.c, cfg.c);
                let delta = beta_new - b;
                if delta != 0.0 {
                    beta[i] = beta_new;
                    x.axpy_row(i, delta, &mut w);
                    w_bias += delta * bias_sq;
                }
            }

            epochs_run = (epoch + 1) as u64;
            if max_violation < cfg.tolerance {
                break;
            }
        }

        let visits = epochs_run * n as u64;
        // Every visited coordinate touches its (d+1) augmented columns twice
        // (gradient + update), ~4 flops each.
        let flops = visits * ((d as u64) + 1) * 4;
        Ok(SvrSolve { w, w_bias, beta, epochs: epochs_run, visits, path_bits: 0, flops })
    }

    /// The fast path: active-set shrinking (liblinear §4), warm-started
    /// duals, blocked kernels. A bound-pinned coordinate whose projected
    /// gradient clears the previous epoch's worst violation is dropped from
    /// the sweep; once the active set converges, one full
    /// unshrink-and-recheck pass runs with shrinking disabled before
    /// convergence is declared.
    fn solve_fast(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<SvrSolve, TrainError> {
        // Gather the design into contiguous rows when it fits the packing
        // budget: the epoch loops below then monomorphize to single-slice
        // kernel calls with no view indirection. The Gram strategy
        // additionally requires a packed design (Q is built from its rows),
        // so an unpackable view always takes the primal path.
        let cfg = &self.config;
        match crate::solver::pack_for_solve(x) {
            Some(packed) => {
                let n = packed.n_rows();
                let d = packed.n_cols();
                let use_gram = match cfg.strategy {
                    SolverStrategy::Primal => false,
                    SolverStrategy::Gram => n > 0,
                    SolverStrategy::Auto => crate::solver::gram_policy().should_use_gram(n, d),
                };
                if use_gram {
                    let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
                    let (gram, dots) = crate::solver::gram_for_solve(&packed, bias_sq, budget)?;
                    self.solve_fast_gram(&packed, &gram, dots, y, warm, budget)
                } else {
                    self.solve_fast_rows(packed.as_ref(), y, warm, budget)
                }
            }
            None => self.solve_fast_rows(x, y, warm, budget),
        }
    }

    /// The Gram-strategy fast loop: identical sweep order, shrinking, and
    /// stopping logic to [`SvrTrainer::solve_fast_rows`], but the gradient
    /// comes from a maintained dual image `qb[i] = Σ_j Q_ij β_j` (an O(1)
    /// read + O(n) row-of-Q update per step) instead of an O(d) primal dot;
    /// `w` is reconstructed once at convergence.
    fn solve_fast_gram(
        &self,
        x: &frac_dataset::PackedDesign,
        q: &GramMatrix,
        gram_dots: u64,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<SvrSolve, TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };

        let mut beta = vec![0.0f64; n];
        // qb[i] tracks w·x_i + w_bias·bias exactly (Q folds the bias into
        // every entry), so g = qb[i] − y_i mirrors the primal gradient.
        let mut qb = vec![0.0f64; n];
        if let Some(warm) = warm {
            debug_assert_eq!(warm.len(), n, "warm-start dual length must match rows");
            for (i, &wv) in warm.iter().enumerate() {
                let b = wv.clamp(-cfg.c, cfg.c);
                if b != 0.0 {
                    beta[i] = b;
                    frac_dataset::kernels::axpy_blocked(b, q.row(i), &mut qb);
                }
            }
        }

        let mut active: Vec<usize> = (0..n).collect();
        let mut shrink_thr = f64::INFINITY;
        let mut epochs = 0u64;
        let mut visits = 0u64;

        while epochs < cfg.max_epochs as u64 {
            budget.check()?;
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, epochs));
            crate::solver::shuffle_fast(&mut active, &mut rng);
            let mut max_violation = 0.0f64;

            let mut idx = 0usize;
            while idx < active.len() {
                let i = active[idx];
                let h = q.diag(i);
                let g = qb[i] - y[i];
                visits += 1;
                let gp = g + cfg.epsilon;
                let gn = g - cfg.epsilon;
                let b = beta[i];

                let shrink = if b == 0.0 {
                    gp > shrink_thr && gn < -shrink_thr
                } else if b >= cfg.c {
                    gp < -shrink_thr
                } else if b <= -cfg.c {
                    gn > shrink_thr
                } else {
                    false
                };
                if shrink {
                    active.swap_remove(idx);
                    continue;
                }

                max_violation = max_violation.max(svr_violation(b, gp, gn, cfg.c));

                if h <= 0.0 {
                    beta[i] = 0.0;
                    idx += 1;
                    continue;
                }

                let dstep = if gp < h * b {
                    -gp / h
                } else if gn > h * b {
                    -gn / h
                } else {
                    -b
                };
                if dstep.abs() >= 1e-14 {
                    let beta_new = (b + dstep).clamp(-cfg.c, cfg.c);
                    let delta = beta_new - b;
                    if delta != 0.0 {
                        beta[i] = beta_new;
                        frac_dataset::kernels::axpy_blocked(delta, q.row(i), &mut qb);
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

        // Reconstruct the primal once: w = Xᵀβ over the support vectors.
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        let mut nnz = 0u64;
        for (i, &b) in beta.iter().enumerate() {
            if b != 0.0 {
                x.axpy_row_blocked(i, b, &mut w);
                w_bias += b * bias_sq;
                nnz += 1;
            }
        }

        stats::record_gram_solve();
        // Per visit: O(1) gradient + O(n+1) row-of-Q axpy (~4 flops/entry);
        // plus the final O(nnz·d) reconstruction, and 2d flops for each Q
        // entry this solve computed (entries gathered from the scope Q
        // were paid for by the solve that computed them).
        let flops = visits * ((n as u64) + 1) * 4
            + nnz * ((d as u64) + 1) * 2
            + gram_dots * (d as u64) * 2;
        Ok(SvrSolve {
            w,
            w_bias,
            beta,
            epochs,
            visits,
            path_bits: crate::solver::STRATEGY_GRAM_CODE,
            flops,
        })
    }

    fn solve_fast_rows<X: SolverRows + ?Sized>(
        &self,
        x: &X,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<SvrSolve, TrainError> {
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();
        let bias_sq = if cfg.bias { 1.0 } else { 0.0 };
        let q_diag: Vec<f64> = (0..n).map(|i| x.sq_norm(i) + bias_sq).collect();

        let mut beta = vec![0.0f64; n];
        let mut w = vec![0.0f64; d];
        let mut w_bias = 0.0f64;
        if let Some(warm) = warm {
            debug_assert_eq!(warm.len(), n, "warm-start dual length must match rows");
            for (i, &wv) in warm.iter().enumerate() {
                // Clamp into the feasible box: any feasible point is a valid
                // start, so a caller may pass duals fit under a different C.
                let b = wv.clamp(-cfg.c, cfg.c);
                if b != 0.0 {
                    beta[i] = b;
                    x.axpy(i, b, &mut w);
                    w_bias += b * bias_sq;
                }
            }
        }

        let mut active: Vec<usize> = (0..n).collect();
        let mut shrink_thr = f64::INFINITY;
        let mut epochs = 0u64;
        let mut visits = 0u64;

        while epochs < cfg.max_epochs as u64 {
            budget.check()?;
            let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, epochs));
            crate::solver::shuffle_fast(&mut active, &mut rng);
            let mut max_violation = 0.0f64;

            let mut idx = 0usize;
            while idx < active.len() {
                let i = active[idx];
                let h = q_diag[i];
                let g = x.dot(i, &w, -y[i] + w_bias * bias_sq);
                visits += 1;
                let gp = g + cfg.epsilon;
                let gn = g - cfg.epsilon;
                let b = beta[i];

                // Shrink: pinned at a bound with the blocked direction's
                // gradient beyond the previous epoch's worst violation —
                // KKT-optimal with margin, so skip it until the recheck.
                let shrink = if b == 0.0 {
                    gp > shrink_thr && gn < -shrink_thr
                } else if b >= cfg.c {
                    gp < -shrink_thr
                } else if b <= -cfg.c {
                    gn > shrink_thr
                } else {
                    false
                };
                if shrink {
                    active.swap_remove(idx);
                    continue;
                }

                max_violation = max_violation.max(svr_violation(b, gp, gn, cfg.c));

                if h <= 0.0 {
                    beta[i] = 0.0;
                    idx += 1;
                    continue;
                }

                let dstep = if gp < h * b {
                    -gp / h
                } else if gn > h * b {
                    -gn / h
                } else {
                    -b
                };
                if dstep.abs() >= 1e-14 {
                    let beta_new = (b + dstep).clamp(-cfg.c, cfg.c);
                    let delta = beta_new - b;
                    if delta != 0.0 {
                        beta[i] = beta_new;
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
                // Unshrink and recheck: restore every coordinate and run one
                // full pass with shrinking disabled (infinite threshold).
                active = (0..n).collect();
                shrink_thr = f64::INFINITY;
            } else {
                shrink_thr = max_violation;
            }
        }

        let flops = visits * ((d as u64) + 1) * 4;
        Ok(SvrSolve {
            w,
            w_bias,
            beta,
            epochs,
            visits,
            path_bits: crate::solver::STRATEGY_PRIMAL_CODE,
            flops,
        })
    }

    /// Dispatch on the configured [`SolverMode`], record solver stats, and
    /// price the work actually done. Returns [`TrainError::DeadlineExceeded`]
    /// only when `budget` trips; with an unlimited budget it never fails.
    fn solve_impl(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvr>, Vec<f64>), TrainError> {
        assert_eq!(x.n_rows(), y.len(), "target length must match rows");
        let cfg = &self.config;
        let n = x.n_rows();
        let d = x.n_cols();

        if n == 0 {
            return Ok((
                Trained {
                    model: LinearSvr { weights: vec![0.0; d], bias: 0.0 },
                    cost: TrainingCost::default(),
                },
                Vec::new(),
            ));
        }

        let span = telemetry::span(telemetry::Stage::Solve);
        let out = match cfg.mode {
            SolverMode::Strict => self.solve_strict(x, y, budget)?,
            SolverMode::Fast => self.solve_fast(x, y, warm, budget)?,
        };
        drop(span);
        stats::record(out.epochs, out.visits, out.epochs * n as u64);
        telemetry::counter_add(telemetry::Counter::SolverEpochs, out.epochs);
        telemetry::counter_add(telemetry::Counter::SolverVisits, out.visits);
        if out.path_bits != 0 {
            telemetry::counter_add(telemetry::Counter::SolverStrategy, out.path_bits);
        }

        // Flops are priced per path inside each solve (the Gram loop's visit
        // is O(n), the primal loop's O(d), and a Q entry is charged only by
        // the solve that computed it). Warm-start initialization is priced
        // by the CV driver once per dual vector, not here — a cached dual
        // vector may seed many solves (folds, ensemble members), and
        // charging per solve would double-count the same fold-in work.
        // Under shrinking, `visits` counts only coordinates actually swept,
        // so the savings show up in ResourceReport instead of being charged
        // as dense work.
        let active_set_bytes = match cfg.mode {
            SolverMode::Fast => n * std::mem::size_of::<usize>(),
            SolverMode::Strict => 0,
        };
        let gram_bytes = if out.path_bits & crate::solver::STRATEGY_GRAM_CODE != 0 {
            (n * n + n) * std::mem::size_of::<f64>()
        } else {
            0
        };
        let cost = TrainingCost {
            flops: out.flops,
            peak_bytes: ((n + d + n) * std::mem::size_of::<f64>() + active_set_bytes + gram_bytes)
                as u64,
        };
        Ok((
            Trained {
                model: LinearSvr {
                    weights: out.w,
                    bias: if cfg.bias { out.w_bias } else { 0.0 },
                },
                cost,
            },
            out.beta,
        ))
    }

    /// Infallible solve: identical arithmetic under an unlimited budget,
    /// which can never trip.
    fn solve(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
    ) -> (Trained<LinearSvr>, Vec<f64>) {
        match self.solve_impl(x, y, warm, &TargetBudget::unlimited()) {
            Ok(out) => out,
            Err(_) => unreachable!("unlimited budget cannot trip"),
        }
    }
}

/// Projected-gradient violation of one dual coordinate (liblinear's
/// stopping criterion), shared by both solver paths.
#[inline]
fn svr_violation(b: f64, gp: f64, gn: f64, c: f64) -> f64 {
    if b == 0.0 {
        if gp < 0.0 {
            -gp
        } else if gn > 0.0 {
            gn
        } else {
            0.0
        }
    } else if b >= c {
        gp.max(0.0)
    } else if b <= -c {
        (-gn).max(0.0)
    } else if b > 0.0 {
        gp.abs()
    } else {
        gn.abs()
    }
}

impl RegressorTrainer for SvrTrainer {
    type Model = LinearSvr;

    fn train_view(&self, x: &dyn DesignView, y: &[f64]) -> Trained<LinearSvr> {
        self.solve(x, y, None).0
    }

    fn train_view_warm(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
    ) -> (Trained<LinearSvr>, Option<Vec<f64>>) {
        let (trained, beta) = self.solve(x, y, warm);
        (trained, Some(beta))
    }

    /// Same solve as the infallible path (bit-identical on success), but
    /// validates the problem up front and rejects diverged solves — NaN/Inf
    /// weights after the epoch budget — as [`TrainError::NonConvergence`].
    fn try_train_view_warm(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
    ) -> Result<(Trained<LinearSvr>, Option<Vec<f64>>), TrainError> {
        fault::check_regression_problem(x, y)?;
        let (trained, beta) = self.solve(x, y, warm);
        if !fault::all_finite(trained.model.weights()) || !trained.model.bias().is_finite() {
            return Err(TrainError::NonConvergence {
                epochs: self.config.max_epochs as u64,
            });
        }
        Ok((trained, Some(beta)))
    }

    /// Budget-polling solve: same arithmetic as the other paths, with the
    /// budget checked once per coordinate-descent epoch.
    fn try_train_view_budgeted(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvr>, Option<Vec<f64>>), TrainError> {
        fault::check_regression_problem(x, y)?;
        let (trained, beta) = self.solve_impl(x, y, warm, budget)?;
        if !fault::all_finite(trained.model.weights()) || !trained.model.bias().is_finite() {
            return Err(TrainError::NonConvergence {
                epochs: self.config.max_epochs as u64,
            });
        }
        Ok((trained, Some(beta)))
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
    fn fits_exact_linear_function() {
        // y = 2x − 1, noiseless, well within ε=0 reach.
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0], &[4.0], &[5.0]]);
        let y: Vec<f64> = (0..6).map(|i| 2.0 * i as f64 - 1.0).collect();
        let cfg = SvrConfig { epsilon: 0.01, c: 100.0, ..SvrConfig::default() };
        let t = SvrTrainer::new(cfg).train(&x, &y);
        for (i, target) in y.iter().enumerate() {
            let pred = t.model.predict(&[i as f64]);
            assert!(
                (pred - target).abs() < 0.05,
                "pred {pred} vs true {target} at x={i}"
            );
        }
        assert!((t.model.weights()[0] - 2.0).abs() < 0.05);
        assert!((t.model.bias() - (-1.0)).abs() < 0.1);
    }

    #[test]
    fn multifeature_plane() {
        // y = x0 − 3x1 + 0.5.
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64 * 0.3, (i % 5) as f64 * 0.4])
            .collect();
        let rows: Vec<&[f64]> = pts.iter().map(|p| p.as_slice()).collect();
        let x = matrix(&rows);
        let y: Vec<f64> = pts.iter().map(|p| p[0] - 3.0 * p[1] + 0.5).collect();
        let cfg = SvrConfig { epsilon: 0.01, c: 50.0, ..SvrConfig::default() };
        let t = SvrTrainer::new(cfg).train(&x, &y);
        for (p, &target) in pts.iter().zip(&y) {
            assert!((t.model.predict(p) - target).abs() < 0.1);
        }
    }

    #[test]
    fn epsilon_tube_tolerates_small_noise() {
        // Targets within a wide ε-tube: the solver must find a solution with
        // zero hinge loss (every prediction within ε of its target) and a
        // small weight norm — it must not chase the ±0.02 noise.
        let x = matrix(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let y = vec![1.0, 1.02, 0.98, 1.01];
        let cfg = SvrConfig { epsilon: 0.5, c: 10.0, ..SvrConfig::default() };
        let t = SvrTrainer::new(cfg).train(&x, &y);
        for (i, &target) in y.iter().enumerate() {
            let pred = t.model.predict(x.row(i));
            assert!(
                (pred - target).abs() <= cfg.epsilon + 0.02,
                "sample {i}: residual {} exceeds tube",
                (pred - target).abs()
            );
        }
        assert!(t.model.weights()[0].abs() < 0.5, "weights must stay small");
    }

    #[test]
    fn regularization_bounds_weights() {
        // One wild outlier: with small C its influence is capped.
        let x = matrix(&[&[0.0], &[1.0], &[2.0], &[3.0], &[100.0]]);
        let y = vec![0.0, 1.0, 2.0, 3.0, -500.0];
        let small_c = SvrTrainer::new(SvrConfig { c: 0.001, ..SvrConfig::default() })
            .train(&x, &y);
        let large_c = SvrTrainer::new(SvrConfig { c: 100.0, ..SvrConfig::default() })
            .train(&x, &y);
        assert!(
            small_c.model.weights()[0].abs() < large_c.model.weights()[0].abs() + 1e-9,
            "small C must shrink weights"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let x = matrix(&[&[0.1, 0.2], &[0.5, -0.3], &[-0.7, 0.9], &[0.2, 0.2]]);
        let y = vec![1.0, -0.5, 0.3, 0.9];
        let a = SvrTrainer::default().train(&x, &y);
        let b = SvrTrainer::default().train(&x, &y);
        assert_eq!(a.model.weights(), b.model.weights());
        assert_eq!(a.model.bias(), b.model.bias());
    }

    #[test]
    fn zero_column_matrix_learns_bias_only() {
        let x = DesignMatrix::empty(5);
        let y = vec![2.0; 5];
        let t = SvrTrainer::new(SvrConfig { epsilon: 0.0, c: 10.0, ..SvrConfig::default() })
            .train(&x, &y);
        assert!((t.model.predict(&[]) - 2.0).abs() < 0.05);
    }

    #[test]
    fn empty_training_set_yields_zero_model() {
        let x = DesignMatrix::from_raw(0, 3, vec![]);
        let t = SvrTrainer::default().train(&x, &[]);
        assert_eq!(t.model.predict(&[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(t.cost.flops, 0);
    }

    #[test]
    fn cost_scales_with_problem_size() {
        let small = matrix(&[&[1.0], &[2.0]]);
        let big = matrix(&[&[1.0, 2.0, 3.0, 4.0], &[2.0, 1.0, 0.0, 1.0]]);
        // Use a single epoch so convergence speed doesn't confound the size
        // comparison.
        let cfg = SvrConfig { max_epochs: 1, ..SvrConfig::default() };
        let a = SvrTrainer::new(cfg).train(&small, &[0.0, 1.0]);
        let b = SvrTrainer::new(cfg).train(&big, &[0.0, 1.0]);
        assert!(b.cost.flops > a.cost.flops);
        assert!(b.cost.peak_bytes > a.cost.peak_bytes);
    }

    #[test]
    fn budgeted_path_matches_warm_path_and_trips_when_expired() {
        use crate::budget::RunBudget;
        use crate::traits::RegressorTrainer;
        let x = matrix(&[&[0.1, 0.2], &[0.5, -0.3], &[-0.7, 0.9], &[0.2, 0.2]]);
        let y = vec![1.0, -0.5, 0.3, 0.9];
        let t = SvrTrainer::default();
        let (a, da) = t
            .try_train_view_budgeted(&x, &y, None, &TargetBudget::unlimited())
            .unwrap();
        let (b, db) = t.try_train_view_warm(&x, &y, None).unwrap();
        assert_eq!(a.model.weights(), b.model.weights());
        assert_eq!(a.model.bias(), b.model.bias());
        assert_eq!(da, db);

        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert_eq!(
            t.try_train_view_budgeted(&x, &y, None, &expired).unwrap_err(),
            TrainError::DeadlineExceeded
        );
    }

    #[test]
    fn no_bias_config_fixes_bias_at_zero() {
        let x = matrix(&[&[1.0], &[2.0]]);
        let y = vec![5.0, 5.0];
        let t = SvrTrainer::new(SvrConfig { bias: false, ..SvrConfig::default() })
            .train(&x, &y);
        assert_eq!(t.model.bias(), 0.0);
    }

    /// Bits of one solve's weights, bias, and duals.
    fn solve_bits(s: &SvrSolve) -> (Vec<u64>, u64, Vec<u64>) {
        (
            s.w.iter().map(|v| v.to_bits()).collect(),
            s.w_bias.to_bits(),
            s.beta.iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn view_fallback_matches_packed_rows_bit_for_bit() {
        // Designs beyond `PackedDesign::MAX_ELEMS` run the primal fast loop
        // over the zero-copy `dyn DesignView`. An owned matrix hands each
        // row to the blocked kernels as one contiguous slice, exactly as the
        // packed gather does, so both loops must agree to the bit — cold and
        // warm-started. 37 columns exercise the 16-lane body and the tails.
        let (n, d) = (24usize, 37usize);
        let values: Vec<f64> =
            (0..n * d).map(|k| ((k * 7919 % 23) as f64 / 11.0 - 1.0) * 0.5).collect();
        let x = DesignMatrix::from_raw(n, d, values);
        let y: Vec<f64> = (0..n).map(|i| ((i * 13 % 9) as f64 - 4.0) * 0.3).collect();
        let packed = frac_dataset::PackedDesign::from_view(&x).unwrap();
        let view: &dyn DesignView = &x;
        let t = SvrTrainer::default();
        let unlimited = TargetBudget::unlimited();

        let cold = t.solve_fast_rows(view, &y, None, &unlimited).unwrap();
        assert!(cold.beta.iter().any(|&b| b != 0.0), "solve must move the duals");
        let cold_packed = t.solve_fast_rows(&packed, &y, None, &unlimited).unwrap();
        assert_eq!(solve_bits(&cold), solve_bits(&cold_packed), "cold");
        assert_eq!((cold.epochs, cold.visits), (cold_packed.epochs, cold_packed.visits));

        // Warm start from scaled cold duals, some pushed outside the box so
        // the clamp runs too.
        let warm: Vec<f64> = cold
            .beta
            .iter()
            .enumerate()
            .map(|(i, &b)| if i % 5 == 0 { 3.0 } else { 0.5 * b })
            .collect();
        let hot = t.solve_fast_rows(view, &y, Some(&warm), &unlimited).unwrap();
        let hot_packed = t.solve_fast_rows(&packed, &y, Some(&warm), &unlimited).unwrap();
        assert_eq!(solve_bits(&hot), solve_bits(&hot_packed), "warm");
        assert_eq!((hot.epochs, hot.visits), (hot_packed.epochs, hot_packed.visits));
    }
}
