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
//! and warm-started duals through [`RegressorTrainer::fit`] — on top of the
//! blocked view kernels. Either way one call is one solve: the budget is
//! polled once per epoch, and a diverged solve is rejected as
//! [`TrainError::NonConvergence`].

use crate::budget::TargetBudget;
use crate::fault::{self, TrainError};
use crate::solver::{CoordRule, DualConfig, Margins, SolvePlan, SolverMode, SolverStrategy};
use crate::telemetry;
use crate::traits::{Regressor, RegressorTrainer, Trained, TrainingCost};
use frac_dataset::DesignView;

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

/// ε-SVR's coordinate rule: the Newton step on the piecewise-quadratic
/// dual coordinate βᵢ ∈ [−C, C], gradient `wᵀxᵢ − yᵢ`.
struct SvrRule<'a> {
    y: &'a [f64],
    c: f64,
    epsilon: f64,
}

impl CoordRule for SvrRule<'_> {
    fn bounds(&self) -> (f64, f64) {
        (-self.c, self.c)
    }

    #[inline]
    fn coef(&self, _: usize, dual: f64) -> f64 {
        dual
    }

    #[inline]
    fn grad<M: Margins>(&self, i: usize, m: &M) -> f64 {
        m.margin(i, -self.y[i])
    }

    #[inline]
    fn violation(&self, b: f64, g: f64, shrink: f64) -> Option<f64> {
        let (gp, gn) = (g + self.epsilon, g - self.epsilon);
        // Shrink: pinned at a bound with the blocked direction's gradient
        // beyond the threshold — KKT-optimal with margin.
        let shrinks = if b == 0.0 {
            gp > shrink && gn < -shrink
        } else if b >= self.c {
            gp < -shrink
        } else if b <= -self.c {
            gn > shrink
        } else {
            false
        };
        (!shrinks).then(|| svr_violation(b, gp, gn, self.c))
    }

    #[inline]
    fn step(&self, _: usize, b: f64, g: f64, h: f64) -> Option<(f64, f64)> {
        if h <= 0.0 {
            // Zero row: the objective is linear in βᵢ, so any movement is
            // unbounded or useless. Reset to 0; the row moves no margin.
            return Some((0.0, 0.0));
        }
        let (gp, gn) = (g + self.epsilon, g - self.epsilon);
        let dstep = if gp < h * b {
            -gp / h
        } else if gn > h * b {
            -gn / h
        } else {
            -b
        };
        // A NaN step fails this test too, so it never moves a dual.
        if dstep.abs() >= 1e-14 {
            let beta = (b + dstep).clamp(-self.c, self.c);
            let delta = beta - b;
            if delta != 0.0 {
                return Some((beta, delta));
            }
        }
        None
    }
}

impl SvrTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: SvrConfig) -> Self {
        SvrTrainer { config }
    }
}

/// Projected-gradient violation of one dual coordinate (liblinear's
/// stopping criterion): at a bound, only a gradient pointing back *into*
/// the feasible interval counts — a blocked direction is KKT-optimal.
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

    /// One dual solve on the configured path, with its cost priced from
    /// the work actually done. Returns the final duals, one per row.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[f64],
        warm: Option<&[f64]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvr>, Option<Vec<f64>>), TrainError> {
        fault::check_regression_problem(x, y)?;
        let cfg = &self.config;
        if x.n_rows() == 0 {
            let model = LinearSvr { weights: vec![0.0; x.n_cols()], bias: 0.0 };
            return Ok((Trained { model, cost: TrainingCost::default() }, Some(Vec::new())));
        }

        // One solve per call, so its span also covers the gather and Q.
        let span = telemetry::span(telemetry::Stage::Solve);
        let dual_cfg = DualConfig {
            mode: cfg.mode,
            strategy: cfg.strategy,
            bias: cfg.bias,
            max_epochs: cfg.max_epochs,
            tolerance: cfg.tolerance,
        };
        let plan = SolvePlan::new(x, dual_cfg, budget)?;
        let rule = SvrRule { y, c: cfg.c, epsilon: cfg.epsilon };
        let out = plan.solve(&rule, cfg.seed, warm, budget)?;
        drop(span);
        let model = LinearSvr { weights: out.w, bias: if cfg.bias { out.w_bias } else { 0.0 } };
        fault::check_converged(cfg.max_epochs, [(model.weights(), model.bias())])?;
        Ok((Trained { model, cost: plan.cost(out.flops, out.path_bits) }, Some(out.dual)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{sweep, Primal, Schedule, Solved};
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
    fn live_budget_matches_train_and_expired_budget_trips() {
        use crate::budget::RunBudget;
        let x = matrix(&[&[0.1, 0.2], &[0.5, -0.3], &[-0.7, 0.9], &[0.2, 0.2]]);
        let y = vec![1.0, -0.5, 0.3, 0.9];
        let t = SvrTrainer::default();
        let hour = RunBudget::with_deadline(std::time::Duration::from_secs(3600)).start_target();
        let (a, da) = t.fit(&x, &y, None, &hour).unwrap();
        let (b, db) = t.fit(&x, &y, None, &TargetBudget::unlimited()).unwrap();
        assert_eq!(a.model.weights(), b.model.weights());
        assert_eq!(a.model.bias(), b.model.bias());
        assert_eq!(da, db);
        assert_eq!(t.train(&x, &y).model.weights(), b.model.weights());

        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert_eq!(t.fit(&x, &y, None, &expired).unwrap_err(), TrainError::DeadlineExceeded);
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
    fn solve_bits(s: &Solved) -> (Vec<u64>, u64, Vec<u64>) {
        (
            s.w.iter().map(|v| v.to_bits()).collect(),
            s.w_bias.to_bits(),
            s.dual.iter().map(|v| v.to_bits()).collect(),
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
        let cfg = SvrConfig::default();
        let rule = SvrRule { y: &y, c: cfg.c, epsilon: cfg.epsilon };
        let schedule = Schedule {
            seed: cfg.seed,
            max_epochs: cfg.max_epochs,
            tolerance: cfg.tolerance,
            strict: false,
        };
        let unlimited = TargetBudget::unlimited();
        let solve = |rows_are_packed: bool, warm: Option<&[f64]>| {
            if rows_are_packed {
                sweep(&rule, Primal::new(&packed, 1.0), &schedule, warm, &unlimited).unwrap()
            } else {
                sweep(&rule, Primal::new(view, 1.0), &schedule, warm, &unlimited).unwrap()
            }
        };

        let cold = solve(false, None);
        assert!(cold.dual.iter().any(|&b| b != 0.0), "solve must move the duals");
        let cold_packed = solve(true, None);
        assert_eq!(solve_bits(&cold), solve_bits(&cold_packed), "cold");
        assert_eq!((cold.epochs, cold.visits), (cold_packed.epochs, cold_packed.visits));

        // Warm start from scaled cold duals, some pushed outside the box so
        // the clamp runs too.
        let warm: Vec<f64> = cold
            .dual
            .iter()
            .enumerate()
            .map(|(i, &b)| if i % 5 == 0 { 3.0 } else { 0.5 * b })
            .collect();
        let hot = solve(false, Some(&warm));
        let hot_packed = solve(true, Some(&warm));
        assert_eq!(solve_bits(&hot), solve_bits(&hot_packed), "warm");
        assert_eq!((hot.epochs, hot.visits), (hot_packed.epochs, hot_packed.visits));
    }
}
