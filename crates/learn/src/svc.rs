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
use crate::solver::{CoordRule, DualConfig, Margins, SolvePlan, SolverMode, SolverStrategy};
use crate::telemetry;
use crate::traits::{Classifier, ClassifierTrainer, Trained};
use frac_dataset::split::derive_seed;
use frac_dataset::DesignView;

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

/// Binary hinge-loss SVC's coordinate rule for ±1 labels: the clipped
/// Newton step on αᵢ ∈ [0, C], gradient `yᵢ·wᵀxᵢ − 1`. The box is
/// one-sided at each bound, so are the shrink conditions.
struct SvcRule<'a> {
    labels: &'a [f64],
    c: f64,
}

impl SvcRule<'_> {
    /// The projected gradient: at a bound, only the inward direction.
    #[inline]
    fn projected(&self, a: f64, g: f64) -> f64 {
        if a == 0.0 {
            g.min(0.0)
        } else if a >= self.c {
            g.max(0.0)
        } else {
            g
        }
    }
}

impl CoordRule for SvcRule<'_> {
    fn bounds(&self) -> (f64, f64) {
        (0.0, self.c)
    }

    #[inline]
    fn coef(&self, i: usize, dual: f64) -> f64 {
        dual * self.labels[i]
    }

    #[inline]
    fn grad<M: Margins>(&self, i: usize, m: &M) -> f64 {
        // −0.0 is the exact additive identity: the margin keeps its bits.
        self.labels[i] * m.margin(i, -0.0) - 1.0
    }

    #[inline]
    fn violation(&self, a: f64, g: f64, shrink: f64) -> Option<f64> {
        // Shrink: pinned at a box edge with the gradient pointing firmly
        // out of the feasible interval.
        let shrinks = if a == 0.0 {
            g > shrink
        } else if a >= self.c {
            g < -shrink
        } else {
            false
        };
        (!shrinks).then(|| self.projected(a, g).abs())
    }

    #[inline]
    fn step(&self, i: usize, a: f64, g: f64, h: f64) -> Option<(f64, f64)> {
        if self.projected(a, g).abs() > 1e-14 && h > 0.0 {
            let alpha = (a - g / h).clamp(0.0, self.c);
            let delta = self.coef(i, alpha - a);
            if delta != 0.0 {
                return Some((alpha, delta));
            }
        }
        None
    }
}

impl SvcTrainer {
    /// Trainer with the given configuration.
    pub fn new(config: SvcConfig) -> Self {
        SvcTrainer { config }
    }
}

impl ClassifierTrainer for SvcTrainer {
    type Model = LinearSvc;

    /// One-vs-rest solve over all classes with cooperative budget polling
    /// (once up front, once per epoch of every binary problem, and per Q
    /// row while Q is built). Rejects a diverged binary solve — any
    /// NaN/Inf hyperplane — as [`TrainError::NonConvergence`]. Returns the
    /// final duals, one vector per class.
    fn fit(
        &self,
        x: &dyn DesignView,
        y: &[u32],
        arity: u32,
        warm: Option<&[Vec<f64>]>,
        budget: &TargetBudget,
    ) -> Result<(Trained<LinearSvc>, Option<Vec<Vec<f64>>>), TrainError> {
        fault::check_classification_problem(x, y)?;
        budget.check()?;
        let cfg = &self.config;
        let (n, d, k) = (x.n_rows(), x.n_cols(), arity as usize);
        let dual_cfg = DualConfig {
            mode: cfg.mode,
            strategy: cfg.strategy,
            bias: cfg.bias,
            max_epochs: cfg.max_epochs,
            tolerance: cfg.tolerance,
        };
        let plan = SolvePlan::new(x, dual_cfg, budget)?;

        let mut hyperplanes = Vec::with_capacity(k);
        let mut duals = Vec::with_capacity(k);
        let (mut flops, mut path_bits) = (0u64, 0u64);
        for class in 0..k {
            if n == 0 {
                hyperplanes.push((vec![0.0; d], 0.0));
                duals.push(Vec::new());
                continue;
            }
            let labels: Vec<f64> = y
                .iter()
                .map(|&c| if c as usize == class { 1.0 } else { -1.0 })
                .collect();
            let rule = SvcRule { labels: &labels, c: cfg.c };
            let class_warm = warm.and_then(|w| w.get(class)).map(|v| v.as_slice());
            let span = telemetry::span(telemetry::Stage::Solve);
            let out = plan.solve(&rule, derive_seed(cfg.seed, class as u64), class_warm, budget)?;
            drop(span);
            flops += out.flops;
            path_bits |= out.path_bits;
            hyperplanes.push((out.w, if cfg.bias { out.w_bias } else { 0.0 }));
            duals.push(out.dual);
        }
        let planes = hyperplanes.iter().map(|(w, b)| (w.as_slice(), *b));
        fault::check_converged(cfg.max_epochs, planes)?;
        let model = LinearSvc { hyperplanes };
        Ok((Trained { model, cost: plan.cost(flops, path_bits) }, Some(duals)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{sweep, Primal, Schedule, Solved};
    use frac_dataset::{DesignMatrix, PackedDesign};

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
    fn live_budget_matches_train_and_expired_budget_trips() {
        use crate::budget::RunBudget;
        let x = matrix(&[&[-1.0], &[-0.5], &[0.5], &[1.0]]);
        let y = vec![0, 0, 1, 1];
        let t = SvcTrainer::default();
        let hour = RunBudget::with_deadline(std::time::Duration::from_secs(3600)).start_target();
        let (a, da) = t.fit(&x, &y, 2, None, &hour).unwrap();
        let (b, db) = t.fit(&x, &y, 2, None, &TargetBudget::unlimited()).unwrap();
        let c = t.train(&x, &y, 2);
        for k in 0..2 {
            assert_eq!(a.model.hyperplanes[k], b.model.hyperplanes[k]);
            assert_eq!(c.model.hyperplanes[k], b.model.hyperplanes[k]);
        }
        assert_eq!(da, db);

        let expired = RunBudget::with_deadline(std::time::Duration::from_secs(0)).start_target();
        assert_eq!(
            t.fit(&x, &y, 2, None, &expired).unwrap_err(),
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
    fn solve_bits(s: &Solved) -> (Vec<u64>, u64, Vec<u64>) {
        (
            s.w.iter().map(|v| v.to_bits()).collect(),
            s.w_bias.to_bits(),
            s.dual.iter().map(|v| v.to_bits()).collect(),
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
        let cfg = SvcConfig::default();
        let rule = SvcRule { labels: &labels, c: cfg.c };
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
        assert!(cold.dual.iter().any(|&a| a != 0.0), "solve must move the duals");
        let cold_packed = solve(true, None);
        assert_eq!(solve_bits(&cold), solve_bits(&cold_packed), "cold");
        assert_eq!((cold.epochs, cold.visits), (cold_packed.epochs, cold_packed.visits));

        // Warm start from scaled cold duals, some pushed outside the box so
        // the clamp runs too.
        let warm: Vec<f64> = cold
            .dual
            .iter()
            .enumerate()
            .map(|(i, &a)| if i % 5 == 0 { 3.0 } else { 0.5 * a })
            .collect();
        let hot = solve(false, Some(&warm));
        let hot_packed = solve(true, Some(&warm));
        assert_eq!(solve_bits(&hot), solve_bits(&hot_packed), "warm");
        assert_eq!((hot.epochs, hot.visits), (hot_packed.epochs, hot_packed.visits));
    }
}
