//! Property-based equivalence of the fast and strict solver paths.
//!
//! Both paths minimize the same dual objective; shrinking, warm starts, and
//! blocked kernels may change the iterate sequence but never the fixed
//! point. With a tight stopping tolerance, the **objective values** of the
//! two solutions must therefore agree to ~1e-8 on random small problems —
//! for SVR and SVC, with and without warm starts (including infeasible warm
//! vectors, which the solver clamps into its box).

use frac_dataset::DesignMatrix;
use frac_learn::svc::{SvcConfig, SvcTrainer};
use frac_learn::svr::{SvrConfig, SvrTrainer};
use frac_learn::traits::{ClassifierTrainer, RegressorTrainer};
use frac_learn::{SolverMode, TargetBudget};
use proptest::prelude::*;

const MAX_N: usize = 12;
const MAX_D: usize = 5;

fn svr_cfg(mode: SolverMode) -> SvrConfig {
    SvrConfig { tolerance: 1e-10, max_epochs: 50_000, mode, ..SvrConfig::default() }
}

fn svc_cfg(mode: SolverMode) -> SvcConfig {
    SvcConfig { tolerance: 1e-10, max_epochs: 50_000, mode, ..SvcConfig::default() }
}

fn matrix(n: usize, d: usize, values: &[f64]) -> DesignMatrix {
    DesignMatrix::from_raw(n, d, values[..n * d].to_vec())
}

/// The SVR dual objective at `beta`:
/// `½(‖w‖² + w_bias²) + ε·Σ|βᵢ| − Σ yᵢβᵢ` with `w = Σ βᵢxᵢ`.
fn svr_objective(x: &DesignMatrix, y: &[f64], beta: &[f64], epsilon: f64) -> f64 {
    let mut w = vec![0.0f64; x.n_cols()];
    let mut w_bias = 0.0f64;
    for (i, &b) in beta.iter().enumerate() {
        for (wj, &xj) in w.iter_mut().zip(x.row(i)) {
            *wj += b * xj;
        }
        w_bias += b;
    }
    0.5 * (w.iter().map(|v| v * v).sum::<f64>() + w_bias * w_bias)
        + epsilon * beta.iter().map(|b| b.abs()).sum::<f64>()
        - y.iter().zip(beta).map(|(yi, b)| yi * b).sum::<f64>()
}

/// The binary C-SVC dual objective at `alpha` for ±1 labels:
/// `½(‖w‖² + w_bias²) − Σ αᵢ` with `w = Σ αᵢyᵢxᵢ`.
fn svc_objective(x: &DesignMatrix, labels: &[f64], alpha: &[f64]) -> f64 {
    let mut w = vec![0.0f64; x.n_cols()];
    let mut w_bias = 0.0f64;
    for (i, &a) in alpha.iter().enumerate() {
        let scaled = a * labels[i];
        for (wj, &xj) in w.iter_mut().zip(x.row(i)) {
            *wj += scaled * xj;
        }
        w_bias += scaled;
    }
    0.5 * (w.iter().map(|v| v * v).sum::<f64>() + w_bias * w_bias)
        - alpha.iter().sum::<f64>()
}

fn svr_objective_for(
    x: &DesignMatrix,
    y: &[f64],
    mode: SolverMode,
    warm: Option<&[f64]>,
) -> f64 {
    let cfg = svr_cfg(mode);
    let (_, duals) =
        SvrTrainer::new(cfg).fit(x, y, warm, &TargetBudget::unlimited()).expect("SVR fits");
    svr_objective(x, y, &duals.expect("SVR always returns duals"), cfg.epsilon)
}

fn svc_objectives_for(
    x: &DesignMatrix,
    y: &[u32],
    arity: u32,
    mode: SolverMode,
    warm: Option<&[Vec<f64>]>,
) -> Vec<f64> {
    let (_, duals) = SvcTrainer::new(svc_cfg(mode))
        .fit(x, y, arity, warm, &TargetBudget::unlimited())
        .expect("SVC fits");
    let duals = duals.expect("SVC always returns duals");
    (0..arity as usize)
        .map(|class| {
            let labels: Vec<f64> =
                y.iter().map(|&c| if c as usize == class { 1.0 } else { -1.0 }).collect();
            svc_objective(x, &labels, &duals[class])
        })
        .collect()
}

fn assert_close(a: f64, b: f64, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        (a - b).abs() <= 1e-8 * (1.0 + a.abs()),
        "{what}: objectives diverged ({a} vs {b})"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn svr_fast_matches_strict_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(-2.0f64..2.0, MAX_N),
    ) {
        let x = matrix(n, d, &values);
        let strict = svr_objective_for(&x, &y[..n], SolverMode::Strict, None);
        let fast = svr_objective_for(&x, &y[..n], SolverMode::Fast, None);
        assert_close(strict, fast, "svr cold")?;
    }

    #[test]
    fn svr_warm_start_reaches_strict_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(-2.0f64..2.0, MAX_N),
        warm in prop::collection::vec(-3.0f64..3.0, MAX_N),
    ) {
        let x = matrix(n, d, &values);
        let strict = svr_objective_for(&x, &y[..n], SolverMode::Strict, None);
        let fast_warm = svr_objective_for(&x, &y[..n], SolverMode::Fast, Some(&warm[..n]));
        assert_close(strict, fast_warm, "svr warm")?;
    }

    #[test]
    fn svc_fast_matches_strict_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(0u32..3, MAX_N),
    ) {
        let x = matrix(n, d, &values);
        let strict = svc_objectives_for(&x, &y[..n], 3, SolverMode::Strict, None);
        let fast = svc_objectives_for(&x, &y[..n], 3, SolverMode::Fast, None);
        for (class, (s, f)) in strict.iter().zip(&fast).enumerate() {
            assert_close(*s, *f, &format!("svc cold class {class}"))?;
        }
    }

    #[test]
    fn svc_warm_start_reaches_strict_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(0u32..3, MAX_N),
        warm_flat in prop::collection::vec(-2.0f64..2.0, 3 * MAX_N),
    ) {
        let x = matrix(n, d, &values);
        let warm: Vec<Vec<f64>> =
            warm_flat.chunks(MAX_N).map(|c| c[..n].to_vec()).collect();
        let strict = svc_objectives_for(&x, &y[..n], 3, SolverMode::Strict, None);
        let fast_warm = svc_objectives_for(&x, &y[..n], 3, SolverMode::Fast, Some(&warm));
        for (class, (s, f)) in strict.iter().zip(&fast_warm).enumerate() {
            assert_close(*s, *f, &format!("svc warm class {class}"))?;
        }
    }
}
