//! Property-based equivalence of the Gram-matrix and primal fast paths.
//!
//! The Gram strategy sweeps coordinates in exactly the same order as the
//! primal fast loop (same derived RNG, same shuffle, same shrink/unshrink
//! thresholds) but reads gradients from the maintained dual image
//! `qb[i] = Σ_j Q_ij β_j` instead of a primal `w·xᵢ` dot. Floating-point
//! association differs, so iterates are not bitwise-equal, but both paths
//! minimize the same dual objective: with a tight stopping tolerance the
//! **objective values** must agree to ~1e-8 on random small problems — for
//! SVR and SVC, with and without warm starts, and both with shrinking
//! engaged (tight tolerance, many epochs) and effectively disabled (loose
//! tolerance, convergence before the shrink threshold tightens).

use frac_dataset::DesignMatrix;
use frac_learn::svc::{SvcConfig, SvcTrainer};
use frac_learn::svr::{SvrConfig, SvrTrainer};
use frac_learn::traits::{ClassifierTrainer, RegressorTrainer};
use frac_learn::{SolverMode, SolverStrategy, TargetBudget};
use proptest::prelude::*;

const MAX_N: usize = 12;
const MAX_D: usize = 5;

/// Tight tolerance: the solver runs long enough for active-set shrinking
/// to engage and (on some draws) trigger unshrink-and-recheck passes.
const TIGHT: f64 = 1e-10;
/// Loose tolerance: convergence typically lands within the first epochs,
/// before shrinking removes any coordinate — the "shrinking off" regime.
const LOOSE: f64 = 1e-3;

fn svr_cfg(strategy: SolverStrategy, tolerance: f64) -> SvrConfig {
    SvrConfig {
        tolerance,
        max_epochs: 50_000,
        mode: SolverMode::Fast,
        strategy,
        ..SvrConfig::default()
    }
}

fn svc_cfg(strategy: SolverStrategy, tolerance: f64) -> SvcConfig {
    SvcConfig {
        tolerance,
        max_epochs: 50_000,
        mode: SolverMode::Fast,
        strategy,
        ..SvcConfig::default()
    }
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
    strategy: SolverStrategy,
    tolerance: f64,
    warm: Option<&[f64]>,
) -> f64 {
    let cfg = svr_cfg(strategy, tolerance);
    let (_, duals) =
        SvrTrainer::new(cfg).fit(x, y, warm, &TargetBudget::unlimited()).expect("SVR fits");
    svr_objective(x, y, &duals.expect("SVR always returns duals"), cfg.epsilon)
}

fn svc_objectives_for(
    x: &DesignMatrix,
    y: &[u32],
    arity: u32,
    strategy: SolverStrategy,
    tolerance: f64,
    warm: Option<&[Vec<f64>]>,
) -> Vec<f64> {
    let (_, duals) = SvcTrainer::new(svc_cfg(strategy, tolerance))
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

/// The equivalence gate: 1e-8 relative agreement between the two
/// strategies' objectives, per the solver's documented contract.
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
    fn svr_gram_matches_primal_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(-2.0f64..2.0, MAX_N),
    ) {
        let x = matrix(n, d, &values);
        for tol in [TIGHT, LOOSE] {
            let primal = svr_objective_for(&x, &y[..n], SolverStrategy::Primal, tol, None);
            let gram = svr_objective_for(&x, &y[..n], SolverStrategy::Gram, tol, None);
            assert_close(primal, gram, &format!("svr cold tol={tol:e}"))?;
        }
    }

    #[test]
    fn svr_gram_matches_primal_with_warm_start(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(-2.0f64..2.0, MAX_N),
        warm in prop::collection::vec(-3.0f64..3.0, MAX_N),
    ) {
        let x = matrix(n, d, &values);
        for tol in [TIGHT, LOOSE] {
            let primal =
                svr_objective_for(&x, &y[..n], SolverStrategy::Primal, tol, Some(&warm[..n]));
            let gram =
                svr_objective_for(&x, &y[..n], SolverStrategy::Gram, tol, Some(&warm[..n]));
            assert_close(primal, gram, &format!("svr warm tol={tol:e}"))?;
        }
    }

    #[test]
    fn svc_gram_matches_primal_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(0u32..3, MAX_N),
    ) {
        let x = matrix(n, d, &values);
        for tol in [TIGHT, LOOSE] {
            let primal = svc_objectives_for(&x, &y[..n], 3, SolverStrategy::Primal, tol, None);
            let gram = svc_objectives_for(&x, &y[..n], 3, SolverStrategy::Gram, tol, None);
            for (class, (p, g)) in primal.iter().zip(&gram).enumerate() {
                assert_close(*p, *g, &format!("svc cold class {class} tol={tol:e}"))?;
            }
        }
    }

    #[test]
    fn svc_gram_matches_primal_with_warm_start(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(0u32..3, MAX_N),
        warm_flat in prop::collection::vec(-2.0f64..2.0, 3 * MAX_N),
    ) {
        let x = matrix(n, d, &values);
        let warm: Vec<Vec<f64>> =
            warm_flat.chunks(MAX_N).map(|c| c[..n].to_vec()).collect();
        for tol in [TIGHT, LOOSE] {
            let primal =
                svc_objectives_for(&x, &y[..n], 3, SolverStrategy::Primal, tol, Some(&warm));
            let gram =
                svc_objectives_for(&x, &y[..n], 3, SolverStrategy::Gram, tol, Some(&warm));
            for (class, (p, g)) in primal.iter().zip(&gram).enumerate() {
                assert_close(*p, *g, &format!("svc warm class {class} tol={tol:e}"))?;
            }
        }
    }

    #[test]
    fn gram_also_matches_strict_objective(
        n in 2usize..MAX_N,
        d in 1usize..MAX_D,
        values in prop::collection::vec(-2.0f64..2.0, MAX_N * MAX_D),
        y in prop::collection::vec(-2.0f64..2.0, MAX_N),
    ) {
        // Anchor the Gram path to the bitwise-reference strict solver too,
        // so a shared bug in both fast paths cannot hide.
        let x = matrix(n, d, &values);
        let strict_cfg = SvrConfig {
            tolerance: TIGHT,
            max_epochs: 50_000,
            mode: SolverMode::Strict,
            ..SvrConfig::default()
        };
        let (_, duals) = SvrTrainer::new(strict_cfg)
            .fit(&x, &y[..n], None, &TargetBudget::unlimited())
            .expect("SVR fits");
        let strict =
            svr_objective(&x, &y[..n], &duals.expect("duals"), strict_cfg.epsilon);
        let gram = svr_objective_for(&x, &y[..n], SolverStrategy::Gram, TIGHT, None);
        assert_close(strict, gram, "svr gram vs strict")?;
    }
}

/// The auto policy must be deterministic per shape: on a tiny problem the
/// cost model picks some strategy, and two identical solves agree exactly
/// on the objective (same path, same arithmetic).
#[test]
fn auto_strategy_is_deterministic() {
    let values: Vec<f64> = (0..8 * 4).map(|i| ((i * 37 % 17) as f64 - 8.0) / 4.0).collect();
    let x = matrix(8, 4, &values);
    let y: Vec<f64> = (0..8).map(|i| ((i * 53 % 11) as f64 - 5.0) / 3.0).collect();
    let a = svr_objective_for(&x, &y, SolverStrategy::Auto, TIGHT, None);
    let b = svr_objective_for(&x, &y, SolverStrategy::Auto, TIGHT, None);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// A random pool of `n_real` standardized real features and `n_cat`
/// ternary ones, `n` rows, and its encoder table.
fn random_pool(
    n: usize,
    n_real: usize,
    n_cat: usize,
    seed: u64,
    standardize: bool,
) -> (frac_dataset::EncodedPool, frac_dataset::design::PoolSpec) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut b = frac_dataset::dataset::DatasetBuilder::new();
    for j in 0..n_real {
        b = b.real(format!("r{j}"), (0..n).map(|_| next() * 4.0 - 2.0).collect());
    }
    for j in 0..n_cat {
        b = b.categorical(format!("c{j}"), 3, (0..n).map(|_| (next() * 3.0) as u32).collect());
    }
    let data = b.build();
    let all: Vec<usize> = (0..data.n_features()).collect();
    let spec = frac_dataset::design::PoolSpec::fit(&data, &all, standardize);
    (spec.encode(&data), spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A target's Q downdated from the shared G matches a direct build over
    /// its all-but-target design and the same rows to within
    /// 4·d·ε·√(Q_aa·Q_bb) per entry, for real and one-hot targets, both
    /// bias values and random row subsets, whenever the guard admits it.
    #[test]
    fn downdated_q_matches_a_direct_build(
        n in 2usize..20,
        n_real in 4usize..9,
        n_cat in 0usize..3,
        target_pick in any::<usize>(),
        keep in prop::collection::vec(any::<bool>(), 20),
        bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use frac_dataset::{DesignView, PackedDesign, RowSubset};
        use frac_learn::solver::{GramMatrix, SharedGram};
        let (pool, spec) = random_pool(n, n_real, n_cat, seed, true);
        let n_features = n_real + n_cat;
        let target = target_pick % n_features;
        let inputs: Vec<usize> = (0..n_features).filter(|&j| j != target).collect();
        let rows: Vec<usize> = (0..n).filter(|&r| keep[r]).collect();
        prop_assume!(!rows.is_empty());
        let bias_sq = if bias { 1.0 } else { 0.0 };
        let unlimited = TargetBudget::unlimited();
        let pool = std::sync::Arc::new(pool);
        let shared = SharedGram::new(pool.clone());
        let g = shared.gram(bias_sq, &unlimited).unwrap().expect("a small G fits the cap");
        let cols = spec.col_range(target);
        prop_assume!(shared.admits(&g, cols.clone(), &rows));
        let down = shared.downdate(&g, cols, &rows, &unlimited).unwrap();
        let view = pool.view(&inputs);
        let packed = PackedDesign::from_view(&RowSubset::new(&view, &rows)).unwrap();
        let direct = GramMatrix::build(&packed, bias_sq, &unlimited).unwrap();
        let d = view.n_cols() as f64;
        for i in 0..rows.len() {
            for j in 0..rows.len() {
                let bound = 4.0 * d * f64::EPSILON * (direct.diag(i) * direct.diag(j)).sqrt();
                let gap = (down.row(i)[j] - direct.row(i)[j]).abs();
                prop_assert!(gap <= bound, "Q[{i},{j}]: {} vs {} (gap {gap:e}, bound {bound:e})",
                    down.row(i)[j], direct.row(i)[j]);
            }
        }
    }
}

/// An unscaled target 1e8 times larger than the rest of its row holds
/// nearly all of the row's squared norm: subtracting it from G would
/// cancel G's bits, so the guard refuses the downdate.
#[test]
fn the_guard_rejects_an_unscaled_dominant_target() {
    use frac_learn::solver::SharedGram;
    let n = 12;
    let mut b = frac_dataset::dataset::DatasetBuilder::new();
    b = b.real("big", (0..n).map(|r| 1e8 * (1.0 + r as f64)).collect());
    for j in 0..5 {
        b = b.real(format!("r{j}"), (0..n).map(|r| ((r * 7 + j * 3) % 5) as f64 - 2.0).collect());
    }
    let data = b.build();
    let all: Vec<usize> = (0..data.n_features()).collect();
    let spec = frac_dataset::design::PoolSpec::fit(&data, &all, false);
    let shared = SharedGram::new(std::sync::Arc::new(spec.encode(&data)));
    let unlimited = TargetBudget::unlimited();
    let g = shared.gram(1.0, &unlimited).unwrap().unwrap();
    let rows: Vec<usize> = (0..n).collect();
    assert!(!shared.admits(&g, spec.col_range(0), &rows));
    // Standardized, the same column holds a sixth of the norm or so.
    let spec = frac_dataset::design::PoolSpec::fit(&data, &all, true);
    let shared = SharedGram::new(std::sync::Arc::new(spec.encode(&data)));
    let g = shared.gram(1.0, &unlimited).unwrap().unwrap();
    assert!(shared.admits(&g, spec.col_range(0), &(0..n).filter(|&r| r % 3 == 1).collect::<Vec<_>>()));
}

/// A fit through the downdated Q recovers `w` through the solve's pool
/// view, segment by segment; axpy works element by element, so that `w` is
/// bit for bit the one a packed gather of the same rows recovers.
#[test]
fn w_recovered_through_the_view_equals_the_packed_recovery() {
    use frac_dataset::{DesignView, PackedDesign, RowSubset};
    use frac_learn::solver::{pack_cache, SharedGram};
    let (pool, spec) = random_pool(30, 8, 2, 7, true);
    let target = 3; // an interior column: the view has two segments
    let inputs: Vec<usize> = (0..10).filter(|&j| j != target).collect();
    let present: Vec<usize> = (0..30).filter(|r| r % 4 != 0).collect();
    let pool = std::sync::Arc::new(pool);
    let shared = std::sync::Arc::new(SharedGram::new(pool.clone()));
    let view = pool.view(&inputs);
    let x = RowSubset::new(&view, &present);
    let y: Vec<f64> = present.iter().map(|&r| pool.row(r)[spec.col_range(target).start]).collect();
    let _scope = pack_cache::begin_scope(
        0x5EED,
        Some(pack_cache::Downdate {
            gram: shared.clone(),
            cols: spec.col_range(target),
            present: present.clone(),
        }),
    );
    let all: Vec<usize> = (0..present.len()).collect();
    pack_cache::set_rows(0, &all);
    let cfg = svr_cfg(SolverStrategy::Gram, TIGHT);
    let (trained, duals) = SvrTrainer::new(cfg).fit(&x, &y, None, &TargetBudget::unlimited()).unwrap();
    pack_cache::clear_rows();
    let duals = duals.unwrap();
    let packed = PackedDesign::from_view(&x).unwrap();
    let (mut w_packed, mut w_view) = (vec![0.0; x.n_cols()], vec![0.0; x.n_cols()]);
    for (i, &b) in duals.iter().enumerate() {
        if b != 0.0 {
            packed.axpy_row_blocked(i, b, &mut w_packed);
            x.axpy_row_blocked(i, b, &mut w_view);
        }
    }
    let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(trained.model.weights()), bits(&w_packed));
    assert_eq!(bits(&w_view), bits(&w_packed));
}
