//! Regression tests for the two performance layers:
//!
//! * The shared encoded-feature pool must be a pure performance change: NS
//!   scores from the pooled fit/score paths are bit-identical
//!   (`f64::to_bits`) to the legacy owned-matrix paths, on both paper model
//!   families, at any thread count. These tests pin
//!   [`SolverMode::Strict`], whose exact sequential kernels make pooled
//!   segment iteration reproduce the owned fold bit for bit; the fast
//!   solver's blocked kernels group FP sums differently per segment, so it
//!   is gated by tolerance instead (below).
//! * The fast solver path (shrinking + warm starts + blocked kernels) must
//!   agree with the strict reference to solver tolerance: NS scores within
//!   a small relative tolerance and **identical anomaly rankings**, on both
//!   surrogates, at 1 and 4 threads.
//! * The compiled scoring plan must reproduce the reference scoring path
//!   (`contributions_unpooled`: one owned encode per predictor, each
//!   model's own `predict`) to the NS bit, for every predictor kind and
//!   plan shape, on dirty test rows, for single records and batches on
//!   both sides of the fan-out threshold, at 1 and 4 threads, and for a
//!   single record that fans out, at 1, 2 and 4 threads.
//! * Tree split search from per-code count tables (pool views) must grow
//!   the trees the gather scan grows over owned matrices
//!   (`fit_unpooled`): identical saved models and NS bits on a mixed
//!   schema, for both tree kinds, full and Diverse plans, 1 and 4 threads.

use frac_core::scoring::PARALLEL_WORK_THRESHOLD;
use frac_core::{
    CatModel, FaultPlan, FracConfig, FracModel, RealModel, SolverMode, SolverStrategy,
    TrainingPlan,
};
use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::{Column, Dataset};
use frac_learn::tree::TreeConfig;
use frac_learn::{SvcConfig, SvrConfig};
use frac_synth::snp::{CohortGroup, SnpConfig, SnpGenerator, SubpopulationMix};
use frac_synth::{ExpressionConfig, ExpressionGenerator};

fn expression_surrogate() -> (Dataset, Dataset) {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features: 24,
        n_modules: 4,
        relevant_fraction: 0.9,
        anomaly_modules: 2,
        anomaly_shift: 3.0,
        noise_sd: 0.5,
        structure_seed: 77,
        ..ExpressionConfig::default()
    })
    .generate(36, 6, 7);
    let train = data.select_rows(&(0..30).collect::<Vec<_>>());
    let test = data.select_rows(&(30..42).collect::<Vec<_>>());
    (train, test)
}

fn snp_surrogate() -> (Dataset, Dataset) {
    let gen = SnpGenerator::new(SnpConfig {
        n_snps: 30,
        ld_block_size: 4,
        ld_rho: 0.6,
        n_subpops: 2,
        fst: 0.1,
        n_disease_loci: 4,
        disease_effect: 0.2,
        structure_seed: 11,
        ..SnpConfig::default()
    });
    let groups = [
        CohortGroup { n: 36, mix: SubpopulationMix::uniform(2), is_case: false },
        CohortGroup { n: 6, mix: SubpopulationMix::uniform(2), is_case: true },
    ];
    let (data, _) = gen.generate(&groups, 13);
    let train = data.select_rows(&(0..30).collect::<Vec<_>>());
    let test = data.select_rows(&(30..42).collect::<Vec<_>>());
    (train, test)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: row {r} differs ({x:?} vs {y:?})"
        );
    }
}

/// Fit + score through the pooled paths and the legacy owned paths; every
/// combination must agree bitwise.
fn check_pooled_matches_unpooled(train: &Dataset, test: &Dataset, config: &FracConfig, what: &str) {
    let plan = TrainingPlan::full(train.n_features());
    let (pooled, pooled_report) = FracModel::fit(train, &plan, config);
    let (unpooled, unpooled_report) = FracModel::fit_unpooled(train, &plan, config);

    let ns_pooled = pooled.score(test);
    let ns_cross = pooled.contributions_unpooled(test).ns_scores();
    let ns_unpooled = unpooled.contributions_unpooled(test).ns_scores();
    assert_bits_eq(&ns_pooled, &ns_cross, &format!("{what}: pooled fit, scoring paths"));
    assert_bits_eq(&ns_pooled, &ns_unpooled, &format!("{what}: pooled vs legacy end-to-end"));

    // The pool is charged once; the legacy path charges matrices per target.
    assert!(pooled_report.pool_bytes > 0, "{what}: pooled run must report a pool");
    assert_eq!(unpooled_report.pool_bytes, 0, "{what}: legacy run has no pool");
    assert!(
        pooled_report.transient_bytes <= unpooled_report.transient_bytes,
        "{what}: pooled transients must not exceed legacy ({} vs {})",
        pooled_report.transient_bytes,
        unpooled_report.transient_bytes
    );
}

#[test]
fn expression_ns_scores_bit_identical() {
    let (train, test) = expression_surrogate();
    let config = FracConfig::expression().with_solver_mode(SolverMode::Strict);
    check_pooled_matches_unpooled(&train, &test, &config, "expression");
}

#[test]
fn snp_ns_scores_bit_identical() {
    let (train, test) = snp_surrogate();
    let config = FracConfig::snp().with_solver_mode(SolverMode::Strict);
    check_pooled_matches_unpooled(&train, &test, &config, "snp");
}

#[test]
fn pooled_scores_identical_across_thread_counts() {
    let (train, test) = expression_surrogate();
    let plan = TrainingPlan::full(train.n_features());
    let config = FracConfig::expression();

    let run = |threads: usize| -> Vec<f64> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let (model, _) = FracModel::fit(&train, &plan, &config);
                model.score(&test)
            })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_bits_eq(&serial, &parallel, "thread counts 1 vs 4");
}

/// Tight-tolerance SVR config: both solver paths essentially reach the dual
/// optimum, so their models (and NS scores) agree to small tolerance even
/// though iteration order and FP grouping differ.
fn expression_svm_config() -> FracConfig {
    FracConfig {
        real_model: RealModel::Svr(SvrConfig {
            tolerance: 1e-6,
            max_epochs: 4000,
            ..SvrConfig::default()
        }),
        ..FracConfig::default()
    }
}

/// Tight-tolerance SVC config for the categorical SNP surrogate.
fn snp_svm_config() -> FracConfig {
    FracConfig {
        cat_model: CatModel::Svc(SvcConfig {
            tolerance: 1e-6,
            max_epochs: 4000,
            ..SvcConfig::default()
        }),
        ..FracConfig::snp()
    }
}

/// Rank of each row by descending NS score (the anomaly ordering consumers
/// like AUC computations see).
fn ranking(ns: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ns.len()).collect();
    order.sort_by(|&a, &b| ns[b].partial_cmp(&ns[a]).unwrap());
    order
}

/// The fast solver must match the strict reference to tolerance and produce
/// the identical anomaly ranking, at the given thread count.
fn check_fast_matches_strict(
    train: &Dataset,
    test: &Dataset,
    base: &FracConfig,
    what: &str,
    threads: usize,
) {
    let plan = TrainingPlan::full(train.n_features());
    let run = |config: FracConfig| -> Vec<f64> {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                let (model, _) = FracModel::fit(train, &plan, &config);
                model.score(test)
            })
    };
    let strict = run(base.with_solver_mode(SolverMode::Strict));
    let fast = run(base.with_solver_mode(SolverMode::Fast));

    assert_eq!(strict.len(), fast.len(), "{what}: length mismatch");
    // Both solvers stop at projected-gradient tolerance 1e-6, but the NS
    // pipeline amplifies tiny prediction differences through the fitted
    // error models (surprisal is sensitive to σ), so the score gate is a
    // modest relative tolerance; the ranking gate below is exact.
    for (r, (s, f)) in strict.iter().zip(&fast).enumerate() {
        assert!(
            (s - f).abs() <= 1e-2 * (1.0 + s.abs()),
            "{what} ({threads} threads): row {r} NS diverged ({s} strict vs {f} fast)"
        );
    }
    assert_eq!(
        ranking(&strict),
        ranking(&fast),
        "{what} ({threads} threads): anomaly ranking changed"
    );
}

#[test]
fn fast_solver_matches_strict_expression() {
    let (train, test) = expression_surrogate();
    let config = expression_svm_config();
    check_fast_matches_strict(&train, &test, &config, "expression svr", 1);
    check_fast_matches_strict(&train, &test, &config, "expression svr", 4);
}

#[test]
fn fast_solver_matches_strict_snp() {
    let (train, test) = snp_surrogate();
    let config = snp_svm_config();
    check_fast_matches_strict(&train, &test, &config, "snp svc", 1);
    check_fast_matches_strict(&train, &test, &config, "snp svc", 4);
}

// The Gram-matrix dual strategy (DESIGN.md §13) rides the fast path, so it
// owes the same end-to-end contract as the primal fast loop: NS scores
// within tolerance of the strict reference and the identical anomaly
// ranking, at 1 and 4 threads. The strategy pin only affects the fast side
// of the A/B — strict never consults it.

#[test]
fn gram_strategy_matches_strict_expression() {
    let (train, test) = expression_surrogate();
    let config = expression_svm_config().with_solver_strategy(SolverStrategy::Gram);
    check_fast_matches_strict(&train, &test, &config, "expression svr gram", 1);
    check_fast_matches_strict(&train, &test, &config, "expression svr gram", 4);
}

#[test]
fn gram_strategy_matches_strict_snp() {
    let (train, test) = snp_surrogate();
    let config = snp_svm_config().with_solver_strategy(SolverStrategy::Gram);
    check_fast_matches_strict(&train, &test, &config, "snp svc gram", 1);
    check_fast_matches_strict(&train, &test, &config, "snp svc gram", 4);
}

// ---------------------------------------------------------------------------
// Compiled scoring plan vs the reference scoring path.

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap()
}

/// `n` rows of `test`, cycling through it.
fn cycle_rows(test: &Dataset, n: usize) -> Dataset {
    test.select_rows(&(0..n).map(|i| i % test.n_rows()).collect::<Vec<_>>())
}

/// Test rows with missing cells, ±Inf reals and missing genotypes.
fn dirty(test: &Dataset) -> Dataset {
    FaultPlan::seeded(5).with_poison(0.15).poison(test)
}

/// Score `test` through the plan and through the reference path, bit for
/// bit: every contribution, the renormalization, and the NS scores. Batch
/// sizes cover one to three records (inline; SVRs fold in lanes), one row
/// block plus a leftover row, 64 records, and the smallest batch the plan
/// fans out over worker threads.
fn check_plan_matches_oracle(model: &FracModel, test: &Dataset, what: &str) {
    let work = model.scoring_plan().unwrap().work_per_row();
    assert!(work > 0 && work < PARALLEL_WORK_THRESHOLD, "{what}: one record scores inline");
    let fan_out = (PARALLEL_WORK_THRESHOLD / work + 1) as usize;
    for threads in [1, 4] {
        pool(threads).install(|| {
            for n in [1, 2, 3, 5, 64, fan_out] {
                let batch = cycle_rows(test, n);
                let at = format!("{what}: {n} rows, {threads} threads");
                let plan = model.contributions(&batch);
                let oracle = model.contributions_unpooled(&batch);
                assert_eq!(plan.feature_ids, oracle.feature_ids, "{at}");
                assert_eq!(plan.n_rows, n, "{at}");
                assert_eq!(plan.renorm.to_bits(), oracle.renorm.to_bits(), "{at}");
                for (c, (a, b)) in plan.values.iter().zip(&oracle.values).enumerate() {
                    assert_bits_eq(a, b, &format!("{at}, feature column {c}"));
                }
                assert_bits_eq(&model.score(&batch), &oracle.ns_scores(), &format!("{at}, NS"));
            }
        });
    }
}

fn fit_full(train: &Dataset, config: &FracConfig) -> FracModel {
    FracModel::fit(train, &TrainingPlan::full(train.n_features()), config).0
}

#[test]
fn plan_matches_oracle_for_every_real_predictor_kind() {
    let (train, test) = expression_surrogate();
    let test = dirty(&test);
    let tree = RealModel::Tree(TreeConfig::default());
    for (what, real_model) in [
        ("svr", RealModel::Svr(SvrConfig::default())),
        ("regression tree", tree),
        ("constant", RealModel::Constant),
    ] {
        let model = fit_full(&train, &FracConfig { real_model, ..FracConfig::expression() });
        check_plan_matches_oracle(&model, &test, what);
    }
}

#[test]
fn plan_matches_oracle_for_every_categorical_predictor_kind() {
    let (train, test) = snp_surrogate();
    let test = dirty(&test);
    for (what, cat_model) in [
        ("classification tree", CatModel::Tree(TreeConfig::default())),
        ("svc", CatModel::Svc(SvcConfig::default())),
        ("majority", CatModel::Majority),
    ] {
        let model = fit_full(&train, &FracConfig { cat_model, ..FracConfig::snp() });
        check_plan_matches_oracle(&model, &test, what);
    }
}

#[test]
fn plan_matches_oracle_on_diverse_and_filtered_plans() {
    // Diverse FRaC: several predictors per feature over random,
    // non-contiguous input subsets.
    let (train, test) = expression_surrogate();
    let n = train.n_features();
    let plan = TrainingPlan::diverse(n, 0.4, 3, 17);
    let (model, _) = FracModel::fit(&train, &plan, &FracConfig::expression());
    check_plan_matches_oracle(&model, &dirty(&test), "diverse");

    // Partial filtering: fewer targets than features, every predictor
    // reading all other features.
    let (train, test) = snp_surrogate();
    let n = train.n_features();
    let plan = TrainingPlan::partial_filtered(&[1, 4, 9, 16, 25], n);
    let (model, _) = FracModel::fit(&train, &plan, &FracConfig::snp());
    assert_eq!(model.n_targets(), 5);
    check_plan_matches_oracle(&model, &dirty(&test), "partial filter");
}

#[test]
fn plan_matches_oracle_with_a_dropped_target() {
    // An all-missing training column is dropped, so NS is renormalized.
    let (train, test) = expression_surrogate();
    let mut cols: Vec<Column> = (0..train.n_features()).map(|j| train.column(j).clone()).collect();
    cols[3] = Column::Real(vec![f64::NAN; train.n_rows()].into());
    let train = Dataset::new(train.schema().clone(), cols);
    let model = fit_full(&train, &FracConfig::expression());
    assert_eq!(model.n_targets(), train.n_features() - 1);
    assert_ne!(model.ns_renorm_factor(), 1.0);
    check_plan_matches_oracle(&model, &dirty(&test), "dropped target");
}

#[test]
fn a_fanned_out_single_record_matches_the_oracle_and_one_thread() {
    // 330 SVRs over 329 inputs each: one record alone is past the fan-out
    // threshold, so at 2 and 4 threads its feature groups are claimed by
    // the pool's workers and its SVRs still fold in lanes within a group.
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features: 330,
        n_modules: 8,
        relevant_fraction: 0.8,
        noise_sd: 0.6,
        structure_seed: 91,
        ..ExpressionConfig::default()
    })
    .generate(20, 2, 5);
    let train = data.select_rows(&(0..16).collect::<Vec<_>>());
    let test = dirty(&data.select_rows(&(16..22).collect::<Vec<_>>()));
    let model = fit_full(&train, &FracConfig::expression());
    let work = model.scoring_plan().unwrap().work_per_row();
    assert!(work >= PARALLEL_WORK_THRESHOLD, "one record fans out ({work} units)");
    let records: Vec<Dataset> = (0..test.n_rows()).map(|r| test.select_rows(&[r])).collect();
    let one_thread: Vec<Vec<f64>> = pool(1).install(|| records.iter().map(|d| model.score(d)).collect());
    for threads in [1, 2, 4] {
        pool(threads).install(|| {
            for (r, (record, want)) in records.iter().zip(&one_thread).enumerate() {
                let at = format!("record {r}, {threads} threads");
                let plan = model.contributions(record);
                let oracle = model.contributions_unpooled(record);
                assert_eq!(plan.feature_ids, oracle.feature_ids, "{at}");
                for (c, (a, b)) in plan.values.iter().zip(&oracle.values).enumerate() {
                    assert_bits_eq(a, b, &format!("{at}, feature column {c}"));
                }
                let ns = model.score(record);
                assert_bits_eq(&ns, &oracle.ns_scores(), &format!("{at}, NS vs oracle"));
                assert_bits_eq(&ns, want, &format!("{at}, NS vs 1 thread"));
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Count-table split search vs the gather scan.

/// The SNP surrogate with about 10% of genotypes missing, and after every
/// fifth SNP a real feature derived from genotype sums with some NaN
/// cells. Under `FracConfig::snp()` its real targets grow regression trees
/// and its SNPs classification trees, both over one-hot blocks with
/// missing codes and real columns between them.
fn mixed_surrogate() -> (Dataset, Dataset) {
    let (train, test) = snp_surrogate();
    let mix = |data: &Dataset, row0: usize| -> Dataset {
        let code = |j: usize, r: usize| match data.column(j) {
            Column::Categorical { codes, .. } => codes[r],
            Column::Real(_) => unreachable!("the SNP surrogate is all categorical"),
        };
        let n_snps = data.n_features();
        let mut b = DatasetBuilder::new();
        for j in 0..n_snps {
            let codes = (0..data.n_rows())
                .map(|r| {
                    if ((r + row0) * 7 + j * 3).is_multiple_of(10) { MISSING_CODE } else { code(j, r) }
                })
                .collect();
            let arity = data.schema().kind(j).one_hot_width() as u32;
            b = b.categorical(format!("snp{j}"), arity, codes);
            if j % 5 == 4 {
                let values = (0..data.n_rows())
                    .map(|r| {
                        if (r + row0 + j).is_multiple_of(9) {
                            return f64::NAN;
                        }
                        let noise = ((r + row0) * 31 + j * 17) % 13;
                        code(j, r) as f64 + 0.5 * code((j + 7) % n_snps, r) as f64
                            + noise as f64 * 0.1
                    })
                    .collect();
                b = b.real(format!("expr{j}"), values);
            }
        }
        b.build()
    };
    (mix(&train, 0), mix(&test, train.n_rows()))
}

#[test]
fn plan_matches_oracle_on_a_mixed_schema_of_linear_predictors() {
    // SVRs on the real features, SVCs on the SNPs: in plan order, runs of
    // SVR lanes alternate with SVC predictors, and the Diverse model's
    // SVRs read input subsets of unequal width.
    let (train, test) = mixed_surrogate();
    let config = FracConfig {
        real_model: RealModel::Svr(SvrConfig::default()),
        cat_model: CatModel::Svc(SvcConfig::default()),
        ..FracConfig::snp()
    };
    let n = train.n_features();
    let model = fit_full(&train, &config);
    check_plan_matches_oracle(&model, &dirty(&test), "mixed svr/svc");
    let (model, _) = FracModel::fit(&train, &TrainingPlan::diverse(n, 0.5, 2, 23), &config);
    check_plan_matches_oracle(&model, &dirty(&test), "mixed svr/svc, diverse");
}

#[test]
fn count_table_trees_match_the_gather_oracle_on_a_mixed_schema() {
    let (train, test) = mixed_surrogate();
    let config = FracConfig::snp();
    let n = train.n_features();
    for (what, plan) in
        [("full", TrainingPlan::full(n)), ("diverse", TrainingPlan::diverse(n, 0.5, 2, 23))]
    {
        for threads in [1, 4] {
            pool(threads).install(|| {
                let at = format!("{what}, {threads} threads");
                let (pooled, _) = FracModel::fit(&train, &plan, &config);
                let (oracle, _) = FracModel::fit_unpooled(&train, &plan, &config);
                assert_eq!(pooled.to_bytes(), oracle.to_bytes(), "{at}: saved models differ");
                assert_bits_eq(&pooled.score(&test), &oracle.score(&test), &format!("{at}: NS"));
            });
        }
    }
}
