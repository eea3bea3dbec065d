//! RunHealth arithmetic under adversity: every planned target is accounted
//! for (survived or dropped, never lost), and the NS renormalization stays
//! finite even when *everything* drops or the wall-clock budget is already
//! spent before the first solve. And the converse: a budget that never
//! trips changes no bit of a model.

use frac_core::fault::INJECTED_PANIC;
use frac_core::{
    CatModel, FallbackKind, FaultPlan, FracConfig, FracModel, RunBudget, TargetOutcome,
    TrainingPlan,
};
use frac_dataset::Dataset;
use frac_learn::SvcConfig;
use frac_synth::snp::{CohortGroup, SnpConfig, SnpGenerator, SubpopulationMix};
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use proptest::prelude::*;
use std::sync::Once;
use std::time::Duration;

fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(INJECTED_PANIC))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC));
            if !injected {
                prev(info);
            }
        }));
    });
}

fn expr_data(n_rows: usize, n_features: usize, seed: u64) -> Dataset {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features,
        n_modules: 3,
        anomaly_modules: 1,
        structure_seed: seed,
        ..ExpressionConfig::default()
    })
    .generate(n_rows, 0, seed ^ 0x5EED);
    data
}

fn snp_data(n_rows: usize, n_snps: usize, seed: u64) -> Dataset {
    let gen = SnpGenerator::new(SnpConfig {
        n_snps,
        ld_block_size: 4,
        n_subpops: 2,
        structure_seed: seed,
        ..SnpConfig::default()
    });
    let groups = [CohortGroup { n: n_rows, mix: SubpopulationMix::uniform(2), is_case: false }];
    gen.generate(&groups, seed ^ 0x5EED).0
}

/// Every fit takes the one budgeted training path, so a budget that never
/// trips must leave every bit alone. Each config — the expression default
/// (SVR, on the Gram path at this shape), `FracConfig::snp()` (trees) and
/// an SVC config — is fitted with no budget, under a one-hour deadline, and
/// under a cancellable budget nobody cancels; all three save the same bytes.
#[test]
fn a_budget_that_never_trips_moves_no_bit() {
    let expr = expr_data(30, 12, 4);
    let snp = snp_data(30, 16, 8);
    let svc = FracConfig { cat_model: CatModel::Svc(SvcConfig::default()), ..FracConfig::snp() };
    for (name, data, config) in [
        ("svr", &expr, FracConfig::expression()),
        ("trees", &snp, FracConfig::snp()),
        ("svc", &snp, svc),
    ] {
        let plan = TrainingPlan::full(data.n_features());
        let (plain, plain_report) = FracModel::fit(data, &plan, &config);
        let bytes = plain.to_bytes();
        let hour = RunBudget::with_deadline(Duration::from_secs(3600));
        let (uncancelled, _handle) = RunBudget::unlimited().cancellable();
        for (how, budget) in [("a 1 h deadline", hour), ("an uncancelled budget", uncancelled)] {
            let (model, report) = FracModel::fit_budgeted(data, &plan, &config, &budget);
            assert_eq!(report.health.summary(), plain_report.health.summary(), "{name}, {how}");
            assert!(model.to_bytes() == bytes, "{name}: {how} changed the model bytes");
        }
    }
}

#[test]
fn all_targets_dropped_keeps_renorm_and_scores_finite() {
    // Every column all-missing: every target is quarantined and dropped.
    let data = expr_data(16, 4, 2);
    let cols: Vec<frac_dataset::Column> =
        (0..4).map(|_| frac_dataset::Column::Real(vec![f64::NAN; 16].into())).collect();
    let train = Dataset::new(data.schema().clone(), cols);
    let plan = TrainingPlan::full(4);
    let (model, report) = FracModel::fit(&train, &plan, &FracConfig::default());

    assert_eq!(report.health.targets_planned, 4);
    assert_eq!(report.health.targets_survived, 0);
    assert_eq!(report.health.n_dropped(), 4);
    assert_eq!(model.n_targets(), 0);
    // 4 planned / 0 survived must not become 4/0 = inf or 0/0 = NaN.
    assert!(
        model.ns_renorm_factor().is_finite(),
        "renorm over zero survivors must stay finite, got {}",
        model.ns_renorm_factor()
    );
    let ns = model.score(&data);
    assert_eq!(ns.len(), 16);
    assert!(ns.iter().all(|s| s.is_finite()), "{ns:?}");
}

#[test]
fn expired_budget_baselines_every_target_fast_and_accounts_for_all() {
    let train = expr_data(30, 12, 6);
    let plan = TrainingPlan::full(12);
    let cfg = FracConfig::default();

    let start = std::time::Instant::now();
    let (model, report) = FracModel::fit_budgeted(
        &train,
        &plan,
        &cfg,
        &RunBudget::with_deadline(Duration::ZERO),
    );
    let elapsed = start.elapsed();

    // Every target survives via its baseline and says why.
    assert_eq!(report.health.targets_planned, 12);
    assert_eq!(report.health.targets_survived, 12);
    assert_eq!(model.n_targets(), 12);
    for t in 0..12 {
        let deadline_degraded = report.health.events_for(t).any(|e| matches!(
            &e.outcome,
            TargetOutcome::Degraded { fallback: FallbackKind::Baseline, detail, .. }
                if detail.contains("wall-clock")
        ));
        assert!(
            deadline_degraded,
            "target {t} must record its deadline baseline: {}",
            report.health.summary()
        );
    }
    let ns = model.score(&train);
    assert!(ns.iter().all(|s| s.is_finite()), "{ns:?}");
    // No real solving happened: an expired budget degrades in the time it
    // takes to fit 12 baselines, not 12 SVR ensembles.
    assert!(
        elapsed < Duration::from_secs(30),
        "expired-budget run took {elapsed:?}"
    );
}

#[test]
fn cancel_mid_api_is_honoured_before_any_solve() {
    let train = expr_data(20, 6, 9);
    let plan = TrainingPlan::full(6);
    let (budget, handle) = RunBudget::unlimited().cancellable();
    handle.cancel();
    let (model, report) =
        FracModel::fit_budgeted(&train, &plan, &FracConfig::default(), &budget);
    assert_eq!(report.health.targets_survived, 6);
    assert!(report.health.n_degraded() >= 6, "{}", report.health.summary());
    assert!(model.score(&train).iter().all(|s| s.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// planned = survived + dropped, exactly, for any fault plan — no
    /// target is ever double-counted or silently lost, and the summary
    /// string agrees with the counters it prints.
    #[test]
    fn run_health_arithmetic_holds_for_arbitrary_fault_plans(
        seed in 0u64..1_000,
        poison in 0.0f64..0.4,
        diverge in prop::collection::vec(0usize..7, 0..3),
        panic_at in prop::collection::vec(0usize..7, 0..3),
    ) {
        quiet_injected_panics();
        let data = expr_data(22, 7, 17);
        let plan = TrainingPlan::full(7);
        let faults = FaultPlan::seeded(seed)
            .with_poison(poison)
            .with_diverge_at(diverge.iter().copied())
            .with_panic_at(panic_at.iter().copied());
        let poisoned = faults.poison(&data);
        let (model, report) =
            FracModel::fit_with_faults(&poisoned, &plan, &FracConfig::default(), &faults);

        let h = &report.health;
        prop_assert_eq!(h.targets_planned, 7);
        prop_assert_eq!(h.targets_survived + h.n_dropped(), h.targets_planned);
        prop_assert_eq!(model.n_targets(), h.targets_survived);
        prop_assert_eq!(model.planned_targets(), h.targets_planned);

        // Every dropped target has a Dropped event naming it; no event
        // names a target outside the plan.
        let dropped: Vec<usize> = (0..7)
            .filter(|&t| h.events_for(t).any(|e| matches!(
                e.outcome, TargetOutcome::Dropped { .. }
            )))
            .collect();
        prop_assert_eq!(dropped.len(), h.n_dropped());
        prop_assert!(h.events.iter().all(|e| e.target < 7));

        // The one-line summary quotes the real counters.
        let s = h.summary();
        prop_assert!(
            s.contains(&format!("{}/{}", h.targets_survived, h.targets_planned)),
            "{}", s
        );

        // Renorm stays finite whatever dropped (zero survivors included).
        prop_assert!(model.ns_renorm_factor().is_finite());
        prop_assert!(model.score(&poisoned).iter().all(|v| v.is_finite()));
    }
}
