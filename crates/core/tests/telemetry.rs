//! End-to-end telemetry gate.
//!
//! The contract under test: a [`TelemetrySession`] around a full fit —
//! including fits degraded by arbitrary injected faults — always drains a
//! *well-nested* span tree (every parent resolves, children stay inside
//! their parent's extent and thread, sibling durations sum to at most the
//! parent's), and recording never perturbs the model: scores are
//! bit-identical with and without a live session.

use frac_core::fault::INJECTED_PANIC;
use frac_core::scoring::PARALLEL_WORK_THRESHOLD;
use frac_core::telemetry::{self, Stage, TelemetryReport, TelemetrySession};
use frac_core::{FaultPlan, FracConfig, FracModel, TrainingPlan};
use frac_dataset::Dataset;
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Mutex, Once};

/// One live session per process: tests that start a session serialize on
/// this lock (a poisoned lock just means a previous test failed — the
/// session it held is already torn down by `Drop`).
static SESSION_LOCK: Mutex<()> = Mutex::new(());

fn session_lock() -> std::sync::MutexGuard<'static, ()> {
    SESSION_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Suppress the default "thread panicked" stderr spew for *injected* panics
/// only; real panics still report normally.
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

/// Assert the span tree is well nested. Instant→ns truncation can make a
/// child's computed end overshoot its parent's by a couple of nanoseconds,
/// so containment and sibling sums get a tiny per-span slack.
fn assert_well_nested(report: &TelemetryReport) {
    const SLACK_NS: u64 = 16;
    let by_id: HashMap<u64, &frac_core::telemetry::SpanRecord> =
        report.spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), report.spans.len(), "span ids must be unique");
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    for s in &report.spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .unwrap_or_else(|| panic!("span {} has unresolved parent {}", s.id, s.parent));
        assert_eq!(s.thread, p.thread, "a child span lives on its parent's thread");
        assert!(
            s.start_ns >= p.start_ns,
            "child {} starts ({}) before parent {} ({})",
            s.id,
            s.start_ns,
            p.id,
            p.start_ns
        );
        assert!(
            s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns + SLACK_NS,
            "child {} ends ({}) after parent {} ({})",
            s.id,
            s.start_ns + s.dur_ns,
            p.id,
            p.start_ns + p.dur_ns
        );
        *child_sum.entry(s.parent).or_insert(0) += s.dur_ns;
    }
    for (parent, sum) in child_sum {
        let p = by_id[&parent];
        let n_children = report.spans.iter().filter(|s| s.parent == parent).count() as u64;
        assert!(
            sum <= p.dur_ns + SLACK_NS * n_children,
            "children of span {parent} total {sum} ns > parent's {} ns",
            p.dur_ns
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn span_trees_stay_well_nested_under_arbitrary_fault_plans(
        seed in 0u64..1_000,
        poison in 0.0f64..0.35,
        diverge in prop::collection::vec(0usize..8, 0..3),
        panic_at in prop::collection::vec(0usize..8, 0..3),
    ) {
        quiet_injected_panics();
        let _serial = session_lock();
        let data = expr_data(24, 8, 11);
        let plan = TrainingPlan::full(8);
        let faults = FaultPlan::seeded(seed)
            .with_poison(poison)
            .with_diverge_at(diverge.iter().copied())
            .with_panic_at(panic_at.iter().copied());
        let poisoned = faults.poison(&data);

        let session = TelemetrySession::start();
        prop_assert!(session.is_some(), "no other session may be live");
        let (model, _) =
            FracModel::fit_with_faults(&poisoned, &plan, &FracConfig::default(), &faults);
        let ns = model.score(&poisoned);
        let report = session.map(TelemetrySession::finish).unwrap_or_default();

        prop_assert!(ns.iter().all(|s| s.is_finite()));
        assert_well_nested(&report);
        // Fits degrade but the trace still shows real work happened…
        prop_assert!(!report.spans.is_empty());
        // …and round-trips through the on-disk format intact.
        prop_assert_eq!(
            TelemetryReport::parse_tsv(&report.write_tsv()).map_err(|e| e.to_string()),
            Ok(report)
        );
    }
}

#[test]
fn recording_never_perturbs_the_model() {
    let _serial = session_lock();
    let data = expr_data(30, 10, 7);
    let train = data.select_rows(&(0..22).collect::<Vec<_>>());
    let test = data.select_rows(&(22..30).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = FracConfig::default();

    let (plain, plain_report) = FracModel::fit(&train, &plan, &cfg);
    let ns_plain = plain.score(&test);

    let session = TelemetrySession::start().expect("no other session is live");
    let (traced, traced_report) = FracModel::fit(&train, &plan, &cfg);
    let ns_traced = traced.score(&test);
    let trace = session.finish();

    // Bit-identical outputs: telemetry observes the run, never steers it.
    for (a, b) in ns_plain.iter().zip(&ns_traced) {
        assert_eq!(a.to_bits(), b.to_bits(), "a live session changed a score");
    }
    assert_eq!(plain_report.flops, traced_report.flops);
    assert_eq!(plain_report.models_trained, traced_report.models_trained);

    // The trace covers the whole taxonomy a clean fit + score exercises.
    for stage in [Stage::Encode, Stage::CvFold, Stage::FinalTrain, Stage::ErrorModel, Stage::Score]
    {
        assert!(
            trace.spans.iter().any(|s| s.stage == stage),
            "no {stage} span in the trace"
        );
    }
    // Every planned target shows up in the per-target attribution.
    assert_eq!(trace.target_totals().len(), plan.n_targets());
    assert_well_nested(&trace);
}

/// Spans per stage: the shape of a session's trace, which no thread count
/// changes.
fn stage_counts(report: &TelemetryReport) -> BTreeMap<Stage, usize> {
    let mut counts = BTreeMap::new();
    for s in &report.spans {
        *counts.entry(s.stage).or_insert(0) += 1;
    }
    counts
}

/// Two traced fits in a row, then traced scoring calls that fan out, each
/// under an open caller span (as the daemon's `serve_batch` is): three
/// sessions at `threads` threads.
fn traced_sessions(threads: usize) -> Vec<TelemetryReport> {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
    pool.install(|| {
        let mut reports = Vec::new();
        let mut last = None;
        for seed in [3, 4] {
            let train = expr_data(24, 10, seed);
            let plan = TrainingPlan::full(train.n_features());
            let session = TelemetrySession::start().expect("no other session is live");
            let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
            reports.push(session.finish());
            last = Some(model);
        }
        let model = last.expect("two fits ran");
        let work = model.scoring_plan().unwrap().work_per_row();
        let n = 4 * (PARALLEL_WORK_THRESHOLD / work + 1) as usize;
        let source = expr_data(24, 10, 9);
        let test = source.select_rows(&(0..n).map(|i| i % source.n_rows()).collect::<Vec<_>>());
        let session = TelemetrySession::start().expect("no other session is live");
        // Five calls: whether a worker wakes in time to take a group is up
        // to the scheduler, and one of five calls is enough.
        for _ in 0..5 {
            let _batch = telemetry::span(Stage::ServeBatch);
            model.score(&test);
        }
        reports.push(session.finish());
        reports
    })
}

#[test]
fn resident_workers_keep_sessions_apart() {
    let _serial = session_lock();
    let reference = traced_sessions(1);
    for threads in [2, 4] {
        let reports = traced_sessions(threads);
        let mut earlier_threads: HashSet<u32> = HashSet::new();
        for (k, (report, want)) in reports.iter().zip(&reference).enumerate() {
            let at = format!("session {k}, {threads} threads");
            assert_well_nested(report);
            // Thread ids are handed out per session and never reused, so
            // a span carried over from an earlier session would show one
            // of that session's threads.
            let threads_here: HashSet<u32> = report.spans.iter().map(|s| s.thread).collect();
            assert!(threads_here.is_disjoint(&earlier_threads), "{at}: an earlier session's span");
            earlier_threads.extend(threads_here);
            assert!(
                report.spans.iter().all(|s| s.start_ns + s.dur_ns <= report.wall_ns),
                "{at}: a span outside the session's wall clock"
            );
            assert_eq!(stage_counts(report), stage_counts(want), "{at}: spans per stage");
            assert_eq!(report.counters, want.counters, "{at}: counters");
        }
        // The scoring calls fanned out: their features were scored on more
        // than one thread, and the caller's nest under its open span.
        let score = &reports[2];
        let batches: Vec<_> = score.spans.iter().filter(|s| s.stage == Stage::ServeBatch).collect();
        let scored: Vec<_> = score.spans.iter().filter(|s| s.stage == Stage::Score).collect();
        let on: HashSet<u32> = scored.iter().map(|s| s.thread).collect();
        assert!(on.len() > 1, "{threads} threads: the scoring calls stayed on one thread");
        for s in scored.iter().filter(|s| s.thread == batches[0].thread) {
            assert!(
                batches.iter().any(|b| b.id == s.parent),
                "a caller's score span nests under its open span"
            );
        }
    }
}
