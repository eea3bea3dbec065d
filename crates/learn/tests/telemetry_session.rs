//! Telemetry session tests. A session records every span any thread
//! emits while it is live, and these tests count spans exactly, so they
//! run in their own test binary: no other test here emits spans. One
//! session per process, so the tests serialize on a lock.

use frac_dataset::dataset::DatasetBuilder;
use frac_dataset::{DesignView, PoolSpec};
use frac_learn::telemetry::{counter_add, span, target_guard, Counter, Stage, TelemetrySession};
use frac_learn::tree::ClassificationTreeTrainer;
use frac_learn::ClassifierTrainer;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn session_records_nested_spans_and_counters() {
    let _l = locked();
    let session = TelemetrySession::start().unwrap();
    {
        let _outer = span(Stage::CvFold);
        let _inner = span(Stage::Solve);
        counter_add(Counter::SolverEpochs, 3);
    }
    counter_add(Counter::TreeNodes, 7);
    let report = session.finish();
    assert_eq!(report.spans.len(), 2);
    let outer = report
        .spans
        .iter()
        .find(|s| s.stage == Stage::CvFold)
        .unwrap();
    let inner = report
        .spans
        .iter()
        .find(|s| s.stage == Stage::Solve)
        .unwrap();
    assert_eq!(inner.parent, outer.id);
    assert_eq!(outer.parent, 0);
    assert!(inner.start_ns >= outer.start_ns);
    assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    assert_eq!(report.counter(Counter::SolverEpochs), 3);
    assert_eq!(report.counter(Counter::TreeNodes), 7);
    assert!(report.wall_ns > 0);
}

#[test]
fn kernel_tier_counter_or_merges_across_fits_and_threads() {
    let _l = locked();
    let session = TelemetrySession::start().unwrap();
    // Two fits on the same tier must not sum into a different tier's
    // bit; a strict fit on another thread adds its own bit.
    counter_add(Counter::KernelTier, 2);
    counter_add(Counter::KernelTier, 2);
    std::thread::spawn(|| counter_add(Counter::KernelTier, 4))
        .join()
        .unwrap();
    let report = session.finish();
    assert_eq!(report.counter(Counter::KernelTier), 2 | 4);
}

#[test]
fn target_attribution_nests_and_restores() {
    let _l = locked();
    let session = TelemetrySession::start().unwrap();
    {
        let _t = target_guard(5);
        let _s = span(Stage::Entropy);
        {
            let _t2 = target_guard(9);
            let _s2 = span(Stage::Solve);
        }
        let _s3 = span(Stage::ErrorModel);
    }
    {
        let _untargeted = span(Stage::Encode);
    }
    let report = session.finish();
    let by_stage = |st: Stage| report.spans.iter().find(|s| s.stage == st).unwrap();
    assert_eq!(by_stage(Stage::Entropy).target, 5);
    assert_eq!(by_stage(Stage::Solve).target, 9);
    assert_eq!(by_stage(Stage::ErrorModel).target, 5);
    assert_eq!(by_stage(Stage::Encode).target, -1);
}

#[test]
fn second_concurrent_session_is_refused() {
    let _l = locked();
    let a = TelemetrySession::start().unwrap();
    assert!(TelemetrySession::start().is_none());
    drop(a); // unfinished drop re-enables
    let b = TelemetrySession::start().unwrap();
    let report = b.finish();
    assert!(report.spans.is_empty());
}

#[test]
fn cross_thread_spans_get_distinct_ids() {
    let _l = locked();
    let session = TelemetrySession::start().unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                let _s = span(Stage::Solve);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let report = session.finish();
    assert_eq!(report.spans.len(), 4);
    let mut ids: Vec<u64> = report.spans.iter().map(|s| s.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "span ids must be unique across threads");
}

#[test]
fn pure_children_get_no_count_tables() {
    // The label is `code == 0` of the first of four ternary SNPs, so the
    // root splits on that indicator into two pure children: leaves that no
    // search reads, so only the root's tables are counted.
    let n_rows = 24usize;
    let mut b = DatasetBuilder::new();
    for j in 0..4 {
        let codes = (0..n_rows).map(|i| ((i * (j + 1) + j) % 3) as u32).collect();
        b = b.categorical(format!("snp{j}"), 3, codes);
    }
    let data = b.build();
    let all: Vec<usize> = (0..data.n_features()).collect();
    let pool = PoolSpec::fit(&data, &all, true).encode(&data);
    let view = pool.view(&all);
    let blocks = view.cat_blocks().map_or(0, |b| b.blocks().len());
    assert_eq!(blocks, 4);
    let ys: Vec<u32> = (0..n_rows).map(|i| u32::from(i % 3 == 0)).collect();

    let _l = locked();
    let session = TelemetrySession::start().unwrap();
    let tree = ClassificationTreeTrainer::default().train(&view, &ys, 2);
    let report = session.finish();
    assert_eq!(tree.model.n_nodes(), 3, "one split, two leaves");
    assert_eq!(report.counter(Counter::TreeNodes), 3);
    assert_eq!(report.counter(Counter::TreeCountCells), (n_rows * blocks) as u64);
}
