//! Kill-at-any-byte gate for the write-ahead run journal.
//!
//! The contract under test: a journaled fit that dies at *any* byte of its
//! journal — a clean record boundary, a torn record, even a torn header —
//! resumes to a model whose NS scores are bitwise identical to an
//! uninterrupted run. Most cases pin [`SolverMode::Strict`], the reference
//! solver; one kill-and-resume case runs the fast path, whose per-target
//! results also depend only on `(data, config)`.

use frac_core::{
    FracConfig, FracModel, JournalError, RunBudget, RunJournal, SolverMode, TrainingPlan,
};
use frac_dataset::Dataset;
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

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

fn strict_config() -> FracConfig {
    FracConfig::default().with_seed(11).with_solver_mode(SolverMode::Strict)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("frac-crash-resume-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Copy the first `len` bytes of `full` to `out` — the on-disk state a
/// crash at byte `len` would leave behind.
fn truncate_copy(full: &Path, out: &Path, len: usize) {
    let bytes = std::fs::read(full).unwrap();
    std::fs::write(out, &bytes[..len.min(bytes.len())]).unwrap();
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: NS[{i}] differs ({x} vs {y})"
        );
    }
}

#[test]
fn resume_after_crash_at_every_record_boundary_is_bitwise_identical() {
    let data = expr_data(24, 6, 3);
    let train = data.select_rows(&(0..18).collect::<Vec<_>>());
    let test = data.select_rows(&(18..24).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("boundaries");

    let full_journal = dir.join("full.frj");
    let fit = FracModel::fit_journaled(
        &train,
        &plan,
        &cfg,
        &RunBudget::unlimited(),
        &full_journal,
    )
    .unwrap();
    assert_eq!(fit.resumed, 0);
    assert!(!fit.journal_broken);
    let reference_ns = fit.model.score(&test);

    // Every prefix that a crash could leave at a clean boundary: nothing,
    // just the header, header + k records.
    let scan = RunJournal::scan(&full_journal).unwrap();
    assert_eq!(scan.records.len(), plan.n_targets());
    let mut cut_points = vec![0, scan.header_end as usize];
    cut_points.extend(scan.record_ends.iter().map(|&e| e as usize));

    for (k, &cut) in cut_points.iter().enumerate() {
        let partial = dir.join(format!("cut{k}.frj"));
        truncate_copy(&full_journal, &partial, cut);
        let resumed =
            FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &partial)
                .unwrap();
        assert_bitwise_eq(
            &reference_ns,
            &resumed.model.score(&test),
            &format!("crash at boundary {k} (byte {cut})"),
        );
        // The resumed journal is complete again: a second resume restores
        // every target without refitting anything.
        let again =
            FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &partial)
                .unwrap();
        assert_eq!(again.resumed, plan.n_targets());
        assert_bitwise_eq(
            &reference_ns,
            &again.model.score(&test),
            "second resume of a completed journal",
        );
    }
}

/// The fast solver keeps the promise too: its all-but-target solves
/// downdate one Gram matrix per fit, and a resumed process builds the same
/// one, so a run killed at a record boundary resumes to the same bits.
#[test]
fn fast_resume_after_a_kill_at_a_record_boundary_is_bitwise_identical() {
    let data = expr_data(30, 12, 5);
    let train = data.select_rows(&(0..24).collect::<Vec<_>>());
    let test = data.select_rows(&(24..30).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = FracConfig::default().with_seed(11);
    let dir = temp_dir("fast-boundary");
    let full_journal = dir.join("full.frj");
    let fit =
        FracModel::fit_journaled(&train, &plan, &cfg, &RunBudget::unlimited(), &full_journal)
            .unwrap();
    let reference_ns = fit.model.score(&test);
    let scan = RunJournal::scan(&full_journal).unwrap();
    let cut = scan.record_ends[scan.record_ends.len() / 2] as usize;
    let partial = dir.join("cut.frj");
    truncate_copy(&full_journal, &partial, cut);
    let resumed =
        FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &partial).unwrap();
    assert!(resumed.resumed > 0 && resumed.resumed < plan.n_targets());
    assert_bitwise_eq(&reference_ns, &resumed.model.score(&test), "fast resume");
}

/// A journal written by a fast fit before the shared Gram matrix carries
/// the config's old hash, the FNV-1a of its `Debug` rendering alone; its
/// targets were fitted under other arithmetic, so a resume refuses it.
#[test]
fn resume_refuses_a_fast_journal_from_before_the_shared_gram() {
    let train = expr_data(18, 5, 4);
    let plan = TrainingPlan::full(5);
    let cfg = FracConfig::default().with_seed(11);
    let dir = temp_dir("fast-old-hash");
    let journal = dir.join("run.frj");
    FracModel::fit_journaled(&train, &plan, &cfg, &RunBudget::unlimited(), &journal).unwrap();
    let old = frac_dataset::crc::fnv64(format!("{cfg:?}").as_bytes());
    assert_ne!(old, cfg.content_hash());
    let bytes = std::fs::read(&journal).unwrap();
    let new_line = format!("config {:016x}\n", cfg.content_hash());
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains(&new_line), "header line {new_line:?}");
    let at = text.find(&new_line).unwrap();
    let mut patched = bytes[..at].to_vec();
    patched.extend_from_slice(format!("config {old:016x}\n").as_bytes());
    patched.extend_from_slice(&bytes[at + new_line.len()..]);
    std::fs::write(&journal, patched).unwrap();
    match FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &journal) {
        Err(JournalError::Mismatch(detail)) => assert!(detail.contains("config"), "{detail}"),
        Err(e) => panic!("expected a header mismatch, got {e}"),
        Ok(_) => panic!("expected a header mismatch, got a model"),
    }
    // Strict configs keep their hash.
    let strict = strict_config();
    assert_eq!(strict.content_hash(), frac_dataset::crc::fnv64(format!("{strict:?}").as_bytes()));
}

#[test]
fn resume_refuses_a_journal_from_a_different_run() {
    let train = expr_data(18, 5, 4);
    let plan = TrainingPlan::full(5);
    let cfg = strict_config();
    let dir = temp_dir("mismatch");
    let journal = dir.join("run.frj");
    FracModel::fit_journaled(&train, &plan, &cfg, &RunBudget::unlimited(), &journal)
        .unwrap();

    // Different seed → different config hash → refuse, don't silently mix.
    let other = cfg.with_seed(99);
    match FracModel::resume(&train, &plan, &other, &RunBudget::unlimited(), &journal) {
        Err(JournalError::Mismatch(detail)) => {
            assert!(detail.contains("config"), "{detail}")
        }
        Err(e) => panic!("expected a header mismatch, got {e}"),
        Ok(_) => panic!("expected a header mismatch, got a model"),
    }

    // Different plan likewise.
    let smaller = TrainingPlan::full_filtered(&[0, 2, 4]);
    match FracModel::resume(&train, &smaller, &cfg, &RunBudget::unlimited(), &journal) {
        Err(JournalError::Mismatch(_)) => {}
        Err(e) => panic!("expected a header mismatch, got {e}"),
        Ok(_) => panic!("expected a header mismatch, got a model"),
    }

    // And a missing journal is an error for `resume` (it would silently be
    // a fresh run otherwise).
    match FracModel::resume(
        &train,
        &plan,
        &cfg,
        &RunBudget::unlimited(),
        dir.join("absent.frj"),
    ) {
        Err(JournalError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::NotFound)
        }
        Err(e) => panic!("expected NotFound, got {e}"),
        Ok(_) => panic!("expected NotFound, got a model"),
    }
}

#[test]
fn a_shard_journal_is_foreign_to_a_full_plan_resume() {
    // A shard journal's header binds the *sub*-plan, so resuming the full
    // plan against it must refuse — naming the plan hash and the planned
    // count, not silently fitting the targets the shard never owned.
    let train = expr_data(18, 5, 4);
    let plan = TrainingPlan::full(5);
    let cfg = strict_config();
    let dir = temp_dir("shard-foreign");
    let base = dir.join("run.frj");
    frac_core::shard::worker_run(
        &train,
        &plan,
        &cfg,
        &RunBudget::unlimited(),
        &base,
        0,
        2,
    )
    .unwrap();
    let shard_journal = frac_core::shard::shard_journal_path(&base, 0, 2);
    match FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &shard_journal)
    {
        Err(JournalError::Mismatch(detail)) => {
            assert!(detail.contains("training plan hash"), "{detail}");
            assert!(detail.contains("planned target count"), "{detail}");
            assert!(!detail.contains("config hash"), "config matches: {detail}");
        }
        Err(e) => panic!("expected a header mismatch, got {e}"),
        Ok(_) => panic!("expected a header mismatch, got a model"),
    }
}

#[test]
fn deadline_run_journals_only_clean_targets_and_resume_completes_them() {
    let data = expr_data(24, 6, 8);
    let train = data.select_rows(&(0..18).collect::<Vec<_>>());
    let test = data.select_rows(&(18..24).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("deadline");

    let (reference, _) = FracModel::fit(&train, &plan, &cfg);
    let reference_ns = reference.score(&test);

    // An already-expired deadline: every target degrades to its baseline
    // (still scored, still accounted), and *none* of them may be journaled
    // — a checkpoint must never launder a provisional result into a final
    // one.
    let journal = dir.join("run.frj");
    let rushed = FracModel::fit_journaled(
        &train,
        &plan,
        &cfg,
        &RunBudget::with_deadline(Duration::ZERO),
        &journal,
    )
    .unwrap();
    assert_eq!(rushed.report.health.targets_planned, plan.n_targets());
    assert_eq!(rushed.report.health.targets_survived, plan.n_targets());
    assert!(
        rushed.report.health.n_degraded() >= plan.n_targets(),
        "every target must record its baseline substitution: {}",
        rushed.report.health.summary()
    );
    let ns = rushed.model.score(&test);
    assert!(ns.iter().all(|s| s.is_finite()), "{ns:?}");
    assert_eq!(
        RunJournal::scan(&journal).unwrap().records.len(),
        0,
        "budget-degraded targets must not be checkpointed"
    );

    // Resuming with an unlimited budget converges to the full model.
    let finished =
        FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &journal)
            .unwrap();
    assert!(finished.report.health.is_clean());
    assert_bitwise_eq(
        &reference_ns,
        &finished.model.score(&test),
        "deadline run then unlimited resume",
    );
}

#[test]
fn cancelled_run_resumes_to_the_same_model() {
    let data = expr_data(24, 6, 15);
    let train = data.select_rows(&(0..18).collect::<Vec<_>>());
    let test = data.select_rows(&(18..24).collect::<Vec<_>>());
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("cancel");

    let (reference, _) = FracModel::fit(&train, &plan, &cfg);

    // Cancel before the run starts: the most extreme preemption. All
    // targets baseline-degrade, none are journaled, resume finishes them.
    let (budget, handle) = RunBudget::unlimited().cancellable();
    handle.cancel();
    let journal = dir.join("run.frj");
    let cancelled =
        FracModel::fit_journaled(&train, &plan, &cfg, &budget, &journal).unwrap();
    assert_eq!(cancelled.report.health.targets_survived, plan.n_targets());
    assert_eq!(RunJournal::scan(&journal).unwrap().records.len(), 0);

    let finished =
        FracModel::resume(&train, &plan, &cfg, &RunBudget::unlimited(), &journal)
            .unwrap();
    assert_bitwise_eq(
        &reference.score(&test),
        &finished.model.score(&test),
        "cancelled run then resume",
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash at a *random* byte — including mid-record and mid-header —
    /// and resume. Torn tails truncate, completed prefixes restore, and
    /// the final NS is bitwise identical to the uninterrupted run.
    #[test]
    fn resume_after_crash_at_any_byte_is_bitwise_identical(cut_frac in 0.0f64..1.0) {
        let data = expr_data(24, 5, 21);
        let train = data.select_rows(&(0..18).collect::<Vec<_>>());
        let test = data.select_rows(&(18..24).collect::<Vec<_>>());
        let plan = TrainingPlan::full(train.n_features());
        let cfg = strict_config();
        let dir = temp_dir("proptest");

        let full_journal = dir.join("full.frj");
        let fit = FracModel::fit_journaled(
            &train, &plan, &cfg, &RunBudget::unlimited(), &full_journal,
        ).unwrap();
        let reference_ns = fit.model.score(&test);

        let len = std::fs::metadata(&full_journal).unwrap().len() as usize;
        let cut = ((len as f64) * cut_frac) as usize;
        let partial = dir.join(format!("cut-{cut}.frj"));
        truncate_copy(&full_journal, &partial, cut);

        let resumed = FracModel::resume(
            &train, &plan, &cfg, &RunBudget::unlimited(), &partial,
        ).unwrap();
        let ns = resumed.model.score(&test);
        for (x, y) in reference_ns.iter().zip(&ns) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "crash at byte {}", cut);
        }
    }
}
