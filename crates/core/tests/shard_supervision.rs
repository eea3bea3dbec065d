//! Process-level fault harness for sharded multi-process training.
//!
//! The contract under test: a `--shards N` run whose workers die — crash-loop
//! at startup, SIGKILL-style aborts at record boundaries, torn shard-journal
//! tails — still completes with a merged model whose NS scores are bitwise
//! identical to an uninterrupted single-process run, with no target lost or
//! double-counted. [`SolverMode::Strict`] is pinned except in the merge
//! proptest, which also runs fast SVR across shard counts.
//!
//! Real worker processes are spawned by re-executing this test binary with
//! `--exact shard_worker_entry`; the worker rebuilds its dataset from
//! environment parameters, runs its shard, and exits. Injected process
//! faults ride the same environment protocol the CLI supervisor uses
//! ([`frac_core::fault::FaultPlan::worker_env`]).

use frac_core::fault::{CRASHLOOP_EXIT_CODE, ENV_SHARD_ABORT_AFTER};
use frac_core::shard::{
    apply_worker_faults_from_env, resume_shards, shard_journal_path, train_sharded,
    worker_run,
};
use frac_core::{
    FaultPlan, FracConfig, FracModel, JournalError, RunBudget, RunJournal, ShardError,
    ShardEvent, ShardOptions, SolverMode, TrainingPlan,
};
use frac_dataset::Dataset;
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Worker-mode trigger: when set, [`shard_worker_entry`] is a worker
/// process, not a test.
const ENV_WORKER: &str = "FRAC_SHARD_TEST_WORKER";
/// Base journal path for the worker's shard set.
const ENV_BASE: &str = "FRAC_SHARD_TEST_BASE";
/// `K/N`: which shard of how many this worker owns.
const ENV_SHARD: &str = "FRAC_SHARD_TEST_SHARD";
/// `rows:features:seed` of the cohort the worker must rebuild.
const ENV_DATA: &str = "FRAC_SHARD_TEST_DATA";

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

/// Deterministic (train, test) split: the last 6 rows are the test set.
/// Workers rebuild exactly this from the `rows:features:seed` triple, so
/// every process fits the same bits.
fn cohort(rows: usize, features: usize, seed: u64) -> (Dataset, Dataset) {
    let data = expr_data(rows, features, seed);
    let train = data.select_rows(&(0..rows - 6).collect::<Vec<_>>());
    let test = data.select_rows(&(rows - 6..rows).collect::<Vec<_>>());
    (train, test)
}

fn strict_config() -> FracConfig {
    FracConfig::default().with_seed(11).with_solver_mode(SolverMode::Strict)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("frac-shard-supervision-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: NS[{i}] differs ({x} vs {y})");
    }
}

/// Spawn a real worker process for shard `k` of `n`: this test binary,
/// re-executed so only [`shard_worker_entry`] runs, in worker mode.
fn spawn_worker(
    base: &Path,
    k: usize,
    n: usize,
    data: (usize, usize, u64),
    extra_env: &[(&str, String)],
) -> std::io::Result<Child> {
    let exe = std::env::current_exe().expect("own test binary");
    let mut cmd = Command::new(exe);
    cmd.args(["shard_worker_entry", "--exact"])
        .env(ENV_WORKER, "1")
        .env(ENV_BASE, base)
        .env(ENV_SHARD, format!("{k}/{n}"))
        .env(ENV_DATA, format!("{}:{}:{}", data.0, data.1, data.2))
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in extra_env {
        cmd.env(key, value);
    }
    cmd.spawn()
}

/// Worker-process entry point. Without [`ENV_WORKER`] this is a no-op test;
/// with it, the process rebuilds the cohort from the environment, enacts
/// any injected faults, fits its shard into the shard journal, and exits.
#[test]
fn shard_worker_entry() {
    if std::env::var(ENV_WORKER).as_deref() != Ok("1") {
        return;
    }
    let base = PathBuf::from(std::env::var(ENV_BASE).unwrap());
    let shard_spec = std::env::var(ENV_SHARD).unwrap();
    let (k, n) = shard_spec.split_once('/').unwrap();
    let (k, n): (usize, usize) = (k.parse().unwrap(), n.parse().unwrap());
    let data_spec = std::env::var(ENV_DATA).unwrap();
    let parts: Vec<usize> = data_spec.split(':').map(|p| p.parse().unwrap()).collect();
    let (train, _) = cohort(parts[0], parts[1], parts[2] as u64);
    let plan = TrainingPlan::full(train.n_features());

    apply_worker_faults_from_env(&shard_journal_path(&base, k, n));
    worker_run(
        &train,
        &plan,
        &strict_config(),
        &RunBudget::unlimited(),
        &base,
        k,
        n,
    )
    .unwrap();
    std::process::exit(0);
}

/// The acceptance scenario: a 4-shard run with one crash-looping worker and
/// one worker killed mid-run at a record boundary. The supervisor must walk
/// retry/backoff, reclaim the hopeless shard in-process, resume the killed
/// shard from its journal, and deliver the single-process model bit for bit
/// with no target lost or double-counted.
#[test]
fn four_shards_survive_a_crashloop_and_a_midrun_kill_bitwise() {
    const DATA: (usize, usize, u64) = (24, 16, 21);
    let (train, test) = cohort(DATA.0, DATA.1, DATA.2);
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("acceptance");
    let base = dir.join("run.frj");

    let (reference, _) = FracModel::fit(&train, &plan, &cfg);
    let reference_ns = reference.score(&test);

    // Shard 1 crash-loops on every attempt (via the FaultPlan env protocol
    // the CLI uses); shard 2's first worker is aborted — as a SIGKILL
    // would — once its journal holds one record.
    let faults = FaultPlan::none().with_crashloop_at([1]);
    let opts = ShardOptions {
        retry_budget: 2,
        heartbeat_timeout: Duration::from_secs(30),
        poll_interval: Duration::from_millis(10),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(20),
    };
    let mut attempts = [0usize; 4];
    let mut events: Vec<ShardEvent> = Vec::new();
    let run = train_sharded(
        &train,
        &plan,
        &cfg,
        &RunBudget::unlimited(),
        &base,
        4,
        &opts,
        &mut |k, _remaining| {
            let attempt = attempts[k];
            attempts[k] += 1;
            let mut env = faults.worker_env(k);
            if k == 2 && attempt == 0 {
                env.push((ENV_SHARD_ABORT_AFTER, "1".to_string()));
            }
            spawn_worker(&base, k, 4, DATA, &env)
        },
        &mut |e| events.push(e.clone()),
    )
    .unwrap();

    // The crash-looper burned its retries with the injected exit code and
    // was reclaimed in-process, never having journaled a thing.
    assert!(events.contains(&ShardEvent::Exhausted { shard: 1 }), "{events:?}");
    assert!(
        events.iter().any(|e| matches!(
            e,
            ShardEvent::Exited { shard: 1, code: Some(c), .. } if *c == CRASHLOOP_EXIT_CODE
        )),
        "crashloop exit code not observed: {events:?}"
    );
    assert_eq!(run.stats[1].restarts, 2);
    assert_eq!(run.stats[1].worker_records, 0);
    assert_eq!(run.stats[1].reclaimed, run.stats[1].planned);

    // The killed worker died by signal with its shard incomplete; its
    // restarted successor resumed from the journal and finished — no
    // reclaim, exactly one restart.
    assert!(
        events.iter().any(|e| matches!(
            e,
            ShardEvent::Exited { shard: 2, code: None, complete: false }
        )),
        "mid-run kill not observed: {events:?}"
    );
    assert_eq!(run.stats[2].restarts, 1, "{events:?}");
    assert_eq!(run.stats[2].worker_records, run.stats[2].planned);
    assert_eq!(run.stats[2].reclaimed, 0);

    // Healthy shards ran once, no restarts.
    for k in [0usize, 3] {
        assert_eq!(run.stats[k].restarts, 0, "shard {k}: {events:?}");
        assert_eq!(run.stats[k].worker_records, run.stats[k].planned);
    }
    assert_eq!(run.model.shard_restarts(), &[0, 2, 1, 0]);

    // No target lost or double-counted across the shard journals.
    let mut seen: Vec<usize> = Vec::new();
    for k in 0..4 {
        let path = shard_journal_path(&base, k, 4);
        if let Ok(scan) = RunJournal::scan(&path) {
            seen.extend(scan.records.iter().map(|r| r.target));
        }
    }
    seen.sort_unstable();
    let expected: Vec<usize> = (0..plan.n_targets()).collect();
    assert_eq!(seen, expected, "duplicated or missing targets in the shard journals");

    assert!(run.report.health.is_clean(), "{}", run.report.health.summary());
    assert_bitwise_eq(&reference_ns, &run.model.score(&test), "4-shard faulted run");
}

/// SIGKILL at *every* record boundary: each worker attempt is aborted as
/// soon as its journal grows by one record, so the run only advances one
/// durable target per process death. Resume-from-journal must carry it to
/// a complete, bit-identical model without refitting finished targets.
#[test]
fn a_worker_killed_at_every_record_boundary_still_converges_bitwise() {
    const DATA: (usize, usize, u64) = (24, 6, 9);
    let (train, test) = cohort(DATA.0, DATA.1, DATA.2);
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("boundary-kills");
    let base = dir.join("run.frj");

    let (reference, _) = FracModel::fit(&train, &plan, &cfg);
    let journal_path = shard_journal_path(&base, 0, 1);

    let opts = ShardOptions {
        retry_budget: plan.n_targets() + 2,
        heartbeat_timeout: Duration::from_secs(30),
        poll_interval: Duration::from_millis(10),
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
    };
    let mut events: Vec<ShardEvent> = Vec::new();
    let run = train_sharded(
        &train,
        &plan,
        &cfg,
        &RunBudget::unlimited(),
        &base,
        1,
        &opts,
        &mut |k, _remaining| {
            // Abort each attempt one record past what the journal already
            // holds — death at the very next record boundary.
            let done = RunJournal::scan(&journal_path).map_or(0, |s| s.records.len());
            let env = [(ENV_SHARD_ABORT_AFTER, (done + 1).to_string())];
            spawn_worker(&base, k, 1, DATA, &env)
        },
        &mut |e| events.push(e.clone()),
    )
    .unwrap();

    let signal_deaths = events
        .iter()
        .filter(|e| matches!(e, ShardEvent::Exited { code: None, .. }))
        .count();
    assert!(
        signal_deaths >= 2,
        "expected repeated kills at record boundaries: {events:?}"
    );
    assert!(run.stats[0].restarts >= 1, "{events:?}");
    assert_eq!(run.stats[0].reclaimed, 0, "workers alone must finish the shard");

    // Monotone progress, no duplicates: the journal holds each target once.
    let scan = RunJournal::scan(&journal_path).unwrap();
    let mut targets: Vec<usize> = scan.records.iter().map(|r| r.target).collect();
    targets.sort_unstable();
    assert_eq!(targets, (0..plan.n_targets()).collect::<Vec<_>>());

    assert!(run.report.health.is_clean(), "{}", run.report.health.summary());
    assert_bitwise_eq(
        &reference.score(&test),
        &run.model.score(&test),
        "record-boundary kill loop",
    );
}

/// A shard journal truncated mid-record (a torn write at the moment of
/// death) loses only its torn tail: resume drops the partial record,
/// reclaims that one target, and the merge is still bit-identical.
#[test]
fn truncated_shard_journal_reclaims_the_torn_tail_bitwise() {
    let (train, test) = cohort(24, 8, 13);
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("torn-tail");
    let base = dir.join("run.frj");

    let (reference, _) = FracModel::fit(&train, &plan, &cfg);
    for k in 0..2 {
        worker_run(&train, &plan, &cfg, &RunBudget::unlimited(), &base, k, 2).unwrap();
    }

    // Cut shard 1 in the middle of its final record.
    let path = shard_journal_path(&base, 1, 2);
    let scan = RunJournal::scan(&path).unwrap();
    let ends = &scan.record_ends;
    assert!(ends.len() >= 2);
    let cut = (ends[ends.len() - 2] + ends[ends.len() - 1]) / 2;
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..cut as usize]).unwrap();

    let mut events: Vec<ShardEvent> = Vec::new();
    let run = resume_shards(
        &train,
        &plan,
        &cfg,
        &RunBudget::unlimited(),
        &base,
        2,
        &mut |e| events.push(e.clone()),
    )
    .unwrap();
    assert!(
        events.contains(&ShardEvent::Reclaiming { shard: 1, remaining: 1 }),
        "{events:?}"
    );
    assert_eq!(run.stats[1].reclaimed, 1);
    assert!(run.report.health.is_clean());
    assert_bitwise_eq(
        &reference.score(&test),
        &run.model.score(&test),
        "mid-record shard truncation",
    );
}

/// Foreign shard journals are refused per shard with the named-hash
/// mismatch detail — even when every journal is complete and the reclaim
/// phase (whose own open would catch it) never runs.
#[test]
fn resuming_foreign_shard_journals_is_refused_per_shard() {
    let (train, _) = cohort(24, 8, 5);
    let plan = TrainingPlan::full(train.n_features());
    let cfg = strict_config();
    let dir = temp_dir("foreign");
    let base = dir.join("run.frj");
    for k in 0..2 {
        worker_run(&train, &plan, &cfg, &RunBudget::unlimited(), &base, k, 2).unwrap();
    }

    let other = strict_config().with_seed(99);
    match resume_shards(
        &train,
        &plan,
        &other,
        &RunBudget::unlimited(),
        &base,
        2,
        &mut |_| {},
    ) {
        Err(ShardError::Journal { shard, source: JournalError::Mismatch(detail), .. }) => {
            assert_eq!(shard, 0, "the first foreign shard is named");
            assert!(detail.contains("config hash"), "{detail}");
        }
        Err(e) => panic!("expected a per-shard mismatch, got {e}"),
        Ok(_) => panic!("expected a per-shard mismatch, got a model"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merging shard journals produced in any order, for any shard count,
    /// is bitwise identical to the single-process run — the merge depends
    /// only on the records, never on who wrote them when. Fast SVR too:
    /// every shard builds the same shared Gram matrix, and at 7 shards each
    /// worker fits one target whose own column its pool lacks, so G must
    /// still cover that column for its Q to equal the full-plan downdate.
    #[test]
    fn merging_any_shard_count_in_any_order_is_bitwise_identical(
        n_shards in prop_oneof![Just(1usize), Just(2), Just(3), Just(7)],
        perm_seed in any::<u64>(),
    ) {
        let (train, test) = cohort(24, 6, 33);
        let plan = TrainingPlan::full(train.n_features());
        for (name, cfg) in [
            ("strict", strict_config()),
            ("fast", FracConfig::default().with_seed(11)),
        ] {
            let dir = temp_dir(&format!("merge-{n_shards}-{perm_seed:x}-{name}"));
            let base = dir.join("run.frj");

            let (reference, _) = FracModel::fit(&train, &plan, &cfg);
            let reference_ns = reference.score(&test);

            // Produce the shard journals in a shuffled order.
            let mut order: Vec<usize> = (0..n_shards).collect();
            order.shuffle(&mut StdRng::seed_from_u64(perm_seed));
            for k in order {
                worker_run(&train, &plan, &cfg, &RunBudget::unlimited(), &base, k, n_shards)
                    .unwrap();
            }

            let mut events: Vec<ShardEvent> = Vec::new();
            let run = resume_shards(
                &train, &plan, &cfg, &RunBudget::unlimited(), &base, n_shards,
                &mut |e| events.push(e.clone()),
            ).unwrap();
            prop_assert!(events.is_empty(), "complete journals must not reclaim: {events:?}");
            prop_assert!(run.report.health.is_clean());
            prop_assert_eq!(
                run.journal_health.targets_planned, plan.n_targets(),
                "worker-phase health covers the whole plan"
            );
            let ns = run.model.score(&test);
            for (x, y) in reference_ns.iter().zip(&ns) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "{} shards, {}", n_shards, name);
            }
        }
    }
}
