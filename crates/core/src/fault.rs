//! Deterministic fault injection for the fit/score pipeline.
//!
//! The fault-isolation guarantees of [`crate::FracModel`] — no panic escapes
//! `fit`/`score`, NS scores stay finite, every degradation lands in
//! [`crate::RunHealth`] — are only guarantees if they are exercised. A
//! [`FaultPlan`] is a seeded injector that (a) poisons dataset cells with
//! NaN/±Inf, (b) forces solver non-convergence at chosen targets, and
//! (c) triggers panics at chosen targets, all deterministically, so the
//! fault-injection test suite replays the exact same disaster every run.
//!
//! An empty plan ([`FaultPlan::none`]) injects nothing and leaves the fit
//! pipeline on its bit-identical clean path.

use frac_dataset::dataset::MISSING_CODE;
use frac_dataset::split::derive_seed;
use frac_dataset::{Column, Dataset};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// A deterministic plan of injected faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for cell poisoning; all randomness derives from it.
    pub seed: u64,
    /// Fraction of cells [`FaultPlan::poison`] corrupts (0 disables).
    pub poison_fraction: f64,
    /// Targets whose first fit attempt is forced to report non-convergence,
    /// exercising the strict-solver retry rung.
    pub diverge_targets: BTreeSet<usize>,
    /// Targets whose fit attempt is forced to panic, exercising the
    /// `catch_unwind` + baseline-substitution rung.
    pub panic_targets: BTreeSet<usize>,
    /// Shards whose worker process exits nonzero immediately at startup,
    /// every attempt — a crash-looping worker. Exercises the supervisor's
    /// retry/backoff and shard-reclaim paths (see [`crate::shard`]).
    pub crashloop_shards: BTreeSet<usize>,
    /// Per-shard record budgets: the worker for shard `k` aborts (as if
    /// SIGKILLed) once its shard journal holds at least `abort_after[k]`
    /// records. Exercises mid-run worker death at a record boundary.
    pub abort_after_records: std::collections::BTreeMap<usize, usize>,
}

/// The panic payload used for injected panics, so tests (and humans reading
/// a health report) can tell an injected panic from a real one.
pub const INJECTED_PANIC: &str = "injected fault: trainer panic";

/// Environment variable that makes a shard worker exit nonzero at startup
/// (crash-loop injection). Set per worker by the supervisor's fault harness;
/// honored by [`crate::shard::apply_worker_faults_from_env`].
pub const ENV_SHARD_CRASHLOOP: &str = "FRAC_SHARD_CRASHLOOP";

/// Environment variable holding a record count after which a shard worker
/// aborts (simulated SIGKILL at a record boundary). Set per worker by the
/// supervisor's fault harness; honored by
/// [`crate::shard::apply_worker_faults_from_env`].
pub const ENV_SHARD_ABORT_AFTER: &str = "FRAC_SHARD_ABORT_AFTER";

/// Process-global abort-after state: whether a budget is armed, and how
/// many more journal records this process may append before it aborts.
/// Armed once at worker startup by
/// [`crate::shard::apply_worker_faults_from_env`], consumed by the journal
/// write path, so the injected death lands deterministically at a record
/// boundary. (An earlier timer-based watcher lost the race against a
/// worker fast enough to finish its whole sub-plan between polls.)
static ABORT_ARMED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);
static ABORT_REMAINING: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// Arm the abort-after fault: the process aborts — `abort()`, not
/// `exit()`: no atexit handlers, no unwinding, the closest in-process
/// stand-in for SIGKILL — at the record boundary that brings its journal
/// to the configured count. `remaining` is how many more records may be
/// appended; 0 aborts on the spot (the journal already holds enough).
pub(crate) fn arm_abort_after_records(remaining: usize) {
    use std::sync::atomic::Ordering;
    if remaining == 0 {
        std::process::abort();
    }
    ABORT_REMAINING.store(remaining, Ordering::SeqCst);
    ABORT_ARMED.store(true, Ordering::SeqCst);
}

/// How many more records the journal may write before the armed
/// abort-after fault fires; `usize::MAX` when none is armed. The journal
/// cuts a batch at this count, so the worker dies at exactly its record
/// budget instead of after a whole batch.
pub(crate) fn journal_records_allowed() -> usize {
    use std::sync::atomic::Ordering;
    if !ABORT_ARMED.load(Ordering::Relaxed) {
        return usize::MAX;
    }
    ABORT_REMAINING.load(Ordering::SeqCst)
}

/// Journal hook for the armed abort-after fault: `n` records were just
/// written. Aborts once the armed budget is consumed; a no-op (one relaxed
/// load) in every process that never armed a fault.
pub(crate) fn note_journal_records_appended(n: usize) {
    use std::sync::atomic::Ordering;
    if n == 0 || !ABORT_ARMED.load(Ordering::Relaxed) {
        return;
    }
    let update = ABORT_REMAINING
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| Some(v.saturating_sub(n)));
    if let Ok(prev) = update {
        if prev <= n {
            std::process::abort();
        }
    }
}

/// The exit code of a crash-looping worker, distinct from ordinary failures
/// so supervisor tests can assert on the injected cause.
pub const CRASHLOOP_EXIT_CODE: i32 = 101;

impl FaultPlan {
    /// The empty plan: injects nothing; `fit` stays on the clean path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with the given seed and no faults yet (builder style).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Poison this fraction of cells in [`FaultPlan::poison`].
    pub fn with_poison(mut self, fraction: f64) -> Self {
        self.poison_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Force non-convergence of the first fit attempt at these targets.
    pub fn with_diverge_at(mut self, targets: impl IntoIterator<Item = usize>) -> Self {
        self.diverge_targets.extend(targets);
        self
    }

    /// Force a panic inside the fit attempt at these targets.
    pub fn with_panic_at(mut self, targets: impl IntoIterator<Item = usize>) -> Self {
        self.panic_targets.extend(targets);
        self
    }

    /// Make the worker for these shards crash-loop (exit nonzero at startup
    /// on every attempt).
    pub fn with_crashloop_at(mut self, shards: impl IntoIterator<Item = usize>) -> Self {
        self.crashloop_shards.extend(shards);
        self
    }

    /// Make the worker for `shard` abort once its journal holds `records`
    /// completed records — a simulated SIGKILL at that record boundary.
    pub fn with_abort_after(mut self, shard: usize, records: usize) -> Self {
        self.abort_after_records.insert(shard, records);
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.poison_fraction == 0.0
            && self.diverge_targets.is_empty()
            && self.panic_targets.is_empty()
            && self.crashloop_shards.is_empty()
            && self.abort_after_records.is_empty()
    }

    /// The environment variables the supervisor must set on the worker for
    /// `shard` so the worker enacts this plan's process-level faults
    /// (crash-loop / abort-after). Empty when the shard is unaffected.
    pub fn worker_env(&self, shard: usize) -> Vec<(&'static str, String)> {
        let mut env = Vec::new();
        if self.crashloop_shards.contains(&shard) {
            env.push((ENV_SHARD_CRASHLOOP, "1".to_string()));
        }
        if let Some(&n) = self.abort_after_records.get(&shard) {
            env.push((ENV_SHARD_ABORT_AFTER, n.to_string()));
        }
        env
    }

    /// Does this plan force the first fit attempt at `target` to diverge?
    pub fn forces_diverge(&self, target: usize) -> bool {
        self.diverge_targets.contains(&target)
    }

    /// Does this plan force a panic while fitting `target`?
    pub fn forces_panic(&self, target: usize) -> bool {
        self.panic_targets.contains(&target)
    }

    /// A copy of `data` with `poison_fraction` of its cells corrupted:
    /// real cells become NaN / `+Inf` / `−Inf` (cycling), categorical cells
    /// become missing. Deterministic in `(seed, data shape)`.
    pub fn poison(&self, data: &Dataset) -> Dataset {
        if self.poison_fraction <= 0.0 {
            return data.clone();
        }
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, 0xBAD));
        let mut n_poisoned = 0usize;
        let columns = (0..data.n_features())
            .map(|j| match data.column(j) {
                Column::Real(v) => Column::Real(
                    v.iter()
                        .map(|&x| {
                            if rng.random::<f64>() < self.poison_fraction {
                                n_poisoned += 1;
                                match n_poisoned % 3 {
                                    0 => f64::NAN,
                                    1 => f64::INFINITY,
                                    _ => f64::NEG_INFINITY,
                                }
                            } else {
                                x
                            }
                        })
                        .collect(),
                ),
                Column::Categorical { arity, codes } => Column::Categorical {
                    arity: *arity,
                    codes: codes
                        .iter()
                        .map(|&c| {
                            if rng.random::<f64>() < self.poison_fraction {
                                MISSING_CODE
                            } else {
                                c
                            }
                        })
                        .collect(),
                },
            })
            .collect();
        Dataset::new(data.schema().clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::dataset::DatasetBuilder;

    fn data() -> Dataset {
        DatasetBuilder::new()
            .real("a", (0..200).map(|i| i as f64).collect())
            .categorical("b", 3, (0..200).map(|i| (i % 3) as u32).collect())
            .build()
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.forces_diverge(0));
        assert!(!p.forces_panic(0));
        assert_eq!(p.poison(&data()), data());
    }

    #[test]
    fn builders_register_targets() {
        let p = FaultPlan::seeded(7).with_diverge_at([1, 3]).with_panic_at([2]);
        assert!(!p.is_empty());
        assert!(p.forces_diverge(1) && p.forces_diverge(3) && !p.forces_diverge(2));
        assert!(p.forces_panic(2) && !p.forces_panic(1));
    }

    #[test]
    fn process_faults_register_and_encode_as_worker_env() {
        let p = FaultPlan::none().with_crashloop_at([1]).with_abort_after(0, 3);
        assert!(!p.is_empty());
        assert_eq!(p.worker_env(1), vec![(ENV_SHARD_CRASHLOOP, "1".to_string())]);
        assert_eq!(p.worker_env(0), vec![(ENV_SHARD_ABORT_AFTER, "3".to_string())]);
        assert!(p.worker_env(2).is_empty());
    }

    #[test]
    fn poison_is_deterministic_and_hits_roughly_the_fraction() {
        let p = FaultPlan::seeded(42).with_poison(0.2);
        let a = p.poison(&data());
        let b = p.poison(&data());
        // NaN != NaN, so determinism is checked on bit patterns.
        let bits = |d: &Dataset| -> Vec<u64> {
            d.column(0).as_real().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed must poison identically");
        assert_eq!(a.column(1), b.column(1));

        let real = a.column(0).as_real().unwrap();
        let bad = real.iter().filter(|x| !x.is_finite()).count();
        assert!((20..=60).contains(&bad), "poisoned {bad}/200 real cells");
        let codes = a.column(1).as_categorical().unwrap();
        let missing = codes.iter().filter(|&&c| c == MISSING_CODE).count();
        assert!((20..=60).contains(&missing), "poisoned {missing}/200 codes");
    }

    #[test]
    fn different_seeds_poison_differently() {
        let d = data();
        let a = FaultPlan::seeded(1).with_poison(0.3).poison(&d);
        let b = FaultPlan::seeded(2).with_poison(0.3).poison(&d);
        let bits = |d: &Dataset| -> Vec<u64> {
            d.column(0).as_real().unwrap().iter().map(|x| x.to_bits()).collect()
        };
        assert_ne!(bits(&a), bits(&b));
    }

    #[test]
    fn poison_cycles_all_three_poisons() {
        let d = data();
        let a = FaultPlan::seeded(9).with_poison(0.5).poison(&d);
        let real = a.column(0).as_real().unwrap();
        assert!(real.iter().any(|x| x.is_nan()));
        assert!(real.contains(&f64::INFINITY));
        assert!(real.contains(&f64::NEG_INFINITY));
    }
}
