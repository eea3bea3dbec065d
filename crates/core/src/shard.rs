//! Sharded multi-process training: supervisor, workers, and bit-identical
//! journal merge (DESIGN.md §14).
//!
//! The write-ahead journal ([`crate::journal`]) makes a completed target a
//! durable unit of work, so scaling the per-feature fleet across *processes*
//! reduces to bookkeeping: partition the training plan into N deterministic
//! shards ([`shard_plan`]), give each worker process its own journal
//! ([`shard_journal_path`]), and reassemble. Because per-member seeds derive
//! only from `(config, target, member)` — never from schedule — a model
//! assembled from N shard journals is bit-identical to a single-process run
//! by construction; the merge is one pooled `FracModel` fit over the full
//! plan with every shard record preloaded, the same path a single-process
//! resume takes.
//!
//! The hard part is surviving worker death, and that is the supervisor's
//! job ([`train_sharded`]): it watches workers through exit codes and
//! journal-growth heartbeats, restarts the dead and the stalled with capped
//! exponential backoff (each restart *resumes* from the shard journal, so a
//! completed target is never refit), and when a shard's retry budget is
//! exhausted it reclaims the remaining targets in-process under the
//! baseline-rescue ladder. The run therefore always ends with a scored
//! model and honest [`RunHealth`] accounting, no matter how workers die.
//!
//! Process-level fault injection (crash-looping workers, aborts at record
//! boundaries) rides on [`crate::fault::FaultPlan`]; workers enact it via
//! [`apply_worker_faults_from_env`].

use crate::config::FracConfig;
use crate::health::RunHealth;
use crate::journal::{self, JournalError, RunJournal, TargetRecord};
use crate::model::{FracModel, JournaledFit};
use crate::plan::TrainingPlan;
use crate::resources::ResourceReport;
use frac_dataset::Dataset;
use frac_learn::RunBudget;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

/// Supervisor tuning knobs. The defaults suit real worker processes; tests
/// shrink every interval to keep fault scenarios fast.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOptions {
    /// Restarts allowed per shard before its remaining targets are
    /// reclaimed in-process.
    pub retry_budget: usize,
    /// A worker whose shard journal has not grown for this long is
    /// presumed wedged, killed, and restarted. Must comfortably exceed the
    /// slowest single-target fit, or healthy workers get shot.
    pub heartbeat_timeout: Duration,
    /// Supervisor poll cadence (child status + journal length).
    pub poll_interval: Duration,
    /// First restart delay; doubles per restart.
    pub backoff_base: Duration,
    /// Upper bound on the restart delay.
    pub backoff_cap: Duration,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            retry_budget: 3,
            heartbeat_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(50),
            backoff_base: Duration::from_millis(250),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// What went wrong in a sharded run, with the shard pinned so a message
/// like "shard 2 of 4" points at the offending journal file.
#[derive(Debug)]
pub enum ShardError {
    /// A shard's journal could not be opened, scanned, or appended. Wraps
    /// the underlying [`JournalError`] — including the named-hash
    /// `Mismatch` detail for foreign journals.
    Journal {
        /// Shard index.
        shard: usize,
        /// The shard journal involved.
        path: PathBuf,
        /// The journal-level failure.
        source: JournalError,
    },
    /// The journals handed to a multi-journal resume do not form one
    /// coherent shard set (mixed shard counts, different base names, a
    /// non-shard file among shard journals, …).
    BadShardSet(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Journal { shard, path, source } => {
                write!(f, "shard {shard} ({}): {source}", path.display())
            }
            ShardError::BadShardSet(detail) => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Supervisor lifecycle notifications, delivered to the caller's event
/// callback in deterministic order per shard. The CLI prints them; tests
/// assert on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardEvent {
    /// A worker process was (re)started. `attempt` 0 is the first spawn.
    Spawned {
        /// Shard index.
        shard: usize,
        /// 0 for the first spawn, k for the k-th restart.
        attempt: usize,
    },
    /// A worker exited. `complete` means its journal now covers every
    /// target of its shard; an incomplete exit 0 (deadline-limited worker)
    /// is not a failure — the remainder goes to reclaim.
    Exited {
        /// Shard index.
        shard: usize,
        /// Process exit code; `None` when killed by a signal.
        code: Option<i32>,
        /// Whether the shard journal covers all the shard's targets.
        complete: bool,
    },
    /// A worker's journal stopped growing past the heartbeat timeout; the
    /// worker was killed and will be restarted.
    Stalled {
        /// Shard index.
        shard: usize,
    },
    /// Restart scheduled after `delay` (capped exponential backoff).
    Backoff {
        /// Shard index.
        shard: usize,
        /// How long the supervisor waits before respawning.
        delay: Duration,
    },
    /// The retry budget is spent; no more workers for this shard.
    Exhausted {
        /// Shard index.
        shard: usize,
    },
    /// The supervisor is finishing `remaining` targets of this shard
    /// in-process under the baseline-rescue ladder.
    Reclaiming {
        /// Shard index.
        shard: usize,
        /// Targets not yet covered by the shard journal.
        remaining: usize,
    },
}

impl std::fmt::Display for ShardEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardEvent::Spawned { shard, attempt: 0 } => {
                write!(f, "shard {shard}: worker started")
            }
            ShardEvent::Spawned { shard, attempt } => {
                write!(f, "shard {shard}: worker restarted (attempt {attempt})")
            }
            ShardEvent::Exited { shard, code, complete: true } => {
                write!(f, "shard {shard}: worker finished (exit {})", code_str(*code))
            }
            ShardEvent::Exited { shard, code, complete: false } => {
                write!(
                    f,
                    "shard {shard}: worker exited incomplete (exit {})",
                    code_str(*code)
                )
            }
            ShardEvent::Stalled { shard } => {
                write!(f, "shard {shard}: worker stalled (no journal growth); killed")
            }
            ShardEvent::Backoff { shard, delay } => {
                write!(f, "shard {shard}: restarting in {delay:?}")
            }
            ShardEvent::Exhausted { shard } => {
                write!(f, "shard {shard}: retry budget exhausted")
            }
            ShardEvent::Reclaiming { shard, remaining } => {
                write!(f, "shard {shard}: reclaiming {remaining} target(s) in-process")
            }
        }
    }
}

fn code_str(code: Option<i32>) -> String {
    code.map_or_else(|| "signal".to_string(), |c| c.to_string())
}

/// Per-shard outcome accounting of a sharded run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStat {
    /// Targets this shard was responsible for.
    pub planned: usize,
    /// Worker restarts (0 = the first spawn sufficed).
    pub restarts: usize,
    /// Targets covered by the shard journal when the worker phase ended.
    pub worker_records: usize,
    /// Targets the supervisor finished in-process after the worker phase.
    pub reclaimed: usize,
}

/// The outcome of [`train_sharded`] / [`resume_shards`]: the merged model
/// plus per-shard accounting.
pub struct ShardRun {
    /// The merged model, bit-identical to a single-process run.
    pub model: FracModel,
    /// Resource/health report of the merged fit (authoritative health).
    pub report: ResourceReport,
    /// Per-shard accounting, indexed by shard.
    pub stats: Vec<ShardStat>,
    /// Health as recorded in the shard journals, merged across shards via
    /// [`RunHealth::merge`] — the worker-phase view, before any
    /// deadline-degraded in-process completions.
    pub journal_health: RunHealth,
}

/// Partition `plan` into `n_shards` deterministic sub-plans, round-robin by
/// plan position (position `i` goes to shard `i % n_shards`) so shards are
/// load-balanced even when a plan orders targets by cost. The union of the
/// sub-plans is exactly `plan`, orders preserved; when `n_shards` exceeds
/// the target count the tail shards are empty.
///
/// # Panics
/// Panics if `n_shards` is zero.
pub fn shard_plan(plan: &TrainingPlan, n_shards: usize) -> Vec<TrainingPlan> {
    assert!(n_shards >= 1, "a sharded run needs at least one shard");
    let mut shards = vec![TrainingPlan { targets: Vec::new() }; n_shards];
    for (i, tp) in plan.targets.iter().enumerate() {
        shards[i % n_shards].targets.push(tp.clone());
    }
    shards
}

/// The journal path of shard `shard` of `n_shards`, derived from the base
/// journal path: `run.frj` → `run.frj.s2-4`. The suffix is parseable
/// ([`parse_shard_suffix`]) so a directory of shard journals can be
/// resumed without knowing the original command line.
pub fn shard_journal_path(base: &Path, shard: usize, n_shards: usize) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".s{shard}-{n_shards}"));
    PathBuf::from(name)
}

/// Recover `(base, shard, n_shards)` from a shard journal path produced by
/// [`shard_journal_path`]; `None` for paths without a well-formed
/// `.s<k>-<n>` suffix (including `k >= n`).
pub fn parse_shard_suffix(path: &Path) -> Option<(PathBuf, usize, usize)> {
    let name = path.file_name()?.to_str()?;
    let dot = name.rfind(".s")?;
    let (k, n) = name[dot + 2..].split_once('-')?;
    if k.is_empty() || n.is_empty() || !k.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let (k, n) = (k.parse::<usize>().ok()?, n.parse::<usize>().ok()?);
    if k >= n {
        return None;
    }
    Some((path.with_file_name(&name[..dot]), k, n))
}

/// Expand the `--journal` arguments of a resume: a directory expands to
/// the shard journals inside it (sorted by shard index), a plain file
/// passes through. Produces the flat path list [`shard_set`] validates.
pub fn expand_journal_paths(paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            let mut found: Vec<(usize, PathBuf)> = Vec::new();
            for entry in std::fs::read_dir(p)? {
                let path = entry?.path();
                if let Some((_, k, _)) = parse_shard_suffix(&path) {
                    found.push((k, path));
                }
            }
            found.sort();
            out.extend(found.into_iter().map(|(_, path)| path));
        } else {
            out.push(p.clone());
        }
    }
    Ok(out)
}

/// Interpret a list of journal paths as one coherent shard set: every path
/// must carry a `.s<k>-<n>` suffix, agree on the base name and on `n`.
/// Returns `(base, n_shards)`. `Ok(None)` when *no* path has a shard
/// suffix (the caller's single-journal case); a mixed or contradictory set
/// is a [`ShardError::BadShardSet`].
pub fn shard_set(paths: &[PathBuf]) -> Result<Option<(PathBuf, usize)>, ShardError> {
    let mut set: Option<(PathBuf, usize)> = None;
    let mut plain = 0usize;
    for p in paths {
        match parse_shard_suffix(p) {
            None => plain += 1,
            Some((base, _, n)) => match &set {
                None => set = Some((base, n)),
                Some((b, m)) => {
                    if *b != base || *m != n {
                        return Err(ShardError::BadShardSet(format!(
                            "{} belongs to a different shard set than {} \
                             (expected {} journals of base {})",
                            p.display(),
                            shard_journal_path(b, 0, *m).display(),
                            m,
                            b.display(),
                        )));
                    }
                }
            },
        }
    }
    match (&set, plain) {
        (None, _) => Ok(None),
        (Some(_), 0) => Ok(set),
        (Some((base, _)), _) => Err(ShardError::BadShardSet(format!(
            "cannot mix shard journals of base {} with plain journals",
            base.display()
        ))),
    }
}

/// Restart delay before attempt `attempt` (1-based for restarts): capped
/// exponential backoff `min(base · 2^(attempt−1), cap)`.
pub fn backoff_delay(attempt: usize, base: Duration, cap: Duration) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(20) as u32;
    base.saturating_mul(factor).min(cap)
}

/// Run one worker's share of a sharded fit: shard `shard` of `n_shards` of
/// `plan`, journaled into [`shard_journal_path`]`(base_journal, ..)`.
/// Resumes from an existing shard journal (foreign journals are refused
/// with the named-hash mismatch detail) and fits the missing targets under
/// the usual budget and fallback ladder.
///
/// Both the `--shard-worker` CLI mode and the supervisor's in-process
/// reclaim path run exactly this, so a reclaimed shard journals its
/// targets the same way a healthy worker would.
///
/// # Panics
/// Panics if `shard >= n_shards` or `n_shards` is zero.
pub fn worker_run(
    train: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    budget: &RunBudget,
    base_journal: &Path,
    shard: usize,
    n_shards: usize,
) -> Result<JournaledFit, ShardError> {
    assert!(shard < n_shards, "shard index out of range");
    let sub = shard_plan(plan, n_shards).swap_remove(shard);
    let path = shard_journal_path(base_journal, shard, n_shards);
    FracModel::fit_journaled(train, &sub, config, budget, &path)
        .map_err(|source| ShardError::Journal { shard, path, source })
}

/// Enact process-level injected faults in a worker process, per the
/// environment protocol of [`crate::fault::FaultPlan::worker_env`]:
///
/// - [`crate::fault::ENV_SHARD_CRASHLOOP`] set → exit immediately with
///   [`crate::fault::CRASHLOOP_EXIT_CODE`] (a crash-looping worker).
/// - [`crate::fault::ENV_SHARD_ABORT_AFTER`]` = n` → arm an abort budget
///   consumed by the journal write path: the process aborts (as SIGKILL
///   would) at the exact record boundary that brings the worker's shard
///   journal to ≥ n records. Deterministic — a worker cannot outrun it no
///   matter how fast its fits finish.
///
/// Call once at worker startup with the worker's shard journal path. A
/// no-op when neither variable is set.
pub fn apply_worker_faults_from_env(shard_journal: &Path) {
    if std::env::var_os(crate::fault::ENV_SHARD_CRASHLOOP).is_some() {
        std::process::exit(crate::fault::CRASHLOOP_EXIT_CODE);
    }
    let after = std::env::var(crate::fault::ENV_SHARD_ABORT_AFTER)
        .ok()
        .and_then(|v| v.parse::<usize>().ok());
    if let Some(n) = after {
        let existing = RunJournal::scan(shard_journal).map_or(0, |scan| scan.records.len());
        crate::fault::arm_abort_after_records(n.saturating_sub(existing));
    }
}

/// Worker process lifecycle, from the supervisor's point of view.
enum WorkerState {
    /// Ready to (re)spawn; `attempt` counts prior failures.
    Idle { attempt: usize },
    /// A live child, with the journal-growth heartbeat watermark.
    Running { child: Child, attempt: usize, last_len: u64, last_growth: Instant },
    /// Waiting out the restart backoff.
    Backoff { until: Instant, attempt: usize },
    /// No further worker activity (finished, or retries exhausted).
    Settled,
}

/// The targets a shard journal already covers. A missing file is an empty
/// set (the worker never got that far); anything else unreadable is a
/// shard-scoped error.
fn done_targets(path: &Path, shard: usize) -> Result<BTreeSet<usize>, ShardError> {
    match RunJournal::scan(path) {
        Ok(scan) => Ok(scan.records.iter().map(|r| r.target).collect()),
        Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(BTreeSet::new())
        }
        Err(source) => {
            Err(ShardError::Journal { shard, path: path.to_path_buf(), source })
        }
    }
}

/// Train `plan` across `n_shards` worker processes with supervision, then
/// merge the shard journals into one model bit-identical to a
/// single-process run.
///
/// `spawn` starts the worker for a shard — the CLI re-invokes its own
/// binary in `--shard-worker` mode; tests substitute scripted processes.
/// Its second argument is the remaining wall-clock budget to forward
/// (deadlines don't cross process boundaries as instants, but a duration
/// re-anchored at worker startup does). `on_event` observes the
/// supervisor's decisions; see [`ShardEvent`].
///
/// Worker failures (nonzero exit, death by signal, a stalled heartbeat, a
/// failed spawn) are retried with capped exponential backoff up to
/// `opts.retry_budget` restarts per shard; each restart resumes from the
/// shard journal, so completed targets are never refit. A shard whose
/// retries are exhausted — and any targets a deadline-limited worker left
/// behind — is finished in-process under the baseline-rescue ladder before
/// the merge, so the run always yields a complete scored model.
///
/// # Panics
/// Panics if `n_shards` is zero.
#[allow(clippy::too_many_arguments)]
pub fn train_sharded(
    train: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    budget: &RunBudget,
    base_journal: &Path,
    n_shards: usize,
    opts: &ShardOptions,
    spawn: &mut dyn FnMut(usize, Option<Duration>) -> std::io::Result<Child>,
    on_event: &mut dyn FnMut(&ShardEvent),
) -> Result<ShardRun, ShardError> {
    let subs = shard_plan(plan, n_shards);
    let paths: Vec<PathBuf> =
        (0..n_shards).map(|k| shard_journal_path(base_journal, k, n_shards)).collect();
    let targets: Vec<BTreeSet<usize>> = subs
        .iter()
        .map(|s| s.targets.iter().map(|tp| tp.target).collect())
        .collect();
    let mut stats: Vec<ShardStat> = subs
        .iter()
        .map(|s| ShardStat { planned: s.n_targets(), ..ShardStat::default() })
        .collect();
    let mut states: Vec<WorkerState> =
        (0..n_shards).map(|_| WorkerState::Idle { attempt: 0 }).collect();

    // One failure transition for every way a worker dies: count the
    // attempt, back off, or give the shard up to the reclaim phase.
    let fail = |k: usize,
                attempt: usize,
                stats: &mut [ShardStat],
                on_event: &mut dyn FnMut(&ShardEvent)|
     -> WorkerState {
        let next = attempt + 1;
        if next > opts.retry_budget {
            on_event(&ShardEvent::Exhausted { shard: k });
            WorkerState::Settled
        } else {
            let delay = backoff_delay(next, opts.backoff_base, opts.backoff_cap);
            stats[k].restarts = next;
            on_event(&ShardEvent::Backoff { shard: k, delay });
            WorkerState::Backoff { until: Instant::now() + delay, attempt: next }
        }
    };

    let mut fatal: Option<ShardError> = None;
    'supervise: loop {
        let mut any_pending = false;
        for k in 0..n_shards {
            let state = std::mem::replace(&mut states[k], WorkerState::Settled);
            states[k] = match state {
                WorkerState::Idle { attempt } => {
                    let done = match done_targets(&paths[k], k) {
                        Ok(done) => done,
                        Err(e) => {
                            fatal = Some(e);
                            break 'supervise;
                        }
                    };
                    if targets[k].is_subset(&done) {
                        // Nothing left for a worker to do (empty shard, or
                        // a completed journal from a previous run).
                        WorkerState::Settled
                    } else if budget.is_expired() {
                        // No wall clock left to supervise with; hand the
                        // remainder straight to the reclaim phase.
                        WorkerState::Settled
                    } else {
                        match spawn(k, budget.remaining()) {
                            Ok(child) => {
                                on_event(&ShardEvent::Spawned { shard: k, attempt });
                                WorkerState::Running {
                                    child,
                                    attempt,
                                    last_len: journal_len(&paths[k]),
                                    last_growth: Instant::now(),
                                }
                            }
                            // A failed exec is a worker failure like any
                            // other: back off and retry, and if the binary
                            // never comes back the reclaim phase still
                            // finishes the run in-process.
                            Err(_) => fail(k, attempt, &mut stats, on_event),
                        }
                    }
                }
                WorkerState::Running { mut child, attempt, last_len, last_growth } => {
                    match child.try_wait() {
                        Ok(Some(status)) => {
                            let done = match done_targets(&paths[k], k) {
                                Ok(done) => done,
                                Err(e) => {
                                    fatal = Some(e);
                                    break 'supervise;
                                }
                            };
                            let complete = targets[k].is_subset(&done);
                            on_event(&ShardEvent::Exited {
                                shard: k,
                                code: status.code(),
                                complete,
                            });
                            if complete || status.success() {
                                // An incomplete exit 0 is a deadline-limited
                                // worker, not a failure; reclaim finishes it.
                                WorkerState::Settled
                            } else {
                                fail(k, attempt, &mut stats, on_event)
                            }
                        }
                        Ok(None) => {
                            let len = journal_len(&paths[k]);
                            if len > last_len {
                                WorkerState::Running {
                                    child,
                                    attempt,
                                    last_len: len,
                                    last_growth: Instant::now(),
                                }
                            } else if last_growth.elapsed() >= opts.heartbeat_timeout {
                                let _ = child.kill();
                                let _ = child.wait();
                                on_event(&ShardEvent::Stalled { shard: k });
                                fail(k, attempt, &mut stats, on_event)
                            } else {
                                WorkerState::Running { child, attempt, last_len, last_growth }
                            }
                        }
                        Err(_) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            fail(k, attempt, &mut stats, on_event)
                        }
                    }
                }
                WorkerState::Backoff { until, attempt } => {
                    if Instant::now() >= until {
                        WorkerState::Idle { attempt }
                    } else {
                        WorkerState::Backoff { until, attempt }
                    }
                }
                WorkerState::Settled => WorkerState::Settled,
            };
            if !matches!(states[k], WorkerState::Settled) {
                any_pending = true;
            }
        }
        if !any_pending {
            break;
        }
        std::thread::sleep(opts.poll_interval);
    }
    // Reap anything still running (only on the fatal path).
    for state in &mut states {
        if let WorkerState::Running { child, .. } = state {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
    if let Some(e) = fatal {
        return Err(e);
    }

    finish_and_merge(train, plan, config, budget, base_journal, n_shards, stats, on_event)
}

/// Resume a sharded run entirely in-process: complete every shard journal
/// of `base_journal` (shards `0..n_shards`), then merge. This is `frac
/// resume` pointed at a directory of per-shard journals — no workers are
/// spawned; missing or partial shards are finished under the ladder, and
/// foreign journals are refused per shard with the named-hash detail.
pub fn resume_shards(
    train: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    budget: &RunBudget,
    base_journal: &Path,
    n_shards: usize,
    on_event: &mut dyn FnMut(&ShardEvent),
) -> Result<ShardRun, ShardError> {
    let stats: Vec<ShardStat> = shard_plan(plan, n_shards)
        .iter()
        .map(|s| ShardStat { planned: s.n_targets(), ..ShardStat::default() })
        .collect();
    finish_and_merge(train, plan, config, budget, base_journal, n_shards, stats, on_event)
}

/// Shared tail of [`train_sharded`] and [`resume_shards`]: finish every
/// incomplete shard in-process (journaled, so the work is durable), then
/// assemble the full-plan model from all shard records. With every target
/// present the pooled fit refits nothing — the assembly, health, and
/// report are those of a single-process run over the same journal records.
#[allow(clippy::too_many_arguments)]
fn finish_and_merge(
    train: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    budget: &RunBudget,
    base_journal: &Path,
    n_shards: usize,
    mut stats: Vec<ShardStat>,
    on_event: &mut dyn FnMut(&ShardEvent),
) -> Result<ShardRun, ShardError> {
    let subs = shard_plan(plan, n_shards);
    for (k, sub) in subs.iter().enumerate() {
        let path = shard_journal_path(base_journal, k, n_shards);
        let done = done_targets(&path, k)?;
        let shard_targets: BTreeSet<usize> =
            sub.targets.iter().map(|tp| tp.target).collect();
        stats[k].worker_records = done.iter().filter(|t| shard_targets.contains(t)).count();
        let remaining = shard_targets.difference(&done).count();
        if remaining > 0 {
            on_event(&ShardEvent::Reclaiming { shard: k, remaining });
            worker_run(train, plan, config, budget, base_journal, k, n_shards)?;
            stats[k].reclaimed = remaining;
        }
    }

    // The merge's encoder table: a shard journal's table must be its
    // shard's slice of it, or its records were fitted under other
    // encoders.
    let run = FracModel::prepare(train, plan, config);
    let mut journal_health = RunHealth::default();
    let mut records: Vec<TargetRecord> = Vec::new();
    for (k, sub) in subs.iter().enumerate() {
        let path = shard_journal_path(base_journal, k, n_shards);
        let scan = match RunJournal::scan(&path) {
            Ok(scan) => scan,
            Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                continue; // empty shard: no journal was ever needed
            }
            Err(source) => return Err(ShardError::Journal { shard: k, path, source }),
        };
        // A complete foreign journal skips the reclaim phase (whose
        // `fit_journaled` would have refused it), so its records must not
        // reach the merge unverified.
        let expected = crate::journal::JournalHeader {
            config_hash: config.content_hash(),
            dataset_fingerprint: train.fingerprint(),
            plan_hash: sub.content_hash(),
            planned: sub.n_targets(),
        };
        if let Some(found) = &scan.header {
            if *found != expected {
                return Err(ShardError::Journal {
                    shard: k,
                    path,
                    source: JournalError::Mismatch(journal::mismatch_detail(
                        found, &expected,
                    )),
                });
            }
        }
        let reads = crate::model::plan_features(sub, train.n_features());
        let shard_pool = run.table().restricted(|j| reads.binary_search(&j).is_ok());
        if let Some(detail) = journal::table_mismatch(&scan, &shard_pool) {
            return Err(ShardError::Journal {
                shard: k,
                path,
                source: JournalError::Mismatch(detail),
            });
        }
        let mut health = RunHealth {
            targets_planned: sub.n_targets(),
            ..RunHealth::default()
        };
        for rec in &scan.records {
            if rec.feature.is_some() {
                health.targets_survived += 1;
            }
            health.events.extend(journal::record_health(rec));
        }
        journal_health.merge(&health);
        records.extend(scan.records);
    }

    let (mut model, report) =
        FracModel::fit_prepared(&run, plan, config, None, None, budget, None, records);
    model.shard_restarts = stats.iter().map(|s| s.restarts).collect();
    Ok(ShardRun { model, report, stats, journal_health })
}

fn journal_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::dataset::DatasetBuilder;
    use std::process::{Command, Stdio};

    fn data() -> Dataset {
        let n = 14usize;
        DatasetBuilder::new()
            .real("a", (0..n).map(|i| i as f64).collect())
            .real("b", (0..n).map(|i| i as f64 * 1.5 + 0.5).collect())
            .real("c", (0..n).map(|i| (i % 5) as f64).collect())
            .real("d", (0..n).map(|i| 3.0 - i as f64 * 0.25).collect())
            .real("e", (0..n).map(|i| (i * i % 7) as f64).collect())
            .build()
    }

    fn temp_base(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("frac-shard-unit-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("run.frj")
    }

    fn fast_opts() -> ShardOptions {
        ShardOptions {
            retry_budget: 2,
            heartbeat_timeout: Duration::from_millis(80),
            poll_interval: Duration::from_millis(5),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        }
    }

    fn sh(script: &str) -> std::io::Result<Child> {
        Command::new("sh")
            .args(["-c", script])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_millis(450);
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(100));
        assert_eq!(backoff_delay(2, base, cap), Duration::from_millis(200));
        assert_eq!(backoff_delay(3, base, cap), Duration::from_millis(400));
        assert_eq!(backoff_delay(4, base, cap), cap);
        assert_eq!(backoff_delay(60, base, cap), cap, "huge attempts saturate");
    }

    #[test]
    fn shard_plan_round_robins_and_preserves_the_union() {
        let plan = TrainingPlan::full(7);
        let shards = shard_plan(&plan, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(
            shards.iter().map(|s| s.n_targets()).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        assert_eq!(
            shards[0].targets.iter().map(|t| t.target).collect::<Vec<_>>(),
            vec![0, 3, 6]
        );
        // Union (re-sorted by target) is exactly the original plan.
        let mut all: Vec<_> =
            shards.iter().flat_map(|s| s.targets.iter().cloned()).collect();
        all.sort_by_key(|t| t.target);
        assert_eq!(all, plan.targets);
        // Sub-plan hashes are all distinct from each other and the full plan.
        let mut hashes: Vec<u64> = shards.iter().map(|s| s.content_hash()).collect();
        hashes.push(plan.content_hash());
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 4);
        // More shards than targets leaves the tail empty but well-formed.
        let wide = shard_plan(&plan, 10);
        assert_eq!(wide.iter().filter(|s| s.n_targets() == 0).count(), 3);
    }

    #[test]
    fn shard_journal_paths_roundtrip() {
        let base = PathBuf::from("/tmp/runs/cohort.frj");
        let p = shard_journal_path(&base, 2, 4);
        assert_eq!(p, PathBuf::from("/tmp/runs/cohort.frj.s2-4"));
        assert_eq!(parse_shard_suffix(&p), Some((base.clone(), 2, 4)));
        // Non-shard names don't parse.
        for bad in ["cohort.frj", "cohort.frj.s4-4", "x.s-3", "x.s1-", "x.sA-2"] {
            assert_eq!(parse_shard_suffix(Path::new(bad)), None, "{bad}");
        }
    }

    #[test]
    fn expand_and_validate_a_shard_directory() {
        let base = temp_base("expand");
        let dir = base.parent().unwrap().to_path_buf();
        for k in [2usize, 0, 1] {
            std::fs::write(shard_journal_path(&base, k, 3), "x").unwrap();
        }
        std::fs::write(dir.join("notes.txt"), "y").unwrap();
        let paths = expand_journal_paths(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(
            paths,
            (0..3).map(|k| shard_journal_path(&base, k, 3)).collect::<Vec<_>>()
        );
        assert_eq!(shard_set(&paths).unwrap(), Some((base.clone(), 3)));
        // A plain file list with no suffixes is "not a shard set".
        assert_eq!(shard_set(&[dir.join("notes.txt")]).unwrap(), None);
        // Mixed shard counts are rejected, as is mixing plain journals in.
        let foreign = shard_journal_path(&base, 0, 5);
        let mut mixed = paths.clone();
        mixed.push(foreign);
        assert!(matches!(shard_set(&mixed), Err(ShardError::BadShardSet(_))));
        let mut with_plain = paths;
        with_plain.push(dir.join("notes.txt"));
        assert!(matches!(shard_set(&with_plain), Err(ShardError::BadShardSet(_))));
    }

    /// Retry/backoff → exhaustion → reclaim, deterministically: every
    /// "worker" exits 7 instantly without touching its journal, so the
    /// supervisor must walk the full ladder and still deliver a model
    /// bitwise-identical to the single-process fit.
    #[test]
    fn crash_looping_workers_exhaust_retries_and_reclaim_in_process() {
        let train = data();
        let plan = TrainingPlan::full(train.n_features());
        let cfg = FracConfig::default().with_seed(3);
        let base = temp_base("crashloop");
        let (reference, _) = FracModel::fit(&train, &plan, &cfg);

        let mut events = Vec::new();
        let run = train_sharded(
            &train,
            &plan,
            &cfg,
            &RunBudget::unlimited(),
            &base,
            2,
            &fast_opts(),
            &mut |_, _| sh("exit 7"),
            &mut |e| events.push(e.clone()),
        )
        .unwrap();

        // Every target came from reclaim; both shards burned their retries.
        for (k, stat) in run.stats.iter().enumerate() {
            assert_eq!(stat.restarts, 2, "shard {k} restarts: {stat:?}");
            assert_eq!(stat.worker_records, 0);
            assert_eq!(stat.reclaimed, stat.planned);
        }
        assert_eq!(run.model.shard_restarts(), &[2, 2]);
        let spawns =
            events.iter().filter(|e| matches!(e, ShardEvent::Spawned { .. })).count();
        assert_eq!(spawns, 6, "1 spawn + 2 restarts per shard: {events:?}");
        for needle in [
            &ShardEvent::Backoff { shard: 0, delay: Duration::from_millis(1) },
            &ShardEvent::Backoff { shard: 0, delay: Duration::from_millis(2) },
            &ShardEvent::Exhausted { shard: 1 },
            &ShardEvent::Reclaiming { shard: 1, remaining: 2 },
        ] {
            assert!(events.contains(needle), "missing {needle:?} in {events:?}");
        }
        assert!(run.report.health.is_clean(), "{}", run.report.health.summary());

        // The merged model is the single-process model, bit for bit.
        let (a, b) = (reference.score(&train), run.model.score(&train));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Heartbeat path: a worker that never writes its journal is stalled,
    /// killed, and restarted; when retries run out the shard is reclaimed.
    #[test]
    fn stalled_workers_are_killed_restarted_and_finally_reclaimed() {
        let train = data();
        let plan = TrainingPlan::full(train.n_features());
        let cfg = FracConfig::default().with_seed(5);
        let base = temp_base("stall");

        let mut events = Vec::new();
        let opts = ShardOptions { retry_budget: 1, ..fast_opts() };
        let run = train_sharded(
            &train,
            &plan,
            &cfg,
            &RunBudget::unlimited(),
            &base,
            1,
            &opts,
            &mut |_, _| sh("sleep 30"),
            &mut |e| events.push(e.clone()),
        )
        .unwrap();

        let stalls =
            events.iter().filter(|e| matches!(e, ShardEvent::Stalled { .. })).count();
        assert_eq!(stalls, 2, "first spawn + one restart, both stall: {events:?}");
        assert!(events.contains(&ShardEvent::Exhausted { shard: 0 }));
        assert_eq!(run.stats[0].restarts, 1);
        assert_eq!(run.stats[0].reclaimed, plan.n_targets());
        assert_eq!(run.model.n_targets(), plan.n_targets());
    }

    /// An expired budget skips workers entirely: the reclaim phase
    /// baseline-degrades every target (honest health) without a single
    /// spawn, and nothing provisional is journaled.
    #[test]
    fn expired_budget_goes_straight_to_reclaim() {
        let train = data();
        let plan = TrainingPlan::full(train.n_features());
        let cfg = FracConfig::default().with_seed(9);
        let base = temp_base("expired");

        let mut spawns = 0usize;
        let run = train_sharded(
            &train,
            &plan,
            &cfg,
            &RunBudget::with_deadline(Duration::ZERO),
            &base,
            3,
            &fast_opts(),
            &mut |_, _| {
                spawns += 1;
                sh("exit 0")
            },
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(spawns, 0, "no wall clock left — no workers");
        assert_eq!(run.report.health.targets_survived, plan.n_targets());
        assert!(run.report.health.n_degraded() >= plan.n_targets());
        for k in 0..3 {
            let path = shard_journal_path(&base, k, 3);
            let n = RunJournal::scan(&path).map_or(0, |s| s.records.len());
            assert_eq!(n, 0, "deadline-degraded targets must not be checkpointed");
        }
    }
}
