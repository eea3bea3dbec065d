//! Run telemetry: hierarchical spans, counters, and per-run reports.
//!
//! A FRaC run is a fleet of hundreds of independent per-target fits, so
//! aggregate wall clock hides per-target pathologies (one SNP burning its
//! whole epoch budget, one CV fold dominating a member). This module
//! records *where time goes* as a tree of **spans** — run → target →
//! stage (encode / CV fold / solve / tree-grow / error-model / score) —
//! plus monotonic **counters**, drained into a [`TelemetryReport`] at the
//! end of the run.
//!
//! ## Recorder architecture
//!
//! Probes are free when no session is active: [`span`] and [`counter_add`]
//! check one relaxed atomic load and return inert guards. When a
//! [`TelemetrySession`] is active, each thread records into a
//! **thread-local** buffer (no locks, no atomics on the hot path); the
//! buffer is flushed — only when the thread's span stack returns to depth
//! zero, far off the solver inner loops — into a *per-thread* sink behind
//! an uncontended mutex, registered once per session in a global registry
//! that [`TelemetrySession::finish`] drains. Span identity is
//! `(thread id << 40) | sequence`, so ids are unique without coordination,
//! and every span records its parent (the enclosing span on the same
//! thread), which makes the tree reconstructible and its well-nestedness
//! testable.
//!
//! Spans never touch the model arithmetic — no seeds, no floats — so a
//! telemetry-enabled fit is bit-identical to a disabled one (property
//! tested in `frac-core`).
//!
//! ## Sessions
//!
//! At most one session is active per process at a time (the same
//! convention as [`crate::solver::stats`], which the report folds in as a
//! delta): [`TelemetrySession::start`] returns `None` while another
//! session is live. Concurrent *untraced* runs are unaffected — they see
//! the disabled fast path... unless they overlap a traced run, in which
//! case their spans are attributed to the traced session; trace one run
//! at a time.

use crate::solver::stats::{self, SolverStats};
use std::fmt;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The stage a span measures. One taxonomy for the whole workspace: core's
/// fit loop opens `Encode`/`Quarantine`/`Entropy`/`ErrorModel`/
/// `FinalTrain`/`JournalAppend`/`Score`, this crate's solvers and tree
/// growers open `Solve`/`TreeGrow`, and the CV driver opens `CvFold`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Building the shared encoded-feature pool from the training set.
    Encode,
    /// Screening + sanitizing the dataset before anything hits a solver.
    Quarantine,
    /// Per-target baseline entropy `H(f_i)` estimation.
    Entropy,
    /// One cross-validation fold: train on k−1 folds, predict the holdout.
    CvFold,
    /// The final full-data predictor training after CV.
    FinalTrain,
    /// Fitting the Gaussian / confusion error model from OOF pairs.
    ErrorModel,
    /// One dual coordinate-descent solve (SVR fit, or one SVC class).
    Solve,
    /// One decision-tree growth (classification or regression).
    TreeGrow,
    /// Serializing a finished target's write-ahead journal record.
    JournalAppend,
    /// Scoring one feature's NS contributions over a test set.
    Score,
    /// One admitted batch scored by the serving daemon (decode → encode
    /// pool → NS accumulation → replies).
    ServeBatch,
}

impl Stage {
    /// Every stage, in taxonomy order (report rendering).
    pub const ALL: [Stage; 11] = [
        Stage::Encode,
        Stage::Quarantine,
        Stage::Entropy,
        Stage::CvFold,
        Stage::FinalTrain,
        Stage::ErrorModel,
        Stage::Solve,
        Stage::TreeGrow,
        Stage::JournalAppend,
        Stage::Score,
        Stage::ServeBatch,
    ];

    /// Stable serialization name (TSV / JSON field).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Encode => "encode",
            Stage::Quarantine => "quarantine",
            Stage::Entropy => "entropy",
            Stage::CvFold => "cv_fold",
            Stage::FinalTrain => "final_train",
            Stage::ErrorModel => "error_model",
            Stage::Solve => "solve",
            Stage::TreeGrow => "tree_grow",
            Stage::JournalAppend => "journal_append",
            Stage::Score => "score",
            Stage::ServeBatch => "serve_batch",
        }
    }

    /// Inverse of [`Stage::as_str`].
    pub fn parse(s: &str) -> Option<Stage> {
        Stage::ALL.iter().copied().find(|st| st.as_str() == s)
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A monotonic counter. Counters are batched thread-locally and flushed
/// with the span buffer, so bumping one costs an array add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Coordinate-descent epochs completed (SVR + SVC, all solves).
    SolverEpochs,
    /// Dual coordinates visited (gradient evaluated).
    SolverVisits,
    /// Decision-tree nodes grown (splits + leaves).
    TreeNodes,
    /// Bytes of journal record bodies serialized.
    JournalBytes,
    /// Cells encoded into the shared design pool.
    EncodedCells,
    /// Bitmask of kernel tiers the session's fits used
    /// ([`frac_dataset::kernels::describe_mask`] names the bits). Unlike
    /// the other counters this is a label, not a volume: it merges by
    /// bitwise OR (see [`Counter::merge`]), so repeated fits on one tier
    /// leave a single bit set and mixed strict/fast configs set one bit
    /// per tier actually used.
    KernelTier,
    /// Bitmask of fast-solver execution strategies the session's solves
    /// used ([`crate::solver::describe_strategy_mask`] names the bits:
    /// primal and gram). A label counter like [`Counter::KernelTier`]:
    /// merges by bitwise OR.
    SolverStrategy,
    /// Records admitted by the scoring daemon (parsed and queued; the
    /// denominator for the shed/quarantine/timeout rates below).
    ServeRequests,
    /// Requests refused with a `busy` reply because the admission queue
    /// was full (explicit load shedding instead of unbounded buffering).
    ServeShed,
    /// Malformed records refused with a per-line error reply (the
    /// connection and the rest of the batch survive).
    ServeQuarantined,
    /// Admitted requests whose deadline expired before scoring (answered
    /// with a timeout error, never scored).
    ServeTimeouts,
    /// Row × block cells that classification-tree count passes added up:
    /// full and directly counted roots, rows left out of a derived root,
    /// and counted smaller children.
    TreeCountCells,
}

/// Number of [`Counter`] variants (report array size).
pub const N_COUNTERS: usize = 12;

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::SolverEpochs,
        Counter::SolverVisits,
        Counter::TreeNodes,
        Counter::JournalBytes,
        Counter::EncodedCells,
        Counter::KernelTier,
        Counter::SolverStrategy,
        Counter::ServeRequests,
        Counter::ServeShed,
        Counter::ServeQuarantined,
        Counter::ServeTimeouts,
        Counter::TreeCountCells,
    ];

    /// Stable serialization name.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::SolverEpochs => "solver_epochs",
            Counter::SolverVisits => "solver_visits",
            Counter::TreeNodes => "tree_nodes",
            Counter::JournalBytes => "journal_bytes",
            Counter::EncodedCells => "encoded_cells",
            Counter::KernelTier => "kernel_tier",
            Counter::SolverStrategy => "solver_strategy",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeShed => "serve_shed",
            Counter::ServeQuarantined => "serve_quarantined",
            Counter::ServeTimeouts => "serve_timeouts",
            Counter::TreeCountCells => "tree_count_cells",
        }
    }

    /// Inverse of [`Counter::as_str`].
    pub fn parse(s: &str) -> Option<Counter> {
        Counter::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    fn index(self) -> usize {
        match self {
            Counter::SolverEpochs => 0,
            Counter::SolverVisits => 1,
            Counter::TreeNodes => 2,
            Counter::JournalBytes => 3,
            Counter::EncodedCells => 4,
            Counter::KernelTier => 5,
            Counter::SolverStrategy => 6,
            Counter::ServeRequests => 7,
            Counter::ServeShed => 8,
            Counter::ServeQuarantined => 9,
            Counter::ServeTimeouts => 10,
            Counter::TreeCountCells => 11,
        }
    }

    /// Combine an accumulated value with a new contribution: addition for
    /// volume counters, bitwise OR for the [`Counter::KernelTier`] and
    /// [`Counter::SolverStrategy`] label masks. Used on every accumulation
    /// boundary (thread-local add, sink flush, final drain) so the
    /// semantics hold end to end.
    pub fn merge(self, acc: u64, v: u64) -> u64 {
        match self {
            Counter::KernelTier | Counter::SolverStrategy => acc | v,
            _ => acc + v,
        }
    }
}

/// One closed span: a stage interval on one thread, with its parent link.
///
/// `parent == 0` marks a root span (no enclosing span on its thread).
/// `target` is the feature index the span's thread was fitting or scoring
/// (−1 outside any target). Times are nanoseconds relative to session
/// start, from one monotonic clock — so for spans of the same thread,
/// `start_ns + dur_ns` of a child never exceeds its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id: `(thread + 1) << 40 | per-thread sequence`.
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for roots.
    pub parent: u64,
    /// Recorder-assigned thread index (not an OS tid).
    pub thread: u32,
    /// Target feature being fitted/scored, −1 when none.
    pub target: i64,
    /// What the span measures.
    pub stage: Stage,
    /// Nanoseconds from session start to span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Aggregate over all spans of one stage (see
/// [`TelemetryReport::stage_totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTotal {
    /// The stage aggregated.
    pub stage: Stage,
    /// Number of spans.
    pub count: u64,
    /// Summed duration (ns). Nested spans of the *same* stage both count.
    pub total_ns: u64,
    /// Longest single span (ns).
    pub max_ns: u64,
}

/// Number of log₂-nanosecond buckets in a duration histogram.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The drained output of one telemetry session: every span, the counter
/// totals, the [`SolverStats`] delta over the session, the session wall
/// clock, and free-form annotations (the CLI folds the run's
/// `RunHealth` summary in here, completing the unification of the three
/// pre-existing instrumentation channels).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Every closed span, grouped by recording thread (drain order).
    pub spans: Vec<SpanRecord>,
    /// Counter totals, indexed as [`Counter::ALL`].
    pub counters: [u64; N_COUNTERS],
    /// Solver-stats delta (snapshot at finish minus snapshot at start).
    pub solver: SolverStats,
    /// Session wall clock, nanoseconds.
    pub wall_ns: u64,
    /// Free-form `(key, value)` annotations, e.g. `("health", …)`.
    pub notes: Vec<(String, String)>,
}

impl TelemetryReport {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Per-stage aggregates, taxonomy order, stages with spans only.
    pub fn stage_totals(&self) -> Vec<StageTotal> {
        let mut out = Vec::new();
        for stage in Stage::ALL {
            let mut t = StageTotal { stage, count: 0, total_ns: 0, max_ns: 0 };
            for s in self.spans.iter().filter(|s| s.stage == stage) {
                t.count += 1;
                t.total_ns += s.dur_ns;
                t.max_ns = t.max_ns.max(s.dur_ns);
            }
            if t.count > 0 {
                out.push(t);
            }
        }
        out
    }

    /// Total nanoseconds attributed to each target: the sum of its *root*
    /// spans (nested spans are already inside their parents), ascending by
    /// target.
    pub fn target_totals(&self) -> Vec<(usize, u64)> {
        let mut totals = std::collections::BTreeMap::new();
        for s in &self.spans {
            if s.parent == 0 && s.target >= 0 {
                *totals.entry(s.target as usize).or_insert(0u64) += s.dur_ns;
            }
        }
        totals.into_iter().collect()
    }

    /// The `k` slowest targets, descending by total time (ties by lower
    /// target index first — deterministic output).
    pub fn slowest_targets(&self, k: usize) -> Vec<(usize, u64)> {
        let mut totals = self.target_totals();
        totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        totals.truncate(k);
        totals
    }

    /// Log₂-nanosecond duration histogram for one stage: bucket `b` counts
    /// spans with `dur_ns` in `[2^b, 2^(b+1))` (bucket 0 also takes 0 ns).
    /// Computed at report time — the hot path never touches histograms.
    pub fn histogram(&self, stage: Stage) -> [u64; HISTOGRAM_BUCKETS] {
        let mut h = [0u64; HISTOGRAM_BUCKETS];
        for s in self.spans.iter().filter(|s| s.stage == stage) {
            let b = (64 - s.dur_ns.leading_zeros() as usize)
                .saturating_sub(1)
                .min(HISTOGRAM_BUCKETS - 1);
            h[b] += 1;
        }
        h
    }

    /// Serialize as self-describing TSV (`# frac telemetry v1`): one
    /// record per line, led by a record-type tag. The exact inverse of
    /// [`TelemetryReport::parse_tsv`].
    pub fn write_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str("# frac telemetry v1\n");
        out.push_str("# span\tid\tparent\tthread\ttarget\tstage\tstart_ns\tdur_ns\n");
        out.push_str(&format!("wall\t{}\n", self.wall_ns));
        out.push_str(&format!(
            "solver\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            self.solver.solves,
            self.solver.epochs,
            self.solver.visits,
            self.solver.dense_slots,
            self.solver.gram_solves,
            self.solver.gram_builds,
            self.solver.pack_reuses
        ));
        for c in Counter::ALL {
            out.push_str(&format!("counter\t{}\t{}\n", c.as_str(), self.counter(c)));
        }
        for (k, v) in &self.notes {
            out.push_str(&format!("note\t{}\t{}\n", sanitize_field(k), sanitize_field(v)));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.id, s.parent, s.thread, s.target, s.stage, s.start_ns, s.dur_ns
            ));
        }
        out
    }

    /// Parse a report previously produced by [`TelemetryReport::write_tsv`].
    pub fn parse_tsv(text: &str) -> Result<TelemetryReport, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(l) if l.starts_with("# frac telemetry v1") => {}
            other => {
                return Err(format!(
                    "not a frac telemetry file (first line {:?}, expected `# frac telemetry v1`)",
                    other.unwrap_or("")
                ))
            }
        }
        let mut report = TelemetryReport::default();
        for (lineno, line) in lines.enumerate() {
            let lineno = lineno + 2;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let parse_u64 = |s: &str, what: &str| {
                s.parse::<u64>().map_err(|_| format!("line {lineno}: bad {what} `{s}`"))
            };
            match fields[0] {
                "wall" => {
                    let v = fields.get(1).ok_or(format!("line {lineno}: truncated wall"))?;
                    report.wall_ns = parse_u64(v, "wall_ns")?;
                }
                "solver" => {
                    // 5 fields is the pre-gram layout; absent fields stay 0.
                    if fields.len() != 5 && fields.len() != 8 {
                        return Err(format!("line {lineno}: solver wants 4 or 7 fields"));
                    }
                    report.solver = SolverStats {
                        solves: parse_u64(fields[1], "solves")?,
                        epochs: parse_u64(fields[2], "epochs")?,
                        visits: parse_u64(fields[3], "visits")?,
                        dense_slots: parse_u64(fields[4], "dense_slots")?,
                        ..SolverStats::default()
                    };
                    if fields.len() == 8 {
                        report.solver.gram_solves = parse_u64(fields[5], "gram_solves")?;
                        report.solver.gram_builds = parse_u64(fields[6], "gram_builds")?;
                        report.solver.pack_reuses = parse_u64(fields[7], "pack_reuses")?;
                    }
                }
                "counter" => {
                    if fields.len() != 3 {
                        return Err(format!("line {lineno}: counter wants 2 fields"));
                    }
                    let c = Counter::parse(fields[1])
                        .ok_or(format!("line {lineno}: unknown counter `{}`", fields[1]))?;
                    report.counters[c.index()] = parse_u64(fields[2], "counter value")?;
                }
                "note" => {
                    if fields.len() != 3 {
                        return Err(format!("line {lineno}: note wants 2 fields"));
                    }
                    report.notes.push((fields[1].to_string(), fields[2].to_string()));
                }
                "span" => {
                    if fields.len() != 8 {
                        return Err(format!("line {lineno}: span wants 7 fields"));
                    }
                    report.spans.push(SpanRecord {
                        id: parse_u64(fields[1], "id")?,
                        parent: parse_u64(fields[2], "parent")?,
                        thread: parse_u64(fields[3], "thread")? as u32,
                        target: fields[4]
                            .parse::<i64>()
                            .map_err(|_| format!("line {lineno}: bad target `{}`", fields[4]))?,
                        stage: Stage::parse(fields[5])
                            .ok_or(format!("line {lineno}: unknown stage `{}`", fields[5]))?,
                        start_ns: parse_u64(fields[6], "start_ns")?,
                        dur_ns: parse_u64(fields[7], "dur_ns")?,
                    });
                }
                other => return Err(format!("line {lineno}: unknown record type `{other}`")),
            }
        }
        Ok(report)
    }

    /// Serialize as JSON (write-only; `inspect-telemetry` reads the TSV
    /// form). Spans are included in full, so the file round-trips through
    /// generic JSON tooling.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"wall_ns\": {},\n", self.wall_ns));
        out.push_str(&format!(
            "  \"solver\": {{\"solves\": {}, \"epochs\": {}, \"visits\": {}, \"dense_slots\": {}, \
             \"gram_solves\": {}, \"gram_builds\": {}, \"pack_reuses\": {}}},\n",
            self.solver.solves,
            self.solver.epochs,
            self.solver.visits,
            self.solver.dense_slots,
            self.solver.gram_solves,
            self.solver.gram_builds,
            self.solver.pack_reuses
        ));
        out.push_str("  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", c.as_str(), self.counter(*c)));
        }
        out.push_str("},\n  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)));
        }
        out.push_str("},\n  \"stage_totals\": {");
        for (i, t) in self.stage_totals().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                t.stage, t.count, t.total_ns, t.max_ns
            ));
        }
        out.push_str("},\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"parent\": {}, \"thread\": {}, \"target\": {}, \
                 \"stage\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}{}\n",
                s.id,
                s.parent,
                s.thread,
                s.target,
                s.stage,
                s.start_ns,
                s.dur_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// TSV fields are tab/newline-delimited; squash those characters in
/// free-form note text so the record framing survives.
fn sanitize_field(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

mod recorder {
    use super::*;

    /// Is a session live? One relaxed load — the entire disabled-path cost
    /// of every probe.
    pub static ENABLED: AtomicBool = AtomicBool::new(false);
    /// Session generation; stale thread-local state is detected by stamp.
    pub static SESSION: AtomicU64 = AtomicU64::new(0);
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

    /// One thread's drained records. Each recording thread registers its
    /// own sink in [`Global::sinks`] and flushes into it through an
    /// (uncontended) per-thread mutex — worker threads never share a hot
    /// lock; only the final drain in `finish()` ever takes a sink's mutex
    /// from another thread.
    pub struct Sink {
        pub spans: Vec<SpanRecord>,
        pub counters: [u64; N_COUNTERS],
    }

    /// Process-global session state: the time base plus the registry of
    /// per-thread sinks to drain at `finish()`.
    pub struct Global {
        pub session: u64,
        pub base: Instant,
        pub sinks: Vec<Arc<Mutex<Sink>>>,
    }

    pub static GLOBAL: Mutex<Option<Global>> = Mutex::new(None);

    /// Lock the global sink, absorbing poisoning (a panicking fit thread
    /// must not take telemetry down with it).
    pub fn lock_global() -> std::sync::MutexGuard<'static, Option<Global>> {
        GLOBAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Per-thread recorder state. `session` stamps validity; everything
    /// resets lazily when a new session starts.
    pub struct ThreadRec {
        pub session: u64,
        pub thread: u32,
        pub seq: u64,
        pub base: Option<Instant>,
        pub sink: Option<Arc<Mutex<Sink>>>,
        pub stack: Vec<u64>,
        pub buf: Vec<SpanRecord>,
        pub counters: [u64; N_COUNTERS],
        pub target: i64,
    }

    thread_local! {
        /// This thread's recorder. A resident pool thread keeps it across
        /// parallel calls and sessions, which cannot carry a record into a
        /// later session: [`refresh`] re-stamps it whenever the session
        /// generation moved, dropping its buffer, span stack, counters and
        /// target and registering a fresh sink, and a span that closes
        /// after its session ended is discarded. Within a session a pool
        /// item's spans open and close inside the item, and its caller
        /// waits for every item, so a worker's stack is empty and its
        /// buffer flushed between calls.
        pub static REC: RefCell<ThreadRec> = const {
            RefCell::new(ThreadRec {
                session: 0,
                thread: 0,
                seq: 0,
                base: None,
                sink: None,
                stack: Vec::new(),
                buf: Vec::new(),
                counters: [0; N_COUNTERS],
                target: -1,
            })
        };
    }

    /// Refresh `rec` for the current session: on a stale stamp, drop
    /// leftovers and re-read the session base; assign a thread id on first
    /// use per session. Returns `false` when no session is live (or the
    /// sink is gone), in which case the probe must go inert.
    pub fn refresh(rec: &mut ThreadRec) -> bool {
        let session = SESSION.load(Ordering::Acquire);
        if rec.session != session {
            // One global-lock touch per thread per session: read the time
            // base and register this thread's sink for the final drain.
            let (base, sink) = {
                let mut global = lock_global();
                match global.as_mut() {
                    Some(g) if g.session == session => {
                        let sink = Arc::new(Mutex::new(Sink {
                            spans: Vec::new(),
                            counters: [0; N_COUNTERS],
                        }));
                        g.sinks.push(Arc::clone(&sink));
                        (g.base, sink)
                    }
                    _ => return false,
                }
            };
            *rec = ThreadRec {
                session,
                thread: (NEXT_THREAD.fetch_add(1, Ordering::Relaxed) + 1) as u32,
                seq: 0,
                base: Some(base),
                sink: Some(sink),
                stack: Vec::new(),
                buf: Vec::new(),
                counters: [0; N_COUNTERS],
                target: -1,
            };
        }
        rec.base.is_some()
    }

    /// Drain this thread's buffer and counters into its registered sink.
    /// The sink was created for `rec.session` (the two are set together in
    /// [`refresh`]); if the session ended meanwhile the sink is already
    /// orphaned and the records die with it, which is the intent.
    pub fn flush(rec: &mut ThreadRec) {
        if rec.buf.is_empty() && rec.counters.iter().all(|&c| c == 0) {
            return;
        }
        if let Some(sink) = &rec.sink {
            let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
            sink.spans.append(&mut rec.buf);
            for (c, (sc, rc)) in Counter::ALL.iter().zip(sink.counters.iter_mut().zip(&rec.counters))
            {
                *sc = c.merge(*sc, *rc);
            }
        }
        rec.buf.clear();
        rec.counters = [0; N_COUNTERS];
    }
}

/// Whether a telemetry session is currently active.
pub fn enabled() -> bool {
    recorder::ENABLED.load(Ordering::Relaxed)
}

/// An open span; closing (dropping) it records the [`SpanRecord`]. Inert
/// when no session is active. Must be dropped on the thread that opened
/// it (automatic for lexically scoped guards).
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    session: u64,
    id: u64,
    parent: u64,
    stage: Stage,
    target: i64,
    start: Instant,
    start_ns: u64,
}

/// Open a span for `stage` on the current thread. The span nests under
/// the thread's innermost open span and inherits the current
/// [`target_guard`] target.
pub fn span(stage: Stage) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    recorder::REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        if !recorder::refresh(&mut rec) {
            return SpanGuard { open: None };
        }
        rec.seq += 1;
        let id = ((rec.thread as u64) << 40) | rec.seq;
        let parent = rec.stack.last().copied().unwrap_or(0);
        rec.stack.push(id);
        let start = Instant::now();
        let base = rec.base.unwrap_or(start);
        SpanGuard {
            open: Some(OpenSpan {
                session: rec.session,
                id,
                parent,
                stage,
                target: rec.target,
                start,
                start_ns: start.duration_since(base).as_nanos() as u64,
            }),
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        recorder::REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            if rec.session != open.session {
                return; // session ended while the span was open
            }
            // Pop through to our id — tolerate a child leaked by a panic.
            while let Some(top) = rec.stack.pop() {
                if top == open.id {
                    break;
                }
            }
            let thread = rec.thread;
            rec.buf.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                thread,
                target: open.target,
                stage: open.stage,
                start_ns: open.start_ns,
                dur_ns,
            });
            if rec.stack.is_empty() {
                recorder::flush(&mut rec);
            }
        });
    }
}

/// Marks the current thread as fitting/scoring `target` until dropped;
/// spans opened meanwhile are attributed to it. Nestable (restores the
/// previous target on drop).
#[must_use = "target attribution lasts while the guard lives"]
pub struct TargetGuard {
    prev: Option<(u64, i64)>,
}

/// Attribute subsequent spans on this thread to `target`.
pub fn target_guard(target: usize) -> TargetGuard {
    if !enabled() {
        return TargetGuard { prev: None };
    }
    recorder::REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        if !recorder::refresh(&mut rec) {
            return TargetGuard { prev: None };
        }
        let prev = rec.target;
        rec.target = target as i64;
        TargetGuard { prev: Some((rec.session, prev)) }
    })
}

impl Drop for TargetGuard {
    fn drop(&mut self) {
        let Some((session, prev)) = self.prev.take() else { return };
        recorder::REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            if rec.session == session {
                rec.target = prev;
            }
        });
    }
}

/// Add `n` to a counter. A thread-local array add when a session is
/// active; one relaxed load otherwise.
pub fn counter_add(counter: Counter, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    recorder::REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        if recorder::refresh(&mut rec) {
            let i = counter.index();
            rec.counters[i] = counter.merge(rec.counters[i], n);
            // A counter bumped outside any span (e.g. encode cells on
            // the pool thread) must not strand in the thread-local
            // array if no span ever flushes it.
            if rec.stack.is_empty() {
                recorder::flush(&mut rec);
            }
        }
    });
}

/// An active telemetry session. Obtain with [`TelemetrySession::start`],
/// drain with [`TelemetrySession::finish`]; dropping without finishing
/// just disables recording and discards the data.
pub struct TelemetrySession {
    start_instant: Instant,
    solver_start: SolverStats,
    finished: bool,
}

impl TelemetrySession {
    /// Start recording. Returns `None` if another session is already
    /// active in this process.
    pub fn start() -> Option<TelemetrySession> {
        if recorder::ENABLED.swap(true, Ordering::SeqCst) {
            return None;
        }
        let base = Instant::now();
        let session = recorder::SESSION.fetch_add(1, Ordering::SeqCst) + 1;
        *recorder::lock_global() = Some(recorder::Global { session, base, sinks: Vec::new() });
        Some(TelemetrySession {
            start_instant: base,
            solver_start: stats::snapshot(),
            finished: false,
        })
    }

    /// Stop recording and drain everything into a [`TelemetryReport`].
    pub fn finish(mut self) -> TelemetryReport {
        self.finished = true;
        let wall_ns = self.start_instant.elapsed().as_nanos() as u64;
        let after = stats::snapshot();
        let solver = SolverStats {
            solves: after.solves.wrapping_sub(self.solver_start.solves),
            epochs: after.epochs.wrapping_sub(self.solver_start.epochs),
            visits: after.visits.wrapping_sub(self.solver_start.visits),
            dense_slots: after.dense_slots.wrapping_sub(self.solver_start.dense_slots),
            gram_solves: after.gram_solves.wrapping_sub(self.solver_start.gram_solves),
            gram_builds: after.gram_builds.wrapping_sub(self.solver_start.gram_builds),
            pack_reuses: after.pack_reuses.wrapping_sub(self.solver_start.pack_reuses),
        };
        recorder::ENABLED.store(false, Ordering::SeqCst);
        let drained = recorder::lock_global().take();
        let mut spans = Vec::new();
        let mut counters = [0u64; N_COUNTERS];
        if let Some(g) = drained {
            for sink in g.sinks {
                let mut s = sink.lock().unwrap_or_else(|p| p.into_inner());
                spans.append(&mut s.spans);
                for (c, (acc, sc)) in Counter::ALL.iter().zip(counters.iter_mut().zip(&s.counters))
                {
                    *acc = c.merge(*acc, *sc);
                }
            }
        }
        TelemetryReport { spans, counters, solver, wall_ns, notes: Vec::new() }
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        recorder::ENABLED.store(false, Ordering::SeqCst);
        recorder::lock_global().take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probes are no-ops without a session. The session tests, which
    /// count spans exactly, run in their own test binary
    /// (`tests/telemetry_session.rs`): tree, solver and CV tests here emit
    /// spans into whatever session is live.
    #[test]
    fn probes_are_inert_without_a_session() {
        assert!(!enabled());
        let g = span(Stage::Solve);
        counter_add(Counter::SolverVisits, 10);
        drop(g);
    }

    #[test]
    fn tsv_round_trips() {
        let report = TelemetryReport {
            spans: vec![
                SpanRecord {
                    id: (1 << 40) | 1,
                    parent: 0,
                    thread: 1,
                    target: -1,
                    stage: Stage::Encode,
                    start_ns: 10,
                    dur_ns: 500,
                },
                SpanRecord {
                    id: (1 << 40) | 2,
                    parent: (1 << 40) | 1,
                    thread: 1,
                    target: 3,
                    stage: Stage::Solve,
                    start_ns: 20,
                    dur_ns: 100,
                },
            ],
            counters: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
            solver: SolverStats {
                solves: 9,
                epochs: 8,
                visits: 7,
                dense_slots: 6,
                gram_solves: 5,
                gram_builds: 4,
                pack_reuses: 3,
            },
            wall_ns: 12345,
            notes: vec![("health".into(), "all 4 targets fitted cleanly".into())],
        };
        let tsv = report.write_tsv();
        let parsed = TelemetryReport::parse_tsv(&tsv).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TelemetryReport::parse_tsv("hello\n").is_err());
        assert!(TelemetryReport::parse_tsv("# frac telemetry v1\nbogus\tx\n").is_err());
        assert!(TelemetryReport::parse_tsv("# frac telemetry v1\nspan\t1\t2\n").is_err());
        assert!(TelemetryReport::parse_tsv(
            "# frac telemetry v1\ncounter\tnot_a_counter\t4\n"
        )
        .is_err());
    }

    #[test]
    fn parse_accepts_legacy_solver_line() {
        let parsed =
            TelemetryReport::parse_tsv("# frac telemetry v1\nsolver\t1\t2\t3\t4\n").unwrap();
        assert_eq!(
            (parsed.solver.solves, parsed.solver.epochs, parsed.solver.visits),
            (1, 2, 3)
        );
        assert_eq!(
            (parsed.solver.gram_solves, parsed.solver.gram_builds, parsed.solver.pack_reuses),
            (0, 0, 0)
        );
    }

    #[test]
    fn notes_with_tabs_survive_framing() {
        let report = TelemetryReport {
            notes: vec![("k".into(), "a\tb\nc".into())],
            ..TelemetryReport::default()
        };
        let parsed = TelemetryReport::parse_tsv(&report.write_tsv()).unwrap();
        assert_eq!(parsed.notes, vec![("k".to_string(), "a b c".to_string())]);
    }

    #[test]
    fn aggregates_and_histogram() {
        let mk = |id: u64, parent: u64, target: i64, stage: Stage, dur: u64| SpanRecord {
            id,
            parent,
            thread: 1,
            target,
            stage,
            start_ns: 0,
            dur_ns: dur,
        };
        let report = TelemetryReport {
            spans: vec![
                mk(1, 0, 0, Stage::CvFold, 100),
                mk(2, 1, 0, Stage::Solve, 60),
                mk(3, 0, 1, Stage::CvFold, 300),
                mk(4, 0, 1, Stage::FinalTrain, 50),
            ],
            ..TelemetryReport::default()
        };
        let totals = report.stage_totals();
        let cv = totals.iter().find(|t| t.stage == Stage::CvFold).unwrap();
        assert_eq!((cv.count, cv.total_ns, cv.max_ns), (2, 400, 300));
        // Root spans only: target 0 = 100 (the nested solve is inside),
        // target 1 = 350.
        assert_eq!(report.target_totals(), vec![(0, 100), (1, 350)]);
        assert_eq!(report.slowest_targets(1), vec![(1, 350)]);
        let h = report.histogram(Stage::CvFold);
        assert_eq!(h[6], 1); // 100 ns → bucket 6 (64..128)
        assert_eq!(h[8], 1); // 300 ns → bucket 8 (256..512)
        assert_eq!(h.iter().sum::<u64>(), 2);
    }

    #[test]
    fn json_renders_without_panicking() {
        let report = TelemetryReport {
            notes: vec![("quote".into(), "a \"b\"".into())],
            ..TelemetryReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"wall_ns\""));
        assert!(json.contains("\\\"b\\\""));
    }

    #[test]
    fn stage_and_counter_names_round_trip() {
        for s in Stage::ALL {
            assert_eq!(Stage::parse(s.as_str()), Some(s));
        }
        for c in Counter::ALL {
            assert_eq!(Counter::parse(c.as_str()), Some(c));
        }
        assert_eq!(Stage::parse("nope"), None);
    }
}
