//! A fault-tolerant, long-lived scoring daemon (`frac serve`).
//!
//! Precision-medicine scoring is interactive: a clinician submits one
//! expression profile and wants its normalized surprisal *now*, without
//! paying the model-load cost (mapping the file, CRC verification, decoding
//! hundreds of per-target predictors, compiling the scoring plan) on every
//! request. This module keeps one verified
//! [`FracModel`] resident and scores streams of records against it, built
//! around three robustness guarantees:
//!
//! 1. **Admission control, not OOM.** Requests land in a bounded queue
//!    ([`ServeConfig::queue_cap`]); when it is full the daemon answers
//!    `busy <seq>` immediately instead of buffering without limit. Each
//!    admitted request carries a [`RunBudget`] deadline
//!    ([`ServeConfig::request_timeout`]); requests that expire while queued
//!    are answered with a timeout error, never scored late silently.
//! 2. **Per-line quarantine.** A malformed record (bad cell, wrong width,
//!    oversized line, invalid UTF-8) earns an `err <seq> <reason>` reply
//!    naming the offending line; the connection, the surrounding batch, and
//!    the daemon all survive. Quarantine counts surface through
//!    [`ServeHealth`] and the telemetry counter layer.
//! 3. **Hot reload with rollback.** A reload (triggered by `SIGHUP` or the
//!    `cmd reload [PATH]` wire command) loads and validates the new file —
//!    CRC trailer, version, schema compatibility via [`validate_model`],
//!    and compiling its [`ScoringPlan`](crate::ScoringPlan) — entirely off
//!    the scoring path, then atomically swaps the model `Arc`. Any failure
//!    keeps the old model serving.
//!
//! Batches are scored by [`FracModel::score`] through the model's compiled
//! scoring plan — the one path `frac score`, the variants and CSAX use —
//! and the plan is built before a model goes live ([`Server::new`], and
//! every reload before its swap), so no request pays for it. Scoring is
//! row-independent, so serve replies are bit-identical to one-shot scoring.
//! A scoring panic (e.g. a hostile model file that passed validation) is
//! caught per batch: the batch's requests get error replies and the daemon
//! keeps serving.
//!
//! ## Wire protocol
//!
//! Line-oriented, one request per line, over TCP or a stdin/stdout pipe:
//!
//! | input line | meaning |
//! |---|---|
//! | TSV cells (schema order, `?` = missing) | score one record |
//! | `{"gene": 1.5, ...}` (flat JSON object) | score one record by name |
//! | the schema header, or `# ...` | ignored (lets `cat file.tsv` work) |
//! | `cmd ping` | liveness probe |
//! | `cmd stats` | health counters + latency percentiles |
//! | `cmd reload [PATH]` | hot-swap the model (optionally from PATH) |
//! | `cmd stop` | graceful shutdown: drain, then exit |
//!
//! Replies carry the 1-based line number (`seq`) of the request on that
//! connection: `ns <seq> <score>` (scores formatted with `f64`'s shortest
//! round-trip `Display`, so re-parsing reproduces the exact bits),
//! `err <seq> <reason>`, `busy <seq>`, or `ok <seq> <detail>` for commands.

use crate::model::{FracModel, Inputs, PredictorModel};
use frac_dataset::io as dio;
use frac_dataset::{Dataset, FeatureKind, Schema};
use frac_learn::telemetry::{self, Counter, Stage};
use frac_learn::RunBudget;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How often the accept/pipe/scorer loops wake to poll control flags.
const POLL: Duration = Duration::from_millis(20);

/// At most this many per-request latency samples are retained (ring buffer),
/// bounding daemon memory over arbitrarily long uptimes.
const LATENCY_CAP: usize = 65_536;

/// Tuning knobs for one serving daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Most records scored in one batch (one encode pool + NS pass).
    pub batch_max: usize,
    /// Bound on the admission queue; a full queue sheds with `busy`.
    pub queue_cap: usize,
    /// Per-request deadline: a request still queued this long after arrival
    /// is answered with a timeout error instead of being scored.
    pub request_timeout: Duration,
    /// Bound on the post-shutdown drain: queued requests still unscored this
    /// long after shutdown begins are answered with an error and dropped.
    pub drain_timeout: Duration,
    /// Longest accepted input line; longer lines are quarantined unscored.
    pub max_line_bytes: usize,
    /// Artificial delay injected before each batch is scored. Not reachable
    /// from the CLI; exists so overload and deadline tests are deterministic
    /// instead of racing the scorer.
    pub score_delay: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_max: 64,
            queue_cap: 1024,
            request_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            max_line_bytes: 1 << 20,
            score_delay: None,
        }
    }
}

/// Monotonic health counters for one daemon, mirrored into the telemetry
/// counter layer ([`Counter::ServeRequests`] and friends) when a session is
/// active. All loads/stores are relaxed: the counters are statistics, not
/// synchronization.
#[derive(Debug, Default)]
pub struct ServeHealth {
    connections: AtomicU64,
    received: AtomicU64,
    scored: AtomicU64,
    shed: AtomicU64,
    quarantined: AtomicU64,
    timed_out: AtomicU64,
    reloads: AtomicU64,
    reload_failures: AtomicU64,
    score_panics: AtomicU64,
}

impl ServeHealth {
    fn bump(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServeCounts {
        ServeCounts {
            connections: self.connections.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            scored: self.scored.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            score_panics: self.score_panics.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of [`ServeHealth`], in the spirit of `RunHealth`: every way a
/// request can leave the daemon is accounted for, so
/// `received == scored + timed_out + still-queued` at any quiescent point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeCounts {
    /// Connections accepted (a pipe session counts as one).
    pub connections: u64,
    /// Requests admitted to the queue.
    pub received: u64,
    /// Requests scored and answered with `ns`.
    pub scored: u64,
    /// Requests refused with `busy` because the queue was full.
    pub shed: u64,
    /// Lines quarantined (parse error, oversized, invalid UTF-8).
    pub quarantined: u64,
    /// Admitted requests that expired before scoring.
    pub timed_out: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Reloads rolled back (load, CRC, or compatibility failure).
    pub reload_failures: u64,
    /// Batches whose scoring panicked (isolated; daemon survived).
    pub score_panics: u64,
}

impl ServeCounts {
    /// One-line `key=value` rendering for logs, `cmd stats`, and telemetry.
    pub fn summary(&self) -> String {
        format!(
            "connections={} received={} scored={} shed={} quarantined={} \
             timeouts={} reloads={} reload_failures={} score_panics={}",
            self.connections,
            self.received,
            self.scored,
            self.shed,
            self.quarantined,
            self.timed_out,
            self.reloads,
            self.reload_failures,
            self.score_panics
        )
    }
}

/// Final report returned when a daemon exits.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Final health counters.
    pub counts: ServeCounts,
    /// Median request latency (arrival to reply), microseconds; 0 if no
    /// request was scored.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Daemon wall time from start of serving to drain completion.
    pub wall: Duration,
}

impl ServeSummary {
    /// Scored requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.counts.scored as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line rendering for the daemon's exit log.
    pub fn render(&self) -> String {
        format!(
            "{} p50_us={} p99_us={} throughput_rps={:.1} wall_ms={}",
            self.counts.summary(),
            self.p50_us,
            self.p99_us,
            self.throughput_rps(),
            self.wall.as_millis()
        )
    }
}

/// Control handle for a running daemon; safe to use from a signal-watcher
/// thread. Cloning is cheap and every clone controls the same daemon.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Begin graceful shutdown: stop accepting input, drain queued requests
    /// (bounded by [`ServeConfig::drain_timeout`]), then return a summary.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Request a hot reload of the model from its current path (the `SIGHUP`
    /// action). Validation and swap happen off the scoring path; failures
    /// roll back and show up in [`ServeCounts::reload_failures`].
    pub fn request_reload(&self) {
        self.shared.reload.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// A snapshot of the daemon's health counters.
    pub fn counts(&self) -> ServeCounts {
        self.shared.health.snapshot()
    }
}

/// Per-request latency samples, ring-buffered to [`LATENCY_CAP`].
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn record(&mut self, us: u64) {
        if self.samples.len() < LATENCY_CAP {
            self.samples.push(us);
        } else {
            self.samples[self.next] = us;
            self.next = (self.next + 1) % LATENCY_CAP;
        }
    }
}

/// (p50, p99) of the samples in `ring`. The samples are copied under its
/// lock and sorted after the guard drops, so the scorer, which records
/// into the ring after every batch, never waits behind the sort.
fn latency_percentiles(ring: &Mutex<LatencyRing>) -> (u64, u64) {
    // Two statements: a guard taken inside the call's argument would live
    // until the end of the statement, across the sort.
    let samples = lock(ring).samples.clone();
    percentiles(samples)
}

/// (p50, p99) of `samples`; (0, 0) when empty.
fn percentiles(mut samples: Vec<u64>) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    samples.sort_unstable();
    let pick = |p: usize| samples[(samples.len() - 1) * p / 100];
    (pick(50), pick(99))
}

/// State shared between the accept loop, connection threads, the scorer, and
/// control handles.
struct Shared {
    cfg: ServeConfig,
    schema: Schema,
    /// The canonical TSV header for `schema`; input lines equal to it are
    /// ignored so a whole TSV file can be piped in unmodified.
    header: String,
    model: Mutex<Arc<FracModel>>,
    model_path: Mutex<PathBuf>,
    health: ServeHealth,
    shutdown: AtomicBool,
    reload: AtomicBool,
    latencies: Mutex<LatencyRing>,
}

/// Poison-tolerant lock: serve state stays usable even if a panicking thread
/// (already isolated by `catch_unwind`) held a guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Collapse a (possibly multi-line) error into one protocol-safe line.
fn one_line(msg: &str) -> String {
    msg.chars()
        .map(|c| if c == '\n' || c == '\r' || c == '\t' { ' ' } else { c })
        .collect()
}

/// One admitted scoring request.
struct Request {
    seq: u64,
    values: Vec<frac_dataset::Value>,
    budget: RunBudget,
    received: Instant,
    reply: Arc<ReplySink>,
}

/// Serialized reply channel for one connection. Writes are best-effort: a
/// client that disconnected mid-batch loses its replies, nothing else.
/// Every write holds whole lines, so replies from the connection's own
/// thread and the scorer never interleave mid-line.
struct ReplySink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl ReplySink {
    fn new(out: Box<dyn Write + Send>) -> Self {
        ReplySink { out: Mutex::new(out) }
    }

    /// Send one reply line and its newline in one write.
    fn send(&self, line: &str) {
        self.send_lines(format!("{line}\n").as_bytes());
    }

    /// Send already newline-terminated lines in one write.
    fn send_lines(&self, lines: &[u8]) {
        let mut out = lock(&self.out);
        let _ = out.write_all(lines);
        let _ = out.flush();
    }
}

/// A batch's replies, one buffer per connection (grouped by sink identity,
/// in the order connections first appear), each line appended in request
/// order. [`Outbox::send`] writes each buffer once, so a pipelined
/// connection pays one send per batch, not one per record.
#[derive(Default)]
struct Outbox {
    buffers: Vec<(Arc<ReplySink>, String)>,
}

impl Outbox {
    fn line(&mut self, sink: &Arc<ReplySink>, reply: std::fmt::Arguments<'_>) {
        let i = match self.buffers.iter().rposition(|(s, _)| Arc::ptr_eq(s, sink)) {
            Some(i) => i,
            None => {
                self.buffers.push((Arc::clone(sink), String::new()));
                self.buffers.len() - 1
            }
        };
        let buf = &mut self.buffers[i].1;
        let _ = buf.write_fmt(reply);
        buf.push('\n');
    }

    fn send(self) {
        for (sink, buf) in self.buffers {
            sink.send_lines(buf.as_bytes());
        }
    }
}

/// Check that `model` can score records of `schema` without panicking in the
/// encode pool: every target index in range, every predictor's kind matching
/// the schema's kind at that index and every one of its inputs in the
/// model's encoder table, then the table consistent with the schema
/// (checked once). Errors name the first mismatch. This is the
/// compatibility gate run before a model is served or swapped in, and
/// before `frac score --model` scores a test file.
pub fn validate_model(model: &FracModel, schema: &Schema) -> Result<(), String> {
    for fm in &model.features {
        let t = fm.target;
        if t >= schema.len() {
            return Err(format!(
                "model target {t} out of range for a schema of {} features",
                schema.len()
            ));
        }
        let kind = schema.kind(t);
        let name = &schema.feature(t).name;
        for fp in &fm.predictors {
            let kind_ok = matches!(
                (&fp.model, kind),
                (PredictorModel::Real(_), FeatureKind::Real)
                    | (PredictorModel::Cat(_), FeatureKind::Categorical { .. })
            );
            if !kind_ok {
                let have = match fp.model {
                    PredictorModel::Real(_) => "a real",
                    PredictorModel::Cat(_) => "a categorical",
                };
                return Err(format!(
                    "target {t} (`{name}`): model predicts {have} feature but the schema says `{kind}`"
                ));
            }
            // A marker's inputs are table features by definition.
            if let Inputs::List(list) = &fp.inputs {
                if let Some(j) = list.iter().find(|&&j| !model.table.covers(j as usize)) {
                    return Err(format!(
                        "target {t} (`{name}`): input feature {j} is not in the model's encoder table"
                    ));
                }
            }
        }
    }
    model.table.validate_against(schema)
}

/// A scoring daemon, constructed once and then driven by
/// [`Server::serve_listener`] (TCP) or [`Server::serve_pipe`] (stdin-style).
pub struct Server {
    shared: Arc<Shared>,
    tx: SyncSender<Request>,
    rx: Receiver<Request>,
}

impl Server {
    /// Build a daemon around an already-loaded model. Fails (without
    /// serving) if the model cannot score records of `schema` — the same
    /// compatibility gate later applied to hot reloads. The model's scoring
    /// plan is compiled here, before the first request arrives.
    pub fn new(
        model: FracModel,
        model_path: PathBuf,
        schema: Schema,
        cfg: ServeConfig,
    ) -> Result<Server, String> {
        validate_model(&model, &schema)?;
        model.scoring_plan()?;
        let header = schema
            .iter()
            .map(|f| format!("{}:{}", f.name, f.kind))
            .collect::<Vec<_>>()
            .join("\t");
        let (tx, rx) = mpsc::sync_channel(cfg.queue_cap.max(1));
        Ok(Server {
            shared: Arc::new(Shared {
                cfg,
                schema,
                header,
                model: Mutex::new(Arc::new(model)),
                model_path: Mutex::new(model_path),
                health: ServeHealth::default(),
                shutdown: AtomicBool::new(false),
                reload: AtomicBool::new(false),
                latencies: Mutex::new(LatencyRing::default()),
            }),
            tx,
            rx,
        })
    }

    /// A control handle for shutdown/reload, usable from other threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Serve connections accepted from `listener` until shutdown is
    /// requested (handle, `SIGTERM` watcher, or `cmd stop`), then drain and
    /// report. Each connection gets its own thread; all feed one bounded
    /// queue and one scorer.
    pub fn serve_listener(self, listener: TcpListener) -> std::io::Result<ServeSummary> {
        listener.set_nonblocking(true)?;
        let Server { shared, tx, rx } = self;
        let start = Instant::now();
        let scorer = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("frac-serve-scorer".into())
                .spawn(move || scorer_loop(&shared, &rx))?
        };
        while !shared.shutdown.load(Ordering::Relaxed) {
            if shared.reload.swap(false, Ordering::Relaxed) {
                spawn_reload(&shared);
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    ServeHealth::bump(&shared.health.connections, 1);
                    let shared = Arc::clone(&shared);
                    let tx = tx.clone();
                    // A failed spawn drops the stream (client sees EOF); the
                    // daemon itself keeps serving.
                    let _ = thread::Builder::new().name("frac-serve-conn".into()).spawn(
                        move || {
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_nodelay(true);
                            // A client that cannot absorb replies within the
                            // request timeout forfeits them rather than
                            // wedging the scorer behind a blocked write.
                            let _ = stream.set_write_timeout(Some(shared.cfg.request_timeout));
                            if let Ok(writer) = stream.try_clone() {
                                let reply = Arc::new(ReplySink::new(Box::new(writer)));
                                connection_loop(&shared, &tx, BufReader::new(stream), &reply);
                            }
                        },
                    );
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => thread::sleep(POLL),
            }
        }
        drop(tx);
        let _ = scorer.join();
        Ok(finish(&shared, start))
    }

    /// Serve a single `reader`/`writer` pair (the stdin/stdout pipe mode).
    /// Returns when the reader reaches EOF or shutdown is requested, after
    /// draining. The reader runs on its own thread so a `SIGTERM`-driven
    /// shutdown is honored even while a read is blocked.
    pub fn serve_pipe<R, W>(self, reader: R, writer: W) -> std::io::Result<ServeSummary>
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let Server { shared, tx, rx } = self;
        let start = Instant::now();
        let scorer = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("frac-serve-scorer".into())
                .spawn(move || scorer_loop(&shared, &rx))?
        };
        ServeHealth::bump(&shared.health.connections, 1);
        let conn = {
            let shared = Arc::clone(&shared);
            let reply = Arc::new(ReplySink::new(Box::new(writer)));
            thread::Builder::new()
                .name("frac-serve-pipe".into())
                .spawn(move || connection_loop(&shared, &tx, BufReader::new(reader), &reply))?
        };
        loop {
            if shared.shutdown.load(Ordering::Relaxed) {
                break;
            }
            if shared.reload.swap(false, Ordering::Relaxed) {
                spawn_reload(&shared);
            }
            if conn.is_finished() {
                // EOF on input: everything readable has been enqueued;
                // switch the scorer to drain mode.
                shared.shutdown.store(true, Ordering::Relaxed);
                break;
            }
            thread::sleep(POLL);
        }
        // The scorer drains the queue (bounded by `drain_timeout`) once the
        // shutdown flag is up. The reader thread may still be blocked on a
        // quiet input; it holds only a queue sender and dies with the
        // process, so it is deliberately not joined.
        let _ = scorer.join();
        Ok(finish(&shared, start))
    }
}

fn finish(shared: &Shared, start: Instant) -> ServeSummary {
    let (p50_us, p99_us) = latency_percentiles(&shared.latencies);
    ServeSummary {
        counts: shared.health.snapshot(),
        p50_us,
        p99_us,
        wall: start.elapsed(),
    }
}

/// Run a validated reload off every hot path; failures roll back (the old
/// `Arc` stays in place) and are only visible in the counters.
fn spawn_reload(shared: &Arc<Shared>) {
    let worker = Arc::clone(shared);
    let spawned = thread::Builder::new().name("frac-serve-reload".into()).spawn(move || {
        match reload_model(&worker, None) {
            Ok(_) => ServeHealth::bump(&worker.health.reloads, 1),
            Err(_) => ServeHealth::bump(&worker.health.reload_failures, 1),
        }
    });
    if spawned.is_err() {
        ServeHealth::bump(&shared.health.reload_failures, 1);
    }
}

/// Load + validate + compile a candidate model, then atomically swap it in.
/// Any error leaves the serving model untouched (rollback). `path`
/// overrides the remembered model path and becomes the new reload source on
/// success.
fn reload_model(shared: &Shared, path: Option<PathBuf>) -> Result<String, String> {
    let path = match path {
        Some(p) => p,
        None => lock(&shared.model_path).clone(),
    };
    let candidate = FracModel::load(&path).map_err(|e| e.to_string())?;
    validate_model(&candidate, &shared.schema)?;
    candidate.scoring_plan()?;
    let detail = format!(
        "reloaded {} ({} of {} planned targets)",
        path.display(),
        candidate.n_targets(),
        candidate.planned_targets()
    );
    *lock(&shared.model) = Arc::new(candidate);
    *lock(&shared.model_path) = path;
    Ok(detail)
}

/// The single scoring thread: pull one request (with a poll timeout so
/// control flags stay live), widen to a batch, score, repeat; on shutdown,
/// drain what is queued within the drain budget.
fn scorer_loop(shared: &Shared, rx: &Receiver<Request>) {
    // One batch data set for the daemon's life, cleared between batches.
    let mut batch_ds = Dataset::empty(shared.schema.clone());
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match rx.recv_timeout(POLL) {
            Ok(first) => {
                let mut batch = vec![first];
                while batch.len() < shared.cfg.batch_max {
                    match rx.try_recv() {
                        Ok(r) => batch.push(r),
                        Err(_) => break,
                    }
                }
                score_batch(shared, batch, &mut batch_ds);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain: everything already admitted deserves an answer, but shutdown
    // must complete within the drain budget even under a backlog.
    let drain = RunBudget::with_deadline(shared.cfg.drain_timeout);
    loop {
        let mut batch = Vec::new();
        while batch.len() < shared.cfg.batch_max {
            match rx.try_recv() {
                Ok(r) => batch.push(r),
                Err(_) => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        if drain.is_expired() {
            ServeHealth::bump(&shared.health.timed_out, batch.len() as u64);
            telemetry::counter_add(Counter::ServeTimeouts, batch.len() as u64);
            let mut outbox = Outbox::default();
            for r in &batch {
                outbox.line(&r.reply, format_args!(
                    "err {} dropped at shutdown: drain timeout exceeded",
                    r.seq
                ));
            }
            outbox.send();
            continue;
        }
        score_batch(shared, batch, &mut batch_ds);
    }
}

/// Score one admitted batch, assembled in `batch_ds`. Requests whose
/// deadline passed while queued are answered with a timeout error; the rest
/// are scored in one pass. A panic inside scoring is confined to this batch.
fn score_batch(shared: &Shared, batch: Vec<Request>, batch_ds: &mut Dataset) {
    let expired: Vec<bool> = batch.iter().map(|r| r.budget.is_expired()).collect();
    let n_expired = expired.iter().filter(|&&e| e).count();
    ServeHealth::bump(&shared.health.timed_out, n_expired as u64);
    telemetry::counter_add(Counter::ServeTimeouts, n_expired as u64);
    if n_expired == batch.len() {
        batch_replies(&batch, &expired, None).send();
        return;
    }
    let live = || batch.iter().zip(&expired).filter(|(_, &e)| !e).map(|(r, _)| r);
    if let Some(delay) = shared.cfg.score_delay {
        thread::sleep(delay);
    }
    let model = Arc::clone(&lock(&shared.model));
    batch_ds.clear_rows();
    for r in live() {
        batch_ds.push_row(&r.values);
    }
    let _span = telemetry::span(Stage::ServeBatch);
    match catch_unwind(AssertUnwindSafe(|| model.score(batch_ds))) {
        Ok(scores) => {
            batch_replies(&batch, &expired, Some(&scores)).send();
            ServeHealth::bump(&shared.health.scored, scores.len() as u64);
            let mut ring = lock(&shared.latencies);
            for r in live() {
                ring.record(r.received.elapsed().as_micros() as u64);
            }
        }
        Err(_) => {
            ServeHealth::bump(&shared.health.score_panics, 1);
            batch_replies(&batch, &expired, None).send();
        }
    }
}

/// A batch's replies, in request order: a timeout error for each expired
/// request and, for the rest, their `scores` in turn, or an internal error
/// when scoring panicked (`scores` is `None`).
fn batch_replies(batch: &[Request], expired: &[bool], scores: Option<&[f64]>) -> Outbox {
    let mut outbox = Outbox::default();
    let mut scores = scores.unwrap_or_default().iter();
    for (r, &e) in batch.iter().zip(expired) {
        if e {
            outbox.line(&r.reply, format_args!(
                "err {} request timed out in the admission queue",
                r.seq
            ));
        } else if let Some(s) = scores.next() {
            // `{}` on f64 is the shortest string that re-parses to the
            // exact bits — serve replies stay bit-identical to
            // `frac score` output on the same record.
            outbox.line(&r.reply, format_args!("ns {} {}", r.seq, s));
        } else {
            outbox.line(&r.reply, format_args!(
                "err {} internal scoring error; batch isolated, daemon still serving",
                r.seq
            ));
        }
    }
    outbox
}

/// Read lines from one connection, parse, and admit or quarantine each.
fn connection_loop<R: BufRead>(
    shared: &Shared,
    tx: &SyncSender<Request>,
    mut reader: R,
    reply: &Arc<ReplySink>,
) {
    let mut seq: u64 = 0;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match read_line_capped(&mut reader, &mut buf, shared.cfg.max_line_bytes) {
            Ok(Some(overflow)) => {
                seq += 1;
                handle_line(shared, tx, reply, seq, &buf, overflow);
            }
            Ok(None) => return, // clean EOF
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return, // mid-record disconnect, reset, etc.
        }
    }
}

/// Read one `\n`-terminated line into `buf`, never holding more than `cap`
/// bytes: past the cap the rest of the line is consumed and discarded and
/// the line is flagged as overflowed. `Ok(None)` is clean EOF.
fn read_line_capped<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<Option<bool>> {
    buf.clear();
    let mut overflow = false;
    let mut saw_any = false;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(c) => c,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok(if saw_any { Some(overflow) } else { None });
        }
        saw_any = true;
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !overflow {
                if buf.len() + pos > cap {
                    overflow = true;
                    buf.clear();
                } else {
                    buf.extend_from_slice(&chunk[..pos]);
                }
            }
            reader.consume(pos + 1);
            return Ok(Some(overflow));
        }
        let n = chunk.len();
        if !overflow {
            if buf.len() + n > cap {
                overflow = true;
                buf.clear();
            } else {
                buf.extend_from_slice(chunk);
            }
        }
        reader.consume(n);
    }
}

/// Classify and dispatch one input line: comment/header noise, a command,
/// or a record to admit. All failure modes reply and return; nothing here
/// can take the connection down.
fn handle_line(
    shared: &Shared,
    tx: &SyncSender<Request>,
    reply: &Arc<ReplySink>,
    seq: u64,
    raw: &[u8],
    overflow: bool,
) {
    if overflow {
        quarantine(shared, reply, seq, &format!(
            "line exceeds the {}-byte limit and was dropped",
            shared.cfg.max_line_bytes
        ));
        return;
    }
    let line = match std::str::from_utf8(raw) {
        Ok(s) => s.trim_end_matches('\r'),
        Err(_) => {
            quarantine(shared, reply, seq, "line is not valid UTF-8");
            return;
        }
    };
    if line.trim().is_empty() || line.starts_with('#') || line == shared.header {
        return;
    }
    if let Some(rest) = line.strip_prefix("cmd") {
        if rest.is_empty() || rest.starts_with(' ') || rest.starts_with('\t') {
            handle_command(shared, reply, seq, rest.trim());
            return;
        }
    }
    let parsed = if line.trim_start().starts_with('{') {
        dio::parse_json_record(&shared.schema, line, seq as usize)
    } else {
        dio::parse_record(&shared.schema, line, seq as usize)
    };
    let values = match parsed {
        Ok(v) => v,
        Err(e) => {
            quarantine(shared, reply, seq, &e.to_string());
            return;
        }
    };
    let request = Request {
        seq,
        values,
        budget: RunBudget::with_deadline(shared.cfg.request_timeout),
        received: Instant::now(),
        reply: Arc::clone(reply),
    };
    match tx.try_send(request) {
        Ok(()) => {
            ServeHealth::bump(&shared.health.received, 1);
            telemetry::counter_add(Counter::ServeRequests, 1);
        }
        Err(TrySendError::Full(r)) => {
            ServeHealth::bump(&shared.health.shed, 1);
            telemetry::counter_add(Counter::ServeShed, 1);
            r.reply.send(&format!("busy {}", r.seq));
        }
        Err(TrySendError::Disconnected(r)) => {
            r.reply.send(&format!("err {} daemon is shutting down", r.seq));
        }
    }
}

fn quarantine(shared: &Shared, reply: &Arc<ReplySink>, seq: u64, reason: &str) {
    ServeHealth::bump(&shared.health.quarantined, 1);
    telemetry::counter_add(Counter::ServeQuarantined, 1);
    reply.send(&format!("err {seq} {}", one_line(reason)));
}

fn handle_command(shared: &Shared, reply: &Arc<ReplySink>, seq: u64, cmd: &str) {
    if cmd == "ping" {
        reply.send(&format!("ok {seq} pong"));
    } else if cmd == "stats" {
        let (p50, p99) = latency_percentiles(&shared.latencies);
        reply.send(&format!(
            "ok {seq} {} p50_us={p50} p99_us={p99}",
            shared.health.snapshot().summary()
        ));
    } else if cmd == "stop" {
        reply.send(&format!("ok {seq} draining"));
        shared.shutdown.store(true, Ordering::Relaxed);
    } else if cmd == "reload" || cmd.starts_with("reload ") {
        let path = cmd.strip_prefix("reload").map(str::trim).filter(|p| !p.is_empty());
        // Runs on the connection thread: already off the scoring path, and
        // the client gets the verdict on the same connection.
        match reload_model(shared, path.map(PathBuf::from)) {
            Ok(detail) => {
                ServeHealth::bump(&shared.health.reloads, 1);
                reply.send(&format!("ok {seq} {detail}"));
            }
            Err(e) => {
                ServeHealth::bump(&shared.health.reload_failures, 1);
                reply.send(&format!(
                    "err {seq} reload failed, keeping the serving model: {}",
                    one_line(&e)
                ));
            }
        }
    } else {
        reply.send(&format!(
            "err {seq} unknown command `{}` (expected ping, stats, reload [PATH], stop)",
            one_line(cmd)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn capped_reader_splits_lines_and_flags_overflow() {
        let data = b"short\nthis line is much longer than the cap\nok\n";
        let mut r = BufReader::with_capacity(7, Cursor::new(&data[..]));
        let mut buf = Vec::new();
        assert_eq!(read_line_capped(&mut r, &mut buf, 16).unwrap(), Some(false));
        assert_eq!(buf, b"short");
        assert_eq!(read_line_capped(&mut r, &mut buf, 16).unwrap(), Some(true));
        assert!(buf.is_empty(), "overflowed line must not retain bytes");
        assert_eq!(read_line_capped(&mut r, &mut buf, 16).unwrap(), Some(false));
        assert_eq!(buf, b"ok");
        assert_eq!(read_line_capped(&mut r, &mut buf, 16).unwrap(), None);
    }

    #[test]
    fn capped_reader_handles_unterminated_final_line() {
        let mut r = BufReader::new(Cursor::new(&b"no newline"[..]));
        let mut buf = Vec::new();
        assert_eq!(read_line_capped(&mut r, &mut buf, 64).unwrap(), Some(false));
        assert_eq!(buf, b"no newline");
        assert_eq!(read_line_capped(&mut r, &mut buf, 64).unwrap(), None);
    }

    #[test]
    fn latency_ring_percentiles_and_cap() {
        let ring = Mutex::new(LatencyRing::default());
        assert_eq!(latency_percentiles(&ring), (0, 0));
        for us in 1..=100 {
            lock(&ring).record(us);
        }
        assert_eq!(latency_percentiles(&ring), (50, 99));
        for us in 0..(LATENCY_CAP as u64 + 10) {
            lock(&ring).record(us);
        }
        assert_eq!(lock(&ring).samples.len(), LATENCY_CAP);
    }

    #[test]
    fn one_line_flattens_control_characters() {
        assert_eq!(one_line("a\nb\tc\rd"), "a b c d");
    }

    #[test]
    fn counts_summary_mentions_every_counter() {
        let s = ServeCounts::default().summary();
        for key in [
            "connections=", "received=", "scored=", "shed=", "quarantined=",
            "timeouts=", "reloads=", "reload_failures=", "score_panics=",
        ] {
            assert!(s.contains(key), "summary missing {key}: {s}");
        }
    }
}
