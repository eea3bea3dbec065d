//! Write-ahead run journal: crash-safe checkpointing of per-target fits.
//!
//! A full FRaC training run fits one model per feature and can take hours;
//! a crash (OOM kill, node preemption, power loss) should cost at most the
//! target that was in flight, not the whole run. The journal makes that
//! true: as each target finishes, its fitted model, health events, and cost
//! counters are appended to the journal file as one framed, checksummed,
//! fsynced record. On resume the journal is scanned, any torn trailing
//! record is truncated away (never fatal — a kill mid-`write` is the
//! expected case), the completed targets are reloaded, and training
//! continues with only the remaining ones.
//!
//! # File format
//!
//! A text header, the run's encoder table, then zero or more framed
//! records:
//!
//! ```text
//! fracjournal 3
//! config <hex u64>            FNV-1a of the FracConfig (Debug rendering)
//! dataset <hex u64>           Dataset::fingerprint() of the training set
//! plan <hex u64>              TrainingPlan::content_hash()
//! planned <n>                 number of targets the plan asked for
//! endheader
//! table <body_len> <crc32 hex>
//! <body_len bytes: the encoder table>
//! rec <body_len> <crc32 hex>
//! <body_len bytes of record body>
//! rec ...
//! ```
//!
//! The table is the run's pool — the encoders of every feature the plan
//! reads — written once, when the journal is created ([`PoolSpec`]'s
//! table codec, FORMATS.md §3). A v3 record body is little-endian binary
//! ([`frac_dataset::binio`], FORMATS.md §4): the target, a fitted/dropped
//! status byte, four `u64` cost counters, the health events (a tag byte,
//! the event's fields, and a length-prefixed UTF-8 detail where the event
//! has one), then — for a fitted target — the feature section over the
//! journal's table, coded as in model v6 ([`crate::persist`]), so a model
//! assembled from journal records round-trips bit-exactly. SVM warm-start
//! duals are *not* journaled — they only affect solve trajectories, never
//! (in strict mode) results.
//!
//! Version 1 journals carried line-oriented text bodies, and version 2
//! binary bodies whose feature sections stored each predictor's own copy
//! of its inputs' encoders. Both are still scanned and resumed, their
//! copies folded into one table; opening one for append first rewrites it
//! as v3, so a file never mixes body encodings.
//!
//! # Integrity rules
//!
//! * A valid header whose hashes differ from the current run's is an
//!   **error** ([`JournalError::Mismatch`]) — resuming someone else's run
//!   silently would corrupt results. So is a table that differs from the
//!   run's pool: the hashes pin the config, the data and the plan, but not
//!   the code that fits encoders.
//! * A torn header (file killed mid-header-write) makes the journal
//!   **fresh**: it is truncated and rewritten. A file whose first line is
//!   not the journal magic is an error, never truncated — it is probably
//!   not ours.
//! * The first record whose frame or checksum fails to validate ends the
//!   valid region; the file is truncated there and appends continue from
//!   that offset. A record whose checksum passes but whose body does not
//!   decode is an error ([`JournalError::Corrupt`]): those bytes are what
//!   a writer committed, so the cause is format skew, not a torn write.
//! * A valid region that ends before the table gets the table written
//!   before any record is appended; a record ahead of the table is an
//!   error.

use crate::health::{FallbackKind, TargetHealth, TargetOutcome};
use crate::model::{FeatureModel, Inputs};
use crate::persist::{
    parse_feature, parse_section, parse_section_v5, write_section, LegacyFold, SectionReader,
};
use frac_dataset::binio::{ByteError, ByteReader, ByteWriter};
use frac_dataset::design::PoolSpec;
use frac_dataset::crc::crc32;
use frac_dataset::textio::TextReader;
use frac_dataset::QuarantineReason;
use std::io::{Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// How long the fit's journal writer thread lets written records sit
/// before forcing them to disk. Bounds both the flush rate (at most one
/// `fdatasync` per interval, keeping journal overhead off the solvers) and
/// the window of completed targets a crash can lose.
const SYNC_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);

const JOURNAL_MAGIC: &str = "fracjournal";
const JOURNAL_VERSION: u32 = 3;
/// Frame words of the encoder table and of a target record.
const TABLE_FRAME: &str = "table";
const RECORD_FRAME: &str = "rec";

/// Compatibility header of a run journal: a resumed run must match every
/// fingerprint or the journal's records are meaningless for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// [`crate::config::FracConfig::content_hash`] of the run's config.
    pub config_hash: u64,
    /// [`frac_dataset::Dataset::fingerprint`] of the (unsanitized) training set.
    pub dataset_fingerprint: u64,
    /// [`crate::plan::TrainingPlan::content_hash`] of the training plan.
    pub plan_hash: u64,
    /// Number of targets the plan asked for.
    pub planned: usize,
}

/// What went wrong opening, scanning, or appending to a journal.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a readable journal (wrong magic, or a
    /// checksum-valid record whose body does not parse — a format bug or
    /// version skew, never a torn write).
    Corrupt(String),
    /// The journal belongs to a different run (config, dataset, or plan
    /// fingerprint differs).
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt(m) => write!(f, "journal corrupt: {m}"),
            JournalError::Mismatch(m) => write!(f, "journal mismatch: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// One completed target, as recorded in (or reloaded from) the journal.
///
/// `feature` is `None` for a target that completed by being *dropped*
/// (quarantined all-missing or every member failed) — that outcome is
/// final and must also survive a resume, or the run would pointlessly
/// re-attempt a hopeless target.
pub struct TargetRecord {
    /// Target feature index.
    pub target: usize,
    pub(crate) feature: Option<FeatureModel>,
    pub(crate) health: Vec<TargetOutcome>,
    pub(crate) flops: u64,
    pub(crate) transient: u64,
    pub(crate) model_bytes: u64,
    pub(crate) n_models: u64,
}

impl TargetRecord {
    fn as_parts(&self) -> RecordParts<'_> {
        RecordParts {
            target: self.target,
            feature: self.feature.as_ref(),
            outcomes: self.health.iter().collect(),
            flops: self.flops,
            transient: self.transient,
            model_bytes: self.model_bytes,
            n_models: self.n_models,
        }
    }
}

/// Borrowed form of a journal record, for appending straight out of the
/// fit loop without cloning the fitted model.
pub(crate) struct RecordParts<'a> {
    pub(crate) target: usize,
    pub(crate) feature: Option<&'a FeatureModel>,
    pub(crate) outcomes: Vec<&'a TargetOutcome>,
    pub(crate) flops: u64,
    pub(crate) transient: u64,
    pub(crate) model_bytes: u64,
    pub(crate) n_models: u64,
}

/// Read-only scan result: what a journal file currently holds, plus the
/// byte geometry the crash tests truncate at.
pub struct JournalScan {
    /// The parsed header, `None` when the file is empty or its header is
    /// torn (in both cases a fresh header will be written on open).
    pub header: Option<JournalHeader>,
    /// Byte offset just past the header.
    pub header_end: u64,
    /// The encoder table the records' inputs refer to: the stored table
    /// of a v3 journal (`None` when the valid region ends before it), or
    /// the fold of the encoders an older journal's records carry.
    pub table: Option<PoolSpec>,
    /// Byte offset just past the table record (the header's end when the
    /// journal has none stored).
    pub table_end: u64,
    /// Byte offset just past each valid record, in file order.
    pub record_ends: Vec<u64>,
    /// Length of the valid prefix (header + intact records); any bytes
    /// beyond this are a torn tail.
    pub valid_len: u64,
    /// The reloaded records themselves; each predictor's inputs are an
    /// explicit feature list.
    pub records: Vec<TargetRecord>,
    /// The journal's format version.
    version: u32,
}

impl JournalScan {
    fn empty() -> JournalScan {
        JournalScan {
            header: None,
            header_end: 0,
            table: None,
            table_end: 0,
            record_ends: Vec::new(),
            valid_len: 0,
            records: Vec::new(),
            version: JOURNAL_VERSION,
        }
    }
}

/// An open, appendable run journal.
///
/// `append` is safe to call from rayon worker closures: writes are
/// serialized through an internal mutex and each record is fsynced before
/// `append` returns, so a completed target is durable the moment its
/// record is on disk. The parallel fit loop instead hands serialized
/// record bodies to a dedicated writer thread (`RunJournal::write_loop`)
/// that frames, checksums, and writes them as they arrive but flushes at
/// most once per `SYNC_INTERVAL` (plus once at shutdown, before the fit
/// returns) — keeping disk latency off the solver threads entirely. A
/// failed append marks the journal broken (checked via
/// [`RunJournal::is_broken`]); the fit itself continues — losing
/// checkpoint durability degrades resume, never the run's results.
pub struct RunJournal {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    broken: AtomicBool,
    /// The table the records' feature sections are coded over.
    table: PoolSpec,
}

impl RunJournal {
    /// Create a fresh journal at `path` (truncating any existing file),
    /// write and fsync the header and the run's encoder `table`.
    pub fn create(
        path: impl AsRef<Path>,
        header: &JournalHeader,
        table: &PoolSpec,
    ) -> Result<RunJournal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = std::fs::File::create(&path)?;
        let mut bytes = header_text(header).into_bytes();
        bytes.extend(table_frame(table));
        file.write_all(&bytes)?;
        file.sync_data()?;
        sync_parent_dir(&path);
        Ok(Self::from_file(file, path, table))
    }

    fn from_file(file: std::fs::File, path: PathBuf, table: &PoolSpec) -> RunJournal {
        RunJournal {
            file: Mutex::new(file),
            path,
            broken: AtomicBool::new(false),
            table: table.clone(),
        }
    }

    /// Open `path` for a run described by `expected`: scan it, truncate any
    /// torn tail, and return the journal (positioned for append) together
    /// with the records already completed.
    ///
    /// A missing or empty file — or one whose header write was itself torn
    /// — becomes a fresh journal. A valid header that does not match
    /// `expected`, or a table that differs from the run's `table`, is a
    /// [`JournalError::Mismatch`].
    pub fn open_or_create(
        path: impl AsRef<Path>,
        expected: &JournalHeader,
        table: &PoolSpec,
    ) -> Result<(RunJournal, Vec<TargetRecord>), JournalError> {
        let path = path.as_ref().to_path_buf();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        if bytes.is_empty() {
            return Ok((Self::create(&path, expected, table)?, Vec::new()));
        }
        let scan = scan_bytes(&bytes)?;
        let header = match scan.header {
            None => {
                // Torn header: the only thing ever written was a partial
                // header, so nothing of value is lost by starting over.
                return Ok((Self::create(&path, expected, table)?, Vec::new()));
            }
            Some(h) => h,
        };
        if header != *expected {
            return Err(JournalError::Mismatch(mismatch_detail(&header, expected)));
        }
        if let Some(detail) = table_mismatch(&scan, table) {
            return Err(JournalError::Mismatch(detail));
        }
        if scan.version < JOURNAL_VERSION {
            // An older journal's intact records are rewritten in the
            // current encoding before anything is appended (its torn tail
            // goes with it).
            rewrite_current(&path, &header, table, &scan.records)?;
        } else if scan.table.is_none() {
            // The valid region ends before the table: the header is all
            // there is, and the table goes in before any record.
            let mut f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.header_end)?;
            f.seek(std::io::SeekFrom::End(0))?;
            f.write_all(&table_frame(table))?;
            f.sync_data()?;
        } else if (scan.valid_len as usize) < bytes.len() {
            // Torn tail from a mid-append kill: drop it so the next append
            // starts at a record boundary.
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(scan.valid_len)?;
            f.sync_data()?;
        }
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok((Self::from_file(file, path, table), scan.records))
    }

    /// Scan a journal file without opening it for writing — the crash
    /// tests' view of record geometry, and the CLI's way to inspect a
    /// journal. Does not modify the file.
    pub fn scan(path: impl AsRef<Path>) -> Result<JournalScan, JournalError> {
        let bytes = std::fs::read(path.as_ref())?;
        if bytes.is_empty() {
            return Ok(JournalScan::empty());
        }
        scan_bytes(&bytes)
    }

    /// Append one completed-target record: frame, checksum, write, fsync.
    /// On failure the journal is marked broken and the error returned; the
    /// caller may keep fitting (resume will simply refit this target).
    pub fn append(&self, rec: &TargetRecord) -> Result<(), JournalError> {
        self.append_parts(&rec.as_parts())
    }

    /// [`RunJournal::append`] over borrowed parts — the fit loop's form,
    /// which avoids cloning a freshly fitted feature model just to log it.
    pub(crate) fn append_parts(&self, rec: &RecordParts<'_>) -> Result<(), JournalError> {
        self.append_bodies(std::iter::once(record_body(rec, &self.table)))
    }

    /// Frame, checksum, and write a batch of pre-serialized record bodies,
    /// then fsync once. On failure the journal is marked broken and the
    /// error returned; the caller may keep fitting (resume will simply
    /// refit the unlogged targets).
    fn append_bodies(&self, bodies: impl Iterator<Item = Vec<u8>>) -> Result<(), JournalError> {
        self.write_bodies(bodies)?;
        self.sync()
    }

    /// Frame, checksum, and write record bodies without flushing. The whole
    /// batch is framed into one buffer before the file lock is taken and
    /// written with a single `write_all` — one syscall per flush window
    /// instead of one per record, which is most of the journal overhead on
    /// fast many-target workloads. Marks the journal broken on failure.
    /// While an abort-after fault is armed, only the records it still
    /// allows are written; the process then aborts on that boundary.
    fn write_bodies(&self, bodies: impl Iterator<Item = Vec<u8>>) -> Result<(), JournalError> {
        let (buf, n_records) = frame(bodies.take(crate::fault::journal_records_allowed()));
        if buf.is_empty() {
            return Ok(());
        }
        let result = (|| -> Result<(), JournalError> {
            let mut file = match self.file.lock() {
                Ok(f) => f,
                Err(poisoned) => poisoned.into_inner(),
            };
            file.write_all(&buf)?;
            Ok(())
        })();
        if result.is_err() {
            self.broken.store(true, Ordering::Relaxed);
        } else {
            // Fault-injection hook: an armed abort-after budget dies here,
            // at the record boundary, once the write has reached the file.
            crate::fault::note_journal_records_appended(n_records);
        }
        result
    }

    /// Flush written records to disk. Marks the journal broken on failure.
    fn sync(&self) -> Result<(), JournalError> {
        let result = (|| -> Result<(), JournalError> {
            let file = match self.file.lock() {
                Ok(f) => f,
                Err(poisoned) => poisoned.into_inner(),
            };
            file.sync_data()?;
            Ok(())
        })();
        if result.is_err() {
            self.broken.store(true, Ordering::Relaxed);
        }
        result
    }

    /// Writer-thread loop for the parallel fit: drain serialized record
    /// bodies from `rx`, write them as they arrive, and `fdatasync` at
    /// most once per [`SYNC_INTERVAL`] plus once at shutdown — even on a
    /// filesystem where each flush forces a journal commit, a fleet of
    /// finishing targets costs a bounded number of flushes rather than one
    /// per target. Returns when every sender is dropped and the channel is
    /// drained; the fit joins this thread before returning, so every
    /// record handed over is durable once the fit completes. A mid-run
    /// crash can lose at most the last `SYNC_INTERVAL` of completed
    /// targets (plus an in-flight torn tail), which resume simply refits.
    /// Errors mark the journal broken and the loop keeps draining
    /// (discarding) so senders never block on a dead disk.
    pub(crate) fn write_loop(&self, rx: std::sync::mpsc::Receiver<Vec<u8>>) {
        use std::sync::mpsc::RecvTimeoutError;
        // `None` = everything written is synced; `Some(t)` = unsynced
        // records on disk, flush due at `t`.
        let mut sync_due: Option<std::time::Instant> = None;
        loop {
            let first = match sync_due {
                None => match rx.recv() {
                    Ok(b) => Some(b),
                    Err(_) => break,
                },
                Some(due) => {
                    let wait = due.saturating_duration_since(std::time::Instant::now());
                    match rx.recv_timeout(wait) {
                        Ok(b) => Some(b),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            };
            if let Some(first) = first {
                let batch =
                    std::iter::once(first).chain(std::iter::from_fn(|| rx.try_recv().ok()));
                if self.is_broken() {
                    batch.for_each(drop);
                } else if self.write_bodies(batch).is_ok() && sync_due.is_none() {
                    sync_due = Some(std::time::Instant::now() + SYNC_INTERVAL);
                }
            }
            if let Some(due) = sync_due {
                if self.is_broken() {
                    sync_due = None;
                } else if std::time::Instant::now() >= due {
                    let _ = self.sync();
                    sync_due = None;
                }
            }
        }
        if sync_due.is_some() && !self.is_broken() {
            let _ = self.sync();
        }
    }

    /// Whether any append has failed since the journal was opened.
    pub fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Relaxed)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Best-effort fsync of a path's parent directory, so a freshly created
/// journal survives power loss of the directory entry itself.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
}

/// Append `body` framed as `<word> <len> <crc32 hex>\n<body>` to `buf`.
fn push_frame(buf: &mut Vec<u8>, word: &str, body: &[u8]) {
    buf.extend_from_slice(format!("{word} {} {:08x}\n", body.len(), crc32(body)).as_bytes());
    buf.extend_from_slice(body);
}

/// Frame record bodies into one buffer; returns the buffer and the number
/// of records in it.
fn frame(bodies: impl Iterator<Item = Vec<u8>>) -> (Vec<u8>, usize) {
    let mut buf = Vec::new();
    let mut n_records = 0usize;
    for body in bodies {
        push_frame(&mut buf, RECORD_FRAME, &body);
        n_records += 1;
    }
    (buf, n_records)
}

/// The framed table record of a journal whose records are coded over
/// `table`. Its body counts as journal bytes, like a record's.
fn table_frame(table: &PoolSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    table.write_bin(&mut w);
    let body = w.finish();
    frac_learn::telemetry::counter_add(frac_learn::telemetry::Counter::JournalBytes, body.len() as u64);
    let mut buf = Vec::new();
    push_frame(&mut buf, TABLE_FRAME, &body);
    buf
}

/// Replace the journal at `path` with a current-version journal holding
/// `table` and `records`: written beside it, fsynced, then renamed over it, so a crash
/// mid-rewrite leaves the old file intact.
fn rewrite_current(
    path: &Path,
    header: &JournalHeader,
    table: &PoolSpec,
    records: &[TargetRecord],
) -> Result<(), JournalError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut bytes = header_text(header).into_bytes();
    bytes.extend(table_frame(table));
    bytes.extend(frame(records.iter().map(|r| record_body(&r.as_parts(), table))).0);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

fn header_text(h: &JournalHeader) -> String {
    format!(
        "{JOURNAL_MAGIC} {JOURNAL_VERSION}\nconfig {:016x}\ndataset {:016x}\nplan {:016x}\nplanned {}\nendheader\n",
        h.config_hash, h.dataset_fingerprint, h.plan_hash, h.planned
    )
}

pub(crate) fn mismatch_detail(found: &JournalHeader, expected: &JournalHeader) -> String {
    // Name each differing hash with its found/expected values: a stale or
    // wrong-shard journal must be diagnosable from the CLI message alone
    // (e.g. "plan differs" pinpoints a journal from another shard of the
    // same run, where config and dataset still agree).
    let mut parts = Vec::new();
    if found.config_hash != expected.config_hash {
        parts.push(format!(
            "config hash {:016x}, expected {:016x}",
            found.config_hash, expected.config_hash
        ));
    }
    if found.dataset_fingerprint != expected.dataset_fingerprint {
        parts.push(format!(
            "dataset fingerprint {:016x}, expected {:016x}",
            found.dataset_fingerprint, expected.dataset_fingerprint
        ));
    }
    if found.plan_hash != expected.plan_hash {
        parts.push(format!(
            "training plan hash {:016x}, expected {:016x}",
            found.plan_hash, expected.plan_hash
        ));
    }
    if found.planned != expected.planned {
        parts.push(format!(
            "planned target count {}, expected {}",
            found.planned, expected.planned
        ));
    }
    format!(
        "journal was written by a different run ({}); \
         delete it or point --journal elsewhere to start fresh",
        parts.join("; ")
    )
}

/// Why a scanned journal's table cannot serve a run whose pool is `pool`:
/// a stored table (v3) must be `pool` exactly; a table folded from an
/// older journal's records must agree with `pool` on every feature it
/// covers. `None` when it can.
pub(crate) fn table_mismatch(scan: &JournalScan, pool: &PoolSpec) -> Option<String> {
    let table = scan.table.as_ref()?;
    let differs = if scan.version < JOURNAL_VERSION {
        table.first_difference(&pool.restricted(|j| table.covers(j)))
    } else {
        table.first_difference(pool)
    }?;
    Some(format!(
        "journal was written by a different run (its encoder table differs from this run's \
         at feature {differs}); delete it or point --journal elsewhere to start fresh"
    ))
}

/// Read one `\n`-terminated line starting at `pos`. `None` when no full
/// line is available (torn write) or the line is not UTF-8.
fn read_line(bytes: &[u8], pos: usize) -> Option<(&str, usize)> {
    let rest = bytes.get(pos..)?;
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..nl]).ok()?;
    Some((line, pos + nl + 1))
}

fn parse_hex_field(line: &str, tag: &str) -> Option<u64> {
    let rest = line.strip_prefix(tag)?.strip_prefix(' ')?;
    u64::from_str_radix(rest.trim(), 16).ok()
}

/// A parsed header: the header, the journal's format version, and the
/// byte offset just past the header.
type ParsedHeader = (JournalHeader, u32, usize);

/// Parse the header region. `Ok(None)` means torn-but-ours (start fresh);
/// `Err` means the file is not a journal at all.
fn parse_header(bytes: &[u8]) -> Result<Option<ParsedHeader>, JournalError> {
    let Some((first, mut pos)) = read_line(bytes, 0) else {
        // No complete first line. If what's there is a prefix of a magic
        // line any version wrote it is a torn header; anything else is not
        // our file.
        let torn = (1..=JOURNAL_VERSION)
            .any(|v| format!("{JOURNAL_MAGIC} {v}").as_bytes().starts_with(bytes));
        return if torn {
            Ok(None)
        } else {
            Err(JournalError::Corrupt("not a fracjournal file".into()))
        };
    };
    let mut fields = first.split_whitespace();
    if fields.next() != Some(JOURNAL_MAGIC) {
        return Err(JournalError::Corrupt("not a fracjournal file".into()));
    }
    let version = match fields.next().and_then(|v| v.parse::<u32>().ok()) {
        Some(v) if (1..=JOURNAL_VERSION).contains(&v) => v,
        Some(v) => {
            return Err(JournalError::Corrupt(format!("unsupported journal version {v}")));
        }
        None => return Ok(None),
    };
    let mut take_hex = |tag: &str| -> Result<Option<u64>, JournalError> {
        match read_line(bytes, pos) {
            None => Ok(None),
            Some((line, next)) => match parse_hex_field(line, tag) {
                Some(v) => {
                    pos = next;
                    Ok(Some(v))
                }
                None => Ok(None),
            },
        }
    };
    let Some(config_hash) = take_hex("config")? else { return Ok(None) };
    let Some(dataset_fingerprint) = take_hex("dataset")? else { return Ok(None) };
    let Some(plan_hash) = take_hex("plan")? else { return Ok(None) };
    let planned = match read_line(bytes, pos) {
        Some((line, next)) => match line
            .strip_prefix("planned ")
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(v) => {
                pos = next;
                v
            }
            None => return Ok(None),
        },
        None => return Ok(None),
    };
    match read_line(bytes, pos) {
        Some(("endheader", next)) => Ok(Some((
            JournalHeader { config_hash, dataset_fingerprint, plan_hash, planned },
            version,
            next,
        ))),
        _ => Ok(None),
    }
}

/// The frame at `pos` — its word, its body and the offset just past it —
/// when the frame line is spelled exactly as a writer spells it and the
/// body's checksum passes; `None` for anything else (a torn or damaged
/// tail).
fn read_frame(bytes: &[u8], pos: usize) -> Option<(&str, &[u8], usize)> {
    let (line, body_start) = read_line(bytes, pos)?;
    let mut fields = line.split_whitespace();
    let word = fields.next()?;
    let len = fields.next()?.parse::<usize>().ok()?;
    let crc = u32::from_str_radix(fields.next()?, 16).ok()?;
    // One spelling per frame: a line the writer would not produce (hex
    // case, leading zeros, extra fields) is damage like any other.
    if line != format!("{word} {len} {crc:08x}") {
        return None;
    }
    // The length comes from the file: a frame claiming more bytes than
    // remain (or than an address can hold) is a torn or damaged tail.
    let end = body_start.checked_add(len)?;
    let body = bytes.get(body_start..end)?;
    (crc32(body) == crc).then_some((word, body, end))
}

/// Scan a journal's bytes (a torn header scans as the current version, and
/// is rewritten fresh on open).
fn scan_bytes(bytes: &[u8]) -> Result<JournalScan, JournalError> {
    let Some((header, version, header_end)) = parse_header(bytes)? else {
        return Ok(JournalScan::empty());
    };
    let corrupt = |what: &str, e: ByteError| JournalError::Corrupt(format!("{what} {e}"));
    let mut pos = header_end;
    let mut table = None;
    if version >= 3 {
        match read_frame(bytes, pos) {
            Some((TABLE_FRAME, body, end)) => {
                let mut r = ByteReader::new(body);
                let t = PoolSpec::parse_bin(&mut r).map_err(|e| corrupt("encoder table", e))?;
                r.finish("encoder table").map_err(|e| corrupt("encoder table", e))?;
                table = Some(t);
                pos = end;
            }
            Some((RECORD_FRAME, ..)) => {
                return Err(JournalError::Corrupt(
                    "a target record comes before the encoder table".into(),
                ))
            }
            // Torn or damaged: the valid region ends at the header.
            _ => {}
        }
    }
    let table_end = pos;
    let mut record_ends = Vec::new();
    let mut records = Vec::new();
    let mut fold = LegacyFold::default();
    let mut sections = table.as_ref().map(SectionReader::new);
    while let Some((RECORD_FRAME, body, end)) = read_frame(bytes, pos) {
        // The frame checksum passed, so these are exactly the bytes a
        // writer committed: a parse failure here is format skew, not a
        // torn write, and silently truncating would discard good work.
        let rec = if version == 1 {
            let text = std::str::from_utf8(body)
                .map_err(|_| JournalError::Corrupt("record body is not UTF-8".into()))?;
            parse_record_text(text, &mut fold)?
        } else if version == 2 {
            parse_record_body(body, |r| parse_section_v5(r, &mut fold))
                .map_err(|e| corrupt("record body", e))?
        } else if let (Some(sections), Some(table)) = (sections.as_mut(), table.as_ref()) {
            let mut rec = parse_record_body(body, |r| parse_section(r, sections))
                .map_err(|e| corrupt("record body", e))?;
            if let Some(fm) = rec.feature.as_mut() {
                expand_inputs(fm, table);
            }
            rec
        } else {
            // A v3 journal without its table has no decodable records.
            break;
        };
        records.push(rec);
        pos = end;
        record_ends.push(pos as u64);
    }
    let table = if version < 3 { Some(fold.finish()) } else { table };
    Ok(JournalScan {
        header: Some(header),
        header_end: header_end as u64,
        table,
        table_end: table_end as u64,
        record_ends,
        valid_len: pos as u64,
        records,
        version,
    })
}

/// Rewrite every predictor of `fm` to list its inputs explicitly: records
/// leave the journal with inputs that mean the same over any table.
fn expand_inputs(fm: &mut FeatureModel, table: &PoolSpec) {
    for fp in &mut fm.predictors {
        if fp.inputs == Inputs::AllButTarget {
            fp.inputs =
                Inputs::List(fp.inputs.features(table, fm.target).map(|j| j as u32).collect());
        }
    }
}

/// Binary event tags of a v2/v3 record (FORMATS.md §4).
const EV_SANITIZED: u8 = 0;
const EV_ALL_MISSING: u8 = 1;
const EV_ZERO_VARIANCE: u8 = 2;
const EV_SINGLE_CLASS: u8 = 3;
const EV_NON_FINITE: u8 = 4;
const EV_DEGRADED: u8 = 5;
const EV_MEMBER_DROPPED: u8 = 6;
const EV_DROPPED: u8 = 7;
/// Fallback rungs of a degraded event.
const RUNG_STRICT: u8 = 0;
const RUNG_BASELINE: u8 = 1;
/// Record status bytes.
const STATUS_DROPPED: u8 = 0;
const STATUS_FITTED: u8 = 1;

fn write_event(w: &mut ByteWriter, outcome: &TargetOutcome) {
    match outcome {
        TargetOutcome::Sanitized { cells } => {
            w.u8(EV_SANITIZED);
            w.u64(*cells as u64);
        }
        TargetOutcome::Quarantined { reason } => match reason {
            QuarantineReason::AllMissing => w.u8(EV_ALL_MISSING),
            QuarantineReason::ZeroVariance => w.u8(EV_ZERO_VARIANCE),
            QuarantineReason::SingleClass { class } => {
                w.u8(EV_SINGLE_CLASS);
                w.u32(*class);
            }
            QuarantineReason::NonFinite { cells } => {
                w.u8(EV_NON_FINITE);
                w.u64(*cells as u64);
            }
        },
        TargetOutcome::Degraded { member, fallback, detail } => {
            w.u8(EV_DEGRADED);
            w.len32(*member);
            w.u8(match fallback {
                FallbackKind::StrictSolver => RUNG_STRICT,
                FallbackKind::Baseline => RUNG_BASELINE,
            });
            w.str(detail);
        }
        TargetOutcome::MemberDropped { member, detail } => {
            w.u8(EV_MEMBER_DROPPED);
            w.len32(*member);
            w.str(detail);
        }
        TargetOutcome::Dropped { reason } => {
            w.u8(EV_DROPPED);
            w.str(reason);
        }
    }
}

fn read_cells(r: &mut ByteReader<'_>) -> Result<usize, ByteError> {
    let at = r.offset();
    let cells = r.u64("event cells")?;
    usize::try_from(cells).map_err(|_| ByteError::new(at, format!("cell count {cells} overflows")))
}

fn read_event(r: &mut ByteReader<'_>) -> Result<TargetOutcome, ByteError> {
    let at = r.offset();
    let quarantined = |reason| TargetOutcome::Quarantined { reason };
    Ok(match r.u8("event tag")? {
        EV_SANITIZED => TargetOutcome::Sanitized { cells: read_cells(r)? },
        EV_ALL_MISSING => quarantined(QuarantineReason::AllMissing),
        EV_ZERO_VARIANCE => quarantined(QuarantineReason::ZeroVariance),
        EV_SINGLE_CLASS => {
            quarantined(QuarantineReason::SingleClass { class: r.u32("event class")? })
        }
        EV_NON_FINITE => quarantined(QuarantineReason::NonFinite { cells: read_cells(r)? }),
        EV_DEGRADED => {
            let member = r.index("event member")?;
            let at = r.offset();
            let fallback = match r.u8("event rung")? {
                RUNG_STRICT => FallbackKind::StrictSolver,
                RUNG_BASELINE => FallbackKind::Baseline,
                rung => return Err(ByteError::new(at, format!("unknown fallback rung {rung}"))),
            };
            TargetOutcome::Degraded { member, fallback, detail: r.str("event detail")?.into() }
        }
        EV_MEMBER_DROPPED => TargetOutcome::MemberDropped {
            member: r.index("event member")?,
            detail: r.str("event detail")?.into(),
        },
        EV_DROPPED => TargetOutcome::Dropped { reason: r.str("event reason")?.into() },
        tag => return Err(ByteError::new(at, format!("unknown event tag {tag}"))),
    })
}

/// Serialize a v3 record body, its feature section coded over `table`.
pub(crate) fn record_body(rec: &RecordParts<'_>, table: &PoolSpec) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len32(rec.target);
    w.u8(if rec.feature.is_some() { STATUS_FITTED } else { STATUS_DROPPED });
    w.u64(rec.flops);
    w.u64(rec.transient);
    w.u64(rec.model_bytes);
    w.u64(rec.n_models);
    w.len32(rec.outcomes.len());
    for outcome in &rec.outcomes {
        write_event(&mut w, outcome);
    }
    if let Some(fm) = rec.feature {
        write_section(&mut w, fm, table);
    }
    w.finish()
}

/// Parse a binary (v2 or v3) record body: every field, every event, the
/// feature section of a fitted target (decoded by `section`), and nothing
/// after it.
fn parse_record_body(
    body: &[u8],
    section: impl FnOnce(&mut ByteReader<'_>) -> Result<FeatureModel, ByteError>,
) -> Result<TargetRecord, ByteError> {
    let mut r = ByteReader::new(body);
    let target = r.index("record target")?;
    let at = r.offset();
    let fitted = match r.u8("record status")? {
        STATUS_FITTED => true,
        STATUS_DROPPED => false,
        status => return Err(ByteError::new(at, format!("bad record status {status}"))),
    };
    let flops = r.u64("flops")?;
    let transient = r.u64("transient")?;
    let model_bytes = r.u64("model_bytes")?;
    let n_models = r.u64("n_models")?;
    let n_events = r.count("events", 1)?;
    let mut health = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        health.push(read_event(&mut r)?);
    }
    let feature = if fitted {
        let at = r.offset();
        let fm = section(&mut r)?;
        if fm.target != target {
            return Err(ByteError::new(
                at,
                format!("record for target {target} carries a model for target {}", fm.target),
            ));
        }
        Some(fm)
    } else {
        None
    };
    r.finish("record")?;
    Ok(TargetRecord { target, feature, health, flops, transient, model_bytes, n_models })
}

/// Parse one event line of a v1 (text) record.
fn parse_event(fields: &[&str]) -> Result<TargetOutcome, JournalError> {
    let bad = || JournalError::Corrupt(format!("bad event line: ev {}", fields.join(" ")));
    match fields.first().copied() {
        Some("sanitized") => {
            let cells = fields.get(1).and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            Ok(TargetOutcome::Sanitized { cells })
        }
        Some("quarantined") => {
            let reason = match fields.get(1).copied() {
                Some("allmissing") => QuarantineReason::AllMissing,
                Some("zerovariance") => QuarantineReason::ZeroVariance,
                Some("singleclass") => QuarantineReason::SingleClass {
                    class: fields.get(2).and_then(|v| v.parse().ok()).ok_or_else(bad)?,
                },
                Some("nonfinite") => QuarantineReason::NonFinite {
                    cells: fields.get(2).and_then(|v| v.parse().ok()).ok_or_else(bad)?,
                },
                _ => return Err(bad()),
            };
            Ok(TargetOutcome::Quarantined { reason })
        }
        Some("degraded") => {
            let member = fields.get(1).and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            let fallback = match fields.get(2).copied() {
                Some("strict") => FallbackKind::StrictSolver,
                Some("baseline") => FallbackKind::Baseline,
                _ => return Err(bad()),
            };
            Ok(TargetOutcome::Degraded {
                member,
                fallback,
                detail: fields[3..].join(" "),
            })
        }
        Some("memberdropped") => {
            let member = fields.get(1).and_then(|v| v.parse().ok()).ok_or_else(bad)?;
            Ok(TargetOutcome::MemberDropped { member, detail: fields[2..].join(" ") })
        }
        Some("dropped") => Ok(TargetOutcome::Dropped { reason: fields[1..].join(" ") }),
        _ => Err(bad()),
    }
}

/// Parse a v1 (text) record body, folding its encoders into `fold`.
fn parse_record_text(text: &str, fold: &mut LegacyFold) -> Result<TargetRecord, JournalError> {
    let corrupt = |e: frac_dataset::textio::TextError| JournalError::Corrupt(e.to_string());
    let mut r = TextReader::new(text);
    let target: usize = r.parse_one("target").map_err(corrupt)?;
    let status = r.expect("status").map_err(corrupt)?;
    let fitted = match status.first().copied() {
        Some("fitted") => true,
        Some("dropped") => false,
        other => {
            return Err(JournalError::Corrupt(format!(
                "bad record status `{}`",
                other.unwrap_or("")
            )))
        }
    };
    let flops: u64 = r.parse_one("flops").map_err(corrupt)?;
    let transient: u64 = r.parse_one("transient").map_err(corrupt)?;
    let model_bytes: u64 = r.parse_one("model_bytes").map_err(corrupt)?;
    let n_models: u64 = r.parse_one("n_models").map_err(corrupt)?;
    let n_events: usize = r.parse_one("events").map_err(corrupt)?;
    let mut health = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let fields = r.expect("ev").map_err(corrupt)?;
        health.push(parse_event(&fields)?);
    }
    let feature = if fitted {
        let fm = parse_feature(&mut r, fold).map_err(corrupt)?;
        if fm.target != target {
            return Err(JournalError::Corrupt(format!(
                "record for target {target} carries a model for target {}",
                fm.target
            )));
        }
        Some(fm)
    } else {
        None
    };
    Ok(TargetRecord { target, feature, health, flops, transient, model_bytes, n_models })
}

/// Reconstruct the [`TargetHealth`] events of a record (each event's target
/// is the record's target — the fit loop never emits cross-target events).
pub(crate) fn record_health(rec: &TargetRecord) -> Vec<TargetHealth> {
    rec.health
        .iter()
        .map(|outcome| TargetHealth { target: rec.target, outcome: outcome.clone() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            config_hash: 0xAB,
            dataset_fingerprint: 0xCD,
            plan_hash: 0xEF,
            planned: 3,
        }
    }

    /// The encoder table of a run whose plan reads no feature.
    fn table() -> PoolSpec {
        frac_dataset::SpecFold::new().finish()
    }

    fn dropped_record(target: usize) -> TargetRecord {
        TargetRecord {
            target,
            feature: None,
            health: vec![TargetOutcome::Dropped { reason: "all values missing".into() }],
            flops: 7,
            transient: 11,
            model_bytes: 0,
            n_models: 0,
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("frac-journal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn create_append_scan_roundtrip() {
        let path = tmp_path("roundtrip.fjr");
        std::fs::remove_file(&path).ok();
        let j = RunJournal::create(&path, &header(), &table()).unwrap();
        j.append(&dropped_record(0)).unwrap();
        j.append(&dropped_record(2)).unwrap();
        assert!(!j.is_broken());
        drop(j);

        let scan = RunJournal::scan(&path).unwrap();
        assert_eq!(scan.header, Some(header()));
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.record_ends.len(), 2);
        assert_eq!(scan.records[0].target, 0);
        assert_eq!(scan.records[1].target, 2);
        assert_eq!(scan.records[0].flops, 7);
        assert_eq!(
            scan.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "clean file is valid to the end"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp_path("torn.fjr");
        std::fs::remove_file(&path).ok();
        let j = RunJournal::create(&path, &header(), &table()).unwrap();
        j.append(&dropped_record(0)).unwrap();
        drop(j);
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-append: half a record frame.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"rec 999 0123ab").unwrap();
        drop(f);

        let (j, records) = RunJournal::open_or_create(&path, &header(), &table()).unwrap();
        assert_eq!(records.len(), 1);
        drop(j);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
    }

    #[test]
    fn header_mismatch_is_an_error_not_a_truncation() {
        let path = tmp_path("mismatch.fjr");
        std::fs::remove_file(&path).ok();
        let j = RunJournal::create(&path, &header(), &table()).unwrap();
        j.append(&dropped_record(1)).unwrap();
        drop(j);
        let other = JournalHeader { config_hash: 0x99, ..header() };
        match RunJournal::open_or_create(&path, &other, &table()) {
            Err(JournalError::Mismatch(m)) => {
                // The message names the differing hash with both values and
                // stays silent about the parts that agree.
                assert!(m.contains("config"), "{m}");
                assert!(m.contains("00000000000000ab"), "found hash missing: {m}");
                assert!(m.contains("0000000000000099"), "expected hash missing: {m}");
                assert!(!m.contains("dataset"), "dataset agrees, not named: {m}");
                assert!(!m.contains("plan"), "plan agrees, not named: {m}");
            }
            other => panic!("expected mismatch, got {:?}", other.err()),
        }
        // The file was not harmed.
        assert_eq!(RunJournal::scan(&path).unwrap().records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_starts_fresh_but_foreign_file_errors() {
        let path = tmp_path("tornheader.fjr");
        std::fs::write(&path, "fracjournal 1\nconfig 00000000000000ab\n").unwrap();
        let (j, records) = RunJournal::open_or_create(&path, &header(), &table()).unwrap();
        assert!(records.is_empty());
        drop(j);
        assert_eq!(RunJournal::scan(&path).unwrap().header, Some(header()));

        let foreign = tmp_path("foreign.txt");
        std::fs::write(&foreign, "definitely not a journal\n").unwrap();
        assert!(matches!(
            RunJournal::open_or_create(&foreign, &header(), &table()),
            Err(JournalError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&foreign).ok();
    }

    #[test]
    fn record_body_roundtrips_every_event_kind() {
        let rec = TargetRecord {
            target: 5,
            feature: None,
            health: vec![
                TargetOutcome::Sanitized { cells: 3 },
                TargetOutcome::Quarantined { reason: QuarantineReason::ZeroVariance },
                TargetOutcome::Quarantined {
                    reason: QuarantineReason::SingleClass { class: 2 },
                },
                TargetOutcome::Quarantined {
                    reason: QuarantineReason::NonFinite { cells: 9 },
                },
                TargetOutcome::Degraded {
                    member: 1,
                    fallback: FallbackKind::StrictSolver,
                    detail: "solver did not converge after 60 epochs".into(),
                },
                TargetOutcome::Degraded {
                    member: 0,
                    fallback: FallbackKind::Baseline,
                    detail: "panicked: multi\nline payload".into(),
                },
                TargetOutcome::MemberDropped { member: 2, detail: "baseline also failed".into() },
                TargetOutcome::Dropped { reason: "all 3 ensemble member fit(s) failed".into() },
            ],
            flops: 1,
            transient: 2,
            model_bytes: 3,
            n_models: 4,
        };
        let parse = |body: &[u8]| {
            let table = table();
            let mut sections = SectionReader::new(&table);
            parse_record_body(body, |r| parse_section(r, &mut sections))
        };
        let body = record_body(&rec.as_parts(), &table());
        let back = parse(&body).unwrap();
        assert_eq!(back.target, 5);
        // Every event survives as written, multi-line details included.
        assert_eq!(back.health, rec.health);
        assert_eq!(
            (back.flops, back.transient, back.model_bytes, back.n_models),
            (1, 2, 3, 4)
        );
        assert_eq!(record_body(&back.as_parts(), &table()), body, "one byte image per record");
        // A trailing byte, an unknown event tag and a bad status are
        // refused, each at its offset.
        let mut trailing = body.clone();
        trailing.push(0);
        let err = parse(&trailing).err().unwrap();
        assert!(err.to_string().contains("trailing byte"), "{err}");
        let first_event = 4 + 1 + 4 * 8 + 4;
        let mut unknown = body.clone();
        unknown[first_event] = 99;
        let err = parse(&unknown).err().unwrap();
        assert_eq!(err.offset, first_event, "{err}");
        assert!(err.to_string().contains("unknown event tag 99"), "{err}");
        let mut status = body;
        status[4] = 7;
        let err = parse(&status).err().unwrap();
        assert!(err.to_string().contains("bad record status 7"), "{err}");
    }

    #[test]
    fn a_frame_claiming_more_bytes_than_an_address_holds_ends_the_valid_region() {
        let path = tmp_path("hugeframe.fjr");
        std::fs::remove_file(&path).ok();
        let j = RunJournal::create(&path, &header(), &table()).unwrap();
        j.append(&dropped_record(0)).unwrap();
        drop(j);
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(format!("rec {} 00000000\nxyz", usize::MAX).as_bytes()).unwrap();
        drop(f);
        let scan = RunJournal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, intact);
        std::fs::remove_file(&path).ok();
    }

    /// A v1 journal (text bodies) as the v1 writer left it scans through
    /// the text reader, its records' encoders folded into one table;
    /// opening it for append rewrites it as v3 with the same records, so
    /// appends never mix encodings.
    #[test]
    fn v1_journals_scan_and_are_rewritten_as_v3_on_open() {
        let v1 = include_bytes!("../tests/fixtures/mixed-a.v1.frj");
        let scan = scan_bytes(v1).unwrap();
        let header = scan.header.unwrap();
        assert_eq!(scan.records.len(), 7);
        assert_eq!(scan.valid_len as usize, v1.len());
        let folded = scan.table.clone().expect("a v1 journal's records fold into a table");
        let path = tmp_path("upgrade.fjr");
        std::fs::write(&path, v1).unwrap();
        let (j, records) = RunJournal::open_or_create(&path, &header, &folded).unwrap();
        assert_eq!(records.len(), 7);
        j.append(&dropped_record(42)).unwrap();
        drop(j);
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"fracjournal 3\n"));
        let rescan = RunJournal::scan(&path).unwrap();
        assert_eq!(rescan.records.len(), 8);
        assert_eq!(rescan.table.unwrap().first_difference(&folded), None);
        for (a, b) in scan.records.iter().zip(&rescan.records) {
            assert_eq!(a.target, b.target);
            assert_eq!(a.health, b.health);
            assert_eq!(a.feature.is_some(), b.feature.is_some());
            // Inputs come back as the same explicit lists.
            let inputs = |r: &TargetRecord| {
                r.feature.iter().flat_map(|f| f.predictors.iter().map(|p| p.inputs.clone())).collect::<Vec<_>>()
            };
            assert_eq!(inputs(a), inputs(b));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_record_invalidates_only_the_tail() {
        let path = tmp_path("bitflip.fjr");
        std::fs::remove_file(&path).ok();
        let j = RunJournal::create(&path, &header(), &table()).unwrap();
        j.append(&dropped_record(0)).unwrap();
        j.append(&dropped_record(1)).unwrap();
        drop(j);
        let scan = RunJournal::scan(&path).unwrap();
        let second_start = scan.record_ends[0] as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt a byte inside the *second* record's body.
        let target = second_start + 30;
        bytes[target] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let rescan = RunJournal::scan(&path).unwrap();
        assert_eq!(rescan.records.len(), 1, "first record must survive");
        assert_eq!(rescan.valid_len, scan.record_ends[0]);
        std::fs::remove_file(&path).ok();
    }
}
