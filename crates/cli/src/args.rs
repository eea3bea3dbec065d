//! Argument parsing for `frac`, with no CLI dependency. Each subcommand
//! lists the flags it accepts; one scanner reads argv against that list,
//! and typed getters check each value. The serve and shard knobs start
//! from frac-core's [`ServeConfig`] and [`ShardOptions`] defaults.

use frac_core::{FaultPlan, FracConfig, ServeConfig, ShardOptions};
use frac_synth::registry::{lookup, PAPER_DATASETS};
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Duration;

/// Full usage text.
pub const USAGE: &str = "\
frac — FRaC anomaly detection for precision medicine (IPPS 2017 reproduction)

USAGE:
  frac train --train FILE --out FILE [OPTIONS]
      Fit a FRaC model on an all-normal cohort and save it.
        --variant NAME     full | filter | entropy (single-model variants)
        --p FLOAT          keep fraction for filtering variants (default 0.05)
        --snp              use decision trees everywhere (SNP data)
        --seed N           master seed (default 42)
        --journal FILE     write-ahead journal: each finished target is
                           checkpointed so a killed run can be resumed
        --deadline DUR     wall-clock budget (e.g. 500ms, 2s, 5m); targets
                           still unfitted at the deadline degrade to
                           baseline predictors and the run exits cleanly
        --shards N         split the fit across N supervised worker
                           processes (requires --journal). Each worker
                           journals its own shard (FILE.s<k>-<N>); dead or
                           stalled workers are restarted with backoff, and
                           the merged model is bit-identical to a
                           single-process run
        --shard-retries N  worker restarts per shard before the supervisor
                           reclaims the shard in-process (default 3)
        --shard-heartbeat DUR
                           kill a worker whose shard journal has not grown
                           for DUR (default 30s)
        --shard-backoff DUR
                           base restart delay, doubling per restart
                           (default 250ms)
        --telemetry FILE   record a span-level trace of the fit (where
                           each target's time went) and write it here:
                           self-describing TSV, or JSON if FILE ends in
                           .json; inspect with `frac inspect-telemetry`

  frac resume --train FILE --out FILE --journal FILE [OPTIONS]
      Continue a journaled `train` run that was killed or hit its
      deadline. Takes the same OPTIONS as train; data, variant, and seed
      must match the original run (the journal header is verified).
      Already-completed targets are loaded from the journal, the rest are
      fitted, and the result is bit-identical to an uninterrupted run.
      To resume a `--shards` run, repeat --journal once per shard journal
      or point a single --journal at the directory containing them; each
      shard journal is verified separately.

  frac score --train FILE --test FILE [OPTIONS]
  frac score --model FILE --test FILE [--labels FILE] [--top-features K]
      Score test samples against an all-normal training cohort, or against
      a previously saved model (train once, screen forever). A saved model
      scores as it was fitted, so --model refuses the fit flags below
      (--train, --variant, --p, --members, --dim, --snp, --seed).
        --variant NAME     full | filter | filter-ens | entropy | diverse | jl
                           (default: filter-ens, the paper's recommendation)
        --p FLOAT          keep fraction / inclusion probability (default 0.05)
        --members N        ensemble members (default 10)
        --dim N            JL projected dimension (default 64)
        --snp              use decision trees everywhere (SNP data)
        --seed N           master seed (default 42)
        --labels FILE      one 0/1 per test row; prints AUC when given
        --top-features K   print each sample's K highest-contributing features

  frac entropy --data FILE [--top K]
      Rank features by estimated entropy (the entropy filter's criterion).

  frac inspect-telemetry --file FILE [--top K]
      Summarize a telemetry trace written by `train --telemetry`: per-stage
      time table, counters, and the K slowest targets (default 10).

  frac serve --model FILE --schema FILE [OPTIONS]
      Long-lived scoring daemon: load the model once (CRC-verified), then
      score streaming records. Reads line-oriented requests — TSV rows in
      schema order, flat JSON objects, or `cmd ping|stats|reload|stop` —
      and answers `ns <line> <score>` / `err <line> <reason>` /
      `busy <line>` on the same connection. SIGHUP hot-reloads the model
      (validated off-path, rolled back on failure); SIGTERM drains and
      exits cleanly. Scores are bit-identical to `frac score`.
        --schema FILE      TSV whose header defines the record layout
                           (usually the training file; only the header
                           line is read)
        --listen ADDR      serve a TCP socket, e.g. 127.0.0.1:7878
                           (default: stdin/stdout pipe mode; ADDR with
                           port 0 picks a free port, printed to stderr)
        --batch-max N      most records scored per batch (default 64)
        --queue-cap N      admission queue bound; a full queue answers
                           `busy` instead of buffering (default 1024)
        --request-timeout DUR
                           per-request deadline; requests queued longer
                           get a timeout error (default 5s)
        --drain-timeout DUR
                           bound on the shutdown drain (default 5s)
        --max-line-bytes N longest accepted request line (default 1048576)
        --telemetry FILE   write a serve telemetry trace on exit (latency
                           percentiles, shed/quarantine counters); view
                           with `frac inspect-telemetry`

  frac generate --dataset NAME --out DIR [--seed N]
      Write a paper-surrogate data set as train/test TSVs.
      NAME ∈ {breast.basal, biomarkers, ethnic, bild, smokers2,
              hematopoiesis, autism, schizophrenia}

  frac pack --data FILE.tsv --out FILE.fcb [--chunk-rows N]
      Convert a TSV data set to FCB, the checksummed binary column format
      (byte layout in FORMATS.md). Packing streams: at most --chunk-rows
      rows (default 8192) are in memory at once, so data sets larger than
      RAM pack fine, and the output file appears atomically (tmp + fsync
      + rename). Example:
        frac pack --data train.tsv --out train.fcb
        frac train --train train.fcb --out model.frac

  frac info --data FILE.fcb
      Validate an FCB file (magic, version, geometry, and every CRC) and
      print its header: rows, features, schema fingerprint, file
      checksum, and per-column kind/missing-count/CRC. Example:
        frac info --data train.fcb

  Every file flag that reads a data set (--train, --test, --data,
  --schema) accepts either format: files ending in .fcb are
  memory-mapped and verified, anything else is parsed as TSV. Scores
  are bit-identical either way.

  frac help
      Print this text.";

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `frac train`
    Train(TrainArgs),
    /// `frac resume` — continue a journaled train run.
    Resume(TrainArgs),
    /// `frac score`
    Score(ScoreArgs),
    /// `frac entropy`
    Entropy {
        /// Input data file.
        data: PathBuf,
        /// How many features to print.
        top: usize,
    },
    /// `frac inspect-telemetry` — summarize a `--telemetry` trace file.
    InspectTelemetry {
        /// Telemetry TSV written by `train --telemetry`.
        file: PathBuf,
        /// How many slowest targets to print.
        top: usize,
    },
    /// `frac serve` — long-lived scoring daemon.
    Serve(ServeArgs),
    /// `frac pack` — convert a TSV data set to the FCB binary format.
    Pack {
        /// Input TSV path.
        data: PathBuf,
        /// Output FCB path.
        out: PathBuf,
        /// Rows buffered per write chunk (the encode memory budget).
        chunk_rows: usize,
    },
    /// `frac info` — validate an FCB file and print its header.
    Info {
        /// FCB file to inspect.
        data: PathBuf,
    },
    /// `frac generate`
    Generate {
        /// Registry data-set name.
        dataset: String,
        /// Output directory.
        out: PathBuf,
        /// Cohort seed.
        seed: u64,
    },
    /// `frac help`
    Help,
}

/// The fit flags `train`, `resume` and `score` share.
#[derive(Debug, Clone, PartialEq)]
pub struct FitArgs {
    /// Reference-cohort data set.
    pub train: PathBuf,
    /// Variant name, one the subcommand accepts.
    pub variant: String,
    /// Keep fraction / inclusion probability, in (0, 1].
    pub p: f64,
    /// Tree models everywhere (SNP data)?
    pub snp: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for FitArgs {
    fn default() -> Self {
        FitArgs { train: PathBuf::new(), variant: "full".into(), p: 0.05, snp: false, seed: 42 }
    }
}

impl FitArgs {
    /// The fit configuration these flags select.
    pub fn config(&self) -> FracConfig {
        let config = if self.snp { FracConfig::snp() } else { FracConfig::default() };
        config.with_seed(self.seed)
    }
}

/// Arguments of `frac train` and `frac resume`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainArgs {
    /// What to fit.
    pub fit: FitArgs,
    /// Output model path.
    pub out: PathBuf,
    /// Write-ahead journal paths (checkpoint every finished target).
    /// `train` takes at most one; `resume` accepts several (one per shard
    /// of a `--shards` run) or a directory containing them.
    pub journals: Vec<PathBuf>,
    /// Wall-clock budget for the whole fit.
    pub deadline: Option<Duration>,
    /// Split the fit across this many supervised worker processes.
    pub shards: Option<usize>,
    /// Hidden worker mode: run shard `.0` of `.1` and exit (the supervisor
    /// re-invokes the binary with this flag; not part of the public UI).
    pub shard_worker: Option<(usize, usize)>,
    /// Hidden fault injection for the supervisor's process-level fault
    /// harness, from `--shard-fault` (e.g. `crashloop:1,abort-after:0:3`).
    pub shard_faults: FaultPlan,
    /// Supervisor knobs: `--shard-retries`, `--shard-heartbeat` and
    /// `--shard-backoff` over [`ShardOptions::default`].
    pub shard_options: ShardOptions,
    /// Telemetry trace output path (TSV, or JSON for a `.json` extension).
    pub telemetry: Option<PathBuf>,
}

impl TrainArgs {
    /// The single journal path of a non-sharded run (`train` enforces at
    /// most one `--journal`).
    pub fn journal(&self) -> Option<&PathBuf> {
        self.journals.first()
    }
}

/// Arguments of `frac score`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreArgs {
    pub fit: FitArgs,
    pub model: Option<PathBuf>,
    pub test: PathBuf,
    pub members: usize,
    pub dim: usize,
    pub labels: Option<PathBuf>,
    pub top_features: usize,
}

impl Default for ScoreArgs {
    fn default() -> Self {
        ScoreArgs {
            fit: FitArgs { variant: "filter-ens".into(), ..FitArgs::default() },
            model: None,
            test: PathBuf::new(),
            members: 10,
            dim: 64,
            labels: None,
            top_features: 0,
        }
    }
}

/// Arguments of `frac serve`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeArgs {
    /// Saved model to serve (CRC-verified at startup and on reload).
    pub model: PathBuf,
    /// TSV whose header defines the record layout (only the header is read).
    pub schema: PathBuf,
    /// TCP listen address; `None` = stdin/stdout pipe mode.
    pub listen: Option<String>,
    /// Daemon knobs: `--batch-max`, `--queue-cap`, `--request-timeout`,
    /// `--drain-timeout` and `--max-line-bytes` over [`ServeConfig::default`].
    pub config: ServeConfig,
    /// Where to write the serve telemetry trace on exit, if anywhere.
    pub telemetry: Option<PathBuf>,
}

/// Parse a human duration: `500ms`, `2s`, `5m`, `1h`, or a bare number of
/// seconds. Fractions are fine (`1.5s`, `0.25m`, `0.5h`).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let (number, scale) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60.0)
    } else if let Some(n) = s.strip_suffix('h') {
        (n, 3600.0)
    } else {
        (s, 1.0)
    };
    let value: f64 = number
        .parse()
        .map_err(|_| format!("bad duration `{s}` (expected e.g. 500ms, 2s, 5m, 1h)"))?;
    if !(value.is_finite() && value > 0.0) {
        return Err(format!("duration `{s}` must be positive and finite"));
    }
    match Duration::try_from_secs_f64(value * scale) {
        // Under half a nanosecond rounds to zero, which no knob accepts.
        Ok(d) if d.is_zero() => Err(format!("duration `{s}` is shorter than 1ns")),
        Ok(d) => Ok(d),
        Err(_) => Err(format!("duration `{s}` is too long")),
    }
}

/// Every flag takes the next argument as its value, except these.
const SWITCHES: [&str; 1] = ["--snp"];

const FIT_FLAGS: &str = "--train --variant --p --snp --seed";
/// The fit flags only `score` takes: its ensembles and projections.
const SCORE_FIT_FLAGS: &str = "--members --dim";
const TRAIN_FLAGS: &str = "--out --journal --deadline --shards --shard-worker --shard-fault \
                           --shard-retries --shard-heartbeat --shard-backoff --telemetry";
const SERVE_FLAGS: &str = "--model --schema --listen --batch-max --queue-cap --request-timeout \
                           --drain-timeout --max-line-bytes --telemetry";

const TRAIN_VARIANTS: &[&str] = &["full", "filter", "entropy"];
const SCORE_VARIANTS: &[&str] = &["full", "filter", "filter-ens", "entropy", "diverse", "jl"];

/// A subcommand: its name, the flags it accepts (in whitespace-separated
/// groups), and how its command is built from the flags given.
type Subcommand = (&'static str, &'static [&'static str], fn(&Flags) -> Result<Command, String>);

const SUBCOMMANDS: [Subcommand; 9] = [
    ("train", &[FIT_FLAGS, TRAIN_FLAGS], train),
    ("resume", &[FIT_FLAGS, TRAIN_FLAGS], resume),
    ("score", &[FIT_FLAGS, SCORE_FIT_FLAGS, "--model --test --labels --top-features"], score),
    ("entropy", &["--data --top"], entropy),
    ("inspect-telemetry", &["--file --top"], inspect_telemetry),
    ("serve", &[SERVE_FLAGS], serve),
    ("pack", &["--data --out --chunk-rows"], pack),
    ("info", &["--data"], info),
    ("generate", &["--dataset --out --seed"], generate),
];

/// Parse an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let sub = argv.first().map(String::as_str).unwrap_or("help");
    if matches!(sub, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let (_, accepted, build) = SUBCOMMANDS
        .iter()
        .find(|(name, ..)| *name == sub)
        .ok_or_else(|| format!("unknown subcommand `{sub}`"))?;
    build(&Flags::scan(sub, &argv[1..], accepted)?)
}

/// The flags given to one subcommand, in argv order.
struct Flags<'a> {
    sub: &'a str,
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Read `args` (the argv after subcommand `sub`) against the flags it
    /// accepts. A switch's value is empty; any other flag takes the next
    /// argument as its value, whatever it looks like.
    fn scan(sub: &'a str, args: &'a [String], accepted: &[&str]) -> Result<Self, String> {
        let mut given = Vec::new();
        let mut rest = args.iter().map(String::as_str);
        while let Some(flag) = rest.next() {
            if !accepted.iter().any(|flags| flags.split_whitespace().any(|a| a == flag)) {
                return Err(format!("unknown flag `{flag}` for {sub}"));
            }
            let value = if SWITCHES.contains(&flag) {
                ""
            } else {
                rest.next().ok_or_else(|| format!("{flag} requires a value"))?
            };
            given.push((flag, value));
        }
        Ok(Flags { sub, given })
    }

    /// Every value given for `flag`, in order.
    fn values<'f>(&'f self, flag: &'f str) -> impl Iterator<Item = &'a str> + 'f {
        self.given.iter().filter(move |(g, _)| *g == flag).map(|&(_, v)| v)
    }

    /// The value that counts for a single-value flag: the last one given.
    fn last(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).last()
    }

    /// Refuse a command that misses one of `flags`, or gives it empty.
    fn require(&self, flags: &[&str]) -> Result<(), String> {
        if flags.iter().all(|flag| self.last(flag).is_some_and(|v| !v.is_empty())) {
            Ok(())
        } else {
            Err(format!("{} requires {}", self.sub, flags.join(" and ")))
        }
    }

    /// The last value of `flag`, read by `read`. Every value given is read,
    /// so a bad one is refused even when a later one is good.
    fn get<T>(
        &self,
        flag: &str,
        read: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.values(flag).try_fold(None, |_, v| read(v).map(Some))
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.last(flag).map(PathBuf::from)
    }

    fn float(&self, flag: &str) -> Result<Option<f64>, String> {
        self.get(flag, |v| v.parse().map_err(|_| format!("{flag} expects a float")))
    }

    fn integer<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag, |v| v.parse().map_err(|_| format!("{flag} expects an integer")))
    }

    /// An integer >= 1: a size, or a number of things that must not be none.
    fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        self.get(flag, |v| {
            v.parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("{flag} expects an integer >= 1"))
        })
    }

    fn duration(&self, flag: &str) -> Result<Option<Duration>, String> {
        self.get(flag, parse_duration)
    }
}

/// The fit flags over `d`'s defaults; `--variant` must name one of
/// `variants`.
fn fit_args(f: &Flags, d: FitArgs, variants: &[&str]) -> Result<FitArgs, String> {
    let variant = f.get("--variant", |v| {
        if variants.contains(&v) {
            Ok(v.to_string())
        } else {
            Err(format!("unknown {} variant `{v}` ({})", f.sub, variants.join(" | ")))
        }
    })?;
    let a = FitArgs {
        train: f.path("--train").unwrap_or(d.train),
        variant: variant.unwrap_or(d.variant),
        p: f.float("--p")?.unwrap_or(d.p),
        snp: f.last("--snp").is_some(),
        seed: f.integer("--seed")?.unwrap_or(d.seed),
    };
    if !(a.p > 0.0 && a.p <= 1.0) {
        return Err("--p must be in (0, 1]".into());
    }
    Ok(a)
}

/// The flags of `train` and `resume`.
fn train_args(f: &Flags) -> Result<TrainArgs, String> {
    f.require(&["--train", "--out"])?;
    let d = TrainArgs::default();
    let a = TrainArgs {
        fit: fit_args(f, d.fit, TRAIN_VARIANTS)?,
        out: f.path("--out").unwrap_or_default(),
        journals: f.values("--journal").map(PathBuf::from).collect(),
        deadline: f.duration("--deadline")?,
        shards: f.count("--shards")?,
        shard_worker: f.get("--shard-worker", parse_shard_worker)?,
        shard_faults: f.get("--shard-fault", parse_shard_faults)?.unwrap_or_default(),
        shard_options: ShardOptions {
            retry_budget: f.integer("--shard-retries")?.unwrap_or(d.shard_options.retry_budget),
            heartbeat_timeout: f
                .duration("--shard-heartbeat")?
                .unwrap_or(d.shard_options.heartbeat_timeout),
            backoff_base: f.duration("--shard-backoff")?.unwrap_or(d.shard_options.backoff_base),
            ..d.shard_options
        },
        telemetry: f.path("--telemetry"),
    };
    if f.sub == "train" && a.journals.len() > 1 {
        return Err("train takes at most one --journal (resume accepts several)".into());
    }
    if a.shards.is_some() && a.shard_worker.is_some() {
        return Err("--shards and --shard-worker are mutually exclusive".into());
    }
    if (a.shards.is_some() || a.shard_worker.is_some()) && a.journals.len() != 1 {
        return Err("--shards needs exactly one --journal (the shard journal base)".into());
    }
    Ok(a)
}

fn train(f: &Flags) -> Result<Command, String> {
    Ok(Command::Train(train_args(f)?))
}

fn resume(f: &Flags) -> Result<Command, String> {
    let a = train_args(f)?;
    if a.journals.is_empty() {
        return Err("resume requires --journal".into());
    }
    Ok(Command::Resume(a))
}

/// `--shard-worker K/N`, with K < N.
fn parse_shard_worker(spec: &str) -> Result<(usize, usize), String> {
    let parsed = spec.split_once('/').and_then(|(k, n)| Some((k.parse().ok()?, n.parse().ok()?)));
    match parsed {
        Some((k, n)) if k < n => Ok((k, n)),
        _ => Err(format!("--shard-worker expects K/N with K < N, got `{spec}`")),
    }
}

/// Parse the hidden `--shard-fault` spec (comma-separated `crashloop:K` /
/// `abort-after:K:N`) into a process-level [`FaultPlan`].
fn parse_shard_faults(spec: &str) -> Result<FaultPlan, String> {
    let bad = |part: &str| format!("bad --shard-fault `{part}` (crashloop:K | abort-after:K:N)");
    let mut plan = FaultPlan::none();
    for part in spec.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        plan = match fields.as_slice() {
            ["crashloop", k] => plan.with_crashloop_at([k.parse().map_err(|_| bad(part))?]),
            ["abort-after", k, n] => plan.with_abort_after(
                k.parse().map_err(|_| bad(part))?,
                n.parse().map_err(|_| bad(part))?,
            ),
            _ => return Err(bad(part)),
        };
    }
    Ok(plan)
}

/// The argv (after the program name) that runs shard `k` of `n` of the
/// `train` run `a` as a worker journaling under `base`, with `remaining`
/// of the run's deadline. [`parse`] reads it back to the same fit.
pub fn worker_argv(
    a: &TrainArgs,
    base: &Path,
    k: usize,
    n: usize,
    remaining: Option<Duration>,
) -> Vec<OsString> {
    let fit = &a.fit;
    let mut argv = vec![OsString::from("train")];
    for (flag, value) in [
        ("--train", fit.train.as_os_str()),
        ("--out", a.out.as_os_str()),
        ("--variant", fit.variant.as_ref()),
        ("--p", fit.p.to_string().as_ref()),
        ("--seed", fit.seed.to_string().as_ref()),
        ("--journal", base.as_os_str()),
        ("--shard-worker", format!("{k}/{n}").as_ref()),
    ] {
        argv.extend([flag.into(), value.into()]);
    }
    if fit.snp {
        argv.push("--snp".into());
    }
    if let Some(d) = remaining {
        // Deadlines don't cross process boundaries as instants; a
        // duration re-anchored at worker startup does.
        argv.extend(["--deadline".into(), format!("{}ms", d.as_millis().max(1)).into()]);
    }
    argv
}

fn score(f: &Flags) -> Result<Command, String> {
    if f.last("--model").is_some() {
        let mut fit_flags = [FIT_FLAGS, SCORE_FIT_FLAGS]
            .into_iter()
            .flat_map(str::split_whitespace);
        if let Some(flag) = fit_flags.find(|flag| f.last(flag).is_some()) {
            return Err(format!(
                "score --model takes no {flag}: a saved model scores as it was fitted"
            ));
        }
    }
    let d = ScoreArgs::default();
    let a = ScoreArgs {
        fit: fit_args(f, d.fit, SCORE_VARIANTS)?,
        model: f.path("--model"),
        test: f.path("--test").unwrap_or_default(),
        members: f.count("--members")?.unwrap_or(d.members),
        dim: f.count("--dim")?.unwrap_or(d.dim),
        labels: f.path("--labels"),
        top_features: f.integer("--top-features")?.unwrap_or(d.top_features),
    };
    if a.test.as_os_str().is_empty() || (a.fit.train.as_os_str().is_empty() && a.model.is_none()) {
        return Err("score requires --test and one of --train / --model".into());
    }
    Ok(Command::Score(a))
}

fn serve(f: &Flags) -> Result<Command, String> {
    f.require(&["--model", "--schema"])?;
    let d = ServeConfig::default();
    Ok(Command::Serve(ServeArgs {
        model: f.path("--model").unwrap_or_default(),
        schema: f.path("--schema").unwrap_or_default(),
        listen: f.last("--listen").map(str::to_string),
        config: ServeConfig {
            batch_max: f.count("--batch-max")?.unwrap_or(d.batch_max),
            queue_cap: f.count("--queue-cap")?.unwrap_or(d.queue_cap),
            request_timeout: f.duration("--request-timeout")?.unwrap_or(d.request_timeout),
            drain_timeout: f.duration("--drain-timeout")?.unwrap_or(d.drain_timeout),
            max_line_bytes: f.count("--max-line-bytes")?.unwrap_or(d.max_line_bytes),
            ..d
        },
        telemetry: f.path("--telemetry"),
    }))
}

fn entropy(f: &Flags) -> Result<Command, String> {
    f.require(&["--data"])?;
    let top = f.integer("--top")?.unwrap_or(20);
    Ok(Command::Entropy { data: f.path("--data").unwrap_or_default(), top })
}

fn inspect_telemetry(f: &Flags) -> Result<Command, String> {
    f.require(&["--file"])?;
    let top = f.integer("--top")?.unwrap_or(10);
    Ok(Command::InspectTelemetry { file: f.path("--file").unwrap_or_default(), top })
}

fn pack(f: &Flags) -> Result<Command, String> {
    f.require(&["--data", "--out"])?;
    Ok(Command::Pack {
        data: f.path("--data").unwrap_or_default(),
        out: f.path("--out").unwrap_or_default(),
        chunk_rows: f.count("--chunk-rows")?.unwrap_or(8192),
    })
}

fn info(f: &Flags) -> Result<Command, String> {
    f.require(&["--data"])?;
    Ok(Command::Info { data: f.path("--data").unwrap_or_default() })
}

fn generate(f: &Flags) -> Result<Command, String> {
    f.require(&["--dataset", "--out"])?;
    let dataset = f.last("--dataset").unwrap_or_default().to_string();
    let unknown = || format!("unknown dataset `{dataset}`; valid names: {PAPER_DATASETS:?}");
    let seed = match f.integer("--seed")? {
        Some(seed) => seed,
        None => lookup(&dataset).ok_or_else(unknown)?.default_seed,
    };
    Ok(Command::Generate { dataset, out: f.path("--out").unwrap_or_default(), seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_minimal_score() {
        let cmd = parse(&argv("score --train a.tsv --test b.tsv")).unwrap();
        match cmd {
            Command::Score(a) => {
                assert_eq!(a.fit.train, PathBuf::from("a.tsv"));
                assert_eq!(a.fit.variant, "filter-ens");
                assert_eq!(a.members, 10);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_all_score_flags() {
        let cmd = parse(&argv(
            "score --train a --test b --variant jl --dim 32 --p 0.1 --members 4 \
             --snp --seed 7 --labels l.txt --top-features 5",
        ))
        .unwrap();
        match cmd {
            Command::Score(a) => {
                assert_eq!(a.fit.variant, "jl");
                assert_eq!(a.dim, 32);
                assert_eq!(a.fit.p, 0.1);
                assert_eq!(a.members, 4);
                assert!(a.fit.snp);
                assert_eq!(a.fit.seed, 7);
                assert_eq!(a.labels, Some(PathBuf::from("l.txt")));
                assert_eq!(a.top_features, 5);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn score_requires_both_files() {
        assert!(parse(&argv("score --train a.tsv")).is_err());
    }

    #[test]
    fn rejects_bad_p() {
        assert!(parse(&argv("score --train a --test b --p 1.5")).is_err());
        assert!(parse(&argv("score --train a --test b --p abc")).is_err());
    }

    #[test]
    fn rejects_empty_ensembles_and_projections() {
        // Zero would reach the ensemble and JL constructors' asserts.
        assert_eq!(
            parse(&argv("score --train a --test b --members 0")).unwrap_err(),
            "--members expects an integer >= 1"
        );
        assert_eq!(
            parse(&argv("score --train a --test b --variant jl --dim 0")).unwrap_err(),
            "--dim expects an integer >= 1"
        );
    }

    #[test]
    fn score_with_a_saved_model_refuses_every_fit_flag() {
        let outputs = "score --model m --test b --labels l --top-features 3";
        assert!(parse(&argv(outputs)).is_ok());
        for flag in ["--train", "--variant", "--p", "--snp", "--seed", "--members", "--dim"] {
            let value = if flag == "--snp" { "" } else { " 1" };
            let err = parse(&argv(&format!("score --model m --test b {flag}{value}"))).unwrap_err();
            assert_eq!(
                err,
                format!("score --model takes no {flag}: a saved model scores as it was fitted")
            );
        }
    }

    #[test]
    fn parses_entropy_and_generate() {
        assert_eq!(
            parse(&argv("entropy --data x.tsv --top 5")).unwrap(),
            Command::Entropy { data: "x.tsv".into(), top: 5 }
        );
        match parse(&argv("generate --dataset autism --out /tmp/x")).unwrap() {
            Command::Generate { dataset, seed, .. } => {
                assert_eq!(dataset, "autism");
                // Default seed comes from the registry.
                assert_eq!(seed, frac_synth::registry::spec("autism").default_seed);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn unknown_flags_and_subcommands_rejected() {
        assert!(parse(&argv("score --train a --test b --bogus 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn unknown_variants_are_refused_naming_the_accepted_ones() {
        assert_eq!(
            parse(&argv("train --train a --out m --variant jl")).unwrap_err(),
            "unknown train variant `jl` (full | filter | entropy)"
        );
        assert_eq!(
            parse(&argv("score --train a --test b --variant bogus")).unwrap_err(),
            "unknown score variant `bogus` (full | filter | filter-ens | entropy | diverse | jl)"
        );
        for name in ["full", "filter", "entropy"] {
            let cmd = format!("resume --train a --out m --journal j --variant {name}");
            assert!(parse(&argv(&cmd)).is_ok(), "{name}");
        }
    }

    #[test]
    fn generate_with_unknown_dataset_is_an_error_not_a_panic() {
        let err = parse(&argv("generate --dataset nope --out /tmp/x")).unwrap_err();
        assert!(err.contains("unknown dataset `nope`"), "{err}");
        assert!(err.contains("breast.basal"), "should list valid names: {err}");
        // An explicit seed defers the name check to the generate command.
        assert!(parse(&argv("generate --dataset nope --out /tmp/x --seed 1")).is_ok());
    }

    #[test]
    fn parses_pack_and_info() {
        assert_eq!(
            parse(&argv("pack --data a.tsv --out a.fcb")).unwrap(),
            Command::Pack { data: "a.tsv".into(), out: "a.fcb".into(), chunk_rows: 8192 }
        );
        assert_eq!(
            parse(&argv("pack --data a.tsv --out a.fcb --chunk-rows 64")).unwrap(),
            Command::Pack { data: "a.tsv".into(), out: "a.fcb".into(), chunk_rows: 64 }
        );
        assert_eq!(
            parse(&argv("info --data a.fcb")).unwrap(),
            Command::Info { data: "a.fcb".into() }
        );
        assert!(parse(&argv("pack --data a.tsv")).is_err());
        assert!(parse(&argv("pack --data a.tsv --out a.fcb --chunk-rows 0")).is_err());
        assert!(parse(&argv("info")).is_err());
        assert!(parse(&argv("info --bogus x")).is_err());
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_durations() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2s").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_duration("5m").unwrap(), Duration::from_secs(300));
        assert_eq!(parse_duration("7").unwrap(), Duration::from_secs(7));
        assert_eq!(parse_duration("1.5s").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert_eq!(parse_duration("0.5h").unwrap(), Duration::from_secs(1800));
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("-2s").is_err());
        assert!(parse_duration("0s").is_err());
        assert!(parse_duration("-1h").is_err());
        assert!(parse_duration("").is_err());
        assert!(parse_duration("h").is_err());
        // Past `Duration::MAX` is a usage error naming the value, not a
        // panic; just below it parses (a deadline past the clock's range
        // then never trips, see `RunBudget::with_deadline`).
        let err = parse_duration("1e20s").unwrap_err();
        assert!(err.contains("`1e20s`") && err.contains("too long"), "{err}");
        assert!(parse_duration("1e300h").is_err());
        let just_below = Duration::from_secs(10_000_000_000_000_000_000);
        assert_eq!(parse_duration("1e19s").unwrap(), just_below);
        // Under half a nanosecond rounds to zero, which is refused like `0s`.
        let err = parse_duration("1e-10s").unwrap_err();
        assert!(err.contains("`1e-10s`"), "{err}");
        assert_eq!(parse_duration("1e-9s").unwrap(), Duration::from_nanos(1));
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        match parse(&argv("serve --model m.frac --schema train.tsv")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.model, PathBuf::from("m.frac"));
                assert_eq!(a.schema, PathBuf::from("train.tsv"));
                assert_eq!(a.listen, None);
                assert_eq!(a.config.batch_max, 64);
                assert_eq!(a.config.queue_cap, 1024);
                assert_eq!(a.config.request_timeout, Duration::from_secs(5));
                assert_eq!(a.config.drain_timeout, Duration::from_secs(5));
                assert_eq!(a.config.max_line_bytes, 1 << 20);
                assert_eq!(a.telemetry, None);
            }
            _ => panic!(),
        }
        match parse(&argv(
            "serve --model m --schema s --listen 127.0.0.1:0 --batch-max 8 \
             --queue-cap 2 --request-timeout 250ms --drain-timeout 1h \
             --max-line-bytes 4096 --telemetry t.tsv",
        ))
        .unwrap()
        {
            Command::Serve(a) => {
                assert_eq!(a.listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(a.config.batch_max, 8);
                assert_eq!(a.config.queue_cap, 2);
                assert_eq!(a.config.request_timeout, Duration::from_millis(250));
                assert_eq!(a.config.drain_timeout, Duration::from_secs(3600));
                assert_eq!(a.config.max_line_bytes, 4096);
                assert_eq!(a.telemetry, Some(PathBuf::from("t.tsv")));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn serve_validates_its_flags() {
        assert!(parse(&argv("serve --model m.frac")).is_err());
        assert!(parse(&argv("serve --schema s.tsv")).is_err());
        assert!(parse(&argv("serve --model m --schema s --batch-max 0")).is_err());
        assert!(parse(&argv("serve --model m --schema s --queue-cap 0")).is_err());
        assert!(parse(&argv("serve --model m --schema s --request-timeout 0s")).is_err());
        assert!(parse(&argv("serve --model m --schema s --bogus 1")).is_err());
    }

    #[test]
    fn parses_train_journal_and_deadline() {
        let cmd = parse(&argv(
            "train --train a.tsv --out m.frac --journal j.frj --deadline 2s",
        ))
        .unwrap();
        match cmd {
            Command::Train(a) => {
                assert_eq!(a.journal(), Some(&PathBuf::from("j.frj")));
                assert_eq!(a.deadline, Some(Duration::from_secs(2)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_shard_flags() {
        let cmd = parse(&argv(
            "train --train a.tsv --out m.frac --journal j.frj --shards 4 \
             --shard-retries 2 --shard-heartbeat 10s --shard-backoff 100ms",
        ))
        .unwrap();
        match cmd {
            Command::Train(a) => {
                assert_eq!(a.shards, Some(4));
                assert_eq!(a.shard_options.retry_budget, 2);
                assert_eq!(a.shard_options.heartbeat_timeout, Duration::from_secs(10));
                assert_eq!(a.shard_options.backoff_base, Duration::from_millis(100));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn shard_flags_are_validated() {
        // --shards needs a journal to shard.
        assert!(parse(&argv("train --train a --out m --shards 2")).is_err());
        assert!(parse(&argv("train --train a --out m --journal j --shards 0")).is_err());
        // Worker mode parses K/N and rejects K >= N.
        match parse(&argv(
            "train --train a --out m --journal j --shard-worker 1/3",
        ))
        .unwrap()
        {
            Command::Train(a) => assert_eq!(a.shard_worker, Some((1, 3))),
            _ => panic!(),
        }
        assert!(parse(&argv(
            "train --train a --out m --journal j --shard-worker 3/3"
        ))
        .is_err());
        assert!(parse(&argv(
            "train --train a --out m --journal j --shards 2 --shard-worker 0/2"
        ))
        .is_err());
        // Plain train takes at most one journal.
        assert!(parse(&argv(
            "train --train a --out m --journal j1 --journal j2"
        ))
        .is_err());
    }

    #[test]
    fn shard_fault_specs_parse_and_reject() {
        let plan = parse_shard_faults("crashloop:1,abort-after:0:3").unwrap();
        assert!(plan.crashloop_shards.contains(&1));
        assert_eq!(plan.abort_after_records.get(&0), Some(&3));
        for bad in ["crashloop", "crashloop:x", "abort-after:1", "nonsense:2"] {
            assert!(parse_shard_faults(bad).is_err(), "{bad}");
        }
        // A bad spec is a usage error, before any input is read.
        let err = parse(&argv("train --train a --out m --journal j --shards 2 --shard-fault x:1"))
            .unwrap_err();
        assert_eq!(err, "bad --shard-fault `x:1` (crashloop:K | abort-after:K:N)");
    }

    /// The supervisor's worker argv reads back to the same fit, journal
    /// base, shard and deadline, so a worker never refuses its arguments.
    #[test]
    fn worker_argv_parses_back_to_the_same_fit() {
        let runs = [
            FitArgs { train: "a.tsv".into(), ..FitArgs::default() },
            FitArgs {
                train: "dir/b.fcb".into(),
                variant: "entropy".into(),
                p: 0.1 + 0.2,
                snp: true,
                seed: 7,
            },
        ];
        for fit in runs {
            let a = TrainArgs {
                fit,
                out: "m.frac".into(),
                journals: vec!["run.frj".into()],
                shards: Some(3),
                ..TrainArgs::default()
            };
            for remaining in [None, Some(Duration::from_millis(1500))] {
                let worker: Vec<String> = worker_argv(&a, Path::new("run.frj"), 2, 3, remaining)
                    .into_iter()
                    .map(|s| s.into_string().unwrap())
                    .collect();
                match parse(&worker).unwrap() {
                    Command::Train(w) => {
                        assert_eq!(w.fit, a.fit);
                        assert_eq!(w.fit.p.to_bits(), a.fit.p.to_bits());
                        assert_eq!(w.journals, a.journals);
                        assert_eq!(w.shard_worker, Some((2, 3)));
                        assert_eq!(w.deadline, remaining);
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn parses_train_telemetry_flag() {
        let cmd = parse(&argv(
            "train --train a.tsv --out m.frac --telemetry t.tsv --deadline 2s",
        ))
        .unwrap();
        match cmd {
            Command::Train(a) => {
                assert_eq!(a.telemetry, Some(PathBuf::from("t.tsv")));
                assert_eq!(a.deadline, Some(Duration::from_secs(2)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_inspect_telemetry() {
        assert_eq!(
            parse(&argv("inspect-telemetry --file t.tsv --top 3")).unwrap(),
            Command::InspectTelemetry { file: "t.tsv".into(), top: 3 }
        );
        // Default top-k and the required-file error.
        assert_eq!(
            parse(&argv("inspect-telemetry --file t.tsv")).unwrap(),
            Command::InspectTelemetry { file: "t.tsv".into(), top: 10 }
        );
        assert!(parse(&argv("inspect-telemetry")).is_err());
    }

    #[test]
    fn resume_requires_a_journal() {
        assert!(parse(&argv("resume --train a.tsv --out m.frac")).is_err());
        let cmd =
            parse(&argv("resume --train a.tsv --out m.frac --journal j.frj")).unwrap();
        match cmd {
            Command::Resume(a) => assert_eq!(a.journal(), Some(&PathBuf::from("j.frj"))),
            _ => panic!(),
        }
        // Sharded runs resume with one --journal per shard journal.
        let cmd = parse(&argv(
            "resume --train a.tsv --out m.frac --journal j.frj.s0-2 --journal j.frj.s1-2",
        ))
        .unwrap();
        match cmd {
            Command::Resume(a) => assert_eq!(a.journals.len(), 2),
            _ => panic!(),
        }
    }

    /// Flags the supervisor passes to its workers, left out of `USAGE`.
    const HIDDEN: [&str; 2] = ["--shard-worker", "--shard-fault"];

    #[test]
    fn usage_and_parser_agree() {
        let accepted: Vec<&str> = SUBCOMMANDS
            .iter()
            .flat_map(|(_, groups, _)| groups.iter().flat_map(|g| g.split_whitespace()))
            .collect();
        for flag in &accepted {
            let documented = USAGE.match_indices(flag).any(|(i, _)| {
                !USAGE[i + flag.len()..].starts_with(|c: char| c == '-' || c.is_alphanumeric())
            });
            assert_eq!(documented, !HIDDEN.contains(flag), "{flag}");
        }
        let in_usage = USAGE.match_indices("--").map(|(i, _)| {
            let end = USAGE[i + 2..]
                .find(|c: char| c != '-' && !c.is_alphanumeric())
                .map_or(USAGE.len(), |j| i + 2 + j);
            &USAGE[i..end]
        });
        for flag in in_usage {
            assert!(accepted.contains(&flag), "USAGE names {flag}, which no subcommand accepts");
        }
        let examples: Vec<&str> =
            USAGE.lines().filter_map(|l| l.strip_prefix("        frac ")).collect();
        assert_eq!(examples.len(), 3, "{examples:?}");
        for example in examples {
            assert!(parse(&argv(example)).is_ok(), "{example}");
        }
    }
}
