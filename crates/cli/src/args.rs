//! Hand-rolled argument parsing (no CLI dependency).

use std::path::PathBuf;
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
  frac score --model FILE --test FILE [OPTIONS]
      Score test samples against an all-normal training cohort, or against
      a previously saved model (train once, screen forever).
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

/// Arguments of `frac train`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainArgs {
    /// Reference-cohort TSV.
    pub train: PathBuf,
    /// Output model path.
    pub out: PathBuf,
    /// Variant name (full | filter | entropy).
    pub variant: String,
    /// Keep fraction for filtering variants.
    pub p: f64,
    /// Tree models everywhere (SNP data)?
    pub snp: bool,
    /// Master seed.
    pub seed: u64,
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
    /// harness, e.g. `crashloop:1` or `abort-after:0:3` (comma-separated).
    pub shard_fault: Option<String>,
    /// Worker restarts per shard before in-process reclaim.
    pub shard_retries: Option<usize>,
    /// Heartbeat timeout: kill a worker whose journal stops growing.
    pub shard_heartbeat: Option<Duration>,
    /// Base restart backoff (doubles per restart).
    pub shard_backoff: Option<Duration>,
    /// Telemetry trace output path (TSV, or JSON for a `.json` extension).
    pub telemetry: Option<PathBuf>,
}

impl Default for TrainArgs {
    fn default() -> Self {
        TrainArgs {
            train: PathBuf::new(),
            out: PathBuf::new(),
            variant: "full".into(),
            p: 0.05,
            snp: false,
            seed: 42,
            journals: Vec::new(),
            deadline: None,
            shards: None,
            shard_worker: None,
            shard_fault: None,
            shard_retries: None,
            shard_heartbeat: None,
            shard_backoff: None,
            telemetry: None,
        }
    }
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
    pub train: PathBuf,
    pub model: Option<PathBuf>,
    pub test: PathBuf,
    pub variant: String,
    pub p: f64,
    pub members: usize,
    pub dim: usize,
    pub snp: bool,
    pub seed: u64,
    pub labels: Option<PathBuf>,
    pub top_features: usize,
}

impl Default for ScoreArgs {
    fn default() -> Self {
        ScoreArgs {
            train: PathBuf::new(),
            model: None,
            test: PathBuf::new(),
            variant: "filter-ens".into(),
            p: 0.05,
            members: 10,
            dim: 64,
            snp: false,
            seed: 42,
            labels: None,
            top_features: 0,
        }
    }
}

/// Arguments of `frac serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Saved model to serve (CRC-verified at startup and on reload).
    pub model: PathBuf,
    /// TSV whose header defines the record layout (only the header is read).
    pub schema: PathBuf,
    /// TCP listen address; `None` = stdin/stdout pipe mode.
    pub listen: Option<String>,
    /// Most records scored per batch.
    pub batch_max: usize,
    /// Admission queue bound (full queue sheds with `busy`).
    pub queue_cap: usize,
    /// Per-request deadline while queued.
    pub request_timeout: Duration,
    /// Bound on the shutdown drain.
    pub drain_timeout: Duration,
    /// Longest accepted request line, in bytes.
    pub max_line_bytes: usize,
    /// Where to write the serve telemetry trace on exit, if anywhere.
    pub telemetry: Option<PathBuf>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            model: PathBuf::new(),
            schema: PathBuf::new(),
            listen: None,
            batch_max: 64,
            queue_cap: 1024,
            request_timeout: Duration::from_secs(5),
            drain_timeout: Duration::from_secs(5),
            max_line_bytes: 1 << 20,
            telemetry: None,
        }
    }
}

fn take_value<'a>(
    argv: &'a [String],
    i: &mut usize,
    flag: &str,
) -> Result<&'a str, String> {
    *i += 1;
    argv.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} requires a value"))
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
    Duration::try_from_secs_f64(value * scale)
        .map_err(|_| format!("duration `{s}` is too long"))
}

/// Parse the shared flag set of `train` and `resume`.
fn parse_train_args(argv: &[String], sub: &str) -> Result<TrainArgs, String> {
    let mut a = TrainArgs::default();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--train" => a.train = take_value(argv, &mut i, "--train")?.into(),
            "--out" => a.out = take_value(argv, &mut i, "--out")?.into(),
            "--variant" => a.variant = take_value(argv, &mut i, "--variant")?.into(),
            "--p" => {
                a.p = take_value(argv, &mut i, "--p")?
                    .parse()
                    .map_err(|_| "--p expects a float".to_string())?
            }
            "--snp" => a.snp = true,
            "--seed" => {
                a.seed = take_value(argv, &mut i, "--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?
            }
            "--journal" => a.journals.push(take_value(argv, &mut i, "--journal")?.into()),
            "--deadline" => {
                a.deadline = Some(parse_duration(take_value(argv, &mut i, "--deadline")?)?)
            }
            "--shards" => {
                a.shards = Some(
                    take_value(argv, &mut i, "--shards")?
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| "--shards expects an integer >= 1".to_string())?,
                )
            }
            "--shard-worker" => {
                let spec = take_value(argv, &mut i, "--shard-worker")?;
                let parsed = spec.split_once('/').and_then(|(k, n)| {
                    let k: usize = k.parse().ok()?;
                    let n: usize = n.parse().ok()?;
                    (k < n).then_some((k, n))
                });
                a.shard_worker = Some(parsed.ok_or_else(|| {
                    format!("--shard-worker expects K/N with K < N, got `{spec}`")
                })?);
            }
            "--shard-fault" => {
                a.shard_fault = Some(take_value(argv, &mut i, "--shard-fault")?.to_string())
            }
            "--shard-retries" => {
                a.shard_retries = Some(
                    take_value(argv, &mut i, "--shard-retries")?
                        .parse()
                        .map_err(|_| "--shard-retries expects an integer".to_string())?,
                )
            }
            "--shard-heartbeat" => {
                a.shard_heartbeat =
                    Some(parse_duration(take_value(argv, &mut i, "--shard-heartbeat")?)?)
            }
            "--shard-backoff" => {
                a.shard_backoff =
                    Some(parse_duration(take_value(argv, &mut i, "--shard-backoff")?)?)
            }
            "--telemetry" => {
                a.telemetry = Some(take_value(argv, &mut i, "--telemetry")?.into())
            }
            other => return Err(format!("unknown flag `{other}` for {sub}")),
        }
        i += 1;
    }
    if a.train.as_os_str().is_empty() || a.out.as_os_str().is_empty() {
        return Err(format!("{sub} requires --train and --out"));
    }
    if !(a.p > 0.0 && a.p <= 1.0) {
        return Err("--p must be in (0, 1]".into());
    }
    if sub == "train" && a.journals.len() > 1 {
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

/// Parse an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let sub = argv.first().map(String::as_str).unwrap_or("help");
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "train" => Ok(Command::Train(parse_train_args(argv, "train")?)),
        "resume" => {
            let a = parse_train_args(argv, "resume")?;
            if a.journals.is_empty() {
                return Err("resume requires --journal".into());
            }
            Ok(Command::Resume(a))
        }
        "score" => {
            let mut a = ScoreArgs::default();
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--train" => a.train = take_value(argv, &mut i, "--train")?.into(),
                    "--model" => a.model = Some(take_value(argv, &mut i, "--model")?.into()),
                    "--test" => a.test = take_value(argv, &mut i, "--test")?.into(),
                    "--variant" => a.variant = take_value(argv, &mut i, "--variant")?.into(),
                    "--p" => {
                        a.p = take_value(argv, &mut i, "--p")?
                            .parse()
                            .map_err(|_| "--p expects a float".to_string())?
                    }
                    "--members" => {
                        a.members = take_value(argv, &mut i, "--members")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| "--members expects an integer >= 1".to_string())?
                    }
                    "--dim" => {
                        a.dim = take_value(argv, &mut i, "--dim")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| "--dim expects an integer >= 1".to_string())?
                    }
                    "--snp" => a.snp = true,
                    "--seed" => {
                        a.seed = take_value(argv, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| "--seed expects an integer".to_string())?
                    }
                    "--labels" => a.labels = Some(take_value(argv, &mut i, "--labels")?.into()),
                    "--top-features" => {
                        a.top_features = take_value(argv, &mut i, "--top-features")?
                            .parse()
                            .map_err(|_| "--top-features expects an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag `{other}` for score")),
                }
                i += 1;
            }
            if a.test.as_os_str().is_empty()
                || (a.train.as_os_str().is_empty() && a.model.is_none())
            {
                return Err("score requires --test and one of --train / --model".into());
            }
            if !(a.p > 0.0 && a.p <= 1.0) {
                return Err("--p must be in (0, 1]".into());
            }
            Ok(Command::Score(a))
        }
        "entropy" => {
            let mut data = PathBuf::new();
            let mut top = 20usize;
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--data" => data = take_value(argv, &mut i, "--data")?.into(),
                    "--top" => {
                        top = take_value(argv, &mut i, "--top")?
                            .parse()
                            .map_err(|_| "--top expects an integer".to_string())?
                    }
                    other => return Err(format!("unknown flag `{other}` for entropy")),
                }
                i += 1;
            }
            if data.as_os_str().is_empty() {
                return Err("entropy requires --data".into());
            }
            Ok(Command::Entropy { data, top })
        }
        "inspect-telemetry" => {
            let mut file = PathBuf::new();
            let mut top = 10usize;
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--file" => file = take_value(argv, &mut i, "--file")?.into(),
                    "--top" => {
                        top = take_value(argv, &mut i, "--top")?
                            .parse()
                            .map_err(|_| "--top expects an integer".to_string())?
                    }
                    other => {
                        return Err(format!("unknown flag `{other}` for inspect-telemetry"))
                    }
                }
                i += 1;
            }
            if file.as_os_str().is_empty() {
                return Err("inspect-telemetry requires --file".into());
            }
            Ok(Command::InspectTelemetry { file, top })
        }
        "serve" => {
            let mut a = ServeArgs::default();
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--model" => a.model = take_value(argv, &mut i, "--model")?.into(),
                    "--schema" => a.schema = take_value(argv, &mut i, "--schema")?.into(),
                    "--listen" => {
                        a.listen = Some(take_value(argv, &mut i, "--listen")?.to_string())
                    }
                    "--batch-max" => {
                        a.batch_max = take_value(argv, &mut i, "--batch-max")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| "--batch-max expects an integer >= 1".to_string())?
                    }
                    "--queue-cap" => {
                        a.queue_cap = take_value(argv, &mut i, "--queue-cap")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| "--queue-cap expects an integer >= 1".to_string())?
                    }
                    "--request-timeout" => {
                        a.request_timeout =
                            parse_duration(take_value(argv, &mut i, "--request-timeout")?)?
                    }
                    "--drain-timeout" => {
                        a.drain_timeout =
                            parse_duration(take_value(argv, &mut i, "--drain-timeout")?)?
                    }
                    "--max-line-bytes" => {
                        a.max_line_bytes = take_value(argv, &mut i, "--max-line-bytes")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| {
                                "--max-line-bytes expects an integer >= 1".to_string()
                            })?
                    }
                    "--telemetry" => {
                        a.telemetry = Some(take_value(argv, &mut i, "--telemetry")?.into())
                    }
                    other => return Err(format!("unknown flag `{other}` for serve")),
                }
                i += 1;
            }
            if a.model.as_os_str().is_empty() || a.schema.as_os_str().is_empty() {
                return Err("serve requires --model and --schema".into());
            }
            Ok(Command::Serve(a))
        }
        "pack" => {
            let mut data = PathBuf::new();
            let mut out = PathBuf::new();
            let mut chunk_rows = 8192usize;
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--data" => data = take_value(argv, &mut i, "--data")?.into(),
                    "--out" => out = take_value(argv, &mut i, "--out")?.into(),
                    "--chunk-rows" => {
                        chunk_rows = take_value(argv, &mut i, "--chunk-rows")?
                            .parse()
                            .ok()
                            .filter(|&n: &usize| n >= 1)
                            .ok_or_else(|| "--chunk-rows expects an integer >= 1".to_string())?
                    }
                    other => return Err(format!("unknown flag `{other}` for pack")),
                }
                i += 1;
            }
            if data.as_os_str().is_empty() || out.as_os_str().is_empty() {
                return Err("pack requires --data and --out".into());
            }
            Ok(Command::Pack { data, out, chunk_rows })
        }
        "info" => {
            let mut data = PathBuf::new();
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--data" => data = take_value(argv, &mut i, "--data")?.into(),
                    other => return Err(format!("unknown flag `{other}` for info")),
                }
                i += 1;
            }
            if data.as_os_str().is_empty() {
                return Err("info requires --data".into());
            }
            Ok(Command::Info { data })
        }
        "generate" => {
            let mut dataset = String::new();
            let mut out = PathBuf::new();
            let mut seed = 0u64;
            let mut seed_given = false;
            let mut i = 1;
            while i < argv.len() {
                match argv[i].as_str() {
                    "--dataset" => dataset = take_value(argv, &mut i, "--dataset")?.into(),
                    "--out" => out = take_value(argv, &mut i, "--out")?.into(),
                    "--seed" => {
                        seed = take_value(argv, &mut i, "--seed")?
                            .parse()
                            .map_err(|_| "--seed expects an integer".to_string())?;
                        seed_given = true;
                    }
                    other => return Err(format!("unknown flag `{other}` for generate")),
                }
                i += 1;
            }
            if dataset.is_empty() || out.as_os_str().is_empty() {
                return Err("generate requires --dataset and --out".into());
            }
            if !seed_given {
                seed = frac_synth::registry::lookup(&dataset)
                    .ok_or_else(|| {
                        format!(
                            "unknown dataset `{dataset}`; valid names: {:?}",
                            frac_synth::registry::PAPER_DATASETS
                        )
                    })?
                    .default_seed;
            }
            Ok(Command::Generate { dataset, out, seed })
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
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
                assert_eq!(a.train, PathBuf::from("a.tsv"));
                assert_eq!(a.variant, "filter-ens");
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
                assert_eq!(a.variant, "jl");
                assert_eq!(a.dim, 32);
                assert_eq!(a.p, 0.1);
                assert_eq!(a.members, 4);
                assert!(a.snp);
                assert_eq!(a.seed, 7);
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
        assert!(parse(&argv("score --model m --test b --members 1 --dim 1")).is_ok());
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
    }

    #[test]
    fn parses_serve_defaults_and_flags() {
        match parse(&argv("serve --model m.frac --schema train.tsv")).unwrap() {
            Command::Serve(a) => {
                assert_eq!(a.model, PathBuf::from("m.frac"));
                assert_eq!(a.schema, PathBuf::from("train.tsv"));
                assert_eq!(a.listen, None);
                assert_eq!(a.batch_max, 64);
                assert_eq!(a.queue_cap, 1024);
                assert_eq!(a.request_timeout, Duration::from_secs(5));
                assert_eq!(a.drain_timeout, Duration::from_secs(5));
                assert_eq!(a.max_line_bytes, 1 << 20);
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
                assert_eq!(a.batch_max, 8);
                assert_eq!(a.queue_cap, 2);
                assert_eq!(a.request_timeout, Duration::from_millis(250));
                assert_eq!(a.drain_timeout, Duration::from_secs(3600));
                assert_eq!(a.max_line_bytes, 4096);
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
                assert_eq!(a.shard_retries, Some(2));
                assert_eq!(a.shard_heartbeat, Some(Duration::from_secs(10)));
                assert_eq!(a.shard_backoff, Some(Duration::from_millis(100)));
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
}
