//! `ledger`: one benchmark of the pipeline a user runs — `fcb::pack_tsv` →
//! `FcbFile::open` → `FracModel::fit_journaled` → `FracModel::save` →
//! `FracModel::load` → `serve::Server::serve_listener` answering records
//! over a loopback TCP socket — through public APIs only.
//!
//! ```text
//! cargo run --release -p frac-bench --bin ledger -- \
//!     [--workload expr|snp] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The parent process generates the workload's data from the seed and
//! writes it as TSV (untimed). It then alternates two child processes of
//! this binary, which receive only those files, for a few rounds: the
//! train stage (pack, open, journaled fits, save) and the serve stage
//! (loads, cold starts, traffic). Separate processes give each stage its
//! own peak RSS; rounds spread every metric's samples over the whole run,
//! so a slow spell on a shared host moves few of them. A metric is the
//! median of its samples, the least for cold starts, or the lower
//! quartile for request latency. Each child gets a share of the time left
//! before the run's end, so a run takes `--seconds` in all, its
//! preparation included.
//!
//! Stdout carries one line per metric, `workload metric value unit`,
//! comment lines starting with `#` (provenance, samples, AUC), and last a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set; `--trace 1` reports the
//! per-layer set and writes one trace per workload under
//! `target/ledger/traces/`. The exit status is nonzero when a correctness
//! check fails. Workloads, metrics and bounds are described in README.md
//! next to this file.

mod loadgen;
mod metrics;
mod serve;
mod stage;
mod stats;
mod trace;
mod train;
mod workload;

use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stage::{Round, StageReport};
use crate::trace::Recorder;
use crate::workload::{Shape, Workload, FULL};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Measured seconds per run when `--seconds` is not given; BENCHMARK.json's
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 50;
/// Seconds kept free at the end of a run for merging traces, printing and
/// exiting.
const END_RESERVE: f64 = 0.5;
/// Where runs keep their inputs (removed afterwards) and traces, under the
/// build output directory that version control already ignores.
const OUT_DIR: &str = "target/ledger";

const USAGE: &str = "usage: ledger [--workload expr|snp] [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Train,
    Serve,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Train => "train",
            Stage::Serve => "serve",
        }
    }

    /// Distinguishes each child process's ids in a merged trace.
    fn tag(self, round: usize) -> u64 {
        1 + 2 * round as u64 + u64::from(self == Stage::Serve)
    }

    fn part_file(self, round: usize) -> String {
        format!("trace-{}-{round}.tsv", self.name())
    }

    /// Relative share of the run's time. Training gets more: `train_s` is
    /// the best of whole fits, which take seconds each on `snp`, while the
    /// serving metrics gather many samples a second.
    fn weight(self) -> f64 {
        match self {
            Stage::Train => 0.6,
            Stage::Serve => 0.4,
        }
    }
}

/// What one benchmark run measures.
#[derive(Debug, Clone, Copy)]
struct Run {
    workload: Workload,
    shape: Shape,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// When the run started; it ends `seconds` later.
    started: Instant,
}

/// Runs one stage's round on the generated inputs in a directory, within
/// a budget in seconds.
type Runner<'a> = &'a dyn Fn(Stage, &Run, &Path, usize, f64) -> Result<StageReport, String>;

/// A child process's stage: which one, its round, the input directory and
/// its budget in seconds.
type Child = (Stage, usize, PathBuf, f64);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    /// Set in child processes.
    child: Option<Child>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        child: None,
    };
    let (mut stage, mut round, mut dir, mut budget) = (None, 0, None, 0.0);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants an integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or_else(|| "--seconds wants an integer >= 1".to_string())?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--stage" => {
                stage = Some(match value()?.as_str() {
                    "train" => Stage::Train,
                    "serve" => Stage::Serve,
                    other => return Err(format!("unknown stage `{other}`")),
                })
            }
            "--round" => {
                round = value()?
                    .parse()
                    .map_err(|_| "--round wants an integer".to_string())?
            }
            "--dir" => dir = Some(PathBuf::from(value()?)),
            "--budget" => {
                budget = value()?
                    .parse()
                    .map_err(|_| "--budget wants seconds".to_string())?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (stage, dir, args.workload) {
        (Some(s), Some(d), Some(_)) => args.child = Some((s, round, d, budget)),
        (None, None, _) => {}
        _ => return Err("--stage needs --dir and --workload".into()),
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("ledger: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Each workload's run gets `--seconds` from when it starts.
    let run_of = |workload| Run {
        workload,
        shape: FULL,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        started: Instant::now(),
    };
    if let Some((stage, round, dir, budget)) = &args.child {
        let run = run_of(args.workload.expect("checked by parse_args"));
        print!("{}", run_stage(*stage, &run, dir, *round, *budget).render());
        return;
    }

    let provenance = provenance(args.seed, args.seconds, args.traced);
    println!(
        "# provenance {}",
        provenance
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let workloads: Vec<Workload> = args
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let registry: &[Metric] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut json = Vec::new();
    for w in &workloads {
        let report = run_workload(&run_of(*w), &spawn_stage, Path::new(OUT_DIR), &provenance)
            .unwrap_or_else(|e| {
                let mut r = StageReport::default();
                r.problem(e);
                r
            });
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(v) = report.samples.get(m.name) {
                let v: Vec<String> = v.iter().map(f64::to_string).collect();
                println!("# {} samples {} {}", w.name(), m.name, v.join(" "));
            }
        }
        for info in &report.info {
            println!("# {} {info}", w.name());
        }
        for p in &report.problems {
            println!("# {} PROBLEM {p}", w.name());
            eprintln!("ledger: {}: {p}", w.name());
        }
        correct &= report.problems.is_empty();
        attempted += report.attempted;
        failed += report.failed;
        for m in registry {
            let Some(v) = value(&report, m).filter(|v| v.is_finite()) else {
                println!(
                    "# {} PROBLEM metric {} missing or not finite",
                    w.name(),
                    m.name
                );
                correct = false;
                continue;
            };
            println!("{} {} {v} {}", w.name(), m.name, m.unit);
            let key = if workloads.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            json.push(format!(
                "\"{key}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A metric's value: its samples from every round, summarized.
fn value(report: &StageReport, m: &Metric) -> Option<f64> {
    report.samples.get(m.name).map(|v| m.summary.of(v))
}

/// Commit, parallelism and kernel settings that numbers depend on.
fn provenance(seed: u64, seconds: u64, traced: bool) -> Vec<(String, String)> {
    // GIT_DIR pins git to this directory's repository; outside one (an
    // exported tree) it fails and the commit reads `unknown`.
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .to_string();
    // The workspace's rayon runs `RAYON_NUM_THREADS` workers, else one per core.
    let rayon_threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| nproc.clone());
    [
        ("commit", commit),
        ("nproc", nproc),
        ("rayon_threads", rayon_threads),
        (
            "kernel_tier",
            frac_dataset::kernels::active_tier().to_string(),
        ),
        (
            "gram_crossover",
            frac_learn::solver::gram_policy()
                .crossover_ratio
                .to_string(),
        ),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(traced).to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Child-process entry: run one stage's round within `budget` seconds and,
/// when traced, leave its trace part next to the inputs for the parent to
/// merge.
fn run_stage(stage: Stage, run: &Run, dir: &Path, index: usize, budget: f64) -> StageReport {
    let mut rec = Recorder::new();
    let round = Round {
        index,
        traced: run.traced,
        start: Instant::now(),
        budget,
    };
    let report = match stage {
        Stage::Train => train::run(dir, run.workload, round, &mut rec),
        Stage::Serve => serve::run(dir, round, &mut rec),
    };
    if run.traced {
        let notes = vec![(
            "stage".to_string(),
            format!("{} round {index}", stage.name()),
        )];
        std::fs::write(
            dir.join(stage.part_file(index)),
            rec.render_part(stage.tag(index), notes),
        )
        .expect("write the trace part");
    }
    report
}

/// Run a stage's round as a child process of this binary, killing it if it
/// overruns its budget by far.
fn spawn_stage(
    stage: Stage,
    run: &Run,
    dir: &Path,
    round: usize,
    budget: f64,
) -> Result<StageReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "--stage",
            stage.name(),
            "--round",
            &round.to_string(),
            "--workload",
            run.workload.name(),
        ])
        .args([
            "--budget",
            &budget.to_string(),
            "--trace",
            if run.traced { "1" } else { "0" },
        ])
        .arg("--dir")
        .arg(dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start the {} stage: {e}", stage.name()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let limit = Duration::from_secs_f64(30.0 + budget);
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() < limit => std::thread::sleep(Duration::from_millis(20)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("{} stage overran {limit:?}; killed", stage.name()));
            }
        }
    };
    let text = reader
        .join()
        .expect("stage output reader")
        .map_err(|e| format!("read the {} stage's output: {e}", stage.name()))?;
    if !status.success() {
        return Err(format!("{} stage failed ({status})", stage.name()));
    }
    StageReport::parse(&text)
}

/// Generate one workload's inputs under `out`, run every round of both
/// stages, check their outputs against each other, and, when traced,
/// merge their traces into `<out>/traces/<workload>-s<seed>.tsv`.
fn run_workload(
    run: &Run,
    runner: Runner,
    out: &Path,
    provenance: &[(String, String)],
) -> Result<StageReport, String> {
    let dir = out.join(format!(
        "run-{}-s{}-{}",
        run.workload.name(),
        run.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = rounds(run, runner, &dir, provenance);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn rounds(
    run: &Run,
    runner: Runner,
    dir: &Path,
    provenance: &[(String, String)],
) -> Result<StageReport, String> {
    let mut rec = Recorder::new();
    let (inputs, _) = rec.time("prep.generate", |_| {
        run.workload.generate(run.shape, run.seed)
    });
    let (written, _) = rec.time("prep.write_tsv", |_| {
        frac_dataset::io::write_tsv(&inputs.train, dir.join("train.tsv"))?;
        frac_dataset::io::write_tsv(&inputs.test, dir.join("test.tsv"))
    });
    written.map_err(|e| format!("write the workload's TSVs: {e}"))?;

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut report = StageReport::default();
    let (mut fitted, mut served) = (None, None);
    let mut parts = Vec::new();
    let slots: Vec<(usize, Stage)> = (0..Round::count(run.traced))
        .flat_map(|round| [(round, Stage::Train), (round, Stage::Serve)])
        .collect();
    let end = run.seconds as f64 - END_RESERVE;
    for (i, &(round, stage)) in slots.iter().enumerate() {
        // The stage's share, by weight, of the time left among the stages
        // still to run: time a stage leaves unused, or overruns, moves the
        // later stages' budgets.
        let weights: f64 = slots[i..].iter().map(|(_, s)| s.weight()).sum();
        let left = (end - run.started.elapsed().as_secs_f64()).max(0.0);
        let budget = left * stage.weight() / weights;
        let offset = rec.now_ns();
        let (r, _) = rec.time(&format!("stage.{}", stage.name()), |_| {
            runner(stage, run, dir, round, budget)
        });
        let mut r = r?;
        if run.traced {
            let part = std::fs::read_to_string(dir.join(stage.part_file(round)))
                .map_err(|e| format!("read the {} trace part: {e}", stage.name()))?;
            parts.push((offset, rec.spans.last().expect("stage span").id, part));
        }
        let ns = std::mem::take(&mut r.ns);
        let first = fitted.get_or_insert_with(|| ns.clone());
        if bits(first) != bits(&ns) {
            r.problem(match stage {
                Stage::Train => format!("round {round}: fitted NS bits differ from round 0"),
                Stage::Serve => {
                    format!("round {round}: served NS differ from the train stage's scores")
                }
            });
        }
        if stage == Stage::Serve && served.is_none() {
            served = Some(ns);
        }
        report.absorb(r);
    }

    let served = served.expect("at least one serve round");
    if served.len() == inputs.labels.len() && served.iter().all(|v| v.is_finite()) {
        let auc = frac_eval::auc::auc_from_scores(&served, &inputs.labels);
        report.add("model.auc", auc);
        report.info(format!("auc {auc}"));
    } else {
        report.problem(format!(
            "{} served scores for {} test rows",
            served.len(),
            inputs.labels.len()
        ));
    }

    if run.traced {
        let traces = dir
            .parent()
            .expect("run directories live under the output directory")
            .join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| format!("{}: {e}", traces.display()))?;
        let path = traces.join(format!("{}-s{}.tsv", run.workload.name(), run.seed));
        let mut notes = provenance.to_vec();
        notes.push(("workload".into(), run.workload.name().into()));
        let merged = trace::merge_parts(&rec, &parts, notes)?;
        std::fs::write(&path, merged).map_err(|e| format!("{}: {e}", path.display()))?;
        report.info(format!("trace {}", path.display()));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The text of the JSON array under `key`.
    fn array(key: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("no `{key}` array"));
        let rest = &BENCHMARK_JSON[start..];
        &rest[..rest.find(']').expect("array closes")]
    }

    /// Every string value of `field` in `text`, in order.
    fn strings(text: &str, field: &str) -> Vec<String> {
        text.split(&format!("\"{field}\": \""))
            .skip(1)
            .map(|s| s[..s.find('"').expect("string closes")].to_string())
            .collect()
    }

    fn declared(key: &str) -> Vec<(String, String)> {
        let a = array(key);
        strings(a, "name")
            .into_iter()
            .zip(strings(a, "unit"))
            .collect()
    }

    fn emitted(registry: &[Metric]) -> Vec<(String, String)> {
        registry
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_emits() {
        assert_eq!(declared("end_to_end"), emitted(&END_TO_END));
        assert_eq!(declared("per_layer"), emitted(&PER_LAYER));
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(strings(array("workloads"), "name"), names);
        assert!(BENCHMARK_JSON.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS},")));
    }

    #[test]
    fn metric_names_are_well_formed() {
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.name.is_empty()
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name `{}`",
                m.name
            );
        }
    }

    #[test]
    fn every_workload_runs_end_to_end_at_a_small_shape_within_its_seconds() {
        let shape = Shape {
            features: 24,
            train: 16,
            test_normal: 8,
            test_anomaly: 8,
        };
        let seconds = 3;
        let out = std::env::temp_dir().join(format!("ledger-test-{}", std::process::id()));
        let in_process = |stage: Stage, run: &Run, dir: &Path, round: usize, budget: f64| {
            Ok(run_stage(stage, run, dir, round, budget))
        };
        for workload in Workload::ALL {
            for traced in [false, true] {
                let what = format!("{} traced={traced}", workload.name());
                let run = Run {
                    workload,
                    shape,
                    seed: 7,
                    seconds,
                    traced,
                    started: Instant::now(),
                };
                let report = run_workload(&run, &in_process, &out, &[]).expect("workload runs");
                let took = run.started.elapsed();
                eprintln!("{what} ran in {took:?}");
                assert!(took.as_secs_f64() <= seconds as f64, "{what}: {took:?}");
                assert!(report.problems.is_empty(), "{what}: {:?}", report.problems);
                assert_eq!(report.failed, 0, "{what}");
                let registry: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
                for m in registry {
                    let v = value(&report, m);
                    assert!(
                        v.is_some_and(|v| v.is_finite()),
                        "{what}: {} = {v:?}",
                        m.name
                    );
                }
            }
            assert!(out
                .join("traces")
                .join(format!("{}-s7.tsv", workload.name()))
                .exists());
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
