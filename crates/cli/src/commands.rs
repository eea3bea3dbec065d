//! Command implementations.

use crate::args::{worker_argv, Command, ScoreArgs, ServeArgs, TrainArgs, USAGE};
use frac_core::shard::{
    apply_worker_faults_from_env, expand_journal_paths, resume_shards, shard_journal_path,
    shard_set, train_sharded,
};
use frac_core::telemetry::{Counter, TelemetryReport, TelemetrySession};
use frac_core::{
    run_variant, ContributionMatrix, FeatureSelector, FracModel, JournaledFit, RunBudget,
    validate_model, Server, ShardStat, TrainingPlan, Variant,
};
use std::time::Duration;
use frac_dataset::io::{read_tsv, write_tsv};
use frac_dataset::Schema;
use frac_eval::auc::auc_from_scores;
use frac_projection::JlMatrixKind;
use frac_synth::registry::{lookup, make_dataset, PAPER_DATASETS};

type Error = Box<dyn std::error::Error>;

/// Read a data set, dispatching on the extension: `.fcb` files are
/// memory-mapped and fully verified (every CRC, geometry, code ranges),
/// anything else is parsed as TSV. Training or scoring from either format
/// yields bit-identical results. Errors name the offending path so the
/// user knows which of several input files failed.
fn read_data_at(path: &std::path::Path) -> Result<frac_dataset::Dataset, Error> {
    if frac_dataset::fcb::is_fcb_path(path) {
        Ok(frac_dataset::FcbFile::open(path)?.dataset())
    } else {
        read_tsv(path).map_err(|e| format!("{}: {e}", path.display()).into())
    }
}

/// Parse a labels file: one 0/1 token per test row, strictly validated.
fn read_labels(path: &std::path::Path, n_rows: usize) -> Result<Vec<bool>, Error> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let labels: Vec<bool> = text
        .split_whitespace()
        .map(|t| match t {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("{}: bad label `{other}` (expected 0/1)", path.display())),
        })
        .collect::<Result<_, _>>()?;
    if labels.len() != n_rows {
        return Err(format!(
            "{}: {} labels for {} test rows",
            path.display(),
            labels.len(),
            n_rows
        )
        .into());
    }
    Ok(labels)
}

/// Execute a parsed command.
pub fn run(cmd: Command) -> Result<(), Error> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Train(args) => train(args, false),
        Command::Resume(args) => train(args, true),
        Command::Score(args) => score(args),
        Command::Entropy { data, top } => entropy(&data, top),
        Command::InspectTelemetry { file, top } => inspect_telemetry(&file, top),
        Command::Serve(args) => serve(args),
        Command::Pack { data, out, chunk_rows } => pack(&data, &out, chunk_rows),
        Command::Info { data } => info(&data),
        Command::Generate { dataset, out, seed } => generate(&dataset, &out, seed),
    }
}

/// `frac pack`: convert a TSV data set to FCB, streaming with a bounded
/// row buffer so inputs larger than RAM pack fine.
fn pack(data: &std::path::Path, out: &std::path::Path, chunk_rows: usize) -> Result<(), Error> {
    if frac_dataset::fcb::is_fcb_path(data) {
        return Err(format!("{}: already an FCB file (pack reads TSV)", data.display()).into());
    }
    let stats = frac_dataset::fcb::pack_tsv(data, out, chunk_rows)?;
    println!(
        "packed {} rows -> {} ({} bytes; chunk {} rows, peak buffer {} bytes)",
        stats.rows,
        out.display(),
        stats.file_bytes,
        stats.chunk_rows,
        stats.peak_buffer_bytes
    );
    Ok(())
}

/// `frac info`: validate an FCB file (opening runs the full integrity
/// pass) and dump its header and checksums as TSV.
fn info(data: &std::path::Path) -> Result<(), Error> {
    let file = frac_dataset::FcbFile::open(data)?;
    let info = file.info();
    println!("file\t{}", data.display());
    println!("format\tfcb v{}", info.version);
    println!("rows\t{}", info.n_rows);
    println!("features\t{}", info.n_features);
    println!("schema_fnv\t{:016x}", info.schema_fnv);
    println!("file_bytes\t{}", info.file_len);
    println!("file_crc\t{:08x}", info.file_crc);
    println!("column\tname\tkind\tmissing\tvalue_bytes\tvalues_crc\tmissing_crc");
    for c in &info.columns {
        println!(
            "column\t{}\t{}\t{}\t{}\t{:08x}\t{:08x}",
            c.name, c.kind, c.n_missing, c.values_len, c.values_crc, c.missing_crc
        );
    }
    Ok(())
}

/// `frac serve`: load the model once, then score streaming records until
/// EOF, `cmd stop`, or `SIGTERM`. See `frac_core::serve` for the protocol
/// and robustness guarantees; this function only does process plumbing —
/// signal handlers, the listener/pipe choice, and the exit telemetry.
fn serve(args: ServeArgs) -> Result<(), Error> {
    use std::io::BufRead;
    // --schema accepts either format. For a TSV only the header line is
    // read (pointing it at the full training file is the expected usage);
    // for an `.fcb` file the embedded, CRC-verified schema block is used.
    let schema = if frac_dataset::fcb::is_fcb_path(&args.schema) {
        frac_dataset::FcbFile::open(&args.schema)?.schema().clone()
    } else {
        let header = {
            let file = std::fs::File::open(&args.schema)
                .map_err(|e| format!("{}: {e}", args.schema.display()))?;
            let mut line = String::new();
            std::io::BufReader::new(file)
                .read_line(&mut line)
                .map_err(|e| format!("{}: {e}", args.schema.display()))?;
            line
        };
        frac_dataset::io::schema_from_header(&header)
            .map_err(|e| format!("{}: {e}", args.schema.display()))?
    };
    // `FracModel::load` errors already name the path.
    let model = FracModel::load(&args.model).map_err(|e| e.to_string())?;
    let n_targets = model.n_targets();
    let server = Server::new(model, args.model.clone(), schema, args.config)
        .map_err(|e| format!("{}: {e}", args.model.display()))?;
    let handle = server.handle();
    let session = if args.telemetry.is_some() { TelemetrySession::start() } else { None };
    crate::signals::install();
    {
        // Signal watcher: handlers may only flip atomics, so a plain thread
        // forwards the flags to the daemon (SIGTERM → drain, SIGHUP →
        // validated hot reload).
        let handle = handle.clone();
        std::thread::spawn(move || loop {
            if crate::signals::termination_requested() {
                handle.request_shutdown();
                return;
            }
            if crate::signals::take_reload() {
                eprintln!("frac serve: SIGHUP: reloading model (validated off-path)");
                handle.request_reload();
            }
            std::thread::sleep(Duration::from_millis(20));
        });
    }
    let summary = match &args.listen {
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("{addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            eprintln!(
                "frac serve: listening on {local} ({}: {n_targets} targets)",
                args.model.display()
            );
            server.serve_listener(listener)?
        }
        None => {
            eprintln!(
                "frac serve: pipe mode, reading records from stdin \
                 ({}: {n_targets} targets)",
                args.model.display()
            );
            server.serve_pipe(std::io::stdin(), std::io::stdout())?
        }
    };
    eprintln!("frac serve: exit: {}", summary.render());
    if let Some(tpath) = &args.telemetry {
        let notes = vec![
            ("serve_health".into(), summary.counts.summary()),
            ("serve_p50_us".into(), summary.p50_us.to_string()),
            ("serve_p99_us".into(), summary.p99_us.to_string()),
            ("serve_throughput_rps".into(), format!("{:.1}", summary.throughput_rps())),
        ];
        write_trace(session, tpath, notes)?;
    }
    Ok(())
}

/// Finish a `--telemetry` session into `path` — JSON when the extension is
/// `.json`, TSV otherwise — with `notes` appended to the trace's own, and
/// print the summary line. `session` is `None` when another session was
/// already live in this process: then warn and write nothing.
fn write_trace(
    session: Option<TelemetrySession>,
    path: &std::path::Path,
    notes: Vec<(String, String)>,
) -> Result<Option<TelemetryReport>, Error> {
    let Some(session) = session else {
        eprintln!(
            "warning: --telemetry ignored: another telemetry session \
             is already active in this process"
        );
        return Ok(None);
    };
    let mut trace = session.finish();
    trace.notes.extend(notes);
    let text =
        if path.extension().is_some_and(|e| e == "json") { trace.to_json() } else { trace.write_tsv() };
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "telemetry: {} spans across {} stages → {} \
         (summarize with `frac inspect-telemetry --file {}`)",
        trace.spans.len(),
        trace.stage_totals().len(),
        path.display(),
        path.display()
    );
    Ok(Some(trace))
}

/// Build the requested variant from CLI flags.
fn variant_from(args: &ScoreArgs) -> Variant {
    let p = args.fit.p;
    match args.fit.variant.as_str() {
        "full" => Variant::Full,
        "filter" => Variant::FullFilter { selector: FeatureSelector::Random, p },
        "filter-ens" => Variant::Ensemble {
            base: Box::new(Variant::FullFilter { selector: FeatureSelector::Random, p }),
            members: args.members,
        },
        "entropy" => Variant::FullFilter { selector: FeatureSelector::Entropy, p },
        "diverse" => Variant::Diverse { p: p.max(0.01), models_per_feature: 1 },
        "jl" => Variant::JlProject { dim: args.dim, kind: JlMatrixKind::Gaussian },
        other => unreachable!("the parser refuses score variant `{other}`"),
    }
}

fn train(args: TrainArgs, resuming: bool) -> Result<(), Error> {
    let train = read_data_at(&args.fit.train)?;
    let config = args.fit.config();
    let plan = match args.fit.variant.as_str() {
        "full" => TrainingPlan::full(train.n_features()),
        "filter" => {
            let selected = FeatureSelector::Random.select(&train, args.fit.p, args.fit.seed);
            TrainingPlan::full_filtered(&selected)
        }
        "entropy" => {
            let selected = FeatureSelector::Entropy.select(&train, args.fit.p, args.fit.seed);
            TrainingPlan::full_filtered(&selected)
        }
        other => unreachable!("the parser refuses train variant `{other}`"),
    };
    let budget = match args.deadline {
        Some(d) => RunBudget::with_deadline(d),
        None => RunBudget::unlimited(),
    };
    // Hidden worker mode: fit our shard into its journal and exit. The
    // supervisor owns model assembly, so a worker saves nothing.
    if let Some((k, n)) = args.shard_worker {
        let base = args.journal().ok_or("--shard-worker requires --journal")?;
        apply_worker_faults_from_env(&shard_journal_path(base, k, n));
        let fit = frac_core::shard::worker_run(&train, &plan, &config, &budget, base, k, n)?;
        eprintln!(
            "shard {k}/{n}: {} target(s) journaled ({} restored)",
            fit.model.n_targets(),
            fit.resumed
        );
        return Ok(());
    }
    eprintln!(
        "{} {} on {} samples × {} features ({} targets{})…",
        if resuming { "resuming" } else { "fitting" },
        args.fit.variant,
        train.n_rows(),
        train.n_features(),
        plan.n_targets(),
        match args.deadline {
            Some(d) => format!(", deadline {d:?}"),
            None => String::new(),
        }
    );
    // Start tracing before any fit work so the encode/quarantine spans are
    // captured too. `start()` only refuses if another session is live in
    // this process, which the single-run CLI never does.
    let session = if args.telemetry.is_some() { TelemetrySession::start() } else { None };
    let mut shard_stats: Option<Vec<ShardStat>> = None;
    let (model, mut report) = if let Some(n_shards) = args.shards {
        // `--shards N` supervisor: spawn N worker re-invocations of this
        // binary, each journaling its own shard; merge is bit-identical to
        // a single-process run.
        let base = args.journal().ok_or("--shards requires --journal")?.clone();
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate own binary to spawn workers: {e}"))?;
        let mut spawn = |k: usize, remaining: Option<Duration>| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(worker_argv(&args, &base, k, n_shards, remaining));
            for (key, value) in args.shard_faults.worker_env(k) {
                cmd.env(key, value);
            }
            cmd.stdout(std::process::Stdio::null()).stderr(std::process::Stdio::null());
            cmd.spawn()
        };
        let run = train_sharded(
            &train,
            &plan,
            &config,
            &budget,
            &base,
            n_shards,
            &args.shard_options,
            &mut spawn,
            &mut |e| eprintln!("{e}"),
        )?;
        eprintln!(
            "shards merged: restarts per shard {:?}; worker-phase health: {}",
            run.model.shard_restarts(),
            run.journal_health.summary()
        );
        shard_stats = Some(run.stats);
        (run.model, run.report)
    } else if resuming {
        let paths = expand_journal_paths(&args.journals)
            .map_err(|e| format!("expanding --journal paths: {e}"))?;
        match shard_set(&paths)? {
            Some((base, n_shards)) => {
                // A directory of shard journals (or one --journal per
                // shard): complete each shard in-process, then merge.
                let run = resume_shards(
                    &train,
                    &plan,
                    &config,
                    &budget,
                    &base,
                    n_shards,
                    &mut |e| eprintln!("{e}"),
                )?;
                shard_stats = Some(run.stats);
                (run.model, run.report)
            }
            None => {
                let jpath = match paths.as_slice() {
                    [one] => one,
                    [] => return Err("resume found no journals to resume from".into()),
                    _ => {
                        return Err("resume takes one plain journal, or shard journals \
                                    that form one complete set"
                            .into())
                    }
                };
                let fit = FracModel::resume(&train, &plan, &config, &budget, jpath)
                    .map_err(|e| format!("{}: {e}", jpath.display()))?;
                report_journal_fit(&fit, jpath, plan.n_targets());
                (fit.model, fit.report)
            }
        }
    } else if let Some(jpath) = args.journal() {
        let fit = FracModel::fit_journaled(&train, &plan, &config, &budget, jpath)
            .map_err(|e| format!("{}: {e}", jpath.display()))?;
        report_journal_fit(&fit, jpath, plan.n_targets());
        (fit.model, fit.report)
    } else {
        FracModel::fit_budgeted(&train, &plan, &config, &budget)
    };
    if let Some(stats) = &shard_stats {
        for (k, s) in stats.iter().enumerate() {
            eprintln!(
                "shard {k}: {} planned, {} restart(s), {} from workers, {} reclaimed",
                s.planned, s.restarts, s.worker_records, s.reclaimed
            );
        }
    }
    if let Some(tpath) = &args.telemetry {
        let mut notes = vec![("health".into(), report.health.summary())];
        if let Some(stats) = &shard_stats {
            let restarts: Vec<String> = stats.iter().map(|s| s.restarts.to_string()).collect();
            notes.push(("shard_restarts".into(), restarts.join(" ")));
        }
        report.telemetry = write_trace(session, tpath, notes)?;
    }
    model.save(&args.out)?;
    eprintln!(
        "saved {} ({} feature models, {:.3} Gflop training)",
        args.out.display(),
        model.n_targets(),
        report.flops as f64 / 1e9
    );
    eprintln!("health: {}", report.health.summary());
    if args.deadline.is_some() && !report.health.is_clean() {
        eprintln!(
            "deadline run: every planned target is accounted (fitted, \
             baseline-substituted, or dropped); rerun with --journal and \
             `frac resume` to finish the remainder properly"
        );
    }
    Ok(())
}

/// Print the resume/degradation status of a journaled single-process fit.
fn report_journal_fit(fit: &JournaledFit, jpath: &std::path::Path, n_targets: usize) {
    if fit.resumed > 0 {
        eprintln!(
            "journal {}: {} of {} targets restored, fitting the rest",
            jpath.display(),
            fit.resumed,
            n_targets
        );
    }
    if fit.journal_broken {
        eprintln!(
            "warning: journal {} stopped accepting appends mid-run; \
             the model is complete but a crash would lose checkpoints",
            jpath.display()
        );
    }
}

/// `--top-features K`: one line per scored row naming its `k` largest NS
/// contributions, largest first (none when `k` is 0).
fn top_feature_lines(contributions: &ContributionMatrix, schema: &Schema, k: usize) -> Vec<String> {
    if k == 0 {
        return Vec::new();
    }
    (0..contributions.n_rows)
        .map(|r| {
            let mut ranked: Vec<(usize, f64)> = contributions
                .feature_ids
                .iter()
                .zip(&contributions.values)
                .map(|(&f, col)| (f, col[r]))
                .collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            let tops: Vec<String> = ranked
                .iter()
                .take(k)
                .map(|&(f, c)| format!("{}={c:.2}", schema.feature(f).name))
                .collect();
            format!("sample {r} top features: {}", tops.join(" "))
        })
        .collect()
}

/// Score with a previously saved model.
fn score_with_model(args: &ScoreArgs, path: &std::path::Path) -> Result<(), Error> {
    let test = read_data_at(&args.test)?;
    // `FracModel::load` errors already name the path.
    let model = FracModel::load(path).map_err(|e| e.to_string())?;
    // The daemon's compatibility gate: a test file of another schema would
    // otherwise panic deep in the encoder instead of being refused.
    validate_model(&model, test.schema()).map_err(|e| {
        format!(
            "{} does not match the schema of model {}: {e}",
            args.test.display(),
            path.display()
        )
    })?;
    model.scoring_plan().map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "loaded model: {}/{} planned targets survived; scoring {} samples…",
        model.n_targets(),
        model.planned_targets(),
        test.n_rows()
    );
    if model.n_targets() < model.planned_targets() {
        eprintln!("note: NS is renormalized over the surviving targets");
    }
    if !model.shard_restarts().is_empty() {
        eprintln!(
            "sharded run ({} shards): worker restarts per shard {:?}",
            model.shard_restarts().len(),
            model.shard_restarts()
        );
    }
    let contributions = model.contributions(&test);
    print_scores(args, &contributions.ns_scores(), &contributions, test.schema())
}

/// Print `frac score`'s output: the NS table, then the `--top-features`
/// lines and the AUC against `--labels` when asked for.
fn print_scores(
    args: &ScoreArgs,
    ns: &[f64],
    contributions: &ContributionMatrix,
    schema: &Schema,
) -> Result<(), Error> {
    println!("sample\tns_score");
    for (r, v) in ns.iter().enumerate() {
        println!("{r}\t{v:.6}");
    }
    for line in top_feature_lines(contributions, schema, args.top_features) {
        eprintln!("{line}");
    }
    if let Some(path) = &args.labels {
        let labels = read_labels(path, ns.len())?;
        eprintln!("AUC = {:.4}", auc_from_scores(ns, &labels));
    }
    Ok(())
}

fn score(args: ScoreArgs) -> Result<(), Error> {
    if let Some(path) = args.model.clone() {
        return score_with_model(&args, &path);
    }
    let train = read_data_at(&args.fit.train)?;
    let test = read_data_at(&args.test)?;
    if train.schema() != test.schema() {
        return Err("train and test schemas differ".into());
    }
    let variant = variant_from(&args);
    eprintln!(
        "training {variant} on {} samples × {} features…",
        train.n_rows(),
        train.n_features()
    );
    let out = run_variant(&train, &test, &variant, &args.fit.config());
    print_scores(&args, &out.ns, &out.contributions, test.schema())?;
    eprintln!(
        "resources: {} models, {:.3} Gflop, peak ≈ {:.1} MiB, {:?}",
        out.resources.models_trained,
        out.resources.flops as f64 / 1e9,
        out.resources.peak_bytes() as f64 / (1024.0 * 1024.0),
        out.resources.wall
    );
    eprintln!("health: {}", out.resources.health.summary());
    Ok(())
}

/// Summarize a telemetry trace written by `train --telemetry`: per-stage
/// time table with wall-clock shares, counters, the solver-stats delta,
/// and the slowest targets.
fn inspect_telemetry(path: &std::path::Path, top: usize) -> Result<(), Error> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let report =
        TelemetryReport::parse_tsv(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wall\t{:.3}s", report.wall_ns as f64 / 1e9);
    for (k, v) in &report.notes {
        println!("note\t{k}\t{v}");
    }
    println!();
    println!("stage\tspans\ttotal_ms\tmax_ms\tpct_wall");
    let wall = report.wall_ns.max(1) as f64;
    for t in report.stage_totals() {
        println!(
            "{}\t{}\t{:.3}\t{:.3}\t{:.1}",
            t.stage,
            t.count,
            t.total_ns as f64 / 1e6,
            t.max_ns as f64 / 1e6,
            100.0 * t.total_ns as f64 / wall
        );
    }
    println!();
    println!("counter\tvalue");
    for c in Counter::ALL {
        println!("{}\t{}", c.as_str(), report.counter(c));
    }
    if let Some(name) = frac_dataset::kernels::describe_mask(report.counter(Counter::KernelTier)) {
        println!("kernel_tier_name\t{name}");
    }
    if let Some(names) =
        frac_core::describe_strategy_mask(report.counter(Counter::SolverStrategy))
    {
        println!("solver_strategy_names\t{names}");
    }
    println!(
        "solver\tsolves={} epochs={} visits={} dense_slots={} gram_solves={} gram_builds={} pack_reuses={}",
        report.solver.solves,
        report.solver.epochs,
        report.solver.visits,
        report.solver.dense_slots,
        report.solver.gram_solves,
        report.solver.gram_builds,
        report.solver.pack_reuses
    );
    let slow = report.slowest_targets(top);
    if !slow.is_empty() {
        println!();
        println!("target\ttotal_ms\t(top {} slowest)", slow.len());
        for (t, ns) in slow {
            println!("{t}\t{:.3}", ns as f64 / 1e6);
        }
    }
    Ok(())
}

fn entropy(path: &std::path::Path, top: usize) -> Result<(), Error> {
    let data = read_data_at(path)?;
    let entropies = frac_dataset::entropy::feature_entropies(&data);
    let order = frac_dataset::entropy::rank_by_entropy(&data);
    println!("rank\tfeature\tkind\tentropy_nats");
    for (rank, &j) in order.iter().take(top).enumerate() {
        let f = data.schema().feature(j);
        println!("{}\t{}\t{}\t{:.4}", rank + 1, f.name, f.kind, entropies[j]);
    }
    Ok(())
}

fn generate(name: &str, out: &std::path::Path, seed: u64) -> Result<(), Error> {
    let s = lookup(name).ok_or_else(|| {
        format!("unknown dataset `{name}`; valid names: {PAPER_DATASETS:?}")
    })?;
    std::fs::create_dir_all(out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let ld = make_dataset(name, seed);

    // Paper protocol: train = ⅔ of normals; test = rest + anomalies.
    let normals = ld.normal_indices();
    let n_train = (normals.len() * 2) / 3;
    let train_rows = &normals[..n_train];
    let mut test_rows: Vec<usize> = normals[n_train..].to_vec();
    test_rows.extend(ld.anomaly_indices());

    let train_path = out.join(format!("{name}.train.tsv"));
    let test_path = out.join(format!("{name}.test.tsv"));
    let labels_path = out.join(format!("{name}.labels.txt"));
    write_tsv(&ld.data.select_rows(train_rows), &train_path)?;
    write_tsv(&ld.data.select_rows(&test_rows), &test_path)?;
    let labels: Vec<String> = test_rows
        .iter()
        .map(|&r| if ld.labels[r] { "1".into() } else { "0".into() })
        .collect();
    std::fs::write(&labels_path, labels.join("\n") + "\n")?;

    println!(
        "wrote {} ({} samples × {} features), {} ({} samples), {}",
        train_path.display(),
        n_train,
        s.n_features(),
        test_path.display(),
        test_rows.len(),
        labels_path.display()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::FitArgs;
    use frac_core::ShardOptions;

    #[test]
    fn variant_construction() {
        let mut a = ScoreArgs::default();
        for (name, expect_display) in [
            ("full", "full"),
            ("filter", "Random-filter(p=0.05)"),
            ("entropy", "Entropy-filter(p=0.05)"),
            ("jl", "jl(d=64,Gaussian)"),
        ] {
            a.fit.variant = name.into();
            assert_eq!(variant_from(&a).to_string(), expect_display);
        }
    }

    #[test]
    fn generate_then_score_roundtrip() {
        let dir = std::env::temp_dir().join("frac-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let train = read_tsv(dir.join("breast.basal.train.tsv")).unwrap();
        let test = read_tsv(dir.join("breast.basal.test.tsv")).unwrap();
        assert_eq!(train.n_features(), 320);
        assert_eq!(train.schema(), test.schema());
        let labels = std::fs::read_to_string(dir.join("breast.basal.labels.txt")).unwrap();
        assert_eq!(labels.split_whitespace().count(), test.n_rows());
        // Score with the cheapest variant to exercise the whole path.
        let args = ScoreArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.03,
                ..FitArgs::default()
            },
            test: dir.join("breast.basal.test.tsv"),
            labels: Some(dir.join("breast.basal.labels.txt")),
            top_features: 2,
            ..ScoreArgs::default()
        };
        score(args).unwrap();
    }

    #[test]
    fn train_then_score_with_saved_model() {
        let dir = std::env::temp_dir().join("frac-cli-test-model");
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let model_path = dir.join("model.frac");
        train(TrainArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.04,
                ..FitArgs::default()
            },
            out: model_path.clone(),
            ..TrainArgs::default()
        }, false)
        .unwrap();
        assert!(model_path.exists());
        let args = ScoreArgs {
            model: Some(model_path),
            test: dir.join("breast.basal.test.tsv"),
            labels: Some(dir.join("breast.basal.labels.txt")),
            ..ScoreArgs::default()
        };
        score(args).unwrap();
    }

    #[test]
    fn top_features_agree_between_saved_model_and_in_process_fit() {
        let dir = std::env::temp_dir().join("frac-cli-test-top-features");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let model_path = dir.join("model.frac");
        let args = ScoreArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "full".into(),
                ..FitArgs::default()
            },
            test: dir.join("breast.basal.test.tsv"),
            top_features: 3,
            ..ScoreArgs::default()
        };
        train(
            TrainArgs { fit: args.fit.clone(), out: model_path.clone(), ..TrainArgs::default() },
            false,
        )
        .unwrap();
        // `score --model` and `score --train` rank the same contributions.
        let test = read_data_at(&args.test).unwrap();
        let model = FracModel::load(&model_path).unwrap();
        let saved = top_feature_lines(&model.contributions(&test), test.schema(), 3);
        let config = args.fit.config();
        let fitted =
            run_variant(&read_data_at(&args.fit.train).unwrap(), &test, &Variant::Full, &config);
        let in_process = top_feature_lines(&fitted.contributions, test.schema(), 3);
        assert_eq!(saved.len(), test.n_rows());
        assert!(saved[0].starts_with("sample 0 top features: "), "{}", saved[0]);
        assert_eq!(saved[0].split(' ').count(), 4 + 3, "{}", saved[0]);
        assert_eq!(saved, in_process);
        assert!(top_feature_lines(&fitted.contributions, test.schema(), 0).is_empty());
        score(ScoreArgs { model: Some(model_path), ..args }).unwrap();
    }

    #[test]
    fn pack_train_score_matches_tsv_path() {
        let dir = std::env::temp_dir().join("frac-cli-test-fcb");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let tsv_path = dir.join("breast.basal.train.tsv");
        let fcb_path = dir.join("breast.basal.train.fcb");
        pack(&tsv_path, &fcb_path, 64).unwrap();
        info(&fcb_path).unwrap();
        // Packing is lossless: same fingerprint as the parsed TSV.
        let from_fcb = read_data_at(&fcb_path).unwrap();
        let from_tsv = read_data_at(&tsv_path).unwrap();
        assert_eq!(from_fcb.fingerprint(), from_tsv.fingerprint());
        // Train from each; the saved models must be byte-identical.
        for (data, out) in [(&tsv_path, "m-tsv.frac"), (&fcb_path, "m-fcb.frac")] {
            train(
                TrainArgs {
                    fit: FitArgs {
                        train: data.clone(),
                        variant: "filter".into(),
                        p: 0.04,
                        ..FitArgs::default()
                    },
                    out: dir.join(out),
                    ..TrainArgs::default()
                },
                false,
            )
            .unwrap();
        }
        let m_tsv = std::fs::read(dir.join("m-tsv.frac")).unwrap();
        let m_fcb = std::fs::read(dir.join("m-fcb.frac")).unwrap();
        assert_eq!(m_tsv, m_fcb, "FCB-trained model must match TSV-trained byte for byte");
        // Packing an .fcb again is refused; info on a TSV is a clean error.
        assert!(pack(&fcb_path, &dir.join("x.fcb"), 64).is_err());
        assert!(info(&tsv_path).is_err());
    }

    #[test]
    fn score_with_model_rejects_a_mismatched_schema() {
        let dir = std::env::temp_dir().join("frac-cli-test-model-schema");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("autism", &dir, 5).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let model = dir.join("autism.frac");
        train(
            TrainArgs {
                fit: FitArgs {
                    train: dir.join("autism.train.tsv"),
                    snp: true,
                    variant: "filter".into(),
                    p: 0.04,
                    ..FitArgs::default()
                },
                out: model.clone(),
                ..TrainArgs::default()
            },
            false,
        )
        .unwrap();
        // An expression test file against a SNP model: refused with the
        // first mismatch named, not a panic in the encoder.
        let err = score(ScoreArgs {
            model: Some(model.clone()),
            test: dir.join("breast.basal.test.tsv"),
            ..ScoreArgs::default()
        })
        .unwrap_err()
        .to_string();
        assert!(err.contains("does not match the schema"), "{err}");
        assert!(err.contains("target "), "{err}");
        // The model's own test file still scores.
        score(ScoreArgs {
            model: Some(model),
            test: dir.join("autism.test.tsv"),
            ..ScoreArgs::default()
        })
        .unwrap();
    }

    #[test]
    fn journaled_train_then_resume_and_deadline_run() {
        let dir = std::env::temp_dir().join("frac-cli-test-journal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let base = TrainArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.04,
                ..FitArgs::default()
            },
            out: dir.join("m.frac"),
            journals: vec![dir.join("run.frj")],
            ..TrainArgs::default()
        };
        // Journaled train from scratch, then resume of the complete journal:
        // every target restores, nothing refits, same saved model.
        train(base.clone(), false).unwrap();
        let first = std::fs::read(dir.join("m.frac")).unwrap();
        train(TrainArgs { out: dir.join("m2.frac"), ..base.clone() }, true).unwrap();
        let second = std::fs::read(dir.join("m2.frac")).unwrap();
        assert_eq!(first, second);
        // Resuming under a different seed must refuse the journal.
        let foreign = TrainArgs { fit: FitArgs { seed: 7, ..base.fit.clone() }, ..base.clone() };
        let err = train(foreign, true).unwrap_err();
        assert!(err.to_string().contains("journal"), "{err}");
        // A resume without any journal on disk is an error, not a fresh run.
        let err = train(
            TrainArgs { journals: vec![dir.join("absent.frj")], ..base.clone() },
            true,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no journal"), "{err}");
        // An (easily met) deadline run still exits cleanly and saves.
        train(
            TrainArgs {
                journals: Vec::new(),
                deadline: Some(std::time::Duration::from_secs(600)),
                out: dir.join("m3.frac"),
                ..base
            },
            false,
        )
        .unwrap();
        assert!(dir.join("m3.frac").exists());
    }

    /// Under `cargo test`, `current_exe()` is the test binary, which
    /// rejects worker argv and dies instantly — so with a zero retry
    /// budget the supervisor's reclaim path must finish every shard
    /// in-process and still produce the single-process model bit for bit.
    #[test]
    fn sharded_train_falls_back_to_in_process_reclaim() {
        let dir = std::env::temp_dir().join("frac-cli-test-shards");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let base = TrainArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.04,
                ..FitArgs::default()
            },
            out: dir.join("m.frac"),
            ..TrainArgs::default()
        };
        train(
            TrainArgs {
                journals: vec![dir.join("run.frj")],
                shards: Some(2),
                shard_options: ShardOptions {
                    retry_budget: 0,
                    backoff_base: std::time::Duration::from_millis(1),
                    ..ShardOptions::default()
                },
                ..base.clone()
            },
            false,
        )
        .unwrap();
        let sharded = FracModel::load(dir.join("m.frac")).unwrap();
        assert_eq!(sharded.shard_restarts(), &[0, 0]);
        // Reference: plain single-process fit of the same spec.
        train(TrainArgs { out: dir.join("ref.frac"), ..base }, false).unwrap();
        let reference = FracModel::load(dir.join("ref.frac")).unwrap();
        assert!(reference.shard_restarts().is_empty());
        let data = read_tsv(dir.join("breast.basal.train.tsv")).unwrap();
        let (a, b) = (reference.score(&data), sharded.score(&data));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `frac resume` pointed at the directory holding the shard journals
    /// reassembles the same model; a wrong-seed resume refuses each shard
    /// journal with the named-hash detail.
    #[test]
    fn resume_assembles_a_directory_of_shard_journals() {
        let dir = std::env::temp_dir().join("frac-cli-test-shard-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let base = TrainArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.04,
                ..FitArgs::default()
            },
            out: dir.join("m.frac"),
            journals: vec![dir.join("run.frj")],
            shards: Some(2),
            shard_options: ShardOptions {
                retry_budget: 0,
                backoff_base: std::time::Duration::from_millis(1),
                ..ShardOptions::default()
            },
            ..TrainArgs::default()
        };
        train(base.clone(), false).unwrap();
        let first = std::fs::read(dir.join("m.frac")).unwrap();
        // Resume from the directory: both shard journals are complete, so
        // nothing refits and the saved model is byte-identical.
        train(
            TrainArgs {
                journals: vec![dir.clone()],
                shards: None,
                out: dir.join("m2.frac"),
                ..base.clone()
            },
            true,
        )
        .unwrap();
        let second = std::fs::read(dir.join("m2.frac")).unwrap();
        assert_eq!(first, second);
        // A foreign (wrong-seed) resume is refused per shard, naming the
        // config hash that differed.
        let err = train(
            TrainArgs {
                fit: FitArgs { seed: 7, ..base.fit.clone() },
                journals: vec![dir.clone()],
                shards: None,
                ..base
            },
            true,
        )
        .unwrap_err();
        assert!(err.to_string().contains("config hash"), "{err}");
    }

    #[test]
    fn train_with_telemetry_writes_an_inspectable_trace() {
        let dir = std::env::temp_dir().join("frac-cli-test-telemetry");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let base = TrainArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.04,
                ..FitArgs::default()
            },
            out: dir.join("m.frac"),
            ..TrainArgs::default()
        };
        let tpath = dir.join("trace.tsv");
        train(TrainArgs { telemetry: Some(tpath.clone()), ..base.clone() }, false).unwrap();
        let report =
            TelemetryReport::parse_tsv(&std::fs::read_to_string(&tpath).unwrap()).unwrap();
        assert!(!report.spans.is_empty());
        assert!(report.wall_ns > 0);
        assert!(report.notes.iter().any(|(k, _)| k == "health"));
        inspect_telemetry(&tpath, 3).unwrap();
        // A `.json` extension switches the output format.
        let jpath = dir.join("trace.json");
        train(
            TrainArgs { telemetry: Some(jpath.clone()), out: dir.join("m2.frac"), ..base },
            false,
        )
        .unwrap();
        assert!(std::fs::read_to_string(&jpath).unwrap().trim_start().starts_with('{'));
        // Inspecting something that is not a trace names the file.
        let err = inspect_telemetry(&jpath, 3).unwrap_err();
        assert!(err.to_string().contains("trace.json"), "{err}");
    }

    #[test]
    fn generate_rejects_unknown_dataset() {
        let dir = std::env::temp_dir().join("frac-cli-test-unknown");
        let err = generate("not.a.dataset", &dir, 1).unwrap_err();
        assert!(err.to_string().contains("unknown dataset"), "{err}");
    }

    #[test]
    fn missing_input_file_error_names_the_path() {
        let err = read_data_at(std::path::Path::new("/nonexistent/q.tsv")).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/q.tsv"), "{err}");
    }

    #[test]
    fn label_mismatch_is_an_error_even_with_a_saved_model() {
        let dir = std::env::temp_dir().join("frac-cli-test-labellen");
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        let model_path = dir.join("model.frac");
        train(TrainArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                p: 0.04,
                ..FitArgs::default()
            },
            out: model_path.clone(),
            ..TrainArgs::default()
        }, false)
        .unwrap();
        let short = dir.join("short.labels.txt");
        std::fs::write(&short, "1\n0\n").unwrap();
        let err = score(ScoreArgs {
            model: Some(model_path),
            test: dir.join("breast.basal.test.tsv"),
            labels: Some(short),
            ..ScoreArgs::default()
        })
        .unwrap_err();
        assert!(err.to_string().contains("labels for"), "{err}");
    }

    #[test]
    fn entropy_command_runs() {
        let dir = std::env::temp_dir().join("frac-cli-test-entropy");
        std::fs::create_dir_all(&dir).unwrap();
        generate("autism", &dir, 3).unwrap();
        entropy(&dir.join("autism.train.tsv"), 5).unwrap();
    }

    #[test]
    fn score_rejects_schema_mismatch() {
        let dir = std::env::temp_dir().join("frac-cli-test-mismatch");
        std::fs::create_dir_all(&dir).unwrap();
        generate("breast.basal", &dir, 5).unwrap();
        generate("autism", &dir, 5).unwrap();
        let args = ScoreArgs {
            fit: FitArgs {
                train: dir.join("breast.basal.train.tsv"),
                variant: "filter".into(),
                ..FitArgs::default()
            },
            test: dir.join("autism.test.tsv"),
            ..ScoreArgs::default()
        };
        assert!(score(args).is_err());
    }
}
