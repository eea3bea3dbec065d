//! The train stage, run in its own child process: pack the training TSV to
//! FCB and open it (set-up), then journaled fits from the mapped dataset,
//! each followed by a model save.

use crate::stage::{Round, StageReport};
use crate::trace::{self, Recorder};
use crate::workload::Workload;
use frac_core::{FracConfig, FracModel, JournaledFit, RunBudget, TargetOutcome, TrainingPlan};
use frac_dataset::design::PoolSpec;
use frac_dataset::fcb::{self, FcbFile};
use frac_dataset::{io, Dataset};
use frac_learn::telemetry::Counter;
use std::path::Path;

/// Set-up repetitions (pack + open) per round.
const SETUP_REPS: usize = 4;
/// Rows buffered per FCB write chunk: the `frac pack` default.
const CHUNK_ROWS: usize = 8192;
/// Repetitions of the cheap per-layer calls timed in traced rounds.
const LAYER_REPS: usize = 7;

pub fn run(dir: &Path, workload: Workload, round: Round, rec: &mut Recorder) -> StageReport {
    let mut out = StageReport::default();
    let train_tsv = dir.join("train.tsv");
    let fcb_path = dir.join("train.fcb");
    let test = io::read_tsv(dir.join("test.tsv")).expect("test TSV written by the parent");
    let config = workload.config();
    let plan = TrainingPlan::full(test.n_features());

    // Set-up: what a user pays before training can start.
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let (ds, total) = rec.time("fcb.setup", |r| {
            let (stats, pack) = r.time("fcb.pack_tsv", |_| {
                fcb::pack_tsv(&train_tsv, &fcb_path, CHUNK_ROWS)
            });
            out.add("fcb.pack_s", pack);
            let stats = stats.expect("pack the training TSV");
            let (ds, open) = r.time("fcb.open", |_| {
                FcbFile::open(&fcb_path)
                    .expect("open the packed file")
                    .dataset()
            });
            out.add("fcb.open_s", open);
            out.add("fcb.file_bytes", stats.file_bytes as f64);
            ds
        });
        out.add("setup_s", total);
        data = Some(ds);
    }
    let data = data.expect("at least one set-up rep");

    let mut reference: Option<Vec<u64>> = None;
    let mut check_bits = |what: &str, model: &FracModel, out: &mut StageReport| {
        let bits: Vec<u64> = model.score(&test).iter().map(|v| v.to_bits()).collect();
        match &reference {
            None => reference = Some(bits),
            Some(first) if *first != bits => {
                out.problem(format!("{what}: NS bits differ from the first fit"))
            }
            Some(_) => {}
        }
    };

    let mut last = None;
    if !round.traced {
        // A round always fits once, and starts another fit while at least
        // half of its longest fit so far fits in the stage's budget: the
        // fit count rounds to nearest, so a long fit neither overruns nor
        // wastes the budget on average. The parent gives later stages
        // what this one leaves or takes.
        let mut longest = 0.0f64;
        while longest == 0.0 || longest / 2.0 <= round.left() {
            // Free the previous model first, so every fit starts from the
            // same resident set and the peak does not depend on the count.
            drop(last.take());
            let (fit, f, s) = journaled_fit(rec, dir, &data, &plan, &config, &mut out);
            if longest == 0.0 {
                // After set-up and one fit, as in a `frac train` process;
                // later fits would make the peak depend on the fit count.
                out.add("train_peak_rss_mb", crate::stage::peak_rss_mb());
            }
            check_bits("journaled fit", &fit.model, &mut out);
            out.add("train_s", f + s);
            longest = longest.max(f + s);
            last = Some(fit);
        }
    } else {
        // One fit of each kind, in an order rotated per round so slow drift
        // on a shared host does not always land on the same kind.
        let in_memory = io::read_tsv(&train_tsv).expect("parse the training TSV");
        let (mut plain, mut journaled, mut traced, mut traced_id) = (0.0, 0.0, 0.0, None);
        for step in 0..3 {
            match (round.index + step) % 3 {
                0 => {
                    let ((model, _), secs) =
                        rec.time("model.fit", |_| FracModel::fit(&in_memory, &plan, &config));
                    check_bits("in-memory fit from the parsed TSV", &model, &mut out);
                    plain = secs;
                }
                1 => {
                    let (fit, f, s) = journaled_fit(rec, dir, &data, &plan, &config, &mut out);
                    out.add("train_peak_rss_mb", crate::stage::peak_rss_mb());
                    check_bits("journaled fit", &fit.model, &mut out);
                    out.add("train_s", f + s);
                    journaled = f;
                }
                _ => {
                    let (fit, f, _) =
                        rec.traced(|r| journaled_fit(r, dir, &data, &plan, &config, &mut out));
                    check_bits("traced journaled fit", &fit.model, &mut out);
                    traced_id = rec
                        .spans
                        .iter()
                        .rev()
                        .find(|s| s.name == "model.fit_journaled")
                        .map(|s| s.id);
                    traced = f;
                    last = Some(fit);
                }
            }
        }
        out.add("journal.overhead_frac", journaled / plain - 1.0);
        out.add("trace.overhead_frac", traced / journaled - 1.0);
        layer_metrics(rec, traced_id, &mut out);
        cheap_layers(rec, &train_tsv, &data, &config, &mut out);
    }
    let fit = last.expect("at least one fit");
    out.add("persist.model_bytes", file_len(&dir.join("model.frac")));
    out.add("model.flops", fit.report.flops as f64);
    out.add("model.peak_bytes", fit.report.peak_bytes() as f64);
    out.ns = fit.model.score(&test);
    out
}

/// One fresh journaled fit plus save: `(fit, fit seconds, save seconds)`.
/// Checks the fit started fresh and journaled cleanly, and charges
/// dropped targets and member fallbacks as failed operations.
fn journaled_fit(
    rec: &mut Recorder,
    dir: &Path,
    data: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
    out: &mut StageReport,
) -> (JournaledFit, f64, f64) {
    let journal = dir.join("train.frj");
    // A leftover journal would turn the fit into a resume.
    let _ = std::fs::remove_file(&journal);
    let (fit, fit_s) = rec.time("model.fit_journaled", |_| {
        FracModel::fit_journaled(data, plan, config, &RunBudget::unlimited(), &journal)
            .expect("create a fresh journal")
    });
    let (saved, save_s) = rec.time("persist.save", |_| fit.model.save(dir.join("model.frac")));
    saved.expect("save the model");
    out.add("persist.save_s", save_s);
    if fit.resumed != 0 {
        out.problem(format!(
            "journaled fit resumed {} targets instead of starting fresh",
            fit.resumed
        ));
    }
    if fit.journal_broken {
        out.problem("journal append failed during the fit".to_string());
    }
    let health = &fit.report.health;
    let member_drops = health
        .events
        .iter()
        .filter(|e| matches!(e.outcome, TargetOutcome::MemberDropped { .. }))
        .count();
    out.ops(
        health.targets_planned as u64,
        (health.n_dropped() + health.n_degraded() + member_drops) as u64,
    );
    (fit, fit_s, save_s)
}

/// Per-layer split of the round's traced fit (span `fit_span`), from the
/// telemetry spans merged under it.
fn layer_metrics(rec: &Recorder, fit_span: Option<u64>, out: &mut StageReport) {
    let nodes = rec.nodes();
    let selfs = trace::self_times(&nodes);
    let self_s = |name: &str| trace::self_total_s(&nodes, &selfs, name);
    out.add("entropy.self_s", self_s("entropy"));
    out.add("learn.fit_self_s", self_s("solve") + self_s("tree_grow"));
    out.add("cv.fold_self_s", self_s("cv_fold"));
    out.add("model.final_train_self_s", self_s("final_train"));
    out.add("model.error_model_s", self_s("error_model"));
    out.add("journal.append_s", self_s("journal_append"));
    out.add(
        "tree.grows",
        nodes.iter().filter(|x| x.name == "tree_grow").count() as f64,
    );
    let (_, report) = rec
        .sessions
        .last()
        .expect("the traced fit ran under a session");
    out.add("tree.nodes", report.counter(Counter::TreeNodes) as f64);
    out.add(
        "journal.bytes",
        report.counter(Counter::JournalBytes) as f64,
    );
    out.add(
        "design.encoded_cells",
        report.counter(Counter::EncodedCells) as f64,
    );
    let s = &report.solver;
    for (name, v) in [
        ("solver.solves", s.solves),
        ("solver.epochs", s.epochs),
        ("solver.visits", s.visits),
        ("solver.gram_solves", s.gram_solves),
        ("solver.gram_builds", s.gram_builds),
        ("solver.pack_reuses", s.pack_reuses),
    ] {
        out.add(name, v as f64);
    }
    // Fit wall time that no telemetry span accounts for.
    if let Some((node, &uncovered)) = nodes
        .iter()
        .zip(&selfs)
        .find(|(n, _)| Some(n.id) == fit_span)
    {
        out.add(
            "trace.unattributed_frac",
            uncovered as f64 / (node.end - node.start).max(1) as f64,
        );
    }
}

/// Layers cheap enough to time directly, outside any fit.
fn cheap_layers(
    rec: &mut Recorder,
    train_tsv: &Path,
    data: &Dataset,
    config: &FracConfig,
    out: &mut StageReport,
) {
    let all: Vec<usize> = (0..data.n_features()).collect();
    for _ in 0..LAYER_REPS {
        let (parsed, s) = rec.time("io.read_tsv", |_| io::read_tsv(train_tsv));
        parsed.expect("parse the training TSV");
        out.add("io.read_tsv_s", s);
        let (_, s) = rec.time("design.encode", |_| {
            PoolSpec::fit(data, &all, config.standardize).encode(data)
        });
        out.add("design.encode_s", s);
        let (_, s) = rec.time("entropy.feature_entropies", |_| {
            frac_dataset::entropy::feature_entropies(data)
        });
        out.add("entropy.feature_entropies_s", s);
    }
}

fn file_len(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}
