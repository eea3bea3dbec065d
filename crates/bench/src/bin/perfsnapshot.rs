//! Performance snapshot: the fast solver path (shrinking + warm starts +
//! blocked kernels) against the strict reference solver on solver-bound
//! SVM configurations (`BENCH_solver.json`), so the perf trajectory is
//! tracked across PRs. Further families measure sharded-run scaling —
//! per-shard journals fitted concurrently then merged, at 1/2/4 shards
//! (`BENCH_shard.json`) — the SIMD kernel tier — per-kernel
//! throughput (the solver's dot, axpy and sq_norm, and the scoring plan's
//! eight-record dot8), and the expression fit wall and NS drift under the portable
//! unrolled tier vs the dispatched tier (`BENCH_simd.json`) — and the
//! Gram-matrix dual strategy against the primal fast path, with a d/n
//! sweep locating the measured crossover (`BENCH_gram.json`) — and the
//! out-of-core FCB path: chunked pack time and peak encode buffer on a
//! synthetic tall dataset, mmap-open vs TSV-parse wall clock, peak-RSS
//! checkpoints around each load path, and an NS bit-identity check between
//! FCB-trained and TSV-trained models (`BENCH_oocore.json`).
//!
//! ```text
//! cargo run -p frac-bench --release --bin perfsnapshot [-- --family NAME]...
//! ```
//!
//! With no `--family` flag every family runs; `--family` (repeatable:
//! `solver | shard | simd | gram | oocore`)
//! restricts the run to the named families. The whole fit (wall clock,
//! encoded cells, peak bytes), the journal (append time, bytes, overhead
//! over a plain fit), model save and load, and the serving path (cold
//! start, single-record latency, saturated throughput) and the tracing
//! overhead are measured end to end by the `ledger` benchmark instead.
//!
//! Environment knobs: `FRAC_PERF_FEATURES` (default 400),
//! `FRAC_PERF_ROWS` (default 80), `FRAC_PERF_REPS` (default 2; best of),
//! `FRAC_PERF_SOLVER_FEATURES` (default 160; solver-bound families),
//! `FRAC_PERF_OOCORE_ROWS` / `FRAC_PERF_OOCORE_COLS` /
//! `FRAC_PERF_OOCORE_CHUNK` (defaults 150000 / 24 / 4096; oocore only).

use frac_core::config::{CatModel, RealModel};
use frac_core::{FracConfig, FracModel, SolverMode, SolverStrategy, TrainingPlan};
use frac_dataset::kernels::{self, KernelTier};
use frac_dataset::{Dataset, DesignMatrix};
use frac_learn::solver::stats::{self, SolverStats};
use frac_learn::svr::SvrTrainer;
use frac_learn::traits::RegressorTrainer;
use frac_learn::{SvcConfig, SvrConfig, TargetBudget};
use frac_synth::snp::CohortGroup;
use frac_synth::{ExpressionConfig, ExpressionGenerator, SnpConfig, SnpGenerator, SubpopulationMix};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One timed fit+score run with the process-wide solver counters it drove.
struct SolverSnapshot {
    fit_s: f64,
    score_s: f64,
    flops: u64,
    stats: SolverStats,
}

fn solver_timed(
    train: &Dataset,
    test: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
) -> SolverSnapshot {
    stats::reset();
    let t0 = Instant::now();
    let (model, report) = FracModel::fit(train, plan, config);
    let fit_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let ns = model.score(test);
    let score_s = t1.elapsed().as_secs_f64();
    assert!(ns.iter().all(|s| s.is_finite()));
    SolverSnapshot { fit_s, score_s, flops: report.flops, stats: stats::snapshot() }
}

fn solver_best_of(
    reps: usize,
    train: &Dataset,
    test: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
) -> SolverSnapshot {
    let mut best: Option<SolverSnapshot> = None;
    for _ in 0..reps {
        let s = solver_timed(train, test, plan, config);
        if best.as_ref().is_none_or(|b| s.fit_s < b.fit_s) {
            best = Some(s);
        }
    }
    best.expect("at least one rep")
}

fn solver_mode_json(s: &SolverSnapshot) -> String {
    format!(
        "{{\"fit_wall_s\": {:.6}, \"score_wall_s\": {:.6}, \"flops\": {}, \
         \"solves\": {}, \"epochs\": {}, \"coordinate_visits\": {}, \
         \"dense_slots\": {}, \"active_set_occupancy\": {:.4}}}",
        s.fit_s,
        s.score_s,
        s.flops,
        s.stats.solves,
        s.stats.epochs,
        s.stats.visits,
        s.stats.dense_slots,
        s.stats.occupancy(),
    )
}

/// Time one solver-bound family through the strict reference solver and the
/// fast path (shrinking + warm-started duals + blocked kernels) and render
/// its JSON object.
fn solver_family_json(
    name: &str,
    train: &Dataset,
    test: &Dataset,
    base: &FracConfig,
    reps: usize,
) -> String {
    let plan = TrainingPlan::full(train.n_features());
    let strict =
        solver_best_of(reps, train, test, &plan, &(*base).with_solver_mode(SolverMode::Strict));
    let fast =
        solver_best_of(reps, train, test, &plan, &(*base).with_solver_mode(SolverMode::Fast));
    let fit_speedup = strict.fit_s / fast.fit_s;
    let epoch_ratio = fast.stats.epochs as f64 / strict.stats.epochs as f64;
    let visit_ratio = fast.stats.visits as f64 / strict.stats.visits as f64;
    eprintln!(
        "{name}: fit strict {:.3}s vs fast {:.3}s ({fit_speedup:.2}x); \
         epochs {} -> {} ({epoch_ratio:.3}); visits {} -> {} ({visit_ratio:.3}); \
         fast occupancy {:.3}",
        strict.fit_s,
        fast.fit_s,
        strict.stats.epochs,
        fast.stats.epochs,
        strict.stats.visits,
        fast.stats.visits,
        fast.stats.occupancy(),
    );
    format!(
        "  \"{name}\": {{\n    \
         \"surrogate\": {{\"n_features\": {}, \"train_rows\": {}, \"test_rows\": {}}},\n    \
         \"strict\": {},\n    \
         \"fast\": {},\n    \
         \"fit_speedup\": {fit_speedup:.3},\n    \
         \"epoch_ratio\": {epoch_ratio:.4},\n    \
         \"visit_ratio\": {visit_ratio:.4}\n  }}",
        train.n_features(),
        train.n_rows(),
        test.n_rows(),
        solver_mode_json(&strict),
        solver_mode_json(&fast),
    )
}

/// Sharded-run scaling: each shard's sub-plan is fitted by
/// [`frac_core::shard::worker_run`] on its own thread (process spawn and
/// supervisor poll latency are the supervisor's business, not the fit's),
/// journaling into its own `.s<k>-<n>` file, then
/// [`frac_core::shard::resume_shards`] merges the complete set. Per shard
/// count the best-of-reps fit wall, merge wall, and journal footprint are
/// recorded, and the merged NS must be bit-identical to a single-process
/// fit.
fn shard_family_json(
    name: &str,
    train: &Dataset,
    test: &Dataset,
    config: &FracConfig,
    reps: usize,
) -> String {
    let plan = TrainingPlan::full(train.n_features());
    let mut single_fit_s = f64::INFINITY;
    let mut reference_bits: Option<Vec<u64>> = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (model, _) = FracModel::fit(train, &plan, config);
        single_fit_s = single_fit_s.min(t0.elapsed().as_secs_f64());
        let bits: Vec<u64> = model.score(test).iter().map(|v| v.to_bits()).collect();
        if let Some(first) = &reference_bits {
            assert_eq!(first, &bits, "single-process fits must be deterministic");
        } else {
            reference_bits = Some(bits);
        }
    }
    let reference_bits = reference_bits.expect("at least one rep");
    let dir = std::env::temp_dir().join(format!("frac-perf-shard-{name}"));
    let mut rows = Vec::new();
    for &n_shards in &[1usize, 2, 4] {
        let mut best: Option<(f64, f64, u64)> = None;
        for _ in 0..reps {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("shard bench dir");
            let base = dir.join("run.frj");
            let t0 = Instant::now();
            std::thread::scope(|s| {
                for k in 0..n_shards {
                    let base = &base;
                    let plan = &plan;
                    s.spawn(move || {
                        let fit = frac_core::shard::worker_run(
                            train,
                            plan,
                            config,
                            &frac_core::RunBudget::unlimited(),
                            base,
                            k,
                            n_shards,
                        )
                        .expect("shard worker");
                        assert_eq!(fit.resumed, 0, "bench must measure a fresh run");
                    });
                }
            });
            let fit_s = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let merged = frac_core::shard::resume_shards(
                train,
                &plan,
                config,
                &frac_core::RunBudget::unlimited(),
                &base,
                n_shards,
                &mut |e| panic!("complete shard journals must merge silently: {e}"),
            )
            .expect("shard merge");
            let merge_s = t1.elapsed().as_secs_f64();
            let bits: Vec<u64> =
                merged.model.score(test).iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                reference_bits, bits,
                "merged NS must be bit-identical to the single-process fit"
            );
            let journal_bytes: u64 = (0..n_shards)
                .map(|k| {
                    let p = frac_core::shard::shard_journal_path(&base, k, n_shards);
                    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
                })
                .sum();
            if best.is_none_or(|b| fit_s < b.0) {
                best = Some((fit_s, merge_s, journal_bytes));
            }
        }
        let (fit_s, merge_s, journal_bytes) = best.expect("at least one rep");
        let overhead = fit_s / single_fit_s - 1.0;
        eprintln!(
            "{name}: {n_shards} shard(s) fit {fit_s:.3}s ({:+.2}% vs single-process \
             {single_fit_s:.3}s), merge {merge_s:.4}s, journals {journal_bytes} bytes",
            overhead * 100.0,
        );
        rows.push(format!(
            "      {{\"n_shards\": {n_shards}, \"fit_wall_s\": {fit_s:.6}, \
             \"merge_wall_s\": {merge_s:.6}, \"journal_bytes\": {journal_bytes}, \
             \"fit_overhead_fraction\": {overhead:.4}}}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "  \"{name}\": {{\n    \
         \"surrogate\": {{\"n_features\": {}, \"train_rows\": {}, \"test_rows\": {}}},\n    \
         \"single_process\": {{\"fit_wall_s\": {single_fit_s:.6}}},\n    \
         \"records\": {},\n    \
         \"ns_bits_identical\": true,\n    \
         \"shards\": [\n{}\n    ]\n  }}",
        train.n_features(),
        train.n_rows(),
        test.n_rows(),
        plan.n_targets(),
        rows.join(",\n"),
    )
}

/// Per-kernel throughput for one tier, in GFLOP/s on a cache-resident
/// slice (each element of dot/axpy/sq_norm, and each record-weight pair of
/// dot8, is one multiply + one add; dot8 folds 1024/8 weights against an
/// eight-record block of 1024 cells, the same flops per call).
/// Long enough to amortize the dispatch load, short enough to stay in L1.
/// Each kernel's window is only tens of milliseconds, so on a
/// shared single-vCPU host a single steal burst can halve one reading —
/// take the best of three interleaved rounds per kernel.
fn kernel_gflops(tier: KernelTier) -> [f64; 4] {
    use std::hint::black_box;
    const LEN: usize = 1024;
    const ITERS: usize = 100_000;
    const ROUNDS: usize = 3;
    let flops = (2 * LEN * ITERS) as f64 / 1e9;
    let x: Vec<f64> = (0..LEN).map(|i| (i as f64 * 0.37).sin()).collect();
    let w: Vec<f64> = (0..LEN).map(|i| (i as f64 * 0.11).cos()).collect();

    let mut best = [0.0f64; 4];
    let mut wbuf = w.clone();
    for _ in 0..ROUNDS {
        let mut acc = 0.0f64;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            acc += kernels::dot_for_tier(tier, black_box(&x), black_box(&w), 0.0);
        }
        best[0] = best[0].max(flops / t0.elapsed().as_secs_f64());
        black_box(acc);

        let t0 = Instant::now();
        for i in 0..ITERS {
            // Alternate the sign so the buffer never drifts out of range.
            let alpha = if i % 2 == 0 { 1e-3 } else { -1e-3 };
            kernels::axpy_for_tier(tier, alpha, black_box(&x), black_box(&mut wbuf));
        }
        best[1] = best[1].max(flops / t0.elapsed().as_secs_f64());
        black_box(&wbuf);

        let mut acc = 0.0f64;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            acc += kernels::sq_norm_for_tier(tier, black_box(&x), 0.0);
        }
        best[2] = best[2].max(flops / t0.elapsed().as_secs_f64());
        black_box(acc);

        // Each call starts its own sums, as each scored predictor does.
        let w8 = &w[..LEN / kernels::BLOCK_RECORDS];
        let mut acc = 0.0f64;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            let mut acc8 = [-0.0f64; kernels::BLOCK_RECORDS];
            kernels::dot8_for_tier(tier, black_box(w8), black_box(&x), &mut acc8);
            acc += black_box(acc8)[0];
        }
        best[3] = best[3].max(flops / t0.elapsed().as_secs_f64());
        black_box(acc);
    }
    best
}

/// One timed pooled fit + NS score bits under the currently forced kernel
/// tier.
fn simd_timed(train: &Dataset, test: &Dataset, config: &FracConfig) -> (f64, Vec<f64>) {
    let plan = TrainingPlan::full(train.n_features());
    let t0 = Instant::now();
    let (model, _) = FracModel::fit(train, &plan, config);
    let fit_s = t0.elapsed().as_secs_f64();
    let ns = model.score(test);
    assert!(ns.iter().all(|s| s.is_finite()));
    (fit_s, ns)
}

fn simd_best_of(
    reps: usize,
    train: &Dataset,
    test: &Dataset,
    config: &FracConfig,
) -> (f64, Vec<f64>) {
    let mut best: Option<(f64, Vec<f64>)> = None;
    for _ in 0..reps {
        let s = simd_timed(train, test, config);
        if best.as_ref().is_none_or(|b| s.0 < b.0) {
            best = Some(s);
        }
    }
    best.expect("at least one rep")
}

/// Time one family's fit under the portable unrolled tier and under the
/// dispatched tier (the best one this CPU supports). Both sides run the
/// same fast solver, so the NS drift between them is the kernels' lane
/// regrouping alone. Returns the rendered JSON object.
fn simd_family_json(
    name: &str,
    train: &Dataset,
    test: &Dataset,
    config: &FracConfig,
    reps: usize,
) -> String {
    kernels::force_tier(Some(KernelTier::Unrolled));
    let (unrolled_s, unrolled_ns) = simd_best_of(reps, train, test, config);
    let tier = kernels::force_tier(None);
    let (tier_s, tier_ns) = simd_best_of(reps, train, test, config);
    let speedup = unrolled_s / tier_s;
    let drift = max_rel_drift(&unrolled_ns, &tier_ns);
    eprintln!(
        "{name}: fit unrolled {unrolled_s:.3}s vs {tier} {tier_s:.3}s ({speedup:.2}x); \
         NS drift across tiers {drift:.2e}"
    );
    format!(
        "  \"{name}\": {{\n    \
         \"surrogate\": {{\"n_features\": {}, \"train_rows\": {}, \"test_rows\": {}}},\n    \
         \"unrolled\": {{\"fit_wall_s\": {unrolled_s:.6}}},\n    \
         \"dispatched\": {{\"fit_wall_s\": {tier_s:.6}, \"tier\": \"{tier}\"}},\n    \
         \"fit_speedup\": {speedup:.3},\n    \
         \"cross_tier_ns_drift\": {drift:.3e}\n  }}",
        train.n_features(),
        train.n_rows(),
        test.n_rows(),
    )
}

/// Fraction of positions where the two NS rankings agree exactly.
fn rank_agreement(a: &[f64], b: &[f64]) -> f64 {
    let order = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]).then(i.cmp(&j)));
        idx
    };
    let (oa, ob) = (order(a), order(b));
    let same = oa.iter().zip(&ob).filter(|(x, y)| x == y).count();
    same as f64 / oa.len().max(1) as f64
}

fn max_rel_drift(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / (1.0 + x.abs()))
        .fold(0.0f64, f64::max)
}

/// One timed fit + NS scores + the solver counters the fit drove, for the
/// Gram-vs-primal strategy A/B.
struct GramSnapshot {
    fit_s: f64,
    ns: Vec<f64>,
    flops: u64,
    stats: SolverStats,
}

fn gram_timed(
    train: &Dataset,
    test: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
) -> GramSnapshot {
    stats::reset();
    let t0 = Instant::now();
    let (model, report) = FracModel::fit(train, plan, config);
    let fit_s = t0.elapsed().as_secs_f64();
    let ns = model.score(test);
    assert!(ns.iter().all(|s| s.is_finite()));
    GramSnapshot { fit_s, ns, flops: report.flops, stats: stats::snapshot() }
}

fn gram_best_of(
    reps: usize,
    train: &Dataset,
    test: &Dataset,
    plan: &TrainingPlan,
    config: &FracConfig,
) -> GramSnapshot {
    let mut best: Option<GramSnapshot> = None;
    for _ in 0..reps {
        let s = gram_timed(train, test, plan, config);
        if best.as_ref().is_none_or(|b| s.fit_s < b.fit_s) {
            best = Some(s);
        }
    }
    best.expect("at least one rep")
}

fn gram_strategy_json(s: &GramSnapshot) -> String {
    format!(
        "{{\"fit_wall_s\": {:.6}, \"flops\": {}, \"solves\": {}, \"gram_solves\": {}, \
         \"gram_builds\": {}, \"pack_reuses\": {}}}",
        s.fit_s, s.flops, s.stats.solves, s.stats.gram_solves, s.stats.gram_builds,
        s.stats.pack_reuses,
    )
}

/// Time one solver-bound family through the primal, Gram, and auto
/// strategies (all on the fast path) and render its JSON object. When
/// `strict_ref` is set, one strict fit provides the NS ranking reference
/// (the bitwise-reference solver); otherwise the primal fast run does.
fn gram_family_json(
    name: &str,
    train: &Dataset,
    test: &Dataset,
    base: &FracConfig,
    reps: usize,
    strict_ref: bool,
) -> String {
    let plan = TrainingPlan::full(train.n_features());
    let primal = gram_best_of(
        reps,
        train,
        test,
        &plan,
        &(*base).with_solver_strategy(SolverStrategy::Primal),
    );
    let gram =
        gram_best_of(reps, train, test, &plan, &(*base).with_solver_strategy(SolverStrategy::Gram));
    let auto =
        gram_best_of(reps, train, test, &plan, &(*base).with_solver_strategy(SolverStrategy::Auto));
    let speedup = primal.fit_s / gram.fit_s;
    let auto_penalty = auto.fit_s / primal.fit_s.min(gram.fit_s) - 1.0;
    let (ref_name, ref_ns) = if strict_ref {
        let (model, _) = FracModel::fit(train, &plan, &(*base).with_solver_mode(SolverMode::Strict));
        ("strict", model.score(test))
    } else {
        ("primal", primal.ns.clone())
    };
    let primal_ranks = rank_agreement(&ref_ns, &primal.ns);
    let gram_ranks = rank_agreement(&ref_ns, &gram.ns);
    let auto_ranks = rank_agreement(&ref_ns, &auto.ns);
    eprintln!(
        "{name}: fit primal {:.3}s vs gram {:.3}s ({speedup:.2}x), auto {:.3}s \
         ({:+.2}% vs best); gram builds {} / reuses {}; \
         rank agreement vs {ref_name}: primal {primal_ranks:.3}, gram {gram_ranks:.3}, \
         auto {auto_ranks:.3}",
        primal.fit_s,
        gram.fit_s,
        auto.fit_s,
        auto_penalty * 100.0,
        gram.stats.gram_builds,
        gram.stats.pack_reuses,
    );
    format!(
        "  \"{name}\": {{\n    \
         \"surrogate\": {{\"n_features\": {}, \"train_rows\": {}, \"test_rows\": {}}},\n    \
         \"primal\": {},\n    \
         \"gram\": {},\n    \
         \"auto\": {},\n    \
         \"fit_speedup_gram_vs_primal\": {speedup:.3},\n    \
         \"auto_penalty_fraction\": {auto_penalty:.4},\n    \
         \"ranking_reference\": \"{ref_name}\",\n    \
         \"rank_agreement_primal\": {primal_ranks:.4},\n    \
         \"rank_agreement_gram\": {gram_ranks:.4},\n    \
         \"rank_agreement_auto\": {auto_ranks:.4}\n  }}",
        train.n_features(),
        train.n_rows(),
        test.n_rows(),
        gram_strategy_json(&primal),
        gram_strategy_json(&gram),
        gram_strategy_json(&auto),
    )
}

/// Time a bare SVR solve (no FRaC pipeline around it) at one `(n, d)`
/// shape under one strategy: `windows` timing windows of `solves` cold
/// solves each, best window wins. Returns seconds per solve.
fn sweep_solve_s(
    x: &DesignMatrix,
    y: &[f64],
    strategy: SolverStrategy,
    windows: usize,
    solves: usize,
) -> f64 {
    let cfg = SvrConfig {
        tolerance: 1e-4,
        max_epochs: 1000,
        mode: SolverMode::Fast,
        strategy,
        ..SvrConfig::default()
    };
    let trainer = SvrTrainer::new(cfg);
    let unlimited = TargetBudget::unlimited();
    let mut best = f64::INFINITY;
    for _ in 0..windows {
        let t0 = Instant::now();
        for _ in 0..solves {
            let (model, _) = trainer.fit(x, y, None, &unlimited).expect("sweep solves converge");
            std::hint::black_box(model);
        }
        best = best.min(t0.elapsed().as_secs_f64() / solves as f64);
    }
    best
}

/// The d/n sweep: fixed row count, widening feature count, bare SVR solves
/// under each strategy. Locates the measured Gram-vs-primal crossover and
/// checks the auto policy never trails the better strategy by more than
/// 5%. Returns the rendered JSON object.
fn gram_sweep_json(n: usize, dims: &[usize], windows: usize, solves: usize) -> String {
    let mut points = Vec::new();
    let mut crossover: Option<f64> = None;
    for &d in dims {
        // Deterministic pseudo-random data: hash-mix the index so columns
        // are linearly independent-ish without pulling in an RNG.
        let values: Vec<f64> =
            (0..n * d).map(|i| ((i * 7919 + 131) % 104729) as f64 / 52364.5 - 1.0).collect();
        let x = DesignMatrix::from_raw(n, d, values);
        let y: Vec<f64> = (0..n).map(|i| ((i * 6151 + 7) % 104729) as f64 / 52364.5 - 1.0).collect();
        let primal_s = sweep_solve_s(&x, &y, SolverStrategy::Primal, windows, solves);
        let gram_s = sweep_solve_s(&x, &y, SolverStrategy::Gram, windows, solves);
        let auto_s = sweep_solve_s(&x, &y, SolverStrategy::Auto, windows, solves);
        let ratio = d as f64 / n as f64;
        let policy_gram = frac_learn::solver::gram_policy().should_use_gram(n, d);
        let auto_within = auto_s <= 1.05 * primal_s.min(gram_s);
        if crossover.is_none() && gram_s <= primal_s {
            crossover = Some(ratio);
        }
        eprintln!(
            "sweep n={n} d={d} (d/n {ratio:.2}): primal {:.2}us gram {:.2}us auto {:.2}us; \
             policy={} auto_within_5pct={auto_within}",
            primal_s * 1e6,
            gram_s * 1e6,
            auto_s * 1e6,
            if policy_gram { "gram" } else { "primal" },
        );
        points.push(format!(
            "{{\"d\": {d}, \"dn_ratio\": {ratio:.3}, \"primal_solve_s\": {primal_s:.9}, \
             \"gram_solve_s\": {gram_s:.9}, \"auto_solve_s\": {auto_s:.9}, \
             \"policy_picks_gram\": {policy_gram}, \"auto_within_5pct\": {auto_within}}}"
        ));
    }
    let crossover_json = match crossover {
        Some(r) => format!("{r:.3}"),
        None => "null".to_string(),
    };
    eprintln!(
        "sweep: measured gram-wins crossover at d/n {} (policy crossover ratio {})",
        crossover_json,
        frac_learn::solver::gram_policy().crossover_ratio,
    );
    format!(
        "  \"dn_sweep\": {{\n    \"n_rows\": {n},\n    \
         \"policy_crossover_ratio\": {},\n    \
         \"measured_crossover_dn\": {crossover_json},\n    \
         \"points\": [\n      {}\n    ]\n  }}",
        frac_learn::solver::gram_policy().crossover_ratio,
        points.join(",\n      "),
    )
}

/// Peak resident set (`VmHWM`) of this process in kilobytes, read from
/// `/proc/self/status`; 0 where the file is unavailable. VmHWM is a
/// high-water mark — monotone over the process lifetime — so comparisons
/// must order the low-memory path first.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// Stream a synthetic tall all-real TSV to `path` without materializing a
/// `Dataset` (the point of the oocore family is files bigger than what we
/// want resident). Values come from a xorshift64* stream; roughly 1% of
/// cells are missing. Returns the file size in bytes.
fn write_tall_tsv(path: &std::path::Path, rows: usize, cols: usize) -> std::io::Result<u64> {
    use std::io::Write as _;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for j in 0..cols {
        if j > 0 {
            write!(w, "\t")?;
        }
        write!(w, "g{j}:real")?;
    }
    writeln!(w)?;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for r in 0..rows {
        for j in 0..cols {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let v = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            if j > 0 {
                write!(w, "\t")?;
            }
            if (r + j) % 97 == 0 {
                write!(w, "?")?;
            } else {
                write!(w, "{:.4}", (v % 2_000_000) as f64 / 100.0 - 10_000.0)?;
            }
        }
        writeln!(w)?;
    }
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

fn main() {
    let n_features = env_usize("FRAC_PERF_FEATURES", 400);
    let n_rows = env_usize("FRAC_PERF_ROWS", 80);
    let reps = env_usize("FRAC_PERF_REPS", 2).max(1);
    let n_test = n_rows;

    const FAMILIES: [&str; 5] = ["solver", "shard", "simd", "gram", "oocore"];
    let mut selected: Vec<String> = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--family" => {
                let v = argv.next().unwrap_or_else(|| {
                    eprintln!("--family wants a value ({})", FAMILIES.join(" | "));
                    std::process::exit(2);
                });
                if !FAMILIES.contains(&v.as_str()) {
                    eprintln!("unknown family `{v}` ({})", FAMILIES.join(" | "));
                    std::process::exit(2);
                }
                selected.push(v);
            }
            other => {
                eprintln!(
                    "unknown argument `{other}` \
                     (usage: perfsnapshot [--family {}]...)",
                    FAMILIES.join("|")
                );
                std::process::exit(2);
            }
        }
    }
    // No flag → every family, preserving the original all-in-one snapshot.
    let run = |name: &str| selected.is_empty() || selected.iter().any(|f| f == name);

    eprintln!("perfsnapshot: {n_features} features x {n_rows} train rows, best of {reps}");

    let (expr, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features,
        n_modules: 12,
        relevant_fraction: 0.8,
        anomaly_modules: 3,
        anomaly_shift: 2.5,
        noise_sd: 0.6,
        structure_seed: 42,
        ..ExpressionConfig::default()
    })
    .generate(n_rows, n_test, 9);
    let expr_train = expr.select_rows(&(0..n_rows).collect::<Vec<_>>());
    let expr_test = expr.select_rows(&(n_rows..n_rows + n_test).collect::<Vec<_>>());

    let (snp, _) = SnpGenerator::new(SnpConfig {
        n_snps: n_features,
        n_subpops: 2,
        fst: 0.1,
        n_disease_loci: n_features / 20,
        disease_effect: 0.2,
        structure_seed: 42,
        ..SnpConfig::default()
    })
    .generate(
        &[
            CohortGroup { n: n_rows, mix: SubpopulationMix::uniform(2), is_case: false },
            CohortGroup { n: n_test, mix: SubpopulationMix::uniform(2), is_case: true },
        ],
        9,
    );
    let snp_train = snp.select_rows(&(0..n_rows).collect::<Vec<_>>());
    let snp_test = snp.select_rows(&(n_rows..n_rows + n_test).collect::<Vec<_>>());

    // Solver-bound families: tight stopping tolerance with a high epoch cap
    // makes the dual coordinate-descent solves dominate the fit wall, which
    // is what the fast solver path (shrinking + warm starts + blocked
    // kernels) targets. Smaller surrogates than the encode bench keep the
    // strict reference tractable.
    let n_solver = env_usize("FRAC_PERF_SOLVER_FEATURES", 160);
    let n_solver_rows = n_rows.min(60);

    eprintln!("solver bench: {n_solver} features x {n_solver_rows} train rows, best of {reps}");

    let (sexpr, _) = ExpressionGenerator::new(ExpressionConfig {
        n_features: n_solver,
        n_modules: 8,
        relevant_fraction: 0.8,
        anomaly_modules: 2,
        anomaly_shift: 2.5,
        noise_sd: 0.6,
        structure_seed: 43,
        ..ExpressionConfig::default()
    })
    .generate(n_solver_rows, n_solver_rows, 10);
    let sexpr_train = sexpr.select_rows(&(0..n_solver_rows).collect::<Vec<_>>());
    let sexpr_test =
        sexpr.select_rows(&(n_solver_rows..2 * n_solver_rows).collect::<Vec<_>>());

    let (ssnp, _) = SnpGenerator::new(SnpConfig {
        n_snps: n_solver,
        n_subpops: 2,
        fst: 0.1,
        n_disease_loci: n_solver / 20,
        disease_effect: 0.2,
        structure_seed: 43,
        ..SnpConfig::default()
    })
    .generate(
        &[
            CohortGroup { n: n_solver_rows, mix: SubpopulationMix::uniform(2), is_case: false },
            CohortGroup { n: n_solver_rows, mix: SubpopulationMix::uniform(2), is_case: true },
        ],
        10,
    );
    let ssnp_train = ssnp.select_rows(&(0..n_solver_rows).collect::<Vec<_>>());
    let ssnp_test = ssnp.select_rows(&(n_solver_rows..2 * n_solver_rows).collect::<Vec<_>>());

    let svr_cfg = FracConfig {
        real_model: RealModel::Svr(SvrConfig {
            tolerance: 1e-4,
            max_epochs: 1000,
            ..SvrConfig::default()
        }),
        ..FracConfig::default()
    };
    let svc_cfg = FracConfig {
        cat_model: CatModel::Svc(SvcConfig {
            tolerance: 1e-4,
            max_epochs: 1000,
            ..SvcConfig::default()
        }),
        ..FracConfig::snp()
    };

    if run("solver") {
        let sexpr_json =
            solver_family_json("expression_svr", &sexpr_train, &sexpr_test, &svr_cfg, reps);
        let ssnp_json = solver_family_json("snp_svc", &ssnp_train, &ssnp_test, &svc_cfg, reps);

        let solver_json = format!("{{\n{sexpr_json},\n{ssnp_json}\n}}\n");
        std::fs::write("BENCH_solver.json", &solver_json).expect("write BENCH_solver.json");
        println!("{solver_json}");
    }

    if run("shard") {
        // Shard scaling: the same fit split round-robin over 1/2/4 in-process
        // workers (one journal each) and merged back. On this host the win is
        // crash isolation, not parallel speedup — the number that matters is
        // the overhead of journaling per shard plus the merge wall, and that
        // the merged NS stays bit-identical to the single-process run.
        let snp_shard =
            shard_family_json("snp", &snp_train, &snp_test, &FracConfig::snp(), reps);
        let shard_json = format!("{{\n{snp_shard}\n}}\n");
        std::fs::write("BENCH_shard.json", &shard_json).expect("write BENCH_shard.json");
        println!("{shard_json}");
    }

    if run("simd") {
        // SIMD kernel tier: per-kernel throughput for every supported tier,
        // then the solve-bound expression fit under the portable unrolled
        // tier vs the dispatched tier. Runs after the timing families above
        // because it swaps the process-wide kernel table.
        let avx2_ok = KernelTier::Avx2Fma.supported();
        eprintln!(
            "simd bench: dispatched tier {}, avx2+fma supported: {avx2_ok}",
            kernels::active_tier()
        );
        let kernel_names = ["dot", "axpy", "sq_norm", "dot8"];
        let unrolled = kernel_gflops(KernelTier::Unrolled);
        let vector = if avx2_ok { Some(kernel_gflops(KernelTier::Avx2Fma)) } else { None };
        let kernel_rows: Vec<String> = kernel_names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let base = unrolled[k];
                match vector {
                    Some(v) => {
                        eprintln!(
                            "kernel {name}: unrolled {base:.2} GFLOP/s, avx2+fma {:.2} GFLOP/s \
                             ({:.2}x)",
                            v[k],
                            v[k] / base
                        );
                        format!(
                            "\"{name}\": {{\"unrolled_gflops\": {base:.3}, \
                             \"avx2_fma_gflops\": {:.3}, \"speedup\": {:.3}}}",
                            v[k],
                            v[k] / base
                        )
                    }
                    None => format!("\"{name}\": {{\"unrolled_gflops\": {base:.3}}}"),
                }
            })
            .collect();

        // The solver families above stay small so the strict reference
        // remains tractable, but this A/B never runs strict — both sides
        // take the fast path — so it can afford a wider expression
        // surrogate whose dot segments actually amortize the vector kernels.
        let n_simd = env_usize("FRAC_PERF_SIMD_FEATURES", 320);
        eprintln!("simd expression surrogate: {n_simd} features x {n_rows} train rows");
        let (wexpr, _) = ExpressionGenerator::new(ExpressionConfig {
            n_features: n_simd,
            n_modules: 8,
            relevant_fraction: 0.8,
            anomaly_modules: 2,
            anomaly_shift: 2.5,
            noise_sd: 0.6,
            structure_seed: 43,
            ..ExpressionConfig::default()
        })
        .generate(n_rows, n_rows, 10);
        let wexpr_train = wexpr.select_rows(&(0..n_rows).collect::<Vec<_>>());
        let wexpr_test = wexpr.select_rows(&(n_rows..2 * n_rows).collect::<Vec<_>>());

        // Expression fits are under a second a side — small enough for
        // steal-time bursts to swing a best-of-2, so this family always
        // takes at least three reps.
        let expr_simd =
            simd_family_json("expression_svr", &wexpr_train, &wexpr_test, &svr_cfg, reps.max(3));

        let simd_json = format!(
            "{{\n  \"dispatch\": {{\"selected_tier\": \"{}\", \"avx2_fma_supported\": {avx2_ok}}},\n  \
             \"kernels\": {{{}}},\n{expr_simd}\n}}\n",
            kernels::active_tier(),
            kernel_rows.join(", "),
        );
        std::fs::write("BENCH_simd.json", &simd_json).expect("write BENCH_simd.json");
        println!("{simd_json}");
    }

    if run("gram") {
        // Gram-matrix dual strategy: primal vs Gram vs auto on the same
        // solver-bound configurations as BENCH_solver but at full surrogate
        // width (n ≪ d is the regime the strategy targets), plus a bare-
        // solver d/n sweep that locates the measured crossover. The SNP
        // family anchors its NS rankings to the strict reference solver;
        // expression (every target an SVR solve, ~6x more fits) anchors to
        // the primal fast path to keep the strict side tractable.
        let gram_reps = reps.max(3);
        eprintln!(
            "gram bench: {n_features} features x {n_rows} train rows, best of {gram_reps}"
        );
        let snp_gram =
            gram_family_json("snp_svc", &snp_train, &snp_test, &svc_cfg, gram_reps, true);
        let expr_gram = gram_family_json(
            "expression_svr",
            &expr_train,
            &expr_test,
            &svr_cfg,
            gram_reps,
            false,
        );
        // Tight-tolerance agreement: the timing families above run at the
        // solver-bound 1e-4 tolerance, where fast and strict stop at
        // slightly different points and near-tie NS ranks can swap — for
        // primal exactly as for Gram (compare their rank_agreement
        // fields). At 1e-6 both solvers reach the same optimum, so the
        // Gram rankings must match the strict reference exactly. Uses the
        // solver-bench surrogate: a strict 400-feature fit at 1e-6 is not
        // wall-tractable on this host.
        let tight_svc = FracConfig {
            cat_model: CatModel::Svc(SvcConfig {
                tolerance: 1e-6,
                max_epochs: 10_000,
                ..SvcConfig::default()
            }),
            ..FracConfig::snp()
        };
        let tight_plan = TrainingPlan::full(ssnp_train.n_features());
        let (strict_model, _) = FracModel::fit(
            &ssnp_train,
            &tight_plan,
            &tight_svc.with_solver_mode(SolverMode::Strict),
        );
        let strict_ns = strict_model.score(&ssnp_test);
        let (gram_model, _) = FracModel::fit(
            &ssnp_train,
            &tight_plan,
            &tight_svc.with_solver_strategy(SolverStrategy::Gram),
        );
        let gram_ns = gram_model.score(&ssnp_test);
        let tight_agreement = rank_agreement(&strict_ns, &gram_ns);
        eprintln!(
            "tight agreement ({}x{} snp svc, tol 1e-6): gram vs strict rank agreement \
             {tight_agreement:.4}",
            ssnp_train.n_features(),
            ssnp_train.n_rows(),
        );
        let agreement_json = format!(
            "  \"strict_agreement_check\": {{\"n_features\": {}, \"train_rows\": {}, \
             \"tolerance\": 1e-6, \"rank_agreement_gram_vs_strict\": {tight_agreement:.4}}}",
            ssnp_train.n_features(),
            ssnp_train.n_rows(),
        );
        let sweep = gram_sweep_json(48, &[16, 48, 96, 192, 384], 5, 12);
        let gram_json =
            format!("{{\n{snp_gram},\n{expr_gram},\n{agreement_json},\n{sweep}\n}}\n");
        std::fs::write("BENCH_gram.json", &gram_json).expect("write BENCH_gram.json");
        println!("{gram_json}");
    }

    if run("oocore") {
        // Out-of-core FCB path: (a) chunked pack keeps its encode buffer
        // bounded regardless of file size, (b) opening the packed file
        // (mmap + full CRC verification, which touches every page) beats
        // re-parsing the TSV, (c) the mapped path adds no heap proportional
        // to the data, and (d) an FCB-trained model scores bit-identically
        // to a TSV-trained one.
        let oo_rows = env_usize("FRAC_PERF_OOCORE_ROWS", 150_000);
        let oo_cols = env_usize("FRAC_PERF_OOCORE_COLS", 24);
        let oo_chunk = env_usize("FRAC_PERF_OOCORE_CHUNK", 4096);
        eprintln!(
            "oocore bench: {oo_rows} rows x {oo_cols} real columns, chunk {oo_chunk} rows, \
             best of {reps}"
        );
        let dir = std::env::temp_dir().join(format!("frac-perf-oocore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("oocore scratch dir");
        let tsv_path = dir.join("tall.tsv");
        let fcb_path = dir.join("tall.fcb");
        let tsv_bytes = write_tall_tsv(&tsv_path, oo_rows, oo_cols).expect("write tall TSV");

        let t0 = Instant::now();
        let stats =
            frac_dataset::fcb::pack_tsv(&tsv_path, &fcb_path, oo_chunk).expect("pack tall TSV");
        let pack_s = t0.elapsed().as_secs_f64();
        let buffer_ratio = stats.file_bytes as f64 / stats.peak_buffer_bytes.max(1) as f64;

        // VmHWM is monotone, so the low-memory path must run first: any
        // high-water growth observed after the TSV reps belongs to the
        // parse alone.
        let rss_before_load_kb = peak_rss_kb();
        let mut open_s = f64::INFINITY;
        let mut mapped = None;
        for _ in 0..reps {
            let t = Instant::now();
            let d = frac_dataset::fcb::FcbFile::open(&fcb_path).expect("open packed").dataset();
            assert_eq!(d.n_rows(), oo_rows);
            open_s = open_s.min(t.elapsed().as_secs_f64());
            mapped = Some(d);
        }
        let rss_after_mmap_kb = peak_rss_kb();
        let mut parse_s = f64::INFINITY;
        let mut parsed = None;
        for _ in 0..reps {
            let t = Instant::now();
            let d = frac_dataset::io::read_tsv(&tsv_path).expect("parse tall TSV");
            assert_eq!(d.n_rows(), oo_rows);
            parse_s = parse_s.min(t.elapsed().as_secs_f64());
            parsed = Some(d);
        }
        let rss_after_parse_kb = peak_rss_kb();
        assert_eq!(
            mapped.unwrap().fingerprint(),
            parsed.unwrap().fingerprint(),
            "mapped FCB content must match parsed TSV content"
        );
        let load_speedup = parse_s / open_s;
        eprintln!(
            "pack {pack_s:.3}s ({} file bytes, peak buffer {} bytes, {buffer_ratio:.0}x); \
             mmap open {open_s:.4}s vs tsv parse {parse_s:.4}s ({load_speedup:.1}x); \
             peak rss {rss_before_load_kb} -> {rss_after_mmap_kb} -> {rss_after_parse_kb} kB",
            stats.file_bytes, stats.peak_buffer_bytes,
        );

        // NS bit-identity on a small surrogate trained both ways (fitting
        // the tall dataset itself is a fit benchmark, not a storage one).
        let (surr, _) = ExpressionGenerator::new(ExpressionConfig {
            n_features: 24,
            n_modules: 4,
            relevant_fraction: 0.9,
            anomaly_modules: 2,
            anomaly_shift: 3.0,
            noise_sd: 0.5,
            structure_seed: 77,
            ..ExpressionConfig::default()
        })
        .generate(36, 6, 7);
        let surr_train = surr.select_rows(&(0..30).collect::<Vec<_>>());
        let surr_test = surr.select_rows(&(30..42).collect::<Vec<_>>());
        let surr_tsv = dir.join("surr.tsv");
        let surr_fcb = dir.join("surr.fcb");
        frac_dataset::io::write_tsv(&surr_train, &surr_tsv).expect("write surrogate TSV");
        frac_dataset::fcb::pack_tsv(&surr_tsv, &surr_fcb, 8).expect("pack surrogate");
        let from_tsv = frac_dataset::io::read_tsv(&surr_tsv).expect("parse surrogate");
        let from_fcb = frac_dataset::fcb::FcbFile::open(&surr_fcb).expect("open surrogate");
        let surr_plan = TrainingPlan::full(surr_train.n_features());
        let surr_cfg = FracConfig::default();
        let (m_tsv, _) = FracModel::fit(&from_tsv, &surr_plan, &surr_cfg);
        let (m_fcb, _) = FracModel::fit(&from_fcb.dataset(), &surr_plan, &surr_cfg);
        let ns_tsv = m_tsv.score(&surr_test);
        let ns_fcb = m_fcb.score(&surr_test);
        let ns_identical =
            ns_tsv.iter().zip(&ns_fcb).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(ns_identical, "FCB-trained NS must be bit-identical to TSV-trained NS");
        eprintln!("ns bits identical to tsv path: {ns_identical}");

        let oocore_json = format!(
            "{{\n  \"dataset\": {{\"rows\": {oo_rows}, \"real_columns\": {oo_cols}, \
             \"tsv_bytes\": {tsv_bytes}, \"fcb_bytes\": {}}},\n  \
             \"pack\": {{\"wall_s\": {pack_s:.6}, \"chunk_rows\": {}, \
             \"peak_buffer_bytes\": {}, \"file_to_buffer_ratio\": {buffer_ratio:.1}}},\n  \
             \"load\": {{\"mmap_open_s\": {open_s:.6}, \"tsv_parse_s\": {parse_s:.6}, \
             \"mmap_speedup\": {load_speedup:.2}}},\n  \
             \"peak_rss_kb\": {{\"before_load\": {rss_before_load_kb}, \
             \"after_mmap_open\": {rss_after_mmap_kb}, \
             \"after_tsv_parse\": {rss_after_parse_kb}}},\n  \
             \"ns_bits_identical_to_tsv\": {ns_identical}\n}}\n",
            stats.file_bytes, stats.chunk_rows, stats.peak_buffer_bytes,
        );
        std::fs::write("BENCH_oocore.json", &oocore_json).expect("write BENCH_oocore.json");
        println!("{oocore_json}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
