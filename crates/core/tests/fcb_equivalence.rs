//! Out-of-core datasets must be a pure storage change: a model fitted from
//! a memory-mapped FCB file (zero-copy columns into the mapping) must
//! produce NS scores bit-identical (`f64::to_bits`) to one fitted from the
//! same data parsed out of TSV, at any thread count, on both paper model
//! families. The scored test cohort is round-tripped through FCB too, so
//! the mapped path is exercised on both sides of the fit/score divide.

use frac_core::{FracConfig, FracModel, TrainingPlan};
use frac_dataset::fcb::{pack_dataset_chunked, pack_tsv, FcbFile};
use frac_dataset::io::{read_tsv, write_tsv};
use frac_dataset::Dataset;
use frac_synth::snp::{CohortGroup, SnpConfig, SnpGenerator, SubpopulationMix};
use frac_synth::{ExpressionConfig, ExpressionGenerator};
use std::path::{Path, PathBuf};

fn expression_surrogate() -> (Dataset, Dataset) {
    let (data, _) = ExpressionGenerator::new(ExpressionConfig {
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
    let train = data.select_rows(&(0..30).collect::<Vec<_>>());
    let test = data.select_rows(&(30..42).collect::<Vec<_>>());
    (train, test)
}

fn snp_surrogate() -> (Dataset, Dataset) {
    let gen = SnpGenerator::new(SnpConfig {
        n_snps: 30,
        ld_block_size: 4,
        ld_rho: 0.6,
        n_subpops: 2,
        fst: 0.1,
        n_disease_loci: 4,
        disease_effect: 0.2,
        structure_seed: 11,
        ..SnpConfig::default()
    });
    let groups = [
        CohortGroup { n: 36, mix: SubpopulationMix::uniform(2), is_case: false },
        CohortGroup { n: 6, mix: SubpopulationMix::uniform(2), is_case: true },
    ];
    let (data, _) = gen.generate(&groups, 13);
    let train = data.select_rows(&(0..30).collect::<Vec<_>>());
    let test = data.select_rows(&(30..42).collect::<Vec<_>>());
    (train, test)
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (r, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {r} differs ({x:?} vs {y:?})");
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("frac-fcb-equiv-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Round-trip `train`/`test` through FCB (with a small chunk so the
/// chunked encoder crosses boundaries) and check the mapped datasets fit
/// and score bit-identically to the in-memory originals.
fn check_fcb_matches_memory(
    train: &Dataset,
    test: &Dataset,
    config: &FracConfig,
    dir: &Path,
    what: &str,
) {
    let train_fcb = dir.join("train.fcb");
    let test_fcb = dir.join("test.fcb");
    pack_dataset_chunked(train, &train_fcb, 8).unwrap();
    pack_dataset_chunked(test, &test_fcb, 8).unwrap();
    let train_mapped = FcbFile::open(&train_fcb).unwrap().dataset();
    let test_mapped = FcbFile::open(&test_fcb).unwrap().dataset();
    assert_eq!(train_mapped.fingerprint(), train.fingerprint(), "{what}: train content");
    assert_eq!(test_mapped.fingerprint(), test.fingerprint(), "{what}: test content");

    let plan = TrainingPlan::full(train.n_features());
    let (from_memory, _) = FracModel::fit(train, &plan, config);
    let (from_fcb, _) = FracModel::fit(&train_mapped, &plan, config);
    assert_bits_eq(
        &from_fcb.score(&test_mapped),
        &from_memory.score(test),
        &format!("{what}: FCB-fitted vs in-memory NS"),
    );
}

#[test]
fn fcb_scores_identical_on_expression_surrogate() {
    let (train, test) = expression_surrogate();
    let dir = tmp_dir("expr");
    check_fcb_matches_memory(&train, &test, &FracConfig::default(), &dir, "expression");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fcb_scores_identical_on_snp_surrogate() {
    let (train, test) = snp_surrogate();
    let dir = tmp_dir("snp");
    let config = FracConfig::snp();
    check_fcb_matches_memory(&train, &test, &config, &dir, "snp");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fcb_scores_identical_across_thread_counts() {
    let (train, test) = expression_surrogate();
    let dir = tmp_dir("threads");
    pack_dataset_chunked(&train, dir.join("train.fcb"), 8).unwrap();
    pack_dataset_chunked(&test, dir.join("test.fcb"), 8).unwrap();
    let config = FracConfig::default();
    let plan = TrainingPlan::full(train.n_features());
    let mut per_thread = Vec::new();
    for threads in [1usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let ns = pool.install(|| {
            let train_mapped = FcbFile::open(dir.join("train.fcb")).unwrap().dataset();
            let test_mapped = FcbFile::open(dir.join("test.fcb")).unwrap().dataset();
            let (model, _) = FracModel::fit(&train_mapped, &plan, &config);
            model.score(&test_mapped)
        });
        per_thread.push((threads, ns));
    }
    let (_, ref ns1) = per_thread[0];
    for (threads, ns) in &per_thread[1..] {
        assert_bits_eq(ns, ns1, &format!("mapped NS at {threads} threads vs 1"));
    }
    // And the threaded mapped runs agree with the unmapped single-thread fit.
    let (model, _) = FracModel::fit(&train, &plan, &config);
    assert_bits_eq(ns1, &model.score(&test), "mapped vs in-memory NS");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tsv_and_packed_tsv_train_identically() {
    // The full CLI-shaped pipeline: write TSV, pack it with `pack_tsv`
    // (streaming two-pass), and check TSV-parse vs FCB-map equivalence.
    let (train, test) = expression_surrogate();
    let dir = tmp_dir("pack");
    let tsv_path = dir.join("train.tsv");
    let fcb_path = dir.join("train.fcb");
    write_tsv(&train, &tsv_path).unwrap();
    pack_tsv(&tsv_path, &fcb_path, 8).unwrap();
    let from_tsv = read_tsv(&tsv_path).unwrap();
    let from_fcb = FcbFile::open(&fcb_path).unwrap().dataset();
    assert_eq!(from_fcb.fingerprint(), from_tsv.fingerprint());

    let plan = TrainingPlan::full(train.n_features());
    let config = FracConfig::default();
    let (m_tsv, _) = FracModel::fit(&from_tsv, &plan, &config);
    let (m_fcb, _) = FracModel::fit(&from_fcb, &plan, &config);
    assert_bits_eq(&m_fcb.score(&test), &m_tsv.score(&test), "packed-TSV vs parsed-TSV NS");
    std::fs::remove_dir_all(&dir).ok();
}
