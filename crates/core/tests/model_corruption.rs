//! Corruption and cross-format tests for the model file (v6) and the run
//! journal (v3), held to the FCB standard (FORMATS.md §1): truncation at
//! any offset, any single-bit flip and byte soup are rejected with an
//! error — the model's names its path — never a panic. Flips re-sealed
//! with a recomputed CRC reach the structural checks behind it: a model
//! either refuses them or decodes to a model whose bytes are exactly the
//! file (one byte image per model); a journal either parses the record or
//! reports it `Corrupt`.
//!
//! The inputs are a small mixed-schema fit holding all six predictor kinds
//! and both error models (two fits spliced into one v6 file, every
//! predictor reading all table features but its target), a fit whose
//! predictors read explicit input lists, and the v3 journal of a faulted
//! fit with fitted and dropped records and every event kind. The fixtures
//! under `tests/fixtures/` were written by older writers for the same
//! fits — model v4 (text) and v5, journal v1 (text) and v2 — and must load
//! to today's bytes.

use frac_core::{
    CatModel, FaultPlan, FracConfig, FracModel, JournalError, JournalScan, RealModel, RunBudget,
    RunJournal, SolverMode, TargetOutcome, TargetPlan, TrainingPlan,
};
use frac_dataset::binio::{ByteReader, ByteWriter};
use frac_dataset::crc::crc32;
use frac_dataset::PoolSpec;
use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::Dataset;
use frac_learn::svc::SvcConfig;
use frac_learn::svr::SvrConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const MIXED_A_V4: &str = include_str!("fixtures/mixed-a.v4.frac");
const MIXED_B_V4: &str = include_str!("fixtures/mixed-b.v4.frac");
/// Fits A and B spliced into one file by the v5 writer: one copy of each
/// input's encoder per predictor.
const MIXED_V5: &[u8] = include_bytes!("fixtures/mixed.v5.frac");
/// Fit A's journal as the v1 writer left it, records in target order. The
/// dropped target's record (`gone`) also carries the events no real fit
/// emits — AllMissing and NonFinite quarantines and a MemberDropped — so
/// every event kind is decoded.
const MIXED_A_V1_JOURNAL: &[u8] = include_bytes!("fixtures/mixed-a.v1.frj");
/// The same journal as the v2 writer left it: the v1 fixture resumed once.
const MIXED_A_V2_JOURNAL: &[u8] = include_bytes!("fixtures/mixed-a.v2.frj");

/// A small mixed-schema training set: three real and three ternary
/// categorical features that predict one another, plus four columns built
/// to trip the ingestion screen — a constant real (`flat`, zero variance),
/// a one-class categorical (`mono`), an all-missing real (`gone`) and a
/// real with `+Inf` cells (`inf`).
fn mixed_train() -> Dataset {
    let n = 36;
    let code = |r: usize, k: usize| ((r * (k + 2) + r / 3 + k) % 3) as u32;
    let x = |r: usize| (r as f64 * 0.37).sin() * 2.0 + r as f64 * 0.05;
    DatasetBuilder::new()
        .real("r0", (0..n).map(x).collect())
        .real(
            "r1",
            (0..n)
                .map(|r| 1.5 * x(r) + 0.3 * code(r, 0) as f64 + ((r * 7) % 5) as f64 * 0.1)
                .collect(),
        )
        .real(
            "r2",
            (0..n)
                .map(|r| {
                    if r % 11 == 4 {
                        f64::NAN
                    } else {
                        x(r) - 0.5 * code(r, 1) as f64 + ((r * 3) % 7) as f64 * 0.05
                    }
                })
                .collect(),
        )
        .categorical("c0", 3, (0..n).map(|r| code(r, 0)).collect())
        .categorical(
            "c1",
            3,
            (0..n)
                .map(|r| {
                    if r % 13 == 5 {
                        MISSING_CODE
                    } else {
                        code(r, 1)
                    }
                })
                .collect(),
        )
        .categorical(
            "c2",
            3,
            (0..n).map(|r| (code(r, 0) + code(r, 1)) % 3).collect(),
        )
        .real("flat", vec![2.5; n])
        .categorical("mono", 3, vec![1; n])
        .real("gone", vec![f64::NAN; n])
        .real(
            "inf",
            (0..n)
                .map(|r| {
                    if r % 9 == 2 {
                        f64::INFINITY
                    } else {
                        0.5 * x(r) + ((r * 5) % 3) as f64 * 0.2
                    }
                })
                .collect(),
        )
        .build()
}

/// Fit A: linear SVR and SVC under the strict solver (no kernel tier in
/// the arithmetic) over the targets r0, r1, c0 and the four screened
/// columns, with a forced panic at r0 (baseline rescue) and a forced
/// non-convergence at c0 (strict retry).
fn fit_a_setup() -> (TrainingPlan, FracConfig, FaultPlan) {
    let config = FracConfig {
        real_model: RealModel::Svr(SvrConfig::default()),
        cat_model: CatModel::Svc(SvcConfig::default()),
        ..FracConfig::default()
    }
    .with_solver_mode(SolverMode::Strict);
    let plan = TrainingPlan::partial_filtered(&[0, 1, 3, 6, 7, 8, 9], 10);
    let faults = FaultPlan::none().with_panic_at([0]).with_diverge_at([3]);
    (plan, config, faults)
}

/// Fit B: regression and classification trees over r2, c1 and c2.
fn fit_b_setup() -> (TrainingPlan, FracConfig) {
    (
        TrainingPlan::partial_filtered(&[2, 4, 5], 10),
        FracConfig::snp(),
    )
}

/// Fit A's model and report: SVR (r1, inf), SVC (c0, after a strict
/// retry), constant (r0's baseline rescue, and `flat`), majority (`mono`);
/// `gone` is dropped.
fn fit_a() -> (FracModel, frac_core::ResourceReport) {
    let (plan, config, faults) = fit_a_setup();
    FracModel::fit_with_faults(&mixed_train(), &plan, &config, &faults)
}

/// Fit B's model: a regression tree (r2) and classification trees (c1, c2).
fn fit_b() -> FracModel {
    let (plan, config) = fit_b_setup();
    FracModel::fit(&mixed_train(), &plan, &config).0
}

/// The variant name of a health event.
fn kind(outcome: &TargetOutcome) -> &'static str {
    match outcome {
        TargetOutcome::Sanitized { .. } => "sanitized",
        TargetOutcome::Quarantined { .. } => "quarantined",
        TargetOutcome::Degraded { .. } => "degraded",
        TargetOutcome::MemberDropped { .. } => "member dropped",
        TargetOutcome::Dropped { .. } => "dropped",
    }
}

/// Binary model header offsets (FORMATS.md §3).
const PLANNED: usize = 16;
const SHARDS: usize = 20;
const TABLE: usize = 24;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The encoder table of a single-process v6 file, and the offset of its
/// feature count.
fn table_of(bytes: &[u8]) -> (PoolSpec, usize) {
    assert_eq!(u32_at(bytes, SHARDS), 0);
    let mut r = ByteReader::new(&bytes[TABLE..]);
    let table = PoolSpec::parse_bin(&mut r).unwrap();
    (table, TABLE + r.offset())
}

/// Append a recomputed CRC trailer to a binary model body.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// One v6 file holding the feature sections of both single-process models
/// `a` and `b` (disjoint targets over one encoder table), planned counts
/// added.
fn splice(a: &[u8], b: &[u8]) -> Vec<u8> {
    let ((ta, ka), (tb, kb)) = (table_of(a), table_of(b));
    assert_eq!(ta.first_difference(&tb), None, "both fits read one table");
    assert_eq!(a[TABLE..ka], b[TABLE..kb]);
    let mut out = a[..PLANNED].to_vec();
    out.extend_from_slice(&(u32_at(a, PLANNED) + u32_at(b, PLANNED)).to_le_bytes());
    out.extend_from_slice(&a[SHARDS..ka]);
    out.extend_from_slice(&(u32_at(a, ka) + u32_at(b, kb)).to_le_bytes());
    out.extend_from_slice(&a[ka + 4..a.len() - 4]);
    out.extend_from_slice(&b[kb + 4..b.len() - 4]);
    reseal(out)
}

/// The spliced mixed-schema model's v6 bytes.
fn mixed_model() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| splice(&fit_a().0.to_bytes(), &fit_b().to_bytes()))
}

/// Fit L: trees whose predictors read explicit input lists, one of them
/// out of ascending order and one target with two members.
fn fit_l() -> FracModel {
    let plan = TrainingPlan {
        targets: vec![
            TargetPlan { target: 0, input_sets: vec![vec![1, 3], vec![4, 2]] },
            TargetPlan { target: 3, input_sets: vec![vec![0, 2, 5]] },
        ],
    };
    FracModel::fit(&mixed_train(), &plan, &FracConfig::snp()).0
}

/// Fit L's v6 bytes.
fn listed_model() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| fit_l().to_bytes())
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("frac-model-corruption-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A load of `bytes` from a file must fail with an error naming the file.
fn assert_load_rejects(bytes: &[u8], name: &str, what: &str) -> Result<(), TestCaseError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let result = FracModel::load(&path);
    std::fs::remove_file(&path).ok();
    match result {
        Ok(_) => prop_assert!(false, "{what}: the damaged model loaded"),
        Err(e) => prop_assert!(
            e.to_string().contains(&path.display().to_string()),
            "{what}: the error must name the path: {e}"
        ),
    }
    Ok(())
}

#[test]
fn v4_fixtures_load_to_the_bytes_of_todays_fits() {
    let (a, report) = fit_a();
    let from_v4 = FracModel::from_bytes(MIXED_A_V4.as_bytes()).unwrap();
    assert_eq!(from_v4.to_bytes(), a.to_bytes());
    let from_v4 = FracModel::from_bytes(MIXED_B_V4.as_bytes()).unwrap();
    assert_eq!(from_v4.to_bytes(), fit_b().to_bytes());
    // Fit A took the baseline and degraded paths its docs name.
    let kinds: Vec<&str> = report
        .health
        .events
        .iter()
        .map(|e| kind(&e.outcome))
        .collect();
    for want in ["degraded", "quarantined", "sanitized", "dropped"] {
        assert!(
            kinds.contains(&want),
            "fit A has no `{want}` event: {kinds:?}"
        );
    }
}

/// The v5 file of the spliced fits folds its per-predictor encoders into
/// the table today's fits store: it loads to the v6 bytes of the splice
/// and scores the same bits.
#[test]
fn the_v5_fixture_loads_to_todays_v6_bytes_and_scores_the_same_bits() {
    let from_v5 = FracModel::from_bytes(MIXED_V5).unwrap();
    assert_eq!(from_v5.to_bytes(), mixed_model());
    let today = FracModel::from_bytes(mixed_model()).unwrap();
    let bits = |m: &FracModel| m.score(&mixed_train()).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&from_v5), bits(&today));
    let unpooled = from_v5.contributions_unpooled(&mixed_train());
    assert_eq!(unpooled, from_v5.contributions(&mixed_train()));
}

/// The offsets of every copy of feature `j`'s encoder in `bytes`, found
/// by the bytes the table stores for it.
fn encoder_copies(bytes: &[u8], table: &PoolSpec, j: usize) -> (Vec<usize>, usize) {
    let mut w = ByteWriter::new();
    table.restricted(|k| k == j).write_bin(&mut w);
    // The length, `j` absent tags, then the encoder.
    let encoder = w.finish()[4 + j..].to_vec();
    let at = bytes
        .windows(encoder.len())
        .enumerate()
        .filter(|(_, w)| *w == &encoder[..])
        .map(|(i, _)| i)
        .collect();
    (at, encoder.len())
}

/// A v5 file whose predictors carry two different copies of one feature's
/// encoder has two sources of truth: the table a plan compiles from would
/// hold one copy and a predictor's own spec the other. It is refused,
/// naming the feature, never scored.
#[test]
fn a_v5_file_whose_copies_of_an_encoder_disagree_is_refused() {
    let (table, _) = table_of(mixed_model());
    // Feature 1 (`r1`) is standardized real: a tag and two f64s.
    let (copies, len) = encoder_copies(MIXED_V5, &table, 1);
    assert_eq!(len, 17);
    assert!(copies.len() >= 2, "feature 1 is an input of several predictors");
    let mut edited = MIXED_V5[..MIXED_V5.len() - 4].to_vec();
    // One bit of the second copy's mean.
    edited[copies[1] + 1] ^= 1;
    let err = FracModel::from_bytes(&reseal(edited)).err().expect("refused").to_string();
    assert!(err.contains("the copies of feature 1's encoder disagree"), "{err}");
    // Every copy changed alike is one consistent (if different) table.
    let mut all = MIXED_V5[..MIXED_V5.len() - 4].to_vec();
    for &at in &copies {
        all[at + 1] ^= 1;
    }
    assert!(FracModel::from_bytes(&reseal(all)).is_ok());
}

#[test]
fn the_mixed_model_roundtrips_to_one_byte_image() {
    let bytes = mixed_model();
    let model = FracModel::from_bytes(bytes).unwrap();
    assert_eq!(model.to_bytes(), bytes);
    assert_eq!(model.n_targets(), 9, "six fitted targets of A, three of B");
    assert_eq!(model.planned_targets(), 10);
    assert!(model.scoring_plan().is_ok());
    let ns = model.score(&mixed_train());
    assert!(ns.iter().all(|v| v.is_finite()));
    // Saved and loaded through a file, the bytes are unchanged again.
    let path = scratch("mixed.frac");
    model.save(&path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    assert_eq!(FracModel::load(&path).unwrap().to_bytes(), bytes);
    std::fs::remove_file(&path).ok();
    // The listed model's table holds exactly the features it reads.
    let listed = FracModel::from_bytes(listed_model()).unwrap();
    assert_eq!(listed.to_bytes(), listed_model());
    let (table, _) = table_of(listed_model());
    assert_eq!(table.covered().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
    assert_eq!(listed.contributions_unpooled(&mixed_train()), listed.contributions(&mixed_train()));
}

/// Every truncation and every single-bit flip of the mixed and the listed
/// model fails the length or CRC check; with the trailer recomputed, every
/// flip either fails a structural check or decodes to a model that
/// re-encodes to the flipped bytes exactly.
#[test]
fn every_truncation_and_bit_flip_is_rejected_or_canonical() {
    for bytes in [mixed_model(), listed_model()] {
        for cut in 0..bytes.len() {
            assert!(
                FracModel::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} loaded"
            );
        }
        let body = &bytes[..bytes.len() - 4];
        let (mut refused, mut decoded) = (0usize, 0usize);
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[pos] ^= 1 << bit;
                assert!(
                    FracModel::from_bytes(&flipped).is_err(),
                    "flip of bit {bit} at {pos} loaded"
                );
                if pos >= body.len() {
                    continue;
                }
                let mut edited = body.to_vec();
                edited[pos] ^= 1 << bit;
                let resealed = reseal(edited);
                match FracModel::from_bytes(&resealed) {
                    Err(_) => refused += 1,
                    Ok(model) => {
                        decoded += 1;
                        assert_eq!(
                            model.to_bytes(),
                            resealed,
                            "re-sealed flip of bit {bit} at {pos} decoded to a second byte image"
                        );
                    }
                }
            }
        }
        // Both outcomes occur: flips in floats decode, flips in tags,
        // counts, inputs and the reserved field are refused.
        assert!(
            refused > 0 && decoded > 0,
            "refused {refused}, decoded {decoded}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A truncated file fails to load, naming its path.
    #[test]
    fn truncated_files_fail_to_load_naming_the_path(cut_frac in 0.0f64..1.0) {
        let bytes = mixed_model();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        assert_load_rejects(&bytes[..cut], &format!("cut-{cut}.frac"), &format!("cut at {cut}"))?;
    }

    /// A file with one flipped bit fails to load, naming its path.
    #[test]
    fn flipped_files_fail_to_load_naming_the_path(pos_frac in 0.0f64..1.0, bit in 0u32..8) {
        let mut bytes = mixed_model().to_vec();
        let pos = ((bytes.len() as f64 * pos_frac) as usize).min(bytes.len() - 1);
        bytes[pos] ^= 1 << bit;
        assert_load_rejects(&bytes, &format!("flip-{pos}-{bit}.frac"), &format!("bit {bit} at {pos}"))?;
    }

    /// Foreign bytes never load — bare, or behind a genuine v6 header and
    /// table (whose CRC they then fail).
    #[test]
    fn byte_soup_never_loads(words in prop::collection::vec(0u32..256, 0..512), headed in any::<bool>()) {
        let head = table_of(mixed_model()).1 + 4;
        let mut bytes: Vec<u8> = if headed { mixed_model()[..head].to_vec() } else { Vec::new() };
        bytes.extend(words.iter().map(|&w| w as u8));
        assert_load_rejects(&bytes, "soup.frac", "byte soup")?;
    }
}

// ---------------------------------------------------------------------------
// Run journal.

/// Resume fit A from `journal` (an older version is first rewritten as
/// v3); returns the fit and the v3 journal's bytes.
fn resume_a(journal: &[u8], name: &str) -> (frac_core::JournaledFit, Vec<u8>) {
    let path = scratch(name);
    std::fs::write(&path, journal).unwrap();
    let (plan, config, _) = fit_a_setup();
    let fit = FracModel::resume(&mixed_train(), &plan, &config, &RunBudget::unlimited(), &path)
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (fit, bytes)
}

/// Fit A's v3 journal: its v1 journal, resumed once.
fn v3_journal() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (fit, bytes) = resume_a(MIXED_A_V1_JOURNAL, "fit-a.frj");
        assert_eq!(fit.resumed, 7, "every record restores, nothing refits");
        bytes
    })
}

/// Scan `bytes` as a journal file.
fn scan(bytes: &[u8], name: &str) -> Result<JournalScan, JournalError> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let result = RunJournal::scan(&path);
    std::fs::remove_file(&path).ok();
    result
}

#[test]
fn a_resume_from_the_v1_fixture_restores_its_records() {
    let (fit, bytes) = resume_a(MIXED_A_V1_JOURNAL, "resume-v1.frj");
    assert_eq!(fit.resumed, 7);
    assert!(!fit.journal_broken);
    // The resumed model is the faulted fit the journal recorded.
    assert_eq!(fit.model.to_bytes(), fit_a().0.to_bytes());
    // Its records carry every event kind, restored as recorded.
    let kinds: Vec<&str> = fit
        .report
        .health
        .events
        .iter()
        .map(|e| kind(&e.outcome))
        .collect();
    for want in [
        "degraded",
        "quarantined",
        "sanitized",
        "member dropped",
        "dropped",
    ] {
        assert!(kinds.contains(&want), "no `{want}` event: {kinds:?}");
    }
    // The journal was rewritten as v3 and holds the same records behind
    // the run's table.
    assert!(bytes.starts_with(b"fracjournal 3\n"));
    let rescan = scan(&bytes, "rescan-v1.frj").unwrap();
    assert_eq!(rescan.records.len(), 7);
    assert_eq!(rescan.valid_len as usize, bytes.len());
    let (table, _) = table_of(&fit.model.to_bytes());
    assert_eq!(rescan.table.unwrap().first_difference(&table), None);
    // A second resume reads the v3 journal to the same model.
    let (again, _) = resume_a(&bytes, "resume-v3.frj");
    assert_eq!(again.resumed, 7);
    assert_eq!(again.model.to_bytes(), fit.model.to_bytes());
}

#[test]
fn a_resume_from_the_v2_fixture_restores_its_records() {
    let (fit, bytes) = resume_a(MIXED_A_V2_JOURNAL, "resume-v2.frj");
    assert_eq!(fit.resumed, 7, "every record restores, nothing refits");
    assert!(!fit.journal_broken);
    assert_eq!(fit.model.to_bytes(), fit_a().0.to_bytes());
    // Rewritten as v3: the same bytes a resume of the v1 journal leaves.
    assert_eq!(bytes, v3_journal());
}

/// A v2 journal whose records carry two copies of one feature's encoder
/// that differ is refused as corrupt, naming the feature; a v3 journal
/// whose table differs from the run's pool is another run's.
#[test]
fn journal_tables_are_checked_against_the_run() {
    // One bit of the first copy of feature 1's encoder in a v2 record,
    // the record's frame re-sealed.
    let (table, _) = table_of(mixed_model());
    let (copies, _) = encoder_copies(MIXED_A_V2_JOURNAL, &table, 1);
    assert!(copies.len() >= 2);
    let full = scan(MIXED_A_V2_JOURNAL, "v2-full.frj").unwrap();
    let mut bytes = MIXED_A_V2_JOURNAL.to_vec();
    bytes[copies[1] + 1] ^= 1;
    reseal_frame(&mut bytes, &full, copies[1]);
    match scan(&bytes, "v2-skewed.frj") {
        Err(JournalError::Corrupt(m)) => {
            assert!(m.contains("the copies of feature 1's encoder disagree"), "{m}")
        }
        other => panic!("expected a corrupt journal, got {:?}", other.map(|s| s.records.len())),
    }

    // One bit of feature 1's mean in the v3 journal's table: it scans, but
    // a resume refuses it as another run's.
    let v3 = v3_journal();
    let full = scan(v3, "v3-full.frj").unwrap();
    let (copies, _) = encoder_copies(v3, &table, 1);
    assert_eq!(copies.len(), 1, "a v3 journal stores each encoder once");
    assert!((full.header_end..full.table_end).contains(&(copies[0] as u64)));
    let mut bytes = v3.to_vec();
    bytes[copies[0] + 1] ^= 1;
    reseal_frame(&mut bytes, &full, copies[0]);
    assert_eq!(scan(&bytes, "v3-skewed.frj").unwrap().records.len(), 7);
    let path = scratch("v3-skewed-resume.frj");
    std::fs::write(&path, &bytes).unwrap();
    let (plan, config, _) = fit_a_setup();
    match FracModel::resume(&mixed_train(), &plan, &config, &RunBudget::unlimited(), &path) {
        Err(JournalError::Mismatch(m)) => assert!(m.contains("at feature 1"), "{m}"),
        other => panic!("expected a mismatch, got {:?}", other.err()),
    }
    // The file was not harmed.
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    std::fs::remove_file(&path).ok();
}

/// The table comes first: a record ahead of it is corrupt, and a journal
/// whose valid region ends before it gets it back before any record.
#[test]
fn the_table_is_the_first_record() {
    let v3 = v3_journal();
    let full = scan(v3, "first-full.frj").unwrap();
    let (header_end, table_end) = (full.header_end as usize, full.table_end as usize);
    let mut swapped = v3[..header_end].to_vec();
    swapped.extend_from_slice(&v3[table_end..]);
    match scan(&swapped, "swapped.frj") {
        Err(JournalError::Corrupt(m)) => assert!(m.contains("before the encoder table"), "{m}"),
        other => panic!("expected a corrupt journal, got {:?}", other.map(|s| s.records.len())),
    }
    // Cut inside the table frame: a resume writes the table, refits every
    // target (with no faults injected this time), and leaves the journal
    // a fresh, complete run's.
    let (fit, bytes) = resume_a(&v3[..header_end + 9], "torn-table.frj");
    assert_eq!(fit.resumed, 0);
    let (plan, config, _) = fit_a_setup();
    let unfaulted = FracModel::fit(&mixed_train(), &plan, &config).0;
    assert_eq!(fit.model.to_bytes(), unfaulted.to_bytes());
    assert_eq!(bytes[..table_end], v3[..table_end]);
    assert_eq!(scan(&bytes, "torn-table-after.frj").unwrap().records.len(), 7);
}

/// Truncation at every offset of the v3 journal ends the valid region at
/// the last whole record before the cut (at the header, when the cut is in
/// the table); it is never an error.
#[test]
fn every_journal_truncation_ends_the_valid_region() {
    let bytes = v3_journal();
    let full = scan(bytes, "trunc-full.frj").unwrap();
    let header = full.header.unwrap();
    assert_eq!(full.records.len(), 7);
    for cut in 0..bytes.len() {
        let s = scan(&bytes[..cut], "cut.frj")
            .unwrap_or_else(|e| panic!("truncation to {cut} is an error: {e}"));
        if (cut as u64) < full.header_end {
            assert!(
                s.header.is_none(),
                "cut {cut}: a torn header reads as fresh"
            );
            continue;
        }
        assert_eq!(s.header, Some(header));
        if (cut as u64) < full.table_end {
            assert!(s.table.is_none(), "cut {cut}: a torn table is no table");
            assert!(s.records.is_empty());
            assert_eq!(s.valid_len, full.header_end);
            continue;
        }
        let whole = full
            .record_ends
            .iter()
            .filter(|&&end| end <= cut as u64)
            .count();
        assert_eq!(s.records.len(), whole, "cut {cut}");
        assert_eq!(
            s.valid_len,
            full.record_ends[..whole]
                .last()
                .copied()
                .unwrap_or(full.table_end)
        );
    }
}

/// The byte range of each frame's line and body — the table's first (an
/// older journal has none), then each record's.
fn frames(bytes: &[u8], full: &JournalScan) -> Vec<(usize, usize, usize)> {
    let mut start = full.header_end as usize;
    let table = (full.table_end > full.header_end).then_some(full.table_end);
    table
        .into_iter()
        .chain(full.record_ends.iter().copied())
        .map(|end| {
            let body = start + bytes[start..].iter().position(|&b| b == b'\n').unwrap() + 1;
            let frame = (start, body, end as usize);
            start = end as usize;
            frame
        })
        .collect()
}

/// Recompute the CRC field of the frame whose body holds byte `pos`.
fn reseal_frame(bytes: &mut [u8], full: &JournalScan, pos: usize) {
    let &(start, body, end) = frames(bytes, full)
        .iter()
        .find(|&&(_, body, end)| (body..end).contains(&pos))
        .expect("the byte is in a frame body");
    let line = std::str::from_utf8(&bytes[start..body]).unwrap();
    let crc_at = start + line.rfind(' ').unwrap() + 1;
    let crc = format!("{:08x}", crc32(&bytes[body..end]));
    bytes[crc_at..crc_at + 8].copy_from_slice(crc.as_bytes());
}

/// Every single-bit flip either ends the valid region before the damaged
/// record (at the header, for a flip in the table's frame) or is refused
/// as `Corrupt`; with the frame's CRC recomputed, a flipped body — the
/// table's or a record's — either parses or is `Corrupt`. Never a panic.
#[test]
fn every_journal_bit_flip_ends_the_region_or_is_corrupt() {
    let bytes = v3_journal();
    let full = scan(bytes, "flip-full.frj").unwrap();
    let frames = frames(bytes, &full);
    let (mut parsed, mut corrupt) = (0usize, 0usize);
    for pos in 0..bytes.len() {
        let bit = pos % 8;
        let mut flipped = bytes.to_vec();
        flipped[pos] ^= 1 << bit;
        match scan(&flipped, "flip.frj") {
            Err(JournalError::Corrupt(_)) => {}
            Err(e) => panic!("flip at {pos}: unexpected error {e}"),
            Ok(s) => {
                // Frame 0 is the table: a flip there leaves no records.
                if let Some(i) = frames
                    .iter()
                    .position(|&(start, _, end)| (start..end).contains(&pos))
                {
                    assert_eq!(s.records.len(), i.saturating_sub(1), "flip at {pos} in frame {i}");
                }
            }
        }
        if !frames.iter().any(|&(_, body, end)| (body..end).contains(&pos)) {
            continue;
        }
        reseal_frame(&mut flipped, &full, pos);
        match scan(&flipped, "reseal.frj") {
            Ok(s) => {
                assert_eq!(s.records.len(), 7, "re-sealed flip at {pos} parsed short");
                parsed += 1;
            }
            Err(JournalError::Corrupt(_)) => corrupt += 1,
            Err(e) => panic!("re-sealed flip at {pos}: unexpected error {e}"),
        }
    }
    assert!(
        parsed > 0 && corrupt > 0,
        "parsed {parsed}, corrupt {corrupt}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Foreign bytes — bare or after a genuine header — never panic the
    /// scanner and never yield a record.
    #[test]
    fn journal_byte_soup_yields_no_records(words in prop::collection::vec(0u32..256, 0..512), headed in any::<bool>()) {
        let bytes_v3 = v3_journal();
        let header_end = scan(bytes_v3, "soup-full.frj").unwrap().header_end as usize;
        let mut bytes: Vec<u8> = if headed { bytes_v3[..header_end].to_vec() } else { Vec::new() };
        bytes.extend(words.iter().map(|&w| w as u8));
        match scan(&bytes, "soup.frj") {
            Ok(s) => prop_assert!(s.records.is_empty()),
            Err(JournalError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
