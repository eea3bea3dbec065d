//! Corruption and cross-format tests for the model file (v5) and the run
//! journal (v2), held to the FCB standard (FORMATS.md §1): truncation at
//! any offset, any single-bit flip and byte soup are rejected with an
//! error — the model's names its path — never a panic. Flips re-sealed
//! with a recomputed CRC reach the structural checks behind it: a model
//! either refuses them or decodes to a model whose bytes are exactly the
//! file (one byte image per model); a journal either parses the record or
//! reports it `Corrupt`.
//!
//! The inputs are a small mixed-schema fit holding all six predictor kinds
//! and both error models (two fits spliced into one v5 file), and the v2
//! journal of a faulted fit with fitted and dropped records and every
//! event kind. The fixtures under `tests/fixtures/` were written by the
//! last text writers (model v4, journal v1) for the same fits: the text
//! readers must load them to today's bytes.

use frac_core::{
    CatModel, FaultPlan, FracConfig, FracModel, JournalError, JournalScan, RealModel, RunBudget,
    RunJournal, SolverMode, TargetOutcome, TrainingPlan,
};
use frac_dataset::crc::crc32;
use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
use frac_dataset::Dataset;
use frac_learn::svc::SvcConfig;
use frac_learn::svr::SvrConfig;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

const MIXED_A_V4: &str = include_str!("fixtures/mixed-a.v4.frac");
const MIXED_B_V4: &str = include_str!("fixtures/mixed-b.v4.frac");
/// Fit A's journal as the v1 writer left it, records in target order. The
/// dropped target's record (`gone`) also carries the events no real fit
/// emits — AllMissing and NonFinite quarantines and a MemberDropped — so
/// every event kind is decoded.
const MIXED_A_V1_JOURNAL: &[u8] = include_bytes!("fixtures/mixed-a.v1.frj");

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

/// v5 header offsets (FORMATS.md §3).
const PLANNED: usize = 16;
const SHARDS: usize = 20;
const FEATURES: usize = 24;

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// Append a recomputed CRC trailer to a v5 body.
fn reseal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// One v5 file holding the feature sections of both single-process models
/// `a` and `b` (disjoint targets), planned counts added.
fn splice(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!((u32_at(a, SHARDS), u32_at(b, SHARDS)), (0, 0));
    let mut out = a[..PLANNED].to_vec();
    out.extend_from_slice(&(u32_at(a, PLANNED) + u32_at(b, PLANNED)).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(u32_at(a, FEATURES) + u32_at(b, FEATURES)).to_le_bytes());
    out.extend_from_slice(&a[FEATURES + 4..a.len() - 4]);
    out.extend_from_slice(&b[FEATURES + 4..b.len() - 4]);
    reseal(out)
}

/// The spliced mixed-schema model's v5 bytes.
fn mixed_model() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| splice(&fit_a().0.to_bytes(), &fit_b().to_bytes()))
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
}

/// Every truncation and every single-bit flip of the mixed model fails the
/// length or CRC check; with the trailer recomputed, every flip either
/// fails a structural check or decodes to a model that re-encodes to the
/// flipped bytes exactly.
#[test]
fn every_truncation_and_bit_flip_is_rejected_or_canonical() {
    let bytes = mixed_model();
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
    // Both outcomes occur: flips in floats decode, flips in tags, counts
    // and the reserved field are refused.
    assert!(
        refused > 0 && decoded > 0,
        "refused {refused}, decoded {decoded}"
    );
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

    /// Foreign bytes never load — bare, or behind a genuine v5 header
    /// (whose CRC they then fail).
    #[test]
    fn byte_soup_never_loads(words in prop::collection::vec(0u32..256, 0..512), headed in any::<bool>()) {
        let mut bytes: Vec<u8> = if headed { mixed_model()[..FEATURES + 4].to_vec() } else { Vec::new() };
        bytes.extend(words.iter().map(|&w| w as u8));
        assert_load_rejects(&bytes, "soup.frac", "byte soup")?;
    }
}

// ---------------------------------------------------------------------------
// Run journal.

/// Resume fit A from its v1 journal (the journal is first rewritten as
/// v2); returns the v2 journal's bytes.
fn v2_journal() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = scratch("fit-a.frj");
        std::fs::write(&path, MIXED_A_V1_JOURNAL).unwrap();
        let (plan, config, _) = fit_a_setup();
        let fit = FracModel::resume(
            &mixed_train(),
            &plan,
            &config,
            &RunBudget::unlimited(),
            &path,
        )
        .unwrap();
        assert_eq!(fit.resumed, 7, "every record restores, nothing refits");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
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
    let path = scratch("resume-v1.frj");
    std::fs::write(&path, MIXED_A_V1_JOURNAL).unwrap();
    let (plan, config, _) = fit_a_setup();
    let fit = FracModel::resume(
        &mixed_train(),
        &plan,
        &config,
        &RunBudget::unlimited(),
        &path,
    )
    .unwrap();
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
    // The journal was rewritten as v2 and holds the same records.
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"fracjournal 2\n"));
    let rescan = RunJournal::scan(&path).unwrap();
    assert_eq!(rescan.records.len(), 7);
    assert_eq!(rescan.valid_len as usize, bytes.len());
    // A second resume reads the v2 journal to the same model.
    let again = FracModel::resume(
        &mixed_train(),
        &plan,
        &config,
        &RunBudget::unlimited(),
        &path,
    )
    .unwrap();
    assert_eq!(again.resumed, 7);
    assert_eq!(again.model.to_bytes(), fit.model.to_bytes());
    std::fs::remove_file(&path).ok();
}

/// Truncation at every offset of the v2 journal ends the valid region at
/// the last whole record before the cut; it is never an error.
#[test]
fn every_journal_truncation_ends_the_valid_region() {
    let bytes = v2_journal();
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
                .unwrap_or(full.header_end)
        );
    }
}

/// The byte range of each record's frame line and body.
fn frames(bytes: &[u8], full: &JournalScan) -> Vec<(usize, usize, usize)> {
    let mut start = full.header_end as usize;
    full.record_ends
        .iter()
        .map(|&end| {
            let body = start + bytes[start..].iter().position(|&b| b == b'\n').unwrap() + 1;
            let frame = (start, body, end as usize);
            start = end as usize;
            frame
        })
        .collect()
}

/// Every single-bit flip either ends the valid region before the damaged
/// record or is refused as `Corrupt`; with the frame's CRC recomputed, a
/// flipped body either parses or is `Corrupt`. Never a panic.
#[test]
fn every_journal_bit_flip_ends_the_region_or_is_corrupt() {
    let bytes = v2_journal();
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
                if let Some(i) = frames
                    .iter()
                    .position(|&(start, _, end)| (start..end).contains(&pos))
                {
                    assert_eq!(s.records.len(), i, "flip at {pos} in record {i}");
                }
            }
        }
        // Re-seal a flip inside a body: recompute the frame's CRC field.
        let Some(&(start, body, end)) = frames
            .iter()
            .find(|&&(_, body, end)| (body..end).contains(&pos))
        else {
            continue;
        };
        let line = std::str::from_utf8(&bytes[start..body]).unwrap();
        let crc_at = start + line.rfind(' ').unwrap() + 1;
        let crc = format!("{:08x}", crc32(&flipped[body..end]));
        flipped[crc_at..crc_at + 8].copy_from_slice(crc.as_bytes());
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
        let bytes_v2 = v2_journal();
        let header_end = scan(bytes_v2, "soup-full.frj").unwrap().header_end as usize;
        let mut bytes: Vec<u8> = if headed { bytes_v2[..header_end].to_vec() } else { Vec::new() };
        bytes.extend(words.iter().map(|&w| w as u8));
        match scan(&bytes, "soup.frj") {
            Ok(s) => prop_assert!(s.records.is_empty()),
            Err(JournalError::Corrupt(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }
}
