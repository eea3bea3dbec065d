//! Model persistence: save a fitted [`FracModel`] to a text file and reload
//! it for later scoring.
//!
//! FRaC's operational pattern in a clinic is train-once / screen-forever:
//! the reference cohort changes rarely, new patients arrive continuously,
//! and the full-run training is the expensive half (Table II). The format
//! is the plain line-oriented text of [`frac_dataset::textio`]: versioned,
//! dependency-free, human-inspectable, and bit-exact for floats — a
//! reloaded model produces *identical* NS scores (tested).

use crate::model::{
    CatPredictor, ErrorModel, FeatureModel, FeaturePredictor, FracModel, PredictorModel,
    RealPredictor,
};
use frac_dataset::crc::crc32;
use frac_dataset::design::DesignSpec;
use frac_dataset::textio::{TextError, TextReader, TextWriter};

/// Format version tag; bump on breaking layout changes.
/// Version 2 added the `planned` line (targets the training plan asked
/// for, including ones dropped by fault isolation); version 3 added the
/// `crc` trailer (CRC-32 of everything through the `end` line, verified on
/// load); version 4 added the optional `shards` line (per-shard worker
/// restart counts of a `--shards N` run, written only when the model came
/// out of a sharded fit). Version 1–3 files are still read — v1 defaults
/// `planned` to the surviving feature count, v1/v2 load without a checksum,
/// and a missing `shards` line means a single-process fit.
const MAGIC: &str = "fracmodel";
const VERSION: u32 = 4;

/// Serialize one per-target feature section (the unit shared by the model
/// file and the run journal's per-target records).
pub(crate) fn write_feature(w: &mut TextWriter, fm: &FeatureModel) {
    w.line("feature", [fm.target]);
    w.floats("entropy", &[fm.entropy]);
    w.floats("strength", &[fm.strength]);
    w.line("predictors", [fm.predictors.len()]);
    for fp in &fm.predictors {
        fp.spec.write_text(w);
        match (&fp.model, &fp.error) {
            (PredictorModel::Real(m), ErrorModel::Gaussian(e)) => {
                match m {
                    RealPredictor::Svr(svr) => {
                        w.tag("model_svr");
                        svr.write_text(w);
                    }
                    RealPredictor::Tree(t) => {
                        w.tag("model_rtree");
                        t.write_text(w);
                    }
                    RealPredictor::Constant(c) => {
                        w.tag("model_const");
                        c.write_text(w);
                    }
                }
                e.write_text(w);
            }
            (PredictorModel::Cat(m), ErrorModel::Confusion(e)) => {
                match m {
                    CatPredictor::Tree(t) => {
                        w.tag("model_ctree");
                        t.write_text(w);
                    }
                    CatPredictor::Svc(svc) => {
                        w.tag("model_svc");
                        svc.write_text(w);
                    }
                    CatPredictor::Majority(mc) => {
                        w.tag("model_majority");
                        mc.write_text(w);
                    }
                }
                e.write_text(w);
            }
            _ => unreachable!("model/error kinds are constructed consistently"),
        }
    }
}

/// Parse one feature section previously produced by [`write_feature`].
pub(crate) fn parse_feature(r: &mut TextReader<'_>) -> Result<FeatureModel, TextError> {
    let target: usize = r.parse_one("feature")?;
    parse_feature_body(r, target)
}

/// Parse the remainder of a feature section once its `feature <target>`
/// line has been consumed (the caller may need the target early, e.g. for
/// duplicate detection).
fn parse_feature_body(r: &mut TextReader<'_>, target: usize) -> Result<FeatureModel, TextError> {
    let entropy: f64 = r.parse_one("entropy")?;
    let strength: f64 = r.parse_one("strength")?;
    let n_predictors: usize = r.parse_one("predictors")?;
    let mut predictors = Vec::with_capacity(n_predictors);
    for _ in 0..n_predictors {
        let spec = DesignSpec::parse_text(r)?;
        let (model, error) = if r.peek_is("model_svr") {
            r.expect("model_svr")?;
            let m = frac_learn::LinearSvr::parse_text(r)?;
            let e = frac_learn::GaussianErrorModel::parse_text(r)?;
            (
                PredictorModel::Real(RealPredictor::Svr(m)),
                ErrorModel::Gaussian(e),
            )
        } else if r.peek_is("model_rtree") {
            r.expect("model_rtree")?;
            let m = frac_learn::RegressionTree::parse_text(r)?;
            let e = frac_learn::GaussianErrorModel::parse_text(r)?;
            (
                PredictorModel::Real(RealPredictor::Tree(m)),
                ErrorModel::Gaussian(e),
            )
        } else if r.peek_is("model_const") {
            r.expect("model_const")?;
            let m = frac_learn::ConstantRegressor::parse_text(r)?;
            let e = frac_learn::GaussianErrorModel::parse_text(r)?;
            (
                PredictorModel::Real(RealPredictor::Constant(m)),
                ErrorModel::Gaussian(e),
            )
        } else if r.peek_is("model_ctree") {
            r.expect("model_ctree")?;
            let m = frac_learn::ClassificationTree::parse_text(r)?;
            let e = frac_learn::ConfusionErrorModel::parse_text(r)?;
            (
                PredictorModel::Cat(CatPredictor::Tree(m)),
                ErrorModel::Confusion(e),
            )
        } else if r.peek_is("model_svc") {
            r.expect("model_svc")?;
            let m = frac_learn::LinearSvc::parse_text(r)?;
            let e = frac_learn::ConfusionErrorModel::parse_text(r)?;
            (
                PredictorModel::Cat(CatPredictor::Svc(m)),
                ErrorModel::Confusion(e),
            )
        } else if r.peek_is("model_majority") {
            r.expect("model_majority")?;
            let m = frac_learn::MajorityClassifier::parse_text(r)?;
            let e = frac_learn::ConfusionErrorModel::parse_text(r)?;
            (
                PredictorModel::Cat(CatPredictor::Majority(m)),
                ErrorModel::Confusion(e),
            )
        } else {
            return Err("unknown model tag".into());
        };
        predictors.push(FeaturePredictor { spec, model, error });
    }
    Ok(FeatureModel { target, entropy, strength, predictors })
}

/// Split a v3+ file into (body through `end` line, trailer) and verify the
/// trailer's CRC-32 against the body bytes. Safe to split at the *last*
/// `end` line: `end` is a reserved tag that appears exactly once in a model
/// body.
fn verify_crc_trailer(text: &str) -> Result<(), TextError> {
    let body_len = match text.rfind("\nend\n") {
        Some(idx) => idx + "\nend\n".len(),
        None => {
            return Err(format!(
                "model body stops before its `end` line after {} byte(s) — \
                 the file was truncated before the CRC32 trailer",
                text.len()
            )
            .into())
        }
    };
    let (body, trailer) = text.split_at(body_len);
    let trailer_preview = trailer.trim();
    if trailer_preview.is_empty() {
        return Err("missing CRC trailer: expected `crc <8 hex digits>` after the \
                    `end` line — the file was truncated at the trailer"
            .into());
    }
    let mut r = TextReader::new(trailer);
    let stored_hex: String = r.parse_one("crc").map_err(|_| {
        TextError::from(format!(
            "short or malformed CRC trailer `{trailer_preview}`: expected \
             `crc <8 hex digits>` after the `end` line (file truncated?)"
        ))
    })?;
    if stored_hex.len() != 8 {
        return Err(format!(
            "short CRC trailer `crc {stored_hex}`: expected 8 hex digits, \
             got {} — the file was truncated inside the trailer",
            stored_hex.len()
        )
        .into());
    }
    let stored = u32::from_str_radix(&stored_hex, 16)
        .map_err(|_| TextError::from(format!("bad crc field `{stored_hex}`")))?;
    let computed = crc32(body.as_bytes());
    if stored != computed {
        return Err(format!(
            "model file checksum mismatch: stored {stored:08x}, computed {computed:08x} \
             (file is corrupt or was truncated)"
        )
        .into());
    }
    Ok(())
}

impl FracModel {
    /// Serialize the model to the text format (v4: checksummed trailer,
    /// optional shard-provenance line).
    pub fn to_text(&self) -> String {
        let mut w = TextWriter::new();
        w.line(MAGIC, [VERSION]);
        w.line("planned", [self.planned_targets]);
        if !self.shard_restarts.is_empty() {
            w.line("shards", self.shard_restarts.iter().copied());
        }
        w.line("features", [self.features.len()]);
        for fm in &self.features {
            write_feature(&mut w, fm);
        }
        w.tag("end");
        let body = w.finish();
        let checksum = crc32(body.as_bytes());
        format!("{body}crc {checksum:08x}\n")
    }

    /// Parse a model previously produced by [`FracModel::to_text`].
    ///
    /// Rejects duplicate per-target sections (a well-formed writer never
    /// emits them; accepting the last one silently would mask a corrupted
    /// or maliciously spliced file) and, for v3 files, verifies the CRC-32
    /// trailer before trusting any parsed value.
    pub fn from_text(text: &str) -> Result<FracModel, TextError> {
        let mut r = TextReader::new(text);
        let version: u32 = r.parse_one(MAGIC)?;
        if !(1..=VERSION).contains(&version) {
            return Err(format!("unsupported fracmodel version {version}").into());
        }
        if version >= 3 {
            verify_crc_trailer(text)?;
        }
        let planned: Option<usize> =
            if version >= 2 { Some(r.parse_one("planned")?) } else { None };
        let shard_restarts: Vec<usize> = if version >= 4 && r.peek_is("shards") {
            r.parse_all("shards")?
        } else {
            Vec::new()
        };
        let n_features: usize = r.parse_one("features")?;
        let mut features = Vec::with_capacity(n_features);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..n_features {
            let target: usize = r.parse_one("feature")?;
            let line = r.line();
            if !seen.insert(target) {
                return Err(TextError::at(
                    line,
                    format!("duplicate section for target feature {target}"),
                ));
            }
            features.push(parse_feature_body(&mut r, target)?);
        }
        r.expect("end")?;
        let planned_targets = planned.unwrap_or(features.len());
        Ok(FracModel { features, plan: std::sync::OnceLock::new(), planned_targets, shard_restarts })
    }

    /// Save to a file, atomically and durably: the model is written to
    /// `<path>.tmp`, fsynced, then renamed over `path`, so a crash at any
    /// instant leaves either the old file or the complete new one — never a
    /// torn mix. The parent directory is fsynced best-effort so the rename
    /// itself survives power loss.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        use std::io::Write as _;
        let path = path.as_ref();
        let tmp = {
            let mut os = path.as_os_str().to_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_text().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = std::fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        Ok(())
    }

    /// Load from a file.
    ///
    /// Every error — I/O, truncation, checksum, parse — names the path, so
    /// callers (the CLI, the serving daemon's hot-reload) can surface it
    /// verbatim without re-wrapping.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<FracModel, TextError> {
        let path = path.as_ref();
        let text = read_text(path).map_err(|e| {
            TextError::from(format!("{}: I/O error: {e}", path.display()))
        })?;
        FracModel::from_text(&text).map_err(|e| TextError {
            message: format!("{}: {}", path.display(), e.message),
            ..e
        })
    }
}

/// Read a model file whole, into a buffer that never lives on the heap.
///
/// The text is dropped as soon as the model is parsed. If its buffer came
/// from the heap, anything allocated while the model is live could settle
/// in the file-sized hole it leaves, and the next load of the same file —
/// a daemon's cold start or reload — would no longer fit there: the heap
/// would grow by a whole file. glibc serves an allocation from its own
/// mapping, unmapped on free, only above its mmap threshold, which rises
/// to the size of the largest mapping freed so far, up to 32 MiB. A
/// capacity above that cap keeps every model buffer a mapping; the unused
/// tail is never touched, so it costs address space, not memory.
fn read_text(path: &std::path::Path) -> std::io::Result<String> {
    use std::io::Read as _;
    const ALWAYS_MAPPED: usize = (32 << 20) + 1;
    let mut file = std::fs::File::open(path)?;
    let len = usize::try_from(file.metadata()?.len()).unwrap_or(0);
    let mut text = String::with_capacity(len.max(ALWAYS_MAPPED));
    file.read_to_string(&mut text)?;
    Ok(text)
}

#[cfg(test)]
mod tests {
    use crate::config::FracConfig;
    use crate::model::FracModel;
    use crate::plan::TrainingPlan;
    use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
    use frac_synth::{ExpressionConfig, ExpressionGenerator};

    #[test]
    fn expression_model_roundtrips_bit_exact() {
        let g = ExpressionGenerator::new(ExpressionConfig {
            n_features: 15,
            n_modules: 3,
            anomaly_modules: 1,
            structure_seed: 5,
            ..ExpressionConfig::default()
        });
        let (data, _) = g.generate(25, 5, 2);
        let train = data.select_rows(&(0..20).collect::<Vec<_>>());
        let test = data.select_rows(&(20..30).collect::<Vec<_>>());
        let plan = TrainingPlan::full(train.n_features());
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());

        let text = model.to_text();
        let back = FracModel::from_text(&text).unwrap();
        let ns_a = model.score(&test);
        let ns_b = back.score(&test);
        for (a, b) in ns_a.iter().zip(&ns_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(model.feature_strengths(), back.feature_strengths());
    }

    #[test]
    fn snp_model_roundtrips_bit_exact() {
        let codes: Vec<u32> = (0..24).map(|i| (i % 3) as u32).collect();
        let shifted: Vec<u32> = codes.iter().map(|&c| (c + 1) % 3).collect();
        let train = DatasetBuilder::new()
            .categorical("a", 3, codes)
            .categorical("b", 3, shifted)
            .real("expr", (0..24).map(|i| i as f64 * 0.3).collect())
            .build();
        let plan = TrainingPlan::full(3);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::snp());
        let test = DatasetBuilder::new()
            .categorical("a", 3, vec![0, 1, MISSING_CODE])
            .categorical("b", 3, vec![1, 0, 2])
            .real("expr", vec![1.0, f64::NAN, 5.0])
            .build();

        let back = FracModel::from_text(&model.to_text()).unwrap();
        let (ns_a, ns_b) = (model.score(&test), back.score(&test));
        for (a, b) in ns_a.iter().zip(&ns_b) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn file_roundtrip() {
        let train = DatasetBuilder::new()
            .real("x", (0..12).map(|i| i as f64).collect())
            .real("y", (0..12).map(|i| i as f64 * 2.0).collect())
            .build();
        let plan = TrainingPlan::full(2);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        let dir = std::env::temp_dir().join("frac-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        model.save(&path).unwrap();
        let back = FracModel::load(&path).unwrap();
        assert_eq!(model.score(&train), back.score(&train));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        assert!(FracModel::from_text("fracmodel 99\n").is_err());
        assert!(FracModel::from_text("not a model").is_err());
        assert!(FracModel::from_text("").is_err());
        // Truncated model.
        let train = DatasetBuilder::new()
            .real("x", (0..8).map(|i| i as f64).collect())
            .real("y", (0..8).map(|i| i as f64).collect())
            .build();
        let (model, _) =
            FracModel::fit(&train, &TrainingPlan::full(2), &FracConfig::default());
        let text = model.to_text();
        let truncated = &text[..text.len() / 2];
        assert!(FracModel::from_text(truncated).is_err());
    }

    fn parse_err(text: &str) -> frac_dataset::textio::TextError {
        match FracModel::from_text(text) {
            Err(e) => e,
            Ok(_) => panic!("expected parse error"),
        }
    }

    fn small_model() -> FracModel {
        let train = DatasetBuilder::new()
            .real("x", (0..10).map(|i| i as f64).collect())
            .real("y", (0..10).map(|i| i as f64 * 1.5 + 0.25).collect())
            .build();
        let (model, _) =
            FracModel::fit(&train, &TrainingPlan::full(2), &FracConfig::default());
        model
    }

    #[test]
    fn v3_crc_trailer_catches_corruption() {
        let model = small_model();
        let text = model.to_text();
        assert!(text.contains("\ncrc "), "v3+ files carry a crc trailer: {text}");
        assert!(FracModel::from_text(&text).is_ok());

        // Flip one digit somewhere in the body: checksum must catch it even
        // though the file still parses structurally.
        let pos = text.find("entropy ").expect("entropy line") + "entropy ".len() + 1;
        let mut corrupted = text.clone().into_bytes();
        corrupted[pos] = if corrupted[pos] == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(corrupted).unwrap();
        let err = parse_err(&corrupted);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        // A missing trailer on a v3 file is also rejected, naming the
        // trailer rather than a generic parse failure.
        let body_end = text.rfind("\nend\n").unwrap() + "\nend\n".len();
        let err = parse_err(&text[..body_end]);
        assert!(err.to_string().contains("missing CRC trailer"), "{err}");
    }

    /// Satellite guarantee: a file truncated anywhere after the version
    /// line fails with an error that names the path and the truncation
    /// (missing `end`, missing trailer, or short trailer) — never a
    /// generic "unknown tag"-style parse error from half a feature
    /// section, because the trailer is checked before any body parsing.
    #[test]
    fn truncation_at_any_offset_names_path_and_trailer() {
        let model = small_model();
        let dir = std::env::temp_dir().join("frac-persist-truncation-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        model.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let body_end = text.rfind("\nend\n").unwrap() + "\nend\n".len();

        // Offsets spanning the interesting regions: just past the version
        // line, mid-body, just before `end`, after `end` but before the
        // trailer, and inside the trailer's tag and hex digits.
        let offsets = [
            text.find('\n').unwrap() + 2, // inside the `planned` line
            text.len() / 3,               // mid-body
            text.len() / 2,               // mid-body
            body_end - 3,                 // inside the `end` line
            body_end,                     // trailer fully missing
            body_end + 2,                 // inside the `crc` tag
            text.len() - 6,               // trailer hex cut short
        ];
        for &off in &offsets {
            let cut = path.with_extension(format!("cut{off}"));
            std::fs::write(&cut, &text.as_bytes()[..off]).unwrap();
            let err = match FracModel::load(&cut) {
                Err(e) => e.to_string(),
                Ok(_) => panic!("offset {off}: truncated file loaded"),
            };
            assert!(
                err.contains(&cut.display().to_string()),
                "offset {off}: error must name the path: {err}"
            );
            assert!(
                err.to_lowercase().contains("truncat"),
                "offset {off}: error must name the truncation: {err}"
            );
            assert!(
                !err.contains("unknown model tag"),
                "offset {off}: generic parse error leaked through: {err}"
            );
            std::fs::remove_file(&cut).ok();
        }

        // Losing only the final newline leaves the trailer complete: the
        // file still verifies and loads.
        let trimmed = path.with_extension("nonl");
        std::fs::write(&trimmed, &text.as_bytes()[..text.len() - 1]).unwrap();
        assert!(FracModel::load(&trimmed).is_ok());
        std::fs::remove_file(&trimmed).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_versions_still_load() {
        let model = small_model();
        let text = model.to_text();
        let body_end = text.rfind("\nend\n").unwrap() + "\nend\n".len();
        // Reconstruct a v3 file: old version line, trailer recomputed over
        // the edited body.
        let v3_body = text[..body_end].replacen("fracmodel 4", "fracmodel 3", 1);
        let v3 =
            format!("{v3_body}crc {:08x}\n", frac_dataset::crc::crc32(v3_body.as_bytes()));
        let back = FracModel::from_text(&v3).unwrap();
        assert_eq!(back.planned_targets, model.planned_targets);
        // A v2 file: old version line, no crc trailer.
        let v2 = text[..body_end].replacen("fracmodel 4", "fracmodel 2", 1);
        let back = FracModel::from_text(&v2).unwrap();
        assert_eq!(back.planned_targets, model.planned_targets);
        // And a v1 file: no `planned` line either.
        let planned_line = format!("planned {}\n", model.planned_targets);
        let v1 = v2
            .replacen("fracmodel 2", "fracmodel 1", 1)
            .replacen(&planned_line, "", 1);
        let back = FracModel::from_text(&v1).unwrap();
        assert_eq!(back.features.len(), model.features.len());
    }

    #[test]
    fn shard_restarts_roundtrip_and_default_empty() {
        // A single-process model writes no `shards` line and loads with an
        // empty provenance.
        let model = small_model();
        assert!(!model.to_text().contains("\nshards "));
        let back = FracModel::from_text(&model.to_text()).unwrap();
        assert!(back.shard_restarts().is_empty());

        // A sharded model's restart counts survive the roundtrip.
        let mut sharded = small_model();
        sharded.shard_restarts = vec![0, 2, 1];
        let text = sharded.to_text();
        assert!(text.contains("\nshards 0 2 1\n"), "{text}");
        let back = FracModel::from_text(&text).unwrap();
        assert_eq!(back.shard_restarts(), &[0, 2, 1]);
        // Scores are unaffected by provenance.
        let train = DatasetBuilder::new()
            .real("x", (0..10).map(|i| i as f64).collect())
            .real("y", (0..10).map(|i| i as f64 * 1.5 + 0.25).collect())
            .build();
        assert_eq!(sharded.score(&train), back.score(&train));
    }

    #[test]
    fn duplicate_target_sections_are_rejected_with_location() {
        let model = small_model();
        let text = model.to_text();
        // Duplicate the first feature section verbatim and fix up the count;
        // recompute the trailer so the error comes from the duplicate check,
        // not the checksum.
        let start = text.find("\nfeature ").expect("feature section") + 1;
        let end = start
            + text[start..].find("\nfeature ").map(|i| i + 1).unwrap_or_else(|| {
                text[start..].rfind("\nend\n").expect("end tag") + 1
            });
        let section = &text[start..end];
        let n = model.features.len();
        let doubled = text
            .replacen(&format!("features {n}"), &format!("features {}", n + 1), 1)
            .replacen(section, &format!("{section}{section}"), 1);
        let body_end = doubled.rfind("\nend\n").unwrap() + "\nend\n".len();
        let body = &doubled[..body_end];
        let fixed = format!("{body}crc {:08x}\n", frac_dataset::crc::crc32(body.as_bytes()));
        let err = parse_err(&fixed);
        let msg = err.to_string();
        assert!(msg.contains("duplicate section for target feature"), "{msg}");
        assert!(err.line > 0, "duplicate error should carry a line number: {msg}");
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let model = small_model();
        let dir = std::env::temp_dir().join("frac-persist-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        // Overwrite an existing (stale) file to exercise the rename path.
        std::fs::write(&path, "stale").unwrap();
        model.save(&path).unwrap();
        assert!(!dir.join("model.frac.tmp").exists(), "tmp file must be renamed away");
        let back = FracModel::load(&path).unwrap();
        assert_eq!(back.planned_targets, model.planned_targets);
        std::fs::remove_file(&path).ok();
    }
}
