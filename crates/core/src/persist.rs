//! Model persistence: save a fitted [`FracModel`] to a binary file and
//! reload it for later scoring.
//!
//! FRaC's operational pattern in a clinic is train-once / screen-forever:
//! the reference cohort changes rarely, new patients arrive continuously,
//! and the full-run training is the expensive half (Table II). A full
//! model holds one (d−1)-input predictor per feature, so its size grows as
//! d², and every `frac score --model`, daemon cold start and reload pays
//! for reading it. Model v6 (FORMATS.md §3) is therefore little-endian
//! binary written with [`frac_dataset::binio`]: floats are stored as their
//! bit patterns (a reloaded model produces *identical* NS scores, tested),
//! and a load maps the file, checks its length and one CRC-32, and decodes
//! the sections without parsing a single number from text. The encoders
//! of the model's inputs are stored once, in one table; each predictor
//! stores only which table features it reads — for a full plan's
//! predictors, a marker meaning "every table feature but the target".
//!
//! Every model has exactly one v6 byte image: loading refuses anything a
//! writer would not produce (unknown tags, a non-zero reserved field,
//! duplicate targets, a table entry no predictor reads, an explicit input
//! list the marker stands for, trailing bytes), so `to_bytes` of a loaded
//! model reproduces the file. Model v5 (binary, one copy of each input's
//! encoder per predictor) and text models (v1–v4, through
//! [`FracModel::from_text`]) still load: their copies are folded into the
//! table, and a file whose copies of one feature's encoder disagree is
//! refused. They are no longer written.

use crate::model::{
    assemble, is_all_but_target, CatPredictor, ErrorModel, FeatureModel, FeaturePredictor,
    FracModel, Inputs, PredictorModel, RealPredictor,
};
use frac_dataset::binio::{ByteError, ByteReader, ByteWriter};
use frac_dataset::crc::crc32;
use frac_dataset::design::{DesignSpec, PoolSpec, SpecFold};
use frac_dataset::textio::{TextError, TextReader};

/// Magic of a binary (v5+) model file.
const MAGIC: &[u8; 8] = b"FRACMOD\0";
/// The version [`FracModel::save`] writes.
const VERSION: u32 = 6;
/// The binary version before encoder tables: one spec per predictor.
const VERSION_V5: u32 = 5;
/// Magic word of a text (v1–v4) model file's first line.
///
/// Text version 2 added the `planned` line (targets the training plan asked
/// for, including ones dropped by fault isolation); version 3 added the
/// `crc` trailer (CRC-32 of everything through the `end` line, verified on
/// load); version 4 added the optional `shards` line (per-shard worker
/// restart counts of a `--shards N` run). v1 defaults `planned` to the
/// surviving feature count, v1/v2 load without a checksum, and a missing
/// `shards` line means a single-process fit.
const TEXT_MAGIC: &str = "fracmodel";
const TEXT_VERSION: u32 = 4;

/// Bytes of the binary header through the shard count (magic, version,
/// reserved, planned, shard count).
const HEADER_BYTES: usize = 24;
/// The smallest v5 file: the header, the feature count and the trailer.
const MIN_V5_BYTES: usize = HEADER_BYTES + 4 + 4;
/// The smallest v6 file: a v5 one plus an empty table's length.
const MIN_FILE_BYTES: usize = MIN_V5_BYTES + 4;
/// The smallest feature section: target, entropy, strength, predictor
/// count.
const MIN_SECTION_BYTES: usize = 24;
/// The smallest predictor: inputs (the marker, or an empty v5 spec), the
/// model tag, a majority class and a zero-arity confusion model.
const MIN_PREDICTOR_BYTES: usize = 4 + 1 + 4 + 12;

/// The inputs field of a predictor that reads every table feature but its
/// target ([`Inputs::AllButTarget`]); any other value is the length of an
/// explicit list.
const ALL_BUT_TARGET: u32 = u32::MAX;

/// Model tags of a feature section's predictors (FORMATS.md §3).
const MODEL_SVR: u8 = 0;
const MODEL_RTREE: u8 = 1;
const MODEL_CONST: u8 = 2;
const MODEL_CTREE: u8 = 3;
const MODEL_SVC: u8 = 4;
const MODEL_MAJORITY: u8 = 5;

/// Serialize one per-target feature section over the encoder `table` — the
/// unit shared by model v6 files and the bodies of v3 run-journal records.
/// A predictor whose inputs are every table feature but the target, in
/// order, is written with the marker, however it holds them.
pub(crate) fn write_section(w: &mut ByteWriter, fm: &FeatureModel, table: &PoolSpec) {
    w.len32(fm.target);
    w.f64(fm.entropy);
    w.f64(fm.strength);
    w.len32(fm.predictors.len());
    for fp in &fm.predictors {
        match &fp.inputs {
            Inputs::List(list) if !is_all_but_target(list, table, fm.target) => {
                w.len32(list.len());
                for &j in list {
                    w.u32(j);
                }
            }
            _ => w.u32(ALL_BUT_TARGET),
        }
        match (&fp.model, &fp.error) {
            (PredictorModel::Real(m), ErrorModel::Gaussian(e)) => {
                match m {
                    RealPredictor::Svr(svr) => {
                        w.u8(MODEL_SVR);
                        svr.write_bin(w);
                    }
                    RealPredictor::Tree(t) => {
                        w.u8(MODEL_RTREE);
                        t.write_bin(w);
                    }
                    RealPredictor::Constant(c) => {
                        w.u8(MODEL_CONST);
                        c.write_bin(w);
                    }
                }
                e.write_bin(w);
            }
            (PredictorModel::Cat(m), ErrorModel::Confusion(e)) => {
                match m {
                    CatPredictor::Tree(t) => {
                        w.u8(MODEL_CTREE);
                        t.write_bin(w);
                    }
                    CatPredictor::Svc(svc) => {
                        w.u8(MODEL_SVC);
                        svc.write_bin(w);
                    }
                    CatPredictor::Majority(mc) => {
                        w.u8(MODEL_MAJORITY);
                        mc.write_bin(w);
                    }
                }
                e.write_bin(w);
            }
            _ => unreachable!("model/error kinds are constructed consistently"),
        }
    }
}

/// Remembers which features one explicit input list has named, to refuse
/// a feature named twice.
#[derive(Default)]
struct RepeatCheck {
    /// Serial of the last list that named each feature.
    named_by: Vec<u32>,
    serial: u32,
}

impl RepeatCheck {
    /// The first feature `list` names twice.
    fn first_repeat(&mut self, list: &[u32]) -> Option<u32> {
        self.serial += 1;
        for &j in list {
            let j = j as usize;
            if j >= self.named_by.len() {
                self.named_by.resize(j + 1, 0);
            }
            if self.named_by[j] == self.serial {
                return Some(j as u32);
            }
            self.named_by[j] = self.serial;
        }
        None
    }
}

/// Decodes v6 feature sections over one encoder table: checks each
/// predictor's inputs against it and notes which table features they read.
pub(crate) struct SectionReader<'t> {
    table: &'t PoolSpec,
    repeats: RepeatCheck,
    /// Whether some explicit list reads each table feature.
    listed: Vec<bool>,
    /// The target of the first marker predictor, and whether a marker
    /// predictor of another target followed (then every table feature is
    /// read).
    marker_target: Option<usize>,
    markers_differ: bool,
}

impl<'t> SectionReader<'t> {
    pub(crate) fn new(table: &'t PoolSpec) -> Self {
        SectionReader {
            table,
            repeats: RepeatCheck::default(),
            listed: vec![false; table.n_features()],
            marker_target: None,
            markers_differ: false,
        }
    }

    /// One predictor's inputs. Refuses an index outside the table, a
    /// feature listed twice and an explicit list the marker stands for —
    /// none of them is a byte image a writer produces.
    fn inputs(&mut self, r: &mut ByteReader<'_>, target: usize) -> Result<Inputs, ByteError> {
        let at = r.offset();
        let n = r.u32("predictor inputs")?;
        if n == ALL_BUT_TARGET {
            match self.marker_target {
                None => self.marker_target = Some(target),
                Some(t) if t != target => self.markers_differ = true,
                Some(_) => {}
            }
            return Ok(Inputs::AllButTarget);
        }
        let len = (n as usize)
            .checked_mul(4)
            .ok_or_else(|| ByteError::new(at, format!("{n} predictor inputs overflow a length")))?;
        let raw = r.take(len, "predictor inputs")?;
        let list: Vec<u32> = raw
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        for (i, &j) in list.iter().enumerate() {
            if !self.table.covers(j as usize) {
                let msg = format!("input feature {j} is not in the encoder table");
                return Err(ByteError::new(at + 4 + 4 * i, msg));
            }
            self.listed[j as usize] = true;
        }
        if let Some(j) = self.repeats.first_repeat(&list) {
            return Err(ByteError::new(at, format!("input feature {j} is listed twice")));
        }
        if is_all_but_target(&list, self.table, target) {
            return Err(ByteError::new(
                at,
                "an explicit input list of every table feature but the target (the writer stores the marker)",
            ));
        }
        Ok(Inputs::List(list))
    }

    /// The first table feature no predictor read so far.
    fn first_unread(&self) -> Option<usize> {
        let by_marker = |j: usize| self.markers_differ || self.marker_target.is_some_and(|t| t != j);
        self.table.covered().find(|&j| !self.listed[j] && !by_marker(j))
    }
}

/// Parse one v6 feature section written by [`write_section`] over the
/// reader's table.
pub(crate) fn parse_section(
    r: &mut ByteReader<'_>,
    sections: &mut SectionReader<'_>,
) -> Result<FeatureModel, ByteError> {
    let target = r.index("feature target")?;
    let entropy = r.f64("feature entropy")?;
    let strength = r.f64("feature strength")?;
    let n_predictors = r.count("feature predictors", MIN_PREDICTOR_BYTES)?;
    let mut predictors = Vec::with_capacity(n_predictors);
    for _ in 0..n_predictors {
        let inputs = sections.inputs(r, target)?;
        let (model, error) = parse_predictor_body(r)?;
        predictors.push(FeaturePredictor { inputs, model, error });
    }
    Ok(FeatureModel { target, entropy, strength, predictors })
}

/// A predictor's model tag, model and error model.
fn parse_predictor_body(r: &mut ByteReader<'_>) -> Result<(PredictorModel, ErrorModel), ByteError> {
    use frac_learn::{
        ClassificationTree, ConfusionErrorModel, ConstantRegressor, GaussianErrorModel,
        LinearSvc, LinearSvr, MajorityClassifier, RegressionTree,
    };
    let at = r.offset();
    let model = match r.u8("model tag")? {
        MODEL_SVR => PredictorModel::Real(RealPredictor::Svr(LinearSvr::parse_bin(r)?)),
        MODEL_RTREE => PredictorModel::Real(RealPredictor::Tree(RegressionTree::parse_bin(r)?)),
        MODEL_CONST => {
            PredictorModel::Real(RealPredictor::Constant(ConstantRegressor::parse_bin(r)?))
        }
        MODEL_CTREE => PredictorModel::Cat(CatPredictor::Tree(ClassificationTree::parse_bin(r)?)),
        MODEL_SVC => PredictorModel::Cat(CatPredictor::Svc(LinearSvc::parse_bin(r)?)),
        MODEL_MAJORITY => {
            PredictorModel::Cat(CatPredictor::Majority(MajorityClassifier::parse_bin(r)?))
        }
        tag => return Err(ByteError::new(at, format!("unknown model tag {tag}"))),
    };
    let error = match model {
        PredictorModel::Real(_) => ErrorModel::Gaussian(GaussianErrorModel::parse_bin(r)?),
        PredictorModel::Cat(_) => ErrorModel::Confusion(ConfusionErrorModel::parse_bin(r)?),
    };
    Ok((model, error))
}

/// Input features a file written before encoder tables may read: the table
/// its specs fold into is dense, one entry per feature up to the last one
/// read, so an index from the file must be bounded before it sizes one. A
/// v6 table's length is bounded by the bytes that store it instead.
const MAX_LEGACY_FEATURES: usize = 1 << 24;

/// Folds the per-predictor specs of files written before encoder tables
/// (model v1–v5, journal v1–v2) into one table, one predictor at a time.
#[derive(Default)]
pub(crate) struct LegacyFold {
    fold: SpecFold,
    repeats: RepeatCheck,
}

impl LegacyFold {
    /// `spec`'s inputs, once its encoders are folded in. Errors name a
    /// feature whose copies of its encoder disagree, or one the spec lists
    /// twice.
    pub(crate) fn inputs(&mut self, spec: &DesignSpec) -> Result<Inputs, String> {
        if let Some(j) = spec.input_features().iter().find(|&&j| j >= MAX_LEGACY_FEATURES) {
            return Err(format!(
                "input feature {j} is past the {MAX_LEGACY_FEATURES} features a folded table holds"
            ));
        }
        self.fold
            .add(spec)
            .map_err(|j| format!("the copies of feature {j}'s encoder disagree"))?;
        let list: Vec<u32> = spec.input_features().iter().map(|&j| j as u32).collect();
        if let Some(j) = self.repeats.first_repeat(&list) {
            return Err(format!("input feature {j} is listed twice"));
        }
        Ok(Inputs::List(list))
    }

    /// The table: the encoders of exactly the features the folded specs
    /// read.
    pub(crate) fn finish(self) -> PoolSpec {
        self.fold.finish()
    }
}

/// Parse one v5 feature section (one spec per predictor), folding its
/// encoders into `fold`; the predictors' inputs come back as lists.
pub(crate) fn parse_section_v5(
    r: &mut ByteReader<'_>,
    fold: &mut LegacyFold,
) -> Result<FeatureModel, ByteError> {
    let target = r.index("feature target")?;
    let entropy = r.f64("feature entropy")?;
    let strength = r.f64("feature strength")?;
    let n_predictors = r.count("feature predictors", MIN_PREDICTOR_BYTES)?;
    let mut predictors = Vec::with_capacity(n_predictors);
    for _ in 0..n_predictors {
        let at = r.offset();
        let spec = DesignSpec::parse_bin(r)?;
        let inputs = fold.inputs(&spec).map_err(|e| ByteError::new(at, e))?;
        let (model, error) = parse_predictor_body(r)?;
        predictors.push(FeaturePredictor { inputs, model, error });
    }
    Ok(FeatureModel { target, entropy, strength, predictors })
}

/// Parse one feature section of a text model (v1–v4) or a v1 journal
/// record, folding its encoders into `fold`.
pub(crate) fn parse_feature(
    r: &mut TextReader<'_>,
    fold: &mut LegacyFold,
) -> Result<FeatureModel, TextError> {
    let target: usize = r.parse_one("feature")?;
    parse_feature_body(r, target, fold)
}

/// Parse the remainder of a feature section once its `feature <target>`
/// line has been consumed (the caller may need the target early, e.g. for
/// duplicate detection).
fn parse_feature_body(
    r: &mut TextReader<'_>,
    target: usize,
    fold: &mut LegacyFold,
) -> Result<FeatureModel, TextError> {
    let entropy: f64 = r.parse_one("entropy")?;
    let strength: f64 = r.parse_one("strength")?;
    let n_predictors: usize = r.parse_one("predictors")?;
    let mut predictors = Vec::with_capacity(n_predictors);
    for _ in 0..n_predictors {
        let line = r.line();
        let spec = DesignSpec::parse_text(r)?;
        let inputs = fold.inputs(&spec).map_err(|e| TextError::at(line, e))?;
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
        predictors.push(FeaturePredictor { inputs, model, error });
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

/// The feature count, then that many sections decoded by `section`, each
/// target at most once, then the end of the body.
fn parse_sections(
    r: &mut ByteReader<'_>,
    mut section: impl FnMut(&mut ByteReader<'_>) -> Result<FeatureModel, ByteError>,
) -> Result<Vec<FeatureModel>, ByteError> {
    let n_features = r.count("feature sections", MIN_SECTION_BYTES)?;
    let mut features = Vec::with_capacity(n_features);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..n_features {
        let at = r.offset();
        let fm = section(r)?;
        if !seen.insert(fm.target) {
            return Err(ByteError::new(
                at,
                format!("duplicate section for target feature {}", fm.target),
            ));
        }
        features.push(fm);
    }
    r.finish("last feature section")?;
    Ok(features)
}

impl FracModel {
    /// Serialize the model to model v6 bytes: magic, version, a reserved
    /// zero, the planned target count, the shard restart counts, the
    /// encoder table, the feature sections, then a CRC-32 of every byte
    /// before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u32(0);
        w.len32(self.planned_targets);
        w.len32(self.shard_restarts.len());
        for &restarts in &self.shard_restarts {
            w.len32(restarts);
        }
        self.table.write_bin(&mut w);
        w.len32(self.features.len());
        for fm in &self.features {
            write_section(&mut w, fm, &self.table);
        }
        let checksum = crc32(w.as_bytes());
        w.u32(checksum);
        w.finish()
    }

    /// Parse a model file's bytes: model v6 or v5, or text v1–v4
    /// (dispatched on the magic).
    pub fn from_bytes(bytes: &[u8]) -> Result<FracModel, TextError> {
        if bytes.starts_with(MAGIC) {
            return Ok(Self::from_binary(bytes)?);
        }
        if bytes.starts_with(TEXT_MAGIC.as_bytes()) {
            let text = std::str::from_utf8(bytes).map_err(|e| {
                format!("model text is not UTF-8 at byte {} (file is corrupt)", e.valid_up_to())
            })?;
            return Self::from_text(text);
        }
        if bytes.is_empty() {
            return Err("empty model file".into());
        }
        if MAGIC.starts_with(bytes) || TEXT_MAGIC.as_bytes().starts_with(bytes) {
            return Err(format!("model file truncated inside its magic ({} bytes)", bytes.len()).into());
        }
        Err("not a FRaC model file (unknown magic)".into())
    }

    /// Parse model v6 or v5 bytes. The length and the CRC trailer are
    /// checked before any section is decoded, so a truncated or bit-flipped
    /// file reports that, never a misleading mid-section error.
    fn from_binary(bytes: &[u8]) -> Result<FracModel, ByteError> {
        let mut r = ByteReader::new(bytes);
        r.take(MAGIC.len(), "magic")?;
        let version = r.u32("version")?;
        let min_bytes = match version {
            VERSION => MIN_FILE_BYTES,
            VERSION_V5 => MIN_V5_BYTES,
            _ => {
                return Err(ByteError::new(MAGIC.len(), format!("unsupported model version {version}")))
            }
        };
        if bytes.len() < min_bytes {
            return Err(ByteError::new(
                bytes.len(),
                format!(
                    "model file of {} bytes is shorter than any v{version} model ({min_bytes}) — \
                     the file was truncated",
                    bytes.len()
                ),
            ));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(ByteError::new(
                body.len(),
                format!(
                    "model file checksum mismatch: stored {stored:08x}, computed {computed:08x} \
                     (file is corrupt or was truncated)"
                ),
            ));
        }
        let mut r = ByteReader::new(body);
        r.take(MAGIC.len() + 4, "header")?;
        if r.u32("reserved")? != 0 {
            return Err(ByteError::new(MAGIC.len() + 4, "reserved header field is not zero"));
        }
        let planned_targets = r.index("planned targets")?;
        let n_shards = r.count("shard restart counts", 4)?;
        let shard_restarts =
            (0..n_shards).map(|_| r.index("shard restart count")).collect::<Result<_, _>>()?;
        let (table, features) = if version == VERSION {
            let table_at = r.offset();
            let table = PoolSpec::parse_bin(&mut r)?;
            let mut sections = SectionReader::new(&table);
            let features = parse_sections(&mut r, |r| parse_section(r, &mut sections))?;
            if let Some(j) = sections.first_unread() {
                return Err(ByteError::new(
                    table_at,
                    format!("the encoder table holds feature {j}, which no predictor reads"),
                ));
            }
            (table, features)
        } else {
            let mut fold = LegacyFold::default();
            let features = parse_sections(&mut r, |r| parse_section_v5(r, &mut fold))?;
            assemble(&fold.finish(), features)
        };
        Ok(FracModel {
            features,
            table,
            plan: std::sync::OnceLock::new(),
            planned_targets,
            shard_restarts,
        })
    }

    /// Parse a text model (v1–v4), the format written before v5.
    ///
    /// Folds the predictors' copies of their encoders into the model's
    /// table, refusing copies of one feature's encoder that disagree.
    /// Rejects duplicate per-target sections (a well-formed writer never
    /// emits them; accepting the last one silently would mask a corrupted
    /// or maliciously spliced file) and, for v3+ files, verifies the CRC-32
    /// trailer before trusting any parsed value.
    pub fn from_text(text: &str) -> Result<FracModel, TextError> {
        let mut r = TextReader::new(text);
        let version: u32 = r.parse_one(TEXT_MAGIC)?;
        if !(1..=TEXT_VERSION).contains(&version) {
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
        let mut fold = LegacyFold::default();
        for _ in 0..n_features {
            let target: usize = r.parse_one("feature")?;
            let line = r.line();
            if !seen.insert(target) {
                return Err(TextError::at(
                    line,
                    format!("duplicate section for target feature {target}"),
                ));
            }
            features.push(parse_feature_body(&mut r, target, &mut fold)?);
        }
        r.expect("end")?;
        let planned_targets = planned.unwrap_or(features.len());
        let (table, features) = assemble(&fold.finish(), features);
        Ok(FracModel {
            features,
            table,
            plan: std::sync::OnceLock::new(),
            planned_targets,
            shard_restarts,
        })
    }

    /// Save to a file as model v6, atomically and durably: the model is
    /// written to `<path>.tmp`, fsynced, then renamed over `path`, so a
    /// crash at any instant leaves either the old file or the complete new
    /// one — never a torn mix. The parent directory is fsynced best-effort
    /// so the rename itself survives power loss.
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
            f.write_all(&self.to_bytes())?;
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

    /// Load from a file (v6 or v5, or text v1–v4).
    ///
    /// The file is mapped read-only for the parse and unmapped before this
    /// returns, so a load never leaves a file-sized hole in the heap. Saves
    /// replace a model by renaming a new file over it, so a mapped file is
    /// never rewritten in place. Every error — I/O, truncation, checksum,
    /// parse — names the path, so callers (the CLI, the serving daemon's
    /// hot-reload) can surface it verbatim without re-wrapping.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<FracModel, TextError> {
        let path = path.as_ref();
        let map = frac_dataset::MmapFile::open(path).map_err(|e| {
            TextError::from(format!("{}: I/O error: {e}", path.display()))
        })?;
        FracModel::from_bytes(map.as_bytes()).map_err(|e| TextError {
            message: format!("{}: {}", path.display(), e.message),
            ..e
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{write_section, ALL_BUT_TARGET, HEADER_BYTES};
    use crate::config::FracConfig;
    use crate::model::{FracModel, Inputs};
    use crate::plan::TrainingPlan;
    use frac_dataset::binio::ByteWriter;
    use frac_dataset::crc::crc32;
    use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
    use frac_synth::{ExpressionConfig, ExpressionGenerator};

    /// `small_model()` as the v4 text writer saved it (the last text
    /// version, no longer written).
    const SMALL_V4: &str = include_str!("../tests/fixtures/small.v4.frac");
    /// `small_model()` as the v5 writer saved it.
    const SMALL_V5: &[u8] = include_bytes!("../tests/fixtures/small.v5.frac");

    /// Bytes of `model`'s encoder table in its v6 file.
    fn table_len(model: &FracModel) -> usize {
        let mut w = ByteWriter::new();
        model.table.write_bin(&mut w);
        w.as_bytes().len()
    }

    /// Offset of the first feature section in `model`'s v6 file.
    fn sections_at(model: &FracModel) -> usize {
        HEADER_BYTES + 4 * model.shard_restarts.len() + table_len(model) + 4
    }

    /// Append a recomputed CRC trailer to a binary model body.
    fn reseal(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    /// Re-seal a text body (through its `end` line) with a v3+ trailer.
    fn reseal_text(body: &str) -> String {
        format!("{body}crc {:08x}\n", crc32(body.as_bytes()))
    }

    fn text_body_end(text: &str) -> usize {
        text.rfind("\nend\n").unwrap() + "\nend\n".len()
    }

    /// Load `bytes`, check the result re-encodes to exactly `bytes`.
    fn roundtrip(model: &FracModel) -> FracModel {
        let bytes = model.to_bytes();
        let back = FracModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "a loaded v6 model must re-encode to the same bytes");
        back
    }

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

        let back = roundtrip(&model);
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

        let back = roundtrip(&model);
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
        assert_eq!(std::fs::read(&path).unwrap(), model.to_bytes());
        let back = FracModel::load(&path).unwrap();
        assert_eq!(model.score(&train), back.score(&train));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        let err = |bytes: &[u8]| match FracModel::from_bytes(bytes) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{} bytes must not load", bytes.len()),
        };
        let mut future = small_model().to_bytes();
        future[8] = 99;
        assert!(err(&future).contains("unsupported model version 99"));
        assert!(err(b"fracmodel 99\n").contains("unsupported fracmodel version 99"));
        assert!(err(b"not a model").contains("unknown magic"));
        assert!(err(b"").contains("empty"));
        let bytes = small_model().to_bytes();
        assert!(err(&bytes[..bytes.len() / 2]).contains("checksum mismatch"));
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
    fn crc_trailer_catches_corruption() {
        let model = small_model();
        let bytes = model.to_bytes();
        // Flip one bit of the first section's entropy: the file still
        // decodes structurally, but the checksum must catch it.
        let mut flipped = bytes.clone();
        flipped[sections_at(&model) + 4 + 3] ^= 0x10;
        let err = FracModel::from_bytes(&flipped).err().unwrap().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        // A missing trailer reads as a checksum mismatch over a short body.
        let err = FracModel::from_bytes(&bytes[..bytes.len() - 4]).err().unwrap().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");

        // Text v3+ files keep their own trailer check.
        assert!(FracModel::from_text(SMALL_V4).is_ok());
        let pos = SMALL_V4.find("entropy ").unwrap() + "entropy ".len() + 1;
        let mut corrupted = SMALL_V4.as_bytes().to_vec();
        corrupted[pos] = if corrupted[pos] == b'1' { b'2' } else { b'1' };
        let err = FracModel::from_bytes(&corrupted).err().unwrap().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        let err =
            FracModel::from_text(&SMALL_V4[..text_body_end(SMALL_V4)]).err().unwrap().to_string();
        assert!(err.contains("missing CRC trailer"), "{err}");
    }

    /// A file truncated anywhere fails with an error that names the path
    /// and the truncation — never a generic parse error from half a
    /// feature section, because the length and trailer are checked before
    /// any section is decoded. Holds for v6 and for text files.
    #[test]
    fn truncation_at_any_offset_names_path_and_trailer() {
        let dir = std::env::temp_dir().join("frac-persist-truncation-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.frac");
        small_model().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let text = SMALL_V4;
        let body_end = text_body_end(text);
        let cases: Vec<(&[u8], Vec<usize>)> = vec![
            (
                &bytes,
                vec![
                    3,                // inside the magic
                    10,               // inside the version
                    HEADER_BYTES,     // before the table
                    bytes.len() / 3,  // mid-section
                    bytes.len() / 2,  // mid-section
                    bytes.len() - 4,  // trailer fully missing
                    bytes.len() - 1,  // trailer cut short
                ],
            ),
            (
                text.as_bytes(),
                vec![
                    5,                        // inside the magic
                    text.find('\n').unwrap() + 2, // inside the `planned` line
                    text.len() / 3,           // mid-body
                    text.len() / 2,           // mid-body
                    body_end - 3,             // inside the `end` line
                    body_end,                 // trailer fully missing
                    body_end + 2,             // inside the `crc` tag
                    text.len() - 6,           // trailer hex cut short
                ],
            ),
        ];
        for (file, offsets) in cases {
            for off in offsets {
                let cut = path.with_extension(format!("cut{off}"));
                std::fs::write(&cut, &file[..off]).unwrap();
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
        }

        // A text file that lost only its final newline keeps a complete
        // trailer: it still verifies and loads.
        let trimmed = path.with_extension("nonl");
        std::fs::write(&trimmed, &text.as_bytes()[..text.len() - 1]).unwrap();
        assert!(FracModel::load(&trimmed).is_ok());
        std::fs::remove_file(&trimmed).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_versions_still_load() {
        let model = small_model();
        // The v4 fixture is the same fit: loading it and re-encoding gives
        // today's v6 bytes.
        let v4 = FracModel::from_text(SMALL_V4).unwrap();
        assert_eq!(v4.to_bytes(), model.to_bytes());
        let body_end = text_body_end(SMALL_V4);
        // Reconstruct a v3 file: old version line, trailer recomputed over
        // the edited body.
        let v3 = reseal_text(&SMALL_V4[..body_end].replacen("fracmodel 4", "fracmodel 3", 1));
        let back = FracModel::from_text(&v3).unwrap();
        assert_eq!(back.planned_targets, model.planned_targets);
        // A v2 file: old version line, no crc trailer.
        let v2 = SMALL_V4[..body_end].replacen("fracmodel 4", "fracmodel 2", 1);
        let back = FracModel::from_text(&v2).unwrap();
        assert_eq!(back.planned_targets, model.planned_targets);
        // And a v1 file: no `planned` line either.
        let planned_line = format!("planned {}\n", model.planned_targets);
        let v1 = v2
            .replacen("fracmodel 2", "fracmodel 1", 1)
            .replacen(&planned_line, "", 1);
        let back = FracModel::from_text(&v1).unwrap();
        assert_eq!(back.features.len(), model.features.len());
        assert_eq!(back.to_bytes(), model.to_bytes());
    }

    #[test]
    fn the_v5_fixture_loads_to_todays_v6_bytes_and_scores() {
        let model = small_model();
        let v5 = FracModel::from_bytes(SMALL_V5).unwrap();
        assert_eq!(v5.to_bytes(), model.to_bytes());
        // Both features are read, each by the other's predictor, which
        // reads every table feature but its target: the marker.
        assert_eq!(v5.table.n_features(), 2);
        assert!(v5.features.iter().flat_map(|f| &f.predictors).all(|p| p.inputs == Inputs::AllButTarget));
        let train = DatasetBuilder::new()
            .real("x", (0..10).map(|i| i as f64).collect())
            .real("y", (0..10).map(|i| i as f64 * 1.5 + 0.25).collect())
            .build();
        let bits = |m: &FracModel| m.score(&train).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&v5), bits(&model));
    }

    #[test]
    fn shard_restarts_roundtrip_and_default_empty() {
        // A single-process model stores no restart counts and loads with
        // an empty provenance.
        let model = small_model();
        let bytes = model.to_bytes();
        assert_eq!(bytes[20..24], 0u32.to_le_bytes());
        assert!(roundtrip(&model).shard_restarts().is_empty());

        // A sharded model's restart counts survive the roundtrip.
        let mut sharded = small_model();
        sharded.shard_restarts = vec![0, 2, 1];
        let back = roundtrip(&sharded);
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
        let bytes = model.to_bytes();
        // Duplicate the first feature section and fix up the count; the
        // trailer is recomputed so the error comes from the duplicate
        // check, not the checksum.
        let mut w = ByteWriter::new();
        write_section(&mut w, &model.features[0], &model.table);
        let first = w.finish();
        let sections = sections_at(&model);
        assert_eq!(bytes[sections..sections + first.len()], first[..]);
        let n = model.features.len() as u32;
        let mut doubled = bytes[..sections - 4].to_vec();
        doubled.extend_from_slice(&(n + 1).to_le_bytes());
        doubled.extend_from_slice(&first);
        doubled.extend_from_slice(&bytes[sections..bytes.len() - 4]);
        let err = FracModel::from_bytes(&reseal(doubled)).err().unwrap().to_string();
        assert!(err.contains("duplicate section for target feature"), "{err}");
        let at = format!("byte {}:", sections + first.len());
        assert!(err.contains(&at), "the error names the second copy's offset: {err}");

        // The text reader keeps its own check, anchored to a line.
        let text = SMALL_V4;
        let start = text.find("\nfeature ").unwrap() + 1;
        let end = start + text[start..].find("\nfeature ").unwrap() + 1;
        let section = &text[start..end];
        let doubled = text[..text_body_end(text)]
            .replacen(&format!("features {n}"), &format!("features {}", n + 1), 1)
            .replacen(section, &format!("{section}{section}"), 1);
        let err = FracModel::from_text(&reseal_text(&doubled)).err().unwrap();
        assert!(err.to_string().contains("duplicate section for target feature"), "{err}");
        assert!(err.line > 0, "duplicate error should carry a line number: {err}");
    }

    /// The checks behind the CRC: with the trailer recomputed, a non-zero
    /// reserved field, an unknown model tag and a trailing byte are each
    /// refused — none of them is a byte image a writer produces.
    #[test]
    fn resealed_files_still_face_the_structural_checks() {
        let model = small_model();
        let bytes = model.to_bytes();
        let body = &bytes[..bytes.len() - 4];
        let err = |body: Vec<u8>| FracModel::from_bytes(&reseal(body)).err().unwrap().to_string();

        let mut reserved = body.to_vec();
        reserved[12] = 1;
        assert!(err(reserved).contains("reserved header field"));

        // The section's head, then the predictor's inputs (the marker).
        let tag = sections_at(&model) + 24 + 4;
        let mut unknown = body.to_vec();
        unknown[tag] = 6;
        assert!(err(unknown).contains(&format!("byte {tag}: unknown model tag 6")));

        let mut trailing = body.to_vec();
        trailing.push(0);
        assert!(err(trailing).contains("1 trailing byte"));
    }

    /// An index from a v5 file sizes the table it folds into, so one past
    /// any real schema is refused before it allocates.
    #[test]
    fn v5_input_indices_are_bounded_before_the_fold() {
        let body = &SMALL_V5[..SMALL_V5.len() - 4];
        // Header, feature count, section head, the spec's input count.
        let index = HEADER_BYTES + 4 + 24 + 4;
        assert_eq!(body[index..index + 4], 1u32.to_le_bytes(), "target 0 reads feature 1");
        let mut far = body.to_vec();
        far[index..index + 4].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        let err = FracModel::from_bytes(&reseal(far)).err().expect("refused").to_string();
        assert!(err.contains("input feature 2147483647 is past"), "{err}");
    }

    /// The canonical rules of model v6's inputs and table, each behind a
    /// valid CRC: the marker's expansion spelled out, an index outside the
    /// table, a repeated index and a table entry no predictor reads are
    /// all refused, naming what is wrong.
    #[test]
    fn v6_refuses_non_canonical_inputs_and_tables() {
        let model = small_model();
        let bytes = model.to_bytes();
        let body = &bytes[..bytes.len() - 4];
        let sections = sections_at(&model);
        // Target 0's predictor reads the marker at this offset.
        let inputs = sections + 24;
        assert_eq!(body[inputs..inputs + 4], ALL_BUT_TARGET.to_le_bytes());
        let with_inputs = |list: &[u32]| {
            let mut out = body[..inputs].to_vec();
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for j in list {
                out.extend_from_slice(&j.to_le_bytes());
            }
            out.extend_from_slice(&body[inputs + 4..]);
            FracModel::from_bytes(&reseal(out)).err().expect("refused").to_string()
        };
        // [1] is every table feature but target 0: the writer stores the
        // marker, so an explicit [1] is a second byte image.
        assert!(with_inputs(&[1]).contains("every table feature but the target"));
        assert!(with_inputs(&[2]).contains("input feature 2 is not in the encoder table"));
        assert!(with_inputs(&[1, 1]).contains("input feature 1 is listed twice"));
        // With target 0 reading nothing, feature 1 is read by no one:
        // target 1's marker reads only feature 0.
        let err = with_inputs(&[]);
        assert!(err.contains("holds feature 1, which no predictor reads"), "{err}");
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
