//! Row-major design matrices for per-feature model training.
//!
//! FRaC trains, for each target feature `i`, a predictor of `x_i` from some
//! subset of the remaining features. This module materializes that learning
//! problem: chosen input features are encoded to real columns (categorical
//! inputs are one-hot expanded, as in Fig. 2 of the paper; real inputs are
//! optionally z-scored), missing inputs are mean-imputed (zero after
//! standardization / all-zero indicator block), and the result is a dense
//! row-major `f64` matrix suitable for both the linear-SVM coordinate-descent
//! solvers and the decision trees.
//!
//! The encoding is *fit* on the training set ([`DesignSpec::fit`]) and then
//! applied unchanged to held-out folds and test samples, so no test-set
//! statistics leak into training.

use crate::dataset::{ColStore, Column, Dataset};
use crate::kernels::BLOCK_RECORDS;
use crate::schema::FeatureKind;
use crate::stats;

/// Per-feature encoding parameters, fit on a training set.
#[derive(Debug, Clone)]
enum FeatureEncoder {
    /// Real feature: `(x - mean) / std` (std clamped away from 0), missing → 0.
    Real {
        mean: f64,
        inv_std: f64,
    },
    /// Real feature passed through unscaled, missing → training mean.
    RealRaw {
        mean: f64,
    },
    /// Categorical feature: arity-wide indicator block, missing → all zeros.
    OneHot {
        arity: u32,
    },
}

/// Binary encoder tags (FORMATS.md §3), and the table tag of a feature
/// without an encoder.
const ENC_REAL: u8 = 0;
const ENC_RAW: u8 = 1;
const ENC_ONEHOT: u8 = 2;
const ENC_ABSENT: u8 = 0xFF;

impl FeatureEncoder {
    fn width(&self) -> usize {
        match self {
            FeatureEncoder::Real { .. } | FeatureEncoder::RealRaw { .. } => 1,
            FeatureEncoder::OneHot { arity } => *arity as usize,
        }
    }

    /// Whether `other` is the same encoder with the same parameter bits.
    fn same_bits(&self, other: &FeatureEncoder) -> bool {
        match (self, other) {
            (
                FeatureEncoder::Real { mean: m1, inv_std: s1 },
                FeatureEncoder::Real { mean: m2, inv_std: s2 },
            ) => m1.to_bits() == m2.to_bits() && s1.to_bits() == s2.to_bits(),
            (FeatureEncoder::RealRaw { mean: m1 }, FeatureEncoder::RealRaw { mean: m2 }) => {
                m1.to_bits() == m2.to_bits()
            }
            (FeatureEncoder::OneHot { arity: a1 }, FeatureEncoder::OneHot { arity: a2 }) => a1 == a2,
            _ => false,
        }
    }

    /// The encoder's tag, then its fields.
    fn write_bin(&self, w: &mut crate::binio::ByteWriter) {
        match self {
            FeatureEncoder::Real { mean, inv_std } => {
                w.u8(ENC_REAL);
                w.f64(*mean);
                w.f64(*inv_std);
            }
            FeatureEncoder::RealRaw { mean } => {
                w.u8(ENC_RAW);
                w.f64(*mean);
            }
            FeatureEncoder::OneHot { arity } => {
                w.u8(ENC_ONEHOT);
                w.u32(*arity);
            }
        }
    }

    /// The fields of an encoder whose tag, read at byte `at`, was `tag`.
    fn parse_bin(
        tag: u8,
        at: usize,
        r: &mut crate::binio::ByteReader<'_>,
    ) -> Result<FeatureEncoder, crate::binio::ByteError> {
        Ok(match tag {
            ENC_REAL => FeatureEncoder::Real {
                mean: r.f64("encoder mean")?,
                inv_std: r.f64("encoder inv_std")?,
            },
            ENC_RAW => FeatureEncoder::RealRaw { mean: r.f64("encoder mean")? },
            ENC_ONEHOT => FeatureEncoder::OneHot { arity: r.u32("encoder arity")? },
            tag => {
                return Err(crate::binio::ByteError::new(at, format!("unknown encoder tag {tag}")))
            }
        })
    }

    /// Whether this encoder can encode a column of `kind`: a real encoder
    /// a real column, a one-hot of arity `k` a `k`-ary categorical.
    fn fits_kind(&self, kind: FeatureKind) -> bool {
        match (self, kind) {
            (FeatureEncoder::Real { .. } | FeatureEncoder::RealRaw { .. }, FeatureKind::Real) => true,
            (FeatureEncoder::OneHot { arity }, FeatureKind::Categorical { arity: a }) => *arity == a,
            _ => false,
        }
    }
}

/// A fitted encoding of a chosen set of input features.
///
/// `DesignSpec` is the reusable half of the pipeline: fit once on training
/// data, then [`DesignSpec::encode`] any data set with the same schema.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    /// Indices (into the source schema) of the input features, in order.
    input_features: Vec<usize>,
    encoders: Vec<FeatureEncoder>,
    n_cols: usize,
}

impl DesignSpec {
    /// Fit an encoding for `input_features` of `train`.
    ///
    /// If `standardize` is true, real features are z-scored with statistics
    /// of the non-missing training values (the usual preparation for the
    /// regularized linear SVMs the paper uses); otherwise they pass through
    /// with mean imputation only.
    pub fn fit(train: &Dataset, input_features: &[usize], standardize: bool) -> Self {
        let mut encoders = Vec::with_capacity(input_features.len());
        let mut n_cols = 0usize;
        for &j in input_features {
            let enc = FeatureEncoder::fit(train, j, standardize);
            n_cols += enc.width();
            encoders.push(enc);
        }
        DesignSpec {
            input_features: input_features.to_vec(),
            encoders,
            n_cols,
        }
    }

    /// Number of encoded columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The input feature indices this spec encodes.
    #[inline]
    pub fn input_features(&self) -> &[usize] {
        &self.input_features
    }

    /// Parse a spec as model v5 files and journal v2 records store one
    /// per predictor: the input count, the input feature indices, then one
    /// tagged encoder per input. Rejects unknown encoder tags.
    pub fn parse_bin(
        r: &mut crate::binio::ByteReader<'_>,
    ) -> Result<Self, crate::binio::ByteError> {
        // Each input takes a 4-byte index plus an encoder of ≥ 5 bytes.
        let n = r.count("designspec inputs", 9)?;
        let mut input_features = Vec::with_capacity(n);
        for _ in 0..n {
            input_features.push(r.index("designspec input")?);
        }
        let mut encoders = Vec::with_capacity(n);
        let mut n_cols = 0usize;
        for _ in 0..n {
            let at = r.offset();
            let enc = FeatureEncoder::parse_bin(r.u8("encoder tag")?, at, r)?;
            n_cols = n_cols
                .checked_add(enc.width())
                .ok_or_else(|| crate::binio::ByteError::new(at, "design width overflows"))?;
            encoders.push(enc);
        }
        Ok(DesignSpec { input_features, encoders, n_cols })
    }

    /// Parse a spec from the text of a v1–v4 model file.
    pub fn parse_text(
        r: &mut crate::textio::TextReader<'_>,
    ) -> Result<Self, crate::textio::TextError> {
        let n: usize = r.parse_one("designspec")?;
        let input_features: Vec<usize> = r.parse_all("inputs")?;
        if input_features.len() != n {
            return Err(format!(
                "designspec declares {n} inputs but lists {}",
                input_features.len()
            )
            .into());
        }
        let mut encoders = Vec::with_capacity(n);
        let mut n_cols = 0usize;
        for _ in 0..n {
            let enc = if r.peek_is("enc_real") {
                let v: Vec<f64> = r.parse_all("enc_real")?;
                if v.len() != 2 {
                    return Err("enc_real expects mean inv_std".into());
                }
                FeatureEncoder::Real { mean: v[0], inv_std: v[1] }
            } else if r.peek_is("enc_raw") {
                let v: Vec<f64> = r.parse_all("enc_raw")?;
                if v.len() != 1 {
                    return Err("enc_raw expects mean".into());
                }
                FeatureEncoder::RealRaw { mean: v[0] }
            } else {
                let arity: u32 = r.parse_one("enc_onehot")?;
                FeatureEncoder::OneHot { arity }
            };
            n_cols += enc.width();
            encoders.push(enc);
        }
        Ok(DesignSpec { input_features, encoders, n_cols })
    }

    /// Encode all rows of `data` into a dense design matrix.
    ///
    /// # Panics
    /// Panics if `data`'s schema is incompatible with the features this spec
    /// was fit on (kind/arity mismatch).
    pub fn encode(&self, data: &Dataset) -> DesignMatrix {
        let n_rows = data.n_rows();
        let mut values = vec![0.0f64; n_rows * self.n_cols];
        let mut col_base = 0usize;
        let stride = self.n_cols;
        for (&j, enc) in self.input_features.iter().zip(&self.encoders) {
            enc.encode_into(j, data, &mut values, col_base, |r, c| r * stride + c);
            col_base += enc.width();
        }
        DesignMatrix { n_rows, n_cols: self.n_cols, values }
    }
}

impl FeatureEncoder {
    /// Fit the encoder for feature `j` of `train` — the single code path
    /// shared by [`DesignSpec::fit`] and [`PoolSpec::fit`], so pooled and
    /// per-target statistics are identical by construction.
    fn fit(train: &Dataset, j: usize, standardize: bool) -> FeatureEncoder {
        match train.schema().kind(j) {
            FeatureKind::Real => {
                let present = train.column(j).present_reals();
                let mean = stats::mean(&present).unwrap_or(0.0);
                if standardize {
                    let sd = stats::std_dev(&present).unwrap_or(0.0);
                    let inv_std = if sd > 1e-12 { 1.0 / sd } else { 0.0 };
                    FeatureEncoder::Real { mean, inv_std }
                } else {
                    FeatureEncoder::RealRaw { mean }
                }
            }
            FeatureKind::Categorical { arity } => FeatureEncoder::OneHot { arity },
        }
    }

    /// Write feature `j`'s encoded block into `values`, starting at column
    /// `col_base`; cell `(r, c)` lives at `values[at(r, c)]` (row-major for
    /// design matrices, interleaved for [`PoolSpec::encode_blocks`]).
    /// Shared by every encode so the produced bits cannot diverge.
    fn encode_into(
        &self,
        j: usize,
        data: &Dataset,
        values: &mut [f64],
        col_base: usize,
        at: impl Fn(usize, usize) -> usize,
    ) {
        match (data.column(j), self) {
            (Column::Real(v), FeatureEncoder::Real { mean, inv_std }) => {
                for (r, &x) in v.iter().enumerate() {
                    let z = if x.is_nan() { 0.0 } else { (x - mean) * inv_std };
                    values[at(r, col_base)] = z;
                }
            }
            (Column::Real(v), FeatureEncoder::RealRaw { mean }) => {
                for (r, &x) in v.iter().enumerate() {
                    let z = if x.is_nan() { *mean } else { x };
                    values[at(r, col_base)] = z;
                }
            }
            (Column::Categorical { arity, codes }, FeatureEncoder::OneHot { arity: a }) => {
                assert_eq!(arity, a, "arity mismatch between spec and data");
                for (r, &c) in codes.iter().enumerate() {
                    if c != crate::dataset::MISSING_CODE {
                        values[at(r, col_base + c as usize)] = 1.0;
                    }
                }
            }
            (col, enc) => panic!(
                "feature {j}: column kind {:?} incompatible with encoder {enc:?}",
                col.kind()
            ),
        }
    }
}

/// A fitted encoding of *every* pooled feature of a schema, fit once.
///
/// Where [`DesignSpec`] answers "how do I encode these inputs for this
/// target", `PoolSpec` answers it for all targets at once: each feature's
/// statistics are computed a single time, and any per-target [`DesignSpec`]
/// is assembled from the pooled encoders by [`PoolSpec::spec_for`] with
/// bit-identical parameters (same code path fits both).
///
/// A fitted model keeps one as its encoder table (model v6, FORMATS.md
/// §3): the encoders of exactly the features its predictors read, stored
/// once and shared by every predictor.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// Encoder per schema feature; `None` for features left out of the pool.
    encoders: Vec<Option<FeatureEncoder>>,
    /// `col_offsets[j]` is the first pool column of feature `j`;
    /// `col_offsets[n_features]` == total pool width. Absent features have
    /// zero width.
    col_offsets: Vec<usize>,
}

impl PoolSpec {
    /// Fit encoders for `features` of `train` (same statistics code path as
    /// [`DesignSpec::fit`]). `n_features` is the schema width.
    pub fn fit(train: &Dataset, features: &[usize], standardize: bool) -> Self {
        let n_features = train.n_features();
        let mut encoders: Vec<Option<FeatureEncoder>> = vec![None; n_features];
        for &j in features {
            if encoders[j].is_none() {
                encoders[j] = Some(FeatureEncoder::fit(train, j, standardize));
            }
        }
        PoolSpec::from_encoders(encoders)
    }

    fn from_encoders(encoders: Vec<Option<FeatureEncoder>>) -> Self {
        let mut col_offsets = Vec::with_capacity(encoders.len() + 1);
        let mut off = 0usize;
        for enc in &encoders {
            col_offsets.push(off);
            off += enc.as_ref().map_or(0, FeatureEncoder::width);
        }
        col_offsets.push(off);
        PoolSpec { encoders, col_offsets }
    }

    /// Number of schema features the pool spans.
    #[inline]
    pub fn n_features(&self) -> usize {
        self.encoders.len()
    }

    /// Total encoded pool width.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.col_offsets.last().copied().unwrap_or(0)
    }

    /// True when feature `j` has a fitted encoder in the pool.
    #[inline]
    pub fn covers(&self, j: usize) -> bool {
        self.encoders.get(j).is_some_and(Option::is_some)
    }

    /// The covered features, ascending.
    pub fn covered(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.encoders.len()).filter(|&j| self.encoders[j].is_some())
    }

    /// The pool columns holding feature `j`'s encoded block (empty when the
    /// pool does not cover `j`).
    ///
    /// # Panics
    /// Panics if `j` is at or past [`PoolSpec::n_features`].
    #[inline]
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.col_offsets[j]..self.col_offsets[j + 1]
    }

    /// The per-target [`DesignSpec`] for `inputs`, assembled from pooled
    /// encoders — identical (parameters and persisted form) to fitting a
    /// fresh spec on the same training data.
    ///
    /// # Panics
    /// Panics if any input feature is not covered by the pool.
    pub fn spec_for(&self, inputs: &[usize]) -> DesignSpec {
        let mut encoders = Vec::with_capacity(inputs.len());
        let mut n_cols = 0usize;
        for &j in inputs {
            let enc = self
                .encoders
                .get(j)
                .and_then(Option::as_ref)
                .unwrap_or_else(|| panic!("feature {j} not covered by the pool"))
                .clone();
            n_cols += enc.width();
            encoders.push(enc);
        }
        DesignSpec { input_features: inputs.to_vec(), encoders, n_cols }
    }

    /// The pool with only the covered features `keep` accepts, and no
    /// absent entry after the last one kept.
    pub fn restricted(&self, keep: impl Fn(usize) -> bool) -> PoolSpec {
        let mut encoders: Vec<Option<FeatureEncoder>> = self
            .encoders
            .iter()
            .enumerate()
            .map(|(j, enc)| enc.clone().filter(|_| keep(j)))
            .collect();
        while encoders.last().is_some_and(Option::is_none) {
            encoders.pop();
        }
        PoolSpec::from_encoders(encoders)
    }

    /// The first feature that one pool covers and the other does not, or
    /// whose encoders differ in any bit; `None` when the pools are the same
    /// table. Absent entries past either pool's end count as absent.
    pub fn first_difference(&self, other: &PoolSpec) -> Option<usize> {
        let n = self.encoders.len().max(other.encoders.len());
        fn at(pool: &PoolSpec, j: usize) -> Option<&FeatureEncoder> {
            pool.encoders.get(j).and_then(Option::as_ref)
        }
        (0..n).find(|&j| match (at(self, j), at(other, j)) {
            (None, None) => false,
            (Some(a), Some(b)) => !a.same_bits(b),
            _ => true,
        })
    }

    /// Check that this pool can encode datasets of `schema`: every covered
    /// feature in range, with an encoder of its kind (a real encoder on a
    /// real feature, a `k`-wide one-hot on a `k`-ary categorical). Used to
    /// vet a reloaded model's encoder table against a serving schema before
    /// it is allowed anywhere near the score path — a mismatch would
    /// otherwise surface as a panic deep in the encoder.
    pub fn validate_against(&self, schema: &crate::schema::Schema) -> Result<(), String> {
        for (j, enc) in self.encoders.iter().enumerate() {
            let Some(enc) = enc else { continue };
            if j >= schema.len() {
                return Err(format!(
                    "input feature {j} out of range for a schema of {} features",
                    schema.len()
                ));
            }
            if !enc.fits_kind(schema.kind(j)) {
                return Err(format!(
                    "feature {j} (`{}`): encoded width {} does not match schema kind `{}`",
                    schema.feature(j).name,
                    enc.width(),
                    schema.kind(j)
                ));
            }
        }
        Ok(())
    }

    /// Serialize the pool as an encoder table (model v6 and journal v3,
    /// FORMATS.md §3): a `u32` length through the last covered feature,
    /// then per feature a tag byte — absent, or an encoder tag followed by
    /// the encoder's fields.
    pub fn write_bin(&self, w: &mut crate::binio::ByteWriter) {
        let len = self.encoders.iter().rposition(Option::is_some).map_or(0, |j| j + 1);
        w.len32(len);
        for enc in &self.encoders[..len] {
            match enc {
                Some(enc) => enc.write_bin(w),
                None => w.u8(ENC_ABSENT),
            }
        }
    }

    /// Parse an encoder table written by [`PoolSpec::write_bin`]. Rejects
    /// unknown tags and a table whose last entry is absent, so a table has
    /// one byte image.
    pub fn parse_bin(
        r: &mut crate::binio::ByteReader<'_>,
    ) -> Result<Self, crate::binio::ByteError> {
        let n = r.count("table features", 1)?;
        let mut encoders = Vec::with_capacity(n);
        let mut width = 0usize;
        let mut last = 0;
        for _ in 0..n {
            last = r.offset();
            let enc = match r.u8("table tag")? {
                ENC_ABSENT => None,
                tag => Some(FeatureEncoder::parse_bin(tag, last, r)?),
            };
            width = width
                .checked_add(enc.as_ref().map_or(0, FeatureEncoder::width))
                .ok_or_else(|| crate::binio::ByteError::new(last, "table width overflows"))?;
            encoders.push(enc);
        }
        if encoders.last().is_some_and(Option::is_none) {
            return Err(crate::binio::ByteError::new(last, "the table ends in an absent entry"));
        }
        Ok(PoolSpec::from_encoders(encoders))
    }

    /// Encode every covered feature of `data` once, producing the shared
    /// backing store all per-target views borrow from. The pool also keeps
    /// the code column of every covered categorical feature (a zero-copy
    /// clone when `data` is mapped from FCB), so its views can hand tree
    /// split search the codes behind each one-hot block.
    pub fn encode(&self, data: &Dataset) -> EncodedPool {
        let DesignMatrix { n_rows, n_cols, values } = self.encode_rows(data);
        let codes = self
            .encoders
            .iter()
            .enumerate()
            .map(|(j, enc)| match (enc, data.column(j)) {
                (Some(FeatureEncoder::OneHot { .. }), Column::Categorical { codes, .. }) => {
                    Some(codes.clone())
                }
                _ => None,
            })
            .collect();
        EncodedPool { spec: self.clone(), n_rows, n_cols, values, codes }
    }

    /// Encode every covered feature of `data` into a row-major matrix whose
    /// row `r` is record `r`'s pool row, with feature `j` at
    /// [`PoolSpec::col_range`]`(j)` — for scoring paths that read pool rows
    /// directly instead of through per-target views.
    ///
    /// # Panics
    /// Panics if `data`'s schema is incompatible with the pooled encoders.
    pub fn encode_rows(&self, data: &Dataset) -> DesignMatrix {
        let n_rows = data.n_rows();
        let n_cols = self.n_cols();
        let mut values = vec![0.0f64; n_rows * n_cols];
        for (j, enc) in self.encoders.iter().enumerate() {
            if let Some(enc) = enc {
                enc.encode_into(j, data, &mut values, self.col_offsets[j], |r, c| r * n_cols + c);
            }
        }
        DesignMatrix { n_rows, n_cols, values }
    }

    /// Encode every covered feature of `data` into blocks of
    /// [`BLOCK_RECORDS`] records interleaved by pool column, the layout
    /// [`crate::kernels::dot8_blocked`] reads: block `k` holds records
    /// `8k..8k + 8`, and record `8k + b`'s pool column `c` is
    /// `out[(k · n_cols + c) · 8 + b]`. A short last block's missing
    /// records are zeros. `out` is cleared and refilled, so a caller can
    /// keep one buffer across batches. Each cell has the bits
    /// [`PoolSpec::encode_rows`] gives it.
    ///
    /// # Panics
    /// Panics if `data`'s schema is incompatible with the pooled encoders.
    pub fn encode_blocks(&self, data: &Dataset, out: &mut Vec<f64>) {
        const L: usize = BLOCK_RECORDS;
        let n_cols = self.n_cols();
        out.clear();
        out.resize(data.n_rows().div_ceil(L) * L * n_cols, 0.0);
        for (j, enc) in self.encoders.iter().enumerate() {
            if let Some(enc) = enc {
                enc.encode_into(j, data, out, self.col_offsets[j], |r, c| {
                    (r / L * n_cols + c) * L + r % L
                });
            }
        }
    }
}

/// The checked fold of per-predictor [`DesignSpec`]s into one [`PoolSpec`]:
/// how a model or journal record written before encoder tables (model
/// v1–v5, journal v1–v2), which stores every predictor's own copy of its
/// inputs' encoders, gets its table.
#[derive(Debug, Default)]
pub struct SpecFold {
    encoders: Vec<Option<FeatureEncoder>>,
}

impl SpecFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in `spec`'s encoders. A feature seen before must carry the same
    /// encoder, bit for bit; `Err(j)` names the first input feature `j`
    /// whose encoder differs from the copy already folded. The table is
    /// dense up to the highest feature folded in, so a caller bounds
    /// indices read from a file before folding them.
    pub fn add(&mut self, spec: &DesignSpec) -> Result<(), usize> {
        for (&j, enc) in spec.input_features.iter().zip(&spec.encoders) {
            if j >= self.encoders.len() {
                self.encoders.resize(j + 1, None);
            }
            match &self.encoders[j] {
                None => self.encoders[j] = Some(enc.clone()),
                Some(seen) if seen.same_bits(enc) => {}
                Some(_) => return Err(j),
            }
        }
        Ok(())
    }

    /// The folded table: the encoders of exactly the features some folded
    /// spec reads.
    pub fn finish(self) -> PoolSpec {
        PoolSpec::from_encoders(self.encoders)
    }
}

/// Every covered feature of a data set, encoded once into one row-major
/// block. Per-target design matrices are served as [`PoolView`]s that
/// borrow this storage — encoding work and resident bytes are paid once
/// per data set instead of once per target feature.
#[derive(Debug, Clone)]
pub struct EncodedPool {
    spec: PoolSpec,
    n_rows: usize,
    n_cols: usize,
    values: Vec<f64>,
    /// Code column of each covered categorical feature, by schema index;
    /// `None` for real and uncovered features.
    codes: Vec<Option<ColStore<u32>>>,
}

impl EncodedPool {
    /// Number of encoded rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Total encoded pool width.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Resident bytes of the shared backing store — charged once per run
    /// by the resource meter, replacing per-target matrix bytes. Code
    /// columns count only when owned; mapped ones live in the FCB mapping.
    pub fn approx_bytes(&self) -> usize {
        let owned_codes: usize = self
            .codes
            .iter()
            .flatten()
            .filter(|c| !c.is_mapped())
            .map(|c| std::mem::size_of_val(c.as_slice()))
            .sum();
        self.values.len() * std::mem::size_of::<f64>() + owned_codes
    }

    /// Number of encoded cells (`n_rows × n_cols`) — the unit the
    /// telemetry layer counts encode work in.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.values.len()
    }

    /// Zero-copy design view over `inputs` (ascending schema order is the
    /// convention everywhere in the workspace; the view's column order is
    /// exactly the owned `DesignSpec::fit(inputs).encode(..)` column order).
    ///
    /// # Panics
    /// Panics if any input is not covered by the pool.
    pub fn view(&self, inputs: &[usize]) -> PoolView<'_> {
        let offs = &self.spec.col_offsets;
        let mut segments: Vec<(usize, usize)> = Vec::new();
        let mut col_map = Vec::new();
        let mut blocks = Vec::new();
        for &j in inputs {
            assert!(self.spec.covers(j), "feature {j} not covered by the pool");
            let start = offs[j];
            let width = offs[j + 1] - start;
            if let Some(codes) = &self.codes[j] {
                if width > 0 {
                    blocks.push(CatBlock { first: col_map.len(), arity: width, codes });
                }
            }
            match segments.last_mut() {
                // Adjacent pool columns merge into one contiguous segment,
                // so whole-row ops degrade to a single slice in the common
                // all-features-but-one case.
                Some((s, w)) if *s + *w == start => *w += width,
                _ => segments.push((start, width)),
            }
            col_map.extend(start..start + width);
        }
        PoolView {
            values: &self.values,
            stride: self.n_cols,
            n_rows: self.n_rows,
            n_cols: col_map.len(),
            segments,
            col_map,
            blocks,
        }
    }
}

/// A per-target design matrix served zero-copy from an [`EncodedPool`].
///
/// Holds only the segment list and a view-column → pool-column map; all
/// `f64` storage is borrowed. Row-wise operations walk the segments in
/// ascending column order, so their floating-point fold order — and hence
/// every downstream model parameter — is bit-identical to the owned
/// [`DesignMatrix`] path.
#[derive(Debug, Clone)]
pub struct PoolView<'a> {
    values: &'a [f64],
    stride: usize,
    n_rows: usize,
    n_cols: usize,
    /// Maximal contiguous pool-column runs `(start, width)`, ascending.
    segments: Vec<(usize, usize)>,
    /// View column → pool column.
    col_map: Vec<usize>,
    /// The view's categorical one-hot blocks, ascending by first column.
    blocks: Vec<CatBlock<'a>>,
}

impl DesignView for PoolView<'_> {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn get(&self, r: usize, c: usize) -> f64 {
        self.values[r * self.stride + self.col_map[c]]
    }

    fn row_dot_acc(&self, r: usize, w: &[f64], init: f64) -> f64 {
        let base = r * self.stride;
        let mut acc = init;
        let mut wo = 0usize;
        for &(start, width) in &self.segments {
            let seg = &self.values[base + start..base + start + width];
            for (wv, xv) in w[wo..wo + width].iter().zip(seg) {
                acc += wv * xv;
            }
            wo += width;
        }
        acc
    }

    fn row_sq_norm(&self, r: usize) -> f64 {
        let base = r * self.stride;
        // Single left-to-right fold across segments: same order as the
        // owned row's `iter().map(|v| v * v).sum()`.
        let mut acc = 0.0;
        for &(start, width) in &self.segments {
            for xv in &self.values[base + start..base + start + width] {
                acc += xv * xv;
            }
        }
        acc
    }

    fn axpy_row(&self, r: usize, alpha: f64, w: &mut [f64]) {
        let base = r * self.stride;
        let mut wo = 0usize;
        for &(start, width) in &self.segments {
            let seg = &self.values[base + start..base + start + width];
            for (wv, xv) in w[wo..wo + width].iter_mut().zip(seg) {
                *wv += alpha * xv;
            }
            wo += width;
        }
    }

    fn copy_row_into(&self, r: usize, buf: &mut [f64]) {
        let base = r * self.stride;
        let mut wo = 0usize;
        for &(start, width) in &self.segments {
            buf[wo..wo + width].copy_from_slice(&self.values[base + start..base + start + width]);
            wo += width;
        }
    }

    fn row_dot_blocked(&self, r: usize, w: &[f64], init: f64) -> f64 {
        let base = r * self.stride;
        let mut acc = init;
        let mut wo = 0usize;
        for &(start, width) in &self.segments {
            let seg = &self.values[base + start..base + start + width];
            acc = crate::kernels::dot_blocked(seg, &w[wo..wo + width], acc);
            wo += width;
        }
        acc
    }

    fn row_sq_norm_blocked(&self, r: usize) -> f64 {
        let base = r * self.stride;
        let mut acc = 0.0;
        for &(start, width) in &self.segments {
            acc = crate::kernels::sq_norm_blocked(
                &self.values[base + start..base + start + width],
                acc,
            );
        }
        acc
    }

    fn axpy_row_blocked(&self, r: usize, alpha: f64, w: &mut [f64]) {
        let base = r * self.stride;
        let mut wo = 0usize;
        for &(start, width) in &self.segments {
            let seg = &self.values[base + start..base + start + width];
            crate::kernels::axpy_blocked(alpha, seg, &mut w[wo..wo + width]);
            wo += width;
        }
    }

    fn col(&self, c: usize) -> ColRef<'_> {
        ColRef {
            values: self.values,
            first: self.col_map[c],
            stride: self.stride,
            rows: RowIx::Direct,
            len: self.n_rows,
        }
    }

    fn cat_blocks(&self) -> Option<CatBlocks<'_>> {
        (!self.blocks.is_empty()).then(|| CatBlocks { blocks: &self.blocks, rows: RowIx::Direct })
    }

    fn view_overhead_bytes(&self) -> usize {
        self.segments.len() * std::mem::size_of::<(usize, usize)>()
            + self.col_map.len() * std::mem::size_of::<usize>()
    }
}

/// Row indirection levels supported by [`ColRef`] and [`CatBlocks`].
///
/// Views compose at most two row subsets on top of backing storage (a
/// presence filter, then a CV fold), so two explicit levels cover every
/// call path without allocation.
#[derive(Debug, Clone, Copy)]
enum RowIx<'a> {
    /// View row `i` is storage row `i`.
    Direct,
    /// View row `i` is storage row `map[i]`.
    One(&'a [usize]),
    /// View row `i` is storage row `inner[outer[i]]`.
    Two(&'a [usize], &'a [usize]),
}

impl<'a> RowIx<'a> {
    /// Storage row of view row `i`.
    #[inline]
    fn resolve(self, i: usize) -> usize {
        match self {
            RowIx::Direct => i,
            RowIx::One(map) => map[i],
            RowIx::Two(outer, inner) => inner[outer[i]],
        }
    }

    /// One more subset level: view row `i` becomes current row `rows[i]`.
    ///
    /// # Panics
    /// Panics if already two levels deep — the workspace never stacks row
    /// subsets deeper than presence + CV fold.
    fn push(self, rows: &'a [usize]) -> RowIx<'a> {
        match self {
            RowIx::Direct => RowIx::One(rows),
            RowIx::One(inner) => RowIx::Two(rows, inner),
            RowIx::Two(..) => panic!("row indirection deeper than two levels"),
        }
    }
}

/// Borrowed, strided access to one column of a design view — no
/// per-call allocation, unlike [`DesignMatrix::col`].
#[derive(Debug, Clone, Copy)]
pub struct ColRef<'a> {
    values: &'a [f64],
    first: usize,
    stride: usize,
    rows: RowIx<'a>,
    len: usize,
}

impl<'a> ColRef<'a> {
    /// Number of (view) rows in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value at view row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[self.first + self.rows.resolve(i) * self.stride]
    }

    /// The column restricted to `rows` (indices into this column's rows).
    fn push_rows(self, rows: &'a [usize]) -> ColRef<'a> {
        ColRef { rows: self.rows.push(rows), len: rows.len(), ..self }
    }
}

/// One categorical input's one-hot block in a design view: view columns
/// `first..first + arity` are the indicators `code == 0`, …,
/// `code == arity - 1` of `codes`. A missing code
/// ([`crate::dataset::MISSING_CODE`]) sets none of them.
#[derive(Debug, Clone, Copy)]
pub struct CatBlock<'a> {
    /// View column of the indicator for code 0.
    pub first: usize,
    /// Number of indicator columns (the feature's arity, at least 1).
    pub arity: usize,
    /// The feature's codes, indexed by storage row (see
    /// [`CatBlocks::resolve_rows`]).
    pub codes: &'a [u32],
}

/// The categorical blocks of a design view, ascending by first column, and
/// the map from view rows to the storage rows their codes are read at.
#[derive(Debug, Clone, Copy)]
pub struct CatBlocks<'a> {
    blocks: &'a [CatBlock<'a>],
    rows: RowIx<'a>,
}

impl<'a> CatBlocks<'a> {
    /// The blocks, ascending by [`CatBlock::first`].
    #[inline]
    pub fn blocks(&self) -> &'a [CatBlock<'a>] {
        self.blocks
    }

    /// Append the storage row of each view row in `view_rows` to `out`;
    /// `codes[out[i]]` is then view row `view_rows[i]`'s code in any block.
    pub fn resolve_rows(&self, view_rows: &[usize], out: &mut Vec<usize>) {
        match self.rows {
            RowIx::Direct => out.extend_from_slice(view_rows),
            rows => out.extend(view_rows.iter().map(|&i| rows.resolve(i))),
        }
    }
}

/// Read access to an encoded design matrix, owned or pool-backed.
///
/// Every trainer consumes this trait instead of a concrete
/// [`DesignMatrix`], so per-target problems can be served as zero-copy
/// views over a shared [`EncodedPool`]. The row-wise operations fold in
/// **ascending column order** from the given initial value; implementations
/// must preserve that order exactly, because the SVM solvers' results are
/// bit-for-bit reproductions of sequential accumulation over rows.
pub trait DesignView: Sync {
    /// Number of rows (samples).
    fn n_rows(&self) -> usize;

    /// Number of columns (encoded inputs).
    fn n_cols(&self) -> usize;

    /// Entry at (`r`, `c`).
    fn get(&self, r: usize, c: usize) -> f64;

    /// `init + Σ_j w[j]·x[r][j]`, accumulated left to right.
    fn row_dot_acc(&self, r: usize, w: &[f64], init: f64) -> f64;

    /// `Σ_j x[r][j]²`, accumulated left to right from zero.
    fn row_sq_norm(&self, r: usize) -> f64;

    /// `w[j] += alpha · x[r][j]` for every column `j`.
    fn axpy_row(&self, r: usize, alpha: f64, w: &mut [f64]);

    /// Materialize row `r` into `buf` (`buf.len() == n_cols`).
    fn copy_row_into(&self, r: usize, buf: &mut [f64]);

    /// Borrowed strided access to column `c`.
    fn col(&self, c: usize) -> ColRef<'_>;

    /// Dot product of row `r` with `w` (same fold order as the owned path).
    fn row_dot(&self, r: usize, w: &[f64]) -> f64 {
        self.row_dot_acc(r, w, 0.0)
    }

    /// Blocked (4-wide unrolled) variant of [`Self::row_dot_acc`] for the
    /// solver fast path. Not bit-identical to the sequential fold (lane
    /// grouping differs), but deterministic for a fixed view shape. The
    /// default falls back to the exact kernel.
    fn row_dot_blocked(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.row_dot_acc(r, w, init)
    }

    /// Blocked variant of [`Self::row_sq_norm`]; see
    /// [`Self::row_dot_blocked`] for the determinism contract.
    fn row_sq_norm_blocked(&self, r: usize) -> f64 {
        self.row_sq_norm(r)
    }

    /// Blocked variant of [`Self::axpy_row`] (bit-identical to the exact
    /// kernel — axpy has no cross-lane reduction — just faster).
    fn axpy_row_blocked(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.axpy_row(r, alpha, w);
    }

    /// The categorical one-hot blocks of this view with their raw codes,
    /// when the view has them: pool views and row subsets of them. Views
    /// that hold only encoded values return `None`. Tree split search
    /// scores a whole block from one per-code count table.
    fn cat_blocks(&self) -> Option<CatBlocks<'_>> {
        None
    }

    /// Bytes this view holds beyond the storage it borrows (row-index
    /// vectors, column maps) — the working-set cost of serving it.
    fn view_overhead_bytes(&self) -> usize {
        0
    }
}

/// A [`DesignView`] restricted to a row subset, in order, without copying.
///
/// Replaces [`DesignMatrix::select_rows`] in the training paths: presence
/// filtering and k-fold CV both stack one of these on the underlying view.
#[derive(Debug, Clone, Copy)]
pub struct RowSubset<'a, D: ?Sized> {
    inner: &'a D,
    rows: &'a [usize],
}

impl<'a, D: DesignView + ?Sized> RowSubset<'a, D> {
    /// View of `inner` restricted to `rows` (each `< inner.n_rows()`).
    pub fn new(inner: &'a D, rows: &'a [usize]) -> Self {
        debug_assert!(rows.iter().all(|&r| r < inner.n_rows()));
        RowSubset { inner, rows }
    }
}

impl<D: DesignView + ?Sized> DesignView for RowSubset<'_, D> {
    fn n_rows(&self) -> usize {
        self.rows.len()
    }

    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }

    fn get(&self, r: usize, c: usize) -> f64 {
        self.inner.get(self.rows[r], c)
    }

    fn row_dot_acc(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.inner.row_dot_acc(self.rows[r], w, init)
    }

    fn row_sq_norm(&self, r: usize) -> f64 {
        self.inner.row_sq_norm(self.rows[r])
    }

    fn axpy_row(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.inner.axpy_row(self.rows[r], alpha, w);
    }

    fn copy_row_into(&self, r: usize, buf: &mut [f64]) {
        self.inner.copy_row_into(self.rows[r], buf);
    }

    fn row_dot_blocked(&self, r: usize, w: &[f64], init: f64) -> f64 {
        self.inner.row_dot_blocked(self.rows[r], w, init)
    }

    fn row_sq_norm_blocked(&self, r: usize) -> f64 {
        self.inner.row_sq_norm_blocked(self.rows[r])
    }

    fn axpy_row_blocked(&self, r: usize, alpha: f64, w: &mut [f64]) {
        self.inner.axpy_row_blocked(self.rows[r], alpha, w);
    }

    fn col(&self, c: usize) -> ColRef<'_> {
        self.inner.col(c).push_rows(self.rows)
    }

    fn cat_blocks(&self) -> Option<CatBlocks<'_>> {
        self.inner.cat_blocks().map(|b| CatBlocks { rows: b.rows.push(self.rows), ..b })
    }

    fn view_overhead_bytes(&self) -> usize {
        std::mem::size_of_val(self.rows)
    }
}

/// A dense, row-major, all-real matrix of encoded input features.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMatrix {
    n_rows: usize,
    n_cols: usize,
    values: Vec<f64>,
}

impl DesignView for DesignMatrix {
    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn get(&self, r: usize, c: usize) -> f64 {
        DesignMatrix::get(self, r, c)
    }

    fn row_dot_acc(&self, r: usize, w: &[f64], init: f64) -> f64 {
        let mut acc = init;
        for (wv, xv) in w.iter().zip(self.row(r)) {
            acc += wv * xv;
        }
        acc
    }

    fn row_sq_norm(&self, r: usize) -> f64 {
        self.row(r).iter().map(|v| v * v).sum()
    }

    fn axpy_row(&self, r: usize, alpha: f64, w: &mut [f64]) {
        for (wv, xv) in w.iter_mut().zip(self.row(r)) {
            *wv += alpha * xv;
        }
    }

    fn copy_row_into(&self, r: usize, buf: &mut [f64]) {
        buf.copy_from_slice(self.row(r));
    }

    fn row_dot_blocked(&self, r: usize, w: &[f64], init: f64) -> f64 {
        crate::kernels::dot_blocked(self.row(r), w, init)
    }

    fn row_sq_norm_blocked(&self, r: usize) -> f64 {
        crate::kernels::sq_norm_blocked(self.row(r), 0.0)
    }

    fn axpy_row_blocked(&self, r: usize, alpha: f64, w: &mut [f64]) {
        crate::kernels::axpy_blocked(alpha, self.row(r), w);
    }

    fn col(&self, c: usize) -> ColRef<'_> {
        assert!(c < self.n_cols, "column {c} out of range");
        ColRef {
            values: &self.values,
            first: c,
            stride: self.n_cols,
            rows: RowIx::Direct,
            len: self.n_rows,
        }
    }
}

/// A dense row-major copy of a design view, packed once per solve.
///
/// Dual coordinate descent revisits every row once per epoch, so the fast
/// solver path pays the one-time gather here to make each visit a single
/// contiguous kernel call — no virtual dispatch, no row-subset remap, no
/// per-segment loop. Packing merges a view's pool segments into one slice
/// per row, which changes the reduction kernels' block boundaries: results
/// can differ from the segmented view path in the last bits (covered by
/// the fast path's tolerance contract; strict mode never packs).
///
/// [`PackedDesign::from_view`] refuses designs beyond [`Self::MAX_ELEMS`]
/// so transient solver scratch stays bounded on very wide problems; the
/// caller falls back to the zero-copy view path.
#[derive(Debug, Clone)]
pub struct PackedDesign {
    values: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl PackedDesign {
    /// Packing budget: at most `2^22` f64 elements (32 MiB) per solve.
    pub const MAX_ELEMS: usize = 1 << 22;

    /// Gather `x` into a contiguous row-major buffer, or `None` when the
    /// design exceeds [`Self::MAX_ELEMS`] (caller keeps the view path).
    pub fn from_view(x: &dyn DesignView) -> Option<Self> {
        let (n_rows, n_cols) = (x.n_rows(), x.n_cols());
        let elems = n_rows.checked_mul(n_cols)?;
        if elems > Self::MAX_ELEMS {
            return None;
        }
        let mut values = vec![0.0f64; elems];
        for (r, buf) in values.chunks_exact_mut(n_cols.max(1)).enumerate() {
            x.copy_row_into(r, buf);
        }
        Some(PackedDesign { values, n_rows, n_cols })
    }

    /// Resident bytes of the packed buffer — the solver's pack cache caps
    /// its footprint with this.
    pub fn approx_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }

    /// Number of packed rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of packed columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Row `r` as one contiguous slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.values[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// `init + w · row(r)` through the dispatched blocked kernel.
    pub fn row_dot_blocked(&self, r: usize, w: &[f64], init: f64) -> f64 {
        crate::kernels::dot_blocked(self.row(r), w, init)
    }

    /// `Σ_j row(r)[j]²` through the dispatched blocked kernel.
    pub fn row_sq_norm_blocked(&self, r: usize) -> f64 {
        crate::kernels::sq_norm_blocked(self.row(r), 0.0)
    }

    /// `w += alpha · row(r)` through the blocked kernel (bit-identical to
    /// the exact kernel — axpy has no cross-lane reduction).
    pub fn axpy_row_blocked(&self, r: usize, alpha: f64, w: &mut [f64]) {
        crate::kernels::axpy_blocked(alpha, self.row(r), w);
    }
}

impl DesignMatrix {
    /// Build directly from row-major storage.
    ///
    /// # Panics
    /// Panics if `values.len() != n_rows * n_cols`.
    pub fn from_raw(n_rows: usize, n_cols: usize, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), n_rows * n_cols, "shape mismatch");
        DesignMatrix { n_rows, n_cols, values }
    }

    /// An `n_rows × 0` matrix (useful for degenerate feature subsets:
    /// predictors then learn a constant).
    pub fn empty(n_rows: usize) -> Self {
        DesignMatrix { n_rows, n_cols: 0, values: Vec::new() }
    }

    /// Number of rows (samples).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (encoded inputs).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.values[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Entry at (`r`, `c`).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.values[r * self.n_cols + c]
    }

    /// Gather column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.n_rows).map(|r| self.get(r, c)).collect()
    }

    /// Matrix restricted to `rows` (in order) — used by the k-fold splitter.
    pub fn select_rows(&self, rows: &[usize]) -> DesignMatrix {
        let mut values = Vec::with_capacity(rows.len() * self.n_cols);
        for &r in rows {
            values.extend_from_slice(self.row(r));
        }
        DesignMatrix { n_rows: rows.len(), n_cols: self.n_cols, values }
    }

    /// Dot product of row `r` with a weight vector.
    ///
    /// # Panics
    /// Panics if `w.len() != n_cols`.
    #[inline]
    pub fn row_dot(&self, r: usize, w: &[f64]) -> f64 {
        let row = self.row(r);
        assert_eq!(w.len(), row.len());
        row.iter().zip(w).map(|(a, b)| a * b).sum()
    }

    /// The backing storage (row-major).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Resident bytes of the backing storage — input to the resource meter.
    pub fn approx_bytes(&self) -> usize {
        self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, MISSING_CODE};

    fn mixed() -> Dataset {
        DatasetBuilder::new()
            .real("e1", vec![1.0, 2.0, 3.0, 4.0])
            .real("e2", vec![10.0, f64::NAN, 30.0, 40.0])
            .categorical("snp", 3, vec![0, 1, 2, MISSING_CODE])
            .build()
    }

    #[test]
    fn one_hot_block_matches_fig2() {
        let d = mixed();
        let spec = DesignSpec::fit(&d, &[2], false);
        assert_eq!(spec.n_cols(), 3);
        let m = spec.encode(&d);
        assert_eq!(m.row(0), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(1), &[0.0, 1.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, 0.0, 1.0]);
        // Missing categorical → all-zero indicator block.
        assert_eq!(m.row(3), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn standardization_zero_mean_unit_var() {
        let d = mixed();
        let spec = DesignSpec::fit(&d, &[0], true);
        let m = spec.encode(&d);
        let col = m.col(0);
        let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
        assert!(mean.abs() < 1e-12);
        let var: f64 = col.iter().map(|x| x * x).sum::<f64>() / (col.len() - 1) as f64;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn missing_real_imputes_mean() {
        let d = mixed();
        // Standardized: missing → 0 == the training mean.
        let spec = DesignSpec::fit(&d, &[1], true);
        let m = spec.encode(&d);
        assert_eq!(m.get(1, 0), 0.0);
        // Raw: missing → literal training mean of the present values.
        let spec = DesignSpec::fit(&d, &[1], false);
        let m = spec.encode(&d);
        let mean = (10.0 + 30.0 + 40.0) / 3.0;
        assert!((m.get(1, 0) - mean).abs() < 1e-12);
    }

    #[test]
    fn spec_fit_on_train_applies_to_test() {
        let d = mixed();
        let train = d.select_rows(&[0, 1]);
        let test = d.select_rows(&[2, 3]);
        let spec = DesignSpec::fit(&train, &[0], false);
        let m = spec.encode(&test);
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    fn constant_feature_encodes_to_zero() {
        let d = DatasetBuilder::new().real("c", vec![5.0, 5.0, 5.0]).build();
        let spec = DesignSpec::fit(&d, &[0], true);
        let m = spec.encode(&d);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn mixed_spec_concatenates_blocks() {
        let d = mixed();
        let spec = DesignSpec::fit(&d, &[0, 2, 1], false);
        assert_eq!(spec.n_cols(), 1 + 3 + 1);
        let m = spec.encode(&d);
        assert_eq!(m.row(0), &[1.0, 1.0, 0.0, 0.0, 10.0]);
    }

    #[test]
    fn row_dot_and_select_rows() {
        let m = DesignMatrix::from_raw(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.row_dot(1, &[1.0, 0.0, -1.0]), -2.0);
        let s = m.select_rows(&[1, 1, 0]);
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.row(2), &[1.0, 2.0, 3.0]);
    }

    /// `spec` as a model v5 file stores it per predictor.
    fn v5_spec_bytes(spec: &DesignSpec) -> Vec<u8> {
        let mut w = crate::binio::ByteWriter::new();
        w.len32(spec.input_features.len());
        for &j in &spec.input_features {
            w.len32(j);
        }
        for enc in &spec.encoders {
            enc.write_bin(&mut w);
        }
        w.finish()
    }

    #[test]
    fn v5_spec_bin_parses() {
        let d = mixed();
        for standardize in [true, false] {
            let spec = DesignSpec::fit(&d, &[0, 2, 1], standardize);
            let bytes = v5_spec_bytes(&spec);
            let mut r = crate::binio::ByteReader::new(&bytes);
            let back = DesignSpec::parse_bin(&mut r).unwrap();
            assert!(r.finish("spec").is_ok());
            assert_eq!(back.input_features(), spec.input_features());
            assert_eq!(back.n_cols(), spec.n_cols());
            // Encodings agree exactly on data.
            assert_eq!(back.encode(&d), spec.encode(&d));
            assert_eq!(v5_spec_bytes(&back), bytes);
        }
        // An unknown encoder tag is refused at its offset.
        let mut bytes = v5_spec_bytes(&DesignSpec::fit(&d, &[0], true));
        bytes[8] = 9;
        let err = DesignSpec::parse_bin(&mut crate::binio::ByteReader::new(&bytes)).unwrap_err();
        assert_eq!(err.offset, 8, "{err}");
        assert!(err.to_string().contains("unknown encoder tag 9"), "{err}");
    }

    fn table_bytes(pool: &PoolSpec) -> Vec<u8> {
        let mut w = crate::binio::ByteWriter::new();
        pool.write_bin(&mut w);
        w.finish()
    }

    #[test]
    fn table_bin_roundtrips_to_one_byte_image() {
        let d = mixed();
        for standardize in [true, false] {
            // A gap at feature 1 and an absent trailing feature 2, which the
            // table leaves out.
            let pool = PoolSpec::fit(&d, &[0], standardize).restricted(|_| true);
            let with_gap = PoolSpec::fit(&d, &[0, 2], standardize);
            for spec in [pool, with_gap, PoolSpec::fit(&d, &[0, 1, 2], standardize)] {
                let bytes = table_bytes(&spec);
                let mut r = crate::binio::ByteReader::new(&bytes);
                let back = PoolSpec::parse_bin(&mut r).unwrap();
                assert!(r.finish("table").is_ok());
                assert_eq!(back.first_difference(&spec), None);
                assert_eq!(back.n_cols(), spec.n_cols());
                assert_eq!(table_bytes(&back), bytes);
                assert_eq!(back.encode_rows(&d), spec.encode_rows(&d));
            }
        }
        // Length 3: feature 0, an absent 1, and 2 (a ternary one-hot).
        let bytes = table_bytes(&PoolSpec::fit(&d, &[0, 2], true));
        assert_eq!(bytes[..4], 3u32.to_le_bytes());
        assert_eq!((bytes[4], bytes[4 + 17], bytes[4 + 18]), (ENC_REAL, ENC_ABSENT, ENC_ONEHOT));
        // An absent last entry and an unknown tag are refused.
        let parse = |b: &[u8]| PoolSpec::parse_bin(&mut crate::binio::ByteReader::new(b));
        let mut trailing = bytes.clone();
        trailing[..4].copy_from_slice(&4u32.to_le_bytes());
        trailing.push(ENC_ABSENT);
        let err = parse(&trailing).unwrap_err();
        assert!(err.to_string().contains("ends in an absent entry"), "{err}");
        let mut unknown = bytes.clone();
        unknown[4 + 17] = 7;
        let err = parse(&unknown).unwrap_err();
        assert_eq!(err.offset, 4 + 17, "{err}");
        assert!(err.to_string().contains("unknown encoder tag 7"), "{err}");
    }

    #[test]
    fn table_validates_kinds_against_a_schema() {
        let d = mixed();
        let pool = PoolSpec::fit(&d, &[0, 2], true);
        assert!(pool.validate_against(d.schema()).is_ok());
        // The same table against a schema whose feature 2 is real.
        let other = DatasetBuilder::new()
            .real("e1", vec![1.0])
            .real("e2", vec![1.0])
            .real("x", vec![1.0])
            .build();
        let err = pool.validate_against(other.schema()).unwrap_err();
        assert!(err.contains("feature 2 (`x`)"), "{err}");
        let short = DatasetBuilder::new().real("e1", vec![1.0]).build();
        let err = pool.validate_against(short.schema()).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn spec_text_still_parses() {
        let text = "designspec 3\ninputs 0 2 1\nenc_real 0.5 2.0\nenc_raw -1.25\nenc_onehot 3\n";
        let spec = DesignSpec::parse_text(&mut crate::textio::TextReader::new(text)).unwrap();
        assert_eq!(spec.input_features(), &[0, 2, 1]);
        assert_eq!(spec.n_cols(), 5);
        let text = "designspec 2\ninputs 0\nenc_real 0.5 2.0\n";
        assert!(DesignSpec::parse_text(&mut crate::textio::TextReader::new(text)).is_err());
    }

    #[test]
    fn empty_matrix_has_zero_cols() {
        let m = DesignMatrix::empty(4);
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 0);
        assert_eq!(m.row(2), &[] as &[f64]);
    }

    /// Every view entry must equal the owned matrix entry bit for bit.
    fn assert_view_matches(view: &dyn DesignView, owned: &DesignMatrix) {
        assert_eq!(view.n_rows(), owned.n_rows());
        assert_eq!(view.n_cols(), owned.n_cols());
        for r in 0..owned.n_rows() {
            for c in 0..owned.n_cols() {
                assert_eq!(view.get(r, c).to_bits(), owned.get(r, c).to_bits());
            }
        }
    }

    #[test]
    fn pool_view_matches_owned_encode_bitwise() {
        let d = mixed();
        for standardize in [true, false] {
            let pool_spec = PoolSpec::fit(&d, &[0, 1, 2], standardize);
            let pool = pool_spec.encode(&d);
            // All-but-one input sets, plus a gap set that skips the middle.
            for inputs in [vec![1usize, 2], vec![0, 2], vec![0, 1], vec![0, 2]] {
                let spec = DesignSpec::fit(&d, &inputs, standardize);
                let owned = spec.encode(&d);
                let view = pool.view(&inputs);
                assert_view_matches(&view, &owned);
                // Row-wise ops fold identically.
                let w: Vec<f64> = (0..owned.n_cols()).map(|c| 0.3 * c as f64 - 0.7).collect();
                for r in 0..owned.n_rows() {
                    let mut acc = 0.25;
                    for (wv, xv) in w.iter().zip(owned.row(r)) {
                        acc += wv * xv;
                    }
                    assert_eq!(view.row_dot_acc(r, &w, 0.25).to_bits(), acc.to_bits());
                    let sq: f64 = owned.row(r).iter().map(|v| v * v).sum();
                    assert_eq!(view.row_sq_norm(r).to_bits(), sq.to_bits());
                    let mut wa = w.clone();
                    let mut wb = w.clone();
                    view.axpy_row(r, 1.5, &mut wa);
                    for (wv, xv) in wb.iter_mut().zip(owned.row(r)) {
                        *wv += 1.5 * xv;
                    }
                    assert_eq!(wa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                               wb.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                    let mut buf = vec![0.0; owned.n_cols()];
                    view.copy_row_into(r, &mut buf);
                    assert_eq!(buf, owned.row(r));
                }
            }
        }
    }

    #[test]
    fn pool_blocks_interleave_the_row_encode_bitwise() {
        let d = mixed();
        // A buffer left dirty by a wider batch: every cell is rewritten.
        let mut out = vec![f64::NAN; 99];
        for standardize in [true, false] {
            let pool_spec = PoolSpec::fit(&d, &[0, 1, 2], standardize);
            let n_cols = pool_spec.n_cols();
            for n in [0, 1, 7, 8, 9, 17] {
                let batch = d.select_rows(&(0..n).map(|r| r % d.n_rows()).collect::<Vec<_>>());
                let rows = pool_spec.encode_rows(&batch);
                pool_spec.encode_blocks(&batch, &mut out);
                assert_eq!(out.len(), n.div_ceil(BLOCK_RECORDS) * BLOCK_RECORDS * n_cols);
                for (k, block) in out.chunks_exact(BLOCK_RECORDS * n_cols).enumerate() {
                    for (c, lanes) in block.chunks_exact(BLOCK_RECORDS).enumerate() {
                        for (b, v) in lanes.iter().enumerate() {
                            let r = k * BLOCK_RECORDS + b;
                            let want = if r < n { rows.get(r, c) } else { 0.0 };
                            assert_eq!(v.to_bits(), want.to_bits(), "{n} rows: row {r}, col {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pool_spec_for_agrees_with_fresh_fit() {
        let d = mixed();
        let pool_spec = PoolSpec::fit(&d, &[0, 1, 2], true);
        let assembled = pool_spec.spec_for(&[0, 2]);
        let fresh = DesignSpec::fit(&d, &[0, 2], true);
        assert_eq!(assembled.input_features(), fresh.input_features());
        assert_eq!(assembled.n_cols(), fresh.n_cols());
        assert_eq!(assembled.encode(&d), fresh.encode(&d));
        // The v5 form is identical too, so an old file folds to the table
        // a fit of today would store.
        assert_eq!(v5_spec_bytes(&assembled), v5_spec_bytes(&fresh));
    }

    #[test]
    fn spec_fold_builds_the_sparse_table_and_refuses_disagreeing_copies() {
        let d = mixed();
        let s01 = DesignSpec::fit(&d, &[0, 1], true);
        let s10 = DesignSpec::fit(&d, &[1, 0], true);
        let mut fold = SpecFold::new();
        fold.add(&s01).unwrap();
        fold.add(&s10).unwrap();
        let pool_spec = fold.finish();
        assert!(pool_spec.covers(0));
        assert!(pool_spec.covers(1));
        assert!(!pool_spec.covers(2));
        assert_eq!(pool_spec.n_features(), 2, "the fold ends at the last feature read");
        assert_eq!(pool_spec.first_difference(&PoolSpec::fit(&d, &[0, 1], true)), None);
        let pool = pool_spec.encode(&d);
        assert_eq!(pool.n_cols(), 2);
        assert_view_matches(&pool.view(&[0, 1]), &s01.encode(&d));

        // A second copy of feature 1's encoder that differs in one bit of
        // its mean is refused, naming feature 1 ...
        let mut skewed = s10.clone();
        let FeatureEncoder::Real { mean, .. } = &mut skewed.encoders[0] else {
            panic!("e2 is a real feature")
        };
        *mean = f64::from_bits(mean.to_bits() ^ 1);
        let mut fold = SpecFold::new();
        fold.add(&s01).unwrap();
        assert_eq!(fold.add(&skewed), Err(1));
        // ... and so is a raw encoder where the first copy standardizes.
        let mut fold = SpecFold::new();
        fold.add(&s01).unwrap();
        assert_eq!(fold.add(&DesignSpec::fit(&d, &[0], false)), Err(0));
    }

    #[test]
    fn row_subset_views_compose() {
        let m = DesignMatrix::from_raw(4, 2, vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0]);
        let present = [0usize, 2, 3];
        let sub = RowSubset::new(&m, &present);
        assert_eq!(sub.n_rows(), 3);
        assert_eq!(sub.get(1, 1), 21.0);
        assert_eq!(DesignView::col(&sub, 0).get(2), 30.0);
        // Second level: a CV fold over the presence-filtered rows.
        let fold = [2usize, 0];
        let sub2 = RowSubset::new(&sub, &fold[..]);
        assert_eq!(sub2.n_rows(), 2);
        assert_eq!(sub2.get(0, 0), 30.0);
        assert_eq!(sub2.get(1, 0), 0.0);
        let col = DesignView::col(&sub2, 1);
        assert_eq!(col.len(), 2);
        assert_eq!(col.get(0), 31.0);
        assert_eq!(col.get(1), 1.0);
        let mut buf = [0.0; 2];
        sub2.copy_row_into(0, &mut buf);
        assert_eq!(buf, [30.0, 31.0]);
        assert_eq!(sub2.view_overhead_bytes(), 2 * std::mem::size_of::<usize>());
    }

    #[test]
    fn pool_views_expose_categorical_blocks_through_row_subsets() {
        let d = mixed();
        let pool_spec = PoolSpec::fit(&d, &[0, 1, 2], true);
        let pool = pool_spec.encode(&d);
        // Real `e1` is view column 0; the ternary `snp` block follows.
        let view = pool.view(&[0, 2]);
        let blocks = view.cat_blocks().expect("the view has a categorical input");
        assert_eq!(blocks.blocks().len(), 1);
        let b = blocks.blocks()[0];
        assert_eq!((b.first, b.arity), (1, 3));
        assert_eq!(b.codes, &[0, 1, 2, MISSING_CODE]);
        let mut rows = Vec::new();
        blocks.resolve_rows(&[3, 0], &mut rows);
        assert_eq!(rows, [3, 0]);
        // Two subset levels map view rows back to storage rows.
        let present = [1usize, 2, 3];
        let sub = RowSubset::new(&view, &present);
        let fold = [2usize, 0];
        let sub2 = RowSubset::new(&sub, &fold[..]);
        rows.clear();
        sub2.cat_blocks().unwrap().resolve_rows(&[0, 1], &mut rows);
        assert_eq!(rows, [3, 1]);
        // Real-only views, owned matrices and scoring rows have no blocks.
        assert!(pool.view(&[0, 1]).cat_blocks().is_none());
        assert!(DesignSpec::fit(&d, &[2], true).encode(&d).cat_blocks().is_none());
        assert!(pool_spec.encode_rows(&d).cat_blocks().is_none());
    }

    #[test]
    fn pool_view_overhead_is_small() {
        let d = mixed();
        let pool = PoolSpec::fit(&d, &[0, 1, 2], true).encode(&d);
        let view = pool.view(&[0, 1]);
        // Adjacent features merge into one contiguous segment.
        assert_eq!(view.segments.len(), 1);
        assert_eq!(pool.view(&[0, 2]).segments.len(), 2);
        assert!(view.view_overhead_bytes() < pool.approx_bytes());
    }
}
