//! Column-major mixed-type data set storage.
//!
//! FRaC is feature-centric: every feature is in turn a prediction *target*,
//! and entropy / error-model statistics are computed per feature. Column-major
//! storage makes those per-feature scans contiguous. Row-major design matrices
//! for model training are materialized on demand by [`crate::design`].

use crate::crc::Fnv64;
use crate::mmap::MmapFile;
use crate::schema::{Feature, FeatureKind, Schema};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Sentinel code for a missing categorical value.
pub const MISSING_CODE: u32 = u32::MAX;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for u32 {}
}

/// Element types a [`ColStore`] can hold: the two scalar kinds FCB column
/// extents are made of (`f64` values, `u32` categorical codes). Sealed —
/// the on-disk format, not the caller, decides what can be mapped.
pub trait ColElem: sealed::Sealed + Copy + PartialEq + fmt::Debug + 'static {
    /// Zero-copy typed view of `len` elements at `byte_off` of `map`;
    /// `None` when out of bounds or misaligned.
    #[doc(hidden)]
    fn mapped_slice(map: &MmapFile, byte_off: usize, len: usize) -> Option<&[Self]>;
}

impl ColElem for f64 {
    fn mapped_slice(map: &MmapFile, byte_off: usize, len: usize) -> Option<&[f64]> {
        map.slice_f64(byte_off, len)
    }
}

impl ColElem for u32 {
    fn mapped_slice(map: &MmapFile, byte_off: usize, len: usize) -> Option<&[u32]> {
        map.slice_u32(byte_off, len)
    }
}

/// Backing storage of one column: either an owned `Vec` or a zero-copy
/// view into a memory-mapped FCB file ([`crate::fcb`]).
///
/// `ColStore` derefs to `[T]`, so readers are oblivious to the backing —
/// every slice-shaped access (`len`, indexing, iteration) works identically
/// on owned and mapped columns, and the mapped case materializes nothing.
/// Mutation (`push` / `extend_from_slice`) is copy-on-write: a mapped store
/// first copies its view into an owned `Vec`, then mutates that.
pub struct ColStore<T: ColElem> {
    repr: StoreRepr<T>,
}

enum StoreRepr<T> {
    Owned(Vec<T>),
    /// `len` *elements* starting at `byte_off` of the shared mapping. The
    /// range is validated (bounds + alignment) when the store is built, so
    /// deref cannot fail later.
    Mapped { map: Arc<MmapFile>, byte_off: usize, len: usize },
}

impl<T: ColElem> ColStore<T> {
    /// Zero-copy store over `len` elements at `byte_off` of `map`.
    /// Returns `None` when the range is out of bounds or misaligned.
    pub(crate) fn mapped(map: Arc<MmapFile>, byte_off: usize, len: usize) -> Option<Self> {
        T::mapped_slice(&map, byte_off, len)?;
        Some(ColStore { repr: StoreRepr::Mapped { map, byte_off, len } })
    }

    /// The stored elements as a slice (what `Deref` returns).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            StoreRepr::Owned(v) => v,
            StoreRepr::Mapped { map, byte_off, len } => T::mapped_slice(map, *byte_off, *len)
                .expect("mapped extent was validated when the store was built"),
        }
    }

    /// True when backed by a memory-mapped file rather than owned memory.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, StoreRepr::Mapped { .. })
    }

    /// Mutable owned storage, converting a mapped view into an owned copy
    /// on first use (copy-on-write).
    fn make_owned(&mut self) -> &mut Vec<T> {
        if let StoreRepr::Mapped { .. } = self.repr {
            self.repr = StoreRepr::Owned(self.as_slice().to_vec());
        }
        match &mut self.repr {
            StoreRepr::Owned(v) => v,
            StoreRepr::Mapped { .. } => unreachable!("just converted to owned"),
        }
    }

    /// Append one element (copy-on-write for mapped stores).
    pub fn push(&mut self, value: T) {
        self.make_owned().push(value);
    }

    /// Append a slice of elements (copy-on-write for mapped stores).
    pub fn extend_from_slice(&mut self, other: &[T]) {
        self.make_owned().extend_from_slice(other);
    }

    /// Remove every element, keeping owned capacity (a mapped store
    /// becomes an empty owned one).
    pub fn clear(&mut self) {
        match &mut self.repr {
            StoreRepr::Owned(v) => v.clear(),
            StoreRepr::Mapped { .. } => self.repr = StoreRepr::Owned(Vec::new()),
        }
    }
}

impl<T: ColElem> Deref for ColStore<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: ColElem> From<Vec<T>> for ColStore<T> {
    fn from(v: Vec<T>) -> Self {
        ColStore { repr: StoreRepr::Owned(v) }
    }
}

impl<T: ColElem> FromIterator<T> for ColStore<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Vec::from_iter(iter).into()
    }
}

impl<T: ColElem> Clone for ColStore<T> {
    fn clone(&self) -> Self {
        match &self.repr {
            StoreRepr::Owned(v) => ColStore { repr: StoreRepr::Owned(v.clone()) },
            // Cloning a mapped store clones the Arc, not the data.
            StoreRepr::Mapped { map, byte_off, len } => ColStore {
                repr: StoreRepr::Mapped { map: Arc::clone(map), byte_off: *byte_off, len: *len },
            },
        }
    }
}

impl<'a, T: ColElem> IntoIterator for &'a ColStore<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: ColElem> fmt::Debug for ColStore<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as the slice: backing is a performance detail, not identity.
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<T: ColElem> PartialEq for ColStore<T> {
    fn eq(&self, other: &Self) -> bool {
        // Element-wise, with `T`'s own semantics (NaN != NaN, like `Vec`).
        self.as_slice() == other.as_slice()
    }
}

/// A single (possibly missing) feature value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A real value.
    Real(f64),
    /// A categorical code in `0..arity`.
    Categorical(u32),
    /// Missing / undefined. Per the paper's NS definition, missing values
    /// contribute zero surprisal and are skipped by predictors.
    Missing,
}

impl Value {
    /// Is this value missing?
    #[inline]
    pub fn is_missing(self) -> bool {
        matches!(self, Value::Missing)
    }

    /// The real payload, if any.
    #[inline]
    pub fn as_real(self) -> Option<f64> {
        match self {
            Value::Real(x) => Some(x),
            _ => None,
        }
    }

    /// The categorical code, if any.
    #[inline]
    pub fn as_categorical(self) -> Option<u32> {
        match self {
            Value::Categorical(c) => Some(c),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(x) => write!(f, "{x}"),
            Value::Categorical(c) => write!(f, "{c}"),
            Value::Missing => write!(f, "?"),
        }
    }
}

/// One column of data, matching a [`FeatureKind`].
///
/// Payloads are [`ColStore`]s — owned vectors for datasets built in memory
/// (TSV parse, generators, row selection), zero-copy mapped views for
/// datasets loaded from an FCB file ([`crate::fcb`]). Both deref to slices,
/// so consumers never distinguish the two.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Real values; `NaN` encodes missing.
    Real(ColStore<f64>),
    /// Categorical codes; [`MISSING_CODE`] encodes missing.
    Categorical {
        /// Number of categories.
        arity: u32,
        /// Codes, one per row.
        codes: ColStore<u32>,
    },
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Real(v) => v.len(),
            Column::Categorical { codes, .. } => codes.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kind this column stores.
    pub fn kind(&self) -> FeatureKind {
        match self {
            Column::Real(_) => FeatureKind::Real,
            Column::Categorical { arity, .. } => FeatureKind::Categorical { arity: *arity },
        }
    }

    /// Value at `row`.
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Real(v) => {
                let x = v[row];
                if x.is_nan() {
                    Value::Missing
                } else {
                    Value::Real(x)
                }
            }
            Column::Categorical { codes, .. } => {
                let c = codes[row];
                if c == MISSING_CODE {
                    Value::Missing
                } else {
                    Value::Categorical(c)
                }
            }
        }
    }

    /// Real slice, if this is a real column.
    pub fn as_real(&self) -> Option<&[f64]> {
        match self {
            Column::Real(v) => Some(v),
            _ => None,
        }
    }

    /// Codes slice, if this is a categorical column.
    pub fn as_categorical(&self) -> Option<&[u32]> {
        match self {
            Column::Categorical { codes, .. } => Some(codes),
            _ => None,
        }
    }

    /// Non-missing real values (empty for categorical columns).
    pub fn present_reals(&self) -> Vec<f64> {
        match self {
            Column::Real(v) => v.iter().copied().filter(|x| !x.is_nan()).collect(),
            _ => Vec::new(),
        }
    }

    /// Number of missing entries.
    pub fn n_missing(&self) -> usize {
        match self {
            Column::Real(v) => v.iter().filter(|x| x.is_nan()).count(),
            Column::Categorical { codes, .. } => {
                codes.iter().filter(|&&c| c == MISSING_CODE).count()
            }
        }
    }

    /// Column restricted to the given rows (in order, duplicates allowed).
    pub fn select_rows(&self, rows: &[usize]) -> Column {
        match self {
            Column::Real(v) => Column::Real(rows.iter().map(|&r| v[r]).collect()),
            Column::Categorical { arity, codes } => Column::Categorical {
                arity: *arity,
                codes: rows.iter().map(|&r| codes[r]).collect(),
            },
        }
    }
}

/// A column-major data set: a [`Schema`] plus one [`Column`] per feature.
///
/// Rows are samples (patients / cell lines); columns are features (genes /
/// SNPs). All columns have equal length.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

impl Dataset {
    /// Build a data set from a schema and matching columns.
    ///
    /// # Panics
    /// Panics if column count, kinds, or lengths are inconsistent, or if a
    /// categorical code is out of range.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Self {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema has {} features but {} columns were supplied",
            schema.len(),
            columns.len()
        );
        let n_rows = columns.first().map_or(0, Column::len);
        for (i, col) in columns.iter().enumerate() {
            assert_eq!(
                col.kind(),
                schema.kind(i),
                "column {i} kind {:?} does not match schema kind {:?}",
                col.kind(),
                schema.kind(i)
            );
            assert_eq!(col.len(), n_rows, "column {i} has inconsistent length");
            if let Column::Categorical { arity, codes } = col {
                for &c in codes {
                    assert!(
                        c < *arity || c == MISSING_CODE,
                        "column {i}: code {c} out of range for arity {arity}"
                    );
                }
            }
        }
        Dataset { schema, columns, n_rows }
    }

    /// An empty data set with the given schema (zero rows).
    pub fn empty(schema: Schema) -> Self {
        let columns = schema
            .iter()
            .map(|f| match f.kind {
                FeatureKind::Real => Column::Real(Vec::new().into()),
                FeatureKind::Categorical { arity } => {
                    Column::Categorical { arity, codes: Vec::new().into() }
                }
            })
            .collect();
        Dataset { schema, columns, n_rows: 0 }
    }

    /// Build an all-real data set from row-major data.
    ///
    /// # Panics
    /// Panics if `rows` are ragged.
    pub fn from_real_rows(rows: &[Vec<f64>]) -> Self {
        let n_features = rows.first().map_or(0, Vec::len);
        let mut columns = vec![Vec::with_capacity(rows.len()); n_features];
        for row in rows {
            assert_eq!(row.len(), n_features, "ragged rows");
            for (j, &x) in row.iter().enumerate() {
                columns[j].push(x);
            }
        }
        Dataset::new(
            Schema::all_real(n_features),
            columns.into_iter().map(|v| Column::Real(v.into())).collect(),
        )
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (samples).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features (columns).
    #[inline]
    pub fn n_features(&self) -> usize {
        self.columns.len()
    }

    /// The `i`-th column.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Value at (`row`, `feature`).
    #[inline]
    pub fn value(&self, row: usize, feature: usize) -> Value {
        self.columns[feature].value(row)
    }

    /// Append one row given as values.
    ///
    /// # Panics
    /// Panics on arity/kind mismatch.
    pub fn push_row(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.n_features(), "row width mismatch");
        for (col, &v) in self.columns.iter_mut().zip(values) {
            match (col, v) {
                (Column::Real(vec), Value::Real(x)) => vec.push(x),
                (Column::Real(vec), Value::Missing) => vec.push(f64::NAN),
                (Column::Categorical { arity, codes }, Value::Categorical(c)) => {
                    assert!(c < *arity, "code {c} out of range for arity {arity}");
                    codes.push(c);
                }
                (Column::Categorical { codes, .. }, Value::Missing) => codes.push(MISSING_CODE),
                (col, v) => panic!("value {v:?} incompatible with column kind {:?}", col.kind()),
            }
        }
        self.n_rows += 1;
    }

    /// Drop every row, keeping the schema and the columns' capacity, so a
    /// caller assembling small batches row by row (the serving daemon)
    /// reuses one data set instead of rebuilding it per batch.
    pub fn clear_rows(&mut self) {
        for col in &mut self.columns {
            match col {
                Column::Real(v) => v.clear(),
                Column::Categorical { codes, .. } => codes.clear(),
            }
        }
        self.n_rows = 0;
    }

    /// One row as a vector of values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        (0..self.n_features()).map(|j| self.value(row, j)).collect()
    }

    /// Data set restricted to the given rows (in order; duplicates allowed,
    /// so this also implements bootstrap resampling).
    pub fn select_rows(&self, rows: &[usize]) -> Dataset {
        let columns = self.columns.iter().map(|c| c.select_rows(rows)).collect();
        Dataset { schema: self.schema.clone(), columns, n_rows: rows.len() }
    }

    /// Data set restricted to the given features (in order) — the *full
    /// filtering* reduction of the paper's §II-A.
    pub fn select_features(&self, features: &[usize]) -> Dataset {
        let schema = self.schema.select(features);
        let columns = features.iter().map(|&j| self.columns[j].clone()).collect();
        Dataset { schema, columns, n_rows: self.n_rows }
    }

    /// Vertically concatenate two data sets with identical schemas.
    ///
    /// # Panics
    /// Panics if the schemas differ.
    pub fn vstack(&self, other: &Dataset) -> Dataset {
        assert_eq!(self.schema, other.schema, "schema mismatch in vstack");
        let columns = self
            .columns
            .iter()
            .zip(&other.columns)
            .map(|(a, b)| match (a, b) {
                (Column::Real(x), Column::Real(y)) => {
                    let mut v = x.clone();
                    v.extend_from_slice(y);
                    Column::Real(v)
                }
                (
                    Column::Categorical { arity, codes: x },
                    Column::Categorical { codes: y, .. },
                ) => {
                    let mut v = x.clone();
                    v.extend_from_slice(y);
                    Column::Categorical { arity: *arity, codes: v }
                }
                _ => unreachable!("schemas matched"),
            })
            .collect();
        Dataset {
            schema: self.schema.clone(),
            columns,
            n_rows: self.n_rows + other.n_rows,
        }
    }

    /// Approximate resident size of the stored data, in bytes. Used by the
    /// resource meter to reproduce the paper's memory columns.
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Real(v) => v.len() * std::mem::size_of::<f64>(),
                Column::Categorical { codes, .. } => codes.len() * std::mem::size_of::<u32>(),
            })
            .sum()
    }

    /// Total number of missing entries.
    pub fn n_missing(&self) -> usize {
        self.columns.iter().map(Column::n_missing).sum()
    }

    /// Content fingerprint (FNV-1a 64) over the schema and every cell's bit
    /// pattern. Two datasets share a fingerprint iff they are bit-identical
    /// (names, kinds, arities, row order, and NaN payloads all included), so
    /// the run journal can refuse to resume against different data.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.n_rows as u64);
        h.write_u64(self.columns.len() as u64);
        for (feature, col) in self.schema.iter().zip(&self.columns) {
            h.write(feature.name.as_bytes());
            h.write(&[0]); // name terminator: "ab"+"c" must differ from "a"+"bc"
            match col {
                Column::Real(v) => {
                    h.write_u64(0);
                    for &x in v {
                        h.write_f64(x);
                    }
                }
                Column::Categorical { arity, codes } => {
                    h.write_u64(1 + *arity as u64);
                    for &c in codes {
                        h.write(&c.to_le_bytes());
                    }
                }
            }
        }
        h.finish()
    }
}

/// Builder for assembling datasets feature-by-feature.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    features: Vec<Feature>,
    columns: Vec<Column>,
}

impl DatasetBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a real feature column.
    pub fn real(mut self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.features.push(Feature::real(name));
        self.columns.push(Column::Real(values.into()));
        self
    }

    /// Add a categorical feature column.
    pub fn categorical(
        mut self,
        name: impl Into<String>,
        arity: u32,
        codes: Vec<u32>,
    ) -> Self {
        self.features.push(Feature::categorical(name, arity));
        self.columns.push(Column::Categorical { arity, codes: codes.into() });
        self
    }

    /// Finish, validating shape consistency.
    pub fn build(self) -> Dataset {
        Dataset::new(Schema::new(self.features), self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> Dataset {
        DatasetBuilder::new()
            .real("expr", vec![1.0, 2.0, f64::NAN, 4.0])
            .categorical("snp", 3, vec![0, 1, 2, MISSING_CODE])
            .build()
    }

    #[test]
    fn shape_and_values() {
        let d = mixed();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.value(0, 0), Value::Real(1.0));
        assert_eq!(d.value(2, 0), Value::Missing);
        assert_eq!(d.value(1, 1), Value::Categorical(1));
        assert_eq!(d.value(3, 1), Value::Missing);
        assert_eq!(d.n_missing(), 2);
    }

    #[test]
    fn select_rows_reorders_and_duplicates() {
        let d = mixed();
        let s = d.select_rows(&[3, 0, 0]);
        assert_eq!(s.n_rows(), 3);
        assert_eq!(s.value(0, 0), Value::Real(4.0));
        assert_eq!(s.value(1, 0), Value::Real(1.0));
        assert_eq!(s.value(2, 0), Value::Real(1.0));
        assert_eq!(s.value(0, 1), Value::Missing);
    }

    #[test]
    fn select_features_is_full_filtering() {
        let d = mixed();
        let s = d.select_features(&[1]);
        assert_eq!(s.n_features(), 1);
        assert_eq!(s.schema().feature(0).name, "snp");
        assert_eq!(s.n_rows(), 4);
    }

    #[test]
    fn push_row_roundtrip() {
        let mut d = Dataset::empty(
            Schema::new(vec![Feature::real("a"), Feature::categorical("b", 2)]),
        );
        d.push_row(&[Value::Real(0.5), Value::Categorical(1)]);
        d.push_row(&[Value::Missing, Value::Missing]);
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.row(0), vec![Value::Real(0.5), Value::Categorical(1)]);
        assert_eq!(d.row(1), vec![Value::Missing, Value::Missing]);
        // Clearing keeps the schema; the next batch starts at row 0.
        d.clear_rows();
        assert_eq!(d.n_rows(), 0);
        d.push_row(&[Value::Real(2.0), Value::Categorical(0)]);
        assert_eq!(d.n_rows(), 1);
        assert_eq!(d.row(0), vec![Value::Real(2.0), Value::Categorical(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_row_rejects_bad_code() {
        let mut d = Dataset::empty(Schema::new(vec![Feature::categorical("b", 2)]));
        d.push_row(&[Value::Categorical(5)]);
    }

    #[test]
    fn vstack_concatenates() {
        let d = mixed();
        let s = d.vstack(&d);
        assert_eq!(s.n_rows(), 8);
        assert_eq!(s.value(4, 0), Value::Real(1.0));
    }

    #[test]
    fn from_real_rows_transposes() {
        let d = Dataset::from_real_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.column(1).as_real().unwrap(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn approx_bytes_counts_storage() {
        let d = mixed();
        assert_eq!(d.approx_bytes(), 4 * 8 + 4 * 4);
    }

    #[test]
    #[should_panic(expected = "inconsistent length")]
    fn new_rejects_ragged_columns() {
        Dataset::new(
            Schema::all_real(2),
            vec![Column::Real(vec![1.0].into()), Column::Real(vec![1.0, 2.0].into())],
        );
    }

    #[test]
    fn present_reals_skips_nan() {
        let d = mixed();
        assert_eq!(d.column(0).present_reals(), vec![1.0, 2.0, 4.0]);
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let d = mixed();
        assert_eq!(d.fingerprint(), mixed().fingerprint());
        // A single changed cell changes the fingerprint.
        let mut other = DatasetBuilder::new()
            .real("expr", vec![1.0, 2.0, f64::NAN, 4.5])
            .categorical("snp", 3, vec![0, 1, 2, MISSING_CODE])
            .build();
        assert_ne!(d.fingerprint(), other.fingerprint());
        // Row order matters.
        other = d.select_rows(&[3, 2, 1, 0]);
        assert_ne!(d.fingerprint(), other.fingerprint());
        // A renamed feature matters.
        let renamed = DatasetBuilder::new()
            .real("expr2", vec![1.0, 2.0, f64::NAN, 4.0])
            .categorical("snp", 3, vec![0, 1, 2, MISSING_CODE])
            .build();
        assert_ne!(d.fingerprint(), renamed.fingerprint());
    }
}
