//! Typed feature descriptions.
//!
//! A FRaC data set mixes real-valued features (e.g. mRNA expression levels)
//! with k-ary categorical features (e.g. SNP genotypes, which are ternary:
//! homozygous-major / heterozygous / homozygous-minor). The [`Schema`] records
//! the kind and name of every feature and is carried alongside the data so
//! that models, error models and encoders can dispatch on feature type.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// The kind of a single feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureKind {
    /// A real-valued feature (stored as `f64`, `NaN` encodes "missing").
    Real,
    /// A categorical feature with `arity` distinct categories, coded
    /// `0..arity`. `u32::MAX` encodes "missing".
    Categorical {
        /// Number of distinct categories (must be ≥ 2 to be learnable).
        arity: u32,
    },
}

impl FeatureKind {
    /// A ternary categorical feature, the natural kind for SNP genotypes.
    pub const SNP: FeatureKind = FeatureKind::Categorical { arity: 3 };

    /// Is this a real-valued feature?
    #[inline]
    pub fn is_real(self) -> bool {
        matches!(self, FeatureKind::Real)
    }

    /// Is this a categorical feature?
    #[inline]
    pub fn is_categorical(self) -> bool {
        matches!(self, FeatureKind::Categorical { .. })
    }

    /// Arity of a categorical feature, `None` for real features.
    #[inline]
    pub fn arity(self) -> Option<u32> {
        match self {
            FeatureKind::Real => None,
            FeatureKind::Categorical { arity } => Some(arity),
        }
    }

    /// Width of this feature after one-hot expansion (Fig. 2 of the paper):
    /// real features stay one column, k-ary categorical features become `k`
    /// indicator columns.
    #[inline]
    pub fn one_hot_width(self) -> usize {
        match self {
            FeatureKind::Real => 1,
            FeatureKind::Categorical { arity } => arity as usize,
        }
    }
}

impl fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeatureKind::Real => write!(f, "real"),
            FeatureKind::Categorical { arity } => write!(f, "cat{arity}"),
        }
    }
}

/// A named, typed feature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feature {
    /// Human-readable name (gene symbol, SNP rsid, projected-component id…).
    pub name: String,
    /// The feature's kind.
    pub kind: FeatureKind,
}

impl Feature {
    /// Create a feature from a name and kind.
    pub fn new(name: impl Into<String>, kind: FeatureKind) -> Self {
        Feature { name: name.into(), kind }
    }

    /// Shorthand for a real-valued feature.
    pub fn real(name: impl Into<String>) -> Self {
        Feature::new(name, FeatureKind::Real)
    }

    /// Shorthand for a categorical feature of the given arity.
    pub fn categorical(name: impl Into<String>, arity: u32) -> Self {
        Feature::new(name, FeatureKind::Categorical { arity })
    }
}

/// An ordered collection of [`Feature`]s describing a data set's columns.
#[derive(Clone, Default)]
pub struct Schema {
    features: Vec<Feature>,
    /// Name → index of the first feature with that name, built on the
    /// first [`Schema::index_of`] and dropped by [`Schema::push`].
    by_name: OnceLock<HashMap<String, usize>>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Schema) -> bool {
        self.features == other.features
    }
}

impl Eq for Schema {}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema").field("features", &self.features).finish()
    }
}

impl Schema {
    /// Build a schema from a list of features.
    pub fn new(features: Vec<Feature>) -> Self {
        Schema { features, by_name: OnceLock::new() }
    }

    /// A schema of `n` anonymous real features named `x0..x{n-1}`.
    pub fn all_real(n: usize) -> Self {
        Schema::new((0..n).map(|i| Feature::real(format!("x{i}"))).collect())
    }

    /// A schema of `n` anonymous k-ary categorical features named `c0..`.
    pub fn all_categorical(n: usize, arity: u32) -> Self {
        Schema::new(
            (0..n)
                .map(|i| Feature::categorical(format!("c{i}"), arity))
                .collect(),
        )
    }

    /// Number of features.
    #[inline]
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Is the schema empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The `i`-th feature.
    #[inline]
    pub fn feature(&self, i: usize) -> &Feature {
        &self.features[i]
    }

    /// The `i`-th feature's kind.
    #[inline]
    pub fn kind(&self, i: usize) -> FeatureKind {
        self.features[i].kind
    }

    /// Iterate over features.
    pub fn iter(&self) -> impl Iterator<Item = &Feature> {
        self.features.iter()
    }

    /// Index of the (first) feature with the given name, if any. The
    /// name map is built once, on the first call, so a long-lived schema
    /// (the scoring daemon's) resolves every later name in O(1).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        let by_name = self.by_name.get_or_init(|| {
            let mut map = HashMap::with_capacity(self.features.len());
            for (i, f) in self.features.iter().enumerate() {
                map.entry(f.name.clone()).or_insert(i);
            }
            map
        });
        by_name.get(name).copied()
    }

    /// Append a feature, returning its index.
    pub fn push(&mut self, feature: Feature) -> usize {
        self.by_name.take();
        self.features.push(feature);
        self.features.len() - 1
    }

    /// Schema restricted to the given feature indices (in the given order).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn select(&self, indices: &[usize]) -> Schema {
        Schema::new(indices.iter().map(|&i| self.features[i].clone()).collect())
    }

    /// Total width of the one-hot expansion of all features (Fig. 2):
    /// `Σ_i one_hot_width(kind_i)`.
    pub fn one_hot_width(&self) -> usize {
        self.features.iter().map(|f| f.kind.one_hot_width()).sum()
    }

    /// Number of real features.
    pub fn n_real(&self) -> usize {
        self.features.iter().filter(|f| f.kind.is_real()).count()
    }

    /// Number of categorical features.
    pub fn n_categorical(&self) -> usize {
        self.features.iter().filter(|f| f.kind.is_categorical()).count()
    }
}

impl std::ops::Index<usize> for Schema {
    type Output = Feature;
    fn index(&self, i: usize) -> &Feature {
        &self.features[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(FeatureKind::Real.is_real());
        assert!(!FeatureKind::Real.is_categorical());
        assert_eq!(FeatureKind::Real.arity(), None);
        let snp = FeatureKind::SNP;
        assert!(snp.is_categorical());
        assert_eq!(snp.arity(), Some(3));
    }

    #[test]
    fn one_hot_widths_match_fig2() {
        // Fig. 2: four real features + a ternary + a quaternary categorical
        // expand to 4 + 3 + 4 = 11 columns.
        let schema = Schema::new(vec![
            Feature::real("a"),
            Feature::real("b"),
            Feature::real("c"),
            Feature::real("d"),
            Feature::categorical("e", 3),
            Feature::categorical("f", 4),
        ]);
        assert_eq!(schema.one_hot_width(), 11);
        assert_eq!(schema.n_real(), 4);
        assert_eq!(schema.n_categorical(), 2);
    }

    #[test]
    fn select_preserves_order() {
        let schema = Schema::all_real(5);
        let sub = schema.select(&[4, 0, 2]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.feature(0).name, "x4");
        assert_eq!(sub.feature(1).name, "x0");
        assert_eq!(sub.feature(2).name, "x2");
    }

    #[test]
    fn index_of_finds_named_features() {
        let schema = Schema::all_categorical(3, 3);
        assert_eq!(schema.index_of("c1"), Some(1));
        assert_eq!(schema.index_of("nope"), None);
    }

    #[test]
    fn index_of_takes_the_first_duplicate_and_sees_pushes() {
        let mut schema = Schema::new(vec![
            Feature::real("a"),
            Feature::real("b"),
            Feature::categorical("a", 3),
        ]);
        assert_eq!(schema.index_of("a"), Some(0));
        assert_eq!(schema.index_of("c"), None);
        schema.push(Feature::real("c"));
        assert_eq!(schema.index_of("c"), Some(3));
        // The lazily built map is not part of a schema's identity.
        let probed = Schema::all_real(1);
        assert_eq!(probed.index_of("x0"), Some(0));
        assert_eq!(probed, Schema::all_real(1));
        assert_eq!(format!("{probed:?}"), format!("{:?}", Schema::all_real(1)));
    }

    #[test]
    fn display_kinds() {
        assert_eq!(FeatureKind::Real.to_string(), "real");
        assert_eq!(FeatureKind::SNP.to_string(), "cat3");
    }

    #[test]
    fn push_returns_index() {
        let mut schema = Schema::default();
        assert!(schema.is_empty());
        assert_eq!(schema.push(Feature::real("a")), 0);
        assert_eq!(schema.push(Feature::categorical("b", 2)), 1);
        assert_eq!(schema.len(), 2);
        assert_eq!(schema[1].kind, FeatureKind::Categorical { arity: 2 });
    }
}
