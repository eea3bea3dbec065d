//! FRaC configuration: model families, CV folds, seeds.

use frac_learn::tree::TreeConfig;
use frac_learn::{SolverMode, SolverStrategy, SvcConfig, SvrConfig};

/// Which model family learns real-valued target features.
#[derive(Debug, Clone, Copy)]
pub enum RealModel {
    /// Linear ε-SVR — the paper's choice for expression data.
    Svr(SvrConfig),
    /// Regression tree — used in the JL-projected space on SNP data.
    Tree(TreeConfig),
    /// Constant mean predictor (baseline / degenerate fallback).
    Constant,
}

/// Which model family learns categorical target features.
#[derive(Debug, Clone, Copy)]
pub enum CatModel {
    /// Decision tree — the paper's choice for SNP data.
    Tree(TreeConfig),
    /// Linear SVM (one-vs-rest) — the paper found this inferior on SNP
    /// data; kept for the tree-vs-SVM ablation.
    Svc(SvcConfig),
    /// Majority-class predictor (baseline / degenerate fallback).
    Majority,
}

/// The tag [`FracConfig::content_hash`] appends to a fast SVM config's
/// rendering: the fast path's arithmetic since its all-but-target solves
/// downdate a shared Gram matrix (FORMATS.md §4).
pub const FAST_GRAM_ARITHMETIC: &str = " arithmetic=shared-gram-downdate";

/// Full configuration of a FRaC run.
#[derive(Debug, Clone, Copy)]
pub struct FracConfig {
    /// Cross-validation folds for error-model fitting (paper: k-fold CV).
    pub cv_folds: usize,
    /// Whether to z-score real input features (recommended for SVMs).
    pub standardize: bool,
    /// Model family for real targets.
    pub real_model: RealModel,
    /// Model family for categorical targets.
    pub cat_model: CatModel,
    /// Master seed: all per-feature, per-fold and per-member randomness is
    /// derived from it.
    pub seed: u64,
}

impl Default for FracConfig {
    fn default() -> Self {
        FracConfig {
            cv_folds: 5,
            standardize: true,
            real_model: RealModel::Svr(SvrConfig::default()),
            cat_model: CatModel::Tree(TreeConfig::default()),
            seed: 0xF12AC,
        }
    }
}

impl FracConfig {
    /// The paper's expression-data configuration: linear SVR everywhere
    /// real, trees for any categorical features.
    pub fn expression() -> Self {
        FracConfig::default()
    }

    /// The paper's SNP-data configuration: decision trees (SVMs "did not
    /// appear to work well on the discrete SNP data").
    pub fn snp() -> Self {
        FracConfig {
            real_model: RealModel::Tree(TreeConfig::default()),
            cat_model: CatModel::Tree(TreeConfig::default()),
            ..FracConfig::default()
        }
    }

    /// Replace the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Content fingerprint of the full configuration, used by the run
    /// journal to refuse resuming under a different config. Hashes the
    /// `Debug` rendering — every field (model families and their
    /// hyperparameters, folds, seed) feeds the hash, and floats render
    /// bit-exactly, so two configs collide only if they are behaviourally
    /// identical. Not a stable cross-release format: a journal is a
    /// crash-recovery artifact, not an archive.
    ///
    /// A config with a fast SVM family also hashes [`FAST_GRAM_ARITHMETIC`]:
    /// its all-but-target solves downdate one shared Gram matrix per fit,
    /// so a journal written before that arithmetic is refused rather than
    /// mixed with targets fitted under it. Strict and tree configs hash
    /// their rendering alone, as before.
    pub fn content_hash(&self) -> u64 {
        let mut text = format!("{self:?}");
        if self.has_fast_svm() {
            text.push_str(FAST_GRAM_ARITHMETIC);
        }
        frac_dataset::crc::fnv64(text.as_bytes())
    }

    /// Whether the real or the categorical model is an SVM under
    /// [`SolverMode::Fast`].
    fn has_fast_svm(&self) -> bool {
        matches!(self.real_model, RealModel::Svr(c) if c.mode == SolverMode::Fast)
            || matches!(self.cat_model, CatModel::Svc(c) if c.mode == SolverMode::Fast)
    }

    /// Select the SVM solver path (builder style): [`SolverMode::Fast`]
    /// (shrinking + warm starts + blocked kernels, the default) or
    /// [`SolverMode::Strict`] (the reference solver the fast path is
    /// validated against). A no-op for tree/baseline model families, which
    /// have a single implementation.
    pub fn with_solver_mode(mut self, mode: SolverMode) -> Self {
        if let RealModel::Svr(cfg) = &mut self.real_model {
            cfg.mode = mode;
        }
        if let CatModel::Svc(cfg) = &mut self.cat_model {
            cfg.mode = mode;
        }
        self
    }

    /// Select the fast-path SVM execution strategy (builder style):
    /// [`SolverStrategy::Auto`] (cost-model selection per solve, the
    /// default), [`SolverStrategy::Gram`] (always the Gram-matrix dual
    /// loop), or [`SolverStrategy::Primal`] (always primal maintenance).
    /// Honoured only on the [`SolverMode::Fast`] path; a no-op for
    /// tree/baseline model families.
    pub fn with_solver_strategy(mut self, strategy: SolverStrategy) -> Self {
        if let RealModel::Svr(cfg) = &mut self.real_model {
            cfg.strategy = strategy;
        }
        if let CatModel::Svc(cfg) = &mut self.cat_model {
            cfg.strategy = strategy;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_protocol() {
        let c = FracConfig::default();
        assert_eq!(c.cv_folds, 5);
        assert!(c.standardize);
        assert!(matches!(c.real_model, RealModel::Svr(_)));
        assert!(matches!(c.cat_model, CatModel::Tree(_)));
    }

    #[test]
    fn snp_config_uses_trees_for_everything() {
        let c = FracConfig::snp();
        assert!(matches!(c.real_model, RealModel::Tree(_)));
        assert!(matches!(c.cat_model, CatModel::Tree(_)));
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let c = FracConfig::default().with_seed(42);
        assert_eq!(c.seed, 42);
        assert_eq!(c.cv_folds, FracConfig::default().cv_folds);
    }
}
