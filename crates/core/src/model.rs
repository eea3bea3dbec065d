//! Fitting and scoring of FRaC models.
//!
//! [`FracModel::fit`] executes a [`TrainingPlan`]: per target feature it
//! fits the configured predictor(s) plus a cross-validated error model and
//! records the training-set entropy `H(f_i)`. [`FracModel::contributions`]
//! then scores a test set, returning each feature's normalized-surprisal
//! contribution separately (the paper's interpretability analyses — "two of
//! the top 20 predictive SNP models" — need per-feature scores, and
//! ensembles combine members per-feature by median).
//!
//! Per-feature work runs under rayon with seeds derived from
//! `(config.seed, target, member)`, so results are identical at any thread
//! count.
//!
//! The fit loop is **fault-isolated**: the training set is screened and
//! sanitized by [`frac_dataset::quarantine`] before anything reaches a
//! solver, each member fit runs behind `catch_unwind` with a fallback
//! ladder (configured model → strict solver → baseline predictor → drop),
//! and every degradation is recorded in the run's
//! [`RunHealth`]. On a clean dataset none of this
//! machinery fires and the fitted model is bit-identical to the plain path.

use crate::config::{CatModel, FracConfig, RealModel};
use crate::fault::{FaultPlan, INJECTED_PANIC};
use crate::health::{FallbackKind, RunHealth, TargetHealth, TargetOutcome};
use crate::journal::{self, JournalError, JournalHeader, RunJournal, TargetRecord};
use crate::plan::{TargetPlan, TrainingPlan};
use crate::resources::ResourceReport;
use crate::scoring::ScoringPlan;
use frac_dataset::design::PoolSpec;
use frac_dataset::entropy::column_entropy;
use frac_dataset::quarantine::{self, QuarantineReason, ScreenReport};
use frac_dataset::split::{derive_seed, k_fold, Fold};
use frac_dataset::{Column, Dataset, DesignMatrix, DesignView, EncodedPool, PoolView, RowSubset};
use frac_learn::baseline::{ConstantRegressorTrainer, MajorityClassifierTrainer};
use frac_learn::cv::{cv_classification_folds, cv_regression_folds};
use frac_learn::svc::SvcTrainer;
use frac_learn::svr::SvrTrainer;
use frac_learn::telemetry;
use frac_learn::tree::{ClassificationTreeTrainer, RegressionTreeTrainer};
use frac_learn::{
    Classifier, ClassificationTree, ConfusionErrorModel, ConstantRegressor, GaussianErrorModel,
    LinearSvc, LinearSvr, MajorityClassifier, RegressionTree, Regressor, RunBudget, TargetBudget,
    TrainError, TrainingCost,
};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide fit counter: every [`FracModel::fit`]-family call takes a
/// fresh nonce that scopes the thread-local solver pack cache
/// ([`frac_learn::solver::pack_cache`]), so a design gathered for one fit
/// can never be mistaken for the same-shaped design of a later fit over
/// different data.
static FIT_NONCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Pack-cache scope key for one fitted predictor problem: ensemble members
/// differ by input set (different design columns at identical shapes), so
/// the scope hashes the fit nonce, target, and the exact input list.
fn pack_scope(fit_nonce: u64, target: usize, inputs: &[usize]) -> u64 {
    let mut buf = Vec::with_capacity((2 + inputs.len()) * 8);
    buf.extend_from_slice(&fit_nonce.to_le_bytes());
    buf.extend_from_slice(&(target as u64).to_le_bytes());
    for &i in inputs {
        buf.extend_from_slice(&(i as u64).to_le_bytes());
    }
    frac_dataset::crc::fnv64(&buf)
}

/// The run's encoded pool, and the shared G its all-but-target SVM solves
/// downdate when some SVM family runs fast.
struct RunPool {
    pool: Arc<EncodedPool>,
    gram: Option<FitGram>,
}

/// A fit's shared G and the encoder table of G's columns: every feature of
/// the data set, in pool column order.
struct FitGram {
    gram: Arc<frac_learn::solver::SharedGram>,
    spec: PoolSpec,
}

impl RunPool {
    fn new(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        table: &PoolSpec,
        pool: Arc<EncodedPool>,
    ) -> RunPool {
        use frac_learn::solver::{GramRows, SharedGram};
        let fast = |mode| mode == frac_learn::SolverMode::Fast;
        let fast_svm = matches!(config.real_model, RealModel::Svr(c) if fast(c.mode))
            || matches!(config.cat_model, CatModel::Svc(c) if fast(c.mode));
        let n = train.n_features();
        let reads_all =
            |tp: &TargetPlan| tp.input_sets.iter().any(|s| reads_all_but(s, tp.target, n));
        let gram = (fast_svm && plan.targets.iter().any(reads_all)).then(|| {
            let (rows, spec): (Arc<dyn GramRows>, PoolSpec) =
                if (0..n).all(|j| table.covers(j)) {
                    (pool.clone(), table.clone())
                } else {
                    // A plan whose one all-but-target target no other
                    // target reads (a single-target shard) leaves that
                    // target out of the pool. G still covers it, encoded
                    // with its own encoder, so G has the bits a run of the
                    // whole plan gives.
                    let all: Vec<usize> = (0..n).collect();
                    let spec = PoolSpec::fit(train, &all, config.standardize);
                    let rows = spec.encode_rows(train);
                    telemetry::counter_add(
                        telemetry::Counter::EncodedCells,
                        (rows.n_rows() * rows.n_cols()) as u64,
                    );
                    (Arc::new(rows), spec)
                };
            FitGram { gram: Arc::new(SharedGram::new(rows)), spec }
        });
        RunPool { pool, gram }
    }
}

/// Whether `inputs` is every feature of an `n`-feature data set but
/// `target`, ascending: the input set whose Q is the shared G downdated by
/// the target's columns.
fn reads_all_but(inputs: &[usize], target: usize, n: usize) -> bool {
    inputs.len() + 1 == n && inputs.iter().copied().eq((0..n).filter(|&j| j != target))
}

/// A fitted real-target predictor: a closed enum (rather than a trait
/// object) so models can be persisted and reloaded exactly.
pub(crate) enum RealPredictor {
    Svr(LinearSvr),
    Tree(RegressionTree),
    Constant(ConstantRegressor),
}

impl RealPredictor {
    pub(crate) fn predict(&self, x: &[f64]) -> f64 {
        match self {
            RealPredictor::Svr(m) => m.predict(x),
            RealPredictor::Tree(m) => m.predict(x),
            RealPredictor::Constant(m) => m.predict(x),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            RealPredictor::Svr(m) => m.approx_bytes(),
            RealPredictor::Tree(m) => m.approx_bytes(),
            RealPredictor::Constant(m) => m.approx_bytes(),
        }
    }
}

/// A fitted categorical-target predictor (closed enum, see
/// [`RealPredictor`]).
pub(crate) enum CatPredictor {
    Tree(ClassificationTree),
    Svc(LinearSvc),
    Majority(MajorityClassifier),
}

impl CatPredictor {
    pub(crate) fn predict(&self, x: &[f64]) -> u32 {
        match self {
            CatPredictor::Tree(m) => m.predict(x),
            CatPredictor::Svc(m) => m.predict(x),
            CatPredictor::Majority(m) => m.predict(x),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            CatPredictor::Tree(m) => m.approx_bytes(),
            CatPredictor::Svc(m) => m.approx_bytes(),
            CatPredictor::Majority(m) => m.approx_bytes(),
        }
    }
}

/// A fitted predictor for one target feature.
pub(crate) enum PredictorModel {
    Real(RealPredictor),
    Cat(CatPredictor),
}

impl PredictorModel {
    fn approx_bytes(&self) -> usize {
        match self {
            PredictorModel::Real(m) => m.approx_bytes(),
            PredictorModel::Cat(m) => m.approx_bytes(),
        }
    }
}

/// The error model paired with a predictor.
pub(crate) enum ErrorModel {
    Gaussian(GaussianErrorModel),
    Confusion(ConfusionErrorModel),
}

impl ErrorModel {
    fn approx_bytes(&self) -> usize {
        match self {
            ErrorModel::Gaussian(m) => m.approx_bytes(),
            ErrorModel::Confusion(m) => m.approx_bytes(),
        }
    }
}

/// The input features of one stored predictor, in design-column order,
/// as features of an encoder table (a [`PoolSpec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Inputs {
    /// Every table feature but the predictor's target, ascending — what a
    /// full plan's predictors read.
    AllButTarget,
    /// Exactly these features.
    List(Vec<u32>),
}

impl Inputs {
    /// The input features over `table` of a predictor of `target`, in
    /// design-column order.
    pub(crate) fn features<'a>(
        &'a self,
        table: &'a PoolSpec,
        target: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let (n_table, list): (usize, &[u32]) = match self {
            Inputs::AllButTarget => (table.n_features(), &[]),
            Inputs::List(list) => (0, list),
        };
        (0..n_table)
            .filter(move |&j| j != target && table.covers(j))
            .chain(list.iter().map(|&j| j as usize))
    }
}

/// Whether `list` is every feature of `table` but `target`, ascending —
/// the expansion of [`Inputs::AllButTarget`].
pub(crate) fn is_all_but_target(list: &[u32], table: &PoolSpec, target: usize) -> bool {
    let mut all = Inputs::AllButTarget.features(table, target);
    list.iter().all(|&j| all.next() == Some(j as usize)) && all.next().is_none()
}

/// One (inputs, predictor, error model) triple — a `p_ij` of the NS
/// formula. The inputs' encoders live once, in the model's table.
pub(crate) struct FeaturePredictor {
    pub(crate) inputs: Inputs,
    pub(crate) model: PredictorModel,
    pub(crate) error: ErrorModel,
}

/// Everything fitted for one target feature.
pub(crate) struct FeatureModel {
    pub(crate) target: usize,
    pub(crate) entropy: f64,
    /// Cross-validated predictive strength in `[0, 1]`: R²-like for real
    /// targets, holdout accuracy for categorical ones.
    pub(crate) strength: f64,
    pub(crate) predictors: Vec<FeaturePredictor>,
}

/// A complete fitted FRaC model.
pub struct FracModel {
    pub(crate) features: Vec<FeatureModel>,
    /// The encoder table: the encoders of exactly the features some stored
    /// predictor reads, each stored once.
    pub(crate) table: PoolSpec,
    /// The compiled scoring plan, built on first use (the serving daemon
    /// builds it before a model goes live). Never built by a fit or a save.
    pub(crate) plan: OnceLock<Result<ScoringPlan, String>>,
    /// Targets the training plan asked for; when some were dropped, NS
    /// scores are renormalized by `planned / survived` so score magnitudes
    /// stay comparable across degraded and healthy runs.
    pub(crate) planned_targets: usize,
    /// Worker restart counts per shard when the model came out of a sharded
    /// run (`frac train --shards N`); empty for single-process fits. Carried
    /// through persistence so `frac score` can report the run's provenance.
    pub(crate) shard_restarts: Vec<usize>,
}

/// Per-target output of the parallel fit loop. `feature` is `None` when the
/// target was dropped (quarantined all-missing, or every member fit failed).
struct TargetFit {
    feature: Option<FeatureModel>,
    health: Vec<TargetHealth>,
    flops: u64,
    transient: u64,
    model_bytes: u64,
    n_models: u64,
    duals: Vec<(usize, PredictorDuals)>,
    /// Whether any fit attempt for this target tripped the run's
    /// wall-clock budget. A budget-degraded result is honest (baseline
    /// substituted, recorded in health) but *provisional*: it is never
    /// journaled, so a later resume with more time refits it properly.
    deadline_hit: bool,
}

/// Per-feature NS contributions for a scored test set.
///
/// `values[c][r]` is the contribution of target feature `feature_ids[c]` to
/// test row `r`'s NS score; the row's NS is the sum over columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ContributionMatrix {
    /// Target feature index (into the scored data set) per column.
    pub feature_ids: Vec<usize>,
    /// `values[column][row]` contribution.
    pub values: Vec<Vec<f64>>,
    /// Number of scored rows.
    pub n_rows: usize,
    /// NS renormalization factor: `planned / survived` targets when the
    /// fitted model dropped targets, exactly `1.0` otherwise. Applied by
    /// [`ContributionMatrix::ns_scores`], never to per-feature values.
    pub renorm: f64,
}

impl ContributionMatrix {
    /// NS score per row: the sum of all feature contributions, scaled by
    /// [`ContributionMatrix::renorm`] when targets were dropped (the sum
    /// over fewer surviving targets is stretched back to the planned
    /// magnitude). A factor of exactly `1.0` applies no arithmetic, keeping
    /// the healthy path bit-identical.
    pub fn ns_scores(&self) -> Vec<f64> {
        ns_from_columns(self.values.iter().map(Vec::as_slice), self.n_rows, self.renorm)
    }
}

/// Row sums of per-feature contribution columns, in feature order from
/// `0.0`, then scaled by `renorm` unless it is exactly `1.0`.
fn ns_from_columns<'a>(cols: impl Iterator<Item = &'a [f64]>, n_rows: usize, renorm: f64) -> Vec<f64> {
    let mut ns = vec![0.0f64; n_rows];
    for col in cols {
        for (acc, v) in ns.iter_mut().zip(col) {
            *acc += v;
        }
    }
    if renorm != 1.0 {
        for v in &mut ns {
            *v *= renorm;
        }
    }
    ns
}

/// The final-fit dual variables of one SVM predictor, indexed by
/// present-row position for its target. Trainers without a dual
/// formulation (trees, baselines) never produce one.
pub(crate) enum PredictorDuals {
    /// SVR duals: one `β` per training row.
    Real(Vec<f64>),
    /// SVC duals: one `α` vector per one-vs-rest class.
    Cat(Vec<Vec<f64>>),
}

impl PredictorDuals {
    fn approx_bytes(&self) -> usize {
        match self {
            PredictorDuals::Real(b) => std::mem::size_of_val(b.as_slice()),
            PredictorDuals::Cat(a) => {
                a.iter().map(|v| std::mem::size_of_val(v.as_slice())).sum()
            }
        }
    }
}

/// Warm-start duals carried across repeated fits of the same targets —
/// ensemble members and partial-filter replicates re-solve near-identical
/// problems, so each member's solves seed from the previous member's
/// solution instead of zero.
///
/// Keys are `(target feature id, input-set index)`; duals live in row space
/// (present rows of the target), so they stay valid even when the member's
/// *input* set changes (Diverse FRaC) — the solver clamps them into its
/// feasible box and they only move the starting point, never the fixed
/// point. Reuse requires the members to share the training dataset and
/// feature ids; variants that re-index features per member (full filtering)
/// or re-project the data (JL) must not share a cache.
#[derive(Default)]
pub struct DualCache {
    entries: std::collections::BTreeMap<(usize, usize), PredictorDuals>,
}

impl DualCache {
    fn get(&self, target: usize, member: usize) -> Option<&PredictorDuals> {
        self.entries.get(&(target, member))
    }

    fn insert(&mut self, target: usize, member: usize, duals: PredictorDuals) {
        self.entries.insert((target, member), duals);
    }

    /// Number of cached dual vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty (no prior member has run).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate resident bytes of all cached duals.
    pub fn approx_bytes(&self) -> usize {
        self.entries.values().map(|d| d.approx_bytes()).sum()
    }
}

/// Kernel tier bitmask for the run's `kernel_tier` telemetry counter
/// (decoded by [`frac_dataset::kernels::describe_mask`]). Each SVM family
/// contributes the tier its solves actually use — a strict family pins the
/// exact sequential kernels, a fast one rides the dispatched blocked tier
/// — so a mixed config (strict SVR + fast SVC) records both bits instead
/// of mislabeling the fast solves as sequential-strict. A config with no
/// SVM family records the dispatched tier alone: that is what any blocked
/// kernel the fit touches would resolve to, and it keeps bench snapshots
/// comparable across machines.
fn kernel_tier_code(config: &FracConfig) -> u64 {
    let family_bit = |mode: frac_learn::SolverMode| {
        if mode == frac_learn::SolverMode::Strict {
            frac_dataset::kernels::SEQUENTIAL_STRICT_CODE
        } else {
            frac_dataset::kernels::active_tier().code()
        }
    };
    let mut mask = 0;
    if let RealModel::Svr(c) = config.real_model {
        mask |= family_bit(c.mode);
    }
    if let CatModel::Svc(c) = config.cat_model {
        mask |= family_bit(c.mode);
    }
    if mask == 0 {
        mask = frac_dataset::kernels::active_tier().code();
    }
    mask
}

/// Restrict the run-wide fold plan to one target's present rows.
///
/// The shared plan partitions global row indices; a target trains only on
/// rows where it is present, as *positions* into its `RowSubset`. When
/// nothing is missing the positions coincide with the rows and the plan is
/// reused as-is. Otherwise each fold is filtered to present rows; in the
/// pathological case where filtering empties some fold's training side (a
/// feature missing in almost every row), we fall back to a per-target
/// k-fold over the present rows so no holdout is ever predicted by an
/// untrained model.
fn folds_for_present(
    shared: &[Fold],
    present: &[usize],
    n_rows: usize,
    k: usize,
    member_seed: u64,
) -> Vec<Fold> {
    if present.len() == n_rows {
        return shared.to_vec();
    }
    let mut pos = vec![usize::MAX; n_rows];
    for (p, &r) in present.iter().enumerate() {
        pos[r] = p;
    }
    let restrict = |rows: &[usize]| -> Vec<usize> {
        rows.iter().map(|&r| pos[r]).filter(|&p| p != usize::MAX).collect()
    };
    let restricted: Vec<Fold> = shared
        .iter()
        .map(|f| Fold { train: restrict(&f.train), holdout: restrict(&f.holdout) })
        .collect();
    if restricted.iter().any(|f| f.train.is_empty() && !f.holdout.is_empty()) {
        return k_fold(present.len(), k, derive_seed(member_seed, 1));
    }
    restricted
}

/// One successfully fitted ensemble member: the predictor with its
/// cross-validated strength, training cost, and (for SVM families) the
/// final-fit duals for [`DualCache`] reuse.
type MemberFit = (FeaturePredictor, f64, TrainingCost, Option<PredictorDuals>);

/// Fit a single predictor + error model; returns it with its training cost
/// and (for SVM families) the final-fit duals for [`DualCache`] reuse.
/// Degenerate problems and non-converged (non-finite) solves come back as
/// [`TrainError`] instead of panicking or poisoning the model.
///
/// With `pool` (the run's `table`, encoded), the per-target design matrix
/// is a zero-copy view over the shared encoded pool. Without it, the
/// legacy owned path encodes a fresh matrix for this predictor alone from
/// the spec [`PoolSpec::spec_for`] assembles out of `table` (identical
/// encoders — one table serves both paths).
#[allow(clippy::too_many_arguments)]
fn fit_predictor(
    train: &Dataset,
    target: usize,
    inputs: &[usize],
    config: &FracConfig,
    member_seed: u64,
    fit_nonce: u64,
    table: &PoolSpec,
    pool: Option<&RunPool>,
    shared_folds: &[Fold],
    init_duals: Option<&PredictorDuals>,
    budget: &TargetBudget,
) -> Result<MemberFit, TrainError> {
    // Train only on rows where the target is present.
    let rows = 0..train.n_rows();
    let (present, svm): (Vec<usize>, bool) = match train.column(target) {
        Column::Real(values) => (
            rows.filter(|&r| !values[r].is_nan()).collect(),
            matches!(config.real_model, RealModel::Svr(_)),
        ),
        Column::Categorical { codes, .. } => (
            rows.filter(|&r| codes[r] != frac_dataset::dataset::MISSING_CODE).collect(),
            matches!(config.cat_model, CatModel::Svc(_)),
        ),
    };
    // An SVM target that reads every other feature hands its scope the
    // fit's shared G, its own columns in G and its present rows; the
    // solver decides per solve whether to downdate G.
    let downdate = pool
        .and_then(|p| p.gram.as_ref())
        .filter(|_| svm && reads_all_but(inputs, target, train.n_features()))
        .map(|g| frac_learn::solver::pack_cache::Downdate {
            gram: Arc::clone(&g.gram),
            cols: g.spec.col_range(target),
            present: present.clone(),
        });
    // Scope the thread-local solver pack cache to this exact predictor
    // problem: the CV drivers and final fits below then declare their train
    // rows per slot, letting repeated gathers of the same (rows, columns)
    // design be reused, and every other Gram solve gather its Q from the
    // scope's one Q. The scope closes when this function returns.
    let _scope = frac_learn::solver::pack_cache::begin_scope(
        pack_scope(fit_nonce, target, inputs),
        downdate,
    );
    let owned: DesignMatrix;
    let pooled: PoolView<'_>;
    let x_all: &dyn DesignView = match pool {
        Some(p) => {
            pooled = p.pool.view(inputs);
            &pooled
        }
        None => {
            owned = table.spec_for(inputs).encode(train);
            &owned
        }
    };
    // Stored inputs are table features; a table is at most u32::MAX wide
    // (FORMATS.md §3).
    let stored = || Inputs::List(inputs.iter().map(|&j| j as u32).collect());
    // Per-target design bytes beyond shared storage: the whole encoded
    // matrix on the legacy path, only view bookkeeping on the pooled path
    // (the pool itself is charged once, in the run's ResourceReport).
    let design_bytes = match pool {
        Some(_) => x_all.view_overhead_bytes() as u64,
        None => (x_all.n_rows() * x_all.n_cols() * std::mem::size_of::<f64>()) as u64,
    };

    match train.column(target) {
        Column::Real(values) => {
            let x = RowSubset::new(x_all, &present);
            let y: Vec<f64> = present.iter().map(|&r| values[r]).collect();
            let folds = folds_for_present(
                shared_folds,
                &present,
                train.n_rows(),
                config.cv_folds,
                member_seed,
            );
            // A cached dual vector is usable only if it matches this
            // target's present-row count (same dataset ⇒ always true).
            let init = match init_duals {
                Some(PredictorDuals::Real(d)) if d.len() == present.len() => {
                    Some(d.as_slice())
                }
                _ => None,
            };

            let (model, fit_cost, error, strength, cv_cost, duals) =
                (match &config.real_model {
                    RealModel::Svr(cfg) => {
                        let mut cfg = *cfg;
                        cfg.seed = derive_seed(member_seed, 2);
                        run_real(
                            &SvrTrainer::new(cfg),
                            RealPredictor::Svr,
                            &x,
                            &y,
                            &folds,
                            init,
                            budget,
                        )
                    }
                    RealModel::Tree(cfg) => run_real(
                        &RegressionTreeTrainer::new(*cfg),
                        RealPredictor::Tree,
                        &x,
                        &y,
                        &folds,
                        init,
                        budget,
                    ),
                    RealModel::Constant => run_real(
                        &ConstantRegressorTrainer,
                        RealPredictor::Constant,
                        &x,
                        &y,
                        &folds,
                        init,
                        budget,
                    ),
                })?;
            let total = TrainingCost {
                flops: cv_cost.flops + fit_cost.flops,
                peak_bytes: cv_cost
                    .peak_bytes
                    .max(fit_cost.peak_bytes)
                    .max(design_bytes + x.view_overhead_bytes() as u64),
            };
            Ok((
                FeaturePredictor {
                    inputs: stored(),
                    model: PredictorModel::Real(model),
                    error: ErrorModel::Gaussian(error),
                },
                strength,
                total,
                duals.map(PredictorDuals::Real),
            ))
        }
        Column::Categorical { arity, codes } => {
            let x = RowSubset::new(x_all, &present);
            let y: Vec<u32> = present.iter().map(|&r| codes[r]).collect();
            let folds = folds_for_present(
                shared_folds,
                &present,
                train.n_rows(),
                config.cv_folds,
                member_seed,
            );
            let init = match init_duals {
                Some(PredictorDuals::Cat(d))
                    if d.len() == *arity as usize
                        && d.iter().all(|v| v.len() == present.len()) =>
                {
                    Some(d.as_slice())
                }
                _ => None,
            };

            let (model, fit_cost, error, strength, cv_cost, duals) =
                (match &config.cat_model {
                    // One tree trainer per target problem: its CV folds and
                    // final fit share one count of the root's tables.
                    CatModel::Tree(cfg) => run_cat(
                        &ClassificationTreeTrainer::new(*cfg).for_problem(&x, &y, *arity),
                        CatPredictor::Tree,
                        &x,
                        &y,
                        *arity,
                        &folds,
                        init,
                        budget,
                    ),
                    CatModel::Svc(cfg) => {
                        let mut cfg = *cfg;
                        cfg.seed = derive_seed(member_seed, 2);
                        run_cat(
                            &SvcTrainer::new(cfg),
                            CatPredictor::Svc,
                            &x,
                            &y,
                            *arity,
                            &folds,
                            init,
                            budget,
                        )
                    }
                    CatModel::Majority => run_cat(
                        &MajorityClassifierTrainer,
                        CatPredictor::Majority,
                        &x,
                        &y,
                        *arity,
                        &folds,
                        init,
                        budget,
                    ),
                })?;
            let total = TrainingCost {
                flops: cv_cost.flops + fit_cost.flops,
                peak_bytes: cv_cost
                    .peak_bytes
                    .max(fit_cost.peak_bytes)
                    .max(design_bytes + x.view_overhead_bytes() as u64),
            };
            Ok((
                FeaturePredictor {
                    inputs: stored(),
                    model: PredictorModel::Cat(model),
                    error: ErrorModel::Confusion(error),
                },
                strength,
                total,
                duals.map(PredictorDuals::Cat),
            ))
        }
    }
}

/// Cross-validate + final-fit one real-target trainer, wrapping its model
/// into the closed [`RealPredictor`] enum. Duals thread fold → fold → final
/// fit (see [`cv_regression_folds`]); the final fit's duals are returned
/// for cross-member reuse.
#[allow(clippy::type_complexity)]
#[allow(clippy::too_many_arguments)]
fn run_real<T: frac_learn::RegressorTrainer>(
    trainer: &T,
    wrap: impl Fn(T::Model) -> RealPredictor,
    x: &dyn DesignView,
    y: &[f64],
    folds: &[Fold],
    init_duals: Option<&[f64]>,
    budget: &TargetBudget,
) -> Result<
    (RealPredictor, TrainingCost, GaussianErrorModel, f64, TrainingCost, Option<Vec<f64>>),
    TrainError,
> {
    // A fold that trips the budget, fails validation or diverges fails the
    // whole attempt, with or without a deadline: the ladder takes it.
    let (oof, cv_cost, cv_duals) = cv_regression_folds(trainer, x, y, folds, init_duals, budget)?;
    let error_span = telemetry::span(telemetry::Stage::ErrorModel);
    let pairs: Vec<(f64, f64)> = y.iter().copied().zip(oof.iter().copied()).collect();
    let error = GaussianErrorModel::fit(&pairs);
    let strength = r2_strength(y, &oof);
    drop(error_span);
    let _final_span = telemetry::span(telemetry::Stage::FinalTrain);
    // Slot 0 of the pack-cache scope is the final fit over every present
    // row (the CV folds took slots 1.. and their rows are subsets of it, so
    // a Gram final fit finds its Q already computed); a repeat fit of the
    // same problem (strict-ladder siblings, members sharing an input set)
    // reuses the gather.
    let all_rows: Vec<usize> = (0..x.n_rows()).collect();
    frac_learn::solver::pack_cache::set_rows(0, &all_rows);
    let final_fit = trainer.fit(x, y, cv_duals.as_deref(), budget);
    frac_learn::solver::pack_cache::clear_rows();
    let (trained, final_duals) = final_fit?;
    Ok((wrap(trained.model), trained.cost, error, strength, cv_cost, final_duals))
}

/// Cross-validate + final-fit one categorical-target trainer, wrapping its
/// model into the closed [`CatPredictor`] enum; see [`run_real`].
#[allow(clippy::type_complexity)]
#[allow(clippy::too_many_arguments)]
fn run_cat<T: frac_learn::ClassifierTrainer>(
    trainer: &T,
    wrap: impl Fn(T::Model) -> CatPredictor,
    x: &dyn DesignView,
    y: &[u32],
    arity: u32,
    folds: &[Fold],
    init_duals: Option<&[Vec<f64>]>,
    budget: &TargetBudget,
) -> Result<
    (CatPredictor, TrainingCost, ConfusionErrorModel, f64, TrainingCost, Option<Vec<Vec<f64>>>),
    TrainError,
> {
    let (oof, cv_cost, cv_duals) =
        cv_classification_folds(trainer, x, y, arity, folds, init_duals, budget)?;
    let error_span = telemetry::span(telemetry::Stage::ErrorModel);
    let pairs: Vec<(u32, u32)> = y.iter().copied().zip(oof.iter().copied()).collect();
    let error = ConfusionErrorModel::fit(&pairs, arity);
    let strength = accuracy_strength(y, &oof);
    drop(error_span);
    let _final_span = telemetry::span(telemetry::Stage::FinalTrain);
    let all_rows: Vec<usize> = (0..x.n_rows()).collect();
    frac_learn::solver::pack_cache::set_rows(0, &all_rows);
    let final_fit = trainer.fit(x, y, arity, cv_duals.as_deref(), budget);
    frac_learn::solver::pack_cache::clear_rows();
    let (trained, final_duals) = final_fit?;
    Ok((wrap(trained.model), trained.cost, error, strength, cv_cost, final_duals))
}

/// R²-like strength: 1 − MSE/Var, clamped to `[0, 1]`.
fn r2_strength(y: &[f64], pred: &[f64]) -> f64 {
    if y.len() < 2 {
        return 0.0;
    }
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let var: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    if var <= 0.0 {
        return 0.0;
    }
    let mse: f64 = y
        .iter()
        .zip(pred)
        .map(|(t, p)| if !p.is_finite() { (t - mean) * (t - mean) } else { (t - p) * (t - p) })
        .sum();
    (1.0 - mse / var).clamp(0.0, 1.0)
}

/// Holdout accuracy.
fn accuracy_strength(y: &[u32], pred: &[u32]) -> f64 {
    if y.is_empty() {
        return 0.0;
    }
    y.iter().zip(pred).filter(|(t, p)| t == p).count() as f64 / y.len() as f64
}

/// Injected failure mode for one member fit, resolved from a [`FaultPlan`].
#[derive(Clone, Copy)]
enum MemberFault {
    None,
    Diverge,
    Panic,
}

/// How one guarded fit attempt failed.
enum AttemptFailure {
    Train(TrainError),
    Panic(String),
}

impl std::fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttemptFailure::Train(e) => write!(f, "{e}"),
            AttemptFailure::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Best-effort string form of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One guarded fit attempt: panics unwind only to here, and injected panics
/// fire *inside* the guard so they take the exact path a real trainer panic
/// would.
#[allow(clippy::too_many_arguments)]
fn guarded_attempt(
    inject_panic: bool,
    train: &Dataset,
    target: usize,
    inputs: &[usize],
    config: &FracConfig,
    member_seed: u64,
    fit_nonce: u64,
    table: &PoolSpec,
    pool: Option<&RunPool>,
    shared_folds: &[Fold],
    init: Option<&PredictorDuals>,
    budget: &TargetBudget,
) -> Result<MemberFit, AttemptFailure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("{}", INJECTED_PANIC);
        }
        fit_predictor(
            train, target, inputs, config, member_seed, fit_nonce, table, pool, shared_folds, init,
            budget,
        )
    }));
    match outcome {
        Ok(Ok(fit)) => Ok(fit),
        Ok(Err(e)) => Err(AttemptFailure::Train(e)),
        Err(payload) => Err(AttemptFailure::Panic(panic_message(payload))),
    }
}

/// Whether a failed attempt was cut short by the run's wall-clock budget
/// (as opposed to a numerical or data problem).
fn is_deadline(f: &AttemptFailure) -> bool {
    matches!(f, AttemptFailure::Train(TrainError::DeadlineExceeded))
}

/// Whether an attempt ran the full CV + final training (for model-count
/// accounting): successes did, and so did non-converged solves — they burn
/// the training budget before their output is rejected as non-finite.
fn attempt_ran_training(result: &Result<MemberFit, AttemptFailure>) -> bool {
    matches!(
        result,
        Ok(_) | Err(AttemptFailure::Train(TrainError::NonConvergence { .. }))
    )
}

/// Fit one ensemble member behind the fallback ladder:
/// configured model → strict solver (retryable failures only) → baseline
/// predictor → member dropped. Fallbacks are recorded in `events`; `Err`
/// carries the final failure when even the baseline cannot fit. Also
/// returns how many attempts actually ran training, and whether any
/// attempt was cut short by the wall-clock budget (the baseline rescue
/// rung always runs unbudgeted — substituting a constant/majority model is
/// cheaper than checking the clock, and it is exactly what a run out of
/// time needs to finish accounting for every target).
#[allow(clippy::too_many_arguments)]
fn fit_member(
    train: &Dataset,
    target: usize,
    member: usize,
    inputs: &[usize],
    config: &FracConfig,
    member_seed: u64,
    fit_nonce: u64,
    table: &PoolSpec,
    pool: Option<&RunPool>,
    shared_folds: &[Fold],
    init: Option<&PredictorDuals>,
    budget: &TargetBudget,
    fault: MemberFault,
    events: &mut Vec<TargetHealth>,
) -> (Result<MemberFit, String>, u64, bool) {
    let mut attempts_trained = 0u64;
    let mut deadline_hit = false;
    let first = match fault {
        MemberFault::Panic => guarded_attempt(
            true, train, target, inputs, config, member_seed, fit_nonce, table, pool,
            shared_folds, init, budget,
        ),
        MemberFault::Diverge => {
            Err(AttemptFailure::Train(TrainError::NonConvergence { epochs: 0 }))
        }
        MemberFault::None => guarded_attempt(
            false, train, target, inputs, config, member_seed, fit_nonce, table, pool,
            shared_folds, init, budget,
        ),
    };
    if !matches!(fault, MemberFault::Diverge) && attempt_ran_training(&first) {
        attempts_trained += 1;
    }
    let failure = match first {
        Ok(fit) => return (Ok(fit), attempts_trained, false),
        Err(f) => f,
    };
    deadline_hit |= is_deadline(&failure);

    // A non-converged fast solve gets one shot on the strict reference
    // solver before we give up on the configured model family. A deadline
    // failure is not retryable — retrying on a slower solver with no time
    // left would only burn more of it.
    if matches!(&failure, AttemptFailure::Train(e) if e.is_retryable()) {
        let strict = config.with_solver_mode(frac_learn::SolverMode::Strict);
        let retry = guarded_attempt(
            false, train, target, inputs, &strict, member_seed, fit_nonce, table, pool,
            shared_folds, init, budget,
        );
        if attempt_ran_training(&retry) {
            attempts_trained += 1;
        }
        match retry {
            Ok(fit) => {
                events.push(TargetHealth {
                    target,
                    outcome: TargetOutcome::Degraded {
                        member,
                        fallback: FallbackKind::StrictSolver,
                        detail: failure.to_string(),
                    },
                });
                return (Ok(fit), attempts_trained, deadline_hit);
            }
            Err(f) => deadline_hit |= is_deadline(&f),
        }
    }

    // Last rung: the baseline predictor (constant mean / majority class)
    // keeps the target alive with an honest, if weak, error model.
    let baseline =
        FracConfig { real_model: RealModel::Constant, cat_model: CatModel::Majority, ..*config };
    let rescue = guarded_attempt(
        false,
        train,
        target,
        inputs,
        &baseline,
        member_seed,
        fit_nonce,
        table,
        pool,
        shared_folds,
        None,
        &TargetBudget::unlimited(),
    );
    if attempt_ran_training(&rescue) {
        attempts_trained += 1;
    }
    match rescue {
        Ok(fit) => {
            events.push(TargetHealth {
                target,
                outcome: TargetOutcome::Degraded {
                    member,
                    fallback: FallbackKind::Baseline,
                    detail: failure.to_string(),
                },
            });
            (Ok(fit), attempts_trained, deadline_hit)
        }
        Err(last) => {
            deadline_hit |= is_deadline(&last);
            (
                Err(format!("{failure}; baseline also failed: {last}")),
                attempts_trained,
                deadline_hit,
            )
        }
    }
}

/// Fit everything for one target of the plan: quarantine verdicts, then
/// every ensemble member behind the fallback ladder, under the target's
/// slice of the run budget.
#[allow(clippy::too_many_arguments)]
fn fit_one_target(
    train: &Dataset,
    tp: &TargetPlan,
    config: &FracConfig,
    fit_nonce: u64,
    table: &PoolSpec,
    pool: Option<&RunPool>,
    cache_read: Option<&DualCache>,
    screen: &ScreenReport,
    faults: Option<&FaultPlan>,
    shared_folds: &[Fold],
    budget: &RunBudget,
) -> TargetFit {
    let tbudget = budget.start_target();
    let _target_guard = telemetry::target_guard(tp.target);
    let mut health: Vec<TargetHealth> = Vec::new();
    // Quarantine verdicts first: an all-missing target is dropped before
    // any entropy or solver work; a degenerate (constant / single-class)
    // target skips the solver and takes the baseline predictor; a
    // sanitized target trains normally on what remains.
    let mut effective = *config;
    match screen.reason_for(tp.target) {
        Some(QuarantineReason::AllMissing) => {
            health.push(TargetHealth {
                target: tp.target,
                outcome: TargetOutcome::Dropped {
                    reason: QuarantineReason::AllMissing.to_string(),
                },
            });
            return TargetFit {
                feature: None,
                health,
                flops: 0,
                transient: 0,
                model_bytes: 0,
                n_models: 0,
                duals: Vec::new(),
                deadline_hit: false,
            };
        }
        Some(reason) if reason.degrades_target() => {
            health.push(TargetHealth {
                target: tp.target,
                outcome: TargetOutcome::Quarantined { reason },
            });
            effective = FracConfig {
                real_model: RealModel::Constant,
                cat_model: CatModel::Majority,
                ..*config
            };
        }
        Some(QuarantineReason::NonFinite { cells }) => {
            health.push(TargetHealth {
                target: tp.target,
                outcome: TargetOutcome::Sanitized { cells },
            });
        }
        _ => {}
    }
    let config = &effective;
    let entropy_span = telemetry::span(telemetry::Stage::Entropy);
    let entropy = column_entropy(train.column(tp.target));
    drop(entropy_span);
    let mut predictors = Vec::with_capacity(tp.input_sets.len());
    let mut flops = 0u64;
    let mut transient = 0u64;
    let mut model_bytes = 0u64;
    let mut n_models = 0u64;
    let mut strength_acc = 0.0f64;
    let mut deadline_hit = false;
    let mut duals_out: Vec<(usize, PredictorDuals)> = Vec::new();
    for (m, inputs) in tp.input_sets.iter().enumerate() {
        let member_seed = derive_seed(config.seed, (tp.target as u64) << 20 | m as u64);
        let init = cache_read.and_then(|c| c.get(tp.target, m));
        let fault = match faults {
            Some(f) if f.forces_panic(tp.target) => MemberFault::Panic,
            Some(f) if f.forces_diverge(tp.target) => MemberFault::Diverge,
            _ => MemberFault::None,
        };
        let (fit, attempts, member_deadline) = fit_member(
            train,
            tp.target,
            m,
            inputs,
            config,
            member_seed,
            fit_nonce,
            table,
            pool,
            shared_folds,
            init,
            &tbudget,
            fault,
            &mut health,
        );
        deadline_hit |= member_deadline;
        n_models += attempts * (config.cv_folds.max(1) + 1) as u64;
        match fit {
            Ok((fp, strength, cost, duals)) => {
                flops += cost.flops;
                transient = transient.max(cost.peak_bytes);
                // Inputs are priced as `usize` indices, the cost model
                // behind `model_bytes` and Table III's Mem%.
                model_bytes += (fp.model.approx_bytes()
                    + fp.error.approx_bytes()
                    + std::mem::size_of_val(inputs.as_slice()))
                    as u64;
                strength_acc += strength;
                predictors.push(fp);
                if let Some(d) = duals {
                    duals_out.push((m, d));
                }
            }
            Err(detail) => {
                health.push(TargetHealth {
                    target: tp.target,
                    outcome: TargetOutcome::MemberDropped { member: m, detail },
                });
            }
        }
    }
    if predictors.is_empty() && !tp.input_sets.is_empty() {
        health.push(TargetHealth {
            target: tp.target,
            outcome: TargetOutcome::Dropped {
                reason: format!("all {} ensemble member fit(s) failed", tp.input_sets.len()),
            },
        });
        return TargetFit {
            feature: None,
            health,
            flops,
            transient,
            model_bytes,
            n_models,
            duals: Vec::new(),
            deadline_hit,
        };
    }
    let strength = strength_acc / predictors.len().max(1) as f64;
    TargetFit {
        feature: Some(FeatureModel { target: tp.target, entropy, strength, predictors }),
        health,
        flops,
        transient,
        model_bytes,
        n_models,
        duals: duals_out,
        deadline_hit,
    }
}

/// Give a fitted model its encoder table — `run_table` restricted to the
/// features its predictors read — and each predictor its canonical inputs
/// over that table, so a fit, a resume and a shard merge of the same
/// predictors hold (and save) the same model. Predictors arrive with
/// inputs over `run_table`.
pub(crate) fn assemble(
    run_table: &PoolSpec,
    mut features: Vec<FeatureModel>,
) -> (PoolSpec, Vec<FeatureModel>) {
    let mut read = vec![false; run_table.n_features()];
    for fm in &features {
        for fp in &fm.predictors {
            for j in fp.inputs.features(run_table, fm.target) {
                read[j] = true;
            }
        }
    }
    let table = run_table.restricted(|j| read[j]);
    // A list becomes the marker when it is all the model's table but its
    // target. A marker stays one: the restricted table still holds every
    // feature it read, and at most its target besides.
    for fm in &mut features {
        for fp in &mut fm.predictors {
            if matches!(&fp.inputs, Inputs::List(list) if is_all_but_target(list, &table, fm.target)) {
                fp.inputs = Inputs::AllButTarget;
            }
        }
    }
    (table, features)
}

/// Rehydrate a journaled record into the fit loop's per-target slot.
/// Reloaded targets carry no warm-start duals (not journaled) and were by
/// construction not deadline-degraded (those are never journaled).
fn record_to_fit(rec: TargetRecord) -> TargetFit {
    let health = journal::record_health(&rec);
    TargetFit {
        feature: rec.feature,
        health,
        flops: rec.flops,
        transient: rec.transient,
        model_bytes: rec.model_bytes,
        n_models: rec.n_models,
        duals: Vec::new(),
        deadline_hit: false,
    }
}

/// A training set as the fit loop sees it — screened, and sanitized when it
/// carries ±Inf cells — with the encoder table of every feature its plan
/// reads: the run's pool, which a journal stores and a resume or a shard
/// merge checks before trusting a record.
pub(crate) struct PreparedRun<'a> {
    screen: ScreenReport,
    sanitized: Option<Dataset>,
    original: &'a Dataset,
    table: PoolSpec,
}

impl PreparedRun<'_> {
    fn train(&self) -> &Dataset {
        self.sanitized.as_ref().unwrap_or(self.original)
    }

    /// The run's encoder table.
    pub(crate) fn table(&self) -> &PoolSpec {
        &self.table
    }
}

/// Every feature some input set of `plan` reads, ascending.
pub(crate) fn plan_features(plan: &TrainingPlan, n_features: usize) -> Vec<usize> {
    let mut used = vec![false; n_features];
    for tp in &plan.targets {
        for inputs in &tp.input_sets {
            for &j in inputs {
                used[j] = true;
            }
        }
    }
    (0..n_features).filter(|&j| used[j]).collect()
}

/// Outcome of a journaled (crash-safe) fit: the model and report, plus how
/// much of the run was recovered from the journal instead of refitted.
pub struct JournaledFit {
    /// The fitted model, identical to an uninterrupted run's.
    pub model: FracModel,
    /// Resource and health accounting over the *whole* run — journaled
    /// targets contribute the counters recorded when they originally
    /// fitted, so flops/model bytes are cumulative across crashes.
    pub report: ResourceReport,
    /// Targets reloaded from the journal rather than refitted.
    pub resumed: usize,
    /// Whether any journal append failed mid-run (the model is still
    /// complete; only checkpoint durability was lost).
    pub journal_broken: bool,
}

impl FracModel {
    /// Execute a training plan over `train`.
    ///
    /// Every feature used as an input anywhere in the plan is encoded once
    /// into a shared [`EncodedPool`]; per-target design matrices are served
    /// as zero-copy views over it. Returns the fitted model plus a
    /// [`ResourceReport`] whose flops sum over every CV-fold and final
    /// training, whose `model_bytes` cover all retained predictor/error-model
    /// state, whose `pool_bytes` charge the shared pool once, and whose
    /// `transient_bytes` is the worst single-predictor working set.
    pub fn fit(train: &Dataset, plan: &TrainingPlan, config: &FracConfig) -> (FracModel, ResourceReport) {
        Self::fit_pooled(train, plan, config, None, None, &RunBudget::unlimited())
    }

    /// [`FracModel::fit`] with a [`DualCache`] carried across calls:
    /// repeated fits of the same targets on the same training set (ensemble
    /// members, partial-filter replicates) warm-start every SVM solve from
    /// the previous call's duals. The cache is read before the run and
    /// updated with this run's final duals afterwards.
    pub fn fit_cached(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        cache: &mut DualCache,
    ) -> (FracModel, ResourceReport) {
        Self::fit_pooled(train, plan, config, Some(cache), None, &RunBudget::unlimited())
    }

    /// [`FracModel::fit`] under a deterministic [`FaultPlan`]: forced
    /// non-convergence and forced panics fire at the plan's targets, so the
    /// fault-injection suite can exercise the fallback ladder end to end.
    /// (Cell poisoning is applied by the caller via [`FaultPlan::poison`]
    /// before fitting.) An empty plan is exactly [`FracModel::fit`].
    pub fn fit_with_faults(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        faults: &FaultPlan,
    ) -> (FracModel, ResourceReport) {
        Self::fit_pooled(train, plan, config, None, Some(faults), &RunBudget::unlimited())
    }

    /// [`FracModel::fit`] under a wall-clock / cancellation [`RunBudget`].
    ///
    /// Solvers and tree growers poll the budget cooperatively (once per
    /// coordinate-descent epoch / every few node expansions). When a
    /// target's slice of the budget expires mid-fit, the attempt fails
    /// with [`TrainError::DeadlineExceeded`] and the fallback ladder
    /// substitutes the (unbudgeted, effectively free) baseline predictor,
    /// recording a `Degraded` health event — so the run still returns a
    /// scored model that accounts for every planned target, within one
    /// budget-check interval of the deadline. With
    /// [`RunBudget::unlimited`] this is exactly [`FracModel::fit`],
    /// bit for bit.
    pub fn fit_budgeted(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        budget: &RunBudget,
    ) -> (FracModel, ResourceReport) {
        Self::fit_pooled(train, plan, config, None, None, budget)
    }

    /// Crash-safe fit: like [`FracModel::fit_budgeted`], but every
    /// completed target is appended to a write-ahead journal at
    /// `journal_path` (created if absent, resumed if present) before the
    /// run moves on. If the process dies at *any* byte of the run, calling
    /// this again with the same data, plan, and config reloads the
    /// completed targets and fits only the rest — and the assembled model
    /// is bit-identical (in [`frac_learn::SolverMode::Strict`] mode) to an
    /// uninterrupted run, because per-target results depend only on
    /// `(data, config)`, never on schedule or solve history.
    ///
    /// Budget-degraded targets are deliberately *not* journaled, so a
    /// resume with more time refits them properly.
    ///
    /// Errors only on journal problems the caller must decide about: a
    /// journal written by a different run ([`JournalError::Mismatch`] —
    /// its hashes, or its encoder table, differ from this run's), a file
    /// that is not a journal, or I/O failure opening it. Append
    /// failures mid-run do not abort the fit; they surface as
    /// [`JournaledFit::journal_broken`].
    pub fn fit_journaled(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        budget: &RunBudget,
        journal_path: impl AsRef<std::path::Path>,
    ) -> Result<JournaledFit, JournalError> {
        let header = JournalHeader {
            config_hash: config.content_hash(),
            dataset_fingerprint: train.fingerprint(),
            plan_hash: plan.content_hash(),
            planned: plan.targets.len(),
        };
        let run = Self::prepare(train, plan, config);
        let (journal, records) = RunJournal::open_or_create(journal_path, &header, run.table())?;
        let resumed = records.len();
        let (model, report) =
            Self::fit_prepared(&run, plan, config, None, None, budget, Some(&journal), records);
        Ok(JournaledFit { model, report, resumed, journal_broken: journal.is_broken() })
    }

    /// Resume a crashed journaled run. Identical to
    /// [`FracModel::fit_journaled`] except that a *missing* journal is an
    /// error — resuming implies there is something to resume; silently
    /// starting a fresh multi-hour run from a typo'd path is not helpful.
    pub fn resume(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        budget: &RunBudget,
        journal_path: impl AsRef<std::path::Path>,
    ) -> Result<JournaledFit, JournalError> {
        let path = journal_path.as_ref();
        if !path.exists() {
            return Err(JournalError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no journal at {} to resume from", path.display()),
            )));
        }
        Self::fit_journaled(train, plan, config, budget, path)
    }

    fn fit_pooled(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        cache: Option<&mut DualCache>,
        faults: Option<&FaultPlan>,
        budget: &RunBudget,
    ) -> (FracModel, ResourceReport) {
        let run = Self::prepare(train, plan, config);
        Self::fit_prepared(&run, plan, config, cache, faults, budget, None, Vec::new())
    }

    /// Screen `train` and fit the encoders of every feature `plan` reads.
    pub(crate) fn prepare<'a>(
        train: &'a Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
    ) -> PreparedRun<'a> {
        // Screen before anything reaches an encoder or solver; when the
        // data carries no ±Inf poison, `sanitize` returns `None` and the
        // original dataset flows through untouched (bit-identical path).
        let quarantine_span = telemetry::span(telemetry::Stage::Quarantine);
        let screen = quarantine::screen(train);
        let sanitized = if screen.needs_sanitize() { quarantine::sanitize(train) } else { None };
        drop(quarantine_span);
        let _encode_span = telemetry::span(telemetry::Stage::Encode);
        let fit_on = sanitized.as_ref().unwrap_or(train);
        let features = plan_features(plan, fit_on.n_features());
        let table = PoolSpec::fit(fit_on, &features, config.standardize);
        PreparedRun { screen, sanitized, original: train, table }
    }

    // `pub(crate)` for the shard supervisor: merging per-shard journals is
    // a pooled fit of the full plan with every record preloaded — the same
    // assembly path a single-process resume takes, which is what makes the
    // merge bit-identical by construction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fit_prepared(
        run: &PreparedRun<'_>,
        plan: &TrainingPlan,
        config: &FracConfig,
        cache: Option<&mut DualCache>,
        faults: Option<&FaultPlan>,
        budget: &RunBudget,
        journal: Option<&RunJournal>,
        preloaded: Vec<TargetRecord>,
    ) -> (FracModel, ResourceReport) {
        let train = run.train();
        let encode_span = telemetry::span(telemetry::Stage::Encode);
        let pool = run.table.encode(train);
        telemetry::counter_add(telemetry::Counter::EncodedCells, pool.n_cells() as u64);
        let pool = RunPool::new(train, plan, config, &run.table, Arc::new(pool));
        drop(encode_span);
        Self::fit_inner(
            train,
            plan,
            config,
            &run.table,
            Some(&pool),
            cache,
            &run.screen,
            faults,
            budget,
            journal,
            preloaded,
        )
    }

    /// Legacy fit path: every predictor encodes its own design matrix
    /// (`O(f² · n)` encode work on a full plan) from the spec
    /// [`PoolSpec::spec_for`] assembles out of the run's table. Kept as an
    /// oracle: its owned matrices expose no categorical blocks, so its
    /// trees take the gather scan where the pooled fit uses per-code count
    /// tables. Produces bit-identical models because both paths share one
    /// encoder table and both split searches choose identical splits.
    pub fn fit_unpooled(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
    ) -> (FracModel, ResourceReport) {
        let run = Self::prepare(train, plan, config);
        Self::fit_inner(
            run.train(),
            plan,
            config,
            &run.table,
            None,
            None,
            &run.screen,
            None,
            &RunBudget::unlimited(),
            None,
            Vec::new(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn fit_inner(
        train: &Dataset,
        plan: &TrainingPlan,
        config: &FracConfig,
        table: &PoolSpec,
        pool: Option<&RunPool>,
        cache: Option<&mut DualCache>,
        screen: &ScreenReport,
        faults: Option<&FaultPlan>,
        budget: &RunBudget,
        journal: Option<&RunJournal>,
        preloaded: Vec<TargetRecord>,
    ) -> (FracModel, ResourceReport) {
        let t0 = Instant::now();
        let fit_nonce = FIT_NONCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        telemetry::counter_add(telemetry::Counter::KernelTier, kernel_tier_code(config));
        // One k-fold plan for the whole run: the shuffle is derived once
        // from the master seed, and each target restricts it to its present
        // rows instead of re-deriving a per-target partition.
        let shared_folds =
            k_fold(train.n_rows(), config.cv_folds, derive_seed(config.seed, 0xF01D));
        let cache_read: Option<&DualCache> = cache.as_deref();

        // Slot per planned target, in plan order. Journal records fill
        // their slots up front (first record wins on a duplicate); the
        // parallel loop fits only the empty ones. Because per-member seeds
        // derive from (config.seed, target, member), a model assembled
        // from a mix of reloaded and freshly fitted targets is
        // bit-identical to one fitted in a single uninterrupted run.
        let mut slots: Vec<Option<TargetFit>> = Vec::new();
        slots.resize_with(plan.targets.len(), || None);
        if !preloaded.is_empty() {
            let mut by_target = std::collections::BTreeMap::new();
            for rec in preloaded {
                by_target.entry(rec.target).or_insert(rec);
            }
            for (i, tp) in plan.targets.iter().enumerate() {
                if let Some(rec) = by_target.remove(&tp.target) {
                    slots[i] = Some(record_to_fit(rec));
                }
            }
        }
        let todo: Vec<usize> =
            (0..plan.targets.len()).filter(|&i| slots[i].is_none()).collect();
        let fit_index = |i: usize, tx: Option<&std::sync::mpsc::Sender<Vec<u8>>>| {
            let tp = &plan.targets[i];
            let tf = fit_one_target(
                train,
                tp,
                config,
                fit_nonce,
                table,
                pool,
                cache_read,
                screen,
                faults,
                &shared_folds,
                budget,
            );
            if let Some(tx) = tx {
                if !tf.deadline_hit {
                    // Serialize here (cheap), but leave framing, checksum,
                    // write, and fsync to the journal's writer thread so
                    // disk latency never stalls a solver thread. A send to
                    // a finished writer only happens if the writer died,
                    // which already marked the journal broken.
                    let _append_target = telemetry::target_guard(tp.target);
                    let _append_span = telemetry::span(telemetry::Stage::JournalAppend);
                    let body = journal::record_body(
                        &journal::RecordParts {
                            target: tp.target,
                            feature: tf.feature.as_ref(),
                            outcomes: tf.health.iter().map(|e| &e.outcome).collect(),
                            flops: tf.flops,
                            transient: tf.transient,
                            model_bytes: tf.model_bytes,
                            n_models: tf.n_models,
                        },
                        table,
                    );
                    telemetry::counter_add(
                        telemetry::Counter::JournalBytes,
                        body.len() as u64,
                    );
                    let _ = tx.send(body);
                }
            }
            (i, tf)
        };
        let fitted: Vec<(usize, TargetFit)> = match journal {
            None => todo.par_iter().map(|&i| fit_index(i, None)).collect(),
            Some(j) => std::thread::scope(|s| {
                let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
                let writer = s.spawn(move || j.write_loop(rx));
                let fitted =
                    todo.par_iter().map(|&i| fit_index(i, Some(&tx))).collect();
                // Joining the writer before returning makes every record
                // handed over above durable by the time the fit completes;
                // a crash before this point loses only the in-flight tail,
                // which resume treats as any other torn record.
                drop(tx);
                let _ = writer.join();
                fitted
            }),
        };
        for (i, tf) in fitted {
            slots[i] = Some(tf);
        }

        let mut report = ResourceReport {
            dataset_bytes: train.approx_bytes() as u64,
            pool_bytes: pool.map_or(0, |p| p.pool.approx_bytes() as u64),
            // The shared G is built once per fit, so its cost is the fit's,
            // not a target's: a journaled target's counters then do not
            // depend on which target happened to build it.
            flops: pool.and_then(|p| p.gram.as_ref()).map_or(0, |g| g.gram.build_flops()),
            ..ResourceReport::default()
        };
        let mut health = RunHealth {
            targets_planned: plan.targets.len(),
            targets_survived: 0,
            sanitized_cells: screen.n_nonfinite_cells,
            events: Vec::new(),
        };
        let mut features = Vec::with_capacity(slots.len());
        let mut cache = cache;
        for tf in slots.into_iter().flatten() {
            report.flops += tf.flops;
            report.transient_bytes = report.transient_bytes.max(tf.transient);
            report.model_bytes += tf.model_bytes;
            report.models_trained += tf.n_models;
            health.events.extend(tf.health);
            if let Some(feature) = tf.feature {
                if let Some(cache) = cache.as_deref_mut() {
                    for (m, d) in tf.duals {
                        cache.insert(feature.target, m, d);
                    }
                }
                health.targets_survived += 1;
                features.push(feature);
            }
        }
        report.health = health;
        let (table, features) = assemble(table, features);
        report.wall = t0.elapsed();
        (
            FracModel {
                features,
                table,
                plan: OnceLock::new(),
                planned_targets: plan.targets.len(),
                shard_restarts: Vec::new(),
            },
            report,
        )
    }

    /// Number of target features with fitted models (survivors).
    pub fn n_targets(&self) -> usize {
        self.features.len()
    }

    /// Targets the training plan asked for, including dropped ones.
    pub fn planned_targets(&self) -> usize {
        self.planned_targets
    }

    /// Worker restart counts per shard for a model trained with
    /// `--shards N` (index = shard, value = restarts); empty for
    /// single-process fits.
    pub fn shard_restarts(&self) -> &[usize] {
        &self.shard_restarts
    }

    /// NS renormalization factor `planned / survived`, exactly `1.0` when
    /// every planned target survived (or when nothing survived — an empty
    /// sum cannot be rescaled into meaning).
    pub fn ns_renorm_factor(&self) -> f64 {
        let survived = self.features.len();
        if survived > 0 && survived < self.planned_targets {
            self.planned_targets as f64 / survived as f64
        } else {
            1.0
        }
    }

    /// Cross-validated strength of one target's model, `0.0` when the
    /// target has no fitted model — a quarantined or dropped target must
    /// answer harmlessly, not panic a strengths lookup.
    pub fn strength_for(&self, target: usize) -> f64 {
        self.features.iter().find(|f| f.target == target).map_or(0.0, |f| f.strength)
    }

    /// `(target feature, cross-validated predictive strength)` pairs, the
    /// basis of the paper's "most predictive gene/SNP models" analyses.
    pub fn feature_strengths(&self) -> Vec<(usize, f64)> {
        self.features.iter().map(|f| (f.target, f.strength)).collect()
    }

    /// The model compiled for scoring, built on the first call and cached
    /// (see [`ScoringPlan`]). Errors when the model's parts disagree in a
    /// way that would otherwise panic mid-score; the serving daemon calls
    /// this before a model goes live so no request pays for the compile.
    pub fn scoring_plan(&self) -> Result<&ScoringPlan, String> {
        self.plan
            .get_or_init(|| ScoringPlan::compile(&self.table, &self.features))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Score a test set, returning per-feature NS contributions.
    ///
    /// `test` must share the training schema. Missing test values contribute
    /// zero, per the NS definition. The test set is encoded once into the
    /// [`ScoringPlan`]'s pool layout and every predictor reads its pool
    /// columns directly.
    ///
    /// # Panics
    /// Panics if the model cannot be compiled ([`FracModel::scoring_plan`]).
    pub fn contributions(&self, test: &Dataset) -> ContributionMatrix {
        let flat = self.contributions_flat(test);
        let n_rows = test.n_rows();
        let values = if n_rows == 0 {
            vec![Vec::new(); self.features.len()]
        } else {
            flat.chunks_exact(n_rows).map(<[f64]>::to_vec).collect()
        };
        ContributionMatrix {
            feature_ids: self.features.iter().map(|f| f.target).collect(),
            values,
            n_rows,
            renorm: self.ns_renorm_factor(),
        }
    }

    /// Feature-major contributions through the scoring plan.
    fn contributions_flat(&self, test: &Dataset) -> Vec<f64> {
        // Poisoned (±Inf) test cells become missing — they contribute zero
        // surprisal instead of a non-finite NS; clean data is untouched.
        let sanitized = quarantine::sanitize(test);
        let test = sanitized.as_ref().unwrap_or(test);
        match self.scoring_plan() {
            Ok(plan) => plan.contributions(&self.table, &self.features, test),
            Err(e) => panic!("model cannot be scored: {e}"),
        }
    }

    /// Reference scoring path: every predictor encodes the test set from
    /// its own spec, assembled from the model's table by
    /// [`PoolSpec::spec_for`], and predicts through its model's `predict`.
    /// Kept as the oracle the [`ScoringPlan`] is tested against, bit for
    /// bit.
    pub fn contributions_unpooled(&self, test: &Dataset) -> ContributionMatrix {
        let sanitized = quarantine::sanitize(test);
        let test = sanitized.as_ref().unwrap_or(test);
        let n_rows = test.n_rows();
        let values: Vec<Vec<f64>> = self
            .features
            .par_iter()
            .map(|fm| {
                let mut col = vec![0.0f64; n_rows];
                for fp in &fm.predictors {
                    let inputs: Vec<usize> = fp.inputs.features(&self.table, fm.target).collect();
                    let x = self.table.spec_for(&inputs).encode(test);
                    match (&fp.model, &fp.error, test.column(fm.target)) {
                        (
                            PredictorModel::Real(model),
                            ErrorModel::Gaussian(err),
                            Column::Real(truth),
                        ) => {
                            for r in 0..n_rows {
                                let t = truth[r];
                                if !t.is_nan() {
                                    col[r] += err.surprisal(t, model.predict(x.row(r))) - fm.entropy;
                                }
                            }
                        }
                        (
                            PredictorModel::Cat(model),
                            ErrorModel::Confusion(err),
                            Column::Categorical { codes, .. },
                        ) => {
                            for r in 0..n_rows {
                                let t = codes[r];
                                if t != frac_dataset::dataset::MISSING_CODE {
                                    col[r] += err.surprisal(t, model.predict(x.row(r))) - fm.entropy;
                                }
                            }
                        }
                        _ => unreachable!(
                            "model/error/column kinds are constructed consistently"
                        ),
                    }
                }
                col
            })
            .collect();
        ContributionMatrix {
            feature_ids: self.features.iter().map(|f| f.target).collect(),
            values,
            n_rows,
            renorm: self.ns_renorm_factor(),
        }
    }

    /// NS anomaly score per test row (sum of all feature contributions).
    pub fn score(&self, test: &Dataset) -> Vec<f64> {
        let flat = self.contributions_flat(test);
        let n_rows = test.n_rows();
        ns_from_columns(flat.chunks_exact(n_rows.max(1)), n_rows, self.ns_renorm_factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::dataset::{DatasetBuilder, MISSING_CODE};
    use frac_synth::{ExpressionConfig, ExpressionGenerator};

    fn expr_data(n_normal: usize, n_anomaly: usize) -> (Dataset, Vec<bool>) {
        ExpressionGenerator::new(ExpressionConfig {
            n_features: 24,
            n_modules: 4,
            relevant_fraction: 0.9,
            anomaly_modules: 2,
            anomaly_shift: 3.0,
            noise_sd: 0.5,
            structure_seed: 77,
            ..ExpressionConfig::default()
        })
        .generate(n_normal, n_anomaly, 7)
    }

    #[test]
    fn anomalies_score_higher_than_normals() {
        let (data, labels) = expr_data(40, 8);
        let normal_rows: Vec<usize> =
            (0..30).filter(|&r| !labels[r]).collect();
        let train = data.select_rows(&normal_rows);
        let test_rows: Vec<usize> = (30..48).collect();
        let test = data.select_rows(&test_rows);

        let plan = TrainingPlan::full(train.n_features());
        let (model, report) = FracModel::fit(&train, &plan, &FracConfig::default());
        let ns = model.score(&test);

        let mean = |rows: Vec<usize>| -> f64 {
            let v: Vec<f64> = rows.iter().map(|&i| ns[i]).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let normal_mean = mean(
            (0..test_rows.len()).filter(|&i| !labels[test_rows[i]]).collect(),
        );
        let anomaly_mean = mean(
            (0..test_rows.len()).filter(|&i| labels[test_rows[i]]).collect(),
        );
        assert!(
            anomaly_mean > normal_mean,
            "anomalies must be more surprising: {anomaly_mean} vs {normal_mean}"
        );
        assert!(report.models_trained > 0);
        assert!(report.flops > 0);
        assert!(report.model_bytes > 0);
    }

    #[test]
    fn contributions_sum_to_scores() {
        let (data, _) = expr_data(20, 4);
        let train = data.select_rows(&(0..16).collect::<Vec<_>>());
        let test = data.select_rows(&(16..24).collect::<Vec<_>>());
        let plan = TrainingPlan::full(train.n_features());
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        let contrib = model.contributions(&test);
        let ns = model.score(&test);
        for r in 0..test.n_rows() {
            let sum: f64 = contrib.values.iter().map(|c| c[r]).sum();
            assert!((sum - ns[r]).abs() < 1e-9);
        }
        assert_eq!(contrib.feature_ids.len(), train.n_features());
    }

    #[test]
    fn deterministic_across_runs() {
        let (data, _) = expr_data(20, 4);
        let train = data.select_rows(&(0..16).collect::<Vec<_>>());
        let test = data.select_rows(&(16..24).collect::<Vec<_>>());
        let plan = TrainingPlan::full(train.n_features());
        let cfg = FracConfig::default();
        let (m1, _) = FracModel::fit(&train, &plan, &cfg);
        let (m2, _) = FracModel::fit(&train, &plan, &cfg);
        assert_eq!(m1.score(&test), m2.score(&test));
    }

    #[test]
    fn missing_test_values_contribute_zero() {
        let train = DatasetBuilder::new()
            .real("a", (0..20).map(|i| i as f64).collect())
            .real("b", (0..20).map(|i| 2.0 * i as f64).collect())
            .build();
        let plan = TrainingPlan::full(2);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        let test_full = DatasetBuilder::new()
            .real("a", vec![5.0])
            .real("b", vec![10.0])
            .build();
        let test_missing = DatasetBuilder::new()
            .real("a", vec![f64::NAN])
            .real("b", vec![10.0])
            .build();
        let c_full = model.contributions(&test_full);
        let c_miss = model.contributions(&test_missing);
        // Feature a's contribution vanishes when a is missing.
        assert_ne!(c_full.values[0][0], 0.0);
        assert_eq!(c_miss.values[0][0], 0.0);
    }

    #[test]
    fn categorical_targets_use_confusion_models() {
        // Deterministic relationship between two ternary SNPs.
        let codes: Vec<u32> = (0..30).map(|i| (i % 3) as u32).collect();
        let train = DatasetBuilder::new()
            .categorical("s1", 3, codes.clone())
            .categorical("s2", 3, codes.clone())
            .build();
        let plan = TrainingPlan::full(2);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::snp());
        // Consistent row scores low; violated relationship scores high.
        let consistent = DatasetBuilder::new()
            .categorical("s1", 3, vec![1])
            .categorical("s2", 3, vec![1])
            .build();
        let violated = DatasetBuilder::new()
            .categorical("s1", 3, vec![1])
            .categorical("s2", 3, vec![2])
            .build();
        let ns_ok = model.score(&consistent)[0];
        let ns_bad = model.score(&violated)[0];
        assert!(ns_bad > ns_ok, "violation must surprise: {ns_bad} vs {ns_ok}");
    }

    #[test]
    fn missing_training_targets_are_dropped_not_crashing() {
        let train = DatasetBuilder::new()
            .real("a", vec![1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0])
            .categorical("b", 3, vec![0, 1, 2, MISSING_CODE, 1, 0])
            .build();
        let plan = TrainingPlan::full(2);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        assert_eq!(model.n_targets(), 2);
        let ns = model.score(&train);
        assert!(ns.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn strengths_reflect_learnability() {
        // Feature pair (a,b) perfectly linearly related; c is pure noise.
        let a: Vec<f64> = (0..30).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        let c: Vec<f64> = (0..30)
            .map(|i| ((i * 2654435761usize) % 97) as f64 / 97.0)
            .collect();
        let train = DatasetBuilder::new()
            .real("a", a)
            .real("b", b)
            .real("c", c)
            .build();
        let plan = TrainingPlan::full(3);
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        let get = |t: usize| model.strength_for(t);
        assert!(get(0) > 0.8, "a is perfectly predictable: {}", get(0));
        assert!(get(2) < 0.5, "c is noise: {}", get(2));
        // A target with no fitted model answers 0.0 instead of panicking.
        assert_eq!(model.strength_for(99), 0.0);
    }

    #[test]
    fn empty_input_set_learns_a_constant() {
        let train = DatasetBuilder::new()
            .real("a", vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .build();
        let plan = TrainingPlan {
            targets: vec![crate::plan::TargetPlan { target: 0, input_sets: vec![vec![]] }],
        };
        let (model, _) = FracModel::fit(&train, &plan, &FracConfig::default());
        let ns = model.score(&train);
        assert!(ns.iter().all(|s| s.is_finite()));
    }
}
