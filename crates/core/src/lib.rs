//! # frac-core
//!
//! The FRaC anomaly detector and its scalable variants (Cousins, Pietras,
//! Slonim — *Scalable FRaC Variants: Anomaly Detection for Precision
//! Medicine*, IPPS 2017).
//!
//! FRaC (Feature Regression and Classification) trains, for every feature of
//! a data set, a supervised model predicting that feature from (a subset of)
//! the others, plus a cross-validated *error model* of its prediction errors.
//! A test sample's anomaly score is its **normalized surprisal**:
//!
//! ```text
//!   NS(x) = Σ_i Σ_j [ −log P(x_i | p_ij(x_{−i})) − H(f_i) ]
//! ```
//!
//! summed over features `i` and predictors `j`, with missing features
//! contributing zero. High NS = the sample's features are collectively
//! improbable given each other = anomalous.
//!
//! The crate implements the original algorithm and every scalable variant of
//! the paper's §II:
//!
//! | Variant | Paper | Entry point |
//! |---|---|---|
//! | full FRaC | §I-A-1 | [`Variant::Full`] |
//! | full filtering (random/entropy) | §II-A | [`Variant::FullFilter`] |
//! | partial filtering | §II-A | [`Variant::PartialFilter`] |
//! | Diverse FRaC | §II-B | [`Variant::Diverse`] |
//! | ensembles (per-feature median) | §II-C | [`Variant::Ensemble`] |
//! | JL pre-projection | §II-D | [`Variant::JlProject`] |
//! | CSAX characterization | ref. 7 (context) | [`csax::characterize`] |
//!
//! Everything is driven through [`run_variant`], which returns NS scores for
//! a test set together with a deterministic [`ResourceReport`] (model count,
//! flops, peak bytes, wall time) — the raw material for the paper's time and
//! memory columns. Per-feature training is rayon-parallel with per-feature
//! seeds, so results are bit-identical at any thread count.

#![deny(missing_docs)]
// Fault isolation is a core guarantee of this crate: library code must
// degrade per target, never panic on an Option/Result shortcut. Test code
// is exempt — asserting via unwrap is exactly what tests are for.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod csax;
pub mod fault;
pub mod health;
pub mod journal;
pub mod model;
pub mod persist;
pub mod plan;
pub mod resources;
pub mod scoring;
pub mod selector;
pub mod serve;
pub mod shard;
pub mod variants;

pub use config::{CatModel, FracConfig, RealModel};
pub use frac_learn::telemetry;
pub use frac_learn::solver::describe_strategy_mask;
pub use frac_learn::{CancelHandle, RunBudget, SolverMode, SolverStrategy, TargetBudget};
pub use csax::{characterize, CsaxConfig, GeneSet, SampleCharacterization};
pub use fault::FaultPlan;
pub use health::{FallbackKind, RunHealth, TargetHealth, TargetOutcome};
pub use journal::{JournalError, JournalHeader, JournalScan, RunJournal, TargetRecord};
pub use model::{ContributionMatrix, DualCache, FracModel, JournaledFit};
pub use plan::{TargetPlan, TrainingPlan};
pub use resources::ResourceReport;
pub use scoring::ScoringPlan;
pub use selector::FeatureSelector;
pub use serve::{validate_model, ServeConfig, ServeCounts, ServeHandle, ServeSummary, Server};
pub use shard::{ShardError, ShardEvent, ShardOptions, ShardRun, ShardStat};
pub use variants::{run_variant, Variant, VariantOutcome};
