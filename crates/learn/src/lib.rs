//! # frac-learn
//!
//! Supervised-learning substrate for FRaC (Cousins, Pietras, Slonim — IPPS
//! 2017). The paper trains, per feature, either a **linear support vector
//! machine** (continuous expression features, originally via libSVM) or an
//! **entropy-minimizing decision tree** (categorical SNP features, originally
//! via the Waffles toolkit), and estimates prediction-error distributions
//! with **error models** built from k-fold cross-validation.
//!
//! This crate reimplements all of that from scratch:
//!
//! * [`svr`] — L2-regularized ε-insensitive linear support vector regression
//!   solved by dual coordinate descent (the liblinear algorithm, exact for
//!   the linear kernel the paper uses).
//! * [`svc`] — linear C-SVM classification (dual coordinate descent,
//!   one-vs-rest for multi-class).
//! * [`tree`] — CART-style decision trees: entropy-minimizing classification
//!   trees and variance-minimizing regression trees.
//! * [`error`] — the paper's error models: a Gaussian fit to continuous
//!   residuals and a Laplace-smoothed confusion matrix for categorical
//!   predictions, each exposing the surprisal `−log P(true | predicted)`.
//! * [`cv`] — k-fold cross-validated predictions used to fit error models
//!   without leaking training data.
//! * [`baseline`] — constant-mean / majority-class predictors used when a
//!   feature subset is empty and as sanity baselines.
//! * [`budget`] — cooperative wall-clock/cancellation budgets polled inside
//!   the solver loops, so a stuck target degrades instead of hanging a run.
//! * [`telemetry`] — hierarchical span tracing and counters for run
//!   forensics: where each target's fit spent its time, drained into a
//!   [`telemetry::TelemetryReport`].
//!
//! Every trainer returns the fitted model together with a [`TrainingCost`]
//! so the evaluation harness can reproduce the paper's time/memory columns
//! analytically.

#![deny(missing_docs)]
// Trainers feed the fault-isolated fit fleet in frac-core: library code
// must surface failures as `TrainError`, never panic on an Option/Result
// shortcut. Test code is exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baseline;
pub mod budget;
pub mod cv;
pub mod error;
pub mod fault;
pub mod solver;
pub mod svc;
pub mod svr;
pub mod telemetry;
pub mod traits;
pub mod tree;

pub use baseline::{ConstantRegressor, MajorityClassifier};
pub use budget::{CancelHandle, RunBudget, TargetBudget};
pub use error::{ConfusionErrorModel, GaussianErrorModel};
pub use fault::TrainError;
pub use solver::{GramPolicy, SolverMode, SolverStrategy};
pub use svc::{LinearSvc, SvcConfig};
pub use svr::{LinearSvr, SvrConfig};
pub use telemetry::{TelemetryReport, TelemetrySession};
pub use traits::{
    Classifier, ClassifierTrainer, Regressor, RegressorTrainer, Trained, TrainingCost,
};
pub use tree::{ClassificationTree, RegressionTree, TreeConfig};
