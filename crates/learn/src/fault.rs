//! Fallible training: the error taxonomy of the fault-isolated fleet.
//!
//! FRaC aggregates hundreds of independent per-feature models, so one
//! degenerate training problem must never take down the whole run. Every
//! trainer has one training method ([`crate::RegressorTrainer::fit`] and
//! the classifier analogue) that validates its inputs with the checks
//! below, polls its budget and inspects its output, returning a
//! [`TrainError`] instead of panicking or silently emitting a poisoned
//! model. The cross-validation drivers pass the first fold error through,
//! so a failing fold fails the whole fit attempt. The caller (frac-core's
//! per-target fit loop) reacts with a fallback ladder: retry the strict
//! solver, substitute the baseline predictor, or drop the target.

use frac_dataset::DesignView;

/// Why one model training could not produce a usable model.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The design matrix is unusable (e.g. mismatched row/target counts).
    DegenerateDesign {
        /// What is wrong with the design.
        detail: String,
    },
    /// A target or design value is NaN/±Inf where a finite number is
    /// required (the caller is expected to drop or sanitize such rows).
    NonFiniteData {
        /// Which input carried the non-finite value.
        what: &'static str,
    },
    /// The solver exhausted its epoch budget without producing a finite
    /// model (diverged duals/weights), or non-convergence was injected by a
    /// fault plan.
    NonConvergence {
        /// Epochs consumed before giving up.
        epochs: u64,
    },
    /// The requested problem size would overflow allocation arithmetic.
    AllocOverflow {
        /// Requested rows.
        rows: usize,
        /// Requested columns.
        cols: usize,
    },
    /// The run's wall-clock budget expired or the run was cancelled (see
    /// [`crate::budget::TargetBudget::check`]). Not retryable: a strict
    /// re-solve would only burn more of the budget that is already gone,
    /// so the fallback ladder jumps straight to the baseline predictor.
    DeadlineExceeded,
}

/// Stable marker substring of [`TrainError::DeadlineExceeded`]'s `Display`
/// output; health accounting matches on it to count deadline-degraded
/// targets without re-parsing event details structurally.
pub const DEADLINE_MARKER: &str = "wall-clock budget exceeded";

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::DegenerateDesign { detail } => {
                write!(f, "degenerate design: {detail}")
            }
            TrainError::NonFiniteData { what } => {
                write!(f, "non-finite value in {what}")
            }
            TrainError::NonConvergence { epochs } => {
                write!(f, "no finite solution after {epochs} epochs")
            }
            TrainError::AllocOverflow { rows, cols } => {
                write!(f, "allocation overflow for {rows}×{cols} problem")
            }
            TrainError::DeadlineExceeded => {
                write!(f, "{DEADLINE_MARKER} (run cancelled or deadline passed)")
            }
        }
    }
}

impl std::error::Error for TrainError {}

impl TrainError {
    /// Whether retrying with the strict solver path could plausibly help
    /// (only non-convergence is a property of the solve, not of the data).
    pub fn is_retryable(&self) -> bool {
        matches!(self, TrainError::NonConvergence { .. })
    }
}

/// Validate the shared preconditions of every trainer: row/target agreement,
/// allocation-size sanity, and finite real targets.
pub fn check_regression_problem(x: &dyn DesignView, y: &[f64]) -> Result<(), TrainError> {
    check_shape(x, y.len())?;
    if y.iter().any(|v| !v.is_finite()) {
        return Err(TrainError::NonFiniteData { what: "regression targets" });
    }
    Ok(())
}

/// Validate the shared preconditions of classifier trainers. Class codes are
/// integers, so only shape and allocation sanity apply.
pub fn check_classification_problem(x: &dyn DesignView, y: &[u32]) -> Result<(), TrainError> {
    check_shape(x, y.len())
}

fn check_shape(x: &dyn DesignView, n_targets: usize) -> Result<(), TrainError> {
    let (rows, cols) = (x.n_rows(), x.n_cols());
    if rows != n_targets {
        return Err(TrainError::DegenerateDesign {
            detail: format!("{rows} design rows for {n_targets} targets"),
        });
    }
    // A dense copy of this problem (solver scratch is O(rows + cols)) must
    // be addressable; `checked_mul` guards the 32-bit and pathological cases.
    let cells = rows.checked_mul(cols).and_then(|c| c.checked_mul(std::mem::size_of::<f64>()));
    if cells.is_none() || cells.unwrap_or(usize::MAX) > isize::MAX as usize {
        return Err(TrainError::AllocOverflow { rows, cols });
    }
    Ok(())
}

/// Whether every value of a fitted weight vector is finite — a diverged
/// coordinate-descent solve shows up as NaN/Inf weights.
pub fn all_finite<'a>(values: impl IntoIterator<Item = &'a f64>) -> bool {
    values.into_iter().all(|v| v.is_finite())
}

/// Reject a diverged SVM fit — any NaN/Inf weight or bias among its
/// `(weights, bias)` hyperplanes — as [`TrainError::NonConvergence`] after
/// `max_epochs`.
pub(crate) fn check_converged<'a>(
    max_epochs: usize,
    hyperplanes: impl IntoIterator<Item = (&'a [f64], f64)>,
) -> Result<(), TrainError> {
    if hyperplanes.into_iter().all(|(w, b)| all_finite(w) && b.is_finite()) {
        Ok(())
    } else {
        Err(TrainError::NonConvergence { epochs: max_epochs as u64 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frac_dataset::DesignMatrix;

    #[test]
    fn clean_problem_passes() {
        let x = DesignMatrix::from_raw(2, 2, vec![1.0; 4]);
        assert!(check_regression_problem(&x, &[0.0, 1.0]).is_ok());
        assert!(check_classification_problem(&x, &[0, 1]).is_ok());
    }

    #[test]
    fn shape_mismatch_is_degenerate() {
        let x = DesignMatrix::from_raw(2, 2, vec![1.0; 4]);
        assert!(matches!(
            check_regression_problem(&x, &[0.0]),
            Err(TrainError::DegenerateDesign { .. })
        ));
    }

    #[test]
    fn non_finite_targets_rejected() {
        let x = DesignMatrix::from_raw(2, 1, vec![1.0, 2.0]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                check_regression_problem(&x, &[0.0, bad]),
                Err(TrainError::NonFiniteData { what: "regression targets" })
            );
        }
    }

    #[test]
    fn retryability_and_display() {
        assert!(TrainError::NonConvergence { epochs: 9 }.is_retryable());
        assert!(!TrainError::NonFiniteData { what: "x" }.is_retryable());
        assert!(!TrainError::DeadlineExceeded.is_retryable());
        let msg = TrainError::AllocOverflow { rows: 1, cols: 2 }.to_string();
        assert!(msg.contains("1×2"), "{msg}");
        assert!(TrainError::DeadlineExceeded.to_string().contains(DEADLINE_MARKER));
    }

    #[test]
    fn all_finite_detects_poison() {
        assert!(all_finite(&[1.0, -2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
