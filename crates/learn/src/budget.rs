//! Cooperative cancellation and wall-clock budgets for training runs.
//!
//! A FRaC run fits hundreds of per-target models; a single pathological
//! solve must not hold the whole fleet past its wall-clock budget, and an
//! operator must be able to cancel a run without killing the process. Both
//! needs are served by one cooperative mechanism: a [`RunBudget`] is created
//! at the run's entry point, a per-target [`TargetBudget`] is derived as each
//! target starts, and the solver inner loops call [`TargetBudget::check`]
//! every few passes. A tripped budget surfaces as
//! [`TrainError::DeadlineExceeded`] — non-retryable, so the per-target
//! fallback ladder skips the strict retry and substitutes the baseline
//! predictor, keeping partial runs scoreable.
//!
//! Every trainer call takes a budget; there is no separate unbudgeted
//! path. The unlimited budget is the common case and is free: every field
//! is `None`, so [`TargetBudget::check`] performs no clock read and no
//! atomic load, and a budget that never trips moves no bit of a model — a
//! budget only decides *whether* a fit finishes, never *what* it computes.
//! A deadline too far out for the clock to represent is no deadline: it
//! never trips.

use crate::fault::TrainError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock and cancellation budget for one whole run.
///
/// Combines an optional absolute run deadline and an optional external
/// cancel flag. Cloning is cheap; the cancel flag is shared.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl RunBudget {
    /// A budget that never trips. [`TargetBudget::check`] on a target derived
    /// from it is a no-op (no clock read, no atomic load).
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Budget bounded by a run deadline `dur` from now. A `dur` that
    /// overflows the clock sets no deadline: such a budget never trips and
    /// [`Self::remaining`] returns `None`.
    pub fn with_deadline(dur: Duration) -> Self {
        RunBudget { deadline: Instant::now().checked_add(dur), cancel: None }
    }

    /// Attach a cancel flag, returning the handle that trips it. Any number
    /// of targets derived from this budget observe the same flag.
    pub fn cancellable(mut self) -> (Self, CancelHandle) {
        let flag = Arc::new(AtomicBool::new(false));
        self.cancel = Some(Arc::clone(&flag));
        (self, CancelHandle { flag })
    }

    /// Wall-clock time left until the run deadline; `None` when the budget
    /// has no deadline. Saturates at zero once the deadline has passed.
    ///
    /// A multi-process supervisor uses this to hand each spawned worker the
    /// *remaining* run budget: `Instant` deadlines don't cross process
    /// boundaries, but a duration re-anchored at the worker's startup does.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the run as a whole can make no further progress: the deadline
    /// has already passed or the run was cancelled.
    pub fn is_expired(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// Derive the budget for one target: the run deadline plus the shared
    /// cancel flag.
    pub fn start_target(&self) -> TargetBudget {
        TargetBudget { deadline: self.deadline, cancel: self.cancel.clone() }
    }
}

/// Budget for one target's fit, derived by [`RunBudget::start_target`].
///
/// Solver loops hold one of these and call [`Self::check`] every few epochs;
/// the CV driver and tree growers do the same.
#[derive(Debug, Clone, Default)]
pub struct TargetBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
}

impl TargetBudget {
    /// A target budget that never trips; `check` is a no-op.
    pub fn unlimited() -> Self {
        TargetBudget::default()
    }

    /// Return `Err(TrainError::DeadlineExceeded)` if the run was cancelled
    /// or the deadline has passed; `Ok(())` otherwise. On an unlimited
    /// budget this reads no clock and no atomic.
    #[inline]
    pub fn check(&self) -> Result<(), TrainError> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Err(TrainError::DeadlineExceeded);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(TrainError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// Handle that cancels a run from another thread (or a signal handler).
#[derive(Debug, Clone)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Trip the cancel flag; every in-flight [`TargetBudget::check`] on the
    /// associated run starts failing with [`TrainError::DeadlineExceeded`].
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = RunBudget::unlimited();
        assert!(!b.is_expired());
        assert!(b.start_target().check().is_ok());
        assert!(TargetBudget::unlimited().check().is_ok());
    }

    #[test]
    fn expired_deadline_trips() {
        let b = RunBudget::with_deadline(Duration::from_secs(0));
        let t = b.start_target();
        assert_eq!(t.check(), Err(TrainError::DeadlineExceeded));
    }

    #[test]
    fn generous_deadline_passes() {
        let b = RunBudget::with_deadline(Duration::from_secs(3600));
        assert!(b.start_target().check().is_ok());
    }

    #[test]
    fn deadline_past_the_clock_never_trips() {
        // `Instant + Duration` would panic on overflow; a deadline the
        // clock cannot represent is no deadline at all.
        for dur in [Duration::MAX, Duration::from_secs(10_000_000_000_000_000_000)] {
            let b = RunBudget::with_deadline(dur);
            assert_eq!(b.remaining(), None);
            assert!(!b.is_expired());
            assert!(b.start_target().check().is_ok());
        }
    }

    #[test]
    fn cancel_handle_trips_all_targets() {
        let (b, handle) = RunBudget::unlimited().cancellable();
        let t1 = b.start_target();
        let t2 = b.start_target();
        assert!(t1.check().is_ok());
        assert!(!handle.is_cancelled());
        handle.cancel();
        assert!(handle.is_cancelled());
        assert_eq!(t1.check(), Err(TrainError::DeadlineExceeded));
        assert_eq!(t2.check(), Err(TrainError::DeadlineExceeded));
    }

    #[test]
    fn deadline_error_is_not_retryable() {
        assert!(!TrainError::DeadlineExceeded.is_retryable());
    }

    #[test]
    fn remaining_tracks_the_deadline() {
        assert_eq!(RunBudget::unlimited().remaining(), None);
        let b = RunBudget::with_deadline(Duration::from_secs(3600));
        let left = b.remaining().unwrap();
        assert!(left > Duration::from_secs(3500) && left <= Duration::from_secs(3600));
        let expired = RunBudget::with_deadline(Duration::ZERO);
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn is_expired_covers_deadline_and_cancel() {
        assert!(!RunBudget::unlimited().is_expired());
        assert!(RunBudget::with_deadline(Duration::ZERO).is_expired());
        assert!(!RunBudget::with_deadline(Duration::from_secs(3600)).is_expired());
        let (b, handle) = RunBudget::unlimited().cancellable();
        assert!(!b.is_expired());
        handle.cancel();
        assert!(b.is_expired());
    }
}
