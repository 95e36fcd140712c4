//! Per-item time budgets, checked cooperatively at span starts.
//!
//! The corpus runner arms a deadline on the worker thread around one
//! item's analysis ([`arm`]); every [`crate::Span`] started on that
//! thread compares the clock reading it takes anyway against the
//! deadline. Once it has passed, the span start unwinds with a
//! private payload through [`std::panic::resume_unwind`] (which runs no
//! panic hook), the spans still open close on the way out, and the
//! runner's `catch_unwind` recognizes the payload with [`is_expiry`].
//! An item therefore overruns its budget by at most the span in
//! progress when the deadline passed.

use std::any::Any;
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The unwind payload of an expired deadline.
struct Expired;

/// An armed deadline; dropping it (on return or unwind) disarms it.
#[derive(Debug)]
#[must_use = "the deadline is disarmed when the guard drops"]
pub struct Guard {
    _armed: (),
}

/// Arms this thread's deadline `limit` from now. A limit too large to
/// represent as an [`Instant`] never expires.
pub fn arm(limit: Duration) -> Guard {
    // tcpa-lint: allow(determinism-hazards) -- a deadline is a wall-clock budget; it decides only whether an item times out, never what an analyzed item reports
    DEADLINE.with(|d| d.set(Instant::now().checked_add(limit)));
    Guard { _armed: () }
}

impl Drop for Guard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(None));
    }
}

/// Unwinds out of the current item when this thread's deadline is at or
/// before `now`. Never unwinds while the thread is already unwinding.
pub(crate) fn check(now: Instant) {
    if DEADLINE.with(Cell::get).is_some_and(|at| now >= at) && !std::thread::panicking() {
        std::panic::resume_unwind(Box::new(Expired));
    }
}

/// `true` when an unwind payload came from an expired deadline.
pub fn is_expiry(payload: &(dyn Any + Send)) -> bool {
    payload.is::<Expired>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run_span_after(limit: Duration, wait: Duration) -> Result<(), Box<dyn Any + Send>> {
        let _guard = arm(limit);
        std::thread::sleep(wait);
        catch_unwind(AssertUnwindSafe(|| {
            crate::time("stage.deadline_test", || ())
        }))
    }

    #[test]
    fn span_started_after_the_deadline_unwinds_with_the_payload() {
        let payload = run_span_after(Duration::ZERO, Duration::from_millis(1))
            .expect_err("an expired deadline unwinds at the next span start");
        assert!(is_expiry(&*payload));
    }

    #[test]
    fn span_started_before_the_deadline_runs() {
        assert!(run_span_after(Duration::from_secs(3600), Duration::ZERO).is_ok());
    }

    #[test]
    fn disarmed_guard_never_fires() {
        drop(arm(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        crate::time("stage.deadline_test", || ());
        // A panic that is not a deadline is not mistaken for one.
        let payload = catch_unwind(|| std::panic::resume_unwind(Box::new("boom")))
            .expect_err("resumed unwind");
        assert!(!is_expiry(&*payload));
    }
}
