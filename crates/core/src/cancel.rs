//! Per-request cancellation: a deadline token checked at stage
//! boundaries.
//!
//! A [`CancelToken`] carries the wall-clock instant a request must be
//! abandoned at, derived from the wire envelope's `deadline_ms` field.
//! Every execution path takes one: a request without a deadline runs
//! under [`CancelToken::never`], whose checks cost one branch and never
//! read the clock — so there is one code path, not a cancellable twin
//! beside a plain one.
//! Cancellation is **cooperative**: the pipeline and the service check
//! [`CancelToken::expired`] between stages (and between layers), never
//! preempting a stage mid-flight — so a cancelled request costs at most
//! one stage of overshoot and all shared state (plan cache, metrics)
//! stays coherent.
//!
//! Expiry latches: once a token observes its deadline passed, every
//! later check reports expired, and [`CancelToken::check`] renders
//! the deterministic [`SimError::Deadline`] message — the budget, not
//! the (nondeterministic) elapsed time, so serve responses stay
//! byte-reproducible.

use scalesim_api::SimError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct TokenInner {
    deadline: Instant,
    budget_ms: u64,
    expired: AtomicBool,
}

/// A cheaply clonable deadline token (see the module docs).
#[derive(Debug, Clone)]
pub struct CancelToken {
    /// `None` = no deadline: the token can never expire.
    inner: Option<Arc<TokenInner>>,
}

impl CancelToken {
    /// A token that never expires — what requests without a deadline
    /// (and every one-shot CLI command) run under.
    pub fn never() -> Self {
        Self { inner: None }
    }

    /// A token that expires `budget_ms` milliseconds from now.
    pub fn after_ms(budget_ms: u64) -> Self {
        let deadline = Instant::now()
            .checked_add(Duration::from_millis(budget_ms))
            // Absurd budgets saturate to effectively-never rather than
            // panicking; the request then simply cannot expire.
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(u32::MAX as u64));
        Self {
            inner: Some(Arc::new(TokenInner {
                deadline,
                budget_ms,
                expired: AtomicBool::new(false),
            })),
        }
    }

    /// Whether the deadline has passed. Latches: once true, always true
    /// (even if the clock were to misbehave), so every stage after the
    /// first expired check agrees the request is dead.
    pub fn expired(&self) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        if inner.expired.load(Ordering::Relaxed) {
            return true;
        }
        if Instant::now() >= inner.deadline {
            inner.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// `Err` with the typed `deadline` error once the token has expired.
    /// The message names the budget (deterministic), never the elapsed
    /// time.
    ///
    /// # Errors
    ///
    /// `Deadline` when [`expired`](Self::expired).
    pub fn check(&self) -> Result<(), SimError> {
        match &self.inner {
            Some(inner) if self.expired() => Err(SimError::Deadline(format!(
                "deadline of {} ms exceeded",
                inner.budget_ms
            ))),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_expires_immediately_and_latches() {
        let t = CancelToken::after_ms(0);
        assert!(t.expired());
        assert!(t.expired(), "expiry must latch");
        let e = t.check().unwrap_err();
        assert_eq!(e.kind(), "deadline");
        assert_eq!(e.exit_code(), 124);
        assert_eq!(e.message(), "deadline of 0 ms exceeded");
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let t = CancelToken::after_ms(600_000);
        assert!(!t.expired());
        let clone = t.clone();
        assert!(!clone.expired());
    }

    #[test]
    fn absurd_budget_saturates_instead_of_panicking() {
        let t = CancelToken::after_ms(u64::MAX);
        assert!(!t.expired());
    }

    #[test]
    fn a_never_token_never_expires_and_its_scope_visits_every_item() {
        let never = CancelToken::never();
        assert!(!never.expired());
        assert!(never.check().is_ok());
        assert!(!never.clone().expired());
        let items: Vec<u64> = (0..300).collect();
        let mut seen = Vec::new();
        scalesim_systolic::parallel_map_streamed(
            &items,
            64,
            &|| never.expired(),
            |_, &x| x,
            |i, x| seen.push((i, x)),
        );
        let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x)).collect();
        assert_eq!(seen, expect, "every item, in order");
    }

    #[test]
    fn clones_share_the_latch() {
        let t = CancelToken::after_ms(0);
        let clone = t.clone();
        assert!(clone.expired());
        assert!(t.expired());
    }
}
