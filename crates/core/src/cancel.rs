//! Cooperative cancellation and per-query deadlines.
//!
//! The paper binds site annotations at *runtime* because client/server
//! state changes under the optimizer's feet (§2.1); faults are the
//! extreme form of that state change. A [`CancelToken`] is the seam the
//! serving stack uses to stop dead work promptly: a shard's event loop
//! cancels the token when its client vanishes, and the optimizer/runner
//! loops probe the token between search steps and simulated-engine
//! phases, releasing the worker instead of finishing a query nobody will
//! read.
//!
//! Tokens are cheap (`AtomicBool` + an optional [`Instant`] deadline) and
//! shared by `Arc`; probing with no deadline is a single relaxed load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Why a guarded computation was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The token was explicitly cancelled (client disconnect, shutdown).
    Cancelled,
    /// The query's deadline passed before the work completed.
    DeadlineExceeded,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Cancelled => write!(f, "cancelled"),
            StopReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// A shared stop signal: an explicit cancel flag plus an optional
/// wall-clock deadline.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with an optional deadline and the cancel flag clear.
    pub fn new(deadline: Option<Instant>) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline,
        }
    }

    /// A token that never reports a stop reason (the default for
    /// unguarded entry points).
    pub fn inert() -> CancelToken {
        CancelToken::new(None)
    }

    /// A token that stops the guarded work once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken::new(Some(deadline))
    }

    /// A token whose deadline has already passed: the first probe reports
    /// [`StopReason::DeadlineExceeded`]. Tests use this instead of
    /// sampling `Instant::now()` themselves, so the wall clock stays
    /// confined to this module (see the `csqp-lint` allowlist).
    pub fn expired() -> CancelToken {
        CancelToken::with_deadline(Instant::now())
    }

    /// Request cancellation; guarded loops observe it at their next probe.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The reason guarded work should stop *now*, if any. Explicit
    /// cancellation wins over an expired deadline (a vanished client is
    /// a stronger signal than a late one).
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(StopReason::DeadlineExceeded),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_token_never_stops() {
        let t = CancelToken::inert();
        assert_eq!(t.stop_reason(), None);
        assert!(!t.is_cancelled());
    }

    #[test]
    fn cancel_is_observed() {
        let t = CancelToken::inert();
        t.cancel();
        assert_eq!(t.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn expired_deadline_stops() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(t.stop_reason(), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_does_not_stop_yet() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(t.stop_reason(), None);
    }

    #[test]
    fn cancellation_outranks_deadline() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        t.cancel();
        assert_eq!(t.stop_reason(), Some(StopReason::Cancelled));
    }
}
