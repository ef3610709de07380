//! Single-server FIFO queueing resources.
//!
//! The paper models both the CPU of every site and the network as FIFO
//! queues (§3.2.2). [`FifoServer`] implements that: requests are served one
//! at a time in arrival order; the caller is told when each request
//! completes and schedules the completion on its event queue.
//!
//! The resource does not own the event queue — the driving simulation does.
//! The protocol is:
//!
//! 1. `submit(now, token, service)` returns `Some(finish)` when the
//!    request enters service at once; the caller schedules a completion
//!    event at `finish`. It returns `None` when the request queued
//!    behind others.
//! 2. On each completion event, `finish_current(now)` retires the request
//!    in service and returns its token. When a queued request moved into
//!    service in its place, the second element is that request's
//!    completion time, for the caller to schedule.

use std::collections::VecDeque;

use crate::time::{SimDuration, SimTime};

/// A request: an opaque token plus its service demand.
#[derive(Debug, Clone)]
struct Request<T> {
    token: T,
    service: SimDuration,
}

/// A single-server FIFO queue with utilization accounting.
#[derive(Debug)]
pub struct FifoServer<T> {
    /// The request in service, with the time it entered service.
    in_service: Option<(Request<T>, SimTime)>,
    /// Requests waiting behind it, in arrival order.
    queue: VecDeque<Request<T>>,
    busy: SimDuration,
    served: u64,
}

impl<T> Default for FifoServer<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoServer<T> {
    /// Create an idle server.
    pub fn new() -> Self {
        FifoServer {
            in_service: None,
            queue: VecDeque::new(),
            busy: SimDuration::ZERO,
            served: 0,
        }
    }

    /// Submit a request with the given service demand.
    ///
    /// Returns `Some(finish_time)` if the request entered service
    /// immediately (the caller must schedule a completion event at
    /// `finish_time`); `None` if it queued.
    #[inline]
    pub fn submit(&mut self, now: SimTime, token: T, service: SimDuration) -> Option<SimTime> {
        let req = Request { token, service };
        if self.in_service.is_none() {
            self.in_service = Some((req, now));
            Some(now + service)
        } else {
            self.queue.push_back(req);
            None
        }
    }

    /// Retire the request in service (called on its completion event).
    ///
    /// Returns `(completed_token, next)`, where `next` is
    /// `Some(finish_time)` when a queued request has now entered
    /// service. The caller schedules its completion.
    // Invariant panic, not an error path: calling `finish_current` on an
    // idle server is a caller bug the simulator cannot recover from
    // mid-run.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn finish_current(&mut self, now: SimTime) -> (T, Option<SimTime>) {
        let (done, started) = self
            .in_service
            .take()
            .expect("FifoServer::finish_current called while idle");
        debug_assert_eq!(now, started + done.service, "completion at wrong time");
        self.busy += done.service;
        self.served += 1;
        let next_finish = self.queue.pop_front().map(|next| {
            let finish = now + next.service;
            self.in_service = Some((next, now));
            finish
        });
        (done.token, next_finish)
    }

    /// True when nothing is in service or queued.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }

    /// Total busy time accumulated so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of requests fully served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.busy.as_secs_f64() / now.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_fifo() {
        let mut s: FifoServer<&str> = FifoServer::new();
        let t0 = SimTime::ZERO;
        let fin_a = s.submit(t0, "a", SimDuration::from_millis(10));
        assert_eq!(fin_a, Some(SimTime(10_000_000)));
        assert!(s.submit(t0, "b", SimDuration::from_millis(5)).is_none());
        assert!(s.submit(t0, "c", SimDuration::from_millis(1)).is_none());

        let (tok, next) = s.finish_current(SimTime(10_000_000));
        assert_eq!(tok, "a");
        assert_eq!(next, Some(SimTime(15_000_000)));
        let (tok, next) = s.finish_current(SimTime(15_000_000));
        assert_eq!(tok, "b");
        assert_eq!(next, Some(SimTime(16_000_000)));
        let (tok, next) = s.finish_current(SimTime(16_000_000));
        assert_eq!(tok, "c");
        assert_eq!(next, None);
        assert!(s.is_idle());
        assert_eq!(s.served(), 3);
        assert_eq!(s.busy_time(), SimDuration::from_millis(16));
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut s: FifoServer<u8> = FifoServer::new();
        s.submit(SimTime::ZERO, 1, SimDuration::from_millis(5));
        s.finish_current(SimTime(5_000_000));
        assert!((s.utilization(SimTime(10_000_000)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn finish_when_idle_panics() {
        let mut s: FifoServer<u8> = FifoServer::new();
        s.finish_current(SimTime::ZERO);
    }

    #[test]
    fn idle_server_reports_idle() {
        let s: FifoServer<u8> = FifoServer::new();
        assert!(s.is_idle());
        assert_eq!(s.utilization(SimTime::ZERO), 0.0);
    }
}
