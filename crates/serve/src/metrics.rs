//! Thread-safe server-side metrics.
//!
//! Every worker thread records into one shared [`ServerMetrics`];
//! [`ServerMetrics::snapshot`] produces the STATS frame payload. Counters
//! are atomics; the latency reservoir is a mutex-guarded vector (bounded,
//! so a long-lived server cannot grow without limit).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use csqp_core::Policy;
use csqp_engine::LinkStats;

use crate::proto::StatsSnapshot;

/// Cap on retained latency samples; past this the reservoir keeps every
/// k-th sample so percentiles stay representative without unbounded
/// memory.
const MAX_SAMPLES: usize = 65_536;

/// Lock a mutex, recovering from poisoning (a panicked worker must not
/// take the metrics down with it).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn policy_slot(p: Policy) -> usize {
    match p {
        Policy::DataShipping => 0,
        Policy::QueryShipping => 1,
        Policy::HybridShipping => 2,
    }
}

/// Shared, thread-safe service counters.
///
/// The accounting invariant ([`ServerMetrics::conservation_holds`]):
/// every submitted query lands in exactly one terminal bucket, so
/// `submitted == served + rejected + errors + aborted + timed_out` once
/// the pipeline drains. The chaos harness asserts this after every soak.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    submitted: AtomicU64,
    queries_served: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
    aborted: AtomicU64,
    timed_out: AtomicU64,
    degraded: AtomicU64,
    mem_bound_degraded: AtomicU64,
    mem_bound_rejected: AtomicU64,
    per_policy: [AtomicU64; 3],
    lint_checks: AtomicU64,
    wire_pages: AtomicU64,
    wire_msgs: AtomicU64,
    wire_bytes: AtomicU64,
    latencies_us: Mutex<Vec<u64>>,
    sample_stride: AtomicU64,
    sessions_open: AtomicU64,
    reactor_wait_calls: AtomicU64,
    reactor_ctl_calls: AtomicU64,
    reactor_events_dispatched: AtomicU64,
}

impl ServerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Record one successfully served query: its policy, service latency
    /// (queue wait + planning + simulation), and simulated wire traffic.
    pub fn record_served(&self, policy: Policy, latency_us: u64, wire: LinkStats) {
        let n = self.queries_served.fetch_add(1, Ordering::Relaxed);
        self.per_policy[policy_slot(policy)].fetch_add(1, Ordering::Relaxed);
        self.wire_pages
            .fetch_add(wire.data_pages_sent, Ordering::Relaxed);
        self.wire_msgs
            .fetch_add(wire.control_msgs_sent, Ordering::Relaxed);
        self.wire_bytes
            .fetch_add(wire.bytes_sent, Ordering::Relaxed);
        let stride = self.sample_stride.load(Ordering::Relaxed).max(1);
        if n.is_multiple_of(stride) {
            let mut samples = lock(&self.latencies_us);
            if samples.len() >= MAX_SAMPLES {
                // Decimate: keep every other sample and double the stride.
                let kept: Vec<u64> = samples.iter().copied().step_by(2).collect();
                *samples = kept;
                self.sample_stride.store(stride * 2, Ordering::Relaxed);
            }
            samples.push(latency_us);
        }
    }

    /// Record one decoded QUERY frame entering admission control. Every
    /// submit must later be matched by exactly one terminal record
    /// (served / reject / error / aborted / timed-out).
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one admission-control rejection.
    pub fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request that failed with a non-reject error.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request abandoned mid-flight (client vanished, server
    /// shut down before the worker picked it up).
    pub fn record_aborted(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request whose deadline expired before completion.
    pub fn record_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request served after degrading its policy to QS.
    pub fn record_degraded(&self) {
        self.degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request degraded to QS specifically because its chosen
    /// plan's worst-case client footprint exceeded the memory budget.
    /// Always paired with [`ServerMetrics::record_degraded`].
    pub fn record_mem_bound_degraded(&self) {
        self.mem_bound_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one request rejected because even the QS fallback plan's
    /// worst-case footprint exceeded the memory budget. Always paired
    /// with [`ServerMetrics::record_reject`].
    pub fn record_mem_bound_rejected(&self) {
        self.mem_bound_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that the Table-1 conformance lint ran on a plan before
    /// execution (the serve-path invariant checked by the loopback test).
    pub fn record_lint(&self) {
        self.lint_checks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one session opening (a socket registered with a shard's
    /// event loop).
    pub fn session_opened(&self) {
        self.sessions_open.fetch_add(1, Ordering::AcqRel);
    }

    /// Record one session closing. Must pair with
    /// [`ServerMetrics::session_opened`].
    pub fn session_closed(&self) {
        let prev = self.sessions_open.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "sessions_open gauge underflow");
    }

    /// Sessions currently open — a gauge, not on the STATS wire; the
    /// idle-session scale test polls it to know when all its sockets are
    /// registered.
    pub fn sessions_open(&self) -> u64 {
        self.sessions_open.load(Ordering::Acquire)
    }

    /// Fold one shard's reactor counter growth (since its last publish)
    /// into the shared totals. Every shard pushes deltas each loop
    /// iteration, so the STATS wire sees all shards summed.
    pub fn record_reactor(&self, wait_calls: u64, ctl_calls: u64, events_dispatched: u64) {
        self.reactor_wait_calls
            .fetch_add(wait_calls, Ordering::Relaxed);
        self.reactor_ctl_calls
            .fetch_add(ctl_calls, Ordering::Relaxed);
        self.reactor_events_dispatched
            .fetch_add(events_dispatched, Ordering::Relaxed);
    }

    /// Reactor wait syscalls across all shards so far.
    pub fn reactor_wait_calls(&self) -> u64 {
        self.reactor_wait_calls.load(Ordering::Relaxed)
    }

    /// Reactor interest-mutation syscalls across all shards so far
    /// (always zero under the `poll` backend).
    pub fn reactor_ctl_calls(&self) -> u64 {
        self.reactor_ctl_calls.load(Ordering::Relaxed)
    }

    /// Readiness events dispatched to shard loops so far.
    pub fn reactor_events_dispatched(&self) -> u64 {
        self.reactor_events_dispatched.load(Ordering::Relaxed)
    }

    /// Queries served so far.
    pub fn queries_served(&self) -> u64 {
        self.queries_served.load(Ordering::Relaxed)
    }

    /// Admission rejections so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Non-reject errors so far.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// QUERY frames submitted to admission control so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests abandoned mid-flight so far.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Requests that hit their deadline so far.
    pub fn timed_out(&self) -> u64 {
        self.timed_out.load(Ordering::Relaxed)
    }

    /// Requests served after policy degradation so far.
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Requests degraded to QS by the memory-bound admission gate so far.
    pub fn mem_bound_degraded(&self) -> u64 {
        self.mem_bound_degraded.load(Ordering::Relaxed)
    }

    /// Requests rejected by the memory-bound admission gate so far.
    pub fn mem_bound_rejected(&self) -> u64 {
        self.mem_bound_rejected.load(Ordering::Relaxed)
    }

    /// True when every submitted query has reached exactly one terminal
    /// bucket. Only meaningful once the pipeline has drained (no query
    /// in the queue or on a worker); the chaos harness polls STATS until
    /// this settles.
    pub fn conservation_holds(&self) -> bool {
        self.submitted()
            == self.queries_served()
                + self.rejected()
                + self.errors()
                + self.aborted()
                + self.timed_out()
    }

    /// Conformance-lint executions so far. On a healthy server this
    /// equals queries served plus policy-violation errors: every plan is
    /// linted exactly once, before execution.
    pub fn lint_checks(&self) -> u64 {
        self.lint_checks.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot for the STATS frame.
    pub fn snapshot(&self) -> StatsSnapshot {
        let sorted = {
            let samples = lock(&self.latencies_us);
            let mut s = samples.clone();
            s.sort_unstable();
            s
        };
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            queries_served: self.queries_served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            per_policy: [
                self.per_policy[0].load(Ordering::Relaxed),
                self.per_policy[1].load(Ordering::Relaxed),
                self.per_policy[2].load(Ordering::Relaxed),
            ],
            p50_ms: percentile_us(&sorted, 0.50) / 1000.0,
            p95_ms: percentile_us(&sorted, 0.95) / 1000.0,
            p99_ms: percentile_us(&sorted, 0.99) / 1000.0,
            wire: LinkStats {
                data_pages_sent: self.wire_pages.load(Ordering::Relaxed),
                control_msgs_sent: self.wire_msgs.load(Ordering::Relaxed),
                bytes_sent: self.wire_bytes.load(Ordering::Relaxed),
            },
            // The memo and the catalog drift state live on the
            // QueryService, not here; `QueryService::stats_snapshot`
            // merges their counters in.
            memo_hits: 0,
            memo_misses: 0,
            memo_evictions: 0,
            memo_bytes: 0,
            catalog_epoch: 0,
            catalog_refreshes: 0,
            catalog_stale_degraded: 0,
            catalog_stale_rejected: 0,
            catalog_epoch_regressions: 0,
            catalog_max_lag: 0,
            mem_bound_degraded: self.mem_bound_degraded.load(Ordering::Relaxed),
            mem_bound_rejected: self.mem_bound_rejected.load(Ordering::Relaxed),
            reactor_wait_calls: self.reactor_wait_calls.load(Ordering::Relaxed),
            reactor_ctl_calls: self.reactor_ctl_calls.load(Ordering::Relaxed),
            reactor_events_dispatched: self.reactor_events_dispatched.load(Ordering::Relaxed),
        }
    }
}

/// Nearest-rank percentile of a *sorted* sample, in the sample's unit.
/// Empty samples report 0.
pub fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&s, 0.50), 50.0);
        assert_eq!(percentile_us(&s, 0.95), 95.0);
        assert_eq!(percentile_us(&s, 0.99), 99.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7], 0.99), 7.0);
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let m = ServerMetrics::new();
        let wire = LinkStats {
            data_pages_sent: 10,
            control_msgs_sent: 3,
            bytes_sent: 4096,
        };
        for _ in 0..7 {
            m.record_submitted();
        }
        m.record_served(Policy::QueryShipping, 2_000, wire);
        m.record_served(Policy::QueryShipping, 4_000, wire);
        m.record_served(Policy::HybridShipping, 6_000, wire);
        m.record_reject();
        m.record_error();
        m.record_aborted();
        m.record_timed_out();
        m.record_degraded();
        m.record_lint();
        let s = m.snapshot();
        assert_eq!(s.submitted, 7);
        assert_eq!(s.queries_served, 3);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.timed_out, 1);
        assert_eq!(s.degraded, 1);
        assert_eq!(s.per_policy, [0, 2, 1]);
        assert_eq!(s.wire.data_pages_sent, 30);
        assert_eq!(s.wire.bytes_sent, 3 * 4096);
        assert_eq!(s.p50_ms, 4.0);
        assert_eq!(m.lint_checks(), 1);
        assert!(m.conservation_holds(), "7 in, 3+1+1+1+1 out");
    }

    #[test]
    fn session_gauge_tracks_opens_and_closes() {
        let m = ServerMetrics::new();
        assert_eq!(m.sessions_open(), 0);
        m.session_opened();
        m.session_opened();
        assert_eq!(m.sessions_open(), 2);
        m.session_closed();
        assert_eq!(m.sessions_open(), 1);
        m.session_closed();
        assert_eq!(m.sessions_open(), 0);
    }

    #[test]
    fn reactor_deltas_accumulate_across_shards() {
        let m = ServerMetrics::new();
        m.record_reactor(10, 2, 7);
        m.record_reactor(5, 0, 3);
        assert_eq!(m.reactor_wait_calls(), 15);
        assert_eq!(m.reactor_ctl_calls(), 2);
        assert_eq!(m.reactor_events_dispatched(), 10);
        let s = m.snapshot();
        assert_eq!(s.reactor_wait_calls, 15);
        assert_eq!(s.reactor_ctl_calls, 2);
        assert_eq!(s.reactor_events_dispatched, 10);
    }

    #[test]
    fn conservation_detects_leaks() {
        let m = ServerMetrics::new();
        m.record_submitted();
        assert!(!m.conservation_holds(), "one query still in flight");
        m.record_aborted();
        assert!(m.conservation_holds());
    }

    #[test]
    fn reservoir_decimates_instead_of_growing() {
        let m = ServerMetrics::new();
        let wire = LinkStats::default();
        for i in 0..(MAX_SAMPLES as u64 + 10_000) {
            m.record_served(Policy::DataShipping, i, wire);
        }
        let kept = lock(&m.latencies_us).len();
        assert!(kept <= MAX_SAMPLES, "reservoir stayed bounded: {kept}");
        assert!(kept > MAX_SAMPLES / 4, "reservoir still representative");
    }
}
