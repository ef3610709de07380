//! Pass 4: simulator determinism lint.
//!
//! The paper's methodology depends on reproducible simulation runs
//! ("90% confidence intervals … within 5%" is only meaningful when a
//! seed pins the run). The kernel's [`EventQueue`] is deterministic *per
//! insertion order*: ties at the same timestamp break FIFO. That is a
//! sound tie-break only when the code scheduling the events does not
//! itself depend on iteration order of an unordered container — if it
//! does, the same simulation can produce different statistics from run
//! to run even with a fixed seed.
//!
//! This pass detects exactly that hazard for a concrete schedule: it
//! replays the same set of events under several permuted insertion
//! orders and diffs the observable pop sequences. A schedule whose
//! same-timestamp events carry *distinguishable* payloads in an
//! order-sensitive way is flagged ([`DiagCode::TieBreakNondeterminism`]);
//! schedules with unique timestamps, or indistinguishable ties, replay
//! identically and pass.
//!
//! [`check_pop_trace`] additionally lints any recorded delivery trace
//! for clock regressions ([`DiagCode::EventTimeRegression`]) — trivially
//! true for the sorted event list, but engine code that *re-derives*
//! delivery times (e.g. subtracting service from completion times) can
//! and should run its traces through the same lint.

use std::fmt::Debug;

use csqp_core::diag::{DiagCode, Diagnostic};
use csqp_simkernel::rng::SimRng;
use csqp_simkernel::{EventQueue, SimTime};

/// Lint a delivery-time trace for regressions: every event must be
/// delivered at or after its predecessor.
pub fn check_pop_trace(times: &[SimTime]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, pair) in times.windows(2).enumerate() {
        if pair[1] < pair[0] {
            out.push(Diagnostic::new(
                DiagCode::EventTimeRegression,
                format!(
                    "delivery #{} at t={}ns precedes delivery #{} at t={}ns",
                    i + 1,
                    pair[1].as_nanos(),
                    i,
                    pair[0].as_nanos()
                ),
            ));
        }
    }
    out
}

/// Replay `events` through an [`EventQueue`] under `permutations`
/// shuffled insertion orders (seeded by `seed`) and diff the pop
/// sequences against the given order's.
///
/// A difference means the schedule's outcome depends on insertion order:
/// somewhere two events share a timestamp but carry different payloads,
/// and whatever produced this schedule has no deterministic rule for
/// which comes first. The diagnostic names the first diverging delivery.
pub fn check_queue_determinism<E>(
    events: &[(SimTime, E)],
    seed: u64,
    permutations: usize,
) -> Vec<Diagnostic>
where
    E: Clone + PartialEq + Debug,
{
    let mut out = Vec::new();
    let baseline = drain(events.iter().cloned());
    out.extend(check_pop_trace(
        &baseline.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
    ));

    // Unique timestamps cannot tie; skip the replays.
    let mut times: Vec<u64> = events.iter().map(|(t, _)| t.as_nanos()).collect();
    times.sort_unstable();
    if times.windows(2).all(|w| w[0] != w[1]) {
        return out;
    }

    let mut rng = SimRng::seed_from_u64(seed);
    for k in 0..permutations {
        let mut perm: Vec<(SimTime, E)> = events.to_vec();
        rng.shuffle(&mut perm);
        let replay = drain(perm.into_iter());
        if let Some(i) = (0..baseline.len()).find(|&i| baseline[i] != replay[i]) {
            out.push(Diagnostic::new(
                DiagCode::TieBreakNondeterminism,
                format!(
                    "insertion permutation {k} changes delivery #{i} at t={}ns \
                     from {:?} to {:?}: same-timestamp events with \
                     distinguishable payloads have no deterministic order",
                    baseline[i].0.as_nanos(),
                    baseline[i].1,
                    replay[i].1
                ),
            ));
            break;
        }
    }
    out
}

/// Schedule all events, then pop until empty.
fn drain<E>(events: impl Iterator<Item = (SimTime, E)>) -> Vec<(SimTime, E)> {
    let mut q = EventQueue::new();
    for (t, e) in events {
        q.schedule(t, e);
    }
    let mut out = Vec::new();
    while let Some(ev) = q.pop() {
        out.push(ev);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns)
    }

    #[test]
    fn unique_timestamps_are_deterministic() {
        let events: Vec<(SimTime, u32)> = (0u32..50).map(|i| (t(u64::from(i) * 10), i)).collect();
        assert!(check_queue_determinism(&events, 42, 8).is_empty());
    }

    #[test]
    fn identical_tied_payloads_are_deterministic() {
        // Ties exist, but the tied events are indistinguishable — no
        // observable nondeterminism.
        let events = vec![(t(5), "tick"), (t(5), "tick"), (t(9), "done")];
        assert!(check_queue_determinism(&events, 7, 8).is_empty());
    }

    #[test]
    fn distinguishable_ties_are_flagged() {
        let events = vec![(t(5), "A"), (t(5), "B"), (t(9), "C")];
        let ds = check_queue_determinism(&events, 7, 16);
        assert!(
            ds.iter()
                .any(|d| d.code == DiagCode::TieBreakNondeterminism),
            "{ds:?}"
        );
        let d = &ds[0];
        assert!(d.detail.contains("t=5ns"), "{}", d.detail);
    }

    #[test]
    fn pop_traces_from_the_queue_are_monotone() {
        let events: Vec<(SimTime, u32)> = (0u32..100)
            .rev()
            .map(|i| (t(u64::from(i) * 3), i))
            .collect();
        let trace: Vec<SimTime> = drain(events.into_iter()).iter().map(|(t, _)| *t).collect();
        assert!(check_pop_trace(&trace).is_empty());
    }

    #[test]
    fn regressing_trace_is_flagged() {
        let trace = vec![t(10), t(20), t(15), t(30)];
        let ds = check_pop_trace(&trace);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::EventTimeRegression);
        assert!(ds[0].detail.contains("#2"), "{}", ds[0].detail);
    }
}
