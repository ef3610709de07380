//! The future event list.
//!
//! Events pop in time order, and events due at the same time pop in the
//! order they were scheduled (FIFO). That tie rule keeps whole
//! simulation runs reproducible for a given seed.
//!
//! Storage is one `Vec` kept sorted latest-first, so the next event is
//! the last element and `pop` is `Vec::pop`. `schedule` walks back from
//! the tail past every pending event due at or before the new one, then
//! inserts: a new event lands behind every event already pending at the
//! same time, which is the FIFO tie rule with no sequence number.
//!
//! The walk is short because the list is. In the engine each CPU, each
//! disk and the network link has at most one completion scheduled, and
//! each process at most one resume or sleep wake-up, so at most
//! `procs + 2·sites + 1` events are pending (`Engine::run` asserts it in
//! debug builds). Over every experiment of the reproduction the list
//! never held more than 32 events, and an insert moved 0.49 elements on
//! average (DESIGN.md §19).

use crate::time::SimTime;

/// A deterministic future event list.
///
/// Events popped from the queue are monotonically non-decreasing in time;
/// ties are broken by insertion order.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pending events, latest first: the next to fire is the last.
    pending: Vec<(SimTime, E)>,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            pending: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`, after every
    /// pending event due at or before `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a modeling bug.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "EventQueue::schedule: event at {at:?} is before now {:?}",
            self.now
        );
        let at_index = self
            .pending
            .iter()
            .rposition(|&(time, _)| time > at)
            .map_or(0, |later| later + 1);
        self.pending.insert(at_index, (at, payload));
    }

    /// Pop the earliest event, advancing the clock to its time.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (time, payload) = self.pending.pop()?;
        debug_assert!(time >= self.now, "event list produced time travel");
        self.now = time;
        Some((time, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.now(), SimTime(20));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(42), i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO + SimDuration::from_millis(1), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime(1_000_000));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), ());
        q.pop();
        q.schedule(SimTime(5), ());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a reference list sorted by `(time, seq)`: every pop,
        /// peek and `len` agree. Small time offsets make same-time ties
        /// and new-earliest events common.
        #[test]
        fn matches_a_sorted_reference(
            ops in proptest::collection::vec((0u64..6, 0u64..4), 1..200),
        ) {
            let mut q = EventQueue::new();
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut seq = 0u64;
            for (op, offset) in ops {
                if op < 4 {
                    let at = SimTime(q.now().0 + offset);
                    q.schedule(at, seq);
                    reference.push((at, seq));
                    seq += 1;
                } else {
                    reference.sort();
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    prop_assert_eq!(q.pop(), want);
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
            }
            reference.sort();
            for want in reference {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime(7), 1u8);
        q.schedule(SimTime(3), 2u8);
        assert_eq!(q.len(), 2);
    }
}
