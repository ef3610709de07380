//! The future event list.
//!
//! Events pop in `(time, sequence)` order. The sequence number makes the
//! ordering of same-time events deterministic (FIFO in scheduling order),
//! which keeps whole simulation runs reproducible for a given seed.
//!
//! Storage is a binary heap plus a *front slot* holding the earliest
//! pending event outside the heap. A driven simulation often schedules
//! an event that fires before everything pending (a resume at the
//! current instant, a short CPU burst) and pops it next; the slot lets
//! that event skip the heap's sift-up and sift-down. An event takes the
//! slot only when its time is *strictly* earlier than every pending
//! event: a same-time event was scheduled later, so its larger sequence
//! number ranks it behind those already pending. Sequence numbers are
//! assigned on every `schedule`, so the pop order is exactly that of a
//! single heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A scheduled event carrying an arbitrary payload `E`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future event list.
///
/// Events popped from the queue are monotonically non-decreasing in time;
/// ties are broken by insertion order.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// When set, ranks strictly before every event in `heap`.
    front: Option<Scheduled<E>>,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
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
            front: None,
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time (the time of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a modeling bug.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "EventQueue::schedule: event at {at:?} is before now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled {
            time: at,
            seq,
            payload,
        };
        // Strictly earlier than every pending event, or it ranks behind
        // one of them (same time, larger seq) and belongs in the heap.
        if self.peek_time().is_none_or(|first| at < first) {
            if let Some(displaced) = self.front.replace(ev) {
                self.heap.push(displaced);
            }
        } else {
            self.heap.push(ev);
        }
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ev = self.front.take().or_else(|| self.heap.pop())?;
        debug_assert!(ev.time >= self.now, "event heap produced time travel");
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front
            .as_ref()
            .or_else(|| self.heap.peek())
            .map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Total number of events ever scheduled (diagnostic).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
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
        /// peek, `len` and `scheduled_count` agree. Small time offsets
        /// make same-time ties and new-earliest events common.
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
                reference.sort();
                prop_assert_eq!(q.peek_time(), reference.first().map(|e| e.0));
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.is_empty(), reference.is_empty());
                prop_assert_eq!(q.scheduled_count(), seq);
            }
            reference.sort();
            for want in reference {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), 1u8);
        q.schedule(SimTime(3), 2u8);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
    }
}
