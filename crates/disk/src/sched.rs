//! The elevator (SCAN) request scheduler.
//!
//! Pending requests are served in cylinder order, sweeping the head in one
//! direction until no requests remain ahead of it, then reversing — the
//! classic elevator policy the paper's disk model uses. Within a cylinder,
//! requests are served in (track, offset, arrival) order so co-located
//! requests don't thrash.
//!
//! The queue is a `Vec` kept sorted by key: a binary search finds where
//! a request goes and which one the sweep takes next, and the shift on
//! insert or removal is a `memmove`. Queues are not short — write-behind
//! and read-ahead stack up tens to hundreds of requests (DESIGN.md
//! §18.4) — so neither an unsorted scan nor an ordered map's node
//! allocations pay off. Every request carries its arrival sequence
//! number in its key, so keys are unique and the sorted order is the
//! one an ordered map would iterate.

/// Sort key: physical position then arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    cylinder: u64,
    track: u64,
    offset: u64,
    seq: u64,
}

/// An elevator queue of opaque requests keyed by physical position.
#[derive(Debug)]
pub struct Elevator<T> {
    pending: Vec<(Key, T)>,
    next_seq: u64,
    /// True = sweeping towards higher cylinders.
    upward: bool,
}

impl<T> Default for Elevator<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Elevator<T> {
    /// An empty queue, initially sweeping upward.
    pub fn new() -> Elevator<T> {
        Elevator {
            pending: Vec::new(),
            next_seq: 0,
            upward: true,
        }
    }

    /// Enqueue a request at the given physical position.
    #[inline]
    pub fn push(&mut self, cylinder: u64, track: u64, offset: u64, item: T) {
        let key = Key {
            cylinder,
            track,
            offset,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let at = self.pending.partition_point(|(k, _)| *k < key);
        self.pending.insert(at, (key, item));
    }

    /// Dequeue the next request given the head is at `head_cyl`, following
    /// the SCAN discipline. Returns the request and its cylinder.
    ///
    /// Sweeping up, the next request is the lowest key on or above the
    /// head's cylinder; when there is none the sweep reverses to the
    /// highest key below it. Sweeping down, it is the highest key on or
    /// below the head's cylinder (requests on the head's own cylinder
    /// count), else the sweep reverses to the lowest key above it.
    #[inline]
    pub fn pop(&mut self, head_cyl: u64) -> Option<(u64, T)> {
        if self.pending.is_empty() {
            return None;
        }
        let i = if self.upward {
            let above = self.pending.partition_point(|(k, _)| k.cylinder < head_cyl);
            if above < self.pending.len() {
                above
            } else {
                self.upward = false;
                above - 1
            }
        } else {
            let end = self
                .pending
                .partition_point(|(k, _)| k.cylinder <= head_cyl);
            if end > 0 {
                end - 1
            } else {
                self.upward = true;
                0
            }
        };
        let (key, item) = self.pending.remove(i);
        Some((key.cylinder, item))
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The `BTreeMap` elevator the sorted `Vec` replaced, kept as the
    /// reference model: range queries around the head over keys ordered
    /// by `(cylinder, track, offset, seq)`.
    struct RefElevator<T> {
        pending: BTreeMap<Key, T>,
        next_seq: u64,
        upward: bool,
    }

    impl<T> RefElevator<T> {
        fn new() -> Self {
            RefElevator {
                pending: BTreeMap::new(),
                next_seq: 0,
                upward: true,
            }
        }

        fn push(&mut self, cylinder: u64, track: u64, offset: u64, item: T) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.insert(
                Key {
                    cylinder,
                    track,
                    offset,
                    seq,
                },
                item,
            );
        }

        fn pop(&mut self, head_cyl: u64) -> Option<(u64, T)> {
            if self.pending.is_empty() {
                return None;
            }
            let lo = Key {
                cylinder: head_cyl,
                track: 0,
                offset: 0,
                seq: 0,
            };
            let hi = Key {
                cylinder: head_cyl,
                track: u64::MAX,
                offset: u64::MAX,
                seq: u64::MAX,
            };
            let key = if self.upward {
                match self.pending.range(lo..).next() {
                    Some((k, _)) => *k,
                    None => {
                        self.upward = false;
                        *self.pending.range(..lo).next_back().unwrap().0
                    }
                }
            } else {
                match self.pending.range(..=hi).next_back() {
                    Some((k, _)) => *k,
                    None => {
                        self.upward = true;
                        *self.pending.range(lo..).next().unwrap().0
                    }
                }
            };
            let item = self.pending.remove(&key).unwrap();
            Some((key.cylinder, item))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same choices as the reference on random push/pop sequences
        /// over a few cylinders, tracks and offsets, so exact position
        /// ties, same-cylinder runs and both reversals are frequent; the
        /// head follows each served request as the disk's does.
        #[test]
        fn matches_the_btreemap_reference(
            ops in proptest::collection::vec((0u64..5, 0u64..6, 0u64..2, 0u64..2), 1..300),
        ) {
            let mut sorted = Elevator::new();
            let mut reference = RefElevator::new();
            let mut head = 3u64;
            for (i, (op, cyl, track, offset)) in ops.into_iter().enumerate() {
                if op < 3 {
                    sorted.push(cyl, track, offset, i);
                    reference.push(cyl, track, offset, i);
                } else {
                    let got = sorted.pop(head);
                    prop_assert_eq!(got, reference.pop(head));
                    if let Some((c, _)) = got {
                        head = c;
                    }
                }
                prop_assert_eq!(sorted.len(), reference.pending.len());
            }
            while let Some(got) = sorted.pop(head) {
                prop_assert_eq!(Some(got), reference.pop(head));
                head = got.0;
            }
            prop_assert_eq!(reference.pop(head), None);
        }
    }

    #[test]
    fn sweeps_up_then_down() {
        let mut e = Elevator::new();
        e.push(50, 0, 0, "c50");
        e.push(10, 0, 0, "c10");
        e.push(90, 0, 0, "c90");
        // Head at 40, sweeping up: 50, 90, then reverse to 10.
        assert_eq!(e.pop(40), Some((50, "c50")));
        assert_eq!(e.pop(50), Some((90, "c90")));
        assert_eq!(e.pop(90), Some((10, "c10")));
        assert!(e.is_empty());
    }

    #[test]
    fn same_cylinder_served_in_position_order() {
        let mut e = Elevator::new();
        e.push(5, 1, 3, "late-on-track");
        e.push(5, 0, 0, "first");
        e.push(5, 1, 0, "second");
        assert_eq!(e.pop(5).unwrap().1, "first");
        assert_eq!(e.pop(5).unwrap().1, "second");
        assert_eq!(e.pop(5).unwrap().1, "late-on-track");
    }

    #[test]
    fn arrival_breaks_exact_ties() {
        let mut e = Elevator::new();
        e.push(5, 0, 0, 1);
        e.push(5, 0, 0, 2);
        assert_eq!(e.pop(5).unwrap().1, 1);
        assert_eq!(e.pop(5).unwrap().1, 2);
    }

    #[test]
    fn downward_sweep_reverses_at_bottom() {
        let mut e = Elevator::new();
        e.push(10, 0, 0, "a");
        e.push(60, 0, 0, "b");
        // Head at 100 sweeping up: nothing above -> reverses.
        assert_eq!(e.pop(100), Some((60, "b")));
        assert_eq!(e.pop(60), Some((10, "a")));
        // Now sweeping down at cylinder 10; push something above.
        e.push(30, 0, 0, "c");
        assert_eq!(e.pop(10), Some((30, "c")));
    }

    #[test]
    fn empty_pop_is_none() {
        let mut e: Elevator<()> = Elevator::new();
        assert_eq!(e.pop(0), None);
    }

    #[test]
    fn reduces_seek_travel_versus_fifo() {
        // Classic SCAN sanity check: total head travel over a batch is no
        // more than FIFO's for an adversarial arrival order.
        let arrivals = [500u64, 10, 900, 20, 800, 30];
        let mut e = Elevator::new();
        for (i, &c) in arrivals.iter().enumerate() {
            e.push(c, 0, 0, i);
        }
        let mut head = 0u64;
        let mut scan_travel = 0u64;
        while let Some((cyl, _)) = e.pop(head) {
            scan_travel += head.abs_diff(cyl);
            head = cyl;
        }
        let mut head = 0u64;
        let mut fifo_travel = 0u64;
        for &c in &arrivals {
            fifo_travel += head.abs_diff(c);
            head = c;
        }
        assert!(
            scan_travel < fifo_travel,
            "SCAN {scan_travel} should beat FIFO {fifo_travel}"
        );
    }
}
