//! Property tests for the simulation kernel: the event queue's ordering
//! contract and the FIFO server's conservation laws.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp_simkernel::{EventQueue, FifoServer, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Pops are globally ordered by (time, insertion sequence) no matter
    /// the schedule order, and the clock never runs backwards.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime(*t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut prev_t = None;
        let mut popped = 0;
        while let Some((t, payload)) = q.pop() {
            popped += 1;
            prop_assert!(t >= last_time, "clock went backwards");
            if prev_t == Some(t) {
                // FIFO among equal timestamps: insertion indices ascend.
                prop_assert!(
                    seen_at_time.last().is_none_or(|&p| p < payload),
                    "tie broken out of order"
                );
                seen_at_time.push(payload);
            } else {
                seen_at_time = vec![payload];
            }
            prev_t = Some(t);
            last_time = t;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// FIFO server: work conservation (busy time = sum of services) and
    /// completion order = submission order.
    #[test]
    fn fifo_server_conserves_work(services in proptest::collection::vec(1u64..10_000, 1..100)) {
        let mut s: FifoServer<u32> = FifoServer::new();
        let mut first = None;
        for (i, svc) in services.iter().enumerate() {
            if let Some(f) =
                s.submit(SimTime::ZERO, i as u32, SimDuration(*svc))
            {
                first = Some(f);
            }
        }
        let mut fin = first.unwrap();
        let mut order = Vec::new();
        loop {
            let (tok, next) = s.finish_current(fin);
            order.push(tok);
            match next {
                Some(f) => fin = f,
                None => break,
            }
        }
        prop_assert_eq!(order, (0..services.len() as u32).collect::<Vec<_>>());
        prop_assert_eq!(s.busy_time().as_nanos(), services.iter().sum::<u64>());
        prop_assert_eq!(fin.as_nanos(), services.iter().sum::<u64>());
        prop_assert_eq!(s.served(), services.len() as u64);
    }
}
