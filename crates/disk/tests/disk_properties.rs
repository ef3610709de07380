//! Property tests for the disk model: completeness, accounting, and the
//! sequential-beats-random invariant under arbitrary workloads.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp_disk::{Disk, DiskAddr, DiskParams, DiskRequest, IoKind};
use csqp_simkernel::{SimDuration, SimTime};
use proptest::prelude::*;

/// Submit a batch while the disk is busy, then drain; returns completion
/// order and the final time.
fn run_batch(reqs: &[(u64, bool)]) -> (Vec<u32>, SimTime, Disk<u32>) {
    let mut d: Disk<u32> = Disk::new(DiskParams::default());
    let mut order = Vec::new();
    let mut fin = None;
    for (i, (addr, write)) in reqs.iter().enumerate() {
        let kind = if *write { IoKind::Write } else { IoKind::Read };
        let req = DiskRequest {
            addr: DiskAddr(*addr),
            kind,
            token: i as u32,
        };
        if let Some(f) = d.submit(SimTime::ZERO, req) {
            assert!(fin.is_none(), "only the first submission starts service");
            fin = Some(f);
        }
    }
    let mut now = fin.expect("at least one request");
    loop {
        let (tok, next) = d.finish_current(now);
        order.push(tok);
        match next {
            Some(f) => now = f,
            None => break,
        }
    }
    (order, now, d)
}

proptest! {
    /// Every submitted request completes exactly once, regardless of the
    /// address pattern (elevator never starves anyone).
    #[test]
    fn all_requests_complete(
        reqs in proptest::collection::vec((0u64..48_000, proptest::bool::ANY), 1..60)
    ) {
        let (order, _, d) = run_batch(&reqs);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..reqs.len() as u32).collect::<Vec<_>>());
        let stats = d.stats();
        prop_assert_eq!(
            stats.reads + stats.writes,
            reqs.len() as u64
        );
    }

    /// Busy time equals elapsed time for a saturated disk, and the mean
    /// service stays within physical bounds.
    #[test]
    fn busy_time_accounts_for_everything(
        reqs in proptest::collection::vec((0u64..48_000, proptest::bool::ANY), 1..60)
    ) {
        let (_, end, d) = run_batch(&reqs);
        let stats = d.stats();
        prop_assert_eq!(stats.busy, end.since(SimTime::ZERO));
        let mean = stats.busy / (stats.reads + stats.writes);
        prop_assert!(mean >= SimDuration::from_micros(500), "mean {mean}");
        prop_assert!(mean <= SimDuration::from_millis(30), "mean {mean}");
    }

    /// A sorted (sequential) batch never takes longer than the same batch
    /// in a scrambled order.
    #[test]
    fn sequential_order_is_never_slower(
        start in 0u64..40_000,
        len in 2usize..50,
        seed in 0u64..1000,
    ) {
        let seq: Vec<(u64, bool)> =
            (0..len as u64).map(|i| (start + i, false)).collect();
        let (_, seq_end, _) = run_batch(&seq);

        let mut scrambled = seq.clone();
        let mut rng = csqp_simkernel::rng::SimRng::seed_from_u64(seed);
        rng.shuffle(&mut scrambled);
        let (_, scr_end, _) = run_batch(&scrambled);
        prop_assert!(
            seq_end <= scr_end,
            "sequential {seq_end} vs scrambled {scr_end}"
        );
    }
}
