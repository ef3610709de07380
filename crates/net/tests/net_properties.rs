//! Property tests for the network link: FIFO delivery, exact wire-time
//! accounting, and byte bookkeeping under arbitrary message mixes.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp_catalog::SystemConfig;
use csqp_net::{Link, MsgKind};
use csqp_simkernel::SimTime;
use proptest::prelude::*;

fn drain(link: &mut Link<u32>, first_fin: SimTime) -> Vec<(u32, SimTime)> {
    let mut out = Vec::new();
    let mut fin = first_fin;
    loop {
        let (tok, next) = link.finish_current(fin);
        out.push((tok, fin));
        match next {
            Some(f) => fin = f,
            None => break,
        }
    }
    out
}

proptest! {
    /// Messages complete in submission order, and the total elapsed time
    /// equals the sum of the individual wire times.
    #[test]
    fn fifo_order_and_exact_timing(
        sizes in proptest::collection::vec(64u64..20_000, 1..40)
    ) {
        let cfg = SystemConfig::default();
        let mut link: Link<u32> = Link::new(&cfg);
        let mut first = None;
        for (i, bytes) in sizes.iter().enumerate() {
            let kind = if *bytes >= 4096 { MsgKind::DataPage } else { MsgKind::Control };
            if let Some(f) = link.submit(SimTime::ZERO, i as u32, *bytes, kind) {
                prop_assert!(first.is_none());
                first = Some(f);
            }
        }
        let done = drain(&mut link, first.unwrap());
        // FIFO order.
        let tokens: Vec<u32> = done.iter().map(|(t, _)| *t).collect();
        prop_assert_eq!(&tokens, &(0..sizes.len() as u32).collect::<Vec<_>>());
        // Exact completion time.
        let expect: f64 = sizes.iter().map(|b| *b as f64 * 8.0 / 100e6).sum();
        let last = done.last().unwrap().1.as_secs_f64();
        prop_assert!((last - expect).abs() < 1e-6, "{last} vs {expect}");
        // Byte accounting.
        prop_assert_eq!(link.stats().bytes_sent, sizes.iter().sum::<u64>());
        prop_assert!(link.is_idle());
    }

    /// The pages-sent counter counts exactly the DataPage submissions.
    #[test]
    fn page_counter_counts_data_pages(
        kinds in proptest::collection::vec(proptest::bool::ANY, 1..50)
    ) {
        let cfg = SystemConfig::default();
        let mut link: Link<u32> = Link::new(&cfg);
        let mut first = None;
        let mut pages = 0;
        for (i, is_page) in kinds.iter().enumerate() {
            let (bytes, kind) = if *is_page {
                pages += 1;
                (4096, MsgKind::DataPage)
            } else {
                (256, MsgKind::Control)
            };
            if let Some(f) = link.submit(SimTime::ZERO, i as u32, bytes, kind) {
                first = first.or(Some(f));
            }
        }
        drain(&mut link, first.unwrap());
        prop_assert_eq!(link.stats().data_pages_sent, pages);
        prop_assert_eq!(link.stats().control_msgs_sent, kinds.len() as u64 - pages);
    }
}
