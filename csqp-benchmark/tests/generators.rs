//! Workload generators: determinism, the two-phase stream's identity with
//! `csqp-load`'s mix, and distinctness of the two-step scenario streams.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;

use csqp_benchmark::workload::{
    hot_pool, warmup, Family, RequestStream, ScenarioStream, Workload, CONNECTIONS, HOT_POOL,
};
use csqp_memo::CacheBuckets;
use csqp_serve::load::{nth_request, LoadConfig};
use csqp_serve::proto::{OptimizerMode, QueryRequest};

/// The site-selection memo key of a request: shape, policy, objective
/// and quantized cache.
fn memo_key(r: &QueryRequest) -> (String, String, String, CacheBuckets) {
    (
        r.spec.canonical(),
        format!("{:?}", r.policy),
        format!("{:?}", r.objective),
        CacheBuckets::quantize(&r.cache),
    )
}

fn first(workload: Workload, seed: u64, conn: u64, n: usize) -> Vec<QueryRequest> {
    let mut s = RequestStream::new(workload, seed, conn);
    (0..n).map(|_| s.next_request().unwrap()).collect()
}

#[test]
fn streams_are_pure_in_workload_seed_and_connection() {
    for w in Workload::ALL {
        let a = first(w, 7, 0, 300);
        assert_eq!(
            a,
            first(w, 7, 0, 300),
            "{}: same inputs, same requests",
            w.name()
        );
        assert_ne!(a, first(w, 8, 0, 300), "{}: the seed matters", w.name());
        assert_ne!(a, first(w, 7, 1, 300), "{}: connections differ", w.name());
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64 + 1, "request index i carries id i + 1");
            r.spec.validate().unwrap();
            assert_eq!(r.cache.len(), r.spec.num_relations() as usize);
            let mode = if w == Workload::TwophaseMix {
                OptimizerMode::TwoPhase
            } else {
                OptimizerMode::TwoStep
            };
            assert_eq!(r.optimizer, mode);
        }
        assert_eq!(warmup(w, 7, 1), warmup(w, 7, 1));
    }
}

#[test]
fn twophase_mix_is_the_csqp_load_mix() {
    let cfg = LoadConfig {
        seed: 11,
        optimizer: OptimizerMode::TwoPhase,
        ..LoadConfig::default()
    };
    for conn in 0..CONNECTIONS {
        for (i, r) in first(Workload::TwophaseMix, 11, conn, 50)
            .iter()
            .enumerate()
        {
            assert_eq!(r, &nth_request(&cfg, conn, i as u64));
        }
    }
}

#[test]
fn cold_streams_never_repeat_a_memo_key() {
    let seed = 3;
    let mut seen = BTreeSet::new();
    let mut total = 0;
    for r in warmup(Workload::TwostepCold, seed, 1) {
        assert!(seen.insert(memo_key(&r)), "warm-up repeats a scenario");
        total += 1;
    }
    for conn in 0..CONNECTIONS {
        for r in first(Workload::TwostepCold, seed, conn, 5_000) {
            assert!(seen.insert(memo_key(&r)), "cold request repeats a scenario");
            total += 1;
        }
    }
    assert_eq!(seen.len(), total);
    for r in hot_pool(seed) {
        assert!(
            !seen.contains(&memo_key(&r)),
            "the hot pool overlaps a cold stream"
        );
    }
}

#[test]
fn hot_pool_is_distinct_and_the_hot_stream_stays_in_it() {
    let pool = hot_pool(5);
    assert_eq!(pool.len(), HOT_POOL);
    let keys: BTreeSet<_> = pool.iter().map(memo_key).collect();
    assert_eq!(keys.len(), HOT_POOL, "pool scenarios are pairwise distinct");
    for conn in 0..CONNECTIONS {
        for r in first(Workload::TwostepHot, 5, conn, 2_000) {
            assert!(keys.contains(&memo_key(&r)));
        }
    }
}

#[test]
fn open_stream_mixes_five_percent_cold() {
    let pool: BTreeSet<_> = hot_pool(9).iter().map(memo_key).collect();
    let reqs = first(Workload::TwostepOpen, 9, 0, 10_000);
    let cold: Vec<_> = reqs
        .iter()
        .filter(|r| !pool.contains(&memo_key(r)))
        .collect();
    let share = cold.len() as f64 / reqs.len() as f64;
    assert!((0.04..0.06).contains(&share), "cold share {share}");
    let distinct: BTreeSet<_> = cold.iter().map(|r| memo_key(r)).collect();
    assert_eq!(distinct.len(), cold.len(), "cold draws never repeat");
}

#[test]
fn scenario_families_are_disjoint() {
    let families = [
        Family::Cold(0),
        Family::Cold(1),
        Family::Warmup,
        Family::Hot,
    ];
    let mut seen = BTreeSet::new();
    for f in families {
        let mut s = ScenarioStream::new(1, f);
        for _ in 0..500 {
            assert!(seen.insert(memo_key(&s.next_scenario().unwrap())));
        }
    }
}
