//! Chaos soak integration tests: a real server on loopback TCP under
//! seeded fault injection.
//!
//! The PR's acceptance bar: across ≥8 fixed seeds, zero panics, zero
//! leaked worker slots or queue permits (clean probes succeed), exact
//! accounting conservation, and the same seed reproducing the same
//! fault schedule and reply digest.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use csqp_net::chaos::FaultPlan;
use csqp_serve::chaos::{run_chaos, ChaosConfig};
use csqp_serve::{Server, ServerConfig, ServerHandle};
use proptest::prelude::*;

/// The fixed soak seeds: small Fibonacci numbers, stable forever so CI
/// failures reproduce locally by copying the seed.
const SOAK_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

fn start_server() -> ServerHandle {
    Server::bind(ServerConfig {
        workers: 2,
        queue_depth: 8,
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
    .spawn()
    .expect("spawn server threads")
}

fn soak_config(addr: &str, seed: u64) -> ChaosConfig {
    ChaosConfig {
        addr: addr.to_string(),
        seed,
        schedules: 2,
        queries_per_schedule: 10,
        intensity: 0.5,
        settle_timeout: Duration::from_secs(15),
        ..ChaosConfig::default()
    }
}

#[test]
fn soak_over_fixed_seeds_never_leaks_or_miscounts() {
    for seed in SOAK_SEEDS {
        let server = start_server();
        let report = run_chaos(&soak_config(&server.addr().to_string(), seed))
            .unwrap_or_else(|e| panic!("seed {seed}: soak failed: {e}"));
        assert!(
            report.conservation,
            "seed {seed}: conservation violated\n{}",
            report.render()
        );
        assert!(
            report.probes_ok,
            "seed {seed}: a worker or queue permit leaked\n{}",
            report.render()
        );
        assert_eq!(
            report.client_errors,
            0,
            "seed {seed}: unexpected client-side I/O failure\n{}",
            report.render()
        );
        assert_eq!(report.queries_sent, 20);
        assert_eq!(
            report.replies + report.dropped,
            report.queries_sent,
            "seed {seed}: every exchange ends replied or dropped\n{}",
            report.render()
        );
        server.shutdown();
    }
}

#[test]
fn same_seed_reproduces_schedule_and_digest_across_servers() {
    // Two *fresh* servers — not two runs against one — so the digest
    // cannot lean on warmed caches or leftover state.
    let seed = 13;
    let first_server = start_server();
    let a = run_chaos(&soak_config(&first_server.addr().to_string(), seed)).expect("first soak");
    first_server.shutdown();
    let second_server = start_server();
    let b = run_chaos(&soak_config(&second_server.addr().to_string(), seed)).expect("second soak");
    second_server.shutdown();
    assert_eq!(a.digest, b.digest, "same seed, same replies");
    assert_eq!(a.faults, b.faults, "same seed, same fault schedule");
    assert_eq!(a.replies, b.replies);
    assert_eq!(a.dropped, b.dropped);
}

/// Staleness bound for the catalog-fault soaks: tight enough that
/// withheld refreshes push replicas past it at intensity 0.5.
const CATALOG_SOAK_BOUND: u64 = 2;

/// A server with catalog propagation faults armed from the seeded plan.
/// One event thread = one shard = one catalog replica: shard routing is
/// by file descriptor, which the seed does not control, so a single
/// shard is what makes the drift trajectory a pure function of the
/// request stream.
fn start_catalog_fault_server(seed: u64, intensity: f64) -> ServerHandle {
    Server::bind(ServerConfig {
        workers: 2,
        queue_depth: 8,
        event_threads: 1,
        catalog_lag: CATALOG_SOAK_BOUND,
        catalog_faults: Some(FaultPlan::new(seed, intensity)),
        ..ServerConfig::default()
    })
    .expect("bind on 127.0.0.1:0")
    .spawn()
    .expect("spawn server threads")
}

#[test]
fn catalog_fault_soak_conserves_and_the_drift_trace_audits_clean() {
    let mut drift_bit = 0u64;
    for seed in SOAK_SEEDS {
        let server = start_catalog_fault_server(seed, 0.5);
        let cfg = ChaosConfig {
            catalog_faults: true,
            ..soak_config(&server.addr().to_string(), seed)
        };
        let report =
            run_chaos(&cfg).unwrap_or_else(|e| panic!("seed {seed}: catalog soak failed: {e}"));
        assert!(
            report.conservation,
            "seed {seed}: conservation under catalog faults\n{}",
            report.render()
        );
        assert!(
            report.probes_ok,
            "seed {seed}: a worker leaked under catalog faults\n{}",
            report.render()
        );
        assert_eq!(report.client_errors, 0, "seed {seed}");
        assert_eq!(
            report.replies + report.dropped,
            report.queries_sent,
            "seed {seed}: every exchange ends replied or dropped\n{}",
            report.render()
        );
        // The recorded drift trace must replay clean through the
        // verifier: no fresh serve past the bound, no applied epoch
        // regression, faithful lag accounting.
        let trace = server.service().drift_trace();
        assert!(!trace.is_empty(), "seed {seed}: faults armed, trace empty");
        let audit = csqp_verify::catalog::check_drift(&trace, CATALOG_SOAK_BOUND);
        assert!(audit.is_clean(), "seed {seed}: drift audit failed: {audit}");
        drift_bit += report.stats.catalog_stale_degraded + report.stats.catalog_stale_rejected;
        server.shutdown();
    }
    assert!(
        drift_bit > 0,
        "across all soak seeds, some replica must trail past the bound"
    );
}

#[test]
fn catalog_fault_soak_same_seed_same_drift_across_fresh_servers() {
    // Epoch lag is server state that carries across queries, so the
    // repeatability claim is across two *fresh* servers: same seed,
    // same fresh state, byte-identical replies and drift trajectory.
    let seed = 21;
    let first = start_catalog_fault_server(seed, 0.5);
    let a = run_chaos(&ChaosConfig {
        catalog_faults: true,
        ..soak_config(&first.addr().to_string(), seed)
    })
    .expect("first catalog soak");
    let trace_a = first.service().drift_trace();
    first.shutdown();
    let second = start_catalog_fault_server(seed, 0.5);
    let b = run_chaos(&ChaosConfig {
        catalog_faults: true,
        ..soak_config(&second.addr().to_string(), seed)
    })
    .expect("second catalog soak");
    let trace_b = second.service().drift_trace();
    second.shutdown();
    assert_eq!(a.digest, b.digest, "same seed, same replies");
    assert_eq!(a.replies, b.replies);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(trace_a, trace_b, "same seed, same drift trajectory");
}

#[test]
fn zero_deadline_soak_times_out_every_served_query_deterministically() {
    // deadline_ms = 0 expires at admission, so every well-formed query
    // comes back deadline-exceeded — a deterministic exercise of the
    // timeout path under fault injection.
    let server = start_server();
    let cfg = ChaosConfig {
        deadline_ms: Some(0),
        ..soak_config(&server.addr().to_string(), 21)
    };
    let a = run_chaos(&cfg).expect("zero-deadline soak");
    assert!(
        a.conservation,
        "conservation under timeouts\n{}",
        a.render()
    );
    assert!(a.probes_ok, "workers survive timeouts\n{}", a.render());
    assert!(
        a.stats.timed_out > 0,
        "zero deadlines must time out\n{}",
        a.render()
    );
    assert_eq!(
        a.stats.queries_served,
        0,
        "nothing outruns an already-expired deadline\n{}",
        a.render()
    );
    let b = run_chaos(&cfg).expect("zero-deadline soak, repeated");
    assert_eq!(a.digest, b.digest, "timeout replies are seeded too");
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any seed — not just the pinned eight — holds the invariants.
    #[test]
    fn soak_any_seed_holds_invariants(seed in 0u64..1_000_000) {
        let server = start_server();
        let report = run_chaos(&soak_config(&server.addr().to_string(), seed))
            .expect("soak completes");
        prop_assert!(report.conservation, "seed {}: {}", seed, report.render());
        prop_assert!(report.probes_ok, "seed {}: {}", seed, report.render());
        prop_assert_eq!(report.client_errors, 0);
        server.shutdown();
    }
}
