//! Memo-table serving tests over real loopback TCP: the shared
//! site-selection memo must be invisible in results (byte-identical
//! digests with the memo on, off, hammered from many threads, or served
//! by a single worker) and visible only in the STATS counters.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpStream;

use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_serve::proto::{Frame, OptimizerMode};
use csqp_serve::server::roundtrip;
use csqp_serve::{run_load, LoadConfig, Server, ServerConfig, ServerHandle};

fn start(config: ServerConfig) -> ServerHandle {
    Server::bind(config)
        .expect("bind on 127.0.0.1:0")
        .spawn()
        .expect("spawn server threads")
}

/// A fixed two-step mix: every policy in rotation, enough repetition per
/// (shape, policy, objective, cache) cell that a memo must hit.
fn two_step_load(addr: &str, clients: usize, per_client: u64) -> LoadConfig {
    LoadConfig {
        addr: addr.to_string(),
        clients,
        queries_per_client: Some(per_client),
        seed: 0x3E_A10,
        optimizer: OptimizerMode::TwoStep,
        objective: Objective::ResponseTime,
        ..LoadConfig::default()
    }
}

#[test]
fn memo_on_off_serve_identical_digests_over_loopback() {
    // The same seeded mix against a memo-enabled and a memo-disabled
    // server produces byte-identical result digests; only the STATS
    // counters differ. Two mixes: this file's, and the load
    // generator's default seed.
    for seed in [0x3E_A10, LoadConfig::default().seed] {
        let on = start(ServerConfig::default());
        let off = start(ServerConfig {
            memo: false,
            ..ServerConfig::default()
        });
        let load = |server: &ServerHandle| LoadConfig {
            seed,
            ..two_step_load(&server.addr().to_string(), 4, 6)
        };

        let report_on = run_load(&load(&on)).expect("memo-on load");
        let report_off = run_load(&load(&off)).expect("memo-off load");
        assert_eq!(report_on.queries, 24);
        assert_eq!(report_off.queries, 24);
        assert_eq!(report_on.errors + report_off.errors, 0);
        assert_eq!(
            report_on.digest, report_off.digest,
            "seed {seed:#x}: memo hits must replay the exact plan the cold path would build"
        );

        let snap_on = on.service().stats_snapshot();
        let snap_off = off.service().stats_snapshot();
        assert!(
            snap_on.memo_hits > 0,
            "seed {seed:#x}: a 24-query repeated mix must hit the memo: {snap_on:?}"
        );
        assert!(snap_on.memo_bytes > 0, "installed entries occupy bytes");
        assert_eq!(snap_off.memo_hits, 0, "disabled memo is never consulted");
        assert_eq!(snap_off.memo_bytes, 0);

        on.shutdown();
        off.shutdown();
    }
}

#[test]
fn concurrent_hammer_matches_single_threaded_serving() {
    // 8 client threads race the sharded memo on a 4-worker server; a
    // 1-worker server serves the identical mix strictly sequentially.
    // Which probes hit depends on interleaving — the digests must not.
    let parallel = start(ServerConfig::default());
    let serial = start(ServerConfig {
        workers: 1,
        event_threads: 1,
        ..ServerConfig::default()
    });

    let hammer = run_load(&two_step_load(&parallel.addr().to_string(), 8, 4)).expect("hammer");
    let sequential = run_load(&two_step_load(&serial.addr().to_string(), 8, 4)).expect("serial");
    assert_eq!(hammer.queries, 32);
    assert_eq!(sequential.queries, 32);
    assert_eq!(hammer.errors + sequential.errors, 0);
    assert_eq!(
        hammer.digest, sequential.digest,
        "memo interleaving must never change served results"
    );

    // Both servers saw real memo traffic, and conservation held: every
    // two-step query either probed-and-missed or probed-and-hit.
    for handle in [&parallel, &serial] {
        let snap = handle.service().stats_snapshot();
        assert!(snap.memo_hits > 0, "repeated mix must hit: {snap:?}");
        assert_eq!(
            snap.memo_hits + snap.memo_misses,
            2 * 32,
            "compile + select probes"
        );
    }

    parallel.shutdown();
    serial.shutdown();
}

#[test]
fn stats_frame_reports_memo_counters_over_the_wire() {
    let server = start(ServerConfig::default());
    let report = run_load(&LoadConfig {
        addr: server.addr().to_string(),
        clients: 2,
        queries_per_client: Some(4),
        seed: 21,
        optimizer: OptimizerMode::TwoStep,
        policy: Some(Policy::HybridShipping),
        ..LoadConfig::default()
    })
    .expect("load");
    assert_eq!(report.queries, 8);

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let reply = roundtrip(&mut stream, &Frame::StatsRequest).expect("stats");
    match reply {
        Frame::Stats(s) => {
            let local = server.service().stats_snapshot();
            assert_eq!(s.memo_hits, local.memo_hits, "wire matches in-process");
            assert_eq!(s.memo_misses, local.memo_misses);
            assert_eq!(s.memo_evictions, local.memo_evictions);
            assert_eq!(s.memo_bytes, local.memo_bytes);
            assert!(s.memo_misses > 0, "cold probes were counted: {s:?}");
            assert!(s.memo_bytes > 0, "the table holds entries: {s:?}");
            // The reactor counters travel the same wire. They keep
            // advancing while the server idles (each shard's wait
            // loop ticks), so the local snapshot taken *after* the
            // wire reply can only be at or past it — monotone, not
            // equal. A served load implies waits and dispatched
            // events, and on Linux (epoll) ctl traffic.
            assert!(
                s.reactor_wait_calls <= local.reactor_wait_calls,
                "wire snapshot precedes local: {s:?} vs {local:?}"
            );
            assert!(s.reactor_ctl_calls <= local.reactor_ctl_calls);
            assert!(s.reactor_events_dispatched <= local.reactor_events_dispatched);
            assert!(s.reactor_wait_calls > 0, "served load implies waits: {s:?}");
            assert!(
                s.reactor_events_dispatched > 0,
                "served load implies events: {s:?}"
            );
            if cfg!(target_os = "linux") {
                assert!(s.reactor_ctl_calls > 0, "epoll registers via ctl: {s:?}");
            }
        }
        other => panic!("expected STATS, got {:?}", other.kind()),
    }
    server.shutdown();
}

#[test]
fn tiny_byte_budget_evicts_but_still_serves_identically() {
    // A starved memo (a few KB) must evict constantly yet never corrupt
    // results: digests still match a memo-off server on the same mix.
    let starved = start(ServerConfig {
        memo_bytes: 4 << 10,
        ..ServerConfig::default()
    });
    let off = start(ServerConfig {
        memo: false,
        ..ServerConfig::default()
    });

    let lhs = run_load(&two_step_load(&starved.addr().to_string(), 4, 6)).expect("starved");
    let rhs = run_load(&two_step_load(&off.addr().to_string(), 4, 6)).expect("off");
    assert_eq!(lhs.queries, 24);
    assert_eq!(lhs.errors + rhs.errors, 0);
    assert_eq!(
        lhs.digest, rhs.digest,
        "eviction pressure never changes results"
    );

    let snap = starved.service().stats_snapshot();
    assert!(
        snap.memo_bytes <= 4 << 10,
        "the byte budget is a hard bound: {snap:?}"
    );
    starved.shutdown();
    off.shutdown();
}
