//! Pinned-golden byte-identity tests for the session engine.
//!
//! The digests below were recorded by running the *legacy threaded*
//! engine (thread-per-connection, removed per the ROADMAP plan) on the
//! exact same seeded traffic, twice, before its deletion. The event
//! engine must keep reproducing them bit for bit: the order-independent
//! digest folds `(client, index, record)` triples, so any change to a
//! reply payload — planning, costing, simulation, fault mangling —
//! shows up here regardless of scheduling. This preserves the
//! byte-identity guarantee the live two-engine comparison used to
//! provide.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod support;

use csqp_serve::{run_load, LoadConfig, Server, ServerConfig};
use support::chaos::{run_chaos, ChaosConfig};

/// Golden digests recorded from the threaded engine: seeded load runs
/// (4 clients × 4 queries), by load seed.
const LOAD_GOLDENS: [(u64, u64, [u64; 3]); 2] = [
    (7, 0x8dba_1e00_4c2d_98c6, [8, 4, 4]),
    (0xC59D, 0x2a65_35a7_c16c_9c83, [3, 8, 5]),
];

/// Golden digests recorded from the threaded engine: chaos soaks
/// (2 schedules × 8 queries, intensity 0.5) — `(seed, digest, replies,
/// dropped)`.
const CHAOS_GOLDENS: [(u64, u64, u64, u64); 2] = [
    (1, 0x1b4b_c7c6_8467_a33c, 14, 2),
    (13, 0xe731_b98f_a94b_5720, 9, 7),
];

/// Golden digest recorded from the threaded engine with reply-path
/// faults at intensity 0.6, seed 0xFEED: `(digest, replies, dropped,
/// mangled, sent)`.
const FAULT_GOLDEN: (u64, u64, u64, u64, u64) = (0xf28f_4038_7ac6_6102, 3, 7, 6, 16);

fn spawn() -> csqp_serve::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind loopback")
    .spawn()
    .expect("spawn server")
}

#[test]
fn seeded_load_digests_match_the_threaded_goldens() {
    let server = spawn();
    for (seed, digest, per_policy) in LOAD_GOLDENS {
        let r = run_load(&LoadConfig {
            addr: server.addr().to_string(),
            clients: 4,
            queries_per_client: Some(4),
            seed,
            ..LoadConfig::default()
        })
        .expect("load run");
        assert_eq!(r.queries, 16, "engine answers everything: {r:?}");
        assert_eq!(r.errors, 0);
        assert_eq!(
            r.digest, digest,
            "seed {seed}: digest must stay byte-identical to \
             the recorded threaded-engine golden (got {:#x})",
            r.digest
        );
        assert_eq!(r.per_policy, per_policy, "same mix, same policy split");
    }
    let stats = server.service().stats_snapshot();
    assert!(support::conserved(&stats));
    assert_eq!(stats.queries_served, 32);
    server.shutdown();
}

#[test]
fn chaos_soak_digests_match_the_threaded_goldens() {
    // The soak is sequential (one outstanding query), so every reply is
    // pure in (seed, schedule, index) — fault recovery included.
    for (seed, digest, replies, dropped) in CHAOS_GOLDENS {
        let server = spawn();
        let r = run_chaos(&ChaosConfig {
            addr: server.addr().to_string(),
            seed,
            schedules: 2,
            queries_per_schedule: 8,
            intensity: 0.5,
            ..ChaosConfig::default()
        })
        .expect("chaos soak");
        assert!(r.healthy(), "engine healthy:\n{}", r.render());
        assert_eq!(
            r.digest,
            digest,
            "seed {seed}: chaos digest must match the \
             recorded golden (got {:#x})\n{}",
            r.digest,
            r.render()
        );
        assert_eq!(r.replies, replies);
        assert_eq!(r.dropped, dropped);
        server.shutdown();
    }
}

#[test]
fn reply_faults_mangle_identically_to_the_threaded_golden() {
    // Reply-path faults key on the request's own seed, so the mangle
    // schedule is reproducible without any session state.
    let seed = 0xFEED;
    let intensity = 0.6;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reply_faults: Some(csqp_net::chaos::FaultPlan::new(seed, intensity)),
        ..ServerConfig::default()
    })
    .expect("bind loopback")
    .spawn()
    .expect("spawn server");
    let cfg = ChaosConfig {
        addr: server.addr().to_string(),
        seed,
        schedules: 2,
        queries_per_schedule: 8,
        intensity,
        reply_faults: true,
        ..ChaosConfig::default()
    };
    let r = run_chaos(&cfg).expect("chaos soak");
    let (digest, replies, dropped, mangled, sent) = FAULT_GOLDEN;
    assert!(r.healthy(), "engine healthy:\n{}", r.render());
    assert!(r.mangled > 0, "engine mangled replies");
    assert_eq!(
        r.replies + r.dropped + r.mangled,
        r.queries_sent,
        "every exchange accounted:\n{}",
        r.render()
    );
    assert_eq!(
        r.digest,
        digest,
        "mangled digest must match the recorded golden \
         (got {:#x})\n{}",
        r.digest,
        r.render()
    );
    assert_eq!(
        (r.replies, r.dropped, r.mangled, r.queries_sent),
        (replies, dropped, mangled, sent)
    );
    // Again on the same server: the mangle schedule keys on request
    // seeds only, so the warm server reproduces the golden too.
    let again = run_chaos(&cfg).expect("repeat chaos soak");
    assert!(again.healthy(), "engine healthy:\n{}", again.render());
    assert_eq!(
        (again.digest, again.replies, again.dropped, again.mangled),
        (digest, replies, dropped, mangled),
        "the repeat on one server must match the golden too\n{}",
        again.render()
    );
    server.shutdown();
}
