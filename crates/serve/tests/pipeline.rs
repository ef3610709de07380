//! Multi-query pipelining over one connection against the event-driven
//! session engine: window advertisement, id re-association (including a
//! shuffled-completion proptest), per-query deadline isolation, the
//! over-window reject, and pipelined-vs-sequential digest equality.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpStream;
use std::time::Instant;

use csqp_serve::load::nth_request;
use csqp_serve::proto::{read_frame, write_frame, ErrorCode, Frame, Hello, WireError};
use csqp_serve::{run_load, IssuedQuery, LoadConfig, PipelineWindow, Server, ServerConfig};
use csqp_simkernel::rng::SimRng;
use proptest::prelude::*;

fn spawn(config: ServerConfig) -> csqp_serve::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("bind loopback")
    .spawn()
    .expect("spawn server")
}

/// Open a session: connect, HELLO, return the stream plus the window the
/// server advertised.
fn open(addr: &str) -> (TcpStream, u32) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            client: "pipeline-test".to_string(),
        }),
    )
    .expect("hello");
    match next_frame(&mut stream) {
        Frame::HelloAck(ack) => (stream, ack.pipeline_depth),
        other => panic!("expected HELLO-ACK, got {other:?}"),
    }
}

/// Read the next frame off a blocking stream.
fn next_frame(stream: &mut TcpStream) -> Frame {
    loop {
        match read_frame(stream) {
            Err(WireError::TimedOut) => continue,
            Ok(Some(f)) => return f,
            other => panic!("stream died mid-test: {other:?}"),
        }
    }
}

#[test]
fn hello_ack_advertises_the_configured_window() {
    let server = spawn(ServerConfig {
        pipeline_depth: 5,
        ..ServerConfig::default()
    });
    let (_stream, depth) = open(&server.addr().to_string());
    assert_eq!(depth, 5, "the engine advertises its window");
    server.shutdown();

    // An absurd configured depth is clamped to the finite-machine cap
    // the model checker explores (csqp_verify::protocol::MAX_SERIALS).
    let capped = spawn(ServerConfig {
        pipeline_depth: 1_000,
        ..ServerConfig::default()
    });
    let (_stream, depth) = open(&capped.addr().to_string());
    assert_eq!(depth, 16, "window is capped so the machine stays finite");
    capped.shutdown();
}

#[test]
fn a_full_window_of_queries_on_one_connection_answers_every_id() {
    let depth = 6usize;
    let server = spawn(ServerConfig {
        pipeline_depth: depth,
        ..ServerConfig::default()
    });
    let (mut stream, advertised) = open(&server.addr().to_string());
    assert_eq!(advertised as usize, depth);

    let mix = LoadConfig {
        seed: 0x9e3779b9,
        ..LoadConfig::default()
    };
    // The whole window goes out before any reply is read.
    let mut expected_ids = Vec::new();
    for index in 0..depth as u64 {
        let req = nth_request(&mix, 0, index);
        expected_ids.push(req.id);
        write_frame(&mut stream, &Frame::Query(req)).expect("write query");
    }
    let mut answered = Vec::new();
    for _ in 0..depth {
        match next_frame(&mut stream) {
            Frame::Result(record) => answered.push(record.id),
            other => panic!("every query in the window serves: {other:?}"),
        }
    }
    answered.sort_unstable();
    expected_ids.sort_unstable();
    assert_eq!(answered, expected_ids, "each reply matches an issued id");

    let metrics = server.metrics();
    assert_eq!(metrics.submitted(), depth as u64);
    assert_eq!(metrics.queries_served(), depth as u64);
    assert!(metrics.conservation_holds());
    server.shutdown();
}

#[test]
fn mid_pipeline_deadline_expiry_fails_only_its_own_query() {
    let server = spawn(ServerConfig {
        pipeline_depth: 4,
        ..ServerConfig::default()
    });
    let (mut stream, _) = open(&server.addr().to_string());
    let mix = LoadConfig {
        seed: 0xDEAD,
        ..LoadConfig::default()
    };
    // Three pipelined queries; the middle one is already expired.
    for index in 0..3u64 {
        let mut req = nth_request(&mix, 0, index);
        if index == 1 {
            req.deadline_ms = Some(0);
        }
        write_frame(&mut stream, &Frame::Query(req)).expect("write query");
    }
    let mut served = Vec::new();
    let mut expired = Vec::new();
    for _ in 0..3 {
        match next_frame(&mut stream) {
            Frame::Result(record) => served.push(record.id),
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::DeadlineExceeded, "typed expiry: {e:?}");
                expired.push(e.id);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    served.sort_unstable();
    assert_eq!(expired, vec![2], "only the expired query fails (id 2)");
    assert_eq!(served, vec![1, 3], "its neighbors are unaffected");

    let metrics = server.metrics();
    assert_eq!(metrics.timed_out(), 1);
    assert_eq!(metrics.queries_served(), 2);
    assert!(metrics.conservation_holds());
    server.shutdown();
}

#[test]
fn over_window_queries_are_rejected_saturated() {
    // Window of one: two back-to-back queries in a single write arrive
    // in one read pump, so the second is over-window before the first
    // completes.
    let server = spawn(ServerConfig {
        pipeline_depth: 1,
        ..ServerConfig::default()
    });
    let (mut stream, advertised) = open(&server.addr().to_string());
    assert_eq!(advertised, 1);
    let mix = LoadConfig {
        seed: 0xA11,
        ..LoadConfig::default()
    };
    let mut bytes = Vec::new();
    for index in 0..2u64 {
        bytes.extend_from_slice(&Frame::Query(nth_request(&mix, 0, index)).encode());
    }
    use std::io::Write as _;
    stream.write_all(&bytes).expect("both frames in one write");

    let mut served = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..2 {
        match next_frame(&mut stream) {
            Frame::Result(record) => served.push(record.id),
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::Saturated, "window reject: {e:?}");
                assert!(e.retry_after_ms.is_some(), "reject carries a retry hint");
                rejected.push(e.id);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(served, vec![1], "the in-window query serves");
    assert_eq!(rejected, vec![2], "the over-window query is rejected");

    let metrics = server.metrics();
    assert_eq!(metrics.submitted(), 2);
    assert_eq!(metrics.rejected(), 1);
    assert!(metrics.conservation_holds());
    server.shutdown();
}

#[test]
fn pipelined_and_sequential_loads_produce_the_same_digest() {
    let server = spawn(ServerConfig::default());
    let addr = server.addr().to_string();
    let base = LoadConfig {
        addr,
        clients: 3,
        queries_per_client: Some(4),
        seed: 0x5EED,
        ..LoadConfig::default()
    };
    let sequential = run_load(&base).expect("stop-and-wait run");
    let pipelined = run_load(&LoadConfig {
        pipeline: 8,
        ..base.clone()
    })
    .expect("pipelined run");
    assert_eq!(sequential.queries, 12);
    assert_eq!(pipelined.queries, 12);
    assert_eq!(pipelined.errors, 0, "{pipelined:?}");
    assert_eq!(
        sequential.digest, pipelined.digest,
        "same seed, same results, any reply order"
    );
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RESULT frames completing in any order re-associate to the right
    /// query by id: for every issue set and every shuffle of its
    /// completion order, each completion returns exactly the query
    /// issued under that id, and the window drains empty.
    #[test]
    fn shuffled_completion_orders_reassociate_by_id(
        n in 1usize..48,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let mut window = PipelineWindow::new(n);
        let at = Instant::now();
        // Issue n queries with ids 1..=n (the load generator's id
        // scheme: id = index + 1).
        for index in 0..n as u64 {
            let q = IssuedQuery {
                index,
                policy: csqp_core::Policy::QueryShipping,
            };
            prop_assert!(window.issued(index + 1, q, at));
        }
        prop_assert!(!window.has_room() || window.len() < n);
        // Complete in a seeded random order.
        let mut order: Vec<u64> = (1..=n as u64).collect();
        let mut rng = SimRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &id in &order {
            let (q, _) = window.complete(id).expect("every issued id completes");
            prop_assert_eq!(q.index, id - 1, "id {} answers query index {}", id, id - 1);
        }
        prop_assert!(window.is_empty(), "window drains after all completions");
        prop_assert_eq!(window.complete(1), None, "double completion is refused");
    }
}
