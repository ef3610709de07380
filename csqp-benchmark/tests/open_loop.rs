//! The open-loop generator against an in-test TCP peer that stalls: latency
//! counts from the due time, so the stall shows in every request that
//! fell due during it — not as late sends.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpListener;
use std::sync::mpsc::sync_channel;
use std::thread;
use std::time::{Duration, Instant};

use csqp_benchmark::client::{closed_loop, open_loop, Conn, Next, Schedule};
use csqp_benchmark::clock;
use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_serve::proto::{
    read_frame, write_frame, Frame, HelloAck, OptimizerMode, QueryRequest, ResultRecord,
};
use csqp_workload::{WorkloadSpec, MODERATE_SEL};

const REQUESTS: u64 = 60;
const STALL_BEFORE_REPLY: u64 = 10;
const STALL: Duration = Duration::from_millis(50);

fn query(id: u64) -> Vec<u8> {
    Frame::Query(QueryRequest {
        id,
        spec: WorkloadSpec::Chain {
            n: 3,
            selectivity: MODERATE_SEL,
        },
        cache: vec![0.0; 3],
        policy: Policy::QueryShipping,
        objective: Objective::ResponseTime,
        optimizer: OptimizerMode::TwoStep,
        seed: id,
        loads: vec![],
        deadline_ms: None,
        keys: None,
    })
    .encode()
}

/// Queries with ids 1, 2, 3, …
fn numbered() -> Next<'static> {
    let mut id = 0;
    Box::new(move || {
        id += 1;
        Ok(query(id))
    })
}

fn result(id: u64) -> Frame {
    Frame::Result(ResultRecord {
        id,
        response_secs: 1.0,
        pages_sent: 1,
        control_msgs: 0,
        bytes_sent: 4096,
        link_utilization: 0.1,
        disk_utilization: vec![0.0],
        cpu_secs: vec![0.0],
        result_tuples: 1,
        degraded_from: None,
        degrade_reason: None,
    })
}

/// A peer that answers every QUERY at once until the client hangs up,
/// except that it sleeps for `STALL` before answering query number
/// `STALL_BEFORE_REPLY`. Returns when the stall began and ended.
fn stalling_peer(listener: TcpListener, window: u32) -> (Instant, Instant) {
    let (mut s, _) = listener.accept().unwrap();
    assert!(matches!(read_frame(&mut s).unwrap(), Some(Frame::Hello(_))));
    let ack = Frame::HelloAck(HelloAck {
        server: "stalling-peer".to_string(),
        num_servers: 1,
        pipeline_depth: window,
    });
    write_frame(&mut s, &ack).unwrap();
    let mut stall = None;
    let mut n = 0;
    while let Some(frame) = read_frame(&mut s).unwrap() {
        let Frame::Query(q) = frame else {
            panic!("expected a QUERY");
        };
        if n == STALL_BEFORE_REPLY {
            // Stall: wait out STALL on a channel nobody sends on.
            let (_keep_open, never) = sync_channel::<()>(1);
            let began = clock::now();
            let _ = never.recv_timeout(STALL);
            stall = Some((began, clock::now()));
        }
        write_frame(&mut s, &result(q.id)).unwrap();
        n += 1;
    }
    stall.unwrap()
}

#[test]
fn a_stall_shows_in_every_request_that_fell_due_during_it() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || stalling_peer(listener, 4));
    let mut conns = [Conn::open(addr, "open-loop-test").unwrap()];
    assert_eq!(
        conns[0].window, 4,
        "the generator adopts the advertised window"
    );
    let schedule = Schedule {
        start: clock::now(),
        offset: Duration::ZERO,
        interval: Duration::from_millis(2),
        count: REQUESTS,
    };
    let mut outs = open_loop(&mut conns, vec![numbered()], &[schedule], REQUESTS).unwrap();
    drop(conns);
    let (began, ended) = peer.join().unwrap();
    let out = outs.remove(0);

    assert_eq!(out.samples.len() as u64, REQUESTS);
    assert!(out.samples.iter().all(|s| s.ok));
    assert!(out.kept.iter().all(Option::is_some));
    let during: Vec<_> = out
        .samples
        .iter()
        .filter(|s| s.due >= began && s.due < ended)
        .collect();
    assert!(
        during.len() >= 15,
        "a 50 ms stall at 2 ms spacing covers about 25 arrivals, saw {}",
        during.len()
    );
    for s in during {
        assert!(
            s.latency() >= ended - s.due,
            "request {} fell due {:?} before the stall ended but reports {:?}",
            s.index,
            ended - s.due,
            s.latency()
        );
    }
    // Past the window, arrivals could not even be sent during the stall;
    // the generator records that as lateness on top of the latency.
    assert!(out
        .samples
        .iter()
        .any(|s| s.due >= began && s.sent >= ended));
}

#[test]
fn a_closed_loop_charges_a_stall_to_one_request_only() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = thread::spawn(move || stalling_peer(listener, 1));
    let mut conn = Conn::open(addr, "closed-loop-test").unwrap();
    let until = clock::now() + Duration::from_millis(200);
    let out = closed_loop(&mut conn, &mut numbered(), until, 0).unwrap();
    drop(conn);
    peer.join().unwrap();

    assert!(out.samples.len() as u64 > STALL_BEFORE_REPLY + 1);
    let stalled: Vec<_> = out
        .samples
        .iter()
        .filter(|s| s.latency() >= STALL)
        .collect();
    assert_eq!(
        stalled.len(),
        1,
        "only the request in service waits out the stall"
    );
    assert_eq!(stalled[0].index, STALL_BEFORE_REPLY);
    // Each request falls due when the previous reply lands and is
    // timed from its own send.
    for pair in out.samples.windows(2) {
        assert_eq!(pair[1].due, pair[0].done);
        assert_eq!(pair[1].latency(), pair[1].done - pair[1].sent);
    }
}
