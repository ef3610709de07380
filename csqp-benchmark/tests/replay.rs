//! The in-process replay against an independent `QueryService`: the
//! traced decomposition must reproduce `handle_query`'s RESULT frame byte
//! for byte on every workload, and its spans must nest as documented.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp_benchmark::clock;
use csqp_benchmark::replay::{totals, Replayer, Span};
use csqp_benchmark::server::server_config;
use csqp_benchmark::workload::{hot_pool, warmup, RequestStream, Workload};
use csqp_serve::proto::Frame;
use csqp_serve::QueryService;

fn check_workload(w: Workload, traced: bool, per_conn: u64) -> Vec<Span> {
    let seed = 21;
    let reference = QueryService::new(server_config());
    let mut replayer = Replayer::new(clock::now(), traced);
    match w {
        Workload::TwostepHot | Workload::TwostepOpen => replayer.warm(&hot_pool(seed)).unwrap(),
        Workload::TwostepCold => replayer.warm(&warmup(w, seed, 20)).unwrap(),
        Workload::TwophaseMix => {}
    }
    for conn in 0..2 {
        let mut stream = RequestStream::new(w, seed, conn);
        for index in 0..per_conn {
            let req = stream.next_request().unwrap();
            let expected = Frame::Result(reference.handle_query(&req).unwrap()).encode();
            let got = replayer
                .replay(conn, index, &Frame::Query(req).encode())
                .unwrap();
            assert_eq!(got.frame, expected, "{} {conn}/{index}", w.name());
            assert_eq!(got.events > 0, traced, "events come from the traced run");
        }
    }
    replayer.tracer.spans().to_vec()
}

#[test]
fn traced_replay_matches_handle_query_on_every_workload() {
    for w in Workload::ALL {
        let spans = check_workload(w, true, 6);
        let t = totals(&spans);
        assert_eq!(t["replay"].count, 12);
        assert_eq!(t["serve.handle_query"].count, 12);
        for layer in [
            "proto.decode_query",
            "workload.build",
            "verify.lint",
            "sim.execute",
            "proto.encode_result",
        ] {
            assert_eq!(t[layer].count, 12, "{}: {layer}", w.name());
        }
        // Two-step planning places the query a second time.
        let catalogs = if w == Workload::TwophaseMix { 12 } else { 24 };
        assert_eq!(t["serve.catalog_for"].count, catalogs, "{}", w.name());
    }
}

#[test]
fn untraced_replay_matches_and_records_nothing() {
    for w in Workload::ALL {
        assert!(check_workload(w, false, 3).is_empty());
    }
}

#[test]
fn memo_outcomes_split_the_planning_spans() {
    let hot = totals(&check_workload(Workload::TwostepHot, true, 5));
    assert_eq!(hot["optimizer.site_select[hit]"].count, 10);
    assert!(!hot.contains_key("optimizer.site_select[miss]"));
    let cold = totals(&check_workload(Workload::TwostepCold, true, 5));
    assert_eq!(cold["optimizer.site_select[miss]"].count, 10);
    assert!(!cold.contains_key("optimizer.site_select[hit]"));
}

#[test]
fn spans_nest_under_their_request_and_self_time_excludes_children() {
    let spans = check_workload(Workload::TwophaseMix, true, 2);
    for s in &spans {
        assert!(s.start_ns <= s.end_ns);
        if let Some(p) = s.parent {
            let parent = &spans[p];
            assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            assert_eq!((parent.conn, parent.index), (s.conn, s.index));
        }
    }
    let t = totals(&spans);
    let handle = t["handle"];
    let children: u64 = [
        "workload.build",
        "serve.catalog_for",
        "optimizer.two_phase",
        "verify.lint",
        "sim.execute",
    ]
    .iter()
    .map(|n| t[*n].total_ns)
    .sum();
    assert_eq!(handle.self_ns, handle.total_ns - children);
}
