//! The `benchmark-smoke` stage of `scripts/check.sh` gates serving
//! throughput by comparing a fresh smoke run against the committed
//! `BENCH_smoke.jsonl` under `BENCH_smoke.bounds.json`. `csqp-benchmark
//! compare` skips every workload or metric missing from either side, so
//! a baseline or bounds file that drifts from `BENCHMARK.json` would
//! drop a workload out of the gate without notice.

// Tests panic on broken setup by design.
#![allow(clippy::expect_used)]

use std::path::Path;

use csqp::json::Json;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn parse(rel: &str, text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The entries of the list `key`, in order.
fn entries<'a>(doc: &'a Json, rel: &str, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{rel} has no `{key}` list"))
}

fn string<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {}", doc.render()))
}

/// The `name` of every entry of the list `key`, in order.
fn names(doc: &Json, rel: &str, key: &str) -> Vec<String> {
    entries(doc, rel, key)
        .iter()
        .map(|e| string(e, "name").to_string())
        .collect()
}

#[test]
fn smoke_baseline_and_bounds_cover_every_benchmark_workload() {
    let bench = parse("BENCHMARK.json", &read("BENCHMARK.json"));
    let workloads = names(&bench, "BENCHMARK.json", "workloads");

    // The bounds: the same workloads in the same order, and only
    // end-to-end metrics BENCHMARK.json declares, with its unit and
    // direction.
    let bounds = parse("BENCH_smoke.bounds.json", &read("BENCH_smoke.bounds.json"));
    assert_eq!(
        names(&bounds, "BENCH_smoke.bounds.json", "workloads"),
        workloads
    );
    let declared = entries(&bench, "BENCHMARK.json", "end_to_end");
    let bounded = entries(&bounds, "BENCH_smoke.bounds.json", "end_to_end");
    assert!(!bounded.is_empty(), "the smoke bounds gate no metric");
    for metric in bounded {
        let name = string(metric, "name");
        let decl = declared
            .iter()
            .find(|d| string(d, "name") == name)
            .unwrap_or_else(|| panic!("`{name}` is not a BENCHMARK.json end_to_end metric"));
        for key in ["unit", "better"] {
            assert_eq!(string(metric, key), string(decl, key), "{name} {key}");
        }
    }

    // The baseline: exactly one untraced, correct run per workload, each
    // carrying a value for every bounded metric.
    let mut baseline: Vec<String> = Vec::new();
    for (n, line) in read("BENCH_smoke.jsonl")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
    {
        let at = format!("BENCH_smoke.jsonl:{}", n + 1);
        let run = parse(&at, line);
        assert_eq!(run.get("trace").and_then(Json::as_u64), Some(0), "{at}");
        let result = run.get("result").expect("a run has a result");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(true),
            "{at}"
        );
        for metric in bounded {
            let name = string(metric, "name");
            assert!(
                result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .is_some(),
                "{at} has no {name}"
            );
        }
        baseline.push(string(&run, "workload").to_string());
    }
    let mut want = workloads;
    want.sort();
    baseline.sort();
    assert_eq!(
        baseline, want,
        "one baseline run per BENCHMARK.json workload"
    );
}
