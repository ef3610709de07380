//! The percentile helper, the quartile spread, and the bound logic behind
//! `csqp-benchmark compare`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;

use csqp_benchmark::compare::{compare, read_bounds, read_runs};
use csqp_benchmark::server::repo_root;
use csqp_benchmark::stats::{
    highest_supported, percentile, quartiles, spread, verdict, Better, Verdict,
};

#[test]
fn highest_supported_percentile_keeps_ten_samples_beyond() {
    let sample: Vec<u64> = (1..=100).collect();
    assert_eq!(highest_supported(&sample), Some((90.0, 90)));
    let sample: Vec<u64> = (1..=1000).collect();
    let (pct, value) = highest_supported(&sample).unwrap();
    assert_eq!((pct, value), (99.0, 990));
    assert_eq!(sample.iter().filter(|&&x| x > value).count(), 10);
    assert_eq!(highest_supported(&(1..=10).collect::<Vec<u64>>()), None);
    assert_eq!(
        highest_supported(&(1..=11).collect::<Vec<u64>>()),
        Some((100.0 / 11.0, 1))
    );
}

#[test]
fn percentile_is_nearest_rank() {
    let sample: Vec<u64> = (1..=200).collect();
    assert_eq!(percentile(&sample, 0.5), 100.0);
    assert_eq!(percentile(&sample, 0.99), 198.0);
    assert_eq!(percentile(&[], 0.99), 0.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 3.0, 4.5)));
    assert_eq!(quartiles(&[1.0]), None);
    assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    assert_eq!(spread(&[4.0]), 0.0);
}

#[test]
fn verdicts_apply_the_bound_to_medians_and_spread() {
    let base = [100.0, 101.0, 99.0, 100.5, 99.5];
    // Latency 5% worse under a 10% bound: ok; 20% worse: regressed.
    let slower: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
    assert_eq!(verdict(&base, &slower, Better::Lower, 0.10), Verdict::Ok);
    let much_slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
    assert_eq!(
        verdict(&base, &much_slower, Better::Lower, 0.10),
        Verdict::Regressed
    );
    // The same numbers as throughput improved.
    assert_eq!(
        verdict(&base, &much_slower, Better::Higher, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&much_slower, &base, Better::Higher, 0.10),
        Verdict::Regressed
    );
    // Spread wider than the bound: unresolved, whatever the medians say …
    let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
    assert_eq!(
        verdict(&base, &noisy, Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // … unless every change run beats every parent run.
    let noisy_but_faster = [50.0, 60.0, 90.0, 70.0, 80.0];
    assert_eq!(
        verdict(&base, &noisy_but_faster, Better::Lower, 0.10),
        Verdict::Ok
    );
    assert_eq!(
        verdict(&[], &base, Better::Lower, 0.10),
        Verdict::Unresolved
    );
}

#[test]
fn compare_reads_the_committed_bounds_and_run_files() {
    let (metrics, workloads) = read_bounds(&repo_root().join("BENCHMARK.json")).unwrap();
    assert!(metrics
        .iter()
        .any(|m| m.name == "setup_s" && m.better == Better::Lower));
    assert!(metrics.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert_eq!(workloads.len(), 4);

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let line = |w: &str, qps: f64, trace: u8| {
        format!(
            "{{\"workload\":\"{w}\",\"seed\":1,\"trace\":{trace},\"result\":{{\"correct\":true,\
             \"attempted\":10,\"failed\":0,\"metrics\":{{\"throughput_qps\":\
             {{\"value\":{qps},\"unit\":\"1/s\"}}}}}}}}\n"
        )
    };
    let a = dir.join("compare-a.jsonl");
    let b = dir.join("compare-b.jsonl");
    let w = &workloads[0];
    std::fs::write(&a, [100.0, 101.0, 99.0].map(|q| line(w, q, 0)).concat()).unwrap();
    std::fs::write(
        &b,
        [70.0, 71.0, 69.0].map(|q| line(w, q, 0)).concat() + &line(w, 1.0, 1),
    )
    .unwrap();
    let rows = compare(
        &metrics,
        &workloads,
        &read_runs(&a).unwrap(),
        &read_runs(&b).unwrap(),
    );
    assert_eq!(
        rows.len(),
        1,
        "one row per workload × metric present in both"
    );
    assert_eq!(rows[0].metric.name, "throughput_qps");
    assert_eq!((rows[0].base, rows[0].change), (100.0, 70.0));
    assert_eq!(rows[0].verdict, Verdict::Regressed);
}
