//! `csqp-benchmark` — the loopback benchmark for `csqp-serve`.
//!
//! ```text
//! csqp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--out FILE]
//! csqp-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! A run builds `csqp-serve` from the repository's sources, measures one
//! workload (every workload when `--workload` is absent), prints a
//! report on stderr and, as the last line on stdout, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--out` also appends
//! the result, tagged with workload, seed and trace flag, to a run file
//! that `compare` reads. `--smoke` runs at 1/20 scale. The exit code is
//! 0 when every output was correct, 1 when a check failed or the run
//! could not complete, 2 on bad usage.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use csqp_benchmark::compare::{compare, read_bounds, read_runs, render};
use csqp_benchmark::run::{run, RunConfig};
use csqp_benchmark::server::{build_server, repo_root};
use csqp_benchmark::stats::Verdict;
use csqp_benchmark::workload::Workload;
use csqp_json::{obj, Json};

/// Length of the timed phase when `--seconds` is absent; the same value
/// as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// How much `--smoke` shrinks a run.
const SMOKE_SCALE: u64 = 20;

fn usage() -> ! {
    eprintln!(
        "usage: csqp-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out FILE]\n       \
         csqp-benchmark compare A.jsonl B.jsonl [--bounds BENCHMARK.json]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

fn die(msg: String) -> ! {
    eprintln!("csqp-benchmark: {msg}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = 42u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let name = value();
                let w = Workload::parse(&name)
                    .unwrap_or_else(|| die(format!("unknown workload {name}")));
                workloads = vec![w];
            }
            "--seed" => {
                seed = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seed needs an integer".to_string()))
            }
            "--seconds" => {
                let s: f64 = value()
                    .parse()
                    .unwrap_or_else(|_| die("--seconds needs a number".to_string()));
                if !(s > 0.0 && s <= 120.0) {
                    die("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1".to_string()),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value())),
            "--help" | "-h" => usage(),
            other => die(format!("unknown flag {other}")),
        }
    }
    let scale = if smoke { SMOKE_SCALE } else { 1 };
    let seconds = seconds.unwrap_or(DEFAULT_SECONDS / scale as f64);

    let bin = match build_server() {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("csqp-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_correct = true;
    for workload in workloads {
        let cfg = RunConfig {
            workload,
            seed,
            seconds,
            trace,
            scale,
        };
        let result = match run(&cfg, &bin) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("csqp-benchmark: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", result.report);
        let json = result.to_json();
        if let Some(path) = &out {
            let line = obj(vec![
                ("workload", Json::from(workload.name())),
                ("seed", Json::from(seed)),
                ("trace", Json::from(u64::from(trace))),
                ("result", json.clone()),
            ]);
            if let Err(e) = append_line(path, &line.render()) {
                eprintln!("csqp-benchmark: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        println!("{}", json.render());
        all_correct &= result.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &std::path::Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

fn compare_main(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut bounds = repo_root().join("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => bounds = PathBuf::from(it.next().cloned().unwrap_or_else(|| usage())),
            _ => files.push(PathBuf::from(a)),
        }
    }
    let [base, change] = files.as_slice() else {
        usage()
    };
    let loaded = read_bounds(&bounds).and_then(|(metrics, workloads)| {
        Ok((metrics, workloads, read_runs(base)?, read_runs(change)?))
    });
    let (metrics, workloads, base, change) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("csqp-benchmark compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rows = compare(&metrics, &workloads, &base, &change);
    print!("{}", render(&rows));
    if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
