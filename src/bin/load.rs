//! `csqp-load` — drive a seeded workload mix against a `csqp-serve`
//! instance and report throughput and latency percentiles.
//!
//! ```text
//! cargo run --release --bin csqp-load -- [--addr HOST:PORT] [--clients N]
//!     [--seconds T | --queries N] [--seed S] [--policy DS|QS|HY|mix]
//!     [--objective communication|response-time|total-cost]
//!     [--optimizer two-phase|two-step] [--rate R] [--retry-rejected]
//!     [--deadline-ms D] [--pipeline N] [--serve] [--fail-on-rejects]
//! ```
//!
//! `--serve` spins up an in-process server on a free port and loads it —
//! the one-command loopback smoke (`serve-smoke` in `scripts/check.sh`).
//! `--queries N` issues exactly N queries per client (deterministic
//! runs: the printed digest is identical for identical seeds). `--rate`
//! switches from closed-loop to paced open-loop arrivals. `--pipeline N`
//! keeps up to N queries in flight per connection (clamped to the window
//! the server advertises); the digest is unchanged by pipelining.
//!
//! This is only a load generator. The correctness checks over live
//! servers — memo on/off, memory budget, chaos, reply and catalog
//! faults, pipelining — are the integration tests in
//! `crates/serve/tests`, and serving throughput is gated by
//! `csqp-benchmark --smoke` against the committed `BENCH_smoke.jsonl`
//! (the `benchmark-smoke` stage of `scripts/check.sh`, DESIGN.md §20).

use std::process::ExitCode;
use std::time::Duration;

use csqp::core::Policy;
use csqp::cost::Objective;
use csqp::serve::proto::OptimizerMode;
use csqp::serve::{run_load, LoadConfig, Server, ServerConfig};

struct Args {
    load: LoadConfig,
    serve_inline: bool,
    fail_on_rejects: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        load: LoadConfig::default(),
        serve_inline: false,
        fail_on_rejects: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut raw = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match flag.as_str() {
            "--addr" => args.load.addr = raw("--addr"),
            "--clients" => args.load.clients = num(&raw("--clients"), "--clients") as usize,
            "--seconds" => {
                let v = raw("--seconds")
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--seconds needs a numeric argument".to_string()));
                args.load.duration = Duration::from_secs_f64(v);
            }
            "--queries" => args.load.queries_per_client = Some(num(&raw("--queries"), "--queries")),
            "--seed" => args.load.seed = num(&raw("--seed"), "--seed"),
            "--policy" => {
                args.load.policy = match raw("--policy").as_str() {
                    "DS" => Some(Policy::DataShipping),
                    "QS" => Some(Policy::QueryShipping),
                    "HY" => Some(Policy::HybridShipping),
                    "mix" => None,
                    other => die(format!("unknown policy {other} (want DS|QS|HY|mix)")),
                }
            }
            "--objective" => {
                args.load.objective = match raw("--objective").as_str() {
                    "communication" => Objective::Communication,
                    "response-time" => Objective::ResponseTime,
                    "total-cost" => Objective::TotalCost,
                    other => die(format!("unknown objective {other}")),
                }
            }
            "--optimizer" => {
                args.load.optimizer = match raw("--optimizer").as_str() {
                    "two-phase" => OptimizerMode::TwoPhase,
                    "two-step" => OptimizerMode::TwoStep,
                    other => die(format!(
                        "unknown optimizer {other} (want two-phase|two-step)"
                    )),
                }
            }
            "--rate" => {
                let v = raw("--rate")
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--rate needs a numeric argument".to_string()));
                args.load.rate = Some(v);
            }
            "--retry-rejected" => args.load.retry_rejected = true,
            "--pipeline" => args.load.pipeline = num(&raw("--pipeline"), "--pipeline") as usize,
            "--deadline-ms" => {
                args.load.deadline_ms = Some(num(&raw("--deadline-ms"), "--deadline-ms"))
            }
            "--serve" => args.serve_inline = true,
            "--fail-on-rejects" => args.fail_on_rejects = true,
            "--help" | "-h" => {
                println!(
                    "usage: csqp-load [--addr HOST:PORT] [--clients N] [--seconds T | --queries N] \
                     [--seed S] [--policy DS|QS|HY|mix] [--objective O] \
                     [--optimizer two-phase|two-step] [--rate R] [--retry-rejected] \
                     [--deadline-ms D] [--pipeline N] [--serve] [--fail-on-rejects]"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown flag {other}")),
        }
    }
    if args.load.clients == 0 {
        die("--clients must be at least 1".to_string());
    }
    args
}

fn num(v: &str, name: &str) -> u64 {
    v.parse::<u64>()
        .unwrap_or_else(|_| die(format!("{name} needs a numeric argument")))
}

fn die(msg: String) -> ! {
    eprintln!("csqp-load: {msg}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut args = parse_args();

    // In-process loopback server for one-command smokes.
    let inline = if args.serve_inline {
        let handle = match Server::bind(ServerConfig::default()).and_then(|s| s.spawn()) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("csqp-load: inline server failed to start: {e}");
                return ExitCode::FAILURE;
            }
        };
        args.load.addr = handle.addr().to_string();
        println!("csqp-load: inline server on {}", handle.addr());
        Some(handle)
    } else {
        None
    };

    let report = match run_load(&args.load) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("csqp-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.render());

    if let Some(handle) = inline {
        handle.shutdown();
    }

    if report.errors > 0 {
        eprintln!("csqp-load: {} queries failed", report.errors);
        return ExitCode::FAILURE;
    }
    if args.fail_on_rejects && report.rejected > 0 {
        eprintln!(
            "csqp-load: {} queries rejected by admission control",
            report.rejected
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
