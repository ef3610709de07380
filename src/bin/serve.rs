//! `csqp-serve` — host the catalog, optimizers, and simulated engine as a
//! TCP query service.
//!
//! ```text
//! cargo run --release --bin csqp-serve -- [--addr HOST:PORT] [--servers N]
//!     [--workers N] [--queue N] [--high-water N] [--placement-seed S]
//!     [--pipeline-depth N] [--event-threads N] [--memo-bytes N]
//!     [--no-memo] [--catalog-lag N] [--mem-budget PAGES] [--seconds T]
//! ```
//!
//! `--high-water N` sets the admission high-water mark: past N in-flight
//! queries, HY/DS requests degrade to query shipping instead of queueing
//! expensive work (defaults to 3/4 of the queue depth).
//!
//! `--mem-budget PAGES` arms the guaranteed-bound admission gate
//! (DESIGN.md §16): a chosen plan whose worst-case client footprint —
//! derived by `csqp-verify::bounds` from audited key constraints —
//! exceeds the budget is degraded to query shipping (`degrade_reason =
//! mem-bound`); when even the QS plan cannot fit, the query is rejected
//! with the retryable `mem-bound-exceeded` error. Off by default.
//!
//! `--catalog-lag N` sets the catalog staleness bound: the most
//! coordinator epochs a shard's catalog epoch may trail while its
//! queries still serve fresh (default 3). Past the bound, queries take
//! the typed degradation path — QS downgrade with `stale-catalog`, or a
//! typed reject with a retry hint. The bound only matters once catalog
//! faults drive the epochs (`csqp-load --chaos --catalog-faults`).
//!
//! `--memo-bytes N` bounds the shared site-selection memo (default
//! 64 MiB); `--no-memo` disables it entirely. Served results are
//! byte-identical either way — the memo only trades CPU for memory.
//!
//! Sessions are served by the event-driven engine: a fixed set of
//! reactor loops (`--event-threads`) multiplexing every connection, with
//! up to `--pipeline-depth` queries in flight per session (capped at 16
//! so the session machine stays finite and model-checkable — see
//! `csqp-check --protocol`). The loops wait on `epoll(7)` on Linux and
//! on `poll(2)` elsewhere; the target OS fixes the choice at build time.
//!
//! Without `--seconds` the server runs until killed, printing a metrics
//! line every 10 seconds; with it, the server shuts down gracefully after
//! `T` seconds and prints the final STATS snapshot (the mode the CI smoke
//! test uses).

use std::process::ExitCode;
use std::time::Duration;

use csqp::serve::{Server, ServerConfig};

struct Args {
    config: ServerConfig,
    seconds: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        config: ServerConfig::default(),
        seconds: None,
    };
    args.config.addr = "127.0.0.1:7878".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut raw = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match flag.as_str() {
            "--addr" => args.config.addr = raw("--addr"),
            "--servers" => args.config.num_servers = num(&raw("--servers"), "--servers") as u32,
            "--workers" => args.config.workers = num(&raw("--workers"), "--workers") as usize,
            "--queue" => args.config.queue_depth = num(&raw("--queue"), "--queue") as usize,
            "--high-water" => {
                args.config.high_water = Some(num(&raw("--high-water"), "--high-water") as usize)
            }
            "--placement-seed" => {
                args.config.placement_seed = num(&raw("--placement-seed"), "--placement-seed")
            }
            "--pipeline-depth" => {
                args.config.pipeline_depth =
                    num(&raw("--pipeline-depth"), "--pipeline-depth") as usize
            }
            "--event-threads" => {
                args.config.event_threads = num(&raw("--event-threads"), "--event-threads") as usize
            }
            "--memo-bytes" => {
                args.config.memo_bytes = num(&raw("--memo-bytes"), "--memo-bytes") as usize
            }
            "--no-memo" => args.config.memo = false,
            "--catalog-lag" => {
                args.config.catalog_lag = num(&raw("--catalog-lag"), "--catalog-lag")
            }
            "--mem-budget" => {
                args.config.mem_budget_pages = Some(num(&raw("--mem-budget"), "--mem-budget"))
            }
            "--seconds" => {
                let v = raw("--seconds");
                args.seconds = Some(
                    v.parse::<f64>()
                        .unwrap_or_else(|_| die("--seconds needs a numeric argument".to_string())),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: csqp-serve [--addr HOST:PORT] [--servers N] [--workers N] \
                     [--queue N] [--high-water N] [--placement-seed S] \
                     [--pipeline-depth N] [--event-threads N] [--memo-bytes N] \
                     [--no-memo] [--catalog-lag N] [--mem-budget PAGES] [--seconds T]"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown flag {other}")),
        }
    }
    if args.config.num_servers == 0 {
        die("--servers must be at least 1".to_string());
    }
    if args.config.workers == 0 {
        die("--workers must be at least 1".to_string());
    }
    if args.config.pipeline_depth == 0 {
        die("--pipeline-depth must be at least 1".to_string());
    }
    if args.config.event_threads == 0 {
        die("--event-threads must be at least 1".to_string());
    }
    args
}

fn num(v: &str, name: &str) -> u64 {
    v.parse::<u64>()
        .unwrap_or_else(|_| die(format!("{name} needs a numeric argument")))
}

fn die(msg: String) -> ! {
    eprintln!("csqp-serve: {msg}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args = parse_args();
    let server = match Server::bind(args.config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("csqp-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("csqp-serve: spawn failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("csqp-serve: listening on {}", handle.addr());

    match args.seconds {
        Some(secs) => {
            std::thread::sleep(Duration::from_secs_f64(secs));
            let snap = handle.service().stats_snapshot();
            handle.shutdown();
            println!(
                "csqp-serve: {} submitted, served {} queries ({} rejected, {} errors, \
                 {} aborted, {} timed out, {} degraded), \
                 p50 {:.1} ms p95 {:.1} ms p99 {:.1} ms, {} pages / {} bytes shipped, \
                 memo {} hits / {} misses / {} evictions / {} bytes, \
                 mem-bound {} degraded / {} rejected",
                snap.submitted,
                snap.queries_served,
                snap.rejected,
                snap.errors,
                snap.aborted,
                snap.timed_out,
                snap.degraded,
                snap.p50_ms,
                snap.p95_ms,
                snap.p99_ms,
                snap.wire.data_pages_sent,
                snap.wire.bytes_sent,
                snap.memo_hits,
                snap.memo_misses,
                snap.memo_evictions,
                snap.memo_bytes,
                snap.mem_bound_degraded,
                snap.mem_bound_rejected
            );
        }
        None => loop {
            std::thread::sleep(Duration::from_secs(10));
            let snap = handle.service().stats_snapshot();
            println!(
                "csqp-serve: {} served, {} rejected, {} errors, {} aborted, \
                 {} timed out, {} degraded, p50 {:.1} ms, p99 {:.1} ms",
                snap.queries_served,
                snap.rejected,
                snap.errors,
                snap.aborted,
                snap.timed_out,
                snap.degraded,
                snap.p50_ms,
                snap.p99_ms
            );
        },
    }
    ExitCode::SUCCESS
}
