//! `csqp-load` — drive a seeded workload mix against a `csqp-serve`
//! instance and report throughput and latency percentiles.
//!
//! ```text
//! cargo run --release --bin csqp-load -- [--addr HOST:PORT] [--clients N]
//!     [--seconds T | --queries N] [--seed S] [--policy DS|QS|HY|mix]
//!     [--objective communication|response-time|total-cost]
//!     [--optimizer two-phase|two-step] [--rate R] [--retry-rejected]
//!     [--deadline-ms D] [--pipeline N] [--serve] [--fail-on-rejects]
//!     [--chaos SEED] [--schedules N] [--chaos-queries N] [--intensity F]
//!     [--reply-faults] [--catalog-faults] [--memo-smoke]
//!     [--mem-budget PAGES]
//! ```
//!
//! `--serve` spins up an in-process server on a free port and loads it —
//! the one-command loopback smoke CI runs. `--queries N` issues exactly N
//! queries per client (deterministic runs: the printed digest is
//! identical for identical seeds). `--rate` switches from closed-loop to
//! paced open-loop arrivals. `--pipeline N` keeps up to N queries in
//! flight per connection (clamped to the window the server advertises);
//! the digest is unchanged by pipelining.
//!
//! `--memo-smoke` is the memoization acceptance check: it spins up two
//! in-process servers — one with the shared site-selection memo, one
//! with `--no-memo` semantics — drives the identical seeded two-step mix
//! against both, and fails unless the reply digests are byte-identical
//! and the memo server actually hit its table.
//!
//! `--mem-budget PAGES` is the guaranteed-bound admission smoke: a
//! budget-starved inline server and an unbudgeted one serve the same
//! seeded all-QS mix digest-identically (QS footprints are the result
//! bound alone, so the gate must not touch them), then a mixed-policy
//! mix against the starved server must degrade DS/HY plans to QS with
//! `mem-bound` while conservation holds. See DESIGN.md §16.
//!
//! `--chaos SEED` switches from load generation to the fault-injection
//! soak: the seeded fault schedule runs **twice** and the run fails if
//! the reply digests differ, if accounting conservation is violated, or
//! if a post-soak probe shows a leaked worker. Combine with `--serve`
//! for a self-contained chaos smoke. `--reply-faults` additionally arms
//! the reply path: with `--serve` the inline server mangles replies from
//! the matching seeded plan, and the soak accounts every mangled reply
//! deterministically.
//!
//! `--catalog-faults` arms the catalog drift model instead (requires
//! `--serve`; the soak manages its own pair of inline servers): each
//! server drives its per-shard catalog epochs from the matching seeded
//! plan (withheld refreshes, torn and reordered deliveries, poisoned
//! cached-fraction snapshots), so some queries degrade to query shipping
//! with `stale-catalog` and over-bound QS requests are rejected with a
//! retry hint — all typed replies. Because epoch lag is *server state*
//! that carries across queries, repeatability is proved across two
//! fresh servers rather than back-to-back runs on one: same seed, same
//! fresh state, byte-identical digest. Both recorded drift traces are
//! then audited with `csqp-verify`'s drift-conformance pass: no serve
//! past the staleness bound, no applied epoch regression, faithful lag
//! accounting.
//!
//! No mode here gates a perf number: serving throughput is gated by
//! `csqp-benchmark --smoke` against the committed `BENCH_smoke.jsonl`
//! (the `benchmark-smoke` stage of `scripts/check.sh`, DESIGN.md §20).

use std::process::ExitCode;
use std::time::Duration;

use csqp::core::Policy;
use csqp::cost::Objective;
use csqp::net::chaos::FaultPlan;
use csqp::serve::chaos::{run_chaos, ChaosConfig};
use csqp::serve::proto::OptimizerMode;
use csqp::serve::{run_load, LoadConfig, Server, ServerConfig, ServerHandle};

struct Args {
    load: LoadConfig,
    chaos: Option<ChaosConfig>,
    serve_inline: bool,
    fail_on_rejects: bool,
    memo_smoke: bool,
    mem_budget_smoke: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        load: LoadConfig::default(),
        chaos: None,
        serve_inline: false,
        fail_on_rejects: false,
        memo_smoke: false,
        mem_budget_smoke: None,
    };
    let mut chaos = ChaosConfig::default();
    let mut chaos_seed = None;
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
                let v = num(&raw("--deadline-ms"), "--deadline-ms");
                args.load.deadline_ms = Some(v);
                chaos.deadline_ms = Some(v);
            }
            "--chaos" => chaos_seed = Some(num(&raw("--chaos"), "--chaos")),
            "--schedules" => chaos.schedules = num(&raw("--schedules"), "--schedules"),
            "--chaos-queries" => {
                chaos.queries_per_schedule = num(&raw("--chaos-queries"), "--chaos-queries")
            }
            "--intensity" => {
                chaos.intensity = raw("--intensity")
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--intensity needs a numeric argument".to_string()));
            }
            "--reply-faults" => chaos.reply_faults = true,
            "--catalog-faults" => chaos.catalog_faults = true,
            "--serve" => args.serve_inline = true,
            "--fail-on-rejects" => args.fail_on_rejects = true,
            "--memo-smoke" => args.memo_smoke = true,
            "--mem-budget" => {
                args.mem_budget_smoke = Some(num(&raw("--mem-budget"), "--mem-budget"))
            }
            "--help" | "-h" => {
                println!(
                    "usage: csqp-load [--addr HOST:PORT] [--clients N] [--seconds T | --queries N] \
                     [--seed S] [--policy DS|QS|HY|mix] [--objective O] \
                     [--optimizer two-phase|two-step] [--rate R] [--retry-rejected] \
                     [--deadline-ms D] [--pipeline N] [--serve] [--fail-on-rejects] \
                     [--chaos SEED] [--schedules N] [--chaos-queries N] [--intensity F] \
                     [--reply-faults] [--catalog-faults] [--memo-smoke] \
                     [--mem-budget PAGES]"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown flag {other}")),
        }
    }
    if args.load.clients == 0 {
        die("--clients must be at least 1".to_string());
    }
    if let Some(seed) = chaos_seed {
        chaos.seed = seed;
        chaos.addr = args.load.addr.clone();
        if chaos.catalog_faults && !args.serve_inline {
            die(
                "--catalog-faults needs --serve (the soak manages its own pair of \
                 fresh inline servers to prove digest repeatability)"
                    .to_string(),
            );
        }
        args.chaos = Some(chaos);
    } else if chaos.catalog_faults {
        die("--catalog-faults needs --chaos SEED".to_string());
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

/// With both `--pipeline N` and `--chaos`, a pipelined determinism smoke
/// precedes the soak: the same seeded mix runs stop-and-wait and then
/// pipelined, and the two reply digests must be byte-identical.
fn run_pipeline_smoke(load: &LoadConfig) -> Result<(), String> {
    let base = LoadConfig {
        queries_per_client: Some(load.queries_per_client.unwrap_or(8)),
        pipeline: 1,
        ..load.clone()
    };
    println!(
        "csqp-load: pipeline smoke, seed {} ({} clients x {} queries, window {})",
        base.seed,
        base.clients,
        base.queries_per_client.unwrap_or(8),
        load.pipeline
    );
    let sequential = run_load(&base).map_err(|e| format!("stop-and-wait load failed: {e}"))?;
    let pipelined = run_load(&LoadConfig {
        pipeline: load.pipeline,
        ..base
    })
    .map_err(|e| format!("pipelined load failed: {e}"))?;
    if sequential.errors > 0 || pipelined.errors > 0 {
        return Err(format!(
            "pipeline smoke saw errors ({} stop-and-wait, {} pipelined)",
            sequential.errors, pipelined.errors
        ));
    }
    if sequential.digest != pipelined.digest {
        return Err(format!(
            "pipeline smoke digest mismatch: {:016x} stop-and-wait vs {:016x} at window {}",
            sequential.digest, pipelined.digest, load.pipeline
        ));
    }
    println!(
        "csqp-load: pipeline x{} digest matches stop-and-wait ({:016x})",
        load.pipeline, sequential.digest
    );
    Ok(())
}

/// The memo acceptance smoke: the same seeded two-step mix against a
/// memo-enabled and a memo-disabled server must produce byte-identical
/// reply digests, and the memo server must report hits — proving the
/// memo changes CPU spent, never results served.
fn run_memo_smoke(load: &LoadConfig) -> Result<(), String> {
    let spawn = |memo: bool| {
        Server::bind(ServerConfig {
            memo,
            ..ServerConfig::default()
        })
        .and_then(|s| s.spawn())
        .map_err(|e| format!("memo smoke server (memo={memo}) failed: {e}"))
    };
    let on = spawn(true)?;
    let off = spawn(false)?;
    let base = LoadConfig {
        queries_per_client: Some(load.queries_per_client.unwrap_or(6)),
        optimizer: OptimizerMode::TwoStep,
        ..load.clone()
    };
    println!(
        "csqp-load: memo smoke, seed {} ({} clients x {} queries, two-step)",
        base.seed,
        base.clients,
        base.queries_per_client.unwrap_or(6)
    );
    let result = (|| {
        let warm = run_load(&LoadConfig {
            addr: on.addr().to_string(),
            ..base.clone()
        })
        .map_err(|e| format!("memo-on load failed: {e}"))?;
        let cold = run_load(&LoadConfig {
            addr: off.addr().to_string(),
            ..base.clone()
        })
        .map_err(|e| format!("memo-off load failed: {e}"))?;
        if warm.errors > 0 || cold.errors > 0 {
            return Err(format!(
                "memo smoke saw errors ({} memo-on, {} memo-off)",
                warm.errors, cold.errors
            ));
        }
        if warm.digest != cold.digest {
            return Err(format!(
                "memo smoke digest mismatch: {:016x} with the memo vs {:016x} without",
                warm.digest, cold.digest
            ));
        }
        let snap = on.service().stats_snapshot();
        if snap.memo_hits == 0 {
            return Err(format!(
                "memo smoke never hit the table over a repeated mix: {snap:?}"
            ));
        }
        println!(
            "csqp-load: memo digest matches --no-memo ({:016x}); {} hits / {} misses / {} bytes",
            warm.digest, snap.memo_hits, snap.memo_misses, snap.memo_bytes
        );
        Ok(())
    })();
    on.shutdown();
    off.shutdown();
    result
}

/// The guaranteed-bound admission smoke (`--serve --mem-budget PAGES`):
///
/// 1. The same seeded all-QS mix runs against a budget-starved server
///    and an unbudgeted one. QS plans join at the servers, so their
///    guaranteed client footprint is the result bound alone — the gate
///    must admit every one untouched and the reply digests must be
///    byte-identical (the digest folds the whole RESULT frame, degrade
///    fields included, so this also proves no spurious degradation).
/// 2. A mixed-policy mix runs against the starved server: DS/HY plans
///    whose worst-case client join inputs exceed the budget must degrade
///    to QS with `mem-bound`, with zero errors and the accounting
///    conservation invariant intact.
fn run_mem_budget_smoke(load: &LoadConfig, budget: u64) -> Result<(), String> {
    let spawn = |budget: Option<u64>| {
        Server::bind(ServerConfig {
            mem_budget_pages: budget,
            ..ServerConfig::default()
        })
        .and_then(|s| s.spawn())
        .map_err(|e| format!("mem-budget smoke server (budget={budget:?}) failed: {e}"))
    };
    let starved = spawn(Some(budget))?;
    let honest = spawn(None)?;
    let base = LoadConfig {
        queries_per_client: Some(load.queries_per_client.unwrap_or(8)),
        ..load.clone()
    };
    println!(
        "csqp-load: mem-budget smoke, seed {} ({} clients x {} queries, budget {budget} pages)",
        base.seed,
        base.clients,
        base.queries_per_client.unwrap_or(8)
    );
    let result = (|| {
        let qs = LoadConfig {
            policy: Some(Policy::QueryShipping),
            ..base.clone()
        };
        let gated = run_load(&LoadConfig {
            addr: starved.addr().to_string(),
            ..qs.clone()
        })
        .map_err(|e| format!("budget-starved QS load failed: {e}"))?;
        let ungated = run_load(&LoadConfig {
            addr: honest.addr().to_string(),
            ..qs
        })
        .map_err(|e| format!("unbudgeted QS load failed: {e}"))?;
        if gated.errors > 0 || gated.rejected > 0 || ungated.errors > 0 {
            return Err(format!(
                "QS mix must pass the gate untouched: {} errors / {} rejects starved, \
                 {} errors unbudgeted",
                gated.errors, gated.rejected, ungated.errors
            ));
        }
        if gated.digest != ungated.digest {
            return Err(format!(
                "mem-budget smoke digest mismatch: {:016x} starved vs {:016x} unbudgeted \
                 for an all-QS mix",
                gated.digest, ungated.digest
            ));
        }
        println!(
            "csqp-load: budget-starved QS digest matches unbudgeted ({:016x})",
            gated.digest
        );
        // Phase 2: the mixed-policy mix must take the degradation path.
        let mixed = run_load(&LoadConfig {
            addr: starved.addr().to_string(),
            policy: None,
            ..base.clone()
        })
        .map_err(|e| format!("mixed-policy load failed: {e}"))?;
        if mixed.errors > 0 {
            return Err(format!("mixed-policy mix saw {} errors", mixed.errors));
        }
        let snap = starved.service().stats_snapshot();
        if snap.mem_bound_degraded == 0 {
            return Err(format!(
                "budget {budget} never degraded a DS/HY plan over a mixed mix: {snap:?}"
            ));
        }
        if !snap.conservation_holds() {
            return Err(format!("conservation violated after the smoke: {snap:?}"));
        }
        println!(
            "csqp-load: mixed mix degraded {} plans to QS under the {budget}-page budget \
             ({} rejected); conservation holds over {} submitted",
            snap.mem_bound_degraded, snap.mem_bound_rejected, snap.submitted
        );
        Ok(())
    })();
    starved.shutdown();
    honest.shutdown();
    result
}

/// Run the soak twice with the same seed: the second run must reproduce
/// the first one's reply digest, and both must hold the robustness
/// invariants.
fn run_chaos_twice(cfg: &ChaosConfig) -> Result<(), String> {
    println!(
        "csqp-load: chaos soak, seed {} ({} schedules x {} queries, intensity {:.2})",
        cfg.seed, cfg.schedules, cfg.queries_per_schedule, cfg.intensity
    );
    let first = run_chaos(cfg).map_err(|e| format!("chaos soak failed: {e}"))?;
    println!("{}", first.render());
    if !first.healthy() {
        return Err("chaos soak violated a robustness invariant".to_string());
    }
    let second = run_chaos(cfg).map_err(|e| format!("chaos soak (repeat) failed: {e}"))?;
    if second.digest != first.digest {
        return Err(format!(
            "chaos digest mismatch: {:016x} then {:016x} for seed {}",
            first.digest, second.digest, cfg.seed
        ));
    }
    if !second.healthy() {
        return Err("chaos soak repeat violated a robustness invariant".to_string());
    }
    println!(
        "csqp-load: chaos repeat digest matches ({:016x})",
        first.digest
    );
    Ok(())
}

/// The catalog-fault soak: the same seeded schedule runs against two
/// *fresh* inline servers, each arming catalog propagation faults from
/// the matching seeded plan. The drift model is stateful on the server
/// (epoch lag carries across queries), so repeatability is proved
/// across servers rather than back-to-back runs on one — same seed,
/// same fresh state, same reply digest. Both recorded drift traces are
/// audited against the staleness bound afterwards.
fn run_catalog_chaos(chaos: &ChaosConfig) -> Result<(), String> {
    let bound = ServerConfig::default().catalog_lag;
    let spawn = || {
        // One event thread = one shard = one catalog replica: shard
        // routing is by file descriptor, which the seed does not
        // control, so a single shard is what makes the drift
        // trajectory a pure function of the request stream.
        Server::bind(ServerConfig {
            event_threads: 1,
            catalog_faults: Some(FaultPlan::new(chaos.seed, chaos.intensity)),
            ..ServerConfig::default()
        })
        .and_then(|s| s.spawn())
        .map_err(|e| format!("catalog chaos server failed: {e}"))
    };
    println!(
        "csqp-load: catalog chaos soak, seed {} ({} schedules x {} queries, \
         intensity {:.2}, lag bound {bound})",
        chaos.seed, chaos.schedules, chaos.queries_per_schedule, chaos.intensity
    );
    let a = spawn()?;
    let b = spawn()?;
    let result = (|| {
        let soak = |handle: &ServerHandle| {
            run_chaos(&ChaosConfig {
                addr: handle.addr().to_string(),
                ..chaos.clone()
            })
            .map_err(|e| format!("catalog chaos soak failed: {e}"))
        };
        let first = soak(&a)?;
        println!("{}", first.render());
        if !first.healthy() {
            return Err("catalog chaos soak violated a robustness invariant".to_string());
        }
        audit_drift(&a, bound)?;
        let second = soak(&b)?;
        if !second.healthy() {
            return Err(
                "catalog chaos soak on the fresh server violated a robustness invariant"
                    .to_string(),
            );
        }
        if second.digest != first.digest {
            return Err(format!(
                "catalog chaos digest mismatch across fresh servers: \
                 {:016x} vs {:016x} for seed {}",
                first.digest, second.digest, chaos.seed
            ));
        }
        audit_drift(&b, bound)?;
        println!(
            "csqp-load: catalog chaos digest matches across fresh servers ({:016x})",
            first.digest
        );
        Ok(())
    })();
    a.shutdown();
    b.shutdown();
    result
}

/// Audit a server's recorded catalog drift trace: replay it
/// through `csqp-verify`'s drift-conformance pass and fail on any
/// violation of the degradation lattice.
fn audit_drift(handle: &ServerHandle, bound: u64) -> Result<(), String> {
    let trace = handle.service().drift_trace();
    if trace.is_empty() {
        return Err("catalog faults were armed but the drift trace is empty".to_string());
    }
    let report = csqp::verify::catalog::check_drift(&trace, bound);
    if !report.is_clean() {
        return Err(format!(
            "drift trace failed conformance against bound {bound}:\n{report}"
        ));
    }
    let snap = handle.service().stats_snapshot();
    println!(
        "csqp-load: drift audit clean over {} events (coordinator e{}, {} refreshes, \
         {} degraded, {} rejected, max lag {})",
        trace.len(),
        snap.catalog_epoch,
        snap.catalog_refreshes,
        snap.catalog_stale_degraded,
        snap.catalog_stale_rejected,
        snap.catalog_max_lag
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = parse_args();

    // The memo smoke manages its own pair of inline servers.
    if args.memo_smoke {
        return match run_memo_smoke(&args.load) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("csqp-load: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    // The mem-budget smoke manages its own starved/unbudgeted pair of
    // inline servers.
    if let Some(budget) = args.mem_budget_smoke {
        return match run_mem_budget_smoke(&args.load, budget) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("csqp-load: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    // The catalog-fault soak manages its own pair of fresh inline
    // servers (epoch lag is server state, so repeatability is proved
    // across servers, not runs).
    if let Some(chaos) = &args.chaos {
        if chaos.catalog_faults {
            return match run_catalog_chaos(chaos) {
                Ok(()) => ExitCode::SUCCESS,
                Err(msg) => {
                    eprintln!("csqp-load: {msg}");
                    ExitCode::FAILURE
                }
            };
        }
    }

    // In-process loopback server for one-command smokes. With
    // `--reply-faults` it is armed with the plan the soak expects
    // (seeded from `--chaos SEED` and `--intensity`).
    let inline = if args.serve_inline {
        let mut config = ServerConfig::default();
        if let Some(chaos) = &args.chaos {
            if chaos.reply_faults {
                config.reply_faults = Some(FaultPlan::new(chaos.seed, chaos.intensity));
            }
        }
        let server = match Server::bind(config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("csqp-load: inline server bind failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let handle = match server.spawn() {
            Ok(h) => h,
            Err(e) => {
                eprintln!("csqp-load: inline server spawn failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        args.load.addr = handle.addr().to_string();
        if let Some(chaos) = args.chaos.as_mut() {
            chaos.addr = handle.addr().to_string();
        }
        println!("csqp-load: inline server on {}", handle.addr());
        Some(handle)
    } else {
        None
    };

    // Chaos mode: run the seeded fault schedule twice; fail on any
    // invariant violation or a digest mismatch between the two runs.
    // With `--pipeline N`, a pipelined determinism smoke runs first
    // (skipped when the reply path is armed: mangled replies would make
    // the client-side load generator see wire errors by design).
    if let Some(chaos) = &args.chaos {
        let smoke = if args.load.pipeline > 1 && !chaos.reply_faults {
            run_pipeline_smoke(&args.load)
        } else {
            Ok(())
        };
        let code = match smoke.and_then(|()| run_chaos_twice(chaos)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("csqp-load: {msg}");
                ExitCode::FAILURE
            }
        };
        if let Some(handle) = inline {
            handle.shutdown();
        }
        return code;
    }

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
