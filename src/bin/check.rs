//! `csqp-check` — drive the static analyzer over generated workloads,
//! optimizer traces, and hand-built negative fixtures.
//!
//! ```text
//! cargo run --release --bin csqp-check -- [--plans N] [--servers M] [--seed S]
//!     [--protocol] [--system] [--memo] [--catalog] [--bounds] [--sessions N]
//!     [--depth D] [--budget-secs S]
//! ```
//!
//! Six stages, any failure exits non-zero (`--protocol` runs only
//! stage 4, `--system` only stage 5, and `--memo` only stage 6 — the
//! modes the CI `lint-and-model` and `memo-bench` jobs use):
//!
//! 1. **Positive sweep** — `--plans` (default 1000) random plans per
//!    policy, drawn across the paper's 2-way, 10-way, and SPJ benchmark
//!    queries, each run through all analyzer passes. Any diagnostic on a
//!    generator-produced plan is a false positive (or a real bug in the
//!    generator) and fails the run.
//! 2. **Optimizer traces** — full two-phase optimizations for every
//!    policy × objective, plus long `random_neighbor` walks, verifying
//!    every plan the search accepts; also a determinism lint over an
//!    exponentially-spaced event schedule.
//! 3. **Negative fixtures** — ten hand-built broken artifacts (cyclic
//!    and DAG-shaped plans, policy violations, negative resource
//!    vectors, inverted cost scaling, a selectivity above one, inverted
//!    disk timings, same-timestamp event ties, a regressing trace). Each
//!    must be flagged with the expected diagnostic code.
//! 4. **Protocol model check** — bounded-exhaustive exploration of the
//!    serving engine's session machine (`csqp_verify::protocol::step`,
//!    the exact transition function the event engine interprets) over
//!    every client/worker/fault interleaving to `--depth` events
//!    (default 8), across a spread of pipeline windows. Asserts no
//!    stuck state, no double reply, window conservation, and that
//!    cancellation releases workers; any violation prints its minimal
//!    event trace.
//! 5. **System model check** — bounded-exhaustive exploration of
//!    `--sessions` composed session machines over a shared admission
//!    queue, worker pool, and completion channel
//!    (`csqp_verify::system::system_step`, whose arbitration the engine
//!    interprets), with symmetry reduction and a bounded-lasso liveness
//!    pass. Asserts worker conservation, bounded overtake, no lost
//!    wakeup, and shutdown-sweep completeness. Under `--system` it also
//!    writes `BENCH_check.json` (states, states/sec, peak frontier, wall
//!    time, symmetry shrink), whose state and transition counts must
//!    equal the committed record's at the same sessions and depth.
//!    `--budget-secs` turns the wall-time budget into a hard failure.
//! 6. **Memo consistency** — populate a `csqp-memo` table through the
//!    real memoized two-step entry points over a seeded spec × policy ×
//!    objective × cache-bucket mix, replay the mix asserting every
//!    probe hits with the byte-identical plan, then run
//!    `csqp_verify::memo::check_memo` over every live entry
//!    (fingerprints re-derive from witnesses, plans stay Table-1
//!    conformant, generations and costs are sane).
//! 7. **Catalog drift** (`--catalog`) — feed 256 seeded DS/QS/HY
//!    requests through `QueryService::catalog_verdict`, the server's
//!    own drift model, with a seeded catalog-fault plan armed (withheld,
//!    torn, reordered, poisoned deliveries), twice on fresh services,
//!    asserting byte-identical drift digests; require every fault kind
//!    and every serve action (fresh, degraded, rejected) to occur; run
//!    the `csqp_verify::catalog::check_drift` pass over the recorded
//!    trace; prove an epoch the service publishes makes its memo
//!    recompute; and plant three seeded mutants (over-lag fresh serve,
//!    applied epoch regression, lag misaccounting), each of which must
//!    be caught with its typed diagnostic.
//! 8. **Bound soundness** (`--bounds`) — derive guaranteed worst-case
//!    intermediate-size bounds (`csqp_verify::bounds`) for every
//!    optimizer-produced plan across all policies × objectives and for
//!    seeded random-plan sweeps, asserting the engine's materialized
//!    output never exceeds the static bound on any operator edge; then
//!    plant four mutants (dropped key declaration, a growing operator,
//!    a key the statistics cannot justify, hostile tuple widths), each
//!    of which must be caught (`bound-violated`, `bound-key-unsound`,
//!    `bound-overflow`, or the collapsed bound itself).

use std::process::ExitCode;

use csqp::catalog::{QuerySpec, RelId, SiteId, SystemConfig};
use csqp::core::{Annotation, JoinTree, NodeId, Plan, Policy};
use csqp::cost::{CostModel, Objective, ResourceUsage};
use csqp::json::record::{gate_and_write, Gate};
use csqp::json::Json;
use csqp::optimizer::{random_neighbor, random_plan, MoveSet, OptConfig, Optimizer};
use csqp::simkernel::rng::SimRng;
use csqp::simkernel::SimTime;
use csqp::verify::protocol::ModelChecker;
use csqp::verify::system::{system_step, SystemChecker};
use csqp::verify::{determinism, invariants, structural, Checker, DiagCode, Report};
use csqp::workload::{random_placement, spj_query, ten_way, two_way, MODERATE_SEL};

struct Args {
    plans: usize,
    servers: u32,
    seed: u64,
    depth: usize,
    sessions: u8,
    protocol_only: bool,
    system_only: bool,
    memo_only: bool,
    catalog_only: bool,
    bounds_only: bool,
    budget_secs: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        plans: 1000,
        servers: 4,
        seed: 20260806,
        depth: 8,
        sessions: 3,
        protocol_only: false,
        system_only: false,
        memo_only: false,
        catalog_only: false,
        bounds_only: false,
        budget_secs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| die(format!("{name} needs a numeric argument")))
        };
        match flag.as_str() {
            "--plans" => args.plans = val("--plans") as usize,
            "--servers" => args.servers = val("--servers") as u32,
            "--seed" => args.seed = val("--seed"),
            "--depth" => args.depth = val("--depth") as usize,
            "--sessions" => args.sessions = val("--sessions") as u8,
            "--protocol" => args.protocol_only = true,
            "--system" => args.system_only = true,
            "--memo" => args.memo_only = true,
            "--catalog" => args.catalog_only = true,
            "--bounds" => args.bounds_only = true,
            "--budget-secs" => {
                args.budget_secs = Some(
                    it.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or_else(|| die("--budget-secs needs a number".to_string())),
                )
            }
            "--help" | "-h" => {
                println!(
                    "usage: csqp-check [--plans N] [--servers M] [--seed S] \
                     [--protocol] [--system] [--memo] [--catalog] [--bounds] \
                     [--sessions N] [--depth D] [--budget-secs S]"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown flag {other}")),
        }
    }
    if args.servers == 0 {
        die("--servers must be at least 1".to_string());
    }
    if args.sessions == 0 || args.sessions > 5 {
        // Canonicalization enumerates sessions! permutations; 5 is
        // already far past the symmetric saturation point.
        die("--sessions must be in 1..=5".to_string());
    }
    args
}

fn die(msg: String) -> ! {
    eprintln!("csqp-check: {msg}");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failures = 0usize;

    let full = !args.protocol_only
        && !args.system_only
        && !args.memo_only
        && !args.catalog_only
        && !args.bounds_only;
    if full {
        failures += positive_sweep(&args);
        failures += optimizer_traces(&args);
        failures += negative_fixtures(&args);
    }
    if full || args.protocol_only {
        failures += protocol_model_check(&args);
    }
    if full || args.system_only {
        failures += system_model_check(&args);
    }
    if full || args.memo_only {
        failures += memo_consistency(&args);
    }
    if full || args.catalog_only {
        failures += catalog_consistency(&args);
    }
    if full || args.bounds_only {
        failures += bounds_soundness(&args);
    }

    if failures == 0 {
        println!("\ncsqp-check: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("\ncsqp-check: {failures} failure(s)");
        ExitCode::FAILURE
    }
}

/// Stage 1: every generator-produced plan must verify clean.
fn positive_sweep(args: &Args) -> usize {
    let config = SystemConfig::default();
    let queries: Vec<(&str, QuerySpec)> = vec![
        ("2-way", two_way()),
        ("10-way", ten_way()),
        ("spj-6", spj_query(6, MODERATE_SEL, 0.2, 2)),
    ];
    let mut failures = 0;
    for policy in Policy::ALL {
        let mut rng = SimRng::seed_from_u64(args.seed ^ policy.short().len() as u64);
        let mut checked = 0usize;
        for round in 0..args.plans {
            let (label, query) = &queries[round % queries.len()];
            let servers = args.servers.min(query.num_relations() as u32);
            let catalog = random_placement(query, servers, &mut rng);
            let plan = random_plan(query, policy, &mut rng);
            let report = Checker::new(query, &catalog, &config, SiteId::CLIENT)
                .with_policy(policy)
                .check(&plan);
            if !report.is_clean() {
                eprintln!(
                    "FAIL [{}] random {} plan #{round} produced diagnostics:\n{report}\n{plan}",
                    policy.short(),
                    label
                );
                failures += 1;
            }
            checked += 1;
        }
        println!(
            "positive sweep [{}]: {checked} random plans verified clean",
            policy.short()
        );
    }
    failures
}

/// Stage 2: verify what the optimizer actually produces and visits.
fn optimizer_traces(args: &Args) -> usize {
    let config = SystemConfig::default();
    let query = ten_way();
    let mut rng = SimRng::seed_from_u64(args.seed.wrapping_mul(3));
    let catalog = random_placement(&query, args.servers, &mut rng);
    let mut failures = 0;

    // Full two-phase optimizations, every policy × objective.
    for policy in Policy::ALL {
        for objective in [
            Objective::Communication,
            Objective::ResponseTime,
            Objective::TotalCost,
        ] {
            let model = CostModel::new(&config, &catalog, &query, SiteId::CLIENT);
            let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
            let result = opt.optimize(&query, &mut rng);
            let report = Checker::new(&query, &catalog, &config, SiteId::CLIENT)
                .with_policy(policy)
                .check(&result.plan);
            if !report.is_clean() {
                eprintln!(
                    "FAIL optimizer [{} / {objective}] returned an invalid plan:\n{report}",
                    policy.short()
                );
                failures += 1;
            }
        }
    }
    println!("optimizer traces: 9 policy x objective optimizations verified clean");

    // Long random-neighbor walks: the II/SA move trace in miniature.
    for policy in Policy::ALL {
        let mut plan = random_plan(&query, policy, &mut rng);
        let mut steps = 0usize;
        for _ in 0..500 {
            if let Some((next, _)) =
                random_neighbor(&plan, &query, policy, MoveSet::for_policy(policy), &mut rng)
            {
                let report = Checker::new(&query, &catalog, &config, SiteId::CLIENT)
                    .with_policy(policy)
                    .check(&next);
                if !report.is_clean() {
                    eprintln!(
                        "FAIL [{}] neighbor step {steps} invalid:\n{report}",
                        policy.short()
                    );
                    failures += 1;
                }
                plan = next;
                steps += 1;
            }
        }
        println!(
            "move walk [{}]: {steps} verified neighbor steps",
            policy.short()
        );
    }

    // Determinism lint over a generated event schedule: exponential
    // inter-arrival times with indistinguishable payloads are fine even
    // when collisions happen.
    let mut t = SimTime::ZERO;
    let mut events = Vec::new();
    for _ in 0..2_000 {
        t += rng.exp_duration(csqp::simkernel::SimDuration::from_micros(50));
        events.push((t, "arrival"));
    }
    let ds = determinism::check_queue_determinism(&events, args.seed, 8);
    if ds.is_empty() {
        println!("determinism lint: 2000-event schedule replays identically");
    } else {
        for d in &ds {
            eprintln!("FAIL determinism lint on generated schedule: {d}");
        }
        failures += ds.len();
    }
    failures
}

/// Stage 3: each broken artifact must be flagged with its code.
fn negative_fixtures(args: &Args) -> usize {
    let config = SystemConfig::default();
    let query = csqp::workload::chain_query(3, MODERATE_SEL);
    let mut rng = SimRng::seed_from_u64(args.seed ^ 0xF1F1);
    let catalog = random_placement(&query, 2, &mut rng);
    let checker = || Checker::new(&query, &catalog, &config, SiteId::CLIENT);
    let base = |jann, sann| {
        JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(&query, jann, sann)
    };

    let mut failures = 0;
    let mut fixture = |name: &str, code: DiagCode, report: Report| {
        if report.has(code) {
            println!("negative fixture {name}: flagged as expected ({code})");
        } else {
            eprintln!("FAIL negative fixture {name}: expected {code}, got: {report}");
            failures += 1;
        }
    };

    // 1. Two-node annotation cycle (§2.2.3).
    let mut cyclic = base(Annotation::Consumer, Annotation::PrimaryCopy);
    let joins = cyclic.join_nodes();
    cyclic.node_mut(joins[1]).ann = Annotation::InnerRel;
    fixture(
        "annotation-cycle",
        DiagCode::AnnotationCycle,
        checker().check(&cyclic),
    );

    // 2. Policy violation: a data-shipping plan in query-shipping space.
    let ds_plan = base(Annotation::Consumer, Annotation::Client);
    fixture(
        "policy-violation",
        DiagCode::PolicyViolation,
        checker().with_policy(Policy::QueryShipping).check(&ds_plan),
    );

    // 3. DAG: both join inputs are the same scan node.
    let mut dag = base(Annotation::Consumer, Annotation::Client);
    let scan0 = dag.scan_nodes()[0];
    let top = *dag.join_nodes().last().unwrap_or(&scan0);
    dag.node_mut(top).children[1] = Some(scan0);
    fixture("shared-node", DiagCode::SharedNode, checker().check(&dag));

    // 4. Arity violation: a join missing its probe input.
    let mut lopsided = base(Annotation::Consumer, Annotation::Client);
    let join = lopsided.join_nodes()[0];
    lopsided.node_mut(join).children[1] = None;
    fixture("bad-arity", DiagCode::BadArity, checker().check(&lopsided));

    // 5. Out-of-arena child reference.
    let mut dangling = base(Annotation::Consumer, Annotation::Client);
    let join = dangling.join_nodes()[0];
    dangling.node_mut(join).children[1] = Some(NodeId(4096));
    fixture(
        "dangling-child",
        DiagCode::DanglingChild,
        checker().check(&dangling),
    );

    // 6. Negative resource vector (a sign error in a cost term).
    let mut usage = ResourceUsage::zero(3);
    usage.disk[2] = -1.5;
    fixture(
        "negative-resource",
        DiagCode::NegativeResource,
        Report::from_diagnostics(invariants::check_usage(&usage)),
    );

    // 7. Non-monotone cost: "growing" the relations actually shrinks them.
    let plan = base(Annotation::InnerRel, Annotation::PrimaryCopy);
    let shrunk = {
        let mut q = query.clone();
        for r in &mut q.relations {
            r.tuples /= 4;
        }
        q
    };
    fixture(
        "non-monotone-cost",
        DiagCode::NonMonotoneCost,
        Report::from_diagnostics(invariants::check_monotone_against(
            &plan,
            &config,
            &catalog,
            &query,
            &shrunk,
            SiteId::CLIENT,
        )),
    );

    // 8. Join selectivity above 1.0: estimates exceed the base product.
    let mut inflated = query.clone();
    inflated.edges[0].selectivity = 3.0;
    fixture(
        "cardinality-bound",
        DiagCode::CardinalityBound,
        Report::from_diagnostics(invariants::check_cardinalities(&plan, &config, &inflated)),
    );

    // 9. Config with random I/O faster than sequential.
    let mut inverted = config.clone();
    inverted.disk_rand_page_ms = 1.0;
    fixture(
        "config-invariant",
        DiagCode::ConfigInvariant,
        Report::from_diagnostics(invariants::check_config(&inverted)),
    );

    // 10. Same-timestamp events with distinguishable payloads.
    let ties = vec![
        (SimTime(100), "grant-disk-to-q1"),
        (SimTime(100), "grant-disk-to-q2"),
        (SimTime(250), "done"),
    ];
    fixture(
        "tie-break-nondeterminism",
        DiagCode::TieBreakNondeterminism,
        Report::from_diagnostics(determinism::check_queue_determinism(&ties, args.seed, 16)),
    );

    // 11. A delivery trace that runs backwards.
    let trace = vec![SimTime(10), SimTime(30), SimTime(20)];
    fixture(
        "event-time-regression",
        DiagCode::EventTimeRegression,
        Report::from_diagnostics(determinism::check_pop_trace(&trace)),
    );

    // Structural pass must also survive a fully corrupt arena without
    // panicking (no fixture code asserted; surviving is the check).
    let corrupt = Plan::from_parts(
        vec![csqp::core::plan::PlanNode {
            op: csqp::core::LogicalOp::Join,
            ann: Annotation::Consumer,
            children: [Some(NodeId(7)), Some(NodeId(0))],
        }],
        NodeId(0),
    );
    let ds = structural::check_structure(&corrupt, Some(&query));
    if ds.is_empty() {
        eprintln!("FAIL corrupt arena produced no diagnostics");
        failures += 1;
    } else {
        println!(
            "negative fixture corrupt-arena: {} diagnostics, no panic",
            ds.len()
        );
    }

    failures
}

/// Stage 4: bounded-exhaustive model check of the session protocol.
///
/// Explores `csqp_verify::protocol::step` — the same transition function
/// `csqp-serve`'s event engine interprets — from a fresh session over
/// every enabled event interleaving, across a spread of pipeline
/// windows. The wall time is printed because the exploration carries an
/// explicit budget: depth 8 must finish well under ten seconds.
fn protocol_model_check(args: &Args) -> usize {
    let mut failures = 0;
    for window in [1u8, 2, 4, 16] {
        let start = std::time::Instant::now();
        let (report, stats) = ModelChecker::new(window, args.depth).check_real();
        let secs = start.elapsed().as_secs_f64();
        if report.is_clean() {
            println!(
                "protocol [window {window}]: {} states, {} transitions, \
                 depth {} (deepest new state {}) explored in {secs:.2}s — clean",
                stats.states, stats.transitions, stats.depth, stats.deepest_new_state
            );
        } else {
            eprintln!(
                "FAIL protocol [window {window}] after {} states / {} transitions:\n{report}",
                stats.states, stats.transitions
            );
            failures += report.len();
        }
    }
    failures
}

/// Stage 5: bounded-exhaustive model check of the composed system —
/// `--sessions` session machines over the shared admission queue,
/// worker pool, and completion channel. Under `--system`, also runs the
/// same search without symmetry reduction, to record how much the
/// reduction shrinks the visited set, and gates the counts against
/// `BENCH_check.json`, the checker's perf-trajectory record.
fn system_model_check(args: &Args) -> usize {
    let mut checker = SystemChecker::default();
    checker.sessions = args.sessions;
    checker.depth = args.depth as u32;
    let mut failures = 0;

    let start = std::time::Instant::now();
    let (report, stats) = checker.report();
    let secs = start.elapsed().as_secs_f64();
    if report.is_clean() {
        println!(
            "system [{} sessions, depth {}]: {} states, {} transitions, \
             peak frontier {} explored in {secs:.2}s — clean",
            args.sessions, args.depth, stats.states, stats.transitions, stats.peak_frontier
        );
    } else {
        eprintln!(
            "FAIL system [{} sessions, depth {}] after {} states:\n{report}",
            args.sessions, args.depth, stats.states
        );
        failures += report.len();
    }
    if let Some(budget) = args.budget_secs {
        if secs > budget {
            eprintln!("FAIL system check blew its wall-time budget: {secs:.2}s > {budget}s");
            failures += 1;
        }
    }

    // Only `--system` owns the record: the full sweeps run the model
    // check at their own depth, which is not the recorded config.
    if !args.system_only {
        return failures;
    }

    // The same search keyed on raw (uncanonicalized) states: the
    // denominator of the recorded symmetry-shrink figure.
    let mut raw = checker;
    raw.symmetry = false;
    let (_, raw_stats) = raw.run(system_step);
    let shrink = raw_stats.states as f64 / stats.states.max(1) as f64;
    println!(
        "symmetry reduction: {} raw states -> {} canonical ({shrink:.2}x smaller)",
        raw_stats.states, stats.states
    );

    let states_per_sec = if secs > 0.0 {
        stats.states as f64 / secs
    } else {
        0.0
    };
    match gate_and_write(
        "BENCH_check.json",
        "csqp-check --system",
        vec![
            ("sessions", Json::from(u64::from(args.sessions))),
            ("depth", Json::from(args.depth as u64)),
        ],
        vec![
            ("states", Json::from(stats.states), Gate::Exact),
            ("transitions", Json::from(stats.transitions), Gate::Exact),
            ("peak_frontier", Json::from(stats.peak_frontier), Gate::Info),
            ("wall_secs", Json::from(secs), Gate::Info),
            ("states_per_sec", Json::from(states_per_sec), Gate::Info),
            (
                "states_no_symmetry",
                Json::from(raw_stats.states),
                Gate::Info,
            ),
            ("symmetry_shrink", Json::from(shrink), Gate::Info),
        ],
    ) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("FAIL {e}");
            failures += 1;
        }
    }
    failures
}

/// Stage 6: memo-consistency — drive the real memoized two-step entry
/// points over a seeded mix, replay it asserting byte-identical hits,
/// then run the `csqp-verify` memo pass over every live entry.
fn memo_consistency(args: &Args) -> usize {
    use csqp::core::CancelToken;
    use csqp::memo::{bucket_fraction, CacheBuckets, Env, MemoConfig, MemoTable};
    use csqp::optimizer::{CompileTimeAssumption, MemoOutcome, TwoStepPlanner};
    use csqp::workload::WorkloadSpec;

    let sys = SystemConfig::default();
    let table = MemoTable::new(MemoConfig::default());
    let guard = CancelToken::inert();
    let specs = [
        WorkloadSpec::Chain {
            n: 3,
            selectivity: MODERATE_SEL,
        },
        WorkloadSpec::Star {
            n: 4,
            selectivity: MODERATE_SEL,
        },
        WorkloadSpec::Spj {
            n: 5,
            join_sel: MODERATE_SEL,
            selection: 0.2,
            every_k: 2,
        },
    ];
    let objectives = [
        Objective::Communication,
        Objective::ResponseTime,
        Objective::TotalCost,
    ];
    let mut failures = 0;
    let mut cells = 0usize;
    let mut cold_plans = Vec::new();

    // Two sweeps over the identical mix: the first populates (every
    // probe must miss), the second must hit byte-identically.
    for sweep in 0..2 {
        let mut cell = 0usize;
        for spec in &specs {
            let query = spec.build();
            let servers = args.servers.min(spec.num_relations()).max(1);
            let env = Env {
                placement_seed: args.seed,
                num_servers: servers,
            };
            for policy in Policy::ALL {
                for objective in objectives {
                    for bucket in [0u8, 4] {
                        let buckets = CacheBuckets::quantize(&vec![
                            bucket_fraction(bucket);
                            spec.num_relations() as usize
                        ]);
                        let mut catalog = {
                            let mut c = csqp::catalog::Catalog::new(servers);
                            for (i, r) in query.relations.iter().enumerate() {
                                c.place(r.id, SiteId::server(1 + (i as u32 % servers)));
                            }
                            c
                        };
                        for (rel_index, fraction) in buckets.planning_fractions() {
                            if (rel_index as usize) < query.relations.len() {
                                catalog.set_cached_fraction(
                                    query.relations[rel_index as usize].id,
                                    fraction,
                                );
                            }
                        }
                        let planner = TwoStepPlanner {
                            policy,
                            objective,
                            config: OptConfig::fast(),
                        };
                        let (compiled, _) = planner.compile_memoized(
                            spec,
                            &query,
                            &sys,
                            CompileTimeAssumption::Centralized,
                            env,
                            Some(&table),
                        );
                        let outcome = planner.site_select_memoized(
                            spec,
                            &compiled,
                            &query,
                            &sys,
                            &catalog,
                            &buckets,
                            env,
                            Some(&table),
                            &guard,
                        );
                        let (plan, memo_outcome) = match outcome {
                            Ok(v) => v,
                            Err(r) => {
                                eprintln!("FAIL memo cell #{cell} stopped: {r}");
                                failures += 1;
                                cell += 1;
                                continue;
                            }
                        };
                        match sweep {
                            0 => {
                                if memo_outcome != MemoOutcome::Miss {
                                    eprintln!(
                                        "FAIL memo cell #{cell}: first sweep expected a miss, \
                                         got {memo_outcome:?}"
                                    );
                                    failures += 1;
                                }
                                cold_plans.push(plan);
                                cells += 1;
                            }
                            _ => {
                                if memo_outcome != MemoOutcome::Hit {
                                    eprintln!(
                                        "FAIL memo cell #{cell}: replay expected a hit, \
                                         got {memo_outcome:?}"
                                    );
                                    failures += 1;
                                } else if cold_plans[cell] != plan {
                                    eprintln!(
                                        "FAIL memo cell #{cell}: hit diverged from cold plan"
                                    );
                                    failures += 1;
                                }
                            }
                        }
                        cell += 1;
                    }
                }
            }
        }
    }

    let snap = table.snapshot();
    if snap.hits == 0 {
        eprintln!("FAIL memo replay produced no hits");
        failures += 1;
    }
    let report = csqp::verify::memo::check_memo(&table);
    if report.is_clean() {
        println!(
            "memo consistency: {cells} cells populated and replayed byte-identically; \
             {} entries verified clean ({} hits, {} misses, {} bytes)",
            snap.entries, snap.hits, snap.misses, snap.bytes
        );
    } else {
        eprintln!("FAIL memo-consistency pass:\n{report}");
        failures += report.len();
    }

    // A generation bump must invalidate every entry: replaying one cell
    // now has to miss rather than serve a stale plan.
    table.bump_generation();
    let spec = &specs[0];
    let query = spec.build();
    let servers = args.servers.min(spec.num_relations()).max(1);
    let env = Env {
        placement_seed: args.seed,
        num_servers: servers,
    };
    let planner = TwoStepPlanner {
        policy: Policy::ALL[0],
        objective: objectives[0],
        config: OptConfig::fast(),
    };
    let (_, outcome) = planner.compile_memoized(
        spec,
        &query,
        &sys,
        CompileTimeAssumption::Centralized,
        env,
        Some(&table),
    );
    if outcome != MemoOutcome::Miss {
        eprintln!("FAIL generation bump did not invalidate: got {outcome:?}");
        failures += 1;
    } else {
        println!("memo invalidation: generation bump forces a recompute, never a stale plan");
    }
    failures
}

/// Stage 7: seeded catalog drift replay through the server's own drift
/// model (`QueryService::catalog_verdict`), the drift-conformance pass,
/// a coverage check over every fault kind and serve action, the
/// epoch→memo invalidation proof on the served memo, and three planted
/// mutants that must each be caught with its typed diagnostic.
fn catalog_consistency(args: &Args) -> usize {
    use csqp::catalog::{DriftAction, DriftEvent};
    use csqp::net::chaos::{CatalogFault, FaultPlan};
    use csqp::optimizer::{CompileTimeAssumption, MemoOutcome, TwoStepPlanner};
    use csqp::serve::load::{nth_request, LoadConfig};
    use csqp::serve::server::fnv1a;
    use csqp::serve::{QueryService, ServerConfig};
    use csqp::verify::catalog::check_drift;
    use csqp::workload::WorkloadSpec;

    let mut failures = 0usize;
    let shards = args.servers.max(1) as usize;
    let bound = 2u64;
    const QUERIES: u64 = 256;
    let faults = FaultPlan::new(args.seed, 0.5);
    let service = || {
        QueryService::new(ServerConfig {
            catalog_faults: Some(faults),
            catalog_lag: bound,
            event_threads: shards,
            ..ServerConfig::default()
        })
    };
    let load = LoadConfig {
        seed: args.seed,
        ..LoadConfig::default()
    };
    let requests: Vec<_> = (0..QUERIES).map(|i| nth_request(&load, 0, i)).collect();

    // One full drift replay: a fresh service admits the seeded DS/QS/HY
    // mix at rotating shards, and its own drift model publishes epochs,
    // applies the fault plan's refreshes, decides each serve and records
    // the trace.
    let replay = || {
        let svc = service();
        for (i, req) in requests.iter().enumerate() {
            let _ = svc.catalog_verdict(i % shards, req);
        }
        let trace = svc.drift_trace();
        let rendered: String = trace.iter().map(|e| format!("{e:?};")).collect();
        (trace, fnv1a(rendered.as_bytes()), svc.catalog_epoch())
    };

    // Same seed, same drift trajectory, byte-identical digest.
    let (trace, digest_a, coord) = replay();
    let (_, digest_b, _) = replay();
    if digest_a != digest_b {
        eprintln!("FAIL drift replay diverged: {digest_a:016x} vs {digest_b:016x}");
        failures += 1;
    }

    // The replay must reach every fault kind and every serve action, or
    // the conformance pass below audits less than it claims.
    let fault_counts: Vec<(&str, usize)> = std::iter::once(CatalogFault::None)
        .chain(CatalogFault::ALL)
        .map(|kind| {
            let n = requests
                .iter()
                .filter(|r| faults.catalog_fault_for(r.seed) == kind)
                .count();
            (kind.name(), n)
        })
        .collect();
    let action_counts: Vec<(&str, usize)> = [
        ("fresh", DriftAction::Fresh),
        ("degraded", DriftAction::Degraded),
        ("rejected", DriftAction::Rejected),
    ]
    .into_iter()
    .map(|(name, want)| {
        let n = trace
            .iter()
            .filter(|e| matches!(e, DriftEvent::Serve { action, .. } if *action == want))
            .count();
        (name, n)
    })
    .collect();
    let render = |counts: &[(&str, usize)]| {
        counts
            .iter()
            .map(|(name, n)| format!("{name} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (name, n) in fault_counts.iter().chain(&action_counts) {
        if *n == 0 {
            eprintln!("FAIL drift replay never drew {name}");
            failures += 1;
        }
    }

    let report = check_drift(&trace, bound);
    if report.is_clean() {
        println!(
            "catalog drift: {QUERIES} queries served through QueryService::catalog_verdict, \
             replayed twice with identical digest {digest_a:016x}; {} events verified clean \
             (coordinator at e{coord}); faults: {}; serves: {}",
            trace.len(),
            render(&fault_counts),
            render(&action_counts)
        );
    } else {
        eprintln!("FAIL drift-conformance pass over an honest replay:\n{report}");
        failures += report.len();
    }

    // An epoch publication must force a memo recompute: warm a memoized
    // compile on a service's own memo, let the service publish an epoch,
    // and the same compile must miss.
    {
        let svc = service();
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: MODERATE_SEL,
        };
        let query = spec.build();
        let planner = TwoStepPlanner {
            policy: Policy::ALL[0],
            objective: Objective::Communication,
            config: OptConfig::fast(),
        };
        let compile = || {
            planner
                .compile_memoized(
                    &spec,
                    &query,
                    &SystemConfig::default(),
                    CompileTimeAssumption::Centralized,
                    svc.memo_env(&spec),
                    svc.memo(),
                )
                .1
        };
        let _ = compile();
        if compile() != MemoOutcome::Hit {
            eprintln!("FAIL catalog/memo warmup never hit");
            failures += 1;
        }
        let _ = svc.catalog_verdict(0, &requests[0]);
        if compile() != MemoOutcome::Miss {
            eprintln!("FAIL epoch publication did not force a memo recompute");
            failures += 1;
        } else {
            println!(
                "catalog invalidation: the epoch a catalog_verdict call publishes bumps the \
                 served memo's generation and forces a recompute"
            );
        }
    }

    // Three planted mutants, each of which must be caught with exactly
    // its typed diagnostic. Mutants extend the honest trace at shard 0,
    // so the reconstruction state they confront is the real one.
    let shard0 = trace
        .iter()
        .rev()
        .find_map(|e| match *e {
            DriftEvent::Serve {
                site: 0,
                priced_epoch,
                ..
            } => Some(priced_epoch),
            _ => None,
        })
        .unwrap_or(0);
    let mutants: [(&str, DiagCode, Vec<DriftEvent>); 3] = [
        (
            "withheld refresh served fresh past the bound",
            DiagCode::CatalogStaleServed,
            {
                let mut t = trace.clone();
                for k in 1..=(bound + 1) {
                    t.push(DriftEvent::Publish { epoch: coord + k });
                }
                let new_coord = coord + bound + 1;
                t.push(DriftEvent::Serve {
                    site: 0,
                    priced_epoch: shard0,
                    coordinator_epoch: new_coord,
                    lag: new_coord - shard0,
                    action: DriftAction::Fresh,
                });
                t
            },
        ),
        (
            "shard applied an epoch regression",
            DiagCode::CatalogEpochRegress,
            {
                let mut t = trace.clone();
                t.push(DriftEvent::Refresh {
                    site: 0,
                    from: shard0,
                    to: shard0.saturating_sub(1),
                    applied: true,
                });
                t
            },
        ),
        (
            "serve decision misaccounted its lag",
            DiagCode::CatalogLagBound,
            {
                let mut t = trace.clone();
                t.push(DriftEvent::Serve {
                    site: 0,
                    priced_epoch: shard0,
                    coordinator_epoch: coord,
                    lag: (coord - shard0) + 1,
                    action: DriftAction::Degraded,
                });
                t
            },
        ),
    ];
    if shard0 == 0 {
        // The regression mutant needs a shard that has refreshed at
        // least once; with 256 seeded queries this cannot happen unless
        // the fault plan itself broke.
        eprintln!("FAIL shard 0 never refreshed across the whole replay");
        failures += 1;
    }
    for (what, code, mutated) in &mutants {
        let report = check_drift(mutated, bound);
        if report.has(*code) {
            println!("catalog mutant caught: {what} -> {}", code.as_str());
        } else {
            eprintln!(
                "FAIL mutant not caught ({what}): expected {}",
                code.as_str()
            );
            failures += 1;
        }
    }
    failures
}

/// Stage 8: guaranteed-bound soundness — every plan the optimizer
/// produces (and a seeded random-plan sweep per policy) must keep its
/// materialized output within the static worst-case bound on every
/// operator edge; then four planted mutants must each be caught.
fn bounds_soundness(args: &Args) -> usize {
    use csqp::verify::bounds;
    use csqp::workload::{chain_query, star_query, HISEL_SEL};

    let config = SystemConfig::default();
    let left_deep = |query: &QuerySpec| -> Plan {
        let order: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
        JoinTree::left_deep(&order).into_plan(query, Annotation::Consumer, Annotation::Client)
    };
    let queries: Vec<(&str, QuerySpec)> = vec![
        ("chain-3", chain_query(3, MODERATE_SEL)),
        ("chain-5", chain_query(5, HISEL_SEL)),
        ("star-4", star_query(4, MODERATE_SEL)),
        ("spj-6", spj_query(6, MODERATE_SEL, 0.2, 2)),
        ("2-way", two_way()),
        ("10-way", ten_way()),
    ];
    let mut failures = 0usize;

    // Optimizer-produced plans: every spec × policy × objective. These
    // are the plans the server actually executes, so a bound violation
    // here is exactly the admission gate lying about worst-case memory.
    let mut optimized = 0usize;
    for (label, query) in &queries {
        let mut rng = SimRng::seed_from_u64(args.seed ^ 0xB0B0);
        let servers = args.servers.min(query.num_relations() as u32).max(1);
        let catalog = random_placement(query, servers, &mut rng);
        for policy in Policy::ALL {
            for objective in [
                Objective::Communication,
                Objective::ResponseTime,
                Objective::TotalCost,
            ] {
                let model = CostModel::new(&config, &catalog, query, SiteId::CLIENT);
                let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
                let result = opt.optimize(query, &mut rng);
                let diags = bounds::check_plan(query, config.page_size, &result.plan);
                if !diags.is_empty() {
                    eprintln!(
                        "FAIL bounds [{label} {} / {objective}]: optimizer plan \
                         escapes its guaranteed bound:",
                        policy.short()
                    );
                    for d in &diags {
                        eprintln!("  {d}");
                    }
                    failures += 1;
                }
                optimized += 1;
            }
        }
    }
    println!("bounds sweep: {optimized} optimizer plans stay within their static bounds");

    // Random plans: the generator's whole plan space, per policy, so the
    // bound rules hold for every shape the search may visit, not just
    // the shapes it prefers.
    for policy in Policy::ALL {
        let mut rng = SimRng::seed_from_u64(args.seed ^ 0xB0B1 ^ policy.short().len() as u64);
        let rounds = (args.plans / 4).max(100);
        let mut clean = 0usize;
        for round in 0..rounds {
            let (label, query) = &queries[round % queries.len()];
            let plan = random_plan(query, policy, &mut rng);
            let diags = bounds::check_plan(query, config.page_size, &plan);
            if diags.is_empty() {
                clean += 1;
            } else {
                eprintln!(
                    "FAIL bounds [{} random {label} #{round}]: {} diagnostics, first: {}",
                    policy.short(),
                    diags.len(),
                    diags[0]
                );
                failures += 1;
            }
        }
        println!(
            "bounds sweep [{}]: {clean}/{rounds} random plans within bounds",
            policy.short()
        );
    }

    // Mutant 1: dropped key. A peer that strips the key declarations
    // must lose the tight bound — every join collapses to the product
    // rule. If the bound did NOT move, the key rule was never
    // load-bearing and the analyzer is vacuous.
    {
        let keyed = chain_query(3, MODERATE_SEL);
        let mut dropped = keyed.clone();
        for r in &mut dropped.relations {
            r.key = false;
        }
        let plan = left_deep(&keyed);
        match (
            bounds::analyze(&plan, &keyed, config.page_size),
            bounds::analyze(&plan, &dropped, config.page_size),
        ) {
            (Ok(tight), Ok(loose)) if tight.root().tuples < loose.root().tuples => println!(
                "bounds mutant caught: dropped key collapses the root bound \
                 {} -> {} tuples (the key rule is load-bearing)",
                tight.root().tuples,
                loose.root().tuples
            ),
            _ => {
                eprintln!("FAIL bounds mutant not caught: dropping keys left the bound unchanged");
                failures += 1;
            }
        }
    }

    // Mutant 2: a growing operator. A join edge whose selectivity
    // exceeds one materializes more tuples than any instance consistent
    // with the base statistics admits — the dynamic check must flag the
    // executed output as exceeding the product bound.
    {
        let mut q = chain_query(3, 1e-3); // unkeyed: isolates the violation
        q.edges[0].selectivity = 2.0;
        let plan = left_deep(&q);
        let diags = bounds::check_plan(&q, config.page_size, &plan);
        if diags.iter().any(|d| d.code == DiagCode::BoundViolated) {
            println!(
                "bounds mutant caught: growing operator -> {}",
                DiagCode::BoundViolated.as_str()
            );
        } else {
            eprintln!(
                "FAIL bounds mutant not caught (growing operator): expected {}",
                DiagCode::BoundViolated.as_str()
            );
            failures += 1;
        }
    }

    // Mutant 3: an unsound key declaration. Keys the selectivities
    // cannot justify must be audited out — flagged, and *not* believed
    // by the analyzer (the bound stays at the product rule).
    {
        let mut q = chain_query(3, 1e-3); // 1e-3 > 1/10,000: no key is justified
        for r in &mut q.relations {
            r.key = true;
        }
        let plan = left_deep(&q);
        let diags = bounds::check_plan(&q, config.page_size, &plan);
        let flagged = diags.iter().any(|d| d.code == DiagCode::BoundKeyUnsound);
        let believed = bounds::analyze(&plan, &q, config.page_size)
            .map(|b| b.root().tuples < 1_000_000_000_000)
            .unwrap_or(true);
        if flagged && !believed {
            println!(
                "bounds mutant caught: unsound key declaration -> {} (and ignored)",
                DiagCode::BoundKeyUnsound.as_str()
            );
        } else {
            eprintln!(
                "FAIL bounds mutant not caught (unsound key): flagged={flagged} \
                 believed={believed}"
            );
            failures += 1;
        }
    }

    // Mutant 4: hostile statistics the page model cannot stand behind
    // (tuples wider than a page) must surface as a typed overflow, not
    // a panic or a silent wrap.
    {
        let mut q = chain_query(2, MODERATE_SEL);
        for r in &mut q.relations {
            r.tuple_bytes = 2 * config.page_size;
        }
        let plan = left_deep(&q);
        let diags = bounds::check_plan(&q, config.page_size, &plan);
        if diags.iter().any(|d| d.code == DiagCode::BoundOverflow) {
            println!(
                "bounds mutant caught: hostile tuple width -> {}",
                DiagCode::BoundOverflow.as_str()
            );
        } else {
            eprintln!(
                "FAIL bounds mutant not caught (hostile width): expected {}",
                DiagCode::BoundOverflow.as_str()
            );
            failures += 1;
        }
    }
    failures
}
