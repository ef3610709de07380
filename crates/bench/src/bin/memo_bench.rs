//! `csqp-bench` — the pinned, seeded memo and simulator bench suites.
//!
//! ```text
//! cargo run --release --bin csqp-bench -- [--queries N] [--seed S]
//!     [--servers M] [--out PATH]
//! cargo run --release --bin csqp-bench -- --sim [--queries N] [--seed S]
//!     [--servers M] [--out PATH]
//! ```
//!
//! Each mode writes its record through `csqp_json::record`, which first
//! holds the run against the record already at `--out` (same config):
//! memo mode's `speedup` and sim mode's `events_per_sec` must reach a
//! third of the committed value, and sim mode's `total_events` and
//! `digest` must equal it (DESIGN.md §20).
//!
//! **Memo mode** (default) draws a fixed `--queries` (default 1000) mix from a bounded pool of
//! (spec × policy × objective × cache-bucket) planning scenarios, then
//! times the two-step planning path twice over the identical mix:
//!
//! * **cold** — memo disabled: every query pays compile + full
//!   simulated-annealing site selection;
//! * **warm** — one shared memo table across the whole mix: the first
//!   occurrence of each distinct scenario misses and installs, every
//!   repeat hits.
//!
//! Emits `BENCH_optimizer.json` (cold plans/sec, warm plans/sec, memo
//! hit rate, speedup) so the optimizer-throughput trajectory is tracked
//! across PRs — ROADMAP's "continuous perf trajectory" item for the
//! planning path.
//!
//! Wall-clock time here is the measurement, never an experiment result:
//! plans produced under timing are additionally cross-checked
//! cold-vs-warm for byte equality, which is a correctness gate, not a
//! timing.
//!
//! **Sim mode** (`--sim`) times the discrete-event simulator itself: it
//! pre-plans a pinned set of benchmark queries (shapes × all three
//! policies, planning outside the timed loop), then replays `--queries`
//! seeded executions round-robin over those plans and reports kernel
//! events dispatched per wall-clock second. Emits `BENCH_sim.json` so
//! the simulator-throughput trajectory is tracked across PRs alongside
//! the planning path. Before any timing is reported, the first slice of
//! the mix is re-executed with identical seeds and must reproduce the
//! exact event counts and response times (determinism gate). The
//! binary runs on a counting global
//! allocator that counts only during sim mode's timed loop, so sim mode
//! also reports heap allocations per kernel event (`allocs_per_event`)
//! while memo mode's timings see no counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use csqp_catalog::{Catalog, QuerySpec, SiteId, SystemConfig};
use csqp_core::{CancelToken, Plan, Policy};
use csqp_cost::Objective;
use csqp_experiments::common::Scenario;
use csqp_experiments::run_query;
use csqp_json::record::{gate_and_write, Gate};
use csqp_json::Json;
use csqp_memo::{bucket_fraction, CacheBuckets, Env, MemoConfig, MemoTable};
use csqp_optimizer::{CompileTimeAssumption, MemoOutcome, OptConfig, TwoStepPlanner};
use csqp_simkernel::rng::SimRng;
use csqp_workload::{
    chain_query, random_placement, star_query, two_way, WorkloadSpec, MODERATE_SEL,
};

/// The system allocator, counting every call that obtains memory
/// (`alloc`, `alloc_zeroed`, `realloc`) while [`COUNTING`] is set.
struct CountingAlloc;

/// Set only around sim mode's timed loop. Elsewhere an allocation pays
/// a plain load instead of an atomic add; always counting slowed memo
/// mode's cold planning by about 10% (DESIGN.md §18.7).
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Heap calls counted so far; a statistic, so `Relaxed` publishes
/// nothing.
static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);

fn count_heap_call() {
    if COUNTING.load(Ordering::Relaxed) {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_call();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    queries: usize,
    seed: u64,
    servers: u32,
    /// Empty until resolved: defaults to `BENCH_optimizer.json` (memo
    /// mode) or `BENCH_sim.json` (`--sim`).
    out: String,
    sim: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        queries: 1000,
        seed: 0xB_E7C4,
        servers: 4,
        out: String::new(),
        sim: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut raw = |name: &str| {
            it.next()
                .unwrap_or_else(|| die(format!("{name} needs an argument")))
        };
        match flag.as_str() {
            "--queries" => args.queries = num(&raw("--queries"), "--queries") as usize,
            "--seed" => args.seed = num(&raw("--seed"), "--seed"),
            "--servers" => args.servers = num(&raw("--servers"), "--servers") as u32,
            "--out" => args.out = raw("--out"),
            "--sim" => args.sim = true,
            "--help" | "-h" => {
                println!(
                    "usage: csqp-bench [--sim] [--queries N] [--seed S] [--servers M] \
                     [--out PATH]"
                );
                std::process::exit(0);
            }
            other => die(format!("unknown flag {other}")),
        }
    }
    if args.queries == 0 {
        die("--queries must be at least 1".to_string());
    }
    if args.servers == 0 {
        die("--servers must be at least 1".to_string());
    }
    if args.out.is_empty() {
        args.out = if args.sim {
            "BENCH_sim.json".to_string()
        } else {
            "BENCH_optimizer.json".to_string()
        };
    }
    args
}

fn num(v: &str, name: &str) -> u64 {
    v.parse::<u64>()
        .unwrap_or_else(|_| die(format!("{name} needs a numeric argument")))
}

fn die(msg: String) -> ! {
    eprintln!("csqp-bench: {msg}");
    std::process::exit(2)
}

/// One planning scenario from the bounded pool: everything the two-step
/// path needs, pre-built so the timed loop measures planning alone.
struct Cell {
    spec: WorkloadSpec,
    query: csqp_catalog::QuerySpec,
    catalog: Catalog,
    buckets: CacheBuckets,
    env: Env,
    planner: TwoStepPlanner,
}

/// The bounded scenario pool: every combination of a small spec set,
/// all three policies, all three objectives, and two cache states —
/// the repeated-workload shape a production memo exists for.
fn scenario_pool(servers: u32) -> Vec<Cell> {
    let specs = [
        WorkloadSpec::Chain {
            n: 3,
            selectivity: MODERATE_SEL,
        },
        WorkloadSpec::Chain {
            n: 5,
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
    let mut pool = Vec::new();
    for spec in &specs {
        let query = spec.build();
        let topo = servers.min(spec.num_relations()).max(1);
        let env = Env {
            placement_seed: 0xC59D,
            num_servers: topo,
        };
        for policy in Policy::ALL {
            for objective in objectives {
                for bucket in [0u8, 4] {
                    let buckets = CacheBuckets::quantize(&vec![
                        bucket_fraction(bucket);
                        spec.num_relations() as usize
                    ]);
                    let mut catalog = Catalog::new(topo);
                    for (i, r) in query.relations.iter().enumerate() {
                        catalog.place(r.id, SiteId::server(1 + (i as u32 % topo)));
                    }
                    for (rel_index, fraction) in buckets.planning_fractions() {
                        if (rel_index as usize) < query.relations.len() {
                            catalog.set_cached_fraction(
                                query.relations[rel_index as usize].id,
                                fraction,
                            );
                        }
                    }
                    pool.push(Cell {
                        spec: spec.clone(),
                        query: query.clone(),
                        catalog,
                        buckets: buckets.clone(),
                        env,
                        planner: TwoStepPlanner {
                            policy,
                            objective,
                            config: OptConfig::fast(),
                        },
                    });
                }
            }
        }
    }
    pool
}

/// Plan one cell end to end (compile + site selection) against an
/// optional memo, returning the plan and whether site selection hit.
fn plan_cell(cell: &Cell, sys: &SystemConfig, memo: Option<&MemoTable>) -> (csqp_core::Plan, bool) {
    let guard = CancelToken::inert();
    let (compiled, _) = cell.planner.compile_memoized(
        &cell.spec,
        &cell.query,
        sys,
        CompileTimeAssumption::Centralized,
        cell.env,
        memo,
    );
    let (plan, outcome) = cell
        .planner
        .site_select_memoized(
            &cell.spec,
            &compiled,
            &cell.query,
            sys,
            &cell.catalog,
            &cell.buckets,
            cell.env,
            memo,
            &guard,
        )
        .unwrap_or_else(|r| die(format!("inert guard stopped planning: {r}")));
    (plan, outcome == MemoOutcome::Hit)
}

/// One simulator scenario: a benchmark query pre-planned under a policy
/// so the timed loop measures the discrete-event kernel alone.
struct SimCell {
    label: String,
    query: QuerySpec,
    catalog: Catalog,
    plan: Plan,
}

/// Build the pinned sim pool: benchmark shapes × all three policies,
/// each planned once (untimed) for response time over a seeded random
/// placement.
fn sim_pool(servers: u32, seed: u64, sys: &SystemConfig) -> Vec<SimCell> {
    let shapes: Vec<(&str, QuerySpec)> = vec![
        ("2-way", two_way()),
        ("chain-5", chain_query(5, MODERATE_SEL)),
        ("star-4", star_query(4, MODERATE_SEL)),
    ];
    let mut rng = SimRng::seed_from_u64(seed ^ 0x51D0);
    let mut cells = Vec::new();
    for (name, query) in shapes {
        let topo = servers.min(query.num_relations() as u32).max(1);
        let catalog = random_placement(&query, topo, &mut rng);
        for policy in Policy::ALL {
            let stats = run_query(
                &query,
                &catalog,
                sys,
                &[],
                policy,
                Objective::ResponseTime,
                &OptConfig::fast(),
                seed ^ cells.len() as u64,
            )
            .unwrap_or_else(|e| die(format!("sim pool planning failed for {name}: {e}")));
            cells.push(SimCell {
                label: format!("{name}/{}", policy.short()),
                query: query.clone(),
                catalog: catalog.clone(),
                plan: stats.plan,
            });
        }
    }
    cells
}

/// Per-execution seed: decorrelate replay index from the base seed.
fn sim_seed(base: u64, i: usize) -> u64 {
    base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `--sim`: time `--queries` seeded executions round-robin over the
/// pinned plan pool and report kernel events dispatched per second.
fn run_sim(args: &Args) -> ExitCode {
    let sys = SystemConfig::default();
    let cells = sim_pool(args.servers, args.seed, &sys);
    println!(
        "csqp-bench --sim: {} executions over {} pre-planned scenarios (seed {:#x})",
        args.queries,
        cells.len(),
        args.seed
    );

    // Timed replay: planning already happened; this loop is simulator
    // bind + event dispatch only.
    COUNTING.store(true, Ordering::Relaxed);
    let start = Instant::now();
    let mut total_events = 0u64;
    let mut digest = 0u64;
    let mut first_slice: Vec<(u64, u64)> = Vec::new();
    let probe = cells.len().min(args.queries);
    for i in 0..args.queries {
        let cell = &cells[i % cells.len()];
        let scenario = Scenario {
            query: &cell.query,
            catalog: &cell.catalog,
            sys: &sys,
            loads: &[],
        };
        let m = scenario.execute(&cell.plan, sim_seed(args.seed, i));
        let response_bits = m.response_secs().to_bits();
        total_events += m.events_handled;
        digest = digest.rotate_left(9) ^ m.events_handled ^ response_bits;
        if i < probe {
            first_slice.push((m.events_handled, response_bits));
        }
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = HEAP_CALLS.load(Ordering::Relaxed);
    let events_per_sec = total_events as f64 / wall_secs;
    let allocs_per_event = allocs as f64 / total_events.max(1) as f64;
    println!(
        "sim: {wall_secs:.3}s — {total_events} kernel events, {events_per_sec:.0} events/sec \
         ({:.0} events/run), {allocs} allocations ({allocs_per_event:.4}/event)",
        total_events as f64 / args.queries as f64
    );

    // Determinism gate before the rate is reported as a trajectory
    // point: replaying the first slice with identical seeds must
    // reproduce the exact event counts and response times.
    for (i, &(events, response_bits)) in first_slice.iter().enumerate() {
        let cell = &cells[i % cells.len()];
        let scenario = Scenario {
            query: &cell.query,
            catalog: &cell.catalog,
            sys: &sys,
            loads: &[],
        };
        let m = scenario.execute(&cell.plan, sim_seed(args.seed, i));
        if m.events_handled != events || m.response_secs().to_bits() != response_bits {
            eprintln!(
                "csqp-bench: FAIL sim replay #{i} ({}) diverged: {} events vs {events}",
                cell.label, m.events_handled
            );
            return ExitCode::FAILURE;
        }
    }
    println!("verified: first {probe} executions replay deterministically");

    record(
        args,
        "csqp-bench sim suite",
        vec![
            ("seed", Json::from(args.seed)),
            ("runs", Json::from(args.queries as u64)),
            ("servers", Json::from(args.servers)),
            ("scenarios", Json::from(cells.len() as u64)),
        ],
        vec![
            ("total_events", Json::from(total_events), Gate::Exact),
            ("wall_secs", Json::from(wall_secs), Gate::Info),
            ("events_per_sec", Json::from(events_per_sec), Gate::Floor),
            (
                "events_per_run",
                Json::from(total_events as f64 / args.queries as f64),
                Gate::Info,
            ),
            ("allocs", Json::from(allocs), Gate::Info),
            ("allocs_per_event", Json::from(allocs_per_event), Gate::Info),
            ("digest", Json::from(format!("{digest:016x}")), Gate::Exact),
        ],
    )
}

/// Gate the run against the record at `--out` and write it there.
fn record(
    args: &Args,
    bench: &str,
    config: Vec<(&str, Json)>,
    metrics: Vec<(&str, Json, Gate)>,
) -> ExitCode {
    match gate_and_write(&args.out, bench, config, metrics) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("csqp-bench: FAIL {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.sim {
        return run_sim(&args);
    }
    let sys = SystemConfig::default();
    let pool = scenario_pool(args.servers);

    // The pinned mix: `--queries` draws from the pool by seeded index.
    let mut rng = SimRng::seed_from_u64(args.seed);
    let mix: Vec<usize> = (0..args.queries)
        .map(|_| rng.range(0, pool.len()))
        .collect();
    println!(
        "csqp-bench: {} queries over a pool of {} planning scenarios (seed {:#x})",
        args.queries,
        pool.len(),
        args.seed
    );

    // Cold pass: no memo, every query pays full planning.
    let start = Instant::now();
    let cold_plans: Vec<_> = mix
        .iter()
        .map(|&i| plan_cell(&pool[i], &sys, None).0)
        .collect();
    let cold_secs = start.elapsed().as_secs_f64().max(1e-9);
    let cold_rate = args.queries as f64 / cold_secs;
    println!("cold: {cold_secs:.3}s — {cold_rate:.0} plans/sec");

    // Warm pass: one shared table across the identical mix.
    let table = MemoTable::new(MemoConfig::default());
    let start = Instant::now();
    let mut warm_hits = 0u64;
    let warm_plans: Vec<_> = mix
        .iter()
        .map(|&i| {
            let (plan, hit) = plan_cell(&pool[i], &sys, Some(&table));
            if hit {
                warm_hits += 1;
            }
            plan
        })
        .collect();
    let warm_secs = start.elapsed().as_secs_f64().max(1e-9);
    let warm_rate = args.queries as f64 / warm_secs;
    let hit_rate = warm_hits as f64 / args.queries as f64;
    let speedup = warm_rate / cold_rate;
    println!(
        "warm: {warm_secs:.3}s — {warm_rate:.0} plans/sec, hit rate {:.1}%, speedup {speedup:.1}x",
        hit_rate * 100.0
    );

    // Correctness gate before any timing is reported as a win: warm
    // plans must be byte-identical to cold ones, query by query.
    for (i, (cold, warm)) in cold_plans.iter().zip(&warm_plans).enumerate() {
        if cold != warm {
            eprintln!("csqp-bench: FAIL query #{i} warm plan diverged from cold");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "verified: all {} warm plans byte-identical to cold",
        args.queries
    );

    let snap = table.snapshot();
    record(
        &args,
        "csqp-bench memo suite",
        vec![
            ("seed", Json::from(args.seed)),
            ("queries", Json::from(args.queries as u64)),
            ("servers", Json::from(args.servers)),
            ("pool", Json::from(pool.len() as u64)),
        ],
        vec![
            ("cold_secs", Json::from(cold_secs), Gate::Info),
            ("cold_plans_per_sec", Json::from(cold_rate), Gate::Info),
            ("warm_secs", Json::from(warm_secs), Gate::Info),
            ("warm_plans_per_sec", Json::from(warm_rate), Gate::Info),
            ("hit_rate", Json::from(hit_rate), Gate::Info),
            ("speedup", Json::from(speedup), Gate::Floor),
            ("memo_hits", Json::from(snap.hits), Gate::Info),
            ("memo_misses", Json::from(snap.misses), Gate::Info),
            ("memo_entries", Json::from(snap.entries), Gate::Info),
            ("memo_bytes", Json::from(snap.bytes), Gate::Info),
        ],
    )
}
