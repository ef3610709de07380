//! `csqp-explain` — optimize one query, explain the winning plan, and
//! simulate it.
//!
//! ```text
//! cargo run --release --bin csqp-explain -- \
//!     [--relations N] [--servers M] [--cached PCT] [--policy ds|qs|hy] \
//!     [--objective comm|rt] [--alloc min|max] [--load REQS] [--hisel] \
//!     [--groups G] [--seed S] [--save FILE | --plan FILE [--site-select]]
//! ```
//!
//! Prints the annotated plan, its physical binding, the cost-model
//! estimates, the simulated metrics, and the per-operator wait
//! breakdown. `--save` stores the optimized plan as JSON; `--plan`
//! reloads one (with `--site-select` re-running only runtime site
//! selection — the 2-step strategy of §5).

use csqp::catalog::{BufAlloc, SiteId, SystemConfig};
use csqp::core::{bind, BindContext, Plan, Policy};
use csqp::cost::{CostModel, Objective};
use csqp::engine::ExecutionBuilder;
use csqp::optimizer::{OptConfig, Optimizer, TwoStepPlanner};
use csqp::simkernel::rng::SimRng;
use csqp::workload::{
    cache_all, chain_query, load_utilization, random_placement, single_server_placement, HISEL_SEL,
    MODERATE_SEL,
};

struct Args {
    relations: u32,
    servers: u32,
    cached: f64,
    policy: Policy,
    objective: Objective,
    alloc: BufAlloc,
    load: f64,
    hisel: bool,
    groups: Option<u64>,
    seed: u64,
    save: Option<String>,
    plan: Option<String>,
    site_select: bool,
}

fn parse() -> Args {
    let mut a = Args {
        relations: 2,
        servers: 1,
        cached: 0.0,
        policy: Policy::HybridShipping,
        objective: Objective::ResponseTime,
        alloc: BufAlloc::Min,
        load: 0.0,
        hisel: false,
        groups: None,
        seed: 42,
        save: None,
        plan: None,
        site_select: false,
    };
    let mut it = std::env::args().skip(1);
    let next = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next()
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--relations" => {
                a.relations = next(&mut it, "--relations")
                    .parse()
                    .unwrap_or_else(|_| die("bad --relations"))
            }
            "--servers" => {
                a.servers = next(&mut it, "--servers")
                    .parse()
                    .unwrap_or_else(|_| die("bad --servers"))
            }
            "--cached" => {
                let pct: f64 = next(&mut it, "--cached")
                    .parse()
                    .unwrap_or_else(|_| die("bad --cached"));
                a.cached = pct / 100.0;
            }
            "--policy" => {
                a.policy = match next(&mut it, "--policy").to_lowercase().as_str() {
                    "ds" => Policy::DataShipping,
                    "qs" => Policy::QueryShipping,
                    "hy" => Policy::HybridShipping,
                    other => die(&format!("unknown policy '{other}'")),
                }
            }
            "--objective" => {
                a.objective = match next(&mut it, "--objective").to_lowercase().as_str() {
                    "comm" | "communication" => Objective::Communication,
                    "rt" | "response" => Objective::ResponseTime,
                    "cost" | "total" => Objective::TotalCost,
                    other => die(&format!("unknown objective '{other}'")),
                }
            }
            "--alloc" => {
                a.alloc = match next(&mut it, "--alloc").to_lowercase().as_str() {
                    "min" => BufAlloc::Min,
                    "max" => BufAlloc::Max,
                    other => die(&format!("unknown allocation '{other}'")),
                }
            }
            "--load" => {
                a.load = next(&mut it, "--load")
                    .parse()
                    .unwrap_or_else(|_| die("bad --load"))
            }
            "--hisel" => a.hisel = true,
            "--groups" => {
                a.groups = Some(
                    next(&mut it, "--groups")
                        .parse()
                        .unwrap_or_else(|_| die("bad --groups")),
                )
            }
            "--seed" => {
                a.seed = next(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad --seed"))
            }
            "--save" => a.save = Some(next(&mut it, "--save")),
            "--plan" => a.plan = Some(next(&mut it, "--plan")),
            "--site-select" => a.site_select = true,
            "--help" | "-h" => {
                println!(
                    "usage: csqp-explain [--relations N] [--servers M] [--cached PCT] \
                     [--policy ds|qs|hy] [--objective comm|rt|cost] [--alloc min|max] \
                     [--load REQS] [--hisel] [--groups G] [--seed S] \
                     [--save FILE | --plan FILE [--site-select]]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown flag '{other}' (try --help)")),
        }
    }
    a
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let a = parse();
    let sel = if a.hisel { HISEL_SEL } else { MODERATE_SEL };
    let mut query = chain_query(a.relations, sel);
    if let Some(g) = a.groups {
        query = query.with_aggregate(g);
    }
    let mut catalog = if a.servers <= 1 {
        single_server_placement(&query)
    } else {
        random_placement(&query, a.servers, &mut SimRng::seed_from_u64(a.seed))
    };
    cache_all(&mut catalog, &query, a.cached);
    let mut sys = SystemConfig::default();
    sys.buf_alloc = a.alloc;

    let mut model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT);
    if a.load > 0.0 {
        model = model.with_disk_load(
            SiteId::server(1),
            load_utilization(a.load, sys.disk_rand_page_ms),
        );
    }

    let mut rng = SimRng::seed_from_u64(a.seed);
    let plan: Plan = match &a.plan {
        Some(path) => {
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            let stored =
                Plan::from_json(&json).unwrap_or_else(|e| die(&format!("bad plan file: {e}")));
            stored
                .validate_structure(&query)
                .unwrap_or_else(|e| die(&format!("stored plan does not fit this query: {e}")));
            if a.site_select {
                let planner = TwoStepPlanner {
                    policy: a.policy,
                    objective: a.objective,
                    config: OptConfig::default(),
                };
                planner.site_select(&stored, &query, &sys, &catalog, &mut rng)
            } else {
                stored
            }
        }
        None => {
            let optimizer = Optimizer::new(&model, a.policy, a.objective, OptConfig::default());
            optimizer.optimize(&query, &mut rng).plan
        }
    };

    if let Some(path) = &a.save {
        std::fs::write(path, plan.to_json())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        println!("plan saved to {path}\n");
    }

    println!("== plan ({}, minimizing {}) ==", a.policy, a.objective);
    print!("{}", plan.render_tree());

    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap_or_else(|e| die(&format!("plan does not bind: {e}")));
    println!("\nbound: {}", bound.render());
    let est = model.cost_bound(&bound);
    println!(
        "estimates: {:.3} s response | {:.0} pages | {:.3} s total work",
        est.response, est.pages_sent, est.total_seconds,
    );

    let mut builder = ExecutionBuilder::new(&query, &catalog, &sys).with_seed(a.seed);
    if a.load > 0.0 {
        builder = builder.with_load(SiteId::server(1), a.load);
    }
    let m = builder.execute(&bound);
    println!(
        "simulated: {:.3} s response | {} pages | {} result tuples",
        m.response_secs(),
        m.pages_sent,
        m.result_tuples
    );
    for (i, site_stats) in m.disk.iter().enumerate() {
        if site_stats.reads + site_stats.writes > 0 {
            println!(
                "  disk[{}]: {} reads, {} writes, {:.1}% busy",
                if i == 0 {
                    "client".into()
                } else {
                    format!("server{i}")
                },
                site_stats.reads,
                site_stats.writes,
                100.0 * site_stats.busy.as_secs_f64() / m.response_secs()
            );
        }
    }
    println!("\n== operator wait breakdown [s] ==");
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "operator", "cpu", "disk", "wire", "input", "emit", "drain"
    );
    for op in &m.operators {
        let w = &op.waits;
        println!(
            "{:<22} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
            op.label,
            w.cpu.as_secs_f64(),
            w.disk.as_secs_f64(),
            w.wire.as_secs_f64(),
            w.input.as_secs_f64(),
            w.emit.as_secs_f64(),
            w.drain.as_secs_f64()
        );
    }
}
