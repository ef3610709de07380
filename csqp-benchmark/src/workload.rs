//! The four pinned workloads and their request generators.
//!
//! Every request is a pure function of `(workload, seed, connection,
//! index)`: a [`RequestStream`] generates one connection's requests in
//! index order, and the server only ever sees the generated frames.
//!
//! The two-step workloads draw from one scenario grid — 8 query shapes
//! × 3 policies × 2 objectives — and differ only in how often a
//! scenario repeats. A scenario's site-selection memo key is its shape,
//! policy, objective and per-relation cache level (in eighths), so two
//! scenarios that differ in any of those never share a memo entry.
//! Scenario streams are split into disjoint *families* by the first
//! relation's cache level (level mod 4), which keeps the hot pool, the
//! warm-up stream and each connection's cold stream apart without any
//! coordination between connections.

use std::collections::BTreeSet;

use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_memo::CACHE_QUANT_STEPS;
use csqp_serve::load::{nth_request, LoadConfig};
use csqp_serve::proto::{OptimizerMode, QueryRequest, MAX_SAFE_INT};
use csqp_simkernel::rng::SimRng;
use csqp_workload::{WorkloadSpec, HISEL_SEL, MODERATE_SEL};

/// Client connections (and client threads) the load generator opens.
pub const CONNECTIONS: u64 = 2;

/// Distinct scenarios in the `twostep-hot` pool.
pub const HOT_POOL: usize = 64;

/// Distinct scenarios the `twostep-cold` warm-up installs before timing:
/// enough winners to push the memo past the server's 1 MiB budget.
pub const COLD_WARMUP: usize = 2_000;

/// `twophase-mix` warm-up requests per connection.
const TWOPHASE_WARMUP: u64 = 20;

/// Offered rate of `twostep-open`, requests per second over both
/// connections: under half of `twostep-hot`'s closed-loop capacity
/// (≈1,900 req/s on a 2-core host), so the server stays below the knee
/// even when outside load slows it by a third. A pinned constant, never
/// derived at run time.
pub const OPEN_RATE: f64 = 800.0;

/// Share of `twostep-open` requests drawn from the cold stream.
pub const OPEN_COLD_SHARE: f64 = 0.05;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the `csqp-load` DS/QS/HY mix, two-phase
    /// optimizer: per-request randomized planning on the critical path.
    TwophaseMix,
    /// Closed loop over a pool of [`HOT_POOL`] two-step scenarios, all
    /// installed before timing: the memo-hit serving path.
    TwostepHot,
    /// Closed loop where every request is a new two-step scenario, after
    /// a warm-up that fills the memo past its budget: miss, anneal,
    /// install, evict.
    TwostepCold,
    /// Open loop at [`OPEN_RATE`]: 95% hot-pool requests, 5% cold.
    TwostepOpen,
}

impl Workload {
    /// Every workload, in the order `--smoke` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::TwophaseMix,
        Workload::TwostepHot,
        Workload::TwostepCold,
        Workload::TwostepOpen,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TwophaseMix => "twophase-mix",
            Workload::TwostepHot => "twostep-hot",
            Workload::TwostepCold => "twostep-cold",
            Workload::TwostepOpen => "twostep-open",
        }
    }

    /// Look a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per connection, from index 0, that are replayed
    /// in-process and compared byte for byte with the loopback replies.
    pub fn replay_per_conn(self) -> u64 {
        match self {
            Workload::TwophaseMix | Workload::TwostepCold => 150,
            Workload::TwostepHot | Workload::TwostepOpen => 1000,
        }
    }

    /// True for the arrival-scheduled workload.
    pub fn is_open(self) -> bool {
        self == Workload::TwostepOpen
    }
}

/// The 8 two-step query shapes: chain (two selectivities), star and SPJ
/// at 4 and 5 relations — the `csqp-load` shapes at the sizes whose cache
/// states (9⁴ and 9⁵ per cell) keep a cold stream distinct for a whole
/// run; a 3-relation cell has only 729, split four ways.
fn two_step_shapes() -> Vec<WorkloadSpec> {
    let mut shapes = Vec::with_capacity(8);
    for n in 4..=5 {
        shapes.push(WorkloadSpec::Chain {
            n,
            selectivity: MODERATE_SEL,
        });
        shapes.push(WorkloadSpec::Chain {
            n,
            selectivity: HISEL_SEL,
        });
        shapes.push(WorkloadSpec::Star {
            n,
            selectivity: MODERATE_SEL,
        });
        shapes.push(WorkloadSpec::Spj {
            n,
            join_sel: MODERATE_SEL,
            selection: 0.2,
            every_k: 2,
        });
    }
    shapes
}

/// The scenario grid: shape × policy × objective.
fn scenario_grid() -> Vec<(WorkloadSpec, Policy, Objective)> {
    let mut grid = Vec::with_capacity(48);
    for spec in two_step_shapes() {
        for policy in [
            Policy::DataShipping,
            Policy::QueryShipping,
            Policy::HybridShipping,
        ] {
            for objective in [Objective::ResponseTime, Objective::Communication] {
                grid.push((spec.clone(), policy, objective));
            }
        }
    }
    grid
}

/// A disjoint slice of the two-step scenario space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// One connection's stream of never-repeated scenarios.
    Cold(u64),
    /// The `twostep-cold` warm-up stream.
    Warmup,
    /// The `twostep-hot` pool.
    Hot,
}

impl Family {
    /// The first relation's cache level is congruent to this mod 4.
    fn residue(self) -> u8 {
        match self {
            Family::Cold(conn) => (conn % 2) as u8,
            Family::Warmup => 2,
            Family::Hot => 3,
        }
    }
}

/// Mix the run seed with a stream tag so every stream draws
/// independently of the others.
fn stream_rng(seed: u64, tag: u64) -> SimRng {
    SimRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A stream of pairwise-distinct two-step scenarios from one [`Family`]:
/// it walks a seeded permutation of the scenario grid round-robin and
/// draws a fresh cache level vector for each, redrawing on a repeat.
#[derive(Debug, Clone)]
pub struct ScenarioStream {
    rng: SimRng,
    grid: Vec<(WorkloadSpec, Policy, Objective)>,
    residue: u8,
    drawn: u64,
    seen: BTreeSet<(usize, Vec<u8>)>,
}

impl ScenarioStream {
    /// The stream of `family` under run seed `seed`.
    pub fn new(seed: u64, family: Family) -> ScenarioStream {
        let tag = match family {
            Family::Cold(conn) => 0x10 + conn,
            Family::Warmup => 0x20,
            Family::Hot => 0x30,
        };
        let mut rng = stream_rng(seed, tag);
        let mut grid = scenario_grid();
        rng.shuffle(&mut grid);
        ScenarioStream {
            rng,
            grid,
            residue: family.residue(),
            drawn: 0,
            seen: BTreeSet::new(),
        }
    }

    /// The next scenario, as a request with `id` 0. `None` once the
    /// stream cannot find an unseen scenario in any grid cell.
    pub fn next_scenario(&mut self) -> Option<QueryRequest> {
        let first_levels: Vec<u8> = (0..=CACHE_QUANT_STEPS)
            .filter(|l| l % 4 == self.residue)
            .collect();
        for _ in 0..self.grid.len() {
            let cell = (self.drawn % self.grid.len() as u64) as usize;
            self.drawn += 1;
            let (spec, policy, objective) = self.grid[cell].clone();
            // A small cell can run dry long before the grid does; move on
            // to the next cell after a bounded number of redraws.
            for _ in 0..64 {
                let mut levels = vec![*self.rng.pick(&first_levels)];
                for _ in 1..spec.num_relations() {
                    levels.push(self.rng.below(usize::from(CACHE_QUANT_STEPS) + 1) as u8);
                }
                if self.seen.insert((cell, levels.clone())) {
                    let cache = levels
                        .iter()
                        .map(|&l| f64::from(l) / f64::from(CACHE_QUANT_STEPS))
                        .collect();
                    let seed = self.rng.below(MAX_SAFE_INT as usize) as u64;
                    return Some(QueryRequest {
                        id: 0,
                        spec,
                        cache,
                        policy,
                        objective,
                        optimizer: OptimizerMode::TwoStep,
                        seed,
                        loads: vec![],
                        deadline_ms: None,
                        keys: None,
                    });
                }
            }
        }
        None
    }
}

/// The `twostep-hot` pool: [`HOT_POOL`] distinct scenarios.
pub fn hot_pool(seed: u64) -> Vec<QueryRequest> {
    let mut stream = ScenarioStream::new(seed, Family::Hot);
    (0..HOT_POOL)
        .map_while(|_| stream.next_scenario())
        .collect()
}

/// The untimed requests that run before measurement: one pass over the
/// hot pool, the cold warm-up stream, or a short two-phase prefix on
/// streams the timed phase never uses. `scale` divides the cold warm-up
/// (`--smoke`).
pub fn warmup(workload: Workload, seed: u64, scale: u64) -> Vec<QueryRequest> {
    match workload {
        Workload::TwophaseMix => {
            let cfg = two_phase_config(seed);
            (0..TWOPHASE_WARMUP)
                .flat_map(|index| (0..CONNECTIONS).map(move |c| (c + CONNECTIONS, index)))
                .map(|(client, index)| nth_request(&cfg, client, index))
                .collect()
        }
        Workload::TwostepHot | Workload::TwostepOpen => hot_pool(seed),
        Workload::TwostepCold => {
            let mut stream = ScenarioStream::new(seed, Family::Warmup);
            (0..COLD_WARMUP / scale.max(1) as usize)
                .map_while(|_| stream.next_scenario())
                .collect()
        }
    }
}

fn two_phase_config(seed: u64) -> LoadConfig {
    LoadConfig {
        seed,
        optimizer: OptimizerMode::TwoPhase,
        ..LoadConfig::default()
    }
}

/// One connection's timed requests, generated in index order; request
/// `index` carries id `index + 1`.
#[derive(Debug, Clone)]
pub struct RequestStream {
    workload: Workload,
    two_phase: LoadConfig,
    conn: u64,
    index: u64,
    pool: Vec<QueryRequest>,
    cold: ScenarioStream,
    pick: SimRng,
}

impl RequestStream {
    /// The stream connection `conn` sends under `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64, conn: u64) -> RequestStream {
        let pool = match workload {
            Workload::TwostepHot | Workload::TwostepOpen => hot_pool(seed),
            _ => Vec::new(),
        };
        RequestStream {
            workload,
            two_phase: two_phase_config(seed),
            conn,
            index: 0,
            pool,
            cold: ScenarioStream::new(seed, Family::Cold(conn)),
            pick: stream_rng(seed, 0x40 + conn),
        }
    }

    /// The next request, or an error once the cold stream is exhausted.
    pub fn next_request(&mut self) -> Result<QueryRequest, String> {
        let mut req = match self.workload {
            Workload::TwophaseMix => nth_request(&self.two_phase, self.conn, self.index),
            Workload::TwostepCold => self.next_cold()?,
            Workload::TwostepHot => self.pool[self.pick.below(self.pool.len())].clone(),
            Workload::TwostepOpen => {
                if self.pick.chance(OPEN_COLD_SHARE) {
                    self.next_cold()?
                } else {
                    self.pool[self.pick.below(self.pool.len())].clone()
                }
            }
        };
        self.index += 1;
        req.id = self.index;
        Ok(req)
    }

    fn next_cold(&mut self) -> Result<QueryRequest, String> {
        self.cold.next_scenario().ok_or_else(|| {
            format!(
                "connection {} ran out of distinct cold scenarios after {} requests",
                self.conn, self.index
            )
        })
    }
}
