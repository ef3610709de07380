//! Bit-exactness wall for single-pass costing.
//!
//! [`Optimizer::eval`] binds and costs a candidate once and reads both the
//! objective and the total-cost tie-break from one
//! [`csqp_cost::PlanCost`]; the model memoizes sub-result sizes and
//! hybrid-hash layouts per query. Every plan choice and every RNG draw of
//! the search rests on those values, so this wall pins them bit for bit:
//!
//! * a seeded property compares `eval` with the two-pass formula it
//!   replaced (two independent binds and `cost_bound` passes on a
//!   model of its own) over random plans, random walks and unbindable
//!   plans, for every policy × objective × load × 1–4 servers, then
//!   checks each memo entry against a direct estimator or planner read;
//! * a golden table pins evaluation counts, costs and plans of full
//!   searches and site selections across the same grid, recorded while
//!   `eval` still bound and costed every candidate twice.

#![cfg(test)]

use csqp_catalog::{
    hybrid_hash_plan, join_memory, sat_u64, Catalog, Estimator, JoinEdge, QuerySpec, RelId,
    Relation, SiteId, SystemConfig,
};
use csqp_core::{bind, BindContext, Plan, Policy};
use csqp_cost::{CostModel, Objective};
use csqp_memo::fingerprint::fnv1a;
use csqp_simkernel::rng::SimRng;
use proptest::prelude::*;
use proptest::TestCaseError;

use crate::moves::MoveSet;
use crate::random::{random_neighbor, random_plan};
use crate::search::{OptConfig, Optimizer};

const OBJECTIVES: [Objective; 3] = [
    Objective::Communication,
    Objective::ResponseTime,
    Objective::TotalCost,
];

/// A chain with unequal edge selectivities and one selection, so
/// sub-results differ in size and joins take different hash layouts.
fn wall_query(n: u32) -> QuerySpec {
    let sels = [1e-4, 2e-5, 1e-4, 5e-5, 1e-4, 2e-5];
    let rels = (0..n)
        .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
        .collect();
    let edges = (0..n - 1)
        .map(|i| JoinEdge {
            a: RelId(i),
            b: RelId(i + 1),
            selectivity: sels[i as usize],
        })
        .collect();
    QuerySpec::new(rels, edges).with_selection(RelId(0), 0.1)
}

/// Round-robin placement over `servers`, half of R1 cached at the client.
fn wall_catalog(n: u32, servers: u32) -> Catalog {
    let mut c = Catalog::new(servers);
    for i in 0..n {
        c.place(RelId(i), SiteId::server(1 + i % servers));
    }
    c.set_cached_fraction(RelId(1), 0.5);
    c
}

/// The model under test: no load, or a busy disk at server 1.
fn wall_model<'a>(
    cfg: &'a SystemConfig,
    cat: &'a Catalog,
    q: &'a QuerySpec,
    loaded: bool,
) -> CostModel<'a> {
    let model = CostModel::new(cfg, cat, q, SiteId::CLIENT);
    if loaded {
        model.with_disk_load(SiteId::server(1), 0.6)
    } else {
        model
    }
}

/// One scenario of the grid: config, catalog, query and load flag.
type Scenario<'a> = (&'a SystemConfig, &'a Catalog, &'a QuerySpec, bool);

/// The formula `eval` replaced, on a model of its own: one bind and cost
/// pass for the objective, another bind and cost pass for the tie-break.
fn reference_eval(
    (cfg, cat, q, loaded): Scenario,
    objective: Objective,
    plan: &Plan,
) -> Option<f64> {
    let model = wall_model(cfg, cat, q, loaded);
    let bound = || {
        bind(
            plan,
            BindContext {
                catalog: cat,
                query_site: SiteId::CLIENT,
            },
        )
        .ok()
    };
    let primary = model.cost_bound(&bound()?).get(objective);
    let total = || Some(model.cost_bound(&bound()?).get(Objective::TotalCost));
    Some(match objective {
        Objective::Communication => primary + 1e-2 * total()?,
        Objective::ResponseTime => primary + 1e-3 * total()?,
        Objective::TotalCost => primary,
    })
}

/// `plan` with every annotation redrawn from the policy's column and no
/// well-formedness repair, so annotation cycles (unbindable plans) occur.
fn unrepaired(plan: &Plan, policy: Policy, rng: &mut SimRng) -> Plan {
    let mut plan = plan.clone();
    for id in plan.postorder() {
        let op = plan.node(id).op;
        plan.node_mut(id).ann = *rng.pick(policy.allowed(op));
    }
    plan
}

/// Every memoized entry equals a direct estimator or planner read.
fn memo_is_direct(model: &CostModel) -> Result<(), TestCaseError> {
    let cfg = model.config();
    let est = Estimator::new(model.query(), cfg);
    for (rels, tuples, pages) in model.memoized_sizes() {
        prop_assert_eq!(tuples.to_bits(), est.tuples(rels).to_bits());
        prop_assert_eq!(pages.to_bits(), est.pages(rels).to_bits());
    }
    for (inner, hp) in model.memoized_hash_plans() {
        // Keys are `⌈pages⌉` of an f64, so the cast back is exact.
        let in_pages = inner as f64;
        let mem = join_memory(cfg, sat_u64(in_pages.ceil()));
        let direct = hybrid_hash_plan(sat_u64(in_pages.ceil().max(1.0)), mem, cfg.fudge);
        prop_assert_eq!(hp, direct);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-pass `eval` equals the two-pass formula bit for bit on
    /// random plans, on every step of a random walk, and on unbindable
    /// plans (both `None`); the memo it leaves behind is exact.
    #[test]
    fn single_pass_eval_matches_two_pass_formula(
        policy_idx in 0usize..3,
        objective_idx in 0usize..3,
        loaded in proptest::bool::ANY,
        servers in 1u32..5,
        n in 4u32..7,
        seed in 0u64..100_000,
        walk in 1usize..40,
    ) {
        let (policy, objective) = (Policy::ALL[policy_idx], OBJECTIVES[objective_idx]);
        let cfg = SystemConfig::default();
        let q = wall_query(n);
        let cat = wall_catalog(n, servers);
        let model = wall_model(&cfg, &cat, &q, loaded);
        let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
        let scenario = (&cfg, &cat, &q, loaded);
        let mut rng = SimRng::seed_from_u64(seed);
        let mut evals = 0;
        let mut plan = random_plan(&q, policy, &mut rng);
        for _ in 0..walk {
            let got = opt.eval(&plan, &mut evals).map(f64::to_bits);
            let want = reference_eval(scenario, objective, &plan).map(f64::to_bits);
            prop_assert_eq!(got, want, "{} / {}: {}", policy.short(), objective, plan);
            let cyclic = unrepaired(&plan, policy, &mut rng);
            let got = opt.eval(&cyclic, &mut evals).map(f64::to_bits);
            let want = reference_eval(scenario, objective, &cyclic).map(f64::to_bits);
            prop_assert_eq!(got, want, "{} / {}: {}", policy.short(), objective, cyclic);
            if let Some((next, _)) =
                random_neighbor(&plan, &q, policy, MoveSet::for_policy(policy), &mut rng)
            {
                plan = next;
            }
        }
        prop_assert_eq!(evals, 2 * walk as u64);
        memo_is_direct(&model)?;
    }
}

/// The property above is not vacuous on unbindable plans: the redrawn
/// annotations produce cycles, and both formulas reject them.
#[test]
fn unrepaired_plans_include_unbindable_ones() {
    let cfg = SystemConfig::default();
    let q = wall_query(5);
    let cat = wall_catalog(5, 2);
    let model = wall_model(&cfg, &cat, &q, false);
    let mut rng = SimRng::seed_from_u64(5);
    let mut unbindable = 0;
    for _ in 0..200 {
        let plan = random_plan(&q, Policy::HybridShipping, &mut rng);
        let cyclic = unrepaired(&plan, Policy::HybridShipping, &mut rng);
        if model.cost_plan(&cyclic).is_none() {
            let scenario = (&cfg, &cat, &q, false);
            assert_eq!(
                reference_eval(scenario, Objective::TotalCost, &cyclic),
                None
            );
            unbindable += 1;
        }
    }
    assert!(
        unbindable > 10,
        "only {unbindable} of 200 plans were unbindable"
    );
}

/// `(full-search evaluations, site-selection evaluations, FNV-1a of both
/// results' cost bits and compact plans)` per cell of
/// [`searches_match_the_two_pass_goldens`], recorded with the two-pass
/// `eval`.
const GOLDENS: [(u64, u64, u64); 72] = [
    (666, 1, 0x2be8038646c5481d),
    (648, 1, 0x6f6c26a4e2c46de3),
    (645, 1, 0x7ee89d3aa920c8f5),
    (723, 151, 0xdd735ebf4f2d6676),
    (746, 151, 0xfe39a898ed178d69),
    (906, 151, 0x97c761afc4fadc4d),
    (2814, 151, 0xedece3d70c075467),
    (2517, 205, 0x19e886019c1bd90b),
    (2670, 145, 0x23257577ef8970cd),
    (711, 1, 0xd5ea2861733aa194),
    (674, 1, 0x27e9c0e947610161),
    (596, 1, 0x1ea301b911b61977),
    (889, 151, 0x33541d09d6af6a17),
    (801, 151, 0x0d4e29fc8f38fdfa),
    (953, 151, 0x91a0d32d5232ac52),
    (2966, 159, 0x7daed68bbc8075bb),
    (2540, 286, 0x64a850f75b3ba8e1),
    (2801, 177, 0xe119d8ef9c5cd9c0),
    (731, 1, 0x79c08929678d708a),
    (678, 1, 0x070762807e7130d6),
    (610, 1, 0x52e86debc20e1ada),
    (652, 151, 0x2bf24320e2bf9ac1),
    (623, 154, 0xf2813e07174f221c),
    (739, 151, 0x79dbd00f8647d706),
    (2563, 166, 0x49f7ca425b0c52ee),
    (2970, 199, 0x11e13daa310f0eeb),
    (3014, 136, 0xd50bd2238e9e4329),
    (603, 1, 0x783189f2e368a00a),
    (611, 1, 0xe187c1f2abc989d5),
    (637, 1, 0x4d1134e90ab83b9f),
    (713, 191, 0x48a234ec700b9aa6),
    (689, 173, 0xeaefe1fdd6a0c823),
    (795, 162, 0x850a04540cf9e162),
    (2660, 194, 0x7b02cb8f30d621e5),
    (2923, 176, 0xcba946b53fccd381),
    (2533, 164, 0x9243e18e5504357c),
    (722, 1, 0x1b61be56b9d1bfbc),
    (706, 1, 0x245cd38ede6295f2),
    (691, 1, 0x2d1896a76145af5b),
    (725, 151, 0xfdebf145c2bb1708),
    (832, 157, 0x75afbd4d563ca7e8),
    (771, 169, 0x96b7cbb4e99c679f),
    (2895, 237, 0xeee10b736b4742f1),
    (2865, 184, 0x1914b55032e58b25),
    (2891, 199, 0x567e3661a978f2a8),
    (636, 1, 0xcce2ba6189c89486),
    (671, 1, 0xdb0846f6cf755ff6),
    (610, 1, 0x122dda6560105611),
    (700, 192, 0xfb667a487120f0ca),
    (725, 162, 0x846c1da451421b41),
    (753, 158, 0xf8097e2415a53c37),
    (2835, 185, 0x7b5c1a9de5362a0a),
    (3142, 159, 0x095655f9e6cd2985),
    (2851, 207, 0x33a5afb7130640b0),
    (669, 1, 0xa4c1c917ee0d3e10),
    (696, 1, 0x0d6f851436521428),
    (570, 1, 0x1fdcb998f9574d8c),
    (739, 154, 0xef4aff65a83d8719),
    (639, 164, 0xd8c01711faeaa623),
    (717, 157, 0xaea0d2ef052611a1),
    (3239, 160, 0xe51a01e0ea284c48),
    (3083, 203, 0xd6f36dc49faaaa5b),
    (3276, 170, 0x2e2a11d3cabdf9a1),
    (649, 1, 0x250a9b7f995ad368),
    (646, 1, 0x7716aeb167d8778a),
    (571, 1, 0x5fd0b3eb893088c4),
    (621, 154, 0xb8e39d8ee1f3daff),
    (657, 155, 0x8a4253c40b9f26fd),
    (788, 156, 0xd46f158f2341481d),
    (3077, 176, 0x1ad82e990f0f5885),
    (2885, 162, 0xae684a6fd3280ea3),
    (2462, 160, 0xf58381862f33be2c),
];

/// Full two-phase searches and site selections over servers 1–4 × {no
/// load, loaded} × policy × objective make the same number of
/// evaluations and return the same costs and plans as the two-pass
/// `eval` did.
#[test]
fn searches_match_the_two_pass_goldens() {
    let cfg = SystemConfig::default();
    let q = wall_query(5);
    let mut cell = 0;
    for servers in 1..=4u32 {
        let cat = wall_catalog(5, servers);
        for loaded in [false, true] {
            let model = wall_model(&cfg, &cat, &q, loaded);
            for policy in Policy::ALL {
                for objective in OBJECTIVES {
                    let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
                    let mut rng = SimRng::seed_from_u64(cell as u64 + 1);
                    let full = opt.optimize(&q, &mut rng);
                    let start = random_plan(&q, policy, &mut rng);
                    let ss = opt.site_selection(start, &mut rng);
                    let mut bytes = Vec::new();
                    bytes.extend_from_slice(&full.cost.to_bits().to_le_bytes());
                    bytes.extend_from_slice(full.plan.render_compact().as_bytes());
                    bytes.extend_from_slice(&ss.cost.to_bits().to_le_bytes());
                    bytes.extend_from_slice(ss.plan.render_compact().as_bytes());
                    assert_eq!(
                        (full.evaluations, ss.evaluations, fnv1a(&bytes)),
                        GOLDENS[cell],
                        "cell {cell}: {servers} servers, loaded {loaded}, {} / {objective}",
                        policy.short()
                    );
                    cell += 1;
                }
            }
        }
    }
}
