//! End-to-end tests of the paper's headline claims, driven through the
//! public facade (`csqp::…`) the way a downstream user would.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp::catalog::{RelId, SiteId, SystemConfig};
use csqp::core::{bind, Annotation, BindContext, JoinTree, Policy};
use csqp::cost::{CostModel, Objective};
use csqp::engine::ExecutionBuilder;
use csqp::optimizer::{OptConfig, Optimizer};
use csqp::simkernel::rng::SimRng;
use csqp::workload::{cache_all, single_server_placement, two_way};

fn optimize_and_measure(
    policy: Policy,
    objective: Objective,
    cached: f64,
    seed: u64,
) -> (u64, f64) {
    let query = two_way();
    let mut catalog = single_server_placement(&query);
    cache_all(&mut catalog, &query, cached);
    let sys = SystemConfig::default();
    let model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT);
    let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
    let mut rng = SimRng::seed_from_u64(seed);
    let plan = opt.optimize(&query, &mut rng).plan;
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    let m = ExecutionBuilder::new(&query, &catalog, &sys).execute(&bound);
    (m.pages_sent, m.response_secs())
}

/// §2.2.3 / abstract: "Hybrid-shipping is shown to at least match the
/// best of the two 'pure' policies" — communication, across the whole
/// caching sweep.
#[test]
fn hybrid_matches_best_pure_policy_on_communication() {
    for cached in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let (ds, _) =
            optimize_and_measure(Policy::DataShipping, Objective::Communication, cached, 1);
        let (qs, _) =
            optimize_and_measure(Policy::QueryShipping, Objective::Communication, cached, 2);
        let (hy, _) =
            optimize_and_measure(Policy::HybridShipping, Objective::Communication, cached, 3);
        assert!(
            hy <= ds.min(qs),
            "cached {cached}: HY {hy} vs DS {ds} / QS {qs}"
        );
    }
}

/// §2.2: the pure policies bound to their prescribed sites.
#[test]
fn pure_policies_place_operators_as_defined() {
    let query = two_way();
    let catalog = single_server_placement(&query);
    let sys = SystemConfig::default();
    let model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT);
    for (policy, at_client) in [(Policy::DataShipping, 4), (Policy::QueryShipping, 1)] {
        let opt = Optimizer::new(&model, policy, Objective::ResponseTime, OptConfig::fast());
        let mut rng = SimRng::seed_from_u64(5);
        let plan = opt.optimize(&query, &mut rng).plan;
        policy.validate(&plan).unwrap();
        let bound = bind(
            &plan,
            BindContext {
                catalog: &catalog,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        // DS: display + join + 2 scans at the client; QS: only display.
        let ops_at_client = plan
            .postorder()
            .into_iter()
            .filter(|&id| bound.site(id).is_client())
            .count();
        assert_eq!(ops_at_client, at_client, "{policy}");
    }
}

/// §2.2.3: "hybrid-shipping does not preclude a relation from being
/// shipped from the client to a server (this is precluded in both data
/// and query-shipping)" — build such a plan and execute it.
#[test]
fn hybrid_can_ship_cached_data_from_client_to_server() {
    let query = two_way();
    let mut catalog = single_server_placement(&query);
    // R1 fully cached at the client; R0 only at the server.
    catalog.set_cached_fraction(RelId(1), 1.0);
    let sys = SystemConfig::default();

    // Scan R1 at the client (from cache), ship it INTO server 1 where the
    // join runs against R0, result back to the client.
    let mut plan = JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(1))).into_plan(
        &query,
        Annotation::InnerRel,
        Annotation::PrimaryCopy,
    );
    let scan_r1 = plan.scan_nodes()[1];
    plan.node_mut(scan_r1).ann = Annotation::Client;
    Policy::HybridShipping.validate(&plan).unwrap();
    assert!(Policy::DataShipping.validate(&plan).is_err());
    assert!(Policy::QueryShipping.validate(&plan).is_err());

    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    assert_eq!(bound.site(plan.join_nodes()[0]), SiteId::server(1));
    assert!(bound.site(scan_r1).is_client());

    let m = ExecutionBuilder::new(&query, &catalog, &sys).execute(&bound);
    // R1 (250 pages) client -> server, result (250 pages) server -> client.
    assert_eq!(m.pages_sent, 500);
    assert_eq!(m.disk[0].reads, 250, "client reads its cached copy");
    assert_eq!(m.result_tuples, 10_000);
}

/// §4.2.2 narrative: under heavy server load the hybrid optimizer moves
/// work to the client; with an idle server and no cache it stays on the
/// server side.
#[test]
fn hybrid_adapts_to_server_load() {
    let query = two_way();
    let mut catalog = single_server_placement(&query);
    cache_all(&mut catalog, &query, 1.0);
    let sys = SystemConfig::default();

    // Heavily loaded server, fully cached client: HY must not touch the
    // server at all.
    let model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT)
        .with_disk_load(SiteId::server(1), 0.9);
    let opt = Optimizer::new(
        &model,
        Policy::HybridShipping,
        Objective::ResponseTime,
        OptConfig::fast(),
    );
    let mut rng = SimRng::seed_from_u64(8);
    let plan = opt.optimize(&query, &mut rng).plan;
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    // Run without the load generator so the server disk counter reflects
    // only the query's own I/O.
    let m = ExecutionBuilder::new(&query, &catalog, &sys).execute(&bound);
    assert_eq!(
        m.disk[1].reads,
        0,
        "loaded server should be avoided entirely: {}",
        bound.render()
    );
}

/// The tradeoffs are not chain-specific ("the effects described in
/// Section 4 were seen, in varying degrees, for all query types we
/// investigated", §3.3): on a star join too, hybrid communication
/// tracks the best pure policy.
#[test]
fn star_join_hybrid_matches_best_pure() {
    use csqp::workload::{random_placement, star_query, MODERATE_SEL};
    let query = star_query(5, MODERATE_SEL);
    let mut rng = SimRng::seed_from_u64(23);
    let catalog = random_placement(&query, 2, &mut rng);
    let sys = SystemConfig::default();
    let model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT);
    let mut results = Vec::new();
    for policy in Policy::ALL {
        let opt = Optimizer::new(&model, policy, Objective::Communication, OptConfig::fast());
        let plan = opt.optimize(&query, &mut rng).plan;
        let bound = bind(
            &plan,
            BindContext {
                catalog: &catalog,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        results.push(
            ExecutionBuilder::new(&query, &catalog, &sys)
                .execute(&bound)
                .pages_sent,
        );
    }
    let (ds, qs, hy) = (results[0], results[1], results[2]);
    assert!(
        hy <= ds.min(qs) + 25,
        "star join: HY {hy} vs DS {ds} / QS {qs}"
    );
}

/// SPJ with selective predicates: pushing the select to the producer
/// shrinks communication; the optimized plan must exploit it.
#[test]
fn spj_selections_shrink_communication() {
    use csqp::workload::spj_query;
    let query = spj_query(3, csqp::workload::MODERATE_SEL, 0.1, 1);
    let catalog = {
        let mut c = csqp::catalog::Catalog::new(1);
        for r in &query.relations {
            c.place(r.id, SiteId::server(1));
        }
        c
    };
    let sys = SystemConfig::default();
    let model = CostModel::new(&sys, &catalog, &query, SiteId::CLIENT);
    let opt = Optimizer::new(
        &model,
        Policy::HybridShipping,
        Objective::Communication,
        OptConfig::fast(),
    );
    let mut rng = SimRng::seed_from_u64(19);
    let plan = opt.optimize(&query, &mut rng).plan;
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    let m = ExecutionBuilder::new(&query, &catalog, &sys).execute(&bound);
    // Three 10% selections: result is 10 tuples -> 1 page.
    assert_eq!(m.result_tuples, 10);
    assert_eq!(m.pages_sent, 1, "plan: {}", bound.render());
}
