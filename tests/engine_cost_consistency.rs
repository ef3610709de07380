//! Cross-crate consistency: the analytic cost model and the detailed
//! simulator must agree wherever the model has no approximation to make
//! (page counts), and stay within sane bounds where it does (time).

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp::catalog::{BufAlloc, Catalog, RelId, SiteId, SystemConfig};
use csqp::core::{bind, Annotation, BindContext, JoinTree, Plan};
use csqp::cost::{CostModel, Objective};
use csqp::engine::ExecutionBuilder;
use csqp::workload::{cache_all, chain_query, single_server_placement, MODERATE_SEL};

fn canonical_plan(query: &csqp::catalog::QuerySpec, jann: Annotation, sann: Annotation) -> Plan {
    let order: Vec<RelId> = (0..query.num_relations() as u32).map(RelId).collect();
    JoinTree::left_deep(&order).into_plan(query, jann, sann)
}

fn run_both(
    query: &csqp::catalog::QuerySpec,
    catalog: &Catalog,
    sys: &SystemConfig,
    plan: &Plan,
) -> (f64, u64, f64, f64) {
    let model = CostModel::new(sys, catalog, query, SiteId::CLIENT);
    let bound = bind(
        plan,
        BindContext {
            catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    let est_pages = model.cost_bound(&bound).get(Objective::Communication);
    let est_rt = model.cost_bound(&bound).get(Objective::ResponseTime);
    let m = ExecutionBuilder::new(query, catalog, sys).execute(&bound);
    (est_pages, m.pages_sent, est_rt, m.response_secs())
}

/// Pages sent: model and simulator agree exactly for canonical DS and QS
/// plans across cache levels and chain lengths.
#[test]
fn pages_sent_model_equals_simulation() {
    for n in [2u32, 3, 5] {
        let query = chain_query(n, MODERATE_SEL);
        for cached in [0.0, 0.3, 1.0] {
            let mut catalog = single_server_placement(&query);
            cache_all(&mut catalog, &query, cached);
            let sys = SystemConfig::default();
            for (jann, sann) in [
                (Annotation::Consumer, Annotation::Client),
                (Annotation::InnerRel, Annotation::PrimaryCopy),
            ] {
                let plan = canonical_plan(&query, jann, sann);
                let (est, sim, _, _) = run_both(&query, &catalog, &sys, &plan);
                assert_eq!(
                    est as u64, sim,
                    "n={n} cached={cached} plan={plan}: est {est} sim {sim}"
                );
            }
        }
    }
}

/// Response time: the model's full-overlap optimism means it may
/// under-estimate, but for canonical plans it stays within a factor of
/// two of the simulator and never over-estimates by more than 50%.
#[test]
fn response_time_model_brackets_simulation() {
    for alloc in [BufAlloc::Min, BufAlloc::Max] {
        for n in [2u32, 4] {
            let query = chain_query(n, MODERATE_SEL);
            let catalog = single_server_placement(&query);
            let mut sys = SystemConfig::default();
            sys.buf_alloc = alloc;
            for (jann, sann) in [
                (Annotation::Consumer, Annotation::Client),
                (Annotation::InnerRel, Annotation::PrimaryCopy),
            ] {
                let plan = canonical_plan(&query, jann, sann);
                let (_, _, est, sim) = run_both(&query, &catalog, &sys, &plan);
                assert!(
                    est > 0.4 * sim && est < 1.5 * sim,
                    "{alloc:?} n={n} plan={plan}: est {est:.2}s vs sim {sim:.2}s"
                );
            }
        }
    }
}

/// The simulator is bit-deterministic for a given seed, and the load
/// generator's seed only matters when a load exists.
#[test]
fn simulation_determinism() {
    let query = chain_query(3, MODERATE_SEL);
    let catalog = single_server_placement(&query);
    let sys = SystemConfig::default();
    let plan = canonical_plan(&query, Annotation::InnerRel, Annotation::PrimaryCopy);
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();

    let m1 = ExecutionBuilder::new(&query, &catalog, &sys)
        .with_seed(1)
        .execute(&bound);
    let m2 = ExecutionBuilder::new(&query, &catalog, &sys)
        .with_seed(2)
        .execute(&bound);
    assert_eq!(
        m1.response_time, m2.response_time,
        "no load -> seed-independent"
    );

    let l1 = ExecutionBuilder::new(&query, &catalog, &sys)
        .with_seed(1)
        .with_load(SiteId::server(1), 50.0)
        .execute(&bound);
    let l1b = ExecutionBuilder::new(&query, &catalog, &sys)
        .with_seed(1)
        .with_load(SiteId::server(1), 50.0)
        .execute(&bound);
    let l2 = ExecutionBuilder::new(&query, &catalog, &sys)
        .with_seed(2)
        .with_load(SiteId::server(1), 50.0)
        .execute(&bound);
    assert_eq!(l1.response_time, l1b.response_time, "same seed, same run");
    assert_ne!(l1.response_time, l2.response_time, "load varies by seed");
    assert!(
        l1.response_secs() > m1.response_secs(),
        "load slows the query"
    );
}

/// Result cardinality is invariant across policies, placements and
/// allocations: every execution displays exactly the estimated result.
#[test]
fn result_cardinality_invariant() {
    let query = chain_query(4, MODERATE_SEL);
    for servers in [1u32, 2, 4] {
        let mut catalog = Catalog::new(servers);
        for i in 0..4 {
            catalog.place(RelId(i), SiteId::server(1 + i % servers));
        }
        for alloc in [BufAlloc::Min, BufAlloc::Max] {
            let mut sys = SystemConfig::default();
            sys.buf_alloc = alloc;
            for (jann, sann) in [
                (Annotation::Consumer, Annotation::Client),
                (Annotation::InnerRel, Annotation::PrimaryCopy),
                (Annotation::OuterRel, Annotation::PrimaryCopy),
            ] {
                let plan = canonical_plan(&query, jann, sann);
                let bound = bind(
                    &plan,
                    BindContext {
                        catalog: &catalog,
                        query_site: SiteId::CLIENT,
                    },
                )
                .unwrap();
                let m = ExecutionBuilder::new(&query, &catalog, &sys).execute(&bound);
                let diff = (m.result_tuples as i64 - 10_000).abs();
                assert!(
                    diff <= 2,
                    "{servers} servers {alloc:?} {plan}: {} tuples",
                    m.result_tuples
                );
            }
        }
    }
}
