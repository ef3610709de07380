//! The aggregate-operator extension (paper footnote 4) end-to-end:
//! structural rules, policy placement, engine semantics, and the
//! communication win of aggregating at the producer.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp::catalog::{RelId, SiteId, SystemConfig};
use csqp::core::{bind, Annotation, BindContext, JoinTree, LogicalOp, Policy};
use csqp::cost::{CostModel, Objective};
use csqp::engine::ExecutionBuilder;
use csqp::optimizer::{OptConfig, Optimizer};
use csqp::simkernel::rng::SimRng;
use csqp::workload::{single_server_placement, two_way};

fn agg_query(groups: u64) -> csqp::catalog::QuerySpec {
    two_way().with_aggregate(groups)
}

fn plan_with(
    query: &csqp::catalog::QuerySpec,
    jann: Annotation,
    sann: Annotation,
) -> csqp::core::Plan {
    JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(query, jann, sann)
}

#[test]
fn builder_inserts_aggregate_under_display() {
    let q = agg_query(100);
    let plan = plan_with(&q, Annotation::InnerRel, Annotation::PrimaryCopy);
    plan.validate_structure(&q).unwrap();
    let root_child = plan.node(plan.root()).children[0].unwrap();
    assert!(matches!(
        plan.node(root_child).op,
        LogicalOp::Aggregate { groups: 100 }
    ));
    assert!(plan.render_compact().contains("(agg 100:prod"));
}

#[test]
fn structure_validation_enforces_aggregate_consistency() {
    // Plan without the aggregate for an aggregating query: rejected.
    let q = agg_query(100);
    let plain = plan_with(&two_way(), Annotation::Consumer, Annotation::Client);
    assert!(plain.validate_structure(&q).is_err());
    // Aggregating plan for a plain query: rejected.
    let agg_plan = plan_with(&q, Annotation::Consumer, Annotation::Client);
    assert!(agg_plan.validate_structure(&two_way()).is_err());
}

#[test]
fn policies_restrict_aggregate_like_select() {
    let agg = LogicalOp::Aggregate { groups: 10 };
    assert_eq!(Policy::DataShipping.allowed(agg), &[Annotation::Consumer]);
    assert_eq!(Policy::QueryShipping.allowed(agg), &[Annotation::Producer]);
    assert_eq!(
        Policy::HybridShipping.allowed(agg),
        &[Annotation::Consumer, Annotation::Producer]
    );
}

#[test]
fn engine_produces_exactly_the_groups() {
    let q = agg_query(100);
    let catalog = single_server_placement(&q);
    let sys = SystemConfig::default();
    let plan = plan_with(&q, Annotation::InnerRel, Annotation::PrimaryCopy);
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    let m = ExecutionBuilder::new(&q, &catalog, &sys).execute(&bound);
    assert_eq!(m.result_tuples, 100);
    // Aggregate at the producer (server): only 3 pages cross the wire.
    assert_eq!(m.pages_sent, 3);
}

#[test]
fn aggregate_at_consumer_ships_the_full_result() {
    let q = agg_query(100);
    let catalog = single_server_placement(&q);
    let sys = SystemConfig::default();
    let mut plan = plan_with(&q, Annotation::InnerRel, Annotation::PrimaryCopy);
    // Flip the aggregate to consumer: it follows the display to the
    // client, so the whole 250-page join result crosses the wire first.
    let agg = plan.node(plan.root()).children[0].unwrap();
    plan.node_mut(agg).ann = Annotation::Consumer;
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    assert!(bound.site(agg).is_client());
    let m = ExecutionBuilder::new(&q, &catalog, &sys).execute(&bound);
    assert_eq!(m.result_tuples, 100);
    assert_eq!(m.pages_sent, 250);
}

#[test]
fn optimizer_pushes_aggregate_to_the_producer_for_communication() {
    let q = agg_query(50);
    let catalog = single_server_placement(&q);
    let sys = SystemConfig::default();
    let model = CostModel::new(&sys, &catalog, &q, SiteId::CLIENT);
    let opt = Optimizer::new(
        &model,
        Policy::HybridShipping,
        Objective::Communication,
        OptConfig::fast(),
    );
    let mut rng = SimRng::seed_from_u64(4);
    let plan = opt.optimize(&q, &mut rng).plan;
    let bound = bind(
        &plan,
        BindContext {
            catalog: &catalog,
            query_site: SiteId::CLIENT,
        },
    )
    .unwrap();
    let m = ExecutionBuilder::new(&q, &catalog, &sys).execute(&bound);
    // 50 groups = 2 pages: aggregation (and the join) stay at the server.
    assert_eq!(m.pages_sent, 2, "plan: {}", bound.render());
    assert_eq!(m.result_tuples, 50);
}

#[test]
fn cost_model_matches_engine_for_aggregates() {
    let q = agg_query(100);
    let catalog = single_server_placement(&q);
    let sys = SystemConfig::default();
    let model = CostModel::new(&sys, &catalog, &q, SiteId::CLIENT);
    for ann in [Annotation::Producer, Annotation::Consumer] {
        let mut plan = plan_with(&q, Annotation::InnerRel, Annotation::PrimaryCopy);
        let agg = plan.node(plan.root()).children[0].unwrap();
        plan.node_mut(agg).ann = ann;
        let bound = bind(
            &plan,
            BindContext {
                catalog: &catalog,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        let est = model.cost_bound(&bound).get(Objective::Communication);
        let m = ExecutionBuilder::new(&q, &catalog, &sys).execute(&bound);
        assert_eq!(est as u64, m.pages_sent, "annotation {ann}");
    }
}
