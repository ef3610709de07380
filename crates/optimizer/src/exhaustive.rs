//! Exhaustive optimization for small queries — the ground truth the
//! randomized two-phase optimizer is validated against.
//!
//! Enumerates *every* join tree (all shapes × all leaf arrangements,
//! skipping Cartesian products on connected graphs) and, for each tree,
//! *every* policy-legal, well-formed annotation assignment. Exponential,
//! so only usable for a handful of relations — which is exactly what the
//! tests need ("for the purposes of this study … it is necessary only
//! that the generated plans be 'reasonable' rather than truly optimal",
//! §3.1.1; this module tells us how close to optimal they actually are).

use csqp_catalog::{QuerySpec, RelId, RelSet};
use csqp_core::{is_well_formed, JoinTree, Plan, Policy};
use csqp_cost::{CostModel, Objective};

/// Upper bound on relations for exhaustive search (4 relations already
/// yields 120 trees × hundreds of annotation assignments).
pub const MAX_EXHAUSTIVE_RELATIONS: usize = 5;

/// Enumerate all join trees over `rels` (both operand orders — the build
/// side matters for hybrid hash).
fn all_trees(query: &QuerySpec, rels: &[RelId]) -> Vec<JoinTree> {
    if rels.len() == 1 {
        return vec![JoinTree::leaf(rels[0])];
    }
    let mut out = Vec::new();
    // Every proper non-empty subset as the inner side (ordered pairs).
    let n = rels.len();
    for mask in 1u32..(1 << n) - 1 {
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (i, r) in rels.iter().enumerate() {
            if mask >> i & 1 == 1 {
                left.push(*r);
            } else {
                right.push(*r);
            }
        }
        let lset = left
            .iter()
            .fold(RelSet::EMPTY, |s, r| s.union(RelSet::single(*r)));
        let rset = right
            .iter()
            .fold(RelSet::EMPTY, |s, r| s.union(RelSet::single(*r)));
        if !query.joinable(lset, rset) {
            continue; // skip Cartesian products (connected benchmark graphs)
        }
        for lt in all_trees(query, &left) {
            for rt in all_trees(query, &right) {
                out.push(JoinTree::join(lt.clone(), rt));
            }
        }
    }
    out
}

/// Enumerate every policy-legal annotation assignment of `plan`,
/// yielding only well-formed variants.
fn all_annotations(plan: &Plan, policy: Policy) -> Vec<Plan> {
    let nodes = plan.postorder();
    let mut variants = vec![plan.clone()];
    for id in nodes {
        let op = plan.node(id).op;
        let choices = policy.allowed(op);
        let mut next = Vec::with_capacity(variants.len() * choices.len());
        for v in &variants {
            for &ann in choices {
                let mut w = v.clone();
                w.node_mut(id).ann = ann;
                next.push(w);
            }
        }
        variants = next;
    }
    variants.retain(is_well_formed);
    variants
}

/// The true optimum over the full (tree × annotation) space.
///
/// Returns the best plan and its metric value.
// Invariant panic: the enumeration always yields at least one
// policy-conformant plan per tree, and conformant plans bind.
#[allow(clippy::expect_used)]
pub fn exhaustive_optimum(
    query: &QuerySpec,
    policy: Policy,
    objective: Objective,
    model: &CostModel<'_>,
) -> (Plan, f64) {
    assert!(
        query.num_relations() <= MAX_EXHAUSTIVE_RELATIONS,
        "exhaustive search over {} relations would not terminate usefully",
        query.num_relations()
    );
    let rels: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
    let mut best: Option<(Plan, f64)> = None;
    let mut plans_seen = 0u64;
    for tree in all_trees(query, &rels) {
        let skeleton = tree.into_plan(
            query,
            csqp_core::Annotation::Consumer,
            csqp_core::Annotation::Client,
        );
        for plan in all_annotations(&skeleton, policy) {
            plans_seen += 1;
            let Some(cost) = model.evaluate_plan(&plan, objective) else {
                continue;
            };
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
    }
    assert!(plans_seen > 0, "no plans enumerated");
    best.expect("at least one plan binds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{Catalog, JoinEdge, Relation, SiteId, SystemConfig};
    use csqp_simkernel::rng::SimRng;

    fn chain(n: u32) -> QuerySpec {
        let rels = (0..n)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = (0..n - 1)
            .map(|i| JoinEdge {
                a: RelId(i),
                b: RelId(i + 1),
                selectivity: 1e-4,
            })
            .collect();
        QuerySpec::new(rels, edges)
    }

    fn catalog(n: u32, servers: u32) -> Catalog {
        let mut c = Catalog::new(servers);
        for i in 0..n {
            c.place(RelId(i), SiteId::server(1 + i % servers));
        }
        c
    }

    #[test]
    fn tree_enumeration_counts() {
        let q = chain(3);
        // Chain of 3: splits {0}|{12}, {01}|{2}, {1}|{02}(cross, skipped),
        // plus operand orders and inner shapes.
        let trees = all_trees(&q, &[RelId(0), RelId(1), RelId(2)]);
        assert!(!trees.is_empty());
        for t in &trees {
            assert_eq!(t.leaves(), 3);
        }
        // All trees distinct.
        let mut rendered: Vec<String> = trees
            .iter()
            .map(|t| {
                t.clone()
                    .into_plan(
                        &q,
                        csqp_core::Annotation::Consumer,
                        csqp_core::Annotation::Client,
                    )
                    .render_compact()
            })
            .collect();
        rendered.sort();
        let n = rendered.len();
        rendered.dedup();
        assert_eq!(rendered.len(), n, "duplicate trees enumerated");
    }

    #[test]
    fn annotation_enumeration_respects_policy_and_wellformedness() {
        let q = chain(3);
        let skeleton = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            csqp_core::Annotation::Consumer,
            csqp_core::Annotation::Client,
        );
        let ds = all_annotations(&skeleton, Policy::DataShipping);
        assert_eq!(ds.len(), 1, "DS has a single legal assignment");
        let qs = all_annotations(&skeleton, Policy::QueryShipping);
        // 2 joins × 2 annotations = 4, all well-formed.
        assert_eq!(qs.len(), 4);
        let hy = all_annotations(&skeleton, Policy::HybridShipping);
        // 3^2 × 2^3 = 72 raw, minus ill-formed ones.
        assert!(hy.len() > 40 && hy.len() <= 72, "{}", hy.len());
        for p in &hy {
            assert!(is_well_formed(p));
            Policy::HybridShipping.validate(p).unwrap();
        }
    }

    /// The headline validation: 2PO lands within 10% of the true optimum
    /// on every policy × objective combination for 3-way joins over two
    /// servers with a partially cached client.
    #[test]
    fn two_phase_is_near_optimal_on_small_queries() {
        let q = chain(3);
        let mut cat = catalog(3, 2);
        cat.set_cached_fraction(RelId(0), 1.0);
        let sys = SystemConfig::default();
        let model = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
        for policy in Policy::ALL {
            for objective in [Objective::Communication, Objective::ResponseTime] {
                let (_, exact) = exhaustive_optimum(&q, policy, objective, &model);
                let opt = crate::search::Optimizer::new(
                    &model,
                    policy,
                    objective,
                    crate::search::OptConfig::fast(),
                );
                let mut rng = SimRng::seed_from_u64(31);
                let found = opt.optimize(&q, &mut rng);
                // The search metric includes the tie-break; compare the
                // raw objective values.
                let found_raw = model.evaluate_plan(&found.plan, objective).unwrap();
                assert!(
                    found_raw <= exact * 1.10 + 1e-9,
                    "{policy}/{objective}: 2PO {found_raw} vs optimum {exact}"
                );
                // And the optimum is never better than what exhaustive
                // search says is possible.
                assert!(found_raw >= exact - 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "would not terminate")]
    fn exhaustive_rejects_big_queries() {
        let q = chain(8);
        let cat = catalog(8, 2);
        let sys = SystemConfig::default();
        let model = CostModel::new(&sys, &cat, &q, SiteId::CLIENT);
        exhaustive_optimum(&q, Policy::DataShipping, Objective::Communication, &model);
    }
}
