//! Property tests over the optimizer's transformation rules: arbitrary
//! move sequences must preserve structural validity, policy membership,
//! and the relation set — the invariants that make the randomized walk
//! sound. Two equivalence properties pin the buffer-reusing forms the
//! search runs (DESIGN.md §21): `bind_into` against the fixpoint binder
//! it replaced, and `random_neighbor_into` against `random_neighbor`.

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
use csqp_core::{bind, bind_into, Annotation, BindContext, BindError, LogicalOp, Plan, Policy};
use csqp_cost::{CostModel, Objective};
use csqp_optimizer::moves::{apply_move_verified_in_place, MoveSet};
use csqp_optimizer::random::randomize_annotations;
use csqp_optimizer::{
    applicable_moves, applicable_moves_into, random_neighbor, random_neighbor_into, random_plan,
    OptConfig, Optimizer,
};
use csqp_simkernel::rng::SimRng;
use csqp_verify::{check_logical, Checker};
use proptest::prelude::*;

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

/// The binder `bind_into` replaced, kept as the oracle: resolve display
/// and scans, then sweep the postorder until nothing changes, following
/// each annotation to the parent (`consumer`) or a child.
fn fixpoint_bind(plan: &Plan, ctx: BindContext<'_>) -> Result<Vec<SiteId>, BindError> {
    let order = plan.postorder();
    let parents = plan.parents();
    let mut sites: Vec<Option<SiteId>> = vec![None; plan.arena_len()];
    for &id in &order {
        let n = plan.node(id);
        sites[id.index()] = match (n.op, n.ann) {
            (LogicalOp::Display, _) => Some(ctx.query_site),
            (LogicalOp::Scan { .. }, Annotation::Client) => Some(ctx.query_site),
            (LogicalOp::Scan { rel }, Annotation::PrimaryCopy) => {
                Some(ctx.catalog.primary_site(rel))
            }
            _ => None,
        };
    }
    loop {
        let mut progress = false;
        for &id in &order {
            if sites[id.index()].is_some() {
                continue;
            }
            let n = plan.node(id);
            let referent = match n.ann {
                Annotation::Consumer => match parents[id.index()] {
                    Some((p, _)) => p,
                    None => {
                        return Err(BindError::Malformed {
                            node: id,
                            reason: "'consumer' annotation on the root: no parent to follow".into(),
                        })
                    }
                },
                ann => match ann.points_down_at().and_then(|slot| n.children[slot]) {
                    Some(c) => c,
                    None => {
                        return Err(BindError::Malformed {
                            node: id,
                            reason: format!(
                                "annotation '{ann}' on {:?} has no child to follow",
                                n.op
                            ),
                        })
                    }
                },
            };
            if let Some(site) = sites[referent.index()] {
                sites[id.index()] = Some(site);
                progress = true;
            }
        }
        if order.iter().all(|id| sites[id.index()].is_some()) {
            break;
        }
        if !progress {
            return Err(BindError::Cycle {
                unresolved: order
                    .iter()
                    .copied()
                    .filter(|id| sites[id.index()].is_none())
                    .collect(),
            });
        }
    }
    Ok(sites
        .into_iter()
        .map(|s| s.unwrap_or(ctx.query_site))
        .collect())
}

/// Every annotation the plan format can hold, legal or not.
const ANNOTATIONS: [Annotation; 6] = [
    Annotation::Client,
    Annotation::PrimaryCopy,
    Annotation::Consumer,
    Annotation::Producer,
    Annotation::InnerRel,
    Annotation::OuterRel,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A long random walk of accepted moves never leaves the policy's
    /// valid, well-formed space, and never changes which relations are
    /// scanned.
    #[test]
    fn move_sequences_preserve_invariants(
        n in 2u32..7,
        policy_idx in 0usize..3,
        seed in 0u64..10_000,
        walk in 5usize..60,
    ) {
        let q = chain(n);
        let policy = Policy::ALL[policy_idx];
        let mut rng = SimRng::seed_from_u64(seed);
        let mut plan = random_plan(&q, policy, &mut rng);
        let rels_before = plan.rel_set(plan.root());
        let set = MoveSet::for_policy(policy);
        for _ in 0..walk {
            let moves = applicable_moves(&plan, policy, set);
            if moves.is_empty() {
                break;
            }
            let mv = *rng.pick(&moves);
            let mut cand = plan.clone();
            if !apply_move_verified_in_place(&mut cand, mv, &q, policy) {
                continue; // the search rejects these too
            }
            cand.validate_structure(&q).unwrap();
            policy.validate(&cand).unwrap();
            prop_assert_eq!(cand.rel_set(cand.root()), rels_before);
            plan = cand;
        }
    }

    /// Every applicable move applies: `apply_move_verified_in_place`
    /// changes the plan, never panics and never yields a structurally
    /// broken plan (an annotation cycle is rejected, but still a tree).
    #[test]
    fn applicable_moves_apply(
        n in 2u32..7,
        seed in 0u64..10_000,
    ) {
        let q = chain(n);
        let mut rng = SimRng::seed_from_u64(seed);
        let plan = random_plan(&q, Policy::HybridShipping, &mut rng);
        let set = MoveSet::for_policy(Policy::HybridShipping);
        for mv in applicable_moves(&plan, Policy::HybridShipping, set) {
            let mut applied = plan.clone();
            apply_move_verified_in_place(&mut applied, mv, &q, Policy::HybridShipping);
            prop_assert!(applied != plan, "listed move must apply: {:?} on {}", mv, plan);
            applied.validate_structure(&q).unwrap();
        }
    }

    /// The static analyzer's view of the same invariant: every verified
    /// move maps a policy-conformant well-formed plan to another one, for
    /// every policy — `check_logical` finds nothing to flag.
    #[test]
    fn verified_moves_map_conformant_plans_to_conformant_plans(
        n in 2u32..7,
        policy_idx in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let q = chain(n);
        let policy = Policy::ALL[policy_idx];
        let mut rng = SimRng::seed_from_u64(seed);
        let plan = random_plan(&q, policy, &mut rng);
        prop_assert!(check_logical(&plan, &q, policy).is_clean());
        let set = MoveSet::for_policy(policy);
        for mv in applicable_moves(&plan, policy, set) {
            let mut next = plan.clone();
            if apply_move_verified_in_place(&mut next, mv, &q, policy) {
                let report = check_logical(&next, &q, policy);
                prop_assert!(
                    report.is_clean(),
                    "verified move {:?} left diagnostics under {}:\n{}",
                    mv, policy.short(), report
                );
            }
        }
    }

    /// End to end: for every policy × objective the two-phase optimizer
    /// returns a plan that passes all four analyzer passes against a
    /// real catalog and config.
    #[test]
    fn optimizer_output_verifies_for_all_policies_and_objectives(
        policy_idx in 0usize..3,
        objective_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let q = chain(4);
        let policy = Policy::ALL[policy_idx];
        let objective = [
            Objective::Communication,
            Objective::ResponseTime,
            Objective::TotalCost,
        ][objective_idx];
        let config = SystemConfig::default();
        let mut catalog = Catalog::new(2);
        for (i, r) in q.relations.iter().enumerate() {
            catalog.place(r.id, SiteId::server(1 + (i as u32) % 2));
        }
        let model = CostModel::new(&config, &catalog, &q, SiteId::CLIENT);
        // A deliberately small search budget: the property is about the
        // output's validity, not the search's quality.
        let opt_cfg = OptConfig {
            ii_starts: 2,
            ii_patience: 8,
            sa_t0_factor: 0.05,
            sa_alpha: 0.7,
            sa_moves_per_join: 3,
            sa_frozen_stages: 2,
            sa_min_temp_frac: 0.1,
            paper_moves_only: false,
        };
        let optimizer = Optimizer::new(&model, policy, objective, opt_cfg);
        let mut rng = SimRng::seed_from_u64(seed);
        let result = optimizer.optimize(&q, &mut rng);
        let report = Checker::new(&q, &catalog, &config, SiteId::CLIENT)
            .with_policy(policy)
            .check(&result.plan);
        prop_assert!(
            report.is_clean(),
            "optimizer [{} / {}] returned a plan with diagnostics:\n{}",
            policy.short(), objective, report
        );
    }

    /// `bind_into` gives the fixpoint binder's sites, and fails exactly
    /// when it does with the same error, on random plans, plans redrawn
    /// and repaired, plans redrawn without repair (two-node cycles) and
    /// plans with arbitrary, even illegal, annotations (`Malformed`).
    /// `bind` agrees with both. One buffer serves every plan, so stale
    /// contents from a larger or failed bind must not leak through.
    #[test]
    fn buffer_binder_matches_the_fixpoint_binder(
        n in 2u32..8,
        policy_idx in 0usize..3,
        servers in 1u32..12,
        seed in 0u64..100_000,
    ) {
        let q = chain(n).with_selection(RelId(0), 0.5);
        let policy = Policy::ALL[policy_idx];
        let mut catalog = Catalog::new(servers);
        for (i, r) in q.relations.iter().enumerate() {
            catalog.place(r.id, SiteId::server(1 + (i as u32 * 7) % servers));
        }
        let ctx = BindContext { catalog: &catalog, query_site: SiteId::CLIENT };
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sites = vec![SiteId::server(servers); 64];
        let (mut bound, mut failed) = (0, 0);
        for round in 0..24 {
            let mut plan = random_plan(&q, policy, &mut rng);
            match round % 4 {
                0 => {}
                1 => randomize_annotations(&mut plan, policy, &mut rng),
                2 => {
                    for id in plan.postorder() {
                        let op = plan.node(id).op;
                        plan.node_mut(id).ann = *rng.pick(policy.allowed(op));
                    }
                }
                _ => {
                    for id in plan.postorder() {
                        plan.node_mut(id).ann = *rng.pick(&ANNOTATIONS);
                    }
                }
            }
            let want = fixpoint_bind(&plan, ctx);
            let got = bind_into(&plan, ctx, &mut sites).map(|()| sites.clone());
            prop_assert_eq!(&got, &want, "{}", plan);
            prop_assert_eq!(bind(&plan, ctx).map(|b| b.sites), want.clone(), "{}", plan);
            if want.is_ok() { bound += 1 } else { failed += 1 }
        }
        prop_assert!(bound > 0, "no plan bound");
        prop_assert!(failed > 0, "no plan failed to bind");
    }

    /// The search's in-place neighbor step, with a reused move list and
    /// a reused candidate that starts as a different plan, gives the
    /// same plan and move kind as `random_neighbor` and leaves the RNG
    /// in the same state, on seeded walks for every policy and move set.
    #[test]
    fn in_place_neighbor_step_matches_random_neighbor(
        n in 2u32..8,
        policy_idx in 0usize..3,
        set_idx in 0usize..3,
        seed in 0u64..100_000,
        walk in 5usize..60,
    ) {
        let q = chain(n);
        let policy = Policy::ALL[policy_idx];
        let set = match set_idx {
            0 => MoveSet::for_policy(policy),
            1 => MoveSet { commute: false, ..MoveSet::for_policy(policy) },
            _ => MoveSet::site_selection_only(),
        };
        let mut rng = SimRng::seed_from_u64(seed);
        let mut plan = random_plan(&q, policy, &mut rng);
        let mut twin = rng.clone();
        let mut moves = Vec::new();
        let mut cand = random_plan(&chain(n + 3), Policy::HybridShipping, &mut rng.clone());
        for _ in 0..walk {
            let want = random_neighbor(&plan, &q, policy, set, &mut rng);
            applicable_moves_into(&plan, policy, set, &mut moves);
            prop_assert_eq!(&moves, &applicable_moves(&plan, policy, set));
            let got = random_neighbor_into(&plan, &moves, &q, policy, &mut twin, &mut cand);
            prop_assert_eq!(format!("{rng:?}"), format!("{twin:?}"));
            match want {
                Some((next, kind)) => {
                    prop_assert_eq!(got, Some(kind));
                    prop_assert_eq!(&cand, &next);
                    plan = next;
                }
                None => prop_assert_eq!(got, None),
            }
        }
    }

    /// The arena never leaks: after any single move the plan has the
    /// same number of reachable nodes.
    #[test]
    fn moves_do_not_leak_nodes(
        n in 2u32..7,
        seed in 0u64..10_000,
    ) {
        let q = chain(n);
        let mut rng = SimRng::seed_from_u64(seed);
        let plan = random_plan(&q, Policy::HybridShipping, &mut rng);
        let reachable_before = plan.postorder().len();
        let set = MoveSet::for_policy(Policy::HybridShipping);
        for mv in applicable_moves(&plan, Policy::HybridShipping, set) {
            let mut applied = plan.clone();
            apply_move_verified_in_place(&mut applied, mv, &q, Policy::HybridShipping);
            prop_assert_eq!(applied.postorder().len(), reachable_before);
            prop_assert_eq!(applied.arena_len(), plan.arena_len());
        }
    }
}
