//! Well-formedness of annotated plans (§2.2.3).
//!
//! "A well-formed plan has no cycles, and as a consequence, there is a
//! path (via annotations) from every node of the plan to a leaf (i.e.,
//! scan) or to the root (i.e., display). A cycle can be observed for
//! example, if an operator A produces the input of an operator B, and the
//! site annotation of A is consumer and of B is producer. … Fortunately,
//! because the query plans are trees, only cycles with two nodes can
//! occur."
//!
//! A two-node cycle exists exactly when a parent's annotation points down
//! at a child slot whose occupant's annotation points back up
//! (`consumer`).

use std::ops::ControlFlow;

use crate::diag::{DiagCode, Diagnostic};
use crate::plan::Plan;

/// True when `plan` has no annotation cycle, i.e. every site binds.
/// Allocation-free, so a search can screen every candidate with it.
pub fn is_well_formed(plan: &Plan) -> bool {
    find_cycle(plan).is_none()
}

/// The first (parent, child) pair forming a two-node annotation cycle, in
/// postorder, or `None` for a well-formed plan.
///
/// A down-pointing annotation over an *empty* child slot (an arity
/// violation) is not a cycle; [`check_well_formed`] reports it as a
/// diagnostic, and `Plan::validate_structure` rejects it outright.
pub fn find_cycle(plan: &Plan) -> Option<(crate::plan::NodeId, crate::plan::NodeId)> {
    let found = plan.try_for_each_postorder(|id| {
        let n = plan.node(id);
        match n.ann.points_down_at().and_then(|slot| n.children[slot]) {
            Some(child) if plan.node(child).ann.points_up() => ControlFlow::Break((id, child)),
            _ => ControlFlow::Continue(()),
        }
    });
    match found {
        ControlFlow::Break(pair) => Some(pair),
        ControlFlow::Continue(()) => None,
    }
}

/// Check well-formedness, reporting the offending annotation pair with
/// its node path instead of a bare boolean.
pub fn check_well_formed(plan: &Plan) -> Result<(), Diagnostic> {
    for id in plan.postorder() {
        let n = plan.node(id);
        if let Some(slot) = n.ann.points_down_at() {
            match n.children[slot] {
                None => {
                    return Err(Diagnostic::at(
                        DiagCode::DanglingChild,
                        plan,
                        id,
                        format!(
                            "annotation '{}' points at empty child slot {slot} of {:?}",
                            n.ann, n.op
                        ),
                    ))
                }
                Some(child) => {
                    let c = plan.node(child);
                    if c.ann.points_up() {
                        return Err(Diagnostic::at(
                            DiagCode::AnnotationCycle,
                            plan,
                            id,
                            format!(
                                "two-node cycle: {:?} '{}' points down at {:?} '{}', \
                                 which points back up",
                                n.op, n.ann, c.op, c.ann
                            ),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use crate::builder::JoinTree;
    use crate::plan::LogicalOp;
    use csqp_catalog::{JoinEdge, QuerySpec, RelId, Relation};

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

    #[test]
    fn pure_plans_are_well_formed() {
        let q = chain(4);
        let order: Vec<RelId> = (0..4).map(RelId).collect();
        for (jann, sann) in [
            (Annotation::Consumer, Annotation::Client),
            (Annotation::InnerRel, Annotation::PrimaryCopy),
            (Annotation::OuterRel, Annotation::PrimaryCopy),
        ] {
            let p = JoinTree::left_deep(&order).into_plan(&q, jann, sann);
            assert!(is_well_formed(&p), "{p}");
        }
    }

    #[test]
    fn join_pointing_at_consumer_join_is_a_cycle() {
        // join_top[inner] -> join_bot, join_bot[consumer] -> join_top.
        let q = chain(3);
        let order: Vec<RelId> = (0..3).map(RelId).collect();
        let mut p =
            JoinTree::left_deep(&order).into_plan(&q, Annotation::Consumer, Annotation::Client);
        let joins = p.join_nodes(); // postorder: bottom join first
        let (bottom, top) = (joins[0], joins[1]);
        p.node_mut(top).ann = Annotation::InnerRel; // points at child 0 = bottom
        p.node_mut(bottom).ann = Annotation::Consumer; // points back up
        let cyc = find_cycle(&p);
        assert_eq!(cyc, Some((top, bottom)));
        assert!(!is_well_formed(&p));
    }

    #[test]
    fn select_producer_under_pointing_join_is_fine() {
        // producer points *down* (towards the scan), so no cycle with a
        // parent pointing at the select.
        let q = chain(2).with_selection(RelId(0), 0.5);
        let mut p = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        );
        // join points at child 0, which is the select (annotation
        // producer): both point down -> well-formed.
        assert!(is_well_formed(&p));
        // Flip the select to consumer: join[inner] -> select[consumer] is
        // now a cycle.
        let sel = p
            .postorder()
            .into_iter()
            .find(|&id| matches!(p.node(id).op, LogicalOp::Select { .. }))
            .unwrap();
        p.node_mut(sel).ann = Annotation::Consumer;
        assert!(!is_well_formed(&p));
    }

    #[test]
    fn outer_rel_cycle_detected_on_slot_one() {
        let q = chain(3);
        // Bushy-ish: top join's child 1 is a join.
        let t = JoinTree::join(
            JoinTree::leaf(RelId(0)),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(2))),
        );
        let mut p = t.into_plan(&q, Annotation::Consumer, Annotation::Client);
        let joins = p.join_nodes();
        let (inner_join, top_join) = (joins[0], joins[1]);
        p.node_mut(top_join).ann = Annotation::OuterRel; // points at child 1
        p.node_mut(inner_join).ann = Annotation::Consumer;
        assert!(!is_well_formed(&p));
        // But pointing at child 0 (a scan, which can't point up) is fine.
        p.node_mut(top_join).ann = Annotation::InnerRel;
        assert!(is_well_formed(&p));
    }
}
