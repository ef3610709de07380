//! Plan constructors.
//!
//! [`JoinTree`] is the *shape* of a join order — a binary tree over base
//! relations. [`JoinTree::into_plan`] turns it into a full [`Plan`]:
//! a display on top, a scan per leaf (and a select over the scan where the
//! query carries a selection predicate), and uniform default annotations
//! that the caller (usually the optimizer) then mutates.

use csqp_catalog::{QuerySpec, RelId};

use crate::annotation::Annotation;
use crate::plan::{LogicalOp, NodeId, Plan, PlanNode};

/// A binary join-order tree over base relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    /// A base relation.
    Leaf(RelId),
    /// A join; left is the inner (build) input, right the outer (probe).
    Node(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// A leaf.
    pub fn leaf(rel: RelId) -> JoinTree {
        JoinTree::Leaf(rel)
    }

    /// An internal join node.
    pub fn join(inner: JoinTree, outer: JoinTree) -> JoinTree {
        JoinTree::Node(Box::new(inner), Box::new(outer))
    }

    /// A left-deep tree joining `order[0] ⋈ order[1] ⋈ …`, each earlier
    /// result the inner of the next join.
    pub fn left_deep(order: &[RelId]) -> JoinTree {
        assert!(!order.is_empty(), "empty join order");
        let mut t = JoinTree::leaf(order[0]);
        for &r in &order[1..] {
            t = JoinTree::join(t, JoinTree::leaf(r));
        }
        t
    }

    /// A balanced bushy tree over `order` (splitting each range in half).
    pub fn balanced(order: &[RelId]) -> JoinTree {
        assert!(!order.is_empty(), "empty join order");
        if order.len() == 1 {
            JoinTree::leaf(order[0])
        } else {
            let mid = order.len() / 2;
            JoinTree::join(Self::balanced(&order[..mid]), Self::balanced(&order[mid..]))
        }
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 1,
            JoinTree::Node(l, r) => l.leaves() + r.leaves(),
        }
    }

    /// Build the full plan. Every join gets `join_ann`, every scan
    /// `scan_ann`; selects (inserted above scans of relations with a
    /// selection predicate) get `producer` so they start glued to their
    /// scan. The display is always `client` (Table 1: all policies).
    pub fn into_plan(&self, query: &QuerySpec, join_ann: Annotation, scan_ann: Annotation) -> Plan {
        let mut plan = Plan::from_parts(Vec::new(), NodeId(0));
        let mut top = self.build(query, &mut plan, join_ann, scan_ann);
        if let Some(groups) = query.aggregate_groups {
            top = plan.push(PlanNode {
                op: LogicalOp::Aggregate { groups },
                ann: Annotation::Producer,
                children: [Some(top), None],
            });
        }
        let root = plan.push(PlanNode {
            op: LogicalOp::Display,
            ann: Annotation::Client,
            children: [Some(top), None],
        });
        let plan = Plan::from_parts(
            (0..plan.arena_len())
                .map(|i| plan.node(NodeId(i as u32)).clone())
                .collect(),
            root,
        );
        debug_assert_eq!(plan.validate_structure(query), Ok(()));
        plan
    }

    fn build(
        &self,
        query: &QuerySpec,
        plan: &mut Plan,
        join_ann: Annotation,
        scan_ann: Annotation,
    ) -> NodeId {
        match self {
            JoinTree::Leaf(rel) => {
                let scan = plan.push(PlanNode {
                    op: LogicalOp::Scan { rel: *rel },
                    ann: scan_ann,
                    children: [None, None],
                });
                if query.selection[rel.index()] < 1.0 {
                    plan.push(PlanNode {
                        op: LogicalOp::Select { rel: *rel },
                        ann: Annotation::Producer,
                        children: [Some(scan), None],
                    })
                } else {
                    scan
                }
            }
            JoinTree::Node(l, r) => {
                let li = l.build(query, plan, join_ann, scan_ann);
                let ri = r.build(query, plan, join_ann, scan_ann);
                plan.push(PlanNode {
                    op: LogicalOp::Join,
                    ann: join_ann,
                    children: [Some(li), Some(ri)],
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{JoinEdge, Relation};

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
    fn left_deep_shape() {
        let q = chain(4);
        let order: Vec<RelId> = (0..4).map(RelId).collect();
        let t = JoinTree::left_deep(&order);
        assert_eq!(t.leaves(), 4);
        let p = t.into_plan(&q, Annotation::Consumer, Annotation::Client);
        p.validate_structure(&q).unwrap();
        assert_eq!(
            p.render_compact(),
            "(display (join:cons (join:cons (join:cons (scan R0:cl) (scan R1:cl)) \
             (scan R2:cl)) (scan R3:cl)))"
        );
    }

    #[test]
    fn balanced_shape() {
        let q = chain(4);
        let order: Vec<RelId> = (0..4).map(RelId).collect();
        let p =
            JoinTree::balanced(&order).into_plan(&q, Annotation::InnerRel, Annotation::PrimaryCopy);
        p.validate_structure(&q).unwrap();
        assert_eq!(
            p.render_compact(),
            "(display (join:inner (join:inner (scan R0:pc) (scan R1:pc)) \
             (join:inner (scan R2:pc) (scan R3:pc))))"
        );
    }

    #[test]
    fn selections_are_inserted_over_scans() {
        let q = chain(2).with_selection(RelId(1), 0.1);
        let p = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        p.validate_structure(&q).unwrap();
        assert_eq!(p.render_compact().matches("(select").count(), 1);
        assert!(p.render_compact().contains("(select R1:prod (scan R1:cl))"));
    }

    #[test]
    #[should_panic(expected = "empty join order")]
    fn empty_order_rejected() {
        JoinTree::left_deep(&[]);
    }
}
