//! Plan transformation moves (§3.1.1).
//!
//! "On each step, the optimizer performs one transformation of the plan.
//! The possible moves are the following (where A, B, and C denote either
//! temporary or base relations):
//!
//! 1. (A ⋈ B) ⋈ C → A ⋈ (B ⋈ C)
//! 2. (A ⋈ B) ⋈ C → B ⋈ (A ⋈ C)
//! 3. A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C
//! 4. A ⋈ (B ⋈ C) → (A ⋈ C) ⋈ B
//! 5. Change the site annotation of a join to consumer, outer relation,
//!    or inner relation.
//! 6. Change the site annotation of a select from consumer to producer or
//!    vice versa.
//! 7. Change the site annotation of a scan from client to primary copy or
//!    vice versa."
//!
//! We add an explicit **commute** move (`A ⋈ B → B ⋈ A`) as a documented
//! extension: hybrid-hash cost is asymmetric in the build side, and the
//! paper's move 2 only swaps operands as a side effect of reassociation,
//! which cannot flip the build side of a 2-way join at all. The extension
//! can be disabled (`paper_moves_only`) to search the paper's exact space.
//!
//! A move is applied in place to a candidate the search overwrites on
//! every step (the optimizer keeps the current plan for rejection).
//! Moves that would produce an ill-formed plan (annotation cycle,
//! §2.2.3) are rejected by [`apply_move_verified_in_place`].

use std::ops::ControlFlow;

use csqp_catalog::QuerySpec;
use csqp_core::{Annotation, LogicalOp, NodeId, Plan, Policy};

/// The kind of a transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Extension: swap build and probe inputs of a join.
    Commute,
    /// Move 1: `(A⋈B)⋈C → A⋈(B⋈C)`.
    AssocLeft,
    /// Move 2: `(A⋈B)⋈C → B⋈(A⋈C)`.
    ExchangeLeft,
    /// Move 3: `A⋈(B⋈C) → (A⋈B)⋈C`.
    AssocRight,
    /// Move 4: `A⋈(B⋈C) → (A⋈C)⋈B`.
    ExchangeRight,
    /// Move 5: set a join's annotation.
    JoinAnnotation(Annotation),
    /// Move 6: flip a select's annotation.
    SelectAnnotation(Annotation),
    /// Move 7: flip a scan's annotation.
    ScanAnnotation(Annotation),
}

/// A move anchored at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The node the transformation applies to.
    pub node: NodeId,
    /// The transformation.
    pub kind: MoveKind,
}

/// Which move families the search may use.
#[derive(Debug, Clone, Copy)]
pub struct MoveSet {
    /// Join-order moves 1–4.
    pub order_moves: bool,
    /// The commute extension.
    pub commute: bool,
    /// Site-annotation moves 5–7 (filtered by policy).
    pub site_moves: bool,
}

impl MoveSet {
    /// The move set the paper prescribes for a policy (§3.1.1):
    /// data-shipping gets only join-order moves; query-shipping gets
    /// order moves plus the restricted join-annotation move; hybrid gets
    /// everything. `commute` follows `order_moves` here; callers wanting
    /// the paper's literal move list can clear it.
    pub fn for_policy(_policy: Policy) -> MoveSet {
        MoveSet {
            order_moves: true,
            commute: true,
            site_moves: true,
        }
    }

    /// Only site-annotation moves — the runtime half of 2-step
    /// optimization (§5: "At execution time, carry out site selection").
    pub fn site_selection_only() -> MoveSet {
        MoveSet {
            order_moves: false,
            commute: false,
            site_moves: true,
        }
    }
}

/// Enumerate every applicable move on `plan` under `policy`.
///
/// Policy filtering implements §3.1.1 exactly: for data-shipping all site
/// moves vanish (each operator has a single legal annotation); for
/// query-shipping scans stay on primary copies, selects stay with their
/// scans, and "a join is never moved to the site of its consumer".
pub fn applicable_moves(plan: &Plan, policy: Policy, set: MoveSet) -> Vec<Move> {
    let mut out = Vec::new();
    applicable_moves_into(plan, policy, set, &mut out);
    out
}

/// [`applicable_moves`] into a caller's buffer, cleared first: the same
/// moves in the same order, without allocating once `out` has grown.
pub fn applicable_moves_into(plan: &Plan, policy: Policy, set: MoveSet, out: &mut Vec<Move>) {
    out.clear();
    let _ = plan.try_for_each_postorder(|id| {
        let n = plan.node(id);
        match n.op {
            LogicalOp::Join => {
                if set.order_moves {
                    if set.commute {
                        out.push(Move {
                            node: id,
                            kind: MoveKind::Commute,
                        });
                    }
                    let left_is_join = n.children[0]
                        .map(|c| matches!(plan.node(c).op, LogicalOp::Join))
                        .unwrap_or(false);
                    let right_is_join = n.children[1]
                        .map(|c| matches!(plan.node(c).op, LogicalOp::Join))
                        .unwrap_or(false);
                    if left_is_join {
                        out.push(Move {
                            node: id,
                            kind: MoveKind::AssocLeft,
                        });
                        out.push(Move {
                            node: id,
                            kind: MoveKind::ExchangeLeft,
                        });
                    }
                    if right_is_join {
                        out.push(Move {
                            node: id,
                            kind: MoveKind::AssocRight,
                        });
                        out.push(Move {
                            node: id,
                            kind: MoveKind::ExchangeRight,
                        });
                    }
                }
                if set.site_moves {
                    for &ann in policy.allowed(LogicalOp::Join) {
                        if ann != n.ann {
                            out.push(Move {
                                node: id,
                                kind: MoveKind::JoinAnnotation(ann),
                            });
                        }
                    }
                }
            }
            LogicalOp::Select { .. } | LogicalOp::Aggregate { .. } => {
                // Footnote 4: aggregations are annotated like selections,
                // so move 6 covers both unary operators.
                if set.site_moves {
                    for &ann in policy.allowed(n.op) {
                        if ann != n.ann {
                            out.push(Move {
                                node: id,
                                kind: MoveKind::SelectAnnotation(ann),
                            });
                        }
                    }
                }
            }
            LogicalOp::Scan { .. } => {
                if set.site_moves {
                    for &ann in policy.allowed(n.op) {
                        if ann != n.ann {
                            out.push(Move {
                                node: id,
                                kind: MoveKind::ScanAnnotation(ann),
                            });
                        }
                    }
                }
            }
            LogicalOp::Display => {}
        }
        ControlFlow::<()>::Continue(())
    });
}

/// Apply `mv` to `p`. Returns `None` when the move does not apply at
/// that node (caller raced a stale move list) — never panics on
/// structurally valid plans. Every applicability check runs before the
/// first write, so a `None` leaves `p` as it was.
fn apply_in_place(p: &mut Plan, mv: Move) -> Option<()> {
    let n = p.node(mv.node).clone();
    match mv.kind {
        MoveKind::Commute => {
            if n.op != LogicalOp::Join {
                return None;
            }
            let node = p.node_mut(mv.node);
            node.children.swap(0, 1);
        }
        MoveKind::AssocLeft | MoveKind::ExchangeLeft => {
            // X = Join(Y, C), Y = Join(A, B).
            if n.op != LogicalOp::Join {
                return None;
            }
            let y = n.children[0]?;
            let c = n.children[1]?;
            let yn = p.node(y).clone();
            if yn.op != LogicalOp::Join {
                return None;
            }
            let a = yn.children[0]?;
            let b = yn.children[1]?;
            match mv.kind {
                // (A⋈B)⋈C → A⋈(B⋈C): X = Join(A, Y), Y = Join(B, C).
                MoveKind::AssocLeft => {
                    p.node_mut(mv.node).children = [Some(a), Some(y)];
                    p.node_mut(y).children = [Some(b), Some(c)];
                }
                // (A⋈B)⋈C → B⋈(A⋈C): X = Join(B, Y), Y = Join(A, C).
                _ => {
                    p.node_mut(mv.node).children = [Some(b), Some(y)];
                    p.node_mut(y).children = [Some(a), Some(c)];
                }
            }
        }
        MoveKind::AssocRight | MoveKind::ExchangeRight => {
            // X = Join(A, Y), Y = Join(B, C).
            if n.op != LogicalOp::Join {
                return None;
            }
            let a = n.children[0]?;
            let y = n.children[1]?;
            let yn = p.node(y).clone();
            if yn.op != LogicalOp::Join {
                return None;
            }
            let b = yn.children[0]?;
            let c = yn.children[1]?;
            match mv.kind {
                // A⋈(B⋈C) → (A⋈B)⋈C: X = Join(Y, C), Y = Join(A, B).
                MoveKind::AssocRight => {
                    p.node_mut(mv.node).children = [Some(y), Some(c)];
                    p.node_mut(y).children = [Some(a), Some(b)];
                }
                // A⋈(B⋈C) → (A⋈C)⋈B: X = Join(Y, B), Y = Join(A, C).
                _ => {
                    p.node_mut(mv.node).children = [Some(y), Some(b)];
                    p.node_mut(y).children = [Some(a), Some(c)];
                }
            }
        }
        MoveKind::JoinAnnotation(ann) => {
            if n.op != LogicalOp::Join {
                return None;
            }
            p.node_mut(mv.node).ann = ann;
        }
        MoveKind::SelectAnnotation(ann) => {
            if !matches!(n.op, LogicalOp::Select { .. } | LogicalOp::Aggregate { .. }) {
                return None;
            }
            p.node_mut(mv.node).ann = ann;
        }
        MoveKind::ScanAnnotation(ann) => {
            if !matches!(n.op, LogicalOp::Scan { .. }) {
                return None;
            }
            p.node_mut(mv.node).ann = ann;
        }
    }
    Some(())
}

/// Apply `mv` to `p` and hand the result to the static checker
/// ([`csqp_verify::check_logical`]).
///
/// Moves 1–7 must preserve structural validity and policy conformance —
/// under `debug_assertions`, any other checker finding is a bug in the
/// move itself and panics with the full diagnostic report. What a legal
/// move *can* do is introduce a two-node annotation cycle (§2.2.3: "it is
/// very easy to 'sort out' ill-formed plans during query optimization");
/// those plans are rejected as `None`, exactly like inapplicable moves.
///
/// Returns `true` when `p` now holds the *checker-verified* result:
/// structurally sound, in `policy`'s Table 1 search space, and
/// well-formed. On `false` the move did not apply (`p` is untouched) or
/// made a cycle (`p` holds the ill-formed plan); either way the caller
/// discards `p`.
pub fn apply_move_verified_in_place(
    p: &mut Plan,
    mv: Move,
    query: &QuerySpec,
    policy: Policy,
) -> bool {
    if apply_in_place(p, mv).is_none() {
        return false;
    }
    #[cfg(debug_assertions)]
    {
        let report = csqp_verify::check_logical(p, query, policy);
        if !report.is_clean() && !report.only(csqp_verify::DiagCode::AnnotationCycle) {
            panic!("move {mv:?} broke plan invariants:\n{report}\nplan: {p}");
        }
        report.is_clean()
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (query, policy);
        csqp_core::is_well_formed(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{JoinEdge, RelId, Relation};
    use csqp_core::JoinTree;

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

    /// `p` with `kind` applied at `node`, or `None` if it does not apply.
    fn moved(p: &Plan, node: NodeId, kind: MoveKind) -> Option<Plan> {
        let mut p = p.clone();
        apply_in_place(&mut p, Move { node, kind }).map(|()| p)
    }

    /// True for the join-order moves (1–4 and commute).
    fn is_order_move(kind: MoveKind) -> bool {
        !matches!(
            kind,
            MoveKind::JoinAnnotation(_)
                | MoveKind::SelectAnnotation(_)
                | MoveKind::ScanAnnotation(_)
        )
    }

    fn three_way_plan(q: &QuerySpec) -> Plan {
        JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            q,
            Annotation::Consumer,
            Annotation::Client,
        )
    }

    #[test]
    fn assoc_left_reassociates() {
        let q = chain(3);
        let p = three_way_plan(&q);
        // ((R0 ⋈ R1) ⋈ R2): the top join has a join as child 0.
        let top = *p.join_nodes().last().unwrap();
        let p2 = moved(&p, top, MoveKind::AssocLeft).unwrap();
        p2.validate_structure(&q).unwrap();
        assert_eq!(
            p2.render_compact(),
            "(display (join:cons (scan R0:cl) (join:cons (scan R1:cl) (scan R2:cl))))"
        );
    }

    #[test]
    fn exchange_left_swaps_a_and_b() {
        let q = chain(3);
        let p = three_way_plan(&q);
        let top = *p.join_nodes().last().unwrap();
        let p2 = moved(&p, top, MoveKind::ExchangeLeft).unwrap();
        p2.validate_structure(&q).unwrap();
        assert_eq!(
            p2.render_compact(),
            "(display (join:cons (scan R1:cl) (join:cons (scan R0:cl) (scan R2:cl))))"
        );
    }

    #[test]
    fn assoc_right_then_left_round_trips() {
        let q = chain(3);
        let p = three_way_plan(&q);
        let top = *p.join_nodes().last().unwrap();
        let right = moved(&p, top, MoveKind::AssocLeft).unwrap();
        let back = moved(&right, top, MoveKind::AssocRight).unwrap();
        assert_eq!(back.render_compact(), p.render_compact());
    }

    #[test]
    fn exchange_right_moves_b_out() {
        let q = chain(3);
        let t = JoinTree::join(
            JoinTree::leaf(RelId(0)),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(2))),
        );
        let p = t.into_plan(&q, Annotation::Consumer, Annotation::Client);
        let top = *p.join_nodes().last().unwrap();
        let p2 = moved(&p, top, MoveKind::ExchangeRight).unwrap();
        p2.validate_structure(&q).unwrap();
        // A⋈(B⋈C) → (A⋈C)⋈B.
        assert_eq!(
            p2.render_compact(),
            "(display (join:cons (join:cons (scan R0:cl) (scan R2:cl)) (scan R1:cl)))"
        );
    }

    #[test]
    fn commute_swaps_build_side() {
        let q = chain(2);
        let p = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let j = p.join_nodes()[0];
        let p2 = moved(&p, j, MoveKind::Commute).unwrap();
        assert_eq!(
            p2.render_compact(),
            "(display (join:cons (scan R1:cl) (scan R0:cl)))"
        );
    }

    #[test]
    fn move_lists_respect_policies() {
        let q = chain(3);
        let p = three_way_plan(&q);
        let ds = applicable_moves(
            &p,
            Policy::DataShipping,
            MoveSet::for_policy(Policy::DataShipping),
        );
        // DS: join annotations have a single choice, scans/selects too ->
        // no site moves at all; order moves only.
        assert!(ds.iter().all(|m| is_order_move(m.kind)), "{ds:?}");
        assert!(!ds.is_empty());

        let qsp = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        );
        let qs = applicable_moves(
            &qsp,
            Policy::QueryShipping,
            MoveSet::for_policy(Policy::QueryShipping),
        );
        // QS joins may flip between inner/outer but never to consumer;
        // scans never move to the client.
        for m in &qs {
            match m.kind {
                MoveKind::JoinAnnotation(a) => {
                    assert_ne!(a, Annotation::Consumer);
                }
                MoveKind::ScanAnnotation(_) | MoveKind::SelectAnnotation(_) => {
                    panic!("QS must not offer scan/select site moves: {m:?}");
                }
                _ => {}
            }
        }

        let hy = applicable_moves(
            &p,
            Policy::HybridShipping,
            MoveSet::for_policy(Policy::HybridShipping),
        );
        assert!(hy
            .iter()
            .any(|m| matches!(m.kind, MoveKind::ScanAnnotation(_))));
        assert!(hy
            .iter()
            .any(|m| matches!(m.kind, MoveKind::JoinAnnotation(_))));
        assert!(hy.len() > qs.len());
    }

    #[test]
    fn site_selection_only_excludes_order_moves() {
        let q = chain(3);
        let p = three_way_plan(&q);
        let mv = applicable_moves(&p, Policy::HybridShipping, MoveSet::site_selection_only());
        assert!(!mv.is_empty());
        assert!(mv.iter().all(|m| !is_order_move(m.kind)));
    }

    #[test]
    fn all_order_moves_preserve_structure() {
        let q = chain(5);
        let order: Vec<RelId> = (0..5).map(RelId).collect();
        let mut p =
            JoinTree::balanced(&order).into_plan(&q, Annotation::Consumer, Annotation::Client);
        // Exhaustively apply every applicable order move once.
        for _ in 0..50 {
            let moves = applicable_moves(
                &p,
                Policy::DataShipping,
                MoveSet::for_policy(Policy::DataShipping),
            );
            let mv = moves[p.arena_len() % moves.len()];
            let p2 = moved(&p, mv.node, mv.kind).unwrap();
            p2.validate_structure(&q).unwrap();
            p = p2;
        }
    }

    #[test]
    fn stale_move_on_wrong_node_is_none() {
        let q = chain(2);
        let p = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let scan = p.scan_nodes()[0];
        assert!(moved(&p, scan, MoveKind::Commute).is_none());
        let join = p.join_nodes()[0];
        // Join whose children are scans: assoc does not apply.
        assert!(moved(&p, join, MoveKind::AssocLeft).is_none());
    }
}
