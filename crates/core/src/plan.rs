//! Annotated query plans.
//!
//! "Execution plans for such queries can be represented as binary trees in
//! which the nodes are query operators and the edges represent
//! producer-consumer relationships between the operators. A query plan
//! specifies the ordering of operators, the placement of operators at
//! sites, and the methods to be employed for executing each operator."
//! (§2.1)
//!
//! Plans live in an arena ([`Plan`]); nodes are addressed by [`NodeId`].
//! The arena representation makes the optimizer's tree surgery cheap and
//! keeps clones compact.

use std::fmt;
use std::ops::ControlFlow;

use csqp_catalog::{QuerySpec, RelId, RelSet};
use csqp_json::{Json, JsonError};

use crate::annotation::Annotation;
use crate::diag::{DiagCode, Diagnostic};

/// Index of a node within its [`Plan`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// As a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A query operator (§2.1). The join method is always hybrid hash
/// (§3.2.2: "All joins are processed using hybrid hashing"), with child 0
/// the inner (build) input and child 1 the outer (probe) input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicalOp {
    /// Root: present results at the query site.
    Display,
    /// Binary equijoin (hybrid hash).
    Join,
    /// Apply the predicate of base relation `rel` (selectivity from the
    /// [`QuerySpec`]).
    Select {
        /// The relation whose predicate this select applies.
        rel: RelId,
    },
    /// Grouped aggregation of the final result (footnote 4: aggregations
    /// are annotated like selections). Always sits directly under the
    /// display.
    Aggregate {
        /// Number of output groups.
        groups: u64,
    },
    /// Produce all tuples of a base relation.
    Scan {
        /// The scanned relation.
        rel: RelId,
    },
}

impl LogicalOp {
    /// Number of children this operator must have.
    #[inline]
    pub fn arity(self) -> usize {
        match self {
            LogicalOp::Display | LogicalOp::Select { .. } | LogicalOp::Aggregate { .. } => 1,
            LogicalOp::Join => 2,
            LogicalOp::Scan { .. } => 0,
        }
    }

    /// Structurally legal annotations for this operator kind, independent
    /// of policy (the columns of Table 1 are subsets of these).
    pub fn legal_annotations(self) -> &'static [Annotation] {
        match self {
            LogicalOp::Display => &[Annotation::Client],
            LogicalOp::Join => &[
                Annotation::Consumer,
                Annotation::InnerRel,
                Annotation::OuterRel,
            ],
            LogicalOp::Select { .. } | LogicalOp::Aggregate { .. } => {
                &[Annotation::Consumer, Annotation::Producer]
            }
            LogicalOp::Scan { .. } => &[Annotation::Client, Annotation::PrimaryCopy],
        }
    }
}

/// One node of a plan: operator, annotation, children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The operator.
    pub op: LogicalOp,
    /// Its logical site annotation.
    pub ann: Annotation,
    /// Children (`children[..op.arity()]` are meaningful).
    pub children: [Option<NodeId>; 2],
}

impl PlanNode {
    /// Iterate over the present children.
    pub fn child_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().flatten().copied()
    }
}

/// An annotated query plan: an arena of nodes plus the root (display).
#[derive(Debug, PartialEq, Eq)]
pub struct Plan {
    nodes: Vec<PlanNode>,
    root: NodeId,
}

/// `clone_from` copies into the arena already held, so a search that
/// overwrites one candidate per step allocates only when the arena
/// grows (the derived impl would drop it and allocate a fresh one).
impl Clone for Plan {
    fn clone(&self) -> Plan {
        Plan {
            nodes: self.nodes.clone(),
            root: self.root,
        }
    }

    fn clone_from(&mut self, source: &Plan) {
        self.nodes.clone_from(&source.nodes);
        self.root = source.root;
    }
}

impl Plan {
    /// Build a plan from raw parts. `validate_structure` should be called
    /// (and is, by all public constructors) before use.
    pub fn from_parts(nodes: Vec<PlanNode>, root: NodeId) -> Plan {
        Plan { nodes, root }
    }

    /// The root node id (always the display operator).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Shared access to a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        &mut self.nodes[id.index()]
    }

    /// Number of nodes in the arena (including any unreachable ones left
    /// by tree surgery).
    #[inline]
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Append a node, returning its id.
    pub fn push(&mut self, node: PlanNode) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Ids of all nodes reachable from the root, in postorder (children
    /// before parents; child 0 before child 1).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let _ = self.try_for_each_postorder(|id| {
            out.push(id);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Call `f` on every reachable node in [`Plan::postorder`]'s order,
    /// without allocating, until `f` breaks.
    pub fn try_for_each_postorder<B>(
        &self,
        mut f: impl FnMut(NodeId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        self.postorder_from(self.root, &mut f)
    }

    fn postorder_from<B>(
        &self,
        id: NodeId,
        f: &mut impl FnMut(NodeId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        for c in self.node(id).child_ids() {
            self.postorder_from(c, f)?;
        }
        f(id)
    }

    /// Map from node to its parent (and which child slot it occupies).
    pub fn parents(&self) -> Vec<Option<(NodeId, usize)>> {
        let mut parents = vec![None; self.nodes.len()];
        for id in self.postorder() {
            for (slot, c) in self.node(id).children.iter().enumerate() {
                if let Some(c) = c {
                    parents[c.index()] = Some((id, slot));
                }
            }
        }
        parents
    }

    /// Ids of all reachable join nodes.
    pub fn join_nodes(&self) -> Vec<NodeId> {
        self.postorder()
            .into_iter()
            .filter(|&id| matches!(self.node(id).op, LogicalOp::Join))
            .collect()
    }

    /// Ids of all reachable scan nodes.
    pub fn scan_nodes(&self) -> Vec<NodeId> {
        self.postorder()
            .into_iter()
            .filter(|&id| matches!(self.node(id).op, LogicalOp::Scan { .. }))
            .collect()
    }

    /// The set of base relations under `id`.
    pub fn rel_set(&self, id: NodeId) -> RelSet {
        let n = self.node(id);
        match n.op {
            LogicalOp::Scan { rel } | LogicalOp::Select { rel } => {
                let mut s = RelSet::single(rel);
                for c in n.child_ids() {
                    s = s.union(self.rel_set(c));
                }
                s
            }
            _ => n
                .child_ids()
                .fold(RelSet::EMPTY, |s, c| s.union(self.rel_set(c))),
        }
    }

    /// Validate structural invariants against the query:
    ///
    /// * the root is a display with `client` annotation;
    /// * every operator has its arity and a structurally legal annotation;
    /// * every base relation of the query is scanned exactly once;
    /// * select nodes sit over the scan of their own relation;
    /// * join children cover disjoint relation sets.
    pub fn validate_structure(&self, query: &QuerySpec) -> Result<(), Diagnostic> {
        // Out-of-arena references would panic the arena walks below;
        // catch them on the raw node vector before dereferencing any id.
        if self.root.index() >= self.nodes.len() {
            return Err(Diagnostic::new(
                DiagCode::DanglingChild,
                format!(
                    "root id {} is outside the {}-node arena",
                    self.root.0,
                    self.nodes.len()
                ),
            ));
        }
        for (idx, n) in self.nodes.iter().enumerate() {
            for c in n.child_ids() {
                if c.index() >= self.nodes.len() {
                    return Err(Diagnostic::new(
                        DiagCode::DanglingChild,
                        format!(
                            "node {idx} references child {} outside the {}-node arena",
                            c.0,
                            self.nodes.len()
                        ),
                    ));
                }
            }
        }
        let root = self.node(self.root);
        if root.op != LogicalOp::Display {
            return Err(Diagnostic::new(
                DiagCode::RootNotDisplay,
                format!("root is {:?}, not a display operator", root.op),
            ));
        }
        let mut scanned = RelSet::EMPTY;
        for id in self.postorder() {
            let n = self.node(id);
            let have = n.child_ids().count();
            if have != n.op.arity() {
                return Err(Diagnostic::at(
                    DiagCode::BadArity,
                    self,
                    id,
                    format!("{:?} has {have} children, wants {}", n.op, n.op.arity()),
                ));
            }
            if !n.op.legal_annotations().contains(&n.ann) {
                return Err(Diagnostic::at(
                    DiagCode::IllegalAnnotation,
                    self,
                    id,
                    format!("{:?} has illegal annotation '{}'", n.op, n.ann),
                ));
            }
            // Arity is checked above, so the child slots read below are
            // occupied; `if let` keeps the traversal panic-free anyway.
            match n.op {
                LogicalOp::Scan { rel } => {
                    if scanned.contains(rel) {
                        return Err(Diagnostic::at(
                            DiagCode::DuplicateScan,
                            self,
                            id,
                            format!("{rel} scanned twice"),
                        ));
                    }
                    scanned = scanned.union(RelSet::single(rel));
                }
                LogicalOp::Select { rel } => {
                    if let Some(child) = n.children[0] {
                        if !matches!(self.node(child).op, LogicalOp::Scan { rel: r } if r == rel) {
                            return Err(Diagnostic::at(
                                DiagCode::SelectPlacement,
                                self,
                                id,
                                format!("select on {rel} must sit directly over its scan"),
                            ));
                        }
                    }
                }
                LogicalOp::Join => {
                    if let (Some(lc), Some(rc)) = (n.children[0], n.children[1]) {
                        let l = self.rel_set(lc);
                        let r = self.rel_set(rc);
                        if !l.is_disjoint(r) {
                            return Err(Diagnostic::at(
                                DiagCode::JoinOverlap,
                                self,
                                id,
                                format!("children cover overlapping relation sets {l:?} and {r:?}"),
                            ));
                        }
                    }
                }
                LogicalOp::Aggregate { groups } => {
                    if groups == 0 {
                        return Err(Diagnostic::at(
                            DiagCode::AggregateMismatch,
                            self,
                            id,
                            "aggregate with zero groups",
                        ));
                    }
                    // Aggregates sit directly under the display: the
                    // parent check happens from the display side below.
                }
                LogicalOp::Display => {}
            }
            if n.op == LogicalOp::Display {
                if let Some(child) = n.children[0] {
                    let child_is_agg = matches!(self.node(child).op, LogicalOp::Aggregate { .. });
                    match query.aggregate_groups {
                        Some(g) => {
                            if !matches!(self.node(child).op, LogicalOp::Aggregate { groups } if groups == g)
                            {
                                return Err(Diagnostic::at(
                                    DiagCode::AggregateMismatch,
                                    self,
                                    id,
                                    format!(
                                        "query aggregates into {g} groups but the plan root \
                                         lacks the matching aggregate operator"
                                    ),
                                ));
                            }
                        }
                        None => {
                            if child_is_agg {
                                return Err(Diagnostic::at(
                                    DiagCode::AggregateMismatch,
                                    self,
                                    id,
                                    "plan aggregates but the query does not",
                                ));
                            }
                        }
                    }
                }
            }
        }
        if scanned != query.all_rels() {
            return Err(Diagnostic::new(
                DiagCode::ScanCoverage,
                format!(
                    "plan scans {:?}, query needs {:?}",
                    scanned,
                    query.all_rels()
                ),
            ));
        }
        Ok(())
    }

    /// Serialize to JSON — the persistence format for pre-compiled plans
    /// (§5: "it is, therefore, desirable to precompile a query"). The
    /// logical annotations survive the round trip, so a stored plan can
    /// be re-bound under whatever placement holds at execution time.
    ///
    /// ```
    /// # use csqp_core::{Annotation, JoinTree};
    /// # use csqp_catalog::{JoinEdge, QuerySpec, RelId, Relation};
    /// # let query = QuerySpec::new(
    /// #     vec![Relation::benchmark(RelId(0), "A"), Relation::benchmark(RelId(1), "B")],
    /// #     vec![JoinEdge { a: RelId(0), b: RelId(1), selectivity: 1e-4 }],
    /// # );
    /// let plan = JoinTree::left_deep(&[RelId(0), RelId(1)])
    ///     .into_plan(&query, Annotation::InnerRel, Annotation::PrimaryCopy);
    /// let restored = csqp_core::Plan::from_json(&plan.to_json()).unwrap();
    /// assert_eq!(plan, restored);
    /// ```
    pub fn to_json(&self) -> String {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                let op = match n.op {
                    LogicalOp::Display => csqp_json::obj(vec![("kind", Json::from("display"))]),
                    LogicalOp::Join => csqp_json::obj(vec![("kind", Json::from("join"))]),
                    LogicalOp::Select { rel } => csqp_json::obj(vec![
                        ("kind", Json::from("select")),
                        ("rel", Json::from(u64::from(rel.0))),
                    ]),
                    LogicalOp::Aggregate { groups } => csqp_json::obj(vec![
                        ("kind", Json::from("aggregate")),
                        ("groups", Json::from(groups)),
                    ]),
                    LogicalOp::Scan { rel } => csqp_json::obj(vec![
                        ("kind", Json::from("scan")),
                        ("rel", Json::from(u64::from(rel.0))),
                    ]),
                };
                let children = n
                    .children
                    .iter()
                    .map(|c| match c {
                        Some(id) => Json::from(u64::from(id.0)),
                        None => Json::Null,
                    })
                    .collect::<Vec<_>>();
                csqp_json::obj(vec![
                    ("op", op),
                    ("ann", Json::from(n.ann.tag())),
                    ("children", Json::Arr(children)),
                ])
            })
            .collect::<Vec<_>>();
        csqp_json::obj(vec![
            ("nodes", Json::Arr(nodes)),
            ("root", Json::from(u64::from(self.root.0))),
        ])
        .render()
    }

    /// Deserialize a plan stored with [`Plan::to_json`]. Callers should
    /// run [`Plan::validate_structure`] against their query afterwards —
    /// a stored plan may predate schema changes.
    pub fn from_json(json: &str) -> Result<Plan, JsonError> {
        let doc = Json::parse(json)?;
        let node_docs = doc
            .field("nodes")?
            .as_arr()
            .ok_or_else(|| JsonError::decode("nodes", "expected an array"))?;
        let node_id = |v: &Json, path: String| -> Result<NodeId, JsonError> {
            let raw = v
                .as_u64()
                .ok_or_else(|| JsonError::decode(path.clone(), "expected a node index"))?;
            if raw as usize >= node_docs.len() {
                return Err(JsonError::decode(
                    path,
                    format!(
                        "node index {raw} out of range (arena has {})",
                        node_docs.len()
                    ),
                ));
            }
            Ok(NodeId(raw as u32))
        };
        let mut nodes = Vec::with_capacity(node_docs.len());
        for (i, nd) in node_docs.iter().enumerate() {
            let at = |f: &str| format!("nodes[{i}].{f}");
            let opd = nd
                .field("op")
                .map_err(|_| JsonError::decode(at("op"), "missing field"))?;
            let kind = opd
                .field("kind")
                .map_err(|_| JsonError::decode(at("op.kind"), "missing field"))?
                .as_str()
                .ok_or_else(|| JsonError::decode(at("op.kind"), "expected a string"))?;
            let rel_of = |opd: &Json| -> Result<RelId, JsonError> {
                let r = opd
                    .field("rel")
                    .map_err(|_| JsonError::decode(at("op.rel"), "missing field"))?
                    .as_u64()
                    .ok_or_else(|| JsonError::decode(at("op.rel"), "expected an integer"))?;
                u32::try_from(r)
                    .map(RelId)
                    .map_err(|_| JsonError::decode(at("op.rel"), "relation id out of range"))
            };
            let op = match kind {
                "display" => LogicalOp::Display,
                "join" => LogicalOp::Join,
                "select" => LogicalOp::Select { rel: rel_of(opd)? },
                "scan" => LogicalOp::Scan { rel: rel_of(opd)? },
                "aggregate" => {
                    let groups = opd
                        .field("groups")
                        .map_err(|_| JsonError::decode(at("op.groups"), "missing field"))?
                        .as_u64()
                        .ok_or_else(|| JsonError::decode(at("op.groups"), "expected an integer"))?;
                    LogicalOp::Aggregate { groups }
                }
                other => {
                    return Err(JsonError::decode(
                        at("op.kind"),
                        format!("unknown operator kind `{other}`"),
                    ))
                }
            };
            let tag = nd
                .field("ann")
                .map_err(|_| JsonError::decode(at("ann"), "missing field"))?
                .as_str()
                .ok_or_else(|| JsonError::decode(at("ann"), "expected a string"))?;
            let ann = Annotation::from_tag(tag).ok_or_else(|| {
                JsonError::decode(at("ann"), format!("unknown annotation tag `{tag}`"))
            })?;
            let cd = nd
                .field("children")
                .map_err(|_| JsonError::decode(at("children"), "missing field"))?
                .as_arr()
                .ok_or_else(|| JsonError::decode(at("children"), "expected an array"))?;
            if cd.len() != 2 {
                return Err(JsonError::decode(
                    at("children"),
                    format!("expected 2 child slots, got {}", cd.len()),
                ));
            }
            let mut children = [None, None];
            for (slot, c) in cd.iter().enumerate() {
                if !c.is_null() {
                    children[slot] = Some(node_id(c, format!("nodes[{i}].children[{slot}]"))?);
                }
            }
            nodes.push(PlanNode { op, ann, children });
        }
        let root = node_id(doc.field("root")?, "root".to_string())?;
        Ok(Plan { nodes, root })
    }

    /// One-line s-expression rendering, e.g.
    /// `(display (join:cons (scan R0:pc) (scan R1:cl)))`.
    pub fn render_compact(&self) -> String {
        let mut s = String::new();
        self.render_node(self.root, &mut s);
        s
    }

    fn render_node(&self, id: NodeId, out: &mut String) {
        use fmt::Write;
        let n = self.node(id);
        // A missing child (arity violation) renders as `?` rather than
        // panicking — diagnostics embed these renderings.
        let child = |out: &mut String, slot: usize| match n.children[slot] {
            Some(c) => self.render_node(c, out),
            None => out.push('?'),
        };
        match n.op {
            LogicalOp::Display => {
                out.push_str("(display ");
                child(out, 0);
                out.push(')');
            }
            LogicalOp::Join => {
                let _ = write!(out, "(join:{} ", n.ann.tag());
                child(out, 0);
                out.push(' ');
                child(out, 1);
                out.push(')');
            }
            LogicalOp::Select { rel } => {
                let _ = write!(out, "(select {rel}:{} ", n.ann.tag());
                child(out, 0);
                out.push(')');
            }
            LogicalOp::Aggregate { groups } => {
                let _ = write!(out, "(agg {groups}:{} ", n.ann.tag());
                child(out, 0);
                out.push(')');
            }
            LogicalOp::Scan { rel } => {
                let _ = write!(out, "(scan {rel}:{})", n.ann.tag());
            }
        }
    }

    /// Multi-line tree rendering with annotations, for humans.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        self.render_tree_node(self.root, "", true, true, &mut out);
        out
    }

    fn render_tree_node(&self, id: NodeId, prefix: &str, last: bool, root: bool, out: &mut String) {
        use fmt::Write;
        let n = self.node(id);
        let connector = if root {
            ""
        } else if last {
            "└─ "
        } else {
            "├─ "
        };
        let label = match n.op {
            LogicalOp::Display => "display".to_string(),
            LogicalOp::Join => "join".to_string(),
            LogicalOp::Select { rel } => format!("select {rel}"),
            LogicalOp::Aggregate { groups } => format!("aggregate[{groups}]"),
            LogicalOp::Scan { rel } => format!("scan {rel}"),
        };
        let _ = writeln!(out, "{prefix}{connector}{label} [{}]", n.ann);
        let kids: Vec<NodeId> = n.child_ids().collect();
        let child_prefix = if root {
            String::new()
        } else if last {
            format!("{prefix}   ")
        } else {
            format!("{prefix}│  ")
        };
        for (i, c) in kids.iter().enumerate() {
            self.render_tree_node(*c, &child_prefix, i + 1 == kids.len(), false, out);
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::JoinTree;
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

    fn two_way_plan() -> (QuerySpec, Plan) {
        let q = chain(2);
        let plan = JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(1))).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        (q, plan)
    }

    #[test]
    fn structure_of_two_way_plan() {
        let (q, plan) = two_way_plan();
        plan.validate_structure(&q).unwrap();
        assert_eq!(plan.join_nodes().len(), 1);
        assert_eq!(plan.scan_nodes().len(), 2);
        assert_eq!(plan.rel_set(plan.root()), q.all_rels());
        assert_eq!(
            plan.render_compact(),
            "(display (join:cons (scan R0:cl) (scan R1:cl)))"
        );
    }

    #[test]
    fn postorder_visits_children_first() {
        let (_, plan) = two_way_plan();
        let order = plan.postorder();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for id in &order {
            for c in plan.node(*id).child_ids() {
                assert!(pos(c) < pos(*id));
            }
        }
        assert_eq!(*order.last().unwrap(), plan.root());
    }

    #[test]
    fn parents_map() {
        let (_, plan) = two_way_plan();
        let parents = plan.parents();
        assert!(parents[plan.root().index()].is_none());
        let join = plan.join_nodes()[0];
        assert_eq!(parents[join.index()], Some((plan.root(), 0)));
        for (slot, scan) in plan.scan_nodes().into_iter().enumerate() {
            let (p, s) = parents[scan.index()].unwrap();
            assert_eq!(p, join);
            assert_eq!(s, slot);
        }
    }

    #[test]
    fn validation_catches_double_scan() {
        let q = chain(2);
        let mut plan = Plan::from_parts(Vec::new(), NodeId(0));
        let s0 = plan.push(PlanNode {
            op: LogicalOp::Scan { rel: RelId(0) },
            ann: Annotation::Client,
            children: [None, None],
        });
        let s1 = plan.push(PlanNode {
            op: LogicalOp::Scan { rel: RelId(0) },
            ann: Annotation::Client,
            children: [None, None],
        });
        let j = plan.push(PlanNode {
            op: LogicalOp::Join,
            ann: Annotation::Consumer,
            children: [Some(s0), Some(s1)],
        });
        let d = plan.push(PlanNode {
            op: LogicalOp::Display,
            ann: Annotation::Client,
            children: [Some(j), None],
        });
        let plan = Plan::from_parts(
            (0..plan.arena_len())
                .map(|i| plan.node(NodeId(i as u32)).clone())
                .collect(),
            d,
        );
        let err = plan.validate_structure(&q).unwrap_err();
        assert!(
            matches!(err.code, DiagCode::DuplicateScan | DiagCode::JoinOverlap),
            "{err}"
        );
    }

    #[test]
    fn validation_catches_illegal_annotation() {
        let (q, mut plan) = two_way_plan();
        let scan = plan.scan_nodes()[0];
        plan.node_mut(scan).ann = Annotation::Consumer;
        let err = plan.validate_structure(&q).unwrap_err();
        assert_eq!(err.code, DiagCode::IllegalAnnotation, "{err}");
        assert!(err.to_string().contains("illegal annotation"), "{err}");
    }

    #[test]
    fn tree_rendering_mentions_all_operators() {
        let (_, plan) = two_way_plan();
        let t = plan.render_tree();
        assert!(t.contains("display [client]"));
        assert!(t.contains("join [consumer]"));
        assert!(t.contains("scan R0 [client]"));
        assert!(t.contains("scan R1 [client]"));
    }
}
