//! Sound worst-case intermediate-size bounds from unary key constraints.
//!
//! Every other number in the stack is an *estimate*: the independence
//! model of `csqp-catalog::cardinality` predicts how big an intermediate
//! result will be, and a wrong prediction costs a suboptimal plan. This
//! pass derives something stronger — a guaranteed upper bound on the
//! tuple and page count of every operator's output, valid for **any**
//! database instance consistent with the declared statistics — using the
//! classic sound rules over declared unary keys:
//!
//! - a scan emits at most the relation's tuple count;
//! - selection, projection, and display never grow their input;
//! - a grouped aggregate emits at most `min(groups, input)` tuples;
//! - a join whose one side is a single base relation with a declared
//!   unary key on the join attribute emits at most the *other* side's
//!   bound (each probe tuple matches at most one key tuple);
//! - otherwise the product bound `|L| · |R|` applies.
//!
//! The rules take the minimum over every applicable case, so bounds are
//! as tight as the declarations allow while staying sound. All
//! arithmetic is saturating or checked: a bound the analyzer cannot
//! represent is reported as [`DiagCode::BoundOverflow`], never silently
//! wrapped (saturating the tuple product at `u64::MAX` is itself sound —
//! every representable actual is `≤ u64::MAX`).
//!
//! A key declaration is *trusted input*, so it is audited before use:
//! [`audit_keys`] re-derives the key property from the query's own
//! statistics (an edge incident to a keyed relation `r` must admit at
//! most one match per probe tuple, i.e. `selectivity ≤ 1/|r|`) and
//! reports [`DiagCode::BoundKeyUnsound`] for any declaration the
//! statistics do not justify. [`analyze`] ignores unaudited keys — a
//! hostile over-declaration degrades bounds to the product rule instead
//! of poisoning them.
//!
//! Two consumers sit on top:
//!
//! - **admission control** ([`client_footprint_pages`]): the worst-case
//!   client-memory footprint of a bound plan, which
//!   `csqp-serve --mem-budget` compares against its budget before
//!   executing anything;
//! - **dynamic soundness checking** ([`check_plan`]): executes the
//!   engine's per-operator output convention and asserts actual ≤ bound
//!   on every operator edge, reporting [`DiagCode::BoundViolated`]
//!   otherwise. `csqp-check`'s bounds stage sweeps this across seeded plans
//!   for every policy × objective.

use csqp_catalog::{try_pages_for, QuerySpec, RelSet};
use csqp_core::bind::BoundPlan;
use csqp_core::plan::{LogicalOp, NodeId, Plan};
use csqp_core::{DiagCode, Diagnostic};

/// The guaranteed worst-case output size of one plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBound {
    /// At most this many tuples, for any instance consistent with the
    /// declared statistics.
    pub tuples: u64,
    /// At most this many pages (tuples packed without spanning pages).
    pub pages: u64,
}

/// Worst-case bounds for every node reachable from a plan's root.
#[derive(Debug, Clone)]
pub struct PlanBounds {
    /// Indexed by `NodeId`; `None` for arena entries unreachable from
    /// the root (bounds are only defined along the executed tree).
    bounds: Vec<Option<NodeBound>>,
    root: NodeId,
}

impl PlanBounds {
    /// The bound for `id`, when `id` is reachable from the root.
    pub fn node(&self, id: NodeId) -> Option<NodeBound> {
        self.bounds.get(id.index()).copied().flatten()
    }

    /// The bound on the final (root) result.
    // Invariant: `analyze` always computes the root's bound before
    // constructing the report.
    #[allow(clippy::expect_used)]
    pub fn root(&self) -> NodeBound {
        self.bounds[self.root.index()].expect("root bound is always computed")
    }
}

/// Audit every declared unary key against the query's own statistics.
///
/// A unary key on `r`'s join attribute means no two `r`-tuples share a
/// value, so any edge `(x, r)` yields at most `|x|` result tuples —
/// which pins the edge's selectivity at `≤ 1/|r|`. A declaration whose
/// incident edges exceed that (or that has no incident edge at all, so
/// nothing ever witnesses it) is reported as `bound-key-unsound`: every
/// bound derived from it would be wrong.
pub fn audit_keys(query: &QuerySpec) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for r in &query.relations {
        if !r.key {
            continue;
        }
        let incident: Vec<_> = query
            .edges
            .iter()
            .filter(|e| e.a == r.id || e.b == r.id)
            .collect();
        if incident.is_empty() {
            diags.push(Diagnostic::new(
                DiagCode::BoundKeyUnsound,
                format!(
                    "{} declares a key but joins nothing; nothing justifies it",
                    r.id
                ),
            ));
            continue;
        }
        if r.tuples == 0 {
            // An empty keyed relation bounds every join at 0; any
            // selectivity is consistent with it.
            continue;
        }
        let limit = 1.0 / r.tuples as f64;
        for e in incident {
            if !(e.selectivity > 0.0 && e.selectivity <= limit) {
                diags.push(Diagnostic::new(
                    DiagCode::BoundKeyUnsound,
                    format!(
                        "{} declares a key but edge {}–{} has selectivity {:e} > 1/{} \
                         (a probe tuple could match more than one key tuple)",
                        r.id, e.a, e.b, e.selectivity, r.tuples
                    ),
                ));
            }
        }
    }
    diags
}

/// True when the declared key on `rel` survives [`audit_keys`] — the
/// only keys [`analyze`] will derive bounds from.
fn key_usable(query: &QuerySpec, rel: csqp_catalog::RelId) -> bool {
    let r = &query.relations[rel.index()];
    if !r.key {
        return false;
    }
    let mut any = false;
    for e in query.edges.iter().filter(|e| e.a == rel || e.b == rel) {
        if r.tuples > 0 && !(e.selectivity > 0.0 && e.selectivity <= 1.0 / r.tuples as f64) {
            return false;
        }
        any = true;
    }
    any
}

/// Derive worst-case bounds for every node of `plan` from `query`'s
/// declared statistics and audited keys.
///
/// Errors with a `bound-overflow` diagnostic when the page conversion
/// meets statistics it cannot stand behind (zero-width tuples, a tuple
/// wider than a page, a non-uniform schema); tuple products saturate.
pub fn analyze(plan: &Plan, query: &QuerySpec, page_size: u32) -> Result<PlanBounds, Diagnostic> {
    let Some(width) = query.uniform_tuple_bytes() else {
        return Err(Diagnostic::new(
            DiagCode::BoundOverflow,
            "bounds need the uniform-width schema; this query mixes tuple widths",
        ));
    };
    let pages_of = |tuples: u64, plan: &Plan, id: NodeId| -> Result<u64, Diagnostic> {
        try_pages_for(tuples, width, page_size).ok_or_else(|| {
            Diagnostic::at(
                DiagCode::BoundOverflow,
                plan,
                id,
                format!(
                    "page bound undefined for tuple_bytes={width} page_size={page_size} \
                     (hostile statistics)"
                ),
            )
        })
    };
    let mut bounds: Vec<Option<NodeBound>> = vec![None; plan.arena_len()];
    // Invariant panics below: postorder yields children before parents
    // and `validate_structure` guarantees occupied arity slots, so every
    // child bound is present when its parent is visited.
    #[allow(clippy::expect_used)]
    for id in plan.postorder() {
        let node = plan.node(id);
        let child = |slot: usize| -> NodeBound {
            let c = node.children[slot].expect("validated arity");
            bounds[c.index()].expect("postorder computes children first")
        };
        let tuples = match node.op {
            LogicalOp::Scan { rel } => query.relations[rel.index()].tuples,
            // Selection never grows; the worst case keeps every tuple.
            LogicalOp::Select { .. } | LogicalOp::Display => child(0).tuples,
            LogicalOp::Aggregate { groups } => groups.min(child(0).tuples),
            LogicalOp::Join => {
                let (l, r) = (child(0), child(1));
                let (lset, rset) = {
                    let lc = node.children[0].expect("validated arity");
                    let rc = node.children[1].expect("validated arity");
                    (plan.rel_set(lc), plan.rel_set(rc))
                };
                let mut best = l.tuples.saturating_mul(r.tuples);
                // Key rule: a side that is a single audited-key base
                // relation joined on its key caps the result at the
                // other side's bound. Selection below the scan keeps
                // uniqueness, so a {Select, Scan}-only side qualifies —
                // exactly the sides whose relation set is a singleton.
                for e in &query.edges {
                    let crossing = (lset.contains(e.a) && rset.contains(e.b))
                        || (lset.contains(e.b) && rset.contains(e.a));
                    if !crossing {
                        continue;
                    }
                    for (end, side_set, other) in [
                        (e.a, lset, r),
                        (e.a, rset, l),
                        (e.b, lset, r),
                        (e.b, rset, l),
                    ] {
                        if side_set.contains(end)
                            && side_set == RelSet::single(end)
                            && key_usable(query, end)
                        {
                            best = best.min(other.tuples);
                        }
                    }
                }
                best
            }
        };
        let pages = pages_of(tuples, plan, id)?;
        bounds[id.index()] = Some(NodeBound { tuples, pages });
    }
    Ok(PlanBounds {
        bounds,
        root: plan.root(),
    })
}

/// The engine's per-operator output convention (`ExecutionBuilder::
/// output_stats`), reproduced here so the dynamic soundness check
/// compares the bound against exactly what execution materializes:
/// scans emit their base relation, aggregates clamp to their group
/// count, and every other operator materializes the rounded estimate
/// for its relation set. `None` when the page conversion is undefined
/// for the declared statistics.
pub fn actual_stats(
    query: &QuerySpec,
    page_size: u32,
    plan: &Plan,
    id: NodeId,
) -> Option<(u64, u64)> {
    let width = query.uniform_tuple_bytes()?;
    let est = csqp_catalog::Estimator::new(
        query,
        &csqp_catalog::SystemConfig {
            page_size,
            ..csqp_catalog::SystemConfig::default()
        },
    );
    let node = plan.node(id);
    match node.op {
        LogicalOp::Scan { rel } => {
            let r = &query.relations[rel.index()];
            let pages = try_pages_for(r.tuples, r.tuple_bytes, page_size)?;
            Some((r.tuples, pages))
        }
        LogicalOp::Aggregate { groups } => {
            let child = node.children[0]?;
            let (in_tuples, _) = actual_stats(query, page_size, plan, child)?;
            let t = groups.min(in_tuples);
            Some((t, try_pages_for(t, width, page_size)?))
        }
        _ => {
            let rels = plan.rel_set(id);
            let t = est.tuples_int(rels);
            Some((t, try_pages_for(t, width, page_size)?))
        }
    }
}

/// Dynamic soundness check for one plan: audit the keys, derive the
/// bounds, and assert the engine's materialized output stays within the
/// bound on every operator edge. Clean plans return no diagnostics.
pub fn check_plan(query: &QuerySpec, page_size: u32, plan: &Plan) -> Vec<Diagnostic> {
    let mut diags = audit_keys(query);
    let bounds = match analyze(plan, query, page_size) {
        Ok(b) => b,
        Err(d) => {
            diags.push(d);
            return diags;
        }
    };
    for id in plan.postorder() {
        let Some(bound) = bounds.node(id) else {
            continue;
        };
        let Some((tuples, pages)) = actual_stats(query, page_size, plan, id) else {
            diags.push(Diagnostic::at(
                DiagCode::BoundOverflow,
                plan,
                id,
                "executed output stats undefined for the declared statistics",
            ));
            continue;
        };
        if tuples > bound.tuples || pages > bound.pages {
            diags.push(Diagnostic::at(
                DiagCode::BoundViolated,
                plan,
                id,
                format!(
                    "executed {tuples} tuples / {pages} pages exceeds the guaranteed \
                     bound of {} tuples / {} pages",
                    bound.tuples, bound.pages
                ),
            ));
        }
    }
    diags
}

/// Worst-case *client-memory* footprint of a bound plan, in pages: the
/// pages of both join inputs for every join executed at the client,
/// plus the final result the client must hold. This is the quantity
/// `--mem-budget` compares: QS plans join at the servers, so their
/// footprint is the result bound alone — which is why a budget-starved
/// server can still serve QS while degrading HY/DS.
pub fn client_footprint_pages(bound: &BoundPlan, bounds: &PlanBounds) -> u64 {
    let mut total: u64 = bounds.root().pages;
    // Invariant panic: join arity is validated before binding.
    #[allow(clippy::expect_used)]
    for id in bound.plan.join_nodes() {
        if !bound.site(id).is_client() {
            continue;
        }
        let node = bound.plan.node(id);
        for slot in 0..2 {
            let c = node.children[slot].expect("validated arity");
            if let Some(b) = bounds.node(c) {
                total = total.saturating_add(b.pages);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{RelId, Relation};
    use csqp_core::annotation::Annotation;
    use csqp_core::bind::{bind, BindContext};
    use csqp_core::builder::JoinTree;
    use csqp_workload::{chain_query, single_server_placement, star_query, MODERATE_SEL};

    const PAGE: u32 = 4096;

    fn left_deep(query: &QuerySpec) -> Plan {
        let order: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
        JoinTree::left_deep(&order).into_plan(query, Annotation::Consumer, Annotation::Client)
    }

    #[test]
    fn keyed_chain_is_bounded_by_one_relation() {
        let q = chain_query(4, MODERATE_SEL);
        let plan = left_deep(&q);
        let b = analyze(&plan, &q, PAGE).expect("bounds");
        // Every join of the keyed chain stays ≤ 10,000 tuples: each step
        // joins the running result against a single keyed base relation.
        assert_eq!(b.root().tuples, 10_000);
        assert_eq!(b.root().pages, 250);
        for id in plan.join_nodes() {
            let jb = b.node(id).expect("reachable");
            assert_eq!(jb.tuples, 10_000, "key rule caps every join");
        }
    }

    #[test]
    fn unkeyed_chain_falls_back_to_the_product() {
        let q = chain_query(3, 1e-3); // 1e-3 > 1/10,000: no keys declared
        assert!(q.relations.iter().all(|r| !r.key));
        let plan = left_deep(&q);
        let b = analyze(&plan, &q, PAGE).expect("bounds");
        let joins = plan.join_nodes();
        assert_eq!(b.node(joins[0]).expect("join").tuples, 100_000_000);
        assert_eq!(b.root().tuples, 1_000_000_000_000);
    }

    #[test]
    fn hostile_key_declaration_is_audited_and_ignored() {
        let mut q = chain_query(3, 1e-3);
        // A hostile peer declares keys the selectivities cannot justify.
        for r in &mut q.relations {
            r.key = true;
        }
        let diags = audit_keys(&q);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.code == DiagCode::BoundKeyUnsound));
        // The analyzer must not believe the declaration: product bound.
        let plan = left_deep(&q);
        let b = analyze(&plan, &q, PAGE).expect("bounds");
        assert_eq!(b.root().tuples, 1_000_000_000_000);
    }

    #[test]
    fn key_without_edges_is_unjustified() {
        let key = Relation {
            key: true,
            ..Relation::benchmark(RelId(0), "A")
        };
        let q = QuerySpec::new(vec![key], vec![]);
        let diags = audit_keys(&q);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::BoundKeyUnsound);
    }

    #[test]
    fn selection_and_aggregate_never_grow() {
        let q = chain_query(2, MODERATE_SEL)
            .with_selection(RelId(0), 0.1)
            .with_aggregate(40);
        let plan = left_deep(&q);
        let b = analyze(&plan, &q, PAGE).expect("bounds");
        // The bound ignores the selection (worst case keeps everything)
        // but the aggregate caps the root at its group count.
        assert_eq!(b.root().tuples, 40);
        assert_eq!(b.root().pages, 1);
    }

    #[test]
    fn overflow_reports_a_typed_diag_not_a_panic() {
        let mut q = chain_query(2, MODERATE_SEL);
        for r in &mut q.relations {
            r.tuple_bytes = 8192; // wider than the page
        }
        let plan = left_deep(&q);
        let err = analyze(&plan, &q, PAGE).expect_err("hostile stats");
        assert_eq!(err.code, DiagCode::BoundOverflow);
    }

    #[test]
    fn executed_actuals_stay_within_bounds_for_benchmark_shapes() {
        for q in [
            chain_query(2, MODERATE_SEL),
            chain_query(5, MODERATE_SEL),
            chain_query(4, csqp_workload::HISEL_SEL),
            star_query(4, MODERATE_SEL),
        ] {
            let plan = left_deep(&q);
            let diags = check_plan(&q, PAGE, &plan);
            assert!(diags.is_empty(), "{:?}", diags);
        }
    }

    #[test]
    fn client_footprint_counts_client_joins_and_the_result() {
        let q = chain_query(3, MODERATE_SEL);
        let plan = left_deep(&q);
        let catalog = single_server_placement(&q);
        let bound = bind(
            &plan,
            BindContext {
                catalog: &catalog,
                query_site: csqp_catalog::SiteId::CLIENT,
            },
        )
        .expect("binds");
        let bounds = analyze(&plan, &q, PAGE).expect("bounds");
        let footprint = client_footprint_pages(&bound, &bounds);
        // Consumer-annotated joins with the display at the client run at
        // the client: both joins (2 × 250 input pages each) + the result.
        let client_joins = bound
            .plan
            .join_nodes()
            .iter()
            .filter(|&&id| bound.site(id).is_client())
            .count() as u64;
        assert_eq!(footprint, 250 + client_joins * 500);
        assert!(footprint >= bounds.root().pages);
    }
}
