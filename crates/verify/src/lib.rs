//! Static analysis for annotated plans and simulator configurations.
//!
//! The crates below `csqp-verify` establish their invariants *by
//! construction*: the plan builders only produce display-rooted trees, the
//! optimizer only draws annotations from the policy's Table 1 row, the
//! cost model only adds non-negative resource charges. This crate checks
//! the same invariants *by inspection*, so a bug in any constructor — or a
//! plan arriving from outside (JSON, a fuzzer, a future remote client) —
//! is caught with a precise [`Diagnostic`] instead of a wrong experiment
//! figure.
//!
//! Four passes:
//!
//! 1. [`structural`] — the plan arena is a display-rooted *tree*: child
//!    references in bounds, no node shared between parents, operator
//!    arity respected, annotations drawn from the operator's legal set,
//!    plus the two-node annotation-cycle check of §2.2.3. Unlike
//!    `Plan::validate_structure` this pass never panics, even on
//!    arbitrarily corrupt arenas.
//! 2. [`conformance`] — Table 1 as a declarative rule table: every
//!    operator's annotation must be in the policy's row. The table is an
//!    *independent transcription* of the paper's Table 1, cross-checked
//!    against [`csqp_core::Policy::allowed`] in tests, so the checker
//!    does not inherit a transcription error from the code it checks.
//! 3. [`invariants`] — cost-model sanity: binding succeeds, resource
//!    vectors are non-negative and finite, estimated response time never
//!    exceeds the sum of all resource phases (the full-overlap model can
//!    hide work, never invent it), costs are monotone when every base
//!    relation grows, and no cardinality estimate exceeds the product of
//!    the base-relation sizes. Also validates [`SystemConfig`] ranges.
//! 4. [`determinism`] — simulator lint: an event-pop trace must be
//!    time-monotone, and replaying a schedule with permuted insertion
//!    order must pop the same observable sequence — otherwise
//!    same-timestamp ties leak insertion order into the statistics.
//!
//! All passes report [`Diagnostic`]s (re-exported from
//! [`csqp_core::diag`]) collected into a [`Report`]; nothing in this
//! crate panics on malformed input.
//!
//! The [`Checker`] facade runs passes 1–3 in order, skipping later passes
//! when an earlier one already failed (costing a cyclic plan is
//! meaningless). The optimizer calls [`check_logical`] after every move
//! under `debug_assertions`; the engine verifies plans the same way
//! before executing them; the `csqp-check` binary drives all four passes
//! over generated workloads, optimizer traces, and negative fixtures.
//!
//! Alongside the plan passes, two model checkers cover the serving
//! stack: [`protocol`] explores one session machine exhaustively, and
//! [`system`] composes N of them with a shared admission-queue /
//! worker-pool model (symmetry-reduced BFS plus a bounded-lasso
//! liveness pass) — `csqp-check --protocol` / `--system`. The [`memo`]
//! pass inspects every live entry of a `csqp-memo` table: fingerprints
//! re-derive from their witnesses, stored plans stay structurally valid
//! and Table-1 conformant, generations are sane, and proved costs are
//! finite — so a memo hit can never serve what a cold optimization
//! could not (`csqp-check`'s memo stage). The [`catalog`] pass replays a
//! recorded catalog drift trace and proves the server drift model's
//! degradation lattice was honored: no query served fresh past the
//! staleness bound, no shard epoch regression ever applied, lag
//! accounting faithful (`csqp-check`'s catalog stage). The [`bounds`] pass
//! analyzes *plans* rather than machines or source text: it derives
//! guaranteed worst-case intermediate sizes from declared unary keys
//! (sound rules: selection never grows, a join on a key of one side is
//! bounded by the other side, product fallback), audits the key
//! declarations against the query's own statistics, and dynamically
//! asserts executed actual ≤ static bound on every operator edge
//! (`csqp-check`'s bounds stage). The serve layer's `--mem-budget` admission
//! gate consumes these bounds.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bounds;
pub mod catalog;
pub mod conformance;
pub mod determinism;
pub mod invariants;
pub mod memo;
pub mod protocol;
pub mod report;
pub mod structural;
pub mod system;

pub use csqp_core::diag::{DiagCode, Diagnostic};
pub use report::Report;

use csqp_catalog::{Catalog, QuerySpec, SiteId, SystemConfig};
use csqp_core::{Plan, Policy};

/// The logical-only checks (passes 1–2): structure, well-formedness, and
/// policy conformance. No catalog or configuration needed — this is the
/// check the optimizer affords after *every* move under
/// `debug_assertions`.
///
/// Well-formedness failures (annotation cycles) are included: callers
/// that tolerate cycles (the optimizer filters them rather than treating
/// them as bugs) should test [`Report::only`] with
/// [`DiagCode::AnnotationCycle`].
pub fn check_logical(plan: &Plan, query: &QuerySpec, policy: Policy) -> Report {
    let mut report = Report::new();
    report.extend(structural::check_structure(plan, Some(query)));
    if !report.is_clean() {
        return report;
    }
    report.extend(conformance::check_policy(plan, policy));
    report
}

/// All static passes over a plan, in dependency order.
///
/// ```
/// use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
/// use csqp_core::{Annotation, JoinTree, Policy};
/// use csqp_verify::Checker;
///
/// let query = QuerySpec::new(
///     vec![Relation::benchmark(RelId(0), "A"), Relation::benchmark(RelId(1), "B")],
///     vec![JoinEdge { a: RelId(0), b: RelId(1), selectivity: 1e-4 }],
/// );
/// let mut catalog = Catalog::new(1);
/// catalog.place(RelId(0), SiteId::server(1));
/// catalog.place(RelId(1), SiteId::server(1));
/// let config = SystemConfig::default();
/// let plan = JoinTree::left_deep(&[RelId(0), RelId(1)])
///     .into_plan(&query, Annotation::Consumer, Annotation::Client);
///
/// let checker = Checker::new(&query, &catalog, &config, SiteId::CLIENT)
///     .with_policy(Policy::DataShipping);
/// assert!(checker.check(&plan).is_clean());
/// ```
#[derive(Debug, Clone)]
pub struct Checker<'a> {
    query: &'a QuerySpec,
    catalog: &'a Catalog,
    config: &'a SystemConfig,
    query_site: SiteId,
    policy: Option<Policy>,
}

impl<'a> Checker<'a> {
    /// A checker for `query` executed against `catalog` under `config`,
    /// submitted at `query_site`. No policy pass until
    /// [`with_policy`](Checker::with_policy) is called.
    pub fn new(
        query: &'a QuerySpec,
        catalog: &'a Catalog,
        config: &'a SystemConfig,
        query_site: SiteId,
    ) -> Checker<'a> {
        Checker {
            query,
            catalog,
            config,
            query_site,
            policy: None,
        }
    }

    /// Also check Table 1 conformance for `policy`.
    pub fn with_policy(mut self, policy: Policy) -> Checker<'a> {
        self.policy = Some(policy);
        self
    }

    /// Run passes 1–3 on `plan`. Pass 1 failures stop the run (later
    /// passes assume a sound arena); a policy or cycle finding still
    /// allows the remaining node-local checks to report everything they
    /// can.
    pub fn check(&self, plan: &Plan) -> Report {
        let mut report = Report::new();
        report.extend(structural::check_structure(plan, Some(self.query)));
        if !report.is_clean() {
            return report;
        }
        if let Some(policy) = self.policy {
            report.extend(conformance::check_policy(plan, policy));
        }
        report.extend(invariants::check_config(self.config));
        if report.is_clean() {
            report.extend(invariants::check_cost_invariants(
                plan,
                self.config,
                self.catalog,
                self.query,
                self.query_site,
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::RelId;
    use csqp_core::{Annotation, JoinTree};

    fn setup() -> (QuerySpec, Catalog, SystemConfig) {
        let query = csqp_workload::two_way();
        let mut catalog = Catalog::new(1);
        catalog.place(RelId(0), SiteId::server(1));
        catalog.place(RelId(1), SiteId::server(1));
        (query, catalog, SystemConfig::default())
    }

    #[test]
    fn canonical_plans_pass_all_passes() {
        let (query, catalog, config) = setup();
        for (policy, jann, sann) in [
            (
                Policy::DataShipping,
                Annotation::Consumer,
                Annotation::Client,
            ),
            (
                Policy::QueryShipping,
                Annotation::InnerRel,
                Annotation::PrimaryCopy,
            ),
        ] {
            let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(&query, jann, sann);
            let report = Checker::new(&query, &catalog, &config, SiteId::CLIENT)
                .with_policy(policy)
                .check(&plan);
            assert!(report.is_clean(), "{policy}: {report}");
        }
    }

    #[test]
    fn check_logical_flags_cycles_with_their_code() {
        let (query, ..) = setup();
        let mut plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &query,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        // A lone join over scans cannot cycle; build a 3-way chain where
        // the top join points down at a consumer join.
        let query = csqp_workload::chain_query(3, 1e-4);
        let mut p3 = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &query,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        let joins = p3.join_nodes();
        p3.node_mut(joins[1]).ann = Annotation::InnerRel;
        let report = check_logical(&p3, &query, Policy::HybridShipping);
        assert!(report.only(DiagCode::AnnotationCycle), "{report}");
        // And the original 2-way plan stays clean under hybrid.
        plan.node_mut(plan.root()).ann = Annotation::Client;
        let q2 = csqp_workload::two_way();
        assert!(check_logical(&plan, &q2, Policy::HybridShipping).is_clean());
    }
}
