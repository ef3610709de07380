//! Pass 3: cost-model and configuration invariants.
//!
//! The cost model (§3.1.2) is an analytic function from a bound plan to
//! resource-seconds; the optimizer trusts it blindly, so a sign error or
//! a non-monotone discontinuity (say, a hybrid-hash partitioning step
//! that *drops* cost when an input grows) would silently steer every
//! experiment. This pass checks the properties any ML86/GHK92-style model
//! must have, on the concrete plan being verified:
//!
//! * **Binding succeeds** — a structurally sound, well-formed plan must
//!   reach the site-binding fixpoint ([`DiagCode::UnresolvedSite`]).
//! * **Non-negative, finite resources** — every CPU/disk/wire/page
//!   component of the usage vector ([`DiagCode::NegativeResource`]).
//! * **Response ≤ sum of phases** — the response-time estimate assumes
//!   *full overlap* of the phases (§4.2.3): overlap can hide work, never
//!   invent it, so response time can never exceed total resource seconds
//!   ([`DiagCode::ResponseExceedsPhases`]).
//! * **Monotone in cardinality** — doubling every base relation must not
//!   make the plan cheaper, for both the communication and total-cost
//!   objectives ([`DiagCode::NonMonotoneCost`]).
//! * **Cardinalities bounded** — no sub-result estimate may exceed the
//!   product of its base-relation cardinalities; selectivities and
//!   selection factors only shrink ([`DiagCode::CardinalityBound`]).
//!
//! [`check_config`] vets the Table 2 parameters themselves (zero page
//! size, random I/O faster than sequential, …) so a hand-edited JSON
//! config is rejected before it skews a simulation.

use csqp_catalog::{Catalog, Estimator, QuerySpec, SiteId, SystemConfig};
use csqp_core::diag::{DiagCode, Diagnostic};
use csqp_core::{bind, BindContext, BindError, Plan};
use csqp_cost::{CostModel, Objective, ResourceUsage};

/// Relative slack for floating-point comparisons: the model sums many
/// f64 terms, so exact comparisons would flag rounding noise.
const REL_EPS: f64 = 1e-9;

/// Run the cost-invariant checks on `plan`. Assumes the structural pass
/// already passed; binding failures are still reported, not panicked.
pub fn check_cost_invariants(
    plan: &Plan,
    config: &SystemConfig,
    catalog: &Catalog,
    query: &QuerySpec,
    query_site: SiteId,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    let bound = match bind(
        plan,
        BindContext {
            catalog,
            query_site,
        },
    ) {
        Ok(b) => b,
        Err(BindError::Cycle { unresolved }) => {
            out.push(Diagnostic::new(
                DiagCode::UnresolvedSite,
                format!(
                    "site binding stalled with {} unresolved nodes: {unresolved:?}",
                    unresolved.len()
                ),
            ));
            return out;
        }
        Err(BindError::Malformed { node, reason }) => {
            out.push(Diagnostic::at(DiagCode::DanglingChild, plan, node, reason));
            return out;
        }
    };

    let model = CostModel::new(config, catalog, query, query_site);
    let usage = model.usage(&bound);
    out.extend(check_usage(&usage));

    let response = model.cost_bound(&bound).response;
    let total = usage.total_seconds();
    if response > total * (1.0 + REL_EPS) {
        out.push(Diagnostic::new(
            DiagCode::ResponseExceedsPhases,
            format!(
                "response-time estimate {response:.6}s exceeds the sum of all \
                 resource phases {total:.6}s — full overlap can hide work, not invent it"
            ),
        ));
    }

    // Monotonicity: grow every base relation and re-cost the same plan.
    let scaled = scale_cardinalities(query, 2);
    out.extend(check_monotone_against(
        plan, config, catalog, query, &scaled, query_site,
    ));

    out.extend(check_cardinalities(plan, config, query));
    out
}

/// `query` with every base-relation cardinality multiplied by `factor`.
pub fn scale_cardinalities(query: &QuerySpec, factor: u64) -> QuerySpec {
    let mut scaled = query.clone();
    for r in &mut scaled.relations {
        r.tuples *= factor;
    }
    scaled
}

/// Check that re-costing `plan` against `scaled` (the same query with
/// every relation at least as large) is at least as expensive as against
/// `query`, for the size-driven objectives. Exposed separately so
/// `csqp-check` can feed a deliberately *shrunk* "scaled" query as a
/// negative fixture.
pub fn check_monotone_against(
    plan: &Plan,
    config: &SystemConfig,
    catalog: &Catalog,
    query: &QuerySpec,
    scaled: &QuerySpec,
    query_site: SiteId,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let base_model = CostModel::new(config, catalog, query, query_site);
    let scaled_model = CostModel::new(config, catalog, scaled, query_site);
    for objective in [Objective::Communication, Objective::TotalCost] {
        let (Some(base), Some(big)) = (
            base_model.evaluate_plan(plan, objective),
            scaled_model.evaluate_plan(plan, objective),
        ) else {
            continue; // binding failure already reported by the caller
        };
        if big < base * (1.0 - REL_EPS) {
            out.push(Diagnostic::new(
                DiagCode::NonMonotoneCost,
                format!(
                    "{objective} cost fell from {base:.6} to {big:.6} when every \
                     base relation grew — the model is not monotone in cardinality"
                ),
            ));
        }
    }
    out
}

/// Check a resource-usage vector for negative or non-finite components.
pub fn check_usage(usage: &ResourceUsage) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut bad = |what: String, v: f64| {
        if !v.is_finite() || v < 0.0 {
            out.push(Diagnostic::new(
                DiagCode::NegativeResource,
                format!("{what} is {v}, expected a finite non-negative value"),
            ));
        }
    };
    for (i, &v) in usage.cpu.iter().enumerate() {
        bad(format!("CPU seconds at site {i}"), v);
    }
    for (i, &v) in usage.disk.iter().enumerate() {
        bad(format!("disk seconds at site {i}"), v);
    }
    bad("network wire seconds".to_string(), usage.net_wire);
    bad("pages sent".to_string(), usage.pages_sent);
    out
}

/// Check that every sub-result cardinality estimate in `plan` stays
/// within the product of its base-relation cardinalities.
pub fn check_cardinalities(
    plan: &Plan,
    config: &SystemConfig,
    query: &QuerySpec,
) -> Vec<Diagnostic> {
    let est = Estimator::new(query, config);
    let mut out = Vec::new();
    for id in plan.postorder() {
        let rels = plan.rel_set(id);
        if rels.is_empty() {
            continue;
        }
        let tuples = est.tuples(rels);
        let bound: f64 = rels
            .iter()
            .map(|r| query.relations[r.index()].tuples as f64)
            .product();
        if !(0.0..=bound * (1.0 + REL_EPS)).contains(&tuples) {
            out.push(Diagnostic::at(
                DiagCode::CardinalityBound,
                plan,
                id,
                format!(
                    "estimated {tuples:.1} tuples for {} base relations whose \
                     cardinality product is {bound:.1} — a selectivity above 1.0 \
                     or a negative statistic",
                    rels.len()
                ),
            ));
        }
    }
    out
}

/// Validate the Table 2 simulation parameters: the checks a hand-edited
/// configuration file must pass before any simulation or costing.
pub fn check_config(config: &SystemConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut bad = |detail: String| {
        out.push(Diagnostic::new(DiagCode::ConfigInvariant, detail));
    };
    if config.mips == 0 {
        bad("mips is 0: every CPU charge would be infinite".into());
    }
    if config.page_size == 0 {
        bad("page_size is 0: page counts would divide by zero".into());
    }
    if config.net_bw_mbit == 0 {
        bad("net_bw_mbit is 0: wire transfers would never complete".into());
    }
    if config.num_disks == 0 {
        bad("num_disks is 0: servers could not read base relations".into());
    }
    if !config.fudge.is_finite() || config.fudge < 1.0 {
        bad(format!(
            "fudge factor is {}: hash tables need at least their input's space (≥ 1.0)",
            config.fudge
        ));
    }
    for (name, v) in [
        ("disk_seq_page_ms", config.disk_seq_page_ms),
        ("disk_rand_page_ms", config.disk_rand_page_ms),
    ] {
        if !v.is_finite() || v <= 0.0 {
            bad(format!("{name} is {v}: page I/O must take positive time"));
        }
    }
    if config.disk_rand_page_ms < config.disk_seq_page_ms {
        bad(format!(
            "random page I/O ({} ms) is faster than sequential ({} ms): \
             the disk model's premise is inverted",
            config.disk_rand_page_ms, config.disk_seq_page_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::RelId;
    use csqp_core::{Annotation, JoinTree};

    fn setup(n: u32) -> (QuerySpec, Catalog, SystemConfig) {
        let query = csqp_workload::chain_query(n, 1e-4);
        let mut catalog = Catalog::new(2);
        for i in 0..n {
            catalog.place(RelId(i), SiteId::server(1 + i % 2));
        }
        (query, catalog, SystemConfig::default())
    }

    fn plan(query: &QuerySpec, jann: Annotation, sann: Annotation) -> Plan {
        let order: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
        JoinTree::left_deep(&order).into_plan(query, jann, sann)
    }

    #[test]
    fn sound_plans_satisfy_all_cost_invariants() {
        let (query, catalog, config) = setup(4);
        for (jann, sann) in [
            (Annotation::Consumer, Annotation::Client),
            (Annotation::InnerRel, Annotation::PrimaryCopy),
            (Annotation::OuterRel, Annotation::PrimaryCopy),
        ] {
            let p = plan(&query, jann, sann);
            let ds = check_cost_invariants(&p, &config, &catalog, &query, SiteId::CLIENT);
            assert!(ds.is_empty(), "{jann}/{sann}: {ds:?}");
        }
    }

    #[test]
    fn cyclic_plan_reports_unresolved_sites() {
        let (query, catalog, config) = setup(3);
        let mut p = plan(&query, Annotation::Consumer, Annotation::PrimaryCopy);
        let joins = p.join_nodes();
        p.node_mut(joins[1]).ann = Annotation::InnerRel; // cycle with joins[0]
        let ds = check_cost_invariants(&p, &config, &catalog, &query, SiteId::CLIENT);
        assert!(
            ds.iter().any(|d| d.code == DiagCode::UnresolvedSite),
            "{ds:?}"
        );
    }

    #[test]
    fn negative_usage_component_is_flagged() {
        let mut u = ResourceUsage::zero(3);
        u.cpu[1] = -0.25;
        let ds = check_usage(&u);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code, DiagCode::NegativeResource);
        assert!(ds[0].detail.contains("site 1"), "{}", ds[0].detail);

        let mut nan = ResourceUsage::zero(1);
        nan.net_wire = f64::NAN;
        assert!(!check_usage(&nan).is_empty());
    }

    #[test]
    fn shrunken_scaling_triggers_non_monotone_finding() {
        let (query, catalog, config) = setup(2);
        let p = plan(&query, Annotation::InnerRel, Annotation::PrimaryCopy);
        // A "scaled" query that actually shrinks the relations simulates
        // a model whose cost falls as inputs grow.
        let shrunk = {
            let mut q = query.clone();
            for r in &mut q.relations {
                r.tuples /= 10;
            }
            q
        };
        let ds = check_monotone_against(&p, &config, &catalog, &query, &shrunk, SiteId::CLIENT);
        assert!(
            ds.iter().any(|d| d.code == DiagCode::NonMonotoneCost),
            "{ds:?}"
        );
    }

    #[test]
    fn selectivity_above_one_breaks_the_cardinality_bound() {
        let (mut query, _, config) = setup(2);
        query.edges[0].selectivity = 2.0;
        let p = plan(&query, Annotation::Consumer, Annotation::Client);
        let ds = check_cardinalities(&p, &config, &query);
        assert!(
            ds.iter().any(|d| d.code == DiagCode::CardinalityBound),
            "{ds:?}"
        );
    }

    #[test]
    fn default_config_is_clean_and_broken_configs_are_not() {
        let config = SystemConfig::default();
        assert!(check_config(&config).is_empty());

        let mut zero_page = config.clone();
        zero_page.page_size = 0;
        assert!(check_config(&zero_page)
            .iter()
            .any(|d| d.code == DiagCode::ConfigInvariant));

        let mut inverted = config.clone();
        inverted.disk_rand_page_ms = 1.0;
        inverted.disk_seq_page_ms = 3.0;
        assert!(!check_config(&inverted).is_empty());

        let mut fudge = config;
        fudge.fudge = 0.5;
        assert!(!check_config(&fudge).is_empty());
    }
}
