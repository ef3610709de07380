//! The per-operator cost accounting.
//!
//! Each plan node contributes resource seconds to the sites it touches;
//! the recursion aggregates usage bottom-up and derives the response-time
//! estimate as the maximum of (a) any child's response time and (b) the
//! subtree's largest single-resource usage — the full-overlap assumption
//! described in the crate docs.

use std::cell::RefCell;
use std::collections::BTreeMap;

use csqp_catalog::{
    hybrid_hash_plan, join_memory, sat_u64, Catalog, Estimator, HashPlan, QuerySpec, RelSet,
    SiteId, SystemConfig,
};
use csqp_core::{bind, BindContext, BoundPlan, LogicalOp, NodeId, Plan};
use csqp_net::CONTROL_MSG_BYTES;

use crate::objective::Objective;
use crate::usage::ResourceUsage;

/// Cost of one subtree.
///
/// Response time combines two lower bounds (both GHK92-flavoured):
///
/// * the *bottleneck* bound — the busiest single resource of the whole
///   subtree cannot be beaten by any overlap;
/// * the *critical path* bound — `pre + stream`, where `pre` is the time
///   before the node can emit its first page (a hybrid-hash join must
///   consume its entire build input first) and `stream` is the serial
///   time to emit its whole output (page-at-a-time scans, probe work,
///   the partition-join phase).
///
/// Everything else is assumed to overlap perfectly — the paper's noted
/// optimism ("it assumes that these costs can be fully overlapped",
/// §4.2.3) — so the estimate is `max(bottleneck, pre + stream)`.
#[derive(Debug, Clone)]
struct NodeCost {
    usage: ResourceUsage,
    /// Seconds before the first output page can appear.
    pre: f64,
    /// Serial seconds to stream the full output thereafter.
    stream: f64,
    /// Base relations under the node, accumulated bottom-up.
    rels: RelSet,
    /// Tuples the node emits to its consumer.
    tuples: f64,
    /// Pages the node emits to its consumer.
    pages: f64,
}

impl NodeCost {
    fn response(&self) -> f64 {
        (self.pre + self.stream).max(self.usage.bottleneck_seconds())
    }
}

/// Every objective of one plan, read from a single cost pass.
///
/// The optimizer judges a candidate by one objective plus a total-cost
/// tie-break; both terms come from this record, so a candidate is bound
/// and costed once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Data pages shipped over the wire (the communication objective).
    pub pages_sent: f64,
    /// Estimated seconds until the last tuple is displayed.
    pub response: f64,
    /// Total resource seconds consumed (the total-cost objective).
    pub total_seconds: f64,
}

impl PlanCost {
    /// The value of `objective` (lower is better).
    pub fn get(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Communication => self.pages_sent,
            Objective::ResponseTime => self.response,
            Objective::TotalCost => self.total_seconds,
        }
    }
}

/// Estimates a cost pass reads again and again while a search prices
/// thousands of plans over one query. Each entry is computed by the same
/// expression an uncached read would evaluate, from inputs fixed when the
/// model was built, so a hit is bit-identical to recomputing. Entries
/// appear only for the relation sets and inner sizes a search touches.
#[derive(Debug, Clone, Default)]
struct EstimateMemo {
    /// `(tuples, pages)` of the sub-result over a relation set, keyed by
    /// the set's bits.
    sizes: BTreeMap<u64, (f64, f64)>,
    /// Hybrid-hash layout of a join, keyed by its inner page count.
    hash_plans: BTreeMap<u64, HashPlan>,
}

/// The cost model for a fixed query / catalog / configuration.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    config: &'a SystemConfig,
    catalog: &'a Catalog,
    query: &'a QuerySpec,
    est: Estimator<'a>,
    /// External disk utilization per site in `[0, 1)`; disk seconds are
    /// inflated by `1/(1-ρ)`.
    disk_load: Vec<f64>,
    query_site: SiteId,
    memo: RefCell<EstimateMemo>,
}

impl<'a> CostModel<'a> {
    /// Build a model; queries are submitted (and displayed) at
    /// `query_site`.
    pub fn new(
        config: &'a SystemConfig,
        catalog: &'a Catalog,
        query: &'a QuerySpec,
        query_site: SiteId,
    ) -> CostModel<'a> {
        CostModel {
            config,
            catalog,
            query,
            est: Estimator::new(query, config),
            disk_load: vec![0.0; catalog.num_servers() as usize + 1],
            query_site,
            memo: RefCell::default(),
        }
    }

    /// Record external disk load (utilization) at a site.
    pub fn with_disk_load(mut self, site: SiteId, utilization: f64) -> CostModel<'a> {
        assert!(
            (0.0..1.0).contains(&utilization),
            "utilization must be in [0,1), got {utilization}"
        );
        self.disk_load[site.index()] = utilization;
        self
    }

    /// Number of sites (client + servers).
    fn num_sites(&self) -> usize {
        self.catalog.num_servers() as usize + 1
    }

    /// Every objective of a bound plan, from one cost pass.
    pub fn cost_bound(&self, bound: &BoundPlan) -> PlanCost {
        let cost = self.node_cost(bound, bound.plan.root());
        PlanCost {
            pages_sent: cost.usage.pages_sent,
            response: cost.response(),
            total_seconds: cost.usage.total_seconds(),
        }
    }

    /// Bind `plan` once and cost it once; `None` when binding fails
    /// (annotation cycle) — the optimizer treats such plans as unusable.
    pub fn cost_plan(&self, plan: &Plan) -> Option<PlanCost> {
        let bound = bind(
            plan,
            BindContext {
                catalog: self.catalog,
                query_site: self.query_site,
            },
        )
        .ok()?;
        Some(self.cost_bound(&bound))
    }

    /// Evaluate a bound plan under an objective (lower is better).
    pub fn evaluate_bound(&self, bound: &BoundPlan, objective: Objective) -> f64 {
        self.cost_bound(bound).get(objective)
    }

    /// Bind `plan` and evaluate it under an objective; `None` when
    /// binding fails.
    pub fn evaluate_plan(&self, plan: &Plan, objective: Objective) -> Option<f64> {
        Some(self.cost_plan(plan)?.get(objective))
    }

    /// The query this model prices.
    pub fn query(&self) -> &'a QuerySpec {
        self.query
    }

    /// The catalog this model prices against.
    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    /// The system parameters this model prices with.
    pub fn config(&self) -> &'a SystemConfig {
        self.config
    }

    /// The site queries are submitted (and displayed) at.
    pub fn query_site(&self) -> SiteId {
        self.query_site
    }

    /// Full usage vector of a bound plan.
    pub fn usage(&self, bound: &BoundPlan) -> ResourceUsage {
        self.node_cost(bound, bound.plan.root()).usage
    }

    /// The `(tuples, pages)` estimates memoized so far, by relation set
    /// in ascending bit order. Exposed so tests can check every entry
    /// against a direct [`Estimator`] read.
    pub fn memoized_sizes(&self) -> Vec<(RelSet, f64, f64)> {
        let memo = self.memo.borrow();
        memo.sizes
            .iter()
            .map(|(&bits, &(t, p))| (RelSet(bits), t, p))
            .collect()
    }

    /// The hybrid-hash layouts memoized so far, by inner page count.
    /// Exposed so tests can check every entry against a direct
    /// [`hybrid_hash_plan`] call.
    pub fn memoized_hash_plans(&self) -> Vec<(u64, HashPlan)> {
        let memo = self.memo.borrow();
        memo.hash_plans
            .iter()
            .map(|(&pages, hp)| (pages, hp.clone()))
            .collect()
    }

    /// Estimated `(tuples, pages)` of the sub-result over `rels`.
    fn sizes(&self, rels: RelSet) -> (f64, f64) {
        let hit = self.memo.borrow().sizes.get(&rels.0).copied();
        if let Some(sizes) = hit {
            return sizes;
        }
        let sizes = (self.est.tuples(rels), self.est.pages(rels));
        self.memo.borrow_mut().sizes.insert(rels.0, sizes);
        sizes
    }

    /// Hybrid-hash layout of a join over an `in_pages`-page inner, with
    /// the buffer grant of the configured allocation policy. The key is
    /// `⌈in_pages⌉` saturated to `u64`; the planner's input is that key
    /// floored at one page, which equals the saturated `max(⌈in_pages⌉,
    /// 1)` for every float, NaN and infinities included.
    fn hash_plan(&self, in_pages: f64) -> HashPlan {
        let inner = sat_u64(in_pages.ceil());
        let hit = self.memo.borrow().hash_plans.get(&inner).cloned();
        if let Some(hp) = hit {
            return hp;
        }
        let mem = join_memory(self.config, inner);
        let hp = hybrid_hash_plan(inner.max(1), mem, self.config.fudge);
        self.memo.borrow_mut().hash_plans.insert(inner, hp.clone());
        hp
    }

    /// Seconds of disk time at `site` for `pages` at `per_page_ms`,
    /// inflated by the site's external load.
    fn disk_secs(&self, site: SiteId, pages: f64, per_page_ms: f64) -> f64 {
        let inflate = 1.0 / (1.0 - self.disk_load[site.index()]);
        pages * per_page_ms * 1e-3 * inflate
    }

    /// Charge a pipelined transfer of `pages` data pages from `from` to
    /// `to` (no charge when co-located).
    fn transfer(&self, u: &mut ResourceUsage, from: SiteId, to: SiteId, pages: f64) {
        if from == to || pages <= 0.0 {
            return;
        }
        let page = self.config.page_size as u64;
        u.pages_sent += pages;
        u.net_wire += pages * self.config.wire_secs(page);
        let cpu = self.config.cpu_secs(self.config.msg_cpu_instr(page));
        u.add_cpu(from, pages * cpu);
        u.add_cpu(to, pages * cpu);
    }

    /// Cost the subtree under `id` in one bottom-up pass. Besides usage
    /// and timing, each node reports its relation set and output size, so
    /// its consumer reads them instead of re-walking the subtree: scans
    /// emit the raw relation, aggregates `min(groups, input)` tuples, and
    /// every other operator the estimator's size for its relation set.
    // `expect("arity")` is an invariant, not an error path: costing only
    // sees plans inside a `BoundPlan`, and `bind` rejects missing inputs
    // as `BindError::Malformed` before one can exist.
    #[allow(clippy::expect_used)]
    fn node_cost(&self, bound: &BoundPlan, id: NodeId) -> NodeCost {
        let plan = &bound.plan;
        let n = plan.node(id);
        let site = bound.site(id);
        let cfg = self.config;
        let mut u = ResourceUsage::zero(self.num_sites());
        let mut pre = 0.0f64;
        // Every arm assigns `stream`; the compiler cannot see that.
        #[allow(unused_assignments)]
        let mut stream = 0.0f64;

        let (rels, (tuples, pages)) = match n.op {
            LogicalOp::Scan { rel } => {
                let r = &self.query.relations[rel.index()];
                let pages = r.pages(cfg.page_size) as f64;
                let primary = self.catalog.primary_site(rel);
                if site == primary {
                    // Local sequential scan at the server.
                    u.add_disk(site, self.disk_secs(site, pages, cfg.disk_seq_page_ms));
                    u.add_cpu(site, pages * cfg.cpu_secs(cfg.disk_inst));
                    stream = self.disk_secs(site, pages, cfg.disk_seq_page_ms);
                } else {
                    // Client-site scan: cached prefix from the client
                    // disk, the rest faulted in page-at-a-time (§2.1).
                    let cached = self.catalog.cached_pages(rel, sat_u64(pages)) as f64;
                    let faulted = pages - cached;
                    u.add_disk(site, self.disk_secs(site, cached, cfg.disk_seq_page_ms));
                    u.add_cpu(site, cached * cfg.cpu_secs(cfg.disk_inst));
                    stream = self.disk_secs(site, cached, cfg.disk_seq_page_ms);
                    if faulted > 0.0 {
                        let page = cfg.page_size as u64;
                        u.add_disk(
                            primary,
                            self.disk_secs(primary, faulted, cfg.disk_seq_page_ms),
                        );
                        u.add_cpu(primary, faulted * cfg.cpu_secs(cfg.disk_inst));
                        // Request up, page reply down.
                        let req_cpu = cfg.cpu_secs(cfg.msg_cpu_instr(CONTROL_MSG_BYTES));
                        let rep_cpu = cfg.cpu_secs(cfg.msg_cpu_instr(page));
                        u.add_cpu(site, faulted * (req_cpu + rep_cpu));
                        u.add_cpu(primary, faulted * (req_cpu + rep_cpu));
                        u.net_wire +=
                            faulted * (cfg.wire_secs(CONTROL_MSG_BYTES) + cfg.wire_secs(page));
                        u.pages_sent += faulted;
                        // The fault RPC is synchronous page-at-a-time
                        // (§4.2.3): disk, wire and CPU legs serialize
                        // rather than overlap.
                        let round_trip = self.disk_secs(primary, 1.0, cfg.disk_seq_page_ms)
                            + cfg.wire_secs(CONTROL_MSG_BYTES)
                            + cfg.wire_secs(page)
                            + 2.0 * (req_cpu + rep_cpu);
                        stream += faulted * round_trip;
                    }
                }
                (RelSet::single(rel), (r.tuples as f64, pages))
            }
            LogicalOp::Select { rel } => {
                let child = n.children[0].expect("arity");
                let c = self.node_cost(bound, child);
                let (in_tuples, in_pages) = (c.tuples, c.pages);
                self.transfer(&mut u, bound.site(child), site, in_pages);
                let cmp = in_tuples * cfg.cpu_secs(cfg.compare_inst);
                u.add_cpu(site, cmp);
                // Copy surviving tuples into output pages.
                let out_tuples = in_tuples * self.query.selection[rel.index()];
                let mv = out_tuples
                    * cfg.cpu_secs(cfg.move_tuple_instr(self.est.tuple_bytes(RelSet::EMPTY)));
                u.add_cpu(site, mv);
                pre = c.pre;
                // The select streams with its input; its CPU overlaps the
                // input's I/O unless it dominates.
                stream = c.stream.max(cmp + mv);
                u.merge(&c.usage);
                let rels = RelSet::single(rel).union(c.rels);
                (rels, self.sizes(rels))
            }
            LogicalOp::Join => {
                let (ci, co) = (n.children[0].expect("arity"), n.children[1].expect("arity"));
                let inner = self.node_cost(bound, ci);
                let outer = self.node_cost(bound, co);
                let (in_tuples, in_pages) = (inner.tuples, inner.pages);
                let (out_tuples_probe, out_pages_probe) = (outer.tuples, outer.pages);
                self.transfer(&mut u, bound.site(ci), site, in_pages);
                self.transfer(&mut u, bound.site(co), site, out_pages_probe);
                let rels = inner.rels.union(outer.rels);
                let (res_tuples, res_pages) = self.sizes(rels);

                let tuple_bytes = self.est.tuple_bytes(RelSet::EMPTY);
                let move_cpu = cfg.cpu_secs(cfg.move_tuple_instr(tuple_bytes));
                let hash_cpu = cfg.cpu_secs(cfg.hash_inst);
                let cmp_cpu = cfg.cpu_secs(cfg.compare_inst);

                // Build + probe CPU.
                let build_cpu = in_tuples * (hash_cpu + move_cpu);
                u.add_cpu(site, build_cpu);
                let probe_cpu = out_tuples_probe * (hash_cpu + cmp_cpu) + res_tuples * move_cpu;
                u.add_cpu(site, probe_cpu);

                // Hybrid-hash spill I/O (Shapiro, §3.2.2).
                let hp = self.hash_plan(in_pages);
                let mut partition_serial = 0.0;
                if hp.spill_partitions > 0 {
                    let spill_frac = hp.spilled_inner_pages as f64 / in_pages.max(1.0);
                    let spilled = spill_frac * (in_pages + out_pages_probe);
                    // Writes land scattered across partitions (near-random);
                    // re-reads stream within a partition (near-sequential).
                    u.add_disk(site, self.disk_secs(site, spilled, cfg.disk_rand_page_ms));
                    u.add_disk(site, self.disk_secs(site, spilled, cfg.disk_seq_page_ms));
                    u.add_cpu(site, 2.0 * spilled * cfg.cpu_secs(cfg.disk_inst));
                    // The partition-join phase re-reads both sides with
                    // synchronous page reads after the probe finishes.
                    partition_serial = self.disk_secs(site, spilled, cfg.disk_seq_page_ms);
                }

                // Critical path: the build consumes the whole inner before
                // the first probe output; the outer's own pre-work
                // overlaps the build phase.
                pre = (inner.pre + inner.stream.max(build_cpu)).max(outer.pre);
                stream = outer.stream.max(probe_cpu) + partition_serial;
                u.merge(&inner.usage);
                u.merge(&outer.usage);
                (rels, (res_tuples, res_pages))
            }
            LogicalOp::Aggregate { groups } => {
                let child = n.children[0].expect("arity");
                let c = self.node_cost(bound, child);
                let (in_tuples, in_pages) = (c.tuples, c.pages);
                self.transfer(&mut u, bound.site(child), site, in_pages);
                // Hash-based grouping: hash every input tuple, move every
                // output group tuple.
                let out_tuples = (groups as f64).min(in_tuples);
                let tuple_bytes = self.est.tuple_bytes(RelSet::EMPTY);
                let agg_cpu = in_tuples * cfg.cpu_secs(cfg.hash_inst)
                    + out_tuples * cfg.cpu_secs(cfg.move_tuple_instr(tuple_bytes));
                u.add_cpu(site, agg_cpu);
                // Blocking: the aggregate consumes its whole input before
                // emitting anything.
                pre = c.pre + c.stream.max(agg_cpu);
                stream = 0.0;
                u.merge(&c.usage);
                let per_page = (cfg.page_size / tuple_bytes) as f64;
                (c.rels, (out_tuples, (out_tuples / per_page).ceil()))
            }
            LogicalOp::Display => {
                let child = n.children[0].expect("arity");
                let c = self.node_cost(bound, child);
                self.transfer(&mut u, bound.site(child), site, c.pages);
                let disp = c.tuples * cfg.cpu_secs(cfg.display_inst);
                u.add_cpu(site, disp);
                pre = c.pre;
                stream = c.stream.max(disp);
                u.merge(&c.usage);
                // The root has no consumer; it passes its input through.
                (c.rels, (c.tuples, c.pages))
            }
        };

        NodeCost {
            usage: u,
            pre,
            stream,
            rels,
            tuples,
            pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{BufAlloc, JoinEdge, RelId, Relation};
    use csqp_core::{Annotation, JoinTree};

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

    fn one_server_catalog() -> Catalog {
        let mut c = Catalog::new(1);
        c.place(RelId(0), SiteId::server(1));
        c.place(RelId(1), SiteId::server(1));
        c
    }

    fn bind_plan(plan: &Plan, cat: &Catalog) -> BoundPlan {
        bind(
            plan,
            BindContext {
                catalog: cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap()
    }

    fn ds_plan(q: &QuerySpec) -> Plan {
        JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            q,
            Annotation::Consumer,
            Annotation::Client,
        )
    }

    fn qs_plan(q: &QuerySpec) -> Plan {
        JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        )
    }

    /// Fig 2 end points: QS ships only the 250-page result; DS with an
    /// empty cache faults in both 250-page relations.
    #[test]
    fn two_way_communication_endpoints() {
        let q = chain(2);
        let cat = one_server_catalog();
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);

        let qs = bind_plan(&qs_plan(&q), &cat);
        assert_eq!(model.evaluate_bound(&qs, Objective::Communication), 250.0);

        let ds = bind_plan(&ds_plan(&q), &cat);
        assert_eq!(model.evaluate_bound(&ds, Objective::Communication), 500.0);
    }

    #[test]
    fn caching_reduces_ds_communication_linearly() {
        let q = chain(2);
        let mut cat = one_server_catalog();
        let cfg = SystemConfig::default();
        cat.set_cached_fraction(RelId(0), 0.5);
        cat.set_cached_fraction(RelId(1), 0.5);
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let ds = bind_plan(&ds_plan(&q), &cat);
        assert_eq!(model.evaluate_bound(&ds, Objective::Communication), 250.0);
        let qs = bind_plan(&qs_plan(&q), &cat);
        assert_eq!(
            model.evaluate_bound(&qs, Objective::Communication),
            250.0,
            "QS ignores the cache"
        );
    }

    #[test]
    fn max_allocation_has_no_spill_io() {
        let q = chain(2);
        let cat = one_server_catalog();
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let qs = bind_plan(&qs_plan(&q), &cat);
        let u = model.usage(&qs);
        // Only the two base scans touch the server disk.
        let server_disk = u.disk[1];
        let scan_only = 500.0 * cfg.disk_seq_page_ms * 1e-3;
        assert!(
            (server_disk - scan_only).abs() < 1e-9,
            "disk {server_disk} vs scans {scan_only}"
        );
    }

    #[test]
    fn min_allocation_adds_spill_io() {
        let q = chain(2);
        let cat = one_server_catalog();
        let cfg = SystemConfig::default();
        assert_eq!(cfg.buf_alloc, BufAlloc::Min);
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let qs = bind_plan(&qs_plan(&q), &cat);
        let u = model.usage(&qs);
        let scan_only = 500.0 * cfg.disk_seq_page_ms * 1e-3;
        assert!(
            u.disk[1] > scan_only * 2.0,
            "spill I/O should dominate: {} vs {scan_only}",
            u.disk[1]
        );
    }

    #[test]
    fn response_time_is_at_most_total_cost() {
        let q = chain(2);
        let cat = one_server_catalog();
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        for plan in [ds_plan(&q), qs_plan(&q)] {
            let b = bind_plan(&plan, &cat);
            let rt = model.evaluate_bound(&b, Objective::ResponseTime);
            let tc = model.evaluate_bound(&b, Objective::TotalCost);
            assert!(rt <= tc + 1e-12, "rt {rt} > total {tc} for {plan}");
            assert!(rt > 0.0);
        }
    }

    #[test]
    fn server_load_inflates_qs_but_not_ds_disk_time() {
        let q = chain(2);
        let cat = one_server_catalog();
        let cfg = SystemConfig::default();
        let base = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let loaded =
            CostModel::new(&cfg, &cat, &q, SiteId::CLIENT).with_disk_load(SiteId::server(1), 0.75);

        let qs = bind_plan(&qs_plan(&q), &cat);
        let rt0 = base.evaluate_bound(&qs, Objective::ResponseTime);
        let rt1 = loaded.evaluate_bound(&qs, Objective::ResponseTime);
        assert!(
            rt1 > 2.0 * rt0,
            "QS should blow up under load: {rt0} -> {rt1}"
        );

        // DS with a full cache never touches the server disk.
        let mut cat_cached = one_server_catalog();
        cat_cached.set_cached_fraction(RelId(0), 1.0);
        cat_cached.set_cached_fraction(RelId(1), 1.0);
        let base_c = CostModel::new(&cfg, &cat_cached, &q, SiteId::CLIENT);
        let loaded_c = CostModel::new(&cfg, &cat_cached, &q, SiteId::CLIENT)
            .with_disk_load(SiteId::server(1), 0.75);
        let ds = bind_plan(&ds_plan(&q), &cat_cached);
        let a = base_c.evaluate_bound(&ds, Objective::ResponseTime);
        let b = loaded_c.evaluate_bound(&ds, Objective::ResponseTime);
        assert!((a - b).abs() < 1e-12, "fully-cached DS unaffected by load");
    }

    #[test]
    fn cyclic_plan_evaluates_to_none() {
        let q = chain(3);
        let mut cat = Catalog::new(1);
        for i in 0..3 {
            cat.place(RelId(i), SiteId::server(1));
        }
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let mut plan = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        let joins = plan.join_nodes();
        plan.node_mut(joins[1]).ann = Annotation::InnerRel;
        assert!(model
            .evaluate_plan(&plan, Objective::ResponseTime)
            .is_none());
    }

    #[test]
    fn selection_cpu_is_charged() {
        let q = chain(2).with_selection(RelId(0), 0.1);
        let cat = one_server_catalog();
        let cfg = SystemConfig::default();
        let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        );
        let b = bind_plan(&plan, &cat);
        let u = model.usage(&b);
        assert!(u.cpu[1] > 0.0);
        // Selection shrinks the inner: less spill I/O than unselected.
        let q2 = chain(2);
        let model2 = CostModel::new(&cfg, &cat, &q2, SiteId::CLIENT);
        let plan2 = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q2,
            Annotation::InnerRel,
            Annotation::PrimaryCopy,
        );
        let b2 = bind_plan(&plan2, &cat);
        assert!(model.usage(&b).disk[1] < model2.usage(&b2).disk[1]);
    }
}
