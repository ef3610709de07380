//! Assembling an executable process graph from a bound plan.
//!
//! Walks the plan bottom-up, creating one process per operator and one
//! channel per plan edge (remote channels — the paper's network operator
//! pairs — wherever producer and consumer sites differ), allocating disk
//! extents for base relations, cached prefixes and join spill partitions,
//! and attaching the external-load generators. Then runs the kernel and
//! collects [`ExecutionMetrics`].

use std::cell::Cell;
use std::rc::Rc;

use csqp_catalog::{
    hybrid_hash_plan, join_memory, Catalog, Estimator, QuerySpec, SiteId, SystemConfig,
};
use csqp_core::{BoundPlan, LogicalOp, NodeId};
use csqp_disk::DiskParams;
use csqp_net::CONTROL_MSG_BYTES;
use csqp_simkernel::rng::SimRng;

use crate::kernel::Engine;
use crate::layout::Layout;
use crate::metrics::{ExecutionMetrics, MultiQueryMetrics, QueryOutcome};
use crate::ops::display::DisplayProc;
use crate::ops::join::{JoinCosts, JoinProc};
use crate::ops::loadgen::LoadGenProc;
use crate::ops::scan::{ScanCosts, ScanProc};
use crate::ops::select::SelectProc;
use crate::process::ChannelId;

/// External random-read load on one server's disk (§3.2.2).
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    /// The loaded site.
    pub site: SiteId,
    /// Request rate in reads per second.
    pub rate_per_sec: f64,
}

/// Builds and runs one query execution.
///
/// ```
/// use csqp_catalog::{BufAlloc, Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
/// use csqp_core::{bind, Annotation, BindContext, JoinTree};
/// use csqp_engine::ExecutionBuilder;
///
/// let query = QuerySpec::new(
///     vec![Relation::benchmark(RelId(0), "A"), Relation::benchmark(RelId(1), "B")],
///     vec![JoinEdge { a: RelId(0), b: RelId(1), selectivity: 1e-4 }],
/// );
/// let mut catalog = Catalog::new(1);
/// catalog.place(RelId(0), SiteId::server(1));
/// catalog.place(RelId(1), SiteId::server(1));
/// let mut sys = SystemConfig::default();
/// sys.buf_alloc = BufAlloc::Max;
///
/// let plan = JoinTree::left_deep(&[RelId(0), RelId(1)])
///     .into_plan(&query, Annotation::InnerRel, Annotation::PrimaryCopy);
/// let bound = bind(&plan, BindContext { catalog: &catalog, query_site: SiteId::CLIENT })
///     .unwrap();
/// let metrics = ExecutionBuilder::new(&query, &catalog, &sys).execute(&bound);
/// assert_eq!(metrics.pages_sent, 250);
/// assert_eq!(metrics.result_tuples, 10_000);
/// ```
pub struct ExecutionBuilder<'a> {
    query: &'a QuerySpec,
    catalog: &'a Catalog,
    config: &'a SystemConfig,
    disk_params: DiskParams,
    loads: Vec<ServerLoad>,
    seed: u64,
}

impl<'a> ExecutionBuilder<'a> {
    /// A builder with default disk parameters, no external load, seed 0.
    pub fn new(
        query: &'a QuerySpec,
        catalog: &'a Catalog,
        config: &'a SystemConfig,
    ) -> ExecutionBuilder<'a> {
        ExecutionBuilder {
            query,
            catalog,
            config,
            disk_params: DiskParams::default(),
            loads: Vec::new(),
            seed: 0,
        }
    }

    /// Add external load on a server disk.
    pub fn with_load(mut self, site: SiteId, rate_per_sec: f64) -> Self {
        if rate_per_sec > 0.0 {
            self.loads.push(ServerLoad { site, rate_per_sec });
        }
        self
    }

    /// Seed for the load generators (the query itself is deterministic).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Simulate a navigational-access session against one relation (§7
    /// future work): `steps` page touches at the client with the given
    /// reference locality. Returns full metrics; `response_time` is the
    /// traversal's elapsed time.
    // Invariant panic: the layout allocates a cache extent for every
    // relation the catalog reports cached pages for.
    #[allow(clippy::expect_used)]
    pub fn navigate(
        &self,
        rel: csqp_catalog::RelId,
        steps: u64,
        locality: f64,
    ) -> ExecutionMetrics {
        let num_sites = self.catalog.num_servers() as usize + 1;
        let capacity = self.disk_params.geometry.capacity_pages();
        let layout = Layout::new(self.query, self.catalog, self.config, capacity);
        let mut engine = Engine::new(self.config.clone(), &self.disk_params, num_sites);
        let cfg = self.config;
        let r = &self.query.relations[rel.index()];
        let pages = r.pages(cfg.page_size);
        let server = self.catalog.primary_site(rel);
        let cached = self.catalog.cached_pages(rel, pages);
        let costs = crate::ops::scan::ScanCosts {
            disk_inst: cfg.disk_inst,
            control_msg_instr: cfg.msg_cpu_instr(CONTROL_MSG_BYTES),
            page_msg_instr: cfg.msg_cpu_instr(cfg.page_size as u64),
            control_bytes: CONTROL_MSG_BYTES,
            page_bytes: cfg.page_size as u64,
        };
        let mut rng = SimRng::seed_from_u64(self.seed);
        engine.add_display_proc(Box::new(crate::ops::navigate::NavigatorProc::new(
            SiteId::CLIENT,
            server,
            layout.relation(rel),
            (cached > 0).then(|| layout.cache(rel).expect("cache extent")),
            cached,
            pages,
            steps,
            locality,
            costs,
            rng.derive(99),
        )));
        for load in &self.loads {
            engine.add_proc(Box::new(LoadGenProc::new(
                load.site,
                load.rate_per_sec,
                capacity,
                rng.derive(load.site.0 as u64 + 1),
            )));
        }
        let response_time = engine.run();
        let wire = engine.link_stats();
        let operators = engine.proc_reports();
        ExecutionMetrics {
            response_time,
            pages_sent: wire.data_pages_sent,
            control_msgs: wire.control_msgs_sent,
            bytes_sent: wire.bytes_sent,
            link_utilization: engine.link_utilization(),
            disk: (0..num_sites)
                .map(|s| engine.disk_stats(SiteId(s as u32)))
                .collect(),
            cpu_busy: (0..num_sites)
                .map(|s| engine.cpu_busy(SiteId(s as u32)))
                .collect(),
            result_tuples: 0,
            events_handled: engine.events_handled(),
            operators,
        }
    }

    /// Simulate the execution of `bound` and return its metrics.
    pub fn execute(&self, bound: &BoundPlan) -> ExecutionMetrics {
        let multi = self.execute_many(std::slice::from_ref(bound));
        let q = &multi.per_query[0];
        ExecutionMetrics {
            response_time: q.response_time,
            pages_sent: multi.pages_sent,
            control_msgs: multi.control_msgs,
            bytes_sent: multi.bytes_sent,
            link_utilization: multi.link_utilization,
            disk: multi.disk,
            cpu_busy: multi.cpu_busy,
            result_tuples: q.result_tuples,
            events_handled: multi.events_handled,
            operators: multi.operators,
        }
    }

    /// Simulate several queries *concurrently* over the same database —
    /// the multi-query workloads the paper lists as future work (§7).
    /// All plans share the relations, caches, disks, CPUs and the wire;
    /// each gets its own operator processes and join temp space.
    // Invariant panics: every plan is structurally validated at the top
    // of this function, so the display root has its input; and the engine
    // records a finish time for every display process before returning.
    #[allow(clippy::expect_used)]
    pub fn execute_many(&self, bounds: &[BoundPlan]) -> MultiQueryMetrics {
        assert!(!bounds.is_empty(), "need at least one query");
        for b in bounds {
            if let Err(d) = b.plan.validate_structure(self.query) {
                panic!("refusing to execute a structurally invalid plan: {d}");
            }
            // Plan-bind boundary hook: in debug builds, run the full
            // static analyzer (structure, well-formedness, cost-model
            // invariants) before committing simulator time to the plan.
            #[cfg(debug_assertions)]
            {
                let client = b.site(b.plan.root());
                let report =
                    csqp_verify::Checker::new(self.query, self.catalog, self.config, client)
                        .check(&b.plan);
                debug_assert!(
                    report.is_clean(),
                    "plan failed static verification at the bind boundary:\n{report}"
                );
            }
        }
        let num_sites = self.catalog.num_servers() as usize + 1;
        let capacity = self.disk_params.geometry.capacity_pages();
        let mut layout = Layout::new(self.query, self.catalog, self.config, capacity);
        let mut engine = Engine::new(self.config.clone(), &self.disk_params, num_sites);
        let est = Estimator::new(self.query, self.config);

        let mut counters = Vec::with_capacity(bounds.len());
        for bound in bounds {
            let root = bound.plan.root();
            let child = bound.plan.node(root).children[0].expect("display arity");
            let client = bound.site(root);
            let into_display =
                self.build_node(&mut engine, &mut layout, &est, bound, child, client);
            let tuples_seen = Rc::new(Cell::new(0u64));
            engine.add_display_proc(Box::new(DisplayProc::new(
                client,
                into_display,
                self.config.display_inst,
                Rc::clone(&tuples_seen),
            )));
            counters.push(tuples_seen);
        }

        let mut rng = SimRng::seed_from_u64(self.seed);
        for load in &self.loads {
            engine.add_proc(Box::new(LoadGenProc::new(
                load.site,
                load.rate_per_sec,
                capacity,
                rng.derive(load.site.0 as u64 + 1),
            )));
        }

        let makespan = engine.run();
        let finish = engine.display_finish_times();
        let wire = engine.link_stats();
        let operators = engine.proc_reports();
        MultiQueryMetrics {
            per_query: counters
                .iter()
                .zip(&finish)
                .map(|(seen, t)| QueryOutcome {
                    response_time: t.expect("run completed"),
                    result_tuples: seen.get(),
                })
                .collect(),
            makespan,
            pages_sent: wire.data_pages_sent,
            control_msgs: wire.control_msgs_sent,
            bytes_sent: wire.bytes_sent,
            link_utilization: engine.link_utilization(),
            disk: (0..num_sites)
                .map(|s| engine.disk_stats(SiteId(s as u32)))
                .collect(),
            cpu_busy: (0..num_sites)
                .map(|s| engine.cpu_busy(SiteId(s as u32)))
                .collect(),
            events_handled: engine.events_handled(),
            operators,
        }
    }

    /// Output size of a node: scans emit the raw relation, everything
    /// else the estimator's size for its relation set (matches the cost
    /// model's convention).
    // Invariant panic: only structurally validated plans reach here, so
    // every child slot demanded by an operator's arity is occupied.
    #[allow(clippy::expect_used)]
    fn output_stats(&self, est: &Estimator<'_>, bound: &BoundPlan, id: NodeId) -> (u64, u64) {
        match bound.plan.node(id).op {
            LogicalOp::Scan { rel } => {
                let r = &self.query.relations[rel.index()];
                (r.tuples, r.pages(self.config.page_size))
            }
            LogicalOp::Aggregate { groups } => {
                let child = bound.plan.node(id).children[0].expect("arity");
                let (in_tuples, _) = self.output_stats(est, bound, child);
                let t = groups.min(in_tuples);
                let per_page = self.tuples_per_page();
                (t, t.div_ceil(per_page))
            }
            _ => {
                let rels = bound.plan.rel_set(id);
                (est.tuples_int(rels), est.pages_int(rels))
            }
        }
    }

    // Modeling assumption, as in `Estimator::tuple_bytes`: the benchmark
    // schema is uniform-width.
    #[allow(clippy::expect_used)]
    fn tuples_per_page(&self) -> u64 {
        let width = self
            .query
            .uniform_tuple_bytes()
            .expect("benchmark queries have uniform tuple width");
        (self.config.page_size / width) as u64
    }

    /// Create the process for `id` and the channel carrying its output
    /// towards `parent_site`; returns that channel.
    // Invariant panics: plans are structurally validated before building
    // (arity slots occupied), the schema is uniform-width, and the layout
    // has an extent wherever the catalog reports cached pages.
    #[allow(clippy::expect_used)]
    fn build_node(
        &self,
        engine: &mut Engine,
        layout: &mut Layout,
        est: &Estimator<'_>,
        bound: &BoundPlan,
        id: NodeId,
        parent_site: SiteId,
    ) -> ChannelId {
        let cfg = self.config;
        let node = bound.plan.node(id).clone();
        let site = bound.site(id);
        let out = engine.add_channel(site, parent_site);
        match node.op {
            LogicalOp::Scan { rel } => {
                let r = &self.query.relations[rel.index()];
                let pages = r.pages(cfg.page_size);
                let server = self.catalog.primary_site(rel);
                let cached = if site == server {
                    0
                } else {
                    self.catalog.cached_pages(rel, pages)
                };
                let costs = ScanCosts {
                    disk_inst: cfg.disk_inst,
                    control_msg_instr: cfg.msg_cpu_instr(CONTROL_MSG_BYTES),
                    page_msg_instr: cfg.msg_cpu_instr(cfg.page_size as u64),
                    control_bytes: CONTROL_MSG_BYTES,
                    page_bytes: cfg.page_size as u64,
                };
                let cache_extent = (cached > 0).then(|| {
                    layout
                        .cache(rel)
                        .expect("catalog reported cached pages without an extent")
                });
                engine.add_proc(Box::new(ScanProc::new(
                    rel,
                    site,
                    server,
                    layout.relation(rel),
                    cache_extent,
                    cached,
                    pages,
                    r.tuples,
                    r.tuples_per_page(cfg.page_size),
                    out,
                    costs,
                )));
            }
            LogicalOp::Select { rel } => {
                let child = node.children[0].expect("arity");
                let input = self.build_node(engine, layout, est, bound, child, site);
                engine.add_proc(Box::new(SelectProc::new(
                    site,
                    input,
                    out,
                    self.query.selection[rel.index()],
                    self.tuples_per_page(),
                    cfg.compare_inst,
                    cfg.move_tuple_instr(self.query.uniform_tuple_bytes().expect("uniform width")),
                    format!("select {rel}@{site}"),
                )));
            }
            LogicalOp::Join => {
                let ci = node.children[0].expect("arity");
                let co = node.children[1].expect("arity");
                let inner = self.build_node(engine, layout, est, bound, ci, site);
                let outer = self.build_node(engine, layout, est, bound, co, site);

                let (inner_tuples, inner_pages) = self.output_stats(est, bound, ci);
                let (outer_tuples, outer_pages) = self.output_stats(est, bound, co);
                let _ = inner_tuples;
                let (result_tuples, _) = {
                    let rels = bound.plan.rel_set(id);
                    (est.tuples_int(rels), ())
                };
                let out_ratio = if outer_tuples == 0 {
                    0.0
                } else {
                    result_tuples as f64 / outer_tuples as f64
                };

                let mem = join_memory(cfg, inner_pages);
                let hp = hybrid_hash_plan(inner_pages.max(1), mem, cfg.fudge);
                let (resident_frac, inner_ext, outer_ext) = if hp.spill_partitions == 0 {
                    (1.0, Vec::new(), Vec::new())
                } else {
                    let frac = hp.resident_inner_pages as f64 / inner_pages.max(1) as f64;
                    let b = hp.spill_partitions;
                    let inner_part = hp.partition_pages * 2 + 4;
                    let outer_spill = ((outer_pages as f64) * (1.0 - frac)).ceil() as u64;
                    let outer_part = outer_spill.div_ceil(b) * 2 + 4;
                    let inner_ext = (0..b)
                        .map(|_| layout.alloc_temp(site, inner_part))
                        .collect();
                    let outer_ext = (0..b)
                        .map(|_| layout.alloc_temp(site, outer_part))
                        .collect();
                    (frac, inner_ext, outer_ext)
                };

                let costs = JoinCosts {
                    hash_inst: cfg.hash_inst,
                    compare_inst: cfg.compare_inst,
                    move_tuple_instr: cfg
                        .move_tuple_instr(self.query.uniform_tuple_bytes().expect("uniform")),
                    disk_inst: cfg.disk_inst,
                    tuples_per_page: self.tuples_per_page(),
                };
                engine.add_proc(Box::new(JoinProc::new(
                    site,
                    inner,
                    outer,
                    out,
                    costs,
                    resident_frac,
                    out_ratio,
                    inner_ext,
                    outer_ext,
                    format!("join@{site}"),
                )));
            }
            LogicalOp::Aggregate { groups } => {
                let child = node.children[0].expect("arity");
                let input = self.build_node(engine, layout, est, bound, child, site);
                engine.add_proc(Box::new(crate::ops::aggregate::AggregateProc::new(
                    site,
                    input,
                    out,
                    groups,
                    self.tuples_per_page(),
                    cfg.hash_inst,
                    cfg.move_tuple_instr(self.query.uniform_tuple_bytes().expect("uniform width")),
                )));
            }
            LogicalOp::Display => unreachable!("display handled by execute()"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{BufAlloc, JoinEdge, RelId, Relation};
    use csqp_core::{bind, Annotation, BindContext, JoinTree};

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

    fn one_server(cache: f64) -> Catalog {
        let mut c = Catalog::new(1);
        c.place(RelId(0), SiteId::server(1));
        c.place(RelId(1), SiteId::server(1));
        if cache > 0.0 {
            c.set_cached_fraction(RelId(0), cache);
            c.set_cached_fraction(RelId(1), cache);
        }
        c
    }

    fn bound(q: &QuerySpec, cat: &Catalog, jann: Annotation, sann: Annotation) -> BoundPlan {
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(q, jann, sann);
        bind(
            &plan,
            BindContext {
                catalog: cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap()
    }

    #[test]
    fn qs_two_way_ships_result_only() {
        let q = chain(2);
        let cat = one_server(0.0);
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let b = bound(&q, &cat, Annotation::InnerRel, Annotation::PrimaryCopy);
        let m = ExecutionBuilder::new(&q, &cat, &cfg).execute(&b);
        assert_eq!(m.pages_sent, 250, "QS ships exactly the result");
        assert_eq!(m.result_tuples, 10_000);
        let rt = m.response_secs();
        assert!((1.0..6.0).contains(&rt), "QS max-alloc response time {rt}");
        // Client disk untouched.
        assert_eq!(m.disk[0].reads + m.disk[0].writes, 0);
        // Server read both relations sequentially.
        assert_eq!(m.disk[1].reads, 500);
    }

    #[test]
    fn ds_two_way_faults_both_relations() {
        let q = chain(2);
        let cat = one_server(0.0);
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let b = bound(&q, &cat, Annotation::Consumer, Annotation::Client);
        let m = ExecutionBuilder::new(&q, &cat, &cfg).execute(&b);
        assert_eq!(m.pages_sent, 500, "DS faults in both relations");
        assert_eq!(m.control_msgs, 500, "one fault request per page");
        assert_eq!(m.result_tuples, 10_000);
        // No result shipping: join and display are both at the client.
        assert_eq!(m.disk[1].reads, 500);
    }

    #[test]
    fn ds_fully_cached_ships_nothing() {
        let q = chain(2);
        let cat = one_server(1.0);
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let b = bound(&q, &cat, Annotation::Consumer, Annotation::Client);
        let m = ExecutionBuilder::new(&q, &cat, &cfg).execute(&b);
        assert_eq!(m.pages_sent, 0);
        assert_eq!(m.disk[1].reads + m.disk[1].writes, 0, "server disk idle");
        assert_eq!(m.disk[0].reads, 500, "client reads its cache");
        assert_eq!(m.result_tuples, 10_000);
    }

    #[test]
    fn min_alloc_spills_and_slows_qs() {
        let q = chain(2);
        let cat = one_server(0.0);
        let mut max_cfg = SystemConfig::default();
        max_cfg.buf_alloc = BufAlloc::Max;
        let min_cfg = SystemConfig::default();
        let b = bound(&q, &cat, Annotation::InnerRel, Annotation::PrimaryCopy);
        let fast = ExecutionBuilder::new(&q, &cat, &max_cfg).execute(&b);
        let slow = ExecutionBuilder::new(&q, &cat, &min_cfg).execute(&b);
        assert!(
            slow.disk[1].writes > 400,
            "spill writes: {:?}",
            slow.disk[1]
        );
        assert!(
            slow.response_secs() > 1.5 * fast.response_secs(),
            "min {} vs max {}",
            slow.response_secs(),
            fast.response_secs()
        );
        assert_eq!(slow.result_tuples, 10_000);
    }

    #[test]
    fn execution_is_deterministic() {
        let q = chain(2);
        let cat = one_server(0.5);
        let cfg = SystemConfig::default();
        let b = bound(&q, &cat, Annotation::Consumer, Annotation::Client);
        let m1 = ExecutionBuilder::new(&q, &cat, &cfg)
            .with_seed(7)
            .execute(&b);
        let m2 = ExecutionBuilder::new(&q, &cat, &cfg)
            .with_seed(7)
            .execute(&b);
        assert_eq!(m1.response_time, m2.response_time);
        assert_eq!(m1.pages_sent, m2.pages_sent);
    }

    #[test]
    fn server_load_slows_qs_down() {
        let q = chain(2);
        let cat = one_server(0.0);
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let b = bound(&q, &cat, Annotation::InnerRel, Annotation::PrimaryCopy);
        let idle = ExecutionBuilder::new(&q, &cat, &cfg).execute(&b);
        let loaded = ExecutionBuilder::new(&q, &cat, &cfg)
            .with_load(SiteId::server(1), 60.0)
            .with_seed(3)
            .execute(&b);
        assert!(
            loaded.response_secs() > 1.5 * idle.response_secs(),
            "load must hurt QS: idle {} loaded {}",
            idle.response_secs(),
            loaded.response_secs()
        );
    }

    #[test]
    fn hybrid_mixed_plan_executes() {
        // Scan R0 at the server, ship to client, join at client with
        // cached R1 — a genuinely hybrid plan.
        let q = chain(2);
        let mut cat = one_server(0.0);
        cat.set_cached_fraction(RelId(1), 1.0);
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let mut plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::PrimaryCopy,
        );
        let scan_r1 = plan.scan_nodes()[1];
        plan.node_mut(scan_r1).ann = Annotation::Client;
        let b = bind(
            &plan,
            BindContext {
                catalog: &cat,
                query_site: SiteId::CLIENT,
            },
        )
        .unwrap();
        let m = ExecutionBuilder::new(&q, &cat, &cfg).execute(&b);
        // R0 shipped pipelined (250 pages), R1 read from client cache.
        assert_eq!(m.pages_sent, 250);
        assert_eq!(m.disk[0].reads, 250);
        assert_eq!(m.result_tuples, 10_000);
    }

    #[test]
    fn select_filters_and_shrinks_result() {
        let q = chain(2).with_selection(RelId(0), 0.1);
        let cat = one_server(0.0);
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let b = bound(&q, &cat, Annotation::InnerRel, Annotation::PrimaryCopy);
        let m = ExecutionBuilder::new(&q, &cat, &cfg).execute(&b);
        // Result: 0.1 * 10k = 1k tuples = 25 pages.
        assert_eq!(m.result_tuples, 1_000);
        assert_eq!(m.pages_sent, 25);
    }
}
