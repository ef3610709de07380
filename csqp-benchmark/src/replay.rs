//! The in-process replay: the loopback requests run again through
//! `QueryService::handle_query`, and — when traced — through the public
//! function of every layer in the order `handle_query` calls them, with a
//! span around each call.
//!
//! The decomposition mirrors `QueryService::handle_query_ctx` under the
//! benchmark's server configuration (no deadline, no fault plans, no
//! memory budget, so the bounds gate is inert): build → placement →
//! planning → Table-1 lint → simulation. Its record must equal
//! `handle_query`'s byte for byte, which is what keeps the per-layer
//! numbers honest: a decomposition that drifted from the server would
//! fail the run, not skew it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use csqp_catalog::{Catalog, SiteId, SystemConfig};
use csqp_core::{CancelToken, Plan};
use csqp_experiments::runner;
use csqp_memo::{CacheBuckets, MemoConfig, MemoTable};
use csqp_optimizer::{CompileTimeAssumption, MemoOutcome, Optimizer, TwoStepPlanner};
use csqp_serve::proto::{Frame, OptimizerMode, QueryRequest, ResultRecord};
use csqp_serve::QueryService;
use csqp_simkernel::rng::SimRng;

use crate::client::Sample;
use crate::clock;
use crate::server::{server_config, MEMO_BYTES};

/// One timed interval of the replay or of the loopback run.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `optimizer.site_select`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Connection of the request the span belongs to.
    pub conn: u64,
    /// Index of that request within its connection.
    pub index: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Memo outcome, for the memoized planning calls.
    pub memo: Option<MemoOutcome>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Spans are only written out when the
/// benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    conn: u64,
    index: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch`; a non-recording tracer
    /// drops every span.
    pub fn new(epoch: Instant, recording: bool) -> Tracer {
        Tracer {
            epoch,
            recording,
            spans: Vec::new(),
            open: Vec::new(),
            conn: 0,
            index: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Attribute the following spans to request `(conn, index)`.
    pub fn request(&mut self, conn: u64, index: u64) {
        self.conn = conn;
        self.index = index;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.recording {
            return usize::MAX;
        }
        let start_ns = self.ns(clock::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            conn: self.conn,
            index: self.index,
            start_ns,
            end_ns: start_ns,
            memo: None,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the span `begin` returned.
    pub fn end(&mut self, span: usize) {
        let now = self.ns(clock::now());
        if let Some(s) = self.spans.get_mut(span) {
            s.end_ns = now;
            self.open.pop();
        }
    }

    /// Close a planning span, noting how the memo answered.
    pub fn end_memo(&mut self, span: usize, outcome: MemoOutcome) {
        self.end(span);
        if let Some(s) = self.spans.get_mut(span) {
            s.memo = Some(outcome);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let memo = match s.memo {
                Some(MemoOutcome::Hit) => ",\"memo\":\"hit\"",
                Some(MemoOutcome::Miss) => ",\"memo\":\"miss\"",
                Some(MemoOutcome::Bypass) => ",\"memo\":\"bypass\"",
                None => "",
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"conn\":{},\"index\":{},\
                 \"start_ns\":{},\"end_ns\":{}{memo}}}",
                s.name, s.conn, s.index, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Record the loopback samples of one connection's first `keep`
    /// requests as root spans from send to reply.
    pub fn record_loopback(&mut self, conn: u64, samples: &[Sample], keep: u64) {
        if !self.recording {
            return;
        }
        for s in samples.iter().filter(|s| s.index < keep) {
            self.spans.push(Span {
                name: "loopback.request",
                parent: None,
                conn,
                index: s.index,
                start_ns: self.ns(s.sent),
                end_ns: self.ns(s.done),
                memo: None,
            });
        }
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time — duration minus what child spans cover — ns.
    pub self_ns: u64,
}

/// Group spans by name (planning spans also by memo outcome, as
/// `name[hit]` / `name[miss]`) and compute self time. Children of one
/// span never overlap, so the part of a span its children cover is the
/// sum of their durations.
pub fn totals(spans: &[Span]) -> BTreeMap<String, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let key = match s.memo {
            Some(MemoOutcome::Hit) => format!("{}[hit]", s.name),
            Some(MemoOutcome::Miss) => format!("{}[miss]", s.name),
            _ => s.name.to_string(),
        };
        let t = out.entry(key).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// What replaying one request produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The RESULT frame, encoded exactly as the server encodes it.
    pub frame: Vec<u8>,
    /// Simulator events the decomposed run dispatched (0 untraced).
    pub events: u64,
}

/// The replay engine: an in-process service configured like the child
/// server, plus a memo table of its own for the decomposed planning path.
pub struct Replayer {
    service: QueryService,
    memo: MemoTable,
    sys: SystemConfig,
    /// The span recorder.
    pub tracer: Tracer,
}

impl Replayer {
    /// A replayer whose spans share the loopback run's `epoch`.
    pub fn new(epoch: Instant, traced: bool) -> Replayer {
        Replayer {
            service: QueryService::new(server_config()),
            memo: MemoTable::new(MemoConfig {
                max_bytes: MEMO_BYTES,
                ..MemoConfig::default()
            }),
            sys: SystemConfig::default(),
            tracer: Tracer::new(epoch, traced),
        }
    }

    /// Install the warm-up scenarios, as the loopback warm-up did on the
    /// server: two-step planning into the service's memo and, when
    /// traced, into the replay's own. Nothing is simulated or recorded.
    pub fn warm(&self, requests: &[QueryRequest]) -> Result<(), String> {
        let mut quiet = Tracer::new(self.tracer.epoch, false);
        let mut memos = vec![];
        memos.extend(self.service.memo());
        if self.tracer.recording {
            memos.push(&self.memo);
        }
        for req in requests
            .iter()
            .filter(|r| r.optimizer == OptimizerMode::TwoStep)
        {
            let query = req.spec.build();
            for memo in &memos {
                plan_two_step(&self.service, memo, &self.sys, req, &query, &mut quiet)?;
            }
        }
        Ok(())
    }

    /// Replay one QUERY frame. Untraced, this is `handle_query` alone.
    /// Traced, the request also runs decomposed under a `replay` span,
    /// in alternating order with the untraced call so neither always
    /// finds the caches warm, and the two records must match.
    pub fn replay(
        &mut self,
        conn: u64,
        index: u64,
        query_frame: &[u8],
    ) -> Result<Replayed, String> {
        let req = match Frame::decode(query_frame) {
            Ok(Frame::Query(req)) => req,
            _ => return Err("replay input is not a QUERY frame".to_string()),
        };
        let served = |service: &QueryService, tracer: &mut Tracer| {
            let span = tracer.begin("serve.handle_query");
            let outcome = service.handle_query(&req);
            tracer.end(span);
            outcome
                .map(|r| Frame::Result(r).encode())
                .map_err(|e| format!("handle_query failed for {conn}/{index}: {}", e.message))
        };
        self.tracer.request(conn, index);
        if !self.tracer.recording {
            return Ok(Replayed {
                frame: served(&self.service, &mut self.tracer)?,
                events: 0,
            });
        }
        let (expected, (frame, events)) = if index.is_multiple_of(2) {
            let traced = self.decomposed(query_frame)?;
            (served(&self.service, &mut self.tracer)?, traced)
        } else {
            let expected = served(&self.service, &mut self.tracer)?;
            (expected, self.decomposed(query_frame)?)
        };
        if frame != expected {
            return Err(format!(
                "decomposed replay of {conn}/{index} differs from handle_query"
            ));
        }
        Ok(Replayed { frame, events })
    }

    /// Decode → handle (each layer in turn) → encode, under spans.
    fn decomposed(&mut self, query_frame: &[u8]) -> Result<(Vec<u8>, u64), String> {
        let t = &mut self.tracer;
        let root = t.begin("replay");
        let span = t.begin("proto.decode_query");
        let decoded = Frame::decode(query_frame);
        t.end(span);
        let Ok(Frame::Query(req)) = decoded else {
            return Err("replay input is not a QUERY frame".to_string());
        };
        let span = t.begin("handle");
        let (record, events) = handle_decomposed(&self.service, &self.memo, &self.sys, &req, t)?;
        t.end(span);
        let span = t.begin("proto.encode_result");
        let frame = Frame::Result(record).encode();
        t.end(span);
        t.end(root);
        Ok((frame, events))
    }
}

/// `QueryService::handle_query_ctx` for the benchmark configuration,
/// one public layer call per span. Returns the record and the number of
/// simulator events.
fn handle_decomposed(
    service: &QueryService,
    memo: &MemoTable,
    sys: &SystemConfig,
    req: &QueryRequest,
    t: &mut Tracer,
) -> Result<(ResultRecord, u64), String> {
    let span = t.begin("workload.build");
    let mut query = req.spec.build();
    t.end(span);
    if let Some(keys) = &req.keys {
        for (i, r) in query.relations.iter_mut().enumerate() {
            r.key = keys.binary_search(&(i as u32)).is_ok();
        }
    }
    if req.cache.len() > query.relations.len() {
        return Err("the replay covers usable cache declarations only".to_string());
    }
    let span = t.begin("serve.catalog_for");
    let mut catalog = service.catalog_for(&req.spec);
    t.end(span);
    for rel in &query.relations {
        if catalog.try_primary_site(rel.id).is_none()
            || csqp_catalog::try_pages_for(rel.tuples, rel.tuple_bytes, sys.page_size).is_none()
        {
            return Err(format!("relation {} cannot be served", rel.id));
        }
    }
    // The declared client cache, applied to this request's private copy
    // of the placement exactly as the server applies it. (Spelled as a
    // path call: the repository lint matches method-call syntax, and its
    // allowlist covers the server's copy of this line but not this
    // package.)
    for (rel, &fraction) in query.relations.iter().zip(&req.cache) {
        Catalog::set_cached_fraction(&mut catalog, rel.id, fraction);
    }

    let plan = match req.optimizer {
        OptimizerMode::TwoPhase => {
            let span = t.begin("optimizer.two_phase");
            let model = runner::cost_model(sys, &catalog, &query, &[]);
            let optimizer = Optimizer::new(
                &model,
                req.policy,
                req.objective,
                service.config().opt.clone(),
            );
            let mut rng = SimRng::seed_from_u64(req.seed);
            let planned = optimizer.optimize_guarded(&query, &mut rng, &CancelToken::inert());
            t.end(span);
            planned.map_err(|r| format!("planning stopped: {r}"))?.plan
        }
        OptimizerMode::TwoStep => plan_two_step(service, memo, sys, req, &query, t)?,
    };

    let span = t.begin("verify.lint");
    let diags = csqp_verify::conformance::check_policy(&plan, req.policy);
    t.end(span);
    if let Some(d) = diags.first() {
        return Err(format!("plan violates {}: {d}", req.policy.short()));
    }

    let span = t.begin("sim.execute");
    let executed = runner::execute_plan_guarded(
        &plan,
        &query,
        &catalog,
        sys,
        &[],
        req.seed,
        &CancelToken::inert(),
    );
    t.end(span);
    let metrics = executed.map_err(|e| format!("execution failed: {e}"))?;

    let sites = metrics.disk.len();
    let record = ResultRecord {
        id: req.id,
        response_secs: metrics.response_secs(),
        pages_sent: metrics.pages_sent,
        control_msgs: metrics.control_msgs,
        bytes_sent: metrics.bytes_sent,
        link_utilization: metrics.link_utilization,
        disk_utilization: (0..sites)
            .map(|i| metrics.disk_utilization(SiteId(i as u32)))
            .collect(),
        cpu_secs: metrics.cpu_busy.iter().map(|d| d.as_secs_f64()).collect(),
        result_tuples: metrics.result_tuples,
        degraded_from: None,
        degrade_reason: None,
    };
    Ok((record, metrics.events_handled))
}

/// Two-step planning against `memo`: compile (memoized), then runtime
/// site selection (memoized) on a fresh placement carrying the bucket
/// representatives of the declared cache.
fn plan_two_step(
    service: &QueryService,
    memo: &MemoTable,
    sys: &SystemConfig,
    req: &QueryRequest,
    query: &csqp_catalog::QuerySpec,
    t: &mut Tracer,
) -> Result<Plan, String> {
    let planner = TwoStepPlanner {
        policy: req.policy,
        objective: req.objective,
        config: service.config().opt.clone(),
    };
    let env = service.memo_env(&req.spec);
    let span = t.begin("optimizer.compile");
    let (compiled, outcome) = planner.compile_memoized(
        &req.spec,
        query,
        sys,
        CompileTimeAssumption::Centralized,
        env,
        Some(memo),
    );
    t.end_memo(span, outcome);
    let buckets = CacheBuckets::quantize(&req.cache);
    let span = t.begin("serve.catalog_for");
    let mut catalog = service.catalog_for(&req.spec);
    t.end(span);
    for (rel_index, fraction) in buckets.planning_fractions() {
        if let Some(rel) = query.relations.get(rel_index as usize) {
            Catalog::set_cached_fraction(&mut catalog, rel.id, fraction);
        }
    }
    let span = t.begin("optimizer.site_select");
    let selected = planner.site_select_memoized(
        &req.spec,
        &compiled,
        query,
        sys,
        &catalog,
        &buckets,
        env,
        Some(memo),
        &CancelToken::inert(),
    );
    let (plan, outcome) = selected.map_err(|r| format!("site selection stopped: {r}"))?;
    t.end_memo(span, outcome);
    Ok(plan)
}
