//! The multi-threaded TCP query service.
//!
//! Threading model (documented in DESIGN.md §8 and §10):
//!
//! - one *accept* thread owns the listener and routes sockets to shards;
//! - a fixed set of *shard* event-loop threads multiplexes every session
//!   (HELLO → QUERY* → BYE) over a [`csqp_net::poll::PlatformReactor`]
//!   (`epoll(7)` on Linux, `poll(2)` elsewhere) — see the `engine`
//!   module;
//! - a fixed *worker pool* drains a bounded admission queue
//!   (`std::sync::mpsc::sync_channel`) and executes queries against the
//!   shared [`QueryService`].
//!
//! Backpressure: a QUERY that finds the admission queue full is rejected
//! immediately with an ERROR frame (`code = saturated`) carrying a
//! `retry_after_ms` hint — a shard's event loop never blocks on a full
//! queue, so slow workers cannot stall the protocol.
//!
//! Determinism: the hosted catalog for a query shape is derived from
//! `placement_seed ^ fnv1a(spec.canonical())`, two-step compile and
//! site-selection streams are seeded from the memo fingerprint of their
//! key (identical with the memo enabled or disabled), and the two-phase
//! optimizer/simulator stream is seeded by the request's own `seed` — so
//! identical requests produce byte-identical results regardless of thread
//! interleaving, which worker runs them, or whether the memo was warm.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use csqp_catalog::{Catalog, DriftAction, DriftEvent, SiteId, SystemConfig};
use csqp_core::cancel::{CancelToken, StopReason};
use csqp_core::{DiagCode, Policy};
use csqp_engine::ServerLoad;
use csqp_experiments::runner;
use csqp_memo::{CacheBuckets, Env as MemoEnv, MemoConfig, MemoTable};
use csqp_optimizer::{CompileTimeAssumption, OptConfig, Optimizer, TwoStepPlanner};
use csqp_simkernel::rng::SimRng;
use csqp_workload::{random_placement, WorkloadSpec};

use crate::metrics::ServerMetrics;
use crate::proto::{
    read_frame, write_frame, DegradeReason, ErrorCode, ErrorFrame, Frame, OptimizerMode,
    QueryRequest, ResultRecord, StatsSnapshot, WireError,
};

/// FNV-1a over a byte string; the deterministic mixer used for catalog
/// and compile seeds. Re-exported from the memo crate, which holds the
/// workspace's one implementation.
pub use csqp_memo::fingerprint::fnv1a;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Number of data servers in the hosted topology. Queries with fewer
    /// relations than this run on a topology shrunk to their relation
    /// count (the placement invariant gives every server a relation).
    pub num_servers: u32,
    /// Worker threads executing queries.
    pub workers: usize,
    /// Admission-queue depth; a QUERY arriving when the queue holds this
    /// many pending jobs is rejected with a retry-after hint.
    pub queue_depth: usize,
    /// Seed for the hosted data placement.
    pub placement_seed: u64,
    /// Optimizer search parameters used for every request.
    pub opt: OptConfig,
    /// Connection read timeout; also bounds shutdown latency.
    pub read_timeout: Duration,
    /// Server name echoed in HELLO-ACK frames.
    pub name: String,
    /// In-flight queries (queued + executing) past which new admissions
    /// are served *degraded* to query shipping instead of at the
    /// requested policy. `None` derives `3 · queue_depth / 4` (min 1).
    /// The hard reject still happens when the queue itself is full.
    pub high_water: Option<usize>,
    /// Per-session pipelining window: how many QUERY frames one session
    /// may have outstanding before reading replies. Advertised in
    /// HELLO-ACK; a QUERY past the window is rejected `saturated`.
    /// Clamped to `1..=`[`csqp_core::limits::MAX_SERIALS`] — the cap
    /// keeps the session machine finite, which is what lets
    /// `csqp-check --protocol` model-check it exhaustively.
    pub pipeline_depth: usize,
    /// Event-loop threads multiplexing all sessions (sessions are
    /// sharded across them by file descriptor). Clamped to at least 1.
    pub event_threads: usize,
    /// Server-side reply-path fault injection: when set, RESULT/ERROR
    /// frames produced by query execution are deterministically
    /// truncated or corrupted per the plan, keyed by the request's own
    /// seed. Chaos testing only — never enable in real serving.
    pub reply_faults: Option<csqp_net::chaos::FaultPlan>,
    /// Whether 2-step requests consult the shared site-selection memo.
    /// Serving is byte-identical either way (hits replay the exact cold
    /// plan); disabling only trades CPU for memory.
    pub memo: bool,
    /// Byte budget for the shared memo table (plans + witnesses +
    /// bookkeeping). LRU+cost-aware eviction keeps the table under this
    /// bound; see DESIGN.md §13.
    pub memo_bytes: usize,
    /// Staleness bound of the catalog drift model: the most epochs a
    /// shard may trail the coordinator epoch while its queries still
    /// serve *fresh* at the requested policy. Beyond the bound the query
    /// takes the typed degradation path (DESIGN.md §14): downgrade to QS
    /// with `degrade_reason = stale-catalog`, or — when it is already QS
    /// — reject with a retry hint.
    pub catalog_lag: u64,
    /// Catalog-propagation fault injection: when set, every admitted
    /// query publishes a coordinator epoch and the admitting shard's
    /// epoch refresh is deterministically withheld, torn, reordered, or
    /// poisoned per the plan, keyed by the request's own seed. When
    /// `None` the whole drift layer is inert (epoch stays 0, no trace) —
    /// serving is byte-identical to a build without it. Chaos testing
    /// only — never enable in real serving.
    pub catalog_faults: Option<csqp_net::chaos::FaultPlan>,
    /// Client-memory budget, in pages, for the *guaranteed* worst-case
    /// footprint of the chosen plan (`csqp-verify::bounds`): the pages of
    /// both inputs of every client-sited join plus the final result. A
    /// plan over budget is re-planned as QS — whose joins run at the
    /// servers, so its footprint is the result bound alone — with
    /// `degrade_reason = mem-bound`; if even the QS plan cannot fit, the
    /// query is rejected with the retryable `mem-bound-exceeded` error.
    /// `None` disables the gate (serving is byte-identical to a
    /// pre-bounds build).
    pub mem_budget_pages: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            num_servers: 4,
            workers: 4,
            queue_depth: 64,
            placement_seed: 0xC59D,
            opt: OptConfig::fast(),
            read_timeout: Duration::from_millis(200),
            name: "csqp-serve".to_string(),
            high_water: None,
            pipeline_depth: 8,
            event_threads: 2,
            reply_faults: None,
            memo: true,
            memo_bytes: 64 << 20,
            catalog_lag: 3,
            catalog_faults: None,
            mem_budget_pages: None,
        }
    }
}

impl ServerConfig {
    /// The effective degradation high-water mark (see
    /// [`ServerConfig::high_water`]).
    pub fn effective_high_water(&self) -> usize {
        self.high_water.unwrap_or(3 * self.queue_depth / 4).max(1)
    }

    /// The pipelining window this configuration actually grants a
    /// session: the configured depth, clamped to the finite-machine cap
    /// (see [`ServerConfig::pipeline_depth`]).
    pub fn effective_pipeline_depth(&self) -> usize {
        self.pipeline_depth
            .clamp(1, csqp_core::limits::MAX_SERIALS as usize)
    }
}

/// The retry-after hint attached to saturation rejects and deadline
/// errors.
pub(crate) const RETRY_AFTER_MS: u64 = 50;

/// The retry-after hint attached to shutdown errors: long enough for a
/// restart supervisor to bring a replacement up.
pub(crate) const SHUTDOWN_RETRY_AFTER_MS: u64 = 1_000;

/// How far the admitting shard's epoch trailed the coordinator epoch
/// when a query was admitted — the typed degradation verdict of the
/// catalog drift model (DESIGN.md §14). Computed once per admitted
/// query by the shard thread and carried on the `Job` so the worker
/// honors exactly the state the admission decision saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CatalogVerdict {
    /// The shard is within [`ServerConfig::catalog_lag`]: serve at the
    /// requested policy, priced under the shard's epoch.
    Fresh,
    /// The shard is past the bound (or its cached-fraction state is
    /// poisoned) but the request can still downgrade: serve QS — which
    /// never prices the client cache, so stale fractions cannot mislead
    /// it — with `degrade_reason = stale-catalog`.
    Degrade,
    /// The shard is past the bound and the request is already QS, so
    /// there is nothing sound left to downgrade to: reject with a retry
    /// hint (the shard will have refreshed by the retry).
    Reject {
        /// How many epochs the shard trailed the coordinator.
        lag: u64,
    },
}

/// Hard cap on the recorded drift trace. When a soak outgrows it, whole
/// queries stop being recorded (never partial event groups), so the
/// trace stays a consistent *prefix* of the drift history — exactly what
/// the `csqp-verify` drift pass needs for sound replay.
const DRIFT_TRACE_CAP: usize = 65_536;

/// The catalog drift model's state: a coordinator epoch and one epoch
/// per shard, numbers only — no catalog is copied or mutated, since the
/// served catalog is derived per request. All zeros — and never
/// touched — unless [`ServerConfig::catalog_faults`] is armed, which is
/// what keeps the no-fault serving path byte-identical to a build
/// without it.
struct DriftState {
    /// The coordinator's published epoch.
    coordinator: AtomicU64,
    /// Each shard's epoch, indexed by shard (event-loop) index.
    replicas: Vec<AtomicU64>,
    /// Refresh deliveries shards applied (including torn ones).
    refreshes: AtomicU64,
    /// Reordered (regressing) deliveries shards refused.
    regressions: AtomicU64,
    /// Queries downgraded to QS for staleness or poison.
    stale_degraded: AtomicU64,
    /// QS queries bounced outright for staleness.
    stale_rejected: AtomicU64,
    /// Worst shard lag observed at any admission decision.
    max_lag: AtomicU64,
    /// The event trace the `csqp-verify` drift pass audits after a soak.
    trace: Mutex<Vec<DriftEvent>>,
}

impl DriftState {
    fn new(shards: usize) -> DriftState {
        DriftState {
            coordinator: AtomicU64::new(0),
            replicas: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            refreshes: AtomicU64::new(0),
            regressions: AtomicU64::new(0),
            stale_degraded: AtomicU64::new(0),
            stale_rejected: AtomicU64::new(0),
            max_lag: AtomicU64::new(0),
            trace: Mutex::new(Vec::new()),
        }
    }
}

/// The shared query-execution service: Table 2 system parameters, the
/// deterministic hosted placement, the shared site-selection memo, the
/// catalog drift model, and the metrics sink.
pub struct QueryService {
    config: ServerConfig,
    sys: SystemConfig,
    /// Bounded memo of compiled join orders and site-selected winners
    /// for 2-step requests, shared across every shard and session.
    /// Always constructed; [`ServerConfig::memo`] gates whether queries
    /// consult it.
    memo: MemoTable,
    metrics: Arc<ServerMetrics>,
    /// Queries admitted but not yet finished (queued + executing); the
    /// degradation high-water mark compares against this.
    inflight: AtomicU64,
    /// The coordinator and per-shard epochs and drift counters; inert
    /// unless catalog faults are armed.
    drift: DriftState,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl QueryService {
    /// A service with the default Table 2 system parameters.
    pub fn new(config: ServerConfig) -> QueryService {
        let memo = MemoTable::new(MemoConfig {
            max_bytes: config.memo_bytes,
            ..MemoConfig::default()
        });
        let drift = DriftState::new(config.event_threads);
        QueryService {
            config,
            sys: SystemConfig::default(),
            memo,
            metrics: Arc::new(ServerMetrics::new()),
            inflight: AtomicU64::new(0),
            drift,
        }
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// The shared site-selection memo, when memoization is enabled.
    pub fn memo(&self) -> Option<&MemoTable> {
        if self.config.memo {
            Some(&self.memo)
        } else {
            None
        }
    }

    /// The memo environment for a spec: the hosted placement seed and
    /// the effective (possibly shrunk) topology the request plans
    /// against. Part of every fingerprint, so reconfiguring either
    /// cannot serve a stale plan.
    pub fn memo_env(&self, spec: &WorkloadSpec) -> MemoEnv {
        MemoEnv {
            placement_seed: self.config.placement_seed,
            num_servers: self.topology_for(spec),
        }
    }

    /// The STATS-frame snapshot: serving metrics merged with the memo
    /// counters (zero when the memo is disabled) and the catalog drift
    /// counters (zero until catalog faults arm the drift layer).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(memo) = self.memo() {
            let m = memo.snapshot();
            snap.memo_hits = m.hits;
            snap.memo_misses = m.misses;
            snap.memo_evictions = m.evictions;
            snap.memo_bytes = m.bytes;
        }
        snap.catalog_epoch = self.drift.coordinator.load(Ordering::Acquire);
        snap.catalog_refreshes = self.drift.refreshes.load(Ordering::Relaxed);
        snap.catalog_stale_degraded = self.drift.stale_degraded.load(Ordering::Relaxed);
        snap.catalog_stale_rejected = self.drift.stale_rejected.load(Ordering::Relaxed);
        snap.catalog_epoch_regressions = self.drift.regressions.load(Ordering::Relaxed);
        snap.catalog_max_lag = self.drift.max_lag.load(Ordering::Relaxed);
        snap
    }

    /// The coordinator's current catalog epoch (0 until catalog faults
    /// arm the drift layer).
    pub fn catalog_epoch(&self) -> u64 {
        self.drift.coordinator.load(Ordering::Acquire)
    }

    /// The drift event trace recorded while catalog faults were armed
    /// (empty otherwise, and capped — see `DRIFT_TRACE_CAP`).
    /// `csqp-load` replays this through the `csqp-verify` drift pass
    /// after a soak to prove no plan was served beyond the bound.
    pub fn drift_trace(&self) -> Vec<DriftEvent> {
        lock(&self.drift.trace).clone()
    }

    /// Advance the drift model for one query admitted at `shard` and
    /// return the serving verdict, keyed by the request's own seed so
    /// the schedule is reproducible without any session state. `None`
    /// (faults unarmed) means the drift layer is inert. Every epoch it
    /// publishes bumps the memo generation, and the events it decides
    /// are appended to [`drift_trace`](Self::drift_trace). The shard
    /// event loop calls it at admission; `csqp-check`'s catalog stage
    /// calls it directly. Soaks that assert digest equality run queries
    /// sequentially, which makes the whole drift trajectory a pure
    /// function of the request stream.
    pub fn catalog_verdict(&self, shard: usize, req: &QueryRequest) -> Option<CatalogVerdict> {
        use csqp_net::chaos::CatalogFault;
        let plan = self.config.catalog_faults.as_ref()?;
        let fault = plan.catalog_fault_for(req.seed);
        let mut events: Vec<DriftEvent> = Vec::with_capacity(8);

        // Coordinator side: every admission doubles as a mutation tick.
        // A withheld refresh publishes a small burst so a single fault
        // can push the replica past the default bound.
        let publishes = match fault {
            CatalogFault::WithheldRefresh => 1 + plan.catalog_rng_for(req.seed).derive(1).below(4),
            _ => 1,
        };
        let mut coord = 0;
        for _ in 0..publishes {
            coord = self.drift.coordinator.fetch_add(1, Ordering::AcqRel) + 1;
            events.push(DriftEvent::Publish { epoch: coord });
            // Epoch publication invalidates the shared memo: entries
            // priced under the old epoch must miss and recompute.
            self.memo.bump_generation();
        }

        // Replica side: the propagation step, with the fault's say.
        let replica = &self.drift.replicas[shard % self.drift.replicas.len()];
        let site = (shard % self.drift.replicas.len()) as u32;
        let from = replica.load(Ordering::Acquire);
        let mut poisoned = false;
        match fault {
            CatalogFault::None => {
                replica.store(coord, Ordering::Release);
                self.drift.refreshes.fetch_add(1, Ordering::Relaxed);
                events.push(DriftEvent::Refresh {
                    site,
                    from,
                    to: coord,
                    applied: true,
                });
            }
            CatalogFault::WithheldRefresh => {
                // No delivery at all: the replica just falls behind.
            }
            CatalogFault::TornEpoch => {
                // Partial apply: the delivery lands one delta short.
                // `coord - 1 >= from` always holds — this query published
                // exactly one epoch, so `from <= coord - 1`.
                let to = coord - 1;
                replica.store(to, Ordering::Release);
                self.drift.refreshes.fetch_add(1, Ordering::Relaxed);
                events.push(DriftEvent::Refresh {
                    site,
                    from,
                    to,
                    applied: true,
                });
            }
            CatalogFault::ReorderedEpoch => {
                // A stale delivery arrives after a newer one: the replica
                // refuses the regression and keeps its epoch.
                self.drift.regressions.fetch_add(1, Ordering::Relaxed);
                events.push(DriftEvent::Refresh {
                    site,
                    from,
                    to: from.saturating_sub(1),
                    applied: false,
                });
            }
            CatalogFault::PoisonedFraction => {
                // The refresh lands but its cached-fraction state is
                // garbage: the epoch is current, the pricing inputs are
                // not, so the query must not plan against the cache.
                replica.store(coord, Ordering::Release);
                self.drift.refreshes.fetch_add(1, Ordering::Relaxed);
                events.push(DriftEvent::Refresh {
                    site,
                    from,
                    to: coord,
                    applied: true,
                });
                events.push(DriftEvent::Poison { site });
                poisoned = true;
            }
        }

        // The serve decision: the degradation lattice of DESIGN.md §14.
        let priced = replica.load(Ordering::Acquire);
        let lag = coord.saturating_sub(priced);
        self.drift.max_lag.fetch_max(lag, Ordering::AcqRel);
        let verdict = if poisoned {
            self.drift.stale_degraded.fetch_add(1, Ordering::Relaxed);
            CatalogVerdict::Degrade
        } else if lag <= self.config.catalog_lag {
            CatalogVerdict::Fresh
        } else if req.policy == Policy::QueryShipping {
            self.drift.stale_rejected.fetch_add(1, Ordering::Relaxed);
            CatalogVerdict::Reject { lag }
        } else {
            self.drift.stale_degraded.fetch_add(1, Ordering::Relaxed);
            CatalogVerdict::Degrade
        };
        events.push(DriftEvent::Serve {
            site,
            priced_epoch: priced,
            coordinator_epoch: coord,
            lag,
            action: match verdict {
                CatalogVerdict::Fresh => DriftAction::Fresh,
                CatalogVerdict::Degrade => DriftAction::Degraded,
                CatalogVerdict::Reject { .. } => DriftAction::Rejected,
            },
        });

        let mut trace = lock(&self.drift.trace);
        if trace.len() + events.len() <= DRIFT_TRACE_CAP {
            trace.extend(events);
        }
        Some(verdict)
    }

    /// Count one query admitted (queued + executing until
    /// [`end_inflight`](Self::end_inflight)); returns the count before it.
    pub(crate) fn begin_inflight(&self) -> u64 {
        self.inflight.fetch_add(1, Ordering::AcqRel)
    }

    pub(crate) fn end_inflight(&self) {
        let prev = self.inflight.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "inflight counter underflow");
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Effective topology size for a spec: every server must receive at
    /// least one relation, so small queries shrink the topology.
    pub fn topology_for(&self, spec: &WorkloadSpec) -> u32 {
        self.config.num_servers.min(spec.num_relations()).max(1)
    }

    /// The hosted placement for a query shape: deterministic in
    /// `(placement_seed, spec)`, independent of request order. Exposed so
    /// tests and tools can reconstruct the exact scenario a request ran
    /// against.
    pub fn catalog_for(&self, spec: &WorkloadSpec) -> Catalog {
        let query = spec.build();
        let seed = self.config.placement_seed ^ fnv1a(spec.canonical().as_bytes());
        let mut rng = SimRng::seed_from_u64(seed);
        random_placement(&query, self.topology_for(spec), &mut rng)
    }

    /// Execute one request end to end: materialize the scenario, plan
    /// (two-phase or cached-compile + runtime site selection), lint the
    /// plan against Table 1, simulate, and report the figure-style
    /// record. Every failure is a typed ERROR frame; this never panics on
    /// any decodable request.
    pub fn handle_query(&self, req: &QueryRequest) -> Result<ResultRecord, ErrorFrame> {
        self.handle_query_ctx(req, &CancelToken::inert(), None, None)
    }

    /// [`QueryService::handle_query`] with the serving context attached:
    /// a cancel token probed between search steps and simulated-engine
    /// phases, an admission-time degradation verdict (queue past the
    /// high-water mark), and the admitting shard's catalog drift verdict.
    /// A stopped token yields a typed `deadline-exceeded` or `aborted`
    /// ERROR; a degraded request runs under query shipping — Table 1
    /// makes QS legal for every query — and says so in the RESULT record;
    /// an over-lag QS request is bounced with a typed `stale-catalog`
    /// ERROR carrying a retry hint.
    pub fn handle_query_ctx(
        &self,
        req: &QueryRequest,
        guard: &CancelToken,
        admission_degrade: Option<DegradeReason>,
        catalog_verdict: Option<CatalogVerdict>,
    ) -> Result<ResultRecord, ErrorFrame> {
        if let Some(CatalogVerdict::Reject { lag }) = catalog_verdict {
            return Err(ErrorFrame {
                id: req.id,
                code: ErrorCode::StaleCatalog,
                message: format!(
                    "shard replica is {lag} epochs behind the coordinator (bound {}); \
                     a refresh is due",
                    self.config.catalog_lag
                ),
                retry_after_ms: Some(RETRY_AFTER_MS),
            });
        }
        let bad = |msg: String| ErrorFrame {
            id: req.id,
            code: ErrorCode::BadRequest,
            message: msg,
            retry_after_ms: None,
        };
        let stopped = |r: StopReason, at: &str| ErrorFrame {
            id: req.id,
            code: match r {
                StopReason::DeadlineExceeded => ErrorCode::DeadlineExceeded,
                StopReason::Cancelled => ErrorCode::Aborted,
            },
            message: format!("query abandoned during {at}: {r}"),
            retry_after_ms: match r {
                // A fresh attempt with a larger budget can succeed.
                StopReason::DeadlineExceeded => Some(RETRY_AFTER_MS),
                // The requester is gone; nobody reads this hint.
                StopReason::Cancelled => None,
            },
        };
        let mut query = req.spec.build();
        // The wire's key declarations override the generator-implied
        // ones. They are *claims*, not facts: `bounds::analyze` audits
        // every declared key against the query's own statistics and
        // falls back to the product rule for any it cannot justify, so a
        // hostile over-declaration can never tighten a bound unsoundly
        // (it only risks a `bound-key-unsound` diagnostic in `csqp-check`'s
        // bounds sweeps). Indices were validated at decode.
        if let Some(keys) = &req.keys {
            for (i, r) in query.relations.iter_mut().enumerate() {
                r.key = keys.binary_search(&(i as u32)).is_ok();
            }
        }
        let query = query;
        let servers = self.topology_for(&req.spec);

        // An unusable cache declaration (more entries than the query has
        // relations) cannot be bound soundly, so cache-dependent DS/HY
        // planning degrades to QS — which never reads the client cache —
        // and the declaration is ignored. A stale or poisoned catalog
        // replica forces the same downgrade for the same soundness
        // reason: QS never prices replicated state it cannot trust.
        // Admission-time saturation outranks both: the reason reported
        // is the first one that forced the downgrade.
        let cache_unusable = req.cache.len() > query.relations.len();
        let catalog_stale = matches!(catalog_verdict, Some(CatalogVerdict::Degrade));
        let degrade = admission_degrade
            .or(if catalog_stale {
                Some(DegradeReason::StaleCatalog)
            } else {
                None
            })
            .or(if cache_unusable {
                Some(DegradeReason::CacheUnusable)
            } else {
                None
            });
        let (mut policy, mut degraded_from, mut degrade_reason) = match degrade {
            Some(reason) if req.policy != Policy::QueryShipping => {
                (Policy::QueryShipping, Some(req.policy), Some(reason))
            }
            _ => (req.policy, None, None),
        };

        // The hosted placement, built once per request: the exact declared
        // cache lands on `catalog`, while two-step site selection plans on
        // its own copy of the placement with bucketed fractions.
        let placement = self.catalog_for(&req.spec);
        let mut catalog = placement.clone();
        // Every relation must hold a primary copy before planning ever
        // asks for one: `Catalog::primary_site` panics on an unplaced
        // relation, and a panic here would take the whole worker thread.
        // `random_placement` places everything, so this is defensive —
        // but the serve boundary is exactly where the defense belongs.
        for rel in &query.relations {
            if catalog.try_primary_site(rel.id).is_none() {
                return Err(bad(format!(
                    "{}: relation {} has no primary copy in the hosted placement",
                    DiagCode::CatalogUnplaced.as_str(),
                    rel.id
                )));
            }
        }
        // Page arithmetic must be defined for every relation before the
        // planner or the bounds pass divides by it: zero-width tuples or
        // a tuple wider than a page would panic `pages_for` deep in the
        // cost model. Hostile statistics die here with a typed error
        // instead.
        for rel in &query.relations {
            if csqp_catalog::try_pages_for(rel.tuples, rel.tuple_bytes, self.sys.page_size)
                .is_none()
            {
                return Err(bad(format!(
                    "{}: relation {} statistics (tuple_bytes={}, page_size={}) admit no \
                     page count",
                    DiagCode::BoundOverflow.as_str(),
                    rel.id,
                    rel.tuple_bytes,
                    self.sys.page_size
                )));
            }
        }
        if !cache_unusable {
            for (rel, &fraction) in query.relations.iter().zip(&req.cache) {
                catalog.set_cached_fraction(rel.id, fraction);
            }
        }
        let mut loads = Vec::with_capacity(req.loads.len());
        for &(site, rate) in &req.loads {
            if site == 0 || site > servers {
                return Err(bad(format!(
                    "load names server {site}, topology has servers 1..={servers}"
                )));
            }
            loads.push(ServerLoad {
                site: SiteId::server(site),
                rate_per_sec: rate,
            });
        }

        let plan_for = |policy: Policy| -> Result<csqp_core::Plan, ErrorFrame> {
            Ok(match req.optimizer {
                OptimizerMode::TwoPhase => {
                    // Mirrors runner::run_query exactly (same seed stream)
                    // with the lint inserted between planning and execution.
                    let model = runner::cost_model(&self.sys, &catalog, &query, &loads);
                    let optimizer =
                        Optimizer::new(&model, policy, req.objective, self.config.opt.clone());
                    let mut rng = SimRng::seed_from_u64(req.seed);
                    optimizer
                        .optimize_guarded(&query, &mut rng, guard)
                        .map_err(|r| stopped(r, "planning"))?
                        .plan
                }
                OptimizerMode::TwoStep => {
                    let planner = TwoStepPlanner {
                        policy,
                        objective: req.objective,
                        config: self.config.opt.clone(),
                    };
                    let env = self.memo_env(&req.spec);
                    let memo = self.memo();
                    let (compiled, _) = planner.compile_memoized(
                        &req.spec,
                        &query,
                        &self.sys,
                        CompileTimeAssumption::Centralized,
                        env,
                        memo,
                    );
                    // Site selection plans against the bucket-representative
                    // cache state — the quantization that makes memo entries
                    // shareable across near-identical declarations — while
                    // execution below keeps the exact declared fractions.
                    let buckets = if cache_unusable {
                        CacheBuckets::quantize(&[])
                    } else {
                        CacheBuckets::quantize(&req.cache)
                    };
                    let mut planning_catalog = placement.clone();
                    for (rel_index, fraction) in buckets.planning_fractions() {
                        if (rel_index as usize) < query.relations.len() {
                            planning_catalog.set_cached_fraction(
                                query.relations[rel_index as usize].id,
                                fraction,
                            );
                        }
                    }
                    planner
                        .site_select_memoized(
                            &req.spec,
                            &compiled,
                            &query,
                            &self.sys,
                            &planning_catalog,
                            &buckets,
                            env,
                            memo,
                            guard,
                        )
                        .map_err(|r| stopped(r, "site selection"))?
                        .0
                }
            })
        };
        let mut plan = plan_for(policy)?;

        // Memory-bound admission gate (DESIGN.md §16): compare the
        // *guaranteed* worst-case client footprint of the chosen plan —
        // derived by `csqp-verify::bounds` from audited key constraints,
        // never from estimates — against the configured budget. Over
        // budget, degrade to QS (whose joins run at the servers, so only
        // the result bound lands on the client); if even QS cannot fit,
        // reject with the typed retryable error. With no budget set the
        // gate is inert and serving is byte-identical to a pre-bounds
        // build.
        if let Some(budget) = self.config.mem_budget_pages {
            let footprint_of = |plan: &csqp_core::Plan| -> Result<u64, ErrorFrame> {
                let bound = csqp_core::bind::bind(
                    plan,
                    csqp_core::bind::BindContext {
                        catalog: &catalog,
                        query_site: SiteId::CLIENT,
                    },
                )
                .map_err(|e| bad(format!("plan does not bind to the hosted placement: {e}")))?;
                let bounds = csqp_verify::bounds::analyze(plan, &query, self.sys.page_size)
                    .map_err(|d| bad(d.to_string()))?;
                Ok(csqp_verify::bounds::client_footprint_pages(&bound, &bounds))
            };
            let reject = |footprint: u64| ErrorFrame {
                id: req.id,
                code: ErrorCode::MemBoundExceeded,
                message: format!(
                    "guaranteed worst-case client footprint of {footprint} pages exceeds \
                     the memory budget of {budget} pages even under query shipping"
                ),
                retry_after_ms: Some(RETRY_AFTER_MS),
            };
            let footprint = footprint_of(&plan)?;
            if footprint > budget {
                if policy == Policy::QueryShipping {
                    return Err(reject(footprint));
                }
                let qs_plan = plan_for(Policy::QueryShipping)?;
                let qs_footprint = footprint_of(&qs_plan)?;
                if qs_footprint > budget {
                    return Err(reject(qs_footprint));
                }
                plan = qs_plan;
                policy = Policy::QueryShipping;
                degraded_from = Some(req.policy);
                degrade_reason = Some(DegradeReason::MemBound);
            }
        }
        let plan = plan;

        // Table-1 conformance lint, always before execution: a plan that
        // breaks the policy contract is a server-side optimizer bug and
        // must never reach the simulator. Degraded plans are linted
        // against QS — the policy they actually ran under. The loopback
        // test asserts (in debug builds) that this counter tracks every
        // served query.
        let diags = csqp_verify::conformance::check_policy(&plan, policy);
        self.metrics.record_lint();
        if !diags.is_empty() {
            debug_assert!(
                false,
                "optimizer emitted a policy-violating plan: {:?}",
                diags[0]
            );
            return Err(ErrorFrame {
                id: req.id,
                code: ErrorCode::PolicyViolation,
                message: format!("plan violates {} rules: {}", policy.short(), diags[0]),
                retry_after_ms: None,
            });
        }

        let metrics = runner::execute_plan_guarded(
            &plan, &query, &catalog, &self.sys, &loads, req.seed, guard,
        )
        .map_err(|e| match e {
            runner::RunError::Interrupted(r) => stopped(r, "execution"),
            other => ErrorFrame {
                id: req.id,
                code: ErrorCode::ExecutionFailed,
                message: other.to_string(),
                retry_after_ms: None,
            },
        })?;

        let sites = metrics.disk.len();
        Ok(ResultRecord {
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
            degraded_from,
            degrade_reason,
        })
    }
}

/// Where a worker delivers a finished query's outcome: the owning
/// shard's completion queue — tagged with the session and the job serial
/// so the shard re-associates it — plus the waker that interrupts the
/// shard's poll sleep.
pub(crate) struct ReplySink {
    /// The owning shard's completion queue.
    pub(crate) tx: mpsc::Sender<crate::engine::Completion>,
    /// Session the query arrived on (shard-local id).
    pub(crate) session: u64,
    /// The session's slot for this query.
    pub(crate) serial: u64,
    /// Wakes the shard's poll loop after posting.
    pub(crate) waker: csqp_net::poll::WakeHandle,
}

impl ReplySink {
    /// Deliver the outcome. A vanished receiver (connection closed,
    /// shard shut down) is fine — the worker has already recorded the
    /// terminal metrics bucket.
    fn deliver(self, outcome: Result<ResultRecord, ErrorFrame>) {
        let _ = self.tx.send(crate::engine::Completion {
            session: self.session,
            serial: self.serial,
            outcome,
        });
        self.waker.wake();
    }
}

/// One admitted query, waiting for a worker.
pub(crate) struct Job {
    pub(crate) req: QueryRequest,
    pub(crate) reply: ReplySink,
    pub(crate) enqueued: Instant,
    /// Shared with the session layer: carries the request deadline and is
    /// cancelled when the client vanishes, so the worker abandons the
    /// query at its next probe.
    pub(crate) guard: Arc<CancelToken>,
    /// Admission-time degradation verdict (queue past high water).
    pub(crate) degrade: Option<DegradeReason>,
    /// The admitting shard's catalog drift verdict; `None` when catalog
    /// faults are unarmed.
    pub(crate) catalog: Option<CatalogVerdict>,
}

/// How a reply frame leaves the server after the reply-path fault plan
/// has had its say (see [`ServerConfig::reply_faults`]).
pub(crate) enum WireReply {
    /// The encoded frame, unmodified.
    Clean(Vec<u8>),
    /// The frame with one payload byte flipped; framing is intact, so
    /// the session continues.
    Corrupt(Vec<u8>),
    /// A strict prefix of the frame; the session must be closed right
    /// after writing it (the stream alignment is gone).
    Truncate(Vec<u8>),
}

impl WireReply {
    /// The bytes to put on the wire.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            WireReply::Clean(b) | WireReply::Corrupt(b) | WireReply::Truncate(b) => b,
        }
    }

    /// True when the session must close after this write.
    pub(crate) fn closes_session(&self) -> bool {
        matches!(self, WireReply::Truncate(_))
    }
}

/// Encode a completion-path reply (RESULT or ERROR for an executed
/// query) and apply the configured reply-path fault, keyed by the
/// request's own seed so the schedule is reproducible without any
/// session state. Admission rejects and session-level errors are always
/// sent clean.
pub(crate) fn mangle_reply(config: &ServerConfig, seed: u64, frame: &Frame) -> WireReply {
    use csqp_net::chaos::{corrupt_frame, truncate_frame, ReplyFault};
    let bytes = frame.encode();
    let Some(plan) = &config.reply_faults else {
        return WireReply::Clean(bytes);
    };
    // Separate derivation stream for the byte mutation, so it does not
    // replay the draws `reply_fault_for` already consumed.
    let mut mutate = plan.reply_rng_for(seed).derive(1);
    match plan.reply_fault_for(seed) {
        ReplyFault::None => WireReply::Clean(bytes),
        ReplyFault::CorruptReply => {
            WireReply::Corrupt(corrupt_frame(&bytes, crate::proto::HEADER_LEN, &mut mutate))
        }
        ReplyFault::TruncateReply => WireReply::Truncate(truncate_frame(&bytes, &mut mutate)),
    }
}

/// A bound server, ready to run.
pub struct Server {
    listener: TcpListener,
    service: Arc<QueryService>,
}

impl Server {
    /// Bind the listen socket (without accepting yet).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        Ok(Server {
            listener,
            service: Arc::new(QueryService::new(config)),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared query service.
    pub fn service(&self) -> Arc<QueryService> {
        Arc::clone(&self.service)
    }

    /// Start the session layer (the event-driven shard engine) plus the
    /// worker pool on background threads, and return a handle for
    /// shutdown.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let service = Arc::clone(&self.service);
        let cfg = service.config().clone();
        let shutdown = Arc::new(AtomicBool::new(false));

        let (submit, jobs) = mpsc::sync_channel::<Job>(cfg.queue_depth);
        let jobs = Arc::new(Mutex::new(jobs));
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers.max(1) {
            let jobs = Arc::clone(&jobs);
            let service = Arc::clone(&service);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("csqp-worker-{i}"))
                    .spawn(move || worker_loop(&jobs, &service))?,
            );
        }

        let accept_shutdown = Arc::clone(&shutdown);
        let mut shards = Vec::new();
        let mut registrars = Vec::with_capacity(cfg.event_threads.max(1));
        for i in 0..cfg.event_threads.max(1) {
            let shard = crate::engine::Shard::spawn(
                i,
                Arc::clone(&service),
                submit.clone(),
                Arc::clone(&shutdown),
            )?;
            registrars.push(shard.registrar());
            shards.push(shard);
        }
        let accept = std::thread::Builder::new()
            .name("csqp-accept".to_string())
            .spawn(move || {
                crate::engine::accept_into_shards(&self.listener, &registrars, &accept_shutdown)
            })?;

        Ok(ServerHandle {
            addr,
            service,
            shutdown,
            submit: Some(submit),
            accept: Some(accept),
            workers,
            shards,
        })
    }
}

/// Handle to a running server: address, metrics, and shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<QueryService>,
    shutdown: Arc<AtomicBool>,
    submit: Option<SyncSender<Job>>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shards: Vec<crate::engine::ShardHandle>,
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared query service (metrics, configuration, catalogs).
    pub fn service(&self) -> Arc<QueryService> {
        Arc::clone(&self.service)
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        self.service.metrics()
    }

    /// Graceful shutdown: stop accepting, wake the shard event loops so
    /// they observe the flag and sweep their sessions, drain queued jobs,
    /// and join the pool.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Wake the event shards so they observe the flag, flush a
        // best-effort shutdown error to their sessions, and exit
        // (dropping their submit clones).
        for shard in self.shards.drain(..) {
            shard.join();
        }
        // Drop the master sender; workers exit once every shard (each
        // holding a clone) has drained and disconnected.
        self.submit = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(jobs: &Mutex<Receiver<Job>>, service: &QueryService) {
    loop {
        // Hold the lock only while waiting; processing happens unlocked
        // so the pool executes queries concurrently.
        let job = match lock(jobs).recv() {
            Ok(j) => j,
            Err(_) => return,
        };
        let outcome = service.handle_query_ctx(&job.req, &job.guard, job.degrade, job.catalog);
        let latency_us = job.enqueued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        // Exactly one terminal bucket per job — the conservation
        // invariant the chaos harness asserts.
        match &outcome {
            Ok(record) => {
                // Count the policy the plan actually ran under.
                let executed = if record.degraded_from.is_some() {
                    service.metrics().record_degraded();
                    if record.degrade_reason == Some(crate::proto::DegradeReason::MemBound) {
                        service.metrics().record_mem_bound_degraded();
                    }
                    Policy::QueryShipping
                } else {
                    job.req.policy
                };
                service
                    .metrics()
                    .record_served(executed, latency_us, record.wire());
            }
            Err(e) => match e.code {
                ErrorCode::DeadlineExceeded => service.metrics().record_timed_out(),
                ErrorCode::Aborted => service.metrics().record_aborted(),
                // A stale-replica bounce is an admission-control outcome,
                // not a failure: it counts with the saturation rejects so
                // the conservation partition stays intact.
                ErrorCode::StaleCatalog => service.metrics().record_reject(),
                // So is a memory-bound bounce: the budget gate refused
                // the work before execution, with a retry hint.
                ErrorCode::MemBoundExceeded => {
                    service.metrics().record_mem_bound_rejected();
                    service.metrics().record_reject();
                }
                _ => service.metrics().record_error(),
            },
        }
        service.end_inflight();
        // A vanished requester (connection closed mid-flight) is fine.
        job.reply.deliver(outcome);
    }
}

/// Blocking client helper: send one frame and read the next reply frame.
/// Used by `csqp-load` and tests; lives here so the request/reply pairing
/// logic exists once.
pub fn roundtrip(stream: &mut TcpStream, frame: &Frame) -> Result<Frame, WireError> {
    write_frame(stream, frame)?;
    loop {
        match read_frame(stream) {
            // A read timeout between frames just means the server is
            // still computing; keep the blocking semantics and wait.
            Err(WireError::TimedOut) => continue,
            Ok(Some(f)) => return Ok(f),
            Ok(None) => {
                return Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )))
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_core::Policy;
    use csqp_cost::Objective;

    fn request(spec: WorkloadSpec, policy: Policy, optimizer: OptimizerMode) -> QueryRequest {
        QueryRequest {
            id: 7,
            spec,
            cache: vec![],
            policy,
            objective: Objective::Communication,
            optimizer,
            seed: 42,
            loads: vec![],
            deadline_ms: None,
            keys: None,
        }
    }

    #[test]
    fn handle_query_is_deterministic() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 4,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let a = service.handle_query(&request(
            spec.clone(),
            Policy::HybridShipping,
            OptimizerMode::TwoPhase,
        ));
        let b = service.handle_query(&request(
            spec,
            Policy::HybridShipping,
            OptimizerMode::TwoPhase,
        ));
        let (a, b) = (a.expect("runs"), b.expect("runs"));
        assert_eq!(a, b, "same request, same record");
        assert!(a.response_secs > 0.0);
        assert!(a.result_tuples > 0);
        assert_eq!(service.metrics().lint_checks(), 2);
    }

    #[test]
    fn two_phase_matches_the_figure_pipeline() {
        // The service must measure exactly what the harness measures:
        // same catalog, same seeds, same metrics.
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Star {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec.clone(), Policy::QueryShipping, OptimizerMode::TwoPhase);
        let record = service.handle_query(&req).expect("runs");
        let query = spec.build();
        let catalog = service.catalog_for(&spec);
        let direct = csqp_experiments::run_query(
            &query,
            &catalog,
            &SystemConfig::default(),
            &[],
            Policy::QueryShipping,
            Objective::Communication,
            &OptConfig::fast(),
            req.seed,
        )
        .expect("runs");
        assert_eq!(record.pages_sent, direct.metrics.pages_sent);
        assert_eq!(record.bytes_sent, direct.metrics.bytes_sent);
        assert_eq!(record.result_tuples, direct.metrics.result_tuples);
        assert_eq!(record.response_secs, direct.metrics.response_secs());
    }

    #[test]
    fn two_step_uses_the_plan_cache() {
        // Historic name; the plan cache is now the shared memo table.
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let a = service
            .handle_query(&request(
                spec.clone(),
                Policy::HybridShipping,
                OptimizerMode::TwoStep,
            ))
            .expect("runs");
        let snap = service.memo().expect("memo on by default").snapshot();
        assert_eq!(snap.installs, 2, "compiled join order + selected winner");
        assert_eq!(snap.hits, 0);
        let b = service
            .handle_query(&request(
                spec,
                Policy::HybridShipping,
                OptimizerMode::TwoStep,
            ))
            .expect("runs");
        // Memo hit and memo miss must be indistinguishable.
        assert_eq!(a, b);
        let snap = service.memo().expect("memo on by default").snapshot();
        assert_eq!(snap.hits, 2, "both layers hit on the repeat");
        assert_eq!(snap.installs, 2, "nothing re-installed");
        let stats = service.stats_snapshot();
        assert_eq!(stats.memo_hits, 2);
        assert!(stats.memo_bytes > 0);
    }

    #[test]
    fn memo_off_serves_identical_records() {
        let on = QueryService::new(ServerConfig::default());
        let off = QueryService::new(ServerConfig {
            memo: false,
            ..ServerConfig::default()
        });
        assert!(off.memo().is_none());
        let spec = WorkloadSpec::Star {
            n: 4,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let mut req = request(spec, Policy::DataShipping, OptimizerMode::TwoStep);
        req.cache = vec![0.25, 0.0, 0.5, 0.25];
        let _warmup = on.handle_query(&req).expect("runs");
        let warm = on.handle_query(&req).expect("runs");
        let cold = off.handle_query(&req).expect("runs");
        assert_eq!(warm, cold, "warm memo hit must match the memo-off plan");
        assert_eq!(off.stats_snapshot().memo_hits, 0);
        assert!(on.stats_snapshot().memo_hits > 0);
    }

    #[test]
    fn bad_requests_get_typed_errors() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 2,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let mut req = request(spec, Policy::DataShipping, OptimizerMode::TwoPhase);
        req.loads = vec![(9, 50.0)]; // server 9 does not exist (topology 2)
        let err = service.handle_query(&req).expect_err("rejected");
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.id, 7);
    }

    #[test]
    fn unusable_cache_degrades_to_query_shipping() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 2,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let mut req = request(spec.clone(), Policy::DataShipping, OptimizerMode::TwoPhase);
        req.cache = vec![0.5; 10]; // more cache entries than relations
        let record = service.handle_query(&req).expect("served degraded");
        assert_eq!(record.degraded_from, Some(Policy::DataShipping));
        assert_eq!(record.degrade_reason, Some(DegradeReason::CacheUnusable));

        // The degraded run is byte-identical to an honest QS request
        // with no cache declaration (the unusable one is ignored).
        let mut qs = request(spec.clone(), Policy::QueryShipping, OptimizerMode::TwoPhase);
        qs.cache = vec![];
        let honest = service.handle_query(&qs).expect("runs");
        assert_eq!(record.pages_sent, honest.pages_sent);
        assert_eq!(record.response_secs, honest.response_secs);

        // A QS request with an unusable cache needs no downgrade: the
        // declaration is dropped but the policy is already minimal.
        let mut req = request(spec, Policy::QueryShipping, OptimizerMode::TwoPhase);
        req.cache = vec![0.5; 10];
        let record = service.handle_query(&req).expect("runs");
        assert_eq!(record.degraded_from, None);
        assert_eq!(record.degrade_reason, None);
    }

    #[test]
    fn mem_budget_degrades_to_qs_and_matches_honest_qs() {
        let service = QueryService::new(ServerConfig {
            // Enough for the QS result bound (250 pages for the keyed
            // benchmark chain) but not for client-sited join inputs.
            mem_budget_pages: Some(300),
            ..ServerConfig::default()
        });
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec.clone(), Policy::DataShipping, OptimizerMode::TwoPhase);
        let record = service.handle_query(&req).expect("served degraded");
        assert_eq!(record.degraded_from, Some(Policy::DataShipping));
        assert_eq!(record.degrade_reason, Some(DegradeReason::MemBound));

        // The degraded run is byte-identical to an honest QS request on
        // an unbudgeted server: the gate changes *which* plan runs,
        // never how a plan executes.
        let honest = QueryService::new(ServerConfig::default())
            .handle_query(&request(
                spec,
                Policy::QueryShipping,
                OptimizerMode::TwoPhase,
            ))
            .expect("runs");
        assert_eq!(record.pages_sent, honest.pages_sent);
        assert_eq!(record.response_secs, honest.response_secs);
        assert_eq!(record.result_tuples, honest.result_tuples);
    }

    #[test]
    fn mem_budget_rejects_when_even_qs_cannot_fit() {
        let service = QueryService::new(ServerConfig {
            mem_budget_pages: Some(10),
            ..ServerConfig::default()
        });
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        for (policy, optimizer) in [
            (Policy::QueryShipping, OptimizerMode::TwoPhase),
            (Policy::DataShipping, OptimizerMode::TwoStep),
        ] {
            let err = service
                .handle_query(&request(spec.clone(), policy, optimizer))
                .expect_err("no plan fits 10 pages");
            assert_eq!(err.code, ErrorCode::MemBoundExceeded);
            assert_eq!(err.retry_after_ms, Some(RETRY_AFTER_MS));
        }
    }

    #[test]
    fn generous_mem_budget_is_inert() {
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec, Policy::HybridShipping, OptimizerMode::TwoPhase);
        let gated = QueryService::new(ServerConfig {
            mem_budget_pages: Some(u64::MAX),
            ..ServerConfig::default()
        })
        .handle_query(&req)
        .expect("runs");
        let ungated = QueryService::new(ServerConfig::default())
            .handle_query(&req)
            .expect("runs");
        assert_eq!(gated, ungated);
    }

    #[test]
    fn wire_keys_override_the_implied_declarations() {
        let service = QueryService::new(ServerConfig {
            mem_budget_pages: Some(300),
            ..ServerConfig::default()
        });
        let spec = WorkloadSpec::Chain {
            n: 2,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        // With the generator-implied keys the QS result bound is one
        // relation (250 pages): admitted.
        let mut req = request(spec, Policy::QueryShipping, OptimizerMode::TwoPhase);
        let ok = service.handle_query(&req).expect("fits under implied keys");
        assert_eq!(ok.degraded_from, None);
        // A client stripping the declarations drops the bound to the
        // product rule (10^8 tuples), which no 300-page budget admits.
        req.keys = Some(vec![]);
        let err = service.handle_query(&req).expect_err("product bound");
        assert_eq!(err.code, ErrorCode::MemBoundExceeded);
    }

    #[test]
    fn admission_degrade_runs_qs_and_lints_clean() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec, Policy::HybridShipping, OptimizerMode::TwoPhase);
        let record = service
            .handle_query_ctx(
                &req,
                &CancelToken::inert(),
                Some(DegradeReason::Saturated),
                None,
            )
            .expect("served degraded");
        assert_eq!(record.degraded_from, Some(Policy::HybridShipping));
        assert_eq!(record.degrade_reason, Some(DegradeReason::Saturated));
    }

    #[test]
    fn stale_catalog_verdict_degrades_non_qs_requests() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(
            spec.clone(),
            Policy::HybridShipping,
            OptimizerMode::TwoPhase,
        );
        let record = service
            .handle_query_ctx(
                &req,
                &CancelToken::inert(),
                None,
                Some(CatalogVerdict::Degrade),
            )
            .expect("served degraded");
        assert_eq!(record.degraded_from, Some(Policy::HybridShipping));
        assert_eq!(record.degrade_reason, Some(DegradeReason::StaleCatalog));

        // Saturation outranks staleness in the reported reason.
        let record = service
            .handle_query_ctx(
                &req,
                &CancelToken::inert(),
                Some(DegradeReason::Saturated),
                Some(CatalogVerdict::Degrade),
            )
            .expect("served degraded");
        assert_eq!(record.degrade_reason, Some(DegradeReason::Saturated));

        // A Fresh verdict changes nothing.
        let record = service
            .handle_query_ctx(
                &req,
                &CancelToken::inert(),
                None,
                Some(CatalogVerdict::Fresh),
            )
            .expect("served fresh");
        assert_eq!(record.degraded_from, None);
        assert_eq!(record.degrade_reason, None);
    }

    #[test]
    fn stale_catalog_verdict_rejects_qs_with_retry_hint() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 2,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec, Policy::QueryShipping, OptimizerMode::TwoPhase);
        let err = service
            .handle_query_ctx(
                &req,
                &CancelToken::inert(),
                None,
                Some(CatalogVerdict::Reject { lag: 5 }),
            )
            .expect_err("bounced");
        assert_eq!(err.code, ErrorCode::StaleCatalog);
        assert_eq!(err.retry_after_ms, Some(RETRY_AFTER_MS));
        assert!(err.message.contains("5 epochs behind"));
    }

    #[test]
    fn drift_model_is_inert_without_faults_and_deterministic_with() {
        use csqp_net::chaos::FaultPlan;
        let spec = WorkloadSpec::Chain {
            n: 3,
            selectivity: csqp_workload::MODERATE_SEL,
        };

        // Unarmed: no epochs, no trace, no verdict — the layer is inert.
        let quiet = QueryService::new(ServerConfig::default());
        let req = request(
            spec.clone(),
            Policy::HybridShipping,
            OptimizerMode::TwoPhase,
        );
        assert_eq!(quiet.catalog_verdict(0, &req), None);
        assert_eq!(quiet.catalog_epoch(), 0);
        assert!(quiet.drift_trace().is_empty());

        // Armed: the same seeded request stream produces the same
        // verdicts, trace, and counters on two independent services.
        let armed = || {
            QueryService::new(ServerConfig {
                catalog_faults: Some(FaultPlan::new(0xD81F7, 0.8)),
                catalog_lag: 1,
                ..ServerConfig::default()
            })
        };
        let (a, b) = (armed(), armed());
        let verdicts = |svc: &QueryService| {
            (0..64u64)
                .map(|i| {
                    let mut r = request(
                        spec.clone(),
                        Policy::HybridShipping,
                        OptimizerMode::TwoPhase,
                    );
                    r.seed = 1000 + i;
                    svc.catalog_verdict(0, &r)
                })
                .collect::<Vec<_>>()
        };
        let (va, vb) = (verdicts(&a), verdicts(&b));
        assert_eq!(va, vb, "same seeds, same drift trajectory");
        assert_eq!(a.drift_trace(), b.drift_trace());
        assert!(a.catalog_epoch() >= 64, "every query publishes");
        assert!(va.iter().all(|v| v.is_some()));
        // The mix must exercise both sides of the lattice.
        assert!(va.contains(&Some(CatalogVerdict::Fresh)));
        assert!(va.contains(&Some(CatalogVerdict::Degrade)));
        let stats = a.stats_snapshot();
        assert_eq!(stats.catalog_epoch, a.catalog_epoch());
        assert!(stats.catalog_refreshes > 0);
        assert!(stats.catalog_max_lag > 1, "withheld bursts push past lag 1");
    }

    #[test]
    fn each_catalog_fault_moves_the_shard_epoch_as_specified() {
        use csqp_net::chaos::{CatalogFault, FaultPlan};
        let plan = FaultPlan::new(0xD81F7, 0.8);
        let service = QueryService::new(ServerConfig {
            catalog_faults: Some(plan),
            catalog_lag: 2,
            ..ServerConfig::default()
        });
        let seed_for = |kind: CatalogFault| {
            (0..4096u64)
                .find(|&s| plan.catalog_fault_for(s) == kind)
                .expect("every fault kind is drawn within 4096 seeds")
        };
        // Admit one HY request whose seed draws `kind` at shard 0, and
        // return the verdict plus the events it appended.
        let admit = |kind: CatalogFault| {
            let mut req = request(
                WorkloadSpec::Chain {
                    n: 3,
                    selectivity: csqp_workload::MODERATE_SEL,
                },
                Policy::HybridShipping,
                OptimizerMode::TwoPhase,
            );
            req.seed = seed_for(kind);
            let before = service.drift_trace().len();
            let verdict = service.catalog_verdict(0, &req);
            (verdict, service.drift_trace()[before..].to_vec(), req.seed)
        };
        let serve_of = |events: &[DriftEvent]| match events.last() {
            Some(&DriftEvent::Serve {
                priced_epoch,
                coordinator_epoch,
                lag,
                action,
                ..
            }) => (priced_epoch, coordinator_epoch, lag, action),
            other => panic!("a query's events end with its serve, got {other:?}"),
        };

        // None: the shard refreshes to the new coordinator epoch.
        let (verdict, events, _) = admit(CatalogFault::None);
        assert_eq!(
            events,
            vec![
                DriftEvent::Publish { epoch: 1 },
                DriftEvent::Refresh {
                    site: 0,
                    from: 0,
                    to: 1,
                    applied: true
                },
                DriftEvent::Serve {
                    site: 0,
                    priced_epoch: 1,
                    coordinator_epoch: 1,
                    lag: 0,
                    action: DriftAction::Fresh
                },
            ]
        );
        assert_eq!(verdict, Some(CatalogVerdict::Fresh));

        // WithheldRefresh: a burst of publishes, no refresh, and the lag
        // grows by the burst.
        let (verdict, events, seed) = admit(CatalogFault::WithheldRefresh);
        let burst = (1 + plan.catalog_rng_for(seed).derive(1).below(4)) as u64;
        let publishes = events
            .iter()
            .filter(|e| matches!(e, DriftEvent::Publish { .. }))
            .count() as u64;
        assert_eq!(publishes, burst);
        assert!(!events
            .iter()
            .any(|e| matches!(e, DriftEvent::Refresh { .. })));
        let (priced, coord, lag, _) = serve_of(&events);
        assert_eq!((priced, coord, lag), (1, 1 + burst, burst));
        let expected = if lag <= 2 {
            CatalogVerdict::Fresh
        } else {
            CatalogVerdict::Degrade
        };
        assert_eq!(verdict, Some(expected));

        // TornEpoch: applied, landing one short of the coordinator.
        let (_, events, _) = admit(CatalogFault::TornEpoch);
        let (priced, coord, lag, _) = serve_of(&events);
        assert!(events.contains(&DriftEvent::Refresh {
            site: 0,
            from: 1,
            to: coord - 1,
            applied: true,
        }));
        assert_eq!((priced, lag), (coord - 1, 1));

        // ReorderedEpoch: recorded unapplied; the shard keeps its epoch.
        let held = priced;
        let (_, events, _) = admit(CatalogFault::ReorderedEpoch);
        let (priced, coord, lag, _) = serve_of(&events);
        assert!(events.contains(&DriftEvent::Refresh {
            site: 0,
            from: held,
            to: held - 1,
            applied: false,
        }));
        assert_eq!(
            priced, held,
            "a reordered delivery never moves the epoch back"
        );
        assert_eq!(lag, coord - held);

        // PoisonedFraction: refreshed to current, yet degraded by the
        // poison even at lag 0.
        let (verdict, events, _) = admit(CatalogFault::PoisonedFraction);
        let (_, _, lag, action) = serve_of(&events);
        assert!(events.contains(&DriftEvent::Poison { site: 0 }));
        assert_eq!((lag, action), (0, DriftAction::Degraded));
        assert_eq!(verdict, Some(CatalogVerdict::Degrade));
        // The poison lasts one query: the next clean refresh serves fresh.
        let (verdict, _, _) = admit(CatalogFault::None);
        assert_eq!(verdict, Some(CatalogVerdict::Fresh));

        let report = csqp_verify::catalog::check_drift(&service.drift_trace(), 2);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn epoch_publication_bumps_the_memo_generation() {
        use csqp_net::chaos::FaultPlan;
        let service = QueryService::new(ServerConfig {
            catalog_faults: Some(FaultPlan::new(7, 1.0)),
            ..ServerConfig::default()
        });
        let memo = service.memo().expect("memo on by default");
        let before = memo.generation();
        let req = request(
            WorkloadSpec::Chain {
                n: 2,
                selectivity: csqp_workload::MODERATE_SEL,
            },
            Policy::QueryShipping,
            OptimizerMode::TwoStep,
        );
        let _ = service.catalog_verdict(0, &req);
        assert!(
            memo.generation() > before,
            "publishing an epoch must invalidate the memo"
        );
    }

    #[test]
    fn expired_deadline_yields_typed_error() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 4,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec, Policy::HybridShipping, OptimizerMode::TwoPhase);
        let guard = CancelToken::with_deadline(Instant::now());
        let err = service
            .handle_query_ctx(&req, &guard, None, None)
            .expect_err("deadline already gone");
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert_eq!(err.retry_after_ms, Some(RETRY_AFTER_MS));
    }

    #[test]
    fn cancelled_guard_yields_aborted() {
        let service = QueryService::new(ServerConfig::default());
        let spec = WorkloadSpec::Chain {
            n: 4,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        let req = request(spec, Policy::HybridShipping, OptimizerMode::TwoStep);
        let guard = CancelToken::inert();
        guard.cancel();
        let err = service
            .handle_query_ctx(&req, &guard, None, None)
            .expect_err("requester is gone");
        assert_eq!(err.code, ErrorCode::Aborted);
        assert_eq!(err.retry_after_ms, None);
    }

    #[test]
    fn high_water_defaults_scale_with_queue_depth() {
        let cfg = ServerConfig {
            queue_depth: 64,
            ..ServerConfig::default()
        };
        assert_eq!(cfg.effective_high_water(), 48);
        let tiny = ServerConfig {
            queue_depth: 1,
            ..ServerConfig::default()
        };
        assert_eq!(tiny.effective_high_water(), 1);
        let explicit = ServerConfig {
            queue_depth: 64,
            high_water: Some(2),
            ..ServerConfig::default()
        };
        assert_eq!(explicit.effective_high_water(), 2);
    }

    #[test]
    fn topology_shrinks_to_small_queries() {
        let service = QueryService::new(ServerConfig {
            num_servers: 4,
            ..ServerConfig::default()
        });
        let small = WorkloadSpec::Chain {
            n: 2,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        assert_eq!(service.topology_for(&small), 2);
        let big = WorkloadSpec::Chain {
            n: 10,
            selectivity: csqp_workload::MODERATE_SEL,
        };
        assert_eq!(service.topology_for(&big), 4);
        assert_eq!(service.catalog_for(&small).num_servers(), 2);
    }
}
