//! The length-prefixed binary wire protocol.
//!
//! Every frame is a fixed 12-byte header followed by a compact-JSON
//! payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"CSQP"
//! 4       2     protocol version, big-endian (currently 1)
//! 6       1     frame kind (see [`FrameKind`])
//! 7       1     reserved, must be 0
//! 8       4     payload length in bytes, big-endian (≤ 1 MiB)
//! ```
//!
//! | kind | frame      | direction | payload                                  |
//! |------|------------|-----------|------------------------------------------|
//! | 1    | HELLO      | c → s     | client name                              |
//! | 2    | HELLO-ACK  | s → c     | server name, topology size               |
//! | 3    | QUERY      | c → s     | workload spec + cache state + policy …   |
//! | 4    | RESULT     | s → c     | figure-style result record               |
//! | 5    | ERROR      | s → c     | typed code, message, optional retry-after|
//! | 6    | STATS-REQ  | c → s     | (empty object)                           |
//! | 7    | STATS      | s → c     | [`StatsSnapshot`]                        |
//! | 8    | BYE        | c → s     | (empty object)                           |
//!
//! Decoding is total: every malformed input — truncated buffer, wrong
//! magic, unsupported version, oversized length, unknown kind, garbage
//! payload — maps to a typed [`WireError`], never a panic.

use std::fmt;
use std::io::{Read, Write};

use csqp_core::Policy;
use csqp_cost::Objective;
use csqp_engine::LinkStats;
use csqp_json::{obj, Json, JsonError};
use csqp_workload::WorkloadSpec;

/// Protocol magic, first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"CSQP";

/// Current protocol version.
pub const PROTOCOL_VERSION: u16 = 1;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a payload; larger lengths are rejected before any
/// allocation happens.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// Integers on the wire are JSON numbers (IEEE-754 doubles), so `id` and
/// `seed` fields are constrained to values a double represents exactly.
/// Decoding rejects anything at or above this bound rather than silently
/// rounding it.
pub const MAX_SAFE_INT: u64 = 1 << 53;

/// Frame discriminator (byte 6 of the header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Session opener, client → server.
    Hello = 1,
    /// Session acknowledgement, server → client.
    HelloAck = 2,
    /// One query request.
    Query = 3,
    /// The result record of one query.
    Result = 4,
    /// A typed error (request- or session-scoped).
    Error = 5,
    /// Request for a metrics snapshot.
    StatsRequest = 6,
    /// A [`StatsSnapshot`].
    Stats = 7,
    /// Orderly session close, client → server.
    Bye = 8,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::HelloAck,
            3 => FrameKind::Query,
            4 => FrameKind::Result,
            5 => FrameKind::Error,
            6 => FrameKind::StatsRequest,
            7 => FrameKind::Stats,
            8 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// Everything that can go wrong reading a frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header names a protocol version this build does not speak.
    BadVersion(u16),
    /// The header names an unknown frame kind.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The buffer ended before the declared frame did.
    Truncated {
        /// Bytes the frame needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload is not the JSON document the frame kind requires.
    Payload(JsonError),
    /// The stream's read timeout fired and no frame is in progress (or a
    /// partial frame stayed stalled past the resume budget). Unlike
    /// [`WireError::Io`], this is not fatal: the caller may simply try
    /// again.
    TimedOut,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversized(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: need {expected} bytes, have {got}")
            }
            WireError::Payload(e) => write!(f, "bad payload: {e}"),
            WireError::TimedOut => write!(f, "read timed out with no complete frame"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> WireError {
        WireError::Payload(e)
    }
}

/// How the server chooses a plan for a request (§3.1.1 vs §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerMode {
    /// Full two-phase (II + SA) optimization per request.
    TwoPhase,
    /// §5's 2-step strategy: the join order is compiled once per query
    /// shape (and cached); each request only runs runtime site selection
    /// against the current catalog + the client's declared cache state.
    TwoStep,
}

impl OptimizerMode {
    fn as_str(self) -> &'static str {
        match self {
            OptimizerMode::TwoPhase => "two-phase",
            OptimizerMode::TwoStep => "two-step",
        }
    }

    fn parse(s: &str) -> Result<OptimizerMode, JsonError> {
        match s {
            "two-phase" => Ok(OptimizerMode::TwoPhase),
            "two-step" => Ok(OptimizerMode::TwoStep),
            _ => Err(JsonError::decode(
                "optimizer",
                "expected \"two-phase\" or \"two-step\"",
            )),
        }
    }
}

fn policy_to_str(p: Policy) -> &'static str {
    p.short()
}

fn policy_parse(s: &str) -> Result<Policy, JsonError> {
    match s {
        "DS" => Ok(Policy::DataShipping),
        "QS" => Ok(Policy::QueryShipping),
        "HY" => Ok(Policy::HybridShipping),
        _ => Err(JsonError::decode(
            "policy",
            "expected \"DS\", \"QS\" or \"HY\"",
        )),
    }
}

fn objective_to_str(o: Objective) -> &'static str {
    match o {
        Objective::Communication => "communication",
        Objective::ResponseTime => "response-time",
        Objective::TotalCost => "total-cost",
    }
}

fn objective_parse(s: &str) -> Result<Objective, JsonError> {
    match s {
        "communication" => Ok(Objective::Communication),
        "response-time" => Ok(Objective::ResponseTime),
        "total-cost" => Ok(Objective::TotalCost),
        _ => Err(JsonError::decode(
            "objective",
            "expected \"communication\", \"response-time\" or \"total-cost\"",
        )),
    }
}

fn u64_of(doc: &Json, k: &str) -> Result<u64, JsonError> {
    doc.field(k)?
        .as_u64()
        .ok_or_else(|| JsonError::decode(k, "expected a non-negative integer"))
}

/// A u64 counter that older peers may omit entirely (defaults to 0).
fn u64_opt_of(doc: &Json, k: &str) -> Result<u64, JsonError> {
    match doc.get(k) {
        None => Ok(0),
        Some(_) => u64_of(doc, k),
    }
}

/// A u64 that must survive the f64 wire representation exactly.
fn safe_u64_of(doc: &Json, k: &str) -> Result<u64, JsonError> {
    let v = u64_of(doc, k)?;
    if v >= MAX_SAFE_INT {
        return Err(JsonError::decode(
            k,
            "must be below 2^53 (the JSON-exact integer range)",
        ));
    }
    Ok(v)
}

fn f64_of(doc: &Json, k: &str) -> Result<f64, JsonError> {
    doc.field(k)?
        .as_f64()
        .ok_or_else(|| JsonError::decode(k, "expected a number"))
}

fn str_of<'a>(doc: &'a Json, k: &str) -> Result<&'a str, JsonError> {
    doc.field(k)?
        .as_str()
        .ok_or_else(|| JsonError::decode(k, "expected a string"))
}

fn f64_arr_of(doc: &Json, k: &str) -> Result<Vec<f64>, JsonError> {
    doc.field(k)?
        .as_arr()
        .ok_or_else(|| JsonError::decode(k, "expected an array"))?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| JsonError::decode(k, "expected numbers"))
        })
        .collect()
}

/// Session opener.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// Free-form client identifier (shows up in server logs).
    pub client: String,
}

/// Session acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloAck {
    /// Free-form server identifier.
    pub server: String,
    /// Number of data servers in the hosted topology.
    pub num_servers: u32,
    /// Largest number of QUERY frames the client may have outstanding on
    /// this session before reading replies (the server's configured
    /// window, capped so the session machine stays finite — see
    /// `csqp_verify::protocol::MAX_SERIALS`). A QUERY past the window is
    /// rejected with a `saturated` ERROR. Absent on the wire means 1, so
    /// pre-pipelining peers interoperate.
    pub pipeline_depth: u32,
}

/// One query request: the workload spec, the client's declared cache
/// state, and the optimization directives.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client-chosen request id, echoed in the RESULT / ERROR frame.
    /// Must be below [`MAX_SAFE_INT`].
    pub id: u64,
    /// The query shape to run.
    pub spec: WorkloadSpec,
    /// Declared client cache state: fraction of each relation cached at
    /// the client, indexed by relation id. May be shorter than the
    /// relation count (missing entries mean uncached).
    pub cache: Vec<f64>,
    /// Execution policy for site selection (Table 1).
    pub policy: Policy,
    /// Metric the optimizer minimizes.
    pub objective: Objective,
    /// Per-request or precompiled planning.
    pub optimizer: OptimizerMode,
    /// Seed for the optimizer's randomized search and the simulation.
    /// Must be below [`MAX_SAFE_INT`].
    pub seed: u64,
    /// External random-read loads: `(server index ≥ 1, requests/sec)`.
    pub loads: Vec<(u32, f64)>,
    /// Wall-clock budget for the whole request (queue wait + planning +
    /// simulation), in milliseconds. `None` means no deadline. Omitted
    /// from the wire when absent, so un-deadlined requests encode exactly
    /// as in protocol version 1's first release.
    pub deadline_ms: Option<u64>,
    /// Relations (by index into the spec's relation list) whose join
    /// attribute the client declares a unary key — the input of the
    /// bounds analyzer. Strictly ascending, each index below the spec's
    /// relation count (validated at decode). `None` means "derive the
    /// keys the spec's own selectivities imply" and is omitted from the
    /// wire, so keyless requests encode exactly as before and old peers
    /// decoding a keyed request simply ignore the field — both sides
    /// stay sound, because the server re-audits every declaration
    /// against the statistics before believing it.
    pub keys: Option<Vec<u32>>,
}

/// Why the server degraded a request's policy to query shipping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The admission queue was past its high-water mark; QS plans ship
    /// the least state and free the worker fastest.
    Saturated,
    /// The declared client cache was unusable (e.g. longer than the
    /// query's relation list), so cache-dependent DS/HY plans had
    /// nothing sound to bind against.
    CacheUnusable,
    /// The shard's catalog replica was beyond the configured
    /// `max_epoch_lag` staleness bound (or its cached-fraction state was
    /// poisoned) and could not refresh in time; QS plans never price the
    /// client cache, so they stay sound under stale fractions.
    StaleCatalog,
    /// The chosen plan's guaranteed worst-case client-memory footprint
    /// exceeded the server's `--mem-budget`; QS plans join at the
    /// servers, so their footprint is the result bound alone.
    MemBound,
}

impl DegradeReason {
    fn as_str(self) -> &'static str {
        match self {
            DegradeReason::Saturated => "saturated",
            DegradeReason::CacheUnusable => "cache-unusable",
            DegradeReason::StaleCatalog => "stale-catalog",
            DegradeReason::MemBound => "mem-bound",
        }
    }

    fn parse(s: &str) -> Result<DegradeReason, JsonError> {
        Ok(match s {
            "saturated" => DegradeReason::Saturated,
            "cache-unusable" => DegradeReason::CacheUnusable,
            "stale-catalog" => DegradeReason::StaleCatalog,
            "mem-bound" => DegradeReason::MemBound,
            _ => return Err(JsonError::decode("degrade_reason", "unknown reason")),
        })
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The figure-style record of one executed query: response time,
/// per-resource utilization, and wire traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRecord {
    /// Echo of the request id.
    pub id: u64,
    /// Elapsed simulated time until the last tuple displayed (§3.1.2).
    pub response_secs: f64,
    /// Data pages shipped (§4.1's communication metric).
    pub pages_sent: u64,
    /// Control messages shipped.
    pub control_msgs: u64,
    /// Total bytes on the wire.
    pub bytes_sent: u64,
    /// Wire utilization over the run.
    pub link_utilization: f64,
    /// Per-site disk utilization, index 0 = client.
    pub disk_utilization: Vec<f64>,
    /// Per-site CPU busy seconds, index 0 = client.
    pub cpu_secs: Vec<f64>,
    /// Tuples displayed at the client.
    pub result_tuples: u64,
    /// When the server degraded the requested policy to query shipping
    /// (Table 1 makes QS legal for every query), the policy originally
    /// requested. Omitted from the wire when the request ran as asked.
    pub degraded_from: Option<Policy>,
    /// Why the policy was degraded; present exactly when
    /// `degraded_from` is.
    pub degrade_reason: Option<DegradeReason>,
}

impl ResultRecord {
    /// Wire counters as the typed [`LinkStats`] record.
    pub fn wire(&self) -> LinkStats {
        LinkStats {
            data_pages_sent: self.pages_sent,
            control_msgs_sent: self.control_msgs,
            bytes_sent: self.bytes_sent,
        }
    }
}

/// Typed error codes carried by ERROR frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame could not be decoded (the session is then closed).
    BadFrame,
    /// The request decoded but referenced impossible parameters.
    BadRequest,
    /// The admission queue is full; retry after the hinted delay.
    Saturated,
    /// The planner produced a plan that violates Table 1 — a server-side
    /// optimizer bug caught by the conformance lint, never executed.
    PolicyViolation,
    /// The plan could not be bound or executed.
    ExecutionFailed,
    /// The server is shutting down.
    ShuttingDown,
    /// The request's `deadline_ms` budget expired before the result was
    /// ready; the work was abandoned at the next cancellation probe.
    DeadlineExceeded,
    /// The request was abandoned for a non-deadline reason (the client
    /// vanished, the server shut down mid-flight).
    Aborted,
    /// The shard's catalog replica was beyond the staleness bound, a
    /// refresh was unavailable, and the query was already QS (no
    /// degradation left to take); retry after the hinted delay, by which
    /// time a refresh should have landed.
    StaleCatalog,
    /// Even the query-shipping fallback's guaranteed worst-case result
    /// footprint exceeds the server's memory budget, so no sound plan
    /// fits; retry after the hinted delay (the budget is contended, not
    /// constant).
    MemBoundExceeded,
}

impl ErrorCode {
    fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Saturated => "saturated",
            ErrorCode::PolicyViolation => "policy-violation",
            ErrorCode::ExecutionFailed => "execution-failed",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Aborted => "aborted",
            ErrorCode::StaleCatalog => "stale-catalog",
            ErrorCode::MemBoundExceeded => "mem-bound-exceeded",
        }
    }

    fn parse(s: &str) -> Result<ErrorCode, JsonError> {
        Ok(match s {
            "bad-frame" => ErrorCode::BadFrame,
            "bad-request" => ErrorCode::BadRequest,
            "saturated" => ErrorCode::Saturated,
            "policy-violation" => ErrorCode::PolicyViolation,
            "execution-failed" => ErrorCode::ExecutionFailed,
            "shutting-down" => ErrorCode::ShuttingDown,
            "deadline-exceeded" => ErrorCode::DeadlineExceeded,
            "aborted" => ErrorCode::Aborted,
            "stale-catalog" => ErrorCode::StaleCatalog,
            "mem-bound-exceeded" => ErrorCode::MemBoundExceeded,
            _ => return Err(JsonError::decode("code", "unknown error code")),
        })
    }
}

/// A typed error reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// The request id this error answers (0 for session-level errors).
    pub id: u64,
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Backpressure hint: retry after this many milliseconds.
    pub retry_after_ms: Option<u64>,
}

/// A point-in-time server metrics snapshot (the STATS frame).
///
/// The accounting invariant the chaos harness asserts after every soak
/// is [`StatsSnapshot::conservation_holds`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// QUERY frames decoded and handed to admission control.
    pub submitted: u64,
    /// Queries executed to completion.
    pub queries_served: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Requests that failed with a non-reject error.
    pub errors: u64,
    /// Requests abandoned mid-flight (client vanished, server shut down).
    pub aborted: u64,
    /// Requests whose `deadline_ms` expired before completion.
    pub timed_out: u64,
    /// Requests served after a policy downgrade to query shipping.
    pub degraded: u64,
    /// Served queries per policy, in `[DS, QS, HY]` order.
    pub per_policy: [u64; 3],
    /// Median service latency (queue wait + planning + simulation), ms.
    pub p50_ms: f64,
    /// 95th-percentile service latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile service latency, ms.
    pub p99_ms: f64,
    /// Wire traffic simulated on behalf of clients, summed over queries.
    pub wire: LinkStats,
    /// Site-selection memo hits (two-step requests served from the memo).
    pub memo_hits: u64,
    /// Site-selection memo misses (optimized cold and installed).
    pub memo_misses: u64,
    /// Memo entries evicted under the byte budget.
    pub memo_evictions: u64,
    /// Estimated resident bytes in the memo table.
    pub memo_bytes: u64,
    /// Newest catalog epoch the coordinator has published (0 when
    /// catalog drift is not being injected).
    pub catalog_epoch: u64,
    /// Catalog-replica refreshes that applied cleanly.
    pub catalog_refreshes: u64,
    /// Queries downgraded to QS with the `stale-catalog` reason.
    pub catalog_stale_degraded: u64,
    /// Queries rejected with the typed `stale-catalog` error.
    pub catalog_stale_rejected: u64,
    /// Reordered (older) epoch deliveries the replicas' regression
    /// guards rejected.
    pub catalog_epoch_regressions: u64,
    /// The largest replica epoch lag observed at any serve decision.
    pub catalog_max_lag: u64,
    /// Queries served after a `mem-bound` downgrade to QS: the chosen
    /// plan's worst-case footprint exceeded the memory budget but the
    /// QS fallback fit.
    pub mem_bound_degraded: u64,
    /// Queries rejected with the typed `mem-bound-exceeded` error: even
    /// the QS fallback's guaranteed footprint exceeded the budget.
    pub mem_bound_rejected: u64,
    /// Reactor wait syscalls (`poll`/`epoll_wait`) across all shards.
    pub reactor_wait_calls: u64,
    /// Reactor interest-mutation syscalls (`epoll_ctl`) across all
    /// shards; always zero under the `poll` backend.
    pub reactor_ctl_calls: u64,
    /// Readiness events dispatched to shard event loops.
    pub reactor_events_dispatched: u64,
}

impl StatsSnapshot {
    /// The accounting invariant, `submitted == queries_served +
    /// rejected + errors + aborted + timed_out`: every admitted query
    /// ended in exactly one terminal bucket. Only meaningful once the
    /// server has drained; the chaos harness polls STATS until it settles.
    pub fn conservation_holds(&self) -> bool {
        self.submitted
            == self.queries_served + self.rejected + self.errors + self.aborted + self.timed_out
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener.
    Hello(Hello),
    /// Session acknowledgement.
    HelloAck(HelloAck),
    /// A query request.
    Query(QueryRequest),
    /// A query result.
    Result(ResultRecord),
    /// A typed error.
    Error(ErrorFrame),
    /// Metrics snapshot request.
    StatsRequest,
    /// Metrics snapshot reply.
    Stats(StatsSnapshot),
    /// Orderly close.
    Bye,
}

impl Frame {
    /// The header discriminator for this frame.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Hello(_) => FrameKind::Hello,
            Frame::HelloAck(_) => FrameKind::HelloAck,
            Frame::Query(_) => FrameKind::Query,
            Frame::Result(_) => FrameKind::Result,
            Frame::Error(_) => FrameKind::Error,
            Frame::StatsRequest => FrameKind::StatsRequest,
            Frame::Stats(_) => FrameKind::Stats,
            Frame::Bye => FrameKind::Bye,
        }
    }

    /// The JSON payload of this frame.
    pub fn payload(&self) -> Json {
        match self {
            Frame::Hello(h) => obj(vec![("client", Json::from(h.client.clone()))]),
            Frame::HelloAck(a) => obj(vec![
                ("server", Json::from(a.server.clone())),
                ("num_servers", Json::from(a.num_servers)),
                ("pipeline_depth", Json::from(a.pipeline_depth)),
            ]),
            Frame::Query(q) => {
                let mut fields = vec![
                    ("id", Json::from(q.id)),
                    ("spec", q.spec.to_json()),
                    (
                        "cache",
                        Json::Arr(q.cache.iter().map(|&f| Json::from(f)).collect()),
                    ),
                    ("policy", Json::from(policy_to_str(q.policy))),
                    ("objective", Json::from(objective_to_str(q.objective))),
                    ("optimizer", Json::from(q.optimizer.as_str())),
                    ("seed", Json::from(q.seed)),
                    (
                        "loads",
                        Json::Arr(
                            q.loads
                                .iter()
                                .map(|&(site, rate)| {
                                    obj(vec![
                                        ("server", Json::from(site)),
                                        ("rate_per_sec", Json::from(rate)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ];
                if let Some(ms) = q.deadline_ms {
                    fields.push(("deadline_ms", Json::from(ms)));
                }
                if let Some(keys) = &q.keys {
                    fields.push((
                        "keys",
                        Json::Arr(keys.iter().map(|&k| Json::from(k)).collect()),
                    ));
                }
                obj(fields)
            }
            Frame::Result(r) => {
                let mut fields = vec![
                    ("id", Json::from(r.id)),
                    ("response_secs", Json::from(r.response_secs)),
                    ("pages_sent", Json::from(r.pages_sent)),
                    ("control_msgs", Json::from(r.control_msgs)),
                    ("bytes_sent", Json::from(r.bytes_sent)),
                    ("link_utilization", Json::from(r.link_utilization)),
                    (
                        "disk_utilization",
                        Json::Arr(r.disk_utilization.iter().map(|&v| Json::from(v)).collect()),
                    ),
                    (
                        "cpu_secs",
                        Json::Arr(r.cpu_secs.iter().map(|&v| Json::from(v)).collect()),
                    ),
                    ("result_tuples", Json::from(r.result_tuples)),
                ];
                if let Some(p) = r.degraded_from {
                    fields.push(("degraded_from", Json::from(policy_to_str(p))));
                }
                if let Some(reason) = r.degrade_reason {
                    fields.push(("degrade_reason", Json::from(reason.as_str())));
                }
                obj(fields)
            }
            Frame::Error(e) => {
                let mut fields = vec![
                    ("id", Json::from(e.id)),
                    ("code", Json::from(e.code.as_str())),
                    ("message", Json::from(e.message.clone())),
                ];
                if let Some(ms) = e.retry_after_ms {
                    fields.push(("retry_after_ms", Json::from(ms)));
                }
                obj(fields)
            }
            Frame::StatsRequest | Frame::Bye => obj(vec![]),
            Frame::Stats(s) => obj(vec![
                ("submitted", Json::from(s.submitted)),
                ("queries_served", Json::from(s.queries_served)),
                ("rejected", Json::from(s.rejected)),
                ("errors", Json::from(s.errors)),
                ("aborted", Json::from(s.aborted)),
                ("timed_out", Json::from(s.timed_out)),
                ("degraded", Json::from(s.degraded)),
                (
                    "per_policy",
                    Json::Arr(s.per_policy.iter().map(|&v| Json::from(v)).collect()),
                ),
                ("p50_ms", Json::from(s.p50_ms)),
                ("p95_ms", Json::from(s.p95_ms)),
                ("p99_ms", Json::from(s.p99_ms)),
                ("pages_sent", Json::from(s.wire.data_pages_sent)),
                ("control_msgs", Json::from(s.wire.control_msgs_sent)),
                ("bytes_sent", Json::from(s.wire.bytes_sent)),
                ("memo_hits", Json::from(s.memo_hits)),
                ("memo_misses", Json::from(s.memo_misses)),
                ("memo_evictions", Json::from(s.memo_evictions)),
                ("memo_bytes", Json::from(s.memo_bytes)),
                ("catalog_epoch", Json::from(s.catalog_epoch)),
                ("catalog_refreshes", Json::from(s.catalog_refreshes)),
                (
                    "catalog_stale_degraded",
                    Json::from(s.catalog_stale_degraded),
                ),
                (
                    "catalog_stale_rejected",
                    Json::from(s.catalog_stale_rejected),
                ),
                (
                    "catalog_epoch_regressions",
                    Json::from(s.catalog_epoch_regressions),
                ),
                ("catalog_max_lag", Json::from(s.catalog_max_lag)),
                ("mem_bound_degraded", Json::from(s.mem_bound_degraded)),
                ("mem_bound_rejected", Json::from(s.mem_bound_rejected)),
                ("reactor_wait_calls", Json::from(s.reactor_wait_calls)),
                ("reactor_ctl_calls", Json::from(s.reactor_ctl_calls)),
                (
                    "reactor_events_dispatched",
                    Json::from(s.reactor_events_dispatched),
                ),
            ]),
        }
    }

    /// Rebuild a frame from its kind and parsed payload.
    pub fn from_payload(kind: FrameKind, doc: &Json) -> Result<Frame, JsonError> {
        Ok(match kind {
            FrameKind::Hello => Frame::Hello(Hello {
                client: str_of(doc, "client")?.to_string(),
            }),
            FrameKind::HelloAck => Frame::HelloAck(HelloAck {
                server: str_of(doc, "server")?.to_string(),
                num_servers: u64_of(doc, "num_servers")?
                    .try_into()
                    .map_err(|_| JsonError::decode("num_servers", "out of u32 range"))?,
                pipeline_depth: match doc.get("pipeline_depth") {
                    // Pre-pipelining servers omit the field: one query at
                    // a time, the stop-and-wait semantics of protocol
                    // version 1's first release.
                    None => 1,
                    Some(_) => u64_of(doc, "pipeline_depth")?
                        .try_into()
                        .map_err(|_| JsonError::decode("pipeline_depth", "out of u32 range"))?,
                },
            }),
            FrameKind::Query => {
                let loads = doc
                    .field("loads")?
                    .as_arr()
                    .ok_or_else(|| JsonError::decode("loads", "expected an array"))?
                    .iter()
                    .map(|l| {
                        let site = u64_of(l, "server")?
                            .try_into()
                            .map_err(|_| JsonError::decode("loads.server", "out of range"))?;
                        let rate = f64_of(l, "rate_per_sec")?;
                        if !(rate.is_finite() && rate >= 0.0) {
                            return Err(JsonError::decode(
                                "loads.rate_per_sec",
                                "expected a finite non-negative rate",
                            ));
                        }
                        Ok((site, rate))
                    })
                    .collect::<Result<Vec<(u32, f64)>, JsonError>>()?;
                let cache = f64_arr_of(doc, "cache")?;
                if cache.iter().any(|f| !(0.0..=1.0).contains(f)) {
                    return Err(JsonError::decode(
                        "cache",
                        "cached fractions must be in [0, 1]",
                    ));
                }
                let spec = WorkloadSpec::from_json(doc.field("spec")?)?;
                let keys = match doc.get("keys") {
                    // Old peers omit the field: derive the implied keys.
                    None => None,
                    Some(v) => {
                        let arr = v
                            .as_arr()
                            .ok_or_else(|| JsonError::decode("keys", "expected an array"))?;
                        let num_rels = spec.num_relations() as u64;
                        let mut keys = Vec::with_capacity(arr.len());
                        for k in arr {
                            let idx = k.as_u64().ok_or_else(|| {
                                JsonError::decode("keys", "expected non-negative integers")
                            })?;
                            if idx >= num_rels {
                                return Err(JsonError::decode(
                                    "keys",
                                    "key index beyond the spec's relation count",
                                ));
                            }
                            if keys.last().is_some_and(|&last| idx <= u64::from(last)) {
                                return Err(JsonError::decode(
                                    "keys",
                                    "key indices must be strictly ascending",
                                ));
                            }
                            // Bounded by num_relations, which fits u32.
                            keys.push(idx as u32);
                        }
                        Some(keys)
                    }
                };
                Frame::Query(QueryRequest {
                    id: safe_u64_of(doc, "id")?,
                    spec,
                    cache,
                    policy: policy_parse(str_of(doc, "policy")?)?,
                    objective: objective_parse(str_of(doc, "objective")?)?,
                    optimizer: OptimizerMode::parse(str_of(doc, "optimizer")?)?,
                    seed: safe_u64_of(doc, "seed")?,
                    loads,
                    deadline_ms: match doc.get("deadline_ms") {
                        None => None,
                        Some(_) => Some(safe_u64_of(doc, "deadline_ms")?),
                    },
                    keys,
                })
            }
            FrameKind::Result => Frame::Result(ResultRecord {
                id: safe_u64_of(doc, "id")?,
                response_secs: f64_of(doc, "response_secs")?,
                pages_sent: u64_of(doc, "pages_sent")?,
                control_msgs: u64_of(doc, "control_msgs")?,
                bytes_sent: u64_of(doc, "bytes_sent")?,
                link_utilization: f64_of(doc, "link_utilization")?,
                disk_utilization: f64_arr_of(doc, "disk_utilization")?,
                cpu_secs: f64_arr_of(doc, "cpu_secs")?,
                result_tuples: u64_of(doc, "result_tuples")?,
                degraded_from: match doc.get("degraded_from") {
                    None => None,
                    Some(_) => Some(policy_parse(str_of(doc, "degraded_from")?)?),
                },
                degrade_reason: match doc.get("degrade_reason") {
                    None => None,
                    Some(_) => Some(DegradeReason::parse(str_of(doc, "degrade_reason")?)?),
                },
            }),
            FrameKind::Error => Frame::Error(ErrorFrame {
                id: safe_u64_of(doc, "id")?,
                code: ErrorCode::parse(str_of(doc, "code")?)?,
                message: str_of(doc, "message")?.to_string(),
                retry_after_ms: match doc.get("retry_after_ms") {
                    None => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        JsonError::decode("retry_after_ms", "expected a non-negative integer")
                    })?),
                },
            }),
            FrameKind::StatsRequest => Frame::StatsRequest,
            FrameKind::Stats => Frame::Stats(StatsSnapshot {
                submitted: u64_of(doc, "submitted")?,
                queries_served: u64_of(doc, "queries_served")?,
                rejected: u64_of(doc, "rejected")?,
                errors: u64_of(doc, "errors")?,
                aborted: u64_of(doc, "aborted")?,
                timed_out: u64_of(doc, "timed_out")?,
                degraded: u64_of(doc, "degraded")?,
                per_policy: {
                    let arr = doc
                        .field("per_policy")?
                        .as_arr()
                        .ok_or_else(|| JsonError::decode("per_policy", "expected an array"))?;
                    if arr.len() != 3 {
                        return Err(JsonError::decode("per_policy", "expected 3 counters"));
                    }
                    let mut out = [0u64; 3];
                    for (slot, v) in out.iter_mut().zip(arr) {
                        *slot = v.as_u64().ok_or_else(|| {
                            JsonError::decode("per_policy", "expected non-negative integers")
                        })?;
                    }
                    out
                },
                p50_ms: f64_of(doc, "p50_ms")?,
                p95_ms: f64_of(doc, "p95_ms")?,
                p99_ms: f64_of(doc, "p99_ms")?,
                wire: LinkStats {
                    data_pages_sent: u64_of(doc, "pages_sent")?,
                    control_msgs_sent: u64_of(doc, "control_msgs")?,
                    bytes_sent: u64_of(doc, "bytes_sent")?,
                },
                // Pre-memo servers omit the memo counters.
                memo_hits: u64_opt_of(doc, "memo_hits")?,
                memo_misses: u64_opt_of(doc, "memo_misses")?,
                memo_evictions: u64_opt_of(doc, "memo_evictions")?,
                memo_bytes: u64_opt_of(doc, "memo_bytes")?,
                // Pre-replication servers omit the catalog counters.
                catalog_epoch: u64_opt_of(doc, "catalog_epoch")?,
                catalog_refreshes: u64_opt_of(doc, "catalog_refreshes")?,
                catalog_stale_degraded: u64_opt_of(doc, "catalog_stale_degraded")?,
                catalog_stale_rejected: u64_opt_of(doc, "catalog_stale_rejected")?,
                catalog_epoch_regressions: u64_opt_of(doc, "catalog_epoch_regressions")?,
                catalog_max_lag: u64_opt_of(doc, "catalog_max_lag")?,
                // Pre-bounds servers omit the admission counters.
                mem_bound_degraded: u64_opt_of(doc, "mem_bound_degraded")?,
                mem_bound_rejected: u64_opt_of(doc, "mem_bound_rejected")?,
                // Pre-reactor servers omit the reactor counters.
                reactor_wait_calls: u64_opt_of(doc, "reactor_wait_calls")?,
                reactor_ctl_calls: u64_opt_of(doc, "reactor_ctl_calls")?,
                reactor_events_dispatched: u64_opt_of(doc, "reactor_events_dispatched")?,
            }),
            FrameKind::Bye => Frame::Bye,
        })
    }

    /// Serialize to header + payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.payload().render().into_bytes();
        debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        out.push(self.kind() as u8);
        out.push(0);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decode one frame from a buffer that must contain it exactly (the
    /// streaming reader hands over complete frames; tests feed corrupt
    /// buffers directly).
    pub fn decode(buf: &[u8]) -> Result<Frame, WireError> {
        let (kind, payload_len) = decode_header(buf)?;
        let total = HEADER_LEN + payload_len;
        if buf.len() < total {
            return Err(WireError::Truncated {
                expected: total,
                got: buf.len(),
            });
        }
        let payload = &buf[HEADER_LEN..total];
        let text = std::str::from_utf8(payload).map_err(|_| {
            WireError::Payload(JsonError::decode("payload", "payload is not UTF-8"))
        })?;
        let doc = Json::parse(text)?;
        Ok(Frame::from_payload(kind, &doc)?)
    }
}

/// Parse and validate a header prefix; returns the frame kind and
/// payload length.
pub fn decode_header(buf: &[u8]) -> Result<(FrameKind, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            expected: HEADER_LEN,
            got: buf.len(),
        });
    }
    if buf[0..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&buf[0..4]);
        return Err(WireError::BadMagic(m));
    }
    let version = u16::from_be_bytes([buf[4], buf[5]]);
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = FrameKind::from_u8(buf[6]).ok_or(WireError::UnknownKind(buf[6]))?;
    let len = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok((kind, len as usize))
}

/// Write one frame to a blocking stream.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame.encode())?;
    w.flush()
}

/// Consecutive mid-frame read timeouts [`read_frame`] rides out before
/// giving up on a stalled peer. With the serving stack's 200 ms read
/// timeout this bounds a wedged partial frame to about a minute instead
/// of hanging the caller forever.
pub const MID_FRAME_TIMEOUT_BUDGET: u32 = 300;

/// True for the transient read errors a blocking-stream reader should
/// ride out rather than treat as a dead connection: a fired read
/// timeout (`WouldBlock` on Unix, `TimedOut` on Windows) or a signal
/// interruption.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted
    )
}

/// Read one complete frame from a blocking stream. An EOF before the
/// first header byte returns `Ok(None)`; an EOF mid-frame is
/// [`WireError::Truncated`].
///
/// Transient read errors do not tear the stream down: `Interrupted` is
/// always retried; a read timeout *between* frames surfaces as the
/// non-fatal [`WireError::TimedOut`] (try again later); a timeout in the
/// middle of a frame resumes the partial read — the bytes already
/// buffered stay buffered — for up to [`MID_FRAME_TIMEOUT_BUDGET`]
/// consecutive timeouts before reporting `TimedOut`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, WireError> {
    let mut timeouts = 0u32;
    let mut fill = |r: &mut R, buf: &mut [u8], mut at: usize| -> Result<usize, WireError> {
        while at < buf.len() {
            match r.read(&mut buf[at..]) {
                Ok(0) => return Ok(at),
                Ok(n) => {
                    at += n;
                    timeouts = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_transient(&e) => {
                    // A timeout before the first byte means "no frame in
                    // progress"; mid-frame it means "resume, the rest is
                    // still coming" — up to the stall budget.
                    if at == 0 {
                        return Err(WireError::TimedOut);
                    }
                    timeouts += 1;
                    if timeouts >= MID_FRAME_TIMEOUT_BUDGET {
                        return Err(WireError::TimedOut);
                    }
                }
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        Ok(at)
    };
    let mut header = [0u8; HEADER_LEN];
    let filled = fill(r, &mut header, 0)?;
    if filled == 0 {
        return Ok(None);
    }
    if filled < HEADER_LEN {
        return Err(WireError::Truncated {
            expected: HEADER_LEN,
            got: filled,
        });
    }
    let (_, payload_len) = decode_header(&header)?;
    let mut buf = Vec::with_capacity(HEADER_LEN + payload_len);
    buf.extend_from_slice(&header);
    buf.resize(HEADER_LEN + payload_len, 0);
    let at = fill(r, &mut buf, HEADER_LEN)?;
    if at < buf.len() {
        return Err(WireError::Truncated {
            expected: HEADER_LEN + payload_len,
            got: at,
        });
    }
    Frame::decode(&buf).map(Some)
}

/// An incremental frame reader for streams with read timeouts: partial
/// reads accumulate across calls, so a timeout never loses bytes.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

/// One step of the incremental reader.
///
/// The `Frame` variant dwarfs the unit variants, but a `ReadStep` lives
/// only on the stack between `poll_frame` and its caller's `match` — it
/// is never stored or collected — so boxing would buy nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum ReadStep {
    /// A complete frame arrived.
    Frame(Frame),
    /// No complete frame yet (the read timed out or more bytes are due).
    Pending,
    /// The peer closed the stream between frames.
    Closed,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Pull bytes from `r` once and return at most one frame. Transient
    /// read errors — a fired read timeout (`WouldBlock` / `TimedOut`) or
    /// a signal interruption (`Interrupted`) — surface as
    /// [`ReadStep::Pending`]: the bytes already buffered stay buffered
    /// and the next step resumes the partial frame.
    pub fn step<R: Read>(&mut self, r: &mut R) -> Result<ReadStep, WireError> {
        if let Some(frame) = self.try_take()? {
            return Ok(ReadStep::Frame(frame));
        }
        let mut chunk = [0u8; 4096];
        match r.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Ok(ReadStep::Closed)
                } else {
                    Err(WireError::Truncated {
                        expected: HEADER_LEN.max(self.buf.len() + 1),
                        got: self.buf.len(),
                    })
                }
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                match self.try_take()? {
                    Some(frame) => Ok(ReadStep::Frame(frame)),
                    None => Ok(ReadStep::Pending),
                }
            }
            Err(e) if is_transient(&e) => Ok(ReadStep::Pending),
            Err(e) => Err(WireError::Io(e)),
        }
    }

    /// True when a frame is partially buffered (the stream is mid-frame).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Extract a complete frame from the front of the buffer, if one is
    /// already there.
    fn try_take(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let (_, payload_len) = decode_header(&self.buf)?;
        let total = HEADER_LEN + payload_len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode(&self.buf[..total])?;
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_round_trips() {
        let f = Frame::Hello(Hello {
            client: "csqp-load".into(),
        });
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn reader_handles_split_frames() {
        let f = Frame::Bye;
        let bytes = f.encode();
        let mut reader = FrameReader::new();
        let (a, b) = bytes.split_at(5);
        let mut src: &[u8] = a;
        assert!(matches!(reader.step(&mut src).unwrap(), ReadStep::Pending));
        let mut src: &[u8] = b;
        assert!(matches!(
            reader.step(&mut src).unwrap(),
            ReadStep::Frame(Frame::Bye)
        ));
    }

    #[test]
    fn step_drains_pipelined_frames_before_reading() {
        // Two frames land in one read; the next step hands over the
        // buffered one without touching its (now empty) stream.
        let mut bytes = Frame::StatsRequest.encode();
        bytes.extend_from_slice(&Frame::Bye.encode());
        let mut reader = FrameReader::new();
        let mut src: &[u8] = &bytes;
        assert!(matches!(
            reader.step(&mut src).unwrap(),
            ReadStep::Frame(Frame::StatsRequest)
        ));
        let mut empty: &[u8] = &[];
        assert!(matches!(
            reader.step(&mut empty).unwrap(),
            ReadStep::Frame(Frame::Bye)
        ));
        assert!(!reader.mid_frame());
        assert!(matches!(reader.step(&mut empty).unwrap(), ReadStep::Closed));
    }

    #[test]
    fn hello_ack_defaults_pipeline_depth_for_old_peers() {
        // An ack encoded without the field (a pre-pipelining server)
        // decodes to the stop-and-wait window of 1.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&PROTOCOL_VERSION.to_be_bytes());
        frame.push(FrameKind::HelloAck as u8);
        frame.push(0);
        let payload = br#"{"server":"old","num_servers":4}"#;
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        match Frame::decode(&frame).unwrap() {
            Frame::HelloAck(a) => {
                assert_eq!(a.pipeline_depth, 1);
                assert_eq!(a.num_servers, 4);
            }
            other => panic!("expected HELLO-ACK, got {:?}", other.kind()),
        }
    }

    #[test]
    fn header_errors_are_typed() {
        let good = Frame::Bye.encode();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            Frame::decode(&bad_version),
            Err(WireError::BadVersion(_))
        ));
        let mut bad_kind = good.clone();
        bad_kind[6] = 99;
        assert!(matches!(
            Frame::decode(&bad_kind),
            Err(WireError::UnknownKind(99))
        ));
        let mut oversized = good;
        oversized[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert!(matches!(
            Frame::decode(&oversized),
            Err(WireError::Oversized(_))
        ));
        assert!(matches!(
            Frame::decode(&[0u8; 3]),
            Err(WireError::Truncated { .. })
        ));
    }
}
