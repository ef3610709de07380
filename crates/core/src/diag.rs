//! Rich plan diagnostics.
//!
//! The checks in this crate (structure, well-formedness, policy
//! conformance) and the analyzer passes in `csqp-verify` all report
//! failures as a [`Diagnostic`]: a machine-readable [`DiagCode`], the
//! offending node with its *path* from the plan root (e.g.
//! `display/join[0]/select`), and a human-readable detail line. This
//! replaces the seed's mix of `bool` returns, `String` errors, and
//! `expect("validated arity")` panics.
//!
//! `csqp-verify` re-exports these types as its error vocabulary; the codes
//! for its cost-model and simulator passes live here too so a single enum
//! covers every pass.

use std::fmt;

use crate::plan::{NodeId, Plan};

/// Machine-readable diagnostic category, one per invariant the checkers
/// enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    // -- structural pass --------------------------------------------------
    /// The plan root is not a display operator.
    RootNotDisplay,
    /// An operator has the wrong number of children for its arity.
    BadArity,
    /// A child reference is out of the arena, or an annotation points at
    /// an empty child slot.
    DanglingChild,
    /// A node is referenced by more than one parent (the plan is a DAG,
    /// not a tree).
    SharedNode,
    /// An annotation that no policy ever allows for the operator.
    IllegalAnnotation,
    /// A base relation is scanned more than once.
    DuplicateScan,
    /// A select does not sit directly over the scan of its relation.
    SelectPlacement,
    /// The two children of a join cover overlapping relation sets.
    JoinOverlap,
    /// The plan's aggregate does not match the query's (missing, spurious,
    /// or wrong group count).
    AggregateMismatch,
    /// The set of scanned relations differs from the query's relations.
    ScanCoverage,
    /// A two-node annotation cycle (§2.2.3): binding would not terminate.
    AnnotationCycle,
    /// Site binding stalled without a two-node cycle being found first.
    UnresolvedSite,
    // -- policy pass -------------------------------------------------------
    /// An annotation outside the policy's Table 1 row for the operator.
    PolicyViolation,
    // -- cost pass ---------------------------------------------------------
    /// A resource-usage vector has a negative component.
    NegativeResource,
    /// A node's response time exceeds the sum of its phases.
    ResponseExceedsPhases,
    /// Scaling cardinalities up made the plan cheaper.
    NonMonotoneCost,
    /// A cardinality estimate exceeds the product of base-relation sizes.
    CardinalityBound,
    /// A simulator configuration parameter is outside its sane range
    /// (zero page size, random I/O faster than sequential, …).
    ConfigInvariant,
    // -- simulator pass ----------------------------------------------------
    /// The event queue delivered an event before the current clock.
    EventTimeRegression,
    /// Same-timestamp events are delivered in insertion-order-dependent
    /// order that changes observable statistics.
    TieBreakNondeterminism,
    // -- protocol model checker (`csqp-verify::protocol`) -------------------
    /// A reachable non-terminal session state with no enabled event: the
    /// session can neither progress nor be swept.
    ProtocolStuck,
    /// The session machine emitted two replies for one admitted request.
    ProtocolDoubleReply,
    /// The pipeline-window invariant broke: more queries in flight than
    /// the advertised depth, or an admission that never claimed a slot.
    ProtocolWindowLeak,
    /// An admitted query reached a terminal session state without being
    /// answered or cancelled (the worker is leaked).
    ProtocolWorkerLeak,
    /// The sweep invariant broke: a session that satisfies its finish
    /// condition was never closed.
    ProtocolSweepMissed,
    // -- system model checker (`csqp-verify::system`) ------------------------
    /// Cross-session starvation: a queued admission was overtaken by more
    /// than the bounded number of other sessions' jobs before a worker
    /// picked it up.
    SystemStarvation,
    /// Global worker conservation broke: an admitted query of a live
    /// session has no backing job in the admission queue, the worker
    /// pool, or the completion channel (or has more than one).
    SystemWorkerLeak,
    /// A completion was posted while the shard was polling and can sit in
    /// the channel forever: delivery is disabled along a reachable lasso,
    /// so the reply never reaches a write.
    SystemLostWakeup,
    /// The shutdown sweep left a session open (or an outstanding serial
    /// neither replied nor cancelled) after the pool closed.
    SystemSweepIncomplete,
    // -- memo-consistency pass (`csqp-verify::memo`) -------------------------
    /// A memo entry's stored fingerprint does not re-derive from its
    /// witness bytes, or a compiled entry's witness is not the canonical
    /// preimage of its structured key: the collision guard is broken.
    MemoFingerprint,
    /// A memo entry carries a generation the table has never issued:
    /// invalidation bookkeeping is corrupt.
    MemoGeneration,
    /// A winner-layer memo entry has a missing, non-finite, or negative
    /// proved cost.
    MemoCost,
    // -- catalog drift-conformance pass (`csqp-verify::catalog`) -------------
    /// A plan was served fresh (neither degraded nor rejected) from a
    /// replica whose epoch lag exceeded the configured `max_epoch_lag`
    /// staleness bound.
    CatalogStaleServed,
    /// A replica's epoch went backwards: a reordered (older) snapshot
    /// delivery was applied instead of being rejected.
    CatalogEpochRegress,
    /// The staleness accounting is inconsistent: a serve event's recorded
    /// lag disagrees with the lag reconstructed from the publish/refresh
    /// history, so the bound cannot be trusted.
    CatalogLagBound,
    /// A query referenced a relation the catalog never placed; the serve
    /// boundary must refuse it with a typed error, never panic a shard.
    CatalogUnplaced,
    // -- bounds pass (`csqp-verify::bounds`) ---------------------------------
    /// An executed operator produced more tuples (or pages) than the
    /// static worst-case bound derived from declared key constraints:
    /// either an engine bug or an unsound bound rule.
    BoundViolated,
    /// Bound arithmetic left the representable range (or the page-count
    /// conversion met hostile statistics): the analyzer refuses to emit a
    /// number it cannot stand behind.
    BoundOverflow,
    /// A declared unary key is not justified by the query's own
    /// statistics (an incident edge admits more than one match per
    /// tuple): every bound derived from it would be unsound.
    BoundKeyUnsound,
    // -- source lints (`csqp-lint`) -----------------------------------------
    /// A wall-clock read (`Instant::now`, `SystemTime::now`) or
    /// `thread::sleep` outside the justified allowlist.
    WallClockUse,
    /// A nondeterministically seeded RNG (`thread_rng`, `from_entropy`,
    /// OS randomness) anywhere in the workspace.
    UnseededRng,
    /// Iteration over a `std::collections` hash container in a file not
    /// allowlisted with a justification for why the ordering cannot leak
    /// into digests, metrics snapshots, or wire payloads.
    HashIterOrder,
    /// A wire/diagnostic code enum whose variants are not fully covered
    /// by its encode (`as_str`) and decode (`parse`) tables.
    WireCodeCoverage,
    /// An allowlist entry that matched nothing, or carries no
    /// justification: the allowlist must stay exhaustive and explained.
    StaleAllow,
    /// An unbounded `mpsc::channel()` (backpressure hole), or a lock
    /// guard held across a blocking I/O call, in a file not allowlisted
    /// with a justification for why it cannot stall the serving path.
    UnboundedChannel,
    /// A direct `Catalog` mutation (`place`/`set_cached_fraction`)
    /// outside the justified construction-time allowlist: the served
    /// catalog derives from exactly the inputs the memo fingerprint
    /// covers (placement seed, spec, declared cache), so nothing may
    /// change it afterwards.
    CatalogMutation,
    /// An `extern` block (raw C-ABI syscall binding) outside the
    /// justified allowlist: unsafe FFI shims live in one audited module
    /// (`csqp_net::poll`), never scattered through the workspace.
    RawSyscall,
    /// A bare `as`-cast narrowing a float to an integer or a wide integer
    /// to a narrower one inside bound/cost arithmetic, outside the
    /// justified allowlist: truncation must be explicit (checked or
    /// saturating helpers), never silent.
    NumericTruncation,
    /// A `pub fn` whose name no non-test source mentions, outside the
    /// justified allowlist: public API that only tests run.
    DeadPub,
}

impl DiagCode {
    /// Stable kebab-case name (used by `csqp-check` output).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::RootNotDisplay => "root-not-display",
            DiagCode::BadArity => "bad-arity",
            DiagCode::DanglingChild => "dangling-child",
            DiagCode::SharedNode => "shared-node",
            DiagCode::IllegalAnnotation => "illegal-annotation",
            DiagCode::DuplicateScan => "duplicate-scan",
            DiagCode::SelectPlacement => "select-placement",
            DiagCode::JoinOverlap => "join-overlap",
            DiagCode::AggregateMismatch => "aggregate-mismatch",
            DiagCode::ScanCoverage => "scan-coverage",
            DiagCode::AnnotationCycle => "annotation-cycle",
            DiagCode::UnresolvedSite => "unresolved-site",
            DiagCode::PolicyViolation => "policy-violation",
            DiagCode::NegativeResource => "negative-resource",
            DiagCode::ResponseExceedsPhases => "response-exceeds-phases",
            DiagCode::NonMonotoneCost => "non-monotone-cost",
            DiagCode::CardinalityBound => "cardinality-bound",
            DiagCode::ConfigInvariant => "config-invariant",
            DiagCode::EventTimeRegression => "event-time-regression",
            DiagCode::TieBreakNondeterminism => "tie-break-nondeterminism",
            DiagCode::ProtocolStuck => "protocol-stuck",
            DiagCode::ProtocolDoubleReply => "protocol-double-reply",
            DiagCode::ProtocolWindowLeak => "protocol-window-leak",
            DiagCode::ProtocolWorkerLeak => "protocol-worker-leak",
            DiagCode::ProtocolSweepMissed => "protocol-sweep-missed",
            DiagCode::SystemStarvation => "system-starvation",
            DiagCode::SystemWorkerLeak => "system-worker-leak",
            DiagCode::SystemLostWakeup => "system-lost-wakeup",
            DiagCode::SystemSweepIncomplete => "system-sweep-incomplete",
            DiagCode::MemoFingerprint => "memo-fingerprint",
            DiagCode::MemoGeneration => "memo-generation",
            DiagCode::MemoCost => "memo-cost",
            DiagCode::CatalogStaleServed => "catalog-stale-served",
            DiagCode::CatalogEpochRegress => "catalog-epoch-regress",
            DiagCode::CatalogLagBound => "catalog-lag-bound",
            DiagCode::CatalogUnplaced => "catalog-unplaced",
            DiagCode::BoundViolated => "bound-violated",
            DiagCode::BoundOverflow => "bound-overflow",
            DiagCode::BoundKeyUnsound => "bound-key-unsound",
            DiagCode::WallClockUse => "wall-clock-use",
            DiagCode::UnseededRng => "unseeded-rng",
            DiagCode::HashIterOrder => "hash-iter-order",
            DiagCode::WireCodeCoverage => "wire-code-coverage",
            DiagCode::StaleAllow => "stale-allow",
            DiagCode::UnboundedChannel => "unbounded-channel",
            DiagCode::CatalogMutation => "catalog-mutation",
            DiagCode::RawSyscall => "raw-syscall",
            DiagCode::NumericTruncation => "numeric-truncation",
            DiagCode::DeadPub => "dead-pub",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One checker finding: what invariant broke, where, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The invariant that failed.
    pub code: DiagCode,
    /// The offending node, when the finding is node-local.
    pub node: Option<NodeId>,
    /// Operator path from the root to the node (e.g.
    /// `display/join[0]/select`), when one could be computed.
    pub path: Option<String>,
    /// Human-readable explanation, including the offending annotation
    /// pair or values where applicable.
    pub detail: String,
}

impl Diagnostic {
    /// A plan-level diagnostic with no specific node.
    pub fn new(code: DiagCode, detail: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            node: None,
            path: None,
            detail: detail.into(),
        }
    }

    /// A node-local diagnostic; the node's path is computed from `plan`.
    pub fn at(code: DiagCode, plan: &Plan, node: NodeId, detail: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            node: Some(node),
            path: node_path(plan, node),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.code)?;
        match (&self.path, self.node) {
            (Some(p), _) => write!(f, " at {p}")?,
            (None, Some(n)) => write!(f, " at node {}", n.0)?,
            (None, None) => {}
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for Diagnostic {}

/// The operator path from the root to `node`, with child-slot indices on
/// binary operators: `display/join[0]/join[1]/scan`. `None` when `node`
/// is not reachable from the root.
pub fn node_path(plan: &Plan, node: NodeId) -> Option<String> {
    fn walk(plan: &Plan, at: NodeId, node: NodeId, acc: &mut String) -> bool {
        let entry_len = acc.len();
        let n = plan.node(at);
        let name = match n.op {
            crate::plan::LogicalOp::Display => "display",
            crate::plan::LogicalOp::Join => "join",
            crate::plan::LogicalOp::Select { .. } => "select",
            crate::plan::LogicalOp::Aggregate { .. } => "aggregate",
            crate::plan::LogicalOp::Scan { .. } => "scan",
        };
        if !acc.is_empty() {
            acc.push('/');
        }
        acc.push_str(name);
        if at == node {
            return true;
        }
        let base = acc.len();
        for (slot, c) in n.children.iter().enumerate() {
            let Some(c) = *c else { continue };
            if n.op.arity() == 2 {
                use fmt::Write;
                let _ = write!(acc, "[{slot}]");
            }
            if walk(plan, c, node, acc) {
                return true;
            }
            acc.truncate(base);
        }
        // Not under this subtree: drop this segment.
        acc.truncate(entry_len);
        false
    }
    let mut acc = String::new();
    if walk(plan, plan.root(), node, &mut acc) {
        Some(acc)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::Annotation;
    use crate::builder::JoinTree;
    use csqp_catalog::{JoinEdge, QuerySpec, RelId, Relation};

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

    #[test]
    fn paths_name_the_route_from_the_root() {
        let q = chain(3);
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1), RelId(2)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        assert_eq!(node_path(&plan, plan.root()).as_deref(), Some("display"));
        let joins = plan.join_nodes();
        // Postorder: bottom join first. Left-deep: top join's child 0 is
        // the bottom join.
        assert_eq!(node_path(&plan, joins[1]).as_deref(), Some("display/join"));
        assert_eq!(
            node_path(&plan, joins[0]).as_deref(),
            Some("display/join[0]/join")
        );
        let scans = plan.scan_nodes();
        assert_eq!(
            node_path(&plan, scans[0]).as_deref(),
            Some("display/join[0]/join[0]/scan")
        );
    }

    #[test]
    fn unreachable_nodes_have_no_path() {
        let q = chain(2);
        let mut plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let orphan = plan.push(crate::plan::PlanNode {
            op: crate::plan::LogicalOp::Scan { rel: RelId(0) },
            ann: Annotation::Client,
            children: [None, None],
        });
        assert_eq!(node_path(&plan, orphan), None);
    }

    #[test]
    fn diagnostics_render_code_path_and_detail() {
        let q = chain(2);
        let plan = JoinTree::left_deep(&[RelId(0), RelId(1)]).into_plan(
            &q,
            Annotation::Consumer,
            Annotation::Client,
        );
        let d = Diagnostic::at(
            DiagCode::AnnotationCycle,
            &plan,
            plan.join_nodes()[0],
            "inner relation ↔ consumer",
        );
        let s = d.to_string();
        assert!(s.contains("[annotation-cycle]"), "{s}");
        assert!(s.contains("display/join"), "{s}");
        assert!(s.contains("inner relation"), "{s}");
    }
}
