//! The catalog drift trace format.
//!
//! The base [`Catalog`](crate::Catalog) models the paper's single shared
//! metadata store. The serving stack (`csqp_serve::server`) adds a
//! bounded-staleness model on top of it: a coordinator epoch that every
//! admitted query advances, one epoch per serving shard that a
//! fault-injectable refresh step moves, and a serve decision that
//! degrades or rejects queries whose shard trails by more than the
//! bound (DESIGN.md §14). The served catalog itself is never mutated:
//! it is derived per request from the placement seed, the spec and the
//! declared cache, so the drift model tracks epoch numbers only.
//!
//! This module holds the record that model leaves behind: the
//! [`DriftEvent`] trace the server writes while catalog faults are
//! armed, which `csqp_verify::catalog::check_drift` audits after a soak,
//! and the [`DriftAction`] each serve decision records.

/// What a served query did about its shard's staleness, in a recorded
/// drift trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Served within the staleness bound, no degradation.
    Fresh,
    /// Served, but downgraded HY/DS → QS with the `stale-catalog`
    /// degrade reason.
    Degraded,
    /// Refused with a typed `stale-catalog` reject and a retry hint.
    Rejected,
}

/// One event in a drift trace: the serving stack records these so
/// `csqp_verify`'s drift-conformance pass can audit, after the fact,
/// that no plan was ever priced beyond the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftEvent {
    /// The coordinator published a new epoch.
    Publish {
        /// The epoch just published.
        epoch: u64,
    },
    /// A refresh delivery reached a shard.
    Refresh {
        /// The shard's site number.
        site: u32,
        /// The epoch the shard held before the delivery.
        from: u64,
        /// The epoch of the delivery.
        to: u64,
        /// Whether the shard applied it (a regression is recorded
        /// with `applied: false`; `applied: true` with `to < from` is
        /// the `catalog-epoch-regress` finding).
        applied: bool,
    },
    /// A shard's cached-fraction state was poisoned.
    Poison {
        /// The shard's site number.
        site: u32,
    },
    /// A query was planned at a shard.
    Serve {
        /// The shard's site number.
        site: u32,
        /// The shard epoch the plan was priced under.
        priced_epoch: u64,
        /// The coordinator epoch at serve time.
        coordinator_epoch: u64,
        /// The lag the server *recorded* for this serve (the verify
        /// pass recomputes it and flags disagreement).
        lag: u64,
        /// The degradation decision taken.
        action: DriftAction,
    },
}
