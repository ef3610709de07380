//! Per-site catalog replication with bounded staleness.
//!
//! The base [`Catalog`] models the paper's single shared metadata store:
//! every site prices plans against one perfectly fresh view. A scaled
//! deployment cannot afford that — placements and cached-fraction state
//! change while queries are in flight, and each serving site sees those
//! changes only after a propagation delay. This module makes the delay
//! explicit and bounded:
//!
//! * a [`CatalogCoordinator`] owns the authoritative catalog and stamps
//!   every mutation with a monotonically increasing [`CatalogEpoch`],
//!   keeping a delta log so the catalog *as of any epoch* can be
//!   reconstructed;
//! * each site holds a [`CatalogReplica`] — an epoch-stamped
//!   [`CatalogSnapshot`] refreshed through an explicit, fault-injectable
//!   propagation step that rejects epoch regressions (a reordered
//!   delivery can never roll a replica backwards);
//! * [`ReplicatedCatalog`] composes the two with a staleness bound
//!   `max_epoch_lag`: a replica within the bound may price plans; one
//!   beyond it must take a typed degradation path (refresh-then-retry,
//!   HY/DS→QS downgrade, or reject) — the serving stack enforces that
//!   lattice, and `csqp_verify`'s drift pass audits it over a recorded
//!   [`DriftEvent`] trace.
//!
//! Everything here is pure, single-threaded state: the serving stack
//! drives propagation from its own seeded fault schedule, so two runs of
//! the same seed replay the identical drift history.

use std::fmt;

use crate::ids::{RelId, SiteId};
use crate::placement::Catalog;

/// A monotone catalog version number. Epoch 0 is the base catalog; every
/// coordinator mutation publishes the next epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CatalogEpoch(pub u64);

impl fmt::Display for CatalogEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl CatalogEpoch {
    /// The epoch of the base catalog, before any mutation.
    pub const ZERO: CatalogEpoch = CatalogEpoch(0);

    /// The epoch after this one.
    pub fn next(self) -> CatalogEpoch {
        CatalogEpoch(self.0 + 1)
    }

    /// How far this epoch trails `newer` (0 when equal or ahead).
    pub fn lag_behind(self, newer: CatalogEpoch) -> u64 {
        newer.0.saturating_sub(self.0)
    }
}

/// One catalog mutation, stamped into the coordinator's delta log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CatalogDelta {
    /// Move the primary copy of `rel` to `site`.
    Place {
        /// The relation whose primary copy moves.
        rel: RelId,
        /// The server now holding the primary copy.
        site: SiteId,
    },
    /// Declare a new client-cached fraction for `rel`.
    SetCachedFraction {
        /// The relation whose cache state changes.
        rel: RelId,
        /// The new cached fraction, in `[0, 1]`.
        fraction: f64,
    },
}

impl CatalogDelta {
    /// Apply this delta to `catalog`. Panics propagate from the
    /// underlying [`Catalog`] setters on out-of-range arguments; the
    /// coordinator is the only caller and never records an invalid delta.
    fn apply(&self, catalog: &mut Catalog) {
        match *self {
            CatalogDelta::Place { rel, site } => catalog.place(rel, site),
            CatalogDelta::SetCachedFraction { rel, fraction } => {
                catalog.set_cached_fraction(rel, fraction)
            }
        }
    }
}

/// An epoch-stamped view of the catalog: what a replica holds, and what
/// the coordinator hands out on refresh.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogSnapshot {
    /// The epoch this view is current as of.
    pub epoch: CatalogEpoch,
    /// The catalog contents at that epoch.
    pub catalog: Catalog,
}

/// The authoritative catalog plus its epoch counter and delta log.
///
/// Mutations go through [`place`](CatalogCoordinator::place) and
/// [`set_cached_fraction`](CatalogCoordinator::set_cached_fraction),
/// which apply the change, bump the epoch, and record the delta — the
/// `csqp-lint` rule `catalog-mutation` flags direct [`Catalog`] mutation
/// outside this API (or a justified allowlist) so drift state can never
/// bypass epoch accounting.
#[derive(Debug, Clone)]
pub struct CatalogCoordinator {
    base: Catalog,
    current: Catalog,
    epoch: CatalogEpoch,
    log: Vec<(CatalogEpoch, CatalogDelta)>,
}

impl CatalogCoordinator {
    /// A coordinator whose epoch-0 catalog is `base`.
    pub fn new(base: Catalog) -> CatalogCoordinator {
        CatalogCoordinator {
            current: base.clone(),
            base,
            epoch: CatalogEpoch::ZERO,
            log: Vec::new(),
        }
    }

    /// The current (newest) epoch.
    pub fn epoch(&self) -> CatalogEpoch {
        self.epoch
    }

    /// The authoritative catalog at the current epoch.
    pub fn catalog(&self) -> &Catalog {
        &self.current
    }

    /// Publish a placement change; returns the new epoch.
    pub fn place(&mut self, rel: RelId, site: SiteId) -> CatalogEpoch {
        self.publish(CatalogDelta::Place { rel, site })
    }

    /// Publish a cached-fraction change; returns the new epoch.
    pub fn set_cached_fraction(&mut self, rel: RelId, fraction: f64) -> CatalogEpoch {
        self.publish(CatalogDelta::SetCachedFraction { rel, fraction })
    }

    fn publish(&mut self, delta: CatalogDelta) -> CatalogEpoch {
        delta.apply(&mut self.current);
        self.epoch = self.epoch.next();
        self.log.push((self.epoch, delta));
        self.epoch
    }

    /// Snapshot of the current epoch.
    pub fn snapshot(&self) -> CatalogSnapshot {
        CatalogSnapshot {
            epoch: self.epoch,
            catalog: self.current.clone(),
        }
    }

    /// Reconstruct the catalog as of `epoch` (clamped to the current
    /// epoch) by replaying the delta log over the base catalog. This is
    /// what a torn or reordered delivery hands a replica: a genuine
    /// historical view, not a corrupted one.
    pub fn snapshot_at(&self, epoch: CatalogEpoch) -> CatalogSnapshot {
        let epoch = epoch.min(self.epoch);
        let mut catalog = self.base.clone();
        for (stamp, delta) in &self.log {
            if *stamp > epoch {
                break;
            }
            delta.apply(&mut catalog);
        }
        CatalogSnapshot { epoch, catalog }
    }
}

/// Why a replica refused a refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaError {
    /// The delivered snapshot is older than what the replica already
    /// holds — applying it would roll the epoch backwards.
    EpochRegress {
        /// The epoch the replica currently holds.
        have: CatalogEpoch,
        /// The (older) epoch of the rejected delivery.
        got: CatalogEpoch,
    },
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::EpochRegress { have, got } => {
                write!(
                    f,
                    "refresh would regress the replica epoch: have {have}, got {got}"
                )
            }
        }
    }
}

/// One site's epoch-stamped catalog view.
#[derive(Debug, Clone)]
pub struct CatalogReplica {
    site: SiteId,
    snapshot: CatalogSnapshot,
    poisoned: bool,
}

impl CatalogReplica {
    /// A replica for `site` holding `snapshot`.
    pub fn new(site: SiteId, snapshot: CatalogSnapshot) -> CatalogReplica {
        CatalogReplica {
            site,
            snapshot,
            poisoned: false,
        }
    }

    /// The site this replica serves.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The epoch this replica is current as of.
    pub fn epoch(&self) -> CatalogEpoch {
        self.snapshot.epoch
    }

    /// The replicated catalog contents.
    pub fn catalog(&self) -> &Catalog {
        &self.snapshot.catalog
    }

    /// How many epochs this replica trails `coordinator_epoch`.
    pub fn lag(&self, coordinator_epoch: CatalogEpoch) -> u64 {
        self.snapshot.epoch.lag_behind(coordinator_epoch)
    }

    /// True when the cached-fraction state is marked unusable (a
    /// poisoned propagation): plans must not price the client cache
    /// until a full refresh clears the mark.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Mark the cached-fraction state unusable.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Apply a delivered snapshot. A delivery older than the current
    /// epoch is rejected ([`ReplicaError::EpochRegress`]) and leaves the
    /// replica untouched; an equal-or-newer delivery is applied and
    /// clears any poison mark.
    pub fn refresh(&mut self, snapshot: CatalogSnapshot) -> Result<CatalogEpoch, ReplicaError> {
        if snapshot.epoch < self.snapshot.epoch {
            return Err(ReplicaError::EpochRegress {
                have: self.snapshot.epoch,
                got: snapshot.epoch,
            });
        }
        self.snapshot = snapshot;
        self.poisoned = false;
        Ok(self.snapshot.epoch)
    }
}

/// A coordinator plus one replica per server site, under a staleness
/// bound. Propagation is *explicit*: nothing refreshes until the caller
/// (the serving stack, the chaos harness, `csqp-check --catalog`) drives
/// it, which is what makes withheld, torn, and reordered deliveries
/// injectable and seeded runs reproducible.
#[derive(Debug, Clone)]
pub struct ReplicatedCatalog {
    coordinator: CatalogCoordinator,
    replicas: Vec<CatalogReplica>,
    max_epoch_lag: u64,
}

impl ReplicatedCatalog {
    /// Replicate `base` to every server site (`1..=num_servers`), all
    /// starting fresh at epoch 0, with staleness bound `max_epoch_lag`.
    pub fn new(base: Catalog, max_epoch_lag: u64) -> ReplicatedCatalog {
        let coordinator = CatalogCoordinator::new(base);
        let snapshot = coordinator.snapshot();
        let replicas = (1..=coordinator.catalog().num_servers())
            .map(|s| CatalogReplica::new(SiteId::server(s), snapshot.clone()))
            .collect();
        ReplicatedCatalog {
            coordinator,
            replicas,
            max_epoch_lag,
        }
    }

    /// The configured staleness bound.
    pub fn max_epoch_lag(&self) -> u64 {
        self.max_epoch_lag
    }

    /// The coordinator (authoritative catalog + epoch + log).
    pub fn coordinator(&self) -> &CatalogCoordinator {
        &self.coordinator
    }

    /// Publish a placement change through the coordinator.
    pub fn place(&mut self, rel: RelId, site: SiteId) -> CatalogEpoch {
        self.coordinator.place(rel, site)
    }

    /// Publish a cached-fraction change through the coordinator.
    pub fn set_cached_fraction(&mut self, rel: RelId, fraction: f64) -> CatalogEpoch {
        self.coordinator.set_cached_fraction(rel, fraction)
    }

    /// The replica for server `site`, if it exists.
    pub fn replica(&self, site: SiteId) -> Option<&CatalogReplica> {
        self.replica_index(site).map(|i| &self.replicas[i])
    }

    /// Mutable access to the replica for server `site` (the fault layer
    /// uses this to poison cached-fraction state).
    pub fn replica_mut(&mut self, site: SiteId) -> Option<&mut CatalogReplica> {
        self.replica_index(site).map(move |i| &mut self.replicas[i])
    }

    fn replica_index(&self, site: SiteId) -> Option<usize> {
        if site.is_server() && site.0 <= self.coordinator.catalog().num_servers() {
            Some(site.0 as usize - 1)
        } else {
            None
        }
    }

    /// Propagate the current coordinator snapshot to `site`. Returns the
    /// epoch the replica now holds; `None` for an unknown site.
    pub fn propagate(&mut self, site: SiteId) -> Option<CatalogEpoch> {
        let snapshot = self.coordinator.snapshot();
        let i = self.replica_index(site)?;
        // A full current snapshot can never regress.
        self.replicas[i].refresh(snapshot).ok()
    }

    /// Deliver the historical snapshot at `epoch` to `site` — the torn
    /// (partial) and reordered (stale) propagation paths. The replica's
    /// regression guard decides whether the delivery applies.
    pub fn deliver_at(
        &mut self,
        site: SiteId,
        epoch: CatalogEpoch,
    ) -> Option<Result<CatalogEpoch, ReplicaError>> {
        let snapshot = self.coordinator.snapshot_at(epoch);
        let i = self.replica_index(site)?;
        Some(self.replicas[i].refresh(snapshot))
    }

    /// How many epochs `site`'s replica trails the coordinator.
    pub fn lag(&self, site: SiteId) -> Option<u64> {
        self.replica(site).map(|r| r.lag(self.coordinator.epoch()))
    }
}

/// What a served query did about its replica's staleness, in a recorded
/// drift trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftAction {
    /// Served against a within-bound replica, no degradation.
    Fresh,
    /// Served, but downgraded HY/DS → QS with the `stale-catalog`
    /// degrade reason.
    Degraded,
    /// Refused with a typed `stale-catalog` reject and a retry hint.
    Rejected,
}

/// One event in a drift trace: the serving stack (or a replay harness)
/// records these so `csqp_verify`'s drift-conformance pass can audit,
/// after the fact, that no plan was ever priced beyond the bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftEvent {
    /// The coordinator published a new epoch.
    Publish {
        /// The epoch just published.
        epoch: u64,
    },
    /// A snapshot delivery reached a replica.
    Refresh {
        /// The replica's site number.
        site: u32,
        /// The epoch the replica held before the delivery.
        from: u64,
        /// The epoch of the delivered snapshot.
        to: u64,
        /// Whether the replica applied it (a regression is recorded
        /// with `applied: false`; `applied: true` with `to < from` is
        /// the `catalog-epoch-regress` finding).
        applied: bool,
    },
    /// A replica's cached-fraction state was poisoned.
    Poison {
        /// The replica's site number.
        site: u32,
    },
    /// A query was planned against a replica.
    Serve {
        /// The replica's site number.
        site: u32,
        /// The replica epoch the plan was priced under.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Catalog {
        let mut c = Catalog::new(2);
        c.place(RelId(0), SiteId::server(1));
        c.place(RelId(1), SiteId::server(2));
        c
    }

    #[test]
    fn epochs_are_monotone_and_logged() {
        let mut coord = CatalogCoordinator::new(base());
        assert_eq!(coord.epoch(), CatalogEpoch::ZERO);
        let e1 = coord.set_cached_fraction(RelId(0), 0.5);
        let e2 = coord.place(RelId(1), SiteId::server(1));
        assert_eq!((e1, e2), (CatalogEpoch(1), CatalogEpoch(2)));
        assert_eq!(coord.catalog().cached_fraction(RelId(0)), 0.5);
        assert_eq!(
            coord.catalog().try_primary_site(RelId(1)),
            Some(SiteId::server(1))
        );
    }

    #[test]
    fn snapshot_at_replays_history() {
        let mut coord = CatalogCoordinator::new(base());
        coord.set_cached_fraction(RelId(0), 0.25);
        coord.set_cached_fraction(RelId(0), 0.75);
        let old = coord.snapshot_at(CatalogEpoch(1));
        assert_eq!(old.epoch, CatalogEpoch(1));
        assert_eq!(old.catalog.cached_fraction(RelId(0)), 0.25);
        let now = coord.snapshot_at(CatalogEpoch(99));
        assert_eq!(now.epoch, CatalogEpoch(2), "clamped to the newest epoch");
        assert_eq!(now.catalog.cached_fraction(RelId(0)), 0.75);
    }

    #[test]
    fn replica_rejects_regressions_and_clears_poison() {
        let mut rc = ReplicatedCatalog::new(base(), 2);
        rc.set_cached_fraction(RelId(0), 0.5);
        rc.set_cached_fraction(RelId(0), 1.0);
        let s1 = SiteId::server(1);
        assert_eq!(rc.propagate(s1), Some(CatalogEpoch(2)));
        // A reordered (older) delivery is refused and changes nothing.
        let err = rc.deliver_at(s1, CatalogEpoch(1)).expect("known site");
        assert_eq!(
            err,
            Err(ReplicaError::EpochRegress {
                have: CatalogEpoch(2),
                got: CatalogEpoch(1),
            })
        );
        assert_eq!(
            rc.replica(s1).map(CatalogReplica::epoch),
            Some(CatalogEpoch(2))
        );
        // Poison marks cache state unusable; a full refresh clears it.
        rc.replica_mut(s1).expect("known site").poison();
        assert!(rc.replica(s1).is_some_and(CatalogReplica::is_poisoned));
        rc.set_cached_fraction(RelId(1), 0.25);
        rc.propagate(s1);
        assert!(!rc.replica(s1).is_some_and(CatalogReplica::is_poisoned));
    }

    #[test]
    fn lag_tracks_the_coordinator() {
        let mut rc = ReplicatedCatalog::new(base(), 1);
        let s2 = SiteId::server(2);
        assert_eq!(rc.lag(s2), Some(0));
        rc.set_cached_fraction(RelId(0), 0.5);
        assert_eq!(rc.lag(s2), Some(1));
        rc.set_cached_fraction(RelId(0), 0.75);
        assert_eq!(rc.lag(s2), Some(2));
        // A torn delivery (one epoch short of current) pulls it back in.
        let torn = rc.coordinator().epoch().0 - 1;
        rc.deliver_at(s2, CatalogEpoch(torn))
            .expect("known site")
            .expect("newer delivery applies");
        assert_eq!(rc.lag(s2), Some(1));
    }

    #[test]
    fn unknown_sites_are_none_not_panics() {
        let mut rc = ReplicatedCatalog::new(base(), 1);
        assert!(rc.replica(SiteId::CLIENT).is_none());
        assert!(rc.replica(SiteId::server(9)).is_none());
        assert!(rc.propagate(SiteId::server(9)).is_none());
        assert!(rc.deliver_at(SiteId::CLIENT, CatalogEpoch(0)).is_none());
        assert_eq!(rc.lag(SiteId::server(3)), None);
    }
}
