//! Physical data placement and client-cache state.
//!
//! * Every relation's primary copy resides on exactly one server (no
//!   declustering, no replication — §3.2.1 and footnote 5).
//! * The client's disk acts as a cache holding a contiguous prefix of each
//!   relation (footnote 8: "contiguous regions of relations are cached").

use std::collections::BTreeMap;

use crate::ids::{RelId, SiteId};

/// Physical placement: primary-copy sites, cached fractions, topology size.
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    num_servers: u32,
    /// Primary-copy server per relation.
    primary: BTreeMap<RelId, SiteId>,
    /// Fraction of each relation cached on the client disk, in `[0, 1]`.
    cached: BTreeMap<RelId, f64>,
}

impl Catalog {
    /// A catalog for a topology with one client and `num_servers` servers.
    pub fn new(num_servers: u32) -> Catalog {
        assert!(num_servers >= 1, "need at least one server");
        Catalog {
            num_servers,
            primary: BTreeMap::new(),
            cached: BTreeMap::new(),
        }
    }

    /// Number of servers (sites `1..=num_servers`).
    pub fn num_servers(&self) -> u32 {
        self.num_servers
    }

    /// All sites: the client followed by every server.
    pub fn sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..=self.num_servers).map(SiteId)
    }

    /// Place the primary copy of `rel` on `server`.
    ///
    /// # Panics
    /// Panics if `server` is the client ("No primary copies of relations
    /// are stored at the client", §3.2.1) or out of range.
    pub fn place(&mut self, rel: RelId, server: SiteId) {
        assert!(server.is_server(), "primary copies live on servers only");
        assert!(
            server.0 <= self.num_servers,
            "server {server} out of range (have {})",
            self.num_servers
        );
        self.primary.insert(rel, server);
    }

    /// The server holding the primary copy of `rel`.
    ///
    /// # Panics
    /// Panics if the relation was never placed — executing a query against
    /// an unplaced relation is a harness bug.
    pub fn primary_site(&self, rel: RelId) -> SiteId {
        *self
            .primary
            .get(&rel)
            .unwrap_or_else(|| panic!("relation {rel} has no primary copy"))
    }

    /// The server holding `rel`, or `None` when unplaced.
    pub fn try_primary_site(&self, rel: RelId) -> Option<SiteId> {
        self.primary.get(&rel).copied()
    }

    /// Set the fraction of `rel` cached on the client disk.
    pub fn set_cached_fraction(&mut self, rel: RelId, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "cached fraction must be in [0,1], got {fraction}"
        );
        if fraction == 0.0 {
            self.cached.remove(&rel);
        } else {
            self.cached.insert(rel, fraction);
        }
    }

    /// Fraction of `rel` cached at the client (0 when never set).
    pub fn cached_fraction(&self, rel: RelId) -> f64 {
        self.cached.get(&rel).copied().unwrap_or(0.0)
    }

    /// Number of pages of `rel` (out of `total_pages`) cached at the
    /// client: the *first* `⌊fraction·pages⌋` pages (contiguous prefix,
    /// footnote 8).
    pub fn cached_pages(&self, rel: RelId, total_pages: u64) -> u64 {
        let pages = crate::num::sat_u64((self.cached_fraction(rel) * total_pages as f64).floor());
        pages.min(total_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_round_trip() {
        let mut c = Catalog::new(3);
        c.place(RelId(0), SiteId::server(1));
        c.place(RelId(1), SiteId::server(3));
        assert_eq!(c.primary_site(RelId(0)), SiteId::server(1));
        assert_eq!(c.primary_site(RelId(1)), SiteId::server(3));
        assert_eq!(c.try_primary_site(RelId(2)), None);
        assert_eq!(c.sites().count(), 4);
    }

    #[test]
    #[should_panic(expected = "servers only")]
    fn client_cannot_hold_primary() {
        let mut c = Catalog::new(1);
        c.place(RelId(0), SiteId::CLIENT);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_server_rejected() {
        let mut c = Catalog::new(2);
        c.place(RelId(0), SiteId::server(3));
    }

    #[test]
    fn cached_prefix_pages() {
        let mut c = Catalog::new(1);
        assert_eq!(c.cached_fraction(RelId(0)), 0.0);
        c.set_cached_fraction(RelId(0), 0.25);
        assert_eq!(c.cached_pages(RelId(0), 250), 62); // floor(62.5)
        c.set_cached_fraction(RelId(0), 1.0);
        assert_eq!(c.cached_pages(RelId(0), 250), 250);
        c.set_cached_fraction(RelId(0), 0.0);
        assert_eq!(c.cached_pages(RelId(0), 250), 0);
    }

    #[test]
    #[should_panic(expected = "no primary copy")]
    fn unplaced_relation_panics() {
        let c = Catalog::new(1);
        c.primary_site(RelId(9));
    }
}
