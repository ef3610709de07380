//! On-disk layout of base relations, client cache copies, and join temp
//! space.
//!
//! Each site has one disk; base relations live in contiguous extents on
//! their primary server's disk, the client's cached prefixes live in
//! contiguous extents on the client disk ("Data that is cached at the
//! client is assumed to be initially resident on the client's local
//! disk", §4.1), and each join gets per-partition temp extents on its own
//! site's disk ("If a disk is to be used both as a cache and for
//! temporary storage, separate regions of the disk are allocated for each
//! of these purposes", §3.2.1).

use csqp_catalog::{Catalog, QuerySpec, RelId, SiteId, SystemConfig};
use csqp_disk::{Extent, ExtentAllocator};

/// Layout state for all sites of one execution. Extents are indexed by
/// [`RelId::index`]: a query's relation ids are dense `0..n`.
#[derive(Debug)]
pub struct Layout {
    allocators: Vec<ExtentAllocator>,
    rel_extents: Vec<Extent>,
    cache_extents: Vec<Option<Extent>>,
}

impl Layout {
    /// Allocate base-relation and cache extents for `query` under the
    /// given placement. `capacity` is the per-disk capacity in pages.
    pub fn new(
        query: &QuerySpec,
        catalog: &Catalog,
        config: &SystemConfig,
        capacity: u64,
    ) -> Layout {
        let num_sites = catalog.num_servers() as usize + 1;
        let mut allocators: Vec<ExtentAllocator> = (0..num_sites)
            .map(|_| ExtentAllocator::new(capacity))
            .collect();
        let mut rel_extents = Vec::with_capacity(query.relations.len());
        let mut cache_extents = Vec::with_capacity(query.relations.len());
        for rel in &query.relations {
            let pages = rel.pages(config.page_size);
            let server = catalog.primary_site(rel.id);
            rel_extents.push(allocators[server.index()].alloc(pages));
            let cached = catalog.cached_pages(rel.id, pages);
            cache_extents
                .push((cached > 0).then(|| allocators[SiteId::CLIENT.index()].alloc(cached)));
        }
        Layout {
            allocators,
            rel_extents,
            cache_extents,
        }
    }

    /// Extent of a relation's primary copy.
    pub fn relation(&self, rel: RelId) -> Extent {
        self.rel_extents[rel.index()]
    }

    /// Extent of the client-cached prefix, if any pages are cached.
    pub fn cache(&self, rel: RelId) -> Option<Extent> {
        self.cache_extents.get(rel.index()).copied().flatten()
    }

    /// Allocate temp space (join spill partitions) on a site's disk.
    pub fn alloc_temp(&mut self, site: SiteId, pages: u64) -> Extent {
        self.allocators[site.index()].alloc(pages)
    }

    /// Unallocated pages on a site's disk.
    pub fn free_pages(&self, site: SiteId) -> u64 {
        self.allocators[site.index()].free_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{JoinEdge, Relation};

    fn setup() -> (QuerySpec, Catalog, SystemConfig) {
        let rels = (0..2)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = vec![JoinEdge {
            a: RelId(0),
            b: RelId(1),
            selectivity: 1e-4,
        }];
        let q = QuerySpec::new(rels, edges);
        let mut cat = Catalog::new(2);
        cat.place(RelId(0), SiteId::server(1));
        cat.place(RelId(1), SiteId::server(2));
        cat.set_cached_fraction(RelId(0), 0.25);
        (q, cat, SystemConfig::default())
    }

    #[test]
    fn relations_on_their_servers_cache_on_client() {
        let (q, cat, cfg) = setup();
        let mut layout = Layout::new(&q, &cat, &cfg, 48_000);
        assert_eq!(layout.relation(RelId(0)).pages, 250);
        assert_eq!(layout.relation(RelId(1)).pages, 250);
        // 25% of 250 pages cached.
        assert_eq!(layout.cache(RelId(0)).unwrap().pages, 62);
        assert!(layout.cache(RelId(1)).is_none());
        // Temp goes on the requested site.
        let before = layout.free_pages(SiteId::CLIENT);
        let t = layout.alloc_temp(SiteId::CLIENT, 100);
        assert_eq!(t.pages, 100);
        assert_eq!(layout.free_pages(SiteId::CLIENT), before - 100);
    }

    #[test]
    fn extents_on_same_disk_are_disjoint() {
        let (q, mut cat, cfg) = setup();
        cat.place(RelId(1), SiteId::server(1)); // co-locate
        let layout = Layout::new(&q, &cat, &cfg, 48_000);
        let a = layout.relation(RelId(0));
        let b = layout.relation(RelId(1));
        assert!(a.end() <= b.start || b.end() <= a.start);
    }
}
