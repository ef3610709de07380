//! Base relations and their statistics.

use crate::ids::RelId;

/// A base relation with the statistics the cost model and engine need.
///
/// The paper's benchmark relations have 10,000 tuples of 100 bytes each
/// (§3.3); with 4096-byte pages that is 40 tuples per page and exactly 250
/// pages per relation — the page counts quoted throughout §4 (500 pages for
/// two relations, 2500 for ten) follow from this.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Dense relation id.
    pub id: RelId,
    /// Human-readable name (used in plan printouts).
    pub name: String,
    /// Number of tuples.
    pub tuples: u64,
    /// Width of one tuple in bytes.
    pub tuple_bytes: u32,
    /// Whether the join attribute of this relation is a declared unary
    /// key: no two tuples share a join-attribute value. A key is what
    /// makes the bound analyzer's key-join rule sound (a join on the key
    /// side emits at most one tuple per tuple of the other side), so
    /// declaring it on a relation that does not satisfy it is an error
    /// the `bound-key-unsound` audit catches.
    pub key: bool,
}

impl Relation {
    /// Create a relation with the paper's benchmark statistics
    /// (10,000 tuples × 100 bytes). No key is declared; workload
    /// generators add declarations where §3.3's selectivities imply them.
    pub fn benchmark(id: RelId, name: impl Into<String>) -> Relation {
        Relation {
            id,
            name: name.into(),
            tuples: 10_000,
            tuple_bytes: 100,
            key: false,
        }
    }

    /// Whole tuples fitting in one page of `page_size` bytes.
    ///
    /// Tuples never span pages (the paper's page counts imply this).
    #[inline]
    pub fn tuples_per_page(&self, page_size: u32) -> u64 {
        let per = (page_size / self.tuple_bytes) as u64;
        assert!(per > 0, "tuple wider than a page");
        per
    }

    /// Number of pages occupied by this relation.
    #[inline]
    pub fn pages(&self, page_size: u32) -> u64 {
        pages_for(self.tuples, self.tuple_bytes, page_size)
    }
}

/// Pages needed for `tuples` tuples of `tuple_bytes` bytes in `page_size`
/// pages, tuples not spanning pages. Zero tuples occupy zero pages.
///
/// Panics on a tuple wider than a page (or a zero tuple width). Callers
/// holding *untrusted* statistics — anything decoded off the wire — must
/// use [`try_pages_for`] and surface a typed error instead.
#[inline]
pub fn pages_for(tuples: u64, tuple_bytes: u32, page_size: u32) -> u64 {
    match try_pages_for(tuples, tuple_bytes, page_size) {
        Some(p) => p,
        None => panic!("tuple wider than a page"),
    }
}

/// Checked [`pages_for`]: `None` when the statistics are hostile
/// (zero-width tuples, a tuple wider than a page) instead of panicking.
/// The serve boundary maps `None` to a typed `bound-overflow` error.
#[inline]
pub fn try_pages_for(tuples: u64, tuple_bytes: u32, page_size: u32) -> Option<u64> {
    if tuples == 0 {
        return Some(0);
    }
    if tuple_bytes == 0 {
        return None;
    }
    let per = u64::from(page_size / tuple_bytes);
    if per == 0 {
        return None;
    }
    Some(tuples.div_ceil(per))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_relation_is_250_pages() {
        let r = Relation::benchmark(RelId(0), "A");
        assert_eq!(r.tuples_per_page(4096), 40);
        assert_eq!(r.pages(4096), 250);
    }

    #[test]
    fn pages_round_up() {
        assert_eq!(pages_for(41, 100, 4096), 2);
        assert_eq!(pages_for(40, 100, 4096), 1);
        assert_eq!(pages_for(1, 100, 4096), 1);
        assert_eq!(pages_for(0, 100, 4096), 0);
    }

    #[test]
    #[should_panic(expected = "wider than a page")]
    fn oversized_tuple_rejected() {
        pages_for(1, 8192, 4096);
    }

    #[test]
    fn try_pages_for_rejects_hostile_stats_without_panicking() {
        assert_eq!(try_pages_for(1, 8192, 4096), None, "tuple wider than page");
        assert_eq!(try_pages_for(1, 0, 4096), None, "zero-width tuple");
        assert_eq!(try_pages_for(10, 100, 0), None, "zero page size");
        assert_eq!(try_pages_for(0, 0, 0), Some(0), "zero tuples need no page");
        assert_eq!(try_pages_for(41, 100, 4096), Some(2));
    }

    #[test]
    fn key_declaration_defaults_off() {
        assert!(!Relation::benchmark(RelId(0), "A").key);
    }
}
