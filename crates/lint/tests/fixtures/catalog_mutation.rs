//! Fixture: direct catalog mutation outside catalog construction.
//! Intentionally dirty — never compiled, only linted by the fixture
//! tests (this directory is excluded from the workspace walk).

pub fn rebalance(catalog: &mut Catalog) {
    // Moving a primary copy after the catalog was derived from the
    // placement seed changes what plans are priced on, but not the memo
    // fingerprint.
    catalog.place(RelId(0), SiteId::server(2));
    // So does poking a cached fraction the declared cache already set.
    catalog.set_cached_fraction(RelId(0), 0.5);
}
