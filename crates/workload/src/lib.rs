//! Benchmark workloads of the study (§3.3).
//!
//! "We use a benchmark consisting of 2-way and 10-way joins. … Each
//! relation used in the study has 10,000 tuples of 100 bytes each. …
//! The benchmark queries are chain joins with moderate selectivity …
//! a join of two equal-sized base relations returns a result that is the
//! size and cardinality of one base relation."
//!
//! The HiSel variant (§5.2) has "only 20% of the tuples of every input
//! relation participate in the output of a join".
//!
//! Placement scenarios follow §4.3: "the ten base relations used in a
//! query are placed randomly among the servers (ensuring that each server
//! has at least one base relation)".

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId};
use csqp_simkernel::rng::SimRng;

pub mod spec;

pub use spec::WorkloadSpec;

/// Moderate selectivity: |A ⋈ B| = |A| = |B| for 10k-tuple relations.
pub const MODERATE_SEL: f64 = 1e-4;

/// HiSel selectivity: 20% of each input participates, |A ⋈ B| = 2,000
/// for 10k-tuple relations (⇒ 2,000 / (10,000 × 10,000)).
pub const HISEL_SEL: f64 = 2e-5;

/// An `n`-way chain join over benchmark relations with the given per-edge
/// selectivity, with the §3.3-implied unary keys declared.
pub fn chain_query(n: u32, selectivity: f64) -> QuerySpec {
    assert!(n >= 1);
    let rels = (0..n)
        .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
        .collect();
    let edges = (0..n.saturating_sub(1))
        .map(|i| JoinEdge {
            a: RelId(i),
            b: RelId(i + 1),
            selectivity,
        })
        .collect();
    declare_implied_keys(QuerySpec::new(rels, edges))
}

/// Declare every unary key the query's own selectivities imply.
///
/// §3.3's "a join of two equal-sized base relations returns a result that
/// is the size and cardinality of one base relation" is exactly the key
/// property: a per-edge selectivity of at most `1 / |r|` means each tuple
/// of the other side matches at most one tuple of `r` in the worst case,
/// so `r`'s join attribute behaves as a unary key. A relation is declared
/// keyed iff it has at least one incident join edge and *every* incident
/// edge satisfies the inequality — the condition the bound analyzer's
/// `bound-key-unsound` audit re-checks. Both MODERATE_SEL (= 1/10,000
/// exactly) and HISEL_SEL qualify for benchmark relations.
pub fn declare_implied_keys(mut query: QuerySpec) -> QuerySpec {
    for i in 0..query.relations.len() {
        let r = &query.relations[i];
        if r.tuples == 0 {
            continue;
        }
        let limit = 1.0 / r.tuples as f64;
        let incident: Vec<&JoinEdge> = query
            .edges
            .iter()
            .filter(|e| e.a == r.id || e.b == r.id)
            .collect();
        // A float `<=` against `1/tuples` plus strict positivity: a zero
        // or negative selectivity is a degenerate spec, not a key.
        let keyed = !incident.is_empty()
            && incident
                .iter()
                .all(|e| e.selectivity > 0.0 && e.selectivity <= limit);
        query.relations[i].key = keyed;
    }
    query
}

/// The paper's simple 2-way join.
pub fn two_way() -> QuerySpec {
    chain_query(2, MODERATE_SEL)
}

/// The paper's complex 10-way chain join.
pub fn ten_way() -> QuerySpec {
    chain_query(10, MODERATE_SEL)
}

/// The HiSel 10-way chain join of §5.2.
pub fn ten_way_hisel() -> QuerySpec {
    chain_query(10, HISEL_SEL)
}

/// A select-project-join chain: the chain query with a selection
/// predicate of the given selectivity on every `k`-th relation — the
/// full SPJ shape of §2.1 (projection is the implicit 100-byte width
/// convention of §3.3).
pub fn spj_query(n: u32, join_sel: f64, selection: f64, every_k: u32) -> QuerySpec {
    assert!(every_k >= 1);
    let mut q = chain_query(n, join_sel);
    for i in (0..n).step_by(every_k as usize) {
        q = q.with_selection(RelId(i), selection);
    }
    q
}

/// An `n`-way star join (hub relation 0), for coverage beyond the paper's
/// chains ("We have experimented with a variety of join graphs", §3.3).
pub fn star_query(n: u32, selectivity: f64) -> QuerySpec {
    assert!(n >= 2);
    let rels = (0..n)
        .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
        .collect();
    let edges = (1..n)
        .map(|i| JoinEdge {
            a: RelId(0),
            b: RelId(i),
            selectivity,
        })
        .collect();
    declare_implied_keys(QuerySpec::new(rels, edges))
}

/// Place all relations on a single server.
pub fn single_server_placement(query: &QuerySpec) -> Catalog {
    let mut c = Catalog::new(1);
    for r in &query.relations {
        c.place(r.id, SiteId::server(1));
    }
    c
}

/// Random placement over `num_servers` servers, each server receiving at
/// least one relation (§4.3). Requires at least as many relations as
/// servers.
pub fn random_placement(query: &QuerySpec, num_servers: u32, rng: &mut SimRng) -> Catalog {
    let n = query.num_relations() as u32;
    assert!(
        n >= num_servers,
        "cannot give each of {num_servers} servers a relation with only {n} relations"
    );
    let mut c = Catalog::new(num_servers);
    // Deal one relation to each server first, then the rest uniformly.
    let mut rel_ids: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
    rng.shuffle(&mut rel_ids);
    for (i, rel) in rel_ids.iter().enumerate() {
        let server = if (i as u32) < num_servers {
            SiteId::server(i as u32 + 1)
        } else {
            SiteId::server(rng.below(num_servers as usize) as u32 + 1)
        };
        c.place(*rel, server);
    }
    c
}

/// Cache the same fraction of every relation at the client (the x-axis of
/// Figures 2–5).
pub fn cache_all(catalog: &mut Catalog, query: &QuerySpec, fraction: f64) {
    for r in &query.relations {
        catalog.set_cached_fraction(r.id, fraction);
    }
}

/// Fully cache `k` randomly chosen relations (Fig 7: "five of the ten
/// relations are cached").
pub fn cache_k_relations(catalog: &mut Catalog, query: &QuerySpec, k: usize, rng: &mut SimRng) {
    let mut rel_ids: Vec<RelId> = query.relations.iter().map(|r| r.id).collect();
    assert!(k <= rel_ids.len());
    rng.shuffle(&mut rel_ids);
    for rel in rel_ids.into_iter().take(k) {
        catalog.set_cached_fraction(rel, 1.0);
    }
}

/// The server-disk load levels of Figure 4, in requests per second.
pub const FIG4_LOAD_LEVELS: [f64; 4] = [0.0, 40.0, 60.0, 70.0];

/// Approximate disk utilization produced by an external random-read load,
/// used to parameterize the cost model's load awareness: `rate × random
/// service time`, capped below saturation.
pub fn load_utilization(rate_per_sec: f64, rand_page_ms: f64) -> f64 {
    (rate_per_sec * rand_page_ms / 1e3).min(0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csqp_catalog::{Estimator, RelSet, SystemConfig};
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_relations_match_paper() {
        let q = ten_way();
        assert_eq!(q.num_relations(), 10);
        for r in &q.relations {
            assert_eq!(r.tuples, 10_000);
            assert_eq!(r.tuple_bytes, 100);
            assert_eq!(r.pages(4096), 250);
        }
        assert_eq!(q.edges.len(), 9);
    }

    #[test]
    fn moderate_chain_preserves_size() {
        let q = ten_way();
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        let all = q.all_rels();
        assert_eq!(est.tuples_int(all), 10_000);
        assert_eq!(est.pages_int(all), 250);
    }

    #[test]
    fn hisel_two_way_is_2000_tuples() {
        let q = ten_way_hisel();
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        let pair = RelSet::single(RelId(0)).union(RelSet::single(RelId(1)));
        assert_eq!(est.tuples_int(pair), 2_000);
    }

    #[test]
    fn random_placement_covers_every_server() {
        let q = ten_way();
        for servers in 1..=10 {
            let mut rng = SimRng::seed_from_u64(servers as u64);
            let cat = random_placement(&q, servers, &mut rng);
            let homes: BTreeSet<SiteId> = q
                .relations
                .iter()
                .map(|r| cat.try_primary_site(r.id).expect("every relation placed"))
                .collect();
            let every_server: BTreeSet<SiteId> = (1..=servers).map(SiteId::server).collect();
            assert_eq!(homes, every_server, "{servers} servers");
        }
    }

    #[test]
    #[should_panic(expected = "cannot give each")]
    fn too_many_servers_rejected() {
        let q = two_way();
        let mut rng = SimRng::seed_from_u64(1);
        random_placement(&q, 3, &mut rng);
    }

    #[test]
    fn cache_helpers() {
        let q = ten_way();
        let mut rng = SimRng::seed_from_u64(5);
        let mut cat = random_placement(&q, 3, &mut rng);
        cache_all(&mut cat, &q, 0.25);
        for r in &q.relations {
            assert!((cat.cached_fraction(r.id) - 0.25).abs() < 1e-12);
        }
        cache_all(&mut cat, &q, 0.0);
        cache_k_relations(&mut cat, &q, 5, &mut rng);
        let fully = q
            .relations
            .iter()
            .filter(|r| cat.cached_fraction(r.id) == 1.0)
            .count();
        assert_eq!(fully, 5);
    }

    #[test]
    fn star_query_edges_touch_hub() {
        let q = star_query(5, MODERATE_SEL);
        assert_eq!(q.edges.len(), 4);
        assert!(q.edges.iter().all(|e| e.a == RelId(0)));
    }

    #[test]
    fn benchmark_selectivities_imply_keys() {
        // MODERATE_SEL is exactly 1/10,000: every chain relation is keyed.
        assert!(ten_way().relations.iter().all(|r| r.key));
        // HISEL_SEL = 2e-5 < 1e-4 also qualifies.
        assert!(ten_way_hisel().relations.iter().all(|r| r.key));
        assert!(star_query(4, MODERATE_SEL).relations.iter().all(|r| r.key));
    }

    #[test]
    fn loose_selectivity_drops_the_key() {
        // 1e-3 > 1/10,000: a join result can exceed one base relation,
        // so no relation on such an edge may claim the key property.
        let q = chain_query(3, 1e-3);
        assert!(q.relations.iter().all(|r| !r.key));
        // A single-relation "chain" has no edges, hence no key evidence.
        let lone = chain_query(1, MODERATE_SEL);
        assert!(!lone.relations[0].key);
    }

    #[test]
    fn load_utilization_levels_match_paper_intent() {
        // §4.2.2: 40 req/s ≈ 50%, 60 ≈ 76%, 70 ≈ 90% utilization.
        let u40 = load_utilization(40.0, 11.8);
        let u60 = load_utilization(60.0, 11.8);
        let u70 = load_utilization(70.0, 11.8);
        assert!((0.4..0.6).contains(&u40), "{u40}");
        assert!((0.6..0.85).contains(&u60), "{u60}");
        assert!((0.75..0.95).contains(&u70), "{u70}");
    }
}

#[cfg(test)]
mod spj_tests {
    use super::*;
    use csqp_catalog::{Estimator, SystemConfig};

    #[test]
    fn spj_query_applies_selections() {
        let q = spj_query(4, MODERATE_SEL, 0.1, 2);
        assert!((q.selection[0] - 0.1).abs() < 1e-12);
        assert!((q.selection[1] - 1.0).abs() < 1e-12);
        assert!((q.selection[2] - 0.1).abs() < 1e-12);
        let cfg = SystemConfig::default();
        let est = Estimator::new(&q, &cfg);
        // Two 10% selections shrink the final result by 100x.
        assert_eq!(est.tuples_int(q.all_rels()), 100);
    }
}
