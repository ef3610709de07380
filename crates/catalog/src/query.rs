//! Query specifications: which relations are joined, along which edges,
//! with which selectivities.
//!
//! A [`QuerySpec`] is the *logical* query — the join graph. Plans (join
//! orders + site annotations) live in `csqp-core`; this crate only provides
//! the graph and the [`RelSet`] bitset used for cardinality estimation.

use crate::ids::RelId;
use crate::schema::Relation;

/// A set of relations, as a bitset over dense [`RelId`]s.
///
/// Supports up to 64 relations per query, far beyond the paper's 10-way
/// joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RelSet(pub u64);

impl RelSet {
    /// The empty set.
    pub const EMPTY: RelSet = RelSet(0);

    /// The singleton set `{rel}`.
    #[inline]
    pub fn single(rel: RelId) -> RelSet {
        assert!(rel.0 < 64, "RelSet supports at most 64 relations");
        RelSet(1 << rel.0)
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    /// True if `rel` is a member.
    #[inline]
    pub fn contains(self, rel: RelId) -> bool {
        rel.0 < 64 && (self.0 >> rel.0) & 1 == 1
    }

    /// True if the two sets share no relation.
    #[inline]
    pub fn is_disjoint(self, other: RelSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Number of member relations.
    #[inline]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// True for the empty set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over member relation ids in increasing order.
    pub fn iter(self) -> impl Iterator<Item = RelId> {
        (0..64u32)
            .filter(move |i| (self.0 >> i) & 1 == 1)
            .map(RelId)
    }
}

/// One edge of the join graph: an equijoin between two relations with the
/// given selectivity (result cardinality = sel × |L| × |R|).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinEdge {
    /// One endpoint.
    pub a: RelId,
    /// The other endpoint.
    pub b: RelId,
    /// Join selectivity in `(0, 1]`.
    pub selectivity: f64,
}

/// The logical query: relations, join edges, and optional per-relation
/// selection predicates.
///
/// The paper studies select-project-join queries (§2.1); projections are
/// folded into the convention that all intermediate tuples are projected to
/// the base tuple width (§3.3), and selections are per-relation predicates
/// with a selectivity.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// The relations referenced by the query (dense ids 0..n).
    pub relations: Vec<Relation>,
    /// The join graph.
    pub edges: Vec<JoinEdge>,
    /// Selection selectivity applied to each base relation (1.0 = no
    /// selection). Indexed by `RelId`.
    pub selection: Vec<f64>,
    /// Optional grouped aggregation of the query result (number of
    /// groups). The paper's footnote 4 notes that aggregations are
    /// annotated like selections; we support one over the final result.
    pub aggregate_groups: Option<u64>,
}

impl QuerySpec {
    /// Build a query over `relations` with the given edges and no
    /// selections.
    pub fn new(relations: Vec<Relation>, edges: Vec<JoinEdge>) -> QuerySpec {
        let n = relations.len();
        for (i, r) in relations.iter().enumerate() {
            assert_eq!(r.id.index(), i, "relation ids must be dense 0..n");
        }
        for e in &edges {
            assert!(
                e.a.index() < n && e.b.index() < n,
                "edge endpoint out of range"
            );
            assert!(e.a != e.b, "self-join edges are not supported");
            assert!(
                e.selectivity > 0.0 && e.selectivity <= 1.0,
                "selectivity must be in (0, 1]"
            );
        }
        QuerySpec {
            selection: vec![1.0; n],
            relations,
            edges,
            aggregate_groups: None,
        }
    }

    /// Aggregate the query result into `groups` groups.
    pub fn with_aggregate(mut self, groups: u64) -> QuerySpec {
        assert!(groups > 0, "need at least one group");
        self.aggregate_groups = Some(groups);
        self
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The set of all relations in the query.
    pub fn all_rels(&self) -> RelSet {
        self.relations
            .iter()
            .fold(RelSet::EMPTY, |s, r| s.union(RelSet::single(r.id)))
    }

    /// Set a selection predicate (selectivity) on one relation.
    pub fn with_selection(mut self, rel: RelId, selectivity: f64) -> QuerySpec {
        assert!(selectivity > 0.0 && selectivity <= 1.0);
        self.selection[rel.index()] = selectivity;
        self
    }

    /// True if some join edge connects the two (disjoint) relation sets —
    /// i.e. joining them is not a Cartesian product.
    pub fn joinable(&self, left: RelSet, right: RelSet) -> bool {
        self.edges.iter().any(|e| {
            (left.contains(e.a) && right.contains(e.b))
                || (left.contains(e.b) && right.contains(e.a))
        })
    }

    /// The tuple width shared by all relations, if uniform (the paper's
    /// benchmark always is; intermediate results are projected to it).
    pub fn uniform_tuple_bytes(&self) -> Option<u32> {
        let w = self.relations.first()?.tuple_bytes;
        self.relations
            .iter()
            .all(|r| r.tuple_bytes == w)
            .then_some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_chain() -> QuerySpec {
        let rels = (0..3)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        let edges = vec![
            JoinEdge {
                a: RelId(0),
                b: RelId(1),
                selectivity: 1e-4,
            },
            JoinEdge {
                a: RelId(1),
                b: RelId(2),
                selectivity: 1e-4,
            },
        ];
        QuerySpec::new(rels, edges)
    }

    #[test]
    fn relset_basics() {
        let a = RelSet::single(RelId(0));
        let b = RelSet::single(RelId(3));
        let u = a.union(b);
        assert!(u.contains(RelId(0)) && u.contains(RelId(3)));
        assert!(!u.contains(RelId(1)));
        assert_eq!(u.len(), 2);
        assert!(a.is_disjoint(b));
        assert!(!u.is_disjoint(a));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![RelId(0), RelId(3)]);
    }

    #[test]
    fn joinable_follows_edges() {
        let q = three_chain();
        let r0 = RelSet::single(RelId(0));
        let r1 = RelSet::single(RelId(1));
        let r2 = RelSet::single(RelId(2));
        assert!(q.joinable(r0, r1));
        assert!(q.joinable(r1, r2));
        assert!(!q.joinable(r0, r2), "R0-R2 is a Cartesian product");
        assert!(q.joinable(r0.union(r1), r2));
    }

    #[test]
    fn all_rels_and_uniform_width() {
        let q = three_chain();
        assert_eq!(q.all_rels().len(), 3);
        assert_eq!(q.uniform_tuple_bytes(), Some(100));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_rejected() {
        let rels = vec![Relation::benchmark(RelId(1), "A")];
        QuerySpec::new(rels, vec![]);
    }

    #[test]
    #[should_panic(expected = "selectivity")]
    fn zero_selectivity_rejected() {
        let rels = (0..2)
            .map(|i| Relation::benchmark(RelId(i), format!("R{i}")))
            .collect();
        QuerySpec::new(
            rels,
            vec![JoinEdge {
                a: RelId(0),
                b: RelId(1),
                selectivity: 0.0,
            }],
        );
    }
}
