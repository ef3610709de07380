//! Allocation budget of the two-phase search: pricing a candidate binds
//! into the model's buffers, costs into a reused per-node usage slab and
//! applies the move in place to a reused plan, so a whole seeded
//! `Optimizer::optimize` makes fewer heap allocations than half its
//! evaluations (DESIGN.md §21). What is left is per restart and per
//! descent: a random start plan, one move list and one candidate.
//!
//! Under `debug_assertions` every candidate also passes through the
//! static checker (`csqp_verify::check_logical`), which builds a report
//! per call, so the budget is asserted on release builds only
//! (`cargo test --release`, as `scripts/check.sh test` runs it).

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use csqp_catalog::{Catalog, JoinEdge, QuerySpec, RelId, Relation, SiteId, SystemConfig};
use csqp_core::Policy;
use csqp_cost::{CostModel, Objective};
use csqp_optimizer::{OptConfig, Optimizer};
use csqp_simkernel::rng::SimRng;

/// Forwards to `System`, counting the calls that hand out memory on the
/// calling thread, so tests running in parallel do not see each other.
struct CountingAlloc;

thread_local! {
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_heap_call() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = HEAP_CALLS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_heap_call();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_heap_call();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_calls() -> u64 {
    HEAP_CALLS.with(Cell::get)
}

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
    QuerySpec::new(rels, edges).with_selection(RelId(0), 0.1)
}

/// Seeded searches over policy × objective on `rels` relations placed
/// round-robin over `servers`; returns `(heap calls, evaluations)` of
/// the worst cell by calls per evaluation.
fn worst_cell(rels: u32, servers: u32) -> (u64, u64) {
    let q = chain(rels);
    let mut cat = Catalog::new(servers);
    for i in 0..rels {
        cat.place(RelId(i), SiteId::server(1 + i % servers));
    }
    cat.set_cached_fraction(RelId(1), 0.5);
    let cfg = SystemConfig::default();
    let mut worst = (0, 1);
    for (p, policy) in Policy::ALL.into_iter().enumerate() {
        for (o, objective) in [
            Objective::Communication,
            Objective::ResponseTime,
            Objective::TotalCost,
        ]
        .into_iter()
        .enumerate()
        {
            let model = CostModel::new(&cfg, &cat, &q, SiteId::CLIENT);
            let opt = Optimizer::new(&model, policy, objective, OptConfig::fast());
            let mut rng = SimRng::seed_from_u64(1 + 3 * p as u64 + o as u64);
            let before = heap_calls();
            let result = opt.optimize(&q, &mut rng);
            let calls = heap_calls() - before;
            assert!(result.evaluations > 100, "{}", result.evaluations);
            if calls * worst.1 >= worst.0 * result.evaluations {
                worst = (calls, result.evaluations);
            }
        }
    }
    worst
}

fn assert_budget(rels: u32, servers: u32) {
    let (calls, evaluations) = worst_cell(rels, servers);
    println!(
        "{rels} relations, {servers} servers: worst cell {calls} heap calls over \
         {evaluations} evaluations ({:.3} per evaluation)",
        calls as f64 / evaluations as f64
    );
    if cfg!(debug_assertions) {
        return;
    }
    assert!(
        2 * calls < evaluations,
        "{calls} heap calls for {evaluations} evaluations: the budget is half an \
         allocation per evaluation"
    );
}

#[test]
fn four_relation_chain_on_two_servers_stays_under_budget() {
    assert_budget(4, 2);
}

/// More sites than any fixed-size inline usage array would hold.
#[test]
fn six_relation_chain_on_ten_servers_stays_under_budget() {
    assert_budget(6, 10);
}
