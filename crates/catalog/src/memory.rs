//! Join memory allocation and hybrid-hash partition planning, after
//! Shapiro \[Sha86\] as used by the paper (§3.2.2):
//!
//! * **Maximum allocation** lets the hash table for the inner relation be
//!   built entirely in main memory: `⌈F·N⌉` frames for an `N`-page inner.
//! * **Minimum allocation** reserves `⌈F·√N⌉` frames and requires the inner
//!   and outer relations to be split into partitions, all but one of which
//!   are written to and re-read from temporary storage.

use crate::config::{BufAlloc, SystemConfig};

/// How a hybrid-hash join will lay out a given inner relation in a given
/// amount of memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashPlan {
    /// Buffer frames granted to the join.
    pub mem_frames: u64,
    /// Number of spilled partitions (0 = fully in-memory join).
    pub spill_partitions: u64,
    /// Inner pages held resident in partition 0 (never spilled).
    pub resident_inner_pages: u64,
    /// Inner pages written to temporary storage.
    pub spilled_inner_pages: u64,
    /// Size of each spilled inner partition, in pages (last may be short).
    pub partition_pages: u64,
}

/// Buffer frames granted to a join over an `inner_pages`-page build input
/// under the configured allocation policy.
pub fn join_memory(config: &SystemConfig, inner_pages: u64) -> u64 {
    let f = config.fudge;
    match config.buf_alloc {
        BufAlloc::Max => crate::num::sat_u64((f * inner_pages as f64).ceil()) + 1,
        BufAlloc::Min => crate::num::sat_u64((f * (inner_pages as f64).sqrt()).ceil()),
    }
    .max(3) // always at least in/out/work frames
}

/// Plan a hybrid-hash join of an `inner_pages`-page build input into
/// `mem_frames` frames with fudge factor `f`.
///
/// Follows Shapiro's hybrid hash: partition 0 is kept resident with
/// `mem_frames − B` frames (one output frame per spilled partition), and
/// `B` is the smallest partition count for which every spilled partition's
/// hash table fits in memory when re-read.
pub fn hybrid_hash_plan(inner_pages: u64, mem_frames: u64, f: f64) -> HashPlan {
    assert!(f >= 1.0, "fudge factor must be >= 1");
    assert!(mem_frames >= 3, "a join needs at least 3 frames");
    if (inner_pages as f64) * f <= mem_frames as f64 {
        return HashPlan {
            mem_frames,
            spill_partitions: 0,
            resident_inner_pages: inner_pages,
            spilled_inner_pages: 0,
            partition_pages: 0,
        };
    }
    // Find the smallest B such that the spilled partitions fit on re-read.
    // Integer rounding can make the exact fit unattainable at the minimum
    // allocation boundary (e.g. 11 pages into 4 frames); one frame of slack
    // is allowed there — a real system would recursively partition, and at
    // our scales the modeling difference is below one page of I/O.
    //
    // The scan starts at a sound lower bound rather than at 1: any fit
    // needs `ceil(spilled/b) * f <= mem_frames`, and spilled volume only
    // grows with B, so `b >= spilled(B=1) * f / mem_frames` is necessary.
    // Without the jump-start the scan is linear in `mem_frames`, which for
    // the Cartesian-product intermediates a random plan walk can produce
    // (u64-saturated page counts, billions of granted frames) turns one
    // cost evaluation into seconds of spinning.
    let spilled_at_min_b = {
        let resident = crate::num::sat_u64(((mem_frames - 1) as f64 / f).floor());
        inner_pages - resident.min(inner_pages)
    };
    let b_lo =
        crate::num::sat_u64((spilled_at_min_b as f64 * f / mem_frames as f64).floor()).max(1);
    if let (Some(fit), _) = scan_partition_counts(inner_pages, mem_frames, f, b_lo) {
        return fit;
    }
    // No exact fit above the bound: by the bound's derivation no B fits at
    // all, so fall back to the full scan purely to reproduce the original
    // slack-fallback choice over every split. This only happens at small
    // frame counts, where the scan is cheap.
    let (fit, fallback) = scan_partition_counts(inner_pages, mem_frames, f, 1);
    // Invariant, not an error path: with `b_start == 1` and
    // `mem_frames >= 3` (asserted above) the scan always produces at least
    // one candidate split.
    #[allow(clippy::expect_used)]
    fit.or(fallback)
        .expect("mem_frames >= 3 guarantees at least one candidate split")
}

/// Scan partition counts `b_start..mem_frames` for the smallest exact-fit
/// split (first return slot); when none fits, the second slot carries the
/// most even split seen (the documented one-frame-slack fallback).
fn scan_partition_counts(
    inner_pages: u64,
    mem_frames: u64,
    f: f64,
    b_start: u64,
) -> (Option<HashPlan>, Option<HashPlan>) {
    let mut fallback: Option<HashPlan> = None;
    for b in b_start..mem_frames {
        let resident_frames = mem_frames - b;
        let resident_pages = crate::num::sat_u64((resident_frames as f64 / f).floor());
        let resident_pages = resident_pages.min(inner_pages);
        let spilled = inner_pages - resident_pages;
        if spilled == 0 {
            return (
                Some(HashPlan {
                    mem_frames,
                    spill_partitions: 0,
                    resident_inner_pages: inner_pages,
                    spilled_inner_pages: 0,
                    partition_pages: 0,
                }),
                None,
            );
        }
        let part = spilled.div_ceil(b);
        let plan = HashPlan {
            mem_frames,
            spill_partitions: b,
            resident_inner_pages: resident_pages,
            spilled_inner_pages: spilled,
            partition_pages: part,
        };
        if (part as f64) * f <= mem_frames as f64 {
            return (Some(plan), None);
        }
        // Track the most even split seen as the slack fallback.
        match &fallback {
            Some(best) if best.partition_pages <= part => {}
            _ => fallback = Some(plan),
        }
    }
    (None, fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The pre-jump-start planner: scan every partition count from 1.
    fn reference_plan(inner: u64, m: u64, f: f64) -> HashPlan {
        if (inner as f64) * f <= m as f64 {
            return hybrid_hash_plan(inner, m, f);
        }
        let (fit, fallback) = scan_partition_counts(inner, m, f, 1);
        fit.or(fallback).expect("at least one candidate split")
    }

    #[test]
    fn jump_start_matches_full_scan() {
        // The lower-bound jump-start must be behavior-preserving: sweep a
        // dense grid of (inner, frames) including the no-exact-fit slack
        // boundary cases, and compare against the scan-from-1 reference.
        for inner in 1..200u64 {
            for m in 3..48u64 {
                for f in [1.0, 1.2, 1.7] {
                    assert_eq!(
                        hybrid_hash_plan(inner, m, f),
                        reference_plan(inner, m, f),
                        "inner={inner} m={m} f={f}"
                    );
                }
            }
        }
    }

    #[test]
    fn astronomical_inputs_plan_quickly() {
        // A random plan walk can hand the cost model Cartesian-product
        // intermediates whose page counts saturate u64; planning the join
        // must stay O(1)-ish, not scan billions of frame counts.
        let f = 1.2;
        let inner = u64::MAX / 2;
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Min;
        let m = join_memory(&cfg, inner);
        let t = std::time::Instant::now();
        let plan = hybrid_hash_plan(inner, m, f);
        assert!(
            t.elapsed() < std::time::Duration::from_millis(200),
            "planner scanned instead of jumping: {:?}",
            t.elapsed()
        );
        assert_eq!(plan.resident_inner_pages + plan.spilled_inner_pages, inner);
        assert!(plan.spill_partitions > 0 && plan.spill_partitions < m);
        assert!(plan.partition_pages * plan.spill_partitions >= plan.spilled_inner_pages);
    }

    #[test]
    fn max_allocation_never_spills() {
        let mut cfg = SystemConfig::default();
        cfg.buf_alloc = BufAlloc::Max;
        let m = join_memory(&cfg, 250);
        assert!(m >= 300); // 1.2 * 250
        let plan = hybrid_hash_plan(250, m, cfg.fudge);
        assert_eq!(plan.spill_partitions, 0);
        assert_eq!(plan.resident_inner_pages, 250);
        assert_eq!(plan.spilled_inner_pages, 0);
    }

    #[test]
    fn min_allocation_for_benchmark_relation() {
        let cfg = SystemConfig::default();
        // F*sqrt(250) = 18.97... -> 19 frames.
        let m = join_memory(&cfg, 250);
        assert_eq!(m, 19);
        let plan = hybrid_hash_plan(250, m, cfg.fudge);
        assert!(plan.spill_partitions > 0);
        // Nearly all of the inner spills: only a few pages stay resident.
        assert!(plan.resident_inner_pages < 10, "{plan:?}");
        assert_eq!(plan.resident_inner_pages + plan.spilled_inner_pages, 250);
        // Each spilled partition must fit on re-read.
        assert!((plan.partition_pages as f64) * cfg.fudge <= m as f64);
    }

    #[test]
    fn tiny_inner_fits_even_with_min_alloc() {
        let cfg = SystemConfig::default();
        let m = join_memory(&cfg, 2);
        let plan = hybrid_hash_plan(2, m, cfg.fudge);
        assert_eq!(plan.spill_partitions, 0);
    }

    #[test]
    fn minimum_frames_floor() {
        let cfg = SystemConfig::default();
        assert!(join_memory(&cfg, 0) >= 3);
        assert!(join_memory(&cfg, 1) >= 3);
    }

    proptest! {
        /// Shapiro's guarantee: with at least F*sqrt(N) frames, a
        /// single-level hybrid hash plan always exists, partitions fit on
        /// re-read, and page accounting is exact.
        #[test]
        fn hybrid_hash_plan_invariants(inner in 1u64..5_000) {
            let f = 1.2;
            let m = crate::num::sat_u64(((inner as f64).sqrt() * f).ceil());
            let m = m.max(3);
            let plan = hybrid_hash_plan(inner, m, f);
            prop_assert_eq!(
                plan.resident_inner_pages + plan.spilled_inner_pages,
                inner
            );
            if plan.spill_partitions > 0 {
                // Exact fit, or the documented one-frame slack at the
                // minimum-allocation boundary.
                prop_assert!((plan.partition_pages as f64) * f <= (m + 1) as f64 + f);
                prop_assert!(
                    plan.partition_pages * plan.spill_partitions
                        >= plan.spilled_inner_pages
                );
                prop_assert!(plan.spill_partitions < m);
            } else {
                prop_assert_eq!(plan.spilled_inner_pages, 0);
            }
        }

        /// More memory never increases the spilled volume.
        #[test]
        fn monotone_in_memory(inner in 10u64..2_000, extra in 0u64..50) {
            let f = 1.2;
            let m0 = crate::num::sat_u64(((inner as f64).sqrt() * f).ceil()).max(3);
            let a = hybrid_hash_plan(inner, m0, f);
            let b = hybrid_hash_plan(inner, m0 + extra, f);
            prop_assert!(b.spilled_inner_pages <= a.spilled_inner_pages);
        }
    }
}
