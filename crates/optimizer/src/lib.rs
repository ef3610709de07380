//! Randomized two-phase query optimization (§3.1.1), after Ioannidis and
//! Kang \[IK90\].
//!
//! "The optimizer first chooses a random plan from the desired search
//! space (i.e., data, query, or hybrid-shipping) and then tries to improve
//! the plan by iterative improvement (II) and simulated annealing (SA)."
//!
//! * [`moves`] — the transformation rules: the four join-order moves of
//!   §3.1.1, the three site-annotation moves, and (as a documented
//!   extension, on by default) explicit join commutativity;
//! * [`random`] — policy-restricted random plan generation with
//!   well-formedness repair;
//! * [`search`] — II, SA, and the combined two-phase optimizer, with the
//!   move set enabled/disabled/restricted per policy exactly as §3.1.1
//!   describes;
//! * [`dp`] — the System-R-style [S+79] dynamic-programming join-order
//!   optimizer §5 offers as the alternative compile-time strategy;
//! * [`exhaustive`] — ground-truth enumeration for small queries, used
//!   to validate how close the randomized search gets to optimal;
//! * [`twostep`] — §5's optimization strategies for pre-compiled queries:
//!   *static* (compile-time plan, rebound at runtime) and *2-step*
//!   (compile-time join ordering, runtime site selection by simulated
//!   annealing).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod dp;
pub mod exhaustive;
pub mod moves;
pub mod random;
pub mod search;
pub mod twostep;

#[cfg(test)]
mod cost_wall;

pub use dp::dp_join_order;
pub use exhaustive::exhaustive_optimum;
pub use moves::MoveSet;
pub use moves::{applicable_moves, apply_move, Move, MoveKind};
pub use random::{random_neighbor, random_plan};
pub use search::{OptConfig, OptResult, Optimizer};
pub use twostep::{
    explicit_placement, two_step_plan, CompileTimeAssumption, MemoOutcome, TwoStepPlanner,
};
