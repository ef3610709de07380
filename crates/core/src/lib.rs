//! The paper's primary contribution, as a library: client-server query
//! execution policies expressed as restrictions on *site annotations* of
//! query-plan operators.
//!
//! "The data-shipping, query-shipping, and hybrid-shipping policies can be
//! defined by the limitations they place on assigning site annotations to
//! the operator nodes of a query plan." (§2.2, Table 1)
//!
//! The crate provides:
//!
//! * [`plan`] — binary operator trees (display / join / select / scan) in
//!   an arena, with structural validation and pretty-printing;
//! * [`annotation`] — the logical site annotations (`client`, `consumer`,
//!   `producer`, `inner relation`, `outer relation`, `primary copy`);
//! * [`policy`] — Table 1: which annotations each policy permits per
//!   operator, plus whole-plan validation;
//! * [`wellformed`] — the two-node-cycle check of §2.2.3 ("a well-formed
//!   plan has no cycles… only cycles with two nodes can occur");
//! * [`bind()`] — runtime binding of logical annotations to physical sites
//!   ("the logical annotations are bound to actual sites in the network",
//!   §2.1);
//! * [`builder`] — convenience constructors (left-deep, balanced-bushy,
//!   explicit join trees) used by the optimizer and the tests;
//! * [`cancel`] — cooperative cancellation tokens with optional deadlines,
//!   probed by the optimizer and runner loops so the serving stack can
//!   abandon dead work promptly;
//! * [`limits`] — protocol limits shared by the serving engine and the
//!   model checkers, defined once so the machine checked can never be
//!   narrower than the machine served.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod annotation;
pub mod bind;
pub mod builder;
pub mod cancel;
pub mod diag;
pub mod limits;
pub mod plan;
pub mod policy;
pub mod wellformed;

pub use annotation::Annotation;
pub use bind::{bind, bind_into, BindContext, BindError, BoundPlan};
pub use builder::JoinTree;
pub use cancel::{CancelToken, StopReason};
pub use diag::{DiagCode, Diagnostic};
pub use plan::{LogicalOp, NodeId, Plan, PlanNode};
pub use policy::Policy;
pub use wellformed::{check_well_formed, is_well_formed};
