//! The optimizer's cost model (§3.1.2).
//!
//! "The cost model that we used is capable of estimating both the total
//! cost and the response time of a query plan for a given system
//! configuration. The total-cost estimates are based on the model of
//! Mackert and Lohman \[ML86\]. The response-time estimates are generated
//! using the model of \[GHK92\]."
//!
//! Three objectives are provided ([`Objective`]):
//!
//! * **Communication** — pages sent over the network, the metric of the
//!   paper's communication experiments (Figs 2, 6, 7, 9);
//! * **ResponseTime** — elapsed time to the last displayed tuple, under
//!   the model's *full-overlap* assumption: pipelined and independent
//!   parallelism hide everything except serialization on individual
//!   resources. The paper itself notes this optimism ("it assumes that
//!   these costs can be fully overlapped, while in the simulator, such
//!   complete overlap is rarely attained", §4.2.3) — we reproduce the
//!   assumption deliberately;
//! * **TotalCost** — the sum of all resource seconds (ML86-style work
//!   metric).
//!
//! The per-operator accounting mirrors the engine: sequential scans at the
//! calibrated sequential per-page cost, hybrid-hash spill I/O, Table 2 CPU
//! charges, and per-page message costs. External server-disk load (the
//! multi-client stand-in of §3.2.2) inflates disk time by `1/(1-ρ)`.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod model;
pub mod objective;
pub mod usage;

pub use model::{CostModel, PlanCost};
pub use objective::Objective;
pub use usage::ResourceUsage;
