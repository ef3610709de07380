//! The simulated query execution engine (§3.2).
//!
//! "Query execution is based on an iterator model, similar to that of
//! Volcano. … When two connected operators are located on different
//! sites, a pair of specialized network operators is inserted between
//! them. … Tuples are shipped across the network a page-at-a-time. In
//! this case, pipelined parallelism can occur, because each producer has a
//! process that tries to stay one page ahead of its consumer."
//!
//! Every physical operator instance is a *process*: a state machine that,
//! when resumed, returns a batch of [`Action`]s (use CPU, read/write a
//! disk page, occupy the network wire, emit a page downstream, await a
//! page upstream, …) which the kernel executes against the simulated
//! resources. Data never materializes — pages carry tuple counts; all
//! Table 2 CPU charges and every single disk/network access are simulated
//! faithfully at page granularity.
//!
//! Architectural notes:
//!
//! * the paper's network operator pairs appear here as *remote channels*:
//!   emitting into one runs the full send pipeline (sender CPU → wire →
//!   receiver CPU) with a one-page-ahead window;
//! * a client-site scan of uncached data faults pages in from the server
//!   with a synchronous per-page RPC — the paper's data-shipping handicap
//!   ("DS faults in base data a page at a time, while QS is able to
//!   overlap some communication and join processing", §4.2.3);
//! * joins are hybrid-hash with *real* (simulated) spill I/O: partition
//!   writes land round-robin across per-partition temp extents on the
//!   join site's disk, so the contention and interference effects of
//!   Figures 3, 4 and 8 are emergent, not assumed;
//! * multi-client server load is an open-arrival process issuing random
//!   reads at a configurable rate against server disks (§3.2.2).

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod build;
pub mod channel;
pub mod kernel;
pub mod layout;
pub mod metrics;
pub mod ops;
pub mod process;

#[cfg(test)]
mod kernel_tests;
#[cfg(test)]
mod sim_wall;

pub use build::{ExecutionBuilder, ServerLoad};
pub use csqp_net::LinkStats;
pub use kernel::{Engine, ProcReport, WaitBreakdown};
pub use metrics::{ExecutionMetrics, MultiQueryMetrics, QueryOutcome};
pub use process::{Action, OperatorProc, Page, ResumeInput};
