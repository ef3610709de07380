//! Logical metadata for the client-server query processing study: relations
//! and their statistics, the join graph of a query, placement of primary
//! copies on servers, the client disk-cache state, the simulator parameters
//! of the paper's Table 2, Shapiro-style join memory allocation, and
//! the trace format of the server's catalog drift model ([`drift`]).
//!
//! This crate is purely logical — it knows nothing about events, disks or
//! plans. Everything else (plans, cost model, engine) builds on it.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cardinality;
pub mod config;
pub mod drift;
pub mod ids;
pub mod memory;
pub mod num;
pub mod placement;
pub mod query;
pub mod schema;

pub use cardinality::Estimator;
pub use config::{BufAlloc, SystemConfig};
pub use drift::{DriftAction, DriftEvent};
pub use ids::{RelId, SiteId};
pub use memory::{hybrid_hash_plan, join_memory, HashPlan};
pub use num::sat_u64;
pub use placement::Catalog;
pub use query::{JoinEdge, QuerySpec, RelSet};
pub use schema::{pages_for, try_pages_for, Relation};
