//! The `csqp-serve` loopback benchmark.
//!
//! One command runs a pinned, seeded workload against a real
//! `csqp-serve` child process over loopback TCP, prints every end-to-end
//! metric by name and unit, and checks the outputs: the first replies of
//! each connection must equal an in-process replay byte for byte. With
//! `--trace 1` the replay also runs decomposed, one span per layer, and
//! the run reports per-layer metrics instead.
//!
//! Module map:
//!
//! - [`workload`] — the four workloads and their request generators;
//! - [`client`] — frame I/O and the closed- and open-loop generators;
//! - [`clock`] — the one place the benchmark reads the wall clock;
//! - [`server`] — building and spawning `csqp-serve`;
//! - [`replay`] — the in-process replay and its span recorder;
//! - [`run`] — one run, from set-up to the checked result;
//! - [`stats`] — percentiles, quartiles and the regression verdict;
//! - [`compare`] — `csqp-benchmark compare` over two sets of runs.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod clock;
pub mod compare;
pub mod replay;
pub mod run;
pub mod server;
pub mod stats;
pub mod workload;
