//! Helpers shared by the serve integration tests. Every test binary
//! that declares `mod support;` compiles all of it and uses only part.
#![allow(dead_code)]

pub mod chaos;

use csqp_serve::proto::StatsSnapshot;

/// The accounting invariant, `submitted == queries_served + rejected +
/// errors + aborted + timed_out`: every admitted query ended in exactly
/// one terminal bucket. Only meaningful once the server has drained;
/// the chaos harness polls STATS until it settles.
pub fn conserved(s: &StatsSnapshot) -> bool {
    s.submitted == s.queries_served + s.rejected + s.errors + s.aborted + s.timed_out
}
