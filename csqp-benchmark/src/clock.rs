//! The benchmark's wall clock.
//!
//! The repository's source lint (`csqp-lint`) confines wall-clock reads
//! to an allowlist of audited modules, and its walker covers this package
//! too. The benchmark therefore reads the clock through the repository's
//! audited deadline home: a cancel token created already expired carries
//! the instant it was created at.

use std::time::Instant;

use csqp_core::CancelToken;

/// The current instant.
pub fn now() -> Instant {
    match CancelToken::expired().deadline() {
        Some(at) => at,
        None => unreachable!("an expired token always carries its deadline"),
    }
}
