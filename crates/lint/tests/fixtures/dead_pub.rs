//! Fixture: trips `dead-pub`. Public functions whose only callers are
//! tests, comments or strings — API nobody runs. Not compiled; scanned by
//! `tests/lint.rs` as a crate's `src/lib.rs`, next to the other sources
//! that test supplies (another crate, the benchmark package, a `tests/`
//! file).

/// Flagged: nothing calls it.
pub fn never_called() -> u32 {
    1
}

/// Flagged: only the unit tests below call it.
pub fn called_from_unit_tests() -> u32 {
    2
}

/// Flagged: only an integration test under `tests/` calls it.
pub fn called_from_integration_tests() -> u32 {
    3
}

/// Flagged: only the out-of-line test module `wall` calls it.
pub fn called_from_a_test_module_file() -> u32 {
    4
}

/// Flagged: another crate only re-exports it.
pub fn only_re_exported() -> u32 {
    5
}

/// Flagged: `mentioned_in_text` appears only in this doc comment, a
/// line comment and a string literal.
pub fn mentioned_in_text() -> &'static str {
    // mentioned_in_text
    "mentioned_in_text"
}

/// Not flagged: another crate's library calls it.
pub fn called_from_another_crate() -> u32 {
    6
}

/// Not flagged: the benchmark package calls it.
pub const fn called_from_the_benchmark() -> u32 {
    7
}

/// Not flagged: a private function of this crate calls it.
pub fn called_in_this_file() -> u32 {
    8
}

/// Not flagged: crate-visible only.
pub(crate) fn crate_visible() -> u32 {
    called_in_this_file()
}

#[cfg(test)]
mod wall;

#[cfg(test)]
mod tests {
    use super::*;

    pub fn test_helper_is_exempt() {}

    #[test]
    fn calls() {
        test_helper_is_exempt();
        assert_eq!(called_from_unit_tests(), 2);
    }
}
