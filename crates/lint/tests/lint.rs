//! Integration tests: every fixture trips exactly its intended rule,
//! and the workspace itself is lint-clean (the same gate `csqp-lint`
//! and CI enforce).

// Tests panic on broken setup by design.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};

use csqp_lint::{lint_workspace, Allow, Linter, RuleKind, ALLOWLIST};
use csqp_verify::DiagCode;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint one fixture with an empty allowlist; return the codes found.
fn codes(name: &str) -> Vec<DiagCode> {
    let mut l = Linter::with_allows(&[]);
    let ds = l.lint_source(name, &fixture(name));
    assert!(l.finish().is_empty(), "no allows, so nothing can go stale");
    ds.iter().map(|d| d.code).collect()
}

#[test]
fn wall_clock_fixture_trips_only_wall_clock_use() {
    let found = codes("wall_clock.rs");
    assert!(!found.is_empty(), "fixture must trip");
    assert!(
        found.iter().all(|&c| c == DiagCode::WallClockUse),
        "{found:?}"
    );
    // Both the Instant::now and the thread::sleep are caught.
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn unseeded_rng_fixture_trips_only_unseeded_rng() {
    let found = codes("unseeded_rng.rs");
    assert_eq!(found, vec![DiagCode::UnseededRng], "{found:?}");
}

#[test]
fn hash_iter_fixture_trips_only_hash_iter_order() {
    let found = codes("hash_iter.rs");
    assert!(!found.is_empty(), "fixture must trip");
    assert!(
        found.iter().all(|&c| c == DiagCode::HashIterOrder),
        "{found:?}"
    );
    // The `use` and both HashMap mentions in signatures are caught.
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn unbounded_channel_fixture_trips_only_unbounded_channel() {
    let found = codes("unbounded_channel.rs");
    assert!(!found.is_empty(), "fixture must trip");
    assert!(
        found.iter().all(|&c| c == DiagCode::UnboundedChannel),
        "{found:?}"
    );
    // Exactly the unbounded constructor and the lock-across-recv; the
    // sync_channel and the unlocked recv stay quiet.
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn catalog_mutation_fixture_trips_only_catalog_mutation() {
    let found = codes("catalog_mutation.rs");
    assert!(!found.is_empty(), "fixture must trip");
    assert!(
        found.iter().all(|&c| c == DiagCode::CatalogMutation),
        "{found:?}"
    );
    // Both the .place(…) and the .set_cached_fraction(…) are caught; the
    // commentary mentioning them is stripped first.
    assert_eq!(found.len(), 2, "{found:?}");
}

#[test]
fn wire_code_fixture_trips_only_wire_code_coverage() {
    let mut l = Linter::with_allows(&[]);
    let ds = l.lint_source("wire_code.rs", &fixture("wire_code.rs"));
    assert_eq!(ds.len(), 1, "{ds:?}");
    assert_eq!(ds[0].code, DiagCode::WireCodeCoverage);
    assert!(
        ds[0].detail.contains("Forgotten") && ds[0].detail.contains("decode"),
        "names the hole: {}",
        ds[0].detail
    );
}

/// Lint the `dead-pub` fixture as `crates/fixture/src/lib.rs` beside
/// its callers elsewhere; return the names flagged and the stale-allow
/// count.
fn dead_pub_run(allows: &[Allow]) -> (Vec<String>, usize) {
    let mut l = Linter::with_allows(allows);
    for (rel, src) in [
        ("crates/fixture/src/lib.rs", fixture("dead_pub.rs")),
        (
            "crates/fixture/tests/it.rs",
            "called_from_integration_tests();".into(),
        ),
        (
            "crates/fixture/src/wall.rs",
            "#![cfg(test)] called_from_a_test_module_file();".into(),
        ),
        (
            "crates/other/src/lib.rs",
            "pub use f::only_re_exported; f::called_from_another_crate(); \
             g.called_as_a_method();"
                .into(),
        ),
        (
            "csqp-benchmark/src/main.rs",
            "f::called_from_the_benchmark();".into(),
        ),
    ] {
        assert!(l.lint_source(rel, &src).is_empty(), "{rel}");
    }
    let ds = l.finish();
    let stale = ds.iter().filter(|d| d.code == DiagCode::StaleAllow).count();
    let dead: Vec<String> = ds
        .iter()
        .filter(|d| d.code == DiagCode::DeadPub)
        .map(|d| d.detail.split('`').nth(1).unwrap().replace("pub fn ", ""))
        .collect();
    assert_eq!(
        dead.len() + stale,
        ds.len(),
        "only dead-pub findings: {ds:?}"
    );
    (dead, stale)
}

#[test]
fn dead_pub_fixture_trips_only_dead_pub() {
    let flagged = [
        "never_called",
        "called_from_unit_tests",
        "called_from_integration_tests",
        "called_from_a_test_module_file",
        "only_re_exported",
        "mentioned_in_text",
        "field_shielded",
    ];
    assert_eq!(dead_pub_run(&[]), (flagged.map(String::from).to_vec(), 0));

    // An entry naming the function and a reason waives it; one with an
    // empty reason, or one matching no finding, is stale.
    let allow = |name, why| Allow {
        path: "crates/fixture/src/lib.rs",
        rule: RuleKind::DeadPub(name),
        why,
    };
    let allows = [
        allow("never_called", "test oracle"),
        allow("mentioned_in_text", " "),
        allow("called_in_this_file", "test oracle"),
    ];
    let (dead, stale) = dead_pub_run(&allows);
    assert_eq!(dead, [&flagged[1..5], &flagged[6..]].concat());
    assert_eq!(stale, 2, "the bare reason and the entry matching nothing");
}

#[test]
fn diagnostics_carry_file_and_line_anchors() {
    let mut l = Linter::with_allows(&[]);
    let ds = l.lint_source("wall_clock.rs", &fixture("wall_clock.rs"));
    for d in &ds {
        let path = d.path.as_deref().expect("every finding is anchored");
        let (file, line) = path.split_once(':').expect("file:line format");
        assert_eq!(file, "wall_clock.rs");
        assert!(line.parse::<usize>().expect("numeric line") > 0);
    }
}

#[test]
fn memo_crate_is_clean_with_no_exemptions() {
    // Memo hits feed served plans (and thus digests) directly, so the
    // memo crate must satisfy every determinism lint — no wall clock,
    // no unseeded RNG, no hash-ordered collections — without a single
    // allowlist waiver, and must never quietly acquire one.
    assert!(
        ALLOWLIST
            .iter()
            .all(|a| !a.path.starts_with("crates/memo/")),
        "the memo crate must not carry lint exemptions"
    );
    let src_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("../memo/src");
    let mut linter = Linter::with_allows(&[]);
    let mut scanned = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&src_dir)
        .expect("memo crate sources exist")
        .collect::<Result<_, _>>()
        .expect("readable");
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".rs") {
            continue;
        }
        scanned += 1;
        let source = std::fs::read_to_string(entry.path()).expect("readable source");
        let diags = linter.lint_source(&format!("crates/memo/src/{name}"), &source);
        assert!(
            diags.is_empty(),
            "crates/memo/src/{name} must be clean: {diags:?}"
        );
    }
    assert!(scanned >= 4, "found the memo sources ({scanned} files)");
    // `finish` adds the cross-file dead-pub findings, which only the whole
    // workspace can settle (`workspace_is_lint_clean`); with no allows
    // nothing else can come out of it.
    assert!(linter.finish().iter().all(|d| d.code == DiagCode::DeadPub));
}

#[test]
fn workspace_is_lint_clean() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let run = lint_workspace(&root).expect("scan workspace");
    assert!(
        run.files_scanned > 100,
        "the walker found the workspace ({} files)",
        run.files_scanned
    );
    assert!(
        run.report.is_clean(),
        "workspace must stay lint-clean:\n{}",
        run.report
    );
}
