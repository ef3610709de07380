//! `csqp-lint` — run the workspace determinism lints and exit nonzero
//! on any finding.
//!
//! ```text
//! cargo run --release --bin csqp-lint [-- --root PATH]
//! ```
//!
//! Scans every `.rs` file under the workspace root (excluding `target/`,
//! `vendor/`, and `tests/fixtures/`) for the rules documented in
//! [`csqp_lint`]: wall-clock-use, unseeded-rng, hash-iter-order,
//! unbounded-channel, wire-code-coverage, raw-syscall,
//! numeric-truncation, catalog-mutation, dead-pub, and stale-allow. The
//! root
//! defaults to the workspace this binary was built from.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = default_root();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage("--root needs an argument"),
            },
            "--help" | "-h" => {
                println!("usage: csqp-lint [--root PATH]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown flag {other}")),
        }
    }

    let run = match csqp_lint::lint_workspace(&root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("csqp-lint: scanning {} failed: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if run.report.is_clean() {
        println!(
            "csqp-lint: clean ({} files, {} allowlist entries)",
            run.files_scanned,
            csqp_lint::ALLOWLIST.len()
        );
        return ExitCode::SUCCESS;
    }
    for d in &run.report.diagnostics {
        match &d.path {
            Some(p) => eprintln!("csqp-lint: {p}: [{:?}] {}", d.code, d.detail),
            None => eprintln!("csqp-lint: [{:?}] {}", d.code, d.detail),
        }
    }
    eprintln!(
        "csqp-lint: {} finding(s) across {} files",
        run.report.len(),
        run.files_scanned
    );
    ExitCode::FAILURE
}

/// The workspace this binary was compiled from: `crates/lint/../..`.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("csqp-lint: {msg}\nusage: csqp-lint [--root PATH]");
    ExitCode::from(2)
}
