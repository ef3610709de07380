//! CI runs one matrix job per `scripts/check.sh` stage. A stage named in
//! only one of the two files would either never run in CI or fail there
//! as unknown, so the two lists must be equal, in the same order.

// Tests panic on broken setup by design.
#![allow(clippy::expect_used)]

use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The words of `STAGES=( … )` in check.sh, which may span lines.
fn script_stages(script: &str) -> Vec<String> {
    let start = script
        .find("\nSTAGES=(")
        .expect("check.sh defines STAGES=(…)")
        + "\nSTAGES=(".len();
    let len = script[start..].find(')').expect("STAGES=( is closed");
    script[start..start + len]
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

/// The `stage: [ … ]` list of the CI matrix.
fn matrix_stages(workflow: &str) -> Vec<String> {
    let line = workflow
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("stage: ["))
        .expect("ci.yml has a `stage: [...]` matrix");
    line["stage: [".len()..]
        .trim_end_matches(']')
        .split(',')
        .map(|s| s.trim().to_string())
        .collect()
}

#[test]
fn ci_matrix_runs_exactly_the_check_sh_stages() {
    let script = read("scripts/check.sh");
    let stages = script_stages(&script);
    assert_eq!(stages, matrix_stages(&read(".github/workflows/ci.yml")));
    for stage in &stages {
        let function = format!("\nstage_{}() {{", stage.replace('-', "_"));
        assert!(
            script.contains(&function),
            "check.sh has no `stage_{stage}`"
        );
    }
}
