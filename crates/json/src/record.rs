//! The committed perf records (`BENCH_*.json`): one schema, one writer,
//! and the gate that holds a fresh run against the committed record.
//!
//! Every record is `{"bench", "config": {…}, "host_cores", "metrics":
//! {…}}`. [`gate_and_write`] reads the record at the path: with the same
//! `bench` and `config`, every [`Gate::Floor`] metric must reach
//! [`FLOOR_FRACTION`] of its committed value and every [`Gate::Exact`]
//! metric must equal it. A different `config` fails, naming the key,
//! because the numbers would not be comparable: delete the record on
//! purpose to start a new trajectory. A missing record passes.
//!
//! The committed record is only ever read. A passing run is written to
//! `target/bench/` beside the record, under the same file name;
//! re-recording means copying that file over the committed one on
//! purpose. Nothing is written on failure.

use std::path::{Path, PathBuf};

use crate::Json;

/// A fresh floor metric must reach this fraction of its committed
/// value. The records are measured on shared CI runners whose speed
/// varies run to run, so the floor catches collapses, not noise.
pub const FLOOR_FRACTION: f64 = 1.0 / 3.0;

/// How a metric is held against its committed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Recorded only.
    Info,
    /// Must be at least [`FLOOR_FRACTION`] of the committed value.
    Floor,
    /// Must equal the committed value (deterministic counts, digests).
    Exact,
}

/// Where a passing run against the record at `path` is written:
/// `target/bench/<file name>` in the record's directory, so
/// `BENCH_sim.json` gives `target/bench/BENCH_sim.json`.
fn fresh_path(path: &Path) -> Option<PathBuf> {
    let dir = path.parent().unwrap_or(Path::new(""));
    Some(dir.join("target").join("bench").join(path.file_name()?))
}

/// Gate a fresh run against the committed record at `path`, then write
/// the run to `target/bench/<file name>` in the record's directory; the
/// committed record is not touched.
///
/// On success returns one line per gated metric (fresh value against
/// its floor or committed value) plus the `wrote` line; on failure
/// returns why and writes nothing.
pub fn gate_and_write(
    path: impl AsRef<Path>,
    bench: &str,
    config: Vec<(&str, Json)>,
    metrics: Vec<(&str, Json, Gate)>,
) -> Result<String, String> {
    let path = path.as_ref();
    let shown = path.display();
    let fresh = fresh_path(path).ok_or_else(|| format!("{shown} names no record file"))?;
    let config = crate::obj(config);
    let mut report = Vec::new();
    match std::fs::read_to_string(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            report.push(format!(
                "{shown}: no committed record, starting a new trajectory"
            ));
        }
        Err(e) => return Err(format!("reading {shown} failed: {e}")),
        Ok(text) => {
            let committed =
                Json::parse(&text).map_err(|e| format!("{shown} is not a record: {e}"))?;
            report.extend(
                check(&committed, bench, &config, &metrics).map_err(|e| format!("{shown}: {e}"))?,
            );
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let record = crate::obj(vec![
        ("bench", Json::from(bench)),
        ("config", config),
        ("host_cores", Json::from(host_cores)),
        (
            "metrics",
            crate::obj(metrics.into_iter().map(|(k, v, _)| (k, v)).collect()),
        ),
    ]);
    let written = fresh.display();
    if let Some(dir) = fresh.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating {} failed: {e}", dir.display()))?;
    }
    std::fs::write(&fresh, record.render_pretty())
        .map_err(|e| format!("writing {written} failed: {e}"))?;
    report.push(format!(
        "wrote {written} (copy it over {shown} to re-record the trajectory)"
    ));
    Ok(report.join("\n"))
}

/// Hold `metrics` against `committed`; one report line per gated metric.
fn check(
    committed: &Json,
    bench: &str,
    config: &Json,
    metrics: &[(&str, Json, Gate)],
) -> Result<Vec<String>, String> {
    let was = committed.get("bench").and_then(Json::as_str);
    if was != Some(bench) {
        return Err(format!("holds a {was:?} record, not `{bench}`"));
    }
    let old_config = committed.get("config").unwrap_or(&Json::Null);
    if let Some(key) = differing_key(old_config, config) {
        return Err(format!(
            "config `{key}` differs from the committed record; delete the record \
             to start a new trajectory at this config"
        ));
    }
    let mut lines = Vec::new();
    for (name, fresh, gate) in metrics {
        if *gate == Gate::Info {
            continue;
        }
        let old = committed
            .get("metrics")
            .and_then(|m| m.get(name))
            .ok_or_else(|| format!("the committed record has no `{name}` metric"))?;
        if *gate == Gate::Exact {
            if fresh != old {
                return Err(format!(
                    "`{name}` is {} but the committed record has {}",
                    fresh.render(),
                    old.render()
                ));
            }
            lines.push(format!("gate {name}: {} == committed", fresh.render()));
            continue;
        }
        let (Some(fresh), Some(old)) = (fresh.as_f64(), old.as_f64()) else {
            return Err(format!("floor metric `{name}` is not a number"));
        };
        let floor = old * FLOOR_FRACTION;
        if fresh < floor {
            return Err(format!(
                "`{name}` {fresh:.2} fell below its floor {floor:.2} \
                 ({FLOOR_FRACTION:.3} of the committed {old:.2})"
            ));
        }
        lines.push(format!(
            "gate {name}: {fresh:.2} >= floor {floor:.2} ({FLOOR_FRACTION:.3} of the committed {old:.2})"
        ));
    }
    Ok(lines)
}

/// The first key whose value differs between two config objects (or
/// that only one of them has).
fn differing_key(old: &Json, new: &Json) -> Option<String> {
    let (Json::Obj(old), Json::Obj(new)) = (old, new) else {
        return Some("config".to_string());
    };
    old.iter()
        .chain(new)
        .map(|(k, _)| k)
        .find(|k| old.iter().find(|(o, _)| o == *k) != new.iter().find(|(n, _)| n == *k))
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of its own per test (tests run in parallel), removed
    /// when the test ends, holding the record path `record.json`.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(name: &str) -> (Scratch, PathBuf) {
        let dir = std::env::temp_dir().join(format!("csqp-json-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("record.json");
        (Scratch(dir), path)
    }

    /// Re-record on purpose: copy the fresh run over the committed record.
    fn commit(path: &Path) {
        std::fs::copy(fresh_path(path).unwrap(), path).unwrap();
    }

    fn run(path: &Path, seed: u64, rate: f64, digest: &str) -> Result<String, String> {
        gate_and_write(
            path,
            "test bench",
            vec![("seed", Json::from(seed))],
            vec![
                ("rate", Json::from(rate), Gate::Floor),
                ("digest", Json::from(digest), Gate::Exact),
                ("wall_secs", Json::from(0.5), Gate::Info),
            ],
        )
    }

    #[test]
    fn fresh_run_goes_under_target_bench_beside_the_record() {
        assert_eq!(
            fresh_path(Path::new("BENCH_sim.json")).unwrap(),
            Path::new("target/bench/BENCH_sim.json")
        );
        assert_eq!(
            fresh_path(Path::new("out/BENCH_x.json")).unwrap(),
            Path::new("out/target/bench/BENCH_x.json")
        );
    }

    #[test]
    fn missing_record_passes_and_only_the_fresh_run_is_written() {
        let (_dir, path) = &scratch("missing");
        run(path, 1, 30.0, "ab").unwrap();
        assert!(!path.exists(), "the committed record must not be created");
        let fresh = fresh_path(path).unwrap();
        let rec = Json::parse(&std::fs::read_to_string(fresh).unwrap()).unwrap();
        assert_eq!(rec.get("bench").and_then(Json::as_str), Some("test bench"));
        let metrics = rec.field("metrics").unwrap();
        assert_eq!(metrics.get("rate"), Some(&Json::from(30.0)));
        assert_eq!(metrics.get("wall_secs"), Some(&Json::from(0.5)));
        assert!(rec.get("host_cores").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn passing_run_leaves_the_committed_record_alone() {
        let (_dir, path) = &scratch("untouched");
        run(path, 1, 30.0, "ab").unwrap();
        commit(path);
        let before = std::fs::read(path).unwrap();
        run(path, 1, 45.0, "ab").unwrap();
        assert_eq!(std::fs::read(path).unwrap(), before);
        let fresh = std::fs::read_to_string(fresh_path(path).unwrap()).unwrap();
        let rec = Json::parse(&fresh).unwrap();
        assert_eq!(
            rec.field("metrics").unwrap().get("rate"),
            Some(&Json::from(45.0))
        );
    }

    #[test]
    fn floor_metric_at_exactly_the_fraction_passes() {
        let (_dir, path) = &scratch("at_floor");
        run(path, 1, 30.0, "ab").unwrap();
        commit(path);
        run(path, 1, 30.0 * FLOOR_FRACTION, "ab").unwrap();
    }

    #[test]
    fn floor_metric_just_below_the_fraction_fails() {
        let (_dir, path) = &scratch("below_floor");
        run(path, 1, 30.0, "ab").unwrap();
        commit(path);
        let below = f64::from_bits((30.0 * FLOOR_FRACTION).to_bits() - 1);
        let err = run(path, 1, below, "ab").unwrap_err();
        assert!(err.contains("`rate`"), "{err}");
    }

    #[test]
    fn exact_metric_that_differs_fails() {
        let (_dir, path) = &scratch("exact");
        run(path, 1, 30.0, "ab").unwrap();
        commit(path);
        let err = run(path, 1, 30.0, "ac").unwrap_err();
        assert!(err.contains("`digest`"), "{err}");
    }

    #[test]
    fn differing_config_fails_and_writes_nothing() {
        let (_dir, path) = &scratch("config");
        run(path, 1, 30.0, "ab").unwrap();
        commit(path);
        let fresh = fresh_path(path).unwrap();
        std::fs::remove_file(&fresh).unwrap();
        let before = std::fs::read(path).unwrap();
        let err = run(path, 2, 30.0, "ab").unwrap_err();
        assert!(err.contains("config `seed`"), "{err}");
        assert_eq!(std::fs::read(path).unwrap(), before);
        assert!(!fresh.exists(), "a failing run must not write");
    }
}
