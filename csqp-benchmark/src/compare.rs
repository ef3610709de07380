//! `csqp-benchmark compare A B`: apply the `BENCHMARK.json` bounds to two
//! sets of runs and print one row per workload × end-to-end metric.
//!
//! A run file holds one JSON object per line, as `--out` appends them:
//! `{"workload": …, "seed": …, "trace": 0|1, "result": {…}}`. Only
//! untraced runs carry end-to-end metrics; traced lines are skipped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use csqp_json::Json;

use crate::stats::{median, spread, verdict, worsening, Better, Verdict};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which way it improves.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// The end-to-end metrics and workload names of a `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<(Vec<Metric>, Vec<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `{key}` list", path.display()))
    };
    let mut metrics = Vec::new();
    for m in list("end_to_end")? {
        let field = |k: &str| {
            m.get(k)
                .ok_or_else(|| format!("{}: an end_to_end entry lacks `{k}`", path.display()))
        };
        let better = match field("better")?.as_str() {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            other => return Err(format!("unknown direction {other:?}")),
        };
        metrics.push(Metric {
            name: field("name")?.as_str().unwrap_or_default().to_string(),
            unit: field("unit")?.as_str().unwrap_or_default().to_string(),
            better,
            bound: field("bound")?.as_f64().unwrap_or(0.0),
        });
    }
    let workloads = list("workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    Ok((metrics, workloads))
}

/// Metric values of a run file's untraced runs: workload → metric →
/// one value per run. Fails on a run that reported incorrect output.
pub fn read_runs(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut runs: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{}:{}", path.display(), n + 1);
        let doc = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        if doc.get("trace").and_then(Json::as_u64) == Some(1) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", at()))?;
        let result = doc
            .get("result")
            .ok_or_else(|| format!("{}: no result", at()))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: the run reported incorrect output", at()));
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(format!("{}: no metrics", at()));
        };
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: Metric,
    /// Parent median.
    pub base: f64,
    /// Change median.
    pub change: f64,
    /// Worsening of the change median, as a share of the parent's.
    pub worse: f64,
    /// Parent spread.
    pub base_spread: f64,
    /// Change spread.
    pub change_spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every workload × metric present in both run sets.
pub fn compare(
    metrics: &[Metric],
    workloads: &[String],
    base: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    change: &BTreeMap<String, BTreeMap<String, Vec<f64>>>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in workloads {
        let (Some(b), Some(c)) = (base.get(w), change.get(w)) else {
            continue;
        };
        for m in metrics {
            let (Some(bv), Some(cv)) = (b.get(&m.name), c.get(&m.name)) else {
                continue;
            };
            let (Some(bm), Some(cm)) = (median(bv), median(cv)) else {
                continue;
            };
            rows.push(Row {
                workload: w.clone(),
                metric: m.clone(),
                base: bm,
                change: cm,
                worse: worsening(bm, cm, m.better),
                base_spread: spread(bv),
                change_spread: spread(cv),
                verdict: verdict(bv, cv, m.better, m.bound),
            });
        }
    }
    rows
}

/// The comparison as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7}  verdict\n",
        "workload", "metric", "parent", "change", "worse", "bound", "spr(A)", "spr(B)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<22} {:>12.4} {:>12.4} {:>7.1}% {:>6.1}% {:>6.1}% {:>6.1}%  {}",
            r.workload,
            format!("{} ({})", r.metric.name, r.metric.unit),
            r.base,
            r.change,
            100.0 * r.worse,
            100.0 * r.metric.bound,
            100.0 * r.base_spread,
            100.0 * r.change_spread,
            r.verdict.as_str()
        );
    }
    out
}
