//! Percentiles, quartiles, and the regression-bound verdict.

use csqp_serve::metrics::percentile_us;

/// Nearest-rank percentile `q` (in `0..=1`) of a sorted sample; 0 when
/// the sample is empty.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    percentile_us(sorted, q)
}

/// The highest percentile a sample supports: the value with exactly ten
/// samples ranked above it, as `(percentile in %, value)`. `None` below
/// eleven samples.
pub fn highest_supported(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default `exclusive`
/// method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Median of a set of values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Run-to-run spread: the interquartile distance as a share of the
/// median. A single run has no measurable spread and reports 0.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, med, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// The outcome of comparing a change's runs with its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// A side's spread exceeds the bound, so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// The word printed in the comparison table.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `base`, as a share of `base`
/// (negative when it improved).
pub fn worsening(base: f64, change: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - base) / base.abs(),
        Better::Higher => (base - change) / base.abs(),
    }
}

/// Apply a regression bound to the parent's runs `base` and the
/// change's runs `change`. The medians decide, unless either side's
/// spread is wider than the bound: then the metric is unresolved, except
/// when every run of the change reads better than every run of the
/// parent.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(mb), Some(mc)) = (median(base), median(change)) else {
        return Verdict::Unresolved;
    };
    let all_better = base
        .iter()
        .all(|&b| change.iter().all(|&c| worsening(b, c, better) < 0.0));
    if spread(base) > bound || spread(change) > bound {
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(mb, mc, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}
