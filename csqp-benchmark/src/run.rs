//! One benchmark run: start the server, warm it up, measure the timed
//! phase over loopback, check every output, and replay the first
//! requests of each connection in-process.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use csqp_json::{obj, Json};
use csqp_serve::proto::{Frame, QueryRequest, StatsSnapshot};

use crate::client::{closed_loop, fold_digest, open_loop, Conn, Next, Outcome, Sample, Schedule};
use crate::clock;
use crate::replay::{totals, Replayer};
use crate::server::{repo_root, ServerProcess};
use crate::stats::{highest_supported, median, percentile};
use crate::workload::{warmup, RequestStream, Workload, CONNECTIONS, OPEN_RATE};

/// Server start-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;

/// Fewest timed samples a full-scale run must collect, so that its p99
/// has at least ten samples beyond it.
const MIN_SAMPLES: usize = 1000;

/// Windows the timed phase is cut into. Each end-to-end statistic is
/// taken over the half of the windows where it reads best: outside load
/// on a shared host only ever slows a stretch of a run, while the server
/// has no periodic background work, so a change to it moves every window
/// alike and survives the selection.
const WINDOWS: usize = 10;

/// How long a server may outlive the start of its run beyond the timed
/// phase before it shuts itself down (a run ends well within this).
const SERVER_GRACE: Duration = Duration::from_secs(150);

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics from a traced replay instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Divides warm-up and replay sizes (`--smoke` uses 20).
    pub scale: u64,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output checked out and every validity gate held.
    pub correct: bool,
    /// Requests sent in the timed phase.
    pub attempted: u64,
    /// Timed requests not answered with a clean RESULT.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics when traced.
    pub metrics: Vec<Metric>,
    /// Every failed check, in words.
    pub problems: Vec<String>,
    /// Human-readable report.
    pub report: String,
}

impl RunResult {
    /// The result object the benchmark prints last.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", Json::from(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Send each request and wait for its reply; returns how many were not
/// answered with a RESULT.
fn warm_conn(conn: &mut Conn, requests: &[QueryRequest]) -> Result<u64, String> {
    let mut bad = 0;
    for (i, req) in requests.iter().enumerate() {
        let mut req = req.clone();
        req.id = i as u64 + 1;
        conn.send(&Frame::Query(req).encode())?;
        if !matches!(conn.recv_frame()?, Frame::Result(_)) {
            bad += 1;
        }
    }
    Ok(bad)
}

/// Run `f` once per connection on its own thread and collect the results
/// in connection order.
fn per_conn<T: Send>(
    conns: &mut [Conn],
    f: impl Fn(u64, &mut Conn) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let f = &f;
                s.spawn(move || f(c as u64, conn))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect()
    })
}

/// Run one workload against the `csqp-serve` executable `bin`.
pub fn run(cfg: &RunConfig, bin: &Path) -> Result<RunResult, String> {
    let w = cfg.workload;
    let epoch = clock::now();
    let keep = (w.replay_per_conn() / cfg.scale.max(1)).max(1);
    let mut problems = Vec::new();

    // Set-up: start the server several times; keep the last one.
    let mut setups = Vec::with_capacity(SETUP_RUNS);
    let mut live = None;
    for _ in 0..SETUP_RUNS {
        let lifetime = Duration::from_secs_f64(cfg.seconds) + SERVER_GRACE;
        let (proc, control, took) = ServerProcess::spawn(bin, lifetime)?;
        setups.push(took.as_secs_f64());
        live = Some((proc, control));
    }
    let Some((server, mut control)) = live else {
        return Err("no server started".to_string());
    };
    let mut conns = (0..CONNECTIONS)
        .map(|c| Conn::open(server.addr, &format!("csqp-benchmark-{c}")))
        .collect::<Result<Vec<_>, _>>()?;

    // Untimed warm-up, split round-robin over the connections.
    let warm = warmup(w, cfg.seed, cfg.scale);
    let warm_started = clock::now();
    let warm_bad: u64 = per_conn(&mut conns, |c, conn| {
        let mine: Vec<_> = warm
            .iter()
            .skip(c as usize)
            .step_by(CONNECTIONS as usize)
            .cloned()
            .collect();
        warm_conn(conn, &mine)
    })?
    .into_iter()
    .sum();
    let warmup_s = warm_started.elapsed().as_secs_f64();
    if warm_bad > 0 {
        problems.push(format!(
            "{warm_bad} warm-up requests were not answered with a RESULT"
        ));
    }

    // Timed phase.
    let before = control.stats()?;
    let next_for = |c: u64| -> Next<'static> {
        let mut stream = RequestStream::new(w, cfg.seed, c);
        Box::new(move || Ok(Frame::Query(stream.next_request()?).encode()))
    };
    let start = clock::now();
    let outcomes: Vec<Outcome> = if w.is_open() {
        let gap = Duration::from_secs_f64(1.0 / OPEN_RATE);
        let count = (cfg.seconds * OPEN_RATE / CONNECTIONS as f64) as u64;
        let schedules: Vec<Schedule> = (0..CONNECTIONS)
            .map(|c| Schedule {
                start,
                offset: gap * c as u32,
                interval: gap * CONNECTIONS as u32,
                count,
            })
            .collect();
        let nexts = (0..CONNECTIONS).map(next_for).collect();
        open_loop(&mut conns, nexts, &schedules, keep)?
    } else {
        let until = start + Duration::from_secs_f64(cfg.seconds);
        per_conn(&mut conns, |c, conn| {
            closed_loop(conn, &mut next_for(c), until, keep)
        })?
    };
    let after = control.stats()?;
    let rss_mb = server.peak_rss_mb()?;
    drop(conns);
    drop(control);
    drop(server);

    // Loopback numbers.
    let samples: Vec<_> = outcomes.iter().flat_map(|o| o.samples.iter()).collect();
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    if failed > 0 {
        problems.push(format!(
            "{failed} timed requests were not answered with a clean RESULT"
        ));
    }
    let mut latency_ns: Vec<u64> = samples
        .iter()
        .map(|s| s.latency().as_nanos() as u64)
        .collect();
    latency_ns.sort_unstable();
    let windows = windowed(&samples, start, cfg.seconds);
    let best = best_half(&windows);
    let mut late_ns: Vec<u64> = samples.iter().map(|s| s.late().as_nanos() as u64).collect();
    late_ns.sort_unstable();
    let last_done = samples.iter().map(|s| s.done).max().unwrap_or(start);
    let answered = attempted - failed;
    let qps = answered as f64
        / last_done
            .saturating_duration_since(start)
            .as_secs_f64()
            .max(1e-9);
    let mut round_trip_ns: Vec<u64> = samples
        .iter()
        .map(|s| (s.done - s.sent).as_nanos() as u64)
        .collect();
    round_trip_ns.sort_unstable();
    if cfg.scale == 1 && latency_ns.len() < MIN_SAMPLES {
        problems.push(format!(
            "only {} timed samples; the p99 needs at least {MIN_SAMPLES}",
            latency_ns.len()
        ));
    }

    // Server-side deltas over the timed phase.
    let delta = |f: fn(&StatsSnapshot) -> u64| f(&after).saturating_sub(f(&before));
    let unclean = delta(|s| s.rejected)
        + delta(|s| s.errors)
        + delta(|s| s.aborted)
        + delta(|s| s.timed_out)
        + delta(|s| s.degraded);
    if unclean > 0 {
        problems.push(format!(
            "the server counted {unclean} rejected, failed or degraded queries"
        ));
    }
    let (hits, misses) = (delta(|s| s.memo_hits), delta(|s| s.memo_misses));
    let hit_ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    match w {
        Workload::TwostepHot if hit_ratio < 0.99 => problems.push(format!(
            "memo hit ratio {hit_ratio:.4} is below the hot band (0.99)"
        )),
        // Each request probes the winner layer once, so a site-selection
        // hit ratio of at most 0.05 needs at least 0.95 misses per query.
        Workload::TwostepCold if (misses as f64) < 0.95 * attempted as f64 => {
            problems.push(format!(
                "{misses} memo misses for {attempted} queries: cold site selection hit the memo"
            ))
        }
        Workload::TwostepOpen if qps < 0.98 * OPEN_RATE => problems.push(format!(
            "achieved {qps:.1} req/s, more than 2% below the offered {OPEN_RATE} req/s"
        )),
        _ => {}
    }

    // In-process replay of the first `keep` requests per connection,
    // after the server's warm-up. Untraced, the cold warm-up is skipped:
    // it only matters for timing, and results never depend on the memo.
    let mut replayer = Replayer::new(epoch, cfg.trace);
    if cfg.trace || w != Workload::TwostepCold {
        replayer.warm(&warm)?;
    }
    let mut digest = 0u64;
    let mut replayed = 0u64;
    let mut result_bytes = 0u64;
    let mut events = 0u64;
    for (c, outcome) in outcomes.iter().enumerate() {
        let c = c as u64;
        replayer.tracer.record_loopback(c, &outcome.samples, keep);
        let mut stream = RequestStream::new(w, cfg.seed, c);
        for (index, loopback) in outcome.kept.iter().enumerate() {
            let frame = Frame::Query(stream.next_request()?).encode();
            let Some(loopback) = loopback else {
                break;
            };
            let local = replayer.replay(c, index as u64, &frame)?;
            if &local.frame != loopback {
                problems.push(format!(
                    "loopback reply {c}/{index} differs from the in-process replay"
                ));
            }
            digest = fold_digest(digest, c, index as u64, loopback);
            replayed += 1;
            result_bytes += local.frame.len() as u64;
            events += local.events;
        }
    }
    if replayed == 0 {
        problems.push("no loopback reply was replayed".to_string());
    }

    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: seed {} — {attempted} timed requests ({failed} failed) in {:.2} s, warm-up {warmup_s:.2} s",
        w.name(),
        cfg.seed,
        cfg.seconds
    );
    if let Some((pct, v)) = highest_supported(&latency_ns) {
        let _ = writeln!(
            report,
            "  whole run: p50 {:.3} ms, p99 {:.3} ms, p{pct:.2} {:.3} ms over {} samples",
            percentile(&latency_ns, 0.50) / 1e6,
            percentile(&latency_ns, 0.99) / 1e6,
            v as f64 / 1e6,
            latency_ns.len()
        );
    }
    let _ = writeln!(
        report,
        "  best half of the windows: p50 {:.3} ms over {} samples, p99 {:.3} ms over {} \
         samples, {:.1} req/s",
        best.p50_ms, best.p50_samples, best.p99_ms, best.p99_samples, best.qps
    );
    for (i, (lat, qps)) in windows.iter().enumerate() {
        let _ = writeln!(
            report,
            "  window {i}: {qps:.1} req/s, p50 {:.3} ms, p99 {:.3} ms over {} samples",
            percentile(lat, 0.50) / 1e6,
            percentile(lat, 0.99) / 1e6,
            lat.len()
        );
    }
    let _ = writeln!(
        report,
        "  replayed {replayed} requests in-process; digest {digest:016x} over them"
    );

    let metrics = if cfg.trace {
        let spans = totals(replayer.tracer.spans());
        let ns = |name: &str| spans.get(name).map_or(0, |t| t.total_ns) as f64;
        let plan_ns: f64 = spans
            .iter()
            .filter(|(k, _)| k.starts_with("optimizer."))
            .map(|(_, t)| t.total_ns as f64)
            .sum();
        let n = replayed.max(1) as f64;
        let us_per = |total_ns: f64| total_ns / 1e3 / n;
        let handled = ns("serve.handle_query").max(1.0);
        let staged = ns("workload.build")
            + ns("serve.catalog_for")
            + plan_ns
            + ns("verify.lint")
            + ns("sim.execute");
        let _ = writeln!(report, "  span self time per replayed request:");
        for (name, t) in &spans {
            let _ = writeln!(
                report,
                "    {name:<32} {:>6} spans  total {:>10.1} us  self {:>10.1} us",
                t.count,
                t.total_ns as f64 / 1e3 / n,
                t.self_ns as f64 / 1e3 / n
            );
        }
        write_trace(w, &replayer)?;
        vec![
            m(
                "proto.decode_query_us",
                "us",
                us_per(ns("proto.decode_query")),
            ),
            m(
                "proto.encode_result_us",
                "us",
                us_per(ns("proto.encode_result")),
            ),
            m("proto.result_bytes", "bytes", result_bytes as f64 / n),
            m("workload.build_us", "us", us_per(ns("workload.build"))),
            m(
                "serve.catalog_for_us",
                "us",
                us_per(ns("serve.catalog_for")),
            ),
            m("optimizer.plan_us", "us", us_per(plan_ns)),
            m("verify.lint_us", "us", us_per(ns("verify.lint"))),
            m("sim.execute_us", "us", us_per(ns("sim.execute"))),
            m("sim.events_per_query", "count", events as f64 / n),
            m(
                "sim.events_per_sec",
                "1/s",
                events as f64 / (ns("sim.execute").max(1.0) / 1e9),
            ),
            m("serve.handle_query_us", "us", handled / 1e3 / n),
            m("serve.service_p50_ms", "ms", after.p50_ms),
            m("serve.service_p99_ms", "ms", after.p99_ms),
            // What the client waits beyond the server's own queue, plan
            // and simulate time: wire, reactor, encode and decode.
            m(
                "serve.overhead_ms",
                "ms",
                percentile(&round_trip_ns, 0.50) / 1e6 - after.p50_ms,
            ),
            m("memo.hit_ratio", "ratio", hit_ratio),
            m(
                "memo.evictions_per_query",
                "count",
                delta(|s| s.memo_evictions) as f64 / attempted.max(1) as f64,
            ),
            m("memo.bytes", "bytes", after.memo_bytes as f64),
            m(
                "reactor.wait_calls_per_query",
                "count",
                delta(|s| s.reactor_wait_calls) as f64 / attempted.max(1) as f64,
            ),
            m(
                "reactor.events_per_query",
                "count",
                delta(|s| s.reactor_events_dispatched) as f64 / attempted.max(1) as f64,
            ),
            m(
                "loadgen.late_p99_ms",
                "ms",
                percentile(&late_ns, 0.99) / 1e6,
            ),
            m("loadgen.warmup_s", "s", warmup_s),
            m("trace.coverage", "ratio", staged / handled),
            m("trace.overhead", "ratio", ns("handle") / handled - 1.0),
        ]
    } else {
        vec![
            // An open loop's windows all hold the offered rate; its
            // whole-run achieved rate is the number that can move.
            m(
                "throughput_qps",
                "1/s",
                if w.is_open() { qps } else { best.qps },
            ),
            m("latency_p50_ms", "ms", best.p50_ms),
            m("latency_p99_ms", "ms", best.p99_ms),
            m("setup_s", "s", median(&setups).unwrap_or(0.0)),
            m("server_rss_mb", "MiB", rss_mb),
        ]
    };
    for metric in &metrics {
        let _ = writeln!(
            report,
            "  {:<30} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for p in &problems {
        let _ = writeln!(report, "  CHECK FAILED: {p}");
    }
    Ok(RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        report,
    })
}

/// The timed phase cut into [`WINDOWS`] equal slices by completion
/// time: each window's clean samples' latencies (ns, sorted) and its
/// throughput.
fn windowed(samples: &[&Sample], start: std::time::Instant, seconds: f64) -> Vec<(Vec<u64>, f64)> {
    let len = seconds / WINDOWS as f64;
    let mut per: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
    for s in samples.iter().filter(|s| s.ok) {
        let slot = (s.done.saturating_duration_since(start).as_secs_f64() / len) as usize;
        if let Some(w) = per.get_mut(slot) {
            w.push(s.latency().as_nanos() as u64);
        }
    }
    per.into_iter()
        .map(|mut w| {
            w.sort_unstable();
            let qps = w.len() as f64 / len;
            (w, qps)
        })
        .collect()
}

/// End-to-end statistics over the best half of the windows.
struct BestHalf {
    p50_ms: f64,
    p50_samples: usize,
    p99_ms: f64,
    p99_samples: usize,
    qps: f64,
}

/// Each statistic over the half of the windows where it reads best: the
/// median over the pooled samples of the windows with the lowest medians,
/// the p99 likewise by p99, and the mean throughput of the busiest.
fn best_half(windows: &[(Vec<u64>, f64)]) -> BestHalf {
    let half = (windows.len() / 2).max(1);
    let pooled = |q: f64| -> (f64, usize) {
        let mut ws: Vec<&Vec<u64>> = windows.iter().map(|(w, _)| w).collect();
        ws.sort_by(|a, b| percentile(a, q).total_cmp(&percentile(b, q)));
        let mut kept: Vec<u64> = ws.into_iter().take(half).flatten().copied().collect();
        kept.sort_unstable();
        (percentile(&kept, q) / 1e6, kept.len())
    };
    let mut rates: Vec<f64> = windows.iter().map(|(_, q)| *q).collect();
    rates.sort_by(|a, b| b.total_cmp(a));
    let ((p50_ms, p50_samples), (p99_ms, p99_samples)) = (pooled(0.50), pooled(0.99));
    BestHalf {
        p50_ms,
        p50_samples,
        p99_ms,
        p99_samples,
        qps: rates.iter().take(half).sum::<f64>() / half as f64,
    }
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Write the run's spans to `target/csqp-benchmark/trace-<workload>.jsonl`.
fn write_trace(w: Workload, replayer: &Replayer) -> Result<(), String> {
    let dir = repo_root().join("target").join("csqp-benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", w.name()));
    std::fs::write(&path, replayer.tracer.to_jsonl())
        .map_err(|e| format!("{}: {e}", path.display()))
}
