//! Chaos soak harness: drive a live server through seeded fault
//! injection and check the robustness invariants afterwards.
//!
//! The harness replays the same seeded workload mix as [`crate::load`],
//! but routes every exchange through a [`FaultPlan`]: some queries are
//! sent clean, others are truncated, corrupted, dribbled out in short
//! writes, paced, or abandoned mid-frame. Schedules run **sequentially**
//! with one outstanding query, so every server reply is a pure function
//! of `(seed, schedule, index)` — which is what makes the
//! same-seed-same-digest assertion possible even under fault injection.
//!
//! After the soak the harness polls STATS until the accounting settles,
//! asserts the conservation invariant
//! `submitted == served + rejected + errors + aborted + timed_out`, and
//! issues clean probe queries to prove no worker slot or queue permit
//! leaked.
//!
//! Determinism caveat: the reply digest is reproducible when
//! `deadline_ms` is `None` (no deadline) or `Some(0)` (every query
//! expires at admission). Intermediate deadlines race the actual
//! planning time and make replies timing-dependent.
//!
//! Reply-path faults: when the server under test is configured with
//! [`crate::ServerConfig::reply_faults`] =
//! `FaultPlan::new(cfg.seed, cfg.intensity)` and the soak sets
//! [`ChaosConfig::reply_faults`], the harness expects some replies to
//! arrive truncated or corrupted. A reply that no longer decodes counts
//! as *mangled* — folded into the digest as a deterministic marker (the
//! typed decode error is itself pure in the seed) — and the harness
//! reconnects. The accounting invariant widens to
//! `replies + dropped + mangled == sent`.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use csqp_net::chaos::{
    corrupt_frame, truncate_frame, FaultPlan, FaultyStream, QueryFault, ReplyFault, WritePacing,
};
use csqp_simkernel::rng::SimRng;

use crate::load::{nth_request, LoadConfig};
use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, Hello, StatsSnapshot, WireError, HEADER_LEN,
};
use crate::server::fnv1a;

/// Client-side read timeout during the soak; `read_frame` rides these as
/// typed [`WireError::TimedOut`] and the harness retries up to
/// [`REPLY_BUDGET`].
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Longest the harness waits for any single reply before declaring the
/// exchange dead and reconnecting.
const REPLY_BUDGET: Duration = Duration::from_secs(10);

/// Chunk size for the short-write fault: small enough to split every
/// frame (headers alone are 12 bytes) without making the soak crawl.
const SHORT_WRITE_CHUNK: usize = 3;

/// Pause length for the pacing faults, in milliseconds.
const PAUSE_MS: u64 = 2;

/// What the chaos soak should do.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Master seed: fixes the workload mix *and* the fault schedule.
    pub seed: u64,
    /// Sequential fault schedules (logical clients) to run.
    pub schedules: u64,
    /// Queries per schedule.
    pub queries_per_schedule: u64,
    /// Probability in `[0, 1]` that an exchange draws a fault.
    pub intensity: f64,
    /// Per-query deadline forwarded to the server; see the module-level
    /// determinism caveat.
    pub deadline_ms: Option<u64>,
    /// How long to wait for the server's accounting to settle after the
    /// soak before declaring a leak.
    pub settle_timeout: Duration,
    /// The server under test injects reply-path faults from
    /// `FaultPlan::new(seed, intensity)` — the *same* plan this soak
    /// derives — so undecodable replies are expected, counted as
    /// mangled, and predicted for the post-soak probes.
    pub reply_faults: bool,
    /// The server under test injects catalog-propagation faults from
    /// `FaultPlan::new(seed, intensity)` (see
    /// [`crate::ServerConfig::catalog_faults`]): withheld refreshes,
    /// torn and reordered epoch deliveries, poisoned cached-fraction
    /// snapshots. Stale-catalog rejects and QS downgrades are then
    /// expected, and the caller should audit the recorded drift trace
    /// with `csqp_verify::catalog::check_drift` after the soak.
    pub catalog_faults: bool,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            addr: "127.0.0.1:7878".to_string(),
            seed: 0xFA17,
            schedules: 4,
            queries_per_schedule: 24,
            intensity: 0.4,
            deadline_ms: None,
            settle_timeout: Duration::from_secs(10),
            reply_faults: false,
            catalog_faults: false,
        }
    }
}

/// What a chaos soak observed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Exchanges attempted (`schedules * queries_per_schedule`).
    pub queries_sent: u64,
    /// Exchanges that produced a typed reply frame.
    pub replies: u64,
    /// Exchanges dropped on purpose or closed by the server mid-exchange.
    pub dropped: u64,
    /// Exchanges that drew a non-`None` fault.
    pub faults: u64,
    /// Client-side I/O failures during fault application (the soak
    /// continues past them; a healthy server keeps this at zero).
    pub client_errors: u64,
    /// Replies the server mangled on purpose (reply-path fault plan):
    /// the frame arrived truncated or undecodable. Zero unless
    /// [`ChaosConfig::reply_faults`] is set.
    pub mangled: u64,
    /// Order-independent checksum over `(schedule, index, reply frame)`.
    pub digest: u64,
    /// Server STATS after the settle loop.
    pub stats: StatsSnapshot,
    /// Whether `submitted == served + rejected + errors + aborted +
    /// timed_out` held within the settle timeout.
    pub conservation: bool,
    /// Whether every clean post-soak probe query was served — the
    /// no-leaked-worker check.
    pub probes_ok: bool,
}

impl ChaosReport {
    /// True when every robustness invariant held.
    pub fn healthy(&self) -> bool {
        self.conservation && self.probes_ok && self.client_errors == 0
    }

    /// Render the human report printed by `csqp-load --chaos`.
    pub fn render(&self) -> String {
        format!(
            "exchanges {}\nreplies   {}\ndropped   {}\nmangled   {}\nfaults    {}\nclient-io-errors {}\nserver    submitted {}  served {}  rejected {}  errors {}  aborted {}  timed-out {}  degraded {}\nconservation {}\nprobes    {}\ndigest    {:016x}",
            self.queries_sent,
            self.replies,
            self.dropped,
            self.mangled,
            self.faults,
            self.client_errors,
            self.stats.submitted,
            self.stats.queries_served,
            self.stats.rejected,
            self.stats.errors,
            self.stats.aborted,
            self.stats.timed_out,
            self.stats.degraded,
            if self.conservation { "ok" } else { "VIOLATED" },
            if self.probes_ok { "ok" } else { "FAILED" },
            self.digest
        )
    }
}

/// Open a soak connection: connect, set timeouts, shake hands.
fn open(addr: &str) -> Result<TcpStream, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    write_frame(
        &mut stream,
        &Frame::Hello(Hello {
            client: "csqp-chaos".to_string(),
        }),
    )?;
    match read_reply(&mut stream)? {
        Some(Frame::HelloAck(_)) => Ok(stream),
        other => Err(WireError::Io(std::io::Error::other(format!(
            "expected HELLO-ACK, got {other:?}"
        )))),
    }
}

/// Read one reply, riding between-frame read timeouts up to
/// [`REPLY_BUDGET`]. `Ok(None)` means the server closed the connection.
fn read_reply(stream: &mut TcpStream) -> Result<Option<Frame>, WireError> {
    let give_up = Instant::now() + REPLY_BUDGET;
    loop {
        match read_frame(stream) {
            Err(WireError::TimedOut) if Instant::now() < give_up => continue,
            other => return other,
        }
    }
}

/// Send one query under `fault` and collect the reply, if the fault
/// leaves the exchange alive. `Ok(None)` means no reply is coming —
/// either because the fault dropped the connection on purpose or because
/// the server hung up.
fn apply_fault(
    stream: &mut TcpStream,
    fault: QueryFault,
    frame: &[u8],
    rng: &mut SimRng,
) -> Result<Option<Frame>, WireError> {
    match fault {
        QueryFault::None => {
            stream.write_all(frame)?;
            read_reply(stream)
        }
        QueryFault::DropBeforeSend => Ok(None),
        QueryFault::DropMidFrame => {
            // Leave the header intact so the server is mid-payload when
            // the connection dies.
            let keep = HEADER_LEN + (frame.len() - HEADER_LEN) / 2;
            stream.write_all(&frame[..keep.max(1)])?;
            stream.flush()?;
            Ok(None)
        }
        QueryFault::TruncateFrame => {
            stream.write_all(&truncate_frame(frame, rng))?;
            stream.flush()?;
            Ok(None)
        }
        QueryFault::CorruptFrame => {
            stream.write_all(&corrupt_frame(frame, HEADER_LEN, rng))?;
            read_reply(stream)
        }
        QueryFault::ShortWrites => {
            let mut paced = FaultyStream::new(
                &*stream,
                WritePacing::Chunked {
                    max_chunk: SHORT_WRITE_CHUNK,
                    pause_ms: PAUSE_MS,
                },
            );
            paced.write_all(frame)?;
            paced.flush()?;
            read_reply(stream)
        }
        QueryFault::PauseBeforeSend => {
            std::thread::sleep(Duration::from_millis(PAUSE_MS));
            stream.write_all(frame)?;
            read_reply(stream)
        }
        QueryFault::SlowConsume => {
            stream.write_all(frame)?;
            std::thread::sleep(Duration::from_millis(PAUSE_MS));
            read_reply(stream)
        }
        QueryFault::DisconnectAfterSubmit => {
            // The whole frame lands, so the server admits and runs the
            // query — then the requester vanishes without reading the
            // reply, exercising abort accounting on the completion path.
            stream.write_all(frame)?;
            stream.flush()?;
            Ok(None)
        }
    }
}

/// Fold one reply into the order-independent soak digest.
fn fold_reply(digest: u64, schedule: u64, index: u64, reply: &Frame) -> u64 {
    let payload = reply.encode();
    let mut keyed = Vec::with_capacity(16 + payload.len());
    keyed.extend_from_slice(&schedule.to_be_bytes());
    keyed.extend_from_slice(&index.to_be_bytes());
    keyed.extend_from_slice(&payload);
    digest.wrapping_add(fnv1a(&keyed))
}

/// Fold a mangled reply into the digest: the typed decode error is pure
/// in the seed (same truncation point, same flipped byte), so its
/// display string is a reproducible stand-in for the frame bytes.
fn fold_marker(digest: u64, schedule: u64, index: u64, label: &str) -> u64 {
    let mut keyed = Vec::with_capacity(16 + label.len());
    keyed.extend_from_slice(&schedule.to_be_bytes());
    keyed.extend_from_slice(&index.to_be_bytes());
    keyed.extend_from_slice(label.as_bytes());
    digest.wrapping_add(fnv1a(&keyed))
}

/// True when a read failure looks like a server-mangled reply (framing
/// or payload decode error) rather than a transport failure. Only
/// consulted when [`ChaosConfig::reply_faults`] is set.
fn is_mangled(e: &WireError) -> bool {
    matches!(
        e,
        WireError::BadMagic(_)
            | WireError::BadVersion(_)
            | WireError::UnknownKind(_)
            | WireError::Oversized(_)
            | WireError::Truncated { .. }
            | WireError::Payload(_)
    )
}

/// Poll STATS until the conservation invariant settles (pipeline fully
/// drained) or the timeout passes. Returns the last snapshot and whether
/// it settled.
fn settle(stream: &mut TcpStream, timeout: Duration) -> Result<(StatsSnapshot, bool), WireError> {
    let give_up = Instant::now() + timeout;
    loop {
        write_frame(stream, &Frame::StatsRequest)?;
        let stats = match read_reply(stream)? {
            Some(Frame::Stats(s)) => s,
            other => {
                return Err(WireError::Io(std::io::Error::other(format!(
                    "expected STATS, got {other:?}"
                ))));
            }
        };
        let settled = stats.conservation_holds();
        if settled || Instant::now() >= give_up {
            return Ok((stats, settled));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Run the soak: apply the seeded fault schedule, then settle and probe.
///
/// Connection-level failures of the *harness itself* (the settle/probe
/// connection dying, a missing server) surface as `Err`; everything the
/// fault schedule provokes is counted in the report.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, WireError> {
    let plan = FaultPlan::new(cfg.seed, cfg.intensity);
    let mix = LoadConfig {
        addr: cfg.addr.clone(),
        seed: cfg.seed,
        deadline_ms: cfg.deadline_ms,
        ..LoadConfig::default()
    };
    let mut replies = 0u64;
    let mut dropped = 0u64;
    let mut faults = 0u64;
    let mut client_errors = 0u64;
    let mut mangled = 0u64;
    let mut digest = 0u64;
    for schedule in 0..cfg.schedules {
        let mut conn: Option<TcpStream> = None;
        for index in 0..cfg.queries_per_schedule {
            let fault = plan.fault_for(schedule, index);
            if fault != QueryFault::None {
                faults += 1;
            }
            // Separate derivation stream for the byte mutations, so they
            // do not replay the draws `fault_for` already consumed.
            let mut mutate = plan.rng_for(schedule, index).derive(1);
            let frame = Frame::Query(nth_request(&mix, schedule, index)).encode();
            let stream = match conn.as_mut() {
                Some(s) => s,
                None => conn.insert(open(&cfg.addr)?),
            };
            match apply_fault(stream, fault, &frame, &mut mutate) {
                Ok(Some(reply)) => {
                    replies += 1;
                    digest = fold_reply(digest, schedule, index, &reply);
                    // A BadFrame reply means the server no longer trusts
                    // this byte stream and has hung up.
                    let hung_up = matches!(
                        &reply,
                        Frame::Error(e) if e.code == ErrorCode::BadFrame
                    );
                    if hung_up || fault.drops_connection() {
                        conn = None;
                    }
                }
                Ok(None) => {
                    dropped += 1;
                    conn = None;
                }
                Err(e) if cfg.reply_faults && is_mangled(&e) => {
                    // The server mangled this reply on purpose. The
                    // stream may be mid-frame (truncation), so start
                    // fresh; the typed error is seeded-deterministic
                    // and stands in for the frame in the digest.
                    mangled += 1;
                    digest = fold_marker(digest, schedule, index, &e.to_string());
                    conn = None;
                }
                Err(_) => {
                    client_errors += 1;
                    conn = None;
                }
            }
        }
        if let Some(mut s) = conn.take() {
            let _ = write_frame(&mut s, &Frame::Bye);
        }
    }
    // Settle, then prove the pool still serves clean traffic.
    let mut stream = open(&cfg.addr)?;
    let (stats, conservation) = settle(&mut stream, cfg.settle_timeout)?;
    let probe_mix = LoadConfig {
        seed: cfg.seed,
        deadline_ms: None,
        ..LoadConfig::default()
    };
    let mut probes_ok = true;
    for i in 0..4 {
        let req = nth_request(&probe_mix, cfg.schedules, i);
        let expect_clean = !cfg.reply_faults || plan.reply_fault_for(req.seed) == ReplyFault::None;
        write_frame(&mut stream, &Frame::Query(req))?;
        if expect_clean {
            match read_reply(&mut stream)? {
                Some(Frame::Result(_)) => {}
                // With catalog faults armed, a probe whose seed draws a
                // withheld refresh on a QS request is *correctly*
                // rejected with a retry hint — that typed outcome is the
                // degradation lattice working, not a leaked worker.
                Some(Frame::Error(e))
                    if cfg.catalog_faults && e.code == ErrorCode::StaleCatalog => {}
                _ => probes_ok = false,
            }
        } else {
            // The reply plan predicts a mangled reply for this probe's
            // seed: any decode failure — or a corrupt frame that still
            // happens to decode — is the correct outcome. The stream
            // may be mid-frame afterwards, so probe on a fresh one.
            let _ = read_reply(&mut stream);
            stream = open(&cfg.addr)?;
        }
    }
    let _ = write_frame(&mut stream, &Frame::Bye);
    Ok(ChaosReport {
        queries_sent: cfg.schedules * cfg.queries_per_schedule,
        replies,
        dropped,
        faults,
        client_errors,
        mangled,
        digest,
        stats,
        conservation,
        probes_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};

    fn spawn_server() -> crate::server::ServerHandle {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            ..ServerConfig::default()
        };
        Server::bind(config)
            .expect("bind loopback")
            .spawn()
            .expect("spawn server")
    }

    #[test]
    fn short_soak_holds_all_invariants() {
        let server = spawn_server();
        let cfg = ChaosConfig {
            addr: server.addr().to_string(),
            schedules: 2,
            queries_per_schedule: 8,
            intensity: 0.6,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg).expect("soak completes");
        assert_eq!(report.queries_sent, 16);
        assert!(
            report.conservation,
            "accounting must settle:\n{}",
            report.render()
        );
        assert!(
            report.probes_ok,
            "workers must survive:\n{}",
            report.render()
        );
        assert_eq!(report.client_errors, 0);
        assert!(
            report.faults > 0,
            "intensity 0.6 over 16 draws injects something"
        );
        server.shutdown();
    }

    #[test]
    fn reply_fault_soak_accounts_every_exchange() {
        let seed = 0xFEED_FACE;
        let intensity = 0.7;
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 8,
            reply_faults: Some(FaultPlan::new(seed, intensity)),
            ..ServerConfig::default()
        };
        let server = Server::bind(config)
            .expect("bind loopback")
            .spawn()
            .expect("spawn server");
        let cfg = ChaosConfig {
            addr: server.addr().to_string(),
            seed,
            intensity,
            schedules: 2,
            queries_per_schedule: 10,
            reply_faults: true,
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg).expect("soak completes");
        assert!(
            report.mangled > 0,
            "intensity 0.7 mangles something in 20 replies:\n{}",
            report.render()
        );
        assert_eq!(
            report.replies + report.dropped + report.mangled,
            report.queries_sent,
            "every exchange lands in exactly one bucket:\n{}",
            report.render()
        );
        assert!(
            report.healthy(),
            "server stays healthy:\n{}",
            report.render()
        );
        // Mangled replies are deterministic too: same seed, same digest.
        let again = run_chaos(&cfg).expect("second soak");
        assert_eq!(report.digest, again.digest);
        assert_eq!(report.mangled, again.mangled);
        server.shutdown();
    }

    #[test]
    fn same_seed_same_digest() {
        let server = spawn_server();
        let cfg = ChaosConfig {
            addr: server.addr().to_string(),
            schedules: 2,
            queries_per_schedule: 6,
            intensity: 0.5,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&cfg).expect("first soak");
        let b = run_chaos(&cfg).expect("second soak");
        assert_eq!(a.digest, b.digest, "replies are pure in the seed");
        assert_eq!(a.replies, b.replies);
        assert_eq!(a.dropped, b.dropped);
        server.shutdown();
    }
}
