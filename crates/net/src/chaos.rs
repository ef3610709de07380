//! Seeded fault injection for the serving stack's wire.
//!
//! Distributed engines treat the network as a first-class failure domain;
//! the paper's runtime binding (§2.1) exists because client/server state
//! changes under the optimizer's feet, and faults are the extreme form of
//! that change. This module provides the *deterministic* half of the
//! chaos harness: a [`FaultPlan`] maps `(seed, client, query index)` to a
//! [`QueryFault`] via the simulator's own RNG, so the same seed always
//! yields the same fault schedule — the chaos soak asserts
//! same-seed-same-digest on top of this.
//!
//! Fault *application* (closing sockets, pacing writes) lives with the
//! load generator; this module owns only the pure, deterministic pieces:
//! the schedule and the byte-level frame mutations, plus a
//! [`FaultyStream`] wrapper that chops writes into short chunks to
//! exercise partial-read resumption on the peer.

use std::io::{Read, Write};

use csqp_simkernel::rng::SimRng;

/// What the injector does to one query exchange.
///
/// Faults are client-driven: from the server's point of view a client
/// that closes its socket mid-frame is indistinguishable from a broken
/// wire, so injecting at the client exercises exactly the server paths
/// the fault model targets (teardown at frame boundaries, partial reads,
/// corrupt frames, idle timeouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryFault {
    /// No fault: send the frame and read the reply normally.
    None,
    /// Close the connection at the frame boundary, before sending.
    DropBeforeSend,
    /// Send a strict prefix of the frame, then close the connection.
    DropMidFrame,
    /// Send a frame whose declared payload length exceeds the bytes that
    /// follow, then close — the peer sees EOF mid-frame.
    TruncateFrame,
    /// Flip one payload byte before sending; the frame arrives complete
    /// but semantically damaged.
    CorruptFrame,
    /// Write the frame in short chunks with brief pauses between them —
    /// the peer must resume partial reads across its read timeout.
    ShortWrites,
    /// Pause before sending so the peer's blocking read times out at
    /// least once with no data (`WouldBlock`) and must keep waiting.
    PauseBeforeSend,
    /// Send normally but pause before consuming the reply, backing the
    /// peer's write up against the socket buffer.
    SlowConsume,
    /// Send the complete frame, then close the connection without ever
    /// reading the reply: the query is fully submitted, so the server
    /// executes it (or aborts it at a cancellation probe) with nobody
    /// left to answer — the abort-accounting path under load.
    DisconnectAfterSubmit,
}

impl QueryFault {
    /// All injectable faults (everything but `None`).
    pub const ALL: [QueryFault; 8] = [
        QueryFault::DropBeforeSend,
        QueryFault::DropMidFrame,
        QueryFault::TruncateFrame,
        QueryFault::CorruptFrame,
        QueryFault::ShortWrites,
        QueryFault::PauseBeforeSend,
        QueryFault::SlowConsume,
        QueryFault::DisconnectAfterSubmit,
    ];

    /// True when the server receives a complete, decodable-or-not frame
    /// and is therefore expected to produce a reply frame (RESULT or a
    /// typed ERROR) on a still-open stream.
    pub fn expects_reply(self) -> bool {
        matches!(
            self,
            QueryFault::None
                | QueryFault::CorruptFrame
                | QueryFault::ShortWrites
                | QueryFault::PauseBeforeSend
                | QueryFault::SlowConsume
        )
    }

    /// True when the fault ends the connection (the client closes the
    /// socket as part of the injection).
    pub fn drops_connection(self) -> bool {
        matches!(
            self,
            QueryFault::DropBeforeSend
                | QueryFault::DropMidFrame
                | QueryFault::TruncateFrame
                | QueryFault::DisconnectAfterSubmit
        )
    }

    /// Short stable name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            QueryFault::None => "none",
            QueryFault::DropBeforeSend => "drop_before_send",
            QueryFault::DropMidFrame => "drop_mid_frame",
            QueryFault::TruncateFrame => "truncate_frame",
            QueryFault::CorruptFrame => "corrupt_frame",
            QueryFault::ShortWrites => "short_writes",
            QueryFault::PauseBeforeSend => "pause_before_send",
            QueryFault::SlowConsume => "slow_consume",
            QueryFault::DisconnectAfterSubmit => "disconnect_after_submit",
        }
    }
}

/// What the *server* does to its own reply frame — the reply-path half of
/// the fault model. Where [`QueryFault`] is injected at the client edge,
/// a `ReplyFault` is applied by the serving stack itself (when configured
/// with a fault plan) to the RESULT/ERROR frame answering a decoded
/// QUERY, exercising the client's handling of damaged responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyFault {
    /// Send the reply unchanged.
    None,
    /// Send a strict prefix of the reply frame, then close the session —
    /// the client sees EOF in the middle of a declared frame.
    TruncateReply,
    /// Flip one payload byte of the reply before sending; the frame
    /// arrives complete but semantically damaged.
    CorruptReply,
}

impl ReplyFault {
    /// Short stable name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            ReplyFault::None => "none",
            ReplyFault::TruncateReply => "truncate_reply",
            ReplyFault::CorruptReply => "corrupt_reply",
        }
    }
}

/// What happens to the catalog-replica propagation step serving a query —
/// the metadata-drift third of the fault model. Where [`QueryFault`] and
/// [`ReplyFault`] damage bytes on the wire, a `CatalogFault` damages the
/// *refresh* that should bring the serving shard's catalog replica up to
/// the coordinator's newest epoch, so plans risk being priced against
/// metadata the world has moved past.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CatalogFault {
    /// The refresh arrives intact: the replica catches up to the
    /// coordinator epoch.
    None,
    /// The refresh never arrives; the replica's epoch lag grows by the
    /// epochs published this tick.
    WithheldRefresh,
    /// A torn (partial) delivery: the replica applies all but the newest
    /// epoch, landing one behind the coordinator.
    TornEpoch,
    /// A reordered delivery: an *older* snapshot arrives; the replica's
    /// regression guard must reject it, leaving the lag unchanged.
    ReorderedEpoch,
    /// The refresh applies, but the cached-fraction state it carries is
    /// unusable: the replica must not price the client cache until the
    /// next clean refresh.
    PoisonedFraction,
}

impl CatalogFault {
    /// Every injectable catalog fault (not including `None`).
    pub const ALL: [CatalogFault; 4] = [
        CatalogFault::WithheldRefresh,
        CatalogFault::TornEpoch,
        CatalogFault::ReorderedEpoch,
        CatalogFault::PoisonedFraction,
    ];

    /// Short stable name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            CatalogFault::None => "none",
            CatalogFault::WithheldRefresh => "withheld_refresh",
            CatalogFault::TornEpoch => "torn_epoch",
            CatalogFault::ReorderedEpoch => "reordered_epoch",
            CatalogFault::PoisonedFraction => "poisoned_fraction",
        }
    }
}

/// Domain separator mixed into the reply-fault derivation so request and
/// reply schedules never correlate.
const REPLY_FAULT_SALT: u64 = 0x5250_4C59_464C_5421; // "RPLYFLT!"

/// Domain separator for the catalog-fault derivation: independent of both
/// the request-path and reply-path schedules.
const CATALOG_FAULT_SALT: u64 = 0x4341_5446_4C54_5A21; // "CATFLTZ!"

/// Multiplier of [`fault_mix`]. It is *not* the FNV-1a prime
/// `0x100_0000_01b3`: it carries one extra hex zero. Every seeded fault
/// schedule and the pinned chaos goldens derive from this value, so it
/// stays as it is.
const FAULT_MIX_MULTIPLIER: u64 = 0x1000_0000_01b3;

/// FNV-1a-shaped byte mixer for fault-schedule seeds: the FNV offset
/// basis and xor-then-multiply loop, but with [`FAULT_MIX_MULTIPLIER`]
/// instead of the FNV prime, so it is not interchangeable with the
/// serving layer's `fnv1a`.
fn fault_mix(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FAULT_MIX_MULTIPLIER);
    }
    h
}

/// A deterministic map from `(client, query index)` to the fault injected
/// on that exchange.
///
/// The plan is a pure function of its master seed: deriving the per-query
/// RNG from `fault_mix(seed ‖ client ‖ index)` makes every exchange's fault
/// independent of how many queries ran before it, so schedules are stable
/// under retries and reordering.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    master_seed: u64,
    intensity: f64,
}

impl FaultPlan {
    /// Build a plan from a master seed and an injection probability in
    /// `[0, 1]` (the fraction of exchanges that receive a fault).
    pub fn new(master_seed: u64, intensity: f64) -> FaultPlan {
        FaultPlan {
            master_seed,
            intensity: intensity.clamp(0.0, 1.0),
        }
    }

    /// The master seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.master_seed
    }

    /// The injection probability.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// The per-exchange RNG, derived so faults are independent across
    /// exchanges and deterministic per `(seed, client, index)`.
    pub fn rng_for(&self, client: u64, index: u64) -> SimRng {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.master_seed.to_be_bytes());
        bytes[8..16].copy_from_slice(&client.to_be_bytes());
        bytes[16..].copy_from_slice(&index.to_be_bytes());
        SimRng::seed_from_u64(fault_mix(&bytes))
    }

    /// The fault injected on exchange `index` of connection `client`.
    pub fn fault_for(&self, client: u64, index: u64) -> QueryFault {
        let mut rng = self.rng_for(client, index);
        if !rng.chance(self.intensity) {
            return QueryFault::None;
        }
        *rng.pick(&QueryFault::ALL)
    }

    /// The first `n` faults of connection `client`, in order.
    pub fn schedule(&self, client: u64, n: u64) -> Vec<QueryFault> {
        (0..n).map(|i| self.fault_for(client, i)).collect()
    }

    /// The reply-path RNG for the query whose request carried
    /// `query_seed`. Keyed on the request's own seed — which both sides
    /// of the wire know — instead of connection counters, so server and
    /// harness agree on the schedule without sharing any session state.
    pub fn reply_rng_for(&self, query_seed: u64) -> SimRng {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.master_seed.to_be_bytes());
        bytes[8..16].copy_from_slice(&REPLY_FAULT_SALT.to_be_bytes());
        bytes[16..].copy_from_slice(&query_seed.to_be_bytes());
        SimRng::seed_from_u64(fault_mix(&bytes))
    }

    /// The fault the server injects on its reply to the query whose
    /// request carried `query_seed`. Pure in `(master seed, query_seed)`.
    pub fn reply_fault_for(&self, query_seed: u64) -> ReplyFault {
        let mut rng = self.reply_rng_for(query_seed);
        if !rng.chance(self.intensity) {
            return ReplyFault::None;
        }
        *rng.pick(&[ReplyFault::TruncateReply, ReplyFault::CorruptReply])
    }

    /// The catalog-drift RNG for the query whose request carried
    /// `query_seed`. Keyed on the request's own seed, like the reply
    /// path, so the drift schedule is independent of session state and
    /// identical across servers fed the same query stream.
    pub fn catalog_rng_for(&self, query_seed: u64) -> SimRng {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.master_seed.to_be_bytes());
        bytes[8..16].copy_from_slice(&CATALOG_FAULT_SALT.to_be_bytes());
        bytes[16..].copy_from_slice(&query_seed.to_be_bytes());
        SimRng::seed_from_u64(fault_mix(&bytes))
    }

    /// The fault injected on the catalog-replica refresh serving the
    /// query whose request carried `query_seed`. Pure in
    /// `(master seed, query_seed)`.
    pub fn catalog_fault_for(&self, query_seed: u64) -> CatalogFault {
        let mut rng = self.catalog_rng_for(query_seed);
        if !rng.chance(self.intensity) {
            return CatalogFault::None;
        }
        *rng.pick(&CatalogFault::ALL)
    }
}

/// Flip one byte of `frame` past the fixed header (or anywhere, for
/// frames too short to have a payload), deterministically per `rng`.
///
/// `header_len` is the size of the frame's fixed header; corruption
/// prefers the payload so the frame still parses as a frame but carries
/// damaged content — the harder path for the receiver.
pub fn corrupt_frame(frame: &[u8], header_len: usize, rng: &mut SimRng) -> Vec<u8> {
    let mut out = frame.to_vec();
    if out.is_empty() {
        return out;
    }
    let lo = if out.len() > header_len {
        header_len
    } else {
        0
    };
    let idx = rng.range(lo, out.len());
    // XOR with a nonzero mask guarantees the byte actually changes.
    out[idx] ^= 1 + rng.below(255) as u8;
    out
}

/// A strict prefix of `frame` (at least one byte short, at least the
/// first byte kept), deterministically per `rng`. The receiver sees EOF
/// in the middle of a declared frame.
pub fn truncate_frame(frame: &[u8], rng: &mut SimRng) -> Vec<u8> {
    if frame.len() <= 1 {
        return Vec::new();
    }
    let keep = rng.range(1, frame.len());
    frame[..keep].to_vec()
}

/// How a [`FaultyStream`] distorts writes.
#[derive(Debug, Clone, Copy)]
pub enum WritePacing {
    /// Pass writes through unchanged.
    Clean,
    /// Split every write into chunks of at most `max_chunk` bytes and
    /// pause `pause_ms` between chunks (flushing each), so the peer's
    /// reads land mid-frame.
    Chunked {
        /// Largest chunk written at once (≥ 1).
        max_chunk: usize,
        /// Milliseconds slept between chunks.
        pause_ms: u64,
    },
}

/// A stream wrapper that applies [`WritePacing`] to writes; reads pass
/// through. Works over any `Read + Write` (loopback TCP in the harness,
/// in-memory buffers in unit tests).
#[derive(Debug)]
pub struct FaultyStream<S> {
    inner: S,
    pacing: WritePacing,
}

impl<S> FaultyStream<S> {
    /// Wrap `inner` with the given write pacing.
    pub fn new(inner: S, pacing: WritePacing) -> FaultyStream<S> {
        FaultyStream { inner, pacing }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Read> Read for FaultyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.pacing {
            WritePacing::Clean => self.inner.write(buf),
            WritePacing::Chunked { max_chunk, .. } => {
                let n = buf.len().min(max_chunk.max(1));
                self.inner.write(&buf[..n])
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn write_all(&mut self, mut buf: &[u8]) -> std::io::Result<()> {
        match self.pacing {
            WritePacing::Clean => self.inner.write_all(buf),
            WritePacing::Chunked {
                max_chunk,
                pause_ms,
            } => {
                let chunk = max_chunk.max(1);
                while !buf.is_empty() {
                    let n = buf.len().min(chunk);
                    self.inner.write_all(&buf[..n])?;
                    self.inner.flush()?;
                    buf = &buf[n..];
                    if !buf.is_empty() && pause_ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(pause_ms));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_mix_output_is_pinned() {
        // Fault schedules are seeded from these values; a change here
        // moves every chaos golden.
        assert_eq!(fault_mix(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fault_mix(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fault_mix(b"foobar"), 0xf8ac_2471_f739_67e8);
        let bytes: Vec<u8> = (0..16).collect();
        assert_eq!(fault_mix(&bytes), 0x3ed5_1c94_7785_1775);
        // Not FNV-1a: the standard digest of "a" is 0xaf63dc4c8601ec8c.
        assert_ne!(fault_mix(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let plan = FaultPlan::new(42, 0.5);
        let again = FaultPlan::new(42, 0.5);
        assert_eq!(plan.schedule(3, 64), again.schedule(3, 64));
        let other = FaultPlan::new(43, 0.5);
        assert_ne!(plan.schedule(3, 64), other.schedule(3, 64));
    }

    #[test]
    fn schedule_is_independent_per_exchange() {
        // fault_for(c, i) must not depend on which exchanges ran before.
        let plan = FaultPlan::new(7, 0.8);
        let direct = plan.fault_for(2, 55);
        let _ = plan.schedule(2, 40);
        assert_eq!(plan.fault_for(2, 55), direct);
    }

    #[test]
    fn intensity_bounds_injection() {
        let never = FaultPlan::new(1, 0.0);
        assert!(never
            .schedule(0, 100)
            .iter()
            .all(|f| *f == QueryFault::None));
        let always = FaultPlan::new(1, 1.0);
        assert!(always
            .schedule(0, 100)
            .iter()
            .all(|f| *f != QueryFault::None));
        // Out-of-range intensities clamp instead of panicking.
        assert_eq!(FaultPlan::new(1, 7.0).intensity(), 1.0);
        assert_eq!(FaultPlan::new(1, -1.0).intensity(), 0.0);
    }

    #[test]
    fn all_faults_eventually_injected() {
        let plan = FaultPlan::new(9, 1.0);
        let seen: std::collections::HashSet<_> = plan.schedule(0, 200).into_iter().collect();
        for f in QueryFault::ALL {
            assert!(seen.contains(&f), "{} never scheduled", f.name());
        }
    }

    #[test]
    fn reply_schedule_is_deterministic_and_independent_of_requests() {
        let plan = FaultPlan::new(42, 0.7);
        let again = FaultPlan::new(42, 0.7);
        for seed in 0..256u64 {
            assert_eq!(plan.reply_fault_for(seed), again.reply_fault_for(seed));
        }
        // A different master seed reshuffles the reply schedule.
        let other = FaultPlan::new(43, 0.7);
        let differs = (0..256u64).any(|s| plan.reply_fault_for(s) != other.reply_fault_for(s));
        assert!(differs, "reply schedule must depend on the master seed");
        // Both reply faults eventually appear, and intensity 0 never
        // injects.
        let seen: std::collections::HashSet<_> =
            (0..512u64).map(|s| plan.reply_fault_for(s)).collect();
        assert!(seen.contains(&ReplyFault::TruncateReply));
        assert!(seen.contains(&ReplyFault::CorruptReply));
        let never = FaultPlan::new(42, 0.0);
        assert!((0..128u64).all(|s| never.reply_fault_for(s) == ReplyFault::None));
    }

    #[test]
    fn catalog_schedule_is_deterministic_and_independent_of_other_paths() {
        let plan = FaultPlan::new(42, 0.7);
        let again = FaultPlan::new(42, 0.7);
        for seed in 0..256u64 {
            assert_eq!(plan.catalog_fault_for(seed), again.catalog_fault_for(seed));
        }
        // A different master seed reshuffles the drift schedule.
        let other = FaultPlan::new(43, 0.7);
        let differs = (0..256u64).any(|s| plan.catalog_fault_for(s) != other.catalog_fault_for(s));
        assert!(differs, "catalog schedule must depend on the master seed");
        // Every catalog fault eventually appears; intensity 0 never
        // injects.
        let seen: std::collections::HashSet<_> =
            (0..2048u64).map(|s| plan.catalog_fault_for(s)).collect();
        for fault in CatalogFault::ALL {
            assert!(seen.contains(&fault), "missing {}", fault.name());
        }
        let never = FaultPlan::new(42, 0.0);
        assert!((0..128u64).all(|s| never.catalog_fault_for(s) == CatalogFault::None));
        // The three per-query fault paths are salted apart: the catalog
        // draw must not simply mirror the reply draw's inject decision.
        let reply_mask: Vec<bool> = (0..512u64)
            .map(|s| plan.reply_fault_for(s) != ReplyFault::None)
            .collect();
        let catalog_mask: Vec<bool> = (0..512u64)
            .map(|s| plan.catalog_fault_for(s) != CatalogFault::None)
            .collect();
        assert_ne!(reply_mask, catalog_mask, "salts must decorrelate the paths");
    }

    #[test]
    fn disconnect_after_submit_is_schedulable_and_terminal() {
        let plan = FaultPlan::new(11, 1.0);
        let seen: std::collections::HashSet<_> = plan.schedule(0, 256).into_iter().collect();
        assert!(seen.contains(&QueryFault::DisconnectAfterSubmit));
        assert!(QueryFault::DisconnectAfterSubmit.drops_connection());
        assert!(!QueryFault::DisconnectAfterSubmit.expects_reply());
    }

    #[test]
    fn corruption_changes_exactly_one_payload_byte() {
        let frame: Vec<u8> = (0..64).collect();
        let mut rng = SimRng::seed_from_u64(5);
        let bad = corrupt_frame(&frame, 12, &mut rng);
        assert_eq!(bad.len(), frame.len());
        let diffs: Vec<usize> = (0..frame.len()).filter(|&i| bad[i] != frame[i]).collect();
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0] >= 12, "corruption must land in the payload");
    }

    #[test]
    fn truncation_is_a_strict_nonempty_prefix() {
        let frame: Vec<u8> = (0..64).collect();
        for seed in 0..32 {
            let mut rng = SimRng::seed_from_u64(seed);
            let cut = truncate_frame(&frame, &mut rng);
            assert!(!cut.is_empty() && cut.len() < frame.len());
            assert_eq!(cut[..], frame[..cut.len()]);
        }
    }

    #[test]
    fn chunked_stream_splits_writes() {
        let mut s = FaultyStream::new(
            Vec::new(),
            WritePacing::Chunked {
                max_chunk: 3,
                pause_ms: 0,
            },
        );
        assert_eq!(s.write(&[0u8; 10]).unwrap(), 3);
        s.write_all(&[1u8; 10]).unwrap();
        assert_eq!(s.get_ref().len(), 13);
        let inner = s.into_inner();
        assert_eq!(&inner[3..], &[1u8; 10]);
    }
}
