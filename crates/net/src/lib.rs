//! Network model for the csqp simulator.
//!
//! "The network is modeled simply as a FIFO queue with a specified
//! bandwidth (NetBw); the details of a particular technology (i.e.,
//! Ethernet, ATM, etc.) are not modeled. The cost of a message involves
//! the time-on-the-wire which is based on the size of the message, and
//! both fixed and size-dependent CPU costs to send and receive which are
//! computed from MsgInst and PerSizeMI." (§3.2.2)
//!
//! The [`Link`] resource implements the wire: a single FIFO server whose
//! service time is `bytes × 8 / bandwidth`. The CPU costs of sending and
//! receiving are charged by the engine on the sender's and receiver's CPU
//! queues (they are site costs, not wire costs);
//! `SystemConfig::msg_cpu_instr` computes them.
//!
//! The [`chaos`] module is the other face of the same concern: where
//! [`Link`] models the wire's *cost*, [`chaos::FaultPlan`] models its
//! *failures* — deterministic, seeded fault schedules the serving stack's
//! chaos harness injects at the client edge.
//!
//! The [`poll`] module is the third face: where [`Link`] models the wire
//! and [`chaos`] models its failures, [`poll`] touches the real wire — a
//! dependency-free `poll(2)` readiness wrapper the serving stack's
//! event-driven session engine multiplexes live sockets on.

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod poll;

use csqp_catalog::SystemConfig;
use csqp_simkernel::{FifoServer, SimDuration, SimTime};

/// Kinds of messages the engine sends, for accounting purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A full data page moving between operators or as a fault reply.
    DataPage,
    /// A small control message (e.g. a page-fault request).
    Control,
}

/// Wire-traffic counters of a [`Link`], as one typed record.
///
/// This is the accounting surface consumers (the engine's metrics, the
/// serving layer's STATS frame) read instead of reaching into the link
/// for individual counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Full data pages shipped — the paper's "pages sent" metric (§4.1).
    pub data_pages_sent: u64,
    /// Small control messages shipped (fault requests etc.).
    pub control_msgs_sent: u64,
    /// Total bytes on the wire, data and control combined.
    pub bytes_sent: u64,
}

/// The shared network link: one FIFO queue for the whole system.
#[derive(Debug)]
pub struct Link<T> {
    server: FifoServer<T>,
    bandwidth_bits_per_sec: f64,
    stats: LinkStats,
}

impl<T> Link<T> {
    /// Build the link from the system configuration (`NetBw`).
    pub fn new(config: &SystemConfig) -> Link<T> {
        Link {
            server: FifoServer::new(),
            bandwidth_bits_per_sec: config.net_bw_mbit as f64 * 1e6,
            stats: LinkStats::default(),
        }
    }

    /// Time-on-the-wire for a message of `bytes` bytes.
    #[inline]
    pub fn wire_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / self.bandwidth_bits_per_sec)
    }

    /// Submit a message for transmission. Returns the completion time when
    /// the wire was idle (caller schedules the completion event), `None`
    /// when queued behind earlier messages.
    #[inline]
    pub fn submit(&mut self, now: SimTime, token: T, bytes: u64, kind: MsgKind) -> Option<SimTime> {
        match kind {
            MsgKind::DataPage => self.stats.data_pages_sent += 1,
            MsgKind::Control => self.stats.control_msgs_sent += 1,
        }
        self.stats.bytes_sent += bytes;
        let service = self.wire_time(bytes);
        self.server.submit(now, token, service)
    }

    /// Complete the message in flight; returns it plus the completion time
    /// of the next queued message, if any (caller schedules it).
    #[inline]
    pub fn finish_current(&mut self, now: SimTime) -> (T, Option<SimTime>) {
        self.server.finish_current(now)
    }

    /// Snapshot of the wire-traffic counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Wire utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.server.utilization(now)
    }

    /// True when nothing is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.server.is_idle()
    }
}

/// Size in bytes of a small control message (page-fault request). Not a
/// Table 2 parameter; any small value — the fixed `MsgInst` dominates.
pub const CONTROL_MSG_BYTES: u64 = 256;

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link<u32> {
        Link::new(&SystemConfig::default())
    }

    #[test]
    fn page_wire_time_is_327us() {
        let l = link();
        let t = l.wire_time(4096);
        assert!((t.as_secs_f64() - 327.68e-6).abs() < 1e-12);
    }

    #[test]
    fn fifo_ordering_and_accounting() {
        let mut l = link();
        let t0 = SimTime::ZERO;
        let fin = l.submit(t0, 1, 4096, MsgKind::DataPage).unwrap();
        assert!(l.submit(t0, 2, 4096, MsgKind::DataPage).is_none());
        assert!(l.submit(t0, 3, 256, MsgKind::Control).is_none());
        let (m, next) = l.finish_current(fin);
        assert_eq!(m, 1);
        let fin2 = next.unwrap();
        let (m, next) = l.finish_current(fin2);
        assert_eq!(m, 2);
        let (m, next2) = l.finish_current(next.unwrap());
        assert_eq!(m, 3);
        assert!(next2.is_none());
        assert_eq!(
            l.stats(),
            LinkStats {
                data_pages_sent: 2,
                control_msgs_sent: 1,
                bytes_sent: 8448,
            }
        );
        assert!(l.is_idle());
    }

    #[test]
    fn utilization_grows_under_load() {
        let mut l = link();
        let fin = l.submit(SimTime::ZERO, 0, 4096, MsgKind::DataPage).unwrap();
        l.finish_current(fin);
        let u = l.utilization(fin);
        assert!((u - 1.0).abs() < 1e-9, "wire was busy the whole time: {u}");
    }
}
