//! The event-driven disk resource.
//!
//! [`Disk`] combines the geometry, seek/rotation timing, elevator scheduler
//! and controller cache into a single resource with the same two-phase
//! protocol as [`csqp_simkernel::FifoServer`]: `submit` returns a
//! completion time when the disk was idle; `finish_current` retires the
//! request in service and dispatches the next one chosen by the elevator.
//!
//! Service time of a request is computed *at dispatch*, from the head
//! position, the controller cache and the last media access:
//!
//! * controller-cache hit (read within a prefetched track tail):
//!   `cache_hit_overhead + transfer`;
//! * streaming access (the page physically following the last media
//!   access — e.g. a strictly sequential write stream):
//!   `cache_hit_overhead + transfer`;
//! * otherwise: `request_overhead + seek(Δcylinders) + ½ rotation +
//!   transfer`, after which the read-ahead cache is filled (reads) or
//!   invalidated (writes).
//!
//! The first two cases share one constant service time, converted to a
//! [`SimDuration`] once when the disk is built; only media accesses
//! compute theirs per request.

use csqp_simkernel::{SimDuration, SimTime};

use crate::cache::ControllerCache;
use crate::geometry::DiskAddr;
use crate::params::DiskParams;
use crate::sched::Elevator;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Read one page.
    Read,
    /// Write one page.
    Write,
}

/// A disk request: one page, plus an opaque completion token.
#[derive(Debug, Clone)]
pub struct DiskRequest<T> {
    /// Page address.
    pub addr: DiskAddr,
    /// Read or write.
    pub kind: IoKind,
    /// Opaque token returned on completion.
    pub token: T,
}

/// Aggregate disk statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskStats {
    /// Pages read.
    pub reads: u64,
    /// Pages written.
    pub writes: u64,
    /// Reads served from the controller cache.
    pub cache_hits: u64,
    /// Accesses served in streaming position (no seek/rotation).
    pub streaming: u64,
    /// Full-cost media accesses.
    pub media: u64,
    /// Total busy time.
    pub busy: SimDuration,
}

/// The disk resource.
#[derive(Debug)]
pub struct Disk<T> {
    params: DiskParams,
    cache: ControllerCache,
    queue: Elevator<DiskRequest<T>>,
    in_service: Option<T>,
    head_cyl: u64,
    /// Last page touched on media (for streaming detection).
    last_media: Option<DiskAddr>,
    /// Service time of a cache hit or a streaming access.
    fast_service: SimDuration,
    stats: DiskStats,
}

impl<T> Disk<T> {
    /// A fresh disk with the head parked at cylinder 0.
    pub fn new(params: DiskParams) -> Disk<T> {
        let cache = ControllerCache::new(params.cache_segments);
        let fast_ms = params.cache_hit_overhead_ms + params.transfer_ms();
        Disk {
            fast_service: ms_to_duration(fast_ms),
            params,
            cache,
            queue: Elevator::new(),
            in_service: None,
            head_cyl: 0,
            last_media: None,
            stats: DiskStats::default(),
        }
    }

    /// The model parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Submit a request. Returns its completion time when the disk was
    /// idle (the caller schedules the completion event); `None` when it
    /// joined the elevator queue.
    #[inline]
    pub fn submit(&mut self, now: SimTime, req: DiskRequest<T>) -> Option<SimTime> {
        if self.in_service.is_none() {
            Some(now + self.dispatch(req))
        } else {
            let pos = self.params.geometry.position(req.addr);
            self.queue.push(pos.cylinder, pos.track, pos.offset, req);
            None
        }
    }

    /// Retire the request in service; dispatch the elevator's next pick.
    /// Returns the completed token and, when another request entered
    /// service, its completion time for the caller to schedule.
    // Invariant panic, as in `FifoServer::finish_current`: completing an
    // idle disk is a caller bug the simulator cannot recover from.
    #[allow(clippy::expect_used)]
    #[inline]
    pub fn finish_current(&mut self, now: SimTime) -> (T, Option<SimTime>) {
        let done = self
            .in_service
            .take()
            .expect("Disk::finish_current called while idle");
        let next = self
            .queue
            .pop(self.head_cyl)
            .map(|(_, req)| now + self.dispatch(req));
        (done, next)
    }

    /// True when nothing is in service or queued.
    pub fn is_idle(&self) -> bool {
        self.in_service.is_none() && self.queue.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            0.0
        } else {
            self.stats.busy.as_secs_f64() / now.as_secs_f64()
        }
    }

    /// Move `req` into service, updating head/cache state; returns its
    /// service time.
    #[inline]
    fn dispatch(&mut self, req: DiskRequest<T>) -> SimDuration {
        let dur = self.service(req.addr, req.kind);
        match req.kind {
            IoKind::Read => self.stats.reads += 1,
            IoKind::Write => self.stats.writes += 1,
        }
        self.stats.busy += dur;
        self.in_service = Some(req.token);
        dur
    }

    /// Compute the service time and update head, cache and streaming
    /// state.
    #[inline]
    fn service(&mut self, addr: DiskAddr, kind: IoKind) -> SimDuration {
        let p = &self.params;
        let geo = &p.geometry;
        let pos = geo.position(addr);
        let streaming = self.last_media == Some(DiskAddr(addr.0.wrapping_sub(1))) && addr.0 > 0;

        match kind {
            IoKind::Read => {
                if self.cache.lookup(geo, addr) {
                    self.stats.cache_hits += 1;
                    // Served from controller RAM; media read-ahead
                    // continues in the background, so keep the media
                    // cursor moving with the stream.
                    self.last_media = Some(addr);
                    self.fast_service
                } else if streaming {
                    // Physically consecutive read that the cache missed
                    // (e.g. first read after a write at addr-1): the head
                    // is already there.
                    self.stats.streaming += 1;
                    self.cache.fill(geo, addr);
                    self.last_media = Some(addr);
                    self.head_cyl = pos.cylinder;
                    self.fast_service
                } else {
                    self.stats.media += 1;
                    let seek = p.seek_ms(self.head_cyl.abs_diff(pos.cylinder));
                    self.cache.fill(geo, addr);
                    self.last_media = Some(addr);
                    self.head_cyl = pos.cylinder;
                    ms_to_duration(
                        p.request_overhead_ms + seek + p.avg_rotational_ms() + p.transfer_ms(),
                    )
                }
            }
            IoKind::Write => {
                self.cache.invalidate(geo, addr);
                if streaming {
                    self.stats.streaming += 1;
                    self.last_media = Some(addr);
                    self.head_cyl = pos.cylinder;
                    self.fast_service
                } else {
                    self.stats.media += 1;
                    let seek = p.seek_ms(self.head_cyl.abs_diff(pos.cylinder));
                    self.last_media = Some(addr);
                    self.head_cyl = pos.cylinder;
                    ms_to_duration(
                        p.request_overhead_ms + seek + p.avg_rotational_ms() + p.transfer_ms(),
                    )
                }
            }
        }
    }
}

/// A service time in (fractional) milliseconds, rounded to the
/// nanosecond.
fn ms_to_duration(ms: f64) -> SimDuration {
    SimDuration::from_secs_f64(ms / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk<u32> {
        Disk::new(DiskParams::default())
    }

    fn read(addr: u64, token: u32) -> DiskRequest<u32> {
        DiskRequest {
            addr: DiskAddr(addr),
            kind: IoKind::Read,
            token,
        }
    }

    fn write(addr: u64, token: u32) -> DiskRequest<u32> {
        DiskRequest {
            addr: DiskAddr(addr),
            kind: IoKind::Write,
            token,
        }
    }

    /// Drain one request synchronously, returning its service time.
    fn serve(d: &mut Disk<u32>, now: SimTime, req: DiskRequest<u32>) -> (SimTime, u32) {
        let fin = d.submit(now, req).expect("disk idle");
        let (tok, next) = d.finish_current(fin);
        assert!(next.is_none());
        (fin, tok)
    }

    #[test]
    fn sequential_reads_hit_cache_within_track() {
        let mut d = disk();
        let mut now = SimTime::ZERO;
        // 4 pages per track: first misses, the rest hit.
        for i in 0..4 {
            let (fin, _) = serve(&mut d, now, read(i, i as u32));
            now = fin;
        }
        let s = d.stats();
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.media, 1);
    }

    #[test]
    fn sequential_cheaper_than_random() {
        let mut seq_d = disk();
        let mut now = SimTime::ZERO;
        for i in 0..120 {
            let (fin, _) = serve(&mut seq_d, now, read(i, 0));
            now = fin;
        }
        let seq_time = now;

        let mut rnd_d = disk();
        let mut now = SimTime::ZERO;
        // Stride through cylinders: every read a full seek.
        for i in 0..120u64 {
            let (fin, _) = serve(&mut rnd_d, now, read((i * 397) % 48_000, 0));
            now = fin;
        }
        let rnd_time = now;
        assert!(
            rnd_time.as_secs_f64() > 2.5 * seq_time.as_secs_f64(),
            "random {rnd_time} should be much slower than sequential {seq_time}"
        );
    }

    #[test]
    fn sequential_writes_stream() {
        let mut d = disk();
        let mut now = SimTime::ZERO;
        for i in 0..12 {
            let (fin, _) = serve(&mut d, now, write(i, 0));
            now = fin;
        }
        let s = d.stats();
        assert_eq!(s.writes, 12);
        assert_eq!(s.streaming, 11, "all but the first write stream");
    }

    #[test]
    fn interleaved_streams_pay_like_random() {
        // The load-bearing effect for Figures 3/4/8: two sequential
        // streams on one disk interfere.
        let mut d = disk();
        let mut now = SimTime::ZERO;
        for i in 0..60 {
            let (fin, _) = serve(&mut d, now, read(i, 0));
            now = fin;
            let (fin, _) = serve(&mut d, now, read(24_000 + i, 0));
            now = fin;
        }
        let interleaved = now.as_secs_f64() / 120.0;

        let mut d2 = disk();
        let mut now = SimTime::ZERO;
        for i in 0..60 {
            let (fin, _) = serve(&mut d2, now, read(i, 0));
            now = fin;
        }
        for i in 0..60 {
            let (fin, _) = serve(&mut d2, now, read(24_000 + i, 0));
            now = fin;
        }
        let backtoback = now.as_secs_f64() / 120.0;
        assert!(
            interleaved > 2.0 * backtoback,
            "interleaved {interleaved} vs back-to-back {backtoback}"
        );
    }

    #[test]
    fn elevator_orders_queued_requests() {
        let mut d = disk();
        let now = SimTime::ZERO;
        // Occupy the disk, then queue requests out of order.
        let fin = d.submit(now, read(0, 0)).unwrap();
        assert!(d.submit(now, read(40_000, 3)).is_none());
        assert!(d.submit(now, read(10_000, 1)).is_none());
        assert!(d.submit(now, read(20_000, 2)).is_none());
        // Head at cylinder 0 sweeping up: serve 1, 2, 3 in cylinder order.
        let mut order = Vec::new();
        let (tok, mut next) = d.finish_current(fin);
        assert_eq!(tok, 0);
        while let Some(fin) = next {
            let (tok, n) = d.finish_current(fin);
            order.push(tok);
            next = n;
        }
        assert_eq!(order, vec![1, 2, 3]);
        assert!(d.is_idle());
    }

    #[test]
    fn write_invalidates_read_cache() {
        let mut d = disk();
        let mut now = SimTime::ZERO;
        let (fin, _) = serve(&mut d, now, read(0, 0));
        now = fin;
        // Overwrite a prefetched page; jump away to break streaming, then
        // the re-read must miss.
        let (fin, _) = serve(&mut d, now, write(1, 0));
        now = fin;
        let (fin, _) = serve(&mut d, now, read(30_000, 0));
        now = fin;
        let before = d.stats().cache_hits;
        let (_, _) = serve(&mut d, now, read(1, 0));
        assert_eq!(d.stats().cache_hits, before, "no hit after invalidation");
    }

    #[test]
    fn stats_count_busy_time() {
        let mut d = disk();
        let (fin, _) = serve(&mut d, SimTime::ZERO, read(0, 0));
        let s = d.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.busy, fin.since(SimTime::ZERO));
        assert!((d.utilization(fin) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn finish_when_idle_panics() {
        let mut d = disk();
        d.finish_current(SimTime::ZERO);
    }
}
