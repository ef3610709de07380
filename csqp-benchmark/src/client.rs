//! The load generator: raw frame I/O over TCP, and the closed- and
//! open-loop generators that time every request.
//!
//! Replies are kept as the raw bytes the server wrote, so the in-process
//! replay can be compared with them byte for byte.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use csqp_net::poll::{poll_fds, PollFd};
use csqp_serve::proto::{decode_header, Frame, Hello, StatsSnapshot, HEADER_LEN};
use csqp_serve::server::fnv1a;

use crate::clock;

/// One client session: the socket plus the bytes read past the last
/// complete frame.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The pipelining window the server advertised in HELLO-ACK.
    pub window: usize,
}

impl Conn {
    /// Connect and open a session with HELLO / HELLO-ACK.
    pub fn open(addr: SocketAddr, client: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let mut conn = Conn {
            stream,
            buf: Vec::with_capacity(4096),
            window: 1,
        };
        let hello = Frame::Hello(Hello {
            client: client.to_string(),
        });
        conn.send(&hello.encode())?;
        match conn.recv_frame()? {
            Frame::HelloAck(ack) => conn.window = (ack.pipeline_depth as usize).max(1),
            other => return Err(format!("expected HELLO-ACK, got {:?}", other.kind())),
        }
        Ok(conn)
    }

    /// Write one encoded frame.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))
    }

    /// Split off the next complete frame already buffered, if any.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let (_, payload) =
            decode_header(&self.buf).map_err(|e| format!("bad reply header: {e}"))?;
        let total = HEADER_LEN + payload;
        if self.buf.len() < total {
            return Ok(None);
        }
        let rest = self.buf.split_off(total);
        Ok(Some(std::mem::replace(&mut self.buf, rest)))
    }

    /// One read from the socket into the buffer (blocks if nothing is
    /// pending).
    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Block until one complete frame has arrived; return its raw bytes.
    pub fn recv_raw(&mut self) -> Result<Vec<u8>, String> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(frame);
            }
            self.fill()?;
        }
    }

    /// Block for one frame and decode it.
    pub fn recv_frame(&mut self) -> Result<Frame, String> {
        let bytes = self.recv_raw()?;
        Frame::decode(&bytes).map_err(|e| format!("undecodable reply: {e}"))
    }

    /// Ask for the server's STATS snapshot.
    pub fn stats(&mut self) -> Result<StatsSnapshot, String> {
        self.send(&Frame::StatsRequest.encode())?;
        match self.recv_frame()? {
            Frame::Stats(snap) => Ok(snap),
            other => Err(format!("expected STATS, got {:?}", other.kind())),
        }
    }
}

/// One answered request, timed by the generator.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request index within its connection.
    pub index: u64,
    /// When the request fell due: its arrival slot in an open loop, the
    /// previous reply's arrival in a closed loop.
    pub due: Instant,
    /// When it was handed to the socket.
    pub sent: Instant,
    /// Where its latency is counted from: the due time in an open loop,
    /// so waiting behind a stall counts; the send in a closed loop.
    pub from: Instant,
    /// When its reply had been read completely.
    pub done: Instant,
    /// Whether the reply was a clean (non-degraded) RESULT for its id.
    pub ok: bool,
}

impl Sample {
    /// How long after it fell due the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent - self.due
    }

    /// Client-observed latency.
    pub fn latency(&self) -> Duration {
        self.done - self.from
    }
}

/// What one connection's timed phase produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per answered request, in completion order.
    pub samples: Vec<Sample>,
    /// Raw reply frames of requests `0..keep`, by index.
    pub kept: Vec<Option<Vec<u8>>>,
}

impl Outcome {
    fn new(keep: u64) -> Outcome {
        Outcome {
            samples: Vec::new(),
            kept: vec![None; keep as usize],
        }
    }

    fn record(&mut self, index: u64, times: [Instant; 4], reply: Vec<u8>) {
        let [due, sent, from, done] = times;
        let ok = matches!(
            Frame::decode(&reply),
            Ok(Frame::Result(r)) if r.id == index + 1 && r.degraded_from.is_none()
        );
        self.samples.push(Sample {
            index,
            due,
            sent,
            from,
            done,
            ok,
        });
        if let Some(slot) = self.kept.get_mut(index as usize) {
            *slot = Some(reply);
        }
    }
}

/// Order-independent digest of reply frames: a wrapping sum of FNV-1a
/// over `(connection, index, frame bytes)`, so equal outputs give equal
/// digests however the replies interleaved.
pub fn fold_digest(digest: u64, conn: u64, index: u64, frame: &[u8]) -> u64 {
    let mut keyed = Vec::with_capacity(16 + frame.len());
    keyed.extend_from_slice(&conn.to_be_bytes());
    keyed.extend_from_slice(&index.to_be_bytes());
    keyed.extend_from_slice(frame);
    digest.wrapping_add(fnv1a(&keyed))
}

/// A request source: yields the encoded QUERY frame for each index in
/// turn, with id `index + 1`.
pub type Next<'a> = Box<dyn FnMut() -> Result<Vec<u8>, String> + Send + 'a>;

/// Closed loop on one connection: send the next request the moment the
/// previous reply has been read, until `until`. A request falls due when
/// the previous reply lands, so [`Sample::late`] is the generator's own
/// turnaround; latency counts from the send.
pub fn closed_loop(
    conn: &mut Conn,
    next: &mut Next<'_>,
    until: Instant,
    keep: u64,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(keep);
    let mut due = clock::now();
    let mut index = 0u64;
    while due < until {
        let frame = next()?;
        let sent = clock::now();
        conn.send(&frame)?;
        let reply = conn.recv_raw()?;
        out.record(index, [due, sent, sent, clock::now()], reply);
        due = out.samples.last().map_or(due, |s| s.done);
        index += 1;
    }
    Ok(out)
}

/// An open-loop arrival schedule for one connection: request `k` falls
/// due at `start + offset + k · interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// The schedule's origin.
    pub start: Instant,
    /// This connection's phase within the interval.
    pub offset: Duration,
    /// Gap between this connection's consecutive arrivals.
    pub interval: Duration,
    /// Requests to send.
    pub count: u64,
}

impl Schedule {
    /// When request `k` falls due.
    pub fn due(&self, k: u64) -> Instant {
        self.start + self.offset + self.interval.mul_f64(k as f64)
    }
}

/// What the two open-loop threads share.
#[derive(Debug, Default)]
struct OpenState {
    /// Per connection, requests written but not yet answered: id →
    /// (index, due, sent).
    in_flight: Vec<BTreeMap<u64, (u64, Instant, Instant)>>,
    all_sent: bool,
    failed: Option<String>,
}

fn lock(m: &Mutex<OpenState>) -> MutexGuard<'_, OpenState> {
    match m.lock() {
        Ok(g) => g,
        // Every update leaves the state consistent, and a panicked
        // thread fails the run through its join anyway.
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// How long the reader waits for readiness, and the sender for a window
/// slot, before re-checking whether the run is over.
const TICK: Duration = Duration::from_millis(20);

/// Open loop over `conns` with two threads. A sender thread sends each
/// request when it falls due — waiting on a condition variable, which
/// times at sub-millisecond resolution — and keeps at most the server's
/// window outstanding per connection; the calling thread reads replies
/// as they arrive, so a reply is never left unread while the sender
/// waits. A request that falls due while its window is full waits, and
/// its latency still counts from the due time: a server stall shows in
/// every request that fell due during it, not as a late send.
pub fn open_loop(
    conns: &mut [Conn],
    nexts: Vec<Next<'_>>,
    schedules: &[Schedule],
    keep: u64,
) -> Result<Vec<Outcome>, String> {
    let mut writers = conns
        .iter()
        .map(|c| {
            c.stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let windows: Vec<usize> = conns.iter().map(|c| c.window).collect();
    let state = Mutex::new(OpenState {
        in_flight: vec![BTreeMap::new(); conns.len()],
        ..OpenState::default()
    });
    let wake = Condvar::new();
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let sent = send_on_schedule(&mut writers, nexts, schedules, &windows, &state, &wake);
            let mut g = lock(&state);
            match sent {
                Ok(()) => g.all_sent = true,
                Err(e) => {
                    g.failed.get_or_insert(e);
                }
            }
        });
        let read = read_replies(conns, keep, &state, &wake);
        if let Err(e) = &read {
            lock(&state).failed.get_or_insert(e.clone());
            wake.notify_all();
        }
        let joined = sender.join();
        let failed = lock(&state).failed.take();
        match (joined, failed) {
            (Err(_), _) => Err("the sender thread panicked".to_string()),
            (Ok(()), Some(e)) => Err(e),
            (Ok(()), None) => read,
        }
    })
}

/// The sender half of [`open_loop`]: walk the merged schedules in due
/// order.
fn send_on_schedule(
    writers: &mut [TcpStream],
    mut nexts: Vec<Next<'_>>,
    schedules: &[Schedule],
    windows: &[usize],
    state: &Mutex<OpenState>,
    wake: &Condvar,
) -> Result<(), String> {
    let mut k = vec![0u64; schedules.len()];
    loop {
        let Some(c) = (0..schedules.len())
            .filter(|&c| k[c] < schedules[c].count)
            .min_by_key(|&c| schedules[c].due(k[c]))
        else {
            return Ok(());
        };
        let due = schedules[c].due(k[c]);
        let frame = nexts[c]()?;
        let mut g = lock(state);
        let sent = loop {
            if let Some(e) = &g.failed {
                return Err(e.clone());
            }
            let now = clock::now();
            let room = g.in_flight[c].len() < windows[c];
            if room && now >= due {
                break now;
            }
            let wait = if room { due - now } else { TICK };
            g = match wake.wait_timeout(g, wait) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        };
        g.in_flight[c].insert(k[c] + 1, (k[c], due, sent));
        drop(g);
        writers[c]
            .write_all(&frame)
            .map_err(|e| format!("send: {e}"))?;
        k[c] += 1;
    }
}

/// The reader half of [`open_loop`]: wait for readiness on every
/// connection, match each reply to its request, and free its window slot.
fn read_replies(
    conns: &mut [Conn],
    keep: u64,
    state: &Mutex<OpenState>,
    wake: &Condvar,
) -> Result<Vec<Outcome>, String> {
    let mut outcomes: Vec<Outcome> = conns.iter().map(|_| Outcome::new(keep)).collect();
    loop {
        {
            let g = lock(state);
            if g.failed.is_some() || (g.all_sent && g.in_flight.iter().all(BTreeMap::is_empty)) {
                return Ok(outcomes);
            }
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd::new(c.stream.as_raw_fd(), true, false))
            .collect();
        poll_fds(&mut fds, TICK).map_err(|e| format!("poll: {e}"))?;
        for (c, conn) in conns.iter_mut().enumerate() {
            if !fds[c].ready() {
                continue;
            }
            conn.fill()?;
            while let Some(reply) = conn.take_frame()? {
                let done = clock::now();
                let id = match Frame::decode(&reply) {
                    Ok(Frame::Result(r)) => r.id,
                    Ok(Frame::Error(e)) => e.id,
                    Ok(other) => return Err(format!("unexpected reply {:?}", other.kind())),
                    Err(e) => return Err(format!("undecodable reply: {e}")),
                };
                let answered = lock(state).in_flight[c].remove(&id);
                wake.notify_all();
                let (index, due, sent) = answered
                    .ok_or_else(|| format!("reply for id {id}, which is not outstanding"))?;
                outcomes[c].record(index, [due, sent, due, done], reply);
            }
        }
    }
}
