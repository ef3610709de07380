//! The event-driven session engine (DESIGN.md §10).
//!
//! A fixed set of *shard* threads multiplexes every connected socket
//! with a [`PlatformReactor`] — `epoll(7)` on Linux, `poll(2)`
//! elsewhere, fixed by the target OS at build time; the accept thread
//! routes each new connection to a shard by file descriptor. One shard
//! owns its sessions exclusively — no locks on the session path — and
//! drives each as an explicit state machine:
//!
//! ```text
//!              HELLO            QUERY submitted
//!  Handshake ───────► Idle ◄──────────────────┐
//!                      │ bytes arrive         │ last reply written
//!                      ▼                      │
//!                ReadingFrame ──► AwaitingResult ──► Writing
//!                      ▲   complete frame        │
//!                      └─────────────────────────┘
//!                            more pipelined frames buffered
//! ```
//!
//! The machine itself is *not defined here*: every per-session decision
//! routes through the pure transition function
//! [`csqp_verify::protocol::step`] — the shard maps socket readiness,
//! decoded frames, worker completions, and the shutdown sweep onto
//! [`protocol::Event`]s, applies `step`, and interprets the returned
//! [`protocol::Action`]s against the real socket, guards, and admission
//! queue. The model checker in `csqp-verify` explores the same function
//! exhaustively (`csqp-check --protocol`), so the machine being checked
//! is the machine being served.
//!
//! Pipelining: a session may have up to
//! [`crate::ServerConfig::pipeline_depth`] queries outstanding at once
//! (capped at [`protocol::MAX_SERIALS`] so the machine stays finite).
//! Each admitted query occupies a per-session *slot*; workers post the
//! outcome to the owning shard's completion queue tagged with `(session,
//! slot)` and wake its poller, and the shard writes replies in
//! *completion order* — the client re-associates them by request id. A
//! QUERY past the window is rejected `saturated` without consuming a
//! queue slot.
//!
//! Teardown keeps the accounting conservation invariant: a vanished
//! peer cancels every in-flight guard (workers then record `aborted` or
//! `timed-out` — exactly one terminal bucket per admitted query), and
//! replies for dead sessions are dropped *after* the worker has
//! recorded them.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use csqp_core::cancel::CancelToken;
use csqp_net::poll::{
    Interest, PlatformReactor, Reactor, ReactorStats, ReadyEvent, WakeHandle, Waker,
};
use csqp_verify::protocol::{self, Action, ErrorClass, Event, SessionModel};
use csqp_verify::system::{completion_disposition, submit_outcome, CompletionDisposition};

use crate::proto::{
    DegradeReason, ErrorCode, ErrorFrame, Frame, FrameReader, HelloAck, QueryRequest, ReadStep,
    ResultRecord,
};
use crate::server::{
    mangle_reply, Job, QueryService, ReplySink, RETRY_AFTER_MS, SHUTDOWN_RETRY_AFTER_MS,
};

/// A finished query's outcome, posted by a worker to the shard that owns
/// the session it arrived on.
pub(crate) struct Completion {
    /// Shard-local session id the query arrived on.
    pub(crate) session: u64,
    /// The session's slot for this query (see [`Session::inflight`]).
    pub(crate) serial: u64,
    /// What the worker produced.
    pub(crate) outcome: Result<ResultRecord, ErrorFrame>,
}

/// The accept thread's handle to one shard: a registration queue plus
/// the waker that interrupts the shard's poll sleep.
#[derive(Clone)]
pub(crate) struct Registrar {
    tx: mpsc::Sender<TcpStream>,
    wake: WakeHandle,
}

impl Registrar {
    /// Hand a fresh connection to the shard.
    fn register(&self, stream: TcpStream) {
        if self.tx.send(stream).is_ok() {
            self.wake.wake();
        }
    }
}

/// Owning handle to a running shard thread.
pub(crate) struct ShardHandle {
    reg: mpsc::Sender<TcpStream>,
    wake: WakeHandle,
    thread: std::thread::JoinHandle<()>,
}

impl ShardHandle {
    /// A registration handle for the accept thread.
    pub(crate) fn registrar(&self) -> Registrar {
        Registrar {
            tx: self.reg.clone(),
            wake: self.wake.clone(),
        }
    }

    /// Wake the shard (it observes the shutdown flag) and join it.
    pub(crate) fn join(self) {
        self.wake.wake();
        let _ = self.thread.join();
    }
}

/// Route accepted connections to shards by file descriptor. Runs on the
/// accept thread until the shutdown flag is raised (the handle unblocks
/// it with a throwaway connection).
pub(crate) fn accept_into_shards(
    listener: &TcpListener,
    registrars: &[Registrar],
    shutdown: &AtomicBool,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        registrars[shard_for_fd(stream.as_raw_fd(), registrars.len())].register(stream);
    }
}

/// The shard a descriptor lands on: a plain modulus. Descriptors are
/// dense small integers, so consecutive connections spread evenly.
fn shard_for_fd(fd: i32, shards: usize) -> usize {
    (fd.max(0) as usize) % shards.max(1)
}

/// Explicit session states (the machine in the module diagram),
/// projected from the pure [`SessionModel`]. The shard recomputes the
/// state after every pump; poll interest and teardown decisions derive
/// from the same fields, so the stored state is the machine's observable
/// face (tests and debug assertions check it stays consistent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Connected, no HELLO seen yet.
    Handshake,
    /// Nothing buffered, nothing in flight.
    Idle,
    /// A frame is partially buffered mid-read.
    ReadingFrame,
    /// At least one admitted query awaits its worker.
    AwaitingResult,
    /// Reply bytes are queued for the socket.
    Writing,
}

/// One admitted query the session is waiting on.
struct InflightQuery {
    /// Cancelled on disconnect; carries the request deadline.
    guard: Arc<CancelToken>,
    /// The request's seed — the reply-fault key (see
    /// [`crate::server::ServerConfig::reply_faults`]).
    seed: u64,
}

/// One connection, owned by exactly one shard. The decision-bearing
/// fields live in [`Session::model`]; everything else is the real I/O
/// the model abstracts (socket, byte buffers, cancellation guards).
struct Session {
    stream: TcpStream,
    reader: FrameReader,
    /// Bytes queued for the socket, drained front-first by the write pump.
    out: Vec<u8>,
    /// The pure protocol state; the only place admit/reject/drain/close
    /// decisions are made.
    model: SessionModel,
    /// Guards and fault seeds for admitted queries, indexed by the
    /// model's slot. The model's `inflight` bitmask says which entries
    /// are live.
    inflight: [Option<InflightQuery>; protocol::MAX_SERIALS as usize],
    state: SessionState,
}

/// The payload an [`Event`] carries into the action interpreter: the
/// model decides *what* happens, the context supplies the bytes and
/// handles the decision applies to.
enum EventCtx {
    /// No payload (HELLO, BYE, stats, disconnect, sweeps, drains).
    None,
    /// The QUERY frame being admitted or rejected.
    Query(QueryRequest),
    /// A submit outcome: the guard and fault seed to stash on admit, the
    /// wire id to cite on rejection.
    Submit {
        guard: Arc<CancelToken>,
        seed: u64,
        req_id: u64,
    },
    /// The already-mangled reply bytes for a completion.
    Reply(Vec<u8>),
    /// The decode error text for protocol garbage.
    Garbage(String),
}

impl Session {
    fn new(stream: TcpStream, window: u8) -> Session {
        Session {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            model: SessionModel::new(window),
            inflight: std::array::from_fn(|_| None),
            state: SessionState::Handshake,
        }
    }

    /// The state the machine is in right now, projected from the model.
    /// Priority order mirrors what the session is *blocked on*: the
    /// handshake, then outstanding queries, then pending output, then a
    /// partial frame.
    fn current_state(&self) -> SessionState {
        if !self.model.handshaken {
            SessionState::Handshake
        } else if self.model.inflight != 0 {
            SessionState::AwaitingResult
        } else if !self.out.is_empty() {
            SessionState::Writing
        } else if self.reader.mid_frame() {
            SessionState::ReadingFrame
        } else {
            SessionState::Idle
        }
    }

    /// Queue a frame for the socket, unmodified.
    fn push_clean(&mut self, frame: &Frame) {
        self.out.extend_from_slice(&frame.encode());
    }
}

/// The reactor token reserved for the shard's [`Waker`]. Session ids
/// count up from zero, so the all-ones token can never collide.
const WAKER_TOKEN: u64 = u64::MAX;

/// One event-loop thread: owns a disjoint set of sessions and the only
/// reactor that watches them.
pub(crate) struct Shard {
    /// This shard's index — the "site" whose epoch the catalog drift
    /// model tracks (see [`QueryService::catalog_verdict`]).
    index: usize,
    service: Arc<QueryService>,
    submit: SyncSender<Job>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    /// The readiness backend. Sessions are registered under their id as
    /// the token; interest updates route through [`Shard::retune`] so
    /// the reactor's interest cache sees every change exactly once.
    reactor: PlatformReactor,
    reg_rx: Receiver<TcpStream>,
    done_rx: Receiver<Completion>,
    done_tx: mpsc::Sender<Completion>,
    sessions: HashMap<u64, Session>,
    next_session: u64,
    /// Sessions whose `out` gained bytes this iteration: flushed once
    /// after event dispatch so a fresh reply never waits a full reactor
    /// timeout, without an O(sessions) scan per tick.
    wout: Vec<u64>,
    /// Reactor counters as of the last publish to [`ServerMetrics`];
    /// the loop pushes deltas so multiple shards can share the gauges.
    reported: ReactorStats,
}

impl Shard {
    /// Spawn one shard thread. Fails loudly (propagating to
    /// `Server::bind`) if the reactor cannot be created.
    pub(crate) fn spawn(
        index: usize,
        service: Arc<QueryService>,
        submit: SyncSender<Job>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<ShardHandle> {
        let waker = Waker::new()?;
        let wake = waker.handle();
        let mut reactor = PlatformReactor::new()?;
        reactor.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;
        let (reg_tx, reg_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let mut shard = Shard {
            index,
            service,
            submit,
            shutdown,
            waker,
            reactor,
            reg_rx,
            done_rx,
            done_tx,
            sessions: HashMap::new(),
            next_session: 0,
            wout: Vec::new(),
            reported: ReactorStats::default(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("csqp-shard-{index}"))
            .spawn(move || shard.run())?;
        Ok(ShardHandle {
            reg: reg_tx,
            wake,
            thread,
        })
    }

    fn run(&mut self) {
        let timeout = self.service.config().read_timeout;
        let mut events: Vec<ReadyEvent> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                self.close_all();
                self.publish_reactor_stats();
                return;
            }
            if self.reactor.wait(timeout, &mut events).is_err() {
                // EINTR is retried inside the reactor; anything else
                // here is a broken wait — re-check shutdown and retry.
                continue;
            }
            self.waker.drain();
            self.adopt_new_sessions();
            self.drain_completions();
            for &ev in &events {
                let id = ev.token();
                if id == WAKER_TOKEN {
                    continue;
                }
                if ev.error() {
                    self.advance(id, Event::Disconnect, EventCtx::None);
                } else {
                    if ev.readable() {
                        self.pump_read(id);
                    }
                    if ev.writable() {
                        self.pump_write(id);
                    }
                }
            }
            // Opportunistic write for every session that queued bytes
            // this iteration — replies should not wait a reactor cycle;
            // a non-writable socket answers WouldBlock and its write
            // interest (retuned above) delivers the continuation event.
            for id in std::mem::take(&mut self.wout) {
                self.pump_write(id);
            }
            self.publish_reactor_stats();
        }
    }

    /// Push the reactor's counter growth since the last publish into the
    /// shared server metrics.
    fn publish_reactor_stats(&mut self) {
        let now = self.reactor.stats();
        self.service.metrics().record_reactor(
            now.wait_calls - self.reported.wait_calls,
            now.ctl_calls - self.reported.ctl_calls,
            now.events_dispatched - self.reported.events_dispatched,
        );
        self.reported = now;
    }

    /// Sync a session's reactor registration with its computed interest:
    /// read while the model still reads, write while bytes are queued.
    /// Unchanged interest is a cached no-op inside the reactor, so this
    /// is cheap to call after every pump. A failed registration orphans
    /// the session (it would never see another event) — tear it down.
    fn retune(&mut self, id: u64) {
        let Some(s) = self.sessions.get(&id) else {
            return;
        };
        debug_assert_eq!(s.state, s.current_state(), "state retuned after pumps");
        let fd = s.stream.as_raw_fd();
        let interest = Interest::new(!s.model.read_closed, !s.out.is_empty());
        if self.reactor.register(fd, id, interest).is_err() {
            self.finish(id);
        }
    }

    /// Pull freshly accepted connections off the registration queue.
    fn adopt_new_sessions(&mut self) {
        let window = self.service.config().effective_pipeline_depth() as u8;
        while let Ok(stream) = self.reg_rx.try_recv() {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let id = self.next_session;
            self.next_session += 1;
            self.service.metrics().session_opened();
            self.sessions.insert(id, Session::new(stream, window));
            // Initial registration (read interest); failure tears the
            // session straight back down, keeping the open/close gauge
            // balanced.
            self.retune(id);
        }
    }

    /// Apply one protocol event to a session and interpret the resulting
    /// actions against the real world. This is the *only* path that
    /// mutates a session's decision state.
    fn advance(&mut self, id: u64, event: Event, ctx: EventCtx) {
        let service = Arc::clone(&self.service);
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let (next, actions) = protocol::step(&s.model, event);
        s.model = next;
        let mut submit: Option<(u8, QueryRequest)> = None;
        let mut close = false;
        for action in actions {
            match action {
                Action::SendHelloAck => {
                    let config = service.config();
                    s.push_clean(&Frame::HelloAck(HelloAck {
                        server: config.name.clone(),
                        num_servers: config.num_servers,
                        pipeline_depth: config.effective_pipeline_depth() as u32,
                    }));
                }
                Action::SendStats => {
                    s.push_clean(&Frame::Stats(service.stats_snapshot()));
                }
                Action::SendError(class) => {
                    if matches!(class, ErrorClass::Saturated) {
                        service.metrics().record_reject();
                    }
                    s.push_clean(&Frame::Error(error_frame(class, &event, &ctx, &service)));
                }
                Action::SendReply(_) => {
                    if let EventCtx::Reply(bytes) = &ctx {
                        s.out.extend_from_slice(bytes);
                    }
                }
                Action::TrySubmit(slot) => {
                    // The submit resolves below, outside the session
                    // borrow, and re-enters `advance` with the outcome.
                    if let EventCtx::Query(ref req) = ctx {
                        submit = Some((slot, req.clone()));
                    }
                }
                Action::Admit(slot) => {
                    if let EventCtx::Submit {
                        ref guard, seed, ..
                    } = ctx
                    {
                        s.inflight[slot as usize] = Some(InflightQuery {
                            guard: Arc::clone(guard),
                            seed,
                        });
                    }
                }
                Action::Cancel(slot) => {
                    if let Some(q) = s.inflight[slot as usize].take() {
                        q.guard.cancel();
                    }
                }
                Action::Close => close = true,
            }
        }
        s.state = s.current_state();
        let has_out = !s.out.is_empty();
        if close {
            self.finish(id);
            return;
        }
        if has_out {
            // Queue for the end-of-iteration flush; duplicates are
            // harmless (a drained session's pump is a no-op).
            self.wout.push(id);
        }
        self.retune(id);
        if let Some((slot, req)) = submit {
            self.resolve_submit(id, slot, req);
        }
    }

    /// Hand an admitted-by-the-window query to the admission queue and
    /// feed the outcome back into the machine as [`Event::Submit`].
    fn resolve_submit(&mut self, id: u64, slot: u8, req: QueryRequest) {
        let service = Arc::clone(&self.service);
        let req_id = req.id;
        let seed = req.seed;
        let deadline = req
            .deadline_ms
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let guard = Arc::new(CancelToken::new(deadline));
        let degrade = if service.begin_inflight() >= service.config().effective_high_water() as u64
        {
            Some(DegradeReason::Saturated)
        } else {
            None
        };
        // The drift model ticks at admission time, on the shard thread,
        // so the verdict reflects exactly the replica state this query
        // was admitted under (inert unless catalog faults are armed).
        let catalog = service.catalog_verdict(self.index, &req);
        let job = Job {
            req,
            reply: ReplySink {
                tx: self.done_tx.clone(),
                session: id,
                serial: u64::from(slot),
                waker: self.waker.handle(),
            },
            enqueued: Instant::now(),
            guard: Arc::clone(&guard),
            degrade,
            catalog,
        };
        // The verdict itself comes from the shared arbitration layer
        // (`csqp_verify::system`), so the priority the checker explores
        // — pool-gone beats queue-full — is the one served here.
        let outcome = match self.submit.try_send(job) {
            Ok(()) => submit_outcome(false, false),
            Err(TrySendError::Full(_)) => {
                service.end_inflight();
                submit_outcome(true, false)
            }
            Err(TrySendError::Disconnected(_)) => {
                service.end_inflight();
                service.metrics().record_aborted();
                submit_outcome(false, true)
            }
        };
        self.advance(
            id,
            Event::Submit(outcome),
            EventCtx::Submit {
                guard,
                seed,
                req_id,
            },
        );
    }

    /// Drain worker completions: re-associate each by `(session, slot)`,
    /// apply the reply-fault plan, and feed the machine a clean or
    /// truncated completion event.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let slot = (done.serial % u64::from(protocol::MAX_SERIALS)) as u8;
            let Some(s) = self.sessions.get_mut(&done.session) else {
                // Session torn down while the query ran; the worker
                // already recorded the terminal bucket.
                continue;
            };
            if completion_disposition(&s.model, slot) == CompletionDisposition::DropStale {
                // The model's drop path: a closed or poisoned stream
                // swallows completions, as does a slot retired by
                // cancel or deadline (the guard was already cancelled).
                continue;
            }
            let Some(q) = s.inflight[slot as usize].take() else {
                continue;
            };
            let frame = match done.outcome {
                Ok(record) => Frame::Result(record),
                Err(err) => Frame::Error(err),
            };
            let wire = mangle_reply(self.service.config(), q.seed, &frame);
            let event = if wire.closes_session() {
                Event::CompletionTruncated(slot)
            } else {
                Event::Completion(slot)
            };
            let bytes = wire.bytes().to_vec();
            self.advance(done.session, event, EventCtx::Reply(bytes));
        }
    }

    /// Read until the socket runs dry, processing every complete frame
    /// (this is what makes pipelining work: back-to-back frames that
    /// arrived in one read are all admitted before the next poll).
    fn pump_read(&mut self, id: u64) {
        loop {
            let Some(s) = self.sessions.get_mut(&id) else {
                return;
            };
            if s.model.read_closed {
                return;
            }
            match s.reader.step(&mut s.stream) {
                Ok(ReadStep::Frame(frame)) => self.process_frame(id, frame),
                Ok(ReadStep::Pending) => {
                    if s.reader.mid_frame() {
                        self.advance(id, Event::BytesPartial, EventCtx::None);
                    } else if let Some(s) = self.sessions.get_mut(&id) {
                        s.state = s.current_state();
                    }
                    return;
                }
                Ok(ReadStep::Closed) => {
                    self.advance(id, Event::Disconnect, EventCtx::None);
                    return;
                }
                Err(e) => {
                    // Protocol garbage: best-effort typed error, then
                    // the stream can no longer be trusted.
                    self.advance(id, Event::FrameGarbage, EventCtx::Garbage(e.to_string()));
                    return;
                }
            }
        }
    }

    /// Map one decoded client frame on session `id` to its protocol
    /// event.
    fn process_frame(&mut self, id: u64, frame: Frame) {
        match frame {
            Frame::Hello(_) => self.advance(id, Event::FrameHello, EventCtx::None),
            Frame::Query(req) => {
                self.service.metrics().record_submitted();
                self.advance(id, Event::FrameQuery, EventCtx::Query(req));
            }
            Frame::StatsRequest => self.advance(id, Event::FrameStats, EventCtx::None),
            Frame::Bye => self.advance(id, Event::FrameBye, EventCtx::None),
            // Server-to-client frames arriving at the server are a
            // client bug, not stream corruption: report and continue.
            Frame::HelloAck(_) | Frame::Result(_) | Frame::Error(_) | Frame::Stats(_) => {
                self.advance(id, Event::FrameUnexpected, EventCtx::None);
            }
        }
    }

    /// Write queued bytes until the socket would block or `out` drains;
    /// a full drain is an event the machine observes (it may finish a
    /// draining or poisoned session).
    fn pump_write(&mut self, id: u64) {
        let Some(s) = self.sessions.get_mut(&id) else {
            return;
        };
        let mut wrote = 0;
        let dead = loop {
            if wrote == s.out.len() {
                break false;
            }
            match s.stream.write(&s.out[wrote..]) {
                Ok(0) => break true,
                Ok(n) => wrote += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    break false
                }
                Err(_) => break true,
            }
        };
        s.out.drain(..wrote);
        let drained = s.out.is_empty() && s.model.out_pending > 0;
        s.state = s.current_state();
        if dead {
            self.advance(id, Event::Disconnect, EventCtx::None);
        } else if drained {
            self.advance(id, Event::WriteDrained, EventCtx::None);
        } else {
            // Partial drain (WouldBlock): write interest arms here, and
            // the reactor's writable event drives the continuation.
            self.retune(id);
        }
    }

    /// Interpret [`Action::Close`]: flush what the machine queued on the
    /// way out (best effort — the peer may be gone), drop the session,
    /// record the metric. Guards were cancelled by the [`Action::Cancel`]s
    /// the machine emitted before closing.
    fn finish(&mut self, id: u64) {
        if let Some(mut s) = self.sessions.remove(&id) {
            // Deregister before the stream drops (closes the fd) — the
            // reactor contract; best-effort because the descriptor may
            // already be dead.
            let _ = self.reactor.deregister(s.stream.as_raw_fd());
            if !s.out.is_empty() {
                let _ = s.stream.write(&s.out);
            }
            for q in s.inflight.iter_mut().filter_map(Option::take) {
                q.guard.cancel();
            }
            self.service.metrics().session_closed();
        }
    }

    /// Shutdown: the machine's shutdown sweep for every session — a
    /// best-effort ShuttingDown error, cancel everything outstanding,
    /// close.
    fn close_all(&mut self) {
        let ids: Vec<u64> = self.sessions.keys().copied().collect();
        for id in ids {
            self.advance(id, Event::ShutdownSweep, EventCtx::None);
        }
    }
}

/// The wire error frame for a machine-decided [`Action::SendError`]:
/// the class comes from the model, the message and retry hint from the
/// event's real-world context.
fn error_frame(
    class: ErrorClass,
    event: &Event,
    ctx: &EventCtx,
    service: &QueryService,
) -> ErrorFrame {
    match class {
        ErrorClass::Saturated => match ctx {
            // Window rejection: the QUERY never reached the queue.
            EventCtx::Query(req) => ErrorFrame {
                id: req.id,
                code: ErrorCode::Saturated,
                message: format!(
                    "pipeline window full ({} outstanding)",
                    service.config().effective_pipeline_depth()
                ),
                retry_after_ms: Some(RETRY_AFTER_MS),
            },
            // Admission-queue rejection.
            _ => ErrorFrame {
                id: match ctx {
                    EventCtx::Submit { req_id, .. } => *req_id,
                    _ => 0,
                },
                code: ErrorCode::Saturated,
                message: "admission queue full".to_string(),
                retry_after_ms: Some(RETRY_AFTER_MS),
            },
        },
        ErrorClass::BadFrame => ErrorFrame {
            id: 0,
            code: ErrorCode::BadFrame,
            message: match ctx {
                EventCtx::Garbage(text) => text.clone(),
                _ => "malformed frame".to_string(),
            },
            retry_after_ms: None,
        },
        ErrorClass::BadRequest => ErrorFrame {
            id: 0,
            code: ErrorCode::BadRequest,
            message: "unexpected server-to-client frame".to_string(),
            retry_after_ms: None,
        },
        ErrorClass::ShuttingDown => ErrorFrame {
            id: match (event, ctx) {
                (Event::Submit(_), EventCtx::Submit { req_id, .. }) => *req_id,
                _ => 0,
            },
            code: ErrorCode::ShuttingDown,
            message: "server shutting down".to_string(),
            retry_after_ms: Some(SHUTDOWN_RETRY_AFTER_MS),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn loopback_session() -> (Session, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        (Session::new(server, 8), client)
    }

    #[test]
    fn state_machine_transitions_in_priority_order() {
        let (mut s, _client) = loopback_session();
        assert_eq!(s.current_state(), SessionState::Handshake);
        s.model.handshaken = true;
        assert_eq!(s.current_state(), SessionState::Idle);
        s.out.extend_from_slice(b"reply bytes");
        assert_eq!(s.current_state(), SessionState::Writing);
        s.model.inflight = 0b1;
        // An outstanding query outranks pending output.
        assert_eq!(s.current_state(), SessionState::AwaitingResult);
        s.model.inflight = 0;
        s.out.clear();
        assert_eq!(s.current_state(), SessionState::Idle);
    }

    #[test]
    fn reading_frame_state_reflects_a_partial_frame() {
        use std::io::Write as _;
        let (mut s, mut client) = loopback_session();
        s.model.handshaken = true;
        // First 5 bytes of a real frame: mid-frame after one step.
        let bytes = Frame::Bye.encode();
        client.write_all(&bytes[..5]).expect("partial write");
        loop {
            match s.reader.step(&mut s.stream) {
                Ok(ReadStep::Pending) => {
                    if s.reader.mid_frame() {
                        break;
                    }
                }
                other => panic!("unexpected step: {other:?}"),
            }
        }
        assert_eq!(s.current_state(), SessionState::ReadingFrame);
    }

    #[test]
    fn garbage_event_poisons_and_cancels_inflight() {
        let (mut s, _client) = loopback_session();
        let guard = Arc::new(CancelToken::inert());
        s.model.handshaken = true;
        s.model.inflight = 0b1000; // slot 3
        s.inflight[3] = Some(InflightQuery {
            guard: Arc::clone(&guard),
            seed: 9,
        });
        let (next, actions) = protocol::step(&s.model, Event::FrameGarbage);
        s.model = next;
        assert!(s.model.poisoned);
        assert!(
            actions.contains(&Action::Cancel(3)),
            "poisoning cancels workers: {actions:?}"
        );
        assert!(!s.model.finished(), "error bytes still owed");
        let (next, _) = protocol::step(&s.model, Event::WriteDrained);
        assert!(next.closed, "poisoned + flushed = removable");
    }

    #[test]
    fn draining_session_waits_for_inflight_and_output() {
        let (mut s, _client) = loopback_session();
        s.model.handshaken = true;
        s.model.draining = true;
        s.model.inflight = 0b1;
        assert!(!s.model.finished(), "a pipelined reply is still owed");
        s.model.inflight = 0;
        s.model.out_pending = 1;
        assert!(!s.model.finished(), "reply not flushed yet");
        s.model.out_pending = 0;
        assert!(s.model.finished());
    }

    #[test]
    fn fd_sharding_spreads_and_never_panics() {
        assert_eq!(shard_for_fd(10, 4), 2);
        assert_eq!(shard_for_fd(11, 4), 3);
        assert_eq!(shard_for_fd(0, 1), 0);
        assert_eq!(shard_for_fd(-1, 4), 0, "defensive on invalid fds");
        assert_eq!(shard_for_fd(7, 0), 0, "zero shards clamps");
    }
}
