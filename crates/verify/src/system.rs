//! System-level model checking: N session machines composed with a
//! shared admission-queue / worker-pool / completion-channel model.
//!
//! The single-session checker in [`crate::protocol`] proves every
//! property that lives *inside* one connection. Everything that can
//! take down a serving stack under load lives *between* connections:
//! cross-session starvation, worker-pool exhaustion, lost wakeups,
//! shutdown races. This module composes N copies of the (unchanged)
//! pure [`protocol::step`] with a shared [`PoolModel`] and checks the
//! product machine exhaustively.
//!
//! The composition is itself a pure transition function,
//! [`system_step`], and the serving engine routes its arbitration
//! decisions through the same helpers the model uses
//! ([`submit_outcome`], [`completion_disposition`]) — so the machine
//! checked stays the machine served, one layer up from PR 5.
//!
//! ## The event alphabet is a projection
//!
//! Per-session events are restricted to `{FrameQuery, FrameBye,
//! WriteDrained, Disconnect}` and sessions start handshaken. The
//! dropped events (handshake ordering, garbage frames, deadline expiry,
//! truncated completions) are all *session-local*: the single-session
//! checker already explores them exhaustively, and none of them touch
//! the shared pool except through the same `TrySubmit`/`Completion`
//! surface the kept events exercise. Shrinking the alphabet keeps the
//! product space tractable without hiding any cross-session behavior.
//!
//! ## Properties
//!
//! - **Worker conservation** ([`DiagCode::SystemWorkerLeak`]): every
//!   in-flight slot of a live session is backed by exactly one job
//!   across queue ∪ busy ∪ done, and never more workers are leased than
//!   exist.
//! - **Bounded overtake** ([`DiagCode::SystemStarvation`]): a queued
//!   admission is picked up before more than [`MAX_OVERTAKE`]
//!   later-queued jobs overtake it. The real queue is FIFO, so the
//!   counter never moves; a mutant that picks LIFO starves the head.
//! - **No lost wakeup** ([`DiagCode::SystemLostWakeup`]): whenever the
//!   completion channel is non-empty, delivery is enabled. Checked as a
//!   bounded lasso: a reachable cycle (including environment stutter)
//!   through states where completions sit undeliverable is a liveness
//!   violation under weak fairness on delivery.
//! - **Sweep completeness** ([`DiagCode::SystemSweepIncomplete`]):
//!   after shutdown, every session is closed once the sweep runs.
//!
//! Violations carry minimal counterexample traces (BFS order) and
//! render through the same [`Report`] machinery as the protocol pass.
//!
//! ## Symmetry reduction
//!
//! Sessions are interchangeable: the initial state is symmetric and
//! every property is permutation-invariant. The checker therefore keys
//! its visited set on a *canonical form* — the minimum over all session
//! permutations of the state with session indices rewritten
//! ([`canonicalize`]). Soundness rests on `system_step` commuting with
//! permutation, which `tests/system_properties.rs` establishes by
//! proptest. With 3 sessions this shrinks the visited set by roughly
//! the number of non-trivially-symmetric states (logged by
//! `csqp-check --system` into `BENCH_check.json`).

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::fmt;

use crate::protocol::{self, Action, Event, SessionModel, SubmitOutcome};
use crate::report::Report;
use csqp_core::diag::{DiagCode, Diagnostic};

/// How many later-queued jobs may overtake a waiting admission before
/// the checker calls it starvation. The served queue is strict FIFO, so
/// any positive bound holds; the model keeps the bound small so a
/// fairness mutant is caught within a shallow depth.
pub const MAX_OVERTAKE: u8 = 2;

/// One admitted-but-not-yet-leased job waiting in the bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket {
    /// Index of the session that submitted the job.
    pub session: u8,
    /// The serial slot the reply will land in.
    pub slot: u8,
    /// How many later-queued tickets have been leased ahead of this
    /// one. Saturates just past [`MAX_OVERTAKE`]; FIFO pickup never
    /// increments it.
    pub overtaken: u8,
}

/// A leased or completed job: the (session, slot) pair a worker owes a
/// reply to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Job {
    /// Index of the owning session.
    pub session: u8,
    /// The serial slot the reply lands in.
    pub slot: u8,
}

/// The shared half of the system state: bounded admission queue, worker
/// pool, completion channel, and the poll-wakeup flag.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PoolModel {
    /// False once shutdown begins: submits observe `PoolGone`.
    pub open: bool,
    /// FIFO admission queue, bounded by `capacity`.
    pub queue: Vec<Ticket>,
    /// Jobs currently leased to workers. Kept sorted: lease order is
    /// not observable, only the multiset of leases is.
    pub busy: Vec<Job>,
    /// FIFO completion channel: finished jobs awaiting delivery.
    pub done: Vec<Job>,
    /// The engine's wakeup flag: true when the poll loop has been (or
    /// will be) woken to drain `done`. The served engine maintains
    /// "done non-empty ⇒ wake"; losing that is the lost-wakeup bug.
    pub wake: bool,
    /// Admission-queue bound (the engine's `queue_depth`).
    pub capacity: u8,
    /// Worker-pool size: at most this many jobs in `busy`.
    pub workers: u8,
}

impl PoolModel {
    /// A fresh open pool with the given bounds.
    #[must_use]
    pub fn new(capacity: u8, workers: u8) -> Self {
        PoolModel {
            open: true,
            queue: Vec::new(),
            busy: Vec::new(),
            done: Vec::new(),
            wake: false,
            capacity,
            workers,
        }
    }
}

/// The full product state: N session machines plus the shared pool.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemState {
    /// The per-connection machines, stepped by [`protocol::step`].
    pub sessions: Vec<SessionModel>,
    /// The shared admission / worker / completion model.
    pub pool: PoolModel,
    /// True once the shutdown sweep has run; afterwards every session
    /// must be closed (sweep completeness).
    pub swept: bool,
}

impl SystemState {
    /// A symmetric initial state: `n` handshaken sessions with the
    /// given pipeline window, over a fresh pool.
    #[must_use]
    pub fn new(n: u8, window: u8, capacity: u8, workers: u8) -> Self {
        let mut base = SessionModel::new(window);
        // Sessions start handshaken: the handshake itself is
        // session-local and covered by the protocol checker.
        let (after_hello, _) = protocol::step(&base, Event::FrameHello);
        base = after_hello;
        SystemState {
            sessions: vec![base; usize::from(n)],
            pool: PoolModel::new(capacity, workers),
            swept: false,
        }
    }
}

/// One transition of the composed machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SysEvent {
    /// A session-local event on session `i`, arbitrated against the
    /// shared pool when it submits.
    Client(u8, Event),
    /// A free worker leases the queue head (a mutant may lease
    /// elsewhere; the pickup index is the stepper's choice).
    Pickup,
    /// A worker finishes the given leased job and posts it to the
    /// completion channel.
    Finish(Job),
    /// The poll loop drains one completion and routes it to its
    /// session (or drops it if the session is gone).
    Deliver,
    /// Shutdown: close the pool and sweep every session.
    Shutdown,
}

impl fmt::Display for SysEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysEvent::Client(i, ev) => write!(f, "client[{i}]:{ev}"),
            SysEvent::Pickup => write!(f, "pickup"),
            SysEvent::Finish(j) => write!(f, "finish[{}#{}]", j.session, j.slot),
            SysEvent::Deliver => write!(f, "deliver"),
            SysEvent::Shutdown => write!(f, "shutdown"),
        }
    }
}

/// What the engine must do in response to a [`system_step`], one layer
/// above the per-session [`Action`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SysAction {
    /// Perform a session-level action on session `i`.
    Session(u8, Action),
    /// Hand the job to a worker thread.
    Lease(Job),
    /// Post the finished job on the completion channel and wake the
    /// poll loop.
    Post(Job),
    /// Discard a completion whose session is gone or whose slot was
    /// already retired (cancelled, expired, poisoned).
    Drop(Job),
}

/// How the poll loop must treat one drained completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionDisposition {
    /// Route the reply into the session's write path.
    Deliver,
    /// The slot was retired while the job ran (cancel, deadline,
    /// poison, close): drop the payload, never write it.
    DropStale,
}

/// The single decision point for stale completions, shared by the model
/// and the engine's completion-drain loop: a completion is delivered
/// iff its session is still open, unpoisoned, and the slot is still
/// in flight.
#[must_use]
pub fn completion_disposition(session: &SessionModel, slot: u8) -> CompletionDisposition {
    if session.closed || session.poisoned || !session.is_inflight(slot) {
        CompletionDisposition::DropStale
    } else {
        CompletionDisposition::Deliver
    }
}

/// The single decision point for admission verdicts, shared by the
/// model's arbitration and the engine's `try_send` mapping: pool gone
/// beats queue full.
#[must_use]
pub fn submit_outcome(queue_full: bool, pool_gone: bool) -> SubmitOutcome {
    if pool_gone {
        SubmitOutcome::PoolGone
    } else if queue_full {
        SubmitOutcome::QueueFull
    } else {
        SubmitOutcome::Admitted
    }
}

/// The pluggable transition function: [`system_step`] for the real
/// machine, mutated variants in tests.
pub type SysStepper = fn(&SystemState, SysEvent) -> (SystemState, Vec<SysAction>);

/// Lease the ticket at `index`, charging one overtake to every ticket
/// it jumped. The real stepper always passes 0 (FIFO), so `overtaken`
/// never moves; an unfair mutant pays the charge and the starvation
/// check collects it.
fn take_ticket(pool: &mut PoolModel, index: usize) -> Ticket {
    for earlier in &mut pool.queue[..index] {
        earlier.overtaken = earlier.overtaken.saturating_add(1);
    }
    pool.queue.remove(index)
}

/// Step session `i` with a protocol event and arbitrate any resulting
/// `TrySubmit` against the pool, synchronously — mirroring the engine,
/// where `try_send` resolves in the same poll iteration.
fn step_session(next: &mut SystemState, i: u8, ev: Event, out: &mut Vec<SysAction>) {
    let idx = usize::from(i);
    let (mut s, actions) = protocol::step(&next.sessions[idx], ev);
    for a in &actions {
        out.push(SysAction::Session(i, *a));
        if let Action::TrySubmit(slot) = *a {
            let verdict = submit_outcome(
                next.pool.queue.len() >= usize::from(next.pool.capacity),
                !next.pool.open,
            );
            if verdict == SubmitOutcome::Admitted {
                next.pool.queue.push(Ticket {
                    session: i,
                    slot,
                    overtaken: 0,
                });
            }
            let (s2, actions2) = protocol::step(&s, Event::Submit(verdict));
            s = s2;
            for a2 in actions2 {
                out.push(SysAction::Session(i, a2));
            }
        }
    }
    next.sessions[idx] = s;
}

/// The pure composed transition function the checker explores and the
/// engine interprets. Same shape as [`protocol::step`]: total over
/// (state, event), pure, deterministic.
#[must_use]
pub fn system_step(state: &SystemState, event: SysEvent) -> (SystemState, Vec<SysAction>) {
    let mut next = state.clone();
    let mut out = Vec::new();
    match event {
        SysEvent::Client(i, ev) => step_session(&mut next, i, ev, &mut out),
        SysEvent::Pickup => {
            if !next.pool.queue.is_empty() && next.pool.busy.len() < usize::from(next.pool.workers)
            {
                let t = take_ticket(&mut next.pool, 0);
                let job = Job {
                    session: t.session,
                    slot: t.slot,
                };
                // `busy` is an unordered lease multiset; keep it sorted
                // so equal states hash equally.
                let pos = next.pool.busy.partition_point(|j| *j < job);
                next.pool.busy.insert(pos, job);
                out.push(SysAction::Lease(job));
            }
        }
        SysEvent::Finish(job) => {
            if let Some(pos) = next.pool.busy.iter().position(|j| *j == job) {
                next.pool.busy.remove(pos);
                next.pool.done.push(job);
                next.pool.wake = true;
                out.push(SysAction::Post(job));
            }
        }
        SysEvent::Deliver => {
            if next.pool.wake && !next.pool.done.is_empty() {
                let job = next.pool.done.remove(0);
                let sess = &next.sessions[usize::from(job.session)];
                match completion_disposition(sess, job.slot) {
                    CompletionDisposition::Deliver => {
                        step_session(
                            &mut next,
                            job.session,
                            Event::Completion(job.slot),
                            &mut out,
                        );
                    }
                    CompletionDisposition::DropStale => out.push(SysAction::Drop(job)),
                }
                // The engine re-arms the wakeup only if the drain left
                // completions behind.
                next.pool.wake = !next.pool.done.is_empty();
            }
        }
        SysEvent::Shutdown => {
            if next.pool.open {
                next.pool.open = false;
                next.swept = true;
                for i in 0..next.sessions.len() {
                    if !next.sessions[i].closed {
                        let i8 = u8::try_from(i).unwrap_or(u8::MAX);
                        step_session(&mut next, i8, Event::ShutdownSweep, &mut out);
                    }
                }
            }
        }
    }
    (next, out)
}

/// The cross-session event alphabet: the session-local projection plus
/// the pool's own moves. See the module docs for why the client
/// alphabet is restricted.
const CLIENT_EVENTS: [Event; 4] = [
    Event::FrameQuery,
    Event::FrameBye,
    Event::WriteDrained,
    Event::Disconnect,
];

/// Every event with any effect in `state` — the checker's branching
/// fan-out. Mirrors the guards in [`system_step`] so disabled events
/// are not explored as stutters.
#[must_use]
pub fn enabled_events(state: &SystemState) -> Vec<SysEvent> {
    let mut evs = Vec::new();
    for (i, s) in state.sessions.iter().enumerate() {
        if s.closed {
            continue;
        }
        let i8 = u8::try_from(i).unwrap_or(u8::MAX);
        for ev in CLIENT_EVENTS {
            // Reuse the protocol's own enabledness so the projection
            // stays honest about ordering (e.g. no queries mid-drain).
            if protocol::enabled_events(s).contains(&ev) {
                evs.push(SysEvent::Client(i8, ev));
            }
        }
    }
    if !state.pool.queue.is_empty() && state.pool.busy.len() < usize::from(state.pool.workers) {
        evs.push(SysEvent::Pickup);
    }
    for job in &state.pool.busy {
        evs.push(SysEvent::Finish(*job));
    }
    if state.pool.wake && !state.pool.done.is_empty() {
        evs.push(SysEvent::Deliver);
    }
    if state.pool.open {
        evs.push(SysEvent::Shutdown);
    }
    evs
}

/// Rewrite every session index in `state` through `perm` (old index →
/// new index) and reorder the session vector to match. Queue and done
/// keep their FIFO order; `busy` is re-sorted (it is a multiset).
#[must_use]
pub fn apply_permutation(state: &SystemState, perm: &[u8]) -> SystemState {
    let n = state.sessions.len();
    let mut sessions = state.sessions.clone();
    for (old, s) in state.sessions.iter().enumerate() {
        sessions[usize::from(perm[old])] = *s;
    }
    let remap = |j: Job| Job {
        session: perm[usize::from(j.session)],
        slot: j.slot,
    };
    let mut pool = state.pool.clone();
    for t in &mut pool.queue {
        t.session = perm[usize::from(t.session)];
    }
    for j in &mut pool.busy {
        *j = remap(*j);
    }
    pool.busy.sort_unstable();
    for j in &mut pool.done {
        *j = remap(*j);
    }
    debug_assert_eq!(sessions.len(), n);
    SystemState {
        sessions,
        pool,
        swept: state.swept,
    }
}

/// Generate all permutations of `0..n` (n ≤ 6 in practice; the checker
/// caps sessions well below that).
fn permutations(n: u8) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut items: Vec<u8> = (0..n).collect();
    heap_permute(&mut items, n as usize, &mut out);
    out
}

fn heap_permute(items: &mut Vec<u8>, k: usize, out: &mut Vec<Vec<u8>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// The canonical representative of `state`'s symmetry orbit: the
/// minimum (by `Ord`) over all session permutations. Keying the visited
/// set on this is sound because `system_step` commutes with
/// permutation (established by proptest in `tests/system_properties.rs`).
#[must_use]
pub fn canonicalize(state: &SystemState) -> SystemState {
    let n = u8::try_from(state.sessions.len()).unwrap_or(0);
    let mut best: Option<SystemState> = None;
    for perm in permutations(n) {
        let candidate = apply_permutation(state, &perm);
        match &best {
            Some(b) if *b <= candidate => {}
            _ => best = Some(candidate),
        }
    }
    best.unwrap_or_else(|| state.clone())
}

/// One property violation: the diagnostic plus the minimal event trace
/// (BFS order) that reaches it from the initial state.
#[derive(Debug, Clone)]
pub struct SysViolation {
    /// What broke, rendered through the shared diagnostic machinery.
    pub diagnostic: Diagnostic,
    /// The events from the initial state to the violating state. For a
    /// lasso violation the trace reaches the cycle entry; the cycle
    /// itself is described in the diagnostic detail.
    pub trace: Vec<SysEvent>,
}

/// Exploration statistics, reported by `csqp-check --system` and logged
/// to `BENCH_check.json`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SysSearchStats {
    /// Distinct states visited (canonical forms when symmetry is on).
    pub states: u64,
    /// Transitions taken.
    pub transitions: u64,
    /// Depth reached (BFS layers).
    pub depth: u32,
    /// Largest BFS frontier observed.
    pub peak_frontier: u64,
}

/// Render one trace for a diagnostic detail string.
fn render_trace(trace: &[SysEvent]) -> String {
    if trace.is_empty() {
        return "at the initial state".to_string();
    }
    let steps: Vec<String> = trace.iter().map(|e| e.to_string()).collect();
    format!("after [{}]", steps.join(" -> "))
}

/// Bounded-exhaustive BFS over the composed machine, with optional
/// symmetry reduction and a bounded-lasso liveness pass.
#[derive(Debug, Clone, Copy)]
pub struct SystemChecker {
    /// Number of session machines (symmetric start).
    pub sessions: u8,
    /// Pipeline window per session. 1 keeps the product tractable; the
    /// per-session checker covers wide windows.
    pub window: u8,
    /// Admission-queue bound.
    pub queue_capacity: u8,
    /// Worker-pool size.
    pub workers: u8,
    /// BFS depth bound.
    pub depth: u32,
    /// Key the visited set on canonical forms.
    pub symmetry: bool,
    /// Stop after this many violations.
    pub max_violations: usize,
}

impl Default for SystemChecker {
    fn default() -> Self {
        SystemChecker {
            sessions: 3,
            window: 1,
            queue_capacity: 2,
            workers: 2,
            depth: 10,
            symmetry: true,
            max_violations: 8,
        }
    }
}

impl SystemChecker {
    /// Check every safety property of `state`, returning the broken
    /// ones. Pure and per-state; the lasso pass handles liveness.
    fn check_state(&self, state: &SystemState, trace: &[SysEvent]) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let where_ = render_trace(trace);
        // Pool bounds.
        if state.pool.busy.len() > usize::from(state.pool.workers) {
            out.push(Diagnostic::new(
                DiagCode::SystemWorkerLeak,
                format!(
                    "{} workers leased but the pool has {} ({where_})",
                    state.pool.busy.len(),
                    state.pool.workers
                ),
            ));
        }
        if state.pool.queue.len() > usize::from(state.pool.capacity) {
            out.push(Diagnostic::new(
                DiagCode::SystemWorkerLeak,
                format!(
                    "admission queue holds {} jobs over capacity {} ({where_})",
                    state.pool.queue.len(),
                    state.pool.capacity
                ),
            ));
        }
        // Worker conservation: each in-flight slot of a live session is
        // backed by exactly one job across queue ∪ busy ∪ done.
        let mut backing: BTreeMap<Job, u32> = BTreeMap::new();
        for t in &state.pool.queue {
            *backing
                .entry(Job {
                    session: t.session,
                    slot: t.slot,
                })
                .or_insert(0) += 1;
        }
        for j in state.pool.busy.iter().chain(state.pool.done.iter()) {
            *backing.entry(*j).or_insert(0) += 1;
        }
        for (i, s) in state.sessions.iter().enumerate() {
            // A poisoned or closed session's jobs are intentionally
            // orphaned: the engine drops their completions as stale.
            if s.closed || s.poisoned {
                continue;
            }
            let i8 = u8::try_from(i).unwrap_or(u8::MAX);
            for slot in 0..protocol::MAX_SERIALS {
                if !s.is_inflight(slot) {
                    continue;
                }
                // A slot whose submit verdict is still pending has no
                // job yet by design.
                if s.pending_submit == Some(slot) {
                    continue;
                }
                let n = backing
                    .get(&Job { session: i8, slot })
                    .copied()
                    .unwrap_or(0);
                if n != 1 {
                    out.push(Diagnostic::new(
                        DiagCode::SystemWorkerLeak,
                        format!(
                            "session {i8} slot {slot} is in flight but backed by \
                             {n} jobs across queue/busy/done ({where_})"
                        ),
                    ));
                }
            }
        }
        // Bounded overtake.
        for t in &state.pool.queue {
            if t.overtaken > MAX_OVERTAKE {
                out.push(Diagnostic::new(
                    DiagCode::SystemStarvation,
                    format!(
                        "session {} slot {} was overtaken {} times in the \
                         admission queue (bound {MAX_OVERTAKE}) ({where_})",
                        t.session, t.slot, t.overtaken
                    ),
                ));
            }
        }
        // Sweep completeness.
        if state.swept {
            for (i, s) in state.sessions.iter().enumerate() {
                if !s.closed {
                    out.push(Diagnostic::new(
                        DiagCode::SystemSweepIncomplete,
                        format!("session {i} still open after the shutdown sweep ({where_})"),
                    ));
                }
            }
        }
        out
    }

    /// Explore the composed machine driven by `stepper` and report
    /// every violation found within the depth bound.
    #[must_use]
    pub fn run(&self, stepper: SysStepper) -> (Vec<SysViolation>, SysSearchStats) {
        let initial = SystemState::new(
            self.sessions,
            self.window,
            self.queue_capacity,
            self.workers,
        );
        let mut stats = SysSearchStats::default();
        let mut violations: Vec<SysViolation> = Vec::new();
        let mut visited: BTreeSet<SystemState> = BTreeSet::new();
        // Lasso bookkeeping: the set of *bad* states (completion posted
        // but delivery disabled) and the edges among them. Every state
        // also carries an implicit environment-stutter self-loop (the
        // system may simply do nothing), so membership in the bad set
        // alone witnesses a lasso — but we keep the edge relation so a
        // future strengthening to "eventually delivered within k" can
        // reuse it.
        let mut bad_states: BTreeSet<SystemState> = BTreeSet::new();

        let key = |s: &SystemState, symmetry: bool| {
            if symmetry {
                canonicalize(s)
            } else {
                s.clone()
            }
        };

        let mut frontier: VecDeque<(SystemState, Vec<SysEvent>)> = VecDeque::new();
        visited.insert(key(&initial, self.symmetry));
        stats.states = 1;
        for d in self.check_state(&initial, &[]) {
            violations.push(SysViolation {
                diagnostic: d,
                trace: Vec::new(),
            });
        }
        frontier.push_back((initial, Vec::new()));

        let mut depth = 0u32;
        while !frontier.is_empty() && depth < self.depth && violations.len() < self.max_violations {
            stats.peak_frontier = stats.peak_frontier.max(frontier.len() as u64);
            let mut next_frontier: VecDeque<(SystemState, Vec<SysEvent>)> = VecDeque::new();
            while let Some((state, trace)) = frontier.pop_front() {
                if violations.len() >= self.max_violations {
                    break;
                }
                for ev in enabled_events(&state) {
                    let (succ, _actions) = stepper(&state, ev);
                    stats.transitions += 1;
                    let k = key(&succ, self.symmetry);
                    if !visited.insert(k) {
                        continue;
                    }
                    stats.states += 1;
                    let mut t = trace.clone();
                    t.push(ev);
                    let diags = self.check_state(&succ, &t);
                    for d in diags {
                        violations.push(SysViolation {
                            diagnostic: d,
                            trace: t.clone(),
                        });
                        if violations.len() >= self.max_violations {
                            break;
                        }
                    }
                    // Lost-wakeup bad set: a completion is waiting but
                    // delivery is disabled. With the implicit stutter
                    // self-loop, reaching such a state at all is a
                    // lasso; record it and report after the search so
                    // the shortest witness wins.
                    if !succ.pool.done.is_empty()
                        && !succ.pool.wake
                        && bad_states.insert(key(&succ, self.symmetry))
                        && bad_states.len() == 1
                    {
                        violations.push(SysViolation {
                            diagnostic: Diagnostic::new(
                                DiagCode::SystemLostWakeup,
                                format!(
                                    "{} completion(s) sit in the channel with the \
                                     wakeup flag down: delivery is disabled and the \
                                     system can stutter here forever ({})",
                                    succ.pool.done.len(),
                                    render_trace(&t)
                                ),
                            ),
                            trace: t.clone(),
                        });
                    }
                    next_frontier.push_back((succ, t));
                }
            }
            frontier = next_frontier;
            if !frontier.is_empty() {
                depth += 1;
            }
        }
        stats.depth = depth;
        (violations, stats)
    }

    /// Run against the real [`system_step`] and fold the result into a
    /// [`Report`], protocol-checker style.
    #[must_use]
    pub fn report(&self) -> (Report, SysSearchStats) {
        let (violations, stats) = self.run(system_step);
        let mut report = Report::new();
        for v in violations {
            report.push(v.diagnostic);
        }
        (report, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> SystemChecker {
        SystemChecker::default()
    }

    #[test]
    fn real_system_is_clean_at_ci_depth() {
        let (report, stats) = checker().report();
        assert!(
            report.is_clean(),
            "real system machine violated a property: {report:?}"
        );
        assert!(stats.states > 100, "suspiciously small search: {stats:?}");
    }

    #[test]
    fn real_system_is_clean_without_symmetry_too() {
        let mut c = checker();
        c.symmetry = false;
        let (violations, stats) = c.run(system_step);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(stats.states > 100);
    }

    #[test]
    fn symmetry_reduction_shrinks_the_visited_set() {
        let with = checker();
        let mut without = checker();
        without.symmetry = false;
        let (_, s1) = with.run(system_step);
        let (_, s2) = without.run(system_step);
        assert!(
            s1.states < s2.states,
            "symmetry did not shrink the search: {} vs {}",
            s1.states,
            s2.states
        );
    }

    #[test]
    fn submit_outcome_prefers_pool_gone() {
        assert_eq!(submit_outcome(true, true), SubmitOutcome::PoolGone);
        assert_eq!(submit_outcome(true, false), SubmitOutcome::QueueFull);
        assert_eq!(submit_outcome(false, false), SubmitOutcome::Admitted);
    }

    #[test]
    fn stale_completion_is_dropped() {
        let s = SessionModel::new(1);
        // Fresh session: slot 0 not in flight.
        assert_eq!(
            completion_disposition(&s, 0),
            CompletionDisposition::DropStale
        );
    }

    // ---- seeded mutants: each property must catch its bug -------------

    /// Mutant: LIFO pickup — leases the *newest* ticket, starving the
    /// queue head.
    fn lifo_pickup_mutant(state: &SystemState, event: SysEvent) -> (SystemState, Vec<SysAction>) {
        if event == SysEvent::Pickup {
            let mut next = state.clone();
            let mut out = Vec::new();
            if !next.pool.queue.is_empty() && next.pool.busy.len() < usize::from(next.pool.workers)
            {
                let last = next.pool.queue.len() - 1;
                let t = take_ticket(&mut next.pool, last);
                let job = Job {
                    session: t.session,
                    slot: t.slot,
                };
                let pos = next.pool.busy.partition_point(|j| *j < job);
                next.pool.busy.insert(pos, job);
                out.push(SysAction::Lease(job));
            }
            return (next, out);
        }
        system_step(state, event)
    }

    #[test]
    fn mutant_lifo_pickup_is_caught_as_starvation() {
        let mut c = checker();
        c.depth = 14;
        let (violations, _) = c.run(lifo_pickup_mutant);
        let starved: Vec<&SysViolation> = violations
            .iter()
            .filter(|v| v.diagnostic.code == DiagCode::SystemStarvation)
            .collect();
        assert!(
            !starved.is_empty(),
            "LIFO mutant not caught: {violations:?}"
        );
        // BFS order: the first witness is minimal.
        assert!(
            starved[0].trace.len() <= 14,
            "trace not minimal-ish: {:?}",
            starved[0].trace
        );
    }

    /// Mutant: a worker finishes but the completion is dropped on the
    /// floor — the slot leaks forever.
    fn swallow_finish_mutant(
        state: &SystemState,
        event: SysEvent,
    ) -> (SystemState, Vec<SysAction>) {
        if let SysEvent::Finish(job) = event {
            let mut next = state.clone();
            if let Some(pos) = next.pool.busy.iter().position(|j| *j == job) {
                next.pool.busy.remove(pos);
                // Bug: no push to `done`, no wake, no Post action.
            }
            return (next, Vec::new());
        }
        system_step(state, event)
    }

    #[test]
    fn mutant_swallowed_completion_is_caught_as_worker_leak() {
        let (violations, _) = checker().run(swallow_finish_mutant);
        let leak = violations
            .iter()
            .find(|v| v.diagnostic.code == DiagCode::SystemWorkerLeak);
        let leak = leak.unwrap_or_else(|| panic!("swallow mutant not caught: {violations:?}"));
        // query -> pickup -> finish is the shortest witness.
        assert!(leak.trace.len() <= 3, "not minimal: {:?}", leak.trace);
    }

    /// Mutant: the completion is posted but the poll loop is never
    /// woken — the classic lost wakeup.
    fn no_wake_mutant(state: &SystemState, event: SysEvent) -> (SystemState, Vec<SysAction>) {
        if let SysEvent::Finish(job) = event {
            let mut next = state.clone();
            let mut out = Vec::new();
            if let Some(pos) = next.pool.busy.iter().position(|j| *j == job) {
                next.pool.busy.remove(pos);
                next.pool.done.push(job);
                // Bug: `wake` stays false.
                out.push(SysAction::Post(job));
            }
            return (next, out);
        }
        system_step(state, event)
    }

    #[test]
    fn mutant_missing_wakeup_is_caught_as_lost_wakeup() {
        let (violations, _) = checker().run(no_wake_mutant);
        let lost = violations
            .iter()
            .find(|v| v.diagnostic.code == DiagCode::SystemLostWakeup);
        let lost = lost.unwrap_or_else(|| panic!("no-wake mutant not caught: {violations:?}"));
        assert!(lost.trace.len() <= 3, "not minimal: {:?}", lost.trace);
    }

    /// Mutant: the shutdown sweep skips the highest-index session.
    fn partial_sweep_mutant(state: &SystemState, event: SysEvent) -> (SystemState, Vec<SysAction>) {
        if event == SysEvent::Shutdown {
            let mut next = state.clone();
            let mut out = Vec::new();
            if next.pool.open {
                next.pool.open = false;
                next.swept = true;
                let n = next.sessions.len();
                for i in 0..n.saturating_sub(1) {
                    // Bug: `..n - 1` leaves the last session open.
                    if !next.sessions[i].closed {
                        let i8 = u8::try_from(i).unwrap_or(u8::MAX);
                        let (s, acts) = protocol::step(&next.sessions[i], Event::ShutdownSweep);
                        next.sessions[i] = s;
                        for a in acts {
                            out.push(SysAction::Session(i8, a));
                        }
                    }
                }
            }
            return (next, out);
        }
        system_step(state, event)
    }

    #[test]
    fn mutant_partial_sweep_is_caught_as_sweep_incomplete() {
        let (violations, _) = checker().run(partial_sweep_mutant);
        let missed = violations
            .iter()
            .find(|v| v.diagnostic.code == DiagCode::SystemSweepIncomplete);
        let missed =
            missed.unwrap_or_else(|| panic!("partial-sweep mutant not caught: {violations:?}"));
        // Shutdown from the initial state is the shortest witness.
        assert_eq!(missed.trace.len(), 1, "not minimal: {:?}", missed.trace);
    }

    // ---- symmetry machinery ------------------------------------------

    #[test]
    fn canonicalize_is_idempotent() {
        let st = SystemState::new(3, 1, 2, 2);
        let c = canonicalize(&st);
        assert_eq!(canonicalize(&c), c);
    }

    #[test]
    fn canonicalize_collapses_a_permuted_state() {
        let st = SystemState::new(3, 1, 2, 2);
        // Make it asymmetric: session 0 submits a query.
        let (st, _) = system_step(&st, SysEvent::Client(0, Event::FrameQuery));
        let permuted = apply_permutation(&st, &[2, 0, 1]);
        assert_ne!(st, permuted, "permutation should move an asymmetric state");
        assert_eq!(canonicalize(&st), canonicalize(&permuted));
    }

    #[test]
    fn permutation_identity_is_a_noop() {
        let st = SystemState::new(3, 1, 2, 2);
        let (st, _) = system_step(&st, SysEvent::Client(1, Event::FrameQuery));
        assert_eq!(apply_permutation(&st, &[0, 1, 2]), st);
    }
}
