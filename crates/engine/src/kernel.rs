//! The execution kernel: drives operator processes against the simulated
//! CPU, disk and network resources.
//!
//! The kernel owns the future event list, one CPU queue and one disk per
//! site, the shared network link, all inter-operator channels, and the
//! send pipelines of remote channels (the paper's network operator
//! pairs). It runs until the display operator finishes — response time is
//! "the elapsed time from the initiation of query execution until the
//! time that the last tuple of the query result is displayed at the
//! client" (§3.1.2).
//!
//! Per-event work is kept small without changing which events happen
//! or when (DESIGN.md §18, §19): each process keeps one reused action
//! buffer, and the per-page send/receive CPU time of the transfer
//! pipeline is computed once per engine, by the expression each page
//! used to evaluate, so it has the same bits.

use csqp_catalog::{SiteId, SystemConfig};
use csqp_disk::{Disk, DiskParams, DiskRequest, IoKind};
use csqp_net::{Link, MsgKind};
use csqp_simkernel::{EventQueue, FifoServer, SimDuration, SimTime};

use crate::channel::Channel;
use crate::process::{Action, ChannelId, OperatorProc, Page, ProcId, ResumeInput};

/// Safety valve: a benchmark query needs well under a million events, so
/// hitting this means a livelock bug.
const MAX_EVENTS: u64 = 200_000_000;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Resume(ProcId),
    CpuDone(usize),
    DiskDone(usize),
    WireDone,
    SleepDone(ProcId),
}

#[derive(Debug, Clone, Copy)]
enum CpuToken {
    Proc(ProcId),
    TransferSend(usize),
    TransferRecv(usize),
}

#[derive(Debug, Clone, Copy)]
enum DiskToken {
    Sync(ProcId),
    Async(ProcId),
    Detached,
}

#[derive(Debug, Clone, Copy)]
enum WireToken {
    Proc(ProcId),
    Transfer(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Blocked {
    /// Runnable (actions pending or ready to resume).
    No,
    /// A Resume event is in flight; ignore other wakeups.
    Scheduled,
    Cpu,
    Disk,
    Wire,
    Sleep,
    Emit,
    Input,
    Drain,
    Done,
}

/// Where one operator's time went while it was parked.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaitBreakdown {
    /// Waiting for a CPU grant.
    pub cpu: SimDuration,
    /// Waiting for a synchronous disk I/O.
    pub disk: SimDuration,
    /// Waiting for the wire (fault RPC legs).
    pub wire: SimDuration,
    /// Waiting for input from the producer.
    pub input: SimDuration,
    /// Blocked on a full output channel (back-pressure).
    pub emit: SimDuration,
    /// Draining write-behind I/O.
    pub drain: SimDuration,
    /// Deliberate sleep (load generators).
    pub sleep: SimDuration,
}

impl WaitBreakdown {
    fn add(&mut self, b: Blocked, d: SimDuration) {
        match b {
            Blocked::Cpu => self.cpu += d,
            Blocked::Disk => self.disk += d,
            Blocked::Wire => self.wire += d,
            Blocked::Input => self.input += d,
            Blocked::Emit => self.emit += d,
            Blocked::Drain => self.drain += d,
            Blocked::Sleep => self.sleep += d,
            Blocked::No | Blocked::Scheduled | Blocked::Done => {}
        }
    }
}

/// Per-operator report after a run.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// The operator's diagnostic label.
    pub label: String,
    /// Time parked, by cause.
    pub waits: WaitBreakdown,
}

struct ProcSlot {
    op: Box<dyn OperatorProc>,
    /// The current batch, reused across resumes; `actions[cursor..]`
    /// are still to run.
    actions: Vec<Action>,
    cursor: usize,
    blocked: Blocked,
    blocked_since: SimTime,
    waits: WaitBreakdown,
    outstanding_writes: usize,
    next_input: ResumeInput,
}

struct Transfer {
    channel: usize,
    page: Page,
}

/// The engine: processes + resources + event loop.
pub struct Engine {
    config: SystemConfig,
    /// CPU time to send or receive one data page (`MsgInst` +
    /// `PerSizeMI`), charged at both ends of every pipelined transfer.
    page_msg_service: SimDuration,
    events: EventQueue<Ev>,
    procs: Vec<ProcSlot>,
    channels: Vec<Channel>,
    cpus: Vec<FifoServer<CpuToken>>,
    disks: Vec<Disk<DiskToken>>,
    link: Link<WireToken>,
    transfers: Vec<Option<Transfer>>,
    free_transfers: Vec<usize>,
    /// Display processes: the run ends when all of them are done
    /// (multi-query workloads register several).
    displays: Vec<ProcId>,
    display_done: Vec<Option<SimTime>>,
    finished_at: Option<SimTime>,
    events_handled: u64,
}

impl Engine {
    /// An engine for `num_sites` sites (client + servers), all disks
    /// sharing `disk_params`.
    pub fn new(config: SystemConfig, disk_params: &DiskParams, num_sites: usize) -> Engine {
        let page_msg_instr = config.msg_cpu_instr(config.page_size as u64);
        Engine {
            page_msg_service: SimDuration::from_secs_f64(config.cpu_secs(page_msg_instr)),
            link: Link::new(&config),
            config,
            events: EventQueue::new(),
            procs: Vec::new(),
            channels: Vec::new(),
            cpus: (0..num_sites).map(|_| FifoServer::new()).collect(),
            disks: (0..num_sites)
                .map(|_| Disk::new(disk_params.clone()))
                .collect(),
            transfers: Vec::new(),
            free_transfers: Vec::new(),
            displays: Vec::new(),
            display_done: Vec::new(),
            finished_at: None,
            events_handled: 0,
        }
    }

    /// Register a channel between sites; returns its id.
    pub fn add_channel(&mut self, from: SiteId, to: SiteId) -> ChannelId {
        self.channels.push(Channel::new(from, to));
        ChannelId(self.channels.len() - 1)
    }

    /// Register a process; returns its id. The process whose completion
    /// ends the run (the display) must be registered via
    /// [`Engine::add_display_proc`].
    pub fn add_proc(&mut self, op: Box<dyn OperatorProc>) -> ProcId {
        self.procs.push(ProcSlot {
            op,
            actions: Vec::new(),
            cursor: 0,
            blocked: Blocked::No,
            blocked_since: SimTime::ZERO,
            waits: WaitBreakdown::default(),
            outstanding_writes: 0,
            next_input: ResumeInput::None,
        });
        self.procs.len() - 1
    }

    /// Register a display process. The run ends when every registered
    /// display has finished; multi-query workloads register one per
    /// query.
    pub fn add_display_proc(&mut self, op: Box<dyn OperatorProc>) -> ProcId {
        let id = self.add_proc(op);
        self.displays.push(id);
        self.display_done.push(None);
        id
    }

    /// Run to completion; returns the response time of the *last* query
    /// to finish (per-query times via [`Engine::display_finish_times`]).
    pub fn run(&mut self) -> SimDuration {
        assert!(!self.displays.is_empty(), "no display process registered");
        for p in 0..self.procs.len() {
            self.procs[p].blocked = Blocked::Scheduled;
            self.procs[p].blocked_since = SimTime::ZERO;
            self.events.schedule(SimTime::ZERO, Ev::Resume(p));
        }
        let mut handled: u64 = 0;
        while let Some((_, ev)) = self.events.pop() {
            handled += 1;
            assert!(handled < MAX_EVENTS, "event cap exceeded: livelock?");
            match ev {
                Ev::Resume(p) => {
                    debug_assert_eq!(self.procs[p].blocked, Blocked::Scheduled);
                    self.wake(p, Blocked::No);
                    self.advance(p);
                }
                Ev::SleepDone(p) => {
                    debug_assert_eq!(self.procs[p].blocked, Blocked::Sleep);
                    self.wake(p, Blocked::No);
                    self.advance(p);
                }
                Ev::CpuDone(site) => self.on_cpu_done(site),
                Ev::DiskDone(site) => self.on_disk_done(site),
                Ev::WireDone => self.on_wire_done(),
            }
            // One completion per CPU, disk and the link, and one resume
            // or wake-up per process: the bound the event list's
            // linear insert relies on.
            debug_assert!(
                self.events.len() <= self.procs.len() + 2 * self.cpus.len() + 1,
                "{} events pending for {} processes and {} sites",
                self.events.len(),
                self.procs.len(),
                self.cpus.len()
            );
            if self.finished_at.is_some() {
                break;
            }
        }
        self.events_handled = handled;
        let end = self.finished_at.unwrap_or_else(|| {
            panic!(
                "simulation deadlocked at {:?}: {}",
                self.events.now(),
                self.diagnose()
            )
        });
        end.since(SimTime::ZERO)
    }

    fn diagnose(&self) -> String {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.blocked != Blocked::Done)
            .map(|(i, s)| format!("proc {i} ({}) {:?}", s.op.label(), s.blocked))
            .collect::<Vec<_>>()
            .join("; ")
    }

    /// Events the kernel dispatched during the last [`Engine::run`]:
    /// the simulator-throughput denominator `csqp-bench --sim` divides
    /// wall time by.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.events.now()
    }

    /// Finish time of each registered display, in registration order.
    /// `None` entries mean the run has not completed (or deadlocked).
    pub fn display_finish_times(&self) -> Vec<Option<SimDuration>> {
        self.display_done
            .iter()
            .map(|t| t.map(|t| t.since(SimTime::ZERO)))
            .collect()
    }

    /// Snapshot of the wire-traffic counters, as one typed record.
    pub fn link_stats(&self) -> csqp_net::LinkStats {
        self.link.stats()
    }

    /// Wire utilization over the run so far.
    pub fn link_utilization(&self) -> f64 {
        self.link.utilization(self.events.now())
    }

    /// Disk statistics of a site.
    pub fn disk_stats(&self, site: SiteId) -> csqp_disk::disk::DiskStats {
        self.disks[site.index()].stats()
    }

    /// CPU busy time of a site.
    pub fn cpu_busy(&self, site: SiteId) -> SimDuration {
        self.cpus[site.index()].busy_time()
    }

    /// Park `p` in state `b`, stamping the wait start.
    fn park(&mut self, p: ProcId, b: Blocked) {
        self.procs[p].blocked = b;
        self.procs[p].blocked_since = self.events.now();
    }

    /// Wake `p` (to runnable or to Scheduled), accounting the wait.
    fn wake(&mut self, p: ProcId, to: Blocked) {
        let was = self.procs[p].blocked;
        let since = self.procs[p].blocked_since;
        let d = self.events.now().since(since);
        self.procs[p].waits.add(was, d);
        self.procs[p].blocked = to;
        if to == Blocked::Scheduled {
            self.procs[p].blocked_since = self.events.now();
        }
    }

    /// Execute `p`'s pending actions until it blocks; refill the batch
    /// from the operator whenever it runs out.
    fn advance(&mut self, p: ProcId) {
        if self.procs[p].blocked != Blocked::No {
            return; // spurious wakeup
        }
        loop {
            let slot = &mut self.procs[p];
            let Some(&action) = slot.actions.get(slot.cursor) else {
                let input = std::mem::replace(&mut slot.next_input, ResumeInput::None);
                slot.actions.clear();
                slot.cursor = 0;
                slot.op.resume(input, &mut slot.actions);
                let batch = &slot.actions;
                assert!(
                    !batch.is_empty(),
                    "operator {} returned an empty batch",
                    slot.op.label()
                );
                for (i, a) in batch.iter().enumerate() {
                    if matches!(a, Action::AwaitInput { .. }) {
                        assert_eq!(
                            i,
                            batch.len() - 1,
                            "AwaitInput must end its batch ({})",
                            slot.op.label()
                        );
                    }
                }
                continue;
            };
            slot.cursor += 1;
            if let Some(block) = self.execute(p, action) {
                self.park(p, block);
                return;
            }
        }
    }

    /// Per-operator wait breakdowns, in registration order.
    pub fn proc_reports(&self) -> Vec<ProcReport> {
        self.procs
            .iter()
            .map(|s| ProcReport {
                label: s.op.label(),
                waits: s.waits,
            })
            .collect()
    }

    /// Execute one action for `p`; `Some(block)` parks the process.
    fn execute(&mut self, p: ProcId, action: Action) -> Option<Blocked> {
        let now = self.events.now();
        match action {
            Action::Cpu { site, instr } => {
                let service = SimDuration::from_secs_f64(self.config.cpu_secs(instr));
                if let Some(fin) = self.cpus[site.index()].submit(now, CpuToken::Proc(p), service) {
                    self.events.schedule(fin, Ev::CpuDone(site.index()));
                }
                Some(Blocked::Cpu)
            }
            Action::DiskRead { site, addr } => {
                self.submit_disk(site, addr, IoKind::Read, DiskToken::Sync(p));
                Some(Blocked::Disk)
            }
            Action::DiskWrite { site, addr } => {
                self.submit_disk(site, addr, IoKind::Write, DiskToken::Sync(p));
                Some(Blocked::Disk)
            }
            Action::DiskWriteAsync { site, addr } => {
                self.procs[p].outstanding_writes += 1;
                self.submit_disk(site, addr, IoKind::Write, DiskToken::Async(p));
                None
            }
            Action::DiskReadAsync { site, addr } => {
                self.submit_disk(site, addr, IoKind::Read, DiskToken::Detached);
                None
            }
            Action::DrainWrites => {
                if self.procs[p].outstanding_writes == 0 {
                    None
                } else {
                    Some(Blocked::Drain)
                }
            }
            Action::Wire { bytes, data_page } => {
                let kind = if data_page {
                    MsgKind::DataPage
                } else {
                    MsgKind::Control
                };
                if let Some(fin) = self.link.submit(now, WireToken::Proc(p), bytes, kind) {
                    self.events.schedule(fin, Ev::WireDone);
                }
                Some(Blocked::Wire)
            }
            Action::Emit { channel, page } => {
                if self.try_emit(channel.0, page) {
                    None
                } else {
                    let ch = &mut self.channels[channel.0];
                    debug_assert!(ch.blocked_producer.is_none(), "one producer per channel");
                    ch.blocked_producer = Some((p, page));
                    Some(Blocked::Emit)
                }
            }
            Action::Close { channel } => {
                let ch = &mut self.channels[channel.0];
                debug_assert!(!ch.closed, "double close");
                ch.closed = true;
                self.service_waiting_consumer(channel.0);
                None
            }
            Action::AwaitInput { channel } => {
                debug_assert!(
                    self.procs[p].cursor == self.procs[p].actions.len(),
                    "AwaitInput must end its batch"
                );
                let ch = &mut self.channels[channel.0];
                if let Some(page) = ch.queue.pop_front() {
                    // Parked only until the just-scheduled Resume fires.
                    self.procs[p].next_input = ResumeInput::Page(page);
                    self.events.schedule(now, Ev::Resume(p));
                    self.refill_channel(channel.0);
                    Some(Blocked::Scheduled)
                } else if ch.at_eos() {
                    self.procs[p].next_input = ResumeInput::EndOfStream;
                    self.events.schedule(now, Ev::Resume(p));
                    Some(Blocked::Scheduled)
                } else {
                    debug_assert!(ch.waiting_consumer.is_none(), "one consumer per channel");
                    ch.waiting_consumer = Some(p);
                    Some(Blocked::Input)
                }
            }
            Action::Sleep { dur } => {
                self.events.schedule(now + dur, Ev::SleepDone(p));
                Some(Blocked::Sleep)
            }
            Action::Done => {
                if let Some(i) = self.displays.iter().position(|&d| d == p) {
                    self.display_done[i] = Some(now);
                    if self.display_done.iter().all(Option::is_some) {
                        self.finished_at = Some(now);
                    }
                }
                Some(Blocked::Done)
            }
        }
    }

    fn submit_disk(
        &mut self,
        site: SiteId,
        addr: csqp_disk::DiskAddr,
        kind: IoKind,
        token: DiskToken,
    ) {
        let now = self.events.now();
        if let Some(fin) = self.disks[site.index()].submit(now, DiskRequest { addr, kind, token }) {
            self.events.schedule(fin, Ev::DiskDone(site.index()));
        }
    }

    /// Attempt to emit into a channel; true when accepted.
    fn try_emit(&mut self, ch_idx: usize, page: Page) -> bool {
        if !self.channels[ch_idx].has_space() {
            return false;
        }
        if let Some((from, _)) = self.channels[ch_idx].remote {
            // Launch the send pipeline: sender CPU -> wire -> receiver CPU.
            self.channels[ch_idx].in_flight += 1;
            let tid = match self.free_transfers.pop() {
                Some(t) => {
                    self.transfers[t] = Some(Transfer {
                        channel: ch_idx,
                        page,
                    });
                    t
                }
                None => {
                    self.transfers.push(Some(Transfer {
                        channel: ch_idx,
                        page,
                    }));
                    self.transfers.len() - 1
                }
            };
            let now = self.events.now();
            if let Some(fin) = self.cpus[from.index()].submit(
                now,
                CpuToken::TransferSend(tid),
                self.page_msg_service,
            ) {
                self.events.schedule(fin, Ev::CpuDone(from.index()));
            }
        } else {
            self.channels[ch_idx].queue.push_back(page);
            self.service_waiting_consumer(ch_idx);
        }
        true
    }

    /// Hand a page (or EOS) to a parked consumer, if any.
    fn service_waiting_consumer(&mut self, ch_idx: usize) {
        let Some(c) = self.channels[ch_idx].waiting_consumer else {
            return;
        };
        if let Some(page) = self.channels[ch_idx].queue.pop_front() {
            self.channels[ch_idx].waiting_consumer = None;
            self.procs[c].next_input = ResumeInput::Page(page);
            self.wake(c, Blocked::Scheduled);
            let now = self.events.now();
            self.events.schedule(now, Ev::Resume(c));
            self.refill_channel(ch_idx);
        } else if self.channels[ch_idx].at_eos() {
            self.channels[ch_idx].waiting_consumer = None;
            self.procs[c].next_input = ResumeInput::EndOfStream;
            self.wake(c, Blocked::Scheduled);
            let now = self.events.now();
            self.events.schedule(now, Ev::Resume(c));
        }
    }

    /// Space freed in a channel: let a blocked producer emit.
    fn refill_channel(&mut self, ch_idx: usize) {
        if !self.channels[ch_idx].has_space() {
            return;
        }
        if let Some((p, page)) = self.channels[ch_idx].blocked_producer.take() {
            let accepted = self.try_emit(ch_idx, page);
            debug_assert!(accepted, "space was checked");
            self.wake(p, Blocked::Scheduled);
            let now = self.events.now();
            self.events.schedule(now, Ev::Resume(p));
        }
    }

    // Invariant panic: a `TransferRecv` token is only scheduled for a
    // transfer slot that is live until this very handler frees it.
    #[allow(clippy::expect_used)]
    fn on_cpu_done(&mut self, site: usize) {
        let (token, next) = self.cpus[site].finish_current(self.events.now());
        if let Some(fin) = next {
            self.events.schedule(fin, Ev::CpuDone(site));
        }
        match token {
            CpuToken::Proc(p) => {
                debug_assert_eq!(self.procs[p].blocked, Blocked::Cpu);
                self.wake(p, Blocked::No);
                self.advance(p);
            }
            CpuToken::TransferSend(tid) => {
                // Stage 2: the wire.
                let now = self.events.now();
                if let Some(fin) = self.link.submit(
                    now,
                    WireToken::Transfer(tid),
                    self.config.page_size as u64,
                    MsgKind::DataPage,
                ) {
                    self.events.schedule(fin, Ev::WireDone);
                }
            }
            CpuToken::TransferRecv(tid) => {
                // Stage 4: delivery at the consumer side.
                let t = self.transfers[tid].take().expect("live transfer");
                self.free_transfers.push(tid);
                let ch_idx = t.channel;
                self.channels[ch_idx].in_flight -= 1;
                self.channels[ch_idx].queue.push_back(t.page);
                self.service_waiting_consumer(ch_idx);
                self.refill_channel(ch_idx);
            }
        }
    }

    fn on_disk_done(&mut self, site: usize) {
        let (token, next) = self.disks[site].finish_current(self.events.now());
        if let Some(fin) = next {
            self.events.schedule(fin, Ev::DiskDone(site));
        }
        match token {
            DiskToken::Sync(p) => {
                debug_assert_eq!(self.procs[p].blocked, Blocked::Disk);
                self.wake(p, Blocked::No);
                self.advance(p);
            }
            DiskToken::Async(p) => {
                self.procs[p].outstanding_writes -= 1;
                if self.procs[p].outstanding_writes == 0 && self.procs[p].blocked == Blocked::Drain
                {
                    self.wake(p, Blocked::No);
                    self.advance(p);
                }
            }
            DiskToken::Detached => {}
        }
    }

    // Invariant panics: a `Transfer` wire token references a live slot,
    // and page transfers are created only for cross-site channels.
    #[allow(clippy::expect_used)]
    fn on_wire_done(&mut self) {
        let (token, next) = self.link.finish_current(self.events.now());
        if let Some(fin) = next {
            self.events.schedule(fin, Ev::WireDone);
        }
        match token {
            WireToken::Proc(p) => {
                debug_assert_eq!(self.procs[p].blocked, Blocked::Wire);
                self.wake(p, Blocked::No);
                self.advance(p);
            }
            WireToken::Transfer(tid) => {
                // Stage 3: receiver CPU.
                let to = {
                    let t = self.transfers[tid].as_ref().expect("live transfer");
                    self.channels[t.channel]
                        .remote
                        .expect("transfers only on remote channels")
                        .1
                };
                let now = self.events.now();
                if let Some(fin) = self.cpus[to.index()].submit(
                    now,
                    CpuToken::TransferRecv(tid),
                    self.page_msg_service,
                ) {
                    self.events.schedule(fin, Ev::CpuDone(to.index()));
                }
            }
        }
    }
}
