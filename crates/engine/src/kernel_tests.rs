//! Direct kernel tests with miniature operators: these exercise the
//! channel/flow-control/resource machinery without the full plan builder.

#![cfg(test)]

use csqp_catalog::{SiteId, SystemConfig};
use csqp_disk::{DiskAddr, DiskParams};
use csqp_simkernel::SimDuration;

use crate::kernel::Engine;
use crate::process::{Action, ChannelId, OperatorProc, Page, ResumeInput};

/// Emits `count` pages, each preceded by `cpu` instructions, then closes.
struct MiniProducer {
    site: SiteId,
    out: ChannelId,
    count: u64,
    cpu: u64,
    emitted: u64,
}

impl OperatorProc for MiniProducer {
    fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
        if self.emitted == self.count {
            out.extend([Action::Close { channel: self.out }, Action::Done]);
            return;
        }
        self.emitted += 1;
        out.extend([
            Action::Cpu {
                site: self.site,
                instr: self.cpu,
            },
            Action::Emit {
                channel: self.out,
                page: Page { tuples: 40 },
            },
        ]);
    }
    fn label(&self) -> String {
        "mini-producer".into()
    }
}

/// Consumes everything; acts as the display.
struct MiniConsumer {
    input: ChannelId,
    site: SiteId,
    cpu: u64,
    seen: std::rc::Rc<std::cell::Cell<u64>>,
    started: bool,
}

impl OperatorProc for MiniConsumer {
    fn resume(&mut self, input: ResumeInput, out: &mut Vec<Action>) {
        if !self.started {
            self.started = true;
            out.push(Action::AwaitInput {
                channel: self.input,
            });
            return;
        }
        match input {
            ResumeInput::Page(p) => {
                self.seen.set(self.seen.get() + p.tuples);
                out.extend([
                    Action::Cpu {
                        site: self.site,
                        instr: self.cpu,
                    },
                    Action::AwaitInput {
                        channel: self.input,
                    },
                ]);
            }
            ResumeInput::EndOfStream => out.push(Action::Done),
            ResumeInput::None => unreachable!(),
        }
    }
    fn label(&self) -> String {
        "mini-consumer".into()
    }
}

fn engine(sites: usize) -> Engine {
    Engine::new(SystemConfig::default(), &DiskParams::default(), sites)
}

fn pipe(
    from: SiteId,
    to: SiteId,
    pages: u64,
    prod_cpu: u64,
    cons_cpu: u64,
) -> (Engine, std::rc::Rc<std::cell::Cell<u64>>) {
    let mut e = engine(2);
    let ch = e.add_channel(from, to);
    e.add_proc(Box::new(MiniProducer {
        site: from,
        out: ch,
        count: pages,
        cpu: prod_cpu,
        emitted: 0,
    }));
    let seen = std::rc::Rc::new(std::cell::Cell::new(0));
    e.add_display_proc(Box::new(MiniConsumer {
        input: ch,
        site: to,
        cpu: cons_cpu,
        seen: std::rc::Rc::clone(&seen),
        started: false,
    }));
    (e, seen)
}

#[test]
fn local_pipeline_delivers_everything() {
    let (mut e, seen) = pipe(SiteId::CLIENT, SiteId::CLIENT, 100, 1000, 1000);
    let rt = e.run();
    assert_eq!(seen.get(), 4000);
    // 100 pages, producer+consumer CPU on one site: 100 × 2000 instr at
    // 50 MIPS = 4 ms; allow pipeline fill slack.
    let expect = SimDuration::from_micros(4000);
    assert!(rt >= expect, "{rt} >= {expect}");
    assert!(rt < expect * 2, "{rt} < 2x {expect}");
    let wire = e.link_stats();
    assert_eq!(
        wire.data_pages_sent, 0,
        "local channel never touches the wire"
    );
}

#[test]
fn remote_pipeline_ships_pages_and_overlaps() {
    let (mut e, seen) = pipe(SiteId::CLIENT, SiteId::server(1), 100, 50_000, 0);
    let rt = e.run();
    assert_eq!(seen.get(), 4000);
    let wire = e.link_stats();
    assert_eq!(wire.data_pages_sent, 100);
    assert_eq!(wire.bytes_sent, 100 * 4096);
    // Producer CPU: 100 × 1ms = 100 ms. Wire: 100 × 0.328 ms = 33 ms.
    // Pipelined, the run should take ~producer time + small tail, not
    // the 233 ms a serial schedule would need.
    // (Send/recv CPU shares the producer/consumer CPUs: +64 ms sender.)
    let secs = rt.as_secs_f64();
    assert!(secs > 0.16, "lower bound: {secs}");
    assert!(secs < 0.21, "pipelining should hide the wire: {secs}");
}

#[test]
fn bounded_buffer_throttles_producer() {
    // Slow consumer: the producer cannot run ahead more than the channel
    // capacity, so the run time tracks the consumer, not the producer.
    let (mut e, seen) = pipe(SiteId::CLIENT, SiteId::CLIENT, 50, 0, 500_000);
    let rt = e.run();
    assert_eq!(seen.get(), 2000);
    // Consumer: 50 × 10 ms = 500 ms dominates.
    let secs = rt.as_secs_f64();
    assert!((0.5..0.52).contains(&secs), "consumer-bound: {secs}");
}

#[test]
fn empty_stream_closes_cleanly() {
    let (mut e, seen) = pipe(SiteId::CLIENT, SiteId::server(1), 0, 0, 0);
    let rt = e.run();
    assert_eq!(seen.get(), 0);
    assert!(rt.as_nanos() < 1_000_000);
}

/// A process that reads its own disk then finishes; checks DiskRead
/// integration and that `run` panics on a missing display.
struct DiskToucher {
    site: SiteId,
    reads: u64,
    done: u64,
}

impl OperatorProc for DiskToucher {
    fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
        if self.done == self.reads {
            out.push(Action::Done);
            return;
        }
        let addr = DiskAddr(self.done);
        self.done += 1;
        out.push(Action::DiskRead {
            site: self.site,
            addr,
        });
    }
    fn label(&self) -> String {
        "disk-toucher".into()
    }
}

#[test]
fn disk_reads_accumulate_stats() {
    let mut e = engine(1);
    e.add_display_proc(Box::new(DiskToucher {
        site: SiteId::CLIENT,
        reads: 12,
        done: 0,
    }));
    let rt = e.run();
    let stats = e.disk_stats(SiteId::CLIENT);
    assert_eq!(stats.reads, 12);
    assert!(rt.as_secs_f64() > 0.01, "12 sequential reads: {rt}");
}

#[test]
#[should_panic(expected = "no display process registered")]
fn run_requires_display() {
    let mut e = engine(1);
    e.add_proc(Box::new(DiskToucher {
        site: SiteId::CLIENT,
        reads: 1,
        done: 0,
    }));
    e.run();
}

/// Async writes + drain.
struct WriterThenDrain {
    site: SiteId,
    wrote: bool,
}

impl OperatorProc for WriterThenDrain {
    fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
        if self.wrote {
            out.push(Action::Done);
            return;
        }
        self.wrote = true;
        out.extend((0..8).map(|i| Action::DiskWriteAsync {
            site: self.site,
            addr: DiskAddr(i * 100),
        }));
        out.push(Action::DrainWrites);
    }
    fn label(&self) -> String {
        "writer".into()
    }
}

#[test]
fn drain_waits_for_async_writes() {
    let mut e = engine(1);
    e.add_display_proc(Box::new(WriterThenDrain {
        site: SiteId::CLIENT,
        wrote: false,
    }));
    let rt = e.run();
    let stats = e.disk_stats(SiteId::CLIENT);
    assert_eq!(stats.writes, 8);
    // All writes must have completed before Done: run time covers the
    // full (scattered) write burst, ~8 × 9-12 ms.
    assert!(rt.as_secs_f64() > 0.05, "{rt}");
}

/// Deadlock diagnostics: a consumer awaiting a channel nobody closes.
struct Starver {
    input: ChannelId,
    started: bool,
}

impl OperatorProc for Starver {
    fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
        if !self.started {
            self.started = true;
            out.push(Action::AwaitInput {
                channel: self.input,
            });
            return;
        }
        out.push(Action::Done);
    }
    fn label(&self) -> String {
        "starver".into()
    }
}

#[test]
#[should_panic(expected = "deadlocked")]
fn deadlock_is_reported() {
    let mut e = engine(1);
    let ch = e.add_channel(SiteId::CLIENT, SiteId::CLIENT);
    e.add_display_proc(Box::new(Starver {
        input: ch,
        started: false,
    }));
    e.run();
}

#[test]
fn sleep_advances_virtual_time() {
    struct Sleeper {
        slept: bool,
    }
    impl OperatorProc for Sleeper {
        fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
            if self.slept {
                out.push(Action::Done);
                return;
            }
            self.slept = true;
            out.push(Action::Sleep {
                dur: SimDuration::from_millis(250),
            });
        }
        fn label(&self) -> String {
            "sleeper".into()
        }
    }
    let mut e = engine(1);
    e.add_display_proc(Box::new(Sleeper { slept: false }));
    let rt = e.run();
    assert_eq!(rt, SimDuration::from_millis(250));
}
