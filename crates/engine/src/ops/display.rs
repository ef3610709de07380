//! The display operator: the root of every plan, always at the client
//! (§2.1). Its completion defines the query's response time.

use std::cell::Cell;
use std::rc::Rc;

use csqp_catalog::SiteId;

use crate::process::{Action, ChannelId, OperatorProc, ResumeInput};

/// The display process.
pub struct DisplayProc {
    site: SiteId,
    input: ChannelId,
    display_inst: u64,
    /// Shared counter the harness reads after the run.
    tuples_seen: Rc<Cell<u64>>,
    started: bool,
}

impl DisplayProc {
    /// Build a display; `tuples_seen` is shared with the metrics
    /// collector.
    pub fn new(
        site: SiteId,
        input: ChannelId,
        display_inst: u64,
        tuples_seen: Rc<Cell<u64>>,
    ) -> DisplayProc {
        DisplayProc {
            site,
            input,
            display_inst,
            tuples_seen,
            started: false,
        }
    }
}

impl OperatorProc for DisplayProc {
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
                self.tuples_seen.set(self.tuples_seen.get() + p.tuples);
                out.push(Action::Cpu {
                    site: self.site,
                    instr: self.display_inst * p.tuples,
                });
                out.push(Action::AwaitInput {
                    channel: self.input,
                });
            }
            ResumeInput::EndOfStream => out.push(Action::Done),
            ResumeInput::None => unreachable!("display resumed without input after start"),
        }
    }

    fn label(&self) -> String {
        format!("display@{}", self.site)
    }
}
