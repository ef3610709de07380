//! The aggregate operator: hash-based grouping of the final query result
//! (footnote 4 of the paper: aggregations are annotated like selections).
//!
//! A blocking operator: it consumes its entire input (hashing every
//! tuple), then emits one tuple per group. With the paper's benchmark
//! sizes the grouping state always fits in memory, so no spill path is
//! modeled — the operator charges CPU only.

use csqp_catalog::SiteId;

use crate::process::{Action, ChannelId, OperatorProc, Page, ResumeInput};

/// The aggregate process.
pub struct AggregateProc {
    site: SiteId,
    input: ChannelId,
    out: ChannelId,
    groups: u64,
    tuples_per_page: u64,
    hash_inst: u64,
    move_tuple_instr: u64,
    seen: u64,
    started: bool,
}

impl AggregateProc {
    /// Build an aggregate over `input` producing at most `groups` output
    /// tuples.
    pub fn new(
        site: SiteId,
        input: ChannelId,
        out: ChannelId,
        groups: u64,
        tuples_per_page: u64,
        hash_inst: u64,
        move_tuple_instr: u64,
    ) -> AggregateProc {
        assert!(groups > 0);
        AggregateProc {
            site,
            input,
            out,
            groups,
            tuples_per_page,
            hash_inst,
            move_tuple_instr,
            seen: 0,
            started: false,
        }
    }
}

impl OperatorProc for AggregateProc {
    fn resume(&mut self, input: ResumeInput, acts: &mut Vec<Action>) {
        if !self.started {
            self.started = true;
            acts.push(Action::AwaitInput {
                channel: self.input,
            });
            return;
        }
        match input {
            ResumeInput::Page(p) => {
                self.seen += p.tuples;
                acts.push(Action::Cpu {
                    site: self.site,
                    instr: p.tuples * self.hash_inst,
                });
                acts.push(Action::AwaitInput {
                    channel: self.input,
                });
            }
            ResumeInput::EndOfStream => {
                let mut out_tuples = self.groups.min(self.seen);
                acts.push(Action::Cpu {
                    site: self.site,
                    instr: out_tuples * self.move_tuple_instr,
                });
                while out_tuples > 0 {
                    let t = out_tuples.min(self.tuples_per_page);
                    acts.push(Action::Emit {
                        channel: self.out,
                        page: Page { tuples: t },
                    });
                    out_tuples -= t;
                }
                acts.push(Action::Close { channel: self.out });
                acts.push(Action::Done);
            }
            ResumeInput::None => unreachable!("aggregate resumed without input after start"),
        }
    }

    fn label(&self) -> String {
        format!("aggregate[{}]@{}", self.groups, self.site)
    }
}
