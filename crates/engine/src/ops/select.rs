//! The select operator (§2.1): applies a predicate to its input and
//! repacks the surviving tuples into full output pages.

use csqp_catalog::SiteId;

use crate::process::{Action, ChannelId, OperatorProc, Page, ResumeInput};

/// The select process.
pub struct SelectProc {
    site: SiteId,
    input: ChannelId,
    out: ChannelId,
    selectivity: f64,
    tuples_per_page: u64,
    compare_inst: u64,
    move_tuple_instr: u64,
    /// Fractional output tuples awaiting a full page.
    acc: f64,
    started: bool,
    label: String,
}

impl SelectProc {
    /// Build a select.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        site: SiteId,
        input: ChannelId,
        out: ChannelId,
        selectivity: f64,
        tuples_per_page: u64,
        compare_inst: u64,
        move_tuple_instr: u64,
        label: String,
    ) -> SelectProc {
        assert!((0.0..=1.0).contains(&selectivity) && selectivity > 0.0);
        SelectProc {
            site,
            input,
            out,
            selectivity,
            tuples_per_page,
            compare_inst,
            move_tuple_instr,
            acc: 0.0,
            started: false,
            label,
        }
    }

    fn drain_full_pages(&mut self, acts: &mut Vec<Action>) {
        while self.acc >= self.tuples_per_page as f64 {
            acts.push(Action::Emit {
                channel: self.out,
                page: Page {
                    tuples: self.tuples_per_page,
                },
            });
            self.acc -= self.tuples_per_page as f64;
        }
    }
}

impl OperatorProc for SelectProc {
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
                let survivors = p.tuples as f64 * self.selectivity;
                let instr = p.tuples * self.compare_inst
                    + (survivors * self.move_tuple_instr as f64) as u64;
                self.acc += survivors;
                acts.push(Action::Cpu {
                    site: self.site,
                    instr,
                });
                self.drain_full_pages(acts);
                acts.push(Action::AwaitInput {
                    channel: self.input,
                });
            }
            ResumeInput::EndOfStream => {
                let rem = self.acc.round() as u64;
                if rem > 0 {
                    acts.push(Action::Emit {
                        channel: self.out,
                        page: Page { tuples: rem },
                    });
                }
                acts.push(Action::Close { channel: self.out });
                acts.push(Action::Done);
            }
            ResumeInput::None => {
                unreachable!("select resumed without input after start")
            }
        }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}
