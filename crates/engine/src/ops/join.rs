//! The hybrid-hash join operator ("All joins are processed using hybrid
//! hashing \[Sha86\]", §3.2.2).
//!
//! With the **maximum** allocation the whole inner hash table is resident:
//! build consumes the inner input, probe streams the outer input and emits
//! results — no disk is touched.
//!
//! With the **minimum** allocation (`⌈F·√N⌉` frames) a resident fraction
//! of both inputs is processed in memory (partition 0) and the rest is
//! spilled: build and probe write partition pages *round-robin across
//! per-partition temp extents* using write-behind I/O, then the join phase
//! re-reads each partition pair. The spill writes of a join therefore
//! interleave with any concurrent sequential stream on the same disk —
//! the mechanism behind the paper's contention results (Figures 3, 8).
//!
//! Pages carry tuple counts only; output cardinality follows the
//! estimator's result size, spread uniformly over the probe stream
//! (uniform hashing co-partitions matching tuples, so the resident
//! fraction of the output equals the resident fraction of the inputs).

use csqp_catalog::SiteId;
use csqp_disk::Extent;
use csqp_simkernel::time::round_to_u64;

use crate::process::{Action, ChannelId, OperatorProc, Page, ResumeInput};

use super::{disk_read, disk_write_async};

/// Cost constants a join needs (Table 2).
#[derive(Debug, Clone, Copy)]
pub struct JoinCosts {
    /// `HashInst`.
    pub hash_inst: u64,
    /// `Compare`.
    pub compare_inst: u64,
    /// `MoveInst` per tuple (tuple width / 4).
    pub move_tuple_instr: u64,
    /// `DiskInst`.
    pub disk_inst: u64,
    /// Tuples per page.
    pub tuples_per_page: u64,
}

/// One spill partition's temp extent and fill state.
#[derive(Debug)]
struct Partition {
    extent: Extent,
    pages: u64,
    tuples: f64,
}

impl Partition {
    fn write_page(&mut self, tuples: f64) -> csqp_disk::DiskAddr {
        assert!(
            self.pages < self.extent.pages,
            "join spill partition overflow: {} pages into a {}-page extent \
             (cardinality misestimate?)",
            self.pages + 1,
            self.extent.pages
        );
        let addr = self.extent.page(self.pages);
        self.pages += 1;
        self.tuples += tuples;
        addr
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    Start,
    Build,
    Probe,
    /// Re-reading spilled partition `part`: inner side, page index.
    PartInner(usize, u64),
    /// Re-reading spilled partition `part`: outer side, page index.
    PartOuter(usize, u64),
    Finished,
}

/// The hybrid-hash join process.
pub struct JoinProc {
    site: SiteId,
    inner: ChannelId,
    outer: ChannelId,
    out: ChannelId,
    costs: JoinCosts,
    /// Fraction of tuples handled resident (partition 0).
    resident_frac: f64,
    /// Result tuples per probe-input tuple.
    out_ratio: f64,
    inner_parts: Vec<Partition>,
    outer_parts: Vec<Partition>,
    /// Fractional spilled tuples awaiting a full page (per side).
    spill_acc_inner: f64,
    spill_acc_outer: f64,
    /// Round-robin cursors over partitions.
    rr_inner: usize,
    rr_outer: usize,
    /// Fractional output tuples awaiting a full page.
    out_acc: f64,
    state: JState,
    label: String,
}

impl JoinProc {
    /// Build a join. `inner_extents`/`outer_extents` are the temp extents
    /// for the spilled partitions (empty = fully resident / max
    /// allocation); `resident_frac` is partition 0's share of the input.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        site: SiteId,
        inner: ChannelId,
        outer: ChannelId,
        out: ChannelId,
        costs: JoinCosts,
        resident_frac: f64,
        out_ratio: f64,
        inner_extents: Vec<Extent>,
        outer_extents: Vec<Extent>,
        label: String,
    ) -> JoinProc {
        assert_eq!(inner_extents.len(), outer_extents.len());
        assert!((0.0..=1.0).contains(&resident_frac));
        assert!(out_ratio >= 0.0);
        let part = |e: Vec<Extent>| {
            e.into_iter()
                .map(|extent| Partition {
                    extent,
                    pages: 0,
                    tuples: 0.0,
                })
                .collect::<Vec<_>>()
        };
        JoinProc {
            site,
            inner,
            outer,
            out,
            costs,
            resident_frac,
            out_ratio,
            inner_parts: part(inner_extents),
            outer_parts: part(outer_extents),
            spill_acc_inner: 0.0,
            spill_acc_outer: 0.0,
            rr_inner: 0,
            rr_outer: 0,
            out_acc: 0.0,
            state: JState::Start,
            label,
        }
    }

    fn spills(&self) -> bool {
        !self.inner_parts.is_empty()
    }

    /// Queue spilled tuples and emit full partition pages round-robin.
    fn spill(&mut self, tuples: f64, inner_side: bool, acts: &mut Vec<Action>) {
        let tpp = self.costs.tuples_per_page as f64;
        let acc = if inner_side {
            &mut self.spill_acc_inner
        } else {
            &mut self.spill_acc_outer
        };
        *acc += tuples;
        while {
            let acc = if inner_side {
                self.spill_acc_inner
            } else {
                self.spill_acc_outer
            };
            acc >= tpp
        } {
            let (parts, rr) = if inner_side {
                (&mut self.inner_parts, &mut self.rr_inner)
            } else {
                (&mut self.outer_parts, &mut self.rr_outer)
            };
            let p = *rr % parts.len();
            *rr += 1;
            let addr = parts[p].write_page(tpp);
            disk_write_async(self.site, addr, self.costs.disk_inst, acts);
            if inner_side {
                self.spill_acc_inner -= tpp;
            } else {
                self.spill_acc_outer -= tpp;
            }
        }
    }

    /// Flush a final partial spill page, if any.
    fn flush_spill(&mut self, inner_side: bool, acts: &mut Vec<Action>) {
        let acc = if inner_side {
            self.spill_acc_inner
        } else {
            self.spill_acc_outer
        };
        if acc >= 0.5 {
            let (parts, rr) = if inner_side {
                (&mut self.inner_parts, &mut self.rr_inner)
            } else {
                (&mut self.outer_parts, &mut self.rr_outer)
            };
            let p = *rr % parts.len();
            *rr += 1;
            let addr = parts[p].write_page(acc);
            disk_write_async(self.site, addr, self.costs.disk_inst, acts);
        }
        if inner_side {
            self.spill_acc_inner = 0.0;
        } else {
            self.spill_acc_outer = 0.0;
        }
    }

    /// Account result tuples and emit full output pages.
    fn produce(&mut self, tuples: f64, acts: &mut Vec<Action>) {
        let tpp = self.costs.tuples_per_page;
        self.out_acc += tuples;
        while self.out_acc >= tpp as f64 {
            acts.push(Action::Emit {
                channel: self.out,
                page: Page { tuples: tpp },
            });
            self.out_acc -= tpp as f64;
        }
    }

    fn finish(&mut self, acts: &mut Vec<Action>) {
        let rem = self.out_acc.round() as u64;
        if rem > 0 {
            acts.push(Action::Emit {
                channel: self.out,
                page: Page { tuples: rem },
            });
        }
        self.out_acc = 0.0;
        self.state = JState::Finished;
        acts.push(Action::Close { channel: self.out });
        acts.push(Action::Done);
    }

    /// CPU instructions to build `t` tuples into the hash table.
    fn build_instr(&self, t: f64) -> u64 {
        round_to_u64(t * (self.costs.hash_inst + self.costs.move_tuple_instr) as f64)
    }

    /// CPU instructions to probe with `t` tuples producing `o` results.
    fn probe_instr(&self, t: f64, o: f64) -> u64 {
        round_to_u64(
            t * (self.costs.hash_inst + self.costs.compare_inst) as f64
                + o * self.costs.move_tuple_instr as f64,
        )
    }

    /// The partition-phase step: next page batch, advancing state.
    fn partition_step(&mut self, acts: &mut Vec<Action>) {
        loop {
            match self.state {
                JState::PartInner(b, i) => {
                    if b == self.inner_parts.len() {
                        return self.finish(acts);
                    }
                    let part = &self.inner_parts[b];
                    if i >= part.pages {
                        self.state = JState::PartOuter(b, 0);
                        continue;
                    }
                    let tuples = if part.pages == 0 {
                        0.0
                    } else {
                        part.tuples / part.pages as f64
                    };
                    let addr = part.extent.page(i);
                    disk_read(self.site, addr, self.costs.disk_inst, acts);
                    acts.push(Action::Cpu {
                        site: self.site,
                        instr: self.build_instr(tuples),
                    });
                    self.state = JState::PartInner(b, i + 1);
                    return;
                }
                JState::PartOuter(b, i) => {
                    let part = &self.outer_parts[b];
                    if i >= part.pages {
                        self.state = JState::PartInner(b + 1, 0);
                        continue;
                    }
                    let tuples = part.tuples / part.pages as f64;
                    let addr = part.extent.page(i);
                    let produced = tuples * self.out_ratio;
                    disk_read(self.site, addr, self.costs.disk_inst, acts);
                    acts.push(Action::Cpu {
                        site: self.site,
                        instr: self.probe_instr(tuples, produced),
                    });
                    self.produce(produced, acts);
                    self.state = JState::PartOuter(b, i + 1);
                    return;
                }
                _ => unreachable!("partition_step outside the partition phase"),
            }
        }
    }
}

impl OperatorProc for JoinProc {
    fn resume(&mut self, input: ResumeInput, acts: &mut Vec<Action>) {
        match self.state {
            JState::Start => {
                self.state = JState::Build;
                acts.push(Action::AwaitInput {
                    channel: self.inner,
                });
            }
            JState::Build => match input {
                ResumeInput::Page(p) => {
                    acts.push(Action::Cpu {
                        site: self.site,
                        instr: self.build_instr(p.tuples as f64),
                    });
                    if self.spills() {
                        let spilled = p.tuples as f64 * (1.0 - self.resident_frac);
                        self.spill(spilled, true, acts);
                    }
                    acts.push(Action::AwaitInput {
                        channel: self.inner,
                    });
                }
                ResumeInput::EndOfStream => {
                    self.state = JState::Probe;
                    if self.spills() {
                        self.flush_spill(true, acts);
                        acts.push(Action::DrainWrites);
                    }
                    acts.push(Action::AwaitInput {
                        channel: self.outer,
                    });
                }
                ResumeInput::None => unreachable!("build resumed without input"),
            },
            JState::Probe => match input {
                ResumeInput::Page(p) => {
                    let resident = p.tuples as f64 * self.resident_frac;
                    let produced = resident * self.out_ratio;
                    acts.push(Action::Cpu {
                        site: self.site,
                        instr: self.probe_instr(p.tuples as f64, produced),
                    });
                    self.produce(produced, acts);
                    if self.spills() {
                        let spilled = p.tuples as f64 * (1.0 - self.resident_frac);
                        self.spill(spilled, false, acts);
                    }
                    acts.push(Action::AwaitInput {
                        channel: self.outer,
                    });
                }
                ResumeInput::EndOfStream => {
                    if self.spills() {
                        self.flush_spill(false, acts);
                        acts.push(Action::DrainWrites);
                        self.state = JState::PartInner(0, 0);
                    } else {
                        self.finish(acts)
                    }
                }
                ResumeInput::None => unreachable!("probe resumed without input"),
            },
            JState::PartInner(..) | JState::PartOuter(..) => self.partition_step(acts),
            JState::Finished => unreachable!("join resumed after Done"),
        }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}
