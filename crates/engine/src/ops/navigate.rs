//! Navigation-based data access (the paper's §7 future work: "we intend
//! to analyze the effects of navigation-based access").
//!
//! An application at the client traverses an object graph: each step
//! touches one page of a relation — with probability `locality` the page
//! physically following the previous one (clustered references),
//! otherwise a uniformly random page (pointer chasing). Cached pages are
//! read from the client disk; misses fault from the server with the same
//! synchronous per-page RPC a client-site scan uses. This is precisely
//! the light-weight interaction pattern data-shipping architectures are
//! built for (§1: "light-weight interaction … as is needed to support
//! navigational data access").

use csqp_catalog::SiteId;
use csqp_disk::Extent;
use csqp_simkernel::rng::SimRng;

use crate::process::{Action, OperatorProc, ResumeInput};

use super::disk_read;
use super::scan::ScanCosts;

/// The navigating-application process.
pub struct NavigatorProc {
    client: SiteId,
    server: SiteId,
    rel_extent: Extent,
    cache_extent: Option<Extent>,
    cached_pages: u64,
    total_pages: u64,
    steps: u64,
    locality: f64,
    costs: ScanCosts,
    rng: SimRng,
    cursor: u64,
    done: u64,
}

impl NavigatorProc {
    /// Build a navigator performing `steps` page accesses with the given
    /// locality in `[0, 1]`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        client: SiteId,
        server: SiteId,
        rel_extent: Extent,
        cache_extent: Option<Extent>,
        cached_pages: u64,
        total_pages: u64,
        steps: u64,
        locality: f64,
        costs: ScanCosts,
        rng: SimRng,
    ) -> NavigatorProc {
        assert!(total_pages > 0, "cannot navigate an empty relation");
        assert!((0.0..=1.0).contains(&locality));
        NavigatorProc {
            client,
            server,
            rel_extent,
            cache_extent,
            cached_pages,
            total_pages,
            steps,
            locality,
            costs,
            rng,
            cursor: 0,
            done: 0,
        }
    }
}

impl OperatorProc for NavigatorProc {
    // Invariant panic: the builder passes a cache extent whenever
    // `cached_pages > 0`, the only case that reads it.
    #[allow(clippy::expect_used)]
    fn resume(&mut self, _input: ResumeInput, acts: &mut Vec<Action>) {
        if self.done == self.steps {
            acts.push(Action::Done);
            return;
        }
        self.done += 1;
        self.cursor = if self.rng.chance(self.locality) {
            (self.cursor + 1) % self.total_pages
        } else {
            self.rng.below(self.total_pages as usize) as u64
        };
        let i = self.cursor;
        if i < self.cached_pages {
            let ext = self.cache_extent.expect("cached pages imply an extent");
            disk_read(self.client, ext.page(i), self.costs.disk_inst, acts);
        } else {
            acts.push(Action::Cpu {
                site: self.client,
                instr: self.costs.control_msg_instr,
            });
            acts.push(Action::Wire {
                bytes: self.costs.control_bytes,
                data_page: false,
            });
            acts.push(Action::Cpu {
                site: self.server,
                instr: self.costs.control_msg_instr,
            });
            disk_read(
                self.server,
                self.rel_extent.page(i),
                self.costs.disk_inst,
                acts,
            );
            acts.push(Action::Cpu {
                site: self.server,
                instr: self.costs.page_msg_instr,
            });
            acts.push(Action::Wire {
                bytes: self.costs.page_bytes,
                data_page: true,
            });
            acts.push(Action::Cpu {
                site: self.client,
                instr: self.costs.page_msg_instr,
            });
        }
    }

    fn label(&self) -> String {
        format!("navigate[{} steps]", self.steps)
    }
}
