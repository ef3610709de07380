//! The scan operator (§2.1).
//!
//! "The scan operator simply produces all of the tuples in a relation.
//! … A client annotation indicates that the scan should be run at the
//! site where the query is submitted, accessing data from the local cache
//! if present; any missing data are faulted in from the server where the
//! relation resides."
//!
//! Three per-page paths:
//!
//! * scan at the primary server: local sequential read;
//! * scan at the client, page cached: client-disk sequential read;
//! * scan at the client, page missing: synchronous fault RPC — request
//!   message to the server, server disk read, page reply. One page at a
//!   time, which is exactly the overlap handicap the paper attributes to
//!   data-shipping in §4.2.3.

use csqp_catalog::{RelId, SiteId};
use csqp_disk::Extent;

use crate::process::{Action, ChannelId, OperatorProc, Page, ResumeInput};

use super::disk_read;

/// Per-page cost constants a scan needs.
#[derive(Debug, Clone, Copy)]
pub struct ScanCosts {
    /// `DiskInst`.
    pub disk_inst: u64,
    /// CPU instructions for a control message (fault request).
    pub control_msg_instr: u64,
    /// CPU instructions for a page message (fault reply).
    pub page_msg_instr: u64,
    /// Control message size in bytes.
    pub control_bytes: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
}

/// The scan process.
pub struct ScanProc {
    rel: RelId,
    /// Where the scan operator runs.
    site: SiteId,
    /// Where the primary copy lives.
    server: SiteId,
    rel_extent: Extent,
    cache_extent: Option<Extent>,
    cached_pages: u64,
    total_pages: u64,
    total_tuples: u64,
    tuples_per_page: u64,
    out: ChannelId,
    costs: ScanCosts,
    cursor: u64,
}

impl ScanProc {
    /// Build a scan.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rel: RelId,
        site: SiteId,
        server: SiteId,
        rel_extent: Extent,
        cache_extent: Option<Extent>,
        cached_pages: u64,
        total_pages: u64,
        total_tuples: u64,
        tuples_per_page: u64,
        out: ChannelId,
        costs: ScanCosts,
    ) -> ScanProc {
        assert_eq!(rel_extent.pages, total_pages, "extent sized to relation");
        if cached_pages > 0 {
            assert!(
                cache_extent.map(|e| e.pages) == Some(cached_pages),
                "cache extent sized to cached prefix"
            );
        }
        ScanProc {
            rel,
            site,
            server,
            rel_extent,
            cache_extent,
            cached_pages,
            total_pages,
            total_tuples,
            tuples_per_page,
            out,
            costs,
            cursor: 0,
        }
    }
}

impl OperatorProc for ScanProc {
    // Invariant panic: the builder passes a cache extent whenever
    // `cached_pages > 0`, the only case that reads it.
    #[allow(clippy::expect_used)]
    fn resume(&mut self, _input: ResumeInput, acts: &mut Vec<Action>) {
        if self.cursor == self.total_pages {
            acts.push(Action::Close { channel: self.out });
            acts.push(Action::Done);
            return;
        }
        let i = self.cursor;
        self.cursor += 1;
        let tuples = (self.total_tuples - i * self.tuples_per_page).min(self.tuples_per_page);
        let page = Page { tuples };
        if self.site == self.server {
            // Local scan at the primary copy.
            disk_read(
                self.site,
                self.rel_extent.page(i),
                self.costs.disk_inst,
                acts,
            );
        } else if i < self.cached_pages {
            // Cached prefix on the client disk (footnote 8: contiguous
            // regions are cached).
            let ext = self.cache_extent.expect("cached pages imply an extent");
            disk_read(self.site, ext.page(i), self.costs.disk_inst, acts);
        } else {
            // Synchronous per-page fault RPC.
            acts.push(Action::Cpu {
                site: self.site,
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
                site: self.site,
                instr: self.costs.page_msg_instr,
            });
        }
        acts.push(Action::Emit {
            channel: self.out,
            page,
        });
    }

    fn label(&self) -> String {
        format!("scan {}@{}", self.rel, self.site)
    }
}
