//! The external server-disk load generator (§3.2.2).
//!
//! "To simulate additional server load and multiple clients, an extra
//! process issuing random disk read requests is run at servers in some
//! experiments. The request rate of this process can be varied to achieve
//! different disk utilizations."
//!
//! Arrivals are open (Poisson): the generator does not wait for its reads
//! to complete, so a 70 req/s stream drives the disk towards saturation
//! exactly as multiple independent clients would.

use csqp_catalog::SiteId;
use csqp_disk::DiskAddr;
use csqp_simkernel::rng::SimRng;
use csqp_simkernel::SimDuration;

use crate::process::{Action, OperatorProc, ResumeInput};

/// The load-generator process.
pub struct LoadGenProc {
    site: SiteId,
    mean_interarrival: SimDuration,
    disk_capacity_pages: u64,
    rng: SimRng,
}

impl LoadGenProc {
    /// A generator issuing uniformly random single-page reads at
    /// `rate_per_sec` against `site`'s disk.
    pub fn new(
        site: SiteId,
        rate_per_sec: f64,
        disk_capacity_pages: u64,
        rng: SimRng,
    ) -> LoadGenProc {
        assert!(
            rate_per_sec > 0.0,
            "use no load generator instead of rate 0"
        );
        LoadGenProc {
            site,
            mean_interarrival: SimDuration::from_secs_f64(1.0 / rate_per_sec),
            disk_capacity_pages,
            rng,
        }
    }
}

impl OperatorProc for LoadGenProc {
    fn resume(&mut self, _input: ResumeInput, out: &mut Vec<Action>) {
        let addr = DiskAddr(self.rng.below(self.disk_capacity_pages as usize) as u64);
        let dur = self.rng.exp_duration(self.mean_interarrival);
        out.push(Action::DiskReadAsync {
            site: self.site,
            addr,
        });
        out.push(Action::Sleep { dur });
    }

    fn label(&self) -> String {
        format!("loadgen@{}", self.site)
    }
}
