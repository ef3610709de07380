//! Per-resource usage vectors.
//!
//! Usage is tracked in seconds per (site, resource), where the resources
//! of a site are its CPU and its disk, and the network wire is one shared
//! resource (the paper models it as a single FIFO queue). Pages sent are
//! tracked separately for the communication metric.
//!
//! A cost pass does not build a [`ResourceUsage`] per plan node: it
//! charges each node in a `UsageSlab` slot reused across passes, so
//! pricing a candidate allocates nothing (DESIGN.md §21).

use csqp_catalog::SiteId;
use csqp_core::NodeId;

/// Resource seconds accumulated by (a subtree of) a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceUsage {
    /// CPU seconds per site.
    pub cpu: Vec<f64>,
    /// Disk seconds per site.
    pub disk: Vec<f64>,
    /// Seconds of network wire occupancy.
    pub net_wire: f64,
    /// Data pages shipped over the wire.
    pub pages_sent: f64,
}

impl ResourceUsage {
    /// Zero usage for a topology of `num_sites` sites (client + servers).
    pub fn zero(num_sites: usize) -> ResourceUsage {
        ResourceUsage {
            cpu: vec![0.0; num_sites],
            disk: vec![0.0; num_sites],
            net_wire: 0.0,
            pages_sent: 0.0,
        }
    }

    /// Add CPU seconds at a site.
    #[inline]
    pub fn add_cpu(&mut self, site: SiteId, secs: f64) {
        self.cpu[site.index()] += secs;
    }

    /// Add disk seconds at a site.
    #[inline]
    pub fn add_disk(&mut self, site: SiteId, secs: f64) {
        self.disk[site.index()] += secs;
    }

    /// Merge another usage vector into this one.
    pub fn merge(&mut self, other: &ResourceUsage) {
        debug_assert_eq!(self.cpu.len(), other.cpu.len());
        for (a, b) in self.cpu.iter_mut().zip(&other.cpu) {
            *a += b;
        }
        for (a, b) in self.disk.iter_mut().zip(&other.disk) {
            *a += b;
        }
        self.net_wire += other.net_wire;
        self.pages_sent += other.pages_sent;
    }

    /// Sum of all resource seconds (the total-cost metric).
    pub fn total_seconds(&self) -> f64 {
        total_seconds(&self.cpu, &self.disk, self.net_wire)
    }

    /// The largest single-resource usage — the full-overlap lower bound on
    /// elapsed time.
    pub fn bottleneck_seconds(&self) -> f64 {
        bottleneck_seconds(&self.cpu, &self.disk, self.net_wire)
    }
}

/// [`ResourceUsage::total_seconds`] over borrowed per-site seconds.
pub(crate) fn total_seconds(cpu: &[f64], disk: &[f64], net_wire: f64) -> f64 {
    cpu.iter().sum::<f64>() + disk.iter().sum::<f64>() + net_wire
}

/// [`ResourceUsage::bottleneck_seconds`] over borrowed per-site seconds.
pub(crate) fn bottleneck_seconds(cpu: &[f64], disk: &[f64], net_wire: f64) -> f64 {
    cpu.iter().chain(disk).copied().fold(net_wire, f64::max)
}

/// The CPU and disk seconds of every node of one cost pass, in one flat
/// buffer kept across passes. With `s` sites, node `i` owns the `2s`
/// floats from `2s·i`: CPU seconds per site, then disk seconds per site.
#[derive(Debug, Clone, Default)]
pub(crate) struct UsageSlab {
    secs: Vec<f64>,
    sites: usize,
}

impl UsageSlab {
    /// Make room for a pass over `nodes` arena slots of an `sites`-site
    /// topology. Slots are zeroed when a node opens its charges.
    pub(crate) fn reset(&mut self, sites: usize, nodes: usize) {
        self.sites = sites;
        let need = 2 * sites * nodes;
        if self.secs.len() < need {
            self.secs.resize(need, 0.0);
        }
    }

    fn start(&self, id: NodeId) -> usize {
        2 * self.sites * id.index()
    }

    /// CPU seconds per site charged to `id`'s subtree.
    pub(crate) fn cpu(&self, id: NodeId) -> &[f64] {
        let at = self.start(id);
        &self.secs[at..at + self.sites]
    }

    /// Disk seconds per site charged to `id`'s subtree.
    pub(crate) fn disk(&self, id: NodeId) -> &[f64] {
        let at = self.start(id) + self.sites;
        &self.secs[at..at + self.sites]
    }
}

/// The usage one node is charging: its zeroed slab slot plus the wire
/// and page counters, added to in the order a [`ResourceUsage`] would
/// be (own charges first, then each child merged in turn).
pub(crate) struct NodeUsage<'s> {
    slab: &'s mut UsageSlab,
    id: NodeId,
    /// Seconds of network wire occupancy.
    pub(crate) net_wire: f64,
    /// Data pages shipped over the wire.
    pub(crate) pages_sent: f64,
}

impl<'s> NodeUsage<'s> {
    /// Open `id`'s slot with zero usage.
    pub(crate) fn open(slab: &'s mut UsageSlab, id: NodeId) -> NodeUsage<'s> {
        let at = slab.start(id);
        slab.secs[at..at + 2 * slab.sites].fill(0.0);
        NodeUsage {
            slab,
            id,
            net_wire: 0.0,
            pages_sent: 0.0,
        }
    }

    /// Add CPU seconds at a site.
    #[inline]
    pub(crate) fn add_cpu(&mut self, site: SiteId, secs: f64) {
        let at = self.slab.start(self.id);
        self.slab.secs[at..at + self.slab.sites][site.index()] += secs;
    }

    /// Add disk seconds at a site.
    #[inline]
    pub(crate) fn add_disk(&mut self, site: SiteId, secs: f64) {
        let at = self.slab.start(self.id) + self.slab.sites;
        self.slab.secs[at..at + self.slab.sites][site.index()] += secs;
    }

    /// Merge a child's usage: its slot and its two counters.
    pub(crate) fn merge(&mut self, child: NodeId, net_wire: f64, pages_sent: f64) {
        let (to, from) = (self.slab.start(self.id), self.slab.start(child));
        for k in 0..2 * self.slab.sites {
            self.slab.secs[to + k] += self.slab.secs[from + k];
        }
        self.net_wire += net_wire;
        self.pages_sent += pages_sent;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_totals() {
        let mut a = ResourceUsage::zero(3);
        a.add_cpu(SiteId::CLIENT, 1.0);
        a.add_disk(SiteId::server(1), 2.0);
        a.net_wire = 0.5;
        a.pages_sent = 10.0;
        let mut b = ResourceUsage::zero(3);
        b.add_cpu(SiteId::CLIENT, 0.25);
        b.add_disk(SiteId::server(2), 4.0);
        b.pages_sent = 5.0;
        a.merge(&b);
        assert!((a.total_seconds() - 7.75).abs() < 1e-12);
        assert!((a.bottleneck_seconds() - 4.0).abs() < 1e-12);
        assert!((a.pages_sent - 15.0).abs() < 1e-12);
    }

    #[test]
    fn bottleneck_can_be_the_wire() {
        let mut a = ResourceUsage::zero(2);
        a.net_wire = 9.0;
        a.add_cpu(SiteId::CLIENT, 1.0);
        assert!((a.bottleneck_seconds() - 9.0).abs() < 1e-12);
    }
}
