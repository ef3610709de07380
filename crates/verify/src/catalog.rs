//! Drift-conformance pass over a recorded catalog drift trace.
//!
//! The serving stack tracks catalog staleness as epoch numbers
//! (DESIGN.md §14): every admitted query publishes a monotone
//! coordinator epoch, each shard's epoch (its *replica* epoch below)
//! refreshes through a fault-injectable propagation step, and every
//! admitted query is served *fresh*, *degraded* to QS, or *rejected*
//! according to how far its shard trailed the coordinator. While
//! catalog faults are armed the
//! server records a [`DriftEvent`] trace; this pass replays that trace
//! and proves the degradation lattice was honored:
//!
//! * **no stale serve** — a query recorded as served `Fresh` while its
//!   replica trailed the coordinator by more than the staleness bound
//!   means the bound was ignored — [`DiagCode::CatalogStaleServed`].
//! * **epoch monotonicity** — coordinator epochs only ever rise, and no
//!   replica may *apply* a refresh that moves its epoch backwards (a
//!   reordered delivery must be refused, not applied) —
//!   [`DiagCode::CatalogEpochRegress`].
//! * **lag accounting** — the lag recorded at each serve decision must
//!   re-derive from the reconstructed coordinator and replica epochs;
//!   a mismatch means the serve decision priced against state it did
//!   not actually hold — [`DiagCode::CatalogLagBound`].
//!
//! The trace is audited as a *prefix* of the drift history (the server
//! caps the trace by dropping whole queries from the tail), so every
//! event the pass sees carries enough context to be checked without the
//! events that were dropped after it.

use csqp_catalog::{DriftAction, DriftEvent};
use csqp_core::diag::{DiagCode, Diagnostic};
use std::collections::BTreeMap;

use crate::report::Report;

fn diag(code: DiagCode, index: usize, detail: String) -> Diagnostic {
    let mut d = Diagnostic::new(code, detail);
    d.path = Some(format!("drift/event{index}"));
    d
}

/// Replay a recorded drift trace and prove every serve decision honored
/// the staleness bound `max_epoch_lag`. Returns a clean report when the
/// trace conforms; each violation carries the offending event index in
/// its path.
pub fn check_drift(trace: &[DriftEvent], max_epoch_lag: u64) -> Report {
    let mut report = Report::new();
    let mut coordinator: u64 = 0;
    let mut replicas: BTreeMap<u32, u64> = BTreeMap::new();

    for (i, event) in trace.iter().enumerate() {
        match *event {
            DriftEvent::Publish { epoch } => {
                if epoch <= coordinator {
                    report.push(diag(
                        DiagCode::CatalogEpochRegress,
                        i,
                        format!(
                            "coordinator published epoch {epoch} at or behind \
                             its current epoch {coordinator}"
                        ),
                    ));
                }
                coordinator = coordinator.max(epoch);
            }
            DriftEvent::Refresh {
                site,
                from,
                to,
                applied,
            } => {
                let have = replicas.get(&site).copied().unwrap_or(0);
                if from != have {
                    report.push(diag(
                        DiagCode::CatalogLagBound,
                        i,
                        format!(
                            "site {site} refresh claims to start from epoch {from}, \
                             but the reconstructed replica holds {have}"
                        ),
                    ));
                }
                if applied {
                    if to < have {
                        report.push(diag(
                            DiagCode::CatalogEpochRegress,
                            i,
                            format!(
                                "site {site} applied a refresh that regressed its \
                                 epoch {have} -> {to}; regressions must be refused"
                            ),
                        ));
                    }
                    if to > coordinator {
                        report.push(diag(
                            DiagCode::CatalogEpochRegress,
                            i,
                            format!(
                                "site {site} refreshed to epoch {to}, ahead of the \
                                 coordinator's {coordinator}"
                            ),
                        ));
                    }
                    replicas.insert(site, to.max(have));
                }
            }
            DriftEvent::Poison { .. } => {
                // Poison taints pricing inputs, not epochs; the serve
                // decision it forces is checked at its Serve event.
            }
            DriftEvent::Serve {
                site,
                priced_epoch,
                coordinator_epoch,
                lag,
                action,
            } => {
                let have = replicas.get(&site).copied().unwrap_or(0);
                if priced_epoch != have || coordinator_epoch != coordinator {
                    report.push(diag(
                        DiagCode::CatalogLagBound,
                        i,
                        format!(
                            "site {site} serve decision priced at epoch \
                             {priced_epoch}/{coordinator_epoch}, but reconstruction \
                             holds {have}/{coordinator}"
                        ),
                    ));
                }
                let derived = coordinator_epoch.saturating_sub(priced_epoch);
                if lag != derived {
                    report.push(diag(
                        DiagCode::CatalogLagBound,
                        i,
                        format!(
                            "site {site} recorded lag {lag}, but its own epochs \
                             derive lag {derived}"
                        ),
                    ));
                }
                if action == DriftAction::Fresh && lag > max_epoch_lag {
                    report.push(diag(
                        DiagCode::CatalogStaleServed,
                        i,
                        format!(
                            "site {site} served fresh at lag {lag}, past the \
                             staleness bound {max_epoch_lag}"
                        ),
                    ));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A conforming little history: two publishes, a refresh, a fresh
    /// serve within bound, then a withheld refresh forcing a degraded
    /// serve past the bound.
    fn honest_trace() -> Vec<DriftEvent> {
        vec![
            DriftEvent::Publish { epoch: 1 },
            DriftEvent::Refresh {
                site: 0,
                from: 0,
                to: 1,
                applied: true,
            },
            DriftEvent::Serve {
                site: 0,
                priced_epoch: 1,
                coordinator_epoch: 1,
                lag: 0,
                action: DriftAction::Fresh,
            },
            DriftEvent::Publish { epoch: 2 },
            DriftEvent::Publish { epoch: 3 },
            DriftEvent::Serve {
                site: 0,
                priced_epoch: 1,
                coordinator_epoch: 3,
                lag: 2,
                action: DriftAction::Degraded,
            },
        ]
    }

    #[test]
    fn honest_trace_is_clean() {
        let report = check_drift(&honest_trace(), 1);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn over_lag_fresh_serve_is_stale_served() {
        let mut trace = honest_trace();
        // Mutate the degraded serve into a fresh one: lag 2 > bound 1.
        if let Some(DriftEvent::Serve { action, .. }) = trace.last_mut() {
            *action = DriftAction::Fresh;
        }
        let report = check_drift(&trace, 1);
        assert!(report.has(DiagCode::CatalogStaleServed));
    }

    #[test]
    fn applied_regression_is_epoch_regress() {
        let mut trace = honest_trace();
        trace.push(DriftEvent::Refresh {
            site: 0,
            from: 1,
            to: 0,
            applied: true,
        });
        let report = check_drift(&trace, 1);
        assert!(report.has(DiagCode::CatalogEpochRegress));

        // The same delivery *refused* is conforming behavior.
        let mut trace = honest_trace();
        trace.push(DriftEvent::Refresh {
            site: 0,
            from: 1,
            to: 0,
            applied: false,
        });
        assert!(check_drift(&trace, 1).is_clean());
    }

    #[test]
    fn coordinator_regress_is_epoch_regress() {
        let mut trace = honest_trace();
        trace.push(DriftEvent::Publish { epoch: 2 });
        let report = check_drift(&trace, 1);
        assert!(report.has(DiagCode::CatalogEpochRegress));
    }

    #[test]
    fn lag_misaccounting_is_lag_bound() {
        let mut trace = honest_trace();
        // Claim a smaller lag than the epochs derive.
        if let Some(DriftEvent::Serve { lag, .. }) = trace.last_mut() {
            *lag = 0;
        }
        let report = check_drift(&trace, 1);
        assert!(report.has(DiagCode::CatalogLagBound));

        // Claim epochs the reconstruction does not hold.
        let mut trace = honest_trace();
        if let Some(DriftEvent::Serve { priced_epoch, .. }) = trace.last_mut() {
            *priced_epoch = 3;
        }
        let report = check_drift(&trace, 1);
        assert!(report.has(DiagCode::CatalogLagBound));
    }

    #[test]
    fn replica_ahead_of_coordinator_is_flagged() {
        let trace = vec![
            DriftEvent::Publish { epoch: 1 },
            DriftEvent::Refresh {
                site: 2,
                from: 0,
                to: 5,
                applied: true,
            },
        ];
        let report = check_drift(&trace, 1);
        assert!(report.has(DiagCode::CatalogEpochRegress));
    }
}
