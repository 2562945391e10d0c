//! The communication rounds of the coupled drivers, explored as the code
//! that runs them ([`mpisim::explore`]): the fault-free run and every
//! single-fault run of each. `esm-lint`'s protocol phase,
//! `figures protocol` and the protocol property tests all read
//! [`explore_rounds`].

use crate::resilience::{distributed_guard, ResilienceConfig};
use icongrid::{Decomposition, Field2, Grid, SubGrid};
use iosys::Snapshot;
use mpisim::{explore, heartbeat_round_traced, BeatConfig, ExploreReport, HaloExchanger, World};

/// One explored round.
#[derive(Debug, Clone)]
pub struct ExploredRound {
    pub report: ExploreReport,
    /// Whether the single-fault runs are gated. The guard and heartbeat
    /// rounds degrade gracefully under any one fault; the halo exchange
    /// has no degraded mode, so its fault runs are only counted.
    pub gate_faults: bool,
}

impl ExploredRound {
    /// Errors the gates count: the fault-free run's, and the single-fault
    /// runs' where those are gated.
    pub fn errors(&self) -> usize {
        let faults = if self.gate_faults { self.report.fault_errors() } else { 0 };
        self.report.nominal_errors() + faults
    }
}

/// The coupling window every round is explored at.
const WINDOW: u64 = 1;

/// Every round of the coupled drivers, explored: the resilient driver's
/// guard round (`distributed_guard`) at 2, 3 and 4 ranks, the supervised
/// heartbeat at its 3 ranks, and the coupler halo exchange — cells, then
/// edges, through [`HaloExchanger`] — over a 2-bisection grid split into
/// 2, 3 and 4 parts.
pub fn explore_rounds() -> Vec<ExploredRound> {
    let mut out = Vec::new();
    // In-bounds values: the guard's messages do not depend on them.
    let snap = Snapshot {
        vars: (0..5).map(|i| (format!("probe{i}"), vec![0.0; 4])).collect(),
    };
    for n in 2..=4 {
        let rcfg = ResilienceConfig { guard_ranks: n, ..ResilienceConfig::default() };
        let report = explore("guard-round", n, WINDOW, |plan| {
            distributed_guard(&snap, WINDOW, &rcfg, plan)
        });
        out.push(ExploredRound { report, gate_faults: true });
    }

    let payloads: Vec<Vec<f64>> = (0..3).map(|r| vec![r as f64]).collect();
    let report = explore("supervised-heartbeat", 3, WINDOW, |plan| {
        heartbeat_round_traced(3, WINDOW, &BeatConfig::default(), plan, &[false; 3], &payloads)
    });
    out.push(ExploredRound { report, gate_faults: true });

    let grid = Grid::build(2, icongrid::EARTH_RADIUS_M);
    for n in 2..=4 {
        let decomp = Decomposition::new(&grid, n);
        let subs: Vec<SubGrid> = (0..n).map(|p| SubGrid::build(&grid, &decomp, p)).collect();
        let report = explore("coupler-exchange", n, WINDOW, |plan| {
            World::run_traced(n, plan.cloned(), |comm| {
                let sub = &subs[comm.rank()];
                let cells = HaloExchanger::new(sub.cell_exchange.clone(), 100);
                let edges = HaloExchanger::new(sub.edge_exchange.clone(), 101);
                cells.exchange2(&comm, &mut Field2::zeros(sub.n_cells));
                edges.exchange2(&comm, &mut Field2::zeros(sub.n_edges));
            })
        });
        out.push(ExploredRound { report, gate_faults: false });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_explores_clean_where_gated() {
        let rounds = explore_rounds();
        assert_eq!(rounds.len(), 7);
        for r in &rounds {
            assert_eq!(r.errors(), 0, "{}/{}: {:#?}", r.report.name, r.report.n, r.report);
            assert!(!r.report.faults.is_empty());
        }
    }
}
