//! Distributed ocean: the barotropic CG solver runs its dot products as
//! real cross-rank allreduces, so the trajectory matches the serial run to
//! solver tolerance (not bitwise: reduction order differs), and the global
//! communication volume scales with iteration count — the §5.1 bottleneck
//! characteristic.

use icongrid::{Decomposition, Field2, Grid, NoExchange, SubGrid};
use mpisim::{RankExchange, RankTrace, TraceOp, World};
use ocean::BarotropicSolver;
use std::sync::Arc;

/// Sends across all ranks' traces, or with `collectives` the collectives
/// world rank 0 entered (every member records each collective once).
fn count(traces: &[RankTrace], collectives: bool) -> usize {
    assert!(traces.iter().all(|t| t.dropped == 0), "trace ring overflowed");
    let ranks = if collectives { &traces[..1] } else { traces };
    let hit = |op: &TraceOp| match op {
        TraceOp::Send { .. } => !collectives,
        TraceOp::Collective { .. } => collectives,
        _ => false,
    };
    ranks.iter().flat_map(|t| &t.events).filter(|e| hit(&e.op)).count()
}

fn rhs_field(g: &Grid) -> Field2 {
    Field2::from_fn(g.n_cells, |c| {
        g.cell_area[c] * (g.cell_center[c].x + 0.4 * g.cell_center[c].z)
    })
}

#[test]
fn distributed_cg_matches_serial_to_tolerance() {
    let grid = Grid::build(2, icongrid::EARTH_RADIUS_M);
    let depths = vec![3000.0; grid.n_cells];
    let wet = vec![true; grid.n_cells];

    // Serial reference.
    let mut serial = BarotropicSolver::new(&grid, 600.0, &depths, wet.clone(), 1e-11, 500);
    let rhs = rhs_field(&grid);
    let mut eta_ref = Field2::zeros(grid.n_cells);
    let stats = serial.solve(&grid, &NoExchange, &rhs, &mut eta_ref, grid.n_cells);
    assert!(stats.converged);

    let np = 3;
    let decomp = Decomposition::new(&grid, np);
    let subs: Vec<Arc<SubGrid>> = (0..np)
        .map(|p| Arc::new(SubGrid::build(&grid, &decomp, p)))
        .collect();
    let eta_ref = Arc::new(eta_ref);

    let solve = |comm: mpisim::Comm| {
        let sub = subs[comm.rank()].clone();
        let x = RankExchange::new(&comm, &sub, 50);
        let depths_l = vec![3000.0; sub.n_cells];
        let wet_l = vec![true; sub.n_cells];
        let mut solver =
            BarotropicSolver::new(sub.as_ref(), 600.0, &depths_l, wet_l, 1e-11, 500);
        let rhs_l = Field2::from_fn(sub.n_cells, |lc| {
            let gc = sub.cell_l2g[lc] as usize;
            grid.cell_area[gc] * (grid.cell_center[gc].x + 0.4 * grid.cell_center[gc].z)
        });
        let mut eta = Field2::zeros(sub.n_cells);
        let st = solver.solve(sub.as_ref(), &x, &rhs_l, &mut eta, sub.n_owned_cells);
        assert!(st.converged, "distributed CG failed: {st:?}");
        for lc in 0..sub.n_owned_cells {
            let gc = sub.cell_l2g[lc] as usize;
            assert!(
                (eta[lc] - eta_ref[gc]).abs() < 1e-7,
                "cell {gc}: {} vs {}",
                eta[lc],
                eta_ref[gc]
            );
        }
        eta.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    };
    let (eta_bits, traces) = World::run_traced(np, None, solve);

    // Every iteration performed global reductions (3 dots) and a halo
    // exchange: the collective count must reflect that.
    let collectives = count(&traces, true);
    assert!(
        collectives > 10,
        "CG must be dominated by global communication, saw {collectives} collectives"
    );
    assert!(count(&traces, false) > 0, "halo exchanges must flow");

    // Collectives fold in rank order, whichever rank thread arrives
    // first, so a second solve reproduces the first bit for bit.
    let eta_bits_again = World::run(np, solve);
    assert_eq!(
        eta_bits_again, eta_bits,
        "np = {np}: distributed CG is not reproducible"
    );
}

#[test]
fn solver_communication_grows_with_iterations() {
    // Stiffer system (deeper ocean / longer dt) -> more CG iterations ->
    // more allreduces: the scaling-limiting behaviour of §7.
    let grid = Grid::build(2, icongrid::EARTH_RADIUS_M);
    let wet = vec![true; grid.n_cells];
    let count_collectives = |depth: f64| -> usize {
        let decomp = Decomposition::new(&grid, 2);
        let subs: Vec<Arc<SubGrid>> = (0..2)
            .map(|p| Arc::new(SubGrid::build(&grid, &decomp, p)))
            .collect();
        let wet = wet.clone();
        let grid = &grid;
        let (_, traces) = World::run_traced(2, None, |comm| {
            let sub = subs[comm.rank()].clone();
            let x = RankExchange::new(&comm, &sub, 9);
            let depths_l = vec![depth; sub.n_cells];
            let wet_l = vec![true; sub.n_cells];
            let mut solver =
                BarotropicSolver::new(sub.as_ref(), 600.0, &depths_l, wet_l, 1e-10, 800);
            let rhs_l = Field2::from_fn(sub.n_cells, |lc| {
                let gc = sub.cell_l2g[lc] as usize;
                grid.cell_area[gc] * grid.cell_center[gc].y
            });
            let mut eta = Field2::zeros(sub.n_cells);
            let st = solver.solve(sub.as_ref(), &x, &rhs_l, &mut eta, sub.n_owned_cells);
            assert!(st.converged);
        });
        let _ = wet;
        count(&traces, true)
    };
    let shallow = count_collectives(100.0);
    let deep = count_collectives(6000.0);
    assert!(
        deep > shallow,
        "deeper ocean should need more global communication: {shallow} vs {deep}"
    );
}
