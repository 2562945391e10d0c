//! The assembled atmosphere component: dynamics + tracers + implicit
//! vertical operators + physics, stepped on one (sub)grid.

use crate::dycore::{self, Workspace};
use crate::params::AtmParams;
use crate::physics;
use crate::state::AtmState;
use crate::tracers;
use icongrid::column::{implicit_diffusion, Layers};
use icongrid::exchange::Exchange;
use icongrid::ops::CGrid;
use icongrid::{Field2, Field3};
use std::sync::Arc;

/// One atmosphere instance bound to a grid (global or per-rank subgrid).
pub struct Atmosphere<G: CGrid> {
    pub grid: Arc<G>,
    pub params: AtmParams,
    pub state: AtmState,
    pub z_surface: Field2,
    ws: Workspace,
    delta_old: Field3,
    /// Lowest-layer wind speed at cells, diagnosed each step (coupler
    /// input and physics input).
    pub wind_lowest: Field2,
    phys: physics::PhysicsTables,
    steps_taken: u64,
}

impl<G: CGrid> Atmosphere<G> {
    /// Create a new atmosphere. `z_surface` is the surface elevation (m),
    /// `is_water` marks evaporating (ocean / sea-ice-free) cells.
    pub fn new(grid: Arc<G>, params: AtmParams, z_surface: Field2, is_water: Vec<bool>) -> Self {
        let state = AtmState::initialize(grid.as_ref(), &params, is_water);
        let ws = Workspace::new(grid.as_ref(), params.nlev);
        let nc = grid.n_cells();
        let nlev = params.nlev;
        Atmosphere {
            grid,
            params,
            state,
            z_surface,
            ws,
            delta_old: Field3::zeros(nc, nlev),
            wind_lowest: Field2::zeros(nc),
            phys: physics::PhysicsTables::default(),
            steps_taken: 0,
        }
    }

    /// Advance one full step: dynamics, consistent tracer transport,
    /// implicit vertical diffusion, column physics.
    pub fn step<X: Exchange>(&mut self, x: &X) {
        let g = self.grid.as_ref();
        let p = &self.params;

        // --- dynamics (predictor-corrector, exchanges inside).
        self.delta_old
            .as_mut_slice()
            .copy_from_slice(self.state.delta.as_slice());
        dycore::step_dynamics(g, p, &mut self.state, &self.z_surface, &mut self.ws, x);

        // --- tracers with the time-averaged mass flux.
        let dt = p.dt;
        tracers::transport(
            g,
            &self.ws.mass_flux,
            &self.delta_old,
            dt,
            &mut self.state,
            &mut self.ws.tracer_old,
            x,
        );

        // --- implicit vertical mixing (column-local, halo-consistent).
        // Momentum: plain diffusion; tracers: mass-weighted so the column
        // inventories (water, carbon) are conserved exactly.
        implicit_diffusion(&mut self.state.vn, Layers::Unit, None, p.kv_diffusion, dt);
        implicit_diffusion(
            &mut self.state.qv,
            Layers::Mass(&self.state.delta),
            None,
            p.kv_diffusion,
            dt,
        );

        // --- lowest-layer wind for physics and coupling.
        let nlev = p.nlev;
        let kb = nlev - 1;
        for c in 0..g.n_cells() {
            let vx = self.ws.cellvec[0].at(c, kb);
            let vy = self.ws.cellvec[1].at(c, kb);
            let vz = self.ws.cellvec[2].at(c, kb);
            self.wind_lowest[c] = (vx * vx + vy * vy + vz * vz).sqrt();
        }

        // --- column physics (no exchange needed: deterministic per column).
        physics::apply_physics(g, p, &mut self.state, &self.wind_lowest, &mut self.phys);

        self.state.time_s += dt;
        self.steps_taken += 1;
    }

    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Maximum |vn| (global with the exchange's reduction) — CFL monitor.
    pub fn max_wind<X: Exchange>(&self, x: &X) -> f64 {
        x.max(self.state.vn.as_slice().iter().fold(0.0f64, |a, v| a.max(v.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::{Grid, NoExchange};

    fn small_atmosphere(nlev: usize, dt: f64) -> Atmosphere<Grid> {
        let g = Arc::new(Grid::build(2, icongrid::EARTH_RADIUS_M)); // 1280 cells
        let p = AtmParams::new(nlev, dt);
        assert!(dt <= p.max_stable_dt(g.min_dual_edge_m()) * 2.0, "test dt sane");
        let zs = Field2::zeros(g.n_cells);
        let water = vec![true; g.n_cells];
        Atmosphere::new(g, p, zs, water)
    }

    #[test]
    fn dry_mass_conserved_over_many_steps() {
        let mut atm = small_atmosphere(5, 400.0);
        let g = atm.grid.clone();
        let before = atm.state.total_mass(g.as_ref(), g.n_cells);
        for _ in 0..20 {
            atm.step(&NoExchange);
        }
        let after = atm.state.total_mass(g.as_ref(), g.n_cells);
        assert!(
            ((after - before) / before).abs() < 1e-11,
            "mass {before:e} -> {after:e}"
        );
    }

    #[test]
    fn water_inventory_closed() {
        let mut atm = small_atmosphere(5, 400.0);
        let g = atm.grid.clone();
        let before = atm.state.water_inventory(g.as_ref(), g.n_cells);
        for _ in 0..20 {
            atm.step(&NoExchange);
        }
        let after = atm.state.water_inventory(g.as_ref(), g.n_cells);
        assert!(
            ((after - before) / before).abs() < 1e-9,
            "water {before:e} -> {after:e}"
        );
    }

    #[test]
    fn flow_develops_from_baroclinic_forcing() {
        let mut atm = small_atmosphere(5, 400.0);
        assert_eq!(atm.max_wind(&NoExchange), 0.0);
        for _ in 0..40 {
            atm.step(&NoExchange);
        }
        let w = atm.max_wind(&NoExchange);
        assert!(w > 0.05, "wind should spin up, got {w}");
        assert!(w < 150.0, "wind should stay bounded, got {w}");
    }

    #[test]
    fn state_remains_physical() {
        let mut atm = small_atmosphere(6, 400.0);
        for _ in 0..30 {
            atm.step(&NoExchange);
        }
        assert!(atm.state.delta.min() > 0.0, "layers stay positive");
        assert!(atm.state.qv.min() >= -1e-12);
        assert!(atm.state.qc.min() >= -1e-12);
        assert!(atm.state.co2.min() > 0.0);
        assert!(
            atm.state.vn.as_slice().iter().all(|v| v.is_finite()),
            "no NaNs in velocity"
        );
    }

    #[test]
    fn hydrological_cycle_is_active() {
        let mut atm = small_atmosphere(5, 400.0);
        // Strong surface exchange so the boundary layer saturates within
        // the short test window (production value is 1.2e-3).
        atm.params.c_exchange = 0.05;
        for _ in 0..100 {
            atm.step(&NoExchange);
        }
        // Over an all-ocean planet with a warm surface, evaporation and
        // precipitation must both occur.
        let evap: f64 = (0..atm.grid.n_cells).map(|c| atm.state.evap_acc[c]).sum();
        let rain: f64 = (0..atm.grid.n_cells).map(|c| atm.state.precip_acc[c]).sum();
        assert!(evap > 0.0, "no evaporation");
        assert!(rain > 0.0, "no precipitation");
    }

    #[test]
    fn steps_are_deterministic() {
        let run = || {
            let mut atm = small_atmosphere(4, 400.0);
            for _ in 0..5 {
                atm.step(&NoExchange);
            }
            atm.state
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "two identical runs must agree bitwise");
    }

    #[test]
    fn co2_is_inert_without_surface_flux() {
        let mut atm = small_atmosphere(4, 400.0);
        let g = atm.grid.clone();
        let before = atm.state.co2_mass(g.as_ref(), g.n_cells);
        for _ in 0..10 {
            atm.step(&NoExchange);
        }
        let after = atm.state.co2_mass(g.as_ref(), g.n_cells);
        assert!(((after - before) / before).abs() < 1e-10);
    }
}
