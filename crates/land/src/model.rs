//! The assembled land model: soil physics, per-PFT vegetation carbon
//! kernels, decomposition cascade, and river routing.

use crate::kernels::{LaunchMode, LaunchRecorder};
use crate::params::{LandParams, PFT_TABLE, N_PFT};
use crate::pools::{CarbonPool, LITTER_POOLS, SOIL_POOLS};
use crate::rivers::RiverNetwork;
use crate::soil;
use crate::state::LandState;
use icongrid::ops::CGrid;
use rayon::prelude::*;
use std::sync::Arc;

/// One land component instance over the land cells of a (sub)grid.
pub struct LandModel<G: CGrid> {
    pub grid: Arc<G>,
    pub params: LandParams,
    /// Global grid-cell ids of the land cells (land-local index order).
    pub cells: Vec<u32>,
    pub state: LandState,
    pub rivers: RiverNetwork,
    pub recorder: LaunchRecorder,
    /// PFT cover fractions per land cell.
    pft_frac: Vec<[f64; N_PFT]>,
    /// This step's river discharge per *global* grid cell (m^3).
    pub discharge_m3: Vec<f64>,
    runoff_m: Vec<f64>,
    runoff_m3: Vec<f64>,
    /// Per-step scratch, sized once: precipitation (m), cell GPP and
    /// respiration (kgC/m^2), one PFT's GPP.
    precip_m: Vec<f64>,
    gpp_cell: Vec<f64>,
    resp_cell: Vec<f64>,
    gpp_pft: Vec<f64>,
    /// This step's Q10 respiration factors per land cell, at the air
    /// temperature (autotrophic) and at the top-soil temperature (decay).
    /// No kernel of the PFT loop changes either temperature, so they are
    /// filled once per step instead of once per (cell, PFT, pool).
    q10_air: Vec<f64>,
    q10_soil: Vec<f64>,
    steps_taken: u64,
}

impl<G: CGrid> LandModel<G> {
    /// Build over the given land cells with their surface elevation
    /// (indexed by global cell id, 0 over ocean).
    pub fn new(
        grid: Arc<G>,
        params: LandParams,
        land_cells: Vec<u32>,
        elevation: &[f64],
        launch_mode: LaunchMode,
    ) -> Self {
        let state = LandState::initialize(grid.as_ref(), &params, &land_cells);
        let rivers = RiverNetwork::build(grid.as_ref(), &land_cells, elevation);
        let pft_frac: Vec<[f64; N_PFT]> = land_cells
            .iter()
            .map(|&c| params.pft_fractions(grid.cell_center(c as usize).z))
            .collect();
        let n = land_cells.len();
        let n_grid = grid.n_cells();
        LandModel {
            grid,
            params,
            cells: land_cells,
            state,
            rivers,
            recorder: LaunchRecorder::new(launch_mode),
            pft_frac,
            discharge_m3: vec![0.0; n_grid],
            runoff_m: vec![0.0; n],
            runoff_m3: vec![0.0; n],
            precip_m: vec![0.0; n],
            gpp_cell: vec![0.0; n],
            resp_cell: vec![0.0; n],
            gpp_pft: vec![0.0; n],
            q10_air: vec![0.0; n],
            q10_soil: vec![0.0; n],
            steps_taken: 0,
        }
    }

    pub fn n_land_cells(&self) -> usize {
        self.cells.len()
    }

    /// The Q10 factors of the last step per land cell: (air temperature,
    /// top-soil temperature).
    pub fn q10_tables(&self) -> (&[f64], &[f64]) {
        (&self.q10_air, &self.q10_soil)
    }

    /// Advance one land step (called every atmosphere step, §5.1).
    pub fn step(&mut self) {
        let p = &self.params;
        let dt = p.dt;
        let n = self.cells.len();
        self.recorder.begin_step();

        // ----- soil physics (a few larger kernels) -----
        self.recorder.launch("soil_temperature");
        soil::soil_temperature_step(p, &mut self.state.t_soil, &self.state.t_air);
        self.recorder.launch("freeze_thaw");
        soil::freeze_thaw(p, &self.state.t_soil, &mut self.state.w_liquid, &mut self.state.w_ice);

        self.recorder.launch("infiltration_runoff");
        // Precipitation forcing is in m/s of water.
        let precip_m = &mut self.precip_m;
        for (pm, &r) in precip_m.iter_mut().zip(&self.state.precip_rate) {
            *pm = r * dt;
        }
        soil::hydrology_step(p, &mut self.state.w_liquid, precip_m, &mut self.runoff_m);
        for (i, &pm) in precip_m.iter().enumerate().take(n) {
            self.state.precip_acc[i] += pm;
            self.state.runoff_acc[i] += self.runoff_m[i];
        }

        // Q10 factors of this step: the PFT loop reads t_air and the top
        // soil level but never writes them.
        for i in 0..n {
            self.q10_air[i] = p.q10.powf((self.state.t_air[i] - p.t_resp_ref) / 10.0);
            self.q10_soil[i] = p.q10.powf((self.state.t_soil.at(i, 0) - p.t_resp_ref) / 10.0);
        }

        // ----- vegetation: many small kernels, one per (process, PFT) ---
        // Mirrors §5.1: "the JSBach model implementation operating on
        // multiple independent plant functional types".
        let gpp_cell = &mut self.gpp_cell; // kgC/m^2 this step
        let resp_cell = &mut self.resp_cell; // autotrophic + heterotrophic
        let gpp_pft = &mut self.gpp_pft;
        gpp_cell.fill(0.0);
        resp_cell.fill(0.0);
        for pft in 0..N_PFT {
            let traits = &PFT_TABLE[pft];

            self.recorder.launch("canopy_light");
            self.recorder.launch("gpp");
            gpp_pft.fill(0.0);
            {
                let state = &self.state;
                let pft_frac = &self.pft_frac;
                gpp_pft.par_iter_mut().enumerate().for_each(|(i, g)| {
                    let frac = pft_frac[i][pft];
                    if frac <= 0.001 {
                        return;
                    }
                    let lai = state.lai[i * N_PFT + pft] / frac.max(1e-9);
                    let apar = state.sw_down[i]
                        * p.par_fraction
                        * (1.0 - (-p.k_ext * lai).exp())
                        * frac;
                    let stress = soil::water_stress(p, &state.w_liquid, i);
                    let f_t = ((state.t_air[i] - traits.t_cold) / 15.0).clamp(0.0, 1.0);
                    *g = traits.lue * apar * stress * f_t * dt;
                });
            }

            self.recorder.launch("respiration_allocation");
            for i in 0..n {
                if self.pft_frac[i][pft] <= 0.001 {
                    continue;
                }
                let q10 = self.q10_air[i];
                let live: f64 = crate::pools::LIVE_POOLS
                    .iter()
                    .map(|&pl| self.state.pool(i, pft, pl))
                    .sum();
                let ra_want = traits.resp_coef * live * q10 * dt;
                let reserve = self.state.pool(i, pft, CarbonPool::Reserve);
                let available = gpp_pft[i] + reserve;
                let ra = ra_want.min(available);
                let npp = gpp_pft[i] - ra;
                if npp >= 0.0 {
                    for (j, &pl) in crate::pools::LIVE_POOLS.iter().enumerate() {
                        *self.state.pool_mut(i, pft, pl) += npp * traits.alloc[j];
                    }
                } else {
                    *self.state.pool_mut(i, pft, CarbonPool::Reserve) += npp;
                }
                gpp_cell[i] += gpp_pft[i];
                resp_cell[i] += ra;
            }

            // Turnover: one kernel per live pool (6 small kernels / PFT).
            for &pl in &crate::pools::LIVE_POOLS {
                self.recorder.launch("turnover");
                let target = pl.turnover_target().expect("live pool sheds");
                for i in 0..n {
                    if self.pft_frac[i][pft] <= 0.001 {
                        continue;
                    }
                    let tau = match pl {
                        CarbonPool::Leaf => {
                            // Cold phenology: shed leaves within days
                            // below t_cold.
                            if self.state.t_air[i] < traits.t_cold {
                                2.0 * 86_400.0
                            } else {
                                traits.tau_leaf
                            }
                        }
                        CarbonPool::Wood | CarbonPool::CoarseRoot => traits.tau_wood,
                        _ => traits.tau_leaf,
                    };
                    let amount = self.state.pool(i, pft, pl) * (dt / tau).min(1.0);
                    *self.state.pool_mut(i, pft, pl) -= amount;
                    *self.state.pool_mut(i, pft, target) += amount;
                }
            }

            self.recorder.launch("lai");
            for i in 0..n {
                self.state.lai[i * N_PFT + pft] =
                    self.state.pool(i, pft, CarbonPool::Leaf) * traits.sla;
            }

            // Decomposition cascade: one kernel per dead pool (12 / PFT).
            for &pl in LITTER_POOLS.iter().chain(&SOIL_POOLS) {
                self.recorder.launch("decay");
                let tau = pl.decay_tau().expect("dead pool decays");
                let target = pl.decay_target();
                for (i, resp) in resp_cell.iter_mut().enumerate().take(n) {
                    if self.pft_frac[i][pft] <= 0.001 {
                        continue;
                    }
                    let q10 = self.q10_soil[i];
                    let d = self.state.pool(i, pft, pl) * (dt / tau * q10).min(1.0);
                    *self.state.pool_mut(i, pft, pl) -= d;
                    match target {
                        Some(tgt) => {
                            let humified = p.humification * d;
                            *self.state.pool_mut(i, pft, tgt) += humified;
                            *resp += d - humified;
                        }
                        None => *resp += d,
                    }
                }
            }
        }

        // ----- fluxes to the atmosphere and water extraction -----
        self.recorder.launch("nee_and_transpiration");
        for i in 0..n {
            let nee_step = resp_cell[i] - gpp_cell[i]; // kgC/m^2, + = out
            self.state.nee[i] = nee_step / dt;
            self.state.nee_acc[i] += nee_step;
            // Transpiration proportional to carbon fixed, limited by soil
            // water in the root zone.
            let want_m = gpp_cell[i] * p.water_use * 1e-3;
            let mut left = want_m;
            for k in 0..3 {
                let take = left.min(self.state.w_liquid.at(i, k));
                *self.state.w_liquid.at_mut(i, k) -= take;
                left -= take;
            }
            let et = want_m - left;
            self.state.evapotranspiration[i] = et / dt;
            self.state.et_acc[i] += et;
        }

        // ----- river routing -----
        self.recorder.launch("river_routing");
        self.discharge_m3.iter_mut().for_each(|d| *d = 0.0);
        for i in 0..n {
            self.runoff_m3[i] = self.runoff_m[i] * self.grid.cell_area(self.cells[i] as usize);
        }
        self.rivers.route(
            dt / p.tau_river,
            &mut self.state.river_storage,
            &self.runoff_m3,
            &mut self.discharge_m3,
        );

        self.recorder.end_step();
        self.state.time_s += dt;
        self.steps_taken += 1;
    }

    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::Grid;

    fn small_land(mode: LaunchMode) -> LandModel<Grid> {
        let g = Arc::new(Grid::build(2, icongrid::EARTH_RADIUS_M));
        let p = LandParams::new(1800.0);
        let land: Vec<u32> = (0..g.n_cells as u32)
            .filter(|&c| g.cell_center[c as usize].x > 0.1)
            .collect();
        let elev: Vec<f64> = (0..g.n_cells)
            .map(|c| {
                let x = g.cell_center[c].x;
                if x > 0.1 {
                    (x - 0.1) * 2000.0 + 1.0
                } else {
                    0.0
                }
            })
            .collect();
        let mut m = LandModel::new(g, p, land, &elev, mode);
        // Daylight and warmth everywhere for lively vegetation.
        m.state.sw_down.iter_mut().for_each(|s| *s = 300.0);
        m.state.t_air.iter_mut().for_each(|t| *t = 22.0);
        m.state.precip_rate.iter_mut().for_each(|r| *r = 2e-8);
        m
    }

    #[test]
    fn carbon_is_conserved_exactly() {
        let mut m = small_land(LaunchMode::Individual);
        let g = m.grid.clone();
        let before = m.state.carbon_inventory(g.as_ref(), &m.cells);
        for _ in 0..20 {
            m.step();
        }
        let after = m.state.carbon_inventory(g.as_ref(), &m.cells);
        assert!(
            ((after - before) / before).abs() < 1e-12,
            "carbon {before:e} -> {after:e}"
        );
    }

    #[test]
    fn water_budget_closes_per_cell() {
        let mut m = small_land(LaunchMode::Individual);
        let before: Vec<f64> = (0..m.n_land_cells())
            .map(|i| m.state.water_inventory(i))
            .collect();
        for _ in 0..20 {
            m.step();
        }
        for (i, &b) in before.iter().enumerate() {
            let after = m.state.water_inventory(i);
            assert!((after - b).abs() < 1e-12, "cell {i}: {b} -> {after}");
        }
    }

    #[test]
    fn photosynthesis_draws_down_and_respiration_returns() {
        let mut m = small_land(LaunchMode::Individual);
        for _ in 0..30 {
            m.step();
        }
        let gpp_active = m.state.nee.iter().any(|&x| x < 0.0);
        assert!(gpp_active, "some cells must take up carbon in daylight");
        // Dark, cold world: respiration only, NEE turns positive.
        m.state.sw_down.iter_mut().for_each(|s| *s = 0.0);
        for _ in 0..5 {
            m.step();
        }
        assert!(
            m.state.nee.iter().all(|&x| x >= 0.0),
            "no photosynthesis in the dark"
        );
        assert!(m.state.nee.iter().any(|&x| x > 0.0), "respiration continues");
    }

    #[test]
    fn lai_tracks_leaf_carbon() {
        let mut m = small_land(LaunchMode::Individual);
        for _ in 0..10 {
            m.step();
        }
        for i in (0..m.n_land_cells()).step_by(13) {
            for (pft, traits) in PFT_TABLE.iter().enumerate() {
                let expect = m.state.pool(i, pft, CarbonPool::Leaf) * traits.sla;
                assert!((m.state.lai[i * N_PFT + pft] - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rivers_deliver_runoff_to_ocean_cells() {
        let mut m = small_land(LaunchMode::Individual);
        // Torrential rain to force runoff.
        m.state.precip_rate.iter_mut().for_each(|r| *r = 2e-4);
        let mut total_discharge = 0.0;
        for _ in 0..60 {
            m.step();
            total_discharge += m.discharge_m3.iter().sum::<f64>();
        }
        assert!(total_discharge > 0.0, "no river discharge");
        // Discharge lands only on non-land cells.
        let land_set: std::collections::HashSet<u32> = m.cells.iter().cloned().collect();
        for (c, &d) in m.discharge_m3.iter().enumerate() {
            if d > 0.0 {
                assert!(!land_set.contains(&(c as u32)), "discharge onto land cell {c}");
            }
        }
    }

    #[test]
    fn graph_mode_replays_identically() {
        let mut a = small_land(LaunchMode::Individual);
        let mut b = small_land(LaunchMode::Graph);
        for _ in 0..5 {
            a.step();
            b.step();
        }
        assert_eq!(a.state, b.state, "launch mode must not change physics");
        // Individual: every step pays all launches; Graph: only step 1.
        assert!(a.recorder.kernel_launches > 4 * b.recorder.kernel_launches);
        assert_eq!(b.recorder.graph_replays, 4);
    }

    #[test]
    fn kernel_count_is_large_as_the_paper_complains() {
        let mut m = small_land(LaunchMode::Graph);
        m.step();
        let k = m.recorder.kernels_per_step();
        // ~22 kernels x 11 PFTs + soil/rivers: the "very large number of
        // additional small GPU kernels" of §5.1.
        assert!(k > 200, "only {k} kernels per step");
    }

    #[test]
    fn cold_snap_sheds_leaves() {
        let mut m = small_land(LaunchMode::Individual);
        for _ in 0..10 {
            m.step();
        }
        let lai_before: f64 = m.state.lai.iter().sum();
        m.state.t_air.iter_mut().for_each(|t| *t = -25.0);
        for _ in 0..100 {
            m.step();
        }
        let lai_after: f64 = m.state.lai.iter().sum();
        assert!(
            lai_after < 0.7 * lai_before,
            "LAI {lai_before} -> {lai_after}: phenology inactive"
        );
    }
}
