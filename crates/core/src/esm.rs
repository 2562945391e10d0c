//! The coupled Earth system (Figure 1 of the paper): atmosphere, land +
//! vegetation, ocean + sea ice, and ocean biogeochemistry on one
//! icosahedral grid, exchanging energy, water, and carbon every coupling
//! window.
//!
//! Two execution modes with **identical physics** (bitwise — tested):
//!
//! * sequential — both component groups step on the caller's thread;
//! * concurrent — ocean+BGC run on their own thread
//!   ([`coupler::run_concurrent_windows`]), the structure that lets the
//!   paper execute the ocean on otherwise-idle Grace CPUs "for free".
//!
//! Both modes use the same one-window flux lag (each side consumes the
//! fluxes its peer produced in the previous window), so conservation
//! ledgers close up to the bounded in-flight fluxes of one lag.

use crate::budgets::{CarbonBudget, WaterBudget, KG_CO2_PER_KG_C, KG_C_PER_KMOL};
use crate::config::EsmConfig;
use crate::replay::{ReplayState, WindowArena};
use crate::solar;
use crate::timers::Timers;
use atmo::{AtmParams, Atmosphere};
use coupler::exchange::{run_concurrent_windows, FluxError, FluxSet};
use hamocc::Hamocc;
use icongrid::{Field2, Grid, LandSeaMask, NoExchange};
use land::{kernels::LaunchMode, LandModel, LandParams};
use ocean::{Ocean, OceanParams};
use std::sync::Arc;
use std::time::Instant;

/// Air density of the wind-stress bulk formula (kg/m^3).
const RHO_AIR: f64 = 1.2;
/// Drag coefficient.
const C_DRAG: f64 = 1.5e-3;
/// Longwave cooling: OLR = A + B * SST (W/m^2, SST in deg C).
const OLR_A: f64 = 200.0;
const OLR_B: f64 = 10.0;
/// Sensible heat exchange coefficient (W/m^2/K).
const SENSIBLE: f64 = 15.0;
/// Ocean shortwave co-albedo.
const OCEAN_CO_ALBEDO: f64 = 0.93;
/// Latent heat (J/kg), matching the atmosphere's constant.
const LATENT: f64 = 2.5e6;

/// The assembled coupled system.
pub struct CoupledEsm {
    pub cfg: EsmConfig,
    pub grid: Arc<Grid>,
    pub mask: LandSeaMask,
    pub atm: Atmosphere<Grid>,
    pub land: LandModel<Grid>,
    pub ocean: Ocean<Grid>,
    pub hamocc: Hamocc<Grid>,
    pub timers: Timers,
    /// Net freshwater delivered to the ocean since start (kg).
    pub ocean_water_received_kg: f64,
    /// Pending fluxes each side will consume in its next window.
    /// `pub(crate)` so the supervisor can stage replayed fluxes.
    pub(crate) pending_to_fast: FluxSet,
    pub(crate) pending_to_slow: FluxSet,
    /// grid cell -> land-local index (-1 over ocean).
    land_pos: Vec<i64>,
    /// Shortwave forcing at the cell centers.
    insolation: solar::Insolation,
    pub(crate) windows_run: u64,
    /// Window record/replay state (see [`crate::replay`]): records the
    /// first coupled window into an arena, replays later windows with
    /// zero fresh allocation, and drops the arena on restores.
    pub replay: ReplayState,
}

impl CoupledEsm {
    /// Build the coupled system. The coupling schedule is validated here
    /// once (see [`EsmConfig::validate`]); downstream step-count queries
    /// may then assume consistency.
    pub fn new(cfg: EsmConfig) -> CoupledEsm {
        if let Err(e) = cfg.validate() {
            panic!("inconsistent coupling schedule: {e}");
        }
        let grid = Arc::new(Grid::build(cfg.bisections, icongrid::EARTH_RADIUS_M));
        let mask = LandSeaMask::synthetic_earth(&grid, cfg.seed, cfg.land_fraction);

        // Atmosphere over the full sphere; evaporates over open ocean.
        let atm_params = AtmParams::new(cfg.atm_levels, cfg.dt_atm);
        let z_surface = Field2::from_vec(mask.elevation.clone());
        let is_water: Vec<bool> = mask.is_land.iter().map(|&l| !l).collect();
        let atm = Atmosphere::new(grid.clone(), atm_params, z_surface, is_water);

        // Land over the land cells.
        let land_cells = mask.land_cells();
        let land = LandModel::new(
            grid.clone(),
            LandParams::new(cfg.dt_atm),
            land_cells.clone(),
            &mask.elevation,
            LaunchMode::Graph,
        );
        let mut land_pos = vec![-1i64; grid.n_cells];
        for (i, &c) in land_cells.iter().enumerate() {
            land_pos[c as usize] = i as i64;
        }

        // Ocean + BGC over the wet cells.
        let ocean = Ocean::new(
            grid.clone(),
            OceanParams::new(cfg.oce_levels, cfg.dt_oce),
            &mask.bathymetry,
        );
        let hamocc = Hamocc::new(&ocean);
        let insolation = solar::Insolation::new(&grid.cell_center);

        let mut esm = CoupledEsm {
            cfg,
            grid,
            mask,
            atm,
            land,
            ocean,
            hamocc,
            timers: Timers::new(),
            ocean_water_received_kg: 0.0,
            pending_to_fast: FluxSet::new(),
            pending_to_slow: FluxSet::new(),
            land_pos,
            insolation,
            windows_run: 0,
            replay: ReplayState::default(),
        };
        esm.pending_to_fast = initial_to_fast(&esm.ocean, &esm.hamocc);
        esm.pending_to_slow = initial_to_slow(esm.grid.as_ref());
        esm
    }

    /// Run `n` coupling windows. `concurrent` moves ocean+BGC to their
    /// own thread; the physics is bitwise identical either way (and also
    /// bitwise invariant to the rayon pool width — the shim's determinism
    /// contract). A missing or malformed exchanged flux surfaces as a
    /// typed [`FluxError`] instead of a panic; component state up to the
    /// last completed window is preserved.
    pub fn run_windows(&mut self, n: usize, concurrent: bool) -> Result<(), FluxError> {
        let t0 = Instant::now();
        if concurrent {
            self.run_windows_concurrent(n)?;
        } else {
            for _ in 0..n {
                let incoming_fast = self.pending_to_fast.clone();
                let incoming_slow = self.pending_to_slow.clone();
                let fast_out = self.run_fast_window(self.windows_run, &incoming_fast)?;
                let slow_out = self.run_slow_window(&incoming_slow)?;
                self.advance_lag(fast_out, slow_out, 1);
            }
        }
        self.timers.account_call(t0, n as f64 * self.cfg.coupling_s);
        Ok(())
    }

    /// `n` windows with ocean+BGC on their own thread. The last window's
    /// outputs have no consumer inside the exchange, so each side keeps
    /// its own via closure state and they become the new lag state.
    fn run_windows_concurrent(&mut self, n: usize) -> Result<(), FluxError> {
        let window0 = self.windows_run;
        let to_fast = self.pending_to_fast.clone();
        let to_slow = self.pending_to_slow.clone();
        let mut last_fast_out = FluxSet::new();
        let mut last_slow_out = FluxSet::new();
        let (mut fast, mut slow) = self.split_sides();
        let (fast_stats, slow_stats) = run_concurrent_windows(
            n,
            to_fast,
            to_slow,
            |w, incoming| {
                let out = fast.step(window0 + w as u64, incoming)?;
                last_fast_out = out.clone();
                Ok(out)
            },
            |_w, incoming| {
                let out = slow.step(incoming)?;
                last_slow_out = out.clone();
                Ok(out)
            },
        )?;
        self.timers.atm_wait_s += fast_stats.wait_s;
        self.timers.oce_wait_s += slow_stats.wait_s;
        self.advance_lag(last_fast_out, last_slow_out, n as u64);
        Ok(())
    }

    /// The two component groups as disjoint borrows: each side gets its
    /// components and its own pair of timer buckets, so the concurrent
    /// driver can hand one side to another thread.
    fn split_sides(&mut self) -> (FastSide<'_>, SlowSide<'_>) {
        let fast = FastSide {
            cfg: &self.cfg,
            grid: &self.grid,
            atm: &mut self.atm,
            land: &mut self.land,
            land_pos: &self.land_pos,
            insolation: &mut self.insolation,
            ocean_water_received_kg: &mut self.ocean_water_received_kg,
            replay: &mut self.replay,
            wall_s: &mut self.timers.atm_land_s,
            busy_s: &mut self.timers.atm_land_busy_s,
        };
        let slow = SlowSide {
            cfg: &self.cfg,
            grid: &self.grid,
            ocean: &mut self.ocean,
            hamocc: &mut self.hamocc,
            wall_s: &mut self.timers.ocean_bgc_s,
            busy_s: &mut self.timers.ocean_bgc_busy_s,
        };
        (fast, slow)
    }

    /// Make `fast_out`/`slow_out` the pending lag state after `windows`
    /// completed windows; the consumed bundles return their buffers to
    /// the replay pool.
    fn advance_lag(&mut self, fast_out: FluxSet, slow_out: FluxSet, windows: u64) {
        let consumed = std::mem::replace(&mut self.pending_to_slow, fast_out);
        self.replay.recycle(consumed);
        let consumed = std::mem::replace(&mut self.pending_to_fast, slow_out);
        self.replay.recycle(consumed);
        self.windows_run += windows;
    }

    /// One atmosphere+land window: consumes `incoming` (the slow side's
    /// previous output), returns the fast side's fluxes for the peer.
    /// Does NOT advance `windows_run` or the pending-flux lag state — the
    /// caller (the sequential loop above, the supervisor's per-side
    /// stepping) owns the schedule.
    pub fn run_fast_window(
        &mut self,
        window: u64,
        incoming: &FluxSet,
    ) -> Result<FluxSet, FluxError> {
        self.split_sides().0.step(window, incoming)
    }

    /// One ocean+BGC window. Counterpart of
    /// [`CoupledEsm::run_fast_window`].
    pub fn run_slow_window(&mut self, incoming: &FluxSet) -> Result<FluxSet, FluxError> {
        self.split_sides().1.step(incoming)
    }

    /// Simulated seconds since initialization.
    pub fn time_s(&self) -> f64 {
        self.windows_run as f64 * self.cfg.coupling_s
    }

    /// Coupling windows completed since construction.
    pub fn windows_run(&self) -> u64 {
        self.windows_run
    }

    /// Cross-component carbon stocks (kg C). Stocks only — exported
    /// fluxes live in the receiving component, so the total is conserved.
    pub fn carbon_budget(&self) -> CarbonBudget {
        let g = self.grid.as_ref();
        let atm_kg_co2 = self.atm.state.co2_mass(g, g.n_cells);
        let land_kgc: f64 = (0..self.land.n_land_cells())
            .map(|i| {
                g.cell_area[self.land.cells[i] as usize] * self.land.state.cell_carbon(i)
            })
            .sum();
        let ocean_kmol = self.hamocc.carbon_inventory(&self.ocean, g.n_cells);
        let outgassed_kmol: f64 = (0..g.n_cells)
            .filter(|&c| self.ocean.mask.wet_cell[c])
            .map(|c| g.cell_area[c] * self.hamocc.co2_flux_acc[c])
            .sum();
        CarbonBudget {
            atmosphere: atm_kg_co2 / KG_CO2_PER_KG_C,
            land: land_kgc,
            ocean: (ocean_kmol - outgassed_kmol) * KG_C_PER_KMOL,
        }
    }

    /// Cross-component water stocks (kg).
    pub fn water_budget(&self) -> WaterBudget {
        let g = self.grid.as_ref();
        let mut atm_kg = 0.0;
        for c in 0..g.n_cells {
            let mut col = 0.0;
            for k in 0..self.cfg.atm_levels {
                col += self.atm.state.delta.at(c, k)
                    * (self.atm.state.qv.at(c, k) + self.atm.state.qc.at(c, k));
            }
            atm_kg += g.cell_area[c] * col;
        }
        let mut land_kg = 0.0;
        for i in 0..self.land.n_land_cells() {
            let a = g.cell_area[self.land.cells[i] as usize];
            let soil_m: f64 = self
                .land
                .state
                .w_liquid
                .col(i)
                .iter()
                .chain(self.land.state.w_ice.col(i))
                .sum();
            land_kg += 1000.0 * (a * soil_m + self.land.state.river_storage[i]);
        }
        WaterBudget {
            atmosphere: atm_kg,
            land: land_kg,
            ocean_received: self.ocean_water_received_kg,
        }
    }
}

/// Near-surface air temperature diagnostic (K): the fixed bottom-layer
/// temperature plus latitude structure plus the thermal signal carried by
/// the column-mass anomaly.
fn t_air_k(atm: &Atmosphere<Grid>, g: &Grid, c: usize) -> f64 {
    let sinlat = g.cell_center[c].z;
    let kb = atm.params.nlev - 1;
    let col: f64 = atm.state.delta.col(c).iter().sum();
    let anomaly = col / atm.params.total_depth() - 1.0;
    atm.params.layer_temp[kb] + 14.0 - 38.0 * sinlat * sinlat + 60.0 * anomaly
}

/// The slow side's fluxes for the atmosphere, packed from its current
/// state: the pre-run lag state (a fresh HAMOCC has outgassed nothing
/// yet) and the output of every ocean window.
fn initial_to_fast(ocean: &Ocean<Grid>, hamocc: &Hamocc<Grid>) -> FluxSet {
    let n = ocean.grid.n_cells;
    let mut f = FluxSet::new();
    f.insert("sst", (0..n).map(|c| ocean.sst(c)).collect());
    f.insert("ice_conc", (0..n).map(|c| ocean.ice_concentration(c)).collect());
    f.insert("co2_flux_up", hamocc.co2_flux_up.as_slice().to_vec());
    f
}

fn initial_to_slow(g: &Grid) -> FluxSet {
    let mut f = FluxSet::new();
    f.insert("wind_stress_n", vec![0.0; g.n_edges]);
    f.insert("heat_flux", vec![0.0; g.n_cells]);
    f.insert("fw_flux", vec![0.0; g.n_cells]);
    f.insert("pco2_atm", vec![420.0; g.n_cells]);
    f.insert("sw_down", vec![200.0; g.n_cells]);
    f.insert("wind", vec![5.0; g.n_cells]);
    f
}

/// The atmosphere+land group's borrows of a [`CoupledEsm`].
struct FastSide<'a> {
    cfg: &'a EsmConfig,
    grid: &'a Grid,
    atm: &'a mut Atmosphere<Grid>,
    land: &'a mut LandModel<Grid>,
    land_pos: &'a [i64],
    insolation: &'a mut solar::Insolation,
    ocean_water_received_kg: &'a mut f64,
    replay: &'a mut ReplayState,
    wall_s: &'a mut f64,
    busy_s: &'a mut f64,
}

impl FastSide<'_> {
    /// One record/replay-wrapped fast window (see [`crate::replay`]) —
    /// the single place a window takes its arena, is timed, and hands
    /// the arena back, under every driver.
    fn step(&mut self, window: u64, incoming: &FluxSet) -> Result<FluxSet, FluxError> {
        let mut arena = self.replay.take(self.grid.n_cells, self.grid.n_edges);
        let out = Timers::time_with_busy(self.wall_s, self.busy_s, || {
            fast_window(
                self.atm,
                self.land,
                self.grid,
                self.land_pos,
                self.insolation,
                self.cfg,
                window,
                incoming,
                self.ocean_water_received_kg,
                &mut arena,
            )
        });
        self.replay.put_back(arena);
        out
    }
}

/// The ocean+ice+BGC group's borrows of a [`CoupledEsm`].
struct SlowSide<'a> {
    cfg: &'a EsmConfig,
    grid: &'a Grid,
    ocean: &'a mut Ocean<Grid>,
    hamocc: &'a mut Hamocc<Grid>,
    wall_s: &'a mut f64,
    busy_s: &'a mut f64,
}

impl SlowSide<'_> {
    fn step(&mut self, incoming: &FluxSet) -> Result<FluxSet, FluxError> {
        let steps = self.cfg.oce_steps_per_window();
        Timers::time_with_busy(self.wall_s, self.busy_s, || {
            slow_window(self.ocean, self.hamocc, self.grid, steps, incoming)
        })
    }
}

/// One atmosphere+land coupling window. All window-internal buffers come
/// from `arena` — freshly allocated on a recording (or replay-disabled)
/// pass, recycled on replay — with identical initial values either way,
/// so record, replay, and the eager path are bitwise identical by
/// construction.
#[allow(clippy::too_many_arguments)]
fn fast_window(
    atm: &mut Atmosphere<Grid>,
    land: &mut LandModel<Grid>,
    g: &Grid,
    land_pos: &[i64],
    insolation: &mut solar::Insolation,
    cfg: &EsmConfig,
    window: u64,
    incoming: &FluxSet,
    ocean_water_received_kg: &mut f64,
    arena: &mut WindowArena,
) -> Result<FluxSet, FluxError> {
    let n = g.n_cells;
    let steps = cfg.atm_steps_per_window();
    let dt = cfg.dt_atm;
    let window_t0 = window as f64 * cfg.coupling_s;

    // --- unpack ocean fluxes into the atmosphere's boundary state.
    // A missing field is a typed error BEFORE any state is mutated.
    let sst = incoming.try_get("sst")?;
    let ice = incoming.try_get("ice_conc")?;
    let oce_co2 = incoming.try_get("co2_flux_up")?;
    for c in 0..n {
        if land_pos[c] < 0 {
            let frozen = ice[c] >= 0.5;
            atm.state.is_water[c] = !frozen;
            atm.state.t_surface[c] = if frozen {
                271.35
            } else {
                sst[c] + 273.15
            };
            // Ocean outgassing (kg C) arrives as CO2 mass flux.
            atm.state.co2_surface_flux[c] = oce_co2[c] * KG_CO2_PER_KG_C;
        }
    }

    // --- step atmosphere + land together; accumulate window fluxes.
    arena.reset();
    for s in 0..steps {
        let t = window_t0 + s as f64 * dt;
        let sw = insolation.at(t);
        // Land forcing from the current atmosphere state and the sun.
        for (i, &gc) in land.cells.iter().enumerate() {
            let gc = gc as usize;
            land.state.sw_down[i] = sw[gc];
            land.state.precip_rate[i] = atm.state.precip_rate[gc] * 1e-3; // kg/m^2/s -> m/s
            land.state.t_air[i] = t_air_k(atm, g, gc) - 273.15;
        }
        land.step();
        // Land fluxes enter the atmosphere in the same wall step.
        for (i, &gc) in land.cells.iter().enumerate() {
            let gc = gc as usize;
            atm.state.land_moisture_flux[gc] = land.state.evapotranspiration[i] * 1000.0;
            atm.state.co2_surface_flux[gc] = land.state.nee[i] * KG_CO2_PER_KG_C;
        }
        for (c, d) in arena.discharge_m3.iter_mut().enumerate().take(n) {
            *d += land.discharge_m3[c];
        }
        atm.step(&NoExchange);
        for (c, &pos) in land_pos.iter().enumerate().take(n) {
            if pos < 0 {
                arena.precip_ocean_m[c] += atm.state.precip_rate[c] * dt * 1e-3;
                arena.evap_ocean_m[c] += atm.state.evap_rate[c] * dt * 1e-3;
            }
            arena.sw_sum[c] += sw[c];
        }
    }

    // --- pack fluxes for the ocean window.
    let kb = atm.params.nlev - 1;
    let mut wind_stress = arena.take_edges(0.0);
    for (e, ws) in wind_stress.iter_mut().enumerate() {
        let [c0, c1] = g.edge_cells[e];
        let speed = 0.5 * (atm.wind_lowest[c0 as usize] + atm.wind_lowest[c1 as usize]);
        *ws = RHO_AIR * C_DRAG * speed * atm.state.vn.at(e, kb);
    }
    let mut heat = arena.take_cells(0.0);
    let mut fw = arena.take_cells(0.0);
    let mut pco2 = arena.take_cells(420.0);
    let mut wind = arena.take_cells(0.0);
    let mut sw_mean = arena.take_cells(0.0);
    let mut received = 0.0;
    for c in 0..n {
        sw_mean[c] = arena.sw_sum[c] / steps as f64;
        wind[c] = atm.wind_lowest[c];
        pco2[c] = atm.state.co2.at(c, kb) * (28.97 / 44.0095) * 1e6;
        if land_pos[c] < 0 {
            let latent = atm.state.evap_rate[c] * LATENT;
            let sensible = SENSIBLE * ((t_air_k(atm, g, c) - 273.15) - sst[c]);
            heat[c] = OCEAN_CO_ALBEDO * sw_mean[c] - (OLR_A + OLR_B * sst[c]) - latent
                + sensible;
            fw[c] = (arena.precip_ocean_m[c] - arena.evap_ocean_m[c]
                + arena.discharge_m3[c] / g.cell_area[c])
                / cfg.coupling_s;
            received += fw[c] * g.cell_area[c] * cfg.coupling_s * 1000.0;
        }
    }
    *ocean_water_received_kg += received;

    let mut out = FluxSet::new();
    out.insert("wind_stress_n", wind_stress);
    out.insert("heat_flux", heat);
    out.insert("fw_flux", fw);
    out.insert("pco2_atm", pco2);
    out.insert("sw_down", sw_mean);
    out.insert("wind", wind);
    Ok(out)
}

/// One ocean+BGC coupling window of `steps` ocean steps.
fn slow_window(
    ocean: &mut Ocean<Grid>,
    hamocc: &mut Hamocc<Grid>,
    g: &Grid,
    steps: usize,
    incoming: &FluxSet,
) -> Result<FluxSet, FluxError> {
    let n = g.n_cells;
    // Validate the whole bundle up front so a missing field cannot leave
    // the ocean forced by half a window's fluxes.
    let wind_stress_n = incoming.try_get("wind_stress_n")?;
    let heat_flux = incoming.try_get("heat_flux")?;
    let fw_flux = incoming.try_get("fw_flux")?;
    let pco2_atm = incoming.try_get("pco2_atm")?;
    let sw_down = incoming.try_get("sw_down")?;
    let wind = incoming.try_get("wind")?;
    ocean
        .state
        .wind_stress_n
        .as_mut_slice()
        .copy_from_slice(wind_stress_n);
    ocean.state.heat_flux.as_mut_slice().copy_from_slice(heat_flux);
    ocean.state.fw_flux.as_mut_slice().copy_from_slice(fw_flux);
    ocean.state.pco2_atm.as_mut_slice().copy_from_slice(pco2_atm);
    hamocc.sw_down.as_mut_slice().copy_from_slice(sw_down);
    hamocc.wind.as_mut_slice().copy_from_slice(wind);
    hamocc.pco2_atm.as_mut_slice().copy_from_slice(pco2_atm);

    // Zero fluxes on dry cells (defensive: the masks agree by construction).
    for c in 0..n {
        if !ocean.mask.wet_cell[c] {
            ocean.state.heat_flux[c] = 0.0;
            ocean.state.fw_flux[c] = 0.0;
        }
    }

    for _ in 0..steps {
        ocean.step(&NoExchange, n);
        hamocc.step(&NoExchange, ocean);
    }

    Ok(initial_to_fast(ocean, hamocc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CoupledEsm {
        CoupledEsm::new(EsmConfig::tiny())
    }

    #[test]
    fn fluxspec_tables_match_the_actual_exchange_bundles() {
        // `fluxspec::consumed_by_*` restates what the window functions
        // unpack; pin the tables against the real `FluxSet` keys so the
        // declaration and the code cannot drift apart.
        let esm = tiny();
        let to_fast = initial_to_fast(&esm.ocean, &esm.hamocc);
        let mut want: Vec<&str> = crate::fluxspec::consumed_by_fast()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        let mut got: Vec<&str> = to_fast.fields.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "fast-side bundle drifted from fluxspec");

        let to_slow = initial_to_slow(esm.grid.as_ref());
        let mut want: Vec<&str> = crate::fluxspec::consumed_by_slow()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        let mut got: Vec<&str> = to_slow.fields.iter().map(|(n, _)| *n).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, want, "slow-side bundle drifted from fluxspec");
    }

    #[test]
    fn builds_all_components_consistently() {
        let esm = tiny();
        let g = esm.grid.as_ref();
        assert_eq!(esm.land.n_land_cells() + esm.ocean.mask.n_wet_cells(), g.n_cells);
        // Component masks agree with the land-sea mask.
        for c in 0..g.n_cells {
            assert_eq!(esm.mask.is_land[c], !esm.ocean.mask.wet_cell[c]);
            assert_eq!(esm.mask.is_land[c], esm.land_pos[c] >= 0);
        }
    }

    #[test]
    fn carbon_is_conserved_across_components() {
        let mut esm = tiny();
        let before = esm.carbon_budget();
        esm.run_windows(3, false).unwrap();
        let after = esm.carbon_budget();
        let rel = (after.total() - before.total()).abs() / before.total();
        assert!(
            rel < 1e-5,
            "carbon drift {rel:e}: {before:?} -> {after:?}"
        );
        // And carbon actually moved between components.
        assert!(
            (after.atmosphere - before.atmosphere).abs() > 0.0
                || (after.land - before.land).abs() > 0.0
        );
    }

    #[test]
    fn water_is_conserved_across_components() {
        let mut esm = tiny();
        let before = esm.water_budget();
        esm.run_windows(3, false).unwrap();
        let after = esm.water_budget();
        let rel = (after.total() - before.total()).abs() / before.total();
        assert!(rel < 1e-3, "water drift {rel:e}: {before:?} -> {after:?}");
    }

    #[test]
    fn serial_and_concurrent_runs_agree_bitwise() {
        let mut a = tiny();
        let mut b = tiny();
        a.run_windows(2, false).unwrap();
        b.run_windows(2, true).unwrap();
        assert_eq!(a.atm.state, b.atm.state, "atmosphere state diverged");
        assert_eq!(a.ocean.state, b.ocean.state, "ocean state diverged");
        assert_eq!(a.land.state, b.land.state, "land state diverged");
        for (x, y) in a.hamocc.tracers.iter().zip(&b.hamocc.tracers) {
            assert_eq!(x, y, "BGC tracers diverged");
        }
    }

    #[test]
    fn restart_is_bit_exact() {
        let mut reference = tiny();
        reference.run_windows(2, false).unwrap();
        let snap = reference.snapshot();
        reference.run_windows(2, false).unwrap();

        let mut restored = tiny();
        restored.restore(&snap);
        restored.run_windows(2, false).unwrap();

        assert_eq!(reference.atm.state, restored.atm.state);
        assert_eq!(reference.ocean.state, restored.ocean.state);
        assert_eq!(reference.land.state, restored.land.state);
        for (x, y) in reference.hamocc.tracers.iter().zip(&restored.hamocc.tracers) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn coupled_climate_is_active() {
        let mut esm = tiny();
        esm.run_windows(6, false).unwrap();
        // Wind spun up.
        let wind: f64 = esm.atm.state.vn.as_slice().iter().map(|v| v.abs()).sum();
        assert!(wind > 0.0, "atmosphere at rest");
        // The ocean felt the wind.
        let stress: f64 = (0..esm.grid.n_edges)
            .map(|e| esm.ocean.state.wind_stress_n[e].abs())
            .sum();
        assert!(stress > 0.0, "no wind stress delivered");
        // Vegetation photosynthesized somewhere in the sunlight.
        assert!(
            esm.land.state.nee_acc.iter().any(|&x| x != 0.0),
            "carbon cycle inactive"
        );
        // Biogeochemistry produced.
        assert!(esm.hamocc.npp.max() > 0.0, "no ocean productivity");
        // CO2 crossed the air-sea interface somewhere.
        assert!(
            esm.hamocc.co2_flux_acc.as_slice().iter().any(|&x| x != 0.0),
            "no air-sea carbon exchange"
        );
        assert_eq!(esm.time_s(), 6.0 * esm.cfg.coupling_s);
    }

    #[test]
    fn timers_and_tau_are_recorded() {
        let mut esm = tiny();
        esm.run_windows(2, false).unwrap();
        assert!(esm.timers.total_s > 0.0);
        assert!(esm.timers.atm_land_s > 0.0);
        assert!(esm.timers.ocean_bgc_s > 0.0);
        assert_eq!(esm.timers.simulated_s, 2.0 * esm.cfg.coupling_s);
        assert!(esm.timers.tau() > 0.0);
        assert_eq!(esm.timers.threads, rayon::current_num_threads());
    }

    /// Concurrent coupling must record the same compute buckets as the
    /// sequential path (via per-side locals merged after the join), and
    /// neither side's bucket may absorb the other's wall time.
    #[test]
    fn concurrent_mode_records_compute_buckets() {
        let mut esm = tiny();
        esm.run_windows(2, true).unwrap();
        assert!(esm.timers.atm_land_s > 0.0, "{:?}", esm.timers);
        assert!(esm.timers.ocean_bgc_s > 0.0, "{:?}", esm.timers);
        // Each side runs on its own thread for the whole span, so a bucket
        // that double-counted the other side would exceed total wall time.
        assert!(
            esm.timers.atm_land_s <= esm.timers.total_s + 1e-3,
            "atm bucket exceeds wall span: {:?}",
            esm.timers
        );
        assert!(
            esm.timers.ocean_bgc_s <= esm.timers.total_s + 1e-3,
            "ocean bucket exceeds wall span: {:?}",
            esm.timers
        );
        // Busy time only accrues when kernels actually run in the pool;
        // never negative either way.
        assert!(esm.timers.atm_land_busy_s >= 0.0);
        assert!(esm.timers.ocean_bgc_busy_s >= 0.0);
    }

    /// The per-side snapshots plus the coupler lag state compose to a
    /// bit-exact restart — the contract localized rank recovery builds on.
    #[test]
    fn per_side_snapshots_compose_to_the_full_restart() {
        let mut reference = tiny();
        reference.run_windows(2, false).unwrap();
        let fast = reference.snapshot_fast();
        let slow = reference.snapshot_slow();
        let pend_fast = reference.pending_to_fast.clone();
        let pend_slow = reference.pending_to_slow.clone();
        let windows = reference.windows_run();
        reference.run_windows(1, false).unwrap();

        let mut restored = tiny();
        restored.restore_fast(&fast);
        restored.restore_slow(&slow);
        restored.pending_to_fast = pend_fast;
        restored.pending_to_slow = pend_slow;
        restored.windows_run = windows;
        restored.run_windows(1, false).unwrap();

        assert_eq!(reference.atm.state, restored.atm.state);
        assert_eq!(reference.ocean.state, restored.ocean.state);
        assert_eq!(reference.land.state, restored.land.state);
        for (x, y) in reference.hamocc.tracers.iter().zip(&restored.hamocc.tracers) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn missing_flux_field_is_a_typed_error_not_a_panic() {
        let mut esm = tiny();
        esm.pending_to_fast = FluxSet::new(); // drop the ocean's bundle
        let err = esm.run_windows(1, false).unwrap_err();
        assert!(matches!(err, FluxError::MissingField { .. }), "{err}");
        // The failed window did not count.
        assert_eq!(esm.windows_run(), 0);
    }

    /// A window that fails hands its arena back like a good one: the
    /// next good window replays through it, with no re-record and no
    /// fresh allocation.
    #[test]
    fn a_failed_fast_window_leaves_the_arena_live() {
        let mut esm = tiny();
        // Window 0 records; window 1 primes the pools.
        esm.run_windows(2, false).unwrap();
        let allocations = esm.replay.arena_allocations();
        let err = esm.run_fast_window(2, &FluxSet::new()).unwrap_err();
        assert!(matches!(err, FluxError::MissingField { .. }), "{err}");
        assert!(esm.replay.has_graph(), "the failed window put its arena back");
        esm.run_windows(1, false).unwrap();
        let stats = esm.replay.stats;
        assert_eq!((stats.recorded_windows, stats.rerecords, stats.invalidations), (1, 0, 0));
        assert_eq!(stats.replayed_windows, 3, "window 1, the failed window, window 2");
        assert_eq!(esm.replay.arena_allocations(), allocations);
    }

    #[test]
    fn externally_driven_windows_match_run_windows_bitwise() {
        let mut a = tiny();
        let mut b = tiny();
        a.run_windows(2, false).unwrap();
        for w in 0..2u64 {
            let incoming_fast = b.pending_to_fast.clone();
            let incoming_slow = b.pending_to_slow.clone();
            let fast_out = b.run_fast_window(w, &incoming_fast).unwrap();
            let slow_out = b.run_slow_window(&incoming_slow).unwrap();
            b.pending_to_slow = fast_out;
            b.pending_to_fast = slow_out;
            b.windows_run += 1;
        }
        assert_eq!(a.atm.state, b.atm.state);
        assert_eq!(a.ocean.state, b.ocean.state);
        assert_eq!(a.land.state, b.land.state);
    }

    #[test]
    fn everything_stays_finite_over_a_simulated_day() {
        let mut esm = tiny();
        let windows = (86_400.0 / esm.cfg.coupling_s) as usize;
        esm.run_windows(windows, false).unwrap();
        assert!(esm.atm.state.vn.as_slice().iter().all(|v| v.is_finite()));
        assert!(esm.atm.state.delta.min() > 0.0);
        assert!(esm.ocean.state.temp.as_slice().iter().all(|v| v.is_finite()));
        assert!(esm
            .hamocc
            .tracers
            .iter()
            .all(|t| t.as_slice().iter().all(|v| v.is_finite())));
        assert!(esm.land.state.pools.iter().all(|v| *v >= 0.0));
        // The sun drove a hydrological cycle.
        assert!(esm.atm.state.precip_acc.max() > 0.0 || esm.atm.state.evap_acc.max() > 0.0);
    }
}
