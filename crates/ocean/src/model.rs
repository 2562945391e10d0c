//! The assembled ocean component: baroclinic update, implicit barotropic
//! solve, tracer transport, convective adjustment, sea ice, surface
//! forcing.

use crate::barotropic::{BarotropicSolver, CgStats};
use crate::eos;
use crate::params::{OceanMask, OceanParams, CP_OCEAN, RHO0};
use crate::seaice;
use crate::state::OceanState;
use icongrid::column::{implicit_diffusion, Layers};
use icongrid::exchange::Exchange;
use icongrid::ops::{self, CGrid};
use icongrid::transport::{upwind, EdgeFlux};
use icongrid::{Field2, Field3};
use rayon::prelude::*;
use std::sync::Arc;

const G: f64 = 9.80665;

/// One ocean instance bound to a (sub)grid.
pub struct Ocean<Gr: CGrid> {
    pub grid: Arc<Gr>,
    pub params: OceanParams,
    pub mask: OceanMask,
    pub state: OceanState,
    solver: BarotropicSolver,
    /// Resting column depth per cell (m).
    cell_depth: Vec<f64>,
    // --- workspaces ---
    press: Field3,
    grad_p: Field3,
    cellvec: [Field3; 3],
    vt: Field3,
    zeta: Field3,
    vn_star: Field3,
    transport: Field2,
    rhs: Field2,
    div: Field3,
    tracer_old: Field3,
    /// Statistics of the last barotropic solve.
    pub last_cg: CgStats,
    steps_taken: u64,
}

impl<Gr: CGrid> Ocean<Gr> {
    /// Build from bathymetry (m, positive down, <= 0 on land).
    pub fn new(grid: Arc<Gr>, params: OceanParams, bathymetry: &[f64]) -> Self {
        let mask = OceanMask::from_bathymetry(grid.as_ref(), &params, bathymetry);
        let state = OceanState::initialize(grid.as_ref(), &params, &mask);
        let cell_depth: Vec<f64> = (0..grid.n_cells())
            .map(|c| {
                (0..mask.cell_levels[c] as usize)
                    .map(|k| params.dz[k])
                    .sum()
            })
            .collect();
        let solver = BarotropicSolver::new(
            grid.as_ref(),
            params.dt,
            &cell_depth,
            mask.wet_cell.clone(),
            params.cg_tol,
            params.cg_max_iter,
        );
        let (nc, ne, nv) = (grid.n_cells(), grid.n_edges(), grid.n_vertices());
        let nlev = params.nlev;
        Ocean {
            grid,
            params,
            mask,
            state,
            solver,
            cell_depth,
            press: Field3::zeros(nc, nlev),
            grad_p: Field3::zeros(ne, nlev),
            cellvec: [
                Field3::zeros(nc, nlev),
                Field3::zeros(nc, nlev),
                Field3::zeros(nc, nlev),
            ],
            vt: Field3::zeros(ne, nlev),
            zeta: Field3::zeros(nv, nlev),
            vn_star: Field3::zeros(ne, nlev),
            transport: Field2::zeros(ne),
            rhs: Field2::zeros(nc),
            div: Field3::zeros(nc, nlev),
            tracer_old: Field3::zeros(nc, nlev),
            last_cg: CgStats {
                iterations: 0,
                final_relative_residual: 0.0,
                converged: true,
            },
            steps_taken: 0,
        }
    }

    /// Advance one ocean step. `n_owned_cells` bounds the reduction range
    /// of the distributed CG (pass `grid.n_cells()` for serial runs).
    pub fn step<X: Exchange>(&mut self, x: &X, n_owned_cells: usize) {
        let g = self.grid.as_ref();
        let p = &self.params;
        let dt = p.dt;
        let nlev = p.nlev;

        // --- baroclinic predictor.
        eos::hydrostatic_pressure(
            p,
            &self.state.temp,
            &self.state.salt,
            self.state.eta.as_slice(),
            &mut self.press,
        );
        ops::gradient(g, &self.press, &mut self.grad_p);
        ops::reconstruct_cell_vectors(g, &self.state.vn, &mut self.cellvec);
        ops::tangential_velocity(g, &self.cellvec, &mut self.vt);
        ops::vorticity(g, &self.state.vn, &mut self.zeta);

        let mask = &self.mask;
        let state = &self.state;
        let (vt, zeta, grad_p) = (&self.vt, &self.zeta, &self.grad_p);
        let dz0 = p.dz[0];
        let drag = p.bottom_drag;
        self.vn_star
            .as_mut_slice()
            .par_chunks_mut(nlev)
            .enumerate()
            .for_each(|(e, col)| {
                let na = mask.edge_levels[e] as usize;
                let [v0, v1] = g.edge_vertices(e);
                let f_e = g.edge_coriolis(e);
                let vn = state.vn.col(e);
                let gp = grad_p.col(e);
                let vte = vt.col(e);
                let z0 = zeta.col(v0 as usize);
                let z1 = zeta.col(v1 as usize);
                for k in 0..nlev {
                    if k >= na {
                        col[k] = 0.0;
                        continue;
                    }
                    // Coriolis and vorticity turn the edge's (vn, vt)
                    // pair; the trapezoidal rule makes that turn neutral,
                    // where forward Euler grows it by sqrt(1 + (f dt)^2)
                    // every step (an e-fold per ~60 steps at the pole at
                    // dt = 1200 s).
                    let a = 0.5 * dt * (f_e + 0.5 * (z0[k] + z1[k]));
                    let turn = 2.0 * a * (vte[k] - a * vn[k]) / (1.0 + a * a);
                    let mut v = vn[k] - dt * gp[k] + turn;
                    if k == 0 {
                        v += dt * state.wind_stress_n[e] / (RHO0 * dz0);
                    }
                    if k + 1 == na {
                        v -= dt * drag * vn[k] / p.dz[k].max(1.0) * 1.0e3;
                    }
                    col[k] = v;
                }
            });
        implicit_diffusion(
            &mut self.vn_star,
            Layers::Thickness(&p.dz),
            Some(&mask.edge_levels),
            p.kv_momentum,
            dt,
        );

        // --- barotropic transport and implicit free surface.
        for e in 0..g.n_edges() {
            let na = self.mask.edge_levels[e] as usize;
            let col = self.vn_star.col(e);
            self.transport[e] = (0..na).map(|k| col[k] * p.dz[k]).sum();
        }
        for c in 0..g.n_cells() {
            if !self.mask.wet_cell[c] {
                self.rhs[c] = 0.0;
                continue;
            }
            let mut divf = 0.0;
            let edges = g.cell_edges(c);
            let signs = g.cell_edge_sign(c);
            for i in 0..3 {
                let e = edges[i] as usize;
                divf += signs[i] * g.edge_length(e) * self.transport[e];
            }
            self.rhs[c] = g.cell_area(c) * self.state.eta[c] - dt * divf
                + g.cell_area(c) * dt * self.state.fw_flux[c];
        }
        self.last_cg = self
            .solver
            .solve(g, x, &self.rhs, &mut self.state.eta, n_owned_cells);

        // --- velocity correction with the new surface gradient.
        let eta = &self.state.eta;
        let mask = &self.mask;
        self.state
            .vn
            .as_mut_slice()
            .par_chunks_mut(nlev)
            .zip(self.vn_star.as_slice().par_chunks(nlev))
            .enumerate()
            .for_each(|(e, (col, star))| {
                let na = mask.edge_levels[e] as usize;
                let [c0, c1] = g.edge_cells(e);
                let corr = if na > 0 {
                    G * dt * (eta[c1 as usize] - eta[c0 as usize]) / g.dual_edge_length(e)
                } else {
                    0.0
                };
                for k in 0..nlev {
                    col[k] = if k < na { star[k] - corr } else { 0.0 };
                }
            });
        x.edges3(&mut self.state.vn);

        // --- vertical velocity from continuity (bottom-up integration).
        ops::divergence(g, &self.state.vn, &mut self.div);
        let div = &self.div;
        self.state
            .w
            .as_mut_slice()
            .par_chunks_mut(nlev)
            .enumerate()
            .for_each(|(c, col)| {
                let na = mask.cell_levels[c] as usize;
                let d = div.col(c);
                let mut w = 0.0; // sea floor
                for k in (0..nlev).rev() {
                    if k >= na {
                        col[k] = 0.0;
                        continue;
                    }
                    w += d[k] * p.dz[k];
                    col[k] = w; // top interface of layer k, positive up
                }
            });

        // --- tracer transport (T, S) with the corrected velocities.
        {
            let OceanState { temp, salt, vn, w, .. } = &mut self.state;
            let mut tracers = [temp, salt];
            let levels = Some((&mask.cell_levels[..], &mask.edge_levels[..]));
            let flux = EdgeFlux::PerLength(vn);
            upwind(g, flux, None, levels, Some((w, &p.dz)), dt, &mut tracers, &mut self.tracer_old);
            x.cells3_many(&mut tracers);
        }

        // --- vertical mixing and convective adjustment.
        implicit_diffusion(
            &mut self.state.temp,
            Layers::Thickness(&p.dz),
            Some(&mask.cell_levels),
            p.kv_tracer,
            dt,
        );
        implicit_diffusion(
            &mut self.state.salt,
            Layers::Thickness(&p.dz),
            Some(&mask.cell_levels),
            p.kv_tracer,
            dt,
        );
        convective_adjustment(p, mask, &mut self.state.temp, &mut self.state.salt);

        // --- surface forcing and sea ice (column-local).
        let heat_to_temp = dt / (RHO0 * CP_OCEAN * p.dz[0]);
        for c in 0..g.n_cells() {
            if !self.mask.wet_cell[c] {
                continue;
            }
            let q = self.state.heat_flux[c];
            *self.state.temp.at_mut(c, 0) += q * heat_to_temp;
            self.state.heat_acc[c] += q * dt;
            // Virtual salt flux from freshwater exchange.
            let fw = self.state.fw_flux[c] * dt; // m of water this step
            let s0 = self.state.salt.at(c, 0);
            let ds = -s0 * fw / p.dz[0];
            *self.state.salt.at_mut(c, 0) += ds;
            self.state.salt_acc[c] += ds * p.dz[0];

            // Sea ice thermodynamics.
            let upd = seaice::update_ice(
                p,
                self.state.temp.at(c, 0),
                self.state.salt.at(c, 0),
                self.state.ice_thick[c],
                p.dz[0],
            );
            self.state.temp.set(c, 0, upd.t_surface);
            self.state.ice_thick[c] = upd.ice_thickness;
            *self.state.salt.at_mut(c, 0) += upd.salt_flux_psu_m / p.dz[0];
            self.state.salt_acc[c] += upd.salt_flux_psu_m;
            self.state.ice_fw_acc[c] += upd.freshwater_m;
        }

        self.state.time_s += dt;
        self.steps_taken += 1;
    }

    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Sea-surface temperature for the coupler (deg C).
    pub fn sst(&self, c: usize) -> f64 {
        self.state.temp.at(c, 0)
    }

    /// Sea-ice concentration for the coupler (0..1).
    pub fn ice_concentration(&self, c: usize) -> f64 {
        seaice::ice_concentration(self.state.ice_thick[c])
    }

    /// Resting column depth (m) per cell.
    pub fn cell_depth(&self) -> &[f64] {
        &self.cell_depth
    }
}

/// Partial convective adjustment: where the column is statically unstable,
/// mix the offending pair conservatively (dz-weighted) with strength
/// `convective_mixing`.
pub fn convective_adjustment(
    p: &OceanParams,
    mask: &OceanMask,
    temp: &mut Field3,
    salt: &mut Field3,
) {
    let nlev = p.nlev;
    let gamma = p.convective_mixing;
    temp.as_mut_slice()
        .par_chunks_mut(nlev)
        .zip(salt.as_mut_slice().par_chunks_mut(nlev))
        .zip(mask.cell_levels.par_iter())
        .for_each(|((t, s), &na)| {
            let n = na as usize;
            for k in 0..n.saturating_sub(1) {
                if eos::unstable(p, t[k], s[k], t[k + 1], s[k + 1]) {
                    let w0 = p.dz[k];
                    let w1 = p.dz[k + 1];
                    let tm = (w0 * t[k] + w1 * t[k + 1]) / (w0 + w1);
                    let sm = (w0 * s[k] + w1 * s[k + 1]) / (w0 + w1);
                    t[k] += gamma * (tm - t[k]);
                    t[k + 1] += gamma * (tm - t[k + 1]);
                    s[k] += gamma * (sm - s[k]);
                    s[k + 1] += gamma * (sm - s[k + 1]);
                }
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::{Grid, NoExchange};

    fn small_ocean() -> Ocean<Grid> {
        let g = Arc::new(Grid::build(2, icongrid::EARTH_RADIUS_M));
        let p = OceanParams::new(6, 600.0);
        // Aqua planet with one polar continent.
        let bathy: Vec<f64> = (0..g.n_cells)
            .map(|c| {
                if g.cell_center[c].z > 0.9 {
                    0.0
                } else {
                    3500.0
                }
            })
            .collect();
        Ocean::new(g, p, &bathy)
    }

    #[test]
    #[should_panic(expected = "levels (EsmConfig::atm_levels, EsmConfig::oce_levels) exceed the limit of 256")]
    fn more_levels_than_the_accumulator_holds_is_refused_at_entry() {
        let g = Arc::new(Grid::build(0, icongrid::EARTH_RADIUS_M));
        let p = OceanParams::new(257, 600.0);
        let n_cells = g.n_cells;
        let mut o = Ocean::new(g, p, &vec![3500.0; n_cells]);
        o.step(&NoExchange, n_cells);
    }

    #[test]
    fn resting_ocean_stays_near_rest_without_forcing() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        for _ in 0..5 {
            o.step(&NoExchange, g.n_cells);
        }
        // Pressure gradients from stratification drive weak flow; it must
        // stay small and finite over a few steps.
        let vmax = o.state.vn.as_slice().iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!(vmax.is_finite());
        assert!(vmax < 5.0, "spurious velocity {vmax}");
        assert!(o.last_cg.converged, "CG must converge: {:?}", o.last_cg);
    }

    #[test]
    fn wind_stress_drives_circulation() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        // Zonal wind stress pattern.
        for e in 0..g.n_edges {
            let m = g.edge_midpoint[e];
            let east = icongrid::geom::local_east_north(&m).0;
            o.state.wind_stress_n[e] = 0.1 * east.dot(&g.edge_normal[e]);
        }
        for _ in 0..10 {
            o.step(&NoExchange, g.n_cells);
        }
        let vmax = o.state.vn.as_slice().iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!(vmax > 1e-4, "wind should move water, vmax={vmax}");
        // Ekman-layer flow concentrated near the surface.
        let surf: f64 = (0..g.n_edges).map(|e| o.state.vn.at(e, 0).abs()).sum();
        let deep: f64 = (0..g.n_edges).map(|e| o.state.vn.at(e, 5).abs()).sum();
        assert!(surf > deep, "surface {surf} deep {deep}");
    }

    #[test]
    fn heat_and_salt_conserved_without_forcing() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        let h0 = o.state.heat_content(g.as_ref(), &o.params, &o.mask, g.n_cells);
        let s0 = o.state.salt_content(g.as_ref(), &o.params, &o.mask, g.n_cells);
        for _ in 0..10 {
            o.step(&NoExchange, g.n_cells);
        }
        let h1 = o.state.heat_content(g.as_ref(), &o.params, &o.mask, g.n_cells);
        let s1 = o.state.salt_content(g.as_ref(), &o.params, &o.mask, g.n_cells);
        assert!(((h1 - h0) / h0.abs().max(1.0)).abs() < 1e-9, "heat {h0} -> {h1}");
        assert!(((s1 - s0) / s0).abs() < 1e-10, "salt {s0} -> {s1}");
    }

    #[test]
    fn surface_heating_warms_and_accumulates() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        o.state.heat_flux.fill(200.0); // W/m^2 everywhere
        let h0 = o.state.heat_content(g.as_ref(), &o.params, &o.mask, g.n_cells);
        for _ in 0..5 {
            o.step(&NoExchange, g.n_cells);
        }
        let h1 = o.state.heat_content(g.as_ref(), &o.params, &o.mask, g.n_cells);
        assert!(h1 > h0);
        // Budget closure: dH * rho0 * cp == accumulated surface heat.
        let added_j: f64 = (0..g.n_cells)
            .filter(|&c| o.mask.wet_cell[c])
            .map(|c| o.state.heat_acc[c] * g.cell_area[c])
            .sum();
        let dh_j = (h1 - h0) * RHO0 * CP_OCEAN;
        assert!(
            ((dh_j - added_j) / added_j).abs() < 1e-6,
            "heat budget: content {dh_j:.3e} vs forcing {added_j:.3e}"
        );
    }

    #[test]
    fn polar_cooling_grows_sea_ice() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        // Suppress convective heat supply from the deep so the surface
        // layer reaches the freezing point within the short test run (the
        // real polar halocline provides this stratification).
        o.params.convective_mixing = 0.0;
        o.params.kv_tracer = 0.0;
        // Very strong cooling at high southern latitudes (the initial
        // surface water starts at ~2 degC and must reach -1.8 degC within
        // the short test run; real runs cool over months).
        for c in 0..g.n_cells {
            if g.cell_center[c].z < -0.8 {
                o.state.heat_flux[c] = -5000.0;
            }
        }
        for _ in 0..120 {
            o.step(&NoExchange, g.n_cells);
        }
        let ice: f64 = (0..g.n_cells).map(|c| o.state.ice_thick[c]).sum();
        assert!(ice > 0.0, "no ice formed");
        // Ice only where it is cold.
        for c in 0..g.n_cells {
            if o.state.ice_thick[c] > 0.0 {
                assert!(g.cell_center[c].z < -0.5, "ice at cell {c}?");
            }
        }
    }

    #[test]
    fn freshwater_flux_raises_sea_level() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        o.state.fw_flux.fill(1e-6); // 1 um/s everywhere wet
        let steps = 10;
        for _ in 0..steps {
            o.step(&NoExchange, g.n_cells);
        }
        let mean_eta = o.state.mean_eta(g.as_ref(), &o.mask, g.n_cells);
        let expect = 1e-6 * o.params.dt * steps as f64;
        assert!(
            (mean_eta / expect - 1.0).abs() < 0.05,
            "mean eta {mean_eta} vs {expect}"
        );
    }

    #[test]
    fn land_cells_stay_inert() {
        let mut o = small_ocean();
        let g = o.grid.clone();
        o.state.heat_flux.fill(500.0);
        for _ in 0..5 {
            o.step(&NoExchange, g.n_cells);
        }
        for c in 0..g.n_cells {
            if !o.mask.wet_cell[c] {
                assert_eq!(o.state.eta[c], 0.0);
                assert_eq!(o.state.ice_thick[c], 0.0);
            }
        }
        for e in 0..g.n_edges {
            if !o.mask.wet_edge[e] {
                for k in 0..o.params.nlev {
                    assert_eq!(o.state.vn.at(e, k), 0.0, "dry edge {e} moved");
                }
            }
        }
    }

    #[test]
    fn convective_adjustment_removes_instability() {
        let p = OceanParams::new(4, 600.0);
        let g = Grid::build(1, icongrid::EARTH_RADIUS_M);
        let mask = OceanMask::from_bathymetry(&g, &p, &vec![4000.0; g.n_cells]);
        // Cold over warm: unstable everywhere.
        let mut t = Field3::from_fn(g.n_cells, 4, |_, k| 2.0 + 3.0 * k as f64);
        let mut s = Field3::from_fn(g.n_cells, 4, |_, _| 35.0);
        let heat0: f64 = (0..g.n_cells)
            .map(|c| t.col(c).iter().zip(&p.dz).map(|(x, d)| x * d).sum::<f64>())
            .sum();
        for _ in 0..50 {
            convective_adjustment(&p, &mask, &mut t, &mut s);
        }
        let heat1: f64 = (0..g.n_cells)
            .map(|c| t.col(c).iter().zip(&p.dz).map(|(x, d)| x * d).sum::<f64>())
            .sum();
        assert!(((heat1 - heat0) / heat0).abs() < 1e-12, "mixing conserves heat");
        // Profile is (nearly) stable now.
        for c in 0..g.n_cells {
            for k in 0..3 {
                assert!(
                    t.at(c, k) >= t.at(c, k + 1) - 0.3,
                    "cell {c} still unstable at {k}"
                );
            }
        }
    }
}
