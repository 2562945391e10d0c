//! The assembled biogeochemistry component: transport (the ocean's
//! velocities through `icongrid::transport`), particle sinking with
//! sediment burial, ecosystem dynamics, and air–sea exchange.

use crate::biology::{ecosystem_column, BioParams};
use crate::carbonate;
use crate::tracers::{Tracer, N_TRACERS, REDFIELD_C};
use icongrid::column::{implicit_diffusion, Layers};
use icongrid::exchange::Exchange;
use icongrid::ops::CGrid;
use icongrid::transport::{upwind, EdgeFlux};
use icongrid::{Field2, Field3};
use ocean::Ocean;
use rayon::prelude::*;
use std::sync::Arc;

/// One HAMOCC instance sharing the grid (and mask) of an [`Ocean`].
pub struct Hamocc<G: CGrid> {
    pub grid: Arc<G>,
    pub bio: BioParams,
    /// The 19 tracer fields, indexed by [`Tracer`].
    pub tracers: Vec<Field3>,
    /// Buried phosphorus / carbon / silicon per cell (column totals,
    /// tracer units * m).
    pub sediment_p: Field2,
    pub sediment_c: Field2,
    pub sediment_si: Field2,
    /// Air-sea CO2 flux of the last step (kg C/m^2/s, positive = into the
    /// atmosphere), for the coupler and Figure 5.
    pub co2_flux_up: Field2,
    /// Accumulated outgassed carbon (kmol C/m^2) for the budget.
    pub co2_flux_acc: Field2,
    /// Net primary production of the last step (kmol P/m^2/s).
    pub npp: Field2,
    // forcing
    /// Surface shortwave (W/m^2), from the coupler.
    pub sw_down: Field2,
    /// Surface wind speed (m/s), from the coupler.
    pub wind: Field2,
    /// Atmospheric pCO2 (uatm), from the coupler.
    pub pco2_atm: Field2,
    tracer_old: Field3,
    depth_mid: Vec<f64>,
    /// `bio.light_attenuation(depth_mid)`, tabled at construction.
    light_atten: Vec<f64>,
    steps_taken: u64,
}

impl<G: CGrid> Hamocc<G> {
    /// Initialize on the ocean's grid with climatological vertical
    /// profiles (the stand-in for the paper's spun-up biogeochemical
    /// state).
    pub fn new(oce: &Ocean<G>) -> Hamocc<G> {
        let grid = oce.grid.clone();
        let nlev = oce.params.nlev;
        let n_cells = grid.n_cells();
        let mut depth_mid = Vec::with_capacity(nlev);
        let mut acc = 0.0;
        for k in 0..nlev {
            depth_mid.push(acc + 0.5 * oce.params.dz[k]);
            acc += oce.params.dz[k];
        }
        let total = acc;
        let tracers: Vec<Field3> = Tracer::ALL
            .iter()
            .map(|t| {
                Field3::from_fn(n_cells, nlev, |c, k| {
                    if !oce.mask.wet_cell[c] || k >= oce.mask.cell_levels[c] as usize {
                        return 0.0;
                    }
                    let f = 1.0 + (t.deep_enrichment() - 1.0) * (depth_mid[k] / total).min(1.0) * 2.0;
                    t.surface_init() * f.max(0.01)
                })
            })
            .collect();
        let bio = BioParams::default();
        let light_atten = bio.light_attenuation(&depth_mid);
        Hamocc {
            grid,
            bio,
            tracers,
            sediment_p: Field2::zeros(n_cells),
            sediment_c: Field2::zeros(n_cells),
            sediment_si: Field2::zeros(n_cells),
            co2_flux_up: Field2::zeros(n_cells),
            co2_flux_acc: Field2::zeros(n_cells),
            npp: Field2::zeros(n_cells),
            sw_down: Field2::from_fn(n_cells, |_| 200.0),
            wind: Field2::from_fn(n_cells, |_| 7.0),
            pco2_atm: Field2::from_fn(n_cells, |_| 420.0),
            tracer_old: Field3::zeros(n_cells, nlev),
            depth_mid,
            light_atten,
            steps_taken: 0,
        }
    }

    #[inline]
    pub fn tracer(&self, t: Tracer) -> &Field3 {
        &self.tracers[t.idx()]
    }

    /// Advance one step on the ocean's time level: transport, mixing,
    /// sinking, ecosystem, air–sea exchange.
    pub fn step<X: Exchange>(&mut self, x: &X, oce: &Ocean<G>) {
        let g = self.grid.as_ref();
        let p = &oce.params;
        let mask = &oce.mask;
        let dt = p.dt;
        let n_cells = g.n_cells();

        // --- transport: the "large three-dimensional fields" of §5.1.
        {
            let mut tracers: Vec<&mut Field3> = self.tracers.iter_mut().collect();
            let levels = Some((&mask.cell_levels[..], &mask.edge_levels[..]));
            let flux = EdgeFlux::PerLength(&oce.state.vn);
            let vertical = Some((&oce.state.w, &p.dz[..]));
            upwind(g, flux, None, levels, vertical, dt, &mut tracers, &mut self.tracer_old);
            x.cells3_many(&mut tracers);
        }
        for tr in self.tracers.iter_mut() {
            implicit_diffusion(
                tr,
                Layers::Thickness(&p.dz),
                Some(&mask.cell_levels),
                p.kv_tracer,
                dt,
            );
        }

        // --- particle sinking with burial at the sea floor, then the
        // ecosystem: one column-parallel drive. Per cell the four sinking
        // tracers go down in `Tracer::ALL` order before the ecosystem runs.
        let bio = &self.bio;
        let depth_mid = &self.depth_mid;
        let light_atten = &self.light_atten;
        let sw = &self.sw_down;
        // The 19 tracer columns of each cell, cell after cell.
        let mut cols: Vec<&mut [f64]> = Vec::with_capacity(n_cells * N_TRACERS);
        let mut per_tracer: Vec<_> = self.tracers.iter_mut().map(|f| f.chunks_mut()).collect();
        for _ in 0..n_cells {
            for it in per_tracer.iter_mut() {
                cols.push(it.next().expect("one column per cell"));
            }
        }
        cols.par_chunks_mut(N_TRACERS)
            .zip(self.npp.as_mut_slice().par_iter_mut())
            .zip(self.sediment_p.as_mut_slice().par_iter_mut())
            .zip(self.sediment_c.as_mut_slice().par_iter_mut())
            .zip(self.sediment_si.as_mut_slice().par_iter_mut())
            .enumerate()
            .for_each(|(c, ((((cols, npp), sed_p), sed_c), sed_si))| {
                let na = mask.cell_levels[c] as usize;
                if na == 0 {
                    *npp = 0.0;
                    return;
                }
                let cols: &mut [&mut [f64]; N_TRACERS] = cols.try_into().expect("19 tracers");
                for t in Tracer::ALL {
                    let ws = t.sinking_speed();
                    if ws == 0.0 {
                        continue;
                    }
                    // Downward upwind transport between layers.
                    let mut flux_in = 0.0; // from above
                    for (k, ck) in cols[t.idx()].iter_mut().enumerate().take(na) {
                        // Amount leaving downward this step (units * m).
                        let out = (ws * dt / p.dz[k]).min(1.0) * *ck * p.dz[k];
                        *ck += (flux_in - out) / p.dz[k];
                        flux_in = out;
                    }
                    // flux_in now exits the column floor: burial (dust is
                    // buried but not tracked in budgets).
                    match t {
                        Tracer::Detritus => *sed_p += flux_in,
                        Tracer::Calcite => *sed_c += flux_in,
                        Tracer::Opal => *sed_si += flux_in,
                        _ => {}
                    }
                }
                *npp = ecosystem_column(bio, cols, &p.dz, depth_mid, light_atten, na, sw[c], dt);
            });

        // --- air-sea CO2 exchange and O2 ventilation at the surface.
        for c in 0..n_cells {
            if !mask.wet_cell[c] {
                self.co2_flux_up[c] = 0.0;
                continue;
            }
            let dic = self.tracers[Tracer::Dic.idx()].at(c, 0);
            let alk = self.tracers[Tracer::Alkalinity.idx()].at(c, 0);
            let t0 = oce.state.temp.at(c, 0);
            let ice = ocean::seaice::ice_concentration(oce.state.ice_thick[c]);
            let flux = carbonate::air_sea_co2_flux(dic, alk, t0, self.wind[c], self.pco2_atm[c], ice);
            // Limit to the available DIC per step.
            let flux = flux.min(0.2 * dic * p.dz[0] / dt);
            *self.tracers[Tracer::Dic.idx()].at_mut(c, 0) -= flux * dt / p.dz[0];
            self.co2_flux_acc[c] += flux * dt;
            self.co2_flux_up[c] = flux * carbonate::CARBON_KG_PER_KMOL;

            // O2: relax toward saturation (air-sea O2 not budget-tracked).
            let sat = carbonate::o2_saturation(t0);
            let o2 = self.tracers[Tracer::Oxygen.idx()].at_mut(c, 0);
            *o2 += (sat - *o2) * (dt / (10.0 * 86_400.0)) * (1.0 - ice);
        }

        self.steps_taken += 1;
    }

    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Mid-layer depths (m) and their light attenuation factors.
    pub fn light_levels(&self) -> (&[f64], &[f64]) {
        (&self.depth_mid, &self.light_atten)
    }

    /// Total ocean carbon (kmol C): dissolved + shells + organic matter +
    /// buried + already outgassed. Constant under internal dynamics.
    pub fn carbon_inventory(&self, oce: &Ocean<G>, owned: usize) -> f64 {
        let g = self.grid.as_ref();
        let p = &oce.params;
        let mut total = 0.0;
        for c in 0..owned {
            if !oce.mask.wet_cell[c] {
                continue;
            }
            let a = g.cell_area(c);
            let na = oce.mask.cell_levels[c] as usize;
            let mut col = 0.0;
            for k in 0..na {
                let mut carbon = self.tracers[Tracer::Dic.idx()].at(c, k)
                    + self.tracers[Tracer::Calcite.idx()].at(c, k);
                for t in Tracer::ALL {
                    if t.is_organic_p() {
                        carbon += self.tracers[t.idx()].at(c, k) * REDFIELD_C;
                    }
                }
                col += carbon * p.dz[k];
            }
            total += a
                * (col
                    + self.sediment_c[c]
                    + self.sediment_p[c] * REDFIELD_C
                    + self.co2_flux_acc[c]);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::{Grid, NoExchange};
    use ocean::OceanParams;

    fn setup() -> (Ocean<Grid>, Hamocc<Grid>) {
        let g = Arc::new(Grid::build(2, icongrid::EARTH_RADIUS_M));
        let p = OceanParams::new(6, 600.0);
        let bathy: Vec<f64> = (0..g.n_cells)
            .map(|c| {
                if g.cell_center[c].z > 0.9 {
                    0.0
                } else {
                    3000.0
                }
            })
            .collect();
        let oce = Ocean::new(g, p, &bathy);
        let ham = Hamocc::new(&oce);
        (oce, ham)
    }

    #[test]
    fn initialization_matches_table2_shape() {
        let (oce, ham) = setup();
        assert_eq!(ham.tracers.len(), 19);
        for tr in &ham.tracers {
            assert_eq!(tr.nlev(), oce.params.nlev);
        }
        // Dry cells carry no tracer.
        for c in 0..ham.grid.n_cells {
            if !oce.mask.wet_cell[c] {
                assert_eq!(ham.tracer(Tracer::Dic).at(c, 0), 0.0);
            }
        }
    }

    #[test]
    fn carbon_is_conserved_without_air_sea_gradient() {
        let (mut oce, mut ham) = setup();
        let g = oce.grid.clone();
        let before = ham.carbon_inventory(&oce, g.n_cells);
        for _ in 0..10 {
            oce.step(&NoExchange, g.n_cells);
            ham.step(&NoExchange, &oce);
        }
        let after = ham.carbon_inventory(&oce, g.n_cells);
        // Inventory includes outgassed carbon, so this closes exactly up
        // to the biology's positivity clipping.
        assert!(
            ((after - before) / before).abs() < 1e-6,
            "carbon {before:e} -> {after:e}"
        );
    }

    #[test]
    fn surface_bloom_where_the_light_is() {
        let (mut oce, mut ham) = setup();
        let g = oce.grid.clone();
        // Equatorial light maximum.
        for c in 0..g.n_cells {
            let z = g.cell_center[c].z;
            ham.sw_down[c] = 320.0 * (1.0 - z * z).max(0.0);
        }
        for _ in 0..100 {
            oce.step(&NoExchange, g.n_cells);
            ham.step(&NoExchange, &oce);
        }
        // Phytoplankton at the surface beats phytoplankton at depth.
        let mut surf = 0.0;
        let mut deep = 0.0;
        for c in 0..g.n_cells {
            if oce.mask.wet_cell[c] {
                surf += ham.tracer(Tracer::Phytoplankton).at(c, 0);
                deep += ham.tracer(Tracer::Phytoplankton).at(c, 5);
            }
        }
        assert!(surf > deep, "surface {surf} deep {deep}");
        assert!(ham.npp.max() > 0.0, "no primary production");
    }

    #[test]
    fn warm_supersaturated_water_outgasses() {
        let (mut oce, mut ham) = setup();
        let g = oce.grid.clone();
        // Load the surface with DIC and set low atmospheric pCO2.
        for c in 0..g.n_cells {
            if oce.mask.wet_cell[c] {
                *ham.tracers[Tracer::Dic.idx()].at_mut(c, 0) = 2.3e-3;
            }
            ham.pco2_atm[c] = 300.0;
        }
        oce.step(&NoExchange, g.n_cells);
        ham.step(&NoExchange, &oce);
        let total_flux: f64 = (0..g.n_cells).map(|c| ham.co2_flux_up[c]).sum();
        assert!(total_flux > 0.0, "should outgas, flux {total_flux}");
    }

    #[test]
    fn sinking_moves_detritus_down_and_buries_it() {
        let (mut oce, mut ham) = setup();
        let g = oce.grid.clone();
        // Seed a strong surface detritus anomaly.
        for c in 0..g.n_cells {
            if oce.mask.wet_cell[c] {
                *ham.tracers[Tracer::Detritus.idx()].at_mut(c, 0) = 1.0e-6;
            }
        }
        let deep_before: f64 = (0..g.n_cells)
            .filter(|&c| oce.mask.wet_cell[c])
            .map(|c| ham.tracer(Tracer::Detritus).at(c, 3))
            .sum();
        for _ in 0..50 {
            oce.step(&NoExchange, g.n_cells);
            ham.step(&NoExchange, &oce);
        }
        let deep_after: f64 = (0..g.n_cells)
            .filter(|&c| oce.mask.wet_cell[c])
            .map(|c| ham.tracer(Tracer::Detritus).at(c, 3))
            .sum();
        assert!(deep_after > deep_before, "detritus must reach depth");
        let buried: f64 = (0..g.n_cells).map(|c| ham.sediment_p[c]).sum();
        assert!(buried > 0.0, "nothing buried");
    }

    #[test]
    fn tracers_stay_positive_and_finite() {
        let (mut oce, mut ham) = setup();
        let g = oce.grid.clone();
        for _ in 0..30 {
            oce.step(&NoExchange, g.n_cells);
            ham.step(&NoExchange, &oce);
        }
        for (i, tr) in ham.tracers.iter().enumerate() {
            assert!(tr.min() >= 0.0, "tracer {i} went negative: {}", tr.min());
            assert!(tr.as_slice().iter().all(|v| v.is_finite()), "tracer {i} NaN");
        }
    }
}
