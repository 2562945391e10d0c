//! Prognostic and forcing state of the ocean.

use crate::params::{OceanMask, OceanParams, T_FREEZE};
use icongrid::ops::CGrid;
use icongrid::{Field2, Field3};

/// Ocean prognostic state (Table 2: 5 prognostic variables — 1.5 velocity,
/// temperature, salinity, surface height — plus sea ice).
#[derive(Debug, Clone, PartialEq)]
pub struct OceanState {
    /// Edge-normal velocity (m/s).
    pub vn: Field3,
    /// Potential temperature (deg C).
    pub temp: Field3,
    /// Salinity (psu).
    pub salt: Field3,
    /// Surface elevation (m).
    pub eta: Field2,
    /// Sea-ice thickness (m).
    pub ice_thick: Field2,
    /// Diagnosed vertical velocity at layer interfaces (m/s), nlev+1
    /// entries per column conceptually; stored with nlev (top interface
    /// of each layer).
    pub w: Field3,

    // --- forcing from the coupler ---
    /// Surface wind stress, edge-normal component (N/m^2).
    pub wind_stress_n: Field2,
    /// Net surface heat flux into the ocean (W/m^2).
    pub heat_flux: Field2,
    /// Freshwater flux into the ocean (m/s of water; precip - evap +
    /// river discharge).
    pub fw_flux: Field2,
    /// Atmospheric CO2 partial pressure proxy (for HAMOCC's air-sea flux).
    pub pco2_atm: Field2,

    // --- accumulated budgets ---
    /// Heat added through the surface since start (J/m^2-equivalent
    /// accumulated per cell).
    pub heat_acc: Field2,
    /// Virtual salt flux accumulated (psu * m), for the salt budget.
    pub salt_acc: Field2,
    /// Freshwater from ice melt/freeze accumulated (m).
    pub ice_fw_acc: Field2,
    pub time_s: f64,
}

impl OceanState {
    /// Initialize a climatological stratified state: warm, fresh-ish
    /// surface waters at low latitudes, cold deep water, slight
    /// perturbation — the stand-in for the paper's spun-up ocean state.
    pub fn initialize<G: CGrid>(grid: &G, p: &OceanParams, mask: &OceanMask) -> OceanState {
        let n_cells = grid.n_cells();
        let n_edges = grid.n_edges();
        let nlev = p.nlev;
        let mut depth_mid = Vec::with_capacity(nlev);
        let mut acc = 0.0;
        for k in 0..nlev {
            depth_mid.push(acc + 0.5 * p.dz[k]);
            acc += p.dz[k];
        }

        let temp = Field3::from_fn(n_cells, nlev, |c, k| {
            if !mask.wet_cell[c] || k >= mask.cell_levels[c] as usize {
                return p.t_ref;
            }
            let sinlat = grid.cell_center(c).z;
            // Surface no colder than the deep water, so the thermal
            // profile alone is statically stable; polar surface cooling
            // (and eventual ice) comes from the coupled heat fluxes.
            let t_sfc = (28.0 * (1.0 - sinlat * sinlat) - 1.0).max(2.0);
            let decay = (-depth_mid[k] / 800.0).exp();
            (2.0 + (t_sfc - 2.0) * decay).max(T_FREEZE)
        });
        let salt = Field3::from_fn(n_cells, nlev, |c, k| {
            if !mask.wet_cell[c] || k >= mask.cell_levels[c] as usize {
                return p.s_ref;
            }
            let sinlat = grid.cell_center(c).z;
            // Slight haline stabilization with depth plus a subtropical
            // surface salinity maximum (kept small enough that the warm
            // thermocline dominates the density gradient there).
            34.6 + 0.2 * (1.0 - (-depth_mid[k] / 1000.0).exp())
                + 0.8 * (-((sinlat.abs() - 0.4) * (sinlat.abs() - 0.4)) / 0.05).exp()
                    * (-depth_mid[k] / 500.0).exp()
        });

        OceanState {
            vn: Field3::zeros(n_edges, nlev),
            temp,
            salt,
            eta: Field2::zeros(n_cells),
            ice_thick: Field2::zeros(n_cells),
            w: Field3::zeros(n_cells, nlev),
            wind_stress_n: Field2::zeros(n_edges),
            heat_flux: Field2::zeros(n_cells),
            fw_flux: Field2::zeros(n_cells),
            pco2_atm: Field2::from_fn(n_cells, |_| 420.0),
            heat_acc: Field2::zeros(n_cells),
            salt_acc: Field2::zeros(n_cells),
            ice_fw_acc: Field2::zeros(n_cells),
            time_s: 0.0,
        }
    }

    /// Heat content of the wet ocean (deg C * m^3, scaled by rho0*cp
    /// outside if Joules are wanted), over the first `owned` cells.
    pub fn heat_content<G: CGrid>(
        &self,
        grid: &G,
        p: &OceanParams,
        mask: &OceanMask,
        owned: usize,
    ) -> f64 {
        (0..owned)
            .filter(|&c| mask.wet_cell[c])
            .map(|c| {
                let a = grid.cell_area(c);
                let n = mask.cell_levels[c] as usize;
                let t = self.temp.col(c);
                a * (0..n).map(|k| t[k] * p.dz[k]).sum::<f64>()
            })
            .sum()
    }

    /// Salt content (psu * m^3) over the first `owned` cells.
    pub fn salt_content<G: CGrid>(
        &self,
        grid: &G,
        p: &OceanParams,
        mask: &OceanMask,
        owned: usize,
    ) -> f64 {
        (0..owned)
            .filter(|&c| mask.wet_cell[c])
            .map(|c| {
                let a = grid.cell_area(c);
                let n = mask.cell_levels[c] as usize;
                let s = self.salt.col(c);
                a * (0..n).map(|k| s[k] * p.dz[k]).sum::<f64>()
            })
            .sum()
    }

    /// Area-weighted mean surface height over wet cells (volume proxy).
    pub fn mean_eta<G: CGrid>(&self, grid: &G, mask: &OceanMask, owned: usize) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for c in 0..owned {
            if mask.wet_cell[c] {
                num += self.eta[c] * grid.cell_area(c);
                den += grid.cell_area(c);
            }
        }
        num / den.max(1e-300)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::Grid;

    fn setup() -> (Grid, OceanParams, OceanMask, OceanState) {
        let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let p = OceanParams::new(8, 600.0);
        let bathy = vec![4000.0; g.n_cells];
        let mask = OceanMask::from_bathymetry(&g, &p, &bathy);
        let s = OceanState::initialize(&g, &p, &mask);
        (g, p, mask, s)
    }

    #[test]
    fn initial_state_is_stratified_and_stable() {
        let (g, p, mask, s) = setup();
        for c in (0..g.n_cells).step_by(97) {
            let n = mask.cell_levels[c] as usize;
            for k in 1..n {
                let r_up = crate::eos::density_anomaly(&p, s.temp.at(c, k - 1), s.salt.at(c, k - 1));
                let r_dn = crate::eos::density_anomaly(&p, s.temp.at(c, k), s.salt.at(c, k));
                assert!(
                    r_up <= r_dn + 1e-6,
                    "cell {c} level {k}: unstable init ({r_up} over {r_dn})"
                );
            }
        }
    }

    #[test]
    fn tropics_warmer_than_poles_at_surface() {
        let (g, _, _, s) = setup();
        let mut trop = f64::NAN;
        let mut polar = f64::NAN;
        for c in 0..g.n_cells {
            let z = g.cell_center[c].z;
            if z.abs() < 0.1 {
                trop = s.temp.at(c, 0);
            }
            if z > 0.95 {
                polar = s.temp.at(c, 0);
            }
        }
        assert!(trop > 20.0, "tropical SST {trop}");
        assert!(polar < 5.0, "polar SST {polar}");
    }

    #[test]
    fn budgets_are_finite() {
        let (g, p, mask, s) = setup();
        assert!(s.heat_content(&g, &p, &mask, g.n_cells).is_finite());
        assert!(s.salt_content(&g, &p, &mask, g.n_cells) > 0.0);
        assert_eq!(s.mean_eta(&g, &mask, g.n_cells), 0.0);
    }
}
