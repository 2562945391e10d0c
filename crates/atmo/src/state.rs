//! Prognostic and forcing state of the atmosphere on one (sub)grid.

use crate::params::AtmParams;
use icongrid::ops::CGrid;
use icongrid::{Field2, Field3};

/// Full prognostic state. Table 2 of the paper counts 12.5 prognostic
/// variables per atmosphere cell: mass, 1.5 for edge-normal velocity, and
/// tracers for H2O (vapor + condensate), CO2 and O3, plus auxiliary state.
#[derive(Debug, Clone, PartialEq)]
pub struct AtmState {
    /// Layer thickness (m of mass-equivalent depth) at cells.
    pub delta: Field3,
    /// Edge-normal velocity (m/s).
    pub vn: Field3,
    /// Specific water vapor (kg/kg) at cells.
    pub qv: Field3,
    /// Specific cloud condensate (kg/kg) at cells.
    pub qc: Field3,
    /// CO2 mixing ratio (kg/kg).
    pub co2: Field3,
    /// O3 mixing ratio (kg/kg).
    pub o3: Field3,
    /// Accumulated precipitation since start (kg/m^2 == mm) at cells.
    pub precip_acc: Field2,
    /// Accumulated surface evaporation (kg/m^2).
    pub evap_acc: Field2,
    /// Precipitation flux of the last step (kg/m^2/s), for coupling.
    pub precip_rate: Field2,
    /// Evaporation flux of the last step (kg/m^2/s), for coupling.
    pub evap_rate: Field2,
    /// Lower-boundary condition: surface temperature (K) — SST from the
    /// ocean over water, land-surface temperature over land.
    pub t_surface: Field2,
    /// Surface CO2 flux into the atmosphere (kg/m^2/s), from the coupler
    /// (ocean + land). Positive = into the atmosphere.
    pub co2_surface_flux: Field2,
    /// Moisture flux into the lowest layer over land (kg/m^2/s):
    /// evapotranspiration delivered by the land model through the
    /// coupler. Accounted in `evap_acc` so the water budget closes.
    pub land_moisture_flux: Field2,
    /// Surface type: true where the lowest layer touches open water
    /// (evaporation source).
    pub is_water: Vec<bool>,
    /// Simulated seconds since initialization.
    pub time_s: f64,
}

/// Pre-industrial-like CO2 mixing ratio used for initialization (kg/kg);
/// ~420 ppmv * (44/28.97).
pub const CO2_INIT: f64 = 420.0e-6 * 44.0 / 28.97;

/// Stratospheric O3 peak mixing ratio (kg/kg).
pub const O3_PEAK: f64 = 8.0e-6;

impl AtmState {
    /// Initialize a resting, zonally symmetric state in radiative
    /// equilibrium plus a deterministic thickness perturbation to seed
    /// baroclinic eddies — our stand-in for the interpolated reanalysis
    /// state the paper uses (DESIGN.md substitution table).
    pub fn initialize<G: CGrid>(grid: &G, params: &AtmParams, is_water: Vec<bool>) -> AtmState {
        assert_eq!(is_water.len(), grid.n_cells());
        let n_cells = grid.n_cells();
        let n_edges = grid.n_edges();
        let nlev = params.nlev;

        let delta = Field3::from_fn(n_cells, nlev, |c, k| {
            let p = grid.cell_center(c);
            let sinlat = p.z;
            let base = params.equilibrium_thickness(k, sinlat);
            // Deterministic wavenumber-5 perturbation, decaying upward.
            let lon = p.y.atan2(p.x);
            let pert = 1.0
                + 0.01 * (5.0 * lon).sin() * (1.0 - sinlat * sinlat) * (k as f64 + 1.0)
                    / nlev as f64;
            base * pert
        });
        let qv = Field3::from_fn(n_cells, nlev, |c, k| {
            // Moist near the warm surface, dry aloft.
            let sinlat = grid.cell_center(c).z;
            let t = params.layer_temp[k] - 20.0 * sinlat * sinlat;
            0.7 * AtmParams::q_saturation(t) * ((k + 1) as f64 / nlev as f64).powi(2)
        });
        // Stratospheric maximum near the top quarter of the column.
        let o3 = Field3::from_fn(n_cells, nlev, |_, k| crate::physics::o3_target(k, nlev));
        let t_surface = Field2::from_fn(n_cells, |c| {
            let sinlat = grid.cell_center(c).z;
            crate::params::T_SURFACE_REF + 12.0 - 35.0 * sinlat * sinlat
        });

        AtmState {
            delta,
            vn: Field3::zeros(n_edges, nlev),
            qv,
            qc: Field3::zeros(n_cells, nlev),
            co2: Field3::from_fn(n_cells, nlev, |_, _| CO2_INIT),
            o3,
            precip_acc: Field2::zeros(n_cells),
            evap_acc: Field2::zeros(n_cells),
            precip_rate: Field2::zeros(n_cells),
            evap_rate: Field2::zeros(n_cells),
            t_surface,
            co2_surface_flux: Field2::zeros(n_cells),
            land_moisture_flux: Field2::zeros(n_cells),
            is_water,
            time_s: 0.0,
        }
    }

    /// Total dry air mass (area-weighted column depth, m^3) — conserved
    /// exactly by dynamics and physics.
    pub fn total_mass<G: CGrid>(&self, grid: &G, owned_cells: usize) -> f64 {
        (0..owned_cells)
            .map(|c| {
                let col: f64 = self.delta.col(c).iter().sum();
                col * grid.cell_area(c)
            })
            .sum()
    }

    /// Total water (vapor + condensate) mass plus accumulated
    /// precipitation minus accumulated evaporation; conserved.
    pub fn water_inventory<G: CGrid>(&self, grid: &G, owned_cells: usize) -> f64 {
        (0..owned_cells)
            .map(|c| {
                let a = grid.cell_area(c);
                let mut col = 0.0;
                for k in 0..self.delta.nlev() {
                    col += self.delta.at(c, k) * (self.qv.at(c, k) + self.qc.at(c, k));
                }
                // Accumulations are in kg/m^2; delta*q is in m*(kg/kg):
                // treat unit column mass per metre of depth (rho_unit = 1).
                a * (col + self.precip_acc[c] - self.evap_acc[c])
            })
            .sum()
    }

    /// Total CO2 tracer mass (in delta-weighted units) minus what entered
    /// through the surface flux accounting; used by the coupled carbon
    /// conservation checks.
    pub fn co2_mass<G: CGrid>(&self, grid: &G, owned_cells: usize) -> f64 {
        (0..owned_cells)
            .map(|c| {
                let a = grid.cell_area(c);
                let col: f64 = (0..self.delta.nlev())
                    .map(|k| self.delta.at(c, k) * self.co2.at(c, k))
                    .sum();
                a * col
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::Grid;

    fn setup() -> (Grid, AtmParams, AtmState) {
        let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let p = AtmParams::new(6, 300.0);
        let water = vec![true; g.n_cells];
        let s = AtmState::initialize(&g, &p, water);
        (g, p, s)
    }

    #[test]
    fn initial_state_is_physical() {
        let (g, p, s) = setup();
        assert!(s.delta.min() > 0.0, "positive layer thickness");
        assert!(s.qv.min() >= 0.0);
        assert!(s.qv.max() < 0.03, "qv below saturation-ish bound");
        assert!(s.o3.max() <= O3_PEAK * 1.0001);
        // Column depth near the reference total.
        for c in [0, g.n_cells / 2, g.n_cells - 1] {
            let col: f64 = s.delta.col(c).iter().sum();
            assert!(
                (col / p.total_depth() - 1.0).abs() < 0.05,
                "cell {c} depth {col}"
            );
        }
    }

    #[test]
    fn surface_warmer_at_equator() {
        let (g, _, s) = setup();
        let (mut eq, mut pole) = (f64::NAN, f64::NAN);
        for c in 0..g.n_cells {
            let z = g.cell_center[c].z.abs();
            if z < 0.1 {
                eq = s.t_surface[c];
            }
            if z > 0.95 {
                pole = s.t_surface[c];
            }
        }
        assert!(eq > pole, "equator {eq} pole {pole}");
    }

    #[test]
    fn inventories_are_finite_and_positive() {
        let (g, _, s) = setup();
        let m = s.total_mass(&g, g.n_cells);
        let w = s.water_inventory(&g, g.n_cells);
        let c = s.co2_mass(&g, g.n_cells);
        assert!(m > 0.0 && m.is_finite());
        assert!(w > 0.0 && w.is_finite());
        assert!(c > 0.0 && c.is_finite());
    }

    #[test]
    fn perturbation_breaks_zonal_symmetry() {
        let (g, _, s) = setup();
        // Two cells at similar latitude but different longitude should have
        // slightly different thickness.
        let mut cells: Vec<usize> = (0..g.n_cells)
            .filter(|&c| g.cell_center[c].z.abs() < 0.2)
            .collect();
        cells.truncate(8);
        let vals: Vec<f64> = cells.iter().map(|&c| s.delta.at(c, 3)).collect();
        let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0, "perturbation must vary with longitude");
    }
}
