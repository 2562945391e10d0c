//! Land prognostic state over land cells (land-local indexing).

use crate::params::{LandParams, N_PFT, N_SOIL};
use crate::pools::{CarbonPool, N_POOLS};
use icongrid::ops::CGrid;
use icongrid::Field3;

/// State of the land component. All per-cell arrays are indexed by
/// *land-local* cell index (the component owns only land cells, matching
/// Table 2's separate land cell count).
#[derive(Debug, Clone, PartialEq)]
pub struct LandState {
    /// Soil temperature (deg C), 5 levels.
    pub t_soil: Field3,
    /// Liquid soil water (m), 5 levels.
    pub w_liquid: Field3,
    /// Frozen soil water (m), 5 levels.
    pub w_ice: Field3,
    /// Organic-matter density proxy per level (affects nothing dynamic;
    /// fourth physical state variable of Table 2).
    pub q_organic: Field3,
    /// Carbon pools (kgC/m^2): `[cell * N_PFT * N_POOLS + pft * N_POOLS + pool]`.
    pub pools: Vec<f64>,
    /// Leaf area index per (cell, PFT).
    pub lai: Vec<f64>,
    /// River reservoir storage (m^3) per land cell.
    pub river_storage: Vec<f64>,

    // --- forcing (set by the coupler each step) ---
    /// Downward shortwave radiation (W/m^2).
    pub sw_down: Vec<f64>,
    /// Precipitation (kg/m^2/s == mm/s).
    pub precip_rate: Vec<f64>,
    /// Near-surface air temperature (deg C).
    pub t_air: Vec<f64>,

    // --- outputs (read by the coupler each step) ---
    /// Net ecosystem exchange (kgC/m^2/s, positive = into the atmosphere).
    pub nee: Vec<f64>,
    /// Evapotranspiration (m of water per second).
    pub evapotranspiration: Vec<f64>,
    /// Accumulated NEE (kgC/m^2) for the carbon budget.
    pub nee_acc: Vec<f64>,
    /// Accumulated evapotranspiration (m).
    pub et_acc: Vec<f64>,
    /// Accumulated precipitation received (m).
    pub precip_acc: Vec<f64>,
    /// Accumulated runoff sent to rivers (m).
    pub runoff_acc: Vec<f64>,
    pub time_s: f64,
}

impl LandState {
    /// Initialize over `land_cells` (global ids) of `grid`: cool moist
    /// soil, seed carbon in every pool (the stand-in for the separately
    /// spun-up carbon pools the paper uses).
    pub fn initialize<G: CGrid>(grid: &G, p: &LandParams, land_cells: &[u32]) -> LandState {
        let n = land_cells.len();
        let t_soil = Field3::from_fn(n, N_SOIL, |i, _| {
            let sinlat = grid.cell_center(land_cells[i] as usize).z;
            22.0 - 35.0 * sinlat * sinlat
        });
        let w_liquid =
            Field3::from_fn(n, N_SOIL, |_, k| 0.6 * p.soil_dz[k] * p.field_capacity);
        let w_ice = Field3::from_fn(n, N_SOIL, |i, k| {
            let sinlat = grid.cell_center(land_cells[i] as usize).z;
            if sinlat.abs() > 0.85 {
                0.2 * p.soil_dz[k] * p.field_capacity
            } else {
                0.0
            }
        });
        let q_organic = Field3::from_fn(n, N_SOIL, |_, k| 2.0 / (k + 1) as f64);

        let mut pools = vec![0.0; n * N_PFT * N_POOLS];
        let mut lai = vec![0.0; n * N_PFT];
        for i in 0..n {
            let sinlat = grid.cell_center(land_cells[i] as usize).z;
            let frac = p.pft_fractions(sinlat);
            for pft in 0..N_PFT {
                if frac[pft] <= 0.001 {
                    continue;
                }
                let base = i * N_PFT * N_POOLS + pft * N_POOLS;
                let traits = &crate::params::PFT_TABLE[pft];
                // Seed live pools proportional to cover; dead pools with
                // quasi-equilibrium stocks (larger for slower pools).
                pools[base + CarbonPool::Leaf.idx()] = 0.15 * frac[pft];
                pools[base + CarbonPool::Wood.idx()] = 6.0 * frac[pft];
                pools[base + CarbonPool::FineRoot.idx()] = 0.2 * frac[pft];
                pools[base + CarbonPool::CoarseRoot.idx()] = 1.5 * frac[pft];
                pools[base + CarbonPool::Reserve.idx()] = 0.3 * frac[pft];
                pools[base + CarbonPool::Fruit.idx()] = 0.05 * frac[pft];
                for pool in crate::pools::LITTER_POOLS {
                    pools[base + pool.idx()] = 0.5 * frac[pft];
                }
                pools[base + CarbonPool::SoilFast.idx()] = 1.0 * frac[pft];
                pools[base + CarbonPool::SoilSlow.idx()] = 3.0 * frac[pft];
                pools[base + CarbonPool::Humus.idx()] = 6.0 * frac[pft];
                pools[base + CarbonPool::HumusStable.idx()] = 10.0 * frac[pft];
                pools[base + CarbonPool::Charcoal.idx()] = 0.5 * frac[pft];
                pools[base + CarbonPool::Seed.idx()] = 0.02 * frac[pft];
                pools[base + CarbonPool::Exudates.idx()] = 0.02 * frac[pft];
                pools[base + CarbonPool::Microbial.idx()] = 0.1 * frac[pft];
                lai[i * N_PFT + pft] =
                    pools[base + CarbonPool::Leaf.idx()] * traits.sla;
            }
        }

        LandState {
            t_soil,
            w_liquid,
            w_ice,
            q_organic,
            pools,
            lai,
            river_storage: vec![0.0; n],
            sw_down: vec![0.0; n],
            precip_rate: vec![0.0; n],
            t_air: vec![15.0; n],
            nee: vec![0.0; n],
            evapotranspiration: vec![0.0; n],
            nee_acc: vec![0.0; n],
            et_acc: vec![0.0; n],
            precip_acc: vec![0.0; n],
            runoff_acc: vec![0.0; n],
            time_s: 0.0,
        }
    }

    #[inline]
    pub fn pool(&self, cell: usize, pft: usize, p: CarbonPool) -> f64 {
        self.pools[cell * N_PFT * N_POOLS + pft * N_POOLS + p.idx()]
    }

    #[inline]
    pub fn pool_mut(&mut self, cell: usize, pft: usize, p: CarbonPool) -> &mut f64 {
        &mut self.pools[cell * N_PFT * N_POOLS + pft * N_POOLS + p.idx()]
    }

    /// Total carbon per cell (kgC/m^2) across PFTs and pools.
    pub fn cell_carbon(&self, cell: usize) -> f64 {
        let base = cell * N_PFT * N_POOLS;
        self.pools[base..base + N_PFT * N_POOLS].iter().sum()
    }

    /// Total land carbon inventory (kgC), area-weighted, plus the carbon
    /// already exported to the atmosphere — constant under the model's
    /// internal dynamics.
    pub fn carbon_inventory<G: CGrid>(&self, grid: &G, land_cells: &[u32]) -> f64 {
        land_cells
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                grid.cell_area(c as usize) * (self.cell_carbon(i) + self.nee_acc[i])
            })
            .sum()
    }

    /// Water inventory per cell (m): soil + accumulated outflows -
    /// accumulated inflows; constant under the model's internal dynamics.
    pub fn water_inventory(&self, cell: usize) -> f64 {
        let soil: f64 = self
            .w_liquid
            .col(cell)
            .iter()
            .chain(self.w_ice.col(cell))
            .sum();
        soil + self.et_acc[cell] + self.runoff_acc[cell] - self.precip_acc[cell]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::Grid;

    #[test]
    fn initialization_seeds_biomes() {
        let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let p = LandParams::new(600.0);
        let land: Vec<u32> = (0..g.n_cells as u32)
            .filter(|&c| g.cell_center[c as usize].x > 0.2)
            .collect();
        let s = LandState::initialize(&g, &p, &land);
        assert_eq!(s.pools.len(), land.len() * N_PFT * N_POOLS);
        // Some carbon everywhere on land.
        for i in 0..land.len() {
            assert!(s.cell_carbon(i) > 0.0, "cell {i} has no carbon");
        }
        // LAI positive where leaves exist.
        let lai_sum: f64 = s.lai.iter().sum();
        assert!(lai_sum > 0.0);
        // Frozen soil only near the poles.
        for (i, &c) in land.iter().enumerate() {
            let z = g.cell_center[c as usize].z;
            if z.abs() < 0.5 {
                assert_eq!(s.w_ice.at(i, 0), 0.0, "tropical permafrost at {i}");
            }
        }
    }

    #[test]
    fn inventories_start_consistent() {
        let g = Grid::build(1, icongrid::EARTH_RADIUS_M);
        let p = LandParams::new(600.0);
        let land: Vec<u32> = (0..40).collect();
        let s = LandState::initialize(&g, &p, &land);
        for i in 0..land.len() {
            // No accumulations yet: inventory equals soil water.
            let soil: f64 = s.w_liquid.col(i).iter().chain(s.w_ice.col(i)).sum();
            assert_eq!(s.water_inventory(i), soil);
        }
        assert!(s.carbon_inventory(&g, &land) > 0.0);
    }
}
