//! Synthetic Earth-like land–sea masks and topography.
//!
//! The paper initializes ICON from observed reanalysis states and real
//! topography; neither is available here (DESIGN.md, substitution table).
//! Instead we generate a deterministic, seed-controlled land–sea
//! distribution from low-order spherical noise: a sum of random plane waves
//! evaluated on the unit sphere, thresholded at the quantile that yields the
//! requested land fraction (Earth: ~29 %). The result has continent-scale
//! coherent landmasses, a connected ocean, and realistic land/ocean cell
//! counts (Table 2: 0.98e8 land vs 2.38e8 ocean cells at 1.25 km).

use crate::grid::Grid;
use crate::Vec3;

/// Land–sea mask plus surface elevation / bathymetry.
#[derive(Debug, Clone)]
pub struct LandSeaMask {
    /// `true` where the cell is land.
    pub is_land: Vec<bool>,
    /// Surface elevation over land (m, >= 0); 0 over ocean.
    pub elevation: Vec<f64>,
    /// Ocean depth (m, positive down); 0 over land.
    pub bathymetry: Vec<f64>,
    /// Achieved land fraction (area-weighted).
    pub land_fraction: f64,
}

/// Simple deterministic xorshift generator so masks are reproducible
/// without external dependencies.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15).max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Smooth random field on the sphere: a sum of `n_waves` sinusoidal plane
/// waves with wavenumbers in `[kmin, kmax]` and 1/k amplitude weighting
/// (red spectrum, so continents dominate over islands).
pub struct SphericalNoise {
    waves: Vec<(Vec3, f64, f64)>, // (direction * wavenumber, phase, amplitude)
}

impl SphericalNoise {
    pub fn new(seed: u64, n_waves: usize, kmin: f64, kmax: f64) -> Self {
        let mut rng = XorShift::new(seed);
        let mut waves = Vec::with_capacity(n_waves);
        for _ in 0..n_waves {
            // Random direction uniform on the sphere.
            let z = 2.0 * rng.next_f64() - 1.0;
            let phi = 2.0 * std::f64::consts::PI * rng.next_f64();
            let r = (1.0 - z * z).max(0.0).sqrt();
            let dir = Vec3::new(r * phi.cos(), r * phi.sin(), z);
            let k = kmin + (kmax - kmin) * rng.next_f64();
            let phase = 2.0 * std::f64::consts::PI * rng.next_f64();
            let amp = 1.0 / k;
            waves.push((dir.scale(k), phase, amp));
        }
        SphericalNoise { waves }
    }

    /// Evaluate at a unit vector.
    pub fn eval(&self, p: &Vec3) -> f64 {
        self.waves
            .iter()
            .map(|(kdir, phase, amp)| amp * (kdir.dot(p) + phase).sin())
            .sum()
    }
}

impl LandSeaMask {
    /// Synthetic Earth: continents from seeded spherical noise, thresholded
    /// at the area quantile giving `land_fraction_target`.
    pub fn synthetic_earth(grid: &Grid, seed: u64, land_fraction_target: f64) -> Self {
        assert!((0.0..1.0).contains(&land_fraction_target));
        let noise = SphericalNoise::new(seed, 24, 1.5, 6.0);
        let detail = SphericalNoise::new(seed ^ 0xDEADBEEF, 24, 6.0, 20.0);
        let raw: Vec<f64> = grid
            .cell_center
            .iter()
            .map(|p| noise.eval(p) + 0.25 * detail.eval(p))
            .collect();

        // Area-weighted quantile threshold.
        let mut order: Vec<usize> = (0..grid.n_cells).collect();
        order.sort_by(|&a, &b| raw[b].partial_cmp(&raw[a]).unwrap());
        let total_area = grid.total_area();
        let mut acc = 0.0;
        let mut threshold = f64::INFINITY;
        for &c in &order {
            acc += grid.cell_area[c];
            if acc >= land_fraction_target * total_area {
                threshold = raw[c];
                break;
            }
        }

        let is_land: Vec<bool> = raw.iter().map(|&v| v >= threshold).collect();
        // Elevation rises with distance above the threshold (max ~3000 m),
        // bathymetry deepens below it (max ~5500 m).
        let spread = {
            let max = raw.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = raw.iter().cloned().fold(f64::INFINITY, f64::min);
            (max - min).max(1e-12)
        };
        let mut elevation = vec![0.0; grid.n_cells];
        let mut bathymetry = vec![0.0; grid.n_cells];
        for c in 0..grid.n_cells {
            let d = (raw[c] - threshold) / spread;
            if is_land[c] {
                elevation[c] = 3000.0 * d.max(0.0).sqrt();
            } else {
                bathymetry[c] = 200.0 + 5300.0 * (-d).max(0.0).sqrt();
            }
        }
        let land_area: f64 = (0..grid.n_cells)
            .filter(|&c| is_land[c])
            .map(|c| grid.cell_area[c])
            .sum();
        LandSeaMask {
            is_land,
            elevation,
            bathymetry,
            land_fraction: land_area / total_area,
        }
    }

    pub fn n_land_cells(&self) -> usize {
        self.is_land.iter().filter(|&&l| l).count()
    }

    pub fn n_ocean_cells(&self) -> usize {
        self.is_land.len() - self.n_land_cells()
    }

    /// Indices of land cells.
    pub fn land_cells(&self) -> Vec<u32> {
        (0..self.is_land.len() as u32)
            .filter(|&c| self.is_land[c as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::build(3, crate::EARTH_RADIUS_M)
    }

    #[test]
    fn land_fraction_close_to_target() {
        let g = grid();
        let m = LandSeaMask::synthetic_earth(&g, 7, 0.29);
        assert!(
            (m.land_fraction - 0.29).abs() < 0.02,
            "land fraction {}",
            m.land_fraction
        );
        assert_eq!(m.n_land_cells() + m.n_ocean_cells(), g.n_cells);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grid();
        let a = LandSeaMask::synthetic_earth(&g, 7, 0.29);
        let b = LandSeaMask::synthetic_earth(&g, 7, 0.29);
        assert_eq!(a.is_land, b.is_land);
        let c = LandSeaMask::synthetic_earth(&g, 8, 0.29);
        assert_ne!(a.is_land, c.is_land, "different seeds should differ");
    }

    #[test]
    fn continents_are_coherent() {
        // A continent-scale mask should have far fewer land-ocean boundary
        // edges than a random mask of the same land fraction.
        let g = grid();
        let m = LandSeaMask::synthetic_earth(&g, 7, 0.29);
        let boundary = (0..g.n_edges)
            .filter(|&e| {
                let [c0, c1] = g.edge_cells[e];
                m.is_land[c0 as usize] != m.is_land[c1 as usize]
            })
            .count();
        // A random mask would put ~2*0.29*0.71 = 41 % of edges on the
        // boundary; coherent continents have O(perimeter/area) fewer.
        assert!(
            (boundary as f64) < 0.15 * g.n_edges as f64,
            "boundary edges {boundary} of {}",
            g.n_edges
        );
        assert!(boundary > 0);
    }

    #[test]
    fn elevation_and_bathymetry_consistent_with_mask() {
        let g = grid();
        let m = LandSeaMask::synthetic_earth(&g, 42, 0.29);
        for c in 0..g.n_cells {
            if m.is_land[c] {
                assert!(m.elevation[c] >= 0.0);
                assert_eq!(m.bathymetry[c], 0.0);
            } else {
                assert!(m.bathymetry[c] > 0.0);
                assert_eq!(m.elevation[c], 0.0);
            }
        }
    }
}
