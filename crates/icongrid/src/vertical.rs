//! Vertical grids: terrain-following hybrid sigma-height levels for the
//! atmosphere (a SLEVE-like generalization, Leuenberger et al. 2010) and
//! stretched depth levels for the ocean.

/// Atmospheric vertical grid. `nlev` full (mass) levels bounded by
/// `nlev + 1` half (interface) levels; index 0 is the model top, index
/// `nlev - 1` the lowest layer, as in ICON.
#[derive(Debug, Clone)]
pub struct VerticalGrid {
    pub nlev: usize,
    /// Height of the model top above mean sea level (m).
    pub top_height: f64,
    /// Nominal (flat-terrain) interface heights, `nlev + 1` entries,
    /// decreasing from `top_height` to 0.
    pub z_interface: Vec<f64>,
    /// Nominal full-level heights (midpoints), `nlev` entries.
    pub z_full: Vec<f64>,
    /// Layer thicknesses (m), `nlev` entries.
    pub dz: Vec<f64>,
    /// SLEVE decay scale for terrain influence (m).
    pub decay_scale: f64,
}

impl VerticalGrid {
    /// The 90-level grid of the paper's configurations (Table 2): top at
    /// 75 km, layer thickness stretching smoothly from ~20 m near the
    /// surface to ~4 km near the top (cubic stretching, as commonly used
    /// for km-scale ICON setups).
    pub fn icon_90() -> Self {
        Self::stretched(90, 75_000.0, 20.0)
    }

    /// Build a stretched grid: `nlev` layers, model top `top_height`,
    /// lowest layer thickness `dz_bottom`. Interfaces follow
    /// `z(s) = top * s^p` with `p` chosen so the lowest layer has the
    /// requested thickness.
    pub fn stretched(nlev: usize, top_height: f64, dz_bottom: f64) -> Self {
        assert!(nlev >= 2);
        // Solve top * (1/nlev)^p = dz_bottom for p.
        let p = (dz_bottom / top_height).ln() / (1.0 / nlev as f64).ln();
        let mut z_interface = Vec::with_capacity(nlev + 1);
        for k in 0..=nlev {
            // k = 0 at the top, k = nlev at the surface.
            let s = 1.0 - k as f64 / nlev as f64;
            z_interface.push(top_height * s.powf(p));
        }
        let z_full: Vec<f64> = (0..nlev)
            .map(|k| 0.5 * (z_interface[k] + z_interface[k + 1]))
            .collect();
        let dz: Vec<f64> = (0..nlev)
            .map(|k| z_interface[k] - z_interface[k + 1])
            .collect();
        VerticalGrid {
            nlev,
            top_height,
            z_interface,
            z_full,
            dz,
            decay_scale: 8_000.0,
        }
    }

    /// Terrain-following interface height above a surface elevation `h_s`:
    /// the terrain signal decays exponentially with nominal height so that
    /// upper levels are flat (SLEVE-like single-scale decay).
    pub fn z_interface_over(&self, k: usize, h_s: f64) -> f64 {
        let z = self.z_interface[k];
        z + h_s * (-z / self.decay_scale).exp() * (1.0 - z / self.top_height).max(0.0)
    }
}

/// Ocean depth levels: `nlev` layers with thickness stretching geometrically
/// from the surface value downward, as in ICON-O configurations.
#[derive(Debug, Clone)]
pub struct OceanLevels {
    pub nlev: usize,
    /// Interface depths (m, positive down), `nlev + 1` entries starting at 0.
    pub depth_interface: Vec<f64>,
    /// Mid-layer depths (m), `nlev` entries.
    pub depth_full: Vec<f64>,
    /// Layer thicknesses (m).
    pub dz: Vec<f64>,
}

impl OceanLevels {
    /// The 72-level grid of the paper's configurations (Table 2): surface
    /// layer ~12 m thickening to a total depth of ~6000 m.
    pub fn icon_72() -> Self {
        Self::stretched(72, 12.0, 6000.0)
    }

    /// Build `nlev` layers; the first has thickness `dz_surface` and
    /// thicknesses grow geometrically so the column reaches `total_depth`.
    pub fn stretched(nlev: usize, dz_surface: f64, total_depth: f64) -> Self {
        assert!(nlev >= 2);
        assert!(total_depth > dz_surface * nlev as f64);
        // Find growth ratio r with dz0 * (r^n - 1)/(r - 1) = total via bisection.
        let n = nlev as f64;
        let (mut lo, mut hi): (f64, f64) = (1.0 + 1e-9, 2.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            let depth = dz_surface * (mid.powf(n) - 1.0) / (mid - 1.0);
            if depth < total_depth {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let r = 0.5 * (lo + hi);
        let mut depth_interface = Vec::with_capacity(nlev + 1);
        depth_interface.push(0.0);
        let mut dz = Vec::with_capacity(nlev);
        let mut t = dz_surface;
        for _ in 0..nlev {
            dz.push(t);
            depth_interface.push(depth_interface.last().unwrap() + t);
            t *= r;
        }
        let depth_full: Vec<f64> = (0..nlev)
            .map(|k| 0.5 * (depth_interface[k] + depth_interface[k + 1]))
            .collect();
        OceanLevels {
            nlev,
            depth_interface,
            depth_full,
            dz,
        }
    }

    pub fn total_depth(&self) -> f64 {
        *self.depth_interface.last().unwrap()
    }

    /// Number of active (wet) layers above the sea floor at depth
    /// `bathymetry` (m, positive down).
    pub fn active_levels(&self, bathymetry: f64) -> usize {
        self.depth_interface
            .iter()
            .skip(1)
            .take_while(|&&d| d <= bathymetry)
            .count()
            .max(1)
            .min(self.nlev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icon90_shape() {
        let v = VerticalGrid::icon_90();
        assert_eq!(v.nlev, 90);
        assert_eq!(v.z_interface.len(), 91);
        assert!((v.z_interface[0] - 75_000.0).abs() < 1e-9);
        assert!(v.z_interface[90].abs() < 1e-9);
        // Lowest layer ~20 m, monotone decreasing interfaces.
        assert!((v.dz[89] - 20.0).abs() < 1.0, "dz bottom {}", v.dz[89]);
        for k in 0..90 {
            assert!(v.z_interface[k] > v.z_interface[k + 1]);
            assert!(v.dz[k] > 0.0);
        }
        // Thickness sums to the column depth.
        let total: f64 = v.dz.iter().sum();
        assert!((total - 75_000.0).abs() < 1e-6);
    }

    #[test]
    fn terrain_following_reaches_surface_and_flattens() {
        let v = VerticalGrid::icon_90();
        let h_s = 2000.0;
        // Lowest interface sits on the terrain.
        assert!((v.z_interface_over(90, h_s) - h_s).abs() < 1e-9);
        // Top interface is unperturbed.
        assert!((v.z_interface_over(0, h_s) - 75_000.0).abs() < 1e-6);
        // Monotone in between.
        for k in 0..90 {
            assert!(v.z_interface_over(k, h_s) > v.z_interface_over(k + 1, h_s));
        }
    }

    #[test]
    fn ocean72_shape() {
        let o = OceanLevels::icon_72();
        assert_eq!(o.nlev, 72);
        assert!((o.dz[0] - 12.0).abs() < 1e-9);
        assert!((o.total_depth() - 6000.0).abs() < 1.0);
        for k in 1..72 {
            assert!(o.dz[k] > o.dz[k - 1], "thickness must grow with depth");
        }
    }

    #[test]
    fn active_levels_clamps() {
        let o = OceanLevels::icon_72();
        assert_eq!(o.active_levels(1e9), 72);
        assert_eq!(o.active_levels(0.0), 1);
        let mid = o.depth_interface[36];
        assert_eq!(o.active_levels(mid + 0.1), 36);
    }
}
