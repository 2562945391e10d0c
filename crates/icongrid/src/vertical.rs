//! Stretched depth levels for the ocean. (The atmosphere's stacked
//! layers are set by `atmo::AtmParams`.)

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
