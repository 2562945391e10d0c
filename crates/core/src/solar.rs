//! Diurnal insolation forcing (equinoctial orbit: no seasonal cycle,
//! documented substitution — the paper initializes on 1 January 2020 with
//! full orbital geometry).

use icongrid::geom::Vec3;

/// Solar constant (W/m^2).
pub const SOLAR_CONSTANT: f64 = 1361.0;

/// Clear-sky shortwave transmission.
pub const TRANSMISSION: f64 = 0.75;

/// Downward shortwave at the surface for a unit-sphere position `p` at
/// simulated time `t` (s). Declination 0 (equinox): the subsolar point
/// circles the equator once per day starting at longitude 0.
pub fn sw_down(p: &Vec3, time_s: f64) -> f64 {
    let (lon, cos_lat) = lon_cos_lat(p);
    sw_at(lon, cos_lat, time_s)
}

/// The time-independent part of [`sw_down`]: longitude and cos(latitude).
fn lon_cos_lat(p: &Vec3) -> (f64, f64) {
    (p.y.atan2(p.x), p.z.asin().cos())
}

fn sw_at(lon: f64, cos_lat: f64, time_s: f64) -> f64 {
    let hour_angle = 2.0 * std::f64::consts::PI * (time_s / 86_400.0) - lon;
    let cos_zenith = cos_lat * hour_angle.cos();
    SOLAR_CONSTANT * TRANSMISSION * cos_zenith.max(0.0)
}

/// [`sw_down`] over a fixed set of positions, with each position's
/// longitude and cos(latitude) computed once at construction: the same
/// operations on the same operands, so the same bits.
#[derive(Debug, Clone)]
pub struct Insolation {
    lon_cos_lat: Vec<(f64, f64)>,
    sw: Vec<f64>,
}

impl Insolation {
    pub fn new(points: &[Vec3]) -> Insolation {
        Insolation {
            lon_cos_lat: points.iter().map(lon_cos_lat).collect(),
            sw: vec![0.0; points.len()],
        }
    }

    /// Downward shortwave at every position at `time_s`.
    pub fn at(&mut self, time_s: f64) -> &[f64] {
        for (sw, &(lon, cos_lat)) in self.sw.iter_mut().zip(&self.lon_cos_lat) {
            *sw = sw_at(lon, cos_lat, time_s);
        }
        &self.sw
    }
}

/// Daily-mean shortwave at latitude (radians), equinox: `S T cos(lat)/pi`.
pub fn sw_daily_mean(lat: f64) -> f64 {
    SOLAR_CONSTANT * TRANSMISSION * lat.cos() / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn night_side_is_dark() {
        // Subsolar longitude at t=0 is 0; the antipode is dark.
        let p = Vec3::from_lonlat(PI, 0.0);
        assert_eq!(sw_down(&p, 0.0), 0.0);
        // Subsolar point gets the full transmitted beam.
        let s = Vec3::from_lonlat(0.0, 0.0);
        assert!((sw_down(&s, 0.0) - SOLAR_CONSTANT * TRANSMISSION).abs() < 1e-9);
    }

    #[test]
    fn diurnal_cycle_returns_after_a_day() {
        let p = Vec3::from_lonlat(1.0, 0.4);
        let a = sw_down(&p, 10_000.0);
        let b = sw_down(&p, 10_000.0 + 86_400.0);
        assert!((a - b).abs() < 1e-9);
        // And differs at other hours.
        let c = sw_down(&p, 10_000.0 + 43_200.0);
        assert_ne!(a > 0.0, c > 0.0, "day and night alternate");
    }

    #[test]
    fn poles_get_grazing_light() {
        let pole = Vec3::from_lonlat(0.0, PI / 2.0 - 1e-6);
        for frac in [0.0, 0.25, 0.5, 0.75] {
            assert!(sw_down(&pole, frac * 86_400.0) < 1.0);
        }
    }

    #[test]
    fn numerical_daily_mean_matches_analytic() {
        let lat = 0.7;
        let p = Vec3::from_lonlat(0.3, lat);
        let n = 4800;
        let mean = (0..n)
            .map(|i| sw_down(&p, i as f64 * 86_400.0 / n as f64))
            .sum::<f64>()
            / n as f64;
        let analytic = sw_daily_mean(lat);
        assert!(
            (mean / analytic - 1.0).abs() < 1e-3,
            "{mean} vs {analytic}"
        );
    }
}
