//! Linear equation of state and hydrostatic pressure.

use crate::params::OceanParams;
use icongrid::Field3;
use rayon::prelude::*;

/// Density anomaly `rho' / rho0 = -alpha (T - T_ref) + beta (S - S_ref)`
/// (dimensionless).
#[inline]
pub fn density_anomaly(p: &OceanParams, t: f64, s: f64) -> f64 {
    -p.alpha_t * (t - p.t_ref) + p.beta_s * (s - p.s_ref)
}

/// Hydrostatic pressure (divided by rho0, i.e. m^2/s^2) at every level:
/// `press[c,k] = g * (eta_c + sum_{j<=k} rho'_j/rho0 * dz_j)` with the
/// anomaly evaluated at mid-layer (trapezoid-lite).
pub fn hydrostatic_pressure(
    p: &OceanParams,
    temp: &Field3,
    salt: &Field3,
    eta: &[f64],
    out: &mut Field3,
) {
    const G: f64 = 9.80665;
    let nlev = p.nlev;
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, col)| {
            let t = temp.col(c);
            let s = salt.col(c);
            let mut acc = eta[c];
            for k in 0..nlev {
                acc += density_anomaly(p, t[k], s[k]) * p.dz[k] * 0.5;
                col[k] = G * acc;
                acc += density_anomaly(p, t[k], s[k]) * p.dz[k] * 0.5;
            }
        });
}

/// Is the water column statically unstable between levels `k` and `k+1`?
#[inline]
pub fn unstable(p: &OceanParams, t_up: f64, s_up: f64, t_dn: f64, s_dn: f64) -> bool {
    density_anomaly(p, t_up, s_up) > density_anomaly(p, t_dn, s_dn) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OceanParams {
        OceanParams::new(6, 600.0)
    }

    #[test]
    fn warm_water_is_light_salty_water_is_heavy() {
        let p = params();
        assert!(density_anomaly(&p, 20.0, 35.0) < density_anomaly(&p, 5.0, 35.0));
        assert!(density_anomaly(&p, 10.0, 36.0) > density_anomaly(&p, 10.0, 34.0));
        assert_eq!(density_anomaly(&p, p.t_ref, p.s_ref), 0.0);
    }

    #[test]
    fn pressure_matches_analytic_integral() {
        // hydrostatic_pressure returns the *perturbation* pressure
        // (anomaly-weighted column above plus the surface term); verify
        // against a direct midpoint integration.
        let p = params();
        let n = 3;
        let temp = Field3::from_fn(n, p.nlev, |_, k| 15.0 - k as f64);
        let salt = Field3::from_fn(n, p.nlev, |_, k| 34.5 + 0.1 * k as f64);
        let eta = vec![0.1, 0.0, -0.1];
        let mut press = Field3::zeros(n, p.nlev);
        hydrostatic_pressure(&p, &temp, &salt, &eta, &mut press);
        const G: f64 = 9.80665;
        for (c, &eta_c) in eta.iter().enumerate().take(n) {
            let mut acc = eta_c;
            for k in 0..p.nlev {
                acc += 0.5 * density_anomaly(&p, temp.at(c, k), salt.at(c, k)) * p.dz[k];
                assert!(
                    (press.at(c, k) - G * acc).abs() < 1e-9,
                    "cell {c} level {k}"
                );
                acc += 0.5 * density_anomaly(&p, temp.at(c, k), salt.at(c, k)) * p.dz[k];
            }
        }
        // Higher eta -> higher pressure at every level (same T/S column
        // gradient between cells is small compared to the eta term).
        for k in 0..p.nlev {
            assert!(press.at(0, k) > press.at(2, k));
        }
    }

    #[test]
    fn instability_detection() {
        let p = params();
        // Cold over warm (denser above): unstable.
        assert!(unstable(&p, 2.0, 35.0, 15.0, 35.0));
        // Warm over cold: stable.
        assert!(!unstable(&p, 15.0, 35.0, 2.0, 35.0));
        // Salty over fresh: unstable.
        assert!(unstable(&p, 10.0, 36.5, 10.0, 34.0));
    }
}
