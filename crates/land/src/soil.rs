//! Soil physics: heat diffusion through five layers, freeze/thaw, and
//! bucket hydrology with runoff.

use crate::params::{LandParams, N_SOIL};
use icongrid::column::{implicit_diffusion, Layers};
use icongrid::Field3;
use rayon::prelude::*;

/// Latent heat of fusion over heat capacity of wet soil (K per m of water
/// frozen in a 1 m layer) — controls freeze/thaw rates.
const FREEZE_RATE: f64 = 0.05;

/// Relax the top soil layer toward the air temperature, then diffuse heat
/// implicitly through the column.
pub fn soil_temperature_step(
    p: &LandParams,
    t_soil: &mut Field3,
    t_air: &[f64],
) {
    debug_assert_eq!(t_soil.nlev(), N_SOIL);
    let w = p.dt / p.tau_surface;
    let nlev = N_SOIL;
    t_soil
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .zip(t_air.par_iter())
        .for_each(|(col, &ta)| {
            col[0] += (ta - col[0]) * w.min(1.0);
        });
    implicit_diffusion(
        t_soil,
        Layers::Thickness(&p.soil_dz),
        None,
        p.soil_kappa,
        p.dt,
    );
}

/// Freeze/thaw exchange between liquid and frozen soil water, limited by
/// how far the layer temperature is from 0 degC.
pub fn freeze_thaw(p: &LandParams, t_soil: &Field3, w_liquid: &mut Field3, w_ice: &mut Field3) {
    let nlev = N_SOIL;
    let rate = FREEZE_RATE * p.dt / 86_400.0;
    w_liquid
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .zip(w_ice.as_mut_slice().par_chunks_mut(nlev))
        .enumerate()
        .for_each(|(c, (wl, wi))| {
            let t = t_soil.col(c);
            for k in 0..nlev {
                if t[k] < 0.0 {
                    let dz = (rate * (-t[k])).min(wl[k]);
                    wl[k] -= dz;
                    wi[k] += dz;
                } else if t[k] > 0.0 {
                    let dz = (rate * t[k]).min(wi[k]);
                    wi[k] -= dz;
                    wl[k] += dz;
                }
            }
        });
}

/// Bucket hydrology of one step: infiltrate precipitation into the top
/// layer, percolate downward over field capacity, and return surface
/// runoff + baseflow (m of water per cell this step).
pub fn hydrology_step(
    p: &LandParams,
    w_liquid: &mut Field3,
    precip_m: &[f64],
    runoff_out: &mut [f64],
) {
    let nlev = N_SOIL;
    let cap: Vec<f64> = p.soil_dz.iter().map(|dz| dz * p.field_capacity).collect();
    w_liquid
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .zip(precip_m.par_iter().zip(runoff_out.par_iter_mut()))
        .for_each(|(w, (&pr, run))| {
            w[0] += pr;
            let mut overflow = 0.0;
            for k in 0..nlev {
                if w[k] > cap[k] {
                    let excess = w[k] - cap[k];
                    w[k] = cap[k];
                    if k + 1 < nlev {
                        w[k + 1] += excess;
                    } else {
                        overflow += excess; // baseflow out of the column
                    }
                }
            }
            *run = overflow;
        });
}

/// Soil water stress factor for photosynthesis (0..1) from the root-zone
/// (top three layers) relative wetness.
pub fn water_stress(p: &LandParams, w_liquid: &Field3, cell: usize) -> f64 {
    let w = w_liquid.col(cell);
    let mut have = 0.0;
    let mut cap = 0.0;
    for (k, &wk) in w.iter().enumerate().take(3) {
        have += wk;
        cap += p.soil_dz[k] * p.field_capacity;
    }
    (have / cap).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> LandParams {
        LandParams::new(1800.0)
    }

    #[test]
    fn soil_warms_toward_air_from_the_top() {
        let p = p();
        let n = 4;
        let mut t = Field3::from_fn(n, N_SOIL, |_, _| 0.0);
        let t_air = vec![20.0; n];
        for _ in 0..200 {
            soil_temperature_step(&p, &mut t, &t_air);
        }
        for c in 0..n {
            assert!(t.at(c, 0) > 15.0, "top soil {}", t.at(c, 0));
            assert!(
                t.at(c, 0) > t.at(c, N_SOIL - 1),
                "gradient must point downward"
            );
            assert!(t.at(c, N_SOIL - 1) > 0.0, "heat diffuses down eventually");
        }
    }

    #[test]
    fn freeze_thaw_conserves_water() {
        let p = p();
        let t = Field3::from_fn(2, N_SOIL, |c, k| if c == 0 { -5.0 } else { 3.0 } + k as f64 * 0.1);
        let mut wl = Field3::from_fn(2, N_SOIL, |_, _| 0.05);
        let mut wi = Field3::from_fn(2, N_SOIL, |_, _| 0.02);
        let total_before: f64 = wl.as_slice().iter().sum::<f64>() + wi.as_slice().iter().sum::<f64>();
        for _ in 0..50 {
            freeze_thaw(&p, &t, &mut wl, &mut wi);
        }
        let total_after: f64 = wl.as_slice().iter().sum::<f64>() + wi.as_slice().iter().sum::<f64>();
        assert!((total_before - total_after).abs() < 1e-12);
        // Cold column froze, warm column thawed.
        assert!(wi.at(0, 0) > 0.02);
        assert!(wi.at(1, 0) < 0.02);
        assert!(wl.min() >= 0.0 && wi.min() >= 0.0);
    }

    #[test]
    fn hydrology_conserves_water_and_produces_runoff() {
        let p = p();
        let n = 3;
        let mut w = Field3::from_fn(n, N_SOIL, |_, k| p.soil_dz[k] * p.field_capacity * 0.9);
        let before: f64 = w.as_slice().iter().sum();
        let precip = vec![0.5, 0.0, 0.05]; // heavy rain on cell 0
        let mut runoff = vec![0.0; n];
        hydrology_step(&p, &mut w, &precip, &mut runoff);
        let after: f64 = w.as_slice().iter().sum();
        let rain: f64 = precip.iter().sum();
        let run: f64 = runoff.iter().sum();
        assert!((after - before - (rain - run)).abs() < 1e-12, "water budget");
        assert!(runoff[0] > 0.0, "saturated column must shed water");
        assert_eq!(runoff[1], 0.0);
        // Capacity respected everywhere.
        for c in 0..n {
            for k in 0..N_SOIL {
                assert!(w.at(c, k) <= p.soil_dz[k] * p.field_capacity + 1e-12);
            }
        }
    }

    #[test]
    fn water_stress_ranges() {
        let p = p();
        let dry = Field3::zeros(1, N_SOIL);
        assert_eq!(water_stress(&p, &dry, 0), 0.0);
        let wet = Field3::from_fn(1, N_SOIL, |_, k| p.soil_dz[k] * p.field_capacity);
        assert!((water_stress(&p, &wet, 0) - 1.0).abs() < 1e-12);
    }
}
