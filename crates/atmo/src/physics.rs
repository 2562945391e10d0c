//! Column physics: saturation adjustment with latent heating,
//! precipitation, radiative relaxation, and surface fluxes.
//!
//! Everything here is **column-local and deterministic**, so — exactly as
//! in ICON — physics needs no halo exchange: halo columns stay consistent
//! because every rank computes the same update from the same (exchanged)
//! dynamics state.
//!
//! Conservation discipline: all mass rearrangements are explicit
//! *inter-layer transfers that carry tracers with them*, so dry mass is
//! conserved exactly and the water inventory (vapor + condensate +
//! accumulated precipitation − accumulated evaporation) is constant to
//! round-off. The integration tests rely on this.

use crate::params::{AtmParams, CP_AIR, LATENT_HEAT};
use crate::state::AtmState;
use icongrid::ops::CGrid;
use icongrid::Field2;
use rayon::prelude::*;

/// Relaxation time scale for the O3 chemistry stand-in (s).
pub const TAU_O3: f64 = 10.0 * 86_400.0;

/// Fraction of its equilibrium thickness below which latent heating lifts
/// no more mass out of a layer. Every per-layer source (surface moisture
/// and CO2 fluxes) is divided by the layer's thickness, so a layer near
/// zero turns a bounded flux into an unbounded mixing ratio.
pub const LIFT_FLOOR: f64 = 0.5;

/// Move `amount` of mass from layer `from` to layer `to` of one column,
/// carrying all tracers with it (donor-cell mixing at the receiver).
fn transfer_mass(
    delta: &mut [f64],
    tracers: &mut [&mut [f64]],
    from: usize,
    to: usize,
    amount: f64,
) {
    debug_assert!(amount >= 0.0);
    let m = amount.min(0.5 * delta[from]); // never drain a layer
    if m <= 0.0 {
        return;
    }
    let new_to = delta[to] + m;
    for q in tracers.iter_mut() {
        // Receiver mixes donor air in; donor mixing ratio unchanged.
        q[to] = (q[to] * delta[to] + q[from] * m) / new_to;
    }
    delta[to] = new_to;
    delta[from] -= m;
}

/// The O3 chemistry stand-in's relaxation target of layer `k` of `nlev`:
/// the initial profile shape.
pub fn o3_target(k: usize, nlev: usize) -> f64 {
    let x = k as f64 / (nlev - 1).max(1) as f64;
    crate::state::O3_PEAK * (-(x - 0.15) * (x - 0.15) / 0.02).exp()
}

/// The inputs of [`apply_physics`] that depend on the level or on a
/// cell's surface temperature only, evaluated once per call (levels) or
/// once per new surface temperature (cells) instead of once per column.
/// Sized on first use; no allocation afterwards.
#[derive(Debug, Default)]
pub struct PhysicsTables {
    /// Saturation humidity of each layer's fixed temperature.
    qsat_level: Vec<f64>,
    /// O3 relaxation target of each layer.
    o3_target: Vec<f64>,
    /// Saturation humidity at each cell's surface temperature, valid for
    /// the temperature whose bits are in `t_surface_seen`.
    qsat_surface: Vec<f64>,
    t_surface_seen: Vec<f64>,
}

impl PhysicsTables {
    /// Refresh the tables from the current parameters and surface
    /// temperatures. Reads `layer_temp` on every call, so a restored or
    /// repaired parameter is honoured at the next step.
    pub fn fill(&mut self, p: &AtmParams, t_surface: &Field2) {
        let nlev = p.nlev;
        self.qsat_level.resize(nlev, 0.0);
        self.o3_target.resize(nlev, 0.0);
        for k in 0..nlev {
            self.qsat_level[k] = AtmParams::q_saturation(p.layer_temp[k]);
            self.o3_target[k] = o3_target(k, nlev);
        }
        let n = t_surface.len();
        if self.t_surface_seen.len() != n {
            // q_saturation(NaN) is NaN: the initial pairs are consistent.
            self.qsat_surface = vec![f64::NAN; n];
            self.t_surface_seen = vec![f64::NAN; n];
        }
        for ((q, seen), &t) in self
            .qsat_surface
            .iter_mut()
            .zip(&mut self.t_surface_seen)
            .zip(t_surface.as_slice())
        {
            if seen.to_bits() != t.to_bits() {
                *q = AtmParams::q_saturation(t);
                *seen = t;
            }
        }
    }

    /// (per-level saturation humidity, per-level O3 target, per-cell
    /// surface saturation humidity) of the last [`PhysicsTables::fill`].
    pub fn tables(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.qsat_level, &self.o3_target, &self.qsat_surface)
    }
}

/// One physics step over all columns.
///
/// `wind_lowest` is the wind speed of the lowest layer at cells (from the
/// dynamics' reconstructed cell vectors). `tables` is the caller's
/// [`PhysicsTables`], refreshed here.
pub fn apply_physics<G: CGrid>(
    g: &G,
    p: &AtmParams,
    s: &mut AtmState,
    wind_lowest: &Field2,
    tables: &mut PhysicsTables,
) {
    let nlev = p.nlev;
    let dt = p.dt;
    let n_cells = g.n_cells();
    debug_assert_eq!(wind_lowest.len(), n_cells);
    tables.fill(p, &s.t_surface);
    let (qsat_level, o3_target, qsat_surface) = tables.tables();

    // Ladder spacing of the fixed layer temperatures (K per layer), for
    // converting latent heating into cross-layer mass transport.
    let dt_ladder = if nlev > 1 {
        (p.layer_temp[nlev - 1] - p.layer_temp[0]) / (nlev - 1) as f64
    } else {
        1.0
    };

    struct ColumnOut {
        precip: f64,
        evap: f64,
    }

    let AtmState {
        delta,
        qv,
        qc,
        co2,
        o3,
        co2_surface_flux,
        land_moisture_flux,
        is_water,
        ..
    } = s;
    // Read-only reborrows for capture in the parallel closure.
    let co2_surface_flux = &*co2_surface_flux;
    let land_moisture_flux = &*land_moisture_flux;
    let is_water = &*is_water;

    let outs: Vec<ColumnOut> = delta
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .zip(qv.as_mut_slice().par_chunks_mut(nlev))
        .zip(qc.as_mut_slice().par_chunks_mut(nlev))
        .zip(co2.as_mut_slice().par_chunks_mut(nlev))
        .zip(o3.as_mut_slice().par_chunks_mut(nlev))
        .enumerate()
        .map(|(c, ((((d, qv), qc), co2), o3))| {
            let mut precip = 0.0;
            let sinlat = g.cell_center(c).z;
            // The column's equilibrium profile, scaled to its mass: layer
            // k's target is `equilibrium_thickness(k) * scale`.
            let col_mass: f64 = d.iter().sum();
            let eq_mass: f64 = (0..nlev)
                .map(|k| p.equilibrium_thickness(k, sinlat))
                .sum();
            let scale = col_mass / eq_mass;

            // --- 1. Saturation adjustment + latent heating.
            for k in 0..nlev {
                let qsat = qsat_level[k];
                if qv[k] > qsat {
                    let cond = qv[k] - qsat;
                    qv[k] = qsat;
                    qc[k] += cond;
                    if k > 0 {
                        // Heating lifts mass across the fixed-temperature
                        // ladder: m = delta * L * cond / (cp * dT), but
                        // never below LIFT_FLOOR of the layer's target.
                        // Unbounded, a moisture source under the layer
                        // (warm ocean, transpiring land) lifts up to half
                        // of it every step, far faster than relaxation
                        // refills it, until the layer is too thin to
                        // transport.
                        let m = d[k] * LATENT_HEAT * cond / (CP_AIR * dt_ladder.abs().max(1.0));
                        let keep = LIFT_FLOOR * p.equilibrium_thickness(k, sinlat) * scale;
                        let m = m.min((d[k] - keep).max(0.0));
                        let mut tr: [&mut [f64]; 4] =
                            [&mut qv[..], &mut qc[..], &mut co2[..], &mut o3[..]];
                        transfer_mass(d, &mut tr, k, k - 1, m);
                    }
                }
            }

            // --- 2. Precipitation: condensate rains out.
            for k in 0..nlev {
                let rain = p.precip_efficiency * qc[k];
                qc[k] -= rain;
                precip += d[k] * rain;
            }

            // --- 3. Radiative relaxation: push the column's mass
            // distribution toward the (column-mass-preserving) equilibrium
            // profile via a downward donor sweep carrying tracers. The
            // flux through the interface below layer k relaxes the mass
            // anomaly of all layers above it, so each layer relaxes
            // toward its own target; relaxing only layer k's anomaly
            // would let a thin layer refill from a thinner one below it.
            let w = (dt / p.tau_rad).min(1.0);
            let mut anomaly_above = 0.0;
            let mut d_k = d[0];
            for k in 0..nlev - 1 {
                anomaly_above += d_k - p.equilibrium_thickness(k, sinlat) * scale;
                // Layer k+1 before the sweep touches it.
                d_k = d[k + 1];
                let excess = anomaly_above * w;
                let mut tr: [&mut [f64]; 4] =
                    [&mut qv[..], &mut qc[..], &mut co2[..], &mut o3[..]];
                if excess > 0.0 {
                    transfer_mass(d, &mut tr, k, k + 1, excess);
                } else {
                    transfer_mass(d, &mut tr, k + 1, k, -excess);
                }
            }

            // --- 4. Surface fluxes in the lowest layer.
            let kb = nlev - 1;
            let mut evap = 0.0;
            if is_water[c] {
                let qsat_sfc = qsat_surface[c];
                let deficit = (qsat_sfc - qv[kb]).max(0.0);
                let e = (p.c_exchange * wind_lowest[c].max(0.5) * deficit * dt / d[kb])
                    .min(0.5 * deficit);
                qv[kb] += e;
                evap = d[kb] * e;
            }
            // Land evapotranspiration delivered by the coupler (kg/m^2/s).
            if land_moisture_flux[c] != 0.0 {
                let e = land_moisture_flux[c] * dt / d[kb];
                qv[kb] += e;
                evap += d[kb] * e;
            }
            // CO2 flux from the coupler (ocean + land), kg/m^2/s.
            co2[kb] += co2_surface_flux[c] * dt / d[kb];

            // --- 5. O3 chemistry stand-in: relax toward the initial
            // profile shape (a source/sink, excluded from conservation).
            for (o3k, &target) in o3.iter_mut().zip(o3_target).take(nlev) {
                *o3k += (target - *o3k) * (dt / TAU_O3);
            }

            ColumnOut { precip, evap }
        })
        .collect();

    for (c, o) in outs.iter().enumerate() {
        s.precip_acc[c] += o.precip;
        s.evap_acc[c] += o.evap;
        s.precip_rate[c] = o.precip / dt;
        s.evap_rate[c] = o.evap / dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::Grid;

    fn setup() -> (Grid, AtmParams, AtmState) {
        let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let p = AtmParams::new(5, 600.0);
        let s = AtmState::initialize(&g, &p, vec![true; g.n_cells]);
        (g, p, s)
    }

    #[test]
    fn physics_conserves_dry_mass_exactly() {
        let (g, p, mut s) = setup();
        let wind = Field2::from_fn(g.n_cells, |_| 8.0);
        let before = s.total_mass(&g, g.n_cells);
        for _ in 0..5 {
            apply_physics(&g, &p, &mut s, &wind, &mut PhysicsTables::default());
        }
        let after = s.total_mass(&g, g.n_cells);
        assert!(((after - before) / before).abs() < 1e-12, "{before} -> {after}");
    }

    #[test]
    fn physics_conserves_water_inventory() {
        let (g, p, mut s) = setup();
        // Supersaturate some layers to force condensation + rain.
        for c in 0..g.n_cells {
            for k in 2..5 {
                *s.qv.at_mut(c, k) = 2.0 * AtmParams::q_saturation(p.layer_temp[k]);
            }
        }
        let wind = Field2::from_fn(g.n_cells, |_| 10.0);
        let before = s.water_inventory(&g, g.n_cells);
        for _ in 0..10 {
            apply_physics(&g, &p, &mut s, &wind, &mut PhysicsTables::default());
        }
        let after = s.water_inventory(&g, g.n_cells);
        assert!(
            ((after - before) / before).abs() < 1e-10,
            "water {before} -> {after}"
        );
        assert!(s.precip_acc.max() > 0.0, "it must have rained somewhere");
    }

    #[test]
    fn evaporation_moistens_over_water_only() {
        let (g, p, _) = setup();
        let mut is_water = vec![false; g.n_cells];
        is_water[0] = true;
        let mut s = AtmState::initialize(&g, &p, is_water);
        // Dry lowest layer everywhere.
        for c in 0..g.n_cells {
            *s.qv.at_mut(c, 4) = 0.0;
        }
        let wind = Field2::from_fn(g.n_cells, |_| 10.0);
        apply_physics(&g, &p, &mut s, &wind, &mut PhysicsTables::default());
        assert!(s.evap_acc[0] > 0.0);
        assert!(s.qv.at(0, 4) > 0.0);
        assert_eq!(s.evap_acc[1], 0.0, "no evaporation over land");
    }

    #[test]
    fn supersaturation_is_removed() {
        let (g, p, mut s) = setup();
        *s.qv.at_mut(7, 3) = 5.0 * AtmParams::q_saturation(p.layer_temp[3]);
        let wind = Field2::zeros(g.n_cells);
        apply_physics(&g, &p, &mut s, &wind, &mut PhysicsTables::default());
        assert!(s.qv.at(7, 3) <= AtmParams::q_saturation(p.layer_temp[3]) + 1e-12);
    }

    #[test]
    fn co2_surface_flux_adds_mass() {
        let (g, p, mut s) = setup();
        let flux = 1e-6;
        s.co2_surface_flux.fill(flux);
        let before = s.co2_mass(&g, g.n_cells);
        let wind = Field2::zeros(g.n_cells);
        apply_physics(&g, &p, &mut s, &wind, &mut PhysicsTables::default());
        let after = s.co2_mass(&g, g.n_cells);
        let area: f64 = (0..g.n_cells).map(|c| g.cell_area[c]).sum();
        let expect = flux * p.dt * area;
        assert!(
            ((after - before) / expect - 1.0).abs() < 1e-9,
            "added {} expected {expect}",
            after - before
        );
    }

    #[test]
    fn radiation_relaxes_toward_equilibrium_shape() {
        let (g, mut p, mut s) = setup();
        // Aggressive relaxation so the test converges quickly; production
        // runs use a 15-day time scale.
        p.tau_rad = 2.0 * p.dt;
        // Start far from equilibrium: all mass piled in the bottom layer.
        let col = p.total_depth();
        for c in 0..g.n_cells {
            for k in 0..5 {
                *s.delta.at_mut(c, k) = if k == 4 { col - 4.0 } else { 1.0 };
            }
        }
        let wind = Field2::zeros(g.n_cells);
        // Relax hard by running many steps.
        for _ in 0..400 {
            apply_physics(&g, &p, &mut s, &wind, &mut PhysicsTables::default());
        }
        for k in 0..5 {
            let want = p.equilibrium_thickness(k, g.cell_center[0].z);
            let have = s.delta.at(0, k);
            assert!(
                (have / want - 1.0).abs() < 0.3,
                "layer {k}: {have} vs eq {want}"
            );
        }
    }

    #[test]
    fn transfer_mass_conserves_tracer_mass() {
        let mut delta = vec![100.0, 200.0];
        let mut qa = vec![1.0, 3.0];
        let mut qb = vec![0.5, 0.0];
        let inv = |d: &[f64], q: &[f64]| d[0] * q[0] + d[1] * q[1];
        let before_a = inv(&delta, &qa);
        let before_b = inv(&delta, &qb);
        {
            let mut tr: [&mut [f64]; 2] = [&mut qa, &mut qb];
            transfer_mass(&mut delta, &mut tr, 1, 0, 50.0);
        }
        assert!((delta[0] - 150.0).abs() < 1e-12);
        assert!((delta[1] - 150.0).abs() < 1e-12);
        assert!((inv(&delta, &qa) - before_a).abs() < 1e-9);
        assert!((inv(&delta, &qb) - before_b).abs() < 1e-9);
    }
}
