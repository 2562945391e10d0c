//! Property tests of the atmosphere's conservation and stability
//! invariants over randomized initial perturbations and parameters.

use atmo::dycore::{self, Workspace};
use atmo::{AtmParams, Atmosphere};
use icongrid::transport::{upwind, EdgeFlux};
use icongrid::{Field2, Field3, Grid, NoExchange};
use proptest::prelude::*;
use std::sync::Arc;

fn atmosphere_with(seed: u64, nlev: usize, dt: f64) -> Atmosphere<Grid> {
    let g = Arc::new(Grid::build(1, icongrid::EARTH_RADIUS_M)); // 320 cells
    let params = AtmParams::new(nlev, dt);
    let zs = Field2::zeros(g.n_cells);
    let water = vec![true; g.n_cells];
    let mut atm = Atmosphere::new(g.clone(), params, zs, water);
    // Seeded perturbation of the mass field (up to +-2 %).
    let mut state = seed | 1;
    for c in 0..g.n_cells {
        for k in 0..nlev {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            *atm.state.delta.at_mut(c, k) *= 1.0 + 0.04 * r;
        }
    }
    atm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dry mass and water are conserved for arbitrary perturbed starts.
    #[test]
    fn conservation_under_random_perturbations(
        seed in 0u64..100_000,
        nlev in 3usize..7,
    ) {
        let mut atm = atmosphere_with(seed, nlev, 400.0);
        let g = atm.grid.clone();
        let m0 = atm.state.total_mass(g.as_ref(), g.n_cells);
        let w0 = atm.state.water_inventory(g.as_ref(), g.n_cells);
        for _ in 0..8 {
            atm.step(&NoExchange);
        }
        let m1 = atm.state.total_mass(g.as_ref(), g.n_cells);
        let w1 = atm.state.water_inventory(g.as_ref(), g.n_cells);
        prop_assert!(((m1 - m0) / m0).abs() < 1e-11, "mass {} -> {}", m0, m1);
        prop_assert!(((w1 - w0) / w0).abs() < 1e-9, "water {} -> {}", w0, w1);
        // Layers stay positive; fields stay finite.
        prop_assert!(atm.state.delta.min() > 0.0);
        prop_assert!(atm.state.vn.as_slice().iter().all(|v| v.is_finite()));
        prop_assert!(atm.state.qv.min() >= -1e-12);
    }

    /// Tracer mixing ratios never develop new extrema beyond the initial
    /// range (upwind monotonicity through the full step).
    #[test]
    fn co2_bounded_by_initial_range(seed in 0u64..100_000) {
        let mut atm = atmosphere_with(seed, 4, 400.0);
        let g = atm.grid.clone();
        // Give CO2 a spatial pattern.
        for c in 0..g.n_cells {
            for k in 0..4 {
                let v = 6e-4 * (1.0 + 0.3 * g.cell_center[c].x);
                atm.state.co2.set(c, k, v);
            }
        }
        let (lo, hi) = (atm.state.co2.min(), atm.state.co2.max());
        for _ in 0..6 {
            atm.step(&NoExchange);
        }
        prop_assert!(atm.state.co2.min() >= lo - 1e-12 * hi);
        prop_assert!(atm.state.co2.max() <= hi + 1e-12 * hi);
    }
}

/// Free stream: a uniform mixing ratio stays uniform when the tracer
/// kernel is driven by the dynamics' own output, the time-averaged mass
/// flux `ws.mass_flux` and the layer masses before and after
/// `step_dynamics`.
///
/// Round-off bound on `|q/c - 1|` per step and cell level, first order in
/// `u = 2^-53`, with `a` and `d` the layer mass before and after the step
/// and `S = dt/A sum_e (|F_e| + |F2_e - F_e|)` (`F` the stored average
/// flux, `F2` the second stage's; `S` bounds `dt/A sum_e (|F1_e| + |F2_e|)/2`):
/// * the dynamics' `d = a - dt/A sum s (F1 + F2)/2 + e_d`, `|e_d| <= 6u S + u d`
///   (per stage two roundings in the 3-edge sum, one in `1/A`, one in its
///   product; one in `t1 + t2`, one in the product with `dt/2`, one in the
///   update);
/// * the stored average `F = (F1 + F2)/2` rounds once: `u S`;
/// * the tracer numerator `N = a c - dt/A sum s F c` carries
///   `(u a + 6u S) c + u N` (one rounding per product `s F · q` and two in
///   the 3-edge sum, one each in `1/A`, `dt/A` and their product; one in
///   `a c`, one in the difference);
/// * `q = N / d` rounds once.
///
/// Together `|q/c - 1| <= u (13 S + a)/d + 3u`; the test allows
/// `16u (S + a)/d + 4u`. Under CFL the upwind update is a convex
/// combination of the old mixing ratios, so earlier deviations do not
/// grow: after `n` steps the bound is the sum of the per-step bounds.
#[test]
fn uniform_tracer_stays_uniform_on_the_dynamics_mass_flux() {
    let mut atm = atmosphere_with(7, 5, 300.0);
    let g = atm.grid.clone();
    let p = atm.params.clone();
    let mut ws = Workspace::new(g.as_ref(), p.nlev);
    let c = 0.7;
    let mut q = Field3::from_fn(g.n_cells, p.nlev, |_, _| c);
    let mut scratch = Field3::zeros(g.n_cells, p.nlev);
    let u = f64::EPSILON / 2.0;
    let (mut bound, mut max_courant) = (0.0, 0.0f64);
    for step in 0..12 {
        let delta_old = atm.state.delta.clone();
        dycore::step_dynamics(g.as_ref(), &p, &mut atm.state, &atm.z_surface, &mut ws, &NoExchange);
        let mut step_bound = 0.0f64;
        for cell in 0..g.n_cells {
            for k in 0..p.nlev {
                let s = p.dt / g.cell_area[cell]
                    * g.cell_edges[cell]
                        .iter()
                        .map(|&e| {
                            let f = ws.mass_flux.at(e as usize, k);
                            f.abs() + (ws.stage_flux.at(e as usize, k) - f).abs()
                        })
                        .sum::<f64>();
                let (a, d) = (delta_old.at(cell, k), atm.state.delta.at(cell, k));
                step_bound = step_bound.max(16.0 * u * (s + a) / d + 4.0 * u);
                max_courant = max_courant.max(s / a);
            }
        }
        bound += step_bound;
        let masses = Some((&delta_old, &atm.state.delta));
        let flux = EdgeFlux::Total(&ws.mass_flux);
        upwind(g.as_ref(), flux, masses, None, None, p.dt, &mut [&mut q], &mut scratch);
        let dev = q.as_slice().iter().map(|x| (x / c - 1.0).abs()).fold(0.0, f64::max);
        assert!(dev <= bound, "step {step}: |q/c - 1| = {dev:e} exceeds the round-off bound {bound:e}");
    }
    assert!(max_courant > 1e-4, "the flow moves mass: max Courant {max_courant:e}");
}
