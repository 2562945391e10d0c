//! Flux-form tracer transport, consistent with the dynamical core's mass
//! fluxes.
//!
//! Using the *same* time-averaged edge mass flux as the continuity
//! equation guarantees (a) exact tracer-mass conservation and (b) exact
//! preservation of spatially uniform mixing ratios — the two properties
//! km-scale transport schemes must not lose (paper §3: tracers for H2O,
//! CO2 and O3 ride on the atmosphere's resolved transport).

use icongrid::ops::CGrid;
use icongrid::Field3;
use rayon::prelude::*;

/// Most levels [`advect_tracer`]'s per-column stack accumulator holds.
const MAX_LEVELS: usize = 256;

/// Advance one tracer (mixing ratio `q`, per unit mass) through one step:
///
/// `delta_new * q_new = delta_old * q_old - dt/A * sum_e sign * F_e * q_up`
///
/// where `F_e` is the time-averaged edge mass flux (`l_e vn delta_up`) the
/// dynamics used for the continuity equation, and `q_up` the upwind mixing
/// ratio w.r.t. the sign of `F_e`.
pub fn advect_tracer<G: CGrid>(
    g: &G,
    mass_flux: &Field3,
    delta_old: &Field3,
    delta_new: &Field3,
    dt: f64,
    q: &mut Field3,
    q_old: &mut Field3,
) {
    let nlev = q.nlev();
    assert!(
        nlev <= MAX_LEVELS,
        "advect_tracer: {nlev} levels (AtmParams::nlev, EsmConfig::atm_levels) exceed the limit of {MAX_LEVELS}"
    );
    q_old.as_mut_slice().copy_from_slice(q.as_slice());
    let q_prev: &Field3 = q_old;
    q.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, col)| {
            let edges = g.cell_edges(c);
            let signs = g.cell_edge_sign(c);
            let inv_a = 1.0 / g.cell_area(c);
            let d_old = delta_old.col(c);
            let d_new = delta_new.col(c);
            let mine = q_prev.col(c);
            // Accumulate flux divergence of delta*q.
            let mut acc = [0.0f64; MAX_LEVELS];
            let acc = &mut acc[..nlev];
            for i in 0..3 {
                let e = edges[i] as usize;
                let [c0, c1] = g.edge_cells(e);
                let f = mass_flux.col(e);
                let q0 = q_prev.col(c0 as usize);
                let q1 = q_prev.col(c1 as usize);
                for k in 0..nlev {
                    let qup = if f[k] >= 0.0 { q0[k] } else { q1[k] };
                    acc[k] += signs[i] * f[k] * qup;
                }
            }
            for k in 0..nlev {
                let dq_new = d_old[k] * mine[k] - dt * inv_a * acc[k];
                // Guard the division for vanishing layers.
                col[k] = if d_new[k] > 1e-12 { dq_new / d_new[k] } else { mine[k] };
            }
        });
}

/// Tracer inventory `sum_c A_c sum_k delta_{c,k} q_{c,k}` over the first
/// `owned_cells` cells.
pub fn tracer_mass<G: CGrid>(g: &G, delta: &Field3, q: &Field3, owned_cells: usize) -> f64 {
    (0..owned_cells)
        .map(|c| {
            let a = g.cell_area(c);
            let d = delta.col(c);
            let qq = q.col(c);
            a * d.iter().zip(qq).map(|(x, y)| x * y).sum::<f64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icongrid::geom::Vec3;
    use icongrid::Grid;

    const NLEV: usize = 3;

    fn setup() -> (Grid, Field3, Field3, Field3) {
        let g = Grid::build(3, icongrid::EARTH_RADIUS_M);
        let delta_old = Field3::from_fn(g.n_cells, NLEV, |c, _| {
            1000.0 + 30.0 * g.cell_center[c].x
        });
        // Solid-body velocity field and its upwind mass flux.
        let axis = Vec3::new(0.1, -0.3, 0.9).normalized();
        let vn = Field3::from_fn(g.n_edges, NLEV, |e, _| {
            axis.cross(&g.edge_midpoint[e]).scale(15.0).dot(&g.edge_normal[e])
        });
        let mut flux = Field3::zeros(g.n_edges, NLEV);
        for e in 0..g.n_edges {
            let [c0, c1] = g.edge_cells[e];
            for k in 0..NLEV {
                let v = vn.at(e, k);
                let dup = if v >= 0.0 {
                    delta_old.at(c0 as usize, k)
                } else {
                    delta_old.at(c1 as usize, k)
                };
                flux.set(e, k, g.edge_length[e] * v * dup);
            }
        }
        // Consistent delta update.
        let dt = 200.0;
        let mut delta_new = delta_old.clone();
        for c in 0..g.n_cells {
            for i in 0..3 {
                let e = g.cell_edges[c][i] as usize;
                for k in 0..NLEV {
                    *delta_new.at_mut(c, k) -=
                        dt / g.cell_area[c] * g.cell_edge_sign[c][i] * flux.at(e, k);
                }
            }
        }
        (g, delta_old, delta_new, flux)
    }

    #[test]
    #[should_panic(expected = "EsmConfig::atm_levels) exceed the limit of 256")]
    fn more_levels_than_the_accumulator_holds_is_refused_at_entry() {
        let g = Grid::build(0, icongrid::EARTH_RADIUS_M);
        let nlev = MAX_LEVELS + 1;
        let delta = Field3::from_fn(g.n_cells, nlev, |_, _| 1000.0);
        let flux = Field3::zeros(g.n_edges, nlev);
        let mut q = Field3::zeros(g.n_cells, nlev);
        let mut scratch = Field3::zeros(g.n_cells, nlev);
        advect_tracer(&g, &flux, &delta, &delta, 200.0, &mut q, &mut scratch);
    }

    #[test]
    fn uniform_tracer_stays_uniform() {
        let (g, d_old, d_new, flux) = setup();
        let mut q = Field3::from_fn(g.n_cells, NLEV, |_, _| 3.25);
        let mut q_scratch = Field3::zeros(g.n_cells, NLEV);
        advect_tracer(&g, &flux, &d_old, &d_new, 200.0, &mut q, &mut q_scratch);
        for c in 0..g.n_cells {
            for k in 0..NLEV {
                assert!(
                    (q.at(c, k) - 3.25).abs() < 1e-12,
                    "cell {c} level {k}: {}",
                    q.at(c, k)
                );
            }
        }
    }

    #[test]
    fn tracer_mass_is_conserved() {
        let (g, d_old, d_new, flux) = setup();
        let mut q = Field3::from_fn(g.n_cells, NLEV, |c, k| {
            0.5 + 0.5 * (g.cell_center[c].y + k as f64 * 0.1).sin()
        });
        let mut scratch = Field3::zeros(g.n_cells, NLEV);
        let before = tracer_mass(&g, &d_old, &q, g.n_cells);
        advect_tracer(&g, &flux, &d_old, &d_new, 200.0, &mut q, &mut scratch);
        let after = tracer_mass(&g, &d_new, &q, g.n_cells);
        assert!(
            ((after - before) / before).abs() < 1e-12,
            "mass {before} -> {after}"
        );
    }

    #[test]
    fn positivity_preserved_under_cfl() {
        let (g, d_old, d_new, flux) = setup();
        // A spike of tracer in one cell, zero elsewhere.
        let mut q = Field3::zeros(g.n_cells, NLEV);
        for k in 0..NLEV {
            q.set(100, k, 1.0);
        }
        let mut scratch = Field3::zeros(g.n_cells, NLEV);
        advect_tracer(&g, &flux, &d_old, &d_new, 200.0, &mut q, &mut scratch);
        assert!(q.min() >= -1e-15, "upwind must stay positive: {}", q.min());
        // The spike spreads to neighbors downstream.
        let spread = (0..g.n_cells).filter(|&c| q.at(c, 0) > 1e-9).count();
        assert!(spread >= 1);
    }

    #[test]
    fn monotone_no_new_extrema() {
        let (g, d_old, d_new, flux) = setup();
        let mut q = Field3::from_fn(g.n_cells, NLEV, |c, _| {
            if g.cell_center[c].z > 0.0 {
                1.0
            } else {
                0.0
            }
        });
        let mut scratch = Field3::zeros(g.n_cells, NLEV);
        advect_tracer(&g, &flux, &d_old, &d_new, 200.0, &mut q, &mut scratch);
        assert!(q.min() >= -1e-12);
        assert!(q.max() <= 1.0 + 1e-12);
    }

    #[test]
    fn zero_flux_is_identity() {
        let (g, d_old, _, _) = setup();
        let flux = Field3::zeros(g.n_edges, NLEV);
        let mut q = Field3::from_fn(g.n_cells, NLEV, |c, k| (c + k) as f64);
        let before = q.clone();
        let mut scratch = Field3::zeros(g.n_cells, NLEV);
        advect_tracer(&g, &flux, &d_old, &d_old, 200.0, &mut q, &mut scratch);
        // (delta*q)/delta round-trips through one multiply/divide pair.
        for (a, b) in q.as_slice().iter().zip(before.as_slice()) {
            assert!((a - b).abs() <= 1e-14 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}
