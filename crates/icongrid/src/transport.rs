//! Flux-form tracer transport: the one first-order upwind kernel under
//! the atmosphere's moisture, CO2 and O3, the ocean's temperature and
//! salinity, and HAMOCC's tracers.
//!
//! Driving the tracers with the *same* edge flux as the continuity
//! equation guarantees (a) exact tracer-mass conservation — every edge
//! flux leaves one cell and enters its neighbour, so the fluxes telescope
//! — and (b) exact preservation of spatially uniform mixing ratios (free
//! stream) — the two properties km-scale transport schemes must not lose
//! (paper §3: tracers for H2O, CO2 and O3 ride on the atmosphere's
//! resolved transport; §5.1: the ocean's "large three-dimensional
//! fields").

use crate::field::Field3;
use crate::ops::CGrid;
use rayon::prelude::*;

/// Most levels [`upwind`]'s stack accumulator holds.
const MAX_LEVELS: usize = 256;

/// Columns handed to the pool as one task; they share one accumulator.
const BLOCK: usize = 16;

/// Unit layer masses, for a tracer at fixed layers.
static ONES: [f64; MAX_LEVELS] = [1.0; MAX_LEVELS];

/// What the edge field handed to [`upwind`] measures.
pub enum EdgeFlux<'a> {
    /// The flux through the whole edge, e.g. the mass flux
    /// `l_e vn delta_up`: scale 1.
    Total(&'a Field3),
    /// A flux per unit edge length, e.g. a normal velocity: scaled by the
    /// edge length `l_e`.
    PerLength(&'a Field3),
}

/// Advance every field of `tracers` by one step of first-order upwind
/// transport in flux form:
///
/// `d_new q_new = d_old q - dt/A sum_e s_e x_e q_up + dt/dz (phi_bottom - phi_top)`
///
/// with `x_e` the edge field, `s_e = sign(c, e) scale_e` (see
/// [`EdgeFlux`]) and `q_up` the upwind value: `q[c0]` where `x_e >= 0`
/// (flow from cell 0 to cell 1), `q[c1]` otherwise.
///
/// * `masses`: the layer masses `(d_old, d_new)` before and after the
///   step, for a mixing ratio; `None` for unit masses. Where `d_new`
///   vanishes (`<= 1e-12`) the old value is kept.
/// * `levels`: the active levels `(per cell, per edge)`. Cell `c` is
///   updated over its first `levels.0[c]` levels only, through each
///   edge's first `min(levels.1[e], levels.0[c])`; inactive levels and
///   cells without any are untouched.
/// * `vertical`: `(w, dz)` adds the upwind flux `phi_k = w_k q_up` through
///   the top of layer k (positive up), zero at the surface and the floor,
///   in thickness form for fixed layers `dz` (so with unit masses).
///
/// `scratch` holds each tracer's old values in turn.
#[allow(clippy::too_many_arguments)]
pub fn upwind<G: CGrid>(
    g: &G,
    flux: EdgeFlux<'_>,
    masses: Option<(&Field3, &Field3)>,
    levels: Option<(&[u16], &[u16])>,
    vertical: Option<(&Field3, &[f64])>,
    dt: f64,
    tracers: &mut [&mut Field3],
    scratch: &mut Field3,
) {
    let nlev = scratch.nlev();
    assert!(
        nlev <= MAX_LEVELS,
        "upwind transport: {nlev} levels (EsmConfig::atm_levels, EsmConfig::oce_levels) exceed the limit of {MAX_LEVELS}"
    );
    let (x, per_length) = match flux {
        EdgeFlux::Total(x) => (x, false),
        EdgeFlux::PerLength(x) => (x, true),
    };
    for q in tracers.iter_mut() {
        scratch.as_mut_slice().copy_from_slice(q.as_slice());
        let old: &Field3 = scratch;
        q.as_mut_slice()
            .par_chunks_mut(nlev * BLOCK)
            .enumerate()
            .for_each(|(block, cols)| {
                let mut acc = [0.0f64; MAX_LEVELS];
                for (j, col) in cols.chunks_mut(nlev).enumerate() {
                    let c = block * BLOCK + j;
                    let na = levels.map_or(nlev, |(cells, _)| cells[c] as usize);
                    if na == 0 {
                        continue;
                    }
                    let edges = g.cell_edges(c);
                    let signs = g.cell_edge_sign(c);
                    let inv_a = 1.0 / g.cell_area(c);
                    let mine = old.col(c);
                    // Accumulate the flux divergence of d*q.
                    let acc = &mut acc[..na];
                    acc.fill(0.0);
                    for i in 0..3 {
                        let e = edges[i] as usize;
                        let ne = levels.map_or(nlev, |(_, edges)| edges[e] as usize).min(na);
                        let s = signs[i] * if per_length { g.edge_length(e) } else { 1.0 };
                        let [c0, c1] = g.edge_cells(e);
                        let xe = x.col(e);
                        let q0 = old.col(c0 as usize);
                        let q1 = old.col(c1 as usize);
                        for k in 0..ne {
                            let qup = if xe[k] >= 0.0 { q0[k] } else { q1[k] };
                            acc[k] += s * xe[k] * qup;
                        }
                    }
                    let (d_old, d_new) =
                        masses.map_or((&ONES[..nlev], &ONES[..nlev]), |(o, n)| (o.col(c), n.col(c)));
                    for k in 0..na {
                        let dq_new = d_old[k] * mine[k] - dt * inv_a * acc[k];
                        col[k] = if d_new[k] > 1e-12 { dq_new / d_new[k] } else { mine[k] };
                    }
                    let Some((w, dz)) = vertical else { continue };
                    // phi_0 = 0 at the surface, no flux through the floor.
                    for k in 0..na {
                        let phi_top = if k == 0 {
                            0.0
                        } else {
                            let wk = w.at(c, k);
                            wk * if wk >= 0.0 { mine[k] } else { mine[k - 1] }
                        };
                        let phi_bottom = if k + 1 < na {
                            let wb = w.at(c, k + 1);
                            wb * if wb >= 0.0 { mine[k + 1] } else { mine[k] }
                        } else {
                            0.0
                        };
                        col[k] += dt / dz[k] * (phi_bottom - phi_top);
                    }
                }
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Vec3;
    use crate::Grid;

    const NLEV: usize = 3;

    /// Tracer inventory `sum_c A_c sum_k delta_{c,k} q_{c,k}` over the
    /// first `owned_cells` cells.
    fn tracer_mass<G: CGrid>(g: &G, delta: &Field3, q: &Field3, owned_cells: usize) -> f64 {
        (0..owned_cells)
            .map(|c| {
                let a = g.cell_area(c);
                let d = delta.col(c);
                let qq = q.col(c);
                a * d.iter().zip(qq).map(|(x, y)| x * y).sum::<f64>()
            })
            .sum()
    }

    fn setup() -> (Grid, Field3, Field3, Field3) {
        let g = Grid::build(3, crate::EARTH_RADIUS_M);
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

    /// One mass-weighted step of 200 s on a whole-edge mass flux.
    fn advect(g: &Grid, flux: &Field3, d_old: &Field3, d_new: &Field3, q: &mut Field3) {
        let mut scratch = Field3::zeros(g.n_cells, q.nlev());
        upwind(g, EdgeFlux::Total(flux), Some((d_old, d_new)), None, None, 200.0, &mut [q], &mut scratch);
    }

    #[test]
    #[should_panic(expected = "levels (EsmConfig::atm_levels, EsmConfig::oce_levels) exceed the limit of 256")]
    fn more_levels_than_the_accumulator_holds_is_refused_at_entry() {
        let g = Grid::build(0, crate::EARTH_RADIUS_M);
        let nlev = MAX_LEVELS + 1;
        let vn = Field3::zeros(g.n_edges, nlev);
        let mut q = Field3::zeros(g.n_cells, nlev);
        let mut scratch = Field3::zeros(g.n_cells, nlev);
        upwind(&g, EdgeFlux::PerLength(&vn), None, None, None, 600.0, &mut [&mut q], &mut scratch);
    }

    #[test]
    fn uniform_tracer_stays_uniform() {
        let (g, d_old, d_new, flux) = setup();
        let mut q = Field3::from_fn(g.n_cells, NLEV, |_, _| 3.25);
        advect(&g, &flux, &d_old, &d_new, &mut q);
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
        let before = tracer_mass(&g, &d_old, &q, g.n_cells);
        advect(&g, &flux, &d_old, &d_new, &mut q);
        let after = tracer_mass(&g, &d_new, &q, g.n_cells);
        assert!(
            ((after - before) / before).abs() < 1e-12,
            "mass {before} -> {after}"
        );
    }

    #[test]
    fn upwind_advection_conserves_tracer_mass() {
        // Unit masses, a normal velocity scaled by the edge length.
        let g = Grid::build(3, crate::EARTH_RADIUS_M);
        let axis = Vec3::new(0.2, 0.3, 0.9).normalized();
        let vn = Field3::from_fn(g.n_edges, 1, |e, _| {
            axis.cross(&g.edge_midpoint[e]).scale(20.0).dot(&g.edge_normal[e])
        });
        let mut q = Field3::from_fn(g.n_cells, 1, |c, _| 1.0 + g.cell_center[c].x);
        let mut scratch = Field3::zeros(g.n_cells, 1);
        let before = q.weighted_sum(&g.cell_area);
        upwind(&g, EdgeFlux::PerLength(&vn), None, None, None, 200.0, &mut [&mut q], &mut scratch);
        // Every edge flux leaves one cell and enters its neighbour.
        let after = q.weighted_sum(&g.cell_area);
        assert!(((after - before) / before).abs() < 1e-12, "{before} -> {after}");
    }

    #[test]
    fn positivity_preserved_under_cfl() {
        let (g, d_old, d_new, flux) = setup();
        // A spike of tracer in one cell, zero elsewhere.
        let mut q = Field3::zeros(g.n_cells, NLEV);
        for k in 0..NLEV {
            q.set(100, k, 1.0);
        }
        advect(&g, &flux, &d_old, &d_new, &mut q);
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
        advect(&g, &flux, &d_old, &d_new, &mut q);
        assert!(q.min() >= -1e-12);
        assert!(q.max() <= 1.0 + 1e-12);
    }

    #[test]
    fn zero_flux_is_identity() {
        let (g, d_old, _, _) = setup();
        let flux = Field3::zeros(g.n_edges, NLEV);
        let mut q = Field3::from_fn(g.n_cells, NLEV, |c, k| (c + k) as f64);
        let before = q.clone();
        advect(&g, &flux, &d_old, &d_old, &mut q);
        // (delta*q)/delta round-trips through one multiply/divide pair.
        for (a, b) in q.as_slice().iter().zip(before.as_slice()) {
            assert!((a - b).abs() <= 1e-14 * b.abs().max(1.0), "{a} vs {b}");
        }
    }
}
