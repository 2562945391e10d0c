//! Property tests of the ocean core: solver robustness across random
//! bathymetries and conservation of the masked tracer transport.

use icongrid::transport::{upwind, EdgeFlux};
use icongrid::{Field2, Field3, Grid, NoExchange};
use ocean::params::{OceanMask, OceanParams};
use ocean::{BarotropicSolver, Ocean};
use proptest::prelude::*;
use std::sync::Arc;

fn random_bathymetry(g: &Grid, seed: u64, land_bias: f64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..g.n_cells)
        .map(|c| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let r = (state >> 11) as f64 / (1u64 << 53) as f64;
            let z = g.cell_center[c].z;
            if r < land_bias || z > 0.92 {
                0.0
            } else {
                500.0 + 4000.0 * r
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The barotropic solver converges on any random bathymetry (islands,
    /// shelves, disconnected basins included) and leaves dry cells at
    /// zero.
    #[test]
    fn cg_converges_on_random_bathymetry(seed in 0u64..100_000, bias in 0.0f64..0.5) {
        let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let p = OceanParams::new(5, 600.0);
        let bathy = random_bathymetry(&g, seed, bias);
        let mask = OceanMask::from_bathymetry(&g, &p, &bathy);
        prop_assume!(mask.n_wet_cells() > 10);
        let depths: Vec<f64> = (0..g.n_cells)
            .map(|c| (0..mask.cell_levels[c] as usize).map(|k| p.dz[k]).sum())
            .collect();
        let mut solver = BarotropicSolver::new(
            &g, 600.0, &depths, mask.wet_cell.clone(), 1e-9, 1000,
        );
        let rhs = Field2::from_fn(g.n_cells, |c| {
            if mask.wet_cell[c] {
                g.cell_area[c] * g.cell_center[c].x
            } else {
                0.0
            }
        });
        let mut eta = Field2::zeros(g.n_cells);
        let stats = solver.solve(&g, &NoExchange, &rhs, &mut eta, g.n_cells);
        prop_assert!(stats.converged, "{:?}", stats);
        for c in 0..g.n_cells {
            if !mask.wet_cell[c] {
                prop_assert!(eta[c].abs() < 1e-9, "dry cell {} moved", c);
            }
            prop_assert!(eta[c].is_finite());
        }
    }

    /// Masked 3-D tracer advection conserves the inventory on any
    /// bathymetry and any smooth flow (no flux through coasts, floor, or
    /// surface).
    #[test]
    fn masked_advection_conserves(seed in 0u64..100_000) {
        let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let p = OceanParams::new(5, 600.0);
        let bathy = random_bathymetry(&g, seed, 0.25);
        let mask = OceanMask::from_bathymetry(&g, &p, &bathy);
        prop_assume!(mask.n_wet_cells() > 10);
        // A velocity field respecting the mask.
        let axis = icongrid::geom::Vec3::new(0.2, -0.5, 0.8).normalized();
        let vn = Field3::from_fn(g.n_edges, p.nlev, |e, k| {
            if k < mask.edge_levels[e] as usize {
                axis.cross(&g.edge_midpoint[e]).scale(0.4).dot(&g.edge_normal[e])
            } else {
                0.0
            }
        });
        // Vertical velocity consistent with a rigid lid (zero here: the
        // conservation property must hold for any w, including zero).
        let w = Field3::zeros(g.n_cells, p.nlev);
        let mut tr = Field3::from_fn(g.n_cells, p.nlev, |c, k| {
            if mask.wet_cell[c] && k < mask.cell_levels[c] as usize {
                1.0 + g.cell_center[c].y * 0.5
            } else {
                0.0
            }
        });
        let inventory = |tr: &Field3| -> f64 {
            (0..g.n_cells)
                .filter(|&c| mask.wet_cell[c])
                .map(|c| {
                    let n = mask.cell_levels[c] as usize;
                    g.cell_area[c]
                        * (0..n).map(|k| tr.at(c, k) * p.dz[k]).sum::<f64>()
                })
                .sum()
        };
        let before = inventory(&tr);
        let mut scratch = Field3::zeros(g.n_cells, p.nlev);
        let levels = Some((&mask.cell_levels[..], &mask.edge_levels[..]));
        for _ in 0..5 {
            let flux = EdgeFlux::PerLength(&vn);
            upwind(&g, flux, None, levels, Some((&w, &p.dz)), p.dt, &mut [&mut tr], &mut scratch);
        }
        let after = inventory(&tr);
        prop_assert!(
            ((after - before) / before).abs() < 1e-10,
            "inventory {} -> {}", before, after
        );
        prop_assert!(tr.as_slice().iter().all(|v| v.is_finite()));
    }
}

/// A coupled sanity run on a random aqua-planet: the full ocean step
/// sequence stays stable for a simulated day.
#[test]
fn random_ocean_stays_stable_for_a_day() {
    let g = Arc::new(Grid::build(2, icongrid::EARTH_RADIUS_M));
    let bathy = random_bathymetry(&g, 99, 0.2);
    let mut o = Ocean::new(g.clone(), OceanParams::new(5, 1200.0), &bathy);
    // Random-ish wind forcing.
    for e in 0..g.n_edges {
        o.state.wind_stress_n[e] = 0.08 * ((e * 37 % 100) as f64 / 50.0 - 1.0);
    }
    let steps = (86_400.0 / o.params.dt) as usize;
    for _ in 0..steps {
        o.step(&NoExchange, g.n_cells);
        assert!(o.last_cg.converged);
    }
    assert!(o.state.temp.as_slice().iter().all(|v| v.is_finite()));
    assert!(o
        .state
        .vn
        .as_slice()
        .iter()
        .all(|v| v.is_finite() && v.abs() < 20.0));
}

/// Free stream for the masked transport: a uniform tracer stays uniform
/// under a baroclinic `vn` (its depth integral vanishes on every edge)
/// with `w` integrated up from the floor in the kernel's convention,
/// `w_k = w_{k+1} - D_k dz_k` (`w_k` the positive-up velocity through the
/// top of layer k, `D_k` the horizontal divergence, `w` zero at the
/// floor). `Ocean::step` integrates continuity with the opposite sign
/// today (`w += div dz`; CHANGES.md FOUND, PR 44; ROADMAP item 3), so
/// this `w` is built here, not taken from the model.
///
/// Round-off bound on `|q/c - 1|` per step at an active cell level, first
/// order in `u = 2^-53`, with `H = dt/A sum_e l_e |v_e,k|`,
/// `V = dt/dz_k (|w_k| + |w_{k+1}|)` and
/// `W = dt/dz_k sum_j (dz_j/A sum_e l_e |v_e,j| + |w_j|)` over the column:
/// * horizontal: two roundings per edge term `s l v q`, two in the 3-edge
///   sum, one each in `1/A`, `dt/A` and their product, one in the
///   difference: `u (8H + 1)`;
/// * vertical: one rounding per `w q`, one in their difference, one in
///   `dt/dz`, one in the product, one in the sum: `u (4V + 1)`;
/// * `w` as built here: each level below adds five roundings in its
///   divergence and one in the subtraction, reaching layer k through
///   `w_k` and `w_{k+1}`: `12u W`.
///
/// The test allows `16u (1 + H + V + W)` per step. Under CFL the update is
/// a convex combination of the old values, so after `n` steps the bound
/// is `n` times the per-step one.
#[test]
fn uniform_tracer_stays_uniform_under_a_baroclinic_flow() {
    let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
    let p = OceanParams::new(6, 1200.0);
    let mask = OceanMask::from_bathymetry(&g, &p, &random_bathymetry(&g, 4242, 0.2));
    let axis = icongrid::geom::Vec3::new(0.3, -0.4, 0.85).normalized();
    let vn = Field3::from_fn(g.n_edges, p.nlev, |e, k| {
        let n = mask.edge_levels[e] as usize;
        if k >= n {
            return 0.0;
        }
        // Level index minus its thickness-weighted mean over the edge's
        // active levels: zero depth integral.
        let depth: f64 = p.dz[..n].iter().sum();
        let mean = (0..n).map(|j| j as f64 * p.dz[j]).sum::<f64>() / depth;
        let u0 = axis.cross(&g.edge_midpoint[e]).scale(0.5).dot(&g.edge_normal[e]);
        u0 * (k as f64 - mean)
    });
    let div = |c: usize, k: usize, abs: bool| -> f64 {
        (0..3)
            .map(|i| {
                let e = g.cell_edges[c][i] as usize;
                let f = g.edge_length[e] * vn.at(e, k);
                if abs { f.abs() } else { g.cell_edge_sign[c][i] * f }
            })
            .sum::<f64>()
            / g.cell_area[c]
    };
    let mut w = Field3::zeros(g.n_cells, p.nlev);
    for c in 0..g.n_cells {
        let mut wk = 0.0; // sea floor
        for k in (1..mask.cell_levels[c] as usize).rev() {
            wk -= div(c, k, false) * p.dz[k];
            w.set(c, k, wk);
        }
    }

    let u = f64::EPSILON / 2.0;
    let (mut step_bound, mut max_h, mut max_v) = (0.0f64, 0.0f64, 0.0f64);
    for c in 0..g.n_cells {
        let na = mask.cell_levels[c] as usize;
        let column: f64 = (0..na).map(|j| div(c, j, true) * p.dz[j] + w.at(c, j).abs()).sum();
        for k in 0..na {
            let h = p.dt * div(c, k, true);
            let w_below = if k + 1 < na { w.at(c, k + 1) } else { 0.0 };
            let v = p.dt / p.dz[k] * (w.at(c, k).abs() + w_below.abs());
            step_bound = step_bound.max(16.0 * u * (1.0 + h + v + p.dt / p.dz[k] * column));
            (max_h, max_v) = (max_h.max(h), max_v.max(v));
        }
    }
    assert!(max_h > 1e-4 && max_v > 1e-4, "the flow moves water: H {max_h:e}, V {max_v:e}");

    let c0 = 0.7;
    let active = |c: usize, k: usize| k < mask.cell_levels[c] as usize;
    let mut tr = Field3::from_fn(g.n_cells, p.nlev, |c, k| if active(c, k) { c0 } else { 0.0 });
    let mut scratch = Field3::zeros(g.n_cells, p.nlev);
    let levels = Some((&mask.cell_levels[..], &mask.edge_levels[..]));
    for step in 1..=6 {
        let flux = EdgeFlux::PerLength(&vn);
        upwind(&g, flux, None, levels, Some((&w, &p.dz)), p.dt, &mut [&mut tr], &mut scratch);
        let dev = (0..g.n_cells)
            .flat_map(|c| (0..p.nlev).map(move |k| (c, k)))
            .filter(|&(c, k)| active(c, k))
            .map(|(c, k)| (tr.at(c, k) / c0 - 1.0).abs())
            .fold(0.0, f64::max);
        let bound = step as f64 * step_bound;
        assert!(dev <= bound, "step {step}: |q/c - 1| = {dev:e} exceeds the round-off bound {bound:e}");
    }
}
