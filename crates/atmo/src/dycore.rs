//! The dynamical core: two-time-level predictor–corrector stepping of the
//! stacked-layer hydrostatic equations, plus consistent flux-form tracer
//! transport.
//!
//! One step (`step_dynamics`):
//!
//! 1. predictor: full tendencies at time `n`, advance to provisional state;
//! 2. corrector: tendencies at the provisional state, advance with the
//!    average (Heun's method — ICON's predictor–corrector family);
//! 3. tracers: upwind flux-form transport using the **time-averaged mass
//!    flux**, so a spatially uniform tracer stays exactly uniform and
//!    tracer mass is conserved to round-off;
//! 4. divergence damping and sponge/friction Rayleigh terms stabilize
//!    gravity-wave noise exactly as in ICON (which uses a higher-order
//!    variant of the same device).
//!
//! Halo exchanges happen after every partial update through the
//! [`Exchange`] abstraction, mirroring the boundary exchanges of §5.1.

use crate::params::{AtmParams, GRAVITY};
use crate::state::AtmState;
use icongrid::exchange::Exchange;
use icongrid::ops::{self, CGrid};
use icongrid::{Field2, Field3};
use rayon::prelude::*;

/// Dimensionless divergence-damping coefficient.
pub const DIV_DAMP_COEF: f64 = 0.04;

/// Scratch space reused across steps (no per-step allocation).
pub struct Workspace {
    pub montgomery: Field3,
    pub ke: Field3,
    pub zeta: Field3,
    pub cellvec: [Field3; 3],
    pub vt: Field3,
    pub div: Field3,
    pub grad: Field3,
    pub sum_km: Field3,
    /// Edge mass flux accumulated over the two stages (l_e * vn * delta_up).
    pub mass_flux: Field3,
    pub stage_flux: Field3,
    pub d_delta: [Field3; 2],
    pub d_vn: [Field3; 2],
    pub delta_star: Field3,
    pub vn_star: Field3,
    pub tracer_old: Field3,
}

impl Workspace {
    pub fn new<G: CGrid>(g: &G, nlev: usize) -> Workspace {
        let (nc, ne, nv) = (g.n_cells(), g.n_edges(), g.n_vertices());
        Workspace {
            montgomery: Field3::zeros(nc, nlev),
            ke: Field3::zeros(nc, nlev),
            zeta: Field3::zeros(nv, nlev),
            cellvec: [
                Field3::zeros(nc, nlev),
                Field3::zeros(nc, nlev),
                Field3::zeros(nc, nlev),
            ],
            vt: Field3::zeros(ne, nlev),
            div: Field3::zeros(nc, nlev),
            grad: Field3::zeros(ne, nlev),
            sum_km: Field3::zeros(nc, nlev),
            mass_flux: Field3::zeros(ne, nlev),
            stage_flux: Field3::zeros(ne, nlev),
            d_delta: [Field3::zeros(nc, nlev), Field3::zeros(nc, nlev)],
            d_vn: [Field3::zeros(ne, nlev), Field3::zeros(ne, nlev)],
            delta_star: Field3::zeros(nc, nlev),
            vn_star: Field3::zeros(ne, nlev),
            tracer_old: Field3::zeros(nc, nlev),
        }
    }
}

/// Montgomery potential of every column:
/// `M_k = g (z_s + sum_{j<k} (rho_j/rho_k) delta_j + sum_{j>=k} delta_j)`,
/// computed in O(nlev) per column with two prefix sums.
pub fn montgomery_potential(
    params: &AtmParams,
    delta: &Field3,
    z_surface: &Field2,
    out: &mut Field3,
) {
    let nlev = params.nlev;
    let rho = &params.rho;
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, m)| {
            let d = delta.col(c);
            let zs = z_surface[c];
            // Suffix sum S2_k = sum_{j>=k} delta_j, parked in the output.
            let mut s2 = 0.0;
            for k in (0..nlev).rev() {
                s2 += d[k];
                m[k] = s2;
            }
            // Prefix sum of rho-weighted thickness above.
            let mut s1 = 0.0;
            for k in 0..nlev {
                m[k] = GRAVITY * (zs + s1 / rho[k] + m[k]);
                s1 += rho[k] * d[k];
            }
        });
}

/// Upwind edge mass flux `F_e = l_e * vn_e * delta_up` for every edge and
/// level.
fn edge_mass_flux<G: CGrid>(g: &G, vn: &Field3, delta: &Field3, out: &mut Field3) {
    let nlev = vn.nlev();
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(e, col)| {
            let [c0, c1] = g.edge_cells(e);
            let l = g.edge_length(e);
            let d0 = delta.col(c0 as usize);
            let d1 = delta.col(c1 as usize);
            let v = vn.col(e);
            for k in 0..nlev {
                let dup = if v[k] >= 0.0 { d0[k] } else { d1[k] };
                col[k] = l * v[k] * dup;
            }
        });
}

/// Full dynamics tendencies at a given state. Outputs `d_delta` (cells)
/// and `d_vn` (edges); also leaves the stage's edge mass flux in
/// `ws.stage_flux`.
pub fn tendencies<G: CGrid>(
    g: &G,
    params: &AtmParams,
    delta: &Field3,
    vn: &Field3,
    z_surface: &Field2,
    ws: &mut Workspace,
    stage: usize,
) {
    let nlev = params.nlev;

    montgomery_potential(params, delta, z_surface, &mut ws.montgomery);
    ops::kinetic_energy(g, vn, &mut ws.ke);
    ops::vorticity(g, vn, &mut ws.zeta);
    ops::reconstruct_cell_vectors(g, vn, &mut ws.cellvec);
    ops::tangential_velocity(g, &ws.cellvec, &mut ws.vt);
    ops::divergence(g, vn, &mut ws.div);

    // Split the workspace into disjoint borrows for the fused loops below.
    let Workspace {
        montgomery,
        ke,
        zeta,
        vt,
        div,
        grad,
        sum_km,
        stage_flux,
        d_delta,
        d_vn,
        ..
    } = ws;

    // K + M at cells.
    sum_km
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, col)| {
            let ke = ke.col(c);
            let m = montgomery.col(c);
            for k in 0..nlev {
                col[k] = ke[k] + m[k];
            }
        });
    ops::gradient(g, sum_km, grad);

    // Mass flux and its divergence.
    edge_mass_flux(g, vn, delta, stage_flux);
    d_delta[stage]
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, col)| {
            let edges = g.cell_edges(c);
            let signs = g.cell_edge_sign(c);
            let inv_a = 1.0 / g.cell_area(c);
            let f0 = stage_flux.col(edges[0] as usize);
            let f1 = stage_flux.col(edges[1] as usize);
            let f2 = stage_flux.col(edges[2] as usize);
            for k in 0..nlev {
                col[k] = -inv_a * (signs[0] * f0[k] + signs[1] * f1[k] + signs[2] * f2[k]);
            }
        });

    // Momentum tendency at edges.
    let dt = params.dt;
    let tau_spng = params.tau_sponge;
    let tau_fric = params.tau_friction;
    d_vn[stage]
        .as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(e, col)| {
            let [v0, v1] = g.edge_vertices(e);
            let f_e = g.edge_coriolis(e);
            let grad = grad.col(e);
            let vt = vt.col(e);
            let z0 = zeta.col(v0 as usize);
            let z1 = zeta.col(v1 as usize);
            // Divergence damping: -K_dd grad(div v), K_dd = c * l*d / dt.
            let [c0, c1] = g.edge_cells(e);
            let k_dd = DIV_DAMP_COEF * g.edge_length(e) * g.dual_edge_length(e) / dt;
            let inv_d = 1.0 / g.dual_edge_length(e);
            let div0 = div.col(c0 as usize);
            let div1 = div.col(c1 as usize);
            let v = vn.col(e);
            for k in 0..nlev {
                let zeta_e = 0.5 * (z0[k] + z1[k]);
                let damp = k_dd * (div1[k] - div0[k]) * inv_d;
                let mut t = -grad[k] + (f_e + zeta_e) * vt[k] + damp;
                if k == 0 {
                    t -= v[k] / tau_spng;
                }
                if k == nlev - 1 {
                    t -= v[k] / tau_fric;
                }
                col[k] = t;
            }
        });
}

/// Advance dynamics by one predictor–corrector step, exchanging halos as
/// needed, and leave the time-averaged mass flux in `ws.mass_flux` for the
/// tracer transport.
pub fn step_dynamics<G: CGrid, X: Exchange>(
    g: &G,
    params: &AtmParams,
    state: &mut AtmState,
    z_surface: &Field2,
    ws: &mut Workspace,
    x: &X,
) {
    let dt = params.dt;
    let nlev = params.nlev;

    // Stage 1 at time n.
    tendencies(g, params, &state.delta, &state.vn, z_surface, ws, 0);
    advance(&state.delta, &ws.d_delta[0], dt, &mut ws.delta_star);
    advance(&state.vn, &ws.d_vn[0], dt, &mut ws.vn_star);
    x.cells3(&mut ws.delta_star);
    x.edges3(&mut ws.vn_star);
    ws.mass_flux.as_mut_slice().copy_from_slice(ws.stage_flux.as_slice());

    // Stage 2 at the provisional state, moved out of the workspace for
    // the call and back after it.
    let delta_star = std::mem::take(&mut ws.delta_star);
    let vn_star = std::mem::take(&mut ws.vn_star);
    tendencies(g, params, &delta_star, &vn_star, z_surface, ws, 1);
    ws.delta_star = delta_star;
    ws.vn_star = vn_star;
    // Average tendencies; accumulate the averaged mass flux.
    combine_avg(&mut state.delta, &ws.d_delta[0], &ws.d_delta[1], dt);
    combine_avg(&mut state.vn, &ws.d_vn[0], &ws.d_vn[1], dt);
    let half = 0.5;
    ws.mass_flux
        .as_mut_slice()
        .par_iter_mut()
        .zip(ws.stage_flux.as_slice().par_iter())
        .for_each(|(acc, s2)| *acc = half * (*acc + s2));

    x.cells3(&mut state.delta);
    x.edges3(&mut state.vn);
    let _ = nlev;
}

#[inline]
fn advance(base: &Field3, tend: &Field3, dt: f64, out: &mut Field3) {
    out.as_mut_slice()
        .par_iter_mut()
        .zip(base.as_slice().par_iter().zip(tend.as_slice().par_iter()))
        .for_each(|(o, (b, t))| *o = b + dt * t);
}

#[inline]
fn combine_avg(state: &mut Field3, t1: &Field3, t2: &Field3, dt: f64) {
    state
        .as_mut_slice()
        .par_iter_mut()
        .zip(t1.as_slice().par_iter().zip(t2.as_slice().par_iter()))
        .for_each(|(s, (a, b))| *s += 0.5 * dt * (a + b));
}
