//! Discrete C-grid operators shared by the atmosphere and ocean dynamical
//! cores.
//!
//! All operators are defined against the [`CGrid`] trait so they run
//! unchanged on the global [`Grid`](crate::Grid) and on per-rank
//! [`SubGrid`](crate::SubGrid)s. Horizontal loops are parallelized with
//! rayon over entity columns (the per-entity work is independent, so the
//! parallel results are bitwise identical to the sequential ones).

use crate::field::Field3;
use crate::geom::Vec3;
use crate::grid::Grid;
use rayon::prelude::*;

/// The topology/geometry interface required by the discrete operators.
pub trait CGrid: Sync {
    fn n_cells(&self) -> usize;
    fn n_edges(&self) -> usize;
    fn n_vertices(&self) -> usize;
    fn cell_edges(&self, c: usize) -> [u32; 3];
    fn cell_edge_sign(&self, c: usize) -> [f64; 3];
    fn cell_area(&self, c: usize) -> f64;
    fn cell_center(&self, c: usize) -> Vec3;
    fn edge_cells(&self, e: usize) -> [u32; 2];
    fn edge_vertices(&self, e: usize) -> [u32; 2];
    fn edge_length(&self, e: usize) -> f64;
    fn dual_edge_length(&self, e: usize) -> f64;
    fn edge_normal(&self, e: usize) -> Vec3;
    fn edge_tangent(&self, e: usize) -> Vec3;
    fn edge_coriolis(&self, e: usize) -> f64;
    fn vertex_edges(&self, v: usize) -> [u32; 6];
    fn vertex_edge_sign(&self, v: usize) -> [f64; 6];
    fn vertex_dual_area(&self, v: usize) -> f64;
    fn vertex_coriolis(&self, v: usize) -> f64;
    /// Inverse of the cell's reconstruction matrix (see
    /// [`reconstruction_inverse`]), tabled when the grid is built.
    fn cell_recon_inverse(&self, c: usize) -> [[f64; 3]; 3];
}

impl CGrid for Grid {
    #[inline]
    fn n_cells(&self) -> usize {
        self.n_cells
    }
    #[inline]
    fn n_edges(&self) -> usize {
        self.n_edges
    }
    #[inline]
    fn n_vertices(&self) -> usize {
        self.n_vertices
    }
    #[inline]
    fn cell_edges(&self, c: usize) -> [u32; 3] {
        self.cell_edges[c]
    }
    #[inline]
    fn cell_edge_sign(&self, c: usize) -> [f64; 3] {
        self.cell_edge_sign[c]
    }
    #[inline]
    fn cell_area(&self, c: usize) -> f64 {
        self.cell_area[c]
    }
    #[inline]
    fn cell_center(&self, c: usize) -> Vec3 {
        self.cell_center[c]
    }
    #[inline]
    fn edge_cells(&self, e: usize) -> [u32; 2] {
        self.edge_cells[e]
    }
    #[inline]
    fn edge_vertices(&self, e: usize) -> [u32; 2] {
        self.edge_vertices[e]
    }
    #[inline]
    fn edge_length(&self, e: usize) -> f64 {
        self.edge_length[e]
    }
    #[inline]
    fn dual_edge_length(&self, e: usize) -> f64 {
        self.dual_edge_length[e]
    }
    #[inline]
    fn edge_normal(&self, e: usize) -> Vec3 {
        self.edge_normal[e]
    }
    #[inline]
    fn edge_tangent(&self, e: usize) -> Vec3 {
        self.edge_tangent[e]
    }
    #[inline]
    fn edge_coriolis(&self, e: usize) -> f64 {
        self.edge_coriolis[e]
    }
    #[inline]
    fn vertex_edges(&self, v: usize) -> [u32; 6] {
        self.vertex_edges[v]
    }
    #[inline]
    fn vertex_edge_sign(&self, v: usize) -> [f64; 6] {
        self.vertex_edge_sign[v]
    }
    #[inline]
    fn vertex_dual_area(&self, v: usize) -> f64 {
        self.vertex_dual_area[v]
    }
    #[inline]
    fn vertex_coriolis(&self, v: usize) -> f64 {
        self.vertex_coriolis[v]
    }
    #[inline]
    fn cell_recon_inverse(&self, c: usize) -> [[f64; 3]; 3] {
        self.cell_recon_inverse[c]
    }
}

/// Divergence at cells of a normal-velocity (or normal-flux) edge field:
/// `div[c] = (1/A_c) * sum_e sign(c,e) * vn[e] * l_e`.
pub fn divergence<G: CGrid>(g: &G, vn: &Field3, out: &mut Field3) {
    let nlev = vn.nlev();
    debug_assert_eq!(out.nlev(), nlev);
    debug_assert_eq!(vn.n(), g.n_edges());
    debug_assert_eq!(out.n(), g.n_cells());
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, col)| {
            let edges = g.cell_edges(c);
            let signs = g.cell_edge_sign(c);
            let inv_a = 1.0 / g.cell_area(c);
            let e0 = vn.col(edges[0] as usize);
            let e1 = vn.col(edges[1] as usize);
            let e2 = vn.col(edges[2] as usize);
            let w0 = signs[0] * g.edge_length(edges[0] as usize) * inv_a;
            let w1 = signs[1] * g.edge_length(edges[1] as usize) * inv_a;
            let w2 = signs[2] * g.edge_length(edges[2] as usize) * inv_a;
            for k in 0..nlev {
                col[k] = w0 * e0[k] + w1 * e1[k] + w2 * e2[k];
            }
        });
}

/// Normal gradient at edges of a cell scalar:
/// `grad[e] = (s[c1] - s[c0]) / d_e` (positive along the edge normal,
/// which points from cell 0 to cell 1).
pub fn gradient<G: CGrid>(g: &G, s: &Field3, out: &mut Field3) {
    let nlev = s.nlev();
    debug_assert_eq!(s.n(), g.n_cells());
    debug_assert_eq!(out.n(), g.n_edges());
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(e, col)| {
            let [c0, c1] = g.edge_cells(e);
            let inv_d = 1.0 / g.dual_edge_length(e);
            let s0 = s.col(c0 as usize);
            let s1 = s.col(c1 as usize);
            for k in 0..nlev {
                col[k] = (s1[k] - s0[k]) * inv_d;
            }
        });
}

/// Relative vorticity at vertices: circulation around the dual cell divided
/// by the dual area, `zeta[v] = (1/A_v) * sum_e sign(v,e) * vn[e] * d_e`.
pub fn vorticity<G: CGrid>(g: &G, vn: &Field3, out: &mut Field3) {
    let nlev = vn.nlev();
    debug_assert_eq!(out.n(), g.n_vertices());
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(v, col)| {
            col.fill(0.0);
            let edges = g.vertex_edges(v);
            let signs = g.vertex_edge_sign(v);
            let inv_a = 1.0 / g.vertex_dual_area(v);
            for (slot, &e) in edges.iter().enumerate() {
                if e == u32::MAX {
                    continue;
                }
                let w = signs[slot] * g.dual_edge_length(e as usize) * inv_a;
                let ve = vn.col(e as usize);
                for k in 0..nlev {
                    col[k] += w * ve[k];
                }
            }
        });
}

/// Horizontal kinetic energy at cells from edge normal velocities, the
/// `z_ekinh` kernel of ICON's dynamical core (the paper's DaCe case study):
/// `K[c] = (1/A_c) * sum_e (l_e * d_e / 4) * vn[e]^2 ~ |V|^2 / 2`.
pub fn kinetic_energy<G: CGrid>(g: &G, vn: &Field3, out: &mut Field3) {
    let nlev = vn.nlev();
    debug_assert_eq!(out.n(), g.n_cells());
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(c, col)| {
            let edges = g.cell_edges(c);
            let inv_a = 1.0 / g.cell_area(c);
            let mut w = [0.0f64; 3];
            for i in 0..3 {
                let e = edges[i] as usize;
                w[i] = 0.25 * g.edge_length(e) * g.dual_edge_length(e) * inv_a;
            }
            let e0 = vn.col(edges[0] as usize);
            let e1 = vn.col(edges[1] as usize);
            let e2 = vn.col(edges[2] as usize);
            for k in 0..nlev {
                col[k] = w[0] * e0[k] * e0[k] + w[1] * e1[k] * e1[k] + w[2] * e2[k] * e2[k];
            }
        });
}

/// Reconstruct the full tangent-plane velocity vector at each cell center
/// from the normal components on the cell's three edges, by least squares
/// (`min_V sum_e (V . n_e - vn_e)^2`, regularized along the radial
/// direction where the solution is unconstrained). The matrix inverse is
/// geometry only and comes from the grid's table.
pub fn reconstruct_cell_vectors<G: CGrid>(
    g: &G,
    vn: &Field3,
    out: &mut [Field3; 3],
) {
    let nlev = vn.nlev();
    let n_cells = g.n_cells();
    debug_assert!(out.iter().all(|f| f.n() == n_cells && f.nlev() == nlev));
    // Split the three output components so each parallel task owns one
    // cell's column in each.
    let [ox, oy, oz] = out;
    let (ox, oy, oz) = (ox.as_mut_slice(), oy.as_mut_slice(), oz.as_mut_slice());
    ox.par_chunks_mut(nlev)
        .zip(oy.par_chunks_mut(nlev))
        .zip(oz.par_chunks_mut(nlev))
        .enumerate()
        .for_each(|(c, ((cx, cy), cz))| {
            let edges = g.cell_edges(c);
            let ns = edges.map(|e| g.edge_normal(e as usize));
            let vs = edges.map(|e| vn.col(e as usize));
            let minv = g.cell_recon_inverse(c);
            for k in 0..nlev {
                let mut rhs = Vec3::ZERO;
                for (n, v) in ns.iter().zip(&vs) {
                    rhs += n.scale(v[k]);
                }
                let v = mat_vec(&minv, &rhs);
                cx[k] = v.x;
                cy[k] = v.y;
                cz[k] = v.z;
            }
        });
}

/// Inverse of a cell's reconstruction matrix `M = sum n n^T + r r^T`
/// over its three edge normals `ns` and its center `r` (the radial
/// rank-1 term regularizes).
pub fn reconstruction_inverse(ns: &[Vec3; 3], r: &Vec3) -> [[f64; 3]; 3] {
    let mut m = [[0.0f64; 3]; 3];
    for n in ns {
        accumulate_outer(&mut m, n);
    }
    accumulate_outer(&mut m, r);
    invert3(&m)
}

#[inline]
fn accumulate_outer(m: &mut [[f64; 3]; 3], v: &Vec3) {
    let a = [v.x, v.y, v.z];
    for i in 0..3 {
        for j in 0..3 {
            m[i][j] += a[i] * a[j];
        }
    }
}

#[inline]
fn invert3(m: &[[f64; 3]; 3]) -> [[f64; 3]; 3] {
    let det = m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]);
    debug_assert!(det.abs() > 1e-30, "singular reconstruction matrix");
    let inv_det = 1.0 / det;
    let mut r = [[0.0f64; 3]; 3];
    r[0][0] = (m[1][1] * m[2][2] - m[1][2] * m[2][1]) * inv_det;
    r[0][1] = (m[0][2] * m[2][1] - m[0][1] * m[2][2]) * inv_det;
    r[0][2] = (m[0][1] * m[1][2] - m[0][2] * m[1][1]) * inv_det;
    r[1][0] = (m[1][2] * m[2][0] - m[1][0] * m[2][2]) * inv_det;
    r[1][1] = (m[0][0] * m[2][2] - m[0][2] * m[2][0]) * inv_det;
    r[1][2] = (m[0][2] * m[1][0] - m[0][0] * m[1][2]) * inv_det;
    r[2][0] = (m[1][0] * m[2][1] - m[1][1] * m[2][0]) * inv_det;
    r[2][1] = (m[0][1] * m[2][0] - m[0][0] * m[2][1]) * inv_det;
    r[2][2] = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) * inv_det;
    r
}

#[inline]
fn mat_vec(m: &[[f64; 3]; 3], v: &Vec3) -> Vec3 {
    Vec3::new(
        m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
        m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
        m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z,
    )
}

/// Tangential velocity at edges: average of the reconstructed full vectors
/// of the two adjacent cells, projected on the edge tangent.
pub fn tangential_velocity<G: CGrid>(g: &G, cell_vec: &[Field3; 3], out: &mut Field3) {
    let nlev = out.nlev();
    debug_assert_eq!(out.n(), g.n_edges());
    let [vx, vy, vz] = cell_vec;
    out.as_mut_slice()
        .par_chunks_mut(nlev)
        .enumerate()
        .for_each(|(e, col)| {
            let [c0, c1] = g.edge_cells(e);
            let t = g.edge_tangent(e);
            let (c0, c1) = (c0 as usize, c1 as usize);
            for (k, ck) in col.iter_mut().enumerate().take(nlev) {
                let v = Vec3::new(
                    0.5 * (vx.at(c0, k) + vx.at(c1, k)),
                    0.5 * (vy.at(c0, k) + vy.at(c1, k)),
                    0.5 * (vz.at(c0, k) + vz.at(c1, k)),
                );
                *ck = v.dot(&t);
            }
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::local_east_north;
    use crate::Grid;

    fn grid() -> Grid {
        Grid::build(3, crate::EARTH_RADIUS_M)
    }

    /// Set edge normal velocities from an analytic tangent vector field.
    fn edge_field_from(g: &Grid, f: impl Fn(&Vec3) -> Vec3, nlev: usize) -> Field3 {
        Field3::from_fn(g.n_edges, nlev, |e, _| {
            f(&g.edge_midpoint[e]).dot(&g.edge_normal[e])
        })
    }

    #[test]
    fn divergence_of_solid_body_rotation_is_zero() {
        // V = Omega x r is divergence-free.
        let g = grid();
        let axis = Vec3::new(0.3, -0.2, 0.9).normalized();
        let vn = edge_field_from(&g, |p| axis.cross(p).scale(g.radius * 1e-5), 2);
        let mut div = Field3::zeros(g.n_cells, 2);
        divergence(&g, &vn, &mut div);
        // Scale: velocity ~ 60 m/s over cells of ~600 km: relative div small.
        let vmax = 2.0 * g.radius * 1e-5;
        let lmin = g.min_dual_edge_m();
        for c in 0..g.n_cells {
            assert!(
                div.at(c, 0).abs() < 0.05 * vmax / lmin,
                "cell {c}: div {}",
                div.at(c, 0)
            );
        }
    }

    #[test]
    fn gauss_theorem_divergence_integrates_to_zero() {
        // Area integral of the divergence of any edge field vanishes on the
        // closed sphere (telescoping fluxes) -- to rounding.
        let g = grid();
        let vn = Field3::from_fn(g.n_edges, 1, |e, _| ((e * 2654435761) % 1000) as f64 - 500.0);
        let mut div = Field3::zeros(g.n_cells, 1);
        divergence(&g, &vn, &mut div);
        let integral = div.weighted_sum(&g.cell_area);
        let scale: f64 = vn
            .as_slice()
            .iter()
            .enumerate()
            .map(|(e, v)| (v * g.edge_length[e % g.n_edges]).abs())
            .sum();
        assert!(integral.abs() < 1e-9 * scale, "integral {integral}");
    }

    #[test]
    fn gradient_of_constant_is_zero() {
        let g = grid();
        let s = Field3::from_fn(g.n_cells, 3, |_, _| 42.0);
        let mut grad = Field3::zeros(g.n_edges, 3);
        gradient(&g, &s, &mut grad);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_points_uphill() {
        // s = z (latitude-like): gradient normal component should match the
        // analytic tangential gradient direction.
        let g = grid();
        let s = Field3::from_fn(g.n_cells, 1, |c, _| g.cell_center[c].z);
        let mut grad = Field3::zeros(g.n_edges, 1);
        gradient(&g, &s, &mut grad);
        for e in 0..g.n_edges {
            let m = g.edge_midpoint[e];
            // grad(z) on the sphere = north * cos(lat) / R
            let (_, north) = local_east_north(&m);
            let analytic = north.scale(m.lat().cos() / g.radius).dot(&g.edge_normal[e]);
            let got = grad.at(e, 0);
            assert!(
                (got - analytic).abs() < 0.1 * (1.0 / g.radius) + 0.05 * analytic.abs(),
                "edge {e}: got {got}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn vorticity_of_solid_body_rotation() {
        // V = W x r has vorticity 2*W.r_hat (i.e. 2W at the axis pole).
        let g = grid();
        let w = 1e-5;
        let axis = Vec3::new(0.0, 0.0, 1.0);
        let vn = edge_field_from(&g, |p| axis.cross(p).scale(g.radius * w), 1);
        let mut zeta = Field3::zeros(g.n_vertices, 1);
        vorticity(&g, &vn, &mut zeta);
        for v in 0..g.n_vertices {
            let analytic = 2.0 * w * g.vertex_pos[v].z;
            // Barycentric (rather than Voronoi) dual areas give ~15 % error
            // at the 12 pentagon vertices, much less at hexagons.
            assert!(
                (zeta.at(v, 0) - analytic).abs() < 0.16 * 2.0 * w,
                "vertex {v}: {} vs {analytic}",
                zeta.at(v, 0)
            );
        }
        // Global circulation-weighted mean is exact (Stokes on the sphere).
        let mut num = 0.0;
        let mut den = 0.0;
        for v in 0..g.n_vertices {
            num += zeta.at(v, 0) * g.vertex_dual_area[v];
            den += g.vertex_dual_area[v];
        }
        assert!((num / den).abs() < 1e-18);
    }

    #[test]
    fn kinetic_energy_of_solid_body_flow() {
        // K ~ |V|^2/2 for the locally uniform solid-body flow V = a x r.
        let g = grid();
        let speed = 10.0;
        let axis = Vec3::new(1.0, 0.0, 0.0).scale(speed);
        let vn = edge_field_from(&g, |p| axis.cross(p), 1);
        let mut ke = Field3::zeros(g.n_cells, 1);
        kinetic_energy(&g, &vn, &mut ke);
        for c in 0..g.n_cells {
            let p = g.cell_center[c];
            let analytic = 0.5 * axis.cross(&p).norm2();
            assert!(
                (ke.at(c, 0) - analytic).abs() < 0.2 * (0.5 * speed * speed),
                "cell {c}: K={} vs {analytic}",
                ke.at(c, 0)
            );
        }
    }

    #[test]
    fn kinetic_energy_weights_sum_to_cell_area() {
        // sum_e l_e*d_e/4 == A_c on an orthogonal C-grid (up to spherical
        // discretization error).
        let g = grid();
        for c in 0..g.n_cells {
            let w: f64 = g.cell_edges[c]
                .iter()
                .map(|&e| 0.25 * g.edge_length[e as usize] * g.dual_edge_length[e as usize])
                .sum();
            assert!(
                (w / g.cell_area[c] - 1.0).abs() < 0.12,
                "cell {c}: weight sum ratio {}",
                w / g.cell_area[c]
            );
        }
    }

    #[test]
    fn reconstruction_recovers_uniform_field() {
        let g = grid();
        // A smooth tangent field: V = a x r for fixed a (solid body).
        let a = Vec3::new(0.1, 0.7, 0.3);
        let vn = edge_field_from(&g, |p| a.cross(p), 1);
        let mut out = [
            Field3::zeros(g.n_cells, 1),
            Field3::zeros(g.n_cells, 1),
            Field3::zeros(g.n_cells, 1),
        ];
        reconstruct_cell_vectors(&g, &vn, &mut out);
        for c in 0..g.n_cells {
            let p = g.cell_center[c];
            let analytic = a.cross(&p);
            let got = Vec3::new(out[0].at(c, 0), out[1].at(c, 0), out[2].at(c, 0));
            assert!(
                (got - analytic).norm() < 0.08 * a.norm(),
                "cell {c}: {got:?} vs {analytic:?}"
            );
        }
    }

    #[test]
    fn tangential_velocity_of_solid_body() {
        let g = grid();
        let a = Vec3::new(0.0, 0.0, 1.0);
        let vn = edge_field_from(&g, |p| a.cross(p), 1);
        let mut cv = [
            Field3::zeros(g.n_cells, 1),
            Field3::zeros(g.n_cells, 1),
            Field3::zeros(g.n_cells, 1),
        ];
        reconstruct_cell_vectors(&g, &vn, &mut cv);
        let mut vt = Field3::zeros(g.n_edges, 1);
        tangential_velocity(&g, &cv, &mut vt);
        for e in 0..g.n_edges {
            let analytic = a.cross(&g.edge_midpoint[e]).dot(&g.edge_tangent[e]);
            assert!(
                (vt.at(e, 0) - analytic).abs() < 0.08,
                "edge {e}: {} vs {analytic}",
                vt.at(e, 0)
            );
        }
    }
}
