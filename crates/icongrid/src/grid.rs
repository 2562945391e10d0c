//! The assembled horizontal grid: topology plus C-grid geometry.
//!
//! Entities and staggering (Arakawa C on triangles, as in ICON):
//!
//! * **cells** — triangles; scalars (mass, temperature, tracers) live at
//!   the triangle **circumcenter** so that dual edges (arcs between
//!   adjacent cell centers) cross primal edges orthogonally;
//! * **edges** — velocity component **normal** to each edge at its
//!   midpoint (1.5 prognostic values per cell, as counted in Table 2 of
//!   the paper);
//! * **vertices** — relative vorticity on the hexagonal/pentagonal dual.

use crate::geom::{self, Vec3};
use crate::refine;
use std::collections::HashMap;

/// Fully assembled icosahedral grid. All arrays are indexed by entity id;
/// topology ids are `u32` (the 1.25 km grid has 3.36e8 cells, well within
/// range), geometry is `f64`.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Number of bisections applied to the icosahedron (ICON `R2B(k)` has
    /// `bisections = k + 1`).
    pub bisections: u32,
    /// Planet radius in metres (dimensional lengths/areas scale with it).
    pub radius: f64,

    // --- topology ---
    pub n_cells: usize,
    pub n_edges: usize,
    pub n_vertices: usize,
    /// Corner vertices of each cell (counter-clockwise).
    pub cell_vertices: Vec<[u32; 3]>,
    /// The three edges of each cell; edge `i` is opposite vertex `i` — i.e.
    /// it connects `cell_vertices[(i+1)%3]` and `cell_vertices[(i+2)%3]`.
    pub cell_edges: Vec<[u32; 3]>,
    /// Edge-adjacent neighbor cells, aligned with `cell_edges`.
    pub cell_neighbors: Vec<[u32; 3]>,
    /// The two cells adjacent to each edge (`[0]` < `[1]` never guaranteed;
    /// `[0]` is the cell that first created the edge, the normal points
    /// from `[0]` towards `[1]`).
    pub edge_cells: Vec<[u32; 2]>,
    /// The two end vertices of each edge.
    pub edge_vertices: Vec<[u32; 2]>,
    /// Orientation of each cell's edges: `+1` when the edge normal points
    /// out of the cell, `-1` otherwise. Aligned with `cell_edges`.
    pub cell_edge_sign: Vec<[f64; 3]>,
    /// Edges meeting at each vertex (5 for the 12 pentagon points,
    /// otherwise 6); `u32::MAX` marks unused slots.
    pub vertex_edges: Vec<[u32; 6]>,
    /// Cells around each vertex, same layout as `vertex_edges`.
    pub vertex_cells: Vec<[u32; 6]>,
    /// Orientation of each vertex's edges for circulation integrals:
    /// `+1` when the edge normal points counter-clockwise around the
    /// vertex (seen from outside the sphere), `-1` otherwise. Aligned with
    /// `vertex_edges`; `0.0` in unused slots.
    pub vertex_edge_sign: Vec<[f64; 6]>,

    // --- geometry (unit sphere positions, dimensional lengths/areas) ---
    pub vertex_pos: Vec<Vec3>,
    /// Cell circumcenters (unit vectors).
    pub cell_center: Vec<Vec3>,
    /// Spherical cell areas in m^2.
    pub cell_area: Vec<f64>,
    /// Edge midpoints (unit vectors).
    pub edge_midpoint: Vec<Vec3>,
    /// Unit normal of each edge in the tangent plane at the edge midpoint,
    /// pointing from `edge_cells[0]` to `edge_cells[1]`.
    pub edge_normal: Vec<Vec3>,
    /// Unit tangent along each edge (normal rotated +90 degrees, i.e.
    /// `tangent = center x normal`).
    pub edge_tangent: Vec<Vec3>,
    /// Primal edge length (between the end vertices) in metres.
    pub edge_length: Vec<f64>,
    /// Dual edge length (between the adjacent cell circumcenters) in metres.
    pub dual_edge_length: Vec<f64>,
    /// Barycentric dual area around each vertex in m^2 (one third of each
    /// adjacent triangle).
    pub vertex_dual_area: Vec<f64>,
    /// Coriolis parameter `2 Omega sin(lat)` at edge midpoints (1/s).
    pub edge_coriolis: Vec<f64>,
    /// Coriolis parameter at vertices (1/s).
    pub vertex_coriolis: Vec<f64>,
    /// Inverse reconstruction matrix of each cell
    /// ([`crate::ops::reconstruction_inverse`] of its edge normals and
    /// center), used by every velocity reconstruction.
    pub cell_recon_inverse: Vec<[[f64; 3]; 3]>,
}

/// Planetary rotation rate used for Coriolis terms (Earth, rad/s).
pub const EARTH_OMEGA: f64 = 7.29212e-5;

impl Grid {
    /// Build the ICON `R2B(k)` grid with Earth radius.
    pub fn r2b(k: u32) -> Grid {
        Self::build(k + 1, crate::EARTH_RADIUS_M)
    }

    /// Build a grid with `bisections` bisections of the icosahedron and the
    /// given planet radius in metres.
    pub fn build(bisections: u32, radius: f64) -> Grid {
        let mesh = refine::bisect_n(&crate::icosahedron::icosahedron(), bisections);
        Self::from_mesh(&mesh, bisections, radius)
    }

    fn from_mesh(mesh: &crate::icosahedron::TriMesh, bisections: u32, radius: f64) -> Grid {
        let n_cells = mesh.n_faces();
        let n_vertices = mesh.n_vertices();
        let cell_vertices: Vec<[u32; 3]> = mesh.faces.clone();

        // --- edges: deduplicate vertex pairs; first-seen cell is edge_cells[0].
        let mut edge_of: HashMap<(u32, u32), u32> = HashMap::with_capacity(n_cells * 3 / 2);
        let mut edge_cells: Vec<[u32; 2]> = Vec::with_capacity(n_cells * 3 / 2);
        let mut edge_vertices: Vec<[u32; 2]> = Vec::with_capacity(n_cells * 3 / 2);
        let mut cell_edges = vec![[0u32; 3]; n_cells];
        for (c, f) in cell_vertices.iter().enumerate() {
            for i in 0..3 {
                // Edge i is opposite vertex i.
                let a = f[(i + 1) % 3];
                let b = f[(i + 2) % 3];
                let key = (a.min(b), a.max(b));
                let e = *edge_of.entry(key).or_insert_with(|| {
                    edge_cells.push([c as u32, u32::MAX]);
                    edge_vertices.push([a, b]);
                    (edge_cells.len() - 1) as u32
                });
                if edge_cells[e as usize][0] != c as u32 {
                    debug_assert_eq!(edge_cells[e as usize][1], u32::MAX);
                    edge_cells[e as usize][1] = c as u32;
                }
                cell_edges[c][i] = e;
            }
        }
        let n_edges = edge_cells.len();
        debug_assert!(edge_cells.iter().all(|ec| ec[1] != u32::MAX));

        // --- neighbor cells across each edge.
        let mut cell_neighbors = vec![[u32::MAX; 3]; n_cells];
        for c in 0..n_cells {
            for i in 0..3 {
                let e = cell_edges[c][i] as usize;
                let [c0, c1] = edge_cells[e];
                cell_neighbors[c][i] = if c0 == c as u32 { c1 } else { c0 };
            }
        }

        // --- vertex fans.
        let mut vertex_edges = vec![[u32::MAX; 6]; n_vertices];
        let mut vertex_cells = vec![[u32::MAX; 6]; n_vertices];
        let mut ve_len = vec![0usize; n_vertices];
        let mut vc_len = vec![0usize; n_vertices];
        for (e, vv) in edge_vertices.iter().enumerate() {
            for &v in vv {
                let v = v as usize;
                vertex_edges[v][ve_len[v]] = e as u32;
                ve_len[v] += 1;
            }
        }
        for (c, f) in cell_vertices.iter().enumerate() {
            for &v in f {
                let v = v as usize;
                vertex_cells[v][vc_len[v]] = c as u32;
                vc_len[v] += 1;
            }
        }

        // --- geometry.
        let vertex_pos = mesh.vertices.clone();
        let mut cell_center = Vec::with_capacity(n_cells);
        let mut cell_area = Vec::with_capacity(n_cells);
        for f in &cell_vertices {
            let a = &vertex_pos[f[0] as usize];
            let b = &vertex_pos[f[1] as usize];
            let c = &vertex_pos[f[2] as usize];
            cell_center.push(geom::spherical_circumcenter(a, b, c));
            cell_area.push(geom::spherical_triangle_area(a, b, c) * radius * radius);
        }

        let mut edge_midpoint = Vec::with_capacity(n_edges);
        let mut edge_normal = Vec::with_capacity(n_edges);
        let mut edge_tangent = Vec::with_capacity(n_edges);
        let mut edge_length = Vec::with_capacity(n_edges);
        let mut dual_edge_length = Vec::with_capacity(n_edges);
        let mut edge_coriolis = Vec::with_capacity(n_edges);
        for e in 0..n_edges {
            let [va, vb] = edge_vertices[e];
            let a = vertex_pos[va as usize];
            let b = vertex_pos[vb as usize];
            let mid = a.sphere_midpoint(&b);
            let [c0, c1] = edge_cells[e];
            let p0 = cell_center[c0 as usize];
            let p1 = cell_center[c1 as usize];
            // Normal: direction from cell 0 center to cell 1 center,
            // projected onto the tangent plane at the edge midpoint. With
            // circumcenters this is orthogonal to the primal edge.
            let n = (p1 - p0).tangent_at(&mid).normalized();
            let t = mid.cross(&n); // unit: mid and n are orthonormal
            edge_length.push(a.arc_distance(&b) * radius);
            dual_edge_length.push(p0.arc_distance(&p1) * radius);
            edge_coriolis.push(2.0 * EARTH_OMEGA * mid.lat().sin());
            edge_midpoint.push(mid);
            edge_normal.push(n);
            edge_tangent.push(t);
        }

        let mut cell_edge_sign = vec![[0.0f64; 3]; n_cells];
        for c in 0..n_cells {
            for i in 0..3 {
                let e = cell_edges[c][i] as usize;
                cell_edge_sign[c][i] = if edge_cells[e][0] == c as u32 { 1.0 } else { -1.0 };
            }
        }

        let mut vertex_dual_area = vec![0.0f64; n_vertices];
        for (c, f) in cell_vertices.iter().enumerate() {
            for &v in f {
                vertex_dual_area[v as usize] += cell_area[c] / 3.0;
            }
        }
        let vertex_coriolis: Vec<f64> = vertex_pos
            .iter()
            .map(|p| 2.0 * EARTH_OMEGA * p.lat().sin())
            .collect();

        // Circulation orientation: traversing the dual cell boundary
        // counter-clockwise around vertex v, the crossing direction of
        // primal edge e is +normal or -normal. CCW direction at the edge
        // midpoint m (relative to v) is r_v x (m - r_v).
        let mut vertex_edge_sign = vec![[0.0f64; 6]; n_vertices];
        for v in 0..n_vertices {
            let rv = vertex_pos[v];
            for (slot, &e) in vertex_edges[v].iter().enumerate() {
                if e == u32::MAX {
                    continue;
                }
                let m = edge_midpoint[e as usize];
                let ccw = rv.cross(&(m - rv));
                vertex_edge_sign[v][slot] = if edge_normal[e as usize].dot(&ccw) >= 0.0 {
                    1.0
                } else {
                    -1.0
                };
            }
        }

        let cell_recon_inverse: Vec<[[f64; 3]; 3]> = (0..n_cells)
            .map(|c| {
                let ns = cell_edges[c].map(|e| edge_normal[e as usize]);
                crate::ops::reconstruction_inverse(&ns, &cell_center[c])
            })
            .collect();

        Grid {
            bisections,
            radius,
            n_cells,
            n_edges,
            n_vertices,
            cell_vertices,
            cell_edges,
            cell_neighbors,
            edge_cells,
            edge_vertices,
            cell_edge_sign,
            vertex_edges,
            vertex_cells,
            vertex_edge_sign,
            vertex_pos,
            cell_center,
            cell_area,
            edge_midpoint,
            edge_normal,
            edge_tangent,
            edge_length,
            dual_edge_length,
            vertex_dual_area,
            edge_coriolis,
            vertex_coriolis,
            cell_recon_inverse,
        }
    }

    /// Nominal resolution in km (sqrt of mean cell area).
    pub fn nominal_resolution_km(&self) -> f64 {
        let mean = self.total_area() / self.n_cells as f64;
        mean.sqrt() / 1000.0
    }

    /// Total surface area in m^2.
    pub fn total_area(&self) -> f64 {
        self.cell_area.iter().sum()
    }

    /// Shortest dual edge, the length that controls the CFL limit.
    pub fn min_dual_edge_m(&self) -> f64 {
        self.dual_edge_length.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn small() -> Grid {
        Grid::build(3, crate::EARTH_RADIUS_M) // R2B2: 1280 cells
    }

    #[test]
    fn euler_characteristic() {
        let g = small();
        assert_eq!(
            g.n_vertices as i64 - g.n_edges as i64 + g.n_cells as i64,
            2,
            "V - E + F = 2 for a sphere"
        );
    }

    #[test]
    fn areas_sum_to_sphere() {
        let g = small();
        let expect = 4.0 * PI * g.radius * g.radius;
        assert!((g.total_area() / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vertex_dual_areas_sum_to_sphere() {
        let g = small();
        let expect = 4.0 * PI * g.radius * g.radius;
        let total: f64 = g.vertex_dual_area.iter().sum();
        assert!((total / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn twelve_pentagons() {
        let g = small();
        let pent = g
            .vertex_edges
            .iter()
            .filter(|ve| ve.iter().filter(|&&e| e != u32::MAX).count() == 5)
            .count();
        let hex = g
            .vertex_edges
            .iter()
            .filter(|ve| ve.iter().filter(|&&e| e != u32::MAX).count() == 6)
            .count();
        assert_eq!(pent, 12);
        assert_eq!(pent + hex, g.n_vertices);
    }

    #[test]
    fn edge_normal_orthogonal_to_primal_edge() {
        // The C-grid orthogonality property delivered by circumcenters.
        let g = small();
        for e in 0..g.n_edges {
            let [va, vb] = g.edge_vertices[e];
            let along = (g.vertex_pos[vb as usize] - g.vertex_pos[va as usize]).normalized();
            let dot = along.dot(&g.edge_normal[e]).abs();
            assert!(dot < 2e-2, "edge {e}: normal not orthogonal, dot={dot}");
        }
    }

    #[test]
    fn cell_edge_sign_consistency() {
        // Every edge gets +1 from one adjacent cell and -1 from the other.
        let g = small();
        let mut sum = vec![0.0f64; g.n_edges];
        for c in 0..g.n_cells {
            for i in 0..3 {
                sum[g.cell_edges[c][i] as usize] += g.cell_edge_sign[c][i];
            }
        }
        assert!(sum.iter().all(|&s| s.abs() < 1e-15));
    }

    #[test]
    fn neighbors_are_mutual() {
        let g = small();
        for c in 0..g.n_cells {
            for i in 0..3 {
                let n = g.cell_neighbors[c][i] as usize;
                assert!(g.cell_neighbors[n].contains(&(c as u32)));
            }
        }
    }

    #[test]
    fn edge_opposite_vertex_layout() {
        // cell_edges[c][i] connects cell_vertices[c][(i+1)%3] and [(i+2)%3].
        let g = small();
        for c in 0..g.n_cells {
            for i in 0..3 {
                let e = g.cell_edges[c][i] as usize;
                let [a, b] = g.edge_vertices[e];
                let want = [
                    g.cell_vertices[c][(i + 1) % 3],
                    g.cell_vertices[c][(i + 2) % 3],
                ];
                assert!(want.contains(&a) && want.contains(&b));
            }
        }
    }

    #[test]
    fn resolution_table() {
        // R2B2 nominal resolution ~ 640 km (halving per level from R2B8=10km).
        let g = small();
        let expect = crate::r2b_nominal_resolution_km(2);
        assert!((g.nominal_resolution_km() / expect - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dual_edges_positive_and_bounded() {
        let g = small();
        for e in 0..g.n_edges {
            assert!(g.dual_edge_length[e] > 0.0);
            assert!(g.edge_length[e] > 0.0);
            // Dual and primal edges are comparable in length on this mesh.
            let ratio = g.dual_edge_length[e] / g.edge_length[e];
            assert!((0.3..3.0).contains(&ratio), "edge {e} ratio {ratio}");
        }
    }
}
