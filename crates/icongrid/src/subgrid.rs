//! Per-rank local grids: the entities of one [`PartLayout`](crate::decomp::PartLayout)
//! with contiguous local numbering, implementing [`CGrid`](crate::ops::CGrid)
//! so all discrete operators run unchanged on a rank's subdomain.
//!
//! Local numbering conventions (mirroring the layout):
//! * cells — owned first (`0..n_owned_cells`), then halo;
//! * edges — owned first (`0..n_owned_edges`), then non-owned;
//! * vertices — all vertices of local cells, ascending global id.
//!
//! Topology references that point outside the subdomain (neighbors of halo
//! cells on the outer rim) are folded back onto the local entity itself, so
//! operators remain total; the affected halo-rim values are never consumed
//! (see `decomp` module docs for the consistency argument).

use crate::decomp::{Decomposition, ExchangePlan};
use crate::geom::Vec3;
use crate::grid::Grid;
use crate::ops::CGrid;
use std::collections::HashMap;

/// A rank-local view of the grid.
#[derive(Debug, Clone)]
pub struct SubGrid {
    pub part: usize,
    pub n_owned_cells: usize,
    pub n_owned_edges: usize,
    pub n_cells: usize,
    pub n_edges: usize,
    pub n_vertices: usize,

    /// Local-to-global maps.
    pub cell_l2g: Vec<u32>,
    pub edge_l2g: Vec<u32>,
    pub vertex_l2g: Vec<u32>,

    // Remapped topology (local ids).
    pub cell_edges: Vec<[u32; 3]>,
    pub cell_edge_sign: Vec<[f64; 3]>,
    pub cell_neighbors: Vec<[u32; 3]>,
    pub edge_cells: Vec<[u32; 2]>,
    pub edge_vertices: Vec<[u32; 2]>,
    pub vertex_edges: Vec<[u32; 6]>,
    pub vertex_edge_sign: Vec<[f64; 6]>,

    // Copied geometry.
    pub cell_center: Vec<Vec3>,
    pub cell_area: Vec<f64>,
    pub edge_midpoint: Vec<Vec3>,
    pub edge_normal: Vec<Vec3>,
    pub edge_tangent: Vec<Vec3>,
    pub edge_length: Vec<f64>,
    pub dual_edge_length: Vec<f64>,
    pub edge_coriolis: Vec<f64>,
    pub vertex_dual_area: Vec<f64>,
    pub vertex_coriolis: Vec<f64>,
    /// The global grid's reconstruction inverses of the local cells (the
    /// same edge normals and centers, so the same table entries).
    pub cell_recon_inverse: Vec<[[f64; 3]; 3]>,

    /// Exchange plans in local numbering (from the decomposition).
    pub cell_exchange: ExchangePlan,
    pub edge_exchange: ExchangePlan,
}

impl SubGrid {
    /// Extract the local grid of `part` from a global grid and its
    /// decomposition.
    pub fn build(grid: &Grid, decomp: &Decomposition, part: usize) -> SubGrid {
        let layout = &decomp.parts[part];
        let cell_l2g: Vec<u32> = layout
            .owned_cells
            .iter()
            .chain(&layout.halo_cells)
            .cloned()
            .collect();
        let edge_l2g = layout.edges.clone();
        let vertex_l2g = layout.vertices.clone();

        let cell_g2l: HashMap<u32, u32> = cell_l2g
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();
        let edge_g2l: HashMap<u32, u32> = edge_l2g
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();
        let vertex_g2l: HashMap<u32, u32> = vertex_l2g
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i as u32))
            .collect();

        let n_cells = cell_l2g.len();
        let n_edges = edge_l2g.len();
        let n_vertices = vertex_l2g.len();

        let mut cell_edges = Vec::with_capacity(n_cells);
        let mut cell_edge_sign = Vec::with_capacity(n_cells);
        let mut cell_neighbors = Vec::with_capacity(n_cells);
        let mut cell_center = Vec::with_capacity(n_cells);
        let mut cell_area = Vec::with_capacity(n_cells);
        let mut cell_recon_inverse = Vec::with_capacity(n_cells);
        for (lc, &gc) in cell_l2g.iter().enumerate() {
            let gc = gc as usize;
            let mut ce = [0u32; 3];
            let mut cn = [0u32; 3];
            for i in 0..3 {
                // All edges of a local cell are local by construction.
                ce[i] = edge_g2l[&grid.cell_edges[gc][i]];
                cn[i] = *cell_g2l
                    .get(&grid.cell_neighbors[gc][i])
                    .unwrap_or(&(lc as u32));
            }
            cell_edges.push(ce);
            cell_edge_sign.push(grid.cell_edge_sign[gc]);
            cell_neighbors.push(cn);
            cell_center.push(grid.cell_center[gc]);
            cell_area.push(grid.cell_area[gc]);
            cell_recon_inverse.push(grid.cell_recon_inverse[gc]);
        }

        let mut edge_cells = Vec::with_capacity(n_edges);
        let mut edge_vertices = Vec::with_capacity(n_edges);
        let mut edge_midpoint = Vec::with_capacity(n_edges);
        let mut edge_normal = Vec::with_capacity(n_edges);
        let mut edge_tangent = Vec::with_capacity(n_edges);
        let mut edge_length = Vec::with_capacity(n_edges);
        let mut dual_edge_length = Vec::with_capacity(n_edges);
        let mut edge_coriolis = Vec::with_capacity(n_edges);
        for &ge in &edge_l2g {
            let ge = ge as usize;
            let [gc0, gc1] = grid.edge_cells[ge];
            let l0 = cell_g2l.get(&gc0).copied();
            let l1 = cell_g2l.get(&gc1).copied();
            // Fold missing neighbors (outer rim) back onto the present cell.
            let ec = match (l0, l1) {
                (Some(a), Some(b)) => [a, b],
                (Some(a), None) => [a, a],
                (None, Some(b)) => [b, b],
                (None, None) => unreachable!("edge with no local cell"),
            };
            edge_cells.push(ec);
            let [gv0, gv1] = grid.edge_vertices[ge];
            edge_vertices.push([vertex_g2l[&gv0], vertex_g2l[&gv1]]);
            edge_midpoint.push(grid.edge_midpoint[ge]);
            edge_normal.push(grid.edge_normal[ge]);
            edge_tangent.push(grid.edge_tangent[ge]);
            edge_length.push(grid.edge_length[ge]);
            dual_edge_length.push(grid.dual_edge_length[ge]);
            edge_coriolis.push(grid.edge_coriolis[ge]);
        }

        let mut vertex_edges = Vec::with_capacity(n_vertices);
        let mut vertex_edge_sign = Vec::with_capacity(n_vertices);
        let mut vertex_dual_area = Vec::with_capacity(n_vertices);
        let mut vertex_coriolis = Vec::with_capacity(n_vertices);
        for &gv in &vertex_l2g {
            let gv = gv as usize;
            let mut ve = [u32::MAX; 6];
            let mut vs = [0.0f64; 6];
            for i in 0..6 {
                let ge = grid.vertex_edges[gv][i];
                if ge != u32::MAX {
                    if let Some(&le) = edge_g2l.get(&ge) {
                        ve[i] = le;
                        vs[i] = grid.vertex_edge_sign[gv][i];
                    }
                }
            }
            vertex_edges.push(ve);
            vertex_edge_sign.push(vs);
            vertex_dual_area.push(grid.vertex_dual_area[gv]);
            vertex_coriolis.push(grid.vertex_coriolis[gv]);
        }

        SubGrid {
            part,
            n_owned_cells: layout.owned_cells.len(),
            n_owned_edges: layout.n_owned_edges,
            n_cells,
            n_edges,
            n_vertices,
            cell_l2g,
            edge_l2g,
            vertex_l2g,
            cell_edges,
            cell_edge_sign,
            cell_neighbors,
            edge_cells,
            edge_vertices,
            vertex_edges,
            vertex_edge_sign,
            cell_center,
            cell_area,
            edge_midpoint,
            edge_normal,
            edge_tangent,
            edge_length,
            dual_edge_length,
            edge_coriolis,
            vertex_dual_area,
            vertex_coriolis,
            cell_recon_inverse,
            cell_exchange: layout.cell_exchange.clone(),
            edge_exchange: layout.edge_exchange.clone(),
        }
    }

    /// Gather owned-cell values of a local 3-D field into a global field
    /// (test/diagnostic helper; `global` must be sized for the full grid).
    pub fn scatter_owned_to_global(
        &self,
        local: &crate::Field3,
        global: &mut crate::Field3,
    ) {
        debug_assert_eq!(local.nlev(), global.nlev());
        for lc in 0..self.n_owned_cells {
            let gc = self.cell_l2g[lc] as usize;
            global.col_mut(gc).copy_from_slice(local.col(lc));
        }
    }
}

impl CGrid for SubGrid {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field3;
    use crate::ops;
    use crate::Grid;

    fn setup(np: usize) -> (Grid, Decomposition, Vec<SubGrid>) {
        let g = Grid::build(3, crate::EARTH_RADIUS_M);
        let d = Decomposition::new(&g, np);
        let subs = (0..np).map(|p| SubGrid::build(&g, &d, p)).collect();
        (g, d, subs)
    }

    #[test]
    fn subgrid_counts_cover_grid() {
        let (g, _, subs) = setup(5);
        let owned_cells: usize = subs.iter().map(|s| s.n_owned_cells).sum();
        let owned_edges: usize = subs.iter().map(|s| s.n_owned_edges).sum();
        assert_eq!(owned_cells, g.n_cells);
        assert_eq!(owned_edges, g.n_edges);
    }

    #[test]
    fn local_geometry_matches_global() {
        let (g, _, subs) = setup(4);
        for s in &subs {
            for lc in 0..s.n_cells {
                let gc = s.cell_l2g[lc] as usize;
                assert_eq!(s.cell_area[lc], g.cell_area[gc]);
                assert_eq!(s.cell_center[lc], g.cell_center[gc]);
            }
            for le in 0..s.n_edges {
                let ge = s.edge_l2g[le] as usize;
                assert_eq!(s.edge_length[le], g.edge_length[ge]);
                assert_eq!(s.dual_edge_length[le], g.dual_edge_length[ge]);
            }
        }
    }

    #[test]
    fn divergence_on_owned_cells_matches_serial_bitwise() {
        // The key distributed-correctness property: operators on a SubGrid
        // with correctly filled fields equal the serial result exactly.
        let (g, _, subs) = setup(6);
        let nlev = 3;
        let vn_global = Field3::from_fn(g.n_edges, nlev, |e, k| {
            ((e * 31 + k * 7) % 1000) as f64 - 500.0
        });
        let mut div_global = Field3::zeros(g.n_cells, nlev);
        ops::divergence(&g, &vn_global, &mut div_global);

        for s in &subs {
            // Fill the local edge field from the global one (as a completed
            // halo exchange would).
            let vn_local = Field3::from_fn(s.n_edges, nlev, |le, k| {
                vn_global.at(s.edge_l2g[le] as usize, k)
            });
            let mut div_local = Field3::zeros(s.n_cells, nlev);
            ops::divergence(s, &vn_local, &mut div_local);
            for lc in 0..s.n_owned_cells {
                let gc = s.cell_l2g[lc] as usize;
                for k in 0..nlev {
                    assert_eq!(
                        div_local.at(lc, k),
                        div_global.at(gc, k),
                        "part {} cell {gc} level {k}",
                        s.part
                    );
                }
            }
        }
    }

    #[test]
    fn gradient_on_owned_edges_matches_serial_bitwise() {
        let (g, _, subs) = setup(6);
        let s_global = Field3::from_fn(g.n_cells, 2, |c, k| (c as f64).sin() + k as f64);
        let mut grad_global = Field3::zeros(g.n_edges, 2);
        ops::gradient(&g, &s_global, &mut grad_global);

        for s in &subs {
            let s_local = Field3::from_fn(s.n_cells, 2, |lc, k| {
                s_global.at(s.cell_l2g[lc] as usize, k)
            });
            let mut grad_local = Field3::zeros(s.n_edges, 2);
            ops::gradient(s, &s_local, &mut grad_local);
            for le in 0..s.n_owned_edges {
                let ge = s.edge_l2g[le] as usize;
                for k in 0..2 {
                    assert_eq!(grad_local.at(le, k), grad_global.at(ge, k));
                }
            }
        }
    }

    #[test]
    fn vorticity_at_owned_edge_vertices_matches_serial() {
        let (g, _, subs) = setup(5);
        let vn_global = Field3::from_fn(g.n_edges, 1, |e, _| ((e * 131) % 97) as f64);
        let mut zeta_global = Field3::zeros(g.n_vertices, 1);
        ops::vorticity(&g, &vn_global, &mut zeta_global);

        for s in &subs {
            let vn_local =
                Field3::from_fn(s.n_edges, 1, |le, _| vn_global.at(s.edge_l2g[le] as usize, 0));
            let mut zeta_local = Field3::zeros(s.n_vertices, 1);
            ops::vorticity(s, &vn_local, &mut zeta_local);
            // Vertices of owned edges are complete (all fan edges local).
            for le in 0..s.n_owned_edges {
                for &lv in &s.edge_vertices[le] {
                    let gv = s.vertex_l2g[lv as usize] as usize;
                    assert_eq!(
                        zeta_local.at(lv as usize, 0),
                        zeta_global.at(gv, 0),
                        "part {} vertex {gv}",
                        s.part
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_owned_reassembles_global_field() {
        let (g, _, subs) = setup(4);
        let reference = Field3::from_fn(g.n_cells, 2, |c, k| (c * 2 + k) as f64);
        let mut rebuilt = Field3::zeros(g.n_cells, 2);
        for s in &subs {
            let local =
                Field3::from_fn(s.n_cells, 2, |lc, k| reference.at(s.cell_l2g[lc] as usize, k));
            s.scatter_owned_to_global(&local, &mut rebuilt);
        }
        assert_eq!(rebuilt, reference);
    }
}
