//! Domain decomposition for distributed-memory execution.
//!
//! Cells are assigned to parts as contiguous ranges of the subdivision-tree
//! (space-filling-curve) cell order — the same strategy ICON uses — which
//! keeps partitions spatially compact without any graph partitioner. Each
//! part gets a one-deep **vertex-ring halo** (every cell sharing a vertex
//! with an owned cell), which is sufficient for all C-grid operators used
//! by the dynamical cores: edge updates on owned edges can read adjacent
//! cell columns, vertex circulations, and cell-level diagnostics of halo
//! cells, all computed from locally present data after exchange.
//!
//! Edge ownership: `owner(e) = min(owner(c0), owner(c1))`. Exchange lists
//! for cell and edge fields are precomputed centrally (as ICON does during
//! model setup) with matching orderings on the send and receive sides.

use crate::grid::Grid;
use std::collections::{BTreeSet, HashMap};

/// Exchange lists of one part, in the part's local numbering.
#[derive(Debug, Clone, Default)]
pub struct ExchangePlan {
    /// `(peer part, local indices to pack and send)`.
    pub send: Vec<(usize, Vec<u32>)>,
    /// `(peer part, local indices to receive into)`.
    pub recv: Vec<(usize, Vec<u32>)>,
}

impl ExchangePlan {
    fn push_send(&mut self, peer: usize, idx: u32) {
        match self.send.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, v)) => v.push(idx),
            None => self.send.push((peer, vec![idx])),
        }
    }

    fn push_recv(&mut self, peer: usize, idx: u32) {
        match self.recv.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, v)) => v.push(idx),
            None => self.recv.push((peer, vec![idx])),
        }
    }

    /// Total number of entities received (the halo size).
    pub fn recv_count(&self) -> usize {
        self.recv.iter().map(|(_, v)| v.len()).sum()
    }

    /// Total number of entities sent.
    pub fn send_count(&self) -> usize {
        self.send.iter().map(|(_, v)| v.len()).sum()
    }
}

/// Per-part entity lists and exchange plans.
#[derive(Debug, Clone)]
pub struct PartLayout {
    pub part: usize,
    /// Owned cells, ascending global id (a contiguous SFC range).
    pub owned_cells: Vec<u32>,
    /// Halo cells (vertex ring), ascending global id.
    pub halo_cells: Vec<u32>,
    /// All local edges: edges incident to any local cell; **owned edges
    /// first** (ascending), then non-owned (ascending).
    pub edges: Vec<u32>,
    /// Number of owned edges (prefix length of `edges`).
    pub n_owned_edges: usize,
    /// All local vertices (vertices of local cells), ascending global id.
    pub vertices: Vec<u32>,
    /// Cell-field halo exchange (local cell indices; owned cells occupy
    /// `0..owned_cells.len()`, halos follow).
    pub cell_exchange: ExchangePlan,
    /// Edge-field halo exchange (local edge indices).
    pub edge_exchange: ExchangePlan,
}

/// A full decomposition of a [`Grid`] into `n_parts` ranks.
#[derive(Debug, Clone)]
pub struct Decomposition {
    pub n_parts: usize,
    /// Owning part of every global cell.
    pub cell_owner: Vec<u32>,
    /// Owning part of every global edge.
    pub edge_owner: Vec<u32>,
    pub parts: Vec<PartLayout>,
}

impl Decomposition {
    /// Equal-cell-count decomposition along the SFC order.
    pub fn new(grid: &Grid, n_parts: usize) -> Self {
        let w = vec![1.0; grid.n_cells];
        Self::new_weighted(grid, n_parts, &w)
    }

    /// Weighted decomposition: contiguous SFC ranges with (approximately)
    /// equal total weight. Used e.g. to balance ocean ranks by the number
    /// of wet levels per column.
    pub fn new_weighted(grid: &Grid, n_parts: usize, weight: &[f64]) -> Self {
        assert!(n_parts >= 1 && n_parts <= grid.n_cells);
        assert_eq!(weight.len(), grid.n_cells);
        let total: f64 = weight.iter().sum();
        assert!(total > 0.0);

        // Greedy prefix partition: cut when the running weight passes the
        // ideal boundary, guaranteeing every part is non-empty.
        let mut cell_owner = vec![0u32; grid.n_cells];
        let mut part = 0usize;
        let mut acc = 0.0;
        for c in 0..grid.n_cells {
            let remaining_cells = grid.n_cells - c;
            let remaining_parts = n_parts - part;
            // Force a cut if we must to keep later parts non-empty.
            let must_cut = remaining_cells == remaining_parts;
            let target = total * (part + 1) as f64 / n_parts as f64;
            if part + 1 < n_parts && (must_cut || acc >= target) {
                part += 1;
            }
            cell_owner[c] = part as u32;
            acc += weight[c];
        }

        let edge_owner: Vec<u32> = grid
            .edge_cells
            .iter()
            .map(|&[c0, c1]| cell_owner[c0 as usize].min(cell_owner[c1 as usize]))
            .collect();

        // --- per-part entity lists.
        let mut parts: Vec<PartLayout> = (0..n_parts)
            .map(|p| PartLayout {
                part: p,
                owned_cells: Vec::new(),
                halo_cells: Vec::new(),
                edges: Vec::new(),
                n_owned_edges: 0,
                vertices: Vec::new(),
                cell_exchange: ExchangePlan::default(),
                edge_exchange: ExchangePlan::default(),
            })
            .collect();
        for c in 0..grid.n_cells {
            parts[cell_owner[c] as usize].owned_cells.push(c as u32);
        }

        for pl in parts.iter_mut() {
            let p = pl.part as u32;
            // Vertex-ring halo.
            let mut halo: BTreeSet<u32> = BTreeSet::new();
            for &c in &pl.owned_cells {
                for &v in &grid.cell_vertices[c as usize] {
                    for &nc in &grid.vertex_cells[v as usize] {
                        if nc != u32::MAX && cell_owner[nc as usize] != p {
                            halo.insert(nc);
                        }
                    }
                }
            }
            pl.halo_cells = halo.into_iter().collect();

            // Local edges: all edges of local cells, owned first.
            let mut owned_e: BTreeSet<u32> = BTreeSet::new();
            let mut other_e: BTreeSet<u32> = BTreeSet::new();
            for &c in pl.owned_cells.iter().chain(&pl.halo_cells) {
                for &e in &grid.cell_edges[c as usize] {
                    if edge_owner[e as usize] == p {
                        owned_e.insert(e);
                    } else {
                        other_e.insert(e);
                    }
                }
            }
            pl.n_owned_edges = owned_e.len();
            pl.edges = owned_e.into_iter().chain(other_e).collect();

            // Local vertices.
            let mut verts: BTreeSet<u32> = BTreeSet::new();
            for &c in pl.owned_cells.iter().chain(&pl.halo_cells) {
                for &v in &grid.cell_vertices[c as usize] {
                    verts.insert(v);
                }
            }
            pl.vertices = verts.into_iter().collect();
        }

        // --- exchange plans. Local cell index: position in owned ++ halo.
        // Sender-side index of an owned entity is its position in the
        // sender's owned list; both sides are built in the same pass so the
        // per-peer orderings match element for element.
        let owned_cell_pos: Vec<HashMap<u32, u32>> = parts
            .iter()
            .map(|pl| {
                pl.owned_cells
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (c, i as u32))
                    .collect()
            })
            .collect();
        let edge_pos: Vec<HashMap<u32, u32>> = parts
            .iter()
            .map(|pl| {
                pl.edges
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| (e, i as u32))
                    .collect()
            })
            .collect();

        for p in 0..n_parts {
            // Cells: receive each halo cell from its owner.
            let halos = parts[p].halo_cells.clone();
            let n_owned = parts[p].owned_cells.len();
            for (i, &c) in halos.iter().enumerate() {
                let q = cell_owner[c as usize] as usize;
                let local_here = (n_owned + i) as u32;
                let local_there = owned_cell_pos[q][&c];
                parts[p].cell_exchange.push_recv(q, local_here);
                parts[q].cell_exchange.push_send(p, local_there);
            }
            // Edges: receive every non-owned local edge from its owner.
            let edges = parts[p].edges.clone();
            for (i, &e) in edges.iter().enumerate().skip(parts[p].n_owned_edges) {
                let q = edge_owner[e as usize] as usize;
                debug_assert_ne!(q, p);
                let local_there = edge_pos[q][&e];
                parts[p].edge_exchange.push_recv(q, i as u32);
                parts[q].edge_exchange.push_send(p, local_there);
            }
        }

        Decomposition {
            n_parts,
            cell_owner,
            edge_owner,
            parts,
        }
    }

    /// Maximum over parts of (local cells / ideal cells) — the static load
    /// imbalance of the decomposition.
    pub fn imbalance(&self) -> f64 {
        let total: usize = self.parts.iter().map(|p| p.owned_cells.len()).sum();
        let ideal = total as f64 / self.n_parts as f64;
        self.parts
            .iter()
            .map(|p| p.owned_cells.len() as f64 / ideal)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grid;

    fn grid() -> Grid {
        Grid::build(3, crate::EARTH_RADIUS_M) // 1280 cells
    }

    #[test]
    fn partition_is_disjoint_cover() {
        let g = grid();
        let d = Decomposition::new(&g, 7);
        let mut seen = vec![false; g.n_cells];
        for pl in &d.parts {
            for &c in &pl.owned_cells {
                assert!(!seen[c as usize], "cell {c} owned twice");
                seen[c as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn partition_balanced() {
        let g = grid();
        for np in [2, 4, 16, 60] {
            let d = Decomposition::new(&g, np);
            assert!(
                d.imbalance() < 1.05,
                "{np} parts: imbalance {}",
                d.imbalance()
            );
        }
    }

    #[test]
    fn weighted_partition_balances_weight() {
        let g = grid();
        // Weight only the "northern" half: parts should concentrate there.
        let w: Vec<f64> = (0..g.n_cells)
            .map(|c| if g.cell_center[c].z > 0.0 { 1.0 } else { 0.01 })
            .collect();
        let d = Decomposition::new_weighted(&g, 8, &w);
        let total: f64 = w.iter().sum();
        for pl in &d.parts {
            let pw: f64 = pl.owned_cells.iter().map(|&c| w[c as usize]).sum();
            assert!(
                (pw / (total / 8.0)) < 1.6,
                "part {} weight share {pw}",
                pl.part
            );
            assert!(!pl.owned_cells.is_empty());
        }
    }

    #[test]
    fn halo_contains_all_vertex_neighbors() {
        let g = grid();
        let d = Decomposition::new(&g, 5);
        for pl in &d.parts {
            let local: std::collections::HashSet<u32> = pl
                .owned_cells
                .iter()
                .chain(&pl.halo_cells)
                .cloned()
                .collect();
            for &c in &pl.owned_cells {
                for &v in &g.cell_vertices[c as usize] {
                    for &nc in &g.vertex_cells[v as usize] {
                        if nc != u32::MAX {
                            assert!(local.contains(&nc), "missing vertex neighbor {nc}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn edge_ownership_and_locality() {
        let g = grid();
        let d = Decomposition::new(&g, 5);
        // Every edge is owned by exactly one part, and local to it.
        for e in 0..g.n_edges {
            let q = d.edge_owner[e] as usize;
            assert!(d.parts[q].edges[..d.parts[q].n_owned_edges].contains(&(e as u32)));
        }
        // Owned edges of a part have at least one owned adjacent cell.
        for pl in &d.parts {
            for &e in &pl.edges[..pl.n_owned_edges] {
                let [c0, c1] = g.edge_cells[e as usize];
                assert!(
                    d.cell_owner[c0 as usize] == pl.part as u32
                        || d.cell_owner[c1 as usize] == pl.part as u32
                );
            }
        }
    }

    #[test]
    fn exchange_plans_are_symmetric() {
        let g = grid();
        let d = Decomposition::new(&g, 6);
        for p in 0..d.n_parts {
            for (q, recv) in &d.parts[p].cell_exchange.recv {
                let send = &d.parts[*q]
                    .cell_exchange
                    .send
                    .iter()
                    .find(|(peer, _)| *peer == p)
                    .expect("matching send list")
                    .1;
                assert_eq!(recv.len(), send.len());
                // Element-for-element: global ids must match.
                let n_owned = d.parts[p].owned_cells.len();
                for (r, s) in recv.iter().zip(send.iter()) {
                    let g_here = d.parts[p].halo_cells[*r as usize - n_owned];
                    let g_there = d.parts[*q].owned_cells[*s as usize];
                    assert_eq!(g_here, g_there);
                }
            }
            for (q, recv) in &d.parts[p].edge_exchange.recv {
                let send = &d.parts[*q]
                    .edge_exchange
                    .send
                    .iter()
                    .find(|(peer, _)| *peer == p)
                    .expect("matching edge send list")
                    .1;
                assert_eq!(recv.len(), send.len());
                for (r, s) in recv.iter().zip(send.iter()) {
                    assert_eq!(
                        d.parts[p].edges[*r as usize],
                        d.parts[*q].edges[*s as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn single_part_has_no_halo() {
        let g = grid();
        let d = Decomposition::new(&g, 1);
        assert!(d.parts[0].halo_cells.is_empty());
        assert_eq!(d.parts[0].owned_cells.len(), g.n_cells);
        assert_eq!(d.parts[0].n_owned_edges, g.n_edges);
        assert_eq!(d.parts[0].cell_exchange.recv_count(), 0);
        assert_eq!(d.parts[0].edge_exchange.recv_count(), 0);
    }

    #[test]
    fn sfc_partitions_are_compact() {
        // SFC contiguity: halo surface should scale like the perimeter,
        // i.e. much smaller than the owned-cell count.
        let g = Grid::build(4, crate::EARTH_RADIUS_M); // 5120 cells
        let d = Decomposition::new(&g, 8);
        for pl in &d.parts {
            let ratio = pl.halo_cells.len() as f64 / pl.owned_cells.len() as f64;
            assert!(ratio < 0.6, "part {}: halo ratio {ratio}", pl.part);
        }
    }
}
