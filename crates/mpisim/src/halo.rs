//! Halo exchange for distributed fields.
//!
//! This is the boundary-exchange pattern of §5.1 of the paper: each rank
//! packs the owned entities its neighbors need, posts all sends (buffered,
//! like eager MPI with GPUDirect), then receives and unpacks its halo.
//! The exchange lists come precomputed from the domain decomposition
//! ([`icongrid::decomp`]); senders and receivers enumerate the same global
//! entities in the same order, so unpacking is a straight copy.

use crate::comm::Comm;
use icongrid::decomp::ExchangePlan;
use icongrid::{Field2, Field3};

/// A reusable halo exchanger for one exchange plan (cells or edges of one
/// subgrid). Holds pre-sized pack buffers to avoid per-step allocation.
pub struct HaloExchanger {
    plan: ExchangePlan,
    tag: u64,
}

impl HaloExchanger {
    pub fn new(plan: ExchangePlan, tag: u64) -> Self {
        HaloExchanger { plan, tag }
    }

    pub fn plan(&self) -> &ExchangePlan {
        &self.plan
    }

    /// Exchange a 3-D field: send owned columns, fill halo columns.
    pub fn exchange3(&self, comm: &Comm, field: &mut Field3) {
        let nlev = field.nlev();
        for (peer, idxs) in &self.plan.send {
            let mut buf = Vec::with_capacity(idxs.len() * nlev);
            for &i in idxs {
                buf.extend_from_slice(field.col(i as usize));
            }
            comm.send(*peer, self.tag, &buf);
        }
        for (peer, idxs) in &self.plan.recv {
            let buf = comm.recv(*peer, self.tag);
            debug_assert_eq!(buf.len(), idxs.len() * nlev);
            for (j, &i) in idxs.iter().enumerate() {
                field
                    .col_mut(i as usize)
                    .copy_from_slice(&buf[j * nlev..(j + 1) * nlev]);
            }
        }
    }

    /// Exchange a single-level field.
    pub fn exchange2(&self, comm: &Comm, field: &mut Field2) {
        for (peer, idxs) in &self.plan.send {
            let buf: Vec<f64> = idxs.iter().map(|&i| field[i as usize]).collect();
            comm.send(*peer, self.tag, &buf);
        }
        for (peer, idxs) in &self.plan.recv {
            let buf = comm.recv(*peer, self.tag);
            debug_assert_eq!(buf.len(), idxs.len());
            for (j, &i) in idxs.iter().enumerate() {
                field[i as usize] = buf[j];
            }
        }
    }

    /// Exchange several 3-D fields back to back (single message per peer —
    /// the message-aggregation optimization ICON uses to amortize latency).
    pub fn exchange3_many(&self, comm: &Comm, fields: &mut [&mut Field3]) {
        if fields.is_empty() {
            return;
        }
        for (peer, idxs) in &self.plan.send {
            let mut buf = Vec::new();
            for f in fields.iter() {
                let nlev = f.nlev();
                for &i in idxs {
                    buf.extend_from_slice(f.col(i as usize));
                }
                let _ = nlev;
            }
            comm.send(*peer, self.tag, &buf);
        }
        for (peer, idxs) in &self.plan.recv {
            let buf = comm.recv(*peer, self.tag);
            let mut off = 0;
            for f in fields.iter_mut() {
                let nlev = f.nlev();
                for &i in idxs {
                    f.col_mut(i as usize)
                        .copy_from_slice(&buf[off..off + nlev]);
                    off += nlev;
                }
            }
            debug_assert_eq!(off, buf.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::World;
    use icongrid::{Decomposition, Field3, Grid, SubGrid};

    /// End-to-end distributed test: halo exchange on a real decomposition
    /// reproduces the values a single-domain run would see.
    #[test]
    fn cell_halo_exchange_matches_global_field() {
        let grid = Grid::build(3, icongrid::EARTH_RADIUS_M);
        let np = 5;
        let decomp = Decomposition::new(&grid, np);
        let subs: Vec<SubGrid> = (0..np).map(|p| SubGrid::build(&grid, &decomp, p)).collect();
        let nlev = 4;
        let reference =
            Field3::from_fn(grid.n_cells, nlev, |c, k| (c as f64) * 1000.0 + k as f64);

        World::run(np, |comm| {
            let s = &subs[comm.rank()];
            // Fill only owned columns; halo columns start poisoned.
            let mut f = Field3::from_fn(s.n_cells, nlev, |lc, k| {
                if lc < s.n_owned_cells {
                    reference.at(s.cell_l2g[lc] as usize, k)
                } else {
                    f64::NAN
                }
            });
            let hx = HaloExchanger::new(s.cell_exchange.clone(), 42);
            hx.exchange3(&comm, &mut f);
            // Every local column now matches the global reference.
            for lc in 0..s.n_cells {
                let gc = s.cell_l2g[lc] as usize;
                for k in 0..nlev {
                    assert_eq!(f.at(lc, k), reference.at(gc, k), "cell {gc} level {k}");
                }
            }
        });
    }

    #[test]
    fn edge_halo_exchange_matches_global_field() {
        let grid = Grid::build(3, icongrid::EARTH_RADIUS_M);
        let np = 4;
        let decomp = Decomposition::new(&grid, np);
        let subs: Vec<SubGrid> = (0..np).map(|p| SubGrid::build(&grid, &decomp, p)).collect();
        let reference = Field3::from_fn(grid.n_edges, 2, |e, k| (e * 10 + k) as f64);

        World::run(np, |comm| {
            let s = &subs[comm.rank()];
            let mut f = Field3::from_fn(s.n_edges, 2, |le, k| {
                if le < s.n_owned_edges {
                    reference.at(s.edge_l2g[le] as usize, k)
                } else {
                    -1.0
                }
            });
            let hx = HaloExchanger::new(s.edge_exchange.clone(), 7);
            hx.exchange3(&comm, &mut f);
            for le in 0..s.n_edges {
                let ge = s.edge_l2g[le] as usize;
                for k in 0..2 {
                    assert_eq!(f.at(le, k), reference.at(ge, k));
                }
            }
        });
    }

    #[test]
    fn exchange_is_idempotent() {
        let grid = Grid::build(2, icongrid::EARTH_RADIUS_M);
        let np = 3;
        let decomp = Decomposition::new(&grid, np);
        let subs: Vec<SubGrid> = (0..np).map(|p| SubGrid::build(&grid, &decomp, p)).collect();

        World::run(np, |comm| {
            let s = &subs[comm.rank()];
            let mut f = Field3::from_fn(s.n_cells, 1, |lc, _| s.cell_l2g[lc] as f64);
            let hx = HaloExchanger::new(s.cell_exchange.clone(), 0);
            hx.exchange3(&comm, &mut f);
            let once = f.clone();
            hx.exchange3(&comm, &mut f);
            assert_eq!(f, once, "second exchange must not change anything");
        });
    }

    #[test]
    fn aggregated_exchange_equals_individual_exchanges() {
        let grid = Grid::build(3, icongrid::EARTH_RADIUS_M);
        let np = 4;
        let decomp = Decomposition::new(&grid, np);
        let subs: Vec<SubGrid> = (0..np).map(|p| SubGrid::build(&grid, &decomp, p)).collect();

        World::run(np, |comm| {
            let s = &subs[comm.rank()];
            let mk = |salt: usize| {
                Field3::from_fn(s.n_cells, 3, |lc, k| {
                    if lc < s.n_owned_cells {
                        (s.cell_l2g[lc] as usize * 7 + k + salt) as f64
                    } else {
                        f64::NAN
                    }
                })
            };
            let mut a1 = mk(1);
            let mut b1 = mk(2);
            let mut a2 = mk(1);
            let mut b2 = mk(2);
            let hx = HaloExchanger::new(s.cell_exchange.clone(), 3);
            hx.exchange3(&comm, &mut a1);
            hx.exchange3(&comm, &mut b1);
            hx.exchange3_many(&comm, &mut [&mut a2, &mut b2]);
            assert_eq!(a1, a2);
            assert_eq!(b1, b2);
        });
    }

    #[test]
    fn aggregation_reduces_message_count() {
        let grid = Grid::build(3, icongrid::EARTH_RADIUS_M);
        let np = 4;
        let decomp = Decomposition::new(&grid, np);
        let subs: Vec<SubGrid> = (0..np).map(|p| SubGrid::build(&grid, &decomp, p)).collect();

        let sends = |aggregated: bool| {
            let (_, traces) = World::run_traced(np, None, |comm| {
                let s = &subs[comm.rank()];
                let mut a = Field3::zeros(s.n_cells, 2);
                let mut b = Field3::zeros(s.n_cells, 2);
                let hx = HaloExchanger::new(s.cell_exchange.clone(), 3);
                if aggregated {
                    hx.exchange3_many(&comm, &mut [&mut a, &mut b]);
                } else {
                    hx.exchange3(&comm, &mut a);
                    hx.exchange3(&comm, &mut b);
                }
            });
            let sends = traces.iter().flat_map(|t| &t.events);
            sends.filter(|e| matches!(e.op, crate::TraceOp::Send { .. })).count()
        };
        let solo = sends(false);
        let agg = sends(true);
        assert!(agg > 0);
        assert_eq!(agg * 2, solo);
    }
}
