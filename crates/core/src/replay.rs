//! Window-level record/replay for the coupled step — the driver half of
//! the paper's CUDA-graph optimization (§5.1, `results/cudagraphs.json`).
//!
//! One coupled window makes the same dispatch and allocation decisions
//! every time: the land model launches the same kernel sequence (frozen
//! by [`land::LaunchRecorder`] in `Graph` mode, which panics on a
//! divergent schedule), the coupler exchanges the same flux bundle, and
//! the fast window fills the same accumulator and output buffers.
//! [`ReplayState`] caches the one [`WindowArena`] that holds them: a
//! window that finds no live arena is a **recording pass** — it runs on
//! a fresh arena — and a window that finds one **replays** against it:
//! accumulators are reset in place and output flux buffers are drawn
//! from a pool recycled from consumed bundles, so the steady state makes
//! zero fresh allocations per window. The arena is put back after every
//! window, also a failed one.
//!
//! Every arena buffer is sized by the grid's cell or edge count, which
//! no run changes, so there is nothing to re-validate before a replay.
//! Restores (rollback-replay, rank respawn) drop the arena as an
//! invalidation, counted on [`WindowReplayStats`], and the next window
//! re-records.
//!
//! Bitwise equivalence with the non-recorded path is by construction —
//! `fast_window` has a single code path that takes the arena either
//! freshly allocated (record / replay disabled) or recycled (replay),
//! with identical initial values — and is proven end to end by
//! `tests/graph_replay.rs`.

use coupler::exchange::FluxSet;

/// Replay policy for [`crate::CoupledEsm::run_windows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayConfig {
    /// Record window 0 and replay windows 1..N (default). When `false`,
    /// every window allocates fresh buffers — the eager baseline the
    /// equivalence harness compares against.
    pub enabled: bool,
}

impl Default for ReplayConfig {
    fn default() -> ReplayConfig {
        ReplayConfig { enabled: true }
    }
}

/// Pre-sized buffers for one coupled window: the four flux accumulators
/// reset in place each window, plus a recycling pool the output flux
/// buffers are drawn from and returned to (via [`ReplayState::recycle`])
/// once the peer has consumed them.
#[derive(Debug)]
pub struct WindowArena {
    n_cells: usize,
    n_edges: usize,
    pub(crate) precip_ocean_m: Vec<f64>,
    pub(crate) evap_ocean_m: Vec<f64>,
    pub(crate) discharge_m3: Vec<f64>,
    pub(crate) sw_sum: Vec<f64>,
    cell_pool: Vec<Vec<f64>>,
    edge_pool: Vec<Vec<f64>>,
    /// Buffers taken from each pool since the last [`WindowArena::reset`]:
    /// what one window takes, and so the most either pool keeps.
    cell_takes: usize,
    edge_takes: usize,
    /// Fresh heap allocations made through this arena (the accumulators
    /// plus every pool miss). Constant across steady-state replays —
    /// asserted by the equivalence harness.
    pub allocations: u64,
}

impl WindowArena {
    pub fn new(n_cells: usize, n_edges: usize) -> WindowArena {
        WindowArena {
            n_cells,
            n_edges,
            precip_ocean_m: vec![0.0; n_cells],
            evap_ocean_m: vec![0.0; n_cells],
            discharge_m3: vec![0.0; n_cells],
            sw_sum: vec![0.0; n_cells],
            cell_pool: Vec::new(),
            edge_pool: Vec::new(),
            cell_takes: 0,
            edge_takes: 0,
            allocations: 4,
        }
    }

    /// Reset the window accumulators to their start-of-window values.
    pub(crate) fn reset(&mut self) {
        self.precip_ocean_m.fill(0.0);
        self.evap_ocean_m.fill(0.0);
        self.discharge_m3.fill(0.0);
        self.sw_sum.fill(0.0);
        self.cell_takes = 0;
        self.edge_takes = 0;
    }

    /// A `len`-sized buffer filled with `init`: recycled when `pool` has
    /// one, freshly allocated (and counted) otherwise.
    fn take(pool: &mut Vec<Vec<f64>>, len: usize, init: f64, allocations: &mut u64) -> Vec<f64> {
        match pool.pop() {
            Some(mut v) => {
                debug_assert_eq!(v.len(), len);
                v.fill(init);
                v
            }
            None => {
                *allocations += 1;
                vec![init; len]
            }
        }
    }

    /// A cell-sized buffer filled with `init`.
    pub(crate) fn take_cells(&mut self, init: f64) -> Vec<f64> {
        self.cell_takes += 1;
        Self::take(&mut self.cell_pool, self.n_cells, init, &mut self.allocations)
    }

    /// An edge-sized buffer filled with `init`.
    pub(crate) fn take_edges(&mut self, init: f64) -> Vec<f64> {
        self.edge_takes += 1;
        Self::take(&mut self.edge_pool, self.n_edges, init, &mut self.allocations)
    }

    /// Return a consumed flux bundle's buffers to the pool, keeping no
    /// more per extent than the last window took: both sides' bundles
    /// are recycled, but only the fast side draws from the pool, so an
    /// unbounded pool would grow by the slow side's buffers every window.
    /// Buffers beyond the bound, or whose length matches neither extent,
    /// are dropped.
    pub(crate) fn recycle(&mut self, fx: FluxSet) {
        for (_, data) in fx.fields {
            if data.len() == self.n_edges && self.edge_pool.len() < self.edge_takes {
                self.edge_pool.push(data);
            } else if data.len() == self.n_cells && self.cell_pool.len() < self.cell_takes {
                self.cell_pool.push(data);
            }
        }
    }
}

/// Counters of one [`ReplayState`]'s lifetime, surfaced on
/// `ResilienceReport` by the fault-tolerant drivers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowReplayStats {
    /// Windows that ran as a recording pass (including re-records).
    pub recorded_windows: u64,
    /// Windows replayed against a live arena.
    pub replayed_windows: u64,
    /// Times a live arena was discarded by a restore (rollback, rank
    /// respawn).
    pub invalidations: u64,
    /// Recording passes performed after the first (each one follows an
    /// invalidation).
    pub rerecords: u64,
}

/// The window arena cache threaded through `CoupledEsm`: at most one
/// live arena and the lifetime counters.
#[derive(Debug, Default)]
pub struct ReplayState {
    pub cfg: ReplayConfig,
    arena: Option<WindowArena>,
    pub stats: WindowReplayStats,
}

impl ReplayState {
    pub fn new(cfg: ReplayConfig) -> ReplayState {
        ReplayState {
            cfg,
            ..ReplayState::default()
        }
    }

    /// Whether a recorded arena is currently live.
    pub fn has_graph(&self) -> bool {
        self.arena.is_some()
    }

    /// Fresh allocations made through the live arena (0 without one).
    pub fn arena_allocations(&self) -> u64 {
        self.arena.as_ref().map_or(0, |a| a.allocations)
    }

    /// Buffers pooled in the live arena, (cell-sized, edge-sized); (0, 0)
    /// without one.
    pub fn pooled_buffers(&self) -> (usize, usize) {
        self.arena
            .as_ref()
            .map_or((0, 0), |a| (a.cell_pool.len(), a.edge_pool.len()))
    }

    /// Discard the live arena, if any. Called by every restore path:
    /// after a rollback or rank respawn the next window re-records
    /// instead of reusing buffers sized on the abandoned trajectory.
    pub fn invalidate(&mut self) {
        if self.arena.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// The arena for the next window, counted: the live one (a replay),
    /// or a fresh one (a recording pass, or every window with replay
    /// disabled). Hand it back with [`ReplayState::put_back`].
    pub(crate) fn take(&mut self, n_cells: usize, n_edges: usize) -> WindowArena {
        if !self.cfg.enabled {
            return WindowArena::new(n_cells, n_edges);
        }
        if let Some(arena) = self.arena.take() {
            self.stats.replayed_windows += 1;
            return arena;
        }
        if self.stats.recorded_windows > 0 {
            self.stats.rerecords += 1;
        }
        self.stats.recorded_windows += 1;
        WindowArena::new(n_cells, n_edges)
    }

    /// Keep `arena` live for the next window, whether or not the window
    /// that used it succeeded (dropped when replay is disabled).
    pub(crate) fn put_back(&mut self, arena: WindowArena) {
        if self.cfg.enabled {
            self.arena = Some(arena);
        }
    }

    /// Return a consumed flux bundle to the live arena's pool (dropped
    /// when no arena is live).
    pub(crate) fn recycle(&mut self, fx: FluxSet) {
        if let Some(a) = self.arena.as_mut() {
            a.recycle(fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_replay_then_rerecord_after_invalidate() {
        let window = |rs: &mut ReplayState| {
            let a = rs.take(8, 24);
            rs.put_back(a);
        };
        let mut rs = ReplayState::default();
        for _ in 0..3 {
            window(&mut rs);
        }
        rs.invalidate();
        rs.invalidate(); // already gone: still one invalidation
        window(&mut rs);
        assert!(rs.has_graph());
        assert_eq!(
            rs.stats,
            WindowReplayStats {
                recorded_windows: 2,
                replayed_windows: 2,
                invalidations: 1,
                rerecords: 1,
            }
        );
    }

    #[test]
    fn disabled_replay_never_records() {
        let mut rs = ReplayState::new(ReplayConfig { enabled: false });
        let a = rs.take(8, 24);
        assert_eq!(a.allocations, 4, "a fresh arena");
        rs.put_back(a);
        assert!(!rs.has_graph());
        assert_eq!(rs.stats, WindowReplayStats::default());
    }

    #[test]
    fn pool_stays_bounded_over_many_windows() {
        let mut esm = crate::CoupledEsm::new(crate::EsmConfig::tiny());
        esm.run_windows(2, false).unwrap();
        let pooled = esm.replay.pooled_buffers();
        let allocations = esm.replay.arena_allocations();
        // What one window takes: five cell fluxes and one edge flux.
        assert_eq!(pooled, (5, 1));
        for _ in 0..50 {
            esm.run_windows(1, false).unwrap();
            assert_eq!(esm.replay.pooled_buffers(), pooled);
            assert_eq!(esm.replay.arena_allocations(), allocations);
        }
    }

    #[test]
    fn arena_pools_recycled_buffers_without_fresh_allocation() {
        let mut a = WindowArena::new(4, 6);
        let base = a.allocations;
        let heat = a.take_cells(0.0);
        let stress = a.take_edges(0.0);
        assert_eq!(a.allocations, base + 2, "empty pool allocates");
        let mut fx = FluxSet::new();
        fx.insert("heat_flux", heat);
        fx.insert("wind_stress_n", stress);
        a.recycle(fx);
        let heat2 = a.take_cells(1.5);
        let stress2 = a.take_edges(0.25);
        assert_eq!(a.allocations, base + 2, "recycled buffers are free");
        assert!(heat2.iter().all(|&v| v == 1.5), "re-initialized on take");
        assert!(stress2.iter().all(|&v| v == 0.25));
    }
}
