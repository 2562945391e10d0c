//! Window-level record/replay for the coupled step — the driver half of
//! the paper's CUDA-graph optimization (§5.1, `results/cudagraphs.json`).
//!
//! One coupled window makes the same dispatch and allocation decisions
//! every time: the land model launches the same kernel sequence (already
//! frozen by [`land::LaunchRecorder`] in `Graph` mode), the coupler
//! exchanges the same flux bundle, and the fast window fills the same
//! accumulator and output buffers. [`ReplayState`] exploits that:
//! the first window of a run is the **recording pass** — it executes
//! eagerly while a [`WindowArena`] sizes every window-internal buffer —
//! and later windows **replay** against the frozen arena: accumulators
//! are reset in place and output flux buffers are drawn from a pool
//! recycled from consumed bundles, so the steady state makes zero fresh
//! allocations per window.
//!
//! Replay is valid only while the [`WindowShape`] holds: grid extents,
//! the coupling schedule, the incoming flux bundle's layout, and the land
//! model's frozen kernel schedule (the certification analog at this
//! level). A pre-window capture that differs from the recorded signature
//! **invalidates** the graph and re-records instead of replaying stale
//! buffer splits — never a wrong answer, counted on
//! [`WindowReplayStats`]. Restores (rollback-replay, rank respawn)
//! conservatively invalidate too: the frozen schedule's validity is
//! re-established by the re-recording pass after recovery.
//!
//! Bitwise equivalence with the non-recorded path is by construction —
//! `fast_window` has a single code path that takes the arena either
//! freshly allocated (record / replay disabled) or recycled (replay),
//! with identical initial values — and is proven end to end by
//! `tests/graph_replay.rs`.

use coupler::exchange::FluxSet;
use icongrid::Grid;
use land::LandModel;

use crate::config::EsmConfig;

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

/// Everything a recorded window schedule depends on. Compared before
/// every replay; any difference is an invalidation, never a stale replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowShape {
    pub n_cells: usize,
    pub n_edges: usize,
    /// Atmosphere steps per coupling window (the schedule).
    pub atm_steps: usize,
    /// Name and length of every field in the incoming (ocean-to-fast)
    /// flux bundle.
    pub fluxes_to_fast: Vec<(&'static str, usize)>,
    /// The land model's launch mode and frozen kernel count — this
    /// level's certification verdict: only a `Graph`-mode land model has
    /// a schedule that is provably identical across windows.
    pub land_mode: land::kernels::LaunchMode,
    pub land_kernels_per_step: usize,
}

impl WindowShape {
    pub fn capture(
        g: &Grid,
        cfg: &EsmConfig,
        land: &LandModel<Grid>,
        incoming: &FluxSet,
    ) -> WindowShape {
        WindowShape {
            n_cells: g.n_cells,
            n_edges: g.n_edges,
            atm_steps: cfg.atm_steps_per_window(),
            fluxes_to_fast: incoming.fields.iter().map(|(n, d)| (*n, d.len())).collect(),
            land_mode: land.recorder.mode(),
            land_kernels_per_step: land.recorder.kernels_per_step(),
        }
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
            allocations: 4,
        }
    }

    /// Reset the window accumulators to their start-of-window values.
    pub(crate) fn reset(&mut self) {
        self.precip_ocean_m.fill(0.0);
        self.evap_ocean_m.fill(0.0);
        self.discharge_m3.fill(0.0);
        self.sw_sum.fill(0.0);
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
        Self::take(&mut self.cell_pool, self.n_cells, init, &mut self.allocations)
    }

    /// An edge-sized buffer filled with `init`.
    pub(crate) fn take_edges(&mut self, init: f64) -> Vec<f64> {
        Self::take(&mut self.edge_pool, self.n_edges, init, &mut self.allocations)
    }

    /// Return a consumed flux bundle's buffers to the pool. Buffers whose
    /// length matches neither extent (a shape change in flight) are
    /// dropped, not pooled.
    pub(crate) fn recycle(&mut self, fx: FluxSet) {
        for (_, data) in fx.fields {
            if data.len() == self.n_edges {
                self.edge_pool.push(data);
            } else if data.len() == self.n_cells {
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
    /// Windows replayed against a recorded graph.
    pub replayed_windows: u64,
    /// Times a live recorded graph was discarded: a shape/certification
    /// mismatch before a window, or a restore (rollback, rank respawn).
    pub invalidations: u64,
    /// Recording passes performed after the first (each one follows an
    /// invalidation).
    pub rerecords: u64,
}

/// What the driver decided for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WindowPlan {
    /// Valid recorded graph: run against its frozen arena.
    Replay,
    /// No graph (or it was just invalidated): run eagerly on a fresh
    /// arena and commit it afterwards.
    Record,
    /// Replay disabled: run eagerly, commit nothing.
    Eager,
}

#[derive(Debug)]
struct WindowGraph {
    shape: WindowShape,
    arena: WindowArena,
}

/// The recorded-window state threaded through `CoupledEsm`: at most one
/// live graph, its validity signature, and the lifetime counters.
#[derive(Debug, Default)]
pub struct ReplayState {
    pub cfg: ReplayConfig,
    graph: Option<WindowGraph>,
    pub stats: WindowReplayStats,
    ever_recorded: bool,
}

impl ReplayState {
    pub fn new(cfg: ReplayConfig) -> ReplayState {
        ReplayState {
            cfg,
            ..ReplayState::default()
        }
    }

    /// Whether a recorded graph is currently live.
    pub fn has_graph(&self) -> bool {
        self.graph.is_some()
    }

    /// Fresh allocations made through the live graph's arena (0 without
    /// one).
    pub fn arena_allocations(&self) -> u64 {
        self.graph.as_ref().map_or(0, |g| g.arena.allocations)
    }

    /// Discard the recorded graph, if any. Called by every restore path:
    /// after a rollback or rank respawn the next window re-records
    /// instead of trusting a schedule frozen on the abandoned trajectory.
    pub fn invalidate(&mut self) {
        if self.graph.take().is_some() {
            self.stats.invalidations += 1;
        }
    }

    /// Decide record vs replay for a window of `shape`, counting
    /// replays and invalidations. A `Record` plan must be followed by
    /// [`ReplayState::commit`] once the window succeeds.
    pub(crate) fn begin_window(&mut self, shape: &WindowShape) -> WindowPlan {
        if !self.cfg.enabled {
            return WindowPlan::Eager;
        }
        match &self.graph {
            Some(g) if g.shape == *shape => {
                self.stats.replayed_windows += 1;
                WindowPlan::Replay
            }
            Some(_) => {
                self.invalidate();
                WindowPlan::Record
            }
            None => WindowPlan::Record,
        }
    }

    /// The live graph's arena (replay plans only).
    pub(crate) fn arena_mut(&mut self) -> Option<&mut WindowArena> {
        self.graph.as_mut().map(|g| &mut g.arena)
    }

    /// Freeze a completed recording pass: the arena's buffer sizes and
    /// pool become the graph, `shape` (captured *after* the window, so
    /// the land schedule is populated) its validity signature.
    pub(crate) fn commit(&mut self, shape: WindowShape, arena: WindowArena) {
        self.stats.recorded_windows += 1;
        if self.ever_recorded {
            self.stats.rerecords += 1;
        }
        self.ever_recorded = true;
        self.graph = Some(WindowGraph { shape, arena });
    }

    /// Return a consumed flux bundle to the live graph's pool (dropped
    /// when no graph is live).
    pub(crate) fn recycle(&mut self, fx: FluxSet) {
        if let Some(g) = self.graph.as_mut() {
            g.arena.recycle(fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(n: usize) -> WindowShape {
        WindowShape {
            n_cells: n,
            n_edges: 3 * n,
            atm_steps: 4,
            fluxes_to_fast: vec![("sst", n)],
            land_mode: land::kernels::LaunchMode::Graph,
            land_kernels_per_step: 7,
        }
    }

    #[test]
    fn record_then_replay_then_invalidate_on_shape_change() {
        let mut rs = ReplayState::default();
        assert_eq!(rs.begin_window(&shape(8)), WindowPlan::Record);
        rs.commit(shape(8), WindowArena::new(8, 24));
        assert_eq!(rs.begin_window(&shape(8)), WindowPlan::Replay);
        assert_eq!(rs.begin_window(&shape(8)), WindowPlan::Replay);
        // A different bundle layout must not replay stale splits.
        assert_eq!(rs.begin_window(&shape(9)), WindowPlan::Record);
        rs.commit(shape(9), WindowArena::new(9, 27));
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
        assert_eq!(rs.begin_window(&shape(8)), WindowPlan::Eager);
        assert!(!rs.has_graph());
        assert_eq!(rs.stats, WindowReplayStats::default());
    }

    #[test]
    fn explicit_invalidate_counts_once_per_live_graph() {
        let mut rs = ReplayState::default();
        rs.invalidate(); // no graph: a no-op
        assert_eq!(rs.stats.invalidations, 0);
        assert_eq!(rs.begin_window(&shape(8)), WindowPlan::Record);
        rs.commit(shape(8), WindowArena::new(8, 24));
        rs.invalidate();
        rs.invalidate(); // already gone: still one invalidation
        assert_eq!(rs.stats.invalidations, 1);
        assert_eq!(rs.begin_window(&shape(8)), WindowPlan::Record);
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
