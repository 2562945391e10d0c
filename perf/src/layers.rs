//! The benchmark's whole dependence on the repository it measures.
//!
//! No other file of this package names a crate of the repository. Every
//! public function, field and config field the harness touches is called
//! or read here, under the layer it stands for, so a later change to one of
//! these APIs knows exactly what the frozen benchmark pins:
//!
//! | layer | pinned API |
//! |---|---|
//! | `icongrid` | `Grid::build`, `EARTH_RADIUS_M`, `LandSeaMask::{synthetic_earth, n_land_cells}`, `NoExchange`, `Field2::{from_fn, zeros}`, `Grid::{n_cells, cell_area, cell_center}` |
//! | `core` | `EsmConfig::demo` + fields `bisections`, `seed`, `land_fraction`, `coupling_s`, `atm_levels`, `oce_levels`, and `atm_steps_per_window()`, `oce_steps_per_window()`; `CoupledEsm::{new, run_windows, run_windows_resilient, run_windows_supervised, snapshot, restore, carbon_budget, water_budget}`; fields `timers.*`, `replay.cfg.enabled`, `replay.stats.*`, `grid`, `atm`, `land`, `ocean`, `hamocc`; `ResilienceConfig` fields `checkpoint_every`, `audit_every`, `diagnostics_every`, `guard_ranks`, `corrupt_generations`, `sdc`, and the defaults of `n_files`, `n_readers`; every `ResilienceReport` field read in [`Report`]; `SupervisorConfig::default`; `StateFaultPlan::{new, flip}`, `FlipTarget::{Var, QuiescentIndex}`, `sdc::crc_f64` |
//! | `atmo` | `esm.atm.step(&NoExchange)` |
//! | `land` | `esm.land.step()`, `esm.land.recorder.kernels_per_step()` |
//! | `ocean` | `esm.ocean.step(&NoExchange, n)`, `esm.ocean.last_cg.iterations`, `esm.ocean.cell_depth()`, `esm.ocean.mask.{wet_cell, n_wet_cells}`, `esm.ocean.params.{dt, cg_tol, cg_max_iter}`, `BarotropicSolver::{new, solve}` |
//! | `hamocc` | `esm.hamocc.step(&NoExchange, &esm.ocean)`, `esm.hamocc.tracers.len()` |
//! | `coupler` | read through `timers.atm_wait_s` / `timers.oce_wait_s` |
//! | `iosys` | `Snapshot` (`vars`, `payload_bytes`), `write_checkpoint`, `read_checkpoint`, `crc::crc32` |
//! | `mpisim` | `World::run`, `Comm::{rank, allreduce_sum}`, `heartbeat_round_traced`, `BeatConfig::default`, `BeatStatus::is_ok`, `RankTrace.events`, `TraceOp::Send` |
//! | `rayon` | `ThreadPoolBuilder::num_threads().build_global()`, `current_num_threads`, `parallel_drives`, `MIN_TASK_ITEMS`, `prelude::par_iter_mut` (`thread_busy_s` through `timers.*_busy_s`) |
//! | `dace-mini` | `suite::{dycore_program, suite_context, synthetic_topology, synthetic_data}`, `Sdfg::from_program`, `transforms::gh200_certified_pipeline`, `exec::{compile_certified, run_naive}`, `CompiledSdfg::{elide_transient_stores, run}`, `ExecGraph::{record_compiled, replay}`, `cost::{DomainSizes, CostInputs, analyze_compiled}` |
//! | `machine` | `Roofline::gh200_dace` (only as the cost model's argument) |

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use esm_core::{
    CoupledEsm, EsmConfig, ResilienceConfig, ResilienceReport, StateFaultPlan, SupervisorConfig,
};
use icongrid::{Field2, Grid, LandSeaMask, NoExchange};
use iosys::Snapshot;

// ---------------------------------------------------------------- rayon

/// Pin the global pool width of this process.
pub fn set_pool_width(width: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build_global()
        .expect("the pool shim's build_global cannot fail");
}

/// Pool width actually in force.
pub fn pool_width() -> usize {
    rayon::current_num_threads()
}

/// One drive over `2 * MIN_TASK_ITEMS` elements with an empty body: two
/// tasks, so at width 2 the pool really spawns.
pub fn empty_drive(buf: &mut [u8]) {
    use rayon::prelude::*;
    buf.par_iter_mut().for_each(|_| {});
}

/// Length of the buffer [`empty_drive`] wants (two tasks).
pub const EMPTY_DRIVE_LEN: usize = 2 * rayon::MIN_TASK_ITEMS;

// ------------------------------------------------------------- icongrid

/// A grid on its own, for timing the two halves of model set-up apart.
pub struct BareGrid(Grid);

pub fn build_grid(bisections: u32) -> BareGrid {
    BareGrid(Grid::build(bisections, icongrid::EARTH_RADIUS_M))
}

/// `LandSeaMask::synthetic_earth` at the demo land fraction; returns the
/// number of land cells so the work cannot be optimised away.
pub fn build_mask(grid: &BareGrid, seed: u64) -> usize {
    LandSeaMask::synthetic_earth(&grid.0, seed, EsmConfig::demo().land_fraction).n_land_cells()
}

// ----------------------------------------------------------------- core

/// Counters of every layer, read together at one call boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub simulated_s: f64,
    pub fast_side_s: f64,
    pub slow_side_s: f64,
    pub fast_busy_s: f64,
    pub slow_busy_s: f64,
    pub fast_wait_s: f64,
    pub slow_wait_s: f64,
    pub recorded_windows: u64,
    pub replayed_windows: u64,
    pub pool_drives: u64,
}

/// Sizes the rates are normalised by.
#[derive(Debug, Clone, Copy)]
pub struct Dims {
    pub n_cells: usize,
    pub n_wet_cells: usize,
    pub atm_levels: usize,
    pub oce_levels: usize,
    pub n_tracers: usize,
    pub coupling_s: f64,
    pub atm_steps_per_window: usize,
    pub oce_steps_per_window: usize,
}

/// The safety layers of `run_windows_resilient` that a config field turns
/// on and off. The guard round has no off switch: it is part of every
/// resilient window, at the minimum of two ranks.
#[derive(Debug, Clone, Copy)]
pub struct Safety {
    pub checkpoint_every: u64,
    pub audit_every: u64,
    pub diagnostics_every: u64,
}

impl Safety {
    /// `guarded_b4_w1` and `recover_b4_w1`: everything on.
    pub const ALL: Safety = Safety {
        checkpoint_every: 4,
        audit_every: 2,
        diagnostics_every: 1,
    };
    /// Guard round only; the driver still writes the initial and the final
    /// checkpoint, which no field disables.
    pub const GUARD_ONLY: Safety = Safety {
        checkpoint_every: 1 << 40,
        audit_every: 0,
        diagnostics_every: 0,
    };
}

/// A one-shot plan of in-state bit flips, with what the harness needs to
/// know about it to check the run afterwards.
pub struct FlipPlan {
    plan: Arc<StateFaultPlan>,
    /// Flips planned.
    pub planned: u64,
}

/// Flip classes `recover_b4_w1` cycles through, one per episode.
const FLIP_CLASSES: [&str; 3] = ["mantissa", "exponent", "quiescent"];

/// Prognostic state the mantissa and exponent classes flip bits in. Each
/// is carried from window to window (new = old + tendency), so a flipped
/// bit persists until a detector sees it; a flip in a diagnostic that the
/// next step overwrites would vanish unseen and make the work of a run
/// depend on where the seed happened to aim.
const FLIP_VARS: [&str; 4] = ["atm.delta", "atm.qv", "oce.temp", "oce.salt"];

/// splitmix64: the harness's own generator, so a seed gives the same plan
/// whatever the repository's generators do later.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FlipPlan {
    /// One flip before each of `windows` (1-based). The seed picks the
    /// buffer, the element and the bit; the class picks the bit range:
    /// mantissa bits 16..32 (a relative error of at most 2^-20, always in
    /// bounds), the eleven exponent bits, or a low mantissa bit of a
    /// never-written static buffer.
    pub fn planned(seed: u64, class: usize, windows: &[u64]) -> FlipPlan {
        use esm_core::FlipTarget;
        let class = FLIP_CLASSES[class % FLIP_CLASSES.len()];
        let mut rng = seed;
        let mut plan = StateFaultPlan::new();
        for &w in windows {
            let (pick, elem, bit) = (splitmix(&mut rng), splitmix(&mut rng), splitmix(&mut rng));
            let var = FLIP_VARS[(pick % FLIP_VARS.len() as u64) as usize].to_string();
            let (target, bit) = match class {
                "quiescent" => (FlipTarget::QuiescentIndex(pick), (bit % 32) as u8),
                "exponent" => (FlipTarget::Var(var), 52 + (bit % 11) as u8),
                _ => (FlipTarget::Var(var), 16 + (bit % 16) as u8),
            };
            plan = plan.flip(w, target, elem, bit);
        }
        FlipPlan {
            plan: Arc::new(plan),
            planned: windows.len() as u64,
        }
    }
}

/// What a resilient or supervised call reported.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub windows_run: u64,
    pub checkpoints_written: u64,
    pub audit_replays: u64,
    pub rollbacks: u64,
    pub replayed_windows: u64,
    pub generation_fallbacks: u64,
    pub graph_invalidations: u64,
    pub sdc_injected: u64,
    pub sdc_detected: u64,
    pub sdc_false_positives: u64,
    pub protocol_rounds: u64,
    pub protocol_violations: u64,
    pub records_shed: u64,
}

impl Report {
    /// Add another call's counts to these.
    pub fn add(&mut self, o: &Report) {
        self.windows_run += o.windows_run;
        self.checkpoints_written += o.checkpoints_written;
        self.audit_replays += o.audit_replays;
        self.rollbacks += o.rollbacks;
        self.replayed_windows += o.replayed_windows;
        self.generation_fallbacks += o.generation_fallbacks;
        self.graph_invalidations += o.graph_invalidations;
        self.sdc_injected += o.sdc_injected;
        self.sdc_detected += o.sdc_detected;
        self.sdc_false_positives += o.sdc_false_positives;
        self.protocol_rounds += o.protocol_rounds;
        self.protocol_violations += o.protocol_violations;
        self.records_shed += o.records_shed;
    }
}

impl From<ResilienceReport> for Report {
    fn from(r: ResilienceReport) -> Report {
        Report {
            windows_run: r.windows_run,
            checkpoints_written: r.checkpoints_written,
            audit_replays: r.audit_replays,
            rollbacks: r.rollbacks,
            replayed_windows: r.replayed_windows,
            generation_fallbacks: r.generation_fallbacks,
            graph_invalidations: r.graph_invalidations,
            sdc_injected: r.sdc_injected,
            sdc_detected: r.sdc_detected_bounds + r.sdc_detected_checksum + r.sdc_detected_audit,
            sdc_false_positives: r.sdc_false_positives,
            protocol_rounds: r.protocol_rounds,
            protocol_violations: r.protocol_violations.len() as u64,
            records_shed: r.records_shed,
        }
    }
}

/// The program under test: one coupled model.
pub struct Model {
    esm: CoupledEsm,
}

/// Full model state, as the checkpoint layer sees it.
pub struct State(Snapshot);

impl Model {
    /// `EsmConfig::demo()` with only `bisections` and `seed` overridden.
    pub fn new(bisections: u32, seed: u64) -> Model {
        let cfg = EsmConfig {
            bisections,
            seed,
            ..EsmConfig::demo()
        };
        Model {
            esm: CoupledEsm::new(cfg),
        }
    }

    /// Turn window record/replay off (`ReplayConfig.enabled`); on by default.
    pub fn disable_replay(&mut self) {
        self.esm.replay.cfg.enabled = false;
    }

    pub fn dims(&self) -> Dims {
        Dims {
            n_cells: self.esm.grid.n_cells,
            n_wet_cells: self.esm.ocean.mask.n_wet_cells(),
            atm_levels: self.esm.cfg.atm_levels,
            oce_levels: self.esm.cfg.oce_levels,
            n_tracers: self.esm.hamocc.tracers.len(),
            coupling_s: self.esm.cfg.coupling_s,
            atm_steps_per_window: self.esm.cfg.atm_steps_per_window(),
            oce_steps_per_window: self.esm.cfg.oce_steps_per_window(),
        }
    }

    pub fn counters(&self) -> Counters {
        let t = &self.esm.timers;
        let r = &self.esm.replay.stats;
        Counters {
            simulated_s: t.simulated_s,
            fast_side_s: t.atm_land_s,
            slow_side_s: t.ocean_bgc_s,
            fast_busy_s: t.atm_land_busy_s,
            slow_busy_s: t.ocean_bgc_busy_s,
            fast_wait_s: t.atm_wait_s,
            slow_wait_s: t.oce_wait_s,
            recorded_windows: r.recorded_windows,
            replayed_windows: r.replayed_windows,
            pool_drives: rayon::parallel_drives(),
        }
    }

    pub fn run_windows(&mut self, n: usize, concurrent: bool) -> Result<(), String> {
        self.esm
            .run_windows(n, concurrent)
            .map_err(|e| e.to_string())
    }

    /// `run_windows_resilient`, sequential, two guard ranks, no comm faults.
    /// `corrupt_generation` is damaged on disk right after it is written.
    pub fn run_resilient(
        &mut self,
        n_windows: u64,
        dir: &Path,
        safety: Safety,
        flips: Option<&FlipPlan>,
        corrupt_generation: Option<u64>,
    ) -> Result<Report, String> {
        let rcfg = ResilienceConfig {
            checkpoint_every: safety.checkpoint_every,
            audit_every: safety.audit_every,
            diagnostics_every: safety.diagnostics_every,
            guard_ranks: 2,
            corrupt_generations: corrupt_generation.into_iter().collect(),
            sdc: flips.map(|f| f.plan.clone()),
            ..ResilienceConfig::default()
        };
        self.esm
            .run_windows_resilient(n_windows, false, dir, &rcfg, None)
            .map(Report::from)
            .map_err(|e| e.to_string())
    }

    /// `run_windows_supervised` at its default config, no faults.
    pub fn run_supervised(&mut self, n_windows: u64, dir: &Path) -> Result<Report, String> {
        self.esm
            .run_windows_supervised(n_windows, dir, &SupervisorConfig::default(), None)
            .map(Report::from)
            .map_err(|e| e.to_string())
    }

    pub fn snapshot(&self) -> State {
        State(self.esm.snapshot())
    }

    pub fn restore(&mut self, s: &State) {
        self.esm.restore(&s.0);
    }

    /// Total carbon (kg C) and total water (kg) over all components.
    pub fn budgets(&self) -> (f64, f64) {
        (
            self.esm.carbon_budget().total(),
            self.esm.water_budget().total(),
        )
    }

    // ---- the four components, stepped directly on the current state.

    pub fn step_atmo(&mut self) {
        self.esm.atm.step(&NoExchange);
    }

    pub fn step_land(&mut self) {
        self.esm.land.step();
    }

    /// One ocean step; returns the CG iterations of its barotropic solve.
    pub fn step_ocean(&mut self) -> usize {
        let n = self.esm.grid.n_cells;
        self.esm.ocean.step(&NoExchange, n);
        self.esm.ocean.last_cg.iterations
    }

    pub fn step_hamocc(&mut self) {
        self.esm.hamocc.step(&NoExchange, &self.esm.ocean);
    }

    pub fn land_kernels_per_step(&self) -> usize {
        self.esm.land.recorder.kernels_per_step()
    }

    /// A barotropic solver assembled like the ocean's own (same depths,
    /// mask, time step, tolerance and iteration cap) and a smooth
    /// right-hand side; `solve()` on it is one cold-start CG solve.
    pub fn cg_probe(&self) -> CgProbe {
        let o = &self.esm.ocean;
        let g = self.esm.grid.clone();
        let solver = ocean::BarotropicSolver::new(
            g.as_ref(),
            o.params.dt,
            o.cell_depth(),
            o.mask.wet_cell.clone(),
            o.params.cg_tol,
            o.params.cg_max_iter,
        );
        let wet = &o.mask.wet_cell;
        let rhs = Field2::from_fn(g.n_cells, |c| {
            if wet[c] {
                g.cell_area[c] * g.cell_center[c].x
            } else {
                0.0
            }
        });
        CgProbe {
            grid: g,
            solver,
            rhs,
        }
    }
}

pub struct CgProbe {
    grid: Arc<Grid>,
    solver: ocean::BarotropicSolver,
    rhs: Field2,
}

impl CgProbe {
    /// One solve from a zero first guess; returns (iterations, converged).
    pub fn solve(&mut self) -> (usize, bool) {
        let g = self.grid.as_ref();
        let mut eta = Field2::zeros(g.n_cells);
        let stats = self
            .solver
            .solve(g, &NoExchange, &self.rhs, &mut eta, g.n_cells);
        (stats.iterations, stats.converged)
    }
}

impl State {
    pub fn payload_bytes(&self) -> usize {
        self.0.payload_bytes()
    }

    /// True when every value of every variable is finite.
    pub fn all_finite(&self) -> bool {
        self.0
            .vars
            .iter()
            .all(|(_, d)| d.iter().all(|v| v.is_finite()))
    }

    /// Name of the first variable whose bits differ from `other`'s.
    pub fn first_bit_difference(&self, other: &State) -> Option<String> {
        if self.0.vars.len() != other.0.vars.len() {
            return Some("<variable count>".to_string());
        }
        for ((name, a), (_, b)) in self.0.vars.iter().zip(&other.0.vars) {
            if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits()) {
                return Some(name.clone());
            }
        }
        None
    }

    /// One CRC-32 over all variables, in snapshot order.
    pub fn crc(&self) -> u32 {
        self.0.vars.iter().fold(0u32, |acc, (_, d)| {
            acc.rotate_left(1) ^ esm_core::sdc::crc_f64(d)
        })
    }
}

// ---------------------------------------------------------------- iosys

/// Shard files and reader groups of the checkpoint probe: the resilient
/// driver's own defaults, so the probe times what `guarded_b4_w1` pays.
pub fn checkpoint_shape() -> (usize, usize) {
    let d = ResilienceConfig::default();
    (d.n_files, d.n_readers)
}

pub fn write_checkpoint(dir: &Path, state: &State, n_files: usize) -> Result<(), String> {
    iosys::write_checkpoint(dir, "probe", &state.0, n_files)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

pub fn read_checkpoint(dir: &Path, n_readers: usize) -> Result<State, String> {
    iosys::read_checkpoint(dir, "probe", n_readers)
        .map(State)
        .map_err(|e| e.to_string())
}

pub fn crc32(bytes: &[u8]) -> u32 {
    iosys::crc::crc32(bytes)
}

// --------------------------------------------------------------- mpisim

/// `World::run` on two ranks with an empty body: spawn, join, nothing else.
pub fn world_run_empty() {
    mpisim::World::run(2, |comm| comm.rank());
}

/// Two ranks, `reps` scalar allreduces inside one world; returns the
/// seconds per allreduce as rank 0 timed them, spawn and join excluded.
pub fn allreduce_seconds(reps: usize) -> f64 {
    let out = mpisim::World::run(2, |comm| {
        let t0 = Instant::now();
        let mut acc = 0.0;
        for _ in 0..reps {
            acc += comm.allreduce_sum(comm.rank() as f64 + 1.0);
        }
        (acc, t0.elapsed().as_secs_f64() / reps as f64)
    });
    assert!(
        out.iter().all(|&(s, _)| s == 3.0 * reps as f64),
        "allreduce result is wrong"
    );
    out[0].1
}

/// One fault-free heartbeat round over the supervisor's three ranks
/// (monitor + two component groups); returns messages sent in the round.
pub fn heartbeat_round(window: u64) -> u64 {
    let payloads = vec![Vec::new(), vec![window as f64], vec![window as f64]];
    let (status, traces) = mpisim::heartbeat_round_traced(
        3,
        window,
        &mpisim::BeatConfig::default(),
        None,
        &[false; 3],
        &payloads,
    );
    assert!(
        status.iter().all(|s| s.is_ok()),
        "a fault-free heartbeat round missed a beat"
    );
    traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.op, mpisim::TraceOp::Send { .. }))
        .count() as u64
}

// ------------------------------------------------------------ dace-mini

/// The §5.2 dycore study: the source program, its certified optimised
/// graph, and one topology and data set to run them on.
pub struct Dycore {
    prog: dace_mini::Program,
    opt: dace_mini::Sdfg,
    report: dace_mini::AnalysisReport,
    elided: Vec<String>,
    topo: dace_mini::TopologyContext,
    data: dace_mini::DataContext,
    nlev: usize,
    hctx: dace_mini::AnalysisContext,
}

impl Dycore {
    pub fn new(n_cells: usize, nlev: usize, seed: u64) -> Dycore {
        use dace_mini::{suite, transforms};
        let prog = suite::dycore_program();
        let sdfg = dace_mini::Sdfg::from_program("dycore", &prog);
        let ctx = suite::suite_context();
        let (opt, report, hoist) = transforms::gh200_certified_pipeline(&sdfg, &ctx);
        assert!(report.is_clean(), "the dycore must certify");
        let topo = suite::synthetic_topology(n_cells);
        let data = suite::synthetic_data(&topo, nlev, seed);
        Dycore {
            prog,
            opt,
            report,
            elided: hoist.transient_names(),
            hctx: hoist.declare(&ctx),
            topo,
            data,
            nlev,
        }
    }

    pub fn compile(&self) -> dace_mini::exec::CompiledSdfg {
        let mut c = dace_mini::exec::compile_certified(&self.opt, &self.report);
        c.elide_transient_stores(&self.elided);
        c
    }

    pub fn run_naive(&mut self) {
        dace_mini::exec::run_naive(&self.prog, &self.topo, &mut self.data);
    }

    /// One compiled (eager) run; returns its dispatch count.
    pub fn run_compiled(&mut self, compiled: &dace_mini::exec::CompiledSdfg) -> u64 {
        compiled.run(&self.topo, &mut self.data).dispatched_tasks
    }

    pub fn record(&mut self, compiled: dace_mini::exec::CompiledSdfg) -> dace_mini::ExecGraph {
        dace_mini::ExecGraph::record_compiled(
            "dycore",
            compiled,
            &self.report,
            &self.topo,
            &mut self.data,
        )
        .0
    }

    pub fn replay(&mut self, graph: &mut dace_mini::ExecGraph) {
        graph
            .replay(&self.topo, &mut self.data)
            .expect("shapes are unchanged since recording");
    }

    /// Bytes one compiled run moves according to `cost.rs` — computed from
    /// array sizes, so cache misses are not in it.
    pub fn computed_bytes_per_run(&self) -> f64 {
        use dace_mini::cost;
        let sizes = cost::DomainSizes::new(self.nlev)
            .with("cells", self.topo.domain_size("cells"))
            .with("edges", self.topo.domain_size("edges"));
        let inputs = cost::CostInputs {
            ctx: &self.hctx,
            sizes: &sizes,
            elided_stores: &self.elided,
        };
        cost::analyze_compiled(&self.opt, &inputs, &machine::Roofline::gh200_dace()).bytes
    }
}

// -------------------------------------------------------------- scratch

/// A directory for checkpoints, inside the build directory of this
/// executable (never the system temp directory: a benchmark run writes only
/// inside its checkout). Removed on drop, on success and on failure.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let base = exe
            .parent()
            .ok_or("the executable has no parent directory")?;
        // Numbered, so that two scratch directories alive at once in one
        // process never share a path.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = base.join(format!("perf_scratch_{}_{n}_{tag}", std::process::id()));
        // A killed earlier run with the same pid may have left one behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
