//! The traced run of one workload: every call into a layer wrapped in a
//! span, the layer counters read at the same boundaries, and the per-layer
//! metrics that come out of it.
//!
//! Unlike the untraced run, the traced run is fixed by count, not by time:
//! the counts below are what a 10-second run does, scaled by
//! `--seconds / 10`. Exact counts therefore repeat from run to run.

use crate::host;
use crate::layers::{self, Dycore, Model, Safety, Scratch, State};
use crate::spec::{Kind, Workload, EPISODE_WINDOWS};
use crate::stats::{low_decile, median};
use crate::trace::{self, Tracer};
use crate::workloads::Runner;
use serde_json::Value;
use std::time::Instant;

/// Cells and levels of the dace-mini dycore study.
const DYCORE_CELLS: usize = 2_000;
const DYCORE_LEVELS: usize = 10;
/// Bytes the CRC probe hashes.
const CRC_PROBE_BYTES: usize = 16 << 20;

pub struct Traced {
    values: Vec<(&'static str, f64)>,
    /// Numbers only some workloads yield (the marginal cost of each safety
    /// layer, on `guarded_b4_w1`): name, value, unit.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub spans: Value,
    by_layer: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    /// Atmosphere and ocean steps per coupling window.
    steps: (usize, usize),
}

impl Traced {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn get(&self, name: &str) -> f64 {
        self.value(name).unwrap_or(f64::NAN)
    }

    /// The layer table and its residual, the marginal-cost table where
    /// there is one, and self time by layer.
    pub fn print_tables(&self, w: &Workload) {
        for n in &self.notes {
            println!("  note: {n}");
        }
        if !w.concurrent {
            // Two readings of one window. The program's own timers split
            // it into its two sides; the component steps, timed from
            // outside and multiplied by their steps per window, split the
            // sides further. What neither accounts for is the residual.
            let window = self.get("core.fast_side_s_per_window")
                + self.get("core.slow_side_s_per_window")
                + self.get("core.window_residual_s");
            let row = |label: &str, s: f64| {
                println!("    {label:<38} {s:>10.6}  {:>5.1} %", 100.0 * s / window);
            };
            println!("  layer table, seconds per window the run advanced:");
            row(
                "fast side (timers.atm_land_s)",
                self.get("core.fast_side_s_per_window"),
            );
            row(
                "slow side (timers.ocean_bgc_s)",
                self.get("core.slow_side_s_per_window"),
            );
            row(
                "residual (window - both sides)",
                self.get("core.window_residual_s"),
            );
            row("window", window);
            if w.kind != Kind::Guarded && w.kind != Kind::Recover {
                let (fast_steps, slow_steps) = (self.steps.0 as f64, self.steps.1 as f64);
                let parts = [
                    ("atmo", fast_steps * self.get("atmo.step_s_p50")),
                    ("land", fast_steps * self.get("land.step_s_p50")),
                    ("ocean", slow_steps * self.get("ocean.step_s_p50")),
                    ("hamocc", slow_steps * self.get("hamocc.step_s_p50")),
                ];
                println!("  by component (step p50 x steps per window):");
                for (label, s) in parts {
                    row(label, s);
                }
                let sum: f64 = parts.iter().map(|(_, s)| s).sum();
                row("residual (window - components)", window - sum);
            }
        }
        if !self.extra.is_empty() {
            println!("  marginal cost of each safety layer, seconds per window:");
            for (name, v, unit) in &self.extra {
                println!("    {name:<34} {v:>10.6} {unit}");
            }
        }
        println!("  self time by layer (span minus its children), seconds:");
        for (layer, s) in &self.by_layer {
            println!("    {layer:<34} {s:>10.6}");
        }
    }
}

/// One grid under several settings, each a model of its own.
struct Variant {
    name: &'static str,
    width: usize,
    concurrent: bool,
    replay: bool,
}

/// Median seconds per window of each variant, over `rounds` rounds. A round
/// runs one window on every variant in turn, so that a slow phase of the
/// host hits all of them alike and leaves their ratios alone.
fn variant_windows_p50(
    tr: &mut Tracer,
    w: &Workload,
    seed: u64,
    variants: &[Variant],
    rounds: usize,
) -> Result<Vec<f64>, String> {
    let mut models = Vec::new();
    for v in variants {
        layers::set_pool_width(v.width);
        let mut m = Model::new(w.bisections, seed);
        if !v.replay {
            m.disable_replay();
        }
        m.run_windows(2, v.concurrent)?; // the recording window and one more
        models.push(m);
    }
    let mut samples = vec![Vec::with_capacity(rounds); variants.len()];
    for _ in 0..rounds {
        for ((v, m), s) in variants.iter().zip(&mut models).zip(&mut samples) {
            layers::set_pool_width(v.width);
            let (r, dt) = tr.timed("core", v.name, || m.run_windows(1, v.concurrent));
            r?;
            s.push(dt);
        }
    }
    layers::set_pool_width(w.pool_width);
    Ok(samples.iter().map(|s| median(s)).collect())
}

/// What every probe shares: the tracer, the metrics so far, the tally of
/// operations, and the scale of the repetition counts.
struct Probe {
    tr: Tracer,
    values: Vec<(&'static str, f64)>,
    notes: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
    scale: f64,
}

impl Probe {
    /// `base` repetitions are what a 10-second run does.
    fn reps(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Median seconds of `base` (scaled) repetitions of `f`, each in a span.
    fn p50<T>(
        &mut self,
        base: usize,
        layer: &'static str,
        name: &'static str,
        mut f: impl FnMut() -> T,
    ) -> (f64, Vec<T>) {
        let (mut secs, mut outs) = (Vec::new(), Vec::new());
        for _ in 0..self.reps(base) {
            let (out, s) = self.tr.timed(layer, name, &mut f);
            secs.push(s);
            outs.push(out);
        }
        (median(&secs), outs)
    }
}

pub fn traced_run(w: &'static Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut p = Probe {
        tr: Tracer::new(true),
        values: Vec::new(),
        notes: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        scale: seconds / 10.0,
    };
    probe_icongrid(&mut p, w, seed);
    let (mut runner, _) = Runner::set_up(w, seed, &mut p.tr)?;
    let dims = runner.model.dims();
    let window_s = probe_own_calls(&mut p, &mut runner)?;
    probe_trace_overhead(&mut p, &mut runner);
    let state = probe_components(&mut p, &mut runner.model);
    probe_iosys(&mut p, &state)?;
    drop((state, runner));
    probe_mpisim(&mut p);
    probe_pool_and_variants(&mut p, w, seed)?;
    let computed_gbps = probe_dycore(&mut p, seed);
    probe_host(&mut p, computed_gbps);
    let extra = if w.kind == Kind::Guarded {
        marginal_costs(&mut p, w, seed, window_s)?
    } else {
        Vec::new()
    };
    Ok(Traced {
        by_layer: trace::self_seconds_by_layer(p.tr.spans()),
        spans: p.tr.to_json(w.name),
        values: p.values,
        extra,
        attempted: p.attempted,
        failures: p.failures,
        notes: p.notes,
        steps: (dims.atm_steps_per_window, dims.oce_steps_per_window),
    })
}

/// icongrid: the two halves of model set-up, each on its own.
fn probe_icongrid(p: &mut Probe, w: &Workload, seed: u64) {
    let (grid, build_s) = p.tr.timed("icongrid", "Grid::build", || {
        layers::build_grid(w.bisections)
    });
    let (_, mask_s) = p.tr.timed("icongrid", "LandSeaMask::synthetic_earth", || {
        layers::build_mask(&grid, seed)
    });
    p.put("icongrid.build_s", build_s);
    p.put("icongrid.mask_s", mask_s);
}

/// The workload's own calls with the tracer on, and the layer counters read
/// before and after them. Returns the seconds per window the run advanced.
fn probe_own_calls(p: &mut Probe, runner: &mut Runner) -> Result<f64, String> {
    let w = runner.workload;
    let calls = match w.kind {
        Kind::Bare { windows_per_call } => {
            runner.call(&mut p.tr).error.map_or(Ok(()), Err)?; // warm-up
            (p.reps(20) / windows_per_call).max(1)
        }
        Kind::Guarded => p.reps(2),
        Kind::Recover => p.reps(3), // one episode of each flip class
    };
    let c0 = runner.model.counters();
    let mut wall_s = 0.0;
    let mut useful = 0u64;
    for _ in 0..calls {
        let o = runner.call(&mut p.tr);
        wall_s += o.wall_s;
        useful += o.windows;
        p.check("traced call", o.error.map_or(Ok(()), Err));
    }
    let c1 = runner.model.counters();
    let per = |x: f64| x / useful as f64;
    let fast = per(c1.fast_side_s - c0.fast_side_s);
    let slow = per(c1.slow_side_s - c0.slow_side_s);
    let fast_wait = per(c1.fast_wait_s - c0.fast_wait_s);
    let slow_wait = per(c1.slow_wait_s - c0.slow_wait_s);
    let window = per(wall_s);
    // Sequentially the two sides add up to the window; concurrently they
    // overlap, and the window is the longer side with its waits.
    let sides = if w.concurrent {
        (fast + fast_wait).max(slow + slow_wait)
    } else {
        fast + slow
    };
    let executed = ((c1.simulated_s - c0.simulated_s) / runner.model.dims().coupling_s).round();
    let replayed = (c1.replayed_windows - c0.replayed_windows) as f64;
    let recorded = (c1.recorded_windows - c0.recorded_windows) as f64;
    let busy = (c1.fast_busy_s - c0.fast_busy_s) + (c1.slow_busy_s - c0.slow_busy_s);
    let sides_wall = (c1.fast_side_s - c0.fast_side_s) + (c1.slow_side_s - c0.slow_side_s);
    p.put("coupler.fast_wait_s_per_window", fast_wait);
    p.put("coupler.slow_wait_s_per_window", slow_wait);
    p.put("core.fast_side_s_per_window", fast);
    p.put("core.slow_side_s_per_window", slow);
    p.put("core.window_residual_s", window - sides);
    p.put(
        "core.replay_hit_frac",
        replayed / (replayed + recorded).max(1.0),
    );
    p.put(
        "rayon.drives_per_window",
        (c1.pool_drives - c0.pool_drives) as f64 / executed,
    );
    p.put(
        "rayon.utilization",
        busy / (sides_wall * w.pool_width as f64),
    );
    let t = &runner.totals;
    for (name, v) in [
        ("core.checkpoints_written", t.checkpoints_written),
        ("core.audit_replays", t.audit_replays),
        ("core.rollbacks", t.rollbacks),
        ("core.replayed_windows", t.replayed_windows),
        ("core.generation_fallbacks", t.generation_fallbacks),
        ("core.graph_invalidations", t.graph_invalidations),
        ("core.sdc_injected", t.sdc_injected),
        ("core.sdc_detected", t.sdc_detected),
        ("core.protocol_rounds", t.protocol_rounds),
        ("iosys.diag_records_shed", t.records_shed),
    ] {
        p.put(name, v as f64);
    }
    // Windows that advanced the run, over all windows executed: the rest
    // were replayed after a rollback or re-run by an audit.
    p.put("core.useful_window_frac", useful as f64 / executed);
    Ok(window)
}

/// The same one-window call with the tracer on and off, alternating so that
/// a drift of the host hits both alike.
fn probe_trace_overhead(p: &mut Probe, runner: &mut Runner) {
    let concurrent = runner.workload.concurrent;
    let mut off = Tracer::new(false);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for _ in 0..p.reps(8) {
        for (tracer, samples) in [(&mut p.tr, &mut on_s), (&mut off, &mut off_s)] {
            let open = tracer.begin("core", "run_windows");
            let t0 = Instant::now();
            let r = runner.model.run_windows(1, concurrent);
            samples.push(t0.elapsed().as_secs_f64());
            tracer.end_with(open, &[("windows", 1.0)]);
            if let Err(e) = r {
                p.failures.push(format!("overhead call: {e}"));
            }
            p.attempted += 1;
        }
    }
    // The low decile of each side: the difference looked for is far below
    // what a neighbour on the host does to a median.
    let (on, off) = (low_decile(&on_s), low_decile(&off_s));
    p.put("bench.trace_overhead_frac", (on - off) / off);
}

/// Snapshot, then the four components stepped directly on the state the run
/// reached, then restore, which puts that state back. Returns the state.
fn probe_components(p: &mut Probe, model: &mut Model) -> State {
    let dims = model.dims();
    // One state kept at a time: at 20 480 cells each is 65 MB.
    let mut last = None;
    let (snapshot_s, _) = p.p50(5, "core", "snapshot", || last = Some(model.snapshot()));
    let state = last.expect("at least one repetition");
    p.put("core.snapshot_s_p50", snapshot_s);

    let (atmo_s, _) = p.p50(8, "atmo", "atm.step", || model.step_atmo());
    let (land_s, _) = p.p50(8, "land", "land.step", || model.step_land());
    let (ocean_s, cg_iters) = p.p50(4, "ocean", "ocean.step", || model.step_ocean());
    let (hamocc_s, _) = p.p50(4, "hamocc", "hamocc.step", || model.step_hamocc());
    let mut cg = model.cg_probe();
    let (cg_s, solves) = p.p50(3, "ocean", "BarotropicSolver::solve", || cg.solve());
    let converged = solves.iter().all(|&(_, ok)| ok);
    p.check(
        "barotropic solve converges",
        if converged {
            Ok(())
        } else {
            Err("hit the iteration cap".to_string())
        },
    );
    p.put("atmo.step_s_p50", atmo_s);
    p.put(
        "atmo.cell_levels_per_s",
        (dims.n_cells * dims.atm_levels) as f64 / atmo_s,
    );
    p.put("land.step_s_p50", land_s);
    p.put(
        "land.kernels_per_step",
        model.land_kernels_per_step() as f64,
    );
    p.put("ocean.step_s_p50", ocean_s);
    p.put("ocean.cg_solve_s_p50", cg_s);
    p.put(
        "ocean.cg_iters_per_step",
        cg_iters.iter().sum::<usize>() as f64 / cg_iters.len() as f64,
    );
    p.put("hamocc.step_s_p50", hamocc_s);
    p.put(
        "hamocc.cell_tracers_per_s",
        (dims.n_wet_cells * dims.oce_levels * dims.n_tracers) as f64 / hamocc_s,
    );

    let (restore_s, _) = p.p50(5, "core", "restore", || model.restore(&state));
    p.put("core.restore_s_p50", restore_s);
    p.check(
        "restore puts the snapshot back bit for bit",
        same_bits(&model.snapshot(), &state),
    );
    p.check(
        "state finite",
        if state.all_finite() {
            Ok(())
        } else {
            Err("a state value is not finite".to_string())
        },
    );
    state
}

fn same_bits(a: &State, b: &State) -> Result<(), String> {
    a.first_bit_difference(b)
        .map_or(Ok(()), |var| Err(format!("{var} differs")))
}

/// iosys: the state through the checkpoint files, both ways, and the CRC.
fn probe_iosys(p: &mut Probe, state: &State) -> Result<(), String> {
    let scratch = Scratch::new("probe")?;
    let (n_files, n_readers) = layers::checkpoint_shape();
    let bytes = state.payload_bytes() as f64;
    let (write_s, writes) = p.p50(3, "iosys", "write_checkpoint", || {
        layers::write_checkpoint(scratch.path(), state, n_files)
    });
    let mut back = None;
    let (read_s, _) = p.p50(3, "iosys", "read_checkpoint", || {
        back = Some(layers::read_checkpoint(scratch.path(), n_readers));
    });
    let round_trip = writes
        .into_iter()
        .collect::<Result<Vec<()>, String>>()
        .and_then(|_| back.expect("at least one repetition"))
        .and_then(|back| same_bits(&back, state));
    p.check("checkpoint reads back bit for bit", round_trip);
    let blob = vec![0xA5u8; CRC_PROBE_BYTES];
    let (crc_s, _) = p.p50(3, "iosys", "crc32", || layers::crc32(&blob));
    p.put("iosys.ckpt_bytes", bytes);
    p.put("iosys.ckpt_write_s_p50", write_s);
    p.put("iosys.ckpt_write_MBps", bytes / write_s / 1e6);
    p.put("iosys.ckpt_read_s_p50", read_s);
    p.put("iosys.ckpt_read_MBps", bytes / read_s / 1e6);
    p.put("iosys.crc32_MBps", CRC_PROBE_BYTES as f64 / crc_s / 1e6);
    Ok(())
}

/// mpisim: what one guard or heartbeat round is made of.
fn probe_mpisim(p: &mut Probe) {
    let (world_s, _) = p.p50(50, "mpisim", "World::run", layers::world_run_empty);
    let n = p.reps(200);
    let (allreduce_s, _) =
        p.tr.timed("mpisim", "allreduce_sum", || layers::allreduce_seconds(n));
    let mut round = 0;
    let (beat_s, msgs) = p.p50(30, "mpisim", "heartbeat_round", || {
        round += 1;
        layers::heartbeat_round(round)
    });
    p.put("mpisim.world_run_s_p50", world_s);
    p.put("mpisim.allreduce_s_p50", allreduce_s);
    p.put("mpisim.heartbeat_round_s_p50", beat_s);
    p.put("mpisim.msgs_per_round", msgs[0] as f64);
}

/// rayon: an empty drive at width 2, where the pool really spawns; then the
/// workload's grid under the other settings — eager against replayed
/// windows, concurrent against sequential coupling, width 2 against 1.
fn probe_pool_and_variants(p: &mut Probe, w: &Workload, seed: u64) -> Result<(), String> {
    layers::set_pool_width(2);
    let mut buf = vec![0u8; layers::EMPTY_DRIVE_LEN];
    let (drive_s, _) = p.p50(200, "rayon", "empty_drive", || {
        layers::empty_drive(&mut buf)
    });
    layers::set_pool_width(w.pool_width);
    p.put("rayon.empty_drive_s_p50", drive_s);

    const VARIANTS: [Variant; 4] = [
        Variant {
            name: "windows:replay",
            width: 1,
            concurrent: false,
            replay: true,
        },
        Variant {
            name: "windows:eager",
            width: 1,
            concurrent: false,
            replay: false,
        },
        Variant {
            name: "windows:concurrent",
            width: 1,
            concurrent: true,
            replay: true,
        },
        Variant {
            name: "windows:width2",
            width: 2,
            concurrent: false,
            replay: true,
        },
    ];
    let rounds = p.reps(6);
    let p50 = variant_windows_p50(&mut p.tr, w, seed, &VARIANTS, rounds)?;
    let (replay_s, eager_s, conc_s, w2_s) = (p50[0], p50[1], p50[2], p50[3]);
    p.put("core.replay_window_s_p50", replay_s);
    p.put("core.eager_window_s_p50", eager_s);
    p.put("coupler.conc_speedup", replay_s / conc_s);
    p.put("rayon.speedup_w2", replay_s / w2_s);
    Ok(())
}

/// dace-mini: the section 5.2 dycore study (atmo does not run through it,
/// so nothing here moves tau today). Returns the computed GB/s.
fn probe_dycore(p: &mut Probe, seed: u64) -> f64 {
    let mut dy = Dycore::new(DYCORE_CELLS, DYCORE_LEVELS, seed);
    let (compiled, compile_s) = p.tr.timed("dace-mini", "compile", || dy.compile());
    let (naive_s, _) = p.p50(5, "dace-mini", "run_naive", || dy.run_naive());
    let (compiled_s, dispatches) = p.p50(10, "dace-mini", "compiled.run", || {
        dy.run_compiled(&compiled)
    });
    let mut graph = dy.record(compiled);
    let (graph_s, _) = p.p50(10, "dace-mini", "graph.replay", || dy.replay(&mut graph));
    let computed_bytes = dy.computed_bytes_per_run();
    let computed_gbps = computed_bytes / compiled_s / 1e9;
    p.put("dace-mini.compile_s", compile_s);
    p.put("dace-mini.naive_run_s_p50", naive_s);
    p.put("dace-mini.compiled_run_s_p50", compiled_s);
    p.put("dace-mini.graph_replay_s_p50", graph_s);
    p.put("dace-mini.dispatches_per_run", dispatches[0] as f64);
    p.put("dace-mini.computed_bytes_per_run", computed_bytes);
    p.put("dace-mini.computed_GBps", computed_gbps);
    computed_gbps
}

/// host: the bandwidth the kernels above are measured against, taken in the
/// same run. Omitted, never estimated, when the arrays (four times the
/// last-level cache each) cannot be had.
fn probe_host(p: &mut Probe, computed_gbps: f64) {
    p.put("host.threads", host::threads() as f64);
    let Some(llc) = host::llc_bytes() else {
        p.notes.push(
            "host.llc_bytes, host.stream_triad_GBps and machine.roofline_frac omitted: \
                      sysfs lists no cache size"
                .to_string(),
        );
        return;
    };
    p.put("host.llc_bytes", llc as f64);
    let passes = p.reps(3);
    match p
        .tr
        .timed("host", "stream_triad", || host::stream_triad(llc, passes))
        .0
    {
        Some(t) => {
            p.notes.push(format!(
                "triad arrays are {} MiB each, the last-level cache is {} MiB",
                t.array_bytes >> 20,
                llc >> 20
            ));
            p.put("host.stream_triad_GBps", t.gbps);
            p.put("machine.roofline_frac", computed_gbps / t.gbps);
        }
        None => p.notes.push(format!(
            "host.stream_triad_GBps and machine.roofline_frac omitted: three arrays of {} MiB \
             cannot be allocated",
            (4 * llc) >> 20
        )),
    }
}

/// The same ten-window episode with one config field off and on; the
/// difference, per window, is what the layer behind the field costs (one
/// episode each: an indication, not a median). The
/// guard round has no field: its row is a guard-only resilient episode
/// against bare `run_windows`, and it carries the initial and the final
/// checkpoint that no field disables. `supervised` is a no-fault
/// `run_windows_supervised` episode against the same bare windows; it is
/// measured here only, since its timed path is heartbeat deadlines.
fn marginal_costs(
    p: &mut Probe,
    w: &Workload,
    seed: u64,
    guarded_window_s: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let scratch = Scratch::new("marginal")?;
    let mut model = Model::new(w.bisections, seed);
    model.run_windows(1, false)?;
    enum Driver {
        Bare,
        Resilient(Safety),
        Supervised,
    }
    let mut episode = |name: &'static str, driver: Driver| {
        let dir = scratch.sub("episode")?;
        let (r, s) = p.tr.timed("core", name, || match driver {
            Driver::Bare => model.run_windows(EPISODE_WINDOWS as usize, false),
            Driver::Resilient(safety) => model
                .run_resilient(EPISODE_WINDOWS, &dir, safety, None, None)
                .map(|_| ()),
            Driver::Supervised => model.run_supervised(EPISODE_WINDOWS, &dir).map(|_| ()),
        });
        p.check(name, r);
        Ok::<f64, String>(s / EPISODE_WINDOWS as f64)
    };
    let g = Safety::GUARD_ONLY;
    let all = Safety::ALL;
    let with = |s: Safety| Driver::Resilient(s);
    let bare = episode("marginal:bare", Driver::Bare)?;
    let guard = episode("marginal:guard", with(g))?;
    let ckpt = episode(
        "marginal:+checkpoints",
        with(Safety {
            checkpoint_every: all.checkpoint_every,
            ..g
        }),
    )?;
    let audit = episode(
        "marginal:+audit",
        with(Safety {
            audit_every: all.audit_every,
            ..g
        }),
    )?;
    let diag = episode(
        "marginal:+diagnostics",
        with(Safety {
            diagnostics_every: all.diagnostics_every,
            ..g
        }),
    )?;
    let supervised = episode("marginal:supervised", Driver::Supervised)?;
    let sum = bare + (guard - bare) + (ckpt - guard) + (audit - guard) + (diag - guard);
    Ok(vec![
        ("core.bare_window_s", bare, "s"),
        ("core.guard_marginal_s", guard - bare, "s"),
        ("core.ckpt_marginal_s", ckpt - guard, "s"),
        ("core.audit_marginal_s", audit - guard, "s"),
        ("core.diag_marginal_s", diag - guard, "s"),
        ("core.marginal_sum_s", sum, "s"),
        ("core.guarded_window_s", guarded_window_s, "s"),
        ("core.marginal_residual_s", guarded_window_s - sum, "s"),
        ("core.supervised_marginal_s", supervised - bare, "s"),
    ])
}
