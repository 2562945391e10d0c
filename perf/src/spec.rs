//! The benchmark's fixed tables: workloads, end-to-end metrics with their
//! bounds, and per-layer metrics with the end-to-end metric and workload
//! each should move. `BENCHMARK.json` at the repository root restates the
//! first two columns of each; a unit test keeps the two in step.

use crate::stats::Better;

/// What one timed call of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `run_windows(windows_per_call, concurrent)`.
    Bare { windows_per_call: usize },
    /// One `run_windows_resilient` episode, every safety layer on, no faults.
    Guarded,
    /// The same episode with bit flips planned and a checkpoint generation
    /// damaged, so it restores, falls back a generation and replays.
    Recover,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub bisections: u32,
    pub pool_width: usize,
    pub concurrent: bool,
    pub kind: Kind,
}

impl Workload {
    /// Busy threads the workload needs; it is skipped on a smaller host.
    pub fn busy_threads(&self) -> usize {
        self.pool_width + usize::from(self.concurrent)
    }
}

/// Windows of one resilient episode.
pub const EPISODE_WINDOWS: u64 = 10;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "seq_b4_w1",
        why: "plain single-threaded baseline: only the four physics components work, so a kernel gain shows here first",
        bisections: 4,
        pool_width: 1,
        concurrent: false,
        kind: Kind::Bare { windows_per_call: 2 },
    },
    Workload {
        name: "par_b4_w2",
        why: "same problem with the pool driving at width 2: per-drive spawn and per-task locking are the difference to seq_b4_w1",
        bisections: 4,
        pool_width: 2,
        concurrent: false,
        kind: Kind::Bare { windows_per_call: 2 },
    },
    Workload {
        name: "conc_b5_w1",
        why: "the paper's mapping, ocean+BGC on their own thread: a faster ocean should not move tau here; 4x the cells, 4x the state",
        bisections: 5,
        pool_width: 1,
        concurrent: true,
        // Several windows per call, so that the sides exchange inside the
        // call and their waits are measured; with one window the only
        // wait is the join, which no counter sees.
        kind: Kind::Bare { windows_per_call: 4 },
    },
    Workload {
        name: "guarded_b4_w1",
        why: "every safety layer on, nothing going wrong: checkpoint writes, guard rounds and audit replays outweigh the kernels",
        bisections: 4,
        pool_width: 1,
        concurrent: false,
        kind: Kind::Guarded,
    },
    Workload {
        name: "recover_b4_w1",
        why: "the same layers the other way round: checkpoint reads, generation fallback, graph invalidation, rollback-replay",
        bisections: 4,
        pool_width: 1,
        concurrent: false,
        kind: Kind::Recover,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "tau",
        unit: "sim-s/wall-s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// True for counts that must repeat exactly from run to run.
    pub exact: bool,
    /// The end-to-end metric and workload the number should move.
    pub moves: &'static str,
}

const fn timing(name: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "s",
        better: Better::Lower,
        exact: false,
        moves,
    }
}

const fn rate(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
        moves,
    }
}

const fn count(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        moves,
    }
}

const KERNEL: &str = "tau on seq_b4_w1, par_b4_w2, conc_b5_w1 (critical side); about a third of that on guarded_b4_w1";
const OCEAN_SIDE: &str =
    "tau on seq_b4_w1 and par_b4_w2; none on conc_b5_w1 while coupler.slow_wait_s_per_window > 0";
const COUPLER: &str = "tau on conc_b5_w1 only";
const TABLE: &str = "the layer table: fast side + slow side + residual = window";
const REPLAY: &str = "tau on the bare workloads; the hit fraction drops on recover_b4_w1";
const EXPLAINS: &str = "explains tau on recover_b4_w1; must repeat exactly";
const WRITE: &str = "tau on guarded_b4_w1; none on the bare workloads";
const READ: &str = "tau on recover_b4_w1; none on the bare workloads";
const GUARD: &str = "tau on guarded_b4_w1 and recover_b4_w1, through the guard round";
const POOL: &str = "tau on par_b4_w2; none on every _w1 workload (width 1 never spawns)";
const DACE: &str = "none today: atmo does not execute through dace-mini; section 5.2 study only";
const HOST: &str = "context for every row";

/// Measured by the traced run of every workload, at that workload's own
/// grid, pool width and coupling mode.
pub const PER_LAYER: [PerLayer; 59] = [
    timing("icongrid.build_s", "setup_s, all workloads"),
    timing("icongrid.mask_s", "setup_s, all workloads"),
    timing("atmo.step_s_p50", KERNEL),
    rate("atmo.cell_levels_per_s", "1/s", KERNEL),
    timing("land.step_s_p50", KERNEL),
    count("land.kernels_per_step", "count", KERNEL),
    timing("ocean.step_s_p50", OCEAN_SIDE),
    timing("ocean.cg_solve_s_p50", OCEAN_SIDE),
    count("ocean.cg_iters_per_step", "count", OCEAN_SIDE),
    timing("hamocc.step_s_p50", OCEAN_SIDE),
    rate("hamocc.cell_tracers_per_s", "1/s", OCEAN_SIDE),
    timing("coupler.fast_wait_s_per_window", COUPLER),
    timing("coupler.slow_wait_s_per_window", COUPLER),
    rate("coupler.conc_speedup", "ratio", COUPLER),
    timing("core.fast_side_s_per_window", TABLE),
    timing("core.slow_side_s_per_window", TABLE),
    timing("core.window_residual_s", TABLE),
    timing("core.eager_window_s_p50", REPLAY),
    timing("core.replay_window_s_p50", REPLAY),
    rate("core.replay_hit_frac", "ratio", REPLAY),
    timing(
        "core.snapshot_s_p50",
        "tau on guarded_b4_w1 and recover_b4_w1",
    ),
    timing("core.restore_s_p50", "tau on recover_b4_w1"),
    count("core.checkpoints_written", "count", EXPLAINS),
    count("core.audit_replays", "count", EXPLAINS),
    count("core.rollbacks", "count", EXPLAINS),
    count("core.replayed_windows", "count", EXPLAINS),
    count("core.generation_fallbacks", "count", EXPLAINS),
    count("core.graph_invalidations", "count", EXPLAINS),
    count("core.sdc_injected", "count", EXPLAINS),
    count("core.sdc_detected", "count", EXPLAINS),
    count("core.protocol_rounds", "count", EXPLAINS),
    PerLayer {
        name: "core.useful_window_frac",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
        moves: EXPLAINS,
    },
    count("iosys.ckpt_bytes", "B", WRITE),
    timing("iosys.ckpt_write_s_p50", WRITE),
    rate("iosys.ckpt_write_MBps", "MB/s", WRITE),
    timing("iosys.ckpt_read_s_p50", READ),
    rate("iosys.ckpt_read_MBps", "MB/s", READ),
    rate("iosys.crc32_MBps", "MB/s", "both checkpoint directions"),
    count("iosys.diag_records_shed", "count", WRITE),
    timing("mpisim.world_run_s_p50", GUARD),
    timing("mpisim.allreduce_s_p50", GUARD),
    timing("mpisim.heartbeat_round_s_p50", "supervised runs only"),
    count("mpisim.msgs_per_round", "count", GUARD),
    timing("rayon.empty_drive_s_p50", POOL),
    count("rayon.drives_per_window", "count", POOL),
    rate("rayon.utilization", "ratio", POOL),
    rate("rayon.speedup_w2", "ratio", POOL),
    timing("dace-mini.compile_s", DACE),
    timing("dace-mini.naive_run_s_p50", DACE),
    timing("dace-mini.compiled_run_s_p50", DACE),
    timing("dace-mini.graph_replay_s_p50", DACE),
    count("dace-mini.dispatches_per_run", "count", DACE),
    count("dace-mini.computed_bytes_per_run", "B", DACE),
    rate("dace-mini.computed_GBps", "GB/s", DACE),
    PerLayer {
        name: "host.threads",
        unit: "count",
        better: Better::Higher,
        exact: true,
        moves: HOST,
    },
    PerLayer {
        name: "host.llc_bytes",
        unit: "B",
        better: Better::Higher,
        exact: true,
        moves: HOST,
    },
    rate("host.stream_triad_GBps", "GB/s", HOST),
    rate("machine.roofline_frac", "ratio", DACE),
    PerLayer {
        name: "bench.trace_overhead_frac",
        unit: "ratio",
        better: Better::Lower,
        exact: false,
        moves: "none: end-to-end metrics always come from the untraced run",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    #[test]
    fn benchmark_json_restates_these_tables() {
        let b = benchmark_json();
        let workloads = b.get("workloads").and_then(Value::as_array).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        let e2e = b.get("end_to_end").and_then(Value::as_array).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
            assert_eq!(j.get("bound").and_then(Value::as_f64), Some(m.bound));
        }
        let layers = b.get("per_layer").and_then(Value::as_array).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.as_str());
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(ok_name(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {} too long",
                w.name
            );
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok_unit(u), "bad unit {u}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
