//! `perf`: the layered tau benchmark of the coupled mini-ESM.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--trace-out FILE]
//! perf --all [--seed N] [--seconds S] [--trace] [--repeat N] [--out FILE]
//! perf --quick                      # --all at one tenth of the span
//! perf --compare <a.json> <b.json>
//! ```
//!
//! See `README.md` beside `Cargo.toml` for every workload and metric.

mod compare;
mod host;
mod layers;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use serde_json::{json, Value};
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Span of one run when `--seconds` is not given; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 2020;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    quick: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    /// Where a child of `--all` leaves its full result for the parent.
    result_out: Option<PathBuf>,
    repeat: usize,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < argv.len() {
        let flag = argv[i].as_str();
        match flag {
            "--workload" => a.workload = Some(value(&mut i, flag)?),
            "--all" => a.all = true,
            "--quick" => a.quick = true,
            "--seed" => {
                a.seed = Some(
                    value(&mut i, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the benchmark driver
                // passes `--trace 0` or `--trace 1`.
                a.trace = match argv.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => a.trace_out = Some(value(&mut i, flag)?.into()),
            "--out" => a.out = Some(value(&mut i, flag)?.into()),
            "--result-out" => a.result_out = Some(value(&mut i, flag)?.into()),
            "--repeat" => {
                a.repeat = value(&mut i, flag)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 || a.repeat > 100 {
                    return Err("--repeat is outside 1..=100".to_string());
                }
            }
            "--compare" => {
                let first = value(&mut i, flag)?;
                a.compare = Some((first.into(), value(&mut i, flag)?.into()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(name) = &args.workload {
        match spec::workload(name) {
            Some(w) => run_one(w, &args),
            None => Err(format!(
                "unknown workload {name}; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
        }
    } else if args.all || args.quick {
        run_all(&args)
    } else {
        Err("give --workload <name>, --all, --quick or --compare <a> <b>".to_string())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--quick` shortens the default span to a tenth; an explicit `--seconds`
/// wins, and the result stays marked as quick either way.
fn seconds_of(args: &Args) -> f64 {
    let default = if args.quick {
        DEFAULT_SECONDS / 10.0
    } else {
        DEFAULT_SECONDS
    };
    args.seconds.unwrap_or(default)
}

fn metric(value: f64, unit: &str) -> Value {
    json!({"value": value, "unit": unit})
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<34} {value:>16.6} {unit:<14}{note}");
}

/// Why a workload cannot run on this host, if it cannot.
fn skip_reason(w: &Workload) -> Option<String> {
    (host::threads() < w.busy_threads()).then(|| {
        format!(
            "{} skipped: it keeps {} threads busy and this host has {}",
            w.name,
            w.busy_threads(),
            host::threads()
        )
    })
}

/// What one run of one workload leaves behind.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// The metrics `BENCHMARK.json` lists for this kind of run.
    metrics: Vec<(String, Value)>,
    /// Whatever else the result file of `--all` keeps.
    details: Vec<(String, Value)>,
}

/// Run one workload in this process. `Ok(true)` when every operation
/// succeeded and every check passed.
fn run_one(w: &'static Workload, args: &Args) -> Result<bool, String> {
    if let Some(why) = skip_reason(w) {
        return Err(why);
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = seconds_of(args);
    println!(
        "== {} (seed {seed}, {seconds} s{}{}) ==",
        w.name,
        if args.quick {
            ", quick: not comparable"
        } else {
            ""
        },
        if args.trace { ", traced" } else { "" }
    );
    println!("   {}", w.why);

    let mut r = if args.trace {
        report_traced(w, seed, seconds, args.trace_out.as_deref())?
    } else {
        report_untraced(w, seed, seconds)?
    };
    let metrics = Value::Map(std::mem::take(&mut r.metrics));
    if let Some(path) = &args.result_out {
        r.details.extend([
            ("pool_width".to_string(), json!(layers::pool_width())),
            ("attempted".to_string(), json!(r.attempted)),
            ("failed".to_string(), json!(r.failed)),
            ("metrics".to_string(), metrics.clone()),
        ]);
        let text = serde_json::to_string(&Value::Map(r.details)).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // The last line of standard output: one JSON object, these four keys.
    let correct = r.failed == 0;
    let line = json!({
        "correct": correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

/// The traced run: every per-layer metric by name, then the tables.
fn report_traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    trace_out: Option<&std::path::Path>,
) -> Result<RunResult, String> {
    let t = probes::traced_run(w, seed, seconds)?;
    let mut metrics = Vec::new();
    for m in &PER_LAYER {
        let v = t
            .value(m.name)
            .ok_or(format!("traced run did not measure {}", m.name))?;
        let exact = if m.exact { ", exact" } else { "" };
        let note = format!(
            "  {} is better{exact}; moves {}",
            m.better.as_str(),
            m.moves
        );
        print_metric(m.name, v, m.unit, &note);
        metrics.push((m.name.to_string(), metric(v, m.unit)));
    }
    t.print_tables(w);
    for f in &t.failures {
        println!("  FAILED {f}");
    }
    if let Some(path) = trace_out {
        let text = serde_json::to_string(&t.spans).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    let extra = t
        .extra
        .iter()
        .map(|(k, v, u)| (k.to_string(), metric(*v, u)))
        .collect();
    Ok(RunResult {
        attempted: t.attempted,
        failed: t.failures.len() as u64,
        metrics,
        details: vec![("extra".to_string(), Value::Map(extra))],
    })
}

/// The untraced run: the end-to-end metrics, and beside them what is
/// printed but not gated.
fn report_untraced(w: &'static Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let m = workloads::measure(w, seed, seconds)?;
    let n = m.samples.len();
    let mut metrics = Vec::new();
    for (e, v) in END_TO_END.iter().zip([m.tau(), m.setup_s, m.peak_rss_mib]) {
        let note = match e.name {
            "tau" => format!("  at the low-decile window of {n} samples"),
            "setup_s" => format!("  low decile of {}", workloads::SETUP_REPS),
            _ => String::new(),
        };
        print_metric(e.name, v, e.unit, &note);
        metrics.push((e.name.to_string(), metric(v, e.unit)));
    }
    // Printed, not gated: on a shared host these follow the neighbours.
    print_metric(
        "tau_mean",
        m.tau_mean(),
        "sim-s/wall-s",
        "  whole span, mean-based",
    );
    print_metric("window_s_p10", stats::low_decile(&m.samples), "s", "");
    print_metric("window_s_p50", stats::median(&m.samples), "s", "");
    match stats::p90(&m.samples) {
        Some(p) => print_metric("window_s_p90", p, "s", &format!("  {n} samples")),
        None => println!(
            "  {:<34} {:>16} {:<14}  needs 100 samples, has {n}",
            "window_s_p90", "-", "s"
        ),
    }
    let fail_frac = m.failed as f64 / m.attempted as f64;
    print_metric(
        "fail_frac",
        fail_frac,
        "ratio",
        &format!("  {} of {}", m.failed, m.attempted),
    );
    println!(
        "  windows {}  wall {:.3} s  final crc {:08x}",
        m.windows, m.wall_s, m.final_crc
    );
    if m.totals.windows_run > 0 {
        let t = &m.totals;
        println!(
            "  checkpoints {}  audit replays {}  rollbacks {}  replayed windows {}  fallbacks {}",
            t.checkpoints_written,
            t.audit_replays,
            t.rollbacks,
            t.replayed_windows,
            t.generation_fallbacks
        );
    }
    for f in &m.failures {
        println!("  FAILED {f}");
    }
    Ok(RunResult {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        details: vec![
            ("windows".to_string(), json!(m.windows)),
            ("samples".to_string(), json!(n)),
            ("fail_frac".to_string(), json!(fail_frac)),
            ("final_crc".to_string(), json!(m.final_crc)),
        ],
    })
}

/// Run every workload, each in a child process of its own, one after
/// another; optionally several times, and optionally write all results.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = seconds_of(args);
    let scratch = layers::Scratch::new("all")?;
    let result_path = scratch.path().join("result.json");
    let mut ok = true;
    let mut runs = Vec::new();
    for rep in 0..args.repeat {
        if args.repeat > 1 {
            println!("#### run {} of {}", rep + 1, args.repeat);
        }
        let mut run: Vec<(String, Value)> = Vec::new();
        for w in &WORKLOADS {
            if let Some(why) = skip_reason(w) {
                println!("== {why} ==");
                continue;
            }
            let _ = std::fs::remove_file(&result_path);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .arg("--result-out")
                .arg(&result_path);
            if args.quick {
                cmd.arg("--quick");
            }
            // The child prints to this terminal; `status` waits for it.
            let status = cmd.status().map_err(|e| format!("start {}: {e}", w.name))?;
            ok &= status.success();
            match std::fs::read_to_string(&result_path) {
                Ok(text) => {
                    let v = serde_json::from_str(&text).map_err(|e| e.to_string())?;
                    run.push((w.name.to_string(), v));
                }
                Err(_) => println!("  {} left no result (exit {status})", w.name),
            }
        }
        print_speedup(&run);
        runs.push(Value::Map(run));
    }
    if let Some(path) = &args.out {
        let doc = json!({
            "descriptor": host::descriptor(seed, seconds, args.quick),
            "traced": args.trace,
            "runs": Value::Seq(runs),
        });
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(ok)
}

/// Derived and printed, not gated: the fixed-size speed-up at two threads.
fn print_speedup(run: &[(String, Value)]) {
    let tau = |name: &str| {
        run.iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.get("metrics")?.get("tau")?.get("value")?.as_f64())
    };
    if let (Some(par), Some(seq)) = (tau("par_b4_w2"), tau("seq_b4_w1")) {
        println!(
            "par_b4_w2.tau / seq_b4_w1.tau = {:.3} (base {seq:.1} sim-s/wall-s)",
            par / seq
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "seq_b4_w1",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("seq_b4_w1"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), false));
        let a = args(&["--workload", "seq_b4_w1", "--trace", "1"]).unwrap();
        assert!(a.trace);
    }

    #[test]
    fn a_bare_trace_flag_switches_tracing_on() {
        let a = args(&["--trace", "--workload", "seq_b4_w1"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.workload.as_deref(), Some("seq_b4_w1"));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seconds"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--compare", "only-one.json"]).is_err());
    }

    #[test]
    fn quick_is_a_tenth_of_the_span() {
        let a = args(&["--quick"]).unwrap();
        assert_eq!(seconds_of(&a), DEFAULT_SECONDS / 10.0);
    }
}
