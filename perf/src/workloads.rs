//! The untraced run of one workload: set-up, the timed closed loop, and the
//! checks that the program's outputs are correct.
//!
//! One client, closed loop: a call starts when the previous one returned.
//! The loop runs for `--seconds`; tau is a rate, so a faster program does
//! more windows in the same span rather than the same windows in less.

use crate::layers::{self, Counters, FlipPlan, Model, Report, Safety, Scratch};
use crate::spec::{Kind, Workload, EPISODE_WINDOWS};
use crate::stats;
use crate::trace::Tracer;
use std::time::Instant;

/// Fresh models built (and first windows recorded) for `setup_s`.
pub const SETUP_REPS: usize = 12;
/// Windows of the untimed prefix over which `par_b4_w2` and `conc_b5_w1`
/// are compared bit for bit with a sequential width-1 run.
const PREFIX_WINDOWS: usize = 4;
/// Largest relative drift of the carbon and of the water total the checks
/// accept over a run. The ledgers close up to the fluxes in flight during
/// the one-window coupling lag, not to round-off; the repository's own
/// tests accept 1e-5 and 1e-3 over three windows.
const CARBON_DRIFT_MAX: f64 = 1e-5;
const WATER_DRIFT_MAX: f64 = 1e-3;

/// In every `recover_b4_w1` episode a bit flips before these windows, and
/// this checkpoint generation (written after window 4) is damaged on disk.
/// Both windows are audit windows, so whichever detector fires, it fires in
/// the window of the flip: the first flip rolls back to generation 1, the
/// second finds generation 2 unreadable and falls back to generation 1 too.
/// Every episode therefore rolls back and replays alike whatever the seed
/// aims at.
const FLIP_WINDOWS: [u64; 2] = [2, 6];
const CORRUPT_GENERATION: u64 = 2;

/// One timed call.
pub struct Outcome {
    pub windows: u64,
    pub wall_s: f64,
    /// Why the call counts as failed, if it does.
    pub error: Option<String>,
}

/// A model in a workload's configuration, and the workload's call on it.
pub struct Runner {
    pub workload: &'static Workload,
    pub model: Model,
    seed: u64,
    scratch: Option<Scratch>,
    episode: u64,
    /// Windows run by this runner's calls and its warm-up.
    pub windows: u64,
    /// Counts reported by the resilient calls so far.
    pub totals: Report,
}

impl Runner {
    /// Pin the pool width, build the model and run its first (recording)
    /// window. Returns the runner and the seconds that took.
    pub fn set_up(
        workload: &'static Workload,
        seed: u64,
        tr: &mut Tracer,
    ) -> Result<(Runner, f64), String> {
        layers::set_pool_width(workload.pool_width);
        let open = tr.begin("bench", "set_up");
        let t0 = Instant::now();
        let (mut model, _) = tr.timed("core", "CoupledEsm::new", || {
            Model::new(workload.bisections, seed)
        });
        let (first, _) = tr.timed("core", "first_window", || {
            model.run_windows(1, workload.concurrent)
        });
        let setup_s = t0.elapsed().as_secs_f64();
        tr.end(open);
        first.map_err(|e| format!("first window failed: {e}"))?;
        let scratch = match workload.kind {
            Kind::Bare { .. } => None,
            Kind::Guarded | Kind::Recover => Some(Scratch::new(workload.name)?),
        };
        let runner = Runner {
            workload,
            model,
            seed,
            scratch,
            episode: 0,
            windows: 1,
            totals: Report::default(),
        };
        Ok((runner, setup_s))
    }

    /// The workload's one timed call, wrapped in a span that carries the
    /// layer counters read at its two boundaries.
    pub fn call(&mut self, tr: &mut Tracer) -> Outcome {
        let before = self.model.counters();
        let outcome = match self.workload.kind {
            Kind::Bare { windows_per_call } => {
                let open = tr.begin("core", "run_windows");
                let t0 = Instant::now();
                let r = self
                    .model
                    .run_windows(windows_per_call, self.workload.concurrent);
                let wall_s = t0.elapsed().as_secs_f64();
                tr.end_with(open, &count_deltas(&before, &self.model.counters()));
                Outcome {
                    windows: windows_per_call as u64,
                    wall_s,
                    error: r.err(),
                }
            }
            Kind::Guarded => self.episode(tr, "run_windows_resilient", None, None, &before),
            Kind::Recover => {
                // The episode number varies the plan within a run, the
                // class cycles with it.
                let plan = FlipPlan::planned(
                    self.seed.wrapping_add(self.episode),
                    self.episode as usize,
                    &FLIP_WINDOWS,
                );
                let name = "run_windows_resilient+faults";
                self.episode(tr, name, Some(plan), Some(CORRUPT_GENERATION), &before)
            }
        };
        self.windows += outcome.windows;
        outcome
    }

    fn episode(
        &mut self,
        tr: &mut Tracer,
        span: &'static str,
        plan: Option<FlipPlan>,
        corrupt: Option<u64>,
        before: &Counters,
    ) -> Outcome {
        let scratch = self
            .scratch
            .as_ref()
            .expect("resilient workloads own a scratch directory");
        let dir = match scratch.sub("episode") {
            Ok(d) => d,
            Err(e) => {
                return Outcome {
                    windows: 0,
                    wall_s: 0.0,
                    error: Some(e),
                }
            }
        };
        self.episode += 1;
        let open = tr.begin("core", span);
        let t0 = Instant::now();
        let r =
            self.model
                .run_resilient(EPISODE_WINDOWS, &dir, Safety::ALL, plan.as_ref(), corrupt);
        let wall_s = t0.elapsed().as_secs_f64();
        tr.end_with(open, &count_deltas(before, &self.model.counters()));
        let error = match r {
            Err(e) => Some(e),
            Ok(report) => {
                self.totals.add(&report);
                check_report(&report, plan.as_ref()).err()
            }
        };
        Outcome {
            windows: EPISODE_WINDOWS,
            wall_s,
            error,
        }
    }
}

/// Counter differences over one call, as span counts.
fn count_deltas(a: &Counters, b: &Counters) -> [(&'static str, f64); 7] {
    [
        ("fast_side_s", b.fast_side_s - a.fast_side_s),
        ("slow_side_s", b.slow_side_s - a.slow_side_s),
        ("fast_wait_s", b.fast_wait_s - a.fast_wait_s),
        ("slow_wait_s", b.slow_wait_s - a.slow_wait_s),
        (
            "recorded_windows",
            (b.recorded_windows - a.recorded_windows) as f64,
        ),
        (
            "replayed_windows",
            (b.replayed_windows - a.replayed_windows) as f64,
        ),
        ("pool_drives", (b.pool_drives - a.pool_drives) as f64),
    ]
}

/// What a resilient episode's report must say.
fn check_report(r: &Report, plan: Option<&FlipPlan>) -> Result<(), String> {
    let planned = plan.map_or(0, |p| p.planned);
    let mut wrong = Vec::new();
    if r.windows_run != EPISODE_WINDOWS {
        wrong.push(format!(
            "windows_run {} != {EPISODE_WINDOWS}",
            r.windows_run
        ));
    }
    if r.sdc_injected != planned {
        wrong.push(format!(
            "sdc_injected {} != {planned} planned",
            r.sdc_injected
        ));
    }
    if r.sdc_false_positives != 0 {
        wrong.push(format!("{} sdc false positives", r.sdc_false_positives));
    }
    if r.protocol_violations != 0 {
        wrong.push(format!("{} protocol violations", r.protocol_violations));
    }
    if plan.is_none() && r.rollbacks != 0 {
        wrong.push(format!("{} rollbacks without a fault", r.rollbacks));
    }
    if plan.is_some() && r.generation_fallbacks == 0 {
        wrong.push("no generation fallback although a generation was damaged".to_string());
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join("; "))
    }
}

/// Result of the untraced run of one workload.
pub struct Measured {
    /// Seconds per window, one sample per timed call.
    pub samples: Vec<f64>,
    pub windows: u64,
    pub wall_s: f64,
    pub simulated_s: f64,
    pub coupling_s: f64,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// Timed calls plus output checks, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub final_crc: u32,
    pub totals: Report,
}

impl Measured {
    /// The gated tau: simulated seconds per wall second at the
    /// fastest-decile window. On a shared host, phases in which a neighbour
    /// slows the machine last for seconds; the lower decile reads the
    /// program's speed between them, where the mean reads the neighbours.
    pub fn tau(&self) -> f64 {
        self.coupling_s / stats::low_decile(&self.samples)
    }

    /// The paper's mean-based tau over the whole timed span. Printed, not
    /// gated.
    pub fn tau_mean(&self) -> f64 {
        self.simulated_s / self.wall_s
    }
}

/// Tally of operations: timed calls and checks alike.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Set up, warm up, run the closed loop for `seconds`, set up again, then
/// check the outputs. Tracing is off throughout: end-to-end metrics never
/// come from a traced run.
///
/// Half of the `SETUP_REPS` set-ups come before the timed span and half
/// after it: a slow phase of a shared host lasts seconds, and set-ups taken
/// in one burst would all fall inside it or all outside.
pub fn measure(workload: &'static Workload, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut tr = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut runner = None;
    for _ in 0..SETUP_REPS / 2 {
        drop(runner.take()); // one model alive at a time, as in a real run
        let (r, s) = Runner::set_up(workload, seed, &mut tr)?;
        setups.push(s);
        runner = Some(r);
    }
    let mut runner = runner.expect("SETUP_REPS is at least two");
    let mut tally = Tally::default();

    if let Kind::Bare { .. } = workload.kind {
        // Caches and the allocator settle over the first replayed windows;
        // an episode is long enough to need no warm-up of its own.
        runner.call(&mut tr).error.map_or(Ok(()), Err)?;
    }
    let budgets0 = runner.model.budgets();
    let windows0 = runner.windows;
    let sim0 = runner.model.counters().simulated_s;

    let mut samples = Vec::new();
    let mut wall_s = 0.0;
    let span = Instant::now();
    loop {
        let o = runner.call(&mut tr);
        wall_s += o.wall_s;
        if o.windows > 0 {
            samples.push(o.wall_s / o.windows as f64);
        }
        tally.record("timed call", o.error.map_or(Ok(()), Err));
        if span.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let windows = runner.windows - windows0;
    // Simulated time as the program's own clock counted it, replays and
    // audit re-runs excluded: only windows that advanced the run count.
    let coupling_s = runner.model.dims().coupling_s;
    let simulated_s = windows as f64 * coupling_s;
    let peak_rss_mib = crate::host::peak_rss_mib().ok_or("cannot read VmHWM")?;
    for _ in SETUP_REPS / 2..SETUP_REPS {
        setups.push(Runner::set_up(workload, seed, &mut tr)?.1);
    }

    let end = runner.model.snapshot();
    tally.record(
        "state finite",
        if end.all_finite() {
            Ok(())
        } else {
            Err("a state value is not finite".to_string())
        },
    );
    let budgets1 = runner.model.budgets();
    tally.record(
        "carbon budget",
        drift_within(budgets0.0, budgets1.0, CARBON_DRIFT_MAX),
    );
    tally.record(
        "water budget",
        drift_within(budgets0.1, budgets1.1, WATER_DRIFT_MAX),
    );
    match workload.kind {
        Kind::Bare { .. } => {
            let ran_s = runner.model.counters().simulated_s - sim0;
            let counted = if (ran_s - simulated_s).abs() <= 1e-6 * simulated_s {
                Ok(())
            } else {
                Err(format!(
                    "timers.simulated_s advanced {ran_s} s, the calls asked for {simulated_s} s"
                ))
            };
            tally.record("simulated time", counted);
            if workload.pool_width > 1 || workload.concurrent {
                tally.record(
                    "prefix equals sequential width-1 run",
                    prefix_check(workload, seed),
                );
            }
        }
        Kind::Guarded | Kind::Recover => {
            // The reference is computed in this run, never stored: a later
            // change that legitimately alters bits is not failed by a
            // golden value.
            layers::set_pool_width(1);
            let mut reference = Model::new(workload.bisections, seed);
            let same = reference
                .run_windows(runner.windows as usize, false)
                .and_then(|()| match end.first_bit_difference(&reference.snapshot()) {
                    None => Ok(()),
                    Some(var) => Err(format!("{var} differs from the bare run's")),
                });
            tally.record("final state equals a bare run of the same windows", same);
        }
    }

    Ok(Measured {
        samples,
        windows,
        wall_s,
        simulated_s,
        coupling_s,
        setup_s: stats::low_decile(&setups),
        peak_rss_mib,
        attempted: tally.attempted,
        failed: tally.failures.len() as u64,
        failures: tally.failures,
        final_crc: end.crc(),
        totals: runner.totals.clone(),
    })
}

fn drift_within(before: f64, after: f64, max: f64) -> Result<(), String> {
    let rel = (after - before).abs() / before.abs().max(f64::MIN_POSITIVE);
    if rel.is_finite() && rel <= max {
        Ok(())
    } else {
        Err(format!("relative drift {rel:e} exceeds {max:e}"))
    }
}

/// `PREFIX_WINDOWS` windows from a fresh model in the workload's own
/// configuration and from one in the plain configuration (sequential,
/// width 1) must agree bit for bit.
fn prefix_check(workload: &Workload, seed: u64) -> Result<(), String> {
    let run = |width: usize, concurrent: bool| {
        layers::set_pool_width(width);
        let mut m = Model::new(workload.bisections, seed);
        m.run_windows(PREFIX_WINDOWS, concurrent)
            .map(|()| m.snapshot())
    };
    let own = run(workload.pool_width, workload.concurrent)?;
    let plain = run(1, false)?;
    layers::set_pool_width(workload.pool_width);
    match own.first_bit_difference(&plain) {
        None => Ok(()),
        Some(var) => Err(format!("{var} differs after {PREFIX_WINDOWS} windows")),
    }
}
