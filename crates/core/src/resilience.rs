//! Global rollback-replay for the coupled driver.
//!
//! [`CoupledEsm::run_windows_resilient`] runs one window at a time and
//! screens it; any failure rolls *both* component groups back together:
//!
//! ```text
//!   [FLIPS] -> [STEP] -> [GUARD] -> [CHECKSUM] -> [AUDIT?] --ok--> [CKPT?]
//!                           |            |            |
//!                           +------------+------------+--> [ROLLBACK]
//! ```
//!
//! The checkpoint ring (one whole-state ring `restart`), the restore
//! with fallback, the SDC screen and the report are the recovery core's
//! (`crate::recovery`); this module keeps its own detectors and its
//! replay. The **guard** is a genuinely distributed health check:
//! `guard_ranks` mpisim rank-threads each scan a shard of the snapshot
//! for non-finite or out-of-range values and report to rank 0 over
//! fault-injectable messages with [`mpisim::Comm::recv_deadline`]; rank
//! 0 broadcasts the verdict, so a dropped partial or a killed rank
//! surfaces as a timeout, never a hang. The **audit** re-executes the
//! windows since the last verified state and compares bitwise. After a
//! **rollback** the loop resumes at the restored base and re-guards,
//! re-audits and re-checkpoints every window it replays; because every
//! model state variable lives in the snapshot and injected faults are
//! one-shot, the replay reproduces the fault-free trajectory bit for
//! bit. One window failing `max_retries_per_window` times is a typed
//! [`EsmError`].

use crate::esm::CoupledEsm;
use crate::health::{HealthError, HealthEvent};
use crate::recovery::{CheckpointPolicy, Detector, Recovery};
use crate::sdc::StateFaultPlan;
use crate::state::{self, Side};
use coupler::{FluxError, QuarantineEvent};
use iosys::{
    FullPolicy, OutputPolicy, OutputRequest, OutputServer, RealFs, Reduction, RestartError,
    RetryPolicy, Snapshot, Storage,
};
use mpisim::{CommError, FaultPlan, World};
use std::path::Path;
use std::sync::Arc;

/// Tuning knobs for the resilient driver.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Write a checkpoint generation every this many completed windows.
    pub checkpoint_every: u64,
    /// Shard files per checkpoint generation.
    pub n_files: usize,
    /// Staggered reader groups on restore.
    pub n_readers: usize,
    /// Rank-threads in the distributed blow-up guard (>= 2).
    pub guard_ranks: usize,
    /// Rollback attempts for one window before giving up.
    pub max_retries_per_window: u32,
    /// Chaos hook: flip one byte in the first shard of these generation
    /// numbers right after they are written, simulating silent storage
    /// corruption that the next restore must detect and fall back over.
    pub corrupt_generations: Vec<u64>,
    /// Storage backend for checkpoints and diagnostics. `None`: the real
    /// file system. Inject a `FaultFs` here to chaos-test the I/O path.
    pub storage: Option<Arc<dyn Storage>>,
    /// Retry policy for checkpoint-generation writes.
    pub checkpoint_retry: RetryPolicy,
    /// Post per-variable mean diagnostics every this many completed
    /// windows (`0`: diagnostics off). Diagnostics are shed, never
    /// blocking and never fatal.
    pub diagnostics_every: u64,
    /// Enable the SDC detector suite and audit every this many windows
    /// (`0`: off). When on, every completed window is additionally
    /// screened by quiescence checksums, an audit replay (re-execute the
    /// windows since the last verified state via the recorded graph and
    /// compare bitwise — exact dual-modular redundancy) runs on the
    /// audit schedule, before every checkpoint write (so the ring only
    /// ever holds verified states), and on any delta-plausibility
    /// suspicion.
    pub audit_every: u64,
    /// Delta-plausibility threshold: a coupling flux that jumps more
    /// than this fraction of its declared `fluxreg` span between
    /// verified states raises *suspicion*, which triggers an audit —
    /// never a detection by itself, so the exact audit keeps the
    /// false-positive count structurally zero.
    pub delta_frac: f64,
    /// In-state bit-flip injection plan (SDC chaos; see [`crate::sdc`]).
    pub sdc: Option<Arc<StateFaultPlan>>,
}

/// Checkpoint generations retained in the ring.
const KEEP_GENERATIONS: usize = 3;
/// Blow-up threshold: any |value| above this fails the guard.
/// Generous: bookkeeping accumulators (e.g. total water handed to the
/// ocean) legitimately reach 1e13+ on the tiny config; a genuine blow-up
/// overflows toward infinity well past this.
const MAX_ABS: f64 = 1e30;
/// Queue depth of the diagnostics output server.
const OUTPUT_QUEUE: usize = 16;

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            checkpoint_every: 2,
            n_files: 3,
            n_readers: 2,
            guard_ranks: 3,
            max_retries_per_window: 3,
            corrupt_generations: Vec::new(),
            storage: None,
            checkpoint_retry: RetryPolicy::default(),
            diagnostics_every: 0,
            audit_every: 0,
            delta_frac: 0.9,
            sdc: None,
        }
    }
}

/// Failure of a resilient run that could not be absorbed.
#[derive(Debug)]
pub enum EsmError {
    /// Checkpoint write/read failed beyond repair (including every
    /// generation being corrupt).
    Restart(RestartError),
    /// A guard communication failure (a lost, corrupted or undelivered
    /// message, or the timeouts a dead rank leaves) persisted past
    /// `max_retries_per_window` rollbacks of the same window.
    Comm { window: u64, error: CommError },
    /// The state went non-finite or out of range and replay reproduced it
    /// (a genuine numerical blow-up, not a transient fault).
    BlowUp { window: u64, var: String, value: f64 },
    /// One window kept failing after `max_retries_per_window` rollbacks.
    TooManyRetries {
        window: u64,
        attempts: u32,
        last: String,
    },
    /// A coupling exchange failed with a typed flux error: missing field,
    /// quarantine rejection, exhausted degraded-window budget.
    Flux { window: u64, error: FluxError },
    /// The failure detector declared a condition no local recovery can
    /// absorb (e.g. both component groups down at once).
    Health(HealthError),
}

impl std::fmt::Display for EsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EsmError::Restart(e) => write!(f, "restart failure: {e}"),
            EsmError::Comm { window, error } => {
                write!(f, "communication failure in window {window}: {error}")
            }
            EsmError::BlowUp { window, var, value } => {
                write!(f, "blow-up in window {window}: {var} = {value}")
            }
            EsmError::TooManyRetries {
                window,
                attempts,
                last,
            } => write!(
                f,
                "window {window} failed {attempts} times, giving up (last: {last})"
            ),
            EsmError::Flux { window, error } => {
                write!(f, "flux exchange failure in window {window}: {error}")
            }
            EsmError::Health(e) => write!(f, "health failure: {e}"),
        }
    }
}

impl std::error::Error for EsmError {}

impl From<RestartError> for EsmError {
    fn from(e: RestartError) -> EsmError {
        EsmError::Restart(e)
    }
}

impl From<HealthError> for EsmError {
    fn from(e: HealthError) -> EsmError {
        EsmError::Health(e)
    }
}

/// What a resilient run lived through.
#[derive(Debug, Clone, Default)]
pub struct ResilienceReport {
    /// Windows completed (equals the request on success).
    pub windows_run: u64,
    /// Checkpoint generations written (including the initial one).
    pub checkpoints_written: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Completed windows that had to be recomputed after rollbacks.
    pub replayed_windows: u64,
    /// Restores that had to fall back past a damaged newest generation.
    pub generation_fallbacks: u64,
    /// Human-readable descriptions of every absorbed failure.
    pub faults_absorbed: Vec<String>,
    /// Generation the run ended on.
    pub final_generation: u64,
    /// Coupling windows the healthy side ran on substituted (persisted)
    /// peer fluxes because its peer was suspected or down.
    pub degraded_windows: u64,
    /// The window numbers of those degraded windows, in order.
    pub degraded: Vec<u64>,
    /// Field-quarantine events recorded at the coupler boundary (NaN/Inf
    /// or out-of-bounds values caught before entering component state).
    pub quarantine_events: Vec<QuarantineEvent>,
    /// Supervision timeline: missed beats, suspicion, failure
    /// declarations, respawns, replay completions, recoveries.
    pub timeline: Vec<HealthEvent>,
    /// Localized rank respawns performed by the supervisor.
    pub respawns: u64,
    /// Checkpoint write attempts that failed transiently and were retried.
    pub checkpoint_retries: u64,
    /// Checkpoint generations that could not be written at all (the run
    /// continued on the previous generation — a recorded degraded event).
    pub checkpoint_failures: u64,
    /// Diagnostic records that reached disk.
    pub records_written: u64,
    /// Diagnostic samples shed under disk or queue pressure.
    pub records_shed: u64,
    /// Failed diagnostic appends that were retried.
    pub output_write_retries: u64,
    /// Storage errors seen on the diagnostics path (including retried).
    pub output_write_errors: u64,
    /// Coupled windows that ran as a record/replay recording pass
    /// (see [`crate::replay`]), re-records included.
    pub graph_recordings: u64,
    /// Coupled windows replayed against a recorded window graph.
    pub graph_replays: u64,
    /// Recorded window arenas discarded by a restore (rollback-replay,
    /// rank respawn).
    pub graph_invalidations: u64,
    /// Recording passes that followed an invalidation.
    pub graph_rerecords: u64,
    /// In-state bit flips the SDC fault plan actually fired.
    pub sdc_injected: u64,
    /// SDC detections by the per-flux physics guard (bounds violation).
    pub sdc_detected_bounds: u64,
    /// SDC detections by the quiescence-checksum detector.
    pub sdc_detected_checksum: u64,
    /// SDC detections by the audit replay (bitwise DMR mismatch).
    pub sdc_detected_audit: u64,
    /// Detections with no outstanding injected flip to explain them.
    /// The checksum and audit detectors are exact, so chaos tests assert
    /// this stays zero.
    pub sdc_false_positives: u64,
    /// Audit replays performed (scheduled, pre-checkpoint, and
    /// suspicion-triggered).
    pub audit_replays: u64,
    /// Communication rounds (guard rounds, heartbeat rounds) whose
    /// per-rank traces went through the exit check.
    pub protocol_rounds: u64,
    /// Trace events the exit check covered across those rounds.
    pub protocol_ops_matched: u64,
    /// Exit-check failures: two messages queued on one (src, dst, tag)
    /// (E0705), or a message left unreceived in a round where no planned
    /// fault fired (E0701). Chaos tests assert this stays empty.
    pub protocol_violations: Vec<String>,
}

/// Why one guard round failed (internal; mapped onto report strings and
/// [`EsmError`]).
#[derive(Debug, Clone)]
pub(crate) enum GuardFail {
    Killed(usize),
    Comm(CommError),
    BlowUp { var_idx: usize, value: f64 },
}

impl std::fmt::Display for GuardFail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardFail::Killed(r) => write!(f, "rank {r} died"),
            GuardFail::Comm(e) => write!(f, "{e}"),
            GuardFail::BlowUp { var_idx, value } => {
                write!(f, "non-finite/out-of-range state (var #{var_idx} = {value})")
            }
        }
    }
}

/// Per-variable guard bounds: coupling fluxes in the lag state
/// (`pend_fast.*` / `pend_slow.*`) are screened against their declared
/// physical range from `coupler::fluxreg`; every other variable keeps
/// the global [`MAX_ABS`] scalar as the final backstop.
fn guard_bounds(name: &str) -> (f64, f64) {
    state::lag_flux(name)
        .and_then(coupler::fluxreg::bounds)
        .unwrap_or((-MAX_ABS, MAX_ABS))
}

/// Scan this rank's shard of the snapshot: returns `(flag, var_idx,
/// value)` where flag is 1.0 if a non-finite or out-of-range value was
/// found. `bounds` is indexed like `vars`.
fn scan_shard(
    vars: &[(String, Vec<f64>)],
    rank: usize,
    n_ranks: usize,
    bounds: &[(f64, f64)],
) -> [f64; 3] {
    for (i, (_, data)) in vars.iter().enumerate() {
        if i % n_ranks != rank {
            continue;
        }
        let (lo, hi) = bounds[i];
        for &v in data {
            if !v.is_finite() || v < lo || v > hi {
                return [1.0, i as f64, v];
            }
        }
    }
    [0.0, 0.0, 0.0]
}

/// One distributed guard round over `guard_ranks` mpisim rank-threads:
/// the guard verdict, plus the round's per-rank traces for the exit
/// check.
pub(crate) fn distributed_guard(
    snapshot: &Snapshot,
    window: u64,
    rcfg: &ResilienceConfig,
    plan: Option<&Arc<FaultPlan>>,
) -> (Result<(), GuardFail>, Vec<mpisim::RankTrace>) {
    let n = rcfg.guard_ranks.max(2);
    let vars = &snapshot.vars;
    let partial_tag = window * 2;
    let verdict_tag = window * 2 + 1;
    let bounds_vec: Vec<(f64, f64)> = vars
        .iter()
        .map(|(name, _)| guard_bounds(name))
        .collect();
    let bounds = &bounds_vec;

    let body = move |comm: mpisim::Comm| -> Result<(), GuardFail> {
        let rank = comm.rank();
        // A killed rank dies before participating: it never sends its
        // partial and never answers — peers see timeouts.
        if let Some(plan) = plan {
            if plan.take_kill(rank, window) {
                return Err(GuardFail::Killed(rank));
            }
        }
        let mine = scan_shard(vars, rank, n, bounds);
        if rank == 0 {
            let mut worst = mine;
            let mut comm_err = None;
            for r in 1..n {
                match comm.recv_deadline(r, partial_tag) {
                    Ok(p) if p.len() == 3 => {
                        if p[0] != 0.0 && worst[0] == 0.0 {
                            worst = [p[0], p[1], p[2]];
                        }
                    }
                    Ok(_) => {
                        comm_err = Some(CommError::Corrupt {
                            src: r,
                            tag: partial_tag,
                            seq: 0,
                        });
                    }
                    Err(e) => comm_err = Some(e),
                }
            }
            let failed = comm_err.is_some() || worst[0] != 0.0;
            // Always broadcast a verdict, even on failure, so healthy
            // ranks are answered instead of timing out.
            for r in 1..n {
                comm.send(r, verdict_tag, &[if failed { 1.0 } else { 0.0 }]);
            }
            if let Some(e) = comm_err {
                return Err(GuardFail::Comm(e));
            }
            if worst[0] != 0.0 {
                return Err(GuardFail::BlowUp {
                    var_idx: worst[1] as usize,
                    value: worst[2],
                });
            }
            Ok(())
        } else {
            comm.send(0, partial_tag, &mine);
            let verdict = comm
                .recv_deadline(0, verdict_tag)
                .map_err(GuardFail::Comm)?;
            // A failure verdict is rank 0's error to report; this rank
            // merely acknowledges it.
            let _ = verdict;
            Ok(())
        }
    };

    let (results, traces) = World::run_traced(n, plan.cloned(), body);

    // Priority: a killed rank explains the timeouts it caused; a blow-up
    // explains an abort verdict; otherwise report the first comm error.
    let errors = || results.iter().filter_map(|r| r.as_ref().err());
    let cause = errors()
        .find(|e| !matches!(e, GuardFail::Comm(_)))
        .or_else(|| errors().next());
    (cause.cloned().map_or(Ok(()), Err), traces)
}

/// One window-level failure: a guard verdict or an SDC detection. All
/// variants share the rollback-replay path; they differ only in the
/// report counters they feed.
#[derive(Debug, Clone)]
enum WindowFault {
    Guard(GuardFail),
    /// Quiescence CRC mismatch in these static buffers, with their
    /// owning side (repaired from the pristine reference before the
    /// rollback).
    Checksum { buffers: Vec<(&'static str, Side)> },
    /// Audit replay diverged from the primary execution at this var.
    Audit { var: String },
}

impl std::fmt::Display for WindowFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowFault::Guard(g) => write!(f, "{g}"),
            WindowFault::Checksum { buffers } => {
                let what: Vec<String> = buffers
                    .iter()
                    .map(|(b, side)| format!("{b} ({} side)", side.stem()))
                    .collect();
                write!(f, "quiescent checksum mismatch: {}", what.join(", "))
            }
            WindowFault::Audit { var } => {
                write!(f, "audit replay diverged at {var} ({})", side_of_var(var))
            }
        }
    }
}

/// Which component group owns a snapshot variable (localization in the
/// report strings).
fn side_of_var(name: &str) -> &'static str {
    match state::lookup(name).and_then(|v| v.side) {
        Some(Side::Fast) => "fast side",
        Some(Side::Slow) => "slow side",
        None => "coupler lag state",
    }
}

/// Detector 1b: step-to-step delta plausibility. A coupling flux that
/// jumps more than `frac` of its declared physical span between
/// verified states is suspect even when both endpoints are in bounds
/// (an in-bounds flip in a high mantissa bit looks exactly like this).
/// Suspicion only *triggers an audit* — the exact check — so it can
/// never produce a false positive on its own.
fn delta_suspicion(prev: &Snapshot, cur: &Snapshot, frac: f64) -> Option<String> {
    if !(frac > 0.0 && frac.is_finite()) {
        return None;
    }
    for ((name, a), (_, b)) in prev.vars.iter().zip(&cur.vars) {
        let Some(span) = state::lag_flux(name).and_then(coupler::fluxreg::span) else {
            continue;
        };
        let limit = frac * span;
        if a.len() == b.len() && a.iter().zip(b).any(|(x, y)| (y - x).abs() > limit) {
            return Some(name.clone());
        }
    }
    None
}

impl CoupledEsm {
    /// Run `n_windows` coupling windows with checkpointing, a distributed
    /// blow-up guard, and rollback-replay on any failure. Transient faults
    /// (from `plan` or real storage damage) are absorbed; persistent
    /// failures surface as a typed [`EsmError`]. The final state is
    /// bit-exact with a fault-free run of the same windows.
    pub fn run_windows_resilient(
        &mut self,
        n_windows: u64,
        concurrent: bool,
        dir: &Path,
        rcfg: &ResilienceConfig,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<ResilienceReport, EsmError> {
        // SDC detector state (audit_every > 0). The quiescence reference
        // and the first verified snapshot are captured before any flip
        // can fire, so both are pristine by construction.
        let sdc_on = rcfg.audit_every > 0;
        let policy = CheckpointPolicy {
            sides: &[None],
            n_files: rcfg.n_files,
            keep: KEEP_GENERATIONS,
            n_readers: rcfg.n_readers,
            storage: &rcfg.storage,
            retry: rcfg.checkpoint_retry,
            corrupt: &rcfg.corrupt_generations,
        };
        let mut core = Recovery::open(self, dir, policy, &rcfg.sdc, sdc_on)?;

        // Diagnostics ride a shedding output server: they must never
        // block the integration or kill the run.
        let mut diag: Option<OutputServer> = if rcfg.diagnostics_every > 0 {
            match OutputServer::spawn_with(
                rcfg.storage.clone().unwrap_or_else(RealFs::shared),
                dir.join("diag"),
                OUTPUT_QUEUE,
                OutputPolicy {
                    on_full: FullPolicy::Shed,
                    ..OutputPolicy::default()
                },
            ) {
                Ok(srv) => Some(srv),
                Err(e) => {
                    core.report
                        .faults_absorbed
                        .push(format!("diagnostics disabled: {e}"));
                    None
                }
            }
        } else {
            None
        };
        // Highest window whose diagnostics were already posted, so replays
        // after a rollback do not produce duplicate records.
        let mut max_posted = 0u64;

        // The starting state, so the very first window can roll back.
        // Should the write fail, the run just has no rollback point until
        // the next checkpoint lands.
        core.checkpoint(self, 0, None)?;

        let mut verified: Option<Snapshot> = sdc_on.then(|| self.snapshot());
        // Completed-window count `verified` corresponds to (audit span).
        let mut verified_at = 0u64;

        let mut done = 0u64;
        let mut attempts = 0u32;
        while done < n_windows {
            let window = done + 1;
            let checkpoint_due =
                window.is_multiple_of(rcfg.checkpoint_every) || window == n_windows;
            core.fire_flips(self, window);
            let flux_err = |error| EsmError::Flux { window, error };
            self.run_windows(1, concurrent).map_err(flux_err)?;
            let snap = self.snapshot();

            // Detector 1: distributed physics guard (per-flux bounds +
            // global backstop), over fault-injectable messages.
            let verdict =
                core.round(plan.as_ref(), || distributed_guard(&snap, window, rcfg, plan.as_ref()));
            let mut fault: Option<WindowFault> = verdict.err().map(WindowFault::Guard);

            // Detector 2: quiescence checksums — exact for any flip in a
            // never-written buffer, which the audit replay cannot see
            // (both executions would read the same corrupted static).
            // The screen repairs from the pristine copy first, so the
            // rollback below resumes on clean statics.
            if fault.is_none() {
                let dirty = core.screen_statics(self);
                if !dirty.is_empty() {
                    fault = Some(WindowFault::Checksum { buffers: dirty });
                }
            }

            // Detector 3: audit replay — exact dual-modular redundancy
            // over the bitwise-deterministic window graph. Runs on the
            // audit schedule, before a checkpoint lands (the ring must
            // only ever hold verified states), and on any
            // delta-plausibility suspicion. The re-execution always uses
            // concurrent coupling, ocean+BGC on the second thread: the
            // concurrent ≡ sequential bitwise contract keeps the verdict,
            // and a sequential live run is cross-checked against the
            // other schedule for free. It is compared against `snap` in
            // place, so a window holds at most two state copies (`snap`
            // and `verified`) beside the live model. On a pass the live
            // state is bitwise equal to `snap`, and `snap` becomes the
            // next verification baseline.
            let mut audit_passed = false;
            if let (None, Some(base)) = (&fault, &verified) {
                let scheduled = window.is_multiple_of(rcfg.audit_every);
                let suspicion = delta_suspicion(base, &snap, rcfg.delta_frac);
                if scheduled || checkpoint_due || suspicion.is_some() {
                    core.report.audit_replays += 1;
                    self.restore_same_shape(base);
                    self.run_windows((window - verified_at) as usize, true)
                        .map_err(flux_err)?;
                    match self.first_bitwise_mismatch(&snap) {
                        None => audit_passed = true,
                        Some(var) => fault = Some(WindowFault::Audit { var }),
                    }
                }
            }

            // An unexplained guard blow-up stays what it always was: a
            // genuine model failure, not an SDC detection.
            match &fault {
                Some(WindowFault::Guard(GuardFail::BlowUp { .. })) => core.charge(Detector::Bounds),
                Some(WindowFault::Checksum { .. }) => core.charge(Detector::Checksum),
                Some(WindowFault::Audit { .. }) => core.charge(Detector::Audit),
                Some(WindowFault::Guard(_)) | None => {}
            }

            let Some(fault) = fault else {
                done += 1;
                attempts = 0;
                // An audited state becomes the baseline at once, so the
                // old baseline is freed before the checkpoint is encoded.
                let snap = if audit_passed {
                    verified_at = done;
                    &*verified.insert(snap)
                } else {
                    &snap
                };
                if checkpoint_due {
                    core.checkpoint(self, done, Some(snap))?;
                }
                if rcfg.diagnostics_every > 0
                    && done > max_posted
                    && done.is_multiple_of(rcfg.diagnostics_every)
                {
                    max_posted = done;
                    if let Some(srv) = &diag {
                        if let Err(e) = srv.post(window_means(snap, done)) {
                            core.report
                                .faults_absorbed
                                .push(format!("window {done}: diagnostics lost ({e})"));
                            diag = None;
                        }
                    }
                }
                continue;
            };

            core.report.rollbacks += 1;
            core.report.faults_absorbed.push(format!("window {window}: {fault}"));
            attempts += 1;
            if attempts > rcfg.max_retries_per_window {
                return Err(match fault {
                    WindowFault::Guard(GuardFail::BlowUp { var_idx, value }) => EsmError::BlowUp {
                        window,
                        var: snap
                            .vars
                            .get(var_idx)
                            .map(|(n, _)| n.clone())
                            .unwrap_or_else(|| format!("#{var_idx}")),
                        value,
                    },
                    WindowFault::Guard(GuardFail::Comm(error)) => EsmError::Comm { window, error },
                    other => EsmError::TooManyRetries {
                        window,
                        attempts,
                        last: other.to_string(),
                    },
                });
            }
            // Both held copies are dead by now: free them before the
            // restored snapshot is allocated.
            drop(snap);
            verified = None;
            let (base, mut snaps) = core.restore(self, done)?;
            core.report.replayed_windows += done - base.completed;
            done = base.completed;
            // Checkpoints are audited before they are written, so the
            // restored state is itself verified.
            if sdc_on {
                verified_at = done;
                verified = snaps.pop();
            }
        }
        let mut report = core.finish(self, done);
        if let Some(srv) = diag {
            match srv.finish() {
                Ok(stats) => {
                    report.records_written = stats.records_written;
                    report.records_shed = stats.shed_queue_full + stats.shed_write_failure;
                    report.output_write_retries = stats.write_retries;
                    report.output_write_errors = stats.write_errors;
                }
                Err(e) => {
                    report
                        .faults_absorbed
                        .push(format!("diagnostics server died at shutdown ({e})"));
                }
            }
        }
        Ok(report)
    }
}

/// The per-variable means posted as diagnostics after window `done`.
fn window_means(snap: &Snapshot, done: u64) -> OutputRequest {
    let mean = |d: &[f64]| {
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    };
    OutputRequest {
        name: "window_means",
        time_s: done as f64,
        data: snap.vars.iter().map(|(_, d)| mean(d)).collect(),
        reduction: Reduction::Instantaneous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsmConfig;
    use iosys::restart::scratch_dir;
    use std::time::Duration;

    fn quick_rcfg() -> ResilienceConfig {
        ResilienceConfig {
            guard_ranks: 3,
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn fault_free_resilient_run_matches_plain_run() {
        let cfg = EsmConfig::tiny();
        let dir = scratch_dir("res_plain");
        let mut a = CoupledEsm::new(cfg.clone());
        let report = a
            .run_windows_resilient(4, false, &dir, &quick_rcfg(), None)
            .unwrap();
        assert_eq!(report.windows_run, 4);
        assert_eq!(report.rollbacks, 0);
        // initial + after windows 2 and 4
        assert_eq!(report.checkpoints_written, 3);

        let mut b = CoupledEsm::new(cfg);
        b.run_windows(4, false).unwrap();
        assert_eq!(a.snapshot(), b.snapshot(), "resilient run must be bit-exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_guard_message_rolls_back_and_replays_bit_exact() {
        let cfg = EsmConfig::tiny();
        let dir = scratch_dir("res_drop");
        // The guard sends exactly one rank1 -> rank0 partial per round, so
        // the 2nd message on that edge is the window-2 health report.
        let plan = Arc::new(FaultPlan::new().inject(1, 0, 2, mpisim::FaultAction::Drop));
        let mut a = CoupledEsm::new(cfg.clone());
        let report = a
            .run_windows_resilient(3, false, &dir, &quick_rcfg(), Some(plan.clone()))
            .unwrap();
        assert_eq!(report.windows_run, 3);
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.replayed_windows, 1, "window 1 was redone");
        assert_eq!(plan.report().dropped, 1);

        let mut b = CoupledEsm::new(cfg);
        b.run_windows(3, false).unwrap();
        assert_eq!(a.snapshot(), b.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_checkpoint_writes_degrade_instead_of_killing_the_run() {
        use iosys::{FaultFs, StorageFault};

        let cfg = EsmConfig::tiny();
        let dir = scratch_dir("res_enospc");
        // The disk fills up immediately: every checkpoint write fails.
        let storage: Arc<dyn Storage> =
            Arc::new(FaultFs::new().fault(StorageFault::NoSpace { nth_write: 1 }));
        let rcfg = ResilienceConfig {
            storage: Some(storage),
            checkpoint_retry: RetryPolicy {
                attempts: 1,
                backoff: Duration::from_micros(100),
            },
            ..quick_rcfg()
        };
        let mut a = CoupledEsm::new(cfg.clone());
        let report = a.run_windows_resilient(4, false, &dir, &rcfg, None).unwrap();
        assert_eq!(report.windows_run, 4, "ENOSPC must not kill the run");
        assert_eq!(report.checkpoints_written, 0);
        assert_eq!(report.checkpoint_failures, 3, "every generation recorded as degraded");
        assert!(report.checkpoint_retries >= 3, "{}", report.checkpoint_retries);
        assert_eq!(report.faults_absorbed.len(), 3, "{:?}", report.faults_absorbed);

        let mut b = CoupledEsm::new(cfg);
        b.run_windows(4, false).unwrap();
        assert_eq!(a.snapshot(), b.snapshot(), "degraded run is still bit-exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diagnostics_are_posted_once_per_window_and_rolled_up() {
        let cfg = EsmConfig::tiny();
        let dir = scratch_dir("res_diag");
        let rcfg = ResilienceConfig {
            diagnostics_every: 1,
            ..quick_rcfg()
        };
        // One rollback (dropped guard partial in window 2) must not
        // duplicate diagnostic records for replayed windows.
        let plan = Arc::new(FaultPlan::new().inject(1, 0, 2, mpisim::FaultAction::Drop));
        let mut esm = CoupledEsm::new(cfg);
        let report = esm
            .run_windows_resilient(3, false, &dir, &rcfg, Some(plan))
            .unwrap();
        assert_eq!(report.rollbacks, 1);
        assert_eq!(report.records_written, 3, "one record per window, replays deduped");
        let recs = iosys::read_records(&dir.join("diag"), "window_means").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2].0, 3.0, "stamped with the window number");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn guard_screens_lag_fluxes_against_their_declared_bounds() {
        // Satellite regression for the bounds consolidation: coupler lag
        // state is held to its fluxreg physical range, everything else
        // keeps the old global scalar as backstop.
        assert_eq!(guard_bounds("pend_slow.heat_flux"), (-5000.0, 5000.0));
        assert_eq!(guard_bounds("pend_fast.ice_conc"), (0.0, 1.0));
        assert_eq!(guard_bounds("oce.temp"), (-1e30, 1e30));
        assert_eq!(guard_bounds("pend_fast.no_such_flux"), (-1e30, 1e30));

        let rcfg = quick_rcfg();
        // 6 kW/m^2 is inside the 1e30 backstop that was the *only* check
        // before the consolidation, but outside the declared heat-flux
        // range — the per-flux guard must flag it.
        let bad = Snapshot {
            vars: vec![
                ("oce.temp".to_string(), vec![1.0e29]),
                ("pend_slow.heat_flux".to_string(), vec![0.0, 6.0e3]),
            ],
        };
        match distributed_guard(&bad, 1, &rcfg, None).0 {
            Err(GuardFail::BlowUp { var_idx: 1, value }) => assert_eq!(value, 6.0e3),
            other => panic!("expected per-flux bounds violation, got {other:?}"),
        }
        // Same shape, physically plausible flux: clean. The generic var
        // at 1e29 pins the old backstop behavior (below MAX_ABS passes).
        let ok = Snapshot {
            vars: vec![
                ("oce.temp".to_string(), vec![1.0e29]),
                ("pend_slow.heat_flux".to_string(), vec![0.0, 4.0e3]),
            ],
        };
        distributed_guard(&ok, 2, &rcfg, None).0.unwrap();
        // And the backstop itself still fires past MAX_ABS.
        let huge = Snapshot {
            vars: vec![("oce.temp".to_string(), vec![1.0e31])],
        };
        assert!(matches!(
            distributed_guard(&huge, 3, &rcfg, None).0,
            Err(GuardFail::BlowUp { var_idx: 0, .. })
        ));
    }

    #[test]
    fn delta_suspicion_scales_with_the_declared_span() {
        let mk = |v: f64| Snapshot {
            vars: vec![
                ("pend_slow.heat_flux".to_string(), vec![v]),
                ("oce.temp".to_string(), vec![v * 1e6]),
            ],
        };
        // heat_flux span is 10000; a jump of 9500 exceeds 0.9 * span.
        assert_eq!(
            delta_suspicion(&mk(0.0), &mk(9.5e3), 0.9),
            Some("pend_slow.heat_flux".to_string())
        );
        // The same jump is fine at frac = 1.0 (jump < span) — and
        // non-flux vars never raise suspicion however far they move.
        assert_eq!(delta_suspicion(&mk(0.0), &mk(9.5e3), 1.0), None);
        assert_eq!(delta_suspicion(&mk(0.0), &mk(4.0e3), 0.9), None);
    }

    #[test]
    fn genuine_blow_up_exhausts_retries_with_typed_error() {
        let cfg = EsmConfig::tiny();
        let dir = scratch_dir("res_blowup");
        let mut esm = CoupledEsm::new(cfg);
        // Poison the live state: every replay re-reads the same poisoned
        // initial checkpoint, so this cannot be absorbed. The water ledger
        // is pure bookkeeping, so the model runs but the guard must flag
        // the non-finite snapshot.
        esm.ocean_water_received_kg = f64::NAN;
        let rcfg = ResilienceConfig {
            max_retries_per_window: 2,
            ..quick_rcfg()
        };
        match esm.run_windows_resilient(2, false, &dir, &rcfg, None) {
            Err(EsmError::BlowUp { window: 1, value, .. }) => {
                assert!(!value.is_finite(), "guard must report the bad value");
            }
            other => panic!("expected blow-up error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
