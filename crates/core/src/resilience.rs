//! Rollback-replay resilience for the coupled driver.
//!
//! [`CoupledEsm::run_windows_resilient`] wraps the plain window loop in a
//! fault-absorbing state machine:
//!
//! ```text
//!           +--------- run 1 window ----------+
//!           v                                 |
//!   [STEP] ---> [GUARD] --ok--> checkpoint? --+--> done?
//!                  |                               |
//!                  | fail (comm fault, dead rank,  v
//!                  |       non-finite state)     [DONE]
//!                  v
//!              [ROLLBACK] -- restore newest intact generation
//!                  |         (falling back over corrupt ones)
//!                  +-------> replay from there; give up after
//!                            `max_retries_per_window` failures
//!                            of the same window
//! ```
//!
//! The **guard** is a genuinely distributed health check: `guard_ranks`
//! mpisim rank-threads each scan a shard of the snapshot for non-finite or
//! out-of-range values and report to rank 0 over fault-injectable
//! point-to-point messages with [`mpisim::Comm::recv_deadline`]; rank 0
//! broadcasts the verdict. A dropped partial, a corrupted payload, or a
//! killed rank therefore surfaces exactly like it would on a cluster — as
//! a timeout or checksum failure — and triggers rollback, not a hang. A
//! receive times out only when the guard's world is quiescent (the rule
//! in [`mpisim::comm`]), so a merely slow rank never causes a rollback.
//!
//! Because every model state variable lives in the snapshot (the restart
//! tests prove bit-exactness) and injected faults are one-shot, a replay
//! after rollback reproduces the fault-free trajectory bit for bit.

use crate::esm::CoupledEsm;
use crate::health::{HealthError, HealthEvent};
use crate::replay::WindowReplayStats;
use crate::sdc::{self, QuiescenceReference, StateFaultPlan};
use crate::state;
use crate::supervisor::Side;
use coupler::{FluxError, QuarantineEvent};
use iosys::{
    CheckpointRing, FullPolicy, OutputPolicy, OutputRequest, OutputServer, RealFs, Reduction,
    RestartError, RetryPolicy, Snapshot, Storage,
};
use mpisim::{CommError, FaultPlan, ProtoCode, World};
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
    /// A guard communication failed and retries were exhausted — kept for
    /// reporting inside [`EsmError::TooManyRetries`] chains.
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
    /// per-rank traces went through the exit check (see
    /// [`ResilienceReport::absorb_round`]).
    pub protocol_rounds: u64,
    /// Trace events the exit check covered across those rounds.
    pub protocol_ops_matched: u64,
    /// Exit-check failures: two messages queued on one (src, dst, tag)
    /// (E0705), or a message left unreceived in a round where no planned
    /// fault fired (E0701). Chaos tests assert this stays empty.
    pub protocol_violations: Vec<String>,
}

/// The report plumbing both fault-tolerant drivers share.
impl ResilienceReport {
    /// The exit check on one live round: fold the world scheduler's
    /// findings ([`mpisim::RankTrace::findings`]) into the protocol
    /// counters. Other findings are a fault's degraded mode at work, or
    /// cannot arise in a round whose receives all have deadlines; the
    /// rounds themselves are explored fault by fault in
    /// [`crate::rounds`].
    pub(crate) fn absorb_round(&mut self, traces: &[mpisim::RankTrace], fault_fired: bool) {
        self.protocol_rounds += 1;
        for t in traces {
            self.protocol_ops_matched += t.events.len() as u64;
            let violations = t.findings.iter().filter(|d| match d.code {
                ProtoCode::TagCollision => true,
                ProtoCode::UnmatchedSend => !fault_fired,
                _ => false,
            });
            self.protocol_violations.extend(violations.map(|d| d.to_string()));
        }
    }

    /// Record what the window record/replay layer did during the run:
    /// its lifetime counters now, minus `before` (taken at run start).
    pub(crate) fn absorb_graph_stats(&mut self, before: WindowReplayStats, now: WindowReplayStats) {
        self.graph_recordings = now.recorded_windows - before.recorded_windows;
        self.graph_replays = now.replayed_windows - before.replayed_windows;
        self.graph_invalidations = now.invalidations - before.invalidations;
        self.graph_rerecords = now.rerecords - before.rerecords;
    }

    /// Write one checkpoint generation. A write that fails beyond the
    /// ring's own retries is a recorded degraded event (`None`), not a
    /// run killer: the ring still holds the previous intact generation,
    /// so a later recovery just falls back one further.
    pub(crate) fn write_generation(
        &mut self,
        ring: &mut CheckpointRing,
        snap: &Snapshot,
        n_files: usize,
        what: &str,
    ) -> Option<u64> {
        match ring.write(snap, n_files) {
            Ok(generation) => {
                self.checkpoints_written += 1;
                Some(generation)
            }
            Err(e) => {
                self.checkpoint_failures += 1;
                self.faults_absorbed
                    .push(format!("{what} checkpoint write failed ({e})"));
                None
            }
        }
    }
}

/// Open a checkpoint ring on `storage` (`None`: the real file system)
/// with the configured write-retry policy.
pub(crate) fn open_ring(
    storage: &Option<Arc<dyn Storage>>,
    dir: &Path,
    stem: &str,
    keep_generations: usize,
    retry: RetryPolicy,
) -> Result<CheckpointRing, RestartError> {
    let storage = storage.clone().unwrap_or_else(RealFs::shared);
    let mut ring = CheckpointRing::new_with(storage, dir, stem, keep_generations)?;
    ring.set_retry(retry);
    Ok(ring)
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

/// Faults `plan` has fired so far; a round in which this grows met one.
pub(crate) fn faults_fired(plan: Option<&Arc<FaultPlan>>) -> u64 {
    plan.map_or(0, |p| p.report().total())
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
/// report counters they feed and the repair done before rolling back.
#[derive(Debug, Clone)]
enum WindowFault {
    Guard(GuardFail),
    /// Quiescence CRC mismatch in these static buffers (repaired from
    /// the pristine reference before the rollback).
    Checksum { buffers: Vec<&'static str> },
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
                    .map(|b| format!("{b} ({} side)", sdc::quiescent_side(b).stem()))
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

/// Flip one byte in the first shard file of `generation` (chaos hook).
fn corrupt_generation_on_disk(dir: &Path, generation: u64) -> Result<(), RestartError> {
    let path = dir.join(format!("restart.g{generation:04}_000.esmr"));
    let mut bytes = std::fs::read(&path).map_err(RestartError::Io)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).map_err(RestartError::Io)?;
    Ok(())
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
        let mut report = ResilienceReport::default();
        let w0 = self.windows_run();
        let graph0 = self.replay.stats;
        let mut ring =
            open_ring(&rcfg.storage, dir, "restart", KEEP_GENERATIONS, rcfg.checkpoint_retry)?;
        // Write a generation (a failed write is degraded, not fatal); the
        // chaos hook may then damage it on disk.
        let checkpoint = |report: &mut ResilienceReport,
                          ring: &mut CheckpointRing,
                          snap: &Snapshot,
                          what: &str| {
            let generation = report.write_generation(ring, snap, rcfg.n_files, what);
            if let Some(g) = generation.filter(|g| rcfg.corrupt_generations.contains(g)) {
                corrupt_generation_on_disk(dir, g)?;
            }
            Ok::<_, RestartError>(generation)
        };

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
                    report
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

        // Generation 1: the starting state, so the very first window can
        // roll back. Should the write fail, the run just has no rollback
        // point until the next checkpoint lands.
        let mut newest_gen = checkpoint(&mut report, &mut ring, &self.snapshot(), "initial")?
            .unwrap_or(0);

        // SDC detector state (audit_every > 0). The quiescence reference
        // and the first verified snapshot are captured before any flip
        // can fire, so both are pristine by construction.
        let sdc_on = rcfg.audit_every > 0;
        let quiescence = sdc_on.then(|| QuiescenceReference::capture(self));
        let mut verified: Option<Snapshot> = sdc_on.then(|| self.snapshot());
        // Completed-window count `verified` corresponds to (audit span).
        let mut verified_at = 0u64;
        // Injected flips already explained by a detection + rollback.
        // A rollback restores a verified generation and repairs the
        // statics, so one detection neutralizes *every* outstanding flip.
        let mut sdc_attributed = 0u64;

        let mut done = 0u64;
        let mut attempts = 0u32;
        while done < n_windows {
            let window = done + 1;
            let checkpoint_due =
                window.is_multiple_of(rcfg.checkpoint_every) || window == n_windows;
            if let Some(p) = &rcfg.sdc {
                sdc::apply_due_flips(self, p, window);
            }
            let flux_err = |error| EsmError::Flux { window, error };
            self.run_windows(1, concurrent).map_err(flux_err)?;
            let snap = self.snapshot();

            // Detector 1: distributed physics guard (per-flux bounds +
            // global backstop), over fault-injectable messages, with the
            // exit check on the round's traces.
            let fired = faults_fired(plan.as_ref());
            let (verdict, traces) = distributed_guard(&snap, window, rcfg, plan.as_ref());
            report.absorb_round(&traces, faults_fired(plan.as_ref()) > fired);
            let mut fault: Option<WindowFault> = verdict.err().map(WindowFault::Guard);

            // Detector 2: quiescence checksums — exact for any flip in a
            // never-written buffer, which the audit replay cannot see
            // (both executions would read the same corrupted static).
            // Repair from the pristine copy first, so the rollback below
            // resumes on clean statics.
            if fault.is_none() {
                if let Some(q) = &quiescence {
                    let dirty = q.verify(self);
                    if !dirty.is_empty() {
                        for name in &dirty {
                            q.repair(self, name);
                        }
                        fault = Some(WindowFault::Checksum { buffers: dirty });
                    }
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
            if fault.is_none() && sdc_on {
                if let Some(base) = &verified {
                    let scheduled = window.is_multiple_of(rcfg.audit_every);
                    let suspicion = delta_suspicion(base, &snap, rcfg.delta_frac);
                    if scheduled || checkpoint_due || suspicion.is_some() {
                        report.audit_replays += 1;
                        let span = window - verified_at;
                        self.restore_same_shape(base);
                        self.run_windows(span as usize, true).map_err(flux_err)?;
                        match self.first_bitwise_mismatch(&snap) {
                            None => audit_passed = true,
                            Some(var) => fault = Some(WindowFault::Audit { var }),
                        }
                    }
                }
            }

            // Attribute detections to the fault plan. A detection with
            // outstanding injected flips is charged to them (the rollback
            // neutralizes all of them at once). A checksum or audit
            // detection *without* one would be a false positive of an
            // exact detector — counted, and asserted zero in the chaos
            // tests. An unexplained guard blow-up stays what it always
            // was: a genuine model failure.
            if let Some(f) = &fault {
                let injected = sdc::injected(&rcfg.sdc);
                let outstanding = injected > sdc_attributed;
                let mut attribute = |detections: &mut u64| {
                    *detections += 1;
                    sdc_attributed = injected;
                };
                match f {
                    WindowFault::Guard(GuardFail::BlowUp { .. }) if outstanding => {
                        attribute(&mut report.sdc_detected_bounds)
                    }
                    WindowFault::Guard(_) => {}
                    WindowFault::Checksum { .. } if outstanding => {
                        attribute(&mut report.sdc_detected_checksum)
                    }
                    WindowFault::Audit { .. } if outstanding => {
                        attribute(&mut report.sdc_detected_audit)
                    }
                    WindowFault::Checksum { .. } | WindowFault::Audit { .. } => {
                        report.sdc_false_positives += 1
                    }
                }
            }

            match fault {
                None => {
                    done += 1;
                    attempts = 0;
                    // An audited state becomes the baseline at once, so
                    // the old baseline is freed before the checkpoint is
                    // encoded.
                    let snap = if audit_passed {
                        verified_at = done;
                        &*verified.insert(snap)
                    } else {
                        &snap
                    };
                    if checkpoint_due {
                        let what = format!("window {done}:");
                        if let Some(g) = checkpoint(&mut report, &mut ring, snap, &what)? {
                            newest_gen = g;
                        }
                    }
                    if rcfg.diagnostics_every > 0
                        && done > max_posted
                        && done.is_multiple_of(rcfg.diagnostics_every)
                    {
                        max_posted = done;
                        if let Some(srv) = &diag {
                            let means: Vec<f64> = snap
                                .vars
                                .iter()
                                .map(|(_, d)| {
                                    if d.is_empty() {
                                        0.0
                                    } else {
                                        d.iter().sum::<f64>() / d.len() as f64
                                    }
                                })
                                .collect();
                            if let Err(e) = srv.post(OutputRequest {
                                name: "window_means",
                                time_s: done as f64,
                                data: means,
                                reduction: Reduction::Instantaneous,
                            }) {
                                report
                                    .faults_absorbed
                                    .push(format!("window {done}: diagnostics lost ({e})"));
                                diag = None;
                            }
                        }
                    }
                }
                Some(fault) => {
                    report.rollbacks += 1;
                    report.faults_absorbed.push(format!("window {window}: {fault}"));
                    attempts += 1;
                    if attempts > rcfg.max_retries_per_window {
                        return Err(match fault {
                            WindowFault::Guard(GuardFail::BlowUp { var_idx, value }) => {
                                EsmError::BlowUp {
                                    window,
                                    var: snap
                                        .vars
                                        .get(var_idx)
                                        .map(|(n, _)| n.clone())
                                        .unwrap_or_else(|| format!("#{var_idx}")),
                                    value,
                                }
                            }
                            WindowFault::Guard(GuardFail::Comm(error)) => {
                                EsmError::Comm { window, error }
                            }
                            other => EsmError::TooManyRetries {
                                window,
                                attempts,
                                last: other.to_string(),
                            },
                        });
                    }
                    // Roll back to the newest generation that reads back
                    // intact; torn or bit-flipped generations are skipped.
                    // Both held copies are dead by now: free them before
                    // the restored snapshot is allocated.
                    drop(snap);
                    verified = None;
                    let (g, good) = ring.read_latest_intact(rcfg.n_readers)?;
                    if g != newest_gen {
                        report.generation_fallbacks += 1;
                        newest_gen = g;
                    }
                    self.restore(&good);
                    let resumed = self.windows_run() - w0;
                    report.replayed_windows += done - resumed;
                    done = resumed;
                    // Checkpoint generations are audited before they are
                    // written, so the restored state is itself verified.
                    if sdc_on {
                        verified_at = done;
                        verified = Some(good);
                    }
                }
            }
        }
        report.windows_run = done;
        report.final_generation = newest_gen;
        report.checkpoint_retries = ring.io_retries();
        report.sdc_injected = sdc::injected(&rcfg.sdc);
        report.absorb_graph_stats(graph0, self.replay.stats);
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
