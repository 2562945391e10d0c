//! Component supervision: health monitoring, degraded-mode coupling, and
//! localized rank recovery.
//!
//! [`CoupledEsm::run_windows_supervised`] drives the coupled system one
//! window at a time under a three-rank supervision world: rank 0 is the
//! monitor, rank 1 the atmosphere+land group ("fast"), rank 2 the
//! ocean+ice+BGC group ("slow"). Each window:
//!
//! ```text
//! [RECOVER?] -> [HEARTBEAT] -> [DECLARE?] -> [CATCH-UP] -> [RUN] -> [CKPT?]
//! ```
//!
//! * **Heartbeats** travel over fault-injectable mpisim channels
//!   ([`mpisim::heartbeat_round`]); a [`FailureDetector`] accrues missed
//!   beats and declares failure at a suspicion threshold, so a single
//!   dropped beat holds a side's windows (later caught up solo from the
//!   flux logs, zero degraded windows) while a kill or a persistent hang
//!   crosses the threshold.
//! * **Degraded-mode coupling**: when the healthy side needs a peer flux
//!   set the suspected/down side never produced, it substitutes the last
//!   valid set ([`coupler::PersistenceFallback`]) instead of stalling,
//!   bounded by a consecutive-window budget. Every degraded window is
//!   recorded in the [`ResilienceReport`].
//! * **Field quarantine**: each side's outgoing fluxes pass a
//!   [`coupler::QuarantineGate`] loaded with the component crates'
//!   declared physical bounds; NaN/Inf or out-of-range values are
//!   rejected, clamped, or replaced per [`coupler::RepairPolicy`] and
//!   never reach the peer's state.
//! * **Localized recovery**: a failed side's live state is poisoned;
//!   after `respawn_delay_windows` both sides restore from the newest
//!   base of the per-side rings `fast` and `slow` that reads back intact
//!   (the recovery core, `crate::recovery`, also behind the SDC screen
//!   and the report), and replay jointly from it with `record = false`,
//!   from the logged true fluxes and with no heartbeat. Every
//!   speculative (degraded-input) window is overwritten with true
//!   values, so the final state is **bitwise identical** to a fault-free
//!   run whenever no `PersistLast` repair stuck (the documented caveat).
//!   A static buffer the checksum screen finds flipped recovers its
//!   owning side the same way.
//!
//! Checkpointing is suspended while any rank is suspected or down, so no
//! speculative state ever reaches the rings.

use crate::esm::CoupledEsm;
use crate::health::{FailureDetector, HealthConfig, HealthError, Verdict};
use crate::recovery::{CheckpointPolicy, Detector, Recovery};
use crate::resilience::{EsmError, ResilienceReport};
use crate::sdc::StateFaultPlan;
use crate::state::Side;
use coupler::{FluxSet, PersistenceFallback, QuarantineGate, RepairPolicy};
use iosys::{RetryPolicy, Storage};
use mpisim::{heartbeat_round_traced, FaultPlan};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SIDES: [Side; 2] = [Side::Fast, Side::Slow];
/// Generations retained per side's ring.
const KEEP_GENERATIONS: usize = 4;

/// Tuning of the supervised driver.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Write per-side checkpoint generations every this many healthy
    /// completed windows.
    pub checkpoint_every: u64,
    /// Heartbeat timing and the suspicion threshold.
    pub health: HealthConfig,
    /// Windows between failure declaration and the respawn attempt
    /// (models the allocation/restart latency of a replacement rank).
    pub respawn_delay_windows: u64,
    /// Max consecutive windows the healthy side may run on substituted
    /// fluxes before the degradation is no longer absorbable.
    pub max_consecutive_degraded: u32,
    /// Repair policy of the field-quarantine gates.
    pub policy: RepairPolicy,
    /// Chaos hook: at (supervised-local window, field), overwrite entry 0
    /// of that field in its producer's output with NaN — re-applied
    /// identically during replay, like a deterministic model bug.
    pub corrupt_flux: Vec<(u64, &'static str)>,
    /// Storage backend for the per-side checkpoint rings. `None`: the
    /// real file system.
    pub storage: Option<Arc<dyn Storage>>,
    /// Retry policy for checkpoint-generation writes.
    pub checkpoint_retry: RetryPolicy,
    /// In-state bit-flip injection plan (SDC chaos; see [`crate::sdc`]).
    pub sdc: Option<Arc<StateFaultPlan>>,
    /// Verify per-side quiescence checksums every window. A corrupted
    /// static buffer is localized to its owning side, repaired from the
    /// pristine reference, and the side is recovered exactly like a
    /// failed rank (poison + ring restore + joint replay).
    pub quiescence_checks: bool,
}

/// Respawns allowed per side before giving up.
const MAX_RESPAWNS: u32 = 4;

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            checkpoint_every: 2,
            health: HealthConfig::default(),
            respawn_delay_windows: 1,
            max_consecutive_degraded: 4,
            policy: RepairPolicy::ClampToBounds,
            corrupt_flux: Vec::new(),
            storage: None,
            checkpoint_retry: RetryPolicy::default(),
            sdc: None,
            quiescence_checks: false,
        }
    }
}

/// Mutable supervision state threaded through one supervised run.
struct Supervision<'a> {
    scfg: &'a SupervisorConfig,
    plan: Option<Arc<FaultPlan>>,
    /// Absolute window base (windows already run before this call).
    w0: u64,
    /// Rings `fast` and `slow`, the SDC screen and the report.
    core: Recovery<'a>,
    /// Per side: entry `v + 1` is the output of local window `v` and
    /// whether it was computed from a true (non-degraded) input; entry 0
    /// is the pre-run lag state the peer consumes in window 0. Entries
    /// below every window recovery or catch-up can still run are cleared.
    out_log: [Vec<Option<(FluxSet, bool)>>; 2],
    /// Gate screening each side's *outgoing* fluxes.
    gates: [QuarantineGate; 2],
    /// Fallback serving each side's *incoming* fluxes when degraded.
    fallback: [PersistenceFallback; 2],
    detector: FailureDetector,
    /// Next local window each side still has to run.
    next_run: [u64; 2],
    down: [bool; 2],
    respawn_at: [Option<u64>; 2],
    respawns: [u32; 2],
}

impl Supervision<'_> {
    /// Run side `side`'s local window `v`: resolve its input (logged peer
    /// output, or persistence fallback when the peer never produced it),
    /// step the components, apply the chaos hook, screen the output, and
    /// log it. `record = false` marks a deterministic replay: gate events
    /// are suppressed and degradation cannot occur (inputs exist by
    /// construction).
    fn run_one(
        &mut self,
        esm: &mut CoupledEsm,
        side: Side,
        v: u64,
        record: bool,
    ) -> Result<(), EsmError> {
        let i = side.idx();
        let abs = self.w0 + v;
        let flux_err = |error| EsmError::Flux { window: abs, error };

        let (input, input_true) = match &self.out_log[side.peer().idx()][v as usize] {
            Some((f, t)) => (f.clone(), *t),
            None => {
                debug_assert!(record, "replay inputs exist by construction");
                let f = self.fallback[i].degrade(abs).map_err(flux_err)?;
                self.core.report.degraded_windows += 1;
                self.core.report.degraded.push(abs);
                (f, false)
            }
        };
        if input_true {
            self.fallback[i].accept(&input);
        }

        let mut out = match side {
            Side::Fast => esm.run_fast_window(abs, &input),
            Side::Slow => esm.run_slow_window(&input),
        }
        .map_err(flux_err)?;
        // Chaos hook: the producer emits one NaN this window. Replay hits
        // the same injection, so deterministic repairs reproduce exactly.
        for &(cw, field) in &self.scfg.corrupt_flux {
            if cw == v {
                for (name, data) in out.fields.iter_mut() {
                    if *name == field && !data.is_empty() {
                        data[0] = f64::NAN;
                    }
                }
            }
        }
        self.gates[i].screen(abs, &mut out, record).map_err(flux_err)?;
        self.out_log[i][v as usize + 1] = Some((out, input_true));
        self.next_run[i] = v + 1;
        Ok(())
    }

    /// Run `side`'s held-back windows up to (excluding) local window
    /// `upto`, solo from the flux logs.
    fn catch_up(&mut self, esm: &mut CoupledEsm, side: Side, upto: u64) -> Result<(), EsmError> {
        while self.next_run[side.idx()] < upto {
            self.run_one(esm, side, self.next_run[side.idx()], true)?;
        }
        Ok(())
    }

    /// A declared-dead side's live memory is gone: poison it and charge
    /// one respawn against the side's budget.
    fn lose(&mut self, esm: &mut CoupledEsm, side: Side, abs: u64) -> Result<(), EsmError> {
        poison(esm, side);
        let respawns = &mut self.respawns[side.idx()];
        *respawns += 1;
        if *respawns > MAX_RESPAWNS {
            return Err(HealthError::RespawnBudgetExhausted {
                window: abs,
                rank: side.rank(),
                respawns: *respawns,
            }
            .into());
        }
        Ok(())
    }

    /// Localized recovery of `failed` at local window `w`: restore both
    /// sides from the newest common intact base, then jointly replay
    /// windows up to (excluding) `w`. The healthy side's speculative
    /// (degraded-input) windows are overwritten with true
    /// recomputations, so the post-recovery state matches a fault-free
    /// run bitwise (absent sticky `PersistLast` repairs).
    fn recover(&mut self, esm: &mut CoupledEsm, failed: Side, w: u64) -> Result<(), EsmError> {
        let (restored, _) = self.core.restore(esm, w)?;
        let base = restored.completed;
        let failed_gen = restored.gens[failed.idx()];
        self.detector.mark_respawned(self.w0 + w, failed.rank(), failed_gen);
        self.core.report.respawns += 1;

        for v in base..w {
            self.run_one(esm, Side::Fast, v, false)?;
            self.run_one(esm, Side::Slow, v, false)?;
        }
        self.next_run = [w, w];
        self.core.report.replayed_windows += w - base;
        self.detector.mark_recovered(self.w0 + w, failed.rank(), w - base);
        self.down[failed.idx()] = false;
        self.respawn_at[failed.idx()] = None;
        if let Some(plan) = &self.plan {
            plan.revive(failed.rank());
        }
        Ok(())
    }
}

/// Replace every value of one side's state with NaN: a declared-dead
/// rank's live memory is gone, and recovery must prove it rebuilds the
/// state from checkpoints alone.
fn poison(esm: &mut CoupledEsm, side: Side) {
    let mut s = esm.snapshot_side(side);
    for (_, data) in s.vars.iter_mut() {
        data.fill(f64::NAN);
    }
    esm.restore_side(side, &s);
}

impl CoupledEsm {
    /// Run `n_windows` coupling windows under component supervision:
    /// per-window heartbeats with a missed-beat failure detector,
    /// persistence-fallback degraded coupling, per-field quarantine of
    /// exchanged fluxes, and localized rank recovery from per-side
    /// checkpoint rings in `dir`. Faults come from `plan` (kills, hangs,
    /// dropped beats) and from `scfg.corrupt_flux`.
    pub fn run_windows_supervised(
        &mut self,
        n_windows: u64,
        dir: &Path,
        scfg: &SupervisorConfig,
        plan: Option<Arc<FaultPlan>>,
    ) -> Result<ResilienceReport, EsmError> {
        let t0 = Instant::now();
        let n = n_windows;
        let mut gate_fast = QuarantineGate::new(scfg.policy);
        gate_fast.declare_all(&coupler::fluxreg::bounds_of("atmo"));
        gate_fast.declare_all(&coupler::fluxreg::bounds_of("land"));
        let mut gate_slow = QuarantineGate::new(scfg.policy);
        gate_slow.declare_all(&coupler::fluxreg::bounds_of("ocean"));

        // Seeded with the pre-run pendings so even window 0 can degrade.
        let fallback = [&self.pending_to_fast, &self.pending_to_slow].map(|pending| {
            let mut f = PersistenceFallback::new(scfg.max_consecutive_degraded);
            f.accept(pending);
            f
        });
        // Each side's "output of window -1" is what its peer starts from.
        let out_log = [&self.pending_to_slow, &self.pending_to_fast].map(|pending| {
            let mut log = vec![None; n as usize + 1];
            log[0] = Some((pending.clone(), true));
            log
        });

        let policy = CheckpointPolicy {
            sides: &[Some(Side::Fast), Some(Side::Slow)],
            n_files: 2,
            keep: KEEP_GENERATIONS,
            n_readers: 2,
            storage: &scfg.storage,
            retry: scfg.checkpoint_retry,
            corrupt: &[],
        };
        let core = Recovery::open(self, dir, policy, &scfg.sdc, scfg.quiescence_checks)?;
        let mut sup = Supervision {
            scfg,
            plan,
            w0: self.windows_run,
            core,
            out_log,
            gates: [gate_fast, gate_slow],
            fallback,
            detector: FailureDetector::new(3, &scfg.health),
            next_run: [0, 0],
            down: [false, false],
            respawn_at: [None, None],
            respawns: [0, 0],
        };
        // Generation covering the starting state, so window 0 can recover.
        sup.core.checkpoint(self, 0, None)?;

        for w in 0..n {
            let abs = sup.w0 + w;

            // ---- 0. SDC chaos: due in-state bit flips fire before
            // anything runs this window (plan windows are 1-based).
            sup.core.fire_flips(self, w + 1);

            // ---- 1. due respawns happen before anything else this window.
            for side in SIDES {
                if sup.down[side.idx()] && sup.respawn_at[side.idx()].is_some_and(|at| w >= at) {
                    sup.recover(self, side, w)?;
                }
            }

            // ---- 2. heartbeat round with health-probe payloads.
            let probes = SIDES.map(|side| self.first_nonfinite(side));
            let payloads: Vec<Vec<f64>> = vec![
                Vec::new(),
                vec![abs as f64, probes[0].is_some() as u8 as f64],
                vec![abs as f64, probes[1].is_some() as u8 as f64],
            ];
            let down_ranks = [false, sup.down[0], sup.down[1]];
            let plan = sup.plan.as_ref();
            let statuses = sup.core.round(plan, || {
                let beat = mpisim::BeatConfig::default();
                heartbeat_round_traced(3, abs, &beat, plan, &down_ranks, &payloads)
            });
            let verdicts = sup.detector.observe(abs, &statuses);

            // ---- 3. transitions: declare failures, schedule respawns.
            for side in SIDES {
                let i = side.idx();
                match verdicts[side.rank()] {
                    Verdict::NewlyFailed => {
                        sup.down[i] = true;
                        sup.lose(self, side, abs)?;
                        sup.respawn_at[i] = Some(w + scfg.respawn_delay_windows);
                    }
                    Verdict::Healthy => {
                        if !sup.down[i] {
                            if let Some((var, value)) = &probes[i] {
                                sup.detector.mark_unhealthy_state(abs, side.rank(), var, *value);
                            }
                        }
                    }
                    Verdict::Suspected | Verdict::Down => {}
                }
            }
            if sup.down[0] && sup.down[1] {
                return Err(HealthError::AllComponentsDown { window: abs }.into());
            }

            // ---- 4a. catch-up: a side that resumed beating after
            // transient misses runs its backlog solo from the flux logs —
            // state intact, zero degraded windows. A suspected or down
            // side holds.
            let live =
                SIDES.map(|s| !sup.down[s.idx()] && verdicts[s.rank()] == Verdict::Healthy);
            for side in SIDES.into_iter().filter(|s| live[s.idx()]) {
                sup.catch_up(self, side, w)?;
            }
            // ---- 4b. the current window, fast side first (matching the
            // sequential driver's order).
            for side in SIDES.into_iter().filter(|s| live[s.idx()]) {
                sup.run_one(self, side, w, true)?;
            }

            // ---- 4c. quiescence checksums: a flipped bit in a static
            // buffer is localized to its owning side, the screen repairs
            // it from the pristine reference, and the side is treated
            // like a failed rank — its dynamic state may already have
            // consumed the corrupt static, so it is poisoned and jointly
            // recovered from the rings onto the now-clean statics within
            // the same window.
            let dirty = sup.core.screen_statics(self);
            if !dirty.is_empty() {
                sup.core.charge(Detector::Checksum);
            }
            for side in SIDES {
                let mine: Vec<_> = (dirty.iter()).filter(|d| d.1 == side).map(|d| d.0).collect();
                if mine.is_empty() {
                    continue;
                }
                sup.core.report.faults_absorbed.push(format!(
                    "window {abs}: quiescent checksum mismatch on {} side: {}",
                    side.stem(),
                    mine.join(", ")
                ));
                sup.lose(self, side, abs)?;
                sup.recover(self, side, w + 1)?;
            }

            // ---- 5. checkpoint — only fully healthy, fully true state.
            let all_true = SIDES.iter().all(|s| {
                sup.next_run[s.idx()] == w + 1
                    && matches!(&sup.out_log[s.idx()][w as usize + 1], Some((_, true)))
            });
            if all_true
                && !sup.detector.any_unhealthy()
                && (w + 1).is_multiple_of(scfg.checkpoint_every)
            {
                sup.core.checkpoint(self, w + 1, None)?;
                // Forget the logged outputs below the oldest base recovery
                // can still restore and below both sides' next window.
                let oldest = sup.core.oldest_base().unwrap_or(u64::MAX);
                let floor = oldest.min(sup.next_run[0]).min(sup.next_run[1]) as usize;
                for log in &mut sup.out_log {
                    log[..floor].iter_mut().for_each(|e| *e = None);
                }
            }
        }

        // ---- drain: recover a side still down at the end, then run any
        // held-back windows so the returned state covers all `n` windows.
        for side in SIDES {
            if sup.down[side.idx()] {
                sup.recover(self, side, n)?;
            }
        }
        for side in SIDES {
            sup.catch_up(self, side, n)?;
        }

        // Hand the lag state back to the plain drivers.
        let last = |side: Side| {
            let out = sup.out_log[side.idx()][n as usize].clone();
            out.expect("both sides drained through the last window").0
        };
        self.pending_to_slow = last(Side::Fast);
        self.pending_to_fast = last(Side::Slow);
        self.windows_run = sup.w0 + n;
        self.timers.account_call(t0, n as f64 * self.cfg.coupling_s);

        let mut report = sup.core.finish(self, n);
        report.timeline = sup.detector.into_timeline();
        let mut events: Vec<_> = sup.gates[0].events().to_vec();
        events.extend_from_slice(sup.gates[1].events());
        events.sort_by_key(|e| e.window);
        report.quarantine_events = events;
        if let Some(plan) = &sup.plan {
            let fr = plan.report();
            report
                .faults_absorbed
                .push(format!("injected faults: {fr:?}"));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsmConfig;
    use crate::health::HealthEventKind;
    use coupler::FluxError;
    use iosys::restart::scratch_dir;
    use std::time::Duration;

    fn tiny() -> CoupledEsm {
        CoupledEsm::new(EsmConfig::tiny())
    }

    fn quick_scfg() -> SupervisorConfig {
        SupervisorConfig {
            health: HealthConfig::default(),
            ..SupervisorConfig::default()
        }
    }

    fn assert_states_eq(a: &CoupledEsm, b: &CoupledEsm) {
        assert_eq!(a.atm.state, b.atm.state, "atmosphere state diverged");
        assert_eq!(a.ocean.state, b.ocean.state, "ocean state diverged");
        assert_eq!(a.land.state, b.land.state, "land state diverged");
        for (x, y) in a.hamocc.tracers.iter().zip(&b.hamocc.tracers) {
            assert_eq!(x, y, "BGC tracers diverged");
        }
        assert_eq!(a.pending_to_fast, b.pending_to_fast);
        assert_eq!(a.pending_to_slow, b.pending_to_slow);
        assert_eq!(a.windows_run, b.windows_run);
    }

    #[test]
    fn fault_free_supervised_run_matches_plain_run_bitwise() {
        let dir = scratch_dir("sup_plain");
        let mut a = tiny();
        let report = a
            .run_windows_supervised(4, &dir, &quick_scfg(), None)
            .unwrap();
        let mut b = tiny();
        b.run_windows(4, false).unwrap();
        assert_states_eq(&a, &b);
        assert_eq!(report.windows_run, 4);
        assert_eq!(report.degraded_windows, 0);
        assert_eq!(report.respawns, 0);
        assert!(report.quarantine_events.is_empty());
        // Initial + after windows 2 and 4, two rings each.
        assert_eq!(report.checkpoints_written, 6);
        // The call's wall time is accounted like a plain run's.
        let t = &a.timers;
        assert!(t.tau() > 0.0, "{t:?}");
        assert!(t.total_s >= t.atm_land_s.max(t.ocean_bgc_s), "{t:?}");
        assert_eq!(t.threads, rayon::current_num_threads());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn killed_slow_rank_degrades_then_recovers_bitwise() {
        let dir = scratch_dir("sup_kill");
        let plan = Arc::new(FaultPlan::new().kill_rank(2, 3));
        let mut a = tiny();
        let report = a
            .run_windows_supervised(8, &dir, &quick_scfg(), Some(plan))
            .unwrap();
        // Misses at windows 3 and 4 (threshold 2): window 4 is degraded
        // for the fast side, then the respawn at window 5 replays from
        // the window-2 checkpoints.
        assert_eq!(report.degraded, vec![4], "{:?}", report.timeline);
        assert_eq!(report.respawns, 1);
        assert!(report.replayed_windows >= 2);
        let kinds: Vec<_> = report.timeline.iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.iter().any(|k| matches!(k, HealthEventKind::Failed)));
        assert!(kinds.iter().any(|k| matches!(k, HealthEventKind::Respawned { .. })));
        assert!(kinds.iter().any(|k| matches!(k, HealthEventKind::Recovered)));

        let mut b = tiny();
        b.run_windows(8, false).unwrap();
        assert_states_eq(&a, &b);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A kill after the rings have pruned their oldest generations, with
    /// the newest common base unreadable: recovery falls back to an older
    /// base the rings still keep, and replays from flux-log entries that
    /// pruning must have left in place.
    #[test]
    fn kill_after_the_rings_pruned_recovers_bitwise_from_an_older_base() {
        use iosys::{FaultFs, OpKind, StorageFault};
        // Checkpoints at windows 0, 2, ..., 12 before the slow rank dies
        // at window 13: more than KEEP_GENERATIONS of them.
        let run = |fs: Arc<FaultFs>| {
            let dir = scratch_dir("sup_kill_late");
            let scfg = SupervisorConfig {
                storage: Some(fs as Arc<dyn Storage>),
                ..quick_scfg()
            };
            let plan = Arc::new(FaultPlan::new().kill_rank(2, 13));
            let mut esm = tiny();
            let report = esm.run_windows_supervised(16, &dir, &scfg, Some(plan)).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            (esm, report)
        };
        // A fault-free pass finds the recovery's first file read (the
        // newest fast-side generation) among the read-class ops.
        let probe = Arc::new(FaultFs::new());
        run(probe.clone());
        let reads: Vec<OpKind> = (probe.op_log().into_iter().map(|o| o.kind))
            .filter(|k| matches!(k, OpKind::Read | OpKind::List))
            .collect();
        let nth_read = 1 + reads.iter().position(|k| *k == OpKind::Read).unwrap() as u64;

        let fs = FaultFs::new().fault(StorageFault::ReadFail { nth_read });
        let (a, report) = run(Arc::new(fs));
        assert!(report.checkpoints_written > 2 * KEEP_GENERATIONS as u64, "{report:?}");
        assert_eq!(report.respawns, 1, "{:?}", report.timeline);
        assert_eq!(report.generation_fallbacks, 1, "the window-12 base is unreadable");
        assert_eq!(report.replayed_windows, 5, "replayed from the window-10 base");

        let mut b = tiny();
        b.run_windows(16, false).unwrap();
        assert_states_eq(&a, &b);
    }

    #[test]
    fn transient_beat_drop_catches_up_with_zero_degraded_windows() {
        let dir = scratch_dir("sup_drop");
        // Drop the slow rank's 3rd beat (window 2): one miss, then the
        // beat resumes before the threshold — backlog runs solo.
        let plan = Arc::new(FaultPlan::new().inject(2, 0, 3, mpisim::FaultAction::Drop));
        let mut a = tiny();
        let report = a
            .run_windows_supervised(5, &dir, &quick_scfg(), Some(plan))
            .unwrap();
        assert_eq!(report.degraded_windows, 0, "{:?}", report.timeline);
        assert_eq!(report.respawns, 0);
        let kinds: Vec<_> = report.timeline.iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.iter().any(|k| matches!(k, HealthEventKind::BeatMissed { .. })));
        assert!(kinds.iter().any(|k| matches!(k, HealthEventKind::BeatResumed)));
        assert!(!kinds.iter().any(|k| matches!(k, HealthEventKind::Failed)));

        let mut b = tiny();
        b.run_windows(5, false).unwrap();
        assert_states_eq(&a, &b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_nan_is_quarantined_under_clamp_and_rejected_typed() {
        // ClampToBounds: the NaN is repaired deterministically, the run
        // completes, and the event is on the report.
        let dir = scratch_dir("sup_nan_clamp");
        let scfg = SupervisorConfig {
            corrupt_flux: vec![(1, "sst")],
            ..quick_scfg()
        };
        let mut esm = tiny();
        let report = esm.run_windows_supervised(3, &dir, &scfg, None).unwrap();
        assert_eq!(report.quarantine_events.len(), 1);
        let ev = &report.quarantine_events[0];
        assert_eq!((ev.window, ev.field.as_str(), ev.action), (1, "sst", "clamped"));
        // The repaired value never reached the atmosphere.
        assert!(esm.atm.state.t_surface.as_slice().iter().all(|v| v.is_finite()));
        std::fs::remove_dir_all(&dir).ok();

        // Reject: typed abort naming the field.
        let dir = scratch_dir("sup_nan_reject");
        let scfg = SupervisorConfig {
            corrupt_flux: vec![(1, "sst")],
            policy: RepairPolicy::Reject,
            ..quick_scfg()
        };
        match tiny().run_windows_supervised(3, &dir, &scfg, None) {
            Err(EsmError::Flux {
                window: 1,
                error: FluxError::NonFinite { field, .. },
            }) => assert_eq!(field, "sst"),
            other => panic!("expected typed NonFinite rejection, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bgc_only_nan_is_an_unhealthy_slow_side_naming_the_tracer() {
        let dir = scratch_dir("sup_bgc_nan");
        let mut esm = tiny();
        esm.hamocc.tracers[3].as_mut_slice()[0] = f64::NAN;
        // The slow side owns the BGC buffers, and the probe names the
        // concrete snapshot variable, not the tracer family's table row.
        assert!(esm.first_nonfinite(Side::Fast).is_none());
        let (var, value) = esm.first_nonfinite(Side::Slow).expect("slow side probes the BGC");
        assert_eq!(var, "bgc.tr03");
        assert!(value.is_nan());
        let report = esm.run_windows_supervised(1, &dir, &quick_scfg(), None).unwrap();
        let unhealthy: Vec<_> = (report.timeline.iter())
            .filter_map(|e| match &e.kind {
                HealthEventKind::UnhealthyState { var, .. } => Some((e.rank, var.as_str())),
                _ => None,
            })
            .collect();
        assert_eq!(unhealthy, [(Side::Slow.rank(), "bgc.tr03")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_nan_is_absorbed_under_persist_last() {
        // PersistLast: the offending field is replaced wholesale from its
        // last clean value, the run continues, and nothing non-finite
        // reaches component state. (window 2: "sst" has a clean window-1
        // value cached to persist from.)
        let dir = scratch_dir("sup_nan_persist");
        let scfg = SupervisorConfig {
            corrupt_flux: vec![(2, "sst")],
            policy: RepairPolicy::PersistLast,
            ..quick_scfg()
        };
        let mut esm = tiny();
        let report = esm.run_windows_supervised(4, &dir, &scfg, None).unwrap();
        assert_eq!(report.quarantine_events.len(), 1);
        assert_eq!(report.quarantine_events[0].action, "persisted");
        assert!(esm.atm.state.t_surface.as_slice().iter().all(|v| v.is_finite()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervised_run_absorbs_transient_checkpoint_faults_bitwise() {
        use iosys::{FaultFs, StorageFault};

        let dir = scratch_dir("sup_storage");
        let storage: Arc<dyn Storage> = Arc::new(
            FaultFs::new()
                .fault(StorageFault::TransientIo { nth_write: 2 })
                .fault(StorageFault::TornWrite { nth_write: 5, keep: 9 })
                .fault(StorageFault::RenameFail { nth_rename: 7 }),
        );
        let scfg = SupervisorConfig {
            storage: Some(storage),
            checkpoint_retry: RetryPolicy {
                attempts: 3,
                backoff: Duration::from_micros(200),
            },
            ..quick_scfg()
        };
        let mut a = tiny();
        let report = a.run_windows_supervised(4, &dir, &scfg, None).unwrap();
        assert_eq!(report.checkpoint_failures, 0, "all faults transient: {:?}", report.faults_absorbed);
        assert_eq!(report.checkpoints_written, 6);
        assert!(report.checkpoint_retries >= 3, "{}", report.checkpoint_retries);

        let mut b = tiny();
        b.run_windows(4, false).unwrap();
        assert_states_eq(&a, &b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_free_quiescence_checks_never_fire() {
        let dir = scratch_dir("sup_sdc_clean");
        let scfg = SupervisorConfig {
            quiescence_checks: true,
            ..quick_scfg()
        };
        let mut a = tiny();
        let report = a.run_windows_supervised(4, &dir, &scfg, None).unwrap();
        assert_eq!(report.sdc_detected_checksum, 0);
        assert_eq!(report.sdc_false_positives, 0);
        assert_eq!(report.respawns, 0);
        let mut b = tiny();
        b.run_windows(4, false).unwrap();
        assert_states_eq(&a, &b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quiescent_flip_is_localized_to_its_side_and_recovered_bitwise() {
        use crate::sdc::{FlipTarget, StateFaultPlan};
        // Flip a mantissa bit in the ocean layer thicknesses (slow side)
        // before window 3. The per-side CRC must localize it to the slow
        // side, repair the static, and recover only that side's rank.
        let dir = scratch_dir("sup_sdc_flip");
        let sdc = Arc::new(StateFaultPlan::new().flip(
            3,
            FlipTarget::Quiescent("static.oce_dz"),
            2,
            14,
        ));
        let scfg = SupervisorConfig {
            quiescence_checks: true,
            sdc: Some(sdc.clone()),
            ..quick_scfg()
        };
        let mut a = tiny();
        let report = a.run_windows_supervised(4, &dir, &scfg, None).unwrap();
        assert_eq!(report.sdc_injected, 1);
        assert_eq!(report.sdc_detected_checksum, 1);
        assert_eq!(report.respawns, 1, "only the slow side respawns");
        let log = sdc.injections();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].buffer, "static.oce_dz");
        assert!(
            report.faults_absorbed.iter().any(|s| s.contains("slow side")),
            "{:?}",
            report.faults_absorbed
        );
        // Containment: bitwise identical to a fault-free run.
        let mut b = tiny();
        b.run_windows(4, false).unwrap();
        assert_states_eq(&a, &b);
        assert_eq!(
            a.ocean.params.dz, b.ocean.params.dz,
            "static buffer repaired bit-exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degraded_budget_exhaustion_is_a_typed_error() {
        let dir = scratch_dir("sup_budget");
        let scfg = SupervisorConfig {
            max_consecutive_degraded: 1,
            // Never respawn within the run: degradation must exhaust.
            respawn_delay_windows: 100,
            ..quick_scfg()
        };
        let plan = Arc::new(FaultPlan::new().kill_rank(2, 1));
        match tiny().run_windows_supervised(8, &dir, &scfg, Some(plan)) {
            Err(EsmError::Flux {
                error: FluxError::DegradedBudgetExhausted { budget: 1, .. },
                ..
            }) => {}
            other => panic!("expected degraded-budget exhaustion, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
