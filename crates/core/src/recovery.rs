//! The recovery core under both fault-tolerant drivers: global rollback
//! ([`crate::resilience`]) and per-side recovery ([`crate::supervisor`])
//! keep only their window loops and their replays. Everything else they
//! decide is decided here, once: the checkpoint policy over a ring
//! layout, the restore with fallback, the SDC screen, the exit check on
//! live rounds, and the report finish.

use crate::esm::CoupledEsm;
use crate::replay::WindowReplayStats;
use crate::resilience::ResilienceReport;
use crate::sdc::{self, QuiescenceReference, StateFaultPlan};
use crate::state::Side;
use iosys::{CheckpointRing, RealFs, RestartError, RetryPolicy, Snapshot, Storage};
use mpisim::{FaultPlan, ProtoCode, RankTrace};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How a driver checkpoints: one ring per entry of `sides`, holding the
/// whole state (`None`, stem `restart`) or one side's half (`fast`,
/// `slow`).
pub(crate) struct CheckpointPolicy<'a> {
    pub sides: &'static [Option<Side>],
    /// Shard files per generation.
    pub n_files: usize,
    /// Generations each ring retains.
    pub keep: usize,
    /// Staggered reader groups on restore.
    pub n_readers: usize,
    /// `None`: the real file system.
    pub storage: &'a Option<Arc<dyn Storage>>,
    pub retry: RetryPolicy,
    /// Chaos hook: flip one byte in the first shard of these generations
    /// right after they are written (silent storage corruption).
    pub corrupt: &'a [u64],
}

/// A checkpoint that landed on every ring: the completed-window count it
/// covers and one generation per ring, in ring order.
#[derive(Clone)]
pub(crate) struct Base {
    pub completed: u64,
    pub gens: Vec<u64>,
}

/// Which detector an SDC detection came from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detector {
    /// The per-flux physics guard: without an outstanding flip a genuine
    /// model failure, not a false positive.
    Bounds,
    Checksum,
    Audit,
}

/// The recovery state of one fault-tolerant run.
pub(crate) struct Recovery<'a> {
    pub report: ResilienceReport,
    policy: CheckpointPolicy<'a>,
    dir: PathBuf,
    rings: Vec<CheckpointRing>,
    /// Oldest first; only bases every ring still keeps.
    bases: Vec<Base>,
    newest_gen: u64,
    graph0: WindowReplayStats,
    sdc: &'a Option<Arc<StateFaultPlan>>,
    /// Pristine static buffers, when the checksum screen is on.
    reference: Option<QuiescenceReference>,
    /// Injected flips already explained by a detection.
    sdc_attributed: u64,
}

fn stem(side: Option<Side>) -> &'static str {
    side.map_or("restart", Side::stem)
}

impl<'a> Recovery<'a> {
    /// Open the rings of `policy` in `dir`. With `screen_statics` the
    /// static buffers' reference is captured now, before any flip fires.
    pub(crate) fn open(
        esm: &CoupledEsm,
        dir: &Path,
        policy: CheckpointPolicy<'a>,
        sdc: &'a Option<Arc<StateFaultPlan>>,
        screen_statics: bool,
    ) -> Result<Recovery<'a>, RestartError> {
        let storage = policy.storage.clone().unwrap_or_else(RealFs::shared);
        let rings = (policy.sides.iter())
            .map(|&side| {
                let mut ring = CheckpointRing::new_with(storage.clone(), dir, stem(side), policy.keep)?;
                ring.set_retry(policy.retry);
                Ok(ring)
            })
            .collect::<Result<_, RestartError>>()?;
        Ok(Recovery {
            report: ResilienceReport::default(),
            policy,
            dir: dir.to_path_buf(),
            rings,
            bases: Vec::new(),
            newest_gen: 0,
            graph0: esm.replay.stats,
            sdc,
            reference: screen_statics.then(|| QuiescenceReference::capture(esm)),
            sdc_attributed: 0,
        })
    }

    /// Write one generation per ring of the state after `completed`
    /// windows; `whole` is a snapshot of the whole state the caller
    /// already holds. A write that fails beyond the ring's retries is a
    /// recorded degraded event: there is no base at `completed`, and a
    /// later restore falls back to an older one.
    pub(crate) fn checkpoint(
        &mut self,
        esm: &CoupledEsm,
        completed: u64,
        whole: Option<&Snapshot>,
    ) -> Result<(), RestartError> {
        let mut gens = Vec::new();
        for (&side, ring) in self.policy.sides.iter().zip(&mut self.rings) {
            let mut taken = None;
            let snap = match (side, whole) {
                (None, Some(s)) => s,
                (None, None) => &*taken.insert(esm.snapshot()),
                (Some(side), _) => &*taken.insert(esm.snapshot_side(side)),
            };
            match ring.write(snap, self.policy.n_files) {
                Ok(g) => {
                    self.report.checkpoints_written += 1;
                    self.newest_gen = self.newest_gen.max(g);
                    if self.policy.corrupt.contains(&g) {
                        corrupt_shard(&ring.shard_path(g, 0))?;
                    }
                    gens.push(g);
                }
                Err(e) => {
                    self.report.checkpoint_failures += 1;
                    let what = format!("window {completed}: {} checkpoint", stem(side));
                    self.report.faults_absorbed.push(format!("{what} write failed ({e})"));
                }
            }
        }
        if gens.len() == self.rings.len() {
            self.bases.push(Base { completed, gens });
        }
        let rings = &self.rings;
        (self.bases).retain(|b| rings.iter().zip(&b.gens).all(|(r, &g)| r.keeps(g)));
        Ok(())
    }

    /// Completed-window count of the oldest base still restorable.
    pub(crate) fn oldest_base(&self) -> Option<u64> {
        self.bases.first().map(|b| b.completed)
    }

    /// Restore `esm` from the newest base at or before window `w` whose
    /// generations all read back intact, walking newest first; each
    /// skipped base counts one generation fallback. Returns the base and
    /// the snapshots read, in ring order.
    pub(crate) fn restore(
        &mut self,
        esm: &mut CoupledEsm,
        w: u64,
    ) -> Result<(Base, Vec<Snapshot>), RestartError> {
        let mut tried = Vec::new();
        for base in self.bases.iter().rev().filter(|b| b.completed <= w) {
            let read = (self.rings.iter().zip(&base.gens))
                .map(|(ring, &g)| ring.read_generation(g, self.policy.n_readers))
                .collect::<Result<Vec<_>, _>>();
            let Ok(snaps) = read else {
                self.report.generation_fallbacks += 1;
                tried.push(base.gens[0]);
                continue;
            };
            for (&side, snap) in self.policy.sides.iter().zip(&snaps) {
                match side {
                    None => esm.restore(snap),
                    Some(side) => esm.restore_side(side, snap),
                }
            }
            return Ok((base.clone(), snaps));
        }
        Err(RestartError::NoIntactGeneration {
            dir: self.dir.clone(),
            stem: stem(self.policy.sides[0]).to_string(),
            tried,
        })
    }

    /// Fire the in-state bit flips due before `window` (1-based).
    pub(crate) fn fire_flips(&self, esm: &mut CoupledEsm, window: u64) {
        if let Some(plan) = self.sdc {
            sdc::apply_due_flips(esm, plan, window);
        }
    }

    /// Verify every static buffer against its pristine copy and repair
    /// the ones that changed. Returns those with their owning side.
    pub(crate) fn screen_statics(&self, esm: &mut CoupledEsm) -> Vec<(&'static str, Side)> {
        let Some(q) = &self.reference else {
            return Vec::new();
        };
        let dirty = q.verify(esm);
        for name in &dirty {
            q.repair(esm, name);
        }
        dirty.into_iter().map(|b| (b, sdc::quiescent_side(b))).collect()
    }

    /// Charge one detection to every outstanding injected flip: the
    /// restore that follows it brings back checkpointed state, and the
    /// screen has repaired the statics. A checksum or audit detection
    /// with none outstanding is a false positive of an exact detector.
    pub(crate) fn charge(&mut self, detector: Detector) {
        let injected = sdc::injected(self.sdc);
        let r = &mut self.report;
        if injected > self.sdc_attributed {
            self.sdc_attributed = injected;
            *match detector {
                Detector::Bounds => &mut r.sdc_detected_bounds,
                Detector::Checksum => &mut r.sdc_detected_checksum,
                Detector::Audit => &mut r.sdc_detected_audit,
            } += 1;
        } else if detector != Detector::Bounds {
            r.sdc_false_positives += 1;
        }
    }

    /// Run one live communication round with the exit check on its
    /// per-rank traces: a tag collision (E0705), or a message left
    /// unreceived (E0701) in a round where no planned fault fired, is a
    /// protocol violation. Other findings are a fault's degraded mode at
    /// work; the rounds are explored fault by fault in [`crate::rounds`].
    pub(crate) fn round<T>(
        &mut self,
        plan: Option<&Arc<FaultPlan>>,
        run: impl FnOnce() -> (T, Vec<RankTrace>),
    ) -> T {
        let fired = || plan.map_or(0, |p| p.report().total());
        let before = fired();
        let (out, traces) = run();
        let fault_fired = fired() > before;
        let r = &mut self.report;
        r.protocol_rounds += 1;
        for t in &traces {
            r.protocol_ops_matched += t.events.len() as u64;
            let violations = t.findings.iter().filter(|d| match d.code {
                ProtoCode::TagCollision => true,
                ProtoCode::UnmatchedSend => !fault_fired,
                _ => false,
            });
            r.protocol_violations.extend(violations.map(|d| d.to_string()));
        }
        out
    }

    /// The report of a run that completed `windows_run` windows.
    pub(crate) fn finish(self, esm: &CoupledEsm, windows_run: u64) -> ResilienceReport {
        let mut r = self.report;
        r.windows_run = windows_run;
        r.final_generation = self.newest_gen;
        r.checkpoint_retries = self.rings.iter().map(CheckpointRing::io_retries).sum();
        absorb_graph_stats(&mut r, self.graph0, esm.replay.stats);
        r.sdc_injected = sdc::injected(self.sdc);
        r
    }
}

/// What the window record/replay layer did during the run: its lifetime
/// counters now, minus `before` (taken at run start).
fn absorb_graph_stats(r: &mut ResilienceReport, before: WindowReplayStats, now: WindowReplayStats) {
    r.graph_recordings = now.recorded_windows - before.recorded_windows;
    r.graph_replays = now.replayed_windows - before.replayed_windows;
    r.graph_invalidations = now.invalidations - before.invalidations;
    r.graph_rerecords = now.rerecords - before.rerecords;
}

/// Flip one byte in the middle of a shard file (chaos hook), through
/// `std::fs`, outside the storage op log.
fn corrupt_shard(path: &Path) -> Result<(), RestartError> {
    let mut bytes = std::fs::read(path).map_err(RestartError::Io)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, &bytes).map_err(RestartError::Io)
}
