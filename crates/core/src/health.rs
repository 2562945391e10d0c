//! Component health monitoring: deadline-based failure detection over
//! mpisim heartbeats.
//!
//! One [`mpisim::heartbeat_round`] per coupling window gives the monitor
//! a per-rank [`BeatStatus`]; the [`FailureDetector`] turns that stream
//! of evidence into verdicts by **missed-beat accrual**: each miss bumps
//! a per-rank suspicion counter, any successful beat resets it, and a
//! rank whose suspicion reaches the configured threshold is declared
//! failed. This separates *detection* (cheap, per-window, tolerant of
//! transient drops) from *declaration* (the expensive decision that
//! triggers degraded-mode coupling and localized recovery in the
//! supervisor).
//!
//! Every observation that changes a rank's standing is appended to a
//! timeline of [`HealthEvent`]s, which the supervisor merges into the
//! [`crate::ResilienceReport`].

use mpisim::BeatStatus;

/// Tuning of the failure detector. Its heartbeat transport has no
/// deadline to tune: a beat is missed when the round's world goes
/// quiescent without it (the rule in [`mpisim::comm`]), so a hung rank's
/// silence is seen as soon as every other rank is done.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Consecutive missed beats before a rank is declared failed.
    pub suspicion_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            suspicion_threshold: 2,
        }
    }
}

/// One entry of the supervision timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    pub window: u64,
    pub rank: usize,
    pub kind: HealthEventKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum HealthEventKind {
    /// A beat missed its deadline; suspicion after the miss.
    BeatMissed { suspicion: u32 },
    /// A suspected rank beat again before reaching the threshold.
    BeatResumed,
    /// A live component reported non-finite state through its health
    /// probe (the beat payload).
    UnhealthyState { var: String, value: f64 },
    /// Suspicion reached the threshold: the rank is declared failed.
    Failed,
    /// The supervisor respawned the rank from this checkpoint generation.
    Respawned { generation: u64 },
    /// Replay after a respawn caught the rank back up.
    ReplayCompleted { replayed: u64 },
    /// The rank is healthy again; normal coupling resumed.
    Recovered,
}

impl std::fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let HealthEvent { window, rank, kind } = self;
        match kind {
            HealthEventKind::BeatMissed { suspicion } => {
                write!(f, "window {window}: rank {rank} missed a beat (suspicion {suspicion})")
            }
            HealthEventKind::BeatResumed => {
                write!(f, "window {window}: rank {rank} resumed beating")
            }
            HealthEventKind::UnhealthyState { var, value } => {
                write!(f, "window {window}: rank {rank} unhealthy state {var} = {value}")
            }
            HealthEventKind::Failed => write!(f, "window {window}: rank {rank} declared failed"),
            HealthEventKind::Respawned { generation } => {
                write!(f, "window {window}: rank {rank} respawned from generation {generation}")
            }
            HealthEventKind::ReplayCompleted { replayed } => {
                write!(f, "window {window}: rank {rank} replayed {replayed} windows")
            }
            HealthEventKind::Recovered => write!(f, "window {window}: rank {rank} recovered"),
        }
    }
}

/// A health condition no localized recovery can absorb.
#[derive(Debug, Clone, PartialEq)]
pub enum HealthError {
    /// Every supervised component group is suspected or down at once —
    /// there is no healthy side left to carry degraded coupling.
    AllComponentsDown { window: u64 },
    /// A rank kept failing past the supervisor's respawn budget.
    RespawnBudgetExhausted {
        window: u64,
        rank: usize,
        respawns: u32,
    },
}

impl std::fmt::Display for HealthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthError::AllComponentsDown { window } => {
                write!(f, "window {window}: all component groups down")
            }
            HealthError::RespawnBudgetExhausted {
                window,
                rank,
                respawns,
            } => write!(
                f,
                "window {window}: rank {rank} exhausted its respawn budget ({respawns})"
            ),
        }
    }
}

impl std::error::Error for HealthError {}

/// Per-rank standing after one observed heartbeat round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Beat in time (suspicion reset).
    Healthy,
    /// Missed, but below the threshold — hold the rank's windows, do not
    /// declare failure yet.
    Suspected,
    /// This round's miss crossed the threshold.
    NewlyFailed,
    /// Already declared failed in an earlier round.
    Down,
}

/// Deadline-based failure detector with missed-beat accrual.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    threshold: u32,
    suspicion: Vec<u32>,
    failed: Vec<bool>,
    timeline: Vec<HealthEvent>,
}

impl FailureDetector {
    pub fn new(n_ranks: usize, cfg: &HealthConfig) -> FailureDetector {
        assert!(cfg.suspicion_threshold >= 1);
        FailureDetector {
            threshold: cfg.suspicion_threshold,
            suspicion: vec![0; n_ranks],
            failed: vec![false; n_ranks],
            timeline: Vec::new(),
        }
    }

    /// Fold one round of beat statuses into the detector. Rank 0 (the
    /// monitor itself) always reads healthy.
    pub fn observe(&mut self, window: u64, statuses: &[BeatStatus]) -> Vec<Verdict> {
        statuses
            .iter()
            .enumerate()
            .map(|(rank, status)| {
                if self.failed[rank] {
                    return Verdict::Down;
                }
                if rank == 0 || status.is_ok() {
                    if self.suspicion[rank] > 0 {
                        self.timeline.push(HealthEvent {
                            window,
                            rank,
                            kind: HealthEventKind::BeatResumed,
                        });
                    }
                    self.suspicion[rank] = 0;
                    return Verdict::Healthy;
                }
                self.suspicion[rank] += 1;
                self.timeline.push(HealthEvent {
                    window,
                    rank,
                    kind: HealthEventKind::BeatMissed {
                        suspicion: self.suspicion[rank],
                    },
                });
                if self.suspicion[rank] >= self.threshold {
                    self.failed[rank] = true;
                    self.timeline.push(HealthEvent {
                        window,
                        rank,
                        kind: HealthEventKind::Failed,
                    });
                    Verdict::NewlyFailed
                } else {
                    Verdict::Suspected
                }
            })
            .collect()
    }

    pub fn is_failed(&self, rank: usize) -> bool {
        self.failed[rank]
    }

    pub fn suspicion(&self, rank: usize) -> u32 {
        self.suspicion[rank]
    }

    /// True if any supervised rank is currently suspected or failed —
    /// the supervisor suspends checkpointing under this condition so no
    /// speculative (degraded) state ever reaches the ring.
    pub fn any_unhealthy(&self) -> bool {
        self.suspicion.iter().any(|&s| s > 0) || self.failed.iter().any(|&f| f)
    }

    /// Record a respawn performed by the supervisor.
    pub fn mark_respawned(&mut self, window: u64, rank: usize, generation: u64) {
        self.timeline.push(HealthEvent {
            window,
            rank,
            kind: HealthEventKind::Respawned { generation },
        });
    }

    /// Record a completed replay and clear the rank's failed standing.
    pub fn mark_recovered(&mut self, window: u64, rank: usize, replayed: u64) {
        self.timeline.push(HealthEvent {
            window,
            rank,
            kind: HealthEventKind::ReplayCompleted { replayed },
        });
        self.timeline.push(HealthEvent {
            window,
            rank,
            kind: HealthEventKind::Recovered,
        });
        self.failed[rank] = false;
        self.suspicion[rank] = 0;
    }

    /// Record a live component's non-finite health-probe report.
    pub fn mark_unhealthy_state(&mut self, window: u64, rank: usize, var: &str, value: f64) {
        self.timeline.push(HealthEvent {
            window,
            rank,
            kind: HealthEventKind::UnhealthyState {
                var: var.to_string(),
                value,
            },
        });
    }

    /// The timeline accumulated so far.
    pub fn timeline(&self) -> &[HealthEvent] {
        &self.timeline
    }

    /// Consume the detector, yielding its timeline for the report.
    pub fn into_timeline(self) -> Vec<HealthEvent> {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{heartbeat_round, BeatConfig, CommError, FaultPlan};
    use std::sync::Arc;

    fn cfg(threshold: u32) -> HealthConfig {
        HealthConfig {
            suspicion_threshold: threshold,
        }
    }

    fn miss() -> BeatStatus {
        BeatStatus::Missed(CommError::Timeout { src: 1, tag: 0 })
    }

    fn ok() -> BeatStatus {
        BeatStatus::Ok(vec![1.0])
    }

    #[test]
    fn failure_needs_accrued_misses_and_ok_resets() {
        let mut d = FailureDetector::new(3, &cfg(2));
        assert_eq!(d.observe(1, &[ok(), miss(), ok()])[1], Verdict::Suspected);
        // The rank recovers before the threshold: suspicion resets.
        assert_eq!(d.observe(2, &[ok(), ok(), ok()])[1], Verdict::Healthy);
        assert_eq!(d.suspicion(1), 0);
        // Two consecutive misses cross the threshold exactly once.
        assert_eq!(d.observe(3, &[ok(), miss(), ok()])[1], Verdict::Suspected);
        assert_eq!(d.observe(4, &[ok(), miss(), ok()])[1], Verdict::NewlyFailed);
        assert_eq!(d.observe(5, &[ok(), miss(), ok()])[1], Verdict::Down);
        assert!(d.is_failed(1));
        assert!(!d.is_failed(2));
        // Timeline: miss, resume, miss, miss, failed.
        let kinds: Vec<_> = d.timeline().iter().map(|e| &e.kind).collect();
        assert!(matches!(kinds[1], HealthEventKind::BeatResumed));
        assert!(matches!(kinds.last().unwrap(), HealthEventKind::Failed));
    }

    #[test]
    fn recovery_clears_standing_and_is_on_the_timeline() {
        let mut d = FailureDetector::new(2, &cfg(1));
        d.observe(1, &[ok(), miss()]);
        assert!(d.is_failed(1));
        d.mark_respawned(2, 1, 7);
        d.mark_recovered(2, 1, 3);
        assert!(!d.is_failed(1));
        assert!(!d.any_unhealthy());
        let kinds: Vec<_> = d.timeline().iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.contains(&HealthEventKind::Respawned { generation: 7 }));
        assert!(kinds.contains(&HealthEventKind::ReplayCompleted { replayed: 3 }));
        assert!(kinds.contains(&HealthEventKind::Recovered));
    }

    #[test]
    fn detector_drives_on_real_heartbeats_with_a_killed_rank() {
        let hc = cfg(2);
        let plan = Arc::new(FaultPlan::new().kill_rank(2, 1));
        let mut d = FailureDetector::new(3, &hc);
        let down = [false; 3];
        let payloads: Vec<Vec<f64>> = (0..3).map(|r| vec![r as f64]).collect();
        let mut declared_at = None;
        for w in 1..=3u64 {
            let statuses =
                heartbeat_round(3, w, &BeatConfig::default(), Some(&plan), &down, &payloads);
            let verdicts = d.observe(w, &statuses);
            assert_eq!(verdicts[1], Verdict::Healthy);
            if verdicts[2] == Verdict::NewlyFailed {
                declared_at = Some(w);
            }
        }
        assert_eq!(
            declared_at,
            Some(2),
            "two accrued misses (threshold 2) declare at window 2"
        );
    }

    #[test]
    fn hangs_are_detected_without_killing_the_rank() {
        let hc = HealthConfig::default();
        let plan = Arc::new(FaultPlan::new().hang(1, 1));
        let mut d = FailureDetector::new(3, &hc);
        let payloads: Vec<Vec<f64>> = (0..3).map(|_| vec![0.0]).collect();
        for w in 1..=2u64 {
            let statuses = heartbeat_round(
                3,
                w,
                &BeatConfig::default(),
                Some(&plan),
                &[false; 3],
                &payloads,
            );
            d.observe(w, &statuses);
        }
        assert!(d.is_failed(1), "a persistent hang must cross the threshold");
        assert!(!plan.is_dead(1), "the hung rank was never killed");
    }

    #[test]
    fn errors_display_usefully() {
        let e = HealthError::AllComponentsDown { window: 4 };
        assert!(e.to_string().contains("window 4"));
        let e = HealthError::RespawnBudgetExhausted {
            window: 9,
            rank: 2,
            respawns: 3,
        };
        assert!(e.to_string().contains("rank 2"));
    }
}
