//! Heartbeat channel for component supervision.
//!
//! One [`heartbeat_round`] spins a small SPMD world: rank 0 is the
//! monitor, every other rank is a supervised component that sends one
//! beat (a short `f64` payload, e.g. health-probe flags) to rank 0 and
//! exits. The monitor collects each beat with a deadline receive and
//! reports a per-rank [`BeatStatus`]; a beat is missed when the world
//! goes quiescent without it (the quiescence rule, [`crate::comm`]).
//!
//! Beats travel over the ordinary fault-injectable point-to-point layer,
//! so a `FaultPlan` can drop a beat (transient miss), kill the sender
//! (persistent silence), or hang it ([`crate::FaultPlan::hang`]: the rank
//! never sends — alive but unresponsive, and to the monitor as silent as
//! a dead one). A single missed beat is therefore *evidence*, not a
//! verdict: failure declaration belongs to a detector that accrues
//! misses across rounds (`esm-core`'s health module).

use crate::fault::CommError;
use crate::{FaultPlan, World};
use std::sync::Arc;

/// Configuration of a heartbeat round. It has no fields: the monitor's
/// deadline is the quiescence rule, not a duration. (Braced, so callers
/// build it with `BeatConfig::default()`.)
#[derive(Debug, Clone, Copy, Default)]
pub struct BeatConfig {}

/// What the monitor saw from one supervised rank in one round.
#[derive(Debug, Clone, PartialEq)]
pub enum BeatStatus {
    /// The beat arrived in time; carries the sender's payload.
    Ok(Vec<f64>),
    /// No (valid) beat before the world went quiescent.
    Missed(CommError),
    /// The supervisor already knows this rank is down; no beat was
    /// expected and none was waited for.
    Down,
}

impl BeatStatus {
    pub fn is_ok(&self) -> bool {
        matches!(self, BeatStatus::Ok(_))
    }
}

/// Run one heartbeat round over `n_ranks` rank-threads (rank 0 monitors
/// ranks `1..n_ranks`). `down[r]` marks ranks the caller already declared
/// failed: they are skipped, not waited for. `payloads[r]` is the beat
/// payload rank `r` would send (index 0 is ignored). Returns one
/// [`BeatStatus`] per rank; rank 0's own entry is always `Ok(vec![])`.
pub fn heartbeat_round(
    n_ranks: usize,
    window: u64,
    cfg: &BeatConfig,
    plan: Option<&Arc<FaultPlan>>,
    down: &[bool],
    payloads: &[Vec<f64>],
) -> Vec<BeatStatus> {
    heartbeat_round_traced(n_ranks, window, cfg, plan, down, payloads).0
}

/// [`heartbeat_round`] plus each rank's trace, so a supervisor can run the
/// exit check on the round ([`crate::World::run_traced`]) and
/// [`crate::explore`] can explore it.
pub fn heartbeat_round_traced(
    n_ranks: usize,
    window: u64,
    _cfg: &BeatConfig,
    plan: Option<&Arc<FaultPlan>>,
    down: &[bool],
    payloads: &[Vec<f64>],
) -> (Vec<BeatStatus>, Vec<crate::protocol::RankTrace>) {
    assert!(n_ranks >= 2, "a heartbeat needs a monitor and a component");
    assert_eq!(down.len(), n_ranks);
    assert_eq!(payloads.len(), n_ranks);

    let body = move |comm: crate::Comm| -> Option<Vec<BeatStatus>> {
        let rank = comm.rank();
        if rank != 0 {
            if down[rank] {
                return None;
            }
            if let Some(plan) = plan {
                // A kill firing this window, a previously fired kill and a
                // hang all mean silence.
                let silent = plan.take_kill(rank, window)
                    || plan.is_dead(rank)
                    || plan.is_hung(rank, window);
                if silent {
                    return None;
                }
            }
            comm.send(0, window, &payloads[rank]);
            return None;
        }
        let mut statuses = vec![BeatStatus::Ok(Vec::new())];
        for (r, &is_down) in down.iter().enumerate().take(n_ranks).skip(1) {
            statuses.push(if is_down {
                BeatStatus::Down
            } else {
                match comm.recv_deadline(r, window) {
                    Ok(payload) => BeatStatus::Ok(payload),
                    Err(e) => BeatStatus::Missed(e),
                }
            });
        }
        Some(statuses)
    };

    let (mut results, traces) = World::run_traced(n_ranks, plan.cloned(), body);
    let statuses = results
        .swap_remove(0)
        .expect("rank 0 always returns the round's statuses");
    (statuses, traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|r| vec![r as f64]).collect()
    }

    #[test]
    fn healthy_ranks_all_beat() {
        let cfg = BeatConfig::default();
        let got = heartbeat_round(3, 1, &cfg, None, &[false; 3], &payloads(3));
        assert_eq!(got[1], BeatStatus::Ok(vec![1.0]));
        assert_eq!(got[2], BeatStatus::Ok(vec![2.0]));
    }

    #[test]
    fn killed_rank_misses_and_stays_silent_in_later_rounds() {
        let cfg = BeatConfig::default();
        let plan = Arc::new(FaultPlan::new().kill_rank(2, 1));
        let got = heartbeat_round(3, 1, &cfg, Some(&plan), &[false; 3], &payloads(3));
        assert!(got[1].is_ok());
        assert!(matches!(got[2], BeatStatus::Missed(_)));
        // Next round: the kill is consumed but the rank is still dead.
        let got = heartbeat_round(3, 2, &cfg, Some(&plan), &[false; 3], &payloads(3));
        assert!(matches!(got[2], BeatStatus::Missed(_)));
        plan.revive(2);
        let got = heartbeat_round(3, 3, &cfg, Some(&plan), &[false; 3], &payloads(3));
        assert!(got[2].is_ok(), "revived rank beats again");
    }

    #[test]
    fn hung_rank_misses_without_dying() {
        let cfg = BeatConfig::default();
        let plan = Arc::new(FaultPlan::new().hang(1, 2));
        let got = heartbeat_round(3, 1, &cfg, Some(&plan), &[false; 3], &payloads(3));
        assert!(got[1].is_ok(), "not hanging before its window");
        for w in [2u64, 3] {
            let got = heartbeat_round(3, w, &cfg, Some(&plan), &[false; 3], &payloads(3));
            assert!(
                matches!(got[1], BeatStatus::Missed(CommError::Timeout { .. })),
                "window {w}: hang must look like a deadline miss, got {:?}",
                got[1]
            );
        }
        assert!(!plan.is_dead(1), "a hang is not a death");
        assert_eq!(plan.report().hung, 1);
    }

    #[test]
    fn known_down_ranks_are_skipped_not_timed_out() {
        let cfg = BeatConfig::default();
        let (got, traces) =
            heartbeat_round_traced(3, 1, &cfg, None, &[false, false, true], &payloads(3));
        assert_eq!(got[2], BeatStatus::Down);
        assert!(
            !traces[0].events.iter().any(|e| matches!(
                e.op,
                crate::TraceOp::Recv { src: 2, .. } | crate::TraceOp::RecvFailed { src: 2, .. }
            )),
            "monitor must not post a receive for a rank it knows is down: {:?}",
            traces[0].events
        );
    }

    #[test]
    fn dropped_beat_is_a_transient_miss() {
        let cfg = BeatConfig::default();
        // First (and only) message on edge 1 -> 0 is the window-1 beat.
        let plan = Arc::new(FaultPlan::new().inject(1, 0, 1, crate::FaultAction::Drop));
        let got = heartbeat_round(3, 1, &cfg, Some(&plan), &[false; 3], &payloads(3));
        assert!(matches!(got[1], BeatStatus::Missed(_)));
        let got = heartbeat_round(3, 2, &cfg, Some(&plan), &[false; 3], &payloads(3));
        assert!(got[1].is_ok(), "the drop was one-shot; the rank is fine");
    }
}
