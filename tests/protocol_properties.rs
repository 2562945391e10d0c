//! Property tests for protocol exploration (DESIGN.md §15). Everything
//! here runs real closures on the real world scheduler; nothing is a
//! model of one.
//!
//! 1. **Mutation soundness** — a one-op bug in a round is reported with
//!    its E07xx code: dropping any send of a driver round (run as if the
//!    drop were part of the program) is E0702; retargeting, duplicating,
//!    reordering or removing an op of a small exchange or collective
//!    program is E0701, E0705 or E0704.
//! 2. **Clean closure** — the unmutated driver rounds explore clean, and
//!    the live drivers' exit check and the exploration itself give the
//!    same answer at every pool width in [`THREAD_COUNTS`].

use esm_core::{explore_rounds, CoupledEsm, EsmConfig, ResilienceConfig};
use mpisim::{explore, heartbeat_round_traced, BeatConfig, Comm, ProtoCode, World};
use proptest::prelude::*;
use std::time::Duration;

/// Pool widths the live exit check and the exploration are repeated at.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// The tag the exchange program uses, and one nothing receives on.
const TAG: u64 = 10;
const ALIEN_TAG: u64 = 999_983;

/// A one-op edit of the exchange program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Edit {
    None,
    Retarget(usize),
    Duplicate(usize),
}

/// Every rank sends to every peer on [`TAG`], waits at a barrier, then
/// receives from every peer. The barrier makes "all sends are queued
/// before any receive" part of the program, so a duplicated send is
/// queued beside its original on every run. `edit` changes the `k`-th
/// send, counted rank-major.
fn exchange(c: &Comm, edit: Edit) {
    let (me, n) = (c.rank(), c.size());
    let peers = (0..n).filter(|&p| p != me);
    for (i, peer) in peers.clone().enumerate() {
        let k = me * (n - 1) + i;
        let tag = if edit == Edit::Retarget(k) { ALIEN_TAG } else { TAG };
        c.send(peer, tag, &[me as f64]);
        if edit == Edit::Duplicate(k) {
            c.send(peer, tag, &[me as f64]);
        }
    }
    c.barrier();
    for peer in peers {
        c.recv(peer, TAG);
    }
}

/// The codes the fault-free run of `body` on `n` ranks reports.
fn nominal_codes(n: usize, body: impl Fn(&Comm) + Sync) -> Vec<ProtoCode> {
    let report = explore("mutant", n, 1, |plan| World::run_traced(n, plan.cloned(), |c| body(&c)));
    report.nominal.codes().into_iter().collect()
}

/// Collectives every rank calls in the same order, unless mutated.
fn ladder(c: &Comm, ops: &[usize]) {
    for &op in ops {
        let _ = match op {
            0 => {
                c.barrier();
                0.0
            }
            1 => c.allreduce_sum(1.0),
            2 => c.allreduce_max(1.0),
            _ => c.allreduce_min(1.0),
        };
    }
}

/// Dropping any send of any driver round, classified as if the drop were
/// part of the program, leaves a receive no send satisfies: E0702 (the
/// halo exchange's blocking receives could also meet in a cycle, E0703).
#[test]
fn dropping_any_send_is_rejected_with_e0702() {
    let mut checked = 0;
    for r in explore_rounds() {
        let report = &r.report;
        for run in report.faults.iter().filter(|run| run.fault.starts_with("drop send")) {
            let codes = run.codes();
            let hit = codes.contains(&ProtoCode::UnmatchedRecv)
                || (report.name == "coupler-exchange" && codes.contains(&ProtoCode::Deadlock));
            assert!(hit, "{} on {} ranks, {}: {:?}", report.name, report.n, run.fault, codes);
            checked += 1;
        }
    }
    assert!(checked > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Retargeting any send's tag orphans both ends of the channel:
    /// E0701 for the message nothing takes, E0702 for the starved
    /// receive.
    #[test]
    fn retargeting_any_send_tag_is_rejected_with_e0701(n in 2usize..5, raw in 0usize..64) {
        let k = raw % (n * (n - 1));
        let codes = nominal_codes(n, |c| exchange(c, Edit::Retarget(k)));
        prop_assert!(codes.contains(&ProtoCode::UnmatchedSend), "send {k}: {codes:?}");
        prop_assert!(codes.contains(&ProtoCode::UnmatchedRecv), "send {k}: {codes:?}");
    }

    /// Duplicating any send queues two messages on one (src, dst, tag):
    /// E0705.
    #[test]
    fn duplicating_any_send_is_rejected_with_e0705(n in 2usize..5, raw in 0usize..64) {
        let k = raw % (n * (n - 1));
        let codes = nominal_codes(n, |c| exchange(c, Edit::Duplicate(k)));
        prop_assert!(codes.contains(&ProtoCode::TagCollision), "send {k}: {codes:?}");
    }

    /// Swapping two adjacent collectives in one rank makes the members
    /// of one collective call different ops: E0704.
    #[test]
    fn reordering_a_collective_is_rejected_with_e0704(
        n in 2usize..5,
        rank_raw in 0usize..8,
        pos in 0usize..3,
    ) {
        let rank = rank_raw % n;
        let codes = nominal_codes(n, |c| {
            let mut ops = vec![0, 1, 2, 3];
            if c.rank() == rank {
                ops.swap(pos, pos + 1);
            }
            ladder(c, &ops);
        });
        prop_assert_eq!(codes, vec![ProtoCode::CollectiveDivergence], "swap at rank {} pos {}", rank, pos);
    }

    /// Removing a collective from one rank also leaves the members of
    /// one collective out of step — mismatched, or stuck: E0704.
    #[test]
    fn removing_a_collective_is_rejected_with_e0704(
        n in 2usize..5,
        rank_raw in 0usize..8,
        pos in 0usize..4,
    ) {
        let rank = rank_raw % n;
        let codes = nominal_codes(n, |c| {
            let mut ops = vec![0, 1, 2, 3];
            if c.rank() == rank {
                ops.remove(pos);
            }
            ladder(c, &ops);
        });
        prop_assert_eq!(codes, vec![ProtoCode::CollectiveDivergence], "removal at rank {} pos {}", rank, pos);
    }
}

// ---------------------------------------------------------------------
// Clean closure: the unmutated rounds explore clean, and the answer does
// not depend on the pool width.
// ---------------------------------------------------------------------

fn set_width(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim build_global is infallible");
}

#[test]
fn unmutated_driver_rounds_explore_clean() {
    for r in explore_rounds() {
        let report = &r.report;
        let label = format!("{} on {} ranks", report.name, report.n);
        assert_eq!(report.nominal_errors(), 0, "{label}: {:#?}", report.nominal);
        assert!(!report.faults.is_empty(), "{label}");
        if r.gate_faults {
            assert_eq!(report.fault_errors(), 0, "{label}: {:#?}", report.faults);
        }
    }
    for n in 2..5 {
        assert_eq!(nominal_codes(n, |c| exchange(c, Edit::None)), vec![], "exchange on {n}");
        assert_eq!(nominal_codes(n, |c| ladder(c, &[0, 1, 2, 3])), vec![], "ladder on {n}");
    }
}

/// A deadline receive expires only when the world is quiescent, never
/// on a clock: a peer that sleeps 300 ms before it sends (a descheduled
/// thread) is still waited for.
#[test]
fn deadline_receive_waits_for_a_slow_peer() {
    let results = mpisim::World::run(2, |comm| {
        if comm.rank() == 1 {
            std::thread::sleep(Duration::from_millis(300));
            comm.send(0, 9, &[42.0]);
            Ok(Vec::new())
        } else {
            comm.recv_deadline(1, 9)
        }
    });
    assert_eq!(results[0], Ok(vec![42.0]));
}

/// This is the only test in this binary that reconfigures the
/// process-global pool width, so no width lock is needed here.
#[test]
fn live_driver_traces_conform_at_both_widths() {
    let mut explored = Vec::new();
    for &threads in &THREAD_COUNTS {
        set_width(threads);

        // Heartbeat rounds, traced directly: the exit check finds nothing.
        let payloads = vec![vec![0.0; 4], vec![1.0; 4], vec![2.0; 4]];
        for window in 0..3u64 {
            let (statuses, traces) = heartbeat_round_traced(
                3,
                window,
                &BeatConfig::default(),
                None,
                &[false; 3],
                &payloads,
            );
            assert_eq!(statuses.len(), 3);
            assert!(traces.iter().all(|t| t.findings.is_empty()), "width {threads}: {traces:?}");
            // Two components each send one beat the monitor receives.
            let events: usize = traces.iter().map(|t| t.events.len()).sum();
            assert_eq!(events, 4, "width {threads}");
        }

        // Guard rounds, checked by the resilient driver itself.
        let dir = std::env::temp_dir()
            .join(format!("esm_proto_exit_t{threads}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rcfg = ResilienceConfig {
            checkpoint_every: 2,
            ..ResilienceConfig::default()
        };
        let mut esm = CoupledEsm::new(EsmConfig::tiny());
        let report = esm
            .run_windows_resilient(3, false, &dir, &rcfg, None)
            .expect("fault-free run completes");
        assert_eq!(
            report.protocol_violations,
            Vec::<String>::new(),
            "width {threads}: fault-free guard rounds must pass the exit check"
        );
        assert!(report.protocol_rounds >= 3, "width {threads}");
        assert!(report.protocol_ops_matched > 0, "width {threads}");
        std::fs::remove_dir_all(&dir).ok();

        // Exploration: string-identical run to run and width to width.
        explored.push(format!("{:?}", explore_rounds()));
        explored.push(format!("{:?}", explore_rounds()));
    }
    assert!(explored.windows(2).all(|w| w[0] == w[1]), "exploration depends on the run or the width");
}
