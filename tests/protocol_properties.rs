//! Property tests for the protocol verifier (DESIGN.md §15):
//!
//! 1. **Mutation soundness** — any single-op mutation of a verified
//!    driver spec (drop a send, retarget a tag, duplicate a send,
//!    reorder or remove a collective) is rejected by [`verify_spec`]
//!    with the expected E07xx code. The verifier has no blind spot a
//!    one-op protocol bug can hide in.
//! 2. **Conformance closure** — the unmutated driver specs verify
//!    clean AND the live traces recorded by the running drivers
//!    conform to them at every pool width in [`THREAD_COUNTS`], so
//!    the static spec and the dynamic implementation are provably the
//!    same protocol.

use esm_core::{all_specs, heartbeat_spec, CoupledEsm, EsmConfig, ResilienceConfig};
use mpisim::protocol::{coll, CollOp, Node, Op, Tag};
use mpisim::{conform, heartbeat_round_traced, verify_spec, BeatConfig, ProtoCode, ProtocolSpec};
use proptest::prelude::*;
use std::time::Duration;

/// Pool widths the live-trace conformance check is repeated at.
const THREAD_COUNTS: [usize; 2] = [1, 4];

/// A tag no driver spec uses — retargeting a send here orphans both ends.
const ALIEN_TAG: Tag = Tag::Const(999_983);

// ---------------------------------------------------------------------
// Spec mutators: locate the k-th send (in program order, descending into
// loops and every branch arm) and drop / retarget / duplicate it.
// ---------------------------------------------------------------------

fn for_each_vec(nodes: &mut Vec<Node>, f: &mut impl FnMut(&mut Vec<Node>) -> bool) -> bool {
    if f(nodes) {
        return true;
    }
    for node in nodes.iter_mut() {
        let hit = match node {
            Node::Op(_) => false,
            Node::Loop { body, .. } => for_each_vec(body, f),
            Node::Branch { arms, .. } => {
                arms.iter_mut().any(|a| for_each_vec(&mut a.body, f))
            }
        };
        if hit {
            return true;
        }
    }
    false
}

/// Apply `edit` to the `k`-th send of the spec (counting across ranks);
/// `edit` receives the containing node list and the send's index in it.
/// Returns false when the spec has fewer than `k + 1` sends.
fn edit_kth_send(
    spec: &mut ProtocolSpec,
    k: usize,
    edit: &mut impl FnMut(&mut Vec<Node>, usize),
) -> bool {
    let mut remaining = k;
    for prog in spec.ranks.iter_mut() {
        let hit = for_each_vec(prog, &mut |nodes| {
            for i in 0..nodes.len() {
                if matches!(nodes[i], Node::Op(Op::Send { .. })) {
                    if remaining == 0 {
                        edit(nodes, i);
                        return true;
                    }
                    remaining -= 1;
                }
            }
            false
        });
        if hit {
            return true;
        }
    }
    false
}

fn count_sends(spec: &ProtocolSpec) -> usize {
    fn walk(nodes: &[Node]) -> usize {
        nodes
            .iter()
            .map(|n| match n {
                Node::Op(Op::Send { .. }) => 1,
                Node::Op(_) => 0,
                Node::Loop { body, .. } => walk(body),
                Node::Branch { arms, .. } => arms.iter().map(|a| walk(&a.body)).sum(),
            })
            .sum()
    }
    spec.ranks.iter().map(|p| walk(p)).sum()
}

/// One verified driver spec per `which`, spanning both protocol shapes
/// and two world sizes each.
fn pick_spec(which: usize) -> ProtocolSpec {
    match which {
        0 => esm_core::guard_spec(3),
        1 => esm_core::guard_spec(5),
        2 => heartbeat_spec(3),
        _ => heartbeat_spec(4),
    }
}

fn has_code(report: &mpisim::VerifyReport, code: ProtoCode) -> bool {
    report.diags.iter().any(|d| d.code == code)
}

/// All-ranks-identical collective ladder on the world communicator;
/// verifies clean until one rank's order is perturbed.
fn coll_ladder(n_ranks: usize) -> ProtocolSpec {
    let prog = vec![
        coll(CollOp::Barrier, 0),
        coll(CollOp::Sum, 0),
        coll(CollOp::Max, 0),
        coll(CollOp::Min, 0),
    ];
    ProtocolSpec::new("coll-ladder", vec![prog; n_ranks])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dropping any send orphans the deadline receive that awaited it:
    /// the all-nominal scenario must report E0702.
    #[test]
    fn dropping_any_send_is_rejected_with_e0702(which in 0usize..4, raw in 0usize..4096) {
        let mut spec = pick_spec(which);
        let total = count_sends(&spec);
        prop_assert!(total > 0, "{} has no sends to drop", spec.name);
        let k = raw % total;
        prop_assert!(edit_kth_send(&mut spec, k, &mut |nodes, i| {
            nodes.remove(i);
        }));
        let report = verify_spec(&spec);
        prop_assert!(!report.is_clean(), "{} minus send {k} verified clean", spec.name);
        prop_assert!(
            has_code(&report, ProtoCode::UnmatchedRecv),
            "{} minus send {k}: expected E0702, got {:?}", spec.name, report.diags
        );
    }

    /// Retargeting any send's tag orphans both ends of the channel:
    /// E0701 for the now-unreceivable send, E0702 for the starved recv.
    #[test]
    fn retargeting_any_send_tag_is_rejected_with_e0701(which in 0usize..4, raw in 0usize..4096) {
        let mut spec = pick_spec(which);
        let total = count_sends(&spec);
        let k = raw % total;
        prop_assert!(edit_kth_send(&mut spec, k, &mut |nodes, i| {
            if let Node::Op(Op::Send { tag, .. }) = &mut nodes[i] {
                *tag = ALIEN_TAG;
            }
        }));
        let report = verify_spec(&spec);
        prop_assert!(
            has_code(&report, ProtoCode::UnmatchedSend),
            "{} with send {k} retargeted: expected E0701, got {:?}", spec.name, report.diags
        );
        prop_assert!(
            has_code(&report, ProtoCode::UnmatchedRecv),
            "{} with send {k} retargeted: expected E0702, got {:?}", spec.name, report.diags
        );
    }

    /// Duplicating any send puts two messages in flight on one
    /// (src, dst, tag) edge — E0705, the ambiguity the wire tags exist
    /// to prevent.
    #[test]
    fn duplicating_any_send_is_rejected_with_e0705(which in 0usize..4, raw in 0usize..4096) {
        let mut spec = pick_spec(which);
        let total = count_sends(&spec);
        let k = raw % total;
        prop_assert!(edit_kth_send(&mut spec, k, &mut |nodes, i| {
            let dup = nodes[i].clone();
            nodes.insert(i + 1, dup);
        }));
        let report = verify_spec(&spec);
        prop_assert!(
            has_code(&report, ProtoCode::TagCollision),
            "{} with send {k} duplicated: expected E0705, got {:?}", spec.name, report.diags
        );
    }

    /// Swapping two adjacent collectives in one rank diverges that
    /// rank's collective order from the rest of the communicator: E0704.
    #[test]
    fn reordering_a_collective_is_rejected_with_e0704(
        n in 2usize..5,
        rank_raw in 0usize..8,
        pos in 0usize..3,
    ) {
        let mut spec = coll_ladder(n);
        prop_assert!(verify_spec(&spec).is_clean(), "unmutated ladder must be clean");
        let rank = rank_raw % n;
        spec.ranks[rank].swap(pos, pos + 1);
        let report = verify_spec(&spec);
        prop_assert!(
            has_code(&report, ProtoCode::CollectiveDivergence),
            "swap at rank {rank} pos {pos}: expected E0704, got {:?}", report.diags
        );
    }

    /// Removing a collective from one rank also diverges the order
    /// (the sequences now differ in length): E0704.
    #[test]
    fn removing_a_collective_is_rejected_with_e0704(
        n in 2usize..5,
        rank_raw in 0usize..8,
        pos in 0usize..4,
    ) {
        let mut spec = coll_ladder(n);
        let rank = rank_raw % n;
        spec.ranks[rank].remove(pos);
        let report = verify_spec(&spec);
        prop_assert!(
            has_code(&report, ProtoCode::CollectiveDivergence),
            "removal at rank {rank} pos {pos}: expected E0704, got {:?}", report.diags
        );
    }
}

// ---------------------------------------------------------------------
// Conformance closure: unmutated specs are clean and the live drivers
// produce conforming traces at every pool width.
// ---------------------------------------------------------------------

fn set_width(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim build_global is infallible");
}

#[test]
fn unmutated_driver_specs_verify_clean() {
    for spec in all_specs() {
        let report = verify_spec(&spec);
        assert_eq!(report.errors(), 0, "{}: {:?}", spec.name, report.diags);
        assert_eq!(report.warnings(), 0, "{}: {:?}", spec.name, report.diags);
        assert!(report.ops > 0 && report.scenarios > 0, "{} is non-trivial", spec.name);
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
    for &threads in &THREAD_COUNTS {
        set_width(threads);

        // Heartbeat rounds, traced directly and replayed against the spec.
        let hb = heartbeat_spec(3);
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
            let summary = conform(&hb, window, &traces)
                .unwrap_or_else(|v| panic!("width {threads}: {v}"));
            // Two components each send one beat the monitor receives.
            assert_eq!(summary.ops_matched, 4, "width {threads}");
        }

        // Guard rounds, checked by the resilient driver itself.
        let dir = std::env::temp_dir()
            .join(format!("esm_proto_conform_t{threads}_{}", std::process::id()));
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
            "width {threads}: fault-free guard traces must conform"
        );
        assert!(report.protocol_rounds >= 3, "width {threads}");
        assert!(report.protocol_ops_matched > 0, "width {threads}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
