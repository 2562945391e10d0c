//! Recorded execution graphs: the CPU analog of the paper's §5.1
//! CUDA-graph replay.
//!
//! The land model's launch-latency floor (`results/cudagraphs.json`) is
//! dispatch overhead, not FLOPs: hundreds of tiny kernels per step each
//! pay a host-side decision. [`ExecGraph::record`] runs one window of a
//! certified [`CompiledSdfg`] eagerly and freezes everything the host
//! decided along the way — task boundaries from [`rayon::task_ranges`],
//! per-task scratch ([`exec`]'s `StateScratch`) sized to the state, the
//! per-node execution schedule — so [`ExecGraph::replay`] makes **one**
//! dispatch decision per window (plus one per node the analysis left
//! unfrozen) and allocates nothing.
//!
//! **Certification gates freezing** (the record-time analog of "only
//! side-effect-free kernels may enter a CUDA graph"):
//!
//! | verdict                                   | node                   |
//! |-------------------------------------------|------------------------|
//! | `ParallelSafe` (split-buffer eligible)    | frozen parallel ranges |
//! | `ParallelSafe` (self-read) / `Reduction`  | frozen sequential pass |
//! | `Sequential`                              | **unfrozen**: eager    |
//!
//! **Invalidation, never staleness**: every replay revalidates the
//! [`ShapeSignature`] captured at record time (domain sizes, relation
//! tables, field extents, vertical levels). A mismatch returns
//! [`GraphInvalid`] — a typed event the driver answers by re-recording —
//! and never executes a stale schedule. Likewise
//! [`ExecGraph::check_certification`] refuses to replay under a changed
//! verdict vector. Replayed windows are bitwise identical to eager
//! execution *by construction*: the frozen runners share their loop
//! bodies with the eager ones (`run_state_with`,
//! `run_state_parallel_frozen`), differing only in who owns scratch and
//! who counts dispatches.

use crate::analysis::{AnalysisReport, Certification};
use crate::exec::{
    self, run_state_parallel_frozen, run_state_with, CompiledSdfg, DataContext, ExecStats,
    StateScratch, TopologyContext,
};
use crate::sdfg::Sdfg;
use std::collections::BTreeMap;
use std::fmt;

/// Everything a recorded schedule is only valid for: sizes of the world
/// at record time. Ordered maps so signatures compare deterministically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShapeSignature {
    /// Domain name -> entity count.
    domains: BTreeMap<String, usize>,
    /// Relation name -> (arity, table length).
    relations: BTreeMap<String, (usize, usize)>,
    /// Field name -> (entity extent, level extent).
    fields: BTreeMap<String, (usize, usize)>,
    /// Vertical extent of the data context.
    nlev: usize,
}

impl ShapeSignature {
    /// Capture the current shapes of a topology + data context.
    pub fn capture(topo: &TopologyContext, data: &DataContext) -> ShapeSignature {
        ShapeSignature {
            domains: topo.domains.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            relations: topo
                .relations
                .iter()
                .map(|(k, r)| (k.clone(), (r.arity, r.table.len())))
                .collect(),
            fields: data
                .fields
                .iter()
                .map(|(k, b)| (k.clone(), (b.n, b.nlev)))
                .collect(),
            nlev: data.nlev,
        }
    }

    /// First difference against another signature, for diagnostics.
    fn diff(&self, now: &ShapeSignature) -> String {
        if self.nlev != now.nlev {
            return format!("nlev {} -> {}", self.nlev, now.nlev);
        }
        for (name, &rec) in &self.domains {
            match now.domains.get(name) {
                Some(&n) if n == rec => {}
                Some(&n) => return format!("domain '{name}' {rec} -> {n}"),
                None => return format!("domain '{name}' removed"),
            }
        }
        for (name, &rec) in &self.relations {
            match now.relations.get(name) {
                Some(&n) if n == rec => {}
                Some(&n) => return format!("relation '{name}' {rec:?} -> {n:?}"),
                None => return format!("relation '{name}' removed"),
            }
        }
        for (name, &rec) in &self.fields {
            match now.fields.get(name) {
                Some(&n) if n == rec => {}
                Some(&n) => return format!("field '{name}' {rec:?} -> {n:?}"),
                None => return format!("field '{name}' removed"),
            }
        }
        if let Some((name, _)) = now.domains.iter().find(|(n, _)| !self.domains.contains_key(*n)) {
            return format!("domain '{name}' added");
        }
        if let Some((name, _)) = now.fields.iter().find(|(n, _)| !self.fields.contains_key(*n)) {
            return format!("field '{name}' added");
        }
        "signatures differ".to_string()
    }
}

/// Why a replay was refused. The typed invalidation **event**: callers
/// answer it by re-recording, and a stale schedule never executes.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphInvalid {
    /// A buffer shape, domain size, relation table, or the vertical
    /// extent changed since record time.
    ShapeChanged {
        graph: String,
        what: String,
    },
    /// A state's certification verdict differs from the recorded one —
    /// the freeze/unfreeze decision would no longer be justified.
    CertificationChanged {
        graph: String,
        state: usize,
        recorded: Certification,
        now: Certification,
    },
}

impl fmt::Display for GraphInvalid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphInvalid::ShapeChanged { graph, what } => {
                write!(f, "graph '{graph}' invalidated: shape changed ({what})")
            }
            GraphInvalid::CertificationChanged { graph, state, recorded, now } => write!(
                f,
                "graph '{graph}' invalidated: state {state} certification {recorded} -> {now}"
            ),
        }
    }
}

impl std::error::Error for GraphInvalid {}

/// How one node executes on replay.
#[derive(Debug, Clone, PartialEq)]
enum NodeExec {
    /// Frozen steal-free parallel schedule: task boundaries and per-task
    /// scratch fixed at record time.
    Parallel {
        ranges: Vec<(usize, usize)>,
        scratch: Vec<StateScratch>,
    },
    /// Frozen sequential pass (`Reduction`, or a `ParallelSafe` state the
    /// split-buffer runner cannot serve).
    Sequential { scratch: StateScratch },
    /// Unfrozen: the verdict was `Sequential`, so the node is
    /// re-dispatched eagerly on every replay (one decision each).
    Eager { scratch: StateScratch },
}

/// One recorded state.
#[derive(Debug, Clone, PartialEq)]
struct GraphNode {
    state: usize,
    exec: NodeExec,
}

/// A pre-compiled, arena-allocated window schedule: record once, replay
/// with zero per-window allocation and one dispatch decision.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecGraph {
    pub name: String,
    compiled: CompiledSdfg,
    /// Verdict under which each node's freeze decision was made.
    certs: Vec<Certification>,
    signature: ShapeSignature,
    nodes: Vec<GraphNode>,
    replays: u64,
}

impl ExecGraph {
    /// Compile `sdfg` under the report's verdicts and record one window:
    /// the graph executes eagerly exactly once (its stats are returned),
    /// freezing buffers, task ranges, and scratch as it goes.
    pub fn record(
        name: &str,
        sdfg: &Sdfg,
        report: &AnalysisReport,
        topo: &TopologyContext,
        data: &mut DataContext,
    ) -> (ExecGraph, ExecStats) {
        Self::record_compiled(name, exec::compile_certified(sdfg, report), report, topo, data)
    }

    /// Record from an already-compiled graph (e.g. with transient stores
    /// elided). `compiled` must come from `compile_certified` under this
    /// same `report`.
    pub fn record_compiled(
        name: &str,
        compiled: CompiledSdfg,
        report: &AnalysisReport,
        topo: &TopologyContext,
        data: &mut DataContext,
    ) -> (ExecGraph, ExecStats) {
        assert_eq!(
            report.states.len(),
            compiled.states.len(),
            "analysis report is not aligned with this compiled SDFG"
        );
        // The recording pass IS an eager window: same dispatch decisions,
        // same results — recording costs nothing extra.
        let stats = compiled.run(topo, data);
        let certs: Vec<Certification> =
            (0..compiled.states.len()).map(|i| report.cert(i)).collect();
        let nodes = compiled
            .states
            .iter()
            .enumerate()
            .map(|(i, cs)| {
                let exec = if cs.parallel {
                    let ranges = rayon::task_ranges(topo.domain_size(&cs.domain));
                    let scratch = ranges.iter().map(|_| StateScratch::for_state(cs)).collect();
                    NodeExec::Parallel { ranges, scratch }
                } else {
                    match certs[i] {
                        Certification::ParallelSafe | Certification::Reduction => {
                            NodeExec::Sequential { scratch: StateScratch::for_state(cs) }
                        }
                        Certification::Sequential => {
                            NodeExec::Eager { scratch: StateScratch::for_state(cs) }
                        }
                    }
                };
                GraphNode { state: i, exec }
            })
            .collect();
        let graph = ExecGraph {
            name: name.to_string(),
            signature: ShapeSignature::capture(topo, data),
            compiled,
            certs,
            nodes,
            replays: 0,
        };
        (graph, stats)
    }

    /// Replay the recorded window: one graph launch, zero allocation,
    /// zero schedule decisions for frozen nodes. Returns the replay's
    /// [`ExecStats`] — bitwise equal to an eager window in every traffic
    /// counter, differing only in `dispatched_tasks`.
    ///
    /// Refuses (typed, with nothing executed) when any shape changed
    /// since record time.
    pub fn replay(
        &mut self,
        topo: &TopologyContext,
        data: &mut DataContext,
    ) -> Result<ExecStats, GraphInvalid> {
        let now = ShapeSignature::capture(topo, data);
        if now != self.signature {
            return Err(GraphInvalid::ShapeChanged {
                graph: self.name.clone(),
                what: self.signature.diff(&now),
            });
        }
        let mut stats = ExecStats {
            dispatched_tasks: 1, // the single graph launch
            ..ExecStats::default()
        };
        for node in &mut self.nodes {
            let st = &self.compiled.states[node.state];
            stats.map_launches += 1;
            match &mut node.exec {
                NodeExec::Parallel { ranges, scratch } => {
                    run_state_parallel_frozen(st, topo, data, &mut stats, ranges, scratch);
                }
                NodeExec::Sequential { scratch } => {
                    run_state_with(st, topo, data, &mut stats, scratch);
                }
                NodeExec::Eager { scratch } => {
                    stats.dispatched_tasks += 1;
                    run_state_with(st, topo, data, &mut stats, scratch);
                }
            }
        }
        self.replays += 1;
        Ok(stats)
    }

    /// Refuse a replay under a verdict vector that differs from the one
    /// the freeze decisions were made under.
    pub fn check_certification(&self, report: &AnalysisReport) -> Result<(), GraphInvalid> {
        if report.states.len() != self.certs.len() {
            return Err(GraphInvalid::ShapeChanged {
                graph: self.name.clone(),
                what: format!("state count {} -> {}", self.certs.len(), report.states.len()),
            });
        }
        for (i, &recorded) in self.certs.iter().enumerate() {
            let now = report.cert(i);
            if now != recorded {
                return Err(GraphInvalid::CertificationChanged {
                    graph: self.name.clone(),
                    state: i,
                    recorded,
                    now,
                });
            }
        }
        Ok(())
    }

    /// The signature the recorded schedule is valid for.
    pub fn signature(&self) -> &ShapeSignature {
        &self.signature
    }

    /// Replays performed since record.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Nodes frozen into the graph (no dispatch decision on replay).
    pub fn n_frozen(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n.exec, NodeExec::Eager { .. }))
            .count()
    }

    /// Nodes left unfrozen (re-dispatched eagerly per replay).
    pub fn n_unfrozen(&self) -> usize {
        self.nodes.len() - self.n_frozen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{self, AnalysisContext, FieldIo};
    use crate::transforms;
    use crate::{cost, suite};

    fn certified_dycore() -> (Sdfg, AnalysisReport, Vec<String>) {
        let prog = suite::dycore_program();
        let sdfg = Sdfg::from_program("dycore", &prog);
        let (opt, hoist) = transforms::gh200_hoisted_pipeline(&sdfg);
        let hctx = hoist.declare(&suite::suite_context());
        let report = analysis::verify_sdfg(&opt, &hctx);
        assert!(report.is_clean(), "{:?}", report.errors().collect::<Vec<_>>());
        (opt, report, hoist.transient_names())
    }

    fn dycore_world(seed: u64) -> (TopologyContext, DataContext) {
        let topo = suite::synthetic_topology(96);
        let data = suite::synthetic_data(&topo, 4, seed);
        (topo, data)
    }

    /// Record the certified dycore the way production callers do:
    /// compile, elide the hoisted transients (register-only, no
    /// buffers), then freeze.
    fn record_dycore(
        opt: &Sdfg,
        report: &AnalysisReport,
        elided: &[String],
        topo: &TopologyContext,
        data: &mut DataContext,
    ) -> (ExecGraph, ExecStats) {
        let mut ex = exec::compile_certified(opt, report);
        ex.elide_transient_stores(elided);
        ExecGraph::record_compiled("dycore", ex, report, topo, data)
    }

    #[test]
    fn replayed_windows_are_bitwise_identical_to_eager() {
        let (opt, report, elided) = certified_dycore();
        let (topo, d0) = dycore_world(11);

        let mut eager_exec = exec::compile_certified(&opt, &report);
        eager_exec.elide_transient_stores(&elided);
        let mut recorded_exec = eager_exec.clone();

        let mut d_eager = d0.clone();
        let mut d_replay = d0.clone();
        let mut eager_stats = Vec::new();
        for _ in 0..4 {
            eager_stats.push(eager_exec.run(&topo, &mut d_eager));
        }

        recorded_exec.elide_transient_stores(&elided); // idempotent
        let (mut graph, rec_stats) =
            ExecGraph::record_compiled("dycore", recorded_exec, &report, &topo, &mut d_replay);
        assert_eq!(rec_stats, eager_stats[0], "recording IS an eager window");
        for es in eager_stats.iter().skip(1) {
            let rs = graph.replay(&topo, &mut d_replay).expect("shapes unchanged");
            assert_eq!(rs.map_launches, es.map_launches);
            assert_eq!(rs.index_lookups, es.index_lookups);
            assert_eq!(rs.field_reads, es.field_reads);
            assert_eq!(rs.field_stores, es.field_stores);
            assert!(rs.dispatched_tasks < es.dispatched_tasks, "replay must dispatch less");
        }
        assert_eq!(d_eager, d_replay, "replayed windows bitwise identical");
        assert_eq!(graph.replays(), 3);
    }

    #[test]
    fn replay_dispatch_matches_the_cost_model_exactly() {
        let (opt, report, elided) = certified_dycore();
        let (topo, mut data) = dycore_world(3);
        let sizes = cost::DomainSizes::new(4)
            .with("cells", topo.domain_size("cells"))
            .with("edges", topo.domain_size("edges"));
        let pred = cost::predict_dispatch(&opt, &report, &sizes);

        let (mut graph, eager) = record_dycore(&opt, &report, &elided, &topo, &mut data);
        let replay = graph.replay(&topo, &mut data).unwrap();
        assert_eq!(eager.dispatched_tasks, pred.eager, "eager prediction exact");
        assert_eq!(replay.dispatched_tasks, pred.replay, "replay prediction exact");
        assert_eq!(
            eager.dispatched_tasks - replay.dispatched_tasks,
            pred.eliminated(),
            "dispatched-tasks-eliminated prediction exact"
        );
        assert!(pred.eliminated() > 0);
    }

    #[test]
    fn shape_change_invalidates_instead_of_stale_replay() {
        let (opt, report, elided) = certified_dycore();
        let (topo, mut data) = dycore_world(5);
        let (mut graph, _) = record_dycore(&opt, &report, &elided, &topo, &mut data);
        graph.replay(&topo, &mut data).expect("valid while shapes hold");

        // Grow one buffer's entity extent: the frozen splits are stale.
        let before = data.clone();
        let f = data.fields.get_mut("q1").expect("dycore input field");
        f.n += 1;
        f.data.extend_from_slice(&[0.0; 4]);
        match graph.replay(&topo, &mut data) {
            Err(GraphInvalid::ShapeChanged { what, .. }) => {
                assert!(what.contains("q1"), "diff names the field: {what}");
            }
            other => panic!("expected ShapeChanged, got {other:?}"),
        }
        // Nothing executed: outputs untouched by the refused replay.
        let f = data.fields.get_mut("q1").unwrap();
        f.n -= 1;
        f.data.truncate(f.n * f.nlev);
        assert_eq!(data, before, "refused replay must not execute");
    }

    #[test]
    fn certification_change_is_a_typed_invalidation() {
        let (opt, report, elided) = certified_dycore();
        let (topo, mut data) = dycore_world(7);
        let (graph, _) = record_dycore(&opt, &report, &elided, &topo, &mut data);
        graph.check_certification(&report).expect("same verdicts revalidate");

        let mut changed = report.clone();
        let i = changed
            .states
            .iter()
            .position(|s| s.cert == Certification::ParallelSafe)
            .unwrap();
        changed.states[i].cert = Certification::Sequential;
        match graph.check_certification(&changed) {
            Err(GraphInvalid::CertificationChanged { state, recorded, now, .. }) => {
                assert_eq!(state, i);
                assert_eq!(recorded, Certification::ParallelSafe);
                assert_eq!(now, Certification::Sequential);
            }
            other => panic!("expected CertificationChanged, got {other:?}"),
        }
    }

    #[test]
    fn sequential_verdict_stays_unfrozen_and_pays_dispatch() {
        // A neighbor read of a field the same scope writes: a racy read
        // (E0102), certified Sequential — the node must NOT be frozen.
        // Hand-built single state (the parser lowers one state per
        // statement, and fusion would rightly refuse this one).
        use crate::ast::{Expr, FieldAccess, LevelIndex, PointIndex};
        use crate::loc::Span;
        use crate::sdfg::{MapScope, State, Tasklet};
        let acc = |field: &str, point: PointIndex| FieldAccess {
            field: field.to_string(),
            point,
            level: LevelIndex::K,
            span: Span::synthetic(),
        };
        let read_inp = acc("inp", PointIndex::Own);
        let read_a = acc(
            "a",
            PointIndex::Lookup { relation: "neighbor".to_string(), slot: 0 },
        );
        let sdfg = Sdfg {
            name: "racy".to_string(),
            states: vec![State {
                label: "racy".to_string(),
                map: MapScope {
                    domain: "cells".to_string(),
                    over_levels: true,
                    tasklets: vec![
                        Tasklet {
                            write: acc("a", PointIndex::Own),
                            code: Expr::Access(read_inp.clone()),
                            reads: vec![read_inp],
                        },
                        Tasklet {
                            write: acc("b", PointIndex::Own),
                            code: Expr::Access(read_a.clone()),
                            reads: vec![read_a],
                        },
                    ],
                },
                span: Span::synthetic(),
            }],
            units: vec![],
        };
        let ctx = AnalysisContext::new()
            .domain("cells")
            .relation("neighbor", "cells", "cells", 3)
            .field("inp", "cells", true, FieldIo::Input)
            .field("a", "cells", true, FieldIo::Intermediate)
            .field("b", "cells", true, FieldIo::Output);
        let report = analysis::verify_sdfg(&sdfg, &ctx);
        assert_eq!(report.cert(0), Certification::Sequential);

        let topo = suite::synthetic_topology(64);
        let mut data = DataContext::new(4);
        data.add("inp", crate::exec::FieldBuf::zeros(64, 4));
        data.add("a", crate::exec::FieldBuf::zeros(64, 4));
        data.add("b", crate::exec::FieldBuf::zeros(64, 4));
        let (mut graph, eager) = ExecGraph::record("racy", &sdfg, &report, &topo, &mut data);
        assert_eq!(graph.n_frozen(), 0);
        assert_eq!(graph.n_unfrozen(), 1);
        let replay = graph.replay(&topo, &mut data).unwrap();
        // One graph launch + one eager node: dispatch is NOT eliminated.
        assert_eq!(eager.dispatched_tasks, 1);
        assert_eq!(replay.dispatched_tasks, 2);

        let sizes = cost::DomainSizes::new(4).with("cells", 64);
        let pred = cost::predict_dispatch(&sdfg, &report, &sizes);
        assert_eq!(pred.eager, eager.dispatched_tasks);
        assert_eq!(pred.replay, replay.dispatched_tasks);
    }

    #[test]
    fn re_recording_is_bitwise_idempotent() {
        let (opt, report, elided) = certified_dycore();
        let (topo, d0) = dycore_world(13);

        // Path A: record once, replay 3.
        let mut d_a = d0.clone();
        let (mut g, _) = record_dycore(&opt, &report, &elided, &topo, &mut d_a);
        for _ in 0..3 {
            g.replay(&topo, &mut d_a).unwrap();
        }
        // Path B: re-record every window.
        let mut d_b = d0.clone();
        let mut last = None;
        for _ in 0..4 {
            let (gb, _) = record_dycore(&opt, &report, &elided, &topo, &mut d_b);
            last = Some(gb);
        }
        assert_eq!(d_a, d_b, "replay N == re-record every window");
        let g2 = last.unwrap();
        assert_eq!(g.signature(), g2.signature());
        assert_eq!(g.n_frozen(), g2.n_frozen());
    }
}
