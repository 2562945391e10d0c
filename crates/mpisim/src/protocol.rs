//! Declarative per-rank communication-protocol IR and trace conformance.
//!
//! A [`ProtocolSpec`] is a hand-authored description of the messages a
//! driver is *supposed* to exchange: one program per rank, built from
//! point-to-point ops ([`Op::Send`], [`Op::Recv`]), collectives, splits,
//! and two structural nodes — [`Node::Loop`] for bounded repetition and
//! [`Node::Branch`] for degraded-mode / recovery alternatives (a killed
//! rank goes silent, a monitor skips a peer it already declared down).
//!
//! Specs are checked twice:
//!
//! * **statically** by [`crate::verify::verify_spec`], which enumerates
//!   every combination of branch arms and proves deadlock-freedom and
//!   send/receive/collective matching (diagnostics E0701–W0706);
//! * **dynamically** by [`conform`], which replays the per-rank message
//!   trace that every [`crate::World`] records behind a cheap always-on
//!   ring ([`RankTrace`]) against the spec. Any divergence is a typed
//!   [`ProtocolViolation`] naming the rank, op index, and
//!   expected-vs-actual op — so the verified spec is pinned to reality by
//!   every chaos and determinism test that runs the driver.
//!
//! Tags may be window-linear ([`Tag::Window`]: `mul * window + add`) so
//! one spec covers every coupling window of a driver; [`conform`] takes
//! the concrete window of the round being checked.

use std::fmt;

/// A symbolic message tag: either a constant or linear in the coupling
/// window (`mul * window + add`), matching the tag disciplines of the
/// resilience drivers (guard partials on `2w`, verdicts on `2w+1`,
/// heartbeats on `w`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Const(u64),
    Window { mul: u64, add: u64 },
}

impl Tag {
    /// Constant tag.
    pub const fn k(v: u64) -> Tag {
        Tag::Const(v)
    }

    /// Window-linear tag `mul * w + add`.
    pub const fn w(mul: u64, add: u64) -> Tag {
        Tag::Window { mul, add }
    }

    /// Concrete tag value at window `w`.
    pub fn eval(&self, w: u64) -> u64 {
        match *self {
            Tag::Const(v) => v,
            Tag::Window { mul, add } => mul.wrapping_mul(w).wrapping_add(add),
        }
    }

    /// Normal form `(mul, add)` for symbolic equality (`Const(v)` is
    /// `(0, v)`): two tags collide for *every* window iff their normal
    /// forms are equal.
    pub fn norm(&self) -> (u64, u64) {
        match *self {
            Tag::Const(v) => (0, v),
            Tag::Window { mul, add } => (mul, add),
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Tag::Const(v) => write!(f, "{v}"),
            Tag::Window { mul: 1, add: 0 } => write!(f, "w"),
            Tag::Window { mul, add: 0 } => write!(f, "{mul}w"),
            Tag::Window { mul: 1, add } => write!(f, "w+{add}"),
            Tag::Window { mul, add } => write!(f, "{mul}w+{add}"),
        }
    }
}

/// Collective kinds the communicator exposes (plus `Split`, which is
/// collective over its parent and tracked in the same order stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollOp {
    Barrier,
    Sum,
    Max,
    Min,
    Gather,
}

impl fmt::Display for CollOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollOp::Barrier => "barrier",
            CollOp::Sum => "allreduce-sum",
            CollOp::Max => "allreduce-max",
            CollOp::Min => "allreduce-min",
            CollOp::Gather => "allgather",
        };
        f.write_str(s)
    }
}

/// One communication op of a rank program. Ranks and comm ids are world
/// ranks / tag namespaces (the drivers all speak on the world
/// communicator, namespace 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Eager (buffered) send — never blocks.
    Send { dst: usize, tag: Tag },
    /// Receive. `blocking: true` models [`crate::Comm::recv`] (must be
    /// matched by a send or the rank hangs); `blocking: false` models
    /// [`crate::Comm::recv_deadline`] (may legally expire unmatched on
    /// fault branches).
    Recv { src: usize, tag: Tag, blocking: bool },
    /// Collective on communicator `comm` (tag namespace; 0 = world).
    Collective { op: CollOp, comm: u64 },
    /// Communicator split by color (collective over the parent).
    Split { color: i64 },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Send { dst, tag } => write!(f, "send(dst={dst}, tag={tag})"),
            Op::Recv { src, tag, blocking: true } => write!(f, "recv(src={src}, tag={tag})"),
            Op::Recv { src, tag, blocking: false } => {
                write!(f, "recv-deadline(src={src}, tag={tag})")
            }
            Op::Collective { op, comm } => write!(f, "{op}(comm={comm})"),
            Op::Split { color } => write!(f, "split(color={color})"),
        }
    }
}

/// How a branch arm is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmCond {
    /// The fault-free path.
    Nominal,
    /// A degraded / recovery path (kill, hang, known-down skip, …).
    Fault,
    /// Declared unreachable — kept in the spec for documentation, flagged
    /// by the verifier as W0706 and excluded from scenarios and matching.
    Dead,
}

/// One alternative of a [`Node::Branch`].
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    pub label: &'static str,
    pub cond: ArmCond,
    pub body: Vec<Node>,
}

/// A node of a rank program.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    Op(Op),
    /// Bounded repetition of `body`, `count` times.
    Loop { count: u64, body: Vec<Node> },
    /// Exactly one arm is taken at runtime.
    Branch { site: &'static str, arms: Vec<Arm> },
}

/// Builder: eager send.
pub fn send(dst: usize, tag: Tag) -> Node {
    Node::Op(Op::Send { dst, tag })
}

/// Builder: blocking receive.
pub fn recv(src: usize, tag: Tag) -> Node {
    Node::Op(Op::Recv { src, tag, blocking: true })
}

/// A deadline receive, the spec twin of [`crate::Comm::recv_deadline`]:
/// allowed to expire on fault branches.
pub fn recv_deadline(src: usize, tag: Tag) -> Node {
    Node::Op(Op::Recv { src, tag, blocking: false })
}

/// Builder: collective.
pub fn coll(op: CollOp, comm: u64) -> Node {
    Node::Op(Op::Collective { op, comm })
}

/// Builder: branch node.
pub fn branch(site: &'static str, arms: Vec<Arm>) -> Node {
    Node::Branch { site, arms }
}

/// Builder: branch arm.
pub fn arm(label: &'static str, cond: ArmCond, body: Vec<Node>) -> Arm {
    Arm { label, cond, body }
}

/// Builder: bounded loop.
pub fn lp(count: u64, body: Vec<Node>) -> Node {
    Node::Loop { count, body }
}

/// A per-rank communication protocol: one program per world rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolSpec {
    pub name: String,
    pub ranks: Vec<Vec<Node>>,
}

impl ProtocolSpec {
    pub fn new(name: &str, ranks: Vec<Vec<Node>>) -> ProtocolSpec {
        ProtocolSpec { name: name.to_string(), ranks }
    }

    pub fn n_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total number of [`Op`] nodes in the spec, counting loop bodies
    /// `count` times and every live branch arm once (the verifier's
    /// coverage denominator; dead arms are excluded).
    pub fn op_count(&self) -> usize {
        fn count(nodes: &[Node]) -> usize {
            nodes
                .iter()
                .map(|n| match n {
                    Node::Op(_) => 1,
                    Node::Loop { count: c, body } => (*c as usize) * count(body),
                    Node::Branch { arms, .. } => arms
                        .iter()
                        .filter(|a| a.cond != ArmCond::Dead)
                        .map(|a| count(&a.body))
                        .sum(),
                })
                .sum()
        }
        self.ranks.iter().map(|r| count(r)).sum()
    }
}

/// Spec for a halo exchange round: each rank posts one eager send per
/// send-peer, then one blocking receive per recv-peer, all on `tag` —
/// the [`crate::HaloExchanger`] pattern. `sends[r]` / `recvs[r]` are the
/// peer lists of rank `r` (an [`icongrid::decomp::ExchangePlan`]'s
/// `send` / `recv` keys).
pub fn halo_spec(name: &str, sends: &[Vec<usize>], recvs: &[Vec<usize>], tag: Tag) -> ProtocolSpec {
    assert_eq!(sends.len(), recvs.len());
    let ranks = sends
        .iter()
        .zip(recvs)
        .map(|(ss, rs)| {
            let mut prog: Vec<Node> = ss.iter().map(|&p| send(p, tag)).collect();
            prog.extend(rs.iter().map(|&p| recv(p, tag)));
            prog
        })
        .collect();
    ProtocolSpec::new(name, ranks)
}

// ---------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------

/// One recorded communication attempt (op, peer, tag, seq). Peers are
/// world ranks; tags are the user tags as passed to the `Comm` API.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    Send { dst: usize, tag: u64 },
    /// A receive that completed with a payload.
    Recv { src: usize, tag: u64 },
    /// A receive attempt that failed (timeout, corruption, disconnect).
    /// Matches the same spec `Recv` op as a success: the *attempt* is
    /// what the protocol prescribes; the outcome is the fault layer's.
    RecvFailed { src: usize, tag: u64 },
    Collective { op: CollOp, comm: u64 },
    Split { color: i64 },
}

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceOp::Send { dst, tag } => write!(f, "send(dst={dst}, tag={tag})"),
            TraceOp::Recv { src, tag } => write!(f, "recv(src={src}, tag={tag})"),
            TraceOp::RecvFailed { src, tag } => write!(f, "recv-failed(src={src}, tag={tag})"),
            TraceOp::Collective { op, comm } => write!(f, "{op}(comm={comm})"),
            TraceOp::Split { color } => write!(f, "split(color={color})"),
        }
    }
}

/// One trace entry: the op plus the message sequence number (per-edge
/// send counter for sends, delivered message's seq for receives, 0 where
/// no message was involved).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub op: TraceOp,
    pub seq: u64,
}

/// Per-rank message trace behind a bounded always-on ring. Recording is
/// a `Vec` push until [`RankTrace::CAP`], after which events are counted
/// but not stored — [`conform`] refuses overflowed traces rather than
/// silently checking a prefix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    pub events: Vec<TraceEvent>,
    /// Events beyond [`RankTrace::CAP`] that were counted but not kept.
    pub dropped: u64,
}

impl RankTrace {
    /// Ring capacity: far above any driver round (a guard round is ≤ 4
    /// events per rank), small enough to be always-on.
    pub const CAP: usize = 8192;

    pub(crate) fn record(&mut self, op: TraceOp, seq: u64) {
        if self.events.len() < Self::CAP {
            self.events.push(TraceEvent { op, seq });
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

// ---------------------------------------------------------------------
// Conformance
// ---------------------------------------------------------------------

/// A live trace diverged from its verified spec: the driver did not do
/// what the protocol says it does.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolViolation {
    pub spec: String,
    pub rank: usize,
    /// Index into the rank's trace where matching failed.
    pub op_index: usize,
    pub expected: String,
    pub actual: String,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "protocol violation in `{}`: rank {} op {}: expected {}, got {}",
            self.spec, self.rank, self.op_index, self.expected, self.actual
        )
    }
}

impl std::error::Error for ProtocolViolation {}

/// What a successful conformance check covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConformSummary {
    /// Trace events matched against spec ops, summed over ranks.
    pub ops_matched: usize,
}

/// Concretized spec node: tags evaluated at the round's window, loops
/// unrolled, dead arms pruned.
enum ENode {
    Op(Op, u64),
    Branch(Vec<Vec<ENode>>),
}

fn expand(nodes: &[Node], w: u64, out: &mut Vec<ENode>) {
    for n in nodes {
        match n {
            Node::Op(op) => out.push(ENode::Op(op.clone(), w)),
            Node::Loop { count, body } => {
                for _ in 0..*count {
                    expand(body, w, out);
                }
            }
            Node::Branch { arms, .. } => {
                let live: Vec<Vec<ENode>> = arms
                    .iter()
                    .filter(|a| a.cond != ArmCond::Dead)
                    .map(|a| {
                        let mut b = Vec::new();
                        expand(&a.body, w, &mut b);
                        b
                    })
                    .collect();
                out.push(ENode::Branch(live));
            }
        }
    }
}

fn op_matches(op: &Op, w: u64, ev: &TraceEvent) -> bool {
    match (op, &ev.op) {
        (Op::Send { dst, tag }, TraceOp::Send { dst: d, tag: t }) => {
            dst == d && tag.eval(w) == *t
        }
        (Op::Recv { src, tag, .. }, TraceOp::Recv { src: s, tag: t })
        | (Op::Recv { src, tag, .. }, TraceOp::RecvFailed { src: s, tag: t }) => {
            src == s && tag.eval(w) == *t
        }
        (Op::Collective { op, comm }, TraceOp::Collective { op: o, comm: c }) => {
            op == o && comm == c
        }
        (Op::Split { color }, TraceOp::Split { color: c }) => color == c,
        _ => false,
    }
}

/// Furthest-failure tracker for error reporting: when every branch
/// combination fails, report the failure deepest into the trace.
struct Best {
    pos: usize,
    expected: String,
    actual: String,
    any: bool,
}

impl Best {
    fn note(&mut self, pos: usize, expected: String, actual: String) {
        if !self.any || pos >= self.pos {
            self.pos = pos;
            self.expected = expected;
            self.actual = actual;
            self.any = true;
        }
    }
}

/// Continuation stack for the backtracking matcher (persistent list so
/// branch arms can be tried without cloning node sequences).
enum Cont<'a> {
    Nil,
    Cons(&'a [ENode], &'a Cont<'a>),
}

fn match_seq(
    cur: &[ENode],
    cont: &Cont<'_>,
    events: &[TraceEvent],
    pos: usize,
    best: &mut Best,
) -> bool {
    match cur.split_first() {
        None => match cont {
            Cont::Nil => {
                if pos == events.len() {
                    true
                } else {
                    best.note(
                        pos,
                        "end of protocol".to_string(),
                        events[pos].op.to_string(),
                    );
                    false
                }
            }
            Cont::Cons(next, rest) => match_seq(next, rest, events, pos, best),
        },
        Some((ENode::Op(op, w), tail)) => {
            if pos < events.len() && op_matches(op, *w, &events[pos]) {
                match_seq(tail, cont, events, pos + 1, best)
            } else {
                let actual = events
                    .get(pos)
                    .map(|e| e.op.to_string())
                    .unwrap_or_else(|| "end of trace".to_string());
                best.note(pos, op.to_string(), actual);
                false
            }
        }
        Some((ENode::Branch(arms), tail)) => {
            let cont2 = Cont::Cons(tail, cont);
            for a in arms {
                if match_seq(a, &cont2, events, pos, best) {
                    return true;
                }
            }
            false
        }
    }
}

/// Replay recorded per-rank traces against `spec` at coupling window
/// `window`. Every rank's whole trace must be derivable from its program
/// (some choice of live branch arms); otherwise the divergence deepest
/// into the trace is reported as a [`ProtocolViolation`].
pub fn conform(
    spec: &ProtocolSpec,
    window: u64,
    traces: &[RankTrace],
) -> Result<ConformSummary, ProtocolViolation> {
    if traces.len() != spec.ranks.len() {
        return Err(ProtocolViolation {
            spec: spec.name.clone(),
            rank: 0,
            op_index: 0,
            expected: format!("{} rank traces", spec.ranks.len()),
            actual: format!("{} rank traces", traces.len()),
        });
    }
    let mut ops_matched = 0usize;
    for (rank, (prog, trace)) in spec.ranks.iter().zip(traces).enumerate() {
        if trace.dropped > 0 {
            return Err(ProtocolViolation {
                spec: spec.name.clone(),
                rank,
                op_index: trace.events.len(),
                expected: format!("trace within ring capacity {}", RankTrace::CAP),
                actual: format!("{} events dropped by the ring", trace.dropped),
            });
        }
        let mut enodes = Vec::new();
        expand(prog, window, &mut enodes);
        let mut best = Best {
            pos: 0,
            expected: String::new(),
            actual: String::new(),
            any: false,
        };
        if !match_seq(&enodes, &Cont::Nil, &trace.events, 0, &mut best) {
            let (expected, actual) = if best.any {
                (best.expected, best.actual)
            } else {
                ("non-empty protocol".to_string(), "empty trace".to_string())
            };
            return Err(ProtocolViolation {
                spec: spec.name.clone(),
                rank,
                op_index: best.pos,
                expected,
                actual,
            });
        }
        ops_matched += trace.events.len();
    }
    Ok(ConformSummary { ops_matched })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: TraceOp) -> TraceEvent {
        TraceEvent { op, seq: 0 }
    }

    fn trace(ops: Vec<TraceOp>) -> RankTrace {
        RankTrace {
            events: ops.into_iter().map(ev).collect(),
            dropped: 0,
        }
    }

    #[test]
    fn window_tags_evaluate_linearly() {
        assert_eq!(Tag::k(7).eval(99), 7);
        assert_eq!(Tag::w(2, 1).eval(5), 11);
        assert_eq!(Tag::w(2, 1).norm(), (2, 1));
        assert_eq!(Tag::k(3).norm(), (0, 3));
    }

    #[test]
    fn straight_line_trace_conforms() {
        let spec = ProtocolSpec::new(
            "pair",
            vec![
                vec![send(1, Tag::w(2, 0)), recv_deadline(1, Tag::w(2, 1))],
                vec![recv_deadline(0, Tag::w(2, 0)), send(0, Tag::w(2, 1))],
            ],
        );
        let traces = vec![
            trace(vec![
                TraceOp::Send { dst: 1, tag: 6 },
                TraceOp::Recv { src: 1, tag: 7 },
            ]),
            trace(vec![
                TraceOp::Recv { src: 0, tag: 6 },
                TraceOp::Send { dst: 0, tag: 7 },
            ]),
        ];
        let s = conform(&spec, 3, &traces).expect("conforms");
        assert_eq!(s.ops_matched, 4);
    }

    #[test]
    fn failed_recv_attempt_matches_the_recv_op() {
        let spec = ProtocolSpec::new("d", vec![vec![recv_deadline(1, Tag::k(4))]]);
        let traces = vec![trace(vec![TraceOp::RecvFailed { src: 1, tag: 4 }])];
        assert!(conform(&spec, 0, &traces).is_ok());
    }

    #[test]
    fn divergence_names_rank_op_and_ops() {
        let spec = ProtocolSpec::new(
            "pair",
            vec![vec![send(1, Tag::k(5))], vec![recv(0, Tag::k(5))]],
        );
        let traces = vec![
            trace(vec![TraceOp::Send { dst: 1, tag: 9 }]),
            trace(vec![TraceOp::Recv { src: 0, tag: 5 }]),
        ];
        let v = conform(&spec, 0, &traces).unwrap_err();
        assert_eq!(v.rank, 0);
        assert_eq!(v.op_index, 0);
        assert!(v.expected.contains("tag=5"), "{}", v.expected);
        assert!(v.actual.contains("tag=9"), "{}", v.actual);
    }

    #[test]
    fn extra_trailing_event_is_a_violation() {
        let spec = ProtocolSpec::new("one", vec![vec![send(0, Tag::k(1))]]);
        let traces = vec![trace(vec![
            TraceOp::Send { dst: 0, tag: 1 },
            TraceOp::Send { dst: 0, tag: 1 },
        ])];
        let v = conform(&spec, 0, &traces).unwrap_err();
        assert_eq!(v.op_index, 1);
        assert!(v.expected.contains("end of protocol"));
    }

    #[test]
    fn branch_arms_cover_silent_ranks() {
        let spec = ProtocolSpec::new(
            "hb",
            vec![
                vec![branch(
                    "peer1",
                    vec![
                        arm("beat", ArmCond::Nominal, vec![recv_deadline(1, Tag::w(1, 0))]),
                        arm("down", ArmCond::Fault, vec![]),
                    ],
                )],
                vec![branch(
                    "self",
                    vec![
                        arm("beat", ArmCond::Nominal, vec![send(0, Tag::w(1, 0))]),
                        arm("silent", ArmCond::Fault, vec![]),
                    ],
                )],
            ],
        );
        // Nominal round.
        let t = vec![
            trace(vec![TraceOp::Recv { src: 1, tag: 8 }]),
            trace(vec![TraceOp::Send { dst: 0, tag: 8 }]),
        ];
        assert!(conform(&spec, 8, &t).is_ok());
        // Silent rank: empty trace matches the fault arm; the monitor's
        // failed receive matches its recv op.
        let t = vec![
            trace(vec![TraceOp::RecvFailed { src: 1, tag: 8 }]),
            trace(vec![]),
        ];
        assert!(conform(&spec, 8, &t).is_ok());
        // A beat on the wrong tag conforms to neither arm.
        let t = vec![
            trace(vec![TraceOp::RecvFailed { src: 1, tag: 8 }]),
            trace(vec![TraceOp::Send { dst: 0, tag: 9 }]),
        ];
        let v = conform(&spec, 8, &t).unwrap_err();
        assert_eq!(v.rank, 1);
    }

    #[test]
    fn dead_arms_never_match() {
        let spec = ProtocolSpec::new(
            "dead",
            vec![vec![branch(
                "mode",
                vec![
                    arm("live", ArmCond::Nominal, vec![]),
                    arm("legacy", ArmCond::Dead, vec![send(0, Tag::k(1))]),
                ],
            )]],
        );
        let t = vec![trace(vec![TraceOp::Send { dst: 0, tag: 1 }])];
        assert!(conform(&spec, 0, &t).is_err(), "dead arm must not match");
    }

    #[test]
    fn loops_unroll_by_count() {
        let spec = ProtocolSpec::new(
            "loop",
            vec![vec![lp(3, vec![send(0, Tag::k(2))])]],
        );
        let t = vec![trace(vec![TraceOp::Send { dst: 0, tag: 2 }; 3])];
        assert!(conform(&spec, 0, &t).is_ok());
        let t = vec![trace(vec![TraceOp::Send { dst: 0, tag: 2 }; 2])];
        assert!(conform(&spec, 0, &t).is_err());
    }

    #[test]
    fn overflowed_ring_is_refused() {
        let spec = ProtocolSpec::new("o", vec![vec![]]);
        let t = vec![RankTrace { events: vec![], dropped: 3 }];
        let v = conform(&spec, 0, &t).unwrap_err();
        assert!(v.actual.contains("dropped"));
    }

    #[test]
    fn op_count_weighs_loops_and_live_arms() {
        let spec = ProtocolSpec::new(
            "c",
            vec![vec![
                lp(4, vec![send(0, Tag::k(1))]),
                branch(
                    "b",
                    vec![
                        arm("a", ArmCond::Nominal, vec![recv(0, Tag::k(1))]),
                        arm("d", ArmCond::Dead, vec![recv(0, Tag::k(2))]),
                    ],
                ),
            ]],
        );
        assert_eq!(spec.op_count(), 5);
    }

    #[test]
    fn halo_spec_shape() {
        let s = halo_spec(
            "halo",
            &[vec![1], vec![0]],
            &[vec![1], vec![0]],
            Tag::k(9),
        );
        assert_eq!(s.n_ranks(), 2);
        assert_eq!(s.op_count(), 4);
    }
}
