//! Static protocol verification: E07xx diagnostics over a
//! [`ProtocolSpec`].
//!
//! The verifier enumerates every *scenario* — one live arm chosen at
//! each [`Node::Branch`] site across all ranks — unrolls loops, and
//! checks each scenario with an abstract scheduler that models mpisim's
//! semantics exactly: sends are eager and never block, receives wait for
//! a matching in-flight message, and collectives complete when every
//! member of the communicator reaches one. When no rank can advance it
//! applies the runtime's quiescence rule ([`crate::comm`]) in the same
//! order: (1) in-flight messages are matched first — a message the
//! runtime delays is simply in flight here; (2) otherwise every deadline
//! receive expires; (3) otherwise the blocked receives and collectives
//! are stuck and classified (E0702/E0703).
//!
//! | code  | severity | meaning |
//! |-------|----------|---------|
//! | E0701 | error    | unmatched send: a nominal-path message no receive ever consumes |
//! | E0702 | error    | unmatched / over-matched receive: a receive no send can satisfy |
//! | E0703 | error    | rendezvous deadlock: a cycle in the wait-for graph of blocked ops |
//! | E0704 | error    | collective-order divergence across ranks of a communicator |
//! | E0705 | error    | tag collision: two in-flight messages on one (src, dst, tag) |
//! | W0706 | warning  | dead protocol branch (declared dead or duplicate of an earlier arm) |
//!
//! Fault scenarios (any chosen arm with [`ArmCond::Fault`]) relax the
//! matching rules the way the runtime does: an unreceived eager send is
//! legal (buffered at finalize, like MPI), and a deadline receive may
//! expire. Blocking receives and collectives must complete in *every*
//! scenario — a recovery path that can hang is still a deadlock.

use crate::protocol::{Arm, ArmCond, CollOp, Node, Op, ProtocolSpec};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// Diagnostic codes of the protocol verifier. `E...` are errors, `W...`
/// warnings, numbered in the 07xx block after the dataflow (01xx), cost
/// (05xx), and units (06xx) analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtoCode {
    /// E0701: a send on the nominal path that no receive consumes.
    UnmatchedSend,
    /// E0702: a receive that no send can satisfy (blocking: the rank
    /// hangs; deadline on the nominal path: it always times out).
    UnmatchedRecv,
    /// E0703: rendezvous deadlock — a cycle of ranks each blocked on
    /// another, or a synchronous op waiting on a terminated rank.
    Deadlock,
    /// E0704: two ranks of one communicator issue collectives in
    /// different orders.
    CollectiveDivergence,
    /// E0705: two messages in flight on the same (src, dst, tag) — their
    /// reorder would change which receive sees which payload.
    TagCollision,
    /// W0706: a branch arm that can never run (declared dead, or an
    /// exact duplicate of an earlier arm at the same site).
    DeadBranch,
}

impl ProtoCode {
    pub fn code(&self) -> &'static str {
        match self {
            ProtoCode::UnmatchedSend => "E0701",
            ProtoCode::UnmatchedRecv => "E0702",
            ProtoCode::Deadlock => "E0703",
            ProtoCode::CollectiveDivergence => "E0704",
            ProtoCode::TagCollision => "E0705",
            ProtoCode::DeadBranch => "W0706",
        }
    }

    pub fn severity(&self) -> &'static str {
        match self {
            ProtoCode::DeadBranch => "warning",
            _ => "error",
        }
    }

    /// One-line summary for the diagnostic registry
    /// (`esm-lint --list-codes`).
    pub fn summary(&self) -> &'static str {
        match self {
            ProtoCode::UnmatchedSend => {
                "protocol send with no reachable matching receive"
            }
            ProtoCode::UnmatchedRecv => {
                "protocol receive that no send can satisfy (unmatched or over-matched)"
            }
            ProtoCode::Deadlock => {
                "rendezvous deadlock: cycle in the wait-for graph of blocked protocol ops"
            }
            ProtoCode::CollectiveDivergence => {
                "collective-order divergence across ranks of one communicator"
            }
            ProtoCode::TagCollision => {
                "two in-flight messages on the same (src, dst, tag) within a window"
            }
            ProtoCode::DeadBranch => "dead protocol branch (unreachable or duplicate arm)",
        }
    }

    /// Every code, in numeric order.
    pub fn all() -> [ProtoCode; 6] {
        [
            ProtoCode::UnmatchedSend,
            ProtoCode::UnmatchedRecv,
            ProtoCode::Deadlock,
            ProtoCode::CollectiveDivergence,
            ProtoCode::TagCollision,
            ProtoCode::DeadBranch,
        ]
    }
}

impl fmt::Display for ProtoCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoDiag {
    pub code: ProtoCode,
    pub rank: usize,
    /// Which branch-arm combination exposed it (`"nominal"`, `"static"`,
    /// or a list of `site=arm` choices).
    pub scenario: String,
    pub message: String,
}

impl fmt::Display for ProtoDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} (rank {}, scenario {})",
            self.code.severity(),
            self.code.code(),
            self.message,
            self.rank,
            self.scenario
        )
    }
}

/// Result of verifying one spec.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    pub spec: String,
    pub diags: Vec<ProtoDiag>,
    /// Branch-arm combinations actually simulated.
    pub scenarios: usize,
    /// Op nodes covered by the spec (see [`ProtocolSpec::op_count`]).
    pub ops: usize,
}

impl VerifyReport {
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.code.severity() == "error").count()
    }

    pub fn warnings(&self) -> usize {
        self.diags.iter().filter(|d| d.code.severity() == "warning").count()
    }

    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

/// Scenario cap: the cross product of live arms is enumerated up to this
/// many combinations. Driver specs sit far below it; exceeding it is
/// reported (never silently truncated) via a W0706 note.
const SCENARIO_CAP: usize = 4096;

/// A flattened op with its position in the rank's flattened program.
#[derive(Debug, Clone)]
struct FlatOp {
    op: Op,
    idx: usize,
}

/// One branch site discovered in traversal order.
struct Site {
    rank: usize,
    label: &'static str,
    /// (arm label, cond) of live arms, by choice index.
    arms: Vec<(&'static str, ArmCond)>,
}

fn collect_sites(rank: usize, nodes: &[Node], out: &mut Vec<Site>) {
    for n in nodes {
        match n {
            Node::Op(_) => {}
            Node::Loop { body, .. } => collect_sites(rank, body, out),
            Node::Branch { site, arms } => {
                out.push(Site {
                    rank,
                    label: site,
                    arms: arms
                        .iter()
                        .filter(|a| a.cond != ArmCond::Dead)
                        .map(|a| (a.label, a.cond))
                        .collect(),
                });
                for a in arms {
                    if a.cond != ArmCond::Dead {
                        collect_sites(rank, &a.body, out);
                    }
                }
            }
        }
    }
}

/// Flatten a rank program under one scenario (choice per branch site, in
/// the same traversal order as [`collect_sites`]).
fn flatten(
    nodes: &[Node],
    choices: &[usize],
    cursor: &mut usize,
    idx: &mut usize,
    out: &mut Vec<FlatOp>,
) {
    for n in nodes {
        match n {
            Node::Op(op) => {
                out.push(FlatOp { op: op.clone(), idx: *idx });
                *idx += 1;
            }
            Node::Loop { count, body } => {
                // Sites inside a loop body are chosen once and shared by
                // every iteration: remember the cursor and replay it.
                let before = *cursor;
                for i in 0..*count {
                    if i > 0 {
                        *cursor = before;
                    }
                    flatten(body, choices, cursor, idx, out);
                }
            }
            Node::Branch { arms, .. } => {
                let choice = choices.get(*cursor).copied().unwrap_or(0);
                *cursor += 1;
                let live: Vec<&Arm> =
                    arms.iter().filter(|a| a.cond != ArmCond::Dead).collect();
                // Unchosen live arms still own nested branch sites: walk
                // them to keep the cursor aligned, emitting nothing.
                for (i, a) in live.iter().enumerate() {
                    if i == choice {
                        flatten(&a.body, choices, cursor, idx, out);
                    } else {
                        skip_sites(&a.body, cursor);
                    }
                }
            }
        }
    }
}

fn skip_sites(nodes: &[Node], cursor: &mut usize) {
    for n in nodes {
        match n {
            Node::Op(_) => {}
            Node::Loop { body, .. } => skip_sites(body, cursor),
            Node::Branch { arms, .. } => {
                *cursor += 1;
                for a in arms {
                    if a.cond != ArmCond::Dead {
                        skip_sites(&a.body, cursor);
                    }
                }
            }
        }
    }
}

fn fmt_norm(tag: (u64, u64)) -> String {
    match tag {
        (0, add) => format!("{add}"),
        (mul, 0) => format!("{mul}w"),
        (mul, add) => format!("{mul}w+{add}"),
    }
}

/// Verify a spec: every scenario must be deadlock-free with matched
/// sends/receives and aligned collectives.
pub fn verify_spec(spec: &ProtocolSpec) -> VerifyReport {
    let mut report = VerifyReport {
        spec: spec.name.clone(),
        ops: spec.op_count(),
        ..VerifyReport::default()
    };
    let mut seen: HashSet<(ProtoCode, usize, String)> = HashSet::new();
    let mut diags: Vec<ProtoDiag> = Vec::new();
    {
        let mut push = |d: ProtoDiag| {
            if seen.insert((d.code, d.rank, d.message.clone())) {
                diags.push(d);
            }
        };

        // W0706: dead and duplicate arms.
        for (rank, prog) in spec.ranks.iter().enumerate() {
            dead_branches(rank, prog, &mut |rank, site, label, why| {
                push(ProtoDiag {
                    code: ProtoCode::DeadBranch,
                    rank,
                    scenario: "static".to_string(),
                    message: format!("branch `{site}` arm `{label}` is dead ({why})"),
                });
            });
        }

        // Scenario enumeration over all live branch sites of all ranks.
        let mut sites = Vec::new();
        for (rank, prog) in spec.ranks.iter().enumerate() {
            collect_sites(rank, prog, &mut sites);
        }
        let mut total: usize = 1;
        for s in &sites {
            total = total.saturating_mul(s.arms.len().max(1));
        }
        if total > SCENARIO_CAP {
            push(ProtoDiag {
                code: ProtoCode::DeadBranch,
                rank: 0,
                scenario: "static".to_string(),
                message: format!(
                    "scenario space ({total}) exceeds cap ({SCENARIO_CAP}); \
                     verification covers the first {SCENARIO_CAP} combinations only"
                ),
            });
        }
        let total = total.min(SCENARIO_CAP);
        report.scenarios = total;

        let mut choices = vec![0usize; sites.len()];
        for scenario in 0..total {
            // Decode the mixed-radix scenario index into per-site choices.
            let mut x = scenario;
            for (i, s) in sites.iter().enumerate() {
                let base = s.arms.len().max(1);
                choices[i] = x % base;
                x /= base;
            }
            let nominal = sites
                .iter()
                .zip(&choices)
                .all(|(s, &c)| s.arms.is_empty() || s.arms[c].1 == ArmCond::Nominal);
            let label = if nominal {
                "nominal".to_string()
            } else {
                sites
                    .iter()
                    .zip(&choices)
                    .filter(|(s, &c)| !s.arms.is_empty() && s.arms[c].1 != ArmCond::Nominal)
                    .map(|(s, &c)| format!("rank{}:{}={}", s.rank, s.label, s.arms[c].0))
                    .collect::<Vec<_>>()
                    .join(",")
            };

            // Flatten every rank under this scenario. The choice cursor
            // is global across ranks (sites were collected rank-major).
            let mut progs: Vec<Vec<FlatOp>> = Vec::with_capacity(spec.ranks.len());
            let mut cursor = 0usize;
            for prog in &spec.ranks {
                let mut ops = Vec::new();
                let mut idx = 0usize;
                flatten(prog, &choices, &mut cursor, &mut idx, &mut ops);
                progs.push(ops);
            }

            check_collective_order(&progs, &label, &mut push);
            simulate(&progs, nominal, &label, &mut push);
        }
    }

    diags.sort_by(|a, b| {
        a.code
            .code()
            .cmp(b.code.code())
            .then(a.rank.cmp(&b.rank))
            .then(a.message.cmp(&b.message))
    });
    report.diags = diags;
    report
}

fn dead_branches(
    rank: usize,
    nodes: &[Node],
    emit: &mut impl FnMut(usize, &'static str, &'static str, &str),
) {
    for n in nodes {
        match n {
            Node::Op(_) => {}
            Node::Loop { body, .. } => dead_branches(rank, body, emit),
            Node::Branch { site, arms } => {
                for (i, a) in arms.iter().enumerate() {
                    if a.cond == ArmCond::Dead {
                        emit(rank, site, a.label, "declared dead");
                    } else if arms[..i]
                        .iter()
                        .any(|b| b.cond != ArmCond::Dead && b.body == a.body)
                    {
                        emit(rank, site, a.label, "duplicates an earlier arm");
                    }
                    dead_branches(rank, &a.body, emit);
                }
            }
        }
    }
}

/// E0704: within a communicator, every participating rank must issue the
/// same sequence of collective kinds. Splits participate in the parent
/// comm's order stream.
fn check_collective_order(
    progs: &[Vec<FlatOp>],
    scenario: &str,
    emit: &mut impl FnMut(ProtoDiag),
) {
    let mut per_comm: HashMap<u64, Vec<(usize, Vec<String>)>> = HashMap::new();
    for (rank, ops) in progs.iter().enumerate() {
        let mut seqs: HashMap<u64, Vec<String>> = HashMap::new();
        for f in ops {
            match &f.op {
                Op::Collective { op, comm } => {
                    seqs.entry(*comm).or_default().push(op.to_string())
                }
                Op::Split { .. } => seqs.entry(0).or_default().push("split".to_string()),
                _ => {}
            }
        }
        for (comm, seq) in seqs {
            per_comm.entry(comm).or_default().push((rank, seq));
        }
    }
    let mut comms: Vec<_> = per_comm.into_iter().collect();
    comms.sort_by_key(|(c, _)| *c);
    for (comm, mut ranks) in comms {
        ranks.sort_by_key(|(r, _)| *r);
        let Some((r0, s0)) = ranks.first().cloned() else {
            continue;
        };
        for (r, s) in &ranks[1..] {
            if *s != s0 {
                let at = s0
                    .iter()
                    .zip(s.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| s0.len().min(s.len()));
                let (a, b) = (
                    s0.get(at).map(String::as_str).unwrap_or("nothing"),
                    s.get(at).map(String::as_str).unwrap_or("nothing"),
                );
                emit(ProtoDiag {
                    code: ProtoCode::CollectiveDivergence,
                    rank: *r,
                    scenario: scenario.to_string(),
                    message: format!(
                        "collective order on comm {comm} diverges at position {at}: \
                         rank {r0} does {a}, rank {r} does {b}"
                    ),
                });
            }
        }
    }
}

type MsgKey = (usize, usize, (u64, u64)); // (src, dst, normalized tag)

/// Pseudo-comm id the scheduler uses for splits (they synchronize the
/// whole world of the parent communicator).
const SPLIT_COMM: u64 = u64::MAX;

fn sync_head(progs: &[Vec<FlatOp>], pc: &[usize], r: usize) -> Option<(CollOp, u64)> {
    match progs[r].get(pc[r]).map(|f| &f.op) {
        Some(Op::Collective { op, comm }) => Some((*op, *comm)),
        Some(Op::Split { .. }) => Some((CollOp::Gather, SPLIT_COMM)),
        _ => None,
    }
}

/// Abstract execution of one scenario with mpisim semantics.
fn simulate(
    progs: &[Vec<FlatOp>],
    nominal: bool,
    scenario: &str,
    emit: &mut impl FnMut(ProtoDiag),
) {
    let n = progs.len();
    let mut pc = vec![0usize; n];
    // In-flight messages: per (src, dst, tag), the send sites queued.
    let mut in_flight: HashMap<MsgKey, VecDeque<(usize, usize)>> = HashMap::new();
    let mut consumed: HashSet<(usize, usize)> = HashSet::new();
    let mut collisions: HashSet<(usize, usize)> = HashSet::new();
    // Deadline receives that expired: (rank, op idx, src, tag).
    let mut expired: Vec<(usize, usize, usize, (u64, u64))> = Vec::new();

    // Communicator membership for synchronization: comm 0 is the world
    // (all ranks); any other comm is the set of ranks that use it in
    // this scenario.
    let mut members: HashMap<u64, Vec<usize>> = HashMap::new();
    members.insert(0, (0..n).collect());
    members.insert(SPLIT_COMM, (0..n).collect());
    for (rank, ops) in progs.iter().enumerate() {
        for f in ops {
            if let Op::Collective { comm, .. } = &f.op {
                if *comm != 0 {
                    let m = members.entry(*comm).or_default();
                    if !m.contains(&rank) {
                        m.push(rank);
                    }
                }
            }
        }
    }

    loop {
        // Every rank advances while it can; receives match in-flight
        // messages (step 1 of the quiescence rule).
        let mut progress = false;
        for r in 0..n {
            while let Some((op, idx)) = progs[r].get(pc[r]).map(|f| (f.op.clone(), f.idx)) {
                match op {
                    Op::Send { dst, tag } => {
                        let key = (r, dst, tag.norm());
                        let q = in_flight.entry(key).or_default();
                        if !q.is_empty() && collisions.insert((r, idx)) {
                            emit(ProtoDiag {
                                code: ProtoCode::TagCollision,
                                rank: r,
                                scenario: scenario.to_string(),
                                message: format!(
                                    "op {idx}: send to rank {dst} (tag {}) while an \
                                     earlier message on the same (src, dst, tag) is \
                                     still in flight",
                                    fmt_norm(tag.norm())
                                ),
                            });
                        }
                        q.push_back((r, idx));
                        pc[r] += 1;
                        progress = true;
                    }
                    Op::Recv { src, tag, .. } => {
                        let key = (src, r, tag.norm());
                        match in_flight.get_mut(&key).and_then(|q| q.pop_front()) {
                            Some(site) => {
                                consumed.insert(site);
                                pc[r] += 1;
                                progress = true;
                            }
                            None => break,
                        }
                    }
                    Op::Collective { .. } | Op::Split { .. } => {
                        let (cop, comm) =
                            sync_head(progs, &pc, r).expect("current op is synchronous");
                        let ms = members.get(&comm).cloned().unwrap_or_default();
                        let ready = ms
                            .iter()
                            .all(|&m| m == r || sync_head(progs, &pc, m) == Some((cop, comm)));
                        if !ready {
                            break;
                        }
                        for &m in &ms {
                            pc[m] += 1;
                        }
                        progress = true;
                    }
                }
            }
        }
        if progress {
            continue;
        }
        if (0..n).all(|r| pc[r] >= progs[r].len()) {
            break;
        }
        // No rank can advance: step 2 of the quiescence rule, every
        // deadline receive expires.
        let mut timed = false;
        for r in 0..n {
            if let Some(f) = progs[r].get(pc[r]) {
                if let Op::Recv { src, tag, blocking: false } = &f.op {
                    expired.push((r, f.idx, *src, tag.norm()));
                    pc[r] += 1;
                    timed = true;
                }
            }
        }
        if timed {
            continue;
        }
        // Step 3, genuinely stuck: blocking receives or collectives that
        // can never complete. Classify via the wait-for graph.
        report_stuck(progs, &pc, &in_flight, &members, scenario, emit);
        return;
    }

    if nominal {
        // E0701: nominal-path sends must all be consumed.
        let mut leftovers: Vec<(MsgKey, usize, usize)> = Vec::new();
        for (key, q) in &in_flight {
            for &(rank, idx) in q {
                if !consumed.contains(&(rank, idx)) {
                    leftovers.push((*key, rank, idx));
                }
            }
        }
        leftovers.sort_by_key(|&(_, rank, idx)| (rank, idx));
        for ((_, dst, tag), rank, idx) in leftovers {
            emit(ProtoDiag {
                code: ProtoCode::UnmatchedSend,
                rank,
                scenario: scenario.to_string(),
                message: format!(
                    "op {idx}: send from rank {rank} to rank {dst} (tag {}) \
                     is never received",
                    fmt_norm(tag)
                ),
            });
        }
        // E0702: nominal-path deadline receives must all be matched.
        for &(rank, idx, src, tag) in &expired {
            emit(ProtoDiag {
                code: ProtoCode::UnmatchedRecv,
                rank,
                scenario: scenario.to_string(),
                message: format!(
                    "op {idx}: deadline receive from rank {src} (tag {}) \
                     can never be matched on the nominal path",
                    fmt_norm(tag)
                ),
            });
        }
    }
}

/// Classify a stuck configuration: E0702 for blocking receives whose
/// sender has terminated, E0703 for wait-for cycles and collectives held
/// open by terminated ranks.
fn report_stuck(
    progs: &[Vec<FlatOp>],
    pc: &[usize],
    in_flight: &HashMap<MsgKey, VecDeque<(usize, usize)>>,
    members: &HashMap<u64, Vec<usize>>,
    scenario: &str,
    emit: &mut impl FnMut(ProtoDiag),
) {
    let n = progs.len();
    let done = |r: usize| pc[r] >= progs[r].len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        let Some(f) = progs[r].get(pc[r]) else { continue };
        match &f.op {
            Op::Recv { src, .. } if *src >= n => {
                emit(ProtoDiag {
                    code: ProtoCode::UnmatchedRecv,
                    rank: r,
                    scenario: scenario.to_string(),
                    message: format!(
                        "op {}: {} names rank {src}, outside the {n}-rank spec",
                        f.idx, f.op
                    ),
                });
            }
            Op::Recv { src, tag, .. } => {
                let empty = in_flight
                    .get(&(*src, r, tag.norm()))
                    .map(|q| q.is_empty())
                    .unwrap_or(true);
                if done(*src) && empty {
                    emit(ProtoDiag {
                        code: ProtoCode::UnmatchedRecv,
                        rank: r,
                        scenario: scenario.to_string(),
                        message: format!(
                            "op {}: blocking {} can never be matched: rank {src} \
                             has terminated without a matching send",
                            f.idx, f.op
                        ),
                    });
                } else {
                    adj[r].push(*src);
                }
            }
            Op::Collective { op, comm } => {
                for m in members.get(comm).cloned().unwrap_or_default() {
                    if m == r {
                        continue;
                    }
                    if done(m) {
                        emit(ProtoDiag {
                            code: ProtoCode::Deadlock,
                            rank: r,
                            scenario: scenario.to_string(),
                            message: format!(
                                "op {}: {op} on comm {comm} can never complete: \
                                 member rank {m} has terminated",
                                f.idx
                            ),
                        });
                    } else {
                        adj[r].push(m);
                    }
                }
            }
            Op::Split { .. } => {
                for m in 0..n {
                    if m != r {
                        if done(m) {
                            emit(ProtoDiag {
                                code: ProtoCode::Deadlock,
                                rank: r,
                                scenario: scenario.to_string(),
                                message: format!(
                                    "op {}: split can never complete: member rank {m} \
                                     has terminated",
                                    f.idx
                                ),
                            });
                        } else {
                            adj[r].push(m);
                        }
                    }
                }
            }
            Op::Send { .. } => {}
        }
    }
    if let Some(cycle) = find_cycle(&adj) {
        let path: Vec<String> = cycle.iter().map(|r| format!("rank {r}")).collect();
        emit(ProtoDiag {
            code: ProtoCode::Deadlock,
            rank: cycle[0],
            scenario: scenario.to_string(),
            message: format!(
                "rendezvous deadlock: {} -> rank {}",
                path.join(" -> "),
                cycle[0]
            ),
        });
    }
}

/// First cycle of a tiny digraph, as the node sequence around the loop.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    let n = adj.len();
    let mut color = vec![0u8; n]; // 0 = white, 1 = on stack, 2 = done
    let mut parent = vec![usize::MAX; n];

    fn dfs(
        u: usize,
        adj: &[Vec<usize>],
        color: &mut [u8],
        parent: &mut [usize],
    ) -> Option<(usize, usize)> {
        color[u] = 1;
        for &v in &adj[u] {
            if color[v] == 1 {
                return Some((v, u)); // back edge closes a cycle v..u
            }
            if color[v] == 0 {
                parent[v] = u;
                if let Some(c) = dfs(v, adj, color, parent) {
                    return Some(c);
                }
            }
        }
        color[u] = 2;
        None
    }

    for s in 0..n {
        if color[s] == 0 {
            if let Some((start, end)) = dfs(s, adj, &mut color, &mut parent) {
                let mut path = vec![end];
                let mut cur = end;
                while cur != start {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Broken-spec fixtures
// ---------------------------------------------------------------------

/// A deliberately broken spec and the code its verification must emit.
pub struct BrokenSpec {
    pub name: &'static str,
    pub spec: ProtocolSpec,
    pub expect: ProtoCode,
}

/// The negative fixture suite: one seeded protocol bug per E07xx code.
/// `esm-lint`'s protocol phase runs each and requires the exact expected
/// code to be present (and, for error codes, the spec to be non-clean).
pub fn broken_fixtures() -> Vec<BrokenSpec> {
    use crate::protocol::{arm, branch, coll, recv, recv_deadline, send, Tag};
    vec![
        BrokenSpec {
            name: "e0701-unreceived-send",
            spec: ProtocolSpec::new(
                "fixture/e0701-unreceived-send",
                vec![vec![send(1, Tag::k(5))], vec![]],
            ),
            expect: ProtoCode::UnmatchedSend,
        },
        BrokenSpec {
            name: "e0702-orphan-recv",
            spec: ProtocolSpec::new(
                "fixture/e0702-orphan-recv",
                vec![vec![], vec![recv(0, Tag::k(5))]],
            ),
            expect: ProtoCode::UnmatchedRecv,
        },
        BrokenSpec {
            name: "e0703-rendezvous-cycle",
            spec: ProtocolSpec::new(
                "fixture/e0703-rendezvous-cycle",
                vec![
                    vec![recv(1, Tag::k(1)), send(1, Tag::k(2))],
                    vec![recv(0, Tag::k(2)), send(0, Tag::k(1))],
                ],
            ),
            expect: ProtoCode::Deadlock,
        },
        BrokenSpec {
            name: "e0704-collective-order",
            spec: ProtocolSpec::new(
                "fixture/e0704-collective-order",
                vec![
                    vec![coll(CollOp::Barrier, 0), coll(CollOp::Sum, 0)],
                    vec![coll(CollOp::Sum, 0), coll(CollOp::Barrier, 0)],
                ],
            ),
            expect: ProtoCode::CollectiveDivergence,
        },
        BrokenSpec {
            name: "e0705-tag-collision",
            spec: ProtocolSpec::new(
                "fixture/e0705-tag-collision",
                vec![
                    vec![send(1, Tag::k(3)), send(1, Tag::k(3))],
                    vec![recv(0, Tag::k(3)), recv(0, Tag::k(3))],
                ],
            ),
            expect: ProtoCode::TagCollision,
        },
        BrokenSpec {
            name: "w0706-dead-branch",
            spec: ProtocolSpec::new(
                "fixture/w0706-dead-branch",
                vec![
                    vec![branch(
                        "mode",
                        vec![
                            arm("live", ArmCond::Nominal, vec![send(1, Tag::k(1))]),
                            arm("legacy", ArmCond::Dead, vec![send(1, Tag::k(2))]),
                        ],
                    )],
                    vec![recv_deadline(0, Tag::k(1))],
                ],
            ),
            expect: ProtoCode::DeadBranch,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{arm, branch, coll, recv, recv_deadline, send, Tag};

    #[test]
    fn clean_pair_verifies() {
        let spec = ProtocolSpec::new(
            "pair",
            vec![
                vec![send(1, Tag::w(2, 0)), recv_deadline(1, Tag::w(2, 1))],
                vec![recv_deadline(0, Tag::w(2, 0)), send(0, Tag::w(2, 1))],
            ],
        );
        let r = verify_spec(&spec);
        assert!(r.is_clean(), "diags: {:?}", r.diags);
        assert_eq!(r.scenarios, 1);
        assert_eq!(r.ops, 4);
    }

    #[test]
    fn every_fixture_trips_its_code() {
        for fx in broken_fixtures() {
            let r = verify_spec(&fx.spec);
            assert!(
                r.diags.iter().any(|d| d.code == fx.expect),
                "{}: expected {}, got {:?}",
                fx.name,
                fx.expect.code(),
                r.diags
            );
            if fx.expect.severity() == "error" {
                assert!(!r.is_clean(), "{} must not be clean", fx.name);
            } else {
                assert!(r.is_clean(), "{} is warning-only", fx.name);
                assert!(r.warnings() > 0);
            }
        }
    }

    #[test]
    fn fault_arms_relax_send_and_deadline_matching() {
        // A monitor that expects a beat unless its peer is silent: the
        // silent scenario strands the deadline receive, which is legal.
        let spec = ProtocolSpec::new(
            "hb",
            vec![
                vec![recv_deadline(1, Tag::w(1, 0))],
                vec![branch(
                    "peer",
                    vec![
                        arm("beat", ArmCond::Nominal, vec![send(0, Tag::w(1, 0))]),
                        arm("silent", ArmCond::Fault, vec![]),
                    ],
                )],
            ],
        );
        let r = verify_spec(&spec);
        assert!(r.is_clean(), "diags: {:?}", r.diags);
        assert_eq!(r.scenarios, 2);
    }

    #[test]
    fn blocking_recv_on_fault_arm_is_still_a_hang() {
        // Same shape but the monitor's receive is blocking: the silent
        // scenario hangs it forever -> E0702.
        let spec = ProtocolSpec::new(
            "hb-blocking",
            vec![
                vec![recv(1, Tag::w(1, 0))],
                vec![branch(
                    "peer",
                    vec![
                        arm("beat", ArmCond::Nominal, vec![send(0, Tag::w(1, 0))]),
                        arm("silent", ArmCond::Fault, vec![]),
                    ],
                )],
            ],
        );
        let r = verify_spec(&spec);
        assert!(r.diags.iter().any(|d| d.code == ProtoCode::UnmatchedRecv));
    }

    #[test]
    fn aligned_collectives_verify_clean() {
        let prog = || vec![coll(CollOp::Sum, 0), coll(CollOp::Barrier, 0)];
        let spec = ProtocolSpec::new("coll", vec![prog(), prog(), prog()]);
        let r = verify_spec(&spec);
        assert!(r.is_clean(), "diags: {:?}", r.diags);
    }

    #[test]
    fn acked_resend_on_same_tag_is_not_a_collision() {
        // send t; recv ack; send t again — the ack sequences the two
        // messages, so they are never simultaneously in flight.
        let spec = ProtocolSpec::new(
            "acked",
            vec![
                vec![send(1, Tag::k(3)), recv(1, Tag::k(9)), send(1, Tag::k(3))],
                vec![recv(0, Tag::k(3)), send(0, Tag::k(9)), recv(0, Tag::k(3))],
            ],
        );
        let r = verify_spec(&spec);
        assert!(r.is_clean(), "diags: {:?}", r.diags);
    }

    #[test]
    fn duplicate_arm_is_flagged_dead() {
        let spec = ProtocolSpec::new(
            "dup",
            vec![vec![branch(
                "mode",
                vec![
                    arm("a", ArmCond::Nominal, vec![]),
                    arm("b", ArmCond::Fault, vec![]),
                ],
            )]],
        );
        let r = verify_spec(&spec);
        assert!(r.diags.iter().any(|d| d.code == ProtoCode::DeadBranch));
        assert!(r.is_clean());
    }

    #[test]
    fn halo_pattern_verifies_clean() {
        let spec = crate::protocol::halo_spec(
            "halo",
            &[vec![1, 2], vec![0, 2], vec![0, 1]],
            &[vec![1, 2], vec![0, 2], vec![0, 1]],
            Tag::k(42),
        );
        let r = verify_spec(&spec);
        assert!(r.is_clean(), "diags: {:?}", r.diags);
    }
}
