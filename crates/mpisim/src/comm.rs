//! Ranks, communicators, point-to-point messaging, collectives, and the
//! world scheduler that decides when a wait is given up.
//!
//! Every rank of a [`World`] is a thread. Everything the ranks share —
//! inboxes, duplicate-suppression sets, trace rings, per-edge sequence
//! counters, delayed messages and in-progress collectives — sits behind
//! one mutex with one condvar. A rank that cannot proceed *parks*: a
//! receive with no matching message, or a collective some member has not
//! reached yet. Whoever lets a parked rank proceed wakes it under the
//! lock — a send that matches its receive, or the last member arriving
//! at its collective — and a rank's exit (return or panic) takes it out
//! of the running set for good.
//!
//! # The quiescence rule
//!
//! There is no clock. When no rank is running, the world is *quiescent*,
//! and the scheduler ([`Scheduler::quiesce`], the only place this rule
//! exists) takes the first of these steps that lets a rank run again:
//!
//! 1. messages held back by [`FaultAction::Delay`] are delivered;
//! 2. otherwise every parked deadline receive ([`Comm::recv_deadline`])
//!    returns [`CommError::Timeout`];
//! 3. otherwise every parked blocking receive returns
//!    [`CommError::ProtocolHang`], or, if none is parked, every parked
//!    collective panics naming its communicator: it can never complete.
//!
//! A peer that is merely slow (a descheduled thread) is always waited
//! for, and no outcome depends on how the host schedules threads.
//! Collectives fold their contributions in local-rank order, so a
//! reduction's rounding does not either, and a member that calls a
//! different collective op than the others panics them all.
//!
//! # Findings
//!
//! The scheduler notes what it sees wrong in the traces it returns
//! ([`RankTrace::findings`]): a deadline that expired or a receive that
//! hangs (E0702), ranks parked at step 3 in a wait-for cycle (E0703), a
//! collective that is stuck or mismatched (E0704), two messages queued
//! on one (src, dst, tag) (E0705), and, when the world exits, every
//! message still unreceived (E0701). [`crate::explore`] classifies them.

use crate::fault::{msg_checksum, CommError, FaultAction, FaultPlan};
use crate::protocol::{CollOp, ProtoCode, RankTrace, TraceOp};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A point-to-point message. Payloads are `f64` vectors — every field and
/// flux in the model is `f64`, matching the double-precision claim of the
/// paper. Each message
/// carries a per-edge sequence number (receiver-side deduplication of
/// injected duplicates) and an FNV checksum (detection of corruption).
#[derive(Debug)]
struct Message {
    src: usize,
    tag: u64,
    seq: u64,
    checksum: u64,
    data: Vec<f64>,
}

/// What a parked rank waits for.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// A message from world rank `src` with namespaced `tag`; `deadline`
    /// marks a [`Comm::recv_deadline`].
    Recv { src: usize, tag: u64, deadline: bool },
    /// The other members of the collective on communicator `comm` (tag
    /// namespace).
    Collective { comm: u64 },
}

impl Wait {
    /// When the quiescence rule gives this wait up, lowest first: the
    /// step number, with collectives after blocking receives in step 3.
    fn expiry_order(self) -> u8 {
        match self {
            Wait::Recv { deadline: true, .. } => 2,
            Wait::Recv { deadline: false, .. } => 3,
            Wait::Collective { .. } => 4,
        }
    }
}

/// How the scheduler ended a wait that no message ended.
enum Wake {
    /// The collective completed with this result.
    Reduced(Vec<f64>),
    /// The world went quiescent and the wait was given up.
    Expired,
    /// A member called a different collective op; carries the panic
    /// message every member of the collective ends with.
    Mismatch(String),
}

/// A collective in progress on one communicator.
struct Rendezvous {
    /// The op the first member arrived with.
    op: CollOp,
    /// World ranks of the members, by local rank.
    group: Vec<usize>,
    /// Contributions, by local rank.
    parts: Vec<Option<Vec<f64>>>,
}

impl Rendezvous {
    /// World ranks of the members that have (or have not) arrived.
    fn members(&self, arrived: bool) -> Vec<usize> {
        let group = self.group.iter().zip(&self.parts);
        group.filter(|(_, p)| p.is_some() == arrived).map(|(&w, _)| w).collect()
    }
}

/// One rank's share of the world state.
#[derive(Default)]
struct RankSlot {
    /// Arrived messages not yet received, in arrival order.
    inbox: VecDeque<Message>,
    /// `(src, seq)` pairs already delivered, for duplicate suppression.
    delivered: HashSet<(usize, u64)>,
    /// The rank's message trace (always-on, bounded ring).
    trace: RankTrace,
    /// Split series counter, shared by every communicator of the rank.
    splits: u64,
    /// `Some` while the rank is parked.
    wait: Option<Wait>,
    wake: Option<Wake>,
}

/// The state of a world, behind its one lock.
struct Scheduler {
    ranks: Vec<RankSlot>,
    /// Ranks neither parked nor exited.
    running: usize,
    /// Next sequence number per (src, dst) world-rank edge.
    seq: HashMap<(usize, usize), u64>,
    /// Messages held back until the world is quiescent, with their
    /// destination, in send order.
    delayed: Vec<(usize, Message)>,
    /// Each communicator's collective in progress, by tag namespace.
    collectives: HashMap<u64, Rendezvous>,
}

impl Scheduler {
    fn new(n: usize) -> Scheduler {
        Scheduler {
            ranks: (0..n).map(|_| RankSlot { splits: 1, ..RankSlot::default() }).collect(),
            running: n,
            seq: HashMap::new(),
            delayed: Vec::new(),
            collectives: HashMap::new(),
        }
    }

    fn next_seq(&mut self, src: usize, dst: usize) -> u64 {
        let s = self.seq.entry((src, dst)).or_insert(0);
        *s += 1;
        *s
    }

    fn unpark(&mut self, rank: usize) {
        self.ranks[rank].wait = None;
        self.running += 1;
    }

    /// Put `msg` into `dst`'s inbox. Returns whether this woke `dst`,
    /// which it does only if `dst` is parked on exactly this message.
    fn post(&mut self, dst: usize, msg: Message) -> bool {
        let wakes = matches!(
            self.ranks[dst].wait,
            Some(Wait::Recv { src, tag, .. }) if src == msg.src && tag == msg.tag
        );
        let slot = &self.ranks[dst];
        let queued = slot.inbox.iter().find(|m| {
            m.src == msg.src
                && m.tag == msg.tag
                && m.seq != msg.seq
                && !slot.delivered.contains(&(m.src, m.seq))
        });
        if let Some(q) = queued {
            let message = format!(
                "messages {} and {} to rank {dst} queued at once on tag {}",
                q.seq, msg.seq, msg.tag
            );
            self.ranks[msg.src].trace.note(ProtoCode::TagCollision, msg.src, message, false);
        }
        self.ranks[dst].inbox.push_back(msg);
        if wakes {
            self.unpark(dst);
        }
        wakes
    }

    /// Take the next message from `src` with `tag` out of `me`'s inbox,
    /// skipping duplicates of delivered ones: `None` if there is none,
    /// `Some(Err)` if its checksum fails, else the payload and its
    /// sequence number.
    fn take(
        &mut self,
        me: usize,
        src: usize,
        tag: u64,
    ) -> Option<Result<(Vec<f64>, u64), CommError>> {
        let slot = &mut self.ranks[me];
        while let Some(pos) = slot.inbox.iter().position(|m| m.src == src && m.tag == tag) {
            let msg = slot.inbox.remove(pos).expect("position is in range");
            if !slot.delivered.insert((msg.src, msg.seq)) {
                continue; // duplicate of an already-delivered message
            }
            if msg_checksum(msg.tag, msg.seq, &msg.data) != msg.checksum {
                return Some(Err(CommError::Corrupt { src: msg.src, tag: msg.tag, seq: msg.seq }));
            }
            return Some(Ok((msg.data, msg.seq)));
        }
        None
    }

    /// Apply the quiescence rule of the module doc, noting a finding for
    /// every wait it gives up.
    fn quiesce(&mut self) {
        for (dst, msg) in std::mem::take(&mut self.delayed) {
            self.post(dst, msg);
        }
        if self.running > 0 {
            return;
        }
        let parked_order = |s: &RankSlot| s.wait.map(Wait::expiry_order);
        let Some(first) = self.ranks.iter().filter_map(parked_order).min() else {
            return;
        };
        let expired: Vec<usize> = (0..self.ranks.len())
            .filter(|&r| parked_order(&self.ranks[r]) == Some(first))
            .collect();
        // Step 3 gives up waits nothing can end: a wait-for cycle is named
        // once, at its first rank, and every other wait on its own.
        let cycle = if first > 2 { find_cycle(&self.waits_for()) } else { None };
        if let Some(c) = &cycle {
            let path: Vec<String> = c.iter().map(|r| format!("rank {r}")).collect();
            let message = format!("rendezvous deadlock: {} -> {}", path.join(" -> "), path[0]);
            self.ranks[c[0]].trace.note(ProtoCode::Deadlock, c[0], message, false);
        }
        for r in expired {
            let wait = self.ranks[r].wait.expect("expired ranks are parked");
            if !cycle.as_ref().is_some_and(|c| c.contains(&r)) {
                let (code, message) = match wait {
                    Wait::Recv { src, tag, deadline: true } => (
                        ProtoCode::UnmatchedRecv,
                        format!("deadline receive from rank {src} (tag {tag}) expired"),
                    ),
                    Wait::Recv { src, tag, deadline: false } => (
                        ProtoCode::UnmatchedRecv,
                        format!("blocking receive from rank {src} (tag {tag}) can never be matched"),
                    ),
                    Wait::Collective { comm } => (
                        ProtoCode::CollectiveDivergence,
                        format!("collective on communicator {comm:#x} can never complete"),
                    ),
                };
                // Only a deadline expiry (step 2) is a fault's degraded mode.
                self.ranks[r].trace.note(code, r, message, first == 2);
            }
            self.ranks[r].wake = Some(Wake::Expired);
            self.unpark(r);
        }
    }

    /// The wait-for graph of the parked ranks: a receive waits for its
    /// source, a collective for every member that has not arrived.
    fn waits_for(&self) -> Vec<Vec<usize>> {
        self.ranks
            .iter()
            .map(|slot| match slot.wait {
                Some(Wait::Recv { src, .. }) => vec![src],
                Some(Wait::Collective { comm }) => {
                    self.collectives.get(&comm).map_or(Vec::new(), |c| c.members(false))
                }
                None => Vec::new(),
            })
            .collect()
    }

    /// The world has exited: note every message still unreceived, sort
    /// the findings and hand the traces out.
    fn finish(&mut self) -> Vec<RankTrace> {
        for dst in 0..self.ranks.len() {
            let slot = &mut self.ranks[dst];
            let unreceived: Vec<(usize, u64, u64)> = slot
                .inbox
                .iter()
                .filter(|m| !slot.delivered.contains(&(m.src, m.seq)))
                .map(|m| (m.src, m.tag, m.seq))
                .collect();
            for (src, tag, seq) in unreceived {
                let message = format!("message {seq} to rank {dst} (tag {tag}) was never received");
                self.ranks[src].trace.note(ProtoCode::UnmatchedSend, src, message, true);
            }
        }
        self.ranks
            .iter_mut()
            .map(|r| {
                let mut trace = std::mem::take(&mut r.trace);
                trace.findings.sort();
                trace
            })
            .collect()
    }
}

/// First cycle of a tiny digraph, as the node sequence around the loop.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
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

    let n = adj.len();
    let mut color = vec![0u8; n]; // 0 = unvisited, 1 = on stack, 2 = done
    let mut parent = vec![usize::MAX; n];
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

/// What the ranks of one world share.
struct WorldShared {
    faults: Option<Arc<FaultPlan>>,
    sched: Mutex<Scheduler>,
    /// Signalled whenever a parked rank is woken.
    cv: Condvar,
}

impl WorldShared {
    /// Park `me` on `wait` until a waker ends it.
    fn park(&self, s: &mut MutexGuard<'_, Scheduler>, me: usize, wait: Wait) {
        s.ranks[me].wait = Some(wait);
        self.stop_running(s);
        while s.ranks[me].wait.is_some() {
            self.cv.wait(s);
        }
    }

    /// One rank parks or exits; the last one to stop running applies the
    /// quiescence rule.
    fn stop_running(&self, s: &mut Scheduler) {
        s.running -= 1;
        if s.running == 0 {
            s.quiesce();
            self.cv.notify_all();
        }
    }
}

/// Takes its rank out of the running set when the rank's body returns
/// or panics.
struct ExitGuard(Arc<WorldShared>);

impl Drop for ExitGuard {
    fn drop(&mut self) {
        self.0.stop_running(&mut self.0.sched.lock());
    }
}

/// An SPMD world: `n` ranks running concurrently on threads.
pub struct World;

impl World {
    /// Run `f` on `n` ranks and collect each rank's result, ordered by
    /// rank. Panics in any rank propagate.
    pub fn run<T: Send>(n: usize, f: impl Fn(Comm) -> T + Sync) -> Vec<T> {
        Self::run_traced(n, None, f).0
    }

    /// Run `f` on `n` ranks with `faults` (if any) injected into the
    /// point-to-point layer, and return each rank's trace too: the ops it
    /// attempted and the scheduler's findings about the round (the exit
    /// check the fault-tolerant drivers run on every live round). The
    /// plan is shared: its edge counters and one-shot faults persist
    /// across successive worlds run with it.
    pub fn run_traced<T: Send>(
        n: usize,
        faults: Option<Arc<FaultPlan>>,
        f: impl Fn(Comm) -> T + Sync,
    ) -> (Vec<T>, Vec<RankTrace>) {
        assert!(n >= 1);
        let shared = Arc::new(WorldShared {
            faults,
            sched: Mutex::new(Scheduler::new(n)),
            cv: Condvar::new(),
        });
        let exploring = crate::explore::exploring();
        let joined: Vec<std::thread::Result<T>> = std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let shared = shared.clone();
                    s.spawn(move || {
                        crate::explore::quiet_panics(exploring);
                        let _exit = ExitGuard(shared.clone());
                        f(Comm {
                            rank,
                            size: n,
                            group: (0..n).collect(),
                            tag_ns: 0,
                            shared,
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let traces = shared.sched.lock().finish();
        crate::explore::observe(&traces);
        let results = joined
            .into_iter()
            .enumerate()
            .map(|(rank, r)| {
                r.unwrap_or_else(|p| {
                    panic!("rank panicked (rank {rank}): {}", crate::explore::panic_text(&*p))
                })
            })
            .collect();
        (results, traces)
    }
}

/// A communicator: the world communicator, or a subgroup created by
/// [`Comm::split`]. Rank numbers are local to the communicator.
pub struct Comm {
    rank: usize,
    size: usize,
    /// World ranks of the group members, indexed by local rank.
    group: Vec<usize>,
    /// Tag namespace distinguishing communicators sharing inboxes.
    tag_ns: u64,
    shared: Arc<WorldShared>,
}

impl Comm {
    /// Rank within this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Non-blocking send of an `f64` payload to local rank `dst` with a
    /// user `tag` (buffered, like MPI eager sends). If the world carries a
    /// fault plan, the message may be dropped, delayed, duplicated, or
    /// bit-flipped here.
    pub fn send(&self, dst: usize, tag: u64, data: &[f64]) {
        let (src, dst) = (self.group[self.rank], self.group[dst]);
        let ns_tag = self.tag_ns ^ tag;
        let mut s = self.shared.sched.lock();
        let seq = s.next_seq(src, dst);
        s.ranks[src].trace.record(TraceOp::Send { dst, tag }, seq);
        let mut data = data.to_vec();
        // Checksum covers the payload as sent; a bit flip below happens
        // *after* checksumming, so the receiver sees the mismatch.
        let checksum = msg_checksum(ns_tag, seq, &data);
        let (mut copies, mut delay) = (1, false);
        let action = self.shared.faults.as_ref().and_then(|p| p.take_action(src, dst));
        match action {
            None => {}
            Some(FaultAction::Drop) => return,
            Some(FaultAction::Delay) => delay = true,
            Some(FaultAction::Duplicate) => copies = 2,
            Some(FaultAction::BitFlip { bit }) if !data.is_empty() => {
                let i = (bit / 64) % data.len();
                data[i] = f64::from_bits(data[i].to_bits() ^ (1u64 << (bit % 64)));
            }
            Some(FaultAction::BitFlip { .. }) => {}
        }
        // A message sent behind a delayed one on the same edge waits with
        // it: messages never overtake each other on an edge (as in MPI).
        let delay = delay || s.delayed.iter().any(|(d, m)| *d == dst && m.src == src);
        for _ in 0..copies {
            let msg = Message { src, tag: ns_tag, seq, checksum, data: data.clone() };
            if delay {
                s.delayed.push((dst, msg));
            } else if s.post(dst, msg) {
                self.shared.cv.notify_all();
            }
        }
    }

    /// Blocking receive of the next message from local rank `src` with
    /// `tag`. Out-of-order arrivals (other sources/tags) are buffered.
    /// Panics on corruption or a protocol hang — use
    /// [`Comm::recv_deadline`] in fault-aware code, or
    /// [`Comm::recv_checked`] for the same semantics with typed errors.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f64> {
        self.recv_checked(src, tag)
            .unwrap_or_else(|e| panic!("recv failed: {e}"))
    }

    /// [`Comm::recv`] with typed errors instead of panics. A receive no
    /// send will ever match (e.g. posted with the wrong tag) does not
    /// stall: once the world is quiescent and no deadline receive is left
    /// to expire (step 3 of the quiescence rule in the module doc) it
    /// reports [`CommError::ProtocolHang`] naming the awaited src and tag.
    pub fn recv_checked(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.recv_inner(src, tag, false)
    }

    /// Deadline receive: reports [`CommError::Timeout`]
    /// once the world is quiescent without a matching message (step 2 of
    /// the quiescence rule in the module doc) — the peer is dead, or the
    /// message was dropped. Injected duplicates are suppressed by sequence
    /// number; corrupted payloads surface as [`CommError::Corrupt`].
    pub fn recv_deadline(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        self.recv_inner(src, tag, true)
    }

    fn recv_inner(&self, src: usize, tag: u64, deadline: bool) -> Result<Vec<f64>, CommError> {
        let (me, src) = (self.group[self.rank], self.group[src]);
        let ns_tag = self.tag_ns ^ tag;
        let wait = Wait::Recv { src, tag: ns_tag, deadline };
        let mut s = self.shared.sched.lock();
        let r = loop {
            if let Some(r) = s.take(me, src, ns_tag) {
                break r;
            }
            self.shared.park(&mut s, me, wait);
            if let Some(Wake::Expired) = s.ranks[me].wake.take() {
                break Err(if deadline {
                    CommError::Timeout { src, tag }
                } else {
                    CommError::ProtocolHang { src, tag }
                });
            }
        };
        let (op, seq) = match &r {
            Ok((_, seq)) => (TraceOp::Recv { src, tag }, *seq),
            Err(CommError::Corrupt { seq, .. }) => (TraceOp::RecvFailed { src, tag }, *seq),
            Err(_) => (TraceOp::RecvFailed { src, tag }, 0),
        };
        s.ranks[me].trace.record(op, seq);
        r.map(|(data, _)| data)
    }

    /// Barrier across the communicator.
    pub fn barrier(&self) {
        self.rendezvous(CollOp::Barrier, &[], |_| Vec::new());
    }

    /// Sum-allreduce of a scalar.
    pub fn allreduce_sum(&self, x: f64) -> f64 {
        self.allreduce_sum_vec(&[x])[0]
    }

    /// Element-wise sum-allreduce of a vector.
    pub fn allreduce_sum_vec(&self, xs: &[f64]) -> Vec<f64> {
        self.allreduce(CollOp::Sum, xs, |a, b| a + b)
    }

    /// Max-allreduce of a scalar.
    pub fn allreduce_max(&self, x: f64) -> f64 {
        self.allreduce(CollOp::Max, &[x], f64::max)[0]
    }

    /// Min-allreduce of a scalar.
    pub fn allreduce_min(&self, x: f64) -> f64 {
        self.allreduce(CollOp::Min, &[x], f64::min)[0]
    }

    /// Gather a scalar from every rank (result indexed by local rank).
    pub fn allgather(&self, x: f64) -> Vec<f64> {
        self.rendezvous(CollOp::Gather, &[x], |parts| parts.concat())
    }

    /// Element-wise reduction, folded in local-rank order.
    fn allreduce(&self, op: CollOp, xs: &[f64], combine: fn(f64, f64) -> f64) -> Vec<f64> {
        self.rendezvous(op, xs, |parts| {
            let mut acc = parts[0].clone();
            for p in &parts[1..] {
                assert_eq!(acc.len(), p.len(), "mismatched collective payload sizes");
                for (a, b) in acc.iter_mut().zip(p) {
                    *a = combine(*a, *b);
                }
            }
            acc
        })
    }

    /// Contribute `xs` to this communicator's collective `op` and wait
    /// for every member's. The last member to arrive computes `finish`
    /// over the contributions in local-rank order and hands every member
    /// the result. A member arriving with another op than the first one
    /// did panics, and so does every member already waiting.
    fn rendezvous(
        &self,
        op: CollOp,
        xs: &[f64],
        finish: impl FnOnce(&[Vec<f64>]) -> Vec<f64>,
    ) -> Vec<f64> {
        let (me, ns) = (self.group[self.rank], self.tag_ns);
        let mut s = self.shared.sched.lock();
        s.ranks[me].trace.record(TraceOp::Collective { op, comm: ns }, 0);
        let c = s.collectives.entry(ns).or_insert_with(|| Rendezvous {
            op,
            group: self.group.clone(),
            parts: vec![None; self.size],
        });
        if c.op != op {
            let c = s.collectives.remove(&ns).expect("entered above");
            let mut ops = [c.op.to_string(), op.to_string()];
            ops.sort();
            let text = format!(
                "collective ops differ on communicator {ns:#x}: {} and {}",
                ops[0], ops[1]
            );
            let waiting = c.members(true);
            let first = waiting.iter().copied().chain([me]).min().expect("me");
            s.ranks[first].trace.note(ProtoCode::CollectiveDivergence, first, text.clone(), false);
            for w in waiting {
                s.ranks[w].wake = Some(Wake::Mismatch(text.clone()));
                s.unpark(w);
            }
            self.shared.cv.notify_all();
            drop(s);
            panic!("{text}");
        }
        c.parts[self.rank] = Some(xs.to_vec());
        if c.parts.iter().any(Option::is_none) {
            self.shared.park(&mut s, me, Wait::Collective { comm: ns });
            match s.ranks[me].wake.take() {
                Some(Wake::Reduced(out)) => return out,
                Some(Wake::Mismatch(text)) => {
                    drop(s);
                    panic!("{text}");
                }
                _ => {
                    s.collectives.remove(&ns);
                    drop(s);
                    panic!(
                        "collective on communicator {ns:#x} can never complete: \
                         a member has exited or waits elsewhere"
                    );
                }
            }
        }
        let c = s.collectives.remove(&ns).expect("entered above");
        let parts: Vec<Vec<f64>> = c.parts.into_iter().map(|p| p.expect("all arrived")).collect();
        let out = finish(&parts);
        for (local, &world) in self.group.iter().enumerate() {
            if local != self.rank {
                s.ranks[world].wake = Some(Wake::Reduced(out.clone()));
                s.unpark(world);
            }
        }
        self.shared.cv.notify_all();
        out
    }

    /// Split the communicator by `color` (collective over this
    /// communicator). Returns a sub-communicator containing the ranks that
    /// passed the same color, ordered by parent rank. Mirrors
    /// `MPI_Comm_split` (every rank must participate; distinct colors give
    /// disjoint groups).
    pub fn split(&self, color: i64) -> Comm {
        let me = self.group[self.rank];
        // Unique series id for this split call: every rank bumps its own
        // counter, and the max makes everyone agree even if other splits
        // happened on sibling communicators.
        let series = {
            let mut s = self.shared.sched.lock();
            s.ranks[me].splits += 1;
            s.ranks[me].splits
        };
        let series = self.allreduce_max(series as f64) as u64;
        {
            let mut s = self.shared.sched.lock();
            s.ranks[me].splits = s.ranks[me].splits.max(series);
        }

        let colors = self.allgather(color as f64);
        let members: Vec<usize> = (0..self.size)
            .filter(|&r| colors[r] as i64 == color)
            .collect();
        let my_new_rank = members
            .iter()
            .position(|&r| r == self.rank)
            .expect("self in own color group");
        let group: Vec<usize> = members.iter().map(|&r| self.group[r]).collect();

        // Namespace tags by (parent namespace, series, color) so messages
        // and collectives on different communicators between the same
        // ranks cannot collide.
        let tag_ns = self
            .tag_ns
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(series << 24)
            .wrapping_add((color as u64) << 4)
            | 1 << 63;

        self.shared.sched.lock().ranks[me].trace.record(TraceOp::Split { color }, 0);
        Comm {
            rank: my_new_rank,
            size: members.len(),
            group,
            tag_ns,
            shared: self.shared.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let results = World::run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, &[comm.rank() as f64]);
            comm.recv(prev, 7)[0]
        });
        assert_eq!(results, vec![4.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1.0]);
                comm.send(1, 2, &[2.0]);
                0.0
            } else {
                // Receive in reverse tag order.
                let b = comm.recv(0, 2)[0];
                let a = comm.recv(0, 1)[0];
                a * 10.0 + b
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn allreduce_and_gather() {
        let results = World::run(6, |comm| {
            let s = comm.allreduce_sum(comm.rank() as f64);
            let mx = comm.allreduce_max(comm.rank() as f64);
            let mn = comm.allreduce_min(comm.rank() as f64);
            let g = comm.allgather((comm.rank() * 2) as f64);
            (s, mx, mn, g)
        });
        for (s, mx, mn, g) in results {
            assert_eq!(s, 15.0);
            assert_eq!(mx, 5.0);
            assert_eq!(mn, 0.0);
            assert_eq!(g, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0]);
        }
        // Cancellation makes the sum order-sensitive: folded in rank order
        // it is (1e16 + 1) - 1e16 = 0 on every run, whichever thread
        // arrives first.
        for _ in 0..500 {
            let sums = World::run(3, |comm| {
                comm.allreduce_sum([1e16, 1.0, -1e16][comm.rank()])
            });
            assert_eq!(sums, vec![0.0; 3]);
        }
    }

    #[test]
    fn repeated_collectives_stay_separate() {
        let results = World::run(4, |comm| {
            (0..50)
                .map(|round| comm.allreduce_sum((comm.rank() + round) as f64))
                .collect::<Vec<_>>()
        });
        for sums in results {
            for (round, s) in sums.iter().enumerate() {
                // sum over r of (r + round) = 6 + 4*round
                assert_eq!(*s, (6 + 4 * round) as f64);
            }
        }
    }

    #[test]
    fn single_rank_collective_is_identity() {
        let results = World::run(1, |comm| {
            comm.barrier();
            comm.allreduce_sum_vec(&[3.0, 4.0])
        });
        assert_eq!(results[0], vec![3.0, 4.0]);
    }

    #[test]
    fn collective_a_member_never_reaches_panics_naming_its_communicator() {
        let results = World::run(2, |comm| {
            if comm.rank() == 1 {
                return String::new();
            }
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| comm.barrier()))
                .expect_err("a barrier rank 1 never reaches cannot complete");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        });
        assert!(
            results[0].contains("collective on communicator 0x0 can never complete"),
            "{}",
            results[0]
        );
    }

    #[test]
    fn a_collective_whose_members_call_different_ops_panics_them_all() {
        // Before the op was recorded per communicator, the last member to
        // arrive decided: [3.0, 3.0] or [2.0, 2.0] by thread timing.
        for _ in 0..50 {
            let results = World::run(2, |comm| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if comm.rank() == 0 {
                        comm.allreduce_max(1.0)
                    } else {
                        comm.allreduce_sum(2.0)
                    }
                }))
                .map_err(|p| crate::explore::panic_text(&*p))
            });
            let want = "collective ops differ on communicator 0x0: allreduce-max and allreduce-sum";
            assert_eq!(results, vec![Err(want.to_string()), Err(want.to_string())]);
        }
    }

    #[test]
    fn traces_count_every_send_and_collective() {
        let (_, traces) = World::run_traced(3, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0.0; 10]);
            }
            if comm.rank() == 1 {
                comm.recv(0, 0);
            }
            comm.barrier();
        });
        let count = |t: &RankTrace, send: bool| {
            let hit = |op: &TraceOp| match op {
                TraceOp::Send { .. } => send,
                TraceOp::Collective { .. } => !send,
                _ => false,
            };
            t.events.iter().filter(|e| hit(&e.op)).count()
        };
        let sends: Vec<usize> = traces.iter().map(|t| count(t, true)).collect();
        assert_eq!(sends, [1, 0, 0]);
        assert!(traces.iter().all(|t| count(t, false) == 1), "one barrier per rank");
    }

    #[test]
    fn split_groups_work_independently() {
        // 6 ranks split into even/odd groups; each group sums its ranks.
        let results = World::run(6, |comm| {
            let color = (comm.rank() % 2) as i64;
            let sub = comm.split(color);
            let group_sum = sub.allreduce_sum(comm.rank() as f64);
            // p2p within the subgroup: local rank 0 sends to local rank 1.
            if sub.rank() == 0 {
                sub.send(1, 9, &[group_sum]);
            }
            let got = if sub.rank() == 1 {
                sub.recv(0, 9)[0]
            } else {
                -1.0
            };
            (sub.rank(), sub.size(), group_sum, got)
        });
        // Even group = world ranks {0,2,4} sum 6; odd = {1,3,5} sum 9.
        for (wr, (sr, ss, sum, got)) in results.iter().enumerate() {
            assert_eq!(*ss, 3);
            let expect = if wr % 2 == 0 { 6.0 } else { 9.0 };
            assert_eq!(*sum, expect);
            assert_eq!(*sr, wr / 2);
            if *sr == 1 {
                assert_eq!(*got, expect);
            }
        }
    }

    #[test]
    fn world_and_sub_communicators_do_not_cross_talk() {
        let results = World::run(4, |comm| {
            let sub = comm.split((comm.rank() / 2) as i64);
            // Same (thread pair, tag) on world and sub communicators.
            if comm.rank() == 0 {
                comm.send(1, 5, &[100.0]); // world: 0 -> 1
            }
            if sub.rank() == 0 {
                sub.send(1, 5, &[200.0]); // sub group {0,1}: 0 -> 1 (world 1)
            }
            if comm.rank() == 1 {
                let w = comm.recv(0, 5)[0];
                let s = sub.recv(0, 5)[0];
                (w, s)
            } else {
                (0.0, 0.0)
            }
        });
        assert_eq!(results[1], (100.0, 200.0));
    }

    #[test]
    #[should_panic(expected = "rank panicked (rank 1): boom")]
    fn rank_panics_propagate() {
        World::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn wrong_tag_recv_reports_protocol_hang_instead_of_stalling() {
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[3.0]);
                Ok(vec![])
            } else {
                // Tag 2 is never sent: without the quiescence rule this
                // blocking receive would stall the test forever.
                comm.recv_checked(0, 2)
            }
        });
        assert_eq!(results[1], Err(CommError::ProtocolHang { src: 0, tag: 2 }));
    }

    #[test]
    fn deadline_receives_expire_before_blocking_receives_hang() {
        // Rank 1 blocks on a message rank 0 sends only after its own
        // deadline receive has expired: step 2 of the rule must run first.
        let results = World::run(2, |comm| {
            if comm.rank() == 0 {
                let r = comm.recv_deadline(1, 4);
                comm.send(1, 5, &[1.0]);
                r
            } else {
                comm.recv_checked(0, 5)
            }
        });
        assert_eq!(results[0], Err(CommError::Timeout { src: 1, tag: 4 }));
        assert_eq!(results[1], Ok(vec![1.0]));
    }

    #[test]
    fn world_records_per_rank_traces() {
        use crate::protocol::TraceOp;
        let (_, traces) = World::run_traced(2, None, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0]);
            } else {
                comm.recv(0, 7);
            }
            comm.barrier();
        });
        assert_eq!(traces[0].events[0].op, TraceOp::Send { dst: 1, tag: 7 });
        assert_eq!(traces[0].events[0].seq, 1);
        assert_eq!(traces[1].events[0].op, TraceOp::Recv { src: 0, tag: 7 });
        assert!(matches!(
            traces[0].events[1].op,
            TraceOp::Collective {
                op: CollOp::Barrier,
                comm: 0
            }
        ));
        assert_eq!(traces[0].dropped, 0);
    }

    #[test]
    fn failed_recv_attempts_are_traced() {
        use crate::protocol::TraceOp;
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Drop));
        let (_, traces) = World::run_traced(2, Some(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[42.0]);
            } else {
                let _ = comm.recv_deadline(0, 3);
            }
        });
        assert_eq!(
            traces[1].events[0].op,
            TraceOp::RecvFailed { src: 0, tag: 3 }
        );
    }

    #[test]
    fn dropped_message_times_out_typed() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Drop));
        let (results, _) = World::run_traced(2, Some(plan.clone()), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[42.0]);
                Ok(vec![])
            } else {
                comm.recv_deadline(0, 3)
            }
        });
        assert_eq!(results[1], Err(CommError::Timeout { src: 0, tag: 3 }));
        assert_eq!(plan.report().dropped, 1);
    }

    #[test]
    fn delayed_message_is_delivered_before_any_deadline_expires() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Delay));
        let (results, _) = World::run_traced(2, Some(plan.clone()), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[7.0]);
                Ok(vec![])
            } else {
                comm.recv_deadline(0, 3)
            }
        });
        assert_eq!(results[1], Ok(vec![7.0]));
        assert_eq!(plan.report().delayed, 1);
    }

    #[test]
    fn a_delayed_message_is_not_overtaken_on_its_edge() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Delay));
        let (results, _) = World::run_traced(2, Some(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[1.0]);
                comm.send(1, 3, &[2.0]);
                (vec![], vec![])
            } else {
                (comm.recv(0, 3), comm.recv(0, 3))
            }
        });
        assert_eq!(results[1], (vec![1.0], vec![2.0]));
    }

    #[test]
    fn duplicates_are_delivered_exactly_once() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Duplicate));
        let (results, _) = World::run_traced(2, Some(plan.clone()), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[1.0]);
                comm.send(1, 3, &[2.0]);
                (vec![], vec![])
            } else {
                // The duplicate of the first message must not shadow the
                // second: sequence-number dedup skips it.
                let a = comm.recv(0, 3);
                let b = comm.recv(0, 3);
                (a, b)
            }
        });
        assert_eq!(results[1], (vec![1.0], vec![2.0]));
        assert_eq!(plan.report().duplicated, 1);
    }

    #[test]
    fn bit_flip_is_caught_by_checksum() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::BitFlip { bit: 77 }));
        let (results, _) = World::run_traced(2, Some(plan.clone()), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[1.0, 2.0, 3.0]);
                Ok(vec![])
            } else {
                comm.recv_deadline(0, 3)
            }
        });
        assert!(
            matches!(results[1], Err(CommError::Corrupt { src: 0, seq: 1, .. })),
            "expected corruption, got {:?}",
            results[1]
        );
        assert_eq!(plan.report().bit_flipped, 1);
    }

    #[test]
    fn faultless_plan_is_transparent() {
        let plan = Arc::new(FaultPlan::seeded(99, 4, 0));
        let (results, _) = World::run_traced(4, Some(plan), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, &[comm.rank() as f64]);
            comm.recv_deadline(prev, 7).unwrap()[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }
}
