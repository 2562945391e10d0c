//! Ranks, communicators, point-to-point messaging, and communicator
//! splitting.

use crate::collective::{combine_max, combine_min, combine_sum, CollectiveCtx};
use crate::fault::{msg_checksum, CommError, FaultAction, FaultPlan};
use crate::protocol::{CollOp, RankTrace, TraceOp};
use crate::stats::TrafficStats;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point-to-point message. Payloads are `f64` vectors — every field and
/// flux in the model is `f64`, and the traffic meter charges 8 bytes per
/// element, matching the double-precision claim of the paper. Each message
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

/// Shared state of a world: one collective context per communicator
/// (created lazily on `split`), the traffic meter, per-edge sequence
/// counters, and the optional fault plan.
struct WorldShared {
    stats: Arc<TrafficStats>,
    /// Communicator registry: `(parent namespace, split series, color) ->
    /// context`.
    split_ctx: Mutex<HashMap<(u64, u64, i64), Arc<CollectiveCtx>>>,
    /// Next sequence number per (src, dst) world-rank edge.
    seq: Mutex<HashMap<(usize, usize), u64>>,
    faults: Option<Arc<FaultPlan>>,
    /// Deadline after which a *blocking* receive gives up and reports a
    /// [`CommError::ProtocolHang`] instead of stalling silently forever
    /// (e.g. a receive posted with the wrong tag).
    hang_deadline: Duration,
}

impl WorldShared {
    fn next_seq(&self, src: usize, dst: usize) -> u64 {
        let mut seqs = self.seq.lock();
        let s = seqs.entry((src, dst)).or_insert(0);
        *s += 1;
        *s
    }
}

/// An SPMD world: `n` ranks running concurrently on threads.
pub struct World;

/// Default deadline for *blocking* receives: far above every legitimate
/// wait in the model (guard rounds settle in milliseconds), small enough
/// that a receive posted with the wrong tag surfaces as a typed
/// [`CommError::ProtocolHang`] instead of hanging a test run forever.
pub const DEFAULT_HANG_DEADLINE: Duration = Duration::from_secs(30);

/// Knobs for [`World::run_opts`].
pub struct WorldOptions {
    /// Fault plan injected into the point-to-point layer, if any.
    pub faults: Option<Arc<FaultPlan>>,
    /// Deadline for blocking receives (see [`DEFAULT_HANG_DEADLINE`]).
    pub hang_deadline: Duration,
}

impl Default for WorldOptions {
    fn default() -> WorldOptions {
        WorldOptions {
            faults: None,
            hang_deadline: DEFAULT_HANG_DEADLINE,
        }
    }
}

/// Everything a world run produces: per-rank results, traffic totals,
/// and the per-rank message traces recorded by the always-on ring.
pub struct WorldRun<T> {
    pub results: Vec<T>,
    pub traffic: crate::TrafficSnapshot,
    pub traces: Vec<RankTrace>,
}

impl World {
    /// Run `f` on `n` ranks and collect each rank's result, ordered by
    /// rank. Panics in any rank propagate.
    pub fn run<T: Send>(n: usize, f: impl Fn(Comm) -> T + Sync) -> Vec<T> {
        Self::run_with_stats(n, f).0
    }

    /// Like [`World::run`] but also returns the traffic totals.
    pub fn run_with_stats<T: Send>(
        n: usize,
        f: impl Fn(Comm) -> T + Sync,
    ) -> (Vec<T>, crate::TrafficSnapshot) {
        let run = Self::run_opts(n, WorldOptions::default(), f);
        (run.results, run.traffic)
    }

    /// Run `f` on `n` ranks with `plan`'s faults injected into the
    /// point-to-point layer. The plan is shared: its edge counters and
    /// one-shot faults persist across successive worlds run with it.
    pub fn run_with_faults<T: Send>(
        n: usize,
        plan: Arc<FaultPlan>,
        f: impl Fn(Comm) -> T + Sync,
    ) -> Vec<T> {
        Self::run_traced(n, Some(plan), f).0
    }

    /// Like [`World::run_with_faults`] (a `None` plan is fault-free) but
    /// also returns each rank's recorded message trace, for conformance
    /// checking against a verified [`crate::protocol::ProtocolSpec`].
    pub fn run_traced<T: Send>(
        n: usize,
        faults: Option<Arc<FaultPlan>>,
        f: impl Fn(Comm) -> T + Sync,
    ) -> (Vec<T>, Vec<RankTrace>) {
        let run = Self::run_opts(n, WorldOptions { faults, ..WorldOptions::default() }, f);
        (run.results, run.traces)
    }

    /// Fully-configurable world run.
    pub fn run_opts<T: Send>(
        n: usize,
        opts: WorldOptions,
        f: impl Fn(Comm) -> T + Sync,
    ) -> WorldRun<T> {
        assert!(n >= 1);
        let stats = Arc::new(TrafficStats::new());
        let shared = Arc::new(WorldShared {
            stats: stats.clone(),
            split_ctx: Mutex::new(HashMap::new()),
            seq: Mutex::new(HashMap::new()),
            faults: opts.faults,
            hang_deadline: opts.hang_deadline,
        });
        let world_ctx = Arc::new(CollectiveCtx::new(n));

        let mut senders: Vec<Sender<Message>> = Vec::with_capacity(n);
        let mut receivers: Vec<Receiver<Message>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        // One mailbox per rank, held here as well so the recorded traces
        // survive the rank threads (only the owning thread touches a
        // mailbox while its rank runs; we read them after the join).
        let mailboxes: Vec<Arc<RefCellSend>> = (0..n)
            .map(|_| Arc::new(RefCellSend(RefCell::new(Mailbox::default()))))
            .collect();

        // Keep every mailbox alive until all ranks finish: a rank may
        // legally send to a peer that has already returned (the message is
        // simply never consumed, as with buffered MPI sends at finalize).
        let keepalive: Vec<Receiver<Message>> = receivers.clone();
        let results = std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = receivers
                .into_iter()
                .enumerate()
                .map(|(rank, rx)| {
                    let senders = senders.clone();
                    let ctx = world_ctx.clone();
                    let shared = shared.clone();
                    let pending = mailboxes[rank].clone();
                    s.spawn(move || {
                        let comm = Comm {
                            rank,
                            size: senders.len(),
                            group: (0..senders.len()).collect(),
                            tag_ns: 0,
                            senders,
                            rx: Arc::new(rx),
                            pending,
                            ctx,
                            shared,
                            split_counter: Arc::new(Mutex::new(1)),
                        };
                        f(comm)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank panicked"))
                .collect()
        });
        drop(keepalive);
        let traces = mailboxes
            .iter()
            .map(|m| std::mem::take(&mut m.0.borrow_mut().trace))
            .collect();
        WorldRun {
            results,
            traffic: stats.snapshot(),
            traces,
        }
    }
}

/// Per-rank receive-side state: out-of-order arrivals plus the set of
/// `(src, seq)` pairs already delivered, for duplicate suppression.
#[derive(Default)]
struct Mailbox {
    pending: VecDeque<Message>,
    delivered: HashSet<(usize, u64)>,
    /// The rank's message trace (always-on, bounded ring).
    trace: RankTrace,
}

/// `RefCell` wrapper that is `Send` (each rank's pending queue is only ever
/// touched by its own thread; the `Arc` exists so `Comm` can be cloned into
/// sub-communicators on the same thread).
struct RefCellSend(RefCell<Mailbox>);
// SAFETY: every `Comm` (and every sub-communicator derived from it) lives
// on the thread that `World::run` spawned for the rank; the queue is never
// shared across threads.
unsafe impl Send for RefCellSend {}
unsafe impl Sync for RefCellSend {}

/// A communicator: the world communicator, or a subgroup created by
/// [`Comm::split`]. Rank numbers are local to the communicator.
pub struct Comm {
    rank: usize,
    size: usize,
    /// World ranks of the group members, indexed by local rank.
    group: Vec<usize>,
    /// Tag namespace distinguishing communicators sharing mailboxes.
    tag_ns: u64,
    senders: Vec<Sender<Message>>,
    rx: Arc<Receiver<Message>>,
    pending: Arc<RefCellSend>,
    ctx: Arc<CollectiveCtx>,
    shared: Arc<WorldShared>,
    split_counter: Arc<Mutex<u64>>,
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

    /// Traffic meter of the world.
    pub fn stats(&self) -> &TrafficStats {
        &self.shared.stats
    }

    /// Non-blocking send of an `f64` payload to local rank `dst` with a
    /// user `tag` (buffered, like MPI eager sends). If the world carries a
    /// fault plan, the message may be dropped, delayed, duplicated, or
    /// bit-flipped here.
    pub fn send(&self, dst: usize, tag: u64, data: &[f64]) {
        let world_dst = self.group[dst];
        let world_src = self.group[self.rank];
        let user_tag = tag;
        let tag = self.tag_ns ^ tag;
        let seq = self.shared.next_seq(world_src, world_dst);
        self.trace(TraceOp::Send { dst: world_dst, tag: user_tag }, seq);
        let mut data = data.to_vec();
        // Checksum covers the payload as sent; a bit flip below happens
        // *after* checksumming, so the receiver sees the mismatch.
        let checksum = msg_checksum(tag, seq, &data);
        let mut copies = 1;
        if let Some(plan) = &self.shared.faults {
            match plan.take_action(world_src, world_dst) {
                None => {}
                Some(FaultAction::Drop) => return,
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                Some(FaultAction::Duplicate) => copies = 2,
                Some(FaultAction::BitFlip { bit }) if !data.is_empty() => {
                    let i = (bit / 64) % data.len();
                    data[i] = f64::from_bits(data[i].to_bits() ^ (1u64 << (bit % 64)));
                }
                Some(FaultAction::BitFlip { .. }) => {}
            }
        }
        self.shared.stats.record_send(data.len() * 8);
        for _ in 0..copies {
            self.senders[world_dst]
                .send(Message {
                    src: world_src,
                    tag,
                    seq,
                    checksum,
                    data: data.clone(),
                })
                .expect("receiver alive for the world's lifetime");
        }
    }

    /// Blocking receive of the next message from local rank `src` with
    /// `tag`. Out-of-order arrivals (other sources/tags) are buffered.
    /// Panics on corruption, disconnect, or a protocol hang — use
    /// [`Comm::recv_timeout`] in fault-aware code, or
    /// [`Comm::recv_checked`] for the same semantics with typed errors.
    pub fn recv(&self, src: usize, tag: u64) -> Vec<f64> {
        self.recv_checked(src, tag)
            .unwrap_or_else(|e| panic!("recv failed: {e}"))
    }

    /// [`Comm::recv`] with typed errors instead of panics. A receive no
    /// send will ever match (e.g. posted with the wrong tag) does not
    /// stall silently: after the world's hang deadline
    /// ([`WorldOptions::hang_deadline`]) it reports
    /// [`CommError::ProtocolHang`] naming the awaited src and tag.
    pub fn recv_checked(&self, src: usize, tag: u64) -> Result<Vec<f64>, CommError> {
        let world_src = self.group[src];
        let r = self
            .recv_inner(world_src, self.tag_ns ^ tag, Some(self.shared.hang_deadline))
            .map_err(|e| match e {
                CommError::Timeout { src, tag: _, waited, .. } => {
                    CommError::ProtocolHang { src, tag, waited }
                }
                other => other,
            });
        self.trace_recv(world_src, tag, &r);
        r.map(|(data, _)| data)
    }

    /// Receive with a deadline and typed errors. Waits in exponentially
    /// growing slices (bounded backoff) until `timeout` has elapsed, then
    /// reports [`CommError::Timeout`]. Injected duplicates are suppressed
    /// by sequence number; corrupted payloads surface as
    /// [`CommError::Corrupt`].
    pub fn recv_timeout(&self, src: usize, tag: u64, timeout: Duration) -> Result<Vec<f64>, CommError> {
        let world_src = self.group[src];
        let r = self.recv_inner(world_src, self.tag_ns ^ tag, Some(timeout));
        self.trace_recv(world_src, tag, &r);
        r.map(|(data, _)| data)
    }

    fn trace_recv(&self, world_src: usize, user_tag: u64, r: &Result<(Vec<f64>, u64), CommError>) {
        match r {
            Ok((_, seq)) => self.trace(TraceOp::Recv { src: world_src, tag: user_tag }, *seq),
            Err(CommError::Corrupt { seq, .. }) => {
                self.trace(TraceOp::RecvFailed { src: world_src, tag: user_tag }, *seq)
            }
            Err(_) => self.trace(TraceOp::RecvFailed { src: world_src, tag: user_tag }, 0),
        }
    }

    fn trace(&self, op: TraceOp, seq: u64) {
        self.pending.0.borrow_mut().trace.record(op, seq);
    }

    /// Deliver a matched message: `None` if it is a duplicate to skip,
    /// `Some(Err)` if its checksum fails, `Some(Ok)` with the payload
    /// and its sequence number.
    fn deliver(&self, msg: Message) -> Option<Result<(Vec<f64>, u64), CommError>> {
        let mut mbox = self.pending.0.borrow_mut();
        if !mbox.delivered.insert((msg.src, msg.seq)) {
            return None; // duplicate of an already-delivered message
        }
        if msg_checksum(msg.tag, msg.seq, &msg.data) != msg.checksum {
            return Some(Err(CommError::Corrupt {
                src: msg.src,
                tag: msg.tag,
                seq: msg.seq,
            }));
        }
        Some(Ok((msg.data, msg.seq)))
    }

    fn recv_inner(
        &self,
        world_src: usize,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<(Vec<f64>, u64), CommError> {
        // Drain matches already sitting in the pending buffer.
        loop {
            let msg = {
                let mut mbox = self.pending.0.borrow_mut();
                match mbox
                    .pending
                    .iter()
                    .position(|m| m.src == world_src && m.tag == tag)
                {
                    Some(pos) => mbox.pending.remove(pos).unwrap(),
                    None => break,
                }
            };
            if let Some(outcome) = self.deliver(msg) {
                return outcome;
            }
        }

        let deadline = timeout.map(|t| Instant::now() + t);
        let start = Instant::now();
        let mut slice = Duration::from_millis(1);
        let mut attempts = 0u32;
        loop {
            let received = match deadline {
                None => self.rx.recv().map_err(|_| CommError::Disconnected {
                    src: world_src,
                    tag,
                }),
                Some(deadline) => {
                    attempts += 1;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(CommError::Timeout {
                            src: world_src,
                            tag,
                            waited: start.elapsed(),
                            attempts,
                        });
                    }
                    match self.rx.recv_timeout(slice.min(deadline - now)) {
                        Ok(m) => Ok(m),
                        Err(RecvTimeoutError::Timeout) => {
                            // Bounded exponential backoff: wait a little
                            // longer each round, capped per slice.
                            slice = (slice * 2).min(Duration::from_millis(16));
                            continue;
                        }
                        Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected {
                            src: world_src,
                            tag,
                        }),
                    }
                }
            };
            let msg = received?;
            if msg.src == world_src && msg.tag == tag {
                match self.deliver(msg) {
                    Some(outcome) => return outcome,
                    None => continue, // duplicate — keep waiting
                }
            } else {
                self.pending.0.borrow_mut().pending.push_back(msg);
            }
        }
    }

    /// Barrier across the communicator.
    pub fn barrier(&self) {
        self.record_collective(CollOp::Barrier, 0);
        self.ctx.barrier();
    }

    /// Sum-allreduce of a scalar.
    pub fn allreduce_sum(&self, x: f64) -> f64 {
        self.allreduce_sum_vec(&[x])[0]
    }

    /// Element-wise sum-allreduce of a vector.
    pub fn allreduce_sum_vec(&self, xs: &[f64]) -> Vec<f64> {
        self.record_collective(CollOp::Sum, xs.len() * 8);
        self.ctx.reduce(xs, combine_sum)
    }

    /// Max-allreduce of a scalar.
    pub fn allreduce_max(&self, x: f64) -> f64 {
        self.record_collective(CollOp::Max, 8);
        self.ctx.reduce(&[x], combine_max)[0]
    }

    /// Min-allreduce of a scalar.
    pub fn allreduce_min(&self, x: f64) -> f64 {
        self.record_collective(CollOp::Min, 8);
        self.ctx.reduce(&[x], combine_min)[0]
    }

    /// Gather a scalar from every rank (result indexed by local rank).
    pub fn allgather(&self, x: f64) -> Vec<f64> {
        self.record_collective(CollOp::Gather, 8);
        self.ctx.allgather(self.rank, x)
    }

    fn record_collective(&self, op: CollOp, bytes: usize) {
        self.trace(TraceOp::Collective { op, comm: self.tag_ns }, 0);
        self.shared.stats.record_collective_rank(bytes);
        if self.rank == 0 {
            self.shared.stats.record_collective_op();
        }
    }

    /// Split the communicator by `color` (collective over this
    /// communicator). Returns a sub-communicator containing the ranks that
    /// passed the same color, ordered by parent rank. Mirrors
    /// `MPI_Comm_split` (every rank must participate; distinct colors give
    /// disjoint groups).
    pub fn split(&self, color: i64) -> Comm {
        // Unique series id for this split call, agreed by doing the
        // increment inside a collective-ordered critical section.
        let series = {
            let mut c = self.split_counter.lock();
            *c += 1;
            *c
        };
        // All ranks see their own increments; use the max so everyone
        // agrees even if other splits happened on sibling communicators.
        let series = self.allreduce_max(series as f64) as u64;
        {
            let mut c = self.split_counter.lock();
            *c = (*c).max(series);
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

        let ctx = {
            let mut reg = self.shared.split_ctx.lock();
            reg.entry((self.tag_ns, series, color))
                .or_insert_with(|| Arc::new(CollectiveCtx::new(members.len())))
                .clone()
        };
        // Namespace tags by (parent namespace, series, color) so messages
        // on different communicators between the same pair of threads
        // cannot collide.
        let tag_ns = self
            .tag_ns
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(series << 24)
            .wrapping_add((color as u64) << 4)
            | 1 << 63;

        self.trace(TraceOp::Split { color }, 0);
        Comm {
            rank: my_new_rank,
            size: members.len(),
            group,
            tag_ns,
            senders: self.senders.clone(),
            rx: self.rx.clone(),
            pending: self.pending.clone(),
            ctx,
            shared: self.shared.clone(),
            split_counter: self.split_counter.clone(),
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
    }

    #[test]
    fn traffic_is_metered() {
        let (_, snap) = World::run_with_stats(3, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0.0; 10]);
            }
            if comm.rank() == 1 {
                comm.recv(0, 0);
            }
            comm.barrier();
        });
        assert_eq!(snap.p2p_messages, 1);
        assert_eq!(snap.p2p_bytes, 80);
        assert_eq!(snap.collectives, 1);
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
    #[should_panic(expected = "rank panicked")]
    fn rank_panics_propagate() {
        World::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn wrong_tag_recv_reports_protocol_hang_instead_of_stalling() {
        let run = World::run_opts(
            2,
            WorldOptions {
                hang_deadline: Duration::from_millis(40),
                ..WorldOptions::default()
            },
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 1, &[3.0]);
                    Ok(vec![])
                } else {
                    // Tag 2 is never sent: without the hang deadline this
                    // blocking receive would stall the test forever.
                    comm.recv_checked(0, 2)
                }
            },
        );
        match &run.results[1] {
            Err(CommError::ProtocolHang { src: 0, tag: 2, waited }) => {
                assert!(*waited >= Duration::from_millis(40));
            }
            other => panic!("expected ProtocolHang naming src 0 tag 2, got {other:?}"),
        }
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
        assert_eq!(
            traces[0].events[0].op,
            TraceOp::Send { dst: 1, tag: 7 }
        );
        assert_eq!(traces[0].events[0].seq, 1);
        assert_eq!(
            traces[1].events[0].op,
            TraceOp::Recv { src: 0, tag: 7 }
        );
        assert!(matches!(
            traces[0].events[1].op,
            TraceOp::Collective { op: CollOp::Barrier, comm: 0 }
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
                let _ = comm.recv_timeout(0, 3, Duration::from_millis(20));
            }
        });
        assert_eq!(
            traces[1].events[0].op,
            TraceOp::RecvFailed { src: 0, tag: 3 }
        );
    }

    #[test]
    fn dropped_message_times_out_with_backoff() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Drop));
        let results = World::run_with_faults(2, plan.clone(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[42.0]);
                Ok(vec![])
            } else {
                comm.recv_timeout(0, 3, Duration::from_millis(30))
            }
        });
        match &results[1] {
            Err(CommError::Timeout { src: 0, attempts, waited, .. }) => {
                assert!(*attempts > 1, "expected multiple backoff attempts");
                assert!(*waited >= Duration::from_millis(30));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(plan.report().dropped, 1);
    }

    #[test]
    fn delayed_message_rides_through_within_budget() {
        let plan = Arc::new(FaultPlan::new().inject(
            0,
            1,
            1,
            FaultAction::Delay(Duration::from_millis(10)),
        ));
        let results = World::run_with_faults(2, plan.clone(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[7.0]);
                Ok(vec![])
            } else {
                comm.recv_timeout(0, 3, Duration::from_millis(500))
            }
        });
        assert_eq!(results[1], Ok(vec![7.0]));
        assert_eq!(plan.report().delayed, 1);
    }

    #[test]
    fn duplicates_are_delivered_exactly_once() {
        let plan = Arc::new(FaultPlan::new().inject(0, 1, 1, FaultAction::Duplicate));
        let results = World::run_with_faults(2, plan.clone(), |comm| {
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
        let results = World::run_with_faults(2, plan.clone(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, &[1.0, 2.0, 3.0]);
                Ok(vec![])
            } else {
                comm.recv_timeout(0, 3, Duration::from_millis(200))
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
        let results = World::run_with_faults(4, plan, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, &[comm.rank() as f64]);
            comm.recv_timeout(prev, 7, Duration::from_secs(5)).unwrap()[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }
}
