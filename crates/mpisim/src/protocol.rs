//! Per-rank message traces and the E07xx protocol diagnostics.
//!
//! Every [`crate::World`] records, per rank, the communication ops the
//! rank attempted ([`RankTrace::events`]) and what the world scheduler
//! found wrong with the round when it gave a wait up or the world exited
//! ([`RankTrace::findings`]). [`crate::explore`] classifies the findings
//! of a round run fault-free and under every single fault; the resilient
//! and supervised drivers read the same findings as a cheap exit check
//! on every live round.

use std::fmt;

/// Collective kinds the communicator exposes.
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

/// Diagnostic codes of the protocol checks, numbered in the 07xx block
/// after the dataflow (01xx), cost (05xx) and units (06xx) analyses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtoCode {
    /// E0701: a message still unreceived when its world exits.
    UnmatchedSend,
    /// E0702: a receive no send satisfies — a blocking receive that
    /// hangs, or a deadline receive that expires.
    UnmatchedRecv,
    /// E0703: the ranks parked at step 3 of the quiescence rule wait for
    /// each other in a cycle.
    Deadlock,
    /// E0704: a collective whose members call different ops, or that a
    /// member never reaches.
    CollectiveDivergence,
    /// E0705: two messages with different sequence numbers queued at once
    /// on one (src, dst, tag).
    TagCollision,
}

impl ProtoCode {
    pub fn code(&self) -> &'static str {
        match self {
            ProtoCode::UnmatchedSend => "E0701",
            ProtoCode::UnmatchedRecv => "E0702",
            ProtoCode::Deadlock => "E0703",
            ProtoCode::CollectiveDivergence => "E0704",
            ProtoCode::TagCollision => "E0705",
        }
    }

    /// One-line summary for the diagnostic registry
    /// (`esm-lint --list-codes`).
    pub fn summary(&self) -> &'static str {
        match self {
            ProtoCode::UnmatchedSend => "message still unreceived when its world exits",
            ProtoCode::UnmatchedRecv => {
                "receive that no send satisfies (blocking hang, or deadline expiry without a fault)"
            }
            ProtoCode::Deadlock => {
                "rendezvous deadlock: ranks parked at quiescence wait for each other in a cycle"
            }
            ProtoCode::CollectiveDivergence => {
                "collective whose members call different ops, or that a member never reaches"
            }
            ProtoCode::TagCollision => {
                "two messages with different seq queued at once on one (src, dst, tag)"
            }
        }
    }

    /// Every code, in numeric order.
    pub fn all() -> [ProtoCode; 5] {
        [
            ProtoCode::UnmatchedSend,
            ProtoCode::UnmatchedRecv,
            ProtoCode::Deadlock,
            ProtoCode::CollectiveDivergence,
            ProtoCode::TagCollision,
        ]
    }
}

impl fmt::Display for ProtoCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding of the world scheduler about a round.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProtoDiag {
    pub code: ProtoCode,
    /// World rank the finding is about.
    pub rank: usize,
    pub message: String,
    /// What a single fault may legitimately cause: a message a killed
    /// receiver never took (E0701), a deadline receive a dropped message
    /// or a silent peer let expire (E0702). An error on a fault-free run,
    /// the round's degraded mode at work under a fault.
    pub degraded: bool,
}

impl fmt::Display for ProtoDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: rank {}: {}", self.code, self.rank, self.message)
    }
}

/// One recorded communication attempt (op, peer, tag). Peers are world
/// ranks; tags are the user tags as passed to the `Comm` API.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    Send { dst: usize, tag: u64 },
    /// A receive that completed with a payload.
    Recv { src: usize, tag: u64 },
    /// A receive attempt that failed (expired, corrupt, or hung).
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

/// Per-rank message trace and scheduler findings, each behind a bounded
/// always-on ring: recording is a `Vec` push until [`RankTrace::CAP`],
/// after which entries are counted in `dropped` but not stored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    pub events: Vec<TraceEvent>,
    /// What the world scheduler found wrong, sorted.
    pub findings: Vec<ProtoDiag>,
    /// Entries beyond [`RankTrace::CAP`] that were counted but not kept.
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

    pub(crate) fn note(&mut self, code: ProtoCode, rank: usize, message: String, degraded: bool) {
        if self.findings.len() < Self::CAP {
            self.findings.push(ProtoDiag { code, rank, message, degraded });
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
