//! Deterministic fault injection for the message-passing layer.
//!
//! A [`FaultPlan`] is a seeded, **one-shot** schedule of communication
//! faults: drop / delay / duplicate / bit-flip the *n*-th point-to-point
//! message on a given (source, destination) edge, and kill a rank at a
//! given coupling window. Every fault fires at most once — after a
//! rollback the replayed traffic sails through — which is exactly the
//! transient-fault model the resilience driver is built to absorb.
//!
//! The plan is shared (`Arc`) across every rank thread and every `World`
//! launched during a run: edge send counters accumulate across worlds, so
//! "the 3rd message from rank 1 to rank 0" means the 3rd such message of
//! the whole simulation, regardless of how many guard worlds were spun up.
//!
//! [`CommError`] is the typed failure surface of the fault-aware receive
//! path ([`crate::Comm::recv_deadline`]): timeouts (dropped message, dead
//! peer), payload corruption (bit flip caught by the message checksum),
//! and protocol hangs.

use parking_lot::Mutex;
use std::collections::HashMap;

/// What to do to one matched point-to-point message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Swallow the message entirely.
    Drop,
    /// Hold the message back until the world is quiescent (step 1 of the
    /// quiescence rule, [`crate::comm`]): it arrives after everything
    /// else that can happen has happened, yet before any deadline
    /// receive expires. Later messages on the same edge wait behind it.
    Delay,
    /// Deliver the message twice (receiver must deduplicate by sequence
    /// number).
    Duplicate,
    /// Flip one bit of the payload after checksumming (receiver must
    /// detect the corruption).
    BitFlip { bit: usize },
}

/// One planned fault: fires on the `nth` send (1-based) over `src -> dst`,
/// then is consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFault {
    pub src: usize,
    pub dst: usize,
    pub nth: u64,
    pub action: FaultAction,
}

/// Typed failure of a fault-aware receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A deadline receive found the world quiescent without a matching
    /// message (message dropped or the peer is dead): step 2 of the
    /// quiescence rule, [`crate::comm`].
    Timeout { src: usize, tag: u64 },
    /// A matching message arrived but its checksum did not verify.
    Corrupt { src: usize, tag: u64, seq: u64 },
    /// A *blocking* receive found the world quiescent with no deadline
    /// receive left to expire (step 3): no send will ever match it
    /// (classically: the receive was posted with the wrong tag). Unlike
    /// [`CommError::Timeout`] this is a protocol bug, not a fault — the
    /// typed error names the awaited src and (user) tag instead of
    /// stalling the run silently forever.
    ProtocolHang { src: usize, tag: u64 },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, tag } => write!(
                f,
                "timed out waiting for message from rank {src} tag {tag} (world quiescent)"
            ),
            CommError::Corrupt { src, tag, seq } => write!(
                f,
                "corrupt message from rank {src} tag {tag} seq {seq} (checksum mismatch)"
            ),
            CommError::ProtocolHang { src, tag } => write!(
                f,
                "protocol hang: blocking recv from rank {src} tag {tag} unmatched in a \
                 quiescent world (no send will ever match)"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Counters of faults actually injected, for post-run assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    pub dropped: u64,
    pub delayed: u64,
    pub duplicated: u64,
    pub bit_flipped: u64,
    pub killed: u64,
    /// Hangs that actually took effect (a rank went silent).
    pub hung: u64,
}

impl FaultReport {
    pub fn total(&self) -> u64 {
        self.dropped + self.delayed + self.duplicated + self.bit_flipped + self.killed + self.hung
    }
}

/// One scheduled hang: from `since_window` on, `rank` goes silent (alive
/// but unresponsive — distinct from a kill) until released.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlannedHang {
    rank: usize,
    since_window: u64,
    fired: bool,
}

struct PlanState {
    faults: Vec<PlannedFault>,
    /// Messages sent so far per (src, dst) world-rank edge.
    edge_counts: HashMap<(usize, usize), u64>,
    kills: Vec<(usize, u64)>,
    /// Ranks whose kill has fired: they stay dead until revived by a
    /// supervisor. The legacy rollback driver never consults this — its
    /// transient-fault model treats a kill as one-shot.
    dead: Vec<usize>,
    hangs: Vec<PlannedHang>,
    report: FaultReport,
}

/// A deterministic, one-shot schedule of communication faults.
pub struct FaultPlan {
    state: Mutex<PlanState>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan {
            state: Mutex::new(PlanState {
                faults: Vec::new(),
                edge_counts: HashMap::new(),
                kills: Vec::new(),
                dead: Vec::new(),
                hangs: Vec::new(),
                report: FaultReport::default(),
            }),
        }
    }

    /// Deterministically generate `n_faults` message faults over a world of
    /// `n_ranks` ranks from `seed`. The same seed always yields the same
    /// plan. Actions cycle through drop / delay / duplicate / bit-flip with
    /// randomized edges and positions.
    pub fn seeded(seed: u64, n_ranks: usize, n_faults: usize) -> FaultPlan {
        assert!(n_ranks >= 2, "faults need at least two ranks");
        let plan = FaultPlan::new();
        let mut rng = Splitmix64::new(seed);
        {
            let mut st = plan.state.lock();
            for _ in 0..n_faults {
                let src = (rng.next_u64() % n_ranks as u64) as usize;
                let mut dst = (rng.next_u64() % n_ranks as u64) as usize;
                if dst == src {
                    dst = (dst + 1) % n_ranks;
                }
                let nth = 1 + rng.next_u64() % 3;
                let action = match rng.next_u64() % 4 {
                    0 => FaultAction::Drop,
                    1 => {
                        // This draw once sized the delay; it stays so that
                        // every seed still plans the same faults.
                        rng.next_u64();
                        FaultAction::Delay
                    }
                    2 => FaultAction::Duplicate,
                    _ => FaultAction::BitFlip {
                        bit: (rng.next_u64() % 512) as usize,
                    },
                };
                st.faults.push(PlannedFault { src, dst, nth, action });
            }
        }
        plan
    }

    /// Add one explicit fault (builder style).
    pub fn inject(self, src: usize, dst: usize, nth: u64, action: FaultAction) -> FaultPlan {
        self.state.lock().faults.push(PlannedFault { src, dst, nth, action });
        self
    }

    /// Schedule rank `rank` to die at coupling window `window` (1-based).
    /// Consumed by the resilience driver via [`FaultPlan::take_kill`].
    pub fn kill_rank(self, rank: usize, window: u64) -> FaultPlan {
        self.state.lock().kills.push((rank, window));
        self
    }

    /// Schedule rank `rank` to **hang** from coupling window `window` on:
    /// the rank stays alive but goes silent indefinitely — it never sends,
    /// so the monitor's deadline receive expires once the world is
    /// quiescent (the quiescence rule, [`crate::comm`]). Unlike a kill
    /// this is what a livelocked or deadlocked component looks like: only
    /// a failure detector that accrues missed beats across rounds, not a
    /// single expired receive, can tell it from a transient drop.
    /// Released by [`FaultPlan::revive`].
    pub fn hang(self, rank: usize, window: u64) -> FaultPlan {
        self.state.lock().hangs.push(PlannedHang {
            rank,
            since_window: window,
            fired: false,
        });
        self
    }

    /// Is `rank` hanging at `window`? Counts the hang as fired (once) the
    /// first time it takes effect.
    pub fn is_hung(&self, rank: usize, window: u64) -> bool {
        let mut st = self.state.lock();
        let Some(h) = st
            .hangs
            .iter()
            .position(|h| h.rank == rank && window >= h.since_window)
        else {
            return false;
        };
        if !st.hangs[h].fired {
            st.hangs[h].fired = true;
            st.report.hung += 1;
        }
        true
    }

    /// Is `rank` dead (its kill has fired and no one revived it)?
    pub fn is_dead(&self, rank: usize) -> bool {
        self.state.lock().dead.contains(&rank)
    }

    /// Bring `rank` back: clears persistent death and releases any hang.
    /// Called by a supervisor after respawning the rank from checkpoint.
    pub fn revive(&self, rank: usize) {
        let mut st = self.state.lock();
        st.dead.retain(|&r| r != rank);
        st.hangs.retain(|h| h.rank != rank);
    }

    /// The faults still pending (not yet fired), for inspection.
    pub fn pending(&self) -> Vec<PlannedFault> {
        self.state.lock().faults.clone()
    }

    /// What has been injected so far.
    pub fn report(&self) -> FaultReport {
        self.state.lock().report.clone()
    }

    /// Called by the send path for every message on `src -> dst`.
    /// Increments the edge counter and consumes a matching fault, if any.
    pub(crate) fn take_action(&self, src: usize, dst: usize) -> Option<FaultAction> {
        let mut st = self.state.lock();
        let count = st.edge_counts.entry((src, dst)).or_insert(0);
        *count += 1;
        let nth = *count;
        let idx = st
            .faults
            .iter()
            .position(|p| p.src == src && p.dst == dst && p.nth == nth)?;
        let action = st.faults.remove(idx).action;
        match &action {
            FaultAction::Drop => st.report.dropped += 1,
            FaultAction::Delay => st.report.delayed += 1,
            FaultAction::Duplicate => st.report.duplicated += 1,
            FaultAction::BitFlip { .. } => st.report.bit_flipped += 1,
        }
        Some(action)
    }

    /// True exactly once if `rank` is scheduled to die at `window`. The
    /// rank is also marked persistently dead ([`FaultPlan::is_dead`])
    /// until a supervisor calls [`FaultPlan::revive`].
    pub fn take_kill(&self, rank: usize, window: u64) -> bool {
        let mut st = self.state.lock();
        if let Some(idx) = st.kills.iter().position(|&(r, w)| r == rank && w == window) {
            st.kills.remove(idx);
            st.report.killed += 1;
            if !st.dead.contains(&rank) {
                st.dead.push(rank);
            }
            true
        } else {
            false
        }
    }
}

/// Message checksum: FNV-1a over tag, sequence number, and payload bits.
/// Not cryptographic — it exists to catch injected/accidental corruption.
pub(crate) fn msg_checksum(tag: u64, seq: u64, data: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut feed = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    feed(tag);
    feed(seq);
    for v in data {
        feed(v.to_bits());
    }
    h
}

/// Small deterministic RNG seeding every fault domain's plans (comms here, `iosys` storage, `esm-core` SDC).
pub struct Splitmix64 {
    state: u64,
}

impl Splitmix64 {
    pub fn new(seed: u64) -> Splitmix64 {
        Splitmix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::seeded(42, 4, 10);
        let b = FaultPlan::seeded(42, 4, 10);
        assert_eq!(a.pending(), b.pending());
        let c = FaultPlan::seeded(43, 4, 10);
        assert_ne!(a.pending(), c.pending());
    }

    #[test]
    fn faults_are_one_shot() {
        let plan = FaultPlan::new().inject(0, 1, 2, FaultAction::Drop);
        assert_eq!(plan.take_action(0, 1), None); // 1st message: no fault
        assert_eq!(plan.take_action(0, 1), Some(FaultAction::Drop)); // 2nd: fires
        assert_eq!(plan.take_action(0, 1), None); // consumed
        assert_eq!(plan.report().dropped, 1);
    }

    #[test]
    fn kills_are_one_shot_and_targeted() {
        let plan = FaultPlan::new().kill_rank(2, 5);
        assert!(!plan.take_kill(2, 4));
        assert!(!plan.take_kill(1, 5));
        assert!(plan.take_kill(2, 5));
        assert!(!plan.take_kill(2, 5));
        assert_eq!(plan.report().killed, 1);
    }

    #[test]
    fn kills_leave_the_rank_persistently_dead_until_revived() {
        let plan = FaultPlan::new().kill_rank(1, 3);
        assert!(!plan.is_dead(1));
        assert!(plan.take_kill(1, 3));
        assert!(plan.is_dead(1), "a fired kill leaves the rank down");
        assert!(!plan.take_kill(1, 3), "the kill itself stays one-shot");
        plan.revive(1);
        assert!(!plan.is_dead(1));
    }

    #[test]
    fn hangs_persist_from_their_window_until_released() {
        let plan = FaultPlan::new().hang(2, 4);
        assert!(!plan.is_hung(2, 3), "not yet hanging before its window");
        assert!(plan.is_hung(2, 4));
        assert!(plan.is_hung(2, 7), "a hang is indefinite, not one-shot");
        assert!(!plan.is_hung(1, 7), "targeted at one rank");
        assert_eq!(plan.report().hung, 1, "counted once, not per observation");
        plan.revive(2);
        assert!(!plan.is_hung(2, 8), "revive releases the hang");
    }

    #[test]
    fn checksum_sees_every_bit() {
        let data = vec![1.0, -2.5, 3.5];
        let base = msg_checksum(7, 1, &data);
        assert_eq!(base, msg_checksum(7, 1, &data));
        assert_ne!(base, msg_checksum(8, 1, &data));
        assert_ne!(base, msg_checksum(7, 2, &data));
        let mut tweaked = data.clone();
        tweaked[2] = f64::from_bits(tweaked[2].to_bits() ^ 1);
        assert_ne!(base, msg_checksum(7, 1, &tweaked));
    }
}
