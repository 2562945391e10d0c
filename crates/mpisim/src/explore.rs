//! Exploring the rounds that run.
//!
//! A *round* is a function that launches one or more [`World`]s — a guard
//! round, a heartbeat round, a halo exchange. Every receive names its
//! (src, tag), edges are FIFO, collectives fold in rank order and the
//! quiescence rule ([`crate::comm`]) replaces the clock, so a round is a
//! deterministic function of its inputs and its [`FaultPlan`]. The single
//! faults it can meet are therefore finite and can be read off its
//! fault-free trace. [`explore`] runs the round fault-free, derives every
//! single-fault plan a `FaultPlan` can express — each send dropped,
//! duplicated, delayed or bit-flipped, each rank killed or hung at the
//! round's window — runs the round under each, and classifies what the
//! world scheduler found ([`RankTrace::findings`]):
//!
//! | code  | meaning |
//! |-------|---------|
//! | E0701 | a message still unreceived when its world exits |
//! | E0702 | a blocking receive that hangs, or a deadline receive that expires |
//! | E0703 | ranks parked at step 3 of the quiescence rule wait in a cycle |
//! | E0704 | a collective that is stuck, or whose members call different ops |
//! | E0705 | two messages with different seq queued on one (src, dst, tag) |
//!
//! On the fault-free run every finding is an error. Under a fault, an
//! unreceived message and an expired deadline are the round's degraded
//! mode at work ([`ProtoDiag::degraded`]); hangs, cycles, stuck
//! collectives, collisions and panics are still errors. Rank panics are
//! caught and reported, not propagated.

use crate::comm::{Comm, World};
use crate::fault::{FaultAction, FaultPlan};
use crate::protocol::{ProtoCode, ProtoDiag, RankTrace, TraceOp};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

thread_local! {
    /// While [`explore`] runs a round on this thread: the traces of every
    /// world the round launched, in launch order.
    static WORLDS: RefCell<Option<Vec<Vec<RankTrace>>>> = const { RefCell::new(None) };
    /// Set on the exploring thread and on the ranks of the worlds it
    /// launches: their panics are expected findings, not printed.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread is running a round for [`explore`].
pub(crate) fn exploring() -> bool {
    WORLDS.with(|w| w.borrow().is_some())
}

/// Hand one exited world's traces to the exploration running on this
/// thread, if any.
pub(crate) fn observe(traces: &[RankTrace]) {
    WORLDS.with(|w| {
        if let Some(worlds) = w.borrow_mut().as_mut() {
            worlds.push(traces.to_vec());
        }
    });
}

/// Mark this rank thread's panics as expected (or not).
pub(crate) fn quiet_panics(quiet: bool) {
    QUIET.with(|q| q.set(quiet));
}

/// The message of a panic payload.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-text panic payload".to_string())
}

/// Wrap the process's panic hook once so that quiet threads print nothing.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info);
            }
        }));
    });
}

/// One run of an explored round.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRun {
    /// The single planned fault, `none` on the fault-free run.
    pub fault: String,
    /// Whether the fault took effect: a kill or hang the round never
    /// consults does not.
    pub fired: bool,
    /// The scheduler's findings, world by world and rank by rank.
    pub findings: Vec<ProtoDiag>,
    /// The rank panic that ended the round, if one did.
    pub panic: Option<String>,
}

impl FaultRun {
    /// The findings that are errors under a fault: all but the degraded
    /// ones.
    fn errors(&self) -> impl Iterator<Item = &ProtoDiag> {
        self.findings.iter().filter(|d| !d.degraded)
    }

    /// Errors of this run under a fault: its non-degraded findings, and
    /// a panic.
    pub fn error_count(&self) -> usize {
        self.errors().count() + self.panic.is_some() as usize
    }

    /// Every code found, as if the fault were part of the program.
    pub fn codes(&self) -> BTreeSet<ProtoCode> {
        self.findings.iter().map(|d| d.code).collect()
    }

    /// The run in one word: `not fired`, `clean`, `degraded` (only
    /// degraded findings), or its error codes and `panic`, joined by `+`.
    pub fn outcome(&self) -> String {
        if !self.fired {
            return "not fired".to_string();
        }
        let mut bad: BTreeSet<&str> = self.errors().map(|d| d.code.code()).collect();
        if self.panic.is_some() {
            bad.insert("panic");
        }
        match (bad.is_empty(), self.findings.is_empty()) {
            (true, true) => "clean".to_string(),
            (true, false) => "degraded".to_string(),
            _ => bad.into_iter().collect::<Vec<_>>().join("+"),
        }
    }
}

/// What exploring one round found.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreReport {
    pub name: String,
    /// Ranks of the round's world.
    pub n: usize,
    pub nominal: FaultRun,
    /// One run per single fault, in the order they were derived.
    pub faults: Vec<FaultRun>,
}

impl ExploreReport {
    /// Errors of the fault-free run: every finding, and a panic.
    pub fn nominal_errors(&self) -> usize {
        self.nominal.findings.len() + self.nominal.panic.is_some() as usize
    }

    /// Errors of the single-fault runs ([`FaultRun::error_count`]).
    pub fn fault_errors(&self) -> usize {
        self.faults.iter().map(FaultRun::error_count).sum()
    }

    /// Single-fault runs per [`FaultRun::outcome`].
    pub fn outcomes(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for r in &self.faults {
            *out.entry(r.outcome()).or_insert(0) += 1;
        }
        out
    }
}

/// The fault actions every send is explored under.
const SEND_FAULTS: [(&str, FaultAction); 4] = [
    ("drop", FaultAction::Drop),
    ("duplicate", FaultAction::Duplicate),
    ("delay", FaultAction::Delay),
    ("bit-flip", FaultAction::BitFlip { bit: 0 }),
];

/// Explore `round` on `n` ranks at coupling window `window`: run it once
/// fault-free, then once under every single fault derived from that run's
/// trace (module doc). `round` must launch its worlds with the plan it is
/// given and nothing else; its result is dropped.
pub fn explore<T>(
    name: &str,
    n: usize,
    window: u64,
    round: impl Fn(Option<&Arc<FaultPlan>>) -> T,
) -> ExploreReport {
    let (nominal, worlds) = run_once("none".to_string(), None, &round);
    let mut plans: Vec<(String, FaultPlan)> = Vec::new();
    let mut sent: HashMap<(usize, usize), u64> = HashMap::new();
    for traces in &worlds {
        for (src, trace) in traces.iter().enumerate() {
            for event in &trace.events {
                let TraceOp::Send { dst, tag } = event.op else { continue };
                let nth = sent.entry((src, dst)).or_insert(0);
                *nth += 1;
                let k = plans.len() / SEND_FAULTS.len();
                for (label, action) in &SEND_FAULTS {
                    let plan = FaultPlan::new().inject(src, dst, *nth, action.clone());
                    plans.push((format!("{label} send {k} ({src}->{dst}, tag {tag})"), plan));
                }
            }
        }
    }
    for r in 0..n {
        plans.push((format!("kill rank {r}"), FaultPlan::new().kill_rank(r, window)));
        plans.push((format!("hang rank {r}"), FaultPlan::new().hang(r, window)));
    }
    let faults = plans
        .into_iter()
        .map(|(fault, plan)| run_once(fault, Some(Arc::new(plan)), &round).0)
        .collect();
    ExploreReport { name: name.to_string(), n, nominal, faults }
}

/// Run `round` once under `plan`, catching rank panics, and collect the
/// traces of every world it launched.
fn run_once<T>(
    fault: String,
    plan: Option<Arc<FaultPlan>>,
    round: &impl Fn(Option<&Arc<FaultPlan>>) -> T,
) -> (FaultRun, Vec<Vec<RankTrace>>) {
    install_quiet_hook();
    WORLDS.with(|w| *w.borrow_mut() = Some(Vec::new()));
    quiet_panics(true);
    let ended = catch_unwind(AssertUnwindSafe(|| {
        let _ = round(plan.as_ref());
    }));
    quiet_panics(false);
    let worlds = WORLDS.with(|w| w.borrow_mut().take()).unwrap_or_default();
    let run = FaultRun {
        fault,
        fired: plan.is_some_and(|p| p.report().total() > 0),
        findings: worlds.iter().flatten().flat_map(|t| t.findings.iter().cloned()).collect(),
        panic: ended.err().map(|p| panic_text(&*p)),
    };
    (run, worlds)
}

/// A deliberately broken round and the one code exploring it must report.
pub struct BrokenRound {
    pub name: &'static str,
    pub n: usize,
    pub body: fn(&Comm),
    pub expect: ProtoCode,
}

impl BrokenRound {
    pub fn explore(&self) -> ExploreReport {
        explore(self.name, self.n, 1, |plan| {
            World::run_traced(self.n, plan.cloned(), |comm| (self.body)(&comm))
        })
    }
}

/// The negative fixtures: one broken round per E07xx code. `esm-lint`'s
/// fixture runner explores each and requires its fault-free run to report
/// exactly the expected code.
pub fn broken_fixtures() -> Vec<BrokenRound> {
    vec![
        BrokenRound {
            name: "e0701-unreceived-send",
            n: 2,
            body: |c| {
                if c.rank() == 0 {
                    c.send(1, 5, &[1.0]);
                }
            },
            expect: ProtoCode::UnmatchedSend,
        },
        BrokenRound {
            name: "e0702-orphan-recv",
            n: 2,
            body: |c| {
                if c.rank() == 1 {
                    c.recv(0, 5);
                }
            },
            expect: ProtoCode::UnmatchedRecv,
        },
        BrokenRound {
            name: "e0703-rendezvous-cycle",
            n: 2,
            // Each rank receives before it sends what the other awaits.
            body: |c| {
                let peer = 1 - c.rank();
                c.recv(peer, 1 + c.rank() as u64);
                c.send(peer, 1 + peer as u64, &[0.0]);
            },
            expect: ProtoCode::Deadlock,
        },
        BrokenRound {
            name: "e0704-collective-order",
            n: 2,
            body: |c| {
                if c.rank() == 0 {
                    c.barrier();
                    c.allreduce_sum(1.0);
                } else {
                    c.allreduce_sum(1.0);
                    c.barrier();
                }
            },
            expect: ProtoCode::CollectiveDivergence,
        },
        BrokenRound {
            name: "e0705-tag-collision",
            n: 2,
            // Tag 4 goes last, so both tag-3 messages are queued before
            // rank 1 takes either.
            body: |c| {
                if c.rank() == 0 {
                    c.send(1, 3, &[1.0]);
                    c.send(1, 3, &[2.0]);
                    c.send(1, 4, &[]);
                } else {
                    c.recv(0, 4);
                    c.recv(0, 3);
                    c.recv(0, 3);
                }
            },
            expect: ProtoCode::TagCollision,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_reports_exactly_its_code() {
        for f in broken_fixtures() {
            let report = f.explore();
            let codes = report.nominal.codes();
            assert_eq!(codes, BTreeSet::from([f.expect]), "{}: {:#?}", f.name, report.nominal);
            assert!(report.nominal_errors() > 0, "{}", f.name);
        }
    }

    #[test]
    fn a_clean_pair_explores_clean_and_degrades_under_every_fault() {
        let report = explore("pair", 2, 1, |plan| {
            World::run_traced(2, plan.cloned(), |c| {
                let peer = 1 - c.rank();
                c.send(peer, 7, &[c.rank() as f64]);
                c.recv_deadline(peer, 7)
            })
        });
        assert_eq!(report.nominal_errors(), 0, "{:#?}", report.nominal);
        // 2 sends x 4 actions + 2 ranks x {kill, hang}.
        assert_eq!(report.faults.len(), 12);
        assert_eq!(report.fault_errors(), 0, "{:#?}", report.faults);
        let drop0 = &report.faults[0];
        assert!(drop0.fault.starts_with("drop send 0 (0->1, tag 7)"), "{}", drop0.fault);
        assert_eq!(drop0.outcome(), "degraded");
        assert_eq!(drop0.codes(), BTreeSet::from([ProtoCode::UnmatchedRecv]));
        // The pair never consults kills or hangs.
        assert_eq!(report.outcomes().get("not fired"), Some(&4));
    }

    #[test]
    fn a_dropped_message_under_a_blocking_receive_is_a_hang() {
        let report = explore("blocking", 2, 1, |plan| {
            World::run_traced(2, plan.cloned(), |c| {
                if c.rank() == 0 {
                    c.send(1, 3, &[1.0]);
                } else {
                    c.recv(0, 3);
                }
            })
        });
        assert_eq!(report.nominal_errors(), 0);
        assert_eq!(report.faults[0].outcome(), "E0702+panic");
        assert!(report.faults[0].panic.as_deref().unwrap().contains("rank panicked (rank 1)"));
    }

    #[test]
    fn an_acked_resend_on_one_tag_is_not_a_collision() {
        // The ack orders the two tag-3 messages: they are never queued at
        // once, so only a fault could make them collide.
        let report = explore("acked", 2, 1, |plan| {
            World::run_traced(2, plan.cloned(), |c| {
                if c.rank() == 0 {
                    c.send(1, 3, &[1.0]);
                    c.recv(1, 9);
                    c.send(1, 3, &[2.0]);
                } else {
                    c.recv(0, 3);
                    c.send(0, 9, &[]);
                    c.recv(0, 3);
                }
            })
        });
        assert_eq!(report.nominal_errors(), 0, "{:#?}", report.nominal);
    }

    #[test]
    fn exploring_twice_gives_identical_reports() {
        for f in broken_fixtures() {
            assert_eq!(format!("{:?}", f.explore()), format!("{:?}", f.explore()), "{}", f.name);
        }
    }
}
