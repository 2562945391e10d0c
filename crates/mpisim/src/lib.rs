//! SPMD message-passing simulation substrate.
//!
//! ICON parallelizes with MPI (point-to-point halo exchanges with
//! GPUDirect RDMA, global reductions in the ocean's barotropic solver) and
//! OpenMP. This crate provides the equivalent programming model on a single
//! machine: every MPI rank becomes a thread, point-to-point messages and
//! collectives go through one world scheduler that never reads a clock (a
//! wait is given up only when the world is quiescent — the rule in
//! [`comm`]), and every rank's sends, receives and collectives land in
//! its [`RankTrace`].
//!
//! The simulation is *real* parallelism (ranks genuinely run concurrently
//! and only see data they received), not a serial emulation — so races,
//! deadlocks, and ordering bugs in component code surface here just as they
//! would on a cluster.

pub mod comm;
pub mod explore;
pub mod fault;
pub mod halo;
pub mod heartbeat;
pub mod protocol;
pub mod rank_exchange;

pub use comm::{Comm, World};
pub use explore::{broken_fixtures, explore, BrokenRound, ExploreReport, FaultRun};
pub use fault::{CommError, FaultAction, FaultPlan, FaultReport, PlannedFault, Splitmix64};
pub use halo::HaloExchanger;
pub use heartbeat::{heartbeat_round, heartbeat_round_traced, BeatConfig, BeatStatus};
pub use protocol::{CollOp, ProtoCode, ProtoDiag, RankTrace, TraceEvent, TraceOp};
pub use rank_exchange::RankExchange;
