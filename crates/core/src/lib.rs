//! The coupled Earth-system driver: atmosphere + land/vegetation +
//! ocean/sea-ice + biogeochemistry exchanging energy, water, and carbon
//! through the coupler — the full system of Figure 1 of the paper.
//!
//! * [`config`] — laptop-scale run configurations (paper-scale
//!   configurations live in `machine::config`);
//! * [`solar`] — diurnal insolation forcing;
//! * [`esm`] — the [`CoupledEsm`](esm::CoupledEsm): builds every
//!   component on a shared icosahedral grid and runs coupling windows
//!   either sequentially or **concurrently** (ocean+BGC on their own
//!   thread — the structure that lets the paper run the ocean "for free"
//!   on the Grace CPUs);
//! * [`state`] — the one ordered table of model-state buffers behind
//!   snapshots, restores, SDC injection and the per-side health probe;
//! * [`resilience`] — fault-absorbing driver loop: distributed blow-up
//!   guard over fault-injectable `mpisim` messages, SDC audit, and
//!   global rollback-replay (`run_windows_resilient`);
//! * [`health`] — per-component heartbeats and the deadline-based
//!   failure detector (missed-beat accrual);
//! * [`supervisor`] — degraded-mode coupling and localized rank
//!   recovery (`run_windows_supervised`): a failed component group
//!   respawns from its own checkpoint ring and replays while the healthy
//!   group continues on persisted fluxes;
//! * `recovery` (crate-private) — what both fault-tolerant drivers
//!   share: checkpoint rings and bases, restore with fallback, the SDC
//!   screen, round accounting and the report finish;
//! * [`rounds`] — the drivers' communication rounds (guard round,
//!   heartbeat, coupler halo exchange) explored as the code that runs
//!   them, fault-free and under every single fault (`mpisim::explore`,
//!   E07xx); live rounds keep a cheap exit check on their traces;
//! * [`sdc`] — silent-data-corruption fault domain: seeded in-state
//!   bit-flip injection ([`sdc::StateFaultPlan`]) and the quiescence
//!   checksums backing the resilient driver's three SDC detectors
//!   (per-flux physics guard, CRC over never-written buffers, audit
//!   replay over the bitwise-deterministic window graph);
//! * [`budgets`] — cross-component conservation ledgers (carbon, water);
//! * [`timers`] — per-component wall-clock timing and the temporal
//!   compression tau.

pub mod budgets;
pub mod config;
pub mod esm;
pub mod fluxspec;
pub mod health;
mod recovery;
pub mod replay;
pub mod resilience;
pub mod rounds;
pub mod sdc;
pub mod solar;
pub mod state;
pub mod supervisor;
pub mod timers;

pub use config::EsmConfig;
pub use coupler::{FluxError, QuarantineEvent, RepairPolicy};
pub use esm::CoupledEsm;
pub use health::{FailureDetector, HealthConfig, HealthError, HealthEvent, HealthEventKind};
pub use replay::{ReplayConfig, ReplayState, WindowReplayStats};
pub use resilience::{EsmError, ResilienceConfig, ResilienceReport};
pub use rounds::{explore_rounds, ExploredRound};
pub use sdc::{FlipTarget, QuiescenceReference, SdcInjection, SdcMode, StateFaultPlan};
pub use state::Side;
pub use supervisor::SupervisorConfig;
pub use timers::Timers;
