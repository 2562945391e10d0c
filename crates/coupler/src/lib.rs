//! YAC-style coupler: the coupling schedule, the typed flux registry and
//! quarantine gates, and the concurrent component-execution harness with
//! coupling-wait accounting. Atmosphere, land and ocean share one grid
//! (as in the paper's Table 2, where the land and ocean cells make up the
//! atmosphere grid), so fields are exchanged cell for cell, unremapped.
//!
//! §5.1 of the paper: "Only energy, water and carbon are exchanged between
//! the atmosphere and the ocean at a coupling timestep every 10 simulated
//! minutes through the coupler YAC"; §6.3: "Included in timings is the
//! coupling time, i.e., the amount of time atmosphere/land have to wait
//! for ocean/sea-ice/biogeochemistry components and vice versa."
//!
//! Pieces:
//! * [`clock`] — coupling schedule arithmetic for the two time steps;
//! * [`exchange`] — named flux bundles plus a channel-based concurrent
//!   window runner that measures each side's coupling wait.
//! * [`fluxreg`] — every exchanged field's bounds, unit, sign convention
//!   and conserved class in one table;
//! * [`quarantine`] — per-field gates screening outgoing fluxes.

pub mod clock;
pub mod exchange;
pub mod fluxreg;
pub mod quarantine;

pub use clock::{ClockError, CouplingClock};
pub use dace_mini::units::ConservedClass;
pub use fluxreg::FluxDecl;
pub use exchange::{
    run_concurrent_windows, CouplerStats, Endpoint, FluxError, FluxSet, PersistenceFallback,
};
pub use quarantine::{FieldBounds, QuarantineEvent, QuarantineGate, RepairPolicy};
