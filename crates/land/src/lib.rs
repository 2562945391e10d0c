//! Land + dynamic vegetation component (JSBach-like).
//!
//! Table 2 of the paper gives the land state shape we reproduce: four
//! physical state variables on five soil levels, 21 carbon pools plus the
//! leaf area index, associated with up to 11 plant functional types, plus
//! hydrological discharge from land to ocean.
//!
//! §5.1: "the introduction of an interactive biosphere model introduced a
//! very large number of additional small GPU kernels" — the land model is
//! deliberately structured as many small per-process, per-PFT kernels
//! routed through a [`kernels::LaunchRecorder`], which is what makes the
//! CUDA-graph replay optimization measurable (machine model + the
//! `land.kernels_per_step` row of `perf/`).
//!
//! Carbon discipline: every flux is an explicit transfer between pools or
//! an exchange with the atmosphere accumulated in `nee_acc`, so total
//! carbon (pools + exported NEE) is conserved to round-off. Water
//! likewise: precipitation in = soil water + river storage + discharge +
//! evapotranspiration.

pub mod dsl;
pub mod kernels;
pub mod model;
pub mod params;
pub mod pools;
pub mod rivers;
pub mod soil;
pub mod state;

pub use kernels::LaunchRecorder;
pub use model::LandModel;
pub use params::LandParams;
pub use pools::CarbonPool;
pub use state::LandState;

// The freshwater-flux bounds formerly exported here live in the typed
// registry `coupler::fluxreg`, alongside the flux's unit and its
// Water conservation class.
