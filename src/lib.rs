//! ICON-ESM-RS: a Rust reproduction of *"Computing the Full Earth System
//! at 1km Resolution"* (Klocke et al., SC '25).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`icongrid`] | icosahedral C-grid, fields, operators, decomposition |
//! | [`mpisim`] | SPMD rank simulation, halo exchange, collectives |
//! | [`machine`] | GH200/Alps/JUPITER performance & power model |
//! | [`atmo`] | atmosphere dynamical core + tracers + physics |
//! | [`land`] | JSBach-like land + vegetation + rivers |
//! | [`ocean`] | ocean + barotropic CG solver + sea ice |
//! | [`hamocc`] | 19-tracer ocean biogeochemistry |
//! | [`coupler`] | YAC-style exchange on one shared grid, clock, concurrent windows |
//! | [`dace_mini`] | DSL -> SDFG -> transforms -> executors (§5.2) |
//! | [`iosys`] | multi-file restart + async output |
//! | [`esm_core`] | the coupled Earth-system driver |
//!
//! Quickstart: see `examples/quickstart.rs`, or:
//!
//! ```
//! use icon_esm::esm_core::{CoupledEsm, EsmConfig};
//! let mut esm = CoupledEsm::new(EsmConfig::tiny());
//! esm.run_windows(1, false).unwrap();
//! assert!(esm.time_s() > 0.0);
//! ```

pub use atmo;
pub use coupler;
pub use dace_mini;
pub use esm_core;
pub use hamocc;
pub use icongrid;
pub use iosys;
pub use land;
pub use machine;
pub use mpisim;
pub use ocean;
