//! Atmosphere component: a multi-layer hydrostatic dynamical core on the
//! icosahedral C-grid with tracer transport and simplified moist physics.
//!
//! # Relation to ICON-A
//!
//! ICON's atmosphere is a nonhydrostatic compressible core (Giorgetta et
//! al. 2018). Rebuilding it verbatim is out of scope (DESIGN.md
//! substitution table); what we preserve is its computational skeleton:
//!
//! * prognostic **normal velocities at triangle edges** and mass at cell
//!   circumcenters (Arakawa C staggering, 1.5 velocity dof per cell as in
//!   Table 2 of the paper);
//! * the **two-time-level predictor-corrector** stepping (explicit
//!   horizontal dynamics, implicit vertical operators solved by per-column
//!   tridiagonal sweeps — `icongrid::column`, shared with land and ocean);
//! * the `z_ekinh` **kinetic-energy gather kernel** with its neighbor
//!   index lookups — the DaCe case-study kernel of §5.2;
//! * halo exchanges after every partial update, tracer transport in flux
//!   form, column physics.
//!
//! # Formulation
//!
//! Stacked-layer hydrostatic equations (isentropic-like vertical
//! coordinate): `nlev` immiscible layers of fixed density ratio, each with
//! layer thickness `delta` (mass) and edge-normal velocity `vn`, coupled
//! through the Montgomery potential. Vector-invariant momentum equation:
//!
//! ```text
//! d(delta_k)/dt = -div(delta_k v_k)
//! d(vn_k)/dt    = -grad_n(K_k + M_k) + (f + zeta_k) vt_k + D(vn)
//! M_k           = g [ z_s + sum_{j<k} (rho_j/rho_k) delta_j + sum_{j>=k} delta_j ]
//! ```
//!
//! Moisture (`qv`, `qc`), CO2 and O3 are transported in flux form with
//! first-order upwinding; condensation releases latent heat implemented as
//! cross-layer mass transfer (the isentropic-coordinate form of heating),
//! giving a closed, conservative water and energy cycle.

pub mod dsl;
pub mod dycore;
pub mod model;
pub mod params;
pub mod physics;
pub mod state;
pub mod tracers;

pub use model::Atmosphere;
pub use params::AtmParams;
pub use state::AtmState;

// The coupling-flux bounds formerly exported here (`coupling_flux_bounds`)
// live in the typed registry `coupler::fluxreg`, alongside each flux's
// physical unit and conserved class.
