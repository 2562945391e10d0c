//! The atmosphere's tracers — moisture (`qv`, `qc`), CO2 and O3 — carried
//! by the dynamical core's time-averaged mass flux through the one
//! transport kernel, [`icongrid::transport::upwind`].
//!
//! Driving them with the *same* flux as the continuity equation keeps
//! their mass exactly and a uniform mixing ratio uniform (paper §3:
//! tracers for H2O, CO2 and O3 ride on the atmosphere's resolved
//! transport).

use crate::state::AtmState;
use icongrid::exchange::Exchange;
use icongrid::ops::CGrid;
use icongrid::transport::{upwind, EdgeFlux};
use icongrid::Field3;

/// Advance the atmosphere's four tracers through one step of `dt` on the
/// edge mass flux `mass_flux`, from the layer masses `delta_old` to the
/// state's current `delta`, then refresh their halos. `scratch` holds each
/// tracer's old values in turn.
pub fn transport<G: CGrid, X: Exchange>(
    g: &G,
    mass_flux: &Field3,
    delta_old: &Field3,
    dt: f64,
    state: &mut AtmState,
    scratch: &mut Field3,
    x: &X,
) {
    let AtmState { qv, qc, co2, o3, delta, .. } = state;
    let mut tracers = [qv, qc, co2, o3];
    let masses = Some((delta_old, &*delta));
    upwind(g, EdgeFlux::Total(mass_flux), masses, None, None, dt, &mut tracers, scratch);
    x.cells3_many(&mut tracers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AtmParams;
    use icongrid::{Grid, NoExchange};

    #[test]
    #[should_panic(expected = "levels (EsmConfig::atm_levels, EsmConfig::oce_levels) exceed the limit of 256")]
    fn more_levels_than_the_accumulator_holds_is_refused_at_entry() {
        let g = Grid::build(0, icongrid::EARTH_RADIUS_M);
        let p = AtmParams::new(257, 200.0);
        let mut state = AtmState::initialize(&g, &p, vec![true; g.n_cells]);
        let delta_old = state.delta.clone();
        let flux = Field3::zeros(g.n_edges, p.nlev);
        let mut scratch = Field3::zeros(g.n_cells, p.nlev);
        transport(&g, &flux, &delta_old, p.dt, &mut state, &mut scratch, &NoExchange);
    }
}
