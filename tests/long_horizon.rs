//! The coupled model stays inside its own ledgers for as long as it runs.
//!
//! Three processes used to drain the lowest atmosphere layer or blow up
//! the ocean within a few hundred coupling windows: the latent lift of a
//! supersaturated layer took up to half of it every step, the radiative
//! relaxation refilled a thin layer from the one below it, and forward-
//! Euler Coriolis grew the ocean's inertial oscillations. Once a layer is
//! centimetres thick, every per-layer source divided by its thickness
//! (moisture, CO2) explodes, and the carbon and water ledgers leave their
//! bounds long before the state turns non-finite.
//!
//! The column tests run in tier-1. The long runs are `#[ignore]`d and run
//! in release by CI:
//!
//! ```sh
//! cargo test --release --test long_horizon -- --ignored
//! ```

use atmo::physics::{apply_physics, PhysicsTables, LIFT_FLOOR};
use atmo::{AtmParams, AtmState};
use esm_core::{CoupledEsm, EsmConfig};
use icongrid::{Field2, Grid};

/// Column water of cell `c`: vapour + condensate in the column plus what
/// rained out minus what evaporated into it.
fn column_water(s: &AtmState, c: usize, nlev: usize) -> f64 {
    let col: f64 = (0..nlev)
        .map(|k| s.delta.at(c, k) * (s.qv.at(c, k) + s.qc.at(c, k)))
        .sum();
    col + s.precip_acc[c] - s.evap_acc[c]
}

#[test]
fn land_moisture_keeps_thin_layers() {
    // A land column whose surface layer starts at a twentieth of its
    // equilibrium thickness, under a steady and strong land moisture
    // flux: every step supersaturates the layer. The latent lift must not
    // take it below where it started (it may only refill), and the
    // column's water must close to round-off.
    let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
    let p = AtmParams::new(5, 600.0);
    let mut s = AtmState::initialize(&g, &p, vec![false; g.n_cells]);
    let (c, kb) = (17, 4);
    let thin = 0.05 * p.equilibrium_thickness(kb, g.cell_center[c].z);
    let moved = s.delta.at(c, kb) - thin;
    *s.delta.at_mut(c, kb) = thin;
    *s.delta.at_mut(c, kb - 1) += moved;
    s.land_moisture_flux[c] = 5e-5;
    let wind = Field2::zeros(g.n_cells);
    let mut tables = PhysicsTables::default();
    let before = column_water(&s, c, 5);
    for step in 0..2_000 {
        let d_before = s.delta.at(c, kb);
        apply_physics(&g, &p, &mut s, &wind, &mut tables);
        let d = s.delta.at(c, kb);
        assert!(d >= thin, "step {step}: layer {d} below {thin}");
        assert!(
            d >= d_before * (1.0 - 1e-12),
            "step {step}: {d_before} -> {d}"
        );
    }
    assert!(s.precip_acc[c] > 0.0, "the surplus rains out");
    let target = p.equilibrium_thickness(kb, g.cell_center[c].z);
    assert!(
        s.delta.at(c, kb) > thin,
        "relaxation refills the layer toward {target}"
    );
    assert!(
        s.delta.at(c, kb) < LIFT_FLOOR * target * 1.5,
        "and the lift holds it near the floor"
    );
    let after = column_water(&s, c, 5);
    assert!(
        ((after - before) / s.evap_acc[c]).abs() < 1e-12,
        "column water {before} -> {after}"
    );
}

#[test]
fn relaxation_refills_each_layer_toward_its_own_target() {
    // A thin layer above a surface layer that is at its target must
    // refill from the layers that have mass to spare, not by draining the
    // surface layer.
    let g = Grid::build(2, icongrid::EARTH_RADIUS_M);
    let mut p = AtmParams::new(5, 600.0);
    p.tau_rad = 20.0 * p.dt;
    let mut s = AtmState::initialize(&g, &p, vec![false; g.n_cells]);
    let c = 3;
    let sinlat = g.cell_center[c].z;
    let col = p.total_depth();
    let eq: Vec<f64> = (0..5).map(|k| p.equilibrium_thickness(k, sinlat)).collect();
    let scale = col / eq.iter().sum::<f64>();
    for (k, e) in eq.iter().enumerate() {
        *s.delta.at_mut(c, k) = e * scale;
    }
    let moved = 0.9 * s.delta.at(c, 3);
    *s.delta.at_mut(c, 3) -= moved;
    *s.delta.at_mut(c, 0) += moved;
    let bottom = s.delta.at(c, 4);
    let wind = Field2::zeros(g.n_cells);
    let mut tables = PhysicsTables::default();
    for _ in 0..50 {
        apply_physics(&g, &p, &mut s, &wind, &mut tables);
        assert!(
            s.delta.at(c, 4) >= bottom * (1.0 - 1e-3),
            "surface layer drained"
        );
    }
    assert!(
        s.delta.at(c, 3) > 0.5 * eq[3] * scale,
        "thin layer refilled"
    );
}

/// The benchmark harness's bounds on the relative drift of the carbon
/// and of the water total between the end of its first call and the end
/// of its timed span (`perf/src/workloads.rs`).
const CARBON_DRIFT_MAX: f64 = 1e-5;
const WATER_DRIFT_MAX: f64 = 1e-3;

/// Run `windows` windows after a first one, checking after every window
/// that both ledgers stay within the harness's bounds, and that the state
/// is finite every 50 windows and at the end.
fn stays_in_ledgers(cfg: EsmConfig, windows: usize) {
    let mut esm = CoupledEsm::new(cfg);
    esm.run_windows(1, false).unwrap();
    let carbon0 = esm.carbon_budget().total();
    let water0 = esm.water_budget().total();
    for w in 1..=windows {
        esm.run_windows(1, false).unwrap();
        let carbon = ((esm.carbon_budget().total() - carbon0) / carbon0).abs();
        let water = ((esm.water_budget().total() - water0) / water0).abs();
        assert!(
            carbon <= CARBON_DRIFT_MAX,
            "window {w}: carbon drift {carbon:e}"
        );
        assert!(
            water <= WATER_DRIFT_MAX,
            "window {w}: water drift {water:e}"
        );
        if w % 50 == 0 || w == windows {
            let snap = esm.snapshot();
            let bad = snap
                .vars
                .iter()
                .find(|(_, d)| d.iter().any(|v| !v.is_finite()));
            assert!(bad.is_none(), "window {w}: {} not finite", bad.unwrap().0);
        }
    }
}

#[test]
#[ignore = "long horizon: run in release (see the module docs)"]
fn tiny_config_stays_in_its_ledgers_for_480_windows() {
    stays_in_ledgers(EsmConfig::tiny(), 480);
}

#[test]
#[ignore = "long horizon: run in release (see the module docs)"]
fn demo_config_stays_in_its_ledgers_for_600_windows() {
    stays_in_ledgers(EsmConfig::demo(), 600);
}
