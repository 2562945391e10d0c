//! The model-state variable registry, pinned from outside (DESIGN.md §9,
//! §12, §14). Checkpoint snapshots, per-side snapshots, restores, and the
//! SDC injection point all enumerate the same buffers; these tests hold
//! that enumeration still:
//!
//! 1. the exact ordered variable names of `snapshot()`,
//!    `snapshot_fast()` and `snapshot_slow()` (the `.esmr` layout);
//! 2. `flippable_var_names()` is the snapshot list minus the two
//!    non-f64-state entries, in order;
//! 3. every flippable name resolves through `state_var_mut` to exactly
//!    the buffer the snapshot files under that name;
//! 4. every variable a snapshot carries is put back by the matching
//!    restore — whole state and per side.

use esm_core::{CoupledEsm, EsmConfig};
use iosys::Snapshot;

const FAST_VARS: [&str; 27] = [
    "atm.delta",
    "atm.vn",
    "atm.qv",
    "atm.qc",
    "atm.co2",
    "atm.o3",
    "atm.precip_acc",
    "atm.evap_acc",
    "atm.precip_rate",
    "atm.evap_rate",
    "atm.t_surface",
    "atm.co2_flux",
    "atm.lmf",
    "atm.is_water",
    "land.t_soil",
    "land.w_liquid",
    "land.w_ice",
    "land.q_organic",
    "land.pools",
    "land.lai",
    "land.river_storage",
    "land.nee",
    "land.et",
    "land.nee_acc",
    "land.et_acc",
    "land.precip_acc",
    "land.runoff_acc",
];

const SLOW_VARS: [&str; 40] = [
    "oce.vn",
    "oce.temp",
    "oce.salt",
    "oce.w",
    "oce.eta",
    "oce.ice",
    "oce.wind_stress",
    "oce.heat_flux",
    "oce.fw_flux",
    "oce.pco2",
    "oce.heat_acc",
    "oce.salt_acc",
    "oce.ice_fw_acc",
    "bgc.tr00",
    "bgc.tr01",
    "bgc.tr02",
    "bgc.tr03",
    "bgc.tr04",
    "bgc.tr05",
    "bgc.tr06",
    "bgc.tr07",
    "bgc.tr08",
    "bgc.tr09",
    "bgc.tr10",
    "bgc.tr11",
    "bgc.tr12",
    "bgc.tr13",
    "bgc.tr14",
    "bgc.tr15",
    "bgc.tr16",
    "bgc.tr17",
    "bgc.tr18",
    "bgc.sed_p",
    "bgc.sed_c",
    "bgc.sed_si",
    "bgc.co2_flux",
    "bgc.co2_acc",
    "bgc.sw",
    "bgc.wind",
    "bgc.pco2",
];

const LAG_VARS: [&str; 9] = [
    "pend_fast.sst",
    "pend_fast.ice_conc",
    "pend_fast.co2_flux_up",
    "pend_slow.wind_stress_n",
    "pend_slow.heat_flux",
    "pend_slow.fw_flux",
    "pend_slow.pco2_atm",
    "pend_slow.sw_down",
    "pend_slow.wind",
];

/// The two snapshot entries that are not flippable f64 model state.
const NOT_FLIPPABLE: [&str; 2] = ["atm.is_water", "esm.scalars"];

fn tiny() -> CoupledEsm {
    CoupledEsm::new(EsmConfig::tiny())
}

fn names(s: &Snapshot) -> Vec<&str> {
    s.vars.iter().map(|(n, _)| n.as_str()).collect()
}

fn bits(s: &Snapshot) -> Vec<(&str, Vec<u64>)> {
    s.vars
        .iter()
        .map(|(n, d)| (n.as_str(), d.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// A finite value no model ever computes, distinct per variable.
fn sentinel(i: usize) -> f64 {
    f64::from_bits(0x7E57_0000_0000_0000 | i as u64)
}

/// Overwrite every live buffer reachable through `state_var_mut`, the
/// water mask, and the public scalar records.
fn scribble(esm: &mut CoupledEsm) {
    for (i, name) in esm.flippable_var_names().iter().enumerate() {
        esm.state_var_mut(name).expect("flippable").fill(sentinel(i));
    }
    for w in esm.atm.state.is_water.iter_mut() {
        *w = !*w;
    }
    esm.ocean_water_received_kg = sentinel(1000);
    esm.atm.state.time_s = sentinel(1001);
    esm.land.state.time_s = sentinel(1002);
    esm.ocean.state.time_s = sentinel(1003);
}

#[test]
fn snapshot_variable_names_and_order_are_pinned() {
    let esm = tiny();
    let full: Vec<&str> = FAST_VARS
        .iter()
        .chain(&SLOW_VARS)
        .chain(&LAG_VARS)
        .copied()
        .chain(["esm.scalars"])
        .collect();
    assert_eq!(names(&esm.snapshot()), full);

    let fast: Vec<&str> = FAST_VARS.iter().copied().chain(["fast.scalars"]).collect();
    assert_eq!(names(&esm.snapshot_fast()), fast);

    let slow: Vec<&str> = SLOW_VARS.iter().copied().chain(["slow.scalars"]).collect();
    assert_eq!(names(&esm.snapshot_slow()), slow);
}

#[test]
fn flippable_names_are_the_snapshot_names_minus_the_non_state_entries() {
    let esm = tiny();
    let snap = esm.snapshot();
    let want: Vec<&str> = names(&snap)
        .into_iter()
        .filter(|n| !NOT_FLIPPABLE.contains(n))
        .collect();
    assert_eq!(esm.flippable_var_names(), want);
    assert_eq!(want.len() + NOT_FLIPPABLE.len(), snap.vars.len());
}

#[test]
fn state_var_mut_reaches_exactly_the_buffer_the_snapshot_names() {
    let mut esm = tiny();
    esm.run_windows(1, false).unwrap();
    let before = esm.snapshot();
    let flippable = esm.flippable_var_names();

    // One distinct sentinel into element 0 of every flippable variable:
    // two names wired to one buffer would overwrite each other.
    for (i, name) in flippable.iter().enumerate() {
        let live = esm
            .state_var_mut(name)
            .unwrap_or_else(|| panic!("{name}: flippable but state_var_mut is None"));
        assert_eq!(live.len(), before.expect(name).len(), "{name}: length");
        assert!(!live.is_empty(), "{name}: empty buffer");
        live[0] = sentinel(i);
    }
    for name in NOT_FLIPPABLE {
        assert!(esm.state_var_mut(name).is_none(), "{name} must not be flippable");
    }
    assert!(esm.state_var_mut("atm.no_such_var").is_none());

    let after = esm.snapshot();
    assert_eq!(names(&after), names(&before));
    for ((name, a), (_, b)) in after.vars.iter().zip(&before.vars) {
        let a: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
        let mut want: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
        if let Some(i) = flippable.iter().position(|n| n == name) {
            want[0] = sentinel(i).to_bits();
        }
        assert_eq!(a, want, "{name}: sentinel missing, misplaced, or leaked");
    }
}

#[test]
fn restore_puts_back_every_variable_the_snapshot_carries() {
    let mut a = tiny();
    a.run_windows(1, false).unwrap();
    let orig = a.snapshot();

    let mut b = tiny();
    scribble(&mut b);
    assert!(
        bits(&b.snapshot()).iter().zip(bits(&orig)).all(|(x, y)| *x != y),
        "scribble must change every variable"
    );
    b.restore(&orig);
    assert_eq!(bits(&b.snapshot()), bits(&orig));
    assert_eq!(b.windows_run(), 1);
}

#[test]
fn per_side_restores_put_back_their_side_and_nothing_else() {
    let mut a = tiny();
    a.run_windows(1, false).unwrap();
    let fast = a.snapshot_fast();
    let slow = a.snapshot_slow();

    let mut b = tiny();
    scribble(&mut b);
    let scribbled_fast = b.snapshot_fast();
    let scribbled_slow = b.snapshot_slow();
    let lag = |s: &Snapshot| -> Vec<(String, Vec<u64>)> {
        bits(s)
            .into_iter()
            .filter(|(n, _)| n.starts_with("pend_"))
            .map(|(n, d)| (n.to_string(), d))
            .collect()
    };
    let scribbled_lag = lag(&b.snapshot());

    b.restore_fast(&fast);
    assert_eq!(bits(&b.snapshot_fast()), bits(&fast));
    assert_eq!(bits(&b.snapshot_slow()), bits(&scribbled_slow), "slow side untouched");

    scribble(&mut b);
    b.restore_slow(&slow);
    assert_eq!(bits(&b.snapshot_slow()), bits(&slow));
    assert_eq!(bits(&b.snapshot_fast()), bits(&scribbled_fast), "fast side untouched");
    assert_eq!(lag(&b.snapshot()), scribbled_lag, "coupler lag state untouched");
}
