//! End-to-end determinism sweep for the work-stealing rayon shim (ISSUE 2).
//!
//! The pool's contract is *deterministic-for-results*: task boundaries
//! derive from iterator lengths only and reductions combine partials in
//! task-index order, so a run at any pool width is bitwise identical to
//! the sequential run. This test drives the full coupled model — both
//! coupling modes — at widths 1, 2, 4, 8 and asserts:
//!
//! * model state snapshots are bit-equal,
//! * carbon and water budget ledgers are bit-equal (`f64::to_bits`),
//! * the `.esmr` checkpoint shards written from each run are
//!   byte-identical on disk.
//!
//! The pool width is process-global, so both tests serialize on
//! [`WIDTH_LOCK`].

use esm_core::{CoupledEsm, EsmConfig};
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 4] = [1, 2, 4, 8];
const WINDOWS: usize = 3;
const CHECKPOINT_SHARDS: usize = 3;

fn set_width(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim build_global is infallible");
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm_pardet_{tag}_{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// Everything we compare across widths, with floats captured as raw bits.
struct RunFingerprint {
    snapshot: iosys::Snapshot,
    carbon_bits: [u64; 4],
    water_bits: [u64; 3],
    shard_bytes: Vec<Vec<u8>>,
}

fn run_and_fingerprint(threads: usize, concurrent: bool, tag: &str) -> RunFingerprint {
    set_width(threads);
    let mut esm = CoupledEsm::new(EsmConfig::tiny());
    esm.run_windows(WINDOWS, concurrent).unwrap();

    let snapshot = esm.snapshot();
    let carbon = esm.carbon_budget();
    let water = esm.water_budget();

    let dir = scratch(&format!("{tag}_{threads}"));
    let shards = iosys::write_checkpoint(&dir, "sweep", &snapshot, CHECKPOINT_SHARDS)
        .expect("write checkpoint");
    let shard_bytes = shards
        .iter()
        .map(|p| fs::read(p).expect("read checkpoint shard"))
        .collect();
    fs::remove_dir_all(&dir).ok();

    RunFingerprint {
        snapshot,
        carbon_bits: [
            carbon.atmosphere.to_bits(),
            carbon.land.to_bits(),
            carbon.ocean.to_bits(),
            carbon.total().to_bits(),
        ],
        water_bits: [
            water.atmosphere.to_bits(),
            water.land.to_bits(),
            water.ocean_received.to_bits(),
        ],
        shard_bytes,
    }
}

fn assert_fingerprints_match(reference: &RunFingerprint, got: &RunFingerprint, label: &str) {
    assert!(
        got.snapshot == reference.snapshot,
        "{label}: model snapshot diverged from the width-1 run"
    );
    assert_eq!(
        got.carbon_bits, reference.carbon_bits,
        "{label}: carbon ledger bits diverged"
    );
    assert_eq!(
        got.water_bits, reference.water_bits,
        "{label}: water ledger bits diverged"
    );
    assert_eq!(
        got.shard_bytes.len(),
        reference.shard_bytes.len(),
        "{label}: checkpoint shard count diverged"
    );
    for (i, (a, b)) in got
        .shard_bytes
        .iter()
        .zip(&reference.shard_bytes)
        .enumerate()
    {
        assert!(
            a == b,
            "{label}: checkpoint shard {i} bytes diverged ({} vs {} bytes)",
            a.len(),
            b.len()
        );
    }
}

#[test]
fn sequential_coupling_is_bitwise_identical_across_pool_widths() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let reference = run_and_fingerprint(WIDTHS[0], false, "seq");
    for &threads in &WIDTHS[1..] {
        let got = run_and_fingerprint(threads, false, "seq");
        assert_fingerprints_match(&reference, &got, &format!("sequential @ {threads} threads"));
    }
}

#[test]
fn concurrent_coupling_is_bitwise_identical_across_pool_widths() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    // Reference is the *sequential* coupling at width 1: concurrent runs at
    // every width must reproduce it bitwise, so this also re-checks the
    // serial/concurrent equivalence under a live pool.
    let reference = run_and_fingerprint(1, false, "conc_ref");
    for &threads in &WIDTHS {
        let got = run_and_fingerprint(threads, true, "conc");
        assert_fingerprints_match(&reference, &got, &format!("concurrent @ {threads} threads"));
    }
}

// ---------------------------------------------------------------------------
// Supervised driver (ISSUE 4): a degraded-then-recovered run must carry the
// same determinism contract as the plain drivers — bitwise identical
// snapshots, budget ledgers, and checkpoint shards across pool widths.
// ---------------------------------------------------------------------------

use esm_core::{HealthConfig, SupervisorConfig};
use mpisim::FaultPlan;
use std::sync::Arc;

/// Widths the supervised sweep runs at. Smaller than [`WIDTHS`] only to
/// keep the suite's run time down: each supervised run also writes
/// checkpoints, respawns the killed group and replays its lost windows.
const SUPERVISED_WIDTHS: [usize; 2] = [1, 4];

fn supervised_fingerprint(threads: usize) -> RunFingerprint {
    set_width(threads);
    let dir = scratch(&format!("sup_{threads}"));
    let scfg = SupervisorConfig {
        health: HealthConfig::default(),
        ..SupervisorConfig::default()
    };
    // Ocean group killed at window 3: the fast side degrades one window,
    // the slow side respawns from its ring and both replay.
    let plan = Arc::new(FaultPlan::new().kill_rank(2, 3));
    let mut esm = CoupledEsm::new(EsmConfig::tiny());
    let report = esm
        .run_windows_supervised(6, &dir.join("sup"), &scfg, Some(plan))
        .expect("single kill is absorbable");
    assert_eq!(report.respawns, 1, "@{threads}: {:?}", report.timeline);
    assert!(report.degraded_windows >= 1, "@{threads}");

    let snapshot = esm.snapshot();
    let carbon = esm.carbon_budget();
    let water = esm.water_budget();
    let shards = iosys::write_checkpoint(&dir, "supsweep", &snapshot, CHECKPOINT_SHARDS)
        .expect("write checkpoint");
    let shard_bytes = shards
        .iter()
        .map(|p| fs::read(p).expect("read checkpoint shard"))
        .collect();
    fs::remove_dir_all(&dir).ok();

    RunFingerprint {
        snapshot,
        carbon_bits: [
            carbon.atmosphere.to_bits(),
            carbon.land.to_bits(),
            carbon.ocean.to_bits(),
            carbon.total().to_bits(),
        ],
        water_bits: [
            water.atmosphere.to_bits(),
            water.land.to_bits(),
            water.ocean_received.to_bits(),
        ],
        shard_bytes,
    }
}

#[test]
fn supervised_recovery_is_bitwise_identical_across_pool_widths() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    let reference = supervised_fingerprint(SUPERVISED_WIDTHS[0]);
    for &threads in &SUPERVISED_WIDTHS[1..] {
        let got = supervised_fingerprint(threads);
        assert_fingerprints_match(&reference, &got, &format!("supervised @ {threads} threads"));
    }
}
