//! Supervised recovery falls back past a damaged per-side generation.
//!
//! The slow rank is killed at window 3 (the `figures resilience` kill
//! scenario), so the respawn at window 5 restores both sides from the
//! newest base, the checkpoints after window 2. Here the first shard read
//! of that restore, the newest `fast` generation, fails: the base is
//! skipped, recovery falls back to the window-0 base and replays five
//! windows, and the run still ends bitwise equal to the fault-free run.
//! Repeated at pool widths 1 and 4 (one test, so nothing else in this
//! binary races the process-global width).

use esm_core::{CoupledEsm, EsmConfig, ResilienceReport, SupervisorConfig};
use iosys::{FaultFs, OpKind, Storage, StorageFault};
use mpisim::FaultPlan;
use std::sync::Arc;

const WINDOWS: u64 = 8;

fn killed_slow_rank(fs: Arc<FaultFs>) -> (CoupledEsm, ResilienceReport) {
    let dir = iosys::restart::scratch_dir("sup_fallback");
    let scfg = SupervisorConfig {
        storage: Some(fs as Arc<dyn Storage>),
        ..SupervisorConfig::default()
    };
    let plan = Arc::new(FaultPlan::new().kill_rank(2, 3));
    let mut esm = CoupledEsm::new(EsmConfig::tiny());
    let report = esm
        .run_windows_supervised(WINDOWS, &dir, &scfg, Some(plan))
        .expect("one kill and one damaged generation are absorbable");
    std::fs::remove_dir_all(&dir).ok();
    (esm, report)
}

#[test]
fn supervised_recovery_falls_back_past_a_damaged_generation_at_widths_1_and_4() {
    let mut clean = CoupledEsm::new(EsmConfig::tiny());
    clean.run_windows(WINDOWS as usize, false).unwrap();
    let clean = clean.snapshot();

    for threads in [1usize, 4] {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("shim build_global is infallible");

        // A probe run finds the recovery's first shard read among the
        // read-class ops (reads and directory listings) the fault counts.
        let probe = Arc::new(FaultFs::new());
        let (_, report) = killed_slow_rank(probe.clone());
        assert_eq!(report.generation_fallbacks, 0, "width {threads}: probe");
        let reads: Vec<OpKind> = (probe.op_log().into_iter().map(|o| o.kind))
            .filter(|k| matches!(k, OpKind::Read | OpKind::List))
            .collect();
        let first = reads.iter().position(|k| *k == OpKind::Read);
        let nth_read = 1 + first.expect("the respawn reads a generation") as u64;

        let fs = Arc::new(FaultFs::new().fault(StorageFault::ReadFail { nth_read }));
        let (esm, report) = killed_slow_rank(fs.clone());
        assert_eq!(fs.report().read_failures, 1, "width {threads}: the fault fired");
        assert_eq!(report.respawns, 1, "width {threads}: {:?}", report.timeline);
        assert_eq!(
            report.generation_fallbacks, 1,
            "width {threads}: the window-2 base is unreadable"
        );
        assert_eq!(
            report.replayed_windows, 5,
            "width {threads}: replayed from the window-0 base"
        );
        assert!(
            esm.snapshot() == clean,
            "width {threads}: recovered run must end bitwise equal to the fault-free run"
        );
    }
}
