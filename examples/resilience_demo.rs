//! Resilience demo: run the coupled model through a storm of injected
//! faults — dropped and duplicated guard messages, a rank killed
//! mid-window, a checkpoint generation corrupted on disk — and show the
//! driver absorbing all of it, finishing bit-exact with a fault-free run.
//!
//! ```sh
//! cargo run --release --example resilience_demo
//! ```

use esm_core::{CoupledEsm, EsmConfig, ResilienceConfig};
use mpisim::{FaultAction, FaultPlan};
use std::sync::Arc;

fn main() {
    let cfg = EsmConfig::tiny();
    let dir = std::env::temp_dir().join(format!("esm_resilience_demo_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    println!("=== resilience demo: 6 coupling windows under injected faults ===\n");
    println!("fault plan:");
    println!("  window 1: duplicate the rank2->rank0 guard report (dedup absorbs it)");
    println!("  window 2: delay the rank0->rank1 verdict (held until the guard's world is quiescent,");
    println!("            then delivered before any receive may time out)");
    println!("  window 3: DROP the rank1->rank0 guard report      -> rollback");
    println!("  window 5: KILL rank 2 before it reports           -> rollback");
    println!("  plus: checkpoint generation 3 gets a flipped byte on disk,");
    println!("        so that rollback must fall back to generation 2\n");

    let plan = Arc::new(
        FaultPlan::new()
            .inject(2, 0, 1, FaultAction::Duplicate)
            .inject(0, 1, 2, FaultAction::Delay)
            .inject(1, 0, 3, FaultAction::Drop)
            .kill_rank(2, 5),
    );
    let rcfg = ResilienceConfig {
        checkpoint_every: 2,
        corrupt_generations: vec![3],
        ..ResilienceConfig::default()
    };

    let mut chaotic = CoupledEsm::new(cfg.clone());
    let report = chaotic
        .run_windows_resilient(6, false, &dir, &rcfg, Some(plan.clone()))
        .expect("every fault in this plan is absorbable");

    println!("--- run report ---");
    println!("windows completed:     {}", report.windows_run);
    println!("checkpoints written:   {}", report.checkpoints_written);
    println!("rollbacks:             {}", report.rollbacks);
    println!("windows replayed:      {}", report.replayed_windows);
    println!("generation fallbacks:  {}", report.generation_fallbacks);
    println!("final generation:      {}", report.final_generation);
    println!("faults absorbed:");
    for f in &report.faults_absorbed {
        println!("  - {f}");
    }
    let fired = plan.report();
    println!(
        "\ninjected: {} dropped, {} duplicated, {} delayed, {} bit-flipped, {} killed",
        fired.dropped, fired.duplicated, fired.delayed, fired.bit_flipped, fired.killed
    );

    print!("\nbit-exactness vs fault-free run: ");
    let mut clean = CoupledEsm::new(cfg);
    clean.run_windows(6, false).unwrap();
    if chaotic.snapshot() == clean.snapshot() {
        println!("IDENTICAL");
    } else {
        println!("DIVERGED (bug!)");
        std::process::exit(1);
    }

    println!("\ncheckpoint ring on disk ({}):", dir.display());
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for n in names {
        println!("  {n}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
