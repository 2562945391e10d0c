//! The storage op sequence of a fault-free episode is pinned.
//!
//! Four `EsmConfig::tiny()` windows of each fault-tolerant driver run on
//! a fault-free [`FaultFs`], which logs every storage operation. The log
//! (op kind and path relative to the episode directory) must equal the
//! checked-in list in `tests/fault_free_op_log.txt`, so a change to how
//! checkpoints are written, pruned or read shows up here as the first op
//! that differs. The list was recorded from the drivers before they were
//! moved onto one recovery core; regenerate it only for a change that
//! alters the op order on purpose, and say why.

use esm_core::{CoupledEsm, EsmConfig, ResilienceConfig, SupervisorConfig};
use iosys::{FaultFs, Storage};
use std::path::Path;
use std::sync::Arc;

const PINNED: &str = include_str!("fault_free_op_log.txt");

fn rel(path: &Path, dir: &Path) -> String {
    match path.strip_prefix(dir) {
        Ok(p) if p.as_os_str().is_empty() => ".".to_string(),
        Ok(p) => p.display().to_string(),
        Err(_) => path.display().to_string(),
    }
}

/// One fault-free episode of `driver` ("resilient" or "supervised"),
/// as one line per storage op: `<driver> <kind> <path>[ -> <dest>]`.
fn episode_log(driver: &str) -> Vec<String> {
    let dir = iosys::restart::scratch_dir(&format!("op_log_{driver}"));
    let fs = Arc::new(FaultFs::new());
    let storage = Some(fs.clone() as Arc<dyn Storage>);
    let mut esm = CoupledEsm::new(EsmConfig::tiny());
    match driver {
        "resilient" => {
            let rcfg = ResilienceConfig {
                storage,
                ..ResilienceConfig::default()
            };
            esm.run_windows_resilient(4, false, &dir, &rcfg, None)
                .map(drop)
        }
        _ => {
            let scfg = SupervisorConfig {
                storage,
                ..SupervisorConfig::default()
            };
            esm.run_windows_supervised(4, &dir, &scfg, None).map(drop)
        }
    }
    .unwrap_or_else(|e| panic!("{driver}: fault-free episode failed: {e}"));
    std::fs::remove_dir_all(&dir).ok();
    (fs.op_log().iter())
        .map(|op| {
            let dest = op.dest.as_ref().map(|d| format!(" -> {}", rel(d, &dir)));
            let dest = dest.unwrap_or_default();
            format!("{driver} {:?} {}{dest}", op.kind, rel(&op.path, &dir))
        })
        .collect()
}

#[test]
fn fault_free_episodes_issue_the_pinned_storage_ops() {
    let got: Vec<String> = ["resilient", "supervised"]
        .iter()
        .flat_map(|d| episode_log(d))
        .collect();
    let want: Vec<&str> = PINNED.lines().filter(|l| !l.is_empty()).collect();
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i).map(String::as_str) != want.get(i).copied()) {
        panic!(
            "storage op {} differs from the pinned sequence:\n  pinned: {}\n  got:    {}\n\
             ({} ops pinned, {} issued)",
            i + 1,
            want.get(i).unwrap_or(&"<none>"),
            got.get(i).map_or("<none>", String::as_str),
            want.len(),
            got.len()
        );
    }
}
