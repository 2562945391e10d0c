//! The bitwise oracle: `results/golden.json` pins `sdc::crc_f64` of every
//! snapshot var after each of 4 bare `EsmConfig::tiny()` windows, for the
//! sequential and the concurrent driver. This test recomputes that ledger
//! at pool widths 1 and 4 and names the first (driver, window, var) whose
//! CRC moved. A change meant to keep the model's bits must pass it
//! untouched; a change meant to move them regenerates the file with
//! `cargo run --release -p esm-bench --bin figures golden`.

use esm_core::sdc::window_ledger;
use esm_core::EsmConfig;
use serde_json::Value;

fn set_width(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim build_global is infallible");
}

#[test]
fn snapshot_crcs_match_the_golden_ledger_at_widths_1_and_4() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let golden = serde_json::from_str(&text).expect("golden.json parses");
    let windows = golden["windows"].as_u64().expect("windows") as usize;
    let toolchain = format!(
        "recorded with rustc {} on {}",
        golden["rustc"].as_str().unwrap_or("?"),
        golden["target"].as_str().unwrap_or("?")
    );
    for width in [1, 4] {
        set_width(width);
        for (driver, concurrent) in [("sequential", false), ("concurrent", true)] {
            let recorded = golden[driver].as_array().expect("one entry per window");
            assert_eq!(recorded.len(), windows, "{driver}: windows recorded");
            let ledger = window_ledger(EsmConfig::tiny(), windows, concurrent);
            for (w, (vars, old)) in ledger.iter().zip(recorded).enumerate() {
                for (var, crc) in vars {
                    let new = format!("{crc:#010x}");
                    let old = old.get(var).and_then(Value::as_str).unwrap_or("missing");
                    assert_eq!(
                        old,
                        new,
                        "width {width}: first moved CRC at ({driver}, window {}, {var}): \
                         old {old}, new {new} ({toolchain})",
                        w + 1
                    );
                }
                let Value::Map(old_vars) = old else { panic!("{driver} window {}: not an object", w + 1) };
                assert_eq!(old_vars.len(), vars.len(), "{driver} window {}: var count", w + 1);
            }
        }
    }
}
