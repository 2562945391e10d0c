//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p esm-bench --bin figures          # everything
//! cargo run --release -p esm-bench --bin figures table1   # one artifact
//! ```
//!
//! Artifacts: the names in `esm_bench::figures::ARTIFACTS`. Output is
//! printed and written to `results/<name>.json`, each file stamped with
//! the table's `"provenance"` (`modeled`, `counted` or `modeled+counted`).
//! An unknown name exits with status 2 before anything runs.

use esm_bench::figures::ARTIFACTS;
use serde_json::Value;
use std::fs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut selected = Vec::new();
    if args.is_empty() || args.iter().any(|a| a == "all") {
        selected.extend(ARTIFACTS);
    } else {
        for a in &args {
            match ARTIFACTS.iter().find(|(name, ..)| name == a) {
                Some(entry) => selected.push(entry),
                None => {
                    let names: Vec<&str> = ARTIFACTS.iter().map(|(name, ..)| *name).collect();
                    eprintln!("unknown artifact '{a}'; known: all {}", names.join(" "));
                    std::process::exit(2);
                }
            }
        }
    }

    fs::create_dir_all("results").expect("create results dir");
    for (name, provenance, generate) in &selected {
        let Value::Map(mut entries) = generate() else {
            panic!("{name}: a figure is a JSON object");
        };
        entries.insert(0, ("provenance".to_string(), Value::Str(provenance.to_string())));
        let path = format!("results/{name}.json");
        fs::write(&path, serde_json::to_string_pretty(&Value::Map(entries)).unwrap())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    println!("\nwrote {} JSON artifact(s) to results/", selected.len());
}
