//! `perf --compare <a.json> <b.json>`: two result files of `perf --all
//! --out`, `a` the parent and `b` the change, one row per (end-to-end
//! metric, workload) pair.

use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{judge, median, worsening, Verdict};
use serde_json::Value;
use std::path::Path;

/// What two results must share before comparing them means anything: the
/// machine's thread count, the seed, and the span (which fixes how many
/// windows a run gets through).
const MUST_MATCH: [&str; 3] = ["host.threads", "seed", "seconds"];

fn load(path: &Path) -> Result<Value, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Why the two files cannot be compared, if they cannot.
fn refusal(a: &Value, b: &Value) -> Option<String> {
    let field = |doc: &Value, key: &str| doc.get("descriptor").and_then(|d| d.get(key)).cloned();
    for doc in [a, b] {
        if field(doc, "quick") != Some(Value::Bool(false)) {
            return Some("a quick result is never comparable".to_string());
        }
    }
    for key in MUST_MATCH {
        let (va, vb) = (field(a, key), field(b, key));
        if va.is_none() || va != vb {
            let show = |v: Option<Value>| {
                v.and_then(|v| serde_json::to_string(&v).ok())
                    .unwrap_or_else(|| "nothing".into())
            };
            return Some(format!("{key} differs: {} against {}", show(va), show(vb)));
        }
    }
    if a.get("traced") != b.get("traced") {
        return Some("one result is traced and the other is not".to_string());
    }
    None
}

/// Every run's value of one metric on one workload.
fn series(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = doc.get("runs").and_then(Value::as_array);
    runs.into_iter()
        .flatten()
        .filter_map(|run| {
            run.get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Rows of an untraced comparison: the verdict per (metric, workload).
fn end_to_end_rows(a: &Value, b: &Value) -> Vec<(String, Verdict)> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (series(a, w.name, m.name), series(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                continue; // skipped on one of the hosts
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            let row = format!(
                "{:<14} {:<12} {:>14.6} {:>14.6} {:>+8.1} % {:>6.0} %  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                100.0 * worsening(&va, &vb, m.better),
                100.0 * m.bound,
                verdict.as_str()
            );
            rows.push((row, verdict));
        }
    }
    rows
}

/// Exact-count per-layer metrics that differ between two traced results.
fn exact_count_differences(a: &Value, b: &Value) -> Vec<String> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (series(a, w.name, m.name), series(b, w.name, m.name));
            let mut all: Vec<f64> = va.iter().chain(&vb).copied().collect();
            all.dedup();
            if all.len() > 1 {
                out.push(format!("{} {}: {va:?} against {vb:?}", w.name, m.name));
            }
        }
    }
    out
}

/// `Ok(true)` when no pair is worse and no exact count differs.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if let Some(why) = refusal(&a, &b) {
        return Err(format!("refusing to compare: {why}"));
    }
    if a.get("traced") == Some(&Value::Bool(true)) {
        let diffs = exact_count_differences(&a, &b);
        for d in &diffs {
            println!("exact count differs: {d}");
        }
        println!("{} exact counts differ", diffs.len());
        return Ok(diffs.is_empty());
    }
    println!(
        "{:<14} {:<12} {:>14} {:>14} {:>10} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound"
    );
    let rows = end_to_end_rows(&a, &b);
    for (row, _) in &rows {
        println!("{row}");
    }
    let count = |v: Verdict| rows.iter().filter(|(_, x)| *x == v).count();
    println!(
        "{} ok, {} worse, {} unresolved (spread wider than the bound and the runs overlap)",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Worse) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn doc(threads: u64, seed: u64, quick: bool, taus: &[f64]) -> Value {
        let runs: Vec<Value> = taus
            .iter()
            .map(|t| json!({"seq_b4_w1": {"metrics": {"tau": {"value": *t, "unit": "x"}}}}))
            .collect();
        json!({
            "descriptor": {"host.threads": threads, "seed": seed, "seconds": 10.0, "quick": quick},
            "traced": false,
            "runs": Value::Seq(runs),
        })
    }

    #[test]
    fn refuses_across_hosts_seeds_and_quick_runs() {
        let base = doc(2, 7, false, &[1.0]);
        assert_eq!(refusal(&base, &doc(2, 7, false, &[2.0])), None);
        assert!(refusal(&base, &doc(1, 7, false, &[1.0]))
            .unwrap()
            .contains("host.threads"));
        assert!(refusal(&base, &doc(2, 8, false, &[1.0]))
            .unwrap()
            .contains("seed"));
        assert!(refusal(&base, &doc(2, 7, true, &[1.0]))
            .unwrap()
            .contains("quick"));
    }

    #[test]
    fn rows_carry_the_bound_verdict() {
        let a = doc(2, 7, false, &[100.0, 101.0, 99.0]);
        let same = end_to_end_rows(&a, &doc(2, 7, false, &[100.5, 99.5, 100.0]));
        assert_eq!(
            same.len(),
            1,
            "only the pair present in both files is a row"
        );
        assert_eq!(same[0].1, Verdict::Ok);
        // tau is better when higher: half the rate is far beyond any bound.
        let slow = end_to_end_rows(&a, &doc(2, 7, false, &[50.0, 50.5, 49.5]));
        assert_eq!(slow[0].1, Verdict::Worse);
    }
}
