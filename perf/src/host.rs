//! The machine the numbers were taken on: descriptor, peak memory, and a
//! STREAM-style triad measured in the same run as the kernels it bounds.

use serde_json::{json, Value};
use std::process::Command;
use std::time::Instant;

pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Size of the largest cache sysfs lists for cpu0, in bytes.
pub fn llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("size")).ok())
        .filter_map(|s| parse_cache_size(s.trim()))
        .max()
}

fn parse_cache_size(s: &str) -> Option<u64> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line a command prints, or "unknown" (a benchmark checkout is not a
/// git repository, and a host need not have rustc on its path).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything two results must agree on before they may be compared, and
/// what a reader needs to place them.
pub fn descriptor(seed: u64, seconds: f64, quick: bool) -> Value {
    json!({
        "host.threads": threads(),
        "host.llc_bytes": llc_bytes().map_or(Value::Null, |b| json!(b)),
        "cpu_model": cpu_model(),
        "git_rev": first_line("git", &["rev-parse", "HEAD"]),
        "rustc": first_line("rustc", &["--version"]),
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub struct Triad {
    pub array_bytes: u64,
    pub gbps: f64,
}

/// `a[i] = b[i] + s * c[i]` over three arrays of at least four times the
/// last-level cache each, single-threaded; best of `reps` passes, 24 bytes
/// moved per element. `None` when the arrays cannot be allocated — the
/// bandwidth is then omitted, never estimated from smaller arrays. Most of
/// the probe's time is the first touch of the arrays (about 3 s per GiB on
/// the reference host, huge-page advice made no difference), not the passes.
pub fn stream_triad(llc: u64, reps: usize) -> Option<Triad> {
    let n = (4 * llc).div_ceil(8) as usize;
    let alloc = |fill: f64| {
        let mut v: Vec<f64> = Vec::new();
        v.try_reserve_exact(n).ok()?;
        v.resize(n, fill);
        Some(v)
    };
    let (mut a, b, c) = (alloc(0.0)?, alloc(1.0)?, alloc(2.0)?);
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let s = 3.0 + rep as f64;
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&mut a);
        assert_eq!(a[n / 2], 1.0 + 2.0 * s, "triad result is wrong");
    }
    Some(Triad {
        array_bytes: (n * 8) as u64,
        gbps: (n * 24) as f64 / best / 1e9,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn triad_reports_its_array_size() {
        let t = stream_triad(1 << 12, 2).unwrap();
        assert!(t.array_bytes >= 4 << 12);
        assert!(t.gbps > 0.0);
    }
}
