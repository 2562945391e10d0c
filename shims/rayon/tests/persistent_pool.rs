//! Properties of the persistent pool itself:
//!
//! * workers are started once and parked between drives: ten thousand
//!   drives at width 4 start at most three threads, and sweeping the
//!   width down and up again starts none;
//! * the results are the sequential bits at every width, including when
//!   two threads drive at once (one of them runs inline);
//! * a panic in a task a worker claimed reaches the caller, which leaves
//!   the pool usable.
//!
//! Threads are counted by name (`/proc/self/task/*/comm`), not by the
//! process's `Threads:` line: the test harness starts and ends its own
//! threads while these tests run. The pool width is process-global, so
//! every test holds [`WIDTH_LOCK`].

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn set_width(n: usize) {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim build_global is infallible");
}

fn lock_width() -> std::sync::MutexGuard<'static, ()> {
    WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live threads of this process named like the pool's workers.
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "rayon-worker")
        .count()
}

/// Values spanning magnitudes, so any reassociation of a sum shows.
fn input(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| (i as f64 * 0.7).sin() * 10f64.powi((i % 13) as i32 - 6))
        .collect()
}

/// One of each kind of drive: disjoint chunk writes, an ordered collect
/// and a reduction, returned as bits.
fn drives(x: &[f64]) -> (Vec<u64>, Vec<u64>, u64) {
    let mut written = vec![0.0f64; x.len()];
    written
        .par_chunks_mut(7)
        .zip(x.par_chunks(7))
        .enumerate()
        .for_each(|(ci, (out, src))| {
            for (k, (o, s)) in out.iter_mut().zip(src).enumerate() {
                *o = s * (ci * 7 + k) as f64 + 1.0;
            }
        });
    let collected: Vec<f64> = x.par_iter().map(|&v| v * 3.0 - 1.0).collect();
    let total: f64 = x.par_iter().sum();
    (
        written.iter().map(|v| v.to_bits()).collect(),
        collected.iter().map(|v| v.to_bits()).collect(),
        total.to_bits(),
    )
}

#[test]
fn ten_thousand_drives_start_at_most_three_workers() {
    let _guard = lock_width();
    set_width(4);
    let before = pool_threads();
    let mut buf = [0u8; 4 * rayon::MIN_TASK_ITEMS];
    let drives_before = rayon::parallel_drives();
    for _ in 0..10_000 {
        buf.par_iter_mut().for_each(|b| *b = b.wrapping_add(1));
    }
    assert_eq!(rayon::parallel_drives() - drives_before, 10_000);
    assert!(buf.iter().all(|&b| b == (10_000 % 256) as u8));
    let after = pool_threads();
    assert!(after <= 3, "{after} workers after 10 000 drives at width 4");
    assert!(after >= before, "workers never exit");
}

#[test]
fn width_sweep_keeps_the_bits_and_starts_no_more_workers() {
    let _guard = lock_width();
    let x = input(20_000);
    set_width(1);
    let reference = drives(&x);
    set_width(4);
    assert_eq!(drives(&x), reference, "width 4");
    let started = pool_threads();
    assert!(started <= 3);
    for width in [2, 1, 4] {
        set_width(width);
        for _ in 0..20 {
            assert_eq!(drives(&x), reference, "width {width}");
        }
        assert_eq!(pool_threads(), started, "width {width} started a worker");
    }
}

#[test]
fn concurrent_drivers_both_get_the_sequential_bits() {
    let _guard = lock_width();
    let xs = [input(9_000), input(13_000)];
    set_width(1);
    let reference: Vec<_> = xs.iter().map(|x| drives(x)).collect();
    set_width(4);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for (x, want) in xs.iter().zip(&reference) {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..50 {
                    assert_eq!(&drives(x), want, "round {round}");
                }
            });
        }
    });
}

#[test]
fn panic_in_a_worker_task_reaches_the_caller_and_the_pool_survives() {
    let _guard = lock_width();
    set_width(4);
    let caller = std::thread::current().id();
    let n = 10_000usize;
    // Tasks are slow enough that the woken workers claim some batches; a
    // worker panics in the first task it runs.
    let mut worker_panicked = false;
    for _ in 0..100 {
        let fired = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            (0..n).into_par_iter().for_each(|i| {
                if std::thread::current().id() != caller && !fired.swap(true, Ordering::Relaxed) {
                    panic!("injected worker panic at item {i}");
                }
                std::hint::black_box((0..200).fold(i, |a, b| a ^ b));
            });
        }));
        assert!(!rayon::in_pool_worker(), "IN_POOL leaked past a panic");
        if fired.load(Ordering::Relaxed) {
            assert!(result.is_err(), "a worker's panic must reach the caller");
            worker_panicked = true;
            break;
        }
        assert!(result.is_ok());
    }
    assert!(worker_panicked, "no worker claimed a task in 100 drives");

    let drives_before = rayon::parallel_drives();
    let total: usize = (0..n).into_par_iter().sum();
    assert_eq!(total, n * (n - 1) / 2);
    assert_eq!(
        rayon::parallel_drives() - drives_before,
        1,
        "the drive after a panic must run on the pool"
    );
}
