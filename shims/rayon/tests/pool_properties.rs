//! Property tests for the work-stealing pool itself (ISSUE 2):
//!
//! * fixed task boundaries partition `0..len` exactly for arbitrary
//!   lengths, and are invariant to the configured thread count;
//! * parallel drives are bitwise identical to sequential drives at every
//!   pool width, for writes, ordered collects, and reductions;
//! * a panicking task propagates through the scope without hanging, and
//!   the pool stays functional afterwards;
//! * a nested `par_iter` inside a worker falls back to sequential instead
//!   of spawning (and cannot deadlock).
//!
//! The pool width is process-global, so every test that touches it holds
//! [`WIDTH_LOCK`] to serialize against its siblings.

use proptest::prelude::*;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serializes tests that reconfigure the global pool width.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

fn set_width(n: usize) {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("shim build_global is infallible");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scheduling boundaries partition `0..len` exactly: contiguous,
    /// non-empty, covering, and bounded by `MAX_TASKS`.
    #[test]
    fn task_ranges_partition_for_arbitrary_len(len in 0usize..200_000) {
        let ranges = rayon::task_ranges(len);
        prop_assert_eq!(ranges.len(), rayon::task_count(len));
        prop_assert!(ranges.len() <= rayon::MAX_TASKS);
        let mut cursor = 0usize;
        for &(s, e) in &ranges {
            prop_assert_eq!(s, cursor);
            prop_assert!(e > s, "empty task {}..{} for len {}", s, e, len);
            cursor = e;
        }
        prop_assert_eq!(cursor, len);
    }

    /// Boundaries derive from the length only — reconfiguring the pool
    /// width must not move them (this is what makes reductions bitwise
    /// invariant across thread counts).
    #[test]
    fn task_ranges_invariant_to_thread_count(len in 0usize..200_000) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        let mut per_width = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            set_width(threads);
            per_width.push(rayon::task_ranges(len));
        }
        for w in &per_width[1..] {
            prop_assert_eq!(w, &per_width[0]);
        }
    }

    /// Disjoint chunk writes and ordered collect/sum are bitwise identical
    /// across pool widths, for arbitrary lengths and chunk sizes.
    #[test]
    fn drives_are_bitwise_identical_across_widths(
        len in 0usize..5_000,
        chunk in 1usize..40,
    ) {
        let _guard = WIDTH_LOCK.lock().unwrap();
        // Values spanning magnitudes so any reassociation of the float
        // reduction would flip low-order bits.
        let input: Vec<f64> = (0..len)
            .map(|i| (i as f64 * 0.7).sin() * 10f64.powi((i % 13) as i32 - 6))
            .collect();

        let mut reference: Option<(Vec<f64>, Vec<f64>, u64)> = None;
        for threads in [1usize, 2, 4, 8] {
            set_width(threads);

            let mut written = vec![0.0f64; len];
            written
                .par_chunks_mut(chunk)
                .zip(input.par_chunks(chunk))
                .enumerate()
                .for_each(|(ci, (out, src))| {
                    for (k, (o, s)) in out.iter_mut().zip(src).enumerate() {
                        *o = s * (ci * chunk + k) as f64 + 1.0;
                    }
                });

            let collected: Vec<f64> = input.par_iter().map(|&x| x * 3.0 - 1.0).collect();
            let total: f64 = input.par_iter().sum();

            let state = (written, collected, total.to_bits());
            match &reference {
                None => reference = Some(state),
                Some(r) => {
                    prop_assert_eq!(&state.0, &r.0, "chunk writes diverged at {} threads", threads);
                    prop_assert_eq!(&state.1, &r.1, "collect diverged at {} threads", threads);
                    prop_assert_eq!(state.2, r.2, "sum bits diverged at {} threads", threads);
                }
            }
        }
    }
}

#[test]
fn panicking_task_propagates_and_pool_survives() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_width(4);

    let n = 10_000usize;
    let result = catch_unwind(AssertUnwindSafe(|| {
        (0..n).into_par_iter().for_each(|i| {
            if i == 7_777 {
                panic!("injected task panic");
            }
        });
    }));
    assert!(result.is_err(), "the task panic must propagate to the caller");

    // The caller thread must be fully restored: not marked as a pool
    // worker, and able to run a *parallel* drive again.
    assert!(
        !rayon::in_pool_worker(),
        "IN_POOL flag leaked past a caught panic"
    );
    let drives_before = rayon::parallel_drives();
    let total: usize = (0..n).into_par_iter().sum();
    assert_eq!(total, n * (n - 1) / 2);
    assert!(
        rayon::parallel_drives() > drives_before,
        "pool stopped going parallel after a caught panic"
    );
}

#[test]
fn panic_on_spawned_worker_propagates_too() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_width(4);

    // Panic in the LAST task: with the block distribution it belongs to
    // the last worker's deque, not the caller's.
    let n = 10_000usize;
    let result = catch_unwind(AssertUnwindSafe(|| {
        (0..n).into_par_iter().for_each(|i| {
            if i == n - 1 {
                panic!("injected tail panic");
            }
        });
    }));
    assert!(result.is_err());
    assert!(!rayon::in_pool_worker());
}

#[test]
fn nested_par_iter_falls_back_to_sequential() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_width(4);

    let outer: Vec<usize> = (0..64).collect();
    let drives_before = rayon::parallel_drives();
    let sums: Vec<usize> = outer
        .par_iter()
        .map(|&base| {
            // Every task body runs marked as a pool worker...
            assert!(rayon::in_pool_worker(), "task body not marked as pool work");
            // ...so this inner drive must run sequentially (and correctly).
            (0..1_000usize).into_par_iter().map(|i| i + base).sum()
        })
        .collect();
    let drives_after = rayon::parallel_drives();

    for (base, s) in sums.iter().enumerate() {
        assert_eq!(*s, 499_500 + base * 1_000);
    }
    assert_eq!(
        drives_after - drives_before,
        1,
        "only the outer drive may spawn workers; nested drives must stay inline"
    );
}

#[test]
fn width_one_uses_the_sequential_path() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_width(1);

    let drives_before = rayon::parallel_drives();
    let v: Vec<f64> = (0..4_096).map(|i| i as f64).collect();
    let s: f64 = v.par_iter().sum();
    assert_eq!(s, (4_095.0 * 4_096.0) / 2.0);
    assert_eq!(
        rayon::parallel_drives(),
        drives_before,
        "width 1 must not spawn workers"
    );
}

/// A width-1 drive is timed once for the whole drive (not per task), and
/// still credits its task time to the initiating thread's busy clock;
/// every task body still runs marked as pool work.
#[test]
fn width_one_drives_advance_thread_busy_s() {
    let _guard = WIDTH_LOCK.lock().unwrap();
    set_width(1);

    let v: Vec<f64> = (0..4_096).map(|i| i as f64).collect();
    let busy_before = rayon::thread_busy_s();
    let mut last = busy_before;
    for _ in 0..8 {
        let s: f64 = v
            .par_iter()
            .map(|&x| {
                assert!(rayon::in_pool_worker(), "task body not marked as pool work");
                // Enough work per task that the drive spans clock ticks.
                (0..64).fold(x, |acc, i| acc + (i as f64).sqrt() * 1e-12)
            })
            .sum();
        assert!(s > 0.0);
        let now = rayon::thread_busy_s();
        assert!(now >= last, "busy seconds must never go back");
        last = now;
    }
    assert!(last > busy_before, "width-1 drives must advance thread_busy_s");
    assert!(!rayon::in_pool_worker(), "the guard is released after the drive");
}
