//! Offline stand-in for `rayon` with a **real work-stealing thread pool**
//! (see `shims/README.md`).
//!
//! Every `par_*` entry point returns a lightweight splittable parallel
//! iterator supporting the adaptor surface this workspace uses
//! (`zip`, `enumerate`, `map`, `for_each`, `collect`, `sum`). Work is
//! executed by a pool of scoped worker threads with per-worker deques and
//! back-stealing; `RAYON_NUM_THREADS` (or [`ThreadPoolBuilder`]) pins the
//! width, and width `1` degenerates to the old sequential drive.
//!
//! # Determinism contract
//!
//! Parallel execution is **bitwise identical to sequential execution and
//! invariant to thread count**, by construction:
//!
//! * Work is pre-split into tasks along **fixed chunk boundaries derived
//!   from the iterator length only** ([`task_ranges`]) — never from thread
//!   count, timing, or steal order.
//! * Mutable access is handed out as **disjoint pre-split chunks**; a task
//!   writes only into its own split, so execution order cannot change any
//!   output element.
//! * Ordered results ([`ParallelIterator::collect`]) are reassembled **in
//!   task index order**; reductions ([`ParallelIterator::sum`]) fold each
//!   task's partial sequentially and then combine the partials **in task
//!   index order** — the same association regardless of how many workers
//!   ran, including one.
//!
//! Scheduling (which worker runs which task, steal order) is free to vary;
//! results cannot.
//!
//! # Nesting and panics
//!
//! A `par_*` call issued from inside a pool task runs sequentially on the
//! calling worker instead of spawning a nested pool (no deadlock, no
//! thread explosion). A panicking task unwinds through
//! `std::thread::scope`, which joins the remaining workers (they drain the
//! deques — no hang) and then propagates the panic to the caller.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// --------------------------------------------------------------------------
// Global configuration: pool width.
// --------------------------------------------------------------------------

/// Configured pool width; 0 = not yet initialized (lazily read from the
/// environment on first use).
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

fn default_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Current pool width (threads participating in parallel drives).
pub fn current_num_threads() -> usize {
    match CONFIGURED_THREADS.load(Ordering::Acquire) {
        0 => {
            let n = default_threads();
            // Racy double-init is harmless: `default_threads` is
            // deterministic within a process.
            CONFIGURED_THREADS.store(n, Ordering::Release);
            n
        }
        n => n,
    }
}

/// Error type of [`ThreadPoolBuilder::build_global`] (never produced by
/// this shim; kept for signature compatibility).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool configuration failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Global pool configuration.
///
/// Divergence from upstream rayon: `build_global` may be called repeatedly
/// and simply re-pins the width — the determinism tests sweep thread
/// counts within one process, and results are width-invariant anyway.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Pin the pool width; 0 means "default" (`RAYON_NUM_THREADS` or the
    /// machine's available parallelism).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        CONFIGURED_THREADS.store(n, Ordering::Release);
        Ok(())
    }
}

// --------------------------------------------------------------------------
// Pool instrumentation.
// --------------------------------------------------------------------------

thread_local! {
    /// True while this thread is executing a pool task (workers and the
    /// caller thread participating in its own drive).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Cumulative task-execution nanoseconds attributed to drives
    /// *initiated from this thread* (workers report into their drive's
    /// counter, which the initiating thread absorbs at join).
    static DRIVE_BUSY_NS: Cell<u64> = const { Cell::new(0) };
}

/// Count of drives that actually spawned pool workers (nested or
/// single-task drives run inline and do not count).
static PARALLEL_DRIVES: AtomicU64 = AtomicU64::new(0);

/// True while the current thread is executing a pool task; nested `par_*`
/// calls observe this and fall back to a sequential drive.
pub fn in_pool_worker() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Aggregate kernel-execution seconds (summed across workers) of all
/// parallel drives initiated from the current thread. The ratio
/// busy / (wall * threads) is the pool utilization of a timed span; see
/// `esm_core::Timers`.
pub fn thread_busy_s() -> f64 {
    DRIVE_BUSY_NS.with(|c| c.get()) as f64 * 1e-9
}

/// Total number of multi-worker drives executed by this process.
pub fn parallel_drives() -> u64 {
    PARALLEL_DRIVES.load(Ordering::Relaxed)
}

// --------------------------------------------------------------------------
// Deterministic task chunking.
// --------------------------------------------------------------------------

/// Upper bound on tasks per drive (bounds scheduling overhead).
pub const MAX_TASKS: usize = 256;
/// Minimum items per task before a drive splits further (keeps tiny
/// element-wise loops from drowning in scheduling overhead).
pub const MIN_TASK_ITEMS: usize = 16;

/// Number of tasks a drive over `len` items is split into. A function of
/// the length **only** — never of thread count — so reduction shapes are
/// invariant across pool widths.
pub fn task_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len / MIN_TASK_ITEMS).clamp(1, MAX_TASKS)
    }
}

/// The fixed task boundaries for a drive over `len` items: half-open
/// ranges that partition `0..len` exactly, each non-empty, balanced to
/// within one item.
pub fn task_ranges(len: usize) -> Vec<(usize, usize)> {
    let n = task_count(len);
    (0..n)
        .map(|i| (i * len / n, (i + 1) * len / n))
        .collect()
}

// --------------------------------------------------------------------------
// The executor.
// --------------------------------------------------------------------------

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking task must not wedge its siblings: keep draining.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reset `IN_POOL` even when a task panics (so a caller that catches the
/// unwind keeps a functional pool).
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> PoolGuard {
        IN_POOL.with(|c| {
            let prev = c.get();
            c.set(true);
            PoolGuard { prev }
        })
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

/// Split `it` along the fixed boundaries `ranges` (len >= 2).
fn split_parts<T: ParallelIterator>(it: T, ranges: &[(usize, usize)]) -> Vec<T> {
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = it;
    let mut consumed = 0;
    for &(_, end) in &ranges[..ranges.len() - 1] {
        let (head, tail) = rest.split_at(end - consumed);
        consumed = end;
        parts.push(head);
        rest = tail;
    }
    parts.push(rest);
    parts
}

/// Drive `it` split into fixed tasks, returning each task's result **in
/// task index order**. The scheduling backend (inline vs pool) never
/// affects the returned values.
fn run_parts<T, R, F>(it: T, run: F) -> Vec<R>
where
    T: ParallelIterator,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = it.pi_len();
    let ranges = task_ranges(len);
    let n_tasks = ranges.len();
    let nested = in_pool_worker();
    let width = if nested { 1 } else { current_num_threads() };

    if n_tasks <= 1 || width <= 1 {
        // Sequential drive over the same task boundaries: identical
        // per-task results, identical combination order. One guard and
        // one clock reading for the whole drive, not per task.
        let parts = if n_tasks <= 1 {
            vec![it]
        } else {
            split_parts(it, &ranges)
        };
        let _g = PoolGuard::enter();
        let t0 = (!nested).then(Instant::now);
        let out: Vec<R> = parts.into_iter().map(&run).collect();
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            DRIVE_BUSY_NS.with(|c| c.set(c.get() + ns));
        }
        return out;
    }

    // --- parallel drive: per-worker deques + back-stealing.
    let slots: Vec<Mutex<Option<T>>> = split_parts(it, &ranges)
        .into_iter()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let results: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let workers = width.min(n_tasks);
    // Contiguous block distribution: worker w starts on its own cache-
    // friendly run of tasks and steals from the tail of busier peers.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w * n_tasks / workers..(w + 1) * n_tasks / workers).collect()))
        .collect();
    let busy = AtomicU64::new(0);
    PARALLEL_DRIVES.fetch_add(1, Ordering::Relaxed);

    let worker_loop = |w: usize| {
        let _g = PoolGuard::enter();
        loop {
            let mut task = lock_ignore_poison(&deques[w]).pop_front();
            if task.is_none() {
                for off in 1..workers {
                    let victim = (w + off) % workers;
                    task = lock_ignore_poison(&deques[victim]).pop_back();
                    if task.is_some() {
                        break;
                    }
                }
            }
            let Some(i) = task else { break };
            let part = lock_ignore_poison(&slots[i])
                .take()
                .expect("each task is scheduled exactly once");
            let t0 = Instant::now();
            let r = run(part);
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            *lock_ignore_poison(&results[i]) = Some(r);
        }
    };

    std::thread::scope(|s| {
        let worker_loop = &worker_loop;
        for w in 1..workers {
            s.spawn(move || worker_loop(w));
        }
        worker_loop(0);
        // scope joins the spawned workers here; a worker panic propagates.
    });

    let ns = busy.load(Ordering::Relaxed);
    DRIVE_BUSY_NS.with(|c| c.set(c.get() + ns));
    results
        .into_iter()
        .map(|m| {
            lock_ignore_poison(&m)
                .take()
                .expect("every scheduled task stored a result")
        })
        .collect()
}

// --------------------------------------------------------------------------
// The parallel iterator trait and adaptors.
// --------------------------------------------------------------------------

/// A splittable, exactly-sized parallel iterator (the indexed subset of
/// rayon's model — everything in this workspace is slice-shaped).
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    /// The sequential iterator a task drives over its split.
    type Seq: Iterator<Item = Self::Item>;

    /// Exact number of items.
    fn pi_len(&self) -> usize;
    /// Split into (`[0, mid)`, `[mid, len)`).
    fn split_at(self, mid: usize) -> (Self, Self);
    /// Sequential drive of this (sub)iterator.
    fn into_seq(self) -> Self::Seq;

    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Clone + Send + Sync,
    {
        Map { base: self, f }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Send + Sync,
    {
        run_parts(self, |part: Self| part.into_seq().for_each(&f));
    }

    /// Collect in item order (task results are concatenated in task index
    /// order, so this is identical to a sequential collect).
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        let parts = run_parts(self, |part: Self| part.into_seq().collect::<Vec<_>>());
        C::from_ordered_parts(parts)
    }

    /// Sum with the deterministic reduction shape: a sequential fold per
    /// fixed task, partials combined in task index order. Bitwise
    /// invariant across thread counts (including 1); the association
    /// differs from a flat sequential fold only when the drive splits
    /// (len >= 2 * [`MIN_TASK_ITEMS`]).
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        run_parts(self, |part: Self| part.into_seq().sum::<S>())
            .into_iter()
            .sum()
    }
}

/// Ordered reassembly of per-task outputs ([`ParallelIterator::collect`]).
pub trait FromParallelIterator<T: Send> {
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_parts(parts: Vec<Vec<T>>) -> Vec<T> {
        let total = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        out
    }
}

/// `par_iter` over a shared slice.
pub struct ParIter<'a, T> {
    s: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    type Seq = std::slice::Iter<'a, T>;

    fn pi_len(&self) -> usize {
        self.s.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.s.split_at(mid);
        (ParIter { s: a }, ParIter { s: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.s.iter()
    }
}

/// `par_iter_mut` over a mutable slice.
pub struct ParIterMut<'a, T> {
    s: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type Seq = std::slice::IterMut<'a, T>;

    fn pi_len(&self) -> usize {
        self.s.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.s.split_at_mut(mid);
        (ParIterMut { s: a }, ParIterMut { s: b })
    }

    fn into_seq(self) -> Self::Seq {
        self.s.iter_mut()
    }
}

/// `par_chunks` over a shared slice (items are `&[T]` of length `chunk`,
/// the last possibly shorter).
pub struct ParChunks<'a, T> {
    s: &'a [T],
    chunk: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];
    type Seq = std::slice::Chunks<'a, T>;

    fn pi_len(&self) -> usize {
        self.s.len().div_ceil(self.chunk)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        // Split at a chunk boundary so both halves keep the chunk layout.
        let at = (mid * self.chunk).min(self.s.len());
        let (a, b) = self.s.split_at(at);
        (
            ParChunks { s: a, chunk: self.chunk },
            ParChunks { s: b, chunk: self.chunk },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.s.chunks(self.chunk)
    }
}

/// `par_chunks_mut` over a mutable slice: the disjoint-write workhorse of
/// every column kernel in this workspace.
pub struct ParChunksMut<'a, T> {
    s: &'a mut [T],
    chunk: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type Seq = std::slice::ChunksMut<'a, T>;

    fn pi_len(&self) -> usize {
        self.s.len().div_ceil(self.chunk)
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.chunk).min(self.s.len());
        let (a, b) = self.s.split_at_mut(at);
        (
            ParChunksMut { s: a, chunk: self.chunk },
            ParChunksMut { s: b, chunk: self.chunk },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.s.chunks_mut(self.chunk)
    }
}

/// `into_par_iter` over an index range.
pub struct ParRange {
    r: std::ops::Range<usize>,
}

impl ParallelIterator for ParRange {
    type Item = usize;
    type Seq = std::ops::Range<usize>;

    fn pi_len(&self) -> usize {
        self.r.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = self.r.start + mid;
        (
            ParRange { r: self.r.start..at },
            ParRange { r: at..self.r.end },
        )
    }

    fn into_seq(self) -> Self::Seq {
        self.r
    }
}

/// Lock-step pairing; splits both sides at the same index.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: ParallelIterator, B: ParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;

    fn pi_len(&self) -> usize {
        self.a.pi_len().min(self.b.pi_len())
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a1, a2) = self.a.split_at(mid);
        let (b1, b2) = self.b.split_at(mid);
        (Zip { a: a1, b: b1 }, Zip { a: a2, b: b2 })
    }

    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Index attachment; splits carry the global offset so item indices are
/// split-invariant.
pub struct Enumerate<A> {
    base: A,
    offset: usize,
}

impl<A: ParallelIterator> ParallelIterator for Enumerate<A> {
    type Item = (usize, A::Item);
    type Seq = std::iter::Zip<std::ops::Range<usize>, A::Seq>;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + mid,
            },
        )
    }

    fn into_seq(self) -> Self::Seq {
        let n = self.base.pi_len();
        (self.offset..self.offset + n).zip(self.base.into_seq())
    }
}

/// Element-wise transform; the closure is cloned per split (splits capture
/// it by value so tasks can migrate across workers).
pub struct Map<A, F> {
    base: A,
    f: F,
}

impl<A, R, F> ParallelIterator for Map<A, F>
where
    A: ParallelIterator,
    R: Send,
    F: Fn(A::Item) -> R + Clone + Send + Sync,
{
    type Item = R;
    type Seq = MapSeq<A::Seq, F>;

    fn pi_len(&self) -> usize {
        self.base.pi_len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }

    fn into_seq(self) -> Self::Seq {
        MapSeq {
            it: self.base.into_seq(),
            f: self.f,
        }
    }
}

/// Sequential tail of [`Map`].
pub struct MapSeq<I, F> {
    it: I,
    f: F,
}

impl<I, R, F> Iterator for MapSeq<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        self.it.next().map(&self.f)
    }
}

pub mod prelude {
    pub use crate::{FromParallelIterator, ParallelIterator};
    use crate::{ParChunks, ParChunksMut, ParIter, ParIterMut, ParRange};

    /// `par_iter`/`par_chunks` on shared slices (and anything that derefs
    /// to a slice, e.g. `Vec`).
    pub trait ParallelSlice<T: Sync> {
        fn par_iter(&self) -> ParIter<'_, T>;
        fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T>;
    }

    /// `par_iter_mut`/`par_chunks_mut` on mutable slices.
    pub trait ParallelSliceMut<T: Send> {
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
        fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T>;
    }

    impl<T: Sync> ParallelSlice<T> for [T] {
        #[inline]
        fn par_iter(&self) -> ParIter<'_, T> {
            ParIter { s: self }
        }

        #[inline]
        fn par_chunks(&self, chunk: usize) -> ParChunks<'_, T> {
            assert!(chunk != 0, "chunk size must be non-zero");
            ParChunks { s: self, chunk }
        }
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        #[inline]
        fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
            ParIterMut { s: self }
        }

        #[inline]
        fn par_chunks_mut(&mut self, chunk: usize) -> ParChunksMut<'_, T> {
            assert!(chunk != 0, "chunk size must be non-zero");
            ParChunksMut { s: self, chunk }
        }
    }

    /// `into_par_iter` on index ranges.
    pub trait IntoParallelIterator {
        type Iter: ParallelIterator;
        fn into_par_iter(self) -> Self::Iter;
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Iter = ParRange;

        #[inline]
        fn into_par_iter(self) -> ParRange {
            ParRange { r: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn slice_adaptors_match_sequential() {
        let v = [1.0f64, 2.0, 3.0, 4.0];
        let s: f64 = v.par_iter().sum();
        assert_eq!(s, 10.0);
        let mut w = vec![0.0; 4];
        w.par_iter_mut()
            .zip(v.par_iter())
            .enumerate()
            .for_each(|(i, (o, x))| *o = x * i as f64);
        assert_eq!(w, vec![0.0, 2.0, 6.0, 12.0]);
        let mut cols = vec![1.0; 6];
        cols.par_chunks_mut(3).for_each(|c| c[0] = 9.0);
        assert_eq!(cols, vec![9.0, 1.0, 1.0, 9.0, 1.0, 1.0]);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 3).collect();
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        let s: usize = (0..100usize).into_par_iter().sum();
        assert_eq!(s, 4950);
    }

    #[test]
    fn task_ranges_partition_exactly() {
        for len in [0usize, 1, 15, 16, 17, 255, 256, 4096, 100_000] {
            let ranges = super::task_ranges(len);
            let mut cursor = 0;
            for &(s, e) in &ranges {
                assert_eq!(s, cursor);
                assert!(e > s, "empty task for len {len}");
                cursor = e;
            }
            assert_eq!(cursor, len, "ranges must cover 0..{len}");
        }
    }
}
