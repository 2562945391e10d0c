//! Offline stand-in for `rayon` with a **real persistent thread pool**
//! (see `shims/README.md`).
//!
//! Every `par_*` entry point returns a lightweight splittable parallel
//! iterator supporting the adaptor surface this workspace uses
//! (`zip`, `enumerate`, `map`, `for_each`, `collect`, `sum`). Work is
//! executed by one process-wide pool of parked workers: a drive publishes
//! its job, wakes up to `width - 1` workers, and works alongside them;
//! every participant claims **batches of consecutive tasks** from one
//! atomic cursor. Workers are started lazily, the first time a drive asks
//! for that many, and never exit. `RAYON_NUM_THREADS` (or
//! [`ThreadPoolBuilder`]) pins the width, and width `1` degenerates to the
//! old sequential drive.
//!
//! # Determinism contract
//!
//! Parallel execution is **bitwise identical to sequential execution and
//! invariant to thread count**, by construction:
//!
//! * Work is pre-split into tasks along **fixed chunk boundaries derived
//!   from the iterator length only** ([`task_ranges`]) — never from thread
//!   count, timing, or claim order. Batching groups whole tasks; it never
//!   moves a boundary.
//! * Mutable access is handed out as **disjoint pre-split chunks**; a task
//!   writes only into its own split, so execution order cannot change any
//!   output element.
//! * Each task's result goes to its own pre-sized slot. Ordered results
//!   ([`ParallelIterator::collect`]) are reassembled **in task index
//!   order**; reductions ([`ParallelIterator::sum`]) fold each task's
//!   partial sequentially and then combine the partials **in task index
//!   order** — the same association regardless of how many workers ran,
//!   including one.
//!
//! Scheduling (which participant claims which batch) is free to vary;
//! results cannot.
//!
//! # Nesting, concurrent drivers and panics
//!
//! A `par_*` call issued from inside a pool task runs sequentially on the
//! calling thread instead of waiting for the pool (no deadlock, no thread
//! explosion). The pool serves one drive at a time: a drive started on
//! another thread meanwhile runs inline over the same tasks. A panicking
//! task stops further claims; the driver waits for every worker that
//! joined to leave and then resumes the panic on the calling thread.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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
    /// Cumulative nanoseconds spent working on drives *initiated from
    /// this thread*, summed over participants (each times its stay in the
    /// drive once and reports into the drive's counter, which the
    /// initiating thread absorbs when the drive ends).
    static DRIVE_BUSY_NS: Cell<u64> = const { Cell::new(0) };
}

/// Count of drives served by the pool (nested, single-task and width-1
/// drives, and drives started while another thread's drive holds the
/// pool, run inline and do not count).
static PARALLEL_DRIVES: AtomicU64 = AtomicU64::new(0);

/// True on a pool worker, and on any thread while it runs a drive's
/// tasks; nested `par_*` calls observe this and fall back to a sequential
/// drive.
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

/// Total number of drives the pool has served in this process.
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
// The executor: one process-wide pool of parked workers.
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

/// The published job: every participant (the driving thread and each
/// worker that joined) calls it once and returns when no batch is left.
type Work<'a> = dyn Fn() + Sync + 'a;

/// Shared state of the pool, behind [`POOL`]'s one mutex.
struct PoolState {
    /// The job of the drive in progress; `None` between drives and once
    /// the driver has withdrawn it.
    job: Option<&'static Work<'static>>,
    /// Bumped by every publish, so a worker joins each job at most once.
    epoch: u64,
    /// Workers the current job asks for, and how many have joined it.
    wanted: usize,
    joined: usize,
    /// Workers inside the current job right now.
    active: usize,
    /// Worker threads started so far (they never exit).
    spawned: usize,
    /// The driver is parked until `active` reaches zero.
    driver_waiting: bool,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Parked workers wait here for a job.
    wake: Condvar,
    /// The driver waits here for the workers that joined to leave.
    done: Condvar,
    /// Held by the one thread whose drive the pool serves; a drive from
    /// any other thread meanwhile runs inline.
    driving: AtomicBool,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        job: None,
        epoch: 0,
        wanted: 0,
        joined: 0,
        active: 0,
        spawned: 0,
        driver_waiting: false,
    }),
    wake: Condvar::new(),
    done: Condvar::new(),
    driving: AtomicBool::new(false),
};

/// Body of every worker thread: park, join a job once, run it, repeat.
/// Workers live as long as the process and are never joined; a task's
/// panic is caught inside the job, so a worker itself never unwinds.
fn worker_main() {
    // Everything a worker runs is pool work: nested drives stay inline.
    IN_POOL.with(|c| c.set(true));
    let mut seen = 0u64;
    let mut st = lock_ignore_poison(&POOL.state);
    loop {
        match st.job {
            Some(work) if st.epoch != seen && st.joined < st.wanted => {
                seen = st.epoch;
                st.joined += 1;
                st.active += 1;
                drop(st);
                work();
                st = lock_ignore_poison(&POOL.state);
                st.active -= 1;
                if st.active == 0 && st.driver_waiting {
                    POOL.done.notify_one();
                }
            }
            _ => st = POOL.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

/// Exclusive use of the pool by the current drive; dropping it lets the
/// next drive in.
struct Claim(());

impl Claim {
    /// `None` while another thread's drive holds the pool. Acquire pairs
    /// with the Release in `drop`, so this drive sees the previous one
    /// finished.
    fn take() -> Option<Claim> {
        POOL.driving
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| Claim(()))
    }

    /// Make `work` visible to `helpers` workers (starting any that do
    /// not exist yet) and wake them.
    fn publish<'a>(self, work: &'a Work<'a>, helpers: usize) -> Published<'a> {
        // SAFETY: the `'static` reference is stored only in
        // `PoolState::job` and in the workers that joined it. The returned
        // `Published` borrows `work`, and its drop clears `job` and then
        // waits until every worker that joined has returned from it, so no
        // use of the reference outlives the borrow.
        let job = unsafe { std::mem::transmute::<&'a Work<'a>, &'static Work<'static>>(work) };
        let mut st = lock_ignore_poison(&POOL.state);
        while st.spawned < helpers {
            let started = std::thread::Builder::new()
                .name("rayon-worker".into())
                .spawn(worker_main);
            if started.is_err() {
                // Run with the workers there are; the driver claims every
                // batch no worker takes.
                break;
            }
            st.spawned += 1;
        }
        st.job = Some(job);
        st.epoch += 1;
        st.wanted = helpers;
        st.joined = 0;
        drop(st);
        for _ in 0..helpers {
            POOL.wake.notify_one();
        }
        Published {
            _claim: self,
            _work: PhantomData,
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        POOL.driving.store(false, Ordering::Release);
    }
}

/// A job visible to the workers. Dropping it withdraws the job and waits
/// for the workers inside it; the claim is released after that.
struct Published<'a> {
    _claim: Claim,
    _work: PhantomData<&'a Work<'a>>,
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let mut st = lock_ignore_poison(&POOL.state);
        st.job = None;
        while st.active > 0 {
            st.driver_waiting = true;
            st = POOL.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.driver_waiting = false;
    }
}

/// One task's input, then its result. The cursor of [`Job`] hands each
/// index to exactly one participant, which alone touches the slot until
/// the drive is over.
struct Slot<T, R> {
    part: UnsafeCell<Option<T>>,
    out: UnsafeCell<Option<R>>,
}

// SAFETY: a slot is filled by the driver before its job is published,
// then run by the one participant that claimed its index, then read by
// the driver after every participant has left; the pool mutex orders the
// three. `T` and `R` cross threads, hence `Send`.
unsafe impl<T: Send, R: Send> Sync for Slot<T, R> {}

/// One drive's work: the slots, the claim cursor and what the
/// participants report back.
struct Job<'a, T, R, F> {
    slots: &'a [Slot<T, R>],
    cursor: AtomicUsize,
    grain: usize,
    run: &'a F,
    busy_ns: AtomicU64,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, R, F: Fn(T) -> R> Job<'_, T, R, F> {
    /// Claim batches of `grain` consecutive tasks until none is left. A
    /// panicking task abandons the unclaimed rest and is kept for the
    /// driver to resume.
    fn participate(&self) {
        let t0 = Instant::now();
        let n = self.slots.len();
        let ran = catch_unwind(AssertUnwindSafe(|| loop {
            // Relaxed: the cursor only hands out indices. The slots' data
            // is ordered by the pool mutex (publish, join, leave).
            let start = self.cursor.fetch_add(self.grain, Ordering::Relaxed);
            if start >= n {
                break;
            }
            for slot in &self.slots[start..(start + self.grain).min(n)] {
                // SAFETY: `start` came from the cursor, so this
                // participant alone holds the batch (see `Slot`).
                unsafe {
                    let part = (*slot.part.get()).take().expect("each task runs once");
                    *slot.out.get() = Some((self.run)(part));
                }
            }
        }));
        if let Err(p) = ran {
            self.cursor.fetch_max(n, Ordering::Relaxed);
            lock_ignore_poison(&self.panic).get_or_insert(p);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }
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
    let claim = if n_tasks <= 1 || width <= 1 {
        None
    } else {
        Claim::take()
    };

    let Some(claim) = claim else {
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
    };

    // --- pool drive: the caller and up to `width - 1` parked workers
    // claim batches of consecutive tasks from one cursor.
    PARALLEL_DRIVES.fetch_add(1, Ordering::Relaxed);
    let slots: Vec<Slot<T, R>> = split_parts(it, &ranges)
        .into_iter()
        .map(|p| Slot {
            part: UnsafeCell::new(Some(p)),
            out: UnsafeCell::new(None),
        })
        .collect();
    let participants = width.min(n_tasks);
    let job = Job {
        slots: &slots,
        cursor: AtomicUsize::new(0),
        grain: (n_tasks / (4 * participants)).max(1),
        run: &run,
        busy_ns: AtomicU64::new(0),
        panic: Mutex::new(None),
    };
    let work = || job.participate();
    let published = claim.publish(&work, participants - 1);
    {
        let _g = PoolGuard::enter();
        work();
    }
    drop(published);

    let ns = job.busy_ns.load(Ordering::Relaxed);
    DRIVE_BUSY_NS.with(|c| c.set(c.get() + ns));
    if let Some(p) = lock_ignore_poison(&job.panic).take() {
        resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|s| s.out.into_inner().expect("every task stored a result"))
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
