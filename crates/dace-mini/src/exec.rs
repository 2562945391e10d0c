//! The two execution backends.
//!
//! * [`run_naive`] — the OpenACC-style baseline: **one pass (kernel
//!   launch) per statement**, re-resolving every neighbor index lookup at
//!   every (point, level) evaluation, re-reading every operand from
//!   memory.
//! * [`compile`] + [`CompiledSdfg::run`] — the DaCe-style backend: the
//!   transformed SDFG is lowered to register bytecode per state; neighbor
//!   indices are resolved **once per point** (hoisted out of the level
//!   loop), repeated loads collapse into registers, pointwise
//!   reads-of-written values are forwarded without touching memory, and
//!   fused states stream each point's data once.
//!
//! Both backends produce bitwise-identical results on the same inputs —
//! the semantic-equivalence property the paper's separation of concerns
//! rests on (tested here and by proptest in `tests/`).

use crate::analysis::{AnalysisReport, Certification};
use crate::ast::{BinOp, Expr, FieldAccess, Intrinsic, LevelIndex, PointIndex, Program};
use crate::sdfg::Sdfg;
use rayon::prelude::*;
use std::collections::HashMap;

/// Topology tables: named entity domains and named neighbor relations.
#[derive(Debug, Clone, Default)]
pub struct TopologyContext {
    pub(crate) domains: HashMap<String, usize>,
    pub(crate) relations: HashMap<String, Relation>,
}

#[derive(Debug, Clone)]
pub struct Relation {
    pub arity: usize,
    /// `table[entity * arity + slot]` = neighbor id.
    pub table: Vec<u32>,
}

impl TopologyContext {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_domain(&mut self, name: impl Into<String>, size: usize) {
        self.domains.insert(name.into(), size);
    }

    pub fn add_relation(&mut self, name: impl Into<String>, arity: usize, table: Vec<u32>) {
        assert_eq!(table.len() % arity, 0);
        self.relations.insert(name.into(), Relation { arity, table });
    }

    pub fn domain_size(&self, name: &str) -> usize {
        *self
            .domains
            .get(name)
            .unwrap_or_else(|| panic!("unknown domain '{name}'"))
    }

    fn relation(&self, name: &str) -> &Relation {
        self.relations
            .get(name)
            .unwrap_or_else(|| panic!("unknown relation '{name}'"))
    }

    #[inline]
    fn lookup(&self, name: &str, entity: usize, slot: usize) -> usize {
        let r = self.relation(name);
        debug_assert!(slot < r.arity, "slot {slot} out of range for '{name}'");
        r.table[entity * r.arity + slot] as usize
    }
}

/// A named field buffer: `nlev == 1` encodes a 2-D field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldBuf {
    pub data: Vec<f64>,
    pub n: usize,
    pub nlev: usize,
}

impl FieldBuf {
    pub fn zeros(n: usize, nlev: usize) -> FieldBuf {
        FieldBuf {
            data: vec![0.0; n * nlev],
            n,
            nlev,
        }
    }

    #[inline]
    fn idx(&self, e: usize, k: usize) -> usize {
        debug_assert!(e < self.n && k < self.nlev);
        e * self.nlev + k
    }
}

/// All field data of one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataContext {
    pub fields: HashMap<String, FieldBuf>,
    /// Vertical extent of 3-D fields.
    pub nlev: usize,
}

impl DataContext {
    pub fn new(nlev: usize) -> DataContext {
        DataContext {
            fields: HashMap::new(),
            nlev,
        }
    }

    pub fn add(&mut self, name: impl Into<String>, buf: FieldBuf) {
        self.fields.insert(name.into(), buf);
    }

    pub fn field(&self, name: &str) -> &FieldBuf {
        self.fields
            .get(name)
            .unwrap_or_else(|| panic!("unknown field '{name}'"))
    }

    fn field_mut(&mut self, name: &str) -> &mut FieldBuf {
        self.fields
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown field '{name}'"))
    }

    /// Resolve a level index against the clamped column.
    #[inline]
    fn level(&self, li: LevelIndex, k: usize, nlev: usize) -> usize {
        match li {
            LevelIndex::Surface => 0,
            // Clamp so 3-D statements can legally read 2-D fields.
            LevelIndex::K => k.min(nlev - 1),
            LevelIndex::KOffset(o) => (k as i64 + o as i64).clamp(0, nlev as i64 - 1) as usize,
            LevelIndex::Fixed(f) => f.min(nlev - 1),
        }
    }
}

/// Execution counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Map (kernel) launches.
    pub map_launches: u64,
    /// Integer neighbor-index lookups performed.
    pub index_lookups: u64,
    /// Field element loads from memory.
    pub field_reads: u64,
    /// Field element stores to memory.
    pub field_stores: u64,
    /// Dispatch decisions made by the host: one per naive statement pass,
    /// one per compiled sequential state, one per parallel task of a
    /// certified state — and exactly **one per window** when a recorded
    /// [`crate::graph::ExecGraph`] replays (plus one per node the
    /// analysis left unfrozen). This is the CPU analog of the paper's
    /// §5.1 kernel-launch count that CUDA graphs collapse.
    pub dispatched_tasks: u64,
}

// ------------------------------------------------------------------
// Naive (OpenACC-style) interpreter
// ------------------------------------------------------------------

/// Run the *source program* directly: one map launch per statement,
/// full re-resolution everywhere.
pub fn run_naive(prog: &Program, topo: &TopologyContext, data: &mut DataContext) -> ExecStats {
    let mut stats = ExecStats::default();
    for kernel in &prog.kernels {
        let n = topo.domain_size(&kernel.domain);
        for st in &kernel.statements {
            stats.map_launches += 1;
            stats.dispatched_tasks += 1;
            let levels = if st.expr.uses_levels() || st.target.level != LevelIndex::Surface {
                data.nlev
            } else {
                1
            };
            for e in 0..n {
                for k in 0..levels {
                    let v = eval_naive(&st.expr, e, k, topo, data, &mut stats);
                    let tgt_k = data.level(st.target.level, k, levels.max(1));
                    let fb = data.field_mut(&st.target.field);
                    let idx = fb.idx(e, tgt_k.min(fb.nlev - 1));
                    fb.data[idx] = v;
                    stats.field_stores += 1;
                }
            }
        }
    }
    stats
}

fn eval_naive(
    expr: &Expr,
    e: usize,
    k: usize,
    topo: &TopologyContext,
    data: &DataContext,
    stats: &mut ExecStats,
) -> f64 {
    match expr {
        Expr::Num(v) => *v,
        Expr::Neg(x) => -eval_naive(x, e, k, topo, data, stats),
        // Both backends funnel through `Intrinsic::apply` so naive and
        // compiled execution stay bitwise-identical.
        Expr::Call(intr, x, _) => intr.apply(eval_naive(x, e, k, topo, data, stats)),
        Expr::Bin(op, a, b) => {
            let x = eval_naive(a, e, k, topo, data, stats);
            let y = eval_naive(b, e, k, topo, data, stats);
            match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
            }
        }
        Expr::Access(a) => {
            let point = match &a.point {
                PointIndex::Own => e,
                PointIndex::Lookup { relation, slot } => {
                    stats.index_lookups += 1;
                    topo.lookup(relation, e, *slot)
                }
            };
            let fb = data.field(&a.field);
            let kk = data.level(a.level, k, fb.nlev);
            stats.field_reads += 1;
            fb.data[fb.idx(point, kk)]
        }
    }
}

// ------------------------------------------------------------------
// Compiled (DaCe-style) executor
// ------------------------------------------------------------------

/// Register-bytecode of one tasklet.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    PushConst(f64),
    /// Push a preloaded value register.
    PushReg(u16),
    Neg,
    Add,
    Sub,
    Mul,
    Div,
    Call(Intrinsic),
}

/// A preloaded value: where the point index comes from and which level.
#[derive(Debug, Clone, PartialEq)]
enum LoadSrc {
    /// The loop point.
    Own,
    /// A resolved index register.
    IdxReg(u16),
    /// Forwarded from an earlier tasklet's result register in the same
    /// state (no memory traffic).
    Forward(u16),
}

#[derive(Debug, Clone, PartialEq)]
struct LoadSlot {
    field: String,
    src: LoadSrc,
    level: LevelIndex,
    /// Does this load depend on `k` (inside the level loop) or can it be
    /// hoisted out?
    level_dependent: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct CompiledTasklet {
    ops: Vec<Op>,
    write_field: String,
    write_level: LevelIndex,
    /// Result register holding the computed value (for forwarding).
    result_reg: u16,
    /// Store the result to memory. `false` only for hoisted transients
    /// whose every consumer is served by forwarding
    /// ([`CompiledSdfg::elide_transient_stores`]): the value lives in the
    /// result register alone and the field needs no buffer at all.
    store: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledState {
    pub(crate) domain: String,
    over_levels: bool,
    /// Unique (relation, slot) pairs resolved once per point.
    idx_lookups: Vec<(String, usize)>,
    loads: Vec<LoadSlot>,
    tasklets: Vec<CompiledTasklet>,
    /// Run entity-parallel. Set ONLY by [`compile_certified`] for states
    /// the analysis certified [`Certification::ParallelSafe`]; `compile`
    /// always produces the sequential schedule.
    pub(crate) parallel: bool,
}

/// A compiled SDFG, ready to run repeatedly.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSdfg {
    pub name: String,
    pub(crate) states: Vec<CompiledState>,
}

/// Compile a (transformed) SDFG: hoist and deduplicate index lookups,
/// collapse repeated loads, forward pointwise reads of freshly written
/// values.
pub fn compile(sdfg: &Sdfg) -> CompiledSdfg {
    let states = sdfg
        .states
        .iter()
        .map(|st| {
            let mut idx_lookups: Vec<(String, usize)> = Vec::new();
            let mut loads: Vec<LoadSlot> = Vec::new();
            let mut tasklets = Vec::new();
            // (field, level) -> result register of a previous write.
            let mut written: HashMap<(String, LevelIndex), u16> = HashMap::new();
            // Value registers: loads first, then one result per tasklet.
            for t in &st.map.tasklets {
                let mut ops = Vec::new();
                compile_expr(
                    &t.code,
                    &mut ops,
                    &mut idx_lookups,
                    &mut loads,
                    &written,
                );
                let result_reg = (loads.len() + st.map.tasklets.len()) as u16; // placeholder, fixed below
                tasklets.push(CompiledTasklet {
                    ops,
                    write_field: t.write.field.clone(),
                    write_level: t.write.level,
                    result_reg,
                    store: true,
                });
                written.insert(
                    (t.write.field.clone(), t.write.level),
                    (tasklets.len() - 1) as u16, // tasklet ordinal; fixed below
                );
            }
            // Fix register numbering: loads occupy 0..L, tasklet results
            // L..L+T. Forward references recorded tasklet ordinals; shift.
            let l = loads.len() as u16;
            for (i, t) in tasklets.iter_mut().enumerate() {
                t.result_reg = l + i as u16;
            }
            for load in &mut loads {
                if let LoadSrc::Forward(ord) = load.src {
                    load.src = LoadSrc::Forward(l + ord);
                }
            }
            for t in &mut tasklets {
                for op in &mut t.ops {
                    if let Op::PushReg(r) = op {
                        if *r >= 0x8000 {
                            // Forwarded tasklet ordinal (tagged).
                            *r = l + (*r - 0x8000);
                        }
                    }
                }
            }
            CompiledState {
                domain: st.map.domain.clone(),
                over_levels: st.map.over_levels,
                idx_lookups,
                loads,
                tasklets,
                parallel: false,
            }
        })
        .collect();
    CompiledSdfg {
        name: sdfg.name.clone(),
        states,
    }
}

fn compile_expr(
    expr: &Expr,
    ops: &mut Vec<Op>,
    idx_lookups: &mut Vec<(String, usize)>,
    loads: &mut Vec<LoadSlot>,
    written: &HashMap<(String, LevelIndex), u16>,
) {
    match expr {
        Expr::Num(v) => ops.push(Op::PushConst(*v)),
        Expr::Neg(x) => {
            compile_expr(x, ops, idx_lookups, loads, written);
            ops.push(Op::Neg);
        }
        Expr::Bin(op, a, b) => {
            compile_expr(a, ops, idx_lookups, loads, written);
            compile_expr(b, ops, idx_lookups, loads, written);
            ops.push(match op {
                BinOp::Add => Op::Add,
                BinOp::Sub => Op::Sub,
                BinOp::Mul => Op::Mul,
                BinOp::Div => Op::Div,
            });
        }
        Expr::Access(a) => {
            ops.push(Op::PushReg(access_register(a, idx_lookups, loads, written)));
        }
        Expr::Call(intr, x, _) => {
            compile_expr(x, ops, idx_lookups, loads, written);
            ops.push(Op::Call(*intr));
        }
    }
}

fn access_register(
    a: &FieldAccess,
    idx_lookups: &mut Vec<(String, usize)>,
    loads: &mut Vec<LoadSlot>,
    written: &HashMap<(String, LevelIndex), u16>,
) -> u16 {
    // Forwarding: pointwise read of a value written earlier in the state.
    if a.point == PointIndex::Own {
        if let Some(&ord) = written.get(&(a.field.clone(), a.level)) {
            // Tag with 0x8000: resolved to a result register in `compile`.
            return 0x8000 + ord;
        }
    }
    let src = match &a.point {
        PointIndex::Own => LoadSrc::Own,
        PointIndex::Lookup { relation, slot } => {
            let pos = idx_lookups
                .iter()
                .position(|(r, s)| r == relation && *s == *slot)
                .unwrap_or_else(|| {
                    idx_lookups.push((relation.clone(), *slot));
                    idx_lookups.len() - 1
                });
            LoadSrc::IdxReg(pos as u16)
        }
    };
    let level_dependent = matches!(a.level, LevelIndex::K | LevelIndex::KOffset(_));
    let slot = LoadSlot {
        field: a.field.clone(),
        src,
        level: a.level,
        level_dependent,
    };
    if let Some(pos) = loads.iter().position(|l| *l == slot) {
        pos as u16
    } else {
        loads.push(slot);
        (loads.len() - 1) as u16
    }
}

/// Compile with the analysis report in hand: states the verifier
/// certified [`Certification::ParallelSafe`] get the entity-parallel
/// execution schedule (disjoint per-task buffer splits over the
/// deterministic `rayon::task_ranges` boundaries); everything else —
/// `Reduction`, `Sequential`, or merely parallel-*ineligible* (a memory
/// load of a field the same state writes, which the split-buffer scheme
/// cannot serve) — falls back to the sequential schedule. The report must
/// be index-aligned with `sdfg.states` (i.e. produced by
/// `analysis::verify_sdfg` on this exact graph).
pub fn compile_certified(sdfg: &Sdfg, report: &AnalysisReport) -> CompiledSdfg {
    assert_eq!(
        report.states.len(),
        sdfg.states.len(),
        "analysis report is not aligned with this SDFG"
    );
    let mut compiled = compile(sdfg);
    for (i, cs) in compiled.states.iter_mut().enumerate() {
        cs.parallel = report.cert(i) == Certification::ParallelSafe && parallel_eligible(cs);
    }
    compiled
}

/// The split-buffer parallel runner hands each task exclusive slices of
/// the *written* fields and a shared view of everything else; a memory
/// load of a written field (e.g. the self-read of `x(p,k) = x(p,k) * 2`
/// at a different level, which forwarding cannot serve) would need the
/// split-out buffer — run those states sequentially.
fn parallel_eligible(cs: &CompiledState) -> bool {
    let written: Vec<&str> = cs.tasklets.iter().map(|t| t.write_field.as_str()).collect();
    cs.loads.iter().all(|l| !written.contains(&l.field.as_str()))
}

impl CompiledSdfg {
    /// Execute over the given data, counting actual memory traffic.
    pub fn run(&self, topo: &TopologyContext, data: &mut DataContext) -> ExecStats {
        let mut stats = ExecStats::default();
        for st in &self.states {
            stats.map_launches += 1;
            if st.parallel {
                run_state_parallel(st, topo, data, &mut stats);
            } else {
                run_state(st, topo, data, &mut stats);
            }
        }
        stats
    }

    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Demote the given fields (the transients introduced by
    /// `transforms::hoist_gathers`) to register-only values: their
    /// tasklets still execute — forwarding serves every consumer — but
    /// nothing is stored, so the fields need no [`DataContext`] buffer
    /// and the run's memory traffic matches the un-hoisted graph's.
    ///
    /// Panics if any state still *loads* one of these fields from memory
    /// (a consumer forwarding could not serve), which would change
    /// results — the hoist transform guarantees this never holds.
    pub fn elide_transient_stores(&mut self, transients: &[String]) {
        for st in &mut self.states {
            for l in &st.loads {
                assert!(
                    !transients.contains(&l.field),
                    "transient '{}' is loaded from memory; its store cannot be elided",
                    l.field
                );
            }
            for t in &mut st.tasklets {
                if transients.contains(&t.write_field) {
                    t.store = false;
                }
            }
        }
    }

    /// How many states carry the entity-parallel schedule.
    pub fn n_parallel_states(&self) -> usize {
        self.states.iter().filter(|s| s.parallel).count()
    }
}

/// Reusable per-task execution scratch of one state: the value
/// registers, the resolved neighbor indices, the expression stack, and a
/// per-task counter slot. Sized once — at compile time for the eager
/// runners, at **record** time for [`crate::graph::ExecGraph`] — and
/// reused across drives, so a replayed window allocates nothing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StateScratch {
    regs: Vec<f64>,
    idx: Vec<usize>,
    stack: Vec<f64>,
    /// Written by the frozen parallel runner's task, summed in
    /// task-index order by the caller (width-invariant counters).
    stats: ExecStats,
}

impl StateScratch {
    pub(crate) fn for_state(st: &CompiledState) -> StateScratch {
        StateScratch {
            regs: vec![0.0; st.loads.len() + st.tasklets.len()],
            idx: vec![0; st.idx_lookups.len()],
            stack: Vec::with_capacity(16),
            stats: ExecStats::default(),
        }
    }
}

/// Entity-parallel execution of one certified state.
///
/// The eager wrapper: derives the task boundaries from the current
/// domain size, counts one dispatch decision per task, allocates fresh
/// per-task scratch, and delegates to the frozen runner.
fn run_state_parallel(
    st: &CompiledState,
    topo: &TopologyContext,
    data: &mut DataContext,
    stats: &mut ExecStats,
) {
    let n = topo.domain_size(&st.domain);
    let ranges = rayon::task_ranges(n);
    stats.dispatched_tasks += ranges.len() as u64;
    let mut scratch: Vec<StateScratch> =
        ranges.iter().map(|_| StateScratch::for_state(st)).collect();
    run_state_parallel_frozen(st, topo, data, stats, &ranges, &mut scratch);
}

/// One task's frozen unit of work: its entity range, its disjoint slices
/// of every written buffer, and its private scratch.
type TaskWork<'a> = ((usize, usize), Vec<&'a mut [f64]>, &'a mut StateScratch);

/// Entity-parallel execution over **given** task boundaries and scratch.
///
/// Written fields are taken out of the [`DataContext`] and pre-split at
/// the deterministic task boundaries (`rayon::task_ranges`, a function of
/// the entity count only), so each task owns disjoint slices — no
/// locking, no unsafe. Reads go against the remaining shared context
/// (certification + eligibility guarantee no load touches a written
/// field). Per-task [`ExecStats`] are summed in task index order, so
/// counters are bitwise invariant to thread count, like the results.
///
/// Counts **no** dispatch decisions: a recorded graph froze the
/// boundaries at record time, so a replay makes none; the eager wrapper
/// accounts for its own.
pub(crate) fn run_state_parallel_frozen(
    st: &CompiledState,
    topo: &TopologyContext,
    data: &mut DataContext,
    stats: &mut ExecStats,
    ranges: &[(usize, usize)],
    scratch: &mut [StateScratch],
) {
    assert_eq!(ranges.len(), scratch.len(), "one scratch per task");
    let nlev = if st.over_levels { data.nlev } else { 1 };

    // Take the written buffers out of the context (store-elided
    // transients have no buffer and never reach memory).
    let mut written: Vec<String> = st
        .tasklets
        .iter()
        .filter(|t| t.store)
        .map(|t| t.write_field.clone())
        .collect();
    written.sort();
    written.dedup();
    let mut bufs: Vec<(String, FieldBuf)> = written
        .iter()
        .map(|f| {
            let buf = data
                .fields
                .remove(f)
                .unwrap_or_else(|| panic!("unknown field '{f}'"));
            (f.clone(), buf)
        })
        .collect();
    // Slot order of written fields for the task body (bufs is built from
    // `written` in order, so indices agree).
    let strides: Vec<usize> = bufs.iter().map(|(_, b)| b.nlev).collect();
    let field_slot: HashMap<&str, usize> = written
        .iter()
        .enumerate()
        .map(|(i, f)| (f.as_str(), i))
        .collect();

    // Pre-split every written buffer at the fixed entity boundaries.
    let mut work: Vec<TaskWork<'_>> = ranges
        .iter()
        .zip(scratch.iter_mut())
        .map(|(&r, sc)| (r, Vec::new(), sc))
        .collect();
    for (fi, (_, buf)) in bufs.iter_mut().enumerate() {
        let stride = strides[fi];
        let mut rest: &mut [f64] = &mut buf.data;
        for ((s, e), slices, _) in work.iter_mut() {
            let (head, tail) = rest.split_at_mut((*e - *s) * stride);
            rest = tail;
            slices.push(head);
        }
    }

    let shared: &DataContext = data;
    work.par_iter_mut().for_each(|item| {
        let ((start, end), slices, sc) = item;
        let (start, end) = (*start, *end);
        let mut local = ExecStats::default();
        let regs = &mut sc.regs;
        let idx = &mut sc.idx;
        let stack = &mut sc.stack;
        for e in start..end {
            for (i, (rel, slot)) in st.idx_lookups.iter().enumerate() {
                idx[i] = topo.lookup(rel, e, *slot);
                local.index_lookups += 1;
            }
            for (i, l) in st.loads.iter().enumerate() {
                if !l.level_dependent {
                    regs[i] = load(l, e, 0, idx, shared, &mut local);
                }
            }
            for k in 0..nlev {
                for (i, l) in st.loads.iter().enumerate() {
                    if l.level_dependent {
                        regs[i] = load(l, e, k, idx, shared, &mut local);
                    }
                }
                for tl in &st.tasklets {
                    let v = eval_ops(&tl.ops, regs, stack);
                    regs[tl.result_reg as usize] = v;
                    if !tl.store {
                        continue;
                    }
                    let fi = field_slot[tl.write_field.as_str()];
                    let stride = strides[fi];
                    let kk = match tl.write_level {
                        LevelIndex::Surface => 0,
                        LevelIndex::K => k.min(stride - 1),
                        LevelIndex::KOffset(o) => {
                            (k as i64 + o as i64).clamp(0, stride as i64 - 1) as usize
                        }
                        LevelIndex::Fixed(f) => f.min(stride - 1),
                    };
                    slices[fi][(e - start) * stride + kk] = v;
                    local.field_stores += 1;
                }
            }
        }
        sc.stats = local;
    });

    // Release the split borrows before handing the buffers back.
    drop(work);

    // Task-order summation: width-invariant counters.
    for sc in scratch.iter() {
        stats.index_lookups += sc.stats.index_lookups;
        stats.field_reads += sc.stats.field_reads;
        stats.field_stores += sc.stats.field_stores;
    }

    // Hand the written buffers back.
    for (f, buf) in bufs {
        data.fields.insert(f, buf);
    }
}

/// Sequential execution of one state: the eager wrapper counts its one
/// dispatch decision and allocates fresh scratch.
fn run_state(st: &CompiledState, topo: &TopologyContext, data: &mut DataContext, stats: &mut ExecStats) {
    stats.dispatched_tasks += 1;
    let mut scratch = StateScratch::for_state(st);
    run_state_with(st, topo, data, stats, &mut scratch);
}

/// Sequential execution of one state over **given** scratch. Counts no
/// dispatch decisions (see [`run_state_parallel_frozen`]).
pub(crate) fn run_state_with(
    st: &CompiledState,
    topo: &TopologyContext,
    data: &mut DataContext,
    stats: &mut ExecStats,
    scratch: &mut StateScratch,
) {
    let n = topo.domain_size(&st.domain);
    let nlev = if st.over_levels { data.nlev } else { 1 };
    // Move the scratch vectors out (and back below): zero allocation,
    // and the body below is identical to the historical eager runner —
    // replay correctness is by construction, not by a parallel code path.
    let mut regs = std::mem::take(&mut scratch.regs);
    let mut idx = std::mem::take(&mut scratch.idx);
    let mut stack = std::mem::take(&mut scratch.stack);

    let entity_body = |e: usize,
                       regs: &mut [f64],
                       idx: &mut [usize],
                       stack: &mut Vec<f64>,
                       data: &mut DataContext,
                       stats: &mut ExecStats| {
        // Resolve the point's neighbor indices ONCE (hoisted out of the
        // level loop): this is the 8x index-lookup saving.
        for (i, (rel, slot)) in st.idx_lookups.iter().enumerate() {
            idx[i] = topo.lookup(rel, e, *slot);
            stats.index_lookups += 1;
        }
        // Hoist level-independent loads.
        for (i, l) in st.loads.iter().enumerate() {
            if !l.level_dependent {
                regs[i] = load(l, e, 0, idx, data, stats);
            }
        }
        for k in 0..nlev {
            for (i, l) in st.loads.iter().enumerate() {
                if l.level_dependent {
                    regs[i] = load(l, e, k, idx, data, stats);
                }
            }
            for t in &st.tasklets {
                let v = eval_ops(&t.ops, regs, stack);
                regs[t.result_reg as usize] = v;
                if !t.store {
                    continue;
                }
                let fb = data.field_mut(&t.write_field);
                let kk = match t.write_level {
                    LevelIndex::Surface => 0,
                    LevelIndex::K => k.min(fb.nlev - 1),
                    LevelIndex::KOffset(o) => {
                        (k as i64 + o as i64).clamp(0, fb.nlev as i64 - 1) as usize
                    }
                    LevelIndex::Fixed(f) => f.min(fb.nlev - 1),
                };
                let pos = fb.idx(e, kk);
                fb.data[pos] = v;
                stats.field_stores += 1;
            }
        }
    };

    // Entity-outer, level-inner (column-contiguous streaming; the GPU
    // layout ICON uses), which is what the per-point hoisting needs.
    for e in 0..n {
        entity_body(e, &mut regs, &mut idx, &mut stack, data, stats);
    }

    scratch.regs = regs;
    scratch.idx = idx;
    scratch.stack = stack;
}

#[inline]
fn load(
    l: &LoadSlot,
    e: usize,
    k: usize,
    idx: &[usize],
    data: &DataContext,
    stats: &mut ExecStats,
) -> f64 {
    let point = match l.src {
        LoadSrc::Own => e,
        LoadSrc::IdxReg(r) => idx[r as usize],
        LoadSrc::Forward(_) => unreachable!("forwarded loads never hit memory"),
    };
    let fb = data.field(&l.field);
    let kk = data.level(l.level, k, fb.nlev);
    stats.field_reads += 1;
    fb.data[fb.idx(point, kk)]
}

#[inline]
fn eval_ops(ops: &[Op], regs: &[f64], stack: &mut Vec<f64>) -> f64 {
    stack.clear();
    for op in ops {
        match op {
            Op::PushConst(v) => stack.push(*v),
            Op::PushReg(r) => stack.push(regs[*r as usize]),
            Op::Neg => {
                let a = stack.pop().unwrap();
                stack.push(-a);
            }
            Op::Add => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(a + b);
            }
            Op::Sub => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(a - b);
            }
            Op::Mul => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(a * b);
            }
            Op::Div => {
                let b = stack.pop().unwrap();
                let a = stack.pop().unwrap();
                stack.push(a / b);
            }
            Op::Call(intr) => {
                let a = stack.pop().unwrap();
                stack.push(intr.apply(a));
            }
        }
    }
    debug_assert_eq!(stack.len(), 1);
    stack.pop().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::transforms::gh200_pipeline;

    /// A ring "mesh": n cells, relation edge(c, 0..2) = {c-1, c, c+1}.
    fn ring_topology(n: usize) -> TopologyContext {
        let mut topo = TopologyContext::new();
        topo.add_domain("cells", n);
        let mut table = Vec::with_capacity(n * 3);
        for c in 0..n {
            table.push(((c + n - 1) % n) as u32);
            table.push(c as u32);
            table.push(((c + 1) % n) as u32);
        }
        topo.add_relation("edge", 3, table);
        topo
    }

    fn data(n: usize, nlev: usize) -> DataContext {
        let mut d = DataContext::new(nlev);
        for (name, scale) in [("kin", 1.0), ("f1", 2.0), ("f2", 3.0)] {
            let mut f = FieldBuf::zeros(n, nlev);
            for e in 0..n {
                for k in 0..nlev {
                    f.data[e * nlev + k] = scale * (e as f64 + 0.1 * k as f64);
                }
            }
            d.add(name, f);
        }
        for name in ["w1", "w2", "w3"] {
            let mut f = FieldBuf::zeros(n, 1);
            for e in 0..n {
                f.data[e] = 0.5 + (e % 3) as f64;
            }
            d.add(name, f);
        }
        for name in ["ekin", "out", "out2", "tmp"] {
            d.add(name, FieldBuf::zeros(n, nlev));
        }
        d
    }

    const EKINH: &str = r#"
        kernel z_ekinh over cells
          ekin(p,k) = w1(p) * kin(edge(p,0), k)
                    + w2(p) * kin(edge(p,1), k)
                    + w3(p) * kin(edge(p,2), k);
          out(p,k)  = ekin(p,k) * w1(p) + f1(edge(p,0), k);
          out2(p,k) = f2(edge(p,2), k) - ekin(p,k);
        end
    "#;

    #[test]
    fn naive_and_compiled_agree_bitwise() {
        let prog = parse(EKINH).unwrap();
        let topo = ring_topology(17);
        let mut d1 = data(17, 4);
        let mut d2 = d1.clone();
        run_naive(&prog, &topo, &mut d1);
        let sdfg = Sdfg::from_program("ekinh", &prog);
        let (opt, _) = gh200_pipeline(&sdfg);
        compile(&opt).run(&topo, &mut d2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn intrinsics_agree_bitwise_between_backends() {
        let src = r#"
            kernel t over cells
              ekin(p,k) = sqrt(kin(edge(p,1),k) * kin(edge(p,1),k) + 1.0);
              out(p,k)  = exp(-ekin(p,k)) + tanh(w1(p)) * cos(f1(p,k) / (f2(p,k) + 1.0));
              out2(p,k) = log(1.0 + ekin(p,k)) + sin(w2(p));
            end
        "#;
        let prog = parse(src).unwrap();
        let topo = ring_topology(13);
        let mut d1 = data(13, 4);
        let mut d2 = d1.clone();
        run_naive(&prog, &topo, &mut d1);
        let sdfg = Sdfg::from_program("t", &prog);
        let (opt, _) = gh200_pipeline(&sdfg);
        compile(&opt).run(&topo, &mut d2);
        assert_eq!(d1, d2, "intrinsic evaluation must be bitwise-identical");
    }

    /// Repeated gathers of `kin` through edges 0 and 2 — the hoist
    /// pass materializes both into transients.
    const REPEATED: &str = r#"
        kernel a over cells
          ekin(p,k) = kin(edge(p,0),k) + kin(edge(p,2),k);
          out(p,k)  = kin(edge(p,0),k) * kin(edge(p,2),k) + f1(edge(p,0),k);
        end
    "#;

    #[test]
    fn elided_transients_are_bitwise_exact_and_add_no_traffic() {
        use crate::transforms::{fuse_maps, hoist_gathers, HoistOptions};
        let prog = parse(REPEATED).unwrap();
        let topo = ring_topology(23);
        let mut d1 = data(23, 4);
        let mut d2 = d1.clone();
        let mut d3 = d1.clone();
        run_naive(&prog, &topo, &mut d1);

        let fused = fuse_maps(&Sdfg::from_program("a", &prog));
        let plain_stats = compile(&fused).run(&topo, &mut d3);

        let (hoisted, report) = hoist_gathers(&fused, &HoistOptions::default());
        assert_eq!(report.transients.len(), 2);
        let mut compiled = compile(&hoisted);
        compiled.elide_transient_stores(&report.transient_names());
        let stats = compiled.run(&topo, &mut d2);

        // The transients never touch the DataContext, so full equality
        // with the naive run holds — no extra buffers, no extra stores.
        assert_eq!(d1, d2);
        assert_eq!(
            stats, plain_stats,
            "hoist + elision must not change measured traffic vs the \
             plain compiled run (gathers were already registers there)"
        );
    }

    #[test]
    #[should_panic(expected = "loaded from memory")]
    fn eliding_a_loaded_field_is_rejected() {
        let prog = parse(EKINH).unwrap();
        let fused = crate::transforms::fuse_maps(&Sdfg::from_program("e", &prog));
        let mut compiled = compile(&fused);
        compiled.elide_transient_stores(&["kin".to_string()]);
    }

    #[test]
    fn compiled_does_fewer_lookups_and_launches() {
        let prog = parse(EKINH).unwrap();
        let topo = ring_topology(64);
        let nlev = 8;
        let mut d1 = data(64, nlev);
        let mut d2 = d1.clone();
        let naive = run_naive(&prog, &topo, &mut d1);
        let sdfg = Sdfg::from_program("ekinh", &prog);
        let (opt, _) = gh200_pipeline(&sdfg);
        let compiled = compile(&opt);
        let fast = compiled.run(&topo, &mut d2);
        assert!(naive.map_launches > fast.map_launches);
        // Naive resolves 5 lookups per (point, level); compiled resolves
        // the 3 unique edge indices once per point.
        assert_eq!(naive.index_lookups, 64 * nlev as u64 * 5);
        assert_eq!(fast.index_lookups, 64 * 3);
        assert!(naive.field_reads > fast.field_reads, "load collapsing");
    }

    #[test]
    fn forwarding_skips_memory_for_pointwise_reuse() {
        let src = r#"
            kernel t over cells
              tmp(p,k) = f1(p,k) * 2;
              out(p,k) = tmp(p,k) + tmp(p,k);
            end
        "#;
        let prog = parse(src).unwrap();
        let topo = ring_topology(10);
        let mut d1 = data(10, 3);
        let mut d2 = d1.clone();
        run_naive(&prog, &topo, &mut d1);
        let (opt, _) = gh200_pipeline(&Sdfg::from_program("t", &prog));
        let stats = compile(&opt).run(&topo, &mut d2);
        assert_eq!(d1, d2);
        // Only f1 is loaded (once per point-level); tmp reads forwarded.
        assert_eq!(stats.field_reads, 10 * 3);
    }

    #[test]
    fn vertical_offsets_clamp_at_boundaries() {
        let src = "kernel t over cells out(p,k) = f1(p,k+1) - f1(p,k-1); end";
        let prog = parse(src).unwrap();
        let topo = ring_topology(4);
        let mut d1 = data(4, 3);
        let mut d2 = d1.clone();
        run_naive(&prog, &topo, &mut d1);
        let (opt, _) = gh200_pipeline(&Sdfg::from_program("t", &prog));
        compile(&opt).run(&topo, &mut d2);
        assert_eq!(d1, d2);
        // At k=0: f1(p,1) - f1(p,0) (clamped below).
        let f1 = d1.field("f1").clone();
        let out = d1.field("out");
        assert_eq!(out.data[1], f1.data[2] - f1.data[0]); // e=0,k=1 interior
        assert_eq!(out.data[0], f1.data[1] - f1.data[0]); // clamped
    }

    #[test]
    fn certified_parallel_run_matches_sequential_bitwise() {
        use crate::analysis::{self, AnalysisContext, FieldIo};
        let prog = parse(EKINH).unwrap();
        let topo = ring_topology(300); // enough entities to split tasks
        let mut d_seq = data(300, 5);
        let mut d_par = d_seq.clone();
        let (opt, _) = gh200_pipeline(&Sdfg::from_program("ekinh", &prog));

        let ctx = AnalysisContext::new()
            .domain("cells")
            .relation("edge", "cells", "cells", 3)
            .field("kin", "cells", true, FieldIo::Input)
            .field("f1", "cells", true, FieldIo::Input)
            .field("f2", "cells", true, FieldIo::Input)
            .field("w1", "cells", false, FieldIo::Input)
            .field("w2", "cells", false, FieldIo::Input)
            .field("w3", "cells", false, FieldIo::Input)
            .field("ekin", "cells", true, FieldIo::Output)
            .field("out", "cells", true, FieldIo::Output)
            .field("out2", "cells", true, FieldIo::Output);
        let report = analysis::verify_sdfg(&opt, &ctx);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.all_parallel_safe());

        let seq = compile(&opt);
        let par = compile_certified(&opt, &report);
        assert_eq!(seq.n_parallel_states(), 0);
        assert!(par.n_parallel_states() > 0, "certified states go parallel");

        let s1 = seq.run(&topo, &mut d_seq);
        let s2 = par.run(&topo, &mut d_par);
        assert_eq!(d_seq, d_par, "parallel schedule is bitwise identical");
        // Memory-traffic counters are summed in task order and therefore
        // width-invariant; only the dispatch count differs: the parallel
        // schedule dispatches one task per fixed range, the sequential
        // one a single task per state.
        assert_eq!(s1.map_launches, s2.map_launches);
        assert_eq!(s1.index_lookups, s2.index_lookups);
        assert_eq!(s1.field_reads, s2.field_reads);
        assert_eq!(s1.field_stores, s2.field_stores);
        assert_eq!(s1.dispatched_tasks, seq.n_states() as u64);
        assert_eq!(s2.dispatched_tasks, rayon::task_count(300) as u64);
    }

    #[test]
    fn uncertified_states_fall_back_to_sequential() {
        use crate::analysis::verify_sdfg;
        use crate::fixtures::verifier_fixtures;
        for f in verifier_fixtures() {
            let report = verify_sdfg(&f.sdfg, &f.ctx);
            let compiled = compile_certified(&f.sdfg, &report);
            for (i, v) in report.states.iter().enumerate() {
                if v.cert != crate::analysis::Certification::ParallelSafe {
                    assert!(
                        !compiled.states[i].parallel,
                        "fixture `{}` state {i} must not run parallel",
                        f.name
                    );
                }
            }
        }
    }

    #[test]
    fn self_read_state_is_parallel_ineligible_but_correct() {
        // `x(p,k) = x(p,k) * 2` is race-free (ParallelSafe) but the
        // split-buffer runner cannot serve the memory load of the split-
        // out field: eligibility forces the sequential path.
        use crate::analysis::{self, AnalysisContext, FieldIo};
        let src = "kernel t over cells f1(p,k) = f1(p,k) * 2; end";
        let prog = parse(src).unwrap();
        let sdfg = Sdfg::from_program("t", &prog);
        let ctx = AnalysisContext::new()
            .domain("cells")
            .field("f1", "cells", true, FieldIo::Output);
        // In-place update: suppress the read-before-write error by
        // declaring it input+output is not allowed (write-to-input), so
        // just certify the scope directly.
        let scopes = crate::memlet::sdfg_memlets(&sdfg);
        let mut diags = Vec::new();
        let verdict = analysis::certify_scope(&scopes[0], &mut diags);
        assert_eq!(verdict.cert, analysis::Certification::ParallelSafe);
        assert!(diags.is_empty());

        let report = analysis::verify_sdfg(&sdfg, &ctx);
        let compiled = compile_certified(&sdfg, &report);
        assert_eq!(compiled.n_parallel_states(), 0, "load of written field");

        let topo = ring_topology(40);
        let mut d1 = data(40, 3);
        let mut d2 = d1.clone();
        run_naive(&prog, &topo, &mut d1);
        compiled.run(&topo, &mut d2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn surface_loads_hoisted_out_of_level_loop() {
        let src = "kernel t over cells out(p,k) = w1(p) * f1(p,k); end";
        let prog = parse(src).unwrap();
        let topo = ring_topology(8);
        let nlev = 6;
        let mut d = data(8, nlev);
        let (opt, _) = gh200_pipeline(&Sdfg::from_program("t", &prog));
        let stats = compile(&opt).run(&topo, &mut d);
        // w1 read once per point, f1 once per (point, level).
        assert_eq!(stats.field_reads, 8 + 8 * nlev as u64);
        let mut d2 = data(8, nlev);
        let naive = run_naive(&prog, &topo, &mut d2);
        assert_eq!(naive.field_reads, 2 * 8 * nlev as u64);
    }
}
