//! Static dataflow verification over extracted memlets.
//!
//! This is the analysis layer that makes the transformation passes and
//! the parallel executor *provably* safe instead of safe-by-convention
//! (the paper's point about DaCe: the SDFG's explicit dataflow is what
//! lets metaprograms apply aggressive rewrites without a correctness
//! leap of faith). Four checks, all reasoning over the affine access
//! relations of [`crate::memlet`]:
//!
//! 1. **Race detection** ([`verify_sdfg`]): a map scope is certified
//!    [`Certification::ParallelSafe`] only when every write's point
//!    relation is the injective identity `p -> p` (iterations write
//!    disjoint elements) and no read of a scope-written field goes
//!    through a neighbor indirection (which would make the result
//!    depend on iteration order). Scatter-accumulations
//!    (`f(nbr(p)) = f(nbr(p)) + …`) are flagged separately as
//!    [`Certification::Reduction`]. Only certified scopes may run on
//!    the data-parallel executor path; everything else falls back to
//!    sequential execution (`exec::compile_certified`).
//! 2. **Fusion legality** ([`fusion_legality`]): flow, anti, and output
//!    dependences crossing a fusion boundary must be pointwise and
//!    level-aligned, otherwise the fused per-point schedule observes
//!    partially-updated values. `transforms::fuse_maps` refuses any
//!    fusion this check rejects.
//! 3. **Bounds checking**: every access lands inside its field's
//!    declared extent given the map ranges — domains match (directly or
//!    through the declared source/target domains of a neighbor
//!    relation), lookup slots stay below the relation arity, vertical
//!    halo offsets `k ± c` stay within the declared halo width, fixed
//!    levels stay below the declared vertical extent.
//! 4. **Liveness**: reads of never-written non-input fields
//!    (read-before-write), writes to declared inputs, dead writes
//!    (written, never read, not a declared output), unused inputs.
//!
//! Every diagnostic carries a [`Span`] from `loc.rs` end-to-end, so
//! `esm-lint` output is clickable `file:line:col`.

use crate::loc::Span;
use crate::memlet::{self, LevelRel, Memlet, PointRel, StateMemlets};
use crate::sdfg::{Sdfg, State};
use std::collections::{HashMap, HashSet};
use std::fmt;

// ------------------------------------------------------------------
// Diagnostics
// ------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Typed diagnostic codes. Errors fail `esm-lint`; warnings print only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// E0101: write through a non-injective point relation — two map
    /// iterations may store to the same element.
    RacyWrite,
    /// E0102: neighbor-indexed read of a field the same scope writes —
    /// the value observed depends on iteration order.
    RacyRead,
    /// W0103: scatter-accumulation — legal only with an ordered or
    /// atomic combine; certified `Reduction`, never `ParallelSafe`.
    ScatterReduction,
    /// E0201: flow dependence (write-then-read) crosses the fusion
    /// boundary non-pointwise or with mismatched level windows.
    FusionFlowDep,
    /// E0202: anti dependence (read-then-write) crosses the fusion
    /// boundary — the fused schedule would read already-overwritten
    /// values.
    FusionAntiDep,
    /// E0203: output dependence with mismatched access relations — the
    /// fused schedule may change the final value of an element.
    FusionOutputDep,
    /// E0204: fusion candidates iterate different domains.
    FusionShape,
    /// E0301: vertical halo offset exceeds the declared halo width.
    HaloOverflow,
    /// E0302: fixed level outside the declared vertical extent.
    LevelOutOfBounds,
    /// E0303: access lands in a different domain than the field's.
    DomainMismatch,
    /// E0304: unknown field, domain, or neighbor relation.
    UnknownSymbol,
    /// E0305: 2-D field accessed with a level index.
    DimensionMismatch,
    /// E0306: lookup slot not below the relation arity.
    SlotOutOfBounds,
    /// E0401: read of a field that is neither a declared input nor
    /// written earlier.
    ReadBeforeWrite,
    /// E0402: write to a declared input field.
    WriteToInput,
    /// W0403: field written but never read and not a declared output.
    DeadWrite,
    /// W0404: declared input never read.
    UnusedInput,
    /// W0501: the same indirect gather (field through (relation, slot) at
    /// one level) is loaded repeatedly within a map body —
    /// `transforms::hoist_gathers` would materialize it once.
    RedundantGather,
    /// W0502: arithmetic intensity below the machine balance point while
    /// redundant gathers remain — memory-bound with a known transform
    /// available.
    BelowRoofline,
    /// E0503: per-point lookup count or predicted time regressed against
    /// the checked-in cost baseline.
    CostRegression,
    /// E0601: operands of +/- (or a declared target and its expression)
    /// have unequal physical units.
    UnitMismatch,
    /// E0602: transcendental intrinsic applied to a dimensioned argument.
    DimensionlessRequired,
    /// W0604: a written field's unit is fully unconstrained (no
    /// declaration, all-literal expression) — inference can't check it.
    UnconstrainedLiteral,
    /// E0605: a coupler-exchanged flux is emitted and consumed with
    /// mismatched units or sign conventions (or never consumed at all).
    InterfaceUnitMismatch,
    /// E0606: a flux declared to carry a conserved quantity is not
    /// accumulated into a matching `core::budgets` ledger.
    UnclosedConservedFlux,
}

impl DiagCode {
    pub fn code(&self) -> &'static str {
        match self {
            DiagCode::RacyWrite => "E0101",
            DiagCode::RacyRead => "E0102",
            DiagCode::ScatterReduction => "W0103",
            DiagCode::FusionFlowDep => "E0201",
            DiagCode::FusionAntiDep => "E0202",
            DiagCode::FusionOutputDep => "E0203",
            DiagCode::FusionShape => "E0204",
            DiagCode::HaloOverflow => "E0301",
            DiagCode::LevelOutOfBounds => "E0302",
            DiagCode::DomainMismatch => "E0303",
            DiagCode::UnknownSymbol => "E0304",
            DiagCode::DimensionMismatch => "E0305",
            DiagCode::SlotOutOfBounds => "E0306",
            DiagCode::ReadBeforeWrite => "E0401",
            DiagCode::WriteToInput => "E0402",
            DiagCode::DeadWrite => "W0403",
            DiagCode::UnusedInput => "W0404",
            DiagCode::RedundantGather => "W0501",
            DiagCode::BelowRoofline => "W0502",
            DiagCode::CostRegression => "E0503",
            DiagCode::UnitMismatch => "E0601",
            DiagCode::DimensionlessRequired => "E0602",
            DiagCode::UnconstrainedLiteral => "W0604",
            DiagCode::InterfaceUnitMismatch => "E0605",
            DiagCode::UnclosedConservedFlux => "E0606",
        }
    }

    pub fn severity(&self) -> Severity {
        match self {
            DiagCode::ScatterReduction
            | DiagCode::DeadWrite
            | DiagCode::UnusedInput
            | DiagCode::RedundantGather
            | DiagCode::BelowRoofline
            | DiagCode::UnconstrainedLiteral => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line summary for the diagnostic registry
    /// (`esm-lint --list-codes`).
    pub fn summary(&self) -> &'static str {
        match self {
            DiagCode::RacyWrite => "write through a non-injective point relation",
            DiagCode::RacyRead => "neighbor-indexed read of a field the same scope writes",
            DiagCode::ScatterReduction => "scatter-accumulation needs an ordered or atomic combine",
            DiagCode::FusionFlowDep => "flow dependence crosses the fusion boundary non-pointwise",
            DiagCode::FusionAntiDep => "anti dependence crosses the fusion boundary",
            DiagCode::FusionOutputDep => "output dependence with mismatched access relations",
            DiagCode::FusionShape => "fusion candidates iterate different domains",
            DiagCode::HaloOverflow => "vertical halo offset exceeds the declared halo width",
            DiagCode::LevelOutOfBounds => "fixed level outside the declared vertical extent",
            DiagCode::DomainMismatch => "access lands in a different domain than the field's",
            DiagCode::UnknownSymbol => "unknown field, domain, or neighbor relation",
            DiagCode::DimensionMismatch => "2-D field accessed with a level index",
            DiagCode::SlotOutOfBounds => "lookup slot not below the relation arity",
            DiagCode::ReadBeforeWrite => "read of a field neither declared input nor written earlier",
            DiagCode::WriteToInput => "write to a declared input field",
            DiagCode::DeadWrite => "field written but never read and not a declared output",
            DiagCode::UnusedInput => "declared input never read",
            DiagCode::RedundantGather => "repeated indirect gather a hoist would materialize once",
            DiagCode::BelowRoofline => "below the machine balance point with redundant gathers left",
            DiagCode::CostRegression => "lookup count or predicted time regressed vs the baseline",
            DiagCode::UnitMismatch => "operands with unequal physical units",
            DiagCode::DimensionlessRequired => "transcendental applied to a dimensioned argument",
            DiagCode::UnconstrainedLiteral => "written field's unit is fully unconstrained",
            DiagCode::InterfaceUnitMismatch => {
                "coupler flux emitted and consumed with mismatched unit or sign"
            }
            DiagCode::UnclosedConservedFlux => {
                "conserved flux not accumulated into a budget ledger"
            }
        }
    }

    /// Every code in the registry, in code order — the kernel-analysis
    /// half of `esm-lint --list-codes` (the protocol half is
    /// `mpisim::ProtoCode::all`).
    pub fn all() -> [DiagCode; 25] {
        [
            DiagCode::RacyWrite,
            DiagCode::RacyRead,
            DiagCode::ScatterReduction,
            DiagCode::FusionFlowDep,
            DiagCode::FusionAntiDep,
            DiagCode::FusionOutputDep,
            DiagCode::FusionShape,
            DiagCode::HaloOverflow,
            DiagCode::LevelOutOfBounds,
            DiagCode::DomainMismatch,
            DiagCode::UnknownSymbol,
            DiagCode::DimensionMismatch,
            DiagCode::SlotOutOfBounds,
            DiagCode::ReadBeforeWrite,
            DiagCode::WriteToInput,
            DiagCode::DeadWrite,
            DiagCode::UnusedInput,
            DiagCode::RedundantGather,
            DiagCode::BelowRoofline,
            DiagCode::CostRegression,
            DiagCode::UnitMismatch,
            DiagCode::DimensionlessRequired,
            DiagCode::UnconstrainedLiteral,
            DiagCode::InterfaceUnitMismatch,
            DiagCode::UnclosedConservedFlux,
        ]
    }
}

/// One finding, anchored to a source span and the SDFG state it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub code: DiagCode,
    pub message: String,
    pub span: Span,
    /// Label of the SDFG state (map scope) the finding is in.
    pub state: String,
}

impl Diagnostic {
    pub fn new(code: DiagCode, message: impl Into<String>, span: Span, state: &str) -> Diagnostic {
        Diagnostic {
            code,
            message: message.into(),
            span,
            state: state.to_string(),
        }
    }

    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::diag::render(self))
    }
}

/// Typed analysis failure: one or more error-severity diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisError {
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisError {
    pub fn new(diagnostics: Vec<Diagnostic>) -> AnalysisError {
        AnalysisError { diagnostics }
    }

    pub fn primary(&self) -> &Diagnostic {
        &self.diagnostics[0]
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AnalysisError {}

// ------------------------------------------------------------------
// Declarations the verifier checks against
// ------------------------------------------------------------------

/// Declared signature of a neighbor relation: maps entities of `source`
/// to entities of `target`, `arity` slots per entity.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSig {
    pub source: String,
    pub target: String,
    pub arity: usize,
}

/// Declared shape of a field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldShape {
    pub domain: String,
    /// `true` for 3-D (vertically extended) fields.
    pub is_3d: bool,
}

/// Everything the verifier knows about the world the kernels run in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisContext {
    pub domains: HashSet<String>,
    pub relations: HashMap<String, RelationSig>,
    pub fields: HashMap<String, FieldShape>,
    pub inputs: HashSet<String>,
    pub outputs: HashSet<String>,
    /// Provable vertical halo width: `k ± c` is in bounds for `|c| <= halo`.
    pub halo: i32,
    /// Concrete vertical extent when known (bounds Fixed-level accesses).
    pub nlev: Option<usize>,
    /// Declared physical units, checked by `units::check_units`.
    pub units: HashMap<String, crate::units::Unit>,
}

impl AnalysisContext {
    pub fn new() -> AnalysisContext {
        AnalysisContext {
            halo: 1,
            ..Default::default()
        }
    }

    pub fn domain(mut self, name: &str) -> Self {
        self.domains.insert(name.to_string());
        self
    }

    pub fn relation(mut self, name: &str, source: &str, target: &str, arity: usize) -> Self {
        self.relations.insert(
            name.to_string(),
            RelationSig {
                source: source.to_string(),
                target: target.to_string(),
                arity,
            },
        );
        self
    }

    /// Declare a field; `io` marks it input (read-only), output, or
    /// intermediate.
    pub fn field(mut self, name: &str, domain: &str, is_3d: bool, io: FieldIo) -> Self {
        self.fields.insert(
            name.to_string(),
            FieldShape {
                domain: domain.to_string(),
                is_3d,
            },
        );
        match io {
            FieldIo::Input => {
                self.inputs.insert(name.to_string());
            }
            FieldIo::Output => {
                self.outputs.insert(name.to_string());
            }
            FieldIo::Intermediate => {}
        }
        self
    }

    pub fn with_halo(mut self, halo: i32) -> Self {
        self.halo = halo;
        self
    }

    pub fn with_nlev(mut self, nlev: usize) -> Self {
        self.nlev = Some(nlev);
        self
    }

    /// Declare a field's physical unit (text parsed by
    /// [`crate::units::Unit::parse`], e.g. `"W m^-2"`). Panics on an
    /// unparseable unit — declarations are static tables, so a bad one
    /// is a programming error, not an analysis finding.
    pub fn unit(mut self, name: &str, unit: &str) -> Self {
        let u = crate::units::Unit::parse(unit)
            .unwrap_or_else(|e| panic!("bad unit declaration for `{name}`: {e}"));
        self.units.insert(name.to_string(), u);
        self
    }
}

/// Role of a declared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldIo {
    Input,
    Output,
    Intermediate,
}

// ------------------------------------------------------------------
// Certification
// ------------------------------------------------------------------

/// What the race analysis proved about one map scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certification {
    /// Writes disjoint across iterations, no order-dependent reads: the
    /// scope may run data-parallel over entities.
    ParallelSafe,
    /// Scatter-accumulation detected: parallel only with an ordered or
    /// atomic combine, which the executor does not provide — sequential.
    Reduction,
    /// A race was detected (diagnostics say where): sequential only.
    Sequential,
}

impl fmt::Display for Certification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Certification::ParallelSafe => write!(f, "ParallelSafe"),
            Certification::Reduction => write!(f, "Reduction"),
            Certification::Sequential => write!(f, "Sequential"),
        }
    }
}

/// Verdict for one state, index-aligned with `sdfg.states`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateVerdict {
    pub label: String,
    pub cert: Certification,
    /// Spans of pointwise accumulations (`acc(p) = acc(p) + …`): still
    /// ParallelSafe over entities, but flagged for reduction-aware
    /// backends.
    pub pointwise_reductions: Vec<Span>,
}

/// Full verification result of one SDFG.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    pub states: Vec<StateVerdict>,
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// No error-severity findings.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    pub fn cert(&self, state_idx: usize) -> Certification {
        self.states[state_idx].cert
    }

    /// Every state certified ParallelSafe (the whole graph may run
    /// data-parallel).
    pub fn all_parallel_safe(&self) -> bool {
        self.states
            .iter()
            .all(|s| s.cert == Certification::ParallelSafe)
    }
}

// ------------------------------------------------------------------
// Check 1: race detection / parallel certification
// ------------------------------------------------------------------

/// Race-analyze one map scope. Returns the verdict and appends findings.
pub fn certify_scope(m: &StateMemlets, diags: &mut Vec<Diagnostic>) -> StateVerdict {
    let mut cert = Certification::ParallelSafe;
    let mut pointwise_reductions = Vec::new();

    for w in &m.writes {
        if w.point.is_injective() {
            if m.is_accumulation(w.tasklet) {
                pointwise_reductions.push(w.span);
            }
            continue;
        }
        if m.is_accumulation(w.tasklet) {
            diags.push(Diagnostic::new(
                DiagCode::ScatterReduction,
                format!(
                    "scatter-accumulation into `{}` through `{}`: iterations may combine \
                     into the same element; certified Reduction, not ParallelSafe",
                    w.field, w.point
                ),
                w.span,
                &m.label,
            ));
            if cert == Certification::ParallelSafe {
                cert = Certification::Reduction;
            }
        } else {
            diags.push(Diagnostic::new(
                DiagCode::RacyWrite,
                format!(
                    "write to `{}` through non-injective `{}`: two iterations of the map \
                     over `{}` may store to the same element",
                    w.field, w.point, m.domain
                ),
                w.span,
                &m.label,
            ));
            cert = Certification::Sequential;
        }
    }

    for r in &m.reads {
        // The accumulator self-read of a scatter-reduction is covered by
        // the W0103 finding on the write; don't double-report it as a
        // racy read.
        let is_accumulator_read = m.is_accumulation(r.tasklet)
            && m
                .writes
                .iter()
                .any(|w| w.tasklet == r.tasklet && w.field == r.field
                    && w.point == r.point && w.level == r.level);
        if !r.point.is_injective() && m.writes_field(&r.field) && !is_accumulator_read {
            diags.push(Diagnostic::new(
                DiagCode::RacyRead,
                format!(
                    "neighbor read `{}` of field `{}` written in the same map scope: \
                     the value observed depends on iteration order",
                    r, r.field
                ),
                r.span,
                &m.label,
            ));
            cert = Certification::Sequential;
        }
    }

    StateVerdict {
        label: m.label.clone(),
        cert,
        pointwise_reductions,
    }
}

// ------------------------------------------------------------------
// Check 2: fusion legality
// ------------------------------------------------------------------

/// May states `a` and `b` (in that order) be fused into one map scope?
/// Returns the first violated dependence as a typed diagnostic.
pub fn fusion_legality(a: &State, b: &State) -> Result<(), Diagnostic> {
    if a.map.domain != b.map.domain {
        return Err(Diagnostic::new(
            DiagCode::FusionShape,
            format!(
                "cannot fuse maps over different domains `{}` and `{}`",
                a.map.domain, b.map.domain
            ),
            b.span,
            &b.label,
        ));
    }
    let ma = memlet::state_memlets(a);
    let mb = memlet::state_memlets(b);
    let over_levels = a.map.over_levels || b.map.over_levels;

    // Flow dependences: `a` writes f, `b` reads f.
    for r in &mb.reads {
        if !ma.writes_field(&r.field) {
            continue;
        }
        if !r.point.is_injective() {
            return Err(Diagnostic::new(
                DiagCode::FusionFlowDep,
                format!(
                    "flow dependence: `{}` reads `{}` through `{}`, but neighbor values \
                     are not yet computed when the fused body runs per point",
                    mb.label, r.field, r.point
                ),
                r.span,
                &mb.label,
            ));
        }
        for w in ma.writes_to(&r.field) {
            if r.level != w.level {
                return Err(Diagnostic::new(
                    DiagCode::FusionFlowDep,
                    format!(
                        "flow dependence: read of `{}` at level window [{}] does not match \
                         the write window [{}]; the fused schedule observes a partially \
                         updated field",
                        r.field, r.level, w.level
                    ),
                    r.span,
                    &mb.label,
                ));
            }
            if !w.level.depends_on_k()
                && over_levels
                && memlet::tasklet_is_level_dependent(&ma, w.tasklet)
            {
                return Err(Diagnostic::new(
                    DiagCode::FusionFlowDep,
                    format!(
                        "flow dependence: `{}` is written to a level-constant location with a \
                         level-dependent value; re-executed per level in the fused 3-D map, \
                         the read observes intermediate values",
                        r.field
                    ),
                    r.span,
                    &mb.label,
                ));
            }
        }
    }

    // Anti dependences: `a` reads f, `b` writes f.
    for r in &ma.reads {
        if !mb.writes_field(&r.field) {
            continue;
        }
        if !r.point.is_injective() {
            return Err(Diagnostic::new(
                DiagCode::FusionAntiDep,
                format!(
                    "anti dependence: `{}` reads `{}` through `{}` while the fused scope \
                     overwrites it; neighbor points may already hold new values",
                    ma.label, r.field, r.point
                ),
                r.span,
                &ma.label,
            ));
        }
        for w in mb.writes_to(&r.field) {
            if r.level != w.level {
                return Err(Diagnostic::new(
                    DiagCode::FusionAntiDep,
                    format!(
                        "anti dependence: read of `{}` at level window [{}] vs overwrite at \
                         [{}]; earlier levels are already overwritten when the fused body \
                         reaches level k",
                        r.field, r.level, w.level
                    ),
                    r.span,
                    &ma.label,
                ));
            }
            if !r.level.depends_on_k() && over_levels {
                return Err(Diagnostic::new(
                    DiagCode::FusionAntiDep,
                    format!(
                        "anti dependence: level-constant read of `{}` re-executed per level \
                         observes the overwritten value from the second level on",
                        r.field
                    ),
                    r.span,
                    &ma.label,
                ));
            }
        }
    }

    // Output dependences: both write f.
    for w2 in &mb.writes {
        if !ma.writes_field(&w2.field) {
            continue;
        }
        for w1 in ma.writes_to(&w2.field) {
            if !w1.point.is_injective() || !w2.point.is_injective() || w1.level != w2.level {
                return Err(Diagnostic::new(
                    DiagCode::FusionOutputDep,
                    format!(
                        "output dependence: `{}` written as [{}, {}] and [{}, {}]; the fused \
                         schedule may change which write lands last",
                        w2.field, w1.point, w1.level, w2.point, w2.level
                    ),
                    w2.span,
                    &mb.label,
                ));
            }
        }
    }

    Ok(())
}

// ------------------------------------------------------------------
// Check 3: bounds / shape checking
// ------------------------------------------------------------------

fn check_access_bounds(
    m: &Memlet,
    scope: &StateMemlets,
    ctx: &AnalysisContext,
    diags: &mut Vec<Diagnostic>,
) {
    let Some(shape) = ctx.fields.get(&m.field) else {
        diags.push(Diagnostic::new(
            DiagCode::UnknownSymbol,
            format!("field `{}` is not declared", m.field),
            m.span,
            &scope.label,
        ));
        return;
    };

    // Horizontal: where does the point index land?
    match &m.point {
        PointRel::Identity => {
            if shape.domain != scope.domain {
                diags.push(Diagnostic::new(
                    DiagCode::DomainMismatch,
                    format!(
                        "`{}` lives on `{}` but is accessed at the loop point of a map \
                         over `{}`",
                        m.field, shape.domain, scope.domain
                    ),
                    m.span,
                    &scope.label,
                ));
            }
        }
        PointRel::Indirect { relation, slot } => match ctx.relations.get(relation) {
            None => {
                diags.push(Diagnostic::new(
                    DiagCode::UnknownSymbol,
                    format!("neighbor relation `{relation}` is not declared"),
                    m.span,
                    &scope.label,
                ));
            }
            Some(sig) => {
                if sig.source != scope.domain {
                    diags.push(Diagnostic::new(
                        DiagCode::DomainMismatch,
                        format!(
                            "relation `{relation}` maps from `{}`, but the map iterates `{}`",
                            sig.source, scope.domain
                        ),
                        m.span,
                        &scope.label,
                    ));
                }
                if sig.target != shape.domain {
                    diags.push(Diagnostic::new(
                        DiagCode::DomainMismatch,
                        format!(
                            "relation `{relation}` lands in `{}`, but `{}` lives on `{}`",
                            sig.target, m.field, shape.domain
                        ),
                        m.span,
                        &scope.label,
                    ));
                }
                if *slot >= sig.arity {
                    diags.push(Diagnostic::new(
                        DiagCode::SlotOutOfBounds,
                        format!(
                            "slot {slot} out of bounds for relation `{relation}` of arity {}",
                            sig.arity
                        ),
                        m.span,
                        &scope.label,
                    ));
                }
            }
        },
    }

    // Vertical: does the level window fit the declared extent?
    match (shape.is_3d, m.level) {
        (false, LevelRel::Surface) => {}
        (false, LevelRel::Affine { k_coef: 0, offset: 0 }) => {}
        (false, LevelRel::Affine { k_coef: 0, offset }) => {
            diags.push(Diagnostic::new(
                DiagCode::LevelOutOfBounds,
                format!("level {offset} of 2-D field `{}` (only level 0 exists)", m.field),
                m.span,
                &scope.label,
            ));
        }
        (false, LevelRel::Affine { .. }) => {
            diags.push(Diagnostic::new(
                DiagCode::DimensionMismatch,
                format!("2-D field `{}` accessed with a level index", m.field),
                m.span,
                &scope.label,
            ));
        }
        (true, LevelRel::Affine { k_coef: 1, offset }) => {
            if offset.abs() > ctx.halo {
                diags.push(Diagnostic::new(
                    DiagCode::HaloOverflow,
                    format!(
                        "halo access `k{offset:+}` to `{}` exceeds the declared halo width \
                         ±{}; the map range cannot prove it in bounds",
                        m.field, ctx.halo
                    ),
                    m.span,
                    &scope.label,
                ));
            }
        }
        (true, LevelRel::Affine { offset, .. }) => {
            if let Some(nlev) = ctx.nlev {
                if offset as usize >= nlev || offset < 0 {
                    diags.push(Diagnostic::new(
                        DiagCode::LevelOutOfBounds,
                        format!(
                            "fixed level {offset} outside the declared vertical extent {nlev} \
                             of `{}`",
                            m.field
                        ),
                        m.span,
                        &scope.label,
                    ));
                }
            }
        }
        (true, LevelRel::Surface) => {} // reads level 0: in bounds.
    }
}

// ------------------------------------------------------------------
// Check 4: liveness (read-before-write, dead writes)
// ------------------------------------------------------------------

fn check_liveness(scopes: &[StateMemlets], ctx: &AnalysisContext, diags: &mut Vec<Diagnostic>) {
    // Tasklet-granular program order: reads of tasklet t see writes of
    // strictly earlier tasklets (earlier states, or same state, lower
    // tasklet index).
    let mut written: HashSet<&str> = HashSet::new();
    let mut read_anywhere: HashSet<&str> = HashSet::new();
    let mut read_after_write: HashSet<&str> = HashSet::new();
    let mut last_write: HashMap<&str, (Span, &str)> = HashMap::new();

    for scope in scopes {
        let n_tasklets = scope.writes.iter().map(|w| w.tasklet + 1).max().unwrap_or(0);
        for t in 0..n_tasklets {
            for r in scope.reads.iter().filter(|r| r.tasklet == t) {
                read_anywhere.insert(r.field.as_str());
                if written.contains(r.field.as_str()) {
                    read_after_write.insert(r.field.as_str());
                } else if !ctx.inputs.contains(&r.field) {
                    diags.push(Diagnostic::new(
                        DiagCode::ReadBeforeWrite,
                        format!(
                            "`{}` is read before any write and is not a declared input \
                             (uninitialized data)",
                            r.field
                        ),
                        r.span,
                        &scope.label,
                    ));
                }
            }
            for w in scope.writes.iter().filter(|w| w.tasklet == t) {
                if ctx.inputs.contains(&w.field) {
                    diags.push(Diagnostic::new(
                        DiagCode::WriteToInput,
                        format!("write to declared input field `{}`", w.field),
                        w.span,
                        &scope.label,
                    ));
                }
                written.insert(w.field.as_str());
                last_write.insert(w.field.as_str(), (w.span, scope.label.as_str()));
            }
        }
    }

    let mut dead: Vec<_> = last_write
        .iter()
        .filter(|(f, _)| !ctx.outputs.contains(**f) && !read_after_write.contains(**f))
        .collect();
    dead.sort_by_key(|(f, _)| **f);
    for (f, (span, state)) in dead {
        diags.push(Diagnostic::new(
            DiagCode::DeadWrite,
            format!("`{f}` is written but never read and is not a declared output"),
            *span,
            state,
        ));
    }

    let mut unused: Vec<_> = ctx
        .inputs
        .iter()
        .filter(|f| !read_anywhere.contains(f.as_str()))
        .collect();
    unused.sort();
    for f in unused {
        diags.push(Diagnostic::new(
            DiagCode::UnusedInput,
            format!("declared input `{f}` is never read"),
            Span::synthetic(),
            "<program>",
        ));
    }
}

// ------------------------------------------------------------------
// Entry point
// ------------------------------------------------------------------

/// Verify a whole SDFG against its declared context: race-certify every
/// state, bounds-check every memlet, liveness-check the state sequence.
pub fn verify_sdfg(sdfg: &Sdfg, ctx: &AnalysisContext) -> AnalysisReport {
    let scopes = memlet::sdfg_memlets(sdfg);
    let mut diags = Vec::new();
    let mut states = Vec::with_capacity(scopes.len());

    for scope in &scopes {
        if !ctx.domains.contains(&scope.domain) {
            diags.push(Diagnostic::new(
                DiagCode::UnknownSymbol,
                format!("map iterates undeclared domain `{}`", scope.domain),
                scope.span,
                &scope.label,
            ));
        }
        for m in scope.writes.iter().chain(scope.reads.iter()) {
            check_access_bounds(m, scope, ctx, &mut diags);
        }
        states.push(certify_scope(scope, &mut diags));
    }

    check_liveness(&scopes, ctx, &mut diags);

    AnalysisReport {
        states,
        diagnostics: diags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sdfg::Sdfg;

    fn ctx_cells() -> AnalysisContext {
        AnalysisContext::new()
            .domain("cells")
            .domain("edges")
            .relation("edge", "cells", "edges", 3)
            .relation("neighbor", "cells", "cells", 3)
            .field("inp", "cells", true, FieldIo::Input)
            .field("vn_e", "edges", true, FieldIo::Input)
            .field("s2d", "cells", false, FieldIo::Input)
            .field("out", "cells", true, FieldIo::Output)
            .field("out2", "cells", true, FieldIo::Output)
    }

    fn lower(src: &str) -> Sdfg {
        Sdfg::from_program("t", &parse(src).unwrap())
    }

    #[test]
    fn clean_kernel_certifies_parallel_safe() {
        let sdfg = lower("kernel t over cells out(p,k) = inp(p,k) + vn_e(edge(p,1),k); end");
        let rep = verify_sdfg(&sdfg, &ctx_cells());
        assert!(rep.is_clean(), "{:?}", rep.diagnostics);
        assert_eq!(rep.cert(0), Certification::ParallelSafe);
        assert!(rep.all_parallel_safe());
    }

    #[test]
    fn neighbor_read_of_written_field_is_a_race() {
        // Jacobi-in-place: the classic Gauss-Seidel-vs-Jacobi race.
        let ctx = ctx_cells().field("x", "cells", true, FieldIo::Input);
        let sdfg = lower("kernel t over cells x(p,k) = 0.5 * x(neighbor(p,0),k); end");
        let rep = verify_sdfg(&sdfg, &ctx);
        assert!(!rep.is_clean());
        assert_eq!(rep.cert(0), Certification::Sequential);
        assert!(rep.errors().any(|d| d.code == DiagCode::RacyRead));
        let d = rep.errors().next().unwrap();
        assert!(!d.span.is_synthetic(), "race diagnostics carry spans");
    }

    #[test]
    fn halo_overflow_and_fixed_level_bounds() {
        let sdfg = lower("kernel t over cells out(p,k) = inp(p,k+2) + inp(p, 60); end");
        let ctx = ctx_cells().with_halo(1).with_nlev(30);
        let rep = verify_sdfg(&sdfg, &ctx);
        assert!(rep.errors().any(|d| d.code == DiagCode::HaloOverflow));
        assert!(rep.errors().any(|d| d.code == DiagCode::LevelOutOfBounds));
        // Widening the halo legalizes the k+2 access but not the level 60.
        let rep2 = verify_sdfg(&sdfg, &ctx_cells().with_halo(2).with_nlev(30));
        assert!(!rep2.errors().any(|d| d.code == DiagCode::HaloOverflow));
        assert!(rep2.errors().any(|d| d.code == DiagCode::LevelOutOfBounds));
    }

    #[test]
    fn domain_and_slot_mismatches_are_caught() {
        let sdfg = lower(
            r#"
            kernel t over cells
              out(p,k) = vn_e(p,k);
              out2(p,k) = vn_e(edge(p,7),k) + inp(edge(p,0),k);
            end
        "#,
        );
        let rep = verify_sdfg(&sdfg, &ctx_cells());
        // vn_e lives on edges, accessed at the cell loop point.
        assert!(rep.errors().any(|d| d.code == DiagCode::DomainMismatch
            && d.message.contains("vn_e")));
        // slot 7 of an arity-3 relation.
        assert!(rep.errors().any(|d| d.code == DiagCode::SlotOutOfBounds));
        // inp lives on cells but `edge` lands in edges.
        assert!(rep.errors().any(|d| d.code == DiagCode::DomainMismatch
            && d.message.contains("lands in")));
    }

    #[test]
    fn dimension_mismatch_on_2d_field() {
        let sdfg = lower("kernel t over cells out(p,k) = s2d(p,k) + s2d(p, 3); end");
        let rep = verify_sdfg(&sdfg, &ctx_cells());
        assert!(rep.errors().any(|d| d.code == DiagCode::DimensionMismatch));
        assert!(rep.errors().any(|d| d.code == DiagCode::LevelOutOfBounds));
    }

    #[test]
    fn liveness_read_before_write_and_dead_write() {
        let ctx = ctx_cells().field("tmp", "cells", true, FieldIo::Intermediate).field(
            "ghost",
            "cells",
            true,
            FieldIo::Intermediate,
        );
        let sdfg = lower(
            r#"
            kernel t over cells
              out(p,k) = ghost(p,k) * 2;
              tmp(p,k) = inp(p,k);
            end
        "#,
        );
        let rep = verify_sdfg(&sdfg, &ctx);
        assert!(rep.errors().any(|d| d.code == DiagCode::ReadBeforeWrite
            && d.message.contains("ghost")));
        assert!(rep.warnings().any(|d| d.code == DiagCode::DeadWrite
            && d.message.contains("tmp")));
    }

    #[test]
    fn intermediate_written_then_read_is_live() {
        let ctx = ctx_cells().field("tmp", "cells", true, FieldIo::Intermediate);
        let sdfg = lower(
            r#"
            kernel t over cells
              tmp(p,k) = inp(p,k);
              out(p,k) = tmp(p,k) * 2;
            end
        "#,
        );
        let rep = verify_sdfg(&sdfg, &ctx);
        assert!(rep.is_clean(), "{:?}", rep.diagnostics);
    }

    #[test]
    fn write_to_input_is_an_error() {
        let sdfg = lower("kernel t over cells inp(p,k) = inp(p,k) * 2; end");
        let rep = verify_sdfg(&sdfg, &ctx_cells());
        assert!(rep.errors().any(|d| d.code == DiagCode::WriteToInput));
    }

    #[test]
    fn unused_input_is_a_warning() {
        let ctx = ctx_cells().field("never", "cells", true, FieldIo::Input);
        let sdfg = lower("kernel t over cells out(p,k) = inp(p,k); end");
        let rep = verify_sdfg(&sdfg, &ctx);
        assert!(rep.is_clean(), "warnings only");
        assert!(rep.warnings().any(|d| d.code == DiagCode::UnusedInput
            && d.message.contains("never")));
    }

    #[test]
    fn fusion_legality_pointwise_chain_ok() {
        let sdfg = lower(
            r#"
            kernel t over cells
              out(p,k) = inp(p,k) * 2;
              out2(p,k) = out(p,k) + 1;
            end
        "#,
        );
        assert!(fusion_legality(&sdfg.states[0], &sdfg.states[1]).is_ok());
    }

    #[test]
    fn fusion_flow_dep_neighbor_read_rejected() {
        let sdfg = lower(
            r#"
            kernel t over cells
              out(p,k) = inp(p,k) * 2;
              out2(p,k) = out(neighbor(p,0),k);
            end
        "#,
        );
        let d = fusion_legality(&sdfg.states[0], &sdfg.states[1]).unwrap_err();
        assert_eq!(d.code, DiagCode::FusionFlowDep);
        assert!(!d.span.is_synthetic());
    }

    #[test]
    fn fusion_flow_dep_fixed_level_read_rejected() {
        // Previously miscompiled: a Fixed-level read of a freshly
        // written K-level field observes stale data in the fused form.
        let sdfg = lower(
            r#"
            kernel t over cells
              out(p,k) = inp(p,k);
              out2(p,k) = out(p, 2);
            end
        "#,
        );
        let d = fusion_legality(&sdfg.states[0], &sdfg.states[1]).unwrap_err();
        assert_eq!(d.code, DiagCode::FusionFlowDep);
    }

    #[test]
    fn fusion_anti_dep_vertical_offset_rejected() {
        // Previously miscompiled: reading x(p,k-1) before x is
        // overwritten must not fuse with the overwrite.
        let ctx_src = r#"
            kernel t over cells
              out(p,k) = x(p,k-1);
              x(p,k) = inp(p,k);
            end
        "#;
        let sdfg = lower(ctx_src);
        let d = fusion_legality(&sdfg.states[0], &sdfg.states[1]).unwrap_err();
        assert_eq!(d.code, DiagCode::FusionAntiDep);
    }

    #[test]
    fn fusion_output_dep_mismatched_levels_rejected() {
        let sdfg = lower(
            r#"
            kernel t over cells
              out(p,k) = inp(p,k);
              out(p,0) = inp(p,1);
            end
        "#,
        );
        let d = fusion_legality(&sdfg.states[0], &sdfg.states[1]).unwrap_err();
        assert_eq!(d.code, DiagCode::FusionOutputDep);
    }

    #[test]
    fn fusion_cross_domain_rejected() {
        let sdfg = lower(
            r#"
            kernel a over cells out(p,k) = inp(p,k); end
            kernel b over edges vn_out(p,k) = vn_e(p,k); end
        "#,
        );
        let d = fusion_legality(&sdfg.states[0], &sdfg.states[1]).unwrap_err();
        assert_eq!(d.code, DiagCode::FusionShape);
    }
}
