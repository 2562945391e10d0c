//! The `esm-lint` driver: static dataflow verification of every kernel
//! suite registered in the workspace.
//!
//! For each target (the dace-mini dycore suite, the atmosphere DSL
//! mirror, the land DSL mirror) the driver parses the DSL source, lowers
//! it to an SDFG, runs [`dace_mini::analysis::verify_sdfg`] on both the
//! unfused graph and the `gh200_pipeline` output, and renders every
//! diagnostic rustc-style (code, message, source snippet with carets) so
//! a CI failure points at the offending access. It then runs the
//! deliberately-broken negative fixtures and fails if any expected
//! finding goes undetected — the lint gate proves both "the kernels are
//! clean" and "the analyzer still catches what it must".

use dace_mini::analysis::{
    fusion_legality, verify_sdfg, AnalysisContext, Certification, Diagnostic, FieldIo, Severity,
};
use dace_mini::cost::{self, BaselineEntry, CostInputs, ProgramCost};
use dace_mini::parser::parse;
use dace_mini::transforms::{fuse_maps, gh200_hoisted_pipeline, gh200_pipeline};
use dace_mini::units::{check_conservation, check_units, FluxConsumer, FluxSpec, LedgerEntry};
use dace_mini::{suite, Sdfg};
use machine::Roofline;
use serde_json::{json, Value};
use std::fmt::Write as _;

/// One lintable kernel suite.
pub struct LintTarget {
    pub name: &'static str,
    pub source: String,
    pub sdfg: Sdfg,
    pub ctx: AnalysisContext,
    /// Representative domain extents for the static cost model.
    pub sizes: cost::DomainSizes,
}

fn sizes_from(table: &[(&'static str, usize)], nlev: usize) -> cost::DomainSizes {
    let mut s = cost::DomainSizes::new(nlev);
    for (domain, n) in table {
        s = s.with(domain, *n);
    }
    s
}

fn ctx_from_tables(
    fields: &[(&str, &str, bool, &str, &str)],
    relations: &[(&str, &str, &str, usize)],
    halo: i32,
) -> AnalysisContext {
    let mut ctx = AnalysisContext::new().with_halo(halo);
    for (_, domain, _, _, _) in fields {
        ctx = ctx.domain(domain);
    }
    for (name, source, target, arity) in relations {
        ctx = ctx.domain(source).domain(target).relation(name, source, target, *arity);
    }
    for (name, domain, is3d, io, unit) in fields {
        let io = match *io {
            "in" => FieldIo::Input,
            "out" => FieldIo::Output,
            _ => FieldIo::Intermediate,
        };
        ctx = ctx.field(name, domain, *is3d, io).unit(name, unit);
    }
    ctx
}

/// All registered targets. Adding a component here puts its kernels
/// under the CI lint gate.
pub fn builtin_targets() -> Vec<LintTarget> {
    let mut targets = Vec::new();

    targets.push(LintTarget {
        name: "dycore-suite",
        source: suite::DYCORE_SRC.to_string(),
        sdfg: Sdfg::from_program("dycore", &suite::dycore_program()),
        ctx: suite::suite_context(),
        sizes: suite::suite_sizes(),
    });

    let atmo_prog = parse(atmo::dsl::DSL_SRC).expect("atmo DSL parses");
    targets.push(LintTarget {
        name: "atmo-dsl",
        source: atmo::dsl::DSL_SRC.to_string(),
        sdfg: Sdfg::from_program("atmo", &atmo_prog),
        ctx: ctx_from_tables(&atmo::dsl::dsl_fields(), &atmo::dsl::dsl_relations(), atmo::dsl::DSL_HALO),
        sizes: sizes_from(&atmo::dsl::dsl_sizes(), atmo::dsl::DSL_NLEV),
    });

    let land_prog = parse(land::dsl::DSL_SRC).expect("land DSL parses");
    targets.push(LintTarget {
        name: "land-dsl",
        source: land::dsl::DSL_SRC.to_string(),
        sdfg: Sdfg::from_program("land", &land_prog),
        ctx: ctx_from_tables(&land::dsl::dsl_fields(), &land::dsl::dsl_relations(), land::dsl::DSL_HALO),
        sizes: sizes_from(&land::dsl::dsl_sizes(), land::dsl::DSL_NLEV),
    });

    targets
}

/// Render one diagnostic rustc-style into `out` (shared renderer —
/// `dace_mini::diag` owns the textual shape).
pub fn render_diagnostic(out: &mut String, target: &LintTarget, d: &Diagnostic) {
    out.push_str(&dace_mini::diag::render_with_source(target.name, &target.source, d));
}

/// Outcome of a full lint run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LintSummary {
    pub targets: usize,
    pub errors: usize,
    pub warnings: usize,
    pub states_total: usize,
    pub states_parallel_safe: usize,
    /// Errors/warnings from the dimensional-analysis phase (also counted
    /// in `errors`/`warnings`).
    pub units_errors: usize,
    pub units_warnings: usize,
    /// Fields whose unit the inference pass pinned down on the source
    /// graphs (declared or derived).
    pub units_inferred: usize,
    /// Coupler-boundary fluxes checked by the conservation closure.
    pub fluxes_checked: usize,
    /// Driver communication rounds explored (guard, heartbeat, coupler
    /// exchange — see `esm_core::explore_rounds`).
    pub protocols: usize,
    /// Single-fault runs of those rounds, over every rank count explored.
    pub protocol_fault_runs: usize,
    /// E07xx errors from the protocol phase (also counted in `errors`).
    pub protocol_errors: usize,
    /// Fixture-harness failures (an expected finding went undetected, or
    /// a fixture produced no error at all).
    pub fixture_failures: Vec<String>,
}

impl LintSummary {
    pub fn clean(&self) -> bool {
        self.errors == 0 && self.fixture_failures.is_empty()
    }
}

/// Verify every builtin target (unfused and after the GH200 pipeline)
/// and exercise the negative fixtures. Human-readable report goes into
/// `out`; the summary decides the exit code.
pub fn run_lint(out: &mut String) -> LintSummary {
    let mut summary = LintSummary::default();

    let roof = Roofline::gh200_dace();
    for target in builtin_targets() {
        summary.targets += 1;
        let (fused, _) = gh200_pipeline(&target.sdfg);
        let (hoisted, hoist) = gh200_hoisted_pipeline(&target.sdfg);
        let hoisted_ctx = hoist.declare(&target.ctx);
        let phases = [
            ("source", &target.sdfg, &target.ctx),
            ("gh200", &fused, &target.ctx),
            ("hoisted", &hoisted, &hoisted_ctx),
        ];
        for (phase, graph, ctx) in phases {
            let report = verify_sdfg(graph, ctx);
            let n_err = report.errors().count();
            let n_warn = report.warnings().count();
            summary.errors += n_err;
            summary.warnings += n_warn;
            if phase == "source" {
                summary.states_total += report.states.len();
                summary.states_parallel_safe += report
                    .states
                    .iter()
                    .filter(|s| s.cert == Certification::ParallelSafe)
                    .count();
            }
            let _ = writeln!(
                out,
                "  [{phase:>7}] {}: {} states, {} ParallelSafe, {n_err} errors, {n_warn} warnings",
                target.name,
                report.states.len(),
                report
                    .states
                    .iter()
                    .filter(|s| s.cert == Certification::ParallelSafe)
                    .count(),
            );
            for d in &report.diagnostics {
                render_diagnostic(out, &target, d);
            }

            // Dimensional analysis at every phase: the transformed
            // graphs must stay unit-consistent, and hoisted transients
            // must inherit inferable units.
            let units = check_units(graph, ctx);
            let u_err = units.errors().count();
            let u_warn = units.warnings().count();
            summary.errors += u_err;
            summary.warnings += u_warn;
            summary.units_errors += u_err;
            summary.units_warnings += u_warn;
            if phase == "source" {
                summary.units_inferred += units.inferred.len();
            }
            let _ = writeln!(
                out,
                "  [  units] {} ({phase}): {} fields inferred, {u_err} errors, {u_warn} warnings",
                target.name,
                units.inferred.len(),
            );
            for d in &units.diagnostics {
                render_diagnostic(out, &target, d);
            }
        }

        // Perf findings on the fused (pre-hoist) graph: redundant
        // gathers the metaprogram would eliminate, and scopes sitting
        // below the roofline balance point while re-gathering.
        let inputs = CostInputs {
            ctx: &target.ctx,
            sizes: &target.sizes,
            elided_stores: &[],
        };
        let perf = cost::perf_diagnostics(&fused, &inputs, &roof);
        summary.warnings += perf.len();
        let _ = writeln!(
            out,
            "  [   perf] {}: {} findings, {:.2}x lookup reduction available",
            target.name,
            perf.len(),
            hoist.reduction_factor(),
        );
        for d in &perf {
            render_diagnostic(out, &target, d);
        }
    }

    run_conservation(out, &mut summary);
    run_protocol(out, &mut summary);
    run_fixtures(out, &mut summary);
    summary
}

/// The protocol phase: explore every communication round of the coupled
/// drivers as the code that runs it (`esm_core::explore_rounds`,
/// `mpisim::explore`). Each fault-free run must be clean (E0701–E0705);
/// the guard and heartbeat rounds must also end every single-fault run
/// without a hang, a cycle, a stuck collective, a collision or a panic.
fn run_protocol(out: &mut String, summary: &mut LintSummary) {
    let rounds = esm_core::explore_rounds();
    let mut names: Vec<&str> = rounds.iter().map(|r| r.report.name.as_str()).collect();
    names.dedup();
    summary.protocols = names.len();
    for r in &rounds {
        let report = &r.report;
        summary.protocol_fault_runs += report.faults.len();
        summary.protocol_errors += r.errors();
        summary.errors += r.errors();
        let outcomes: Vec<String> =
            report.outcomes().iter().map(|(outcome, k)| format!("{k} {outcome}")).collect();
        let _ = writeln!(
            out,
            "  [  proto] {} on {} ranks: {} fault runs ({}){}, {} errors",
            report.name,
            report.n,
            report.faults.len(),
            outcomes.join(", "),
            if r.gate_faults { "" } else { " counted, not gated" },
            r.errors(),
        );
        for d in &report.nominal.findings {
            let _ = writeln!(out, "    fault-free: {d}");
        }
        if r.gate_faults {
            for run in report.faults.iter().filter(|run| run.error_count() > 0) {
                let _ = writeln!(out, "    {}: {}", run.fault, run.outcome());
            }
        }
    }
}

/// Assemble the coupler-boundary flux contract from the typed registry
/// (emitter side, `coupler::fluxreg`) and the driver's consumption
/// tables (`esm_core::fluxspec`) and run the conservation closure:
/// every emitted flux consumed with matching unit and sign (E0605),
/// every conserved class accumulated into a budget ledger (E0606).
fn run_conservation(out: &mut String, summary: &mut LintSummary) {
    let emitted: Vec<FluxSpec> = coupler::fluxreg::registry()
        .iter()
        .map(|d| FluxSpec {
            name: d.name.to_string(),
            emitter: d.emitter.to_string(),
            unit: d.unit.to_string(),
            conserved: d.conserved,
            positive_down: d.positive_down,
        })
        .collect();
    let mut consumed: Vec<FluxConsumer> = Vec::new();
    for (side, table) in [
        ("fast", esm_core::fluxspec::consumed_by_fast()),
        ("slow", esm_core::fluxspec::consumed_by_slow()),
    ] {
        consumed.extend(table.into_iter().map(|(name, unit, down)| FluxConsumer {
            name: name.to_string(),
            consumer: side.to_string(),
            unit: unit.to_string(),
            positive_down: down,
        }));
    }
    let ledgers: Vec<LedgerEntry> = esm_core::fluxspec::ledgered()
        .into_iter()
        .map(|(flux, ledger)| LedgerEntry {
            flux: flux.to_string(),
            ledger,
        })
        .collect();

    summary.fluxes_checked = emitted.len();
    let diags = check_conservation(&emitted, &consumed, &ledgers);
    summary.errors += diags.len();
    summary.units_errors += diags.len();
    let _ = writeln!(
        out,
        "  [coupler] conservation closure: {} fluxes, {} ledgered, {} errors",
        emitted.len(),
        ledgers.len(),
        diags.len(),
    );
    for d in &diags {
        let _ = write!(out, "{}", dace_mini::diag::render(d));
    }
}

/// Every fixture the runner must execute: 7 verifier + 2 perf +
/// 2 fusion + 3 units + 2 conservation + 5 protocol. A mismatch means a
/// fixture family was added (or dropped) without updating the runner,
/// and fails the lint run — silently skipped fixtures are a dead gate.
const EXPECTED_FIXTURES: usize = 21;

/// Run the deliberately-broken fixtures: every expected code must be
/// produced. A fixture that passes the verifier (or refuses with the
/// wrong code) is an analyzer regression and fails the lint run.
fn run_fixtures(out: &mut String, summary: &mut LintSummary) {
    let mut executed = 0usize;
    let _ = writeln!(out, "  negative fixtures:");
    for f in dace_mini::fixtures::verifier_fixtures() {
        executed += 1;
        let report = verify_sdfg(&f.sdfg, &f.ctx);
        let mut missing = Vec::new();
        for code in &f.expect {
            if !report.diagnostics.iter().any(|d| d.code == *code) {
                missing.push(code.code());
            }
        }
        if missing.is_empty() {
            let codes: Vec<&str> = f.expect.iter().map(|c| c.code()).collect();
            let _ = writeln!(out, "    {:<28} rejected as expected ({})", f.name, codes.join(", "));
        } else {
            summary
                .fixture_failures
                .push(format!("{}: expected {} not reported", f.name, missing.join(", ")));
            let _ = writeln!(out, "    {:<28} MISSED {}", f.name, missing.join(", "));
        }
    }
    let roof = Roofline::gh200_dace();
    for f in dace_mini::fixtures::perf_fixtures() {
        executed += 1;
        let fused = fuse_maps(&f.sdfg);
        let inputs = CostInputs {
            ctx: &f.ctx,
            sizes: &f.sizes,
            elided_stores: &[],
        };
        let mut diags = cost::perf_diagnostics(&fused, &inputs, &roof);
        if let Some(base) = &f.baseline {
            let cur = cost::analyze_compiled(&fused, &inputs, &roof);
            diags.extend(cost::check_regression(&cur, base));
        }
        let missing: Vec<&str> = f
            .expect
            .iter()
            .filter(|c| !diags.iter().any(|d| d.code == **c))
            .map(|c| c.code())
            .collect();
        if missing.is_empty() {
            let codes: Vec<&str> = f.expect.iter().map(|c| c.code()).collect();
            let _ = writeln!(out, "    {:<28} flagged as expected ({})", f.name, codes.join(", "));
        } else {
            summary
                .fixture_failures
                .push(format!("{}: expected {} not reported", f.name, missing.join(", ")));
            let _ = writeln!(out, "    {:<28} MISSED {}", f.name, missing.join(", "));
        }
    }
    for f in dace_mini::fixtures::fusion_fixtures() {
        executed += 1;
        let (i, j) = f.pair;
        match fusion_legality(&f.sdfg.states[i], &f.sdfg.states[j]) {
            Err(d) if d.code == f.expect => {
                let _ = writeln!(
                    out,
                    "    {:<28} fusion refused as expected ({})",
                    f.name,
                    d.code.code()
                );
            }
            Err(d) => {
                summary.fixture_failures.push(format!(
                    "{}: refused with {} instead of {}",
                    f.name,
                    d.code.code(),
                    f.expect.code()
                ));
                let _ = writeln!(out, "    {:<28} WRONG CODE {}", f.name, d.code.code());
            }
            Ok(()) => {
                summary
                    .fixture_failures
                    .push(format!("{}: illegal fusion was accepted", f.name));
                let _ = writeln!(out, "    {:<28} ACCEPTED (analyzer regression)", f.name);
            }
        }
    }
    for f in dace_mini::fixtures::units_fixtures() {
        executed += 1;
        let report = check_units(&f.sdfg, &f.ctx);
        let hit = report
            .diagnostics
            .iter()
            .find(|d| d.code == f.expect)
            .cloned();
        match hit {
            Some(d) if (d.span.line, d.span.col) == f.at => {
                let _ = writeln!(
                    out,
                    "    {:<28} flagged as expected ({} at {}:{})",
                    f.name,
                    f.expect.code(),
                    d.span.line,
                    d.span.col
                );
            }
            Some(d) => {
                summary.fixture_failures.push(format!(
                    "{}: {} anchored at {}:{} instead of {}:{}",
                    f.name,
                    f.expect.code(),
                    d.span.line,
                    d.span.col,
                    f.at.0,
                    f.at.1
                ));
                let _ = writeln!(out, "    {:<28} WRONG SPAN {}", f.name, d.span);
            }
            None => {
                summary
                    .fixture_failures
                    .push(format!("{}: expected {} not reported", f.name, f.expect.code()));
                let _ = writeln!(out, "    {:<28} MISSED {}", f.name, f.expect.code());
            }
        }
    }
    for f in dace_mini::fixtures::conservation_fixtures() {
        executed += 1;
        let diags = check_conservation(&f.emitted, &f.consumed, &f.ledgers);
        if diags.iter().any(|d| d.code == f.expect) {
            let _ = writeln!(
                out,
                "    {:<28} flagged as expected ({})",
                f.name,
                f.expect.code()
            );
        } else {
            summary
                .fixture_failures
                .push(format!("{}: expected {} not reported", f.name, f.expect.code()));
            let _ = writeln!(out, "    {:<28} MISSED {}", f.name, f.expect.code());
        }
    }
    for f in mpisim::broken_fixtures() {
        executed += 1;
        let report = f.explore();
        let codes = report.nominal.codes();
        if codes.len() == 1 && codes.contains(&f.expect) {
            let _ = writeln!(
                out,
                "    {:<28} rejected as expected ({})",
                f.name,
                f.expect.code()
            );
        } else {
            summary.fixture_failures.push(format!(
                "{}: expected exactly {}, found {:?}",
                f.name,
                f.expect.code(),
                codes
            ));
            let _ = writeln!(out, "    {:<28} MISSED {}", f.name, f.expect.code());
        }
    }
    if executed != EXPECTED_FIXTURES {
        summary.fixture_failures.push(format!(
            "fixture runner executed {executed} fixtures, expected {EXPECTED_FIXTURES} \
             (a fixture family was added or dropped without updating the runner)"
        ));
    }
}

// ------------------------------------------------------------------
// Cost report (`esm-lint --cost-report`) and the regression baseline
// ------------------------------------------------------------------

/// Cost-model evaluation of one target: the naive (OpenACC-style)
/// execution of the source graph vs the compiled execution of the
/// fused + hoisted graph with store-elided transients.
pub struct CostRow {
    pub name: String,
    pub naive: ProgramCost,
    pub optimized: ProgramCost,
    /// Per-access lookups on the source graph (what the naive backend
    /// resolves) vs unique resolutions on the optimized graph — the
    /// §5.2 headline ratio.
    pub lookups_before: usize,
    pub lookups_after: usize,
    pub reduction: f64,
    pub transients: usize,
    pub refusals: usize,
}

/// Evaluate the static cost model on every builtin target.
pub fn cost_report() -> Vec<CostRow> {
    let roof = Roofline::gh200_dace();
    builtin_targets()
        .iter()
        .map(|t| {
            let inputs = CostInputs {
                ctx: &t.ctx,
                sizes: &t.sizes,
                elided_stores: &[],
            };
            let naive = cost::analyze_naive(&t.sdfg, &inputs, &roof);
            let (hoisted, hoist) = gh200_hoisted_pipeline(&t.sdfg);
            let hoisted_ctx = hoist.declare(&t.ctx);
            let elided = hoist.transient_names();
            let hinputs = CostInputs {
                ctx: &hoisted_ctx,
                sizes: &t.sizes,
                elided_stores: &elided,
            };
            let optimized = cost::analyze_compiled(&hoisted, &hinputs, &roof);
            CostRow {
                name: t.name.to_string(),
                lookups_before: hoist.lookups_before,
                lookups_after: hoist.lookups_after,
                reduction: hoist.reduction_factor(),
                transients: hoist.transients.len(),
                refusals: hoist.refusals.len(),
                naive,
                optimized,
            }
        })
        .collect()
}

fn stats_json(s: &dace_mini::ExecStats) -> Value {
    json!({
        "map_launches": s.map_launches,
        "index_lookups": s.index_lookups,
        "field_reads": s.field_reads,
        "field_stores": s.field_stores,
    })
}

fn program_cost_json(c: &ProgramCost) -> Value {
    let states: Vec<Value> = c
        .states
        .iter()
        .map(|s| {
            json!({
                "label": s.label,
                "domain": s.domain,
                "entities": s.entities,
                "levels": s.levels,
                "lookups_per_point": s.lookups_per_point,
                "redundant_gathers": s.redundant_gathers,
                "flops": s.flops,
                "direct_bytes": s.direct_bytes,
                "indirect_bytes": s.indirect_bytes,
                "lookup_bytes": s.lookup_bytes,
                "working_set_bytes": s.working_set_bytes,
                "stats": stats_json(&s.stats),
                "predicted_time_s": s.predicted_time_s,
                "intensity": s.intensity,
            })
        })
        .collect();
    json!({
        "model": c.model,
        "lookups_per_point": c.lookups_per_point,
        "redundant_gathers": c.redundant_gathers,
        "flops": c.flops,
        "bytes": c.bytes,
        "working_set_bytes": c.working_set_bytes,
        "stats": stats_json(&c.stats),
        "predicted_time_s": c.predicted_time_s,
        "intensity": c.intensity,
        "states": states,
    })
}

/// The full machine-readable report (`results/cost_model.json`).
pub fn cost_report_json(rows: &[CostRow]) -> Value {
    let roof = Roofline::gh200_dace();
    let targets: Vec<Value> = rows
        .iter()
        .map(|r| {
            json!({
                "name": r.name,
                "lookups_before": r.lookups_before,
                "lookups_after": r.lookups_after,
                "reduction_factor": r.reduction,
                "transients": r.transients,
                "refusals": r.refusals,
                "naive": program_cost_json(&r.naive),
                "optimized": program_cost_json(&r.optimized),
            })
        })
        .collect();
    json!({
        "machine": roof.name,
        "balance_flops_per_byte": roof.balance_flops_per_byte(),
        "targets": targets,
    })
}

/// The regression baseline (`results/cost_baseline.json`): one entry
/// per target with the two gated quantities of the optimized graph.
pub fn baseline_json(rows: &[CostRow]) -> Value {
    let targets: Vec<Value> = rows
        .iter()
        .map(|r| {
            json!({
                "name": r.name,
                "lookups_per_point": r.optimized.lookups_per_point,
                "predicted_time_s": r.optimized.predicted_time_s,
            })
        })
        .collect();
    json!({ "targets": targets })
}

/// Coerce a JSON number (`U64`/`I64`/`F64`) to `f64`. The shim's writer
/// prints integral floats without `.0`, so a written `8.0` reparses as
/// an integer — numeric reads must accept all three variants.
fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Parse a baseline file back into entries, via the shim's real JSON
/// parser ([`serde_json::from_str`]): the `{ "targets": [ { "name",
/// "lookups_per_point", "predicted_time_s" } ] }` shape
/// [`baseline_json`] writes. Malformed text or entries are skipped —
/// the diff then fails with a missing-entry E0503, which names the fix
/// (`--write-baseline`).
pub fn parse_baseline(text: &str) -> Vec<BaselineEntry> {
    let Ok(root) = serde_json::from_str(text) else {
        return Vec::new();
    };
    let Some(targets) = root.get("targets").and_then(Value::as_array) else {
        return Vec::new();
    };
    targets
        .iter()
        .filter_map(|t| {
            Some(BaselineEntry {
                name: t.get("name")?.as_str()?.to_string(),
                lookups_per_point: num(t.get("lookups_per_point")?)? as usize,
                predicted_time_s: num(t.get("predicted_time_s")?)?,
            })
        })
        .collect()
}

/// Diff a cost report against the checked-in baseline. Returns the
/// human-readable findings and the number of gate failures (E0503
/// regressions plus targets with no baseline entry).
pub fn diff_against_baseline(rows: &[CostRow], baseline: &[BaselineEntry]) -> (String, usize) {
    let mut out = String::new();
    let mut failures = 0;
    for r in rows {
        match baseline.iter().find(|b| b.name == r.name) {
            None => {
                failures += 1;
                let _ = writeln!(
                    out,
                    "error[E0503]: target `{}` has no baseline entry; \
                     regenerate with --write-baseline",
                    r.name
                );
            }
            Some(base) => {
                let diags = cost::check_regression(&r.optimized, base);
                failures += diags.len();
                if diags.is_empty() {
                    let _ = writeln!(
                        out,
                        "  {:<14} within baseline ({} lookups/pt, {:.3e} s)",
                        r.name, base.lookups_per_point, base.predicted_time_s
                    );
                }
                for d in &diags {
                    let _ = writeln!(out, "{}", dace_mini::diag::render(d));
                }
            }
        }
    }
    (out, failures)
}

/// Human-readable cost table for the terminal.
pub fn render_cost_table(rows: &[CostRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<14} {:>9} {:>9} {:>9} {:>12} {:>12} {:>9}",
        "target", "lkups/pt", "deduped", "reduction", "naive [s]", "opt [s]", "AI [f/B]"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<14} {:>9} {:>9} {:>8.2}x {:>12.3e} {:>12.3e} {:>9.3}",
            r.name,
            r.lookups_before,
            r.lookups_after,
            r.reduction,
            r.naive.predicted_time_s,
            r.optimized.predicted_time_s,
            r.optimized.intensity,
        );
    }
    out
}

/// Machine-readable lint summary (`esm-lint --json`).
pub fn lint_summary_json(summary: &LintSummary) -> Value {
    let failures: Vec<Value> = summary
        .fixture_failures
        .iter()
        .map(|f| json!(f))
        .collect();
    json!({
        "targets": summary.targets,
        "errors": summary.errors,
        "warnings": summary.warnings,
        "states_total": summary.states_total,
        "states_parallel_safe": summary.states_parallel_safe,
        "units_errors": summary.units_errors,
        "units_warnings": summary.units_warnings,
        "units_inferred": summary.units_inferred,
        "fluxes_checked": summary.fluxes_checked,
        "protocols": summary.protocols,
        "protocol_fault_runs": summary.protocol_fault_runs,
        "protocol_errors": summary.protocol_errors,
        "fixture_failures": failures,
        "clean": summary.clean(),
    })
}

/// The complete diagnostic-code registry — kernel analysis
/// (E01xx–E06xx, `dace_mini`) plus protocol verification (E07xx,
/// `mpisim`) — as the machine-readable dump behind
/// `esm-lint --list-codes`.
pub fn code_registry_json() -> Value {
    let mut codes: Vec<Value> = dace_mini::analysis::DiagCode::all()
        .iter()
        .map(|c| {
            json!({
                "code": c.code(),
                "severity": match c.severity() {
                    Severity::Warning => "warning",
                    Severity::Error => "error",
                },
                "summary": c.summary(),
            })
        })
        .collect();
    codes.extend(mpisim::ProtoCode::all().iter().map(|c| {
        json!({
            "code": c.code(),
            "severity": "error",
            "summary": c.summary(),
        })
    }));
    json!({ "codes": codes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_targets_lint_clean() {
        let mut out = String::new();
        let summary = run_lint(&mut out);
        assert!(summary.clean(), "lint must pass on the shipped kernels:\n{out}");
        assert_eq!(summary.targets, 3);
        assert!(summary.states_parallel_safe > 0);
        assert_eq!(summary.units_errors, 0, "{out}");
        assert_eq!(summary.units_warnings, 0, "{out}");
        // Every field of every target carries a pinned unit.
        let total_fields: usize = builtin_targets().iter().map(|t| t.ctx.fields.len()).sum();
        assert_eq!(summary.units_inferred, total_fields, "{out}");
        // The whole coupler boundary is under the closure check.
        assert_eq!(summary.fluxes_checked, coupler::fluxreg::registry().len());
    }

    #[test]
    fn a_seeded_unit_bug_fails_the_units_phase() {
        // Gate sanity: misdeclare one input's unit and the dimensional
        // analysis must go red on the dycore suite's own declarations.
        let targets = builtin_targets();
        let t = &targets[1]; // atmo-dsl: units come from the ctx tables
        let mut ctx = t.ctx.clone();
        ctx.units.insert(
            "mflux".to_string(),
            dace_mini::Unit::parse("K").unwrap(),
        );
        let report = check_units(&t.sdfg, &ctx);
        assert!(
            report.errors().count() > 0,
            "a wrong unit declaration must be detected"
        );
    }

    #[test]
    fn conservation_closure_is_wired_to_the_real_registry() {
        let mut out = String::new();
        let mut summary = LintSummary::default();
        run_conservation(&mut out, &mut summary);
        assert_eq!(summary.errors, 0, "{out}");
        assert!(summary.fluxes_checked >= 9, "all coupler fluxes checked");
    }

    #[test]
    fn suite_states_all_certify() {
        let targets = builtin_targets();
        let suite = &targets[0];
        let report = verify_sdfg(&suite.sdfg, &suite.ctx);
        assert!(report.all_parallel_safe());
    }

    #[test]
    fn cost_report_shows_the_papers_8x_on_the_dycore() {
        let rows = cost_report();
        let dycore = rows.iter().find(|r| r.name == "dycore-suite").unwrap();
        assert!(
            dycore.reduction >= 8.0,
            "dycore lookup reduction {:.2}x below the paper's 8x",
            dycore.reduction
        );
        assert_eq!(dycore.optimized.lookups_per_point, dycore.lookups_after);
        assert!(dycore.transients > 0 && dycore.optimized.redundant_gathers == 0);
        assert!(dycore.optimized.predicted_time_s < dycore.naive.predicted_time_s);
    }

    #[test]
    fn baseline_roundtrips_and_gates_regressions() {
        let rows = cost_report();
        let text = serde_json::to_string_pretty(&baseline_json(&rows)).unwrap();
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.len(), rows.len());
        let (out, failures) = diff_against_baseline(&rows, &parsed);
        assert_eq!(failures, 0, "{out}");

        let mut tampered = parsed.clone();
        tampered[0].lookups_per_point = 0;
        tampered[0].predicted_time_s /= 100.0;
        let (out, failures) = diff_against_baseline(&rows, &tampered);
        assert_eq!(failures, 2, "lookups and time must both gate:\n{out}");
        assert!(out.contains("E0503"), "{out}");

        let (_, failures) = diff_against_baseline(&rows, &[]);
        assert_eq!(failures, rows.len(), "missing entries fail the gate");
    }

    #[test]
    fn checked_in_baseline_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/cost_baseline.json");
        let text = std::fs::read_to_string(path)
            .expect("results/cost_baseline.json must be checked in (esm-lint --cost-report --write-baseline)");
        let (out, failures) = diff_against_baseline(&cost_report(), &parse_baseline(&text));
        assert_eq!(failures, 0, "cost regression vs checked-in baseline:\n{out}");
    }

    #[test]
    fn json_summary_round_trips_the_gate_state() {
        let mut out = String::new();
        let summary = run_lint(&mut out);
        let text = serde_json::to_string_pretty(&lint_summary_json(&summary)).unwrap();
        assert!(text.contains("\"clean\": true"), "{text}");
        assert!(text.contains("\"targets\": 3"), "{text}");
        assert!(text.contains("\"protocols\": 3"), "{text}");
        assert!(text.contains("\"protocol_errors\": 0"), "{text}");
    }

    #[test]
    fn protocol_phase_explores_the_driver_rounds_clean() {
        let mut out = String::new();
        let mut summary = LintSummary::default();
        run_protocol(&mut out, &mut summary);
        assert_eq!(summary.protocols, 3, "{out}");
        assert_eq!(summary.protocol_errors, 0, "{out}");
        assert!(summary.protocol_fault_runs > 0, "{out}");
    }

    #[test]
    fn every_broken_protocol_fixture_trips_its_exact_code() {
        for f in mpisim::broken_fixtures() {
            let codes = f.explore().nominal.codes();
            assert_eq!(codes, [f.expect].into(), "{}", f.name);
        }
    }

    #[test]
    fn code_registry_lists_every_family_once() {
        let reg = code_registry_json();
        let codes = reg.get("codes").and_then(Value::as_array).unwrap();
        assert_eq!(codes.len(), 25 + 5, "full E01xx–E07xx registry");
        let mut seen = std::collections::HashSet::new();
        for c in codes {
            let code = c.get("code").unwrap().as_str().unwrap();
            assert!(seen.insert(code.to_string()), "duplicate code {code}");
            let sev = c.get("severity").unwrap().as_str().unwrap();
            assert_eq!(sev, if code.starts_with('W') { "warning" } else { "error" });
            assert!(!c.get("summary").unwrap().as_str().unwrap().is_empty());
        }
        for family in ["E0101", "E0503", "E0605", "E0701", "E0705"] {
            assert!(seen.contains(family), "missing {family}");
        }
    }

    #[test]
    fn a_seeded_bug_fails_the_lint() {
        // Sanity check of the gate itself: corrupt one target context and
        // the run must go red.
        let targets = builtin_targets();
        let t = &targets[0];
        let mut ctx = t.ctx.clone();
        ctx.halo = 0; // the vertical kernel's k±1 is now out of bounds
        let report = verify_sdfg(&t.sdfg, &ctx);
        assert!(!report.is_clean());
    }
}
