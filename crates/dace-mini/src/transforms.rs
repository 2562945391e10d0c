//! Performance metaprograms: SDFG-to-SDFG transformations.
//!
//! These are the paper's "performance metaprograms that transform a piece
//! of a SDFG into a new representation targeted at specific devices" —
//! applied by the performance engineer, **invisible to the scientist's
//! source**. Passes match dataflow structure, so they keep applying when
//! the source changes shape-compatibly.

use crate::analysis::{self, AnalysisContext, AnalysisError, DiagCode, Diagnostic, FieldIo};
use crate::ast::{Expr, FieldAccess, LevelIndex, PointIndex};
use crate::memlet;
use crate::sdfg::{Sdfg, State, Tasklet};
use std::collections::{HashMap, HashSet};

/// Fuse consecutive states with the same domain whenever the dataflow
/// analysis proves it legal: [`analysis::fusion_legality`] checks that no
/// flow, anti, or output dependence crosses the fusion boundary with a
/// non-pointwise point relation or mismatched level window. Everything
/// the query cannot prove safe stays unfused — the pass can only refuse
/// an optimization, never miscompile.
pub fn fuse_maps(sdfg: &Sdfg) -> Sdfg {
    let mut out: Vec<State> = Vec::new();
    for st in &sdfg.states {
        if let Some(prev) = out.last_mut() {
            if analysis::fusion_legality(prev, st).is_ok() {
                merge_into(prev, st);
                continue;
            }
        }
        out.push(st.clone());
    }
    Sdfg {
        name: format!("{}_fused", sdfg.name),
        states: out,
        units: sdfg.units.clone(),
    }
}

fn merge_into(prev: &mut State, st: &State) {
    prev.label = format!("{}+{}", prev.label, st.label);
    prev.map.over_levels |= st.map.over_levels;
    prev.map.tasklets.extend(st.map.tasklets.iter().cloned());
}

/// Fuse exactly one pair, or explain precisely why not: the typed
/// [`AnalysisError`] carries the violated dependence with its source
/// span. This is the API for callers that *require* fusion (rather than
/// opportunistically applying it) and want a diagnosable refusal.
pub fn try_fuse_pair(a: &State, b: &State) -> Result<State, AnalysisError> {
    analysis::fusion_legality(a, b).map_err(|d| AnalysisError::new(vec![d]))?;
    let mut merged = a.clone();
    merge_into(&mut merged, b);
    Ok(merged)
}

/// Report of the index-lookup deduplication pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DedupReport {
    /// Per-point lookups before (each access resolves its own index).
    pub lookups_before: usize,
    /// Per-point lookups after (unique (relation, slot) per state).
    pub lookups_after: usize,
}

impl DedupReport {
    pub fn reduction_factor(&self) -> f64 {
        self.lookups_before as f64 / self.lookups_after.max(1) as f64
    }
}

/// The IndexLookupDedup pass is realized inside the compiled executor
/// (`exec::compile`): this function reports what it achieves on a given
/// graph. Mirrors §5.2: "we can reduce the number of integer index
/// lookups required per grid point by an average factor of 8x".
pub fn index_dedup_report(sdfg: &Sdfg) -> DedupReport {
    DedupReport {
        lookups_before: sdfg.index_lookups_naive(),
        lookups_after: sdfg.index_lookups_deduped(),
    }
}

/// The full GH200-targeted metaprogram of the paper: fuse, deduplicate
/// lookups (via the compiled executor), stream columns.
pub fn gh200_pipeline(sdfg: &Sdfg) -> (Sdfg, DedupReport) {
    let fused = fuse_maps(sdfg);
    let report = index_dedup_report(&fused);
    (fused, report)
}

// ------------------------------------------------------------------
// Gather hoisting (the 8x metaprogram, realized in the IR)
// ------------------------------------------------------------------

/// Tuning knobs of [`hoist_gathers`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoistOptions {
    /// Cost-model precondition: a scope is only transformed when
    /// `lookups_before / lookups_after >= min_gain` (per-access gather
    /// count vs unique `(relation, slot)` count). Below the threshold the
    /// extra transients aren't worth it and the pass refuses.
    pub min_gain: f64,
}

impl Default for HoistOptions {
    fn default() -> HoistOptions {
        HoistOptions { min_gain: 1.5 }
    }
}

/// One gather materialized into a transient.
#[derive(Debug, Clone, PartialEq)]
pub struct HoistedGather {
    /// Name of the introduced transient.
    pub transient: String,
    /// The gathered field and its access relation.
    pub field: String,
    pub relation: String,
    pub slot: usize,
    pub level: LevelIndex,
    /// Domain of the scope (= domain of the transient).
    pub domain: String,
    /// 3-D transient (gather level depends on `k`) vs 2-D.
    pub level_dependent: bool,
    /// How many reads the transient replaces.
    pub uses: usize,
}

/// Outcome of [`hoist_gathers`] / [`gh200_hoisted_pipeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct HoistReport {
    /// Per-point lookups of the *input* graph when every gather resolves
    /// its own index (per-access count — what the naive backend does).
    pub lookups_before: usize,
    /// Per-point lookups of the transformed graph: unique
    /// `(relation, slot)` per scope, which is exactly what the compiled
    /// executor resolves once the gathers are materialized.
    pub lookups_after: usize,
    pub transients: Vec<HoistedGather>,
    /// Scopes (or candidates) the pass refused, with the reason.
    pub refusals: Vec<Diagnostic>,
    pub states_hoisted: usize,
}

impl HoistReport {
    /// The §5.2 headline ratio (1.0 for a graph with no gathers at all).
    pub fn reduction_factor(&self) -> f64 {
        if self.lookups_before == 0 {
            return 1.0;
        }
        self.lookups_before as f64 / self.lookups_after.max(1) as f64
    }

    pub fn transient_names(&self) -> Vec<String> {
        self.transients.iter().map(|t| t.transient.clone()).collect()
    }

    /// Declare the introduced transients in an analysis context so the
    /// verifier can re-certify the transformed graph.
    pub fn declare(&self, ctx: &AnalysisContext) -> AnalysisContext {
        let mut out = ctx.clone();
        for t in &self.transients {
            out = out.field(&t.transient, &t.domain, t.level_dependent, FieldIo::Intermediate);
        }
        out
    }
}

type GatherKey = (String, String, usize, LevelIndex);

fn level_tag(level: LevelIndex) -> String {
    match level {
        LevelIndex::Surface => "s".to_string(),
        LevelIndex::K => "k".to_string(),
        LevelIndex::KOffset(o) if o >= 0 => format!("kp{o}"),
        LevelIndex::KOffset(o) => format!("km{}", -o),
        LevelIndex::Fixed(f) => format!("f{f}"),
    }
}

/// Common-subexpression elimination of repeated indirect gathers within
/// each map body — the paper's metaprogram behind the 8x lookup
/// reduction, made explicit in the IR. Every gather of the same
/// `(field, relation, slot, level)` appearing two or more times in one
/// scope is materialized once into a transient by a prepended gather
/// tasklet; the consumers read the transient pointwise (served entirely
/// by register forwarding in the compiled executor, so the transient
/// needs no memory at all — see `CompiledSdfg::elide_transient_stores`).
///
/// The pass can only refuse, never miscompile:
///
/// * **Legality** (memlet dependence check): a gather of a field the
///   same scope *writes* cannot move to the top of the body — the
///   candidate is skipped and recorded in `refusals`.
/// * **Cost-model precondition**: the scope is only transformed when
///   `lookups_before / lookups_after >= opts.min_gain`; otherwise it is
///   left untouched with a refusal entry.
pub fn hoist_gathers(sdfg: &Sdfg, opts: &HoistOptions) -> (Sdfg, HoistReport) {
    let mut existing: HashSet<String> = sdfg.fields().into_iter().collect();
    let mut report = HoistReport {
        lookups_before: sdfg.index_lookups_naive(),
        lookups_after: 0,
        transients: Vec::new(),
        refusals: Vec::new(),
        states_hoisted: 0,
    };
    let mut out_states = Vec::new();

    for st in &sdfg.states {
        let mem = memlet::state_memlets(st);

        // Count gather occurrences per key, in first-occurrence order.
        let mut occ: Vec<(GatherKey, usize, FieldAccess)> = Vec::new();
        for t in &st.map.tasklets {
            for a in t.code.accesses() {
                if let PointIndex::Lookup { relation, slot } = &a.point {
                    let key = (a.field.clone(), relation.clone(), *slot, a.level);
                    match occ.iter_mut().find(|(k, _, _)| *k == key) {
                        Some((_, n, _)) => *n += 1,
                        None => occ.push((key, 1, a.clone())),
                    }
                }
            }
        }

        // Legality filter: candidates gathering a field this scope writes.
        let mut hoistable: Vec<(GatherKey, usize, FieldAccess)> = Vec::new();
        for (key, n, first) in occ.iter() {
            if *n < 2 {
                continue;
            }
            if mem.writes_field(&key.0) {
                report.refusals.push(Diagnostic::new(
                    DiagCode::RedundantGather,
                    format!(
                        "cannot hoist gather of `{}`: the scope writes the field, \
                         so the gathered value is order-dependent",
                        key.0
                    ),
                    first.span,
                    &st.label,
                ));
                continue;
            }
            hoistable.push((key.clone(), *n, first.clone()));
        }

        if hoistable.is_empty() {
            out_states.push(st.clone());
            continue;
        }

        // Cost-model precondition on the scope: per-access gathers before
        // vs unique (relation, slot) index resolutions after.
        let before: usize = occ.iter().map(|(_, n, _)| *n).sum();
        let after: HashSet<(&str, usize)> =
            occ.iter().map(|((_, r, s, _), _, _)| (r.as_str(), *s)).collect();
        let gain = before as f64 / after.len().max(1) as f64;
        if gain < opts.min_gain {
            report.refusals.push(Diagnostic::new(
                DiagCode::RedundantGather,
                format!(
                    "cost model refuses hoist: lookup reduction {gain:.2}x is below \
                     the {:.2}x threshold",
                    opts.min_gain
                ),
                st.span,
                &st.label,
            ));
            out_states.push(st.clone());
            continue;
        }

        // Build one gather tasklet per hoisted key and the access
        // rewrite map. The gather reads exactly what the consumers read
        // (same field, relation, slot, and level — including KOffset
        // clamping), so values are bitwise identical.
        let mut rewrite: HashMap<GatherKey, (String, LevelIndex)> = HashMap::new();
        let mut gather_tasklets = Vec::new();
        for (key, n, first) in &hoistable {
            let (field, relation, slot, level) = key;
            let level_dependent =
                matches!(level, LevelIndex::K | LevelIndex::KOffset(_));
            let read_level = if level_dependent { LevelIndex::K } else { LevelIndex::Surface };
            let mut name = format!("g_{field}_{relation}{slot}{}", level_tag(*level));
            while existing.contains(&name) {
                name.push('h');
            }
            existing.insert(name.clone());
            let write = FieldAccess {
                field: name.clone(),
                point: PointIndex::Own,
                level: read_level,
                span: first.span,
            };
            gather_tasklets.push(Tasklet {
                write,
                code: Expr::Access(first.clone()),
                reads: vec![first.clone()],
            });
            rewrite.insert(key.clone(), (name.clone(), read_level));
            report.transients.push(HoistedGather {
                transient: name,
                field: field.clone(),
                relation: relation.clone(),
                slot: *slot,
                level: *level,
                domain: st.map.domain.clone(),
                level_dependent,
                uses: *n,
            });
        }

        let mut tasklets = gather_tasklets;
        for t in &st.map.tasklets {
            let code = rewrite_gathers(&t.code, &rewrite);
            tasklets.push(Tasklet {
                write: t.write.clone(),
                reads: code.accesses().into_iter().cloned().collect(),
                code,
            });
        }
        report.states_hoisted += 1;
        let mut map = st.map.clone();
        map.tasklets = tasklets;
        out_states.push(State {
            label: st.label.clone(),
            map,
            span: st.span,
        });
    }

    let out = Sdfg {
        name: format!("{}_hoisted", sdfg.name),
        states: out_states,
        units: sdfg.units.clone(),
    };
    report.lookups_after = out.index_lookups_deduped();
    (out, report)
}

fn rewrite_gathers(e: &Expr, rewrite: &HashMap<GatherKey, (String, LevelIndex)>) -> Expr {
    match e {
        Expr::Num(v) => Expr::Num(*v),
        Expr::Neg(x) => Expr::Neg(Box::new(rewrite_gathers(x, rewrite))),
        Expr::Bin(op, a, b) => Expr::Bin(
            *op,
            Box::new(rewrite_gathers(a, rewrite)),
            Box::new(rewrite_gathers(b, rewrite)),
        ),
        Expr::Access(a) => {
            if let PointIndex::Lookup { relation, slot } = &a.point {
                let key = (a.field.clone(), relation.clone(), *slot, a.level);
                if let Some((transient, level)) = rewrite.get(&key) {
                    return Expr::Access(FieldAccess {
                        field: transient.clone(),
                        point: PointIndex::Own,
                        level: *level,
                        span: a.span,
                    });
                }
            }
            Expr::Access(a.clone())
        }
        Expr::Call(intr, x, span) => {
            Expr::Call(*intr, Box::new(rewrite_gathers(x, rewrite)), *span)
        }
    }
}

/// The GH200 metaprogram with the gather CSE realized in the IR: fuse,
/// hoist redundant gathers into transients, stream columns. The report's
/// `lookups_before` counts the *source* graph per-access (what the naive
/// backend resolves), `lookups_after` the transformed graph's unique
/// `(relation, slot)` resolutions — the §5.2 ratio.
pub fn gh200_hoisted_pipeline(sdfg: &Sdfg) -> (Sdfg, HoistReport) {
    let fused = fuse_maps(sdfg);
    let (hoisted, mut report) = hoist_gathers(&fused, &HoistOptions::default());
    report.lookups_before = sdfg.index_lookups_naive();
    report.lookups_after = hoisted.index_lookups_deduped();
    (hoisted, report)
}

/// [`gh200_hoisted_pipeline`] plus certification: declares the hoisted
/// transients in a copy of `ctx` and verifies the optimized graph, so
/// callers get the transformed SDFG together with the `AnalysisReport`
/// that gates parallel execution and graph recording in one call.
pub fn gh200_certified_pipeline(
    sdfg: &Sdfg,
    ctx: &crate::analysis::AnalysisContext,
) -> (Sdfg, crate::analysis::AnalysisReport, HoistReport) {
    let (opt, hoist) = gh200_hoisted_pipeline(sdfg);
    let ctx = hoist.declare(ctx);
    let report = crate::analysis::verify_sdfg(&opt, &ctx);
    (opt, report, hoist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::sdfg::Sdfg;

    fn lower(src: &str) -> Sdfg {
        Sdfg::from_program("t", &parse(src).unwrap())
    }

    #[test]
    fn fusion_merges_same_domain_states() {
        let sdfg = lower(
            r#"
            kernel a over cells
              x(p,k) = inp(p,k) * 2;
              y(p,k) = x(p,k) + 1;
              z(p,k) = y(p,k) * inp(p,k);
            end
        "#,
        );
        assert_eq!(sdfg.states.len(), 3);
        let fused = fuse_maps(&sdfg);
        assert_eq!(fused.states.len(), 1, "pointwise chain fuses fully");
        assert_eq!(fused.states[0].map.tasklets.len(), 3);
        assert_eq!(fused.n_map_launches(), 1);
    }

    #[test]
    fn fusion_blocked_by_neighbor_read_of_written_field() {
        let sdfg = lower(
            r#"
            kernel a over cells
              x(p,k) = inp(p,k) * 2;
              y(p,k) = x(neighbor(p,0), k);
            end
        "#,
        );
        let fused = fuse_maps(&sdfg);
        assert_eq!(
            fused.states.len(),
            2,
            "gather of a freshly written field must stay in a later state"
        );
    }

    #[test]
    fn fusion_blocked_across_domains() {
        let sdfg = lower(
            r#"
            kernel a over cells x(p,k) = 1; end
            kernel b over edges y(p,k) = 2; end
        "#,
        );
        assert_eq!(fuse_maps(&sdfg).states.len(), 2);
    }

    #[test]
    fn fusion_blocked_by_vertical_shift_of_written_field() {
        let sdfg = lower(
            r#"
            kernel a over cells
              x(p,k) = inp(p,k);
              y(p,k) = x(p,k+1);
            end
        "#,
        );
        assert_eq!(fuse_maps(&sdfg).states.len(), 2);
    }

    #[test]
    fn fusion_blocked_by_fixed_level_read_of_written_field() {
        // Regression: the pre-analysis `can_fuse` accepted this (Own
        // point, not KOffset) and the fused form read stale `x(p,2)` for
        // k < 2 — a silent miscompile vs the naive backend. The analysis
        // rejects it as a flow dependence with mismatched level windows.
        let sdfg = lower(
            r#"
            kernel a over cells
              x(p,k) = inp(p,k);
              y(p,k) = x(p,2);
            end
        "#,
        );
        assert_eq!(fuse_maps(&sdfg).states.len(), 2);
    }

    #[test]
    fn fusion_blocked_by_anti_dependence_on_vertical_shift() {
        // Regression: reading x(p,k-1) must complete before x is
        // overwritten; the old check only looked at flow dependences and
        // fused this, so k >= 1 read freshly-written values.
        let sdfg = lower(
            r#"
            kernel a over cells
              y(p,k) = x(p,k-1);
              x(p,k) = inp(p,k);
            end
        "#,
        );
        assert_eq!(fuse_maps(&sdfg).states.len(), 2);
    }

    #[test]
    fn try_fuse_pair_reports_the_violated_dependence() {
        use crate::analysis::DiagCode;
        let sdfg = lower(
            r#"
            kernel a over cells
              x(p,k) = inp(p,k) * 2;
              y(p,k) = x(neighbor(p,0), k);
            end
        "#,
        );
        let err = try_fuse_pair(&sdfg.states[0], &sdfg.states[1]).unwrap_err();
        assert_eq!(err.primary().code, DiagCode::FusionFlowDep);
        assert!(!err.primary().span.is_synthetic(), "refusal carries a span");

        let ok = lower(
            r#"
            kernel a over cells
              x(p,k) = inp(p,k) * 2;
              y(p,k) = x(p,k) + 1;
            end
        "#,
        );
        let merged = try_fuse_pair(&ok.states[0], &ok.states[1]).unwrap();
        assert_eq!(merged.map.tasklets.len(), 2);
    }

    #[test]
    fn dedup_reduction_on_multi_gather_body() {
        // Four statements each gathering through the same three edges:
        // naive 12 lookups/point, fused+deduped 3 -> 4x here; the full
        // dycore suite reaches >= 8x (asserted in suite tests).
        let sdfg = lower(
            r#"
            kernel a over cells
              d1(p,k) = f1(edge(p,0),k) + f1(edge(p,1),k) + f1(edge(p,2),k);
              d2(p,k) = f2(edge(p,0),k) + f2(edge(p,1),k) + f2(edge(p,2),k);
              d3(p,k) = f3(edge(p,0),k) + f3(edge(p,1),k) + f3(edge(p,2),k);
              d4(p,k) = f4(edge(p,0),k) + f4(edge(p,1),k) + f4(edge(p,2),k);
            end
        "#,
        );
        let (fused, report) = gh200_pipeline(&sdfg);
        assert_eq!(fused.states.len(), 1);
        assert_eq!(report.lookups_before, 12);
        assert_eq!(report.lookups_after, 3);
        assert!((report.reduction_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hoist_materializes_each_repeated_gather_once() {
        let sdfg = lower(
            r#"
            kernel a over cells
              d1(p,k) = f(edge(p,0),k) + f(edge(p,1),k);
              d2(p,k) = f(edge(p,0),k) * f(edge(p,1),k);
            end
        "#,
        );
        let fused = fuse_maps(&sdfg);
        let (hoisted, report) = hoist_gathers(&fused, &HoistOptions::default());

        assert_eq!(report.states_hoisted, 1);
        assert!(report.refusals.is_empty());
        assert_eq!(
            report.transient_names(),
            vec!["g_f_edge0k", "g_f_edge1k"],
            "one transient per repeated (field, relation, slot, level)"
        );
        assert!(report.transients.iter().all(|t| t.uses == 2 && t.level_dependent));

        // Two prepended gather tasklets, then the rewritten consumers.
        let tasklets = &hoisted.states[0].map.tasklets;
        assert_eq!(tasklets.len(), 4);
        assert_eq!(tasklets[0].write.field, "g_f_edge0k");
        assert_eq!(tasklets[0].write.point, PointIndex::Own);
        assert_eq!(tasklets[0].write.level, LevelIndex::K);
        // Consumers gather nothing any more: every remaining indirect
        // access lives in a gather tasklet.
        for t in &tasklets[2..] {
            assert!(
                t.reads.iter().all(|a| a.point == PointIndex::Own),
                "consumer still gathers: {t:?}"
            );
        }
        assert_eq!(sdfg.index_lookups_naive(), 4);
        assert_eq!(hoisted.index_lookups_deduped(), 2);
    }

    #[test]
    fn hoist_refuses_gather_of_a_field_the_scope_writes() {
        let sdfg = lower(
            r#"
            kernel a over cells
              x(p,k) = x(neighbor(p,0),k) + x(neighbor(p,0),k);
            end
        "#,
        );
        let (out, report) = hoist_gathers(&sdfg, &HoistOptions::default());
        assert_eq!(report.transients.len(), 0);
        assert_eq!(report.states_hoisted, 0);
        assert_eq!(report.refusals.len(), 1);
        assert_eq!(report.refusals[0].code, DiagCode::RedundantGather);
        assert!(report.refusals[0].message.contains("order-dependent"));
        assert!(!report.refusals[0].span.is_synthetic());
        assert_eq!(out.states[0].map.tasklets, sdfg.states[0].map.tasklets);
    }

    #[test]
    fn hoist_refuses_when_gain_is_below_threshold() {
        // One redundant pair among three unique gathers: 5 per-access
        // lookups vs 4 unique -> 1.25x, below the default 1.5x bar.
        let sdfg = lower(
            r#"
            kernel a over cells
              d(p,k) = f(edge(p,0),k) + f(edge(p,0),k)
                     + g(edge(p,1),k) + h(edge(p,2),k) + q(neighbor(p,0),k);
            end
        "#,
        );
        let (out, report) = hoist_gathers(&sdfg, &HoistOptions::default());
        assert!(report.transients.is_empty());
        assert_eq!(report.refusals.len(), 1);
        assert!(report.refusals[0].message.contains("cost model refuses"));
        assert_eq!(out.states[0].map.tasklets, sdfg.states[0].map.tasklets);

        // A permissive threshold lets the same scope transform.
        let (out2, report2) = hoist_gathers(&sdfg, &HoistOptions { min_gain: 1.0 });
        assert_eq!(report2.transients.len(), 1);
        assert_eq!(out2.states[0].map.tasklets.len(), 2);
    }

    #[test]
    fn hoist_transient_names_avoid_existing_fields() {
        let sdfg = lower(
            r#"
            kernel a over cells
              d(p,k) = f(edge(p,0),k) + f(edge(p,0),k) + g_f_edge0k(p,k);
            end
        "#,
        );
        let (_, report) = hoist_gathers(&sdfg, &HoistOptions::default());
        assert_eq!(report.transient_names(), vec!["g_f_edge0kh"]);
    }
}
