//! Deliberately-broken kernels for exercising the verifier.
//!
//! Each fixture is a small SDFG (usually lowered from DSL source, so the
//! diagnostics carry real spans; the racy-scatter one is programmatic
//! because the parser — correctly — refuses lookup write targets) paired
//! with the diagnostic codes the analysis must produce. `esm-lint` runs
//! all of them and fails if any expected finding goes undetected;
//! `analysis_properties.rs` mutates clean kernels into these shapes and
//! checks rejection.

use crate::analysis::{AnalysisContext, DiagCode, FieldIo};
use crate::ast::{Expr, FieldAccess, LevelIndex, PointIndex};
use crate::loc::Span;
use crate::parser::parse;
use crate::sdfg::{MapScope, Sdfg, State, Tasklet};

/// A negative (or warning) fixture for the whole-SDFG verifier.
pub struct Fixture {
    pub name: &'static str,
    /// DSL source when the kernel is expressible in the DSL (shown by
    /// `esm-lint` next to the diagnostics); empty for programmatic IR.
    pub source: &'static str,
    pub sdfg: Sdfg,
    pub ctx: AnalysisContext,
    /// Codes that MUST appear in the report.
    pub expect: Vec<DiagCode>,
}

/// A perf fixture for the static cost model: the fused kernel is run
/// through [`crate::cost::perf_diagnostics`] (and, when `baseline` is
/// set, [`crate::cost::check_regression`]) and must produce the
/// expected codes.
pub struct PerfFixture {
    pub name: &'static str,
    pub source: &'static str,
    pub sdfg: Sdfg,
    pub ctx: AnalysisContext,
    pub sizes: crate::cost::DomainSizes,
    /// Baseline to diff the compiled-model cost against (tampered low
    /// for the regression fixture, so the gate must fire).
    pub baseline: Option<crate::cost::BaselineEntry>,
    /// Codes that MUST appear among the perf + regression diagnostics.
    pub expect: Vec<DiagCode>,
}

/// A negative fixture for the fusion-legality check: states `pair.0`
/// and `pair.1` must refuse to fuse with the given code.
pub struct FusionFixture {
    pub name: &'static str,
    pub source: &'static str,
    pub sdfg: Sdfg,
    pub pair: (usize, usize),
    pub expect: DiagCode,
}

/// A negative (or warning) fixture for the units-inference pass
/// ([`crate::units::check_units`]): one expected code anchored at an
/// exact source position.
pub struct UnitsFixture {
    pub name: &'static str,
    pub source: &'static str,
    pub sdfg: Sdfg,
    pub ctx: AnalysisContext,
    pub expect: DiagCode,
    /// Exact `(line, col)` the diagnostic must anchor to.
    pub at: (u32, u32),
}

/// A negative fixture for the conservation-closure check
/// ([`crate::units::check_conservation`]): a broken coupler boundary.
/// Boundary findings are registry-level, not source-level, so the
/// expected span is the synthetic one.
pub struct ConservationFixture {
    pub name: &'static str,
    pub emitted: Vec<crate::units::FluxSpec>,
    pub consumed: Vec<crate::units::FluxConsumer>,
    pub ledgers: Vec<crate::units::LedgerEntry>,
    pub expect: DiagCode,
}

fn base_ctx() -> AnalysisContext {
    AnalysisContext::new()
        .domain("cells")
        .domain("edges")
        .relation("edge", "cells", "edges", 3)
        .relation("neighbor", "cells", "cells", 3)
        .field("inp", "cells", true, FieldIo::Input)
        .field("x", "cells", true, FieldIo::Input)
        .field("vn_e", "edges", true, FieldIo::Input)
        .field("th", "cells", true, FieldIo::Input)
        .field("out", "cells", true, FieldIo::Output)
        .field("out2", "cells", true, FieldIo::Output)
        .with_halo(1)
        .with_nlev(30)
}

fn lower(name: &str, src: &str) -> Sdfg {
    Sdfg::from_program(name, &parse(src).expect("fixture source must parse"))
}

fn own(field: &str, level: LevelIndex) -> FieldAccess {
    FieldAccess {
        field: field.into(),
        point: PointIndex::Own,
        level,
        span: Span::synthetic(),
    }
}

fn lookup(field: &str, relation: &str, slot: usize, level: LevelIndex) -> FieldAccess {
    FieldAccess {
        field: field.into(),
        point: PointIndex::Lookup {
            relation: relation.into(),
            slot,
        },
        level,
        span: Span::synthetic(),
    }
}

/// `out(neighbor(p,0),k) = inp(p,k)` — a scatter that is NOT an
/// accumulation: two cells sharing a neighbor race on the store. The
/// parser refuses lookup write targets, so this is programmatic IR.
fn racy_scatter() -> Fixture {
    let target = lookup("out", "neighbor", 0, LevelIndex::K);
    let read = own("inp", LevelIndex::K);
    let sdfg = Sdfg {
        name: "racy_scatter".into(),
        states: vec![State {
            label: "scatter_0".into(),
            map: MapScope {
                domain: "cells".into(),
                over_levels: true,
                tasklets: vec![Tasklet {
                    write: target,
                    reads: vec![read.clone()],
                    code: Expr::Access(read),
                }],
            },
            span: Span::synthetic(),
        }],
        units: vec![],
    };
    Fixture {
        name: "racy_scatter",
        source: "",
        sdfg,
        ctx: base_ctx(),
        expect: vec![DiagCode::RacyWrite],
    }
}

/// Scatter-accumulate: `out(neighbor(p,0),k) = out(neighbor(p,0),k) +
/// inp(p,k)` — the reduction pattern. Flagged W0103, certified
/// `Reduction` (never ParallelSafe), but not an error.
fn scatter_reduction() -> Fixture {
    let target = lookup("out", "neighbor", 0, LevelIndex::K);
    let acc_read = target.clone();
    let inp_read = own("inp", LevelIndex::K);
    let sdfg = Sdfg {
        name: "scatter_reduction".into(),
        states: vec![State {
            label: "accumulate_0".into(),
            map: MapScope {
                domain: "cells".into(),
                over_levels: true,
                tasklets: vec![Tasklet {
                    write: target,
                    reads: vec![acc_read.clone(), inp_read.clone()],
                    code: Expr::Bin(
                        crate::ast::BinOp::Add,
                        Box::new(Expr::Access(acc_read)),
                        Box::new(Expr::Access(inp_read)),
                    ),
                }],
            },
            span: Span::synthetic(),
        }],
        units: vec![],
    };
    Fixture {
        name: "scatter_reduction",
        source: "",
        sdfg,
        ctx: base_ctx(),
        expect: vec![DiagCode::ScatterReduction],
    }
}

const RACY_JACOBI_SRC: &str = r#"kernel jacobi over cells
  out(p,k) = 0.25 * out(neighbor(p,0),k) + 0.75 * inp(p,k);
end"#;

const HALO_OVERFLOW_SRC: &str = r#"kernel vertical over cells
  out(p,k) = th(p,k+2) - th(p,k-1);
end"#;

const FIXED_OOB_SRC: &str = r#"kernel toplevel over cells
  out(p,k) = inp(p,k) - inp(p,60);
end"#;

const DOMAIN_MISMATCH_SRC: &str = r#"kernel confused over cells
  out(p,k) = vn_e(p,k) + inp(neighbor(p,9),k);
end"#;

const READ_BEFORE_WRITE_SRC: &str = r#"kernel ghostly over cells
  out(p,k) = ghost(p,k) * 2;
  dead(p,k) = inp(p,k);
end"#;

const ILLEGAL_FUSION_ANTI_SRC: &str = r#"kernel scan over cells
  out(p,k) = x(p,k-1);
  x(p,k) = inp(p,k);
end"#;

const ILLEGAL_FUSION_FLOW_SRC: &str = r#"kernel broadcast over cells
  out(p,k) = inp(p,k);
  out2(p,k) = out(p,2);
end"#;

/// All verifier fixtures: each must produce its expected codes (and the
/// error-severity ones must make the report non-clean).
pub fn verifier_fixtures() -> Vec<Fixture> {
    vec![
        racy_scatter(),
        scatter_reduction(),
        Fixture {
            name: "racy_jacobi",
            source: RACY_JACOBI_SRC,
            sdfg: lower("racy_jacobi", RACY_JACOBI_SRC),
            ctx: base_ctx(),
            expect: vec![DiagCode::RacyRead],
        },
        Fixture {
            name: "halo_overflow",
            source: HALO_OVERFLOW_SRC,
            sdfg: lower("halo_overflow", HALO_OVERFLOW_SRC),
            ctx: base_ctx(),
            expect: vec![DiagCode::HaloOverflow],
        },
        Fixture {
            name: "fixed_level_oob",
            source: FIXED_OOB_SRC,
            sdfg: lower("fixed_level_oob", FIXED_OOB_SRC),
            ctx: base_ctx(),
            expect: vec![DiagCode::LevelOutOfBounds],
        },
        Fixture {
            name: "domain_and_slot_mismatch",
            source: DOMAIN_MISMATCH_SRC,
            sdfg: lower("domain_and_slot_mismatch", DOMAIN_MISMATCH_SRC),
            ctx: base_ctx(),
            expect: vec![DiagCode::DomainMismatch, DiagCode::SlotOutOfBounds],
        },
        Fixture {
            name: "read_before_write",
            source: READ_BEFORE_WRITE_SRC,
            sdfg: lower("read_before_write", READ_BEFORE_WRITE_SRC),
            ctx: base_ctx()
                .field("ghost", "cells", true, FieldIo::Intermediate)
                .field("dead", "cells", true, FieldIo::Intermediate),
            expect: vec![DiagCode::ReadBeforeWrite, DiagCode::DeadWrite],
        },
    ]
}

const REDUNDANT_GATHER_SRC: &str = r#"kernel wasteful over cells
  out(p,k) = vn_e(edge(p,0),k) * vn_e(edge(p,0),k) + inp(p,k);
  out2(p,k) = vn_e(edge(p,0),k) + vn_e(edge(p,1),k);
end"#;

const COST_REGRESSION_SRC: &str = r#"kernel honest over cells
  out(p,k) = vn_e(edge(p,0),k) + inp(p,k) * th(p,k);
end"#;

fn perf_sizes() -> crate::cost::DomainSizes {
    crate::cost::DomainSizes::new(30)
        .with("cells", 20_000)
        .with("edges", 30_000)
}

/// Perf fixtures for the cost-model diagnostics. The fused form of the
/// redundant-gather kernel loads `vn_e[edge(p,0), k]` three times in one
/// map body (W0501) and sits below the roofline balance point while
/// doing so (W0502); the regression fixture is clean but is diffed
/// against a baseline recorded with impossibly good numbers, so the
/// E0503 gate must fire on both the lookup count and the predicted
/// time.
pub fn perf_fixtures() -> Vec<PerfFixture> {
    vec![
        PerfFixture {
            name: "redundant_gather",
            source: REDUNDANT_GATHER_SRC,
            sdfg: lower("redundant_gather", REDUNDANT_GATHER_SRC),
            ctx: base_ctx(),
            sizes: perf_sizes(),
            baseline: None,
            expect: vec![DiagCode::RedundantGather, DiagCode::BelowRoofline],
        },
        PerfFixture {
            name: "cost_regression",
            source: COST_REGRESSION_SRC,
            sdfg: lower("cost_regression", COST_REGRESSION_SRC),
            ctx: base_ctx(),
            sizes: perf_sizes(),
            baseline: Some(crate::cost::BaselineEntry {
                name: "cost_regression".into(),
                lookups_per_point: 0,
                predicted_time_s: 1e-12,
            }),
            expect: vec![DiagCode::CostRegression],
        },
    ]
}

const UNIT_MISMATCH_ADD_SRC: &str = r#"unit vn = m / s;
unit th = K;
kernel bad_add over cells
  out(p,k) = vn(p,k) + th(p,k);
end"#;

const DIMENSIONED_EXP_SRC: &str = r#"unit th = K;
kernel bad_exp over cells
  out(p,k) = exp(th(p,k));
end"#;

const UNCONSTRAINED_LITERAL_SRC: &str = r#"kernel untethered over cells
  out(p,k) = 9.81 * 2.0;
end"#;

/// Units-inference fixtures: each must produce exactly its expected
/// code at the expected source position. The unit declarations travel
/// through the parser -> AST -> SDFG path, exercising the same plumbing
/// the dycore suite uses.
pub fn units_fixtures() -> Vec<UnitsFixture> {
    vec![
        UnitsFixture {
            name: "unit_mismatch_add",
            source: UNIT_MISMATCH_ADD_SRC,
            sdfg: lower("unit_mismatch_add", UNIT_MISMATCH_ADD_SRC),
            ctx: base_ctx().field("vn", "cells", true, FieldIo::Input),
            expect: DiagCode::UnitMismatch,
            // Anchored at the offending operand `th(p,k)`.
            at: (4, 24),
        },
        UnitsFixture {
            name: "dimensioned_exp",
            source: DIMENSIONED_EXP_SRC,
            sdfg: lower("dimensioned_exp", DIMENSIONED_EXP_SRC),
            ctx: base_ctx(),
            expect: DiagCode::DimensionlessRequired,
            // Anchored at the intrinsic name `exp`.
            at: (3, 14),
        },
        UnitsFixture {
            name: "unconstrained_literal",
            source: UNCONSTRAINED_LITERAL_SRC,
            sdfg: lower("unconstrained_literal", UNCONSTRAINED_LITERAL_SRC),
            ctx: base_ctx(),
            expect: DiagCode::UnconstrainedLiteral,
            // Anchored at the write target `out(p,k)`.
            at: (2, 3),
        },
    ]
}

/// Conservation-closure fixtures: broken coupler boundaries the check
/// must refuse.
pub fn conservation_fixtures() -> Vec<ConservationFixture> {
    use crate::units::{ConservedClass, FluxConsumer, FluxSpec, LedgerEntry};
    let heat = |conserved| FluxSpec {
        name: "heat_flux".into(),
        emitter: "atmosphere".into(),
        unit: "W m^-2".into(),
        conserved,
        positive_down: true,
    };
    vec![
        ConservationFixture {
            name: "interface_unit_mismatch",
            emitted: vec![heat(ConservedClass::None)],
            // The slow side expects a temperature, not an energy flux.
            consumed: vec![FluxConsumer {
                name: "heat_flux".into(),
                consumer: "slow".into(),
                unit: "K".into(),
                positive_down: true,
            }],
            ledgers: vec![],
            expect: DiagCode::InterfaceUnitMismatch,
        },
        ConservationFixture {
            name: "unclosed_energy_flux",
            // Declared to carry energy, consumed correctly — but no
            // budget ledger accumulates it.
            emitted: vec![heat(ConservedClass::Energy)],
            consumed: vec![FluxConsumer {
                name: "heat_flux".into(),
                consumer: "slow".into(),
                unit: "W m^-2".into(),
                positive_down: true,
            }],
            ledgers: vec![LedgerEntry {
                flux: "heat_flux".into(),
                ledger: ConservedClass::Water,
            }],
            expect: DiagCode::UnclosedConservedFlux,
        },
    ]
}

/// Fusion-legality fixtures: each pair must refuse to fuse. Both were
/// silently miscompiled by the pre-analysis `can_fuse` (the fused result
/// diverged bitwise from the naive backend).
pub fn fusion_fixtures() -> Vec<FusionFixture> {
    vec![
        FusionFixture {
            name: "illegal_fusion_anti_dep",
            source: ILLEGAL_FUSION_ANTI_SRC,
            sdfg: lower("illegal_fusion_anti_dep", ILLEGAL_FUSION_ANTI_SRC),
            pair: (0, 1),
            expect: DiagCode::FusionAntiDep,
        },
        FusionFixture {
            name: "illegal_fusion_fixed_level_flow",
            source: ILLEGAL_FUSION_FLOW_SRC,
            sdfg: lower("illegal_fusion_fixed_level_flow", ILLEGAL_FUSION_FLOW_SRC),
            pair: (0, 1),
            expect: DiagCode::FusionFlowDep,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{fusion_legality, verify_sdfg, Certification};

    #[test]
    fn every_verifier_fixture_triggers_its_codes() {
        for f in verifier_fixtures() {
            let rep = verify_sdfg(&f.sdfg, &f.ctx);
            for code in &f.expect {
                assert!(
                    rep.diagnostics.iter().any(|d| d.code == *code),
                    "fixture `{}` missing expected {:?}; got {:?}",
                    f.name,
                    code,
                    rep.diagnostics
                );
            }
        }
    }

    #[test]
    fn racy_fixtures_are_not_parallel_safe() {
        for f in verifier_fixtures() {
            let rep = verify_sdfg(&f.sdfg, &f.ctx);
            match f.name {
                "racy_scatter" | "racy_jacobi" => {
                    assert_eq!(rep.cert(0), Certification::Sequential, "{}", f.name)
                }
                "scatter_reduction" => {
                    assert_eq!(rep.cert(0), Certification::Reduction, "{}", f.name)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_perf_fixture_triggers_its_codes() {
        use crate::cost::{self, CostInputs};
        use crate::transforms::fuse_maps;
        let roof = machine::Roofline::gh200_dace();
        for f in perf_fixtures() {
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
            for code in &f.expect {
                assert!(
                    diags.iter().any(|d| d.code == *code),
                    "perf fixture `{}` missing expected {:?}; got {:?}",
                    f.name,
                    code,
                    diags
                );
            }
            // Perf findings are never fabricated errors: the verifier
            // still certifies these kernels as race-free.
            let rep = verify_sdfg(&f.sdfg, &f.ctx);
            assert!(rep.is_clean(), "perf fixture `{}` must verify clean", f.name);
        }
    }

    #[test]
    fn every_fusion_fixture_is_refused_with_its_code() {
        for f in fusion_fixtures() {
            let (i, j) = f.pair;
            let d = fusion_legality(&f.sdfg.states[i], &f.sdfg.states[j])
                .expect_err(f.name);
            assert_eq!(d.code, f.expect, "fixture `{}`", f.name);
        }
    }

    #[test]
    fn every_units_fixture_triggers_its_code_at_the_exact_span() {
        use crate::units::check_units;
        for f in units_fixtures() {
            let rep = check_units(&f.sdfg, &f.ctx);
            let hit = rep
                .diagnostics
                .iter()
                .find(|d| d.code == f.expect)
                .unwrap_or_else(|| {
                    panic!(
                        "units fixture `{}` missing expected {:?}; got {:?}",
                        f.name, f.expect, rep.diagnostics
                    )
                });
            assert_eq!(
                (hit.span.line, hit.span.col),
                f.at,
                "units fixture `{}` anchored at the wrong position",
                f.name
            );
        }
    }

    #[test]
    fn every_conservation_fixture_triggers_its_code() {
        use crate::units::check_conservation;
        for f in conservation_fixtures() {
            let diags = check_conservation(&f.emitted, &f.consumed, &f.ledgers);
            assert!(
                diags.iter().any(|d| d.code == f.expect),
                "conservation fixture `{}` missing expected {:?}; got {diags:?}",
                f.name,
                f.expect
            );
            assert!(
                diags.iter().all(|d| d.span.is_synthetic()),
                "boundary findings are registry-level, not source-level"
            );
        }
    }

    #[test]
    fn dsl_fixtures_carry_real_spans() {
        for f in verifier_fixtures().iter().filter(|f| !f.source.is_empty()) {
            let rep = verify_sdfg(&f.sdfg, &f.ctx);
            let errs: Vec<_> = rep.errors().collect();
            assert!(
                errs.iter().all(|d| !d.span.is_synthetic()),
                "fixture `{}` produced a spanless error diagnostic",
                f.name
            );
        }
    }
}
