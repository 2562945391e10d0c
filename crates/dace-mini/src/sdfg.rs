//! The Stateful Dataflow Graph (SDFG) intermediate representation.
//!
//! Following Ben-Nun et al. (SC'19): a linear sequence of **states**, each
//! containing one parallel **map** over a grid-entity domain (and
//! optionally the vertical dimension) whose **tasklets** carry explicit
//! **memlets** — every datum moved is visible in the IR, which is what
//! makes the transformation passes (`transforms`) mechanical and safe.

use crate::ast::{Expr, FieldAccess, Kernel, Program, Statement};
use crate::loc::Span;
use crate::units::UnitDecl;

/// A tasklet: one assignment with explicit input memlets.
#[derive(Debug, Clone, PartialEq)]
pub struct Tasklet {
    pub write: FieldAccess,
    pub code: Expr,
    /// Explicit input memlets (one per read in `code`, in order).
    pub reads: Vec<FieldAccess>,
}

/// A map scope: parallel loop over `domain` (x levels when `over_levels`).
#[derive(Debug, Clone, PartialEq)]
pub struct MapScope {
    pub domain: String,
    pub over_levels: bool,
    /// Tasklets execute sequentially *per point* (fused bodies).
    pub tasklets: Vec<Tasklet>,
}

/// One SDFG state.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub label: String,
    pub map: MapScope,
    /// Span of the originating source statement (the first one, for
    /// fused states); synthetic for programmatic IR.
    pub span: Span,
}

/// The full graph: states execute in order.
#[derive(Debug, Clone, PartialEq)]
pub struct Sdfg {
    pub name: String,
    pub states: Vec<State>,
    /// Physical-unit declarations carried from the source (`unit` lines);
    /// transformation passes preserve them untouched.
    pub units: Vec<UnitDecl>,
}

impl Sdfg {
    /// Lower a parsed program: one state per statement — the maximally
    /// explicit dataflow form (each OpenACC kernel of the baseline
    /// becomes one map), which the transformation passes then optimize.
    pub fn from_program(name: impl Into<String>, prog: &Program) -> Sdfg {
        let mut states = Vec::new();
        for k in &prog.kernels {
            for (i, st) in k.statements.iter().enumerate() {
                states.push(State {
                    label: format!("{}_{i}", k.name),
                    map: MapScope {
                        domain: k.domain.clone(),
                        over_levels: stmt_uses_levels(st) || k.uses_levels(),
                        tasklets: vec![Tasklet {
                            write: st.target.clone(),
                            reads: st.expr.accesses().into_iter().cloned().collect(),
                            code: st.expr.clone(),
                        }],
                    },
                    span: st.span,
                });
            }
        }
        Sdfg {
            name: name.into(),
            states,
            units: prog.units.clone(),
        }
    }

    /// Reconstruct a runnable [`Program`] from a (possibly transformed)
    /// graph: one kernel per state, statements in tasklet order. Tasklets
    /// execute sequentially per point in both representations, so
    /// `exec::run_naive` on the result realizes exactly this graph's
    /// semantics — the cross-check used by the transform tests.
    pub fn to_program(&self) -> Program {
        Program {
            kernels: self
                .states
                .iter()
                .map(|s| Kernel {
                    name: s.label.clone(),
                    domain: s.map.domain.clone(),
                    statements: s
                        .map
                        .tasklets
                        .iter()
                        .map(|t| Statement {
                            target: t.write.clone(),
                            expr: t.code.clone(),
                            span: s.span,
                        })
                        .collect(),
                    span: s.span,
                })
                .collect(),
            units: self.units.clone(),
        }
    }

    /// Number of map launches per execution (the kernel-launch count of
    /// the generated code).
    pub fn n_map_launches(&self) -> usize {
        self.states.len()
    }

    /// Total per-point integer index lookups if every state resolves its
    /// own lookups independently (the unoptimized execution).
    pub fn index_lookups_naive(&self) -> usize {
        self.states
            .iter()
            .map(|s| {
                s.map
                    .tasklets
                    .iter()
                    .flat_map(|t| t.reads.iter())
                    .filter(|a| matches!(a.point, crate::ast::PointIndex::Lookup { .. }))
                    .count()
            })
            .sum()
    }

    /// Per-point index lookups when each state deduplicates its lookups
    /// (after the IndexLookupDedup pass): unique `(relation, slot)` pairs
    /// per state.
    pub fn index_lookups_deduped(&self) -> usize {
        use std::collections::HashSet;
        self.states
            .iter()
            .map(|s| {
                let mut uniq: HashSet<(&str, usize)> = HashSet::new();
                for t in &s.map.tasklets {
                    for a in &t.reads {
                        if let crate::ast::PointIndex::Lookup { relation, slot } = &a.point {
                            uniq.insert((relation.as_str(), *slot));
                        }
                    }
                }
                uniq.len()
            })
            .sum()
    }

    /// All field names appearing in the graph.
    pub fn fields(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .states
            .iter()
            .flat_map(|s| {
                s.map.tasklets.iter().flat_map(|t| {
                    std::iter::once(t.write.field.clone())
                        .chain(t.reads.iter().map(|a| a.field.clone()))
                })
            })
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

fn stmt_uses_levels(st: &Statement) -> bool {
    st.expr.uses_levels() || st.target.level != crate::ast::LevelIndex::Surface
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn ekinh() -> Program {
        parse(
            r#"
            kernel pre over cells
              w_all(p) = w1(p) + w2(p) + w3(p);
            end
            kernel z_ekinh over cells
              ekin(p,k) = w1(p) * kin(edge(p,0), k)
                        + w2(p) * kin(edge(p,1), k)
                        + w3(p) * kin(edge(p,2), k);
              norm(p,k) = ekin(p,k) / w_all(p);
            end
        "#,
        )
        .unwrap()
    }

    #[test]
    fn lowering_creates_one_state_per_statement() {
        let sdfg = Sdfg::from_program("dycore", &ekinh());
        assert_eq!(sdfg.states.len(), 3);
        assert_eq!(sdfg.n_map_launches(), 3);
        // First kernel is 2-D, second is 3-D.
        assert!(!sdfg.states[0].map.over_levels);
        assert!(sdfg.states[1].map.over_levels);
    }

    #[test]
    fn memlets_are_explicit() {
        let sdfg = Sdfg::from_program("dycore", &ekinh());
        let t = &sdfg.states[1].map.tasklets[0];
        assert_eq!(t.reads.len(), 6, "3 weights + 3 gathers");
        assert_eq!(
            t.reads
                .iter()
                .filter(|a| matches!(a.point, crate::ast::PointIndex::Lookup { .. }))
                .count(),
            3
        );
    }

    #[test]
    fn lookup_counts() {
        let sdfg = Sdfg::from_program("dycore", &ekinh());
        assert_eq!(sdfg.index_lookups_naive(), 3);
        assert_eq!(sdfg.index_lookups_deduped(), 3, "already unique per state");
    }

    #[test]
    fn field_inventory() {
        let sdfg = Sdfg::from_program("dycore", &ekinh());
        let f = sdfg.fields();
        for name in ["ekin", "kin", "norm", "w1", "w2", "w3", "w_all"] {
            assert!(f.contains(&name.to_string()), "missing {name}");
        }
    }
}
