//! Field quarantine at the coupler boundary.
//!
//! Every flux set crossing between component groups passes through a
//! [`QuarantineGate`]: each field is screened for NaN/Inf and — when the
//! producing component declared a physical range ([`FieldBounds`]) — for
//! range violations. A bad value never propagates into the peer
//! component's state; what happens instead is the gate's
//! [`RepairPolicy`]:
//!
//! * `Reject` — abort the exchange with a typed [`FluxError`];
//! * `ClampToBounds` — clamp finite out-of-range values to the declared
//!   range, replace non-finite values by the range midpoint (both
//!   deterministic, so a repaired run is still bitwise reproducible);
//! * `PersistLast` — replace the whole offending field with its last
//!   valid version. **Determinism caveat**: the substituted values depend
//!   on *when* the fault hit, so a `PersistLast`-repaired run is
//!   reproducible given the same fault schedule but not bitwise identical
//!   to a fault-free run.
//!
//! Every intervention is recorded as a [`QuarantineEvent`] for the
//! resilience report.

use crate::exchange::{FluxError, FluxSet};
use std::collections::HashMap;

/// Declared physical range of one exchanged flux field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FieldBounds {
    pub name: &'static str,
    pub min: f64,
    pub max: f64,
}

/// What the gate does to a field that fails validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairPolicy {
    /// Abort the exchange with a typed error.
    Reject,
    /// Clamp to the declared range (midpoint for non-finite values).
    #[default]
    ClampToBounds,
    /// Substitute the field's last valid version.
    PersistLast,
}

impl RepairPolicy {
    fn action(&self) -> &'static str {
        match self {
            RepairPolicy::Reject => "rejected",
            RepairPolicy::ClampToBounds => "clamped",
            RepairPolicy::PersistLast => "persisted",
        }
    }
}

/// One quarantine intervention: a field failed validation and was
/// repaired (or the run was rejected).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEvent {
    pub window: u64,
    pub field: String,
    /// How many entries of the field violated the validators.
    pub bad_values: usize,
    /// Index and value of the first violation, for diagnostics.
    pub first_index: usize,
    pub first_value: f64,
    /// `"rejected"`, `"clamped"`, or `"persisted"`.
    pub action: &'static str,
}

/// The quarantine gate: per-field bounds, a repair policy, and the
/// last-valid cache that backs `PersistLast`.
#[derive(Debug, Clone)]
pub struct QuarantineGate {
    bounds: Vec<FieldBounds>,
    policy: RepairPolicy,
    last_valid: HashMap<String, Vec<f64>>,
    events: Vec<QuarantineEvent>,
}

impl QuarantineGate {
    pub fn new(policy: RepairPolicy) -> QuarantineGate {
        QuarantineGate {
            bounds: Vec::new(),
            policy,
            last_valid: HashMap::new(),
            events: Vec::new(),
        }
    }

    /// Declare the physical range of one field. Fields without declared
    /// bounds are still screened for NaN/Inf.
    pub fn declare(&mut self, bounds: FieldBounds) {
        self.bounds.retain(|b| b.name != bounds.name);
        self.bounds.push(bounds);
    }

    /// Declare many ranges at once from `(name, min, max)` tuples — the
    /// form the component crates export without depending on this crate.
    pub fn declare_all(&mut self, decls: &[(&'static str, f64, f64)]) {
        for &(name, min, max) in decls {
            self.declare(FieldBounds { name, min, max });
        }
    }

    pub fn policy(&self) -> RepairPolicy {
        self.policy
    }

    /// Interventions recorded so far, in order.
    pub fn events(&self) -> &[QuarantineEvent] {
        &self.events
    }

    fn bounds_for(&self, name: &str) -> (f64, f64) {
        self.bounds
            .iter()
            .find(|b| b.name == name)
            .map(|b| (b.min, b.max))
            .unwrap_or((f64::NEG_INFINITY, f64::INFINITY))
    }

    /// Screen (and, policy permitting, repair) every field of `fluxes` in
    /// place. `record` suppresses event logging during deterministic
    /// replay, where the same repair recurs by construction and must not
    /// be double-counted. Returns how many fields were quarantined.
    pub fn screen(
        &mut self,
        window: u64,
        fluxes: &mut FluxSet,
        record: bool,
    ) -> Result<usize, FluxError> {
        let mut quarantined = 0;
        for (name, data) in fluxes.fields.iter_mut() {
            let (lo, hi) = self.bounds_for(name);
            let mut bad = 0usize;
            let mut first: Option<(usize, f64)> = None;
            for (i, &v) in data.iter().enumerate() {
                if !v.is_finite() || v < lo || v > hi {
                    bad += 1;
                    if first.is_none() {
                        first = Some((i, v));
                    }
                }
            }
            let Some((first_index, first_value)) = first else {
                if self.policy == RepairPolicy::PersistLast {
                    self.last_valid.insert(name.to_string(), data.clone());
                }
                continue;
            };
            quarantined += 1;
            if record {
                self.events.push(QuarantineEvent {
                    window,
                    field: name.to_string(),
                    bad_values: bad,
                    first_index,
                    first_value,
                    action: self.policy.action(),
                });
            }
            match self.policy {
                RepairPolicy::Reject => {
                    return Err(if first_value.is_finite() {
                        FluxError::OutOfBounds {
                            field: name.to_string(),
                            index: first_index,
                            value: first_value,
                            min: lo,
                            max: hi,
                        }
                    } else {
                        FluxError::NonFinite {
                            field: name.to_string(),
                            index: first_index,
                            value: first_value,
                        }
                    });
                }
                RepairPolicy::ClampToBounds => {
                    let mid = midpoint(lo, hi);
                    for v in data.iter_mut() {
                        if !v.is_finite() {
                            *v = mid;
                        } else if *v < lo {
                            *v = lo;
                        } else if *v > hi {
                            *v = hi;
                        }
                    }
                }
                RepairPolicy::PersistLast => {
                    match self.last_valid.get(*name) {
                        Some(prev) if prev.len() == data.len() => {
                            data.copy_from_slice(prev);
                        }
                        _ => {
                            return Err(FluxError::NoLastValid {
                                field: name.to_string(),
                            })
                        }
                    }
                }
            }
        }
        Ok(quarantined)
    }
}

/// Deterministic stand-in for a non-finite value under `ClampToBounds`:
/// the midpoint of the declared range, or 0 clamped into a half-open
/// range when a bound is infinite.
fn midpoint(lo: f64, hi: f64) -> f64 {
    if lo.is_finite() && hi.is_finite() {
        0.5 * (lo + hi)
    } else {
        0.0f64.clamp(
            if lo.is_finite() { lo } else { f64::MIN },
            if hi.is_finite() { hi } else { f64::MAX },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fluxes(v: Vec<f64>) -> FluxSet {
        let mut f = FluxSet::new();
        f.insert("sst", v);
        f
    }

    fn sst_gate(policy: RepairPolicy) -> QuarantineGate {
        let mut g = QuarantineGate::new(policy);
        g.declare(FieldBounds {
            name: "sst",
            min: -5.0,
            max: 45.0,
        });
        g
    }

    #[test]
    fn clean_fields_pass_untouched() {
        let mut g = sst_gate(RepairPolicy::Reject);
        let mut f = fluxes(vec![10.0, -2.0, 44.0]);
        let before = f.clone();
        assert_eq!(g.screen(1, &mut f, true).unwrap(), 0);
        assert_eq!(f, before);
        assert!(g.events().is_empty());
    }

    #[test]
    fn reject_surfaces_typed_errors() {
        let mut g = sst_gate(RepairPolicy::Reject);
        let mut f = fluxes(vec![10.0, f64::NAN]);
        assert!(matches!(
            g.screen(1, &mut f, true),
            Err(FluxError::NonFinite { index: 1, .. })
        ));
        let mut g = sst_gate(RepairPolicy::Reject);
        let mut f = fluxes(vec![10.0, 99.0]);
        match g.screen(2, &mut f, true) {
            Err(FluxError::OutOfBounds {
                index: 1,
                value,
                min,
                max,
                ..
            }) => {
                assert_eq!((value, min, max), (99.0, -5.0, 45.0));
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn clamp_repairs_deterministically_and_records() {
        let mut g = sst_gate(RepairPolicy::ClampToBounds);
        let mut f = fluxes(vec![10.0, f64::INFINITY, -80.0, 99.0]);
        assert_eq!(g.screen(3, &mut f, true).unwrap(), 1);
        // NaN/Inf -> midpoint 20, -80 -> -5, 99 -> 45.
        assert_eq!(f.get("sst").unwrap(), &[10.0, 20.0, -5.0, 45.0]);
        let ev = &g.events()[0];
        assert_eq!((ev.window, ev.bad_values, ev.first_index), (3, 3, 1));
        assert_eq!(ev.action, "clamped");
        assert!(f.get("sst").unwrap().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn undeclared_fields_are_still_screened_for_nonfinite() {
        let mut g = QuarantineGate::new(RepairPolicy::ClampToBounds);
        let mut f = FluxSet::new();
        f.insert("mystery", vec![1.0, f64::NAN]);
        assert_eq!(g.screen(1, &mut f, true).unwrap(), 1);
        // Midpoint of an unbounded range is the neutral 0.
        assert_eq!(f.get("mystery").unwrap(), &[1.0, 0.0]);
    }

    #[test]
    fn persist_last_substitutes_previous_field() {
        let mut g = sst_gate(RepairPolicy::PersistLast);
        // No history yet: nothing to persist.
        let mut f = fluxes(vec![f64::NAN]);
        assert!(matches!(
            g.screen(1, &mut f, true),
            Err(FluxError::NoLastValid { .. })
        ));
        let mut g = sst_gate(RepairPolicy::PersistLast);
        let mut good = fluxes(vec![10.0, 11.0]);
        g.screen(1, &mut good, true).unwrap();
        let mut bad = fluxes(vec![f64::NAN, 12.0]);
        assert_eq!(g.screen(2, &mut bad, true).unwrap(), 1);
        assert_eq!(bad.get("sst").unwrap(), &[10.0, 11.0]);
        assert_eq!(g.events()[0].action, "persisted");
    }

    #[test]
    fn replay_screening_does_not_double_count_events() {
        let mut g = sst_gate(RepairPolicy::ClampToBounds);
        let mut f = fluxes(vec![99.0]);
        g.screen(1, &mut f, true).unwrap();
        let mut f2 = fluxes(vec![99.0]);
        g.screen(1, &mut f2, false).unwrap();
        assert_eq!(g.events().len(), 1, "replay repairs must not re-record");
        assert_eq!(f, f2, "replay repair must be bitwise identical");
    }
}
