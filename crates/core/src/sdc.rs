//! Silent-data-corruption (SDC) injection: the compute/memory-fault
//! analog of `mpisim::FaultPlan` (comms) and `iosys::FaultFs` (storage).
//!
//! At the paper's scale — thousands of superchips driving one coupled
//! run for weeks — bit flips inside component state are a *when*, not an
//! *if*, and the insidious ones stay within physical bounds, sailing
//! straight past any range check. A [`StateFaultPlan`] is a seeded,
//! **one-shot** schedule of such flips, applied between coupling windows
//! directly into the live state buffers, with a full injection log for
//! post-run accounting ([`SdcInjection`]).
//!
//! Three flip classes, selected by [`SdcMode`]:
//!
//! * **Mantissa** — low mantissa bits (0..32) of an active state
//!   variable: a relative perturbation below `2^-20`, guaranteed
//!   in-bounds. Only an exact detector can see it; the resilient
//!   driver's audit replay (dual-modular redundancy over the
//!   bitwise-deterministic window graph) catches every such flip that
//!   survives to the end of a window, and a flip that does not survive
//!   was overwritten before anything read it — provably dead.
//! * **Exponent** — bits 52..62 of an active variable: the value jumps
//!   by a power of two (possibly many); large excursions are caught by
//!   the per-flux physics guard, small ones by the audit.
//! * **Quiescent** — mantissa bits of a buffer no coupled window ever
//!   writes (orography, layer climatology, layer thicknesses, the
//!   land-sea mask fields). The recorded execution graph proves these
//!   buffers untouched, so a per-window CRC-32 against a reference
//!   captured at driver start catches *any* single-bit corruption
//!   exactly — and the pristine reference copy doubles as the repair
//!   source ([`QuiescenceReference`]).
//!
//! Every fault fires at most once: after a rollback the replayed window
//! is clean, which is exactly the transient-fault model the resilience
//! machinery absorbs bit-exactly.

use crate::config::EsmConfig;
use crate::esm::CoupledEsm;
use crate::state::{Side, QUIESCENT_VARS};
use mpisim::Splitmix64;
use std::sync::{Arc, Mutex};

/// Flip class of a seeded plan (parsed from `SDC_MODE` in the chaos
/// matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdcMode {
    /// Low mantissa bits of active state: in-bounds, "insidious".
    Mantissa,
    /// Exponent bits of active state: power-of-two excursions.
    Exponent,
    /// Mantissa bits of never-written (static) buffers.
    Quiescent,
}

impl SdcMode {
    pub fn parse(s: &str) -> Option<SdcMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "mantissa" => Some(SdcMode::Mantissa),
            "exponent" => Some(SdcMode::Exponent),
            "quiescent" => Some(SdcMode::Quiescent),
            _ => None,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            SdcMode::Mantissa => "mantissa",
            SdcMode::Exponent => "exponent",
            SdcMode::Quiescent => "quiescent",
        }
    }
}

/// Which buffer one planned flip lands in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlipTarget {
    /// A named snapshot variable (e.g. `"oce.temp"`, `"pend_slow.heat_flux"`).
    Var(String),
    /// Seeded: resolved modulo the flippable-variable list at fire time.
    VarIndex(u64),
    /// A named static buffer (see [`CoupledEsm::QUIESCENT_BUFFERS`]).
    Quiescent(&'static str),
    /// Seeded: resolved modulo the quiescent-buffer list at fire time.
    QuiescentIndex(u64),
}

/// One planned bit flip: fires right before coupling window `window`
/// (1-based, relative to the resilient/supervised call) runs, then is
/// consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedFlip {
    pub window: u64,
    pub target: FlipTarget,
    /// Element index, reduced modulo the buffer length when applied.
    pub elem: u64,
    /// Bit position in the f64 (0 = mantissa LSB, 62 = exponent MSB).
    pub bit: u8,
}

/// Log entry of one flip that actually fired.
#[derive(Debug, Clone, PartialEq)]
pub struct SdcInjection {
    /// Coupling window (1-based) the flip fired before.
    pub window: u64,
    /// Buffer the flip landed in.
    pub buffer: String,
    pub elem: usize,
    pub bit: u8,
    pub before_bits: u64,
    pub after_bits: u64,
    /// Whether the target was a static (never-written) buffer.
    pub quiescent: bool,
}

#[derive(Debug)]
struct SdcState {
    flips: Vec<PlannedFlip>,
    injections: Vec<SdcInjection>,
}

/// A deterministic, one-shot schedule of in-state bit flips. Shared
/// (`Arc`) between the driver and the post-run assertions.
#[derive(Debug)]
pub struct StateFaultPlan {
    state: Mutex<SdcState>,
}

impl Default for StateFaultPlan {
    fn default() -> StateFaultPlan {
        StateFaultPlan::new()
    }
}

impl StateFaultPlan {
    /// An empty plan (no flips).
    pub fn new() -> StateFaultPlan {
        StateFaultPlan {
            state: Mutex::new(SdcState {
                flips: Vec::new(),
                injections: Vec::new(),
            }),
        }
    }

    /// Deterministically generate `n_flips` flips of class `mode` over
    /// windows `1..=n_windows`. The same seed always yields the same
    /// plan.
    pub fn seeded(seed: u64, mode: SdcMode, n_flips: usize, n_windows: u64) -> StateFaultPlan {
        assert!(n_windows >= 1, "flips need at least one window");
        let mut plan = StateFaultPlan::new();
        let mut rng = Splitmix64::new(seed);
        for _ in 0..n_flips {
            let window = 1 + rng.next_u64() % n_windows;
            let target = match mode {
                SdcMode::Quiescent => FlipTarget::QuiescentIndex(rng.next_u64()),
                _ => FlipTarget::VarIndex(rng.next_u64()),
            };
            let bit = match mode {
                // Relative perturbation <= 2^-20: always in-bounds.
                SdcMode::Mantissa | SdcMode::Quiescent => (rng.next_u64() % 32) as u8,
                // The 11 exponent bits.
                SdcMode::Exponent => 52 + (rng.next_u64() % 11) as u8,
            };
            plan = plan.flip(window, target, rng.next_u64(), bit);
        }
        plan
    }

    /// Add one explicit flip (builder style).
    pub fn flip(self, window: u64, target: FlipTarget, elem: u64, bit: u8) -> StateFaultPlan {
        assert!(bit < 64, "f64 has 64 bits");
        self.state
            .lock()
            .expect("sdc plan lock")
            .flips
            .push(PlannedFlip {
                window,
                target,
                elem,
                bit,
            });
        self
    }

    /// Consume every flip due at `window` (one-shot: a replayed window
    /// sees none of them).
    pub fn take_due(&self, window: u64) -> Vec<PlannedFlip> {
        let mut st = self.state.lock().expect("sdc plan lock");
        let mut due = Vec::new();
        let mut i = 0;
        while i < st.flips.len() {
            if st.flips[i].window == window {
                due.push(st.flips.remove(i));
            } else {
                i += 1;
            }
        }
        due
    }

    /// The flips still pending (not yet fired).
    pub fn pending(&self) -> Vec<PlannedFlip> {
        self.state.lock().expect("sdc plan lock").flips.clone()
    }

    /// Record one fired flip in the injection log.
    pub fn record(&self, inj: SdcInjection) {
        self.state.lock().expect("sdc plan lock").injections.push(inj);
    }

    /// The full injection log, in firing order.
    pub fn injections(&self) -> Vec<SdcInjection> {
        self.state.lock().expect("sdc plan lock").injections.clone()
    }

    /// Flips fired so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().expect("sdc plan lock").injections.len() as u64
    }
}

/// Flips an optional plan has fired so far (`0` without a plan).
pub(crate) fn injected(plan: &Option<Arc<StateFaultPlan>>) -> u64 {
    plan.as_ref().map_or(0, |p| p.injected())
}

/// Apply every flip due at `window` to the live state. Returns the
/// number of flips applied; each is appended to the plan's injection
/// log with its before/after bit patterns.
///
/// A plan is authored by the test harness, not read from outside, so a
/// target that names no buffer is a bug in the plan and panics: skipping
/// it would turn a typo into "0 injected, 0 detected, bitwise equal" — a
/// green run for the wrong reason. Seeded `VarIndex` targets cannot get
/// there: they index [`CoupledEsm::flippable_var_names`], which is built
/// from the same state table `state_var_mut` resolves through.
pub fn apply_due_flips(esm: &mut CoupledEsm, plan: &StateFaultPlan, window: u64) -> usize {
    let due = plan.take_due(window);
    if due.is_empty() {
        return 0;
    }
    let var_names = esm.flippable_var_names();
    let mut applied = 0;
    for f in due {
        let (buffer, quiescent): (String, bool) = match &f.target {
            FlipTarget::Var(n) => (n.clone(), false),
            FlipTarget::VarIndex(i) => {
                (var_names[(*i % var_names.len() as u64) as usize].clone(), false)
            }
            FlipTarget::Quiescent(n) => ((*n).to_string(), true),
            FlipTarget::QuiescentIndex(i) => {
                let names = CoupledEsm::QUIESCENT_BUFFERS;
                (names[(*i % names.len() as u64) as usize].to_string(), true)
            }
        };
        let slice = if quiescent {
            esm.quiescent_buffer_mut(&buffer)
        } else {
            esm.state_var_mut(&buffer)
        };
        let Some(slice) = slice else {
            panic!("SDC plan, window {window}: flip target {buffer:?} names no state buffer");
        };
        if slice.is_empty() {
            continue;
        }
        let elem = (f.elem % slice.len() as u64) as usize;
        let before = slice[elem].to_bits();
        let after = before ^ (1u64 << f.bit);
        slice[elem] = f64::from_bits(after);
        plan.record(SdcInjection {
            window,
            buffer,
            elem,
            bit: f.bit,
            before_bits: before,
            after_bits: after,
            quiescent,
        });
        applied += 1;
    }
    applied
}

/// CRC-32 over the raw bits of an f64 buffer (its little-endian bytes).
/// The CRC test suite proves every single-bit flip changes the digest,
/// so a per-window comparison against a reference detects any one flip
/// exactly. The values are staged through a 512-byte stack block, so the
/// hasher's slice kernel sees whole blocks, not one 8-byte update each.
pub fn crc_f64(data: &[f64]) -> u32 {
    const BLOCK: usize = 64;
    let mut h = iosys::crc::Crc32::new();
    let mut bytes = [0u8; BLOCK * 8];
    for vals in data.chunks(BLOCK) {
        for (b, v) in bytes.chunks_exact_mut(8).zip(vals) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        h.update(&bytes[..vals.len() * 8]);
    }
    h.finalize()
}

/// The bitwise ledger of a bare run: after each of `windows` calls of
/// `run_windows(1, concurrent)`, every snapshot var's name and
/// [`crc_f64`]. `results/golden.json` pins it for [`EsmConfig::tiny`].
pub fn window_ledger(cfg: EsmConfig, windows: usize, concurrent: bool) -> Vec<Vec<(String, u32)>> {
    let mut esm = CoupledEsm::new(cfg);
    (0..windows)
        .map(|_| {
            esm.run_windows(1, concurrent).expect("a bare window of a valid config runs");
            let snap = esm.snapshot();
            snap.vars.iter().map(|(name, data)| (name.clone(), crc_f64(data))).collect()
        })
        .collect()
}

/// Which component group owns a static buffer (the side a checksum
/// detection is localized to).
pub fn quiescent_side(name: &str) -> Side {
    let row = QUIESCENT_VARS.iter().find(|v| v.name == name);
    row.and_then(|v| v.side).unwrap_or(Side::Fast)
}

/// Reference checksums and pristine copies of every quiescent (static)
/// buffer, captured before any fault can fire. `verify` recomputes the
/// CRCs against the live state; `repair` restores a corrupted buffer
/// bit-exactly from the pristine copy.
pub struct QuiescenceReference {
    entries: Vec<(&'static str, Vec<f64>, u32)>,
}

impl QuiescenceReference {
    pub fn capture(esm: &CoupledEsm) -> QuiescenceReference {
        let entries = CoupledEsm::QUIESCENT_BUFFERS
            .iter()
            .map(|&name| {
                let data = esm
                    .quiescent_buffer(name)
                    .expect("registered quiescent buffer exists")
                    .to_vec();
                let crc = crc_f64(&data);
                (name, data, crc)
            })
            .collect();
        QuiescenceReference { entries }
    }

    /// Names of every buffer whose live CRC no longer matches the
    /// reference.
    pub fn verify(&self, esm: &CoupledEsm) -> Vec<&'static str> {
        self.entries
            .iter()
            .filter(|(name, _, crc)| {
                let live = esm.quiescent_buffer(name).expect("buffer exists");
                crc_f64(live) != *crc
            })
            .map(|&(name, _, _)| name)
            .collect()
    }

    /// Overwrite `name` with its pristine copy. Returns false for an
    /// unknown buffer.
    pub fn repair(&self, esm: &mut CoupledEsm, name: &str) -> bool {
        let Some((_, pristine, _)) = self.entries.iter().find(|(n, _, _)| *n == name) else {
            return false;
        };
        let Some(live) = esm.quiescent_buffer_mut(name) else {
            return false;
        };
        live.copy_from_slice(pristine);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsmConfig;

    #[test]
    fn same_seed_same_plan() {
        let a = StateFaultPlan::seeded(7, SdcMode::Mantissa, 5, 4);
        let b = StateFaultPlan::seeded(7, SdcMode::Mantissa, 5, 4);
        assert_eq!(a.pending(), b.pending());
        let c = StateFaultPlan::seeded(8, SdcMode::Mantissa, 5, 4);
        assert_ne!(a.pending(), c.pending());
    }

    #[test]
    fn seeded_bits_respect_the_mode() {
        for (mode, lo, hi) in [
            (SdcMode::Mantissa, 0u8, 31u8),
            (SdcMode::Exponent, 52, 62),
            (SdcMode::Quiescent, 0, 31),
        ] {
            let plan = StateFaultPlan::seeded(11, mode, 64, 8);
            for f in plan.pending() {
                assert!(f.bit >= lo && f.bit <= hi, "{mode:?}: bit {}", f.bit);
                assert!((1..=8).contains(&f.window));
                match (mode, &f.target) {
                    (SdcMode::Quiescent, FlipTarget::QuiescentIndex(_)) => {}
                    (SdcMode::Mantissa | SdcMode::Exponent, FlipTarget::VarIndex(_)) => {}
                    other => panic!("wrong target class: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn flips_are_one_shot() {
        let plan = StateFaultPlan::new().flip(2, FlipTarget::Var("oce.temp".into()), 3, 10);
        assert!(plan.take_due(1).is_empty());
        assert_eq!(plan.take_due(2).len(), 1);
        assert!(plan.take_due(2).is_empty(), "consumed");
    }

    #[test]
    fn applied_flip_lands_in_the_named_var_and_is_logged() {
        let mut esm = CoupledEsm::new(EsmConfig::tiny());
        let plan = StateFaultPlan::new().flip(1, FlipTarget::Var("oce.temp".into()), 5, 20);
        let before = esm.snapshot();
        assert_eq!(apply_due_flips(&mut esm, &plan, 1), 1);
        let after = esm.snapshot();
        let b = before.expect("oce.temp");
        let a = after.expect("oce.temp");
        let n = b.len();
        let changed: Vec<usize> = (0..n).filter(|&i| a[i].to_bits() != b[i].to_bits()).collect();
        assert_eq!(changed, vec![5 % n]);
        let log = plan.injections();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].buffer, "oce.temp");
        assert_eq!(log[0].before_bits ^ log[0].after_bits, 1 << 20);
        assert!(!log[0].quiescent);
    }

    #[test]
    #[should_panic(expected = "window 2: flip target \"oce.tmep\" names no state buffer")]
    fn a_flip_target_that_names_no_buffer_panics_instead_of_silently_not_firing() {
        let mut esm = CoupledEsm::new(EsmConfig::tiny());
        let plan = StateFaultPlan::new().flip(2, FlipTarget::Var("oce.tmep".into()), 0, 3);
        apply_due_flips(&mut esm, &plan, 2);
    }

    #[test]
    fn quiescent_checksum_catches_and_repairs_any_flip() {
        let mut esm = CoupledEsm::new(EsmConfig::tiny());
        let reference = QuiescenceReference::capture(&esm);
        assert!(reference.verify(&esm).is_empty(), "pristine state is clean");

        let plan =
            StateFaultPlan::new().flip(1, FlipTarget::Quiescent("static.layer_temp"), 2, 0);
        assert_eq!(apply_due_flips(&mut esm, &plan, 1), 1);
        let dirty = reference.verify(&esm);
        assert_eq!(dirty, vec!["static.layer_temp"], "LSB flip caught exactly");
        assert_eq!(quiescent_side(dirty[0]), Side::Fast);

        assert!(reference.repair(&mut esm, "static.layer_temp"));
        assert!(reference.verify(&esm).is_empty(), "repair is bit-exact");
    }

    #[test]
    fn every_quiescent_buffer_is_registered_and_nonempty() {
        let esm = CoupledEsm::new(EsmConfig::tiny());
        for name in CoupledEsm::QUIESCENT_BUFFERS {
            let buf = esm.quiescent_buffer(name).expect("registered");
            assert!(!buf.is_empty(), "{name}");
        }
    }
}
