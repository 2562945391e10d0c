//! The model-state registry: **one** ordered table of every f64 state
//! buffer, with its checkpoint name and owning component group.
//!
//! Everything that enumerates model state is derived from [`STATE_VARS`]:
//! the checkpoint snapshots (whole and per side) and their restores, the
//! SDC injection point ([`CoupledEsm::state_var_mut`],
//! [`CoupledEsm::flippable_var_names`]), the supervisor's per-side health
//! probe, and the side named in detection reports. The table order *is*
//! the `.esmr` variable order; `tests/state_registry.rs` pins it.
//!
//! Adding a prognostic variable is one table line (plus its name in that
//! test's golden list). Only the scalar records (`esm.scalars`,
//! `fast.scalars`, `slow.scalars`) are outside the table. The static
//! buffers the SDC checksums guard have a table of the same rows,
//! [`QUIESCENT_VARS`].

use crate::esm::CoupledEsm;
use coupler::exchange::FluxSet;
use iosys::Snapshot;
use std::fmt;

/// The two component groups of the paper's heterogeneous mapping, each
/// supervised, checkpointed and recovered on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Atmosphere + land (heartbeat rank 1).
    Fast,
    /// Ocean + sea ice + BGC (heartbeat rank 2).
    Slow,
}

impl Side {
    /// Heartbeat rank of this group (rank 0 is the monitor).
    pub fn rank(self) -> usize {
        self.idx() + 1
    }

    pub(crate) fn idx(self) -> usize {
        self as usize
    }

    pub(crate) fn peer(self) -> Side {
        [Side::Slow, Side::Fast][self.idx()]
    }

    pub(crate) fn stem(self) -> &'static str {
        ["fast", "slow"][self.idx()]
    }
}

/// How a table row reaches its data.
#[derive(Clone, Copy)]
enum Access {
    /// One plain f64 buffer: shared and mutable accessor.
    Buf(
        fn(&CoupledEsm) -> &[f64],
        fn(&mut CoupledEsm) -> &mut [f64],
    ),
    /// `atm.is_water`: a bool mask checkpointed as 0.0/1.0. No f64 buffer
    /// stands behind it, so it is not flippable (a mantissa flip there is
    /// not a representable state).
    WaterMask,
    /// `bgc.trNN`: one buffer per HAMOCC tracer, in tracer order.
    Tracers,
    /// `pend_*.<flux>`: one buffer per exchanged flux of a coupler lag
    /// bundle, in bundle order.
    Lag(
        fn(&CoupledEsm) -> &FluxSet,
        fn(&mut CoupledEsm) -> &mut FluxSet,
    ),
}

/// One row of the state table. `name` is the snapshot variable's name —
/// for the two family rows (`Tracers`, `Lag`) the common prefix of their
/// variables. `side` is the owning component group; `None` is the
/// coupler lag state, which belongs to neither per-side snapshot.
pub(crate) struct StateVar {
    pub name: &'static str,
    pub side: Option<Side>,
    access: Access,
}

/// Both accessors of a plain buffer from one field path (`Field2`,
/// `Field3` and `Vec<f64>` all offer `as_slice`/`as_mut_slice`).
macro_rules! buf {
    ($($field:ident).+) => {
        Access::Buf(|e| e.$($field).+.as_slice(), |e| e.$($field).+.as_mut_slice())
    };
}

const fn var(name: &'static str, side: Option<Side>, access: Access) -> StateVar {
    StateVar { name, side, access }
}

const FAST: Option<Side> = Some(Side::Fast);
const SLOW: Option<Side> = Some(Side::Slow);

/// Every model-state variable, in checkpoint order.
pub(crate) static STATE_VARS: [StateVar; 51] = [
    var("atm.delta", FAST, buf!(atm.state.delta)),
    var("atm.vn", FAST, buf!(atm.state.vn)),
    var("atm.qv", FAST, buf!(atm.state.qv)),
    var("atm.qc", FAST, buf!(atm.state.qc)),
    var("atm.co2", FAST, buf!(atm.state.co2)),
    var("atm.o3", FAST, buf!(atm.state.o3)),
    var("atm.precip_acc", FAST, buf!(atm.state.precip_acc)),
    var("atm.evap_acc", FAST, buf!(atm.state.evap_acc)),
    var("atm.precip_rate", FAST, buf!(atm.state.precip_rate)),
    var("atm.evap_rate", FAST, buf!(atm.state.evap_rate)),
    var("atm.t_surface", FAST, buf!(atm.state.t_surface)),
    var("atm.co2_flux", FAST, buf!(atm.state.co2_surface_flux)),
    var("atm.lmf", FAST, buf!(atm.state.land_moisture_flux)),
    var("atm.is_water", FAST, Access::WaterMask),
    var("land.t_soil", FAST, buf!(land.state.t_soil)),
    var("land.w_liquid", FAST, buf!(land.state.w_liquid)),
    var("land.w_ice", FAST, buf!(land.state.w_ice)),
    var("land.q_organic", FAST, buf!(land.state.q_organic)),
    var("land.pools", FAST, buf!(land.state.pools)),
    var("land.lai", FAST, buf!(land.state.lai)),
    var("land.river_storage", FAST, buf!(land.state.river_storage)),
    var("land.nee", FAST, buf!(land.state.nee)),
    var("land.et", FAST, buf!(land.state.evapotranspiration)),
    var("land.nee_acc", FAST, buf!(land.state.nee_acc)),
    var("land.et_acc", FAST, buf!(land.state.et_acc)),
    var("land.precip_acc", FAST, buf!(land.state.precip_acc)),
    var("land.runoff_acc", FAST, buf!(land.state.runoff_acc)),
    var("oce.vn", SLOW, buf!(ocean.state.vn)),
    var("oce.temp", SLOW, buf!(ocean.state.temp)),
    var("oce.salt", SLOW, buf!(ocean.state.salt)),
    var("oce.w", SLOW, buf!(ocean.state.w)),
    var("oce.eta", SLOW, buf!(ocean.state.eta)),
    var("oce.ice", SLOW, buf!(ocean.state.ice_thick)),
    var("oce.wind_stress", SLOW, buf!(ocean.state.wind_stress_n)),
    var("oce.heat_flux", SLOW, buf!(ocean.state.heat_flux)),
    var("oce.fw_flux", SLOW, buf!(ocean.state.fw_flux)),
    var("oce.pco2", SLOW, buf!(ocean.state.pco2_atm)),
    var("oce.heat_acc", SLOW, buf!(ocean.state.heat_acc)),
    var("oce.salt_acc", SLOW, buf!(ocean.state.salt_acc)),
    var("oce.ice_fw_acc", SLOW, buf!(ocean.state.ice_fw_acc)),
    var("bgc.tr", SLOW, Access::Tracers),
    var("bgc.sed_p", SLOW, buf!(hamocc.sediment_p)),
    var("bgc.sed_c", SLOW, buf!(hamocc.sediment_c)),
    var("bgc.sed_si", SLOW, buf!(hamocc.sediment_si)),
    var("bgc.co2_flux", SLOW, buf!(hamocc.co2_flux_up)),
    var("bgc.co2_acc", SLOW, buf!(hamocc.co2_flux_acc)),
    var("bgc.sw", SLOW, buf!(hamocc.sw_down)),
    var("bgc.wind", SLOW, buf!(hamocc.wind)),
    var("bgc.pco2", SLOW, buf!(hamocc.pco2_atm)),
    var("pend_fast", None, Access::Lag(|e| &e.pending_to_fast, |e| &mut e.pending_to_fast)),
    var("pend_slow", None, Access::Lag(|e| &e.pending_to_slow, |e| &mut e.pending_to_slow)),
];

/// The static buffers: read by every window, written by none (the
/// recorded window graph's write-set proves the analogous DSL fields
/// untouched). They are outside the snapshot precisely *because* they
/// never change — which also makes them the canonical target for silent
/// memory corruption, caught by the quiescence-checksum detector
/// ([`crate::sdc::QuiescenceReference`]). `side` is the group whose
/// windows read the buffer.
pub(crate) static QUIESCENT_VARS: [StateVar; 5] = [
    var("static.z_surface", FAST, buf!(atm.z_surface)),
    var("static.layer_temp", FAST, buf!(atm.params.layer_temp)),
    var("static.elevation", FAST, buf!(mask.elevation)),
    var("static.bathymetry", SLOW, buf!(mask.bathymetry)),
    var("static.oce_dz", SLOW, buf!(ocean.params.dz)),
];

/// A snapshot variable's name, formatted only when displayed: the row's
/// own name for a plain buffer, the row's prefix plus the member for a
/// family row.
#[derive(Clone, Copy)]
struct VarName {
    row: &'static str,
    member: Member,
}

#[derive(Clone, Copy)]
enum Member {
    Whole,
    Tracer(usize),
    Flux(&'static str),
}

impl fmt::Display for VarName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.member {
            Member::Whole => f.write_str(self.row),
            Member::Tracer(i) => write!(f, "{}{i:02}", self.row),
            Member::Flux(n) => write!(f, "{}.{n}", self.row),
        }
    }
}

impl StateVar {
    /// The f64 buffers behind this row, in snapshot order, under their
    /// (lazily formatted) snapshot names. Allocates nothing.
    fn bufs<'a>(&self, e: &'a CoupledEsm) -> impl Iterator<Item = (VarName, &'a [f64])> {
        let row = self.name;
        let (one, tracers, lag) = match self.access {
            Access::Buf(get, _) => (Some(get(e)), None, None),
            Access::WaterMask => (None, None, None),
            Access::Tracers => (None, Some(&e.hamocc.tracers), None),
            Access::Lag(get, _) => (None, None, Some(get(e))),
        };
        let one = one.map(move |d| (VarName { row, member: Member::Whole }, d));
        let tracers = (tracers.into_iter().flatten().enumerate())
            .map(move |(i, t)| (VarName { row, member: Member::Tracer(i) }, t.as_slice()));
        let lag = (lag.into_iter().flat_map(|l| &l.fields))
            .map(move |(n, d)| (VarName { row, member: Member::Flux(n) }, d.as_slice()));
        one.into_iter().chain(tracers).chain(lag)
    }

    /// [`StateVar::bufs`], mutably.
    fn bufs_mut<'a>(
        &self,
        e: &'a mut CoupledEsm,
    ) -> impl Iterator<Item = (VarName, &'a mut [f64])> {
        let row = self.name;
        let (one, tracers, lag) = match self.access {
            Access::Buf(_, get_mut) => (Some(get_mut(e)), None, None),
            Access::WaterMask => (None, None, None),
            Access::Tracers => (None, Some(&mut e.hamocc.tracers), None),
            Access::Lag(_, get_mut) => (None, None, Some(get_mut(e))),
        };
        let one = one.map(move |d| (VarName { row, member: Member::Whole }, d));
        let tracers = (tracers.into_iter().flatten().enumerate())
            .map(move |(i, t)| (VarName { row, member: Member::Tracer(i) }, t.as_mut_slice()));
        let lag = (lag.into_iter().flat_map(|l| &mut l.fields))
            .map(move |(n, d)| (VarName { row, member: Member::Flux(n) }, d.as_mut_slice()));
        one.into_iter().chain(tracers).chain(lag)
    }
}

/// The rows of one per-side snapshot, or with `None` of the whole one.
fn rows(only: Option<Side>) -> impl Iterator<Item = &'static StateVar> {
    STATE_VARS
        .iter()
        .filter(move |v| only.is_none() || v.side == only)
}

/// The table row a snapshot variable name belongs to (`None` for the
/// scalar records and unknown names).
pub(crate) fn lookup(name: &str) -> Option<&'static StateVar> {
    STATE_VARS.iter().find(|v| match v.access {
        Access::Tracers | Access::Lag(..) => name.starts_with(v.name),
        _ => v.name == name,
    })
}

/// The exchanged flux behind a coupler-lag snapshot variable
/// (`pend_fast.sst` → `sst`); `None` for everything else.
pub(crate) fn lag_flux(name: &str) -> Option<&str> {
    let v = lookup(name)?;
    if !matches!(v.access, Access::Lag(..)) {
        return None;
    }
    name[v.name.len()..].strip_prefix('.')
}

/// The variable names pushed by the snapshot builders are distinct by
/// construction, so the duplicate check in `iosys::Snapshot::push` (there
/// for callers that assemble snapshots dynamically) cannot fire.
fn push(s: &mut Snapshot, name: impl Into<String>, data: Vec<f64>) {
    s.push(name, data).expect("checkpoint variable names are unique");
}

impl CoupledEsm {
    fn push_rows(&self, only: Option<Side>, s: &mut Snapshot) {
        for v in rows(only) {
            if let Access::WaterMask = v.access {
                let mask = &self.atm.state.is_water;
                push(s, v.name, mask.iter().map(|&b| b as u8 as f64).collect());
            }
            for (name, data) in v.bufs(self) {
                push(s, name.to_string(), data.to_vec());
            }
        }
    }

    fn copy_rows(&mut self, only: Option<Side>, s: &Snapshot) {
        for v in rows(only) {
            if let Access::WaterMask = v.access {
                for (b, x) in self.atm.state.is_water.iter_mut().zip(s.expect(v.name)) {
                    *b = *x != 0.0;
                }
            }
            for (name, data) in v.bufs_mut(self) {
                data.copy_from_slice(s.expect(&name.to_string()));
            }
        }
    }

    /// The `esm.scalars` record: the window count, then the fast side's
    /// scalars (`[1..4]`), then the slow side's (`[4..]`) — what the
    /// components carry besides buffers (the water ledger rides with the
    /// atmosphere that fills it).
    fn esm_scalars(&self) -> [f64; 5] {
        [
            self.windows_run as f64,
            self.ocean_water_received_kg,
            self.atm.state.time_s,
            self.land.state.time_s,
            self.ocean.state.time_s,
        ]
    }

    /// One side's scalar record.
    fn scalars(&self, side: Side) -> Vec<f64> {
        let all = self.esm_scalars();
        match side {
            Side::Fast => all[1..4].to_vec(),
            Side::Slow => all[4..].to_vec(),
        }
    }

    fn set_scalars(&mut self, side: Side, v: &[f64]) {
        match side {
            Side::Fast => {
                self.ocean_water_received_kg = v[0];
                self.atm.state.time_s = v[1];
                self.land.state.time_s = v[2];
            }
            Side::Slow => self.ocean.state.time_s = v[0],
        }
    }

    /// Full model state as a checkpoint snapshot (bit-exact restart).
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::new();
        self.push_rows(None, &mut s);
        push(&mut s, "esm.scalars", self.esm_scalars().to_vec());
        s
    }

    /// The first variable of `s`, a [`CoupledEsm::snapshot`] of this
    /// instance, whose raw bits differ from the live state — compared in
    /// place, variable by variable in snapshot order, so no second
    /// snapshot is taken and only the reported name is formatted. Bits,
    /// not `==`: the detectors' containment contract is bitwise, and NaN
    /// payloads count as differences.
    pub(crate) fn first_bitwise_mismatch(&self, s: &Snapshot) -> Option<String> {
        fn same(live: impl ExactSizeIterator<Item = f64>, saved: Option<&[f64]>) -> bool {
            saved.is_some_and(|d| {
                d.len() == live.len() && live.zip(d).all(|(x, y)| x.to_bits() == y.to_bits())
            })
        }
        let mut saved = s.vars.iter().map(|(_, d)| d.as_slice());
        for v in rows(None) {
            if let Access::WaterMask = v.access {
                let mask = self.atm.state.is_water.iter().map(|&b| b as u8 as f64);
                if !same(mask, saved.next()) {
                    return Some(v.name.to_string());
                }
            }
            for (name, data) in v.bufs(self) {
                if !same(data.iter().copied(), saved.next()) {
                    return Some(name.to_string());
                }
            }
        }
        let scalars = self.esm_scalars();
        (!same(scalars.into_iter(), saved.next())).then(|| "esm.scalars".to_string())
    }

    /// One component group's half of the model state (localized
    /// checkpointing: the supervisor restores only the failed side's
    /// group). The coupler lag state is in neither half.
    pub(crate) fn snapshot_side(&self, side: Side) -> Snapshot {
        let mut s = Snapshot::new();
        self.push_rows(Some(side), &mut s);
        push(&mut s, format!("{}.scalars", side.stem()), self.scalars(side));
        s
    }

    /// Atmosphere+land half of the model state.
    pub fn snapshot_fast(&self) -> Snapshot {
        self.snapshot_side(Side::Fast)
    }

    /// Ocean+ice+BGC half of the model state.
    pub fn snapshot_slow(&self) -> Snapshot {
        self.snapshot_side(Side::Slow)
    }

    /// Restore from a snapshot produced by [`CoupledEsm::snapshot`] on an
    /// identically configured instance.
    pub fn restore(&mut self, s: &Snapshot) {
        self.restore_same_shape(s);
        // The trajectory jumped: a recorded window schedule may not be
        // trusted across a rollback — the next window re-records.
        self.replay.invalidate();
    }

    /// Restore without invalidating the recorded window graph. For the
    /// audit-replay detector only: the caller guarantees the snapshot
    /// comes from the *same* trajectory and shape (it re-executes the
    /// very windows the graph recorded), so the frozen schedule stays
    /// valid and the re-run draws its buffers from the arena pool
    /// instead of allocating scratch.
    pub fn restore_same_shape(&mut self, s: &Snapshot) {
        self.copy_rows(None, s);
        let scalars = s.expect("esm.scalars");
        self.windows_run = scalars[0] as u64;
        self.set_scalars(Side::Fast, &scalars[1..4]);
        self.set_scalars(Side::Slow, &scalars[4..]);
    }

    /// Restore only `side`'s group from its [`CoupledEsm::snapshot_side`]
    /// snapshot. The peer group and the coupler lag state are untouched.
    pub(crate) fn restore_side(&mut self, side: Side, s: &Snapshot) {
        self.copy_rows(Some(side), s);
        self.set_scalars(side, s.expect(&format!("{}.scalars", side.stem())));
        self.replay.invalidate();
    }

    /// Restore only the atmosphere+land group from a
    /// [`CoupledEsm::snapshot_fast`] snapshot.
    pub fn restore_fast(&mut self, s: &Snapshot) {
        self.restore_side(Side::Fast, s)
    }

    /// Restore only the ocean+ice+BGC group from a
    /// [`CoupledEsm::snapshot_slow`] snapshot.
    pub fn restore_slow(&mut self, s: &Snapshot) {
        self.restore_side(Side::Slow, s)
    }

    /// Snapshot variables an SDC fault plan may flip bits in: every f64
    /// state buffer, in snapshot order. Excluded: `atm.is_water` (a bool
    /// mask encoded as f64) and `esm.scalars` (scheduling metadata, not
    /// model state).
    pub fn flippable_var_names(&self) -> Vec<String> {
        (STATE_VARS.iter().flat_map(|v| v.bufs(self)))
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// Mutable access to a named snapshot variable's live buffer (the
    /// SDC injection point). `None` for unknown names and for the
    /// non-f64 variables excluded from [`CoupledEsm::flippable_var_names`].
    pub fn state_var_mut(&mut self, name: &str) -> Option<&mut [f64]> {
        let mut bufs = lookup(name)?.bufs_mut(self);
        bufs.find(|(n, _)| n.to_string() == name).map(|(_, d)| d)
    }

    /// Health probe of one component group: the first non-finite value
    /// in the buffers it owns, as `(variable, value)`. `None` means the
    /// group is numerically healthy.
    pub(crate) fn first_nonfinite(&self, side: Side) -> Option<(String, f64)> {
        (rows(Some(side)).flat_map(|v| v.bufs(self))).find_map(|(name, d)| {
            let x = d.iter().find(|x| !x.is_finite())?;
            Some((name.to_string(), *x))
        })
    }

    /// The names of the static buffers (`QUIESCENT_VARS`), in table order.
    pub const QUIESCENT_BUFFERS: [&'static str; 5] = {
        let mut names = [""; 5];
        let mut i = 0;
        while i < names.len() {
            names[i] = QUIESCENT_VARS[i].name;
            i += 1;
        }
        names
    };

    /// Read access to a quiescent (static) buffer by registry name.
    pub fn quiescent_buffer(&self, name: &str) -> Option<&[f64]> {
        let row = QUIESCENT_VARS.iter().find(|v| v.name == name)?;
        row.bufs(self).next().map(|(_, d)| d)
    }

    /// Mutable access to a quiescent buffer (the SDC injection point for
    /// [`crate::sdc::SdcMode::Quiescent`] and the repair path).
    pub fn quiescent_buffer_mut(&mut self, name: &str) -> Option<&mut [f64]> {
        let row = QUIESCENT_VARS.iter().find(|v| v.name == name)?;
        row.bufs_mut(self).next().map(|(_, d)| d)
    }
}
