//! Flux bundles, the concurrent window runner, and degraded-mode state.
//!
//! The heterogeneous mapping of §5.1 runs {atmosphere, land} and {ocean,
//! sea ice, BGC} *concurrently* — on GPUs and CPUs of the same superchips
//! in the paper, on separate threads here — synchronizing only at coupling
//! windows. The runner measures each side's **coupling wait**, the §6.3
//! metric that must stay near zero for the expensive side when the load
//! balance is right.
//!
//! Everything at the coupling boundary fails *typed*: a missing field, a
//! peer that died mid-run, or an exhausted degraded-mode budget all
//! surface as [`FluxError`] instead of a panic, so a supervisor can decide
//! between degraded continuation and abort.

use crossbeam::channel::{bounded, Receiver, Sender};
use std::time::Instant;

/// Typed failure at the coupling boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum FluxError {
    /// A consumer asked for a field the producer never packed. Coupling
    /// contracts are static, so this is a wiring bug — but it surfaces as
    /// a value, not a panic, and names the field.
    MissingField { field: String },
    /// A field carried a NaN/Inf and the repair policy is `Reject`.
    NonFinite {
        field: String,
        index: usize,
        value: f64,
    },
    /// A finite value violated the field's declared physical range and
    /// the repair policy is `Reject`.
    OutOfBounds {
        field: String,
        index: usize,
        value: f64,
        min: f64,
        max: f64,
    },
    /// Persistence was requested (fallback or `PersistLast` repair) but
    /// no valid previous value exists yet.
    NoLastValid { field: String },
    /// Degraded-mode coupling ran more consecutive windows on stale
    /// fluxes than the configured budget allows.
    DegradedBudgetExhausted {
        window: u64,
        consecutive: u32,
        budget: u32,
    },
    /// The peer side is gone (its endpoint was dropped mid-run).
    PeerClosed { window: u64 },
}

impl std::fmt::Display for FluxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FluxError::MissingField { field } => {
                write!(f, "missing coupling field '{field}'")
            }
            FluxError::NonFinite {
                field,
                index,
                value,
            } => write!(f, "non-finite flux {field}[{index}] = {value}"),
            FluxError::OutOfBounds {
                field,
                index,
                value,
                min,
                max,
            } => write!(
                f,
                "flux {field}[{index}] = {value} outside physical range [{min}, {max}]"
            ),
            FluxError::NoLastValid { field } => {
                write!(f, "no last-valid value to persist for flux '{field}'")
            }
            FluxError::DegradedBudgetExhausted {
                window,
                consecutive,
                budget,
            } => write!(
                f,
                "window {window}: {consecutive} consecutive degraded windows exceed budget {budget}"
            ),
            FluxError::PeerClosed { window } => {
                write!(f, "window {window}: peer coupling endpoint closed")
            }
        }
    }
}

impl std::error::Error for FluxError {}

/// A named bundle of per-cell fields exchanged at a coupling event.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FluxSet {
    pub fields: Vec<(&'static str, Vec<f64>)>,
}

impl FluxSet {
    pub fn new() -> FluxSet {
        FluxSet::default()
    }

    pub fn insert(&mut self, name: &'static str, data: Vec<f64>) {
        debug_assert!(
            self.get(name).is_none(),
            "duplicate coupling field {name}"
        );
        self.fields.push((name, data));
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.fields
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d.as_slice())
    }

    /// Field lookup with a typed error naming the missing field.
    pub fn try_get(&self, name: &str) -> Result<&[f64], FluxError> {
        self.get(name).ok_or_else(|| FluxError::MissingField {
            field: name.to_string(),
        })
    }
}

/// Wait-time accounting of one side of the coupling.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CouplerStats {
    /// Seconds this side spent blocked waiting for its peer.
    pub wait_s: f64,
    /// Completed coupling exchanges.
    pub exchanges: u64,
}

/// Bidirectional coupling endpoint.
pub struct Endpoint {
    tx: Sender<FluxSet>,
    rx: Receiver<FluxSet>,
    pub stats: CouplerStats,
}

impl Endpoint {
    /// Send this side's fluxes (non-blocking; capacity 1 pipeline). A
    /// dead peer is not an error for the sender — the failure surfaces,
    /// typed, on this side's next `recv`.
    pub fn send(&mut self, fluxes: FluxSet) {
        let _ = self.tx.send(fluxes);
    }

    /// Receive the peer's fluxes, accounting blocked time as coupling
    /// wait. Fails typed if the peer endpoint was dropped.
    pub fn recv(&mut self, window: u64) -> Result<FluxSet, FluxError> {
        let t0 = Instant::now();
        let f = self
            .rx
            .recv()
            .map_err(|_| FluxError::PeerClosed { window })?;
        self.stats.wait_s += t0.elapsed().as_secs_f64();
        self.stats.exchanges += 1;
        Ok(f)
    }
}

/// Create a connected pair of coupling endpoints.
pub fn endpoint_pair() -> (Endpoint, Endpoint) {
    let (tx_a, rx_b) = bounded(1);
    let (tx_b, rx_a) = bounded(1);
    (
        Endpoint {
            tx: tx_a,
            rx: rx_a,
            stats: CouplerStats::default(),
        },
        Endpoint {
            tx: tx_b,
            rx: rx_b,
            stats: CouplerStats::default(),
        },
    )
}

/// Last-valid-flux persistence: the degraded-mode substitute for a peer
/// that missed its coupling deadline or failed validation.
///
/// Every healthy exchange [`accept`](PersistenceFallback::accept)s the
/// incoming set; when the peer goes silent,
/// [`degrade`](PersistenceFallback::degrade) re-serves the last valid set
/// instead of stalling — bounded by a max-consecutive-degraded-windows
/// budget, past which the error is no longer absorbable. Every degraded
/// window is recorded.
#[derive(Debug, Clone)]
pub struct PersistenceFallback {
    last_valid: Option<FluxSet>,
    consecutive: u32,
    budget: u32,
    degraded: Vec<u64>,
}

impl PersistenceFallback {
    pub fn new(budget: u32) -> PersistenceFallback {
        PersistenceFallback {
            last_valid: None,
            consecutive: 0,
            budget,
            degraded: Vec::new(),
        }
    }

    /// A healthy, validated flux set arrived: remember it and reset the
    /// consecutive-degraded counter.
    pub fn accept(&mut self, fluxes: &FluxSet) {
        self.last_valid = Some(fluxes.clone());
        self.consecutive = 0;
    }

    /// The peer missed `window`: serve the last valid set, or fail typed
    /// if there is none / the budget is spent.
    pub fn degrade(&mut self, window: u64) -> Result<FluxSet, FluxError> {
        let Some(last) = &self.last_valid else {
            return Err(FluxError::NoLastValid {
                field: "<whole flux set>".to_string(),
            });
        };
        if self.consecutive >= self.budget {
            return Err(FluxError::DegradedBudgetExhausted {
                window,
                consecutive: self.consecutive + 1,
                budget: self.budget,
            });
        }
        self.consecutive += 1;
        self.degraded.push(window);
        Ok(last.clone())
    }

    /// Windows that ran on stale fluxes, in order.
    pub fn degraded_windows(&self) -> &[u64] {
        &self.degraded
    }

    pub fn consecutive(&self) -> u32 {
        self.consecutive
    }

    pub fn last_valid(&self) -> Option<&FluxSet> {
        self.last_valid.as_ref()
    }
}

/// Run `windows` coupling windows with the two component groups executing
/// concurrently (scoped threads, so the closures may mutably borrow the
/// component models). Each closure receives the peer's fluxes for its
/// window and returns its own fluxes for the next exchange — or a typed
/// [`FluxError`], which tears the exchange down cleanly: the failing side
/// returns its error, the peer sees its endpoint close and exits typed
/// too, and the *originating* error wins. Returns the wait statistics
/// `(fast_side, slow_side)` on success.
pub fn run_concurrent_windows<Fa, Fo>(
    windows: usize,
    initial_to_fast: FluxSet,
    initial_to_slow: FluxSet,
    mut fast_window: Fa,
    mut slow_window: Fo,
) -> Result<(CouplerStats, CouplerStats), FluxError>
where
    Fa: FnMut(usize, &FluxSet) -> Result<FluxSet, FluxError> + Send,
    Fo: FnMut(usize, &FluxSet) -> Result<FluxSet, FluxError> + Send,
{
    let (mut end_fast, mut end_slow) = endpoint_pair();
    std::thread::scope(|s| {
        let slow_handle = s.spawn(move || -> Result<CouplerStats, FluxError> {
            let mut incoming = initial_to_slow;
            for w in 0..windows {
                let out = slow_window(w, &incoming)?;
                // The last window's output has no consumer (the peer may
                // already have exited) — the caller keeps it via its
                // closure state.
                if w + 1 < windows {
                    end_slow.send(out);
                    incoming = end_slow.recv(w as u64)?;
                }
            }
            Ok(end_slow.stats)
        });
        // `end_fast` moves into the closure so an early error drops it,
        // closing the channel the slow side may be blocked on — otherwise
        // the join below would deadlock against a peer waiting forever.
        let fast_result = (move || -> Result<CouplerStats, FluxError> {
            let mut incoming = initial_to_fast;
            for w in 0..windows {
                let out = fast_window(w, &incoming)?;
                if w + 1 < windows {
                    end_fast.send(out);
                    incoming = end_fast.recv(w as u64)?;
                }
            }
            Ok(end_fast.stats)
        })();
        // Always join: the slow side must not outlive the scope anyway,
        // and its error may be the originating one.
        let slow_result = slow_handle.join().expect("slow side panicked");
        match (fast_result, slow_result) {
            (Ok(fast), Ok(slow)) => Ok((fast, slow)),
            // A PeerClosed is the *echo* of the peer's failure; prefer
            // the originating error when both sides report.
            (Err(FluxError::PeerClosed { .. }), Err(e)) => Err(e),
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fluxset_roundtrip() {
        let mut f = FluxSet::new();
        f.insert("sst", vec![1.0, 2.0]);
        f.insert("co2", vec![3.0]);
        assert_eq!(f.try_get("sst").unwrap(), &[1.0, 2.0]);
        assert_eq!(f.get("nope"), None);
    }

    #[test]
    fn missing_field_is_a_typed_error() {
        let err = FluxSet::new().try_get("sst").unwrap_err();
        assert_eq!(
            err,
            FluxError::MissingField {
                field: "sst".to_string()
            }
        );
        assert!(err.to_string().contains("missing coupling field 'sst'"));
    }

    #[test]
    fn endpoints_exchange_both_ways() {
        let (mut a, mut b) = endpoint_pair();
        let mut fa = FluxSet::new();
        fa.insert("x", vec![1.0]);
        a.send(fa.clone());
        let got = b.recv(0).unwrap();
        assert_eq!(got, fa);
        let mut fb = FluxSet::new();
        fb.insert("y", vec![2.0]);
        b.send(fb.clone());
        assert_eq!(a.recv(0).unwrap(), fb);
        assert_eq!(a.stats.exchanges, 1);
        assert_eq!(b.stats.exchanges, 1);
    }

    #[test]
    fn recv_fails_typed_when_peer_endpoint_drops() {
        let (mut a, b) = endpoint_pair();
        drop(b);
        assert_eq!(a.recv(7), Err(FluxError::PeerClosed { window: 7 }));
    }

    #[test]
    fn persistence_fallback_serves_stale_within_budget() {
        let mut fb = PersistenceFallback::new(2);
        assert!(matches!(fb.degrade(1), Err(FluxError::NoLastValid { .. })));
        let mut f = FluxSet::new();
        f.insert("sst", vec![4.0]);
        fb.accept(&f);
        assert_eq!(fb.degrade(2).unwrap(), f);
        assert_eq!(fb.degrade(3).unwrap(), f);
        assert_eq!(
            fb.degrade(4),
            Err(FluxError::DegradedBudgetExhausted {
                window: 4,
                consecutive: 3,
                budget: 2
            })
        );
        assert_eq!(fb.degraded_windows(), &[2, 3]);
        // A healthy exchange resets the consecutive counter.
        fb.accept(&f);
        assert_eq!(fb.consecutive(), 0);
        assert!(fb.degrade(5).is_ok());
    }

    #[test]
    fn concurrent_windows_pipeline_and_measure_waits() {
        // Slow side sleeps; the fast side's wait should absorb most of the
        // imbalance while the slow side barely waits.
        let windows = 4;
        let (fast_stats, slow_stats) = run_concurrent_windows(
            windows,
            FluxSet::new(),
            FluxSet::new(),
            |w, incoming| {
                if w > 0 {
                    assert_eq!(incoming.try_get("slow").unwrap()[0], (w - 1) as f64);
                }
                let mut out = FluxSet::new();
                out.insert("fast", vec![w as f64]);
                Ok(out)
            },
            |w, incoming| {
                if w > 0 {
                    assert_eq!(incoming.try_get("fast").unwrap()[0], (w - 1) as f64);
                }
                std::thread::sleep(Duration::from_millis(30));
                let mut out = FluxSet::new();
                out.insert("slow", vec![w as f64]);
                Ok(out)
            },
        )
        .unwrap();
        assert_eq!(fast_stats.exchanges, (windows - 1) as u64);
        assert_eq!(slow_stats.exchanges, (windows - 1) as u64);
        assert!(
            fast_stats.wait_s > 0.05,
            "fast side should wait for the sleeper: {fast_stats:?}"
        );
        assert!(
            slow_stats.wait_s < 0.02,
            "slow side should barely wait: {slow_stats:?}"
        );
    }

    #[test]
    fn balanced_sides_wait_little() {
        let (fast, slow) = run_concurrent_windows(
            5,
            FluxSet::new(),
            FluxSet::new(),
            |_, _| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(FluxSet::new())
            },
            |_, _| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(FluxSet::new())
            },
        )
        .unwrap();
        assert!(fast.wait_s < 0.05);
        assert!(slow.wait_s < 0.05);
    }

    #[test]
    fn slow_side_error_propagates_and_wins_over_the_echo() {
        let err = run_concurrent_windows(
            4,
            FluxSet::new(),
            FluxSet::new(),
            |_, _| Ok(FluxSet::new()),
            |w, incoming| {
                if w == 2 {
                    incoming.try_get("never_packed")?;
                }
                Ok(FluxSet::new())
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            FluxError::MissingField {
                field: "never_packed".to_string()
            },
            "the originating error must win over the peer's PeerClosed echo"
        );
    }

    #[test]
    fn fast_side_error_propagates() {
        let err = run_concurrent_windows(
            3,
            FluxSet::new(),
            FluxSet::new(),
            |w, _| {
                if w == 1 {
                    Err(FluxError::NonFinite {
                        field: "heat_flux".to_string(),
                        index: 9,
                        value: f64::NAN,
                    })
                } else {
                    Ok(FluxSet::new())
                }
            },
            |_, _| Ok(FluxSet::new()),
        )
        .unwrap_err();
        assert!(matches!(err, FluxError::NonFinite { .. }));
    }
}
