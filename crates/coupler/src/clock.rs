//! Coupling schedule arithmetic.
//!
//! The atmosphere/land group steps with `dt_fast`, the ocean/BGC group
//! with `dt_slow`; fluxes are exchanged every `coupling_s` (600 s in the
//! paper's configurations). Both step counts must divide the window —
//! validated at construction: every constructor returns a typed
//! [`ClockError`] on an inconsistent schedule instead of handing out a
//! clock that silently misschedules steps.

/// An inconsistent coupling schedule, rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockError {
    pub dt_fast: f64,
    pub dt_slow: f64,
    pub coupling_s: f64,
}

impl std::fmt::Display for ClockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time steps must divide the coupling interval and dt_fast <= dt_slow: \
             dt_fast={} dt_slow={} coupling_s={}",
            self.dt_fast, self.dt_slow, self.coupling_s
        )
    }
}

impl std::error::Error for ClockError {}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CouplingClock {
    pub dt_fast: f64,
    pub dt_slow: f64,
    pub coupling_s: f64,
}

impl CouplingClock {
    pub fn new(dt_fast: f64, dt_slow: f64, coupling_s: f64) -> Result<CouplingClock, ClockError> {
        let c = CouplingClock {
            dt_fast,
            dt_slow,
            coupling_s,
        };
        if c.is_consistent() {
            Ok(c)
        } else {
            Err(ClockError {
                dt_fast,
                dt_slow,
                coupling_s,
            })
        }
    }

    /// Do the steps divide the coupling window exactly? Always true for a
    /// constructed clock; kept public for validating raw step choices.
    pub fn is_consistent(&self) -> bool {
        let divides = |dt: f64| {
            let n = self.coupling_s / dt;
            (n - n.round()).abs() < 1e-9 && n >= 1.0 - 1e-9
        };
        divides(self.dt_fast) && divides(self.dt_slow) && self.dt_fast <= self.dt_slow
    }

    /// Fast (atmosphere+land) steps per coupling window.
    pub fn fast_steps(&self) -> usize {
        (self.coupling_s / self.dt_fast).round() as usize
    }

    /// Slow (ocean+BGC) steps per coupling window.
    pub fn slow_steps(&self) -> usize {
        (self.coupling_s / self.dt_slow).round() as usize
    }

    /// The paper's 1.25 km clock: dt 10 s / 60 s, coupling 600 s.
    pub fn km1p25() -> Result<CouplingClock, ClockError> {
        CouplingClock::new(10.0, 60.0, 600.0)
    }

    /// The paper's 10 km clock: dt 75 s / 600 s, coupling 600 s.
    pub fn km10() -> Result<CouplingClock, ClockError> {
        CouplingClock::new(75.0, 600.0, 600.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clocks() {
        let c1 = CouplingClock::km1p25().unwrap();
        assert_eq!(c1.fast_steps(), 60);
        assert_eq!(c1.slow_steps(), 10);
        let c10 = CouplingClock::km10().unwrap();
        assert_eq!(c10.fast_steps(), 8);
        assert_eq!(c10.slow_steps(), 1);
    }

    #[test]
    fn rejects_non_dividing_steps() {
        let err = CouplingClock::new(7.0, 60.0, 600.0).unwrap_err();
        assert_eq!(err.dt_fast, 7.0);
        assert!(err.to_string().contains("divide the coupling interval"));
    }

    #[test]
    fn rejects_slow_faster_than_fast() {
        assert!(CouplingClock::new(60.0, 10.0, 600.0).is_err());
    }
}
