//! Component wall-clock timers and the temporal-compression metric.
//!
//! §6.3 of the paper: "The most relevant performance metric for climate
//! simulations is the temporal compression tau, which describes the model
//! throughput in units of simulated time versus actual time. … The
//! simulation time is measured independently for the atmosphere/land and
//! ocean/sea-ice/biogeochemistry components. Included in timings is the
//! coupling time."
//!
//! Since the rayon shim grew a real pool, each compute bucket also tracks
//! **busy seconds**: kernel-execution time summed across pool workers, as
//! attributed by `rayon::thread_busy_s` to the thread that drove the
//! kernels. `busy / (wall * threads)` is that bucket's pool utilization —
//! the number that shows whether tau is actually riding the hardware.
//!
//! Concurrent coupling runs the two component groups on different threads,
//! so they cannot share a `&mut Timers`. The contract is: each side
//! borrows **its own pair of buckets** (disjoint fields, handed out by
//! `CoupledEsm::split_sides`) and times into them with
//! [`Timers::time_with_busy`], so neither side's bucket can absorb the
//! other's wall time — see the no-double-count test below.

use std::time::Instant;

/// Accumulating wall-clock timers for a coupled run.
#[derive(Debug, Clone, Default)]
pub struct Timers {
    /// Atmosphere + land compute time (s).
    pub atm_land_s: f64,
    /// Ocean + sea-ice + BGC compute time (s).
    pub ocean_bgc_s: f64,
    /// Coupler pack/unpack/exchange time (s).
    pub coupling_s: f64,
    /// Time the atmosphere side waited for the ocean side (s).
    pub atm_wait_s: f64,
    /// Time the ocean side waited for the atmosphere side (s).
    pub oce_wait_s: f64,
    /// Total wall time of the measured span (s).
    pub total_s: f64,
    /// Simulated seconds covered by the measured span.
    pub simulated_s: f64,
    /// Kernel-busy seconds (summed over pool workers) inside the
    /// atmosphere + land bucket.
    pub atm_land_busy_s: f64,
    /// Kernel-busy seconds inside the ocean + BGC bucket.
    pub ocean_bgc_busy_s: f64,
    /// Pool width the span was recorded at (`rayon::current_num_threads`).
    pub threads: usize,
}

impl Timers {
    pub fn new() -> Timers {
        Timers::default()
    }

    /// Time a closure into one of the buckets.
    pub fn time<T>(bucket: &mut f64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        *bucket += t0.elapsed().as_secs_f64();
        r
    }

    /// Time a closure into a wall bucket AND attribute the pool-worker
    /// busy seconds of every parallel kernel it drives to `busy`.
    ///
    /// In concurrent coupling each component thread holds its own pair,
    /// so no `&mut` bucket is ever shared across threads.
    pub fn time_with_busy<T>(bucket: &mut f64, busy: &mut f64, f: impl FnOnce() -> T) -> T {
        let busy0 = rayon::thread_busy_s();
        let t0 = Instant::now();
        let r = f();
        *bucket += t0.elapsed().as_secs_f64();
        *busy += rayon::thread_busy_s() - busy0;
        r
    }

    /// Account one driver call into the span: its wall time since `t0`,
    /// the simulated seconds it covered, and the pool width it ran at.
    pub fn account_call(&mut self, t0: Instant, simulated_s: f64) {
        self.threads = rayon::current_num_threads();
        self.total_s += t0.elapsed().as_secs_f64();
        self.simulated_s += simulated_s;
    }

    /// Temporal compression tau = simulated time / wall time.
    pub fn tau(&self) -> f64 {
        if self.total_s > 0.0 {
            self.simulated_s / self.total_s
        } else {
            0.0
        }
    }

    /// Simulated days per (wall-clock) day — the unit of Table 1.
    pub fn sdpd(&self) -> f64 {
        self.tau()
    }

    /// Fraction of wall time spent in each bucket (atm, oce, coupling).
    pub fn profile(&self) -> (f64, f64, f64) {
        let t = self.total_s.max(1e-12);
        (
            self.atm_land_s / t,
            self.ocean_bgc_s / t,
            self.coupling_s / t,
        )
    }

    /// Pool utilization of a (wall, busy) bucket pair: busy worker-seconds
    /// per available thread-second, in `[0, 1]` up to timer noise.
    pub fn utilization(&self, wall_s: f64, busy_s: f64) -> f64 {
        if wall_s <= 0.0 || self.threads == 0 {
            0.0
        } else {
            busy_s / (wall_s * self.threads as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tau_is_simulated_over_wall() {
        let t = Timers {
            simulated_s: 86_400.0,
            total_s: 600.0,
            ..Timers::default()
        };
        assert!((t.tau() - 144.0).abs() < 1e-12);
        assert_eq!(t.sdpd(), t.tau());
    }

    #[test]
    fn zero_wall_time_is_safe() {
        assert_eq!(Timers::new().tau(), 0.0);
        assert_eq!(Timers::new().utilization(0.0, 0.0), 0.0);
    }

    #[test]
    fn time_accumulates() {
        let mut bucket = 0.0;
        let v = Timers::time(&mut bucket, || {
            std::thread::sleep(Duration::from_millis(12));
            42
        });
        assert_eq!(v, 42);
        assert!(bucket >= 0.010, "bucket {bucket}");
        Timers::time(&mut bucket, || {});
        assert!(bucket >= 0.010);
    }

    #[test]
    fn time_with_busy_records_kernel_busy_seconds() {
        let mut wall = 0.0;
        let mut busy = 0.0;
        let n = 1 << 16;
        let mut v = vec![1.0f64; n];
        Timers::time_with_busy(&mut wall, &mut busy, || {
            use rayon::prelude::*;
            v.par_iter_mut().for_each(|x| *x = x.sqrt() + 1.0);
        });
        assert!(wall > 0.0);
        assert!(busy > 0.0, "parallel kernel must report busy time");
        // Busy time is bounded by workers * wall (plus timer noise).
        let width = rayon::current_num_threads() as f64;
        assert!(
            busy <= wall * width * 1.5 + 1e-3,
            "busy {busy} vs wall {wall} at width {width}"
        );
    }

    /// The concurrent-coupling contract: two sides timing into their own
    /// locals on their own threads, merged after the join, never count
    /// each other's wall time.
    #[test]
    fn per_side_locals_do_not_double_count() {
        let mut timers = Timers::new();
        let mut fast_wall = 0.0;
        let mut fast_busy = 0.0;
        let mut slow_wall = 0.0;
        let mut slow_busy = 0.0;
        std::thread::scope(|s| {
            let slow = s.spawn(|| {
                let mut w = 0.0;
                let mut b = 0.0;
                Timers::time_with_busy(&mut w, &mut b, || {
                    std::thread::sleep(Duration::from_millis(60));
                });
                (w, b)
            });
            Timers::time_with_busy(&mut fast_wall, &mut fast_busy, || {
                std::thread::sleep(Duration::from_millis(20));
            });
            let (w, b) = slow.join().unwrap();
            slow_wall = w;
            slow_busy = b;
        });
        timers.atm_land_s += fast_wall;
        timers.atm_land_busy_s += fast_busy;
        timers.ocean_bgc_s += slow_wall;
        timers.ocean_bgc_busy_s += slow_busy;

        assert!(timers.atm_land_s >= 0.020, "{timers:?}");
        assert!(timers.ocean_bgc_s >= 0.060, "{timers:?}");
        // The fast bucket must NOT contain the slow side's 60 ms — that
        // is exactly what a shared aliased bucket would produce.
        assert!(
            timers.atm_land_s < 0.050,
            "fast bucket absorbed the slow side: {timers:?}"
        );
    }
}
