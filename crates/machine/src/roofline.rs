//! Roofline parameters for the static cost model.
//!
//! The dataflow compiler's cost pass (`dace-mini::cost`) produces per-map
//! FLOP and byte counts; this module owns the *machine side* of the
//! evaluation: sustained bandwidth, the FP64 compute ceiling, and the
//! per-map launch overhead. Predicted time is the classic roofline
//!
//! ```text
//! t(map) = max(bytes / bw_sustained, flops / flops_peak) + t_launch
//! ```
//!
//! which for every climate kernel in the paper lands on the bandwidth
//! leg — "the final computations are not arithmetically intensive and
//! hence memory bandwidth limited". The balance point (flops per byte at
//! which the two legs meet) is what the `W0502` lint compares a kernel's
//! arithmetic intensity against.

use crate::{calib, chips};
use serde::Serialize;

/// Machine parameters a static cost vector is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Roofline {
    pub name: &'static str,
    /// Peak DRAM bandwidth (bytes/s).
    pub peak_bw_bytes_s: f64,
    /// Sustained fraction of peak a tuned kernel reaches (calibrated).
    pub dram_eff: f64,
    /// Peak FP64 throughput (FLOP/s).
    pub peak_flops_s: f64,
    /// Fixed overhead charged per map launch (s).
    pub launch_s: f64,
}

impl Roofline {
    /// GH200 as seen by DaCe-generated kernels (50 % of peak DRAM).
    pub fn gh200_dace() -> Roofline {
        Roofline {
            name: "GH200 (DaCe)",
            peak_bw_bytes_s: chips::HOPPER.peak_bw_gbs * 1e9,
            dram_eff: calib::GPU_DRAM_EFF_DACE,
            peak_flops_s: chips::HOPPER.peak_fp64_gflops * 1e9,
            launch_s: calib::KERNEL_LAUNCH_S,
        }
    }

    /// GH200 as seen by the OpenACC baseline (36 % of peak DRAM).
    pub fn gh200_openacc() -> Roofline {
        Roofline {
            name: "GH200 (OpenACC)",
            peak_bw_bytes_s: chips::HOPPER.peak_bw_gbs * 1e9,
            dram_eff: calib::GPU_DRAM_EFF_OPENACC,
            peak_flops_s: chips::HOPPER.peak_fp64_gflops * 1e9,
            launch_s: calib::KERNEL_LAUNCH_S,
        }
    }

    /// Bandwidth a tuned kernel actually sustains (bytes/s).
    pub fn sustained_bw_bytes_s(&self) -> f64 {
        self.peak_bw_bytes_s * self.dram_eff
    }

    /// Arithmetic intensity (FLOP/byte) at which the bandwidth and
    /// compute legs of the roofline meet, using *sustained* bandwidth.
    /// Kernels below this are memory-bound.
    pub fn balance_flops_per_byte(&self) -> f64 {
        self.peak_flops_s / self.sustained_bw_bytes_s()
    }

    /// Predicted execution time of one map: the binding roofline leg
    /// plus the launch overhead, floored at the empirical minimum kernel
    /// duration.
    pub fn map_time_s(&self, flops: f64, bytes: f64) -> f64 {
        let bw_leg = bytes / self.sustained_bw_bytes_s();
        let compute_leg = flops / self.peak_flops_s;
        bw_leg.max(compute_leg).max(calib::KERNEL_EXEC_FLOOR_S) + self.launch_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gh200_dace_sustains_half_of_peak() {
        let r = Roofline::gh200_dace();
        assert_eq!(r.sustained_bw_bytes_s(), 2048e9);
        // H100 FP64 vs 2 TB/s sustained: balance around 16-17 flop/byte.
        let b = r.balance_flops_per_byte();
        assert!(b > 10.0 && b < 25.0, "balance {b}");
    }

    #[test]
    fn map_time_is_bandwidth_bound_for_climate_intensity() {
        let r = Roofline::gh200_dace();
        // 0.1 flop/byte, 1 GiB moved: the bandwidth leg dominates.
        let bytes = 1e9;
        let t = r.map_time_s(0.1 * bytes, bytes);
        let bw_leg = bytes / r.sustained_bw_bytes_s();
        assert!((t - (bw_leg + r.launch_s)).abs() < 1e-12);
    }

    #[test]
    fn tiny_maps_pay_the_exec_floor_and_launch() {
        let r = Roofline::gh200_dace();
        let t = r.map_time_s(10.0, 80.0);
        assert!((t - (crate::calib::KERNEL_EXEC_FLOOR_S + r.launch_s)).abs() < 1e-15);
    }

    #[test]
    fn openacc_is_slower_than_dace_on_the_same_cost() {
        let dace = Roofline::gh200_dace();
        let acc = Roofline::gh200_openacc();
        let (f, b) = (1e9, 1e10);
        assert!(acc.map_time_s(f, b) > dace.map_time_s(f, b));
    }
}
