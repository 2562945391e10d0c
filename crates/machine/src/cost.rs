//! The throughput (cost) model: per-component step times, coupling, and
//! temporal compression tau on a modeled system.
//!
//! Structure (see crate docs and `calib`):
//!
//! ```text
//! t_step(component) = compute + launches + halo + reductions + overhead
//!   compute    = local dof x bytes/dof / (bandwidth x efficiency)
//!   launches   = n_kernels x launch latency   (GPU; graphs replace it)
//!   halo       = n_exchanges x 2 alpha + payload / injection bandwidth
//!   reductions = n_iters x alpha_coll x log2(P)   (ocean CG solver)
//! ```
//!
//! tau follows from the coupling window: atmosphere+land run `coupling/dt_a`
//! steps while ocean+BGC run `coupling/dt_o` steps, concurrently when
//! mapped to different devices (the paper's heterogeneous mapping runs the
//! ocean "for free" on the Grace CPUs), serialized otherwise.

use crate::calib::*;
use crate::config::GridConfig;
use crate::graphs::land_sequence;
use crate::power;
use crate::systems::SystemSpec;
use serde::Serialize;

/// Where a component group executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Device {
    Gpu,
    Cpu,
}

/// Component-to-device mapping plus acceleration options (§5.1, Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Mapping {
    /// Atmosphere device (land always follows the atmosphere, §5.1: it
    /// "directly exchanges fluxes with the atmospheric component on the
    /// atmospheric timestep, and therefore needs to run on GPUs").
    pub atm: Device,
    /// Ocean + sea-ice device.
    pub ocean: Device,
    /// Biogeochemistry device (inline with the ocean on CPU, or
    /// concurrent on GPU as in Linardakis et al. 2022).
    pub bgc: Device,
    /// Use CUDA graphs for the land model's small kernels.
    pub land_graphs: bool,
    /// Use the DaCe-transformed dynamical core instead of OpenACC.
    pub dace_dycore: bool,
}

impl Mapping {
    /// The paper's production mapping: atmosphere+land on the Hopper GPUs
    /// (with CUDA graphs), ocean+BGC on the Grace CPUs.
    pub fn paper() -> Mapping {
        Mapping {
            atm: Device::Gpu,
            ocean: Device::Cpu,
            bgc: Device::Cpu,
            land_graphs: true,
            dace_dycore: false,
        }
    }

    /// Everything on the GPUs (the configuration most other simulations
    /// use, per §5.1).
    pub fn all_gpu() -> Mapping {
        Mapping {
            atm: Device::Gpu,
            ocean: Device::Gpu,
            bgc: Device::Gpu,
            land_graphs: true,
            dace_dycore: false,
        }
    }

    /// Everything on the CPUs (Levante CPU partition, Fig. 2).
    pub fn all_cpu() -> Mapping {
        Mapping {
            atm: Device::Cpu,
            ocean: Device::Cpu,
            bgc: Device::Cpu,
            land_graphs: false,
            dace_dycore: false,
        }
    }
}

/// Cost breakdown of one component step on one rank (seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ComponentCost {
    pub compute_s: f64,
    pub launch_s: f64,
    pub halo_s: f64,
    pub reduce_s: f64,
    pub overhead_s: f64,
}

impl ComponentCost {
    pub fn total(&self) -> f64 {
        self.compute_s + self.launch_s + self.halo_s + self.reduce_s + self.overhead_s
    }
}

/// One point of a scaling curve.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ScalingPoint {
    pub n_chips: u32,
    /// Temporal compression: simulated time / wall time.
    pub tau: f64,
    /// Wall time of one atmosphere step (incl. land), seconds.
    pub atm_step_s: f64,
    /// Wall time of one ocean step (incl. BGC where inline), seconds.
    pub oce_step_s: f64,
    /// Time the atmosphere waits for the ocean per coupling window (s);
    /// ~0 in a well-balanced heterogeneous setup.
    pub atm_coupling_wait_s: f64,
    /// Total electrical power of the used nodes (kW).
    pub power_kw: f64,
    /// Energy per simulated day (MJ).
    pub energy_mj_per_sim_day: f64,
    /// Aggregate sustained HBM bandwidth during dynamical-core execution
    /// (GB/s summed over chips) — the §5.2 bandwidth figure.
    pub sustained_bw_gbs: f64,
    /// Local atmosphere cells per chip.
    pub atm_cells_per_chip: f64,
}

/// The throughput model of one (system, configuration, mapping) triple.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputModel {
    pub system: SystemSpec,
    pub config: GridConfig,
    pub mapping: Mapping,
}

impl ThroughputModel {
    pub fn new(system: SystemSpec, config: GridConfig, mapping: Mapping) -> Self {
        ThroughputModel {
            system,
            config,
            mapping,
        }
    }

    /// Effective GPU memory bandwidth (B/s) at the application-average
    /// DRAM efficiency, including the system's power derate.
    fn gpu_bw_eff(&self) -> f64 {
        self.system.chip.gpu.peak_bw_gbs * 1e9 * GPU_DRAM_EFF_AVG * self.system.gpu_derate
    }

    /// Effective CPU memory bandwidth (B/s).
    fn cpu_bw_eff(&self) -> f64 {
        let eff = if self.system.chip.cpu.name == "Grace" {
            CPU_EFF_GRACE
        } else {
            CPU_EFF_AMD
        };
        self.system.chip.cpu.peak_bw_gbs * 1e9 * eff
    }

    fn bw_for(&self, dev: Device) -> f64 {
        match dev {
            Device::Gpu => self.gpu_bw_eff(),
            Device::Cpu => self.cpu_bw_eff(),
        }
    }

    /// Injection bandwidth per chip (B/s).
    fn link_bw_per_chip(&self) -> f64 {
        self.system.network.inj_bw_node_gbs * 1e9 / self.system.chips_per_node as f64
    }

    /// Halo time for one component step: latency per message plus
    /// ring-payload over the NIC.
    fn halo_time(&self, cells_local: f64, levels: f64, n_exchanges: f64) -> f64 {
        let ring_cells = HALO_RING_COEF * cells_local.sqrt();
        let bytes =
            n_exchanges * HALO_FIELDS_PER_EXCHANGE * ring_cells * levels * 8.0;
        let mut t = n_exchanges * 2.0 * ALPHA_P2P_S + bytes / self.link_bw_per_chip();
        if !self.system.network.gpudirect && self.mapping.atm == Device::Gpu {
            // Staging through the host costs an extra hop over C2C.
            t += bytes / (self.system.chip.c2c_bw_gbs * 1e9) + n_exchanges * ALPHA_P2P_S;
        }
        t
    }

    /// Atmosphere dynamical core + physics + tracers, one step.
    pub fn atm_cost(&self, n_chips: u32) -> ComponentCost {
        let cells_local = self.config.atm_cells / n_chips as f64;
        let dof = cells_local * self.config.atm_levels;
        // The DaCe-transformed dynamical core raises the dycore share of
        // the traffic (45 %) from the OpenACC efficiency to ~50 % of peak.
        let traffic = dof * ATM_BYTES_PER_DOF_STEP;
        let base_bw = self.bw_for(self.mapping.atm);
        let compute = if self.mapping.dace_dycore && self.mapping.atm == Device::Gpu {
            let dyn_frac = 0.45;
            let t_dyn_acc = traffic * dyn_frac / base_bw;
            let t_dyn_dace = t_dyn_acc * GPU_DRAM_EFF_OPENACC / GPU_DRAM_EFF_DACE;
            traffic * (1.0 - dyn_frac) / base_bw + t_dyn_dace
        } else {
            traffic / base_bw
        };
        let launch = match self.mapping.atm {
            Device::Gpu => ATM_KERNELS_PER_STEP * KERNEL_LAUNCH_S,
            Device::Cpu => 0.0,
        };
        ComponentCost {
            compute_s: compute,
            launch_s: launch,
            halo_s: self.halo_time(cells_local, self.config.atm_levels, ATM_HALO_EXCHANGES_PER_STEP),
            reduce_s: 0.0,
            overhead_s: STEP_DRIVER_OVERHEAD_S,
        }
    }

    /// Land + vegetation, one (atmosphere) step. Runs on the atmosphere's
    /// device; dominated by small-kernel launches on GPUs (§5.1).
    pub fn land_cost(&self, n_chips: u32) -> ComponentCost {
        let cells_local = self.config.land_cells / n_chips as f64;
        let dof = cells_local
            * (self.config.soil_levels * 4.0 + self.config.pft_levels * 22.0 + 1.0);
        let compute = dof * LAND_BYTES_PER_DOF_STEP / self.bw_for(self.mapping.atm);
        let launch = match self.mapping.atm {
            Device::Gpu => {
                let seq = land_sequence(cells_local, self.system.chip.gpu.peak_bw_gbs);
                if self.mapping.land_graphs {
                    seq.time_graph_replay()
                } else {
                    seq.time_individual_launches()
                }
            }
            Device::Cpu => 0.0,
        };
        ComponentCost {
            compute_s: compute,
            launch_s: launch,
            halo_s: 0.0, // land columns are independent; no halo needed
            reduce_s: 0.0,
            overhead_s: 0.0,
        }
    }

    /// Ocean + sea ice, one ocean step, including the barotropic 2-D
    /// solver's global reductions.
    pub fn ocean_cost(&self, n_chips: u32) -> ComponentCost {
        let cells_local = self.config.oce_cells / n_chips as f64;
        let dof = cells_local * self.config.oce_levels;
        let dev = self.mapping.ocean;
        let compute = dof * OCE_BYTES_PER_DOF_STEP / self.bw_for(dev);
        let p = n_chips as f64;
        // Conjugate gradient: one allreduce plus one thin halo per
        // iteration; on GPUs each iteration additionally launches kernels.
        let per_iter_launch = match dev {
            Device::Gpu => 6.0 * KERNEL_LAUNCH_S,
            Device::Cpu => 0.0,
        };
        let reduce = OCEAN_CG_ITERS
            * (ALPHA_COLL_S * p.log2().max(1.0) + 2.0 * ALPHA_P2P_S + per_iter_launch);
        let launch = match dev {
            Device::Gpu => 300.0 * KERNEL_LAUNCH_S,
            Device::Cpu => 0.0,
        };
        ComponentCost {
            compute_s: compute,
            launch_s: launch,
            halo_s: self.halo_time(cells_local, self.config.oce_levels, 8.0),
            reduce_s: reduce,
            overhead_s: 0.0,
        }
    }

    /// Ocean biogeochemistry (HAMOCC), one ocean step.
    pub fn bgc_cost(&self, n_chips: u32) -> ComponentCost {
        let cells_local = self.config.oce_cells / n_chips as f64;
        let dof = cells_local * self.config.oce_levels;
        let dev = self.mapping.bgc;
        let mut compute = dof * BGC_BYTES_PER_DOF_STEP / self.bw_for(dev);
        if dev != self.mapping.ocean {
            // Concurrent HAMOCC must exchange large 3-D fields with the
            // ocean core every ocean step (§5.1 names this the downside).
            let xfer_bytes = dof * 19.0 * 8.0;
            compute += xfer_bytes / (self.system.chip.c2c_bw_gbs * 1e9);
        }
        let launch = match dev {
            Device::Gpu => 200.0 * KERNEL_LAUNCH_S,
            Device::Cpu => 0.0,
        };
        ComponentCost {
            compute_s: compute,
            launch_s: launch,
            halo_s: 0.0,
            reduce_s: 0.0,
            overhead_s: 0.0,
        }
    }

    /// Wall time of one atmosphere step (atmosphere + land serialized on
    /// the same device).
    pub fn atm_step_s(&self, n_chips: u32) -> f64 {
        self.atm_cost(n_chips).total() + self.land_cost(n_chips).total()
    }

    /// Wall time of one ocean step (ocean + BGC; serialized when mapped to
    /// the same device, overlapped otherwise).
    pub fn oce_step_s(&self, n_chips: u32) -> f64 {
        let o = self.ocean_cost(n_chips).total();
        let b = self.bgc_cost(n_chips).total();
        if self.mapping.bgc == self.mapping.ocean {
            o + b
        } else {
            o.max(b)
        }
    }

    /// Full scaling point at `n_chips`.
    pub fn scaling_point(&self, n_chips: u32) -> ScalingPoint {
        let cfg = &self.config;
        let t_a = self.atm_step_s(n_chips);
        let t_o = self.oce_step_s(n_chips);
        let atm_window = cfg.atm_steps_per_coupling() * t_a;
        let oce_window = cfg.oce_steps_per_coupling() * t_o;
        let heterogeneous = self.mapping.ocean != self.mapping.atm;
        let (window_wall, wait_atm) = if heterogeneous {
            (
                atm_window.max(oce_window) + COUPLER_EXCHANGE_S,
                (oce_window - atm_window).max(0.0),
            )
        } else {
            (atm_window + oce_window + COUPLER_EXCHANGE_S, 0.0)
        };
        let tau = cfg.coupling_s / window_wall;

        let n_nodes = (n_chips as f64 / self.system.chips_per_node as f64).ceil();
        let cpu_busy = if heterogeneous {
            (oce_window / window_wall).min(1.0)
        } else if self.mapping.atm == Device::Cpu {
            1.0
        } else {
            0.1
        };
        let node_power_w = power::node_power_under_load(&self.system, self.mapping, cpu_busy);
        let power_kw = n_nodes * node_power_w / 1e3;
        let energy_mj_per_sim_day = power_kw * 1e3 * (86_400.0 / tau) / 1e6;

        let dyn_eff = if self.mapping.dace_dycore {
            GPU_DRAM_EFF_DACE
        } else {
            GPU_DRAM_EFF_OPENACC
        };
        let sustained_bw_gbs = match self.mapping.atm {
            Device::Gpu => n_chips as f64 * self.system.chip.gpu.peak_bw_gbs * dyn_eff,
            Device::Cpu => n_chips as f64 * self.cpu_bw_eff() / 1e9,
        };

        ScalingPoint {
            n_chips,
            tau,
            atm_step_s: t_a,
            oce_step_s: t_o,
            atm_coupling_wait_s: wait_atm,
            power_kw,
            energy_mj_per_sim_day,
            sustained_bw_gbs,
            atm_cells_per_chip: cfg.atm_cells / n_chips as f64,
        }
    }

    /// Minimum chips on which the configuration fits in GPU memory
    /// (the paper could not fit 1.25 km below 2048 superchips).
    pub fn min_chips_by_memory(&self) -> u32 {
        // ICON's resident working set is far larger than the prognostic
        // state: diagnostic fields, tendencies, two time levels,
        // interpolation coefficients, halo/communication buffers. A factor
        // ~25 reproduces the paper's observation that 1.25 km first fits on
        // 2048 superchips (~196 TiB of HBM for a ~6 TiB prognostic state).
        let bytes_total = 25.0 * self.config.state_bytes();
        let per_chip = match self.mapping.atm {
            Device::Gpu => self.system.chip.gpu.mem_gib * 1.074e9,
            Device::Cpu => self.system.chip.cpu.mem_gib * 1.074e9,
        };
        (bytes_total / per_chip).ceil() as u32
    }

    /// Smallest chip count whose tau reaches `target`, by bisection over
    /// the monotone scaling curve; `None` if the whole system cannot.
    pub fn chips_for_tau(&self, target: f64) -> Option<u32> {
        let max = self.system.total_chips();
        if self.scaling_point(max).tau < target {
            return None;
        }
        let (mut lo, mut hi) = (1u32, max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.scaling_point(mid).tau >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::{ALPS, JUPITER, LEVANTE_CPU, LEVANTE_GPU};

    fn jupiter_1p25() -> ThroughputModel {
        ThroughputModel::new(JUPITER, GridConfig::km1p25(), Mapping::paper())
    }

    #[test]
    fn anchor_tau_jupiter_2048() {
        let tau = jupiter_1p25().scaling_point(2048).tau;
        assert!(
            (tau / 32.7 - 1.0).abs() < 0.10,
            "tau(2048) = {tau:.1}, paper 32.7"
        );
    }

    #[test]
    fn anchor_tau_jupiter_20480() {
        let tau = jupiter_1p25().scaling_point(20_480).tau;
        assert!(
            (tau / 145.7 - 1.0).abs() < 0.10,
            "tau(20480) = {tau:.1}, paper 145.7"
        );
    }

    #[test]
    fn anchor_tau_jupiter_4096() {
        let tau = jupiter_1p25().scaling_point(4096).tau;
        assert!(
            (tau / 59.5 - 1.0).abs() < 0.10,
            "tau(4096) = {tau:.1}, paper 59.5"
        );
    }

    #[test]
    fn anchor_tau_alps_8192() {
        let m = ThroughputModel::new(ALPS, GridConfig::km1p25(), Mapping::paper());
        let tau = m.scaling_point(8192).tau;
        assert!(
            (tau / 91.8 - 1.0).abs() < 0.10,
            "tau(Alps, 8192) = {tau:.1}, paper 91.8"
        );
    }

    #[test]
    fn anchor_weak_scaling_10km_at_1p25_timestep() {
        // Gray reference of Fig 4 left: the 10 km grid with the 10 s step
        // reaches tau ~ 167 on 384 chips.
        let cfg = GridConfig::at_r2b("10 km @ 10 s", 8, 10.0, 60.0);
        let m = ThroughputModel::new(ALPS, cfg, Mapping::paper());
        let tau = m.scaling_point(384).tau;
        assert!(
            (tau / 167.0 - 1.0).abs() < 0.15,
            "tau(10km@10s, 384) = {tau:.1}, paper ~167"
        );
    }

    #[test]
    fn anchor_tau_10km_gh200() {
        // §4: strong scaling begins to decline around tau ~ 798 on 40
        // GH200 nodes (160 chips) for the coupled 10 km configuration.
        let m = ThroughputModel::new(JUPITER, GridConfig::km10(), Mapping::paper());
        let tau = m.scaling_point(160).tau;
        assert!(
            (tau / 798.0 - 1.0).abs() < 0.15,
            "tau(10km, 160 chips) = {tau:.1}, paper ~798"
        );
    }

    #[test]
    fn anchor_practical_limit_40km() {
        // §4: dialing back to dx = 40 km could reach tau ~ 3192 on ~2.5
        // nodes (10 chips).
        let cfg = GridConfig::swept(6); // ~40 km
        let m = ThroughputModel::new(JUPITER, cfg, Mapping::paper());
        let tau = m.scaling_point(10).tau;
        assert!(
            (tau / 3192.0 - 1.0).abs() < 0.15,
            "tau(40km, 10 chips) = {tau:.0}, paper ~3192"
        );
    }

    #[test]
    fn ocean_is_free_in_heterogeneous_mapping() {
        // The ocean+BGC on Grace must finish well before the atmosphere at
        // all benchmarked scales, so the atmosphere never waits.
        let m = jupiter_1p25();
        for chips in [2048, 4096, 8192, 20_480] {
            let p = m.scaling_point(chips);
            assert!(
                p.atm_coupling_wait_s == 0.0,
                "atmosphere waited {}s at {chips}",
                p.atm_coupling_wait_s
            );
        }
    }

    #[test]
    fn heterogeneous_beats_all_gpu() {
        let het = jupiter_1p25().scaling_point(8192).tau;
        let gpu = ThroughputModel::new(JUPITER, GridConfig::km1p25(), Mapping::all_gpu())
            .scaling_point(8192)
            .tau;
        assert!(het > gpu, "het {het:.1} <= all-gpu {gpu:.1}");
    }

    #[test]
    fn dace_dycore_improves_tau() {
        let base = jupiter_1p25().scaling_point(8192).tau;
        let mut mapping = Mapping::paper();
        mapping.dace_dycore = true;
        let dace = ThroughputModel::new(JUPITER, GridConfig::km1p25(), mapping)
            .scaling_point(8192)
            .tau;
        assert!(dace > base);
        assert!(dace / base < 1.2, "whole-app effect is moderate");
    }

    #[test]
    fn tau_monotone_in_chips() {
        let m = jupiter_1p25();
        let taus: Vec<f64> = [1024u32, 2048, 4096, 8192, 16384, 20480]
            .iter()
            .map(|&p| m.scaling_point(p).tau)
            .collect();
        for w in taus.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn memory_floor_near_2048_chips() {
        // Paper: the smallest chip count that fits 1.25 km is 2048.
        let m = jupiter_1p25();
        let floor = m.min_chips_by_memory();
        assert!(
            (1200..=2600).contains(&floor),
            "memory floor {floor} chips"
        );
    }

    #[test]
    fn levante_gpu_about_half_of_gh200() {
        // §4: "about a factor of 2 less throughput on the A100 nodes of
        // Levante compared to the GH200 nodes" (10 km coupled).
        let gh = ThroughputModel::new(JUPITER, GridConfig::km10(), Mapping::all_gpu());
        let lev = ThroughputModel::new(LEVANTE_GPU, GridConfig::km10(), Mapping::all_gpu());
        let ratio = gh.scaling_point(64).tau / lev.scaling_point(64).tau;
        assert!((1.6..2.6).contains(&ratio), "GH200/A100 ratio {ratio:.2}");
    }

    #[test]
    fn cpu_strong_scaling_extends_further() {
        // Fig 2: CPU scaling levels off later (no launch-latency floor) but
        // at much higher node counts for the same tau.
        let cpu = ThroughputModel::new(LEVANTE_CPU, GridConfig::km10(), Mapping::all_cpu());
        let gpu = ThroughputModel::new(LEVANTE_GPU, GridConfig::km10(), Mapping::all_gpu());
        // Efficiency at 8x the "knee" scale:
        let eff = |m: &ThroughputModel, lo: u32, hi: u32| {
            let a = m.scaling_point(lo).tau;
            let b = m.scaling_point(hi).tau;
            (b / a) / (hi as f64 / lo as f64)
        };
        let cpu_eff = eff(&cpu, 128, 1024);
        let gpu_eff = eff(&gpu, 32, 256);
        assert!(
            cpu_eff > gpu_eff,
            "cpu {cpu_eff:.2} should retain efficiency better than gpu {gpu_eff:.2}"
        );
    }

    #[test]
    fn sustained_bandwidth_matches_paper_hero_estimate() {
        // §5.2: at the hero scale the DaCe dycore would sustain >15 PiB/s,
        // about 50 % of peak.
        let mut mapping = Mapping::paper();
        mapping.dace_dycore = true;
        let m = ThroughputModel::new(ALPS, GridConfig::km1p25(), mapping);
        let p = m.scaling_point(8192);
        let pib = p.sustained_bw_gbs / 1024.0 / 1024.0; // GB -> PiB approx (GB/s to PiB/s)
        assert!(pib > 15.0, "sustained {pib:.1} PiB/s");
        let frac = p.sustained_bw_gbs / (8192.0 * 4096.0);
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn chips_for_tau_inverts_scaling() {
        let m = jupiter_1p25();
        let p = m.chips_for_tau(100.0).unwrap();
        assert!(m.scaling_point(p).tau >= 100.0);
        assert!(m.scaling_point(p - 64).tau < 100.0);
        assert!(m.chips_for_tau(1e6).is_none());
    }
}
