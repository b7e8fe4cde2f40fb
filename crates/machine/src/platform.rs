//! The [`Platform`] descriptor — everything the performance model needs to
//! know about one machine.

use crate::latency::LatencyProfile;
use crate::memory::{CacheLevel, MainMemory};
use crate::topology::CpuTopology;

/// Which of the paper's platforms this descriptor models (plus `Custom` for
/// user-defined what-if machines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformKind {
    XeonMax9480,
    Xeon8360Y,
    Epyc7V73X,
    A100Pcie40GB,
    Custom,
}

impl PlatformKind {
    pub fn label(self) -> &'static str {
        match self {
            PlatformKind::XeonMax9480 => "Xeon MAX 9480",
            PlatformKind::Xeon8360Y => "Xeon 8360Y",
            PlatformKind::Epyc7V73X => "EPYC 7V73X",
            PlatformKind::A100Pcie40GB => "A100 40GB PCIe",
            PlatformKind::Custom => "custom",
        }
    }
}

/// Full description of one platform.
///
/// All derived quantities (peak FLOPS, flop/byte ratio, concurrency-limited
/// bandwidth) are computed from first principles in methods so that
/// "what-if" machines behave consistently.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    pub kind: PlatformKind,
    pub name: String,
    pub topology: CpuTopology,
    /// Base (all-core sustained, AVX-heavy) clock in GHz.
    pub base_ghz: f64,
    /// All-core turbo clock in GHz.
    pub turbo_allcore_ghz: f64,
    /// Native SIMD width in bits (512 for the Xeons, 256 for the EPYC's
    /// AVX2, 2048 effective for the GPU's warp-SIMT model).
    pub vector_bits: u32,
    /// FMA pipes per core.
    pub fma_units: u32,
    /// Cache hierarchy, ordered L1 → last level.
    pub caches: Vec<CacheLevel>,
    pub memory: MainMemory,
    /// Measured BabelStream Triad bandwidth at large sizes with the default
    /// flag set (paper Figure 1): 1446 GB/s (MAX), 296 (8360Y), 310 (EPYC),
    /// 1310 (A100 achievable).
    pub measured_triad_gbs: f64,
    /// Measured Triad with streaming-store tuned flags, where reported
    /// (1643 GB/s on MAX); `None` elsewhere.
    pub measured_triad_ss_gbs: Option<f64>,
    /// Core-to-core latency profile (Figure 2).
    pub latency: LatencyProfile,
    /// Sustained outstanding cache-line misses per core including hardware
    /// prefetch streams — the Little's-law concurrency that limits per-core
    /// bandwidth. Calibrated so that `concurrency_bw_gbs()` brackets the
    /// measured Triad numbers (see `platforms` module).
    pub mlp_per_core: f64,
    /// Per-kernel launch/scheduling overhead in microseconds for an
    /// offload-style runtime on this platform (SYCL-via-OpenCL on the CPUs,
    /// CUDA on the GPU). Drives the paper's observation that MPI+SYCL loses
    /// on apps with many small boundary kernels (§5.1).
    pub kernel_launch_overhead_us: f64,
    /// True for the GPU.
    pub is_gpu: bool,
}

impl Platform {
    /// Peak FP32 GFLOP/s at the given clock: `cores × GHz × fma × (vec/32) × 2`.
    pub fn peak_fp32_gflops(&self, ghz: f64) -> f64 {
        let lanes = self.vector_bits as f64 / 32.0;
        self.topology.physical_cores() as f64 * ghz * self.fma_units as f64 * lanes * 2.0
    }

    /// Peak FP64 GFLOP/s at the given clock (half the FP32 lanes).
    pub fn peak_fp64_gflops(&self, ghz: f64) -> f64 {
        self.peak_fp32_gflops(ghz) / 2.0
    }

    /// Peak FP32 at base clock — the number quoted in the paper's §2
    /// (13.6 / 11 / 8.45 TFLOP/s).
    pub fn peak_fp32_base_gflops(&self) -> f64 {
        self.peak_fp32_gflops(self.base_ghz)
    }

    /// Theoretical flop/byte balance at base clock against theoretical peak
    /// bandwidth (paper §2: 9.4 on MAX, ~36 on 8360Y, ~28 on EPYC; we use
    /// measured peak BW which the paper's narrative is based on).
    pub fn flop_byte_ratio(&self) -> f64 {
        self.peak_fp32_base_gflops() / self.memory.peak_bw_gbs
    }

    /// Last-level-cache streaming bandwidth (GB/s) — the "cache bandwidth"
    /// of Figure 1's small-size plateau.
    pub fn llc_stream_bw_gbs(&self) -> f64 {
        self.caches
            .iter()
            .max_by_key(|c| c.level)
            .map(|c| c.stream_bw_gbs)
            .unwrap_or(self.memory.peak_bw_gbs)
    }

    /// Ratio between cache and main-memory streaming bandwidth — 3.8× on
    /// MAX, ~6.3× on 8360Y, ~14× on EPYC (paper §2 & §6). This ratio bounds
    /// the achievable gain from cache-blocking tiling (Figure 9).
    pub fn cache_to_mem_bw_ratio(&self) -> f64 {
        self.llc_stream_bw_gbs() / self.measured_triad_gbs
    }

    /// Little's-law aggregate bandwidth bound: each active core sustains
    /// `mlp_per_core` outstanding 64-byte lines against the main-memory
    /// latency. With enough cores this exceeds the DDR peak (so DDR systems
    /// reach ~75% of pin bandwidth), but on HBM parts it is the binding
    /// constraint (the McCalpin ISC'23 observation the paper cites).
    pub fn concurrency_bw_gbs(&self, active_cores: u32, smt_active: bool) -> f64 {
        let line = 64.0; // bytes
        let smt_boost = if smt_active { 1.25 } else { 1.0 };
        let per_core = self.mlp_per_core * smt_boost * line / self.memory.latency_ns;
        per_core * active_cores as f64
    }

    /// Effective large-array streaming bandwidth for `active_cores` cores:
    /// the lesser of the measured machine peak (scaled by the active
    /// fraction of memory controllers) and the concurrency bound.
    pub fn effective_stream_bw_gbs(&self, active_cores: u32, smt_active: bool) -> f64 {
        let frac = (active_cores as f64 / self.topology.physical_cores() as f64).min(1.0);
        let controller_bw =
            self.measured_triad_gbs * frac.max(1.0 / self.topology.total_numa() as f64);
        controller_bw.min(self.concurrency_bw_gbs(active_cores, smt_active))
    }

    /// Total last-level cache capacity in bytes.
    pub fn llc_total_bytes(&self) -> u64 {
        let t = &self.topology;
        self.caches
            .iter()
            .max_by_key(|c| c.level)
            .map(|c| {
                c.total_capacity_bytes(
                    t.physical_cores() as u64,
                    t.sockets as u64,
                    t.total_numa() as u64,
                )
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{CacheScope, MemoryKind};

    fn toy() -> Platform {
        Platform {
            kind: PlatformKind::Custom,
            name: "toy".into(),
            topology: CpuTopology {
                sockets: 2,
                numa_per_socket: 1,
                cores_per_numa: 4,
                smt_per_core: 2,
            },
            base_ghz: 2.0,
            turbo_allcore_ghz: 3.0,
            vector_bits: 256,
            fma_units: 2,
            caches: vec![
                CacheLevel {
                    level: 1,
                    capacity_bytes: 32 << 10,
                    scope: CacheScope::PerCore,
                    stream_bw_gbs: 8000.0,
                    latency_ns: 1.5,
                    associativity: 8,
                    line_bytes: 64,
                },
                CacheLevel {
                    level: 3,
                    capacity_bytes: 32 << 20,
                    scope: CacheScope::PerSocket,
                    stream_bw_gbs: 1200.0,
                    latency_ns: 40.0,
                    associativity: 16,
                    line_bytes: 64,
                },
            ],
            memory: MainMemory {
                kind: MemoryKind::Ddr4,
                capacity_gib: 256,
                peak_bw_gbs: 400.0,
                latency_ns: 100.0,
            },
            measured_triad_gbs: 300.0,
            measured_triad_ss_gbs: None,
            latency: LatencyProfile {
                hyperthread_ns: Some(8.0),
                same_numa_ns: 50.0,
                cross_numa_ns: 60.0,
                cross_socket_ns: 120.0,
            },
            mlp_per_core: 20.0,
            kernel_launch_overhead_us: 5.0,
            is_gpu: false,
        }
    }

    #[test]
    fn peak_flops_formula() {
        let p = toy();
        // 8 cores × 2 GHz × 2 FMA × 8 lanes × 2 flops = 512 GF
        assert_eq!(p.peak_fp32_base_gflops(), 512.0);
        assert_eq!(p.peak_fp64_gflops(p.base_ghz), 256.0);
    }

    #[test]
    fn flop_byte_ratio() {
        let p = toy();
        assert!((p.flop_byte_ratio() - 512.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn llc_lookup_takes_highest_level() {
        let p = toy();
        assert_eq!(p.llc_stream_bw_gbs(), 1200.0);
        assert_eq!(p.llc_total_bytes(), 2 * (32 << 20));
    }

    #[test]
    fn cache_ratio() {
        let p = toy();
        assert!((p.cache_to_mem_bw_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn concurrency_bw_scales_with_cores() {
        let p = toy();
        let one = p.concurrency_bw_gbs(1, false);
        let eight = p.concurrency_bw_gbs(8, false);
        assert!((eight / one - 8.0).abs() < 1e-9);
        // 20 lines × 64 B / 100 ns = 12.8 GB/s per core
        assert!((one - 12.8).abs() < 1e-9);
    }

    #[test]
    fn smt_raises_concurrency_bound() {
        let p = toy();
        assert!(p.concurrency_bw_gbs(8, true) > p.concurrency_bw_gbs(8, false));
    }

    #[test]
    fn effective_bw_capped_by_machine_peak() {
        let p = toy();
        let bw = p.effective_stream_bw_gbs(8, false);
        assert!(bw <= p.measured_triad_gbs + 1e-9);
        // With only one core, the concurrency bound binds.
        let bw1 = p.effective_stream_bw_gbs(1, false);
        assert!(bw1 < 20.0);
    }
}
