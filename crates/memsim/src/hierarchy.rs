//! Working-set → bandwidth model (Figure 1).
//!
//! BabelStream measures the bandwidth of simple vector kernels as a function
//! of array size. The observed curve is a staircase: while the working set
//! fits in a cache level the kernel streams at that level's bandwidth; once
//! it spills, bandwidth drops to the next level. The transitions are soft
//! because a working set slightly larger than a cache still gets partial
//! reuse.
//!
//! [`MemoryHierarchyModel`] evaluates that staircase for any
//! [`MachineSubset`] (one NUMA domain / one socket / whole machine), scaling
//! both capacity and bandwidth by the subset, exactly as the paper's
//! Figure 1 does.

use bwb_machine::{CacheScope, Platform};

/// Which part of the machine runs the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineSubset {
    /// Threads confined to a single NUMA domain (and its memory).
    OneNuma,
    /// One full socket.
    OneSocket,
    /// The whole two-socket node.
    WholeMachine,
}

impl MachineSubset {
    pub const ALL: [MachineSubset; 3] = [
        MachineSubset::OneNuma,
        MachineSubset::OneSocket,
        MachineSubset::WholeMachine,
    ];

    pub fn label(self) -> &'static str {
        match self {
            MachineSubset::OneNuma => "1 NUMA domain",
            MachineSubset::OneSocket => "1 socket",
            MachineSubset::WholeMachine => "2 sockets",
        }
    }
}

/// One point of a bandwidth curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthCurve {
    pub working_set_bytes: u64,
    pub bandwidth_gbs: f64,
    /// Which level (1, 2, 3) served most of the traffic; 0 = main memory.
    pub dominant_level: u8,
}

/// Analytic memory-hierarchy model for one platform.
#[derive(Debug, Clone)]
pub struct MemoryHierarchyModel {
    platform: Platform,
}

impl MemoryHierarchyModel {
    pub fn new(platform: Platform) -> Self {
        Self { platform }
    }

    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Fraction of the machine's cores in the subset.
    pub fn core_fraction(&self, subset: MachineSubset) -> f64 {
        let t = &self.platform.topology;
        match subset {
            MachineSubset::OneNuma => 1.0 / t.total_numa() as f64,
            MachineSubset::OneSocket => 1.0 / t.sockets as f64,
            MachineSubset::WholeMachine => 1.0,
        }
    }

    /// Number of active physical cores in the subset.
    pub fn active_cores(&self, subset: MachineSubset) -> u32 {
        let t = &self.platform.topology;
        match subset {
            MachineSubset::OneNuma => t.cores_per_numa as u32,
            MachineSubset::OneSocket => (t.cores_per_numa * t.numa_per_socket) as u32,
            MachineSubset::WholeMachine => t.physical_cores(),
        }
    }

    /// Capacity of cache level `lvl` visible to the subset, bytes.
    pub fn subset_cache_capacity(&self, level: u8, subset: MachineSubset) -> u64 {
        let t = &self.platform.topology;
        let cores = self.active_cores(subset) as u64;
        let (sockets, numa) = match subset {
            MachineSubset::OneNuma => (1u64, 1u64),
            MachineSubset::OneSocket => (1, t.numa_per_socket as u64),
            MachineSubset::WholeMachine => (t.sockets as u64, t.total_numa() as u64),
        };
        self.platform
            .caches
            .iter()
            .find(|c| c.level == level)
            .map(|c| match c.scope {
                CacheScope::PerCore => c.capacity_bytes * cores,
                CacheScope::PerSocket => c.capacity_bytes * sockets,
                CacheScope::PerNuma => c.capacity_bytes * numa,
            })
            .unwrap_or(0)
    }

    /// Main-memory streaming bandwidth available to the subset, GB/s.
    ///
    /// NUMA memory controllers partition with the domains, so a single
    /// domain gets ~1/N of the machine bandwidth; a single socket gets half.
    pub fn subset_memory_bw(&self, subset: MachineSubset) -> f64 {
        self.platform.measured_triad_gbs * self.core_fraction(subset)
    }

    /// Cache-level streaming bandwidth for the subset, GB/s.
    pub fn subset_cache_bw(&self, level: u8, subset: MachineSubset) -> f64 {
        self.platform
            .caches
            .iter()
            .find(|c| c.level == level)
            .map(|c| c.stream_bw_gbs * self.core_fraction(subset))
            .unwrap_or(0.0)
    }

    /// Effective streaming bandwidth for a kernel whose per-core working set
    /// totals `working_set_bytes` across the subset.
    ///
    /// The model: find the innermost level whose subset capacity holds the
    /// working set; blend bandwidths across the transition with the hit
    /// fraction `min(1, capacity/ws)` (a working set 2× the cache still gets
    /// ~half its lines from cache).
    pub fn bandwidth(&self, working_set_bytes: u64, subset: MachineSubset) -> BandwidthCurve {
        let ws = working_set_bytes.max(1) as f64;
        // Ordered levels, innermost first, then memory as level 0.
        let mut levels: Vec<(u8, f64, f64)> = self
            .platform
            .caches
            .iter()
            .map(|c| {
                (
                    c.level,
                    self.subset_cache_capacity(c.level, subset) as f64,
                    self.subset_cache_bw(c.level, subset),
                )
            })
            .collect();
        levels.sort_by_key(|&(l, _, _)| l);

        let mem_bw = self.subset_memory_bw(subset);

        // Walk outwards: the first level that fully holds the WS serves it.
        for &(lvl, cap, bw) in &levels {
            if ws <= cap {
                return BandwidthCurve {
                    working_set_bytes,
                    bandwidth_gbs: bw,
                    dominant_level: lvl,
                };
            }
        }
        // Spilled past the LLC: blend LLC and memory bandwidth by the
        // fraction of lines still caught by the LLC.
        if let Some(&(lvl, cap, bw)) = levels.last() {
            let hit = (cap / ws).min(1.0);
            // Harmonic blend: time per byte is hit/bw_cache + (1-hit)/bw_mem.
            let t = hit / bw + (1.0 - hit) / mem_bw;
            let eff = 1.0 / t;
            let dominant = if hit > 0.5 { lvl } else { 0 };
            return BandwidthCurve {
                working_set_bytes,
                bandwidth_gbs: eff,
                dominant_level: dominant,
            };
        }
        BandwidthCurve {
            working_set_bytes,
            bandwidth_gbs: mem_bw,
            dominant_level: 0,
        }
    }

    /// Sweep working-set sizes (bytes, log-spaced) and return the curve —
    /// the Figure 1 x-axis.
    pub fn sweep(
        &self,
        subset: MachineSubset,
        from: u64,
        to: u64,
        points: usize,
    ) -> Vec<BandwidthCurve> {
        assert!(from > 0 && to > from && points >= 2);
        let lf = (from as f64).ln();
        let lt = (to as f64).ln();
        (0..points)
            .map(|i| {
                let x = lf + (lt - lf) * i as f64 / (points - 1) as f64;
                self.bandwidth(x.exp() as u64, subset)
            })
            .collect()
    }

    /// The cache:memory bandwidth ratio seen by the whole machine — drives
    /// the tiling gains of Figure 9.
    pub fn cache_ratio(&self) -> f64 {
        self.platform.cache_to_mem_bw_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_machine::platforms;

    fn model_max() -> MemoryHierarchyModel {
        MemoryHierarchyModel::new(platforms::xeon_max_9480())
    }

    #[test]
    fn large_working_sets_hit_memory_bandwidth() {
        let m = model_max();
        let c = m.bandwidth(8 << 30, MachineSubset::WholeMachine);
        assert_eq!(c.dominant_level, 0);
        // within 15% of the measured Triad figure (LLC still catches a sliver)
        assert!(
            (c.bandwidth_gbs - 1446.0).abs() / 1446.0 < 0.15,
            "{}",
            c.bandwidth_gbs
        );
    }

    #[test]
    fn small_working_sets_hit_cache_bandwidth() {
        let m = model_max();
        let c = m.bandwidth(1 << 20, MachineSubset::WholeMachine);
        assert!(c.dominant_level >= 1);
        assert!(
            c.bandwidth_gbs > 5.0 * 1446.0,
            "cache plateau {}",
            c.bandwidth_gbs
        );
    }

    #[test]
    fn bandwidth_curve_is_monotone_decreasing_in_ws() {
        let m = model_max();
        let sweep = m.sweep(MachineSubset::WholeMachine, 1 << 14, 8 << 30, 64);
        for w in sweep.windows(2) {
            assert!(
                w[1].bandwidth_gbs <= w[0].bandwidth_gbs * 1.0001,
                "bandwidth must not increase with working set: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn one_numa_gets_one_eighth_of_max_bandwidth() {
        let m = model_max();
        let whole = m.subset_memory_bw(MachineSubset::WholeMachine);
        let numa = m.subset_memory_bw(MachineSubset::OneNuma);
        assert!((whole / numa - 8.0).abs() < 1e-9);
    }

    #[test]
    fn one_socket_is_half() {
        let m = model_max();
        let whole = m.subset_memory_bw(MachineSubset::WholeMachine);
        let sock = m.subset_memory_bw(MachineSubset::OneSocket);
        assert!((whole / sock - 2.0).abs() < 1e-9);
    }

    #[test]
    fn subset_capacity_scales() {
        let m = model_max();
        // L2 is per-core: 14 cores in one NUMA domain × 2 MiB.
        assert_eq!(
            m.subset_cache_capacity(2, MachineSubset::OneNuma),
            14 * (2 << 20)
        );
        // L3 is per-NUMA on MAX: one slice.
        assert_eq!(m.subset_cache_capacity(3, MachineSubset::OneNuma), 14 << 20);
        assert_eq!(
            m.subset_cache_capacity(3, MachineSubset::WholeMachine),
            8 * (14 << 20)
        );
    }

    #[test]
    fn cache_transition_happens_near_capacity() {
        let m = model_max();
        let llc = m.subset_cache_capacity(3, MachineSubset::WholeMachine);
        let inside = m.bandwidth(llc / 2, MachineSubset::WholeMachine);
        let outside = m.bandwidth(llc * 16, MachineSubset::WholeMachine);
        assert!(inside.bandwidth_gbs > 2.0 * outside.bandwidth_gbs);
    }

    #[test]
    fn epyc_cache_plateau_extends_much_further() {
        // Paper Figure 1: EPYC's 3D V-Cache keeps bandwidth high out to
        // ~1.5 GB working sets, far beyond the Xeons.
        let amd = MemoryHierarchyModel::new(platforms::epyc_7v73x());
        let icx = MemoryHierarchyModel::new(platforms::xeon_8360y());
        let ws = 1 << 30; // 1 GiB
        let a = amd.bandwidth(ws, MachineSubset::WholeMachine);
        let i = icx.bandwidth(ws, MachineSubset::WholeMachine);
        assert!(
            a.bandwidth_gbs > 4.0 * i.bandwidth_gbs,
            "EPYC {} vs ICX {}",
            a.bandwidth_gbs,
            i.bandwidth_gbs
        );
        assert!(a.dominant_level == 3);
        assert_eq!(i.dominant_level, 0);
    }

    #[test]
    fn sweep_has_requested_points_and_is_sorted() {
        let m = model_max();
        let s = m.sweep(MachineSubset::OneSocket, 1 << 16, 1 << 28, 25);
        assert_eq!(s.len(), 25);
        for w in s.windows(2) {
            assert!(w[0].working_set_bytes <= w[1].working_set_bytes);
        }
    }

    #[test]
    #[should_panic]
    fn sweep_rejects_bad_range() {
        model_max().sweep(MachineSubset::OneNuma, 100, 50, 10);
    }

    #[test]
    fn subset_labels() {
        assert_eq!(MachineSubset::WholeMachine.label(), "2 sockets");
        assert_eq!(MachineSubset::ALL.len(), 3);
    }
}
