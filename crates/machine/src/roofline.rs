//! Roofline model: classify a kernel as bandwidth- or compute-bound on a
//! platform and predict its attainable performance.
//!
//! The paper's thesis is that the Xeon MAX's HBM *shifts the roofline ridge
//! point* from ~36 flop/byte (Ice Lake) down to ~9.4 flop/byte, so kernels
//! that were bandwidth-bound become compute- or latency-bound. This module
//! makes that statement executable.

use crate::platform::Platform;

/// The binding resource for a kernel on a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RooflineRegime {
    /// Attainment limited by memory bandwidth.
    BandwidthBound,
    /// Attainment limited by peak arithmetic.
    ComputeBound,
}

/// One kernel placed on the roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Arithmetic intensity in FLOP per byte of main-memory traffic.
    pub intensity_flop_per_byte: f64,
    /// Attainable GFLOP/s.
    pub attainable_gflops: f64,
    /// Attainable bandwidth GB/s (= attainable_gflops / intensity when
    /// bandwidth-bound; capped by the bandwidth ceiling otherwise).
    pub attainable_gbs: f64,
    pub regime: RooflineRegime,
}

/// Roofline for one platform and precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Peak arithmetic, GFLOP/s.
    pub peak_gflops: f64,
    /// Streaming bandwidth ceiling, GB/s (measured Triad, not theoretical).
    pub peak_gbs: f64,
}

impl Roofline {
    /// Build an FP32 roofline at base clock using measured Triad bandwidth.
    pub fn fp32(p: &Platform) -> Self {
        Roofline {
            peak_gflops: p.peak_fp32_base_gflops(),
            peak_gbs: p.measured_triad_gbs,
        }
    }

    /// Build an FP64 roofline at base clock using measured Triad bandwidth.
    pub fn fp64(p: &Platform) -> Self {
        Roofline {
            peak_gflops: p.peak_fp64_gflops(p.base_ghz),
            peak_gbs: p.measured_triad_gbs,
        }
    }

    /// Ridge point: the arithmetic intensity where the two ceilings meet.
    pub fn ridge_flop_per_byte(&self) -> f64 {
        self.peak_gflops / self.peak_gbs
    }

    /// Place a kernel with the given arithmetic intensity on the roofline.
    pub fn evaluate(&self, intensity_flop_per_byte: f64) -> RooflinePoint {
        assert!(
            intensity_flop_per_byte.is_finite() && intensity_flop_per_byte >= 0.0,
            "arithmetic intensity must be a finite non-negative number"
        );
        let bw_limited = self.peak_gbs * intensity_flop_per_byte;
        if bw_limited < self.peak_gflops {
            RooflinePoint {
                intensity_flop_per_byte,
                attainable_gflops: bw_limited,
                attainable_gbs: self.peak_gbs,
                regime: RooflineRegime::BandwidthBound,
            }
        } else {
            RooflinePoint {
                intensity_flop_per_byte,
                attainable_gflops: self.peak_gflops,
                attainable_gbs: if intensity_flop_per_byte > 0.0 {
                    self.peak_gflops / intensity_flop_per_byte
                } else {
                    self.peak_gbs
                },
                regime: RooflineRegime::ComputeBound,
            }
        }
    }

    /// Predicted runtime (seconds) for a kernel moving `bytes` and doing
    /// `flops` operations: the max of the two resource times.
    pub fn time_seconds(&self, bytes: f64, flops: f64) -> f64 {
        let t_bw = bytes / (self.peak_gbs * 1e9);
        let t_fl = flops / (self.peak_gflops * 1e9);
        t_bw.max(t_fl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;

    #[test]
    fn ridge_point_shifts_down_on_hbm() {
        let max = Roofline::fp32(&platforms::xeon_max_9480());
        let icx = Roofline::fp32(&platforms::xeon_8360y());
        assert!((max.ridge_flop_per_byte() - 9.4).abs() < 0.5);
        assert!((icx.ridge_flop_per_byte() - 36.0).abs() < 2.0);
    }

    #[test]
    fn low_intensity_is_bandwidth_bound_everywhere() {
        for p in platforms::all_platforms() {
            let r = Roofline::fp64(&p);
            // Triad: 2 flops per 24 bytes ≈ 0.083 flop/byte.
            let pt = r.evaluate(2.0 / 24.0);
            assert_eq!(pt.regime, RooflineRegime::BandwidthBound, "{}", p.name);
            assert_eq!(pt.attainable_gbs, p.measured_triad_gbs);
        }
    }

    #[test]
    fn kernel_bandwidth_bound_on_icelake_compute_bound_on_max() {
        // A kernel at 15 flop/byte — above MAX's ridge (9.4), below
        // Ice Lake's (36): the paper's "applications may become
        // compute-bound on Xeon MAX" scenario.
        let max = Roofline::fp32(&platforms::xeon_max_9480());
        let icx = Roofline::fp32(&platforms::xeon_8360y());
        assert_eq!(max.evaluate(15.0).regime, RooflineRegime::ComputeBound);
        assert_eq!(icx.evaluate(15.0).regime, RooflineRegime::BandwidthBound);
    }

    #[test]
    fn attainable_flops_continuous_at_ridge() {
        let r = Roofline {
            peak_gflops: 1000.0,
            peak_gbs: 100.0,
        };
        let ridge = r.ridge_flop_per_byte();
        let below = r.evaluate(ridge * 0.999).attainable_gflops;
        let above = r.evaluate(ridge * 1.001).attainable_gflops;
        assert!((below - above).abs() / above < 0.01);
    }

    #[test]
    fn time_is_max_of_resources() {
        let r = Roofline {
            peak_gflops: 1000.0,
            peak_gbs: 100.0,
        };
        // 1 GB at 100 GB/s = 10 ms; 1 GFLOP at 1000 GF/s = 1 ms → 10 ms.
        let t = r.time_seconds(1e9, 1e9);
        assert!((t - 0.01).abs() < 1e-12);
        // 100 GFLOP dominates: 100 ms.
        let t2 = r.time_seconds(1e9, 100e9);
        assert!((t2 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_intensity_is_pure_streaming() {
        let r = Roofline {
            peak_gflops: 1000.0,
            peak_gbs: 100.0,
        };
        let pt = r.evaluate(0.0);
        assert_eq!(pt.regime, RooflineRegime::BandwidthBound);
        assert_eq!(pt.attainable_gflops, 0.0);
        assert_eq!(pt.attainable_gbs, 100.0);
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_intensity_panics() {
        Roofline {
            peak_gflops: 1.0,
            peak_gbs: 1.0,
        }
        .evaluate(-1.0);
    }
}
