//! # bwb-machine — hardware platform models
//!
//! This crate describes the four hardware platforms evaluated in the paper
//! *"Comparative evaluation of bandwidth-bound applications on the Intel Xeon
//! CPU MAX Series"* (Reguly, SC'23):
//!
//! 1. **Intel Xeon CPU MAX 9480** — 2×56 cores, SNC4 (2×4 NUMA), 2×64 GB
//!    HBM2e in HBM-only mode, HT on.
//! 2. **Intel Xeon Platinum 8360Y** ("Ice Lake") — 2×36 cores, DDR4, HT on.
//! 3. **AMD EPYC 7V73X** ("Milan-X") — 2×60 cores, 3D V-Cache, SMT off.
//! 4. **NVIDIA A100 40GB PCIe** — the GPU comparison point of Figure 6/9.
//!
//! A [`Platform`] captures the architectural quantities every experiment in
//! the paper is a function of: core/socket/NUMA topology, SMT width, cache
//! capacities and bandwidths, main-memory kind/bandwidth/latency, clock
//! domains, vector width, and the core-to-core communication-latency profile
//! of Figure 2. The companion crates derive all figure reproductions from
//! these descriptors — no figure output is hard-coded.
//!
//! ## Quick example
//!
//! ```
//! use bwb_machine::platforms;
//!
//! let max = platforms::xeon_max_9480();
//! let icx = platforms::xeon_8360y();
//! // The paper's headline: ~4.8x higher measured STREAM bandwidth.
//! let ratio = max.measured_triad_gbs / icx.measured_triad_gbs;
//! assert!(ratio > 4.0 && ratio < 6.0);
//! // Flop/byte balance shifts from ~36 to ~9.4 (paper §2).
//! assert!(max.flop_byte_ratio() < icx.flop_byte_ratio() / 3.0);
//! ```

pub mod codegen;
pub mod latency;
pub mod memory;
pub mod platform;
pub mod platforms;
pub mod probe;
pub mod roofline;
pub mod storage;
pub mod topology;

pub use codegen::{codegen, Codegen};
pub use latency::{CommDistance, LatencyProfile};
pub use memory::{CacheLevel, CacheScope, MainMemory, MemoryKind};
pub use platform::{Platform, PlatformKind};
pub use probe::{measure_thread_latency, LatencyProbe};
pub use roofline::{Roofline, RooflinePoint, RooflineRegime};
pub use topology::{CoreId, CpuTopology, PlacementPolicy, RankPlacement, ShardPolicy};
