//! # bwb-perfmodel — the cross-platform performance model
//!
//! The paper's figures are functions of (application × platform ×
//! configuration). The applications run for real in [`bwb_apps`] and yield
//! measured per-point byte/FLOP profiles ([`bwb_apps::characterize`]); the
//! platforms are described in [`bwb_machine`]; this crate supplies the final
//! ingredient — a **mechanistic runtime predictor** that prices each
//! configuration's execution on each platform:
//!
//! ```text
//! T_iter = max(T_bandwidth, T_compute) + T_latency + T_mpi + T_runtime_overheads
//! ```
//!
//! with each term computed from first principles (§ [`model`]): effective
//! bandwidth from the machine's measured STREAM figure and Little's-law
//! concurrency; compute from vector width, AVX-512 clock effects and
//! per-compiler code quality; latency stalls from stencil depth, cache
//! spill, and indirection; MPI time from rank placement, message counts and
//! halo volumes; and per-kernel launch overheads for the SYCL-like backend.
//!
//! [`config`] enumerates the paper's configuration space; [`figures`]
//! generates the data behind every figure of the evaluation (3–9).

pub mod config;
pub mod figures;
pub mod model;

pub use config::{Compiler, Parallelization, RunConfig, Zmm};
pub use model::{best_config, paper_scale, predict, predict_paper, ModelInput, Prediction};
