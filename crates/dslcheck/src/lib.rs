//! # bwb-dslcheck — plan-time access/race analyzers for the DSL engines
//!
//! The OPS/OP2 DSLs of the paper can reason about correctness because every
//! `par_loop` argument carries a declared access mode and stencil. This
//! crate supplies the analyzers that hold this repo's engines to the same
//! standard, on top of the declarations in `bwb_ops::access` /
//! `bwb_op2::access`:
//!
//! * [`checked`] — **checked execution**: run loops under the engines'
//!   recording mode (shadow-instrumented accessors, forced serial) and diff
//!   every actual `(field, offset)` access against the declared contract —
//!   undeclared stencil offsets, access-mode violations, stencils deeper
//!   than a dataset's halo allocation.
//! * [`plan`] — **schedule validation**: prove a tiled
//!   [`bwb_ops::LoopChain2`] plan budgets skew reach ≥ the reach kernels
//!   actually read, reject in-place stencils, and audit recorded
//!   halo-exchange depths against stencil radii per decomposed dat.
//! * [`race`] — **coloring race detection**: from a recorded unstructured
//!   loop's access set and its declared coloring, prove no two same-color
//!   elements write the same indirect target, and flag order-dependent
//!   indirect overwrites (which not even a valid coloring can fix).
//! * [`graph`] / [`lints`] / [`traffic`] / [`dataflow`] — **whole-chain
//!   dataflow analysis**: build an inter-loop def-use graph over a full
//!   recorded run (loops interleaved with the halo exchanges it performed)
//!   and walk it for dead/overwritten stores, provably redundant or
//!   too-shallow halo exchanges, fusion-legality certification of adjacent
//!   loop pairs, and streaming-store eligibility — with per-loop traffic
//!   models *derived* from the recording and cross-checked against
//!   `bwb_memsim::stores`' STREAM constants.
//! * [`comm`] — **commcheck, cross-rank communication-schedule
//!   verification**: replay the per-rank event logs a
//!   `Universe::run_logged` run records and prove envelope matching,
//!   deadlock freedom (cyclic blocking, barrier arity, collective order),
//!   and per-phase load balance priced through the `bwb_machine`
//!   placement model.
//! * [`placecheck`] — **static NUMA-placement certification**: derive each
//!   registry app's exact per-pair byte flows from its decomposition
//!   arithmetic (no execution), classify them into per-link flows under
//!   any rank placement, exhaustively price a candidate space of
//!   placement policies × domain permutations with the machine's latency
//!   model, and emit a certified [`PlacementPlan`] — crosschecked
//!   byte-exact against recorded `CommLog`s at small rank counts.
//!
//! * [`speccheck`] — **certification from the declared chain**: derive the
//!   whole-chain dataflow report of each structured app from its
//!   `bwb_ops::ChainSpec` without executing anything, and validate the
//!   declaration by comparing a recorded run against it in lockstep.
//!
//! Every registered app is stated once, as an [`AppEntry`] of
//! [`registry::APPS`]; [`check_all`], [`dataflow_all`], [`static_all`],
//! [`comm_check_all`], [`parametric_check_all`] and
//! [`placement_check_all`] are passes over that table. The `analyze`
//! binary in `bwb-bench` renders them as JSON reports and gates CI on them.

pub mod checked;
pub mod comm;
pub mod dataflow;
pub mod graph;
pub mod lints;
pub mod placecheck;
pub mod plan;
pub mod race;
pub mod registry;
pub mod speccheck;
pub mod traffic;
pub mod violation;

pub use checked::check_structured;
pub use comm::parametric::{
    parametric_check_all, ParametricCert, ParametricReport, PhasePattern, PhaseTemplate, RankGuard,
    ScheduleTemplate, TopologyFamily,
};
pub use comm::{comm_check_all, CommReport};
pub use dataflow::{DataflowReport, Limitation};
pub use graph::DefUseGraph;
pub use lints::{
    check_fusion_claims, dead_stores, exchange_lints, fusion_groups, fusion_plan, FusionPlan,
};
pub use placecheck::{
    certified_shard_policy, placement_check_all, placement_check_app, PlacementPlan,
    PlacementReport,
};
pub use plan::{check_chain_plan, check_halo_depth};
pub use race::check_unstructured;
pub use registry::{check_all, dataflow_all, AppEntry, AppReport};
pub use speccheck::{
    analyze_static, check_recording, stability, static_all, static_plan, static_report_for,
    StaticAppReport,
};
pub use traffic::{
    check_streaming_claims, derive as derive_traffic, nt_certs, nt_certs_with_floor, AppTraffic,
    DEFAULT_NT_MIN_RUN_BYTES, DEFAULT_RESIDENCY_BYTES,
};
pub use violation::{Kind, Violation};
