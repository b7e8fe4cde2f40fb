//! # bwb-op2 — unstructured-mesh parallel-loop DSL
//!
//! Re-implementation of the execution model of the OP2 active library
//! ([Reguly 2012], [Mudalige et al.]) that the paper's unstructured
//! applications — MG-CFD and Volna — are written in:
//!
//! * [`set`] — sets (nodes/edges/cells), mappings between them, and
//!   multi-component datasets;
//! * [`color`] — greedy set coloring so that elements in the same color
//!   share no indirect write target: the race-avoidance scheme OP2 uses for
//!   its OpenMP backend (paper §4: "for OpenMP and SYCL one needs to
//!   explicitly avoid race conditions – for which we use a coloring
//!   scheme");
//! * [`exec`] — direct and colored-indirect parallel loops with the same
//!   byte/FLOP accounting as `bwb-ops`, including separate *indirect* byte
//!   accounting so the performance model can price gather/scatter
//!   (the "MPI vec" pack/unpack overhead of §6);
//! * [`partition`] — recursive coordinate bisection (standing in for
//!   PT-Scotch's owner-compute partitioning) and halo plans that count the
//!   import/export volumes each rank pair would exchange;
//! * [`renumber`] — a space-filling-curve renumbering of a mesh handed over
//!   in an arbitrary numbering, so that indirect accesses hit cache.
//!
//! [Reguly 2012]: https://doi.org/10.1109/InPar.2012.6339594

pub mod access;
pub mod color;
pub mod exec;
pub mod halo_exchange;
pub mod partition;
pub mod renumber;
pub mod set;

pub use access::{
    lower_recording_u, recording_active_u, with_recording_u, UAccessObs, UArgSpec, UKind, ULoopObs,
    ULoopSpec, UScheduleObs,
};
pub use color::{BlockColoring, Coloring};
pub use exec::{
    par_loop_block_colored, par_loop_block_colored_staged, par_loop_colored, par_loop_direct,
    par_loop_gather, sweep_direct, ExecModeU, GatherScratch, UOut, UStage,
};
pub use halo_exchange::RankHalo;
pub use partition::{edge_ownership, rcb_partition, CutEdgeRule, HaloPlan};
pub use renumber::{
    group_by_min_target, order_by_min_target, sfc_order, NotAPermutation, Permutation,
};
pub use set::{DatU, Map, Set};
