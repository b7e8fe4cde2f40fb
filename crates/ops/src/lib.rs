//! # bwb-ops — structured-mesh parallel-loop DSL
//!
//! A Rust re-implementation of the execution model of the OPS domain
//! specific language ([Reguly et al. 2014]) that the paper's structured-mesh
//! applications (CloverLeaf 2D/3D, Acoustic, OpenSBLI SA/SN — and in spirit
//! miniWeather) are written in:
//!
//! * [`field`] — 2-D/3-D datasets ([`Dat2`]/[`Dat3`]) over a block, stored
//!   with a halo ring of ghost cells;
//! * [`exec`] — `par_loop` drivers that iterate a rectangular range and
//!   apply a stencil kernel, serially or thread-parallel (the DSL's
//!   "OpenMP" backend, implemented with rayon). One engine serves both
//!   ranks — a 2-D loop is the 3-D case with one plane: per-point kernels
//!   ([`par_loop2`], [`par_loop2_reduce`]) and row kernels over
//!   [`RowOut`]/[`RowIn`] slices ([`par_loop2_rows`], [`par_loop3_planes`]
//!   and their `_reduce` forms), every access checked against the
//!   dataset's padded extent;
//! * [`optexec`] — plan-certified fused groups ([`fused2_rows`],
//!   [`fused3_planes`]) and streaming stores ([`par_loop2_rows_nt`]) on
//!   the same engine;
//! * [`profile`] — per-loop byte / FLOP accounting, exactly the mechanism
//!   OPS uses to compute the *achieved effective bandwidth* of Figure 8
//!   ("measuring the execution time of the kernel ... and estimating the
//!   effective data movement, based on the iteration ranges, datasets
//!   accessed, and types of access");
//! * [`halo`] — block decomposition over [`bwb_shmpi`] ranks with ghost-cell
//!   exchanges, the paper's §4 communication structure;
//! * [`tiling`] — lazy loop-chain execution with skewed cache-blocking
//!   tiling, the optimization of Figure 9 ([Reguly et al. 2017]).
//!
//! ## Example: heat diffusion step
//!
//! ```
//! use bwb_ops::{Dat2, ExecMode, Profile, Range2, par_loop2};
//!
//! let n = 64;
//! let mut u = Dat2::<f64>::new("u", n, n, 1);
//! let mut unew = Dat2::<f64>::new("unew", n, n, 1);
//! u.fill_interior(1.0);
//! u.set(n as isize / 2, n as isize / 2, 2.0);
//!
//! let mut prof = Profile::new();
//! par_loop2(
//!     &mut prof, "diffuse", ExecMode::Serial,
//!     Range2::new(0, n as isize, 0, n as isize),
//!     &mut [&mut unew], &[&u],
//!     5.0,
//!     |i, j, out, ins| {
//!         let c = ins.get(0, 0, 0);
//!         let lap = ins.get(0, -1, 0) + ins.get(0, 1, 0)
//!                 + ins.get(0, 0, -1) + ins.get(0, 0, 1) - 4.0 * c;
//!         out.set(0, c + 0.1 * lap);
//!         let _ = (i, j);
//!     },
//! );
//! assert_eq!(prof.records().len(), 1);
//! assert!(unew.get(n as isize / 2, n as isize / 2) < 2.0);
//! ```
//!
//! [Reguly et al. 2014]: https://doi.org/10.1109/WOLFHPC.2014.7
//! [Reguly et al. 2017]: https://doi.org/10.1109/TPDS.2017.2778161

pub mod access;
pub mod chain;
pub mod exec;
pub mod field;
pub mod halo;
pub mod hash;
pub mod ntstore;
pub mod optexec;
pub mod plan;
pub mod profile;
pub mod tiling;

pub use access::{
    recording_active, with_recording, Access, ArgObs, ArgSpec, Axes, LoopObs, LoopSpec, Stencil,
};
pub use chain::{Binding, ChainError, ChainSpec, DatDecl, Expr, Step};
pub use exec::{
    par_loop2, par_loop2_reduce, par_loop2_rows, par_loop2_rows_reduce, par_loop3_planes,
    par_loop3_planes_reduce, ExecMode, In2, Out2, Range2, Range3, RowIn, RowIn2, RowIn3, RowOut,
    RowOut2, RowOut3,
};
pub use field::{Dat2, Dat3};
pub use halo::{DistBlock2, DistBlock3};
pub use ntstore::{nt_copy, NtElem};
pub use optexec::{
    fused2_rows, fused3_planes, par_loop2_rows_nt, FusedLoop, FusedLoop2, FusedLoop3,
};
pub use plan::{ElisionCert, FusionGroupCert, LoopIr, NtCert, OptPlan, PlanError};
pub use profile::{LoopRecord, Profile};
pub use tiling::{ChainLoop2, ChainPlan, LoopChain2, PlannedLoop};
