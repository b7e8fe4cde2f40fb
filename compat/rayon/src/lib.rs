//! Minimal, API-shaped stand-in for `rayon`, vendored because the build
//! environment has no registry access.
//!
//! Provides the indexed-parallel-iterator surface the workspace uses
//! (ranges, slices, `zip`/`map`/`enumerate`/`with_min_len`, `for_each`,
//! `reduce`, `sum`, `collect`) and [`join`] on top of a persistent
//! chunk-stealing worker pool ([`pool`]). With one available core — or
//! inside a nested parallel call — execution is inline and in index order,
//! bit-identical to a serial loop.

pub mod iter;
pub mod pool;

pub use pool::join;

pub mod prelude {
    pub use crate::iter::{
        FromParIter, IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParAccess, ParIter,
    };
}

/// Number of threads the pool schedules across (mirrors
/// `rayon::current_num_threads`).
pub fn current_num_threads() -> usize {
    pool::threads()
}
