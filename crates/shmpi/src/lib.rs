//! # bwb-shmpi — in-process message passing
//!
//! The paper runs every application over Intel MPI, with ranks placed one
//! per core (pure MPI) or one per NUMA domain (MPI+OpenMP / MPI+SYCL), and
//! quantifies the time spent in `MPI_Wait` (Figure 7). This crate is the
//! substitute substrate: **ranks are OS threads** inside one process,
//! point-to-point messages are buffered envelopes delivered through per-rank
//! mailboxes, and every blocking entry point accounts the time it blocked —
//! the same instrument the paper reads.
//!
//! Semantics follow MPI where it matters to the benchmarked codes:
//!
//! * eager buffered `send` (never blocks), blocking `recv` from a named
//!   source with `(source, tag)` matching and FIFO order per (source, tag)
//!   pair — so every send↔receive pairing is fixed by program order;
//! * collectives: `barrier`, `allreduce`, `reduce`, `bcast`, `gather`;
//! * Cartesian topologies with `dims_create`-style factorization and
//!   neighbour shifts — the decomposition used by all structured-mesh apps;
//! * per-rank [`RankStats`] (messages, bytes, blocked wall time, and a
//!   *modelled* latency account driven by the [`bwb_machine`] placement and
//!   latency profile, so figure generation can ask "what would this
//!   communication pattern cost on the Xeon MAX?").
//!
//! ## Example
//!
//! ```
//! use bwb_shmpi::Universe;
//!
//! let out = Universe::run(4, |comm| {
//!     // ring: send rank to the right, receive from the left
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 0, vec![comm.rank() as u64]);
//!     let got = comm.recv::<u64>(left, 0);
//!     got[0]
//! });
//! assert_eq!(out.results, vec![3, 0, 1, 2]);
//! ```

pub mod bufpool;
pub mod cart;
pub mod collectives;
pub mod comm;
pub mod event;
pub mod mailbox;
pub mod stats;
pub mod universe;

pub use cart::CartComm;
pub use collectives::{ReduceOp, COLL_TAG_BASE};
pub use comm::{Comm, SW_OVERHEAD_NS};
pub use event::{CommEvent, CommLog, CommOp};
pub use mailbox::{
    Arrival, Envelope, LockedMailbox, Mailbox, MailboxKind, Pattern, SpscMailbox, SpscRing, Taken,
    SPIN_BUDGET,
};
pub use stats::{CommDetail, PeerStats, RankStats, WorldStats, SIZE_HIST_BUCKETS};
pub use universe::{RunOutput, Universe};
