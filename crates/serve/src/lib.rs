//! # bwb-serve — the benchmark-serving front end
//!
//! A long-running HTTP+JSON service over the whole reproduction stack:
//! clients submit figure, benchmark, analyze, and trace jobs; the server
//! answers from a content-addressed result cache when it can, coalesces
//! identical in-flight work when it can't, and bounds the heavy-job
//! concurrency it admits. Distributed jobs run on `shmpi` universes pinned
//! to disjoint core shards carved from the modelled machine's topology
//! ([`bwb_machine::CpuTopology::carve_shards`]), over the lock-free SPSC
//! mailbox transport.
//!
//! The layering, bottom-up:
//!
//! * [`key`] — stable FNV-1a content addresses over (job kind, canonical
//!   spec, optimization plan, machine descriptor). No process-local state:
//!   keys are comparable across runs and hosts.
//! * [`cache`] — the keyed payload store with hit/miss/age accounting.
//! * [`flight`] — single-flight coalescing plus fair bounded admission
//!   (FIFO ticket queue; full queue ⇒ HTTP 429 upstream).
//! * [`shard`] — the pinned worker pool: one `shmpi` universe per shard
//!   at a time, placement-priced messaging, SPSC transport.
//! * [`jobs`] — wire-level job shapes, parsing, and execution against
//!   `bwb-apps`/`bwb-perfmodel`/`bwb-dslcheck`, with per-job Perfetto
//!   exports via `bwb-trace`.
//! * [`http`] + [`server`] — a deliberately minimal HTTP/1.1 layer and
//!   the routing/drain logic on top.
//!
//! All of it is plain blocking code on std threads; there is no async
//! runtime. Serving is measured by the `perf/` benchmark's `serve_mix`
//! workload and its `serve.*` metrics.
//!
//! ## Quick start
//!
//! ```
//! use bwb_serve::server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let addr = server.local_addr().to_string();
//! let state = server.state();
//! let t = std::thread::spawn(move || server.run());
//! let resp = bwb_serve::http::request(
//!     &addr, "POST", "/job", Some(r#"{"kind":"figure","figure":8}"#)).unwrap();
//! assert_eq!(resp.status, 200);
//! state.begin_shutdown();
//! t.join().unwrap();
//! ```

pub mod cache;
pub mod flight;
pub mod http;
pub mod jobs;
pub mod key;
pub mod server;
pub mod shard;

pub use cache::{CacheStats, ResultCache};
pub use flight::{FlightOutcome, FlightStats, QueueFull, SingleFlight};
pub use jobs::{ExecContext, Job, TraceStore};
pub use key::{fnv1a64, CacheKey, KeyMaterial};
pub use server::{Server, ServerConfig, ServerState};
pub use shard::{ShardPool, ShardStats, ShardedRun};
