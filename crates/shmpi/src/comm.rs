//! The per-rank communicator handle: point-to-point messaging.

use crate::event::{CommEvent, CommLog, CommOp};
use crate::mailbox::{Arrival, Envelope, Mailbox, Pattern, Taken};
use crate::stats::{CommDetail, RankStats};
use bwb_machine::{LatencyProfile, RankPlacement};
use std::sync::{Arc, Barrier};

/// Software envelope overhead added to the modelled per-message latency
/// (matching, queueing — the MPI stack cost), nanoseconds.
pub const SW_OVERHEAD_NS: f64 = 250.0;

pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) size: usize,
    pub(crate) barrier: Barrier,
    /// Optional machine model: where each rank lives and what messages cost.
    pub(crate) placement: Option<(RankPlacement, LatencyProfile)>,
}

/// One rank's communicator. Created by [`crate::Universe::run`]; each rank's
/// closure receives `&mut Comm` and may freely send/receive/collect.
pub struct Comm {
    pub(crate) rank: usize,
    pub(crate) shared: Arc<Shared>,
    pub(crate) stats: RankStats,
    /// Per-peer/per-tag refinement of `stats` (histograms, attributed wait).
    pub(crate) detail: CommDetail,
    /// Sequence number giving each collective invocation a unique tag.
    pub(crate) coll_seq: u32,
    /// Full communication event log for commcheck. `None` (the default)
    /// costs one branch per operation.
    pub(crate) comm_log: Option<CommLog>,
    /// Current dat / phase attribution stamped onto logged events. Only
    /// consulted when `comm_log` is active.
    pub(crate) comm_ctx: Option<String>,
}

impl Comm {
    pub(crate) fn new(rank: usize, shared: Arc<Shared>) -> Self {
        Comm {
            rank,
            shared,
            stats: RankStats::default(),
            detail: CommDetail::default(),
            coll_seq: 0,
            comm_log: None,
            comm_ctx: None,
        }
    }

    /// Start recording the full per-rank communication event log (every
    /// send/recv/barrier/collective with peer, tag, bytes, and ctx
    /// attribution). Drives `dslcheck::comm`; see [`crate::CommLog`].
    pub fn enable_comm_log(&mut self) {
        if self.comm_log.is_none() {
            self.comm_log = Some(CommLog::new(self.rank));
        }
    }

    /// Detach the recorded event log (if any), leaving logging disabled.
    pub fn take_comm_log(&mut self) -> Option<CommLog> {
        self.comm_log.take()
    }

    /// Attribute subsequent logged events to a dat / phase name. No-op
    /// (and allocation-free) while logging is disabled.
    pub fn set_comm_ctx(&mut self, ctx: &str) {
        if self.comm_log.is_some() {
            self.comm_ctx = Some(ctx.to_string());
        }
    }

    /// Clear the dat / phase attribution.
    pub fn clear_comm_ctx(&mut self) {
        self.comm_ctx = None;
    }

    /// Append one event to the comm log (no-op while logging is off).
    pub(crate) fn log_event(&mut self, op: CommOp, tag: u32, bytes: usize) {
        if let Some(log) = &mut self.comm_log {
            log.events.push(CommEvent {
                op,
                tag,
                bytes,
                ctx: self.comm_ctx.clone(),
            });
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// Statistics accumulated so far on this rank.
    pub fn stats(&self) -> RankStats {
        self.stats
    }

    /// Per-peer/per-tag breakdown accumulated so far on this rank.
    pub fn detail(&self) -> &CommDetail {
        &self.detail
    }

    fn modeled_latency_s(&self, peer: usize) -> f64 {
        match &self.shared.placement {
            Some((placement, profile)) => {
                let d = placement.distance(
                    self.rank.min(placement.n_ranks() - 1),
                    peer.min(placement.n_ranks() - 1),
                );
                profile.mpi_latency_ns(d, SW_OVERHEAD_NS) * 1e-9
            }
            None => SW_OVERHEAD_NS * 1e-9,
        }
    }

    /// Eager buffered send: copies the payload into the destination mailbox
    /// and returns immediately (like `MPI_Send` with a small message or
    /// `MPI_Bsend`).
    pub fn send<T: Send + 'static>(&mut self, dest: usize, tag: u32, data: Vec<T>) {
        assert!(dest < self.size(), "send to rank {dest} of {}", self.size());
        let bytes = std::mem::size_of::<T>() * data.len();
        self.stats.sends += 1;
        self.stats.bytes_sent += bytes as u64;
        self.stats.modeled_latency_s += self.modeled_latency_s(dest);
        self.detail.note_send(dest, bytes);
        bwb_trace::instant(
            bwb_trace::Cat::Mpi,
            "mpi_send",
            [dest as f64, bytes as f64, tag as f64],
        );
        self.log_event(CommOp::Send { dest }, tag, bytes);
        self.shared.mailboxes[dest].deliver(Envelope {
            source: self.rank,
            tag,
            data: Box::new(data),
            bytes,
        });
    }

    /// Blocking typed receive of the next message from `source` under
    /// `tag`. A receive names its source, so FIFO order per
    /// `(source, tag)` fixes every send↔receive pairing.
    ///
    /// # Panics
    /// Panics if `source` is not a rank of this world, or if the matching
    /// message's element type is not `T` — a type confusion that real MPI
    /// would surface as silent corruption.
    pub fn recv<T: Send + 'static>(&mut self, source: usize, tag: u32) -> Vec<T> {
        assert!(
            source < self.size(),
            "recv from rank {source} of {}",
            self.size()
        );
        let Taken {
            env,
            waited,
            arrival,
        } = self.shared.mailboxes[self.rank].take_blocking(Pattern { source, tag });
        self.stats.recvs += 1;
        match arrival {
            Arrival::Queued => {}
            Arrival::Spun => self.stats.recvs_spun += 1,
            Arrival::Parked => self.stats.recvs_parked += 1,
        }
        self.stats.bytes_received += env.bytes as u64;
        self.stats.wait_seconds += waited.as_secs_f64();
        self.detail
            .note_recv(source, tag, env.bytes, waited.as_secs_f64());
        // Retro-dated span covering exactly the blocked interval, so summed
        // `mpi_wait` span time reconciles with `RankStats::wait_seconds`.
        bwb_trace::span_retro(
            bwb_trace::Cat::Mpi,
            "mpi_wait",
            waited,
            [source as f64, env.bytes as f64, tag as f64],
        );
        self.log_event(CommOp::Recv { source }, tag, env.bytes);
        let data = env.data.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!(
                "recv type mismatch: rank {} expected Vec<{}> from {} tag {}",
                self.rank,
                std::any::type_name::<T>(),
                source,
                tag
            )
        });
        *data
    }

    /// Synchronize all ranks; the blocked time counts as wait time.
    pub fn barrier(&mut self) {
        let t0 = std::time::Instant::now();
        self.shared.barrier.wait();
        let waited = t0.elapsed();
        self.stats.wait_seconds += waited.as_secs_f64();
        self.stats.barriers += 1;
        self.log_event(CommOp::Barrier, 0, 0);
        // Peer -1: barriers have no peer; bytes 0, tag -1.
        bwb_trace::span_retro(bwb_trace::Cat::Mpi, "barrier", waited, [-1.0, 0.0, -1.0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn ring_exchange() {
        let out = Universe::run(5, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 1, vec![c.rank() as u32 * 10]);
            c.recv::<u32>(left, 1)[0]
        });
        assert_eq!(out.results, vec![40, 0, 10, 20, 30]);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![0u64; 100]);
            } else {
                let _ = c.recv::<u64>(0, 0);
            }
            c.stats()
        });
        assert_eq!(out.stats.per_rank[0].sends, 1);
        assert_eq!(out.stats.per_rank[0].bytes_sent, 800);
        assert_eq!(out.stats.per_rank[1].bytes_received, 800);
        assert!(out.stats.per_rank[0].modeled_latency_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn type_confusion_panics() {
        // The receiving rank panics with "recv type mismatch: ..."; the
        // scope propagates it as a scoped-thread panic at join.
        Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1u32]);
            } else {
                let _ = c.recv::<f64>(0, 0);
            }
        });
    }

    #[test]
    #[should_panic(expected = "recv from rank 5 of 1")]
    fn recv_outside_the_world_panics() {
        // A 1-rank world's only rank, driven on the test thread so the
        // assert's message is the test's panic.
        let shared = Arc::new(Shared {
            mailboxes: vec![Mailbox::with_kind(crate::MailboxKind::Locked, 1)],
            size: 1,
            barrier: Barrier::new(1),
            placement: None,
        });
        let _ = Comm::new(0, shared).recv::<u8>(5, 0);
    }

    #[test]
    fn barrier_counts() {
        let out = Universe::run(3, |c| {
            c.barrier();
            c.barrier();
            c.stats().barriers
        });
        assert!(out.results.iter().all(|&b| b == 2));
    }
}
