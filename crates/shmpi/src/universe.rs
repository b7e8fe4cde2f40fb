//! Launching a "world" of ranks as scoped threads.

use crate::comm::{Comm, Shared};
use crate::event::CommLog;
use crate::mailbox::{LiveRanks, Mailbox, MailboxKind};
use crate::stats::{CommDetail, RankStats, WorldStats};
use bwb_machine::{LatencyProfile, RankPlacement};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Result of a world run: per-rank return values (indexed by rank),
/// per-rank communication statistics, and the wall-clock duration.
#[derive(Debug)]
pub struct RunOutput<R> {
    pub results: Vec<R>,
    pub stats: WorldStats,
    pub wall_seconds: f64,
}

impl<R> RunOutput<R> {
    /// Fraction of mean rank time spent blocked in communication —
    /// the Figure 7 metric for this run.
    pub fn mpi_fraction(&self) -> f64 {
        self.stats.mpi_fraction(self.wall_seconds)
    }
}

/// Entry point: spawn `size` ranks and run `f` on each.
pub struct Universe;

impl Universe {
    /// Run `f` on `size` ranks (threads). Returns per-rank results in rank
    /// order plus communication statistics.
    ///
    /// The closure runs once per rank with that rank's [`Comm`]. All sends
    /// are eager, so the closure may send before the peer has posted a
    /// receive; deadlock is only possible through circular blocking
    /// receives, as in real MPI.
    ///
    /// While the ranks live in this process — this world's and those of
    /// every other world running beside it — fit the host
    /// (`<= available_parallelism()`), a receive that finds its mailbox
    /// empty polls for [`crate::SPIN_BUDGET`] before it parks; past that it
    /// parks at once, because there a polling rank holds the core a sender
    /// needs. The rank counts decide, for every entry point: there is no
    /// switch.
    pub fn run<F, R>(size: usize, f: F) -> RunOutput<R>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        Self::run_placed(size, None, f)
    }

    /// Like [`Universe::run`] but with an explicit mailbox transport
    /// ([`MailboxKind::Spsc`] selects the lock-free SPSC ring path); every
    /// other entry point except [`Universe::run_pinned`] runs on
    /// [`MailboxKind::Locked`].
    pub fn run_with_mailbox<F, R>(size: usize, kind: MailboxKind, f: F) -> RunOutput<R>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        Self::run_impl(size, None, false, kind, f).0
    }

    /// Like [`Universe::run`] but with a machine placement: each message is
    /// additionally priced with the modelled latency of its rank pair's
    /// topological distance, accumulated in
    /// [`RankStats::modeled_latency_s`].
    pub fn run_placed<F, R>(
        size: usize,
        placement: Option<(RankPlacement, LatencyProfile)>,
        f: F,
    ) -> RunOutput<R>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        Self::run_impl(size, placement, false, MailboxKind::Locked, f).0
    }

    /// Run a universe pinned to a carved core set: the serve-shard entry
    /// point. `placement` is one shard's disjoint core set (from
    /// [`bwb_machine::CpuTopology::carve_shards`]); ranks map onto its
    /// cores in order, messages are priced with the placement-aware
    /// latency model, and the transport is explicit so the service can put
    /// the lock-free SPSC rings on its hot path.
    ///
    /// Panics if the shard's core set has fewer cores than ranks — a shard
    /// never oversubscribes its carve.
    pub fn run_pinned<F, R>(
        size: usize,
        kind: MailboxKind,
        placement: (RankPlacement, LatencyProfile),
        f: F,
    ) -> RunOutput<R>
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        assert!(
            placement.0.n_ranks() >= size,
            "shard core set has {} cores for {} ranks",
            placement.0.n_ranks(),
            size
        );
        Self::run_impl(size, Some(placement), false, kind, f).0
    }

    /// Like [`Universe::run`] but with communication-event logging enabled
    /// on every rank; returns the per-rank [`CommLog`]s (indexed by rank)
    /// alongside the run output. Feeds `dslcheck::comm` ("commcheck").
    pub fn run_logged<F, R>(size: usize, f: F) -> (RunOutput<R>, Vec<CommLog>)
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        Self::run_placed_logged(size, None, f)
    }

    /// [`Universe::run_placed`] with communication-event logging.
    pub fn run_placed_logged<F, R>(
        size: usize,
        placement: Option<(RankPlacement, LatencyProfile)>,
        f: F,
    ) -> (RunOutput<R>, Vec<CommLog>)
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        let (out, logs) = Self::run_impl(size, placement, true, MailboxKind::Locked, f);
        (out, logs.expect("logging was enabled"))
    }

    fn run_impl<F, R>(
        size: usize,
        placement: Option<(RankPlacement, LatencyProfile)>,
        log: bool,
        mailbox: MailboxKind,
        f: F,
    ) -> (RunOutput<R>, Option<Vec<CommLog>>)
    where
        F: Fn(&mut Comm) -> R + Sync,
        R: Send,
    {
        assert!(size > 0, "world size must be at least 1");
        if let Some((p, _)) = &placement {
            assert!(
                p.n_ranks() >= size,
                "placement has {} slots for {} ranks",
                p.n_ranks(),
                size
            );
        }
        let shared = Arc::new(Shared {
            mailboxes: (0..size)
                .map(|_| Mailbox::with_kind(mailbox, size))
                .collect(),
            size,
            barrier: Barrier::new(size),
            placement,
        });

        type Slot<R> = Option<(R, RankStats, CommDetail, Option<CommLog>)>;
        let results: Mutex<Vec<Slot<R>>> = Mutex::new((0..size).map(|_| None).collect());

        let t0 = Instant::now();
        let live = LiveRanks::enter(size);
        std::thread::scope(|scope| {
            for rank in 0..size {
                let shared = Arc::clone(&shared);
                let f = &f;
                let results = &results;
                scope.spawn(move || {
                    bwb_trace::set_rank(rank);
                    bwb_trace::set_thread_label(&format!("rank {rank}"));
                    let mut comm = Comm::new(rank, shared);
                    if log {
                        comm.enable_comm_log();
                    }
                    let r = f(&mut comm);
                    let log = comm.take_comm_log();
                    results.lock().unwrap()[rank] = Some((r, comm.stats, comm.detail, log));
                });
            }
        });
        drop(live);
        let wall_seconds = t0.elapsed().as_secs_f64();

        let mut out_results = Vec::with_capacity(size);
        let mut out_stats = Vec::with_capacity(size);
        let mut out_details = Vec::with_capacity(size);
        let mut out_logs = Vec::with_capacity(size);
        for slot in results.into_inner().unwrap() {
            let (r, s, d, l) = slot.expect("every rank completes");
            out_results.push(r);
            out_stats.push(s);
            out_details.push(d);
            out_logs.push(l);
        }
        // Teardown check: every send must have been received. Eager
        // delivery means anything still queued is a matching bug the run
        // would otherwise silently drop.
        for (rank, stats) in out_stats.iter_mut().enumerate() {
            let leftover = shared.mailboxes[rank].len();
            stats.unreceived_at_teardown = leftover as u64;
            debug_assert_eq!(
                leftover, 0,
                "rank {rank} mailbox holds {leftover} unreceived envelope(s) at teardown"
            );
        }
        let out = RunOutput {
            results: out_results,
            stats: WorldStats {
                per_rank: out_stats,
                details: out_details,
            },
            wall_seconds,
        };
        let logs = if log {
            // A rank's closure may have detached its log with
            // `take_comm_log`; substitute an empty log for that rank.
            Some(
                out_logs
                    .into_iter()
                    .enumerate()
                    .map(|(r, l)| l.unwrap_or_else(|| CommLog::new(r)))
                    .collect(),
            )
        } else {
            None
        };
        (out, logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_machine::{platforms, PlacementPolicy};

    #[test]
    fn single_rank_world() {
        let out = Universe::run(1, |c| {
            assert_eq!(c.size(), 1);
            c.rank()
        });
        assert_eq!(out.results, vec![0]);
        assert_eq!(out.stats.per_rank.len(), 1);
    }

    #[test]
    fn results_indexed_by_rank() {
        let out = Universe::run(8, |c| c.rank() * 2);
        assert_eq!(out.results, (0..8).map(|r| r * 2).collect::<Vec<_>>());
    }

    // Real-clock assertion: meaningless under miri's virtual clock.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn wall_time_positive() {
        let out = Universe::run(2, |_c| ());
        assert!(out.wall_seconds > 0.0);
    }

    #[test]
    #[should_panic(expected = "world size")]
    fn zero_size_rejected() {
        Universe::run(0, |_c| ());
    }

    // 72 interpreted threads: far too slow under miri; the mailbox and
    // collectives tests cover the same synchronization paths at small rank
    // counts.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn placed_run_prices_cross_socket_messages_higher() {
        let p = platforms::xeon_8360y();
        let placement = p.topology.place_ranks(PlacementPolicy::OnePerCore);
        // Ranks 0 and 1 are same-NUMA; ranks 0 and 71 are cross-socket.
        let near = Universe::run_placed(72, Some((placement.clone(), p.latency)), |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1u8]);
            } else if c.rank() == 1 {
                let _ = c.recv::<u8>(0, 0);
            }
            c.stats().modeled_latency_s
        });
        let far = Universe::run_placed(72, Some((placement, p.latency)), |c| {
            if c.rank() == 0 {
                c.send(71, 0, vec![1u8]);
            } else if c.rank() == 71 {
                let _ = c.recv::<u8>(0, 0);
            }
            c.stats().modeled_latency_s
        });
        assert!(far.results[0] > near.results[0]);
    }

    #[test]
    fn logged_run_records_per_rank_events() {
        use crate::event::CommOp;
        let (out, logs) = Universe::run_logged(3, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.set_comm_ctx("ring");
            c.send(right, 4, vec![1u32]);
            let _ = c.recv::<u32>(left, 4);
            c.clear_comm_ctx();
            c.barrier();
        });
        assert_eq!(logs.len(), 3);
        for (rank, log) in logs.iter().enumerate() {
            assert_eq!(log.rank, rank);
            assert_eq!(log.sends(), 1);
            assert_eq!(log.recvs(), 1);
            assert_eq!(log.barriers(), 1);
            let send = &log.events[0];
            assert_eq!(
                send.op,
                CommOp::Send {
                    dest: (rank + 1) % 3
                }
            );
            assert_eq!(send.ctx.as_deref(), Some("ring"));
            assert_eq!(send.bytes, 4);
        }
        assert_eq!(out.stats.per_rank[0].unreceived_at_teardown, 0);
    }

    #[test]
    fn logged_collectives_record_markers() {
        use crate::ReduceOp;
        let (_out, logs) = Universe::run_logged(2, |c| {
            c.allreduce_scalar(1u64, ReduceOp::Sum);
        });
        for log in &logs {
            // allreduce = reduce + bcast on every rank.
            assert_eq!(log.collective_kinds(), vec!["reduce", "bcast"]);
        }
    }

    #[test]
    fn unlogged_run_keeps_logging_disabled() {
        let out = Universe::run(2, |c| c.take_comm_log().is_none());
        assert!(out.results.iter().all(|&none| none));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unreceived envelope")]
    fn teardown_asserts_on_unreceived_send() {
        Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 77, vec![1u8]);
            }
            // rank 1 never receives tag 77
        });
    }

    #[test]
    fn spsc_transport_is_observably_identical() {
        use crate::ReduceOp;
        // Ring exchange + allreduce + barrier: results and byte
        // accounting must not depend on the mailbox transport.
        let program = |c: &mut crate::Comm| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 3, vec![c.rank() as u64 * 10]);
            let got = c.recv::<u64>(left, 3)[0];
            let total = c.allreduce_scalar(got, ReduceOp::Sum);
            c.barrier();
            (got, total, c.stats().bytes_sent)
        };
        let locked = Universe::run_with_mailbox(6, MailboxKind::Locked, program);
        let spsc = Universe::run_with_mailbox(6, MailboxKind::Spsc, program);
        assert_eq!(locked.results, spsc.results);
        for (l, s) in locked.stats.per_rank.iter().zip(spsc.stats.per_rank.iter()) {
            assert_eq!(l.bytes_sent, s.bytes_sent);
            assert_eq!(l.sends, s.sends);
            assert_eq!(l.unreceived_at_teardown, 0);
            assert_eq!(s.unreceived_at_teardown, 0);
        }
    }

    #[test]
    fn pinned_universe_runs_on_carved_cores_with_spsc() {
        use bwb_machine::ShardPolicy;
        let p = platforms::xeon_8360y();
        let shards = p.topology.carve_shards(2, ShardPolicy::OnePerNuma).unwrap();
        for shard in shards {
            let out = Universe::run_pinned(4, MailboxKind::Spsc, (shard, p.latency), |c| {
                let right = (c.rank() + 1) % c.size();
                let left = (c.rank() + c.size() - 1) % c.size();
                c.send(right, 9, vec![c.rank() as u32]);
                c.recv::<u32>(left, 9)[0]
            });
            assert_eq!(out.results, vec![3, 0, 1, 2]);
        }
    }

    #[test]
    #[should_panic(expected = "cores for")]
    fn pinned_universe_rejects_oversubscribed_shard() {
        use bwb_machine::ShardPolicy;
        let p = platforms::xeon_8360y();
        let shard = p
            .topology
            .carve_shards(p.topology.total_numa() as usize, ShardPolicy::OnePerNuma)
            .unwrap()
            .remove(0);
        let ranks = shard.n_ranks() + 1;
        Universe::run_pinned(ranks, MailboxKind::Spsc, (shard, p.latency), |_c| ());
    }

    #[test]
    fn mpi_fraction_in_unit_interval() {
        let out = Universe::run(4, |c| {
            c.barrier();
        });
        let f = out.mpi_fraction();
        assert!((0.0..=1.0).contains(&f));
    }
}
