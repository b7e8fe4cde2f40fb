//! Replay of a merged per-rank communication log under the shmpi execution
//! model: eager buffered sends, blocking receives with FIFO non-overtaking
//! per `(source, tag)` stream, and world barriers.
//!
//! The replay is the shared substrate of the commcheck analyzers. It
//! re-executes the recorded event sequences as a *schedule-independent*
//! abstract machine — a rank advances whenever its next event can complete,
//! regardless of the timing the recording run happened to see — so reaching
//! the end proves the schedule completes under *every* delivery
//! interleaving consistent with the recorded matches, and getting stuck
//! hands the deadlock analyzer a concrete blocked configuration. Along the
//! way it derives the send↔receive match relation.

use bwb_shmpi::{CommLog, CommOp};
use std::collections::{HashMap, VecDeque};

/// Did the replay drain every rank's log?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Completed,
    /// At least one rank could not finish; `blocked` holds every rank's
    /// terminal state.
    Stuck {
        blocked: Vec<BlockState>,
    },
}

/// Where a rank stopped when the replay reached a fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Log fully drained.
    Done,
    /// Blocked in a receive (event index) no in-flight envelope satisfies.
    Recv(usize),
    /// Blocked in a barrier (event index) some other rank never reaches.
    Barrier(usize),
}

/// One established send→receive pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchRec {
    pub send_rank: usize,
    pub send_at: usize,
    pub recv_rank: usize,
    pub recv_at: usize,
    pub tag: u32,
    pub bytes: usize,
}

/// The replayed execution: outcome and match relation.
#[derive(Debug, Clone)]
pub struct Replay {
    pub outcome: Outcome,
    pub matches: Vec<MatchRec>,
    /// Send events (rank, index) never consumed by any receive.
    pub unmatched_sends: Vec<(usize, usize)>,
}

/// Replay the merged log. `logs[r]` must be rank `r`'s event sequence
/// (as [`bwb_shmpi::Universe::run_logged`] returns them).
pub fn replay(logs: &[CommLog]) -> Replay {
    let n = logs.len();
    for (r, log) in logs.iter().enumerate() {
        assert_eq!(log.rank, r, "logs must be indexed by rank");
    }

    // In-flight envelopes per (src, dest, tag): FIFO of (send event index,
    // bytes). FIFO order models the mailbox's per-(source, tag)
    // non-overtaking guarantee.
    let mut in_flight: HashMap<(usize, usize, u32), VecDeque<(usize, usize)>> = HashMap::new();
    let mut pc = vec![0usize; n];
    let mut matches = Vec::new();
    let mut matched_send: Vec<Vec<bool>> = logs
        .iter()
        .map(|l| {
            l.events
                .iter()
                .map(|e| !matches!(e.op, CommOp::Send { .. }))
                .collect()
        })
        .collect();

    loop {
        let mut advanced = false;

        // Barrier: a world-synchronous step — fires only when every
        // unfinished rank sits at a Barrier event simultaneously.
        let at_barrier: Vec<bool> = (0..n)
            .map(|r| {
                logs[r]
                    .events
                    .get(pc[r])
                    .is_some_and(|e| matches!(e.op, CommOp::Barrier))
            })
            .collect();
        if at_barrier.iter().all(|&b| b) {
            for p in &mut pc {
                *p += 1;
            }
            advanced = true;
        }

        for r in 0..n {
            let Some(ev) = logs[r].events.get(pc[r]) else {
                continue;
            };
            match ev.op {
                CommOp::Send { dest } => {
                    in_flight
                        .entry((r, dest, ev.tag))
                        .or_default()
                        .push_back((pc[r], ev.bytes));
                    pc[r] += 1;
                    advanced = true;
                }
                CommOp::Collective { .. } => {
                    // Pure order marker: its point-to-point traffic is
                    // logged (and replayed) separately.
                    pc[r] += 1;
                    advanced = true;
                }
                CommOp::Recv { source } => {
                    // FIFO non-overtaking makes the head of the
                    // (source, r, tag) stream the only envelope this
                    // receive may consume.
                    let Some(q) = in_flight.get_mut(&(source, r, ev.tag)) else {
                        continue;
                    };
                    let Some((send_at, bytes)) = q.pop_front() else {
                        continue;
                    };
                    matches.push(MatchRec {
                        send_rank: source,
                        send_at,
                        recv_rank: r,
                        recv_at: pc[r],
                        tag: ev.tag,
                        bytes,
                    });
                    matched_send[source][send_at] = true;
                    pc[r] += 1;
                    advanced = true;
                }
                CommOp::Barrier => {} // handled world-synchronously above
            }
        }

        if !advanced {
            break;
        }
    }

    let unmatched_sends: Vec<(usize, usize)> = matched_send
        .iter()
        .enumerate()
        .flat_map(|(r, v)| {
            v.iter()
                .enumerate()
                .filter(|&(_, &m)| !m)
                .map(move |(i, _)| (r, i))
        })
        .collect();

    let blocked: Vec<BlockState> = (0..n)
        .map(|r| match logs[r].events.get(pc[r]).map(|e| &e.op) {
            None => BlockState::Done,
            Some(CommOp::Barrier) => BlockState::Barrier(pc[r]),
            Some(CommOp::Recv { .. }) => BlockState::Recv(pc[r]),
            // Sends and collectives always advance, so a fixed point can
            // never rest on one.
            Some(other) => unreachable!("rank {r} stuck at non-blocking op {other:?}"),
        })
        .collect();
    let outcome = if blocked.iter().all(|b| *b == BlockState::Done) {
        Outcome::Completed
    } else {
        Outcome::Stuck { blocked }
    };

    Replay {
        outcome,
        matches,
        unmatched_sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::testutil::{barrier, log_of, recv, send};

    #[test]
    fn ping_pong_completes_with_matches() {
        let logs = vec![
            log_of(0, vec![send(1, 5, 64, None), recv(1, 5, 64, None)]),
            log_of(1, vec![recv(0, 5, 64, None), send(0, 5, 64, None)]),
        ];
        let r = replay(&logs);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.matches.len(), 2);
        assert!(r.unmatched_sends.is_empty());
    }

    #[test]
    fn mutual_blocking_recvs_get_stuck() {
        // Both ranks receive first: no send is ever in flight.
        let logs = vec![
            log_of(0, vec![recv(1, 1, 8, None), send(1, 1, 8, None)]),
            log_of(1, vec![recv(0, 1, 8, None), send(0, 1, 8, None)]),
        ];
        let r = replay(&logs);
        assert_eq!(
            r.outcome,
            Outcome::Stuck {
                blocked: vec![BlockState::Recv(0), BlockState::Recv(0)]
            }
        );
    }

    #[test]
    fn barrier_orders_send_before_recv() {
        let logs = vec![
            log_of(0, vec![send(1, 2, 16, None), barrier()]),
            log_of(1, vec![barrier(), recv(0, 2, 16, None)]),
        ];
        let r = replay(&logs);
        assert_eq!(r.outcome, Outcome::Completed);
        // The send precedes the barrier, which precedes the receive.
        assert_eq!(r.matches.len(), 1);
        assert_eq!((r.matches[0].send_at, r.matches[0].recv_at), (0, 1));
    }

    #[test]
    fn missing_barrier_strands_the_other_rank() {
        let logs = vec![log_of(0, vec![barrier()]), log_of(1, vec![])];
        let r = replay(&logs);
        assert_eq!(
            r.outcome,
            Outcome::Stuck {
                blocked: vec![BlockState::Barrier(0), BlockState::Done]
            }
        );
    }

    #[test]
    fn fifo_streams_match_in_order() {
        let logs = vec![
            log_of(0, vec![send(1, 9, 8, None), send(1, 9, 16, None)]),
            log_of(1, vec![recv(0, 9, 8, None), recv(0, 9, 16, None)]),
        ];
        let r = replay(&logs);
        assert_eq!(r.outcome, Outcome::Completed);
        let first = r.matches.iter().find(|m| m.recv_at == 0).unwrap();
        assert_eq!((first.send_at, first.bytes), (0, 8));
    }
}
