//! Deadlock analyzer: model-check the merged log for cyclic blocking,
//! barrier arity mismatches, and divergent collective order.
//!
//! The replay ([`crate::comm::replay`]) is the model checker: under eager
//! buffered sends the abstract machine is *monotone* — executing any
//! enabled event never disables another — so a single run to fixed point
//! decides reachability of the final state for every interleaving. If the
//! replay gets stuck, the stuck configuration is real, and the blame
//! structure is read off a wait-for graph:
//!
//! * a rank blocked in `Recv` waits for the rank it expects the next
//!   envelope from;
//! * a rank blocked in `Barrier` waits for every rank not yet blocked at a
//!   barrier (they must still arrive);
//! * a cycle in that graph is reported as [`Kind::CommDeadlock`].
//!
//! Two statically decidable protocol errors are checked without the
//! replay: per-rank `barrier()` call counts must agree
//! ([`Kind::BarrierMismatch`]), and — because shmpi's collectives consume
//! one `coll_seq` tag per invocation, in program order — every rank must
//! invoke the *same kinds of collectives in the same order*
//! ([`Kind::CollectiveOrderDivergence`]).

use crate::comm::replay::{BlockState, Outcome, Replay};
use crate::violation::{Kind, Violation};
use bwb_shmpi::{CommLog, CommOp};

/// Find one cycle in the wait-for graph `edges` (adjacency list), if any.
/// Returns the cycle as a rank sequence with the start rank *not*
/// repeated.
fn find_cycle(edges: &[Vec<usize>]) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let n = edges.len();
    let mut mark = vec![Mark::White; n];
    let mut stack = Vec::new();

    fn dfs(
        v: usize,
        edges: &[Vec<usize>],
        mark: &mut [Mark],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        mark[v] = Mark::Grey;
        stack.push(v);
        for &w in &edges[v] {
            match mark[w] {
                Mark::Grey => {
                    let start = stack.iter().position(|&x| x == w).unwrap();
                    return Some(stack[start..].to_vec());
                }
                Mark::White => {
                    if let Some(c) = dfs(w, edges, mark, stack) {
                        return Some(c);
                    }
                }
                Mark::Black => {}
            }
        }
        stack.pop();
        mark[v] = Mark::Black;
        None
    }

    (0..n).find_map(|v| {
        if mark[v] == Mark::White {
            dfs(v, edges, &mut mark, &mut stack)
        } else {
            None
        }
    })
}

/// Run the deadlock analyzer. `replay` must come from the same `logs`.
pub fn check_deadlock(app: &str, logs: &[CommLog], replay: &Replay) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = logs.len();

    // Barrier arity: every rank against the first rank with a different
    // count (one finding per divergent rank, anchored at rank 0).
    let counts: Vec<usize> = logs.iter().map(|l| l.barriers()).collect();
    for (r, &c) in counts.iter().enumerate().skip(1) {
        if c != counts[0] {
            out.push(Violation {
                app: app.into(),
                kind: Kind::BarrierMismatch {
                    rank_a: 0,
                    count_a: counts[0],
                    rank_b: r,
                    count_b: c,
                },
            });
        }
    }

    // Collective order: pairwise against rank 0's kind sequence. A missing
    // invocation reads as "(none)" so length mismatches are reported at
    // the first absent position.
    let seqs: Vec<Vec<&'static str>> = logs.iter().map(|l| l.collective_kinds()).collect();
    for (r, seq) in seqs.iter().enumerate().skip(1) {
        let len = seqs[0].len().max(seq.len());
        for at in 0..len {
            let a = seqs[0].get(at).copied().unwrap_or("(none)");
            let b = seq.get(at).copied().unwrap_or("(none)");
            if a != b {
                out.push(Violation {
                    app: app.into(),
                    kind: Kind::CollectiveOrderDivergence {
                        at,
                        rank_a: 0,
                        kind_a: a.into(),
                        rank_b: r,
                        kind_b: b.into(),
                    },
                });
                break; // first divergence per rank pair
            }
        }
    }

    // Cyclic blocking: only meaningful when the replay got stuck.
    if let Outcome::Stuck { blocked } = &replay.outcome {
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (r, b) in blocked.iter().enumerate() {
            match *b {
                BlockState::Done => {}
                BlockState::Recv(at) => {
                    if let CommOp::Recv { source } = logs[r].events[at].op {
                        edges[r].push(source);
                    }
                }
                BlockState::Barrier(_) => {
                    // Waits for every rank not itself at (or past) a
                    // barrier — those must produce more events first.
                    for (q, bq) in blocked.iter().enumerate() {
                        if q != r && !matches!(bq, BlockState::Barrier(_)) {
                            edges[r].push(q);
                        }
                    }
                }
            }
        }
        if let Some(cycle) = find_cycle(&edges) {
            out.push(Violation {
                app: app.into(),
                kind: Kind::CommDeadlock { cycle },
            });
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::replay::replay;
    use crate::comm::testutil::{barrier, coll, log_of, recv, send};

    #[test]
    fn clean_exchange_has_no_findings() {
        let logs = vec![
            log_of(0, vec![send(1, 1, 8, None), recv(1, 1, 8, None), barrier()]),
            log_of(1, vec![send(0, 1, 8, None), recv(0, 1, 8, None), barrier()]),
        ];
        let r = replay(&logs);
        assert!(check_deadlock("t", &logs, &r).is_empty());
    }

    #[test]
    fn recv_cycle_is_a_deadlock() {
        let logs = vec![
            log_of(0, vec![recv(1, 1, 8, None), send(1, 1, 8, None)]),
            log_of(1, vec![recv(0, 1, 8, None), send(0, 1, 8, None)]),
        ];
        let r = replay(&logs);
        let v = check_deadlock("t", &logs, &r);
        assert!(
            v.iter()
                .any(|v| matches!(&v.kind, Kind::CommDeadlock { cycle } if cycle.len() == 2)),
            "{v:?}"
        );
    }

    #[test]
    fn barrier_count_mismatch_is_reported() {
        let logs = vec![
            log_of(0, vec![barrier(), barrier()]),
            log_of(1, vec![barrier()]),
        ];
        let r = replay(&logs);
        let v = check_deadlock("t", &logs, &r);
        assert!(v.iter().any(|v| matches!(
            v.kind,
            Kind::BarrierMismatch {
                rank_a: 0,
                count_a: 2,
                rank_b: 1,
                count_b: 1
            }
        )));
    }

    #[test]
    fn divergent_collective_order_is_reported() {
        let logs = vec![
            log_of(
                0,
                vec![coll("reduce", 0x8000_0000), coll("bcast", 0x8000_0001)],
            ),
            log_of(
                1,
                vec![coll("bcast", 0x8000_0000), coll("reduce", 0x8000_0001)],
            ),
        ];
        let r = replay(&logs);
        let v = check_deadlock("t", &logs, &r);
        assert!(v.iter().any(|v| matches!(
            &v.kind,
            Kind::CollectiveOrderDivergence { at: 0, kind_a, kind_b, .. }
                if kind_a == "reduce" && kind_b == "bcast"
        )));
    }
}
