//! Envelope-matching analyzer: prove every send is received and every
//! receive has a sender.
//!
//! This is a *counting* argument, independent of interleaving: shmpi's
//! mailbox streams are FIFO per `(source, tag)`, so within one stream the
//! k-th receive consumes exactly the k-th send. Comparing per-stream send
//! and receive counts therefore decides matching statically:
//!
//! * more sends than receives → the surplus envelopes sit in the
//!   destination mailbox at teardown ([`Kind::UnmatchedSend`] — the
//!   dynamic shadow of `RankStats::unreceived_at_teardown`);
//! * more receives than sends → the surplus receives can never return
//!   ([`Kind::OrphanRecv`]).

use crate::violation::{Kind, Violation};
use bwb_shmpi::{CommLog, CommOp};
use std::collections::BTreeMap;

/// Per-stream tallies, keyed `(src, dest, tag)`.
#[derive(Default)]
struct Stream {
    sends: usize,
    recvs: usize,
    /// Context of the first send (for dat attribution of the finding).
    send_ctx: Option<String>,
}

/// Run the matching analyzer over a merged log.
pub fn check_matching(app: &str, logs: &[CommLog]) -> Vec<Violation> {
    let mut streams: BTreeMap<(usize, usize, u32), Stream> = BTreeMap::new();
    for log in logs {
        for ev in &log.events {
            match ev.op {
                CommOp::Send { dest } => {
                    let s = streams.entry((log.rank, dest, ev.tag)).or_default();
                    s.sends += 1;
                    if s.send_ctx.is_none() {
                        s.send_ctx.clone_from(&ev.ctx);
                    }
                }
                CommOp::Recv { source } => {
                    streams.entry((source, log.rank, ev.tag)).or_default().recvs += 1;
                }
                CommOp::Barrier | CommOp::Collective { .. } => {}
            }
        }
    }

    let mut out = Vec::new();
    for ((src, dest, tag), s) in &streams {
        if s.sends > s.recvs {
            out.push(Violation {
                app: app.into(),
                kind: Kind::UnmatchedSend {
                    src: *src,
                    dest: *dest,
                    tag: *tag,
                    count: s.sends - s.recvs,
                    dat: s.send_ctx.clone().unwrap_or_default(),
                },
            });
        } else if s.recvs > s.sends {
            out.push(Violation {
                app: app.into(),
                kind: Kind::OrphanRecv {
                    rank: *dest,
                    source: *src,
                    tag: *tag,
                    count: s.recvs - s.sends,
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::testutil::{log_of, recv, send};

    #[test]
    fn balanced_streams_are_clean() {
        let logs = vec![
            log_of(0, vec![send(1, 3, 8, Some("u")), recv(1, 4, 8, None)]),
            log_of(1, vec![recv(0, 3, 8, None), send(0, 4, 8, None)]),
        ];
        assert!(check_matching("t", &logs).is_empty());
    }

    #[test]
    fn surplus_send_is_reported_with_dat() {
        let logs = vec![
            log_of(0, vec![send(1, 3, 8, Some("density")), send(1, 3, 8, None)]),
            log_of(1, vec![recv(0, 3, 8, None)]),
        ];
        let v = check_matching("t", &logs);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0].kind,
            Kind::UnmatchedSend {
                src: 0,
                dest: 1,
                tag: 3,
                count: 1,
                dat: "density".into()
            }
        );
    }

    #[test]
    fn surplus_recv_is_an_orphan() {
        let logs = vec![
            log_of(0, vec![send(1, 3, 8, None)]),
            log_of(1, vec![recv(0, 3, 8, None), recv(0, 3, 8, None)]),
        ];
        let v = check_matching("t", &logs);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0].kind,
            Kind::OrphanRecv {
                rank: 1,
                source: 0,
                tag: 3,
                count: 1
            }
        );
    }
}
