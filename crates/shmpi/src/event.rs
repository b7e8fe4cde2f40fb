//! Per-rank communication event logs — the raw material of commcheck.
//!
//! When logging is enabled ([`crate::Comm::enable_comm_log`], or wholesale
//! via [`crate::Universe::run_logged`]), every point-to-point operation,
//! barrier, and collective appends a [`CommEvent`] to the rank's
//! [`CommLog`]. The log records what the rank *said*: the operation, peer,
//! tag, payload size, and an optional `ctx` string attributing the event to
//! the dat / phase that triggered it (halo exchanges set this to the dat
//! name). `dslcheck::comm` merges the per-rank logs and replays them to
//! verify matching, deadlock-freedom, and balance.

/// What one communication event did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommOp {
    /// Eager buffered send to `dest`.
    Send { dest: usize },
    /// Blocking receive from `source`.
    Recv { source: usize },
    /// World barrier.
    Barrier,
    /// Collective entry marker (the constituent point-to-point traffic is
    /// logged separately as `Send`/`Recv` events carrying the collective's
    /// reserved tag). `kind` names the operation: "reduce", "bcast",
    /// "gather".
    Collective { kind: &'static str },
}

/// One recorded communication event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommEvent {
    pub op: CommOp,
    /// Message tag (for `Barrier`, 0; for `Collective`, the base tag of the
    /// operation's reserved window).
    pub tag: u32,
    /// Payload bytes (0 for `Barrier` / `Collective` markers).
    pub bytes: usize,
    /// Dat / phase attribution, set by the layer that initiated the
    /// exchange (e.g. `"density0"` for an ops halo exchange, `"q"` for an
    /// op2 gather). `None` when the caller did not attribute.
    pub ctx: Option<String>,
}

/// The ordered event sequence one rank produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommLog {
    pub rank: usize,
    pub events: Vec<CommEvent>,
}

impl CommLog {
    pub fn new(rank: usize) -> Self {
        CommLog {
            rank,
            events: Vec::new(),
        }
    }

    /// Count of events matching a predicate (used by analyzers and tests).
    pub fn count(&self, f: impl Fn(&CommEvent) -> bool) -> usize {
        self.events.iter().filter(|e| f(e)).count()
    }

    /// Total sends recorded.
    pub fn sends(&self) -> usize {
        self.count(|e| matches!(e.op, CommOp::Send { .. }))
    }

    /// Total receives recorded.
    pub fn recvs(&self) -> usize {
        self.count(|e| matches!(e.op, CommOp::Recv { .. }))
    }

    /// Total barrier entries recorded.
    pub fn barriers(&self) -> usize {
        self.count(|e| matches!(e.op, CommOp::Barrier))
    }

    /// The sequence of collective kinds, in program order.
    pub fn collective_kinds(&self) -> Vec<&'static str> {
        self.events
            .iter()
            .filter_map(|e| match e.op {
                CommOp::Collective { kind } => Some(kind),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_counters() {
        let mut log = CommLog::new(2);
        log.events.push(CommEvent {
            op: CommOp::Send { dest: 1 },
            tag: 5,
            bytes: 64,
            ctx: Some("density".into()),
        });
        log.events.push(CommEvent {
            op: CommOp::Recv { source: 3 },
            tag: 5,
            bytes: 64,
            ctx: None,
        });
        log.events.push(CommEvent {
            op: CommOp::Barrier,
            tag: 0,
            bytes: 0,
            ctx: None,
        });
        log.events.push(CommEvent {
            op: CommOp::Collective { kind: "reduce" },
            tag: 0x8000_0000,
            bytes: 0,
            ctx: None,
        });
        assert_eq!(log.sends(), 1);
        assert_eq!(log.recvs(), 1);
        assert_eq!(log.barriers(), 1);
        assert_eq!(log.collective_kinds(), vec!["reduce"]);
    }
}
