//! Constructors for hand-built communication logs — used by the analyzer
//! unit tests and the planted-negative fixture suite. Public because
//! deadlocked or mismatched schedules *cannot* be recorded from a live
//! `Universe::run` (it would hang or trip the teardown assert), so every
//! negative fixture must be assembled event by event.

use bwb_shmpi::{CommEvent, CommLog, CommOp};

/// A send of `bytes` to `dest` under `tag`, optionally attributed to a
/// dat/phase context.
pub fn send(dest: usize, tag: u32, bytes: usize, ctx: Option<&str>) -> CommEvent {
    CommEvent {
        op: CommOp::Send { dest },
        tag,
        bytes,
        ctx: ctx.map(str::to_owned),
    }
}

/// A receive from `src`.
pub fn recv(src: usize, tag: u32, bytes: usize, ctx: Option<&str>) -> CommEvent {
    CommEvent {
        op: CommOp::Recv { source: src },
        tag,
        bytes,
        ctx: ctx.map(str::to_owned),
    }
}

/// A world barrier.
pub fn barrier() -> CommEvent {
    CommEvent {
        op: CommOp::Barrier,
        tag: 0,
        bytes: 0,
        ctx: None,
    }
}

/// A collective entry marker of the given kind (constituent traffic, if
/// modelled, must be added as separate send/recv events).
pub fn coll(kind: &'static str, tag: u32) -> CommEvent {
    CommEvent {
        op: CommOp::Collective { kind },
        tag,
        bytes: 0,
        ctx: None,
    }
}

/// Wrap an event sequence as rank `rank`'s log.
pub fn log_of(rank: usize, events: Vec<CommEvent>) -> CommLog {
    CommLog { rank, events }
}
