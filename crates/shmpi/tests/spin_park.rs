//! Both halves of a receive, natively and against the clock: the poll in
//! front of the park protocol, the park protocol itself, and the hand-over
//! between them (`mailbox.rs`, "Spin, then park"). The loom suites certify
//! the park/wake handshake for every interleaving with the poll compiled
//! out; here the poll runs, under real preemption, on both transports.

use bwb_shmpi::{Comm, MailboxKind, RankStats, Universe, SPIN_BUDGET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const KINDS: [MailboxKind; 2] = [MailboxKind::Locked, MailboxKind::Spsc];

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `world` on its own thread and fail — not hang — if it has not
/// finished in `limit`: what a lost wake-up looks like from outside.
fn within<T: Send + 'static>(limit: Duration, world: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(world());
    });
    rx.recv_timeout(limit)
        .expect("world did not finish: a receive never woke up (or a rank panicked)")
}

/// Mostly no delay (the message is queued, or lands in the poll); one
/// draw in eight waits up to twice the budget, so arrivals fall before the
/// poll's end, after it, and on the hand-over to the park protocol.
fn delay(rng: &mut StdRng) {
    if rng.gen_range(0..8u32) != 0 {
        return;
    }
    let pause = Duration::from_nanos(rng.gen_range(0..=2 * SPIN_BUDGET.as_nanos() as u64));
    let t0 = Instant::now();
    while t0.elapsed() < pause {
        std::hint::spin_loop();
    }
}

/// One rank of the ping-pong. Every trip carries its number on two tags
/// that the peer takes in the other order, so a take skips past a queued
/// envelope and per-(source, tag) FIFO is checked on every message.
fn ping_pong(c: &mut Comm, trips: u64, seed: u64) -> RankStats {
    let mut rng = StdRng::seed_from_u64(seed ^ c.rank() as u64);
    let peer = 1 - c.rank();
    for trip in 0..trips {
        if c.rank() == 0 {
            delay(&mut rng);
            c.send(peer, 1, vec![trip]);
            c.send(peer, 2, vec![trip]);
            assert_eq!(c.recv::<u64>(peer, 3), [trip], "pong out of order");
        } else {
            assert_eq!(c.recv::<u64>(peer, 2), [trip], "tag 2 out of order");
            assert_eq!(c.recv::<u64>(peer, 1), [trip], "tag 1 out of order");
            delay(&mut rng);
            c.send(peer, 3, vec![trip]);
        }
    }
    c.stats()
}

// Real-clock delays around a real-time budget: meaningless under miri's
// virtual clock, and 50 k interpreted round trips would take hours.
#[test]
#[cfg_attr(miri, ignore)]
fn spin_hits_parks_and_the_hand_over_lose_no_message() {
    const TRIPS: u64 = 50_000;
    for kind in KINDS {
        let out = within(Duration::from_secs(300), move || {
            Universe::run_with_mailbox(2, kind, |c| ping_pong(c, TRIPS, 0x5eed))
        });
        for (rank, s) in out.results.iter().enumerate() {
            let what = format!("{kind:?} rank {rank}: {s:?}");
            println!("{what}");
            assert_eq!(s.recvs, if rank == 0 { TRIPS } else { 2 * TRIPS }, "{what}");
            assert_eq!(out.stats.per_rank[rank].unreceived_at_teardown, 0, "{what}");
            assert!(0 < s.recvs_parked && s.recvs_parked < s.recvs, "{what}");
            if cores() >= 2 {
                assert!(s.recvs_spun > 0, "a 2-rank world on 2+ cores polls: {what}");
                assert!(s.recvs_spun + s.recvs_parked <= s.recvs, "{what}");
            } else {
                assert_eq!(s.recvs_spun, 0, "one core never polls: {what}");
            }
        }
    }
}

#[test]
fn oversubscribed_world_never_polls() {
    let ranks = 4 * cores();
    let laps: u64 = if cfg!(miri) { 4 } else { 200 };
    for kind in KINDS {
        let out = within(Duration::from_secs(300), move || {
            Universe::run_with_mailbox(ranks, kind, |c| {
                let right = (c.rank() + 1) % c.size();
                let left = (c.rank() + c.size() - 1) % c.size();
                for lap in 0..laps {
                    c.send(right, 7, vec![lap]);
                    assert_eq!(c.recv::<u64>(left, 7), [lap]);
                }
                c.stats()
            })
        });
        // The three arrivals partition the receives, so "none polled" is
        // "every receive that found its mailbox empty was counted parked".
        let total = out.stats.total();
        assert_eq!(total.recvs, laps * ranks as u64);
        assert_eq!(total.recvs_spun, 0, "{kind:?}: {total:?}");
        assert!(0 < total.recvs_parked && total.recvs_parked <= total.recvs);
    }
}

#[test]
fn worlds_that_fit_the_host_only_alone_do_not_poll_together() {
    // An outer world as large as the host whose ranks wait while rank 0
    // runs a 2-rank world inside it: cores + 2 ranks are live, so the
    // inner world — which polls when it runs alone — must not.
    let laps: u64 = if cfg!(miri) { 4 } else { 2_000 };
    for kind in KINDS {
        let inner = within(Duration::from_secs(300), move || {
            let outer = Universe::run_with_mailbox(cores(), kind, |c| {
                if c.rank() != 0 {
                    c.recv::<u64>(0, 9);
                    return None;
                }
                let inner = Universe::run_with_mailbox(2, kind, |c| {
                    let peer = 1 - c.rank();
                    for lap in 0..laps {
                        if c.rank() == 0 {
                            c.send(peer, 7, vec![lap]);
                        }
                        assert_eq!(c.recv::<u64>(peer, 7), [lap]);
                        if c.rank() == 1 {
                            c.send(peer, 7, vec![lap]);
                        }
                    }
                });
                for waiting in 1..c.size() {
                    c.send(waiting, 9, vec![0u64]);
                }
                Some(inner.stats.total())
            });
            outer.results[0].expect("rank 0 ran the inner world")
        });
        assert_eq!(inner.recvs, 2 * laps);
        assert_eq!(inner.recvs_spun, 0, "{kind:?}: {inner:?}");
        assert!(0 < inner.recvs_parked && inner.recvs_parked <= inner.recvs);
    }
}
