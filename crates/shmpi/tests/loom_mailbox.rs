//! Model-check the Mailbox mutex+condvar protocol under `--cfg loom`.
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test -p bwb-shmpi
//! --test loom_mailbox` (the CI `model-check` job does exactly this). The
//! vendored loom stand-in performs bounded exhaustive exploration with
//! DPOR (`LOOM_MAX_SCHEDULES` / `LOOM_MAX_PREEMPTIONS` budgets), pinning
//! the transport invariants the receivers rely on for *every* explored
//! interleaving:
//!
//! 1. FIFO non-overtaking: two envelopes from one (source, tag) pair are
//!    received in delivery order under every interleaving.
//! 2. A blocked `take_blocking` always wakes for a matching delivery
//!    (no lost wakeup) — also when `deliver` skips `notify_all` because
//!    the queue counts no waiter: a sender cannot read "no waiter" while
//!    the receiver is between its scan and its wait, because count, scan
//!    and push share one lock. The planted variant that reads the count
//!    before taking the lock is caught as a deadlock.
//!
//! The poll in front of the park protocol is compiled out under
//! `--cfg loom`, so what is explored is the park/wake handshake alone.
//! Every model must finish exhaustively (no preemption bound, no budget
//! clip) and prints its explored-schedule count.
#![cfg(loom)]

use bwb_shmpi::{Arrival, Envelope, Mailbox, MailboxKind, Pattern};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::collections::VecDeque;

fn exhaustive() -> loom::Builder {
    loom::Builder {
        max_schedules: 500_000,
        max_steps: 50_000,
        max_preemptions: None,
        exhaustive: false,
    }
}

/// Explore every schedule of `f` and print how many there were.
fn certify<F: Fn() + Sync + Send + 'static>(name: &str, f: F) {
    let stats = exhaustive().model(f);
    assert!(
        stats.complete && !stats.preemption_bounded,
        "{name}: exploration must be exhaustive, not clipped: {stats:?}"
    );
    println!(
        "{name}: {} schedules, {} scheduling points, exhaustive",
        stats.schedules, stats.steps
    );
}

fn env(source: usize, tag: u32, val: u64) -> Envelope {
    Envelope {
        source,
        tag,
        data: Box::new(vec![val]),
        bytes: 8,
    }
}

fn val(e: &Envelope) -> u64 {
    e.data.downcast_ref::<Vec<u64>>().expect("u64 payload")[0]
}

#[test]
fn fifo_non_overtaking_under_all_interleavings() {
    certify("locked fifo, one source", || {
        let mb = Arc::new(Mailbox::with_kind(MailboxKind::Locked, 2));
        let sender = {
            let mb = mb.clone();
            thread::spawn(move || {
                mb.deliver(env(0, 7, 1));
                mb.deliver(env(0, 7, 2));
            })
        };
        let receiver = {
            let mb = mb.clone();
            thread::spawn(move || {
                let pat = Pattern { source: 0, tag: 7 };
                let a = mb.take_blocking(pat).env;
                let b = mb.take_blocking(pat).env;
                (val(&a), val(&b))
            })
        };
        sender.join().unwrap();
        let (a, b) = receiver.join().unwrap();
        assert_eq!((a, b), (1, 2), "per-(source,tag) FIFO order violated");
    });
}

#[test]
fn fifo_holds_across_interleaved_sources() {
    certify("locked fifo, two sources", || {
        let mb = Arc::new(Mailbox::with_kind(MailboxKind::Locked, 2));
        let s0 = {
            let mb = mb.clone();
            thread::spawn(move || {
                mb.deliver(env(0, 3, 10));
                mb.deliver(env(0, 3, 11));
            })
        };
        let s1 = {
            let mb = mb.clone();
            thread::spawn(move || {
                mb.deliver(env(1, 3, 20));
                mb.deliver(env(1, 3, 21));
            })
        };
        let receiver = {
            let mb = mb.clone();
            thread::spawn(move || {
                let from = |src| Pattern {
                    source: src,
                    tag: 3,
                };
                // Interleave the sources; each (source, tag) stream must
                // independently preserve order regardless of how the two
                // sender threads raced.
                let a0 = val(&mb.take_blocking(from(0)).env);
                let a1 = val(&mb.take_blocking(from(1)).env);
                let b0 = val(&mb.take_blocking(from(0)).env);
                let b1 = val(&mb.take_blocking(from(1)).env);
                ((a0, b0), (a1, b1))
            })
        };
        s0.join().unwrap();
        s1.join().unwrap();
        let (src0, src1) = receiver.join().unwrap();
        assert_eq!(src0, (10, 11), "source 0 stream reordered");
        assert_eq!(src1, (20, 21), "source 1 stream reordered");
    });
}

#[test]
fn blocked_receiver_always_wakes() {
    certify("locked blocked receiver", || {
        let mb = Arc::new(Mailbox::with_kind(MailboxKind::Locked, 2));
        let receiver = {
            let mb = mb.clone();
            thread::spawn(move || {
                let e = mb.take_blocking(Pattern { source: 2, tag: 9 }).env;
                val(&e)
            })
        };
        let sender = {
            let mb = mb.clone();
            thread::spawn(move || mb.deliver(env(2, 9, 42)))
        };
        sender.join().unwrap();
        assert_eq!(receiver.join().unwrap(), 42, "delivery wakeup lost");
    });
}

#[test]
fn notify_skip_never_loses_a_wakeup() {
    certify("locked waiter-count notify skip", || {
        // Two senders, one of them with a tag nobody asked for yet: in
        // some schedules the receiver waits, is woken for nothing, counts
        // itself out and in again; in others a delivery finds no waiter
        // and skips the notify. The receiver must come back in all of
        // them, and a take that waited must say so.
        let mb = Arc::new(Mailbox::with_kind(MailboxKind::Locked, 2));
        let receiver = {
            let mb = mb.clone();
            thread::spawn(move || {
                let wanted = mb.take_blocking(Pattern { source: 1, tag: 9 });
                let other = mb.take_blocking(Pattern { source: 0, tag: 8 });
                for t in [&wanted, &other] {
                    assert_ne!(t.arrival, Arrival::Spun, "nothing polls under loom");
                }
                (val(&wanted.env), val(&other.env))
            })
        };
        let s0 = {
            let mb = mb.clone();
            thread::spawn(move || mb.deliver(env(0, 8, 1)))
        };
        let s1 = {
            let mb = mb.clone();
            thread::spawn(move || mb.deliver(env(1, 9, 42)))
        };
        s0.join().unwrap();
        s1.join().unwrap();
        assert_eq!(receiver.join().unwrap(), (42, 1), "delivery wakeup lost");
    });
}

// ---------------------------------------------------------------------------
// Planted protocol bug: waiter count read outside the push's critical section.
// ---------------------------------------------------------------------------

/// `LockedMailbox`'s wait/notify protocol with one change: the sender
/// reads the waiter count *before* it takes the lock. The receiver can
/// then scan, count itself and wait between that read and the push, and
/// the sender skips the notify that receiver needs.
struct LeakyMailbox {
    queue: Mutex<VecDeque<u64>>,
    available: Condvar,
    waiters: AtomicUsize,
}

impl LeakyMailbox {
    fn deliver(&self, v: u64) {
        // BUG: decided outside the lock that orders push against scan.
        let waiting = self.waiters.load(Ordering::SeqCst) > 0;
        self.queue.lock().push_back(v);
        if waiting {
            self.available.notify_all();
        }
    }

    fn take_blocking(&self) -> u64 {
        let mut q = self.queue.lock();
        loop {
            if let Some(v) = q.pop_front() {
                return v;
            }
            // One receiver, so the count is 0 or 1.
            self.waiters.store(1, Ordering::SeqCst);
            self.available.wait(&mut q);
            self.waiters.store(0, Ordering::SeqCst);
        }
    }
}

#[test]
fn planted_unlocked_waiter_read_caught_as_lost_wakeup() {
    let failure = exhaustive()
        .explore(|| {
            let mb = Arc::new(LeakyMailbox {
                queue: Mutex::new(VecDeque::new()),
                available: Condvar::new(),
                waiters: AtomicUsize::new(0),
            });
            let sender = {
                let mb = mb.clone();
                thread::spawn(move || mb.deliver(42))
            };
            assert_eq!(mb.take_blocking(), 42);
            sender.join().unwrap();
        })
        .expect_err("DPOR must find the read-then-wait window");
    assert!(
        failure.message.contains("deadlock"),
        "failure is the lost wake-up: {failure}"
    );
    println!(
        "planted notify skip caught after {} schedules; failing trace: {:?}",
        failure.stats.schedules, failure.schedule
    );
}
