//! Exhaustive DPOR certification of the lock-free SPSC mailbox.
//!
//! Build and run with `RUSTFLAGS="--cfg loom" cargo test -p bwb-shmpi
//! --test loom_spsc` (the CI `model-check` job does exactly this). Unlike
//! the randomized predecessor, the vendored loom explorer enumerates
//! *every* schedule of these models (persistent + sleep sets, no
//! preemption bound here) and reports the explored-schedule count — the
//! proof the `MailboxKind::Spsc` transport is gated on.
//!
//! Certified properties:
//! 1. The 2-thread `SpscRing` producer/consumer protocol: every value is
//!    received exactly once, in FIFO order, under all interleavings —
//!    including ring wraparound and full-ring backpressure.
//! 2. The whole `SpscMailbox` deliver/take path (rings + stash + wake
//!    flag): tag-ordered takes see per-(source, tag) FIFO order.
//! 3. A *planted* protocol bug — publishing the producer cursor before
//!    writing the slot — is caught with a replayable failing schedule,
//!    and `loom::replay` reproduces it deterministically.
#![cfg(loom)]

use bwb_shmpi::{Envelope, Pattern, SpscMailbox, SpscRing};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use loom::thread;

/// Exhaustive budget: no preemption bound, generous schedule cap. The
/// models below are small enough to complete (counts are asserted).
fn exhaustive() -> loom::Builder {
    loom::Builder {
        max_schedules: 500_000,
        max_steps: 50_000,
        max_preemptions: None,
        exhaustive: false,
    }
}

#[test]
fn spsc_ring_two_thread_fifo_exhaustive() {
    let stats = exhaustive().model(|| {
        // Capacity 2 with 3 values forces a wraparound and a full-ring
        // backpressure branch inside the explored state space.
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::with_capacity(2));
        let producer = ring.clone();
        let h = thread::spawn(move || {
            for i in 0..3u64 {
                let mut v = i;
                while let Err(back) = producer.push(v) {
                    v = back;
                    thread::yield_now();
                }
            }
        });
        let mut next = 0u64;
        while next < 3 {
            match ring.pop() {
                Some(v) => {
                    assert_eq!(v, next, "FIFO violated");
                    next += 1;
                }
                None => thread::yield_now(),
            }
        }
        assert!(ring.pop().is_none());
        h.join().unwrap();
    });
    assert!(
        stats.complete,
        "exploration must be exhaustive, not budget-clipped: {stats:?}"
    );
    assert!(stats.schedules >= 2, "{stats:?}");
    // Surface the count in `--nocapture` runs / CI logs (EXPERIMENTS.md
    // records the value).
    println!(
        "spsc_ring 2-thread model: {} schedules, {} scheduling points, exhaustive",
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
fn spsc_mailbox_deliver_take_fifo_exhaustive() {
    let stats = exhaustive().model(|| {
        // One source, two tags interleaved: exercises ring -> stash
        // migration and the parked-flag handshake (modeled as spin).
        let mb = Arc::new(SpscMailbox::with_ring_capacity(2, 2));
        let sender = {
            let mb = mb.clone();
            thread::spawn(move || {
                mb.deliver(env(1, 7, 10));
                mb.deliver(env(1, 9, 20));
                mb.deliver(env(1, 7, 11));
            })
        };
        let a = mb.take_blocking(Pattern { source: 1, tag: 9 }).env;
        assert_eq!(val(&a), 20);
        let b = mb.take_blocking(Pattern { source: 1, tag: 7 }).env;
        let c = mb.take_blocking(Pattern { source: 1, tag: 7 }).env;
        assert_eq!(val(&b), 10, "tag-7 FIFO violated");
        assert_eq!(val(&c), 11, "tag-7 FIFO violated");
        sender.join().unwrap();
        assert!(mb.is_empty());
    });
    assert!(stats.complete, "{stats:?}");
    println!(
        "spsc_mailbox deliver/take model: {} schedules, {} scheduling points, exhaustive",
        stats.schedules, stats.steps
    );
}

// ---------------------------------------------------------------------------
// Planted protocol bug: cursor published before the slot write.
// ---------------------------------------------------------------------------

/// A deliberately broken SPSC "ring" (capacity 1, value-level slots): the
/// producer publishes `tail` *before* storing the value — exactly the bug
/// the Release-after-write ordering in `SpscRing::push` exists to
/// prevent. Slots hold a sentinel rather than `MaybeUninit` so the bug
/// manifests as an assertion failure, not UB.
struct BadRing {
    slot: AtomicUsize,
    tail: AtomicUsize,
    head: AtomicUsize,
}

const POISON: usize = usize::MAX;

impl BadRing {
    fn new() -> Self {
        BadRing {
            slot: AtomicUsize::new(POISON),
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
        }
    }

    fn push(&self, v: usize) {
        // BUG: publish first, write second.
        let t = self.tail.load(Ordering::Relaxed);
        self.tail.store(t + 1, Ordering::Release);
        self.slot.store(v, Ordering::Release);
    }

    fn pop(&self) -> Option<usize> {
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire);
        if h == t {
            return None;
        }
        let v = self.slot.load(Ordering::Acquire);
        self.head.store(h + 1, Ordering::Release);
        Some(v)
    }
}

fn bad_ring_model() {
    let ring = Arc::new(BadRing::new());
    let producer = ring.clone();
    let h = thread::spawn(move || producer.push(42));
    loop {
        if let Some(v) = ring.pop() {
            assert_ne!(v, POISON, "consumer observed the slot before its write");
            assert_eq!(v, 42);
            break;
        }
        thread::yield_now();
    }
    h.join().unwrap();
}

#[test]
fn planted_early_publish_caught_with_replayable_trace() {
    let failure = exhaustive()
        .explore(bad_ring_model)
        .expect_err("DPOR must find the early-publish window");
    assert!(
        failure.message.contains("before its write"),
        "failure is the planted assertion: {failure}"
    );
    assert!(
        !failure.schedule.is_empty(),
        "failing trace must be replayable"
    );
    println!(
        "planted bug caught after {} schedules; failing trace: {:?}",
        failure.stats.schedules, failure.schedule
    );
    // And the trace really does reproduce the bug, deterministically.
    let replayed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        loom::replay(&failure.schedule, bad_ring_model);
    }));
    assert!(replayed.is_err(), "replay must reproduce the failure");
}
