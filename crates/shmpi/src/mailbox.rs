//! Per-rank mailboxes: the transport under point-to-point messaging.
//!
//! Two interchangeable transports sit behind the [`Mailbox`] dispatch
//! enum, selected per-world by [`MailboxKind`]:
//!
//! * [`LockedMailbox`] (default) — one queue guarded by a `parking_lot`
//!   mutex + condvar. Senders push [`Envelope`]s (eager/buffered
//!   semantics — a send never blocks); the receiver scans for the first
//!   envelope matching `(source, tag)` and waits on the condvar when
//!   none is present. The queue counts its waiters under the same lock,
//!   so a delivery nobody waits for skips the `notify_all` system call.
//! * [`SpscMailbox`] (`Universe::run_with_mailbox` /
//!   `Universe::run_pinned`) — one lock-free single-producer /
//!   single-consumer ring per source rank plus a receiver-owned stash
//!   for envelopes popped out of tag order. The hot deliver/take path is
//!   wait-free except when a ring is full (sender spin-yields) or the
//!   mailbox is empty (receiver parks via a Dekker-style flag +
//!   `thread::park`). The ring protocol is certified by bounded
//!   exhaustive DPOR exploration in `tests/loom_spsc.rs` and the whole
//!   mailbox by the bit-identity tests in `dslcheck`.
//!
//! Both transports preserve FIFO order per (source, tag) pair, as MPI
//! requires ("non-overtaking" rule): within one source the stash is
//! always older than the ring, and both are scanned in arrival order.
//!
//! # Spin, then park
//!
//! A receive that finds nothing to take polls for [`SPIN_BUDGET`] before
//! it enters the park protocol (condvar wait / `thread::park`), because a
//! wake-up through the kernel costs two orders of magnitude more than the
//! cache-line transfer that carries the message. It polls something the
//! sender writes anyway and no lock guards — the locked transport's
//! arrival counter, the ring cursors — so a send to a polling receiver
//! makes no system call on either transport. The park protocol is
//! unchanged and is the only place an empty mailbox ends up; what a take
//! went through comes back as its [`Arrival`].
//!
//! A receive polls only while the ranks that are live fit the host: its
//! own world's size, and the sum over every world a [`crate::Universe`]
//! is running in this process right now (`LiveRanks`), are both at most
//! `available_parallelism()`. Past that a polling rank holds the core its
//! sender — or another world's rank — needs. Under `--cfg loom` the poll
//! is compiled out, so the model checker explores exactly the park/wake
//! handshake.

// Under `--cfg loom` the primitives come from the vendored loom DPOR
// model checker so the deliver/take_blocking protocols can be verified
// across *all* bounded interleavings (see crates/shmpi/tests/loom_mailbox.rs
// and tests/loom_spsc.rs).
#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
use parking_lot::{Condvar, Mutex};
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};

use std::any::Any;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::time::{Duration, Instant};

/// A buffered in-flight message.
pub struct Envelope {
    pub source: usize,
    pub tag: u32,
    /// The payload, type-erased (`Vec<T>` boxed as `Any`).
    pub data: Box<dyn Any + Send>,
    /// Payload size in bytes (recorded at send time for statistics).
    pub bytes: usize,
}

/// Match criteria for a receive: a receive always names its source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pattern {
    pub source: usize,
    pub tag: u32,
}

impl Pattern {
    fn matches(&self, e: &Envelope) -> bool {
        self.tag == e.tag && self.source == e.source
    }
}

/// What a blocking take went through before it held its envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// The envelope was already queued.
    Queued,
    /// The mailbox was empty and the envelope arrived while the receiver
    /// polled; no thread slept and no sender made a system call.
    Spun,
    /// The receiver entered the park protocol (counted itself a waiter /
    /// raised the wake flag), so the envelope cost a wake-up or raced one.
    Parked,
}

/// The result of [`Mailbox::take_blocking`].
pub struct Taken {
    pub env: Envelope,
    /// Wall-clock time from entering the take to holding the envelope,
    /// polling included.
    pub waited: Duration,
    pub arrival: Arrival,
}

impl Taken {
    fn new(env: Envelope, start: Instant, arrival: Arrival) -> Taken {
        Taken {
            env,
            waited: start.elapsed(),
            arrival,
        }
    }
}

/// How long a receive polls an empty mailbox before it parks: one round
/// trip through the park path, the break-even of the classic rule (poll
/// for as long as sleeping would cost, and the total is at most twice the
/// best choice made with hindsight). A 2-rank ping-pong whose receives
/// park costs 43 µs per round trip on the reference VM — two wake-ups of
/// ~20 µs, each with a futex call on the sender — beside a 0.13 µs
/// core-to-core line transfer (EXPERIMENTS.md, "Message latency"). A
/// constant, not a setting: a host whose wake-up costs 5 µs polls longer
/// than it must, never wrongly.
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Ranks of all the worlds running in this process.
static LIVE_RANKS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// A running world's entry in the process-wide count of live ranks, for
/// as long as it is held.
pub(crate) struct LiveRanks(usize);

impl LiveRanks {
    pub(crate) fn enter(world_size: usize) -> LiveRanks {
        LIVE_RANKS.fetch_add(world_size, Ordering::Relaxed);
        LiveRanks(world_size)
    }
}

impl Drop for LiveRanks {
    fn drop(&mut self) {
        LIVE_RANKS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

/// Whether a receive in a `world_size`-rank world polls before it parks;
/// asked per receive, because other worlds come and go.
fn fits_host(world_size: usize) -> bool {
    // Asked once per process: the answer reads the affinity mask and the
    // cgroup quota (~20 µs).
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cores = CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // A mailbox used outside any `Universe` has only its own size to go by.
    world_size.max(LIVE_RANKS.load(Ordering::Relaxed)) <= *cores
}

/// Poll `arrived` until it holds or [`SPIN_BUDGET`] (counted from `start`)
/// runs out; returns whether it held.
fn spin_until(start: Instant, arrived: impl Fn() -> bool) -> bool {
    while start.elapsed() < SPIN_BUDGET {
        if arrived() {
            return true;
        }
        std::hint::spin_loop();
    }
    false
}

// ---------------------------------------------------------------------------
// Locked transport (default)
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Queue {
    envelopes: VecDeque<Envelope>,
    /// Receivers inside `Condvar::wait`. Kept under the queue's lock, so
    /// a sender reads it in the same critical section as its push: it
    /// cannot read 0 while a receiver is between its scan and its wait.
    waiters: usize,
}

impl Queue {
    fn take(&mut self, pat: Pattern) -> Option<Envelope> {
        let idx = self.envelopes.iter().position(|e| pat.matches(e))?;
        self.envelopes.remove(idx)
    }
}

/// One rank's incoming-message buffer, mutex+condvar transport.
pub struct LockedMailbox {
    queue: Mutex<Queue>,
    available: Condvar,
    /// Deliveries so far: what a polling receiver watches in place of the
    /// mutex. Bumped after the push is unlocked, so the receiver's
    /// re-lock does not collide with the sender's unlock.
    arrivals: std::sync::atomic::AtomicUsize,
    world_size: usize,
}

impl LockedMailbox {
    /// A mailbox for one rank of a `world_size`-rank world.
    pub fn new(world_size: usize) -> Self {
        LockedMailbox {
            queue: Mutex::new(Queue::default()),
            available: Condvar::new(),
            arrivals: std::sync::atomic::AtomicUsize::new(0),
            world_size,
        }
    }

    /// Deliver an envelope (called by the *sender*). Never blocks.
    pub fn deliver(&self, env: Envelope) {
        {
            let mut q = self.queue.lock();
            q.envelopes.push_back(env);
            if q.waiters > 0 {
                self.available.notify_all();
            }
        }
        self.arrivals.fetch_add(1, Ordering::Release);
    }

    /// Take the first matching envelope, blocking until one arrives.
    pub fn take_blocking(&self, pat: Pattern) -> Taken {
        let start = Instant::now();
        let mut arrival = Arrival::Queued;
        let mut q = self.queue.lock();
        if cfg!(not(loom)) && fits_host(self.world_size) {
            loop {
                if let Some(env) = q.take(pat) {
                    return Taken::new(env, start, arrival);
                }
                arrival = Arrival::Spun;
                // Read under the lock: every delivery this scan missed
                // bumps the counter past `seen`.
                let seen = self.arrivals.load(Ordering::Relaxed);
                drop(q);
                let moved = spin_until(start, || self.arrivals.load(Ordering::Acquire) != seen);
                q = self.queue.lock();
                if !moved {
                    break;
                }
            }
        }
        loop {
            if let Some(env) = q.take(pat) {
                return Taken::new(env, start, arrival);
            }
            arrival = Arrival::Parked;
            q.waiters += 1;
            self.available.wait(&mut q);
            q.waiters -= 1;
        }
    }

    /// Number of queued envelopes (diagnostics).
    pub fn len(&self) -> usize {
        self.queue.lock().envelopes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Lock-free SPSC ring transport
// ---------------------------------------------------------------------------

/// Under loom the slot cell is the modeled `UnsafeCell` (every access is
/// a scheduling point with read/write conflict tracking); natively it is
/// a thin wrapper over `std::cell::UnsafeCell` with the same closure API
/// so the ring code is written once.
#[cfg(loom)]
use loom::cell::UnsafeCell as SlotCell;

#[cfg(not(loom))]
struct SlotCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> SlotCell<T> {
    fn new(v: T) -> Self {
        SlotCell(std::cell::UnsafeCell::new(v))
    }
    fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }
    fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

/// Pads (and aligns) the producer and consumer cursors to separate cache
/// lines so the SPSC hot path does not false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

/// A bounded lock-free single-producer / single-consumer ring.
///
/// Contract (callers must uphold; the type cannot enforce it statically):
/// at most one thread calls [`SpscRing::push`] and at most one (other)
/// thread calls [`SpscRing::pop`], concurrently. In shmpi, ring `s` of
/// rank `r`'s mailbox is written only by rank `s`'s thread and read only
/// by rank `r`'s thread, which is exactly this shape.
///
/// Cursors are monotonically increasing (wrapping) counters; the slot
/// index is `cursor & mask`. `tail` is published with `Release` after
/// the slot write and read with `Acquire` before the slot read, so the
/// consumer never observes a slot before its contents. Certified for all
/// bounded interleavings by `tests/loom_spsc.rs`.
pub struct SpscRing<T> {
    slots: Box<[SlotCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Consumer cursor: next position to pop. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Producer cursor: next position to push. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
}

// SAFETY: the ring moves `T` values between exactly one producer and one
// consumer thread (see the type-level contract above); a slot is accessed
// by the producer only while `head <= pos < tail+1` is unpublished and by
// the consumer only after the `Release`-published `tail` covers it, so no
// slot is ever accessed concurrently. `T: Send` makes the move itself safe.
unsafe impl<T: Send> Send for SpscRing<T> {}
// SAFETY: as above — shared references only permit the disjoint
// producer/consumer protocols, never concurrent access to one slot.
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// `capacity` is rounded up to a power of two, minimum 2.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        SpscRing {
            slots: (0..cap)
                .map(|_| SlotCell::new(MaybeUninit::uninit()))
                .collect(),
            mask: cap - 1,
            head: CachePadded(AtomicUsize::new(0)),
            tail: CachePadded(AtomicUsize::new(0)),
        }
    }

    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Producer side: append `value`, or hand it back if the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        // Producer owns `tail`; a relaxed load reads its own last store.
        let tail = self.tail.0.load(Ordering::Relaxed);
        let head = self.head.0.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.capacity() {
            return Err(value);
        }
        self.slots[tail & self.mask].with_mut(|slot| {
            // SAFETY: position `tail` is not yet published (consumer stops
            // at the current `tail`), and the `Acquire` on `head` proves
            // the consumer has vacated this slot from the previous lap, so
            // the producer holds the only reference to it.
            unsafe { (*slot).write(value) };
        });
        // Publish: everything written to the slot happens-before a
        // consumer that Acquire-loads this tail value.
        self.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: take the oldest value, if any.
    pub fn pop(&self) -> Option<T> {
        // Consumer owns `head`; a relaxed load reads its own last store.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let value = self.slots[head & self.mask].with(|slot| {
            // SAFETY: `head < tail` with `tail` Acquire-loaded, so the
            // producer's slot write at this position happens-before this
            // read; the producer will not touch the slot again until the
            // consumer publishes `head+1` below, and `assume_init_read`
            // moves the value out exactly once (the cursor advances
            // unconditionally right after).
            unsafe { (*slot).assume_init_read() }
        });
        // Release: the producer's Acquire of `head` proves the slot has
        // been vacated before it reuses it on the next lap.
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Queued element count (exact only from the producer or consumer
    /// thread; a snapshot elsewhere).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        // Drain undelivered values so their destructors run; `&mut self`
        // means no concurrent producer/consumer exists any more.
        while self.pop().is_some() {}
    }
}

/// Per-source ring capacity (envelopes). Small is fine: a full ring only
/// spin-yields the sender, and halo exchanges post a handful of messages
/// per neighbor.
const RING_CAP: usize = 16;

/// Lock-free mailbox: one [`SpscRing`] per source rank plus a
/// receiver-owned stash for envelopes popped while scanning for a
/// different `(source, tag)`.
///
/// The stash mutex is uncontended by construction — only the single
/// receiver thread (and teardown diagnostics after all ranks joined)
/// ever locks it — so the deliver path stays lock-free and the take
/// path pays one uncontended lock acquisition.
pub struct SpscMailbox {
    rings: Box<[SpscRing<Envelope>]>,
    stash: Mutex<VecDeque<Envelope>>,
    /// Dekker-style wake flag: set by the receiver before re-checking
    /// the rings and parking; cleared (swap) by a sender that will
    /// unpark. `SeqCst` on both sides — see `take_blocking`.
    parked: AtomicBool,
    #[cfg(not(loom))]
    receiver: std::sync::OnceLock<std::thread::Thread>,
}

impl SpscMailbox {
    /// A mailbox able to receive from `world_size` source ranks.
    pub fn new(world_size: usize) -> Self {
        Self::with_ring_capacity(world_size, RING_CAP)
    }

    pub fn with_ring_capacity(world_size: usize, ring_cap: usize) -> Self {
        SpscMailbox {
            rings: (0..world_size.max(1))
                .map(|_| SpscRing::with_capacity(ring_cap))
                .collect(),
            stash: Mutex::new(VecDeque::new()),
            parked: AtomicBool::new(false),
            #[cfg(not(loom))]
            receiver: std::sync::OnceLock::new(),
        }
    }

    fn backoff() {
        #[cfg(loom)]
        loom::thread::yield_now();
        #[cfg(not(loom))]
        std::thread::yield_now();
    }

    /// Deliver an envelope (called by the *sender*). Lock-free; only
    /// spin-yields while this source's ring is full (bounded-buffer
    /// backpressure — eager-send semantics still hold because the
    /// receiver drains rings into the unbounded stash on every take).
    pub fn deliver(&self, env: Envelope) {
        debug_assert!(env.source < self.rings.len(), "source rank out of range");
        let ring = &self.rings[env.source];
        let mut env = env;
        loop {
            match ring.push(env) {
                Ok(()) => break,
                Err(back) => {
                    env = back;
                    Self::backoff();
                }
            }
        }
        self.wake_receiver();
    }

    fn wake_receiver(&self) {
        // Pairs with the store(true) + re-check in `take_blocking`: the
        // fence orders our ring publish before the flag read, so either
        // we observe `parked` and unpark, or the receiver's re-check
        // (after its own SeqCst store) observes our publish.
        fence(Ordering::SeqCst);
        if self.parked.swap(false, Ordering::SeqCst) {
            #[cfg(not(loom))]
            if let Some(t) = self.receiver.get() {
                t.unpark();
            }
        }
    }

    /// Drain every source ring into the stash (in per-source FIFO
    /// order), then take the first stash entry matching `pat`. Receiver
    /// thread only.
    fn try_take(&self, pat: Pattern) -> Option<Envelope> {
        let mut stash = self.stash.lock();
        for ring in &self.rings {
            while let Some(env) = ring.pop() {
                stash.push_back(env);
            }
        }
        let idx = stash.iter().position(|e| pat.matches(e))?;
        stash.remove(idx)
    }

    /// Take the first matching envelope, blocking until one arrives.
    /// Receiver thread only (the single-receiver invariant the whole
    /// transport is built on).
    pub fn take_blocking(&self, pat: Pattern) -> Taken {
        let start = Instant::now();
        let mut arrival = Arrival::Queued;
        #[cfg(not(loom))]
        let _ = self.receiver.set(std::thread::current());
        if cfg!(not(loom)) && fits_host(self.rings.len()) {
            loop {
                if let Some(env) = self.try_take(pat) {
                    return Taken::new(env, start, arrival);
                }
                arrival = Arrival::Spun;
                // Watch the cursors, not the stash lock; an envelope the
                // pattern rejects moves to the stash and the poll goes on.
                if !spin_until(start, || self.rings.iter().any(|r| !r.is_empty())) {
                    break;
                }
            }
        }
        loop {
            if let Some(env) = self.try_take(pat) {
                return Taken::new(env, start, arrival);
            }
            arrival = Arrival::Parked;
            // Dekker handshake against `wake_receiver`: with SeqCst on
            // both flag accesses and the sender's fence, either the
            // sender's swap sees `true` (and unparks us, making the
            // park below return immediately via the pending token) or
            // this re-check sees the sender's ring publish.
            self.parked.store(true, Ordering::SeqCst);
            if let Some(env) = self.try_take(pat) {
                self.parked.store(false, Ordering::SeqCst);
                return Taken::new(env, start, arrival);
            }
            #[cfg(not(loom))]
            std::thread::park();
            #[cfg(loom)]
            Self::backoff();
            self.parked.store(false, Ordering::SeqCst);
        }
    }

    /// Number of queued envelopes (diagnostics; exact once all senders
    /// and the receiver have quiesced, e.g. at teardown).
    pub fn len(&self) -> usize {
        self.stash.lock().len() + self.rings.iter().map(SpscRing::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Which mailbox transport a world uses. Worlds default to
/// [`MailboxKind::Locked`]; opt in to the lock-free transport with
/// `Universe::run_with_mailbox` or `Universe::run_pinned`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MailboxKind {
    /// Mutex + condvar queue (default).
    #[default]
    Locked,
    /// Lock-free per-source SPSC rings + receiver stash.
    Spsc,
}

/// One rank's incoming-message buffer (transport-dispatching facade).
pub enum Mailbox {
    Locked(LockedMailbox),
    Spsc(SpscMailbox),
}

impl Mailbox {
    /// A mailbox of the given kind for a world of `world_size` ranks.
    pub fn with_kind(kind: MailboxKind, world_size: usize) -> Self {
        match kind {
            MailboxKind::Locked => Mailbox::Locked(LockedMailbox::new(world_size)),
            MailboxKind::Spsc => Mailbox::Spsc(SpscMailbox::new(world_size)),
        }
    }

    pub fn kind(&self) -> MailboxKind {
        match self {
            Mailbox::Locked(_) => MailboxKind::Locked,
            Mailbox::Spsc(_) => MailboxKind::Spsc,
        }
    }

    /// Deliver an envelope (called by the *sender*).
    pub fn deliver(&self, env: Envelope) {
        match self {
            Mailbox::Locked(m) => m.deliver(env),
            Mailbox::Spsc(m) => m.deliver(env),
        }
    }

    /// Take the first matching envelope, blocking until one arrives.
    pub fn take_blocking(&self, pat: Pattern) -> Taken {
        match self {
            Mailbox::Locked(m) => m.take_blocking(pat),
            Mailbox::Spsc(m) => m.take_blocking(pat),
        }
    }

    /// Number of queued envelopes (diagnostics).
    pub fn len(&self) -> usize {
        match self {
            Mailbox::Locked(m) => m.len(),
            Mailbox::Spsc(m) => m.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn env(source: usize, tag: u32, payload: Vec<u64>) -> Envelope {
        let bytes = payload.len() * 8;
        Envelope {
            source,
            tag,
            data: Box::new(payload),
            bytes,
        }
    }

    fn both_kinds() -> [Mailbox; 2] {
        [
            Mailbox::with_kind(MailboxKind::Locked, 8),
            Mailbox::with_kind(MailboxKind::Spsc, 8),
        ]
    }

    #[test]
    fn deliver_then_take() {
        for mb in both_kinds() {
            mb.deliver(env(1, 7, vec![42]));
            let e = mb.take_blocking(Pattern { source: 1, tag: 7 }).env;
            assert_eq!(e.source, 1);
            assert_eq!(e.bytes, 8);
            let v = e.data.downcast::<Vec<u64>>().unwrap();
            assert_eq!(*v, vec![42]);
        }
    }

    #[test]
    fn tag_matching_skips_non_matching() {
        for mb in both_kinds() {
            mb.deliver(env(0, 1, vec![1]));
            mb.deliver(env(0, 2, vec![2]));
            let e = mb.take_blocking(Pattern { source: 0, tag: 2 }).env;
            let v = e.data.downcast::<Vec<u64>>().unwrap();
            assert_eq!(*v, vec![2]);
            assert_eq!(mb.len(), 1);
        }
    }

    #[test]
    fn fifo_order_within_source_tag_pair() {
        for mb in both_kinds() {
            mb.deliver(env(3, 9, vec![1]));
            mb.deliver(env(3, 9, vec![2]));
            let a = mb.take_blocking(Pattern { source: 3, tag: 9 }).env;
            let b = mb.take_blocking(Pattern { source: 3, tag: 9 }).env;
            assert_eq!(*a.data.downcast::<Vec<u64>>().unwrap(), vec![1]);
            assert_eq!(*b.data.downcast::<Vec<u64>>().unwrap(), vec![2]);
        }
    }

    #[test]
    fn try_take_returns_none_when_empty() {
        let spsc = SpscMailbox::new(8);
        assert!(spsc.try_take(Pattern { source: 0, tag: 0 }).is_none());
        for mb in both_kinds() {
            assert!(mb.is_empty());
        }
    }

    #[test]
    fn blocking_take_wakes_on_delivery() {
        for mb in both_kinds() {
            let mb = Arc::new(mb);
            let mb2 = mb.clone();
            let h = std::thread::spawn(move || {
                let t = mb2.take_blocking(Pattern { source: 0, tag: 0 });
                (t.env.bytes, t.waited, t.arrival)
            });
            std::thread::sleep(Duration::from_millis(20));
            mb.deliver(env(0, 0, vec![1, 2, 3]));
            let (bytes, waited, arrival) = h.join().unwrap();
            assert_eq!(bytes, 24);
            assert!(waited >= Duration::from_millis(5), "blocked time recorded");
            assert_eq!(arrival, Arrival::Parked, "20 ms outlasts any poll");
        }
    }

    #[test]
    fn spsc_ring_fifo_and_full() {
        let ring: SpscRing<u64> = SpscRing::with_capacity(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            assert!(ring.push(i).is_ok());
        }
        assert_eq!(ring.push(99), Err(99), "full ring hands the value back");
        assert_eq!(ring.len(), 4);
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_ring_wraps_many_laps() {
        let ring: SpscRing<usize> = SpscRing::with_capacity(2);
        for lap in 0..1000 {
            assert!(ring.push(lap).is_ok());
            assert_eq!(ring.pop(), Some(lap));
        }
    }

    #[test]
    fn spsc_ring_drop_releases_queued_values() {
        let marker = Arc::new(());
        {
            let ring: SpscRing<Arc<()>> = SpscRing::with_capacity(8);
            ring.push(marker.clone()).unwrap();
            ring.push(marker.clone()).unwrap();
            assert_eq!(Arc::strong_count(&marker), 3);
        }
        assert_eq!(Arc::strong_count(&marker), 1, "drop drains the ring");
    }

    #[test]
    fn spsc_ring_cross_thread_stream() {
        let ring: Arc<SpscRing<u64>> = Arc::new(SpscRing::with_capacity(4));
        let producer = ring.clone();
        let n: u64 = if cfg!(miri) { 64 } else { 4096 };
        let h = std::thread::spawn(move || {
            for i in 0..n {
                let mut v = i;
                while let Err(back) = producer.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut next = 0u64;
        while next < n {
            match ring.pop() {
                Some(v) => {
                    assert_eq!(v, next, "FIFO order");
                    next += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        h.join().unwrap();
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_backpressure_on_tiny_ring() {
        // Ring of 2, six messages: senders must spin on full and nothing
        // may be lost or reordered.
        let mb = Arc::new(Mailbox::Spsc(SpscMailbox::with_ring_capacity(2, 2)));
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || {
            for i in 0..6u64 {
                mb2.deliver(env(1, 5, vec![i]));
            }
        });
        for i in 0..6u64 {
            let e = mb.take_blocking(Pattern { source: 1, tag: 5 }).env;
            assert_eq!(*e.data.downcast::<Vec<u64>>().unwrap(), vec![i]);
        }
        h.join().unwrap();
        assert!(mb.is_empty());
    }

    #[test]
    fn spsc_stash_preserves_per_source_fifo_across_tags() {
        // Envelope with a not-yet-wanted tag gets stashed; the later
        // matching take must still return same-tag envelopes in order.
        let mb = Mailbox::with_kind(MailboxKind::Spsc, 4);
        mb.deliver(env(2, 8, vec![1]));
        mb.deliver(env(2, 9, vec![2]));
        mb.deliver(env(2, 8, vec![3]));
        let a = mb.take_blocking(Pattern { source: 2, tag: 9 }).env;
        assert_eq!(*a.data.downcast::<Vec<u64>>().unwrap(), vec![2]);
        let b = mb.take_blocking(Pattern { source: 2, tag: 8 }).env;
        let c = mb.take_blocking(Pattern { source: 2, tag: 8 }).env;
        assert_eq!(*b.data.downcast::<Vec<u64>>().unwrap(), vec![1]);
        assert_eq!(*c.data.downcast::<Vec<u64>>().unwrap(), vec![3]);
        assert!(mb.is_empty());
    }

    #[test]
    fn mailbox_kind_defaults_locked() {
        assert_eq!(MailboxKind::default(), MailboxKind::Locked);
        assert_eq!(
            Mailbox::with_kind(MailboxKind::default(), 4).kind(),
            MailboxKind::Locked
        );
        assert_eq!(
            Mailbox::with_kind(MailboxKind::Spsc, 4).kind(),
            MailboxKind::Spsc
        );
    }
}
