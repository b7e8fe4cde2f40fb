//! The recording half of the tracer: a global on/off toggle, per-thread
//! lock-free ring buffers of fixed-size [`Event`]s, and the span/counter
//! emission API the instrumented crates call.
//!
//! # Zero cost when disabled
//!
//! Every emission entry point starts with [`enabled`] — one relaxed atomic
//! load when the `runtime` feature is on, and a compile-time `false` (the
//! whole call folds away) when it is off. No buffer is allocated, no name
//! interned, and no timestamp taken unless tracing is actually on, so
//! untraced runs pay a branch on a never-written cache line and nothing
//! else. This mirrors the `recording_active()` pattern of the dslcheck
//! recorder in `ops::access`, but — unlike checked execution — tracing does
//! *not* force serial execution: every thread (rank threads and rayon pool
//! workers alike) records into its own buffer.
//!
//! # The ring buffers
//!
//! Each recording thread owns one [`RingBuf`]: a preallocated slot array
//! plus a monotonically increasing published length. The owning thread is
//! the only writer; it stores the event into slot `len` and then publishes
//! `len + 1` with `Release` ordering, so any thread that reads the length
//! with `Acquire` sees fully written events in `[0, len)`. Recording
//! therefore takes no lock and issues no read-modify-write — a plain store
//! and an ordered store. When a buffer fills, further events are counted in
//! `dropped` and discarded (saturation keeps span pairing well-formed for
//! everything already recorded, unlike wrap-around overwriting).
//!
//! # Harvesting
//!
//! [`take`] snapshots every registered buffer into a [`Trace`] and resets
//! them. It must be called at quiescence — tracing disabled and no
//! instrumented operation in flight — which every caller in this workspace
//! satisfies by harvesting after `Universe::run` returns and parallel loops
//! have joined.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread buffer capacity in events (~3 MB per thread).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Category of a span, counter, or instant event. Determines how exporters
/// label the event and interpret its [`Event::args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cat {
    /// A parallel-loop body (`args` on End: `[bytes, flops, points]`).
    Loop,
    /// Halo pack/exchange/unpack (`args` on End: `[dim, depth, bytes]`).
    Halo,
    /// MPI wait/barrier spans and send instants
    /// (`args`: `[peer, bytes, tag]`; peer/tag are `-1` when not meaningful).
    Mpi,
    /// Tiled-execution phases (`args` on End: `[tile, j0, j1]`).
    Tile,
    /// Colour-round execution (`args` on End: `[color, elements, 0]`).
    Color,
    /// Application-level phases (`args` on End: `[iteration, 0, 0]`).
    App,
    /// Anything else (counters default here).
    Other,
}

impl Cat {
    /// Short lowercase label (Chrome's `cat` field, timeline letters).
    pub fn label(self) -> &'static str {
        match self {
            Cat::Loop => "loop",
            Cat::Halo => "halo",
            Cat::Mpi => "mpi",
            Cat::Tile => "tile",
            Cat::Color => "color",
            Cat::App => "app",
            Cat::Other => "other",
        }
    }
}

/// Event kind: spans are Begin/End pairs; counters and instants stand alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Begin,
    End,
    Counter,
    Instant,
}

/// One timestamped trace event. `name` indexes [`Trace::names`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (first enablement).
    pub ts_ns: u64,
    /// Interned name id.
    pub name: u32,
    pub cat: Cat,
    pub kind: Kind,
    /// Category-specific payload (see [`Cat`]); counters use `args[0]`.
    pub args: [f64; 3],
}

impl Event {
    const ZERO: Event = Event {
        ts_ns: 0,
        name: 0,
        cat: Cat::Other,
        kind: Kind::Instant,
        args: [0.0; 3],
    };
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<RingBuf>>> = Mutex::new(Vec::new());
static INTERNER: Mutex<Interner> = Mutex::new(Interner::new());

struct Interner {
    ids: BTreeMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    const fn new() -> Self {
        Interner {
            ids: BTreeMap::new(),
            names: Vec::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }
}

/// Is tracing globally enabled? One relaxed load; `const false` without the
/// `runtime` feature, letting the optimizer delete every call site.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "runtime")]
    {
        ENABLED.load(Ordering::Relaxed)
    }
    #[cfg(not(feature = "runtime"))]
    {
        false
    }
}

/// Turn tracing on or off (no-op without the `runtime` feature). Enabling
/// pins the trace epoch on first use.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "runtime")]
    {
        if on {
            EPOCH.get_or_init(Instant::now);
        }
        ENABLED.store(on, Ordering::SeqCst);
    }
    #[cfg(not(feature = "runtime"))]
    let _ = on;
}

/// Set the per-thread buffer capacity (events) used for buffers created
/// *after* this call. Existing buffers keep their capacity.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(16), Ordering::SeqCst);
}

#[inline]
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Per-thread ring buffers
// ---------------------------------------------------------------------------

/// Single-writer event buffer. The owning thread appends; any thread may
/// snapshot the published prefix.
struct RingBuf {
    slots: Box<[std::cell::UnsafeCell<Event>]>,
    /// Published event count; monotone while recording, reset at harvest.
    len: AtomicUsize,
    dropped: AtomicUsize,
    /// Process id for exporters: the shmpi rank, or 0 on undistributed runs.
    pid: AtomicUsize,
    tid: usize,
    label: Mutex<String>,
}

// SAFETY: slot `i` is written exactly once per fill cycle, by the single
// owning thread, before `len` is published past `i` with Release ordering;
// readers load `len` with Acquire and only read `[0, len)`. Resets (the
// `len` store in `take`/`clear`) happen only at documented quiescence, so a
// slot is never written concurrently with a read.
unsafe impl Sync for RingBuf {}

impl RingBuf {
    fn new(tid: usize, pid: usize, label: String) -> Self {
        let cap = CAPACITY.load(Ordering::SeqCst);
        RingBuf {
            slots: (0..cap)
                .map(|_| std::cell::UnsafeCell::new(Event::ZERO))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
            pid: AtomicUsize::new(pid),
            tid,
            label: Mutex::new(label),
        }
    }

    /// Append one event (owning thread only).
    #[inline]
    fn push(&self, e: Event) {
        let n = self.len.load(Ordering::Relaxed);
        if n >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: single-writer discipline (see the `Sync` impl): this
        // thread owns slot `n`, which no reader touches until the Release
        // store below publishes it.
        unsafe {
            *self.slots[n].get() = e;
        }
        self.len.store(n + 1, Ordering::Release);
    }

    /// Copy out the published events and reset the buffer.
    fn drain(&self) -> (Vec<Event>, usize) {
        let n = self.len.load(Ordering::Acquire).min(self.slots.len());
        let events = (0..n)
            .map(|i| {
                // SAFETY: `i < len` was published with Release by the single
                // writer, so the slot is fully written; harvest runs at
                // quiescence, so no concurrent write exists.
                unsafe { *self.slots[i].get() }
            })
            .collect();
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        self.len.store(0, Ordering::Release);
        (events, dropped)
    }
}

thread_local! {
    /// This thread's buffer, created lazily on first traced event.
    static TL_BUF: RefCell<Option<Arc<RingBuf>>> = const { RefCell::new(None) };
    /// Rank/label requested before any event forced buffer creation.
    static TL_PENDING_PID: Cell<usize> = const { Cell::new(0) };
    static TL_PENDING_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    /// Thread-local interned-name cache: hot-path lookups take no lock.
    static TL_NAMES: RefCell<BTreeMap<String, u32>> = const { RefCell::new(BTreeMap::new()) };
}

fn with_buf<R>(f: impl FnOnce(&RingBuf) -> R) -> R {
    TL_BUF.with(|b| {
        let mut b = b.borrow_mut();
        let buf = b.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::SeqCst);
            let pid = TL_PENDING_PID.with(|p| p.get());
            let label = TL_PENDING_LABEL
                .with(|l| l.borrow_mut().take())
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(RingBuf::new(tid, pid, label));
            REGISTRY.lock().unwrap().push(Arc::clone(&buf));
            buf
        });
        f(buf)
    })
}

fn intern(name: &str) -> u32 {
    TL_NAMES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(&id) = cache.get(name) {
            return id;
        }
        let id = INTERNER.lock().unwrap().intern(name);
        cache.insert(name.to_owned(), id);
        id
    })
}

#[inline]
fn push_event(ts_ns: u64, name: u32, cat: Cat, kind: Kind, args: [f64; 3]) {
    with_buf(|b| {
        b.push(Event {
            ts_ns,
            name,
            cat,
            kind,
            args,
        })
    });
}

/// Attribute this thread's events to a rank (Chrome `pid`). Cheap when
/// tracing is disabled: the rank is parked in a thread-local until (unless)
/// a buffer is created.
pub fn set_rank(rank: usize) {
    TL_PENDING_PID.with(|p| p.set(rank));
    TL_BUF.with(|b| {
        if let Some(buf) = b.borrow().as_ref() {
            buf.pid.store(rank, Ordering::SeqCst);
        }
    });
}

/// Human-readable label for this thread in exported traces.
pub fn set_thread_label(label: &str) {
    TL_BUF.with(|b| match b.borrow().as_ref() {
        Some(buf) => *buf.label.lock().unwrap() = label.to_owned(),
        None => TL_PENDING_LABEL.with(|l| *l.borrow_mut() = Some(label.to_owned())),
    });
}

// ---------------------------------------------------------------------------
// Emission API
// ---------------------------------------------------------------------------

/// An open span; records its End event (with any args set meanwhile) on
/// drop. Inert — a branch on a `bool` — when tracing was disabled at open.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard {
    active: bool,
    name: u32,
    cat: Cat,
    args: [f64; 3],
}

impl SpanGuard {
    /// Attach the category-specific payload reported on the End event.
    #[inline]
    pub fn set_args(&mut self, a0: f64, a1: f64, a2: f64) {
        if self.active {
            self.args = [a0, a1, a2];
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            push_event(now_ns(), self.name, self.cat, Kind::End, self.args);
        }
    }
}

/// Open a span. When tracing is disabled this is a single predictable
/// branch and the returned guard does nothing.
#[inline]
pub fn span(cat: Cat, name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            active: false,
            name: 0,
            cat,
            args: [0.0; 3],
        };
    }
    let id = intern(name);
    push_event(now_ns(), id, cat, Kind::Begin, [0.0; 3]);
    SpanGuard {
        active: true,
        name: id,
        cat,
        args: [0.0; 3],
    }
}

/// Record a span retroactively: it ends now and lasted `dur`. Used where
/// the duration is measured by existing accounting (e.g. `shmpi` wait
/// time), so the span agrees with it exactly.
#[inline]
pub fn span_retro(cat: Cat, name: &str, dur: std::time::Duration, args: [f64; 3]) {
    if !enabled() {
        return;
    }
    let id = intern(name);
    let end = now_ns();
    let start = end.saturating_sub(dur.as_nanos() as u64);
    push_event(start, id, cat, Kind::Begin, [0.0; 3]);
    push_event(end, id, cat, Kind::End, args);
}

/// Record a zero-duration instant event (e.g. a send).
#[inline]
pub fn instant(cat: Cat, name: &str, args: [f64; 3]) {
    if !enabled() {
        return;
    }
    let id = intern(name);
    push_event(now_ns(), id, cat, Kind::Instant, args);
}

/// Record a counter sample.
#[inline]
pub fn counter(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    let id = intern(name);
    push_event(now_ns(), id, Cat::Other, Kind::Counter, [value, 0.0, 0.0]);
}

// ---------------------------------------------------------------------------
// Harvest
// ---------------------------------------------------------------------------

/// One thread's harvested events.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadTrace {
    /// Rank attribution (0 unless [`set_rank`] was called on the thread).
    pub pid: usize,
    /// Process-unique recording-thread id.
    pub tid: usize,
    pub label: String,
    /// Events lost to buffer saturation.
    pub dropped: usize,
    /// Events in emission order (timestamps non-decreasing per thread for
    /// the emission patterns in this workspace).
    pub events: Vec<Event>,
}

/// A harvested trace: per-thread event streams plus the interned name
/// table they index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub names: Vec<String>,
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// Resolve an interned name id.
    pub fn name(&self, id: u32) -> &str {
        self.names.get(id as usize).map_or("?", |s| s.as_str())
    }

    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    pub fn total_dropped(&self) -> usize {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.total_events() == 0
    }
}

/// Snapshot and reset every thread buffer. Threads that recorded nothing
/// are omitted. Call at quiescence (see module docs); typically right after
/// [`set_enabled`]`(false)`.
pub fn take() -> Trace {
    let mut registry = REGISTRY.lock().unwrap();
    let mut threads: Vec<ThreadTrace> = registry
        .iter()
        .map(|b| {
            let (events, dropped) = b.drain();
            ThreadTrace {
                pid: b.pid.load(Ordering::SeqCst),
                tid: b.tid,
                label: b.label.lock().unwrap().clone(),
                dropped,
                events,
            }
        })
        .filter(|t| !t.events.is_empty() || t.dropped > 0)
        .collect();
    drop_dead_buffers(&mut registry);
    drop(registry);
    threads.sort_by_key(|t| (t.pid, t.tid));
    let names = INTERNER.lock().unwrap().names.clone();
    Trace { names, threads }
}

/// Discard all buffered events without building a [`Trace`].
pub fn clear() {
    let mut registry = REGISTRY.lock().unwrap();
    for b in registry.iter() {
        let _ = b.drain();
    }
    drop_dead_buffers(&mut registry);
}

/// Forget the (drained) buffers of threads that have exited: once a
/// thread's `TL_BUF` is destroyed the registry holds the only reference,
/// and nothing can ever write to that ~3 MB ring again.
fn drop_dead_buffers(registry: &mut Vec<Arc<RingBuf>>) {
    registry.retain(|b| Arc::strong_count(b) > 1);
}

/// Convenience harness: clear, enable, run `f`, disable, harvest.
/// Panics on nested use (tracing already enabled).
pub fn with_tracing<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    // Disables also when `f` unwinds: a session left enabled would have
    // every later one refused as nested.
    struct Session;
    impl Drop for Session {
        fn drop(&mut self) {
            set_enabled(false);
        }
    }
    assert!(!enabled(), "nested with_tracing sessions are not supported");
    clear();
    set_enabled(true);
    let session = Session;
    let result = f();
    drop(session);
    (result, take())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so exercise it from one test body
    // (Rust runs tests concurrently by default).
    #[test]
    fn record_harvest_roundtrip() {
        assert!(!enabled());
        // Disabled: emission is free and records nothing.
        {
            let mut g = span(Cat::Loop, "noop");
            g.set_args(1.0, 2.0, 3.0);
        }
        instant(Cat::Mpi, "noop", [0.0; 3]);
        counter("noop", 1.0);

        let ((), trace) = with_tracing(|| {
            set_rank(3);
            set_thread_label("tester");
            let mut g = span(Cat::Loop, "alpha");
            g.set_args(100.0, 50.0, 10.0);
            drop(g);
            // A retro span begins `dur` before now: wait `dur` out, so that
            // it cannot begin before `alpha` ended however short that was.
            let dur = std::time::Duration::from_micros(5);
            let alpha_end = std::time::Instant::now();
            while alpha_end.elapsed() < dur {
                std::hint::spin_loop();
            }
            span_retro(Cat::Mpi, "wait", dur, [1.0, 64.0, 7.0]);
            instant(Cat::Mpi, "send", [1.0, 64.0, 7.0]);
            counter("queue", 2.0);
            let t = std::thread::spawn(|| {
                set_thread_label("helper");
                let _g = span(Cat::App, "beta");
            });
            t.join().unwrap();
        });

        assert!(!enabled());
        assert_eq!(trace.total_dropped(), 0);
        let me = trace
            .threads
            .iter()
            .find(|t| t.label == "tester")
            .expect("main test thread recorded");
        assert_eq!(me.pid, 3);
        // alpha Begin/End + wait Begin/End + send + counter = 6 events.
        assert_eq!(me.events.len(), 6);
        assert_eq!(trace.name(me.events[0].name), "alpha");
        assert_eq!(me.events[0].kind, Kind::Begin);
        assert_eq!(me.events[1].kind, Kind::End);
        assert_eq!(me.events[1].args, [100.0, 50.0, 10.0]);
        // Retro span duration is exactly what was passed.
        assert_eq!(me.events[3].ts_ns - me.events[2].ts_ns, 5_000);
        // Timestamps are non-decreasing per thread.
        assert!(me.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));

        let helper = trace
            .threads
            .iter()
            .find(|t| t.label == "helper")
            .expect("spawned thread registered its own buffer");
        assert_eq!(helper.events.len(), 2);
        assert_eq!(trace.name(helper.events[0].name), "beta");

        // Buffers were reset by take().
        assert!(take().is_empty());

        // A second session reuses this thread's buffer.
        let ((), t2) = with_tracing(|| {
            let _g = span(Cat::Loop, "gamma");
        });
        assert_eq!(t2.total_events(), 2);
        assert_eq!(t2.name(t2.threads[0].events[0].name), "gamma");

        // Saturation: a fresh thread picks up a small capacity, overflows,
        // and reports the drops. (Same test body — the toggle, registry,
        // and capacity are process-global state.)
        set_capacity(16);
        set_enabled(true);
        std::thread::spawn(|| {
            for i in 0..40 {
                instant(Cat::Other, "tick", [i as f64, 0.0, 0.0]);
            }
        })
        .join()
        .unwrap();
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
        let trace = take();
        let mine: Vec<_> = trace.threads.iter().filter(|t| t.dropped > 0).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].events.len(), 16);
        assert_eq!(mine[0].dropped, 24);

        // Exited threads' buffers leave the registry at the next harvest;
        // a live thread's buffer (this one's) survives it.
        let round = || {
            let ((), trace) = with_tracing(|| {
                let _g = span(Cat::App, "main");
                let workers: Vec<_> = (0..8)
                    .map(|_| std::thread::spawn(|| instant(Cat::Other, "tick", [0.0; 3])))
                    .collect();
                for w in workers {
                    w.join().unwrap();
                }
            });
            assert_eq!(trace.threads.len(), 9);
            REGISTRY.lock().unwrap().len()
        };
        let after_first = round();
        assert_eq!(round(), after_first);
        assert_eq!(round(), after_first);
        let mine = TL_BUF.with(|b| Arc::clone(b.borrow().as_ref().unwrap()));
        assert!(REGISTRY
            .lock()
            .unwrap()
            .iter()
            .any(|b| Arc::ptr_eq(b, &mine)));
    }
}
