//! A persistent global worker pool driving index-chunked jobs.
//!
//! The primitive is [`run_chunked`]: split `0..len` into fixed-size
//! chunks and run a borrowed `Fn(start, end)` over every chunk, with the
//! calling thread participating. Workers steal chunks through a shared
//! atomic cursor, so load balancing is dynamic while chunk *boundaries*
//! stay a pure function of `(len, chunk)` — deterministic across thread
//! counts for order-insensitive consumers. [`join`] is the same job with
//! one chunk, which the caller runs itself if no worker has taken it.
//!
//! On a single-core machine (or inside a nested call) everything runs
//! inline on the caller, which also makes results bit-identical to a
//! serial loop.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Chunked job shared between the caller and the workers.
struct Job {
    /// Borrowed closure, lifetime-erased. The caller guarantees it outlives
    /// the job by blocking until `pending == 0` before returning.
    f: FnPtr,
    len: usize,
    chunk: usize,
    n_chunks: usize,
    /// Next chunk index to claim.
    cursor: AtomicUsize,
    /// Chunks not yet finished; the job is complete at 0.
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

struct FnPtr(*const (dyn Fn(usize, usize) + Sync));
// SAFETY: the pointee is `Sync` and the caller of `Job::offer` blocks until
// every chunk finishes, so the borrow outlives all cross-thread use.
unsafe impl Send for FnPtr {}
// SAFETY: see the Send impl above — shared access is to a `Sync` closure.
unsafe impl Sync for FnPtr {}

impl Job {
    /// Claims and runs chunks until the cursor is exhausted. Returns `true`
    /// if this call ran at least one chunk.
    fn work(&self) -> bool {
        let mut ran = false;
        loop {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            if c >= self.n_chunks {
                return ran;
            }
            ran = true;
            let start = c * self.chunk;
            let end = (start + self.chunk).min(self.len);
            // SAFETY: the pointer was created from a live borrow in
            // `Job::offer`, whose caller blocks until `pending == 0`; a chunk
            // only runs while pending > 0, so the closure is still alive here.
            let f = unsafe { &*self.f.0 };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(start, end))) {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Queues `f` over the chunks of `0..len` for the workers.
    ///
    /// # Safety
    ///
    /// The caller must `wait` for the returned job on every path out of
    /// the frame that owns `f`'s borrows, panics included: workers reach
    /// `f` through a lifetime-erased pointer until the job is done.
    unsafe fn offer(
        p: &Pool,
        f: &(dyn Fn(usize, usize) + Sync),
        len: usize,
        chunk: usize,
    ) -> Arc<Job> {
        // SAFETY: lifetime erasure only; the caller waits for the job
        // before the borrow ends (this function's contract).
        let f_static: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(f) };
        let n_chunks = len.div_ceil(chunk);
        let job = Arc::new(Job {
            f: FnPtr(f_static as *const _),
            len,
            chunk,
            n_chunks,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(n_chunks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(job.clone());
        p.wake.notify_all();
        job
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    workers: usize,
}

thread_local! {
    /// Set while this thread is executing pool work; nested parallel calls
    /// then run inline, which avoids self-deadlock on the job queue.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        let workers = threads.saturating_sub(1);
        let pool = Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            workers,
        };
        for w in 0..workers {
            std::thread::Builder::new()
                .name(format!("compat-rayon-{w}"))
                .spawn(worker_main)
                .expect("spawn pool worker");
        }
        pool
    })
}

fn worker_main() {
    IN_POOL.with(|f| f.set(true));
    let p = pool();
    loop {
        let job = {
            let mut q = p.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // Drop jobs whose cursor is exhausted; claim the first live one.
                while let Some(front) = q.front() {
                    if front.cursor.load(Ordering::Relaxed) >= front.n_chunks {
                        q.pop_front();
                    } else {
                        break;
                    }
                }
                if let Some(job) = q.front() {
                    break job.clone();
                }
                q = p.wake.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.work();
    }
}

/// Number of threads the pool schedules across (workers + caller).
pub fn threads() -> usize {
    pool().workers + 1
}

/// Runs `f(start, end)` over every chunk of `0..len`, in parallel when the
/// pool has workers, inline otherwise. Blocks until all chunks finished;
/// re-raises the first panic observed in any chunk.
pub fn run_chunked(len: usize, chunk: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    if len == 0 {
        return;
    }
    let chunk = chunk.clamp(1, len);
    let n_chunks = len.div_ceil(chunk);
    let p = pool();
    if p.workers == 0 || n_chunks == 1 || IN_POOL.with(|g| g.get()) {
        for c in 0..n_chunks {
            let start = c * chunk;
            f(start, (start + chunk).min(len));
        }
        return;
    }

    // SAFETY: `job.wait()` below blocks this frame until every chunk has
    // finished running (`work` catches a chunk's panic), so the borrow
    // stays live for the whole time workers can reach it.
    let job = unsafe { Job::offer(p, f, len, chunk) };
    IN_POOL.with(|g| g.set(true));
    job.work();
    IN_POOL.with(|g| g.set(false));
    job.wait();
    let payload = {
        let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.take()
    };
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Runs `a` and `b`, possibly at the same time, and returns both results
/// (mirrors `rayon::join`). The caller runs `a` itself and offers `b` to
/// the pool as a one-chunk job; if no worker has claimed `b` by the time
/// `a` returns, the caller runs it too. Parallel calls inside `a` keep
/// using the pool, which joins in once it is done with `b`; parallel calls
/// inside a `b` that a worker runs are inline. With no workers, or inside
/// pool work, `a` then `b` run inline. A panic in either is re-raised once
/// both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let p = pool();
    if p.workers == 0 || IN_POOL.with(|g| g.get()) {
        let ra = a();
        return (ra, b());
    }
    let b = Mutex::new(Some(b));
    let rb = Mutex::new(None);
    let run_b = |_: usize, _: usize| {
        let b = b.lock().unwrap_or_else(|e| e.into_inner()).take();
        let r = b.expect("a one-chunk job runs once")();
        *rb.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
    };
    // SAFETY: `job.wait()` below runs on every path out of this frame (a
    // panic in `a` is caught first, one in `b` by `work`), so `run_b` and
    // what it borrows outlive every use a worker can make of them.
    let job = unsafe { Job::offer(p, &run_b, 1, 1) };
    let ra = catch_unwind(AssertUnwindSafe(a));
    job.work();
    job.wait();
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    match (ra, payload) {
        (Err(payload), _) | (Ok(_), Some(payload)) => resume_unwind(payload),
        (Ok(ra), None) => {
            let rb = rb.into_inner().unwrap_or_else(|e| e.into_inner());
            (ra, rb.expect("b ran"))
        }
    }
}

/// Default chunk size: aim for several chunks per thread so stealing can
/// balance, but never below the caller's `min_len` floor.
pub fn default_chunk(len: usize, min_len: usize) -> usize {
    let per_thread = len.div_ceil(4 * threads().max(1)).max(1);
    per_thread.max(min_len).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn join_returns_both_results() {
        let data: Vec<u64> = (0..10_000).collect();
        let (lo, hi) = join(
            || data[..5_000].iter().sum::<u64>(),
            || data[5_000..].iter().sum::<u64>(),
        );
        assert_eq!(lo + hi, data.iter().sum::<u64>());
    }

    #[test]
    fn work_nested_in_a_join_runs_to_completion() {
        // Joins and parallel loops inside either side: on the caller they
        // use the pool, on a worker they run inline; neither may deadlock.
        let sums = |n: u64| {
            let ((a, b), c) = join(
                || join(|| n, || (0..n).into_par_iter().map(|i| i).sum::<u64>()),
                || {
                    let mut v = vec![0u64; n as usize];
                    v.par_iter_mut()
                        .enumerate()
                        .for_each(|(i, x)| *x = i as u64);
                    v.iter().sum::<u64>()
                },
            );
            (a, b, c)
        };
        let ((x, y), z) = join(|| (sums(1000), sums(2000)), || sums(3000));
        assert_eq!(x, (1000, 499_500, 499_500));
        assert_eq!(y, (2000, 1_999_000, 1_999_000));
        assert_eq!(z, (3000, 4_498_500, 4_498_500));
    }

    #[test]
    fn a_panic_in_one_side_waits_for_the_other() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(|| 1, || -> u32 { panic!("b fails") })
        }));
        let message = caught.unwrap_err();
        assert_eq!(message.downcast_ref::<&str>(), Some(&"b fails"));
        if threads() == 1 {
            return; // `a` then `b`, inline: nothing runs beside `a`
        }
        // A worker holds `b` until `a` has panicked: join may return only
        // after `b` ends.
        let started = std::sync::Barrier::new(2);
        let (a_failed, finished) = (AtomicBool::new(false), AtomicBool::new(false));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    started.wait();
                    a_failed.store(true, Ordering::SeqCst);
                    panic!("a fails")
                },
                || {
                    started.wait();
                    while !a_failed.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                    // Long enough past the panic for a join that did not
                    // wait to be seen returning first.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.store(true, Ordering::SeqCst);
                },
            )
        }));
        assert!(caught.is_err());
        assert!(finished.into_inner(), "join returned before b ended");
    }
}
