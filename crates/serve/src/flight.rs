//! Admission control and single-flight coalescing.
//!
//! Two concerns share this module because they interlock:
//!
//! * **Single-flight**: identical in-flight jobs (same cache key) execute
//!   once. The first submitter becomes the *leader* and runs the work; any
//!   duplicate arriving before completion becomes a *follower* and waits
//!   for the leader's result on a channel. Followers never consume
//!   an admission slot — coalescing happens before admission, so a burst
//!   of identical requests costs one queue position, not N.
//! * **Admission**: heavy-job concurrency is bounded by a FIFO ticket
//!   queue. When `max_queue` leaders already wait, new leaders are
//!   rejected (HTTP 429 upstream) — and the rejection propagates to any
//!   followers that joined the losing flight, since they would have been
//!   rejected too.
//!
//! A flight's table entry is owned by a drop guard on the leader's stack,
//! so a leader that leaves without a payload — rejected, or unwinding out
//! of a panicking job — takes the entry with it: its followers get an
//! error instead of waiting forever, and the next identical submission
//! starts a fresh flight instead of joining a dead one.
//!
//! Everything here blocks the calling thread (one of the server's
//! connection workers): a leader runs its work there, a follower waits on
//! its channel's receiver, a queued leader on the admission condvar.
//! Nothing runs under a lock here but map and counter updates, so every
//! lock is taken poisoned or not.

use crate::key::CacheKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};

type Payload = Result<String, String>;
type FlightTable = Mutex<HashMap<u64, Vec<Sender<Payload>>>>;

/// A poisoned lock means a panic under it, and only map and counter
/// updates run under these: carry on with what is there.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counters for `/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightStats {
    /// Jobs whose work closure actually ran (single-flight leaders).
    pub executed: u64,
    /// Submissions served by joining an in-flight identical job.
    pub coalesced: u64,
    /// Submissions rejected because the admission queue was full.
    pub rejected: u64,
    /// Leaders currently holding an admission permit.
    pub running_now: usize,
    /// Leaders currently waiting for a permit.
    pub queued_now: usize,
}

/// Admission rejection: the bounded queue was full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull {
    /// Hint for the client's `Retry-After` header, seconds.
    pub retry_after_secs: u64,
}

/// The result of one submission.
#[derive(Debug)]
pub struct FlightOutcome {
    pub payload: Payload,
    /// True when this submission rode on another's execution.
    pub coalesced: bool,
}

/// The leader's claim on `key`'s table entry; see the module docs. The
/// entry is removed exactly once: by [`Lead::land`], which consumes the
/// claim, or else by dropping it. Once the entry is gone the key is free
/// for the next leader, whose entry this claim must never touch.
struct Lead<'a> {
    flights: &'a FlightTable,
    key: u64,
}

impl Lead<'_> {
    fn remove_entry(&self) -> Vec<Sender<Payload>> {
        lock(self.flights).remove(&self.key).unwrap_or_default()
    }

    /// Close the flight: nobody can join it any more. Returns who did.
    fn land(self) -> Vec<Sender<Payload>> {
        let waiters = self.remove_entry();
        std::mem::forget(self);
        waiters
    }
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // Dropping the senders is the followers' error.
        self.remove_entry();
    }
}

/// FIFO admission: `permits` leaders run at once, the rest wait in
/// ticket order, and at most `max_queue` of them wait.
struct Admission {
    permits: usize,
    max_queue: usize,
    tickets: Mutex<Tickets>,
    turn: Condvar,
}

#[derive(Default)]
struct Tickets {
    running: usize,
    /// Tickets taken, and tickets whose holder got a permit: the
    /// holders in between are the queue, and `admitted` is next in line.
    taken: usize,
    admitted: usize,
}

impl Tickets {
    fn queued(&self) -> usize {
        self.taken - self.admitted
    }
}

/// A held admission permit; dropping it releases the permit.
struct Permit<'a>(&'a Admission);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock(&self.0.tickets).running -= 1;
        self.0.turn.notify_all();
    }
}

impl Admission {
    /// A permit at once if one is free and nobody waits ahead; `None` if
    /// `max_queue` leaders already wait; otherwise one when this caller's
    /// turn comes.
    fn acquire(&self) -> Option<Permit<'_>> {
        let mut t = lock(&self.tickets);
        if t.running == self.permits || t.queued() > 0 {
            if t.queued() >= self.max_queue {
                return None;
            }
            let ticket = t.taken;
            t.taken += 1;
            t = self
                .turn
                .wait_while(t, |t| t.admitted != ticket || t.running == self.permits)
                .unwrap_or_else(|e| e.into_inner());
            t.admitted += 1;
            // The next in line may find a permit free too.
            self.turn.notify_all();
        }
        t.running += 1;
        Some(Permit(self))
    }
}

pub struct SingleFlight {
    admission: Admission,
    flights: FlightTable,
    executed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
}

impl SingleFlight {
    /// `max_concurrent` leaders run at once; up to `max_queue` more wait;
    /// beyond that submissions are rejected.
    pub fn new(max_concurrent: usize, max_queue: usize) -> SingleFlight {
        assert!(max_concurrent > 0, "need at least one admission slot");
        SingleFlight {
            admission: Admission {
                permits: max_concurrent,
                max_queue,
                tickets: Mutex::default(),
                turn: Condvar::new(),
            },
            flights: Mutex::new(HashMap::new()),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Followers currently joined to `key`'s flight (None = no flight).
    /// Exposed for tests and `/stats`.
    pub fn waiters_for(&self, key: CacheKey) -> Option<usize> {
        lock(&self.flights).get(&key.0).map(Vec::len)
    }

    pub fn stats(&self) -> FlightStats {
        let t = lock(&self.admission.tickets);
        FlightStats {
            executed: self.executed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            running_now: t.running,
            queued_now: t.queued(),
        }
    }

    /// Submit work under `key`. Exactly one of the concurrent submitters
    /// with the same key runs `work`; the rest receive its payload.
    ///
    /// `work` runs on the calling thread once admitted.
    pub fn run_or_join<F>(&self, key: CacheKey, work: F) -> Result<FlightOutcome, QueueFull>
    where
        F: FnOnce() -> Payload,
    {
        // Join an existing flight if one is up.
        let joined = {
            let mut flights = lock(&self.flights);
            match flights.get_mut(&key.0) {
                Some(waiters) => {
                    let (tx, rx) = mpsc::channel();
                    waiters.push(tx);
                    Some(rx)
                }
                None => {
                    flights.insert(key.0, Vec::new());
                    None
                }
            }
        };
        if let Some(rx) = joined {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            // A sender dropped unsent: the leader left without a payload.
            let payload = rx.recv().unwrap_or_else(|_| {
                Err("coalesced leader was rejected by admission or panicked".into())
            });
            return Ok(FlightOutcome {
                payload,
                coalesced: true,
            });
        }

        // Leader path: bounded-queue admission.
        let lead = Lead {
            flights: &self.flights,
            key: key.0,
        };
        let Some(permit) = self.admission.acquire() else {
            // `lead` drops: followers see the rejection.
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(QueueFull {
                retry_after_secs: 1,
            });
        };

        self.executed.fetch_add(1, Ordering::Relaxed);
        let payload = work();
        drop(permit);

        // Resolve the flight: everyone who joined gets the payload.
        for tx in lead.land() {
            let _ = tx.send(payload.clone());
        }
        Ok(FlightOutcome {
            payload,
            coalesced: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;
    use std::time::Duration;

    /// Wait for another thread to reach a state `cond` observes.
    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn identical_concurrent_jobs_execute_once_with_identical_payloads() {
        let sf = SingleFlight::new(2, 4);
        let runs = &AtomicUsize::new(0);
        let key = CacheKey(7);

        // The leader's work blocks until the follower has provably joined
        // the flight, so coalescing is deterministic, not timing-dependent.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let leader = s.spawn(|| {
                sf.run_or_join(key, move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    gate_rx.recv().unwrap();
                    Ok("{\"result\":42}".to_string())
                })
                .unwrap()
            });
            // Wait until the leader's flight is registered, then join it.
            until(|| sf.waiters_for(key).is_some());
            let follower = s.spawn(|| {
                sf.run_or_join(key, || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Ok("{\"result\":\"should never run\"}".to_string())
                })
                .unwrap()
            });
            until(|| sf.waiters_for(key) == Some(1));
            gate_tx.send(()).unwrap();

            let a = leader.join().unwrap();
            let b = follower.join().unwrap();
            assert_eq!(runs.load(Ordering::SeqCst), 1, "work ran exactly once");
            assert_eq!(a.payload.as_deref(), b.payload.as_deref());
            assert!(!a.coalesced && b.coalesced);
        });
        let s = sf.stats();
        assert_eq!((s.executed, s.coalesced, s.rejected), (1, 1, 0));
        assert_eq!(sf.waiters_for(key), None, "flight cleaned up");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = &SingleFlight::new(2, 4);
        let runs = &AtomicUsize::new(0);
        thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    s.spawn(move || {
                        sf.run_or_join(CacheKey(i), || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            Ok(format!("{{\"i\":{i}}}"))
                        })
                        .unwrap()
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                let out = h.join().unwrap();
                assert_eq!(out.payload.unwrap(), format!("{{\"i\":{i}}}"));
                assert!(!out.coalesced);
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn full_queue_rejects_new_leaders() {
        // One slot, zero queue: anything beyond the running leader bounces.
        let sf = SingleFlight::new(1, 0);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let holder = s.spawn(|| {
                sf.run_or_join(CacheKey(1), move || {
                    gate_rx.recv().unwrap();
                    Ok("held".to_string())
                })
                .unwrap()
            });
            until(|| sf.stats().running_now == 1);
            let rejected = sf.run_or_join(CacheKey(2), || Ok("no".into()));
            assert_eq!(
                rejected.unwrap_err(),
                QueueFull {
                    retry_after_secs: 1
                }
            );
            gate_tx.send(()).unwrap();
            assert_eq!(holder.join().unwrap().payload.unwrap(), "held");
        });
        assert_eq!(sf.stats().rejected, 1);
    }

    #[test]
    fn a_landed_leader_leaves_the_next_flight_on_its_key_alone() {
        let sf = SingleFlight::new(2, 4);
        let key = CacheKey(11);

        // A first leader, stopped between closing its flight and
        // returning: the result is not cached yet, so ...
        sf.flights.lock().unwrap().insert(key.0, Vec::new());
        let first = Lead {
            flights: &sf.flights,
            key: key.0,
        };
        let first_waiters = first.land();
        assert_eq!(sf.waiters_for(key), None, "the key is free");

        // ... an identical submission leads a flight of its own, and a
        // follower joins that one.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let second = s.spawn(|| {
                sf.run_or_join(key, move || {
                    gate_rx.recv().unwrap();
                    Ok("second".to_string())
                })
            });
            until(|| sf.waiters_for(key).is_some());
            let follower = s.spawn(|| sf.run_or_join(key, || Ok("never runs".into())));
            until(|| sf.waiters_for(key) == Some(1));

            // The first leader finishes returning. Landing consumed its
            // claim, so nothing of it is left to fire at the second
            // flight's entry.
            drop(first_waiters);
            assert_eq!(sf.waiters_for(key), Some(1), "second flight untouched");

            gate_tx.send(()).unwrap();
            let led = second.join().unwrap().unwrap();
            let joined = follower.join().unwrap().unwrap();
            assert!(!led.coalesced && joined.coalesced);
            assert_eq!(joined.payload.as_deref(), Ok("second"));
        });
        assert_eq!(sf.waiters_for(key), None);
    }

    #[test]
    fn panicking_leader_releases_its_followers_its_key_and_its_permit() {
        let sf = SingleFlight::new(1, 4);
        let key = CacheKey(9);

        // As in the server: the leader's work runs — here, panics — on
        // the leader's own thread.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let leader = s.spawn(|| {
                sf.run_or_join(key, move || {
                    gate_rx.recv().unwrap();
                    panic!("the job panics by design")
                })
            });
            until(|| sf.waiters_for(key).is_some());
            let follower = s.spawn(|| sf.run_or_join(key, || Ok("never runs".into())));
            until(|| sf.waiters_for(key) == Some(1));
            gate_tx.send(()).unwrap();

            assert!(leader.join().is_err(), "the panic reaches the caller");
            let joined = follower.join().unwrap().unwrap();
            assert!(joined.coalesced);
            assert!(joined.payload.unwrap_err().contains("panicked"));
        });
        assert_eq!(sf.waiters_for(key), None, "entry left with the leader");
        assert_eq!(sf.stats().running_now, 0, "permit left with the leader");

        // The key is usable again.
        let again = sf.run_or_join(key, || Ok("fresh".into()));
        assert_eq!(again.unwrap().payload.unwrap(), "fresh");
    }

    #[test]
    fn admission_is_fifo_and_bounded() {
        let sf = &SingleFlight::new(1, 3);
        let order = &Mutex::new(Vec::new());
        let peak = &AtomicUsize::new(0);
        let work = move |i: u64| -> Payload {
            peak.fetch_max(sf.stats().running_now, Ordering::SeqCst);
            order.lock().unwrap().push(i);
            Ok(i.to_string())
        };
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        thread::scope(|s| {
            let holder = s.spawn(move || {
                sf.run_or_join(CacheKey(0), move || {
                    gate_rx.recv().unwrap();
                    work(0)
                })
            });
            until(|| sf.stats().running_now == 1);
            // Each leader arrives once the one before it is queued.
            let queued: Vec<_> = (1..=3u64)
                .map(|i| {
                    let h = s.spawn(move || sf.run_or_join(CacheKey(i), move || work(i)));
                    until(|| sf.stats().queued_now == i as usize);
                    h
                })
                .collect();
            assert_eq!(
                sf.run_or_join(CacheKey(4), move || work(4)).unwrap_err(),
                QueueFull {
                    retry_after_secs: 1
                },
                "a fourth waiter overflows a queue of three"
            );

            gate_tx.send(()).unwrap();
            for h in std::iter::once(holder).chain(queued) {
                h.join().unwrap().unwrap();
            }
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3], "arrival order");
        assert_eq!(peak.load(Ordering::SeqCst), 1, "one permit, one runner");
        let st = sf.stats();
        assert_eq!((st.running_now, st.queued_now, st.rejected), (0, 0, 1));
    }

    #[test]
    fn eight_threads_on_two_permits_run_every_job_exactly_once() {
        const THREADS: u64 = 8;
        const KEYS: u64 = 200;
        let sf = &SingleFlight::new(2, THREADS as usize);
        let runs: &Vec<AtomicUsize> = &(0..THREADS * KEYS).map(|_| AtomicUsize::new(0)).collect();
        let (running, peak) = (&AtomicUsize::new(0), &AtomicUsize::new(0));
        thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    // xorshift64: a different hold sequence per thread.
                    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    for k in t * KEYS..(t + 1) * KEYS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let hold = Duration::from_micros(x % 50);
                        let out = sf.run_or_join(CacheKey(k), || {
                            peak.fetch_max(
                                running.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            runs[k as usize].fetch_add(1, Ordering::SeqCst);
                            thread::sleep(hold);
                            running.fetch_sub(1, Ordering::SeqCst);
                            Ok(String::new())
                        });
                        out.expect("8 leaders never overflow a queue of 8");
                    }
                });
            }
        });
        assert!(
            runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
            "each job once"
        );
        assert!(peak.load(Ordering::SeqCst) <= 2, "at most two running");
        let st = sf.stats();
        assert_eq!(
            (st.executed, st.coalesced, st.rejected),
            (THREADS * KEYS, 0, 0)
        );
        assert_eq!((st.running_now, st.queued_now), (0, 0));
    }
}
