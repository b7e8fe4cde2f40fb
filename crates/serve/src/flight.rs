//! Admission control and single-flight coalescing.
//!
//! Two concerns share this module because they interlock:
//!
//! * **Single-flight**: identical in-flight jobs (same cache key) execute
//!   once. The first submitter becomes the *leader* and runs the work; any
//!   duplicate arriving before completion becomes a *follower* and awaits
//!   the leader's result over a oneshot channel. Followers never consume
//!   an admission slot — coalescing happens before admission, so a burst
//!   of identical requests costs one queue position, not N.
//! * **Admission**: heavy-job concurrency is bounded by a FIFO-fair
//!   semaphore. When the semaphore's wait queue is full, new leaders are
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
//! The leader runs its work *synchronously on its own calling thread*
//! (one of the server's connection workers; the async runtime only
//! orchestrates waiting), so heavy compute never occupies an executor
//! worker.

use crate::key::CacheKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tokio::sync::{oneshot, Semaphore};

type Payload = Result<String, String>;

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
    flights: &'a Mutex<HashMap<u64, Vec<oneshot::Sender<Payload>>>>,
    key: u64,
}

impl Lead<'_> {
    fn remove_entry(&self) -> Vec<oneshot::Sender<Payload>> {
        // A poisoned table means a panic under this lock, which only
        // map operations run under: carry on with what is there.
        let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
        flights.remove(&self.key).unwrap_or_default()
    }

    /// Close the flight: nobody can join it any more. Returns who did.
    fn land(self) -> Vec<oneshot::Sender<Payload>> {
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

pub struct SingleFlight {
    sem: Arc<Semaphore>,
    max_queue: usize,
    flights: Mutex<HashMap<u64, Vec<oneshot::Sender<Payload>>>>,
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
            sem: Arc::new(Semaphore::new(max_concurrent)),
            max_queue,
            flights: Mutex::new(HashMap::new()),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Followers currently joined to `key`'s flight (None = no flight).
    /// Exposed for tests and `/stats`.
    pub fn waiters_for(&self, key: CacheKey) -> Option<usize> {
        self.flights.lock().unwrap().get(&key.0).map(Vec::len)
    }

    pub fn stats(&self) -> FlightStats {
        FlightStats {
            executed: self.executed.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            running_now: self.sem.initial_permits() - self.sem.available_permits(),
            queued_now: self.sem.waiters(),
        }
    }

    /// Submit work under `key`. Exactly one of the concurrent submitters
    /// with the same key runs `work`; the rest receive its payload.
    ///
    /// `work` runs on the calling thread after async admission.
    pub async fn run_or_join<F>(&self, key: CacheKey, work: F) -> Result<FlightOutcome, QueueFull>
    where
        F: FnOnce() -> Payload,
    {
        // Join an existing flight if one is up.
        let rx = {
            let mut flights = self.flights.lock().unwrap();
            match flights.get_mut(&key.0) {
                Some(waiters) => {
                    let (tx, rx) = oneshot::channel();
                    waiters.push(tx);
                    Some(rx)
                }
                None => {
                    flights.insert(key.0, Vec::new());
                    None
                }
            }
        };
        if let Some(rx) = rx {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let payload = match rx.await {
                Ok(p) => p,
                // Leader left without a payload: mirror it.
                Err(_) => Err("coalesced leader was rejected by admission or panicked".into()),
            };
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
        let permit = match self.sem.try_acquire_owned() {
            Some(p) => p,
            None if self.sem.waiters() >= self.max_queue => {
                // `lead` drops: followers see the rejection.
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(QueueFull {
                    retry_after_secs: 1,
                });
            }
            None => self.sem.acquire_owned().await,
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
    use std::time::Duration;
    use tokio::runtime::Runtime;

    #[test]
    fn identical_concurrent_jobs_execute_once_with_identical_payloads() {
        let rt = Runtime::with_workers(4);
        let sf = Arc::new(SingleFlight::new(2, 4));
        let runs = Arc::new(AtomicUsize::new(0));
        let key = CacheKey(7);

        // The leader's work blocks until the follower has provably joined
        // the flight, so coalescing is deterministic, not timing-dependent.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let (sf, runs) = (Arc::clone(&sf), Arc::clone(&runs));
            rt.spawn(async move {
                sf.run_or_join(key, move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    gate_rx.recv().unwrap();
                    Ok("{\"result\":42}".to_string())
                })
                .await
                .unwrap()
            })
        };
        // Wait until the leader's flight is registered, then join it.
        while sf.waiters_for(key).is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let (sf, runs) = (Arc::clone(&sf), Arc::clone(&runs));
            rt.spawn(async move {
                sf.run_or_join(key, move || {
                    runs.fetch_add(1, Ordering::SeqCst);
                    Ok("{\"result\":\"should never run\"}".to_string())
                })
                .await
                .unwrap()
            })
        };
        while sf.waiters_for(key) != Some(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate_tx.send(()).unwrap();

        let a = rt.block_on(leader).unwrap();
        let b = rt.block_on(follower).unwrap();
        assert_eq!(runs.load(Ordering::SeqCst), 1, "work ran exactly once");
        assert_eq!(a.payload.as_deref(), b.payload.as_deref());
        assert!(!a.coalesced && b.coalesced);
        let s = sf.stats();
        assert_eq!((s.executed, s.coalesced, s.rejected), (1, 1, 0));
        assert_eq!(sf.waiters_for(key), None, "flight cleaned up");
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let rt = Runtime::with_workers(2);
        let sf = Arc::new(SingleFlight::new(2, 4));
        let runs = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let (sf, runs) = (Arc::clone(&sf), Arc::clone(&runs));
                rt.spawn(async move {
                    sf.run_or_join(CacheKey(i), move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        Ok(format!("{{\"i\":{i}}}"))
                    })
                    .await
                    .unwrap()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let out = rt.block_on(h).unwrap();
            assert_eq!(out.payload.unwrap(), format!("{{\"i\":{i}}}"));
            assert!(!out.coalesced);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn full_queue_rejects_new_leaders() {
        let rt = Runtime::with_workers(4);
        // One slot, zero queue: anything beyond the running leader bounces.
        let sf = Arc::new(SingleFlight::new(1, 0));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let sf = Arc::clone(&sf);
            rt.spawn(async move {
                sf.run_or_join(CacheKey(1), move || {
                    gate_rx.recv().unwrap();
                    Ok("held".to_string())
                })
                .await
                .unwrap()
            })
        };
        while sf.stats().running_now != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rejected = {
            let sf = Arc::clone(&sf);
            rt.block_on(async move { sf.run_or_join(CacheKey(2), || Ok("no".into())).await })
        };
        assert_eq!(
            rejected.unwrap_err(),
            QueueFull {
                retry_after_secs: 1
            }
        );
        gate_tx.send(()).unwrap();
        assert_eq!(rt.block_on(holder).unwrap().payload.unwrap(), "held");
        assert_eq!(sf.stats().rejected, 1);
    }

    #[test]
    fn a_landed_leader_leaves_the_next_flight_on_its_key_alone() {
        let rt = Runtime::with_workers(2);
        let sf = Arc::new(SingleFlight::new(2, 4));
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
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let second = {
            let sf = Arc::clone(&sf);
            rt.spawn(async move {
                sf.run_or_join(key, move || {
                    gate_rx.recv().unwrap();
                    Ok("second".to_string())
                })
                .await
            })
        };
        while sf.waiters_for(key).is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let sf = Arc::clone(&sf);
            rt.spawn(async move { sf.run_or_join(key, || Ok("never runs".into())).await })
        };
        while sf.waiters_for(key) != Some(1) {
            std::thread::sleep(Duration::from_millis(1));
        }

        // The first leader finishes returning. Landing consumed its claim,
        // so nothing of it is left to fire at the second flight's entry.
        drop(first_waiters);
        assert_eq!(sf.waiters_for(key), Some(1), "second flight untouched");

        gate_tx.send(()).unwrap();
        let led = rt.block_on(second).unwrap().unwrap();
        let joined = rt.block_on(follower).unwrap().unwrap();
        assert!(!led.coalesced && joined.coalesced);
        assert_eq!(joined.payload.as_deref(), Ok("second"));
        assert_eq!(sf.waiters_for(key), None);
    }

    #[test]
    fn panicking_leader_releases_its_followers_its_key_and_its_permit() {
        let rt = Runtime::with_workers(2);
        let sf = Arc::new(SingleFlight::new(1, 4));
        let key = CacheKey(9);

        // As in the server: the leader blocks on the runtime from a plain
        // thread, and its work runs — here, panics — on that thread.
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let leader = {
            let (sf, handle) = (Arc::clone(&sf), rt.handle().clone());
            std::thread::spawn(move || {
                handle.block_on(sf.run_or_join(key, move || {
                    gate_rx.recv().unwrap();
                    panic!("the job panics by design")
                }))
            })
        };
        while sf.waiters_for(key).is_none() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let sf = Arc::clone(&sf);
            rt.spawn(async move { sf.run_or_join(key, || Ok("never runs".into())).await })
        };
        while sf.waiters_for(key) != Some(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        gate_tx.send(()).unwrap();

        assert!(leader.join().is_err(), "the panic reaches the caller");
        let joined = rt.block_on(follower).unwrap().unwrap();
        assert!(joined.coalesced);
        assert!(joined.payload.unwrap_err().contains("panicked"));
        assert_eq!(sf.waiters_for(key), None, "entry left with the leader");
        assert_eq!(sf.stats().running_now, 0, "permit left with the leader");

        // The key is usable again.
        let again = rt.block_on(sf.run_or_join(key, || Ok("fresh".into())));
        assert_eq!(again.unwrap().payload.unwrap(), "fresh");
    }
}
