//! Host latency probe — the runnable counterpart of Figure 2.
//!
//! The paper uses the `core-to-core-latency` tool's "one writer / one
//! reader on many cache lines" test. This module implements the same idea
//! portably: two threads ping-pong a sequence number through a shared
//! atomic cache line, and the round-trip time divided by two approximates
//! the one-way core-to-core communication latency between wherever the OS
//! scheduled the two threads.
//!
//! Without `sched_setaffinity` (kept out to stay dependency-free and
//! portable) the pairing is whatever the scheduler picks, so treat results
//! as a representative same-machine latency rather than a per-distance
//! breakdown; the per-distance matrix for the paper's machines lives in
//! the platform descriptors.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cache-line-padded atomic, so the ping and pong lines do not false-share.
#[repr(align(128))]
struct PaddedAtomic(AtomicU64);

/// Result of one probe run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProbe {
    /// Estimated one-way latency, nanoseconds (median of the batches).
    pub one_way_ns: f64,
    /// Round trips measured.
    pub round_trips: u64,
}

/// Measure thread-to-thread ping-pong latency on this host.
///
/// `round_trips` bounces a counter between two threads that many times
/// (batched into 16 groups; the median batch rate is reported to suppress
/// scheduler noise).
pub fn measure_thread_latency(round_trips: u64) -> LatencyProbe {
    assert!(round_trips >= 32, "need enough round trips to time");
    let ping = Arc::new(PaddedAtomic(AtomicU64::new(0)));
    let pong = Arc::new(PaddedAtomic(AtomicU64::new(0)));

    let batches = 16u64;
    let per_batch = round_trips / batches;

    // Spin briefly, then yield: on an oversubscribed machine a pure spin
    // loop can starve the partner thread indefinitely.
    #[inline]
    fn wait_until(cell: &AtomicU64, target: u64) {
        let mut spins = 0u32;
        while cell.load(Ordering::Acquire) < target {
            spins += 1;
            if spins < 1 << 12 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    let responder = {
        let ping = Arc::clone(&ping);
        let pong = Arc::clone(&pong);
        let total = per_batch * batches;
        std::thread::spawn(move || {
            for i in 1..=total {
                wait_until(&ping.0, i);
                pong.0.store(i, Ordering::Release);
            }
        })
    };

    let mut batch_ns = Vec::with_capacity(batches as usize);
    let mut seq = 0u64;
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..per_batch {
            seq += 1;
            ping.0.store(seq, Ordering::Release);
            wait_until(&pong.0, seq);
        }
        batch_ns.push(t0.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    responder.join().expect("responder thread");

    batch_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_round_trip = batch_ns[batch_ns.len() / 2];
    LatencyProbe {
        one_way_ns: median_round_trip / 2.0,
        round_trips: per_batch * batches,
    }
}

/// The LLC size assumed where sysfs does not report one: 32 MiB.
pub const LLC_FALLBACK_BYTES: u64 = 32 << 20;

/// The largest cache the kernel reports for cpu0, in bytes, or
/// [`LLC_FALLBACK_BYTES`] where sysfs has no cache sizes (off Linux, in a
/// sandbox). Read once per process.
pub fn llc_bytes() -> u64 {
    static LLC: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *LLC.get_or_init(|| {
        (0..8)
            .filter_map(|i| {
                let path = format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size");
                parse_cache_size(&std::fs::read_to_string(path).ok()?)
            })
            .max()
            .unwrap_or(LLC_FALLBACK_BYTES)
    })
}

/// A sysfs cache size (`"48K"`, `"2048K"`, `"300M"`) in bytes.
fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, unit) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    Some(digits.parse::<u64>().ok()? * unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_their_unit() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("307200K"), Some(300 << 20));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("K"), None);
        assert_eq!(parse_cache_size(""), None);
        assert!(llc_bytes() > 0);
    }

    #[test]
    fn probe_returns_plausible_latency() {
        let p = measure_thread_latency(2_000);
        // Anything from L1-adjacent SMT siblings (~5 ns) to a heavily
        // oversubscribed scheduler hop (~1 ms with yields) is plausible;
        // outside that the probe is broken.
        assert!(
            p.one_way_ns > 1.0 && p.one_way_ns < 5_000_000.0,
            "one-way latency {} ns",
            p.one_way_ns
        );
        // 2000 rounds down to itself at batch size 16.
        assert_eq!(p.round_trips, 2_000);
    }

    #[test]
    #[should_panic(expected = "round trips")]
    fn too_few_round_trips_rejected() {
        measure_thread_latency(8);
    }
}
