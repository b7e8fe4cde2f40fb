//! Mailbox transport microbenchmarks: the mutex+condvar `LockedMailbox`
//! against the lock-free `SpscMailbox` (per-source SPSC rings + receiver
//! stash), over the two traffic shapes the apps actually generate.
//!
//! * **ping-pong** — two ranks alternate one envelope each way; every
//!   `take_blocking` races a fresh delivery, so the receiver's empty-
//!   mailbox path dominates: the poll when the host has a core per rank
//!   (arrival counter vs ring cursors), the sleep/wake path (condvar vs
//!   Dekker-flag + park) when it has not. This is the halo-exchange
//!   critical path when ranks run in lockstep.
//! * **halo mix** — one receiver drains a burst of messages from
//!   several sources under distinct tags, out of tag order (posted
//!   receives never match delivery order exactly); exercises the
//!   queue-scan (locked) vs ring-drain + stash-scan (SPSC) paths the
//!   structured-mesh apps hit once per exchange phase.
//!
//! Numbers land in EXPERIMENTS.md; the correctness side of the story is
//! `loom_spsc.rs` (exhaustive DPOR) and the bit-identity test in
//! `bwb-dslcheck`.

use bwb_core::shmpi::{Envelope, Mailbox, MailboxKind, Pattern};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

const KINDS: [(&str, MailboxKind); 2] =
    [("locked", MailboxKind::Locked), ("spsc", MailboxKind::Spsc)];

fn env(source: usize, tag: u32, bytes: usize) -> Envelope {
    Envelope {
        source,
        tag,
        data: Box::new(vec![0u8; bytes]),
        bytes,
    }
}

/// Two threads, one mailbox each, alternating single envelopes: the
/// latency-bound shape. `iters` round trips per measurement.
fn bench_ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("mailbox_ping_pong");
    for (label, kind) in KINDS {
        // Amortize the two thread spawns over a fixed batch and report
        // the per-round-trip time.
        const ROUNDS: u32 = 2_000;
        g.bench_function(BenchmarkId::new("round_trip", label), |b| {
            b.iter_custom(|_iters| {
                let a = Arc::new(Mailbox::with_kind(kind, 2));
                let z = Arc::new(Mailbox::with_kind(kind, 2));
                let (a2, z2) = (a.clone(), z.clone());
                let pat = |src| Pattern {
                    source: Some(src),
                    tag: 7,
                };
                let start = std::time::Instant::now();
                let peer = std::thread::spawn(move || {
                    for _ in 0..ROUNDS {
                        let _ = z2.take_blocking(pat(0));
                        a2.deliver(env(1, 7, 64));
                    }
                });
                for _ in 0..ROUNDS {
                    z.deliver(env(0, 7, 64));
                    let _ = a.take_blocking(pat(1));
                }
                peer.join().unwrap();
                start.elapsed() / ROUNDS
            })
        });
    }
    g.finish();
}

/// One receiver, several senders bursting distinct-tag halo strips; the
/// receiver takes them in a fixed (non-delivery) tag order, as posted
/// halo receives do. Throughput-bound shape.
fn bench_halo_mix(c: &mut Criterion) {
    const SOURCES: usize = 4;
    const TAGS: [u32; 4] = [0x4000_0000, 0x4000_0001, 0x4000_0002, 0x4000_0003];
    const MSG_BYTES: usize = 4096;
    let mut g = c.benchmark_group("mailbox_halo_mix");
    g.throughput(Throughput::Bytes((SOURCES * TAGS.len() * MSG_BYTES) as u64));
    for (label, kind) in KINDS {
        // Amortize the sender spawns over a fixed number of bursts and
        // report the per-burst time (one burst = the throughput unit).
        const BURSTS: u32 = 500;
        g.bench_function(BenchmarkId::new("burst_drain", label), |b| {
            b.iter_custom(|_iters| {
                let mb = Arc::new(Mailbox::with_kind(kind, SOURCES + 1));
                let start = std::time::Instant::now();
                let senders: Vec<_> = (0..SOURCES)
                    .map(|src| {
                        let mb = mb.clone();
                        std::thread::spawn(move || {
                            for _ in 0..BURSTS {
                                for &tag in &TAGS {
                                    mb.deliver(env(src, tag, MSG_BYTES));
                                }
                            }
                        })
                    })
                    .collect();
                for _ in 0..BURSTS {
                    // Reverse tag order on purpose: forces the pattern
                    // scan past newer traffic, as posted receives do.
                    for &tag in TAGS.iter().rev() {
                        for src in 0..SOURCES {
                            let _ = mb.take_blocking(Pattern {
                                source: Some(src),
                                tag,
                            });
                        }
                    }
                }
                for s in senders {
                    s.join().unwrap();
                }
                start.elapsed() / BURSTS
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ping_pong, bench_halo_mix);
criterion_main!(benches);
