//! App-level bit-identity gate for the lock-free SPSC mailbox.
//!
//! The `MailboxKind::Spsc` transport is certified by the DPOR model
//! suite (`loom_spsc.rs`: every interleaving of the ring protocol
//! explored, zero violations); this test is the complementary evidence
//! at full-application scale: a real distributed CloverLeaf run must
//! produce **bit-identical** results over both transports, with the
//! same message and byte accounting. Transport choice is an
//! implementation detail of envelope delivery — any observable drift is
//! a mailbox bug, not numerics.

use bwb_apps::cloverleaf2d::{Advection, Clover2, Config};
use bwb_ops::ExecMode;
use bwb_shmpi::{MailboxKind, Universe};

fn run(kind: MailboxKind) -> (Vec<Vec<f64>>, Vec<(u64, u64)>) {
    let out = Universe::run_with_mailbox(4, kind, |c| {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 2,
            mode: ExecMode::Serial,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        Clover2::run_distributed(c, cfg).1.unwrap_or_default()
    });
    let traffic = out
        .stats
        .per_rank
        .iter()
        .map(|s| (s.sends, s.bytes_sent))
        .collect();
    (out.results, traffic)
}

#[test]
fn cloverleaf_is_bit_identical_over_both_transports() {
    let (locked_density, locked_traffic) = run(MailboxKind::Locked);
    let (spsc_density, spsc_traffic) = run(MailboxKind::Spsc);

    // Rank 0 gathered a non-trivial global field; everyone else returns
    // the empty default.
    assert!(!locked_density[0].is_empty());
    assert_eq!(
        locked_density[0].len(),
        24 * 24,
        "gathered density is the full mesh"
    );

    // Bit-identity: compare the f64 payloads exactly, no tolerance.
    for (rank, (l, s)) in locked_density.iter().zip(&spsc_density).enumerate() {
        assert_eq!(l.len(), s.len(), "rank {rank} gathered length differs");
        for (i, (a, b)) in l.iter().zip(s).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "rank {rank} density[{i}]: {a:?} (locked) vs {b:?} (spsc)"
            );
        }
    }

    // And the communication schedule itself is unchanged: same message
    // counts and bytes per rank.
    assert_eq!(locked_traffic, spsc_traffic);
}
