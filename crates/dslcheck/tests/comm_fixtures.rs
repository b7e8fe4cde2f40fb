//! Planted-negative fixtures for every commcheck violation class, plus a
//! false-positive guard over a real clean run.
//!
//! Each fixture hand-builds a merged per-rank log containing exactly one
//! schedule defect and asserts that [`CommReport::analyze`] reports the
//! exact violation variant — no more, no less. The logs must be built by
//! hand: a deadlocked or mismatched schedule cannot be recorded from a
//! live `Universe::run` (the run would hang, or trip the mailbox teardown
//! assert).

use bwb_dslcheck::comm::testutil::{barrier, coll, log_of, recv, send};
use bwb_dslcheck::comm::CommReport;
use bwb_dslcheck::{Kind, Violation};
use bwb_shmpi::CommLog;

fn analyze(logs: &[CommLog]) -> CommReport {
    CommReport::analyze("fixture", logs, None)
}

/// The report contains exactly one violation and `f` accepts its kind.
#[track_caller]
fn assert_single(report: &CommReport, f: impl Fn(&Kind) -> bool) {
    assert_eq!(
        report.violations.len(),
        1,
        "expected exactly one violation, got {:?}",
        report.violations
    );
    assert!(
        f(&report.violations[0].kind),
        "unexpected violation {:?}",
        report.violations[0]
    );
}

#[test]
fn planted_unmatched_send() {
    // Rank 0 sends the "pressure" halo twice; rank 1 only receives once.
    // The surplus envelope would sit in rank 1's mailbox at teardown.
    let logs = vec![
        log_of(
            0,
            vec![
                send(1, 7, 256, Some("pressure")),
                send(1, 7, 256, Some("pressure")),
            ],
        ),
        log_of(1, vec![recv(0, 7, 256, None)]),
    ];
    assert_single(&analyze(&logs), |k| {
        *k == Kind::UnmatchedSend {
            src: 0,
            dest: 1,
            tag: 7,
            count: 1,
            dat: "pressure".into(),
        }
    });
}

#[test]
fn planted_orphan_recv() {
    // Rank 1 posts a receive no rank ever sends to: it blocks forever.
    // Stuck-but-acyclic, so matching (not deadlock) carries the blame.
    let logs = vec![
        log_of(0, vec![]),
        log_of(1, vec![recv(0, 9, 64, None)]),
        log_of(2, vec![]),
        log_of(3, vec![]),
    ];
    assert_single(&analyze(&logs), |k| {
        *k == Kind::OrphanRecv {
            rank: 1,
            source: 0,
            tag: 9,
            count: 1,
        }
    });
}

#[test]
fn planted_comm_deadlock() {
    // Classic head-to-head blocking receives: 0 waits on 1, 1 waits on 0;
    // the sends that would release them are *after* the receives. (shmpi's
    // eager sends make this impossible live — the fixture models the
    // rendezvous-send schedule the analyzer must still reject.)
    let logs = vec![
        log_of(0, vec![recv(1, 5, 16, None), send(1, 5, 16, None)]),
        log_of(1, vec![recv(0, 5, 16, None), send(0, 5, 16, None)]),
    ];
    let report = analyze(&logs);
    assert!(!report.deadlock_free);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(&v.kind, Kind::CommDeadlock { cycle }
                if cycle.len() == 2 && cycle.contains(&0) && cycle.contains(&1))),
        "no 0<->1 deadlock cycle in {:?}",
        report.violations
    );
}

#[test]
fn planted_barrier_mismatch() {
    // Rank 2 skips the second barrier (an early-exit bug): everyone else
    // blocks in it forever.
    let logs = vec![
        log_of(0, vec![barrier(), barrier()]),
        log_of(1, vec![barrier(), barrier()]),
        log_of(2, vec![barrier()]),
    ];
    let report = analyze(&logs);
    assert!(!report.deadlock_free);
    assert!(
        report.violations.iter().any(|v| v.kind
            == Kind::BarrierMismatch {
                rank_a: 0,
                count_a: 2,
                rank_b: 2,
                count_b: 1,
            }),
        "no barrier mismatch in {:?}",
        report.violations
    );
}

#[test]
fn planted_collective_order_divergence() {
    // Rank 1 reduces before broadcasting; rank 0 does the opposite. The
    // coll_seq tag discipline would cross-match the two collectives.
    let logs = vec![
        log_of(
            0,
            vec![coll("bcast", 0x8000_0000), coll("reduce", 0x8000_0001)],
        ),
        log_of(
            1,
            vec![coll("reduce", 0x8000_0000), coll("bcast", 0x8000_0001)],
        ),
    ];
    assert_single(&analyze(&logs), |k| {
        *k == Kind::CollectiveOrderDivergence {
            at: 0,
            rank_a: 0,
            kind_a: "bcast".into(),
            rank_b: 1,
            kind_b: "reduce".into(),
        }
    });
}

#[test]
fn planted_comm_imbalance() {
    // One rank ships 5x the halo bytes of its lightest peer within the
    // same attributed phase — the exchange serializes on rank 0.
    let logs = vec![
        log_of(
            0,
            vec![send(1, 2, 400, Some("density")), recv(1, 2, 80, None)],
        ),
        log_of(
            1,
            vec![send(0, 2, 80, Some("density")), recv(0, 2, 400, None)],
        ),
    ];
    assert_single(&analyze(&logs), |k| {
        *k == Kind::CommImbalance {
            phase: "density".into(),
            max_rank: 0,
            max_bytes: 400,
            min_rank: 1,
            min_bytes: 80,
        }
    });
}

/// A *live* planted imbalance: partition MG-CFD's mesh with the naive
/// [`CutEdgeRule::FirstEndpoint`] rule — every RCB cut then exports its
/// whole interface from one side only (the production `distributed_flux`
/// uses [`CutEdgeRule::Parity`] precisely to avoid this) — and the
/// recorded halo exchange must be flagged.
#[test]
fn naive_edge_ownership_records_real_imbalance() {
    use bwb_apps::mgcfd::{Config, MgCfd};
    use bwb_op2::{edge_ownership, rcb_partition, CutEdgeRule, RankHalo};
    use bwb_shmpi::Universe;

    let (_out, logs) = Universe::run_logged(4, |c| {
        let sim = MgCfd::new(Config {
            n: 17,
            levels: 2,
            ..Config::default()
        });
        let lv = &sim.levels[0];
        let mut flat = Vec::with_capacity(lv.nodes.size * 2);
        for nid in 0..lv.nodes.size {
            flat.push(lv.coords.get(nid, 0));
            flat.push(lv.coords.get(nid, 1));
        }
        let node_part = rcb_partition(&flat, 2, c.size());
        // The skew-inducing rule under test — same helper as production,
        // naive variant:
        let edge_part = edge_ownership(&lv.e2n, &node_part, CutEdgeRule::FirstEndpoint);
        let halo = RankHalo::build(&lv.e2n, &edge_part, &node_part, c.size(), c.rank());
        let mut q = sim.q[0].clone();
        halo.exchange(c, &mut q);
    });
    let report = CommReport::analyze("mgcfd_naive", &logs, None);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(&v.kind, Kind::CommImbalance { phase, .. } if phase == "q")),
        "naive cut-edge ownership should skew the q exchange: {:?}",
        report.violations
    );
    // Imbalance is the *only* defect: the schedule still matches and
    // completes.
    assert!(report.deadlock_free);
    assert!(report
        .violations
        .iter()
        .all(|v| matches!(v.kind, Kind::CommImbalance { .. })));
}

/// False-positive guard: a real 4-rank CloverLeaf run records a large,
/// attributed, collective-bearing schedule — and every analyzer must find
/// it clean and deadlock-free.
#[test]
fn clean_cloverleaf_run_has_no_findings() {
    use bwb_apps::cloverleaf2d::{Advection, Clover2, Config};
    use bwb_ops::ExecMode;
    use bwb_shmpi::Universe;

    let (_out, logs) = Universe::run_logged(4, |c| {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 2,
            mode: ExecMode::Serial,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        Clover2::run_distributed(c, cfg).1
    });
    let report = CommReport::analyze("cloverleaf2d", &logs, None);
    assert!(report.clean(), "{:?}", report.violations);
    assert!(report.deadlock_free);
    assert!(report.sends > 0 && report.recvs > 0);
    assert!(report.collectives > 0, "dt reduction should record markers");
    // Halo phases carry dat attribution from the ops layer.
    assert!(
        report.phases.iter().any(|p| p.phase != "(unattributed)"),
        "no attributed phases: {:?}",
        report.phases.iter().map(|p| &p.phase).collect::<Vec<_>>()
    );
    // Violations render as JSON even when absent (shape check).
    let j = report.to_json().to_string();
    assert!(j.contains("\"violations\":[]"));
}

/// Violation Display/JSON renderings stay stable for the comm kinds.
#[test]
fn comm_violation_rendering() {
    let v = Violation {
        app: "demo".into(),
        kind: Kind::CommDeadlock { cycle: vec![0, 1] },
    };
    assert_eq!(
        v.to_string(),
        "[comm_deadlock] demo: ranks 0 -> 1 block on each other in a cycle (deadlock)"
    );
    assert!(v
        .to_json()
        .to_string()
        .contains("\"kind\":\"comm_deadlock\""));
}
