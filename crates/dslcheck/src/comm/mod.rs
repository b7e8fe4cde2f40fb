//! commcheck — cross-rank communication-schedule verification.
//!
//! The DSL analyzers in this crate hold *intra-rank* schedules (loop
//! nests, colorings, tiling plans) to their declared contracts; this
//! module does the same for the *inter-rank* schedule. A run under
//! [`bwb_shmpi::Universe::run_logged`] records every rank's communication
//! events (sends, receives, barriers, collective markers — with peer,
//! tag, bytes, and dat attribution); commcheck then merges the per-rank
//! logs and proves three properties:
//!
//! * **matching** ([`matching`]) — every send is received, every receive
//!   has a sender (counting over FIFO streams);
//! * **deadlock** ([`deadlock`]) — the schedule completes under every
//!   delivery interleaving: no cyclic blocking, equal barrier arity,
//!   identical collective order (the replay in [`replay`] is the model
//!   checker — eager sends make the abstract machine monotone, so one
//!   fixed-point run decides all interleavings);
//! * **imbalance** ([`imbalance`]) — per-phase byte/message skew across
//!   ranks, priced through the `bwb_machine` placement + latency model
//!   that `Universe::run_placed` injects.
//!
//! Matching is deterministic by type: a receive names its source, and the
//! mailbox is FIFO per `(source, tag)`, so the k-th receive of a stream
//! consumes its k-th send under every interleaving.
//!
//! [`CommReport::analyze`] bundles all three over one merged log;
//! [`comm_check_all`] records every app-table entry with a distributed
//! half at 4 ranks under a Xeon MAX placement and is the library entry
//! behind `analyze --comm` (the CI gate).

pub mod deadlock;
pub mod imbalance;
pub mod matching;
pub mod parametric;
pub mod replay;
pub mod testutil;

pub use deadlock::check_deadlock;
pub use imbalance::{check_imbalance, phase_balance, PhaseBalance, IMBALANCE_THRESHOLD};
pub use matching::check_matching;
pub use replay::{replay, BlockState, MatchRec, Outcome, Replay};

use crate::registry::{self, CI_RANKS};
use crate::violation::{Kind, Violation};
use bwb_machine::platforms::xeon_max_9480;
use bwb_machine::{LatencyProfile, PlacementPolicy, RankPlacement};
use bwb_shmpi::{CommLog, CommOp, Universe};
use bwb_trace::json::{obj, Json};

/// The commcheck verdict for one app's recorded run.
#[derive(Debug, Clone)]
pub struct CommReport {
    pub app: String,
    pub ranks: usize,
    /// Total events across all ranks.
    pub events: usize,
    pub sends: usize,
    pub recvs: usize,
    pub barriers: usize,
    pub collectives: usize,
    /// Per-phase, per-rank traffic (with modelled cost when a placement
    /// was supplied).
    pub phases: Vec<PhaseBalance>,
    /// Replay completed and no blocking cycle was found.
    pub deadlock_free: bool,
    pub violations: Vec<Violation>,
}

impl CommReport {
    /// Run all three analyzers over a merged per-rank log.
    pub fn analyze(
        app: &str,
        logs: &[CommLog],
        placement: Option<(&RankPlacement, &LatencyProfile)>,
    ) -> Self {
        let rep = replay(logs);
        let mut violations = check_matching(app, logs);
        violations.extend(check_deadlock(app, logs, &rep));
        let phases = phase_balance(logs, placement);
        violations.extend(check_imbalance(app, &phases));
        violations.sort();
        violations.dedup();

        let deadlock_free = rep.outcome == Outcome::Completed
            && !violations
                .iter()
                .any(|v| matches!(v.kind, Kind::CommDeadlock { .. }));

        let count = |pred: fn(&CommOp) -> bool| -> usize {
            logs.iter()
                .map(|l| l.events.iter().filter(|e| pred(&e.op)).count())
                .sum()
        };
        CommReport {
            app: app.to_string(),
            ranks: logs.len(),
            events: logs.iter().map(|l| l.events.len()).sum(),
            sends: count(|op| matches!(op, CommOp::Send { .. })),
            recvs: count(|op| matches!(op, CommOp::Recv { .. })),
            barriers: count(|op| matches!(op, CommOp::Barrier)),
            collectives: count(|op| matches!(op, CommOp::Collective { .. })),
            phases,
            deadlock_free,
            violations,
        }
    }

    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// One JSON object per app.
    pub fn to_json(&self) -> Json {
        obj([
            ("app", self.app.as_str().into()),
            ("ranks", self.ranks.into()),
            ("events", self.events.into()),
            ("sends", self.sends.into()),
            ("recvs", self.recvs.into()),
            ("barriers", self.barriers.into()),
            ("collectives", self.collectives.into()),
            ("deadlock_free", self.deadlock_free.into()),
            (
                "phases",
                self.phases.iter().map(PhaseBalance::to_json).collect(),
            ),
            (
                "violations",
                self.violations.iter().map(Violation::to_json).collect(),
            ),
        ])
    }
}

/// Record and verify the communication schedule of every registered
/// distributed app's CI-sized run, priced with one rank per NUMA domain of
/// a Xeon MAX 9480 (the paper's MPI+X configuration: the 4 CI ranks sit on
/// the 4 NUMA domains of socket 0). Zero violations is the repo's
/// correctness claim for its inter-rank schedules; the `analyze --comm`
/// CLI gates CI on it.
pub fn comm_check_all() -> Vec<CommReport> {
    let plat = xeon_max_9480();
    let placement = plat.topology.place_ranks(PlacementPolicy::OnePerNuma);
    let priced = Some((placement.clone(), plat.latency));
    registry::distributed()
        .map(|(e, d)| {
            let (_out, logs) = Universe::run_placed_logged(CI_RANKS, priced.clone(), d.ci);
            CommReport::analyze(e.name, &logs, Some((&placement, &plat.latency)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::{log_of, recv, send};

    #[test]
    fn report_counts_and_json_shape() {
        let logs = vec![
            log_of(0, vec![send(1, 1, 64, Some("u")), recv(1, 1, 64, None)]),
            log_of(1, vec![send(0, 1, 64, Some("u")), recv(0, 1, 64, None)]),
        ];
        let r = CommReport::analyze("demo", &logs, None);
        assert!(r.clean(), "{:?}", r.violations);
        assert!(r.deadlock_free);
        assert_eq!((r.sends, r.recvs), (2, 2));
        let j = r.to_json().to_string();
        assert!(j.contains("\"app\":\"demo\""));
        assert!(j.contains("\"deadlock_free\":true"));
        assert!(j.contains("\"phase\":\"u\""));
    }

    #[test]
    fn specific_source_recvs_are_clean() {
        // Two senders into one rank: each receive names its source, so
        // the pairing cannot depend on which envelope lands first.
        let logs = vec![
            log_of(0, vec![send(2, 1, 8, None)]),
            log_of(1, vec![send(2, 1, 8, None)]),
            log_of(2, vec![recv(0, 1, 8, None), recv(1, 1, 8, None)]),
        ];
        let rep = replay(&logs);
        assert_eq!(rep.outcome, Outcome::Completed);
        assert_eq!(rep.matches.len(), 2);
        assert!(check_matching("t", &logs).is_empty());
        assert!(check_deadlock("t", &logs, &rep).is_empty());
    }

    #[test]
    fn comm_check_all_is_clean() {
        for report in comm_check_all() {
            assert!(report.events > 0, "{}: nothing recorded", report.app);
            assert!(report.deadlock_free, "{}: not deadlock-free", report.app);
            assert!(report.clean(), "{}: {:?}", report.app, report.violations);
        }
    }
}
