//! Imbalance analyzer: per-phase, per-rank communication volume, priced
//! through the machine model.
//!
//! Halo exchanges are bulk-synchronous: every participant of a phase waits
//! for its peers, so the phase costs what its *heaviest* rank costs (the
//! paper's MPI_Wait analysis — Figure 7 — is exactly this skew surfacing
//! as wait time once bandwidth stops being the bottleneck). The analyzer
//! groups `Send` events by their recorded dat/phase context, tallies bytes
//! and messages per rank, and flags any phase whose byte skew exceeds 2×
//! across its participants ([`Kind::CommImbalance`]).
//!
//! When a rank placement and latency profile are supplied (the same pair
//! `Universe::run_placed` prices messages with), each rank's phase traffic
//! additionally gets a modelled latency cost: `Σ mpi_latency_ns(distance
//! (rank, dest), SW_OVERHEAD_NS)` — so a phase that is byte-balanced but
//! topology-skewed (one rank talking cross-socket, the rest within a NUMA
//! domain) still shows up in the report's cost column.
//!
//! Collective-internal traffic (tags at or above
//! [`bwb_shmpi::COLL_TAG_BASE`]) is excluded: collectives are rooted by
//! design — a reduce's fan-in is not an application load imbalance.

use crate::violation::{Kind, Violation};
use bwb_machine::{LatencyProfile, RankPlacement};
use bwb_shmpi::comm::SW_OVERHEAD_NS;
use bwb_shmpi::{CommLog, CommOp, COLL_TAG_BASE};
use bwb_trace::json::{obj, Json};
use std::collections::BTreeMap;

/// Byte skew (max/min over participants) above which a phase is flagged.
pub const IMBALANCE_THRESHOLD: f64 = 2.0;

/// One rank's traffic within one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankPhase {
    pub bytes: u64,
    pub msgs: u64,
    /// Modelled send latency (ns) under the supplied placement; 0 when no
    /// placement was given.
    pub cost_ns: f64,
}

/// Per-rank traffic of one attributed communication phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBalance {
    pub phase: String,
    /// Indexed by rank; ranks that sent nothing stay at default.
    pub per_rank: Vec<RankPhase>,
}

impl PhaseBalance {
    /// Ranks that sent at least one message in this phase.
    pub fn participants(&self) -> impl Iterator<Item = (usize, &RankPhase)> {
        self.per_rank.iter().enumerate().filter(|(_, p)| p.msgs > 0)
    }

    /// `(max_rank, max_bytes, min_rank, min_bytes)` over participants.
    fn extremes(&self) -> Option<(usize, u64, usize, u64)> {
        let mut it = self.participants();
        let first = it.next()?;
        let mut max = (first.0, first.1.bytes);
        let mut min = max;
        for (r, p) in it {
            if p.bytes > max.1 {
                max = (r, p.bytes);
            }
            if p.bytes < min.1 {
                min = (r, p.bytes);
            }
        }
        Some((max.0, max.1, min.0, min.1))
    }

    pub fn to_json(&self) -> Json {
        let ranks = self.participants().map(|(r, p)| {
            obj([
                ("rank", r.into()),
                ("bytes", p.bytes.into()),
                ("msgs", p.msgs.into()),
                ("cost_ns", p.cost_ns.into()),
            ])
        });
        obj([
            ("phase", self.phase.as_str().into()),
            ("ranks", ranks.collect()),
        ])
    }
}

/// Group sends into phases and compute per-rank balance.
pub fn phase_balance(
    logs: &[CommLog],
    placement: Option<(&RankPlacement, &LatencyProfile)>,
) -> Vec<PhaseBalance> {
    let n = logs.len();
    let mut phases: BTreeMap<String, Vec<RankPhase>> = BTreeMap::new();
    for log in logs {
        for ev in &log.events {
            let CommOp::Send { dest } = ev.op else {
                continue;
            };
            if ev.tag >= COLL_TAG_BASE {
                continue;
            }
            let key = ev.ctx.clone().unwrap_or_else(|| "(unattributed)".into());
            let slot = &mut phases
                .entry(key)
                .or_insert_with(|| vec![RankPhase::default(); n])[log.rank];
            slot.bytes += ev.bytes as u64;
            slot.msgs += 1;
            if let Some((p, l)) = placement {
                slot.cost_ns += l.mpi_latency_ns(p.distance(log.rank, dest), SW_OVERHEAD_NS);
            }
        }
    }
    phases
        .into_iter()
        .map(|(phase, per_rank)| PhaseBalance { phase, per_rank })
        .collect()
}

/// Flag phases whose byte skew across participants exceeds the threshold.
pub fn check_imbalance(app: &str, phases: &[PhaseBalance]) -> Vec<Violation> {
    let mut out = Vec::new();
    for ph in phases {
        let Some((max_rank, max_bytes, min_rank, min_bytes)) = ph.extremes() else {
            continue;
        };
        if min_bytes > 0 && (max_bytes as f64) / (min_bytes as f64) > IMBALANCE_THRESHOLD {
            out.push(Violation {
                app: app.into(),
                kind: Kind::CommImbalance {
                    phase: ph.phase.clone(),
                    max_rank,
                    max_bytes,
                    min_rank,
                    min_bytes,
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::testutil::{log_of, send};
    use bwb_machine::platforms::xeon_max_9480;
    use bwb_machine::PlacementPolicy;

    #[test]
    fn balanced_phase_is_clean() {
        let logs = vec![
            log_of(0, vec![send(1, 1, 100, Some("u"))]),
            log_of(1, vec![send(0, 1, 120, Some("u"))]),
        ];
        let phases = phase_balance(&logs, None);
        assert_eq!(phases.len(), 1);
        assert!(check_imbalance("t", &phases).is_empty());
    }

    #[test]
    fn skewed_phase_is_flagged() {
        let logs = vec![
            log_of(0, vec![send(1, 1, 500, Some("u"))]),
            log_of(1, vec![send(0, 1, 100, Some("u"))]),
        ];
        let phases = phase_balance(&logs, None);
        let v = check_imbalance("t", &phases);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0].kind,
            Kind::CommImbalance {
                phase: "u".into(),
                max_rank: 0,
                max_bytes: 500,
                min_rank: 1,
                min_bytes: 100,
            }
        );
    }

    #[test]
    fn collective_tags_are_excluded() {
        let logs = vec![
            log_of(0, vec![send(1, COLL_TAG_BASE, 5000, None)]),
            log_of(1, vec![send(0, COLL_TAG_BASE, 8, None)]),
        ];
        assert!(phase_balance(&logs, None).is_empty());
    }

    #[test]
    fn placement_prices_distance() {
        // Rank 0 talks to its NUMA neighbour, rank 2 across sockets: same
        // bytes, different modelled cost.
        let plat = xeon_max_9480();
        let placement = plat.topology.place_ranks(PlacementPolicy::OnePerNuma);
        let logs = vec![
            log_of(0, vec![send(1, 1, 64, Some("u"))]),
            log_of(1, vec![send(0, 1, 64, Some("u"))]),
            log_of(2, vec![send(7, 1, 64, Some("u"))]),
            log_of(3, vec![]),
            log_of(4, vec![]),
            log_of(5, vec![]),
            log_of(6, vec![]),
            log_of(7, vec![send(2, 1, 64, Some("u"))]),
        ];
        let phases = phase_balance(&logs, Some((&placement, &plat.latency)));
        let ph = &phases[0];
        assert!(
            ph.per_rank[2].cost_ns > ph.per_rank[0].cost_ns,
            "cross-socket send must cost more than same-socket: {:?}",
            ph.per_rank
        );
    }
}
