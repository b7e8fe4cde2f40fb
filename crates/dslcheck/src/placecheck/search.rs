//! Placement search and plan certification: enumerate a finite candidate
//! space of rank→core maps, price each against the latency model with the
//! bulk-synchronous critical-path cost, and emit a [`PlacementPlan`] whose
//! dominance claim any consumer can re-derive from the plan alone.

use super::flows::{static_flows, LinkFlows, PairFlows, PhaseFlow};
use crate::violation::{Kind, Violation};
use bwb_machine::{CoreId, PlacementPolicy, Platform, RankPlacement};
use bwb_shmpi::SW_OVERHEAD_NS;
use bwb_trace::json::{obj, Json};

/// Cost-comparison slack: candidate costs are sums of exact f64 latency
/// table entries, so anything past rounding noise is a real difference.
const COST_EPS_NS: f64 = 1e-6;

/// NUMA-domain relabelings layered over each placement policy. Relabeling
/// maps every assigned core's flat domain index `d` to `π(d)` while
/// keeping the core/SMT slot and the rank order, so it explores how the
/// *same shape* of placement lands on differently-adjacent domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainPerm {
    /// The policy's native domain order.
    Identity,
    /// Domains visited in reverse: pushes low ranks to the far socket.
    Reverse,
    /// Sockets interleaved: domain sequence 0, nps, 1, nps+1, … — adjacent
    /// ranks of domain-major policies straddle the UPI link.
    SocketInterleave,
}

impl DomainPerm {
    pub const ALL: [DomainPerm; 3] = [
        DomainPerm::Identity,
        DomainPerm::Reverse,
        DomainPerm::SocketInterleave,
    ];

    pub fn label(self) -> &'static str {
        match self {
            DomainPerm::Identity => "identity",
            DomainPerm::Reverse => "reverse",
            DomainPerm::SocketInterleave => "socket-interleave",
        }
    }

    /// π over flat domain indices `0..total` with `nps` domains per socket.
    fn apply(self, d: u16, total: u16, nps: u16) -> u16 {
        match self {
            DomainPerm::Identity => d,
            DomainPerm::Reverse => total - 1 - d,
            DomainPerm::SocketInterleave => {
                // position 2k ↦ domain k of socket 0, 2k+1 ↦ domain k of
                // socket 1 (generalises to s sockets round-robin).
                let sockets = total / nps;
                (d % sockets) * nps + d / sockets
            }
        }
    }
}

/// Relabel the NUMA domain of every core in a placement.
fn relabel_domains(base: &RankPlacement, perm: DomainPerm, nps: u16, total: u16) -> Vec<CoreId> {
    base.assignments
        .iter()
        .map(|c| {
            let flat = c.socket * nps + c.numa;
            let mapped = perm.apply(flat, total, nps);
            CoreId {
                socket: mapped / nps,
                numa: mapped % nps,
                core: c.core,
                smt: c.smt,
            }
        })
        .collect()
}

/// One priced point of the enumerated candidate space.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateCost {
    /// `"<policy>/<perm>"`, e.g. `"scatter/socket-interleave"`.
    pub label: String,
    pub cost_ns: f64,
}

/// A certified placement: the winning candidate, its cost bound, the full
/// priced space backing the dominance claim, and the link-flow summary
/// the crosscheck validates against recorded runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    pub app: String,
    pub ranks: usize,
    pub machine: String,
    /// Label of the winning candidate.
    pub best: String,
    pub best_cost_ns: f64,
    pub policy: PlacementPolicy,
    /// Explicit rank→core map of the winner (first `ranks` slots used).
    pub assignments: Vec<CoreId>,
    /// The serve/ROADMAP status-quo candidate the winner is measured
    /// against: first feasible of OnePerNuma, OnePerCore (identity perm).
    pub baseline: String,
    pub baseline_cost_ns: f64,
    /// Every enumerated candidate, priced — the dominance proof.
    pub space: Vec<CandidateCost>,
    /// Static per-link byte/message flows under the winning placement.
    pub links: LinkFlows,
}

impl PlacementPlan {
    /// The winner as an executable `RankPlacement` (what
    /// `Universe::run_placed` and serve's shard pool consume).
    pub fn rank_placement(&self) -> RankPlacement {
        RankPlacement {
            policy: self.policy,
            assignments: self.assignments.clone(),
        }
    }

    pub fn to_json(&self) -> Json {
        let assignments = self.assignments.iter().map(|c| {
            obj([
                ("socket", c.socket.into()),
                ("numa", c.numa.into()),
                ("core", c.core.into()),
                ("smt", c.smt.into()),
            ])
        });
        let space = self.space.iter().map(|c| {
            obj([
                ("label", c.label.as_str().into()),
                ("cost_ns", c.cost_ns.into()),
            ])
        });
        obj([
            ("app", self.app.as_str().into()),
            ("ranks", self.ranks.into()),
            ("machine", self.machine.as_str().into()),
            ("best", self.best.as_str().into()),
            ("best_cost_ns", self.best_cost_ns.into()),
            ("policy", self.policy.label().into()),
            ("baseline", self.baseline.as_str().into()),
            ("baseline_cost_ns", self.baseline_cost_ns.into()),
            ("links", self.links.to_json()),
            ("assignments", assignments.collect()),
            ("space", space.collect()),
        ])
    }
}

/// Bulk-synchronous critical-path cost of a phase list under a placement:
/// per phase, the slowest rank's serialized send cost (each message priced
/// at `mpi_latency_ns(distance, SW_OVERHEAD_NS)`); phases sum because the
/// exchanges the models describe are separated by computation.
pub fn phase_cost_ns(
    phases: &[PhaseFlow],
    placement: &RankPlacement,
    lat: &bwb_machine::LatencyProfile,
    ranks: usize,
) -> f64 {
    let mut per_rank = vec![0.0f64; ranks];
    let mut total = 0.0;
    for phase in phases {
        per_rank.iter_mut().for_each(|c| *c = 0.0);
        for &(src, dst, _bytes) in &phase.sends {
            per_rank[src] += lat.mpi_latency_ns(placement.distance(src, dst), SW_OVERHEAD_NS);
        }
        total += per_rank.iter().cloned().fold(0.0, f64::max);
    }
    total
}

/// Enumerate the candidate space for `n` ranks on a platform: every
/// feasible policy (enough rank slots) × every domain relabeling. The
/// identity-perm variants come first so ties resolve toward the familiar
/// native orders. Truncates each placement to exactly `n` assignments.
pub fn candidates(platform: &Platform, n: usize) -> Vec<(String, PlacementPolicy, RankPlacement)> {
    let nps = platform.topology.numa_per_socket;
    let total = platform.topology.total_numa() as u16;
    let mut out = Vec::new();
    for perm in DomainPerm::ALL {
        for policy in PlacementPolicy::ALL {
            let base = platform.topology.place_ranks(policy);
            if base.n_ranks() < n {
                continue;
            }
            let mut assignments = relabel_domains(&base, perm, nps, total);
            assignments.truncate(n);
            out.push((
                format!("{}/{}", policy.label(), perm.label()),
                policy,
                RankPlacement {
                    policy,
                    assignments,
                },
            ));
        }
    }
    out
}

/// Label of the status-quo baseline candidate at this rank count: serve's
/// hardcoded OnePerNuma when it fits, else plain compact cores.
fn baseline_label(platform: &Platform, n: usize) -> String {
    for policy in [PlacementPolicy::OnePerNuma, PlacementPolicy::OnePerCore] {
        if platform.topology.place_ranks(policy).n_ranks() >= n {
            return format!("{}/identity", policy.label());
        }
    }
    format!("{}/identity", PlacementPolicy::OnePerThread.label())
}

/// Exhaustively price the candidate space for `app` at `n` ranks and
/// return the certified plan, or `None` for apps without a flow model.
pub fn search(app: &str, n: usize, platform: &Platform) -> Option<PlacementPlan> {
    let phases = static_flows(app, n)?;
    let pairs = PairFlows::from_phases(&phases);
    let cands = candidates(platform, n);
    assert!(!cands.is_empty(), "no feasible placement for {n} ranks");
    let space: Vec<(CandidateCost, PlacementPolicy, RankPlacement)> = cands
        .into_iter()
        .map(|(label, policy, placement)| {
            let cost_ns = phase_cost_ns(&phases, &placement, &platform.latency, n);
            (CandidateCost { label, cost_ns }, policy, placement)
        })
        .collect();
    let (best_idx, _) = space
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.0.cost_ns.total_cmp(&b.0.cost_ns))
        .unwrap();
    let (best_cand, best_policy, best_placement) = space[best_idx].clone();
    let baseline = baseline_label(platform, n);
    let baseline_cost_ns = space
        .iter()
        .find(|(c, _, _)| c.label == baseline)
        .map(|(c, _, _)| c.cost_ns)
        .unwrap_or(best_cand.cost_ns);
    let links = LinkFlows::classify(&pairs, &best_placement);
    Some(PlacementPlan {
        app: app.to_string(),
        ranks: n,
        machine: platform.name.clone(),
        best: best_cand.label.clone(),
        best_cost_ns: best_cand.cost_ns,
        policy: best_policy,
        assignments: best_placement.assignments,
        baseline,
        baseline_cost_ns,
        space: space.into_iter().map(|(c, _, _)| c).collect(),
        links,
    })
}

/// Re-derive every claim in a plan from first principles and report what
/// does not hold. An honest plan from [`search`] verifies clean; a tampered
/// one (inflated link flows, an understated cost bound, a winner that some
/// enumerated candidate actually beats) is rejected.
pub fn verify_plan(plan: &PlacementPlan, platform: &Platform) -> Vec<Violation> {
    let mut violations = Vec::new();
    let Some(phases) = static_flows(&plan.app, plan.ranks) else {
        return violations;
    };
    let pairs = PairFlows::from_phases(&phases);
    let placement = plan.rank_placement();

    // 1. The plan's claimed per-link flows must equal the flows its own
    //    placement actually induces.
    let derived = LinkFlows::classify(&pairs, &placement);
    for (i, &d) in bwb_machine::CommDistance::ALL.iter().enumerate() {
        if derived.bytes[i] != plan.links.bytes[i] {
            violations.push(Violation {
                app: plan.app.clone(),
                kind: Kind::PlacementFlowDivergence {
                    app: plan.app.clone(),
                    ranks: plan.ranks,
                    link: super::flows::link_slug(d).to_string(),
                    expected_bytes: derived.bytes[i],
                    observed_bytes: plan.links.bytes[i],
                },
            });
        }
    }

    // 2. The claimed cost bound must cover the recomputed cost of the
    //    claimed winner, and no canonically-enumerated candidate may beat
    //    it: both failures surface as a dominated claim.
    let recomputed = phase_cost_ns(&phases, &placement, &platform.latency, plan.ranks);
    if recomputed > plan.best_cost_ns + COST_EPS_NS {
        violations.push(Violation {
            app: plan.app.clone(),
            kind: Kind::DominatedPlacement {
                app: plan.app.clone(),
                ranks: plan.ranks,
                claimed: plan.best.clone(),
                claimed_cost_ns: plan.best_cost_ns.round() as u64,
                better: format!("{} (recomputed)", plan.best),
                better_cost_ns: recomputed.round() as u64,
            },
        });
    }
    for (label, _, cand) in candidates(platform, plan.ranks) {
        let cost = phase_cost_ns(&phases, &cand, &platform.latency, plan.ranks);
        if cost + COST_EPS_NS < recomputed.min(plan.best_cost_ns) {
            violations.push(Violation {
                app: plan.app.clone(),
                kind: Kind::DominatedPlacement {
                    app: plan.app.clone(),
                    ranks: plan.ranks,
                    claimed: plan.best.clone(),
                    claimed_cost_ns: plan.best_cost_ns.round() as u64,
                    better: label,
                    better_cost_ns: cost.round() as u64,
                },
            });
            break; // one witness suffices
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_machine::platforms;

    #[test]
    fn search_beats_or_matches_one_per_numa_everywhere() {
        let p = platforms::xeon_max_9480();
        for app in super::super::flows::FLOW_APPS {
            for n in [4usize, 16, 64, 112] {
                let plan = search(app, n, &p).unwrap();
                assert!(
                    plan.best_cost_ns <= plan.baseline_cost_ns + COST_EPS_NS,
                    "{app}@{n}: best {} > baseline {}",
                    plan.best_cost_ns,
                    plan.baseline_cost_ns
                );
                assert_eq!(plan.assignments.len(), n);
                assert!(verify_plan(&plan, &p).is_empty(), "{app}@{n} not clean");
            }
        }
    }

    #[test]
    fn domain_perms_are_bijections() {
        for perm in DomainPerm::ALL {
            for (total, nps) in [(8u16, 4u16), (2, 1), (4, 2)] {
                let mut seen = vec![false; total as usize];
                for d in 0..total {
                    let m = perm.apply(d, total, nps);
                    assert!(!seen[m as usize], "{perm:?} collides at {d}");
                    seen[m as usize] = true;
                }
            }
        }
    }

    #[test]
    fn tampered_link_flows_are_rejected() {
        let p = platforms::xeon_max_9480();
        let mut plan = search("miniweather", 16, &p).unwrap();
        // Under-count the busiest link class by one byte: a lying plan.
        let i = (0..4).max_by_key(|&i| plan.links.bytes[i]).unwrap();
        plan.links.bytes[i] -= 1;
        let vs = verify_plan(&plan, &p);
        assert!(vs
            .iter()
            .any(|v| v.kind.tag() == "placement_flow_divergence"));
    }

    #[test]
    fn understated_cost_bound_is_dominated() {
        let p = platforms::xeon_max_9480();
        let mut plan = search("cloverleaf2d", 16, &p).unwrap();
        plan.best_cost_ns /= 2.0; // claim a bound the winner cannot meet
        let vs = verify_plan(&plan, &p);
        assert!(vs.iter().any(|v| v.kind.tag() == "dominated_placement"));
    }
}
