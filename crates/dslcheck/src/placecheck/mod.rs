//! placecheck: static NUMA-placement certification and auto-search over
//! the registry apps' communication schedules.
//!
//! The analyzer never executes a kernel. Per app it derives exact
//! per-phase `(src, dst, bytes)` message classes ([`flows`]) by replaying
//! the app's decomposition arithmetic, classifies them through a
//! [`bwb_machine::RankPlacement`] into per-link byte flows (hyperthread /
//! same-NUMA / cross-NUMA / cross-socket), prices every candidate
//! placement with the machine's latency model, and emits a certified
//! [`PlacementPlan`] whose dominance claim is the exhaustively priced
//! candidate space itself ([`search`]).
//!
//! Soundness is earned the speccheck way: [`crosscheck_app`] replays
//! recorded [`CommLog`]s at small rank counts and requires the static
//! per-pair byte flows to match the observed traffic *exactly* — and
//! per-pair equality implies per-link equality under every placement,
//! because a message's link class is a function of its endpoint pair
//! alone. `analyze --placement` gates CI on all of it.

pub mod flows;
pub mod search;

pub use flows::{link_slug, static_flows, LinkFlows, PairFlows, PhaseFlow, FLOW_APPS};
pub use search::{
    candidates, phase_cost_ns, search, verify_plan, CandidateCost, DomainPerm, PlacementPlan,
};

use crate::registry;
use crate::violation::{Kind, Violation};
use bwb_machine::{platforms, Platform, ShardPolicy};
use bwb_shmpi::event::CommLog;
use bwb_shmpi::Universe;
use bwb_trace::json::{obj, Json};

/// Rank counts where static flows are diffed against recorded runs.
pub const CROSSCHECK_RANKS: [usize; 2] = [4, 16];

/// Rank counts the CI gate certifies plans at (recording at 64/112 would
/// be slow; the crosscheck at small N plus the parametric-template bound
/// carries the extrapolation, exactly as in the commcheck family).
pub const GATE_RANKS: [usize; 4] = [4, 16, 64, 112];

/// Record the communication log of a registered app's `scaled` driver at
/// `n` ranks (executes the app — crosscheck only; the static path never
/// calls this).
pub fn recorded_logs(app: &str, n: usize) -> Option<Vec<CommLog>> {
    let dist = registry::entry(app)?.dist.as_ref()?;
    Some(Universe::run_logged(n, dist.scaled).1)
}

/// Diff the static per-pair byte flows against a recorded run at `n`
/// ranks. Any divergent pair is reported as a [`Kind::PlacementFlowDivergence`]
/// with the pair spelled into the link field — exact match required, so a
/// clean result certifies the flow model byte-for-byte.
pub fn crosscheck_app(app: &str, n: usize) -> Vec<Violation> {
    let Some(phases) = static_flows(app, n) else {
        return Vec::new();
    };
    let logs = recorded_logs(app, n).expect("modelled apps are runnable");
    let expected = PairFlows::from_phases(&phases);
    let observed = PairFlows::from_logs(&logs);
    let mut violations = Vec::new();
    let pairs: std::collections::BTreeSet<(usize, usize)> = expected
        .flows
        .keys()
        .chain(observed.flows.keys())
        .copied()
        .collect();
    for pair in pairs {
        let e = expected.flows.get(&pair).copied().unwrap_or((0, 0));
        let o = observed.flows.get(&pair).copied().unwrap_or((0, 0));
        if e != o {
            violations.push(Violation {
                app: app.to_string(),
                kind: Kind::PlacementFlowDivergence {
                    app: app.to_string(),
                    ranks: n,
                    link: format!("r{}->r{}", pair.0, pair.1),
                    expected_bytes: e.0,
                    observed_bytes: o.0,
                },
            });
        }
    }
    violations
}

/// Everything placecheck knows about one app: a certified plan per gate
/// rank count, which rank counts were crosschecked against recordings,
/// the total candidate-space size searched, and any violations.
pub struct PlacementReport {
    pub app: String,
    pub plans: Vec<PlacementPlan>,
    pub crosschecked: Vec<usize>,
    /// Candidates priced across all gate rank counts (the dominance
    /// proof's search-space size; BENCH trajectories record it).
    pub searched: usize,
    pub violations: Vec<Violation>,
}

impl PlacementReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("app", self.app.as_str().into()),
            ("clean", self.clean().into()),
            ("searched", self.searched.into()),
            (
                "crosschecked",
                self.crosschecked.iter().map(|&n| n.into()).collect(),
            ),
            (
                "plans",
                self.plans.iter().map(PlacementPlan::to_json).collect(),
            ),
            (
                "violations",
                self.violations.iter().map(Violation::to_json).collect(),
            ),
        ])
    }
}

/// Certify one app on a platform: search + self-verify a plan at every
/// gate rank count, then crosscheck the flow model against recorded runs
/// at the small counts.
pub fn placement_check_app(app: &str, platform: &Platform) -> PlacementReport {
    let mut plans = Vec::new();
    let mut violations = Vec::new();
    let mut searched = 0usize;
    for &n in &GATE_RANKS {
        let plan = search(app, n, platform).expect("registered app");
        searched += plan.space.len();
        violations.extend(verify_plan(&plan, platform));
        if plan.best_cost_ns > plan.baseline_cost_ns + 1e-6 {
            violations.push(Violation {
                app: app.to_string(),
                kind: Kind::DominatedPlacement {
                    app: app.to_string(),
                    ranks: n,
                    claimed: plan.best.clone(),
                    claimed_cost_ns: plan.best_cost_ns.round() as u64,
                    better: plan.baseline.clone(),
                    better_cost_ns: plan.baseline_cost_ns.round() as u64,
                },
            });
        }
        plans.push(plan);
    }
    let mut crosschecked = Vec::new();
    for &n in &CROSSCHECK_RANKS {
        violations.extend(crosscheck_app(app, n));
        crosschecked.push(n);
    }
    PlacementReport {
        app: app.to_string(),
        plans,
        crosschecked,
        searched,
        violations,
    }
}

/// The CI gate: certify every registry app on the Xeon MAX descriptor.
pub fn placement_check_all() -> Vec<PlacementReport> {
    let platform = platforms::xeon_max_9480();
    registry::distributed()
        .map(|(e, _)| placement_check_app(e.name, &platform))
        .collect()
}

/// The shard policy placecheck certifies for running `app` at `ranks`
/// inside one of `n_shards` carves of `platform` — what bwb-serve uses in
/// place of its old hardcoded `OnePerNuma`. Prices the app's flows on
/// shard 0 of each carvable policy and returns the cheaper one (ties
/// favor OnePerNuma, the historical default). `None` when the app has no
/// flow model or no policy yields a feasible carve.
pub fn certified_shard_policy(
    app: &str,
    ranks: usize,
    platform: &Platform,
    n_shards: usize,
) -> Option<ShardPolicy> {
    let phases = static_flows(app, ranks)?;
    let mut best: Option<(f64, ShardPolicy)> = None;
    for policy in [ShardPolicy::OnePerNuma, ShardPolicy::Packed] {
        let Ok(shards) = platform.topology.carve_shards(n_shards, policy) else {
            continue;
        };
        let shard = &shards[0];
        if shard.n_ranks() < ranks {
            continue;
        }
        let cost = phase_cost_ns(&phases, shard, &platform.latency, ranks);
        let better = match best {
            None => true,
            Some((c, _)) => cost + 1e-6 < c,
        };
        if better {
            best = Some((cost, policy));
        }
    }
    best.map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosscheck_is_exact_at_four_ranks() {
        for app in FLOW_APPS {
            let vs = crosscheck_app(app, 4);
            assert!(
                vs.is_empty(),
                "{app}: {:?}",
                vs.first().map(|v| v.to_string())
            );
        }
    }

    /// Report JSON must survive any app name: every string field goes
    /// through the one escape function.
    #[test]
    fn report_json_escapes_hostile_names() {
        use bwb_trace::json::{parse, Json};
        let name = "a\"b\\c";
        let dataflow = crate::DataflowReport::limited(name, 0, crate::Limitation::NoDslLoops);
        let doc = parse(&dataflow.to_json().to_string()).expect("dataflow report parses");
        assert_eq!(doc.get("app").and_then(Json::as_str), Some(name));

        let mut plan = search("minibude", 4, &platforms::xeon_max_9480()).unwrap();
        plan.app = name.to_string();
        let report = PlacementReport {
            app: name.to_string(),
            plans: vec![plan],
            crosschecked: vec![4],
            searched: 1,
            violations: Vec::new(),
        };
        let doc = parse(&report.to_json().to_string()).expect("placement report parses");
        assert_eq!(doc.get("app").and_then(Json::as_str), Some(name));
        let plans = doc.get("plans").and_then(Json::as_array).unwrap();
        assert_eq!(plans[0].get("app").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn certified_shard_policy_is_deterministic_and_feasible() {
        let p = platforms::xeon_max_9480();
        let a = certified_shard_policy("acoustic", 4, &p, 2);
        assert!(a.is_some());
        assert_eq!(a, certified_shard_policy("acoustic", 4, &p, 2));
        // A 3-way carve is not OnePerNuma-divisible on 8 domains… but it
        // is carvable (8 = 3+3+2), so some policy must still qualify.
        assert!(certified_shard_policy("acoustic", 4, &p, 3).is_some());
    }
}
