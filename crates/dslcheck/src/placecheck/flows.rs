//! The abstract link-flow domain: exact per-phase `(src, dst, bytes)`
//! message classes for every distributed registry app at an arbitrary rank
//! count, derived *without executing anything*.
//!
//! Each model replicates, arithmetically, the packing loops the app's
//! executable halo-exchange path runs — the same decomposition helpers
//! (`CartComm::balanced` / `decompose_1d`, the RCB partitioner, the
//! remainder slicing of the pose gather) produce the same strip extents,
//! so the byte counts are exact, not estimates. Soundness is not taken on
//! faith: [`crate::placecheck::crosscheck_app`] replays recorded
//! [`CommLog`]s and requires byte-exact agreement per rank pair.
//!
//! Collective traffic (tags at or above [`COLL_TAG_BASE`]) is excluded on
//! both sides: the collectives are library-internal trees whose shape is a
//! transport detail, while placement certification is about the app-level
//! point-to-point schedule.

use crate::registry;
use bwb_machine::{CommDistance, RankPlacement};
use bwb_ops::{Axes, Binding, ChainSpec, Step};
use bwb_shmpi::event::{CommLog, CommOp};
use bwb_shmpi::{CartComm, COLL_TAG_BASE};
use bwb_trace::json::{obj, Json};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Largest rank count the flow models are certified for — matches the
/// parametric schedule templates' [`super::super::comm::parametric`] bound.
pub const FLOW_MAX_RANKS: usize = 128;

/// One bulk-synchronous communication phase: a label (the exchange's
/// `ctx`/site) and every point-to-point message it moves.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseFlow {
    pub ctx: String,
    /// `(src, dst, bytes)` per message, in a deterministic order.
    pub sends: Vec<(usize, usize, u64)>,
}

impl PhaseFlow {
    fn new(ctx: impl Into<String>) -> Self {
        PhaseFlow {
            ctx: ctx.into(),
            sends: Vec::new(),
        }
    }
}

/// Aggregate byte/message flow per [`CommDistance`] class, indexed in
/// [`CommDistance::ALL`] order (nearest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFlows {
    pub bytes: [u64; 4],
    pub msgs: [u64; 4],
}

/// Stable machine-readable slug per link class (JSON keys; the Figure 2
/// labels in `CommDistance::label` contain spaces).
pub fn link_slug(d: CommDistance) -> &'static str {
    match d {
        CommDistance::Hyperthread => "hyperthread",
        CommDistance::SameNuma => "same-numa",
        CommDistance::CrossNuma => "cross-numa",
        CommDistance::CrossSocket => "cross-socket",
    }
}

impl LinkFlows {
    /// Classify aggregated per-pair flows through a placement. Ranks must
    /// all be covered by the placement's assignment list.
    pub fn classify(pairs: &PairFlows, placement: &RankPlacement) -> LinkFlows {
        let mut out = LinkFlows::default();
        for (&(src, dst), &(bytes, msgs)) in &pairs.flows {
            let d = placement.distance(src, dst);
            let i = CommDistance::ALL.iter().position(|&x| x == d).unwrap();
            out.bytes[i] += bytes;
            out.msgs[i] += msgs;
        }
        out
    }

    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    pub fn to_json(&self) -> Json {
        obj(CommDistance::ALL.iter().enumerate().map(|(i, &d)| {
            let flow = obj([
                ("bytes", self.bytes[i].into()),
                ("msgs", self.msgs[i].into()),
            ]);
            (link_slug(d), flow)
        }))
    }
}

/// Total point-to-point traffic aggregated per ordered `(src, dst)` pair:
/// the placement-independent core of the domain. Link classification is a
/// function of the pair alone, so per-pair equality with a recorded run
/// implies per-link equality under *every* placement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PairFlows {
    /// `(src, dst)` → `(bytes, messages)`.
    pub flows: BTreeMap<(usize, usize), (u64, u64)>,
}

impl PairFlows {
    fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        let e = self.flows.entry((src, dst)).or_insert((0, 0));
        e.0 += bytes;
        e.1 += 1;
    }

    /// Collapse phase flows into per-pair totals.
    pub fn from_phases(phases: &[PhaseFlow]) -> PairFlows {
        let mut out = PairFlows::default();
        for p in phases {
            for &(src, dst, bytes) in &p.sends {
                out.add(src, dst, bytes);
            }
        }
        out
    }

    /// Per-pair totals of the point-to-point sends in recorded logs,
    /// excluding collective-internal traffic (tag ≥ [`COLL_TAG_BASE`]).
    pub fn from_logs(logs: &[CommLog]) -> PairFlows {
        let mut out = PairFlows::default();
        for log in logs {
            for ev in &log.events {
                if ev.tag >= COLL_TAG_BASE {
                    continue;
                }
                if let CommOp::Send { dest } = ev.op {
                    out.add(log.rank, dest, ev.bytes as u64);
                }
            }
        }
        out
    }
}

/// The static flow model of a registered app at `n` ranks, or `None` for
/// an app without a distributed half. Phase order follows the app's
/// execution order; each model reads its sizes from the config the entry's
/// `scaled` driver runs with, so the crosscheck replays the exact
/// modelled program.
pub fn static_flows(app: &str, n: usize) -> Option<Vec<PhaseFlow>> {
    assert!(
        (1..=FLOW_MAX_RANKS).contains(&n),
        "flow models are certified for 1..={FLOW_MAX_RANKS} ranks"
    );
    Some((registry::entry(app)?.dist.as_ref()?.flows)(n))
}

/// Names of every app with a flow model, in table order.
pub const FLOW_APPS: [&str; 5] = {
    let mut names = [""; 5];
    let (mut i, mut k) = (0, 0);
    while i < registry::APPS.len() {
        if registry::APPS[i].dist.is_some() {
            names[k] = registry::APPS[i].name;
            k += 1;
        }
        i += 1;
    }
    assert!(k == names.len());
    names
};

/// A ranked structured app's halo phases, from the `Exchange` steps of its
/// declared distributed `chain`, in order, over `iterations` body
/// iterations on the layout `cart`. `axes` binds, per axis of `cart`, the
/// chain parameter of the local extent and the global extent it splits.
/// Each exchange is one phase of the face exchange `bwb_ops::halo` runs:
/// per axis `d` it passes over with a neighbour, a strip of `depth` points
/// along `d`, the
/// axes before `d` extended into their ghosts and those after it over their
/// interior, at the dat's local extent (a node field's is one point longer
/// than its cells) and element size. (Collectives and the final gather are
/// not point-to-point halo traffic.) An exchange passes over the axes it
/// declares and over every axis no exchange of the chain declares: one the
/// described run did not split, so the declaration is silent on it.
pub(crate) fn chain_exchanges(
    chain: &ChainSpec,
    cart: &CartComm,
    axes: &[(&'static str, usize)],
    iterations: usize,
) -> Vec<PhaseFlow> {
    // Each rank's chain binding: its local extent per axis.
    let bindings: Vec<Binding> = (0..cart.size())
        .map(|r| {
            axes.iter()
                .enumerate()
                .fold(Binding::new(), |b, (a, &(param, n))| {
                    b.set(param, cart.decompose_1d(r, a, n).1 as isize)
                })
        })
        .collect();
    let body = (0..iterations).flat_map(|_| &chain.body);
    let steps = chain.prologue.iter().chain(body).chain(&chain.epilogue);
    let declared = steps.clone().fold(Axes::default(), |all, step| match step {
        Step::Exchange { axes, .. } => all.union(*axes),
        _ => all,
    });
    let mut phases = Vec::new();
    for step in steps {
        let Step::Exchange {
            dat,
            depth,
            site,
            axes,
        } = *step
        else {
            continue;
        };
        let passes = |d: usize| axes.iter().any(|a| a == d) || !declared.iter().any(|a| a == d);
        let d = &chain.dats[dat];
        let ctx = format!("{site}/{}", d.name);
        let mut p = PhaseFlow::new(ctx.trim_start_matches('/'));
        for (r, binding) in bindings.iter().enumerate() {
            let ext = d
                .extent
                .each_ref()
                .map(|e| e.eval(binding).expect("extent bound per axis") as usize);
            for dim in (0..cart.ndims()).filter(|&d| passes(d)) {
                let points: usize = (0..3)
                    .map(|a| match a.cmp(&dim) {
                        Ordering::Less => ext[a] + 2 * depth,
                        Ordering::Equal => depth,
                        Ordering::Greater => ext[a],
                    })
                    .product();
                for dir in [-1isize, 1] {
                    if let Some(nbr) = cart.shift(r, dim, dir) {
                        p.sends.push((r, nbr, (points * d.elem_bytes) as u64));
                    }
                }
            }
        }
        phases.push(p);
    }
    phases
}

/// MG-CFD: every rank deterministically rebuilds the mesh, so the
/// import/export lists are a
/// pure function of `(cfg, n)`: one `RankHalo` gather exchange of the
/// state (`q`, NVAR f64 per exported node) and one scatter-add of the
/// residual (`res`, NVAR f64 per *imported* node).
pub(crate) fn mgcfd(n: usize) -> Vec<PhaseFlow> {
    use bwb_apps::mgcfd::{MgCfd, NVAR};
    use bwb_op2::{edge_ownership, rcb_partition, CutEdgeRule, RankHalo};
    let mut sim = MgCfd::new(registry::mgcfd_scaled_cfg());
    sim.perturb(0.05);
    let lv = &sim.levels[0];
    let n_nodes = lv.nodes.size;
    let mut flat = Vec::with_capacity(n_nodes * 2);
    for nid in 0..n_nodes {
        flat.push(lv.coords.get(nid, 0));
        flat.push(lv.coords.get(nid, 1));
    }
    let node_part = rcb_partition(&flat, 2, n);
    let edge_part = edge_ownership(&lv.e2n, &node_part, CutEdgeRule::Parity);
    let halos: Vec<RankHalo> = (0..n)
        .map(|r| RankHalo::build(&lv.e2n, &edge_part, &node_part, n, r))
        .collect();

    let mut q = PhaseFlow::new("q");
    let mut res = PhaseFlow::new("res");
    for (r, halo) in halos.iter().enumerate() {
        for p in 0..n {
            if !halo.exports[p].is_empty() {
                q.sends
                    .push((r, p, (halo.exports[p].len() * NVAR * 8) as u64));
            }
        }
        for p in 0..n {
            if !halo.imports[p].is_empty() {
                res.sends
                    .push((r, p, (halo.imports[p].len() * NVAR * 8) as u64));
            }
        }
    }
    vec![q, res]
}

/// miniBUDE: one many-to-one phase: rank `r > 0` sends its contiguous
/// pose-energy slice (f32) to rank 0, slice bounds by the same `n·r/size`
/// remainder arithmetic the app uses.
pub(crate) fn minibude(n: usize) -> Vec<PhaseFlow> {
    let n_poses = registry::minibude_scaled_cfg(n).n_poses;
    let mut p = PhaseFlow::new("pose_energies");
    for r in 1..n {
        let lo = n_poses * r / n;
        let hi = n_poses * (r + 1) / n;
        p.sends.push((r, 0, ((hi - lo) * 4) as u64));
    }
    vec![p]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_machine::{platforms, PlacementPolicy};

    #[test]
    fn every_app_has_flows_at_every_gate_size() {
        for app in FLOW_APPS {
            for n in [4usize, 16, 64, 112] {
                let phases = static_flows(app, n).expect("registered app");
                assert!(!phases.is_empty(), "{app}@{n}");
                let pairs = PairFlows::from_phases(&phases);
                assert!(pairs.flows.keys().all(|&(s, d)| s < n && d < n && s != d));
            }
        }
    }

    #[test]
    fn pair_totals_are_placement_invariant_but_links_are_not() {
        let phases = static_flows("cloverleaf2d", 16).unwrap();
        let pairs = PairFlows::from_phases(&phases);
        let p = platforms::xeon_max_9480();
        let compact = p.topology.place_ranks(PlacementPolicy::OnePerCore);
        let scatter = p.topology.place_ranks(PlacementPolicy::Scatter);
        let lc = LinkFlows::classify(&pairs, &compact);
        let ls = LinkFlows::classify(&pairs, &scatter);
        assert_eq!(lc.total_bytes(), ls.total_bytes());
        // Compact keeps the cart neighbours on-package; scatter pushes
        // traffic to the cross-NUMA/cross-socket classes.
        assert!(lc.bytes[1] > ls.bytes[1]);
        assert!(ls.bytes[2] + ls.bytes[3] > lc.bytes[2] + lc.bytes[3]);
    }

    #[test]
    fn minibude_slices_cover_every_pose_exactly_once() {
        let n = 7;
        let phases = static_flows("minibude", n).unwrap();
        let total: u64 = phases[0].sends.iter().map(|&(_, _, b)| b).sum();
        let n_poses = registry::minibude_scaled_cfg(n).n_poses;
        let rank0 = n_poses / n; // rank 0 keeps its own slice
        assert_eq!(total, ((n_poses - rank0) * 4) as u64);
    }

    #[test]
    fn collective_traffic_is_excluded_from_observed_pairs() {
        use crate::comm::testutil::log_of;
        use bwb_shmpi::event::CommEvent;
        let coll = CommEvent {
            op: CommOp::Send { dest: 1 },
            tag: COLL_TAG_BASE + 3,
            bytes: 64,
            ctx: None,
        };
        let p2p = CommEvent {
            op: CommOp::Send { dest: 1 },
            tag: 7,
            bytes: 24,
            ctx: None,
        };
        let pairs = PairFlows::from_logs(&[log_of(0, vec![coll, p2p])]);
        assert_eq!(pairs.flows.get(&(0, 1)), Some(&(24, 1)));
    }
}
