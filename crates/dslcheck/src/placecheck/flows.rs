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
use bwb_apps::{acoustic, cloverleaf2d};
use bwb_machine::{CommDistance, RankPlacement};
use bwb_shmpi::event::{CommLog, CommOp};
use bwb_shmpi::{CartComm, COLL_TAG_BASE};
use bwb_trace::json::{obj, Json};
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

/// Face-neighbour sends of one `DistBlock2` exchange of an f64 field with
/// `extra` more points per dimension than cells (0 for cell fields, 1 for
/// node fields): dim-0 strips are `d × ny` elements, dim-1 strips are
/// `d × (nx + 2d)` (rows extended into the x halos) — exactly the packing
/// loops in `bwb_ops::halo::DistBlock2::{exchange_halo_dim,
/// exchange_node_halo_inner}`.
fn exchange_sends(
    cart: &CartComm,
    (gnx, gny): (usize, usize),
    extra: usize,
    depth: usize,
    out: &mut PhaseFlow,
) {
    for r in 0..cart.size() {
        let nx = cart.decompose_1d(r, 0, gnx).1 + extra;
        let ny = cart.decompose_1d(r, 1, gny).1 + extra;
        for (dim, strip) in [(0usize, depth * ny), (1, depth * (nx + 2 * depth))] {
            for dir in [-1isize, 1] {
                if let Some(nbr) = cart.shift(r, dim, dir) {
                    out.sends.push((r, nbr, (strip * 8) as u64));
                }
            }
        }
    }
}

/// CloverLeaf 2D: depth-2 cell halos (f64), depth-1 node-velocity halos.
/// Per cycle the exchange sites run in execution order `cells0`, `vel0`,
/// `cells1`, `cells2`, `vel1`; cell sites move six fields, velocity sites
/// four. (`calc_dt`'s allreduce and the final density gather are
/// collectives.)
pub(crate) fn cloverleaf2d(n: usize) -> Vec<PhaseFlow> {
    const CELL_FIELDS: [&str; 6] = [
        "density0",
        "energy0",
        "pressure",
        "viscosity",
        "density1",
        "energy1",
    ];
    const VEL_FIELDS: [&str; 4] = ["xvel0", "yvel0", "xvel1", "yvel1"];
    let cfg = registry::clover2_scaled_cfg();
    let cart = CartComm::balanced(n, 2);
    let mut phases = Vec::new();
    let mut site = |site: &str, fields: &[&str], extra: usize, depth: usize| {
        for f in fields {
            let mut p = PhaseFlow::new(format!("{site}/{f}"));
            exchange_sends(&cart, (cfg.nx, cfg.ny), extra, depth, &mut p);
            phases.push(p);
        }
    };
    for _ in 0..cfg.iterations {
        site("cells0", &CELL_FIELDS, 0, cloverleaf2d::HALO);
        site("vel0", &VEL_FIELDS, 1, 1);
        site("cells1", &CELL_FIELDS, 0, cloverleaf2d::HALO);
        site("cells2", &CELL_FIELDS, 0, cloverleaf2d::HALO);
        site("vel1", &VEL_FIELDS, 1, 1);
    }
    phases
}

/// Acoustic: radius-4 f32 halos over a balanced 3-D decomposition. Per
/// iteration one exchange: X strips `d·ny·nz`, Y strips `d·(nx+2d)·nz`
/// (X-extended), Z strips `d·(nx+2d)·(ny+2d)` (XY-extended) —
/// `DistBlock3::exchange_halo`.
pub(crate) fn acoustic(n: usize) -> Vec<PhaseFlow> {
    let cfg = registry::acoustic_scaled_cfg();
    let d = acoustic::RADIUS;
    let cart = CartComm::balanced(n, 3);
    let mut phases = Vec::new();
    for it in 0..cfg.iterations {
        let mut p = PhaseFlow::new(format!("u_curr@{it}"));
        for r in 0..n {
            let nx = cart.decompose_1d(r, 0, cfg.n).1;
            let ny = cart.decompose_1d(r, 1, cfg.n).1;
            let nz = cart.decompose_1d(r, 2, cfg.n).1;
            let strips = [
                d * ny * nz,
                d * (nx + 2 * d) * nz,
                d * (nx + 2 * d) * (ny + 2 * d),
            ];
            for (dim, strip) in strips.into_iter().enumerate() {
                for dir in [-1isize, 1] {
                    if let Some(nbr) = cart.shift(r, dim, dir) {
                        p.sends.push((r, nbr, (strip * 4) as u64));
                    }
                }
            }
        }
        phases.push(p);
    }
    phases
}

/// miniWeather on its weak-scaled ring. Each step runs both
/// dimensional-split passes (x then z, alternating order), each pass three
/// RK3 stages, and *every* stage's tendencies call refreshes the ring
/// halos of the four state fields: every rank ships its 2-deep edge
/// columns (`2·nz` f64) to both periodic neighbours.
pub(crate) fn miniweather(n: usize) -> Vec<PhaseFlow> {
    const DIRS: usize = 2;
    const RK_STAGES: usize = 3;
    const FIELDS: [&str; 4] = ["dens", "umom", "wmom", "rhot"];
    let strip = (2 * registry::miniweather_scaled_cfg(n).nz * 8) as u64;
    let mut phases = Vec::new();
    for step in 0..registry::MINIWEATHER_STEPS {
        for dir in 0..DIRS {
            for stage in 0..RK_STAGES {
                for f in FIELDS {
                    let mut p = PhaseFlow::new(format!("{f}@{step}.{dir}.{stage}"));
                    for r in 0..n {
                        let left = (r + n - 1) % n;
                        let right = (r + 1) % n;
                        p.sends.push((r, left, strip));
                        p.sends.push((r, right, strip));
                    }
                    phases.push(p);
                }
            }
        }
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
