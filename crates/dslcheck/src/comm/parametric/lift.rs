//! Lift concrete per-rank [`CommLog`]s into one rank-parametric
//! [`ScheduleTemplate`](super::ScheduleTemplate).
//!
//! Lifting is a three-step abstraction:
//!
//! 1. **Segmentation** — each rank's event stream is cut into maximal
//!    *sends-then-receives* runs sharing one dat attribution (`ctx`).
//!    Cut points are: a ctx change, any non-point-to-point event
//!    (barrier / collective marker), or a send issued after a receive
//!    within the current run. Point-to-point traffic with a tag at or
//!    above [`COLL_TAG_BASE`] is collective-internal and is absorbed
//!    into the preceding collective marker. By construction every
//!    segment posts all of its sends before its first blocking receive
//!    — the premise of the sends-first deadlock theorem (DESIGN.md
//!    §2.7).
//! 2. **Alignment** — the per-rank item streams must be congruent:
//!    same length, same item kind and ctx in every column. A rank whose
//!    stream diverges cannot be described by one template and yields
//!    [`Kind::TemplateDivergence`].
//! 3. **Classification** — each aligned column of segments is matched
//!    against the closed neighbor relation of the app's declared
//!    [`TopologyFamily`]: Cartesian halo sweeps (`dims_create`
//!    coordinates), ring shifts, peer exchanges over a partition-induced
//!    graph (duality checked pairwise), or a gather/scatter star. The
//!    classifier verifies send/receive *duality* concretely on the base
//!    run — every send maps to the unique receive the pattern's dual
//!    posts — so matching completeness of the lifted template is
//!    witnessed, not assumed.
//!
//! Classification failure distinguishes a send with no dual receive
//! ([`Kind::SymbolicUnmatchedSend`]) from a schedule that simply does
//! not fit the family ([`Kind::TemplateDivergence`]).

use super::{PhasePattern, PhaseTemplate, RankGuard, ScheduleTemplate, TopologyFamily};
use crate::violation::{Kind, Violation};
use bwb_shmpi::{CartComm, CommLog, CommOp, COLL_TAG_BASE};
use std::collections::BTreeSet;

/// One maximal sends-then-receives run of point-to-point events sharing
/// a ctx, on one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seg {
    ctx: Option<String>,
    /// `(dest, tag)` in program order.
    sends: Vec<(usize, u32)>,
    /// `(source, tag)` in program order.
    recvs: Vec<(usize, u32)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    Seg(Seg),
    Barrier,
    Collective(String),
}

/// Cut one rank's event stream into schedule items (step 1 above).
fn segment(log: &CommLog) -> Vec<Item> {
    let mut items = Vec::new();
    let mut cur: Option<Seg> = None;
    let flush = |cur: &mut Option<Seg>, items: &mut Vec<Item>| {
        if let Some(seg) = cur.take() {
            items.push(Item::Seg(seg));
        }
    };
    for ev in &log.events {
        if matches!(ev.op, CommOp::Send { .. } | CommOp::Recv { .. }) && ev.tag >= COLL_TAG_BASE {
            continue; // collective-internal p2p: absorbed into its marker
        }
        match &ev.op {
            CommOp::Send { dest } => {
                if cur
                    .as_ref()
                    .is_some_and(|s| s.ctx != ev.ctx || !s.recvs.is_empty())
                {
                    flush(&mut cur, &mut items);
                }
                cur.get_or_insert_with(|| Seg {
                    ctx: ev.ctx.clone(),
                    sends: Vec::new(),
                    recvs: Vec::new(),
                })
                .sends
                .push((*dest, ev.tag));
            }
            CommOp::Recv { source } => {
                if cur.as_ref().is_some_and(|s| s.ctx != ev.ctx) {
                    flush(&mut cur, &mut items);
                }
                cur.get_or_insert_with(|| Seg {
                    ctx: ev.ctx.clone(),
                    sends: Vec::new(),
                    recvs: Vec::new(),
                })
                .recvs
                .push((*source, ev.tag));
            }
            CommOp::Barrier => {
                flush(&mut cur, &mut items);
                items.push(Item::Barrier);
            }
            CommOp::Collective { kind } => {
                flush(&mut cur, &mut items);
                items.push(Item::Collective((*kind).to_string()));
            }
        }
    }
    flush(&mut cur, &mut items);
    items
}

/// Lift the merged per-rank logs of one app run into a schedule template
/// over the declared topology family.
#[allow(clippy::result_large_err)] // a failed lift IS the violation; boxing buys nothing on this cold path
pub fn lift(
    app: &str,
    family: &TopologyFamily,
    logs: &[CommLog],
) -> Result<ScheduleTemplate, Violation> {
    let n = logs.len();
    let fail = |kind: Kind| Violation {
        app: app.to_string(),
        kind,
    };
    let div = |detail: String| fail(Kind::TemplateDivergence { detail });
    if n < 2 {
        return Err(div(format!("cannot lift a {n}-rank run")));
    }

    let streams: Vec<Vec<Item>> = logs.iter().map(segment).collect();
    let len = streams[0].len();
    for (r, s) in streams.iter().enumerate() {
        if s.len() != len {
            return Err(div(format!(
                "rank {r} has {} schedule items where rank 0 has {len}",
                s.len()
            )));
        }
    }

    let mut phases = Vec::with_capacity(len);
    for col in 0..len {
        match &streams[0][col] {
            Item::Barrier => {
                for (r, s) in streams.iter().enumerate() {
                    if s[col] != Item::Barrier {
                        return Err(div(format!(
                            "column {col}: rank 0 is at a barrier, rank {r} is not"
                        )));
                    }
                }
                phases.push(PhaseTemplate {
                    ctx: None,
                    guard: RankGuard::All,
                    pattern: PhasePattern::Barrier,
                });
            }
            Item::Collective(kind) => {
                for (r, s) in streams.iter().enumerate() {
                    if s[col] != Item::Collective(kind.clone()) {
                        return Err(div(format!(
                            "column {col}: rank 0 runs collective `{kind}`, rank {r} diverges"
                        )));
                    }
                }
                phases.push(PhaseTemplate {
                    ctx: None,
                    guard: RankGuard::All,
                    pattern: PhasePattern::Collective { kind: kind.clone() },
                });
            }
            Item::Seg(first) => {
                let mut segs = Vec::with_capacity(n);
                for (r, s) in streams.iter().enumerate() {
                    match &s[col] {
                        Item::Seg(seg) if seg.ctx == first.ctx => segs.push(seg),
                        Item::Seg(seg) => {
                            return Err(div(format!(
                                "column {col}: ctx {:?} on rank 0 vs {:?} on rank {r}",
                                first.ctx, seg.ctx
                            )))
                        }
                        other => {
                            return Err(div(format!(
                                "column {col}: rank 0 exchanges p2p, rank {r} is at {other:?}"
                            )))
                        }
                    }
                }
                let pattern = classify(family, n, &segs).map_err(|e| match e {
                    ClassifyError::Unmatched { from, to, tag } => {
                        fail(Kind::SymbolicUnmatchedSend {
                            from,
                            to,
                            tag,
                            min_n: n,
                        })
                    }
                    ClassifyError::Divergence(detail) => {
                        div(format!("column {col} (ctx {:?}): {detail}", first.ctx))
                    }
                })?;
                phases.push(PhaseTemplate {
                    ctx: first.ctx.clone(),
                    guard: RankGuard::All,
                    pattern,
                });
            }
        }
    }

    Ok(ScheduleTemplate {
        app: app.to_string(),
        family: family.clone(),
        base_ranks: n,
        phases,
    })
}

enum ClassifyError {
    /// A send whose dual receive does not exist under the family's
    /// neighbor relation.
    Unmatched {
        from: usize,
        to: usize,
        tag: u32,
    },
    Divergence(String),
}

fn classify(
    family: &TopologyFamily,
    n: usize,
    segs: &[&Seg],
) -> Result<PhasePattern, ClassifyError> {
    match family {
        TopologyFamily::Cart { ndims } => classify_cart(*ndims, n, segs),
        TopologyFamily::Ring => classify_ring(n, segs),
        TopologyFamily::RcbGraph => classify_peer(n, segs),
        TopologyFamily::Star => classify_star(n, segs),
    }
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}

/// A Cartesian halo sweep over one dimension: every rank sends a strip to
/// each existing neighbor in dim `d` and receives the dual strip, with
/// one tag per direction.
fn classify_cart(ndims: usize, n: usize, segs: &[&Seg]) -> Result<PhasePattern, ClassifyError> {
    let cart = CartComm::balanced(n, ndims);
    let mut dim: Option<usize> = None;
    let mut tag_low: Option<u32> = None; // tag on the send toward the -1 neighbor
    let mut tag_high: Option<u32> = None;
    for (r, seg) in segs.iter().enumerate() {
        for &(dest, tag) in &seg.sends {
            let hit = (0..ndims)
                .flat_map(|d| [(d, -1isize), (d, 1)])
                .find(|&(d, disp)| cart.shift(r, d, disp) == Some(dest));
            let Some((d, disp)) = hit else {
                return Err(ClassifyError::Unmatched {
                    from: r,
                    to: dest,
                    tag,
                });
            };
            if *dim.get_or_insert(d) != d {
                return Err(ClassifyError::Divergence(format!(
                    "phase mixes halo dims {} and {d}",
                    dim.unwrap()
                )));
            }
            let slot = if disp < 0 {
                &mut tag_low
            } else {
                &mut tag_high
            };
            if *slot.get_or_insert(tag) != tag {
                return Err(ClassifyError::Divergence(format!(
                    "rank {r} uses halo tag {tag:#x}, other ranks disagree"
                )));
            }
        }
    }
    let d =
        dim.ok_or_else(|| ClassifyError::Divergence("phase has no sends on any rank".into()))?;
    let (Some(tl), Some(th)) = (tag_low, tag_high) else {
        return Err(ClassifyError::Divergence(format!(
            "halo dim {d} is one-directional across all ranks"
        )));
    };
    // Duality: each rank's traffic must be exactly the strips its existing
    // neighbors dictate — no extra or missing messages.
    for (r, seg) in segs.iter().enumerate() {
        let lo = cart.shift(r, d, -1);
        let hi = cart.shift(r, d, 1);
        let mut want_sends = Vec::new();
        let mut want_recvs = Vec::new();
        if let Some(p) = lo {
            want_sends.push((p, tl));
            want_recvs.push((p, th));
        }
        if let Some(p) = hi {
            want_sends.push((p, th));
            want_recvs.push((p, tl));
        }
        if sorted(seg.sends.clone()) != sorted(want_sends.clone()) {
            return Err(ClassifyError::Divergence(format!(
                "rank {r} dim-{d} sends {:?} != neighbor relation {want_sends:?}",
                seg.sends
            )));
        }
        if sorted(seg.recvs.clone()) != sorted(want_recvs.clone()) {
            return Err(ClassifyError::Divergence(format!(
                "rank {r} dim-{d} recvs {:?} != neighbor relation {want_recvs:?}",
                seg.recvs
            )));
        }
    }
    Ok(PhasePattern::CartHalo {
        dim: d,
        tag_low: tl,
        tag_high: th,
    })
}

/// A periodic ring shift: every rank sends one message to each ring
/// neighbor and receives the duals, one tag per direction.
fn classify_ring(n: usize, segs: &[&Seg]) -> Result<PhasePattern, ClassifyError> {
    let s0 = segs[0];
    if s0.sends.len() != 2 {
        return Err(ClassifyError::Divergence(format!(
            "ring phase has {} sends on rank 0, expected 2",
            s0.sends.len()
        )));
    }
    let prev0 = n - 1;
    let next0 = 1 % n;
    // Learn the two direction tags from rank 0. At n == 2 the predecessor
    // and successor coincide; program order (to-prev first, as every ring
    // app in the registry emits) disambiguates.
    let (tag_to_prev, tag_to_next) = if prev0 != next0 {
        let tp = s0.sends.iter().find(|s| s.0 == prev0);
        let tn = s0.sends.iter().find(|s| s.0 == next0);
        match (tp, tn) {
            (Some(&(_, tp)), Some(&(_, tn))) => (tp, tn),
            _ => {
                return Err(ClassifyError::Divergence(format!(
                    "rank 0 sends {:?}, not to its ring neighbors {prev0}/{next0}",
                    s0.sends
                )))
            }
        }
    } else {
        (s0.sends[0].1, s0.sends[1].1)
    };
    for (r, seg) in segs.iter().enumerate() {
        let prev = (r + n - 1) % n;
        let next = (r + 1) % n;
        let want_sends = sorted(vec![(prev, tag_to_prev), (next, tag_to_next)]);
        let want_recvs = sorted(vec![(next, tag_to_prev), (prev, tag_to_next)]);
        if sorted(seg.sends.clone()) != want_sends {
            if let Some(&(dest, tag)) = seg
                .sends
                .iter()
                .find(|&&(dest, _)| dest != prev && dest != next)
            {
                return Err(ClassifyError::Unmatched {
                    from: r,
                    to: dest,
                    tag,
                });
            }
            return Err(ClassifyError::Divergence(format!(
                "rank {r} ring sends {:?} != {want_sends:?}",
                seg.sends
            )));
        }
        if sorted(seg.recvs.clone()) != want_recvs {
            return Err(ClassifyError::Divergence(format!(
                "rank {r} ring recvs {:?} != {want_recvs:?}",
                seg.recvs
            )));
        }
    }
    Ok(PhasePattern::RingShift {
        tag_to_prev,
        tag_to_next,
    })
}

/// A peer exchange over a partition-induced neighbor graph (RCB halos):
/// one tag, each (src, dst) pair at most once, and pairwise duality —
/// `r` sends to `p` exactly when `p` posts a receive from `r`.
fn classify_peer(n: usize, segs: &[&Seg]) -> Result<PhasePattern, ClassifyError> {
    let mut tag: Option<u32> = None;
    let mut dests: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut srcs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (r, seg) in segs.iter().enumerate() {
        for &(dest, t) in &seg.sends {
            if *tag.get_or_insert(t) != t {
                return Err(ClassifyError::Divergence(format!(
                    "mixed tags {:#x}/{t:#x} in one peer-exchange phase",
                    tag.unwrap()
                )));
            }
            if dest >= n || dest == r {
                return Err(ClassifyError::Unmatched {
                    from: r,
                    to: dest,
                    tag: t,
                });
            }
            if !dests[r].insert(dest) {
                return Err(ClassifyError::Divergence(format!(
                    "rank {r} sends to {dest} twice in one phase (tag {t:#x})"
                )));
            }
        }
        for &(src, t) in &seg.recvs {
            if *tag.get_or_insert(t) != t {
                return Err(ClassifyError::Divergence(format!(
                    "mixed tags {:#x}/{t:#x} in one peer-exchange phase",
                    tag.unwrap()
                )));
            }
            if src >= n || !srcs[r].insert(src) {
                return Err(ClassifyError::Divergence(format!(
                    "rank {r} posts duplicate or out-of-range receive from {src}"
                )));
            }
        }
    }
    let tag =
        tag.ok_or_else(|| ClassifyError::Divergence("phase has no traffic on any rank".into()))?;
    for r in 0..n {
        for &p in &dests[r] {
            if !srcs[p].contains(&r) {
                return Err(ClassifyError::Unmatched {
                    from: r,
                    to: p,
                    tag,
                });
            }
        }
        for &p in &srcs[r] {
            if !dests[p].contains(&r) {
                return Err(ClassifyError::Divergence(format!(
                    "rank {r} expects a message from {p}, but {p} never sends one"
                )));
            }
        }
    }
    Ok(PhasePattern::PeerExchange { tag })
}

/// A star: either every non-root rank sends one message to rank 0 which
/// receives from all (gather), or the reverse (scatter).
fn classify_star(n: usize, segs: &[&Seg]) -> Result<PhasePattern, ClassifyError> {
    let root = segs[0];
    let gather = root.sends.is_empty();
    if !gather && !root.recvs.is_empty() {
        return Err(ClassifyError::Divergence(
            "root both sends and receives in a star phase".into(),
        ));
    }
    // (peer, tag) pairs on the root's active side.
    let root_peers = if gather { &root.recvs } else { &root.sends };
    let mut tag: Option<u32> = None;
    let mut seen_peers = BTreeSet::new();
    for &(peer, t) in root_peers {
        if *tag.get_or_insert(t) != t {
            return Err(ClassifyError::Divergence(format!(
                "mixed tags in star phase: {:#x} vs {t:#x}",
                tag.unwrap()
            )));
        }
        if peer == 0 || peer >= n || !seen_peers.insert(peer) {
            return Err(ClassifyError::Divergence(format!(
                "root star peer {peer} duplicate or out of range"
            )));
        }
    }
    if seen_peers.len() != n - 1 {
        return Err(ClassifyError::Divergence(format!(
            "root touches {} peers, expected every one of the other {} ranks",
            seen_peers.len(),
            n - 1
        )));
    }
    let tag = tag
        .ok_or_else(|| ClassifyError::Divergence("star phase has no traffic at the root".into()))?;
    let want_sends: Vec<(usize, u32)> = if gather { vec![(0, tag)] } else { vec![] };
    let want_recvs: Vec<(usize, u32)> = if gather { vec![] } else { vec![(0, tag)] };
    for (r, seg) in segs.iter().enumerate().skip(1) {
        if seg.sends != want_sends {
            if let Some(&(dest, t)) = seg.sends.iter().find(|&&(d, _)| d != 0) {
                return Err(ClassifyError::Unmatched {
                    from: r,
                    to: dest,
                    tag: t,
                });
            }
            return Err(ClassifyError::Divergence(format!(
                "rank {r} star sends {:?} != {want_sends:?}",
                seg.sends
            )));
        }
        if seg.recvs != want_recvs {
            return Err(ClassifyError::Divergence(format!(
                "rank {r} star recvs {:?} != {want_recvs:?}",
                seg.recvs
            )));
        }
    }
    Ok(if gather {
        PhasePattern::GatherToRoot { tag }
    } else {
        PhasePattern::ScatterFromRoot { tag }
    })
}
