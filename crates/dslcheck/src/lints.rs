//! Whole-chain dataflow lints over a [`DefUseGraph`]: dead/overwritten
//! stores, redundant-exchange and stale-halo detection, and fusion
//! legality certification.
//!
//! Every rule here only *fires* on facts the recording proves; wherever the
//! recorder is blind (hand-rolled mirror fills, row-slice read-backs), the
//! rule abstains rather than guesses. That is what keeps the registered
//! apps clean without whitelists.

use crate::graph::{DefUseGraph, Event, Touch};
use crate::violation::{Kind, Violation};
use bwb_ops::access::Axes;
use bwb_ops::plan::FusionGroupCert;
use bwb_trace::json::{obj, Json};

/// Dead-store detection: a field fully written by a pure-`Write` loop and
/// fully rewritten by a later pure-`Write` loop, with no read, read-write,
/// or halo exchange of the field in between. The first write's traffic
/// (and its write-allocate read) is provably wasted.
///
/// Partial writes never start or finish a dead pair (the second write must
/// also be full, otherwise part of the first survives), and exchanges count
/// as reads because packing reads the interior strips.
pub fn dead_stores(app: &str, g: &DefUseGraph) -> Vec<Violation> {
    let mut out = Vec::new();
    for (name, events) in &g.fields {
        // Index of the pending full pure write, if its value is still unread.
        let mut pending: Option<usize> = None;
        for ev in events {
            match ev {
                Event::Loop { at, touch } => match touch {
                    Touch::Write { full: true } => {
                        if let Some(first_at) = pending {
                            out.push(Violation {
                                app: app.to_string(),
                                kind: Kind::DeadStore {
                                    dat: name.clone(),
                                    first_loop: g.loops[first_at].name.clone(),
                                    first_at,
                                    second_loop: g.loops[*at].name.clone(),
                                    second_at: *at,
                                },
                            });
                        }
                        pending = Some(*at);
                    }
                    Touch::Write { full: false } => {
                        // A partial overwrite neither kills nor reads the
                        // previous full write; the merged contents may
                        // still be consumed later.
                        pending = None;
                    }
                    Touch::Read { .. } | Touch::ReadWrite => pending = None,
                },
                Event::Exchange { .. } => pending = None,
            }
        }
        // A trailing unread full write is NOT flagged: the recording is a
        // window onto a longer run (results are consumed after it ends).
    }
    out
}

/// Halo validity state machine over the exchange trace, one per axis.
///
/// Only axes that some exchange of the run refreshes are judged — an axis
/// no exchange refreshes has its ghosts maintained by hand (mirror or wall
/// fills the recorder cannot see, or the local wrap of a single rank), and
/// must not be second-guessed; a run without exchanges is judged on no
/// axis. On a judged axis, a rank's ghosts on a neighbour's side come from
/// exchanges only, so every dat is judged, also one that is never
/// exchanged (a buffer that swaps rotate through the slots may never sit in
/// an exchanged one). Per dat and judged axis:
///
/// * an interior write invalidates the ghosts (validity 0);
/// * an exchange at depth `d` over the axis establishes validity `d`
///   (deepening a still-valid halo keeps the max);
/// * a read that reaches `r > validity` cells past the interior along the
///   axis over its loop's range is a [`Kind::StaleHaloRead`];
/// * an exchange at depth `d` with no write since the previous exchange,
///   whose every axis is already valid to `d`, is a
///   [`Kind::RedundantExchange`].
///
/// The first exchange of each dat is never judged redundant (a write
/// precedes it, or there is no prior validity to compare against), and
/// reads on an axis before a dat's first write or exchange over it are not
/// judged (the app may rely on initial-condition ghosts).
pub fn exchange_lints(app: &str, g: &DefUseGraph) -> Vec<Violation> {
    let mut violations = Vec::new();
    let judged = g.exchanges.iter().map(|e| e.axes);
    let judged = judged.fold(Axes::default(), Axes::union);
    for (name, events) in &g.fields {
        // Ghost validity in cells per axis; None until the first write or
        // exchange over that axis.
        let mut valid: [Option<isize>; 3] = [None; 3];
        let mut written_since_exchange = false;
        for ev in events {
            match ev {
                Event::Loop { at, touch } => {
                    if let Touch::Read { reach, .. } = touch {
                        let stale = judged.iter().find_map(|a| {
                            valid[a].filter(|&v| reach[a] > v).map(|v| (reach[a], v))
                        });
                        if let Some((required_radius, valid_depth)) = stale {
                            violations.push(Violation {
                                app: app.to_string(),
                                kind: Kind::StaleHaloRead {
                                    dat: name.clone(),
                                    loop_name: g.loops[*at].name.clone(),
                                    at: *at,
                                    required_radius,
                                    valid_depth,
                                },
                            });
                        }
                    }
                    if touch.writes() {
                        written_since_exchange = true;
                        valid = [Some(0); 3];
                    }
                }
                Event::Exchange { at, depth, axes } => {
                    let d = *depth as isize;
                    let prior = axes.iter().map(|a| valid[a]).min().flatten();
                    match prior {
                        Some(v) if !written_since_exchange && v >= d => {
                            violations.push(Violation {
                                app: app.to_string(),
                                kind: Kind::RedundantExchange {
                                    dat: name.clone(),
                                    depth: *depth,
                                    at: *at,
                                    prior_depth: v as usize,
                                },
                            });
                            // Validity keeps the deeper prior value.
                        }
                        _ => {
                            for a in axes.iter() {
                                valid[a] = match valid[a] {
                                    Some(v) if !written_since_exchange => Some(v.max(d)),
                                    _ => Some(d),
                                };
                            }
                        }
                    }
                    written_since_exchange = false;
                }
            }
        }
    }
    violations
}

/// One adjacent loop pair considered for fusion.
#[derive(Debug, Clone)]
pub struct FusionCandidate {
    pub first_at: usize,
    pub first: String,
    pub second_at: usize,
    pub second: String,
    /// Run-time field names crossing the pair (defs of one ∩ uses/defs of
    /// the other).
    pub shared: Vec<String>,
    pub legal: bool,
    /// Why fusion is illegal, when it is.
    pub reason: Option<String>,
}

/// Machine-readable fusion plan: every adjacent same-iteration-space pair,
/// certified legal or not.
#[derive(Debug, Clone, Default)]
pub struct FusionPlan {
    pub candidates: Vec<FusionCandidate>,
}

impl FusionPlan {
    pub fn legal_pairs(&self) -> usize {
        self.candidates.iter().filter(|c| c.legal).count()
    }

    /// JSON array of candidate objects.
    pub fn to_json(&self) -> Json {
        let candidate = |c: &FusionCandidate| {
            let mut fields = vec![
                ("first", c.first.as_str().into()),
                ("first_at", c.first_at.into()),
                ("second", c.second.as_str().into()),
                ("second_at", c.second_at.into()),
                ("legal", c.legal.into()),
                ("shared", c.shared.as_slice().into()),
            ];
            if let Some(r) = &c.reason {
                fields.push(("reason", r.as_str().into()));
            }
            obj(fields)
        };
        self.candidates.iter().map(candidate).collect()
    }
}

/// Radius at which loop `at` reads field `name` (None if it does not read
/// it; ReadWrite outputs count as radius-0 reads).
fn read_radius(g: &DefUseGraph, at: usize, name: &str) -> Option<isize> {
    let l = &g.loops[at];
    let from_ins = l
        .ins
        .iter()
        .filter(|a| a.name == name)
        .filter_map(|a| match a.touch {
            Touch::Read { radius, .. } => Some(radius),
            _ => None,
        })
        .max();
    let rw_out = l
        .outs
        .iter()
        .any(|a| a.name == name && matches!(a.touch, Touch::ReadWrite));
    from_ins.or(if rw_out { Some(0) } else { None })
}

fn writes_field(g: &DefUseGraph, at: usize, name: &str) -> bool {
    g.loops[at].outs.iter().any(|a| a.name == name)
}

/// Judge fusing adjacent loops `i` and `i+1` (already known to share an
/// iteration space). Returns `(shared_fields, Err(reason))` when illegal.
fn judge_pair(g: &DefUseGraph, i: usize) -> (Vec<String>, Result<(), String>) {
    judge_ordered_pair(g, i, i + 1)
}

/// Judge fusing loops `a < b` (not necessarily adjacent) under the same
/// radius-0 crossing rules as [`judge_pair`]. Fused execution interleaves
/// the member bodies per row in program order, so a field flowing from `a`
/// into `b` is safe exactly when `b` consumes it point-locally — any
/// non-zero stencil radius would read half-updated neighbours, in either
/// direction. Group derivation needs this generalized form because fusion
/// legality is **not transitive**: (a,b) and (b,c) legal does not imply
/// (a,c) legal when a field skips over `b`.
fn judge_ordered_pair(g: &DefUseGraph, a: usize, b: usize) -> (Vec<String>, Result<(), String>) {
    let mut shared: Vec<String> = Vec::new();
    let mut verdict: Result<(), String> = Ok(());

    // Flow crossings: fields A defines that B consumes, and vice versa.
    for out in &g.loops[a].outs {
        if let Some(r) = read_radius(g, b, &out.name) {
            shared.push(out.name.clone());
            if r != 0 && verdict.is_ok() {
                verdict = Err(format!(
                    "'{}' flows from '{}' into '{}' at stencil radius {} \
                     (fused execution would read half-updated neighbours)",
                    out.name, g.loops[a].name, g.loops[b].name, r
                ));
            }
        } else if writes_field(g, b, &out.name) && !shared.contains(&out.name) {
            // Output-output overlap: point-located writes commute with the
            // pointwise interleaving fusion performs, so this is legal but
            // still a crossing worth reporting.
            shared.push(out.name.clone());
        }
    }
    for out in &g.loops[b].outs {
        if let Some(r) = read_radius(g, a, &out.name) {
            if !shared.contains(&out.name) {
                shared.push(out.name.clone());
            }
            if r != 0 && verdict.is_ok() {
                verdict = Err(format!(
                    "'{}' is read by '{}' at stencil radius {} and overwritten by '{}' \
                     (fused execution would read already-updated neighbours)",
                    out.name, g.loops[a].name, r, g.loops[b].name
                ));
            }
        }
    }
    shared.sort();
    shared.dedup();
    (shared, verdict)
}

/// Build the fusion plan: every adjacent pair of structured loops over the
/// same iteration space with no halo exchange between them is a candidate;
/// a candidate is legal iff every field crossing the pair does so at
/// stencil radius 0 in both directions. Loops without matched contracts
/// are never candidates (their read sets are not certifiable).
///
/// Adjacency means adjacency *in the recorded loop stream*: hand-rolled
/// code between two recorded loops (boundary mirror fills, scalar
/// reductions) is invisible to the recorder, and a fusion that would move
/// a kernel across such code remains the caller's responsibility to rule
/// out.
pub fn fusion_plan(g: &DefUseGraph) -> FusionPlan {
    let mut plan = FusionPlan::default();
    for i in 0..g.loops.len().saturating_sub(1) {
        let (a, b) = (&g.loops[i], &g.loops[i + 1]);
        if !a.matched || !b.matched {
            continue;
        }
        if a.dims != b.dims || a.range != b.range {
            continue;
        }
        // `ExchangeObs::at` counts loops completed before the exchange, so
        // an exchange between loops i and i+1 carries `at == i + 1`.
        if g.exchanges.iter().any(|e| e.at == i + 1) {
            continue;
        }
        let (shared, verdict) = judge_pair(g, i);
        plan.candidates.push(FusionCandidate {
            first_at: i,
            first: a.name.clone(),
            second_at: i + 1,
            second: b.name.clone(),
            shared,
            legal: verdict.is_ok(),
            reason: verdict.err(),
        });
    }
    plan
}

/// Derive certified fusion *groups*: maximal runs of loops in which every
/// adjacent pair is a legal [`FusionCandidate`] **and** every non-adjacent
/// ordered pair passes [`judge_ordered_pair`]. The all-pairs check is what
/// makes a run of pairwise-legal candidates safe to fuse as one traversal
/// (legality is not transitive — see [`judge_ordered_pair`]). Runs are
/// disjoint and greedy from the left; only runs of two or more loops are
/// emitted. Exchange freedom inside a run is inherited from the adjacency
/// candidates (each gap was already required to carry no exchange).
pub fn fusion_groups(g: &DefUseGraph) -> Vec<FusionGroupCert> {
    let plan = fusion_plan(g);
    let n_pairs = g.loops.len().saturating_sub(1);
    let mut legal = vec![false; n_pairs];
    for c in plan.candidates.iter().filter(|c| c.legal) {
        legal[c.first_at] = true;
    }
    let mut groups = Vec::new();
    let mut i = 0usize;
    while i < n_pairs {
        if !legal[i] {
            i += 1;
            continue;
        }
        // Run starts as the adjacent pair (i, i+1); `last` tracks the last
        // admitted member.
        let mut members = vec![i, i + 1];
        let mut last = i + 1;
        while last < n_pairs && legal[last] {
            let next = last + 1;
            let all_pairs_ok = members
                .iter()
                .filter(|&&k| k + 1 != next)
                .all(|&k| judge_ordered_pair(g, k, next).1.is_ok());
            if !all_pairs_ok {
                break;
            }
            members.push(next);
            last = next;
        }
        groups.push(FusionGroupCert {
            start: i,
            names: members.iter().map(|&k| g.loops[k].name.clone()).collect(),
        });
        i = last + 1;
    }
    groups
}

/// Check claimed fusions against the plan. Each claim names an adjacent
/// pair by loop name; a claim that names a pair the plan rejected — or a
/// pair that is not an adjacent same-space candidate at all — yields an
/// [`Kind::IllegalFusion`]. The registered apps claim nothing, so this can
/// only fire on explicit claims (planted fixtures, tuning experiments).
pub fn check_fusion_claims(app: &str, g: &DefUseGraph, claims: &[(&str, &str)]) -> Vec<Violation> {
    let plan = fusion_plan(g);
    let mut out = Vec::new();
    for (first, second) in claims {
        let cand = plan
            .candidates
            .iter()
            .find(|c| c.first == *first && c.second == *second);
        match cand {
            Some(c) if c.legal => {}
            Some(c) => out.push(Violation {
                app: app.to_string(),
                kind: Kind::IllegalFusion {
                    first_loop: (*first).to_string(),
                    second_loop: (*second).to_string(),
                    reason: c.reason.clone().unwrap_or_else(|| "rejected".into()),
                },
            }),
            None => out.push(Violation {
                app: app.to_string(),
                kind: Kind::IllegalFusion {
                    first_loop: (*first).to_string(),
                    second_loop: (*second).to_string(),
                    reason: "not an adjacent pair over the same iteration space".into(),
                },
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_ops::{Access, Binding, ChainSpec, DatDecl, Expr, Stencil, Step};

    /// write u → exchange u over `axes` → x5 read → write u → read along
    /// the second axis (miniWeather's z) two past the interior.
    fn z_read_after_write(axes: Axes) -> Vec<Violation> {
        let (c, p) = (Expr::c, Expr::p);
        let dat = |name| DatDecl {
            name,
            halo: 2,
            extent: [p("n"), p("n"), c(1)],
            elem_bytes: 8,
        };
        let lp = |name, outs, ins| Step::Loop {
            name,
            dims: 2,
            range: [c(0), p("n"), c(0), p("n"), c(0), c(1)],
            outs,
            ins,
        };
        let write = || lp("produce", vec![(0, Access::Write)], vec![]);
        let read = |name, window: &[(isize, isize)]| {
            lp(
                name,
                vec![(1, Access::Write)],
                vec![(0, Stencil::of2(window))],
            )
        };
        let chain = ChainSpec {
            app: "axes",
            dats: vec![dat("u"), dat("t")],
            prologue: vec![],
            body: vec![
                write(),
                Step::Exchange {
                    dat: 0,
                    depth: 2,
                    site: "",
                    axes,
                },
                read("tend_x", &[(-2, 0), (2, 0)]),
                write(),
                read("tend_z", &[(0, -2), (0, 2)]),
            ],
            epilogue: vec![],
        };
        let rec = chain.instantiate(&Binding::new().set("n", 8), 1).unwrap();
        exchange_lints("axes", &DefUseGraph::build(&chain.loop_specs(), &rec))
    }

    /// An axis no exchange refreshes keeps hand-filled ghosts and is not
    /// judged; once the run exchanges it, the same read is stale.
    #[test]
    fn only_axes_some_exchange_refreshes_are_judged() {
        assert_eq!(z_read_after_write(Axes::X), []);
        let stale = Kind::StaleHaloRead {
            dat: "u".into(),
            loop_name: "tend_z".into(),
            at: 3,
            required_radius: 2,
            valid_depth: 0,
        };
        let found = z_read_after_write(Axes::XY);
        assert_eq!(found.iter().map(|v| &v.kind).collect::<Vec<_>>(), [&stale]);
    }
}
