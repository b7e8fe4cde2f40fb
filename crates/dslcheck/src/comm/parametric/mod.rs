//! Rank-parametric communication-schedule verification.
//!
//! [`super`] (commcheck) certifies one *concrete* run: the schedule the
//! app-table entries execute at 4 ranks. This module lifts those concrete
//! [`CommLog`]s into **rank-parametric schedule templates** — symbolic
//! rank identifiers over a declared [`TopologyFamily`] (Cartesian grids
//! under `dims_create`, rings, RCB partition graphs, gather stars) with
//! halo and scatter-add patterns expressed as neighbor-relation formulas
//! — and then verifies the commcheck properties *for every rank count in
//! the family at once*:
//!
//! * **matching completeness** — each pattern's sends and receives are
//!   dual under the neighbor relation (witnessed per-rank on the base
//!   run during lifting, closed-form for all `N` by the relation's
//!   symmetry);
//! * **deadlock freedom** — every lifted segment posts its sends before
//!   its first blocking receive, phases are congruent across ranks, and
//!   tags are unique per phase; the sends-first theorem (DESIGN.md §2.7)
//!   then rules out cyclic blocking at every `N`. Declared-only patterns
//!   ([`PhasePattern::PairExchange`] with `recv_first`) that violate the
//!   premise are reported with the smallest world size that manifests
//!   them;
//! * **tag collision freedom** — in-flight `(src, dst, tag)` classes are
//!   enumerated symbolically for every `N` up to [`FAMILY_MAX_RANKS`];
//!   a duplicate (e.g. a periodic ring at `N == 2` reusing one tag for
//!   both directions) degrades tag matching to program-order coupling
//!   and is reported at the smallest `N` where it appears.
//!
//! The result is a [`ParametricCert`] per app, cross-checked against
//! concrete replays at `N ∈` [`CROSSCHECK_RANKS`]: the app is re-run
//! live at each size, the concrete analyzers must come back clean, and
//! re-lifting the fresh logs must reproduce exactly the certified
//! template restricted to its phases active at that `N` (a Cartesian
//! halo dim with extent 1 under `dims_create(N)` is inert, and the
//! template predicts so). `analyze --comm --parametric` gates CI on the
//! whole registry.
//!
//! **Abstraction soundness.** For the closed-form families (Cartesian,
//! ring, star) the neighbor relation is a total function of `(rank, N)`,
//! so the symbolic verdict covers every world size by construction. The
//! RCB partition graph is data-dependent: its duality rests on the
//! premise that importers and exporters derive from one shared need
//! relation (`RankHalo::build` constructs both sides symmetrically on
//! every rank), which lifting witnesses pairwise at the base size and
//! the cross-checks re-witness at each sampled `N` — a certified
//! premise, not a proof for unsampled sizes. DESIGN.md §2.7 spells out
//! the distinction.

pub mod lift;

pub use lift::lift;

use super::CommReport;
use crate::registry;
use crate::violation::{Kind, Violation};
use bwb_shmpi::cart::dims_create;
use bwb_shmpi::{CartComm, CommLog, Universe};
use bwb_trace::json::{obj, Json};
use std::collections::BTreeSet;
use std::time::Instant;

/// The declared topology family a template's neighbor relation ranges
/// over. The family fixes, for every world size `N`, which ranks talk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyFamily {
    /// `dims_create(N, ndims)` Cartesian grid, non-periodic (the
    /// structured-mesh apps' `DistBlock2`/`DistBlock3` decomposition).
    Cart { ndims: usize },
    /// Periodic 1-D ring, `rank ± 1 mod N` (miniweather's x-direction).
    Ring,
    /// Neighbor graph induced by an RCB partition of an unstructured
    /// mesh (mgcfd): data-dependent, duality-by-construction.
    RcbGraph,
    /// All-to-root (or root-to-all) star (minibude's pose gather).
    Star,
}

impl TopologyFamily {
    pub fn name(&self) -> String {
        match self {
            TopologyFamily::Cart { ndims } => format!("cart{ndims}"),
            TopologyFamily::Ring => "ring".to_string(),
            TopologyFamily::RcbGraph => "rcb_graph".to_string(),
            TopologyFamily::Star => "star".to_string(),
        }
    }

    /// Smallest world size at which every phase of the family moves
    /// messages — a Cartesian dim is inert until `dims_create` gives it
    /// extent 2. A template lifted from fewer ranks would silently lack
    /// those phases.
    pub fn min_base_ranks(&self) -> usize {
        match self {
            TopologyFamily::Cart { ndims } => 1 << ndims,
            _ => 2,
        }
    }
}

/// Which symbolic ranks a phase applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankGuard {
    /// Every rank participates (subject to the pattern's own neighbor
    /// existence conditions).
    All,
    /// Only the named pair participates — the phase is inert below
    /// `max(a, b) + 1` ranks. Used by declared (planted) templates.
    Pair { a: usize, b: usize },
}

impl RankGuard {
    /// Smallest world size at which the guard can fire.
    pub fn min_ranks(&self) -> usize {
        match self {
            RankGuard::All => 2,
            RankGuard::Pair { a, b } => a.max(b) + 1,
        }
    }
}

/// One phase of a rank-parametric schedule: a communication pattern as a
/// formula over symbolic rank ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhasePattern {
    /// Every rank sends a strip to each existing `dim`-neighbor and
    /// receives the dual: tag `tag_low` travels toward −1, `tag_high`
    /// toward +1.
    CartHalo {
        dim: usize,
        tag_low: u32,
        tag_high: u32,
    },
    /// Periodic ring shift both ways, one tag per direction.
    RingShift {
        tag_to_prev: u32,
        tag_to_next: u32,
    },
    /// Exchange over a partition-induced peer graph: one tag, each
    /// `(src, dst)` pair at most once, pairwise dual.
    PeerExchange {
        tag: u32,
    },
    /// Every non-root rank sends once to rank 0, which receives from
    /// all, in rank order.
    GatherToRoot {
        tag: u32,
    },
    /// Rank 0 sends once to every other rank.
    ScatterFromRoot {
        tag: u32,
    },
    /// A rank-ordered collective (its internal p2p is absorbed by the
    /// [`bwb_shmpi::COLL_TAG_BASE`] sequencing discipline, which the
    /// concrete replays re-verify at every cross-checked `N`).
    Collective {
        kind: String,
    },
    Barrier,
    /// Declared-only (never produced by lifting): a single directed
    /// message; `recv_posted: false` plants a symbolically unmatched
    /// send that only fires once both endpoints exist.
    DirectedSend {
        from: usize,
        to: usize,
        tag: u32,
        recv_posted: bool,
    },
    /// Declared-only: ranks `a` and `b` exchange one message each way;
    /// `recv_first` makes both block on the receive before sending —
    /// the classic head-to-head deadlock, inert until `N > max(a, b)`.
    PairExchange {
        a: usize,
        b: usize,
        tag: u32,
        recv_first: bool,
    },
}

/// A phase plus its dat attribution and rank guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTemplate {
    pub ctx: Option<String>,
    pub guard: RankGuard,
    pub pattern: PhasePattern,
}

impl PhaseTemplate {
    /// Does this phase move any message at world size `n`? (A Cartesian
    /// halo dim is inert when `dims_create(n)` gives it extent 1.)
    pub fn active_at(&self, n: usize, family: &TopologyFamily) -> bool {
        if n < self.guard.min_ranks()
            && !matches!(
                self.pattern,
                PhasePattern::Collective { .. } | PhasePattern::Barrier
            )
        {
            return false;
        }
        match &self.pattern {
            PhasePattern::CartHalo { dim, .. } => match family {
                TopologyFamily::Cart { ndims } => dims_create(n, *ndims)[*dim] >= 2,
                _ => false,
            },
            PhasePattern::RingShift { .. }
            | PhasePattern::PeerExchange { .. }
            | PhasePattern::GatherToRoot { .. }
            | PhasePattern::ScatterFromRoot { .. } => n >= 2,
            PhasePattern::Collective { .. } | PhasePattern::Barrier => true,
            PhasePattern::DirectedSend { from, to, .. } => n > *from.max(to),
            PhasePattern::PairExchange { a, b, .. } => n > *a.max(b),
        }
    }

    /// Symbolically enumerate the in-flight `(src, dst, tag)` classes of
    /// this phase at world size `n`. Returns `None` for data-dependent
    /// patterns ([`PhasePattern::PeerExchange`]) whose classes are not a
    /// closed function of `n` — there, lifting already verified each
    /// `(src, dst)` pair appears at most once with a single tag, which
    /// is collision-freedom directly.
    fn sends_at(&self, family: &TopologyFamily, n: usize) -> Option<Vec<(usize, usize, u32)>> {
        let mut out = Vec::new();
        match &self.pattern {
            PhasePattern::CartHalo {
                dim,
                tag_low,
                tag_high,
            } => {
                let TopologyFamily::Cart { ndims } = family else {
                    return Some(out);
                };
                let cart = CartComm::balanced(n, *ndims);
                for r in 0..n {
                    if let Some(p) = cart.shift(r, *dim, -1) {
                        out.push((r, p, *tag_low));
                    }
                    if let Some(p) = cart.shift(r, *dim, 1) {
                        out.push((r, p, *tag_high));
                    }
                }
            }
            PhasePattern::RingShift {
                tag_to_prev,
                tag_to_next,
            } => {
                for r in 0..n {
                    out.push((r, (r + n - 1) % n, *tag_to_prev));
                    out.push((r, (r + 1) % n, *tag_to_next));
                }
            }
            PhasePattern::PeerExchange { .. } => return None,
            PhasePattern::GatherToRoot { tag } => {
                out.extend((1..n).map(|r| (r, 0, *tag)));
            }
            PhasePattern::ScatterFromRoot { tag } => {
                out.extend((1..n).map(|r| (0, r, *tag)));
            }
            PhasePattern::Collective { .. } | PhasePattern::Barrier => {}
            PhasePattern::DirectedSend { from, to, tag, .. } => out.push((*from, *to, *tag)),
            PhasePattern::PairExchange { a, b, tag, .. } => {
                out.push((*a, *b, *tag));
                out.push((*b, *a, *tag));
            }
        }
        Some(out)
    }
}

/// The lifted, rank-parametric schedule of one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTemplate {
    pub app: String,
    pub family: TopologyFamily,
    /// World size of the run the template was lifted from (provenance
    /// only — not part of template identity).
    pub base_ranks: usize,
    pub phases: Vec<PhaseTemplate>,
}

impl ScheduleTemplate {
    /// The phases that move messages at world size `n` — what a concrete
    /// log recorded at `n` must lift back to.
    pub fn active_phases(&self, n: usize) -> Vec<&PhaseTemplate> {
        self.phases
            .iter()
            .filter(|p| p.active_at(n, &self.family))
            .collect()
    }
}

/// Largest world size the symbolic tag-collision scan enumerates. The
/// closed-form patterns are injective in `(src, dst)` for every `N`
/// (non-periodic Cartesian shifts and star edges never coincide; a
/// periodic ring's two directions only coincide at `N == 2`), so the
/// scan is a belt-and-braces enumeration over the sizes that matter —
/// it covers the paper's 112-core node and every cross-checked size.
pub const FAMILY_MAX_RANKS: usize = 128;

/// Verify a template's symbolic properties for every world size in the
/// declared family. Lifted templates satisfy matching and sends-first
/// by construction (the classifier witnessed duality; segmentation
/// guarantees sends-before-receives), so violations here come from the
/// tag scan and from declared patterns that break a theorem premise.
pub fn check_template(t: &ScheduleTemplate) -> Vec<Violation> {
    let v = |kind: Kind| Violation {
        app: t.app.clone(),
        kind,
    };
    let mut out = Vec::new();
    for p in &t.phases {
        match &p.pattern {
            PhasePattern::DirectedSend {
                from,
                to,
                tag,
                recv_posted: false,
            } => out.push(v(Kind::SymbolicUnmatchedSend {
                from: *from,
                to: *to,
                tag: *tag,
                min_n: from.max(to) + 1,
            })),
            PhasePattern::PairExchange {
                a,
                b,
                tag,
                recv_first: true,
            } => out.push(v(Kind::ParametricDeadlock {
                rank_a: *a,
                rank_b: *b,
                tag: *tag,
                min_n: a.max(b) + 1,
            })),
            _ => {}
        }
    }
    for p in &t.phases {
        'scan: for n in 2..=FAMILY_MAX_RANKS {
            if !p.active_at(n, &t.family) {
                continue;
            }
            let Some(classes) = p.sends_at(&t.family, n) else {
                break 'scan; // data-dependent: collision-free per the lift witness
            };
            let mut seen = BTreeSet::new();
            for class in classes {
                if !seen.insert(class) {
                    out.push(v(Kind::TagCollision {
                        tag: class.2,
                        at_n: n,
                    }));
                    break 'scan; // report the smallest N only
                }
            }
        }
    }
    out
}

/// One concrete replay cross-check of a certified template.
#[derive(Debug, Clone)]
pub struct CrossCheck {
    pub n: usize,
    /// The concrete commcheck analyzers (matching, deadlock) found no
    /// schedule violation at this size. Byte-skew
    /// imbalance is a performance lint over mesh partitions, not a
    /// schedule property, and does not enter the certificate.
    pub concrete_clean: bool,
    /// Re-lifting the fresh logs reproduced the certified template
    /// restricted to its phases active at `n`.
    pub template_match: bool,
}

/// The machine-readable certificate `analyze --comm --parametric` emits
/// per app: the symbolic verdicts plus the concrete replay evidence.
#[derive(Debug, Clone)]
pub struct ParametricCert {
    pub app: String,
    pub family: String,
    pub base_ranks: usize,
    pub phases: usize,
    pub matching_complete: bool,
    pub deadlock_free: bool,
    /// Collision-free for every world size up to and including this.
    pub collision_free_to: usize,
    pub crosschecks: Vec<CrossCheck>,
    pub verify_ms: f64,
}

impl ParametricCert {
    pub fn certified(&self) -> bool {
        self.matching_complete
            && self.deadlock_free
            && self.collision_free_to >= FAMILY_MAX_RANKS
            && !self.crosschecks.is_empty()
            && self
                .crosschecks
                .iter()
                .all(|c| c.concrete_clean && c.template_match)
    }

    pub fn to_json(&self) -> Json {
        let crosschecks = self.crosschecks.iter().map(|c| {
            obj([
                ("n", c.n.into()),
                ("concrete_clean", c.concrete_clean.into()),
                ("template_match", c.template_match.into()),
            ])
        });
        obj([
            ("app", self.app.as_str().into()),
            ("family", self.family.as_str().into()),
            ("base_ranks", self.base_ranks.into()),
            ("phases", self.phases.into()),
            ("matching_complete", self.matching_complete.into()),
            ("deadlock_free", self.deadlock_free.into()),
            ("collision_free_to", self.collision_free_to.into()),
            ("certified", self.certified().into()),
            ("crosschecks", crosschecks.collect()),
            ("verify_ms", self.verify_ms.into()),
        ])
    }
}

/// The parametric verdict for one app: the lifted template (when lifting
/// succeeded), its certificate, and every violation found on the way.
#[derive(Debug, Clone)]
pub struct ParametricReport {
    pub app: String,
    pub template: Option<ScheduleTemplate>,
    pub cert: Option<ParametricCert>,
    pub violations: Vec<Violation>,
}

impl ParametricReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.cert.as_ref().is_some_and(|c| c.certified())
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("app", self.app.as_str().into()),
            (
                "cert",
                self.cert
                    .as_ref()
                    .map_or(Json::Null, ParametricCert::to_json),
            ),
            (
                "violations",
                self.violations.iter().map(Violation::to_json).collect(),
            ),
        ])
    }
}

/// World sizes every certificate is cross-checked against by live
/// replay: the CI size, two intermediate scales, and the paper's
/// 112-core Xeon MAX node.
pub const CROSSCHECK_RANKS: [usize; 4] = [4, 16, 64, 112];

/// Lift `app` from a base run, verify the template symbolically, and
/// cross-check it against concrete replays at [`CROSSCHECK_RANKS`].
/// `run` executes the app's distributed driver at a given world size
/// and returns the merged per-rank logs.
pub fn verify_app<F>(app: &str, family: TopologyFamily, base_n: usize, run: F) -> ParametricReport
where
    F: Fn(usize) -> Vec<CommLog>,
{
    assert!(
        base_n >= family.min_base_ranks(),
        "{app}: {base_n} base ranks leave phases of {family:?} inert"
    );
    let t0 = Instant::now();
    let base_logs = run(base_n);
    let template = match lift(app, &family, &base_logs) {
        Ok(t) => t,
        Err(v) => {
            return ParametricReport {
                app: app.to_string(),
                template: None,
                cert: None,
                violations: vec![v],
            }
        }
    };
    let mut violations = check_template(&template);

    let mut crosschecks = Vec::new();
    for &n in &CROSSCHECK_RANKS {
        let logs = run(n);
        let rep = CommReport::analyze(app, &logs, None);
        let concrete_clean = rep
            .violations
            .iter()
            .all(|v| matches!(v.kind, Kind::CommImbalance { .. }));
        if !concrete_clean {
            violations.push(Violation {
                app: app.to_string(),
                kind: Kind::TemplateDivergence {
                    detail: format!("concrete replay at {n} ranks violates the schedule contract"),
                },
            });
        }
        let template_match = match lift(app, &family, &logs) {
            Ok(lifted) => {
                let want = template.active_phases(n);
                let ok = want.len() == lifted.phases.len()
                    && want.iter().zip(&lifted.phases).all(|(w, g)| *w == g);
                if !ok {
                    violations.push(Violation {
                        app: app.to_string(),
                        kind: Kind::TemplateDivergence {
                            detail: format!(
                                "re-lift at {n} ranks gives {} phases, certified template \
                                 predicts {} active",
                                lifted.phases.len(),
                                want.len()
                            ),
                        },
                    });
                }
                ok
            }
            Err(v) => {
                violations.push(v);
                false
            }
        };
        crosschecks.push(CrossCheck {
            n,
            concrete_clean,
            template_match,
        });
    }

    let has = |pred: fn(&Kind) -> bool| violations.iter().any(|v| pred(&v.kind));
    let collision_free_to = violations
        .iter()
        .filter_map(|v| match v.kind {
            Kind::TagCollision { at_n, .. } => Some(at_n - 1),
            _ => None,
        })
        .min()
        .unwrap_or(FAMILY_MAX_RANKS);
    let cert = ParametricCert {
        app: app.to_string(),
        family: family.name(),
        base_ranks: template.base_ranks,
        phases: template.phases.len(),
        matching_complete: !has(|k| matches!(k, Kind::SymbolicUnmatchedSend { .. })),
        deadlock_free: !has(|k| matches!(k, Kind::ParametricDeadlock { .. })),
        collision_free_to,
        crosschecks,
        verify_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    ParametricReport {
        app: app.to_string(),
        template: Some(template),
        cert: Some(cert),
        violations,
    }
}

/// Lift, symbolically verify, and cross-check every registered
/// distributed app. Every report clean is the repo's rank-parametric
/// correctness claim; `analyze --comm --parametric` gates CI on it.
pub fn parametric_check_all() -> Vec<ParametricReport> {
    registry::distributed()
        .map(|(e, d)| {
            verify_app(e.name, d.family.clone(), d.base_ranks, |n| {
                Universe::run_logged(n, d.scaled).1
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::testutil::{log_of, recv, send};

    fn planted(app: &str, phases: Vec<PhaseTemplate>) -> ScheduleTemplate {
        ScheduleTemplate {
            app: app.to_string(),
            family: TopologyFamily::Ring,
            base_ranks: 4,
            phases,
        }
    }

    fn phase(pattern: PhasePattern) -> PhaseTemplate {
        PhaseTemplate {
            ctx: None,
            guard: RankGuard::All,
            pattern,
        }
    }

    #[test]
    fn lift_two_rank_exchange_to_peer_template() {
        let logs = vec![
            log_of(
                0,
                vec![send(1, 3, 64, Some("u")), recv(1, 3, 64, Some("u"))],
            ),
            log_of(
                1,
                vec![send(0, 3, 64, Some("u")), recv(0, 3, 64, Some("u"))],
            ),
        ];
        let t = lift("demo", &TopologyFamily::RcbGraph, &logs).expect("lifts");
        assert_eq!(t.phases.len(), 1);
        assert_eq!(t.phases[0].pattern, PhasePattern::PeerExchange { tag: 3 });
        assert!(check_template(&t).is_empty());
    }

    #[test]
    fn declared_unmatched_send_reports_min_n() {
        let t = planted(
            "planted",
            vec![phase(PhasePattern::DirectedSend {
                from: 1,
                to: 5,
                tag: 9,
                recv_posted: false,
            })],
        );
        let vs = check_template(&t);
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0].kind,
            Kind::SymbolicUnmatchedSend {
                from: 1,
                to: 5,
                tag: 9,
                min_n: 6
            }
        ));
    }

    #[test]
    fn declared_pair_deadlock_is_n_dependent() {
        let t = planted(
            "planted",
            vec![phase(PhasePattern::PairExchange {
                a: 2,
                b: 5,
                tag: 4,
                recv_first: true,
            })],
        );
        let vs = check_template(&t);
        assert_eq!(vs.len(), 1);
        assert!(matches!(
            vs[0].kind,
            Kind::ParametricDeadlock {
                rank_a: 2,
                rank_b: 5,
                tag: 4,
                min_n: 6
            }
        ));
        // Below min_n the phase is inert: no ranks to fire it.
        assert!(!t.phases[0].active_at(5, &t.family));
        assert!(t.phases[0].active_at(6, &t.family));
    }

    #[test]
    fn ring_reusing_one_tag_collides_at_wraparound() {
        let t = planted(
            "planted",
            vec![phase(PhasePattern::RingShift {
                tag_to_prev: 5,
                tag_to_next: 5,
            })],
        );
        let vs = check_template(&t);
        assert_eq!(vs.len(), 1);
        assert!(
            matches!(vs[0].kind, Kind::TagCollision { tag: 5, at_n: 2 }),
            "{:?}",
            vs[0].kind
        );
        // Distinct direction tags never collide: (src, dst) pairs repeat
        // only at N == 2 and the tags disambiguate there.
        let ok = planted(
            "ok",
            vec![phase(PhasePattern::RingShift {
                tag_to_prev: 5,
                tag_to_next: 6,
            })],
        );
        assert!(check_template(&ok).is_empty());
    }

    #[test]
    fn cart_halo_active_iff_dim_extent_nontrivial() {
        let p = phase(PhasePattern::CartHalo {
            dim: 2,
            tag_low: 1,
            tag_high: 2,
        });
        let fam = TopologyFamily::Cart { ndims: 3 };
        // dims_create(4, 3) = [2, 2, 1]: dim 2 inert at N = 4.
        assert!(!p.active_at(4, &fam));
        // dims_create(8, 3) = [2, 2, 2]: live at N = 8.
        assert!(p.active_at(8, &fam));
    }
}
