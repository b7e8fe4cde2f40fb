//! speccheck — certification from the declared chain, and the check that
//! keeps the declaration honest.
//!
//! Each structured app declares its loop chain once as a [`ChainSpec`] —
//! an ordered, parametric program of loops (each with its access
//! contract), halo exchanges, and buffer swaps over symbolically-sized
//! dats. [`analyze_static`] validates that declaration, abstractly
//! interprets it into a synthetic [`bwb_ops::access::Recording`], and runs
//! the unmodified [`DataflowReport`] analyzers over it. For a declared app
//! this is the one source of fusion / streaming-store
//! certificates: `analyze --dataflow`, `analyze --static`, [`static_plan`]
//! and the serve front end all read it.
//!
//! # Abstract domains
//!
//! Three abstractions make the synthetic recording a faithful stand-in
//! for an instrumented run:
//!
//! * **Per-field def-use timelines.** `instantiate` threads a name table
//!   through the step stream; `Step::Swap` permutes it exactly as the
//!   drivers' `mem::swap` permutes buffer identities at runtime, so each
//!   field's sequence of writes, reads, and exchanges lands in the same
//!   order the recorder would observe.
//! * **Stencil-footprint reachability.** Synthetic `ArgObs` carry *empty*
//!   observed-offset sets, so the def-use graph's join of observed and
//!   declared radii is the declared radius — which checked execution
//!   proves is never exceeded (observed ⊆ declared).
//! * **Halo-validity state machines.** `Step::Exchange` lands in the
//!   timeline at its loop-ordinal position, driving the ghost
//!   valid/stale/refreshed automaton the exchange lints walk — same
//!   transitions, symbolic grid.
//!
//! # Soundness
//!
//! Certificates are functions of the def-use graph alone, and the graph
//! is a function of `(loop_specs, recording)`; here both come from the
//! declaration. They hold for a run when two provisos hold, and the
//! default `analyze` gate (`check_all`) checks both on every declared
//! entry's CI-sized recorded run:
//!
//! * **Stream equality.** [`check_recording`] walks the recording in
//!   lockstep with `instantiate(binding, iters)`; the first loop (name,
//!   dims, range, arity), argument (runtime name, halo, extent, element
//!   size) or exchange (dat, depth, position, site) that differs becomes
//!   one [`Kind::ChainDivergence`].
//! * **Contract containment.** Checked execution diffs every observed
//!   offset and output access against the chain's derived
//!   [`ChainSpec::loop_specs`].
//!
//! [`stability`] adds a parametricity check: the chain must stay clean,
//! and the position-free cert projections must not change, when it runs
//! one more iteration, catching declarations that only coincidentally
//! match at the CI size.
//! A chain that does not validate (a shape stated with two contracts, an
//! unbound parameter, a bad slot, inconsistent geometry) yields
//! [`Kind::UnderspecifiedChain`] instead of certificates.

use crate::dataflow::{DataflowReport, Limitation};
use crate::registry::{entry, AppEntry, Chain, APPS};
use crate::violation::{Kind, Violation};
use bwb_ops::access::{ArgObs, ExchangeObs, LoopObs, Recording};
use bwb_ops::{Binding, ChainSpec, OptPlan};
use std::collections::BTreeSet;
use std::time::Instant;

/// Validate a declared chain and instantiate it; `Err` carries one
/// [`Kind::UnderspecifiedChain`] violation per problem.
fn instantiate_valid(
    spec: &ChainSpec,
    binding: &Binding,
    iters: usize,
) -> Result<Recording, Vec<Violation>> {
    let underspecified = |detail: String| Violation {
        app: spec.app.to_string(),
        kind: Kind::UnderspecifiedChain { detail },
    };
    let errs = spec.validate();
    if !errs.is_empty() {
        return Err(errs
            .into_iter()
            .map(|e| underspecified(e.to_string()))
            .collect());
    }
    spec.instantiate(binding, iters)
        .map_err(|e| vec![underspecified(e.to_string())])
}

/// Statically analyze a declared chain: validate it, instantiate the
/// synthetic recording at `binding`/`iters`, and run the standard dataflow
/// analysis over it against the chain's own contracts. `Err` carries
/// [`Kind::UnderspecifiedChain`] violations; nothing is certified from a
/// malformed declaration.
pub fn analyze_static(
    spec: &ChainSpec,
    binding: &Binding,
    iters: usize,
) -> Result<DataflowReport, Vec<Violation>> {
    let rec = instantiate_valid(spec, binding, iters)?;
    Ok(DataflowReport::analyze(spec.app, &spec.loop_specs(), &rec))
}

/// Validate a declared chain against a recorded run of the program it
/// declares: the recording must equal `instantiate(binding, iters)` loop
/// for loop, argument for argument and exchange for exchange. Returns the
/// first difference as a [`Kind::ChainDivergence`], or the chain's
/// [`Kind::UnderspecifiedChain`] problems; empty when the two agree.
pub fn check_recording(
    spec: &ChainSpec,
    binding: &Binding,
    iters: usize,
    recorded: &Recording,
) -> Vec<Violation> {
    match instantiate_valid(spec, binding, iters) {
        Ok(declared) => divergence(&declared, recorded)
            .map(|kind| Violation {
                app: spec.app.to_string(),
                kind,
            })
            .into_iter()
            .collect(),
        Err(violations) => violations,
    }
}

/// The first place the recorded stream departs from the declared one:
/// loops first, in program order, then exchanges.
fn divergence(declared: &Recording, recorded: &Recording) -> Option<Kind> {
    let kind = |at, (what, declared, recorded): (String, String, String)| Kind::ChainDivergence {
        at,
        what,
        declared,
        recorded,
    };
    let loops = declared.loops.len().max(recorded.loops.len());
    for at in 0..loops {
        let diff = match (declared.loops.get(at), recorded.loops.get(at)) {
            (Some(d), Some(r)) => loop_diff(d, r),
            (d, r) => {
                let show =
                    |l: Option<&LoopObs>| l.map_or("nothing".to_string(), |l| l.name.clone());
                Some(("loop".into(), show(d), show(r)))
            }
        };
        if let Some(diff) = diff {
            return Some(kind(at, diff));
        }
    }
    let exchanges = declared.exchanges.len().max(recorded.exchanges.len());
    (0..exchanges).find_map(|i| {
        let (d, r) = (declared.exchanges.get(i), recorded.exchanges.get(i));
        if d == r {
            return None;
        }
        let show = |e: Option<&ExchangeObs>| {
            e.map_or("nothing".into(), |e| {
                format!(
                    "'{}' depth {} site '{}' after loop #{}",
                    e.dat, e.depth, e.site, e.at
                )
            })
        };
        let at = d.or(r).map_or(0, |e| e.at);
        Some(kind(at, (format!("exchange #{i}"), show(d), show(r))))
    })
}

/// `(what, declared, recorded)` for the first field two loops disagree on.
fn loop_diff(d: &LoopObs, r: &LoopObs) -> Option<(String, String, String)> {
    if d.name != r.name {
        return Some(("loop".into(), d.name.clone(), r.name.clone()));
    }
    let shape = [
        ("dims", d.dims.to_string(), r.dims.to_string()),
        ("range", format!("{:?}", d.range), format!("{:?}", r.range)),
        ("outs", d.outs.len().to_string(), r.outs.len().to_string()),
        ("ins", d.ins.len().to_string(), r.ins.len().to_string()),
    ];
    if let Some((field, a, b)) = shape.into_iter().find(|(_, a, b)| a != b) {
        return Some((format!("loop '{}' {field}", d.name), a, b));
    }
    let outs = d
        .outs
        .iter()
        .zip(&r.outs)
        .enumerate()
        .map(|(k, p)| ("out", k, p));
    let ins = d
        .ins
        .iter()
        .zip(&r.ins)
        .enumerate()
        .map(|(k, p)| ("in", k, p));
    outs.chain(ins).find_map(|(role, k, (a, b))| {
        let (field, declared, recorded) = arg_diff(a, b)?;
        let what = format!("loop '{}' {role} {k} '{}' {field}", d.name, a.name);
        Some((what, declared, recorded))
    })
}

fn arg_diff(d: &ArgObs, r: &ArgObs) -> Option<(&'static str, String, String)> {
    [
        ("name", d.name.clone(), r.name.clone()),
        ("halo", d.halo.to_string(), r.halo.to_string()),
        (
            "extent",
            format!("{:?}", d.extent),
            format!("{:?}", r.extent),
        ),
        (
            "elem_bytes",
            d.elem_bytes.to_string(),
            r.elem_bytes.to_string(),
        ),
    ]
    .into_iter()
    .find(|(_, a, b)| a != b)
}

fn nt_set(r: &DataflowReport) -> BTreeSet<String> {
    r.nt.iter()
        .map(|n| format!("{}:{}", n.loop_name, n.dat))
        .collect()
}

/// Parametric-stability check: re-run the analysis at one more body
/// iteration. A chain clean at `iters` has every violation found there
/// reported (a defect that needs one more iteration to appear, such as an
/// exchange made redundant by the previous iteration's swaps, is still a
/// defect), and the position-free certificate projections must agree —
/// streaming-store certs are name-keyed and must be identical; every
/// fusion-group *shape* (its name vector) present at `iters` must recur at
/// `iters + 1`. A chain whose verdict shifts with the iteration count only
/// coincidentally matched the recorded run, which is exactly the
/// underspecification this flags.
pub fn stability(spec: &ChainSpec, binding: &Binding, iters: usize) -> Vec<Violation> {
    let (a, b) = match (
        analyze_static(spec, binding, iters),
        analyze_static(spec, binding, iters + 1),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return e,
    };
    let mut out = Vec::new();
    let mut unstable = |detail: String| {
        out.push(Violation {
            app: spec.app.to_string(),
            kind: Kind::UnderspecifiedChain { detail },
        });
    };
    // A chain that already fails at `iters` is reported by its own
    // violations; one clean there must stay clean.
    if a.clean() {
        for v in &b.violations {
            unstable(format!(
                "at {} body iterations: [{}] {}",
                iters + 1,
                v.kind.tag(),
                v.kind
            ));
        }
    }
    if nt_set(&a) != nt_set(&b) {
        unstable(format!(
            "streaming-store certs unstable across iteration count: {:?} at {} vs {:?} at {}",
            nt_set(&a),
            iters,
            nt_set(&b),
            iters + 1
        ));
    }
    let shapes = |r: &DataflowReport| -> BTreeSet<String> {
        r.groups.iter().map(|g| g.names.join("+")).collect()
    };
    for missing in shapes(&a).difference(&shapes(&b)) {
        unstable(format!(
            "fusion group shape '{missing}' present at {} iterations vanishes at {}",
            iters,
            iters + 1
        ));
    }
    out
}

/// The whole-chain report of a declared chain: the static analysis with
/// its parametric-stability findings folded into the violations, or — for
/// a chain that does not validate — an unanalyzed report carrying why.
pub(crate) fn chain_report(
    app: &str,
    spec: &ChainSpec,
    binding: &Binding,
    iters: usize,
) -> DataflowReport {
    match analyze_static(spec, binding, iters) {
        Ok(mut rep) => {
            rep.violations.extend(stability(spec, binding, iters));
            rep
        }
        Err(violations) => {
            let mut rep = DataflowReport::limited(app, 0, Limitation::NoDslLoops);
            rep.limitation = None;
            rep.violations = violations;
            rep
        }
    }
}

/// One app's execution-free verdict: the dataflow report derived purely
/// from its declared chain (or a limited report where no chain can
/// exist), plus the analyzer wall time.
#[derive(Debug)]
pub struct StaticAppReport {
    pub report: DataflowReport,
    /// Wall time of validate + instantiate + analyze + stability, in ns.
    pub nanos: u128,
}

impl StaticAppReport {
    pub fn clean(&self) -> bool {
        self.report.clean()
    }
}

impl AppEntry {
    /// The entry's execution-free verdict, timed: its chain report, or the
    /// limited report its [`Limitation`] states where no chain can exist.
    fn static_report(&self) -> StaticAppReport {
        let t0 = Instant::now();
        let report = match self.chain {
            Chain::Declared(..) => self.dataflow(),
            Chain::Undeclarable(why) => DataflowReport::limited(self.name, 0, why),
        };
        StaticAppReport {
            report,
            nanos: t0.elapsed().as_nanos(),
        }
    }
}

/// Execution-free report for one app; `None` when it declares no chain.
pub fn static_report_for(app: &str) -> Option<StaticAppReport> {
    let e = entry(app).filter(|e| matches!(e.chain, Chain::Declared(..)))?;
    Some(e.static_report())
}

/// Statically certify every registered app from its declared chain — no
/// app code executes. Apps without a declarable chain appear with their
/// entry's [`Limitation`]; underspecified chains and parametric
/// instabilities surface as violations, never as silent gaps.
pub fn static_all() -> Vec<StaticAppReport> {
    APPS.iter().map(AppEntry::static_report).collect()
}

/// The statically derived optimization plan for `app`, ready for an
/// executor — only when a chain exists and every static check passed.
pub fn static_plan(app: &str) -> Option<OptPlan> {
    static_report_for(app)
        .filter(|s| s.report.analyzed && s.clean())
        .map(|s| s.report.export_plan())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::LocalRun;
    use bwb_ops::{Access, DatDecl, Expr, Stencil, Step};

    fn toy_chain() -> ChainSpec {
        let c = Expr::c;
        let p = Expr::p;
        let dat = |name: &'static str| DatDecl {
            name,
            halo: 1,
            extent: [p("n"), p("n"), Expr::c(1)],
            elem_bytes: 8,
        };
        let stage = |name, out, input| Step::Loop {
            name,
            dims: 2,
            range: [c(0), p("n"), c(0), p("n"), c(0), c(1)],
            outs: vec![(out, Access::Write)],
            ins: vec![(input, Stencil::plus2(1))],
        };
        ChainSpec {
            app: "toy",
            dats: vec![dat("src"), dat("tmp"), dat("dst")],
            prologue: Vec::new(),
            body: vec![stage("stage_a", 1, 0), stage("stage_b", 2, 1)],
            epilogue: Vec::new(),
        }
    }

    fn n16() -> Binding {
        Binding::new().set("n", 16)
    }

    #[test]
    fn static_analysis_of_valid_chain_succeeds() {
        let rep = analyze_static(&toy_chain(), &n16(), 2).expect("valid chain");
        assert_eq!(rep.loops, 4);
        // The toy chain has a genuine inter-iteration dead store (nothing
        // reads `dst` before the next iteration overwrites it) and the
        // static analyzer finds it without executing a single kernel.
        assert!(
            rep.violations
                .iter()
                .any(|v| matches!(&v.kind, Kind::DeadStore { dat, .. } if dat == "dst")),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn conflicting_contract_is_underspecified_chain() {
        let mut chain = toy_chain();
        if let Step::Loop { name, .. } = &mut chain.body[1] {
            *name = "stage_a";
        }
        if let Step::Loop { outs, .. } = &mut chain.body[1] {
            outs[0].1 = Access::ReadWrite;
        }
        let errs = analyze_static(&chain, &n16(), 1).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(matches!(errs[0].kind, Kind::UnderspecifiedChain { .. }));
    }

    #[test]
    fn unbound_param_is_underspecified_chain() {
        let errs = analyze_static(&toy_chain(), &Binding::new(), 1).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v.kind, Kind::UnderspecifiedChain { .. })));
    }

    #[test]
    fn a_run_equal_to_its_declaration_validates() {
        let chain = toy_chain();
        let rec = chain.instantiate(&n16(), 2).unwrap();
        assert!(check_recording(&chain, &n16(), 2, &rec).is_empty());
    }

    #[test]
    fn planted_stream_divergence_is_detected() {
        let chain = toy_chain();
        let truth = chain.instantiate(&n16(), 2).unwrap();
        let divergence = |rec: &Recording| match &check_recording(&chain, &n16(), 2, rec)[..] {
            [Violation {
                kind:
                    Kind::ChainDivergence {
                        at,
                        what,
                        declared,
                        recorded,
                    },
                ..
            }] => (*at, what.clone(), declared.clone(), recorded.clone()),
            other => panic!("{other:?}"),
        };
        let mut rec = truth.clone();
        rec.loops[3].ins[0].halo = 2;
        let (at, what, declared, recorded) = divergence(&rec);
        assert_eq!((at, declared.as_str(), recorded.as_str()), (3, "1", "2"));
        assert_eq!(what, "loop 'stage_b' in 0 'tmp' halo");

        let mut rec = truth.clone();
        rec.loops.pop();
        assert_eq!(
            divergence(&rec),
            (3, "loop".into(), "stage_b".into(), "nothing".into())
        );

        let mut rec = truth;
        rec.exchanges.push(ExchangeObs {
            dat: "src".into(),
            depth: 1,
            at: 2,
            site: String::new(),
        });
        let (at, what, declared, _) = divergence(&rec);
        assert_eq!(
            (at, what.as_str(), declared.as_str()),
            (2, "exchange #0", "nothing")
        );
    }

    /// Stream equality is what makes one pipeline enough: for every
    /// declared entry, analyzing its recorded run against the chain's
    /// contracts yields the chain's own report, byte for byte.
    #[test]
    fn static_certs_match_recorded_certs_exactly() {
        for e in APPS {
            let (Some((chain, ..)), LocalRun::Structured(record)) = (e.declared(), &e.local) else {
                continue;
            };
            let recorded = DataflowReport::analyze(e.name, &chain.loop_specs(), &record());
            assert_eq!(recorded.to_json(), e.dataflow().to_json(), "{}", e.name);
        }
    }

    #[test]
    fn toy_chain_is_parametrically_stable() {
        assert!(stability(&toy_chain(), &n16(), 2).is_empty());
    }

    /// Satellite claim: *every* registry app appears in the static report —
    /// structured apps with a clean execution-free analysis, op2 apps with
    /// the honest indirect-access limitation, miniBUDE with no-DSL-loops.
    /// Partial coverage is declared, never silent.
    #[test]
    fn static_report_covers_every_registry_app() {
        let reports = static_all();
        let names: Vec<&str> = reports.iter().map(|r| r.report.app.as_str()).collect();
        for expected in [
            "cloverleaf2d",
            "clover2d_dist",
            "cloverleaf3d",
            "acoustic",
            "acoustic_dist",
            "opensbli_sa",
            "opensbli_sn",
            "miniweather",
            "mgcfd",
            "volna",
            "minibude",
        ] {
            assert!(names.contains(&expected), "missing app {expected}");
        }
        for r in &reports {
            let app = r.report.app.as_str();
            assert!(r.clean(), "{app}: {:?}", r.report.violations);
            match app {
                "mgcfd" | "volna" => assert_eq!(
                    r.report.limitation,
                    Some(Limitation::IndirectAccesses),
                    "{app}: op2 apps must state why static coverage is partial"
                ),
                "minibude" => {
                    assert_eq!(r.report.limitation, Some(Limitation::NoDslLoops), "{app}")
                }
                _ => {
                    assert!(r.report.analyzed, "{app}: chain not analyzed");
                    assert!(r.report.loops > 0, "{app}: empty synthetic recording");
                }
            }
        }
        // The declarations are worth having: the Store-All OpenSBLI chain
        // must statically certify the ten-loop RHS fusion group — without
        // executing anything.
        let sa = reports
            .iter()
            .find(|r| r.report.app == "opensbli_sa")
            .unwrap();
        assert!(
            sa.report.groups.iter().any(|g| g.names.len() >= 10),
            "opensbli_sa: RHS fusion group not statically certified"
        );
    }

    /// Each CloverLeaf 2D halo site updates only the fields read through
    /// it, so dropping one is a stale read:
    /// - without energy1 at `cells1`, the x remap reads energy ghosts that
    ///   `pdv`'s write left stale. No energy buffer is then exchanged
    ///   anywhere, so only the rule that judges every dat of an exchanging
    ///   run can see it.
    /// - without xvel1 at `vel0`, `advec_mom` reads the node ghosts that
    ///   `accelerate`'s write left stale.
    #[test]
    fn a_dropped_clover_halo_field_is_a_stale_halo_read() {
        let entry = entry("clover2d_dist").expect("registered");
        let (chain, binding, iters) = entry.declared().expect("declared");
        let clean = analyze_static(&chain, &binding, iters).expect("valid chain");
        assert!(clean.clean(), "{:?}", clean.violations);
        for (name, from, reader, radius) in [
            ("energy1", "cells1", "advec_cell_x", 2),
            ("xvel1", "vel0", "advec_mom", 1),
        ] {
            let mut chain = chain.clone();
            let slot = chain.dats.iter().position(|d| d.name == name).unwrap();
            let dropped = |s: &Step| matches!(s, Step::Exchange { dat, site, .. } if *dat == slot && *site == from);
            assert_eq!(chain.body.iter().filter(|s| dropped(s)).count(), 1);
            chain.body.retain(|s| !dropped(s));
            let planted = analyze_static(&chain, &binding, iters).expect("valid chain");
            assert!(!planted.violations.is_empty(), "{name} at {from}");
            for v in &planted.violations {
                let Kind::StaleHaloRead {
                    loop_name,
                    required_radius,
                    valid_depth,
                    ..
                } = &v.kind
                else {
                    panic!("{name} at {from}: {v:?}");
                };
                assert_eq!(
                    (loop_name.as_str(), *required_radius, *valid_depth),
                    (reader, radius, 0),
                    "{name} at {from}"
                );
            }
        }
    }

    /// A defect that needs more body iterations to appear is still a
    /// defect: the distributed clover chain is clean at 2, 3 and 4, and
    /// a chain clean at `iters` but not at `iters + 1` fails `stability`.
    #[test]
    fn clover_dist_chain_is_clean_at_two_to_four_iterations() {
        let (chain, binding, _) = entry("clover2d_dist").unwrap().declared().unwrap();
        for iters in [2, 3, 4] {
            let rep = analyze_static(&chain, &binding, iters).expect("valid chain");
            assert!(rep.clean(), "{iters} iterations: {:?}", rep.violations);
        }
        // Exchange xvel0 at `vel0` and, after the swap, at a `vel1` site
        // at the end of the body: the `vel1` exchange leaves the buffer
        // valid for the next iteration's `vel0` one, which is redundant
        // from the second iteration on.
        let mut chain = chain;
        let xv0 = chain.dats.iter().position(|d| d.name == "xvel0").unwrap();
        let exchange = |site| Step::Exchange {
            dat: xv0,
            depth: 1,
            site,
        };
        let vel0 = chain
            .body
            .iter()
            .rposition(|s| matches!(s, Step::Exchange { site: "vel0", .. }));
        chain.body.insert(vel0.unwrap() + 1, exchange("vel0"));
        chain.body.push(exchange("vel1"));
        assert!(analyze_static(&chain, &binding, 1).unwrap().clean());
        let found = stability(&chain, &binding, 1);
        assert!(!found.is_empty());
        for v in &found {
            let Kind::UnderspecifiedChain { detail } = &v.kind else {
                panic!("{v:?}");
            };
            assert!(detail.contains("redundant_exchange"), "{detail}");
        }
    }

    /// `static_plan` is the executor-facing entry: it must produce a
    /// non-trivial plan for every declarable app and nothing for the rest.
    #[test]
    fn static_plans_exist_exactly_for_declarable_apps() {
        for (app, declarable) in [
            ("cloverleaf2d", true),
            ("clover2d_dist", true),
            ("opensbli_sa", true),
            ("mgcfd", false),
            ("volna", false),
            ("minibude", false),
            ("unknown_app", false),
        ] {
            let plan = static_plan(app);
            assert_eq!(plan.is_some(), declarable, "{app}");
            if let Some(plan) = plan {
                assert!(!plan.loops.is_empty(), "{app}: empty plan IR");
            }
        }
    }
}
