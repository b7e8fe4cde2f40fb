//! speccheck — execution-free static certification of optimization plans.
//!
//! The dynamic pipeline records an app under instrumented execution and
//! derives certificates (`FusionGroupCert` / `ElisionCert` / `NtCert`)
//! from the observed loop/exchange stream. This module derives the *same*
//! certificates without executing anything: each app declares its loop
//! chain once as a [`ChainSpec`] — an ordered, parametric program of
//! loops, halo exchanges, and buffer swaps over symbolically-sized dats —
//! and [`analyze_static`] abstractly interprets that declaration into a
//! synthetic [`bwb_ops::access::Recording`] which the unmodified
//! [`DataflowReport`] analyzers consume.
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
//!   observed-offset sets. The def-use graph joins observed radii with
//!   declared stencil radii via `max`, so a clean registry (observed ⊆
//!   declared, enforced by checked execution) makes the declared radius
//!   the join in both pipelines — footprints agree without sampling a
//!   single access.
//! * **Halo-validity state machines.** `Step::Exchange` lands in the
//!   timeline at its loop-ordinal position, driving the ghost
//!   valid/stale/refreshed automaton the elision certifier walks — same
//!   transitions, symbolic grid.
//!
//! # Soundness
//!
//! Certificates are functions of the def-use graph alone, and the graph
//! is a function of `(specs, recording)`. [`crosscheck`] makes the
//! remaining gap — "does the declared stream match the executed stream?"
//! — a checked claim: any certificate derived statically but absent
//! dynamically (or vice versa) becomes a
//! [`Kind::StaticDynamicDivergence`] violation, and CI fails on it. A
//! chain that does not even validate (unknown contract, unbound
//! parameter, bad slot, inconsistent geometry) yields
//! [`Kind::UnderspecifiedChain`] instead of certificates.
//!
//! [`stability`] adds a parametricity check: the position-free cert
//! projections must not change when the chain runs one more iteration,
//! catching declarations that only coincidentally match at the CI size.

use crate::dataflow::{DataflowReport, Limitation};
use crate::registry::{entry, AppEntry, Chain, LocalRun, APPS};
use crate::violation::{Kind, Violation};
use bwb_ops::{Binding, ChainSpec, LoopSpec, OptPlan};
use std::collections::BTreeSet;
use std::time::Instant;

/// Statically analyze a declared chain: validate it against the loop
/// contracts, instantiate the synthetic recording at `binding`/`iters`,
/// and run the standard dataflow analysis over it. `Err` carries
/// [`Kind::UnderspecifiedChain`] violations; nothing is certified from a
/// malformed declaration.
pub fn analyze_static(
    spec: &ChainSpec,
    specs: &[LoopSpec],
    binding: &Binding,
    iters: usize,
) -> Result<DataflowReport, Vec<Violation>> {
    let errs = spec.validate(specs);
    if !errs.is_empty() {
        return Err(errs
            .into_iter()
            .map(|e| Violation {
                app: spec.app.to_string(),
                kind: Kind::UnderspecifiedChain {
                    detail: e.to_string(),
                },
            })
            .collect());
    }
    let rec = spec.instantiate(binding, iters).map_err(|e| {
        vec![Violation {
            app: spec.app.to_string(),
            kind: Kind::UnderspecifiedChain {
                detail: e.to_string(),
            },
        }]
    })?;
    Ok(DataflowReport::analyze(spec.app, specs, &rec))
}

/// The two directions a static/dynamic comparison can diverge in.
#[derive(Debug, Default)]
pub struct Crosscheck {
    /// Certificates the chain derived that the recorded run refutes —
    /// unsound static claims. Any entry is a hard failure.
    pub divergent: Vec<Violation>,
    /// Certificates the recorded run derived that the chain missed —
    /// incomplete (not unsound) static coverage. Zero for a faithful
    /// declaration.
    pub missed: Vec<Violation>,
}

impl Crosscheck {
    /// Static certs ⊆ dynamic certs (the soundness direction).
    pub fn sound(&self) -> bool {
        self.divergent.is_empty()
    }

    /// Exact agreement in both directions.
    pub fn exact(&self) -> bool {
        self.divergent.is_empty() && self.missed.is_empty()
    }
}

fn diff_family(
    app: &str,
    family: &str,
    stat: &BTreeSet<String>,
    dynamic: &BTreeSet<String>,
    out: &mut Crosscheck,
) {
    for cert in stat.difference(dynamic) {
        out.divergent.push(Violation {
            app: app.to_string(),
            kind: Kind::StaticDynamicDivergence {
                family: family.to_string(),
                cert: cert.clone(),
                static_only: true,
            },
        });
    }
    for cert in dynamic.difference(stat) {
        out.missed.push(Violation {
            app: app.to_string(),
            kind: Kind::StaticDynamicDivergence {
                family: family.to_string(),
                cert: cert.clone(),
                static_only: false,
            },
        });
    }
}

fn fusion_set(r: &DataflowReport) -> BTreeSet<String> {
    r.groups
        .iter()
        .map(|g| format!("[{}] {}", g.start, g.names.join("+")))
        .collect()
}

fn elision_set(r: &DataflowReport) -> BTreeSet<String> {
    r.elisions
        .iter()
        .map(|e| format!("{}:{} depth {}", e.site, e.dat, e.depth))
        .collect()
}

fn nt_set(r: &DataflowReport) -> BTreeSet<String> {
    r.nt.iter()
        .map(|n| format!("{}:{}", n.loop_name, n.dat))
        .collect()
}

fn lint_set(r: &DataflowReport) -> BTreeSet<String> {
    r.violations
        .iter()
        .map(|v| format!("{}: {}", v.kind.tag(), v.kind))
        .collect()
}

/// Cross-validate a statically derived report against a recording-derived
/// one, certificate family by certificate family. Lint verdicts
/// (dead stores, exchange lints) are compared too: the static analyzer
/// must neither invent nor miss a diagnostic.
pub fn crosscheck(stat: &DataflowReport, dynamic: &DataflowReport) -> Crosscheck {
    let mut out = Crosscheck::default();
    let app = stat.app.as_str();
    diff_family(
        app,
        "fusion",
        &fusion_set(stat),
        &fusion_set(dynamic),
        &mut out,
    );
    diff_family(
        app,
        "elision",
        &elision_set(stat),
        &elision_set(dynamic),
        &mut out,
    );
    diff_family(app, "nt", &nt_set(stat), &nt_set(dynamic), &mut out);
    diff_family(app, "lint", &lint_set(stat), &lint_set(dynamic), &mut out);
    if stat.loops != dynamic.loops {
        out.divergent.push(Violation {
            app: app.to_string(),
            kind: Kind::StaticDynamicDivergence {
                family: "stream".to_string(),
                cert: format!(
                    "declared chain yields {} loops, recording has {}",
                    stat.loops, dynamic.loops
                ),
                static_only: true,
            },
        });
    }
    if stat.exchanges != dynamic.exchanges {
        out.divergent.push(Violation {
            app: app.to_string(),
            kind: Kind::StaticDynamicDivergence {
                family: "stream".to_string(),
                cert: format!(
                    "declared chain yields {} exchanges, recording has {}",
                    stat.exchanges, dynamic.exchanges
                ),
                static_only: true,
            },
        });
    }
    out
}

/// Parametric-stability check: re-derive the certificates at one more
/// body iteration and require the position-free projections to agree —
/// elision and streaming-store certs are site/name-keyed and must be
/// identical; every fusion-group *shape* (its name vector) present at
/// `iters` must recur at `iters + 1`. A chain whose certs shift with the
/// iteration count only coincidentally matched the recorded run, which is
/// exactly the underspecification this flags.
pub fn stability(
    spec: &ChainSpec,
    specs: &[LoopSpec],
    binding: &Binding,
    iters: usize,
) -> Vec<Violation> {
    let (a, b) = match (
        analyze_static(spec, specs, binding, iters),
        analyze_static(spec, specs, binding, iters + 1),
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
    if elision_set(&a) != elision_set(&b) {
        unstable(format!(
            "elision certs unstable across iteration count: {:?} at {} vs {:?} at {}",
            elision_set(&a),
            iters,
            elision_set(&b),
            iters + 1
        ));
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

/// One execution-free pass over an entry's declared chain.
struct StaticPass {
    analysis: Result<DataflowReport, Vec<Violation>>,
    /// Parametric-stability violations (none when the analysis failed).
    unstable: Vec<Violation>,
    /// Wall time of validate + instantiate + analyze + stability, in ns.
    nanos: u128,
}

impl AppEntry {
    /// Analyze the declared chain and check its parametric stability,
    /// without executing anything. `None` when the entry declares no chain.
    fn static_pass(&self) -> Option<StaticPass> {
        let (LocalRun::Structured(_, specs), Chain::Declared(chain, binding, iters)) =
            (&self.local, &self.chain)
        else {
            return None;
        };
        let (chain, specs) = (chain(), specs());
        let binding = binding
            .iter()
            .fold(Binding::new(), |b, &(name, v)| b.set(name, v));
        let t0 = Instant::now();
        let analysis = analyze_static(&chain, &specs, &binding, *iters);
        let unstable = match analysis {
            Ok(_) => stability(&chain, &specs, &binding, *iters),
            Err(_) => Vec::new(),
        };
        Some(StaticPass {
            analysis,
            unstable,
            nanos: t0.elapsed().as_nanos(),
        })
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
    /// Execution-free report, parametric-stability findings folded into
    /// its violations. `None` when the entry declares no chain.
    fn static_report(&self) -> Option<StaticAppReport> {
        let pass = self.static_pass()?;
        let report = match pass.analysis {
            Ok(mut rep) => {
                rep.violations.extend(pass.unstable);
                rep
            }
            Err(violations) => {
                let mut rep = DataflowReport::limited(self.name, 0, Limitation::NoDslLoops);
                rep.limitation = None;
                rep.violations = violations;
                rep
            }
        };
        Some(StaticAppReport {
            report,
            nanos: pass.nanos,
        })
    }
}

/// Execution-free report for one app; `None` when it declares no chain.
pub fn static_report_for(app: &str) -> Option<StaticAppReport> {
    entry(app)?.static_report()
}

/// Statically certify every registered app from its declared chain — no
/// app code executes. Apps without a declarable chain appear with their
/// entry's [`Limitation`]; underspecified chains and parametric
/// instabilities surface as violations, never as silent gaps.
pub fn static_all() -> Vec<StaticAppReport> {
    APPS.iter()
        .map(|e| match e.chain {
            Chain::Declared(..) => e.static_report().expect("declared on an ops entry"),
            Chain::Undeclarable(why) => StaticAppReport {
                report: DataflowReport::limited(e.name, 0, why),
                nanos: 0,
            },
        })
        .collect()
}

/// The statically derived optimization plan for `app`, ready for an
/// executor — only when a chain exists and every static check passed.
pub fn static_plan(app: &str) -> Option<OptPlan> {
    static_report_for(app)
        .filter(|s| s.report.analyzed && s.clean())
        .map(|s| s.report.export_plan())
}

/// Static-vs-dynamic verdict for one structured app.
#[derive(Debug)]
pub struct CrosscheckReport {
    pub app: String,
    /// Certificates derived statically but refuted by the recording —
    /// unsound static claims; any entry is a hard CI failure.
    pub divergent: Vec<Violation>,
    /// Certificates the recording derived that the chain missed.
    pub missed: Vec<Violation>,
    /// Parametric-stability violations of the chain itself.
    pub unstable: Vec<Violation>,
    pub static_certs: usize,
    pub dynamic_certs: usize,
    pub static_nanos: u128,
    pub dynamic_nanos: u128,
}

impl CrosscheckReport {
    /// Zero divergence in either direction and a stable chain.
    pub fn exact(&self) -> bool {
        self.divergent.is_empty() && self.missed.is_empty() && self.unstable.is_empty()
    }
}

fn cert_count(r: &DataflowReport) -> usize {
    r.groups.len() + r.elisions.len() + r.nt.len()
}

/// Cross-validate every declarable app: derive its certificates from the
/// declared chain (static) and from its recording (dynamic), and diff the
/// two sets family by family. The soundness contract is static ⊆ dynamic;
/// the table's stronger checked claim is exact equality.
pub fn crosscheck_all() -> Vec<CrosscheckReport> {
    APPS.iter()
        .filter_map(|e| {
            let pass = e.static_pass()?;
            let t0 = Instant::now();
            let dynamic = e.dataflow();
            let dynamic_nanos = t0.elapsed().as_nanos();
            let (divergent, missed, static_certs) = match pass.analysis {
                Ok(stat) => {
                    let cc = crosscheck(&stat, &dynamic);
                    (cc.divergent, cc.missed, cert_count(&stat))
                }
                Err(violations) => (violations, Vec::new(), 0),
            };
            Some(CrosscheckReport {
                app: e.name.to_string(),
                divergent,
                missed,
                unstable: pass.unstable,
                static_certs,
                dynamic_certs: cert_count(&dynamic),
                static_nanos: pass.nanos,
                dynamic_nanos,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_ops::{ArgSpec, ChainSpec, DatDecl, Expr, Stencil, Step};

    fn toy_specs() -> Vec<LoopSpec> {
        vec![
            LoopSpec::new(
                "stage_a",
                vec![ArgSpec::write("tmp")],
                vec![ArgSpec::read("src", Stencil::plus2(1))],
            ),
            LoopSpec::new(
                "stage_b",
                vec![ArgSpec::write("dst")],
                vec![ArgSpec::read("tmp", Stencil::plus2(1))],
            ),
        ]
    }

    fn toy_chain() -> ChainSpec {
        let c = Expr::c;
        let p = Expr::p;
        let dat = |name: &'static str| DatDecl {
            name,
            halo: 1,
            extent: [p("n"), p("n"), Expr::c(1)],
            elem_bytes: 8,
        };
        let range = || [c(0), p("n"), c(0), p("n"), c(0), c(1)];
        ChainSpec {
            app: "toy",
            params: vec!["n"],
            dats: vec![dat("src"), dat("tmp"), dat("dst")],
            prologue: Vec::new(),
            body: vec![
                Step::Loop {
                    spec: "stage_a",
                    dims: 2,
                    range: range(),
                    outs: vec![1],
                    ins: vec![0],
                },
                Step::Loop {
                    spec: "stage_b",
                    dims: 2,
                    range: range(),
                    outs: vec![2],
                    ins: vec![1],
                },
            ],
            epilogue: Vec::new(),
        }
    }

    #[test]
    fn static_analysis_of_valid_chain_succeeds() {
        let specs = toy_specs();
        let b = Binding::new().set("n", 16);
        let rep = analyze_static(&toy_chain(), &specs, &b, 2).expect("valid chain");
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
    fn unknown_contract_is_underspecified_chain() {
        let mut chain = toy_chain();
        if let Step::Loop { spec, .. } = &mut chain.body[0] {
            *spec = "no_such_loop";
        }
        let b = Binding::new().set("n", 16);
        let errs = analyze_static(&chain, &toy_specs(), &b, 1).unwrap_err();
        assert!(errs
            .iter()
            .all(|v| matches!(v.kind, Kind::UnderspecifiedChain { .. })));
        assert!(!errs.is_empty());
    }

    #[test]
    fn unbound_param_is_underspecified_chain() {
        let b = Binding::new(); // "n" missing
        let errs = analyze_static(&toy_chain(), &toy_specs(), &b, 1).unwrap_err();
        assert!(errs
            .iter()
            .any(|v| matches!(v.kind, Kind::UnderspecifiedChain { .. })));
    }

    #[test]
    fn identical_reports_crosscheck_exactly() {
        let specs = toy_specs();
        let b = Binding::new().set("n", 16);
        let rep = analyze_static(&toy_chain(), &specs, &b, 2).unwrap();
        let cc = crosscheck(&rep, &rep);
        assert!(cc.exact());
    }

    #[test]
    fn planted_stream_divergence_is_detected() {
        // Same chain, one fewer iteration on the "dynamic" side: every
        // position-indexed cert family shifts, and the stream lengths
        // disagree — the crosscheck must flag it in the hard direction.
        let specs = toy_specs();
        let b = Binding::new().set("n", 16);
        let stat = analyze_static(&toy_chain(), &specs, &b, 3).unwrap();
        let dynamic = analyze_static(&toy_chain(), &specs, &b, 2).unwrap();
        let cc = crosscheck(&stat, &dynamic);
        assert!(!cc.sound(), "divergence not detected");
        assert!(cc
            .divergent
            .iter()
            .any(|v| matches!(&v.kind, Kind::StaticDynamicDivergence { family, .. } if family == "stream")));
    }

    #[test]
    fn toy_chain_is_parametrically_stable() {
        let b = Binding::new().set("n", 16);
        assert!(stability(&toy_chain(), &toy_specs(), &b, 2).is_empty());
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
        // The declarations are worth having: the distributed clover chain
        // must statically certify halo elisions, and the Store-All OpenSBLI
        // chain the ten-loop RHS fusion group — without executing anything.
        let cdist = reports
            .iter()
            .find(|r| r.report.app == "clover2d_dist")
            .unwrap();
        assert!(
            !cdist.report.elisions.is_empty(),
            "clover2d_dist: no static elision certificates"
        );
        let sa = reports
            .iter()
            .find(|r| r.report.app == "opensbli_sa")
            .unwrap();
        assert!(
            sa.report.groups.iter().any(|g| g.names.len() >= 10),
            "opensbli_sa: RHS fusion group not statically certified"
        );
    }

    /// The repo's soundness gate: certificates derived from the declared
    /// chains agree with certificates derived from instrumented runs,
    /// rule for rule, in both directions, for every declarable app — and
    /// the chains are parametrically stable (certs unchanged at one more
    /// iteration).
    #[test]
    fn static_certs_match_recorded_certs_exactly() {
        let reports = crosscheck_all();
        assert_eq!(reports.len(), 8, "expected all structured apps");
        for r in &reports {
            assert!(
                r.divergent.is_empty(),
                "{}: unsound static certs: {:?}",
                r.app,
                r.divergent
            );
            assert!(
                r.missed.is_empty(),
                "{}: chain missed recorded certs: {:?}",
                r.app,
                r.missed
            );
            assert!(
                r.unstable.is_empty(),
                "{}: parametric instability: {:?}",
                r.app,
                r.unstable
            );
            assert_eq!(r.static_certs, r.dynamic_certs, "{}", r.app);
        }
        // The cross-check must compare something real somewhere.
        assert!(
            reports.iter().map(|r| r.static_certs).sum::<usize>() > 0,
            "no certificates compared"
        );
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
