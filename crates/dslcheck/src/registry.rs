//! The app table: every registered app stated once, every analysis a pass
//! over it.
//!
//! An [`AppEntry`] carries an app's CI-sized local run, its declared chain
//! — which states its loop contracts — or the typed reason none can exist,
//! and — for the distributed apps — the topology family, drivers and flow
//! model of its distributed half. [`check_all`] and [`dataflow_all`] here,
//! `static_all` in `speccheck`, `comm_check_all`, `parametric_check_all`
//! and `placement_check_all` in their own modules are passes over
//! [`APPS`]; zero violations across them is the repo's correctness claim
//! for its parallel schedules, and the `analyze` binary gates CI on it.

use crate::checked::check_structured;
use crate::comm::parametric::TopologyFamily;
use crate::dataflow::{DataflowReport, Limitation};
use crate::placecheck::flows::{self, PhaseFlow};
use crate::plan::check_halo_depth;
use crate::race::check_unstructured;
use crate::speccheck::{chain_report, check_recording};
use crate::violation::Violation;
use bwb_apps::{
    acoustic, cloverleaf2d, cloverleaf3d, mgcfd, minibude, miniweather, opensbli, volna,
};
use bwb_op2::{with_recording_u, ULoopObs, ULoopSpec};
use bwb_ops::access::{with_recording_full, Recording};
use bwb_ops::{Binding, ChainSpec, Profile};
use bwb_shmpi::{Comm, Universe};

/// An app's CI-sized local run under the engine's recorder.
pub enum LocalRun {
    /// ops app: the recording's loops feed checked execution and the
    /// halo-depth audit against the contracts its declared chain states
    /// (none for an undeclarable entry), and the whole recording is
    /// compared with the chain's instantiation.
    Structured(fn() -> Recording),
    /// op2 app: the observation list feeds the coloring race check. The
    /// op2 recorder sees output accesses only, so whole-chain dataflow over
    /// closure reads would be unsound and reports are limited.
    Unstructured(fn() -> Vec<ULoopObs>, fn() -> Vec<ULoopSpec>),
}

/// The declared loop chain that reproduces a structured entry's recording
/// without executing it — its loop contracts, and the static analyzer's
/// input.
pub enum Chain {
    /// The chain, its parameter binding at the CI size, and the number of
    /// body iterations.
    Declared(fn() -> ChainSpec, &'static [(&'static str, isize)], usize),
    /// Why no parametric chain can describe the app.
    Undeclarable(Limitation),
}

/// Ranks of every CI-sized distributed run (comm pass, `_dist` recordings).
pub const CI_RANKS: usize = 4;

/// The distributed half of an app.
pub struct Distributed {
    /// Which ranks talk at every world size.
    pub family: TopologyFamily,
    /// World size the parametric template is lifted from.
    pub base_ranks: usize,
    /// The distributed driver at the CI size, run on [`CI_RANKS`] ranks.
    pub ci: fn(&mut Comm),
    /// The driver with its rank-count-parametrised config, valid at every
    /// world size up to [`flows::FLOW_MAX_RANKS`].
    pub scaled: fn(&mut Comm),
    /// The execution-free flow model of `scaled` at `n` ranks; it reads its
    /// sizes from the config `scaled` runs with.
    pub flows: fn(usize) -> Vec<PhaseFlow>,
}

/// One registered app: everything any analysis needs to know about it.
pub struct AppEntry {
    pub name: &'static str,
    pub local: LocalRun,
    pub chain: Chain,
    pub dist: Option<Distributed>,
}

pub const APPS: &[AppEntry] = &[
    AppEntry {
        name: "cloverleaf2d",
        local: LocalRun::Structured(clover2_local),
        chain: Chain::Declared(
            || cloverleaf2d::chain_spec(false),
            &[("nx", 24), ("ny", 24)],
            2,
        ),
        dist: Some(Distributed {
            family: TopologyFamily::Cart { ndims: 2 },
            base_ranks: 4,
            ci: clover2_ci,
            scaled: clover2_scaled,
            flows: flows::cloverleaf2d,
        }),
    },
    // Rank 0 of the 4-rank CI run: 24×24 over 2×2 ranks is 12×12 locally.
    // Its recording interleaves the site-labelled halo exchanges with the
    // hydro loops, which is what the exchange lints walk.
    AppEntry {
        name: "clover2d_dist",
        local: LocalRun::Structured(|| record_rank0(clover2_ci)),
        chain: Chain::Declared(
            || cloverleaf2d::chain_spec(true),
            &[("nx", 12), ("ny", 12)],
            2,
        ),
        dist: None,
    },
    AppEntry {
        name: "cloverleaf3d",
        local: LocalRun::Structured(clover3_local),
        chain: Chain::Declared(cloverleaf3d::chain_spec, &[("n", 12)], 2),
        dist: None,
    },
    AppEntry {
        name: "acoustic",
        local: LocalRun::Structured(acoustic_local),
        chain: Chain::Declared(
            || acoustic::chain_spec(false),
            &[("nx", 16), ("ny", 16), ("nz", 16)],
            2,
        ),
        // Base 8 = dims [2,2,2]: all three halo dims are live in the lifted
        // template (at N = 4 the template itself predicts dim 2 inert).
        dist: Some(Distributed {
            family: TopologyFamily::Cart { ndims: 3 },
            base_ranks: 8,
            ci: acoustic_ci,
            scaled: acoustic_scaled,
            flows: flows::acoustic,
        }),
    },
    // Rank 0 of the 4-rank CI run: 16³ over (2,2,1) ranks is 8×8×16 locally.
    AppEntry {
        name: "acoustic_dist",
        local: LocalRun::Structured(|| record_rank0(acoustic_ci)),
        chain: Chain::Declared(
            || acoustic::chain_spec(true),
            &[("nx", 8), ("ny", 8), ("nz", 16)],
            3,
        ),
        dist: None,
    },
    AppEntry {
        name: "opensbli_sa",
        local: LocalRun::Structured(|| opensbli_local(opensbli::Variant::StoreAll)),
        chain: Chain::Declared(|| opensbli::chain_spec(true), &[("n", 10)], 2),
        dist: None,
    },
    AppEntry {
        name: "opensbli_sn",
        local: LocalRun::Structured(|| opensbli_local(opensbli::Variant::StoreNone)),
        chain: Chain::Declared(|| opensbli::chain_spec(false), &[("n", 10)], 2),
        dist: None,
    },
    // One chain body is the two-step period of the x,z / z,x split order.
    AppEntry {
        name: "miniweather",
        local: LocalRun::Structured(miniweather_local),
        chain: Chain::Declared(
            miniweather::chain_spec,
            &[("nx", 24), ("nz", 12)],
            MINIWEATHER_STEPS / 2,
        ),
        dist: Some(Distributed {
            family: TopologyFamily::Ring,
            base_ranks: 4,
            ci: |c| miniweather_dist(c, miniweather_cfg()),
            scaled: |c| miniweather_dist(c, miniweather_scaled_cfg(c.size())),
            flows: flows::miniweather,
        }),
    },
    AppEntry {
        name: "mgcfd",
        local: LocalRun::Unstructured(mgcfd_local, mgcfd::loop_specs),
        chain: Chain::Undeclarable(Limitation::IndirectAccesses),
        dist: Some(Distributed {
            family: TopologyFamily::RcbGraph,
            base_ranks: 4,
            ci: |c| drop(mgcfd::distributed_flux(c, &mgcfd_cfg())),
            scaled: |c| drop(mgcfd::distributed_flux(c, &mgcfd_scaled_cfg())),
            flows: flows::mgcfd,
        }),
    },
    AppEntry {
        name: "volna",
        local: LocalRun::Unstructured(volna_local, volna::loop_specs),
        chain: Chain::Undeclarable(Limitation::IndirectAccesses),
        dist: None,
    },
    // miniBUDE has no DSL loops (its docking kernel is a hand-rolled pose
    // sweep): recording it anyway makes "nothing to analyze" a checked
    // claim rather than an omission — with no chain there are no
    // contracts, so any `par_loop` added there is an `undeclared_loop`.
    AppEntry {
        name: "minibude",
        local: LocalRun::Structured(minibude_local),
        chain: Chain::Undeclarable(Limitation::NoDslLoops),
        dist: Some(Distributed {
            family: TopologyFamily::Star,
            base_ranks: 4,
            ci: minibude_dist,
            scaled: minibude_dist,
            flows: flows::minibude,
        }),
    },
];

/// The entry registered under `name`.
pub fn entry(name: &str) -> Option<&'static AppEntry> {
    APPS.iter().find(|e| e.name == name)
}

/// Every entry with a distributed half, in table order.
pub fn distributed() -> impl Iterator<Item = (&'static AppEntry, &'static Distributed)> {
    APPS.iter().filter_map(|e| Some((e, e.dist.as_ref()?)))
}

fn record(run: impl FnOnce(&mut Profile)) -> Recording {
    with_recording_full(|| run(&mut Profile::new())).1
}

/// Rank 0's recording of a distributed driver on [`CI_RANKS`] ranks (every
/// rank records the same loop shapes; rank 0 is representative).
fn record_rank0(run: fn(&mut Comm)) -> Recording {
    Universe::run(CI_RANKS, |c| with_recording_full(|| run(c)).1)
        .results
        .swap_remove(0)
}

fn clover2_cfg() -> cloverleaf2d::Config {
    cloverleaf2d::Config {
        nx: 24,
        ny: 24,
        iterations: 2,
        advection: cloverleaf2d::Advection::VanLeer,
        ..Default::default()
    }
}

pub(crate) fn clover2_scaled_cfg() -> cloverleaf2d::Config {
    cloverleaf2d::Config {
        nx: 56,
        ny: 56,
        iterations: 1,
        ..clover2_cfg()
    }
}

fn clover2_local() -> Recording {
    record(|p| {
        let mut sim = cloverleaf2d::Clover2::new(clover2_cfg());
        for _ in 0..2 {
            sim.cycle(p, None);
        }
        sim.field_summary(p);
    })
}

fn clover2_ci(c: &mut Comm) {
    cloverleaf2d::Clover2::run_distributed(c, clover2_cfg());
}

fn clover2_scaled(c: &mut Comm) {
    cloverleaf2d::Clover2::run_distributed(c, clover2_scaled_cfg());
}

fn clover3_local() -> Recording {
    record(|p| {
        let mut sim = cloverleaf3d::Clover3::new(cloverleaf3d::Config {
            n: 12,
            iterations: 2,
            ..Default::default()
        });
        for _ in 0..2 {
            sim.cycle(p);
        }
        sim.field_summary(p);
    })
}

fn acoustic_cfg() -> acoustic::Config {
    acoustic::Config {
        n: 16,
        iterations: 2,
        ..Default::default()
    }
}

pub(crate) fn acoustic_scaled_cfg() -> acoustic::Config {
    acoustic::Config {
        n: 42,
        ..acoustic_cfg()
    }
}

fn acoustic_local() -> Recording {
    record(|p| {
        let mut sim = acoustic::Acoustic::new(acoustic_cfg());
        for _ in 0..2 {
            sim.step_once(p);
        }
        sim.energy(p);
    })
}

/// The distributed CI run takes one step more than the local one.
fn acoustic_ci(c: &mut Comm) {
    let cfg = acoustic::Config {
        iterations: 3,
        ..acoustic_cfg()
    };
    acoustic::Acoustic::run_distributed(c, cfg);
}

fn acoustic_scaled(c: &mut Comm) {
    acoustic::Acoustic::run_distributed(c, acoustic_scaled_cfg());
}

fn opensbli_local(variant: opensbli::Variant) -> Recording {
    record(|p| {
        let mut sim = opensbli::OpenSbli::new(opensbli::Config {
            n: 10,
            iterations: 2,
            variant,
            ..Default::default()
        });
        for _ in 0..2 {
            sim.step(p);
        }
    })
}

pub(crate) const MINIWEATHER_STEPS: usize = 2;

fn miniweather_cfg() -> miniweather::Config {
    miniweather::Config {
        nx: 24,
        nz: 12,
        ..Default::default()
    }
}

/// Weak-scaled: the ring decomposition requires `nx % n == 0`.
pub(crate) fn miniweather_scaled_cfg(n: usize) -> miniweather::Config {
    miniweather::Config {
        nx: 8 * n,
        ..miniweather_cfg()
    }
}

fn miniweather_local() -> Recording {
    record(|p| {
        let mut sim = miniweather::MiniWeather::new(miniweather_cfg());
        for _ in 0..MINIWEATHER_STEPS {
            sim.step(p);
        }
        sim.totals(p);
    })
}

fn miniweather_dist(c: &mut Comm, cfg: miniweather::Config) {
    miniweather::MiniWeather::run_distributed(c, cfg, MINIWEATHER_STEPS);
}

fn mgcfd_cfg() -> mgcfd::Config {
    mgcfd::Config {
        n: 17,
        levels: 2,
        cycles: 1,
        smooth_steps: 1,
        ..Default::default()
    }
}

/// 1089 nodes: every RCB part keeps cut edges at 112 ranks.
pub(crate) fn mgcfd_scaled_cfg() -> mgcfd::Config {
    mgcfd::Config {
        n: 33,
        ..mgcfd_cfg()
    }
}

fn mgcfd_local() -> Vec<ULoopObs> {
    with_recording_u(|| {
        let mut sim = mgcfd::MgCfd::new(mgcfd_cfg());
        sim.perturb(0.01);
        sim.v_cycle(&mut Profile::new());
    })
    .1
}

fn volna_local() -> Vec<ULoopObs> {
    with_recording_u(|| {
        let mut sim = volna::Volna::new(volna::Config {
            n: 12,
            iterations: 2,
            ..Default::default()
        });
        let mut p = Profile::new();
        for _ in 0..2 {
            sim.step(&mut p);
        }
    })
    .1
}

fn minibude_local() -> Recording {
    record(|p| {
        let sim = minibude::MiniBude::new(minibude::Config {
            n_poses: 16,
            n_protein: 32,
            ..Default::default()
        });
        let _ = sim.energies(p);
    })
}

/// `3n + 1` poses: uneven on purpose, exercises remainder slicing.
pub(crate) fn minibude_scaled_cfg(n: usize) -> minibude::Config {
    minibude::Config {
        n_poses: 3 * n + 1,
        n_ligand: 8,
        n_protein: 24,
        ..Default::default()
    }
}

fn minibude_dist(c: &mut Comm) {
    minibude::MiniBude::new(minibude_scaled_cfg(c.size())).energies_distributed(c);
}

/// Analyzer results for one registered app (or chain).
#[derive(Debug)]
pub struct AppReport {
    pub app: String,
    /// Recorded loop invocations the analyzers inspected.
    pub loops_checked: usize,
    pub violations: Vec<Violation>,
}

impl AppReport {
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl AppEntry {
    /// The declared chain with its CI-sized binding and body iterations.
    pub fn declared(&self) -> Option<(ChainSpec, Binding, usize)> {
        let Chain::Declared(chain, binding, iters) = self.chain else {
            return None;
        };
        let binding = binding
            .iter()
            .fold(Binding::new(), |b, &(name, v)| b.set(name, v));
        Some((chain(), binding, iters))
    }

    /// Checked execution, halo-depth audit and declaration check (ops) or
    /// coloring race check (op2) of the local run.
    fn check(&self) -> AppReport {
        let (loops_checked, violations) = match self.local {
            LocalRun::Structured(record) => {
                let rec = record();
                let declared = self.declared();
                let specs = declared
                    .as_ref()
                    .map(|(chain, ..)| chain.loop_specs())
                    .unwrap_or_default();
                let mut violations = check_structured(self.name, &specs, &rec.loops);
                violations.extend(check_halo_depth(
                    self.name,
                    &specs,
                    &rec.loops,
                    &rec.exchanges,
                ));
                if let Some((chain, binding, iters)) = &declared {
                    violations.extend(check_recording(chain, binding, *iters, &rec));
                }
                (rec.loops.len(), violations)
            }
            LocalRun::Unstructured(record, specs) => {
                let obs = record();
                (obs.len(), check_unstructured(self.name, &specs(), &obs))
            }
        };
        AppReport {
            app: self.name.into(),
            loops_checked,
            violations,
        }
    }

    /// Whole-chain dataflow report: for a declared entry the analysis of
    /// its chain (no app code runs), otherwise an honest limited report of
    /// the local run.
    pub fn dataflow(&self) -> DataflowReport {
        if let Some((chain, binding, iters)) = self.declared() {
            return chain_report(self.name, &chain, &binding, iters);
        }
        match self.local {
            LocalRun::Structured(record) => {
                let rec = record();
                if rec.loops.is_empty() {
                    DataflowReport::limited(self.name, 0, Limitation::NoDslLoops)
                } else {
                    DataflowReport::analyze(self.name, &[], &rec)
                }
            }
            LocalRun::Unstructured(record, _) => {
                DataflowReport::limited(self.name, record().len(), Limitation::OutputOnlyRecording)
            }
        }
    }
}

/// Record and analyze every registered app, plus the tiled-chain demo.
pub fn check_all() -> Vec<AppReport> {
    APPS.iter()
        .map(AppEntry::check)
        .chain([crate::plan::blur_chain()])
        .collect()
}

/// Whole-chain dataflow reports for every registered app.
pub fn dataflow_all() -> Vec<DataflowReport> {
    APPS.iter().map(AppEntry::dataflow).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::Kind;

    #[test]
    fn all_registered_apps_are_clean() {
        for report in check_all() {
            // miniBUDE legitimately records zero loops (no DSL kernels) —
            // its presence in the registry is the checked claim.
            if report.app != "minibude" {
                assert!(report.loops_checked > 0, "{}: nothing recorded", report.app);
            }
            assert!(report.clean(), "{}: {:?}", report.app, report.violations);
        }
    }

    /// A declaration that disagrees with the run it declares fails the
    /// gate even where every certificate survives: CloverLeaf 2D with
    /// `soundspeed` declared 4-byte only moves the traffic figures, and the
    /// recorded run refutes it at the first loop that writes it.
    #[test]
    fn a_mis_declared_element_size_fails_the_declaration_check() {
        let planted = AppEntry {
            name: "cloverleaf2d",
            local: LocalRun::Structured(clover2_local),
            chain: Chain::Declared(
                || {
                    let mut chain = cloverleaf2d::chain_spec(false);
                    let ss = chain.dats.iter_mut().find(|d| d.name == "soundspeed");
                    ss.expect("declared").elem_bytes = 4;
                    chain
                },
                &[("nx", 24), ("ny", 24)],
                2,
            ),
            dist: None,
        };
        let violations = planted.check().violations;
        assert_eq!(violations.len(), 1, "{violations:?}");
        let Kind::ChainDivergence {
            at,
            what,
            declared,
            recorded,
        } = &violations[0].kind
        else {
            panic!("{violations:?}");
        };
        assert_eq!(*at, 0);
        assert_eq!(what, "loop 'ideal_gas' out 1 'soundspeed' elem_bytes");
        assert_eq!((declared.as_str(), recorded.as_str()), ("4", "8"));
    }

    #[test]
    fn dataflow_covers_all_apps_and_is_clean() {
        let reports = dataflow_all();
        let names: Vec<&str> = reports.iter().map(|r| r.app.as_str()).collect();
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
            assert!(r.clean(), "{}: {:?}", r.app, r.violations);
            if r.analyzed {
                assert!(r.loops > 0, "{}: nothing recorded", r.app);
            }
        }
        // The distributed recordings must carry their exchange streams.
        let dist = reports.iter().find(|r| r.app == "acoustic_dist").unwrap();
        assert!(dist.exchanges > 0, "no exchanges recorded");
        // The distributed clover run must carry its exchanges, and the
        // Store-All OpenSBLI run certify the ten-loop RHS fusion group — the
        // certificate the plan-guided executor consumes.
        let cdist = reports.iter().find(|r| r.app == "clover2d_dist").unwrap();
        assert!(cdist.exchanges > 0, "clover2d_dist: no exchanges recorded");
        let sa = reports.iter().find(|r| r.app == "opensbli_sa").unwrap();
        assert!(
            sa.groups.iter().any(|grp| grp.names.len() >= 10),
            "opensbli_sa: RHS fusion group not certified (groups: {:?})",
            sa.groups
        );
        // At least one app certifies at least one legal fusion pair and
        // some streaming-store-eligible traffic.
        assert!(
            reports
                .iter()
                .map(|r| r.fusion.legal_pairs())
                .sum::<usize>()
                > 0,
            "no legal fusion pairs certified anywhere"
        );
        assert!(
            reports
                .iter()
                .map(|r| r.traffic.nt_eligible_write_bytes())
                .sum::<f64>()
                > 0.0,
            "no streaming-store-eligible traffic certified anywhere"
        );
    }

    /// The table itself: every paper app is registered under its slug,
    /// names are unique, chains sit on ops entries, and every distributed
    /// half can show all of its family's phases and has a flow model.
    #[test]
    fn table_is_complete_and_consistent() {
        for id in bwb_apps::AppId::ALL {
            let name = id.slug().replace('-', "_");
            assert!(entry(&name).is_some(), "{name} is not registered");
        }
        for (i, e) in APPS.iter().enumerate() {
            assert!(APPS[..i].iter().all(|o| o.name != e.name), "{}", e.name);
            if matches!(e.chain, Chain::Declared(..)) {
                assert!(matches!(e.local, LocalRun::Structured(..)), "{}", e.name);
            }
        }
        assert_eq!(
            flows::FLOW_APPS.to_vec(),
            distributed().map(|(e, _)| e.name).collect::<Vec<_>>()
        );
        for (e, d) in distributed() {
            assert!(
                d.base_ranks >= d.family.min_base_ranks(),
                "{}: base {} leaves phases of {:?} inert",
                e.name,
                d.base_ranks,
                d.family
            );
            assert!(!(d.flows)(d.base_ranks).is_empty(), "{}: no flows", e.name);
        }
    }
}
