//! Whole-chain dataflow analysis: one report per app, combining the
//! def-use graph, the four lint families, the fusion plan, the derived
//! traffic summary, and the optimization certificates an optimizing
//! executor may consume. This is what `analyze --dataflow` renders and
//! `analyze --export-plans` serializes.

use crate::graph::DefUseGraph;
use crate::lints::{dead_stores, exchange_lints, fusion_groups, fusion_plan, FusionPlan};
use crate::traffic::{derive, nt_certs, AppTraffic, DEFAULT_RESIDENCY_BYTES};
use crate::violation::Violation;
use bwb_ops::access::{LoopSpec, Recording};
use bwb_ops::plan::{lower_recording, FusionGroupCert, LoopIr, NtCert, OptPlan};
use bwb_trace::json::{obj, Json};

/// Why the whole-chain analysis cannot soundly cover an app. Structured
/// replacements for the bare prose notes the "explicitly limited" entries
/// used to carry — the analyze table and the JSON report surface the label,
/// and tooling can match on the variant instead of a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limitation {
    /// Unstructured (op2) recordings capture output accesses only — kernel
    /// reads through closures are invisible, so dead-store/fusion/traffic
    /// analysis over them would be unsound.
    OutputOnlyRecording,
    /// The app has no DSL loops at all (hand-rolled kernel).
    NoDslLoops,
    /// The app's loops address data through runtime index maps
    /// (edge→cell, cell→node connectivity), so no parametric chain can
    /// describe its footprints — static certification is out of scope.
    IndirectAccesses,
}

impl Limitation {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Limitation::OutputOnlyRecording => "output-only recording",
            Limitation::NoDslLoops => "no DSL loops",
            Limitation::IndirectAccesses => "indirect accesses",
        }
    }

    /// Full explanation for reports.
    pub fn describe(self) -> &'static str {
        match self {
            Limitation::OutputOnlyRecording => {
                "unstructured (op2) recording captures output accesses only; \
                 whole-chain dataflow over closure reads would be unsound"
            }
            Limitation::NoDslLoops => "no DSL loops: the kernel is hand-rolled and records nothing",
            Limitation::IndirectAccesses => {
                "indirect accesses: loops address data through runtime index maps, \
                 so no parametric chain can describe their footprints"
            }
        }
    }
}

/// The dataflow verdict for one app.
#[derive(Debug, Clone)]
pub struct DataflowReport {
    pub app: String,
    /// Loops in the recording.
    pub loops: usize,
    /// Halo exchanges in the recording.
    pub exchanges: usize,
    /// Whether the full analysis ran (see [`Limitation`]).
    pub analyzed: bool,
    /// Why the analysis is limited, when it is.
    pub limitation: Option<Limitation>,
    pub violations: Vec<Violation>,
    pub fusion: FusionPlan,
    pub traffic: AppTraffic,
    /// Loop IR of the recording (what certificates index into).
    pub loop_ir: Vec<LoopIr>,
    /// Certified fusion groups (all-pairs legal maximal runs).
    pub groups: Vec<FusionGroupCert>,
    /// Certified streaming-store outputs (all-occurrence rule).
    pub nt: Vec<NtCert>,
}

impl DataflowReport {
    /// Run the full analysis on a structured recording.
    pub fn analyze(app: &str, specs: &[LoopSpec], rec: &Recording) -> Self {
        Self::analyze_with_residency(app, specs, rec, DEFAULT_RESIDENCY_BYTES)
    }

    /// Like [`DataflowReport::analyze`] with an explicit cache-residency
    /// window for the streaming-store eligibility rule.
    pub fn analyze_with_residency(
        app: &str,
        specs: &[LoopSpec],
        rec: &Recording,
        residency_bytes: f64,
    ) -> Self {
        let g = DefUseGraph::build(specs, rec);
        let mut violations = dead_stores(app, &g);
        violations.extend(exchange_lints(app, &g));
        violations.sort();
        DataflowReport {
            app: app.to_string(),
            loops: g.loops.len(),
            exchanges: g.exchanges.len(),
            analyzed: true,
            limitation: None,
            violations,
            fusion: fusion_plan(&g),
            traffic: derive(&g, residency_bytes),
            loop_ir: lower_recording(rec),
            groups: fusion_groups(&g),
            nt: nt_certs(&g, residency_bytes),
        }
    }

    /// A limited report for apps the analysis cannot soundly cover.
    /// Listing them with an honest structured [`Limitation`] keeps "all
    /// apps appear in the report" a checked claim.
    pub fn limited(app: &str, loops: usize, limitation: Limitation) -> Self {
        DataflowReport {
            app: app.to_string(),
            loops,
            exchanges: 0,
            analyzed: false,
            limitation: Some(limitation),
            violations: Vec::new(),
            fusion: FusionPlan::default(),
            traffic: AppTraffic::default(),
            loop_ir: Vec::new(),
            groups: Vec::new(),
            nt: Vec::new(),
        }
    }

    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The machine-readable optimization plan an executor consumes: the
    /// loop IR plus every certificate this analysis issued. Limited apps
    /// export an empty plan (nothing is certified where nothing was
    /// soundly analyzed).
    pub fn export_plan(&self) -> OptPlan {
        OptPlan {
            app: self.app.clone(),
            loops: self.loop_ir.clone(),
            groups: self.groups.clone(),
            elisions: Vec::new(),
            nt: self.nt.clone(),
        }
    }

    /// One JSON object per app. Groups are the plan's own certificate
    /// encoding.
    pub fn to_json(&self) -> Json {
        let nt = self
            .traffic
            .loops
            .iter()
            .filter(|l| !l.nt_eligible.is_empty())
            .map(|l| {
                obj([
                    ("loop", l.name.as_str().into()),
                    ("at", l.at.into()),
                    ("dats", l.nt_eligible.as_slice().into()),
                ])
            });
        let mut fields = vec![
            ("app", self.app.as_str().into()),
            ("loops", self.loops.into()),
            ("exchanges", self.exchanges.into()),
            ("analyzed", self.analyzed.into()),
        ];
        if let Some(l) = self.limitation {
            fields.push(("limitation", l.label().into()));
        }
        fields.extend([
            (
                "violations",
                self.violations.iter().map(Violation::to_json).collect(),
            ),
            (
                "fusion",
                obj([
                    ("legal_pairs", self.fusion.legal_pairs().into()),
                    ("candidates", self.fusion.to_json()),
                ]),
            ),
            (
                "groups",
                self.groups.iter().map(FusionGroupCert::to_json).collect(),
            ),
            (
                "traffic",
                obj([
                    ("read_bytes", self.traffic.read_bytes().into()),
                    ("write_bytes", self.traffic.write_bytes().into()),
                    (
                        "nt_eligible_write_bytes",
                        self.traffic.nt_eligible_write_bytes().into(),
                    ),
                    ("elidable_fraction", self.traffic.elidable_fraction().into()),
                    (
                        "streaming_gain_bound",
                        self.traffic.streaming_gain_bound().into(),
                    ),
                    ("nt_eligible", nt.collect()),
                ]),
            ),
        ]);
        obj(fields)
    }
}
