//! Shared loop-plan IR: the machine-readable contract between the
//! `dslcheck` dataflow analyzers (which *certify* optimizations from a
//! recorded schedule) and the optimizing executor in [`crate::optexec`]
//! (which *applies* them). Both the structured `ops` DSL and the
//! unstructured `op2` DSL lower their recordings to the same [`LoopIr`],
//! so one plan format covers every registered app.
//!
//! A plan is a whitelist, never a command: executors refuse any transform
//! the plan does not certify ([`PlanError::UncertifiedFusion`]), and apps
//! fall back to the unoptimized path wherever a certificate is absent.
//! Plans serialize to JSON (`to_json`/`from_json`, over the workspace's
//! one JSON module `bwb_trace::json`) so
//! `analyze --dataflow --export-plans` can emit the exact artifact CI
//! validates and the executor consumes.

use std::collections::BTreeSet;
use std::fmt;

use crate::access::Recording;
use bwb_trace::json::{self, obj, Json};

/// One loop of an app's recorded schedule, lowered to the planner's
/// dialect: just names, shape, and the field footprint. `dims == 0` marks
/// an unstructured (`op2`) loop over a set rather than a rectangular
/// range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopIr {
    pub name: String,
    pub dims: usize,
    pub points: usize,
    pub outs: Vec<String>,
    pub ins: Vec<String>,
}

/// A certified fusion group: the loops at schedule positions
/// `start..start + names.len()` may legally run interleaved over one
/// traversal. Groups are maximal runs; any *contiguous* sub-run inherits
/// the certificate (legality is all-pairs within the group).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionGroupCert {
    pub start: usize,
    pub names: Vec<String>,
}

/// A redundant exchange: every exchange of `dat` at the site labelled
/// `site` moves ghosts that are still valid. No analyzer issues one and no
/// executor reads one: a redundant exchange is a `RedundantExchange`
/// violation, mended by deleting the exchange. The type stays so that
/// plans keep their JSON form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElisionCert {
    pub site: String,
    pub dat: String,
    pub depth: usize,
}

/// A certified streaming store: every recorded execution of `loop_name`
/// fully overwrites `dat` and nothing re-reads it within the cache
/// residency window, so its stores may bypass the cache (no write
/// allocate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtCert {
    pub loop_name: String,
    pub dat: String,
}

/// The complete optimization plan for one app.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptPlan {
    pub app: String,
    pub loops: Vec<LoopIr>,
    pub groups: Vec<FusionGroupCert>,
    /// Always empty in plans this workspace derives (see [`ElisionCert`]).
    /// Kept, with its JSON key, because the benchmark harness counts it in
    /// `dslcheck.plan_certs`.
    pub elisions: Vec<ElisionCert>,
    pub nt: Vec<NtCert>,
}

/// Why the optimizing executor refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The requested fused sequence is not a contiguous sub-run of any
    /// certified fusion group.
    UncertifiedFusion { names: Vec<String> },
    /// A dataflow recording is active: recordings must observe the
    /// *unoptimized* schedule (they are the evidence the certificates are
    /// derived from), so optimized executors refuse to run under one.
    RecordingActive,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UncertifiedFusion { names } => {
                write!(f, "fusion of {names:?} is not certified by the plan")
            }
            PlanError::RecordingActive => {
                write!(
                    f,
                    "refusing optimized execution under an active dataflow recording"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl OptPlan {
    /// Does the plan certify running `names` (in order) as one fused
    /// traversal? True iff `names` is a contiguous sub-run of some
    /// certified group's name sequence.
    pub fn certifies_fusion(&self, names: &[&str]) -> bool {
        if names.len() < 2 {
            return false;
        }
        self.groups.iter().any(|g| {
            g.names.len() >= names.len()
                && g.names
                    .windows(names.len())
                    .any(|w| w.iter().map(String::as_str).eq(names.iter().copied()))
        })
    }

    /// May `loop_name`'s stores to `dat` bypass the cache?
    pub fn nt_certified(&self, loop_name: &str, dat: &str) -> bool {
        self.nt
            .iter()
            .any(|c| c.loop_name == loop_name && c.dat == dat)
    }

    /// The plan as one JSON object (stable field order).
    pub fn to_json(&self) -> Json {
        obj([
            ("app", self.app.as_str().into()),
            ("loops", self.loops.iter().map(LoopIr::to_json).collect()),
            (
                "groups",
                self.groups.iter().map(FusionGroupCert::to_json).collect(),
            ),
            (
                "elisions",
                self.elisions.iter().map(ElisionCert::to_json).collect(),
            ),
            ("nt", self.nt.iter().map(NtCert::to_json).collect()),
        ])
    }

    /// Parse a plan from the JSON `to_json` emits (tolerant of arbitrary
    /// whitespace and key order). Strict where drift between exporter and
    /// executor must be loud: unknown keys, wrongly typed values, and
    /// numbers that are not exact non-negative integers are errors.
    pub fn from_json(src: &str) -> Result<OptPlan, String> {
        let doc = json::parse(src)?;
        let mut plan = OptPlan::default();
        for (k, v) in fields(&doc, "plan")? {
            match k.as_str() {
                "app" => plan.app = string(v, "app")?,
                "loops" => {
                    for item in arr(v, "loops")? {
                        let mut l = LoopIr {
                            name: String::new(),
                            dims: 0,
                            points: 0,
                            outs: Vec::new(),
                            ins: Vec::new(),
                        };
                        for (lk, lv) in fields(item, "loop")? {
                            match lk.as_str() {
                                "name" => l.name = string(lv, "name")?,
                                "dims" => l.dims = uint(lv, "dims")?,
                                "points" => l.points = uint(lv, "points")?,
                                "outs" => l.outs = str_vec(lv, "outs")?,
                                "ins" => l.ins = str_vec(lv, "ins")?,
                                other => return Err(format!("unknown loop key {other:?}")),
                            }
                        }
                        plan.loops.push(l);
                    }
                }
                "groups" => {
                    for item in arr(v, "groups")? {
                        let mut g = FusionGroupCert {
                            start: 0,
                            names: Vec::new(),
                        };
                        for (gk, gv) in fields(item, "group")? {
                            match gk.as_str() {
                                "start" => g.start = uint(gv, "start")?,
                                "names" => g.names = str_vec(gv, "names")?,
                                other => return Err(format!("unknown group key {other:?}")),
                            }
                        }
                        plan.groups.push(g);
                    }
                }
                "elisions" => {
                    for item in arr(v, "elisions")? {
                        let mut e = ElisionCert {
                            site: String::new(),
                            dat: String::new(),
                            depth: 0,
                        };
                        for (ek, ev) in fields(item, "elision")? {
                            match ek.as_str() {
                                "site" => e.site = string(ev, "site")?,
                                "dat" => e.dat = string(ev, "dat")?,
                                "depth" => e.depth = uint(ev, "depth")?,
                                other => return Err(format!("unknown elision key {other:?}")),
                            }
                        }
                        plan.elisions.push(e);
                    }
                }
                "nt" => {
                    for item in arr(v, "nt")? {
                        let mut c = NtCert {
                            loop_name: String::new(),
                            dat: String::new(),
                        };
                        for (ck, cv) in fields(item, "nt cert")? {
                            match ck.as_str() {
                                "loop" => c.loop_name = string(cv, "loop")?,
                                "dat" => c.dat = string(cv, "dat")?,
                                other => return Err(format!("unknown nt key {other:?}")),
                            }
                        }
                        plan.nt.push(c);
                    }
                }
                other => return Err(format!("unknown plan key {other:?}")),
            }
        }
        Ok(plan)
    }
}

impl LoopIr {
    pub fn to_json(&self) -> Json {
        obj([
            ("name", self.name.as_str().into()),
            ("dims", self.dims.into()),
            ("points", self.points.into()),
            ("outs", self.outs.as_slice().into()),
            ("ins", self.ins.as_slice().into()),
        ])
    }
}

impl FusionGroupCert {
    pub fn to_json(&self) -> Json {
        obj([
            ("start", self.start.into()),
            ("names", self.names.as_slice().into()),
        ])
    }
}

impl ElisionCert {
    pub fn to_json(&self) -> Json {
        obj([
            ("site", self.site.as_str().into()),
            ("dat", self.dat.as_str().into()),
            ("depth", self.depth.into()),
        ])
    }
}

impl NtCert {
    pub fn to_json(&self) -> Json {
        obj([
            ("loop", self.loop_name.as_str().into()),
            ("dat", self.dat.as_str().into()),
        ])
    }
}

/// Lower a structured-DSL recording to the planner's loop dialect.
pub fn lower_recording(rec: &Recording) -> Vec<LoopIr> {
    rec.loops
        .iter()
        .map(|l| {
            let r = &l.range;
            let points =
                ((r[1] - r[0]).max(0) * (r[3] - r[2]).max(0) * (r[5] - r[4]).max(0)) as usize;
            // A field can appear several times (e.g. read and incremented);
            // the planner only cares about the name set.
            let outs: BTreeSet<&str> = l.outs.iter().map(|a| a.name.as_str()).collect();
            let ins: BTreeSet<&str> = l.ins.iter().map(|a| a.name.as_str()).collect();
            LoopIr {
                name: l.name.clone(),
                dims: l.dims as usize,
                points,
                outs: outs.into_iter().map(String::from).collect(),
                ins: ins.into_iter().map(String::from).collect(),
            }
        })
        .collect()
}

fn fields<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(kv) => Ok(kv),
        other => Err(format!("expected {what} to be an object, got {other}")),
    }
}

fn arr<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_array()
        .ok_or_else(|| format!("expected {what} to be an array, got {v}"))
}

fn string(v: &Json, what: &str) -> Result<String, String> {
    v.as_str()
        .map(String::from)
        .ok_or_else(|| format!("expected {what} to be a string, got {v}"))
}

/// Plans hold counts and positions only: a number that is not an exact
/// count ([`Json::as_usize`]) is refused rather than rounded into a
/// different plan.
fn uint(v: &Json, what: &str) -> Result<usize, String> {
    v.as_usize()
        .ok_or_else(|| format!("expected {what} to be a non-negative integer, got {v}"))
}

fn str_vec(v: &Json, what: &str) -> Result<Vec<String>, String> {
    arr(v, what)?.iter().map(|s| string(s, what)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> OptPlan {
        OptPlan {
            app: "clover\"leaf".into(),
            loops: vec![
                LoopIr {
                    name: "ideal_gas".into(),
                    dims: 2,
                    points: 64,
                    outs: vec!["pressure".into(), "soundspeed".into()],
                    ins: vec!["density0".into(), "energy0".into()],
                },
                LoopIr {
                    name: "viscosity".into(),
                    dims: 2,
                    points: 64,
                    outs: vec!["viscosity".into()],
                    ins: vec!["density0".into(), "xvel0".into()],
                },
            ],
            groups: vec![FusionGroupCert {
                start: 0,
                names: vec!["ideal_gas".into(), "viscosity".into(), "third".into()],
            }],
            elisions: vec![ElisionCert {
                site: "cells1".into(),
                dat: "density0".into(),
                depth: 2,
            }],
            nt: vec![NtCert {
                loop_name: "acoustic_update".into(),
                dat: "u_next".into(),
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let plan = sample_plan();
        let json = plan.to_json().to_string();
        let back = OptPlan::from_json(&json).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = OptPlan::default();
        let back = OptPlan::from_json(&plan.to_json().to_string()).expect("parse");
        assert_eq!(plan, back);
    }

    #[test]
    fn fusion_certificate_is_contiguous_subrun() {
        let plan = sample_plan();
        assert!(plan.certifies_fusion(&["ideal_gas", "viscosity"]));
        assert!(plan.certifies_fusion(&["viscosity", "third"]));
        assert!(plan.certifies_fusion(&["ideal_gas", "viscosity", "third"]));
        // Non-contiguous, out-of-order, and single-loop "fusions" are not
        // certified.
        assert!(!plan.certifies_fusion(&["ideal_gas", "third"]));
        assert!(!plan.certifies_fusion(&["viscosity", "ideal_gas"]));
        assert!(!plan.certifies_fusion(&["ideal_gas"]));
        assert!(!plan.certifies_fusion(&["ideal_gas", "viscosity", "third", "fourth"]));
    }

    #[test]
    fn nt_lookups() {
        let plan = sample_plan();
        assert!(plan.nt_certified("acoustic_update", "u_next"));
        assert!(!plan.nt_certified("acoustic_update", "u_prev"));
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert!(OptPlan::from_json("{\"app\": \"x\", \"bogus\": []}").is_err());
        assert!(OptPlan::from_json("{\"loops\": [{\"nam\": \"x\"}]}").is_err());
    }

    #[test]
    fn wrong_types_and_inexact_numbers_are_rejected() {
        let with_dims =
            |dims: &str| OptPlan::from_json(&format!("{{\"loops\": [{{\"dims\": {dims}}}]}}"));
        assert_eq!(with_dims("2").unwrap().loops[0].dims, 2);
        for bad in [
            "-1",
            "1.5",
            "9007199254740994",
            "1e400",
            "\"2\"",
            "true",
            "null",
        ] {
            assert!(with_dims(bad).is_err(), "dims = {bad} must be refused");
        }
        assert!(OptPlan::from_json("{\"app\": 3}").is_err());
        assert!(OptPlan::from_json("{\"loops\": {}}").is_err());
        assert!(OptPlan::from_json("[]").is_err());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(OptPlan::from_json("{").is_err());
        assert!(OptPlan::from_json("{\"app\": \"x\"} trailing").is_err());
        assert!(OptPlan::from_json("{\"app\": [}]").is_err());
    }
}
