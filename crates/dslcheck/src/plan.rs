//! Plan-time schedule validators: tiled-chain skew reach, in-place
//! stencils, and decomposed halo-exchange depths.

use crate::checked::check_structured;
use crate::registry::AppReport;
use crate::violation::{Kind, Violation};
use bwb_ops::access::{ExchangeObs, LoopObs, LoopSpec};
use bwb_ops::{
    with_recording, ArgSpec, ChainPlan, Dat2, ExecMode, LoopChain2, Profile, Range2, Stencil,
};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// Validate a [`ChainPlan`] against the access reaches its kernels actually
/// exhibit (from a checked-execution recording of the same chain).
///
/// * Every planned loop's declared `reach` must cover the maximum outer
///   (j-axis) read offset observed for that loop — the skew the tiled
///   schedule budgets per chain stage ([`Kind::InsufficientSkewReach`]).
/// * No planned loop may have a field in both its out and in sets
///   ([`Kind::InPlaceStencil`]) — skewed tiles would read half-updated rows.
pub fn check_chain_plan(app: &str, plan: &ChainPlan, obs: &[LoopObs]) -> Vec<Violation> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |kind: Kind| {
        if seen.insert(kind.clone()) {
            out.push(Violation {
                app: app.to_string(),
                kind,
            });
        }
    };

    for l in &plan.loops {
        for f in &l.outs {
            if l.ins.contains(f) {
                push(Kind::InPlaceStencil {
                    loop_name: l.name.clone(),
                    field: format!("#{f}"),
                });
            }
        }
        let inferred = obs
            .iter()
            .filter(|o| o.name == l.name)
            .flat_map(|o| o.ins.iter())
            .map(|a| a.outer_radius())
            .max()
            .unwrap_or(0);
        if inferred > l.reach {
            push(Kind::InsufficientSkewReach {
                loop_name: l.name.clone(),
                declared_reach: l.reach,
                inferred_reach: inferred,
            });
        }
    }
    out
}

/// Validate halo-exchange depths against stencil radii.
///
/// `exchanges` are a distributed run's recorded halo exchanges
/// ([`bwb_ops::access::Recording::exchanges`]). For each exchanged dat,
/// the exchanged depth must cover the largest radius any loop
/// reads that dat with — declared radius when a contract matches, observed
/// radius otherwise (so under-declared loops cannot mask a shallow
/// exchange). Dats never exchanged are not judged here: apps legitimately
/// fill some halos locally (mirror boundaries).
pub fn check_halo_depth(
    app: &str,
    specs: &[LoopSpec],
    obs: &[LoopObs],
    exchanges: &[ExchangeObs],
) -> Vec<Violation> {
    // Required radius per runtime dat name.
    let mut required: BTreeMap<String, isize> = BTreeMap::new();
    for o in obs {
        let spec = specs.iter().find(|s| {
            s.name == o.name && s.outs.len() == o.outs.len() && s.ins.len() == o.ins.len()
        });
        for (idx, arg) in o.ins.iter().enumerate() {
            let declared = spec
                .and_then(|s| s.ins.get(idx))
                .map(|a| a.stencil.radius())
                .unwrap_or(0);
            let need = declared.max(arg.radius());
            let e = required.entry(arg.name.clone()).or_insert(0);
            *e = (*e).max(need);
        }
    }

    // Smallest depth each dat was ever exchanged at: one shallow exchange
    // taints the run even if others were deep enough.
    let mut exchanged: BTreeMap<&str, usize> = BTreeMap::new();
    for x in exchanges {
        let e = exchanged.entry(x.dat.as_str()).or_insert(x.depth);
        *e = (*e).min(x.depth);
    }

    let mut out = Vec::new();
    for (name, depth) in exchanged {
        if let Some(&need) = required.get(name) {
            if (depth as isize) < need {
                out.push(Violation {
                    app: app.to_string(),
                    kind: Kind::HaloDepthTooShallow {
                        dat: name.to_string(),
                        exchanged_depth: depth,
                        required_radius: need,
                    },
                });
            }
        }
    }
    out
}

/// Two-stage blur chain: the tiled-chain demo whose plan the schedule
/// validator proves (declared reach vs. observed reach, no in-place loops).
pub(crate) fn blur_chain() -> AppReport {
    let n: usize = 32;
    let range = Range2::new(0, n as isize, 0, n as isize);
    let mut chain = LoopChain2::<f64>::new(ExecMode::Serial);
    // Store: 0 = src, 1 = tmp, 2 = dst.
    chain.add(
        "blur_a",
        range,
        1,
        4.0,
        vec![1],
        vec![0],
        |_i, _j, out, ins| {
            let v = 0.5 * ins.get(0, 0, 0) + 0.25 * (ins.get(0, 0, -1) + ins.get(0, 0, 1));
            out.set(0, v);
        },
    );
    chain.add(
        "blur_b",
        range,
        1,
        4.0,
        vec![2],
        vec![1],
        |_i, _j, out, ins| {
            let v = 0.5 * ins.get(0, 0, 0) + 0.25 * (ins.get(0, -1, 0) + ins.get(0, 1, 0));
            out.set(0, v);
        },
    );
    let specs = vec![
        LoopSpec::new(
            "blur_a",
            vec![ArgSpec::write("tmp")],
            vec![ArgSpec::read("src", Stencil::plus2(1))],
        ),
        LoopSpec::new(
            "blur_b",
            vec![ArgSpec::write("dst")],
            vec![ArgSpec::read("tmp", Stencil::plus2(1))],
        ),
    ];
    let mut store = vec![
        Dat2::<f64>::new("src", n, n, 1),
        Dat2::<f64>::new("tmp", n, n, 1),
        Dat2::<f64>::new("dst", n, n, 1),
    ];
    store[0].fill_interior(1.0);
    let ((), obs) = with_recording(|| {
        let mut p = Profile::new();
        chain.execute_tiled(&mut store, &mut p, 8);
    });
    let mut violations = check_structured("blur_chain", &specs, &obs);
    violations.extend(check_chain_plan("blur_chain", &chain.plan(), &obs));
    AppReport {
        app: "blur_chain".into(),
        loops_checked: obs.len(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_ops::{ChainPlan, PlannedLoop, Range2};

    fn planned(name: &str, reach: isize, outs: Vec<usize>, ins: Vec<usize>) -> PlannedLoop {
        PlannedLoop {
            name: name.to_string(),
            range: Range2::new(0, 8, 0, 8),
            reach,
            outs,
            ins,
        }
    }

    #[test]
    fn in_place_stencil_rejected() {
        // `LoopChain2::add` refuses in-place loops at construction, so build
        // the plan directly — validating that the analyzer would catch a
        // schedule the builder's assertion was bypassed on.
        let plan = ChainPlan {
            loops: vec![planned("bad", 1, vec![0], vec![0, 1])],
        };
        let v = check_chain_plan("t", &plan, &[]);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0].kind, Kind::InPlaceStencil { .. }));
    }

    #[test]
    fn sufficient_reach_passes_without_observations() {
        let plan = ChainPlan {
            loops: vec![planned("ok", 1, vec![1], vec![0])],
        };
        assert!(check_chain_plan("t", &plan, &[]).is_empty());
        assert_eq!(plan.total_reach(), 1);
    }
}
