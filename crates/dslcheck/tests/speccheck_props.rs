//! Property tests for `dslcheck::speccheck`'s declaration check: a real
//! `k`-stage `par_loop2` pipeline is recorded, and its declared chain must
//! validate against the recording — while every planted mis-declaration
//! (a permuted stage, a dropped write, a wrong element size, a wrong
//! range) is refused as a `ChainDivergence` at the loop where the run
//! parts from it, and a malformed chain as an `UnderspecifiedChain`.

use bwb_dslcheck::{
    analyze_static, check_recording, check_structured, DataflowReport, Kind, Violation,
};
use bwb_ops::access::{with_recording_full, Recording};
use bwb_ops::{
    par_loop2, Access, Binding, ChainSpec, Dat2, DatDecl, ExecMode, Expr, Profile, Range2, Stencil,
    Step,
};
use proptest::prelude::*;

const FIELDS: [&str; 7] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6"];
const STAGES: [&str; 6] = ["st0", "st1", "st2", "st3", "st4", "st5"];
const HALO: usize = 2;

/// The declared chain of a `k`-stage pipeline `f0 → f1 → … → fk` over a
/// parametric `n × n` grid, each stage reading its input's star at
/// `radius`.
fn pipeline_chain(k: usize, radius: isize) -> ChainSpec {
    let c = Expr::c;
    let p = Expr::p;
    let dats = FIELDS[..=k]
        .iter()
        .map(|name| DatDecl {
            name,
            halo: HALO as isize,
            extent: [p("n"), p("n"), Expr::c(1)],
            elem_bytes: 8,
        })
        .collect();
    let body = (0..k)
        .map(|i| Step::Loop {
            name: STAGES[i],
            dims: 2,
            range: [c(0), p("n"), c(0), p("n"), c(0), c(1)],
            outs: vec![(i + 1, Access::Write)],
            ins: vec![(i, Stencil::plus2(radius))],
        })
        .collect();
    ChainSpec {
        app: "prop_pipeline",
        dats,
        prologue: Vec::new(),
        body,
        epilogue: Vec::new(),
    }
}

/// The program that chain declares, run for `iters` iterations under the
/// recorder.
fn record_pipeline(k: usize, radius: isize, n: usize, iters: usize) -> Recording {
    let mut fields: Vec<Dat2<f64>> = FIELDS[..=k]
        .iter()
        .map(|name| Dat2::new(name, n, n, HALO))
        .collect();
    fields[0].init_with(|i, j| (i + 3 * j) as f64);
    let ((), rec) = with_recording_full(|| {
        let mut p = Profile::new();
        for _ in 0..iters {
            for (i, stage) in STAGES[..k].iter().enumerate() {
                let (src, dst) = fields.split_at_mut(i + 1);
                par_loop2(
                    &mut p,
                    stage,
                    ExecMode::Serial,
                    Range2::new(0, n as isize, 0, n as isize),
                    &mut [&mut dst[0]],
                    &[&src[i]],
                    1.0,
                    move |_i, _j, out, ins| {
                        let mut acc = ins.get(0, 0, 0);
                        for d in 1..=radius {
                            acc += ins.get(0, d, 0) + ins.get(0, -d, 0);
                            acc += ins.get(0, 0, d) + ins.get(0, 0, -d);
                        }
                        out.set(0, acc);
                    },
                );
            }
        }
    });
    rec
}

/// Record the `k`-stage pipeline, plant a mis-declaration in its chain,
/// and return the loop index `plant` says the run parts from the
/// declaration at, beside the index of the single `ChainDivergence` the
/// check reports.
fn plant_against_recording(
    k: usize,
    n: usize,
    iters: usize,
    plant: impl FnOnce(&mut ChainSpec) -> usize,
) -> (usize, Option<usize>, Vec<Violation>) {
    let b = Binding::new().set("n", n as isize);
    let rec = record_pipeline(k, 1, n, iters);
    let mut chain = pipeline_chain(k, 1);
    let expected = plant(&mut chain);
    let v = check_recording(&chain, &b, iters, &rec);
    let at = match &v[..] {
        [Violation {
            kind: Kind::ChainDivergence { at, .. },
            ..
        }] => Some(*at),
        _ => None,
    };
    (expected, at, v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The faithful declaration validates: its instantiation equals the
    /// recorded stream, and every offset the kernels read lies inside the
    /// stencils the chain states. Equal streams make the certificates the
    /// chain yields exactly those the recorded run yields.
    #[test]
    fn static_certs_subset_of_recording_derived(
        k in 2usize..6,
        radius in 0isize..3,
        n in 8usize..20,
        iters in 1usize..4,
    ) {
        let chain = pipeline_chain(k, radius);
        let b = Binding::new().set("n", n as isize);
        let rec = record_pipeline(k, radius, n, iters);
        let v = check_recording(&chain, &b, iters, &rec);
        prop_assert!(v.is_empty(), "{v:?}");
        let specs = chain.loop_specs();
        let v = check_structured(chain.app, &specs, &rec.loops);
        prop_assert!(v.is_empty(), "{v:?}");
        let declared = analyze_static(&chain, &b, iters).expect("valid chain");
        let recorded = DataflowReport::analyze(chain.app, &specs, &rec);
        prop_assert_eq!(declared.to_json(), recorded.to_json());
    }

    /// A permuted stage: stages `i` and `i + 1` declared in swapped order.
    #[test]
    fn permuted_chain_diverges_from_recorded_truth(
        k in 2usize..6,
        n in 8usize..20,
        iters in 1usize..4,
        seed in 0usize..16,
    ) {
        let (expected, at, v) = plant_against_recording(k, n, iters, |chain| {
            let i = seed % (k - 1);
            chain.body.swap(i, i + 1);
            i
        });
        prop_assert_eq!(at, Some(expected), "{:?}", v);
    }

    /// A dropped write: a stage declared without its output.
    #[test]
    fn planted_divergence_dropped_write_is_caught(
        k in 2usize..6,
        n in 8usize..20,
        iters in 1usize..4,
        seed in 0usize..16,
    ) {
        let (expected, at, v) = plant_against_recording(k, n, iters, |chain| {
            let stage = seed % k;
            if let Step::Loop { outs, .. } = &mut chain.body[stage] {
                outs.clear();
            }
            stage
        });
        prop_assert_eq!(at, Some(expected), "{:?}", v);
    }

    /// A wrong element size on field `m`, first touched by the stage that
    /// reads it (`f0`) or writes it (the rest).
    #[test]
    fn planted_divergence_wrong_elem_bytes_is_caught(
        k in 2usize..6,
        n in 8usize..20,
        iters in 1usize..4,
        seed in 0usize..16,
    ) {
        let (expected, at, v) = plant_against_recording(k, n, iters, |chain| {
            let m = seed % (k + 1);
            chain.dats[m].elem_bytes = 4;
            m.saturating_sub(1)
        });
        prop_assert_eq!(at, Some(expected), "{:?}", v);
    }

    /// A wrong range: a stage declared one column short.
    #[test]
    fn planted_divergence_wrong_range_is_caught(
        k in 2usize..6,
        n in 8usize..20,
        iters in 1usize..4,
        seed in 0usize..16,
    ) {
        let (expected, at, v) = plant_against_recording(k, n, iters, |chain| {
            let stage = seed % k;
            if let Step::Loop { range, .. } = &mut chain.body[stage] {
                range[1] = Expr::p_plus("n", -1);
            }
            stage
        });
        prop_assert_eq!(at, Some(expected), "{:?}", v);
    }

    /// Planted negative, `UnderspecifiedChain`: a randomly chosen
    /// malformation — a shape restated with another contract, an
    /// out-of-range dat slot, or an unbound parameter — must refuse
    /// certification and validation with the structured violation, never a
    /// panic and never a silent empty plan.
    #[test]
    fn planted_malformation_is_underspecified_chain(
        k in 2usize..6,
        which in 0usize..3,
        n in 8usize..20,
    ) {
        let mut chain = pipeline_chain(k, 1);
        let mut b = Binding::new().set("n", n as isize);
        match which {
            0 => {
                if let Step::Loop { name, ins, .. } = &mut chain.body[1] {
                    *name = STAGES[0];
                    ins[0].1 = Stencil::point();
                }
            }
            1 => {
                if let Step::Loop { outs, .. } = &mut chain.body[0] {
                    outs[0].0 = 99;
                }
            }
            _ => b = Binding::new(), // "n" unbound
        }
        let underspecified = |v: &[Violation]| {
            !v.is_empty()
                && v.iter().all(|v| matches!(v.kind, Kind::UnderspecifiedChain { .. }))
        };
        let errs = analyze_static(&chain, &b, 1).expect_err("must refuse");
        prop_assert!(underspecified(&errs), "{:?}", errs);
        let rec = record_pipeline(k, 1, n, 1);
        let v = check_recording(&chain, &b, 1, &rec);
        prop_assert!(underspecified(&v), "{:?}", v);
    }
}
