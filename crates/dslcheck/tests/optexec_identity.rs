//! Plan-guided execution gate: the optimizing executor must (a) refuse any
//! transform the dataflow analysis did not certify, and (b) be bit-for-bit
//! identical to the baseline schedule whenever it does apply one.
//!
//! The negative is *planted through the real pipeline*: a stencil-skewed
//! loop pair is recorded, analyzed, and the resulting plan — not a
//! hand-built one — is what the fused driver rejects. The positives rerun
//! real apps (CloverLeaf2D single and 4-rank distributed, OpenSBLI
//! Store-All) under plans exported from their own recordings and compare
//! raw field/checksum bits over property-sampled configurations.

use bwb_apps::{cloverleaf2d, opensbli};
use bwb_dslcheck::DataflowReport;
use bwb_ops::access::with_recording_full;
use bwb_ops::{
    fused2_rows, par_loop2_rows, ArgSpec, Dat2, ExecMode, FusedLoop2, LoopSpec, OptPlan, PlanError,
    Profile, Range2, Stencil,
};
use bwb_shmpi::Universe;
use proptest::prelude::*;

// --- planted negative: stencil-skewed fusion must be refused -------------

/// Record a producer/consumer pair where the consumer reads the producer's
/// output at radius `r` (r = 0 is legal to fuse, r = 1 is not), analyze it,
/// and return the exported plan.
fn skewed_pair_plan(r: isize) -> OptPlan {
    let n = 16usize;
    let specs = vec![
        LoopSpec::new(
            "sk_producer",
            vec![ArgSpec::write("x")],
            vec![ArgSpec::read("a", Stencil::point())],
        ),
        LoopSpec::new(
            "sk_consumer",
            vec![ArgSpec::write("y")],
            vec![ArgSpec::read("x", Stencil::plus2(r))],
        ),
    ];
    let ((), rec) = with_recording_full(|| {
        let mut p = Profile::new();
        let mut a = Dat2::<f64>::new("a", n, n, 1);
        let mut x = Dat2::<f64>::new("x", n, n, 1);
        let mut y = Dat2::<f64>::new("y", n, n, 1);
        a.init_with(|i, j| (i + 2 * j) as f64);
        par_loop2_rows(
            &mut p,
            "sk_producer",
            ExecMode::Serial,
            Range2::interior(n, n),
            &mut [&mut x],
            &[&a],
            1.0,
            |_j, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = 2.0 * s;
                }
            },
        );
        par_loop2_rows(
            &mut p,
            "sk_consumer",
            ExecMode::Serial,
            Range2::interior(n, n),
            &mut [&mut y],
            &[&x],
            1.0,
            move |_j, out, ins| {
                if r == 0 {
                    for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                        *o = s + 1.0;
                    }
                } else {
                    for (o, (s, t)) in out
                        .row(0)
                        .iter_mut()
                        .zip(ins.row(0).iter().zip(ins.row_off(0, r, 0)))
                    {
                        *o = s + t;
                    }
                }
            },
        );
    });
    DataflowReport::analyze("skewed_pair", &specs, &rec).export_plan()
}

#[test]
fn stencil_skewed_fusion_is_uncertified_and_refused() {
    let plan = skewed_pair_plan(1);
    assert!(
        !plan.certifies_fusion(&["sk_producer", "sk_consumer"]),
        "radius-1 crossing must not certify: {:?}",
        plan.groups
    );

    // Drive the fused executor with the analysis-derived plan: it must
    // refuse, not silently produce skewed answers.
    let n = 16usize;
    let mut p = Profile::new();
    let mut a = Dat2::<f64>::new("a", n, n, 1);
    let mut x = Dat2::<f64>::new("x", n, n, 1);
    let mut y = Dat2::<f64>::new("y", n, n, 1);
    a.init_with(|i, j| (i + 2 * j) as f64);
    let loops = vec![
        FusedLoop2::new("sk_producer", &[0], &[2], 1.0, |_j, out, ins| {
            for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                *o = 2.0 * s;
            }
        }),
        FusedLoop2::new("sk_consumer", &[1], &[0], 1.0, |_j, out, ins| {
            for (o, (s, t)) in out
                .row(0)
                .iter_mut()
                .zip(ins.row(0).iter().zip(ins.row_off(0, 1, 0)))
            {
                *o = s + t;
            }
        }),
    ];
    let err = fused2_rows(
        &mut p,
        ExecMode::Serial,
        Range2::interior(n, n),
        &mut [&mut x, &mut y],
        &[&a],
        &loops,
        &plan,
    )
    .expect_err("skewed fusion must be refused");
    assert!(
        matches!(err, PlanError::UncertifiedFusion { .. }),
        "wrong refusal: {err:?}"
    );
}

#[test]
fn pointwise_twin_certifies_and_fuses() {
    let plan = skewed_pair_plan(0);
    assert!(
        plan.certifies_fusion(&["sk_producer", "sk_consumer"]),
        "radius-0 crossing must certify: {:?}",
        plan.groups
    );
}

// --- exported plans survive the JSON round trip --------------------------

#[test]
fn exported_app_plans_round_trip_through_json() {
    // Single-rank OpenSBLI (fusion certs) and 4-rank CloverLeaf2D
    // (fusion + elision certs): the serialized form must parse back to an
    // equal plan, so `analyze --export-plans` output is usable as-is.
    let sbli_cfg = opensbli::Config {
        n: 12,
        iterations: 1,
        mode: ExecMode::Serial,
        ..opensbli::Config::default()
    };
    let ((), rec) = with_recording_full(move || {
        let mut sim = opensbli::OpenSbli::new(sbli_cfg);
        let mut p = Profile::new();
        sim.step(&mut p);
    });
    let plan = DataflowReport::analyze(
        "opensbli_sa",
        &opensbli::chain_spec(true).loop_specs(),
        &rec,
    )
    .export_plan();
    assert!(!plan.groups.is_empty(), "expected fusion certificates");
    assert_eq!(
        OptPlan::from_json(&plan.to_json().to_string()).unwrap(),
        plan
    );

    let clover_cfg = cloverleaf2d::Config {
        nx: 24,
        ny: 24,
        iterations: 2,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };
    let out = Universe::run(4, move |c| {
        let (_r, rec) =
            with_recording_full(|| cloverleaf2d::Clover2::run_distributed(c, clover_cfg.clone()));
        rec
    });
    let plan = DataflowReport::analyze(
        "clover2d_dist",
        &cloverleaf2d::chain_spec(true).loop_specs(),
        &out.results[0],
    )
    .export_plan();
    assert!(!plan.elisions.is_empty(), "expected elision certificates");
    assert_eq!(
        OptPlan::from_json(&plan.to_json().to_string()).unwrap(),
        plan
    );
}

// --- distributed bit-identity (fusion + halo elision together) -----------

#[test]
fn clover_dist_plan_guided_gathered_density_is_bit_identical() {
    let cfg = cloverleaf2d::Config {
        nx: 24,
        ny: 24,
        iterations: 3,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };

    let rec_cfg = cfg.clone();
    let out = Universe::run(4, move |c| {
        let (_r, rec) =
            with_recording_full(|| cloverleaf2d::Clover2::run_distributed(c, rec_cfg.clone()));
        rec
    });
    let plan = DataflowReport::analyze(
        "clover2d_dist",
        &cloverleaf2d::chain_spec(true).loop_specs(),
        &out.results[0],
    )
    .export_plan();
    assert!(!plan.elisions.is_empty(), "expected elision certificates");

    let gathered = |plan: Option<OptPlan>| -> Vec<u64> {
        let cfg = cloverleaf2d::Config {
            plan,
            ..cfg.clone()
        };
        let out = Universe::run(4, move |c| {
            let (_p, g) = cloverleaf2d::Clover2::run_distributed(c, cfg.clone());
            g
        });
        out.results[0]
            .as_ref()
            .expect("rank 0 gathers")
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let base = gathered(None);
    let opt = gathered(Some(plan));
    assert_eq!(base, opt, "plan-guided distributed run diverged");
}

// --- property-sampled single-rank bit-identity ---------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn opensbli_plan_guided_is_bit_identical(n in 8usize..16, iters in 1usize..3) {
        let cfg = opensbli::Config {
            n,
            iterations: iters,
            mode: ExecMode::Serial,
            ..opensbli::Config::default()
        };
        let rcfg = cfg.clone();
        let ((), rec) = with_recording_full(move || {
            let mut sim = opensbli::OpenSbli::new(rcfg);
            let mut p = Profile::new();
            sim.step(&mut p);
        });
        let specs = opensbli::chain_spec(true).loop_specs();
        let plan = DataflowReport::analyze("opensbli_sa", &specs, &rec).export_plan();
        prop_assert!(!plan.groups.is_empty());

        let checksum = |plan: Option<OptPlan>| -> u64 {
            let mut sim = opensbli::OpenSbli::new(opensbli::Config { plan, ..cfg.clone() });
            let mut p = Profile::new();
            for _ in 0..iters {
                sim.step(&mut p);
            }
            sim.checksum().to_bits()
        };
        prop_assert_eq!(checksum(None), checksum(Some(plan)));
    }

    #[test]
    fn cloverleaf2d_plan_guided_is_bit_identical(
        nx in 12usize..28,
        iters in 1usize..3,
        advect in 0usize..2,
    ) {
        let advection = if advect == 1 {
            cloverleaf2d::Advection::VanLeer
        } else {
            cloverleaf2d::Advection::DonorCell
        };
        let cfg = cloverleaf2d::Config {
            nx,
            ny: nx,
            iterations: iters,
            mode: ExecMode::Serial,
            advection,
            ..cloverleaf2d::Config::default()
        };
        let rcfg = cfg.clone();
        let ((), rec) = with_recording_full(move || {
            let mut sim = cloverleaf2d::Clover2::new(rcfg);
            let mut p = Profile::new();
            sim.cycle(&mut Profile::new(), None);
            sim.field_summary(&mut p);
        });
        let specs = cloverleaf2d::chain_spec(false).loop_specs();
        let plan = DataflowReport::analyze("cloverleaf2d", &specs, &rec).export_plan();
        prop_assert!(!plan.groups.is_empty());

        let density_bits = |plan: Option<OptPlan>| -> Vec<u64> {
            let mut sim = cloverleaf2d::Clover2::new(cloverleaf2d::Config { plan, ..cfg.clone() });
            let mut p = Profile::new();
            for _ in 0..iters {
                sim.cycle(&mut p, None);
            }
            let mut bits = Vec::with_capacity(nx * nx);
            for j in 0..nx as isize {
                for i in 0..nx as isize {
                    bits.push(sim.density().get(i, j).to_bits());
                }
            }
            bits
        };
        prop_assert_eq!(density_bits(None), density_bits(Some(plan)));
    }
}
