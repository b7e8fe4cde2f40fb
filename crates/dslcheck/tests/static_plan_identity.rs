//! Static-only plan-guided execution: the optimizing executors driven by
//! plans derived *purely from declared chains* — no recording pass ever
//! runs in this file — must reproduce the recorded-plan results exactly:
//! bit-identical fields/checksums against the baseline schedule, and the
//! same halo-traffic reduction from certified elisions.
//!
//! This is the end-to-end payoff of `dslcheck::speccheck`: certification
//! latency drops from an instrumented app run to microseconds of abstract
//! interpretation, and the certificates are interchangeable because the
//! registry cross-check proves them equal to the recorded ones.

use bwb_apps::{cloverleaf2d, opensbli};
use bwb_dslcheck::static_plan;
use bwb_ops::{ExecMode, OptPlan, Profile};
use bwb_shmpi::Universe;

#[test]
fn opensbli_static_plan_checksum_is_bit_identical() {
    let plan = static_plan("opensbli_sa").expect("opensbli_sa declares a chain");
    assert!(
        plan.groups.iter().any(|g| g.names.len() >= 10),
        "static plan must certify the ten-loop RHS fusion group: {:?}",
        plan.groups
    );

    // Deliberately a different size than the chain's CI binding (n = 10):
    // the certificates are name-keyed, so the static plan transfers to any
    // grid the same schedule runs on.
    let cfg = opensbli::Config {
        n: 14,
        iterations: 2,
        mode: ExecMode::Serial,
        ..opensbli::Config::default()
    };
    let checksum = |plan: Option<OptPlan>| -> u64 {
        let mut sim = opensbli::OpenSbli::new(opensbli::Config {
            plan,
            ..cfg.clone()
        });
        let mut p = Profile::new();
        for _ in 0..2 {
            sim.step(&mut p);
        }
        sim.checksum().to_bits()
    };
    assert_eq!(
        checksum(None),
        checksum(Some(plan)),
        "static-plan-guided OpenSBLI diverged from baseline"
    );
}

#[test]
fn cloverleaf2d_static_plan_density_is_bit_identical() {
    let plan = static_plan("cloverleaf2d").expect("cloverleaf2d declares a chain");
    assert!(!plan.groups.is_empty(), "expected fusion certificates");

    let nx = 20usize;
    let cfg = cloverleaf2d::Config {
        nx,
        ny: nx,
        iterations: 2,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };
    let density_bits = |plan: Option<OptPlan>| -> Vec<u64> {
        let mut sim = cloverleaf2d::Clover2::new(cloverleaf2d::Config {
            plan,
            ..cfg.clone()
        });
        let mut p = Profile::new();
        for _ in 0..2 {
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
    assert_eq!(
        density_bits(None),
        density_bits(Some(plan)),
        "static-plan-guided CloverLeaf2D diverged from baseline"
    );
}

#[test]
fn clover_dist_static_plan_elides_traffic_and_stays_bit_identical() {
    let plan = static_plan("clover2d_dist").expect("clover2d_dist declares a chain");
    assert!(
        !plan.elisions.is_empty(),
        "static plan must certify halo elisions: {:?}",
        plan.elisions
    );

    let cfg = cloverleaf2d::Config {
        nx: 24,
        ny: 24,
        iterations: 3,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };
    let run = |plan: Option<OptPlan>| -> (Vec<u64>, u64) {
        let cfg = cloverleaf2d::Config {
            plan,
            ..cfg.clone()
        };
        let out = Universe::run(4, move |c| {
            cloverleaf2d::Clover2::run_distributed(c, cfg.clone()).1
        });
        (
            out.results[0]
                .as_ref()
                .expect("rank 0 gathers")
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            // Every halo exchange sends; an elided one does not.
            out.stats.per_rank[0].sends,
        )
    };
    let (base_bits, base_exchanges) = run(None);
    let (opt_bits, opt_exchanges) = run(Some(plan));
    assert_eq!(base_bits, opt_bits, "static-plan distributed run diverged");
    assert!(
        opt_exchanges < base_exchanges,
        "elisions must reduce halo traffic: {opt_exchanges} vs {base_exchanges} sends"
    );
}
