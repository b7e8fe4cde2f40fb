//! Plan-guided fused traversal vs the baseline schedule, on the real apps.
//!
//! Each pair runs the same certified-bit-identical computation two ways:
//!
//!  * `opensbli_rhs` — one Store-All SSP-RK3 step with the 10-loop
//!    derivative+combine RHS either as ten separate `par_loop3_planes`
//!    passes (baseline) or as one plan-guided fused traversal sharing each
//!    `(j,k)` plane slice across all ten bodies.
//!  * `clover_cycle` — one CloverLeaf2D hydro cycle with `ideal_gas` and
//!    `viscosity` either as two passes or one fused pass.
//!
//! The plan is the one `analyze --static` exports — the certificates
//! derived from each app's declared chain, which `analyze` validates
//! against a recorded run — so the bench also exercises the full
//! declare→plan→execute pipeline rather than a hand-built plan.

use bwb_core::apps::{cloverleaf2d, opensbli};
use bwb_core::ops::{ExecMode, Profile};
use bwb_dslcheck::static_plan;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_opensbli(c: &mut Criterion) {
    let n = 48;
    let cfg = opensbli::Config {
        n,
        iterations: 1,
        variant: opensbli::Variant::StoreAll,
        mode: ExecMode::Serial,
        ..opensbli::Config::default()
    };
    let plan = static_plan("opensbli_sa").expect("opensbli_sa declares a chain");
    assert!(
        !plan.groups.is_empty(),
        "opensbli_sa must certify a fusion group"
    );

    let mut g = c.benchmark_group("fusion/opensbli_rhs");
    g.throughput(Throughput::Elements(n.pow(3) as u64));
    g.sample_size(10);
    for (label, plan) in [("baseline", None), ("fused", Some(plan))] {
        let cfg = opensbli::Config {
            plan,
            ..cfg.clone()
        };
        g.bench_function(BenchmarkId::new("step", label), |b| {
            let mut sim = opensbli::OpenSbli::new(cfg.clone());
            let mut p = Profile::new();
            b.iter(|| sim.step(&mut p))
        });
    }
    g.finish();
}

fn bench_clover(c: &mut Criterion) {
    let n = 192;
    let cfg = cloverleaf2d::Config {
        nx: n,
        ny: n,
        iterations: 1,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };
    let plan = static_plan("cloverleaf2d").expect("cloverleaf2d declares a chain");
    assert!(
        !plan.groups.is_empty(),
        "cloverleaf2d must certify a fusion group"
    );

    let mut g = c.benchmark_group("fusion/clover_cycle");
    g.throughput(Throughput::Elements((n * n) as u64));
    g.sample_size(10);
    for (label, plan) in [("baseline", None), ("fused", Some(plan))] {
        let cfg = cloverleaf2d::Config {
            plan,
            ..cfg.clone()
        };
        g.bench_function(BenchmarkId::new("cycle", label), |b| {
            let mut sim = cloverleaf2d::Clover2::new(cfg.clone());
            let mut p = Profile::new();
            b.iter(|| sim.cycle(&mut p, None))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_opensbli, bench_clover);
criterion_main!(benches);
