//! Property tests for the content-addressed cache keys (satellite of the
//! serving subsystem): any change to any component of the key material —
//! app, grid config, plan, machine descriptor, job kind — must change the
//! key, and the key must be a pure function of the material (no
//! process-local state), so caches survive restarts protocol-compatibly.

use bwb_apps::jobspec::BenchSpec;
use bwb_apps::AppId;
use bwb_machine::ShardPolicy;
use bwb_ops::OptPlan;
use bwb_serve::{CacheKey, Job};
use proptest::prelude::*;

/// Sample a benchmark spec from plain integers (the vendored proptest has
/// range strategies only).
fn spec_from(app_idx: usize, n: usize, iters: usize, par: usize) -> BenchSpec {
    BenchSpec {
        app: AppId::ALL[app_idx % AppId::ALL.len()],
        n,
        iterations: iters,
        ranks: 1,
        parallel: par % 2 == 1,
    }
}

fn bench_key(spec: &BenchSpec, plan: Option<&str>, machine: &str) -> CacheKey {
    Job::Benchmark {
        spec: spec.clone(),
        plan: plan.map(|p| OptPlan::from_json(p).expect("a plan")),
        placement: None,
    }
    .cache_key(machine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every single-field perturbation of the key material produces a
    /// different key, and all perturbations are mutually distinct — no
    /// component is ignored and no two components alias each other.
    #[test]
    fn any_field_change_changes_the_key(
        app_idx in 0usize..9,
        n in 4usize..256,
        iters in 1usize..64,
        par in 0usize..2,
    ) {
        let spec = spec_from(app_idx, n, iters, par);
        let machine = "machine-a";
        let base = bench_key(&spec, None, machine);

        let mut other_app = spec.clone();
        other_app.app = AppId::ALL[(app_idx + 1) % AppId::ALL.len()];
        let mut other_n = spec.clone();
        other_n.n = n + 1;
        let mut other_iters = spec.clone();
        other_iters.iterations = iters + 1;
        let mut other_par = spec.clone();
        other_par.parallel = !spec.parallel;

        let perturbed = [
            bench_key(&other_app, None, machine),
            bench_key(&other_n, None, machine),
            bench_key(&other_iters, None, machine),
            bench_key(&other_par, None, machine),
            bench_key(&spec, Some("{\"app\":\"x\"}"), machine),
            bench_key(&spec, None, "machine-b"),
            Job::Trace { spec: spec.clone() }.cache_key(machine),
            Job::Benchmark {
                spec: spec.clone(),
                plan: None,
                placement: Some(ShardPolicy::Packed),
            }
            .cache_key(machine),
            Job::Benchmark {
                spec: spec.clone(),
                plan: None,
                placement: Some(ShardPolicy::OnePerNuma),
            }
            .cache_key(machine),
        ];
        for (i, k) in perturbed.iter().enumerate() {
            prop_assert_ne!(base, *k, "perturbation #{} collided with base", i);
        }
        for i in 0..perturbed.len() {
            for j in (i + 1)..perturbed.len() {
                prop_assert_ne!(
                    perturbed[i], perturbed[j],
                    "perturbations #{} and #{} collided", i, j
                );
            }
        }
    }

    /// Keys are pure functions of the material: rebuilding the same job
    /// from scratch always yields the same key.
    #[test]
    fn keys_are_deterministic(
        app_idx in 0usize..9,
        n in 4usize..256,
        iters in 1usize..64,
        par in 0usize..2,
    ) {
        let a = bench_key(&spec_from(app_idx, n, iters, par), None, "m");
        let b = bench_key(&spec_from(app_idx, n, iters, par), None, "m");
        prop_assert_eq!(a, b);
    }
}

/// Cross-process stability: the key of a fixed job against a fixed machine
/// descriptor is a pinned constant (independently recomputed outside this
/// codebase). If this changes, every persisted cache is invalidated —
/// bump intentionally, never accidentally.
#[test]
fn golden_job_key_is_stable_across_processes() {
    let job = Job::Benchmark {
        spec: BenchSpec {
            app: AppId::Acoustic,
            n: 32,
            iterations: 10,
            ranks: 1,
            parallel: false,
        },
        plan: None,
        placement: None,
    };
    assert_eq!(
        job.cache_key("golden-machine").to_string(),
        "a7a162e2c8b60c36"
    );
}
