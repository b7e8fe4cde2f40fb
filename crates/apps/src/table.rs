//! # The app table — each app's identity, sizes and drivers stated once
//!
//! [`APPS`] holds one [`AppDesc`] per [`AppId`], in [`AppId::ALL`] order.
//! Every per-app question outside an app's own module reads its row: the
//! wire slug and figure label, the precision and mesh kind, the CI size and
//! the grid a spec's `n` sizes, the paper scale, how a
//! [`BenchSpec`] runs it in process and on ranks, and what `characterize`
//! measures it on. `dslcheck::registry` keeps its own table: it states how
//! each app is analyzed, at its analysis sizes.

use crate::characterize::{Calibration, Exchanges};
use crate::jobspec::BenchSpec;
use crate::{acoustic, cloverleaf2d, cloverleaf3d, mgcfd, minibude, miniweather, opensbli, volna};
use crate::{AppId, AppRun};
use bwb_ops::{OptPlan, Profile};
use bwb_shmpi::Comm;

/// Which DSL's mesh an app runs on (Figure 3 or Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesh {
    Structured,
    Unstructured,
    /// miniBUDE: poses, no mesh.
    None,
}

/// The per-rank body of a ranked run: this rank's profile and, on rank 0,
/// the gathered global field.
pub type RankedDriver = fn(&BenchSpec, &mut Comm) -> (Profile, Option<Vec<f64>>);

/// One app, as the job-spec layer, the tracer and the model see it.
#[derive(Debug)]
pub struct AppDesc {
    /// Wire-level name, stable across releases.
    pub slug: &'static str,
    /// Figure label.
    pub label: &'static str,
    /// Bytes per floating-point value (paper §3).
    pub precision_bytes: usize,
    pub mesh: Mesh,
    /// [`BenchSpec::small`]'s `(n, iterations)`: the app's CI size.
    pub small: (usize, usize),
    /// The grid's extents for a spec's `n`; their product is the run's points.
    pub extents: fn(usize) -> [usize; 3],
    /// Bytes a run allocates per point, an upper estimate covering every
    /// field, halos, schedules and set-up's temporaries.
    pub bytes_per_point: f64,
    /// [`BenchSpec::config_summary`]'s template: `{n}`, `{nz}` (the second
    /// extent) and `{it}` (the iterations) are filled in.
    pub summary: &'static str,
    /// The paper's problem scale: (points, iterations).
    pub paper_scale: (usize, usize),
    /// Runs a spec in process, applying the plan where `takes_plan`.
    pub run: fn(&BenchSpec, Option<OptPlan>) -> AppRun,
    /// The distributed driver, where the app has one.
    pub ranked: Option<RankedDriver>,
    /// Whether `run` applies a `dslcheck` optimization plan.
    pub takes_plan: bool,
    pub calibration: Calibration,
}

/// miniWeather's vertical cells for `nx`: half the horizontal, at least 8.
fn mw_nz(nx: usize) -> usize {
    (nx / 2).max(8)
}

fn clover2d(s: &BenchSpec, plan: Option<OptPlan>) -> cloverleaf2d::Config {
    cloverleaf2d::Config {
        nx: s.n,
        ny: s.n,
        iterations: s.iterations,
        mode: s.mode(),
        plan,
        ..Default::default()
    }
}

fn acoustic(s: &BenchSpec) -> acoustic::Config {
    acoustic::Config {
        n: s.n,
        iterations: s.iterations,
        mode: s.mode(),
        ..Default::default()
    }
}

fn miniweather(s: &BenchSpec) -> miniweather::Config {
    miniweather::Config {
        nx: s.n,
        nz: mw_nz(s.n),
        mode: s.mode(),
        ..Default::default()
    }
}

fn opensbli(s: &BenchSpec, variant: opensbli::Variant, plan: Option<OptPlan>) -> AppRun {
    opensbli::OpenSbli::run(opensbli::Config {
        n: s.n,
        iterations: s.iterations,
        variant,
        mode: s.mode(),
        plan,
        ..Default::default()
    })
}

/// A calibration run that is a serial in-process spec of `app`.
fn spec_run(app: AppId, n: usize, iterations: usize) -> AppRun {
    let spec = BenchSpec {
        n,
        iterations,
        ..BenchSpec::small(app)
    };
    (app.desc().run)(&spec, None)
}

/// The table: row `i` is [`AppId::ALL`]`[i]`'s.
pub static APPS: [AppDesc; 9] = [
    AppDesc {
        slug: "minibude",
        label: "miniBUDE",
        precision_bytes: 4,
        mesh: Mesh::None,
        small: (128, 2),
        extents: |n| [n, 1, 1],
        bytes_per_point: 64.0,
        summary: "{n} poses x {it} iters",
        paper_scale: (65_536, 30),
        run: |s, _| {
            minibude::MiniBude::run(minibude::Config {
                n_poses: s.n,
                iterations: s.iterations,
                parallel: s.parallel,
                ..Default::default()
            })
        },
        ranked: None,
        takes_plan: false,
        calibration: Calibration {
            run: || {
                minibude::MiniBude::run(minibude::Config {
                    n_poses: 256,
                    n_protein: 128,
                    ..Default::default()
                })
            },
            cache_bytes_per_point_iter: 3000.0,
            stencil_reach: 0,
            exchanges: Exchanges::Stated(0.0),
            reductions_per_iter: 1.0,
            indirection: 0.2,
            mpi_vec_available: false,
        },
    },
    AppDesc {
        slug: "cloverleaf2d",
        label: "CloverLeaf 2D",
        precision_bytes: 8,
        mesh: Mesh::Structured,
        small: (48, 20),
        extents: |n| [n, n, 1],
        bytes_per_point: 320.0,
        summary: "{n}x{n} x {it} iters",
        paper_scale: (7680 * 7680, 50),
        run: |s, plan| cloverleaf2d::Clover2::run(clover2d(s, plan)),
        ranked: Some(|s, c| cloverleaf2d::Clover2::run_distributed(c, clover2d(s, None))),
        takes_plan: true,
        calibration: Calibration {
            run: || {
                cloverleaf2d::Clover2::run(cloverleaf2d::Config {
                    nx: 96,
                    ny: 96,
                    iterations: 5,
                    advection: cloverleaf2d::Advection::VanLeer,
                    ..Default::default()
                })
            },
            cache_bytes_per_point_iter: 700.0,
            stencil_reach: 2,
            exchanges: Exchanges::Chain(cloverleaf2d::chain_spec, 1),
            reductions_per_iter: 1.0,
            indirection: 0.0,
            mpi_vec_available: false,
        },
    },
    AppDesc {
        slug: "cloverleaf3d",
        label: "CloverLeaf 3D",
        precision_bytes: 8,
        mesh: Mesh::Structured,
        small: (16, 10),
        extents: |n| [n, n, n],
        bytes_per_point: 320.0,
        summary: "{n}^3 x {it} iters",
        paper_scale: (408 * 408 * 408, 50),
        run: |s, _| {
            cloverleaf3d::Clover3::run(cloverleaf3d::Config {
                n: s.n,
                iterations: s.iterations,
                mode: s.mode(),
                ..Default::default()
            })
        },
        ranked: None,
        takes_plan: false,
        calibration: Calibration {
            run: || spec_run(AppId::CloverLeaf3D, 16, 4),
            cache_bytes_per_point_iter: 1500.0,
            stencil_reach: 2,
            // 4 `update_halo` mirror fills per cycle × 6 cell fields.
            exchanges: Exchanges::Stated(24.0),
            reductions_per_iter: 1.0,
            indirection: 0.0,
            mpi_vec_available: false,
        },
    },
    AppDesc {
        slug: "acoustic",
        label: "Acoustic",
        precision_bytes: 4,
        mesh: Mesh::Structured,
        small: (32, 10),
        extents: |n| [n, n, n],
        bytes_per_point: 64.0,
        summary: "{n}^3 x {it} iters",
        paper_scale: (320 * 320 * 320, 10),
        run: |s, _| acoustic::Acoustic::run(acoustic(s)),
        ranked: Some(|s, c| acoustic::Acoustic::run_distributed(c, acoustic(s))),
        takes_plan: false,
        calibration: Calibration {
            run: || spec_run(AppId::Acoustic, 32, 5),
            cache_bytes_per_point_iter: 150.0,
            stencil_reach: 4, // 8th-order star: deep halos, big messages
            exchanges: Exchanges::Chain(acoustic::chain_spec, 1),
            reductions_per_iter: 0.0,
            indirection: 0.0,
            mpi_vec_available: false,
        },
    },
    AppDesc {
        slug: "opensbli-sa",
        label: "OpenSBLI SA",
        precision_bytes: 8,
        mesh: Mesh::Structured,
        small: (24, 5),
        extents: |n| [n, n, n],
        bytes_per_point: 512.0,
        summary: "{n}^3 x {it} iters",
        paper_scale: (320 * 320 * 320, 20),
        run: |s, plan| opensbli(s, opensbli::Variant::StoreAll, plan),
        ranked: None,
        takes_plan: true,
        calibration: opensbli_calibration(|| spec_run(AppId::OpenSbliSa, 16, 3)),
    },
    AppDesc {
        slug: "opensbli-sn",
        label: "OpenSBLI SN",
        precision_bytes: 8,
        mesh: Mesh::Structured,
        small: (24, 5),
        extents: |n| [n, n, n],
        bytes_per_point: 512.0,
        summary: "{n}^3 x {it} iters",
        paper_scale: (320 * 320 * 320, 20),
        run: |s, _| opensbli(s, opensbli::Variant::StoreNone, None),
        ranked: None,
        takes_plan: false,
        calibration: opensbli_calibration(|| spec_run(AppId::OpenSbliSn, 16, 3)),
    },
    AppDesc {
        slug: "mgcfd",
        label: "MG-CFD",
        precision_bytes: 8,
        mesh: Mesh::Unstructured,
        small: (33, 5),
        extents: |n| [n, n, 1],
        bytes_per_point: 512.0,
        summary: "{n}x{n} fine grid, {it} V-cycles",
        paper_scale: (8_000_000, 25),
        run: |s, _| {
            mgcfd::MgCfd::run(mgcfd::Config {
                n: s.n,
                cycles: s.iterations,
                mode: s.mode_u(),
                ..Default::default()
            })
        },
        ranked: None,
        takes_plan: false,
        calibration: Calibration {
            run: || spec_run(AppId::MgCfd, 33, 3),
            cache_bytes_per_point_iter: 1400.0,
            stencil_reach: 1,
            // An estimate: no ranked V-cycle exists to count it from.
            exchanges: Exchanges::Stated(8.0),
            reductions_per_iter: 1.0,
            // Paper: "bound by latencies and indirect memory accesses".
            indirection: 1.0,
            mpi_vec_available: true,
        },
    },
    AppDesc {
        slug: "volna",
        label: "Volna",
        precision_bytes: 4,
        mesh: Mesh::Unstructured,
        small: (32, 50),
        extents: |n| [n, n, 1],
        bytes_per_point: 256.0,
        summary: "{n}x{n} cells x {it} iters",
        paper_scale: (30_000_000, 200),
        run: |s, _| {
            volna::Volna::run(volna::Config {
                n: s.n,
                iterations: s.iterations,
                mode: s.mode_u(),
                ..Default::default()
            })
        },
        ranked: None,
        takes_plan: false,
        calibration: Calibration {
            run: || spec_run(AppId::Volna, 32, 10),
            cache_bytes_per_point_iter: 160.0,
            stencil_reach: 1,
            // An estimate: Volna has no ranked run to count it from.
            exchanges: Exchanges::Stated(2.0),
            reductions_per_iter: 1.0,
            indirection: 0.6, // "less so than MG-CFD" (paper §3)
            mpi_vec_available: true,
        },
    },
    AppDesc {
        slug: "miniweather",
        label: "miniWeather",
        precision_bytes: 8,
        mesh: Mesh::Structured,
        small: (64, 5),
        extents: |n| [n, mw_nz(n), 1],
        bytes_per_point: 256.0,
        summary: "{n}x{nz} cells",
        paper_scale: (4000 * 2000, 90), // sim time 1.0 at dt≈11 ms
        run: |s, _| miniweather::MiniWeather::run_steps(miniweather(s), s.iterations),
        ranked: Some(|s, c| {
            miniweather::MiniWeather::run_distributed(c, miniweather(s), s.iterations)
        }),
        takes_plan: false,
        calibration: Calibration {
            // 40 × 20 cells for 2 s of simulated time: 2 steps of 1.11 s.
            run: || spec_run(AppId::MiniWeather, 40, 2),
            cache_bytes_per_point_iter: 800.0,
            stencil_reach: 2,
            // The chain's body is the two-step period of the split order.
            exchanges: Exchanges::Chain(miniweather::chain_spec, 2),
            reductions_per_iter: 0.0,
            indirection: 0.0,
            mpi_vec_available: false,
        },
    },
];

/// OpenSBLI SA's and SN's shared constants around each one's own run.
const fn opensbli_calibration(run: fn() -> AppRun) -> Calibration {
    Calibration {
        run,
        cache_bytes_per_point_iter: 1500.0,
        stencil_reach: 2,
        // `periodic_halos` of the 5 conserved fields × 3 RK stages.
        exchanges: Exchanges::Stated(15.0),
        reductions_per_iter: 0.0,
        indirection: 0.0,
        mpi_vec_available: false,
    }
}

/// The slugs of the apps whose rows satisfy `keep`, sorted, comma-joined:
/// the list an error message offers.
pub(crate) fn slugs_where(keep: impl Fn(&AppDesc) -> bool) -> String {
    let mut slugs: Vec<&str> = APPS.iter().filter(|d| keep(d)).map(|d| d.slug).collect();
    slugs.sort_unstable();
    slugs.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row `i` is `AppId::ALL[i]`'s: its driver's runs say so (and
    /// `jobspec`'s tiny-scale sweep runs every driver).
    #[test]
    fn rows_follow_the_enum() {
        for (i, d) in APPS.iter().enumerate() {
            assert_eq!(AppId::ALL[i] as usize, i);
            assert_eq!((d.extents)(16)[0], 16, "{}: n is the first extent", d.slug);
        }
    }
}
