//! Application characterization: measured loop-profile statistics that the
//! performance model (`bwb-perfmodel`) scales to the paper's problem sizes
//! and platforms.
//!
//! Each [`AppCharacter`] is derived by *running* the application at a small
//! size through its DSL (so bytes/FLOPs come from the real kernels, not
//! hand-entered constants) and augmenting with static structure: stencil
//! reach (halo volume), kernel-launch counts (SYCL overhead), indirection
//! (latency sensitivity), and whether the MPI backend auto-vectorizes.

use crate::{
    acoustic, cloverleaf2d, cloverleaf3d, mgcfd, minibude, miniweather, opensbli, volna, AppId,
};
use bwb_ops::ExecMode;

/// Scale-invariant description of one application's per-iteration work.
#[derive(Debug, Clone, PartialEq)]
pub struct AppCharacter {
    pub app: AppId,
    /// Useful bytes moved per grid point (or mesh element) per iteration.
    pub bytes_per_point_iter: f64,
    /// FLOPs per point per iteration.
    pub flops_per_point_iter: f64,
    /// Bytes per point per iteration served from *cache* (stencil taps
    /// re-reading recently-touched lines): the quantity the paper's
    /// cache-bandwidth discussion (§2, §6, Figure 9) turns on. Estimated as
    /// taps × precision × stencil passes per iteration.
    pub cache_bytes_per_point_iter: f64,
    /// Parallel-loop launches per iteration (drives per-kernel overheads).
    pub kernels_per_iter: f64,
    /// Fraction of launches that are "small" (boundary kernels etc. —
    /// CloverLeaf's SYCL weakness in the paper's §5.1).
    pub small_kernel_fraction: f64,
    /// Stencil reach / halo depth (0 for unstructured & compute-bound).
    pub stencil_reach: usize,
    /// Spatial dimensionality of the decomposition (0 = not decomposed by
    /// a Cartesian grid).
    pub dims: usize,
    /// Number of fields exchanged per iteration (halo traffic multiplier).
    pub fields_exchanged_per_iter: f64,
    /// Global reductions per iteration (dt computations etc.).
    pub reductions_per_iter: f64,
    /// Degree of indirect access (0 = structured streaming, 1 = fully
    /// indirect gather/scatter) — the latency-sensitivity knob.
    pub indirection: f64,
    /// Whether the generated pure-MPI code auto-vectorizes ("MPI vec").
    pub mpi_vec_available: bool,
    pub precision_bytes: usize,
}

impl AppCharacter {
    /// Arithmetic intensity (FLOP/byte) of the whole app.
    pub fn intensity(&self) -> f64 {
        if self.bytes_per_point_iter == 0.0 {
            return f64::INFINITY;
        }
        self.flops_per_point_iter / self.bytes_per_point_iter
    }
}

fn derive(
    app: AppId,
    profile: &bwb_ops::Profile,
    points: usize,
    iters: usize,
) -> (f64, f64, f64, f64) {
    let pi = (points * iters.max(1)) as f64;
    let bytes = profile.total_bytes() as f64 / pi;
    let flops = profile.total_flops() / pi;
    let launches: u64 = profile.records().iter().map(|r| r.calls).sum();
    let kernels_per_iter = launches as f64 / iters.max(1) as f64;
    // Small kernels: fewer points per call than 10% of the main loops.
    let med_points: f64 = points as f64;
    let small: u64 = profile
        .records()
        .iter()
        .filter(|r| (r.points as f64 / r.calls as f64) < 0.1 * med_points)
        .map(|r| r.calls)
        .sum();
    let small_frac = small as f64 / launches.max(1) as f64;
    let _ = app;
    (bytes, flops, kernels_per_iter, small_frac)
}

/// Halo exchanges per iteration of a ranked app: the `Exchange` steps of
/// its declared distributed chain, whose body spans `iters_per_body`
/// iterations.
fn exchanges_per_iter(chain: bwb_ops::ChainSpec, iters_per_body: usize) -> f64 {
    let is_exchange = |s: &&bwb_ops::Step| matches!(s, bwb_ops::Step::Exchange { .. });
    chain.body.iter().filter(is_exchange).count() as f64 / iters_per_body as f64
}

/// Characterize one application by running it at a small calibration size.
pub fn characterize(app: AppId) -> AppCharacter {
    match app {
        AppId::CloverLeaf2D => {
            let run = cloverleaf2d::Clover2::run(cloverleaf2d::Config {
                nx: 96,
                ny: 96,
                iterations: 5,
                cfl: 0.5,
                mode: ExecMode::Serial,
                advection: cloverleaf2d::Advection::VanLeer,
                plan: None,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 700.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 2,
                dims: 2,
                fields_exchanged_per_iter: exchanges_per_iter(cloverleaf2d::chain_spec(true), 1),
                reductions_per_iter: 1.0,
                indirection: 0.0,
                mpi_vec_available: false,
                precision_bytes: 8,
            }
        }
        AppId::CloverLeaf3D => {
            let run = cloverleaf3d::Clover3::run(cloverleaf3d::Config {
                n: 16,
                iterations: 4,
                cfl: 0.45,
                mode: ExecMode::Serial,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 1500.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 2,
                dims: 3,
                // 4 `update_halo` mirror fills per cycle × 6 cell fields.
                fields_exchanged_per_iter: 24.0,
                reductions_per_iter: 1.0,
                indirection: 0.0,
                mpi_vec_available: false,
                precision_bytes: 8,
            }
        }
        AppId::Acoustic => {
            let run = acoustic::Acoustic::run(acoustic::Config {
                n: 32,
                iterations: 5,
                courant: 0.3,
                mode: ExecMode::Serial,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 150.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 4, // 8th-order star: deep halos, big messages
                dims: 3,
                fields_exchanged_per_iter: exchanges_per_iter(acoustic::chain_spec(true), 1),
                reductions_per_iter: 0.0,
                indirection: 0.0,
                mpi_vec_available: false,
                precision_bytes: 4,
            }
        }
        AppId::OpenSbliSa | AppId::OpenSbliSn => {
            let variant = if app == AppId::OpenSbliSa {
                opensbli::Variant::StoreAll
            } else {
                opensbli::Variant::StoreNone
            };
            let run = opensbli::OpenSbli::run(opensbli::Config {
                n: 16,
                iterations: 3,
                variant,
                nu: 0.02,
                mode: ExecMode::Serial,
                plan: None,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 1500.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 2,
                dims: 3,
                // `periodic_halos` of the 5 conserved fields × 3 RK stages.
                fields_exchanged_per_iter: 15.0,
                reductions_per_iter: 0.0,
                indirection: 0.0,
                mpi_vec_available: false,
                precision_bytes: 8,
            }
        }
        AppId::MiniWeather => {
            let run = miniweather::MiniWeather::run(miniweather::Config {
                nx: 40,
                nz: 20,
                sim_time: 2.0,
                mode: ExecMode::Serial,
                ..miniweather::Config::default()
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 800.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 2,
                dims: 2,
                // The chain's body is the two-step period of the split order.
                fields_exchanged_per_iter: exchanges_per_iter(miniweather::chain_spec(true), 2),
                reductions_per_iter: 0.0,
                indirection: 0.0,
                mpi_vec_available: false,
                precision_bytes: 8,
            }
        }
        AppId::MgCfd => {
            let run = mgcfd::MgCfd::run(mgcfd::Config {
                n: 33,
                levels: 3,
                cycles: 3,
                smooth_steps: 2,
                mode: bwb_op2::ExecModeU::Serial,
                seed: 7,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 1400.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 1,
                dims: 0,
                // An estimate: no ranked V-cycle exists to count it from.
                fields_exchanged_per_iter: 8.0,
                reductions_per_iter: 1.0,
                indirection: 1.0, // heavily indirect (paper: "bound by
                // latencies and indirect memory accesses")
                mpi_vec_available: true,
                precision_bytes: 8,
            }
        }
        AppId::Volna => {
            let run = volna::Volna::run(volna::Config {
                n: 32,
                iterations: 10,
                cfl: 0.4,
                mode: bwb_op2::ExecModeU::Serial,
                seed: 11,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 160.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 1,
                dims: 0,
                // An estimate: Volna has no ranked run to count it from.
                fields_exchanged_per_iter: 2.0,
                reductions_per_iter: 1.0,
                indirection: 0.6, // "less so than MG-CFD" (paper §3)
                mpi_vec_available: true,
                precision_bytes: 4,
            }
        }
        AppId::MiniBude => {
            let run = minibude::MiniBude::run(minibude::Config {
                n_poses: 256,
                n_ligand: 26,
                n_protein: 128,
                iterations: 2,
                parallel: false,
                seed: 5,
            });
            let (b, f, k, s) = derive(app, &run.profile, run.points, run.iterations);
            AppCharacter {
                app,
                bytes_per_point_iter: b,
                cache_bytes_per_point_iter: 3000.0,
                flops_per_point_iter: f,
                kernels_per_iter: k,
                small_kernel_fraction: s,
                stencil_reach: 0,
                dims: 0,
                fields_exchanged_per_iter: 0.0,
                reductions_per_iter: 1.0,
                indirection: 0.2,
                mpi_vec_available: false,
                precision_bytes: 4,
            }
        }
    }
}

/// Characterize all apps (expensive: runs each once at calibration size).
pub fn characterize_all() -> Vec<AppCharacter> {
    AppId::ALL.iter().map(|&a| characterize(a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clover2d_is_bandwidth_bound() {
        let c = characterize(AppId::CloverLeaf2D);
        assert!(
            c.intensity() < 3.0,
            "CloverLeaf intensity {}",
            c.intensity()
        );
        assert!(
            c.bytes_per_point_iter > 50.0,
            "bytes/pt/iter {}",
            c.bytes_per_point_iter
        );
        assert!(c.kernels_per_iter > 8.0);
    }

    #[test]
    fn minibude_is_compute_bound() {
        let c = characterize(AppId::MiniBude);
        assert!(c.intensity() > 5.0, "miniBUDE intensity {}", c.intensity());
    }

    #[test]
    fn sa_moves_more_bytes_than_sn() {
        let sa = characterize(AppId::OpenSbliSa);
        let sn = characterize(AppId::OpenSbliSn);
        assert!(sa.bytes_per_point_iter > 1.8 * sn.bytes_per_point_iter);
        assert!(sn.intensity() > 2.0 * sa.intensity());
    }

    #[test]
    fn acoustic_has_deep_stencil() {
        let c = characterize(AppId::Acoustic);
        assert_eq!(c.stencil_reach, 4);
        assert!(c.intensity() > characterize(AppId::CloverLeaf2D).intensity());
    }

    #[test]
    fn unstructured_apps_flagged_for_vectorized_mpi() {
        assert!(characterize(AppId::MgCfd).mpi_vec_available);
        assert!(characterize(AppId::Volna).mpi_vec_available);
        assert!(!characterize(AppId::CloverLeaf2D).mpi_vec_available);
    }

    /// The model's exchange count is the run's: each ranked app's recorded
    /// exchanges per step on 2 ranks equal `fields_exchanged_per_iter`.
    #[test]
    fn exchanges_per_iter_match_a_recorded_two_rank_run() {
        use bwb_ops::access::with_recording_full;
        use bwb_shmpi::{Comm, Universe};
        let steps = 2;
        let run = |app: AppId, c: &mut Comm| match app {
            AppId::CloverLeaf2D => {
                let cfg = cloverleaf2d::Config {
                    nx: 16,
                    ny: 16,
                    iterations: steps,
                    ..Default::default()
                };
                drop(cloverleaf2d::Clover2::run_distributed(c, cfg));
            }
            AppId::Acoustic => {
                let cfg = acoustic::Config {
                    n: 12,
                    iterations: steps,
                    ..Default::default()
                };
                drop(acoustic::Acoustic::run_distributed(c, cfg));
            }
            _ => {
                let cfg = miniweather::Config {
                    nx: 16,
                    nz: 8,
                    ..Default::default()
                };
                drop(miniweather::MiniWeather::run_distributed(c, cfg, steps));
            }
        };
        for app in [AppId::CloverLeaf2D, AppId::Acoustic, AppId::MiniWeather] {
            let out = Universe::run(2, move |c| with_recording_full(|| run(app, c)).1);
            let per_step = out.results[0].exchanges.len() as f64 / steps as f64;
            let model = characterize(app).fields_exchanged_per_iter;
            assert_eq!(per_step, model, "{app:?}");
        }
    }

    #[test]
    fn clover_has_small_boundary_kernels() {
        let c = characterize(AppId::CloverLeaf2D);
        assert!(
            c.small_kernel_fraction > 0.05,
            "small-kernel fraction {}",
            c.small_kernel_fraction
        );
    }
}
