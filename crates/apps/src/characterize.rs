//! Application characterization: measured loop-profile statistics that the
//! performance model (`bwb-perfmodel`) scales to the paper's problem sizes
//! and platforms.
//!
//! Each [`AppCharacter`] is derived by *running* the application at a small
//! size through its DSL (so bytes/FLOPs come from the real kernels, not
//! hand-entered constants) and augmenting with static structure: stencil
//! reach (halo volume), kernel-launch counts (SYCL overhead), indirection
//! (latency sensitivity), and whether the MPI backend auto-vectorizes.

use crate::{AppId, AppRun};

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

/// What `characterize` runs an app on, and the constants of its
/// [`AppCharacter`] that a run does not measure (one per app row of the
/// [app table](crate::table)).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// The small serial run the per-point rates are measured on.
    pub run: fn() -> AppRun,
    pub cache_bytes_per_point_iter: f64,
    pub stencil_reach: usize,
    pub exchanges: Exchanges,
    pub reductions_per_iter: f64,
    pub indirection: f64,
    pub mpi_vec_available: bool,
}

/// Where an app's `fields_exchanged_per_iter` comes from.
#[derive(Debug, Clone, Copy)]
pub enum Exchanges {
    /// The `Exchange` steps of the declared distributed chain
    /// (`chain_spec(true)`), whose body spans this many iterations.
    Chain(fn(bool) -> bwb_ops::ChainSpec, usize),
    /// Stated, with its source beside it: the app has no ranked run.
    Stated(f64),
}

impl Exchanges {
    fn per_iter(self) -> f64 {
        match self {
            Exchanges::Chain(chain_spec, iters_per_body) => {
                let body = chain_spec(true).body;
                let is_exchange = |s: &&bwb_ops::Step| matches!(s, bwb_ops::Step::Exchange { .. });
                body.iter().filter(is_exchange).count() as f64 / iters_per_body as f64
            }
            Exchanges::Stated(n) => n,
        }
    }
}

fn derive(profile: &bwb_ops::Profile, points: usize, iters: usize) -> (f64, f64, f64, f64) {
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
    (bytes, flops, kernels_per_iter, small_frac)
}

/// Characterize one application by running it at its calibration size.
pub fn characterize(app: AppId) -> AppCharacter {
    let desc = app.desc();
    let c = desc.calibration;
    let run = (c.run)();
    // A structured app decomposes over its grid's axes; the others not.
    let axes = (desc.extents)(16).into_iter().filter(|&e| e > 1).count();
    let (b, f, k, s) = derive(&run.profile, run.points, run.iterations);
    AppCharacter {
        app,
        bytes_per_point_iter: b,
        flops_per_point_iter: f,
        cache_bytes_per_point_iter: c.cache_bytes_per_point_iter,
        kernels_per_iter: k,
        small_kernel_fraction: s,
        stencil_reach: c.stencil_reach,
        dims: if app.is_structured() { axes } else { 0 },
        fields_exchanged_per_iter: c.exchanges.per_iter(),
        reductions_per_iter: c.reductions_per_iter,
        indirection: c.indirection,
        mpi_vec_available: c.mpi_vec_available,
        precision_bytes: desc.precision_bytes,
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
        use crate::jobspec::BenchSpec;
        use bwb_ops::access::with_recording_full;
        use bwb_shmpi::Universe;
        for app in [AppId::CloverLeaf2D, AppId::Acoustic, AppId::MiniWeather] {
            let spec = BenchSpec {
                app,
                n: 16,
                iterations: 2,
                ranks: 2,
                parallel: false,
            };
            let out = Universe::run(2, move |c| with_recording_full(|| spec.run_ranked(c)).1);
            let per_step = out.results[0].exchanges.len() as f64 / 2.0;
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
