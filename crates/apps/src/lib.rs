//! # bwb-apps — the benchmarked applications
//!
//! Real, runnable Rust implementations of the seven applications the paper
//! benchmarks (§3), written against the [`bwb_ops`] (structured) and
//! [`bwb_op2`] (unstructured) DSLs so that every parallel loop carries the
//! byte/FLOP accounting the figures need:
//!
//! | module | paper app | type | bound by |
//! |---|---|---|---|
//! | [`cloverleaf2d`] | CloverLeaf 2D | structured hydro | bandwidth |
//! | [`cloverleaf3d`] | CloverLeaf 3D | structured hydro | bandwidth |
//! | [`acoustic`] | Acoustic | 8th-order FD wave | bandwidth + cache |
//! | [`opensbli`] | OpenSBLI SA/SN | FD Navier–Stokes proxy | bandwidth / compute |
//! | [`mgcfd`] | MG-CFD | unstructured FV Euler + multigrid | latency/indirection |
//! | [`volna`] | Volna | unstructured FV shallow water | indirection |
//! | [`miniweather`] | miniWeather | structured atmosphere | bandwidth |
//! | [`minibude`] | miniBUDE | molecular docking | compute |
//!
//! Every module exposes a `Config` (with a CI-sized `Default` and a
//! `paper()` constructor at the paper's problem sizes), a `run` entry point
//! returning the app's [`AppRun`] (loop profile + physics validation
//! quantities), and tests asserting the physics: conservation, symmetry,
//! convergence, or reference values.
//! [`table::APPS`] states each app once for everything outside its module:
//! identity, sizes, drivers and the model's calibration.

pub mod acoustic;
pub mod characterize;
pub mod cloverleaf2d;
pub mod cloverleaf3d;
pub mod jobspec;
pub mod mgcfd;
pub mod minibude;
pub mod miniweather;
pub mod opensbli;
pub mod table;
pub mod volna;

use bwb_ops::Profile;
pub use table::{AppDesc, Mesh, APPS};

/// Identifies one of the paper's applications (Figure 3–8 rows/columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppId {
    MiniBude,
    CloverLeaf2D,
    CloverLeaf3D,
    Acoustic,
    OpenSbliSa,
    OpenSbliSn,
    MgCfd,
    Volna,
    MiniWeather,
}

impl AppId {
    pub const ALL: [AppId; 9] = [
        AppId::MiniBude,
        AppId::CloverLeaf2D,
        AppId::CloverLeaf3D,
        AppId::Acoustic,
        AppId::OpenSbliSa,
        AppId::OpenSbliSn,
        AppId::MgCfd,
        AppId::Volna,
        AppId::MiniWeather,
    ];

    /// This app's row of [`APPS`].
    pub fn desc(self) -> &'static AppDesc {
        &APPS[self as usize]
    }

    /// Wire-level name (kebab/flat case, stable across releases).
    pub fn slug(self) -> &'static str {
        self.desc().slug
    }

    /// Inverse of [`AppId::slug`].
    pub fn from_slug(s: &str) -> Option<AppId> {
        AppId::ALL.into_iter().find(|a| a.slug() == s)
    }

    pub fn label(self) -> &'static str {
        self.desc().label
    }

    /// The apps on `mesh`, in [`AppId::ALL`] order (Figures 3 and 4).
    pub fn on(mesh: Mesh) -> Vec<AppId> {
        AppId::ALL
            .into_iter()
            .filter(|a| a.desc().mesh == mesh)
            .collect()
    }

    pub fn is_structured(self) -> bool {
        self.desc().mesh == Mesh::Structured
    }

    pub fn is_unstructured(self) -> bool {
        self.desc().mesh == Mesh::Unstructured
    }

    /// Bytes per floating-point value (paper §3 gives each app's precision).
    pub fn precision_bytes(self) -> usize {
        self.desc().precision_bytes
    }
}

/// Outcome of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub app: AppId,
    /// Per-loop byte/FLOP/time accounting from the DSL.
    pub profile: Profile,
    /// Main physics validation quantity (app-specific; see each module).
    pub validation: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Grid points / mesh elements of the primary set.
    pub points: usize,
}

impl AppRun {
    /// Effective bandwidth of the run, GB/s (Figure 8's metric on the
    /// machine the run executed on — the host here; the perfmodel rescales
    /// profiles to the paper's platforms).
    pub fn effective_gbs(&self) -> f64 {
        self.profile.effective_gbs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_sets_are_consistent() {
        assert_eq!(AppId::on(Mesh::Structured).len(), 6);
        for a in AppId::on(Mesh::Structured) {
            assert!(a.is_structured());
            assert!(!a.is_unstructured());
        }
        assert_eq!(AppId::on(Mesh::Unstructured), [AppId::MgCfd, AppId::Volna]);
        for a in AppId::on(Mesh::Unstructured) {
            assert!(a.is_unstructured());
        }
        assert!(!AppId::MiniBude.is_structured());
        assert!(!AppId::MiniBude.is_unstructured());
    }

    #[test]
    fn precisions_match_paper_section3() {
        assert_eq!(AppId::MiniBude.precision_bytes(), 4);
        assert_eq!(AppId::CloverLeaf2D.precision_bytes(), 8);
        assert_eq!(AppId::Acoustic.precision_bytes(), 4);
        assert_eq!(AppId::OpenSbliSa.precision_bytes(), 8);
        assert_eq!(AppId::Volna.precision_bytes(), 4);
        assert_eq!(AppId::MiniWeather.precision_bytes(), 8);
    }

    #[test]
    fn labels_are_distinct() {
        let set: std::collections::HashSet<_> = AppId::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(set.len(), AppId::ALL.len());
    }
}
