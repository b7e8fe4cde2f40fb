//! The configuration space of the paper's §5: compiler × ZMM usage ×
//! hyperthreading × parallelization.

use bwb_apps::AppId;

/// Compiler family (paper §5 item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Compiler {
    /// Intel C++ Compiler Classic (ICC/ICPC).
    Classic,
    /// Intel oneAPI DPC++/C++ (ICX/ICPX).
    OneApi,
}

impl Compiler {
    pub const ALL: [Compiler; 2] = [Compiler::Classic, Compiler::OneApi];

    pub fn label(self) -> &'static str {
        match self {
            Compiler::Classic => "Classic",
            Compiler::OneApi => "OneAPI",
        }
    }
}

/// ZMM register usage (paper §5 item 2): whether AVX-512 (512-bit) or
/// AVX2-width (256-bit) instructions are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zmm {
    Default,
    High,
}

impl Zmm {
    pub const ALL: [Zmm; 2] = [Zmm::Default, Zmm::High];

    pub fn label(self) -> &'static str {
        match self {
            Zmm::Default => "ZMM default",
            Zmm::High => "ZMM high",
        }
    }
}

/// Parallelization approach (paper §5 item 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelization {
    /// One MPI process per physical/logical core.
    Mpi,
    /// Pure MPI with the explicitly auto-vectorizing generated kernels
    /// (unstructured apps only — the "MPI vec" rows of Figure 4).
    MpiVec,
    /// One process per NUMA domain + one OpenMP thread per core/thread.
    MpiOpenMp,
    /// One process per NUMA domain + SYCL with runtime-chosen workgroups.
    MpiSyclFlat,
    /// One process per NUMA domain + SYCL with user-specified nd_range.
    MpiSyclNdrange,
}

impl Parallelization {
    pub fn label(self) -> &'static str {
        match self {
            Parallelization::Mpi => "MPI",
            Parallelization::MpiVec => "MPI vec",
            Parallelization::MpiOpenMp => "MPI+OpenMP",
            Parallelization::MpiSyclFlat => "MPI+SYCL (flat)",
            Parallelization::MpiSyclNdrange => "MPI+SYCL (ndrange)",
        }
    }

    /// Is this a SYCL-backend configuration?
    pub fn is_sycl(self) -> bool {
        matches!(
            self,
            Parallelization::MpiSyclFlat | Parallelization::MpiSyclNdrange
        )
    }

    /// Does this configuration place one rank per NUMA domain (vs per core)?
    pub fn one_rank_per_numa(self) -> bool {
        !matches!(self, Parallelization::Mpi | Parallelization::MpiVec)
    }
}

/// One full configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunConfig {
    pub compiler: Compiler,
    pub zmm: Zmm,
    pub hyperthreading: bool,
    pub par: Parallelization,
}

impl RunConfig {
    pub fn label(&self) -> String {
        format!(
            "{} {} {} ({})",
            self.par.label(),
            if self.hyperthreading {
                "w/HT"
            } else {
                "w/o HT"
            },
            self.compiler.label(),
            self.zmm.label(),
        )
    }

    /// A OneAPI-compiled configuration (the compiler of Figures 7–9).
    pub fn oneapi(par: Parallelization, zmm: Zmm, hyperthreading: bool) -> Self {
        RunConfig {
            compiler: Compiler::OneApi,
            zmm,
            hyperthreading,
            par,
        }
    }

    /// The paper's default recommendation (§5): MPI+OpenMP, OneAPI,
    /// ZMM high, HT disabled.
    pub fn recommended() -> Self {
        RunConfig::oneapi(Parallelization::MpiOpenMp, Zmm::High, false)
    }

    /// The Figure 3 configuration set for structured-mesh apps: MPI and
    /// MPI+OpenMP over {compiler × zmm × ht}, plus MPI+SYCL (flat and
    /// ndrange, OneAPI only — Classic has no SYCL).
    pub fn structured_set() -> Vec<RunConfig> {
        let mut out = Vec::new();
        for par in [Parallelization::Mpi, Parallelization::MpiOpenMp] {
            for compiler in Compiler::ALL {
                for zmm in Zmm::ALL {
                    for ht in [false, true] {
                        out.push(RunConfig {
                            compiler,
                            zmm,
                            hyperthreading: ht,
                            par,
                        });
                    }
                }
            }
        }
        for par in [
            Parallelization::MpiSyclFlat,
            Parallelization::MpiSyclNdrange,
        ] {
            for zmm in Zmm::ALL {
                out.push(RunConfig {
                    compiler: Compiler::OneApi,
                    zmm,
                    hyperthreading: false,
                    par,
                });
            }
        }
        out
    }

    /// The configuration set `app` is searched over: Figure 4's for the
    /// unstructured-mesh apps, Figure 3's for the rest.
    pub fn set_for(app: AppId) -> Vec<RunConfig> {
        if app.is_unstructured() {
            RunConfig::unstructured_set()
        } else {
            RunConfig::structured_set()
        }
    }

    /// The Figure 4 configuration set for unstructured-mesh apps: adds the
    /// "MPI vec" rows and one MPI+SYCL row.
    pub fn unstructured_set() -> Vec<RunConfig> {
        let mut out = Vec::new();
        for par in [
            Parallelization::MpiVec,
            Parallelization::Mpi,
            Parallelization::MpiOpenMp,
        ] {
            for compiler in Compiler::ALL {
                for zmm in Zmm::ALL {
                    for ht in [false, true] {
                        out.push(RunConfig {
                            compiler,
                            zmm,
                            hyperthreading: ht,
                            par,
                        });
                    }
                }
            }
        }
        out.push(RunConfig {
            compiler: Compiler::OneApi,
            zmm: Zmm::Default,
            hyperthreading: false,
            par: Parallelization::MpiSyclFlat,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_set_size() {
        // 2 par × 2 compilers × 2 zmm × 2 ht = 16, + 4 SYCL = 20.
        assert_eq!(RunConfig::structured_set().len(), 20);
    }

    #[test]
    fn unstructured_set_size() {
        // 3 par × 8 = 24, + 1 SYCL = 25 — matching Figure 4's 25 rows.
        assert_eq!(RunConfig::unstructured_set().len(), 25);
    }

    #[test]
    fn labels_unique() {
        let set = RunConfig::structured_set();
        let labels: std::collections::HashSet<String> = set.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), set.len());
    }

    #[test]
    fn recommended_matches_paper() {
        let r = RunConfig::recommended();
        assert_eq!(r.compiler, Compiler::OneApi);
        assert_eq!(r.zmm, Zmm::High);
        assert!(!r.hyperthreading);
        assert_eq!(r.par, Parallelization::MpiOpenMp);
    }

    #[test]
    fn sycl_detection() {
        assert!(Parallelization::MpiSyclFlat.is_sycl());
        assert!(!Parallelization::MpiVec.is_sycl());
        assert!(Parallelization::MpiOpenMp.one_rank_per_numa());
        assert!(!Parallelization::Mpi.one_rank_per_numa());
    }
}
