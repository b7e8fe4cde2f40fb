//! # Job specs — a uniform front door onto every application
//!
//! The serving layer (`bwb-serve`) accepts benchmark requests as small
//! JSON documents naming an app, a grid size, an iteration count, and a
//! rank count. This module is the bridge from that wire-level shape onto
//! each application's own `Config`: one [`BenchSpec`] maps deterministically
//! onto a per-app configuration, runs it, and folds the resulting
//! [`AppRun`](crate::AppRun) into a flat, JSON-friendly [`BenchOutcome`].
//!
//! Two execution paths exist:
//!
//! * [`BenchSpec::run`] — in-process, `ranks == 1`, any app.
//! * [`BenchSpec::run_ranked`] — the body to run inside each rank of a
//!   `shmpi` universe for the distributed-capable apps (Acoustic,
//!   CloverLeaf 2D, miniWeather). The caller owns universe construction
//!   (the serve shard pool pins universes to carved core sets); per-rank
//!   [`RankOutcome`]s are merged with [`BenchSpec::merge_ranked`].
//!
//! [`BenchSpec::canonical`] renders the spec as a stable, order-fixed
//! string — the cache-key material for the content-addressed result cache.

use crate::{acoustic, cloverleaf2d, cloverleaf3d, mgcfd, minibude, miniweather, opensbli, volna};
use crate::{AppId, AppRun};
use bwb_op2::ExecModeU;
use bwb_ops::{ExecMode, OptPlan};
use bwb_shmpi::Comm;

/// A benchmark request in normalized form: which app, how big, how long,
/// over how many ranks, and whether the threaded backend is used.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BenchSpec {
    pub app: AppId,
    /// Primary grid-size knob (edge length / pose count; see `config_summary`).
    pub n: usize,
    /// Time steps / V-cycles / docking iterations.
    pub iterations: usize,
    /// 1 = in-process run; >1 = shmpi universe of this size.
    pub ranks: usize,
    /// Threaded backend (Rayon / colored) where the app has one.
    pub parallel: bool,
}

/// Flat outcome of a job run — everything the serving layer reports.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    pub app: AppId,
    /// App-specific physics validation quantity (rank 0's for ranked runs).
    pub validation: f64,
    /// Grid points / mesh elements of the primary set.
    pub points: usize,
    pub iterations: usize,
    pub ranks: usize,
    /// Loop wall time: total across loops (serial) or the slowest rank's
    /// total (ranked — the wall-clock-critical path).
    pub seconds: f64,
    /// Bytes moved by all parallel loops, summed across ranks.
    pub bytes: u64,
    /// Effective bandwidth, GB/s (Figure 8's metric).
    pub gbs: f64,
}

/// One rank's share of a distributed run, produced by
/// [`BenchSpec::run_ranked`] inside the universe closure.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    pub seconds: f64,
    pub bytes: u64,
    /// Set on rank 0 only: validation quantity over the gathered field.
    pub validation: Option<f64>,
}

/// A spec whose dataset would not fit in the host's memory. Allocating it
/// would abort the process, which no `catch_unwind` survives, so
/// [`BenchSpec::validate`] refuses it before anything is allocated.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DatasetTooLarge {
    app: AppId,
    n: usize,
    /// [`BenchSpec::dataset_bytes`] of the spec.
    bytes: f64,
    /// The memory it was held against, bytes.
    limit: f64,
}

impl std::fmt::Display for DatasetTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "app '{}' at n={} needs about {:.3e} bytes, more than the host's {:.3e} bytes of memory",
            self.app.slug(),
            self.n,
            self.bytes,
            self.limit
        )
    }
}

impl std::error::Error for DatasetTooLarge {}

/// The host's physical memory in bytes: `MemTotal` in `/proc/meminfo`, or
/// 16 GiB where that cannot be read.
pub(crate) fn host_memory_bytes() -> f64 {
    static BYTES: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *BYTES.get_or_init(|| {
        let kib = std::fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("MemTotal:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            });
        kib.map_or(16.0 * (1u64 << 30) as f64, |k| k * 1024.0)
    })
}

/// The apps with a distributed (`run_distributed`) driver.
pub const RANKED_APPS: [AppId; 3] = [AppId::Acoustic, AppId::CloverLeaf2D, AppId::MiniWeather];

/// The apps whose run applies a `dslcheck` optimization plan.
pub const PLAN_APPS: [AppId; 2] = [AppId::CloverLeaf2D, AppId::OpenSbliSa];

impl AppId {
    /// Wire-level name (kebab/flat case, stable across releases).
    pub fn slug(self) -> &'static str {
        match self {
            AppId::MiniBude => "minibude",
            AppId::CloverLeaf2D => "cloverleaf2d",
            AppId::CloverLeaf3D => "cloverleaf3d",
            AppId::Acoustic => "acoustic",
            AppId::OpenSbliSa => "opensbli-sa",
            AppId::OpenSbliSn => "opensbli-sn",
            AppId::MgCfd => "mgcfd",
            AppId::Volna => "volna",
            AppId::MiniWeather => "miniweather",
        }
    }

    /// Inverse of [`AppId::slug`].
    pub fn from_slug(s: &str) -> Option<AppId> {
        AppId::ALL.into_iter().find(|a| a.slug() == s)
    }
}

impl BenchSpec {
    /// A CI-sized spec for `app` (each app's own `Config::default` scale).
    pub fn small(app: AppId) -> BenchSpec {
        let (n, iterations) = match app {
            AppId::MiniBude => (128, 2),
            AppId::CloverLeaf2D => (48, 20),
            AppId::CloverLeaf3D => (16, 10),
            AppId::Acoustic => (32, 10),
            AppId::OpenSbliSa | AppId::OpenSbliSn => (24, 5),
            AppId::MgCfd => (33, 5),
            AppId::Volna => (32, 50),
            AppId::MiniWeather => (64, 5),
        };
        BenchSpec {
            app,
            n,
            iterations,
            ranks: 1,
            parallel: false,
        }
    }

    /// Stable, order-fixed rendering — the cache-key material. Every field
    /// appears; two specs render equal iff they are equal.
    pub fn canonical(&self) -> String {
        format!(
            "app={} n={} iters={} ranks={} par={}",
            self.app.slug(),
            self.n,
            self.iterations,
            self.ranks,
            self.parallel
        )
    }

    /// One-line human description of the concrete config the spec maps to.
    pub fn config_summary(&self) -> String {
        match self.app {
            AppId::MiniBude => format!("{} poses x {} iters", self.n, self.iterations),
            AppId::CloverLeaf2D => format!("{0}x{0} x {1} iters", self.n, self.iterations),
            AppId::MiniWeather => format!("{}x{} cells", self.n, self.n / 2),
            AppId::MgCfd => format!("{0}x{0} fine grid, {1} V-cycles", self.n, self.iterations),
            AppId::Volna => format!("{0}x{0} cells x {1} iters", self.n, self.iterations),
            _ => format!("{0}^3 x {1} iters", self.n, self.iterations),
        }
    }

    /// An upper estimate of the bytes a run of this spec allocates: its
    /// points (`n`, `n²` or `n³`) times a per-point budget that covers
    /// every field, halos, schedules and set-up's temporaries. Measured
    /// peaks sit below it: CloverLeaf 2D at 2880² holds 133 B a cell,
    /// MG-CFD at 2049² (four levels) 227 B a fine node. In `f64`, so no `n`
    /// overflows it.
    pub(crate) fn dataset_bytes(&self) -> f64 {
        let n = self.n as f64;
        let (points, bytes_per_point) = match self.app {
            AppId::MiniBude => (n, 64.0),
            AppId::CloverLeaf2D => (n * n, 320.0),
            AppId::CloverLeaf3D => (n * n * n, 320.0),
            AppId::Acoustic => (n * n * n, 64.0),
            AppId::OpenSbliSa | AppId::OpenSbliSn => (n * n * n, 512.0),
            AppId::MgCfd => (n * n, 512.0),
            AppId::Volna => (n * n, 256.0),
            AppId::MiniWeather => (n * (n / 2.0).max(8.0), 256.0),
        };
        points * bytes_per_point
    }

    /// Refuses the spec if its [`dataset_bytes`](Self::dataset_bytes)
    /// exceed `limit` bytes.
    pub(crate) fn check_size(&self, limit: f64) -> Result<(), DatasetTooLarge> {
        let bytes = self.dataset_bytes();
        if bytes > limit {
            return Err(DatasetTooLarge {
                app: self.app,
                n: self.n,
                bytes,
                limit,
            });
        }
        Ok(())
    }

    /// Checks the spec is runnable; `Err` carries a client-facing message.
    /// A dataset larger than the host's physical memory is refused.
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 || self.iterations == 0 {
            return Err("n and iterations must be positive".into());
        }
        if self.ranks == 0 {
            return Err("ranks must be positive".into());
        }
        if self.ranks > 1 {
            if !RANKED_APPS.contains(&self.app) {
                return Err(format!(
                    "app '{}' has no distributed driver (ranked apps: {})",
                    self.app.slug(),
                    RANKED_APPS.map(|a| a.slug()).join(", ")
                ));
            }
            if !self.n.is_multiple_of(self.ranks) {
                return Err(format!(
                    "n={} must divide evenly over ranks={}",
                    self.n, self.ranks
                ));
            }
        }
        self.check_size(host_memory_bytes())
            .map_err(|e| e.to_string())
    }

    /// In-process run (`ranks` must be 1 — ranked runs go through a
    /// universe and [`BenchSpec::run_ranked`]).
    pub fn run(&self) -> Result<BenchOutcome, String> {
        self.run_with_plan(None)
    }

    /// Like [`BenchSpec::run`] but threading a certified `dslcheck`
    /// optimization plan into the config of the plan-consuming apps
    /// ([`PLAN_APPS`]); `Err` for plan-oblivious apps when a plan is given.
    pub fn run_with_plan(&self, plan: Option<OptPlan>) -> Result<BenchOutcome, String> {
        self.validate()?;
        if self.ranks != 1 {
            return Err("BenchSpec::run is in-process; use run_ranked under a universe".into());
        }
        if plan.is_some() && !PLAN_APPS.contains(&self.app) {
            return Err(format!(
                "app '{}' does not consume optimization plans (plan apps: {})",
                self.app.slug(),
                PLAN_APPS.map(|a| a.slug()).join(", ")
            ));
        }
        let run = self.run_app(plan);
        Ok(BenchOutcome {
            app: run.app,
            validation: run.validation,
            points: run.points,
            iterations: run.iterations,
            ranks: 1,
            seconds: run.profile.total_seconds(),
            bytes: run.profile.total_bytes() as u64,
            gbs: run.effective_gbs(),
        })
    }

    fn mode(&self) -> ExecMode {
        if self.parallel {
            ExecMode::Rayon
        } else {
            ExecMode::Serial
        }
    }

    fn mode_u(&self) -> ExecModeU {
        if self.parallel {
            ExecModeU::Colored
        } else {
            ExecModeU::Serial
        }
    }

    fn run_app(&self, plan: Option<OptPlan>) -> AppRun {
        match self.app {
            AppId::MiniBude => minibude::MiniBude::run(minibude::Config {
                n_poses: self.n,
                iterations: self.iterations,
                parallel: self.parallel,
                ..minibude::Config::default()
            }),
            AppId::CloverLeaf2D => cloverleaf2d::Clover2::run(cloverleaf2d::Config {
                nx: self.n,
                ny: self.n,
                iterations: self.iterations,
                mode: self.mode(),
                plan,
                ..cloverleaf2d::Config::default()
            }),
            AppId::CloverLeaf3D => cloverleaf3d::Clover3::run(cloverleaf3d::Config {
                n: self.n,
                iterations: self.iterations,
                mode: self.mode(),
                ..cloverleaf3d::Config::default()
            }),
            AppId::Acoustic => acoustic::Acoustic::run(acoustic::Config {
                n: self.n,
                iterations: self.iterations,
                mode: self.mode(),
                ..acoustic::Config::default()
            }),
            AppId::OpenSbliSa | AppId::OpenSbliSn => opensbli::OpenSbli::run(opensbli::Config {
                n: self.n,
                iterations: self.iterations,
                variant: if self.app == AppId::OpenSbliSa {
                    opensbli::Variant::StoreAll
                } else {
                    opensbli::Variant::StoreNone
                },
                mode: self.mode(),
                plan,
                ..opensbli::Config::default()
            }),
            AppId::MgCfd => mgcfd::MgCfd::run(mgcfd::Config {
                n: self.n,
                cycles: self.iterations,
                mode: self.mode_u(),
                ..mgcfd::Config::default()
            }),
            AppId::Volna => volna::Volna::run(volna::Config {
                n: self.n,
                iterations: self.iterations,
                mode: self.mode_u(),
                ..volna::Config::default()
            }),
            AppId::MiniWeather => miniweather::MiniWeather::run(miniweather::Config {
                nx: self.n,
                nz: (self.n / 2).max(8),
                mode: self.mode(),
                ..miniweather::Config::default()
            }),
        }
    }

    /// The per-rank body of a distributed run: call from inside a universe
    /// closure (`Universe::run*`). Only valid for [`RANKED_APPS`] specs
    /// that pass [`BenchSpec::validate`] with `ranks == comm.size()`.
    pub fn run_ranked(&self, comm: &mut Comm) -> RankOutcome {
        let (profile, gathered) = match self.app {
            AppId::Acoustic => acoustic::Acoustic::run_distributed(
                comm,
                acoustic::Config {
                    n: self.n,
                    iterations: self.iterations,
                    mode: self.mode(),
                    ..acoustic::Config::default()
                },
            ),
            AppId::CloverLeaf2D => cloverleaf2d::Clover2::run_distributed(
                comm,
                cloverleaf2d::Config {
                    nx: self.n,
                    ny: self.n,
                    iterations: self.iterations,
                    mode: self.mode(),
                    ..cloverleaf2d::Config::default()
                },
            ),
            AppId::MiniWeather => miniweather::MiniWeather::run_distributed(
                comm,
                miniweather::Config {
                    nx: self.n,
                    nz: (self.n / 2).max(8),
                    mode: self.mode(),
                    ..miniweather::Config::default()
                },
                self.iterations,
            ),
            other => panic!("app '{}' has no distributed driver", other.slug()),
        };
        RankOutcome {
            seconds: profile.total_seconds(),
            bytes: profile.total_bytes() as u64,
            // Mean of the gathered global field: a scale-free validation
            // quantity that is identical for any rank count by construction.
            validation: gathered.map(|f| {
                if f.is_empty() {
                    0.0
                } else {
                    f.iter().sum::<f64>() / f.len() as f64
                }
            }),
        }
    }

    /// Folds per-rank outcomes (in rank order) into one [`BenchOutcome`].
    pub fn merge_ranked(&self, ranks: &[RankOutcome]) -> BenchOutcome {
        assert!(!ranks.is_empty(), "merge_ranked needs at least one rank");
        let seconds = ranks.iter().map(|r| r.seconds).fold(0.0, f64::max);
        let bytes: u64 = ranks.iter().map(|r| r.bytes).sum();
        let validation = ranks
            .iter()
            .find_map(|r| r.validation)
            .expect("rank 0 carries the gathered validation field");
        let points = match self.app {
            AppId::CloverLeaf2D => self.n * self.n,
            AppId::MiniWeather => self.n * (self.n / 2).max(8),
            _ => self.n.pow(3),
        };
        BenchOutcome {
            app: self.app,
            validation,
            points,
            iterations: self.iterations,
            ranks: ranks.len(),
            seconds,
            bytes,
            gbs: if seconds > 0.0 {
                bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_shmpi::Universe;

    #[test]
    fn slugs_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for app in AppId::ALL {
            assert!(seen.insert(app.slug()), "duplicate slug {}", app.slug());
            assert_eq!(AppId::from_slug(app.slug()), Some(app));
        }
        assert_eq!(AppId::from_slug("no-such-app"), None);
    }

    #[test]
    fn canonical_is_injective_over_field_changes() {
        let base = BenchSpec::small(AppId::Acoustic);
        let variants = [
            BenchSpec {
                app: AppId::CloverLeaf3D,
                ..base.clone()
            },
            BenchSpec {
                n: base.n + 1,
                ..base.clone()
            },
            BenchSpec {
                iterations: base.iterations + 1,
                ..base.clone()
            },
            BenchSpec {
                ranks: 2,
                ..base.clone()
            },
            BenchSpec {
                parallel: true,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(v.canonical(), base.canonical(), "{v:?}");
        }
    }

    #[test]
    fn validate_rejects_unrunnable_specs() {
        let mut s = BenchSpec::small(AppId::Volna);
        s.ranks = 2;
        assert!(s.validate().unwrap_err().contains("no distributed driver"));
        let mut s = BenchSpec::small(AppId::Acoustic);
        s.n = 33;
        s.ranks = 2;
        assert!(s.validate().unwrap_err().contains("divide evenly"));
        s.n = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_refuses_datasets_larger_than_the_host() {
        // Refused from the spec alone: nothing here allocates a dataset.
        let huge = BenchSpec {
            n: 100_000,
            ..BenchSpec::small(AppId::CloverLeaf2D)
        };
        assert!(huge.dataset_bytes() > 1e12);
        assert!(huge
            .validate()
            .unwrap_err()
            .contains("more than the host's"));
        let limit = 16.0 * (1u64 << 30) as f64;
        for app in AppId::ALL {
            // The largest n a job can carry: no overflow, a typed refusal.
            let spec = BenchSpec {
                n: 1 << 53,
                ..BenchSpec::small(app)
            };
            let err = spec.check_size(limit).unwrap_err();
            assert_eq!((err.app, err.n, err.limit), (app, 1 << 53, limit));
            assert!(err.bytes.is_finite() && err.bytes > limit, "{err}");
            assert!(spec.validate().is_err());
            // Every CI-sized spec, and the sizes the benchmark's serve
            // catalog and the memory-sized runs use, fit in 16 GiB.
            BenchSpec::small(app).check_size(limit).unwrap();
            let largest = match app {
                AppId::MiniBude => 10_000,
                AppId::CloverLeaf2D | AppId::MgCfd | AppId::Volna | AppId::MiniWeather => 2880,
                _ => 128,
            };
            let spec = BenchSpec {
                n: largest,
                ..BenchSpec::small(app)
            };
            spec.check_size(limit).unwrap();
        }
    }

    #[test]
    fn only_apps_that_apply_a_plan_accept_one() {
        let with_plan = |app| {
            BenchSpec {
                n: 8,
                iterations: 1,
                ..BenchSpec::small(app)
            }
            .run_with_plan(Some(OptPlan::default()))
        };
        for app in [AppId::CloverLeaf2D, AppId::OpenSbliSa] {
            with_plan(app).unwrap_or_else(|e| panic!("{app:?}: {e}"));
        }
        for app in [AppId::OpenSbliSn, AppId::Acoustic] {
            let err = with_plan(app).unwrap_err();
            assert!(err.contains("does not consume"), "{app:?}: {err}");
        }
    }

    #[test]
    fn every_app_runs_in_process_at_tiny_scale() {
        for app in AppId::ALL {
            let mut spec = BenchSpec::small(app);
            // Shrink below CI defaults so the full sweep stays fast.
            spec.n = match app {
                AppId::MiniBude => 16,
                AppId::CloverLeaf2D | AppId::MiniWeather => 16,
                AppId::MgCfd => 17,
                AppId::Volna => 12,
                _ => 12,
            };
            spec.iterations = 2;
            let out = spec.run().unwrap_or_else(|e| panic!("{app:?}: {e}"));
            assert_eq!(out.app, app);
            assert!(out.points > 0 && out.bytes > 0, "{app:?}: {out:?}");
            assert!(out.validation.is_finite(), "{app:?}");
        }
    }

    #[test]
    fn ranked_acoustic_matches_serial_validation() {
        let spec = BenchSpec {
            app: AppId::Acoustic,
            n: 16,
            iterations: 3,
            ranks: 2,
            parallel: false,
        };
        spec.validate().unwrap();
        let sp = spec.clone();
        let out = Universe::run(2, move |c| sp.run_ranked(c));
        let merged = spec.merge_ranked(&out.results);
        assert_eq!(merged.ranks, 2);
        assert_eq!(merged.points, 16usize.pow(3));
        // Same physics in process: the serial run's gathered-field mean is
        // its validation? Not directly comparable (apps define their own
        // quantity), but the distributed mean must be finite and nonzero.
        assert!(merged.validation.is_finite());
        assert!(merged.bytes > 0 && merged.seconds > 0.0);
    }

    #[test]
    fn ranked_miniweather_runs_under_a_universe() {
        let spec = BenchSpec {
            app: AppId::MiniWeather,
            n: 16,
            iterations: 2,
            ranks: 2,
            parallel: false,
        };
        spec.validate().unwrap();
        let sp = spec.clone();
        let out = Universe::run(2, move |c| sp.run_ranked(c));
        let merged = spec.merge_ranked(&out.results);
        assert_eq!(merged.ranks, 2);
        assert!(merged.validation.is_finite());
    }
}
