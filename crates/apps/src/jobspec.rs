//! # Job specs — a uniform front door onto every application
//!
//! The serving layer (`bwb-serve`) accepts benchmark requests as small
//! JSON documents naming an app, a grid size, an iteration count, and a
//! rank count. A [`BenchSpec`] is that request in normalized form; every
//! per-app fact it needs (CI size, grid, dataset budget, summary, drivers)
//! is its app's row of the [app table](crate::table), so this module holds
//! no per-app code. A spec runs, and its [`AppRun`](crate::AppRun) folds
//! into a flat, JSON-friendly [`BenchOutcome`].
//!
//! Two execution paths exist:
//!
//! * [`BenchSpec::run`] — in-process, `ranks == 1`, any app.
//! * [`BenchSpec::run_ranked`] — the body to run inside each rank of a
//!   `shmpi` universe for the apps whose row has a ranked driver
//!   (CloverLeaf 2D, Acoustic, miniWeather). The caller owns universe
//!   construction (the serve shard pool pins universes to carved core
//!   sets); per-rank [`RankOutcome`]s are merged with
//!   [`BenchSpec::merge_ranked`].
//!
//! [`BenchSpec::canonical`] renders the spec as a stable, order-fixed
//! string — the cache-key material for the content-addressed result cache.

use crate::table::slugs_where;
use crate::AppId;
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
    /// Set on rank 0 only: the validation quantity over the gathered
    /// global field, and that field's length (the run's points).
    pub gathered: Option<(f64, usize)>,
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

impl BenchSpec {
    /// A CI-sized spec for `app`.
    pub fn small(app: AppId) -> BenchSpec {
        let (n, iterations) = app.desc().small;
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
        let d = self.app.desc();
        let [_, nz, _] = (d.extents)(self.n);
        d.summary
            .replace("{n}", &self.n.to_string())
            .replace("{nz}", &nz.to_string())
            .replace("{it}", &self.iterations.to_string())
    }

    /// An upper estimate of the bytes a run of this spec allocates: its
    /// points times a per-point budget that covers every field, halos,
    /// schedules and set-up's temporaries. Measured peaks sit below it:
    /// CloverLeaf 2D at 2880² holds 133 B a cell, MG-CFD at 2049² (four
    /// levels) 227 B a fine node. In `f64`, so no `n` overflows it.
    pub(crate) fn dataset_bytes(&self) -> f64 {
        let d = self.app.desc();
        let points: f64 = (d.extents)(self.n).iter().map(|&e| e as f64).product();
        points * d.bytes_per_point
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
            if self.app.desc().ranked.is_none() {
                return Err(format!(
                    "app '{}' has no distributed driver (ranked apps: {})",
                    self.app.slug(),
                    slugs_where(|d| d.ranked.is_some())
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
    /// optimization plan into the config of the apps whose row `takes_plan`;
    /// `Err` for plan-oblivious apps when a plan is given.
    pub fn run_with_plan(&self, plan: Option<OptPlan>) -> Result<BenchOutcome, String> {
        self.validate()?;
        if self.ranks != 1 {
            return Err("BenchSpec::run is in-process; use run_ranked under a universe".into());
        }
        if plan.is_some() && !self.app.desc().takes_plan {
            return Err(format!(
                "app '{}' does not consume optimization plans (plan apps: {})",
                self.app.slug(),
                slugs_where(|d| d.takes_plan)
            ));
        }
        let run = (self.app.desc().run)(self, plan);
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

    pub(crate) fn mode(&self) -> ExecMode {
        if self.parallel {
            ExecMode::Rayon
        } else {
            ExecMode::Serial
        }
    }

    pub(crate) fn mode_u(&self) -> ExecModeU {
        if self.parallel {
            ExecModeU::Colored
        } else {
            ExecModeU::Serial
        }
    }

    /// The per-rank body of a distributed run: call from inside a universe
    /// closure (`Universe::run*`). Only valid for specs of an app with a
    /// ranked driver that pass [`BenchSpec::validate`] with
    /// `ranks == comm.size()`.
    pub fn run_ranked(&self, comm: &mut Comm) -> RankOutcome {
        let Some(ranked) = self.app.desc().ranked else {
            panic!("app '{}' has no distributed driver", self.app.slug());
        };
        let (profile, gathered) = ranked(self, comm);
        RankOutcome {
            seconds: profile.total_seconds(),
            bytes: profile.total_bytes() as u64,
            // Mean of the gathered global field: a scale-free validation
            // quantity that is identical for any rank count by construction.
            gathered: gathered.map(|f| (f.iter().sum::<f64>() / f.len().max(1) as f64, f.len())),
        }
    }

    /// Folds per-rank outcomes (in rank order) into one [`BenchOutcome`].
    pub fn merge_ranked(&self, ranks: &[RankOutcome]) -> BenchOutcome {
        assert!(!ranks.is_empty(), "merge_ranked needs at least one rank");
        let seconds = ranks.iter().map(|r| r.seconds).fold(0.0, f64::max);
        let bytes: u64 = ranks.iter().map(|r| r.bytes).sum();
        let (validation, points) = ranks
            .iter()
            .find_map(|r| r.gathered)
            .expect("rank 0 carries the gathered field");
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
        // Apps define their own validation quantity, so the serial and
        // distributed figures are not directly comparable; the distributed
        // one must be finite.
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

    /// A ranked run's validation and points are the same bits at 1, 2
    /// and 4 ranks, for every app with a ranked driver.
    #[test]
    fn ranked_runs_are_bit_equal_at_1_2_and_4_ranks() {
        for app in AppId::ALL.into_iter().filter(|a| a.desc().ranked.is_some()) {
            let runs = [1, 2, 4].map(|ranks| {
                let spec = BenchSpec {
                    app,
                    n: 16,
                    iterations: 3,
                    ranks,
                    parallel: false,
                };
                spec.validate().unwrap();
                let sp = spec.clone();
                let out = Universe::run(ranks, move |c| sp.run_ranked(c));
                let merged = spec.merge_ranked(&out.results);
                assert_eq!(merged.ranks, ranks);
                assert!(merged.validation.is_finite(), "{app:?}");
                assert!(merged.bytes > 0 && merged.seconds > 0.0, "{app:?}");
                (merged.validation.to_bits(), merged.points)
            });
            assert!(runs.iter().all(|r| *r == runs[0]), "{app:?}: {runs:?}");
            if app == AppId::Acoustic {
                assert_eq!(runs[0].1, 16usize.pow(3));
            }
        }
    }
}
