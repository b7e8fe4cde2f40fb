//! Plan-guided optimizing executor driver: record each supported app,
//! derive its certificate plan from the `dslcheck` dataflow analysis,
//! rerun with the plan applied, and report three things side by side:
//!
//! 1. **bit-identity** — the optimized run's checksum/field bits must equal
//!    the baseline's exactly (the whole point of certified transforms);
//! 2. **measured traffic** — baseline vs plan-guided moved bytes from the
//!    cache-simulator replay of the recording ([`bwb_dslcheck::replay`]),
//!    i.e. an actually-simulated number, not a model output;
//! 3. **modelled bound** — the `TrafficModel` streaming-gain prediction,
//!    printed next to the measurement so EXPERIMENTS.md can compare them.
//!
//! ```text
//! cargo run --release -p bwb-bench --bin optexec                # full sizes
//! cargo run --release -p bwb-bench --bin optexec -- --quick     # CI sizes
//! ```
//!
//! Exit status is 0 only when every app is bit-identical under its plan and
//! no plan-guided replay moves more bytes than its baseline — CI gates on
//! this (the `opt-exec` job).

use std::process::ExitCode;
use std::time::Instant;

use bwb_core::apps::{acoustic, cloverleaf2d, opensbli};
use bwb_core::ops::access::with_recording_full;
use bwb_core::ops::{ExecMode, OptPlan, Profile};
use bwb_core::shmpi::Universe;
use bwb_dslcheck::{replay, DataflowReport, ReplayConfig, ReplayStats};

/// One app's baseline-vs-optimized comparison.
struct AppResult {
    name: &'static str,
    /// `"k=v k=v"` config summary for the report.
    config: String,
    bit_identical: bool,
    /// Median wall time per rep, milliseconds.
    base_ms: f64,
    opt_ms: f64,
    /// Cache-simulator replay of the recorded segment.
    base_replay: ReplayStats,
    opt_replay: ReplayStats,
    /// Modelled NT-store gain bound from `TrafficModel` (×, ≥ 1).
    modelled_gain: f64,
    /// Certificates the derived plan carries.
    fusion_groups: usize,
    elisions: usize,
    nt: usize,
    /// Cross-rank bytes actually sent (distributed apps only).
    comm_bytes: Option<(u64, u64)>,
}

impl AppResult {
    fn traffic_reduction_pct(&self) -> f64 {
        let b = self.base_replay.moved_bytes as f64;
        if b == 0.0 {
            return 0.0;
        }
        100.0 * (b - self.opt_replay.moved_bytes as f64) / b
    }

    fn ok(&self) -> bool {
        self.bit_identical && self.opt_replay.moved_bytes <= self.base_replay.moved_bytes
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Time `reps` calls of `f`, returning the median milliseconds.
fn time_reps<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

/// OpenSBLI Store-All: the 10-loop derivative+combine RHS fuses under the
/// certified plan; bit-compare the all-field checksum.
fn run_opensbli(reps: usize, quick: bool) -> AppResult {
    let (n, iters) = if quick { (12, 2) } else { (28, 4) };
    let cfg = opensbli::Config {
        n,
        iterations: iters,
        variant: opensbli::Variant::StoreAll,
        mode: ExecMode::Serial,
        ..opensbli::Config::default()
    };

    let rcfg = cfg.clone();
    let ((), rec) = with_recording_full(move || {
        let mut sim = opensbli::OpenSbli::new(rcfg);
        let mut p = Profile::new();
        sim.step(&mut p);
    });
    let report = DataflowReport::analyze(
        "opensbli_sa",
        &opensbli::chain_spec(true).loop_specs(),
        &rec,
    );
    let plan = report.export_plan();

    let checksum = |plan: Option<OptPlan>| -> u64 {
        let mut sim = opensbli::OpenSbli::new(opensbli::Config {
            plan,
            ..cfg.clone()
        });
        let mut p = Profile::new();
        for _ in 0..iters {
            sim.step(&mut p);
        }
        sim.checksum().to_bits()
    };
    let base_bits = checksum(None);
    let opt_bits = checksum(Some(plan.clone()));

    let base_ms = time_reps(reps, || {
        checksum(None);
    });
    let opt_ms = time_reps(reps, || {
        checksum(Some(plan.clone()));
    });

    let rcfg = ReplayConfig::default();
    AppResult {
        name: "opensbli_sa",
        config: format!("n={n} iters={iters}"),
        bit_identical: base_bits == opt_bits,
        base_ms,
        opt_ms,
        base_replay: replay(&rec, None, &rcfg),
        opt_replay: replay(&rec, Some(&plan), &rcfg),
        modelled_gain: report.traffic.streaming_gain_bound(),
        fusion_groups: plan.groups.len(),
        elisions: plan.elisions.len(),
        nt: plan.nt.len(),
        comm_bytes: None,
    }
}

/// Single-rank CloverLeaf2D: `ideal_gas`+`viscosity` fuse; bit-compare the
/// full density field.
fn run_clover_single(reps: usize, quick: bool) -> AppResult {
    let (nx, iters) = if quick { (24, 2) } else { (192, 4) };
    let cfg = cloverleaf2d::Config {
        nx,
        ny: nx,
        iterations: iters,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };

    let rcfg = cfg.clone();
    let ((), rec) = with_recording_full(move || {
        let mut sim = cloverleaf2d::Clover2::new(rcfg);
        let mut p = Profile::new();
        for _ in 0..2 {
            sim.cycle(&mut p, None);
        }
        sim.field_summary(&mut p);
    });
    let report = DataflowReport::analyze(
        "cloverleaf2d",
        &cloverleaf2d::chain_spec(false).loop_specs(),
        &rec,
    );
    let plan = report.export_plan();

    let density_bits = |plan: Option<OptPlan>| -> Vec<u64> {
        let mut sim = cloverleaf2d::Clover2::new(cloverleaf2d::Config {
            plan,
            ..cfg.clone()
        });
        let mut p = Profile::new();
        for _ in 0..iters {
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
    let base_bits = density_bits(None);
    let opt_bits = density_bits(Some(plan.clone()));

    let base_ms = time_reps(reps, || {
        density_bits(None);
    });
    let opt_ms = time_reps(reps, || {
        density_bits(Some(plan.clone()));
    });

    let rcfg = ReplayConfig::default();
    AppResult {
        name: "cloverleaf2d",
        config: format!("nx={nx} iters={iters}"),
        bit_identical: base_bits == opt_bits,
        base_ms,
        opt_ms,
        base_replay: replay(&rec, None, &rcfg),
        opt_replay: replay(&rec, Some(&plan), &rcfg),
        modelled_gain: report.traffic.streaming_gain_bound(),
        fusion_groups: plan.groups.len(),
        elisions: plan.elisions.len(),
        nt: plan.nt.len(),
        comm_bytes: None,
    }
}

/// 4-rank distributed CloverLeaf2D: fusion plus elision of the certified
/// velocity-exchange sites; bit-compare the gathered global density and
/// report the cross-rank byte reduction from the elided exchanges.
fn run_clover_dist(reps: usize, quick: bool) -> AppResult {
    let (nx, iters) = if quick { (24, 2) } else { (96, 4) };
    let cfg = cloverleaf2d::Config {
        nx,
        ny: nx,
        iterations: iters,
        mode: ExecMode::Serial,
        advection: cloverleaf2d::Advection::VanLeer,
        ..cloverleaf2d::Config::default()
    };

    let rec_cfg = cfg.clone();
    let out = Universe::run(4, move |c| {
        let (_r, rec) =
            with_recording_full(|| cloverleaf2d::Clover2::run_distributed(c, rec_cfg.clone()));
        rec
    });
    let rec = out.results.into_iter().next().expect("rank 0 recording");
    let report = DataflowReport::analyze(
        "clover2d_dist",
        &cloverleaf2d::chain_spec(true).loop_specs(),
        &rec,
    );
    let plan = report.export_plan();

    let gathered = |plan: Option<OptPlan>| -> (Vec<u64>, u64) {
        let cfg = cloverleaf2d::Config {
            plan,
            ..cfg.clone()
        };
        let out = Universe::run(4, move |c| {
            let (_p, g) = cloverleaf2d::Clover2::run_distributed(c, cfg.clone());
            g
        });
        let field = out.results[0]
            .as_ref()
            .expect("gathered density on rank 0")
            .iter()
            .map(|v| v.to_bits())
            .collect();
        (field, out.stats.total_bytes())
    };
    let (base_bits, base_comm) = gathered(None);
    let (opt_bits, opt_comm) = gathered(Some(plan.clone()));

    let base_ms = time_reps(reps, || {
        gathered(None);
    });
    let opt_ms = time_reps(reps, || {
        gathered(Some(plan.clone()));
    });

    let rcfg = ReplayConfig::default();
    AppResult {
        name: "clover2d_dist",
        config: format!("nx={nx} iters={iters} ranks=4"),
        bit_identical: base_bits == opt_bits,
        base_ms,
        opt_ms,
        base_replay: replay(&rec, None, &rcfg),
        opt_replay: replay(&rec, Some(&plan), &rcfg),
        modelled_gain: report.traffic.streaming_gain_bound(),
        fusion_groups: plan.groups.len(),
        elisions: plan.elisions.len(),
        nt: plan.nt.len(),
        comm_bytes: Some((base_comm, opt_comm)),
    }
}

/// Acoustic leapfrog: the rotating output buffers are reuse-eligible for
/// streaming stores, but at n=64 f32 the streamed rows are 256 bytes —
/// under the written-run floor where per-row staging overhead dominates —
/// so the plan carries no NT certs and the optimized run keeps the plain
/// store path; bit-compare the final field energy.
fn run_acoustic(reps: usize, quick: bool) -> AppResult {
    let (n, iters) = if quick { (16, 3) } else { (64, 6) };
    let cfg = acoustic::Config {
        n,
        iterations: iters,
        mode: ExecMode::Serial,
        ..acoustic::Config::default()
    };

    let rcfg = cfg.clone();
    let ((), rec) = with_recording_full(move || {
        let mut sim = acoustic::Acoustic::new(rcfg);
        let mut p = Profile::new();
        for _ in 0..3 {
            sim.step_once(&mut p);
        }
        sim.energy(&mut p);
    });
    let report =
        DataflowReport::analyze("acoustic", &acoustic::chain_spec(false).loop_specs(), &rec);
    let plan = report.export_plan();

    let energy_bits = |plan: Option<OptPlan>| -> u64 {
        let mut sim = acoustic::Acoustic::new(acoustic::Config {
            plan,
            ..cfg.clone()
        });
        let mut p = Profile::new();
        for _ in 0..iters {
            sim.step_once(&mut p);
        }
        sim.energy(&mut p).to_bits()
    };
    let base_bits = energy_bits(None);
    let opt_bits = energy_bits(Some(plan.clone()));

    let base_ms = time_reps(reps, || {
        energy_bits(None);
    });
    let opt_ms = time_reps(reps, || {
        energy_bits(Some(plan.clone()));
    });

    let rcfg = ReplayConfig::default();
    AppResult {
        name: "acoustic",
        config: format!("n={n} iters={iters}"),
        bit_identical: base_bits == opt_bits,
        base_ms,
        opt_ms,
        base_replay: replay(&rec, None, &rcfg),
        opt_replay: replay(&rec, Some(&plan), &rcfg),
        modelled_gain: report.traffic.streaming_gain_bound(),
        fusion_groups: plan.groups.len(),
        elisions: plan.elisions.len(),
        nt: plan.nt.len(),
        comm_bytes: None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };

    let results = vec![
        run_opensbli(reps, quick),
        run_clover_single(reps, quick),
        run_clover_dist(reps, quick),
        run_acoustic(reps, quick),
    ];

    println!(
        "{:<14} {:<22} {:>4} {:>9} {:>8} {:>12} {:>12} {:>7} {:>8} {:>14}  certs",
        "app",
        "config",
        "bits",
        "base ms",
        "opt ms",
        "base bytes",
        "opt bytes",
        "Δ%",
        "modelled",
        "comm B base→opt"
    );
    for r in &results {
        let comm = r
            .comm_bytes
            .map(|(b, o)| format!("{b}→{o}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<14} {:<22} {:>4} {:>9.2} {:>8.2} {:>12} {:>12} {:>6.1}% {:>7.3}x {:>14}  f={} e={} nt={}",
            r.name,
            r.config,
            if r.bit_identical { "ok" } else { "DIFF" },
            r.base_ms,
            r.opt_ms,
            r.base_replay.moved_bytes,
            r.opt_replay.moved_bytes,
            r.traffic_reduction_pct(),
            r.modelled_gain,
            comm,
            r.fusion_groups,
            r.elisions,
            r.nt,
        );
    }

    if results.iter().all(|r| r.ok()) {
        ExitCode::SUCCESS
    } else {
        for r in results.iter().filter(|r| !r.ok()) {
            eprintln!(
                "FAIL {}: bit_identical={} base_bytes={} opt_bytes={}",
                r.name, r.bit_identical, r.base_replay.moved_bytes, r.opt_replay.moved_bytes
            );
        }
        ExitCode::FAILURE
    }
}
