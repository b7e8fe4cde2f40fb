//! Ablation studies over the design choices DESIGN.md calls out: vary one
//! architectural parameter at a time and watch the figure-level outputs
//! move. This demonstrates that the reproductions derive from mechanisms,
//! not fitted outputs.
//!
//! ```sh
//! cargo run --release -p bwb-bench --bin ablation
//! ```

use bwb_core::apps::characterize::characterize;
use bwb_core::apps::AppId;
use bwb_core::machine::platforms;
use bwb_core::perfmodel::{
    best_config, paper_scale, predict_paper, Parallelization, RunConfig, Zmm,
};
use bwb_core::report::Table;

fn best_seconds(p: &bwb_core::machine::Platform, app: AppId) -> f64 {
    best_config(p, &characterize(app)).0
}

/// Ablation 1: sweep the Xeon MAX's achievable bandwidth from DDR-class to
/// HBM-class and beyond — where does each app stop benefiting?
fn ablate_bandwidth() {
    println!("## Ablation 1: Xeon MAX bandwidth sweep (everything else fixed)\n");
    let apps = [
        AppId::CloverLeaf2D,
        AppId::OpenSbliSn,
        AppId::MgCfd,
        AppId::MiniBude,
    ];
    let mut header = vec!["triad GB/s".to_owned()];
    header.extend(apps.iter().map(|a| a.label().to_owned()));
    let hrefs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hrefs);
    let baseline: Vec<f64> = {
        let mut p = platforms::xeon_max_9480();
        p.measured_triad_gbs = 300.0;
        p.measured_triad_ss_gbs = None;
        apps.iter().map(|&a| best_seconds(&p, a)).collect()
    };
    for bw in [300.0, 600.0, 1000.0, 1446.0, 2000.0, 2600.0] {
        let mut p = platforms::xeon_max_9480();
        p.measured_triad_gbs = bw;
        p.measured_triad_ss_gbs = None;
        let mut cells = vec![format!("{bw:.0}")];
        for (i, &a) in apps.iter().enumerate() {
            let s = baseline[i] / best_seconds(&p, a);
            cells.push(format!("{s:.2}x"));
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    println!("reading: bandwidth-bound apps scale almost linearly until the latency/compute");
    println!("terms bind; miniBUDE never moves — the paper's flop/byte-shift argument.\n");
}

/// Ablation 2: sweep memory latency — who is latency-sensitive?
fn ablate_latency() {
    println!("## Ablation 2: memory-latency sweep on the Xeon MAX\n");
    let apps = [
        AppId::CloverLeaf2D,
        AppId::Acoustic,
        AppId::MgCfd,
        AppId::Volna,
    ];
    let mut header = vec!["latency ns".to_owned()];
    header.extend(apps.iter().map(|a| a.label().to_owned()));
    let hrefs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hrefs);
    let base: Vec<f64> = apps
        .iter()
        .map(|&a| best_seconds(&platforms::xeon_max_9480(), a))
        .collect();
    for lat in [65.0, 130.0, 260.0, 520.0] {
        let mut p = platforms::xeon_max_9480();
        p.memory.latency_ns = lat;
        let mut cells = vec![format!("{lat:.0}")];
        for (i, &a) in apps.iter().enumerate() {
            cells.push(format!("{:.2}x", best_seconds(&p, a) / base[i]));
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    println!("reading: two mechanisms respond — the unstructured apps' irregular-miss stalls,");
    println!("and (above ~2x) the Little's-law concurrency bound that throttles even streaming");
    println!("bandwidth, the McCalpin effect behind the MAX's 55-63% STREAM efficiency\n");
}

/// Ablation 3: sweep the SYCL-like per-kernel launch overhead — the §5.1
/// CloverLeaf observation as a dose-response curve.
fn ablate_launch_overhead() {
    println!("## Ablation 3: per-kernel launch overhead vs SYCL penalty\n");
    let mut t = Table::new(&[
        "launch µs",
        "CloverLeaf 2D SYCL/OpenMP",
        "OpenSBLI SN SYCL/OpenMP",
    ]);
    for us in [0.0, 5.0, 14.0, 30.0, 60.0] {
        let mut p = platforms::xeon_max_9480();
        p.kernel_launch_overhead_us = us;
        let rel = |app: AppId| {
            let ch = characterize(app);
            let tfor = |par: Parallelization| {
                predict_paper(&p, &ch, RunConfig::oneapi(par, Zmm::High, false))
                    .unwrap()
                    .seconds
            };
            tfor(Parallelization::MpiSyclFlat) / tfor(Parallelization::MpiOpenMp)
        };
        t.row(&[
            format!("{us:.0}"),
            format!("{:.3}", rel(AppId::CloverLeaf2D)),
            format!("{:.3}", rel(AppId::OpenSbliSn)),
        ]);
    }
    println!("{}", t.render());
    println!("reading: CloverLeaf's many small boundary kernels pay the launch tax fastest\n");
}

/// Ablation 4: tiling reuse factor (Figure 9's lever).
fn ablate_tiling_reuse() {
    println!("## Ablation 4: what chain-reuse factor would the paper's tiling gains imply?\n");
    let ch = characterize(AppId::CloverLeaf2D);
    let (points, iterations) = paper_scale(AppId::CloverLeaf2D);
    let mut t = Table::new(&["reuse", "MAX gain", "8360Y gain", "EPYC gain"]);
    for reuse in [2.0, 4.0, 8.0, 16.0] {
        let mut cells = vec![format!("{reuse:.0}")];
        for p in platforms::all_cpus() {
            let ht = p.topology.smt_per_core > 1;
            let cfg = RunConfig::oneapi(Parallelization::Mpi, Zmm::High, ht);
            let pr = predict_paper(&p, &ch, cfg).unwrap();
            let bytes = points as f64 * ch.bytes_per_point_iter * iterations as f64;
            let t_dram = pr.t_bandwidth / reuse;
            let t_llc = bytes * 0.75 / (p.llc_stream_bw_gbs() * 1e9);
            let tiled = t_dram.max(pr.t_compute * 1.15)
                + t_llc
                + pr.t_cache
                + pr.t_latency
                + pr.t_mpi
                + pr.t_launch;
            cells.push(format!("{:.2}x", pr.seconds / tiled));
        }
        t.row(&cells);
    }
    println!("{}", t.render());
    println!("reading: gains saturate at the cache:memory bandwidth ratio (3.8/6.3/14)\n");
}

fn main() {
    ablate_bandwidth();
    ablate_latency();
    ablate_launch_overhead();
    ablate_tiling_reuse();
}
