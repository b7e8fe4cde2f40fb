//! Hydro shock demo: run the CloverLeaf 2D implementation on a quadrant
//! shock problem, distributed over 4 in-process MPI ranks, and report the
//! per-kernel profile and communication statistics — the raw material of
//! the paper's Figures 7 and 8.
//!
//! ```sh
//! cargo run --release --example hydro_shock
//! ```

use bwb_core::apps::cloverleaf2d::{Advection, Clover2, Config};
use bwb_core::ops::ExecMode;
use bwb_core::shmpi::Universe;

fn main() {
    let cfg = Config {
        nx: 192,
        ny: 192,
        iterations: 40,
        cfl: 0.5,
        mode: ExecMode::Serial,
        advection: Advection::VanLeer,
        plan: None,
    };

    // Single-rank reference.
    println!(
        "## CloverLeaf 2D: {}x{} cells, {} cycles",
        cfg.nx, cfg.ny, cfg.iterations
    );
    let run = Clover2::run(cfg.clone());
    println!("mass conservation error: {:.2e}", run.validation);
    println!("\nper-kernel profile (host execution):");
    println!(
        "  {:16} {:>8} {:>12} {:>10} {:>10}",
        "kernel", "calls", "points", "GB moved", "GB/s"
    );
    for r in run.profile.records() {
        println!(
            "  {:16} {:>8} {:>12} {:>10.3} {:>10.1}",
            r.name,
            r.calls,
            r.points,
            r.bytes as f64 / 1e9,
            r.effective_gbs()
        );
    }
    println!(
        "\nwhole-app effective bandwidth: {:.1} GB/s, arithmetic intensity {:.2} flop/byte",
        run.profile.effective_gbs(),
        run.profile.intensity()
    );

    // Distributed run over 4 ranks: same physics, plus MPI statistics.
    println!("\n## distributed over 4 ranks");
    let cfg2 = cfg.clone();
    let out = Universe::run(4, move |c| {
        let (profile, _gathered) = Clover2::run_distributed(c, cfg2.clone());
        (c.stats(), profile.total_seconds())
    });
    for (rank, (stats, compute)) in out.results.iter().enumerate() {
        println!(
            "  rank {rank}: {} msgs, {:.2} MB sent, wait {:.2} ms ({} of {} receives parked), compute {:.2} ms",
            stats.sends,
            stats.bytes_sent as f64 / 1e6,
            stats.wait_seconds * 1e3,
            stats.recvs_parked,
            stats.recvs,
            compute * 1e3
        );
    }
    println!(
        "  MPI fraction of runtime: {:.1}%  (the Figure 7 metric)",
        out.mpi_fraction() * 100.0
    );
}
