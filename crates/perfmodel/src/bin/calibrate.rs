//! Calibration aid: print per-app predicted component breakdowns on each
//! platform at the paper's problem scale.

use bwb_apps::characterize::characterize;
use bwb_apps::AppId;
use bwb_machine::platforms;
use bwb_perfmodel::{paper_scale, predict_paper, RunConfig};

fn main() {
    let plats = platforms::all_platforms();
    for app in AppId::ALL {
        let ch = characterize(app);
        let (points, iterations) = paper_scale(app);
        println!(
            "== {} pts={points} iters={iterations} B/pt={:.0} F/pt={:.0} int={:.2} k/it={:.1}",
            app.label(),
            ch.bytes_per_point_iter,
            ch.flops_per_point_iter,
            ch.intensity(),
            ch.kernels_per_iter
        );
        for p in &plats {
            if let Some(pr) = predict_paper(p, &ch, RunConfig::recommended()) {
                println!(
                    "  {:16} T={:8.3}s bw={:8.3} fl={:8.3} lat={:8.3} c$={:7.3} mpi={:8.3} ln={:7.3} effBW={:6.0} ({:4.2} of stream) mpi%={:4.1} gf={:6.0}",
                    p.kind.label(),
                    pr.seconds,
                    pr.t_bandwidth,
                    pr.t_compute,
                    pr.t_latency,
                    pr.t_cache,
                    pr.t_mpi,
                    pr.t_launch,
                    pr.effective_gbs,
                    pr.effective_gbs / p.measured_triad_gbs,
                    pr.mpi_fraction * 100.0,
                    pr.achieved_gflops,
                );
            }
        }
    }
}
