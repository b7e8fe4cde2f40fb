//! # bwb-bench — the command-line front ends
//!
//! The binaries under `src/bin/`: `figures` prints each paper figure's
//! reproduction (`cargo run -p bwb-bench --bin figures [N]`) — host
//! measurements where the hardware allows, model outputs for the
//! cross-platform comparisons — and writes the data as CSV under
//! `target/figures/`; `analyze`, `trace`, `ablation` and `serve` drive
//! the analyzers, the tracer and the job server. Timing of the engine's
//! layers and of serving (`serve_mix`) is the separate `perf/`
//! benchmark's job.

use std::path::PathBuf;

/// Directory the figure binary writes its CSVs to.
pub fn figures_dir() -> PathBuf {
    PathBuf::from("target/figures")
}

/// One figure's standard flow: render + save CSV.
pub fn emit(figure: bwb_core::Figure) {
    let exp = bwb_core::Experiment::new(figure);
    println!("{}", exp.render());
    match exp.save_csv(&figures_dir()) {
        Ok(path) => println!("\n[data written to {}]", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}
