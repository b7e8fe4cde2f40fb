//! # bwb-bench — the benchmark harness
//!
//! Two kinds of targets:
//!
//! * **Criterion benches** (`cargo bench`) measure the *real* kernels on
//!   the host: BabelStream, message-passing latency, one representative
//!   kernel per application, and the tiled vs untiled loop chain. These are
//!   the honest, runnable counterparts of the paper's measurements.
//! * **The figure binary** (`cargo run -p bwb-bench --bin figures [N]`)
//!   prints each paper figure's reproduction — host measurements where the hardware
//!   allows, model outputs for the cross-platform comparisons — and write
//!   the data as CSV under `target/figures/`.

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
