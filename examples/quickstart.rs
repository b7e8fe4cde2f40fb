//! Quickstart: run the BabelStream benchmark on the host, model Figure 1
//! across the paper's platforms, and print one full figure reproduction.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bwb_core::stream::{BabelStream, Par};
use bwb_core::{Experiment, Figure};

fn main() {
    // 1. Real measurement on this host: the five BabelStream kernels.
    println!("## BabelStream on this host (32M elements, best of 5)\n");
    let mut s = BabelStream::new(1 << 25, Par::Rayon);
    for r in s.run(5) {
        println!(
            "  {:8}  {:8.1} GB/s   ({:.2} ms)",
            r.kernel.name(),
            r.bandwidth_gbs,
            r.seconds * 1e3
        );
    }
    let err = s.validate(5);
    println!("  validation error: {err:.2e}\n");

    // 2. Modelled reproduction of the paper's Figure 1.
    println!("{}", Experiment::new(Figure::Fig1Stream).render());

    // 3. Where to go next.
    println!("\nAll nine figures are available; e.g.:");
    for f in Figure::ALL {
        println!("  {:?}: {}", f, f.title());
    }
    println!("\nRun `cargo run --release -p bwb-bench --bin figures N` to print each one.");
}
