//! Reproduce the paper's figures (see the module docs of bwb-perfmodel and
//! EXPERIMENTS.md for the paper-vs-model comparison).
//!
//! `figures` prints all nine in sequence (the EXPERIMENTS.md source);
//! `figures N` prints Figure N alone. Figure 2 alone also runs a live
//! thread-to-thread latency probe on this host (the runnable analogue of
//! the core-to-core-latency tool the paper uses).

use bwb_core::Figure;
use std::process::ExitCode;

fn main() -> ExitCode {
    eprintln!("{}", bwb_core::machine::codegen());
    let Some(arg) = std::env::args().nth(1) else {
        for f in Figure::ALL {
            bwb_bench::emit(f);
            println!("\n{}\n", "#".repeat(78));
        }
        return ExitCode::SUCCESS;
    };
    let figure = arg
        .parse::<usize>()
        .ok()
        .and_then(|n| Figure::ALL.get(n.checked_sub(1)?));
    let Some(&figure) = figure else {
        eprintln!("usage: figures [1..=9]");
        return ExitCode::FAILURE;
    };
    bwb_bench::emit(figure);
    if figure == Figure::Fig2Latency {
        println!("\nhost probe (thread ping-pong, scheduler-placed):");
        let p = bwb_core::machine::measure_thread_latency(200_000);
        println!(
            "  one-way latency ~ {:.0} ns over {} round trips",
            p.one_way_ns, p.round_trips
        );
    }
    ExitCode::SUCCESS
}
