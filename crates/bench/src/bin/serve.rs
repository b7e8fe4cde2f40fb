//! `serve` CLI: run the benchmark-serving front end.
//!
//! ```text
//! cargo run --release -p bwb-bench --bin serve                  # ephemeral port
//! cargo run --release -p bwb-bench --bin serve -- --port 8077
//! cargo run --release -p bwb-bench --bin serve -- --shards 4 --policy packed
//! ```
//!
//! The server announces its address on stdout (`listening on <addr>`),
//! serves jobs until SIGINT (or `POST /shutdown`), then drains in-flight
//! work and prints the final cache/flight statistics. See
//! `bwb_core::serve` for the job API.

use bwb_core::machine::ShardPolicy;
use bwb_core::serve::server::{Server, ServerConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--port N] [--shards N] [--policy numa|packed] \
         [--max-concurrent N] [--max-queue N]"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    fn num(it: &mut std::slice::Iter<'_, String>) -> usize {
        match it.next().and_then(|v| v.parse().ok()) {
            Some(n) => n,
            None => usage(),
        }
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--port" => cfg.addr = format!("127.0.0.1:{}", num(&mut it)),
            "--shards" => cfg.shards = num(&mut it),
            "--max-concurrent" => cfg.max_concurrent = num(&mut it),
            "--max-queue" => cfg.max_queue = num(&mut it),
            "--policy" => {
                cfg.policy = match it.next().map(String::as_str) {
                    Some("numa") => ShardPolicy::OnePerNuma,
                    Some("packed") => ShardPolicy::Packed,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }

    bwb_bench::sigint::install();

    let server = match Server::bind(cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    eprintln!(
        "shards={} policy={} max_concurrent={} max_queue={} (SIGINT drains)",
        cfg.shards,
        cfg.policy.label(),
        cfg.max_concurrent,
        cfg.max_queue
    );

    let state = server.state();
    let watcher_state = server.state();
    std::thread::spawn(move || loop {
        if bwb_bench::sigint::stopped() {
            watcher_state.begin_shutdown();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    });

    server.run();
    eprintln!("drained after {} jobs", state.jobs_submitted());
    ExitCode::SUCCESS
}
