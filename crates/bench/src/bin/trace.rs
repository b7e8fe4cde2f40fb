//! `trace` CLI: run one application under the bwb-trace recorder, write a
//! Perfetto-loadable Chrome `trace_event` JSON to `target/trace/<app>.json`,
//! and print an ASCII summary (rollup table, flamegraph, per-thread
//! timeline) to stdout.
//!
//! ```text
//! cargo run --release -p bwb-bench --bin trace -- cloverleaf2d
//! cargo run --release -p bwb-bench --bin trace -- cloverleaf2d --ranks 4
//! cargo run --release -p bwb-bench --bin trace -- --list
//! ```
//!
//! Exit status is nonzero if the recorded trace fails well-formedness
//! validation or the exported JSON fails the trace_event schema check —
//! CI runs this as the trace smoke test.

use bwb_core::apps::{
    acoustic, cloverleaf2d, cloverleaf3d, mgcfd, minibude, miniweather, opensbli, volna,
};
use bwb_core::machine::{platforms, Roofline};
use bwb_core::shmpi::Universe;
use bwb_core::trace;
use std::process::ExitCode;

const APPS: &[&str] = &[
    "acoustic",
    "cloverleaf2d",
    "cloverleaf3d",
    "mgcfd",
    "minibude",
    "miniweather",
    "opensbli-sa",
    "opensbli-sn",
    "volna",
];

/// Run one app (CI-sized default config) with tracing enabled. `ranks > 1`
/// selects the distributed driver where the app has one.
fn run_traced(app: &str, ranks: usize) -> Result<trace::Trace, String> {
    let ((), tr) = trace::with_tracing(|| match app {
        "acoustic" => {
            let cfg = acoustic::Config::default();
            if ranks > 1 {
                let _ = Universe::run(ranks, move |c| {
                    acoustic::Acoustic::run_distributed(c, cfg.clone()).1
                });
            } else {
                let _ = acoustic::Acoustic::run(cfg);
            }
        }
        "cloverleaf2d" => {
            let cfg = cloverleaf2d::Config::default();
            if ranks > 1 {
                let _ = Universe::run(ranks, move |c| {
                    cloverleaf2d::Clover2::run_distributed(c, cfg.clone()).1
                });
            } else {
                let _ = cloverleaf2d::Clover2::run(cfg);
            }
        }
        "cloverleaf3d" => {
            let _ = cloverleaf3d::Clover3::run(cloverleaf3d::Config::default());
        }
        "mgcfd" => {
            let _ = mgcfd::MgCfd::run(mgcfd::Config::default());
        }
        "minibude" => {
            let _ = minibude::MiniBude::run(minibude::Config::default());
        }
        "miniweather" => {
            let _ = miniweather::MiniWeather::run(miniweather::Config::default());
        }
        "opensbli-sa" => {
            let _ = opensbli::OpenSbli::run(opensbli::Config {
                variant: opensbli::Variant::StoreAll,
                ..opensbli::Config::default()
            });
        }
        "opensbli-sn" => {
            let _ = opensbli::OpenSbli::run(opensbli::Config {
                variant: opensbli::Variant::StoreNone,
                ..opensbli::Config::default()
            });
        }
        "volna" => {
            let _ = volna::Volna::run(volna::Config::default());
        }
        other => panic!("unknown app '{other}' (use --list)"),
    });
    Ok(tr)
}

fn main() -> ExitCode {
    eprintln!("{}", bwb_core::machine::codegen());
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for a in APPS {
            println!("{a}");
        }
        return ExitCode::SUCCESS;
    }
    let app = match args.iter().find(|a| !a.starts_with("--")) {
        Some(a) if APPS.contains(&a.as_str()) => a.clone(),
        Some(a) => {
            eprintln!("unknown app '{a}'; use --list");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("usage: trace <app> [--ranks N] [--out DIR] | --list");
            return ExitCode::FAILURE;
        }
    };
    let ranks = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/trace"));

    let tr = match run_traced(&app, ranks) {
        Ok(tr) => tr,
        Err(e) => {
            eprintln!("trace run failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Gate on well-formedness before exporting anything.
    let problems = trace::validate(&tr);
    if !problems.is_empty() {
        eprintln!("malformed trace ({} problems):", problems.len());
        for p in &problems {
            eprintln!("  {p}");
        }
        return ExitCode::FAILURE;
    }

    // Export Chrome trace_event JSON with roofline annotations for the
    // paper's flagship platform, then re-parse as a schema self-check.
    let roof = Roofline::fp64(&platforms::xeon_max_9480());
    let json = trace::to_chrome_json(
        &tr,
        &trace::ChromeOptions {
            roofline: Some(roof),
        },
    );
    match trace::json::parse(&json) {
        Ok(doc) => {
            let schema = trace::json::validate_chrome(&doc);
            if !schema.is_empty() {
                eprintln!("exported JSON fails trace_event schema: {schema:?}");
                return ExitCode::FAILURE;
            }
        }
        Err(e) => {
            eprintln!("exported JSON unparseable: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let path = out_dir.join(format!("{app}.json"));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    // ASCII summary.
    println!(
        "trace of {app} ({} threads, {} events, {} dropped)",
        tr.threads.len(),
        tr.total_events(),
        tr.total_dropped()
    );
    println!();
    println!(
        "{}",
        trace::Rollup::from_trace(&tr).render_table(Some(&roof))
    );
    println!("{}", trace::flamegraph(&tr, 24));
    println!("{}", trace::timeline(&tr, 72));
    println!(
        "[trace written to {}; open in https://ui.perfetto.dev]",
        path.display()
    );
    ExitCode::SUCCESS
}
