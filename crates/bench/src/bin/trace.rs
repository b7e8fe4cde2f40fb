//! `trace` CLI: run one application's CI-sized job spec
//! (`BenchSpec::small`, on `--ranks` ranks) under the bwb-trace recorder, write a
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
//! Exit status is nonzero if the spec is refused (`BenchSpec::validate`:
//! say, ranks for an app without a distributed driver), the recorded trace
//! fails well-formedness validation, or the exported JSON fails the
//! trace_event schema check — CI runs this as the trace smoke test.

use bwb_core::apps::jobspec::BenchSpec;
use bwb_core::apps::AppId;
use bwb_core::machine::{platforms, Roofline};
use bwb_core::shmpi::Universe;
use bwb_core::trace;
use std::process::ExitCode;

/// Run `app`'s CI-sized spec on `ranks` ranks with tracing enabled: in
/// process at one rank, on the app's ranked driver above it.
fn run_traced(app: AppId, ranks: usize) -> Result<trace::Trace, String> {
    let spec = BenchSpec {
        ranks,
        ..BenchSpec::small(app)
    };
    spec.validate()?;
    let (run, tr) = trace::with_tracing(|| {
        if ranks > 1 {
            Universe::run(ranks, |c| spec.run_ranked(c));
            Ok(())
        } else {
            spec.run().map(drop)
        }
    });
    run.map(|()| tr)
}

fn main() -> ExitCode {
    eprintln!("{}", bwb_core::machine::codegen());
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for a in AppId::ALL {
            println!("{}", a.slug());
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: trace <app> [--ranks N] [--out DIR] | --list");
        return ExitCode::FAILURE;
    };
    let Some(app) = AppId::from_slug(name) else {
        eprintln!("unknown app '{name}'; use --list");
        return ExitCode::FAILURE;
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

    let tr = match run_traced(app, ranks) {
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
    let path = out_dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    // ASCII summary.
    println!(
        "trace of {name} ({} threads, {} events, {} dropped)",
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
