//! `dslcheck` CLI: run every registered app and chain under the access/race
//! analyzers and emit a machine-readable violation report.
//!
//! Exit status is 0 only when every app is clean — CI gates on this. The
//! default mode is also the declaration gate: each declared app's recorded
//! run must equal the stream its chain instantiates.
//!
//! ```text
//! cargo run --release -p bwb-bench --bin analyze              # human + JSON
//! cargo run --release -p bwb-bench --bin analyze -- --json      # JSON only
//! cargo run --release -p bwb-bench --bin analyze -- --dataflow  # whole-chain
//! cargo run --release -p bwb-bench --bin analyze -- --comm      # commcheck
//! cargo run --release -p bwb-bench --bin analyze -- --static    # speccheck
//! cargo run --release -p bwb-bench --bin analyze -- --placement # placecheck
//! cargo run --release -p bwb-bench --bin analyze -- --export-plans plans/
//! cargo run --release -p bwb-bench --bin analyze -- --placement --export-placements placements/
//! ```
//!
//! `--dataflow` switches to the whole-chain dataflow report: per-app lint
//! table (dead stores, redundant/too-shallow exchanges), the fusion plan,
//! and the derived traffic summary with streaming-store eligibility.
//!
//! `--comm` switches to commcheck: record every registered distributed app
//! at 4 ranks under a Xeon MAX placement and verify the cross-rank
//! communication schedule — envelope matching, deadlock freedom, and
//! per-phase load balance.

use bwb_core::trace::json::{obj, Json};
use bwb_dslcheck::Violation;
use std::process::ExitCode;

/// A report's violations, indented under its table row.
fn print_violations<'a>(violations: impl IntoIterator<Item = &'a Violation>) {
    for v in violations {
        eprintln!("    {v}");
    }
}

/// Write `(file name, document)` pairs under `dir`, created on demand,
/// one line each.
fn export(dir: &str, json_only: bool, files: impl Iterator<Item = (String, Json)>) {
    std::fs::create_dir_all(dir).expect("create export dir");
    for (name, doc) in files {
        let path = std::path::Path::new(dir).join(name);
        std::fs::write(&path, doc.to_string() + "\n").expect("write export");
        if !json_only {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// The one-line stdout document every mode ends with: the gating total,
/// the per-app objects, and any mode-specific trailing fields. Returns
/// `total` (the exit status is 0 iff it is).
fn report(total: usize, apps: impl Iterator<Item = Json>, extra: Vec<(&str, Json)>) -> usize {
    let mut fields = vec![("total_violations", total.into()), ("apps", apps.collect())];
    fields.extend(extra);
    println!("{}", obj(fields));
    total
}

fn access_report(json_only: bool) -> usize {
    let reports = bwb_dslcheck::check_all();

    if !json_only {
        for r in &reports {
            let status = if r.clean() { "ok" } else { "FAIL" };
            eprintln!(
                "{:<16} {:>3} loop invocations checked ... {status}",
                r.app, r.loops_checked
            );
            print_violations(&r.violations);
        }
    }

    // Per-app summaries plus the flat violation list.
    let apps = reports.iter().map(|r| {
        obj([
            ("app", r.app.as_str().into()),
            ("loops_checked", r.loops_checked.into()),
            ("violations", r.violations.len().into()),
        ])
    });
    let violations: Vec<Json> = reports
        .iter()
        .flat_map(|r| &r.violations)
        .map(Violation::to_json)
        .collect();
    report(
        violations.len(),
        apps,
        vec![("violations", Json::Arr(violations))],
    )
}

fn dataflow_report(json_only: bool, export_dir: Option<&str>) -> usize {
    let reports = bwb_dslcheck::dataflow_all();

    if !json_only {
        eprintln!(
            "{:<16} {:>5} {:>4} {:>5} {:>4} {:>3} {:>6} {:>8} {:>6}  status",
            "app", "loops", "exch", "fuse", "grps", "nt", "elid%", "gain", "lints"
        );
        for r in &reports {
            if !r.analyzed {
                let why = r.limitation.map(|l| l.label()).unwrap_or("limited");
                eprintln!(
                    "{:<16} {:>5}     -     -    -   -      -        -      -  limited ({why})",
                    r.app, r.loops,
                );
                continue;
            }
            let status = if r.clean() { "ok" } else { "FAIL" };
            eprintln!(
                "{:<16} {:>5} {:>4} {:>5} {:>4} {:>3} {:>5.1}% {:>8.4} {:>6}  {status}",
                r.app,
                r.loops,
                r.exchanges,
                r.fusion.legal_pairs(),
                r.groups.len(),
                r.nt.len(),
                100.0 * r.traffic.elidable_fraction(),
                r.traffic.streaming_gain_bound(),
                r.violations.len(),
            );
            print_violations(&r.violations);
        }
    }

    if let Some(dir) = export_dir {
        let plans = reports.iter().filter(|r| r.analyzed);
        export(
            dir,
            json_only,
            plans.map(|r| (format!("{}.json", r.app), r.export_plan().to_json())),
        );
    }

    let total = reports.iter().map(|r| r.violations.len()).sum();
    report(total, reports.iter().map(|r| r.to_json()), vec![])
}

/// `--static`: execution-free certification. Derives every app's
/// optimization certificates purely from its declared chain; underspecified
/// chains and parametric instabilities count toward the gating total. The
/// table shows per-app analyzer wall times: the static path never executes
/// a kernel. Whether the declarations match the programs they declare is
/// the default mode's gate (`check_all`), which compares each declared
/// app's recorded run with its chain.
fn static_report(json_only: bool, export_dir: Option<&str>) -> usize {
    let statics = bwb_dslcheck::static_all();

    if !json_only {
        eprintln!(
            "{:<16} {:>5} {:>4} {:>4} {:>3} {:>9} {:>6}  status",
            "app", "loops", "exch", "grps", "nt", "static", "viol"
        );
        for s in &statics {
            let r = &s.report;
            if !r.analyzed && r.violations.is_empty() {
                let why = r.limitation.map(|l| l.label()).unwrap_or("limited");
                eprintln!(
                    "{:<16}     -    -    -   -         -      -  limited ({why})",
                    r.app
                );
                continue;
            }
            let status = if r.clean() { "ok" } else { "FAIL" };
            eprintln!(
                "{:<16} {:>5} {:>4} {:>4} {:>3} {:>7}us {:>6}  {status}",
                r.app,
                r.loops,
                r.exchanges,
                r.groups.len(),
                r.nt.len(),
                s.nanos / 1_000,
                r.violations.len(),
            );
            print_violations(&r.violations);
        }
    }

    if let Some(dir) = export_dir {
        // What `static_plan` hands an executor: only clean, analyzed chains.
        let plans = statics.iter().filter(|s| s.report.analyzed && s.clean());
        export(
            dir,
            json_only,
            plans.map(|s| {
                let plan = s.report.export_plan().to_json();
                (format!("{}.static.json", s.report.app), plan)
            }),
        );
    }

    let total = statics.iter().map(|s| s.report.violations.len()).sum();
    let apps = statics.iter().map(|s| {
        obj([
            ("static_ns", Json::Num(s.nanos as f64)),
            ("report", s.report.to_json()),
        ])
    });
    report(total, apps, vec![])
}

fn parametric_report(json_only: bool) -> usize {
    let reports = bwb_dslcheck::parametric_check_all();

    if !json_only {
        eprintln!(
            "{:<16} {:>9} {:>5} {:>6} {:>6} {:>7} {:>6} {:>11} {:>8}  status",
            "app", "family", "base", "phases", "match", "dlfree", "collfr", "crosschecks", "ms"
        );
        for r in &reports {
            let status = if r.clean() { "ok" } else { "FAIL" };
            if let Some(c) = &r.cert {
                let passed = c
                    .crosschecks
                    .iter()
                    .filter(|x| x.concrete_clean && x.template_match)
                    .count();
                eprintln!(
                    "{:<16} {:>9} {:>5} {:>6} {:>6} {:>7} {:>6} {:>8}/{:<2} {:>8.0}  {status}",
                    r.app,
                    c.family,
                    c.base_ranks,
                    c.phases,
                    c.matching_complete,
                    c.deadlock_free,
                    c.collision_free_to,
                    passed,
                    c.crosschecks.len(),
                    c.verify_ms,
                );
            } else {
                eprintln!("{:<16} (template lift failed)  {status}", r.app);
            }
            print_violations(&r.violations);
        }
    }

    let total = reports
        .iter()
        .map(|r| r.violations.len() + usize::from(!r.clean() && r.violations.is_empty()))
        .sum();
    report(total, reports.iter().map(|r| r.to_json()), vec![])
}

fn comm_report(json_only: bool) -> usize {
    let reports = bwb_dslcheck::comm_check_all();

    if !json_only {
        eprintln!(
            "{:<16} {:>5} {:>5} {:>5} {:>4} {:>4} {:>6}  status",
            "app", "sends", "recvs", "barr", "coll", "phs", "dlfree"
        );
        for r in &reports {
            let status = if r.clean() { "ok" } else { "FAIL" };
            eprintln!(
                "{:<16} {:>5} {:>5} {:>5} {:>4} {:>4} {:>6}  {status}",
                r.app,
                r.sends,
                r.recvs,
                r.barriers,
                r.collectives,
                r.phases.len(),
                r.deadlock_free,
            );
            print_violations(&r.violations);
        }
    }

    let total = reports.iter().map(|r| r.violations.len()).sum();
    report(total, reports.iter().map(|r| r.to_json()), vec![])
}

/// `--placement`: placecheck. Statically derive every distributed
/// registry app's per-pair byte flows, search the placement-candidate
/// space (policies × NUMA-domain permutations) under the Xeon MAX latency
/// model at N in {4, 16, 64, 112}, self-verify each emitted plan's
/// dominance and link-flow claims, and crosscheck the flow models
/// byte-exactly against recorded runs at N in {4, 16}. With
/// `--export-placements <dir>` every certified plan is written to
/// `<dir>/<app>.n<ranks>.json` for `Universe::run_placed` / serve.
fn placement_report(json_only: bool, export_dir: Option<&str>) -> usize {
    let reports = bwb_dslcheck::placement_check_all();

    if !json_only {
        eprintln!(
            "{:<16} {:>6} {:>5} {:>22} {:>12} {:>12} {:>7} {:>6}  status",
            "app", "ranks", "space", "best", "best_ns", "baseline_ns", "gain%", "viol"
        );
        for r in &reports {
            let status = if r.clean() { "ok" } else { "FAIL" };
            for p in &r.plans {
                let gain = if p.baseline_cost_ns > 0.0 {
                    100.0 * (1.0 - p.best_cost_ns / p.baseline_cost_ns)
                } else {
                    0.0
                };
                eprintln!(
                    "{:<16} {:>6} {:>5} {:>22} {:>12.0} {:>12.0} {:>6.1}% {:>6}  {status}",
                    r.app,
                    p.ranks,
                    p.space.len(),
                    p.best,
                    p.best_cost_ns,
                    p.baseline_cost_ns,
                    gain,
                    r.violations.len(),
                );
            }
            print_violations(&r.violations);
        }
    }

    if let Some(dir) = export_dir {
        let plans = reports.iter().flat_map(|r| &r.plans);
        export(
            dir,
            json_only,
            plans.map(|p| (format!("{}.n{}.json", p.app, p.ranks), p.to_json())),
        );
    }

    let total = reports.iter().map(|r| r.violations.len()).sum();
    report(total, reports.iter().map(|r| r.to_json()), vec![])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let json_only = args.iter().any(|a| a == "--json");
    let comm = args.iter().any(|a| a == "--comm");
    // `--parametric` (with `--comm`) additionally lifts each registered
    // app's schedule to a rank-parametric template, verifies it for every
    // world size in its topology family, and cross-checks the certificate
    // against live replays at N in {4, 16, 64, 112}. Output is JSONL: one
    // JSON object for the concrete report, one for the parametric certs.
    let parametric = args.iter().any(|a| a == "--parametric");
    // `--export-plans <dir>` serializes each analyzed app's optimization
    // plan (loop IR + fusion/NT certificates) to `<dir>/<app>.json`
    // for plan-guided executor runs; it implies `--dataflow`.
    let export_dir = args.iter().position(|a| a == "--export-plans").map(|i| {
        args.get(i + 1)
            .expect("--export-plans needs a directory")
            .clone()
    });
    // `--static` switches to execution-free certification: derive every
    // app's certificates from its declared chain alone and gate on
    // underspecified or unstable chains. With `--export-plans <dir>` it
    // writes `<dir>/<app>.static.json` plans.
    let static_mode = args.iter().any(|a| a == "--static");
    // `--placement` switches to placecheck: static NUMA-placement
    // certification of the distributed registry apps (search + dominance
    // self-verification + byte-exact crosscheck against recorded runs).
    // `--export-placements <dir>` writes each certified plan JSON.
    let placement = args.iter().any(|a| a == "--placement");
    let export_placements = args
        .iter()
        .position(|a| a == "--export-placements")
        .map(|i| {
            args.get(i + 1)
                .expect("--export-placements needs a directory")
                .clone()
        });
    let dataflow = (args.iter().any(|a| a == "--dataflow") || export_dir.is_some())
        && !static_mode
        && !placement;

    let total = if placement || export_placements.is_some() {
        placement_report(json_only, export_placements.as_deref())
    } else if comm || parametric {
        let mut total = if comm { comm_report(json_only) } else { 0 };
        if parametric {
            total += parametric_report(json_only);
        }
        total
    } else if static_mode {
        static_report(json_only, export_dir.as_deref())
    } else if dataflow {
        dataflow_report(json_only, export_dir.as_deref())
    } else {
        access_report(json_only)
    };

    if total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
