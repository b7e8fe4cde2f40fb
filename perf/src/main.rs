//! `bwb-perf` — the repository's benchmark.
//!
//! ```text
//! bwb-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! bwb-perf                       # every workload, one child process each
//! bwb-perf --aa                  # same-binary A/A comparison, writes perf/AA.json
//! ```
//!
//! One invocation runs one workload, checks what it computed, prints every
//! metric by name with its unit, and ends with one JSON line. `--trace 0`
//! (the default) gives the end-to-end metrics, `--trace 1` the per-layer
//! ones. See `perf/README.md`.

mod aa;
mod catalog;
mod host;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use bwb_trace::json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;
use workloads::{Run, Sizes};

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub aa: bool,
}

const USAGE: &str = "usage: bwb-perf [--workload <name>] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] | --aa";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload '{w}' (known: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Commit the working tree sits on, read from `.git` without running git;
/// `unknown` outside a repository (the driver's checkout is not one).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.len() >= 7 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha.to_string()
    } else {
        "unknown".into()
    }
}

/// A fixed op count scaled by `--seconds`; a traced run does a quarter.
fn scaled(base: usize, args: &Args) -> usize {
    let scale = args.seconds / RUN_SECONDS * if args.trace { 0.25 } else { 1.0 };
    ((base as f64 * scale).round() as usize).max(1)
}

fn run_workload(name: &str, sz: &Sizes, args: &Args, spans: Option<&spans::Spans>) -> Run {
    match name {
        "clover_mem" => workloads::clover_mem(sz, false, scaled(sz.clover_ops, args), spans),
        "clover_mem_plan" => workloads::clover_mem(sz, true, scaled(sz.clover_ops, args), spans),
        "clover_dist_cache" => workloads::clover_dist(sz, scaled(sz.dist_ops, args), spans),
        "mgcfd_mem" => workloads::mgcfd_mem(sz, args.seed, scaled(sz.mgcfd_ops, args), spans),
        "serve_mix" => workloads::serve_mix(sz, args.seed, scaled(sz.serve_requests, args), spans),
        other => unreachable!("parse_args admitted workload '{other}'"),
    }
}

fn end_to_end(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&run.setup_s));
    m.set("solve_s", run.solve_s);
    m.set("op_ms_p50", stats::median(&run.op_ms));
    m.set("peak_rss_mb", host::peak_rss_mb());
    m
}

/// Print the metrics by name and, last, the one JSON line the driver reads.
/// Returns whether the run is correct.
fn report(run: &Run, values: &[(&'static str, &'static str, f64)], extra_checks_ok: bool) -> bool {
    let attempted = run.op_ms.len() as u64;
    let finite = values.iter().all(|(_, _, v)| v.is_finite());
    let correct = run.failed == 0 && run.side_checks_ok && extra_checks_ok && finite;
    for note in &run.notes {
        println!("check: {note}");
    }
    println!("ops_attempted={attempted} ops_failed={}", run.failed);
    for (name, unit, v) in values {
        println!("{name} = {v} {unit}");
    }
    let fields = values
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            let cell = vec![
                ("value".to_string(), Json::Num(v)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ];
            (name.to_string(), Json::Obj(cell))
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(run.failed as f64)),
        ("metrics".to_string(), Json::Obj(fields)),
    ]);
    println!("{line}");
    correct
}

fn run_one(name: &str, args: &Args) -> bool {
    let host = host::Host::detect();
    let mut sz = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    if args.trace {
        // A traced run prints no `setup_s`; one kept repetition is enough
        // for its span, and the seconds go to the probes.
        sz.setup_reps = 2;
        sz.mgcfd_setup_reps = 2;
    }
    println!(
        "bwb-perf workload={name} seed={} seconds={} scale={} trace={} quick={} claim=null",
        args.seed,
        args.seconds,
        args.seconds / RUN_SECONDS,
        u8::from(args.trace),
        args.quick
    );
    println!("{} git_sha={}", host.fingerprint(), git_sha());

    if !args.trace {
        let run = run_workload(name, &sz, args, None);
        println!(
            "samples: ops={} setup_reps_kept={}",
            run.op_ms.len(),
            run.setup_s.len()
        );
        let q = |p| stats::percentile(&run.op_ms, p);
        println!(
            "op_ms: min={} p10={} p25={} p50={} p75={} p90={} max={}",
            q(0.0),
            q(10.0),
            q(25.0),
            q(50.0),
            q(75.0),
            q(90.0),
            q(100.0)
        );
        // One measurement as `solve_s`, in the units the paper and a
        // server's operator read; the traced run has them as per-layer
        // metrics (`apps.eff_gbs`, `serve.req_per_s`, `serve.req_ms_p99`).
        match run.ops_profile.or(run.op2_profile) {
            Some(p) => println!(
                "also: eff_gbs={} (computed loop bytes / solve_s)",
                p.bytes / run.solve_s / 1e9
            ),
            None => println!(
                "also: req_per_s={} req_ms_p99={}",
                run.op_ms.len() as f64 / run.solve_s,
                q(99.0)
            ),
        }
        return report(&run, &end_to_end(&run).in_order(&END_TO_END), true);
    }

    let recorder = spans::Spans::new(name);
    let calib_before = host::calib_spin_s();
    let run = run_workload(name, &sz, args, Some(&recorder));
    let calib_after = host::calib_spin_s();
    let mut m = Metrics::default();
    m.set("host.nproc", host.nproc as f64);
    m.set("host.llc_bytes", host.llc_bytes as f64);
    m.set("host.calib_drift_frac", calib_after / calib_before - 1.0);
    let ws_over_llc = if host.llc_bytes == 0 {
        0.0
    } else {
        run.resident_mb * (1u64 << 20) as f64 / host.llc_bytes as f64
    };
    m.set("host.ws_over_llc", ws_over_llc);
    let mem_class = name.contains("_mem");
    if mem_class && !args.quick && ws_over_llc < 4.0 {
        println!(
            "warning: working set is {ws_over_llc:.2} x LLC ({:.0} MB resident, LLC {} B); \
             a _mem workload needs at least 4 x",
            run.resident_mb, host.llc_bytes
        );
    }
    let probes_ok = probes::run_all(name, &sz, &host, &run, &recorder, &mut m);

    for (span, (count, total_ns, self_ns)) in recorder.rollup() {
        println!(
            "span {span}: count={count} total_ms={:.3} self_ms={:.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = out_dir.join(format!("{name}.trace.json"));
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, recorder.to_json()))
    {
        Ok(()) => println!("trace: {}", path.display()),
        Err(e) => println!("trace: not written ({e})"),
    }
    report(&run, &m.in_order(&PER_LAYER), probes_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.aa {
        aa::run(&args)
    } else if let Some(name) = args.workload.clone() {
        // The result line was printed and carries `correct`: to the driver
        // a non-zero exit means "no result", so this is a success.
        run_one(&name, &args);
        true
    } else {
        // One process per workload: `peak_rss_mb` is a high-water mark of
        // the process, so workloads must not share one.
        WORKLOADS.iter().fold(true, |ok, name| {
            let child = aa::run_child(name, args.seed, args.seconds, args.trace, args.quick);
            match child {
                Ok(result) => {
                    print!("{}", result.stdout);
                    ok && result.correct
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    false
                }
            }
        })
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
