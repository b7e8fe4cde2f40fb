//! The A/A gate: two interleaved sets of runs of this one binary must agree
//! within the bounds `BENCHMARK.json` fixes, or the benchmark cannot tell a
//! regression from its own noise.
//!
//! It applies the driver's rule. Per set and end-to-end metric, the spread
//! is the distance between the quartiles of the runs (each run on its own
//! seed) as a share of their median; it must stay within the metric's
//! bound, `setup_s` excepted. And set B's median may not be worse than set
//! A's by more than the bound, `setup_s` included.

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::{stats, Args};
use bwb_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer counts that must repeat bit for bit on one seed.
const EXACT: [&str; 11] = [
    "ops.bytes_per_step",
    "ops.loops_per_step",
    "shmpi.msgs_per_step",
    "shmpi.bytes_per_step",
    "shmpi.unreceived",
    "op2.n_colors",
    "op2.schedule_stride",
    "op2.bytes_per_step",
    "op2.loops_per_step",
    "apps.flops_per_byte",
    "dslcheck.plan_certs",
];

/// Runs per set. The driver takes ten per workload, twice.
const RUNS_PER_SET: usize = 10;

pub struct ChildResult {
    pub stdout: String,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process of this same executable and parse
/// the JSON line it ends with.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("child exited with {}: {stderr}", out.status));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("result line is not JSON: {e}"))?;
    let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, cell)| Some((k.clone(), cell.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result line has no metrics object".into()),
    };
    Ok(ChildResult {
        stdout,
        correct,
        metrics,
    })
}

/// `(better, bound)` per end-to-end metric, from `BENCHMARK.json` in the
/// working directory.
fn declared_bounds() -> Result<BTreeMap<String, (String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run --aa from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for row in rows {
        let field = |k: &str| row.get(k).and_then(Json::as_str).map(str::to_string);
        let (name, better) = (field("name"), field("better"));
        let bound = row.get("bound").and_then(Json::as_f64);
        match (name, better, bound) {
            (Some(n), Some(b), Some(x)) => out.insert(n, (b, x)),
            _ => return Err("an end_to_end row lacks name, better or bound".into()),
        };
    }
    Ok(out)
}

pub fn run(args: &Args) -> bool {
    let bounds = match declared_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_pass = true;
    let mut report = Vec::new();
    for name in names {
        println!("== {name}: 2 x {RUNS_PER_SET} untraced runs, interleaved");
        // values[set][metric] = one value per run of the set.
        let mut values = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..RUNS_PER_SET {
            for (set, per_metric) in values.iter_mut().enumerate() {
                let seed = 1000 * (set as u64 + 1) + i as u64;
                match run_child(name, seed, args.seconds, false, args.quick) {
                    Ok(r) if r.correct => {
                        for (k, v) in r.metrics {
                            per_metric.entry(k).or_insert_with(Vec::new).push(v);
                        }
                    }
                    Ok(_) => {
                        println!("{name} seed {seed}: run is not correct");
                        all_pass = false;
                    }
                    Err(e) => {
                        println!("{name} seed {seed}: {e}");
                        all_pass = false;
                    }
                }
            }
        }
        let mut rows = Vec::new();
        println!(
            "{:<12} {:>12} {:>12} {:>8} {:>8} {:>9} {:>6}  verdict",
            "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound"
        );
        for (metric, _) in END_TO_END {
            let (Some(a), Some(b)) = (values[0].get(metric), values[1].get(metric)) else {
                println!("{metric}: no values");
                all_pass = false;
                continue;
            };
            let Some((better, bound)) = bounds.get(metric) else {
                println!("{metric}: not declared in BENCHMARK.json");
                all_pass = false;
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                all_pass = false;
                continue;
            }
            let (med_a, med_b) = (stats::median(a), stats::median(b));
            let (iqr_a, iqr_b) = (stats::iqr_over_median(a), stats::iqr_over_median(b));
            let worse = if better == "higher" {
                (med_a - med_b) / med_a
            } else {
                (med_b - med_a) / med_a
            };
            let spread_ok = metric == "setup_s" || iqr_a.max(iqr_b) <= *bound;
            let pass = spread_ok && worse <= *bound;
            let steady = iqr_a.max(iqr_b) < bound / 3.0;
            all_pass &= pass;
            let verdict = match (pass, steady) {
                (false, _) => "MISS",
                (true, true) => "pass",
                (true, false) => "pass (spread above a third of the bound)",
            };
            println!(
                "{metric:<12} {med_a:>12.5} {med_b:>12.5} {:>7.2}% {:>7.2}% {:>8.2}% {:>5.1}%  {verdict}",
                100.0 * iqr_a,
                100.0 * iqr_b,
                100.0 * worse,
                100.0 * bound
            );
            rows.push((
                metric.to_string(),
                Json::Obj(vec![
                    ("median_a".into(), Json::Num(med_a)),
                    ("median_b".into(), Json::Num(med_b)),
                    ("iqr_over_median_a".into(), Json::Num(iqr_a)),
                    ("iqr_over_median_b".into(), Json::Num(iqr_b)),
                    ("b_worse_by".into(), Json::Num(worse)),
                    ("bound".into(), Json::Num(*bound)),
                    ("pass".into(), Json::Bool(pass)),
                    // In run order: drift of the host shows as a trend.
                    (
                        "values_a".into(),
                        Json::Arr(a.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                    (
                        "values_b".into(),
                        Json::Arr(b.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                ]),
            ));
        }

        // Exact counts: one traced run per set, both on the caller's seed.
        let traced: Vec<_> = (0..2)
            .map(|_| run_child(name, args.seed, args.seconds, true, args.quick))
            .collect();
        let mut exact_rows = Vec::new();
        match (&traced[0], &traced[1]) {
            (Ok(a), Ok(b)) => {
                for key in EXACT {
                    let (va, vb) = (a.metrics.get(key), b.metrics.get(key));
                    let same = va.is_some() && va.map(|v| v.to_bits()) == vb.map(|v| v.to_bits());
                    all_pass &= same;
                    println!(
                        "exact {key}: A={va:?} B={vb:?} {}",
                        if same { "same" } else { "DIFFER" }
                    );
                    exact_rows.push((
                        key.to_string(),
                        Json::Obj(vec![
                            ("a".into(), va.map_or(Json::Null, |v| Json::Num(*v))),
                            ("b".into(), vb.map_or(Json::Null, |v| Json::Num(*v))),
                            ("same".into(), Json::Bool(same)),
                        ]),
                    ));
                }
                all_pass &= a.correct && b.correct;
            }
            (a, b) => {
                for e in [a, b].into_iter().filter_map(|r| r.as_ref().err()) {
                    println!("{name} traced: {e}");
                }
                all_pass = false;
            }
        }
        report.push((
            name.to_string(),
            Json::Obj(vec![
                ("end_to_end".into(), Json::Obj(rows)),
                ("exact".into(), Json::Obj(exact_rows)),
            ]),
        ));
    }

    let host = crate::host::Host::detect();
    let doc = Json::Obj(vec![
        ("git_sha".into(), Json::Str(crate::git_sha())),
        ("nproc".into(), Json::Num(host.nproc as f64)),
        ("llc_bytes".into(), Json::Num(host.llc_bytes as f64)),
        ("thp".into(), Json::Str(host.thp)),
        ("runs_per_set".into(), Json::Num(RUNS_PER_SET as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::Bool(args.quick)),
        ("all_pass".into(), Json::Bool(all_pass)),
        ("workloads".into(), Json::Obj(report)),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // A --quick A/A exercises this code, not the host: keep it out of the
    // committed result.
    let path = if args.quick {
        dir.join("out").join("AA.quick.json")
    } else {
        dir.join("AA.json")
    };
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, format!("{doc}\n")));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("could not write {}: {e}", path.display());
            all_pass = false;
        }
    }
    println!("A/A verdict: {}", if all_pass { "pass" } else { "MISS" });
    all_pass
}
