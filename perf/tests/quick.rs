//! End to end at toy sizes: every workload, untraced and traced, prints a
//! result line whose metric names and units are exactly the ones
//! `BENCHMARK.json` declares — no name missing, none extra.

use bwb_trace::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    let rows = doc.get(list).and_then(Json::as_array).expect(list);
    rows.iter()
        .map(|row| {
            let field = |k: &str| row.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Run one workload at `--quick` sizes; `(name → unit)` of its result line.
fn printed(workload: &str, trace: &str) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_bwb-perf"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "16"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("bwb-perf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace={trace}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    let doc = json::parse(last).expect("the last line is JSON");
    let Json::Obj(fields) = &doc else {
        panic!("result line is not an object: {last}");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(
        doc.get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    metrics
        .iter()
        .map(|(name, cell)| {
            let value = cell.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{name} = {value}");
            // The human-readable line carries the same name and unit.
            let unit = cell.get("unit").and_then(Json::as_str).expect("unit");
            let line = format!("{name} = ");
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&line) && l.ends_with(unit)),
                "no '{name} = … {unit}' line"
            );
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn printed_names_are_exactly_the_declared_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), 5);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        assert_eq!(printed(name, "0"), end_to_end, "{name} untraced");
        assert_eq!(printed(name, "1"), per_layer, "{name} traced");
    }
}

#[test]
fn a_bad_argument_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_bwb-perf"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("bwb-perf runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
