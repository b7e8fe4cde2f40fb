//! The `analyze` binary end to end: every mode CI gates on exits 0, prints
//! one parseable JSON document per stdout line, reports zero violations,
//! and covers exactly the app table's entries for that mode. Each line is
//! a fixed point of the writer: parsing and reprinting it gives it back.

use bwb_core::trace::json::{parse, Json};
use std::process::Command;

const RECORDED: [&str; 12] = [
    "cloverleaf2d",
    "clover2d_dist",
    "cloverleaf3d",
    "acoustic",
    "acoustic_dist",
    "opensbli_sa",
    "opensbli_sn",
    "miniweather",
    "miniweather_dist",
    "mgcfd",
    "volna",
    "minibude",
];
const DISTRIBUTED: [&str; 5] = [
    "cloverleaf2d",
    "acoustic",
    "miniweather",
    "mgcfd",
    "minibude",
];

/// Run `analyze <flags>` and return the app names of its (single) report.
fn app_names(flags: &[&str]) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(flags)
        .output()
        .expect("analyze runs");
    assert!(out.status.success(), "analyze {flags:?}: {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let docs: Vec<Json> = stdout
        .lines()
        .map(|l| {
            let doc = parse(l).unwrap_or_else(|e| panic!("analyze {flags:?}: {e}"));
            assert_eq!(doc.to_string(), l, "analyze {flags:?}: not a fixed point");
            doc
        })
        .collect();
    assert_eq!(docs.len(), 1, "analyze {flags:?}: one document per mode");
    let doc = &docs[0];
    assert_eq!(doc.get("total_violations"), Some(&Json::Num(0.0)));
    let apps = doc.get("apps").and_then(Json::as_array).expect("apps");
    apps.iter()
        // `--static` nests each app's report next to its wall time.
        .map(|a| a.get("report").unwrap_or(a))
        .map(|a| {
            a.get("app")
                .and_then(Json::as_str)
                .expect("app")
                .to_string()
        })
        .collect()
}

#[test]
fn every_mode_is_clean_and_covers_the_table() {
    let mut checked = RECORDED.to_vec();
    checked.push("blur_chain");
    assert_eq!(app_names(&[]), checked);
    assert_eq!(app_names(&["--dataflow"]), RECORDED);
    assert_eq!(app_names(&["--static", "--json"]), RECORDED);
    assert_eq!(app_names(&["--comm"]), DISTRIBUTED);
    assert_eq!(app_names(&["--parametric"]), DISTRIBUTED);
    assert_eq!(app_names(&["--placement", "--json"]), DISTRIBUTED);
}
