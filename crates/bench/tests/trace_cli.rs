//! The `trace` binary end to end: it runs an app's CI-sized job spec, on
//! the ranked driver when `--ranks` asks for one, and refuses a spec that
//! `BenchSpec::validate` refuses.

use bwb_core::apps::{cloverleaf2d, jobspec::BenchSpec, AppId};
use std::process::{Command, Output};

/// Run `trace <args> --out <a fresh directory>`; returns the output and the
/// directory.
fn trace(args: &[&str]) -> (Output, std::path::PathBuf) {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(args.join("_"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(args)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("trace runs");
    (out, out_dir)
}

#[test]
fn ranks_select_the_ranked_driver() {
    let (out, dir) = trace(&["miniweather", "--ranks", "2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // One recording thread per rank: the run went through the universe.
    assert!(
        stdout.starts_with("trace of miniweather (2 threads,"),
        "{stdout}"
    );
    let json = std::fs::read_to_string(dir.join("miniweather.json")).unwrap();
    bwb_core::trace::json::parse(&json).expect("the export parses");
}

#[test]
fn ranks_without_a_distributed_driver_are_refused() {
    let (out, dir) = trace(&["volna", "--ranks", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no distributed driver"), "{stderr}");
    assert!(!dir.join("volna.json").exists());
}

/// CI's `trace cloverleaf2d --ranks 4` runs the app's default size.
#[test]
fn cloverleaf_spec_is_the_default_config() {
    let spec = BenchSpec::small(AppId::CloverLeaf2D);
    let cfg = cloverleaf2d::Config::default();
    assert_eq!(
        (spec.n, spec.n, spec.iterations),
        (cfg.nx, cfg.ny, cfg.iterations)
    );
}
