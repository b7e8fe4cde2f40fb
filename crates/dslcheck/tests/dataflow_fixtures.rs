//! Planted negative fixtures for the whole-chain dataflow analyzers: one
//! deliberately broken program per violation class, each asserting the
//! exact `Kind` variant, plus the matching "legitimate" program per class
//! proving the lint does not fire on correct code.
//!
//! Loop-level fixtures drive the real structured engine under
//! `with_recording_full`; exchange-timing fixtures hand-build a
//! [`Recording`] (every field is public) because steering a real
//! multi-rank run into a *provably* redundant exchange would itself be the
//! bug under test.

use bwb_dslcheck::lints::{check_fusion_claims, dead_stores, exchange_lints, fusion_plan};
use bwb_dslcheck::traffic::{check_streaming_claims, DEFAULT_RESIDENCY_BYTES};
use bwb_dslcheck::{DataflowReport, DefUseGraph, Kind};
use bwb_ops::access::{with_recording_full, ArgObs, ExchangeObs, LoopObs, Recording};
use bwb_ops::{par_loop2, ArgSpec, Dat2, ExecMode, LoopSpec, Profile, Range2, Stencil};

const N: usize = 8;

fn range() -> Range2 {
    Range2::new(0, N as isize, 0, N as isize)
}

/// Run `f` over freshly allocated fields and return the recording.
fn record(f: impl FnOnce(&mut Profile, &mut [Dat2<f64>])) -> Recording {
    let mut fields: Vec<Dat2<f64>> = ["a", "b", "x", "y"]
        .iter()
        .map(|n| {
            let mut d = Dat2::<f64>::new(n, N, N, 2);
            d.fill_interior(1.0);
            d
        })
        .collect();
    let ((), rec) = with_recording_full(|| {
        let mut p = Profile::new();
        f(&mut p, &mut fields);
    });
    rec
}

fn copy_specs(pairs: &[(&str, &str, &str, isize)]) -> Vec<LoopSpec> {
    pairs
        .iter()
        .map(|(loop_name, out, inp, radius)| {
            let stencil = if *radius == 0 {
                Stencil::point()
            } else {
                Stencil::plus2(*radius)
            };
            LoopSpec::new(
                loop_name,
                vec![ArgSpec::write(out)],
                vec![ArgSpec::read(inp, stencil)],
            )
        })
        .collect()
}

/// `out[i] = in[i]` through the real engine.
fn copy_loop(p: &mut Profile, name: &str, out: &mut Dat2<f64>, inp: &Dat2<f64>) {
    par_loop2(
        p,
        name,
        ExecMode::Serial,
        range(),
        &mut [out],
        &[inp],
        0.0,
        |_i, _j, o, ins| o.set(0, ins.get(0, 0, 0)),
    );
}

/// `out[i] = avg of in's plus-stencil` through the real engine.
fn blur_loop(p: &mut Profile, name: &str, out: &mut Dat2<f64>, inp: &Dat2<f64>) {
    par_loop2(
        p,
        name,
        ExecMode::Serial,
        range(),
        &mut [out],
        &[inp],
        4.0,
        |_i, _j, o, ins| {
            o.set(
                0,
                0.25 * (ins.get(0, -1, 0)
                    + ins.get(0, 1, 0)
                    + ins.get(0, 0, -1)
                    + ins.get(0, 0, 1)),
            )
        },
    );
}

// --- dead stores ---

#[test]
fn planted_dead_store_detected() {
    // x is fully written twice with no read in between: the first write is
    // pure wasted traffic.
    let specs = copy_specs(&[("w1", "x", "a", 0), ("w2", "x", "b", 0)]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(1);
        let (b, rest) = rest.split_at_mut(1);
        copy_loop(p, "w1", &mut rest[0], &a[0]);
        copy_loop(p, "w2", &mut rest[0], &b[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    let v = dead_stores("fixture", &g);
    assert_eq!(v.len(), 1);
    assert_eq!(
        v[0].kind,
        Kind::DeadStore {
            dat: "x".into(),
            first_loop: "w1".into(),
            first_at: 0,
            second_loop: "w2".into(),
            second_at: 1,
        }
    );
}

#[test]
fn legitimately_reread_output_is_not_a_dead_store() {
    // Same shape, but y consumes x between the two writes: no violation.
    // This is the false-positive guard the acceptance criteria require.
    let specs = copy_specs(&[
        ("w1", "x", "a", 0),
        ("consume", "y", "x", 0),
        ("w2", "x", "b", 0),
    ]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(1);
        let (b, rest) = rest.split_at_mut(1);
        let (x, y) = rest.split_at_mut(1);
        copy_loop(p, "w1", &mut x[0], &a[0]);
        copy_loop(p, "consume", &mut y[0], &x[0]);
        copy_loop(p, "w2", &mut x[0], &b[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    assert!(dead_stores("fixture", &g).is_empty());
    // The whole report is clean too.
    let report = DataflowReport::analyze("fixture", &specs, &rec);
    assert!(report.clean(), "{:?}", report.violations);
}

#[test]
fn trailing_write_is_not_a_dead_store() {
    // A final unread write is the program's result, not waste.
    let specs = copy_specs(&[("w1", "x", "a", 0)]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(1);
        copy_loop(p, "w1", &mut rest[1], &a[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    assert!(dead_stores("fixture", &g).is_empty());
}

// --- halo-exchange lints (hand-built recordings) ---

fn obs_arg(name: &str, wrote: bool, offsets: &[(isize, isize, isize)]) -> ArgObs {
    ArgObs {
        name: name.into(),
        halo: 2,
        extent: (N, N, 1),
        elem_bytes: 8,
        offsets: offsets.iter().copied().collect(),
        wrote,
        read_back: false,
        inced: false,
    }
}

fn obs_loop(name: &str, outs: Vec<ArgObs>, ins: Vec<ArgObs>) -> LoopObs {
    LoopObs {
        name: name.into(),
        dims: 2,
        range: [0, N as isize, 0, N as isize, 0, 1],
        outs,
        ins,
    }
}

fn halo_specs(read_radius: isize) -> Vec<LoopSpec> {
    vec![
        LoopSpec::new("produce", vec![ArgSpec::write("u")], Vec::new()),
        LoopSpec::new(
            "stencil",
            vec![ArgSpec::write("x")],
            vec![ArgSpec::read("u", Stencil::plus2(read_radius))],
        ),
    ]
}

#[test]
fn planted_redundant_exchange_detected() {
    // produce u → exchange(1) → stencil reads u at radius 1 → exchange(1)
    // again with no write since: the second exchange moves bytes for
    // ghosts that are provably still valid.
    let rec = Recording {
        loops: vec![
            obs_loop("produce", vec![obs_arg("u", true, &[])], Vec::new()),
            obs_loop(
                "stencil",
                vec![obs_arg("x", true, &[])],
                vec![obs_arg("u", false, &[(0, 0, 0), (0, -1, 0), (0, 1, 0)])],
            ),
        ],
        exchanges: vec![
            ExchangeObs {
                dat: "u".into(),
                depth: 1,
                at: 1,
                site: String::new(),
            },
            ExchangeObs {
                dat: "u".into(),
                depth: 1,
                at: 2,
                site: String::new(),
            },
        ],
    };
    let g = DefUseGraph::build(&halo_specs(1), &rec);
    let v = exchange_lints("fixture", &g);
    assert_eq!(v.len(), 1);
    assert_eq!(
        v[0].kind,
        Kind::RedundantExchange {
            dat: "u".into(),
            depth: 1,
            at: 2,
            prior_depth: 1,
        }
    );
}

#[test]
fn redundant_exchange_at_its_own_site_is_a_violation() {
    // The same redundancy with each exchange at its own call site: every
    // exchange at site "again" moves still-valid ghosts. That is a defect
    // to mend by deleting the call, whatever site it carries.
    let rec = Recording {
        loops: vec![
            obs_loop("produce", vec![obs_arg("u", true, &[])], Vec::new()),
            obs_loop(
                "stencil",
                vec![obs_arg("x", true, &[])],
                vec![obs_arg("u", false, &[(0, 0, 0), (0, -1, 0), (0, 1, 0)])],
            ),
        ],
        exchanges: vec![
            ExchangeObs {
                dat: "u".into(),
                depth: 1,
                at: 1,
                site: "fresh".into(),
            },
            ExchangeObs {
                dat: "u".into(),
                depth: 1,
                at: 2,
                site: "again".into(),
            },
        ],
    };
    let g = DefUseGraph::build(&halo_specs(1), &rec);
    let v = exchange_lints("fixture", &g);
    assert_eq!(
        v.iter().map(|v| &v.kind).collect::<Vec<_>>(),
        [&Kind::RedundantExchange {
            dat: "u".into(),
            depth: 1,
            at: 2,
            prior_depth: 1,
        }]
    );
}

#[test]
fn planted_stale_halo_read_detected() {
    // u is exchanged at depth 1 but the stencil reads it at radius 2: the
    // outer ghost ring is stale. The whole-chain generalization of the
    // per-chain halo-depth audit.
    let rec = Recording {
        loops: vec![
            obs_loop("produce", vec![obs_arg("u", true, &[])], Vec::new()),
            obs_loop(
                "stencil",
                vec![obs_arg("x", true, &[])],
                vec![obs_arg("u", false, &[(0, 0, 0), (0, -2, 0), (0, 2, 0)])],
            ),
        ],
        exchanges: vec![ExchangeObs {
            dat: "u".into(),
            depth: 1,
            at: 1,
            site: String::new(),
        }],
    };
    let g = DefUseGraph::build(&halo_specs(2), &rec);
    let v = exchange_lints("fixture", &g);
    assert_eq!(v.len(), 1);
    assert_eq!(
        v[0].kind,
        Kind::StaleHaloRead {
            dat: "u".into(),
            loop_name: "stencil".into(),
            at: 1,
            required_radius: 2,
            valid_depth: 1,
        }
    );
}

#[test]
fn correct_exchange_sequence_is_clean() {
    // write → exchange(2) → read radius 2 → write → exchange(2) → read:
    // the textbook pattern. No lint may fire, including on the repeated
    // exchange (a write invalidated the ghosts in between).
    let stencil_loop = || {
        obs_loop(
            "stencil",
            vec![obs_arg("x", true, &[])],
            vec![obs_arg("u", false, &[(0, 0, 0), (0, -2, 0), (0, 2, 0)])],
        )
    };
    let produce = || obs_loop("produce", vec![obs_arg("u", true, &[])], Vec::new());
    let rec = Recording {
        loops: vec![produce(), stencil_loop(), produce(), stencil_loop()],
        exchanges: vec![
            ExchangeObs {
                dat: "u".into(),
                depth: 2,
                at: 1,
                site: String::new(),
            },
            ExchangeObs {
                dat: "u".into(),
                depth: 2,
                at: 3,
                site: String::new(),
            },
        ],
    };
    let g = DefUseGraph::build(&halo_specs(2), &rec);
    assert!(exchange_lints("fixture", &g).is_empty());
}

#[test]
fn untraced_dats_are_never_judged() {
    // An app that maintains ghosts by hand (no exchange trace for u) must
    // not be second-guessed, whatever radius it reads at.
    let rec = Recording {
        loops: vec![
            obs_loop("produce", vec![obs_arg("u", true, &[])], Vec::new()),
            obs_loop(
                "stencil",
                vec![obs_arg("x", true, &[])],
                vec![obs_arg("u", false, &[(0, -2, 0)])],
            ),
        ],
        exchanges: Vec::new(),
    };
    let g = DefUseGraph::build(&halo_specs(2), &rec);
    assert!(exchange_lints("fixture", &g).is_empty());
}

// --- fusion legality ---

#[test]
fn planted_illegal_fusion_detected() {
    // producer writes x, consumer reads x at radius 1: fusing would read
    // half-updated neighbours. The claim must be rejected with the exact
    // variant.
    let specs = copy_specs(&[("producer", "x", "a", 0), ("consumer", "y", "x", 1)]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(2);
        let (x, y) = rest.split_at_mut(1);
        copy_loop(p, "producer", &mut x[0], &a[0]);
        blur_loop(p, "consumer", &mut y[0], &x[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    let plan = fusion_plan(&g);
    assert_eq!(plan.candidates.len(), 1);
    assert!(!plan.candidates[0].legal);
    assert_eq!(plan.legal_pairs(), 0);

    let v = check_fusion_claims("fixture", &g, &[("producer", "consumer")]);
    assert_eq!(v.len(), 1);
    match &v[0].kind {
        Kind::IllegalFusion {
            first_loop,
            second_loop,
            reason,
        } => {
            assert_eq!(first_loop, "producer");
            assert_eq!(second_loop, "consumer");
            assert!(reason.contains("radius 1"), "reason: {reason}");
        }
        other => panic!("wrong kind: {other:?}"),
    }
}

#[test]
fn pointwise_producer_consumer_fusion_is_certified() {
    // Same pair but the consumer reads x at radius 0: legal, claim passes.
    let specs = copy_specs(&[("producer", "x", "a", 0), ("consumer", "y", "x", 0)]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(2);
        let (x, y) = rest.split_at_mut(1);
        copy_loop(p, "producer", &mut x[0], &a[0]);
        copy_loop(p, "consumer", &mut y[0], &x[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    let plan = fusion_plan(&g);
    assert_eq!(plan.legal_pairs(), 1);
    assert_eq!(plan.candidates[0].shared, vec!["x".to_string()]);
    assert!(check_fusion_claims("fixture", &g, &[("producer", "consumer")]).is_empty());
}

#[test]
fn fusion_claim_on_non_adjacent_pair_is_rejected() {
    let specs = copy_specs(&[
        ("producer", "x", "a", 0),
        ("other", "y", "b", 0),
        ("consumer", "y", "x", 0),
    ]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(1);
        let (b, rest) = rest.split_at_mut(1);
        let (x, y) = rest.split_at_mut(1);
        copy_loop(p, "producer", &mut x[0], &a[0]);
        copy_loop(p, "other", &mut y[0], &b[0]);
        copy_loop(p, "consumer", &mut y[0], &x[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    let v = check_fusion_claims("fixture", &g, &[("producer", "consumer")]);
    assert_eq!(v.len(), 1);
    assert!(matches!(&v[0].kind, Kind::IllegalFusion { reason, .. }
        if reason.contains("not an adjacent pair")));
}

// --- streaming-store eligibility ---

#[test]
fn planted_streaming_store_unsafe_detected() {
    // x is re-read by the very next loop over these tiny (≪ residency
    // window) fields, so its lines are still cached when consumed: a
    // streaming-store claim on it must be rejected.
    let specs = copy_specs(&[("w1", "x", "a", 0), ("consume", "y", "x", 0)]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(2);
        let (x, y) = rest.split_at_mut(1);
        copy_loop(p, "w1", &mut x[0], &a[0]);
        copy_loop(p, "consume", &mut y[0], &x[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    let v = check_streaming_claims("fixture", &g, &[("w1", "x")], DEFAULT_RESIDENCY_BYTES);
    assert_eq!(v.len(), 1);
    match &v[0].kind {
        Kind::StreamingStoreUnsafe {
            loop_name,
            dat,
            reason,
        } => {
            assert_eq!(loop_name, "w1");
            assert_eq!(dat, "x");
            assert!(reason.contains("re-read"), "reason: {reason}");
        }
        other => panic!("wrong kind: {other:?}"),
    }
}

#[test]
fn unread_full_overwrite_is_streaming_certified() {
    // The terminal write is never consumed again: the claim passes.
    let specs = copy_specs(&[("w1", "x", "a", 0)]);
    let rec = record(|p, f| {
        let (a, rest) = f.split_at_mut(2);
        copy_loop(p, "w1", &mut rest[0], &a[0]);
    });
    let g = DefUseGraph::build(&specs, &rec);
    assert!(
        check_streaming_claims("fixture", &g, &[("w1", "x")], DEFAULT_RESIDENCY_BYTES).is_empty()
    );
}
