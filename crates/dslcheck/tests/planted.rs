//! Planted-violation tests: each analyzer must catch its violation class
//! when a contract is deliberately broken, and pass the corrected twin.
//!
//! Three classes (the acceptance gate for the analyzers):
//! 1. under-declared stencil offset, caught in checked-execution mode;
//! 2. insufficient tile skew reach / halo-exchange depth, caught at plan
//!    time;
//! 3. same-color write conflict through a shared map target, caught by the
//!    op2 race detector.

use bwb_dslcheck::{
    check_chain_plan, check_halo_depth, check_structured, check_unstructured, Kind,
};
use bwb_op2::{with_recording_u, Coloring, DatU, ExecModeU, Map, Set, UArgSpec, ULoopSpec};
use bwb_ops::access::{with_recording_full, Access};
use bwb_ops::{
    par_loop2, with_recording, ArgSpec, Dat2, DistBlock2, ExecMode, LoopChain2, LoopSpec, Profile,
    Range2, Stencil,
};
use bwb_shmpi::Universe;

// --- class 1: under-declared stencil offset ------------------------------

#[test]
fn under_declared_offset_is_caught_and_correct_twin_passes() {
    let run = || {
        let n = 8;
        let mut u = Dat2::<f64>::new("u", n, n, 1);
        let mut v = Dat2::<f64>::new("v", n, n, 1);
        u.fill_interior(1.0);
        let ((), obs) = with_recording(|| {
            let mut p = Profile::new();
            par_loop2(
                &mut p,
                "shift",
                ExecMode::Serial,
                Range2::new(0, n as isize, 0, n as isize),
                &mut [&mut v],
                &[&u],
                1.0,
                |_i, _j, out, ins| out.set(0, ins.get(0, 1, 0)),
            );
        });
        obs
    };

    let under = vec![LoopSpec::new(
        "shift",
        vec![ArgSpec::write("v")],
        vec![ArgSpec::read("u", Stencil::point())],
    )];
    let v = check_structured("planted", &under, &run());
    assert!(
        v.iter().any(|x| matches!(
            x.kind,
            Kind::UndeclaredOffset {
                offset: (1, 0, 0),
                ..
            }
        )),
        "{v:?}"
    );

    let exact = vec![LoopSpec::new(
        "shift",
        vec![ArgSpec::write("v")],
        vec![ArgSpec::read("u", Stencil::of2(&[(0, 0), (1, 0)]))],
    )];
    assert!(check_structured("planted", &exact, &run()).is_empty());
}

// --- class 2a: insufficient tile skew reach ------------------------------

#[test]
fn insufficient_skew_reach_is_caught_and_correct_twin_passes() {
    let run = |declared_reach: isize| {
        let n: usize = 16;
        let range = Range2::new(0, n as isize, 0, n as isize);
        let mut chain = LoopChain2::<f64>::new(ExecMode::Serial);
        chain.add(
            "vblur",
            range,
            declared_reach,
            2.0,
            vec![1],
            vec![0],
            |_i, _j, out, ins| {
                out.set(0, 0.5 * (ins.get(0, 0, -1) + ins.get(0, 0, 1)));
            },
        );
        let mut store = vec![
            Dat2::<f64>::new("a", n, n, 1),
            Dat2::<f64>::new("b", n, n, 1),
        ];
        let ((), obs) = with_recording(|| {
            let mut p = Profile::new();
            chain.execute(&mut store, &mut p);
        });
        check_chain_plan("planted", &chain.plan(), &obs)
    };

    // The kernel reads rows j±1 but the chain budgets zero skew: a tiled
    // schedule would consume rows a neighbouring tile has not produced.
    let v = run(0);
    assert!(
        v.iter().any(|x| matches!(
            x.kind,
            Kind::InsufficientSkewReach {
                declared_reach: 0,
                inferred_reach: 1,
                ..
            }
        )),
        "{v:?}"
    );
    assert!(run(1).is_empty());
}

// --- class 2b: halo-exchange depth shallower than the stencil ------------

/// Distributed radius-2 star loop on a halo-2 dat: exchanging at depth 1
/// must be reported; exchanging at the exactly-sufficient depth 2 is clean.
fn halo_depth_violations(exchange_depth: usize) -> Vec<bwb_dslcheck::Violation> {
    let specs = vec![LoopSpec::new(
        "star2",
        vec![ArgSpec::write("w")],
        vec![ArgSpec::read("u", Stencil::plus2(2))],
    )];
    let out = Universe::run(4, move |c| {
        let block = DistBlock2::new(c, 16, 16);
        let mut u = block.alloc_f64("u", 2);
        let mut w = block.alloc_f64("w", 2);
        u.fill_interior(1.0);
        let ((), rec) = with_recording_full(|| {
            block.exchange_halo(c, &mut u, exchange_depth);
            let mut p = Profile::new();
            let (nx, ny) = (block.nx() as isize, block.ny() as isize);
            par_loop2(
                &mut p,
                "star2",
                ExecMode::Serial,
                Range2::new(0, nx, 0, ny),
                &mut [&mut w],
                &[&u],
                4.0,
                |_i, _j, out, ins| {
                    out.set(
                        0,
                        ins.get(0, -2, 0) + ins.get(0, 2, 0) + ins.get(0, 0, -2) + ins.get(0, 0, 2),
                    );
                },
            );
        });
        rec
    });
    let rec = &out.results[0];
    let mut v = check_structured("planted", &specs, &rec.loops);
    v.extend(check_halo_depth(
        "planted",
        &specs,
        &rec.loops,
        &rec.exchanges,
    ));
    v
}

#[test]
fn shallow_halo_exchange_is_caught() {
    let v = halo_depth_violations(1);
    assert!(
        v.iter().any(|x| matches!(
            x.kind,
            Kind::HaloDepthTooShallow {
                exchanged_depth: 1,
                required_radius: 2,
                ..
            }
        )),
        "{v:?}"
    );
}

#[test]
fn exactly_sufficient_halo_exchange_passes() {
    let v = halo_depth_violations(2);
    assert!(v.is_empty(), "{v:?}");
}

// --- class 3: same-color write conflict through a shared map target ------

#[test]
fn same_color_conflict_is_caught_and_valid_coloring_passes() {
    let n = 10;
    let nodes = Set::new("nodes", n);
    let edges = Set::new("edges", n);
    let idx: Vec<u32> = (0..n)
        .flat_map(|e| [e as u32, ((e + 1) % n) as u32])
        .collect();
    let map = Map::new("e2n", &edges, &nodes, 2, idx);
    let specs = vec![ULoopSpec::new(
        "inc",
        vec![UArgSpec::new("acc", Access::Inc, true)],
    )];

    let run = |coloring: &Coloring| {
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let m = &map;
        let ((), obs) = with_recording_u(|| {
            let mut p = Profile::new();
            bwb_op2::par_loop_colored(
                &mut p,
                "inc",
                ExecModeU::Colored,
                coloring,
                &mut [&mut acc],
                16,
                1.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 0, 1.0);
                    out.add(0, m.get(e, 1), 0, 1.0);
                },
            );
        });
        check_unstructured("planted", &specs, &obs)
    };

    // Trivial coloring: every edge in one color class — adjacent edges
    // share a node, so the "parallel" schedule would race.
    let broken = Coloring::trivial(n);
    let v = run(&broken);
    assert!(
        v.iter()
            .any(|x| matches!(x.kind, Kind::SameColorConflict { .. })),
        "{v:?}"
    );

    let valid = Coloring::greedy(n, &[&map]);
    assert!(valid.validate(&[&map]));
    assert!(run(&valid).is_empty());
}
