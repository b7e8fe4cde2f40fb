//! Property-based tests (proptest) on the suite's core invariants.

use bwb_core::memsim::{AccessKind, CacheSim, MachineSubset, MemoryHierarchyModel};
use bwb_core::op2::{
    par_loop_block_colored, par_loop_block_colored_staged, rcb_partition, BlockColoring, Coloring,
    DatU, ExecModeU, HaloPlan, Map, Set,
};
use bwb_core::ops::{
    par_loop2, par_loop2_rows, par_loop3, par_loop3_planes, Dat2, Dat3, ExecMode, Profile, Range2,
    Range3,
};
use bwb_core::shmpi::{cart::dims_create, ReduceOp, Universe};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cache hit rate is in [0,1] and a working set within capacity reaches
    /// 100% reuse on the second pass.
    #[test]
    fn cache_sim_hit_rate_bounds(cap_kb in 1usize..64, ways in 1usize..8, n in 1u64..2000) {
        let cap = (cap_kb * 1024 / (ways * 64)).max(1) * ways * 64;
        let mut c = CacheSim::new(cap as u64, ways, 64);
        c.stream(0, n, 64, AccessKind::Read);
        let hr = c.stats().hit_rate();
        prop_assert!((0.0..=1.0).contains(&hr));
        if n * 64 <= cap as u64 {
            c.reset_stats();
            c.stream(0, n, 64, AccessKind::Read);
            prop_assert_eq!(c.stats().hit_rate(), 1.0);
        }
    }

    /// The bandwidth model is monotone non-increasing in working-set size.
    #[test]
    fn bandwidth_curve_monotone(seed in 0usize..3, ws1 in 14u32..30, ws2 in 14u32..30) {
        let plats = bwb_core::machine::platforms::all_cpus();
        let m = MemoryHierarchyModel::new(plats[seed].clone());
        let (lo, hi) = (1u64 << ws1.min(ws2), 1u64 << ws1.max(ws2));
        let b_lo = m.bandwidth(lo, MachineSubset::WholeMachine).bandwidth_gbs;
        let b_hi = m.bandwidth(hi, MachineSubset::WholeMachine).bandwidth_gbs;
        prop_assert!(b_hi <= b_lo * 1.0001, "bw({lo})={b_lo} bw({hi})={b_hi}");
    }

    /// dims_create always factorizes exactly and reasonably balanced.
    #[test]
    fn dims_create_factorizes(size in 1usize..512, nd in 1usize..4) {
        let dims = dims_create(size, nd);
        prop_assert_eq!(dims.iter().product::<usize>(), size);
        prop_assert_eq!(dims.len(), nd);
    }

    /// RCB partitions are balanced and cover exactly the input set.
    #[test]
    fn rcb_balanced_cover(n_side in 4usize..20, nparts in 1usize..9) {
        let mut coords = Vec::new();
        for j in 0..n_side {
            for i in 0..n_side {
                coords.extend([i as f64, j as f64]);
            }
        }
        let part = rcb_partition(&coords, 2, nparts);
        prop_assert_eq!(part.len(), n_side * n_side);
        let mut counts = vec![0usize; nparts];
        for &p in &part {
            prop_assert!((p as usize) < nparts);
            counts[p as usize] += 1;
        }
        let ideal = (n_side * n_side) as f64 / nparts as f64;
        for &c in &counts {
            prop_assert!(c as f64 <= ideal.ceil() + 1.0, "count {c} vs ideal {ideal}");
        }
    }

    /// par_loop2 serial and rayon backends agree bitwise on an arbitrary
    /// affine kernel.
    #[test]
    fn par_loop_backends_agree(nx in 1usize..40, ny in 1usize..40, a in -5i32..5, b in -5i32..5) {
        let run = |mode: ExecMode| {
            let mut prof = Profile::new();
            let mut src = Dat2::<f64>::new("s", nx, ny, 1);
            let mut dst = Dat2::<f64>::new("d", nx, ny, 1);
            src.init_with(|i, j| (a as f64) * i as f64 + (b as f64) * j as f64);
            par_loop2(
                &mut prof, "k", mode, Range2::interior(nx, ny),
                &mut [&mut dst], &[&src], 2.0,
                |_i, _j, out, ins| {
                    out.set(0, ins.get(0, 0, 0) * 2.0 + ins.get(0, -1, 0));
                },
            );
            dst
        };
        let s = run(ExecMode::Serial);
        let r = run(ExecMode::Rayon);
        prop_assert_eq!(s.max_abs_diff(&r), 0.0);
    }

    /// Allreduce(sum) equals the arithmetic sum for any world size and the
    /// result agrees on every rank.
    #[test]
    fn allreduce_agrees_across_ranks(size in 1usize..9, base in -100i64..100) {
        let out = Universe::run(size, move |c| {
            c.allreduce_scalar(base + c.rank() as i64, ReduceOp::Sum)
        });
        let expect: i64 = (0..size as i64).map(|r| base + r).sum();
        for r in out.results {
            prop_assert_eq!(r, expect);
        }
    }

    /// Messages between one (source, tag) pair arrive in send order
    /// regardless of interleaved traffic on other tags (MPI's
    /// non-overtaking rule).
    #[test]
    fn message_order_non_overtaking(n_msgs in 1usize..40, noise_tag in 1u32..5) {
        let out = Universe::run(2, move |c| {
            if c.rank() == 0 {
                for i in 0..n_msgs as u64 {
                    if i % 3 == 0 {
                        c.send(1, noise_tag, vec![u64::MAX]);
                    }
                    c.send(1, 0, vec![i]);
                }
                true
            } else {
                let mut ok = true;
                for i in 0..n_msgs as u64 {
                    ok &= c.recv::<u64>(0, 0)[0] == i;
                }
                // Drain the noise traffic: teardown asserts empty mailboxes.
                for _ in 0..n_msgs.div_ceil(3) {
                    ok &= c.recv::<u64>(0, noise_tag)[0] == u64::MAX;
                }
                ok
            }
        });
        prop_assert!(out.results.iter().all(|&b| b));
    }

    /// Streaming-store gain equals (r + 2w)/(r + w) and is within [1, 2].
    #[test]
    fn streaming_store_gain_formula(r_bytes in 0.0f64..1000.0, w_bytes in 0.1f64..1000.0) {
        use bwb_core::memsim::TrafficModel;
        let t = TrafficModel::new(r_bytes, w_bytes);
        let expect = (r_bytes + 2.0 * w_bytes) / (r_bytes + w_bytes);
        prop_assert!((t.streaming_store_gain() - expect).abs() < 1e-12);
        prop_assert!(t.streaming_store_gain() >= 1.0);
        prop_assert!(t.streaming_store_gain() <= 2.0);
    }

    /// Tiled loop-chain execution reproduces untiled results for arbitrary
    /// chain lengths and tile heights.
    #[test]
    fn tiled_chain_matches_untiled(n in 6usize..24, loops in 1usize..4, tile in 1usize..10) {
        use bwb_core::ops::LoopChain2;
        let build = || -> (LoopChain2<f64>, Vec<Dat2<f64>>) {
            let mut store: Vec<Dat2<f64>> = (0..=loops)
                .map(|f| {
                    let mut d = Dat2::new(&format!("f{f}"), n, n, 1);
                    if f == 0 {
                        d.init_with(|i, j| ((i * 3 + j * 5) % 11) as f64);
                    }
                    d
                })
                .collect();
            store[0].fill_all(1.0);
            let mut chain = LoopChain2::new(ExecMode::Serial);
            for l in 0..loops {
                chain.add(
                    &format!("s{l}"),
                    Range2::interior(n, n),
                    1,
                    3.0,
                    vec![l + 1],
                    vec![l],
                    |_i, _j, out, ins| {
                        out.set(0, 0.5 * ins.get(0, -1, 0) + 0.5 * ins.get(0, 1, 0));
                    },
                );
            }
            (chain, store)
        };
        let (c1, mut s1) = build();
        let (c2, mut s2) = build();
        let mut p = Profile::new();
        c1.execute(&mut s1, &mut p);
        c2.execute_tiled(&mut s2, &mut p, tile);
        prop_assert_eq!(s1[loops].max_abs_diff(&s2[loops]), 0.0);
    }

    /// The redundant-compute overhead of tiling is monotone: taller tiles
    /// never do more work.
    #[test]
    fn tiling_overhead_monotone(n in 8usize..32, t1 in 1usize..16, t2 in 1usize..16) {
        use bwb_core::ops::LoopChain2;
        let mut chain = LoopChain2::<f64>::new(ExecMode::Serial);
        for l in 0..3usize {
            chain.add(
                &format!("s{l}"),
                Range2::interior(n, n),
                1,
                1.0,
                vec![l + 1],
                vec![l],
                |_i, _j, _o, _s| {},
            );
        }
        let (lo, hi) = (t1.min(t2), t1.max(t2));
        prop_assert!(chain.tiled_point_count(hi) <= chain.tiled_point_count(lo));
        prop_assert!(chain.tiled_point_count(n) == chain.untiled_point_count());
    }

    /// The 2-D slice fast path ([`par_loop2_rows`]) is bit-identical to the
    /// per-point driver for an arbitrary 5-point stencil, in both execution
    /// modes, and records identical point/byte/FLOP accounting.
    #[test]
    fn slice_rows_match_per_point(nx in 1usize..40, ny in 1usize..40, a in -4i32..5, rayon in 0usize..2) {
        let mode = if rayon == 1 { ExecMode::Rayon } else { ExecMode::Serial };
        let mut src = Dat2::<f64>::new("s", nx, ny, 1);
        src.init_with(|i, j| ((i * 7 + j * 3) % 13) as f64 + a as f64);
        let mut d1 = Dat2::<f64>::new("d1", nx, ny, 1);
        let mut d2 = Dat2::<f64>::new("d2", nx, ny, 1);
        let mut prof = Profile::new();
        par_loop2(
            &mut prof, "pp", mode, Range2::interior(nx, ny), &mut [&mut d1], &[&src], 4.0,
            |_i, _j, out, ins| {
                out.set(0, 0.25 * (ins.get(0, -1, 0) + ins.get(0, 1, 0)
                    + ins.get(0, 0, -1) + ins.get(0, 0, 1)));
            },
        );
        par_loop2_rows(
            &mut prof, "sl", mode, Range2::interior(nx, ny), &mut [&mut d2], &[&src], 4.0,
            |_j, out, ins| {
                let xm = ins.row_off(0, -1, 0);
                let xp = ins.row_off(0, 1, 0);
                let ym = ins.row_off(0, 0, -1);
                let yp = ins.row_off(0, 0, 1);
                let o = out.row(0);
                for i in 0..o.len() {
                    o[i] = 0.25 * (xm[i] + xp[i] + ym[i] + yp[i]);
                }
            },
        );
        prop_assert_eq!(d1.max_abs_diff(&d2), 0.0);
        let (pp, sl) = (prof.get("pp").unwrap(), prof.get("sl").unwrap());
        prop_assert_eq!(pp.points, sl.points);
        prop_assert_eq!(pp.bytes, sl.bytes);
        prop_assert_eq!(pp.flops.to_bits(), sl.flops.to_bits());
    }

    /// The 3-D plane fast path ([`par_loop3_planes`]) is bit-identical to
    /// the per-point driver for an arbitrary 7-point stencil.
    #[test]
    fn slice_planes_match_per_point(n in 2usize..14, rayon in 0usize..2, c in 1i32..5) {
        let mode = if rayon == 1 { ExecMode::Rayon } else { ExecMode::Serial };
        let cf = c as f64 / 8.0;
        let mut src = Dat3::<f64>::new("s", n, n, n, 1);
        src.init_with(|i, j, k| ((i * 5 + j * 3 + k * 2) % 17) as f64);
        let mut d1 = Dat3::<f64>::new("d1", n, n, n, 1);
        let mut d2 = Dat3::<f64>::new("d2", n, n, n, 1);
        let mut prof = Profile::new();
        par_loop3(
            &mut prof, "pp", mode, Range3::interior(n, n, n), &mut [&mut d1], &[&src], 7.0,
            move |_i, _j, _k, out, ins| {
                out.set(0, ins.get(0, 0, 0, 0) + cf * (ins.get(0, -1, 0, 0) + ins.get(0, 1, 0, 0)
                    + ins.get(0, 0, -1, 0) + ins.get(0, 0, 1, 0)
                    + ins.get(0, 0, 0, -1) + ins.get(0, 0, 0, 1)));
            },
        );
        par_loop3_planes(
            &mut prof, "sl", mode, Range3::interior(n, n, n), &mut [&mut d2], &[&src], 7.0,
            move |_j, _k, out, ins| {
                let cc = ins.row(0);
                let xm = ins.row_off(0, -1, 0, 0);
                let xp = ins.row_off(0, 1, 0, 0);
                let ym = ins.row_off(0, 0, -1, 0);
                let yp = ins.row_off(0, 0, 1, 0);
                let zm = ins.row_off(0, 0, 0, -1);
                let zp = ins.row_off(0, 0, 0, 1);
                let o = out.row(0);
                for i in 0..o.len() {
                    o[i] = cc[i] + cf * (xm[i] + xp[i] + ym[i] + yp[i] + zm[i] + zp[i]);
                }
            },
        );
        for k in 0..n as isize {
            for j in 0..n as isize {
                for i in 0..n as isize {
                    prop_assert_eq!(d1.get(i, j, k).to_bits(), d2.get(i, j, k).to_bits());
                }
            }
        }
        let (pp, sl) = (prof.get("pp").unwrap(), prof.get("sl").unwrap());
        prop_assert_eq!(pp.points, sl.points);
        prop_assert_eq!(pp.bytes, sl.bytes);
    }

    /// Tile-parallel execution of a loop chain is bit-identical to the
    /// serial tiled schedule, including the merged profile accounting.
    #[test]
    fn parallel_tiled_matches_serial_tiled(n in 6usize..24, loops in 1usize..4, tile in 1usize..10) {
        use bwb_core::ops::LoopChain2;
        let build = |mode: ExecMode| -> (LoopChain2<f64>, Vec<Dat2<f64>>) {
            let store: Vec<Dat2<f64>> = (0..=loops)
                .map(|f| {
                    let mut d = Dat2::new(&format!("f{f}"), n, n, 1);
                    if f == 0 {
                        d.init_with(|i, j| ((i * 3 + j * 5) % 11) as f64);
                    }
                    d
                })
                .collect();
            let mut chain = LoopChain2::new(mode);
            for l in 0..loops {
                chain.add(
                    &format!("s{l}"),
                    Range2::interior(n, n),
                    1,
                    3.0,
                    vec![l + 1],
                    vec![l],
                    |_i, _j, out, ins| {
                        out.set(0, 0.5 * ins.get(0, -1, 0) + 0.5 * ins.get(0, 1, 0));
                    },
                );
            }
            (chain, store)
        };
        let (c1, mut s1) = build(ExecMode::Serial);
        let (c2, mut s2) = build(ExecMode::Rayon);
        let (mut p1, mut p2) = (Profile::new(), Profile::new());
        c1.execute_tiled(&mut s1, &mut p1, tile);
        c2.execute_tiled(&mut s2, &mut p2, tile);
        prop_assert_eq!(s1[loops].max_abs_diff(&s2[loops]), 0.0);
        for l in 0..loops {
            let a = p1.get(&format!("s{l}")).unwrap();
            let b = p2.get(&format!("s{l}")).unwrap();
            prop_assert_eq!(a.calls, b.calls);
            prop_assert_eq!(a.points, b.points);
            prop_assert_eq!(a.bytes, b.bytes);
            prop_assert_eq!(a.flops.to_bits(), b.flops.to_bits());
        }
    }

    /// Roofline evaluation is continuous, monotone in intensity up to the
    /// ridge, and flat beyond it.
    #[test]
    fn roofline_monotone(peak_f in 10.0f64..10000.0, peak_b in 10.0f64..5000.0,
                         i1 in 0.01f64..100.0, i2 in 0.01f64..100.0) {
        use bwb_core::machine::Roofline;
        let r = Roofline { peak_gflops: peak_f, peak_gbs: peak_b };
        let (lo, hi) = (i1.min(i2), i1.max(i2));
        let a = r.evaluate(lo).attainable_gflops;
        let b = r.evaluate(hi).attainable_gflops;
        prop_assert!(a <= b + 1e-9);
        prop_assert!(b <= peak_f + 1e-9);
    }
}

/// Historical `coloring_valid_on_random_maps` failures, promoted from the
/// proptest regression file to deterministic named tests. Both are dense
/// maps onto tiny target sets; the second needs more than 64 colors, so it
/// exercises the bitmask-overflow path shared by [`Coloring`] and
/// [`BlockColoring`].
fn coloring_case(n_edges: usize, n_nodes: usize, seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let nodes = Set::new("n", n_nodes);
    let edges = Set::new("e", n_edges);
    let idx: Vec<u32> = (0..n_edges * 2)
        .map(|_| rng.gen_range(0..n_nodes as u32))
        .collect();
    let map = Map::new("e2n", &edges, &nodes, 2, idx);

    let coloring = Coloring::greedy(n_edges, &[&map]);
    assert!(coloring.validate(&[&map]));
    let mut distinct = vec![std::collections::HashSet::new(); n_nodes];
    for e in 0..n_edges {
        for &t in map.targets(e) {
            distinct[t as usize].insert(e);
        }
    }
    let need = distinct.iter().map(|s| s.len()).max().unwrap_or(1).max(1);
    assert!(coloring.n_colors as usize >= need);

    for block in [1usize, 3, 7] {
        let bc = BlockColoring::greedy(n_edges, block, &[&map]);
        assert!(bc.validate(&[&map]), "block_size {block}");
    }
}

#[test]
fn coloring_regression_dense_two_nodes() {
    // cc 7c6c3cfb…: 46 edges over 2 nodes — every edge conflicts with
    // nearly every other, so the color count approaches the set size.
    coloring_case(46, 2, 0);
}

#[test]
fn coloring_regression_overflow_colors() {
    // cc 3b78b84f…: 114 edges over 4 nodes — the densest target needs more
    // than 64 colors, driving the coloring into the overflow map.
    coloring_case(114, 4, 0);
}

// ---------------------------------------------------------------------------
// Former seed-drawing proptests, promoted to fixed-seed deterministic sweeps.
//
// These used to draw an RNG seed as a proptest input, so which random meshes
// were exercised changed on every run (and a failure's seed vanished with
// it). Each now sweeps a pinned parameter × seed grid: identical coverage on
// every run, and a failing case names its parameters directly.

/// Greedy coloring on a fixed family of random maps: conflict-free, and the
/// color count respects the max-distinct-degree lower bound (the property
/// formerly sampled by `coloring_valid_on_random_maps`).
#[test]
fn coloring_valid_on_fixed_seed_maps() {
    for &(n_edges, n_nodes) in &[(1, 2), (7, 3), (40, 5), (85, 17), (119, 39)] {
        for seed in 0..4u64 {
            coloring_case(n_edges, n_nodes, seed);
        }
    }
}

/// Halo plans never import more elements than exist, and a single partition
/// imports nothing (formerly the seed-sampled `halo_plan_bounds`).
fn halo_plan_case(n_edges: usize, nparts: usize, seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_nodes = n_edges + 1;
    let nodes = Set::new("n", n_nodes);
    let edges = Set::new("e", n_edges);
    let idx: Vec<u32> = (0..n_edges)
        .flat_map(|e| [e as u32, e as u32 + 1])
        .collect();
    let map = Map::new("e2n", &edges, &nodes, 2, idx);
    let src: Vec<u32> = (0..n_edges)
        .map(|_| rng.gen_range(0..nparts as u32))
        .collect();
    let tgt: Vec<u32> = (0..n_nodes)
        .map(|_| rng.gen_range(0..nparts as u32))
        .collect();
    let plan = HaloPlan::build(&map, &src, &tgt, nparts);
    assert!(
        plan.total_imports() <= nparts * n_nodes,
        "edges {n_edges} parts {nparts} seed {seed}"
    );
    assert!(plan.cut_elements <= n_edges);
    if nparts == 1 {
        assert_eq!(plan.total_imports(), 0);
    }
}

#[test]
fn halo_plan_bounds_fixed_seeds() {
    for &n_edges in &[1usize, 9, 37, 99] {
        for nparts in 1..6usize {
            for seed in 0..3u64 {
                halo_plan_case(n_edges, nparts, seed);
            }
        }
    }
}

/// Block-colored indirect execution equals the serial element-order sweep
/// bit-for-bit — integer-valued increments make the comparison exact
/// regardless of summation order (formerly the seed-sampled
/// `block_colored_matches_serial`). The staged runs increment whole rows
/// with `add_row`, the reference one component at a time with `add`.
fn block_colored_case(n_edges: usize, n_nodes: usize, block: usize, seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let nodes = Set::new("n", n_nodes);
    let edges = Set::new("e", n_edges);
    let idx: Vec<u32> = (0..n_edges * 2)
        .map(|_| rng.gen_range(0..n_nodes as u32))
        .collect();
    let map = Map::new("e2n", &edges, &nodes, 2, idx);
    let coloring = BlockColoring::greedy(n_edges, block, &[&map]);
    assert!(coloring.validate(&[&map]));
    let run = |mode: ExecModeU| -> Vec<f64> {
        let mut prof = Profile::new();
        let mut acc = DatU::<f64>::new("acc", &nodes, 2);
        let m = &map;
        par_loop_block_colored(
            &mut prof,
            "scatter",
            mode,
            &coloring,
            &mut [&mut acc],
            16,
            2.0,
            |e, out| {
                for &t in m.targets(e) {
                    out.add(0, t as usize, 0, (e + 1) as f64);
                    out.add(0, t as usize, 1, -2.0 * (e + 1) as f64);
                }
            },
        );
        acc.raw().to_vec()
    };
    // The staged driver, staging each block's range for its elements.
    let run_staged = |mode: ExecModeU| -> Vec<f64> {
        let mut prof = Profile::new();
        let mut acc = DatU::<f64>::new("acc", &nodes, 2);
        let m = &map;
        par_loop_block_colored_staged(
            &mut prof,
            "scatter",
            mode,
            &coloring,
            &mut [&mut acc],
            16,
            2.0,
            |range| range,
            |range, e, out| {
                assert!(range.contains(&e), "element {e} staged as {range:?}");
                for &t in m.targets(e) {
                    out.add_row(0, t as usize, [(e + 1) as f64, -2.0 * (e + 1) as f64]);
                }
            },
        );
        acc.raw().to_vec()
    };
    let serial = run(ExecModeU::Serial);
    for (driver, out) in [
        ("plain", run(ExecModeU::Colored)),
        ("staged serial", run_staged(ExecModeU::Serial)),
        ("staged", run_staged(ExecModeU::Colored)),
    ] {
        for (a, b) in serial.iter().zip(&out) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{driver}: edges {n_edges} nodes {n_nodes} block {block} seed {seed}"
            );
        }
    }
}

#[test]
fn block_colored_matches_serial_fixed_seeds() {
    for &(n_edges, n_nodes) in &[(1, 2), (13, 4), (50, 11), (149, 39)] {
        for &block in &[1usize, 4, 8] {
            for seed in 0..3u64 {
                block_colored_case(n_edges, n_nodes, block, seed);
            }
        }
    }
    // Edge shapes of the block partition, at a toy block and at MG-CFD's:
    // a set smaller than one block, a whole number of blocks, and a last
    // block of one element.
    for &block in &[8usize, 1024] {
        for n_edges in [block - 3, 3 * block, 3 * block + 1] {
            for seed in 0..3u64 {
                block_colored_case(n_edges, n_edges / 4 + 2, block, seed);
            }
        }
    }
}
