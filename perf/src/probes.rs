//! Per-layer probes of the traced run: each layer of the repository is
//! timed from outside, through its public functions, on data the benchmark
//! owns. Nothing here is inside a timed region of a workload.
//!
//! A layer is probed at memory size only where it carries the workload:
//! `ops` at 2880² on the two `clover_mem` workloads, `op2` at 4.2 M nodes
//! on `mgcfd_mem`; everywhere else at 64×128 and 4 k nodes, inside the
//! cache, where `clover_dist_cache` runs. Metrics that describe a run rather
//! than a probe (`shmpi.wait_frac`, `serve.hit_rate`, `ops.bytes_per_step`,
//! …) come from the traced workload and are 0 when that layer is not in it:
//! every traced invocation prints every name, and none borrows a number
//! from another workload.

use crate::catalog;
use crate::host::Host;
use crate::metrics::Metrics;
use crate::spans::Spans;
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{self, LiveServer, ProfileSums, Run, ServeStats, Sizes};
use bwb_apps::mgcfd::{self, NVAR};
use bwb_op2::{
    edge_ownership, par_loop_block_colored, par_loop_colored, par_loop_direct, par_loop_gather,
    rcb_partition, BlockColoring, Coloring, CutEdgeRule, ExecModeU, GatherScratch, RankHalo,
};
use bwb_ops::{
    fused2_rows, par_loop2, par_loop2_reduce, par_loop2_rows, par_loop2_rows_nt, Dat2, DistBlock2,
    ExecMode, FusedLoop2, FusionGroupCert, LoopChain2, NtCert, OptPlan, Profile, Range2, RowIn2,
    RowOut2,
};
use bwb_serve::{
    http, CacheKey, ExecContext, Job, ResultCache, ServerConfig, ShardPool, TraceStore,
};
use bwb_shmpi::{Comm, MailboxKind, ReduceOp, Universe};
use bwb_stream::babel::{BabelStream, Par};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

struct Ctx<'a> {
    spans: &'a Spans,
    /// Probe `ops` out of cache (the workload is a `clover_mem` one).
    ops_mem: bool,
    /// Probe `op2` out of cache (the workload is `mgcfd_mem`).
    op2_mem: bool,
    quick: bool,
    host: &'a Host,
}

/// Seconds of each call of `f`, calling until both `min_reps` calls and
/// `min_seconds` have gone by — or, for a probe that takes seconds per call,
/// until one second is spent: one sample of a long probe is steadier than
/// three of a short one, and the traced run has a time cap to keep.
fn reps(min_reps: usize, min_seconds: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_secs_f64());
        let spent = start.elapsed().as_secs_f64();
        if (out.len() >= min_reps && spent >= min_seconds) || spent >= 1.0 {
            return out;
        }
    }
}

impl Ctx<'_> {
    /// Median seconds per call of `f`, recorded as one span under `layer`
    /// that carries the probe's counts.
    fn probe(&self, layer: usize, name: &str, counts: &[(&str, f64)], f: impl FnMut()) -> f64 {
        let id = self.spans.open(name, Some(layer));
        let (min_reps, min_seconds) = if self.quick { (2, 0.0) } else { (3, 0.3) };
        let secs = reps(min_reps, min_seconds, f);
        let mut all = counts.to_vec();
        all.push(("reps", secs.len() as f64));
        self.spans.close_with(id, &all);
        median(&secs)
    }
}

fn stream_layer(ctx: &Ctx, m: &mut Metrics) {
    let layer = ctx.spans.open("stream", None);
    // Four times the last-level cache per array is what separates memory
    // from cache; without a reported LLC, 256 MiB per array.
    let llc = ctx.host.llc_bytes as usize;
    let array_bytes = match (ctx.quick, llc) {
        (true, _) => 1 << 19,
        (false, 0) => 256 << 20,
        (false, llc) => 4 * llc,
    };
    println!("stream: array_bytes={array_bytes} x3 llc_bytes={llc}");
    let elems = array_bytes / 8;
    let first_touch = ctx.spans.open("stream.first_touch", Some(layer));
    let mut big = BabelStream::new(elems, Par::Rayon);
    // `c` starts as zeros, which the allocator hands out untouched: reads
    // of it would all hit one shared zero page. The first copy makes it
    // real memory.
    big.copy();
    ctx.spans
        .close_with(first_touch, &[("bytes", 3.0 * array_bytes as f64)]);
    let triad_bytes = 3.0 * array_bytes as f64;
    let triad_s = ctx.probe(layer, "stream.triad", &[("bytes", triad_bytes)], || {
        big.triad()
    });
    m.set("stream.triad_gbs", triad_bytes / triad_s / 1e9);
    let copy_bytes = 2.0 * array_bytes as f64;
    let copy_s = ctx.probe(layer, "stream.copy", &[("bytes", copy_bytes)], || {
        big.copy()
    });
    m.set("stream.copy_gbs", copy_bytes / copy_s / 1e9);
    drop(big);

    // Half of one core's L2 across the three arrays, one thread.
    let small_elems = (ctx.host.l2_bytes as usize / 2 / 3 / 8).max(1024);
    let mut small = BabelStream::new(small_elems, Par::Serial);
    const BATCH: usize = 1000;
    let batch_bytes = (BATCH * 3 * small_elems * 8) as f64;
    let batch_s = ctx.probe(
        layer,
        "stream.triad_cache",
        &[("bytes", batch_bytes)],
        || {
            for _ in 0..BATCH {
                small.triad();
            }
        },
    );
    m.set("stream.triad_cache_gbs", batch_bytes / batch_s / 1e9);
    ctx.spans.close(layer);
}

fn machine_layer(ctx: &Ctx, m: &mut Metrics) {
    let round_trips = if ctx.quick { 320 } else { 200_000 };
    let probe = ctx.spans.scope("machine", None, |_| {
        bwb_machine::probe::measure_thread_latency(round_trips)
    });
    m.set("machine.c2c_latency_ns", probe.one_way_ns);
}

fn produce(_j: isize, out: &mut RowOut2<f64>, ins: &RowIn2<f64>) {
    let (a, b) = (ins.row(0), ins.row(1));
    let c = out.row(0);
    for i in 0..c.len() {
        c[i] = a[i] + 0.5 * b[i];
    }
}

fn consume(_j: isize, out: &mut RowOut2<f64>, ins: &RowIn2<f64>) {
    let (c, a) = (ins.row(0), ins.row(1));
    let d = out.row(0);
    for i in 0..d.len() {
        d[i] = c[i] + a[i];
    }
}

/// The `ops` probe: a producer loop `c = a + b/2` and a consumer loop
/// `d = c + a`, 48 computed bytes per point for the pair, through every
/// driver the engine has.
fn ops_layer(ctx: &Ctx, m: &mut Metrics) {
    let layer = ctx.spans.open("ops", None);
    let (nx, ny, mode) = match (ctx.quick, ctx.ops_mem) {
        (true, _) => (64, 32, ExecMode::Rayon),
        (false, true) => (2880, 2880, ExecMode::Rayon),
        // One rank's block of clover_dist_cache, run the way a rank runs it.
        (false, false) => (64, 128, ExecMode::Serial),
    };
    println!("ops: probe grid {nx}x{ny} {mode:?}");
    let range = Range2::interior(nx, ny);
    let mut store: Vec<Dat2<f64>> = ["a", "b", "c", "d"]
        .iter()
        .map(|name| Dat2::new(name, nx, ny, 2))
        .collect();
    store[0].fill_all(1.0);
    store[1].fill_all(2.0);
    let plan = OptPlan {
        app: "bwb-perf-probe".into(),
        groups: vec![FusionGroupCert {
            start: 0,
            names: vec!["produce".into(), "consume".into()],
        }],
        nt: vec![
            NtCert {
                loop_name: "produce".into(),
                dat: "c".into(),
            },
            NtCert {
                loop_name: "consume".into(),
                dat: "d".into(),
            },
        ],
        ..OptPlan::default()
    };

    // Each driver runs the pair; GB/s is the pair's computed bytes over the
    // median wall time of one pass.
    let mut gbs = |name: &'static str, pass: &mut dyn FnMut(&mut Profile, &mut [Dat2<f64>])| {
        let mut profile = Profile::new();
        let mut calls = 0usize;
        let span = format!("{name}.pair");
        let counts = [("bytes", (range.points() * 48) as f64)];
        let seconds = ctx.probe(layer, &span, &counts, || {
            pass(&mut profile, &mut store);
            calls += 1;
        });
        m.set(
            name,
            profile.total_bytes() as f64 / calls as f64 / seconds / 1e9,
        );
    };
    gbs("ops.closure_gbs", &mut |p, s| {
        let (ab, cd) = s.split_at_mut(2);
        let (c, d) = cd.split_at_mut(1);
        par_loop2(
            p,
            "produce",
            mode,
            range,
            &mut [&mut c[0]],
            &[&ab[0], &ab[1]],
            2.0,
            |_, _, out, ins| {
                out.set(0, ins.get(0, 0, 0) + 0.5 * ins.get(1, 0, 0));
            },
        );
        par_loop2(
            p,
            "consume",
            mode,
            range,
            &mut [&mut d[0]],
            &[&c[0], &ab[0]],
            1.0,
            |_, _, out, ins| {
                out.set(0, ins.get(0, 0, 0) + ins.get(1, 0, 0));
            },
        );
    });
    gbs("ops.rows_gbs", &mut |p, s| {
        let (ab, cd) = s.split_at_mut(2);
        let (c, d) = cd.split_at_mut(1);
        par_loop2_rows(
            p,
            "produce",
            mode,
            range,
            &mut [&mut c[0]],
            &[&ab[0], &ab[1]],
            2.0,
            produce,
        );
        par_loop2_rows(
            p,
            "consume",
            mode,
            range,
            &mut [&mut d[0]],
            &[&c[0], &ab[0]],
            1.0,
            consume,
        );
    });
    // Fused store indices: c = 0, d = 1 (written), then a = 2, b = 3.
    let fused = [
        FusedLoop2::new("produce", &[0], &[2, 3], 2.0, produce),
        FusedLoop2::new("consume", &[1], &[0, 2], 1.0, consume),
    ];
    gbs("ops.fused_gbs", &mut |p, s| {
        let (ab, cd) = s.split_at_mut(2);
        let (c, d) = cd.split_at_mut(1);
        fused2_rows(
            p,
            mode,
            range,
            &mut [&mut c[0], &mut d[0]],
            &[&ab[0], &ab[1]],
            &fused,
            &plan,
        )
        .expect("the probe's own plan certifies its own pair");
    });
    gbs("ops.nt_gbs", &mut |p, s| {
        let (ab, cd) = s.split_at_mut(2);
        let (c, d) = cd.split_at_mut(1);
        par_loop2_rows_nt(
            p,
            "produce",
            mode,
            range,
            &mut [&mut c[0]],
            &[&ab[0], &ab[1]],
            2.0,
            &plan,
            produce,
        );
        par_loop2_rows_nt(
            p,
            "consume",
            mode,
            range,
            &mut [&mut d[0]],
            &[&c[0], &ab[0]],
            1.0,
            &plan,
            consume,
        );
    });
    let mut chain = LoopChain2::<f64>::new(mode);
    chain.add(
        "produce",
        range,
        0,
        2.0,
        vec![2],
        vec![0, 1],
        |_, _, out, ins| {
            out.set(0, ins.get(0, 0, 0) + 0.5 * ins.get(1, 0, 0));
        },
    );
    chain.add(
        "consume",
        range,
        0,
        1.0,
        vec![3],
        vec![2, 0],
        |_, _, out, ins| {
            out.set(0, ins.get(0, 0, 0) + ins.get(1, 0, 0));
        },
    );
    // Rows of four fields that fit half of one core's L2.
    let tile_height = (ctx.host.l2_bytes as usize / 2 / (4 * (nx + 4) * 8)).clamp(4, ny);
    gbs("ops.tiled_gbs", &mut |p, s| {
        chain.execute_tiled(s, p, tile_height)
    });
    gbs("ops.reduce_gbs", &mut |p, s| {
        let sum = par_loop2_reduce(
            p,
            "sum",
            mode,
            range,
            &[&s[0], &s[1]],
            0.0f64,
            1.0,
            |_, _, ins| ins.get(0, 0, 0) + ins.get(1, 0, 0),
            |x, y| x + y,
        );
        black_box(sum);
    });
    // d = (a + b/2) + a everywhere, whichever driver ran last.
    assert_eq!(
        store[3].get(0, 0),
        3.0,
        "ops probe computed the wrong field"
    );

    // Cost of launching one loop: a single row, so the body is nothing.
    let one_row = Range2::new(0, nx as isize, 0, 1);
    let launches = if ctx.quick { 200 } else { 20_000 };
    let mut profile = Profile::new();
    let batch_s = ctx.probe(
        layer,
        "ops.loop_dispatch",
        &[("loops", launches as f64)],
        || {
            let (ab, cd) = store.split_at_mut(2);
            for _ in 0..launches {
                par_loop2_rows(
                    &mut profile,
                    "row",
                    mode,
                    one_row,
                    &mut [&mut cd[0]],
                    &[&ab[0], &ab[1]],
                    2.0,
                    produce,
                );
            }
        },
    );
    m.set("ops.loop_dispatch_us", batch_s / launches as f64 * 1e6);

    // Depth-2 halo exchange of one field between two ranks.
    let (gnx, gny) = if ctx.ops_mem && !ctx.quick {
        (2880, 2880)
    } else {
        (128, 128)
    };
    let exchanges = if ctx.quick { 50 } else { 2_000 };
    let span = ctx.spans.open("ops.halo_exchange", Some(layer));
    let out = Universe::run_with_mailbox(2, MailboxKind::Locked, |comm| {
        let block = DistBlock2::new(comm, gnx, gny);
        let mut field = block.alloc_f64("h", 2);
        field.fill_all(comm.rank() as f64);
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..exchanges {
            block.exchange_halo(comm, &mut field, 2);
        }
        t0.elapsed().as_secs_f64() / exchanges as f64
    });
    let sent = out.stats.total();
    let counts = [
        ("messages", sent.sends as f64),
        ("bytes", sent.bytes_sent as f64),
    ];
    ctx.spans.close_with(span, &counts);
    m.set("ops.halo_exchange_us", out.results[0] * 1e6);
    ctx.spans.close(layer);
}

/// Two-rank micro-benchmarks of one transport; per-op seconds from rank 0.
struct ShmpiTimes {
    pingpong: f64,
    big_pingpong: f64,
    allreduce: f64,
    barrier: f64,
}

const BIG_ELEMS: usize = (1 << 20) / 8;

fn shmpi_times(kind: MailboxKind, n: usize, big_n: usize) -> (ShmpiTimes, f64, f64) {
    let pingpong = |comm: &mut Comm, n: usize, elems: usize| {
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..n {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0f64; elems]);
                black_box(comm.recv::<f64>(1, 8));
            } else {
                let got = comm.recv::<f64>(0, 7);
                comm.send(0, 8, got);
            }
        }
        t0.elapsed().as_secs_f64() / n as f64
    };
    let out = Universe::run_with_mailbox(2, kind, |comm| {
        let small = pingpong(comm, n, 1);
        let big = pingpong(comm, big_n, BIG_ELEMS);
        comm.barrier();
        let t0 = Instant::now();
        for i in 0..n {
            black_box(comm.allreduce_scalar(i as f64, ReduceOp::Sum));
        }
        let allreduce = t0.elapsed().as_secs_f64() / n as f64;
        let t0 = Instant::now();
        for _ in 0..n {
            comm.barrier();
        }
        let barrier = t0.elapsed().as_secs_f64() / n as f64;
        ShmpiTimes {
            pingpong: small,
            big_pingpong: big,
            allreduce,
            barrier,
        }
    });
    let total = out.stats.total();
    let rank0 = out.results.into_iter().next().expect("rank 0 ran");
    (rank0, total.sends as f64, total.bytes_sent as f64)
}

fn shmpi_layer(ctx: &Ctx, m: &mut Metrics) {
    let layer = ctx.spans.open("shmpi", None);
    let (n, big_n, spawns) = if ctx.quick {
        (200, 5, 5)
    } else {
        (10_000, 100, 200)
    };
    let measure = |name: &str, kind| {
        let span = ctx.spans.open(name, Some(layer));
        let (times, messages, bytes) = shmpi_times(kind, n, big_n);
        ctx.spans
            .close_with(span, &[("messages", messages), ("bytes", bytes)]);
        times
    };
    let locked = measure("shmpi.locked", MailboxKind::Locked);
    m.set("shmpi.pingpong_us", locked.pingpong * 1e6);
    // One round trip moves the 1 MiB payload there and back.
    m.set(
        "shmpi.msg_gbs",
        2.0 * (BIG_ELEMS * 8) as f64 / locked.big_pingpong / 1e9,
    );
    m.set("shmpi.allreduce_us", locked.allreduce * 1e6);
    m.set("shmpi.barrier_us", locked.barrier * 1e6);
    let spsc = measure("shmpi.spsc", MailboxKind::Spsc);
    m.set("shmpi.pingpong_spsc_us", spsc.pingpong * 1e6);

    let span = ctx.spans.open("shmpi.universe_spawn", Some(layer));
    let secs = reps(spawns, 0.0, || {
        Universe::run_with_mailbox(2, MailboxKind::Locked, |comm| black_box(comm.rank()));
    });
    ctx.spans
        .close_with(span, &[("universes", secs.len() as f64)]);
    m.set("shmpi.universe_spawn_us", median(&secs) * 1e6);
    ctx.spans.close(layer);
}

/// Bytes `compute_flux` accounts per edge: two node states and the weights
/// read, two residuals incremented.
const EDGE_BYTES: usize = (2 * NVAR + 2 + 2 * NVAR) * 8;

/// `op2` probes on the fine level of a benchmark-owned MG-CFD mesh, and the
/// MG-CFD phases of `apps` called one by one on that level.
fn op2_layer(ctx: &Ctx, seed: u64, m: &mut Metrics) -> f64 {
    let layer = ctx.spans.open("op2", None);
    let n = match (ctx.quick, ctx.op2_mem) {
        (true, _) => 33,
        (false, true) => 2049,
        (false, false) => 65,
    };
    let build = ctx.spans.open("op2.mesh_build", Some(layer));
    let mut sim = mgcfd::MgCfd::new(workloads::mgcfd_cfg(n, seed));
    ctx.spans.close(build);
    sim.perturb(0.05);
    let n_nodes = sim.levels[0].nodes.size;
    let n_edges = sim.levels[0].edges.size;
    println!("op2: probe mesh n={n} nodes={n_nodes} edges={n_edges}");

    // apps: one call of each MG-CFD phase on the fine level.
    let mut profile = Profile::new();
    let h = 1.0 / n as f64;
    let flux_s = ctx.probe(layer, "apps.mgcfd_flux", &[], || {
        sim.compute_flux(&mut profile, 0)
    });
    let step_s = ctx.probe(layer, "apps.mgcfd_time_step", &[], || {
        sim.time_step(&mut profile, 0, 0.2 * h)
    });
    let restrict_s = ctx.probe(layer, "apps.mgcfd_restrict", &[], || {
        sim.restrict_to(&mut profile, 0)
    });
    let prolong_s = ctx.probe(layer, "apps.mgcfd_prolong", &[], || {
        sim.prolong_from(&mut profile, 0)
    });
    m.set("apps.mgcfd_flux_ms", flux_s * 1e3);
    m.set("apps.mgcfd_time_step_ms", step_s * 1e3);
    m.set("apps.mgcfd_restrict_ms", restrict_s * 1e3);
    m.set("apps.mgcfd_prolong_ms", prolong_s * 1e3);
    // A V-cycle runs 3 fluxes, 2 time steps, 1 restrict and 1 prolong on
    // the fine level, and each coarser level is a quarter of the one above.
    let v_cycle_model_ms = (3.0 * flux_s + 2.0 * step_s + restrict_s + prolong_s) * 4.0 / 3.0 * 1e3;

    let lv = &sim.levels[0];
    let (e2n, weights) = (&lv.e2n, &lv.weights);
    let mode = ExecModeU::Colored;
    {
        let (q, res) = (&mut sim.q[0], &sim.res[0]);
        let bytes = 3 * NVAR * 8;
        let secs = ctx.probe(
            layer,
            "op2.direct",
            &[("bytes", (n_nodes * bytes) as f64)],
            || {
                par_loop_direct(
                    &mut profile,
                    "direct",
                    mode,
                    n_nodes,
                    &mut [&mut *q],
                    bytes,
                    8.0,
                    |nid, out| {
                        for c in 0..NVAR {
                            out.set(0, nid, c, out.get(0, nid, c) + 1e-12 * res.get(nid, c));
                        }
                    },
                );
            },
        );
        m.set("op2.direct_gbs", (n_nodes * bytes) as f64 / secs / 1e9);
    }
    let (q, res) = (&sim.q[0], &mut sim.res[0]);
    let edge_bytes = (n_edges * EDGE_BYTES) as f64;
    // The access pattern of `compute_flux` without its arithmetic: gather
    // two node states through the map, increment two residuals.
    macro_rules! edge_kernel {
        () => {
            |e, out| {
                let (a, b) = (e2n.get(e, 0), e2n.get(e, 1));
                let w = weights.get(e, 0) + weights.get(e, 1);
                for c in 0..NVAR {
                    let f = w * (q.get(b, c) - q.get(a, c));
                    out.add(0, a, c, f);
                    out.add(0, b, c, -f);
                }
            }
        };
    }
    let secs = ctx.probe(layer, "op2.colored", &[("bytes", edge_bytes)], || {
        par_loop_colored(
            &mut profile,
            "colored",
            mode,
            &lv.coloring,
            &mut [&mut *res],
            EDGE_BYTES,
            16.0,
            edge_kernel!(),
        );
    });
    m.set("op2.colored_gbs", edge_bytes / secs / 1e9);

    let blocks = BlockColoring::greedy(n_edges, 1024, &[e2n]);
    let secs = ctx.probe(layer, "op2.block_colored", &[("bytes", edge_bytes)], || {
        par_loop_block_colored(
            &mut profile,
            "block_colored",
            mode,
            &blocks,
            &mut [&mut *res],
            EDGE_BYTES,
            16.0,
            edge_kernel!(),
        );
    });
    m.set("op2.block_colored_gbs", edge_bytes / secs / 1e9);

    let mut scratch = GatherScratch::new();
    let staged = 2 * NVAR * 8;
    let gather_bytes = (n_edges * (EDGE_BYTES + 2 * staged)) as f64;
    let secs = ctx.probe(layer, "op2.gather", &[("bytes", gather_bytes)], || {
        par_loop_gather(
            &mut profile,
            "gather",
            8,
            n_edges,
            &mut [&mut *res],
            &mut scratch,
            EDGE_BYTES,
            staged,
            16.0,
            edge_kernel!(),
        );
    });
    m.set("op2.gather_gbs", gather_bytes / secs / 1e9);

    let span = ctx.spans.open("op2.color_build", Some(layer));
    let t0 = Instant::now();
    let rebuilt = Coloring::greedy(n_edges, &[e2n]);
    m.set("op2.color_build_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.spans.close_with(span, &[("edges", n_edges as f64)]);
    assert!(rebuilt.validate(&[e2n]), "greedy colouring has a conflict");
    m.set("op2.n_colors", lv.coloring.n_colors as f64);
    m.set("op2.schedule_stride", lv.coloring.mean_schedule_stride());

    let span = ctx.spans.open("op2.rcb_partition", Some(layer));
    let t0 = Instant::now();
    let node_part = rcb_partition(lv.coords.raw(), 2, 2);
    m.set("op2.rcb_partition_ms", t0.elapsed().as_secs_f64() * 1e3);
    ctx.spans.close_with(span, &[("nodes", n_nodes as f64)]);

    let edge_part = edge_ownership(e2n, &node_part, CutEdgeRule::Parity);
    let exchanges = if ctx.quick { 10 } else { 200 };
    let span = ctx.spans.open("op2.rank_halo_exchange", Some(layer));
    let out = Universe::run_with_mailbox(2, MailboxKind::Locked, |comm| {
        let halo = RankHalo::build(e2n, &edge_part, &node_part, 2, comm.rank());
        let mut ghosted = q.clone();
        comm.barrier();
        let t0 = Instant::now();
        for _ in 0..exchanges {
            halo.exchange(comm, &mut ghosted);
        }
        t0.elapsed().as_secs_f64() / exchanges as f64
    });
    let sent = out.stats.total();
    let counts = [
        ("messages", sent.sends as f64),
        ("bytes", sent.bytes_sent as f64),
    ];
    ctx.spans.close_with(span, &counts);
    m.set("op2.rank_halo_exchange_us", out.results[0] * 1e6);
    ctx.spans.close(layer);
    v_cycle_model_ms
}

fn dslcheck_layer(ctx: &Ctx, m: &mut Metrics) {
    let layer = ctx.spans.open("dslcheck", None);
    let mut plan = None;
    let plan_s = ctx.probe(layer, "dslcheck.static_plan", &[], || {
        plan = bwb_dslcheck::static_plan("cloverleaf2d");
    });
    m.set("dslcheck.static_plan_ms", plan_s * 1e3);
    let certs = plan.map_or(0, |p| p.groups.len() + p.elisions.len() + p.nt.len());
    m.set("dslcheck.plan_certs", certs as f64);
    let all_s = ctx.probe(layer, "dslcheck.static_all", &[], || {
        black_box(bwb_dslcheck::static_all());
    });
    m.set("dslcheck.static_all_ms", all_s * 1e3);
    let platform = bwb_machine::platforms::xeon_max_9480();
    let search_s = ctx.probe(layer, "dslcheck.placement_search", &[], || {
        black_box(bwb_dslcheck::placecheck::search::search(
            "cloverleaf2d",
            16,
            &platform,
        ));
    });
    m.set("dslcheck.placement_search_ms", search_s * 1e3);
    ctx.spans.close(layer);
}

fn model_layer(ctx: &Ctx, m: &mut Metrics) {
    use bwb_perfmodel::figures as f;
    let layer = ctx.spans.open("perfmodel", None);
    let platform = bwb_machine::platforms::xeon_max_9480();
    let figures_s = ctx.probe(layer, "perfmodel.all_figures", &[], || {
        black_box(f::figure3_structured_matrix(&platform));
        black_box(f::figure4_unstructured_matrix(&platform));
        black_box(f::figure5_parallelization_speedups());
        black_box(f::figure6_platform_comparison());
        black_box(f::figure7_mpi_fractions());
        black_box(f::figure8_effective_bandwidth());
        black_box(f::figure9_tiling());
    });
    m.set("perfmodel.all_figures_ms", figures_s * 1e3);
    ctx.spans.close(layer);

    let layer = ctx.spans.open("memsim", None);
    let elems: u64 = if ctx.quick { 1 << 14 } else { 1 << 22 };
    let lines = elems * 8 / 64;
    let mut sim = bwb_memsim::CacheSim::new(2 << 20, 16, 64);
    let replay_s = ctx.probe(layer, "memsim.cachesim", &[("lines", lines as f64)], || {
        sim.stream(0, elems, 8, bwb_memsim::AccessKind::Read);
    });
    m.set("memsim.cachesim_mlines_s", lines as f64 / replay_s / 1e6);
    ctx.spans.close(layer);
}

/// `serve` probes that need no traffic mix, the pieces of the request path
/// called one by one, then what the run's own traffic showed.
fn serve_layer(ctx: &Ctx, seed: u64, run: &Run, m: &mut Metrics) {
    let layer = ctx.spans.open("serve", None);
    let cfg = ServerConfig::default();
    let machine = bwb_serve::key::machine_fingerprint(&cfg.platform);
    let bodies = catalog::build(seed, 200);
    let parse_s = ctx.probe(
        layer,
        "serve.parse_key",
        &[("specs", bodies.len() as f64)],
        || {
            for body in &bodies {
                let doc = bwb_trace::json::parse(body).expect("catalog bodies are JSON");
                let job = Job::parse(&doc).expect("catalog bodies are jobs");
                black_box(job.cache_key(&machine));
            }
        },
    );
    m.set("serve.parse_key_us", parse_s / bodies.len() as f64 * 1e6);

    const KEYS: u64 = 2_000;
    let payload = "x".repeat(300);
    let mut insert_s = Vec::new();
    let mut get_s = Vec::new();
    let span = ctx.spans.open("serve.cache", Some(layer));
    for _ in 0..5 {
        let cache = ResultCache::new();
        let t0 = Instant::now();
        for k in 0..KEYS {
            cache.insert(
                CacheKey(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                payload.clone(),
            );
        }
        insert_s.push(t0.elapsed().as_secs_f64() / KEYS as f64);
        let t0 = Instant::now();
        for k in 0..KEYS {
            black_box(cache.get(CacheKey(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))));
        }
        get_s.push(t0.elapsed().as_secs_f64() / KEYS as f64);
    }
    ctx.spans.close_with(span, &[("keys", KEYS as f64)]);
    m.set("serve.cache_insert_us", median(&insert_s) * 1e6);
    m.set("serve.cache_get_us", median(&get_s) * 1e6);

    let server = LiveServer::start();
    let pings = if ctx.quick { 20 } else { 500 };
    let span = ctx.spans.open("serve.http_healthz", Some(layer));
    let secs = reps(pings, 0.0, || {
        let health = http::request(&server.addr, "GET", "/healthz", None);
        assert!(health.is_ok_and(|r| r.status == 200), "healthz");
    });
    ctx.spans
        .close_with(span, &[("requests", secs.len() as f64)]);
    m.set("serve.http_healthz_us", median(&secs) * 1e6);
    server.stop();

    // What the misses of the run cost without the server around them.
    let (serve, requests) = match &run.serve {
        Some(s) => (s.clone(), run.op_ms.as_slice()),
        None => (ServeStats::default(), &[][..]),
    };
    let exec = ExecContext {
        shards: Arc::new(ShardPool::new(cfg.platform.clone(), cfg.shards, cfg.policy)),
        traces: Arc::new(TraceStore::new()),
    };
    let span = ctx.spans.open("serve.exec", Some(layer));
    let exec_ms: Vec<f64> = serve
        .missed
        .iter()
        .take(if ctx.quick { 4 } else { 40 })
        .enumerate()
        .map(|(i, body)| {
            let doc = bwb_trace::json::parse(body).expect("a served body is JSON");
            let job = Job::parse(&doc).expect("a served body is a job");
            let t0 = Instant::now();
            black_box(
                job.execute(&exec, i as u64 + 1)
                    .expect("a served job executes"),
            );
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ctx.spans
        .close_with(span, &[("jobs", exec_ms.len() as f64)]);
    m.set(
        "serve.exec_ms_p50",
        if exec_ms.is_empty() {
            0.0
        } else {
            median(&exec_ms)
        },
    );

    m.set("serve.hit_ms_p50", serve.hit_ms_p50);
    m.set("serve.miss_ms_p50", serve.miss_ms_p50);
    m.set("serve.req_ms_p99", p99_of_thousand(requests));
    m.set("serve.req_per_s", requests.len() as f64 / run.solve_s);
    m.set("serve.hit_rate", serve.hit_rate);
    m.set("serve.coalesced_frac", serve.coalesced_frac);
    m.set("serve.rejected_frac", serve.rejected_frac);
    m.set("serve.bind_ms", serve.bind_ms);
    m.set("serve.drain_ms", serve.drain_ms);
    ctx.spans.close(layer);
}

/// The 99th percentile where ten samples lie beyond it (a thousand samples
/// or more); 0 for a sample too short to resolve it.
fn p99_of_thousand(ms: &[f64]) -> f64 {
    if tail_percentile(ms.len()) < 99.0 {
        0.0
    } else {
        percentile(ms, 99.0)
    }
}

/// Tracing cost, measured where it would hurt most: short re-runs of the
/// distributed cache-resident workload, which opens the most spans per
/// second. Returns whether the re-runs computed correctly.
fn trace_layer(ctx: &Ctx, sz: &Sizes, m: &mut Metrics) -> bool {
    let layer = ctx.spans.open("trace", None);
    let calls = if ctx.quick { 100_000 } else { 5_000_000 };
    bwb_trace::set_enabled(false);
    let span = ctx.spans.open("trace.off_call", Some(layer));
    let t0 = Instant::now();
    for _ in 0..calls {
        drop(black_box(bwb_trace::span(bwb_trace::Cat::Other, "probe")));
    }
    m.set(
        "trace.off_call_ns",
        t0.elapsed().as_secs_f64() / calls as f64 * 1e9,
    );
    ctx.spans.close_with(span, &[("calls", calls as f64)]);

    let short = Sizes {
        setup_reps: 2,
        dist_warmup: sz.dist_warmup.min(50),
        ..sz.clone()
    };
    let ops = if ctx.quick { 40 } else { 300 };
    let leg = |name: &str, spans: Option<&Spans>| {
        ctx.spans.scope(name, Some(layer), |_| {
            workloads::clover_dist(&short, ops, spans)
        })
    };
    let off = leg("trace.dist_off", None);
    bwb_trace::set_enabled(true);
    let on = leg("trace.dist_on", None);
    bwb_trace::set_enabled(false);
    bwb_trace::clear();
    let own = Spans::new("trace_probe");
    let spanned = leg("trace.dist_bench_spans", Some(&own));
    let p50 = |r: &Run| median(&r.op_ms);
    m.set("trace.on_overhead_frac", p50(&on) / p50(&off) - 1.0);
    m.set(
        "trace.bench_span_overhead_frac",
        p50(&spanned) / p50(&off) - 1.0,
    );
    ctx.spans.close(layer);
    [off, on, spanned]
        .iter()
        .all(|r| r.failed == 0 && r.side_checks_ok)
}

/// Run every layer probe and fill in every per-layer metric. Returns
/// whether the probes' own checks held.
pub fn run_all(
    workload: &str,
    sz: &Sizes,
    host: &Host,
    run: &Run,
    spans: &Spans,
    m: &mut Metrics,
) -> bool {
    let ctx = Ctx {
        spans,
        ops_mem: workload.starts_with("clover_mem"),
        op2_mem: workload == "mgcfd_mem",
        quick: sz.quick,
        host,
    };
    // The seed only shapes probe inputs; any fixed value would do.
    let seed = 1;
    let mut ok = true;

    let v_cycle_model_ms = op2_layer(&ctx, seed, m);
    ops_layer(&ctx, m);
    shmpi_layer(&ctx, m);
    machine_layer(&ctx, m);
    dslcheck_layer(&ctx, m);
    model_layer(&ctx, m);
    ok &= trace_layer(&ctx, sz, m);
    serve_layer(&ctx, seed, run, m);
    // Last: its first touch of three large arrays would otherwise sit in
    // the page cache's way for everything after it.
    stream_layer(&ctx, m);

    let triad = if ctx.ops_mem {
        "stream.triad_gbs"
    } else {
        "stream.triad_cache_gbs"
    };
    let (rows, roof) = (m.get("ops.rows_gbs"), m.get(triad));
    m.set(
        "ops.rows_roof_frac",
        rows.zip(roof).map_or(0.0, |(r, t)| r / t),
    );

    // Run-derived metrics: what the traced workload itself showed of each
    // layer, and 0 for a layer it does not run.
    let ops = run.op_ms.len() as f64;
    let per_step =
        |p: Option<ProfileSums>| p.map_or((0.0, 0.0), |p| (p.bytes / ops, p.loops / ops));
    let (bytes, loops) = per_step(run.ops_profile);
    m.set("ops.bytes_per_step", bytes);
    m.set("ops.loops_per_step", loops);
    m.set(
        "ops.profile_time_frac",
        run.ops_profile.map_or(0.0, |p| p.seconds / run.solve_s),
    );
    let (bytes, loops) = per_step(run.op2_profile);
    m.set("op2.bytes_per_step", bytes);
    m.set("op2.loops_per_step", loops);
    let dist = run.dist.unwrap_or_default();
    m.set("shmpi.wait_frac", dist.wait_seconds / run.solve_s);
    m.set("shmpi.msgs_per_step", dist.sends / ops);
    m.set("shmpi.bytes_per_step", dist.bytes_sent / ops);
    m.set("shmpi.unreceived", dist.unreceived);
    ok &= dist.unreceived == 0.0;

    // `apps`: the solver's own steps. A request of `serve_mix` is not one.
    let solver = run.ops_profile.or(run.op2_profile);
    let steps: &[f64] = if solver.is_some() { &run.op_ms } else { &[] };
    let of_steps = |p: f64| {
        if steps.is_empty() {
            0.0
        } else {
            percentile(steps, p)
        }
    };
    m.set("apps.step_ms_p50", of_steps(50.0));
    m.set("apps.step_ms_p90", of_steps(90.0));
    m.set("apps.step_ms_p99", p99_of_thousand(steps));
    m.set(
        "apps.eff_gbs",
        solver.map_or(0.0, |p| p.bytes / run.solve_s / 1e9),
    );
    m.set(
        "apps.flops_per_byte",
        solver.map_or(0.0, |p| p.flops / p.bytes),
    );
    m.set("apps.warmup_ms", run.warmup_ms);
    m.set("apps.validation", run.validation);
    if workload == "mgcfd_mem" {
        println!(
            "apps: fine-level phase model of a V-cycle = {v_cycle_model_ms:.1} ms, measured p50 = {:.1} ms",
            median(&run.op_ms)
        );
    }
    ok
}
