//! The five workloads. Each builds its inputs from the seed, times its
//! set-up several times, warms up, runs a fixed number of ops with one
//! `Instant` pair per op, and checks what the ops computed.
//!
//! Sizes are constants: a `_mem` workload that shrank would slide back into
//! the cache and stop measuring memory. Only op *counts* scale, by
//! `--seconds / RUN_SECONDS`.

use crate::catalog;
use crate::host;
use crate::spans::Spans;
use bwb_apps::{cloverleaf2d as clover, mgcfd};
use bwb_op2::ExecModeU;
use bwb_ops::{ExecMode, Profile};
use bwb_serve::{http, Server, ServerConfig, ServerState};
use bwb_shmpi::{MailboxKind, Universe};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Sizes and op counts. `full()` is the benchmark; `quick()` is the same
/// code at toy sizes, for the end-to-end test only.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub quick: bool,
    /// Set-up repetitions; the first is discarded.
    pub setup_reps: usize,
    pub clover_n: usize,
    pub clover_warmup: usize,
    pub clover_ops: usize,
    pub dist_n: usize,
    pub dist_warmup: usize,
    pub dist_ops: usize,
    pub mgcfd_n: usize,
    pub mgcfd_setup_reps: usize,
    pub mgcfd_ops: usize,
    pub serve_catalog: usize,
    pub serve_requests: usize,
}

impl Sizes {
    /// Op counts give a timed region of about `RUN_SECONDS` (16 s) on the
    /// 2-vCPU sandbox, whose speed on memory moves between a quiet and a
    /// busy phase: 0.5 – 0.75 s per 2880² hydro cycle (12 – 18 s), 3.9 – 6.3 s
    /// per V-cycle on 4.2 M nodes (three: 12 – 19 s, and the fewest whose
    /// median shrugs off one slow cycle), 1.9 – 2.6 ms per distributed 128²
    /// cycle, 1.3 ms per request of the mix.
    pub fn full() -> Sizes {
        Sizes {
            quick: false,
            setup_reps: 9,
            clover_n: 2880,
            clover_warmup: 3,
            clover_ops: 24,
            dist_n: 128,
            dist_warmup: 200,
            dist_ops: 6000,
            mgcfd_n: 2049,
            mgcfd_setup_reps: 5,
            mgcfd_ops: 3,
            serve_catalog: catalog::CATALOG_SIZE,
            serve_requests: 12000,
        }
    }

    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            setup_reps: 3,
            clover_n: 96,
            clover_warmup: 1,
            clover_ops: 8,
            dist_n: 32,
            dist_warmup: 5,
            dist_ops: 40,
            mgcfd_n: 65,
            mgcfd_setup_reps: 3,
            mgcfd_ops: 2,
            serve_catalog: 64,
            serve_requests: 120,
        }
    }
}

/// Sums over the loops of a `Profile`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileSums {
    pub bytes: f64,
    pub flops: f64,
    pub loops: f64,
    pub seconds: f64,
}

impl ProfileSums {
    fn of(p: &Profile) -> ProfileSums {
        ProfileSums {
            bytes: p.total_bytes() as f64,
            flops: p.total_flops(),
            loops: p.records().iter().map(|r| r.calls as f64).sum(),
            seconds: p.total_seconds(),
        }
    }

    fn add(&mut self, o: &ProfileSums) {
        self.bytes += o.bytes;
        self.flops += o.flops;
        self.loops += o.loops;
        // Ranks run side by side: the region's profile time is one rank's.
        self.seconds = self.seconds.max(o.seconds);
    }
}

/// Message counts of the timed region of a distributed run, all ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct DistStats {
    pub sends: f64,
    pub bytes_sent: f64,
    /// Mean over ranks of the seconds blocked in receive or reduce.
    pub wait_seconds: f64,
    pub unreceived: f64,
}

/// What the clients of `serve_mix` saw.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    pub hit_ms_p50: f64,
    pub miss_ms_p50: f64,
    pub hit_rate: f64,
    pub coalesced_frac: f64,
    pub rejected_frac: f64,
    pub bind_ms: f64,
    pub drain_ms: f64,
    /// Bodies of requests answered `X-Cache: miss`, in arrival order.
    pub missed: Vec<String>,
}

/// One run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Seconds of each kept set-up repetition.
    pub setup_s: Vec<f64>,
    pub warmup_ms: f64,
    pub op_ms: Vec<f64>,
    pub solve_s: f64,
    pub failed: u64,
    /// Checks that are not an op: bit-identity side run, payload equality.
    pub side_checks_ok: bool,
    pub validation: f64,
    /// Resident megabytes once the state is built and warm.
    pub resident_mb: f64,
    /// Loop profile of the timed region, under the layer whose loops it
    /// holds: `ops` for the CloverLeaf workloads, `op2` for MG-CFD.
    pub ops_profile: Option<ProfileSums>,
    pub op2_profile: Option<ProfileSums>,
    pub dist: Option<DistStats>,
    pub serve: Option<ServeStats>,
    pub notes: Vec<String>,
}

/// Time set-ups: at least `reps` of them, and more while they are so short
/// that a quarter of a second is not yet spent (a 1 ms set-up needs a
/// hundred samples before its median stops moving); `reps` of 2 means the
/// caller wants a token sample only. The state each one
/// built is disposed of off the clock, and the first repetition (cold
/// allocator, cold code) is discarded.
fn time_setups<S>(reps: usize, mut build: impl FnMut() -> S, dispose: impl Fn(S)) -> Vec<f64> {
    let mut out = Vec::with_capacity(reps);
    let mut spent = 0.0;
    while out.len() < reps || (reps > 2 && spent < 0.25 && out.len() < 200) {
        let t0 = Instant::now();
        let state = build();
        out.push(t0.elapsed().as_secs_f64());
        spent += out[out.len() - 1];
        dispose(state);
    }
    out.split_off(1)
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn clover_cfg(n: usize, mode: ExecMode, plan: Option<bwb_ops::OptPlan>) -> clover::Config {
    clover::Config {
        nx: n,
        ny: n,
        iterations: 0,
        cfl: 0.5,
        mode,
        advection: clover::Advection::VanLeer,
        plan,
    }
}

fn static_plan() -> bwb_ops::OptPlan {
    bwb_dslcheck::static_plan("cloverleaf2d").expect("cloverleaf2d has a clean static plan")
}

/// Three steps at 256² with and without the plan must leave the same bits
/// in the density field: the plan only reorders certified-equivalent work.
fn plan_is_bit_identical() -> bool {
    let run = |plan| {
        let mut sim = clover::Clover2::new(clover_cfg(256, ExecMode::Rayon, plan));
        let mut profile = Profile::new();
        for _ in 0..3 {
            sim.cycle(&mut profile, None);
        }
        sim
    };
    let (base, planned) = (run(None), run(Some(static_plan())));
    let bits = |s: &clover::Clover2| -> Vec<u64> {
        s.density().raw().iter().map(|v| v.to_bits()).collect()
    };
    bits(&base) == bits(&planned)
}

/// `clover_mem` and `clover_mem_plan`: CloverLeaf 2D out of cache, threaded.
pub fn clover_mem(sz: &Sizes, with_plan: bool, ops: usize, spans: Option<&Spans>) -> Run {
    let build = || {
        let plan = with_plan.then(static_plan);
        clover::Clover2::new(clover_cfg(sz.clover_n, ExecMode::Rayon, plan))
    };
    let setup_s = time_setups(sz.setup_reps, build, drop);
    let mut sim = build();
    let mut scratch = Profile::new();
    let (mass0, _) = sim.field_summary(&mut scratch);

    // `Clover2::new` allocates zeroed pages lazily; the first cycles pay
    // for them. They run here, off the clock.
    let t_warm = Instant::now();
    for _ in 0..sz.clover_warmup {
        sim.cycle(&mut scratch, None);
    }
    let warmup_ms = ms(t_warm);
    let resident_mb = host::rss_mb();

    let mut profile = Profile::new();
    let mut op_ms = Vec::with_capacity(ops);
    let mut bad_dt = 0u64;
    let region = Spans::open_in(spans, "timed_region", None);
    let t_solve = Instant::now();
    for _ in 0..ops {
        let span = Spans::open_in(spans, "op", region);
        let t0 = Instant::now();
        let dt = sim.cycle(&mut profile, None);
        op_ms.push(ms(t0));
        Spans::close_in(spans, span, &[]);
        if !(dt.is_finite() && dt > 0.0) {
            bad_dt += 1;
        }
    }
    let solve_s = t_solve.elapsed().as_secs_f64();
    let sums = ProfileSums::of(&profile);
    let counts = [("computed_bytes", sums.bytes), ("ops", ops as f64)];
    Spans::close_in(spans, region, &counts);

    let (mass1, _) = sim.field_summary(&mut scratch);
    let mass_err = ((mass1 - mass0) / mass0).abs();
    // Mass is summed once, after the region: which cycle lost it is
    // unknown, so when it is lost (or NaN) none of them counts as good.
    let failed = if mass_err < 1e-12 { bad_dt } else { ops as u64 };
    let identical = plan_is_bit_identical();
    Run {
        setup_s,
        warmup_ms,
        op_ms,
        solve_s,
        failed,
        side_checks_ok: identical,
        validation: mass_err,
        resident_mb,
        ops_profile: Some(sums),
        notes: vec![
            format!("mass_conservation_error={mass_err:e} (limit 1e-12)"),
            format!("plan_vs_baseline_density_bit_identical_256x256x3={identical}"),
        ],
        ..Run::default()
    }
}

/// What one rank of the distributed run reports back.
struct RankRun {
    warmup_ms: f64,
    op_ms: Vec<f64>,
    solve_s: f64,
    bad_dt: u64,
    mass: (f64, f64),
    sums: ProfileSums,
    stats: DistStats,
}

/// `clover_dist_cache`: CloverLeaf 2D inside L2 on two ranks, where loop
/// dispatch, halo packing and the mailbox are the work.
pub fn clover_dist(sz: &Sizes, ops: usize, spans: Option<&Spans>) -> Run {
    let cfg = clover_cfg(sz.dist_n, ExecMode::Serial, None);
    // The transport is named, not taken from SHMPI_MAILBOX: a benchmark
    // must not change with the caller's environment.
    let world = |body: &(dyn Fn(&mut bwb_shmpi::Comm) -> Option<RankRun> + Sync)| {
        Universe::run_with_mailbox(2, MailboxKind::Locked, body)
    };
    let spawn_and_decompose = || {
        world(&|comm| {
            std::hint::black_box(clover::Clover2::new_distributed(comm, cfg.clone()));
            None
        });
    };
    let setup_s = time_setups(sz.setup_reps, spawn_and_decompose, drop);

    let region = Spans::open_in(spans, "timed_region", None);
    let out = world(&|comm| {
        let mut sim = clover::Clover2::new_distributed(comm, cfg.clone());
        let mut scratch = Profile::new();
        let (mass0, _) = sim.field_summary(&mut scratch);
        let t_warm = Instant::now();
        for _ in 0..sz.dist_warmup {
            sim.cycle(&mut scratch, Some(comm));
        }
        let warmup_ms = ms(t_warm);

        let traced = spans.filter(|_| comm.rank() == 0);
        let before = comm.stats();
        let mut profile = Profile::new();
        let mut op_ms = Vec::with_capacity(ops);
        let mut bad_dt = 0u64;
        let t_solve = Instant::now();
        for _ in 0..ops {
            let span = Spans::open_in(traced, "op", region);
            let t0 = Instant::now();
            let dt = sim.cycle(&mut profile, Some(comm));
            op_ms.push(ms(t0));
            Spans::close_in(traced, span, &[]);
            if !(dt.is_finite() && dt > 0.0) {
                bad_dt += 1;
            }
        }
        let solve_s = t_solve.elapsed().as_secs_f64();
        let after = comm.stats();
        let (mass1, _) = sim.field_summary(&mut scratch);
        Some(RankRun {
            warmup_ms,
            op_ms,
            solve_s,
            bad_dt,
            mass: (mass0, mass1),
            sums: ProfileSums::of(&profile),
            stats: DistStats {
                sends: (after.sends - before.sends) as f64,
                bytes_sent: (after.bytes_sent - before.bytes_sent) as f64,
                wait_seconds: after.wait_seconds - before.wait_seconds,
                unreceived: 0.0,
            },
        })
    });

    let ranks: Vec<RankRun> = out.results.into_iter().flatten().collect();
    let mut sums = ProfileSums::default();
    let mut stats = DistStats::default();
    let (mut mass0, mut mass1, mut bad_dt) = (0.0, 0.0, 0u64);
    for r in &ranks {
        sums.add(&r.sums);
        stats.sends += r.stats.sends;
        stats.bytes_sent += r.stats.bytes_sent;
        stats.wait_seconds += r.stats.wait_seconds / ranks.len() as f64;
        mass0 += r.mass.0;
        mass1 += r.mass.1;
        bad_dt = bad_dt.max(r.bad_dt);
    }
    stats.unreceived = out.stats.total().unreceived_at_teardown as f64;
    let counts = [("computed_bytes", sums.bytes), ("messages", stats.sends)];
    Spans::close_in(spans, region, &counts);
    let mass_err = ((mass1 - mass0) / mass0).abs();
    let failed = if mass_err < 1e-12 { bad_dt } else { ops as u64 };
    // The op is timed where a user would wait for it: on rank 0.
    let rank0 = ranks.into_iter().next().expect("rank 0 ran");
    Run {
        setup_s,
        warmup_ms: rank0.warmup_ms,
        op_ms: rank0.op_ms,
        solve_s: rank0.solve_s,
        failed,
        side_checks_ok: stats.unreceived == 0.0,
        validation: mass_err,
        resident_mb: host::rss_mb(),
        ops_profile: Some(sums),
        dist: Some(stats),
        notes: vec![
            format!("mass_conservation_error={mass_err:e} (limit 1e-12)"),
            format!("unreceived_messages_at_teardown={}", stats.unreceived),
        ],
        ..Run::default()
    }
}

pub fn mgcfd_cfg(n: usize, seed: u64) -> mgcfd::Config {
    mgcfd::Config {
        n,
        levels: 4,
        cycles: 0,
        smooth_steps: 1,
        mode: ExecModeU::Colored,
        seed,
    }
}

/// After the timed V-cycles the fine-level residual must be below this
/// share of the initial one. On node-to-node noise one good V-cycle
/// leaves 0.16 of it, then 0.043, 0.018, 0.012, the same at 33² and 2049²
/// nodes and on every seed, so 0.2 fails a smoother or a transfer operator
/// that converges a quarter slower.
const RESIDUAL_RATIO_LIMIT: f64 = 0.2;

/// Disturb the free stream by seeded noise on every interior fine node:
/// the error a multigrid smoother exists to remove, so the residual falls
/// with every V-cycle. (`MgCfd::perturb`'s smooth Gaussian pulse steepens
/// instead: its residual ratio runs 0.79, 0.82, 0.87, 0.94, 1.01, 1.09 …
/// over the first V-cycles at 2049², and "below 1" would hold or fail by
/// the cycle count alone.)
fn roughen(sim: &mut mgcfd::MgCfd, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (level, q) = (&sim.levels[0], &mut sim.q[0]);
    for nid in (0..level.nodes.size).filter(|&n| !level.is_boundary[n]) {
        let g: f64 = rng.gen_range(-1e-3..1e-3);
        q.set(nid, 0, q.get(nid, 0) + g);
        q.set(nid, 3, q.get(nid, 3) + 2.0 * g);
    }
}

/// `mgcfd_mem`: multigrid V-cycles over an unstructured mesh out of cache.
pub fn mgcfd_mem(sz: &Sizes, seed: u64, ops: usize, spans: Option<&Spans>) -> Run {
    let build = || mgcfd::MgCfd::new(mgcfd_cfg(sz.mgcfd_n, seed));
    let setup_s = time_setups(sz.mgcfd_setup_reps, build, drop);
    let mut sim = build();
    roughen(&mut sim, seed);
    let mut scratch = Profile::new();
    // `MgCfd::new` writes the mesh and the states it allocates; the 170 MB
    // of forcing and saved states that the first V-cycle is first to touch
    // do not show in it (V-cycle 0 measured 3.895 s, cycle 1 3.896 s).
    // The warm-up is the flux pass that the initial residual needs anyway;
    // the seconds a warm-up V-cycle would cost buy a third timed one.
    let t_warm = Instant::now();
    sim.compute_flux(&mut scratch, 0);
    let res0 = sim.residual_norm(0);
    let warmup_ms = ms(t_warm);

    let mut profile = Profile::new();
    let mut op_ms = Vec::with_capacity(ops);
    let region = Spans::open_in(spans, "timed_region", None);
    let t_solve = Instant::now();
    for _ in 0..ops {
        let span = Spans::open_in(spans, "op", region);
        let t0 = Instant::now();
        sim.v_cycle(&mut profile);
        op_ms.push(ms(t0));
        Spans::close_in(spans, span, &[]);
    }
    let solve_s = t_solve.elapsed().as_secs_f64();
    let sums = ProfileSums::of(&profile);
    let counts = [("computed_bytes", sums.bytes), ("ops", ops as f64)];
    Spans::close_in(spans, region, &counts);
    // Taken after the region: the coarse-grid forcing and the saved states
    // are zeroed allocations that only a V-cycle touches.
    let resident_mb = host::rss_mb();

    sim.compute_flux(&mut scratch, 0);
    let ratio = sim.residual_norm(0) / res0;
    // Every edge takes its flux out of one node and puts it into the other,
    // so each component of the residual sums to zero over the mesh. A lost
    // update in the coloured schedule, the failure this workload can have,
    // breaks that; so does a state gone non-finite.
    let res = sim.res[0].raw();
    let imbalance = (0..mgcfd::NVAR)
        .map(|c| {
            let column = res.iter().skip(c).step_by(mgcfd::NVAR);
            let (sum, abs) = column.fold((0.0, 0.0), |(s, a), v| (s + v, a + v.abs()));
            (sum / abs).abs()
        })
        .fold(0.0, f64::max);
    // Both are taken once, after the region: a failure fails every cycle.
    let sound = ratio.is_finite() && ratio < RESIDUAL_RATIO_LIMIT && imbalance < 1e-9;
    let failed = if sound { 0 } else { ops as u64 };
    Run {
        setup_s,
        warmup_ms,
        op_ms,
        solve_s,
        failed,
        side_checks_ok: true,
        validation: ratio,
        resident_mb,
        op2_profile: Some(sums),
        notes: vec![
            format!("residual_ratio={ratio:e} (limit {RESIDUAL_RATIO_LIMIT})"),
            format!("flux_conservation_imbalance={imbalance:e} (limit 1e-9)"),
            format!("fine_level_colors={}", sim.levels[0].coloring.n_colors),
        ],
        ..Run::default()
    }
}

/// A bound server with its accept loop on a thread.
pub struct LiveServer {
    pub addr: String,
    state: Arc<ServerState>,
    accept: std::thread::JoinHandle<()>,
    pub bind_ms: f64,
}

impl LiveServer {
    /// Bind on an ephemeral port, start accepting, and wait for the first
    /// `/healthz` 200: the point at which a user could submit a job.
    pub fn start() -> LiveServer {
        let t0 = Instant::now();
        let server = Server::bind(ServerConfig::default()).expect("bind 127.0.0.1:0");
        let bind_ms = ms(t0);
        let addr = server.local_addr().to_string();
        let state = server.state();
        let accept = std::thread::spawn(move || server.run());
        let health = http::request(&addr, "GET", "/healthz", None).expect("server answers");
        assert_eq!(health.status, 200, "healthz");
        LiveServer {
            addr,
            state,
            accept,
            bind_ms,
        }
    }

    /// Drain and stop; returns the milliseconds the drain took.
    pub fn stop(self) -> f64 {
        let t0 = Instant::now();
        self.state.begin_shutdown();
        self.accept.join().expect("accept loop does not panic");
        ms(t0)
    }
}

struct Reply {
    index: usize,
    ms: f64,
    status: u16,
    cache: String,
    body_hash: u64,
    wire_bytes: usize,
}

/// `serve_mix`: two closed-loop clients draw Zipf-distributed jobs from a
/// seeded catalog, so cache hits and executing misses share one run.
pub fn serve_mix(sz: &Sizes, seed: u64, requests: usize, spans: Option<&Spans>) -> Run {
    const CLIENTS: usize = 2;
    let build = || (catalog::build(seed, sz.serve_catalog), LiveServer::start());
    let setup_s = time_setups(sz.setup_reps, build, |(_, server)| {
        server.stop();
    });
    let (catalog, server) = build();
    let bind_ms = server.bind_ms;
    let per_client = (requests / CLIENTS).max(1);
    let plans: Vec<Vec<usize>> = (0..CLIENTS)
        .map(|c| catalog::draws(seed, c, catalog.len(), per_client))
        .collect();

    // Warm-up: the accept path, then the catalog's trace jobs, one at a
    // time (`catalog::FIXED` says why they are not left to the mix).
    let t_warm = Instant::now();
    let warm = |method: &str, path: &str, body: Option<&str>| {
        let reply = http::request(&server.addr, method, path, body);
        assert!(
            reply.is_ok_and(|r| r.status == 200),
            "warm-up {method} {path} {body:?}"
        );
    };
    for _ in 0..20 {
        warm("GET", "/healthz", None);
    }
    for body in catalog.iter().filter(|b| catalog::is_trace_job(b)) {
        warm("POST", "/job", Some(body));
    }
    let warmup_ms = ms(t_warm);

    let region = Spans::open_in(spans, "timed_region", None);
    let t_solve = Instant::now();
    let replies: Vec<Reply> = std::thread::scope(|scope| {
        let clients: Vec<_> = plans
            .iter()
            .map(|plan| {
                let (addr, catalog) = (&server.addr, &catalog);
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(plan.len());
                    for &index in plan {
                        let body = &catalog[index];
                        let span = Spans::open_in(spans, "op", region);
                        let t0 = Instant::now();
                        let resp = http::request(addr, "POST", "/job", Some(body));
                        let elapsed = ms(t0);
                        Spans::close_in(spans, span, &[]);
                        // A transport error is status 0: a failed op.
                        let (status, cache, answer) = match &resp {
                            Ok(r) => (r.status, r.header("x-cache").unwrap_or(""), r.body.as_str()),
                            Err(_) => (0, "", ""),
                        };
                        out.push(Reply {
                            index,
                            ms: elapsed,
                            status,
                            cache: cache.to_string(),
                            body_hash: bwb_serve::fnv1a64(answer.as_bytes()),
                            wire_bytes: body.len() + answer.len(),
                        });
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread does not panic"))
            .collect()
    });
    let solve_s = t_solve.elapsed().as_secs_f64();
    let wire_bytes: usize = replies.iter().map(|r| r.wire_bytes).sum();
    let counts = [
        ("wire_bytes", wire_bytes as f64),
        ("requests", replies.len() as f64),
    ];
    Spans::close_in(spans, region, &counts);
    let resident_mb = host::rss_mb();
    let drain_ms = server.stop();

    // Every answer to one spec must be the same bytes, whether it was
    // executed, coalesced onto an execution, or read from the cache.
    let mut first_payload: HashMap<usize, u64> = HashMap::new();
    let mut payloads_equal = true;
    let (mut hit_ms, mut miss_ms, mut missed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut coalesced, mut rejected, mut failed) = (0usize, 0usize, 0u64);
    for r in &replies {
        if r.status != 200 {
            failed += 1;
            rejected += usize::from(r.status == 429);
            continue;
        }
        payloads_equal &= *first_payload.entry(r.index).or_insert(r.body_hash) == r.body_hash;
        match r.cache.as_str() {
            "hit" => hit_ms.push(r.ms),
            "miss" => {
                miss_ms.push(r.ms);
                missed.push(catalog[r.index].clone());
            }
            _ => coalesced += 1,
        }
    }
    let total = replies.len() as f64;
    let p50 = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            crate::stats::median(xs)
        }
    };
    let stats = ServeStats {
        hit_ms_p50: p50(&hit_ms),
        miss_ms_p50: p50(&miss_ms),
        hit_rate: hit_ms.len() as f64 / total,
        coalesced_frac: coalesced as f64 / total,
        rejected_frac: rejected as f64 / total,
        bind_ms,
        drain_ms,
        missed,
    };
    Run {
        setup_s,
        warmup_ms,
        op_ms: replies.iter().map(|r| r.ms).collect(),
        solve_s,
        failed,
        side_checks_ok: payloads_equal,
        validation: stats.hit_rate,
        resident_mb,
        notes: vec![
            format!(
                "requests={} hits={} misses={} coalesced={coalesced} rejected_429={rejected}",
                replies.len(),
                hit_ms.len(),
                miss_ms.len()
            ),
            format!("repeated_spec_payloads_byte_equal={payloads_equal}"),
        ],
        serve: Some(stats),
        ..Run::default()
    }
}
