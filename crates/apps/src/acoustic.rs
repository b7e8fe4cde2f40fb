//! Acoustic — structured-mesh high-order (8th) finite-difference acoustic
//! wave propagation solver (paper §3, app 3).
//!
//! Single precision, 25-point star stencil (radius-4 in each axis), leapfrog
//! time integration:
//!
//! ```text
//! u^{n+1} = 2 u^n − u^{n−1} + (c Δt)² ∇₈² u^n
//! ```
//!
//! The radius-4 stencil makes this the most cache- and halo-intensive of the
//! structured apps: each MPI halo exchange ships 4-deep ghost shells in all
//! six directions ("large communications volume over MPI").
//!
//! Validation: a Dirichlet-boundary standing wave
//! `u = sin(πx)sin(πy)sin(πz)·cos(ωt)` is reproduced to high-order accuracy;
//! the module's tests check the numerical solution against the analytic one
//! and that the discrete energy stays bounded.

use crate::{AppId, AppRun};
use bwb_ops::{
    par_loop3_planes, par_loop3_planes_reduce, Dat3, DistBlock3, ExecMode, Profile, Range3, RowIn3,
    RowOut3,
};
use bwb_shmpi::Comm;

/// 8th-order second-derivative coefficients (offsets 0, ±1, ±2, ±3, ±4).
pub const C0: f32 = -205.0 / 72.0;
pub const C: [f32; 4] = [8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0];

/// Stencil radius.
pub const RADIUS: usize = 4;

/// FLOPs per point of the update kernel: 3 axes × (4 taps × 2 ops + add) +
/// leapfrog combine ≈ 33.
pub const FLOPS_PER_POINT: f64 = 33.0;

#[derive(Debug, Clone)]
pub struct Config {
    /// Cubic grid edge (interior points per axis).
    pub n: usize,
    /// Time iterations.
    pub iterations: usize,
    /// Courant number (stability requires ≲ 0.4 for the 8th-order star).
    pub courant: f32,
    pub mode: ExecMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 32,
            iterations: 10,
            courant: 0.3,
            mode: ExecMode::Serial,
        }
    }
}

impl Config {
    /// The paper's testcase: 320³, 10 time iterations.
    pub fn paper() -> Self {
        Config {
            n: 320,
            iterations: 10,
            courant: 0.3,
            mode: ExecMode::Rayon,
        }
    }
}

/// Solver state: three time levels of the wavefield.
pub struct Acoustic {
    cfg: Config,
    u_prev: Dat3<f32>,
    u_curr: Dat3<f32>,
    u_next: Dat3<f32>,
    /// (c·Δt/Δx)² — the squared Courant number.
    lam2: f32,
    /// Angular frequency of the validation standing wave (×Δt per step).
    omega_dt: f64,
    step: usize,
}

impl Acoustic {
    /// Initialize the standing-wave problem on an `n³` grid.
    pub fn new(cfg: Config) -> Self {
        let n = cfg.n;
        let mut u_prev = Dat3::<f32>::new("u_prev", n, n, n, RADIUS);
        let mut u_curr = Dat3::<f32>::new("u_curr", n, n, n, RADIUS);
        let u_next = Dat3::<f32>::new("u_next", n, n, n, RADIUS);

        // Mode (1,1,1) standing wave with homogeneous Dirichlet walls: the
        // grid points sit at x_i = (i+1)·h with h = 1/(n+1) so u = 0 on the
        // walls, which coincide with the (zero-filled) halo region.
        let h = 1.0f64 / (n as f64 + 1.0);
        let k = std::f64::consts::PI;
        let wave = |i: isize, j: isize, kz: isize| -> f64 {
            let x = (i as f64 + 1.0) * h;
            let y = (j as f64 + 1.0) * h;
            let z = (kz as f64 + 1.0) * h;
            (k * x).sin() * (k * y).sin() * (k * z).sin()
        };
        // Exact dispersion: ω = c·|k| with c = 1, |k| = π√3.
        let omega = k * 3.0f64.sqrt();
        let dt = cfg.courant as f64 * h; // c = 1
        let omega_dt = omega * dt;

        u_curr.init_with(|i, j, kz| wave(i, j, kz) as f32);
        // One step *back* in time: u(t=-Δt) = u(x)·cos(ωΔt).
        let back = omega_dt.cos();
        u_prev.init_with(|i, j, kz| (wave(i, j, kz) * back) as f32);

        let lam2 = cfg.courant * cfg.courant;
        Acoustic {
            cfg,
            u_prev,
            u_curr,
            u_next,
            lam2,
            omega_dt,
            step: 0,
        }
    }

    /// One leapfrog step over the given interior range.
    fn step_range(&mut self, profile: &mut Profile, range: Range3) {
        leapfrog_update(
            profile,
            self.cfg.mode,
            range,
            &mut self.u_next,
            &self.u_curr,
            &self.u_prev,
            self.lam2,
        );
        // Rotate time levels: prev ← curr ← next (next becomes scratch).
        std::mem::swap(&mut self.u_prev, &mut self.u_curr);
        std::mem::swap(&mut self.u_curr, &mut self.u_next);
        self.step += 1;
    }

    /// Advance one step on the full interior (single-rank).
    pub fn step_once(&mut self, profile: &mut Profile) {
        let n = self.cfg.n;
        self.step_range(profile, Range3::interior(n, n, n));
    }

    /// Current wavefield value at the grid centre.
    pub fn center_value(&self) -> f32 {
        let c = self.cfg.n as isize / 2;
        self.u_curr.get(c, c, c)
    }

    /// Analytic centre value after the steps taken so far.
    pub fn center_analytic(&self) -> f64 {
        let n = self.cfg.n;
        let h = 1.0f64 / (n as f64 + 1.0);
        let k = std::f64::consts::PI;
        let c = n as f64 / 2.0;
        let x = (c + 1.0) * h;
        (k * x).sin().powi(3) * (self.omega_dt * self.step as f64).cos()
    }

    /// Discrete energy proxy: Σ u².
    pub fn energy(&self, profile: &mut Profile) -> f64 {
        let n = self.cfg.n;
        par_loop3_planes_reduce(
            profile,
            "acoustic_energy",
            self.cfg.mode,
            Range3::interior(n, n, n),
            &[&self.u_curr],
            0.0f64,
            2.0,
            |_j, _k, acc, ins| {
                ins.row(0).iter().fold(acc, |s, &u| {
                    let v = u as f64;
                    s + v * v
                })
            },
            |a, b| a + b,
        )
    }

    /// Run the configured number of iterations; validation value = max
    /// absolute error of the centre point against the analytic solution
    /// observed over the run.
    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let points = cfg.n * cfg.n * cfg.n;
        let iterations = cfg.iterations;
        let mut sim = Acoustic::new(cfg);
        let mut max_err = 0.0f64;
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "acoustic_step");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.step_once(&mut profile);
            let err = (sim.center_value() as f64 - sim.center_analytic()).abs();
            max_err = max_err.max(err);
        }
        AppRun {
            app: AppId::Acoustic,
            profile,
            validation: max_err,
            iterations,
            points,
        }
    }

    /// Distributed run over the ranks of `comm`: each rank owns a sub-block
    /// and exchanges radius-4 halos before every step. Returns this rank's
    /// profile and the gathered global field on rank 0 (for validation).
    pub fn run_distributed(comm: &mut Comm, cfg: Config) -> (Profile, Option<Vec<f64>>) {
        let n = cfg.n;
        let block = DistBlock3::new(comm, n, n, n);
        let (lnx, lny, lnz) = (block.nx(), block.ny(), block.nz());
        let s = block.start();

        let mut profile = Profile::new();
        let mut u_prev = block.alloc_f32("u_prev", RADIUS);
        let mut u_curr = block.alloc_f32("u_curr", RADIUS);
        let mut u_next = block.alloc_f32("u_next", RADIUS);

        let h = 1.0f64 / (n as f64 + 1.0);
        let k = std::f64::consts::PI;
        let wave = |gi: f64, gj: f64, gk: f64| -> f64 {
            ((k * (gi + 1.0) * h).sin())
                * ((k * (gj + 1.0) * h).sin())
                * ((k * (gk + 1.0) * h).sin())
        };
        let omega_dt = k * 3.0f64.sqrt() * (cfg.courant as f64 * h);
        let back = omega_dt.cos();
        u_curr.init_with(|i, j, kz| {
            wave(
                (s[0] as isize + i) as f64,
                (s[1] as isize + j) as f64,
                (s[2] as isize + kz) as f64,
            ) as f32
        });
        u_prev.init_with(|i, j, kz| {
            (wave(
                (s[0] as isize + i) as f64,
                (s[1] as isize + j) as f64,
                (s[2] as isize + kz) as f64,
            ) * back) as f32
        });

        let lam2 = cfg.courant * cfg.courant;
        for it in 0..cfg.iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "acoustic_step");
            aspan.set_args(it as f64, 0.0, 0.0);
            block.exchange_halo(comm, &mut u_curr, RADIUS);
            leapfrog_update(
                &mut profile,
                cfg.mode,
                Range3::interior(lnx, lny, lnz),
                &mut u_next,
                &u_curr,
                &u_prev,
                lam2,
            );
            std::mem::swap(&mut u_prev, &mut u_curr);
            std::mem::swap(&mut u_curr, &mut u_next);
        }

        // Gather as f64 for exact comparison.
        let mut as64 = block.alloc_f64("u64", 0);
        as64.init_with(|i, j, kz| u_curr.get(i, j, kz) as f64);
        let gathered = block.gather_global(comm, &as64);
        (profile, gathered)
    }
}

/// The leapfrog kernel body over one `i`-row.
fn leapfrog_body(lam2: f32, out: &mut RowOut3<f32>, ins: &RowIn3<f32>) {
    let r1 = |r: usize| (r + 1) as isize;
    let xm: [_; RADIUS] = std::array::from_fn(|r| ins.row_off(0, -r1(r), 0, 0));
    let xp: [_; RADIUS] = std::array::from_fn(|r| ins.row_off(0, r1(r), 0, 0));
    let ym: [_; RADIUS] = std::array::from_fn(|r| ins.row_off(0, 0, -r1(r), 0));
    let yp: [_; RADIUS] = std::array::from_fn(|r| ins.row_off(0, 0, r1(r), 0));
    let zm: [_; RADIUS] = std::array::from_fn(|r| ins.row_off(0, 0, 0, -r1(r)));
    let zp: [_; RADIUS] = std::array::from_fn(|r| ins.row_off(0, 0, 0, r1(r)));
    let uc = ins.row(0);
    let up = ins.row(1);
    let un = out.row(0);
    for i in 0..un.len() {
        let c0 = uc[i];
        let mut lap = 3.0 * C0 * c0;
        for (r, &cr) in C.iter().enumerate() {
            lap += cr * (xm[r][i] + xp[r][i] + ym[r][i] + yp[r][i] + zm[r][i] + zp[r][i]);
        }
        un[i] = 2.0 * c0 - up[i] + lam2 * lap;
    }
}

/// The leapfrog update `u⁺ = 2u − u⁻ + λ²∇₈²u` on the slice fast path:
/// one contiguous `i`-row per `(j,k)`, with the 24 star-stencil neighbour
/// rows pre-resolved so the inner loop is branch-free straight-line
/// arithmetic over slices (autovectorizable f32).
fn leapfrog_update(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range3,
    u_next: &mut Dat3<f32>,
    u_curr: &Dat3<f32>,
    u_prev: &Dat3<f32>,
    lam2: f32,
) {
    par_loop3_planes(
        profile,
        "acoustic_update",
        mode,
        range,
        &mut [u_next],
        &[u_curr, u_prev],
        FLOPS_PER_POINT,
        move |_j, _k, out, ins| leapfrog_body(lam2, out, ins),
    );
}

/// Declared loop chain: one leapfrog step over a parametric `(nx,ny,nz)`
/// interior, rotating the three-slot time window with the same pair of
/// swaps the driver performs; the update reads `u_curr` through the
/// radius-[`RADIUS`] star and `u_prev` at the point. The distributed
/// variant prepends the per-step `u_curr` exchange at depth [`RADIUS`]
/// (`exchange_halo` records one site-less observation over x and y: the
/// 4-rank layout is 2 × 2 × 1, so z keeps its boundary ghosts) and drops
/// the energy reduction, which only the local registry run appends.
pub fn chain_spec(dist: bool) -> bwb_ops::ChainSpec {
    use bwb_ops::{Access, Axes, ChainSpec, DatDecl, Expr, Stencil, Step};
    let c = Expr::c;
    let p = Expr::p;
    let dat = |name: &'static str| DatDecl {
        name,
        halo: RADIUS as isize,
        extent: [p("nx"), p("ny"), p("nz")],
        elem_bytes: 4,
    };
    let interior = || [c(0), p("nx"), c(0), p("ny"), c(0), p("nz")];
    let mut body = Vec::new();
    if dist {
        body.push(Step::Exchange {
            dat: 1,
            depth: RADIUS,
            site: "",
            axes: Axes::XY,
        });
    }
    body.push(Step::Loop {
        name: "acoustic_update",
        dims: 3,
        range: interior(),
        outs: vec![(2, Access::Write)],
        ins: vec![(1, Stencil::plus3(RADIUS as isize)), (0, Stencil::point())],
    });
    body.push(Step::Swap { a: 0, b: 1 });
    body.push(Step::Swap { a: 1, b: 2 });
    let epilogue = if dist {
        Vec::new()
    } else {
        vec![Step::Loop {
            name: "acoustic_energy",
            dims: 3,
            range: interior(),
            outs: vec![],
            ins: vec![(1, Stencil::point())],
        }]
    };
    ChainSpec {
        app: if dist { "acoustic_dist" } else { "acoustic" },
        dats: vec![dat("u_prev"), dat("u_curr"), dat("u_next")],
        prologue: Vec::new(),
        body,
        epilogue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_shmpi::Universe;

    #[test]
    fn standing_wave_matches_analytic_solution() {
        let run = Acoustic::run(Config {
            n: 48,
            iterations: 20,
            ..Config::default()
        });
        // 8th-order stencil, 2nd-order leapfrog: the centre error stays tiny
        // over 20 steps at CFL 0.3 on a 48³ grid.
        assert!(run.validation < 5e-4, "centre error {}", run.validation);
    }

    #[test]
    fn energy_stays_bounded() {
        let cfg = Config {
            n: 24,
            iterations: 0,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Acoustic::new(cfg);
        let e0 = sim.energy(&mut profile);
        for _ in 0..50 {
            sim.step_once(&mut profile);
        }
        let e1 = sim.energy(&mut profile);
        // The standing wave's Σu² oscillates in [0, e0]; boundedness within
        // a small tolerance demonstrates stability at CFL 0.3.
        assert!(e1 <= e0 * 1.05, "energy grew: {e0} -> {e1}");
        assert!(e1 >= 0.0);
    }

    #[test]
    fn serial_equals_rayon_bitwise() {
        let a = Acoustic::run(Config {
            n: 20,
            iterations: 5,
            mode: ExecMode::Serial,
            ..Config::default()
        });
        let b = Acoustic::run(Config {
            n: 20,
            iterations: 5,
            mode: ExecMode::Rayon,
            ..Config::default()
        });
        assert_eq!(a.validation, b.validation);
    }

    #[test]
    fn unstable_courant_blows_up() {
        // CFL limit for the 3-D 8th-order star is ~0.52; 0.9 must diverge.
        let cfg = Config {
            n: 16,
            iterations: 0,
            courant: 0.9,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Acoustic::new(cfg);
        let e0 = sim.energy(&mut profile);
        for _ in 0..60 {
            sim.step_once(&mut profile);
        }
        let e1 = sim.energy(&mut profile);
        assert!(
            e1 > 10.0 * e0 || !e1.is_finite(),
            "expected instability: {e0} -> {e1}"
        );
    }

    #[test]
    fn profile_accounts_bytes_and_flops() {
        let run = Acoustic::run(Config {
            n: 16,
            iterations: 4,
            ..Config::default()
        });
        let rec = run.profile.get("acoustic_update").unwrap();
        assert_eq!(rec.calls, 4);
        assert_eq!(rec.points, 4 * 16 * 16 * 16);
        // 1 write + 2 reads × 4 bytes per point.
        assert_eq!(rec.bytes, rec.points * 12);
        assert_eq!(rec.flops, rec.points as f64 * FLOPS_PER_POINT);
    }

    #[test]
    fn distributed_matches_single_rank() {
        let cfg = Config {
            n: 24,
            iterations: 6,
            ..Config::default()
        };
        let single = {
            let cfg = cfg.clone();
            let mut profile = Profile::new();
            let mut sim = Acoustic::new(cfg.clone());
            for _ in 0..cfg.iterations {
                sim.step_once(&mut profile);
            }
            let mut out = Vec::new();
            for k in 0..cfg.n as isize {
                for j in 0..cfg.n as isize {
                    for i in 0..cfg.n as isize {
                        out.push(sim.u_curr.get(i, j, k) as f64);
                    }
                }
            }
            out
        };
        let cfg2 = cfg.clone();
        let out = Universe::run(8, move |c| Acoustic::run_distributed(c, cfg2.clone()).1);
        let dist = out.results[0].as_ref().unwrap();
        assert_eq!(dist.len(), single.len());
        let max_diff = dist
            .iter()
            .zip(&single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-6,
            "distributed differs from serial by {max_diff}"
        );
    }

    #[test]
    fn distributed_profile_counts_halo_traffic() {
        let cfg = Config {
            n: 16,
            iterations: 2,
            ..Config::default()
        };
        let out = Universe::run(4, move |c| {
            let _ = Acoustic::run_distributed(c, cfg.clone());
            c.stats()
        });
        // Every rank exchanged halos: sends > 0, deep halos → big messages.
        for s in &out.results {
            assert!(s.sends > 0);
            assert!(s.bytes_sent > 1000);
        }
    }
}
