//! miniWeather — structured-mesh proxy for atmospheric dynamics
//! (paper §3, app 7; Norman, ORNL).
//!
//! A compact re-implementation of the miniWeather algorithm: 2-D (x–z)
//! compressible Euler equations for dry stratified flow in perturbation
//! form about a hydrostatic, constant-potential-temperature background.
//! Finite-volume fluxes use the standard 4-cell 4th-order interpolation
//! plus 3rd-difference hyperviscosity; time integration is the 3-stage
//! low-storage Runge-Kutta with dimensional splitting (x then z, order
//! alternating each step), exactly as in the reference code.
//!
//! Deviations from the reference (documented per the substitution rule):
//! advective fluxes through the rigid top/bottom walls are explicitly
//! zeroed (the reference relies on halo values making them small), which
//! makes mass conservation exact in both directions — the property the
//! validation tests assert. Double precision, paper size 4000×2000.

use crate::{AppId, AppRun};
use bwb_ops::{par_loop2_reduce, par_loop2_rows, Dat2, DistBlock2, ExecMode, Profile, Range2};
use bwb_shmpi::{CartComm, Comm};

// --- Physical constants (miniWeather reference values) ---
pub const GRAV: f64 = 9.8;
pub const CP: f64 = 1004.0;
pub const CV: f64 = 717.0;
pub const RD: f64 = 287.0;
pub const P0: f64 = 1.0e5;
pub const GAMMA: f64 = CP / CV;
/// p = C0·(ρθ)^γ.
pub const C0: f64 = 27.562_941_092_972_594;
/// Background potential temperature.
pub const THETA0: f64 = 300.0;
/// Maximum signal speed used for the CFL time step.
pub const MAX_SPEED: f64 = 450.0;
/// Hyperviscosity beta.
pub const HV_BETA: f64 = 0.25;

/// Field indices in the 4-variable state.
pub const ID_DENS: usize = 0;
pub const ID_UMOM: usize = 1;
pub const ID_WMOM: usize = 2;
pub const ID_RHOT: usize = 3;

/// FLOPs per point of a tendency kernel (interp + fluxes + powf ≈ 80).
const FLOPS_TEND: f64 = 80.0;

#[derive(Debug, Clone)]
pub struct Config {
    pub nx: usize,
    pub nz: usize,
    /// Physical domain size (m).
    pub xlen: f64,
    pub zlen: f64,
    /// Simulated seconds.
    pub sim_time: f64,
    pub cfl: f64,
    pub mode: ExecMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nx: 64,
            nz: 32,
            xlen: 2.0e4,
            zlen: 1.0e4,
            sim_time: 5.0,
            cfl: 1.0,
            mode: ExecMode::Serial,
        }
    }
}

impl Config {
    /// Paper testcase: 4000×2000 cells, simulation time 1.0.
    pub fn paper() -> Self {
        Config {
            nx: 4000,
            nz: 2000,
            sim_time: 1.0,
            mode: ExecMode::Rayon,
            ..Config::default()
        }
    }

    /// The time step the CFL number allows on this grid.
    fn dt(&self) -> f64 {
        let dx = self.xlen / self.nx as f64;
        let dz = self.zlen / self.nz as f64;
        (dx.min(dz) / MAX_SPEED) * self.cfl
    }
}

/// The 4th-order interface value and 3rd difference of one field at point
/// `i`'s interface `off` (−1: the low one, 0: the high one), from the
/// field's rows at offsets −2..=2 along the pass's axis.
fn interface(rows: &[&[f64]; 5], i: usize, off: isize) -> (f64, f64) {
    let v = |d: isize| rows[(off + d + 2) as usize][i];
    let (s0, s1, s2, s3) = (v(-1), v(0), v(1), v(2));
    let vals = -s0 / 12.0 + 7.0 * s1 / 12.0 + 7.0 * s2 / 12.0 - s3 / 12.0;
    let d3 = -s0 + 3.0 * s1 - 3.0 * s2 + s3;
    (vals, d3)
}

/// Hydrostatic background profiles.
struct Background {
    /// ρ₀ at cell centres, indexed by k + 2 (halo of 2).
    dens_cell: Vec<f64>,
    /// ρ₀θ₀ at cell centres.
    dens_theta_cell: Vec<f64>,
    /// ρ₀ at interfaces (k = 0..=nz).
    dens_int: Vec<f64>,
    dens_theta_int: Vec<f64>,
    pressure_int: Vec<f64>,
}

fn hydrostatic(z: f64) -> (f64, f64) {
    // Constant-θ background: Exner pressure decreases linearly.
    let exner = 1.0 - GRAV * z / (CP * THETA0);
    let p = P0 * exner.powf(CP / RD);
    let rho = p / (RD * THETA0 * exner);
    (rho, rho * THETA0)
}

impl Background {
    fn new(nz: usize, dz: f64) -> Self {
        let mut dens_cell = Vec::with_capacity(nz + 4);
        let mut dens_theta_cell = Vec::with_capacity(nz + 4);
        for k in -2isize..nz as isize + 2 {
            let z = (k as f64 + 0.5) * dz;
            let (r, rt) = hydrostatic(z.max(0.0).min(nz as f64 * dz));
            dens_cell.push(r);
            dens_theta_cell.push(rt);
        }
        let mut dens_int = Vec::with_capacity(nz + 1);
        let mut dens_theta_int = Vec::with_capacity(nz + 1);
        let mut pressure_int = Vec::with_capacity(nz + 1);
        for k in 0..=nz {
            let z = k as f64 * dz;
            let (r, rt) = hydrostatic(z);
            dens_int.push(r);
            dens_theta_int.push(rt);
            pressure_int.push(C0 * rt.powf(GAMMA));
        }
        Background {
            dens_cell,
            dens_theta_cell,
            dens_int,
            dens_theta_int,
            pressure_int,
        }
    }
}

/// The solver state.
pub struct MiniWeather {
    cfg: Config,
    dx: f64,
    dz: f64,
    dt: f64,
    bg: Background,
    /// Perturbation state, 4 fields with halo 2 (this rank's x-slab when
    /// distributed).
    state: Vec<Dat2<f64>>,
    state_tmp: Vec<Dat2<f64>>,
    tend: Vec<Dat2<f64>>,
    direction_switch: bool,
    /// Local x extent (= cfg.nx single-rank).
    local_nx: usize,
    /// This rank's x slab of the [`ring`] layout, when distributed.
    block: Option<DistBlock2>,
}

const NAMES: [&str; 4] = ["dens", "umom", "wmom", "rhot"];

impl MiniWeather {
    /// Initialize the rising-thermal-bubble test case (single rank).
    pub fn new(cfg: Config) -> Self {
        Self::new_on(cfg, None)
    }

    /// Initialize the whole domain, or `block`'s x slab of it.
    fn new_on(cfg: Config, block: Option<DistBlock2>) -> Self {
        let (x_start, local_nx) = block
            .as_ref()
            .map_or((0, cfg.nx), |b| (b.start()[0], b.nx()));
        let dx = cfg.xlen / cfg.nx as f64;
        let dz = cfg.zlen / cfg.nz as f64;
        let dt = cfg.dt();
        let bg = Background::new(cfg.nz, dz);
        let mk = |tagged: &str| -> Vec<Dat2<f64>> {
            NAMES
                .iter()
                .map(|n| Dat2::new(&format!("{n}{tagged}"), local_nx, cfg.nz, 2))
                .collect()
        };
        let mut state = mk("");
        let state_tmp = mk("_tmp");
        let tend = mk("_tend");

        // Warm bubble: Gaussian θ′ perturbation in the lower middle.
        let (xc, zc, rad, amp) = (
            cfg.xlen / 2.0,
            2000.0_f64.min(cfg.zlen * 0.25),
            2000.0_f64,
            3.0,
        );
        for k in 0..cfg.nz as isize {
            let z = (k as f64 + 0.5) * dz;
            let (rho0, _) = hydrostatic(z);
            for i in 0..local_nx as isize {
                let x = ((x_start as isize + i) as f64 + 0.5) * dx;
                let dist = (((x - xc) / rad).powi(2) + ((z - zc) / rad).powi(2)).sqrt();
                let tp = if dist <= 1.0 {
                    amp * (std::f64::consts::PI * dist / 2.0).cos().powi(2)
                } else {
                    0.0
                };
                state[ID_RHOT].set(i, k, rho0 * tp);
            }
        }
        MiniWeather {
            cfg,
            dx,
            dz,
            dt,
            bg,
            state,
            state_tmp,
            tend,
            direction_switch: true,
            local_nx,
            block,
        }
    }

    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Fill the halos the next tendency loop reads in the state (`use_tmp`:
    /// the RK temporaries): `mw_tend_x` reads x ghosts only, periodic, so
    /// they come from the block's exchange when distributed and the local
    /// wrap when not; `mw_tend_z` reads z ghosts only, the rigid walls every
    /// rank fills locally (zero gradient for dens/umom/rhot, w = 0).
    fn fill_halos(&mut self, use_tmp: bool, x_dir: bool, mut comm: Option<&mut Comm>) {
        let (nx, nz) = (self.local_nx as isize, self.cfg.nz as isize);
        let fields = if use_tmp {
            &mut self.state_tmp
        } else {
            &mut self.state
        };
        for (id, f) in fields.iter_mut().enumerate() {
            match (x_dir, &self.block, comm.as_deref_mut()) {
                (true, Some(block), Some(c)) => block.exchange_halo(c, f, 2),
                (true, ..) => {
                    for k in 0..nz {
                        for h in 1..=2isize {
                            f.set(-h, k, f.get(nx - h, k));
                            f.set(nx - 1 + h, k, f.get(h - 1, k));
                        }
                    }
                }
                (false, ..) => {
                    for i in 0..nx {
                        for h in 1..=2isize {
                            let (lo, hi) = if id == ID_WMOM {
                                (0.0, 0.0)
                            } else {
                                (f.get(i, 0), f.get(i, nz - 1))
                            };
                            f.set(i, -h, lo);
                            f.set(i, nz - 1 + h, hi);
                        }
                    }
                }
            }
        }
    }

    /// X-direction tendencies of `src` into `self.tend`.
    fn tendencies_x(&mut self, profile: &mut Profile, use_tmp: bool) {
        let (nx, nz) = (self.local_nx, self.cfg.nz);
        let src = if use_tmp {
            &self.state_tmp
        } else {
            &self.state
        };

        let hv_coef = -HV_BETA * self.dx / (16.0 * self.dt);
        let dx = self.dx;
        let bg_dens = &self.bg.dens_cell;
        let bg_dt = &self.bg.dens_theta_cell;

        let mut outs: Vec<&mut Dat2<f64>> = self.tend.iter_mut().collect();
        let ins: Vec<&Dat2<f64>> = src.iter().collect();
        par_loop2_rows(
            profile,
            "mw_tend_x",
            self.cfg.mode,
            Range2::interior(nx, nz),
            &mut outs,
            &ins,
            FLOPS_TEND,
            move |j, out, s| {
                // Rows of every field at the 5 x-offsets −2..=2 feeding the
                // interface stencils at i−1/2 (off = −1) and i+1/2 (off = 0).
                let rows: [[&[f64]; 5]; 4] = std::array::from_fn(|id| {
                    std::array::from_fn(|d| s.row_off(id, d as isize - 2, 0))
                });
                let kk = (j + 2) as usize;
                let flux = |i: usize, off: isize, id_out: usize| -> f64 {
                    let stencil = |id: usize| interface(&rows[id], i, off);
                    let (vd, d3d) = stencil(ID_DENS);
                    let (vu, d3u) = stencil(ID_UMOM);
                    let (vw, d3w) = stencil(ID_WMOM);
                    let (vt, d3t) = stencil(ID_RHOT);
                    let r = vd + bg_dens[kk];
                    let u = vu / r;
                    let w = vw / r;
                    let t = (vt + bg_dt[kk]) / r;
                    let p = C0 * (r * t).powf(GAMMA);
                    match id_out {
                        ID_DENS => r * u - hv_coef * d3d,
                        ID_UMOM => r * u * u + p - hv_coef * d3u,
                        ID_WMOM => r * u * w - hv_coef * d3w,
                        _ => r * u * t - hv_coef * d3t,
                    }
                };
                for id in 0..4 {
                    let o = out.row(id);
                    for (i, oi) in o.iter_mut().enumerate() {
                        *oi = -(flux(i, 0, id) - flux(i, -1, id)) / dx;
                    }
                }
            },
        );
    }

    /// Z-direction tendencies of `src` into `self.tend` (with gravity
    /// source and hydrostatic-pressure subtraction in the wmom flux).
    fn tendencies_z(&mut self, profile: &mut Profile, use_tmp: bool) {
        let (nx, nz) = (self.local_nx, self.cfg.nz);
        let src = if use_tmp {
            &self.state_tmp
        } else {
            &self.state
        };

        let hv_coef = -HV_BETA * self.dz / (16.0 * self.dt);
        let dz = self.dz;
        let nz_i = nz as isize;
        let bg_dens_int = &self.bg.dens_int;
        let bg_dt_int = &self.bg.dens_theta_int;
        let bg_p_int = &self.bg.pressure_int;

        let mut outs: Vec<&mut Dat2<f64>> = self.tend.iter_mut().collect();
        let ins: Vec<&Dat2<f64>> = src.iter().collect();
        par_loop2_rows(
            profile,
            "mw_tend_z",
            self.cfg.mode,
            Range2::interior(nx, nz),
            &mut outs,
            &ins,
            FLOPS_TEND,
            move |j, out, s| {
                // Rows of every field at the 5 z-offsets −2..=2 feeding the
                // interface stencils below (off=−1 ⇒ interface j) and above
                // (off=0 ⇒ interface j+1).
                let rows: [[&[f64]; 5]; 4] = std::array::from_fn(|id| {
                    std::array::from_fn(|d| s.row_off(id, 0, d as isize - 2))
                });
                let dens = s.row(ID_DENS);
                let flux = |i: usize, off: isize, id_out: usize| -> f64 {
                    let iface = (j + off + 1) as usize; // interface index 0..=nz
                    let at_wall = iface == 0 || iface as isize == nz_i;
                    let stencil = |id: usize| interface(&rows[id], i, off);
                    let (vd, d3d) = stencil(ID_DENS);
                    let (vu, d3u) = stencil(ID_UMOM);
                    let (vw, d3w) = stencil(ID_WMOM);
                    let (vt, d3t) = stencil(ID_RHOT);
                    let r = vd + bg_dens_int[iface];
                    let w = if at_wall { 0.0 } else { vw / r };
                    let u = vu / r;
                    let t = (vt + bg_dt_int[iface]) / r;
                    let p = C0 * (r * t).powf(GAMMA) - bg_p_int[iface];
                    match id_out {
                        // Rigid walls: no advective mass/momentum/heat flux.
                        ID_DENS => {
                            if at_wall {
                                0.0
                            } else {
                                r * w - hv_coef * d3d
                            }
                        }
                        ID_UMOM => {
                            if at_wall {
                                0.0
                            } else {
                                r * w * u - hv_coef * d3u
                            }
                        }
                        // Perturbation pressure acts on the walls.
                        ID_WMOM => r * w * w + p - if at_wall { 0.0 } else { hv_coef * d3w },
                        _ => {
                            if at_wall {
                                0.0
                            } else {
                                r * w * t - hv_coef * d3t
                            }
                        }
                    }
                };
                for id in 0..4 {
                    let o = out.row(id);
                    for i in 0..o.len() {
                        let mut t = -(flux(i, 0, id) - flux(i, -1, id)) / dz;
                        if id == ID_WMOM {
                            t -= dens[i] * GRAV; // buoyancy source
                        }
                        o[i] = t;
                    }
                }
            },
        );
    }

    /// `tmp = state + dt_frac·tend` (`to_tmp`) or `state += dt_frac·tend`
    /// over the interior, for all 4 fields.
    fn apply_update(&mut self, profile: &mut Profile, to_tmp: bool, dt_frac: f64) {
        let (range, mode) = (Range2::interior(self.local_nx, self.cfg.nz), self.cfg.mode);
        for id in 0..4 {
            let tend = &self.tend[id];
            if to_tmp {
                let (dst, init) = (&mut self.state_tmp[id], &self.state[id]);
                par_loop2_rows(
                    profile,
                    "mw_update",
                    mode,
                    range,
                    &mut [dst],
                    &[init, tend],
                    2.0,
                    move |_j, out, ins| {
                        let (a, t, o) = (ins.row(0), ins.row(1), out.row(0));
                        for i in 0..o.len() {
                            o[i] = a[i] + dt_frac * t[i];
                        }
                    },
                );
            } else {
                par_loop2_rows(
                    profile,
                    "mw_update",
                    mode,
                    range,
                    &mut [&mut self.state[id]],
                    &[tend],
                    2.0,
                    move |_j, out, ins| {
                        let (t, o) = (ins.row(0), out.row(0));
                        for i in 0..o.len() {
                            o[i] += dt_frac * t[i];
                        }
                    },
                );
            }
        }
    }

    /// One directional semi-discrete RK3 sub-cycle.
    fn direction_step(&mut self, profile: &mut Profile, x_dir: bool, mut comm: Option<&mut Comm>) {
        let dt = self.dt;
        let tendf = if x_dir {
            Self::tendencies_x
        } else {
            Self::tendencies_z
        };
        // Stage 1: tmp = state + dt/3 · T(state); stage 2: tmp = state +
        // dt/2 · T(tmp); stage 3: state += dt · T(tmp).
        for (stage, frac) in [(1, 3.0), (2, 2.0), (3, 1.0)] {
            self.fill_halos(stage > 1, x_dir, comm.as_deref_mut());
            tendf(self, profile, stage > 1);
            self.apply_update(profile, stage < 3, dt / frac);
        }
    }

    /// One full time step (x/z split, alternating order).
    pub fn step(&mut self, profile: &mut Profile) {
        self.step_with(profile, None);
    }

    /// One full time step, exchanging halos through `comm` when the solver
    /// was built distributed.
    pub fn step_with(&mut self, profile: &mut Profile, mut comm: Option<&mut Comm>) {
        if self.direction_switch {
            self.direction_step(profile, true, comm.as_deref_mut());
            self.direction_step(profile, false, comm);
        } else {
            self.direction_step(profile, false, comm.as_deref_mut());
            self.direction_step(profile, true, comm);
        }
        self.direction_switch = !self.direction_switch;
    }

    /// `steps` full time steps: the one step loop of the in-process and
    /// the ranked driver.
    fn advance(&mut self, profile: &mut Profile, steps: usize, mut comm: Option<&mut Comm>) {
        for it in 0..steps {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "mw_step");
            aspan.set_args(it as f64, 0.0, 0.0);
            self.step_with(profile, comm.as_deref_mut());
        }
    }

    /// Distributed run: decompose the x axis over the `comm.size()` ranks
    /// of the [`ring`] layout (slabs differ by at most one column).
    /// Returns this rank's profile and (on rank 0) the gathered global
    /// perturbation density field (x-major rows of nz).
    pub fn run_distributed(
        comm: &mut Comm,
        cfg: Config,
        steps: usize,
    ) -> (Profile, Option<Vec<f64>>) {
        let block = DistBlock2::with_cart(comm.rank(), ring(comm.size()), cfg.nx, cfg.nz);
        let (local_nx, nz) = (block.nx(), cfg.nz);
        let mut profile = Profile::new();
        let mut sim = MiniWeather::new_on(cfg, Some(block));
        sim.advance(&mut profile, steps, Some(comm));
        // Gather the density perturbation column-major per rank; the
        // slabs follow the ranks in x order.
        let mut mine = Vec::with_capacity(local_nx * nz);
        for i in 0..local_nx as isize {
            for k in 0..nz as isize {
                mine.push(sim.state[ID_DENS].get(i, k));
            }
        }
        let gathered = comm.gather(&mine, 0).map(|parts| parts.concat());
        (profile, gathered)
    }

    /// Domain totals of the perturbation mass and heat (conserved; local
    /// slab totals when distributed — allreduce them across ranks).
    pub fn totals(&self, profile: &mut Profile) -> (f64, f64) {
        let (nx, nz) = (self.local_nx, self.cfg.nz);
        let sum = |f: &Dat2<f64>, profile: &mut Profile| {
            par_loop2_reduce(
                profile,
                "mw_totals",
                ExecMode::Serial,
                Range2::interior(nx, nz),
                &[f],
                0.0f64,
                1.0,
                |_i, _j, ins| ins.get(0, 0, 0),
                |a, b| a + b,
            )
        };
        (
            sum(&self.state[ID_DENS], profile),
            sum(&self.state[ID_RHOT], profile),
        )
    }

    /// Max |w| over the domain — the bubble's rise signature.
    pub fn max_abs_w(&self) -> f64 {
        let (nx, nz) = (self.local_nx as isize, self.cfg.nz as isize);
        let mut m = 0.0f64;
        for k in 0..nz {
            for i in 0..nx {
                m = m.max(self.state[ID_WMOM].get(i, k).abs());
            }
        }
        m
    }

    /// Run for the configured simulated time.
    pub fn run(cfg: Config) -> AppRun {
        let steps = (cfg.sim_time / cfg.dt()).ceil() as usize;
        Self::run_steps(cfg, steps)
    }

    /// Run `steps` time steps, whatever `sim_time` says (the ranked
    /// driver's count, so a job spec's `iterations` mean the same here).
    pub fn run_steps(cfg: Config, steps: usize) -> AppRun {
        let mut profile = Profile::new();
        let points = cfg.nx * cfg.nz;
        let mut sim = MiniWeather::new(cfg);
        let (m0, t0) = sim.totals(&mut profile);
        sim.advance(&mut profile, steps, None);
        let (m1, t1) = sim.totals(&mut profile);
        // Validation: relative drift of conserved totals (θ′ total is
        // nonzero; ρ′ total starts at 0, so normalize by the background
        // cell mass scale).
        let scale = 1.0; // kg m⁻³ · cells — absolute drift is the metric
        let drift = ((m1 - m0).abs() / scale).max((t1 - t0).abs() / t0.abs().max(1.0));
        AppRun {
            app: AppId::MiniWeather,
            profile,
            validation: drift,
            iterations: steps,
            points,
        }
    }
}

/// The layout a distributed run decomposes over: `size` ranks along x,
/// periodic, and one along z, whose rigid walls every rank fills itself.
pub fn ring(size: usize) -> CartComm {
    CartComm::new(size, vec![size, 1], vec![true, false])
}

/// Declared loop chain: two full time steps — the dimensional-split order
/// alternates x,z / z,x via `direction_switch`, so a two-step body is the
/// natural period — every loop's access contract stated at its step.
/// Slots 0‑3 are the state fields, 4‑7 the RK temporaries, 8‑11 the
/// tendencies. Each directional sub-cycle is tend → 4 copy-updates, twice,
/// then tend → 4 in-place updates: `mw_update` runs at two arities,
/// copy-update (`dst = init + dt·tend`, two inputs) and in-place
/// (`state += dt·tend`, one input, declared `ReadWrite`), and observations
/// match on `(name, #outs, #ins)`.
///
/// `dist` declares a distributed rank: before each `mw_tend_x` the four
/// fields it reads are exchanged at depth 2 over x, the one axis the
/// [`ring`] layout splits and wraps (`exchange_halo` records one site-less
/// observation each); the z walls `mw_tend_z` reads are filled locally and record
/// nothing. The local chain instead ends with the two `mw_totals`
/// mass/energy reductions the registry run appends.
pub fn chain_spec(dist: bool) -> bwb_ops::ChainSpec {
    use bwb_ops::{Access, Axes, ChainSpec, DatDecl, Expr, Stencil as S, Step};
    const SLOT_NAMES: [&str; 12] = [
        "dens",
        "umom",
        "wmom",
        "rhot",
        "dens_tmp",
        "umom_tmp",
        "wmom_tmp",
        "rhot_tmp",
        "dens_tend",
        "umom_tend",
        "wmom_tend",
        "rhot_tend",
    ];
    let c = Expr::c;
    let p = Expr::p;
    let dats = SLOT_NAMES
        .iter()
        .map(|name| DatDecl {
            name,
            halo: 2,
            extent: [p("nx"), p("nz"), Expr::c(1)],
            elem_bytes: 8,
        })
        .collect();
    let interior = || [c(0), p("nx"), c(0), p("nz"), c(0), c(1)];
    let lp = |name, outs, ins| Step::Loop {
        name,
        dims: 2,
        range: interior(),
        outs,
        ins,
    };
    let w = |slot: usize| (slot, Access::Write);
    let point = |slot: usize| (slot, S::point());
    let x5 = || S::of2(&[(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]);
    let z5 = || S::of2(&[(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]);
    let mut body = Vec::new();
    let dirstep = |body: &mut Vec<Step>, x_dir: bool| {
        let (tend_name, window) = if x_dir {
            ("mw_tend_x", x5())
        } else {
            ("mw_tend_z", z5())
        };
        let tend = |body: &mut Vec<Step>, src: usize| {
            if dist && x_dir {
                body.extend((src..src + 4).map(|dat| Step::Exchange {
                    dat,
                    depth: 2,
                    site: "",
                    axes: Axes::X,
                }));
            }
            body.push(lp(
                tend_name,
                (8..12).map(w).collect(),
                (src..src + 4).map(|s| (s, window.clone())).collect(),
            ));
        };
        // Stages 1 and 2: tmp = state + frac·T(src), the copy arity.
        for src in [0usize, 4] {
            tend(body, src);
            for id in 0..4 {
                body.push(lp(
                    "mw_update",
                    vec![w(4 + id)],
                    vec![point(id), point(8 + id)],
                ));
            }
        }
        // Stage 3: state += dt·T(tmp), the in-place arity.
        tend(body, 4);
        for id in 0..4 {
            body.push(lp(
                "mw_update",
                vec![(id, Access::ReadWrite)],
                vec![point(8 + id)],
            ));
        }
    };
    for x_dir in [true, false, false, true] {
        dirstep(&mut body, x_dir);
    }
    let epilogue = if dist {
        Vec::new()
    } else {
        vec![
            lp("mw_totals", vec![], vec![point(0)]),
            lp("mw_totals", vec![], vec![point(3)]),
        ]
    };
    ChainSpec {
        app: if dist {
            "miniweather_dist"
        } else {
            "miniweather"
        },
        dats,
        prologue: Vec::new(),
        body,
        epilogue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydrostatic_profile_sane() {
        let (r0, rt0) = hydrostatic(0.0);
        let (r5, _) = hydrostatic(5000.0);
        assert!((r0 - 1.16).abs() < 0.05, "surface density {r0}");
        assert!(r5 < r0, "density decreases with height");
        assert!((rt0 / r0 - THETA0).abs() < 1e-9);
    }

    #[test]
    fn mass_and_heat_conserved() {
        let run = MiniWeather::run(Config {
            nx: 40,
            nz: 20,
            sim_time: 10.0,
            ..Config::default()
        });
        assert!(
            run.validation < 1e-8,
            "conservation drift {}",
            run.validation
        );
        assert!(run.iterations > 5);
    }

    #[test]
    fn bubble_starts_rising() {
        let cfg = Config {
            nx: 50,
            nz: 25,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = MiniWeather::new(cfg);
        assert_eq!(sim.max_abs_w(), 0.0);
        for _ in 0..20 {
            sim.step(&mut profile);
        }
        assert!(
            sim.max_abs_w() > 1e-4,
            "w momentum developed: {}",
            sim.max_abs_w()
        );
        // Upward in the bubble column: w > 0 at the bubble centre.
        let (nx, nz) = (50isize, 25isize);
        let wc = sim.state[ID_WMOM].get(nx / 2, nz / 5);
        assert!(wc > 0.0, "bubble core rises, wmom = {wc}");
    }

    #[test]
    fn solution_stays_finite() {
        let cfg = Config {
            nx: 32,
            nz: 16,
            sim_time: 20.0,
            ..Config::default()
        };
        let run = MiniWeather::run(cfg);
        assert!(run.validation.is_finite());
    }

    #[test]
    fn serial_equals_rayon() {
        let base = Config {
            nx: 24,
            nz: 12,
            sim_time: 3.0,
            ..Config::default()
        };
        let a = MiniWeather::run(Config {
            mode: ExecMode::Serial,
            ..base.clone()
        });
        let b = MiniWeather::run(Config {
            mode: ExecMode::Rayon,
            ..base
        });
        assert_eq!(a.validation, b.validation);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn profile_contains_all_kernels() {
        let run = MiniWeather::run(Config {
            nx: 16,
            nz: 8,
            sim_time: 1.0,
            ..Config::default()
        });
        for k in ["mw_tend_x", "mw_tend_z", "mw_update"] {
            assert!(run.profile.get(k).is_some(), "missing kernel {k}");
        }
        // Per full step: 3 x-tend + 3 z-tend; updates: 3 stages × 4 fields × 2 dirs.
        let tx = run.profile.get("mw_tend_x").unwrap();
        assert_eq!(tx.calls as usize, 3 * run.iterations);
        let up = run.profile.get("mw_update").unwrap();
        assert_eq!(up.calls as usize, 24 * run.iterations);
    }

    #[test]
    fn distributed_ring_matches_single_rank_bitwise() {
        use bwb_shmpi::Universe;
        let steps = 4;
        // 50 columns over 3 ranks leave slabs of 17, 17 and 16.
        for (ranks, nx) in [(2usize, 48usize), (3, 48), (4, 48), (3, 50)] {
            let cfg = Config {
                nx,
                nz: 12,
                sim_time: 0.0,
                ..Config::default()
            };
            // Serial reference (column-major like the distributed gather).
            let single = {
                let mut profile = Profile::new();
                let mut sim = MiniWeather::new(cfg.clone());
                for _ in 0..steps {
                    sim.step(&mut profile);
                }
                let mut v = Vec::new();
                for i in 0..nx as isize {
                    for k in 0..12isize {
                        v.push(sim.state[ID_DENS].get(i, k));
                    }
                }
                v
            };
            let out = Universe::run(ranks, move |c| {
                MiniWeather::run_distributed(c, cfg.clone(), steps).1
            });
            let dist = out.results[0].as_ref().unwrap();
            assert_eq!(dist.len(), single.len());
            for (a, b) in dist.iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "{ranks} ranks, nx = {nx}");
            }
        }
    }

    #[test]
    fn distributed_ring_wraps_periodically() {
        use bwb_shmpi::Universe;
        // 2 ranks: rank 0's left neighbour is rank 1 — messages must flow
        // around the ring (sends counted on both ranks every x tendency).
        let cfg = Config {
            nx: 16,
            nz: 8,
            sim_time: 0.0,
            ..Config::default()
        };
        let out = Universe::run(2, move |c| {
            let _ = MiniWeather::run_distributed(c, cfg.clone(), 2);
            c.stats()
        });
        for (rank, s) in out.results.iter().enumerate() {
            // Only `mw_tend_x` reads x ghosts: 2 steps × 3 stages × 4
            // fields × 2 sides = 48 halo sends (the z pass fills its walls
            // locally); non-root ranks add 1 gather message.
            let expect = if rank == 0 { 48 } else { 49 };
            assert_eq!(s.sends, expect, "rank {rank}");
        }
    }

    #[test]
    fn dt_respects_cfl() {
        let sim = MiniWeather::new(Config {
            nx: 100,
            nz: 50,
            ..Config::default()
        });
        let dx = 2.0e4 / 100.0;
        assert!((sim.dt() - dx / MAX_SPEED).abs() < 1e-12);
    }
}
