//! OpenSBLI SA & SN — structured-mesh finite-difference Navier–Stokes
//! solver proxy (paper §3, app 4).
//!
//! OpenSBLI generates finite-difference solvers in two formulations the
//! paper contrasts:
//!
//! * **SA (Store All)** — every spatial derivative is computed once into a
//!   work array, then a combination kernel assembles the right-hand side:
//!   minimal recomputation, maximal data movement → bandwidth-bound;
//! * **SN (Store None)** — one fused kernel recomputes all derivatives on
//!   the fly: more FLOPs, far less data movement.
//!
//! We implement both formulations of the same governing system — a
//! five-field advection–diffusion system with per-field advection
//! velocities (the data-flow skeleton of the compressible Navier–Stokes
//! RHS) discretized with 4th-order central differences and SSP-RK3 time
//! stepping on a periodic box. The two variants execute arithmetically
//! identical updates, so the module's headline validation is **SA ≡ SN
//! bitwise**; accuracy is validated against the analytic decaying-advected
//! sine mode.
//!
//! Double precision; paper size 320³, 20 iterations.

use crate::{AppId, AppRun};
use bwb_ops::{
    fused3_planes, par_loop3_planes, recording_active, Dat3, ExecMode, FusedLoop3, OptPlan,
    Profile, Range3, RowIn3, RowOut3,
};

/// Number of solution fields (ρ, ρu, ρv, ρw, ρE analogue).
pub const NFIELDS: usize = 5;
/// Stencil radius of the 4th-order central differences.
pub const RADIUS: isize = 2;

/// 4th-order first derivative: (−s₂ + 8s₁ − 8s₋₁ + s₋₂)/12h.
#[inline]
fn d1(sm2: f64, sm1: f64, sp1: f64, sp2: f64, h: f64) -> f64 {
    (sm2 - 8.0 * sm1 + 8.0 * sp1 - sp2) / (12.0 * h)
}

/// 4th-order second derivative: (−s₂ + 16s₁ − 30s₀ + 16s₋₁ − s₋₂)/12h².
#[inline]
fn d2(sm2: f64, sm1: f64, s0: f64, sp1: f64, sp2: f64, h: f64) -> f64 {
    (-sm2 + 16.0 * sm1 - 30.0 * s0 + 16.0 * sp1 - sp2) / (12.0 * h * h)
}

/// Which formulation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    StoreAll,
    StoreNone,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub n: usize,
    pub iterations: usize,
    pub variant: Variant,
    /// Diffusion coefficient.
    pub nu: f64,
    pub mode: ExecMode,
    /// Optimization plan from `dslcheck` dataflow analysis. `None` (or a
    /// plan certifying nothing) runs the baseline schedule; a plan enables
    /// exactly the transforms it certifies — here, fusing the Store-All
    /// derivative+combine group into one traversal.
    pub plan: Option<OptPlan>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 24,
            iterations: 5,
            variant: Variant::StoreAll,
            nu: 0.02,
            mode: ExecMode::Serial,
            plan: None,
        }
    }
}

impl Config {
    /// Paper testcase: 320³, 20 iterations.
    pub fn paper(variant: Variant) -> Self {
        Config {
            n: 320,
            iterations: 20,
            variant,
            nu: 0.02,
            mode: ExecMode::Rayon,
            plan: None,
        }
    }
}

/// Per-field advection velocity (x component; y/z are cyclic shifts).
const ADV: [f64; NFIELDS] = [1.0, 0.8, -0.6, 0.4, -0.2];

/// The 13 rows of the radius-2 star stencil of input field 0, captured once
/// per `(j,k)` row so the derivative loops are straight slice arithmetic.
struct StencilRows<'a> {
    c: &'a [f64],
    xm2: &'a [f64],
    xm1: &'a [f64],
    xp1: &'a [f64],
    xp2: &'a [f64],
    ym2: &'a [f64],
    ym1: &'a [f64],
    yp1: &'a [f64],
    yp2: &'a [f64],
    zm2: &'a [f64],
    zm1: &'a [f64],
    zp1: &'a [f64],
    zp2: &'a [f64],
}

impl<'a> StencilRows<'a> {
    #[inline]
    fn capture(s: &RowIn3<'a, f64>) -> Self {
        StencilRows {
            c: s.row(0),
            xm2: s.row_off(0, -2, 0, 0),
            xm1: s.row_off(0, -1, 0, 0),
            xp1: s.row_off(0, 1, 0, 0),
            xp2: s.row_off(0, 2, 0, 0),
            ym2: s.row_off(0, 0, -2, 0),
            ym1: s.row_off(0, 0, -1, 0),
            yp1: s.row_off(0, 0, 1, 0),
            yp2: s.row_off(0, 0, 2, 0),
            zm2: s.row_off(0, 0, 0, -2),
            zm1: s.row_off(0, 0, 0, -1),
            zp1: s.row_off(0, 0, 0, 1),
            zp2: s.row_off(0, 0, 0, 2),
        }
    }
}

/// Shared body of the Store-All derivative loop: input 0 is the source
/// field, outputs 0–5 its six derivative arrays. Shared verbatim between
/// the sequential driver and the fused executor, so bit-identity between
/// the two schedules is structural rather than re-proved per change.
fn sa_derivs_body(h: f64, out: &mut RowOut3<f64>, s: &RowIn3<f64>) {
    let st = StencilRows::capture(s);
    {
        let (o0, o1, o2) = out.rows3(0, 1, 2);
        for i in 0..o0.len() {
            o0[i] = d1(st.xm2[i], st.xm1[i], st.xp1[i], st.xp2[i], h);
            o1[i] = d1(st.ym2[i], st.ym1[i], st.yp1[i], st.yp2[i], h);
            o2[i] = d1(st.zm2[i], st.zm1[i], st.zp1[i], st.zp2[i], h);
        }
    }
    let (o3, o4, o5) = out.rows3(3, 4, 5);
    for i in 0..o3.len() {
        let c = st.c[i];
        o3[i] = d2(st.xm2[i], st.xm1[i], c, st.xp1[i], st.xp2[i], h);
        o4[i] = d2(st.ym2[i], st.ym1[i], c, st.yp1[i], st.yp2[i], h);
        o5[i] = d2(st.zm2[i], st.zm1[i], c, st.zp1[i], st.zp2[i], h);
    }
}

/// Shared body of the Store-All combination loop: inputs 0–5 are the six
/// derivative arrays of one field, output 0 that field's RHS.
fn sa_combine_body(ax: f64, ay: f64, az: f64, nu: f64, out: &mut RowOut3<f64>, w: &RowIn3<f64>) {
    let dx1 = w.row(0);
    let dy1 = w.row(1);
    let dz1 = w.row(2);
    let dx2 = w.row(3);
    let dy2 = w.row(4);
    let dz2 = w.row(5);
    let r = out.row(0);
    for i in 0..r.len() {
        let adv = ax * dx1[i] + ay * dy1[i] + az * dz1[i];
        let dif = dx2[i] + dy2[i] + dz2[i];
        r[i] = -adv + nu * dif;
    }
}

/// The recorded loop-name window of one Store-All RHS evaluation — five
/// derivative loops then five combine loops — that a plan must certify as
/// a fusion group for [`OpenSbli::rhs_store_all`] to take the fused path.
const FUSED_RHS_NAMES: [&str; 2 * NFIELDS] = [
    "sbli_sa_derivs",
    "sbli_sa_derivs",
    "sbli_sa_derivs",
    "sbli_sa_derivs",
    "sbli_sa_derivs",
    "sbli_sa_combine",
    "sbli_sa_combine",
    "sbli_sa_combine",
    "sbli_sa_combine",
    "sbli_sa_combine",
];

pub struct OpenSbli {
    cfg: Config,
    h: f64,
    dt: f64,
    q: Vec<Dat3<f64>>,
    q1: Vec<Dat3<f64>>,
    q2: Vec<Dat3<f64>>,
    rhs: Vec<Dat3<f64>>,
    /// SA work arrays: 3 first-derivatives + 3 second-derivatives per field.
    wk: Vec<Dat3<f64>>,
}

impl OpenSbli {
    pub fn new(cfg: Config) -> Self {
        let n = cfg.n;
        let h = 1.0 / n as f64;
        // Advective + diffusive CFL.
        let umax = 1.0;
        let dt = 0.3 * (h / umax).min(h * h / (6.0 * cfg.nu));
        let mk = |tag: &str, count: usize| -> Vec<Dat3<f64>> {
            (0..count)
                .map(|f| Dat3::new(&format!("{tag}{f}"), n, n, n, RADIUS as usize))
                .collect()
        };
        let mut q = mk("q", NFIELDS);
        let k = 2.0 * std::f64::consts::PI;
        for (f, qf) in q.iter_mut().enumerate() {
            let phase = f as f64 * 0.7;
            qf.init_with(|i, j, kz| {
                let x = (i as f64 + 0.5) * h;
                let y = (j as f64 + 0.5) * h;
                let z = (kz as f64 + 0.5) * h;
                (k * (x + y + z) + phase).sin()
            });
        }
        OpenSbli {
            h,
            dt,
            q,
            q1: mk("q1_", NFIELDS),
            q2: mk("q2_", NFIELDS),
            rhs: mk("rhs", NFIELDS),
            wk: mk("wk", 6 * NFIELDS),
            cfg,
        }
    }

    pub fn dt(&self) -> f64 {
        self.dt
    }

    fn periodic_halos(fields: &mut [Dat3<f64>], n: isize) {
        let r = RADIUS;
        for f in fields {
            // x
            for k in 0..n {
                for j in 0..n {
                    for hh in 1..=r {
                        f.set(-hh, j, k, f.get(n - hh, j, k));
                        f.set(n - 1 + hh, j, k, f.get(hh - 1, j, k));
                    }
                }
            }
            // y (x-extended)
            for k in 0..n {
                for i in -r..n + r {
                    for hh in 1..=r {
                        f.set(i, -hh, k, f.get(i, n - hh, k));
                        f.set(i, n - 1 + hh, k, f.get(i, hh - 1, k));
                    }
                }
            }
            // z (xy-extended)
            for j in -r..n + r {
                for i in -r..n + r {
                    for hh in 1..=r {
                        f.set(i, j, -hh, f.get(i, j, n - hh));
                        f.set(i, j, n - 1 + hh, f.get(i, j, hh - 1));
                    }
                }
            }
        }
    }

    /// Store-All RHS: stage 1 stores the 6 derivative arrays per field,
    /// stage 2 combines them.
    fn rhs_store_all(&mut self, profile: &mut Profile, src_sel: usize) {
        let n = self.cfg.n;
        let h = self.h;
        let nu = self.cfg.nu;
        let range = Range3::interior(n, n, n);
        {
            let src = match src_sel {
                0 => &mut self.q,
                1 => &mut self.q1,
                _ => &mut self.q2,
            };
            Self::periodic_halos(src, n as isize);
        }
        let src: &Vec<Dat3<f64>> = match src_sel {
            0 => &self.q,
            1 => &self.q1,
            _ => &self.q2,
        };
        let fuse = !recording_active()
            && self
                .cfg
                .plan
                .as_ref()
                .is_some_and(|p| p.certifies_fusion(&FUSED_RHS_NAMES));
        if fuse {
            // Plan-guided path: run all ten loops in one traversal. The
            // store is `[wk(30), rhs(5) | src(5)]`; each combine member
            // reads the wk slots its derivative member wrote, a radius-0
            // crossing the certificate proved safe to interleave per row.
            let plan = self.cfg.plan.as_ref().expect("fuse implies plan");
            let mut loops: Vec<FusedLoop3<f64>> = Vec::with_capacity(2 * NFIELDS);
            for f in 0..NFIELDS {
                let outs: Vec<usize> = (6 * f..6 * f + 6).collect();
                loops.push(FusedLoop3::new(
                    "sbli_sa_derivs",
                    &outs,
                    &[7 * NFIELDS + f],
                    60.0,
                    move |_j, _k, out, s| sa_derivs_body(h, out, s),
                ));
            }
            for f in 0..NFIELDS {
                let (ax, ay, az) = (ADV[f], ADV[(f + 1) % NFIELDS], ADV[(f + 2) % NFIELDS]);
                let ins: Vec<usize> = (6 * f..6 * f + 6).collect();
                loops.push(FusedLoop3::new(
                    "sbli_sa_combine",
                    &[6 * NFIELDS + f],
                    &ins,
                    10.0,
                    move |_j, _k, out, w| sa_combine_body(ax, ay, az, nu, out, w),
                ));
            }
            let mut store_mut: Vec<&mut Dat3<f64>> =
                self.wk.iter_mut().chain(self.rhs.iter_mut()).collect();
            let store_ro: Vec<&Dat3<f64>> = src.iter().collect();
            fused3_planes(
                profile,
                self.cfg.mode,
                range,
                &mut store_mut,
                &store_ro,
                &loops,
                plan,
            )
            .expect("certified fusion rejected at runtime");
            return;
        }
        // Stage 1: derivatives into work arrays (one loop per field,
        // writing all 6 derivative arrays of that field).
        for (f, srcf) in src.iter().enumerate() {
            let mut outs: Vec<&mut Dat3<f64>> = self.wk.iter_mut().skip(6 * f).take(6).collect();
            par_loop3_planes(
                profile,
                "sbli_sa_derivs",
                self.cfg.mode,
                range,
                &mut outs,
                &[srcf],
                60.0,
                move |_j, _k, out, s| sa_derivs_body(h, out, s),
            );
        }
        // Stage 2: combine into the RHS.
        for f in 0..NFIELDS {
            let (ax, ay, az) = (ADV[f], ADV[(f + 1) % NFIELDS], ADV[(f + 2) % NFIELDS]);
            let ins: Vec<&Dat3<f64>> = self.wk[6 * f..6 * f + 6].iter().collect();
            par_loop3_planes(
                profile,
                "sbli_sa_combine",
                self.cfg.mode,
                range,
                &mut [&mut self.rhs[f]],
                &ins,
                10.0,
                move |_j, _k, out, w| sa_combine_body(ax, ay, az, nu, out, w),
            );
        }
    }

    /// Store-None RHS: one fused kernel per field recomputing everything.
    fn rhs_store_none(&mut self, profile: &mut Profile, src_sel: usize) {
        let n = self.cfg.n;
        let h = self.h;
        let nu = self.cfg.nu;
        let range = Range3::interior(n, n, n);
        {
            let src = match src_sel {
                0 => &mut self.q,
                1 => &mut self.q1,
                _ => &mut self.q2,
            };
            Self::periodic_halos(src, n as isize);
        }
        let src: &Vec<Dat3<f64>> = match src_sel {
            0 => &self.q,
            1 => &self.q1,
            _ => &self.q2,
        };
        for f in 0..NFIELDS {
            let (ax, ay, az) = (ADV[f], ADV[(f + 1) % NFIELDS], ADV[(f + 2) % NFIELDS]);
            par_loop3_planes(
                profile,
                "sbli_sn_fused",
                self.cfg.mode,
                range,
                &mut [&mut self.rhs[f]],
                &[&src[f]],
                90.0,
                move |_j, _k, out, s| {
                    let st = StencilRows::capture(s);
                    let r = out.row(0);
                    // Exactly the SA arithmetic, in the same order:
                    for (i, ri) in r.iter_mut().enumerate() {
                        let dx1 = d1(st.xm2[i], st.xm1[i], st.xp1[i], st.xp2[i], h);
                        let dy1 = d1(st.ym2[i], st.ym1[i], st.yp1[i], st.yp2[i], h);
                        let dz1 = d1(st.zm2[i], st.zm1[i], st.zp1[i], st.zp2[i], h);
                        let c = st.c[i];
                        let dx2 = d2(st.xm2[i], st.xm1[i], c, st.xp1[i], st.xp2[i], h);
                        let dy2 = d2(st.ym2[i], st.ym1[i], c, st.yp1[i], st.yp2[i], h);
                        let dz2 = d2(st.zm2[i], st.zm1[i], c, st.zp1[i], st.zp2[i], h);
                        let adv = ax * dx1 + ay * dy1 + az * dz1;
                        let dif = dx2 + dy2 + dz2;
                        *ri = -adv + nu * dif;
                    }
                },
            );
        }
    }

    fn rhs(&mut self, profile: &mut Profile, src_sel: usize) {
        match self.cfg.variant {
            Variant::StoreAll => self.rhs_store_all(profile, src_sel),
            Variant::StoreNone => self.rhs_store_none(profile, src_sel),
        }
    }

    /// One SSP-RK3 step.
    pub fn step(&mut self, profile: &mut Profile) {
        let n = self.cfg.n;
        let dt = self.dt;
        let range = Range3::interior(n, n, n);
        let mode = self.cfg.mode;

        // Stage 1: q1 = q + dt·L(q)
        self.rhs(profile, 0);
        for f in 0..NFIELDS {
            par_loop3_planes(
                profile,
                "sbli_rk",
                mode,
                range,
                &mut [&mut self.q1[f]],
                &[&self.q[f], &self.rhs[f]],
                2.0,
                move |_j, _k, out, s| {
                    let q = s.row(0);
                    let l = s.row(1);
                    let r = out.row(0);
                    for i in 0..r.len() {
                        r[i] = q[i] + dt * l[i];
                    }
                },
            );
        }
        // Stage 2: q2 = 3/4 q + 1/4 (q1 + dt·L(q1))
        self.rhs(profile, 1);
        for f in 0..NFIELDS {
            par_loop3_planes(
                profile,
                "sbli_rk",
                mode,
                range,
                &mut [&mut self.q2[f]],
                &[&self.q[f], &self.q1[f], &self.rhs[f]],
                5.0,
                move |_j, _k, out, s| {
                    let q = s.row(0);
                    let q1 = s.row(1);
                    let l = s.row(2);
                    let r = out.row(0);
                    for i in 0..r.len() {
                        r[i] = 0.75 * q[i] + 0.25 * (q1[i] + dt * l[i]);
                    }
                },
            );
        }
        // Stage 3: q = 1/3 q + 2/3 (q2 + dt·L(q2))
        self.rhs(profile, 2);
        for f in 0..NFIELDS {
            let qf = &mut self.q[f];
            par_loop3_planes(
                profile,
                "sbli_rk",
                mode,
                range,
                &mut [qf],
                &[&self.q2[f], &self.rhs[f]],
                5.0,
                move |_j, _k, out, s| {
                    let q2 = s.row(0);
                    let l = s.row(1);
                    let r = out.row(0);
                    for i in 0..r.len() {
                        r[i] = r[i] / 3.0 + 2.0 / 3.0 * (q2[i] + dt * l[i]);
                    }
                },
            );
        }
    }

    /// L∞ error of field 0 against the analytic decaying advected mode.
    pub fn field0_error(&self, steps: usize) -> f64 {
        let n = self.cfg.n;
        let h = self.h;
        let k = 2.0 * std::f64::consts::PI;
        let t = steps as f64 * self.dt;
        // Mode sin(k(x+y+z)): advection shifts phase by k(ax+ay+az)t,
        // diffusion damps by exp(−3k²νt) (∇² of the plane wave in the
        // (1,1,1) direction has magnitude 3k²).
        let (ax, ay, az) = (ADV[0], ADV[1], ADV[2]);
        let shift = (ax + ay + az) * t;
        let damp = (-3.0 * k * k * self.cfg.nu * t).exp();
        let mut err = 0.0f64;
        for kz in 0..n as isize {
            for j in 0..n as isize {
                for i in 0..n as isize {
                    let x = (i as f64 + 0.5) * h;
                    let y = (j as f64 + 0.5) * h;
                    let z = (kz as f64 + 0.5) * h;
                    let exact = (k * (x + y + z - shift)).sin() * damp;
                    err = err.max((self.q[0].get(i, j, kz) - exact).abs());
                }
            }
        }
        err
    }

    /// Checksum over all fields (bitwise-comparable between variants).
    pub fn checksum(&self) -> f64 {
        let n = self.cfg.n as isize;
        let mut s = 0.0;
        for qf in &self.q {
            for k in 0..n {
                for j in 0..n {
                    for i in 0..n {
                        s += qf.get(i, j, k);
                    }
                }
            }
        }
        s
    }

    pub fn run(cfg: Config) -> AppRun {
        let app = match cfg.variant {
            Variant::StoreAll => AppId::OpenSbliSa,
            Variant::StoreNone => AppId::OpenSbliSn,
        };
        let mut profile = Profile::new();
        let points = cfg.n.pow(3);
        let iterations = cfg.iterations;
        let mut sim = OpenSbli::new(cfg);
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "rk_step");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.step(&mut profile);
        }
        let validation = sim.field0_error(iterations);
        AppRun {
            app,
            profile,
            validation,
            iterations,
            points,
        }
    }
}

/// Declared loop chain: one SSP-RK3 step over a parametric `n³`
/// interior, every loop's access contract stated at its step. Slots 0‑4
/// are `q`, 5‑9 `q1`, 10‑14 `q2`, 15‑19 `rhs`, 20‑49 the 30 derivative
/// work arrays (Store‑All only — Store‑None never touches them, and unused
/// slots are harmless). `periodic_halos` is a hand-rolled fill, not a
/// `par_loop`: it records nothing and carries no contract, so the chain
/// has no exchanges. The declared chain always takes the unfused path,
/// matching the `!recording_active()` guard in
/// [`OpenSbli::rhs_store_all`].
///
/// `sbli_rk` runs at two arities. The `(1 out, 2 ins)` arity covers both
/// RK stage 1 (`q1 = q + dt·L`, a pure overwrite) and stage 3
/// (`q = 1/3 q + …`, which reads the output back through its row slice), so
/// both declare their output `ReadWrite` — the mode that admits both, and
/// one shape may only carry one contract.
pub fn chain_spec(store_all: bool) -> bwb_ops::ChainSpec {
    use bwb_ops::{Access, ChainSpec, DatDecl, Expr, Stencil, Step};
    const NAMES: [&str; 50] = [
        "q0", "q1", "q2", "q3", "q4", "q1_0", "q1_1", "q1_2", "q1_3", "q1_4", "q2_0", "q2_1",
        "q2_2", "q2_3", "q2_4", "rhs0", "rhs1", "rhs2", "rhs3", "rhs4", "wk0", "wk1", "wk2", "wk3",
        "wk4", "wk5", "wk6", "wk7", "wk8", "wk9", "wk10", "wk11", "wk12", "wk13", "wk14", "wk15",
        "wk16", "wk17", "wk18", "wk19", "wk20", "wk21", "wk22", "wk23", "wk24", "wk25", "wk26",
        "wk27", "wk28", "wk29",
    ];
    let c = Expr::c;
    let p = Expr::p;
    let dats = NAMES
        .iter()
        .map(|name| DatDecl {
            name,
            halo: RADIUS,
            extent: [p("n"), p("n"), p("n")],
            elem_bytes: 8,
        })
        .collect();
    let interior = || [c(0), p("n"), c(0), p("n"), c(0), p("n")];
    let lp = |name, outs, ins| Step::Loop {
        name,
        dims: 3,
        range: interior(),
        outs,
        ins,
    };
    let w = |slot: usize| (slot, Access::Write);
    let rw = |slot: usize| (slot, Access::ReadWrite);
    let point = |slot: usize| (slot, Stencil::point());
    // 4th-order central differences: the radius-2 star.
    let star2 = |slot: usize| (slot, Stencil::plus3(RADIUS));
    let mut body = Vec::new();
    let rhs = |body: &mut Vec<Step>, base: usize| {
        if store_all {
            for f in 0..NFIELDS {
                body.push(lp(
                    "sbli_sa_derivs",
                    (20 + 6 * f..20 + 6 * f + 6).map(w).collect(),
                    vec![star2(base + f)],
                ));
            }
            for f in 0..NFIELDS {
                body.push(lp(
                    "sbli_sa_combine",
                    vec![w(15 + f)],
                    (20 + 6 * f..20 + 6 * f + 6).map(point).collect(),
                ));
            }
        } else {
            for f in 0..NFIELDS {
                body.push(lp("sbli_sn_fused", vec![w(15 + f)], vec![star2(base + f)]));
            }
        }
    };
    rhs(&mut body, 0);
    // Stage 1: q1 = q + dt·L(q).
    for f in 0..NFIELDS {
        body.push(lp(
            "sbli_rk",
            vec![rw(5 + f)],
            vec![point(f), point(15 + f)],
        ));
    }
    rhs(&mut body, 5);
    // Stage 2: q2 = 3/4 q + 1/4 (q1 + dt·L(q1)).
    for f in 0..NFIELDS {
        body.push(lp(
            "sbli_rk",
            vec![w(10 + f)],
            vec![point(f), point(5 + f), point(15 + f)],
        ));
    }
    rhs(&mut body, 10);
    // Stage 3: q = 1/3 q + 2/3 (q2 + dt·L(q2)), reading q back in place.
    for f in 0..NFIELDS {
        body.push(lp(
            "sbli_rk",
            vec![rw(f)],
            vec![point(10 + f), point(15 + f)],
        ));
    }
    ChainSpec {
        app: if store_all {
            "opensbli_sa"
        } else {
            "opensbli_sn"
        },
        dats,
        prologue: Vec::new(),
        body,
        epilogue: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_all_equals_store_none_bitwise() {
        let base = Config {
            n: 16,
            iterations: 4,
            ..Config::default()
        };
        let mut sa = OpenSbli::new(Config {
            variant: Variant::StoreAll,
            ..base.clone()
        });
        let mut sn = OpenSbli::new(Config {
            variant: Variant::StoreNone,
            ..base
        });
        let mut p = Profile::new();
        for _ in 0..4 {
            sa.step(&mut p);
            sn.step(&mut p);
        }
        let (a, b) = (sa.checksum(), sn.checksum());
        assert_eq!(a.to_bits(), b.to_bits(), "SA {a} vs SN {b}");
    }

    #[test]
    fn solution_matches_analytic_mode() {
        let run = OpenSbli::run(Config {
            n: 24,
            iterations: 10,
            ..Config::default()
        });
        assert!(run.validation < 2e-3, "L∞ error {}", run.validation);
    }

    #[test]
    fn error_shrinks_with_resolution() {
        // Compare L∞ error at matched *physical* time on two grids.
        let err_at = |n: usize| {
            let cfg = Config {
                n,
                iterations: 0,
                ..Config::default()
            };
            let mut sim = OpenSbli::new(cfg);
            let t_target = 0.02;
            let steps = (t_target / sim.dt()).round() as usize;
            let mut p = Profile::new();
            for _ in 0..steps {
                sim.step(&mut p);
            }
            sim.field0_error(steps)
        };
        let e1 = err_at(12);
        let e2 = err_at(24);
        assert!(e2 < e1 / 4.0, "4th-order-ish convergence: {e1} vs {e2}");
    }

    #[test]
    fn sa_moves_more_bytes_sn_more_flops() {
        let base = Config {
            n: 16,
            iterations: 3,
            ..Config::default()
        };
        let sa = OpenSbli::run(Config {
            variant: Variant::StoreAll,
            ..base.clone()
        });
        let sn = OpenSbli::run(Config {
            variant: Variant::StoreNone,
            ..base
        });
        assert!(
            sa.profile.total_bytes() > 2 * sn.profile.total_bytes(),
            "SA bytes {} vs SN bytes {}",
            sa.profile.total_bytes(),
            sn.profile.total_bytes()
        );
        assert!(
            sn.profile.intensity() > 2.0 * sa.profile.intensity(),
            "SN intensity {} vs SA {}",
            sn.profile.intensity(),
            sa.profile.intensity()
        );
    }

    #[test]
    fn serial_equals_rayon() {
        let base = Config {
            n: 12,
            iterations: 3,
            ..Config::default()
        };
        let a = OpenSbli::run(Config {
            mode: ExecMode::Serial,
            ..base.clone()
        });
        let b = OpenSbli::run(Config {
            mode: ExecMode::Rayon,
            ..base
        });
        assert_eq!(a.validation, b.validation);
    }

    #[test]
    fn kernel_names_reflect_variant() {
        let sa = OpenSbli::run(Config {
            n: 8,
            iterations: 1,
            variant: Variant::StoreAll,
            ..Config::default()
        });
        assert!(sa.profile.get("sbli_sa_derivs").is_some());
        assert!(sa.profile.get("sbli_sn_fused").is_none());
        let sn = OpenSbli::run(Config {
            n: 8,
            iterations: 1,
            variant: Variant::StoreNone,
            ..Config::default()
        });
        assert!(sn.profile.get("sbli_sn_fused").is_some());
    }
}
