//! CloverLeaf 2D — structured-mesh Eulerian hydrodynamics (paper §3, app 2).
//!
//! A compact re-implementation of the CloverLeaf algorithm: compressible
//! Euler equations on a staggered Cartesian grid (cell-centred density,
//! energy, pressure; node-centred velocities), solved with an explicit
//! Lagrangian step (ideal-gas EOS, artificial viscosity, PdV work, nodal
//! acceleration) followed by directional-split first-order donor-cell
//! advective remap — the same kernel structure (ideal_gas, viscosity,
//! calc_dt, accelerate, pdv, flux_calc, advec_cell x/y, advec_mom x/y,
//! update_halo) and data-access patterns as the original, with van-Leer
//! limiting simplified to donor-cell (documented substitution: first-order
//! advection preserves the bandwidth-bound character — the paper's concern
//! — while keeping the remap exactly conservative). The original's
//! `reset_field` copies have no counterpart: the remap and the momentum
//! advection write the state in place. Each halo site updates only the
//! fields a later loop reads through it, along the axes it reads: the cell
//! sites of [`CELL_HALO_SITES`] and one node site for the velocities
//! `advec_mom` reads.
//!
//! Closed reflective box; validation: exact mass conservation, bounded
//! total energy, preserved mirror symmetry.
//!
//! Double precision; paper size 7680², 50 iterations (here scaled down by
//! default, `Config::paper()` gives the full size).

use crate::{AppId, AppRun};
use bwb_ops::{
    fused2_rows, par_loop2_rows, par_loop2_rows_reduce, recording_active, Axes, Dat2, DistBlock2,
    ExecMode, FusedLoop2, OptPlan, Profile, Range2, RowIn2, RowOut2,
};
use bwb_shmpi::{Comm, ReduceOp};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub const GAMMA: f64 = 1.4;
/// Halo depth (CloverLeaf uses 2).
pub const HALO: usize = 2;

/// Advective remap scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advection {
    /// First-order upwind (exactly conservative, diffusive).
    DonorCell,
    /// Second-order van Leer-limited reconstruction — CloverLeaf's actual
    /// scheme: still exactly conservative, much sharper fronts.
    VanLeer,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub nx: usize,
    pub ny: usize,
    pub iterations: usize,
    /// CFL safety factor.
    pub cfl: f64,
    pub mode: ExecMode,
    pub advection: Advection,
    /// Optimization plan from `dslcheck` certificates. `None` (or an empty
    /// plan) runs the baseline schedule; a plan that certifies it fuses the
    /// `ideal_gas`+`viscosity` traversal, bit-identical to the baseline by
    /// construction.
    pub plan: Option<OptPlan>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nx: 48,
            ny: 48,
            iterations: 20,
            cfl: 0.5,
            mode: ExecMode::Serial,
            advection: Advection::DonorCell,
            plan: None,
        }
    }
}

impl Config {
    /// Paper testcase: 7680², 50 iterations, van Leer advection.
    pub fn paper() -> Self {
        Config {
            nx: 7680,
            ny: 7680,
            iterations: 50,
            cfl: 0.5,
            mode: ExecMode::Rayon,
            advection: Advection::VanLeer,
            plan: None,
        }
    }
}

/// Van Leer flux limiter φ(r) = (r + |r|) / (1 + |r|).
#[cfg(test)]
#[inline]
fn van_leer(r: f64) -> f64 {
    if r.is_finite() {
        (r + r.abs()) / (1.0 + r.abs())
    } else {
        2.0 // monotone upstream: Δ downstream is 0 ⇒ limited slope is 0 anyway
    }
}

/// Face value of one advected quantity: the donor cell's `d`, with optional
/// van Leer-limited reconstruction toward the face from its downstream
/// (`down`) and upstream (`up`) neighbours. The branchy reference of
/// [`face_val_sel`].
#[cfg(test)]
fn face_val(scheme: Advection, vol: f64, fv: f64, d: f64, down: f64, up: f64) -> f64 {
    if scheme == Advection::DonorCell {
        return d;
    }
    let dd = down - d;
    if dd == 0.0 {
        return d;
    }
    let r = (d - up) / dd;
    let sigma = (fv / vol).abs().min(1.0);
    d + 0.5 * van_leer(r) * (1.0 - sigma) * dd
}

/// Mass and energy carried through one face by volume flux `fv`, from the
/// four cells along the sweep axis around it: `w[1] | w[2]` share the face,
/// `w[0]` and `w[3]` lie beyond them. Flux is from `w[1]` to `w[2]` when
/// `fv > 0`. The branchy reference of [`face_pass`].
#[cfg(test)]
fn face_flux(scheme: Advection, vol: f64, fv: f64, rho: [f64; 4], e: [f64; 4]) -> (f64, f64) {
    let val = |w: [f64; 4]| {
        if fv > 0.0 {
            face_val(scheme, vol, fv, w[1], w[2], w[0])
        } else {
            face_val(scheme, vol, fv, w[2], w[1], w[3])
        }
    };
    let m = fv * val(rho);
    (m, m * val(e))
}

/// [`face_val`] in select form: every operand is computed and each branch
/// becomes a select of values already at hand, so a loop of faces
/// vectorizes. Each lane runs the reference's expressions in its order, so
/// the bits are the reference's, `±0.0` and non-finite `r` included.
#[inline(always)]
fn face_val_sel<const VAN_LEER: bool>(vol: f64, fv: f64, w: [f64; 4]) -> f64 {
    let pos = fv > 0.0;
    let d = if pos { w[1] } else { w[2] };
    if !VAN_LEER {
        return d;
    }
    let (down, up) = if pos { (w[2], w[0]) } else { (w[1], w[3]) };
    let dd = down - d;
    let r = (d - up) / dd;
    let limited = (r + r.abs()) / (1.0 + r.abs());
    let phi = if r.is_finite() { limited } else { 2.0 };
    let sigma = (fv / vol).abs().min(1.0);
    let reconstructed = d + 0.5 * phi * (1.0 - sigma) * dd;
    if dd == 0.0 {
        d
    } else {
        reconstructed
    }
}

/// Mass and energy fluxes `(m[x], me[x])` of a run of faces: face `x` has
/// volume flux `fv[x]` and the four cells `rho[k][x]`, `e[k][x]` around it
/// in the order [`face_flux`] takes them. A plain loop over
/// [`face_val_sel`], so it runs in vector lanes and gives each face the
/// bits of [`face_flux`].
///
/// A van Leer face whose two cells are equal (`dd == 0`) takes the donor
/// value, as donor cell does; a run of only such faces, a uniform stretch
/// of the state, runs the donor-cell loop and skips five divisions a face.
fn face_pass(
    scheme: Advection,
    vol: f64,
    fv: &[f64],
    rho: [&[f64]; 4],
    e: [&[f64]; 4],
    m: &mut [f64],
    me: &mut [f64],
) {
    #[cfg(test)]
    FACE_EVALS.with(|c| c.set(c.get() + fv.len() as u64));
    if scheme == Advection::DonorCell || uniform(rho[1], rho[2]) && uniform(e[1], e[2]) {
        faces::<false>(vol, fv, rho, e, m, me)
    } else {
        faces::<true>(vol, fv, rho, e, m, me)
    }
}

/// True iff `a[x] - b[x] == 0.0` for every `x` of `a`: the `dd == 0` of
/// [`face_val`] for either flux sign, since `-(a - b)` is exactly `b - a`.
fn uniform(a: &[f64], b: &[f64]) -> bool {
    let b = &b[..a.len()];
    let mut all = true;
    for x in 0..a.len() {
        all &= a[x] - b[x] == 0.0;
    }
    all
}

#[inline(always)]
fn faces<const VAN_LEER: bool>(
    vol: f64,
    fv: &[f64],
    rho: [&[f64]; 4],
    e: [&[f64]; 4],
    m: &mut [f64],
    me: &mut [f64],
) {
    // Every slice cut to one length: the loop checks no bound.
    let n = fv.len();
    let (rho, e) = (rho.map(|w| &w[..n]), e.map(|w| &w[..n]));
    let (m, me) = (&mut m[..n], &mut me[..n]);
    for x in 0..n {
        let f = fv[x];
        let mass = f * face_val_sel::<VAN_LEER>(vol, f, rho.map(|w| w[x]));
        m[x] = mass;
        me[x] = mass * face_val_sel::<VAN_LEER>(vol, f, e.map(|w| w[x]));
    }
}

/// Remapped `(density, energy)` of one cell from the mass and energy
/// fluxes through its inflow (low) and outflow (high) face.
#[inline(always)]
pub(crate) fn remap_cell(
    vol: f64,
    rho: f64,
    e: f64,
    flux_in: (f64, f64),
    flux_out: (f64, f64),
) -> (f64, f64) {
    let mass = rho * vol + flux_in.0 - flux_out.0;
    let energy_mass = rho * e * vol + flux_in.1 - flux_out.1;
    (mass / vol, energy_mass / mass.max(1e-300))
}

/// [`remap_cell`] over a run of cells: cell `x` has state `rho[x]`, `e[x]`,
/// low-face fluxes `lo.0[x]`, `lo.1[x]` and high-face fluxes `hi.0[x]`,
/// `hi.1[x]`, and its result goes to `d1[x]`, `e1[x]`.
fn cell_pass(
    vol: f64,
    (rho, e): (&[f64], &[f64]),
    lo: (&[f64], &[f64]),
    hi: (&[f64], &[f64]),
    d1: &mut [f64],
    e1: &mut [f64],
) {
    let n = d1.len();
    let (rho, e, e1) = (&rho[..n], &e[..n], &mut e1[..n]);
    let (lo_m, lo_e, hi_m, hi_e) = (&lo.0[..n], &lo.1[..n], &hi.0[..n], &hi.1[..n]);
    for x in 0..n {
        (d1[x], e1[x]) = remap_cell(vol, rho[x], e[x], (lo_m[x], lo_e[x]), (hi_m[x], hi_e[x]));
    }
}

/// Cells per block of a remap row: a block's face fluxes stay in L1
/// between the face pass and the cell pass, and neither pass carries a
/// dependency from one point to the next.
const X_BLOCK: usize = 256;

/// The four windows `w[k0..k0 + 4]`, each cut to elements `r`: with windows
/// one cell apart along the sweep axis, the cells around a run of faces in
/// the order [`face_pass`] takes them.
fn window4<'a>(w: &[&'a [f64]; 5], k0: usize, r: Range<usize>) -> [&'a [f64]; 4] {
    [0, 1, 2, 3].map(|k| &w[k0 + k][r.clone()])
}

/// Calls of the Y sweep, numbered process-wide: a carry left by one sweep
/// never matches a row of another, even one of a different simulation.
static Y_SWEEPS: AtomicU64 = AtomicU64::new(0);

/// A thread's face-flux buffers for the remap sweeps. They persist from
/// row to row and only grow, so no row zero-fills any; a row uses a prefix.
///
/// In the Y sweep, `m`/`e` hold the high-face fluxes of the last row the
/// thread remapped, which are the low-face fluxes of the row above it, and
/// `hi_m`/`hi_e` take the current row's high faces; the pairs trade places
/// when the row finishes. The X sweep keeps one block's faces in
/// `hi_m`/`hi_e`, which a Y row writes before it reads them.
#[derive(Default)]
struct FaceCarry {
    /// `(sweep call, row, width)` of the row whose high faces `m`/`e`
    /// hold; `None` while a row is being written.
    key: Option<(u64, isize, usize)>,
    m: Vec<f64>,
    e: Vec<f64>,
    hi_m: Vec<f64>,
    hi_e: Vec<f64>,
}

impl FaceCarry {
    /// Starts row `j` of sweep `call`, `n` faces wide, with every buffer at
    /// least `n` long. True iff `m`/`e` hold row `j - 1`'s high faces of the
    /// same sweep and width, i.e. this row's low faces; otherwise the
    /// caller evaluates those.
    fn begin(&mut self, call: u64, j: isize, n: usize) -> bool {
        let carried = self.key == Some((call, j - 1, n));
        self.key = None;
        for v in [&mut self.m, &mut self.e, &mut self.hi_m, &mut self.hi_e] {
            grow(v, n);
        }
        carried
    }

    /// Makes row `j`'s high faces, in `hi_m`/`hi_e`, the carry `m`/`e`.
    fn finish(&mut self, call: u64, j: isize, n: usize) {
        std::mem::swap(&mut self.m, &mut self.hi_m);
        std::mem::swap(&mut self.e, &mut self.hi_e);
        self.key = Some((call, j, n));
    }
}

/// Lengthens `v` to at least `n`; never shortens it.
fn grow(v: &mut Vec<f64>, n: usize) {
    if v.len() < n {
        v.resize(n, 0.0);
    }
}

thread_local! {
    static FACE_CARRY: RefCell<FaceCarry> = RefCell::new(FaceCarry::default());
}

#[cfg(test)]
thread_local! {
    /// Faces [`face_pass`] evaluated on this thread.
    static FACE_EVALS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Reflective ghosts in x over rows `rows`: ghost `-hh` mirrors interior
/// column `hh - 1`, ghost `nx - 1 + hh` mirrors `nx - hh`.
fn mirror_x(f: &mut Dat2<f64>, rows: Range<isize>, low: bool, high: bool) {
    let (h, nx) = (f.halo(), f.nx());
    for j in rows {
        let row = f.padded_row_mut(j);
        if low {
            for hh in 1..=h {
                row[h - hh] = row[h + hh - 1];
            }
        }
        if high {
            for hh in 1..=h {
                row[h + nx - 1 + hh] = row[h + nx - hh];
            }
        }
    }
}

/// Reflective ghosts in y: whole padded rows (x ghosts included), ghost
/// row `-hh` mirrors interior row `hh - 1`, `ny - 1 + hh` mirrors `ny - hh`.
fn mirror_y(f: &mut Dat2<f64>, low: bool, high: bool) {
    let (h, ny) = (f.halo() as isize, f.ny() as isize);
    if low {
        for hh in 1..=h {
            f.copy_row(hh - 1, -hh);
        }
    }
    if high {
        for hh in 1..=h {
            f.copy_row(ny - hh, ny - 1 + hh);
        }
    }
}

/// Zero normal velocity on the walls `(low x, high x, low y, high y)`
/// over node rows `js` of the x and y velocities `u` and `v`.
fn wall_velocities(
    walls: (bool, bool, bool, bool),
    u: &mut Dat2<f64>,
    v: &mut Dat2<f64>,
    js: Range<isize>,
) {
    let (low_x, high_x, low_y, high_y) = walls;
    // The last node index along x and along y.
    let (last, top) = (u.nx() - 1, v.ny() as isize - 1);
    for j in js.clone() {
        let row = u.padded_row_mut(j);
        if low_x {
            row[HALO] = 0.0;
        }
        if high_x {
            row[HALO + last] = 0.0;
        }
    }
    for (wall, j) in [(low_y, 0), (high_y, top)] {
        if wall && js.contains(&j) {
            v.padded_row_mut(j)[HALO..=HALO + last].fill(0.0);
        }
    }
}

// Dataset slots: struct-field identity, and the index in [`chain_spec`]'s
// dats.
const D0: usize = 0;
const E0: usize = 1;
const E1: usize = 2;
const PR: usize = 3;
const VS: usize = 4;
const SS: usize = 5;
const WD: usize = 6;
const WE: usize = 7;
const XV0: usize = 8;
const XV1: usize = 9;
const YV0: usize = 10;
const YV1: usize = 11;
const FX: usize = 12;
const FY: usize = 13;

/// The cell halo sites in cycle order, each with the axes along which a
/// later loop reads its slots through their halo, and those slots.
/// `accelerate` reads density0, pressure and viscosity at the four cells
/// around each node; `advec_cell_x` reads density0 (through the halo
/// `cells0` left) and energy1 five cells wide along x; `advec_cell_y`
/// reads the x sweep's output in work_d/work_e five cells wide along y.
const CELL_HALO_SITES: [(&str, Axes, &[usize]); 3] = [
    ("cells0", Axes::XY, &[D0, PR, VS]),
    ("cells1", Axes::X, &[E1]),
    ("cells2", Axes::Y, &[WD, WE]),
];

/// The node halo site, the slots it updates and its depth: only
/// `advec_mom` reads node ghosts, and only those of the velocities
/// `accelerate` just wrote. The shared interface line is computed
/// identically on both ranks from the same exchanged cell data, so depth 1
/// suffices.
const NODE_HALO_SITE: (&str, &[usize], usize) = ("vel0", &[XV1, YV1], 1);

/// The axes and slots of cell halo site `site`.
fn cell_halo_site(site: &str) -> (Axes, &'static [usize]) {
    let at = CELL_HALO_SITES.iter().position(|(s, ..)| *s == site);
    let (_, axes, slots) = CELL_HALO_SITES[at.expect("a cell halo site")];
    (axes, slots)
}

/// The loops [`Clover2::cycle`] runs after `calc_dt`, in chain order, band
/// by band.
const BANDED: [&str; 7] = [
    "accelerate",
    "pdv",
    "flux_calc_x",
    "flux_calc_y",
    "advec_cell_x",
    "advec_cell_y",
    "advec_mom",
];
const ACC: usize = 0;
const PDV: usize = 1;
const FLX: usize = 2;
const FLY: usize = 3;
const ADX: usize = 4;
const ADY: usize = 5;
const MOM: usize = 6;

/// The slots held as row windows: those the chain after `calc_dt` writes
/// and reads and nothing else reads.
const WINDOWS: [usize; 7] = [XV1, YV1, E1, FX, FY, WD, WE];

/// How the cycle runs the loops of [`BANDED`] band by band, read off the
/// stencils of [`chain_spec`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct BandSchedule {
    /// Rows each loop runs ahead of the band's end: as far as the rows a
    /// later loop of the chain reads of its output, ahead of that loop.
    lead: [isize; 7],
    /// Per window (in [`WINDOWS`] order) and loop: the row offsets
    /// `lo..=hi` around its current row at which the loop touches the
    /// window's buffer, if it does.
    touch: [[Option<(isize, isize)>; 7]; 7],
    /// The datasets of the chain.
    dats: usize,
}

impl BandSchedule {
    /// The schedule, derived once per process.
    fn get() -> Self {
        static SCHED: std::sync::OnceLock<BandSchedule> = std::sync::OnceLock::new();
        *SCHED.get_or_init(Self::derive)
    }

    /// Matches each loop's reads after `calc_dt` with the loop that last
    /// wrote the slot, then takes the leads from the last loop back.
    fn derive() -> Self {
        use bwb_ops::Step;
        let spec = chain_spec(false);
        let steps = spec.body.iter().filter_map(|s| match s {
            Step::Loop {
                name, outs, ins, ..
            } => Some((*name, outs, ins)),
            _ => None,
        });
        // Per loop: its name, the slots written, and the slots read with
        // their row offsets.
        let loops: Vec<_> = steps
            .skip_while(|l| l.0 != "calc_dt")
            .skip(1)
            .map(|(name, outs, ins)| {
                let reads = ins.iter().map(|(slot, st)| {
                    let dj = || st.offsets().map(|o| o.1);
                    (*slot, dj().min().unwrap(), dj().max().unwrap())
                });
                (
                    name,
                    outs.iter().map(|o| o.0).collect::<Vec<_>>(),
                    reads.collect::<Vec<_>>(),
                )
            })
            .collect();
        let names: Vec<&str> = loops.iter().map(|l| l.0).collect();
        assert_eq!(names, BANDED, "chain order");
        // A loop's output that a later loop reads: `fed[l]` holds the
        // slots loop `l` writes for the chain. The others it writes are
        // the state, written in place.
        let mut lead = [0isize; 7];
        let mut fed: [Vec<usize>; 7] = Default::default();
        for l in (0..7).rev() {
            for c in l + 1..7 {
                for &(b, _, hi) in &loops[c].2 {
                    let wrote = |m: usize| loops[m].1.contains(&b);
                    if wrote(l) && !(l + 1..c).any(wrote) {
                        lead[l] = lead[l].max(lead[c] + hi);
                        fed[l].push(b);
                    }
                }
            }
        }
        let touch = WINDOWS.map(|slot| {
            std::array::from_fn(|l| {
                let reads = loops[l].2.iter().filter(|r| r.0 == slot);
                let rows = reads.map(|r| (r.1, r.2));
                let rows = rows.chain(fed[l].contains(&slot).then_some((0, 0)));
                rows.reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
            })
        });
        BandSchedule {
            lead,
            touch,
            dats: spec.dats.len(),
        }
    }

    /// The padded rows window `w` needs for bands of `rows`: a band's rows
    /// plus the spread of the loops' reach around it, and room for the
    /// y-wall mirrors, which write [`HALO`] rows past the last interior
    /// row once the x sweep has written it.
    fn window_rows(&self, w: usize, rows: usize) -> usize {
        let reach = self.touch[w].iter().zip(self.lead);
        let hi = reach.clone().filter_map(|(t, lead)| t.map(|t| lead + t.1));
        let lo = reach.filter_map(|(t, _)| t.map(|t| t.0));
        let spread = hi.max().unwrap() - lo.min().unwrap();
        rows + spread as usize + HALO
    }
}

/// Rows per band over `nx` cells: a quarter of the LLC holds one band of
/// every dataset of the chain.
fn band_rows(nx: usize) -> usize {
    let row_bytes = (nx + 2 * HALO) * std::mem::size_of::<f64>() * BandSchedule::get().dats;
    (bwb_machine::probe::llc_bytes() as usize / 4 / row_bytes).max(1)
}

/// The solver state (one rank's sub-block when distributed). After
/// `calc_dt` a cycle runs one pass, band by band ([`Self::banded_chain`]);
/// the seven in-cycle temporaries of [`WINDOWS`] are row windows sized for
/// one band, whole fields when the grid is one band.
pub struct Clover2 {
    cfg: Config,
    /// Local cell counts.
    nx: usize,
    ny: usize,
    dx: f64,
    dy: f64,
    dist: Option<DistBlock2>,
    // Cell-centred:
    density0: Dat2<f64>,
    energy0: Dat2<f64>,
    energy1: Dat2<f64>,
    pressure: Dat2<f64>,
    viscosity: Dat2<f64>,
    soundspeed: Dat2<f64>,
    work_d: Dat2<f64>,
    work_e: Dat2<f64>,
    // Node-centred ((nx+1)×(ny+1)):
    xvel0: Dat2<f64>,
    xvel1: Dat2<f64>,
    yvel0: Dat2<f64>,
    yvel1: Dat2<f64>,
    // Face-centred volume fluxes:
    vol_flux_x: Dat2<f64>,
    vol_flux_y: Dat2<f64>,
    /// Rows per band, at most the `ny + 1` node rows: one band then.
    band: usize,
    /// The bands' leads and window reach.
    sched: BandSchedule,
    /// Run `advec_cell_x/y`, `advec_mom` and `calc_dt` as the per-point
    /// closure kernels they were ported from (the tests' reference).
    #[cfg(test)]
    oracle: bool,
}

impl Clover2 {
    /// Single-rank setup of the standard CloverLeaf-like test state:
    /// ambient (ρ=0.2, e=1.0) with an energetic dense square in the lower
    /// left quadrant (ρ=1.0, e=2.5).
    pub fn new(cfg: Config) -> Self {
        let rows = band_rows(cfg.nx);
        Self::build(cfg, None, [0, 0], None, rows)
    }

    /// Distributed setup: each rank owns a sub-block of the global grid and
    /// runs one band, so its halo sites exchange whole fields.
    pub fn new_distributed(comm: &Comm, cfg: Config) -> Self {
        let block = DistBlock2::new(comm, cfg.nx, cfg.ny);
        let start = block.start();
        let local = Some((block.nx(), block.ny()));
        Self::build(cfg, local, start, Some(block), usize::MAX)
    }

    /// Builds the state with bands of `rows` rows, or one band under a
    /// recording, which must see the loop stream [`chain_spec`] declares.
    fn build(
        cfg: Config,
        local: Option<(usize, usize)>,
        start: [usize; 2],
        dist: Option<DistBlock2>,
        rows: usize,
    ) -> Self {
        let (nx, ny) = local.unwrap_or((cfg.nx, cfg.ny));
        let dx = 10.0 / cfg.nx as f64;
        let dy = 10.0 / cfg.ny as f64;
        let sched = BandSchedule::get();
        let band = if recording_active() { usize::MAX } else { rows }.min(ny + 1);
        // A window where the node rows take more than one band, a whole
        // field otherwise.
        let dat = |slot: usize, n: &str, fx: usize, fy: usize| {
            let whole = fy + 2 * HALO;
            let window = WINDOWS.iter().position(|&w| w == slot);
            let held = match window.filter(|_| band <= ny) {
                Some(w) => sched.window_rows(w, band).min(whole),
                None => whole,
            };
            Dat2::window(n, fx, fy, HALO, held)
        };
        let cell = |slot, n: &str| dat(slot, n, nx, ny);
        let node = |slot, n: &str| dat(slot, n, nx + 1, ny + 1);
        let mut density0 = Dat2::new("density0", nx, ny, HALO);
        let mut energy0 = Dat2::new("energy0", nx, ny, HALO);

        // Global-coordinate initial state.
        let gnx = cfg.nx;
        let gny = cfg.ny;
        density0.init_with(|i, j| {
            let gi = start[0] as isize + i;
            let gj = start[1] as isize + j;
            if gi < gnx as isize / 2 && gj < gny as isize / 2 {
                1.0
            } else {
                0.2
            }
        });
        energy0.init_with(|i, j| {
            let gi = start[0] as isize + i;
            let gj = start[1] as isize + j;
            if gi < gnx as isize / 2 && gj < gny as isize / 2 {
                2.5
            } else {
                1.0
            }
        });

        Clover2 {
            nx,
            ny,
            dx,
            dy,
            dist,
            energy1: cell(E1, "energy1"),
            pressure: cell(PR, "pressure"),
            viscosity: cell(VS, "viscosity"),
            soundspeed: cell(SS, "soundspeed"),
            work_d: cell(WD, "work_d"),
            work_e: cell(WE, "work_e"),
            xvel0: node(XV0, "xvel0"),
            xvel1: node(XV1, "xvel1"),
            yvel0: node(YV0, "yvel0"),
            yvel1: node(YV1, "yvel1"),
            vol_flux_x: dat(FX, "vol_flux_x", nx + 1, ny),
            vol_flux_y: dat(FY, "vol_flux_y", nx, ny + 1),
            density0,
            energy0,
            band,
            sched,
            cfg,
            #[cfg(test)]
            oracle: false,
        }
    }

    /// Which physical boundaries this block touches: (low x, high x, low
    /// y, high y).
    fn walls(&self) -> (bool, bool, bool, bool) {
        match &self.dist {
            None => (true, true, true, true),
            Some(b) => (
                b.at_low_boundary(0),
                b.at_high_boundary(0),
                b.at_low_boundary(1),
                b.at_high_boundary(1),
            ),
        }
    }

    fn cells(&self) -> Range2 {
        Range2::interior(self.nx, self.ny)
    }

    /// The cells of rows `js`.
    fn cell_rows(&self, js: Range<isize>) -> Range2 {
        Range2::new(0, self.nx as isize, js.start, js.end)
    }

    /// The nodes of node rows `js`.
    fn node_rows(&self, js: Range<isize>) -> Range2 {
        Range2::new(0, self.nx as isize + 1, js.start, js.end)
    }

    /// The block, if distributed, and the datasets in slot order.
    fn dats_mut(&mut self) -> (Option<&DistBlock2>, [&mut Dat2<f64>; 14]) {
        let Clover2 {
            dist,
            density0,
            energy0,
            energy1,
            pressure,
            viscosity,
            soundspeed,
            work_d,
            work_e,
            xvel0,
            xvel1,
            yvel0,
            yvel1,
            vol_flux_x,
            vol_flux_y,
            ..
        } = self;
        let dats = [
            density0, energy0, energy1, pressure, viscosity, soundspeed, work_d, work_e, xvel0,
            xvel1, yvel0, yvel1, vol_flux_x, vol_flux_y,
        ];
        (dist.as_ref(), dats)
    }

    /// Cell halo site `site` ([`CELL_HALO_SITES`]) after its fields'
    /// interior rows `js` were written: per field and axis of the site, the
    /// reflective ghosts on the physical walls and, on a distributed block,
    /// the exchange along that axis. The x mirrors cover rows `js`; a y-wall
    /// mirror runs once `js` holds the last interior row it copies. Returns
    /// the seconds of the mirror fills. These small per-face loops are
    /// CloverLeaf's "update_halo" boundary kernels — the many small kernels
    /// the paper blames for SYCL's launch-overhead penalty.
    fn update_halo_cells(
        &mut self,
        mut comm: Option<&mut Comm>,
        site: &str,
        js: Range<isize>,
    ) -> f64 {
        let (axes, slots) = cell_halo_site(site);
        let (low_x, high_x, low_y, high_y) = self.walls();
        let ny = self.ny as isize;
        let (low_y, high_y) = (
            low_y && js.contains(&((HALO as isize).min(ny) - 1)),
            high_y && js.contains(&(ny - 1)),
        );
        let mut seconds = 0.0;
        let mut fill = |f: &mut Dat2<f64>, axis: usize| {
            let t = Instant::now();
            match axis {
                0 => mirror_x(f, js.clone(), low_x, high_x),
                _ => mirror_y(f, low_y, high_y),
            }
            seconds += t.elapsed().as_secs_f64();
        };
        let (block, dats) = self.dats_mut();
        for &slot in slots {
            let f = &mut *dats[slot];
            match (block, comm.as_deref_mut()) {
                (Some(b), Some(c)) => b.exchange_halo_site(c, f, HALO, axes, site, &mut fill),
                _ => axes.iter().for_each(|axis| fill(f, axis)),
            }
        }
        seconds
    }

    /// On a distributed block, the node halo site [`NODE_HALO_SITE`].
    fn update_halo_velocities(&mut self, comm: Option<&mut Comm>) {
        let (site, slots, depth) = NODE_HALO_SITE;
        if let ((Some(block), dats), Some(c)) = (self.dats_mut(), comm) {
            for &slot in slots {
                block.exchange_node_halo_site(c, dats[slot], depth, site);
            }
        }
    }

    /// Records the mirror fills of cell halo site `site` that took
    /// `seconds` in all: one record per field, mirroring how OPS launches
    /// one small update_halo kernel per field — the granularity the SYCL
    /// launch-overhead analysis (paper §5.1) depends on. A field's points
    /// are HALO columns over the interior rows per x wall, and HALO
    /// x-extended rows per y wall.
    fn record_halo(&self, profile: &mut Profile, site: &str, seconds: f64) {
        let fields = cell_halo_site(site).1.len();
        let (low_x, high_x, low_y, high_y) = self.walls();
        let points = HALO
            * ((low_x as usize + high_x as usize) * self.ny
                + (low_y as usize + high_y as usize) * (self.nx + 2 * HALO));
        let per = points.max(1);
        for _ in 0..fields {
            profile.record("update_halo", per, per * 16, 0.0, seconds / fields as f64);
        }
    }

    /// Records one velocity boundary update over two pairs of velocities.
    fn record_velocity_bcs(&self, profile: &mut Profile, seconds: f64) {
        let (low_x, high_x, low_y, high_y) = self.walls();
        let points = 2
            * ((low_x as usize + high_x as usize) * (self.ny + 1)
                + (low_y as usize + high_y as usize) * (self.nx + 1));
        profile.record("update_halo_vel", points, points * 8, 0.0, seconds);
    }

    /// EOS: p = (γ−1)ρe, ss = √(γp/ρ). Slice fast path: pointwise over
    /// contiguous rows, so the compiler autovectorizes the EOS arithmetic.
    fn ideal_gas(&mut self, profile: &mut Profile) {
        par_loop2_rows(
            profile,
            "ideal_gas",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.pressure, &mut self.soundspeed],
            &[&self.density0, &self.energy0],
            5.0,
            |_j, out, ins| ideal_gas_body(out, ins),
        );
    }

    /// Artificial (quadratic) viscosity on compressing cells.
    fn viscosity_kernel(&mut self, profile: &mut Profile) {
        let (dx, dy) = (self.dx, self.dy);
        par_loop2_rows(
            profile,
            "viscosity",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.viscosity],
            &[&self.density0, &self.xvel0, &self.yvel0],
            12.0,
            move |_j, out, ins| viscosity_body(dx, dy, out, ins),
        );
    }

    /// Plan-guided fused `ideal_gas`+`viscosity`: both kernel bodies over
    /// one pass of each row. Legal because nothing `viscosity` reads is
    /// written by `ideal_gas` (the certificate's radius-0 all-pairs check);
    /// bit-identical because the bodies are the very same functions the
    /// sequential path runs.
    fn ideal_gas_viscosity_fused(&mut self, profile: &mut Profile) {
        let (dx, dy) = (self.dx, self.dy);
        let plan = self.cfg.plan.as_ref().expect("fusion implies a plan");
        // Store: mut [pressure, soundspeed, viscosity], ro [density0,
        // energy0, xvel0, yvel0] → global field indices 3..=6.
        let loops = [
            FusedLoop2::new("ideal_gas", &[0, 1], &[3, 4], 5.0, |_j, out, ins| {
                ideal_gas_body(out, ins)
            }),
            FusedLoop2::new("viscosity", &[2], &[3, 5, 6], 12.0, move |_j, out, ins| {
                viscosity_body(dx, dy, out, ins)
            }),
        ];
        fused2_rows(
            profile,
            self.cfg.mode,
            self.cells(),
            &mut [
                &mut self.pressure,
                &mut self.soundspeed,
                &mut self.viscosity,
            ],
            &[&self.density0, &self.energy0, &self.xvel0, &self.yvel0],
            &loops,
            plan,
        )
        .expect("certified fusion rejected at runtime");
    }

    /// CFL time step (local min; allreduced when distributed).
    fn calc_dt(&mut self, profile: &mut Profile, comm: Option<&mut Comm>) -> f64 {
        #[cfg(test)]
        if self.oracle {
            return self.calc_dt_closure(profile, comm);
        }
        let (dx, dy, cfl) = (self.dx, self.dy, self.cfg.cfl);
        let local = par_loop2_rows_reduce(
            profile,
            "calc_dt",
            self.cfg.mode,
            self.cells(),
            &[&self.soundspeed, &self.xvel0, &self.yvel0],
            f64::INFINITY,
            8.0,
            move |_j, mut dt, ins| {
                let ss = ins.row(0);
                let n = ss.len();
                let (u00, u11) = (&ins.row(1)[..n], &ins.row_off(1, 1, 1)[..n]);
                let (v00, v11) = (&ins.row(2)[..n], &ins.row_off(2, 1, 1)[..n]);
                for i in 0..n {
                    let u = u00[i].abs().max(u11[i].abs());
                    let v = v00[i].abs().max(v11[i].abs());
                    dt = dt.min(cfl * (dx / (ss[i] + u + 1e-12)).min(dy / (ss[i] + v + 1e-12)));
                }
                dt
            },
            f64::min,
        );
        match comm {
            Some(c) => c.allreduce_scalar(local, ReduceOp::Min),
            None => local,
        }
    }

    /// Nodal acceleration from pressure + viscosity gradients, over node
    /// rows `js`.
    fn accelerate(&mut self, profile: &mut Profile, dt: f64, js: Range<isize>) {
        let (dx, dy) = (self.dx, self.dy);
        let vol = dx * dy;
        par_loop2_rows(
            profile,
            "accelerate",
            self.cfg.mode,
            self.node_rows(js),
            &mut [&mut self.xvel1, &mut self.yvel1],
            &[
                &self.density0,
                &self.pressure,
                &self.viscosity,
                &self.xvel0,
                &self.yvel0,
            ],
            25.0,
            move |_j, out, ins| {
                // Node (i,j) neighbours cells (i-1..i)×(j-1..j).
                let d_mm = ins.row_off(0, -1, -1);
                let d_0m = ins.row_off(0, 0, -1);
                let d_00 = ins.row_off(0, 0, 0);
                let d_m0 = ins.row_off(0, -1, 0);
                let p_mm = ins.row_off(1, -1, -1);
                let p_0m = ins.row_off(1, 0, -1);
                let p_00 = ins.row_off(1, 0, 0);
                let p_m0 = ins.row_off(1, -1, 0);
                let q_mm = ins.row_off(2, -1, -1);
                let q_0m = ins.row_off(2, 0, -1);
                let q_00 = ins.row_off(2, 0, 0);
                let q_m0 = ins.row_off(2, -1, 0);
                let u0 = ins.row(3);
                let v0 = ins.row(4);
                let (u1, v1) = out.rows2(0, 1);
                for i in 0..u1.len() {
                    let nodal_mass = 0.25 * vol * (d_mm[i] + d_0m[i] + d_00[i] + d_m0[i]);
                    let stepbymass = 0.5 * dt / nodal_mass;
                    let pq_00 = p_00[i] + q_00[i];
                    let pq_0m = p_0m[i] + q_0m[i];
                    let pq_m0 = p_m0[i] + q_m0[i];
                    let pq_mm = p_mm[i] + q_mm[i];
                    let dpx = (pq_00 + pq_0m) - (pq_m0 + pq_mm);
                    let dpy = (pq_00 + pq_m0) - (pq_0m + pq_mm);
                    u1[i] = u0[i] - stepbymass * dpx * dy;
                    v1[i] = v0[i] - stepbymass * dpy * dx;
                }
            },
        );
    }

    /// PdV work over cell rows `js`: internal-energy update from the
    /// velocity divergence. (Density is updated exclusively by the
    /// conservative remap.)
    fn pdv(&mut self, profile: &mut Profile, dt: f64, js: Range<isize>) {
        let (dx, dy) = (self.dx, self.dy);
        par_loop2_rows(
            profile,
            "pdv",
            self.cfg.mode,
            self.cell_rows(js),
            &mut [&mut self.energy1],
            &[
                &self.density0,
                &self.energy0,
                &self.pressure,
                &self.viscosity,
                &self.xvel1,
                &self.yvel1,
            ],
            20.0,
            move |_j, out, ins| {
                let rho = ins.row(0);
                let e = ins.row(1);
                let p = ins.row(2);
                let q = ins.row(3);
                let u00 = ins.row_off(4, 0, 0);
                let u10 = ins.row_off(4, 1, 0);
                let u01 = ins.row_off(4, 0, 1);
                let u11 = ins.row_off(4, 1, 1);
                let v00 = ins.row_off(5, 0, 0);
                let v10 = ins.row_off(5, 1, 0);
                let v01 = ins.row_off(5, 0, 1);
                let v11 = ins.row_off(5, 1, 1);
                let e1 = out.row(0);
                for i in 0..e1.len() {
                    let ugrad = 0.5 * ((u10[i] + u11[i]) - (u00[i] + u01[i]));
                    let vgrad = 0.5 * ((v01[i] + v11[i]) - (v00[i] + v10[i]));
                    let div = ugrad / dx + vgrad / dy;
                    let pq = p[i] + q[i];
                    e1[i] = (e[i] - dt * pq * div / rho[i]).max(1e-10);
                }
            },
        );
    }

    /// X-face volume fluxes over rows `js` from the time-centred node
    /// velocities.
    fn flux_calc_x(&mut self, profile: &mut Profile, dt: f64, js: Range<isize>) {
        let dy = self.dy;
        par_loop2_rows(
            profile,
            "flux_calc_x",
            self.cfg.mode,
            Range2::new(0, self.nx as isize + 1, js.start, js.end),
            &mut [&mut self.vol_flux_x],
            &[&self.xvel0, &self.xvel1],
            5.0,
            move |_j, out, ins| {
                let u0 = ins.row_off(0, 0, 0);
                let u0j = ins.row_off(0, 0, 1);
                let u1 = ins.row_off(1, 0, 0);
                let u1j = ins.row_off(1, 0, 1);
                let fx = out.row(0);
                for i in 0..fx.len() {
                    let u = 0.25 * (u0[i] + u0j[i] + u1[i] + u1j[i]);
                    fx[i] = u * dt * dy;
                }
            },
        );
    }

    /// Y-face volume fluxes over face rows `js`.
    fn flux_calc_y(&mut self, profile: &mut Profile, dt: f64, js: Range<isize>) {
        let dx = self.dx;
        par_loop2_rows(
            profile,
            "flux_calc_y",
            self.cfg.mode,
            Range2::new(0, self.nx as isize, js.start, js.end),
            &mut [&mut self.vol_flux_y],
            &[&self.yvel0, &self.yvel1],
            5.0,
            move |_j, out, ins| {
                let v0 = ins.row_off(0, 0, 0);
                let v0i = ins.row_off(0, 1, 0);
                let v1 = ins.row_off(1, 0, 0);
                let v1i = ins.row_off(1, 1, 0);
                let fy = out.row(0);
                for i in 0..fy.len() {
                    let v = 0.25 * (v0[i] + v0i[i] + v1[i] + v1i[i]);
                    fy[i] = v * dt * dx;
                }
            },
        );
    }

    /// Conservative remap, X sweep over rows `js` (donor-cell or van Leer
    /// per the config). Reads density0/energy1 + vol_flux_x and writes the
    /// work arrays. Each face's limited flux is evaluated once per row — it is the outflow of the cell on its left
    /// and the inflow of the cell on its right. Per block, a [`face_pass`]
    /// puts the block's faces in the thread's [`FaceCarry`] and a
    /// [`cell_pass`] reads them; both run in vector lanes.
    fn advec_cell_x(&mut self, profile: &mut Profile, js: Range<isize>) {
        #[cfg(test)]
        if self.oracle {
            return self.advec_cell_x_closure(profile, js);
        }
        let vol = self.dx * self.dy;
        let scheme = self.cfg.advection;
        par_loop2_rows(
            profile,
            "advec_cell_x",
            self.cfg.mode,
            self.cell_rows(js),
            &mut [&mut self.work_d, &mut self.work_e],
            &[&self.density0, &self.energy1, &self.vol_flux_x],
            if scheme == Advection::VanLeer {
                38.0
            } else {
                18.0
            },
            move |_j, out, ins| {
                // Window `w[di + 2]`: element `x` is the value at cell
                // `x + di`. Cell `x`'s high face sees cells `x-1 ..= x+2`.
                let rho = [-2, -1, 0, 1, 2].map(|di| ins.row_off(0, di, 0));
                let e = [-2, -1, 0, 1, 2].map(|di| ins.row_off(1, di, 0));
                let (fv_lo, fv_hi) = (ins.row_off(2, 0, 0), ins.row_off(2, 1, 0));
                let (d1, e1) = out.rows2(0, 1);
                let n = d1.len();
                FACE_CARRY.with_borrow_mut(|carry| {
                    // Face `x` of a block is its cell `x`'s low face.
                    grow(&mut carry.hi_m, X_BLOCK.min(n) + 1);
                    grow(&mut carry.hi_e, X_BLOCK.min(n) + 1);
                    let (fm, fe) = (&mut carry.hi_m[..], &mut carry.hi_e[..]);
                    // The row's first face is cell 0's low face.
                    face_pass(
                        scheme,
                        vol,
                        &fv_lo[..1],
                        window4(&rho, 0, 0..1),
                        window4(&e, 0, 0..1),
                        &mut fm[..1],
                        &mut fe[..1],
                    );
                    for b0 in (0..n).step_by(X_BLOCK) {
                        let nb = X_BLOCK.min(n - b0);
                        let b1 = b0 + nb;
                        face_pass(
                            scheme,
                            vol,
                            &fv_hi[b0..b1],
                            window4(&rho, 1, b0..b1),
                            window4(&e, 1, b0..b1),
                            &mut fm[1..=nb],
                            &mut fe[1..=nb],
                        );
                        cell_pass(
                            vol,
                            (&rho[2][b0..b1], &e[2][b0..b1]),
                            (&fm[..nb], &fe[..nb]),
                            (&fm[1..=nb], &fe[1..=nb]),
                            &mut d1[b0..b1],
                            &mut e1[b0..b1],
                        );
                        (fm[0], fe[0]) = (fm[nb], fe[nb]);
                    }
                });
            },
        );
    }

    /// Conservative remap, Y sweep, in the shape of [`Self::advec_cell_x`]:
    /// per block, a face pass evaluates the row's high faces into the
    /// thread's [`FaceCarry`] and a cell pass reads them. A row's low faces
    /// are the high faces of the row below, so a thread that remapped row
    /// `j - 1` of this sweep just before row `j` hands them over in the
    /// carry; the first row of each scheduling chunk evaluates its low
    /// faces itself. Each face is then evaluated once, plus once more per
    /// chunk boundary.
    ///
    /// Over rows `js`: reads the x sweep's output in the work arrays and
    /// writes density0/energy0, whose rows every earlier loop of the cycle
    /// has read by then.
    fn advec_cell_y(&mut self, profile: &mut Profile, js: Range<isize>) {
        #[cfg(test)]
        if self.oracle {
            return self.advec_cell_y_closure(profile, js);
        }
        let vol = self.dx * self.dy;
        let scheme = self.cfg.advection;
        let call = Y_SWEEPS.fetch_add(1, Ordering::Relaxed);
        par_loop2_rows(
            profile,
            "advec_cell_y",
            self.cfg.mode,
            self.cell_rows(js),
            &mut [&mut self.density0, &mut self.energy0],
            &[&self.work_d, &self.work_e, &self.vol_flux_y],
            if scheme == Advection::VanLeer {
                38.0
            } else {
                18.0
            },
            move |j, out, ins| {
                let (d1, e1) = out.rows2(0, 1);
                let n = d1.len();
                // Window `w[dj + 2]` is row `j + dj`. Every row reads all
                // five, carried or not, so recordings do not depend on it.
                let rho = [-2, -1, 0, 1, 2].map(|dj| &ins.row_off(0, 0, dj)[..n]);
                let e = [-2, -1, 0, 1, 2].map(|dj| &ins.row_off(1, 0, dj)[..n]);
                let (fv_lo, fv_hi) = (&ins.row_off(2, 0, 0)[..n], &ins.row_off(2, 0, 1)[..n]);
                FACE_CARRY.with_borrow_mut(|carry| {
                    let carried = carry.begin(call, j, n);
                    let FaceCarry {
                        m: lo_m,
                        e: lo_e,
                        hi_m,
                        hi_e,
                        ..
                    } = &mut *carry;
                    for b0 in (0..n).step_by(X_BLOCK) {
                        let b1 = b0 + X_BLOCK.min(n - b0);
                        if !carried {
                            face_pass(
                                scheme,
                                vol,
                                &fv_lo[b0..b1],
                                window4(&rho, 0, b0..b1),
                                window4(&e, 0, b0..b1),
                                &mut lo_m[b0..b1],
                                &mut lo_e[b0..b1],
                            );
                        }
                        face_pass(
                            scheme,
                            vol,
                            &fv_hi[b0..b1],
                            window4(&rho, 1, b0..b1),
                            window4(&e, 1, b0..b1),
                            &mut hi_m[b0..b1],
                            &mut hi_e[b0..b1],
                        );
                        cell_pass(
                            vol,
                            (&rho[2][b0..b1], &e[2][b0..b1]),
                            (&lo_m[b0..b1], &lo_e[b0..b1]),
                            (&hi_m[b0..b1], &hi_e[b0..b1]),
                            &mut d1[b0..b1],
                            &mut e1[b0..b1],
                        );
                    }
                    carry.finish(call, j, n);
                });
            },
        );
    }

    /// Upwind momentum advection (both sweeps fused per direction) over
    /// node rows `js`, from xvel1/yvel1 into xvel0/yvel0.
    fn advec_mom(&mut self, profile: &mut Profile, dt: f64, js: Range<isize>) {
        #[cfg(test)]
        if self.oracle {
            return self.advec_mom_closure(profile, dt, js);
        }
        let (dx, dy) = (self.dx, self.dy);
        par_loop2_rows(
            profile,
            "advec_mom",
            self.cfg.mode,
            self.node_rows(js),
            &mut [&mut self.xvel0, &mut self.yvel0],
            &[&self.xvel1, &self.yvel1],
            20.0,
            move |_j, out, ins| {
                let (wu, wv) = out.rows2(0, 1);
                let n = wu.len();
                // Centre, then the -x, +x, -y, +y neighbours.
                let star = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)];
                let u = star.map(|(di, dj)| &ins.row_off(0, di, dj)[..n]);
                let v = star.map(|(di, dj)| &ins.row_off(1, di, dj)[..n]);
                for i in 0..n {
                    let (du, dv) = (u[0][i], v[0][i]);
                    // Both sides are loaded before the upwind one is chosen,
                    // so the choice is a select, not a branch.
                    let upwind = |c: f64, xm: f64, xp: f64, ym: f64, yp: f64| -> f64 {
                        let ddx = if du > 0.0 { c - xm } else { xp - c } / dx;
                        let ddy = if dv > 0.0 { c - ym } else { yp - c } / dy;
                        du * ddx + dv * ddy
                    };
                    wu[i] = du - dt * upwind(du, u[1][i], u[2][i], u[3][i], u[4][i]);
                    wv[i] = dv - dt * upwind(dv, v[1][i], v[2][i], v[3][i], v[4][i]);
                }
            },
        );
    }

    /// One full hydro cycle; returns the dt used.
    pub fn cycle(&mut self, profile: &mut Profile, mut comm: Option<&mut Comm>) -> f64 {
        // Plan-guided fused traversal when the plan certifies the group
        // (never while a recording is active: the analyzer must observe the
        // unoptimized loop stream its certificates describe).
        let fuse = !recording_active()
            && self
                .cfg
                .plan
                .as_ref()
                .is_some_and(|p| p.certifies_fusion(&["ideal_gas", "viscosity"]));
        if fuse {
            self.ideal_gas_viscosity_fused(profile);
        } else {
            self.ideal_gas(profile);
            self.viscosity_kernel(profile);
        }
        let cells = 0..self.ny as isize;
        let seconds = self.update_halo_cells(comm.as_deref_mut(), "cells0", cells);
        self.record_halo(profile, "cells0", seconds);
        let dt = self.calc_dt(profile, comm.as_deref_mut());
        self.banded_chain(profile, comm, dt);
        dt
    }

    /// The loops after `calc_dt` band by band, with their halo sites: the
    /// stream [`chain_spec`] declares when the grid is one band. Band `b`
    /// ends at row `(b + 1) · rows`; each loop runs to that row plus its
    /// lead, from where it stopped in the band before, so a loop reads rows
    /// the loops before it wrote in this band or the last, while they are
    /// still in cache. The seven temporaries are windows that slide up with
    /// the bands; `advec_cell_y` and `advec_mom` write the state in place.
    /// The profile gets one record per loop and halo site per cycle, summed
    /// over the bands, each loop's with the slides of the windows it is
    /// the first to touch in a band.
    fn banded_chain(&mut self, profile: &mut Profile, mut comm: Option<&mut Comm>, dt: f64) {
        let ny = self.ny as isize;
        // The rows of each loop of [`BANDED`]: nodes, cells or faces.
        let extent = [ny + 1, ny, ny, ny + 1, ny, ny, ny + 1];
        let walls = self.walls();
        let mut band = Profile::new();
        let mut done = [0isize; 7];
        let mut slides = [0.0; 7];
        let (mut bcs, mut cells1, mut cells2) = (0.0, 0.0, 0.0);
        let mut end = 0;
        while done[MOM] < extent[MOM] {
            end += self.band as isize;
            let js: [Range<isize>; 7] = std::array::from_fn(|l| {
                done[l]..(end + self.sched.lead[l]).clamp(done[l], extent[l])
            });
            self.slide_windows(&js, &mut slides);
            self.accelerate(&mut band, dt, js[ACC].clone());
            let t = Instant::now();
            wall_velocities(walls, &mut self.xvel1, &mut self.yvel1, js[ACC].clone());
            bcs += t.elapsed().as_secs_f64();
            self.update_halo_velocities(comm.as_deref_mut());
            self.pdv(&mut band, dt, js[PDV].clone());
            self.flux_calc_x(&mut band, dt, js[FLX].clone());
            self.flux_calc_y(&mut band, dt, js[FLY].clone());
            cells1 += self.update_halo_cells(comm.as_deref_mut(), "cells1", js[PDV].clone());
            self.advec_cell_x(&mut band, js[ADX].clone());
            cells2 += self.update_halo_cells(comm.as_deref_mut(), "cells2", js[ADX].clone());
            self.advec_cell_y(&mut band, js[ADY].clone());
            self.advec_mom(&mut band, dt, js[MOM].clone());
            done = js.map(|r| r.end);
        }
        for r in band.records() {
            let l = BANDED.iter().position(|&n| n == r.name);
            let seconds = r.seconds + slides[l.expect("a banded loop")];
            profile.record(&r.name, r.points, r.bytes, r.flops, seconds);
        }
        self.record_velocity_bcs(profile, bcs);
        self.record_halo(profile, "cells1", cells1);
        self.record_halo(profile, "cells2", cells2);
        let t = Instant::now();
        wall_velocities(walls, &mut self.xvel0, &mut self.yvel0, 0..ny + 1);
        self.record_velocity_bcs(profile, t.elapsed().as_secs_f64());
    }

    /// Slides each window to hold the rows the loops touch over rows `js`
    /// (in [`BANDED`] order), from the lowest. The velocity windows' ghost
    /// rows then read 0, as a whole field's never-written halo does.
    /// Adds to `seconds`, per loop, the time of the slides of the windows
    /// it is the first to touch.
    fn slide_windows(&mut self, js: &[Range<isize>; 7], seconds: &mut [f64; 7]) {
        let (sched, ny) = (self.sched, self.ny as isize);
        let (_, dats) = self.dats_mut();
        let windows = dats.into_iter().enumerate().filter_map(|(slot, f)| {
            let w = WINDOWS.iter().position(|&w| w == slot)?;
            Some((w, f))
        });
        for (w, f) in windows {
            let t = Instant::now();
            let mut touched = (0..7).filter_map(|l| {
                let t = sched.touch[w][l].filter(|_| !js[l].is_empty())?;
                Some((l, js[l].start + t.0))
            });
            let Some((first, mut from)) = touched.next() else {
                continue;
            };
            from = touched.fold(from, |m, (_, j)| m.min(j));
            let top = (f.ny() + f.halo()) as isize;
            f.slide(from.min(top - f.rows().len() as isize));
            if [XV1, YV1].contains(&WINDOWS[w]) {
                for j in f.rows().filter(|j| !(0..=ny).contains(j)) {
                    f.padded_row_mut(j).fill(0.0);
                }
            }
            seconds[first] += t.elapsed().as_secs_f64();
        }
    }

    /// Field summary: (total mass, total energy incl. kinetic).
    pub fn field_summary(&self, profile: &mut Profile) -> (f64, f64) {
        let vol = self.dx * self.dy;
        let (mass, ie) = par_loop2_rows_reduce(
            profile,
            "field_summary",
            ExecMode::Serial,
            self.cells(),
            &[&self.density0, &self.energy0],
            (0.0f64, 0.0f64),
            4.0,
            move |_j, (mut mass, mut ie), ins| {
                for (rho, e) in ins.row(0).iter().zip(ins.row(1)) {
                    mass += rho * vol;
                    ie += rho * e * vol;
                }
                (mass, ie)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        // Kinetic energy from nodes (quarter-cell masses omitted at walls —
        // summary only).
        let ke = par_loop2_rows_reduce(
            profile,
            "field_summary_ke",
            ExecMode::Serial,
            self.cells(),
            &[&self.density0, &self.xvel0, &self.yvel0],
            0.0f64,
            8.0,
            move |_j, mut ke, ins| {
                let rho = ins.row(0);
                let quad = [(0, 0), (1, 0), (0, 1), (1, 1)];
                let u = quad.map(|(di, dj)| ins.row_off(1, di, dj));
                let v = quad.map(|(di, dj)| ins.row_off(2, di, dj));
                for i in 0..rho.len() {
                    let u = 0.25 * (u[0][i] + u[1][i] + u[2][i] + u[3][i]);
                    let v = 0.25 * (v[0][i] + v[1][i] + v[2][i] + v[3][i]);
                    ke += 0.5 * rho[i] * (u * u + v * v) * vol;
                }
                ke
            },
            |a, b| a + b,
        );
        (mass, ie + ke)
    }

    /// Single-rank run; validation = relative mass-conservation error.
    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let points = cfg.nx * cfg.ny;
        let iterations = cfg.iterations;
        let mut sim = Clover2::new(cfg);
        let (m0, _e0) = sim.field_summary(&mut profile);
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "hydro_cycle");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.cycle(&mut profile, None);
        }
        let (m1, _e1) = sim.field_summary(&mut profile);
        let validation = ((m1 - m0) / m0).abs();
        AppRun {
            app: AppId::CloverLeaf2D,
            profile,
            validation,
            iterations,
            points,
        }
    }

    /// Distributed run; returns this rank's profile and the gathered global
    /// density on rank 0.
    pub fn run_distributed(comm: &mut Comm, cfg: Config) -> (Profile, Option<Vec<f64>>) {
        let mut profile = Profile::new();
        let iterations = cfg.iterations;
        let mut sim = Clover2::new_distributed(comm, cfg);
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "hydro_cycle");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.cycle(&mut profile, Some(comm));
        }
        let block = sim.dist.as_ref().expect("distributed");
        let gathered = block.gather_global(comm, &sim.density0);
        (profile, gathered)
    }

    /// Direct access for tests.
    pub fn density(&self) -> &Dat2<f64> {
        &self.density0
    }
}

/// The `ideal_gas` kernel body, shared verbatim between the sequential
/// driver and the plan-guided fused traversal (what makes "bit-identical"
/// a structural property rather than a numerical coincidence). Inputs
/// positionally: 0 = density0, 1 = energy0.
fn ideal_gas_body(out: &mut RowOut2<f64>, ins: &RowIn2<f64>) {
    let rho = ins.row(0);
    let e = ins.row(1);
    let (p, ss) = out.rows2(0, 1);
    for i in 0..p.len() {
        let pv = (GAMMA - 1.0) * rho[i] * e[i];
        p[i] = pv;
        ss[i] = (GAMMA * pv / rho[i]).sqrt();
    }
}

/// The `viscosity` kernel body (inputs: 0 = density0, 1 = xvel0,
/// 2 = yvel0), shared like [`ideal_gas_body`].
fn viscosity_body(dx: f64, dy: f64, out: &mut RowOut2<f64>, ins: &RowIn2<f64>) {
    // Cell (i,j) is bounded by nodes (i..i+1, j..j+1).
    let rho = ins.row(0);
    let u00 = ins.row_off(1, 0, 0);
    let u10 = ins.row_off(1, 1, 0);
    let u01 = ins.row_off(1, 0, 1);
    let u11 = ins.row_off(1, 1, 1);
    let v00 = ins.row_off(2, 0, 0);
    let v10 = ins.row_off(2, 1, 0);
    let v01 = ins.row_off(2, 0, 1);
    let v11 = ins.row_off(2, 1, 1);
    let q = out.row(0);
    let l = dx.min(dy);
    for i in 0..q.len() {
        let ugrad = 0.5 * ((u10[i] + u11[i]) - (u00[i] + u01[i]));
        let vgrad = 0.5 * ((v01[i] + v11[i]) - (v00[i] + v10[i]));
        let div = ugrad / dx + vgrad / dy;
        // Computed on every cell and selected: a branch on the sign of
        // `div` mispredicts across a turbulent flow.
        let compressing = 2.0 * rho[i] * (div * l) * (div * l);
        q[i] = if div < 0.0 { compressing } else { 0.0 };
    }
}

/// Declared loop chain: the exact ordered loop/exchange stream one
/// [`Clover2::cycle`] materializes at runtime in one band, as on a
/// distributed block and under a recording (plus the two `field_summary`
/// reductions the single-rank registry run appends), written down
/// symbolically over the parametric local grid `(nx, ny)`, with every
/// loop's access contract stated at its step. Bands run the same loops
/// over the same rows, each split into bands. Instantiating
/// this chain must reproduce, observation for observation, what
/// [`bwb_ops::access::with_recording_full`] records from a live run —
/// `dslcheck`'s declaration check asserts exactly that.
/// (`update_halo`/`update_halo_vel` are hand-rolled fills, not `par_loop`s,
/// so they carry no contract.)
///
/// `dist` declares the 4-rank distributed variant: the three cell-field
/// halo-update sites ("cells0"/"cells1"/"cells2") and the node-velocity
/// site "vel0" (xvel1 and yvel1, read through their halo by `advec_mom`)
/// each contribute their recorded exchanges, over the axes the site's
/// readers read (the 2 × 2 layout splits both), and the field-summary
/// epilogue is absent (`run_distributed` gathers instead).
pub fn chain_spec(dist: bool) -> bwb_ops::ChainSpec {
    use bwb_ops::{Access, Axes, ChainSpec, DatDecl, Expr, Stencil as S, Step};
    let c = Expr::c;
    let p = Expr::p;
    let pp = Expr::p_plus;
    let h = HALO as isize;
    let cell = |name: &'static str| DatDecl {
        name,
        halo: h,
        extent: [p("nx"), p("ny"), c(1)],
        elem_bytes: 8,
    };
    let node = |name: &'static str| DatDecl {
        name,
        halo: h,
        extent: [pp("nx", 1), pp("ny", 1), c(1)],
        elem_bytes: 8,
    };
    let dats = vec![
        cell("density0"),
        cell("energy0"),
        cell("energy1"),
        cell("pressure"),
        cell("viscosity"),
        cell("soundspeed"),
        cell("work_d"),
        cell("work_e"),
        node("xvel0"),
        node("xvel1"),
        node("yvel0"),
        node("yvel1"),
        DatDecl {
            name: "vol_flux_x",
            halo: h,
            extent: [pp("nx", 1), p("ny"), c(1)],
            elem_bytes: 8,
        },
        DatDecl {
            name: "vol_flux_y",
            halo: h,
            extent: [p("nx"), pp("ny", 1), c(1)],
            elem_bytes: 8,
        },
    ];
    let cells = || [c(0), p("nx"), c(0), p("ny"), c(0), c(1)];
    let nodes = || [c(0), pp("nx", 1), c(0), pp("ny", 1), c(0), c(1)];
    let lp = |name, range, outs, ins| Step::Loop {
        name,
        dims: 2,
        range,
        outs,
        ins,
    };
    let w = |slot: usize| (slot, Access::Write);
    let pt = S::point;
    // Cell quantity sampled at the four cells around a node.
    let nodal = || S::of2(&[(-1, -1), (0, -1), (0, 0), (-1, 0)]);
    // Node quantity sampled at the four corners of a cell.
    let quad = || S::of2(&[(0, 0), (1, 0), (0, 1), (1, 1)]);
    // Donor-cell/van Leer upwind window along one axis.
    let x5 = || S::of2(&[(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]);
    let y5 = || S::of2(&[(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]);
    // `update_halo_cells` iterates its site's slots in table order, noting
    // one exchange per field over the site's axes (mirror fills are hand
    // loops and record nothing), and `update_halo_velocities` the node
    // site's slots the same way, over both axes.
    let halo = |body: &mut Vec<Step>, fields: &[usize], depth, site, axes| {
        if dist {
            body.extend(fields.iter().map(|&dat| Step::Exchange {
                dat,
                depth,
                site,
                axes,
            }));
        }
    };
    let cell_halo = |body: &mut Vec<Step>, site: &'static str| {
        let (axes, slots) = cell_halo_site(site);
        halo(body, slots, HALO, site, axes);
    };
    let mut body = vec![
        lp(
            "ideal_gas",
            cells(),
            vec![w(PR), w(SS)],
            vec![(D0, pt()), (E0, pt())],
        ),
        lp(
            "viscosity",
            cells(),
            vec![w(VS)],
            vec![(D0, pt()), (XV0, quad()), (YV0, quad())],
        ),
    ];
    cell_halo(&mut body, "cells0");
    let diag = || S::of2(&[(0, 0), (1, 1)]);
    body.push(lp(
        "calc_dt",
        cells(),
        vec![],
        vec![(SS, pt()), (XV0, diag()), (YV0, diag())],
    ));
    body.push(lp(
        "accelerate",
        nodes(),
        vec![w(XV1), w(YV1)],
        vec![
            (D0, nodal()),
            (PR, nodal()),
            (VS, nodal()),
            (XV0, pt()),
            (YV0, pt()),
        ],
    ));
    let (site, slots, depth) = NODE_HALO_SITE;
    halo(&mut body, slots, depth, site, Axes::XY);
    body.push(lp(
        "pdv",
        cells(),
        vec![w(E1)],
        vec![
            (D0, pt()),
            (E0, pt()),
            (PR, pt()),
            (VS, pt()),
            (XV1, quad()),
            (YV1, quad()),
        ],
    ));
    // A face's two end nodes, and a cell's two faces, along one axis.
    let j_pair = || S::of2(&[(0, 0), (0, 1)]);
    let i_pair = || S::of2(&[(0, 0), (1, 0)]);
    body.push(lp(
        "flux_calc_x",
        [c(0), pp("nx", 1), c(0), p("ny"), c(0), c(1)],
        vec![w(FX)],
        vec![(XV0, j_pair()), (XV1, j_pair())],
    ));
    body.push(lp(
        "flux_calc_y",
        [c(0), p("nx"), c(0), pp("ny", 1), c(0), c(1)],
        vec![w(FY)],
        vec![(YV0, i_pair()), (YV1, i_pair())],
    ));
    cell_halo(&mut body, "cells1");
    body.push(lp(
        "advec_cell_x",
        cells(),
        vec![w(WD), w(WE)],
        vec![(D0, x5()), (E1, x5()), (FX, i_pair())],
    ));
    cell_halo(&mut body, "cells2");
    body.push(lp(
        "advec_cell_y",
        cells(),
        vec![w(D0), w(E0)],
        vec![(WD, y5()), (WE, y5()), (FY, j_pair())],
    ));
    body.push(lp(
        "advec_mom",
        nodes(),
        vec![w(XV0), w(YV0)],
        vec![(XV1, S::plus2(1)), (YV1, S::plus2(1))],
    ));
    let epilogue = if dist {
        Vec::new()
    } else {
        vec![
            lp(
                "field_summary",
                cells(),
                vec![],
                vec![(D0, pt()), (E0, pt())],
            ),
            lp(
                "field_summary_ke",
                cells(),
                vec![],
                vec![(D0, pt()), (XV0, quad()), (YV0, quad())],
            ),
        ]
    };
    ChainSpec {
        app: if dist {
            "clover2d_dist"
        } else {
            "cloverleaf2d"
        },
        dats,
        prologue: Vec::new(),
        body,
        epilogue,
    }
}

/// The per-point closure kernels the four hottest loops ran as before they
/// moved onto the row-slice path, kept verbatim as the tests' reference:
/// `oracle = true` routes a cycle through them.
#[cfg(test)]
impl Clover2 {
    /// CFL time step (local min; allreduced when distributed).
    fn calc_dt_closure(&mut self, profile: &mut Profile, comm: Option<&mut Comm>) -> f64 {
        let (dx, dy, cfl) = (self.dx, self.dy, self.cfg.cfl);
        let local = bwb_ops::par_loop2_reduce(
            profile,
            "calc_dt",
            self.cfg.mode,
            self.cells(),
            &[&self.soundspeed, &self.xvel0, &self.yvel0],
            f64::INFINITY,
            8.0,
            move |_i, _j, ins| {
                let ss = ins.get(0, 0, 0);
                let u = ins.get(1, 0, 0).abs().max(ins.get(1, 1, 1).abs());
                let v = ins.get(2, 0, 0).abs().max(ins.get(2, 1, 1).abs());
                cfl * (dx / (ss + u + 1e-12)).min(dy / (ss + v + 1e-12))
            },
            f64::min,
        );
        match comm {
            Some(c) => c.allreduce_scalar(local, ReduceOp::Min),
            None => local,
        }
    }

    /// Conservative remap, X sweep over rows `js` (donor-cell or van Leer
    /// per the config). Reads density0/energy1 + vol_flux_x, writes the
    /// work arrays.
    fn advec_cell_x_closure(&mut self, profile: &mut Profile, js: Range<isize>) {
        let vol = self.dx * self.dy;
        let scheme = self.cfg.advection;
        bwb_ops::par_loop2(
            profile,
            "advec_cell_x",
            self.cfg.mode,
            self.cell_rows(js),
            &mut [&mut self.work_d, &mut self.work_e],
            &[&self.density0, &self.energy1, &self.vol_flux_x],
            if scheme == Advection::VanLeer {
                38.0
            } else {
                18.0
            },
            move |_i, _j, out, ins| {
                // Face value with optional van Leer-limited reconstruction
                // from the donor cell toward the face.
                let face_val = |f: usize, face: isize, fv: f64| -> f64 {
                    let (donor, toward) = if fv > 0.0 { (face - 1, 1) } else { (face, -1) };
                    let d = ins.get(f, donor, 0);
                    if scheme == Advection::DonorCell {
                        return d;
                    }
                    let down = ins.get(f, donor + toward, 0);
                    let up = ins.get(f, donor - toward, 0);
                    let dd = down - d;
                    if dd == 0.0 {
                        return d;
                    }
                    let r = (d - up) / dd;
                    let sigma = (fv / vol).abs().min(1.0);
                    d + 0.5 * van_leer(r) * (1.0 - sigma) * dd
                };
                // Face i (left of cell): flux from cell i-1 → i when > 0.
                let flux_mass = |face: isize| -> (f64, f64) {
                    let fv = ins.get(2, face, 0);
                    let m = fv * face_val(0, face, fv);
                    (m, m * face_val(1, face, fv))
                };
                let (m_in, e_in) = flux_mass(0);
                let (m_out, e_out) = flux_mass(1);
                let rho = ins.get(0, 0, 0);
                let e = ins.get(1, 0, 0);
                let mass = rho * vol + m_in - m_out;
                let energy_mass = rho * e * vol + e_in - e_out;
                out.set(0, mass / vol);
                out.set(1, energy_mass / mass.max(1e-300));
            },
        );
    }

    /// Conservative remap, Y sweep over rows `js`: from the work arrays
    /// into density0/energy0.
    fn advec_cell_y_closure(&mut self, profile: &mut Profile, js: Range<isize>) {
        let vol = self.dx * self.dy;
        let scheme = self.cfg.advection;
        bwb_ops::par_loop2(
            profile,
            "advec_cell_y",
            self.cfg.mode,
            self.cell_rows(js),
            &mut [&mut self.density0, &mut self.energy0],
            &[&self.work_d, &self.work_e, &self.vol_flux_y],
            if scheme == Advection::VanLeer {
                38.0
            } else {
                18.0
            },
            move |_i, _j, out, ins| {
                let face_val = |f: usize, face: isize, fv: f64| -> f64 {
                    let (donor, toward) = if fv > 0.0 { (face - 1, 1) } else { (face, -1) };
                    let d = ins.get(f, 0, donor);
                    if scheme == Advection::DonorCell {
                        return d;
                    }
                    let down = ins.get(f, 0, donor + toward);
                    let up = ins.get(f, 0, donor - toward);
                    let dd = down - d;
                    if dd == 0.0 {
                        return d;
                    }
                    let r = (d - up) / dd;
                    let sigma = (fv / vol).abs().min(1.0);
                    d + 0.5 * van_leer(r) * (1.0 - sigma) * dd
                };
                let flux_mass = |face: isize| -> (f64, f64) {
                    let fv = ins.get(2, 0, face);
                    let m = fv * face_val(0, face, fv);
                    (m, m * face_val(1, face, fv))
                };
                let (m_in, e_in) = flux_mass(0);
                let (m_out, e_out) = flux_mass(1);
                let rho = ins.get(0, 0, 0);
                let e = ins.get(1, 0, 0);
                let mass = rho * vol + m_in - m_out;
                let energy_mass = rho * e * vol + e_in - e_out;
                out.set(0, mass / vol);
                out.set(1, energy_mass / mass.max(1e-300));
            },
        );
    }

    /// Upwind momentum advection (both sweeps fused per direction) over
    /// node rows `js`, from xvel1/yvel1 into xvel0/yvel0.
    fn advec_mom_closure(&mut self, profile: &mut Profile, dt: f64, js: Range<isize>) {
        let (dx, dy) = (self.dx, self.dy);
        bwb_ops::par_loop2(
            profile,
            "advec_mom",
            self.cfg.mode,
            self.node_rows(js),
            &mut [&mut self.xvel0, &mut self.yvel0],
            &[&self.xvel1, &self.yvel1],
            20.0,
            move |_i, _j, out, ins| {
                let u = ins.get(0, 0, 0);
                let v = ins.get(1, 0, 0);
                let upwind = |f: usize, du: f64, dv: f64| -> f64 {
                    let ddx = if du > 0.0 {
                        ins.get(f, 0, 0) - ins.get(f, -1, 0)
                    } else {
                        ins.get(f, 1, 0) - ins.get(f, 0, 0)
                    } / dx;
                    let ddy = if dv > 0.0 {
                        ins.get(f, 0, 0) - ins.get(f, 0, -1)
                    } else {
                        ins.get(f, 0, 1) - ins.get(f, 0, 0)
                    } / dy;
                    du * ddx + dv * ddy
                };
                out.set(0, u - dt * upwind(0, u, v));
                out.set(1, v - dt * upwind(1, u, v));
            },
        );
    }
}

#[cfg(test)]
impl Clover2 {
    /// The single-rank state with bands of `rows` rows, one band where the
    /// grid has no more node rows than that or a recording is active.
    fn with_band(cfg: Config, rows: usize) -> Self {
        Self::build(cfg, None, [0, 0], None, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_shmpi::Universe;

    #[test]
    fn mass_exactly_conserved() {
        let run = Clover2::run(Config {
            nx: 32,
            ny: 32,
            iterations: 30,
            ..Config::default()
        });
        assert!(run.validation < 1e-12, "mass drift {}", run.validation);
    }

    #[test]
    fn energy_bounded() {
        let cfg = Config {
            nx: 32,
            ny: 32,
            iterations: 40,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        let (_m0, e0) = sim.field_summary(&mut profile);
        for _ in 0..40 {
            sim.cycle(&mut profile, None);
        }
        let (_m1, e1) = sim.field_summary(&mut profile);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.05, "total energy drift {drift}");
    }

    #[test]
    fn pressure_positive_and_finite() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 25,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        for _ in 0..25 {
            sim.cycle(&mut profile, None);
        }
        for j in 0..24 {
            for i in 0..24 {
                let rho = sim.density0.get(i, j);
                let e = sim.energy0.get(i, j);
                assert!(rho > 0.0 && rho.is_finite(), "density at ({i},{j}) = {rho}");
                assert!(e > 0.0 && e.is_finite(), "energy at ({i},{j}) = {e}");
            }
        }
    }

    #[test]
    fn diagonal_symmetry_preserved() {
        // The initial state is symmetric under (i,j) → (j,i); the dynamics
        // must preserve that symmetry exactly.
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 15,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        for _ in 0..15 {
            sim.cycle(&mut profile, None);
        }
        for j in 0..24isize {
            for i in 0..24isize {
                let a = sim.density0.get(i, j);
                let b = sim.density0.get(j, i);
                // The x-then-y advection splitting breaks exact transpose
                // symmetry near the shock; a transposed-index bug would show
                // O(0.1+) asymmetry, splitting error stays well below.
                assert!((a - b).abs() < 5e-2, "asymmetry at ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn serial_equals_rayon() {
        let base = Config {
            nx: 20,
            ny: 20,
            iterations: 8,
            ..Config::default()
        };
        let a = Clover2::run(Config {
            mode: ExecMode::Serial,
            ..base.clone()
        });
        let b = Clover2::run(Config {
            mode: ExecMode::Rayon,
            ..base
        });
        assert_eq!(a.validation, b.validation);
    }

    #[test]
    fn profile_contains_cloverleaf_kernels() {
        let run = Clover2::run(Config {
            nx: 16,
            ny: 16,
            iterations: 3,
            ..Config::default()
        });
        for k in [
            "ideal_gas",
            "viscosity",
            "calc_dt",
            "accelerate",
            "pdv",
            "flux_calc_x",
            "advec_cell_x",
            "advec_cell_y",
            "advec_mom",
            "update_halo",
        ] {
            assert!(run.profile.get(k).is_some(), "missing kernel {k}");
        }
    }

    #[test]
    fn distributed_matches_single_rank() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 5,
            ..Config::default()
        };
        let single = {
            let mut profile = Profile::new();
            let mut sim = Clover2::new(cfg.clone());
            for _ in 0..cfg.iterations {
                sim.cycle(&mut profile, None);
            }
            let mut v = Vec::new();
            for j in 0..24isize {
                for i in 0..24isize {
                    v.push(sim.density0.get(i, j));
                }
            }
            v
        };
        let cfg2 = cfg.clone();
        let out = Universe::run(4, move |c| Clover2::run_distributed(c, cfg2.clone()).1);
        let dist = out.results[0].as_ref().unwrap();
        let max_diff = dist
            .iter()
            .zip(&single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-11, "distributed differs by {max_diff}");
    }

    #[test]
    fn van_leer_conserves_mass_exactly() {
        let run = Clover2::run(Config {
            nx: 32,
            ny: 32,
            iterations: 25,
            advection: Advection::VanLeer,
            ..Config::default()
        });
        assert!(
            run.validation < 1e-12,
            "van Leer mass drift {}",
            run.validation
        );
    }

    #[test]
    fn van_leer_is_sharper_than_donor_cell() {
        // After the shock has propagated, the second-order remap must keep
        // a steeper density front: compare the max |∇ρ| across schemes.
        let max_grad = |advection: Advection| {
            let cfg = Config {
                nx: 48,
                ny: 48,
                iterations: 25,
                advection,
                ..Config::default()
            };
            let mut profile = Profile::new();
            let mut sim = Clover2::new(cfg);
            for _ in 0..25 {
                sim.cycle(&mut profile, None);
            }
            let mut g: f64 = 0.0;
            for j in 0..48isize {
                for i in 0..47isize {
                    g = g.max((sim.density0.get(i + 1, j) - sim.density0.get(i, j)).abs());
                }
            }
            g
        };
        let donor = max_grad(Advection::DonorCell);
        let vl = max_grad(Advection::VanLeer);
        assert!(
            vl > donor,
            "van Leer front {vl} should be sharper than donor {donor}"
        );
    }

    #[test]
    fn van_leer_stays_positive_and_finite() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 30,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        for _ in 0..30 {
            sim.cycle(&mut profile, None);
        }
        for j in 0..24 {
            for i in 0..24 {
                let rho = sim.density0.get(i, j);
                assert!(rho > 0.0 && rho.is_finite(), "ρ({i},{j}) = {rho}");
            }
        }
    }

    #[test]
    fn van_leer_distributed_matches_single_rank() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 5,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        let single = {
            let mut profile = Profile::new();
            let mut sim = Clover2::new(cfg.clone());
            for _ in 0..cfg.iterations {
                sim.cycle(&mut profile, None);
            }
            let mut v = Vec::new();
            for j in 0..24isize {
                for i in 0..24isize {
                    v.push(sim.density0.get(i, j));
                }
            }
            v
        };
        let cfg2 = cfg.clone();
        let out = Universe::run(4, move |c| Clover2::run_distributed(c, cfg2.clone()).1);
        let dist = out.results[0].as_ref().unwrap();
        let max_diff = dist
            .iter()
            .zip(&single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-11,
            "van Leer distributed differs by {max_diff}"
        );
    }

    #[test]
    fn dt_positive_and_stable() {
        let cfg = Config {
            nx: 16,
            ny: 16,
            iterations: 0,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        sim.ideal_gas(&mut profile);
        let dt = sim.calc_dt(&mut profile, None);
        assert!(dt > 0.0 && dt < 1.0, "dt = {dt}");
    }

    /// The datasets in slot order.
    fn dats(sim: &Clover2) -> [&Dat2<f64>; 14] {
        [
            &sim.density0,
            &sim.energy0,
            &sim.energy1,
            &sim.pressure,
            &sim.viscosity,
            &sim.soundspeed,
            &sim.work_d,
            &sim.work_e,
            &sim.xvel0,
            &sim.xvel1,
            &sim.yvel0,
            &sim.yvel1,
            &sim.vol_flux_x,
            &sim.vol_flux_y,
        ]
    }

    /// Every bit of the solver state, plus the time steps taken.
    fn state_bits(sim: &Clover2, dts: &[f64]) -> Vec<Vec<u64>> {
        let mut all: Vec<Vec<u64>> = dats(sim)
            .iter()
            .map(|f| f.raw().iter().map(|v| v.to_bits()).collect())
            .collect();
        all.push(dts.iter().map(|v| v.to_bits()).collect());
        all
    }

    /// Five cycles through the row-slice kernels or, with `oracle`, through
    /// the closure kernels they replaced.
    fn five_cycles(mut sim: Clover2, oracle: bool, mut comm: Option<&mut Comm>) -> Vec<Vec<u64>> {
        sim.oracle = oracle;
        let mut profile = Profile::new();
        let dts: Vec<f64> = (0..5)
            .map(|_| sim.cycle(&mut profile, comm.as_deref_mut()))
            .collect();
        state_bits(&sim, &dts)
    }

    #[test]
    fn row_kernels_bit_equal_closure_oracle() {
        // 1×N and N×1 put every cell on two walls; 257×61 is two chunks of
        // rows and two X_BLOCKs with a one-cell tail.
        for (nx, ny) in [(1, 37), (37, 1), (3, 3), (257, 61)] {
            for advection in [Advection::DonorCell, Advection::VanLeer] {
                for mode in [ExecMode::Serial, ExecMode::Rayon] {
                    let cfg = Config {
                        nx,
                        ny,
                        mode,
                        advection,
                        ..Config::default()
                    };
                    let rows =
                        five_cycles(Clover2::with_band(cfg.clone(), usize::MAX), false, None);
                    let oracle = five_cycles(Clover2::with_band(cfg, usize::MAX), true, None);
                    assert!(
                        rows == oracle,
                        "{nx}x{ny} {advection:?} {mode:?}: state differs from the closure kernels"
                    );
                }
            }
        }
    }

    #[test]
    fn row_kernels_bit_equal_closure_oracle_distributed() {
        for ranks in [2, 4] {
            for advection in [Advection::DonorCell, Advection::VanLeer] {
                for mode in [ExecMode::Serial, ExecMode::Rayon] {
                    let cfg = Config {
                        nx: 26,
                        ny: 19,
                        mode,
                        advection,
                        ..Config::default()
                    };
                    let run = |oracle: bool| {
                        let cfg = cfg.clone();
                        Universe::run(ranks, move |c| {
                            let sim = Clover2::new_distributed(c, cfg.clone());
                            five_cycles(sim, oracle, Some(c))
                        })
                        .results
                    };
                    assert!(
                        run(false) == run(true),
                        "{ranks} ranks {advection:?} {mode:?}: state differs from the closure kernels"
                    );
                }
            }
        }
    }

    /// `face_flux` evaluations of one sweep over every row, on this thread.
    fn face_evals(sim: &mut Clover2, sweep: fn(&mut Clover2, &mut Profile, Range<isize>)) -> u64 {
        FACE_EVALS.with(|c| c.set(0));
        let rows = 0..sim.ny as isize;
        sweep(sim, &mut Profile::new(), rows);
        FACE_EVALS.with(|c| c.get())
    }

    #[test]
    fn each_face_is_evaluated_once_per_sweep() {
        let (nx, ny) = (37, 23);
        for advection in [Advection::DonorCell, Advection::VanLeer] {
            let cfg = Config {
                nx,
                ny,
                advection,
                ..Config::default()
            };
            let mut sim = Clover2::with_band(cfg, usize::MAX);
            let y = face_evals(&mut sim, Clover2::advec_cell_y);
            assert_eq!(y, ((ny + 1) * nx) as u64, "{advection:?} y sweep");
            let x = face_evals(&mut sim, Clover2::advec_cell_x);
            assert_eq!(x, ((nx + 1) * ny) as u64, "{advection:?} x sweep");
        }
    }

    /// A xorshift stream: deterministic draws for the face-pass cases.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn pick(&mut self, pool: &[f64]) -> f64 {
            pool[(self.next() % pool.len() as u64) as usize]
        }

        /// From `pool` or, as often, an ordinary value in [-1, 1).
        fn value(&mut self, pool: &[f64]) -> f64 {
            match self.next() % 2 {
                0 => self.pick(pool),
                _ => (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
            }
        }
    }

    /// Signed zeros, subnormals, `MIN_POSITIVE`, ordinary values, values one
    /// ulp apart and magnitudes whose differences overflow.
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        1e-300,
        0.5,
        1.0,
        1.0 + f64::EPSILON,
        -1.0,
        2.5,
        1e300,
        -1e300,
        f64::MAX,
    ];

    /// The four windows of one field around `n` faces, in shape `shape`:
    /// 0 drawn by [`Draw::value`]; 1 `dd = ±0` at every face (equal cells, a
    /// zero against a negative zero); 2 the same with one face not flat;
    /// 3 `dd` one ulp or one subnormal step against an upstream difference
    /// near 1e300, so `r` is not finite; 4 subnormal states.
    fn windows(draw: &mut Draw, n: usize, shape: usize) -> [Vec<f64>; 4] {
        let subnormal: Vec<f64> = (1..6)
            .map(f64::from_bits)
            .chain([-5e-324, 2e-310])
            .collect();
        let faces: Vec<[f64; 4]> = (0..n)
            .map(|_| {
                let mut c = [(); 4].map(|()| {
                    if shape == 4 {
                        draw.pick(&subnormal)
                    } else {
                        draw.value(&EDGES)
                    }
                });
                match shape {
                    1 | 2 => c[2] = if c[1] == 0.0 { -c[1] } else { c[1] },
                    3 => {
                        c[1] = draw.pick(&[1.0, -1.0, 5e-324, 0.0, 2.5]);
                        c[2] = f64::from_bits(c[1].to_bits() + 1);
                        c[0] = draw.pick(&[1e300, -1e300]);
                        c[3] = -c[0];
                    }
                    _ => {}
                }
                c
            })
            .collect();
        let mut w: [Vec<f64>; 4] = std::array::from_fn(|k| faces.iter().map(|c| c[k]).collect());
        if shape == 2 && n > 0 {
            let x = (draw.pick(&EDGES).to_bits() % n as u64) as usize;
            w[2][x] = w[1][x] + 1.0;
        }
        w
    }

    #[test]
    fn face_pass_bit_equals_the_branchy_face_flux() {
        // Every width up to 40 meets each vector-remainder shape. With
        // |fv| < 1, σ = |fv / vol| is mostly above ½, where 1 - σ is exact
        // and so shows any other rounding of the division.
        let vol = 1.1;
        let mut draw = Draw(0x9e37_79b9_7f4a_7c15);
        for n in 0..=40 {
            for (shape, e_shape) in (0..5).flat_map(|a| (0..5).map(move |b| (a, b))) {
                for alternating in [false, true] {
                    // Face fluxes by [`Draw::value`], ±0.0 among them, or
                    // with a sign that flips at every face.
                    let fv: Vec<f64> = (0..n)
                        .map(|x| {
                            let f = draw.value(&EDGES);
                            if !alternating {
                                f
                            } else if x % 2 == 0 {
                                f.abs()
                            } else {
                                -f.abs()
                            }
                        })
                        .collect();
                    let rho = windows(&mut draw, n, shape);
                    let e = windows(&mut draw, n, e_shape);
                    for scheme in [Advection::DonorCell, Advection::VanLeer] {
                        let (mut m, mut me) = (vec![f64::NAN; n], vec![f64::NAN; n]);
                        let (r, en) =
                            (rho.each_ref().map(|w| &w[..]), e.each_ref().map(|w| &w[..]));
                        face_pass(scheme, vol, &fv, r, en, &mut m, &mut me);
                        for x in 0..n {
                            let want =
                                face_flux(scheme, vol, fv[x], r.map(|w| w[x]), en.map(|w| w[x]));
                            assert_eq!(
                                (m[x].to_bits(), me[x].to_bits()),
                                (want.0.to_bits(), want.1.to_bits()),
                                "{scheme:?} width {n} shapes {shape}/{e_shape} alternating \
                                 {alternating} face {x}: fv {:e} rho {:?} e {:?}",
                                fv[x],
                                r.map(|w| w[x]),
                                en.map(|w| w[x]),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn face_carry_resumes_only_the_next_row_of_the_same_sweep() {
        let mut carry = FaceCarry::default();
        assert!(!carry.begin(7, 0, 5), "a first row");
        carry.finish(7, 0, 5);
        assert!(carry.begin(7, 1, 5), "the next row");
        assert_eq!(carry.m.len(), 5);
        carry.finish(7, 1, 5);
        assert!(!carry.begin(8, 2, 5), "another sweep");
        carry.finish(8, 2, 5);
        assert!(!carry.begin(8, 4, 5), "a gap in rows");
        carry.finish(8, 4, 5);
        assert!(!carry.begin(8, 5, 6), "another width");
        assert_eq!(carry.m.len(), 6);
        assert!(!carry.begin(8, 6, 6), "a row begun but never finished");
        carry.finish(8, 6, 6);
        assert!(!carry.begin(8, 6, 6), "the same row again");
    }

    #[test]
    fn field_summary_sums_rows_in_order() {
        let mut sim = Clover2::new(Config {
            nx: 23,
            ny: 9,
            ..Config::default()
        });
        let mut profile = Profile::new();
        for _ in 0..3 {
            sim.cycle(&mut profile, None);
        }
        // Per-row partial sums from zero, rows added in ascending order.
        let vol = sim.dx * sim.dy;
        let (mut mass, mut energy, mut kinetic) = (0.0, 0.0, 0.0);
        for j in 0..9 {
            let (mut m, mut ie, mut ke) = (0.0, 0.0, 0.0);
            for i in 0..23 {
                let rho = sim.density0.get(i, j);
                m += rho * vol;
                ie += rho * sim.energy0.get(i, j) * vol;
                let node_avg = |f: &Dat2<f64>| {
                    0.25 * (f.get(i, j) + f.get(i + 1, j) + f.get(i, j + 1) + f.get(i + 1, j + 1))
                };
                let (u, v) = (node_avg(&sim.xvel0), node_avg(&sim.yvel0));
                ke += 0.5 * rho * (u * u + v * v) * vol;
            }
            mass += m;
            energy += ie;
            kinetic += ke;
        }
        let (got_mass, got_energy) = sim.field_summary(&mut profile);
        assert_eq!(got_mass.to_bits(), mass.to_bits());
        assert_eq!(got_energy.to_bits(), (energy + kinetic).to_bits());
    }

    #[test]
    fn ported_loops_observe_exactly_their_declared_stencils() {
        let ported = [
            "calc_dt",
            "advec_cell_x",
            "advec_cell_y",
            "advec_mom",
            "field_summary",
            "field_summary_ke",
        ];
        let specs = chain_spec(false).loop_specs();
        for advection in [Advection::DonorCell, Advection::VanLeer] {
            let ((), loops) = bwb_ops::with_recording(|| {
                let mut profile = Profile::new();
                let mut sim = Clover2::new(Config {
                    nx: 12,
                    ny: 10,
                    advection,
                    ..Config::default()
                });
                sim.cycle(&mut profile, None);
                sim.field_summary(&mut profile);
            });
            for name in ported {
                let spec = specs.iter().find(|s| s.name == name).expect("declared");
                let obs = loops.iter().find(|l| l.name == name).expect("recorded");
                assert_eq!(obs.ins.len(), spec.ins.len(), "{name}: argument count");
                for (o, a) in obs.ins.iter().zip(&spec.ins) {
                    let declared: std::collections::BTreeSet<_> =
                        a.stencil.offsets().copied().collect();
                    assert_eq!(o.offsets, declared, "{name}: stencil of '{}'", a.name);
                }
                for o in &obs.outs {
                    assert!(o.wrote && !o.read_back && !o.inced, "{name}: '{}'", o.name);
                }
            }
        }
    }

    /// The bits of every interior cell or node of `f`, row by row.
    fn interior_bits(f: &Dat2<f64>) -> impl Iterator<Item = u64> + '_ {
        (0..f.ny() as isize)
            .flat_map(move |j| (0..f.nx() as isize).map(move |i| f.get(i, j).to_bits()))
    }

    /// FNV-1a over `words`.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(bwb_ops::hash::FNV_OFFSET, bwb_ops::hash::step_u64)
    }

    #[test]
    fn state_bits_pinned_to_the_parent() {
        // Hashes taken while `reset_field` still copied density1/energy1
        // back and every cell halo site updated all six cell fields. Only
        // interior bits are pinned: the halos of buffers that no loop reads
        // through them may differ. The arithmetic is +, -, *, /, sqrt, abs,
        // min and max, so the bits depend on neither the host, the codegen
        // nor the thread count.
        for (advection, golden) in [
            (Advection::DonorCell, 0xd09f_5a2e_ae63_4cf0_u64),
            (Advection::VanLeer, 0x3450_5512_24a0_2d2d),
        ] {
            // One band, and bands of 1, 7 and 20 rows.
            for (mode, rows) in [ExecMode::Serial, ExecMode::Rayon]
                .into_iter()
                .flat_map(|m| [usize::MAX, 1, 7, 20].map(|r| (m, r)))
            {
                let cfg = Config {
                    nx: 131,
                    ny: 77,
                    mode,
                    advection,
                    ..Config::default()
                };
                let mut sim = Clover2::with_band(cfg, rows);
                let mut profile = Profile::new();
                let dts: Vec<u64> = (0..25)
                    .map(|_| sim.cycle(&mut profile, None).to_bits())
                    .collect();
                let state = [&sim.density0, &sim.energy0, &sim.xvel0, &sim.yvel0];
                let hash = fnv(state.into_iter().flat_map(interior_bits).chain(dts));
                assert_eq!(
                    hash, golden,
                    "{advection:?} {mode:?} bands of {rows}: {hash:#018x}"
                );
            }
        }
    }

    #[test]
    fn gathered_density_pinned_to_the_parent() {
        // Taken with `state_bits_pinned_to_the_parent`'s goldens: the global
        // density rank 0 gathers after 20 cycles, ranks × Serial.
        for (advection, golden) in [
            (Advection::DonorCell, 0xa47f_00e8_fbc7_7b12_u64),
            (Advection::VanLeer, 0x7fdc_0d74_7125_92bb),
        ] {
            for ranks in [2, 4] {
                let cfg = Config {
                    nx: 64,
                    ny: 48,
                    iterations: 20,
                    advection,
                    ..Config::default()
                };
                let out = Universe::run(ranks, move |c| Clover2::run_distributed(c, cfg.clone()).1);
                let density = out.results[0].as_ref().expect("rank 0 gathers");
                let hash = fnv(density.iter().map(|v| v.to_bits()));
                assert_eq!(hash, golden, "{advection:?} on {ranks} ranks: {hash:#018x}");
            }
        }
    }

    #[test]
    fn band_schedule_reads_the_leads_off_the_stencils() {
        let sched = BandSchedule::derive();
        // accelerate, pdv, flux_calc_x, flux_calc_y, advec_cell_x,
        // advec_cell_y, advec_mom.
        assert_eq!(sched.lead, [3, 2, 2, 1, 2, 0, 0]);
        // Rows each window holds beyond a band's: xvel1 and yvel1 from
        // advec_mom's first row - 1 to accelerate's last; energy1 and
        // vol_flux_x the x sweep's rows; vol_flux_y from the y sweep's first
        // row to flux_calc_y's last; work_d and work_e from the y sweep's
        // first row - 2 to the x sweep's last. Each plus the mirror depth.
        let extra = (0..7).map(|w| sched.window_rows(w, 10) - 10);
        assert_eq!(extra.collect::<Vec<_>>(), [6, 6, 4, 4, 3, 6, 6]);
        // pdv touches xvel1 at its own row and the next; advec_cell_y
        // touches energy1 not at all, since it writes the state.
        assert_eq!(sched.touch[0][PDV], Some((0, 1)));
        assert_eq!(sched.touch[2][ADY], None);
    }

    /// The interior bits of the state a banded cycle keeps, and the steps.
    fn banded_state(sim: &Clover2, dts: &[f64]) -> Vec<Vec<u64>> {
        let state = [
            &sim.density0,
            &sim.energy0,
            &sim.pressure,
            &sim.viscosity,
            &sim.soundspeed,
            &sim.xvel0,
            &sim.yvel0,
        ];
        let mut all: Vec<Vec<u64>> = state.map(|f| interior_bits(f).collect()).into();
        all.push(dts.iter().map(|v| v.to_bits()).collect());
        all
    }

    /// `cycles` cycles with bands of `rows` rows: the state, and the
    /// profile without its seconds.
    fn run_banded(cfg: &Config, rows: usize, cycles: usize) -> (Vec<Vec<u64>>, Vec<String>) {
        let mut sim = Clover2::with_band(cfg.clone(), rows);
        let mut profile = Profile::new();
        let dts: Vec<f64> = (0..cycles).map(|_| sim.cycle(&mut profile, None)).collect();
        let records = profile.records().into_iter();
        let counts = records.map(|r| {
            format!(
                "{} {} {} {} {}",
                r.name, r.calls, r.points, r.bytes, r.flops
            )
        });
        (banded_state(&sim, &dts), counts.collect())
    }

    #[test]
    fn banded_cycles_equal_the_one_band_cycle() {
        // Odd extents drawn from a fixed stream, the small ones, and rows
        // wide enough that Rayon splits a band of 7 into three chunks.
        let mut draw = Draw(0x2545_f491_4f6c_dd1d);
        let mut extents = vec![(1, 37), (37, 1), (2, 2), (3, 5), (37, 53), (2049, 11)];
        extents.extend((0..3).map(|_| {
            let mut odd = || 5 + 2 * (draw.next() % 28) as usize;
            (odd(), odd())
        }));
        for (nx, ny) in extents {
            for advection in [Advection::DonorCell, Advection::VanLeer] {
                for mode in [ExecMode::Serial, ExecMode::Rayon] {
                    let cfg = Config {
                        nx,
                        ny,
                        mode,
                        advection,
                        ..Config::default()
                    };
                    let whole = run_banded(&cfg, usize::MAX, 8);
                    for rows in [1, 2, 3, 7, ny - 1, ny, ny + 1]
                        .into_iter()
                        .filter(|&r| r > 0)
                    {
                        let band = Clover2::with_band(cfg.clone(), rows).band;
                        assert_eq!(band, rows.min(ny + 1), "{nx}x{ny} bands of {rows}");
                        assert!(
                            run_banded(&cfg, rows, 8) == whole,
                            "{nx}x{ny} {advection:?} {mode:?} bands of {rows}: differs from one band"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_loop_one_row_short_of_its_lead_fails_loudly() {
        let cfg = Config {
            nx: 29,
            ny: 41,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        let whole = run_banded(&cfg, usize::MAX, 10).0;
        let sched = BandSchedule::derive();
        for l in (0..7).filter(|&l| sched.lead[l] > 0) {
            let run = std::panic::catch_unwind(|| {
                let mut sim = Clover2::with_band(cfg.clone(), 5);
                sim.sched.lead[l] -= 1;
                let mut profile = Profile::new();
                let dts: Vec<f64> = (0..10).map(|_| sim.cycle(&mut profile, None)).collect();
                banded_state(&sim, &dts)
            });
            assert!(
                run.as_ref().map_or(true, |state| *state != whole),
                "{} one row short of its lead went unnoticed",
                BANDED[l]
            );
        }
    }

    /// True iff every dataset of `sim` is a whole field.
    fn whole_fields(sim: &Clover2) -> bool {
        let whole = |f: &&Dat2<f64>| f.rows().len() == f.ny() + 2 * HALO;
        dats(sim).iter().all(whole)
    }

    #[test]
    fn grids_that_fit_one_band_keep_whole_fields() {
        let cfg = Config::default();
        // `new` takes the host's LLC band, one band where the grid fits it.
        let sim = Clover2::new(cfg.clone());
        assert_eq!(sim.band, band_rows(cfg.nx).min(cfg.ny + 1));
        assert!(sim.band < cfg.ny + 1 || whole_fields(&sim));
        let sim = Clover2::with_band(cfg.clone(), cfg.ny + 1);
        assert!(whole_fields(&sim));
        // Bands hold the seven temporaries as windows, every other field
        // whole; no buffer is left one row long.
        let banded = Clover2::with_band(cfg.clone(), 7);
        assert_eq!(banded.band, 7);
        for (slot, f) in dats(&banded).into_iter().enumerate() {
            let window = WINDOWS.iter().position(|&w| w == slot);
            let want = window.map_or(f.ny() + 2 * HALO, |w| banded.sched.window_rows(w, 7));
            assert_eq!(f.rows().len(), want, "{}", f.name());
        }
        // Distributed blocks run one band on whole fields, whatever the band
        // height.
        let out = Universe::run(2, |c| {
            let sim = Clover2::new_distributed(c, Config::default());
            sim.band == sim.ny + 1 && whole_fields(&sim)
        });
        assert!(out.results.iter().all(|&one| one));
    }

    #[test]
    fn a_recording_runs_one_band_over_the_declared_stream() {
        // Bands of 3 on a grid of 10 rows, built and run under a recording:
        // each loop runs once over its whole range, as `chain_spec` declares.
        let (nx, ny) = (12, 10);
        let ((), loops) = bwb_ops::with_recording(|| {
            let mut profile = Profile::new();
            let mut sim = Clover2::with_band(
                Config {
                    nx,
                    ny,
                    ..Config::default()
                },
                3,
            );
            assert_eq!(sim.band, ny + 1);
            sim.cycle(&mut profile, None);
            sim.field_summary(&mut profile);
        });
        let binding = bwb_ops::Binding::new()
            .set("nx", nx as isize)
            .set("ny", ny as isize);
        let declared = chain_spec(false).instantiate(&binding, 1).expect("bound");
        let stream = |l: &bwb_ops::LoopObs| (l.name.clone(), l.range);
        assert_eq!(
            loops.iter().map(stream).collect::<Vec<_>>(),
            declared.loops.iter().map(stream).collect::<Vec<_>>()
        );
    }
}
