//! Parallel-loop drivers: the DSL's execution engine.
//!
//! A `par_loop` applies a stencil kernel to every point of a rectangular
//! range. Kernels read arbitrary offsets of the *input* datasets (within
//! their halos) and write only the **current point** of each *output*
//! dataset — the access discipline of OPS kernels with a `(0,0)` write
//! stencil, which is what makes thread-parallel execution race-free: the
//! iteration space is partitioned by outer index across threads, every
//! point is visited exactly once, and writes never alias.
//!
//! Two backends mirror the paper's §4 intra-process parallelizations:
//! [`ExecMode::Serial`] (the per-rank execution of pure MPI) and
//! [`ExecMode::Rayon`] (the "OpenMP" backend, parallelizing across all grid
//! points of the outer dimension).
//!
//! One engine serves both ranks: a 2-D loop is the 3-D case with one plane.
//! Every driver builds its views (`WView`/`RView`, checked against each
//! axis's padded extent on every access) and hands one closure per outer
//! index to the private harness `run`, which owns recording, the span,
//! the timer and the [`Profile`] records, and schedules through
//! `schedule`.

use crate::access::{self, ArgMeta, OutKind};
use crate::field::{Dat2, Dat3};
use crate::profile::Profile;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::time::Instant;

/// Intra-rank execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Single-threaded (pure-MPI per-rank execution).
    Serial,
    /// Thread-parallel over the outer loop dimension (the OpenMP backend).
    Rayon,
}

/// Half-open 2-D iteration range in interior coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range2 {
    pub i0: isize,
    pub i1: isize,
    pub j0: isize,
    pub j1: isize,
}

impl Range2 {
    pub fn new(i0: isize, i1: isize, j0: isize, j1: isize) -> Self {
        Range2 { i0, i1, j0, j1 }
    }

    /// The full interior of an `nx × ny` block.
    pub fn interior(nx: usize, ny: usize) -> Self {
        Range2::new(0, nx as isize, 0, ny as isize)
    }

    pub fn points(&self) -> usize {
        ((self.i1 - self.i0).max(0) * (self.j1 - self.j0).max(0)) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.points() == 0
    }

    /// Intersection (used by the tiling engine).
    pub fn intersect(&self, o: &Range2) -> Range2 {
        Range2::new(
            self.i0.max(o.i0),
            self.i1.min(o.i1),
            self.j0.max(o.j0),
            self.j1.min(o.j1),
        )
    }

    /// Grow by `r` in every direction (used for halo-extended tile ranges).
    pub fn grow(&self, r: isize) -> Range2 {
        Range2::new(self.i0 - r, self.i1 + r, self.j0 - r, self.j1 + r)
    }
}

/// Half-open 3-D iteration range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range3 {
    pub i0: isize,
    pub i1: isize,
    pub j0: isize,
    pub j1: isize,
    pub k0: isize,
    pub k1: isize,
}

impl Range3 {
    #[allow(clippy::too_many_arguments)]
    pub fn new(i0: isize, i1: isize, j0: isize, j1: isize, k0: isize, k1: isize) -> Self {
        Range3 {
            i0,
            i1,
            j0,
            j1,
            k0,
            k1,
        }
    }

    pub fn interior(nx: usize, ny: usize, nz: usize) -> Self {
        Range3::new(0, nx as isize, 0, ny as isize, 0, nz as isize)
    }

    pub fn points(&self) -> usize {
        ((self.i1 - self.i0).max(0) * (self.j1 - self.j0).max(0) * (self.k1 - self.k0).max(0))
            as usize
    }

    pub fn is_empty(&self) -> bool {
        self.points() == 0
    }
}

/// A 2-D range is the one-plane case of a 3-D one: `k ∈ [0, 1)`.
impl From<Range2> for Range3 {
    fn from(r: Range2) -> Self {
        Range3::new(r.i0, r.i1, r.j0, r.j1, 0, 1)
    }
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// Where one dataset's points sit in its storage. A 2-D dataset is the
/// one-plane case: its `k` axis has extent 1, and rank-2 accessors never
/// check or move along it.
#[derive(Clone, Copy)]
pub(crate) struct Geom {
    /// Added to a point's coordinates to give its storage coordinates: the
    /// halo depth on each axis, except on the `j` axis of a
    /// [`Dat2::window`], where it is minus the first row held. Folding the
    /// window's origin in here costs an access nothing.
    origin: [isize; 3],
    /// Valid storage coordinates on each axis: `n + 2·halo` (the rows held
    /// on a window's `j` axis, `1` on a 2-D `k` axis).
    ext: [usize; 3],
    /// Elements between neighbours along `j` (the pitch) and `k` (the slab).
    stride: [usize; 2],
}

impl Geom {
    /// Storage offset of the `width` points that start at `p` and run
    /// along `i`, or `None` if any of them leaves the padded extent (the
    /// rows held, for a window) on any axis of a rank-`D` dataset. Every
    /// point, row and stencil offset goes through here in every build, so
    /// no access can wrap into a neighbouring row or plane, and every
    /// offset lies inside the allocation.
    #[inline]
    fn offset<const D: usize>(&self, p: [isize; 3], width: usize) -> Option<usize> {
        let [x, y, z] = [0, 1, 2].map(|a| p[a].wrapping_add(self.origin[a]) as usize);
        // `&`, not `&&`: one branch for all axes.
        let inside = (width <= self.ext[0])
            & (x <= self.ext[0].wrapping_sub(width))
            & (y < self.ext[1])
            & (D == 2 || z < self.ext[2]);
        if !inside {
            return None;
        }
        let off = x + y * self.stride[0];
        Some(if D == 3 {
            off + z * self.stride[1]
        } else {
            off
        })
    }
}

/// A dataset a loop can view: [`Dat2`] (rank 2) or [`Dat3`] (rank 3).
pub(crate) trait Field<T: Copy, const D: usize> {
    fn geom(&self) -> Geom;
    fn meta(&self) -> ArgMeta;
    fn data(&self) -> &[T];
    fn data_mut(&mut self) -> &mut [T];
}

impl<T: Copy> Field<T, 2> for Dat2<T> {
    fn geom(&self) -> Geom {
        let (h, rows) = (self.halo() as isize, self.rows());
        Geom {
            origin: [h, -rows.start, 0],
            ext: [self.pitch(), rows.len(), 1],
            stride: [self.pitch(), self.raw().len()],
        }
    }
    fn meta(&self) -> ArgMeta {
        ArgMeta {
            name: self.name().to_string(),
            halo: self.halo() as isize,
            extent: (self.nx(), self.ny(), 1),
            elem_bytes: std::mem::size_of::<T>(),
        }
    }
    fn data(&self) -> &[T] {
        self.raw()
    }
    fn data_mut(&mut self) -> &mut [T] {
        self.raw_mut()
    }
}

impl<T: Copy> Field<T, 3> for Dat3<T> {
    fn geom(&self) -> Geom {
        let h = self.halo();
        Geom {
            origin: [h as isize; 3],
            ext: [self.pitch(), self.ny() + 2 * h, self.nz() + 2 * h],
            stride: [self.pitch(), self.slab()],
        }
    }
    fn meta(&self) -> ArgMeta {
        ArgMeta {
            name: self.name().to_string(),
            halo: self.halo() as isize,
            extent: (self.nx(), self.ny(), self.nz()),
            elem_bytes: std::mem::size_of::<T>(),
        }
    }
    fn data(&self) -> &[T] {
        self.raw()
    }
    fn data_mut(&mut self) -> &mut [T] {
        self.raw_mut()
    }
}

/// Write view over one dataset: a raw pointer plus its [`Geom`].
///
/// # Safety discipline
/// Constructed only by the loop drivers from `&mut Dat2`/`&mut Dat3`, so no
/// other code aliases the storage during a loop. Threads write disjoint
/// points because the drivers partition the iteration space by outer index
/// and the kernel accessors only write the current point or row. Every
/// access is checked against the geometry, which keeps it inside the
/// allocation.
#[derive(Clone, Copy)]
pub(crate) struct WView<T> {
    ptr: *mut T,
    g: Geom,
}

// SAFETY: WView is a raw-pointer view over a `&mut` dataset borrow held by
// the driver for the loop's duration; threads write disjoint points (see the
// type docs), so sending/sharing the view requires only `T: Send`.
unsafe impl<T: Send> Send for WView<T> {}
// SAFETY: as above — concurrent `&WView` use only performs disjoint writes
// and current-point reads per the driver contract.
unsafe impl<T: Send> Sync for WView<T> {}

impl<T: Copy> WView<T> {
    pub(crate) fn of<const D: usize>(d: &mut impl Field<T, D>) -> Self {
        let g = d.geom();
        let data = d.data_mut();
        debug_assert_eq!(g.ext.iter().product::<usize>(), data.len());
        WView {
            ptr: data.as_mut_ptr(),
            g,
        }
    }

    /// View over a flat staging row: `(i, j)` maps to element `i` for
    /// `i ∈ [0, len)` and every `j ≥ 0`, letting the streaming-store driver
    /// hand kernels a [`RowOut2`] whose row lands in cache-resident staging
    /// storage instead of the destination field. Negative range starts are
    /// not representable and must fall back to the plain driver.
    pub(crate) fn staging(ptr: *mut T, len: usize) -> Self {
        WView {
            ptr,
            g: Geom {
                origin: [0; 3],
                ext: [len, usize::MAX, 1],
                stride: [0, 0],
            },
        }
    }

    /// A read view over the same storage, for executors that read a field
    /// one member loop writes (tiled chains, fused groups).
    pub(crate) fn read<'a>(&self) -> RView<'a, T> {
        RView {
            ptr: self.ptr,
            g: self.g,
            _borrow: PhantomData,
        }
    }

    /// Pointer to the `width` points from `p`, if they lie in the extent.
    #[inline]
    fn at<const D: usize>(&self, p: [isize; 3], width: usize) -> Option<*mut T> {
        let off = self.g.offset::<D>(p, width)?;
        // SAFETY: `offset` keeps `off` inside the allocation.
        Some(unsafe { self.ptr.add(off) })
    }
}

/// Read view over one dataset.
///
/// Raw-pointer based (with the source borrow's lifetime carried in a
/// marker) so the tiled and fused executors can hold a read view and a
/// write view of the *same* field — written by one loop and read by
/// another — without overlapping references. Every read is checked against
/// the geometry.
#[derive(Clone, Copy)]
pub(crate) struct RView<'a, T> {
    ptr: *const T,
    g: Geom,
    _borrow: PhantomData<&'a [T]>,
}

// SAFETY: RView is a read-only view; the underlying storage outlives `'a`
// and no concurrent writer touches rows a loop reads (driver contract), so
// it is as thread-safe as `&'a [T]`.
unsafe impl<T: Sync> Send for RView<'_, T> {}
// SAFETY: as above — shared read-only access.
unsafe impl<T: Sync> Sync for RView<'_, T> {}

impl<'a, T: Copy> RView<'a, T> {
    pub(crate) fn of<const D: usize>(d: &'a impl Field<T, D>) -> Self {
        let data = d.data();
        RView {
            ptr: data.as_ptr(),
            g: d.geom(),
            _borrow: PhantomData,
        }
    }

    /// The `width` points from `p`, if they lie in the extent.
    #[inline]
    fn slice<const D: usize>(&self, p: [isize; 3], width: usize) -> Option<&'a [T]> {
        let off = self.g.offset::<D>(p, width)?;
        // SAFETY: `offset` keeps the points inside the allocation; the
        // storage outlives `'a` and no concurrent writer touches the rows a
        // loop reads (driver contract).
        Some(unsafe { std::slice::from_raw_parts(self.ptr.add(off), width) })
    }
}

/// The refusal a point accessor raises for a point outside the padded
/// extent, kept out of line so the checks stay small. Callers reach it
/// from a `let ... else`, so its arguments are built on the cold path only.
#[cold]
#[inline(never)]
fn outside(what: &str, f: usize, names: &[String], i: isize, j: isize) -> ! {
    let name = names.get(f).map_or(String::new(), |n| format!(" ('{n}')"));
    panic!("{what} {f}{name}: point ({i}, {j}) outside the padded extent")
}

/// The refusal of a row accessor. It takes only the stencil offset, which
/// is a constant at almost every call site, and takes it as scalars (an
/// array argument would be built in memory ahead of the check): a kernel
/// that reads many windows keeps nothing extra alive for its cold paths.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn row_outside(what: &str, f: usize, di: isize, dj: isize, dk: isize, rank: usize, w: usize) -> ! {
    let d = &[di, dj, dk][..rank];
    panic!("{what} {f}: row of {w} at offset {d:?} outside the padded extent")
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

/// Kernel accessor for the *output* datasets at the current point.
pub struct Out2<'a, T> {
    views: &'a [WView<T>],
    names: &'a [String],
    i: isize,
    j: isize,
    /// [`access::recording_active`], read once per loop by the driver: a
    /// thread-local read per `set`/`get` is the larger part of what a
    /// pointwise kernel costs in core.
    recording: bool,
}

impl<'a, T> Out2<'a, T> {
    #[inline]
    pub(crate) fn at(views: &'a [WView<T>], names: &'a [String], i: isize, j: isize) -> Self {
        Out2 {
            views,
            names,
            i,
            j,
            recording: access::recording_active(),
        }
    }
}

impl<T: Copy> Out2<'_, T> {
    /// Output `f` at the current point, noted as a `kind` access.
    #[inline]
    fn slot(&self, f: usize, kind: OutKind) -> *mut T {
        let p = [self.i, self.j, 0];
        let Some(ptr) = self.views[f].at::<2>(p, 1) else {
            outside("output", f, self.names, self.i, self.j)
        };
        if self.recording {
            access::note_out(f, kind);
        }
        ptr
    }

    /// Write output dataset `f` at the current point.
    #[inline]
    pub fn set(&mut self, f: usize, v: T) {
        let p = self.slot(f, OutKind::Wrote);
        // SAFETY: `slot` checked the point; disjointness across threads is
        // guaranteed by the driver's iteration-space partition (see
        // [`WView`]); exclusivity vs. other code by the `&mut` borrows.
        unsafe { *p = v }
    }

    /// Read output dataset `f` at the current point (read-modify-write).
    #[inline]
    pub fn get(&self, f: usize) -> T {
        let p = self.slot(f, OutKind::ReadBack);
        // SAFETY: as in `set`; reading the current point that only this
        // thread may write.
        unsafe { *p }
    }
}

impl Out2<'_, f64> {
    /// Accumulate into output dataset `f` at the current point.
    #[inline]
    pub fn add(&mut self, f: usize, v: f64) {
        let p = self.slot(f, OutKind::Inced);
        // SAFETY: as in `set`.
        unsafe { *p += v }
    }
}

/// Kernel accessor for the *input* datasets: relative stencil reads.
pub struct In2<'a, T> {
    views: &'a [RView<'a, T>],
    names: &'a [String],
    i: isize,
    j: isize,
    /// See [`Out2`]'s field of the same name.
    recording: bool,
}

impl<'a, T> In2<'a, T> {
    #[inline]
    pub(crate) fn at(views: &'a [RView<'a, T>], names: &'a [String], i: isize, j: isize) -> Self {
        In2 {
            views,
            names,
            i,
            j,
            recording: access::recording_active(),
        }
    }
}

impl<T: Copy> In2<'_, T> {
    /// Read input dataset `f` at offset `(di, dj)` from the current point.
    #[inline]
    pub fn get(&self, f: usize, di: isize, dj: isize) -> T {
        let p = [self.i + di, self.j + dj, 0];
        let Some(&[v]) = self.views[f].slice::<2>(p, 1) else {
            outside("input", f, self.names, p[0], p[1])
        };
        if self.recording {
            access::note_read(f, di, dj, 0);
        }
        v
    }
}

/// Kernel accessor handing out whole contiguous `i`-rows of the output
/// datasets: the slice fast path, one kernel call per row `(j, k)` of a
/// rank-`D` loop (`k = 0` in 2-D).
///
/// Where [`Out2`] funnels every store through a per-point check and view
/// indirection, `row` does one offset computation and one extent check per
/// row and then exposes the raw `&mut [T]` slice, which lets kernels
/// iterate with slice zips the compiler can autovectorize.
pub struct RowOut<'a, T, const D: usize> {
    views: &'a [WView<T>],
    at: RowAt,
}

/// Where one row kernel call is: the row `[i0, i0 + width)` at `(j, k)`
/// (`k = 0` in 2-D), and [`access::recording_active`] as the driver read
/// it once per loop (see [`Out2`]'s field of the same name).
#[derive(Clone, Copy)]
pub(crate) struct RowAt {
    pub(crate) i0: isize,
    pub(crate) width: usize,
    pub(crate) j: isize,
    pub(crate) k: isize,
    pub(crate) recording: bool,
}

/// Row-slice output accessor of a 2-D loop.
pub type RowOut2<'a, T> = RowOut<'a, T, 2>;
/// Row-slice output accessor of a 3-D loop.
pub type RowOut3<'a, T> = RowOut<'a, T, 3>;

impl<'a, T, const D: usize> RowOut<'a, T, D> {
    #[inline]
    pub(crate) fn at(views: &'a [WView<T>], at: RowAt) -> Self {
        RowOut { views, at }
    }
}

impl<T: Copy, const D: usize> RowOut<'_, T, D> {
    /// The current row `[i0, i1)` of output dataset `f` as a mutable slice.
    #[inline]
    pub fn row(&mut self, f: usize) -> &mut [T] {
        let [r] = self.rows([f]);
        r
    }

    /// Rows of two *distinct* output datasets simultaneously (for kernels
    /// updating several fields in one sweep).
    #[inline]
    pub fn rows2(&mut self, f0: usize, f1: usize) -> (&mut [T], &mut [T]) {
        let [r0, r1] = self.rows([f0, f1]);
        (r0, r1)
    }

    /// Rows of three distinct output datasets simultaneously.
    #[inline]
    pub fn rows3(&mut self, f0: usize, f1: usize, f2: usize) -> (&mut [T], &mut [T], &mut [T]) {
        let [r0, r1, r2] = self.rows([f0, f1, f2]);
        (r0, r1, r2)
    }

    /// Forced inline: out of line, the rows' lengths are lost to the
    /// kernel, which then keeps a bounds check per element.
    #[inline(always)]
    fn rows<const N: usize>(&mut self, fs: [usize; N]) -> [&mut [T]; N] {
        for (a, &fa) in fs.iter().enumerate() {
            for &fb in &fs[a + 1..] {
                let distinct = !std::ptr::eq(self.views[fa].ptr, self.views[fb].ptr);
                assert!(distinct, "rows{N} requires {N} distinct output datasets");
            }
        }
        // SAFETY: `row_ptr` checked each row; rows are disjoint across
        // threads because drivers partition by outer index, the rows handed
        // out together belong to distinct datasets (asserted above), and
        // `&mut self` prevents a kernel from holding two slices of the same
        // row at once.
        fs.map(|f| unsafe { std::slice::from_raw_parts_mut(self.row_ptr(f), self.at.width) })
    }

    /// Output `f`'s current row, checked against its extent and noted as
    /// written.
    #[inline]
    fn row_ptr(&self, f: usize) -> *mut T {
        if self.at.recording {
            access::note_out(f, OutKind::Wrote);
        }
        let p = [self.at.i0, self.at.j, self.at.k];
        let Some(ptr) = self.views[f].at::<D>(p, self.at.width) else {
            row_outside("output", f, 0, 0, 0, D, self.at.width)
        };
        ptr
    }
}

/// Input accessor handing out whole contiguous `i`-rows at stencil offsets
/// (see [`RowOut`]).
pub struct RowIn<'a, T, const D: usize> {
    views: &'a [RView<'a, T>],
    at: RowAt,
}

/// Row-slice input accessor of a 2-D loop.
pub type RowIn2<'a, T> = RowIn<'a, T, 2>;
/// Row-slice input accessor of a 3-D loop.
pub type RowIn3<'a, T> = RowIn<'a, T, 3>;

impl<'a, T, const D: usize> RowIn<'a, T, D> {
    #[inline]
    pub(crate) fn at(views: &'a [RView<'a, T>], at: RowAt) -> Self {
        RowIn { views, at }
    }
}

impl<'a, T: Copy, const D: usize> RowIn<'a, T, D> {
    /// The current row of input dataset `f`.
    #[inline]
    pub fn row(&self, f: usize) -> &'a [T] {
        self.window(f, [0; 3])
    }

    /// Input `f`'s row at stencil offset `d`, with the width of the output
    /// rows. Element `x` sits at offset `d` from point `(i0 + x, j, k)`, so
    /// one note covers the whole row exactly.
    #[inline]
    fn window(&self, f: usize, d: [isize; 3]) -> &'a [T] {
        if self.at.recording {
            access::note_read(f, d[0], d[1], d[2]);
        }
        let p = [self.at.i0 + d[0], self.at.j + d[1], self.at.k + d[2]];
        let Some(row) = self.views[f].slice::<D>(p, self.at.width) else {
            row_outside("input", f, d[0], d[1], d[2], D, self.at.width)
        };
        row
    }
}

impl<'a, T: Copy> RowIn<'a, T, 2> {
    /// The row of input dataset `f` starting at offset `(di, dj)` from
    /// `(i0, j)`, with the same width as the output rows: element `x` of
    /// the returned slice is the value at `(i0 + di + x, j + dj)`.
    #[inline]
    pub fn row_off(&self, f: usize, di: isize, dj: isize) -> &'a [T] {
        self.window(f, [di, dj, 0])
    }
}

impl<'a, T: Copy> RowIn<'a, T, 3> {
    /// The row of input dataset `f` at stencil offset `(di, dj, dk)`:
    /// element `x` is the value at `(i0 + di + x, j + dj, k + dk)`.
    #[inline]
    pub fn row_off(&self, f: usize, di: isize, dj: isize, dk: isize) -> &'a [T] {
        self.window(f, [di, dj, dk])
    }
}

// ---------------------------------------------------------------------------
// Harness and scheduling
// ---------------------------------------------------------------------------

/// Target points per scheduled chunk: coarse enough that task dispatch is
/// amortized, fine enough to load-balance (outer indices are grouped to at
/// least this many points in Rayon mode, and at most 512 per chunk).
const CHUNK_POINTS: usize = 1 << 13;

/// The `combine` of a loop that produces nothing to fold.
pub(crate) const NO_FOLD: Option<&fn((), ())> = None;

/// One loop a harness run accounts for: a plain driver's loop, or one
/// member of a fused group.
pub(crate) struct Member<'a> {
    pub(crate) name: &'a str,
    /// Datasets it touches per point (outputs + inputs).
    pub(crate) fields: usize,
    pub(crate) flops_per_point: f64,
}

/// What every driver shares around its per-outer-index `item`: the
/// recording session (which forces Serial), the empty-range shortcut, the
/// [`bwb_trace::Cat::Loop`] span named `label`, the timer, and one
/// [`Profile`] record per member — a fused group's measured seconds split
/// across members in proportion to their modelled traffic, so per-loop
/// records stay comparable with unfused runs. `args` gives the recording's
/// output and input metadata; it is called only while recording.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<T, R, I, C, const D: usize>(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range3,
    label: &str,
    members: &[Member],
    args: &dyn Fn() -> (Vec<ArgMeta>, Vec<ArgMeta>),
    identity: R,
    item: I,
    combine: Option<&C>,
) -> R
where
    R: Clone + Send + Sync,
    I: Fn(isize) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        let (outs, ins) = args();
        let r = range;
        access::begin_loop(
            label,
            D as u8,
            [r.i0, r.i1, r.j0, r.j1, r.k0, r.k1],
            outs,
            ins,
        );
    }
    let points = range.points();
    let fields: usize = members.iter().map(|m| m.fields).sum();
    let elem = std::mem::size_of::<T>();
    let (result, seconds) = if points == 0 {
        (identity, 0.0)
    } else {
        let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, label);
        let t0 = Instant::now();
        let result = schedule::<R, I, C, D>(mode, &range, identity, item, combine);
        let seconds = t0.elapsed().as_secs_f64();
        tspan.set_args(
            (points * fields * elem) as f64,
            points as f64 * members.iter().map(|m| m.flops_per_point).sum::<f64>(),
            points as f64,
        );
        (result, seconds)
    };
    if recording {
        access::end_loop();
    }
    for m in members {
        let secs = match (members.len(), points * fields) {
            (1, _) => seconds,
            (_, 0) => 0.0,
            (_, total) => seconds * (points * m.fields) as f64 / total as f64,
        };
        profile.record(
            m.name,
            points,
            points * m.fields * elem,
            points as f64 * m.flops_per_point,
            secs,
        );
    }
    result
}

/// Run `item` over the outer index of a rank-`D` loop — `j` in 2-D, `k` in
/// 3-D — in order (Serial) or in chunks of at least [`CHUNK_POINTS`] points
/// (Rayon). With `combine`, results fold from `identity` in order (Serial)
/// or per chunk and then across chunks in chunk order (Rayon), so a
/// reduction's tree depends only on the range; without, `item` returns `()`.
fn schedule<R, I, C, const D: usize>(
    mode: ExecMode,
    range: &Range3,
    identity: R,
    item: I,
    combine: Option<&C>,
) -> R
where
    R: Clone + Send + Sync,
    I: Fn(isize) -> R + Sync,
    C: Fn(R, R) -> R + Sync,
{
    let (outer, slice_points) = if D == 2 {
        (range.j0..range.j1, range.i1 - range.i0)
    } else {
        (
            range.k0..range.k1,
            (range.i1 - range.i0) * (range.j1 - range.j0),
        )
    };
    // Only Rayon needs the grain; Serial skips the division.
    let grain = || (CHUNK_POINTS / slice_points.max(1) as usize).clamp(1, 512);
    match (mode, combine) {
        (ExecMode::Serial, None) => {
            outer.for_each(|x| {
                item(x);
            });
            identity
        }
        (ExecMode::Serial, Some(c)) => outer.fold(identity, |acc, x| c(acc, item(x))),
        (ExecMode::Rayon, None) => {
            outer.into_par_iter().with_min_len(grain()).for_each(|x| {
                item(x);
            });
            identity
        }
        (ExecMode::Rayon, Some(c)) => outer
            .into_par_iter()
            .with_min_len(grain())
            .map(item)
            .reduce(|| identity.clone(), c),
    }
}

/// The rows of outer index `outer` of a rank-`D` loop: the one row
/// `(outer, 0)` in 2-D, the plane's rows `(j0..j1, outer)` in 3-D.
#[inline]
pub(crate) fn rows_of<const D: usize>(
    range: &Range3,
    outer: isize,
    recording: bool,
) -> impl Iterator<Item = RowAt> {
    let (js, k) = if D == 2 {
        (outer..outer + 1, 0)
    } else {
        (range.j0..range.j1, outer)
    };
    let (i0, width) = (range.i0, (range.i1 - range.i0).max(0) as usize);
    js.map(move |j| RowAt {
        i0,
        width,
        j,
        k,
        recording,
    })
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

fn metas<'d, T: Copy + 'd, F: Field<T, D> + 'd, const D: usize>(
    ds: impl Iterator<Item = &'d F>,
) -> Vec<ArgMeta> {
    ds.map(|d| d.meta()).collect()
}

/// Execute a 2-D stencil loop.
///
/// * `outs` — datasets written at the current point (index into [`Out2`]);
/// * `ins` — datasets read at arbitrary offsets within their halos;
/// * `flops_per_point` — arithmetic per point, recorded for the roofline /
///   effective-bandwidth accounting (Figure 8);
/// * `kernel(i, j, out, ins)` — the per-point computation.
#[allow(clippy::too_many_arguments)]
pub fn par_loop2<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    outs: &mut [&mut Dat2<T>],
    ins: &[&Dat2<T>],
    flops_per_point: f64,
    kernel: F,
) where
    T: Copy + Send + Sync,
    F: Fn(isize, isize, &mut Out2<T>, &In2<T>) + Sync,
{
    let recording = access::recording_active();
    let out_names: Vec<String> = outs.iter().map(|d| d.name().to_string()).collect();
    let in_names: Vec<String> = ins.iter().map(|d| d.name().to_string()).collect();
    let w: Vec<WView<T>> = outs.iter_mut().map(|d| WView::of(&mut **d)).collect();
    let r: Vec<RView<T>> = ins.iter().map(|d| RView::of(*d)).collect();
    // A `move` closure holds the flag and the slices by value: loads the
    // compiler can hoist out of the point loop, and split it on the flag.
    let (w, r, out_names, in_names, kernel) =
        (&w[..], &r[..], &out_names[..], &in_names[..], &kernel);
    let row = move |j: isize| {
        for i in range.i0..range.i1 {
            let mut out = Out2 {
                views: w,
                names: out_names,
                i,
                j,
                recording,
            };
            let inp = In2 {
                views: r,
                names: in_names,
                i,
                j,
                recording,
            };
            kernel(i, j, &mut out, &inp);
        }
    };
    let member = Member {
        name,
        fields: outs.len() + ins.len(),
        flops_per_point,
    };
    let args = || (metas(outs.iter().map(|d| &**d)), metas(ins.iter().copied()));
    run::<T, (), _, _, 2>(
        profile,
        mode,
        range.into(),
        name,
        &[member],
        &args,
        (),
        row,
        NO_FOLD,
    );
}

/// Execute a 2-D loop on the slice fast path: the kernel is called once per
/// row `j` with contiguous row slices instead of once per point.
///
/// Byte/FLOP accounting is identical to [`par_loop2`] — same iteration
/// range, same dataset counts — so profiles and figure outputs do not
/// change when a loop is ported onto this path; only the measured seconds
/// (and achieved bandwidth) improve.
#[allow(clippy::too_many_arguments)]
pub fn par_loop2_rows<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    outs: &mut [&mut Dat2<T>],
    ins: &[&Dat2<T>],
    flops_per_point: f64,
    kernel: F,
) where
    T: Copy + Send + Sync,
    F: Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Sync,
{
    let kernel = |j, _k, out: &mut RowOut2<T>, inp: &RowIn2<T>| kernel(j, out, inp);
    rows(
        profile,
        name,
        mode,
        range.into(),
        outs,
        ins,
        flops_per_point,
        kernel,
    );
}

/// Plane/row fast path for 3-D loops: the kernel is invoked once per
/// `(j, k)` pair and hands out contiguous `i`-row slices via
/// [`RowOut3`]/[`RowIn3`], exactly as [`par_loop2_rows`] does in 2-D.
/// Parallel mode partitions over `k`-planes.
#[allow(clippy::too_many_arguments)]
pub fn par_loop3_planes<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range3,
    outs: &mut [&mut Dat3<T>],
    ins: &[&Dat3<T>],
    flops_per_point: f64,
    kernel: F,
) where
    T: Copy + Send + Sync,
    F: Fn(isize, isize, &mut RowOut3<T>, &RowIn3<T>) + Sync,
{
    rows(
        profile,
        name,
        mode,
        range,
        outs,
        ins,
        flops_per_point,
        kernel,
    );
}

/// The row drivers of either rank: `kernel(j, k, out, ins)` once per row.
#[allow(clippy::too_many_arguments)]
fn rows<T, F, K, const D: usize>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range3,
    outs: &mut [&mut F],
    ins: &[&F],
    flops_per_point: f64,
    kernel: K,
) where
    T: Copy + Send + Sync,
    F: Field<T, D>,
    K: Fn(isize, isize, &mut RowOut<T, D>, &RowIn<T, D>) + Sync,
{
    let w: Vec<WView<T>> = outs.iter_mut().map(|d| WView::of(&mut **d)).collect();
    let r: Vec<RView<T>> = ins.iter().map(|d| RView::of(*d)).collect();
    let recording = access::recording_active();
    // See `par_loop2` for the `move`.
    let (w, r, kernel) = (&w[..], &r[..], &kernel);
    let item = move |outer: isize| {
        for at in rows_of::<D>(&range, outer, recording) {
            kernel(at.j, at.k, &mut RowOut::at(w, at), &RowIn::at(r, at));
        }
    };
    let member = Member {
        name,
        fields: outs.len() + ins.len(),
        flops_per_point,
    };
    let args = || (metas(outs.iter().map(|d| &**d)), metas(ins.iter().copied()));
    run::<T, (), _, _, D>(
        profile,
        mode,
        range,
        name,
        &[member],
        &args,
        (),
        item,
        NO_FOLD,
    );
}

/// Execute a 2-D reduction loop: the kernel maps each point to an `R`
/// combined with `combine` (must be associative and commutative).
#[allow(clippy::too_many_arguments)]
pub fn par_loop2_reduce<T, R, F, C>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    ins: &[&Dat2<T>],
    identity: R,
    flops_per_point: f64,
    kernel: F,
    combine: C,
) -> R
where
    T: Copy + Send + Sync,
    R: Clone + Send + Sync,
    F: Fn(isize, isize, &In2<T>) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    let recording = access::recording_active();
    let in_names: Vec<String> = ins.iter().map(|d| d.name().to_string()).collect();
    let r: Vec<RView<T>> = ins.iter().map(|d| RView::of(*d)).collect();
    // See `par_loop2` for the `move`.
    let (r, in_names, kernel, combine_ref, id) =
        (&r[..], &in_names[..], &kernel, &combine, &identity);
    let row = move |j: isize| {
        let mut acc = id.clone();
        for i in range.i0..range.i1 {
            let inp = In2 {
                views: r,
                names: in_names,
                i,
                j,
                recording,
            };
            acc = combine_ref(acc, kernel(i, j, &inp));
        }
        acc
    };
    let member = Member {
        name,
        fields: ins.len(),
        flops_per_point,
    };
    let args = || (Vec::new(), metas(ins.iter().copied()));
    let range = range.into();
    run::<T, R, _, _, 2>(
        profile,
        mode,
        range,
        name,
        &[member],
        &args,
        identity.clone(),
        row,
        Some(&combine),
    )
}

/// Execute a 2-D reduction loop on the slice fast path: `kernel(j, acc,
/// row)` folds the contiguous row `j` into the accumulator it is handed
/// (the identity) and the per-row results are combined exactly as
/// [`par_loop2_reduce`] combines its rows — ascending `j` from the
/// identity in Serial mode, the same chunks in Rayon mode — so a kernel
/// that folds its row left to right reproduces that driver bit for bit.
/// Recording, span and [`Profile`] accounting are the same too.
#[allow(clippy::too_many_arguments)]
pub fn par_loop2_rows_reduce<T, R, F, C>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    ins: &[&Dat2<T>],
    identity: R,
    flops_per_point: f64,
    kernel: F,
    combine: C,
) -> R
where
    T: Copy + Send + Sync,
    R: Clone + Send + Sync,
    F: Fn(isize, R, &RowIn2<T>) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    let kernel = |j, _k, acc, inp: &RowIn2<T>| kernel(j, acc, inp);
    let range = range.into();
    rows_reduce(
        profile,
        name,
        mode,
        range,
        ins,
        identity,
        flops_per_point,
        kernel,
        combine,
    )
}

/// 3-D reduction on the plane/row fast path: `kernel(j, k, acc, row)`
/// folds the contiguous `i`-row at `(j, k)` into the accumulator it is
/// handed. One accumulator runs through all rows of a plane in ascending
/// `j`, starting from the identity; planes combine in ascending `k` from
/// the identity (Serial) or per chunk of planes (Rayon). A kernel that
/// folds its row left to right therefore gives, in Serial mode, a left
/// fold of each plane in `(j, i)` order, combined plane by plane.
#[allow(clippy::too_many_arguments)]
pub fn par_loop3_planes_reduce<T, R, F, C>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range3,
    ins: &[&Dat3<T>],
    identity: R,
    flops_per_point: f64,
    kernel: F,
    combine: C,
) -> R
where
    T: Copy + Send + Sync,
    R: Clone + Send + Sync,
    F: Fn(isize, isize, R, &RowIn3<T>) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    rows_reduce(
        profile,
        name,
        mode,
        range,
        ins,
        identity,
        flops_per_point,
        kernel,
        combine,
    )
}

/// The row reductions of either rank: one accumulator per outer index,
/// threaded through its rows in ascending `j`.
#[allow(clippy::too_many_arguments)]
fn rows_reduce<T, R, F, K, C, const D: usize>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range3,
    ins: &[&F],
    identity: R,
    flops_per_point: f64,
    kernel: K,
    combine: C,
) -> R
where
    T: Copy + Send + Sync,
    R: Clone + Send + Sync,
    F: Field<T, D>,
    K: Fn(isize, isize, R, &RowIn<T, D>) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    let r: Vec<RView<T>> = ins.iter().map(|d| RView::of(*d)).collect();
    let recording = access::recording_active();
    // See `par_loop2` for the `move`.
    let (r, kernel, id) = (&r[..], &kernel, &identity);
    let item = move |outer: isize| {
        rows_of::<D>(&range, outer, recording).fold(id.clone(), |acc, at| {
            kernel(at.j, at.k, acc, &RowIn::at(r, at))
        })
    };
    let member = Member {
        name,
        fields: ins.len(),
        flops_per_point,
    };
    let args = || (Vec::new(), metas(ins.iter().copied()));
    run::<T, R, _, _, D>(
        profile,
        mode,
        range,
        name,
        &[member],
        &args,
        identity.clone(),
        item,
        Some(&combine),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range2_points_and_empty() {
        assert_eq!(Range2::new(0, 4, 0, 3).points(), 12);
        assert!(Range2::new(4, 4, 0, 3).is_empty());
        assert!(Range2::new(5, 4, 0, 3).is_empty());
    }

    #[test]
    fn range2_intersect_and_grow() {
        let a = Range2::new(0, 10, 0, 10);
        let b = Range2::new(5, 15, -5, 5);
        assert_eq!(a.intersect(&b), Range2::new(5, 10, 0, 5));
        assert_eq!(a.grow(2), Range2::new(-2, 12, -2, 12));
    }

    #[test]
    fn range3_points() {
        assert_eq!(Range3::new(0, 2, 0, 3, 0, 4).points(), 24);
        assert!(Range3::new(0, 2, 3, 3, 0, 4).is_empty());
    }

    #[test]
    fn copy_loop_serial_and_rayon_agree() {
        let run = |mode: ExecMode| {
            let mut prof = Profile::new();
            let mut src = Dat2::<f64>::new("src", 33, 17, 1);
            let mut dst = Dat2::<f64>::new("dst", 33, 17, 1);
            src.init_with(|i, j| (i * 100 + j) as f64);
            par_loop2(
                &mut prof,
                "copy",
                mode,
                Range2::interior(33, 17),
                &mut [&mut dst],
                &[&src],
                0.0,
                |_i, _j, out, ins| out.set(0, ins.get(0, 0, 0)),
            );
            dst
        };
        let a = run(ExecMode::Serial);
        let b = run(ExecMode::Rayon);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert_eq!(a.get(32, 16), 3216.0);
    }

    #[test]
    fn stencil_reads_reach_into_halo() {
        let mut prof = Profile::new();
        let mut src = Dat2::<f64>::new("src", 4, 4, 1);
        let mut dst = Dat2::<f64>::new("dst", 4, 4, 1);
        src.fill_all(1.0);
        par_loop2(
            &mut prof,
            "lap",
            ExecMode::Serial,
            Range2::interior(4, 4),
            &mut [&mut dst],
            &[&src],
            4.0,
            |_i, _j, out, ins| {
                out.set(
                    0,
                    ins.get(0, -1, 0) + ins.get(0, 1, 0) + ins.get(0, 0, -1) + ins.get(0, 0, 1),
                );
            },
        );
        assert_eq!(dst.get(0, 0), 4.0); // halo values participated
    }

    #[test]
    fn multiple_outputs_written_independently() {
        let mut prof = Profile::new();
        let mut a = Dat2::<f64>::new("a", 8, 8, 0);
        let mut b = Dat2::<f64>::new("b", 8, 8, 0);
        let src = Dat2::<f64>::new("s", 8, 8, 0);
        par_loop2(
            &mut prof,
            "two",
            ExecMode::Rayon,
            Range2::interior(8, 8),
            &mut [&mut a, &mut b],
            &[&src],
            0.0,
            |i, j, out, _ins| {
                out.set(0, i as f64);
                out.set(1, j as f64);
            },
        );
        assert_eq!(a.get(5, 2), 5.0);
        assert_eq!(b.get(5, 2), 2.0);
    }

    #[test]
    fn read_modify_write_via_out_get() {
        let mut prof = Profile::new();
        let mut a = Dat2::<f64>::new("a", 4, 4, 0);
        a.fill_interior(10.0);
        par_loop2(
            &mut prof,
            "rmw",
            ExecMode::Serial,
            Range2::interior(4, 4),
            &mut [&mut a],
            &[],
            1.0,
            |_i, _j, out, _ins| {
                let v = out.get(0);
                out.set(0, v + 1.0);
            },
        );
        assert_eq!(a.get(0, 0), 11.0);
    }

    #[test]
    fn profile_records_bytes_and_flops() {
        let mut prof = Profile::new();
        let mut dst = Dat2::<f64>::new("dst", 10, 10, 0);
        let src = Dat2::<f64>::new("src", 10, 10, 0);
        par_loop2(
            &mut prof,
            "k",
            ExecMode::Serial,
            Range2::interior(10, 10),
            &mut [&mut dst],
            &[&src],
            3.0,
            |_i, _j, out, ins| out.set(0, ins.get(0, 0, 0)),
        );
        let rec = &prof.records()[0];
        assert_eq!(rec.points, 100);
        assert_eq!(rec.bytes, 100 * 16); // 1 read + 1 write × 8 B
        assert_eq!(rec.flops, 300.0);
        assert!(rec.seconds >= 0.0);
    }

    #[test]
    fn reduce_sum_matches_direct() {
        let mut prof = Profile::new();
        let mut src = Dat2::<f64>::new("src", 20, 20, 0);
        src.init_with(|i, j| (i + j) as f64);
        let expect = src.interior_sum();
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let s = par_loop2_reduce(
                &mut prof,
                "sum",
                mode,
                Range2::interior(20, 20),
                &[&src],
                0.0,
                1.0,
                |_i, _j, ins| ins.get(0, 0, 0),
                |a, b| a + b,
            );
            assert!((s - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn reduce_min_over_subrange() {
        let mut prof = Profile::new();
        let mut src = Dat2::<f64>::new("src", 10, 10, 0);
        src.init_with(|i, j| (i * 10 + j) as f64);
        let m = par_loop2_reduce(
            &mut prof,
            "min",
            ExecMode::Rayon,
            Range2::new(2, 8, 3, 7),
            &[&src],
            f64::INFINITY,
            0.0,
            |_i, _j, ins| ins.get(0, 0, 0),
            f64::min,
        );
        assert_eq!(m, 23.0);
    }

    #[test]
    fn empty_range_is_noop_but_recorded() {
        let mut prof = Profile::new();
        let mut dst = Dat2::<f64>::new("dst", 4, 4, 0);
        par_loop2(
            &mut prof,
            "noop",
            ExecMode::Serial,
            Range2::new(2, 2, 0, 4),
            &mut [&mut dst],
            &[],
            1.0,
            |_i, _j, out, _ins| out.set(0, 99.0),
        );
        assert_eq!(dst.interior_sum(), 0.0);
        assert_eq!(prof.records()[0].points, 0);
    }

    #[test]
    fn loop3_seven_point_stencil_serial_equals_rayon() {
        let run = |mode: ExecMode| {
            let mut prof = Profile::new();
            let mut src = Dat3::<f64>::new("src", 12, 10, 8, 1);
            let mut dst = Dat3::<f64>::new("dst", 12, 10, 8, 1);
            src.init_with(|i, j, k| (i + 2 * j + 3 * k) as f64);
            par_loop3_planes(
                &mut prof,
                "lap3",
                mode,
                Range3::interior(12, 10, 8),
                &mut [&mut dst],
                &[&src],
                7.0,
                |_j, _k, out, ins| {
                    let c = ins.row(0);
                    let (xm, xp) = (ins.row_off(0, -1, 0, 0), ins.row_off(0, 1, 0, 0));
                    let (ym, yp) = (ins.row_off(0, 0, -1, 0), ins.row_off(0, 0, 1, 0));
                    let (zm, zp) = (ins.row_off(0, 0, 0, -1), ins.row_off(0, 0, 0, 1));
                    for (x, o) in out.row(0).iter_mut().enumerate() {
                        *o = xm[x] + xp[x] + ym[x] + yp[x] + zm[x] + zp[x] - 6.0 * c[x];
                    }
                },
            );
            dst
        };
        let a = run(ExecMode::Serial);
        let b = run(ExecMode::Rayon);
        for k in 0..8 {
            for j in 0..10 {
                for i in 0..12 {
                    assert_eq!(a.get(i, j, k), b.get(i, j, k));
                }
            }
        }
        // Interior of a linear field: Laplacian = 0.
        assert_eq!(a.get(5, 5, 4), 0.0);
    }

    #[test]
    fn reduce3_counts_points() {
        let mut prof = Profile::new();
        let src = Dat3::<f64>::new("src", 5, 6, 7, 0);
        let n = par_loop3_planes_reduce(
            &mut prof,
            "count",
            ExecMode::Rayon,
            Range3::interior(5, 6, 7),
            &[&src],
            0u64,
            0.0,
            |_j, _k, acc, ins| acc + ins.row(0).len() as u64,
            |a, b| a + b,
        );
        assert_eq!(n, 210);
    }

    /// A 4×4 field of halo 1 (pitch 6) whose values are their storage
    /// indices, so a wrapped read would show up as a plausible value.
    fn indexed2() -> Dat2<f64> {
        let mut d = Dat2::<f64>::new("u", 4, 4, 1);
        for (x, v) in d.raw_mut().iter_mut().enumerate() {
            *v = x as f64;
        }
        d
    }

    fn indexed3() -> Dat3<f64> {
        let mut d = Dat3::<f64>::new("u", 4, 4, 4, 1);
        for (x, v) in d.raw_mut().iter_mut().enumerate() {
            *v = x as f64;
        }
        d
    }

    fn read_row2(di: isize, dj: isize) -> Vec<f64> {
        let src = indexed2();
        let mut dst = Dat2::<f64>::new("d", 4, 4, 1);
        let got = std::sync::Mutex::new(Vec::new());
        par_loop2_rows(
            &mut Profile::new(),
            "row_off",
            ExecMode::Serial,
            Range2::new(0, 4, 1, 2),
            &mut [&mut dst],
            &[&src],
            0.0,
            |_j, _out, ins| {
                got.lock()
                    .unwrap()
                    .extend_from_slice(ins.row_off(0, di, dj))
            },
        );
        got.into_inner().unwrap()
    }

    fn read_row3(di: isize, dj: isize, dk: isize) -> Vec<f64> {
        let src = indexed3();
        let mut dst = Dat3::<f64>::new("d", 4, 4, 4, 1);
        let got = std::sync::Mutex::new(Vec::new());
        par_loop3_planes(
            &mut Profile::new(),
            "row_off",
            ExecMode::Serial,
            Range3::new(0, 4, 1, 2, 1, 2),
            &mut [&mut dst],
            &[&src],
            0.0,
            |_j, _k, _out, ins| {
                got.lock()
                    .unwrap()
                    .extend_from_slice(ins.row_off(0, di, dj, dk))
            },
        );
        got.into_inner().unwrap()
    }

    #[test]
    fn row_view_reaches_both_halo_edges() {
        // Row j = 1 starts at storage index 2·6 + 1 = 13.
        assert_eq!(read_row2(-1, 0), [12.0, 13.0, 14.0, 15.0]);
        assert_eq!(read_row2(1, 0), [14.0, 15.0, 16.0, 17.0]);
        assert_eq!(read_row2(0, -2), [1.0, 2.0, 3.0, 4.0]);
        // Plane k = 1 - 2 is the low halo plane: index 0·36 + 2·6 + 2 = 14.
        assert_eq!(read_row3(1, 0, -2), [14.0, 15.0, 16.0, 17.0]);
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn row_view_refuses_high_side_2d() {
        // Index 18 is the first element of the next padded row.
        read_row2(2, 0);
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn row_view_refuses_low_side_2d() {
        read_row2(-2, 0);
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn row_view_refuses_high_side_3d() {
        read_row3(2, 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn row_view_refuses_low_side_3d() {
        read_row3(-2, 0, 0);
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn row_view_refuses_plane_past_halo_3d() {
        // Row j = 5 is past the high halo row; its storage is the first
        // row of the next plane, inside the allocation.
        read_row3(0, 4, 0);
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn row_view_refuses_output_row_past_halo() {
        let mut dst = Dat2::<f64>::new("d", 4, 4, 1);
        par_loop2_rows(
            &mut Profile::new(),
            "wide",
            ExecMode::Serial,
            Range2::new(-1, 5, 0, 1),
            &mut [&mut dst],
            &[],
            0.0,
            |_j, out, _ins| out.row(0).fill(1.0),
        );
        // A row one point wider than the padded pitch.
        par_loop2_rows(
            &mut Profile::new(),
            "wider",
            ExecMode::Serial,
            Range2::new(-1, 6, 0, 1),
            &mut [&mut dst],
            &[],
            0.0,
            |_j, out, _ins| out.row(0).fill(1.0),
        );
    }

    #[test]
    #[should_panic(expected = "('u'): point (5, 1) outside the padded extent")]
    fn point_view_refuses_high_side_read() {
        let src = indexed2();
        let mut dst = Dat2::<f64>::new("d", 4, 4, 1);
        par_loop2(
            &mut Profile::new(),
            "pt",
            ExecMode::Serial,
            Range2::new(0, 4, 1, 2),
            &mut [&mut dst],
            &[&src],
            0.0,
            |_i, _j, out, ins| out.set(0, ins.get(0, 2, 0)),
        );
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn point_view_refuses_low_side_write() {
        let mut dst = Dat2::<f64>::new("d", 4, 4, 1);
        par_loop2(
            &mut Profile::new(),
            "pt",
            ExecMode::Serial,
            Range2::new(-2, 0, 0, 1),
            &mut [&mut dst],
            &[],
            0.0,
            |_i, _j, out, _ins| out.set(0, 1.0),
        );
    }

    #[test]
    fn empty_reduction_returns_identity_and_records() {
        let mut prof = Profile::new();
        let src = Dat2::<f64>::new("src", 4, 4, 0);
        let s = par_loop2_rows_reduce(
            &mut prof,
            "none",
            ExecMode::Rayon,
            Range2::new(0, 4, 3, 3),
            &[&src],
            7.0,
            1.0,
            |_j, acc, ins| acc + ins.row(0)[0],
            |a, b| a + b,
        );
        assert_eq!(s, 7.0);
        assert_eq!(prof.get("none").map(|r| (r.calls, r.points)), Some((1, 0)));
    }

    /// A window of 3 rows over a 4 × 6 field of halo 1, slid to hold rows
    /// 2..5, and a whole field whose values name their point.
    fn window_and_source() -> (Dat2<f64>, Dat2<f64>) {
        let mut win = Dat2::<f64>::window("w", 4, 6, 1, 3);
        win.slide(2);
        let mut src = Dat2::<f64>::new("s", 4, 6, 1);
        src.init_with(|i, j| (10 * j + i) as f64);
        (win, src)
    }

    #[test]
    fn window_views_address_global_rows() {
        let (mut win, src) = window_and_source();
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            par_loop2_rows(
                &mut Profile::new(),
                "into_window",
                mode,
                Range2::new(0, 4, 3, 5),
                &mut [&mut win],
                &[&src],
                0.0,
                |_j, out, ins| out.row(0).copy_from_slice(ins.row_off(0, 0, -1)),
            );
            // Row j holds the source's row j - 1, in storage row j - 2.
            assert_eq!(win.get(1, 3), 21.0);
            assert_eq!(&win.raw()[2 * 6 + 1..2 * 6 + 5], &[30.0, 31.0, 32.0, 33.0]);
            let mut back = Dat2::<f64>::new("b", 4, 6, 1);
            par_loop2_rows(
                &mut Profile::new(),
                "from_window",
                mode,
                Range2::new(0, 4, 2, 4),
                &mut [&mut back],
                &[&win],
                0.0,
                |_j, out, ins| out.row(0).copy_from_slice(ins.row_off(0, 0, 1)),
            );
            assert_eq!(back.get(3, 2), 23.0);
            assert_eq!(back.get(0, 3), 30.0);
        }
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn window_refuses_a_read_below_its_rows() {
        let (win, _) = window_and_source();
        let mut out = Dat2::<f64>::new("o", 4, 6, 1);
        par_loop2_rows(
            &mut Profile::new(),
            "below",
            ExecMode::Serial,
            Range2::new(0, 4, 2, 3),
            &mut [&mut out],
            &[&win],
            0.0,
            |_j, out, ins| out.row(0).copy_from_slice(ins.row_off(0, 0, -1)),
        );
    }

    #[test]
    #[should_panic(expected = "outside the padded extent")]
    fn window_refuses_a_write_above_its_rows() {
        let (mut win, src) = window_and_source();
        par_loop2_rows(
            &mut Profile::new(),
            "above",
            ExecMode::Serial,
            Range2::new(0, 4, 4, 6),
            &mut [&mut win],
            &[&src],
            0.0,
            |_j, out, ins| out.row(0).copy_from_slice(ins.row(0)),
        );
    }

    #[test]
    fn window_slide_keeps_the_rows_it_still_holds() {
        let mut win = Dat2::<f64>::window("w", 2, 8, 1, 4);
        for j in win.rows() {
            win.padded_row_mut(j).fill(j as f64);
        }
        win.slide(1);
        assert_eq!(win.rows(), 1..5);
        assert_eq!((win.get(0, 1), win.get(1, 2)), (1.0, 2.0));
        win.slide(0);
        assert_eq!((win.get(0, 1), win.get(0, 2)), (1.0, 2.0));
        // Past every row held: nothing is kept, and nothing is refused.
        win.slide(5);
        assert_eq!(win.rows(), 5..9);
        win.copy_row(5, 8);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn window_refuses_to_slide_past_the_halo() {
        Dat2::<f64>::window("w", 2, 8, 1, 4).slide(7);
    }
}
