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

use crate::access::{self, OutKind};
use crate::field::{Dat2, Dat3};
use crate::profile::Profile;
use rayon::prelude::*;
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

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

/// Write view over one 2-D dataset: a raw pointer plus geometry.
///
/// # Safety discipline
/// Constructed only by the loop drivers from `&mut Dat2`, so no other code
/// aliases the storage during a loop. Threads write disjoint points because
/// the drivers partition the iteration space by outer index and the kernel
/// accessor ([`Out2`]) only writes the current point. Every write is
/// bounds-checked against the allocation length.
#[derive(Clone, Copy)]
pub(crate) struct WView2<T> {
    ptr: *mut T,
    pitch: usize,
    halo: isize,
    len: usize,
}

// SAFETY: WView2 is a raw-pointer view over a `&mut Dat2` borrow held by the
// driver for the loop's duration; threads write disjoint points (see the type
// docs), so sending/sharing the view requires only `T: Send`.
unsafe impl<T: Send> Send for WView2<T> {}
// SAFETY: as above — concurrent `&WView2` use only performs disjoint writes
// and current-point reads per the driver contract.
unsafe impl<T: Send> Sync for WView2<T> {}

impl<T> WView2<T> {
    /// View over a flat per-row staging buffer: geometry collapses so that
    /// `index(i, j) == i` for every `j`, letting the streaming-store driver
    /// hand kernels a [`RowOut2`] whose rows land in cache-resident staging
    /// storage instead of the destination field. `len` must cover
    /// `[0, i0 + width)` of the loop's range; negative range starts are not
    /// representable and must fall back to the plain driver.
    pub(crate) fn staging(ptr: *mut T, len: usize) -> Self {
        WView2 {
            ptr,
            pitch: 0,
            halo: 0,
            len,
        }
    }
}

impl<T: Copy> WView2<T> {
    /// Is `(i, j)` inside the padded (halo-extended) allocation? Used by the
    /// accessors' debug bounds checks to reject stencil offsets that would
    /// silently wrap into a neighbouring row.
    #[inline]
    fn in_bounds(&self, i: isize, j: isize) -> bool {
        let ii = i + self.halo;
        let jj = j + self.halo;
        ii >= 0 && (ii as usize) < self.pitch && jj >= 0 && (jj as usize) < self.len / self.pitch
    }

    #[inline]
    fn index(&self, i: isize, j: isize) -> usize {
        let ii = i + self.halo;
        let jj = j + self.halo;
        debug_assert!(ii >= 0 && jj >= 0, "write at ({i},{j}) before halo start");
        let idx = jj as usize * self.pitch + ii as usize;
        assert!(idx < self.len, "write at ({i},{j}) outside dataset storage");
        idx
    }

    #[inline]
    fn write(&self, i: isize, j: isize, v: T) {
        let idx = self.index(i, j);
        // SAFETY: idx bounds-checked above; disjointness across threads is
        // guaranteed by the driver's iteration-space partition (see type
        // docs); exclusivity vs. other code by the `&mut Dat2` borrows.
        unsafe { *self.ptr.add(idx) = v }
    }

    #[inline]
    fn read(&self, i: isize, j: isize) -> T {
        let idx = self.index(i, j);
        // SAFETY: as in `write`; reading the current point that only this
        // thread may write.
        unsafe { *self.ptr.add(idx) }
    }
}

/// Read view over one 2-D dataset.
///
/// Raw-pointer based (with the source borrow's lifetime carried in a
/// marker) so the tiled executor can hold a read view and a write view of
/// the *same* field — used as input by one loop of a chain and as output by
/// another — without overlapping references. Every read is bounds-checked.
#[derive(Clone, Copy)]
pub(crate) struct RView2<'a, T> {
    ptr: *const T,
    pitch: usize,
    halo: isize,
    len: usize,
    _borrow: std::marker::PhantomData<&'a [T]>,
}

// SAFETY: RView2 is a read-only view; the underlying storage outlives `'a`
// and no concurrent writer touches rows a loop reads (driver contract), so
// it is as thread-safe as `&'a [T]`.
unsafe impl<T: Sync> Send for RView2<'_, T> {}
// SAFETY: as above — shared read-only access.
unsafe impl<T: Sync> Sync for RView2<'_, T> {}

impl<T: Copy> RView2<'_, T> {
    /// See [`WView2::in_bounds`].
    #[inline]
    fn in_bounds(&self, i: isize, j: isize) -> bool {
        let ii = i + self.halo;
        let jj = j + self.halo;
        ii >= 0 && (ii as usize) < self.pitch && jj >= 0 && (jj as usize) < self.len / self.pitch
    }

    #[inline]
    fn read(&self, i: isize, j: isize) -> T {
        let ii = i + self.halo;
        let jj = j + self.halo;
        debug_assert!(ii >= 0 && jj >= 0, "read at ({i},{j}) before halo start");
        let idx = jj as usize * self.pitch + ii as usize;
        assert!(idx < self.len, "read at ({i},{j}) outside dataset storage");
        // SAFETY: bounds-checked above; the storage outlives `'a` and no
        // concurrent writer touches the rows a loop reads (driver contract).
        unsafe { *self.ptr.add(idx) }
    }
}

/// Raw base of one field's storage, captured once by the tiled executor so
/// it can hand out per-loop write and read views over a shared store.
pub(crate) struct FieldView2<T> {
    ptr: *mut T,
    pitch: usize,
    halo: isize,
    len: usize,
}

impl<T: Copy> FieldView2<T> {
    pub(crate) fn capture(d: &mut Dat2<T>) -> Self {
        let (pitch, halo, _nx, _ny, len) = d.geometry();
        FieldView2 {
            ptr: d.raw_mut().as_mut_ptr(),
            pitch,
            halo: halo as isize,
            len,
        }
    }

    pub(crate) fn write_view(&self) -> WView2<T> {
        WView2 {
            ptr: self.ptr,
            pitch: self.pitch,
            halo: self.halo,
            len: self.len,
        }
    }

    pub(crate) fn read_view<'a>(&self) -> RView2<'a, T> {
        RView2 {
            ptr: self.ptr,
            pitch: self.pitch,
            halo: self.halo,
            len: self.len,
            _borrow: std::marker::PhantomData,
        }
    }
}

/// Kernel accessor for the *output* datasets at the current point.
pub struct Out2<'a, T> {
    views: &'a [WView2<T>],
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
    pub(crate) fn at(views: &'a [WView2<T>], names: &'a [String], i: isize, j: isize) -> Self {
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
    /// Write output dataset `f` at the current point.
    #[inline]
    pub fn set(&mut self, f: usize, v: T) {
        debug_assert!(
            self.views[f].in_bounds(self.i, self.j),
            "output {f} ('{}'): write at point ({},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j
        );
        if self.recording {
            access::note_out(f, OutKind::Wrote);
        }
        self.views[f].write(self.i, self.j, v);
    }

    /// Read output dataset `f` at the current point (read-modify-write).
    #[inline]
    pub fn get(&self, f: usize) -> T {
        debug_assert!(
            self.views[f].in_bounds(self.i, self.j),
            "output {f} ('{}'): read-back at point ({},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j
        );
        if self.recording {
            access::note_out(f, OutKind::ReadBack);
        }
        self.views[f].read(self.i, self.j)
    }
}

impl Out2<'_, f64> {
    /// Accumulate into output dataset `f` at the current point.
    #[inline]
    pub fn add(&mut self, f: usize, v: f64) {
        debug_assert!(
            self.views[f].in_bounds(self.i, self.j),
            "output {f} ('{}'): increment at point ({},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j
        );
        if self.recording {
            access::note_out(f, OutKind::Inced);
        }
        let cur = self.views[f].read(self.i, self.j);
        self.views[f].write(self.i, self.j, cur + v);
    }
}

/// Kernel accessor for the *input* datasets: relative stencil reads.
pub struct In2<'a, T> {
    views: &'a [RView2<'a, T>],
    names: &'a [String],
    i: isize,
    j: isize,
    /// See [`Out2`]'s field of the same name.
    recording: bool,
}

impl<'a, T> In2<'a, T> {
    #[inline]
    pub(crate) fn at(views: &'a [RView2<'a, T>], names: &'a [String], i: isize, j: isize) -> Self {
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
        debug_assert!(
            self.views[f].in_bounds(self.i + di, self.j + dj),
            "input {f} ('{}'): stencil offset ({di},{dj}) at point ({},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j
        );
        if self.recording {
            access::note_read(f, di, dj, 0);
        }
        self.views[f].read(self.i + di, self.j + dj)
    }
}

/// Kernel accessor handing out whole contiguous *rows* of the output
/// datasets: the slice fast path.
///
/// Where [`Out2`] funnels every store through a per-point bounds check and
/// view indirection, `RowOut2::row` does one bounds check per row and then
/// exposes the raw `&mut [T]` slice, which lets kernels iterate with slice
/// zips the compiler can autovectorize.
pub struct RowOut2<'a, T> {
    views: &'a [WView2<T>],
    i0: isize,
    width: usize,
    j: isize,
}

impl<'a, T> RowOut2<'a, T> {
    #[inline]
    pub(crate) fn at(views: &'a [WView2<T>], i0: isize, width: usize, j: isize) -> Self {
        RowOut2 {
            views,
            i0,
            width,
            j,
        }
    }
}

impl<T: Copy> RowOut2<'_, T> {
    /// The current row `[i0, i1)` of output dataset `f` as a mutable slice.
    #[inline]
    pub fn row(&mut self, f: usize) -> &mut [T] {
        if access::recording_active() {
            access::note_out(f, OutKind::Wrote);
        }
        let v = &self.views[f];
        let base = v.index(self.i0, self.j);
        assert!(
            base + self.width <= v.len,
            "row at j={} overruns dataset storage",
            self.j
        );
        // SAFETY: bounds checked above; rows are disjoint across threads
        // because drivers partition by `j`, and `&mut self` prevents a kernel
        // from holding two slices of the same dataset at once.
        unsafe { std::slice::from_raw_parts_mut(v.ptr.add(base), self.width) }
    }

    /// Rows of two *distinct* output datasets simultaneously (for kernels
    /// updating several fields in one sweep).
    #[inline]
    pub fn rows2(&mut self, f0: usize, f1: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(f0, f1, "rows2 requires two distinct output datasets");
        if access::recording_active() {
            access::note_out(f0, OutKind::Wrote);
            access::note_out(f1, OutKind::Wrote);
        }
        let (v0, v1) = (&self.views[f0], &self.views[f1]);
        debug_assert!(
            !std::ptr::eq(v0.ptr, v1.ptr),
            "output datasets must not alias"
        );
        let b0 = v0.index(self.i0, self.j);
        let b1 = v1.index(self.i0, self.j);
        assert!(b0 + self.width <= v0.len && b1 + self.width <= v1.len);
        // SAFETY: as in `row`; the two slices come from different
        // allocations (outs are distinct `&mut Dat2`).
        unsafe {
            (
                std::slice::from_raw_parts_mut(v0.ptr.add(b0), self.width),
                std::slice::from_raw_parts_mut(v1.ptr.add(b1), self.width),
            )
        }
    }

    /// Rows of three distinct output datasets simultaneously.
    #[inline]
    pub fn rows3(&mut self, f0: usize, f1: usize, f2: usize) -> (&mut [T], &mut [T], &mut [T]) {
        assert!(
            f0 != f1 && f0 != f2 && f1 != f2,
            "rows3 requires three distinct output datasets"
        );
        if access::recording_active() {
            access::note_out(f0, OutKind::Wrote);
            access::note_out(f1, OutKind::Wrote);
            access::note_out(f2, OutKind::Wrote);
        }
        let (v0, v1, v2) = (&self.views[f0], &self.views[f1], &self.views[f2]);
        let b0 = v0.index(self.i0, self.j);
        let b1 = v1.index(self.i0, self.j);
        let b2 = v2.index(self.i0, self.j);
        assert!(
            b0 + self.width <= v0.len && b1 + self.width <= v1.len && b2 + self.width <= v2.len
        );
        // SAFETY: as in `row`; distinct allocations.
        unsafe {
            (
                std::slice::from_raw_parts_mut(v0.ptr.add(b0), self.width),
                std::slice::from_raw_parts_mut(v1.ptr.add(b1), self.width),
                std::slice::from_raw_parts_mut(v2.ptr.add(b2), self.width),
            )
        }
    }
}

/// Input accessor handing out whole contiguous rows at stencil offsets.
pub struct RowIn2<'a, T> {
    views: &'a [RView2<'a, T>],
    i0: isize,
    width: usize,
    j: isize,
}

impl<'a, T> RowIn2<'a, T> {
    #[inline]
    pub(crate) fn at(views: &'a [RView2<'a, T>], i0: isize, width: usize, j: isize) -> Self {
        RowIn2 {
            views,
            i0,
            width,
            j,
        }
    }
}

impl<'a, T: Copy> RowIn2<'a, T> {
    /// The current row of input dataset `f`.
    #[inline]
    pub fn row(&self, f: usize) -> &'a [T] {
        self.row_off(f, 0, 0)
    }

    /// The row of input dataset `f` starting at offset `(di, dj)` from
    /// `(i0, j)`, with the same width as the output rows: element `x` of
    /// the returned slice is the value at `(i0 + di + x, j + dj)`.
    #[inline]
    pub fn row_off(&self, f: usize, di: isize, dj: isize) -> &'a [T] {
        // Element `x` of the returned slice sits at offset `(di, dj)` from
        // point `(i0 + x, j)`, so one note covers the whole row exactly.
        if access::recording_active() {
            access::note_read(f, di, dj, 0);
        }
        let v = &self.views[f];
        let ii = self.i0 + di + v.halo;
        let jj = self.j + dj + v.halo;
        debug_assert!(
            ii >= 0 && jj >= 0,
            "row read at offset ({di},{dj}) before halo start"
        );
        let base = jj as usize * v.pitch + ii as usize;
        assert!(
            base + self.width <= v.len,
            "row read at offset ({di},{dj}) overruns dataset storage"
        );
        // SAFETY: bounds-checked above; shared access for `'a` (see RView2).
        unsafe { std::slice::from_raw_parts(v.ptr.add(base), self.width) }
    }
}

// ---------------------------------------------------------------------------
// 2-D drivers
// ---------------------------------------------------------------------------

/// Target points per scheduled chunk: coarse enough that task dispatch is
/// amortized, fine enough to load-balance (rows are grouped to at least
/// this many points in Rayon mode).
const CHUNK_POINTS: usize = 1 << 13;

/// Rows per scheduling chunk for a loop `width` points wide.
#[inline]
pub(crate) fn chunk_rows(width: isize) -> usize {
    (CHUNK_POINTS / (width.max(1) as usize)).clamp(1, 512)
}

fn meta2<T: Copy>(d: &Dat2<T>) -> access::ArgMeta {
    access::ArgMeta {
        name: d.name().to_string(),
        halo: d.halo() as isize,
        extent: (d.nx(), d.ny(), 1),
        elem_bytes: std::mem::size_of::<T>(),
    }
}

fn out_names2<T: Copy>(outs: &[&mut Dat2<T>]) -> Vec<String> {
    outs.iter().map(|d| d.name().to_string()).collect()
}

fn in_names2<T: Copy>(ins: &[&Dat2<T>]) -> Vec<String> {
    ins.iter().map(|d| d.name().to_string()).collect()
}

fn wviews2<T: Copy>(outs: &mut [&mut Dat2<T>]) -> Vec<WView2<T>> {
    outs.iter_mut()
        .map(|d| {
            let (pitch, halo, _nx, _ny, len) = d.geometry();
            WView2 {
                ptr: d.raw_mut().as_mut_ptr(),
                pitch,
                halo: halo as isize,
                len,
            }
        })
        .collect()
}

pub(crate) fn rviews2<'a, T: Copy>(ins: &'a [&'a Dat2<T>]) -> Vec<RView2<'a, T>> {
    ins.iter()
        .map(|d| {
            let data = d.raw();
            RView2 {
                ptr: data.as_ptr(),
                pitch: d.pitch(),
                halo: d.halo() as isize,
                len: data.len(),
                _borrow: std::marker::PhantomData,
            }
        })
        .collect()
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
    let bytes_per_point = (outs.len() + ins.len()) * std::mem::size_of::<T>();
    // Checked-execution mode: run serially and log every kernel access.
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        access::begin_loop(
            name,
            2,
            [range.i0, range.i1, range.j0, range.j1, 0, 1],
            outs.iter().map(|d| meta2(d)).collect(),
            ins.iter().map(|d| meta2(d)).collect(),
        );
    }
    // View construction and profile bookkeeping stay outside the timed
    // region: recorded seconds cover the loop body only.
    let seconds = if range.is_empty() {
        0.0
    } else {
        let out_names = out_names2(outs);
        let in_names = in_names2(ins);
        let w = wviews2(outs);
        let r = rviews2(ins);
        let body = |j: isize| {
            for i in range.i0..range.i1 {
                let mut out = Out2 {
                    views: &w,
                    names: &out_names,
                    i,
                    j,
                    recording,
                };
                let inp = In2 {
                    views: &r,
                    names: &in_names,
                    i,
                    j,
                    recording,
                };
                kernel(i, j, &mut out, &inp);
            }
        };
        let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
        let t0 = Instant::now();
        match mode {
            ExecMode::Serial => (range.j0..range.j1).for_each(body),
            ExecMode::Rayon => (range.j0..range.j1)
                .into_par_iter()
                .with_min_len(chunk_rows(range.i1 - range.i0))
                .for_each(body),
        }
        let seconds = t0.elapsed().as_secs_f64();
        tspan.set_args(
            (range.points() * bytes_per_point) as f64,
            range.points() as f64 * flops_per_point,
            range.points() as f64,
        );
        seconds
    };
    if recording {
        access::end_loop();
    }
    profile.record(
        name,
        range.points(),
        range.points() * bytes_per_point,
        range.points() as f64 * flops_per_point,
        seconds,
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
    let bytes_per_point = (outs.len() + ins.len()) * std::mem::size_of::<T>();
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        access::begin_loop(
            name,
            2,
            [range.i0, range.i1, range.j0, range.j1, 0, 1],
            outs.iter().map(|d| meta2(d)).collect(),
            ins.iter().map(|d| meta2(d)).collect(),
        );
    }
    let seconds = if range.is_empty() {
        0.0
    } else {
        let w = wviews2(outs);
        let r = rviews2(ins);
        let width = (range.i1 - range.i0) as usize;
        let body = |j: isize| {
            let mut out = RowOut2 {
                views: &w,
                i0: range.i0,
                width,
                j,
            };
            let inp = RowIn2 {
                views: &r,
                i0: range.i0,
                width,
                j,
            };
            kernel(j, &mut out, &inp);
        };
        let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
        let t0 = Instant::now();
        match mode {
            ExecMode::Serial => (range.j0..range.j1).for_each(body),
            ExecMode::Rayon => (range.j0..range.j1)
                .into_par_iter()
                .with_min_len(chunk_rows(range.i1 - range.i0))
                .for_each(body),
        }
        let seconds = t0.elapsed().as_secs_f64();
        tspan.set_args(
            (range.points() * bytes_per_point) as f64,
            range.points() as f64 * flops_per_point,
            range.points() as f64,
        );
        seconds
    };
    if recording {
        access::end_loop();
    }
    profile.record(
        name,
        range.points(),
        range.points() * bytes_per_point,
        range.points() as f64 * flops_per_point,
        seconds,
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
    let in_names = in_names2(ins);
    let recording = access::recording_active();
    let row = |j: isize, views: &[RView2<T>]| {
        let mut acc = identity.clone();
        for i in range.i0..range.i1 {
            let inp = In2 {
                views,
                names: &in_names,
                i,
                j,
                recording,
            };
            acc = combine(acc, kernel(i, j, &inp));
        }
        acc
    };
    reduce2(
        profile,
        name,
        mode,
        range,
        ins,
        identity.clone(),
        flops_per_point,
        row,
        &combine,
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
    let width = (range.i1 - range.i0).max(0) as usize;
    let row = |j: isize, views: &[RView2<T>]| {
        let inp = RowIn2 {
            views,
            i0: range.i0,
            width,
            j,
        };
        kernel(j, identity.clone(), &inp)
    };
    reduce2(
        profile,
        name,
        mode,
        range,
        ins,
        identity.clone(),
        flops_per_point,
        row,
        &combine,
    )
}

/// What the two 2-D reduction drivers share: recording, chunked
/// scheduling, span and profile accounting around `row(j, views) -> R`.
#[allow(clippy::too_many_arguments)]
fn reduce2<T, R, W, C>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    ins: &[&Dat2<T>],
    identity: R,
    flops_per_point: f64,
    row: W,
    combine: &C,
) -> R
where
    T: Copy + Send + Sync,
    R: Clone + Send + Sync,
    W: Fn(isize, &[RView2<T>]) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    let bytes_per_point = ins.len() * std::mem::size_of::<T>();
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        access::begin_loop(
            name,
            2,
            [range.i0, range.i1, range.j0, range.j1, 0, 1],
            Vec::new(),
            ins.iter().map(|d| meta2(d)).collect(),
        );
    }
    let r = rviews2(ins);
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    let result = if range.is_empty() {
        identity.clone()
    } else {
        match mode {
            ExecMode::Serial => {
                let mut acc = identity.clone();
                for j in range.j0..range.j1 {
                    acc = combine(acc, row(j, &r));
                }
                acc
            }
            ExecMode::Rayon => (range.j0..range.j1)
                .into_par_iter()
                .with_min_len(chunk_rows(range.i1 - range.i0))
                .map(|j| row(j, &r))
                .reduce(|| identity.clone(), combine),
        }
    };
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(
        (range.points() * bytes_per_point) as f64,
        range.points() as f64 * flops_per_point,
        range.points() as f64,
    );
    drop(tspan);
    if recording {
        access::end_loop();
    }
    profile.record(
        name,
        range.points(),
        range.points() * bytes_per_point,
        range.points() as f64 * flops_per_point,
        seconds,
    );
    result
}

// ---------------------------------------------------------------------------
// 3-D drivers
// ---------------------------------------------------------------------------

/// Write view over one 3-D dataset; same safety discipline as [`WView2`].
#[derive(Clone, Copy)]
pub(crate) struct WView3<T> {
    ptr: *mut T,
    pitch: usize,
    slab: usize,
    halo: isize,
    len: usize,
}

// SAFETY: same discipline as `WView2` — exclusive `&mut Dat3` borrow for the
// loop's duration, disjoint writes across threads per the driver contract.
unsafe impl<T: Send> Send for WView3<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for WView3<T> {}

impl<T: Copy> WView3<T> {
    /// Is `(i, j, k)` inside the padded allocation? See [`WView2::in_bounds`].
    #[inline]
    fn in_bounds(&self, i: isize, j: isize, k: isize) -> bool {
        let ii = i + self.halo;
        let jj = j + self.halo;
        let kk = k + self.halo;
        ii >= 0
            && (ii as usize) < self.pitch
            && jj >= 0
            && (jj as usize) < self.slab / self.pitch
            && kk >= 0
            && (kk as usize) < self.len / self.slab
    }

    #[inline]
    fn index(&self, i: isize, j: isize, k: isize) -> usize {
        let ii = i + self.halo;
        let jj = j + self.halo;
        let kk = k + self.halo;
        debug_assert!(ii >= 0 && jj >= 0 && kk >= 0);
        let idx = kk as usize * self.slab + jj as usize * self.pitch + ii as usize;
        assert!(
            idx < self.len,
            "write at ({i},{j},{k}) outside dataset storage"
        );
        idx
    }

    #[inline]
    fn write(&self, i: isize, j: isize, k: isize, v: T) {
        let idx = self.index(i, j, k);
        // SAFETY: see WView2::write.
        unsafe { *self.ptr.add(idx) = v }
    }

    #[inline]
    fn read(&self, i: isize, j: isize, k: isize) -> T {
        let idx = self.index(i, j, k);
        // SAFETY: see WView2::read.
        unsafe { *self.ptr.add(idx) }
    }
}

/// Read view over one 3-D dataset.
///
/// Raw-pointer based (like [`RView2`]) so the fused executor can hold a
/// read view and a write view of the *same* field — written by one member
/// loop of a fused group and read (at radius 0) by another — without
/// overlapping references. Every read is bounds-checked.
#[derive(Clone, Copy)]
pub(crate) struct RView3<'a, T> {
    ptr: *const T,
    pitch: usize,
    slab: usize,
    halo: isize,
    len: usize,
    _borrow: std::marker::PhantomData<&'a [T]>,
}

// SAFETY: RView3 is a read-only view; the underlying storage outlives `'a`
// and no concurrent writer touches rows a loop reads (driver contract), so
// it is as thread-safe as `&'a [T]`.
unsafe impl<T: Sync> Send for RView3<'_, T> {}
// SAFETY: as above — shared read-only access.
unsafe impl<T: Sync> Sync for RView3<'_, T> {}

impl<T: Copy> RView3<'_, T> {
    /// See [`WView3::in_bounds`].
    #[inline]
    fn in_bounds(&self, i: isize, j: isize, k: isize) -> bool {
        let ii = i + self.halo;
        let jj = j + self.halo;
        let kk = k + self.halo;
        ii >= 0
            && (ii as usize) < self.pitch
            && jj >= 0
            && (jj as usize) < self.slab / self.pitch
            && kk >= 0
            && (kk as usize) < self.len / self.slab
    }

    #[inline]
    fn read(&self, i: isize, j: isize, k: isize) -> T {
        let ii = i + self.halo;
        let jj = j + self.halo;
        let kk = k + self.halo;
        debug_assert!(ii >= 0 && jj >= 0 && kk >= 0);
        let idx = kk as usize * self.slab + jj as usize * self.pitch + ii as usize;
        assert!(
            idx < self.len,
            "read at ({i},{j},{k}) outside dataset storage"
        );
        // SAFETY: bounds-checked above; the storage outlives `'a` and no
        // concurrent writer touches the rows a loop reads (driver contract).
        unsafe { *self.ptr.add(idx) }
    }
}

/// Raw base of one 3-D field's storage; the 3-D analogue of
/// [`FieldView2`], used by the fused executor.
pub(crate) struct FieldView3<T> {
    ptr: *mut T,
    pitch: usize,
    slab: usize,
    halo: isize,
    len: usize,
}

impl<T: Copy> FieldView3<T> {
    pub(crate) fn capture(d: &mut Dat3<T>) -> Self {
        let g = d.geometry();
        FieldView3 {
            ptr: d.raw_mut().as_mut_ptr(),
            pitch: g.pitch,
            slab: g.slab,
            halo: g.halo as isize,
            len: g.len,
        }
    }

    pub(crate) fn write_view(&self) -> WView3<T> {
        WView3 {
            ptr: self.ptr,
            pitch: self.pitch,
            slab: self.slab,
            halo: self.halo,
            len: self.len,
        }
    }

    pub(crate) fn read_view<'a>(&self) -> RView3<'a, T> {
        RView3 {
            ptr: self.ptr,
            pitch: self.pitch,
            slab: self.slab,
            halo: self.halo,
            len: self.len,
            _borrow: std::marker::PhantomData,
        }
    }
}

/// Output accessor at the current 3-D point.
pub struct Out3<'a, T> {
    views: &'a [WView3<T>],
    names: &'a [String],
    i: isize,
    j: isize,
    k: isize,
    /// See [`Out2`]'s field of the same name.
    recording: bool,
}

impl<T: Copy> Out3<'_, T> {
    #[inline]
    pub fn set(&mut self, f: usize, v: T) {
        debug_assert!(
            self.views[f].in_bounds(self.i, self.j, self.k),
            "output {f} ('{}'): write at point ({},{},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j,
            self.k
        );
        if self.recording {
            access::note_out(f, OutKind::Wrote);
        }
        self.views[f].write(self.i, self.j, self.k, v);
    }

    #[inline]
    pub fn get(&self, f: usize) -> T {
        debug_assert!(
            self.views[f].in_bounds(self.i, self.j, self.k),
            "output {f} ('{}'): read-back at point ({},{},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j,
            self.k
        );
        if self.recording {
            access::note_out(f, OutKind::ReadBack);
        }
        self.views[f].read(self.i, self.j, self.k)
    }
}

/// Input accessor: relative 3-D stencil reads.
pub struct In3<'a, T> {
    views: &'a [RView3<'a, T>],
    names: &'a [String],
    i: isize,
    j: isize,
    k: isize,
    /// See [`Out2`]'s field of the same name.
    recording: bool,
}

impl<T: Copy> In3<'_, T> {
    #[inline]
    pub fn get(&self, f: usize, di: isize, dj: isize, dk: isize) -> T {
        debug_assert!(
            self.views[f].in_bounds(self.i + di, self.j + dj, self.k + dk),
            "input {f} ('{}'): stencil offset ({di},{dj},{dk}) at point ({},{},{}) outside the padded extent",
            self.names.get(f).map_or("?", |s| s.as_str()),
            self.i,
            self.j,
            self.k
        );
        if self.recording {
            access::note_read(f, di, dj, dk);
        }
        self.views[f].read(self.i + di, self.j + dj, self.k + dk)
    }
}

/// Row-slice output accessor for 3-D loops (see [`RowOut2`]): one
/// contiguous `i`-row per `(j, k)` kernel invocation.
pub struct RowOut3<'a, T> {
    views: &'a [WView3<T>],
    i0: isize,
    width: usize,
    j: isize,
    k: isize,
}

impl<'a, T> RowOut3<'a, T> {
    #[inline]
    pub(crate) fn at(views: &'a [WView3<T>], i0: isize, width: usize, j: isize, k: isize) -> Self {
        RowOut3 {
            views,
            i0,
            width,
            j,
            k,
        }
    }
}

impl<T: Copy> RowOut3<'_, T> {
    /// The current `[i0, i1)` row of output dataset `f`.
    #[inline]
    pub fn row(&mut self, f: usize) -> &mut [T] {
        if access::recording_active() {
            access::note_out(f, OutKind::Wrote);
        }
        let v = &self.views[f];
        let base = v.index(self.i0, self.j, self.k);
        assert!(
            base + self.width <= v.len,
            "row at (j={},k={}) overruns dataset storage",
            self.j,
            self.k
        );
        // SAFETY: bounds checked above; rows are disjoint across threads
        // (drivers partition by `k`) and `&mut self` forbids overlapping
        // slices of one dataset.
        unsafe { std::slice::from_raw_parts_mut(v.ptr.add(base), self.width) }
    }

    /// Rows of two distinct output datasets simultaneously.
    #[inline]
    pub fn rows2(&mut self, f0: usize, f1: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(f0, f1, "rows2 requires two distinct output datasets");
        if access::recording_active() {
            access::note_out(f0, OutKind::Wrote);
            access::note_out(f1, OutKind::Wrote);
        }
        let (v0, v1) = (&self.views[f0], &self.views[f1]);
        debug_assert!(
            !std::ptr::eq(v0.ptr, v1.ptr),
            "output datasets must not alias"
        );
        let b0 = v0.index(self.i0, self.j, self.k);
        let b1 = v1.index(self.i0, self.j, self.k);
        assert!(b0 + self.width <= v0.len && b1 + self.width <= v1.len);
        // SAFETY: as in `row`; distinct allocations.
        unsafe {
            (
                std::slice::from_raw_parts_mut(v0.ptr.add(b0), self.width),
                std::slice::from_raw_parts_mut(v1.ptr.add(b1), self.width),
            )
        }
    }

    /// Rows of three distinct output datasets simultaneously.
    #[inline]
    pub fn rows3(&mut self, f0: usize, f1: usize, f2: usize) -> (&mut [T], &mut [T], &mut [T]) {
        assert!(
            f0 != f1 && f0 != f2 && f1 != f2,
            "rows3 requires three distinct output datasets"
        );
        if access::recording_active() {
            access::note_out(f0, OutKind::Wrote);
            access::note_out(f1, OutKind::Wrote);
            access::note_out(f2, OutKind::Wrote);
        }
        let (v0, v1, v2) = (&self.views[f0], &self.views[f1], &self.views[f2]);
        let b0 = v0.index(self.i0, self.j, self.k);
        let b1 = v1.index(self.i0, self.j, self.k);
        let b2 = v2.index(self.i0, self.j, self.k);
        assert!(
            b0 + self.width <= v0.len && b1 + self.width <= v1.len && b2 + self.width <= v2.len
        );
        // SAFETY: as in `row`; distinct allocations.
        unsafe {
            (
                std::slice::from_raw_parts_mut(v0.ptr.add(b0), self.width),
                std::slice::from_raw_parts_mut(v1.ptr.add(b1), self.width),
                std::slice::from_raw_parts_mut(v2.ptr.add(b2), self.width),
            )
        }
    }
}

/// Row-slice input accessor for 3-D loops.
pub struct RowIn3<'a, T> {
    views: &'a [RView3<'a, T>],
    i0: isize,
    width: usize,
    j: isize,
    k: isize,
}

impl<'a, T> RowIn3<'a, T> {
    #[inline]
    pub(crate) fn at(
        views: &'a [RView3<'a, T>],
        i0: isize,
        width: usize,
        j: isize,
        k: isize,
    ) -> Self {
        RowIn3 {
            views,
            i0,
            width,
            j,
            k,
        }
    }
}

impl<'a, T: Copy> RowIn3<'a, T> {
    /// The current row of input dataset `f`.
    #[inline]
    pub fn row(&self, f: usize) -> &'a [T] {
        self.row_off(f, 0, 0, 0)
    }

    /// The row of input dataset `f` at stencil offset `(di, dj, dk)`:
    /// element `x` is the value at `(i0 + di + x, j + dj, k + dk)`.
    #[inline]
    pub fn row_off(&self, f: usize, di: isize, dj: isize, dk: isize) -> &'a [T] {
        // One note covers the whole row (see `RowIn2::row_off`).
        if access::recording_active() {
            access::note_read(f, di, dj, dk);
        }
        let v = &self.views[f];
        let ii = self.i0 + di + v.halo;
        let jj = self.j + dj + v.halo;
        let kk = self.k + dk + v.halo;
        debug_assert!(ii >= 0 && jj >= 0 && kk >= 0);
        let base = kk as usize * v.slab + jj as usize * v.pitch + ii as usize;
        assert!(
            base + self.width <= v.len,
            "row read at offset ({di},{dj},{dk}) overruns dataset storage"
        );
        // SAFETY: bounds-checked above; shared access for `'a` (see RView3).
        unsafe { std::slice::from_raw_parts(v.ptr.add(base), self.width) }
    }
}

fn meta3<T: Copy>(d: &Dat3<T>) -> access::ArgMeta {
    access::ArgMeta {
        name: d.name().to_string(),
        halo: d.halo() as isize,
        extent: (d.nx(), d.ny(), d.nz()),
        elem_bytes: std::mem::size_of::<T>(),
    }
}

fn out_names3<T: Copy>(outs: &[&mut Dat3<T>]) -> Vec<String> {
    outs.iter().map(|d| d.name().to_string()).collect()
}

fn in_names3<T: Copy>(ins: &[&Dat3<T>]) -> Vec<String> {
    ins.iter().map(|d| d.name().to_string()).collect()
}

fn wviews3<T: Copy>(outs: &mut [&mut Dat3<T>]) -> Vec<WView3<T>> {
    outs.iter_mut()
        .map(|d| {
            let g = d.geometry();
            WView3 {
                ptr: d.raw_mut().as_mut_ptr(),
                pitch: g.pitch,
                slab: g.slab,
                halo: g.halo as isize,
                len: g.len,
            }
        })
        .collect()
}

pub(crate) fn rviews3<'a, T: Copy>(ins: &'a [&'a Dat3<T>]) -> Vec<RView3<'a, T>> {
    ins.iter()
        .map(|d| {
            let data = d.raw();
            RView3 {
                ptr: data.as_ptr(),
                pitch: d.pitch(),
                slab: d.slab(),
                halo: d.halo() as isize,
                len: data.len(),
                _borrow: std::marker::PhantomData,
            }
        })
        .collect()
}

/// Planes per scheduling chunk for a 3-D loop over an
/// `(i1 - i0) × (j1 - j0)`-point plane (see [`chunk_rows`]).
pub(crate) fn chunk_planes(width: isize, height: isize) -> usize {
    let plane_points = (width.max(1) as usize) * (height.max(1) as usize);
    (CHUNK_POINTS / plane_points).clamp(1, 512)
}

/// Execute a 3-D stencil loop (parallelized over `k` in Rayon mode,
/// in chunks of [`chunk_planes`] planes).
#[allow(clippy::too_many_arguments)]
pub fn par_loop3<T, F>(
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
    F: Fn(isize, isize, isize, &mut Out3<T>, &In3<T>) + Sync,
{
    let bytes_per_point = (outs.len() + ins.len()) * std::mem::size_of::<T>();
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        access::begin_loop(
            name,
            3,
            [range.i0, range.i1, range.j0, range.j1, range.k0, range.k1],
            outs.iter().map(|d| meta3(d)).collect(),
            ins.iter().map(|d| meta3(d)).collect(),
        );
    }
    let seconds = if range.is_empty() {
        0.0
    } else {
        let out_names = out_names3(outs);
        let in_names = in_names3(ins);
        let w = wviews3(outs);
        let r = rviews3(ins);
        let plane = |k: isize| {
            for j in range.j0..range.j1 {
                for i in range.i0..range.i1 {
                    let mut out = Out3 {
                        views: &w,
                        names: &out_names,
                        i,
                        j,
                        k,
                        recording,
                    };
                    let inp = In3 {
                        views: &r,
                        names: &in_names,
                        i,
                        j,
                        k,
                        recording,
                    };
                    kernel(i, j, k, &mut out, &inp);
                }
            }
        };
        let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
        let t0 = Instant::now();
        match mode {
            ExecMode::Serial => (range.k0..range.k1).for_each(plane),
            ExecMode::Rayon => (range.k0..range.k1)
                .into_par_iter()
                .with_min_len(chunk_planes(range.i1 - range.i0, range.j1 - range.j0))
                .for_each(plane),
        }
        let seconds = t0.elapsed().as_secs_f64();
        tspan.set_args(
            (range.points() * bytes_per_point) as f64,
            range.points() as f64 * flops_per_point,
            range.points() as f64,
        );
        seconds
    };
    if recording {
        access::end_loop();
    }
    profile.record(
        name,
        range.points(),
        range.points() * bytes_per_point,
        range.points() as f64 * flops_per_point,
        seconds,
    );
}

/// Plane/row fast path for 3-D loops: the kernel is invoked once per
/// `(j, k)` pair and hands out contiguous `i`-row slices via
/// [`RowOut3`]/[`RowIn3`], exactly as [`par_loop2_rows`] does in 2-D.
/// Parallel mode partitions over `k`-planes; byte/FLOP accounting is
/// identical to [`par_loop3`].
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
    let bytes_per_point = (outs.len() + ins.len()) * std::mem::size_of::<T>();
    let width = (range.i1 - range.i0).max(0) as usize;
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        access::begin_loop(
            name,
            3,
            [range.i0, range.i1, range.j0, range.j1, range.k0, range.k1],
            outs.iter().map(|d| meta3(d)).collect(),
            ins.iter().map(|d| meta3(d)).collect(),
        );
    }
    let seconds = if range.is_empty() {
        0.0
    } else {
        let w = wviews3(outs);
        let r = rviews3(ins);
        let plane = |k: isize| {
            for j in range.j0..range.j1 {
                let mut out = RowOut3 {
                    views: &w,
                    i0: range.i0,
                    width,
                    j,
                    k,
                };
                let inp = RowIn3 {
                    views: &r,
                    i0: range.i0,
                    width,
                    j,
                    k,
                };
                kernel(j, k, &mut out, &inp);
            }
        };
        let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
        let t0 = Instant::now();
        match mode {
            ExecMode::Serial => (range.k0..range.k1).for_each(plane),
            ExecMode::Rayon => (range.k0..range.k1)
                .into_par_iter()
                .with_min_len(chunk_planes(range.i1 - range.i0, range.j1 - range.j0))
                .for_each(plane),
        }
        let seconds = t0.elapsed().as_secs_f64();
        tspan.set_args(
            (range.points() * bytes_per_point) as f64,
            range.points() as f64 * flops_per_point,
            range.points() as f64,
        );
        seconds
    };
    if recording {
        access::end_loop();
    }
    profile.record(
        name,
        range.points(),
        range.points() * bytes_per_point,
        range.points() as f64 * flops_per_point,
        seconds,
    );
}

/// 3-D reduction loop.
#[allow(clippy::too_many_arguments)]
pub fn par_loop3_reduce<T, R, F, C>(
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
    F: Fn(isize, isize, isize, &In3<T>) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    let in_names = in_names3(ins);
    let recording = access::recording_active();
    let plane = |k: isize, views: &[RView3<T>]| {
        let mut acc = identity.clone();
        for j in range.j0..range.j1 {
            for i in range.i0..range.i1 {
                let inp = In3 {
                    views,
                    names: &in_names,
                    i,
                    j,
                    k,
                    recording,
                };
                acc = combine(acc, kernel(i, j, k, &inp));
            }
        }
        acc
    };
    reduce3(
        profile,
        name,
        mode,
        range,
        ins,
        identity.clone(),
        flops_per_point,
        plane,
        &combine,
    )
}

/// 3-D reduction on the plane/row fast path: `kernel(j, k, acc, row)`
/// folds the contiguous `i`-row at `(j, k)` into the accumulator it is
/// handed. One accumulator runs through all rows of a plane in ascending
/// `j`, and planes are combined as in [`par_loop3_reduce`], so a kernel
/// that folds its row left to right reproduces that driver bit for bit.
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
    let width = (range.i1 - range.i0).max(0) as usize;
    let plane = |k: isize, views: &[RView3<T>]| {
        let mut acc = identity.clone();
        for j in range.j0..range.j1 {
            let inp = RowIn3 {
                views,
                i0: range.i0,
                width,
                j,
                k,
            };
            acc = kernel(j, k, acc, &inp);
        }
        acc
    };
    reduce3(
        profile,
        name,
        mode,
        range,
        ins,
        identity.clone(),
        flops_per_point,
        plane,
        &combine,
    )
}

/// What the two 3-D reduction drivers share (see [`reduce2`]), around
/// `plane(k, views) -> R`.
#[allow(clippy::too_many_arguments)]
fn reduce3<T, R, W, C>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range3,
    ins: &[&Dat3<T>],
    identity: R,
    flops_per_point: f64,
    plane: W,
    combine: &C,
) -> R
where
    T: Copy + Send + Sync,
    R: Clone + Send + Sync,
    W: Fn(isize, &[RView3<T>]) -> R + Sync,
    C: Fn(R, R) -> R + Sync + Send,
{
    let bytes_per_point = ins.len() * std::mem::size_of::<T>();
    let recording = access::recording_active();
    let mode = if recording { ExecMode::Serial } else { mode };
    if recording {
        access::begin_loop(
            name,
            3,
            [range.i0, range.i1, range.j0, range.j1, range.k0, range.k1],
            Vec::new(),
            ins.iter().map(|d| meta3(d)).collect(),
        );
    }
    let r = rviews3(ins);
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    let result = if range.is_empty() {
        identity.clone()
    } else {
        match mode {
            ExecMode::Serial => {
                let mut acc = identity.clone();
                for k in range.k0..range.k1 {
                    acc = combine(acc, plane(k, &r));
                }
                acc
            }
            ExecMode::Rayon => (range.k0..range.k1)
                .into_par_iter()
                .with_min_len(chunk_planes(range.i1 - range.i0, range.j1 - range.j0))
                .map(|k| plane(k, &r))
                .reduce(|| identity.clone(), combine),
        }
    };
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(
        (range.points() * bytes_per_point) as f64,
        range.points() as f64 * flops_per_point,
        range.points() as f64,
    );
    drop(tspan);
    if recording {
        access::end_loop();
    }
    profile.record(
        name,
        range.points(),
        range.points() * bytes_per_point,
        range.points() as f64 * flops_per_point,
        seconds,
    );
    result
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
            par_loop3(
                &mut prof,
                "lap3",
                mode,
                Range3::interior(12, 10, 8),
                &mut [&mut dst],
                &[&src],
                7.0,
                |_i, _j, _k, out, ins| {
                    out.set(
                        0,
                        ins.get(0, -1, 0, 0)
                            + ins.get(0, 1, 0, 0)
                            + ins.get(0, 0, -1, 0)
                            + ins.get(0, 0, 1, 0)
                            + ins.get(0, 0, 0, -1)
                            + ins.get(0, 0, 0, 1)
                            - 6.0 * ins.get(0, 0, 0, 0),
                    );
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
        let n = par_loop3_reduce(
            &mut prof,
            "count",
            ExecMode::Rayon,
            Range3::interior(5, 6, 7),
            &[&src],
            0u64,
            0.0,
            |_i, _j, _k, _ins| 1u64,
            |a, b| a + b,
        );
        assert_eq!(n, 210);
    }
}
