//! Direct and indirect parallel loops over unstructured sets.
//!
//! * [`par_loop_direct`] — every element writes only its own entries;
//!   trivially parallel. [`sweep_direct`] is the same sweep with no
//!   accounting, for set-up passes and transfer operators.
//! * [`par_loop_colored`] — elements make *indirect* increments through
//!   maps; parallel execution proceeds color class by color class using a
//!   [`Coloring`] whose conflict-freedom guarantees race-freedom (OP2's
//!   OpenMP scheme).
//! * [`par_loop_block_colored`] — the same increments scheduled by a
//!   [`BlockColoring`] of contiguous element blocks (OP2's hierarchical
//!   plan). [`par_loop_block_colored_staged`] adds a per-block staging
//!   step, so indirect data several elements share is derived once per
//!   block; the unstaged driver is it with nothing staged.
//! * [`par_loop_gather`] — the "MPI vec" execution shape: elements are
//!   processed in fixed-width lanes with explicit gather/scatter staging
//!   buffers, and the extra staged bytes are recorded so the performance
//!   model can price the pack/unpack overhead the paper describes in §6.
//!
//! # The accessor contract
//!
//! A kernel reaches its outputs only through the accessor its driver hands
//! it ([`UOut`], or [`UStage`] for the gather shape), which holds one
//! `(ptr, dim, len)` view per output *by value*. Every access is one bounds
//! check and one load or store; when the loop is not recorded, no accessor
//! method reaches a function call. Serial loops, blocks and the chunks of a
//! threaded direct loop run in one out-of-line element loop, the kernel's
//! only call site there, so the kernel is inlined into a loop that makes
//! no call and keeps the views and its own state in registers.
//!
//! A recorded loop ([`crate::access::with_recording_u`]) runs serially in
//! element order. Each access then appends one note to a fixed-capacity
//! per-element log ([`NOTE_LOG_CAP`] notes) without a call, and the
//! recording loop alone hands the log to the recorder after each element.
//! An element that makes more notes than the log holds is refused with a
//! panic naming the loop: a recording is never silently truncated.

use crate::access::{self, UKind, UScheduleObs};
use crate::color::{BlockColoring, Coloring};
use crate::set::DatU;
use bwb_ops::Profile;
use rayon::prelude::*;
use std::cell::{Cell, RefCell};
use std::ops::{Add, Range};
use std::time::Instant;

/// Unstructured execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecModeU {
    /// Sequential over elements (pure MPI per-rank execution).
    Serial,
    /// Thread-parallel within each color class (the OpenMP backend).
    Colored,
}

/// Write view over one unstructured dataset.
///
/// Safety discipline mirrors `bwb-ops`: constructed by the drivers from
/// `&mut DatU` (exclusive for the loop's duration); parallel disjointness is
/// guaranteed by the coloring contract (no two same-color elements share an
/// indirect target) or by direct loops writing only their own element.
#[derive(Clone, Copy)]
struct WViewU<T> {
    ptr: *mut T,
    dim: usize,
    len: usize,
}

// SAFETY: the view is a raw base + extent over a `DatU` exclusively borrowed
// by the driver for the loop's duration. Threads share it only inside a
// parallel schedule, where each builds its own accessor from it, and the
// coloring / own-element contracts (type docs) keep their element writes
// disjoint. The threaded runs of `colored_indirect_increment_matches_serial`,
// `block_colored_indirect_increment_matches_serial` and
// `drivers_match_serial_at_edge_sizes` exercise this.
unsafe impl<T: Send> Sync for WViewU<T> {}

impl<T: Copy> WViewU<T> {
    #[inline(always)]
    fn index(&self, e: usize, c: usize) -> usize {
        debug_assert!(c < self.dim);
        let idx = e * self.dim + c;
        assert!(
            idx < self.len,
            "write at element {e} comp {c} outside dataset"
        );
        idx
    }

    #[inline(always)]
    fn write(&self, e: usize, c: usize, v: T) {
        let idx = self.index(e, c);
        // SAFETY: `idx < len` by `index`'s assert (the refusal is
        // `element_access_refuses_an_element_outside_the_dataset`);
        // disjointness per the driver contract.
        unsafe { *self.ptr.add(idx) = v }
    }

    #[inline(always)]
    fn read(&self, e: usize, c: usize) -> T {
        let idx = self.index(e, c);
        // SAFETY: as in `write`, with the same test.
        unsafe { *self.ptr.add(idx) }
    }

    /// Element `e` as one row of `D` components, after a single assert that
    /// `D` is the view's `dim` and that the row lies inside the dataset.
    #[inline(always)]
    fn row<const D: usize>(&self, e: usize) -> *mut [T; D] {
        // `D == dim` is checked first, so the division sees a zero `D` only
        // for a dataset of zero width, and panics there.
        assert!(
            D == self.dim && e < self.len / D,
            "row of {D} at element {e} does not fit a dataset of dim {}",
            self.dim
        );
        // `(e + 1) * D <= len` by the assert, so the offset stays inside the
        // allocation (`wrapping_add` keeps the pointer arithmetic safe).
        self.ptr.wrapping_add(e * D).cast::<[T; D]>()
    }

    #[inline(always)]
    fn read_row<const D: usize>(&self, e: usize) -> [T; D] {
        let p = self.row::<D>(e);
        // SAFETY: `row` asserted that the row lies inside the dataset (the
        // refusals are `row_access_refuses_a_row_that_does_not_fit`), and
        // `[T; D]` has `T`'s alignment; disjointness per the driver contract.
        unsafe { *p }
    }

    #[inline(always)]
    fn write_row<const D: usize>(&self, e: usize, row: [T; D]) {
        let p = self.row::<D>(e);
        // SAFETY: as in `read_row`, with the same test.
        unsafe { *p = row }
    }
}

fn uviews<T: Copy, const N: usize>(outs: &mut [&mut DatU<T>; N]) -> [WViewU<T>; N] {
    outs.each_mut().map(|d| WViewU {
        len: d.raw().len(),
        dim: d.dim,
        ptr: d.raw_mut().as_mut_ptr(),
    })
}

/// How many output accesses one element may make while its loop is
/// recorded: the capacity of the per-element note log.
pub const NOTE_LOG_CAP: usize = 64;

/// One output access of a recorded element, held until the element ends.
#[derive(Clone, Copy)]
struct Note {
    f: usize,
    target: usize,
    kind: UKind,
}

/// The notes of the element a recorded loop is running. Accessors append
/// to it through [`note`], without a call; [`NoteLog::end_element`] hands
/// the notes to the recorder.
struct NoteLog {
    notes: [Cell<Note>; NOTE_LOG_CAP],
    /// Notes made by the current element, counted past the capacity so
    /// that an overflow is refused rather than truncated.
    len: Cell<usize>,
}

impl NoteLog {
    fn new() -> Self {
        let blank = Note {
            f: 0,
            target: 0,
            kind: UKind::Get,
        };
        NoteLog {
            notes: std::array::from_fn(|_| Cell::new(blank)),
            len: Cell::new(0),
        }
    }

    /// Record the notes element `e` of loop `name` made, and empty the log.
    fn end_element(&self, name: &str, e: usize) {
        let n = self.len.replace(0);
        assert!(
            n <= NOTE_LOG_CAP,
            "loop `{name}`: element {e} made {n} output accesses, more than the \
             {NOTE_LOG_CAP} a recorded element may make"
        );
        access::set_current(e);
        for note in &self.notes[..n] {
            let Note { f, target, kind } = note.get();
            access::note_access(f, target, kind);
        }
    }
}

/// Appends one note to `log` when the loop is recorded (`log` is `Some`),
/// without a call either way.
#[inline(always)]
fn note(log: Option<&NoteLog>, f: usize, target: usize, kind: UKind) {
    if let Some(log) = log {
        let n = log.len.get();
        if let Some(slot) = log.notes.get(n) {
            slot.set(Note { f, target, kind });
        }
        log.len.set(n + 1);
    }
}

/// Runs `kernel(e, out)` for each `e` of `range` in order. Under a note log
/// (a recorded loop) it runs one element at a time and records each
/// element's notes after it.
fn run_range<A, K: Fn(usize, &A)>(
    name: &str,
    range: Range<usize>,
    log: Option<&NoteLog>,
    out: &A,
    kernel: &K,
) {
    match log {
        None => run_elements(range, out, kernel),
        Some(log) => {
            for e in range {
                run_elements(e..e + 1, out, kernel);
                log.end_element(name, e);
            }
        }
    }
}

/// The element loop of every serial run, every block and every chunk of a
/// threaded direct loop. Kept out of line so that it is the kernel's one
/// call site there: the kernel is inlined into a loop that makes no call
/// of its own, and the accessor's fields, behind a shared reference no
/// store can reach, stay in registers.
#[inline(never)]
fn run_elements<A, K: Fn(usize, &A)>(range: Range<usize>, out: &A, kernel: &K) {
    for e in range {
        kernel(e, out);
    }
}

/// Kernel accessor over the `N` output datasets. Unlike the structured case
/// the element index is explicit, because indirect loops write *mapped*
/// targets.
///
/// Two widths of access: `get`/`set`/`add` touch one component `c`, and
/// `get_row`/`set_row`/`add_row` a whole element of a dataset whose `dim`
/// the kernel fixes at compile time — one bounds check and one recorded
/// access per row instead of one per component. Outside a recorded loop no
/// method makes a call (module docs).
pub struct UOut<'a, T, const N: usize> {
    views: [WViewU<T>; N],
    /// `Some` only in a recorded loop, which runs serially.
    log: Option<&'a NoteLog>,
}

impl<T: Copy, const N: usize> UOut<'_, T, N> {
    /// Overwrite component `c` of element `e` of output dataset `f`.
    #[inline(always)]
    pub fn set(&self, f: usize, e: usize, c: usize, v: T) {
        note(self.log, f, e, UKind::Set);
        self.views[f].write(e, c, v);
    }

    /// Read back (for read-modify-write of owned targets).
    #[inline(always)]
    pub fn get(&self, f: usize, e: usize, c: usize) -> T {
        note(self.log, f, e, UKind::Get);
        self.views[f].read(e, c)
    }

    /// Overwrite every component of element `e` of output dataset `f`,
    /// whose `dim` must be `D`.
    #[inline(always)]
    pub fn set_row<const D: usize>(&self, f: usize, e: usize, row: [T; D]) {
        note(self.log, f, e, UKind::Set);
        self.views[f].write_row(e, row);
    }

    /// Read back every component of element `e` of output dataset `f`,
    /// whose `dim` must be `D`.
    #[inline(always)]
    pub fn get_row<const D: usize>(&self, f: usize, e: usize) -> [T; D] {
        note(self.log, f, e, UKind::Get);
        self.views[f].read_row(e)
    }
}

impl<T: Copy + Add<Output = T>, const N: usize> UOut<'_, T, N> {
    /// Increment — the canonical OP2 indirect access (`OP_INC`).
    #[inline(always)]
    pub fn add(&self, f: usize, e: usize, c: usize, v: T) {
        note(self.log, f, e, UKind::Inc);
        let view = &self.views[f];
        view.write(e, c, view.read(e, c) + v);
    }

    /// Increment every component of element `e` of output dataset `f`, whose
    /// `dim` must be `D`, by `row`, in component order: [`UOut::add`] for a
    /// whole row.
    #[inline(always)]
    pub fn add_row<const D: usize>(&self, f: usize, e: usize, row: [T; D]) {
        note(self.log, f, e, UKind::Inc);
        let view = &self.views[f];
        let cur = view.read_row::<D>(e);
        view.write_row::<D>(e, std::array::from_fn(|c| cur[c] + row[c]));
    }
}

/// Times `run` as loop `name` over `set_size` elements, then accounts it —
/// `bytes` and `flops` in all — in `profile` and the trace. When this
/// thread is recording, the loop is recorded under `schedule()` and `run`
/// receives the note log; it must then run every element serially, in
/// ascending order.
#[allow(clippy::too_many_arguments)]
fn accounted<T: Copy, const N: usize>(
    profile: &mut Profile,
    name: &str,
    set_size: usize,
    outs: &mut [&mut DatU<T>; N],
    bytes: usize,
    flops: f64,
    schedule: impl FnOnce() -> UScheduleObs,
    run: impl FnOnce([WViewU<T>; N], Option<&NoteLog>),
) {
    let log = access::recording_active_u().then(|| {
        let names = outs.iter().map(|d| d.name.clone()).collect();
        access::begin_uloop(name, set_size, names, schedule());
        NoteLog::new()
    });
    let views = uviews(outs);
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    run(views, log.as_ref());
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(bytes as f64, flops, set_size as f64);
    drop(tspan);
    if log.is_some() {
        access::end_uloop();
    }
    profile.record(name, set_size, bytes, flops, seconds);
}

/// The element sweep of a direct loop, shared by [`par_loop_direct`] and
/// [`sweep_direct`].
fn run_direct<T, F, const N: usize>(
    name: &str,
    mode: ExecModeU,
    set_size: usize,
    views: [WViewU<T>; N],
    log: Option<&NoteLog>,
    kernel: &F,
) where
    T: Copy + Send,
    F: Fn(usize, &UOut<T, N>) + Sync,
{
    match (mode, log) {
        (ExecModeU::Colored, None) => {
            // Contiguous chunks, a few per thread, each one `run_elements`
            // call: the kernel keeps its one call site.
            let chunk = set_size.div_ceil(4 * rayon::current_num_threads()).max(1);
            (0..set_size.div_ceil(chunk)).into_par_iter().for_each(|c| {
                let lo = c * chunk;
                let out = UOut { views, log: None };
                run_elements(lo..(lo + chunk).min(set_size), &out, kernel);
            })
        }
        _ => run_range(name, 0..set_size, log, &UOut { views, log }, kernel),
    }
}

/// A direct loop with no accounting: `kernel(e, out)` may write only
/// element `e` of each output, and nothing is recorded — no [`Profile`]
/// entry, no trace span, and the access recorder does not see it. For mesh
/// set-up passes and for transfer operators that keep their own account.
pub fn sweep_direct<T, F, const N: usize>(
    mode: ExecModeU,
    set_size: usize,
    outs: &mut [&mut DatU<T>; N],
    kernel: F,
) where
    T: Copy + Send,
    F: Fn(usize, &UOut<T, N>) + Sync,
{
    run_direct("sweep_direct", mode, set_size, uviews(outs), None, &kernel);
}

/// Direct loop: `kernel(e, out)` may write only element `e` of each output.
#[allow(clippy::too_many_arguments)]
pub fn par_loop_direct<T, F, const N: usize>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    set_size: usize,
    outs: &mut [&mut DatU<T>; N],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send,
    F: Fn(usize, &UOut<T, N>) + Sync,
{
    accounted(
        profile,
        name,
        set_size,
        outs,
        set_size * bytes_per_elem,
        set_size as f64 * flops_per_elem,
        || UScheduleObs::Direct,
        |views, log| run_direct(name, mode, set_size, views, log, &kernel),
    );
}

/// Indirect loop: `kernel(e, out)` may increment mapped targets; the
/// `coloring` must be conflict-free for every map the kernel writes through
/// (build it with [`Coloring::greedy`] over those maps).
#[allow(clippy::too_many_arguments)]
pub fn par_loop_colored<T, F, const N: usize>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    coloring: &Coloring,
    outs: &mut [&mut DatU<T>; N],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send,
    F: Fn(usize, &UOut<T, N>) + Sync,
{
    let set_size = coloring.colors.len();
    let schedule = || UScheduleObs::Colored {
        block_size: 1,
        block_colors: coloring.colors.clone(),
        n_colors: coloring.n_colors,
    };
    accounted(
        profile,
        name,
        set_size,
        outs,
        set_size * bytes_per_elem,
        set_size as f64 * flops_per_elem,
        schedule,
        |views, log| match (mode, log) {
            (ExecModeU::Colored, None) => {
                for (color, class) in coloring.by_color.iter().enumerate() {
                    let mut cspan = bwb_trace::span(bwb_trace::Cat::Color, "color_round");
                    cspan.set_args(color as f64, class.len() as f64, 0.0);
                    class
                        .par_iter()
                        .for_each(|&e| kernel(e as usize, &UOut { views, log: None }));
                }
            }
            // Sequential: element order, ignoring colors (no races possible).
            _ => run_range(name, 0..set_size, log, &UOut { views, log }, &kernel),
        },
    );
}

/// Indirect loop executed at *block* granularity: within each block color
/// the blocks run in parallel, and each block's elements run sequentially
/// in ascending order. One parallel region (and barrier) per block color —
/// typically far fewer than the element-granularity schedule needs — and
/// each task touches consecutive elements, restoring gather locality.
///
/// The `coloring` must be conflict-free for every map the kernel writes
/// through (build it with [`BlockColoring::greedy`] over those maps).
#[allow(clippy::too_many_arguments)]
pub fn par_loop_block_colored<T, F, const N: usize>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    coloring: &BlockColoring,
    outs: &mut [&mut DatU<T>; N],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send,
    F: Fn(usize, &UOut<T, N>) + Sync,
{
    par_loop_block_colored_staged(
        profile,
        name,
        mode,
        coloring,
        outs,
        bytes_per_elem,
        flops_per_elem,
        |_| (),
        |(), e, out| kernel(e, out),
    );
}

/// [`par_loop_block_colored`] with a per-block staging step, OP2's
/// hierarchical plan: `stage(range)` runs once per block, before that
/// block's elements, and `kernel(&staged, e, out)` then runs for each
/// element `e` of `range`. What the kernel would otherwise derive once per
/// element from shared indirect data (an edge loop re-deriving both end
/// nodes' state) is derived once per block instead. `stage` may only read;
/// writes go through the kernel's `UOut` as usual.
///
/// Serial mode walks the blocks in index order, so elements still run in
/// ascending order; a recording sees the same loop, schedule and accesses
/// as [`par_loop_block_colored`].
#[allow(clippy::too_many_arguments)]
pub fn par_loop_block_colored_staged<T, S, G, F, const N: usize>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    coloring: &BlockColoring,
    outs: &mut [&mut DatU<T>; N],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    stage: G,
    kernel: F,
) where
    T: Copy + Send,
    G: Fn(Range<usize>) -> S + Sync,
    F: Fn(&S, usize, &UOut<T, N>) + Sync,
{
    let set_size = coloring.set_size;
    let schedule = || UScheduleObs::Colored {
        block_size: coloring.block_size,
        block_colors: coloring.block_colors.clone(),
        n_colors: coloring.n_colors,
    };
    accounted(
        profile,
        name,
        set_size,
        outs,
        set_size * bytes_per_elem,
        set_size as f64 * flops_per_elem,
        schedule,
        |views, log| {
            let run_block = |b: usize, log: Option<&NoteLog>| {
                let range = coloring.block_range(b);
                let staged = stage(range.clone());
                let out = UOut { views, log };
                run_range(name, range, log, &out, &|e, out: &UOut<T, N>| {
                    kernel(&staged, e, out)
                });
            };
            match (mode, log) {
                (ExecModeU::Colored, None) => {
                    for (color, class) in coloring.by_color.iter().enumerate() {
                        let mut cspan = bwb_trace::span(bwb_trace::Cat::Color, "color_round");
                        // Elements, not blocks: the per-round work actually executed.
                        let elems: usize = class
                            .iter()
                            .map(|&b| coloring.block_range(b as usize).len())
                            .sum();
                        cspan.set_args(color as f64, elems as f64, 0.0);
                        class.par_iter().for_each(|&b| run_block(b as usize, None));
                    }
                }
                _ => (0..coloring.n_blocks()).for_each(|b| run_block(b, log)),
            }
        },
    );
}

/// One staged indirect write of the gather/scatter shape.
#[derive(Clone, Copy)]
struct StagedWrite<T> {
    f: u32,
    e: u32,
    c: u32,
    v: T,
    /// `true` for increments (`OP_INC`), `false` for overwrites.
    inc: bool,
}

/// Reusable pack/unpack staging for [`par_loop_gather`].
///
/// OP2's vectorized generated code stages indirect operands through
/// per-thread scratch buffers that live across loop invocations; holding a
/// `GatherScratch` at the call site and passing it to every invocation
/// mirrors that — the scatter buffer is allocated once and reused across
/// lane batches *and* across calls, instead of a fresh `Vec` each time.
#[derive(Default)]
pub struct GatherScratch<T> {
    staged: Vec<StagedWrite<T>>,
}

impl<T> GatherScratch<T> {
    pub fn new() -> Self {
        GatherScratch { staged: Vec::new() }
    }
}

/// Kernel accessor for the gather/scatter shape: indirect writes are staged
/// into the scatter buffer and applied in element order when the lane batch
/// completes, like OP2's pack/unpack code. `get` reads the pre-batch value
/// (kernels of the vec shape do not read targets they increment — the
/// standard `OP_INC` contract). Accesses are noted as [`UOut`]'s are.
pub struct UStage<'a, T, const N: usize> {
    views: [WViewU<T>; N],
    staged: &'a RefCell<Vec<StagedWrite<T>>>,
    /// `Some` only in a recorded loop.
    log: Option<&'a NoteLog>,
}

impl<T: Copy, const N: usize> UStage<'_, T, N> {
    #[inline(always)]
    fn stage(&self, f: usize, e: usize, c: usize, v: T, kind: UKind) {
        note(self.log, f, e, kind);
        self.staged.borrow_mut().push(StagedWrite {
            f: f as u32,
            e: e as u32,
            c: c as u32,
            v,
            inc: kind == UKind::Inc,
        });
    }

    /// Stage an overwrite of component `c` of element `e` of dataset `f`.
    #[inline(always)]
    pub fn set(&self, f: usize, e: usize, c: usize, v: T) {
        self.stage(f, e, c, v, UKind::Set);
    }

    /// Stage an increment — the canonical OP2 indirect access (`OP_INC`).
    #[inline(always)]
    pub fn add(&self, f: usize, e: usize, c: usize, v: T) {
        self.stage(f, e, c, v, UKind::Inc);
    }

    /// Read the pre-batch value (staged writes of this batch are invisible).
    #[inline(always)]
    pub fn get(&self, f: usize, e: usize, c: usize) -> T {
        note(self.log, f, e, UKind::Get);
        self.views[f].read(e, c)
    }
}

/// Gather/scatter ("MPI vec") loop shape: elements are processed serially in
/// lanes of `lanes`, with indirect writes staged through the reusable
/// scatter buffer in `scratch` and applied in element order at the end of
/// each batch. Functionally identical to a serial loop for the vec-shape
/// access contract (indirect targets written by increments, not read in the
/// same batch); the staged bytes (`indirect_bytes_per_elem × set_size`,
/// both directions) are added to the loop's byte account, which is how the
/// pack/unpack overhead of the paper's vectorized implementation enters the
/// performance model.
#[allow(clippy::too_many_arguments)]
pub fn par_loop_gather<T, F, const N: usize>(
    profile: &mut Profile,
    name: &str,
    lanes: usize,
    set_size: usize,
    outs: &mut [&mut DatU<T>; N],
    scratch: &mut GatherScratch<T>,
    bytes_per_elem: usize,
    indirect_bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Add<Output = T>,
    F: Fn(usize, &UStage<T, N>),
{
    assert!(lanes >= 1);
    accounted(
        profile,
        name,
        set_size,
        outs,
        set_size * (bytes_per_elem + 2 * indirect_bytes_per_elem),
        set_size as f64 * flops_per_elem,
        || UScheduleObs::Gather,
        |views, log| {
            let staged = RefCell::new(std::mem::take(&mut scratch.staged));
            let out = UStage {
                views,
                staged: &staged,
                log,
            };
            for e in (0..set_size).step_by(lanes) {
                let batch = e..(e + lanes).min(set_size);
                // "Gather"/compute: kernels read operands and stage their
                // indirect writes into the scatter buffer.
                {
                    let _g = bwb_trace::span(bwb_trace::Cat::Other, "gather_batch");
                    run_range(name, batch, log, &out, &kernel);
                }
                // "Scatter": apply the batch in element order (drain keeps
                // the buffer's capacity for the next batch).
                let _s = bwb_trace::span(bwb_trace::Cat::Other, "scatter_batch");
                for w in staged.borrow_mut().drain(..) {
                    let view = &views[w.f as usize];
                    let v = if w.inc {
                        view.read(w.e as usize, w.c as usize) + w.v
                    } else {
                        w.v
                    };
                    view.write(w.e as usize, w.c as usize, v);
                }
            }
            scratch.staged = staged.into_inner();
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::ULoopObs;
    use crate::set::{Map, Set};

    fn ring_mesh(n: usize) -> (Set, Set, Map) {
        let nodes = Set::new("nodes", n);
        let edges = Set::new("edges", n);
        let idx: Vec<u32> = (0..n)
            .flat_map(|e| [e as u32, ((e + 1) % n) as u32])
            .collect();
        let map = Map::new("e2n", &edges, &nodes, 2, idx);
        (nodes, edges, map)
    }

    #[test]
    fn direct_loop_writes_own_element() {
        let s = Set::new("s", 10);
        let mut d = DatU::<f64>::new("d", &s, 2);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "init",
            ExecModeU::Colored,
            10,
            &mut [&mut d],
            16,
            0.0,
            |e, out| {
                out.set(0, e, 0, e as f64);
                out.set(0, e, 1, -(e as f64));
            },
        );
        assert_eq!(d.get(7, 0), 7.0);
        assert_eq!(d.get(7, 1), -7.0);
    }

    #[test]
    fn sweep_direct_writes_and_leaves_no_record() {
        let s = Set::new("s", 1000);
        for mode in [ExecModeU::Serial, ExecModeU::Colored] {
            let mut d = DatU::<u32>::new("d", &s, 2);
            let ((), observed) = access::with_recording_u(|| {
                sweep_direct(mode, 1000, &mut [&mut d], |e, out| {
                    out.set(0, e, 1, out.get(0, e, 0) + e as u32);
                });
            });
            assert!(observed.is_empty(), "the recorder saw a sweep");
            assert!((0..1000).all(|e| d.get(e, 0) == 0 && d.get(e, 1) == e as u32));
        }
    }

    #[test]
    fn colored_indirect_increment_matches_serial() {
        let n = 101;
        let (nodes, _edges, map) = ring_mesh(n);
        let coloring = Coloring::greedy(n, &[&map]);
        assert!(coloring.validate(&[&map]));

        let run = |mode: ExecModeU| {
            let mut acc = DatU::<f64>::new("acc", &nodes, 1);
            let mut p = Profile::new();
            let m = &map;
            par_loop_colored(
                &mut p,
                "inc",
                mode,
                &coloring,
                &mut [&mut acc],
                16,
                2.0,
                |e, out| {
                    let w = (e + 1) as f64;
                    out.add(0, m.get(e, 0), 0, w);
                    out.add(0, m.get(e, 1), 0, -0.5 * w);
                },
            );
            acc
        };
        let serial = run(ExecModeU::Serial);
        let colored = run(ExecModeU::Colored);
        assert_eq!(serial.max_abs_diff(&colored), 0.0);
        // Conservation check: each edge adds w - w/2 = w/2 in total.
        let expect: f64 = (1..=n).map(|w| w as f64 * 0.5).sum();
        assert!((serial.sum() - expect).abs() < 1e-9);
    }

    #[test]
    fn gather_loop_matches_and_accounts_staging() {
        let n = 64;
        let (nodes, _edges, map) = ring_mesh(n);
        let mut acc_ref = DatU::<f64>::new("r", &nodes, 1);
        let mut acc_vec = DatU::<f64>::new("v", &nodes, 1);
        let coloring = Coloring::trivial(n);
        let mut p1 = Profile::new();
        let mut p2 = Profile::new();
        let m = &map;
        par_loop_colored(
            &mut p1,
            "k",
            ExecModeU::Serial,
            &coloring,
            &mut [&mut acc_ref],
            8,
            1.0,
            |e, out| {
                out.add(0, m.get(e, 0), 0, 1.0);
            },
        );
        let mut scratch = GatherScratch::new();
        par_loop_gather(
            &mut p2,
            "k",
            8,
            n,
            &mut [&mut acc_vec],
            &mut scratch,
            8,
            16,
            1.0,
            |e, out| {
                out.add(0, m.get(e, 0), 0, 1.0);
            },
        );
        assert_eq!(acc_ref.max_abs_diff(&acc_vec), 0.0);
        // Vec loop accounts 8 + 2×16 bytes per element.
        assert_eq!(p2.get("k").unwrap().bytes, n * 40);
        assert_eq!(p1.get("k").unwrap().bytes, n * 8);
    }

    #[test]
    fn block_colored_indirect_increment_matches_serial() {
        let n = 97;
        let (nodes, _edges, map) = ring_mesh(n);
        for block_size in [1usize, 4, 16, 97] {
            let coloring = BlockColoring::greedy(n, block_size, &[&map]);
            assert!(coloring.validate(&[&map]));
            let run = |mode: ExecModeU| {
                let mut acc = DatU::<f64>::new("acc", &nodes, 1);
                let mut p = Profile::new();
                let m = &map;
                par_loop_block_colored(
                    &mut p,
                    "inc",
                    mode,
                    &coloring,
                    &mut [&mut acc],
                    16,
                    2.0,
                    |e, out| {
                        let w = (e + 1) as f64;
                        out.add(0, m.get(e, 0), 0, w);
                        out.add(0, m.get(e, 1), 0, -0.5 * w);
                    },
                );
                (acc, p)
            };
            let (serial, ps) = run(ExecModeU::Serial);
            let (colored, pc) = run(ExecModeU::Colored);
            assert_eq!(
                serial.max_abs_diff(&colored),
                0.0,
                "block_size={block_size}"
            );
            // Accounting identical between modes.
            assert_eq!(ps.get("inc").unwrap().bytes, pc.get("inc").unwrap().bytes);
            assert_eq!(ps.get("inc").unwrap().points, n);
        }
    }

    #[test]
    fn staged_driver_stages_each_block_once() {
        let n = 97;
        let (nodes, _edges, map) = ring_mesh(n);
        let coloring = BlockColoring::greedy(n, 16, &[&map]);
        let blocks: Vec<_> = (0..coloring.n_blocks())
            .map(|b| coloring.block_range(b))
            .collect();
        for mode in [ExecModeU::Serial, ExecModeU::Colored] {
            let staged = std::sync::Mutex::new(Vec::new());
            let mut acc = DatU::<f64>::new("acc", &nodes, 2);
            let m = &map;
            par_loop_block_colored_staged(
                &mut Profile::new(),
                "inc",
                mode,
                &coloring,
                &mut [&mut acc],
                16,
                2.0,
                |range| {
                    staged.lock().unwrap().push(range.clone());
                    range
                },
                |range, e, out| {
                    assert!(range.contains(&e), "{e} ran with block {range:?}");
                    out.add_row(0, m.get(e, 1), [1.0, e as f64]);
                },
            );
            let mut staged = staged.into_inner().unwrap();
            staged.sort_by_key(|r| r.start);
            assert_eq!(staged, blocks, "{mode:?}");
            // Every node is the second end of exactly one ring edge.
            assert!(
                (0..n).all(|v| acc.get(v, 0) == 1.0 && acc.get(v, 1) == ((v + n - 1) % n) as f64)
            );
        }
    }

    #[test]
    fn staged_recording_equals_unstaged() {
        let n = 50;
        let (nodes, _edges, map) = ring_mesh(n);
        let coloring = BlockColoring::greedy(n, 8, &[&map]);
        let m = &map;
        let kernel = |e: usize, out: &UOut<f64, 1>| {
            out.add(0, m.get(e, 0), 0, 1.0);
            out.add_row(0, m.get(e, 1), [2.0]);
        };
        let (plain, staged) = {
            let mut acc = DatU::<f64>::new("acc", &nodes, 1);
            let mut p = Profile::new();
            let ((), plain) = access::with_recording_u(|| {
                par_loop_block_colored(
                    &mut p,
                    "k",
                    ExecModeU::Colored,
                    &coloring,
                    &mut [&mut acc],
                    8,
                    1.0,
                    kernel,
                )
            });
            let ((), staged) = access::with_recording_u(|| {
                par_loop_block_colored_staged(
                    &mut p,
                    "k",
                    ExecModeU::Colored,
                    &coloring,
                    &mut [&mut acc],
                    8,
                    1.0,
                    |range| range.len(),
                    |_, e, out| kernel(e, out),
                )
            });
            (plain, staged)
        };
        assert_eq!((plain.len(), staged.len()), (1, 1));
        let (a, b) = (&plain[0], &staged[0]);
        assert_eq!(
            (&a.name, a.set_size, &a.out_names),
            (&b.name, b.set_size, &b.out_names)
        );
        assert_eq!(a.accesses, b.accesses);
        assert_eq!(a.accesses.len(), 2 * n);
        let colored = |s: &UScheduleObs| match s {
            UScheduleObs::Colored {
                block_size,
                block_colors,
                n_colors,
            } => (*block_size, block_colors.clone(), *n_colors),
            other => panic!("recorded {other:?}"),
        };
        assert_eq!(colored(&a.schedule), colored(&b.schedule));
        assert_eq!(
            colored(&b.schedule),
            (8, coloring.block_colors.clone(), coloring.n_colors)
        );
    }

    #[test]
    fn row_access_refuses_a_row_that_does_not_fit() {
        // `call(out, e)` makes one row access at element `e`.
        type RowCall<'a> = &'a (dyn Fn(&UOut<f64, 1>, usize) + Sync);
        let s = Set::new("s", 3);
        let fits = |call: RowCall, e: usize| {
            let mut d = DatU::<f64>::new("d", &s, 2);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sweep_direct(ExecModeU::Serial, 1, &mut [&mut d], |_, out| call(out, e))
            }))
            .is_ok()
        };
        let calls: [(&str, RowCall); 9] = [
            ("get_row", &|out, e| {
                let _ = out.get_row::<2>(0, e);
            }),
            ("set_row", &|out, e| out.set_row(0, e, [1.0, 2.0])),
            ("add_row", &|out, e| out.add_row(0, e, [1.0, 2.0])),
            ("short get_row", &|out, e| {
                let _ = out.get_row::<1>(0, e);
            }),
            ("short set_row", &|out, e| out.set_row(0, e, [1.0])),
            ("short add_row", &|out, e| out.add_row(0, e, [1.0])),
            ("long get_row", &|out, e| {
                let _ = out.get_row::<3>(0, e);
            }),
            ("long set_row", &|out, e| out.set_row(0, e, [1.0; 3])),
            ("long add_row", &|out, e| out.add_row(0, e, [1.0; 3])),
        ];
        for (i, (what, call)) in calls.into_iter().enumerate() {
            assert_eq!(fits(call, 2), i < 3, "{what} at the last element");
            assert!(!fits(call, 3), "{what} past the end");
            assert!(!fits(call, usize::MAX), "{what} at usize::MAX");
        }
    }

    #[test]
    fn row_access_reads_writes_and_increments_whole_rows() {
        let s = Set::new("s", 4);
        for mode in [ExecModeU::Serial, ExecModeU::Colored] {
            let mut d = DatU::<f32>::new("d", &s, 3);
            d.init_with(|e, c| (10 * e + c) as f32);
            sweep_direct(mode, 4, &mut [&mut d], |e, out| {
                let [a, b, c] = out.get_row::<3>(0, e);
                out.set_row(0, e, [c, b, a]);
                out.add_row(0, e, [0.5, 0.25, 0.125]);
            });
            let want: Vec<[f32; 3]> = (0..4)
                .map(|e| {
                    let base = 10.0 * e as f32;
                    [base + 2.5, base + 1.25, base + 0.125]
                })
                .collect();
            assert_eq!(d.rows::<3>(), want.as_slice(), "{mode:?}");
        }
    }

    #[test]
    fn row_access_records_one_access_per_row() {
        let s = Set::new("s", 5);
        let mut d = DatU::<f64>::new("d", &s, 4);
        let kind = |e: usize| [UKind::Get, UKind::Set, UKind::Inc][e % 3];
        let ((), observed) = access::with_recording_u(|| {
            par_loop_direct(
                &mut Profile::new(),
                "rows",
                ExecModeU::Colored,
                5,
                &mut [&mut d],
                32,
                0.0,
                // Element `e` touches the row of element `4 - e`.
                |e, out| match kind(e) {
                    UKind::Get => {
                        let _ = out.get_row::<4>(0, 4 - e);
                    }
                    UKind::Set => out.set_row(0, 4 - e, [1.0; 4]),
                    UKind::Inc => out.add_row(0, 4 - e, [1.0; 4]),
                },
            )
        });
        assert_eq!(observed.len(), 1);
        let seen: Vec<_> = observed[0]
            .accesses
            .iter()
            .map(|a| (a.f, a.src, a.target, a.kind))
            .collect();
        let mut want: Vec<_> = (0..5).map(|e| (0, e, 4 - e, kind(e))).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn gather_scratch_reused_across_calls() {
        let n = 32;
        let (nodes, _edges, map) = ring_mesh(n);
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let mut scratch = GatherScratch::new();
        let m = &map;
        let mut p = Profile::new();
        for _ in 0..3 {
            par_loop_gather(
                &mut p,
                "k",
                4,
                n,
                &mut [&mut acc],
                &mut scratch,
                8,
                16,
                1.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 0, 1.0);
                },
            );
        }
        // Buffer kept its capacity (one batch's worth of staged writes) and
        // every call produced the same increments.
        assert!(scratch.staged.capacity() >= 4);
        assert!(scratch.staged.is_empty());
        assert_eq!(acc.sum(), 3.0 * n as f64);
        assert_eq!(p.get("k").unwrap().calls, 3);
    }

    #[test]
    fn staged_set_and_get_preserve_batch_semantics() {
        // `get` sees the pre-batch value; staged `set`s land at batch end
        // in element order (last writer wins).
        let s = Set::new("s", 4);
        let mut d = DatU::<f64>::new("d", &s, 1);
        d.fill(7.0);
        let mut p = Profile::new();
        let mut scratch = GatherScratch::new();
        par_loop_gather(
            &mut p,
            "k",
            4,
            4,
            &mut [&mut d],
            &mut scratch,
            8,
            0,
            0.0,
            |e, out| {
                // Every element overwrites slot 0; reads still see 7.0.
                assert_eq!(out.get(0, 0, 0), 7.0);
                out.set(0, 0, 0, e as f64);
            },
        );
        assert_eq!(d.get(0, 0), 3.0);
    }

    #[test]
    fn reading_back_written_values() {
        let s = Set::new("s", 4);
        let mut d = DatU::<f64>::new("d", &s, 1);
        d.fill(10.0);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "rmw",
            ExecModeU::Serial,
            4,
            &mut [&mut d],
            8,
            1.0,
            |e, out| {
                let v = out.get(0, e, 0);
                out.set(0, e, 0, v * 2.0);
            },
        );
        assert_eq!(d.get(3, 0), 20.0);
    }

    #[test]
    fn f32_increments() {
        let s = Set::new("s", 3);
        let mut d = DatU::<f32>::new("d", &s, 1);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "k",
            ExecModeU::Serial,
            3,
            &mut [&mut d],
            4,
            0.0,
            |e, out| {
                out.add(0, e, 0, 1.5f32);
            },
        );
        assert_eq!(d.get(2, 0), 1.5);
    }

    #[test]
    fn empty_set_is_noop() {
        let s = Set::new("s", 0);
        let mut d = DatU::<f64>::new("d", &s, 1);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "k",
            ExecModeU::Colored,
            0,
            &mut [&mut d],
            8,
            1.0,
            |_e, _o| panic!("must not run"),
        );
        assert_eq!(p.get("k").unwrap().points, 0);
    }

    #[test]
    fn element_access_refuses_an_element_outside_the_dataset() {
        // `call(out, e)` makes one component access at element `e`.
        type ElemCall<'a> = &'a (dyn Fn(&UOut<f64, 1>, usize) + Sync);
        let s = Set::new("s", 3);
        let fits = |call: ElemCall, e: usize| {
            let mut d = DatU::<f64>::new("d", &s, 2);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                sweep_direct(ExecModeU::Serial, 1, &mut [&mut d], |_, out| call(out, e))
            }))
            .is_ok()
        };
        let calls: [(&str, ElemCall); 3] = [
            ("get", &|out, e| {
                let _ = out.get(0, e, 1);
            }),
            ("set", &|out, e| out.set(0, e, 1, 1.0)),
            ("add", &|out, e| out.add(0, e, 1, 1.0)),
        ];
        for (what, call) in calls {
            assert!(fits(call, 2), "{what} at the last element");
            assert!(!fits(call, 3), "{what} past the end");
            assert!(!fits(call, usize::MAX / 2), "{what} far past the end");
        }
    }

    /// The block size of MG-CFD's flux schedule (`mgcfd::FLUX_BLOCK`).
    const FLUX_BLOCK: usize = 1024;

    /// An edge kernel over a ring: a row increment at the first end, two
    /// component increments (one per output) at the second. Every node
    /// gets two increments per output component, so any order of them
    /// gives the same bits.
    macro_rules! ring_edge_kernel {
        ($map:expr) => {
            |e, out| ring_edge_kernel!($map, e, out)
        };
        ($map:expr, $e:expr, $out:expr) => {{
            let w = 1.0 / ($e + 3) as f64;
            $out.add_row(0, $map.get($e, 0), [w, -w]);
            $out.add(0, $map.get($e, 1), 1, w * w);
            $out.add(1, $map.get($e, 1), 0, -w);
        }};
    }

    /// A direct kernel: reads its own row back, overwrites and increments it.
    macro_rules! own_row_kernel {
        () => {
            |e, out| {
                let [x, y] = out.get_row::<2>(0, e);
                out.set_row(0, e, [y + 0.5, x - (e as f64).sqrt()]);
                out.add(0, e, 1, 1.0 / (e + 1) as f64);
            }
        };
    }

    #[test]
    fn drivers_match_serial_at_edge_sizes() {
        // Sizes 0 and 1, and a block schedule's last block one short of and
        // one past a full block.
        for n in [0, 1, FLUX_BLOCK - 1, FLUX_BLOCK + 1] {
            let (nodes, edges, map) = ring_mesh(n);
            let m = &map;
            let coloring = Coloring::greedy(n, &[m]);
            let blocks = BlockColoring::greedy(n, FLUX_BLOCK, &[m]);
            let run = |mode: ExecModeU| {
                let p = &mut Profile::new();
                let fresh = || {
                    (
                        DatU::<f64>::new("a", &nodes, 2),
                        DatU::<f64>::new("b", &nodes, 1),
                    )
                };
                let (mut a0, mut b0) = fresh();
                par_loop_colored(
                    p,
                    "colored",
                    mode,
                    &coloring,
                    &mut [&mut a0, &mut b0],
                    0,
                    0.0,
                    ring_edge_kernel!(m),
                );
                let (mut a1, mut b1) = fresh();
                par_loop_block_colored(
                    p,
                    "block",
                    mode,
                    &blocks,
                    &mut [&mut a1, &mut b1],
                    0,
                    0.0,
                    ring_edge_kernel!(m),
                );
                let (mut a2, mut b2) = fresh();
                par_loop_block_colored_staged(
                    p,
                    "staged",
                    mode,
                    &blocks,
                    &mut [&mut a2, &mut b2],
                    0,
                    0.0,
                    |range| range,
                    |range, e, out| {
                        assert!(range.contains(&e));
                        ring_edge_kernel!(m, e, out)
                    },
                );
                let mut d0 = DatU::<f64>::new("d", &edges, 2);
                d0.init_with(|e, c| (3 * e + c) as f64);
                let mut d1 = d0.clone();
                par_loop_direct(
                    p,
                    "direct",
                    mode,
                    n,
                    &mut [&mut d0],
                    0,
                    0.0,
                    own_row_kernel!(),
                );
                sweep_direct(mode, n, &mut [&mut d1], own_row_kernel!());
                [a0, b0, a1, b1, a2, b2, d0, d1].map(|d| d.raw().to_vec())
            };
            let serial = run(ExecModeU::Serial);
            assert_eq!(serial, run(ExecModeU::Colored), "n = {n}");
            // The indirect drivers agree with each other too.
            assert_eq!((&serial[0], &serial[1]), (&serial[2], &serial[3]));
            assert_eq!((&serial[0], &serial[1]), (&serial[4], &serial[5]));
        }
    }

    #[test]
    fn recordings_are_the_accesses_kernels_make() {
        // The observations every driver records for a known kernel, loop
        // for loop: its name, size, outputs, schedule and access tuples.
        let n = 5;
        let (nodes, edges, map) = ring_mesh(n);
        let m = &map;
        let coloring = Coloring::greedy(n, &[m]);
        let blocks = BlockColoring::greedy(n, 2, &[m]);
        let mut a = DatU::<f64>::new("a", &nodes, 2);
        let mut b = DatU::<f64>::new("b", &nodes, 1);
        let mut d = DatU::<f64>::new("d", &edges, 2);
        let ((), obs) = access::with_recording_u(|| {
            let p = &mut Profile::new();
            let (a, b) = (&mut a, &mut b);
            let mode = ExecModeU::Colored;
            par_loop_colored(
                p,
                "colored",
                mode,
                &coloring,
                &mut [a, b],
                0,
                0.0,
                ring_edge_kernel!(m),
            );
            par_loop_block_colored(
                p,
                "block",
                mode,
                &blocks,
                &mut [a, b],
                0,
                0.0,
                ring_edge_kernel!(m),
            );
            par_loop_block_colored_staged(
                p,
                "staged",
                mode,
                &blocks,
                &mut [a, b],
                0,
                0.0,
                |_| (),
                |(), e, out| ring_edge_kernel!(m, e, out),
            );
            par_loop_direct(
                p,
                "direct",
                mode,
                n,
                &mut [&mut d],
                0,
                0.0,
                own_row_kernel!(),
            );
            sweep_direct(mode, n, &mut [&mut d], own_row_kernel!());
            par_loop_gather(
                p,
                "gather",
                2,
                n,
                &mut [a, b],
                &mut GatherScratch::new(),
                0,
                0,
                0.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 1, 1.0);
                    out.set(1, m.get(e, 1), 0, out.get(0, e, 0));
                },
            );
        });
        let names: Vec<_> = obs.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(
            names,
            ["colored", "block", "staged", "direct", "gather"],
            "a sweep is not recorded"
        );
        let tuples = |o: &ULoopObs| -> Vec<(usize, usize, usize, UKind)> {
            o.accesses
                .iter()
                .map(|a| (a.f, a.src, a.target, a.kind))
                .collect()
        };
        let sorted = |mut v: Vec<(usize, usize, usize, UKind)>| {
            v.sort();
            v
        };
        let edge_accesses = sorted(
            (0..n)
                .flat_map(|e| {
                    let next = (e + 1) % n;
                    [
                        (0, e, e, UKind::Inc),
                        (0, e, next, UKind::Inc),
                        (1, e, next, UKind::Inc),
                    ]
                })
                .collect(),
        );
        let schedule = |o: &ULoopObs| match &o.schedule {
            UScheduleObs::Colored {
                block_size,
                block_colors,
                n_colors,
            } => Some((*block_size, block_colors.clone(), *n_colors)),
            _ => None,
        };
        for o in &obs[..3] {
            assert_eq!((o.set_size, o.out_names.join(" ")), (n, "a b".into()));
            assert_eq!(tuples(o), edge_accesses, "{}", o.name);
        }
        let element = Some((1, coloring.colors.clone(), coloring.n_colors));
        assert_eq!(schedule(&obs[0]), element);
        let block = Some((2, blocks.block_colors.clone(), blocks.n_colors));
        assert_eq!(
            (schedule(&obs[1]), schedule(&obs[2])),
            (block.clone(), block)
        );
        let direct = sorted(
            (0..n)
                .flat_map(|e| {
                    [
                        (0, e, e, UKind::Get),
                        (0, e, e, UKind::Set),
                        (0, e, e, UKind::Inc),
                    ]
                })
                .collect(),
        );
        assert!(matches!(obs[3].schedule, UScheduleObs::Direct));
        assert_eq!(
            (obs[3].set_size, obs[3].out_names.join(" ")),
            (n, "d".into())
        );
        assert_eq!(tuples(&obs[3]), direct);
        let gather = sorted(
            (0..n)
                .flat_map(|e| {
                    let next = (e + 1) % n;
                    [
                        (0, e, e, UKind::Inc),
                        (0, e, e, UKind::Get),
                        (1, e, next, UKind::Set),
                    ]
                })
                .collect(),
        );
        assert!(matches!(obs[4].schedule, UScheduleObs::Gather));
        assert_eq!(tuples(&obs[4]), gather);
    }

    /// Records one loop of each driver in which element 0 reads `notes`
    /// distinct elements and the others read nothing; each loop's outcome
    /// is its recording or the message of its panic.
    fn record_notes(notes: usize) -> Vec<(&'static str, Result<ULoopObs, String>)> {
        let n = NOTE_LOG_CAP + 1;
        let s = Set::new("s", n);
        let (_, _, map) = ring_mesh(n);
        let coloring = Coloring::greedy(n, &[&map]);
        let blocks = BlockColoring::greedy(n, 8, &[&map]);
        macro_rules! reads {
            () => {
                |e, out| reads!(e, out)
            };
            ($e:expr, $out:expr) => {
                if $e == 0 {
                    for t in 0..notes {
                        let _ = $out.get(0, t, 0);
                    }
                }
            };
        }
        let record = |name: &'static str, run: &dyn Fn(&mut Profile, &mut DatU<f64>)| {
            let mut d = DatU::<f64>::new("d", &s, 1);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                access::with_recording_u(|| run(&mut Profile::new(), &mut d)).1
            }));
            let outcome = match caught {
                Ok(mut obs) => Ok(obs.pop().expect("one loop recorded")),
                Err(payload) => Err(payload.downcast::<String>().map(|s| *s).unwrap_or_default()),
            };
            (name, outcome)
        };
        let mode = ExecModeU::Colored;
        vec![
            record("direct", &|p, d| {
                par_loop_direct(p, "direct", mode, n, &mut [d], 0, 0.0, reads!())
            }),
            record("colored", &|p, d| {
                par_loop_colored(p, "colored", mode, &coloring, &mut [d], 0, 0.0, reads!())
            }),
            record("block", &|p, d| {
                par_loop_block_colored(p, "block", mode, &blocks, &mut [d], 0, 0.0, reads!())
            }),
            record("staged", &|p, d| {
                par_loop_block_colored_staged(
                    p,
                    "staged",
                    mode,
                    &blocks,
                    &mut [d],
                    0,
                    0.0,
                    |_| (),
                    |(), e, out| reads!(e, out),
                )
            }),
            record("gather", &|p, d| {
                let scratch = &mut GatherScratch::new();
                par_loop_gather(p, "gather", 4, n, &mut [d], scratch, 0, 0, 0.0, reads!())
            }),
        ]
    }

    #[test]
    fn a_full_note_log_records_every_note() {
        for (name, outcome) in record_notes(NOTE_LOG_CAP) {
            let obs = outcome.unwrap_or_else(|msg| panic!("{name}: {msg}"));
            let want: Vec<_> = (0..NOTE_LOG_CAP).map(|t| (0, t, UKind::Get)).collect();
            let seen: Vec<_> = obs
                .accesses
                .iter()
                .map(|a| (a.src, a.target, a.kind))
                .collect();
            assert_eq!(seen, want, "{name}");
        }
    }

    #[test]
    fn an_overfull_note_log_is_refused_naming_the_loop() {
        for (name, outcome) in record_notes(NOTE_LOG_CAP + 1) {
            let msg = outcome.err().unwrap_or_else(|| panic!("{name} recorded"));
            let want = format!(
                "loop `{name}`: element 0 made {} output accesses",
                NOTE_LOG_CAP + 1
            );
            assert!(msg.starts_with(&want), "{name}: {msg}");
        }
    }
}
