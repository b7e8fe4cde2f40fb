//! First-class access descriptors and the checked-execution recorder.
//!
//! OPS loops are analyzable because every argument carries a declared
//! access mode and stencil; this module supplies those declarations
//! ([`Access`], [`Stencil`], [`ArgSpec`], [`LoopSpec`]) and the runtime
//! half of the `dslcheck` analyzers: a thread-local recording session
//! ([`with_recording`]) during which every driver logs one [`LoopObs`] per
//! loop invocation — the loop's name, range, per-argument geometry, and
//! every *actual* `(field, offset)` access the kernel performed.
//!
//! Recording forces serial execution (the drivers check
//! [`recording_active`]), so the shadow instrumentation needs no
//! synchronization and observes the exact access set of the kernel.
//! Checkers in `bwb-dslcheck` diff observations against declarations.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// Declared access mode of one loop argument (OPS's `OPS_READ`/`OPS_WRITE`/
/// `OPS_RW`/`OPS_INC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read-only at declared stencil offsets.
    Read,
    /// Written at the current point only; never read.
    Write,
    /// Read back and overwritten at the current point.
    ReadWrite,
    /// Accumulated into at the current point (or, in `op2`, at mapped
    /// targets) — commutative increments only.
    Inc,
}

impl std::fmt::Display for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Access::Read => "Read",
            Access::Write => "Write",
            Access::ReadWrite => "ReadWrite",
            Access::Inc => "Inc",
        };
        f.write_str(s)
    }
}

/// A declared stencil: the set of relative offsets a loop argument may be
/// accessed at. 2-D stencils use `dk = 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stencil {
    offsets: BTreeSet<(isize, isize, isize)>,
}

impl Stencil {
    /// The `(0,0,0)` point stencil.
    pub fn point() -> Self {
        Stencil {
            offsets: [(0, 0, 0)].into_iter().collect(),
        }
    }

    /// An explicit 2-D offset set (`dk = 0`).
    pub fn of2(offsets: &[(isize, isize)]) -> Self {
        Stencil {
            offsets: offsets.iter().map(|&(di, dj)| (di, dj, 0)).collect(),
        }
    }

    /// An explicit 3-D offset set.
    pub fn of3(offsets: &[(isize, isize, isize)]) -> Self {
        Stencil {
            offsets: offsets.iter().copied().collect(),
        }
    }

    /// 2-D star (plus-shaped) stencil of radius `r`, centre included.
    pub fn plus2(r: isize) -> Self {
        let mut offsets = BTreeSet::new();
        offsets.insert((0, 0, 0));
        for d in 1..=r {
            offsets.insert((d, 0, 0));
            offsets.insert((-d, 0, 0));
            offsets.insert((0, d, 0));
            offsets.insert((0, -d, 0));
        }
        Stencil { offsets }
    }

    /// 3-D star stencil of radius `r`, centre included.
    pub fn plus3(r: isize) -> Self {
        let mut offsets = BTreeSet::new();
        offsets.insert((0, 0, 0));
        for d in 1..=r {
            offsets.insert((d, 0, 0));
            offsets.insert((-d, 0, 0));
            offsets.insert((0, d, 0));
            offsets.insert((0, -d, 0));
            offsets.insert((0, 0, d));
            offsets.insert((0, 0, -d));
        }
        Stencil { offsets }
    }

    pub fn contains(&self, di: isize, dj: isize, dk: isize) -> bool {
        self.offsets.contains(&(di, dj, dk))
    }

    pub fn offsets(&self) -> impl Iterator<Item = &(isize, isize, isize)> {
        self.offsets.iter()
    }

    /// Maximum absolute offset along one axis (`0` = i, `1` = j, `2` = k).
    ///
    /// Anisotropic stencils (a 1-D sweep, an upwind-biased face window)
    /// have different reach per axis; `radius()`/`outer_radius()` collapse
    /// that to a max and must only be used where a per-axis bound would be
    /// unsound anyway (isotropic halo exchanges, conservative gates).
    pub fn radius_along(&self, axis: usize) -> isize {
        self.offsets
            .iter()
            .map(|&(di, dj, dk)| [di, dj, dk][axis].abs())
            .max()
            .unwrap_or(0)
    }

    /// Maximum absolute offset component — the halo depth the stencil needs
    /// when every dimension is exchanged at the same depth.
    pub fn radius(&self) -> isize {
        self.radius_along(0)
            .max(self.radius_along(1))
            .max(self.radius_along(2))
    }

    /// Maximum absolute outer-dimension (`dj`/`dk`) offset — the skew
    /// reach the tiling engine must honour. Deliberately ignores `di`:
    /// tiles split the outer dimensions only, so inner-dimension reach
    /// never crosses a tile boundary.
    pub fn outer_radius(&self) -> isize {
        self.radius_along(1).max(self.radius_along(2))
    }
}

/// Declaration for one loop argument. `name` is documentation only: loops
/// are matched to declarations positionally, because double-buffered apps
/// rotate dataset names through `mem::swap`.
#[derive(Debug, Clone)]
pub struct ArgSpec {
    pub name: String,
    pub access: Access,
    pub stencil: Stencil,
}

impl ArgSpec {
    pub fn new(name: &str, access: Access, stencil: Stencil) -> Self {
        ArgSpec {
            name: name.to_string(),
            access,
            stencil,
        }
    }

    /// Shorthand for a read argument.
    pub fn read(name: &str, stencil: Stencil) -> Self {
        ArgSpec::new(name, Access::Read, stencil)
    }

    /// Shorthand for a current-point write argument.
    pub fn write(name: &str) -> Self {
        ArgSpec::new(name, Access::Write, Stencil::point())
    }
}

/// Declaration for one loop: its name plus output and input argument specs
/// in driver-call order. Loops invoked with several argument arities (e.g.
/// a kernel reused for both copy and in-place update) register one spec per
/// arity; observations are matched on `(name, outs.len(), ins.len())`.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    pub name: String,
    pub outs: Vec<ArgSpec>,
    pub ins: Vec<ArgSpec>,
}

impl LoopSpec {
    pub fn new(name: &str, outs: Vec<ArgSpec>, ins: Vec<ArgSpec>) -> Self {
        LoopSpec {
            name: name.to_string(),
            outs,
            ins,
        }
    }

    /// The spec of shape `(name, #outs, #ins)` — the key observations and
    /// chain steps are matched on.
    pub fn find<'s>(
        specs: &'s [LoopSpec],
        name: &str,
        outs: usize,
        ins: usize,
    ) -> Option<&'s LoopSpec> {
        specs
            .iter()
            .find(|s| s.name == name && s.outs.len() == outs && s.ins.len() == ins)
    }

    /// Required halo depth: the maximum radius over all input stencils.
    pub fn read_radius(&self) -> isize {
        self.ins
            .iter()
            .map(|a| a.stencil.radius())
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Observations
// ---------------------------------------------------------------------------

/// What one loop invocation actually did to one argument.
#[derive(Debug, Clone)]
pub struct ArgObs {
    /// Run-time dataset name (may rotate across invocations when apps swap
    /// buffers — that is why spec matching is positional).
    pub name: String,
    pub halo: isize,
    /// Interior extent `(nx, ny, nz)`; `nz = 1` for 2-D datasets.
    pub extent: (usize, usize, usize),
    /// Size of one element in bytes (`size_of::<T>()` of the dataset) —
    /// lets traffic analyzers price observations without knowing `T`.
    pub elem_bytes: usize,
    /// Observed read offsets (inputs only).
    pub offsets: BTreeSet<(isize, isize, isize)>,
    /// Output was overwritten at the current point (`set` / row slices).
    pub wrote: bool,
    /// Output was read back at the current point (`get`).
    pub read_back: bool,
    /// Output was incremented at the current point (`add`).
    pub inced: bool,
}

impl ArgObs {
    fn new(name: String, halo: isize, extent: (usize, usize, usize), elem_bytes: usize) -> Self {
        ArgObs {
            name,
            halo,
            extent,
            elem_bytes,
            offsets: BTreeSet::new(),
            wrote: false,
            read_back: false,
            inced: false,
        }
    }

    /// Maximum absolute observed offset along one axis (`0`=i, `1`=j, `2`=k).
    pub fn radius_along(&self, axis: usize) -> isize {
        self.offsets
            .iter()
            .map(|&(di, dj, dk)| [di, dj, dk][axis].abs())
            .max()
            .unwrap_or(0)
    }

    /// Maximum absolute observed offset component.
    pub fn radius(&self) -> isize {
        self.radius_along(0)
            .max(self.radius_along(1))
            .max(self.radius_along(2))
    }

    /// Maximum absolute observed outer-dimension offset.
    pub fn outer_radius(&self) -> isize {
        self.radius_along(1).max(self.radius_along(2))
    }
}

/// One recorded loop invocation.
#[derive(Debug, Clone)]
pub struct LoopObs {
    pub name: String,
    /// 2 or 3.
    pub dims: u8,
    /// `[i0, i1, j0, j1, k0, k1]` (`k` span `[0, 1)` for 2-D loops).
    pub range: [isize; 6],
    pub outs: Vec<ArgObs>,
    pub ins: Vec<ArgObs>,
}

/// One recorded halo exchange, ordered against the loop stream.
///
/// `at` is the number of loops completed before the exchange fired, so an
/// exchange with `at == n` happened between `loops[n-1]` and `loops[n]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeObs {
    /// Run-time dataset name (same naming caveat as [`ArgObs::name`]).
    pub dat: String,
    /// Exchanged halo depth.
    pub depth: usize,
    /// Loops completed in this session before the exchange.
    pub at: usize,
    /// Stable call-site label supplied by the app (empty when the app uses
    /// the unlabelled exchange API). The declaration check matches it
    /// against the declared chain's exchange sites, so a recorded exchange
    /// must come from the call site its declaration names.
    pub site: String,
}

/// Everything a recording session observed: the loop stream plus the halo
/// exchanges interleaved with it.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    pub loops: Vec<LoopObs>,
    pub exchanges: Vec<ExchangeObs>,
}

/// Geometry captured per argument when a recorded loop begins.
#[derive(Debug, Clone)]
pub(crate) struct ArgMeta {
    pub(crate) name: String,
    pub(crate) halo: isize,
    pub(crate) extent: (usize, usize, usize),
    pub(crate) elem_bytes: usize,
}

/// Kinds of output access an accessor can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutKind {
    Wrote,
    ReadBack,
    Inced,
}

#[derive(Default)]
struct Session {
    done: Vec<LoopObs>,
    exchanges: Vec<ExchangeObs>,
    current: Option<LoopObs>,
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SESSION: RefCell<Session> = RefCell::new(Session::default());
}

/// Is a checked-execution recording session active on this thread?
///
/// The loop drivers consult this to force serial execution and log
/// observations; the kernel accessors consult it before noting accesses.
#[inline]
pub fn recording_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Run `f` with checked-execution recording enabled on this thread and
/// return its result together with one [`LoopObs`] per loop invocation it
/// performed (in execution order). Loops run serially while recording.
pub fn with_recording<R>(f: impl FnOnce() -> R) -> (R, Vec<LoopObs>) {
    let (result, rec) = with_recording_full(f);
    (result, rec.loops)
}

/// Like [`with_recording`] but also returns the halo exchanges the run
/// performed, ordered against the loop stream (see [`ExchangeObs::at`]).
pub fn with_recording_full<R>(f: impl FnOnce() -> R) -> (R, Recording) {
    assert!(
        !recording_active(),
        "nested with_recording sessions are not supported"
    );
    SESSION.with(|s| *s.borrow_mut() = Session::default());
    ACTIVE.with(|a| a.set(true));
    let result = f();
    ACTIVE.with(|a| a.set(false));
    let rec = SESSION.with(|s| {
        let mut s = s.borrow_mut();
        Recording {
            loops: std::mem::take(&mut s.done),
            exchanges: std::mem::take(&mut s.exchanges),
        }
    });
    (result, rec)
}

/// Record a halo exchange of `dat` at `depth` (call only when
/// [`recording_active`]). Invoked by the `halo` module so whole-program
/// analyzers see exchanges ordered against the loop stream.
pub(crate) fn note_exchange_obs(dat: &str, depth: usize) {
    note_exchange_obs_site(dat, depth, "");
}

/// Like [`note_exchange_obs`] with a stable call-site label (see
/// [`ExchangeObs::site`]).
pub(crate) fn note_exchange_obs_site(dat: &str, depth: usize, site: &str) {
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        let at = s.done.len();
        s.exchanges.push(ExchangeObs {
            dat: dat.to_string(),
            depth,
            at,
            site: site.to_string(),
        });
    });
}

pub(crate) fn begin_loop(
    name: &str,
    dims: u8,
    range: [isize; 6],
    outs: Vec<ArgMeta>,
    ins: Vec<ArgMeta>,
) {
    let to_obs = |m: ArgMeta| ArgObs::new(m.name, m.halo, m.extent, m.elem_bytes);
    let obs = LoopObs {
        name: name.to_string(),
        dims,
        range,
        outs: outs.into_iter().map(to_obs).collect(),
        ins: ins.into_iter().map(to_obs).collect(),
    };
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        debug_assert!(s.current.is_none(), "nested par_loop while recording");
        s.current = Some(obs);
    });
}

pub(crate) fn end_loop() {
    SESSION.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(cur) = s.current.take() {
            s.done.push(cur);
        }
    });
}

/// Record a read of input `f` at the given offset (call only when
/// [`recording_active`]).
pub(crate) fn note_read(f: usize, di: isize, dj: isize, dk: isize) {
    SESSION.with(|s| {
        if let Some(cur) = s.borrow_mut().current.as_mut() {
            if let Some(arg) = cur.ins.get_mut(f) {
                arg.offsets.insert((di, dj, dk));
            }
        }
    });
}

/// Record an output access of the given kind on output `f`.
pub(crate) fn note_out(f: usize, kind: OutKind) {
    SESSION.with(|s| {
        if let Some(cur) = s.borrow_mut().current.as_mut() {
            if let Some(arg) = cur.outs.get_mut(f) {
                match kind {
                    OutKind::Wrote => arg.wrote = true,
                    OutKind::ReadBack => arg.read_back = true,
                    OutKind::Inced => arg.inced = true,
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_constructors_and_radius() {
        let p = Stencil::point();
        assert!(p.contains(0, 0, 0));
        assert_eq!(p.radius(), 0);

        let star = Stencil::plus2(2);
        assert!(star.contains(-2, 0, 0) && star.contains(0, 2, 0));
        assert!(!star.contains(1, 1, 0));
        assert_eq!(star.radius(), 2);
        assert_eq!(star.outer_radius(), 2);

        let star3 = Stencil::plus3(4);
        assert!(star3.contains(0, 0, -4));
        assert_eq!(star3.radius(), 4);
    }

    #[test]
    fn of2_maps_to_dk_zero() {
        let s = Stencil::of2(&[(0, 0), (1, 0), (0, -2)]);
        assert!(s.contains(0, -2, 0));
        assert!(!s.contains(0, -2, -1));
        assert_eq!(s.outer_radius(), 2);
        assert_eq!(s.radius(), 2);
    }

    #[test]
    fn anisotropic_radii_per_axis() {
        // An x-sweep face window: deep along i, shallow along j.
        let s = Stencil::of2(&[(-1, 0), (0, 0), (2, 0), (0, 1)]);
        assert_eq!(s.radius_along(0), 2);
        assert_eq!(s.radius_along(1), 1);
        assert_eq!(s.radius_along(2), 0);
        // radius() is the max over axes; outer_radius() skips the inner
        // axis entirely — the two legitimately disagree here.
        assert_eq!(s.radius(), 2);
        assert_eq!(s.outer_radius(), 1);

        // The transpose: a j-sweep window, where outer_radius must carry
        // the full depth.
        let t = Stencil::of2(&[(0, -1), (0, 0), (0, 2), (1, 0)]);
        assert_eq!(t.radius_along(0), 1);
        assert_eq!(t.radius_along(1), 2);
        assert_eq!(t.radius(), 2);
        assert_eq!(t.outer_radius(), 2);

        // 3-D: reach only along k.
        let u = Stencil::of3(&[(0, 0, -3), (0, 0, 0)]);
        assert_eq!(u.radius_along(0), 0);
        assert_eq!(u.radius_along(1), 0);
        assert_eq!(u.radius_along(2), 3);
        assert_eq!(u.radius(), 3);
        assert_eq!(u.outer_radius(), 3);
    }

    #[test]
    fn arg_obs_anisotropic_radii() {
        let mut a = ArgObs::new("x".into(), 2, (8, 8, 1), 8);
        a.offsets.insert((2, 0, 0));
        a.offsets.insert((0, -1, 0));
        assert_eq!(a.radius_along(0), 2);
        assert_eq!(a.radius_along(1), 1);
        assert_eq!(a.radius(), 2);
        assert_eq!(a.outer_radius(), 1);
    }

    #[test]
    fn full_recording_orders_exchanges_against_loops() {
        let demo_loop = |name: &str| {
            begin_loop(name, 2, [0, 2, 0, 2, 0, 1], Vec::new(), Vec::new());
            end_loop();
        };
        let ((), rec) = with_recording_full(|| {
            note_exchange_obs("u", 2);
            demo_loop("a");
            demo_loop("b");
            note_exchange_obs("u", 1);
            demo_loop("c");
        });
        assert_eq!(rec.loops.len(), 3);
        assert_eq!(
            rec.exchanges,
            vec![
                ExchangeObs {
                    dat: "u".into(),
                    depth: 2,
                    at: 0,
                    site: String::new(),
                },
                ExchangeObs {
                    dat: "u".into(),
                    depth: 1,
                    at: 2,
                    site: String::new(),
                },
            ]
        );
    }

    #[test]
    fn loop_spec_read_radius() {
        let spec = LoopSpec::new(
            "k",
            vec![ArgSpec::write("o")],
            vec![
                ArgSpec::read("a", Stencil::point()),
                ArgSpec::read("b", Stencil::plus2(3)),
            ],
        );
        assert_eq!(spec.read_radius(), 3);
    }

    #[test]
    fn recording_session_collects_and_clears() {
        assert!(!recording_active());
        let ((), obs) = with_recording(|| {
            assert!(recording_active());
            begin_loop(
                "demo",
                2,
                [0, 4, 0, 4, 0, 1],
                vec![ArgMeta {
                    name: "o".into(),
                    halo: 0,
                    extent: (4, 4, 1),
                    elem_bytes: 8,
                }],
                vec![ArgMeta {
                    name: "i".into(),
                    halo: 1,
                    extent: (4, 4, 1),
                    elem_bytes: 8,
                }],
            );
            note_read(0, -1, 0, 0);
            note_read(0, 1, 0, 0);
            note_out(0, OutKind::Wrote);
            end_loop();
        });
        assert!(!recording_active());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].name, "demo");
        assert_eq!(obs[0].ins[0].radius(), 1);
        assert!(obs[0].outs[0].wrote);
        assert!(!obs[0].outs[0].read_back);
    }
}
