//! Access declarations and checked-execution recording for unstructured
//! loops — the OP2 half of the `bwb-dslcheck` contract.
//!
//! Mirrors `bwb_ops::access` for the unstructured engine: apps declare what
//! each loop writes (mode + direct/indirect), and a thread-local recording
//! session captures what kernels *actually* touch — every `(dataset,
//! source element, target element, kind)` tuple — along with the schedule
//! the loop ran under (its coloring, if any). Analyzers diff the two and
//! prove the coloring race-free.
//!
//! Recording forces serial execution inside the drivers, so the session can
//! live in plain thread-local storage with zero cost on the parallel paths.

use bwb_ops::access::Access;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// Declared shape of one output argument of an unstructured loop.
#[derive(Debug, Clone)]
pub struct UArgSpec {
    /// Dataset name (as constructed by the app).
    pub name: String,
    pub access: Access,
    /// `true` if written through a map (targets other than the iteration
    /// element), `false` for own-element writes.
    pub indirect: bool,
}

/// Declared contract of one unstructured loop.
#[derive(Debug, Clone)]
pub struct ULoopSpec {
    pub name: String,
    pub outs: Vec<UArgSpec>,
}

impl ULoopSpec {
    pub fn new(name: &str, outs: Vec<UArgSpec>) -> Self {
        ULoopSpec {
            name: name.to_string(),
            outs,
        }
    }
}

impl UArgSpec {
    pub fn new(name: &str, access: Access, indirect: bool) -> Self {
        UArgSpec {
            name: name.to_string(),
            access,
            indirect,
        }
    }
}

/// What kind of access a kernel performed on an output dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UKind {
    /// Plain overwrite (`UOut::set`/`set_row` / staged `set`).
    Set,
    /// Read-back of an output (`UOut::get`/`get_row` / staged `get`).
    Get,
    /// Increment (`UOut::add`/`add_row` / staged `add`).
    Inc,
}

/// One deduplicated observed access: dataset `f`, performed while iterating
/// element `src`, landing on element `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UAccessObs {
    pub f: usize,
    pub src: usize,
    pub target: usize,
    pub kind: UKind,
}

/// The schedule a recorded loop declared it would run under. Recording
/// forces serial execution, so this is the schedule *to be validated*, not
/// the one used during the recording itself.
#[derive(Debug, Clone)]
pub enum UScheduleObs {
    /// Direct loop: every element may write only itself.
    Direct,
    /// Indirect loop under a coloring of contiguous blocks: element `e` runs
    /// in block `e / block_size`, whose color is `block_colors[block]`.
    /// Blocks of one color run in parallel and each block's elements run in
    /// order, so only two *distinct* blocks of one color may race. Element
    /// coloring is `block_size` 1.
    Colored {
        block_size: usize,
        block_colors: Vec<u32>,
        n_colors: u32,
    },
    /// Gather/scatter lanes: staged writes applied in element order, so
    /// overlap is well-defined (last writer wins).
    Gather,
}

/// Everything recorded about one executed unstructured loop.
#[derive(Debug, Clone)]
pub struct ULoopObs {
    pub name: String,
    pub set_size: usize,
    /// Run-time names of the output datasets, positionally.
    pub out_names: Vec<String>,
    pub schedule: UScheduleObs,
    pub accesses: BTreeSet<UAccessObs>,
}

struct SessionU {
    done: Vec<ULoopObs>,
    current: Option<ULoopObs>,
    current_elem: usize,
}

thread_local! {
    static ACTIVE_U: Cell<bool> = const { Cell::new(false) };
    static SESSION_U: RefCell<SessionU> = const {
        RefCell::new(SessionU {
            done: Vec::new(),
            current: None,
            current_elem: 0,
        })
    };
}

/// Is an unstructured recording session active on this thread?
#[inline]
pub fn recording_active_u() -> bool {
    ACTIVE_U.with(|a| a.get())
}

/// Run `f` with unstructured-loop recording enabled and return its result
/// plus the observations of every `par_loop_*` executed inside.
pub fn with_recording_u<R>(f: impl FnOnce() -> R) -> (R, Vec<ULoopObs>) {
    SESSION_U.with(|s| {
        let mut s = s.borrow_mut();
        s.done.clear();
        s.current = None;
        s.current_elem = 0;
    });
    ACTIVE_U.with(|a| a.set(true));
    let out = f();
    ACTIVE_U.with(|a| a.set(false));
    let obs = SESSION_U.with(|s| std::mem::take(&mut s.borrow_mut().done));
    (out, obs)
}

/// Lower an unstructured recording to the shared loop-plan IR
/// ([`bwb_ops::plan::LoopIr`]) that optimization plans index into.
///
/// Unstructured loops have no rectangular range (`dims` 0, `points` =
/// set size) and the recorder only observes *output* accesses — kernel
/// reads go through closures it cannot see — so the lowered IR carries
/// empty input lists. That is deliberately honest: a planner consuming
/// this IR sees no read sets and therefore can certify nothing that
/// depends on them (the `OutputOnlyRecording` limitation, made
/// structural).
pub fn lower_recording_u(obs: &[ULoopObs]) -> Vec<bwb_ops::plan::LoopIr> {
    obs.iter()
        .map(|o| {
            let mut outs = o.out_names.clone();
            outs.sort();
            outs.dedup();
            bwb_ops::plan::LoopIr {
                name: o.name.clone(),
                dims: 0,
                points: o.set_size,
                outs,
                ins: Vec::new(),
            }
        })
        .collect()
}

pub(crate) fn begin_uloop(
    name: &str,
    set_size: usize,
    out_names: Vec<String>,
    schedule: UScheduleObs,
) {
    SESSION_U.with(|s| {
        let mut s = s.borrow_mut();
        debug_assert!(s.current.is_none(), "nested unstructured loop recording");
        s.current_elem = 0;
        s.current = Some(ULoopObs {
            name: name.to_string(),
            set_size,
            out_names,
            schedule,
            accesses: BTreeSet::new(),
        });
    });
}

pub(crate) fn end_uloop() {
    SESSION_U.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(obs) = s.current.take() {
            s.done.push(obs);
        }
    });
}

/// The recording loop calls this for element `e` before it hands over the
/// notes `e` made, so each noted access knows which iteration element
/// performed it.
#[inline]
pub(crate) fn set_current(e: usize) {
    SESSION_U.with(|s| s.borrow_mut().current_elem = e);
}

#[inline]
pub(crate) fn note_access(f: usize, target: usize, kind: UKind) {
    SESSION_U.with(|s| {
        let mut s = s.borrow_mut();
        let src = s.current_elem;
        if let Some(cur) = &mut s.current {
            cur.accesses.insert(UAccessObs {
                f,
                src,
                target,
                kind,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_captures_and_dedupes_accesses() {
        let ((), obs) = with_recording_u(|| {
            begin_uloop("k", 3, vec!["d".into()], UScheduleObs::Direct);
            set_current(0);
            note_access(0, 0, UKind::Set);
            note_access(0, 0, UKind::Set); // duplicate
            set_current(1);
            note_access(0, 2, UKind::Inc);
            end_uloop();
        });
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].accesses.len(), 2);
        let v: Vec<_> = obs[0].accesses.iter().collect();
        assert_eq!(v[0].src, 0);
        assert_eq!(v[1].target, 2);
        assert!(!recording_active_u());
    }

    #[test]
    fn sessions_are_independent() {
        let ((), a) = with_recording_u(|| {
            begin_uloop("one", 1, vec![], UScheduleObs::Gather);
            end_uloop();
        });
        let ((), b) = with_recording_u(|| {});
        assert_eq!(a.len(), 1);
        assert!(b.is_empty());
    }
}
