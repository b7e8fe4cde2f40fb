//! The inter-loop def-use graph the whole-chain dataflow analyzers walk.
//!
//! Built from one structured checked-execution [`Recording`] plus the app's
//! declared contracts: every loop becomes a [`LoopNode`] whose arguments are
//! classified by *joining* the declaration with the observation (declared
//! access modes are authoritative where row-slice accessors cannot observe
//! read-backs; observed offsets widen under-declared stencils), and every
//! field accumulates an ordered event timeline ([`Event`]) interleaving loop
//! accesses with the halo exchanges the run performed.
//!
//! Timelines are keyed by *runtime dataset name*. Double-buffered apps
//! rotate names through `mem::swap`, which is exactly what makes this
//! sound: the name travels with the buffer, so a name-keyed timeline is a
//! buffer-keyed timeline.

use bwb_ops::access::{Access, ExchangeObs, LoopSpec, Recording};
use std::collections::BTreeMap;

/// How one loop touched one field, after joining declaration and
/// observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Touch {
    /// Pure overwrite at the current point; `full` means the loop range
    /// covers the dataset's entire interior, so nothing of the previous
    /// contents survives.
    Write { full: bool },
    /// Input read at up to `radius` (max of declared stencil radius and
    /// observed offsets, so under-declaration cannot narrow the analysis),
    /// of which `reach` cells lie past the interior: the ghost depth the
    /// read needs valid over this loop's range (0 when every point it reads
    /// is interior, as for node fields read around cells).
    Read { radius: isize, reach: isize },
    /// Read-modify-write: declared `ReadWrite`/`Inc`, an observed
    /// read-back/increment, or an output of a loop with no matching
    /// contract (conservative: unknown kernels may read their outputs
    /// through row slices invisibly).
    ReadWrite,
}

impl Touch {
    /// Does this touch consume the field's previous contents?
    pub fn reads(self) -> bool {
        !matches!(self, Touch::Write { .. })
    }

    /// Does this touch produce (all or part of) the field's contents?
    pub fn writes(self) -> bool {
        !matches!(self, Touch::Read { .. })
    }
}

/// One entry of a field's timeline.
#[derive(Debug, Clone)]
pub enum Event {
    /// Loop `at` (index into [`DefUseGraph::loops`]) touched the field.
    Loop { at: usize, touch: Touch },
    /// The field was halo-exchanged at `depth` after `at` loops had
    /// completed (an exchange both reads the interior strips and refreshes
    /// the ghosts).
    Exchange { at: usize, depth: usize },
}

/// One argument of a loop node.
#[derive(Debug, Clone)]
pub struct ArgNode {
    /// Run-time dataset name.
    pub name: String,
    pub touch: Touch,
    /// Useful bytes this loop moves for this argument: range points ×
    /// element size (one traversal — the STREAM convention the drivers use).
    pub bytes: f64,
}

/// One recorded loop in program order.
#[derive(Debug, Clone)]
pub struct LoopNode {
    pub name: String,
    pub dims: u8,
    pub range: [isize; 6],
    /// Iteration points of the range.
    pub points: usize,
    /// Output arguments, then input arguments (driver order).
    pub outs: Vec<ArgNode>,
    pub ins: Vec<ArgNode>,
    /// Whether a contract of matching `(name, #outs, #ins)` arity exists.
    pub matched: bool,
}

impl LoopNode {
    /// Useful bytes of the whole loop (all arguments, one traversal each).
    pub fn bytes(&self) -> f64 {
        self.outs.iter().map(|a| a.bytes).sum::<f64>()
            + self.ins.iter().map(|a| a.bytes).sum::<f64>()
    }
}

/// The whole-program def-use graph of one recorded run.
#[derive(Debug, Clone, Default)]
pub struct DefUseGraph {
    pub loops: Vec<LoopNode>,
    /// Per-field event timeline, in program order.
    pub fields: BTreeMap<String, Vec<Event>>,
    /// The raw exchange stream (also folded into `fields`).
    pub exchanges: Vec<ExchangeObs>,
}

fn range_points(range: [isize; 6]) -> usize {
    let span = |a: isize, b: isize| (b - a).max(0) as usize;
    span(range[0], range[1]) * span(range[2], range[3]) * span(range[4], range[5])
}

/// How many cells past the interior `[0, nx) × [0, ny) × [0, nz)` a read at
/// `offsets` over `range` reaches, on any axis and side (0 if none).
fn ghost_reach(
    range: [isize; 6],
    extent: (usize, usize, usize),
    offsets: impl Iterator<Item = (isize, isize, isize)>,
) -> isize {
    if range_points(range) == 0 {
        return 0;
    }
    let ext = [extent.0, extent.1, extent.2].map(|n| n as isize);
    let past = |o: [isize; 3]| {
        (0..3)
            .map(|a| (-range[2 * a] - o[a]).max(range[2 * a + 1] + o[a] - ext[a]))
            .fold(0, isize::max)
    };
    offsets.map(|(x, y, z)| past([x, y, z])).fold(0, isize::max)
}

/// Does `range` cover the whole interior `[0, nx) × [0, ny) × [0, nz)`?
fn covers(range: [isize; 6], extent: (usize, usize, usize)) -> bool {
    range[0] <= 0
        && range[1] >= extent.0 as isize
        && range[2] <= 0
        && range[3] >= extent.1 as isize
        && range[4] <= 0
        && range[5] >= extent.2 as isize
}

impl DefUseGraph {
    /// Build the graph from a recording and the app's declared contracts.
    pub fn build(specs: &[LoopSpec], rec: &Recording) -> Self {
        let mut loops = Vec::with_capacity(rec.loops.len());
        let mut fields: BTreeMap<String, Vec<Event>> = BTreeMap::new();
        let mut exchange_idx = 0usize;

        for (at, o) in rec.loops.iter().enumerate() {
            // Exchanges that fired before this loop.
            while exchange_idx < rec.exchanges.len() && rec.exchanges[exchange_idx].at <= at {
                let e = &rec.exchanges[exchange_idx];
                fields
                    .entry(e.dat.clone())
                    .or_default()
                    .push(Event::Exchange {
                        at: e.at,
                        depth: e.depth,
                    });
                exchange_idx += 1;
            }

            let spec = LoopSpec::find(specs, &o.name, o.outs.len(), o.ins.len());
            let points = range_points(o.range);
            let outs: Vec<ArgNode> = o
                .outs
                .iter()
                .enumerate()
                .map(|(idx, a)| {
                    let declared = spec.and_then(|s| s.outs.get(idx)).map(|s| s.access);
                    let touch = match declared {
                        // Declarations are authoritative: row-slice
                        // accessors cannot observe read-backs, so an
                        // observation alone cannot prove a pure write.
                        Some(Access::Write) if !a.read_back && !a.inced => Touch::Write {
                            full: covers(o.range, a.extent),
                        },
                        _ => Touch::ReadWrite,
                    };
                    ArgNode {
                        name: a.name.clone(),
                        touch,
                        bytes: (points * a.elem_bytes) as f64,
                    }
                })
                .collect();
            let ins: Vec<ArgNode> = o
                .ins
                .iter()
                .enumerate()
                .map(|(idx, a)| {
                    let declared = spec.and_then(|s| s.ins.get(idx)).map(|s| &s.stencil);
                    let radius = declared.map_or(0, |s| s.radius()).max(a.radius());
                    let offsets = declared.into_iter().flat_map(|s| s.offsets());
                    let offsets = offsets.chain(&a.offsets).copied();
                    ArgNode {
                        name: a.name.clone(),
                        touch: Touch::Read {
                            radius,
                            reach: ghost_reach(o.range, a.extent, offsets),
                        },
                        bytes: (points * a.elem_bytes) as f64,
                    }
                })
                .collect();

            for a in ins.iter().chain(outs.iter()) {
                fields
                    .entry(a.name.clone())
                    .or_default()
                    .push(Event::Loop { at, touch: a.touch });
            }
            loops.push(LoopNode {
                name: o.name.clone(),
                dims: o.dims,
                range: o.range,
                points,
                outs,
                ins,
                matched: spec.is_some(),
            });
        }
        // Trailing exchanges.
        for e in &rec.exchanges[exchange_idx..] {
            fields
                .entry(e.dat.clone())
                .or_default()
                .push(Event::Exchange {
                    at: e.at,
                    depth: e.depth,
                });
        }

        DefUseGraph {
            loops,
            fields,
            exchanges: rec.exchanges.clone(),
        }
    }

    /// Useful bytes of loops with indices in `lo..hi` (exclusive range).
    pub fn bytes_between(&self, lo: usize, hi: usize) -> f64 {
        self.loops[lo.min(self.loops.len())..hi.min(self.loops.len())]
            .iter()
            .map(|l| l.bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_ops::access::{with_recording_full, ArgSpec, Stencil};
    use bwb_ops::{par_loop2, Dat2, ExecMode, Profile, Range2};

    #[test]
    fn range_cover_and_points() {
        assert!(covers([0, 8, 0, 8, 0, 1], (8, 8, 1)));
        assert!(!covers([1, 8, 0, 8, 0, 1], (8, 8, 1)));
        assert!(!covers([0, 7, 0, 8, 0, 1], (8, 8, 1)));
        assert_eq!(range_points([0, 8, 2, 4, 0, 1]), 16);
    }

    #[test]
    fn ghost_reach_counts_only_points_past_the_interior() {
        let cells = [0, 8, 0, 6, 0, 1];
        let reach = |extent, offs: &[(isize, isize, isize)]| {
            ghost_reach(cells, extent, offs.iter().copied())
        };
        assert_eq!(reach((8, 6, 1), &[(0, 0, 0)]), 0);
        assert_eq!(reach((8, 6, 1), &[(-2, 0, 0), (2, 0, 0)]), 2);
        assert_eq!(reach((8, 6, 1), &[(0, 1, 0)]), 1);
        // A node field read at a cell's four corners stays interior.
        assert_eq!(reach((9, 7, 1), &[(0, 0, 0), (1, 1, 0)]), 0);
        assert_eq!(reach((9, 7, 1), &[(-1, 0, 0)]), 1);
        assert_eq!(
            ghost_reach([0, 0, 0, 6, 0, 1], (8, 6, 1), [(-3, 0, 0)].into_iter()),
            0
        );
    }

    #[test]
    fn graph_classifies_writes_reads_and_bytes() {
        let n = 8usize;
        let specs = vec![LoopSpec::new(
            "copy",
            vec![ArgSpec::write("b")],
            vec![ArgSpec::read("a", Stencil::point())],
        )];
        let mut a = Dat2::<f64>::new("a", n, n, 0);
        let mut b = Dat2::<f64>::new("b", n, n, 0);
        a.fill_interior(1.0);
        let ((), rec) = with_recording_full(|| {
            let mut p = Profile::new();
            par_loop2(
                &mut p,
                "copy",
                ExecMode::Serial,
                Range2::new(0, n as isize, 0, n as isize),
                &mut [&mut b],
                &[&a],
                0.0,
                |_i, _j, out, ins| out.set(0, ins.get(0, 0, 0)),
            );
        });
        let g = DefUseGraph::build(&specs, &rec);
        assert_eq!(g.loops.len(), 1);
        let l = &g.loops[0];
        assert!(l.matched);
        assert_eq!(l.points, n * n);
        assert_eq!(l.outs[0].touch, Touch::Write { full: true });
        assert_eq!(
            l.ins[0].touch,
            Touch::Read {
                radius: 0,
                reach: 0
            }
        );
        assert_eq!(l.bytes(), (2 * n * n * 8) as f64);
        assert_eq!(g.fields.len(), 2);
    }

    #[test]
    fn unmatched_loop_outputs_are_conservative() {
        let n = 4usize;
        let mut b = Dat2::<f64>::new("b", n, n, 0);
        let ((), rec) = with_recording_full(|| {
            let mut p = Profile::new();
            par_loop2(
                &mut p,
                "mystery",
                ExecMode::Serial,
                Range2::new(0, n as isize, 0, n as isize),
                &mut [&mut b],
                &[],
                0.0,
                |_i, _j, out, _ins| out.set(0, 1.0),
            );
        });
        let g = DefUseGraph::build(&[], &rec);
        assert!(!g.loops[0].matched);
        assert_eq!(g.loops[0].outs[0].touch, Touch::ReadWrite);
    }
}
