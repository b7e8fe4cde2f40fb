//! Derived traffic accounting and streaming-store eligibility.
//!
//! Rather than hand-declaring read/write volumes, this module *derives* a
//! [`TrafficModel`] per recorded loop from the def-use graph (range points ×
//! element size per argument, `ReadWrite` outputs counted on both sides) and
//! then decides, per pure full-overwrite output, whether a non-temporal
//! store is safe: the written field must not be re-read before it would
//! have left cache anyway. The derived models are cross-checked against
//! `bwb_memsim::stores`' hand-written STREAM constants by recording the
//! reference Triad and dot kernels — the two accountings must agree
//! exactly, which is what lets the perf-model figures consume derived
//! rather than declared traffic.

use crate::graph::{ArgNode, DefUseGraph, Event, LoopNode, Touch};
use crate::violation::{Kind, Violation};
use bwb_memsim::{StoreMode, TrafficModel};
use bwb_ops::access::{with_recording_full, ArgSpec, LoopSpec, Stencil};
use bwb_ops::plan::NtCert;
use bwb_ops::{par_loop2, par_loop2_reduce, Dat2, ExecMode, Profile, Range2};
use std::collections::BTreeMap;

/// Default cache-residency window: the Xeon MAX's 2 MiB per-core L2, the
/// cache that bounds producer→consumer reuse for a core-local traversal.
/// A full pure write whose next reader is closer than this (in intervening
/// streamed bytes) still finds its lines in cache, so a streaming store
/// would force the reader to memory and forfeit the RFO saving.
pub const DEFAULT_RESIDENCY_BYTES: f64 = 2.0 * 1024.0 * 1024.0;

/// Traffic verdict for one loop of one app.
#[derive(Debug, Clone)]
pub struct LoopTraffic {
    pub at: usize,
    pub name: String,
    /// Whole-loop useful traffic (bytes, not per-point).
    pub traffic: TrafficModel,
    /// Output fields certified safe for non-temporal stores.
    pub nt_eligible: Vec<String>,
    /// Useful write bytes of the certified outputs.
    pub nt_eligible_write_bytes: f64,
}

/// Whole-app derived traffic summary.
#[derive(Debug, Clone, Default)]
pub struct AppTraffic {
    pub loops: Vec<LoopTraffic>,
}

impl AppTraffic {
    pub fn read_bytes(&self) -> f64 {
        self.loops.iter().map(|l| l.traffic.read_bytes).sum()
    }

    pub fn write_bytes(&self) -> f64 {
        self.loops.iter().map(|l| l.traffic.write_bytes).sum()
    }

    pub fn nt_eligible_write_bytes(&self) -> f64 {
        self.loops.iter().map(|l| l.nt_eligible_write_bytes).sum()
    }

    /// Bytes the memory system moves with every store write-allocating.
    pub fn moved_bytes_write_allocate(&self) -> f64 {
        TrafficModel::new(self.read_bytes(), self.write_bytes())
            .moved_bytes(StoreMode::WriteAllocate)
    }

    /// Bytes moved when every *certified* output uses streaming stores
    /// (each eligible written byte saves one RFO-read byte).
    pub fn moved_bytes_streaming_eligible(&self) -> f64 {
        self.moved_bytes_write_allocate() - self.nt_eligible_write_bytes()
    }

    /// Fraction of write-allocate traffic the certified streaming stores
    /// save. This is the per-app "elidable traffic" number the
    /// experiment tables report.
    pub fn elidable_fraction(&self) -> f64 {
        let wa = self.moved_bytes_write_allocate();
        if wa == 0.0 {
            0.0
        } else {
            self.nt_eligible_write_bytes() / wa
        }
    }

    /// Upper-bound speedup of enabling streaming stores on exactly the
    /// certified outputs (traffic ratio, same convention as
    /// [`TrafficModel::streaming_store_gain`]).
    pub fn streaming_gain_bound(&self) -> f64 {
        let after = self.moved_bytes_streaming_eligible();
        if after == 0.0 {
            1.0
        } else {
            self.moved_bytes_write_allocate() / after
        }
    }
}

/// Next event index at which `name` is consumed after loop `at`: a read or
/// read-write by a later loop, or a halo exchange (packing reads the
/// interior). Returns the loop index (or exchange position) of that use.
fn next_use_after(events: &[Event], at: usize) -> Option<usize> {
    let mut seen_self = false;
    for ev in events {
        match ev {
            Event::Loop { at: a, touch } => {
                if *a == at {
                    seen_self = true;
                    continue;
                }
                if seen_self && *a > at && touch.reads() {
                    return Some(*a);
                }
                // A later full overwrite kills the value before any read.
                if seen_self && *a > at && matches!(touch, Touch::Write { full: true }) {
                    return None;
                }
            }
            Event::Exchange { at: a, .. } => {
                if seen_self && *a > at {
                    return Some(*a);
                }
            }
        }
    }
    None
}

/// Derive per-loop traffic and streaming-store eligibility from the graph.
///
/// An output is eligible iff it is a pure full overwrite ([`Touch::Write`]
/// with `full`) and its next use is either absent or separated from the
/// write by at least `residency_bytes` of streamed traffic. The separation
/// is estimated as half the writer's and reader's own traversals plus all
/// loops strictly between them — the average reuse distance between
/// writing and re-reading the same point across full-grid sweeps.
pub fn derive(g: &DefUseGraph, residency_bytes: f64) -> AppTraffic {
    let mut app = AppTraffic::default();
    for (at, l) in g.loops.iter().enumerate() {
        let mut read = 0.0;
        let mut write = 0.0;
        for a in &l.ins {
            read += a.bytes;
        }
        let mut nt_eligible = Vec::new();
        let mut nt_bytes = 0.0;
        for a in &l.outs {
            write += a.bytes;
            match a.touch {
                // Outputs are never classified `Read`, but the enum is
                // shared with inputs; treat it like a read-back if it ever
                // appears.
                Touch::ReadWrite | Touch::Read { .. } => read += a.bytes,
                Touch::Write { full } => {
                    let far_enough = match next_use_after(&g.fields[&a.name], at) {
                        None => true,
                        Some(user) => {
                            let between = g.bytes_between(at + 1, user);
                            let edge = (l.bytes()
                                + g.loops.get(user).map(|u| u.bytes()).unwrap_or(0.0))
                                / 2.0;
                            between + edge >= residency_bytes
                        }
                    };
                    if full && far_enough {
                        nt_eligible.push(a.name.clone());
                        nt_bytes += a.bytes;
                    }
                }
            }
        }
        app.loops.push(LoopTraffic {
            at,
            name: l.name.clone(),
            traffic: TrafficModel::new(read, write),
            nt_eligible,
            nt_eligible_write_bytes: nt_bytes,
        });
    }
    app
}

/// Streaming-store certificates for an optimizing executor.
///
/// The runtime gates non-temporal staging by `(loop name, dat name)`, so a
/// pair is certified only under the **all-occurrence rule**: every recorded
/// invocation of that loop name writing that dat must be independently
/// eligible. One iteration where the output is re-read inside the residency
/// window (e.g. the first steps of a double-buffered scheme before the
/// rotation settles) kills the certificate — the executor cannot tell
/// iterations apart at dispatch time.
/// Certificates are additionally gated on a minimum *written-run* size:
/// the NT drivers stage one contiguous i-row at a time and stream it with
/// `nt_copy`, so the per-run overhead (staging-buffer fill, the streamed
/// copy's setup, the fence before the row is readable) amortizes over the
/// run length. A run of only a few cache lines is overhead-dominated —
/// measured as a >2x slowdown on the 64³ f32 acoustic benchmark (256-byte
/// rows) — while runs past [`DEFAULT_NT_MIN_RUN_BYTES`] recoup the
/// write-allocate saving. The floor binds at CI-scale grids; paper-scale
/// rows are kilobytes and pass untouched.
pub const DEFAULT_NT_MIN_RUN_BYTES: f64 = 1024.0;

/// Streamed-run bytes of one output: the contiguous i-row the NT driver
/// stages and streams per copy (`range-i span × element size`).
fn run_bytes(l: &LoopNode, a: &ArgNode) -> f64 {
    let span = |lo: isize, hi: isize| (hi - lo).max(1) as f64;
    let rows = span(l.range[2], l.range[3]) * span(l.range[4], l.range[5]);
    a.bytes / rows
}

pub fn nt_certs(g: &DefUseGraph, residency_bytes: f64) -> Vec<NtCert> {
    nt_certs_with_floor(g, residency_bytes, DEFAULT_NT_MIN_RUN_BYTES)
}

/// [`nt_certs`] with an explicit written-run floor: a `(loop, dat)` pair
/// is certified only if **every** invocation is reuse-eligible *and*
/// streams contiguous runs of at least `min_run_bytes`.
pub fn nt_certs_with_floor(
    g: &DefUseGraph,
    residency_bytes: f64,
    min_run_bytes: f64,
) -> Vec<NtCert> {
    let t = derive(g, residency_bytes);
    let mut tally: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (at, l) in g.loops.iter().enumerate() {
        for a in &l.outs {
            let e = tally
                .entry((l.name.clone(), a.name.clone()))
                .or_insert((0, 0));
            e.1 += 1;
            if run_bytes(l, a) >= min_run_bytes
                && t.loops[at].nt_eligible.iter().any(|n| n == &a.name)
            {
                e.0 += 1;
            }
        }
    }
    tally
        .into_iter()
        .filter(|(_, (eligible, total))| *total > 0 && eligible == total)
        .map(|((loop_name, dat), _)| NtCert { loop_name, dat })
        .collect()
}

/// Check claimed streaming-store sites against the derived eligibility.
/// Each claim is `(loop_name, dat)`; a claim the analysis cannot certify
/// yields a [`Kind::StreamingStoreUnsafe`] with the reason. As with fusion,
/// the registered apps claim nothing.
pub fn check_streaming_claims(
    app: &str,
    g: &DefUseGraph,
    claims: &[(&str, &str)],
    residency_bytes: f64,
) -> Vec<Violation> {
    let t = derive(g, residency_bytes);
    let mut out = Vec::new();
    for (loop_name, dat) in claims {
        let certified = t
            .loops
            .iter()
            .any(|l| l.name == *loop_name && l.nt_eligible.iter().any(|n| n == dat));
        if certified {
            continue;
        }
        // Reconstruct why: pick the most specific failing condition.
        let reason = g
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name == *loop_name)
            .flat_map(|(at, l)| l.outs.iter().map(move |a| (at, a)))
            .filter(|(_, a)| a.name == *dat)
            .map(|(at, a)| match a.touch {
                Touch::ReadWrite | Touch::Read { .. } => {
                    "the kernel reads the output back in-loop".to_string()
                }
                Touch::Write { full: false } => {
                    "the loop does not fully overwrite the dataset".to_string()
                }
                Touch::Write { full: true } => match next_use_after(&g.fields[&a.name], at) {
                    Some(user) => format!(
                        "re-read within the cache-residency window (next use at loop #{user})"
                    ),
                    None => "not certified".to_string(),
                },
            })
            .next()
            .unwrap_or_else(|| format!("loop '{loop_name}' has no output '{dat}'"));
        out.push(Violation {
            app: app.to_string(),
            kind: Kind::StreamingStoreUnsafe {
                loop_name: (*loop_name).to_string(),
                dat: (*dat).to_string(),
                reason,
            },
        });
    }
    out
}

/// Record the reference STREAM Triad (`a[i] = b[i] + s·c[i]`) through the
/// structured engine and derive its per-point traffic model. Used to
/// cross-check the derived accounting against
/// [`TrafficModel::stream_triad`] — the two must agree exactly.
pub fn reference_triad_traffic() -> TrafficModel {
    let n = 64usize;
    let specs = vec![LoopSpec::new(
        "stream_triad",
        vec![ArgSpec::write("a")],
        vec![
            ArgSpec::read("b", Stencil::point()),
            ArgSpec::read("c", Stencil::point()),
        ],
    )];
    let mut a = Dat2::<f64>::new("a", n, 1, 0);
    let mut b = Dat2::<f64>::new("b", n, 1, 0);
    let mut c = Dat2::<f64>::new("c", n, 1, 0);
    b.fill_interior(1.0);
    c.fill_interior(2.0);
    let ((), rec) = with_recording_full(|| {
        let mut p = Profile::new();
        par_loop2(
            &mut p,
            "stream_triad",
            ExecMode::Serial,
            Range2::new(0, n as isize, 0, 1),
            &mut [&mut a],
            &[&b, &c],
            2.0,
            |_i, _j, out, ins| out.set(0, ins.get(0, 0, 0) + 0.4 * ins.get(1, 0, 0)),
        );
    });
    let g = DefUseGraph::build(&specs, &rec);
    per_point(&derive(&g, DEFAULT_RESIDENCY_BYTES), n)
}

/// Record the reference STREAM dot product (`sum += a[i]·b[i]`) and derive
/// its per-point traffic model (reads only — must equal
/// [`TrafficModel::stream_dot`]).
pub fn reference_dot_traffic() -> TrafficModel {
    let n = 64usize;
    let specs = vec![LoopSpec::new(
        "stream_dot",
        Vec::new(),
        vec![
            ArgSpec::read("a", Stencil::point()),
            ArgSpec::read("b", Stencil::point()),
        ],
    )];
    let mut a = Dat2::<f64>::new("a", n, 1, 0);
    let mut b = Dat2::<f64>::new("b", n, 1, 0);
    a.fill_interior(1.0);
    b.fill_interior(2.0);
    let (_sum, rec) = with_recording_full(|| {
        let mut p = Profile::new();
        par_loop2_reduce(
            &mut p,
            "stream_dot",
            ExecMode::Serial,
            Range2::new(0, n as isize, 0, 1),
            &[&a, &b],
            0.0f64,
            2.0,
            |_i, _j, ins| ins.get(0, 0, 0) * ins.get(1, 0, 0),
            |x, y| x + y,
        );
    });
    let g = DefUseGraph::build(&specs, &rec);
    per_point(&derive(&g, DEFAULT_RESIDENCY_BYTES), n)
}

fn per_point(t: &AppTraffic, points: usize) -> TrafficModel {
    TrafficModel::new(
        t.read_bytes() / points as f64,
        t.write_bytes() / points as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_triad_matches_memsim_constant() {
        let derived = reference_triad_traffic();
        let declared = TrafficModel::stream_triad();
        assert_eq!(derived.read_bytes, declared.read_bytes);
        assert_eq!(derived.write_bytes, declared.write_bytes);
        // And the streaming-store bound carries over: 4/3 for Triad.
        assert!((derived.streaming_store_gain() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn derived_dot_matches_memsim_constant() {
        let derived = reference_dot_traffic();
        let declared = TrafficModel::stream_dot();
        assert_eq!(derived.read_bytes, declared.read_bytes);
        assert_eq!(derived.write_bytes, declared.write_bytes);
        assert_eq!(derived.streaming_store_gain(), 1.0);
    }

    #[test]
    fn triad_output_is_streaming_eligible() {
        // The reference Triad output is never re-read: NT-eligible, and
        // the certified gain bound equals the kernel's 4/3.
        let n = 64usize;
        let specs = vec![LoopSpec::new(
            "stream_triad",
            vec![ArgSpec::write("a")],
            vec![
                ArgSpec::read("b", Stencil::point()),
                ArgSpec::read("c", Stencil::point()),
            ],
        )];
        let mut a = Dat2::<f64>::new("a", n, 1, 0);
        let b = Dat2::<f64>::new("b", n, 1, 0);
        let c = Dat2::<f64>::new("c", n, 1, 0);
        let ((), rec) = with_recording_full(|| {
            let mut p = Profile::new();
            par_loop2(
                &mut p,
                "stream_triad",
                ExecMode::Serial,
                Range2::new(0, n as isize, 0, 1),
                &mut [&mut a],
                &[&b, &c],
                2.0,
                |_i, _j, out, ins| out.set(0, ins.get(0, 0, 0) + 0.4 * ins.get(1, 0, 0)),
            );
        });
        let g = DefUseGraph::build(&specs, &rec);
        let t = derive(&g, DEFAULT_RESIDENCY_BYTES);
        assert_eq!(t.loops[0].nt_eligible, vec!["a".to_string()]);
        assert!((t.streaming_gain_bound() - 4.0 / 3.0).abs() < 1e-12);
    }

    /// Record one full-overwrite pass (`a[i,j] = b[i,j]`) over an `n × n`
    /// f64 grid whose output is never re-read.
    fn never_reread_rec(n: usize) -> DefUseGraph {
        let specs = vec![LoopSpec::new(
            "copy",
            vec![ArgSpec::write("a")],
            vec![ArgSpec::read("b", Stencil::point())],
        )];
        let mut a = Dat2::<f64>::new("a", n, n, 0);
        let b = Dat2::<f64>::new("b", n, n, 0);
        let ((), rec) = with_recording_full(|| {
            let mut p = Profile::new();
            par_loop2(
                &mut p,
                "copy",
                ExecMode::Serial,
                Range2::new(0, n as isize, 0, n as isize),
                &mut [&mut a],
                &[&b],
                0.0,
                |_i, _j, out, ins| out.set(0, ins.get(0, 0, 0)),
            );
        });
        DefUseGraph::build(&specs, &rec)
    }

    #[test]
    fn short_written_runs_are_not_certified_despite_eligibility() {
        // 64×64 f64: reuse analysis says eligible (never re-read), but the
        // streamed runs are 512-byte rows — under the run floor, where the
        // per-row staging overhead dominates — so the cert is withheld.
        let g = never_reread_rec(64);
        let t = derive(&g, DEFAULT_RESIDENCY_BYTES);
        assert_eq!(t.loops[0].nt_eligible, vec!["a".to_string()]);
        assert!(nt_certs(&g, DEFAULT_RESIDENCY_BYTES).is_empty());
        // Dropping the floor recovers the cert, isolating the gate.
        let certs = nt_certs_with_floor(&g, DEFAULT_RESIDENCY_BYTES, 0.0);
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].loop_name, "copy");
        assert_eq!(certs[0].dat, "a");
    }

    #[test]
    fn long_written_runs_are_certified() {
        // 512×512 f64: 4 KiB rows clear the run floor, so the certificate
        // is issued.
        let g = never_reread_rec(512);
        let certs = nt_certs(&g, DEFAULT_RESIDENCY_BYTES);
        assert_eq!(certs.len(), 1);
        assert_eq!(certs[0].loop_name, "copy");
        assert_eq!(certs[0].dat, "a");
    }
}
