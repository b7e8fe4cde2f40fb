//! Race detector and checked-execution analyzer for the unstructured
//! (`bwb-op2`) engine.
//!
//! Operates on [`ULoopObs`] recordings: the exact `(dataset, source
//! element, target element, kind)` access set of each loop plus the
//! schedule it declared (the coloring it would run under in parallel).
//! Because recording forces serial execution, a *broken* coloring still
//! records cleanly — and is then proven unsafe here, rather than by racing.

use crate::violation::{Kind, Violation};
use bwb_op2::{UAccessObs, UKind, ULoopObs, ULoopSpec, UScheduleObs};
use bwb_ops::access::Access;
use std::collections::{BTreeMap, BTreeSet};

fn is_write(k: UKind) -> bool {
    matches!(k, UKind::Set | UKind::Inc)
}

fn arg_name(o: &ULoopObs, f: usize) -> String {
    o.out_names
        .get(f)
        .cloned()
        .unwrap_or_else(|| format!("#{f}"))
}

/// Check every recorded unstructured loop: access modes against the
/// declared contract, and write sets against the schedule (coloring
/// conflict-freedom, indirect overwrite overlap, direct-loop ownership).
pub fn check_unstructured(app: &str, specs: &[ULoopSpec], obs: &[ULoopObs]) -> Vec<Violation> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |kind: Kind| {
        if seen.insert(kind.clone()) {
            out.push(Violation {
                app: app.to_string(),
                kind,
            });
        }
    };

    for o in obs {
        let spec = specs
            .iter()
            .find(|s| s.name == o.name && s.outs.len() == o.out_names.len());
        let Some(spec) = spec else {
            push(Kind::UndeclaredLoop {
                loop_name: o.name.clone(),
                outs: o.out_names.len(),
                ins: 0,
            });
            continue;
        };

        // --- declared-mode checks per access -----------------------------
        for a in &o.accesses {
            let Some(arg) = spec.outs.get(a.f) else {
                continue;
            };
            let allowed = match a.kind {
                UKind::Set => matches!(arg.access, Access::Write | Access::ReadWrite),
                UKind::Get => arg.access == Access::ReadWrite,
                UKind::Inc => matches!(arg.access, Access::Inc | Access::ReadWrite),
            };
            if !allowed {
                push(Kind::AccessModeViolation {
                    loop_name: o.name.clone(),
                    arg: arg.name.clone(),
                    declared: arg.access.to_string(),
                    observed: match a.kind {
                        UKind::Set => "write",
                        UKind::Get => "read-back",
                        UKind::Inc => "increment",
                    }
                    .to_string(),
                });
            }
            if !arg.indirect && a.target != a.src {
                push(Kind::DirectWriteNotOwn {
                    loop_name: o.name.clone(),
                    dat: arg.name.clone(),
                    src: a.src,
                    target: a.target,
                });
            }
        }

        // --- schedule checks ---------------------------------------------
        match &o.schedule {
            UScheduleObs::Direct => {
                for a in &o.accesses {
                    if a.target != a.src {
                        push(Kind::DirectWriteNotOwn {
                            loop_name: o.name.clone(),
                            dat: arg_name(o, a.f),
                            src: a.src,
                            target: a.target,
                        });
                    }
                }
            }
            UScheduleObs::Colored {
                block_size,
                block_colors,
                ..
            } => {
                // Group writes by (dataset, target): the conflict unit.
                let mut writes: BTreeMap<(usize, usize), Vec<&UAccessObs>> = BTreeMap::new();
                for a in &o.accesses {
                    if is_write(a.kind) {
                        writes.entry((a.f, a.target)).or_default().push(a);
                    }
                }
                for ((f, target), ws) in writes {
                    // Same-color write/write through distinct blocks: the
                    // parallel color class would race. Writes from one block
                    // run in element order and cannot.
                    let mut by_color: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
                    for a in &ws {
                        let block = a.src / (*block_size).max(1);
                        let color = block_colors.get(block).copied().unwrap_or(0);
                        match by_color.get(&color) {
                            Some(&(prev_block, prev)) if prev_block != block => {
                                push(Kind::SameColorConflict {
                                    loop_name: o.name.clone(),
                                    dat: arg_name(o, f),
                                    target,
                                    color,
                                    src_a: prev,
                                    src_b: a.src,
                                });
                            }
                            Some(_) => {}
                            None => {
                                by_color.insert(color, (block, a.src));
                            }
                        }
                    }
                    // Overwrites (Set) overlapping with any other writer are
                    // order-dependent even across colors: increments commute,
                    // overwrites do not.
                    if ws.iter().any(|a| a.kind == UKind::Set) {
                        let srcs: BTreeSet<usize> = ws.iter().map(|a| a.src).collect();
                        if srcs.len() > 1 {
                            let mut it = srcs.iter();
                            let (a, b) = (*it.next().unwrap(), *it.next().unwrap());
                            push(Kind::IndirectWriteOverlap {
                                loop_name: o.name.clone(),
                                dat: arg_name(o, f),
                                target,
                                src_a: a,
                                src_b: b,
                            });
                        }
                    }
                }
            }
            // Gather/scatter applies staged writes in element order: overlap
            // has defined last-writer-wins semantics, nothing to prove.
            UScheduleObs::Gather => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_op2::{
        par_loop_block_colored, par_loop_colored, with_recording_u, BlockColoring, Coloring, DatU,
        ExecModeU, Map, Set, UArgSpec,
    };
    use bwb_ops::Profile;

    fn ring_mesh(n: usize) -> (Set, Set, Map) {
        let nodes = Set::new("nodes", n);
        let edges = Set::new("edges", n);
        let idx: Vec<u32> = (0..n)
            .flat_map(|e| [e as u32, ((e + 1) % n) as u32])
            .collect();
        let map = Map::new("e2n", &edges, &nodes, 2, idx);
        (nodes, edges, map)
    }

    fn inc_specs() -> Vec<ULoopSpec> {
        vec![ULoopSpec::new(
            "inc",
            vec![UArgSpec::new("acc", Access::Inc, true)],
        )]
    }

    #[test]
    fn valid_greedy_coloring_passes() {
        let n = 17;
        let (nodes, _e, map) = ring_mesh(n);
        let coloring = Coloring::greedy(n, &[&map]);
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let ((), obs) = with_recording_u(|| {
            let mut p = Profile::new();
            let m = &map;
            par_loop_colored(
                &mut p,
                "inc",
                ExecModeU::Colored,
                &coloring,
                &mut [&mut acc],
                16,
                1.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 0, 1.0);
                    out.add(0, m.get(e, 1), 0, 1.0);
                },
            );
        });
        assert_eq!(obs.len(), 1);
        assert!(matches!(obs[0].schedule, UScheduleObs::Colored { .. }));
        let v = check_unstructured("t", &inc_specs(), &obs);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn valid_block_coloring_with_shared_nodes_inside_blocks_passes() {
        // Blocks of 4 consecutive ring edges: inside a block, edge e and
        // e + 1 share a node, which is safe because a block runs in order.
        // Only distinct blocks of one color may not share one.
        let n = 16;
        let (nodes, _e, map) = ring_mesh(n);
        let blocks = BlockColoring::greedy(n, 4, &[&map]);
        assert!(blocks.validate(&[&map]));
        assert!(blocks.n_colors >= 2);
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let ((), obs) = with_recording_u(|| {
            let mut p = Profile::new();
            let m = &map;
            par_loop_block_colored(
                &mut p,
                "inc",
                ExecModeU::Colored,
                &blocks,
                &mut [&mut acc],
                16,
                1.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 0, 1.0);
                    out.add(0, m.get(e, 1), 0, 1.0);
                },
            );
        });
        assert!(matches!(
            obs[0].schedule,
            UScheduleObs::Colored { block_size: 4, .. }
        ));
        let v = check_unstructured("t", &inc_specs(), &obs);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn deliberately_broken_block_coloring_is_caught() {
        // Forge a one-color block coloring over a ring mesh: adjacent edges
        // share a node, so a single color class must conflict.
        let n = 12;
        let (nodes, _e, map) = ring_mesh(n);
        let broken = BlockColoring {
            block_size: 4,
            set_size: n,
            block_colors: vec![0; n.div_ceil(4)],
            n_colors: 1,
            by_color: vec![(0..n.div_ceil(4) as u32).collect()],
        };
        assert!(!broken.validate(&[&map]), "forged coloring must be invalid");
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let ((), obs) = with_recording_u(|| {
            let mut p = Profile::new();
            let m = &map;
            par_loop_block_colored(
                &mut p,
                "inc",
                ExecModeU::Colored,
                &broken,
                &mut [&mut acc],
                16,
                1.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 0, 1.0);
                    out.add(0, m.get(e, 1), 0, 1.0);
                },
            );
        });
        let v = check_unstructured("t", &inc_specs(), &obs);
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, Kind::SameColorConflict { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn indirect_overwrite_overlap_is_flagged() {
        let n = 8;
        let (nodes, _e, map) = ring_mesh(n);
        let coloring = Coloring::greedy(n, &[&map]);
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let specs = vec![ULoopSpec::new(
            "scatter",
            vec![UArgSpec::new("acc", Access::Write, true)],
        )];
        let ((), obs) = with_recording_u(|| {
            let mut p = Profile::new();
            let m = &map;
            par_loop_colored(
                &mut p,
                "scatter",
                ExecModeU::Colored,
                &coloring,
                &mut [&mut acc],
                16,
                1.0,
                |e, out| {
                    // Overwrite (not increment) both endpoints: two edges
                    // hit every node, so the result is order-dependent even
                    // under a valid coloring.
                    out.set(0, m.get(e, 0), 0, e as f64);
                    out.set(0, m.get(e, 1), 0, e as f64);
                },
            );
        });
        let v = check_unstructured("t", &specs, &obs);
        assert!(
            v.iter()
                .any(|x| matches!(x.kind, Kind::IndirectWriteOverlap { .. })),
            "{v:?}"
        );
    }
}
