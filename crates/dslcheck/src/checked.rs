//! Checked-execution analyzer for the structured (`bwb-ops`) engine:
//! diff recorded loop observations against declared contracts.
//!
//! Loops are matched to declarations positionally by
//! `(name, #outs, #ins)` — double-buffered apps rotate dataset names through
//! `mem::swap`, so runtime names identify *buffers*, not roles.

use crate::violation::{Kind, Violation};
use bwb_ops::access::{Access, LoopObs, LoopSpec};
use std::collections::BTreeSet;

/// Diff every recorded structured loop against its declared contract.
/// Violations are deduplicated (apps invoke the same loop every iteration).
pub fn check_structured(app: &str, specs: &[LoopSpec], obs: &[LoopObs]) -> Vec<Violation> {
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
        let Some(spec) = LoopSpec::find(specs, &o.name, o.outs.len(), o.ins.len()) else {
            push(Kind::UndeclaredLoop {
                loop_name: o.name.clone(),
                outs: o.outs.len(),
                ins: o.ins.len(),
            });
            continue;
        };

        for (arg_obs, arg_spec) in o.ins.iter().zip(&spec.ins) {
            if arg_spec.stencil.radius() > arg_obs.halo {
                push(Kind::StencilExceedsHalo {
                    loop_name: o.name.clone(),
                    arg: arg_spec.name.clone(),
                    radius: arg_spec.stencil.radius(),
                    halo: arg_obs.halo,
                });
            }
            for &(di, dj, dk) in &arg_obs.offsets {
                if !arg_spec.stencil.contains(di, dj, dk) {
                    push(Kind::UndeclaredOffset {
                        loop_name: o.name.clone(),
                        arg: arg_spec.name.clone(),
                        offset: (di, dj, dk),
                    });
                }
            }
        }

        for (arg_obs, arg_spec) in o.outs.iter().zip(&spec.outs) {
            let declared = arg_spec.access;
            let bad = (arg_obs.wrote && !matches!(declared, Access::Write | Access::ReadWrite))
                || (arg_obs.read_back && declared != Access::ReadWrite)
                || (arg_obs.inced && !matches!(declared, Access::Inc | Access::ReadWrite));
            if bad {
                let mut observed = Vec::new();
                if arg_obs.wrote {
                    observed.push("write");
                }
                if arg_obs.read_back {
                    observed.push("read-back");
                }
                if arg_obs.inced {
                    observed.push("increment");
                }
                push(Kind::AccessModeViolation {
                    loop_name: o.name.clone(),
                    arg: arg_spec.name.clone(),
                    declared: declared.to_string(),
                    observed: observed.join("+"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_ops::{par_loop2, with_recording, ArgSpec, Dat2, ExecMode, Profile, Range2, Stencil};

    fn diffuse(specs: &[LoopSpec]) -> Vec<Violation> {
        let n = 8;
        let mut u = Dat2::<f64>::new("u", n, n, 1);
        let mut v = Dat2::<f64>::new("v", n, n, 1);
        u.fill_interior(1.0);
        let ((), obs) = with_recording(|| {
            let mut p = Profile::new();
            par_loop2(
                &mut p,
                "diffuse",
                ExecMode::Serial,
                Range2::new(0, n as isize, 0, n as isize),
                &mut [&mut v],
                &[&u],
                4.0,
                |_i, _j, out, ins| {
                    let c = ins.get(0, 0, 0);
                    let lap =
                        ins.get(0, -1, 0) + ins.get(0, 1, 0) + ins.get(0, 0, -1) + ins.get(0, 0, 1)
                            - 4.0 * c;
                    out.set(0, c + 0.1 * lap);
                },
            );
        });
        check_structured("t", specs, &obs)
    }

    #[test]
    fn correct_declaration_passes() {
        let specs = vec![LoopSpec::new(
            "diffuse",
            vec![ArgSpec::write("v")],
            vec![ArgSpec::read("u", Stencil::plus2(1))],
        )];
        assert!(diffuse(&specs).is_empty());
    }

    #[test]
    fn under_declared_stencil_is_reported() {
        // Declared a point read; kernel reads the 4 star neighbours too.
        let specs = vec![LoopSpec::new(
            "diffuse",
            vec![ArgSpec::write("v")],
            vec![ArgSpec::read("u", Stencil::point())],
        )];
        let v = diffuse(&specs);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v
            .iter()
            .all(|x| matches!(x.kind, Kind::UndeclaredOffset { .. })));
    }

    #[test]
    fn unmatched_loop_is_reported() {
        let v = diffuse(&[]);
        assert!(matches!(v[0].kind, Kind::UndeclaredLoop { .. }));
    }

    #[test]
    fn mode_violation_on_write_into_read_only_inc() {
        let specs = vec![LoopSpec::new(
            "diffuse",
            vec![ArgSpec::new("v", Access::Inc, Stencil::point())],
            vec![ArgSpec::read("u", Stencil::plus2(1))],
        )];
        let v = diffuse(&specs);
        assert!(v
            .iter()
            .any(|x| matches!(x.kind, Kind::AccessModeViolation { .. })));
    }
}
