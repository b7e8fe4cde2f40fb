//! Plan-guided optimizing executors.
//!
//! Every entry point here consumes an [`OptPlan`] produced by the
//! `dslcheck` dataflow analyzers and *refuses* to apply a transform the
//! plan does not certify:
//!
//! * [`fused2_rows`] / [`fused3_planes`] — run a certified fusion group's
//!   member loops interleaved over one traversal (per row within the
//!   parallel partition), so shared fields are produced and consumed while
//!   still cache-resident instead of making one full memory round trip per
//!   loop. Certification (all-pairs radius-0 crossings) is exactly what
//!   makes the interleaving bit-identical: each member reads only
//!   current-row values that earlier members have already written.
//! * [`par_loop2_rows_nt`] — route certified write-only, no-reuse outputs
//!   through non-temporal stores ([`crate::ntstore`]): the kernel writes
//!   into a cache-resident per-row staging buffer, which is then streamed
//!   to the destination row, skipping the write-allocate read.
//!
//! All executors delegate to (or error like) the plain drivers while a
//! dataflow recording is active — recordings must observe the unoptimized
//! schedule they certify.

use crate::access;
use crate::exec::{
    rows_of, run, ExecMode, Field, Member, RView, Range2, Range3, RowAt, RowIn, RowIn2, RowIn3,
    RowOut, RowOut2, RowOut3, WView, NO_FOLD,
};
use crate::field::{Dat2, Dat3};
use crate::ntstore::{nt_copy, NtElem};
use crate::plan::{OptPlan, PlanError};
use crate::profile::Profile;
use std::sync::Mutex;

/// One member of a fused group: which store fields it writes/reads and its
/// row kernel `K` (the shape [`crate::par_loop2_rows`] or
/// [`crate::par_loop3_planes`] takes).
pub struct FusedLoop<K: ?Sized> {
    pub name: String,
    /// Indices into the *mutable* store passed to the fused executor.
    pub outs: Vec<usize>,
    /// Indices into the combined `[store_mut..., store_ro...]` space.
    pub ins: Vec<usize>,
    pub flops_per_point: f64,
    pub kernel: Box<K>,
}

/// One member of a 2-D fused group ([`fused2_rows`]).
pub type FusedLoop2<T> = FusedLoop<dyn Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Send + Sync>;
/// One member of a 3-D fused group ([`fused3_planes`]).
pub type FusedLoop3<T> = FusedLoop<dyn Fn(isize, isize, &mut RowOut3<T>, &RowIn3<T>) + Send + Sync>;

impl<T> FusedLoop2<T> {
    pub fn new(
        name: &str,
        outs: &[usize],
        ins: &[usize],
        flops_per_point: f64,
        kernel: impl Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Send + Sync + 'static,
    ) -> Self {
        FusedLoop {
            name: name.to_string(),
            outs: outs.to_vec(),
            ins: ins.to_vec(),
            flops_per_point,
            kernel: Box::new(kernel),
        }
    }
}

impl<T> FusedLoop3<T> {
    pub fn new(
        name: &str,
        outs: &[usize],
        ins: &[usize],
        flops_per_point: f64,
        kernel: impl Fn(isize, isize, &mut RowOut3<T>, &RowIn3<T>) + Send + Sync + 'static,
    ) -> Self {
        FusedLoop {
            name: name.to_string(),
            outs: outs.to_vec(),
            ins: ins.to_vec(),
            flops_per_point,
            kernel: Box::new(kernel),
        }
    }
}

/// Execute a certified fusion group of 2-D row-kernel loops in one
/// traversal.
///
/// `store_mut` holds every field any member writes (and possibly reads);
/// `store_ro` holds read-only inputs. Member `ins` index the combined
/// `[store_mut..., store_ro...]` space, member `outs` index `store_mut`.
/// Per-loop profile records use the same byte/FLOP formulas as
/// [`crate::par_loop2_rows`], so the *modelled* traffic is unchanged and
/// any reduction shows up only in measured time and cachesim replays.
pub fn fused2_rows<T>(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range2,
    store_mut: &mut [&mut Dat2<T>],
    store_ro: &[&Dat2<T>],
    loops: &[FusedLoop2<T>],
    plan: &OptPlan,
) -> Result<(), PlanError>
where
    T: Copy + Send + Sync,
{
    let call =
        |l: &FusedLoop2<T>, j, _k, out: &mut RowOut2<T>, inp: &RowIn2<T>| (l.kernel)(j, out, inp);
    fused(
        profile,
        mode,
        range.into(),
        store_mut,
        store_ro,
        loops,
        plan,
        call,
    )
}

/// Execute a certified fusion group of 3-D plane/row-kernel loops in one
/// traversal (see [`fused2_rows`]). Members interleave per `j`-row within
/// each `k`-plane; Rayon partitions over `k`.
pub fn fused3_planes<T>(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range3,
    store_mut: &mut [&mut Dat3<T>],
    store_ro: &[&Dat3<T>],
    loops: &[FusedLoop3<T>],
    plan: &OptPlan,
) -> Result<(), PlanError>
where
    T: Copy + Send + Sync,
{
    let call =
        |l: &FusedLoop3<T>, j, k, out: &mut RowOut3<T>, inp: &RowIn3<T>| (l.kernel)(j, k, out, inp);
    fused(profile, mode, range, store_mut, store_ro, loops, plan, call)
}

/// The fused executor of either rank: per row `(j, k)`, every member's
/// kernel in group order, through `call`.
#[allow(clippy::too_many_arguments)]
fn fused<T, F, K, C, const D: usize>(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range3,
    store_mut: &mut [&mut F],
    store_ro: &[&F],
    loops: &[FusedLoop<K>],
    plan: &OptPlan,
    call: C,
) -> Result<(), PlanError>
where
    T: Copy + Send + Sync,
    F: Field<T, D>,
    K: ?Sized + Sync,
    C: Fn(&FusedLoop<K>, isize, isize, &mut RowOut<T, D>, &RowIn<T, D>) + Sync,
{
    let names: Vec<&str> = loops.iter().map(|l| l.name.as_str()).collect();
    if access::recording_active() {
        return Err(PlanError::RecordingActive);
    }
    if !plan.certifies_fusion(&names) {
        return Err(PlanError::UncertifiedFusion {
            names: names.iter().map(|s| s.to_string()).collect(),
        });
    }
    let n_mut = store_mut.len();
    for l in loops {
        for &f in &l.outs {
            assert!(f < n_mut, "loop {:?}: out index {f} outside store", l.name);
        }
        for &f in &l.ins {
            assert!(
                f < n_mut + store_ro.len(),
                "loop {:?}: in index {f} outside store",
                l.name
            );
        }
    }
    let fields: Vec<WView<T>> = store_mut.iter_mut().map(|d| WView::of(&mut **d)).collect();
    let ro: Vec<RView<T>> = store_ro.iter().map(|d| RView::of(*d)).collect();
    // Per-member view subsets over the shared store.
    let w_subs: Vec<Vec<WView<T>>> = loops
        .iter()
        .map(|l| l.outs.iter().map(|&f| fields[f]).collect())
        .collect();
    let r_subs: Vec<Vec<RView<T>>> = loops
        .iter()
        .map(|l| {
            l.ins
                .iter()
                .map(|&f| match f.checked_sub(n_mut) {
                    None => fields[f].read(),
                    Some(r) => ro[r],
                })
                .collect()
        })
        .collect();
    let item = |outer: isize| {
        for at in rows_of::<D>(&range, outer, false) {
            for (l, (w, r)) in loops.iter().zip(w_subs.iter().zip(&r_subs)) {
                call(l, at.j, at.k, &mut RowOut::at(w, at), &RowIn::at(r, at));
            }
        }
    };
    let members: Vec<Member> = loops
        .iter()
        .map(|l| Member {
            name: &l.name,
            fields: l.outs.len() + l.ins.len(),
            flops_per_point: l.flops_per_point,
        })
        .collect();
    let label = format!("fused:{}", names.join("+"));
    let args = || unreachable!("fused groups refuse to run while recording");
    run::<T, (), _, _, D>(
        profile,
        mode,
        range,
        &label,
        &members,
        &args,
        (),
        item,
        NO_FOLD,
    );
    Ok(())
}

/// [`crate::par_loop2_rows`] with certified outputs routed through
/// non-temporal stores.
///
/// Outputs the plan certifies for `(name, dat)` are written by the kernel
/// into a cache-resident per-row staging buffer and then streamed to the
/// destination row with [`nt_copy`] — skipping the write-allocate read of
/// the destination line. Bit-identical to the plain driver (streaming
/// stores move the same bits). Falls back to the plain driver when nothing
/// is certified, a recording is active (recordings must see the baseline
/// schedule), or the range starts at negative `i` or `j` (staging geometry
/// cannot represent it).
#[allow(clippy::too_many_arguments)]
pub fn par_loop2_rows_nt<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    outs: &mut [&mut Dat2<T>],
    ins: &[&Dat2<T>],
    flops_per_point: f64,
    plan: &OptPlan,
    kernel: F,
) where
    T: Copy + Send + Sync + Default + NtElem,
    F: Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Sync,
{
    // Outputs written through staging rows.
    let streamed: Vec<usize> = (0..outs.len())
        .filter(|&f| plan.nt_certified(name, outs[f].name()))
        .collect();
    if streamed.is_empty()
        || access::recording_active()
        || range.i0 < 0
        || range.j0 < 0
        || range.is_empty()
    {
        return crate::exec::par_loop2_rows(
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
    let real: Vec<WView<T>> = outs.iter_mut().map(|d| WView::of(&mut **d)).collect();
    let r: Vec<RView<T>> = ins.iter().map(|d| RView::of(*d)).collect();
    let (i0, width) = (range.i0, (range.i1 - range.i0) as usize);
    let stage_len = i0 as usize + width;
    let make_staging = || -> Vec<Vec<T>> {
        streamed
            .iter()
            .map(|_| vec![T::default(); stage_len])
            .collect()
    };
    // Reuse staging rows across iterations through a small pool (the
    // vendored rayon has no per-thread-state combinator): two uncontended
    // lock hops per row against a full row's compute.
    let pool: Mutex<Vec<Vec<Vec<T>>>> = Mutex::new(Vec::new());
    let row = |j: isize| {
        let mut staging = pool
            .lock()
            .expect("staging pool")
            .pop()
            .unwrap_or_else(make_staging);
        // Certified outputs point at this thread's staging rows; the rest
        // write straight through.
        let views: Vec<WView<T>> = real
            .iter()
            .enumerate()
            .map(|(f, v)| match streamed.iter().position(|&s| s == f) {
                Some(s) => WView::staging(staging[s].as_mut_ptr(), stage_len),
                None => *v,
            })
            .collect();
        let at = RowAt {
            i0,
            width,
            j,
            k: 0,
            recording: false,
        };
        kernel(j, &mut RowOut::at(&views, at), &RowIn::at(&r, at));
        for (s, &f) in streamed.iter().enumerate() {
            let mut real_out = RowOut2::at(&real, at);
            nt_copy(&staging[s][i0 as usize..], real_out.row(f));
        }
        pool.lock().expect("staging pool").push(staging);
    };
    let member = Member {
        name,
        fields: outs.len() + ins.len(),
        flops_per_point,
    };
    let args = || unreachable!("the streaming-store driver falls back while recording");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{par_loop2_rows, par_loop3_planes, Range2, Range3, RowIn2, RowOut2};
    use crate::plan::{FusionGroupCert, NtCert};

    fn plan_with_group(names: &[&str]) -> OptPlan {
        OptPlan {
            app: "test".into(),
            groups: vec![FusionGroupCert {
                start: 0,
                names: names.iter().map(|s| s.to_string()).collect(),
            }],
            ..OptPlan::default()
        }
    }

    #[test]
    fn fused_pair_is_bit_identical_to_sequential() {
        let n = 37usize;
        let run_baseline = |mode: ExecMode| {
            let mut p = Profile::new();
            let mut a = Dat2::<f64>::new("a", n, n, 1);
            let mut x = Dat2::<f64>::new("x", n, n, 1);
            let mut y = Dat2::<f64>::new("y", n, n, 1);
            a.init_with(|i, j| (i as f64).mul_add(0.37, j as f64 * 1.11));
            par_loop2_rows(
                &mut p,
                "producer",
                mode,
                Range2::interior(n, n),
                &mut [&mut x],
                &[&a],
                1.0,
                |_j, out, ins| {
                    for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                        *o = s * 1.5 + 0.25;
                    }
                },
            );
            par_loop2_rows(
                &mut p,
                "consumer",
                mode,
                Range2::interior(n, n),
                &mut [&mut y],
                &[&x, &a],
                2.0,
                |_j, out, ins| {
                    for ((o, s), t) in out.row(0).iter_mut().zip(ins.row(0)).zip(ins.row(1)) {
                        *o = s * s - t;
                    }
                },
            );
            y
        };
        let run_fused = |mode: ExecMode| {
            let mut p = Profile::new();
            let mut a = Dat2::<f64>::new("a", n, n, 1);
            let mut x = Dat2::<f64>::new("x", n, n, 1);
            let mut y = Dat2::<f64>::new("y", n, n, 1);
            a.init_with(|i, j| (i as f64).mul_add(0.37, j as f64 * 1.11));
            let plan = plan_with_group(&["producer", "consumer"]);
            // Store: [x, y] mutable, [a] read-only. Consumer reads x (index
            // 0, a radius-0 crossing from producer) and a (index 2).
            let loops = vec![
                FusedLoop2::new("producer", &[0], &[2], 1.0, |_j, out, ins| {
                    for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                        *o = s * 1.5 + 0.25;
                    }
                }),
                FusedLoop2::new("consumer", &[1], &[0, 2], 2.0, |_j, out, ins| {
                    for ((o, s), t) in out.row(0).iter_mut().zip(ins.row(0)).zip(ins.row(1)) {
                        *o = s * s - t;
                    }
                }),
            ];
            fused2_rows(
                &mut p,
                mode,
                Range2::interior(n, n),
                &mut [&mut x, &mut y],
                &[&a],
                &loops,
                &plan,
            )
            .expect("certified");
            assert_eq!(p.records().len(), 2, "one profile record per member");
            y
        };
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let base = run_baseline(mode);
            let fused = run_fused(mode);
            for j in 0..n as isize {
                for i in 0..n as isize {
                    assert_eq!(base.get(i, j).to_bits(), fused.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn uncertified_fusion_is_refused() {
        let mut p = Profile::new();
        let mut x = Dat2::<f64>::new("x", 4, 4, 0);
        let plan = plan_with_group(&["someone", "else"]);
        let loops = vec![
            FusedLoop2::new("producer", &[0], &[], 0.0, |_j, _o, _i| {}),
            FusedLoop2::new("consumer", &[0], &[], 0.0, |_j, _o, _i| {}),
        ];
        let err = fused2_rows(
            &mut p,
            ExecMode::Serial,
            Range2::interior(4, 4),
            &mut [&mut x],
            &[],
            &loops,
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::UncertifiedFusion { .. }));
    }

    #[test]
    fn fused_execution_refused_while_recording() {
        let plan = plan_with_group(&["producer", "consumer"]);
        let ((), _rec) = access::with_recording_full(|| {
            let mut p = Profile::new();
            let mut x = Dat2::<f64>::new("x", 4, 4, 0);
            let loops = vec![
                FusedLoop2::new("producer", &[0], &[], 0.0, |_j, _o, _i| {}),
                FusedLoop2::new("consumer", &[0], &[], 0.0, |_j, _o, _i| {}),
            ];
            let err = fused2_rows(
                &mut p,
                ExecMode::Serial,
                Range2::interior(4, 4),
                &mut [&mut x],
                &[],
                &loops,
                &plan,
            )
            .unwrap_err();
            assert_eq!(err, PlanError::RecordingActive);
        });
    }

    #[test]
    fn fused3_group_is_bit_identical_to_sequential() {
        let (nx, ny, nz) = (19usize, 11usize, 7usize);
        let mut p = Profile::new();
        let mut src = Dat3::<f64>::new("src", nx, ny, nz, 1);
        src.init_with(|i, j, k| (i + 3 * j + 7 * k) as f64 * 0.01 - 1.0);
        let mut w_base = Dat3::<f64>::new("w", nx, ny, nz, 1);
        let mut r_base = Dat3::<f64>::new("r", nx, ny, nz, 1);
        let range = Range3::interior(nx, ny, nz);
        par_loop3_planes(
            &mut p,
            "deriv",
            ExecMode::Rayon,
            range,
            &mut [&mut w_base],
            &[&src],
            2.0,
            |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = 2.0 * s + 1.0;
                }
            },
        );
        par_loop3_planes(
            &mut p,
            "combine",
            ExecMode::Rayon,
            range,
            &mut [&mut r_base],
            &[&src],
            1.0,
            |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s - 0.5;
                }
            },
        );

        let mut w_f = Dat3::<f64>::new("w", nx, ny, nz, 1);
        let mut r_f = Dat3::<f64>::new("r", nx, ny, nz, 1);
        let plan = plan_with_group(&["deriv", "combine"]);
        let loops = vec![
            FusedLoop3::new("deriv", &[0], &[2], 2.0, |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = 2.0 * s + 1.0;
                }
            }),
            FusedLoop3::new("combine", &[1], &[2], 1.0, |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s - 0.5;
                }
            }),
        ];
        fused3_planes(
            &mut p,
            ExecMode::Rayon,
            range,
            &mut [&mut w_f, &mut r_f],
            &[&src],
            &loops,
            &plan,
        )
        .expect("certified");
        for k in 0..nz as isize {
            for j in 0..ny as isize {
                for i in 0..nx as isize {
                    assert_eq!(w_base.get(i, j, k).to_bits(), w_f.get(i, j, k).to_bits());
                    assert_eq!(r_base.get(i, j, k).to_bits(), r_f.get(i, j, k).to_bits());
                }
            }
        }
    }

    #[test]
    fn nt_rows_driver_is_bit_identical() {
        let n = 41usize;
        let plan = OptPlan {
            app: "test".into(),
            nt: vec![NtCert {
                loop_name: "write".into(),
                dat: "dst".into(),
            }],
            ..OptPlan::default()
        };
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let mut p = Profile::new();
            let mut src = Dat2::<f64>::new("src", n, n, 1);
            src.init_with(|i, j| ((i * 31 + j * 7) as f64).sin());
            let mut base = Dat2::<f64>::new("dst", n, n, 1);
            let mut opt = Dat2::<f64>::new("dst", n, n, 1);
            let k = |_j: isize, out: &mut RowOut2<f64>, ins: &RowIn2<f64>| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s * 3.0 - 0.125;
                }
            };
            par_loop2_rows(
                &mut p,
                "write",
                mode,
                Range2::interior(n, n),
                &mut [&mut base],
                &[&src],
                2.0,
                k,
            );
            par_loop2_rows_nt(
                &mut p,
                "write",
                mode,
                Range2::interior(n, n),
                &mut [&mut opt],
                &[&src],
                2.0,
                &plan,
                k,
            );
            for j in 0..n as isize {
                for i in 0..n as isize {
                    assert_eq!(base.get(i, j).to_bits(), opt.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn nt_driver_with_uncertified_plan_matches_plain_path() {
        // Nothing certified: the driver must silently take the plain path.
        let plan = OptPlan::default();
        let mut p = Profile::new();
        let n = 9usize;
        let src = Dat2::<f64>::new("src", n, n, 0);
        let mut dst = Dat2::<f64>::new("dst", n, n, 0);
        par_loop2_rows_nt(
            &mut p,
            "write",
            ExecMode::Serial,
            Range2::interior(n, n),
            &mut [&mut dst],
            &[&src],
            0.0,
            &plan,
            |_j, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s + 1.0;
                }
            },
        );
        assert_eq!(dst.get(0, 0), 1.0);
        assert_eq!(p.records().len(), 1);
    }
}
