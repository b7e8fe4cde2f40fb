//! The row-slice reductions against the per-point ones they stand in for.
//!
//! `par_loop2_rows_reduce` / `par_loop3_planes_reduce` promise that a kernel
//! folding its row left to right into the accumulator it is handed gives the
//! bits `par_loop2_reduce` / `par_loop3_reduce` give in Serial mode — the
//! rule that lets an app move a reduction onto the slice path without its
//! result moving. Checked here for a sum (order-sensitive in floating point)
//! and a min, on random ranges that may be empty or reach into the halo.

use bwb_ops::{
    par_loop2_reduce, par_loop2_rows_reduce, par_loop3_planes_reduce, par_loop3_reduce, Dat2, Dat3,
    ExecMode, Profile, Range2, Range3,
};
use proptest::prelude::*;

/// Deterministic values of mixed sign and magnitude, so a sum's rounding
/// depends on the order it is taken in.
fn value(seed: u64, idx: usize) -> f64 {
    let mut x = seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 29;
    let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    mantissa * [1e-6, 1.0, 1e3, 1e9][(x & 3) as usize]
}

/// A half-open span inside `[-halo, n + halo)`: `a` picks the start, `b` the
/// width, which comes out zero now and then; one draw of `b` in eleven gives
/// an inverted pair instead. Either way the range is empty.
fn span(a: usize, b: usize, n: usize, halo: usize) -> (isize, isize) {
    let len = n + 2 * halo;
    let start = a % len;
    let lo = start as isize - halo as isize;
    if b % 11 == 10 {
        return (lo, lo - 1);
    }
    (lo, lo + (b % (len - start + 1)) as isize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_reduce2_equals_point_reduce_bitwise(
        nx in 1usize..40,
        ny in 1usize..12,
        halo in 0usize..3,
        seed in 0u64..u64::MAX,
        a in 0usize..1000,
        b in 0usize..1000,
        c in 0usize..1000,
        d in 0usize..1000,
    ) {
        let mut f = Dat2::<f64>::new("f", nx, ny, halo);
        for (idx, v) in f.raw_mut().iter_mut().enumerate() {
            *v = value(seed, idx);
        }
        let (i0, i1) = span(a, b, nx, halo);
        let (j0, j1) = span(c, d, ny, halo);
        let range = Range2::new(i0, i1, j0, j1);
        let mut prof = Profile::new();

        let sum_points = par_loop2_reduce(
            &mut prof, "sum", ExecMode::Serial, range, &[&f], 0.0, 1.0,
            |_i, _j, ins| ins.get(0, 0, 0),
            |x, y| x + y,
        );
        let sum_rows = par_loop2_rows_reduce(
            &mut prof, "sum", ExecMode::Serial, range, &[&f], 0.0, 1.0,
            |_j, acc, ins| ins.row(0).iter().fold(acc, |s, &v| s + v),
            |x, y| x + y,
        );
        prop_assert_eq!(sum_points.to_bits(), sum_rows.to_bits());

        let min_points = par_loop2_reduce(
            &mut prof, "min", ExecMode::Serial, range, &[&f], f64::INFINITY, 0.0,
            |_i, _j, ins| ins.get(0, 0, 0),
            f64::min,
        );
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let min_rows = par_loop2_rows_reduce(
                &mut prof, "min", mode, range, &[&f], f64::INFINITY, 0.0,
                |_j, acc, ins| ins.row(0).iter().fold(acc, |m, &v| m.min(v)),
                f64::min,
            );
            prop_assert_eq!(min_points.to_bits(), min_rows.to_bits());
        }

        // Same accounting from both drivers: one record name each, equal
        // points, bytes and FLOPs whatever the range.
        let rec = prof.get("sum").expect("recorded");
        prop_assert_eq!(rec.calls, 2);
        prop_assert_eq!(rec.points, 2 * range.points());
        prop_assert_eq!(rec.bytes, 2 * range.points() * 8);
    }

    #[test]
    fn planes_reduce3_equals_point_reduce_bitwise(
        nx in 1usize..9,
        ny in 1usize..6,
        nz in 1usize..5,
        halo in 0usize..3,
        seed in 0u64..u64::MAX,
        lo in 0usize..1_000_000,
        hi in 0usize..1_000_000,
    ) {
        let mut f = Dat3::<f64>::new("f", nx, ny, nz, halo);
        for (idx, v) in f.raw_mut().iter_mut().enumerate() {
            *v = value(seed, idx);
        }
        let (i0, i1) = span(lo, hi, nx, halo);
        let (j0, j1) = span(lo / 100, hi / 100, ny, halo);
        let (k0, k1) = span(lo / 10_000, hi / 10_000, nz, halo);
        let range = Range3::new(i0, i1, j0, j1, k0, k1);
        let mut prof = Profile::new();

        let sum_points = par_loop3_reduce(
            &mut prof, "sum", ExecMode::Serial, range, &[&f], 0.0, 1.0,
            |_i, _j, _k, ins| ins.get(0, 0, 0, 0),
            |x, y| x + y,
        );
        let sum_rows = par_loop3_planes_reduce(
            &mut prof, "sum", ExecMode::Serial, range, &[&f], 0.0, 1.0,
            |_j, _k, acc, ins| ins.row(0).iter().fold(acc, |s, &v| s + v),
            |x, y| x + y,
        );
        prop_assert_eq!(sum_points.to_bits(), sum_rows.to_bits());

        let min_points = par_loop3_reduce(
            &mut prof, "min", ExecMode::Serial, range, &[&f], f64::INFINITY, 0.0,
            |_i, _j, _k, ins| ins.get(0, 0, 0, 0),
            f64::min,
        );
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let min_rows = par_loop3_planes_reduce(
                &mut prof, "min", mode, range, &[&f], f64::INFINITY, 0.0,
                |_j, _k, acc, ins| ins.row(0).iter().fold(acc, |m, &v| m.min(v)),
                f64::min,
            );
            prop_assert_eq!(min_points.to_bits(), min_rows.to_bits());
        }
    }
}
