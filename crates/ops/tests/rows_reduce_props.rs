//! The reductions against a plain nested loop.
//!
//! `par_loop2_reduce`, `par_loop2_rows_reduce` and
//! `par_loop3_planes_reduce` promise, in Serial mode, the bits of a plain
//! left fold: each row (2-D) or plane (3-D) folded from the identity in
//! `(j, i)` order, and those partials folded from the identity in order.
//! That is the rule that lets an app move a reduction onto the slice path
//! without its result moving. Checked here for a sum (order-sensitive in
//! floating point) and a min, in f32 and f64, on random ranges that may be
//! empty or reach into the halo, over 1×N, N×1 and general fields whose
//! extent may be smaller than the halo. Rayon keeps what it promised
//! before: its plane-then-combine tree gives the min of every point.

use bwb_ops::{
    par_loop2_reduce, par_loop2_rows_reduce, par_loop3_planes_reduce, Dat2, Dat3, ExecMode,
    Profile, Range2, Range3,
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

/// `kind` 0: 1×N; 1: N×1; 2: general. The long sides span several Rayon
/// chunks and rarely divide the scheduling grain.
fn shape(kind: usize, a: usize, b: usize, small: usize) -> (usize, usize) {
    match kind {
        0 => (1, 1 + b % 1500),
        1 => (1 + a % 1500, 1),
        _ => (1 + a % small, 1 + b % small),
    }
}

/// The element types the reductions are checked in.
trait Real: Copy + Default + Send + Sync + std::ops::Add<Output = Self> + 'static {
    const ZERO: Self;
    const MAX: Self;
    fn of(x: f64) -> Self;
    fn min(self, o: Self) -> Self;
    fn bits(self) -> u64;
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const MAX: Self = f32::INFINITY;
    fn of(x: f64) -> Self {
        x as f32
    }
    fn min(self, o: Self) -> Self {
        f32::min(self, o)
    }
    fn bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const MAX: Self = f64::INFINITY;
    fn of(x: f64) -> Self {
        x
    }
    fn min(self, o: Self) -> Self {
        f64::min(self, o)
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

fn check2<T: Real>(nx: usize, ny: usize, halo: usize, seed: u64, r: [usize; 4]) {
    let mut f = Dat2::<T>::new("f", nx, ny, halo);
    for (idx, v) in f.raw_mut().iter_mut().enumerate() {
        *v = T::of(value(seed, idx));
    }
    let (i0, i1) = span(r[0], r[1], nx, halo);
    let (j0, j1) = span(r[2], r[3], ny, halo);
    let range = Range2::new(i0, i1, j0, j1);

    // The plain nested loop: one partial per row, folded in order.
    let (mut sum, mut min) = (T::ZERO, T::MAX);
    for j in j0..j1 {
        let mut row = T::ZERO;
        for i in i0..i1 {
            row = row + f.get(i, j);
            min = min.min(f.get(i, j));
        }
        sum = sum + row;
    }

    let mut prof = Profile::new();
    let sum_points = par_loop2_reduce(
        &mut prof,
        "sum",
        ExecMode::Serial,
        range,
        &[&f],
        T::ZERO,
        1.0,
        |_i, _j, ins| ins.get(0, 0, 0),
        |x, y| x + y,
    );
    let sum_rows = par_loop2_rows_reduce(
        &mut prof,
        "sum",
        ExecMode::Serial,
        range,
        &[&f],
        T::ZERO,
        1.0,
        |_j, acc, ins| ins.row(0).iter().fold(acc, |s, &v| s + v),
        |x, y| x + y,
    );
    assert_eq!(sum_points.bits(), sum.bits());
    assert_eq!(sum_rows.bits(), sum.bits());

    for mode in [ExecMode::Serial, ExecMode::Rayon] {
        let min_points = par_loop2_reduce(
            &mut prof,
            "min",
            mode,
            range,
            &[&f],
            T::MAX,
            0.0,
            |_i, _j, ins| ins.get(0, 0, 0),
            T::min,
        );
        let min_rows = par_loop2_rows_reduce(
            &mut prof,
            "min",
            mode,
            range,
            &[&f],
            T::MAX,
            0.0,
            |_j, acc, ins| ins.row(0).iter().fold(acc, |m, &v| m.min(v)),
            T::min,
        );
        assert_eq!(min_points.bits(), min.bits());
        assert_eq!(min_rows.bits(), min.bits());
    }

    // Same accounting from both drivers: one record name each, equal
    // points, bytes and FLOPs whatever the range.
    let rec = prof.get("sum").expect("recorded");
    assert_eq!(rec.calls, 2);
    assert_eq!(rec.points, 2 * range.points());
    assert_eq!(rec.bytes, 2 * range.points() * std::mem::size_of::<T>());
}

fn check3<T: Real>(n: (usize, usize, usize), halo: usize, seed: u64, lo: usize, hi: usize) {
    let (nx, ny, nz) = n;
    let mut f = Dat3::<T>::new("f", nx, ny, nz, halo);
    for (idx, v) in f.raw_mut().iter_mut().enumerate() {
        *v = T::of(value(seed, idx));
    }
    let (i0, i1) = span(lo, hi, nx, halo);
    let (j0, j1) = span(lo / 100, hi / 100, ny, halo);
    let (k0, k1) = span(lo / 10_000, hi / 10_000, nz, halo);
    let range = Range3::new(i0, i1, j0, j1, k0, k1);

    // The plain nested loop: one partial per plane, folded in order.
    let (mut sum, mut min) = (T::ZERO, T::MAX);
    for k in k0..k1 {
        let mut plane = T::ZERO;
        for j in j0..j1 {
            for i in i0..i1 {
                plane = plane + f.get(i, j, k);
                min = min.min(f.get(i, j, k));
            }
        }
        sum = sum + plane;
    }

    let mut prof = Profile::new();
    let sum_rows = par_loop3_planes_reduce(
        &mut prof,
        "sum",
        ExecMode::Serial,
        range,
        &[&f],
        T::ZERO,
        1.0,
        |_j, _k, acc, ins| ins.row(0).iter().fold(acc, |s, &v| s + v),
        |x, y| x + y,
    );
    assert_eq!(sum_rows.bits(), sum.bits());
    for mode in [ExecMode::Serial, ExecMode::Rayon] {
        let min_rows = par_loop3_planes_reduce(
            &mut prof,
            "min",
            mode,
            range,
            &[&f],
            T::MAX,
            0.0,
            |_j, _k, acc, ins| ins.row(0).iter().fold(acc, |m, &v| m.min(v)),
            T::min,
        );
        assert_eq!(min_rows.bits(), min.bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_reduce2_equals_point_reduce_bitwise(
        kind in 0usize..3,
        nx in 1usize..5000,
        ny in 1usize..5000,
        halo in 0usize..3,
        seed in 0u64..u64::MAX,
        a in 0usize..1000,
        b in 0usize..1000,
        c in 0usize..1000,
        d in 0usize..1000,
    ) {
        let (nx, ny) = shape(kind, nx, ny, 40);
        check2::<f64>(nx, ny, halo, seed, [a, b, c, d]);
        check2::<f32>(nx, ny, halo, seed, [a, b, c, d]);
    }

    #[test]
    fn planes_reduce3_equals_point_reduce_bitwise(
        kind in 0usize..3,
        nx in 1usize..5000,
        ny in 1usize..6,
        nz in 1usize..5000,
        halo in 0usize..3,
        seed in 0u64..u64::MAX,
        lo in 0usize..1_000_000,
        hi in 0usize..1_000_000,
    ) {
        // 1×ny×N, N×ny×1 or general.
        let (nx, nz) = shape(kind, nx, nz, 9);
        check3::<f64>((nx, ny, nz), halo, seed, lo, hi);
        check3::<f32>((nx, ny, nz), halo, seed, lo, hi);
    }
}
