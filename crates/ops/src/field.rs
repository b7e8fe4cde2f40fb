//! Halo-padded structured datasets.
//!
//! A `Dat` is one scalar field over a block: `nx × ny(× nz)` interior points
//! surrounded by a `halo`-deep ring of ghost points. Interior coordinates
//! run `0..nx`; indices from `-halo` to `nx-1+halo` are valid and address
//! ghost points. Storage is row-major (`i` fastest), matching the memory
//! layout the paper's kernels stream through. Storage comes from
//! [`storage::zeroed`], on 2 MiB pages where the kernel allows.

use bwb_machine::storage;

/// A 2-D halo-padded field.
#[derive(Debug, Clone, PartialEq)]
pub struct Dat2<T> {
    name: String,
    nx: usize,
    ny: usize,
    halo: usize,
    pitch: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Dat2<T> {
    /// Create a field of `nx × ny` interior points with a `halo`-deep ring,
    /// zero-initialized.
    pub fn new(name: &str, nx: usize, ny: usize, halo: usize) -> Self {
        assert!(nx > 0 && ny > 0, "field {name} must have positive extent");
        let pitch = nx + 2 * halo;
        let rows = ny + 2 * halo;
        Dat2 {
            name: name.to_owned(),
            nx,
            ny,
            halo,
            pitch,
            data: storage::zeroed(pitch * rows),
        }
    }
}

impl<T: Copy> Dat2<T> {
    pub fn name(&self) -> &str {
        &self.name
    }
    pub fn nx(&self) -> usize {
        self.nx
    }
    pub fn ny(&self) -> usize {
        self.ny
    }
    pub fn halo(&self) -> usize {
        self.halo
    }
    /// Padded row length (elements between vertically adjacent points).
    pub fn pitch(&self) -> usize {
        self.pitch
    }
    /// Bytes of one interior point's storage.
    pub fn elem_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }
    /// Total interior points.
    pub fn interior_points(&self) -> usize {
        self.nx * self.ny
    }

    #[inline]
    pub(crate) fn linear(&self, i: isize, j: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(
            i >= -h && i < self.nx as isize + h && j >= -h && j < self.ny as isize + h,
            "index ({i},{j}) outside field '{}' ({}x{} halo {})",
            self.name,
            self.nx,
            self.ny,
            self.halo
        );
        let ii = (i + h) as usize;
        let jj = (j + h) as usize;
        jj * self.pitch + ii
    }

    /// Read one point (interior or halo coordinates).
    #[inline]
    pub fn get(&self, i: isize, j: isize) -> T {
        self.data[self.linear(i, j)]
    }

    /// Write one point.
    #[inline]
    pub fn set(&mut self, i: isize, j: isize, v: T) {
        let idx = self.linear(i, j);
        self.data[idx] = v;
    }

    /// Fill every interior point.
    pub fn fill_interior(&mut self, v: T) {
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                self.set(i, j, v);
            }
        }
    }

    /// Fill every point including the halo.
    pub fn fill_all(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Initialize interior points from a function of (i, j).
    pub fn init_with(&mut self, f: impl Fn(isize, isize) -> T) {
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                self.set(i, j, f(i, j));
            }
        }
    }

    /// Raw storage (including halos) — used by the halo exchanger and the
    /// parallel executor.
    pub fn raw(&self) -> &[T] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Geometry tuple consumed by the executor's write views:
    /// `(pitch, halo, nx, ny, len)`.
    pub(crate) fn geometry(&self) -> (usize, usize, usize, usize, usize) {
        (self.pitch, self.halo, self.nx, self.ny, self.data.len())
    }
}

impl Dat2<f64> {
    /// Max interior absolute difference against another field of identical
    /// shape — used by the "distributed == serial" integration tests.
    pub fn max_abs_diff(&self, other: &Dat2<f64>) -> f64 {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny));
        let mut m: f64 = 0.0;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                m = m.max((self.get(i, j) - other.get(i, j)).abs());
            }
        }
        m
    }

    /// Sum of interior values (deterministic row-major order).
    pub fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.ny as isize {
            for i in 0..self.nx as isize {
                s += self.get(i, j);
            }
        }
        s
    }
}

/// A 3-D halo-padded field (layout: `i` fastest, then `j`, then `k`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dat3<T> {
    name: String,
    nx: usize,
    ny: usize,
    nz: usize,
    halo: usize,
    pitch: usize,
    slab: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Dat3<T> {
    pub fn new(name: &str, nx: usize, ny: usize, nz: usize, halo: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "field {name} must have positive extent"
        );
        let pitch = nx + 2 * halo;
        let rows = ny + 2 * halo;
        let planes = nz + 2 * halo;
        let slab = pitch * rows;
        Dat3 {
            name: name.to_owned(),
            nx,
            ny,
            nz,
            halo,
            pitch,
            slab,
            data: storage::zeroed(slab * planes),
        }
    }
}

impl<T: Copy> Dat3<T> {
    pub fn name(&self) -> &str {
        &self.name
    }
    pub fn nx(&self) -> usize {
        self.nx
    }
    pub fn ny(&self) -> usize {
        self.ny
    }
    pub fn nz(&self) -> usize {
        self.nz
    }
    pub fn halo(&self) -> usize {
        self.halo
    }
    pub fn pitch(&self) -> usize {
        self.pitch
    }
    pub fn slab(&self) -> usize {
        self.slab
    }
    pub fn elem_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }
    pub fn interior_points(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    pub(crate) fn linear(&self, i: isize, j: isize, k: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(
            i >= -h
                && i < self.nx as isize + h
                && j >= -h
                && j < self.ny as isize + h
                && k >= -h
                && k < self.nz as isize + h,
            "index ({i},{j},{k}) outside field '{}'",
            self.name
        );
        let ii = (i + h) as usize;
        let jj = (j + h) as usize;
        let kk = (k + h) as usize;
        kk * self.slab + jj * self.pitch + ii
    }

    #[inline]
    pub fn get(&self, i: isize, j: isize, k: isize) -> T {
        self.data[self.linear(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: isize, j: isize, k: isize, v: T) {
        let idx = self.linear(i, j, k);
        self.data[idx] = v;
    }

    pub fn fill_interior(&mut self, v: T) {
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                for i in 0..self.nx as isize {
                    self.set(i, j, k, v);
                }
            }
        }
    }

    pub fn fill_all(&mut self, v: T) {
        self.data.fill(v);
    }

    pub fn init_with(&mut self, f: impl Fn(isize, isize, isize) -> T) {
        for k in 0..self.nz as isize {
            for j in 0..self.ny as isize {
                for i in 0..self.nx as isize {
                    self.set(i, j, k, f(i, j, k));
                }
            }
        }
    }

    pub fn raw(&self) -> &[T] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub(crate) fn geometry(&self) -> Geometry3 {
        Geometry3 {
            pitch: self.pitch,
            slab: self.slab,
            halo: self.halo,
            len: self.data.len(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry3 {
    pub pitch: usize,
    pub slab: usize,
    pub halo: usize,
    pub len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dat2_roundtrip_interior_and_halo() {
        let mut d = Dat2::<f64>::new("t", 4, 3, 2);
        d.set(0, 0, 1.0);
        d.set(3, 2, 2.0);
        d.set(-2, -2, 3.0);
        d.set(5, 4, 4.0);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(3, 2), 2.0);
        assert_eq!(d.get(-2, -2), 3.0);
        assert_eq!(d.get(5, 4), 4.0);
    }

    #[test]
    fn dat2_storage_size_includes_halo() {
        let d = Dat2::<f32>::new("t", 4, 3, 1);
        assert_eq!(d.raw().len(), 6 * 5);
        assert_eq!(d.pitch(), 6);
        assert_eq!(d.interior_points(), 12);
    }

    #[test]
    fn dat2_fill_interior_leaves_halo() {
        let mut d = Dat2::<f64>::new("t", 2, 2, 1);
        d.fill_all(-1.0);
        d.fill_interior(5.0);
        assert_eq!(d.get(0, 0), 5.0);
        assert_eq!(d.get(-1, 0), -1.0);
        assert_eq!(d.get(2, 1), -1.0);
    }

    #[test]
    fn dat2_init_with_function() {
        let mut d = Dat2::<f64>::new("t", 3, 3, 0);
        d.init_with(|i, j| (i + 10 * j) as f64);
        assert_eq!(d.get(2, 1), 12.0);
        assert_eq!(
            d.interior_sum(),
            (0..3)
                .flat_map(|j| (0..3).map(move |i| (i + 10 * j) as f64))
                .sum()
        );
    }

    #[test]
    fn dat2_max_abs_diff() {
        let mut a = Dat2::<f64>::new("a", 3, 3, 1);
        let mut b = Dat2::<f64>::new("b", 3, 3, 2); // different halo is fine
        a.fill_interior(1.0);
        b.fill_interior(1.0);
        b.set(1, 1, 1.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }

    #[test]
    #[should_panic]
    fn dat2_zero_extent_rejected() {
        Dat2::<f64>::new("bad", 0, 3, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside field")]
    fn dat2_out_of_halo_read_panics_in_debug() {
        let d = Dat2::<f64>::new("t", 4, 4, 1);
        d.get(-2, 0);
    }

    #[test]
    fn dat3_roundtrip() {
        let mut d = Dat3::<f64>::new("t", 3, 4, 5, 1);
        d.set(0, 0, 0, 1.0);
        d.set(2, 3, 4, 2.0);
        d.set(-1, -1, -1, 3.0);
        assert_eq!(d.get(0, 0, 0), 1.0);
        assert_eq!(d.get(2, 3, 4), 2.0);
        assert_eq!(d.get(-1, -1, -1), 3.0);
        assert_eq!(d.interior_points(), 60);
    }

    #[test]
    fn dat3_layout_i_fastest() {
        let d = Dat3::<f64>::new("t", 4, 4, 4, 1);
        assert_eq!(d.linear(1, 0, 0), d.linear(0, 0, 0) + 1);
        assert_eq!(d.linear(0, 1, 0), d.linear(0, 0, 0) + d.pitch());
        assert_eq!(d.linear(0, 0, 1), d.linear(0, 0, 0) + d.slab());
    }

    #[test]
    fn dat3_init_with() {
        let mut d = Dat3::<f32>::new("t", 2, 2, 2, 0);
        d.init_with(|i, j, k| (i + 2 * j + 4 * k) as f32);
        assert_eq!(d.get(1, 1, 1), 7.0);
    }
}
