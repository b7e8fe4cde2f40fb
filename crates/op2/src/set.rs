//! Sets, maps, and datasets — OP2's mesh-description primitives.
//!
//! Both maps and datasets are flat row-major arrays with a run-time width
//! (`arity`, `dim`). [`Map::rows`] and [`DatU::rows`] view them as rows of a
//! width fixed at compile time, which is how OP2's generated code sees an
//! argument: a kernel indexes `rows[e][c]` with one bounds check per row and
//! no multiplication by a run-time width.

use bwb_machine::storage;

/// A collection of mesh elements (nodes, edges, cells, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Set {
    pub name: String,
    pub size: usize,
}

impl Set {
    pub fn new(name: &str, size: usize) -> Self {
        Set {
            name: name.to_owned(),
            size,
        }
    }
}

/// `flat` as rows of `D` values. Panics if `D` is zero or does not divide
/// the length; callers check `D` against their own width first.
fn as_rows<T, const D: usize>(flat: &[T]) -> &[[T; D]] {
    assert!(D > 0, "rows of no values");
    let n = flat.len() / D;
    assert_eq!(
        n * D,
        flat.len(),
        "{} values are not rows of {D}",
        flat.len()
    );
    // SAFETY: `[T; D]` has the layout of `D` consecutive `T`s with `T`'s
    // alignment, and `n` rows of it cover exactly the `n * D` values the
    // slice owns, under the same borrow.
    unsafe { std::slice::from_raw_parts(flat.as_ptr().cast::<[T; D]>(), n) }
}

/// A mapping from each element of one set to `arity` elements of another
/// (e.g. edge → 2 nodes, cell → 4 cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Map {
    pub name: String,
    /// Size of the source set.
    pub from_size: usize,
    /// Size of the target set.
    pub to_size: usize,
    pub arity: usize,
    idx: Vec<u32>,
}

impl Map {
    /// Build a map; `idx` is row-major: element `e`'s targets are
    /// `idx[e*arity .. (e+1)*arity]`. Every index must be `< to_size`.
    pub fn new(name: &str, from: &Set, to: &Set, arity: usize, idx: Vec<u32>) -> Self {
        assert_eq!(idx.len(), from.size * arity, "map '{name}' index length");
        assert!(
            idx.iter().all(|&i| (i as usize) < to.size),
            "map '{name}' has out-of-range target indices"
        );
        Map {
            name: name.to_owned(),
            from_size: from.size,
            to_size: to.size,
            arity,
            idx,
        }
    }

    /// For `renumber`, which maps in-range indices through a validated
    /// permutation of the target set.
    pub(crate) fn indices_mut(&mut self) -> &mut [u32] {
        &mut self.idx
    }

    /// This map's shape over other indices, which the caller has built from
    /// in-range ones (`renumber` moves whole rows), so the range scan of
    /// [`Map::new`] is skipped.
    pub(crate) fn with_indices(&self, idx: Vec<u32>) -> Map {
        assert_eq!(
            idx.len(),
            self.idx.len(),
            "map '{}' index length",
            self.name
        );
        debug_assert!(idx.iter().all(|&i| (i as usize) < self.to_size));
        Map {
            idx,
            name: self.name.clone(),
            ..*self
        }
    }

    /// Target `k` of element `e`.
    #[inline]
    pub fn get(&self, e: usize, k: usize) -> usize {
        debug_assert!(k < self.arity);
        self.idx[e * self.arity + k] as usize
    }

    /// All targets of element `e`.
    #[inline]
    pub fn targets(&self, e: usize) -> &[u32] {
        &self.idx[e * self.arity..(e + 1) * self.arity]
    }

    /// Raw index array.
    pub fn raw(&self) -> &[u32] {
        &self.idx
    }

    /// The targets as one `[u32; A]` row per source element. Panics unless
    /// `A` is this map's arity.
    #[inline]
    pub fn rows<const A: usize>(&self) -> &[[u32; A]] {
        assert_eq!(
            A, self.arity,
            "map '{}' has arity {}",
            self.name, self.arity
        );
        as_rows(&self.idx)
    }

    /// Build the reverse adjacency: for each target, the source elements
    /// that reference it.
    pub fn reverse(&self) -> Vec<Vec<u32>> {
        let mut rev = vec![Vec::new(); self.to_size];
        for e in 0..self.from_size {
            for &t in self.targets(e) {
                rev[t as usize].push(e as u32);
            }
        }
        rev
    }

    /// Maximum number of sources touching any single target (the degree
    /// that lower-bounds the number of colors).
    pub fn max_target_degree(&self) -> usize {
        let mut deg = vec![0usize; self.to_size];
        for &t in &self.idx {
            deg[t as usize] += 1;
        }
        deg.into_iter().max().unwrap_or(0)
    }
}

/// A dataset: `dim` values of `T` per element of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct DatU<T> {
    pub name: String,
    pub set_size: usize,
    pub dim: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> DatU<T> {
    pub fn new(name: &str, set: &Set, dim: usize) -> Self {
        assert!(dim > 0);
        DatU {
            name: name.to_owned(),
            set_size: set.size,
            dim,
            data: storage::zeroed(set.size * dim),
        }
    }

    pub fn from_vec(name: &str, set: &Set, dim: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), set.size * dim, "dat '{name}' data length");
        DatU {
            name: name.to_owned(),
            set_size: set.size,
            dim,
            data,
        }
    }
}

impl<T: Copy> DatU<T> {
    /// This dat's name and shape over other values.
    pub(crate) fn with_data(&self, data: Vec<T>) -> DatU<T> {
        assert_eq!(
            data.len(),
            self.data.len(),
            "dat '{}' data length",
            self.name
        );
        DatU {
            data,
            name: self.name.clone(),
            ..*self
        }
    }

    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    #[inline]
    pub fn get(&self, e: usize, c: usize) -> T {
        debug_assert!(c < self.dim);
        self.data[e * self.dim + c]
    }

    #[inline]
    pub fn set(&mut self, e: usize, c: usize, v: T) {
        debug_assert!(c < self.dim);
        self.data[e * self.dim + c] = v;
    }

    /// All components of element `e`.
    #[inline]
    pub fn elem(&self, e: usize) -> &[T] {
        &self.data[e * self.dim..(e + 1) * self.dim]
    }

    pub fn elem_mut(&mut self, e: usize) -> &mut [T] {
        &mut self.data[e * self.dim..(e + 1) * self.dim]
    }

    pub fn raw(&self) -> &[T] {
        &self.data
    }

    /// The values as one `[T; D]` row per element. Panics unless `D` is
    /// this dataset's `dim`.
    #[inline]
    pub fn rows<const D: usize>(&self) -> &[[T; D]] {
        assert_eq!(D, self.dim, "dat '{}' has dim {}", self.name, self.dim);
        as_rows(&self.data)
    }

    pub fn raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    pub fn init_with(&mut self, f: impl Fn(usize, usize) -> T) {
        for e in 0..self.set_size {
            for c in 0..self.dim {
                self.set(e, c, f(e, c));
            }
        }
    }

    pub fn elem_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<T>()
    }
}

impl DatU<f64> {
    pub fn max_abs_diff(&self, other: &DatU<f64>) -> f64 {
        assert_eq!(self.data.len(), other.data.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }
}

impl DatU<f32> {
    pub fn max_abs_diff32(&self, other: &DatU<f32>) -> f32 {
        assert_eq!(self.data.len(), other.data.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_mesh(n_edges: usize) -> (Set, Set, Map) {
        // n_edges edges over n_edges+1 nodes: edge e → nodes (e, e+1)
        let nodes = Set::new("nodes", n_edges + 1);
        let edges = Set::new("edges", n_edges);
        let idx: Vec<u32> = (0..n_edges)
            .flat_map(|e| [e as u32, e as u32 + 1])
            .collect();
        let map = Map::new("e2n", &edges, &nodes, 2, idx);
        (nodes, edges, map)
    }

    #[test]
    fn map_indexing() {
        let (_n, _e, m) = line_mesh(4);
        assert_eq!(m.get(2, 0), 2);
        assert_eq!(m.get(2, 1), 3);
        assert_eq!(m.targets(0), &[0, 1]);
    }

    #[test]
    fn map_reverse_adjacency() {
        let (_n, _e, m) = line_mesh(3);
        let rev = m.reverse();
        assert_eq!(rev[0], vec![0]);
        assert_eq!(rev[1], vec![0, 1]);
        assert_eq!(rev[3], vec![2]);
    }

    #[test]
    fn max_target_degree_interior_node_is_two() {
        let (_n, _e, m) = line_mesh(5);
        assert_eq!(m.max_target_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn map_rejects_bad_indices() {
        let nodes = Set::new("nodes", 2);
        let edges = Set::new("edges", 1);
        Map::new("bad", &edges, &nodes, 2, vec![0, 5]);
    }

    #[test]
    #[should_panic(expected = "index length")]
    fn map_rejects_wrong_length() {
        let nodes = Set::new("nodes", 3);
        let edges = Set::new("edges", 2);
        Map::new("bad", &edges, &nodes, 2, vec![0, 1, 2]);
    }

    #[test]
    fn dat_components() {
        let s = Set::new("cells", 3);
        let mut d = DatU::<f64>::new("q", &s, 4);
        d.set(1, 2, 9.0);
        assert_eq!(d.get(1, 2), 9.0);
        assert_eq!(d.elem(1), &[0.0, 0.0, 9.0, 0.0]);
        assert_eq!(d.elem_bytes(), 32);
    }

    #[test]
    fn rows_view_elements_in_order() {
        let (_n, _e, m) = line_mesh(3);
        assert_eq!(m.rows::<2>(), &[[0, 1], [1, 2], [2, 3]]);
        let s = Set::new("s", 2);
        let d = DatU::from_vec("v", &s, 3, vec![1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(d.rows::<3>(), &[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]);
        let empty = DatU::<f32>::new("z", &Set::new("none", 0), 2);
        assert!(empty.rows::<2>().is_empty());
    }

    #[test]
    #[should_panic(expected = "has dim 4")]
    fn dat_rows_of_the_wrong_width_panic() {
        let d = DatU::<f64>::new("q", &Set::new("s", 3), 4);
        d.rows::<2>();
    }

    #[test]
    #[should_panic(expected = "has arity 2")]
    fn map_rows_of_the_wrong_arity_panic() {
        let (_n, _e, m) = line_mesh(4);
        m.rows::<1>();
    }

    #[test]
    fn dat_init_with() {
        let s = Set::new("s", 4);
        let mut d = DatU::<f32>::new("x", &s, 2);
        d.init_with(|e, c| (e * 10 + c) as f32);
        assert_eq!(d.get(3, 1), 31.0);
    }

    #[test]
    fn dat_from_vec_checks_length() {
        let s = Set::new("s", 2);
        let d = DatU::from_vec("v", &s, 3, vec![1.0f64; 6]);
        assert_eq!(d.sum(), 6.0);
    }

    #[test]
    fn dat_diff() {
        let s = Set::new("s", 2);
        let a = DatU::from_vec("a", &s, 1, vec![1.0, 2.0]);
        let b = DatU::from_vec("b", &s, 1, vec![1.0, 2.5]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
