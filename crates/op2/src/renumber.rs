//! Locality renumbering of a mesh that arrives in an arbitrary numbering.
//!
//! An indirect loop is only as fast as its gathers hit cache: an edge whose
//! two nodes sit 1.4 M ids apart pays two misses to read them and two more
//! to increment them. OP2 renumbers at partition time for this reason; this
//! module is that pass. It ranks a set along a space-filling curve through
//! its *coordinates* — the one input [`rcb_partition`] already takes, so no
//! adjacency graph has to be built — and returns a [`Permutation`] with the
//! three operations a mesh needs: permute a dat, permute a map's rows,
//! relabel a map's targets. [`order_by_min_target`] then orders a source
//! set (the edges) after the set it points into (the nodes).
//!
//! Nothing about execution changes: every access still goes through the
//! maps, and the colouring still guards the increments.
//!
//! [`rcb_partition`]: crate::partition::rcb_partition

use crate::exec::{sweep_direct, ExecModeU};
use crate::set::{DatU, Map, Set};
use bwb_machine::storage;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Why a vector of ids was refused as a permutation of `0..len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotAPermutation {
    pub len: usize,
    /// First position whose value is out of range or already taken.
    pub position: usize,
    pub value: u32,
}

impl std::fmt::Display for NotAPermutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "not a permutation of 0..{}: entry {} is {}, out of range or a repeat",
            self.len, self.position, self.value
        )
    }
}

impl std::error::Error for NotAPermutation {}

/// A renumbering of one set: the elements listed in their new order, and
/// (built when first asked for — moving data only takes the listing) the new
/// id of every old element.
#[derive(Debug, Clone)]
pub struct Permutation {
    old_of_new: Vec<u32>,
    new_of_old: OnceLock<Vec<u32>>,
}

impl PartialEq for Permutation {
    fn eq(&self, other: &Self) -> bool {
        self.old_of_new == other.old_of_new
    }
}

impl Eq for Permutation {}

/// The inverse of `ids` if it is a permutation of `0..ids.len()`.
fn invert(ids: &[u32]) -> Result<Vec<u32>, NotAPermutation> {
    assert!(ids.len() < u32::MAX as usize, "set too large");
    let mut inverse = vec![u32::MAX; ids.len()];
    for (position, &value) in ids.iter().enumerate() {
        match inverse.get_mut(value as usize) {
            Some(slot) if *slot == u32::MAX => *slot = position as u32,
            _ => {
                return Err(NotAPermutation {
                    len: ids.len(),
                    position,
                    value,
                })
            }
        }
    }
    Ok(inverse)
}

impl Permutation {
    /// From the elements listed in their new order.
    pub fn from_old_of_new(old_of_new: Vec<u32>) -> Result<Self, NotAPermutation> {
        let new_of_old = invert(&old_of_new)?;
        Ok(Permutation {
            old_of_new,
            new_of_old: OnceLock::from(new_of_old),
        })
    }

    /// From the new id of every old element.
    pub fn from_new_of_old(new_of_old: Vec<u32>) -> Result<Self, NotAPermutation> {
        Ok(Self::from_old_of_new(new_of_old)?.inverse())
    }

    /// From a listing that a sort of `0..n` has produced.
    fn sorted(old_of_new: Vec<u32>) -> Self {
        Permutation {
            old_of_new,
            new_of_old: OnceLock::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.old_of_new.len()
    }

    pub fn is_empty(&self) -> bool {
        self.old_of_new.is_empty()
    }

    pub fn old_of_new(&self) -> &[u32] {
        &self.old_of_new
    }

    pub fn new_of_old(&self) -> &[u32] {
        self.new_of_old
            .get_or_init(|| invert(&self.old_of_new).expect("a sort lists every element once"))
    }

    /// The elements in their new order, without the other direction.
    pub fn into_old_of_new(self) -> Vec<u32> {
        self.old_of_new
    }

    pub fn inverse(self) -> Permutation {
        self.new_of_old();
        Permutation {
            old_of_new: self.new_of_old.into_inner().expect("just built"),
            new_of_old: OnceLock::from(self.old_of_new),
        }
    }

    /// `out[new] = rows[old]` for rows of `dim` values. A gather through
    /// `old_of_new`: miss-bound on a scrambled input, so it runs on the pool.
    fn gather_rows<T: Copy + Default + Send + Sync>(&self, rows: &[T], dim: usize) -> Vec<T> {
        assert_eq!(rows.len(), self.len() * dim, "rows of another set");
        // One value per element needs no row view: a plain indexed fill
        // runs a third faster than the sweep below.
        if dim == 1 {
            let mut out = storage::zeroed(self.len());
            out.par_iter_mut()
                .zip(self.old_of_new.par_iter())
                .for_each(|(o, &old)| *o = rows[old as usize]);
            return out;
        }
        let mut out = DatU::<T>::new("gathered", &Set::new("permuted", self.len()), dim);
        let order = &self.old_of_new;
        sweep_direct(ExecModeU::Colored, self.len(), &mut [&mut out], |new, o| {
            let old = order[new] as usize;
            for (c, &v) in rows[old * dim..(old + 1) * dim].iter().enumerate() {
                o.set(0, new, c, v);
            }
        });
        out.into_vec()
    }

    /// One value per element, moved to the element's new id.
    pub fn permute_slice<T: Copy + Default + Send + Sync>(&self, values: &[T]) -> Vec<T> {
        self.gather_rows(values, 1)
    }

    /// A dat on the renumbered set: element `new` holds what `old` held.
    pub fn permute_dat<T: Copy + Default + Send + Sync>(&self, dat: &DatU<T>) -> DatU<T> {
        dat.with_data(self.gather_rows(dat.raw(), dat.dim))
    }

    /// A map whose *source* set is renumbered: the rows move, each row's
    /// targets and their order (an edge's orientation) stay.
    pub fn permute_rows(&self, map: &Map) -> Map {
        assert_eq!(map.from_size, self.len(), "map '{}' source set", map.name);
        map.with_indices(self.gather_rows(map.raw(), map.arity))
    }

    /// Renumber the *target* set of a map, in place: every index is
    /// replaced by the new id of the element it named.
    pub fn relabel_targets(&self, map: &mut Map) {
        assert_eq!(map.to_size, self.len(), "map '{}' target set", map.name);
        let new_of_old = self.new_of_old();
        map.indices_mut()
            .par_iter_mut()
            .for_each(|t| *t = new_of_old[*t as usize]);
    }
}

/// Stable counting sort of `0..n` by `key(e) < n_keys`: the start of every
/// key's run (`n_keys + 1` entries, the last one `n`) and the order.
fn counting_sort(n: usize, n_keys: usize, key: impl Fn(usize) -> u32) -> (Vec<u32>, Permutation) {
    assert!(n < u32::MAX as usize, "set too large");
    let mut start = vec![0u32; n_keys + 1];
    for e in 0..n {
        start[key(e) as usize + 1] += 1;
    }
    for k in 0..n_keys {
        start[k + 1] += start[k];
    }
    let mut old_of_new = vec![0u32; n];
    for old in 0..n {
        // A run's start is its cursor while the elements are placed ...
        let cursor = &mut start[key(old) as usize];
        old_of_new[*cursor as usize] = old as u32;
        *cursor += 1;
    }
    // ... which leaves every start one run ahead.
    start.copy_within(0..n_keys, 1);
    start[0] = 0;
    (start, Permutation::sorted(old_of_new))
}

/// The source elements of `map` grouped by their smallest target, groups in
/// target order, each group in ascending source order: the group of target
/// `t` is `order.old_of_new()[start[t]..start[t + 1]]`. For an arity-1 map
/// this is its reverse in CSR form.
pub fn group_by_min_target(map: &Map) -> (Vec<u32>, Permutation) {
    assert!(map.arity >= 1, "map '{}' has no targets", map.name);
    counting_sort(map.from_size, map.to_size, |e| {
        let row = map.targets(e);
        row.iter().copied().min().expect("arity >= 1")
    })
}

/// Order the source set of `map` after its target set: by smallest target,
/// ties in the order they came. Apply it with [`Permutation::permute_rows`]
/// and carry every dat on the source set along with
/// [`Permutation::permute_dat`].
pub fn order_by_min_target(map: &Map) -> Permutation {
    group_by_min_target(map).1
}

/// Widest digit of the radix sort in [`sfc_order`]: the write heads of
/// 2048 buckets are 128 KB of cache lines, well inside L2.
const MAX_DIGIT_BITS: usize = 11;

/// Rank a set along the Z-order (Morton) curve through its coordinates
/// (`dim` 1 to 3): each axis is cut into `2^bits` cells over the bounding
/// box, about one cell per element in all, the cell indices are
/// bit-interleaved into a key, and the elements are radix-sorted by key in
/// O(N); elements sharing a cell keep their relative order. Coordinates
/// that are not finite land in cell 0.
pub fn sfc_order(coords: &DatU<f64>) -> Permutation {
    let (n, dim) = (coords.set_size, coords.dim);
    assert!((1..=3).contains(&dim), "coordinates of dimension {dim}");
    assert!(n < u32::MAX as usize, "set too large");
    let xs = coords.raw();

    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for row in xs.chunks_exact(dim) {
        for (d, &x) in row.iter().enumerate() {
            lo[d] = lo[d].min(x);
            hi[d] = hi[d].max(x);
        }
    }
    let bits = (n.max(2).ilog2() as usize).div_ceil(dim).min(30 / dim);
    let top_cell = (1u32 << bits) - 1;
    let scale: [f64; 3] = std::array::from_fn(|d| {
        let extent = hi[d] - lo[d];
        if extent > 0.0 && extent.is_finite() {
            top_cell as f64 / extent
        } else {
            0.0
        }
    });
    // One byte of a cell index with `dim - 1` zero bits after each bit.
    let spread: [u32; 256] = std::array::from_fn(|byte| {
        (0..8).fold(0, |s, b| s | ((byte as u32 >> b) & 1) << (b * dim))
    });

    let mut pairs: Vec<(u32, u32)> = (0..n)
        .into_par_iter()
        .map(|e| {
            let mut key = 0u32;
            for (d, &x) in xs[e * dim..(e + 1) * dim].iter().enumerate() {
                // A float-to-int cast saturates and sends NaN to 0.
                let cell = (((x - lo[d]) * scale[d]) as u32).min(top_cell);
                for byte in 0..bits.div_ceil(8) {
                    key |= spread[(cell >> (8 * byte)) as usize & 0xff] << (8 * byte * dim + d);
                }
            }
            (key, e as u32)
        })
        .collect();

    // LSD radix sort of the (key, element) pairs; every pass is stable, and
    // the last one keeps the elements only.
    let key_bits = bits * dim;
    let passes = key_bits.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = key_bits.div_ceil(passes);
    let mut swap = vec![(0u32, 0u32); if passes > 1 { n } else { 0 }];
    let mut old_of_new = vec![0u32; n];
    for pass in 0..passes {
        let digit = |key: u32| (key >> (pass * digit_bits)) as usize & ((1 << digit_bits) - 1);
        let mut cursor = vec![0u32; (1 << digit_bits) + 1];
        for &(key, _) in &pairs {
            cursor[digit(key) + 1] += 1;
        }
        for k in 0..1 << digit_bits {
            cursor[k + 1] += cursor[k];
        }
        for &pair in &pairs {
            let at = &mut cursor[digit(pair.0)];
            if pass + 1 < passes {
                swap[*at as usize] = pair;
            } else {
                old_of_new[*at as usize] = pair.1;
            }
            *at += 1;
        }
        std::mem::swap(&mut pairs, &mut swap);
    }
    Permutation::sorted(old_of_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random permutation of `0..len`.
    fn shuffled(len: usize, rng: &mut StdRng) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..len as u32).collect();
        for i in (1..len).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        ids
    }

    /// The first entry of `ids` that is out of range or already seen, as
    /// `(position, value)`: what a refusal must name.
    fn first_bad(ids: &[u32]) -> Option<(usize, u32)> {
        let mut seen = vec![false; ids.len()];
        ids.iter()
            .enumerate()
            .find_map(|(position, &value)| match seen.get_mut(value as usize) {
                Some(s) if !*s => {
                    *s = true;
                    None
                }
                _ => Some((position, value)),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn hostile_ids_are_refused_at_their_first_bad_entry(
            seed in 0u64..u64::MAX,
            len in 0usize..40,
            damage in 1usize..4,
        ) {
            // A permutation with `damage` entries overwritten by a repeat,
            // an id just past the end or an id far out of range.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids = shuffled(len, &mut rng);
            if len > 0 {
                for _ in 0..damage {
                    let at = rng.gen_range(0..len);
                    ids[at] = match rng.gen_range(0..3) {
                        0 => ids[rng.gen_range(0..len)],
                        1 => len as u32,
                        _ => rng.gen_range(len as u32..=u32::MAX),
                    };
                }
            }
            let want = first_bad(&ids);
            for result in [
                Permutation::from_old_of_new(ids.clone()),
                Permutation::from_new_of_old(ids.clone()),
            ] {
                match (result, want) {
                    (Ok(p), None) => prop_assert_eq!(p.len(), len),
                    (Err(e), Some((position, value))) => {
                        prop_assert_eq!(e, NotAPermutation { len, position, value });
                    }
                    (got, want) => panic!("{ids:?}: {got:?}, expected refusal {want:?}"),
                }
            }
        }

        #[test]
        fn valid_permutations_round_trip(seed in 0u64..u64::MAX, len in 0usize..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ids = shuffled(len, &mut rng);
            let p = Permutation::from_new_of_old(ids.clone()).unwrap();
            prop_assert_eq!(p.new_of_old(), &ids[..]);
            let q = Permutation::from_old_of_new(ids.clone()).unwrap();
            prop_assert_eq!(q.old_of_new(), &ids[..]);
            // The two constructors read one vector in opposite directions.
            prop_assert_eq!(p.clone().inverse(), q.clone());
            prop_assert_eq!(q.inverse().inverse(), Permutation::from_old_of_new(ids.clone()).unwrap());
            // Element `i` moves to `ids[i]`.
            let values: Vec<u64> = (0..len as u64).map(|i| i * 1000 + 7).collect();
            let moved = p.permute_slice(&values);
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(moved[ids[i] as usize], v);
            }
        }
    }

    #[test]
    fn refuses_repeats_and_out_of_range() {
        let repeat = Permutation::from_new_of_old(vec![0, 2, 2]).unwrap_err();
        assert_eq!((repeat.position, repeat.value), (2, 2));
        let range = Permutation::from_old_of_new(vec![0, 3, 1]).unwrap_err();
        assert_eq!((range.len, range.position, range.value), (3, 1, 3));
        assert!(Permutation::from_new_of_old(vec![]).unwrap().is_empty());
    }

    #[test]
    fn the_two_directions_are_inverse() {
        let p = Permutation::from_new_of_old(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(p.old_of_new(), &[1, 3, 0, 2]);
        assert_eq!(p.clone().inverse().new_of_old(), p.old_of_new());
        assert_eq!(p.permute_slice(&['a', 'b', 'c', 'd']), ['b', 'd', 'a', 'c']);
    }

    #[test]
    fn z_order_of_a_scrambled_grid() {
        // 4 x 4 unit grid handed over in reverse row-major order.
        let set = Set::new("nodes", 16);
        let xy: Vec<f64> = (0..16)
            .rev()
            .flat_map(|s| [(s % 4) as f64, (s / 4) as f64])
            .collect();
        let coords = DatU::from_vec("x", &set, 2, xy);
        let p = sfc_order(&coords);
        let sorted = p.permute_dat(&coords);
        let cells: Vec<(u32, u32)> = (0..16)
            .map(|e| (sorted.get(e, 0) as u32, sorted.get(e, 1) as u32))
            .collect();
        // The Z curve: 2 x 2 blocks, x fastest inside a block.
        assert_eq!(&cells[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(&cells[4..8], &[(2, 0), (3, 0), (2, 1), (3, 1)]);
        assert_eq!(cells[8], (0, 2));
        assert_eq!(cells[15], (3, 3));
    }

    #[test]
    fn a_long_line_sorts_by_coordinate() {
        // 17 key bits in one dimension: more than two bytes of cell index.
        let n = 200_000usize;
        let set = Set::new("nodes", n);
        let xs: Vec<f64> = (0..n).map(|i| (i * 7919 % n) as f64).collect();
        let sorted = sfc_order(&DatU::from_vec("x", &set, 1, xs.clone()));
        let cell_width = n as f64 / (1 << n.ilog2()) as f64;
        let along: Vec<f64> = sorted.permute_slice(&xs);
        assert!(along.windows(2).all(|w| w[1] > w[0] - cell_width));
    }

    #[test]
    fn edges_follow_their_smallest_node() {
        let nodes = Set::new("nodes", 4);
        let edges = Set::new("edges", 4);
        let e2n = Map::new("e2n", &edges, &nodes, 2, vec![3, 2, 1, 0, 2, 0, 1, 3]);
        let (start, order) = group_by_min_target(&e2n);
        assert_eq!(order.old_of_new(), &[1, 2, 3, 0]);
        assert_eq!(start, [0, 2, 3, 4, 4]);
        let sorted = order.permute_rows(&e2n);
        // Rows moved whole: orientation kept.
        assert_eq!(sorted.raw(), &[1, 0, 2, 0, 1, 3, 3, 2]);
    }
}
