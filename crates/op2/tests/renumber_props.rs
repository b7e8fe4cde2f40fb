//! The renumbering pass on random meshes: whatever the coordinates — one
//! node, many nodes on one point, all nodes on one line — the rank is a
//! permutation, applying it and its inverse gives back the input, and the
//! renumbered mesh is the same graph with the same geometry.

use bwb_op2::{order_by_min_target, sfc_order, DatU, Map, Permutation, Set};
use proptest::prelude::*;

/// SplitMix64: the vendored proptest draws scalars only, so a mesh is
/// expanded from one drawn seed.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Mesh {
    coords: DatU<f64>,
    e2n: Map,
    weights: DatU<f64>,
}

/// `shape` 0: scattered points; 1: points drawn from a 3 × 3 lattice, so
/// most coordinates repeat; 2: every node on one line (one axis constant).
fn mesh(n_nodes: usize, n_edges: usize, dim: usize, shape: u8, seed: u64) -> Mesh {
    let mut draw = Draw(seed);
    let nodes = Set::new("nodes", n_nodes);
    let edges = Set::new("edges", n_edges);
    let mut xs = Vec::with_capacity(n_nodes * dim);
    for _ in 0..n_nodes {
        for d in 0..dim {
            xs.push(match shape {
                0 => draw.unit() * 8.0 - 3.0,
                1 => draw.below(3) as f64,
                _ if d == 0 => draw.unit(),
                _ => 0.25,
            });
        }
    }
    let idx = (0..2 * n_edges)
        .map(|_| draw.below(n_nodes) as u32)
        .collect();
    let w = (0..n_edges).map(|_| draw.unit()).collect();
    Mesh {
        coords: DatU::from_vec("x", &nodes, dim, xs),
        e2n: Map::new("e2n", &edges, &nodes, 2, idx),
        weights: DatU::from_vec("w", &edges, 1, w),
    }
}

/// Every edge as (coordinates of a, coordinates of b, weight), sorted: the
/// graph with its geometry, whatever the numbering.
fn geometry(m: &Mesh) -> Vec<Vec<u64>> {
    let mut edges: Vec<Vec<u64>> = (0..m.e2n.from_size)
        .map(|e| {
            let ends = m.e2n.targets(e).iter();
            let mut row: Vec<u64> = ends
                .flat_map(|&t| m.coords.elem(t as usize))
                .map(|x| x.to_bits())
                .collect();
            row.push(m.weights.get(e, 0).to_bits());
            row
        })
        .collect();
    edges.sort();
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rank_is_a_permutation_and_undoes(
        n_nodes in 1usize..300,
        n_edges in 0usize..500,
        dim in 1usize..4,
        shape in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let m = mesh(n_nodes, n_edges, dim, shape, seed);
        let p = sfc_order(&m.coords);
        let mut listed = p.old_of_new().to_vec();
        listed.sort_unstable();
        prop_assert_eq!(listed, (0..n_nodes as u32).collect::<Vec<_>>());
        for (old, &new) in p.new_of_old().iter().enumerate() {
            prop_assert_eq!(p.old_of_new()[new as usize] as usize, old);
        }
        // The same coordinates always rank the same way.
        prop_assert_eq!(&sfc_order(&m.coords), &p);

        let back = p.clone().inverse();
        prop_assert_eq!(&back.permute_dat(&p.permute_dat(&m.coords)), &m.coords);
        let q = order_by_min_target(&m.e2n);
        let unsort = q.clone().inverse();
        prop_assert_eq!(&unsort.permute_rows(&q.permute_rows(&m.e2n)), &m.e2n);
        prop_assert_eq!(&unsort.permute_dat(&q.permute_dat(&m.weights)), &m.weights);
        let mut relabelled = m.e2n.clone();
        p.relabel_targets(&mut relabelled);
        back.relabel_targets(&mut relabelled);
        prop_assert_eq!(&relabelled, &m.e2n);
    }

    #[test]
    fn a_non_permutation_is_refused(
        n in 1usize..200,
        at in 0usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let m = mesh(n, 0, 2, 0, seed);
        let mut ids = sfc_order(&m.coords).new_of_old().to_vec();
        prop_assert!(Permutation::from_new_of_old(ids.clone()).is_ok());
        let at = at % n;
        // Out of range, or (with a second element to collide with) a repeat.
        ids[at] = if seed % 2 == 0 || n == 1 { n as u32 } else { ids[(at + 1) % n] };
        let refused = Permutation::from_new_of_old(ids.clone()).unwrap_err();
        prop_assert_eq!(refused.len, n);
        prop_assert_eq!(ids[refused.position], refused.value);
        prop_assert!(Permutation::from_old_of_new(ids).is_err());
    }

    #[test]
    fn renumbered_mesh_is_the_same_graph_with_the_same_geometry(
        n_nodes in 1usize..300,
        n_edges in 0usize..500,
        dim in 1usize..4,
        shape in 0u8..3,
        seed in 0u64..u64::MAX,
    ) {
        let m = mesh(n_nodes, n_edges, dim, shape, seed);
        let by_node = sfc_order(&m.coords);
        let mut e2n = m.e2n.clone();
        by_node.relabel_targets(&mut e2n);
        let by_edge = order_by_min_target(&e2n);
        let renumbered = Mesh {
            coords: by_node.permute_dat(&m.coords),
            e2n: by_edge.permute_rows(&e2n),
            weights: by_edge.permute_dat(&m.weights),
        };
        prop_assert_eq!(geometry(&renumbered), geometry(&m));
        // Edges follow their smallest node.
        let smallest: Vec<u32> = (0..n_edges)
            .map(|e| *renumbered.e2n.targets(e).iter().min().unwrap())
            .collect();
        prop_assert!(smallest.windows(2).all(|w| w[0] <= w[1]));
    }
}
