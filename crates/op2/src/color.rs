//! Greedy set coloring for race-free indirect increments.
//!
//! Two source elements *conflict* when they touch the same target through
//! any of the write maps; elements of one color are conflict-free and can be
//! processed in parallel. This is OP2's standard OpenMP/SYCL execution
//! scheme ([Reguly et al. 2021], the paper's [23]); the paper notes the
//! locality cost it carries versus the vectorized MPI implementation.

use crate::set::Map;

/// A coloring of a source set with conflict-free color classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// `colors[e]` = color of element `e`.
    pub colors: Vec<u32>,
    pub n_colors: u32,
    /// Elements grouped by color, each group sorted ascending (preserving
    /// as much memory locality as a colored schedule can).
    pub by_color: Vec<Vec<u32>>,
}

impl Coloring {
    /// Greedy first-fit coloring of `set_size` elements so that no two
    /// elements of one color share a target through any map in `write_maps`.
    pub fn greedy(set_size: usize, write_maps: &[&Map]) -> Self {
        for m in write_maps {
            assert_eq!(
                m.from_size, set_size,
                "map '{}' source-set mismatch",
                m.name
            );
        }
        let mut colors = vec![u32::MAX; set_size];
        // For each target of each map, the colors already used on it.
        let mut target_used: Vec<Vec<u64>> = write_maps
            .iter()
            .map(|m| vec![0u64; m.to_size]) // bitmask of first 64 colors
            .collect();
        let mut overflow: Vec<std::collections::BTreeMap<usize, Vec<u32>>> = write_maps
            .iter()
            .map(|_| std::collections::BTreeMap::new())
            .collect();
        let mut n_colors = 0u32;

        for (e, color_slot) in colors.iter_mut().enumerate() {
            // Forbidden colors = union over maps/targets of used colors.
            let mut forbidden: u64 = 0;
            for (m, used) in write_maps.iter().zip(&target_used) {
                for &t in m.targets(e) {
                    forbidden |= used[t as usize];
                }
            }
            let mut c = forbidden.trailing_ones();
            if c >= 64 {
                // Rare: fall back to scanning beyond 64 colors, which only
                // now need looking up.
                c = 64;
                let mut forbidden_hi: Vec<u32> = Vec::new();
                for (m, over) in write_maps.iter().zip(&overflow) {
                    for &t in m.targets(e) {
                        forbidden_hi.extend(over.get(&(t as usize)).into_iter().flatten());
                    }
                }
                forbidden_hi.sort_unstable();
                while forbidden_hi.binary_search(&c).is_ok() {
                    c += 1;
                }
            }
            *color_slot = c;
            n_colors = n_colors.max(c + 1);
            for (mi, m) in write_maps.iter().enumerate() {
                for &t in m.targets(e) {
                    if c < 64 {
                        target_used[mi][t as usize] |= 1u64 << c;
                    } else {
                        overflow[mi].entry(t as usize).or_default().push(c);
                    }
                }
            }
        }

        let mut class_len = vec![0usize; n_colors as usize];
        for &c in &colors {
            class_len[c as usize] += 1;
        }
        let mut by_color: Vec<Vec<u32>> = class_len.into_iter().map(Vec::with_capacity).collect();
        for (e, &c) in colors.iter().enumerate() {
            by_color[c as usize].push(e as u32);
        }
        Coloring {
            colors,
            n_colors,
            by_color,
        }
    }

    /// Trivial coloring: every element the same color (valid only for
    /// direct loops or serial execution).
    pub fn trivial(set_size: usize) -> Self {
        Coloring {
            colors: vec![0; set_size],
            n_colors: 1,
            by_color: vec![(0..set_size as u32).collect()],
        }
    }

    /// Verify the coloring is conflict-free for the given maps. Duplicate
    /// targets *within one element* (e.g. a self-loop edge) are not
    /// conflicts — the element's increments are sequential in its kernel.
    pub fn validate(&self, write_maps: &[&Map]) -> bool {
        for m in write_maps {
            // seen[t] = (color, element) of the last toucher.
            let mut seen: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); m.to_size];
            for (color, elems) in self.by_color.iter().enumerate() {
                for &e in elems {
                    for &t in m.targets(e as usize) {
                        let (c, prev_e) = seen[t as usize];
                        if c == color as u32 && prev_e != e {
                            return false;
                        }
                        seen[t as usize] = (color as u32, e);
                    }
                }
            }
        }
        true
    }

    /// The locality penalty proxy the paper discusses: average stride
    /// between consecutively-processed elements (1.0 = perfectly
    /// sequential, larger = worse cache behaviour of the colored schedule).
    pub fn mean_schedule_stride(&self) -> f64 {
        let mut total = 0u64;
        let mut count = 0u64;
        for elems in &self.by_color {
            for w in elems.windows(2) {
                total += (w[1] - w[0]) as u64;
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            total as f64 / count as f64
        }
    }
}

/// A coloring of contiguous element *blocks*.
///
/// OP2's OpenMP scheme at block granularity: the source set is cut into
/// blocks of `block_size` consecutive elements and the blocks are colored
/// so that no two same-colored blocks share a target through any write map.
/// Compared to element coloring this (a) needs one parallel region and
/// barrier per *block* color — typically far fewer colors than the
/// element-granularity schedule when conflicts are local — and (b) keeps
/// gather locality, since each task walks consecutive elements instead of a
/// strided color class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockColoring {
    pub block_size: usize,
    pub set_size: usize,
    /// `block_colors[b]` = color of block `b`.
    pub block_colors: Vec<u32>,
    pub n_colors: u32,
    /// Block ids grouped by color, each group ascending.
    pub by_color: Vec<Vec<u32>>,
}

impl BlockColoring {
    /// Greedy first-fit coloring of `ceil(set_size / block_size)` contiguous
    /// blocks so that no two blocks of one color share a target through any
    /// map in `write_maps`.
    pub fn greedy(set_size: usize, block_size: usize, write_maps: &[&Map]) -> Self {
        assert!(block_size >= 1);
        for m in write_maps {
            assert_eq!(
                m.from_size, set_size,
                "map '{}' source-set mismatch",
                m.name
            );
        }
        let n_blocks = set_size.div_ceil(block_size);
        let mut block_colors = vec![u32::MAX; n_blocks];
        let mut target_used: Vec<Vec<u64>> =
            write_maps.iter().map(|m| vec![0u64; m.to_size]).collect();
        let mut overflow: Vec<std::collections::BTreeMap<usize, Vec<u32>>> = write_maps
            .iter()
            .map(|_| std::collections::BTreeMap::new())
            .collect();
        let mut n_colors = 0u32;

        for (b, color_slot) in block_colors.iter_mut().enumerate() {
            let lo = b * block_size;
            let hi = (lo + block_size).min(set_size);
            let mut forbidden: u64 = 0;
            let mut forbidden_hi: Vec<u32> = Vec::new();
            for (mi, m) in write_maps.iter().enumerate() {
                for e in lo..hi {
                    for &t in m.targets(e) {
                        forbidden |= target_used[mi][t as usize];
                        if let Some(hi_colors) = overflow[mi].get(&(t as usize)) {
                            forbidden_hi.extend_from_slice(hi_colors);
                        }
                    }
                }
            }
            let mut c = forbidden.trailing_ones();
            if c >= 64 {
                c = 64;
                forbidden_hi.sort_unstable();
                while forbidden_hi.binary_search(&c).is_ok() {
                    c += 1;
                }
            }
            *color_slot = c;
            n_colors = n_colors.max(c + 1);
            for (mi, m) in write_maps.iter().enumerate() {
                for e in lo..hi {
                    for &t in m.targets(e) {
                        if c < 64 {
                            target_used[mi][t as usize] |= 1u64 << c;
                        } else {
                            overflow[mi].entry(t as usize).or_default().push(c);
                        }
                    }
                }
            }
        }

        let mut by_color = vec![Vec::new(); n_colors as usize];
        for (b, &c) in block_colors.iter().enumerate() {
            by_color[c as usize].push(b as u32);
        }
        BlockColoring {
            block_size,
            set_size,
            block_colors,
            n_colors,
            by_color,
        }
    }

    pub fn n_blocks(&self) -> usize {
        self.block_colors.len()
    }

    /// Element range `[lo, hi)` of block `b`.
    pub fn block_range(&self, b: usize) -> std::ops::Range<usize> {
        let lo = b * self.block_size;
        lo..(lo + self.block_size).min(self.set_size)
    }

    /// Verify that no two *distinct* blocks of one color share a target.
    /// Conflicts within one block are fine — its elements run sequentially.
    pub fn validate(&self, write_maps: &[&Map]) -> bool {
        for m in write_maps {
            // seen[t] = (color, block) of the last toucher.
            let mut seen: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); m.to_size];
            for (color, blocks) in self.by_color.iter().enumerate() {
                for &b in blocks {
                    for e in self.block_range(b as usize) {
                        for &t in m.targets(e) {
                            let (c, prev_b) = seen[t as usize];
                            if c == color as u32 && prev_b != b {
                                return false;
                            }
                            seen[t as usize] = (color as u32, b);
                        }
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Set;

    fn line_mesh(n_edges: usize) -> Map {
        let nodes = Set::new("nodes", n_edges + 1);
        let edges = Set::new("edges", n_edges);
        let idx: Vec<u32> = (0..n_edges)
            .flat_map(|e| [e as u32, e as u32 + 1])
            .collect();
        Map::new("e2n", &edges, &nodes, 2, idx)
    }

    #[test]
    fn line_mesh_needs_two_colors() {
        let m = line_mesh(10);
        let c = Coloring::greedy(10, &[&m]);
        assert_eq!(c.n_colors, 2);
        assert!(c.validate(&[&m]));
        // Alternating colors on a line.
        for e in 0..10 {
            assert_eq!(c.colors[e], (e % 2) as u32);
        }
    }

    #[test]
    fn color_classes_partition_the_set() {
        let m = line_mesh(17);
        let c = Coloring::greedy(17, &[&m]);
        let total: usize = c.by_color.iter().map(|v| v.len()).sum();
        assert_eq!(total, 17);
        let mut all: Vec<u32> = c.by_color.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..17u32).collect::<Vec<_>>());
    }

    #[test]
    fn star_mesh_needs_degree_colors() {
        // 6 edges all touching node 0: every edge conflicts with every
        // other → 6 colors.
        let nodes = Set::new("nodes", 7);
        let edges = Set::new("edges", 6);
        let idx: Vec<u32> = (0..6).flat_map(|e| [0u32, e as u32 + 1]).collect();
        let m = Map::new("e2n", &edges, &nodes, 2, idx);
        let c = Coloring::greedy(6, &[&m]);
        assert_eq!(c.n_colors, 6);
        assert!(c.validate(&[&m]));
        assert!(c.n_colors as usize >= m.max_target_degree());
    }

    #[test]
    fn star_of_seventy_edges_goes_past_the_bitmask() {
        // 70 edges on one node: colours 64..69 live in the overflow lists,
        // which are looked up only once the 64-bit mask is full.
        let nodes = Set::new("nodes", 71);
        let edges = Set::new("edges", 70);
        let idx: Vec<u32> = (0..70).flat_map(|e| [0u32, e + 1]).collect();
        let m = Map::new("e2n", &edges, &nodes, 2, idx);
        let c = Coloring::greedy(70, &[&m]);
        assert_eq!(c.n_colors, 70);
        assert!(c.validate(&[&m]));
        assert_eq!(c.colors, (0..70).collect::<Vec<u32>>());
    }

    #[test]
    fn multiple_maps_all_respected() {
        let m1 = line_mesh(8);
        // Second map: edge → the single "cell" floor(e/2).
        let edges = Set::new("edges", 8);
        let cells = Set::new("cells", 4);
        let idx: Vec<u32> = (0..8).map(|e| (e / 2) as u32).collect();
        let m2 = Map::new("e2c", &edges, &cells, 1, idx);
        let c = Coloring::greedy(8, &[&m1, &m2]);
        assert!(c.validate(&[&m1, &m2]));
    }

    #[test]
    fn validate_rejects_bad_coloring() {
        let m = line_mesh(4);
        let bad = Coloring::trivial(4);
        assert!(!bad.validate(&[&m]));
    }

    #[test]
    fn trivial_coloring_is_single_class() {
        let c = Coloring::trivial(5);
        assert_eq!(c.n_colors, 1);
        assert_eq!(c.by_color[0].len(), 5);
    }

    #[test]
    fn greedy_color_count_bounded_by_max_conflict_degree() {
        // Brooks-style bound for greedy: colors ≤ max conflicts + 1.
        // Random quad mesh: cells → 4 nodes on a grid.
        let nx = 8;
        let nodes = Set::new("nodes", (nx + 1) * (nx + 1));
        let cells = Set::new("cells", nx * nx);
        let mut idx = Vec::new();
        for cy in 0..nx {
            for cx in 0..nx {
                let n0 = (cy * (nx + 1) + cx) as u32;
                idx.extend([n0, n0 + 1, n0 + nx as u32 + 1, n0 + nx as u32 + 2]);
            }
        }
        let m = Map::new("c2n", &cells, &nodes, 4, idx);
        let c = Coloring::greedy(nx * nx, &[&m]);
        assert!(c.validate(&[&m]));
        // Quad grid cells sharing a node: ≤ 4 cells per node → greedy needs
        // at most ~ 2*4 colors in practice; sanity bound:
        assert!(c.n_colors <= 8, "n_colors = {}", c.n_colors);
    }

    #[test]
    fn block_coloring_line_mesh_two_colors() {
        // Blocks of 4 on a line mesh conflict only with their neighbours
        // (shared boundary node) → alternating colors, far fewer barriers
        // than elements would imply.
        let m = line_mesh(32);
        let c = BlockColoring::greedy(32, 4, &[&m]);
        assert_eq!(c.n_blocks(), 8);
        assert_eq!(c.n_colors, 2);
        assert!(c.validate(&[&m]));
        for b in 0..8 {
            assert_eq!(c.block_colors[b], (b % 2) as u32);
        }
    }

    #[test]
    fn block_ranges_partition_the_set() {
        let m = line_mesh(10);
        let c = BlockColoring::greedy(10, 4, &[&m]);
        assert_eq!(c.n_blocks(), 3);
        assert_eq!(c.block_range(0), 0..4);
        assert_eq!(c.block_range(2), 8..10); // ragged tail clipped
        let total: usize = (0..c.n_blocks()).map(|b| c.block_range(b).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn block_coloring_validate_rejects_conflicts() {
        let m = line_mesh(8);
        let mut c = BlockColoring::greedy(8, 2, &[&m]);
        assert!(c.validate(&[&m]));
        // Force adjacent blocks (which share a node) onto one color.
        c.block_colors.iter_mut().for_each(|x| *x = 0);
        c.n_colors = 1;
        c.by_color = vec![(0..c.n_blocks() as u32).collect()];
        assert!(!c.validate(&[&m]));
    }

    #[test]
    fn block_size_covering_set_is_single_color() {
        let m = line_mesh(20);
        let c = BlockColoring::greedy(20, 64, &[&m]);
        assert_eq!(c.n_blocks(), 1);
        assert_eq!(c.n_colors, 1);
        assert!(c.validate(&[&m]));
    }

    #[test]
    fn block_coloring_uses_fewer_colors_than_star_elements() {
        // 6 edges all touching node 0: element coloring needs 6 colors;
        // one block of 6 holds every conflict internally → 1 color.
        let nodes = Set::new("nodes", 7);
        let edges = Set::new("edges", 6);
        let idx: Vec<u32> = (0..6).flat_map(|e| [0u32, e as u32 + 1]).collect();
        let m = Map::new("e2n", &edges, &nodes, 2, idx);
        let elem = Coloring::greedy(6, &[&m]);
        let block = BlockColoring::greedy(6, 6, &[&m]);
        assert_eq!(elem.n_colors, 6);
        assert_eq!(block.n_colors, 1);
        assert!(block.validate(&[&m]));
    }

    #[test]
    fn schedule_stride_reports_locality_cost() {
        let m = line_mesh(100);
        let colored = Coloring::greedy(100, &[&m]);
        let serial = Coloring::trivial(100);
        assert!(colored.mean_schedule_stride() > serial.mean_schedule_stride());
        assert_eq!(serial.mean_schedule_stride(), 1.0);
    }
}
