//! Cache-blocking tiling over loop chains (Figure 9).
//!
//! OPS's lazy-execution tiling ([Reguly et al. 2017]) delays the execution
//! of a chain of parallel loops, then re-orders it tile-by-tile so that the
//! data produced by one loop is consumed by the next while still resident in
//! cache. Across tile boundaries a loop must be executed over a range
//! *extended* by the downstream stencils' reach (skewing), recomputing a few
//! rows redundantly — the same trade OPS makes at MPI boundaries.
//!
//! Our implementation is a faithful 1-D (outer-dimension) version of that
//! scheme: a [`LoopChain2`] records loops (ranges, stencil reach, kernels
//! over a field store), and executes them either loop-by-loop (untiled) or
//! tile-by-tile with skew. The contract for correctness under redundant
//! recomputation is the OPS one: each loop reads only fields produced by
//! *earlier* loops (or chain inputs) and writes only at the current point —
//! no in-place stencil updates.
//!
//! [Reguly et al. 2017]: https://doi.org/10.1109/TPDS.2017.2778161

use crate::exec::{par_loop2, ExecMode, In2, Out2, Range2, WView};
use crate::field::Dat2;
use crate::profile::Profile;
use rayon::prelude::*;
use std::time::Instant;

/// Kernel signature for chained loops.
pub type ChainKernel2<T> = Box<dyn Fn(isize, isize, &mut Out2<T>, &In2<T>) + Sync + Send>;

/// One recorded loop of a chain.
pub struct ChainLoop2<T> {
    pub name: String,
    pub range: Range2,
    /// Maximum absolute read offset (stencil radius) of this loop's inputs.
    pub reach: isize,
    pub flops_per_point: f64,
    /// Indices into the field store written at the current point.
    pub outs: Vec<usize>,
    /// Indices into the field store read at offsets within `reach`.
    pub ins: Vec<usize>,
    pub kernel: ChainKernel2<T>,
}

/// A lazy chain of 2-D loops over a shared field store.
pub struct LoopChain2<T> {
    mode: ExecMode,
    loops: Vec<ChainLoop2<T>>,
}

/// Static (kernel-free) description of one chain loop — what the tiling
/// planner knows about it before execution.
#[derive(Debug, Clone)]
pub struct PlannedLoop {
    pub name: String,
    pub range: Range2,
    /// Declared stencil reach: the skew the tiled schedule budgets for.
    pub reach: isize,
    /// Field-store indices written at the current point.
    pub outs: Vec<usize>,
    /// Field-store indices read at offsets within `reach`.
    pub ins: Vec<usize>,
}

/// The schedule-relevant structure of a [`LoopChain2`] as plain data, for
/// plan-time validation (`bwb-dslcheck`) without executing any kernel.
#[derive(Debug, Clone, Default)]
pub struct ChainPlan {
    pub loops: Vec<PlannedLoop>,
}

impl ChainPlan {
    /// Total skew budget: the sum of declared reaches.
    pub fn total_reach(&self) -> isize {
        self.loops.iter().map(|l| l.reach).sum()
    }
}

impl<T: Copy + Default + Send + Sync + 'static> LoopChain2<T> {
    pub fn new(mode: ExecMode) -> Self {
        LoopChain2 {
            mode,
            loops: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.loops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Record a loop. `reach` is the stencil radius of its reads; `outs` and
    /// `ins` index into the field store passed to `execute*`.
    #[allow(clippy::too_many_arguments)]
    pub fn add<F>(
        &mut self,
        name: &str,
        range: Range2,
        reach: isize,
        flops_per_point: f64,
        outs: Vec<usize>,
        ins: Vec<usize>,
        kernel: F,
    ) where
        F: Fn(isize, isize, &mut Out2<T>, &In2<T>) + Sync + Send + 'static,
    {
        assert!(reach >= 0);
        assert!(
            outs.iter().all(|o| !ins.contains(o)),
            "loop '{name}': a field cannot be both input and output (no in-place stencils)"
        );
        self.loops.push(ChainLoop2 {
            name: name.to_owned(),
            range,
            reach,
            flops_per_point,
            outs,
            ins,
            kernel: Box::new(kernel),
        });
    }

    /// Extract the chain's schedule as data for plan-time validation.
    pub fn plan(&self) -> ChainPlan {
        ChainPlan {
            loops: self
                .loops
                .iter()
                .map(|l| PlannedLoop {
                    name: l.name.clone(),
                    range: l.range,
                    reach: l.reach,
                    outs: l.outs.clone(),
                    ins: l.ins.clone(),
                })
                .collect(),
        }
    }

    fn run_one(
        &self,
        l: &ChainLoop2<T>,
        sub: Range2,
        store: &mut [Dat2<T>],
        profile: &mut Profile,
    ) {
        if sub.is_empty() {
            return;
        }
        // Move the output fields out of the store so we can borrow the rest
        // immutably (a loop never lists the same field as in and out).
        let mut taken: Vec<(usize, Dat2<T>)> = l
            .outs
            .iter()
            .map(|&id| {
                (
                    id,
                    std::mem::replace(&mut store[id], Dat2::new("_taken", 1, 1, 0)),
                )
            })
            .collect();
        {
            let mut out_refs: Vec<&mut Dat2<T>> = taken.iter_mut().map(|(_, d)| d).collect();
            let in_refs: Vec<&Dat2<T>> = l.ins.iter().map(|&id| &store[id]).collect();
            let k = &l.kernel;
            par_loop2(
                profile,
                &l.name,
                self.mode,
                sub,
                &mut out_refs,
                &in_refs,
                l.flops_per_point,
                |i, j, o, inp| k(i, j, o, inp),
            );
        }
        for (id, d) in taken {
            store[id] = d;
        }
    }

    /// Execute the chain loop-by-loop over full ranges (the baseline).
    pub fn execute(&self, store: &mut [Dat2<T>], profile: &mut Profile) {
        for l in &self.loops {
            self.run_one(l, l.range, store, profile);
        }
    }

    /// Skew extension of loop `l`: how far beyond the tile its range must
    /// extend so every downstream loop's reads are satisfied.
    fn extension(&self, l: usize) -> isize {
        self.loops[l + 1..].iter().map(|x| x.reach).sum()
    }

    /// The tile bands `[t0, t1)` covering the chain's outer extent.
    fn tile_bands(&self, tile_height: usize) -> Vec<(isize, isize)> {
        let j_min = self.loops.iter().map(|l| l.range.j0).min().unwrap();
        let j_max = self.loops.iter().map(|l| l.range.j1).max().unwrap();
        let th = tile_height as isize;
        let mut bands = Vec::new();
        let mut t0 = j_min;
        while t0 < j_max {
            let t1 = (t0 + th).min(j_max);
            bands.push((t0, t1));
            t0 = t1;
        }
        bands
    }

    /// Slab of loop `idx` for tile band `[t0, t1)`: the tile extended by
    /// the skew, clipped to the loop's range. Rows below `t0 - ext` were
    /// computed by earlier tiles (their extended ranges covered them), so
    /// recomputing rows in `[t0 - ext, t0)` is merely redundant, not wrong
    /// — the redundant-compute cost the paper describes.
    fn tile_slab(&self, idx: usize, t0: isize, t1: isize) -> Range2 {
        let l = &self.loops[idx];
        let ext = self.extension(idx);
        Range2 {
            i0: l.range.i0,
            i1: l.range.i1,
            j0: (t0 - ext).max(l.range.j0),
            j1: (t1 + ext).min(l.range.j1),
        }
    }

    /// Execute the chain tile-by-tile over the outer (`j`) dimension with
    /// tiles of `tile_height` rows, redundantly recomputing skew regions at
    /// tile boundaries. Produces results identical to [`Self::execute`].
    ///
    /// In [`ExecMode::Rayon`] the tiles themselves execute in parallel
    /// (see [`Self::execute_tiled_parallel`]) when the tile height permits
    /// a race-free phased schedule; otherwise tiles run in order with each
    /// slab internally parallel, as before.
    pub fn execute_tiled(&self, store: &mut [Dat2<T>], profile: &mut Profile, tile_height: usize) {
        assert!(tile_height > 0);
        if self.loops.is_empty() {
            return;
        }
        let tiles = self.tile_bands(tile_height);
        let total_reach: isize = self.loops.iter().map(|l| l.reach).sum();
        // Checked-execution recording must flow through `par_loop2` (the
        // serial tiled path), so the phased-parallel path is skipped while a
        // recording session is active.
        if self.mode == ExecMode::Rayon
            && !crate::access::recording_active()
            && tiles.len() > 1
            && tile_height as isize >= 2 * total_reach
        {
            self.execute_tiled_parallel(store, profile, &tiles);
        } else {
            for (t, &(t0, t1)) in tiles.iter().enumerate() {
                let mut tile_span = bwb_trace::span(bwb_trace::Cat::Tile, "tile");
                tile_span.set_args(t as f64, t0 as f64, t1 as f64);
                for (idx, l) in self.loops.iter().enumerate() {
                    self.run_one(l, self.tile_slab(idx, t0, t1), store, profile);
                }
            }
        }
    }

    /// Phased parallel execution over tiles.
    ///
    /// # Why this is race-free and bit-identical to serial tile order
    ///
    /// Every access a tile makes stays within `tile ± Σ reach` rows: loop
    /// `l`'s slab extends `ext(l)` rows beyond the tile and its reads reach
    /// `ext(l) + reach(l) = ext(l-1)` rows, maximized at loop 0 with
    /// `ext(0) + reach(0) = Σ reach`. With `tile_height ≥ 2·Σ reach` the
    /// access extents of a tile and the tile-after-next cannot overlap, so
    /// all even-indexed tiles are mutually independent, as are all odd ones
    /// — the two phases run in parallel internally, separated by a join.
    ///
    /// Adjacent tiles do overlap (the skew bands), but each tile reads only
    /// rows it wrote *itself* at an earlier loop of the chain (the skew
    /// invariant above), so overlapping writes by neighbouring tiles carry
    /// identical values derived from the pre-chain store: execution order
    /// across phases cannot change any result bit.
    ///
    /// Per-loop byte/FLOP accounting is accumulated per tile during
    /// execution and recorded after the join in serial tile order, so the
    /// profile's points/bytes/FLOPs/call counts are exactly those of the
    /// serial tiled schedule.
    fn execute_tiled_parallel(
        &self,
        store: &mut [Dat2<T>],
        profile: &mut Profile,
        tiles: &[(isize, isize)],
    ) {
        let n_loops = self.loops.len();
        // Hoist view construction out of the tile × loop hot path: one raw
        // base per field, one write/read view vector per loop.
        let store_names: Vec<String> = store.iter().map(|d| d.name().to_string()).collect();
        let fields: Vec<WView<T>> = store.iter_mut().map(WView::of).collect();
        let views: Vec<_> = self
            .loops
            .iter()
            .map(|l| {
                (
                    l.outs.iter().map(|&id| fields[id]).collect::<Vec<_>>(),
                    l.ins
                        .iter()
                        .map(|&id| fields[id].read())
                        .collect::<Vec<_>>(),
                    l.outs
                        .iter()
                        .map(|&id| store_names[id].clone())
                        .collect::<Vec<_>>(),
                    l.ins
                        .iter()
                        .map(|&id| store_names[id].clone())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let slabs: Vec<Vec<Range2>> = tiles
            .iter()
            .map(|&(t0, t1)| {
                (0..n_loops)
                    .map(|idx| self.tile_slab(idx, t0, t1))
                    .collect()
            })
            .collect();

        let run_tile = |t: usize| -> Vec<f64> {
            let mut secs = vec![0.0f64; n_loops];
            let mut tile_span = bwb_trace::span(bwb_trace::Cat::Tile, "tile");
            tile_span.set_args(t as f64, tiles[t].0 as f64, tiles[t].1 as f64);
            for (idx, l) in self.loops.iter().enumerate() {
                let sub = slabs[t][idx];
                if sub.is_empty() {
                    continue;
                }
                let (w, r, on, inames) = &views[idx];
                let mut lspan = bwb_trace::span(bwb_trace::Cat::Loop, &l.name);
                let start = Instant::now();
                for j in sub.j0..sub.j1 {
                    for i in sub.i0..sub.i1 {
                        let mut out = Out2::at(w, on, i, j);
                        let inp = In2::at(r, inames, i, j);
                        (l.kernel)(i, j, &mut out, &inp);
                    }
                }
                secs[idx] = start.elapsed().as_secs_f64();
                let bytes_per_point = (l.outs.len() + l.ins.len()) * std::mem::size_of::<T>();
                lspan.set_args(
                    (sub.points() * bytes_per_point) as f64,
                    sub.points() as f64 * l.flops_per_point,
                    sub.points() as f64,
                );
            }
            secs
        };

        let evens: Vec<usize> = (0..tiles.len()).step_by(2).collect();
        let odds: Vec<usize> = (1..tiles.len()).step_by(2).collect();
        let even_secs: Vec<Vec<f64>> = evens.par_iter().map(|&t| run_tile(t)).collect();
        // The collect above is the phase barrier: every even tile finished.
        let odd_secs: Vec<Vec<f64>> = odds.par_iter().map(|&t| run_tile(t)).collect();

        let mut per_tile: Vec<Vec<f64>> = vec![Vec::new(); tiles.len()];
        for (&t, secs) in evens.iter().zip(even_secs) {
            per_tile[t] = secs;
        }
        for (&t, secs) in odds.iter().zip(odd_secs) {
            per_tile[t] = secs;
        }

        for (t, secs) in per_tile.iter().enumerate() {
            for (idx, l) in self.loops.iter().enumerate() {
                let sub = slabs[t][idx];
                if sub.is_empty() {
                    continue;
                }
                // Same accounting formula as `par_loop2`, per (tile, loop).
                let bytes_per_point = (l.outs.len() + l.ins.len()) * std::mem::size_of::<T>();
                profile.record(
                    &l.name,
                    sub.points(),
                    sub.points() * bytes_per_point,
                    sub.points() as f64 * l.flops_per_point,
                    secs[idx],
                );
            }
        }
    }

    /// Count of points executed (including redundant recomputation) for a
    /// tiled execution with the given tile height — lets tests and the
    /// perfmodel quantify the redundant-compute overhead.
    pub fn tiled_point_count(&self, tile_height: usize) -> usize {
        if self.loops.is_empty() {
            return 0;
        }
        self.tile_bands(tile_height)
            .iter()
            .map(|&(t0, t1)| {
                (0..self.loops.len())
                    .map(|idx| self.tile_slab(idx, t0, t1).points())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Points executed untiled (the useful work).
    pub fn untiled_point_count(&self) -> usize {
        self.loops.iter().map(|l| l.range.points()).sum()
    }

    /// Approximate per-tile working set in bytes: the fields touched by the
    /// chain restricted to one tile slab (plus skew). Used to choose tile
    /// heights that fit the last-level cache, as OPS's tiling planner does.
    pub fn tile_working_set_bytes(&self, store: &[Dat2<T>], tile_height: usize) -> usize {
        let mut fields: Vec<usize> = self
            .loops
            .iter()
            .flat_map(|l| l.outs.iter().chain(l.ins.iter()).copied())
            .collect();
        fields.sort_unstable();
        fields.dedup();
        let max_ext: isize = self.loops.iter().map(|l| l.reach).sum();
        fields
            .iter()
            .map(|&id| {
                let d = &store[id];
                let rows = tile_height + 2 * max_ext.unsigned_abs();
                d.pitch() * rows.min(d.ny() + 2 * d.halo()) * std::mem::size_of::<T>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a 3-loop smoothing chain: A --blur--> B --blur--> C --blur--> D
    fn chain_and_store(n: usize) -> (LoopChain2<f64>, Vec<Dat2<f64>>) {
        let mut store: Vec<Dat2<f64>> = (0..4)
            .map(|f| {
                let mut d = Dat2::new(&format!("f{f}"), n, n, 3);
                if f == 0 {
                    d.init_with(|i, j| ((i * 7 + j * 13) % 17) as f64);
                }
                d
            })
            .collect();
        // Fill halos of the source deterministically (physical BC stand-in).
        let h = 3isize;
        let nn = n as isize;
        {
            let src = &mut store[0];
            for j in -h..nn + h {
                for i in -h..nn + h {
                    if i < 0 || i >= nn || j < 0 || j >= nn {
                        src.set(i, j, 0.5);
                    }
                }
            }
        }
        let mut chain = LoopChain2::new(ExecMode::Serial);
        for l in 0..3usize {
            chain.add(
                &format!("blur{l}"),
                Range2::interior(n, n),
                1,
                4.0,
                vec![l + 1],
                vec![l],
                |_i, _j, out, ins| {
                    out.set(
                        0,
                        0.25 * (ins.get(0, -1, 0)
                            + ins.get(0, 1, 0)
                            + ins.get(0, 0, -1)
                            + ins.get(0, 0, 1)),
                    );
                },
            );
        }
        (chain, store)
    }

    // NOTE: the blur chain reads halos of intermediate fields at tile
    // edges; those are produced by the skewed extension, so only interior
    // rows within reach are consumed — matching the contract.

    #[test]
    fn tiled_equals_untiled() {
        for tile in [2usize, 3, 5, 8, 64] {
            let n = 24;
            let (chain, mut s1) = chain_and_store(n);
            let (chain2, mut s2) = chain_and_store(n);
            let mut p = Profile::new();
            chain.execute(&mut s1, &mut p);
            chain2.execute_tiled(&mut s2, &mut p, tile);
            let d = s1[3].max_abs_diff(&s2[3]);
            assert!(d < 1e-14, "tile={tile}: tiled result differs by {d}");
        }
    }

    #[test]
    fn redundant_compute_overhead_decreases_with_tile_height() {
        let (chain, _s) = chain_and_store(64);
        let useful = chain.untiled_point_count();
        let small = chain.tiled_point_count(4);
        let large = chain.tiled_point_count(32);
        assert!(small > large, "smaller tiles → more redundancy");
        assert!(large >= useful);
        // With tile = full height, overhead vanishes.
        assert_eq!(chain.tiled_point_count(64), useful);
    }

    #[test]
    fn extension_accumulates_downstream_reach() {
        let (chain, _s) = chain_and_store(16);
        assert_eq!(chain.extension(0), 2); // two downstream blurs of reach 1
        assert_eq!(chain.extension(1), 1);
        assert_eq!(chain.extension(2), 0);
    }

    #[test]
    fn working_set_scales_with_tile_height() {
        let (chain, s) = chain_and_store(64);
        let w4 = chain.tile_working_set_bytes(&s, 4);
        let w32 = chain.tile_working_set_bytes(&s, 32);
        assert!(w32 > w4);
    }

    #[test]
    #[should_panic(expected = "in-place")]
    fn in_place_stencil_rejected() {
        let mut chain = LoopChain2::<f64>::new(ExecMode::Serial);
        chain.add(
            "bad",
            Range2::interior(4, 4),
            1,
            0.0,
            vec![0],
            vec![0],
            |_i, _j, _o, _ins| {},
        );
    }

    #[test]
    fn empty_chain_executes() {
        let chain = LoopChain2::<f64>::new(ExecMode::Serial);
        let mut store: Vec<Dat2<f64>> = vec![];
        let mut p = Profile::new();
        chain.execute_tiled(&mut store, &mut p, 8);
        assert_eq!(chain.untiled_point_count(), 0);
    }

    #[test]
    fn rayon_tiled_matches_serial_tiled() {
        let n = 24;
        let (_, mut s1) = chain_and_store(n);
        let (_, mut s2) = chain_and_store(n);
        let build = |mode: ExecMode| {
            let mut chain = LoopChain2::new(mode);
            for l in 0..3usize {
                chain.add(
                    &format!("blur{l}"),
                    Range2::interior(n, n),
                    1,
                    4.0,
                    vec![l + 1],
                    vec![l],
                    |_i, _j, out, ins| {
                        out.set(
                            0,
                            0.25 * (ins.get(0, -1, 0)
                                + ins.get(0, 1, 0)
                                + ins.get(0, 0, -1)
                                + ins.get(0, 0, 1)),
                        );
                    },
                );
            }
            chain
        };
        let mut p = Profile::new();
        build(ExecMode::Serial).execute_tiled(&mut s1, &mut p, 6);
        build(ExecMode::Rayon).execute_tiled(&mut s2, &mut p, 6);
        assert_eq!(s1[3].max_abs_diff(&s2[3]), 0.0);
    }
}
