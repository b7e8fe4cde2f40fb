//! Distributed blocks: Cartesian decomposition over shmpi ranks with
//! ghost-cell exchange (paper §4: "a standard cartesian mesh decomposition
//! is used over MPI, with ghost cell exchanges triggered as needed before
//! each bulk parallel computational step").

use crate::access::{note_exchange_obs, Axes};
use crate::field::{Dat2, Dat3};
use bwb_shmpi::bufpool;
use bwb_shmpi::cart::CartComm;
use bwb_shmpi::Comm;
use std::cmp::Ordering;
use std::ops::Range;

/// Tag space reserved for halo traffic (dim × direction encoded).
pub const HALO_TAG_BASE: u32 = 0x4000_0000;

/// The tag a halo message travelling along `dim` in the `positive`
/// direction carries. Direction-encoded so that the two messages of one
/// face exchange never cross-match, even on periodic extent-2 topologies
/// where the low and high neighbour are the same rank (public for
/// commcheck and the tag-collision property tests).
pub fn halo_tag(dim: usize, positive: bool) -> u32 {
    HALO_TAG_BASE + (dim as u32) * 2 + u32::from(positive)
}

/// A halo-padded dataset as a face exchange sees it: a name, an extent of
/// up to three axes (a 2-D dat has one plane), and contiguous runs of
/// points along `i`, in halo coordinates.
trait Ghosted<T> {
    fn name(&self) -> &str;
    fn extent(&self) -> [isize; 3];
    fn run(&self, i: Range<isize>, j: isize, k: isize) -> &[T];
    fn run_mut(&mut self, i: Range<isize>, j: isize, k: isize) -> &mut [T];
}

impl<T: Copy> Ghosted<T> for Dat2<T> {
    fn name(&self) -> &str {
        self.name()
    }
    fn extent(&self) -> [isize; 3] {
        [self.nx() as isize, self.ny() as isize, 1]
    }
    fn run(&self, i: Range<isize>, j: isize, _k: isize) -> &[T] {
        let at = self.linear(i.start, j);
        &self.raw()[at..=self.linear(i.end - 1, j)]
    }
    fn run_mut(&mut self, i: Range<isize>, j: isize, _k: isize) -> &mut [T] {
        let at = self.linear(i.start, j);
        let end = self.linear(i.end - 1, j);
        &mut self.raw_mut()[at..=end]
    }
}

impl<T: Copy> Ghosted<T> for Dat3<T> {
    fn name(&self) -> &str {
        self.name()
    }
    fn extent(&self) -> [isize; 3] {
        [self.nx() as isize, self.ny() as isize, self.nz() as isize]
    }
    fn run(&self, i: Range<isize>, j: isize, k: isize) -> &[T] {
        let at = self.linear(i.start, j, k);
        &self.raw()[at..=self.linear(i.end - 1, j, k)]
    }
    fn run_mut(&mut self, i: Range<isize>, j: isize, k: isize) -> &mut [T] {
        let at = self.linear(i.start, j, k);
        let end = self.linear(i.end - 1, j, k);
        &mut self.raw_mut()[at..=end]
    }
}

/// One face exchange of `dat` along `dim` at `depth`: send the low strip
/// to the low neighbour and the high strip to the high neighbour, then
/// receive the high ghosts and the low ghosts. A strip spans `depth`
/// points along `dim`, the axes before `dim` extended into their ghosts
/// (so exchanging the axes in order fills edges and corners), and the
/// axes after it over their interior. `shared` is how many points at each
/// end of `dim` the block shares with its neighbour (1 on a node field's
/// interface line, 0 for cells): the strips sent shift that far inward.
///
/// Pack buffers come from the rank-local [`bufpool`] and received buffers
/// return to it, so steady-state exchanges reuse the allocations shipped
/// over in the previous exchange.
fn exchange_face<T: Copy + Send + 'static>(
    cart: &CartComm,
    rank: usize,
    comm: &mut Comm,
    dat: &mut impl Ghosted<T>,
    dim: usize,
    depth: usize,
    shared: usize,
) {
    if depth == 0 {
        return;
    }
    let (d, s) = (depth as isize, shared as isize);
    let extent = dat.extent();
    let n = extent[dim];
    // A thinner slab would ship ghosts it does not own, or its own ghosts.
    debug_assert!(
        d + s <= n,
        "'{}': a slab of {n} along axis {dim} is thinner than the exchange depth {depth} + {shared}",
        dat.name()
    );
    let strip = |lo: isize| -> [Range<isize>; 3] {
        std::array::from_fn(|axis| match axis.cmp(&dim) {
            Ordering::Less => -d..extent[axis] + d,
            Ordering::Equal => lo..lo + d,
            Ordering::Greater => 0..extent[axis],
        })
    };
    let rows = |b: &[Range<isize>; 3]| {
        let (j, k) = (b[1].clone(), b[2].clone());
        k.flat_map(move |k| j.clone().map(move |j| (j, k)))
    };
    comm.set_comm_ctx(dat.name());
    let low = cart.shift(rank, dim, -1);
    let high = cart.shift(rank, dim, 1);
    let mut xspan = bwb_trace::span(bwb_trace::Cat::Halo, "halo_exchange");
    let mut sent_bytes = 0usize;
    // My first strip is the low neighbour's high ghosts; my last, the high
    // neighbour's low ghosts.
    for (to, lo, positive) in [(low, s, false), (high, n - s - d, true)] {
        let Some(to) = to else { continue };
        let mut buf = bufpool::take::<T>();
        {
            let _p = bwb_trace::span(bwb_trace::Cat::Halo, "halo_pack");
            let b = strip(lo);
            for (j, k) in rows(&b) {
                buf.extend_from_slice(dat.run(b[0].clone(), j, k));
            }
        }
        sent_bytes += std::mem::size_of_val(buf.as_slice());
        comm.send(to, halo_tag(dim, positive), buf);
    }
    for (from, lo, positive) in [(high, n, false), (low, -d, true)] {
        let Some(from) = from else { continue };
        let buf = comm.recv::<T>(from, halo_tag(dim, positive));
        {
            let _u = bwb_trace::span(bwb_trace::Cat::Halo, "halo_unpack");
            let b = strip(lo);
            let mut rest = buf.as_slice();
            for (j, k) in rows(&b) {
                let dst = dat.run_mut(b[0].clone(), j, k);
                let (head, tail) = rest.split_at(dst.len());
                dst.copy_from_slice(head);
                rest = tail;
            }
            assert!(rest.is_empty(), "halo buffer size");
        }
        bufpool::put(buf);
    }
    xspan.set_args(dim as f64, d as f64, sent_bytes as f64);
    comm.clear_comm_ctx();
}

/// One rank's share of a 2-D global block.
#[derive(Debug, Clone)]
pub struct DistBlock2 {
    cart: CartComm,
    rank: usize,
    global: [usize; 2],
    start: [usize; 2],
    local: [usize; 2],
}

impl DistBlock2 {
    /// Decompose a `gnx × gny` block over `comm.size()` ranks with a
    /// balanced 2-D factorization.
    pub fn new(comm: &Comm, gnx: usize, gny: usize) -> Self {
        Self::with_cart(comm.rank(), Self::layout(comm.size()), gnx, gny)
    }

    /// The Cartesian layout [`Self::new`] splits a block over `size` ranks.
    pub fn layout(size: usize) -> CartComm {
        CartComm::balanced(size, 2)
    }

    /// Decompose with an explicit Cartesian layout.
    pub fn with_cart(rank: usize, cart: CartComm, gnx: usize, gny: usize) -> Self {
        let (sx, lx) = cart.decompose_1d(rank, 0, gnx);
        let (sy, ly) = cart.decompose_1d(rank, 1, gny);
        DistBlock2 {
            cart,
            rank,
            global: [gnx, gny],
            start: [sx, sy],
            local: [lx, ly],
        }
    }

    pub fn cart(&self) -> &CartComm {
        &self.cart
    }
    pub fn rank(&self) -> usize {
        self.rank
    }
    pub fn global_nx(&self) -> usize {
        self.global[0]
    }
    pub fn global_ny(&self) -> usize {
        self.global[1]
    }
    pub fn nx(&self) -> usize {
        self.local[0]
    }
    pub fn ny(&self) -> usize {
        self.local[1]
    }
    /// Global index of this rank's first interior point.
    pub fn start(&self) -> [usize; 2] {
        self.start
    }

    /// Does this rank own the low/high physical boundary along `dim`?
    pub fn at_low_boundary(&self, dim: usize) -> bool {
        self.cart.coords_of(self.rank)[dim] == 0
    }

    pub fn at_high_boundary(&self, dim: usize) -> bool {
        self.cart.coords_of(self.rank)[dim] == self.cart.dims()[dim] - 1
    }

    /// Allocate a local field for this rank's sub-block.
    pub fn alloc_f64(&self, name: &str, halo: usize) -> Dat2<f64> {
        Dat2::new(name, self.nx(), self.ny(), halo)
    }

    pub fn alloc_f32(&self, name: &str, halo: usize) -> Dat2<f32> {
        Dat2::new(name, self.nx(), self.ny(), halo)
    }

    /// Exchange ghost cells of depth `depth` (≤ the dat's halo) with the
    /// four face neighbours. Corners are filled correctly by exchanging X
    /// first and then Y over the X-extended rows.
    pub fn exchange_halo<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
    ) {
        note_exchange_obs(dat.name(), depth, "", Axes::of_cart(&self.cart));
        self.exchange_dim(comm, dat, depth, 0, 0);
        self.exchange_dim(comm, dat, depth, 1, 0);
    }

    /// Site-labelled exchange along each axis of `axes` in order (0 = x,
    /// 1 = y), each pass preceded by `fill(dat, axis)`: the app's
    /// physical-boundary fill of that axis. The y pass ships rows extended
    /// into the x halos, so filling and exchanging x before y gives
    /// consistent corners. Notes ONE recording observation tagged with
    /// `site`, carrying the axes exchanged that have a neighbour, so
    /// `dslcheck` keys its halo analysis on `(site, dat)` and judges only
    /// the ghosts the exchange refreshed.
    pub fn exchange_halo_site<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
        axes: Axes,
        site: &str,
        mut fill: impl FnMut(&mut Dat2<T>, usize),
    ) {
        let live = axes.intersection(Axes::of_cart(&self.cart));
        note_exchange_obs(dat.name(), depth, site, live);
        for dim in axes.iter() {
            fill(dat, dim);
            self.exchange_dim(comm, dat, depth, dim, 0);
        }
    }

    /// Site-labelled ghost exchange for *node-centred* fields over this
    /// cell-decomposed block: the cell exchange with its strips shifted one
    /// node inward. A node field has `nx+1 × ny+1` local points and the
    /// interface line is duplicated on both neighbouring ranks, so the
    /// ghost at `-1` is the low neighbour's node `n-2` (their last node
    /// equals our node 0), and the ghost at `n` is the high neighbour's
    /// node 1. The recording observation carries `site`.
    pub fn exchange_node_halo_site<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
        site: &str,
    ) {
        note_exchange_obs(dat.name(), depth, site, Axes::of_cart(&self.cart));
        self.exchange_dim(comm, dat, depth, 0, 1);
        self.exchange_dim(comm, dat, depth, 1, 1);
    }

    /// The face exchange of `dat` along `dim`. `shared` is how many points
    /// each end of the block shares with its neighbour: 0 for cell fields,
    /// 1 for node fields.
    fn exchange_dim<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
        dim: usize,
        shared: usize,
    ) {
        assert!(
            depth <= dat.halo(),
            "exchange depth {depth} exceeds halo {}",
            dat.halo()
        );
        assert_eq!(dat.nx(), self.nx() + shared, "{} extent", dat.name());
        assert_eq!(dat.ny(), self.ny() + shared, "{} extent", dat.name());
        assert!(dim < 2, "2-D block has dims 0 and 1");
        exchange_face(&self.cart, self.rank, comm, dat, dim, depth, shared);
    }

    /// Gather the full global interior onto rank 0 (row-major), `None`
    /// elsewhere. Used by validation tests to compare distributed runs with
    /// serial runs.
    pub fn gather_global(&self, comm: &mut Comm, dat: &Dat2<f64>) -> Option<Vec<f64>> {
        let mut mine = Vec::with_capacity(self.nx() * self.ny());
        for j in 0..self.ny() as isize {
            for i in 0..self.nx() as isize {
                mine.push(dat.get(i, j));
            }
        }
        let parts = comm.gather(&mine, 0)?;
        let gnx = self.global_nx();
        let gny = self.global_ny();
        let mut out = vec![0.0; gnx * gny];
        for (rank, part) in parts.into_iter().enumerate() {
            let blk = DistBlock2::with_cart(rank, self.cart.clone(), gnx, gny);
            let mut it = part.into_iter();
            for j in 0..blk.ny() {
                for i in 0..blk.nx() {
                    let gi = blk.start[0] + i;
                    let gj = blk.start[1] + j;
                    out[gj * gnx + gi] = it.next().expect("gather sizes");
                }
            }
        }
        Some(out)
    }
}

/// One rank's share of a 3-D global block.
#[derive(Debug, Clone)]
pub struct DistBlock3 {
    cart: CartComm,
    rank: usize,
    global: [usize; 3],
    start: [usize; 3],
    local: [usize; 3],
}

impl DistBlock3 {
    pub fn new(comm: &Comm, gnx: usize, gny: usize, gnz: usize) -> Self {
        Self::with_cart(comm.rank(), Self::layout(comm.size()), gnx, gny, gnz)
    }

    /// The Cartesian layout [`Self::new`] splits a block over `size` ranks.
    pub fn layout(size: usize) -> CartComm {
        CartComm::balanced(size, 3)
    }

    pub fn with_cart(rank: usize, cart: CartComm, gnx: usize, gny: usize, gnz: usize) -> Self {
        let (sx, lx) = cart.decompose_1d(rank, 0, gnx);
        let (sy, ly) = cart.decompose_1d(rank, 1, gny);
        let (sz, lz) = cart.decompose_1d(rank, 2, gnz);
        DistBlock3 {
            cart,
            rank,
            global: [gnx, gny, gnz],
            start: [sx, sy, sz],
            local: [lx, ly, lz],
        }
    }

    pub fn cart(&self) -> &CartComm {
        &self.cart
    }
    pub fn rank(&self) -> usize {
        self.rank
    }
    pub fn nx(&self) -> usize {
        self.local[0]
    }
    pub fn ny(&self) -> usize {
        self.local[1]
    }
    pub fn nz(&self) -> usize {
        self.local[2]
    }
    pub fn global_n(&self) -> [usize; 3] {
        self.global
    }
    pub fn start(&self) -> [usize; 3] {
        self.start
    }

    pub fn at_low_boundary(&self, dim: usize) -> bool {
        self.cart.coords_of(self.rank)[dim] == 0
    }

    pub fn at_high_boundary(&self, dim: usize) -> bool {
        self.cart.coords_of(self.rank)[dim] == self.cart.dims()[dim] - 1
    }

    pub fn alloc_f64(&self, name: &str, halo: usize) -> Dat3<f64> {
        Dat3::new(name, self.nx(), self.ny(), self.nz(), halo)
    }

    pub fn alloc_f32(&self, name: &str, halo: usize) -> Dat3<f32> {
        Dat3::new(name, self.nx(), self.ny(), self.nz(), halo)
    }

    /// Exchange ghost cells of `depth` with the six face neighbours.
    /// X, then Y over X-extended rows, then Z over XY-extended planes —
    /// filling edges and corners transitively.
    pub fn exchange_halo<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat3<T>,
        depth: usize,
    ) {
        note_exchange_obs(dat.name(), depth, "", Axes::of_cart(&self.cart));
        assert!(depth <= dat.halo());
        for dim in 0..3 {
            exchange_face(&self.cart, self.rank, comm, dat, dim, depth, 0);
        }
    }

    /// Gather the global interior to rank 0 (x-fastest row-major).
    pub fn gather_global(&self, comm: &mut Comm, dat: &Dat3<f64>) -> Option<Vec<f64>> {
        let mut mine = Vec::with_capacity(self.nx() * self.ny() * self.nz());
        for k in 0..self.nz() as isize {
            for j in 0..self.ny() as isize {
                for i in 0..self.nx() as isize {
                    mine.push(dat.get(i, j, k));
                }
            }
        }
        let parts = comm.gather(&mine, 0)?;
        let [gnx, gny, gnz] = self.global;
        let mut out = vec![0.0; gnx * gny * gnz];
        for (rank, part) in parts.into_iter().enumerate() {
            let blk = DistBlock3::with_cart(rank, self.cart.clone(), gnx, gny, gnz);
            let mut it = part.into_iter();
            for k in 0..blk.nz() {
                for j in 0..blk.ny() {
                    for i in 0..blk.nx() {
                        let gi = blk.start[0] + i;
                        let gj = blk.start[1] + j;
                        let gk = blk.start[2] + k;
                        out[(gk * gny + gj) * gnx + gi] = it.next().expect("gather sizes");
                    }
                }
            }
        }
        Some(out)
    }
}

impl Dat2<f64> {
    /// Test helper: mark all points (incl. halo) with a sentinel, then
    /// restore the interior via `init_with` callers. Only used in tests.
    #[doc(hidden)]
    pub fn fill_all_halo_sentinel(&mut self) {
        let nx = self.nx() as isize;
        let ny = self.ny() as isize;
        let h = self.halo() as isize;
        for j in -h..ny + h {
            for i in -h..nx + h {
                let interior = i >= 0 && i < nx && j >= 0 && j < ny;
                if !interior {
                    self.set(i, j, f64::MIN);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_shmpi::Universe;

    /// Global field value used across halo tests: unique per global point.
    fn gval(i: usize, j: usize) -> f64 {
        (i * 1000 + j) as f64
    }

    #[test]
    fn decomposition_covers_global_block() {
        let out = Universe::run(6, |c| {
            let b = DistBlock2::new(c, 20, 9);
            (b.start(), [b.nx(), b.ny()])
        });
        let mut covered = [false; 20 * 9];
        for (start, local) in out.results {
            for j in 0..local[1] {
                for i in 0..local[0] {
                    let idx = (start[1] + j) * 20 + (start[0] + i);
                    assert!(!covered[idx], "overlap at {idx}");
                    covered[idx] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "global block fully covered");
    }

    #[test]
    fn halo_exchange_depth1_fills_neighbour_values() {
        let out = Universe::run(4, |c| {
            let b = DistBlock2::new(c, 8, 8);
            let mut d = b.alloc_f64("f", 1);
            let s = b.start();
            d.init_with(|i, j| gval(s[0] + i as usize, s[1] + j as usize));
            d.fill_all_halo_sentinel();
            b.exchange_halo(c, &mut d, 1);

            // Check interior-adjacent ghost cells where a neighbour exists.
            let mut ok = true;
            let nx = b.nx() as isize;
            let ny = b.ny() as isize;
            if !b.at_low_boundary(0) {
                for j in 0..ny {
                    ok &= d.get(-1, j) == gval(s[0] - 1, s[1] + j as usize);
                }
            }
            if !b.at_high_boundary(0) {
                for j in 0..ny {
                    ok &= d.get(nx, j) == gval(s[0] + nx as usize, s[1] + j as usize);
                }
            }
            if !b.at_low_boundary(1) {
                for i in 0..nx {
                    ok &= d.get(i, -1) == gval(s[0] + i as usize, s[1] - 1);
                }
            }
            if !b.at_high_boundary(1) {
                for i in 0..nx {
                    ok &= d.get(i, ny) == gval(s[0] + i as usize, s[1] + ny as usize);
                }
            }
            ok
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn halo_exchange_fills_corners() {
        let out = Universe::run(4, |c| {
            let b = DistBlock2::new(c, 8, 8);
            let mut d = b.alloc_f64("f", 2);
            let s = b.start();
            d.init_with(|i, j| gval(s[0] + i as usize, s[1] + j as usize));
            b.exchange_halo(c, &mut d, 2);
            // The interior corner rank (0,0)-side of rank owning high-high
            // corner region: check a diagonal ghost where both neighbours
            // exist.
            if !b.at_low_boundary(0) && !b.at_low_boundary(1) {
                d.get(-1, -1) == gval(s[0] - 1, s[1] - 1)
                    && d.get(-2, -2) == gval(s[0] - 2, s[1] - 2)
            } else {
                true
            }
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn gather_global_reconstructs_field() {
        let out = Universe::run(6, |c| {
            let b = DistBlock2::new(c, 10, 6);
            let mut d = b.alloc_f64("f", 1);
            let s = b.start();
            d.init_with(|i, j| gval(s[0] + i as usize, s[1] + j as usize));
            b.gather_global(c, &d)
        });
        let global = out.results[0].as_ref().unwrap();
        for j in 0..6 {
            for i in 0..10 {
                assert_eq!(global[j * 10 + i], gval(i, j));
            }
        }
        assert!(out.results[1].is_none());
    }

    #[test]
    fn dist3_exchange_and_gather() {
        let out = Universe::run(8, |c| {
            let b = DistBlock3::new(c, 8, 8, 8);
            let mut d = b.alloc_f64("f", 1);
            let s = b.start();
            let g3 = |i: usize, j: usize, k: usize| (i + 100 * j + 10000 * k) as f64;
            d.init_with(|i, j, k| g3(s[0] + i as usize, s[1] + j as usize, s[2] + k as usize));
            b.exchange_halo(c, &mut d, 1);

            let mut ok = true;
            if !b.at_low_boundary(2) {
                for j in 0..b.ny() as isize {
                    for i in 0..b.nx() as isize {
                        ok &= d.get(i, j, -1) == g3(s[0] + i as usize, s[1] + j as usize, s[2] - 1);
                    }
                }
            }
            // Edge ghost (x and z both off-block) where neighbours exist:
            if !b.at_low_boundary(0) && !b.at_low_boundary(2) {
                ok &= d.get(-1, 0, -1) == g3(s[0] - 1, s[1], s[2] - 1);
            }
            let gathered = b.gather_global(c, &d);
            (ok, gathered)
        });
        assert!(out.results.iter().all(|(ok, _)| *ok));
        let global = out.results[0].1.as_ref().unwrap();
        assert_eq!(global.len(), 512);
        assert_eq!(
            global[(3 * 8 + 2) * 8 + 1],
            (1 + 100 * 2 + 10000 * 3) as f64
        );
    }

    #[test]
    fn site_exchange_matches_plain() {
        let out = Universe::run(4, |c| {
            let b = DistBlock2::new(c, 8, 8);
            let s = b.start();
            let mut plain = b.alloc_f64("plain", 2);
            let mut site = b.alloc_f64("sited", 2);
            plain.init_with(|i, j| gval(s[0] + i as usize, s[1] + j as usize));
            site.init_with(|i, j| gval(s[0] + i as usize, s[1] + j as usize));
            b.exchange_halo(c, &mut plain, 2);
            b.exchange_halo_site(c, &mut site, 2, Axes::XY, "cells", |_, _| {});
            let mut same = true;
            for j in -2..b.ny() as isize + 2 {
                for i in -2..b.nx() as isize + 2 {
                    same &= plain.get(i, j).to_bits() == site.get(i, j).to_bits();
                }
            }
            same
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn site_exchange_records_the_axes_it_exchanged() {
        // Two ranks split x only: y has no neighbour, so a y pass refreshes
        // no ghost the recording could judge.
        let out = Universe::run(2, |c| {
            let b = DistBlock2::new(c, 8, 8);
            let mut f = b.alloc_f64("f", 2);
            let mut filled = Vec::new();
            let ((), rec) = crate::access::with_recording_full(|| {
                for axes in [Axes::XY, Axes::X, Axes::Y] {
                    b.exchange_halo_site(c, &mut f, 2, axes, "s", |_, a| filled.push(a));
                }
            });
            let axes: Vec<Axes> = rec.exchanges.iter().map(|e| e.axes).collect();
            (axes, filled)
        });
        for (axes, filled) in out.results {
            assert_eq!(axes, [Axes::X, Axes::X, Axes::default()]);
            assert_eq!(filled, [0, 1, 0, 1]);
        }
    }

    #[test]
    fn node_exchange_fills_every_ghost_node_from_the_global_field() {
        // A node field over 7×5 cells has 8×6 global nodes; neighbouring
        // ranks share their interface line. Every ghost node with a
        // neighbour on each of its out-of-block sides (corners included)
        // must equal the global field; every other point keeps its value.
        const SENTINEL: f64 = -1.0;
        let (gnx, gny) = (7, 5);
        for dims in [[2, 1], [1, 2], [2, 2]] {
            for depth in [1, 2] {
                let size = dims[0] * dims[1];
                let out = Universe::run(size, move |c| {
                    let cart = CartComm::new(size, dims.to_vec(), vec![false, false]);
                    let b = DistBlock2::with_cart(c.rank(), cart, gnx, gny);
                    let s = b.start();
                    let (nnx, nny) = (b.nx() as isize + 1, b.ny() as isize + 1);
                    let mut d = Dat2::<f64>::new("node", b.nx() + 1, b.ny() + 1, 2);
                    d.fill_all(SENTINEL);
                    d.init_with(|i, j| gval(s[0] + i as usize, s[1] + j as usize));
                    b.exchange_node_halo_site(c, &mut d, depth, "");
                    // Does the block have a neighbour on the side of `k`?
                    let side = |k: isize, n: isize, dim: usize| {
                        (k >= 0 || !b.at_low_boundary(dim)) && (k < n || !b.at_high_boundary(dim))
                    };
                    let h = depth as isize;
                    let mut wrong = Vec::new();
                    for j in -2..nny + 2 {
                        for i in -2..nnx + 2 {
                            let reached = (-h..nnx + h).contains(&i)
                                && (-h..nny + h).contains(&j)
                                && side(i, nnx, 0)
                                && side(j, nny, 1);
                            let want = if reached {
                                let gi = s[0] as isize + i;
                                let gj = s[1] as isize + j;
                                gval(gi as usize, gj as usize)
                            } else {
                                SENTINEL
                            };
                            if d.get(i, j).to_bits() != want.to_bits() {
                                wrong.push((i, j, d.get(i, j), want));
                            }
                        }
                    }
                    wrong
                });
                for (rank, wrong) in out.results.iter().enumerate() {
                    assert!(
                        wrong.is_empty(),
                        "{dims:?} depth {depth} rank {rank}: (i, j, got, want) {wrong:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_exchange_is_noop() {
        let out = Universe::run(1, |c| {
            let b = DistBlock2::new(c, 5, 5);
            let mut d = b.alloc_f64("f", 1);
            d.fill_all(-7.0);
            d.fill_interior(1.0);
            b.exchange_halo(c, &mut d, 1);
            d.get(-1, -1)
        });
        assert_eq!(out.results[0], -7.0); // halo untouched: no neighbours
    }
}
