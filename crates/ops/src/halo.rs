//! Distributed blocks: Cartesian decomposition over shmpi ranks with
//! ghost-cell exchange (paper §4: "a standard cartesian mesh decomposition
//! is used over MPI, with ghost cell exchanges triggered as needed before
//! each bulk parallel computational step").

use crate::field::{Dat2, Dat3};
use bwb_shmpi::bufpool;
use bwb_shmpi::cart::CartComm;
use bwb_shmpi::Comm;

/// Tag space reserved for halo traffic (dim × direction encoded).
pub const HALO_TAG_BASE: u32 = 0x4000_0000;

/// Bit-exact element hashing for the halo-elision debug check. Hashes go
/// through the bit pattern rather than `PartialEq` so `-0.0` vs `0.0` and
/// NaN payload changes are detected — the elision certificate promises the
/// strips are *byte*-identical, not merely numerically equal.
pub trait BitHash: Copy {
    fn hash_bits(self) -> u64;
}

impl BitHash for f64 {
    fn hash_bits(self) -> u64 {
        self.to_bits()
    }
}

impl BitHash for f32 {
    fn hash_bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// One FNV-1a step (shared constants with the serve-layer cache keys;
/// see [`crate::hash`]).
#[cfg(debug_assertions)]
fn fnv(h: u64, v: u64) -> u64 {
    crate::hash::step_u64(h, v)
}

#[cfg(debug_assertions)]
thread_local! {
    /// Per-rank (shmpi ranks are threads) hash of each node dat's send
    /// strips as of its last *real* site-labelled exchange, keyed by dat
    /// name. Used by [`DistBlock2::elide_node_halo`] to debug-assert that
    /// skipping the exchange was sound at runtime, not just in the recorded
    /// schedule.
    static STRIP_HASHES: std::cell::RefCell<std::collections::HashMap<String, u64>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

/// The tag a halo message travelling along `dim` in the `positive`
/// direction carries. Direction-encoded so that the two messages of one
/// face exchange never cross-match, even on periodic extent-2 topologies
/// where the low and high neighbour are the same rank (public for
/// commcheck and the tag-collision property tests).
pub fn halo_tag(dim: usize, positive: bool) -> u32 {
    HALO_TAG_BASE + (dim as u32) * 2 + u32::from(positive)
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
        let cart = CartComm::balanced(comm.size(), 2);
        Self::with_cart(comm.rank(), cart, gnx, gny)
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
        if crate::access::recording_active() {
            crate::access::note_exchange_obs(dat.name(), depth);
        }
        self.exchange_halo_dim(comm, dat, depth, 0);
        self.exchange_halo_dim(comm, dat, depth, 1);
    }

    /// Exchange ghosts along one dimension only (0 = x, 1 = y). The y pass
    /// ships rows extended into the x halos, so calling x then y fills the
    /// corner ghosts; callers interleaving physical-boundary fills (mirror
    /// x, exchange x, mirror y, exchange y) get consistent corners too.
    pub fn exchange_halo_dim<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
        dim: usize,
    ) {
        assert!(
            depth <= dat.halo(),
            "exchange depth {depth} exceeds halo {}",
            dat.halo()
        );
        assert_eq!(dat.nx(), self.nx());
        assert_eq!(dat.ny(), self.ny());
        if depth == 0 {
            return;
        }
        let d = depth as isize;
        let nx = self.nx() as isize;
        let ny = self.ny() as isize;

        match dim {
            0 => self.exchange_dim2(
                comm,
                0,
                dat,
                nx,
                d,
                |dat, lo, buf| {
                    for j in 0..ny {
                        for i in lo..lo + d {
                            buf.push(dat.get(i, j));
                        }
                    }
                },
                |dat, lo, buf: &[T]| {
                    let mut it = buf.iter().copied();
                    for j in 0..ny {
                        for i in lo..lo + d {
                            dat.set(i, j, it.next().expect("halo buffer size"));
                        }
                    }
                },
            ),
            1 => self.exchange_dim2(
                comm,
                1,
                dat,
                ny,
                d,
                |dat, lo, buf| {
                    for j in lo..lo + d {
                        for i in -d..nx + d {
                            buf.push(dat.get(i, j));
                        }
                    }
                },
                |dat, lo, buf: &[T]| {
                    let mut it = buf.iter().copied();
                    for j in lo..lo + d {
                        for i in -d..nx + d {
                            dat.set(i, j, it.next().expect("halo buffer size"));
                        }
                    }
                },
            ),
            _ => panic!("2-D block has dims 0 and 1"),
        }
    }

    /// Site-labelled per-dimension exchange. Communication is identical to
    /// [`Self::exchange_halo_dim`]; in addition, the final `dim == 1` pass
    /// notes ONE recording observation per logical exchange tagged with
    /// `site`, so `dslcheck` can key its halo analysis on `(site, dat)`
    /// (noting per-dim would make every y pass look redundant after its own
    /// x pass).
    pub fn exchange_halo_dim_site<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
        dim: usize,
        site: &str,
    ) {
        if dim == 1 && crate::access::recording_active() {
            crate::access::note_exchange_obs_site(dat.name(), depth, site);
        }
        self.exchange_halo_dim(comm, dat, depth, dim);
    }

    /// Ghost exchange for *node-centred* fields over this cell-decomposed
    /// block. A node field has `nx+1 × ny+1` local points and the interface
    /// line is duplicated on both neighbouring ranks, so the strips shift
    /// inward by one: the low rank's ghost at `-1` is the low neighbour's
    /// node `n-1-d` (their last node equals our node 0), and the ghost at
    /// `n+d` is the high neighbour's node `1+d-1`.
    pub fn exchange_node_halo<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
    ) {
        if crate::access::recording_active() {
            crate::access::note_exchange_obs(dat.name(), depth);
        }
        self.exchange_node_halo_inner(comm, dat, depth);
    }

    /// Site-labelled node exchange (the node-field analogue of
    /// [`Self::exchange_halo_dim_site`]): the recording observation carries
    /// `site`, so `dslcheck` can key elision certificates on `(site, dat)`,
    /// and in debug builds the node send-strip hash is refreshed to arm
    /// [`Self::elide_node_halo`]'s unchanged-data assert.
    pub fn exchange_node_halo_site<T: Copy + Send + BitHash + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
        site: &str,
    ) {
        if crate::access::recording_active() {
            crate::access::note_exchange_obs_site(dat.name(), depth, site);
        }
        self.exchange_node_halo_inner(comm, dat, depth);
        #[cfg(debug_assertions)]
        {
            let h = self.node_strip_hash(dat, depth);
            STRIP_HASHES.with(|m| {
                m.borrow_mut().insert(dat.name().to_string(), h);
            });
        }
    }

    /// Skip a node-halo exchange certified redundant for `(site, dat)`.
    /// Emits a `halo_elided` trace span carrying the bytes *not* sent, so
    /// measured traffic reports can credit the elision. In debug builds,
    /// asserts that this rank's send strips are bit-identical to the last
    /// real site-labelled exchange — the runtime check of the property the
    /// certificate proved from the recorded schedule. If no site-labelled
    /// exchange of this dat has happened yet, the assert is skipped (the
    /// certificate rules make that unreachable for certified sites).
    pub fn elide_node_halo<T: Copy + Send + BitHash + 'static>(
        &self,
        dat: &Dat2<T>,
        depth: usize,
        site: &str,
    ) {
        let d = depth as isize;
        let nnx = self.nx() as isize + 1;
        let nny = self.ny() as isize + 1;
        let mut elems = 0usize;
        for (dim, strip) in [
            (0usize, (d * nny) as usize),
            (1, (d * (nnx + 2 * d)) as usize),
        ] {
            for dir in [-1isize, 1] {
                if self.cart.shift(self.rank, dim, dir).is_some() {
                    elems += strip;
                }
            }
        }
        let mut span = bwb_trace::span(bwb_trace::Cat::Halo, "halo_elided");
        span.set_args(depth as f64, (elems * std::mem::size_of::<T>()) as f64, 0.0);
        #[cfg(not(debug_assertions))]
        let _ = (dat, site);
        #[cfg(debug_assertions)]
        {
            let h = self.node_strip_hash(dat, depth);
            STRIP_HASHES.with(|m| {
                if let Some(prev) = m.borrow().get(dat.name()) {
                    assert_eq!(
                        *prev,
                        h,
                        "elided node exchange at site {site:?}: send strips of {:?} \
                         changed since the last real exchange",
                        dat.name()
                    );
                }
            });
        }
    }

    /// FNV-1a over this rank's node-field send strips at `depth`: the
    /// interface-shifted columns `[1,1+d) ∪ [nnx−1−d,nnx−1)` over interior
    /// rows, then the rows `[1,1+d) ∪ [nny−1−d,nny−1)` extended into the x
    /// halos — exactly what [`Self::exchange_node_halo`] packs.
    #[cfg(debug_assertions)]
    fn node_strip_hash<T: Copy + BitHash>(&self, dat: &Dat2<T>, depth: usize) -> u64 {
        let d = depth as isize;
        let nnx = self.nx() as isize + 1;
        let nny = self.ny() as isize + 1;
        let mut h: u64 = crate::hash::FNV_OFFSET;
        for j in 0..nny {
            for i in (1..1 + d).chain(nnx - 1 - d..nnx - 1) {
                h = fnv(h, dat.get(i, j).hash_bits());
            }
        }
        for j in (1..1 + d).chain(nny - 1 - d..nny - 1) {
            for i in -d..nnx + d {
                h = fnv(h, dat.get(i, j).hash_bits());
            }
        }
        h
    }

    fn exchange_node_halo_inner<T: Copy + Send + 'static>(
        &self,
        comm: &mut Comm,
        dat: &mut Dat2<T>,
        depth: usize,
    ) {
        assert!(depth <= dat.halo());
        assert_eq!(dat.nx(), self.nx() + 1, "node field extent");
        assert_eq!(dat.ny(), self.ny() + 1, "node field extent");
        if depth == 0 {
            return;
        }
        comm.set_comm_ctx(dat.name());
        let d = depth as isize;
        let nnx = self.nx() as isize + 1;
        let nny = self.ny() as isize + 1;
        let mut xspan = bwb_trace::span(bwb_trace::Cat::Halo, "halo_exchange_node");
        let mut sent_bytes = 0usize;

        // X pass: send columns [1, 1+d) low / [nnx-1-d, nnx-1) high.
        let low = self.cart.shift(self.rank, 0, -1);
        let high = self.cart.shift(self.rank, 0, 1);
        let pack_cols = |dat: &Dat2<T>, lo: isize| {
            let mut buf = bufpool::take::<T>();
            buf.reserve((d * nny) as usize);
            for j in 0..nny {
                for i in lo..lo + d {
                    buf.push(dat.get(i, j));
                }
            }
            buf
        };
        let unpack_cols = |dat: &mut Dat2<T>, lo: isize, buf: Vec<T>| {
            let mut it = buf.iter().copied();
            for j in 0..nny {
                for i in lo..lo + d {
                    dat.set(i, j, it.next().expect("halo size"));
                }
            }
            bufpool::put(buf);
        };
        if let Some(lo) = low {
            let buf = pack_cols(dat, 1);
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(lo, halo_tag(0, false), buf);
        }
        if let Some(hi) = high {
            let buf = pack_cols(dat, nnx - 1 - d);
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(hi, halo_tag(0, true), buf);
        }
        if let Some(hi) = high {
            let buf = comm.recv::<T>(hi, halo_tag(0, false));
            unpack_cols(dat, nnx, buf);
        }
        if let Some(lo) = low {
            let buf = comm.recv::<T>(lo, halo_tag(0, true));
            unpack_cols(dat, -d, buf);
        }

        // Y pass (extended into x halos).
        let low = self.cart.shift(self.rank, 1, -1);
        let high = self.cart.shift(self.rank, 1, 1);
        let pack_rows = |dat: &Dat2<T>, lo: isize| {
            let mut buf = bufpool::take::<T>();
            buf.reserve((d * (nnx + 2 * d)) as usize);
            for j in lo..lo + d {
                for i in -d..nnx + d {
                    buf.push(dat.get(i, j));
                }
            }
            buf
        };
        let unpack_rows = |dat: &mut Dat2<T>, lo: isize, buf: Vec<T>| {
            let mut it = buf.iter().copied();
            for j in lo..lo + d {
                for i in -d..nnx + d {
                    dat.set(i, j, it.next().expect("halo size"));
                }
            }
            bufpool::put(buf);
        };
        if let Some(lo) = low {
            let buf = pack_rows(dat, 1);
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(lo, halo_tag(1, false), buf);
        }
        if let Some(hi) = high {
            let buf = pack_rows(dat, nny - 1 - d);
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(hi, halo_tag(1, true), buf);
        }
        if let Some(hi) = high {
            let buf = comm.recv::<T>(hi, halo_tag(1, false));
            unpack_rows(dat, nny, buf);
        }
        if let Some(lo) = low {
            let buf = comm.recv::<T>(lo, halo_tag(1, true));
            unpack_rows(dat, -d, buf);
        }
        // Node exchange spans both dims; report dim = -1.
        xspan.set_args(-1.0, d as f64, sent_bytes as f64);
        comm.clear_comm_ctx();
    }

    /// One-dimension face exchange: pack low/high strips (strip geometry is
    /// the caller's packing closure), exchange with both neighbours, unpack
    /// into the halos. Pack buffers come from the rank-local [`bufpool`] and
    /// received buffers return to it, so steady-state exchanges reuse the
    /// allocations shipped over in the previous exchange.
    #[allow(clippy::too_many_arguments)]
    fn exchange_dim2<T, P, U>(
        &self,
        comm: &mut Comm,
        dim: usize,
        dat: &mut Dat2<T>,
        extent: isize,
        d: isize,
        pack: P,
        mut unpack: U,
    ) where
        T: Copy + Send + 'static,
        P: Fn(&Dat2<T>, isize, &mut Vec<T>),
        U: FnMut(&mut Dat2<T>, isize, &[T]),
    {
        comm.set_comm_ctx(dat.name());
        let low = self.cart.shift(self.rank, dim, -1);
        let high = self.cart.shift(self.rank, dim, 1);
        let mut xspan = bwb_trace::span(bwb_trace::Cat::Halo, "halo_exchange");
        let mut sent_bytes = 0usize;
        // Send to low neighbour: my first strip (their high halo).
        if let Some(lo) = low {
            let mut buf = bufpool::take::<T>();
            {
                let _p = bwb_trace::span(bwb_trace::Cat::Halo, "halo_pack");
                pack(dat, 0, &mut buf);
            }
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(lo, halo_tag(dim, false), buf);
        }
        // Send to high neighbour: my last strip (their low halo).
        if let Some(hi) = high {
            let mut buf = bufpool::take::<T>();
            {
                let _p = bwb_trace::span(bwb_trace::Cat::Halo, "halo_pack");
                pack(dat, extent - d, &mut buf);
            }
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(hi, halo_tag(dim, true), buf);
        }
        if let Some(hi) = high {
            let buf = comm.recv::<T>(hi, halo_tag(dim, false));
            {
                let _u = bwb_trace::span(bwb_trace::Cat::Halo, "halo_unpack");
                unpack(dat, extent, &buf);
            }
            bufpool::put(buf);
        }
        if let Some(lo) = low {
            let buf = comm.recv::<T>(lo, halo_tag(dim, true));
            {
                let _u = bwb_trace::span(bwb_trace::Cat::Halo, "halo_unpack");
                unpack(dat, -d, &buf);
            }
            bufpool::put(buf);
        }
        xspan.set_args(dim as f64, d as f64, sent_bytes as f64);
        comm.clear_comm_ctx();
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
        let cart = CartComm::balanced(comm.size(), 3);
        Self::with_cart(comm.rank(), cart, gnx, gny, gnz)
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
        if crate::access::recording_active() {
            crate::access::note_exchange_obs(dat.name(), depth);
        }
        assert!(depth <= dat.halo());
        if depth == 0 {
            return;
        }
        let d = depth as isize;
        let (nx, ny, nz) = (self.nx() as isize, self.ny() as isize, self.nz() as isize);

        // X faces: strips of (d × ny × nz), interior rows/planes.
        self.exchange_dim3(
            comm,
            0,
            dat,
            nx,
            |dat, lo, buf| {
                for k in 0..nz {
                    for j in 0..ny {
                        for i in lo..lo + d {
                            buf.push(dat.get(i, j, k));
                        }
                    }
                }
            },
            |dat, lo, buf: &[T]| {
                let mut it = buf.iter().copied();
                for k in 0..nz {
                    for j in 0..ny {
                        for i in lo..lo + d {
                            dat.set(i, j, k, it.next().expect("halo size"));
                        }
                    }
                }
            },
            d,
        );

        // Y faces: extended in X.
        self.exchange_dim3(
            comm,
            1,
            dat,
            ny,
            |dat, lo, buf| {
                for k in 0..nz {
                    for j in lo..lo + d {
                        for i in -d..nx + d {
                            buf.push(dat.get(i, j, k));
                        }
                    }
                }
            },
            |dat, lo, buf: &[T]| {
                let mut it = buf.iter().copied();
                for k in 0..nz {
                    for j in lo..lo + d {
                        for i in -d..nx + d {
                            dat.set(i, j, k, it.next().expect("halo size"));
                        }
                    }
                }
            },
            d,
        );

        // Z faces: extended in X and Y.
        self.exchange_dim3(
            comm,
            2,
            dat,
            nz,
            |dat, lo, buf| {
                for k in lo..lo + d {
                    for j in -d..ny + d {
                        for i in -d..nx + d {
                            buf.push(dat.get(i, j, k));
                        }
                    }
                }
            },
            |dat, lo, buf: &[T]| {
                let mut it = buf.iter().copied();
                for k in lo..lo + d {
                    for j in -d..ny + d {
                        for i in -d..nx + d {
                            dat.set(i, j, k, it.next().expect("halo size"));
                        }
                    }
                }
            },
            d,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn exchange_dim3<T, P, U>(
        &self,
        comm: &mut Comm,
        dim: usize,
        dat: &mut Dat3<T>,
        extent: isize,
        pack: P,
        mut unpack: U,
        d: isize,
    ) where
        T: Copy + Send + 'static,
        P: Fn(&Dat3<T>, isize, &mut Vec<T>),
        U: FnMut(&mut Dat3<T>, isize, &[T]),
    {
        comm.set_comm_ctx(dat.name());
        let low = self.cart.shift(self.rank, dim, -1);
        let high = self.cart.shift(self.rank, dim, 1);
        let mut xspan = bwb_trace::span(bwb_trace::Cat::Halo, "halo_exchange");
        let mut sent_bytes = 0usize;
        if let Some(lo) = low {
            let mut buf = bufpool::take::<T>();
            {
                let _p = bwb_trace::span(bwb_trace::Cat::Halo, "halo_pack");
                pack(dat, 0, &mut buf);
            }
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(lo, halo_tag(dim, false), buf);
        }
        if let Some(hi) = high {
            let mut buf = bufpool::take::<T>();
            {
                let _p = bwb_trace::span(bwb_trace::Cat::Halo, "halo_pack");
                pack(dat, extent - d, &mut buf);
            }
            sent_bytes += std::mem::size_of_val(buf.as_slice());
            comm.send(hi, halo_tag(dim, true), buf);
        }
        if let Some(hi) = high {
            let buf = comm.recv::<T>(hi, halo_tag(dim, false));
            {
                let _u = bwb_trace::span(bwb_trace::Cat::Halo, "halo_unpack");
                unpack(dat, extent, &buf);
            }
            bufpool::put(buf);
        }
        if let Some(lo) = low {
            let buf = comm.recv::<T>(lo, halo_tag(dim, true));
            {
                let _u = bwb_trace::span(bwb_trace::Cat::Halo, "halo_unpack");
                unpack(dat, -d, &buf);
            }
            bufpool::put(buf);
        }
        xspan.set_args(dim as f64, d as f64, sent_bytes as f64);
        comm.clear_comm_ctx();
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
            b.exchange_halo_dim(c, &mut plain, 2, 0);
            b.exchange_halo_dim(c, &mut plain, 2, 1);
            b.exchange_halo_dim_site(c, &mut site, 2, 0, "cells");
            b.exchange_halo_dim_site(c, &mut site, 2, 1, "cells");
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
    #[cfg(debug_assertions)]
    fn node_strip_hash_tracks_boundary_changes_only() {
        let b = DistBlock2::with_cart(0, bwb_shmpi::cart::CartComm::balanced(1, 2), 8, 8);
        let mut d = Dat2::<f64>::new("f", 9, 9, 1);
        d.init_with(|i, j| gval(i as usize, j as usize));
        let h0 = b.node_strip_hash(&d, 1);
        // Deep-interior change: outside every send strip, hash unchanged.
        d.set(4, 4, -1.0);
        assert_eq!(b.node_strip_hash(&d, 1), h0);
        // Node 0 is the shared interface line, not a send strip.
        d.set(0, 3, -2.0);
        assert_eq!(b.node_strip_hash(&d, 1), h0);
        // Boundary change: lands in a send strip, hash must move.
        d.set(1, 3, -3.0);
        assert_ne!(b.node_strip_hash(&d, 1), h0);
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
