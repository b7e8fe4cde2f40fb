//! MG-CFD — unstructured-mesh finite-volume Euler solver with multigrid
//! (paper §3, app 5; Owenson et al., the Rolls-Royce Hydra proxy).
//!
//! Vertex-centred compressible Euler (4 conservative components in 2-D:
//! ρ, ρu, ρv, ρE) on an unstructured edge list, with explicit Rusanov
//! (local Lax-Friedrichs) edge fluxes accumulated indirectly into the two
//! endpoint vertices — MG-CFD's `compute_flux` / `time_step` kernel pair —
//! plus a geometric multigrid hierarchy (restrict / prolong between mesh
//! levels) exactly mirroring the proxy's structure.
//!
//! The paper's NASA Rotor 37 mesh (8M vertices) is proprietary geometry; we
//! substitute a synthetic unstructured mesh generated by randomly
//! perturbing and re-indexing a structured quad grid (same topology class:
//! bounded vertex degree, spatially compact RCB partitions), sized by
//! `Config`. The generator's numbering is a scramble — a mesh file owes
//! the solver no locality — and `MgCfd::new` renumbers every level with
//! `bwb_op2::renumber` before it colours, partitions or runs anything, as
//! OP2 does at partition time. Validation: free-stream preservation (a uniform flow is an
//! exact steady state), conservation of the accumulated residual, and
//! multigrid V-cycles reducing the residual norm faster than smoothing
//! alone.

use crate::{AppId, AppRun};
use bwb_machine::storage;
use bwb_op2::{
    group_by_min_target, order_by_min_target, par_loop_block_colored_staged, par_loop_direct,
    sfc_order, sweep_direct, BlockColoring, Coloring, DatU, ExecModeU, Map, Permutation, Set,
};
use bwb_ops::Profile;
use bwb_trace::{span, Cat, SpanGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

pub const NVAR: usize = 4;
pub const GAMMA: f64 = 1.4;

/// Edges per block of `compute_flux`'s block colouring. On the renumbered
/// mesh consecutive edges have neighbouring nodes, so one block's gathers
/// and increments stay in cache. At 4.2 M nodes the V-cycle time is flat
/// within noise from 256 to 16 384 edges per block.
pub const FLUX_BLOCK: usize = 1024;

#[derive(Debug, Clone)]
pub struct Config {
    /// Fine-level grid edge (vertices per side; total ≈ n²).
    pub n: usize,
    /// Multigrid levels (fine + coarser).
    pub levels: usize,
    /// V-cycles to run.
    pub cycles: usize,
    /// Smoothing steps per level per cycle.
    pub smooth_steps: usize,
    pub mode: ExecModeU,
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 33,
            levels: 3,
            cycles: 5,
            smooth_steps: 2,
            mode: ExecModeU::Serial,
            seed: 7,
        }
    }
}

impl Config {
    /// Paper-scale stand-in for Rotor 37: ~8M vertices, 4 levels, 25 cycles.
    pub fn paper() -> Self {
        Config {
            n: 2833,
            levels: 4,
            cycles: 25,
            smooth_steps: 2,
            mode: ExecModeU::Colored,
            seed: 7,
        }
    }
}

/// The reverse of a level's `n2c` in CSR form: the fine nodes under every
/// coarse node, ascending. Restriction gathers through it, one coarse node
/// per iteration, so it needs neither a race guard nor a scratch sum.
pub struct Children {
    start: Vec<u32>,
    fine: Vec<u32>,
}

impl Children {
    fn of_map(n2c: &Map) -> Self {
        let (start, by_coarse) = group_by_min_target(n2c);
        Children {
            start,
            fine: by_coarse.into_old_of_new(),
        }
    }

    /// The fine nodes that `n2c` sends to coarse node `cn`.
    #[inline]
    pub fn of(&self, cn: usize) -> &[u32] {
        &self.fine[self.start[cn] as usize..self.start[cn + 1] as usize]
    }
}

/// One mesh level.
pub struct Level {
    pub nodes: Set,
    pub edges: Set,
    /// edge → 2 nodes.
    pub e2n: Map,
    /// node coordinates (dim 2), for partitioning and geometry.
    pub coords: DatU<f64>,
    /// edge weights (face normal × length; dim 2).
    pub weights: DatU<f64>,
    /// node dual volume.
    pub volume: DatU<f64>,
    /// node → coarse-node map (absent on the coarsest level).
    pub n2c: Option<Map>,
    /// coarse node → its fine nodes, the reverse of `n2c`.
    pub children: Option<Children>,
    /// `compute_flux`'s schedule: blocks of [`FLUX_BLOCK`] consecutive
    /// edges, coloured so that no two blocks of one colour share a node.
    /// A block walks neighbouring nodes, so a flux pass sweeps the node
    /// state about once rather than once per colour.
    pub blocks: BlockColoring,
    /// Element colouring of the edges: the reference schedule that the
    /// benchmark's `op2.colored`, `op2.n_colors` and `op2.schedule_stride`
    /// probes measure. No solver loop runs on it.
    pub coloring: Coloring,
    /// Domain-boundary nodes (held at the free-stream Dirichlet state).
    pub is_boundary: Vec<bool>,
}

/// One level as a mesh file would hold it: no schedule yet.
struct Mesh {
    nodes: Set,
    edges: Set,
    e2n: Map,
    coords: DatU<f64>,
    weights: DatU<f64>,
    volume: DatU<f64>,
    n2c: Option<Map>,
    is_boundary: Vec<bool>,
}

/// A Fisher–Yates scramble of `0..n`: `perm[structured index] = mesh id`.
fn scramble(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

/// Build a synthetic unstructured quad-derived mesh level of `n × n`
/// vertices, with jittered coordinates and a scrambled node numbering: an
/// arbitrary mesh file, with no locality for the solver to inherit. Its map
/// onto the next level is left to [`coarse_map`], which needs that level's
/// scramble; this level's is returned for the level below it.
fn build_level(n: usize, seed: u64) -> (Mesh, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_nodes = n * n;
    let nodes = Set::new("nodes", n_nodes);
    let perm = scramble(n_nodes, &mut rng);

    // Edges of the quad grid (horizontal + vertical). Dual-face normals are
    // taken from the unperturbed grid so that the discrete divergence
    // telescopes exactly (free-stream preservation); coordinates below are
    // jittered only for partitioning realism.
    let h = 1.0 / (n - 1).max(1) as f64;
    let n_edges = 2 * n * (n - 1);
    let mut idx = storage::zeroed(2 * n_edges);
    let mut w = storage::zeroed(2 * n_edges);
    let mut rows = idx.chunks_exact_mut(2).zip(w.chunks_exact_mut(2));
    let mut push = |ends: [u32; 2], normal: [f64; 2]| {
        let (e, q) = rows.next().expect("n_edges counts every edge");
        e.copy_from_slice(&ends);
        q.copy_from_slice(&normal);
    };
    for j in 0..n {
        for i in 0..n {
            let s = j * n + i;
            if i + 1 < n {
                push([perm[s], perm[s + 1]], [h, 0.0]);
            }
            if j + 1 < n {
                push([perm[s], perm[s + n]], [0.0, h]);
            }
        }
    }
    let edges = Set::new("edges", n_edges);
    let e2n = Map::new("e2n", &edges, &nodes, 2, idx);
    // Edge weights: unperturbed dual-face normals (see note above).
    let weights = DatU::from_vec("w", &edges, 2, w);

    // Jittered coordinates (keep boundary nodes on the boundary).
    let mut coords = DatU::<f64>::new("x", &nodes, 2);
    let mut is_boundary = vec![false; n_nodes];
    let jitter = 0.15 * h;
    for j in 0..n {
        for i in 0..n {
            let id = perm[j * n + i] as usize;
            let dx = if i > 0 && i + 1 < n {
                rng.gen_range(-jitter..jitter)
            } else {
                0.0
            };
            let dy = if j > 0 && j + 1 < n {
                rng.gen_range(-jitter..jitter)
            } else {
                0.0
            };
            coords.set(id, 0, i as f64 * h + dx);
            coords.set(id, 1, j as f64 * h + dy);
            is_boundary[id] = i == 0 || j == 0 || i == n - 1 || j == n - 1;
        }
    }

    // Node volumes: uniform h².
    let mut volume = DatU::<f64>::new("vol", &nodes, 1);
    volume.fill(h * h);

    let mesh = Mesh {
        nodes,
        edges,
        e2n,
        coords,
        weights,
        volume,
        n2c: None,
        is_boundary,
    };
    (mesh, perm)
}

/// The node → coarse-node map of an `n × n` level onto the `cn × cn` level
/// above it: structured coarsening by 2. `fine(s)` and `coarse(s)` are the
/// ids that the two levels give their structured node `s`.
fn coarse_map(
    n: usize,
    fine: impl Fn(usize) -> u32,
    cn: usize,
    coarse: impl Fn(usize) -> u32,
) -> Map {
    let nodes = Set::new("nodes", n * n);
    let coarse_set = Set::new("coarse", cn * cn);
    let mut cidx = vec![0u32; n * n];
    for j in 0..n {
        for i in 0..n {
            let ci = (i / 2).min(cn - 1);
            let cj = (j / 2).min(cn - 1);
            cidx[fine(j * n + i) as usize] = coarse(cj * cn + ci);
        }
    }
    Map::new("n2c", &nodes, &coarse_set, 1, cidx)
}

/// Vertices per side of level `l`: the fine side halved, rounding up, `l`
/// times.
fn side(cfg: &Config, l: usize) -> usize {
    (0..l).fold(cfg.n, |n, _| n.div_ceil(2))
}

/// The meshes of all levels as the generator numbers them: level `l`
/// scrambles its numbering with `seed + l`, and its `n2c` targets level
/// `l + 1`'s scramble.
#[cfg(test)]
fn generate(cfg: &Config) -> Vec<Mesh> {
    let mut meshes = Vec::new();
    let mut coarse: Option<(usize, Vec<u32>)> = None;
    for l in (0..cfg.levels).rev() {
        let n = side(cfg, l);
        let (mut mesh, perm) = build_level(n, cfg.seed + l as u64);
        mesh.n2c = coarse.map(|(cn, cperm)| coarse_map(n, |s| perm[s], cn, |s| cperm[s]));
        meshes.push(mesh);
        coarse = Some((n, perm));
    }
    meshes.reverse();
    meshes
}

/// A span over one level's share of a set-up phase; its first argument is
/// the level.
fn level_span(name: &str, level: usize) -> SpanGuard {
    let mut guard = span(Cat::App, name);
    guard.set_args(level as f64, 0.0, 0.0);
    guard
}

/// What the level below a level builds its `n2c` from: this level's side
/// and the new id of each of its structured nodes.
struct Above {
    side: usize,
    new_id: Vec<u32>,
}

impl Above {
    /// From the level's scramble and node order, which it frees.
    fn of(side: usize, (scramble, by_node): (Vec<u32>, Permutation)) -> Above {
        let new_of_old = by_node.new_of_old();
        let new_id = scramble
            .iter()
            .map(|&old| new_of_old[old as usize])
            .collect();
        Above { side, new_id }
    }
}

/// Renumber level `l`, of `side` vertices a side and generated with
/// `scramble`, for locality: nodes along a space-filling curve through
/// their coordinates, edges after their nodes (orientation and weights
/// travel with the edge), and `n2c` built onto `coarser`, the level above,
/// in both levels' new numbering. Returns the renumbered mesh, its scramble
/// and its node order. Traced as the level's `renumber` span
/// over an `order` span (node order), a `permute` span (applying it), an
/// `order` span (edge order) and a `permute` span (applying that).
///
/// The serial passes run beside work that does not need them: inverting
/// the node order beside the node gathers, and building `n2c` beside the
/// edge order and its gathers, so `n2c` has no span of its own.
fn renumber(
    l: usize,
    side: usize,
    (mut m, scramble): (Mesh, Vec<u32>),
    coarser: Option<&Above>,
) -> (Mesh, (Vec<u32>, Permutation)) {
    let _renumber = level_span("renumber", l);
    let by_node = {
        let _order = span(Cat::App, "order");
        sfc_order(&m.coords)
    };
    let permute = span(Cat::App, "permute");
    let (gathered, _) = rayon::join(
        || {
            let coords = by_node.permute_dat(&m.coords);
            let volume = by_node.permute_dat(&m.volume);
            (coords, volume, by_node.permute_slice(&m.is_boundary))
        },
        || by_node.new_of_old(),
    );
    (m.coords, m.volume, m.is_boundary) = gathered;
    by_node.relabel_targets(&mut m.e2n);
    drop(permute);
    let (e2n, weights) = (&mut m.e2n, &mut m.weights);
    let ((), n2c) = rayon::join(
        || {
            let by_edge = {
                let _order = span(Cat::App, "order");
                order_by_min_target(e2n)
            };
            let _permute = span(Cat::App, "permute");
            *e2n = by_edge.permute_rows(e2n);
            *weights = by_edge.permute_dat(weights);
        },
        || {
            coarser.map(|c| {
                let new_of_old = by_node.new_of_old();
                coarse_map(
                    side,
                    |s| new_of_old[scramble[s] as usize],
                    c.side,
                    |s| c.new_id[s],
                )
            })
        },
    );
    m.n2c = n2c;
    (m, (scramble, by_node))
}

impl Level {
    /// Colour level `l`'s mesh for the indirect increments through `e2n`.
    /// The element colouring runs beside the block colouring and `children`;
    /// the level's `colour` span ends when both have, and only the block
    /// colouring has a span of its own (`colour_blocks`).
    fn of_mesh(l: usize, m: Mesh) -> Level {
        let colour = level_span("colour", l);
        let ((blocks, children), coloring) = rayon::join(
            || {
                let blocks = {
                    let _blocks = level_span("colour_blocks", l);
                    BlockColoring::greedy(m.edges.size, FLUX_BLOCK, &[&m.e2n])
                };
                (blocks, m.n2c.as_ref().map(Children::of_map))
            },
            || Coloring::greedy(m.edges.size, &[&m.e2n]),
        );
        drop(colour);
        Level {
            blocks,
            coloring,
            children,
            nodes: m.nodes,
            edges: m.edges,
            e2n: m.e2n,
            coords: m.coords,
            weights: m.weights,
            volume: m.volume,
            n2c: m.n2c,
            is_boundary: m.is_boundary,
        }
    }
}

/// The multigrid solver.
pub struct MgCfd {
    cfg: Config,
    pub levels: Vec<Level>,
    /// Per-level state (NVAR components per node).
    pub q: Vec<DatU<f64>>,
    /// Per-level residual accumulators.
    pub res: Vec<DatU<f64>>,
    /// Per-level FAS forcing (zero on the finest level).
    pub force: Vec<DatU<f64>>,
    /// Saved injected coarse states (prolongation baselines): `q_save[l]`
    /// is the state restriction left on level `l + 1`.
    pub q_save: Vec<DatU<f64>>,
}

/// Free-stream state: ρ=1, u=0.5, v=0.1, p=1.
pub fn freestream() -> [f64; NVAR] {
    let (rho, u, v, p) = (1.0, 0.5, 0.1, 1.0);
    let e = p / (GAMMA - 1.0) + 0.5 * rho * (u * u + v * v);
    [rho, rho * u, rho * v, e]
}

/// The primitive state `[u, v, p, c]` of a node: velocity, pressure and
/// sound speed. It costs a node's divisions and square root, so
/// `compute_flux` derives it once per node of a block, not once per edge.
pub fn primitives(s: &[f64; NVAR]) -> [f64; 4] {
    let rho = s[0].max(1e-12);
    let u = s[1] / rho;
    let v = s[2] / rho;
    let p = ((GAMMA - 1.0) * (s[3] - 0.5 * rho * (u * u + v * v))).max(1e-12);
    let c = (GAMMA * p / rho).sqrt();
    [u, v, p, c]
}

/// Rusanov (local Lax-Friedrichs) numerical flux across one dual face with
/// normal `(wx, wy)`, from state `qa` into state `qb`, given their
/// [`primitives`] `pa` and `pb`.
pub fn rusanov_flux(
    qa: &[f64; NVAR],
    pa: &[f64; 4],
    qb: &[f64; NVAR],
    pb: &[f64; 4],
    wx: f64,
    wy: f64,
) -> [f64; NVAR] {
    let flux_of = |s: &[f64; NVAR], &[u, v, p, _]: &[f64; 4]| -> [f64; NVAR] {
        let rho = s[0].max(1e-12);
        let vn = u * wx + v * wy;
        [
            rho * vn,
            s[1] * vn + p * wx,
            s[2] * vn + p * wy,
            (s[3] + p) * vn,
        ]
    };
    let fa = flux_of(qa, pa);
    let fb = flux_of(qb, pb);
    // Spectral radius for Rusanov dissipation.
    let speed = |&[u, v, _, c]: &[f64; 4]| (u * wx + v * wy).abs() + c * (wx * wx + wy * wy).sqrt();
    let lam = speed(pa).max(speed(pb));
    std::array::from_fn(|c| 0.5 * (fa[c] + fb[c]) - 0.5 * lam * (qb[c] - qa[c]))
}

/// [`rusanov_flux`] deriving both ends' primitives itself. The edge kernel
/// adds `-f` at the `a` endpoint and `+f` at `b`. The distributed
/// owner-compute path uses it as it stands; `compute_flux` is it with the
/// primitives staged per block.
pub fn rusanov_edge_flux(qa: &[f64; NVAR], qb: &[f64; NVAR], wx: f64, wy: f64) -> [f64; NVAR] {
    rusanov_flux(qa, &primitives(qa), qb, &primitives(qb), wx, wy)
}

/// The nodes whose primitives `compute_flux` stages for a block of
/// `edges`: from the smaller end of its first edge to the smaller end of
/// its last. `renumber` orders edges by their smaller end, so that window
/// holds the smaller end of every edge of the block; a larger end may lie
/// outside it. On a mesh in another edge order the window may be empty or
/// wide, and the flux is exact either way.
fn low_end_window(e2n: &[[u32; 2]], edges: Range<usize>) -> Range<usize> {
    let low_end = |e: usize| e2n[e][0].min(e2n[e][1]) as usize;
    low_end(edges.start)..low_end(edges.end - 1) + 1
}

impl MgCfd {
    /// The solver on the mesh `cfg` generates, renumbered for locality
    /// before anything is scheduled on it: colouring, partitioning and every
    /// analyzer see the one renumbered mesh.
    ///
    /// A level depends on the level above it through two inputs only, that
    /// level's scramble (its `n2c` targets) and node order (which relabels
    /// them), so the fine level is generated beside the set-up of all the
    /// others, coarsest first, and is renumbered and coloured after them.
    /// Each level's element colouring runs beside its block colouring. The
    /// levels are the same bits for any thread count and schedule.
    ///
    /// Traced as one `mgcfd_setup` span over a `generate`, a `renumber` and
    /// a `colour` span per level (the level is the span's first argument),
    /// then `allocate_state`. Spans are recorded on the calling thread only:
    /// the fine level's generation has no span of its own but is the work of
    /// its `generate` span, inside which the other levels' spans nest.
    pub fn new(cfg: Config) -> Self {
        let _setup = span(Cat::App, "mgcfd_setup");
        let ((coarse, above), fine) = {
            let _generate = level_span("generate", 0);
            rayon::join(
                || {
                    let (mut coarse, mut above) = (Vec::new(), None);
                    for l in (1..cfg.levels).rev() {
                        let n = side(&cfg, l);
                        let generated = {
                            let _generate = level_span("generate", l);
                            build_level(n, cfg.seed + l as u64)
                        };
                        let (mesh, numbering) = renumber(l, n, generated, above.as_ref());
                        above = Some(Above::of(n, numbering));
                        coarse.push(Level::of_mesh(l, mesh));
                    }
                    (coarse, above)
                },
                || build_level(cfg.n, cfg.seed),
            )
        };
        // A level's scramble and order are freed before it is coloured, so
        // that the colourings reuse their memory.
        let (fine, _) = renumber(0, cfg.n, fine, above.as_ref());
        drop(above);
        let fine = Level::of_mesh(0, fine);
        let levels = std::iter::once(fine)
            .chain(coarse.into_iter().rev())
            .collect();
        Self::with_state(cfg, levels)
    }

    /// The solver on `levels`, in the free-stream state. Traced as an
    /// `allocate_state` span.
    fn with_state(cfg: Config, levels: Vec<Level>) -> Self {
        let _allocate = span(Cat::App, "allocate_state");
        let state = |name: &str, lv: &Level| DatU::<f64>::new(name, &lv.nodes, NVAR);
        let q = levels
            .iter()
            .map(|lv| {
                let mut d = state("q", lv);
                // The first touch of the state's pages: on the pool.
                let fs = freestream();
                d.raw_mut()
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(i, x)| *x = fs[i % NVAR]);
                d
            })
            .collect();
        let res = levels.iter().map(|lv| state("res", lv)).collect();
        let force = levels.iter().map(|lv| state("force", lv)).collect();
        // Zeroed allocations that only a restriction touches.
        let q_save = levels[1..].iter().map(|lv| state("q_save", lv)).collect();
        MgCfd {
            cfg,
            levels,
            q,
            res,
            force,
            q_save,
        }
    }

    /// Add a Gaussian density/energy perturbation on the fine level.
    pub fn perturb(&mut self, amplitude: f64) {
        let lv = &self.levels[0];
        let q = &mut self.q[0];
        for nid in 0..lv.nodes.size {
            let x = lv.coords.get(nid, 0) - 0.5;
            let y = lv.coords.get(nid, 1) - 0.5;
            let g = amplitude * (-(x * x + y * y) / 0.02).exp();
            q.set(nid, 0, q.get(nid, 0) + g);
            q.set(nid, 3, q.get(nid, 3) + 2.0 * g);
        }
    }

    /// MG-CFD's `compute_flux`: Rusanov edge fluxes accumulated into the
    /// residual (indirect increments through e2n — the block-colored loop).
    ///
    /// Each block first stages the [`primitives`] of the nodes that
    /// `low_end_window` picks for its edges; an edge end outside that
    /// window is derived in place. Either way every edge sees the values
    /// [`rusanov_edge_flux`] would derive, so the residual is the same to
    /// the bit. States, edge ends and weights are read as fixed-width rows
    /// (`[f64; NVAR]`, `[u32; 2]`, `[f64; 2]`) and each end's residual is
    /// incremented by one `add_row`.
    pub fn compute_flux(&mut self, profile: &mut Profile, level: usize) {
        let lv = &self.levels[level];
        let q = self.q[level].rows::<NVAR>();
        let res = &mut self.res[level];
        res.fill(0.0);
        let e2n = lv.e2n.rows::<2>();
        let w = lv.weights.rows::<2>();
        par_loop_block_colored_staged(
            profile,
            "compute_flux",
            self.cfg.mode,
            &lv.blocks,
            &mut [res],
            (2 * NVAR + 2 + 2 * NVAR) * 8, // read 2 node states + weights, inc 2 residuals
            120.0,
            |edges| {
                let nodes = low_end_window(e2n, edges);
                // An empty window (start > end) stages nothing.
                let window = q.get(nodes.clone()).unwrap_or_default();
                let prims: Vec<[f64; 4]> = window.iter().map(primitives).collect();
                (nodes.start, prims)
            },
            |(first, prims), e, out| {
                // A node below the window wraps past its end: one check.
                let prim = |n: usize| match prims.get(n.wrapping_sub(*first)) {
                    Some(p) => *p,
                    None => primitives(&q[n]),
                };
                let [a, b] = e2n[e].map(|n| n as usize);
                let [wx, wy] = w[e];
                let f = rusanov_flux(&q[a], &prim(a), &q[b], &prim(b), wx, wy);
                // Flux leaves a, enters b.
                out.add_row(0, a, f.map(|fc| -fc));
                out.add_row(0, b, f);
            },
        );
    }

    /// MG-CFD's `time_step`: explicit pseudo-time update from the residual
    /// plus the FAS coarse-level forcing (zero on the finest level).
    pub fn time_step(&mut self, profile: &mut Profile, level: usize, dt: f64) {
        let lv = &self.levels[level];
        let res = self.res[level].rows::<NVAR>();
        let force = self.force[level].rows::<NVAR>();
        let vol = lv.volume.rows::<1>();
        let boundary = &lv.is_boundary;
        let q = &mut self.q[level];
        par_loop_direct(
            profile,
            "time_step",
            self.cfg.mode,
            lv.nodes.size,
            &mut [q],
            (3 * NVAR + 1) * 8,
            NVAR as f64 * 4.0,
            |nid, out| {
                if boundary[nid] {
                    return; // Dirichlet: held at the far-field state
                }
                let [v] = vol[nid];
                let (r, f) = (&res[nid], &force[nid]);
                let cur = out.get_row::<NVAR>(0, nid);
                let next = std::array::from_fn(|c| cur[c] + dt / v * (r[c] + f[c]));
                out.set_row::<NVAR>(0, nid, next);
            },
        );
    }

    /// Residual L2 norm over the *interior* nodes of a level (Dirichlet
    /// boundary nodes carry the open-edge closure and are not updated).
    pub fn residual_norm(&self, level: usize) -> f64 {
        let r = &self.res[level];
        let b = &self.levels[level].is_boundary;
        let mut s = 0.0;
        let mut count = 0usize;
        for (nid, &on_boundary) in b.iter().enumerate() {
            if on_boundary {
                continue;
            }
            count += 1;
            for c in 0..NVAR {
                s += r.get(nid, c) * r.get(nid, c);
            }
        }
        (s / count.max(1) as f64).sqrt()
    }

    /// FAS restriction (MG-CFD's `restrict`/`up` kernels): inject the fine
    /// state onto the coarse level (volume-weighted average over the fine
    /// nodes mapping to each coarse node), save it as the prolongation
    /// baseline, and build the coarse forcing
    /// `force_c = R(res_f + force_f) − A_c(R q_f)`.
    pub fn restrict_to(&mut self, profile: &mut Profile, fine: usize) {
        let coarse = fine + 1;
        let mode = self.cfg.mode;
        let n_fine = self.levels[fine].nodes.size;
        let n_coarse = self.levels[coarse].nodes.size;

        // `mg_restrict` accounts the two sweeps' own time: the coarse flux
        // pass between them keeps its own `compute_flux` record.
        //
        // 1. State injection q_c = R(q_f), the mean over each coarse node's
        //    fine nodes (dual volumes are uniform), kept as the baseline too.
        let t0 = Instant::now();
        {
            let children = self.levels[fine].children.as_ref().expect("coarse map");
            let (upper, lower) = self.q.split_at_mut(coarse);
            let qf = upper[fine].rows::<NVAR>();
            sweep_direct(
                mode,
                n_coarse,
                &mut [&mut lower[0], &mut self.q_save[fine]],
                |cn, out| {
                    let under = children.of(cn);
                    let mut sum = [0.0f64; NVAR];
                    for &nid in under {
                        for (s, &v) in sum.iter_mut().zip(&qf[nid as usize]) {
                            *s += v;
                        }
                    }
                    let k = under.len().max(1) as f64;
                    let mean = sum.map(|s| s / k);
                    out.set_row(0, cn, mean);
                    out.set_row(1, cn, mean);
                },
            );
        }
        let mut seconds = t0.elapsed().as_secs_f64();

        // 2. Coarse residual of the injected state: A_c(R q_f).
        self.compute_flux(profile, coarse);

        // 3. force_c = R(res_f + force_f) − A_c(R q_f).
        let t0 = Instant::now();
        {
            let lv = &self.levels[fine];
            let children = lv.children.as_ref().expect("coarse map");
            let is_bf = &lv.is_boundary;
            let resf = self.res[fine].rows::<NVAR>();
            let resc = self.res[coarse].rows::<NVAR>();
            let (upper, lower) = self.force.split_at_mut(coarse);
            let forf = upper[fine].rows::<NVAR>();
            sweep_direct(mode, n_coarse, &mut [&mut lower[0]], |cn, out| {
                let mut sum = [0.0f64; NVAR];
                // The boundary closure stays on the fine level.
                for &nid in children.of(cn).iter().filter(|&&n| !is_bf[n as usize]) {
                    let (r, f) = (&resf[nid as usize], &forf[nid as usize]);
                    for (c, s) in sum.iter_mut().enumerate() {
                        *s += r[c] + f[c];
                    }
                }
                let rc = &resc[cn];
                out.set_row::<NVAR>(0, cn, std::array::from_fn(|c| sum[c] - rc[c]));
            });
        }
        seconds += t0.elapsed().as_secs_f64();
        profile.record(
            "mg_restrict",
            n_fine,
            n_fine * NVAR * 24,
            n_fine as f64 * NVAR as f64 * 2.0,
            seconds,
        );
    }

    /// Prolong the coarse-level state *change* (vs. the saved injection
    /// baseline) back to the fine level (MG-CFD's `prolong` kernel).
    pub fn prolong_from(&mut self, profile: &mut Profile, fine: usize) {
        let lv = &self.levels[fine];
        let n2c = lv
            .n2c
            .as_ref()
            .expect("fine level has a coarse map")
            .rows::<1>();
        let is_boundary = &lv.is_boundary;
        let coarse_before = self.q_save[fine].rows::<NVAR>();
        let (upper, lower) = self.q.split_at_mut(fine + 1);
        let coarse_now = lower[0].rows::<NVAR>();
        let t0 = Instant::now();
        sweep_direct(
            self.cfg.mode,
            lv.nodes.size,
            &mut [&mut upper[fine]],
            |nid, out| {
                if is_boundary[nid] {
                    return; // Dirichlet nodes receive no correction
                }
                let cn = n2c[nid][0] as usize;
                let (now, before) = (&coarse_now[cn], &coarse_before[cn]);
                let cur = out.get_row::<NVAR>(0, nid);
                let next = std::array::from_fn(|c| cur[c] + (now[c] - before[c]));
                out.set_row::<NVAR>(0, nid, next);
            },
        );
        profile.record(
            "mg_prolong",
            lv.nodes.size,
            lv.nodes.size * NVAR * 24,
            lv.nodes.size as f64 * NVAR as f64 * 2.0,
            t0.elapsed().as_secs_f64(),
        );
    }

    /// Pseudo-time smoothing steps on one level. `restricted` says that a
    /// restriction has just left `res[level]` holding the residual of
    /// `q[level]`, so the first step takes it instead of recomputing it.
    fn smooth(&mut self, profile: &mut Profile, level: usize, restricted: bool) {
        let n_side = (self.levels[level].nodes.size as f64).sqrt();
        let h = 1.0 / n_side;
        let dt = 0.2 * h; // conservative explicit pseudo-time step
        for step in 0..self.cfg.smooth_steps {
            if !(restricted && step == 0) {
                self.compute_flux(profile, level);
            }
            self.time_step(profile, level, dt);
        }
    }

    /// One FAS V-cycle from the fine level down and back. A level entered
    /// by restriction starts smoothing from the residual `restrict_to` left
    /// it: the same bits another flux pass would compute.
    pub fn v_cycle(&mut self, profile: &mut Profile) {
        let top = self.levels.len() - 1;
        // Down-sweep: pre-smooth, then restrict state + residual forcing.
        for l in 0..top {
            self.smooth(profile, l, l > 0);
            self.compute_flux(profile, l);
            self.restrict_to(profile, l);
        }
        // Coarsest solve: extra smoothing.
        for i in 0..3 {
            self.smooth(profile, top, top > 0 && i == 0);
        }
        // Up-sweep: prolong correction, post-smooth.
        for l in (0..top).rev() {
            self.prolong_from(profile, l);
            self.smooth(profile, l, false);
        }
    }

    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let cycles = cfg.cycles;
        let mut sim = MgCfd::new(cfg);
        sim.perturb(0.05);
        let points = sim.levels[0].nodes.size;
        sim.compute_flux(&mut profile, 0);
        let r0 = sim.residual_norm(0);
        for it in 0..cycles {
            let mut aspan = span(Cat::App, "v_cycle");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.v_cycle(&mut profile);
        }
        sim.compute_flux(&mut profile, 0);
        let r1 = sim.residual_norm(0);
        // Validation: residual reduction factor (< 1 is converging).
        let validation = r1 / r0.max(1e-300);
        AppRun {
            app: AppId::MgCfd,
            profile,
            validation,
            iterations: cycles,
            points,
        }
    }
}

/// Distributed owner-compute flux evaluation over shmpi (the MPI execution
/// scheme the paper benchmarks MG-CFD under): every rank deterministically
/// rebuilds the same fine mesh, RCB-partitions the nodes by coordinate,
/// assigns each edge with [`CutEdgeRule::Parity`] (cut edges split between
/// the two sides so no rank exports a whole interface), refreshes ghost
/// node states with a [`RankHalo`] gather exchange, computes Rusanov fluxes
/// over *owned* edges only, and folds ghost residual contributions back
/// onto the owners with [`RankHalo::scatter_add`].
///
/// Returns this rank's owned `(node, residual)` pairs; their union over
/// ranks equals the serial `compute_flux` residual (validated in tests and
/// by commcheck's clean-run gate).
pub fn distributed_flux(comm: &mut bwb_shmpi::Comm, cfg: &Config) -> Vec<(usize, [f64; NVAR])> {
    use bwb_op2::{edge_ownership, rcb_partition, CutEdgeRule, RankHalo};
    let nparts = comm.size();
    let rank = comm.rank();

    // Deterministic rebuild: same seed → identical mesh and state on every
    // rank, so only halo values actually need to move.
    let mut sim = MgCfd::new(cfg.clone());
    sim.perturb(0.05);
    let lv = &sim.levels[0];
    let n_nodes = lv.nodes.size;

    // RCB over the jittered coordinates: spatially compact, balanced parts.
    let mut flat = Vec::with_capacity(n_nodes * 2);
    for nid in 0..n_nodes {
        flat.push(lv.coords.get(nid, 0));
        flat.push(lv.coords.get(nid, 1));
    }
    let node_part = rcb_partition(&flat, 2, nparts);
    let edge_part = edge_ownership(&lv.e2n, &node_part, CutEdgeRule::Parity);

    let halo = RankHalo::build(&lv.e2n, &edge_part, &node_part, nparts, rank);

    // Poison every non-owned state entry, then refresh the ghosts: the flux
    // loop below must only ever read owned or imported nodes.
    let mut q = sim.q[0].clone();
    for (nid, &p) in node_part.iter().enumerate() {
        if p as usize != rank {
            for c in 0..NVAR {
                q.set(nid, c, f64::NAN);
            }
        }
    }
    halo.exchange(comm, &mut q);

    // Owner-compute: Rusanov fluxes over owned edges, accumulated into
    // owned and ghost residual slots.
    let mut res = DatU::<f64>::new("res", &lv.nodes, NVAR);
    for (e, &ep) in edge_part.iter().enumerate() {
        if ep as usize != rank {
            continue;
        }
        let a = lv.e2n.get(e, 0);
        let b = lv.e2n.get(e, 1);
        let qa: [f64; NVAR] = std::array::from_fn(|c| q.get(a, c));
        let qb: [f64; NVAR] = std::array::from_fn(|c| q.get(b, c));
        let f = rusanov_edge_flux(&qa, &qb, lv.weights.get(e, 0), lv.weights.get(e, 1));
        for (c, &fc) in f.iter().enumerate() {
            res.set(a, c, res.get(a, c) - fc);
            res.set(b, c, res.get(b, c) + fc);
        }
    }
    halo.scatter_add(comm, &mut res);

    (0..n_nodes)
        .filter(|&nid| node_part[nid] as usize == rank)
        .map(|nid| (nid, std::array::from_fn(|c| res.get(nid, c))))
        .collect()
}

/// Declared access contracts of every unstructured loop, for `bwb-dslcheck`.
pub fn loop_specs() -> Vec<bwb_op2::ULoopSpec> {
    use bwb_op2::{UArgSpec, ULoopSpec};
    use bwb_ops::Access;
    vec![
        ULoopSpec::new(
            "compute_flux",
            vec![UArgSpec::new("res", Access::Inc, true)],
        ),
        ULoopSpec::new(
            "time_step",
            vec![UArgSpec::new("q", Access::ReadWrite, false)],
        ),
    ]
}

/// The solver on the generator's own numbering, as every run was before
/// the renumbering pass: the oracle the renumbered solver is held against.
#[cfg(test)]
impl MgCfd {
    fn in_generator_numbering(cfg: Config) -> Self {
        let meshes = generate(&cfg).into_iter().enumerate();
        let levels = meshes.map(|(l, m)| Level::of_mesh(l, m)).collect();
        Self::with_state(cfg, levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_still_emits_the_scrambled_mesh() {
        // The renumbering pass is the solver's; the input it is handed is
        // the mesh of the commit before it, bit for bit (hash taken there).
        let mut h = bwb_ops::hash::FNV_OFFSET;
        let mut fold = |words: &mut dyn Iterator<Item = u64>| {
            h = words.fold(h, bwb_ops::hash::step_u64);
        };
        for m in generate(&Config::default()) {
            fold(&mut m.e2n.raw().iter().map(|&i| i as u64));
            fold(&mut m.coords.raw().iter().map(|x| x.to_bits()));
            fold(&mut m.weights.raw().iter().map(|x| x.to_bits()));
            fold(&mut m.volume.raw().iter().map(|x| x.to_bits()));
            fold(&mut m.is_boundary.iter().map(|&b| b as u64));
            if let Some(n2c) = &m.n2c {
                fold(&mut n2c.raw().iter().map(|&i| i as u64));
            }
        }
        assert_eq!(h, 0x0ac9_db4b_176a_dd2d);
    }

    #[test]
    fn renumbered_v_cycle_equals_the_generator_numbering() {
        for n in [17, 33] {
            let cfg = Config {
                n,
                levels: 3,
                ..Config::default()
            };
            let new_of_old: Vec<Permutation> = generate(&cfg)
                .iter()
                .map(|m| sfc_order(&m.coords))
                .collect();
            let mut oracle = MgCfd::in_generator_numbering(cfg.clone());
            let mut sim = MgCfd::new(cfg);
            for s in [&mut oracle, &mut sim] {
                s.perturb(0.05);
                s.v_cycle(&mut Profile::new());
            }
            // Edge order changes the order residuals are summed in, so the
            // two agree to rounding, not to the bit.
            let fields = [(&oracle.q, &sim.q), (&oracle.res, &sim.res)];
            for (l, perm) in new_of_old.iter().enumerate() {
                for (old, &new) in perm.new_of_old().iter().enumerate() {
                    for (theirs, ours) in fields {
                        for c in 0..NVAR {
                            let (want, got) = (theirs[l].get(old, c), ours[l].get(new as usize, c));
                            assert!(
                                (want - got).abs() < 1e-12,
                                "n={n} level {l} node {old}->{new} comp {c}: {want} vs {got}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn renumbered_levels_keep_their_geometry() {
        for n in [17, 33] {
            let sim = MgCfd::new(Config {
                n,
                levels: 3,
                ..Config::default()
            });
            for (l, lv) in sim.levels.iter().enumerate() {
                // Grid position of a node from its (jittered) coordinates.
                let side = |lv: &Level| (lv.nodes.size as f64).sqrt().round() as usize;
                let cell = |lv: &Level, nid: usize| {
                    let h = 1.0 / (side(lv) - 1) as f64;
                    let at = |c| (lv.coords.get(nid, c) / h).round() as usize;
                    (at(0), at(1))
                };
                for nid in 0..lv.nodes.size {
                    let (i, j) = cell(lv, nid);
                    let edge = side(lv) - 1;
                    let on_boundary = i == 0 || j == 0 || i == edge || j == edge;
                    assert_eq!(
                        lv.is_boundary[nid], on_boundary,
                        "n={n} level {l} node {nid}"
                    );
                }
                let (Some(n2c), Some(children)) = (&lv.n2c, &lv.children) else {
                    assert_eq!(l, 2);
                    continue;
                };
                // Every n2c target is the coarse node over its fine node,
                // and `children` is exactly the reverse of n2c.
                let coarse = &sim.levels[l + 1];
                let mut listed = 0;
                for cn in 0..coarse.nodes.size {
                    for &nid in children.of(cn) {
                        assert_eq!(n2c.get(nid as usize, 0), cn);
                        listed += 1;
                    }
                    assert!(children.of(cn).windows(2).all(|w| w[0] < w[1]));
                }
                assert_eq!(listed, lv.nodes.size);
                let top = side(coarse) - 1;
                for nid in 0..lv.nodes.size {
                    let (i, j) = cell(lv, nid);
                    let over = ((i / 2).min(top), (j / 2).min(top));
                    assert_eq!(cell(coarse, n2c.get(nid, 0)), over, "n={n} level {l}");
                }
            }
        }
    }

    /// Mean id distance between the two ends of an edge.
    fn mean_edge_span(e2n: &Map) -> f64 {
        let rows = e2n.rows::<2>().iter();
        rows.map(|[a, b]| a.abs_diff(*b) as f64).sum::<f64>() / e2n.from_size as f64
    }

    #[test]
    fn renumbered_edges_are_short() {
        // The locality the V-cycle's speed rests on, as an exact count: a
        // Z-order measures about 0.5·√N, the generator's scramble N/3. A
        // lost renumbering fails here on a host where no timing can.
        let cfg = Config {
            n: 65,
            levels: 1,
            ..Config::default()
        };
        let n_nodes = (cfg.n * cfg.n) as f64;
        let scrambled = mean_edge_span(&generate(&cfg)[0].e2n);
        assert!(scrambled > n_nodes / 4.0, "generator span {scrambled}");
        let span = mean_edge_span(&MgCfd::new(cfg).levels[0].e2n);
        assert!(span < 2.0 * n_nodes.sqrt(), "renumbered span {span}");
    }

    #[test]
    fn freestream_is_exactly_preserved() {
        let mut sim = MgCfd::new(Config {
            n: 17,
            levels: 2,
            ..Config::default()
        });
        let mut p = Profile::new();
        sim.compute_flux(&mut p, 0);
        // Identical states on both edge ends ⇒ central flux difference
        // accumulates to zero on interior nodes, and Rusanov dissipation
        // vanishes. Residual must be ~0 everywhere (boundary nodes have a
        // nonzero *divergence closure* from missing edges — the mesh has no
        // boundary faces, so their residual reflects the open boundary; the
        // interior check is the free-stream property).
        sim.time_step(&mut p, 0, 0.01);
        // Interior nodes keep the freestream state bit-for-bit only when
        // their residual is zero; check the state change is tiny overall.
        let fs = freestream();
        let mut interior_violation = 0.0f64;
        let lv = &sim.levels[0];
        // Count edges per node to identify interior (degree-4) nodes.
        let mut degree = vec![0usize; lv.nodes.size];
        for e in 0..lv.edges.size {
            degree[lv.e2n.get(e, 0)] += 1;
            degree[lv.e2n.get(e, 1)] += 1;
        }
        for (nid, &deg) in degree.iter().enumerate() {
            if deg == 4 {
                for (c, &fsc) in fs.iter().enumerate() {
                    interior_violation = interior_violation.max((sim.q[0].get(nid, c) - fsc).abs());
                }
            }
        }
        assert!(
            interior_violation < 1e-13,
            "free-stream violated by {interior_violation}"
        );
    }

    #[test]
    fn residual_conservation() {
        // Each edge adds ±f symmetrically, so the residual sums to zero
        // component-wise over all nodes.
        let mut sim = MgCfd::new(Config {
            n: 17,
            levels: 2,
            ..Config::default()
        });
        sim.perturb(0.1);
        let mut p = Profile::new();
        sim.compute_flux(&mut p, 0);
        for c in 0..NVAR {
            let total: f64 = (0..sim.levels[0].nodes.size)
                .map(|nid| sim.res[0].get(nid, c))
                .sum();
            assert!(
                total.abs() < 1e-10,
                "residual component {c} sums to {total}"
            );
        }
    }

    #[test]
    fn distributed_flux_matches_serial_residual() {
        // 4-rank owner-compute flux (RankHalo gather + scatter_add) must
        // reproduce the serial residual exactly up to summation order.
        let cfg = Config {
            n: 17,
            levels: 2,
            ..Config::default()
        };
        let mut serial = MgCfd::new(cfg.clone());
        serial.perturb(0.05);
        let mut p = Profile::new();
        serial.compute_flux(&mut p, 0);

        let cfg_run = cfg.clone();
        let out = bwb_shmpi::Universe::run(4, move |c| distributed_flux(c, &cfg_run));
        let n_nodes = serial.levels[0].nodes.size;
        let mut covered = vec![false; n_nodes];
        for part in &out.results {
            for &(nid, res) in part {
                assert!(!covered[nid], "node {nid} owned by two ranks");
                covered[nid] = true;
                for (c, &rc) in res.iter().enumerate() {
                    let want = serial.res[0].get(nid, c);
                    assert!(
                        (rc - want).abs() < 1e-12,
                        "node {nid} comp {c}: distributed {rc} vs serial {want}"
                    );
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "some nodes unowned");
    }

    #[test]
    fn v_cycles_reduce_residual() {
        let run = MgCfd::run(Config {
            n: 33,
            levels: 3,
            cycles: 6,
            ..Config::default()
        });
        assert!(run.validation < 0.7, "residual ratio {}", run.validation);
    }

    #[test]
    fn multigrid_beats_pure_smoothing() {
        let residual_after = |levels: usize| {
            let cfg = Config {
                n: 33,
                levels,
                cycles: 0,
                ..Config::default()
            };
            let mut p = Profile::new();
            let mut sim = MgCfd::new(cfg);
            sim.perturb(0.05);
            // Equal fine-level smoothing work: 1-level "V-cycle" = smoothing.
            for _ in 0..4 {
                if levels == 1 {
                    sim.smooth(&mut p, 0, false);
                    sim.smooth(&mut p, 0, false);
                } else {
                    sim.v_cycle(&mut p);
                }
            }
            sim.compute_flux(&mut p, 0);
            sim.residual_norm(0)
        };
        let smoothed = residual_after(1);
        let mg = residual_after(3);
        assert!(
            mg < smoothed,
            "multigrid ({mg}) should beat smoothing alone ({smoothed})"
        );
    }

    #[test]
    fn serial_equals_colored() {
        // 129² nodes: 33 024 fine edges, so the flux schedule has 33 blocks
        // in several colours and the Colored runs really are parallel.
        let base = Config {
            n: 129,
            levels: 2,
            cycles: 2,
            ..Config::default()
        };
        let fine = &MgCfd::new(base.clone()).levels[0].blocks;
        assert!(fine.n_blocks() >= 8, "{} blocks", fine.n_blocks());
        assert!(fine.n_colors >= 2, "{} colours", fine.n_colors);
        let run = |mode| {
            let mut sim = MgCfd::new(Config {
                mode,
                ..base.clone()
            });
            sim.perturb(0.05);
            let mut p = Profile::new();
            for _ in 0..base.cycles {
                sim.v_cycle(&mut p);
            }
            sim.compute_flux(&mut p, 0);
            let bits: Vec<u64> = sim.q[0].raw().iter().map(|x| x.to_bits()).collect();
            (sim.residual_norm(0), bits)
        };
        let (serial, _) = run(ExecModeU::Serial);
        let (colored, q) = run(ExecModeU::Colored);
        let rel = (serial - colored).abs() / serial.max(1e-300);
        // Colored execution reorders FP accumulation; results agree tightly
        // with serial but not bitwise.
        assert!(rel < 1e-9, "serial {serial} vs colored {colored}");
        // The order is fixed by the schedule, though, not by the threads:
        // two colored runs agree to the bit.
        let (again, q_again) = run(ExecModeU::Colored);
        assert_eq!(colored.to_bits(), again.to_bits());
        assert!(q == q_again, "colored runs differ in q");
    }

    /// FNV-1a over the bits of `q` and `res` on every level.
    fn state_hash(sim: &MgCfd) -> u64 {
        sim.q
            .iter()
            .chain(&sim.res)
            .flat_map(|d| d.raw())
            .fold(bwb_ops::hash::FNV_OFFSET, |h, v| {
                bwb_ops::hash::step_u64(h, v.to_bits())
            })
    }

    #[test]
    fn state_bits_pinned_to_the_parent() {
        // Hashes taken before `compute_flux` staged primitives per block and
        // before the V-cycle reused the residual a restriction leaves: both
        // keep every expression and the order of every increment. The
        // arithmetic is +, -, *, /, sqrt, abs and max, and the Colored order
        // is fixed by the block schedule, so the bits depend on neither the
        // host nor the thread count.
        for (mode, golden) in [
            (ExecModeU::Serial, 0x851b_303e_31b0_751e_u64),
            (ExecModeU::Colored, 0x5df0_b6ea_d8fe_d705),
        ] {
            let mut sim = MgCfd::new(Config {
                n: 65,
                levels: 4,
                mode,
                ..Config::default()
            });
            // A polynomial bump, not `perturb`'s Gaussian: no libm `exp`.
            let (lv, q) = (&sim.levels[0], &mut sim.q[0]);
            for nid in 0..lv.nodes.size {
                let x = lv.coords.get(nid, 0) - 0.5;
                let y = lv.coords.get(nid, 1) - 0.5;
                let g = 0.5 * (0.1 - (x * x + y * y)).max(0.0);
                q.set(nid, 0, q.get(nid, 0) + g);
                q.set(nid, 3, q.get(nid, 3) + 2.0 * g);
            }
            let mut p = Profile::new();
            for _ in 0..2 {
                sim.v_cycle(&mut p);
            }
            let hash = state_hash(&sim);
            assert_eq!(hash, golden, "{mode:?}: {hash:#018x}");
        }
    }

    #[test]
    fn setup_output_pinned_to_the_parent() {
        // Every array set-up leaves on a level, schedules included: the
        // element colouring is read by no solver loop, so only this hash
        // sees it. Taken before set-up ran its levels side by side; the
        // output may not depend on the schedule or the thread count.
        let sim = MgCfd::new(Config {
            n: 65,
            levels: 4,
            seed: 1,
            ..Config::default()
        });
        let mut h = bwb_ops::hash::FNV_OFFSET;
        let mut fold = |words: &mut dyn Iterator<Item = u64>| {
            h = words.fold(h, bwb_ops::hash::step_u64);
        };
        let ids = |v: &[u32]| v.iter().map(|&i| i as u64).collect::<Vec<_>>();
        for lv in &sim.levels {
            fold(&mut ids(lv.e2n.raw()).into_iter());
            for d in [&lv.weights, &lv.coords, &lv.volume] {
                fold(&mut d.raw().iter().map(|x| x.to_bits()));
            }
            fold(&mut lv.is_boundary.iter().map(|&b| b as u64));
            if let (Some(n2c), Some(children)) = (&lv.n2c, &lv.children) {
                fold(&mut ids(n2c.raw()).into_iter());
                fold(&mut ids(&children.start).into_iter());
                fold(&mut ids(&children.fine).into_iter());
            }
            let b = &lv.blocks;
            fold(
                &mut [b.block_size, b.set_size, b.n_colors as usize]
                    .map(|k| k as u64)
                    .into_iter(),
            );
            fold(&mut ids(&b.block_colors).into_iter());
            for class in &b.by_color {
                fold(&mut ids(class).into_iter());
            }
            let c = &lv.coloring;
            fold(&mut std::iter::once(c.n_colors as u64));
            fold(&mut ids(&c.colors).into_iter());
            for class in &c.by_color {
                fold(&mut ids(class).into_iter());
            }
        }
        assert_eq!(h, 0x1769_8ae5_904e_2603, "{h:#018x}");
    }

    #[test]
    fn serial_compute_flux_equals_an_edge_order_loop() {
        let cfg = Config {
            n: 65,
            levels: 3,
            ..Config::default()
        };
        // The generator's numbering does not order edges by their smaller
        // end, so there most ends fall outside the staged window.
        for mut sim in [
            MgCfd::new(cfg.clone()),
            MgCfd::in_generator_numbering(cfg.clone()),
        ] {
            sim.perturb(0.05);
            sim.v_cycle(&mut Profile::new());
            for l in 0..sim.levels.len() {
                // The flux one edge at a time, both ends derived in place.
                let (lv, q) = (&sim.levels[l], &sim.q[l]);
                let mut want = DatU::<f64>::new("res", &lv.nodes, NVAR);
                for e in 0..lv.edges.size {
                    let (a, b) = (lv.e2n.get(e, 0), lv.e2n.get(e, 1));
                    let qa: [f64; NVAR] = std::array::from_fn(|c| q.get(a, c));
                    let qb: [f64; NVAR] = std::array::from_fn(|c| q.get(b, c));
                    let f = rusanov_edge_flux(&qa, &qb, lv.weights.get(e, 0), lv.weights.get(e, 1));
                    for (c, &fc) in f.iter().enumerate() {
                        want.set(a, c, want.get(a, c) - fc);
                        want.set(b, c, want.get(b, c) + fc);
                    }
                }
                sim.compute_flux(&mut Profile::new(), l);
                let bits = |d: &DatU<f64>| d.raw().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(bits(&sim.res[l]) == bits(&want), "level {l}");
            }
        }
    }

    #[test]
    fn staged_primitives_cover_most_edge_ends() {
        // Derivations per edge, staged plus in place, against the 2 of an
        // edge-by-edge flux: the locality the staging rests on, as a count.
        let sim = MgCfd::new(Config {
            n: 129,
            levels: 1,
            ..Config::default()
        });
        let lv = &sim.levels[0];
        let (mut staged, mut in_place) = (0, 0);
        for b in 0..lv.blocks.n_blocks() {
            let edges = lv.blocks.block_range(b);
            let window = low_end_window(lv.e2n.rows(), edges.clone());
            staged += window.len();
            for e in edges {
                let (a, b) = (lv.e2n.get(e, 0), lv.e2n.get(e, 1));
                assert!(window.contains(&a.min(b)), "edge {e}");
                in_place += !window.contains(&a.max(b)) as usize;
            }
        }
        let per_edge = |k: usize| k as f64 / lv.edges.size as f64;
        assert!(
            per_edge(staged) + per_edge(in_place) < 0.75,
            "{} staged + {} in place per edge",
            per_edge(staged),
            per_edge(in_place)
        );
    }

    #[test]
    fn setup_phases_are_spans_under_one_root() {
        // Other tests' threads may trace too while the session is on, so
        // only this thread's events are read.
        const LABEL: &str = "mgcfd setup test";
        bwb_trace::set_thread_label(LABEL);
        let cfg = Config {
            n: 17,
            levels: 3,
            ..Config::default()
        };
        let mine = |trace: bwb_trace::Trace| bwb_trace::Trace {
            threads: trace
                .threads
                .into_iter()
                .filter(|t| t.label == LABEL)
                .collect(),
            ..trace
        };
        let (_, trace) = bwb_trace::with_tracing(|| MgCfd::new(cfg.clone()));
        let trace = mine(trace);
        // Levels set up side by side still make one well-formed timeline:
        // no two sibling spans overlap (the `trace` binary's gate).
        assert_eq!(bwb_trace::validate(&trace), Vec::<String>::new());
        let forest = bwb_trace::build_forest(&trace).expect("well-formed spans");
        let name = |s: &bwb_trace::SpanNode| trace.name(s.name).to_string();
        let names = |spans: &[bwb_trace::SpanNode]| spans.iter().map(name).collect::<Vec<_>>();
        let level = |s: &bwb_trace::SpanNode| s.args[0] as usize;
        let roots: Vec<_> = forest.iter().flat_map(|t| &t.roots).collect();
        assert_eq!(
            roots.iter().map(|r| name(r)).collect::<Vec<_>>(),
            ["mgcfd_setup"]
        );

        // The fine level's phases, then the state; the other levels are set
        // up, coarsest first, inside the fine level's `generate`.
        let phases = &roots[0].children;
        assert_eq!(
            names(phases),
            ["generate", "renumber", "colour", "allocate_state"]
        );
        assert!(phases[..3].iter().all(|p| level(p) == 0));
        let beside = &phases[0].children;
        assert_eq!(names(beside), ["generate", "renumber", "colour"].repeat(2));
        assert_eq!(
            beside.iter().map(level).collect::<Vec<_>>(),
            [2, 2, 2, 1, 1, 1]
        );

        // Every phase once per level, with the same steps on every level.
        let mut seen = std::collections::BTreeMap::new();
        roots[0].walk(&mut |s, _| {
            let steps: &[&str] = match name(s).as_str() {
                "generate" => &[],
                "renumber" => &["order", "permute", "order", "permute"],
                "colour" => &["colour_blocks"],
                _ => return,
            };
            *seen.entry((name(s), level(s))).or_insert(0) += 1;
            // Level 0's `generate` holds the other levels' set-up.
            if (name(s).as_str(), level(s)) != ("generate", 0) {
                assert_eq!(names(&s.children), steps, "{} {}", name(s), level(s));
            }
            assert!(s
                .children
                .iter()
                .all(|c| name(c) != "colour_blocks" || level(c) == level(s)));
        });
        assert_eq!(seen.len(), 3 * cfg.levels, "{seen:?}");
        assert!(seen.values().all(|&k| k == 1), "{seen:?}");

        bwb_trace::clear();
        drop(MgCfd::new(cfg));
        assert!(
            mine(bwb_trace::take()).is_empty(),
            "recorded with tracing off"
        );
    }

    #[test]
    fn coloring_is_valid_on_all_levels() {
        for n in [17, 33] {
            let sim = MgCfd::new(Config {
                n,
                levels: 3,
                ..Config::default()
            });
            for lv in &sim.levels {
                assert!(lv.coloring.validate(&[&lv.e2n]));
                assert!(lv.coloring.n_colors >= 2);
                assert!(lv.blocks.validate(&[&lv.e2n]));
                assert_eq!(lv.blocks.set_size, lv.edges.size);
                assert_eq!(lv.blocks.block_size, FLUX_BLOCK);
            }
        }
    }

    #[test]
    fn restrict_does_not_count_the_coarse_flux_twice() {
        // `restrict_to` runs a coarse `compute_flux`, which keeps its own
        // record: the two records together fit inside the call.
        let mut sim = MgCfd::new(Config {
            n: 129,
            levels: 2,
            ..Config::default()
        });
        sim.perturb(0.05);
        sim.compute_flux(&mut Profile::new(), 0);
        let mut p = Profile::new();
        let t0 = Instant::now();
        sim.restrict_to(&mut p, 0);
        let wall = t0.elapsed().as_secs_f64();
        let seconds = |k: &str| p.get(k).expect(k).seconds;
        let (restrict, flux) = (seconds("mg_restrict"), seconds("compute_flux"));
        assert!(
            restrict + flux <= wall,
            "mg_restrict {restrict} s + compute_flux {flux} s > {wall} s"
        );
    }

    #[test]
    fn profile_contains_mgcfd_kernels() {
        let run = MgCfd::run(Config {
            n: 17,
            levels: 2,
            cycles: 1,
            ..Config::default()
        });
        for k in ["compute_flux", "time_step", "mg_restrict", "mg_prolong"] {
            assert!(run.profile.get(k).is_some(), "missing {k}");
        }
    }
}
