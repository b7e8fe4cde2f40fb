//! miniBUDE — proxy molecular-docking code (paper §3, app 1; Poenaru et
//! al., representative of BUDE).
//!
//! The kernel: for each candidate *pose* (a rigid-body rotation +
//! translation of the ligand), transform every ligand atom and accumulate
//! an interaction energy against every protein atom — an O(poses × ligand
//! × protein) single-precision computation with tiny memory traffic:
//! compute- and latency-bound, the paper's only non-bandwidth-bound app.
//!
//! The energy model follows miniBUDE's shape: a steric repulsion/attraction
//! term gated by atom-type "hardness" plus a distance-capped electrostatic
//! term. The `bm1`-like deck is generated synthetically (the real deck is
//! BUDE-proprietary data): deterministic pseudo-random atom positions,
//! charges, and types with the same cardinalities. Validation: analytic
//! two-atom energies, rigid-motion invariance, and determinism.

use crate::{AppId, AppRun};
use bwb_ops::Profile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::time::Instant;

/// Forcefield parameters per atom type.
#[derive(Debug, Clone, Copy)]
pub struct FfParams {
    pub radius: f32,
    pub hardness: f32,
    pub is_donor: bool,
}

/// One atom: position, charge, type index.
#[derive(Debug, Clone, Copy)]
pub struct Atom {
    pub x: f32,
    pub y: f32,
    pub z: f32,
    pub charge: f32,
    pub ty: u32,
}

/// One pose: Euler rotation + translation.
#[derive(Debug, Clone, Copy)]
pub struct Pose {
    pub rx: f32,
    pub ry: f32,
    pub rz: f32,
    pub tx: f32,
    pub ty: f32,
    pub tz: f32,
}

impl Pose {
    pub const IDENTITY: Pose = Pose {
        rx: 0.0,
        ry: 0.0,
        rz: 0.0,
        tx: 0.0,
        ty: 0.0,
        tz: 0.0,
    };

    /// Apply the rigid transform to a point.
    pub fn transform(&self, x: f32, y: f32, z: f32) -> (f32, f32, f32) {
        let (sx, cx) = self.rx.sin_cos();
        let (sy, cy) = self.ry.sin_cos();
        let (sz, cz) = self.rz.sin_cos();
        // Rz · Ry · Rx
        let (x1, y1, z1) = (x, cx * y - sx * z, sx * y + cx * z);
        let (x2, y2, z2) = (cy * x1 + sy * z1, y1, -sy * x1 + cy * z1);
        let (x3, y3, z3) = (cz * x2 - sz * y2, sz * x2 + cz * y2, z2);
        (x3 + self.tx, y3 + self.ty, z3 + self.tz)
    }
}

/// Electrostatic distance cap (Å) and scale, miniBUDE-flavoured constants.
const ELEC_CUTOFF: f32 = 10.0;
const ELEC_SCALE: f32 = 45.0;

#[derive(Debug, Clone)]
pub struct Config {
    pub n_poses: usize,
    pub n_ligand: usize,
    pub n_protein: usize,
    pub iterations: usize,
    pub parallel: bool,
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n_poses: 128,
            n_ligand: 26,
            n_protein: 200,
            iterations: 2,
            parallel: false,
            seed: 5,
        }
    }
}

impl Config {
    /// The paper's bm1-like testcase: 65536 poses, 26 ligand / 938 protein
    /// atoms, 30 iterations.
    pub fn paper() -> Self {
        Config {
            n_poses: 65536,
            n_ligand: 26,
            n_protein: 938,
            iterations: 30,
            parallel: true,
            seed: 5,
        }
    }
}

/// The docking deck.
pub struct MiniBude {
    cfg: Config,
    pub ligand: Vec<Atom>,
    pub protein: Vec<Atom>,
    pub poses: Vec<Pose>,
    pub ff: Vec<FfParams>,
}

/// Pairwise energy between a transformed ligand atom and a protein atom.
#[inline]
pub fn pair_energy(lig: &Atom, lx: f32, ly: f32, lz: f32, prot: &Atom, ff: &[FfParams]) -> f32 {
    let dx = lx - prot.x;
    let dy = ly - prot.y;
    let dz = lz - prot.z;
    let r = (dx * dx + dy * dy + dz * dz).sqrt().max(1e-3);
    let pl = ff[lig.ty as usize];
    let pp = ff[prot.ty as usize];
    let radij = pl.radius + pp.radius;
    // Steric: quadratic repulsion inside contact, soft attraction just
    // outside, gated by combined hardness (miniBUDE's dslv-style shape).
    let hardness = 0.5 * (pl.hardness + pp.hardness);
    let steric = if r < radij {
        hardness * (1.0 - r / radij) * (1.0 - r / radij) * 10.0
    } else if r < radij * 1.5 {
        -hardness * (1.0 - (r - radij) / (0.5 * radij)) * 0.5
    } else {
        0.0
    };
    // Capped electrostatics.
    let elec = if r < ELEC_CUTOFF {
        ELEC_SCALE * lig.charge * prot.charge * (1.0 / r - 1.0 / ELEC_CUTOFF)
    } else {
        0.0
    };
    // Donor/acceptor bonus when complementary types are in contact.
    let hbond = if pl.is_donor != pp.is_donor && r < radij * 1.2 {
        -1.0
    } else {
        0.0
    };
    steric + elec + hbond
}

impl MiniBude {
    pub fn new(cfg: Config) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_types = 8;
        let ff: Vec<FfParams> = (0..n_types)
            .map(|t| FfParams {
                radius: 1.2 + 0.15 * t as f32,
                hardness: 20.0 + 5.0 * t as f32,
                is_donor: t % 2 == 0,
            })
            .collect();
        let atom = |span: f32, rng: &mut StdRng| Atom {
            x: rng.gen_range(-span..span),
            y: rng.gen_range(-span..span),
            z: rng.gen_range(-span..span),
            charge: rng.gen_range(-0.5..0.5),
            ty: rng.gen_range(0..n_types as u32),
        };
        let ligand: Vec<Atom> = (0..cfg.n_ligand).map(|_| atom(4.0, &mut rng)).collect();
        let protein: Vec<Atom> = (0..cfg.n_protein).map(|_| atom(15.0, &mut rng)).collect();
        let poses: Vec<Pose> = (0..cfg.n_poses)
            .map(|_| Pose {
                rx: rng.gen_range(0.0..std::f32::consts::TAU),
                ry: rng.gen_range(0.0..std::f32::consts::TAU),
                rz: rng.gen_range(0.0..std::f32::consts::TAU),
                tx: rng.gen_range(-5.0..5.0),
                ty: rng.gen_range(-5.0..5.0),
                tz: rng.gen_range(-5.0..5.0),
            })
            .collect();
        MiniBude {
            cfg,
            ligand,
            protein,
            poses,
            ff,
        }
    }

    /// Energy of one pose.
    pub fn pose_energy(&self, pose: &Pose) -> f32 {
        let mut e = 0.0f32;
        for lig in &self.ligand {
            let (lx, ly, lz) = pose.transform(lig.x, lig.y, lig.z);
            for prot in &self.protein {
                e += pair_energy(lig, lx, ly, lz, prot, &self.ff);
            }
        }
        e
    }

    /// Evaluate all poses (the `fasten_main` kernel).
    pub fn energies(&self, profile: &mut Profile) -> Vec<f32> {
        let t0 = Instant::now();
        let out: Vec<f32> = if self.cfg.parallel {
            self.poses.par_iter().map(|p| self.pose_energy(p)).collect()
        } else {
            self.poses.iter().map(|p| self.pose_energy(p)).collect()
        };
        let pairs = self.poses.len() * self.ligand.len() * self.protein.len();
        // ~30 FLOPs per atom pair (transform amortized over protein atoms).
        profile.record(
            "fasten_main",
            self.poses.len(),
            // Streams the ligand + protein + poses once per pose-block:
            // tiny traffic — this is the compute-bound profile signature.
            self.poses.len() * (self.ligand.len() + 16) * 20,
            pairs as f64 * 30.0,
            t0.elapsed().as_secs_f64(),
        );
        out
    }

    /// Distributed pose-energy evaluation: each rank scores a contiguous
    /// slice of the pose set (embarrassingly parallel — the ligand/protein
    /// decks are replicated), then non-root ranks send their slice to rank
    /// 0, which assembles the rank-ordered energy vector. Root returns
    /// `Some(energies)` (identical to the serial [`Self::energies`]),
    /// everyone else `None`.
    ///
    /// The gather is explicit point-to-point (ctx `"pose_energies"`) so
    /// commcheck sees a many-to-one phase with per-rank byte counts; slice
    /// sizes differ by at most one pose, so the imbalance analyzer must
    /// report this phase balanced.
    pub fn energies_distributed(&self, comm: &mut bwb_shmpi::Comm) -> Option<Vec<f32>> {
        const POSE_GATHER_TAG: u32 = 0x7000_0000;
        let (rank, size) = (comm.rank(), comm.size());
        let n = self.poses.len();
        let lo = n * rank / size;
        let hi = n * (rank + 1) / size;
        let mine: Vec<f32> = self.poses[lo..hi]
            .iter()
            .map(|p| self.pose_energy(p))
            .collect();
        comm.set_comm_ctx("pose_energies");
        let out = if rank == 0 {
            let mut all = mine;
            for r in 1..size {
                all.extend(comm.recv::<f32>(r, POSE_GATHER_TAG));
            }
            assert_eq!(all.len(), n, "gathered pose count");
            Some(all)
        } else {
            comm.send(0, POSE_GATHER_TAG, mine);
            None
        };
        comm.clear_comm_ctx();
        out
    }

    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let iterations = cfg.iterations;
        let sim = MiniBude::new(cfg);
        let mut best = f32::INFINITY;
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "energies_pass");
            aspan.set_args(it as f64, 0.0, 0.0);
            let e = sim.energies(&mut profile);
            best = e.iter().copied().fold(best, f32::min);
        }
        AppRun {
            app: AppId::MiniBude,
            profile,
            validation: best as f64,
            iterations,
            points: sim.poses.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_atom_deck() -> MiniBude {
        let mut m = MiniBude::new(Config {
            n_poses: 1,
            n_ligand: 1,
            n_protein: 1,
            ..Config::default()
        });
        m.ligand = vec![Atom {
            x: 0.0,
            y: 0.0,
            z: 0.0,
            charge: 0.3,
            ty: 0,
        }];
        m.protein = vec![Atom {
            x: 5.0,
            y: 0.0,
            z: 0.0,
            charge: -0.2,
            ty: 0,
        }];
        m.poses = vec![Pose::IDENTITY];
        m
    }

    #[test]
    fn distributed_energies_match_serial() {
        // 4-rank pose-slice gather must reproduce the serial energy vector
        // bit-for-bit (same per-pose arithmetic, only the traversal is
        // partitioned; 13 poses ⇒ uneven slices exercise the split math).
        let cfg = Config {
            n_poses: 13,
            n_ligand: 8,
            n_protein: 24,
            parallel: false,
            ..Config::default()
        };
        let serial = {
            let mut p = Profile::new();
            MiniBude::new(cfg.clone()).energies(&mut p)
        };
        let cfg_run = cfg.clone();
        let out = bwb_shmpi::Universe::run(4, move |c| {
            MiniBude::new(cfg_run.clone()).energies_distributed(c)
        });
        let gathered = out.results[0].clone().expect("root returns energies");
        assert_eq!(gathered, serial);
        for r in 1..4 {
            assert!(out.results[r].is_none(), "non-root rank returned data");
        }
    }

    #[test]
    fn two_atom_electrostatics_match_formula() {
        let m = two_atom_deck();
        let e = m.pose_energy(&Pose::IDENTITY);
        // r = 5 Å > 1.5×2.4 Å ⇒ steric 0, no hbond (same type parity):
        let expect = ELEC_SCALE * 0.3 * -0.2 * (1.0 / 5.0 - 1.0 / ELEC_CUTOFF);
        assert!((e - expect).abs() < 1e-6, "e = {e}, expect {expect}");
    }

    #[test]
    fn steric_repulsion_dominates_at_contact() {
        let mut m = two_atom_deck();
        m.protein[0].x = 0.5; // well inside contact radius
        let e = m.pose_energy(&Pose::IDENTITY);
        assert!(e > 10.0, "contact energy should be strongly repulsive: {e}");
    }

    #[test]
    fn energy_decays_with_distance() {
        let mut m = two_atom_deck();
        let mut last = f32::INFINITY;
        for d in [3.0f32, 5.0, 8.0, 20.0] {
            m.protein[0].x = d;
            let e = m.pose_energy(&Pose::IDENTITY).abs();
            assert!(e <= last, "|E| should not grow with distance");
            last = e;
        }
        // Beyond the cutoff: exactly zero.
        m.protein[0].x = 25.0;
        assert_eq!(m.pose_energy(&Pose::IDENTITY), 0.0);
    }

    #[test]
    fn joint_rigid_motion_invariance() {
        // Rotating BOTH ligand pose and protein by the same rigid motion
        // preserves the energy (distances unchanged).
        let m = MiniBude::new(Config {
            n_poses: 4,
            n_ligand: 8,
            n_protein: 20,
            ..Config::default()
        });
        let e0 = m.pose_energy(&Pose::IDENTITY);
        let rot = Pose {
            rz: 1.1,
            ..Pose::IDENTITY
        };
        let mut m2 = MiniBude::new(Config {
            n_poses: 4,
            n_ligand: 8,
            n_protein: 20,
            ..Config::default()
        });
        m2.protein = m
            .protein
            .iter()
            .map(|a| {
                let (x, y, z) = rot.transform(a.x, a.y, a.z);
                Atom { x, y, z, ..*a }
            })
            .collect();
        let e1 = m2.pose_energy(&rot);
        assert!((e0 - e1).abs() / e0.abs().max(1.0) < 1e-4, "{e0} vs {e1}");
    }

    #[test]
    fn serial_equals_parallel() {
        let mut p = Profile::new();
        let a = MiniBude::new(Config {
            parallel: false,
            ..Config::default()
        })
        .energies(&mut p);
        let b = MiniBude::new(Config {
            parallel: true,
            ..Config::default()
        })
        .energies(&mut p);
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_runs() {
        let r1 = MiniBude::run(Config::default());
        let r2 = MiniBude::run(Config::default());
        assert_eq!(r1.validation, r2.validation);
        assert!(r1.validation.is_finite());
    }

    #[test]
    fn profile_shows_compute_bound_intensity() {
        let run = MiniBude::run(Config::default());
        // Arithmetic intensity far above any bandwidth-bound app (> 5
        // flop/byte vs ~0.1-1 for the stencil codes).
        assert!(
            run.profile.intensity() > 5.0,
            "intensity {}",
            run.profile.intensity()
        );
    }
}
