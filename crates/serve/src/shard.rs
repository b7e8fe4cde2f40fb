//! The sharded worker pool.
//!
//! The service carves the modelled machine's physical cores into disjoint
//! shards ([`CpuTopology::carve_shards`]) and pins each distributed job's
//! `shmpi` universe to one shard's core set via [`Universe::run_pinned`].
//! Messages inside a universe are priced with the placement-aware latency
//! model, and the transport is the lock-free SPSC mailbox unconditionally
//! — the serving hot path never takes the locked mailbox.
//!
//! Carving is *lazy and per-policy*: jobs may request a `placement` and
//! the pool materializes (and caches) one shard set per [`ShardPolicy`] on
//! first use. A carve the topology cannot satisfy (say 9 one-per-NUMA
//! shards on 8 domains) is a job-level error the HTTP layer maps to 400 —
//! it never crashes the pool. When a job does not pick a placement, the
//! pool asks placecheck for the certified policy of that app/rank-count
//! ([`bwb_dslcheck::certified_shard_policy`]) and falls back to the
//! configured default.
//!
//! A shard runs one universe at a time (its cores are "occupied"); jobs
//! are routed round-robin and block on the shard's gate, which the
//! admission layer upstream keeps short by bounding concurrent heavy jobs.

use bwb_apps::jobspec::{BenchOutcome, BenchSpec};
use bwb_machine::{CpuTopology, Platform, RankPlacement, ShardPolicy};
use bwb_shmpi::{Comm, MailboxKind, RunOutput, Universe};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

struct Shard {
    placement: RankPlacement,
    /// One universe per shard at a time.
    gate: Mutex<()>,
    jobs: AtomicU64,
}

/// The carved shards of one policy, with their own round-robin cursor.
struct ShardSet {
    shards: Vec<Shard>,
    next: AtomicUsize,
}

/// Per-shard counters for `/stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    pub shard: usize,
    pub cores: usize,
    pub jobs: u64,
}

/// One distributed execution's result with its routing information.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    pub outcome: BenchOutcome,
    pub shard: usize,
    /// The policy the run was actually placed under.
    pub policy: ShardPolicy,
    /// Fraction of rank time blocked in communication (Figure 7's metric).
    pub mpi_fraction: f64,
    pub wall_seconds: f64,
}

pub struct ShardPool {
    platform: Platform,
    n_shards: usize,
    default_policy: ShardPolicy,
    /// Lazily carved shard sets, one per policy ever requested.
    sets: Mutex<HashMap<ShardPolicy, Arc<ShardSet>>>,
}

impl ShardPool {
    /// Remember the carve parameters; no cores are carved until a job
    /// needs them, so an unsatisfiable configuration surfaces as that
    /// job's error instead of a construction panic.
    pub fn new(platform: Platform, n_shards: usize, policy: ShardPolicy) -> ShardPool {
        ShardPool {
            platform,
            n_shards,
            default_policy: policy,
            sets: Mutex::new(HashMap::new()),
        }
    }

    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    pub fn policy(&self) -> ShardPolicy {
        self.default_policy
    }

    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    pub fn topology(&self) -> &CpuTopology {
        &self.platform.topology
    }

    /// The carved shard set for `policy`, materializing it on first use.
    fn set_for(&self, policy: ShardPolicy) -> Result<Arc<ShardSet>, String> {
        let mut sets = self.sets.lock().unwrap();
        if let Some(set) = sets.get(&policy) {
            return Ok(Arc::clone(set));
        }
        let shards = self
            .platform
            .topology
            .carve_shards(self.n_shards, policy)?
            .into_iter()
            .map(|placement| Shard {
                placement,
                gate: Mutex::new(()),
                jobs: AtomicU64::new(0),
            })
            .collect();
        let set = Arc::new(ShardSet {
            shards,
            next: AtomicUsize::new(0),
        });
        sets.insert(policy, Arc::clone(&set));
        Ok(set)
    }

    /// Stats of the default policy's shard set (empty until first carve
    /// or when the default policy cannot carve this topology).
    pub fn stats(&self) -> Vec<ShardStats> {
        let sets = self.sets.lock().unwrap();
        let Some(set) = sets.get(&self.default_policy) else {
            return Vec::new();
        };
        set.shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardStats {
                shard: i,
                cores: s.placement.n_ranks(),
                jobs: s.jobs.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// The policy a ranked run of `spec` executes under when the request
    /// does not pick one: placecheck's certified shard policy for this
    /// app/rank count on this platform, else the configured default.
    pub fn certified_policy(&self, spec: &BenchSpec) -> ShardPolicy {
        bwb_dslcheck::certified_shard_policy(
            spec.app.slug(),
            spec.ranks,
            &self.platform,
            self.n_shards,
        )
        .unwrap_or(self.default_policy)
    }

    /// Run a ranked spec on the next shard (round-robin) of the requested
    /// policy — or of placecheck's certified policy when `policy` is
    /// `None` — pinned to its carved core set over the SPSC transport.
    pub fn run_ranked(
        &self,
        spec: &BenchSpec,
        policy: Option<ShardPolicy>,
    ) -> Result<ShardedRun, String> {
        spec.validate()?;
        let policy = policy.unwrap_or_else(|| self.certified_policy(spec));
        let (shard, out) = self.on_next_shard(policy, spec.ranks, |c| spec.run_ranked(c))?;
        Ok(ShardedRun {
            outcome: spec.merge_ranked(&out.results),
            shard,
            policy,
            mpi_fraction: out.mpi_fraction(),
            wall_seconds: out.wall_seconds,
        })
    }

    /// Run `f` as a `ranks`-rank universe that has `policy`'s next shard
    /// (round-robin) to itself; returns which shard that was.
    pub(crate) fn on_next_shard<R: Send>(
        &self,
        policy: ShardPolicy,
        ranks: usize,
        f: impl Fn(&mut Comm) -> R + Sync,
    ) -> Result<(usize, RunOutput<R>), String> {
        let set = self.set_for(policy)?;
        let idx = set.next.fetch_add(1, Ordering::Relaxed) % set.shards.len();
        let shard = &set.shards[idx];
        if ranks > shard.placement.n_ranks() {
            return Err(format!(
                "ranks={} exceeds the shard's {} cores (shards={}, policy={})",
                ranks,
                shard.placement.n_ranks(),
                set.shards.len(),
                policy.label(),
            ));
        }
        // The gate guards no data: poisoned by a universe that panicked
        // on the shard, it hands the cores to the next one as well as ever.
        let _gate = shard.gate.lock().unwrap_or_else(|e| e.into_inner());
        shard.jobs.fetch_add(1, Ordering::Relaxed);
        let out = Universe::run_pinned(
            ranks,
            MailboxKind::Spsc,
            (shard.placement.clone(), self.platform.latency),
            f,
        );
        Ok((idx, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_apps::AppId;
    use bwb_machine::platforms;

    #[test]
    fn pool_carves_requested_shards_and_round_robins() {
        let pool = ShardPool::new(platforms::xeon_8360y(), 2, ShardPolicy::Packed);
        assert_eq!(pool.n_shards(), 2);
        let spec = BenchSpec {
            app: AppId::Acoustic,
            n: 12,
            iterations: 2,
            ranks: 2,
            parallel: false,
        };
        let a = pool.run_ranked(&spec, Some(ShardPolicy::Packed)).unwrap();
        let b = pool.run_ranked(&spec, Some(ShardPolicy::Packed)).unwrap();
        assert_ne!(a.shard, b.shard, "round-robin over both shards");
        assert_eq!(a.outcome.ranks, 2);
        // Same spec, same physics: validation quantities agree exactly.
        assert_eq!(a.outcome.validation, b.outcome.validation);
        let stats = pool.stats();
        assert_eq!(stats.iter().map(|s| s.jobs).sum::<u64>(), 2);
    }

    #[test]
    fn oversized_rank_counts_are_refused_with_context() {
        // 72 physical cores packed into 8 shards of 9 cores each.
        let pool = ShardPool::new(platforms::xeon_8360y(), 8, ShardPolicy::Packed);
        let spec = BenchSpec {
            app: AppId::Acoustic,
            n: 64,
            iterations: 1,
            ranks: 64,
            parallel: false,
        };
        let err = pool
            .run_ranked(&spec, Some(ShardPolicy::Packed))
            .unwrap_err();
        assert!(err.contains("exceeds the shard's"), "{err}");
    }

    #[test]
    fn unsatisfiable_carves_error_per_job_not_at_construction() {
        // 9 one-per-NUMA shards on 8 domains: constructing the pool is
        // fine; the carve error belongs to the job that needs it.
        let pool = ShardPool::new(platforms::xeon_max_9480(), 9, ShardPolicy::OnePerNuma);
        let spec = BenchSpec {
            app: AppId::Acoustic,
            n: 12,
            iterations: 1,
            ranks: 2,
            parallel: false,
        };
        let err = pool
            .run_ranked(&spec, Some(ShardPolicy::OnePerNuma))
            .unwrap_err();
        assert!(err.contains("NUMA domains"), "{err}");
        // The same pool still serves jobs under a policy that carves.
        let ok = pool.run_ranked(&spec, Some(ShardPolicy::Packed)).unwrap();
        assert_eq!(ok.outcome.ranks, 2);
        assert_eq!(ok.policy, ShardPolicy::Packed);
    }

    #[test]
    fn default_placement_comes_from_placecheck() {
        let pool = ShardPool::new(platforms::xeon_max_9480(), 2, ShardPolicy::OnePerNuma);
        let spec = BenchSpec {
            app: AppId::Acoustic,
            n: 12,
            iterations: 1,
            ranks: 4,
            parallel: false,
        };
        let certified = pool.certified_policy(&spec);
        let run = pool.run_ranked(&spec, None).unwrap();
        assert_eq!(run.policy, certified);
    }
}
