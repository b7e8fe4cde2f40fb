//! Per-loop performance accounting — the instrument behind Figure 8.
//!
//! OPS computes the *achieved effective bandwidth* of every kernel by
//! "measuring the execution time of the kernel (excluding MPI
//! communications), and estimating the effective data movement, based on the
//! iteration ranges, datasets accessed, and types of access" (§6). The loop
//! drivers in [`crate::exec`] feed exactly those estimates into a
//! [`Profile`].

use std::collections::BTreeMap;

/// Accumulated statistics for one named loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopRecord {
    pub name: String,
    /// Invocations.
    pub calls: u64,
    /// Total iteration points across calls.
    pub points: usize,
    /// Estimated useful bytes moved (one transfer per dataset per point).
    pub bytes: usize,
    /// Floating-point operations.
    pub flops: f64,
    /// Wall-clock seconds in the loop body (excluding communication).
    pub seconds: f64,
}

impl LoopRecord {
    /// Effective bandwidth in GB/s.
    pub fn effective_gbs(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / self.seconds / 1e9
    }

    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.flops / self.seconds / 1e9
    }

    /// Arithmetic intensity, FLOP per byte.
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0 {
            return 0.0;
        }
        self.flops / self.bytes as f64
    }
}

/// A run's complete loop profile, keyed by loop name (insertion-stable via
/// ordered map for reproducible reports).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    loops: BTreeMap<String, LoopRecord>,
}

impl Profile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one invocation (called by the loop drivers).
    pub fn record(&mut self, name: &str, points: usize, bytes: usize, flops: f64, seconds: f64) {
        let e = self
            .loops
            .entry(name.to_owned())
            .or_insert_with(|| LoopRecord {
                name: name.to_owned(),
                calls: 0,
                points: 0,
                bytes: 0,
                flops: 0.0,
                seconds: 0.0,
            });
        e.calls += 1;
        e.points += points;
        e.bytes += bytes;
        e.flops += flops;
        e.seconds += seconds;
    }

    /// All records, name-ordered.
    pub fn records(&self) -> Vec<&LoopRecord> {
        self.loops.values().collect()
    }

    pub fn get(&self, name: &str) -> Option<&LoopRecord> {
        self.loops.get(name)
    }

    /// Total useful bytes across all loops.
    pub fn total_bytes(&self) -> usize {
        self.loops.values().map(|r| r.bytes).sum()
    }

    /// Total FLOPs across all loops.
    pub fn total_flops(&self) -> f64 {
        self.loops.values().map(|r| r.flops).sum()
    }

    /// Total loop-body seconds.
    pub fn total_seconds(&self) -> f64 {
        self.loops.values().map(|r| r.seconds).sum()
    }

    /// Whole-application effective bandwidth, GB/s (Figure 8's quantity).
    pub fn effective_gbs(&self) -> f64 {
        let t = self.total_seconds();
        if t <= 0.0 {
            return 0.0;
        }
        self.total_bytes() as f64 / t / 1e9
    }

    /// Whole-application arithmetic intensity.
    pub fn intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            return 0.0;
        }
        self.total_flops() / b as f64
    }

    /// Merge another profile (e.g. from another rank or a tile-parallel
    /// worker) into this one. `BTreeMap` iteration makes the result — and
    /// any report rendered from it — independent of merge order *and* of
    /// the map's internal state, so merged tile-parallel records always
    /// serialize identically.
    pub fn merge(&mut self, other: &Profile) {
        for r in other.loops.values() {
            let e = self
                .loops
                .entry(r.name.clone())
                .or_insert_with(|| LoopRecord {
                    name: r.name.clone(),
                    calls: 0,
                    points: 0,
                    bytes: 0,
                    flops: 0.0,
                    seconds: 0.0,
                });
            e.calls += r.calls;
            e.points += r.points;
            e.bytes += r.bytes;
            e.flops += r.flops;
            e.seconds += r.seconds;
        }
    }

    /// Render the profile as CSV, rows in name order (deterministic across
    /// runs and merge orders).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("loop,calls,points,bytes,flops,seconds,effective_gbs\n");
        for r in self.loops.values() {
            out.push_str(&format!(
                "{},{},{},{},{},{:.9},{:.6}\n",
                r.name,
                r.calls,
                r.points,
                r.bytes,
                r.flops,
                r.seconds,
                r.effective_gbs()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_name() {
        let mut p = Profile::new();
        p.record("a", 10, 100, 50.0, 0.5);
        p.record("a", 10, 100, 50.0, 0.5);
        p.record("b", 1, 8, 0.0, 0.1);
        assert_eq!(p.records().len(), 2);
        let a = p.get("a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.points, 20);
        assert_eq!(a.bytes, 200);
        assert_eq!(a.flops, 100.0);
    }

    #[test]
    fn effective_bandwidth_math() {
        let mut p = Profile::new();
        p.record("x", 1, 2_000_000_000, 0.0, 1.0);
        assert!((p.effective_gbs() - 2.0).abs() < 1e-12);
        let r = p.get("x").unwrap();
        assert!((r.effective_gbs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gflops_and_intensity() {
        let mut p = Profile::new();
        p.record("x", 1, 1_000_000, 10_000_000.0, 0.01);
        let r = p.get("x").unwrap();
        assert!((r.gflops() - 1.0).abs() < 1e-12);
        assert!((r.intensity() - 10.0).abs() < 1e-12);
        assert!((p.intensity() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_is_safe() {
        let mut p = Profile::new();
        p.record("x", 0, 0, 0.0, 0.0);
        assert_eq!(p.effective_gbs(), 0.0);
        assert_eq!(p.get("x").unwrap().gflops(), 0.0);
        assert_eq!(p.intensity(), 0.0);
    }

    #[test]
    fn merge_combines_ranks() {
        let mut a = Profile::new();
        a.record("k", 5, 50, 10.0, 0.2);
        let mut b = Profile::new();
        b.record("k", 5, 50, 10.0, 0.3);
        b.record("k", 5, 50, 10.0, 0.3);
        b.record("other", 1, 1, 1.0, 0.1);
        a.merge(&b);
        let k = a.get("k").unwrap();
        assert_eq!(k.calls, 3);
        assert_eq!(k.points, 15);
        assert!((k.seconds - 0.8).abs() < 1e-12);
        assert!(a.get("other").is_some());
    }

    #[test]
    fn merge_is_order_independent_and_csv_deterministic() {
        // Regression: merging the same per-tile profiles in any order must
        // produce byte-identical CSV (tile-parallel execution merges worker
        // profiles in nondeterministic completion order).
        let mk = |seed: usize| {
            let mut p = Profile::new();
            p.record("advec", seed, 10 * seed, seed as f64, 0.25);
            p.record("pdv", 1, 8, 2.0, 0.125);
            p
        };
        let parts = [mk(1), mk(2), mk(3)];
        let mut forward = Profile::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = Profile::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.to_csv(), backward.to_csv());
        assert_eq!(forward.get("advec").unwrap().calls, 3);
        assert_eq!(forward.get("pdv").unwrap().calls, 3);
        // Rows come out name-sorted.
        let csv = forward.to_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows[0].starts_with("advec,") && rows[1].starts_with("pdv,"));
    }

    #[test]
    fn merge_into_empty_copies_call_counts() {
        // Regression: the old merge went through record(), which bumped
        // calls by one and then patched it back — merging a record with 0
        // calls could underflow. Plain field sums cannot.
        let mut src = Profile::new();
        src.record("k", 1, 1, 1.0, 0.1);
        src.record("k", 1, 1, 1.0, 0.1);
        let mut dst = Profile::new();
        dst.merge(&src);
        assert_eq!(dst.get("k").unwrap().calls, 2);
        assert_eq!(dst, src);
    }

    #[test]
    fn records_are_name_ordered() {
        let mut p = Profile::new();
        p.record("zeta", 1, 1, 0.0, 0.0);
        p.record("alpha", 1, 1, 0.0, 0.0);
        let names: Vec<_> = p.records().iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
