//! Collective operations: reduce, allreduce, broadcast, gather.
//!
//! Built on the point-to-point layer with a reserved tag space; each
//! collective invocation consumes one sequence number so that back-to-back
//! collectives never cross-match (the usual "collectives are called in the
//! same order on all ranks" MPI requirement applies).

use crate::comm::Comm;
use crate::event::CommOp;

/// Base of the reserved tag space for collectives. Public so analyzers
/// (commcheck's imbalance pass) can separate collective-internal traffic
/// from application point-to-point phases by tag alone.
pub const COLL_TAG_BASE: u32 = 0x8000_0000;
/// Distinct collective invocations before tags recycle.
const COLL_TAG_WINDOW: u32 = 0x4000_0000;

/// Elementwise reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

/// Element types usable in reductions.
pub trait Reducible: Copy + Send + PartialOrd + 'static {
    fn zero(op: ReduceOp) -> Self;
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_reducible_float {
    ($t:ty) => {
        impl Reducible for $t {
            fn zero(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Min => <$t>::INFINITY,
                    ReduceOp::Max => <$t>::NEG_INFINITY,
                }
            }
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }
        }
    };
}
impl_reducible_float!(f32);
impl_reducible_float!(f64);

macro_rules! impl_reducible_int {
    ($t:ty) => {
        impl Reducible for $t {
            fn zero(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0,
                    ReduceOp::Min => <$t>::MAX,
                    ReduceOp::Max => <$t>::MIN,
                }
            }
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }
        }
    };
}
impl_reducible_int!(u32);
impl_reducible_int!(u64);
impl_reducible_int!(i32);
impl_reducible_int!(i64);
impl_reducible_int!(usize);

impl Comm {
    fn next_coll_tag(&mut self, kind: &'static str) -> u32 {
        let tag = COLL_TAG_BASE + (self.coll_seq % COLL_TAG_WINDOW);
        self.coll_seq += 1;
        self.stats.collectives += 1;
        // Entry marker for commcheck's collective-order analyzer; the
        // constituent point-to-point traffic is logged separately under the
        // reserved tag.
        self.log_event(CommOp::Collective { kind }, tag, 0);
        tag
    }

    /// Reduce element-wise onto `root`; returns `Some(reduced)` on the root,
    /// `None` elsewhere. The reduction is applied in rank order, so
    /// floating-point results are deterministic across runs.
    pub fn reduce<T: Reducible>(
        &mut self,
        vals: &[T],
        op: ReduceOp,
        root: usize,
    ) -> Option<Vec<T>> {
        let tag = self.next_coll_tag("reduce");
        if self.rank == root {
            let mut acc: Vec<T> = vals.to_vec();
            // Deterministic rank order (skip self).
            for src in 0..self.size() {
                if src == root {
                    continue;
                }
                let contrib = self.recv::<T>(src, tag);
                assert_eq!(
                    contrib.len(),
                    acc.len(),
                    "reduce length mismatch from rank {src}"
                );
                for (a, b) in acc.iter_mut().zip(contrib) {
                    *a = T::combine(op, *a, b);
                }
            }
            Some(acc)
        } else {
            self.send(root, tag, vals.to_vec());
            None
        }
    }

    /// Broadcast `data` from `root` to all ranks; every rank returns the
    /// root's payload.
    pub fn bcast<T: Clone + Send + 'static>(&mut self, data: Vec<T>, root: usize) -> Vec<T> {
        let tag = self.next_coll_tag("bcast");
        if self.rank == root {
            for dst in 0..self.size() {
                if dst != root {
                    self.send(dst, tag, data.clone());
                }
            }
            data
        } else {
            self.recv::<T>(root, tag)
        }
    }

    /// Allreduce: every rank gets the element-wise reduction of everyone's
    /// values (deterministic rank-ordered combination).
    pub fn allreduce<T: Reducible + Clone>(&mut self, vals: &[T], op: ReduceOp) -> Vec<T> {
        let reduced = self.reduce(vals, op, 0);
        self.bcast(reduced.unwrap_or_default(), 0)
    }

    /// Scalar convenience wrapper over [`Comm::allreduce`].
    pub fn allreduce_scalar<T: Reducible + Clone>(&mut self, val: T, op: ReduceOp) -> T {
        self.allreduce(&[val], op)[0]
    }

    /// Gather each rank's payload onto `root` (rank-ordered); `None` on
    /// non-roots.
    pub fn gather<T: Send + Clone + 'static>(
        &mut self,
        vals: &[T],
        root: usize,
    ) -> Option<Vec<Vec<T>>> {
        let tag = self.next_coll_tag("gather");
        if self.rank == root {
            let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    out.push(vals.to_vec());
                } else {
                    out.push(self.recv::<T>(src, tag));
                }
            }
            Some(out)
        } else {
            self.send(root, tag, vals.to_vec());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn allreduce_sum() {
        let out = Universe::run(6, |c| c.allreduce_scalar(c.rank() as f64, ReduceOp::Sum));
        for r in out.results {
            assert_eq!(r, 15.0);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = Universe::run(5, |c| {
            let mn = c.allreduce_scalar(c.rank() as i64 - 2, ReduceOp::Min);
            let mx = c.allreduce_scalar(c.rank() as i64 - 2, ReduceOp::Max);
            (mn, mx)
        });
        for (mn, mx) in out.results {
            assert_eq!((mn, mx), (-2, 2));
        }
    }

    #[test]
    fn allreduce_vector_elementwise() {
        let out = Universe::run(3, |c| {
            let v = vec![c.rank() as u64, 10 + c.rank() as u64];
            c.allreduce(&v, ReduceOp::Sum)
        });
        for r in out.results {
            assert_eq!(r, vec![3, 33]);
        }
    }

    #[test]
    fn reduce_only_root_gets_result() {
        let out = Universe::run(4, |c| c.reduce(&[1u32], ReduceOp::Sum, 2));
        for (rank, r) in out.results.into_iter().enumerate() {
            if rank == 2 {
                assert_eq!(r, Some(vec![4]));
            } else {
                assert_eq!(r, None);
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = Universe::run(4, |c| {
            let data = if c.rank() == 3 {
                vec![9.5f32, 1.5]
            } else {
                Vec::new()
            };
            c.bcast(data, 3)
        });
        for r in out.results {
            assert_eq!(r, vec![9.5, 1.5]);
        }
    }

    #[test]
    fn gather_preserves_rank_order() {
        let out = Universe::run(4, |c| c.gather(&[c.rank() as u8], 0));
        assert_eq!(
            out.results[0],
            Some(vec![vec![0u8], vec![1], vec![2], vec![3]])
        );
    }

    #[test]
    fn gather_handles_unequal_lengths() {
        let out = Universe::run(3, |c| {
            let mine: Vec<u32> = (0..c.rank() as u32).collect();
            c.gather(&mine, 0)
        });
        assert_eq!(out.results[0], Some(vec![vec![], vec![0], vec![0, 1]]));
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_match() {
        let out = Universe::run(4, |c| {
            let a = c.allreduce_scalar(1u64, ReduceOp::Sum);
            let b = c.allreduce_scalar(10u64, ReduceOp::Sum);
            let d = c.allreduce_scalar(100u64, ReduceOp::Sum);
            (a, b, d)
        });
        for r in out.results {
            assert_eq!(r, (4, 40, 400));
        }
    }

    #[test]
    fn float_reduction_is_deterministic_across_runs() {
        let run = || {
            Universe::run(7, |c| {
                // values chosen so summation order matters in FP
                let v = 1.0f64 / (c.rank() as f64 + 1.0) * 1e10;
                c.allreduce_scalar(v, ReduceOp::Sum)
            })
            .results[0]
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "rank-ordered reduction must be bitwise stable"
        );
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = Universe::run(1, |c| {
            let s = c.allreduce_scalar(5.0f32, ReduceOp::Sum);
            let g = c.gather(&[1u8, 2], 0);
            (s, g)
        });
        assert_eq!(out.results[0].0, 5.0);
        assert_eq!(out.results[0].1, Some(vec![vec![1, 2]]));
    }
}
