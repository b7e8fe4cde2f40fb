//! The violation vocabulary shared by all three analyzers, with its JSON
//! rendering (three flat fields).

use bwb_trace::json::{obj, Json};
use std::fmt;

/// One confirmed contract violation, attributed to an app (or chain).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    pub app: String,
    pub kind: Kind,
}

/// What went wrong. Each variant corresponds to one rule of one analyzer;
/// the field names mirror the quantities the rule compares.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A recorded loop has no declared contract of matching arity.
    UndeclaredLoop {
        loop_name: String,
        outs: usize,
        ins: usize,
    },
    /// A kernel read an input at an offset outside its declared stencil.
    UndeclaredOffset {
        loop_name: String,
        arg: String,
        offset: (isize, isize, isize),
    },
    /// An output was accessed in a way its declared mode does not allow.
    AccessModeViolation {
        loop_name: String,
        arg: String,
        declared: String,
        observed: String,
    },
    /// A declared input stencil reaches beyond the dataset's halo ring.
    StencilExceedsHalo {
        loop_name: String,
        arg: String,
        radius: isize,
        halo: isize,
    },
    /// A chained loop's declared skew reach is smaller than the reach its
    /// kernel actually reads — tiled execution would read stale rows.
    InsufficientSkewReach {
        loop_name: String,
        declared_reach: isize,
        inferred_reach: isize,
    },
    /// A chained loop both reads and writes the same field — skewed tiling
    /// cannot order an in-place stencil.
    InPlaceStencil { loop_name: String, field: String },
    /// A decomposed dat was exchanged at a depth smaller than the stencil
    /// radius some loop reads it with.
    HaloDepthTooShallow {
        dat: String,
        exchanged_depth: usize,
        required_radius: isize,
    },
    /// Elements of two distinct same-color blocks (of two same-color
    /// elements, under element coloring) write the same indirect target —
    /// the colored schedule would race.
    SameColorConflict {
        loop_name: String,
        dat: String,
        target: usize,
        color: u32,
        src_a: usize,
        src_b: usize,
    },
    /// Two elements overwrite (not increment) the same indirect target —
    /// the result depends on execution order even across colors.
    IndirectWriteOverlap {
        loop_name: String,
        dat: String,
        target: usize,
        src_a: usize,
        src_b: usize,
    },
    /// A loop declared direct touched an element other than its own.
    DirectWriteNotOwn {
        loop_name: String,
        dat: String,
        src: usize,
        target: usize,
    },
    /// A field fully written by one loop and fully rewritten by a later
    /// loop with no intervening read — the first write is pure wasted
    /// (write-allocate) traffic.
    DeadStore {
        dat: String,
        first_loop: String,
        first_at: usize,
        second_loop: String,
        second_at: usize,
    },
    /// A halo exchange whose ghost content was already valid to at least
    /// the exchanged depth (no write since an equal-or-deeper exchange) —
    /// pure wasted communication.
    RedundantExchange {
        dat: String,
        depth: usize,
        at: usize,
        prior_depth: usize,
    },
    /// A loop read an exchanged dat at a radius deeper than the halo
    /// validity accumulated at that point of the program — the whole-chain
    /// generalization of [`Kind::HaloDepthTooShallow`].
    StaleHaloRead {
        dat: String,
        loop_name: String,
        at: usize,
        required_radius: isize,
        valid_depth: isize,
    },
    /// A claimed loop fusion is illegal: the pair is not adjacent over the
    /// same iteration space, or a shared field crosses it at nonzero
    /// stencil radius (fused execution would read half-updated points).
    IllegalFusion {
        first_loop: String,
        second_loop: String,
        reason: String,
    },
    /// An output claimed safe for non-temporal (streaming) stores is not:
    /// it is re-read within the cache-residency window, read back in-loop,
    /// or does not fully overwrite its dataset.
    StreamingStoreUnsafe {
        loop_name: String,
        dat: String,
        reason: String,
    },
    /// `count` messages from `src` to `dest` with `tag` were never
    /// received — envelopes left in the destination mailbox at teardown.
    UnmatchedSend {
        src: usize,
        dest: usize,
        tag: u32,
        count: usize,
        /// Dat/phase attribution of the first unmatched send (empty when
        /// the send carried no context).
        dat: String,
    },
    /// `count` receives posted at `rank` have no possible sender: fewer
    /// matching sends exist in the whole run than receives consuming them.
    OrphanRecv {
        rank: usize,
        source: usize,
        tag: u32,
        count: usize,
    },
    /// Replay reached a state where the listed ranks block on each other
    /// in a cycle (each waits for a message or barrier arrival the next
    /// can never provide).
    CommDeadlock { cycle: Vec<usize> },
    /// Two ranks called `barrier()` a different number of times — some
    /// rank blocks forever in the last barrier.
    BarrierMismatch {
        rank_a: usize,
        count_a: usize,
        rank_b: usize,
        count_b: usize,
    },
    /// Two ranks invoked collectives in divergent order at position `at`
    /// of their collective sequences — the tag discipline would
    /// cross-match different collectives.
    CollectiveOrderDivergence {
        at: usize,
        rank_a: usize,
        kind_a: String,
        rank_b: usize,
        kind_b: String,
    },
    /// Within one communication phase, the heaviest participant sends more
    /// than twice the bytes of the lightest — the exchange serializes on
    /// the slowest rank.
    CommImbalance {
        phase: String,
        max_rank: usize,
        max_bytes: u64,
        min_rank: usize,
        min_bytes: u64,
    },
    /// A send in the rank-parametric schedule template has no dual
    /// receive for some rank count in the declared family; `min_n` is the
    /// smallest world size where the unmatched send fires (a concrete
    /// replay below `min_n` never sees it).
    SymbolicUnmatchedSend {
        from: usize,
        to: usize,
        tag: u32,
        min_n: usize,
    },
    /// The parametric template contains a phase whose blocking receives
    /// precede their dual sends around a cycle — the schedule deadlocks
    /// at every world size of at least `min_n` (and completes below it,
    /// where the guard keeps the phase inert).
    ParametricDeadlock {
        rank_a: usize,
        rank_b: usize,
        tag: u32,
        min_n: usize,
    },
    /// At world size `at_n` (the smallest in the declared family), two
    /// in-flight messages of one phase share (source, dest, tag) — the
    /// match degenerates to program-order coupling instead of the tag
    /// discipline (typically a wraparound rank in a periodic topology).
    TagCollision { tag: u32, at_n: usize },
    /// The concrete logs could not be lifted to one rank-parametric
    /// template (per-rank schedules diverge, or a re-lift at a sampled
    /// rank count disagreed with the certified template).
    TemplateDivergence { detail: String },
    /// A recorded run parts from the stream its declared chain
    /// instantiates: the first loop, argument or exchange where the two
    /// differ. Everything certified from the declaration rests on the two
    /// being equal.
    ChainDivergence {
        /// Loop ordinal of the difference (for an exchange: the loops
        /// completed before it).
        at: usize,
        /// Which field differs, e.g. `loop 'pdv' in 2 'pressure' elem_bytes`.
        what: String,
        declared: String,
        recorded: String,
    },
    /// The declared chain itself is malformed: a loop shape stated with
    /// two contracts, an unbound parameter, an out-of-range dat slot, or
    /// inconsistent geometry — static analysis refuses to
    /// certify anything from it.
    UnderspecifiedChain { detail: String },
    /// The static per-link byte flow derived from an app's communication
    /// model (or claimed by a [`crate::placecheck::PlacementPlan`])
    /// disagrees with the recomputed / recorded flow on one link class —
    /// the placement certificate cannot be trusted.
    PlacementFlowDivergence {
        app: String,
        ranks: usize,
        /// Link class ("hyperthread", "same-numa", "cross-numa",
        /// "cross-socket").
        link: String,
        expected_bytes: u64,
        observed_bytes: u64,
    },
    /// A `PlacementPlan` claims a best placement, but another candidate in
    /// its own enumerated space prices strictly cheaper under the machine's
    /// latency model — the dominance proof is false.
    DominatedPlacement {
        app: String,
        ranks: usize,
        claimed: String,
        /// Costs in integer nanoseconds (rounded) so violations stay
        /// totally ordered.
        claimed_cost_ns: u64,
        better: String,
        better_cost_ns: u64,
    },
}

impl Kind {
    /// Short machine-readable tag (stable across message wording changes).
    pub fn tag(&self) -> &'static str {
        match self {
            Kind::UndeclaredLoop { .. } => "undeclared_loop",
            Kind::UndeclaredOffset { .. } => "undeclared_offset",
            Kind::AccessModeViolation { .. } => "access_mode_violation",
            Kind::StencilExceedsHalo { .. } => "stencil_exceeds_halo",
            Kind::InsufficientSkewReach { .. } => "insufficient_skew_reach",
            Kind::InPlaceStencil { .. } => "in_place_stencil",
            Kind::HaloDepthTooShallow { .. } => "halo_depth_too_shallow",
            Kind::SameColorConflict { .. } => "same_color_conflict",
            Kind::IndirectWriteOverlap { .. } => "indirect_write_overlap",
            Kind::DirectWriteNotOwn { .. } => "direct_write_not_own",
            Kind::DeadStore { .. } => "dead_store",
            Kind::RedundantExchange { .. } => "redundant_exchange",
            Kind::StaleHaloRead { .. } => "stale_halo_read",
            Kind::IllegalFusion { .. } => "illegal_fusion",
            Kind::StreamingStoreUnsafe { .. } => "streaming_store_unsafe",
            Kind::UnmatchedSend { .. } => "unmatched_send",
            Kind::OrphanRecv { .. } => "orphan_recv",
            Kind::CommDeadlock { .. } => "comm_deadlock",
            Kind::BarrierMismatch { .. } => "barrier_mismatch",
            Kind::CollectiveOrderDivergence { .. } => "collective_order_divergence",
            Kind::CommImbalance { .. } => "comm_imbalance",
            Kind::SymbolicUnmatchedSend { .. } => "symbolic_unmatched_send",
            Kind::ParametricDeadlock { .. } => "parametric_deadlock",
            Kind::TagCollision { .. } => "tag_collision",
            Kind::TemplateDivergence { .. } => "template_divergence",
            Kind::ChainDivergence { .. } => "chain_divergence",
            Kind::UnderspecifiedChain { .. } => "underspecified_chain",
            Kind::PlacementFlowDivergence { .. } => "placement_flow_divergence",
            Kind::DominatedPlacement { .. } => "dominated_placement",
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::UndeclaredLoop {
                loop_name,
                outs,
                ins,
            } => write!(
                f,
                "loop '{loop_name}' ({outs} outs, {ins} ins) has no declared contract"
            ),
            Kind::UndeclaredOffset {
                loop_name,
                arg,
                offset: (di, dj, dk),
            } => write!(
                f,
                "loop '{loop_name}' reads input '{arg}' at undeclared offset ({di},{dj},{dk})"
            ),
            Kind::AccessModeViolation {
                loop_name,
                arg,
                declared,
                observed,
            } => write!(
                f,
                "loop '{loop_name}' output '{arg}' declared {declared} but observed {observed}"
            ),
            Kind::StencilExceedsHalo {
                loop_name,
                arg,
                radius,
                halo,
            } => write!(
                f,
                "loop '{loop_name}' input '{arg}' declares stencil radius {radius} \
                 but the dataset's halo is {halo}"
            ),
            Kind::InsufficientSkewReach {
                loop_name,
                declared_reach,
                inferred_reach,
            } => write!(
                f,
                "chained loop '{loop_name}' declares skew reach {declared_reach} \
                 but its kernel reads reach {inferred_reach}"
            ),
            Kind::InPlaceStencil { loop_name, field } => write!(
                f,
                "chained loop '{loop_name}' reads and writes field '{field}' in place"
            ),
            Kind::HaloDepthTooShallow {
                dat,
                exchanged_depth,
                required_radius,
            } => write!(
                f,
                "dat '{dat}' exchanged at depth {exchanged_depth} \
                 but read with stencil radius {required_radius}"
            ),
            Kind::SameColorConflict {
                loop_name,
                dat,
                target,
                color,
                src_a,
                src_b,
            } => write!(
                f,
                "loop '{loop_name}': elements {src_a} and {src_b} share color {color} \
                 and both write '{dat}'[{target}]"
            ),
            Kind::IndirectWriteOverlap {
                loop_name,
                dat,
                target,
                src_a,
                src_b,
            } => write!(
                f,
                "loop '{loop_name}': elements {src_a} and {src_b} both overwrite \
                 '{dat}'[{target}] indirectly (order-dependent)"
            ),
            Kind::DirectWriteNotOwn {
                loop_name,
                dat,
                src,
                target,
            } => write!(
                f,
                "direct loop '{loop_name}': element {src} accesses '{dat}'[{target}] \
                 instead of its own entry"
            ),
            Kind::DeadStore {
                dat,
                first_loop,
                first_at,
                second_loop,
                second_at,
            } => write!(
                f,
                "dat '{dat}' fully written by loop '{first_loop}' (#{first_at}) and \
                 rewritten by '{second_loop}' (#{second_at}) with no intervening read"
            ),
            Kind::RedundantExchange {
                dat,
                depth,
                at,
                prior_depth,
            } => write!(
                f,
                "exchange of '{dat}' at depth {depth} (after loop #{at}) is redundant: \
                 halo already valid to depth {prior_depth} with no write since"
            ),
            Kind::StaleHaloRead {
                dat,
                loop_name,
                at,
                required_radius,
                valid_depth,
            } => write!(
                f,
                "loop '{loop_name}' (#{at}) reads '{dat}' at radius {required_radius} \
                 but its halo is only valid to depth {valid_depth} at that point"
            ),
            Kind::IllegalFusion {
                first_loop,
                second_loop,
                reason,
            } => write!(
                f,
                "fusing '{first_loop}' with '{second_loop}' is illegal: {reason}"
            ),
            Kind::StreamingStoreUnsafe {
                loop_name,
                dat,
                reason,
            } => write!(
                f,
                "loop '{loop_name}' output '{dat}' is not streaming-store safe: {reason}"
            ),
            Kind::UnmatchedSend {
                src,
                dest,
                tag,
                count,
                dat,
            } => {
                write!(
                    f,
                    "{count} send(s) {src} -> {dest} tag {tag:#x} never received"
                )?;
                if !dat.is_empty() {
                    write!(f, " (dat '{dat}')")?;
                }
                Ok(())
            }
            Kind::OrphanRecv {
                rank,
                source,
                tag,
                count,
            } => write!(
                f,
                "{count} receive(s) at rank {rank} from {source} tag {tag:#x} \
                 have no possible sender"
            ),
            Kind::CommDeadlock { cycle } => {
                write!(f, "ranks ")?;
                for (i, r) in cycle.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{r}")?;
                }
                write!(f, " block on each other in a cycle (deadlock)")
            }
            Kind::BarrierMismatch {
                rank_a,
                count_a,
                rank_b,
                count_b,
            } => write!(
                f,
                "rank {rank_a} calls barrier() {count_a} time(s) but rank {rank_b} \
                 calls it {count_b} time(s)"
            ),
            Kind::CollectiveOrderDivergence {
                at,
                rank_a,
                kind_a,
                rank_b,
                kind_b,
            } => write!(
                f,
                "collective #{at} diverges: rank {rank_a} calls '{kind_a}' but \
                 rank {rank_b} calls '{kind_b}'"
            ),
            Kind::CommImbalance {
                phase,
                max_rank,
                max_bytes,
                min_rank,
                min_bytes,
            } => write!(
                f,
                "phase '{phase}': rank {max_rank} sends {max_bytes} B but rank \
                 {min_rank} only {min_bytes} B (>2x skew)"
            ),
            Kind::SymbolicUnmatchedSend {
                from,
                to,
                tag,
                min_n,
            } => write!(
                f,
                "symbolic send {from} -> {to} tag {tag:#x} has no dual receive \
                 for any world size N >= {min_n}"
            ),
            Kind::ParametricDeadlock {
                rank_a,
                rank_b,
                tag,
                min_n,
            } => write!(
                f,
                "ranks {rank_a} and {rank_b} block on each other's tag {tag:#x} \
                 sends before posting them: deadlock at every N >= {min_n}"
            ),
            Kind::TagCollision { tag, at_n } => write!(
                f,
                "two in-flight messages share (source, dest, tag {tag:#x}) within \
                 one phase at world size N = {at_n} (wraparound collision)"
            ),
            Kind::TemplateDivergence { detail } => {
                write!(f, "cannot lift a rank-parametric template: {detail}")
            }
            Kind::ChainDivergence {
                at,
                what,
                declared,
                recorded,
            } => write!(
                f,
                "recorded run diverges from the declared chain at loop #{at}: \
                 {what} declared {declared}, recorded {recorded}"
            ),
            Kind::UnderspecifiedChain { detail } => {
                write!(f, "declared chain is underspecified: {detail}")
            }
            Kind::PlacementFlowDivergence {
                app,
                ranks,
                link,
                expected_bytes,
                observed_bytes,
            } => write!(
                f,
                "{app} at {ranks} ranks: {link} link carries {observed_bytes} B \
                 but the static flow model says {expected_bytes} B"
            ),
            Kind::DominatedPlacement {
                app,
                ranks,
                claimed,
                claimed_cost_ns,
                better,
                better_cost_ns,
            } => write!(
                f,
                "{app} at {ranks} ranks: claimed best placement '{claimed}' \
                 ({claimed_cost_ns} ns) is dominated by '{better}' \
                 ({better_cost_ns} ns)"
            ),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.tag(), self.app, self.kind)
    }
}

impl Violation {
    /// One JSON object: `{"app": ..., "kind": ..., "message": ...}`.
    pub fn to_json(&self) -> Json {
        obj([
            ("app", self.app.as_str().into()),
            ("kind", self.kind.tag().into()),
            ("message", self.kind.to_string().into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_escapes_and_tags() {
        let v = Violation {
            app: "demo".into(),
            kind: Kind::UndeclaredOffset {
                loop_name: "k\"1".into(),
                arg: "u".into(),
                offset: (0, -3, 0),
            },
        };
        let j = v.to_json().to_string();
        assert!(j.starts_with("{\"app\":\"demo\",\"kind\":\"undeclared_offset\""));
        assert!(j.contains("k\\\"1"));
        assert!(v.to_string().contains("(0,-3,0)"));
    }
}
