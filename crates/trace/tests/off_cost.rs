//! The tracing-off gate: a disabled emission entry point is one relaxed
//! atomic load, so a million disabled `span` + `set_args` calls must
//! average under 250 ns each. The budget is two orders of magnitude above
//! the expected cost; only a real regression (an allocation, a lock, a
//! thread-local initialised per call) trips it.
//!
//! This file is its own test binary so that no concurrently running test
//! can switch tracing on underneath the measurement. The cost with tracing
//! on is the benchmark's `trace.on_overhead_frac` metric.

use bwb_trace::{enabled, span, Cat};
use std::hint::black_box;
use std::time::Instant;

#[test]
#[cfg_attr(miri, ignore)]
fn disabled_span_is_free() {
    assert!(!enabled(), "tracing must start off");
    const CALLS: u32 = 1_000_000;
    let t0 = Instant::now();
    for i in 0..CALLS {
        let mut s = span(Cat::Loop, "disabled_probe");
        s.set_args(black_box(i as f64), 0.0, 0.0);
    }
    let ns_per_call = t0.elapsed().as_nanos() as f64 / CALLS as f64;
    assert!(
        ns_per_call < 250.0,
        "disabled span costs {ns_per_call:.1} ns/call (budget 250 ns) — \
         the tracing-off path is no longer free"
    );
}
