//! Chrome `trace_event` JSON export (the "JSON Object Format" with a
//! `traceEvents` array), loadable in Perfetto / `chrome://tracing`.
//!
//! Hand-written emission: the workspace has no serialization library, so —
//! like the `analyze` CLI — the exporter formats JSON directly and the
//! schema tests round-trip it through [`crate::json`].
//!
//! Span pairs become `"ph":"X"` complete events; counters become `"C"`;
//! instants `"i"`. Loop spans carry `bytes`, `flops`, `points`, the
//! achieved `bw_gbs`, and — when a [`Roofline`] is supplied —
//! `bw_pct_of_roofline`, so an exported trace directly answers the paper's
//! Figure 8 question per kernel invocation.

use crate::json::escape;
use crate::record::{Cat, Kind, Trace};
use bwb_machine::Roofline;
use std::fmt::Write as _;

/// Export options.
#[derive(Debug, Clone, Default)]
pub struct ChromeOptions {
    /// Annotate loop spans with `bw_pct_of_roofline` against this roofline.
    pub roofline: Option<Roofline>,
}

/// Format an f64 as a JSON number (never NaN/inf, which JSON forbids).
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Microseconds (Chrome's `ts`/`dur` unit) from nanoseconds.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

fn args_json(cat: Cat, kind: Kind, args: [f64; 3], dur_ns: u64, roof: Option<&Roofline>) -> String {
    let [a0, a1, a2] = args;
    match (cat, kind) {
        (Cat::Loop, Kind::End) => {
            let mut s = format!(
                "{{\"bytes\":{},\"flops\":{},\"points\":{}",
                num(a0),
                num(a1),
                num(a2)
            );
            if dur_ns > 0 {
                let gbs = a0 / (dur_ns as f64 * 1e-9) / 1e9;
                if gbs.is_finite() {
                    let _ = write!(s, ",\"bw_gbs\":{:.3}", gbs);
                    if let Some(r) = roof {
                        if r.peak_gbs > 0.0 {
                            let _ = write!(
                                s,
                                ",\"bw_pct_of_roofline\":{:.2}",
                                gbs / r.peak_gbs * 100.0
                            );
                        }
                    }
                }
            }
            s.push('}');
            s
        }
        (Cat::Halo, Kind::End) => format!(
            "{{\"dim\":{},\"depth\":{},\"bytes\":{}}}",
            num(a0),
            num(a1),
            num(a2)
        ),
        (Cat::Mpi, _) => format!(
            "{{\"peer\":{},\"bytes\":{},\"tag\":{}}}",
            num(a0),
            num(a1),
            num(a2)
        ),
        (Cat::Tile, Kind::End) => format!(
            "{{\"tile\":{},\"j0\":{},\"j1\":{}}}",
            num(a0),
            num(a1),
            num(a2)
        ),
        (Cat::Color, Kind::End) => format!("{{\"color\":{},\"elements\":{}}}", num(a0), num(a1)),
        (Cat::App, Kind::End) => format!("{{\"iteration\":{}}}", num(a0)),
        _ => format!(
            "{{\"a0\":{},\"a1\":{},\"a2\":{}}}",
            num(a0),
            num(a1),
            num(a2)
        ),
    }
}

/// Render the whole trace as Chrome trace_event JSON.
pub fn to_chrome_json(trace: &Trace, opts: &ChromeOptions) -> String {
    let roof = opts.roofline.as_ref();
    let mut events: Vec<String> = Vec::new();

    // Metadata: name ranks (pids) and threads so Perfetto labels lanes.
    let mut pids: Vec<usize> = trace.threads.iter().map(|t| t.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"ts\":0,\
             \"args\":{{\"name\":\"rank {pid}\"}}}}"
        ));
    }
    for t in &trace.threads {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\"ts\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            t.pid,
            t.tid,
            escape(&t.label)
        ));
    }

    for t in &trace.threads {
        // Stack pairing mirrors `tree::build_forest`, but emits "X" events
        // in place so malformed tails degrade gracefully (skipped).
        let mut stack: Vec<(u32, u64)> = Vec::new();
        for e in &t.events {
            let name = escape(trace.name(e.name));
            match e.kind {
                Kind::Begin => stack.push((e.name, e.ts_ns)),
                Kind::End => {
                    let Some((open, start)) = stack.pop() else {
                        continue;
                    };
                    if open != e.name {
                        stack.clear();
                        continue;
                    }
                    let dur = e.ts_ns.saturating_sub(start);
                    events.push(format!(
                        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{}}}",
                        name,
                        e.cat.label(),
                        us(start),
                        us(dur),
                        t.pid,
                        t.tid,
                        args_json(e.cat, Kind::End, e.args, dur, roof)
                    ));
                }
                Kind::Counter => events.push(format!(
                    "{{\"ph\":\"C\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    name,
                    e.cat.label(),
                    us(e.ts_ns),
                    t.pid,
                    t.tid,
                    num(e.args[0])
                )),
                Kind::Instant => events.push(format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"s\":\"t\",\
                     \"pid\":{},\"tid\":{},\"args\":{}}}",
                    name,
                    e.cat.label(),
                    us(e.ts_ns),
                    t.pid,
                    t.tid,
                    args_json(e.cat, Kind::Instant, e.args, 0, roof)
                )),
            }
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::record::{Event, ThreadTrace};

    fn demo_trace() -> Trace {
        let mk = |ts, name, cat, kind, args| Event {
            ts_ns: ts,
            name,
            cat,
            kind,
            args,
        };
        Trace {
            names: vec!["advec \"x\"".into(), "wait".into(), "q".into()],
            threads: vec![ThreadTrace {
                pid: 1,
                tid: 4,
                label: "rank 1".into(),
                dropped: 0,
                events: vec![
                    mk(1_000, 0, Cat::Loop, Kind::Begin, [0.0; 3]),
                    mk(2_000, 0, Cat::Loop, Kind::End, [4000.0, 100.0, 16.0]),
                    mk(2_500, 1, Cat::Mpi, Kind::Instant, [3.0, 64.0, 9.0]),
                    mk(3_000, 2, Cat::Other, Kind::Counter, [7.5, 0.0, 0.0]),
                ],
            }],
        }
    }

    #[test]
    fn emits_parseable_chrome_json_with_roofline_args() {
        let roof = Roofline {
            peak_gflops: 1000.0,
            peak_gbs: 8.0,
        };
        let out = to_chrome_json(
            &demo_trace(),
            &ChromeOptions {
                roofline: Some(roof),
            },
        );
        let v = json::parse(&out).expect("exporter output parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 1 process meta + 1 thread meta + X + i + C.
        assert_eq!(events.len(), 5);
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("complete event");
        assert_eq!(x.get("name").unwrap().as_str().unwrap(), "advec \"x\"");
        assert_eq!(x.get("dur").unwrap().as_f64().unwrap(), 1.0); // 1 µs
        let args = x.get("args").unwrap();
        assert_eq!(args.get("bytes").unwrap().as_f64().unwrap(), 4000.0);
        assert_eq!(args.get("flops").unwrap().as_f64().unwrap(), 100.0);
        // 4000 B / 1 µs = 4 GB/s = 50 % of the 8 GB/s roof.
        assert!((args.get("bw_gbs").unwrap().as_f64().unwrap() - 4.0).abs() < 1e-9);
        assert!((args.get("bw_pct_of_roofline").unwrap().as_f64().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn nonfinite_args_stay_valid_json() {
        let mut t = demo_trace();
        t.threads[0].events[1].args = [f64::NAN, f64::INFINITY, 1.0];
        let out = to_chrome_json(&t, &ChromeOptions::default());
        assert!(json::parse(&out).is_ok());
        assert!(!out.contains("NaN") && !out.contains("inf"));
    }
}
