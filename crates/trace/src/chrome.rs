//! Chrome `trace_event` JSON export (the "JSON Object Format" with a
//! `traceEvents` array), loadable in Perfetto / `chrome://tracing`.
//!
//! Each event is a small [`Json`] value whose text is appended to the
//! output as it is built, so a long trace is never held as one tree;
//! the schema tests round-trip the result through [`crate::json`].
//!
//! Span pairs become `"ph":"X"` complete events; counters become `"C"`;
//! instants `"i"`. Loop spans carry `bytes`, `flops`, `points`, the
//! achieved `bw_gbs`, and — when a [`Roofline`] is supplied —
//! `bw_pct_of_roofline`, so an exported trace directly answers the paper's
//! Figure 8 question per kernel invocation.

use crate::json::{obj, Json};
use crate::record::{Cat, Kind, Trace};
use bwb_machine::Roofline;
use std::fmt::Write as _;

/// Export options.
#[derive(Debug, Clone, Default)]
pub struct ChromeOptions {
    /// Annotate loop spans with `bw_pct_of_roofline` against this roofline.
    pub roofline: Option<Roofline>,
}

/// Microseconds (Chrome's `ts`/`dur` unit) from nanoseconds.
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1e3)
}

/// An event's `args`: its three recorded values under the names its
/// category gives them, and for a loop span the achieved bandwidth.
fn args_json(cat: Cat, kind: Kind, args: [f64; 3], dur_ns: u64, roof: Option<&Roofline>) -> Json {
    let loop_end = (cat, kind) == (Cat::Loop, Kind::End);
    let names: &[&str] = match (cat, kind) {
        (Cat::Loop, Kind::End) => &["bytes", "flops", "points"],
        (Cat::Halo, Kind::End) => &["dim", "depth", "bytes"],
        (Cat::Mpi, _) => &["peer", "bytes", "tag"],
        (Cat::Tile, Kind::End) => &["tile", "j0", "j1"],
        (Cat::Color, Kind::End) => &["color", "elements"],
        (Cat::App, Kind::End) => &["iteration"],
        _ => &["a0", "a1", "a2"],
    };
    let mut fields: Vec<(&str, Json)> = names
        .iter()
        .zip(args)
        .map(|(&k, v)| (k, v.into()))
        .collect();
    let gbs = args[0] / (dur_ns as f64 * 1e-9) / 1e9;
    if loop_end && dur_ns > 0 && gbs.is_finite() {
        fields.push(("bw_gbs", gbs.into()));
        if let Some(r) = roof.filter(|r| r.peak_gbs > 0.0) {
            fields.push(("bw_pct_of_roofline", (gbs / r.peak_gbs * 100.0).into()));
        }
    }
    obj(fields)
}

/// Render the whole trace as Chrome trace_event JSON.
pub fn to_chrome_json(trace: &Trace, opts: &ChromeOptions) -> String {
    let roof = opts.roofline.as_ref();
    let mut out = String::from(r#"{"displayTimeUnit":"ns","traceEvents":["#);
    let mut emit = |event: Json| {
        if !out.ends_with('[') {
            out.push(',');
        }
        let _ = write!(out, "{event}");
    };

    // Metadata: name ranks (pids) and threads so Perfetto labels lanes.
    let meta = |name: &str, pid: usize, tid: usize, label: Json| {
        obj([
            ("ph", "M".into()),
            ("name", name.into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("ts", 0u64.into()),
            ("args", obj([("name", label)])),
        ])
    };
    let mut pids: Vec<usize> = trace.threads.iter().map(|t| t.pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in pids {
        emit(meta("process_name", pid, 0, format!("rank {pid}").into()));
    }
    for t in &trace.threads {
        emit(meta("thread_name", t.pid, t.tid, t.label.as_str().into()));
    }

    for t in &trace.threads {
        // Stack pairing mirrors `tree::build_forest`, but emits "X" events
        // in place so malformed tails degrade gracefully (skipped).
        let mut stack: Vec<(u32, u64)> = Vec::new();
        for e in &t.events {
            let (ph, timing, args) = match e.kind {
                Kind::Begin => {
                    stack.push((e.name, e.ts_ns));
                    continue;
                }
                Kind::End => {
                    let Some((open, start)) = stack.pop() else {
                        continue;
                    };
                    if open != e.name {
                        stack.clear();
                        continue;
                    }
                    let dur = e.ts_ns.saturating_sub(start);
                    let args = args_json(e.cat, Kind::End, e.args, dur, roof);
                    ("X", vec![("ts", us(start)), ("dur", us(dur))], args)
                }
                Kind::Counter => {
                    let args = obj([("value", e.args[0].into())]);
                    ("C", vec![("ts", us(e.ts_ns))], args)
                }
                Kind::Instant => {
                    let args = args_json(e.cat, Kind::Instant, e.args, 0, roof);
                    ("i", vec![("ts", us(e.ts_ns)), ("s", "t".into())], args)
                }
            };
            let mut event = vec![
                ("ph", ph.into()),
                ("name", trace.name(e.name).into()),
                ("cat", e.cat.label().into()),
            ];
            event.extend(timing);
            event.extend([("pid", t.pid.into()), ("tid", t.tid.into()), ("args", args)]);
            emit(obj(event));
        }
    }

    out.push_str("]}");
    out
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
        let doc = json::parse(&out).expect("exporter output parses as JSON");
        assert!(!out.contains("NaN") && !out.contains("inf"));
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let args = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .and_then(|x| x.get("args"))
            .unwrap();
        assert_eq!(args.get("bytes"), Some(&Json::Null));
        assert_eq!(args.get("flops"), Some(&Json::Null));
        assert!(args.get("bw_gbs").is_none());
    }
}
