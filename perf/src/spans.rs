//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Kept in memory and written once, when the traced run ends. Parents are
//! passed explicitly because ops run on rank and client threads while the
//! region they belong to was opened on the main thread.

use bwb_trace::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    /// Equal to `start_ns` until the span is closed.
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Byte, message and op counts taken at the same boundary.
    pub counts: Vec<(String, f64)>,
}

pub struct Spans {
    workload: String,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            counts: Vec::new(),
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        self.close_with(id, &[]);
    }

    pub fn close_with(&self, id: usize, counts: &[(&str, f64)]) {
        let end_ns = self.now_ns();
        let mut spans = self.lock();
        spans[id].end_ns = end_ns;
        spans[id]
            .counts
            .extend(counts.iter().map(|(k, v)| (k.to_string(), *v)));
    }

    /// [`Spans::open`] for a caller that records only when traced.
    pub fn open_in(spans: Option<&Spans>, name: &str, parent: Option<usize>) -> Option<usize> {
        spans.map(|s| s.open(name, parent))
    }

    /// [`Spans::close_with`] for a span [`Spans::open_in`] may have opened.
    pub fn close_in(spans: Option<&Spans>, id: Option<usize>, counts: &[(&str, f64)]) {
        if let (Some(s), Some(id)) = (spans, id) {
            s.close_with(id, counts);
        }
    }

    /// Run `f` inside a span on the calling thread.
    pub fn scope<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce(usize) -> R) -> R {
        let id = self.open(name, parent);
        let r = f(id);
        self.close(id);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Per span name: how many, their summed duration and summed self time.
    pub fn rollup(&self) -> BTreeMap<String, (usize, u64, u64)> {
        let spans = self.snapshot();
        let selfs = self_times_ns(&spans);
        let mut out: BTreeMap<String, (usize, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
        }
        out
    }

    pub fn to_json(&self) -> String {
        let spans = self.snapshot();
        let selfs = self_times_ns(&spans);
        let rows = spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                let mut fields = vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("workload".to_string(), Json::Str(self.workload.clone())),
                    ("name".to_string(), Json::Str(s.name.clone())),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ("self_ns".to_string(), Json::Num(self_ns as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ];
                if !s.counts.is_empty() {
                    let counts = s.counts.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
                    fields.push(("counts".to_string(), Json::Obj(counts.collect())));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![("spans".to_string(), Json::Arr(rows))]).to_string()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children of one parent may overlap (two client
/// threads under one region), so their intervals are merged first.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push(clipped);
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tree = vec![
            span("run", 0, 1000, None),
            span("region", 100, 900, Some(0)),
            // Two clients under one region, overlapping on [300, 400].
            span("op", 200, 400, Some(1)),
            span("op", 300, 600, Some(1)),
            // A grandchild does not count against its grandparent.
            span("layer", 310, 350, Some(3)),
            // A child that outlives its parent is clipped to it.
            span("op", 850, 950, Some(1)),
        ];
        let selfs = self_times_ns(&tree);
        assert_eq!(selfs[0], 1000 - 800);
        assert_eq!(selfs[1], 800 - (400 + 50));
        assert_eq!(selfs[2], 200);
        assert_eq!(selfs[3], 300 - 40);
        assert_eq!(selfs[4], 40);
        assert_eq!(selfs[5], 100);
    }

    #[test]
    fn recorder_round_trips_through_json() {
        let spans = Spans::new("w");
        let root = spans.open("run", None);
        spans.scope("op", Some(root), |_| {});
        spans.close_with(root, &[("bytes", 64.0)]);
        let doc = bwb_trace::json::parse(&spans.to_json()).unwrap();
        let rows = doc.get("spans").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(rows[0].get("workload").and_then(Json::as_str), Some("w"));
        let counts = rows[0].get("counts").unwrap();
        assert_eq!(counts.get("bytes").and_then(Json::as_f64), Some(64.0));
        assert_eq!(spans.rollup()["op"].0, 1);
    }
}
