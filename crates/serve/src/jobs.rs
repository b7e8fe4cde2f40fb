//! Job specs: the wire-level request shapes and their execution.
//!
//! A job arrives as a JSON object with a `kind` discriminant:
//!
//! * `{"kind":"benchmark","app":"acoustic","n":32,"iterations":10,
//!    "ranks":1,"parallel":false,"plan":{...},"placement":"packed"}` — run
//!   one app; `ranks > 1` routes through the sharded pinned-universe pool;
//!   the optional `plan` is a `dslcheck` optimization-plan document (as
//!   exported by an `analyze` job) threaded into the app's config, and
//!   refused for an app whose app-table row does not `takes_plan`; the
//!   optional `placement` pins a ranked run's shard policy
//!   (`one-per-numa` | `packed`) — omitted, the pool runs placecheck's
//!   certified policy for that app/rank count.
//! * `{"kind":"trace","app":"cloverleaf2d","n":24,"iterations":5}` — run
//!   under the tracer; the Perfetto (Chrome `trace_event`) export is
//!   retrievable at `/trace/<job id>`.
//! * `{"kind":"figure","figure":8}` — reproduce a paper figure (3–9).
//! * `{"kind":"analyze","app":"acoustic"}` — whole-chain dataflow report
//!   and certified optimization plan for one registered app. Apps with a
//!   declared chain get the report of `dslcheck::speccheck`'s
//!   execution-free analysis of it (`"source":"static"` in the payload; no
//!   worker executes a recording pass); the others get their limited
//!   report (`"source":"recorded"`).
//!
//! Every job renders a [`KeyMaterial`] — the cache address of its result.

use crate::key::{CacheKey, KeyMaterial};
use crate::shard::ShardPool;
use bwb_apps::jobspec::{BenchOutcome, BenchSpec};
use bwb_apps::AppId;
use bwb_dslcheck::registry;
use bwb_machine::ShardPolicy;
use bwb_ops::OptPlan;
use bwb_perfmodel::figures;
use bwb_trace::json::{obj, Json};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A parsed, validated job.
#[derive(Debug, Clone)]
pub enum Job {
    Benchmark {
        spec: BenchSpec,
        /// The plan the run applies; its `to_json` text is part of the
        /// cache key.
        plan: Option<OptPlan>,
        /// Explicit shard placement for ranked runs. `None` defers to
        /// placecheck's certified policy (see [`ShardPool::run_ranked`]).
        placement: Option<ShardPolicy>,
    },
    Trace {
        spec: BenchSpec,
    },
    Figure {
        figure: u8,
    },
    Analyze {
        app: String,
    },
    /// A job whose execution panics — `inside` a traced run (`"trace"`),
    /// a ranked run on the next packed shard (`"shard"`), or on its own:
    /// what the server's unwind handling is tested against.
    #[cfg(test)]
    Panic {
        inside: String,
    },
}

fn get_usize(body: &Json, key: &str, default: usize) -> Result<usize, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn parse_bench_spec(body: &Json) -> Result<BenchSpec, String> {
    let slug = body
        .get("app")
        .and_then(Json::as_str)
        .ok_or("missing field 'app'")?;
    let app = AppId::from_slug(slug).ok_or_else(|| {
        format!(
            "unknown app '{slug}' (known: {})",
            AppId::ALL.map(|a| a.slug()).join(", ")
        )
    })?;
    let defaults = BenchSpec::small(app);
    let spec = BenchSpec {
        app,
        n: get_usize(body, "n", defaults.n)?,
        iterations: get_usize(body, "iterations", defaults.iterations)?,
        ranks: get_usize(body, "ranks", 1)?,
        parallel: matches!(body.get("parallel"), Some(Json::Bool(true))),
    };
    spec.validate()?;
    Ok(spec)
}

impl Job {
    /// Parse a request body. Errors are client-facing (HTTP 400).
    pub fn parse(body: &Json) -> Result<Job, String> {
        let kind = body
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing field 'kind'")?;
        match kind {
            "benchmark" => {
                let spec = parse_bench_spec(body)?;
                let plan = match body.get("plan") {
                    None | Some(Json::Null) => None,
                    // Through OptPlan: rejects malformed plans, and its
                    // rendering is the canonical one the cache key uses.
                    Some(p) => Some(
                        OptPlan::from_json(&p.to_string())
                            .map_err(|e| format!("invalid plan: {e}"))?,
                    ),
                };
                if plan.is_some() && spec.ranks > 1 {
                    return Err("plans apply to in-process runs (ranks=1)".into());
                }
                let placement = match body.get("placement") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(ShardPolicy::parse(s).ok_or_else(|| {
                        format!(
                            "unknown placement '{s}' (known: {})",
                            ShardPolicy::ALL.map(|p| p.label()).join(", ")
                        )
                    })?),
                    Some(_) => return Err("field 'placement' must be a string".into()),
                };
                if placement.is_some() && spec.ranks <= 1 {
                    return Err("placement applies to ranked runs (ranks>1)".into());
                }
                Ok(Job::Benchmark {
                    spec,
                    plan,
                    placement,
                })
            }
            "trace" => {
                let spec = parse_bench_spec(body)?;
                if spec.ranks > 1 {
                    return Err("trace jobs run in-process (ranks=1)".into());
                }
                Ok(Job::Trace { spec })
            }
            "figure" => match get_usize(body, "figure", 0)? {
                figure @ 3..=9 => Ok(Job::Figure {
                    figure: figure as u8,
                }),
                _ => Err("field 'figure' must be 3..=9".into()),
            },
            "analyze" => {
                let app = body
                    .get("app")
                    .and_then(Json::as_str)
                    .ok_or("missing field 'app'")?;
                registered(app)?;
                Ok(Job::Analyze { app: app.into() })
            }
            #[cfg(test)]
            "panic" => Ok(Job::Panic {
                inside: body
                    .get("inside")
                    .and_then(Json::as_str)
                    .unwrap_or("job")
                    .into(),
            }),
            other => Err(format!(
                "unknown kind '{other}' (benchmark|trace|figure|analyze)"
            )),
        }
    }

    pub fn kind_label(&self) -> &'static str {
        match self {
            Job::Benchmark { .. } => "benchmark",
            Job::Trace { .. } => "trace",
            Job::Figure { .. } => "figure",
            Job::Analyze { .. } => "analyze",
            #[cfg(test)]
            Job::Panic { .. } => "panic",
        }
    }

    /// The job's cache address on `machine` (a descriptor fingerprint).
    pub fn cache_key(&self, machine: &str) -> CacheKey {
        let spec = match self {
            // An explicit placement is part of the cache address (runs
            // pinned differently must not collide); the default-placed
            // spelling is unchanged so historical keys stay valid.
            Job::Benchmark {
                spec,
                placement: Some(p),
                ..
            } => format!("{} placement={}", spec.canonical(), p.label()),
            Job::Benchmark { spec, .. } | Job::Trace { spec } => spec.canonical(),
            Job::Figure { figure } => format!("figure={figure}"),
            Job::Analyze { app } => format!("analyze={app}"),
            #[cfg(test)]
            Job::Panic { inside } => format!("panic={inside}"),
        };
        let plan = match self {
            Job::Benchmark { plan: Some(p), .. } => p.to_json().to_string(),
            _ => "none".into(),
        };
        KeyMaterial {
            kind: self.kind_label(),
            spec: &spec,
            plan: &plan,
            machine,
        }
        .key()
    }

    /// Execute the job, returning the response payload JSON.
    pub fn execute(&self, ctx: &ExecContext, job_id: u64) -> Result<String, String> {
        match self {
            Job::Benchmark {
                spec,
                plan,
                placement,
            } => execute_benchmark(ctx, spec, plan.clone(), *placement),
            Job::Trace { spec } => execute_trace(ctx, spec, job_id),
            Job::Figure { figure } => Ok(figure_payload(*figure)),
            Job::Analyze { app } => execute_analyze(app),
            #[cfg(test)]
            Job::Panic { inside } => {
                let boom = || -> String { panic!("the test job panics by design") };
                match inside.as_str() {
                    "trace" => Ok(traced(boom).0),
                    "shard" => ctx
                        .shards
                        .on_next_shard(ShardPolicy::Packed, 2, |_| boom())
                        .map(|_| unreachable!("both ranks panic")),
                    _ => Ok(boom()),
                }
            }
        }
    }
}

/// Everything job execution reaches for.
pub struct ExecContext {
    pub shards: Arc<ShardPool>,
    pub traces: Arc<TraceStore>,
}

/// Run `f` as the process's one traced execution: `bwb_trace` records
/// into process-global thread rings, so traced executions serialize on a
/// gate that is as global, held for the whole traced run.
fn traced<R>(f: impl FnOnce() -> R) -> (R, bwb_trace::Trace) {
    static GATE: Mutex<()> = Mutex::new(());
    // The gate guards no data: poisoned by a run that panicked under it,
    // it serializes the next one as well as ever.
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    bwb_trace::with_tracing(f)
}

/// Per-job-id Perfetto exports.
#[derive(Default)]
pub struct TraceStore {
    map: Mutex<HashMap<u64, String>>,
}

impl TraceStore {
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    pub fn get(&self, job_id: u64) -> Option<String> {
        self.map.lock().unwrap().get(&job_id).cloned()
    }

    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.lock().unwrap().is_empty()
    }
}

fn outcome_json(out: &BenchOutcome) -> Vec<(&'static str, Json)> {
    vec![
        ("app", out.app.slug().into()),
        ("validation", out.validation.into()),
        ("points", out.points.into()),
        ("iterations", out.iterations.into()),
        ("ranks", out.ranks.into()),
        ("seconds", out.seconds.into()),
        ("bytes", out.bytes.into()),
        ("gbs", out.gbs.into()),
    ]
}

fn execute_benchmark(
    ctx: &ExecContext,
    spec: &BenchSpec,
    plan: Option<OptPlan>,
    placement: Option<ShardPolicy>,
) -> Result<String, String> {
    let mut fields;
    if spec.ranks > 1 {
        let run = ctx.shards.run_ranked(spec, placement)?;
        fields = outcome_json(&run.outcome);
        fields.extend([
            ("shard", run.shard.into()),
            ("placement", run.policy.label().into()),
            ("mpi_fraction", run.mpi_fraction.into()),
            ("wall_seconds", run.wall_seconds.into()),
        ]);
    } else {
        let planned = plan.is_some();
        let out = spec.run_with_plan(plan)?;
        fields = outcome_json(&out);
        fields.push(("planned", planned.into()));
    }
    fields.push(("config", spec.config_summary().into()));
    Ok(obj(fields).to_string())
}

fn execute_trace(ctx: &ExecContext, spec: &BenchSpec, job_id: u64) -> Result<String, String> {
    let (result, trace) = traced(|| spec.run());
    let out = result?;
    let chrome = bwb_trace::to_chrome_json(&trace, &Default::default());
    let events = trace.total_events();
    ctx.traces.map.lock().unwrap().insert(job_id, chrome);
    let mut fields = outcome_json(&out);
    fields.push(("trace_events", events.into()));
    fields.push(("trace_path", format!("/trace/{job_id}").into()));
    Ok(obj(fields).to_string())
}

/// The registry entry an `analyze` job names.
fn registered(app: &str) -> Result<&'static registry::AppEntry, String> {
    registry::entry(app).ok_or_else(|| {
        let known: Vec<&str> = registry::APPS.iter().map(|e| e.name).collect();
        format!("unknown app '{}' (known: {})", app, known.join(", "))
    })
}

fn execute_analyze(app: &str) -> Result<String, String> {
    // A declared app's report is its chain's: no worker executes a
    // recording pass, and any violation the chain carries is in the
    // report. Every other app gets its limited report.
    let payload = match bwb_dslcheck::static_report_for(app) {
        Some(s) => obj([
            ("source", "static".into()),
            ("static_ns", Json::Num(s.nanos as f64)),
            ("report", s.report.to_json()),
            ("plan", s.report.export_plan().to_json()),
        ]),
        None => {
            let report = registered(app)?.dataflow();
            obj([
                ("source", "recorded".into()),
                ("report", report.to_json()),
                ("plan", report.export_plan().to_json()),
            ])
        }
    };
    Ok(payload.to_string())
}

fn figure_payload(figure: u8) -> String {
    let rows: Json = match figure {
        3 | 4 => {
            let p = bwb_machine::platforms::xeon_max_9480();
            let m = if figure == 3 {
                figures::figure3_structured_matrix(&p)
            } else {
                figures::figure4_unstructured_matrix(&p)
            };
            m.rows
                .iter()
                .map(|r| {
                    obj([
                        ("label", r.label.as_str().into()),
                        ("mean_slowdown", r.mean.into()),
                        (
                            "slowdowns",
                            r.slowdowns
                                .iter()
                                .map(|s| s.map_or(Json::Null, Json::Num))
                                .collect(),
                        ),
                    ])
                })
                .collect()
        }
        5 => figures::figure5_parallelization_speedups()
            .iter()
            .map(|e| {
                obj([
                    ("app", e.app.slug().into()),
                    (
                        "speedups",
                        e.speedups
                            .iter()
                            .map(|(l, s)| {
                                obj([("config", l.as_str().into()), ("speedup", (*s).into())])
                            })
                            .collect(),
                    ),
                ])
            })
            .collect(),
        6 => figures::figure6_platform_comparison()
            .iter()
            .map(|e| {
                obj([
                    ("app", e.app.slug().into()),
                    ("speedup_vs_8360y", e.speedup_vs_8360y.into()),
                    ("speedup_vs_epyc", e.speedup_vs_epyc.into()),
                    ("a100_vs_max", e.a100_vs_max.into()),
                ])
            })
            .collect(),
        7 => figures::figure7_mpi_fractions()
            .iter()
            .map(|e| {
                obj([
                    ("app", e.app.slug().into()),
                    ("platform", e.platform.label().into()),
                    ("mpi_fraction_pure", e.mpi_fraction_pure.into()),
                    ("mpi_fraction_openmp", e.mpi_fraction_openmp.into()),
                ])
            })
            .collect(),
        8 => figures::figure8_effective_bandwidth()
            .iter()
            .map(|e| {
                obj([
                    ("app", e.app.slug().into()),
                    ("platform", e.platform.label().into()),
                    ("effective_gbs", e.effective_gbs.into()),
                    ("fraction_of_stream", e.fraction_of_stream.into()),
                ])
            })
            .collect(),
        9 => figures::figure9_tiling()
            .iter()
            .map(|e| {
                obj([
                    ("platform", e.platform.label().into()),
                    ("untiled_seconds", e.untiled_seconds.into()),
                    ("tiled_seconds", e.tiled_seconds.into()),
                    ("gain", e.gain.into()),
                ])
            })
            .collect(),
        _ => unreachable!("parse() bounds the figure number"),
    };
    obj([("figure", figure.into()), ("rows", rows)]).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_machine::platforms;
    use bwb_machine::ShardPolicy;

    fn ctx() -> ExecContext {
        ExecContext {
            shards: Arc::new(ShardPool::new(
                platforms::xeon_8360y(),
                2,
                ShardPolicy::OnePerNuma,
            )),
            traces: Arc::new(TraceStore::new()),
        }
    }

    fn parse(body: &str) -> Result<Job, String> {
        Job::parse(&bwb_trace::json::parse(body).unwrap())
    }

    #[test]
    fn parse_rejects_malformed_jobs() {
        assert!(parse("{}").unwrap_err().contains("kind"));
        assert!(parse("{\"kind\":\"benchmark\"}")
            .unwrap_err()
            .contains("app"));
        assert!(parse("{\"kind\":\"benchmark\",\"app\":\"nope\"}")
            .unwrap_err()
            .contains("unknown app"));
        assert!(parse("{\"kind\":\"figure\",\"figure\":2}")
            .unwrap_err()
            .contains("3..=9"));
        // 259 would wrap to figure 3 through a u8.
        assert!(parse("{\"kind\":\"figure\",\"figure\":259}")
            .unwrap_err()
            .contains("3..=9"));
        for n in ["1e300", "9007199254740994", "1.5", "-1"] {
            let body = format!("{{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":{n}}}");
            assert!(
                parse(&body).unwrap_err().contains("non-negative integer"),
                "n = {n}"
            );
        }
        assert!(parse("{\"kind\":\"analyze\",\"app\":\"nope\"}")
            .unwrap_err()
            .contains("unknown app"));
        assert!(
            parse("{\"kind\":\"benchmark\",\"app\":\"volna\",\"ranks\":2}")
                .unwrap_err()
                .contains("no distributed driver")
        );
        assert!(parse(
            "{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"ranks\":2,\"placement\":\"diagonal\"}"
        )
        .unwrap_err()
        .contains("unknown placement"));
        assert!(
            parse("{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"placement\":\"packed\"}")
                .unwrap_err()
                .contains("ranks>1")
        );
    }

    #[test]
    fn cache_keys_separate_kinds_specs_and_machines() {
        let bench = parse("{\"kind\":\"benchmark\",\"app\":\"acoustic\"}").unwrap();
        let trace = parse("{\"kind\":\"trace\",\"app\":\"acoustic\"}").unwrap();
        let other = parse("{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":48}").unwrap();
        let m1 = "machine-a";
        let m2 = "machine-b";
        assert_ne!(bench.cache_key(m1), trace.cache_key(m1));
        assert_ne!(bench.cache_key(m1), other.cache_key(m1));
        assert_ne!(bench.cache_key(m1), bench.cache_key(m2));
        assert_eq!(bench.cache_key(m1), bench.cache_key(m1));
    }

    #[test]
    fn cache_keys_separate_placements() {
        let base = parse("{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"ranks\":2}").unwrap();
        let numa = parse(
            "{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"ranks\":2,\
             \"placement\":\"one-per-numa\"}",
        )
        .unwrap();
        let packed = parse(
            "{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"ranks\":2,\
             \"placement\":\"packed\"}",
        )
        .unwrap();
        let m = "machine-a";
        assert_ne!(numa.cache_key(m), packed.cache_key(m));
        assert_ne!(base.cache_key(m), numa.cache_key(m));
        assert_ne!(base.cache_key(m), packed.cache_key(m));
    }

    #[test]
    fn benchmark_job_executes_and_reports() {
        let job = parse("{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":12,\"iterations\":2}")
            .unwrap();
        let payload = job.execute(&ctx(), 1).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(doc.get("app").and_then(Json::as_str), Some("acoustic"));
        assert!(doc.get("gbs").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(doc.get("ranks").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn ranked_benchmark_routes_through_a_shard() {
        let job = parse(
            "{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":12,\"iterations\":2,\"ranks\":2}",
        )
        .unwrap();
        let payload = job.execute(&ctx(), 2).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(doc.get("ranks").and_then(Json::as_f64), Some(2.0));
        assert!(doc.get("shard").is_some());
        assert!(doc.get("placement").and_then(Json::as_str).is_some());
        assert!(doc.get("mpi_fraction").and_then(Json::as_f64).unwrap() >= 0.0);
    }

    #[test]
    fn explicit_placement_is_honored_and_reported() {
        let job = parse(
            "{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":12,\"iterations\":2,\
             \"ranks\":2,\"placement\":\"packed\"}",
        )
        .unwrap();
        let payload = job.execute(&ctx(), 9).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(doc.get("placement").and_then(Json::as_str), Some("packed"));
    }

    #[test]
    fn trace_job_stores_a_valid_chrome_export() {
        let c = ctx();
        let job = parse("{\"kind\":\"trace\",\"app\":\"cloverleaf2d\",\"n\":16,\"iterations\":2}")
            .unwrap();
        let payload = job.execute(&c, 77).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(
            doc.get("trace_path").and_then(Json::as_str),
            Some("/trace/77")
        );
        let chrome = c.traces.get(77).expect("trace stored under the job id");
        let chrome_doc = bwb_trace::json::parse(&chrome).unwrap();
        assert!(bwb_trace::json::validate_chrome(&chrome_doc).is_empty());
    }

    #[test]
    fn figure_job_renders_rows() {
        let job = parse("{\"kind\":\"figure\",\"figure\":8}").unwrap();
        let payload = job.execute(&ctx(), 3).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(doc.get("figure").and_then(Json::as_f64), Some(8.0));
        assert!(!doc.get("rows").and_then(Json::as_array).unwrap().is_empty());
    }

    #[test]
    fn analyze_job_exports_a_plan_that_feeds_back_into_benchmarks() {
        let job = parse("{\"kind\":\"analyze\",\"app\":\"opensbli_sa\"}").unwrap();
        let payload = job.execute(&ctx(), 4).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        let plan = doc.get("plan").expect("plan present");
        // The exported plan must round-trip into a benchmark job.
        let body = format!(
            "{{\"kind\":\"benchmark\",\"app\":\"opensbli-sa\",\"n\":8,\"iterations\":2,\"plan\":{plan}}}"
        );
        let bench = parse(&body).unwrap();
        let out = bench.execute(&ctx(), 5).unwrap();
        let out_doc = bwb_trace::json::parse(&out).unwrap();
        assert_eq!(out_doc.get("planned"), Some(&Json::Bool(true)));
    }

    #[test]
    fn analyze_job_takes_the_static_fast_path_for_declared_chains() {
        // Acoustic declares a chain, so planning must be execution-free.
        let job = parse("{\"kind\":\"analyze\",\"app\":\"acoustic\"}").unwrap();
        let payload = job.execute(&ctx(), 6).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("static"));
        assert!(doc.get("plan").is_some());
    }

    #[test]
    fn analyze_job_reports_an_op2_app_as_limited() {
        // The op2 apps have no declarable chain: their limited report, and
        // an empty plan — nothing is certified where nothing was analyzed.
        let job = parse("{\"kind\":\"analyze\",\"app\":\"mgcfd\"}").unwrap();
        let payload = job.execute(&ctx(), 7).unwrap();
        let doc = bwb_trace::json::parse(&payload).unwrap();
        assert_eq!(doc.get("source").and_then(Json::as_str), Some("recorded"));
        let report = doc.get("report").expect("report present");
        assert_eq!(report.get("analyzed"), Some(&Json::Bool(false)));
        assert_eq!(
            report.get("limitation").and_then(Json::as_str),
            Some("output-only recording")
        );
        let plan = doc.get("plan").expect("plan present");
        let loops = plan.get("loops").and_then(Json::as_array);
        assert_eq!(loops.map(|l| l.len()), Some(0));
    }
}
