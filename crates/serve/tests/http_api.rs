//! End-to-end HTTP tests: submit jobs over a real socket and check the
//! cache, trace, and error paths the README documents.

use bwb_serve::http::{request, ClientResponse};
use bwb_serve::server::{Server, ServerConfig};
use bwb_trace::json::{parse, validate_chrome, Json};

/// Bind an ephemeral server, run `f` against its address, then drain.
fn with_server(f: impl FnOnce(&str)) {
    with_server_cfg(ServerConfig::default(), f);
}

fn with_server_cfg(cfg: ServerConfig, f: impl FnOnce(&str)) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr().to_string();
    let state = server.state();
    let runner = std::thread::spawn(move || server.run());
    f(&addr);
    state.begin_shutdown();
    runner.join().expect("server thread");
}

fn post_job(addr: &str, body: &str) -> ClientResponse {
    request(addr, "POST", "/job", Some(body)).expect("request")
}

#[test]
fn resubmitted_job_is_served_from_cache_bit_identically() {
    with_server(|addr| {
        let body = r#"{"kind":"figure","figure":8}"#;
        let first = post_job(addr, body);
        assert_eq!(first.status, 200);
        assert_eq!(first.header("x-cache"), Some("miss"));
        let key = first.header("x-cache-key").expect("key header").to_string();

        let second = post_job(addr, body);
        assert_eq!(second.status, 200);
        assert_eq!(second.header("x-cache"), Some("hit"));
        assert_eq!(second.header("x-cache-key"), Some(key.as_str()));
        assert_eq!(first.body, second.body, "cache must return identical bytes");

        // A real benchmark run caches the same way.
        let bench = r#"{"kind":"benchmark","app":"acoustic","n":12,"iterations":2}"#;
        assert_eq!(post_job(addr, bench).header("x-cache"), Some("miss"));
        assert_eq!(post_job(addr, bench).header("x-cache"), Some("hit"));

        let stats = request(addr, "GET", "/stats", None).expect("stats");
        let doc = parse(&stats.body).expect("stats json");
        let hits = doc
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_f64)
            .expect("cache.hits");
        assert!(hits >= 2.0, "expected >= 2 cache hits, saw {hits}");
    });
}

#[test]
fn unsatisfiable_shard_carves_are_client_errors_not_crashes() {
    // 9 one-per-NUMA shards on 8 NUMA domains: binding must succeed (the
    // pool carves lazily), the infeasible placement must come back as a
    // 400, and the same server must keep serving feasibly-placed jobs.
    let cfg = ServerConfig {
        shards: 9,
        ..ServerConfig::default()
    };
    with_server_cfg(cfg, |addr| {
        let numa = post_job(
            addr,
            r#"{"kind":"benchmark","app":"acoustic","n":12,"iterations":2,"ranks":2,"placement":"one-per-numa"}"#,
        );
        assert_eq!(numa.status, 400, "{}", numa.body);
        assert!(numa.body.contains("NUMA domains"), "{}", numa.body);

        let packed = post_job(
            addr,
            r#"{"kind":"benchmark","app":"acoustic","n":12,"iterations":2,"ranks":2,"placement":"packed"}"#,
        );
        assert_eq!(packed.status, 200, "{}", packed.body);
        let doc = parse(&packed.body).expect("payload json");
        assert_eq!(doc.get("placement").and_then(Json::as_str), Some("packed"));

        // Differently-placed requests must not share a cache entry.
        let again = post_job(
            addr,
            r#"{"kind":"benchmark","app":"acoustic","n":12,"iterations":2,"ranks":2,"placement":"packed"}"#,
        );
        assert_eq!(again.header("x-cache"), Some("hit"));
        let unplaced = post_job(
            addr,
            r#"{"kind":"benchmark","app":"acoustic","n":12,"iterations":2,"ranks":2}"#,
        );
        assert_eq!(unplaced.header("x-cache"), Some("miss"));
    });
}

#[test]
fn trace_jobs_store_a_retrievable_perfetto_export() {
    with_server(|addr| {
        let resp = post_job(
            addr,
            r#"{"kind":"trace","app":"cloverleaf2d","n":16,"iterations":2}"#,
        );
        assert_eq!(resp.status, 200);
        let doc = parse(&resp.body).expect("payload json");
        let path = doc
            .get("trace_path")
            .and_then(Json::as_str)
            .expect("trace_path")
            .to_string();

        let trace = request(addr, "GET", &path, None).expect("trace fetch");
        assert_eq!(trace.status, 200);
        let chrome = parse(&trace.body).expect("chrome json");
        assert!(
            validate_chrome(&chrome).is_empty(),
            "trace export must validate as Chrome trace_event JSON"
        );
    });
}

#[test]
fn deeply_nested_body_is_a_400_and_the_server_keeps_serving() {
    with_server(|addr| {
        // 100 kB, under the body cap: unbounded recursion over it would
        // overflow a connection thread's stack and abort the process.
        let deep = post_job(addr, &"[".repeat(100_000));
        assert_eq!(deep.status, 400, "{}", deep.body);
        assert!(deep.body.contains("nesting deeper than"), "{}", deep.body);
        assert_eq!(
            request(addr, "GET", "/healthz", None).expect("req").status,
            200
        );
        assert_eq!(
            post_job(addr, r#"{"kind":"figure","figure":8}"#).status,
            200
        );
    });
}

#[test]
fn error_paths_return_structured_statuses() {
    with_server(|addr| {
        assert_eq!(post_job(addr, "not json").status, 400);
        assert_eq!(post_job(addr, r#"{"kind":"teapot"}"#).status, 400);
        assert_eq!(
            post_job(addr, r#"{"kind":"figure","figure":2}"#).status,
            400
        );
        // A plan for an app that would not apply it is refused, not run
        // as the baseline under a second cache key.
        let planned_sn = post_job(
            addr,
            r#"{"kind":"benchmark","app":"opensbli-sn","n":8,"iterations":1,"plan":{"app":"opensbli_sn"}}"#,
        );
        assert_eq!(planned_sn.status, 400, "{}", planned_sn.body);
        assert!(
            planned_sn
                .body
                .contains("plan apps: cloverleaf2d, opensbli-sa"),
            "{}",
            planned_sn.body
        );
        assert_eq!(
            request(addr, "GET", "/trace/999", None)
                .expect("req")
                .status,
            404
        );
        assert_eq!(
            request(addr, "GET", "/nope", None).expect("req").status,
            404
        );
        assert_eq!(
            request(addr, "GET", "/healthz", None).expect("req").status,
            200
        );
    });
}
