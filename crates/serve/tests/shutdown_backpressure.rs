//! Graceful-shutdown and bounded-queue backpressure, end to end over real
//! sockets: overflowing the admission queue yields `429` with a
//! `Retry-After` hint (and the work succeeds on retry); draining refuses
//! new jobs with `503` while in-flight connections finish, then the accept
//! loop returns — also when a peer never finishes its request.

use bwb_serve::http::{request, READ_DEADLINE};
use bwb_serve::server::{Server, ServerConfig};
use bwb_trace::json::{parse, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

/// `flight.running_now` from `GET /stats`.
fn running_now(addr: &str) -> f64 {
    let stats = request(addr, "GET", "/stats", None).expect("stats");
    parse(&stats.body)
        .expect("stats json")
        .get("flight")
        .and_then(|f| f.get("running_now"))
        .and_then(Json::as_f64)
        .expect("flight.running_now")
}

#[test]
fn overflowing_the_admission_queue_returns_429_with_retry_after() {
    // One permit, zero queue slots: while one job runs, any other is refused.
    let server = Server::bind(ServerConfig {
        max_concurrent: 1,
        max_queue: 0,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let state = server.state();
    let runner = std::thread::spawn(move || server.run());

    // Distinct specs (different n) so coalescing cannot absorb the burst.
    let bodies: Vec<String> = [12usize, 14, 16, 18]
        .iter()
        .map(|n| {
            format!("{{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":{n},\"iterations\":3}}")
        })
        .collect();
    // About a second in either profile: it holds the permit for the whole
    // burst, which takes milliseconds.
    let iterations = if cfg!(debug_assertions) { 20 } else { 1200 };
    let long = format!(
        "{{\"kind\":\"benchmark\",\"app\":\"acoustic\",\"n\":64,\"iterations\":{iterations}}}"
    );

    let barrier = Barrier::new(bodies.len());
    let (leader, responses) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| request(&addr, "POST", "/job", Some(&long)).expect("long job"));
        let deadline = Instant::now() + Duration::from_secs(60);
        while running_now(&addr) != 1.0 {
            assert!(Instant::now() < deadline, "the long job was never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| {
                let barrier = &barrier;
                let addr = addr.clone();
                scope.spawn(move || {
                    barrier.wait();
                    request(&addr, "POST", "/job", Some(body)).expect("request")
                })
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (leader.join().unwrap(), responses)
    });

    assert_eq!(leader.status, 200, "the admitted long job must succeed");
    for r in &responses {
        assert_eq!(
            r.status, 429,
            "a job against a held permit and 0 queue slots must be shed"
        );
        let retry: u64 = r
            .header("retry-after")
            .expect("429 must carry Retry-After")
            .parse()
            .expect("Retry-After must be integer seconds");
        assert!(retry >= 1);
    }

    // Backpressure is load shedding, not failure: the shed jobs succeed
    // when resubmitted without contention.
    for body in &bodies {
        let retry = request(&addr, "POST", "/job", Some(body)).expect("retry");
        assert_eq!(retry.status, 200, "shed job must succeed on retry");
    }

    state.begin_shutdown();
    runner.join().expect("server thread");
}

#[test]
fn draining_refuses_new_jobs_and_exits_once_idle() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let state = server.state();
    let runner = std::thread::spawn(move || server.run());

    // Hold one connection open mid-request: it counts as in-flight, so the
    // accept loop must keep serving (and answering 503s) until it finishes.
    let mut held = TcpStream::connect(&addr).expect("connect");

    let shutdown = request(&addr, "POST", "/shutdown", None).expect("shutdown");
    assert_eq!(shutdown.status, 200);
    assert!(state.is_draining());

    // New jobs are refused while draining, with a retry hint.
    let refused = request(
        &addr,
        "POST",
        "/job",
        Some(r#"{"kind":"figure","figure":8}"#),
    )
    .expect("job during drain");
    assert_eq!(refused.status, 503);
    assert!(refused.header("retry-after").is_some());

    // Liveness stays up for the drain's duration.
    let health = request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);

    // The held request now completes normally — drain lets in-flight work
    // finish rather than cutting it off.
    held.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("finish held request");
    let mut reply = String::new();
    held.read_to_string(&mut reply).expect("held response");
    assert!(reply.starts_with("HTTP/1.1 200"), "held reply: {reply}");

    // With the last in-flight connection done, the accept loop returns.
    runner.join().expect("server thread exits after drain");
}

#[test]
fn silent_and_half_sent_connections_cannot_hold_the_drain() {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let state = server.state();
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        server.run();
        let _ = done_tx.send(());
    });

    // One peer says nothing, one stops halfway through its head. A request
    // answered after both means both were accepted: they are in flight.
    let silent = TcpStream::connect(&addr).expect("connect");
    let mut half = TcpStream::connect(&addr).expect("connect");
    half.write_all(b"POST /job HTTP/1.1\r\nContent-")
        .expect("half a head");
    let health = request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);

    state.begin_shutdown();
    done_rx
        .recv_timeout(READ_DEADLINE + Duration::from_secs(5))
        .expect("run() returns once the unfinished requests time out");
    runner.join().expect("server thread");

    let mut reply = String::new();
    half.read_to_string(&mut reply).expect("half-sent reply");
    assert!(
        reply.starts_with("HTTP/1.1 400"),
        "half-sent reply: {reply}"
    );
    assert!(reply.contains("within 5 s"), "names the deadline: {reply}");
    drop(silent);
}
