//! Graceful-shutdown and bounded-queue backpressure, end to end over real
//! sockets: overflowing the admission queue yields `429` with a
//! `Retry-After` hint (and the work succeeds on retry); draining refuses
//! new jobs with `503` while in-flight connections finish, then the accept
//! loop returns — also when a peer never finishes its request.

use bwb_serve::http::{request, READ_DEADLINE};
use bwb_serve::server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Barrier};
use std::time::Duration;

#[test]
fn overflowing_the_admission_queue_returns_429_with_retry_after() {
    // One permit, zero queue slots: any overlapping second job is refused.
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

    let barrier = Barrier::new(bodies.len());
    let responses: Vec<_> = std::thread::scope(|scope| {
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
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let rejected: Vec<_> = responses.iter().filter(|r| r.status == 429).collect();
    assert!(ok >= 1, "at least the admitted leader must succeed");
    assert!(
        !rejected.is_empty(),
        "a 4-job burst against 1 permit + 0 queue slots must overflow; statuses: {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    for r in &rejected {
        let retry: u64 = r
            .header("retry-after")
            .expect("429 must carry Retry-After")
            .parse()
            .expect("Retry-After must be integer seconds");
        assert!(retry >= 1);
    }

    // Backpressure is load shedding, not failure: the shed jobs succeed
    // when resubmitted without contention.
    for (body, resp) in bodies.iter().zip(&responses) {
        if resp.status == 429 {
            let retry = request(&addr, "POST", "/job", Some(body)).expect("retry");
            assert_eq!(retry.status, 200, "shed job must succeed on retry");
        }
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
