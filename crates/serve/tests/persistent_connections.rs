//! Persistent connections over real sockets: requests on one connection
//! are answered in order, a kept connection that waits for its next
//! request does not hold a drain, a response during a drain closes its
//! connection, the client retries once when its kept connection has gone
//! stale, and a request whose framing is in doubt gets a `400` and the
//! connection closed.

use bwb_serve::http::{parse_request, request, Response};
use bwb_serve::server::{Server, ServerConfig, ServerState};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A bound server on `addr` with its accept loop on a thread; the channel
/// says when `run` returned.
fn start(addr: &str) -> (String, Arc<ServerState>, mpsc::Receiver<()>, JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: addr.into(),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let state = server.state();
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        server.run();
        let _ = done_tx.send(());
    });
    (addr, state, done_rx, runner)
}

/// One response read off `stream`, framed by its `Content-Length`: the
/// stream stays usable for the next one.
fn read_response(stream: &mut TcpStream) -> String {
    let mut raw = Vec::new();
    let mut byte = [0u8];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(
            stream.read(&mut byte).expect("read head"),
            1,
            "EOF mid-head"
        );
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).expect("UTF-8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .parse()
        .expect("a length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    head + &String::from_utf8(body).expect("UTF-8 body")
}

#[test]
fn a_kept_idle_connection_does_not_hold_the_drain() {
    let (addr, state, done, runner) = start("127.0.0.1:0");
    let mut kept = TcpStream::connect(&addr).expect("connect");
    kept.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("request");
    let reply = read_response(&mut kept);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("Connection: keep-alive"), "{reply}");

    let t0 = Instant::now();
    state.begin_shutdown();
    done.recv_timeout(Duration::from_secs(1))
        .expect("run() returns at once: an idle kept connection is not in flight");
    runner.join().expect("server thread");
    assert!(t0.elapsed() < Duration::from_secs(1));
    let mut rest = Vec::new();
    kept.read_to_end(&mut rest).expect("the drain closed it");
    assert!(rest.is_empty(), "nothing is sent on an idle connection");
}

#[test]
fn a_kept_connection_to_a_restarted_server_is_retried_once() {
    let (addr, state, _, runner) = start("127.0.0.1:0");
    let first = request(&addr, "GET", "/healthz", None).expect("first");
    assert_eq!(first.header("connection"), Some("keep-alive"));
    state.begin_shutdown();
    runner.join().expect("first server");

    // Same port, new server: this thread's kept connection leads nowhere.
    let (again, state, _, runner) = start(&addr);
    assert_eq!(again, addr);
    let second = request(&addr, "GET", "/healthz", None).expect("retried on a fresh connection");
    assert_eq!(second.status, 200);
    state.begin_shutdown();
    runner.join().expect("second server");
}

#[test]
fn pipelined_requests_on_one_connection_are_answered_in_order() {
    let (addr, state, _, runner) = start("127.0.0.1:0");
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(
            b"POST /job HTTP/1.1\r\nContent-Length: 28\r\n\r\n{\"kind\":\"figure\",\"figure\":8}\
              GET /nope HTTP/1.1\r\n\r\n\
              GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        .expect("three requests in one write");
    let mut replies = String::new();
    stream
        .read_to_string(&mut replies)
        .expect("the last request closes the connection");
    let statuses: Vec<&str> = replies
        .match_indices("HTTP/1.1 ")
        .map(|(at, _)| &replies[at + 9..at + 12])
        .collect();
    assert_eq!(statuses, ["200", "404", "200"], "{replies}");
    assert!(replies.contains("X-Cache: miss"), "{replies}");
    assert!(replies.ends_with("{\"ok\":true}"), "{replies}");
    assert_eq!(replies.matches("Connection: keep-alive").count(), 2);

    // HTTP/1.0 closes unless the peer asks to keep the connection.
    let mut old = TcpStream::connect(&addr).expect("connect");
    old.write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut reply = String::new();
    old.read_to_string(&mut reply)
        .expect("closed after one answer");
    assert!(reply.contains("Connection: close"), "{reply}");
    state.begin_shutdown();
    runner.join().expect("server thread");
}

/// A `Write` that counts its `write` calls.
struct Writes(Vec<u8>, usize);

impl Write for Writes {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.1 += 1;
        self.0.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn each_request_and_each_response_leaves_in_one_write() {
    let mut out = Writes(Vec::new(), 0);
    Response::json(200, "x".repeat(4096))
        .header("X-Cache", "hit")
        .write_to(&mut out)
        .expect("write");
    assert_eq!(out.1, 1, "one write for head and body");
    assert!(out.0.ends_with(&[b'x'; 4096]));

    // The client's request, head and a 4 kB body, arrives whole in the
    // server's first read.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let body = format!("{{\"pad\":\"{}\"}}", "y".repeat(4000));
    let server = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        let mut buf = vec![0u8; 64 * 1024];
        let n = s.read(&mut buf).expect("read");
        let (req, len) = parse_request(&buf[..n])
            .expect("framing")
            .expect("the whole request in one read");
        assert_eq!(len, n);
        Response::text(200, req.body.len().to_string())
            .write_to(&mut s)
            .expect("respond");
    });
    let resp = request(&addr, "POST", "/job", Some(&body)).expect("request");
    server.join().expect("server thread");
    assert_eq!(resp.body, body.len().to_string());
}

#[test]
fn a_response_during_a_drain_closes_its_connection() {
    let (addr, state, done, runner) = start("127.0.0.1:0");
    // A fresh connection is in flight until its first answer: it holds the
    // drain open, and gets that answer.
    let mut held = TcpStream::connect(&addr).expect("connect");
    let health = request(&addr, "GET", "/healthz", None).expect("accepted");
    assert_eq!(health.header("connection"), Some("keep-alive"));
    state.begin_shutdown();
    let during = request(&addr, "GET", "/healthz", None).expect("during the drain");
    assert_eq!(during.status, 200);
    assert_eq!(during.header("connection"), Some("close"));

    held.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .expect("request");
    let mut reply = String::new();
    held.read_to_string(&mut reply)
        .expect("closed after the reply");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("Connection: close"), "{reply}");
    done.recv_timeout(Duration::from_secs(5))
        .expect("run() returns once the held connection is answered");
    runner.join().expect("server thread");
}

#[test]
fn a_request_whose_framing_is_in_doubt_gets_a_400_and_the_connection_closed() {
    let (addr, state, _, runner) = start("127.0.0.1:0");
    // On a route that ignores the body, so only the framing can refuse.
    let heads: [&[u8]; 4] = [
        b"GET /healthz HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
        b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
        b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    ];
    for head in heads {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(head).expect("request");
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .expect("closed after the 400");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        assert!(reply.contains("Connection: close"), "{reply}");
        assert_eq!(reply.matches("HTTP/1.1").count(), 1, "{reply}");
    }
    state.begin_shutdown();
    runner.join().expect("server thread");
}
