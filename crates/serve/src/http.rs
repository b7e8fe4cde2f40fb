//! A minimal HTTP/1.1 layer: exactly the subset the job API needs.
//!
//! A message is a head (start line and headers, CRLF-delimited, ended by a
//! blank line) and then exactly `Content-Length` body bytes. [`parse_request`]
//! is that framing as a pure function of the bytes received so far, and it
//! refuses whatever would leave the end of a body in doubt: a
//! `Transfer-Encoding`, a second `Content-Length`, a length that is not
//! plain digits. No chunked encoding, no TLS.
//!
//! Connections persist. The server answers requests on one connection, in
//! order, until the peer asks to close (`Connection: close`, or HTTP/1.0
//! without `keep-alive`) or closes it, a request is malformed, a handler
//! panics, or a drain begins; every response says which with
//! `Connection: keep-alive` or `close`. [`request`] keeps one connection per
//! calling thread open for the next call. Each message leaves in one
//! `write`, and both ends set `TCP_NODELAY`: a kept connection that split a
//! message would wait on Nagle's algorithm and the peer's delayed ACK,
//! about 40 ms on Linux.
//!
//! The layer owns no thread and no listener: a `RequestReader` and
//! [`Response::write_to`] run on whichever of `server`'s connection workers
//! accepted the stream, one blocking read side and one blocking write side
//! per connection. A fresh connection that closes without a byte — which
//! is how the server gets its own workers out of `accept` for a drain —
//! reads as `Err("connection closed mid-request")`, and the `400` written
//! back goes nowhere.

use bwb_trace::json::obj;
use std::cell::RefCell;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Cap on request head + body: jobs are small JSON documents.
const MAX_HEAD_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Time a peer has to send a request, head and body, from when the server
/// starts waiting for it. A fresh connection counts as in flight from
/// `accept` on, and a drain waits for it; a kept connection that sends no
/// byte of its next request in this time is closed without an answer.
pub const READ_DEADLINE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// As the request line names it, and `HTTP/1.0` when it names none.
    pub version: String,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// Whether the peer lets the connection stay open after this request:
    /// on HTTP/1.1 unless it says `Connection: close`, on HTTP/1.0 only if
    /// it says `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let says = |token| {
            self.header("connection")
                .is_some_and(|v| has_token(v, token))
        };
        if self.version == "HTTP/1.1" {
            !says("close")
        } else {
            says("keep-alive")
        }
    }
}

fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Whether the comma-separated header `value` lists `token`.
fn has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// One message at the front of a buffer.
struct Message {
    start_line: String,
    headers: Vec<(String, String)>,
    body: String,
    /// Bytes the message spans, head and body.
    len: usize,
}

/// The message at the front of `buf`, or `Ok(None)` while it is incomplete.
/// Whether it is an error depends only on the bytes up to its end, so the
/// answer does not depend on how the bytes were split into reads.
fn parse_message(buf: &[u8], max_body: usize) -> Result<Option<Message>, String> {
    let Some(head_end) = find_head_end(&buf[..buf.len().min(MAX_HEAD_BYTES + 4)]) else {
        return if buf.len() >= MAX_HEAD_BYTES + 4 {
            Err("head too large".into())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let start_line = lines.next().unwrap_or_default().to_string();
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();

    let mut content_length = None;
    for (k, v) in &headers {
        if k.eq_ignore_ascii_case("transfer-encoding") {
            return Err(
                "Transfer-Encoding is not supported; frame the body by Content-Length".into(),
            );
        }
        if k.eq_ignore_ascii_case("content-length") {
            if content_length.is_some() {
                return Err("more than one Content-Length".into());
            }
            // `usize::from_str` would also take a leading `+`.
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err("bad Content-Length".into());
            }
            content_length = Some(v.parse::<usize>().map_err(|_| "bad Content-Length")?);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err("body too large".into());
    }
    let len = (head_end + 4)
        .checked_add(content_length)
        .ok_or("body too large")?;
    let Some(body) = buf.get(head_end + 4..len) else {
        return Ok(None);
    };
    Ok(Some(Message {
        start_line,
        headers,
        body: String::from_utf8(body.to_vec()).map_err(|_| "body is not UTF-8")?,
        len,
    }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The request at the front of `buf` and the bytes it spans, or `Ok(None)`
/// while more bytes are needed. `Err` is a protocol error: respond 400 and
/// close, since where a next request would start is unknown.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, String> {
    let Some(m) = parse_message(buf, MAX_BODY_BYTES)? else {
        return Ok(None);
    };
    let mut parts = m.start_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let version = parts.next().unwrap_or("HTTP/1.0").to_string();
    let request = Request {
        method,
        path,
        version,
        headers: m.headers,
        body: m.body,
    };
    Ok(Some((request, m.len)))
}

/// One `read` from `stream`, appended to `buf`. A read under a timeout is
/// not restarted after a signal handler runs (the `serve` binary's SIGINT
/// lands on any thread), so an interrupted one is tried again.
fn read_more(mut stream: &TcpStream, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let start = buf.len();
    buf.resize(start + 8 * 1024, 0);
    let got = loop {
        match stream.read(&mut buf[start..]) {
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            got => break got,
        }
    };
    buf.truncate(start + *got.as_ref().unwrap_or(&0));
    got
}

/// The read side of one connection. Bytes read past one request stay
/// buffered for the next, so pipelined requests are answered in order.
#[derive(Debug, Default)]
pub(crate) struct RequestReader {
    buf: Vec<u8>,
}

impl RequestReader {
    /// True while no byte of a next request has arrived.
    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One `read` into the buffer, blocking until `deadline` at most: the
    /// bytes it got, 0 once the peer has closed its side.
    pub(crate) fn fill(&mut self, stream: &TcpStream, deadline: Instant) -> Result<usize, String> {
        let late = || format!("request not received within {} s", READ_DEADLINE.as_secs());
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(late());
        }
        stream
            .set_read_timeout(Some(left))
            .map_err(|e| e.to_string())?;
        read_more(stream, &mut self.buf).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => late(),
            _ => e.to_string(),
        })
    }

    /// The next request, read by `deadline`. `Err` strings are
    /// protocol-level (respond 400 and close).
    pub(crate) fn next(
        &mut self,
        stream: &TcpStream,
        deadline: Instant,
    ) -> Result<Request, String> {
        loop {
            if let Some((request, len)) = parse_request(&self.buf)? {
                self.buf.drain(..len);
                return Ok(request);
            }
            if self.fill(stream, deadline)? == 0 {
                return Err("connection closed mid-request".into());
            }
        }
    }
}

/// Read one request from a fresh stream within [`READ_DEADLINE`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    RequestReader::default().next(stream, Instant::now() + READ_DEADLINE)
}

#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    headers: Vec<(String, String)>,
    body: String,
    keep_alive: bool,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
            keep_alive: false,
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            headers: vec![("Content-Type".into(), "text/plain".into())],
            ..Response::json(status, body)
        }
    }

    /// Client-facing error as a JSON envelope.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, obj([("error", message.into())]).to_string())
    }

    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Whether the connection stays open after this response (`false`
    /// unless set).
    pub fn keep_alive(mut self, keep: bool) -> Response {
        self.keep_alive = keep;
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Head and body in one `write`.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut wire = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (k, v) in &self.headers {
            wire.push_str(&format!("{k}: {v}\r\n"));
        }
        let connection = if self.keep_alive {
            "keep-alive"
        } else {
            "close"
        };
        wire.push_str(&format!(
            "Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
            self.body.len()
        ));
        wire.push_str(&self.body);
        out.write_all(wire.as_bytes())?;
        out.flush()
    }
}

/// What [`request`] got back.
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

thread_local! {
    /// The calling thread's open connection and the address it leads to.
    static KEPT: RefCell<Option<(String, TcpStream)>> = const { RefCell::new(None) };
}

/// A tiny blocking client for the benchmark and tests: one request, one
/// response framed by its `Content-Length`.
///
/// The connection stays open for the calling thread's next request to the
/// same address. If a kept connection yields not one byte of a response —
/// the server closed it while it was idle, or the server was restarted on
/// the same port — the request goes once more on a fresh connection. Jobs
/// are content-addressed and idempotent, so sending one twice is safe.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<ClientResponse, String> {
    let body = body.unwrap_or("");
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    wire.push_str(body);
    let reused = match KEPT.take().filter(|(kept, _)| kept == addr) {
        Some((_, stream)) => exchange(&stream, wire.as_bytes())?.map(|r| (r, stream)),
        None => None,
    };
    let (response, stream) = match reused {
        Some(got) => got,
        None => {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let response = exchange(&stream, wire.as_bytes())?
                .ok_or_else(|| format!("{addr} closed the connection without a response"))?;
            (response, stream)
        }
    };
    if !response
        .header("connection")
        .is_some_and(|v| has_token(v, "close"))
    {
        KEPT.set(Some((addr.to_string(), stream)));
    }
    Ok(response)
}

/// Send `wire` in one `write` and read one response, or `Ok(None)` if not
/// a byte of one arrived.
fn exchange(mut stream: &TcpStream, wire: &[u8]) -> Result<Option<ClientResponse>, String> {
    if stream.write_all(wire).is_err() {
        return Ok(None);
    }
    let mut raw = Vec::new();
    loop {
        if let Some(m) = parse_message(&raw, usize::MAX)? {
            if find_header(&m.headers, "content-length").is_none() || m.len != raw.len() {
                return Err("response not framed by its Content-Length".into());
            }
            let status = m
                .start_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or("malformed status line")?;
            return Ok(Some(ClientResponse {
                status,
                headers: m.headers,
                body: m.body,
            }));
        }
        match read_more(stream, &mut raw) {
            Ok(0) | Err(_) if raw.is_empty() => return Ok(None),
            Ok(0) => return Err("connection closed mid-response".into()),
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_trace::json::{parse, Json};
    use std::net::TcpListener;

    #[test]
    fn error_bodies_escape_control_characters() {
        let message = "unknown app 'a\nb\u{1}\"\\'";
        let body = Response::error(400, message).body;
        assert!(!body.chars().any(|c| c < '\u{20}'), "{body:?}");
        let doc = parse(&body).expect("an error body is JSON");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some(message));
    }

    #[test]
    fn request_response_round_trip_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/job");
            assert_eq!(req.body, "{\"kind\":\"figure\",\"figure\":8}");
            Response::json(200, "{\"ok\":true}")
                .header("X-Cache", "miss")
                .write_to(&mut s)
                .unwrap();
        });
        let resp = request(
            &addr,
            "POST",
            "/job",
            Some("{\"kind\":\"figure\",\"figure\":8}"),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), Some("miss"));
        assert_eq!(resp.body, "{\"ok\":true}");
    }

    #[test]
    fn bodyless_get_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/stats"));
            assert!(req.body.is_empty());
            Response::text(200, "ok").write_to(&mut s).unwrap();
        });
        let resp = request(&addr, "GET", "/stats", None).unwrap();
        server.join().unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "ok"));
    }
}
