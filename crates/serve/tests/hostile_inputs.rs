//! Hostile requests: the HTTP framing, the JSON parser and the job-spec
//! parser refuse them with an `Err` and never panic, and the framing finds
//! the same requests however the bytes are split into reads. The vendored
//! proptest draws only numbers, so each case draws a `u64` seed and builds
//! its input from it.

use bwb_serve::http::{parse_request, Request};
use bwb_serve::Job;
use bwb_trace::json::{parse, Json, ParseError, MAX_DEPTH};
use proptest::prelude::*;

/// SplitMix64 over the drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// Any JSON value, at most `depth` levels deep. Keys and strings come
    /// mostly from the job vocabulary, so objects often look like jobs.
    fn json(&mut self, depth: usize) -> Json {
        const WORDS: &[&str] = &[
            "kind",
            "app",
            "n",
            "iterations",
            "ranks",
            "parallel",
            "plan",
            "placement",
            "figure",
            "benchmark",
            "trace",
            "analyze",
            "acoustic",
            "cloverleaf2d",
            "mgcfd",
            "packed",
            "one-per-numa",
            "loops",
            "",
            "\u{0}\"\\",
        ];
        let leaf = depth == 0 || self.below(3) == 0;
        match self.below(if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 => Json::Num(*self.pick(&[
                0.0, 1.0, 2.0, 3.0, 8.0, 9.0, 259.0, -1.0, 0.5, 1e300, -1e300, 9.1e15,
            ])),
            3 => Json::Str(self.pick(WORDS).to_string()),
            4 => Json::Arr((0..self.below(4)).map(|_| self.json(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(6))
                    .map(|_| (self.pick(WORDS).to_string(), self.json(depth - 1)))
                    .collect(),
            ),
        }
    }

    /// A well-formed array or object up to 6 levels deep (so any strict
    /// prefix of its text is malformed).
    fn container(&mut self) -> String {
        let depth = self.below(6);
        self.nested(depth)
    }

    fn nested(&mut self, depth: usize) -> String {
        let inner = if depth == 0 {
            self.pick(&["1", "\"s\"", "null", "[]", "{}"]).to_string()
        } else {
            self.nested(depth - 1)
        };
        if self.below(2) == 0 {
            format!("[{inner},{inner}]")
        } else {
            format!("{{\"k\":{inner}}}")
        }
    }

    /// A document that is malformed by construction.
    fn hostile_document(&mut self) -> String {
        match self.below(5) {
            // Nested past the cap, by arrays, objects or both, closed or not.
            0 => {
                let depth = MAX_DEPTH + 1 + self.below(5_000);
                let mut s = String::new();
                for _ in 0..depth {
                    let open = *self.pick(&["[", "{\"a\":"]);
                    s.push_str(open);
                }
                s.push('1');
                if self.below(2) == 0 {
                    for open in s.clone().chars().rev() {
                        match open {
                            '[' => s.push(']'),
                            '{' => s.push('}'),
                            _ => {}
                        }
                    }
                }
                s
            }
            // A bad escape inside a string of an otherwise valid document.
            1 => {
                let esc = self.pick(&[
                    "\\q", "\\x41", "\\u12", "\\u12G4", "\\u+1", "\\", "\\u", "\\U0041", "\\0",
                ]);
                format!("{{\"kind\":\"a{esc}\"}}")
            }
            // A strict prefix of a well-formed container.
            2 => {
                let doc = self.container();
                let cut = self.below(doc.len());
                doc[..cut].to_string()
            }
            // Numbers JSON cannot hold or does not spell this way.
            3 => self
                .pick(&[
                    "1e400", "-", "1.2.3", "--1", "1e", "+1", ".5", "[1e999]", "0x10",
                ])
                .to_string(),
            // A valid document with something after it.
            _ => format!(
                "{}{}",
                self.container(),
                self.pick(&["]", "}", ",", "x", "1", "\"\""])
            ),
        }
    }

    /// Bytes biased towards JSON punctuation, as UTF-8 (lossily).
    fn noise(&mut self) -> String {
        const PIECES: &[&str] = &[
            "[",
            "]",
            "{",
            "}",
            "\"",
            ":",
            ",",
            "\\",
            "\\u",
            "0",
            "9",
            "-",
            "e",
            ".",
            "true",
            "null",
            "f",
            " ",
            "\u{e9}",
            "\u{1f600}",
        ];
        let mut bytes = Vec::new();
        for _ in 0..self.below(256) {
            if self.below(4) == 0 {
                bytes.push(self.next() as u8);
            } else {
                bytes.extend_from_slice(self.pick(PIECES).as_bytes());
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// A job body with one field made hostile, so no spelling of it is a
    /// job.
    fn hostile_job(&mut self) -> Json {
        const BENCH: &str = r#"{"kind":"benchmark","app":"acoustic","n":8,"iterations":1}"#;
        const BASES: &[&str] = &[
            BENCH,
            r#"{"kind":"trace","app":"cloverleaf2d","n":8,"iterations":1}"#,
            r#"{"kind":"figure","figure":8}"#,
            r#"{"kind":"analyze","app":"acoustic"}"#,
        ];
        let bad_count = [
            Json::Num(-1.0),
            Json::Num(0.5),
            Json::Num(1e300),
            Json::Num(-1e300),
            Json::Str("8".into()),
            Json::Bool(true),
            Json::Null,
            Json::Arr(vec![Json::Num(8.0)]),
        ];
        let not_a_name = [
            Json::Str("nope".into()),
            Json::Str(String::new()),
            Json::Num(1.0),
            Json::Null,
            Json::Arr(vec![]),
            Json::Obj(vec![]),
        ];
        let (base, field, value) = match self.below(6) {
            0 => (*self.pick(BASES), "kind", self.pick(&not_a_name).clone()),
            1 => (
                *self.pick(&BASES[..2]),
                "app",
                self.pick(&not_a_name).clone(),
            ),
            2 => {
                let field = *self.pick(&["n", "iterations", "ranks"]);
                let mut bad = bad_count.to_vec();
                bad.push(Json::Num(0.0));
                (*self.pick(&BASES[..2]), field, self.pick(&bad).clone())
            }
            3 => {
                let mut bad = bad_count.to_vec();
                bad.extend([2.0, 10.0, 259.0, 1e15].map(Json::Num));
                (BASES[2], "figure", self.pick(&bad).clone())
            }
            // A plan that is not an object (`null` means no plan).
            4 => {
                let bad = [&not_a_name[..3], &[Json::Bool(false)]].concat();
                (BENCH, "plan", self.pick(&bad).clone())
            }
            // A placement that names no policy, or any placement on this
            // in-process run (`null` means the default).
            _ => {
                let mut bad = not_a_name.to_vec();
                bad[3] = Json::Str("packed".into());
                (BENCH, "placement", self.pick(&bad).clone())
            }
        };
        let Json::Obj(mut fields) = parse(base).expect("base jobs parse") else {
            unreachable!("base jobs are objects")
        };
        fields.retain(|(k, _)| k != field);
        fields.push((field.to_string(), value));
        Json::Obj(fields)
    }

    /// A well-formed request and its bytes. Bodies may hold CRLFs and
    /// multi-byte characters, so only `Content-Length` can end them.
    fn request(&mut self) -> (Request, Vec<u8>) {
        let method = *self.pick(&["GET", "POST", "PUT", "DELETE"]);
        let path = *self.pick(&["/job", "/healthz", "/stats", "/trace/7", "/"]);
        let body = match self.below(4) {
            0 => String::new(),
            1 => self.json(3).to_string(),
            2 => "a\r\n\r\nGET / HTTP/1.1\r\n\r\n\u{e9}".to_string(),
            _ => self.noise(),
        };
        let mut headers: Vec<(String, String)> = Vec::new();
        for (k, v) in [
            ("Host", "127.0.0.1:8077"),
            ("Connection", "keep-alive"),
            ("Accept", "*/*"),
            ("X-Empty", ""),
        ] {
            if self.below(2) == 0 {
                headers.push((k.into(), v.into()));
            }
        }
        if !body.is_empty() || self.below(2) == 0 {
            let at = self.below(headers.len() + 1);
            headers.insert(at, ("Content-Length".into(), body.len().to_string()));
        }
        let mut wire = format!("{method} {path} HTTP/1.1\r\n");
        for (k, v) in &headers {
            wire.push_str(&format!("{k}:{}{v}\r\n", self.pick(&["", " ", "  "])));
        }
        wire.push_str("\r\n");
        wire.push_str(&body);
        let request = Request {
            method: method.into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            headers,
            body,
        };
        (request, wire.into_bytes())
    }

    /// A head biased towards HTTP punctuation and framing headers, with or
    /// without its blank line, then maybe some body bytes.
    fn garbage_head(&mut self) -> Vec<u8> {
        const PIECES: &[&str] = &[
            "GET",
            "POST",
            " ",
            "/",
            "HTTP/1.1",
            "HTTP/1.0",
            "\r\n",
            "\r",
            "\n",
            ":",
            "Content-Length",
            "Transfer-Encoding: chunked",
            "Connection: close",
            "+",
            "-",
            "0",
            "5",
            "18446744073709551616",
            "\u{e9}",
        ];
        let mut bytes = Vec::new();
        for _ in 0..self.below(40) {
            if self.below(8) == 0 {
                bytes.push(self.next() as u8);
            } else {
                bytes.extend_from_slice(self.pick(PIECES).as_bytes());
            }
        }
        if self.below(2) == 0 {
            bytes.extend_from_slice(b"\r\n\r\n");
        }
        for _ in 0..self.below(16) {
            bytes.push(self.next() as u8);
        }
        bytes
    }
}

/// Feed `wire` to the framing in reads of random sizes, as a server does:
/// every request completed so far, in order, and the outcome that stopped
/// the feed (`Ok` with the bytes left over, or the first error).
fn feed(g: &mut Gen, wire: &[u8]) -> (Vec<Request>, Result<usize, String>) {
    let (mut buf, mut got, mut at) = (Vec::new(), Vec::new(), 0);
    while at < wire.len() {
        let n = 1 + g.below(wire.len() - at);
        buf.extend_from_slice(&wire[at..at + n]);
        at += n;
        loop {
            match parse_request(&buf) {
                Ok(Some((request, len))) => {
                    assert!(len > 0 && len <= buf.len(), "{len} of {}", buf.len());
                    buf.drain(..len);
                    got.push(request);
                }
                Ok(None) => break,
                Err(e) => return (got, Err(e)),
            }
        }
    }
    (got, Ok(buf.len()))
}

#[test]
fn two_requests_in_one_write_parse_as_two_in_order() {
    let wire = b"POST /job HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /stats HTTP/1.1\r\n\r\n";
    let (first, len) = parse_request(wire).unwrap().expect("first");
    assert_eq!((first.method.as_str(), first.body.as_str()), ("POST", "{}"));
    let (second, rest) = parse_request(&wire[len..]).unwrap().expect("second");
    assert_eq!(
        (second.method.as_str(), second.path.as_str()),
        ("GET", "/stats")
    );
    assert_eq!(len + rest, wire.len());
}

#[test]
fn framing_in_doubt_is_refused() {
    for head in [
        "POST /job HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
        "POST /job HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello",
        "POST /job HTTP/1.1\r\nContent-Length: 5 \r\nContent-Length: 2\r\n\r\nhello",
        "POST /job HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello",
        "POST /job HTTP/1.1\r\nContent-Length:\r\n\r\n",
        "POST /job HTTP/1.1\r\nContent-Length: 0x5\r\n\r\nhello",
        "POST /job HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n",
        "POST /job HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        "POST /job HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: identity\r\n\r\nhello",
    ] {
        assert!(parse_request(head.as_bytes()).is_err(), "accepted {head:?}");
    }
}

#[test]
fn base_jobs_and_containers_are_valid() {
    let mut g = Gen(1);
    for _ in 0..64 {
        let doc = g.container();
        assert!(parse(&doc).is_ok(), "{doc}");
    }
    let ok = r#"{"kind":"figure","figure":8}"#;
    assert!(Job::parse(&parse(ok).unwrap()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_never_panics_on_noise(seed in 0u64..u64::MAX) {
        let _ = parse(&Gen(seed).noise());
    }

    #[test]
    fn hostile_json_documents_are_refused(seed in 0u64..u64::MAX) {
        let doc = Gen(seed).hostile_document();
        let refused = parse(&doc);
        prop_assert!(refused.is_err(), "accepted {doc:?}");
        if doc.len() > 2 * MAX_DEPTH && doc[..MAX_DEPTH + 1].bytes().all(|b| b == b'[') {
            prop_assert_eq!(refused, Err(ParseError::TooDeep { at: MAX_DEPTH }));
        }
    }

    #[test]
    fn job_parse_never_panics_on_any_json(seed in 0u64..u64::MAX) {
        let body = Gen(seed).json(4);
        let _ = Job::parse(&body);
    }

    #[test]
    fn hostile_job_specs_are_refused(seed in 0u64..u64::MAX) {
        let body = Gen(seed).hostile_job();
        prop_assert!(Job::parse(&body).is_err(), "accepted {body}");
    }

    #[test]
    fn split_requests_parse_as_sent(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (sent, wires): (Vec<Request>, Vec<Vec<u8>>) =
            (0..1 + g.below(3)).map(|_| g.request()).unzip();
        let (got, rest) = feed(&mut g, &wires.concat());
        prop_assert_eq!(rest, Ok(0));
        prop_assert_eq!(got, sent);
    }

    #[test]
    fn truncated_requests_wait_for_more(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (_, wire) = g.request();
        let cut = g.below(wire.len());
        prop_assert_eq!(parse_request(&wire[..cut]), Ok(None));
    }

    #[test]
    fn garbage_heads_are_framed_the_same_however_split(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let wire = g.garbage_head();
        let whole = parse_request(&wire);
        let (got, rest) = feed(&mut g, &wire);
        match whole {
            Ok(None) => prop_assert_eq!((got.len(), rest), (0, Ok(wire.len()))),
            Ok(Some((request, len))) => {
                prop_assert_eq!(got.first(), Some(&request));
                if let Ok(rest) = rest {
                    prop_assert!(rest <= wire.len() - len);
                }
            }
            Err(e) => prop_assert_eq!((got.len(), rest), (0, Err(e))),
        }
    }
}
