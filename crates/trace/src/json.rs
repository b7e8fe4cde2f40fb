//! The workspace's one JSON module: the [`Json`] value, its writer, its
//! parser and the Chrome `trace_event` schema check.
//!
//! The workspace has no serialization library. Every document it hands
//! out (analyzer reports, optimisation plans, served payloads, Perfetto
//! traces) is a [`Json`] value printed by its `Display`, so escaping,
//! number formatting and non-finite handling live here and nowhere else.
//! The recursive-descent [`parse`] reads request bodies and plan files,
//! and round-trips exported traces for the schema tests and the CI
//! trace-smoke gate.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order via a Vec so that
/// `to_string` round-trips byte-identically for our own output.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key in an object (None for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact count: non-negative, integral and at most
    /// 2^53, past which an f64 no longer holds every integer. Anything else
    /// is `None`, so a caller refuses it rather than rounds it (`as` would
    /// saturate 1e300 to `usize::MAX`).
    pub fn as_usize(&self) -> Option<usize> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        self.as_f64()
            .filter(|n| n.fract() == 0.0 && (0.0..=MAX_EXACT).contains(n))
            .map(|n| n as usize)
    }

    fn write(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            // JSON has no literal for NaN or infinity.
            Json::Num(n) if !n.is_finite() => out.write_str("null"),
            Json::Num(n) if *n == n.trunc() && n.abs() < 1e15 => write!(out, "{}", *n as i64),
            Json::Num(n) => write!(out, "{n}"),
            Json::Str(s) => write_str_literal(out, s),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_str_literal(out, k)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// `s` as a quoted JSON string literal: the workspace's one escape routine.
fn write_str_literal(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// An object from key → value pairs, in order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

/// Counts and ids: exact up to 2^53, which no count here approaches.
macro_rules! from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
from_uint!(u8, u16, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.into())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Collects into an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl From<&[String]> for Json {
    fn from(items: &[String]) -> Json {
        items.iter().map(|s| s.as_str().into()).collect()
    }
}

/// Compact serialization: the workspace's one JSON writer (round-trips
/// [`parse`] output).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// Arrays and objects nest at most this deep. The parser recurses once per
/// level, so without a cap a run of `[` in a request body overflows the
/// stack, which aborts the process instead of unwinding.
pub const MAX_DEPTH: usize = 128;

/// Why [`parse`] refused a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// An array or object opens at byte `at`, deeper than [`MAX_DEPTH`].
    TooDeep { at: usize },
    /// Any other malformed input: a short message with its byte offset.
    Syntax(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::TooDeep { at } => {
                write!(f, "nesting deeper than {MAX_DEPTH} at byte {at}")
            }
            ParseError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<&str> for ParseError {
    fn from(msg: &str) -> Self {
        ParseError::Syntax(msg.into())
    }
}

impl From<String> for ParseError {
    fn from(msg: String) -> Self {
        ParseError::Syntax(msg)
    }
}

impl From<ParseError> for String {
    fn from(e: ParseError) -> Self {
        e.to_string()
    }
}

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos).into());
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos).into())
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(ParseError::TooDeep { at: self.pos });
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos).into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos).into())
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        // JSON has no infinity: an out-of-range literal would not survive
        // a round trip through `Display`.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(format!("bad number at byte {start}").into()),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            // Surrogates are exporter-internal never-emitted;
                            // map them to the replacement char rather than
                            // implementing full pair decoding.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos).into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances by
                    // whole scalars, so it sits on a char boundary.
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid utf-8")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos).into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos).into()),
            }
        }
    }
}

/// Validate a document against the Chrome `trace_event` JSON Object Format:
/// a top-level object with a `traceEvents` array whose entries each carry a
/// valid `ph`, string `name`, numeric `pid`/`tid`, numeric `ts` (except
/// metadata), and — for `"X"` events — a numeric non-negative `dur`.
/// Returns the list of violations (empty = valid).
pub fn validate_chrome(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(events) = doc.get("traceEvents").and_then(|e| e.as_array()) else {
        problems.push("missing top-level 'traceEvents' array".into());
        return problems;
    };
    let mut seen_phases: BTreeMap<String, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let Some(ph) = e.get("ph").and_then(|p| p.as_str()) else {
            problems.push(format!("event {i}: missing 'ph'"));
            continue;
        };
        *seen_phases.entry(ph.to_owned()).or_insert(0) += 1;
        if !matches!(ph, "X" | "B" | "E" | "M" | "C" | "i" | "I") {
            problems.push(format!("event {i}: unknown phase '{ph}'"));
        }
        if e.get("name").and_then(|n| n.as_str()).is_none() {
            problems.push(format!("event {i}: missing string 'name'"));
        }
        for key in ["pid", "tid"] {
            if e.get(key).and_then(|v| v.as_f64()).is_none() {
                problems.push(format!("event {i}: missing numeric '{key}'"));
            }
        }
        if ph != "M" && e.get("ts").and_then(|v| v.as_f64()).is_none() {
            problems.push(format!("event {i}: missing numeric 'ts'"));
        }
        if ph == "X" {
            match e.get("dur").and_then(|v| v.as_f64()) {
                Some(d) if d >= 0.0 => {}
                Some(_) => problems.push(format!("event {i}: negative 'dur'")),
                None => problems.push(format!("event {i}: 'X' event without 'dur'")),
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_objects() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(parse(r#""a\"bA\n""#).unwrap(), Json::Str("a\"bA\n".into()));
        let v = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str().unwrap(), "x");
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64().unwrap(), 2.0);
        assert_eq!(arr[2].get("b").unwrap(), &Json::Bool(false));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("1e400").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)),
            Err(ParseError::TooDeep { at: MAX_DEPTH })
        );
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(matches!(parse(&objects), Err(ParseError::TooDeep { .. })));
        // Far past the cap: refused, not a stack overflow.
        let e = parse(&"[".repeat(100_000)).unwrap_err();
        assert_eq!(e, ParseError::TooDeep { at: MAX_DEPTH });
        assert!(e.to_string().contains("nesting deeper than 128"));
    }

    #[test]
    fn round_trips_compact_output() {
        let text = r#"{"displayTimeUnit":"ns","traceEvents":[{"ph":"X","name":"k \"q\"","ts":1.5,"dur":2,"pid":0,"tid":1,"args":{"bytes":4096}}]}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(parse(&Json::Num(n).to_string()), Ok(Json::Null));
        }
    }

    #[test]
    fn chrome_schema_validation() {
        let good = parse(
            r#"{"traceEvents":[
                {"ph":"M","name":"process_name","pid":0,"tid":0,"ts":0,"args":{"name":"rank 0"}},
                {"ph":"X","name":"loop","ts":0,"dur":5,"pid":0,"tid":0,"args":{}},
                {"ph":"C","name":"ctr","ts":1,"pid":0,"tid":0,"args":{"value":3}},
                {"ph":"i","name":"ev","ts":2,"s":"t","pid":0,"tid":0,"args":{}}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome(&good).is_empty());

        let bad =
            parse(r#"{"traceEvents":[{"ph":"X","name":"a","ts":0,"pid":0,"tid":0}]}"#).unwrap();
        assert_eq!(
            validate_chrome(&bad),
            vec!["event 0: 'X' event without 'dur'"]
        );
        let bad =
            parse(r#"{"traceEvents":[{"ph":"Z","ts":0,"pid":0,"tid":0,"name":"a"}]}"#).unwrap();
        assert_eq!(validate_chrome(&bad), vec!["event 0: unknown phase 'Z'"]);
        let bad = parse(r#"{"events":[]}"#).unwrap();
        assert!(validate_chrome(&bad)[0].contains("traceEvents"));
    }
}
