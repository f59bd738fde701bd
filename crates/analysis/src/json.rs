//! The workspace's one JSON parser.
//!
//! The workspace is offline (no serde); this is the subset of JSON its
//! readers need — the trial service's request bodies and the BENCH
//! documents ([`crate::bench_doc`]): objects, arrays, strings with the
//! standard escapes, exact `u64` integers, f64 numbers, booleans and
//! null, with byte offsets in errors so a 400 response can point at the
//! problem. Writing does not go through this module — service responses
//! and BENCH documents are format-string built, which keeps their field
//! order and float formatting deterministic.

use std::collections::BTreeMap;

/// A parsed JSON value. Objects keep a sorted map — key lookup is what
/// the decoders do with them, and duplicate keys are rejected at parse
/// time rather than silently last-wins.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits u64, kept exact — the
    /// service reports `f64` bit patterns as integers, and routing them
    /// through `f64` would corrupt the low bits. Note the derived
    /// equality distinguishes `UInt(7)` from `Num(7.0)`; compare through
    /// the accessors.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: what went wrong and the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Member of an object (`None` for absent keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if it is a number (integers convert, possibly
    /// rounding above 2^53).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with an
    /// exact u64 representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            // The upper bound is strict: `u64::MAX as f64` rounds up to
            // 2^64, which is not representable as u64.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object's keys, if this is an object.
    pub fn keys(&self) -> Option<impl Iterator<Item = &str>> {
        match self {
            Json::Obj(m) => Some(m.keys().map(|k| k.as_str())),
            _ => None,
        }
    }
}

/// Recursion cap: request bodies and BENCH documents are shallow; a
/// deeply nested body is hostile input, not a use case.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            msg: msg.into(),
            at: self.i,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii slice");
        // Plain integer literals stay exact; everything else is f64.
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        let x: f64 = text
            .parse()
            .map_err(|_| self.err(format!("malformed number {text:?}")))?;
        if !x.is_finite() {
            return Err(self.err(format!("non-finite number {text:?}")));
        }
        Ok(Json::Num(x))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("malformed \\u escape"))?;
                            self.i += 4;
                            // Surrogates are rejected rather than paired:
                            // request fields are ASCII identifiers.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err(format!("unknown escape \\{}", esc as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are valid).
                    let s = std::str::from_utf8(&self.b[self.i..]).expect("input was str");
                    let ch = s.chars().next().expect("non-empty");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if m.insert(key.clone(), val).is_some() {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".into())
        );
        let v = Json::parse(r#"{"n": 100, "tags": ["a", "b"], "deep": {"x": null}}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(100));
        assert_eq!(
            v.get("tags").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(v.get("deep").and_then(|d| d.get("x")), Some(&Json::Null));
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn integer_coercion_is_exact() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7.5").unwrap().as_f64(), Some(7.5));
        // Integer literals survive exactly even beyond 2^53 — the whole
        // point of the UInt variant (energy bit patterns ride on it).
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(
            Json::parse("4607182418800017409").unwrap().as_u64(),
            Some(4607182418800017409)
        );
        // Past u64 it degrades to f64 and exactness is gone.
        assert_eq!(Json::parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            "tru",
            "1e999",
            "nan",
            r#"{"a":1,"a":2}"#,
            "[1] x",
            "\"unterminated",
            "\"bad \\q escape\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err(), "accepted hostile nesting");
    }

    #[test]
    fn errors_carry_offsets() {
        let e = Json::parse(r#"{"a": nope}"#).unwrap_err();
        assert_eq!(e.at, 6);
        assert!(e.to_string().contains("at byte 6"));
    }
}
