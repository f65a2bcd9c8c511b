//! A deliberately tiny JSON value type, writer, and parser.
//!
//! The observability layer must stay offline-safe and zero-dependency,
//! so it carries its own JSON machinery: just enough to write one event
//! per line deterministically and to read run manifests back for
//! `inspect-trace`.
//!
//! Determinism rules (they back the golden-manifest test tier):
//!
//! * Object keys are written in insertion order — every producer in
//!   this workspace inserts keys in a fixed order, so equal values
//!   serialize to equal bytes.
//! * Finite `f64`s are written with Rust's shortest-roundtrip `{}`
//!   formatting; equal bits give equal text.
//! * Non-finite `f64`s (JSON has no literal for them) are written as
//!   the strings `"inf"`, `"-inf"`, and `"nan"`; the parser folds them
//!   back into numbers on request via [`Json::as_f64`].

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: a number, or one of the non-finite marker strings
    /// (`"inf"`, `"-inf"`, `"nan"`) written by [`write_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// Non-negative integer view (rejects fractional and negative).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_json(&mut s, self);
        f.write_str(&s)
    }
}

/// Append the JSON escape of `s` (with quotes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append `v` to `out`: finite numbers via shortest-roundtrip `{}`
/// formatting, non-finite as the `"inf"` / `"-inf"` / `"nan"` strings.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Append `x` in decimal, byte-identical to `{}` formatting. The
/// digits are produced right to left into a stack buffer, so no
/// formatter runs and nothing is allocated: serving responses print
/// one of these per row.
pub fn write_usize(out: &mut String, mut x: usize) {
    // `usize::MAX` has 20 decimal digits on 64-bit targets.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend(buf[at..].iter().map(|&b| char::from(b)));
}

/// Append a `usize` array.
pub fn write_usize_arr(out: &mut String, xs: &[usize]) {
    out.reserve(2 * xs.len() + 2);
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_usize(out, x);
    }
    out.push(']');
}

/// Append an `f64` array (same number formatting as [`write_f64`]).
pub fn write_f64_arr(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, x);
    }
    out.push(']');
}

/// Append a [`Json`] value (used for manifests, where values are built
/// dynamically rather than through the typed event writer).
pub fn write_json(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_f64(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json(out, item);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, k);
                out.push(':');
                write_json(out, val);
            }
            out.push('}');
        }
    }
}

/// A parse failure: byte offset plus reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is not.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content"));
    }
    Ok(value)
}

fn err(at: usize, reason: impl ToString) -> JsonError {
    JsonError {
        at,
        reason: reason.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected {:?}", c as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected {lit:?}")))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "bad utf8"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, format!("bad number {text:?}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not produced by our writer;
                        // map unpaired ones to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "bad utf8"))?;
                let Some(c) = rest.chars().next() else {
                    return Err(err(*pos, "unterminated string"));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) -> Json {
        let mut s = String::new();
        write_json(&mut s, v);
        parse(&s).unwrap()
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-17.5),
            Json::Num(1e300),
            Json::Str("plain".into()),
            Json::Str("quo\"te\\back\nnl\ttab\u{1}ctl".into()),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn containers_roundtrip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b".into(), Json::Obj(vec![("c".into(), Json::Bool(true))])),
            ("empty".into(), Json::Arr(vec![])),
            ("none".into(), Json::Obj(vec![])),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn non_finite_floats_survive_as_markers() {
        let mut s = String::new();
        write_f64_arr(&mut s, &[1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        let parsed = parse(&s).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr[0].as_f64().unwrap(), 1.5);
        assert_eq!(arr[1].as_f64().unwrap(), f64::INFINITY);
        assert_eq!(arr[2].as_f64().unwrap(), f64::NEG_INFINITY);
        assert!(arr[3].as_f64().unwrap().is_nan());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 42, "name": "x", "ok": true, "xs": [1, 2]}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_usize(), Some(42));
        assert_eq!(v.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("01a").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn integers_match_display_formatting() {
        let xs = [
            0,
            1,
            9,
            10,
            11,
            99,
            100,
            101,
            999,
            1_000,
            65_535,
            u32::MAX as usize,
            u32::MAX as usize + 1,
            usize::MAX - 1,
            usize::MAX,
        ];
        for &x in &xs {
            let mut s = String::new();
            write_usize(&mut s, x);
            assert_eq!(s, format!("{x}"));
        }
        let mut s = String::from("prefix");
        write_usize_arr(&mut s, &xs);
        let want: Vec<String> = xs.iter().map(|x| format!("{x}")).collect();
        assert_eq!(s, format!("prefix[{}]", want.join(",")));
        let mut empty = String::new();
        write_usize_arr(&mut empty, &[]);
        assert_eq!(empty, "[]");
    }

    #[test]
    fn floats_match_display_formatting() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -17.5,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::EPSILON,
            1e-300,
            1e21,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            9_007_199_254_740_993.0,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            assert_eq!(s, format!("{v}"), "bits {:#x}", v.to_bits());
        }
    }

    #[test]
    fn control_characters_escape_as_four_hex_digits() {
        let mut s = String::new();
        write_str(&mut s, "a\u{1}\u{1f}\u{0}b");
        assert_eq!(s, "\"a\\u0001\\u001f\\u0000b\"");
    }

    #[test]
    fn deterministic_serialization() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Num(1.0)),
            ("a".into(), Json::Num(2.0)),
        ]);
        let mut s1 = String::new();
        let mut s2 = String::new();
        write_json(&mut s1, &v);
        write_json(&mut s2, &v);
        assert_eq!(s1, s2);
        // Insertion order preserved, not alphabetized.
        assert!(s1.find("\"z\"").unwrap() < s1.find("\"a\"").unwrap());
    }
}
