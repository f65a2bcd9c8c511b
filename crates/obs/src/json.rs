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

/// 2^64, the first integer a `u64` cannot hold.
const U64_END: f64 = 18_446_744_073_709_551_616.0;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer below 2^64, held exactly.
    Int(u64),
    /// Any other number: [`parse`] yields it for negative, fractional
    /// and 2^64-or-larger values, writers may hold any `f64` here.
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
            Json::Int(x) => Some(*x as f64),
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

    /// Exact non-negative integer view: rejects fractional, negative,
    /// and 2^64 and above.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(x) => Some(*x),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < U64_END => Some(*v as u64),
            _ => None,
        }
    }

    /// [`Json::as_u64`], narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|x| usize::try_from(x).ok())
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
        Json::Int(x) => {
            let _ = write!(out, "{x}");
        }
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

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace writes nest at most four levels; the bound keeps the
/// recursive descent's stack use fixed whatever the input holds.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// content is not.
///
/// A non-negative integer below 2^64 is read as [`Json::Int`], exact
/// when its literal is all digits (`5.0` or `1e2` go through `f64`
/// first); any other number is a [`Json::Num`]. Numbers follow RFC
/// 8259's grammar (no `+2`, `.5`, `1.` or `01`). A number beyond the
/// `f64` range and nesting deeper than 128 levels are rejected. Time is
/// linear in the input length.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(err(p.pos, "trailing content"));
    }
    Ok(value)
}

fn err(at: usize, reason: impl ToString) -> JsonError {
    JsonError {
        at,
        reason: reason.to_string(),
    }
}

/// Recursive-descent state: the input, the read offset and the number
/// of arrays and objects open around it.
struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.pos, format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => Err(err(self.pos, "unexpected end of input")),
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(err(
                        self.pos,
                        format!("nesting deeper than {MAX_DEPTH} levels"),
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' { self.obj() } else { self.arr() };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.num(),
        }
    }

    fn lit(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(err(self.pos, format!("expected {lit:?}")))
        }
    }

    /// One number, spelled as RFC 8259 allows:
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    /// A spelling outside it fails at the first byte that breaks it.
    fn num(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(err(self.pos, "digit after a leading zero"));
            }
        } else {
            self.digits("a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("a digit after '.'")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("an exponent digit")?;
        }
        // The scanned bytes are ASCII, so the slice is on char bounds.
        let text = &self.src[start..self.pos];
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(x) = text.parse::<u64>() {
                return Ok(Json::Int(x));
            }
        }
        let v = text
            .parse::<f64>()
            .map_err(|_| err(start, format!("bad number {text:?}")))?;
        if !v.is_finite() {
            return Err(err(start, format!("number {text:?} is out of range")));
        }
        if v.fract() == 0.0 && v.is_sign_positive() && v < U64_END {
            Ok(Json::Int(v as u64))
        } else {
            Ok(Json::Num(v))
        }
    }

    /// Skip a run of ASCII digits; an empty run is an error that
    /// names `what` was expected.
    fn digits(&mut self, what: &str) -> Result<(), JsonError> {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(err(self.pos, format!("expected {what}")));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // are ASCII, so the run ends on a char boundary of `src`.
            let run = self.pos;
            let len = self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| err(self.bytes.len(), "unterminated string"))?;
            self.pos += len;
            out.push_str(&self.src[run..self.pos]);
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let c = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    let code = self.bytes[self.pos + 1..]
                        .get(..4)
                        .and_then(|hex| {
                            hex.iter()
                                .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
                        })
                        .ok_or_else(|| err(self.pos, "bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogates are not produced by our writer; map
                    // them to the replacement char.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(err(self.pos, "bad escape")),
            };
            out.push(c);
            self.pos += 1;
        }
    }

    fn arr(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(err(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(err(self.pos, "expected ',' or '}'")),
            }
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
            Json::Int(0),
            Json::Int(u64::MAX),
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
            ("a".into(), Json::Arr(vec![Json::Int(1), Json::Null])),
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
    fn digit_only_integers_read_exactly() {
        for x in [0, 1, (1 << 53) + 1, 11_400_714_819_323_198_502, u64::MAX] {
            let v = parse(&x.to_string()).unwrap();
            assert_eq!(v, Json::Int(x));
            assert_eq!(v.as_u64(), Some(x));
        }
        // 2^64 and above are numbers, but no integer view holds them.
        for text in ["18446744073709551616", "1e20"] {
            let v = parse(text).unwrap();
            assert!(matches!(v, Json::Num(_)), "{text}");
            assert_eq!(v.as_u64(), None, "{text}");
            assert_eq!(v.as_usize(), None, "{text}");
        }
        assert_eq!(Json::Num(18_446_744_073_709_551_616.0).as_u64(), None);
        // An integral value in another spelling is still an integer;
        // `-0` stays a float so it writes back as `-0`.
        assert_eq!(parse("5.0").unwrap(), Json::Int(5));
        assert_eq!(parse("1e2").unwrap(), Json::Int(100));
        assert!(parse("-0").unwrap().as_f64().unwrap().is_sign_negative());
        // An integral float written out reads back with the same value.
        let mut s = String::new();
        write_json(&mut s, &Json::Num(1_152_921_504_606_846_976.0));
        assert_eq!(
            parse(&s).unwrap().as_f64(),
            Some(1_152_921_504_606_846_976.0)
        );
    }

    #[test]
    fn number_spellings_outside_the_json_grammar_fail_where_they_break() {
        for (text, at) in [
            ("+2", 0),
            (".5", 0),
            ("-.5", 1),
            ("-", 1),
            ("1.", 2),
            ("1.e3", 2),
            ("01", 1),
            ("-00", 2),
            ("1e", 2),
            ("1e+", 3),
            ("[1, 2.x]", 6),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.at, at, "{text}: {e}");
        }
        // Every spelling the grammar allows still reads.
        for (text, value) in [
            ("0", 0.0),
            ("-0.5", -0.5),
            ("10", 10.0),
            ("2.50", 2.5),
            ("1E+2", 100.0),
            ("25e-1", 2.5),
            ("-0e0", 0.0),
        ] {
            assert_eq!(parse(text).unwrap().as_f64(), Some(value), "{text}");
        }
    }

    #[test]
    fn numbers_beyond_f64_are_rejected_where_they_start() {
        assert_eq!(parse("[1, 1e999]").unwrap_err().at, 4);
        assert_eq!(parse("-1e999").unwrap_err().at, 0);
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
        assert!(e.reason.contains("nesting"), "{e}");
        // A bomb far past the bound fails at the same place, not on the
        // stack.
        let bomb = "{\"a\":".repeat(100_000);
        assert_eq!(parse(&bomb).unwrap_err().at, 5 * MAX_DEPTH);
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        let body = "é".repeat(2 << 20); // 4 MiB of two-byte chars.
        let v = parse(&format!("{{\"s\":\"{body}\\n\"}}")).unwrap();
        let s = v.get("s").unwrap().as_str().unwrap();
        assert_eq!(s.len(), body.len() + 1);
        assert!(s.ends_with("é\n"));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""\u00e9x""#).unwrap(), Json::Str("éx".into()));
        assert_eq!(parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
        for bad in [r#""\u12""#, r#""\u+123""#, r#""\uzzzz""#, "\"\\"] {
            let e = parse(bad).unwrap_err();
            assert!(e.at <= bad.len(), "{bad}: {e}");
        }
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
