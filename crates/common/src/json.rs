//! The workspace's one JSON codec: [`Doc`] and its serializer/parser
//! (no external dependency — the workspace's allowed-crate list has
//! `serde` but no `serde_json`, and the knowledge base needs exact
//! control over number round-tripping anyway). The store's snapshots
//! and WAL, obs's trace lines and metrics dumps, and serve's status
//! payloads all go through it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use crate::doc::Doc;

/// A JSON parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

/// Serialize a document to compact JSON.
pub fn to_json(doc: &Doc) -> String {
    let mut out = String::new();
    write_doc(doc, &mut out);
    out
}

fn write_doc(doc: &Doc, out: &mut String) {
    match doc {
        Doc::Null => out.push_str("null"),
        Doc::Bool(true) => out.push_str("true"),
        Doc::Bool(false) => out.push_str("false"),
        // Writing into a `String` cannot fail.
        Doc::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Doc::F64(v) => {
            if v.is_finite() {
                let _ = write!(out, "{v:?}"); // Debug prints a lossless float
            } else {
                // JSON has no NaN/Inf: encode as null (Mongo does the same
                // on strict export).
                out.push_str("null");
            }
        }
        Doc::Str(s) => write_string(s, out),
        Doc::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_doc(item, out);
            }
            out.push(']');
        }
        Doc::Obj(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_doc(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// Deepest container nesting [`from_json`] accepts. The parser
/// recurses once per level, so unbounded input nesting would overflow
/// the stack; every document the workspace writes is far shallower.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Arrays and objects nested more than
/// [`MAX_DEPTH`] (128) levels deep are a [`ParseError`].
pub fn from_json(input: &str) -> Result<Doc> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let doc = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(doc)
}

fn err(pos: usize, message: &str) -> ParseError {
    ParseError { offset: pos, message: message.to_string() }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value inside `depth` enclosing containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Doc> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err(*pos, "nesting too deep")),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Doc::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Doc::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Doc::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Doc::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Doc) -> Result<Doc> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

/// Parse a number in one pass over the RFC 8259 grammar
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`. A leading
/// `+`, a leading zero, a bare `.` or exponent, and a value that
/// overflows `f64` are errors. Integers that do not fit `i64` fall back
/// to `f64` (matching JS semantics).
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Doc> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => {
            *pos += 1;
            if bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                return Err(err(*pos, "invalid number: leading zero"));
            }
        }
        Some(b'1'..=b'9') => skip_digits(bytes, pos),
        _ => return Err(err(*pos, "invalid number: expected a digit")),
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        is_float = true;
        expect_digits(bytes, pos, "invalid number: expected a digit after '.'")?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        is_float = true;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        expect_digits(bytes, pos, "invalid number: expected an exponent digit")?;
    }
    // The grammar above admits only ASCII.
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| err(start, "invalid utf-8 in number"))?;
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Doc::I64(v));
        }
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Doc::F64(v)),
        Ok(_) => Err(err(start, "number out of range")),
        Err(_) => Err(err(start, "invalid number")),
    }
}

fn skip_digits(bytes: &[u8], pos: &mut usize) {
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
}

/// Skip one or more digits, or fail with `message`.
fn expect_digits(bytes: &[u8], pos: &mut usize, message: &str) -> Result<()> {
    let from = *pos;
    skip_digits(bytes, pos);
    if *pos == from {
        return Err(err(from, message));
    }
    Ok(())
}

/// Parse a string literal in time linear in its length: each run of
/// plain bytes up to the next quote or backslash is validated and
/// copied once. Both delimiters are ASCII, and ASCII bytes never occur
/// inside a multi-byte UTF-8 sequence, so a run always ends on a
/// character boundary.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
            *pos += 1;
        }
        let run = std::str::from_utf8(&bytes[start..*pos])
            .map_err(|e| err(start + e.valid_up_to(), "invalid utf-8"))?;
        out.push_str(run);
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            _ => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| err(*pos, "truncated or bad \\u escape"))?;
                        let code = hex.iter().fold(0u32, |acc, &h| {
                            acc * 16 + char::from(h).to_digit(16).unwrap_or(0)
                        });
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Doc> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Doc::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Doc::Arr(items));
            }
            _ => return Err(err(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Doc> {
    *pos += 1; // consume '{'
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Doc::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Doc::Obj(map));
            }
            _ => return Err(err(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check;
    use crate::check::gens::escape_heavy_string;
    use crate::SintelRng;

    #[test]
    fn roundtrip_scalars() {
        for doc in [
            Doc::Null,
            Doc::Bool(true),
            Doc::Bool(false),
            Doc::I64(-42),
            Doc::I64(i64::MAX),
            Doc::F64(3.25),
            Doc::F64(-0.001),
            Doc::Str("hello world".into()),
        ] {
            assert_eq!(from_json(&to_json(&doc)).unwrap(), doc, "{doc:?}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let doc = Doc::obj()
            .with("signal", "S-1")
            .with("events", vec![Doc::obj().with("start", 10i64).with("score", 0.93)])
            .with("tags", vec!["confirmed", "seen before"])
            .with("nested", Doc::obj().with("deep", Doc::from(vec![1i64, 2, 3])));
        assert_eq!(from_json(&to_json(&doc)).unwrap(), doc);
    }

    #[test]
    fn string_escapes() {
        let doc = Doc::Str("line1\nline2\t\"quoted\" \\slash\u{0001}".into());
        let json = to_json(&doc);
        assert!(json.contains("\\n") && json.contains("\\\"") && json.contains("\\u0001"));
        assert_eq!(from_json(&json).unwrap(), doc);
    }

    #[test]
    fn unicode_roundtrip() {
        let doc = Doc::Str("télémétrie 信号 🚀".into());
        assert_eq!(from_json(&to_json(&doc)).unwrap(), doc);
        // Parse a \u escape directly.
        assert_eq!(from_json(r#""A""#).unwrap(), Doc::Str("A".into()));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_json(&Doc::F64(f64::NAN)), "null");
        assert_eq!(to_json(&Doc::F64(f64::INFINITY)), "null");
    }

    #[test]
    fn parse_whitespace_tolerant() {
        let doc = from_json("  {\n\t\"a\" : [ 1 , 2.5 ] ,\"b\": null }  ").unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("b"), Some(&Doc::Null));
    }

    #[test]
    fn parse_errors_reported_with_offset() {
        for bad in ["{", "[1,", "\"unterminated", "{\"a\" 1}", "tru", "1.2.3", "", "[1] x"] {
            let e = from_json(bad).unwrap_err();
            assert!(matches!(e, ParseError { .. }), "{bad}: {e:?}");
        }
    }

    #[test]
    fn non_rfc_numbers_are_parse_errors() {
        for bad in [
            "+1", ".5", "01", "-01", "1.", "-.5", "-", "1e", "1e+", "1.e5", "1e400", "-1e400",
            "1E309", "[1e400]", "00", "0x10",
        ] {
            assert!(matches!(from_json(bad), Err(ParseError { .. })), "{bad}");
        }
        for (good, want) in [
            ("0", Doc::I64(0)),
            ("-0", Doc::I64(0)),
            ("-0.0", Doc::F64(-0.0)),
            ("10", Doc::I64(10)),
            ("1.5e3", Doc::F64(1500.0)),
            ("2E-2", Doc::F64(0.02)),
            ("1e+2", Doc::F64(100.0)),
            ("1e-400", Doc::F64(0.0)),
            ("9223372036854775808", Doc::F64(9223372036854775808.0)),
        ] {
            assert_eq!(from_json(good).unwrap(), want, "{good}");
        }
    }

    /// Every number the writer emits (`{v:?}` for finite `f64`, `{v}`
    /// for `i64`) parses back to the same bits.
    #[test]
    fn prop_written_numbers_roundtrip_bitwise() {
        check::forall(
            "from_json(to_json(number)) is bitwise identity",
            &check::Config::default().cases(2048),
            |rng| {
                let bits = rng.next_u64();
                let f = match rng.index(4) {
                    // Any finite bit pattern: subnormals, extremes, -0.0.
                    0 | 1 => f64::from_bits(bits),
                    2 => rng.uniform_range(-1e6, 1e6),
                    _ => (bits >> 40) as f64 * if rng.chance(0.5) { 1e-7 } else { 1e15 },
                };
                (if f.is_finite() { f } else { -0.0 }, bits as i64)
            },
            check::shrinks::none,
            |&(f, i)| {
                match from_json(&to_json(&Doc::F64(f))) {
                    Ok(Doc::F64(g)) if g.to_bits() == f.to_bits() => {}
                    other => return Err(format!("{f:?} came back as {other:?}")),
                }
                match from_json(&to_json(&Doc::I64(i))) {
                    Ok(Doc::I64(j)) if j == i => Ok(()),
                    other => Err(format!("{i} came back as {other:?}")),
                }
            },
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(from_json("[]").unwrap(), Doc::Arr(vec![]));
        assert_eq!(from_json("{}").unwrap(), Doc::obj());
        assert_eq!(to_json(&Doc::Arr(vec![])), "[]");
        assert_eq!(to_json(&Doc::obj()), "{}");
    }

    /// Characters exercising the escaper: alphanumerics plus quotes,
    /// backslashes and control characters.
    const STR_CHARS: &[char] = &[
        'a', 'Z', '0', '9', ' ', '_', '-', '"', '\\', '\n', '\t', 'é', '…',
    ];

    fn random_string(rng: &mut SintelRng, max_len: usize) -> String {
        let len = rng.index(max_len + 1);
        (0..len).map(|_| *rng.choice(STR_CHARS)).collect()
    }

    fn random_key(rng: &mut SintelRng) -> String {
        let len = 1 + rng.index(8);
        (0..len).map(|_| (b'a' + rng.index(26) as u8) as char).collect()
    }

    /// Random document with nesting up to `depth`; mirrors the old
    /// property-test strategy (scalar leaves, arrays, objects).
    fn random_doc(rng: &mut SintelRng, depth: usize) -> Doc {
        let variants = if depth == 0 { 5 } else { 7 };
        match rng.index(variants) {
            0 => Doc::Null,
            1 => Doc::Bool(rng.chance(0.5)),
            2 => Doc::I64(rng.next_u64() as i64),
            3 => Doc::F64(rng.uniform_range(-1e15, 1e15)),
            4 => Doc::Str(random_string(rng, 20)),
            5 => {
                let n = rng.index(6);
                Doc::Arr((0..n).map(|_| random_doc(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.index(6);
                let mut map = std::collections::BTreeMap::new();
                for _ in 0..n {
                    let key = random_key(rng);
                    let child = random_doc(rng, depth - 1);
                    map.insert(key, child);
                }
                Doc::Obj(map)
            }
        }
    }

    /// A bare string, an array of strings or an object of string keys
    /// and values: every proper prefix of its encoding is incomplete.
    fn random_string_doc(rng: &mut SintelRng) -> Doc {
        match rng.index(3) {
            0 => Doc::Str(escape_heavy_string(rng)),
            1 => Doc::Arr((0..rng.index(4)).map(|_| Doc::Str(escape_heavy_string(rng))).collect()),
            _ => Doc::Obj(
                (0..rng.index(4))
                    .map(|_| (escape_heavy_string(rng), Doc::Str(escape_heavy_string(rng))))
                    .collect(),
            ),
        }
    }

    #[test]
    fn prop_string_roundtrip_and_truncation() {
        check::forall(
            "json string round trip + truncations",
            &check::Config::default().cases(96),
            random_string_doc,
            check::shrinks::none,
            |doc| {
                let json = to_json(doc);
                let back = from_json(&json).map_err(|e| format!("{json:?}: {e}"))?;
                if &back != doc {
                    return Err(format!("round trip changed {doc:?} into {back:?}"));
                }
                for cut in (0..json.len()).filter(|&i| json.is_char_boundary(i)) {
                    match from_json(&json[..cut]) {
                        Err(ParseError { .. }) => {}
                        other => return Err(format!("prefix {cut} of {json:?}: {other:?}")),
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 256 KiB in one string: a parser quadratic in string length
        // would need ~3·10^10 byte checks here (minutes); a linear one
        // takes milliseconds.
        let long = "x".repeat(1 << 18) + "é\"" + &"y".repeat(1 << 10);
        let json = to_json(&Doc::from(long.as_str()));
        assert_eq!(from_json(&json).unwrap(), Doc::Str(long));
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        for nested in [arrays, objects] {
            assert!(from_json(&nested(MAX_DEPTH)).is_ok());
            let e = from_json(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(matches!(e, ParseError { .. }), "{e:?}");
        }
        // Deep enough to overflow the stack without the bound.
        let e = from_json(&"[".repeat(1_000_000)).unwrap_err();
        assert!(matches!(e, ParseError { .. }), "{e:?}");
    }

    #[test]
    fn bad_unicode_escapes_are_parse_errors() {
        for bad in [r#""\u12""#, r#""\u+123""#, r#""\uzzzz""#, r#""\u"#, r#""\q""#] {
            assert!(matches!(from_json(bad), Err(ParseError { .. })), "{bad}");
        }
        assert_eq!(from_json(r#""\u00e9\/""#).unwrap(), Doc::Str("é/".into()));
    }

    #[test]
    fn prop_roundtrip() {
        let mut rng = SintelRng::seed_from_u64(0x7111);
        for _ in 0..512 {
            let doc = random_doc(&mut rng, 3);
            let json = to_json(&doc);
            let parsed = from_json(&json).unwrap();
            assert_eq!(parsed, doc);
        }
    }
}
