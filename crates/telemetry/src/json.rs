//! A minimal hand-rolled JSON subset: objects, arrays, strings, numbers
//! and booleans. That is all the workspace's artefacts need and serde is
//! not available offline; every JSON file it writes is a [`Json`] value
//! rendered here (one escaper, one parser). Plain unsigned integers stay
//! [`Json::Num`] (`u64`, lossless — 64-bit fault seeds never round-trip
//! through `f64`); anything signed, fractional, exponent-bearing or above
//! `u64::MAX` parses as [`Json::Float`] (gauges, rates, benchmark timings).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value (subset: no null).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Unsigned integer (covers every count the repro schema uses,
    /// including full-range u64 seeds).
    Num(u64),
    /// Any other number: signed, fractional or exponent-bearing.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

/// Deepest array/object nesting [`Json::parse`] follows (serde_json's
/// default): the parser recurses per level, and reports come from outside.
pub const MAX_DEPTH: usize = 128;

/// Why a document did not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Nested deeper than [`MAX_DEPTH`]; the byte where that happened.
    TooDeep(usize),
    /// Any other malformation, described with its byte position.
    Syntax(String),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::TooDeep(at) => write!(f, "over {MAX_DEPTH} levels deep at byte {at}"),
            JsonError::Syntax(msg) => f.write_str(msg),
        }
    }
}

impl From<String> for JsonError {
    fn from(msg: String) -> Self {
        JsonError::Syntax(msg)
    }
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `x` as [`parse`](Self::parse) reads `format!("{x:.places$}")` back —
    /// the rounding the reports apply to timings and rates (a whole
    /// non-negative result is a [`Json::Num`]; NaN and infinities are 0).
    pub fn fixed(x: f64, places: usize) -> Json {
        Json::parse(&format!("{x:.places$}")).unwrap_or(Json::Num(0))
    }

    /// The value as an integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a float, if it is any kind of number ([`Json::Num`]
    /// converts; > 2^53 loses precision, use [`as_u64`](Self::as_u64) for
    /// exact counts).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// A member of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Serializes with stable key order and 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Serializes on one physical line without whitespace — what a
    /// line-oriented file (JSONL, NDJSON) needs.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// The one writer: `indent` is the nesting level of an indented
    /// rendering, `None` for the one-line form.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        let (newline, comma, colon, pad, close_pad) = match indent {
            Some(level) => ("\n", ", ", ": ", "  ".repeat(level + 1), "  ".repeat(level)),
            None => ("", ",", ":", String::new(), String::new()),
        };
        let deeper = indent.map(|level| level + 1);
        match self {
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    let start = out.len();
                    let _ = write!(out, "{x}");
                    // `Display` prints `5.0` as "5"; keep the float shape
                    // so a round-trip stays a Float.
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    // JSON has no NaN/Infinity literal.
                    out.push('0');
                }
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Obj(map) if map.is_empty() => out.push_str("{}"),
            Json::Arr(items) => {
                // Arrays of scalars render on one line; nested ones wrap.
                let nested = |i: &Json| matches!(i, Json::Arr(_) | Json::Obj(_));
                if indent.is_none() || !items.iter().any(nested) {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(comma);
                        }
                        item.render_into(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push_str("[\n");
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(&pad);
                        item.render_into(out, deeper);
                        if i + 1 < items.len() {
                            out.push(',');
                        }
                        out.push('\n');
                    }
                    out.push_str(&close_pad);
                    out.push(']');
                }
            }
            Json::Obj(map) => {
                out.push('{');
                out.push_str(newline);
                for (i, (k, v)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    render_string(out, k);
                    out.push_str(colon);
                    v.render_into(out, deeper);
                    if i + 1 < map.len() {
                        out.push(',');
                    }
                    out.push_str(newline);
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (of the supported subset). Numbers, escapes
    /// and strings must be as RFC 8259 writes them: no leading zeros, no
    /// bare `.` or `e`, `\u` with four hex digits (a surrogate pair as two
    /// such escapes), no raw control characters.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing data at byte {pos}").into());
        }
        Ok(value)
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expected(what: &str, b: &[u8], pos: usize) -> String {
    let found = b.get(pos).map(|&x| x as char);
    format!("expected {what} at byte {pos} (found {found:?})")
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(expected(&format!("'{}'", c as char), b, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(JsonError::TooDeep(*pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string().into()),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(text, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(expected("',' or '}'", b, *pos).into()),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(expected("',' or ']'", b, *pos).into()),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(&c @ (b't' | b'f')) => {
            let word = if c == b't' { "true" } else { "false" };
            if b[*pos..].starts_with(word.as_bytes()) {
                *pos += word.len();
                Ok(Json::Bool(c == b't'))
            } else {
                Err(format!("bad literal at byte {pos}", pos = *pos).into())
            }
        }
        Some(&c) if c.is_ascii_digit() || c == b'-' => {
            // RFC 8259: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
            let start = *pos;
            let negative = c == b'-';
            if negative {
                *pos += 1;
            }
            match b.get(*pos) {
                Some(b'0') => *pos += 1,
                Some(b'1'..=b'9') => {
                    skip_digits(b, pos);
                }
                _ => return Err(expected("a digit", b, *pos).into()),
            }
            let mut integral = !negative;
            if b.get(*pos) == Some(&b'.') {
                *pos += 1;
                integral = false;
                if skip_digits(b, pos) == 0 {
                    return Err(expected("a fraction digit", b, *pos).into());
                }
            }
            if matches!(b.get(*pos), Some(b'e' | b'E')) {
                *pos += 1;
                integral = false;
                if matches!(b.get(*pos), Some(b'+' | b'-')) {
                    *pos += 1;
                }
                if skip_digits(b, pos) == 0 {
                    return Err(expected("an exponent digit", b, *pos).into());
                }
            }
            let text = &text[start..*pos];
            // The grammar is checked, so an integral text fails `u64` only
            // by overflow: beyond `u64::MAX` it is a `Float`, like its
            // negation.
            match text.parse::<u64>() {
                Ok(n) if integral => Ok(Json::Num(n)),
                _ => match text.parse::<f64>() {
                    Ok(x) if x.is_finite() => Ok(Json::Float(x)),
                    _ => Err(format!("bad number {text:?}").into()),
                },
            }
        }
        Some(&c) => Err(format!("unexpected character {:?} at byte {}", c as char, *pos).into()),
    }
}

/// The four hex digits at `at` as a number: exactly four (`from_str_radix`
/// alone would also take a leading `+`).
fn hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .map(|h| {
            h.iter().fold(0, |acc, &h| {
                acc << 4 | (h as char).to_digit(16).unwrap_or(0)
            })
        })
}

/// Advances past a run of ASCII digits; returns how many there were.
fn skip_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let at = *pos;
                        let bad = || format!("bad \\u escape at byte {at}");
                        let mut code = hex4(b, *pos + 1).ok_or_else(bad)?;
                        *pos += 4;
                        // A high surrogate and the `\u` low surrogate after
                        // it spell one character; a lone half is no
                        // character at all.
                        if (0xd800..0xdc00).contains(&code) {
                            let low = b
                                .get(*pos + 1..*pos + 3)
                                .filter(|e| *e == b"\\u")
                                .and_then(|_| hex4(b, *pos + 3))
                                .filter(|low| (0xdc00..0xe000).contains(low))
                                .ok_or_else(bad)?;
                            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            *pos += 6;
                        }
                        out.push(char::from_u32(code).ok_or_else(bad)?);
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|&x| x as char)));
                    }
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!(
                    "raw control character {c:#04x} in string at byte {pos}",
                    pos = *pos
                ));
            }
            Some(_) => {
                // Copy the run up to the next quote, backslash or control
                // character in one piece: all are ASCII, so the run ends on
                // a char boundary of the `&str` it came from (multi-byte
                // sequences pass through unchanged) and parsing stays
                // linear.
                let start = *pos;
                while b
                    .get(*pos)
                    .is_some_and(|&c| !matches!(c, b'"' | b'\\') && c >= 0x20)
                {
                    *pos += 1;
                }
                out.push_str(&text[start..*pos]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut obj = BTreeMap::new();
        obj.insert("seed".into(), Json::Num(u64::MAX));
        obj.insert("on".into(), Json::Bool(true));
        obj.insert("name".into(), Json::Str("a \"quoted\"\nline".into()));
        obj.insert(
            "rows".into(),
            Json::Arr(vec![
                Json::Arr(vec![Json::Num(1), Json::Num(2)]),
                Json::Arr(vec![]),
            ]),
        );
        obj.insert(
            "ctl \u{1} \\ é".into(),
            Json::obj([("k", Json::Float(-0.5))]),
        );
        let doc = Json::Obj(obj);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // The one-line form is the same document without the layout.
        let line = doc.render_compact();
        assert!(line.starts_with(
            "{\"ctl \\u0001 \\\\ é\":{\"k\":-0.5},\"name\":\"a \\\"quoted\\\"\\nline\","
        ));
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }

    #[test]
    fn full_range_u64_survives() {
        let doc = Json::parse("{\"x\": 18446744073709551615}").unwrap();
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nope").is_err());
        assert!(Json::parse("{\"x\": 1} trailing").is_err());
        assert!(Json::parse("1.2.3").is_err());
        assert!(Json::parse("-").is_err());
    }

    #[test]
    fn text_outside_rfc_8259_is_an_error() {
        for text in [
            "\"\\u+041\"",
            "\"\\u04\"",
            "\"\\u 041\"",
            "1.",
            "1.e5",
            "1e",
            "1e+",
            ".5",
            "01",
            "-01",
            "-",
            "+1",
            "[01]",
            "\"a\u{1}b\"",
            "\"\u{0}\"",
            "\"tab\there\"",
            "\"\u{1f}\"",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} parsed");
        }
        // The grammar's edges that are JSON still parse.
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0));
        assert_eq!(Json::parse("-0").unwrap(), Json::Float(-0.0));
        assert_eq!(Json::parse("10").unwrap(), Json::Num(10));
        assert_eq!(Json::parse("0.5e-3").unwrap(), Json::Float(0.0005));
        assert_eq!(Json::parse("1E+2").unwrap(), Json::Float(100.0));
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::Str("Aé".into())
        );
    }

    #[test]
    fn surrogate_pairs_every_escape_and_big_integers_parse() {
        let str_of = |s: &str| Ok(Json::Str(s.into()));
        let cases: [(&str, Result<Json, &str>); 12] = [
            ("\"\\ud83d\\ude00\"", str_of("\u{1f600}")),
            ("\"a\\ud83d\\ude00b\"", str_of("a\u{1f600}b")),
            ("\"\\ud83d\"", Err("bad \\u escape")),
            ("\"\\ude00\"", Err("bad \\u escape")),
            ("\"\\ud83d\\u0041\"", Err("bad \\u escape")),
            ("\"\\ud83d\\n\"", Err("bad \\u escape")),
            ("\"a\\/b\"", str_of("a/b")),
            ("\"\\b\"", str_of("\u{8}")),
            ("\"\\f\"", str_of("\u{c}")),
            (
                "18446744073709551616",
                Ok(Json::Float(18446744073709551616.0)),
            ),
            (
                "-18446744073709551616",
                Ok(Json::Float(-18446744073709551616.0)),
            ),
            ("null", Err("unexpected character 'n'")),
        ];
        for (text, want) in cases {
            match (Json::parse(text), want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{text:?}"),
                (Err(got), Err(want)) => {
                    assert!(got.to_string().contains(want), "{text:?}: {got}")
                }
                (got, want) => panic!("{text:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn floats_parse_and_roundtrip() {
        assert_eq!(Json::parse("-5").unwrap(), Json::Float(-5.0));
        assert_eq!(Json::parse("0.125").unwrap(), Json::Float(0.125));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("7").unwrap(),
            Json::Num(7),
            "integers stay exact"
        );
        let text = Json::Float(12.0).render();
        assert_eq!(text.trim(), "12.0", "floats keep their float shape");
        assert_eq!(Json::parse(&text).unwrap(), Json::Float(12.0));
        assert_eq!(Json::Num(3).as_f64(), Some(3.0));
        assert_eq!(Json::Float(f64::NAN).render().trim(), "0");
        // `fixed` is the reports' `{:.N}` read back: same rounding, and a
        // whole count stays a count.
        assert_eq!(Json::fixed(1.5, 3), Json::Float(1.5));
        assert_eq!(Json::fixed(0.1234565, 6), Json::Float(0.123456));
        assert_eq!(Json::fixed(12_345_678.5, 0), Json::Num(12_345_678));
        assert_eq!(Json::fixed(f64::NAN, 3), Json::Num(0));
    }
}
