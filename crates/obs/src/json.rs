//! Minimal dependency-free JSON support.
//!
//! The workspace vendors no serde implementation (the registry-less build
//! environment, DESIGN.md §5), so JSON is handled here, once, for every
//! crate: string escaping and number rendering for the hand-written
//! emitters (trace and metrics sinks), a [`Json`] tree with a strict
//! recursive-descent [`parse`]r and a pretty-printer for the readers (the
//! bench-record gate reads baselines and bundle manifests back), and
//! [`validate`], which tests use to keep emitted documents honest (the
//! `--trace` golden test parses real output with it).

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a nanosecond quantity to `out` as a microsecond JSON number
/// (Chrome trace `ts`/`dur` are microseconds), keeping sub-µs precision
/// as a decimal fraction: `1500` ns → `1.5`.
pub fn write_us(out: &mut String, ns: u64) {
    out.push_str(&(ns / 1000).to_string());
    let frac = ns % 1000;
    if frac != 0 {
        out.push('.');
        out.push_str(format!("{frac:03}").trim_end_matches('0'));
    }
}

/// Appends an `f64` to `out` as a JSON number (non-finite values become
/// `null`, which JSON has no number for).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Validates that `s` is exactly one well-formed JSON document: a
/// [`parse`] that discards the tree.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(drop)
}

/// A parsed JSON value. Object member order is preserved, so a
/// parse→write round trip is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the tree, indented two spaces per level.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        out.push('\n');
        out
    }
}

fn write_value(out: &mut String, v: &Json, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => write_num(out, *n),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) if items.is_empty() => out.push_str("[]"),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&close);
            out.push(']');
        }
        Json::Obj(members) if members.is_empty() => out.push_str("{}"),
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                write_str(out, k);
                out.push_str(": ");
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&close);
            out.push('}');
        }
    }
}

/// Writes a number the way the bench summaries do: integers bare,
/// everything else with enough digits to round-trip.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; records never contain them (the record
        // constructor rejects non-finite metrics), so this is only
        // reachable through hand-built trees.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        let mut s = format!("{n}");
        if !s.contains('.') && !s.contains('e') {
            s.push_str(".0");
        }
        out.push_str(&s);
    }
}

/// Parses a JSON document. The error message carries the byte offset
/// and a short description — enough to locate a corrupted baseline.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!(
                "unexpected `{}` at byte {}",
                char::from(c),
                self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Take the longest plain run in one slice.
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            // Exactly four hex digits: `u32::from_str_radix`
                            // alone would also take a leading `+`.
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = hex.iter().fold(0, |code, &h| {
                                code * 16 + char::from(h).to_digit(16).expect("hex digit")
                            });
                            self.pos += 4;
                            // Surrogate pairs don't occur in the ASCII
                            // metric keys and report text the workspace
                            // round-trips; map them to U+FFFD.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "invalid escape `\\{}` at byte {}",
                                char::from(other),
                                self.pos - 1
                            ))
                        }
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    /// A number in JSON's grammar: optional `-`, integer digits, then an
    /// optional fraction and exponent, each with at least one digit.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.digits() == 0 {
            return Err(format!("expected digits at byte {}", self.pos));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected fraction digits after byte {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected exponent digits after byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }

    /// Consumes a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-12.5e3",
            "0.5E-2",
            r#"{"a":[1,2,{"b":"c\n\"d\""}],"e":true,"f":null}"#,
            "  { \"k\" : [ 1.5 , -2 ] }  ",
            r#""é""#,
            r#""\u00aB""#,
        ] {
            parse(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{} extra",
            "\"unterminated",
            "01e",
            "1.",
            "1.e5",
            "1e",
            "-",
            "{'a':1}",
            "{\"a\":1,}",
            r#""\u+abc""#,
            r#""\u12""#,
            "\"raw\u{1}control\"",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} parsed");
            assert!(validate(doc).is_err(), "{doc:?} accepted");
        }
    }

    #[test]
    fn escaping_roundtrips_through_validation() {
        let mut out = String::new();
        write_str(&mut out, "weird \"s\"\t\n\\ \u{1}");
        validate(&out).unwrap();
    }

    #[test]
    fn microsecond_rendering() {
        let us = |ns: u64| {
            let mut s = String::new();
            write_us(&mut s, ns);
            s
        };
        assert_eq!(us(0), "0");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1_000), "1");
        assert_eq!(us(1_500), "1.5");
        assert_eq!(us(2_000_001), "2000.001");
    }

    #[test]
    fn f64_rendering() {
        let f = |v: f64| {
            let mut s = String::new();
            write_f64(&mut s, v);
            s
        };
        assert_eq!(f(2.5), "2.5");
        assert_eq!(f(f64::NAN), "null");
        assert_eq!(f(f64::INFINITY), "null");
        validate(&f(1e300)).unwrap();
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            Json::Str("a\nbA".to_string())
        );
        let doc = parse(r#"{"a": [1, 2, {"b": false}], "c": "x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for (text, fragment) in [
            ("{", "expected"),
            ("[1, 2", "expected"),
            ("{\"a\" 1}", "expected `:`"),
            ("\"unterminated", "unterminated string"),
            ("tru", "invalid literal"),
            ("1 2", "trailing data"),
            ("", "unexpected end"),
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.contains(fragment),
                "`{text}` → `{err}` (wanted `{fragment}`)"
            );
        }
    }

    #[test]
    fn round_trips_through_pretty_printer() {
        let doc = parse(
            r#"{"bench": "sim", "smoke": false, "metrics": {"a.rps": {"value": 12345.5, "noise": 0.03}}, "tags": ["x", "y"], "n": 7}"#,
        )
        .unwrap();
        let printed = doc.to_pretty();
        assert_eq!(parse(&printed).unwrap(), doc, "round trip:\n{printed}");
        // Integers print bare; the tree indents.
        assert!(printed.contains("\"n\": 7"));
        assert!(printed.contains("  \"bench\": \"sim\""));
    }

    #[test]
    fn committed_bench_records_parse() {
        // The benchmark declaration `bench ab` reads its directions and
        // bounds from, and the example bundle's manifest `bundle verify`
        // reads: the parser must handle both committed files.
        let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../"));
        for path in [
            root.join("BENCHMARK.json"),
            root.join("bench/baselines/example-bundle/manifest.json"),
        ] {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        }
    }
}
