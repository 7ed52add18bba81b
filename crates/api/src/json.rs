//! A minimal, dependency-free JSON value model with a strict parser and
//! a deterministic writer.
//!
//! The container ships without `serde`, so the wire protocol carries its
//! own codec. The model is deliberately small:
//!
//! * Objects preserve **insertion order** (`Vec<(String, Json)>`), so a
//!   value written and re-parsed round-trips byte-identically — the
//!   serve-mode responses are pinned by golden files.
//! * Numbers are stored as `f64`; integers up to 2^53 round-trip
//!   exactly, which covers every count the protocol carries (report
//!   *contents* travel as strings, not numbers).
//!
//! ```
//! use scalesim_api::json::Json;
//! let v = Json::parse(r#"{"a": [1, true, "x\n"]}"#).unwrap();
//! assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
//! assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is insertion order and is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document; trailing non-whitespace is an
    /// error (a JSON-lines frame is exactly one value).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup (None for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects
    /// fractional and out-of-range values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    /// Writes compact JSON (no insignificant whitespace), escaping
    /// strings per RFC 8259. Object key order is preserved, so the
    /// output is deterministic for a given value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                let mut buf = String::new();
                escape_into(s, &mut buf);
                f.write_str(&buf)?;
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Appends `s` to `out` with JSON string escaping applied (quotes,
/// backslashes, and all control characters; `\n`/`\r`/`\t` use their
/// short forms). Used by the wire encoder, so embedded report CSVs stay
/// single-line.
pub fn escape_into(s: &str, out: &mut String) {
    // Everything escaped is one ASCII byte, so the runs between them
    // are whole UTF-8 and are copied as they are.
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| matches!(b, b'"' | b'\\' | 0..=0x1f))
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b @ (b'"' | b'\\') => out.extend(['\\', char::from(b)]),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => out.push_str(&format!("\\u{b:04x}")),
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// [`escape_into`] returning a fresh string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// Maximum container nesting the parser accepts. The parser recurses
/// per nesting level, so without a bound a line of a few hundred KB of
/// `[` would overflow the thread stack — an abort no `catch_unwind` can
/// intercept, which serve mode must never expose to a client. 128
/// matches serde_json's default and is far beyond any real request.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
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
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        // Enforced here rather than delegated to Rust's f64 parser,
        // which is laxer (it accepts "01", "1." and "1.e5").
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos - from
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        let int_len = digits(self);
        if int_len == 0 {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        if int_len > 1 && self.bytes[int_start] == b'0' {
            return Err(format!("leading zero in number at byte {int_start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if digits(self) == 0 {
                return Err(format!(
                    "expected a digit after the decimal point at byte {}",
                    self.pos
                ));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if digits(self) == 0 {
                return Err(format!(
                    "expected a digit in the exponent at byte {}",
                    self.pos
                ));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Find the next byte that needs attention; everything up to
            // it is verbatim UTF-8.
            let chunk_start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[chunk_start..self.pos])
                    .map_err(|_| format!("invalid UTF-8 in string at byte {chunk_start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(format!("unpaired surrogate at byte {}", self.pos));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(format!(
                                        "invalid low surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                                let cp = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(first)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid code point at byte {}", self.pos)
                            })?);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(format!("unescaped control character at byte {}", self.pos)),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape '{hex}' at byte {}", self.pos))?;
        self.pos += 4;
        Ok(v)
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "value nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.enter()?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_in_order() {
        let v = Json::parse(r#"{"b": [1, {"c": null}], "a": "x"}"#).unwrap();
        let fields = v.as_object().unwrap();
        assert_eq!(fields[0].0, "b");
        assert_eq!(fields[1].0, "a");
        assert_eq!(v.get("a").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ \u{0001} unicode: é λ 🎉";
        let encoded = Json::Str(original.into()).to_string();
        assert_eq!(
            Json::parse(&encoded).unwrap().as_str().unwrap(),
            original,
            "escape/unescape must round-trip"
        );
        assert!(!encoded.contains('\n'), "encoded form is single-line");
    }

    #[test]
    fn unicode_escapes_parse() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap().as_str(), Some("Aé"));
        // Surrogate pair for 🎉 (U+1F389).
        assert_eq!(Json::parse(r#""🎉""#).unwrap().as_str(), Some("🎉"));
        assert!(Json::parse(r#""\ud83c""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "{\"a\": }",
            "\"unterminated",
            "nullx",
            "[1] trailing",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn number_grammar_is_rfc_8259_strict() {
        for bad in [
            "01",
            "-01",
            "007",
            "1.",
            "1.e5",
            ".5",
            "-",
            "1e",
            "1e+",
            "{\"shards\": 007}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        for (good, want) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-0.25e-3", -0.25e-3),
            ("2E2", 200.0),
        ] {
            assert_eq!(Json::parse(good).unwrap(), Json::Num(want), "{good}");
        }
    }

    #[test]
    fn nesting_is_bounded_but_width_is_not() {
        // At the limit: fine. One past it: a parse error, not a stack
        // overflow (which would abort the process, uncatchable).
        let deep_ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deep_ok).is_ok());
        for bomb in [
            format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1)),
            "[".repeat(500_000),
            format!("{}1{}", "{\"k\":[".repeat(100_000), "]}".repeat(100_000)),
        ] {
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.contains("nested deeper"), "{err}");
        }
        // Depth is nesting, not total container count: siblings must
        // not accumulate.
        let wide = format!("[{}]", vec!["[[]]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok(), "wide-but-shallow is fine");
    }

    #[test]
    fn writer_round_trips() {
        let text = r#"{"api":1,"id":"r-1","run":{"flags":[true,false,null],"n":3.25}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn u64_accessor_is_strict() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
    }
}
