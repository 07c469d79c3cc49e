//! A minimal, dependency-free JSON value with deterministic serialization.
//!
//! The telemetry layer's contract is that a fixed-seed run reproduces its
//! metrics file byte-for-byte, so serialization must be fully
//! deterministic: objects keep insertion order (producers write keys in a
//! fixed code order), floats use Rust's shortest-round-trip formatting
//! (negative zero as `-0.0`, so it parses back with its sign), and
//! non-finite floats serialize as `null` (JSON has no NaN/Inf).

use std::fmt;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use drq_telemetry::Json;
///
/// let v = Json::obj([
///     ("cycles", Json::U64(123)),
///     ("ratio", Json::F64(0.5)),
///     ("name", Json::str("conv1")),
/// ]);
/// assert_eq!(v.to_string(), r#"{"cycles":123,"ratio":0.5,"name":"conv1"}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A float (serialized with shortest-round-trip formatting; NaN and
    /// infinities become `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion-ordered (serialization preserves the order the
    /// producer wrote the keys in).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(entries: I) -> Json {
        Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn arr<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Looks a key up in an object (None for other variants / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as u64 if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            Json::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as f64 if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Deepest array/object nesting [`Json::parse`] accepts. The parser
    /// recurses once per level, so the bound keeps hostile input (a line
    /// of a million `[`) from overflowing the stack; every document the
    /// repo writes nests a handful of levels.
    pub const MAX_DEPTH: usize = 128;

    /// Parses a JSON document (the inverse of [`Display`](fmt::Display)).
    ///
    /// This is a strict, minimal recursive-descent parser for the subset the
    /// telemetry layer emits plus hand-written config files: all standard
    /// JSON values, `\uXXXX` escapes (surrogate pairs included), and
    /// arbitrary whitespace. Trailing garbage after the document is an
    /// error, and so is nesting deeper than [`Json::MAX_DEPTH`]. Integers
    /// that fit `u64`/`i64` parse as integers; everything else numeric
    /// parses as `F64`.
    ///
    /// # Examples
    ///
    /// ```
    /// use drq_telemetry::Json;
    ///
    /// let v = Json::parse(r#"{"seed": 7, "rules": []}"#).unwrap();
    /// assert_eq!(v.get("seed").and_then(Json::as_u64), Some(7));
    /// assert!(Json::parse("{oops}").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(value)
    }
}

/// Error from [`Json::parse`]: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Human-readable description of the syntax error.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonParseError {
        JsonParseError { message: message.to_string(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == Json::MAX_DEPTH {
                    return Err(self.err(&format!(
                        "nesting deeper than {} levels",
                        Json::MAX_DEPTH
                    )));
                }
                self.depth += 1;
                let nested = if self.peek() == Some(b'[') { self.array() } else { self.object() };
                self.depth -= 1;
                nested
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            entries.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: \uD8xx must be followed by
                                // \uDCxx-\uDFxx.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate escape"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a &str");
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape digits"))?;
        self.pos = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII");
        if text.is_empty() || text == "-" {
            return Err(self.err("invalid number"));
        }
        if !is_float {
            if !text.starts_with('-') {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(Json::U64(v));
                }
            } else if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| JsonParseError {
                message: format!("invalid number '{text}'"),
                offset: start,
            })
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::F64(v)
    }
}
impl From<f32> for Json {
    fn from(v: f32) -> Self {
        Json::F64(v as f64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::F64(v) => {
                if !v.is_finite() {
                    f.write_str("null")
                } else if *v == 0.0 && v.is_sign_negative() {
                    // `{v}` would print `-0`, which parses back as the
                    // integer 0 and loses the sign.
                    f.write_str("-0.0")
                } else {
                    write!(f, "{v}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::U64(42).to_string(), "42");
        assert_eq!(Json::I64(-3).to_string(), "-3");
        assert_eq!(Json::F64(1.5).to_string(), "1.5");
        assert_eq!(Json::F64(1.0).to_string(), "1");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn object_preserves_insertion_order() {
        let v = Json::obj([("z", Json::U64(1)), ("a", Json::U64(2))]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn nested_structures() {
        let v = Json::obj([(
            "layers",
            Json::arr([Json::obj([("cycles", Json::U64(7))])]),
        )]);
        assert_eq!(v.to_string(), r#"{"layers":[{"cycles":7}]}"#);
    }

    #[test]
    fn lookup_and_conversions() {
        let v = Json::obj([("n", Json::U64(5)), ("x", Json::F64(0.25))]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(0.25));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_round_trips_serialized_values() {
        let v = Json::obj([
            ("name", Json::str("lenet5")),
            ("cycles", Json::U64(12345)),
            ("delta", Json::I64(-7)),
            ("ratio", Json::F64(0.125)),
            ("nested", Json::arr([Json::Null, Json::Bool(true), Json::F64(1.5)])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = Json::parse(" { \"a\\n\\\"b\" : [ 1 , -2 , 3.5 ] , \"u\" : \"\\u00e9\" } ")
            .unwrap();
        assert_eq!(v.get("a\n\"b").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("u").and_then(Json::as_str), Some("é"));
    }

    #[test]
    fn parse_surrogate_pairs() {
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::str("\u{1F600}")
        );
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
            "{\"a\":1} trailing", "nan", "-", "[1 2]",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let objects =
            |depth: usize| format!("{}0{}", "{\"a\":".repeat(depth), "}".repeat(depth));
        assert!(Json::parse(&arrays(Json::MAX_DEPTH)).is_ok());
        assert!(Json::parse(&objects(Json::MAX_DEPTH)).is_ok());
        // The error points at the first bracket past the limit.
        for (deep, offset) in [
            (arrays(Json::MAX_DEPTH + 1), Json::MAX_DEPTH),
            (objects(Json::MAX_DEPTH + 1), 5 * Json::MAX_DEPTH),
            ("[".repeat(1_000_000), Json::MAX_DEPTH),
        ] {
            let err = Json::parse(&deep).expect_err("too deep");
            assert!(err.message.contains("nesting deeper than"), "{err}");
            assert_eq!(err.offset, offset);
        }
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(Json::parse("-9").unwrap(), Json::I64(-9));
        assert_eq!(Json::parse("2.5e-2").unwrap(), Json::F64(0.025));
    }

    #[test]
    fn float_round_trip_is_shortest() {
        // Shortest-round-trip formatting is what makes the golden files
        // byte-stable; lock a representative value.
        assert_eq!(Json::F64(0.1).to_string(), "0.1");
        assert_eq!(Json::F64(0.30000000000000004).to_string(), "0.30000000000000004");
        assert_eq!(Json::F64(2.5e-8).to_string(), "0.000000025");
    }

    #[test]
    fn negative_zero_keeps_its_sign_through_a_round_trip() {
        let text = Json::F64(-0.0).to_string();
        assert_eq!(text, "-0.0");
        match Json::parse(&text).unwrap() {
            Json::F64(v) => assert!(v == 0.0 && v.is_sign_negative()),
            other => panic!("parsed as {other:?}"),
        }
        assert_eq!(Json::F64(0.0).to_string(), "0");
    }
}
