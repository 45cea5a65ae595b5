//! A small, dependency-free JSON value, parser, and writer.
//!
//! The workspace builds with no registry access, so everything that used to
//! go through `serde_json` — the Listing-1 per-prefix records, the JSONL
//! dataset export, RPKI persistence, and the observability run report —
//! serializes through this module instead. The pretty writer reproduces
//! `serde_json::to_string_pretty` formatting (two-space indent, `": "`
//! separators) so downstream consumers and the paper-shape tests see
//! identical output.

use std::fmt;
use std::fmt::Write as _;

/// A JSON document. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (integers survive exactly up to 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Appends `key: value` to an object; panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        match self {
            Json::Obj(pairs) => pairs.push((key.into(), value.into())),
            _ => panic!("Json::set on non-object"),
        }
        self
    }

    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload as an unsigned integer, when exactly integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
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

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parses a JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Parser::new(text).document()
    }

    /// Pretty rendering: two-space indent, `": "` separators — the
    /// `serde_json::to_string_pretty` shape.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => {
                let _ = write_escaped(out, s);
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    let _ = write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

/// Compact rendering (no whitespace).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(n as f64)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` as a JSON string literal: quoted, with `"`, `\\` and the
/// C0 controls escaped (`\n`, `\r`, `\t`, `\b`, `\f`, else `\u00XX`).
///
/// The one JSON string escaper in the workspace: [`Json`] serializes
/// through it, and so does every writer that renders JSON straight into a
/// buffer. A writer that assembles one string literal from pieces writes
/// the quotes itself and its text through an [`Escaper`].
pub fn write_escaped<W: fmt::Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    Escaper::new(out).write_str(s)?;
    out.write_char('"')
}

/// The body of a JSON string literal: every `&str` written through it
/// reaches the wrapped writer escaped as [`write_escaped`] escapes it,
/// without the surrounding quotes.
pub struct Escaper<'a, W: ?Sized>(&'a mut W);

impl<'a, W: fmt::Write + ?Sized> Escaper<'a, W> {
    /// Escapes what is written into `out`.
    pub fn new(out: &'a mut W) -> Self {
        Escaper(out)
    }
}

impl<W: fmt::Write + ?Sized> fmt::Write for Escaper<'_, W> {
    /// Every byte that needs escaping is ASCII, so the scan is bytewise
    /// and each clean run is copied in one `write_str`; a run never splits
    /// a multi-byte char. The scan reads eight bytes at a time and jumps
    /// straight to the first one that needs escaping; only a tail shorter
    /// than a word is tested byte by byte.
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let out = &mut *self.0;
        let bytes = s.as_bytes();
        let mut run = 0;
        let mut i = 0;
        loop {
            let at = match bytes.get(i..i + 8) {
                Some(word) => {
                    let mask = special_bytes(u64::from_le_bytes(word.try_into().expect("8 bytes")));
                    if mask == 0 {
                        i += 8;
                        continue;
                    }
                    i + (mask.trailing_zeros() / 8) as usize
                }
                None => match bytes[i..].iter().position(|&b| needs_escape(b)) {
                    Some(k) => i + k,
                    None => break,
                },
            };
            if run < at {
                out.write_str(&s[run..at])?;
            }
            write_escape(out, bytes[at])?;
            run = at + 1;
            i = at + 1;
        }
        if run < bytes.len() {
            out.write_str(&s[run..])?;
        }
        Ok(())
    }
}

/// Whether byte `b` needs escaping in a JSON string: a C0 control, `"` or
/// `\\`.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Writes the escape of `b`, one of the bytes [`needs_escape`] names.
fn write_escape<W: fmt::Write + ?Sized>(out: &mut W, b: u8) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    match b {
        b'"' => out.write_str("\\\""),
        b'\\' => out.write_str("\\\\"),
        b'\n' => out.write_str("\\n"),
        b'\r' => out.write_str("\\r"),
        b'\t' => out.write_str("\\t"),
        0x08 => out.write_str("\\b"),
        0x0C => out.write_str("\\f"),
        _ => {
            let code = [
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[(b >> 4) as usize],
                HEX[(b & 0xF) as usize],
            ];
            out.write_str(std::str::from_utf8(&code).expect("ASCII"))
        }
    }
}

/// The high bit of each byte of `word` (little-endian) that may need
/// escaping: a byte below 0x20, `"` or `\\`. Each test is the "some byte
/// is zero" / "some byte is below n" bit trick. A borrow can mark a byte
/// above a true one, but never below it, so the lowest set bit is exactly
/// the first byte that needs escaping and 0 means none does. Bytes of
/// 0x80 and above (UTF-8) are never the lowest mark.
fn special_bytes(word: u64) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let below = |w: u64, n: u64| w.wrapping_sub(ONES * n) & !w & HIGHS;
    below(word, 0x20)
        | below(word ^ (ONES * b'"' as u64), 1)
        | below(word ^ (ONES * b'\\' as u64), 1)
}

/// Writes `value` in decimal: the one integer writer of the answer and
/// export paths, with no formatting machinery.
pub fn write_u64<W: fmt::Write + ?Sized>(out: &mut W, mut value: u64) -> fmt::Result {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"))
}

/// Writes `values` as a JSON array of integers — the bytes [`Json`] gives
/// the same numbers.
pub fn write_u32_array<W: fmt::Write + ?Sized>(
    out: &mut W,
    values: impl IntoIterator<Item = u32>,
) -> fmt::Result {
    out.write_char('[')?;
    for (n, v) in values.into_iter().enumerate() {
        if n > 0 {
            out.write_char(',')?;
        }
        write_u64(out, v.into())?;
    }
    out.write_char(']')
}

/// A parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Parse strings with the one-scalar-per-step loop the run scan
    /// replaced, kept as the tests' oracle.
    #[cfg(test)]
    by_scalar: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            #[cfg(test)]
            by_scalar: false,
        }
    }

    /// One value, with only whitespace around it.
    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(v)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A string literal, a run at a time: everything up to the next quote,
    /// backslash or control byte goes over in one copy. None of those
    /// bytes occurs inside a multi-byte UTF-8 scalar, so every run ends on
    /// a char boundary of the input text.
    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.by_scalar {
            return tests::string_by_scalar(self);
        }
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The escape after a backslash, pushed onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'u') => {
                self.pos += 1;
                let first = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&first) {
                    // Surrogate pair.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("lone surrogate"));
                    }
                    self.pos += 2;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(self.err("bad surrogate pair"));
                    }
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    char::from_u32(code).ok_or_else(|| self.err("bad code point"))?
                } else {
                    char::from_u32(first).ok_or_else(|| self.err("bad code point"))?
                };
                out.push(c);
                return Ok(());
            }
            _ => return Err(self.err("bad escape")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    /// The string loop the run scan replaced: one UTF-8 scalar per step,
    /// each through `str::from_utf8`. The oracle the run scan must match
    /// value for value and error for error.
    pub(super) fn string_by_scalar(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.eat(b'"')?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            p.pos += 1;
                            let first = p.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair.
                                if !p.bytes[p.pos..].starts_with(b"\\u") {
                                    return Err(p.err("lone surrogate"));
                                }
                                p.pos += 2;
                                let second = p.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(p.err("bad surrogate pair"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code).ok_or_else(|| p.err("bad code point"))?
                            } else {
                                char::from_u32(first).ok_or_else(|| p.err("bad code point"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(p.err("bad escape")),
                    }
                    p.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(p.err("control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe).
                    let rest = &p.bytes[p.pos..];
                    let len = utf8_len(rest[0]);
                    let s =
                        std::str::from_utf8(&rest[..len]).map_err(|_| p.err("invalid UTF-8"))?;
                    out.push_str(s);
                    p.pos += len;
                }
            }
        }
    }

    /// A string literal's body for the oracle test: plain and multi-byte
    /// text, every escape (surrogate pairs, lone and bad ones included),
    /// bad and cut-short escapes and raw control bytes.
    fn string_body(g: &mut crate::check::Gen) -> String {
        let mut body = String::new();
        for _ in 0..g.below(8) {
            match g.below(10) {
                0 | 1 => body.push_str(&g.unicode_string(12)),
                2 => body.push_str(&g.string_from("abc xyz019", 20)),
                3 => {
                    let escape =
                        *g.pick(&["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"]);
                    body.push_str(escape);
                }
                4 => {
                    let code = *g.pick(&[0x41u32, 0xe9, 0x7f, 0x1f, 0x4e2d, 0xffff, 0xd7ff]);
                    body.push_str(&format!("\\u{code:04x}"));
                }
                5 => {
                    let high = g.range(0xD800, 0xDBFF);
                    let low = g.range(0xDC00, 0xDFFF);
                    body.push_str(&format!("\\u{high:04X}\\u{low:04x}"));
                }
                6 => {
                    let bad = *g.pick(&[
                        "\\uD83D",
                        "\\uD83Dx",
                        "\\uD83D\\u0041",
                        "\\uDC00",
                        "\\u12",
                        "\\u12G4",
                        "\\x",
                        "\\",
                        "\\u00é1",
                    ]);
                    body.push_str(bad);
                }
                7 => body.push(char::from(g.below(0x20) as u8)),
                8 => body.push(*g.pick(&['é', '直', '😀', '\u{7f}', '\u{80}', '\u{10ffff}'])),
                _ => body.push(*g.pick(&['"', '\\'])),
            }
        }
        body
    }

    /// A document of strings in objects and arrays, whole or cut short at
    /// a char boundary (an unterminated string or value).
    fn string_document(g: &mut crate::check::Gen) -> String {
        let mut doc = String::from("{");
        for i in 0..g.below(4) {
            if i > 0 {
                doc.push(',');
            }
            doc.push_str(&format!("\"{}\": ", string_body(g)));
            match g.below(3) {
                0 => doc.push_str(&format!("\"{}\"", string_body(g))),
                1 => {
                    let items: Vec<String> = (0..g.below(3))
                        .map(|_| format!("\"{}\"", string_body(g)))
                        .collect();
                    doc.push_str(&format!("[{}]", items.join(", ")));
                }
                _ => doc.push_str(&format!("{{\"k\":\"{}\",\"n\":1}}", string_body(g))),
            }
        }
        doc.push('}');
        if g.chance(0.3) {
            let mut cut = g.below(doc.len() + 1);
            while !doc.is_char_boundary(cut) {
                cut -= 1;
            }
            doc.truncate(cut);
        }
        doc
    }

    /// The run scan parses every document to the value, or fails with the
    /// message and offset, that the one-scalar-per-step loop does.
    #[test]
    fn string_runs_match_the_scalar_loop() {
        let by_scalar = |text: &str| {
            Parser {
                by_scalar: true,
                ..Parser::new(text)
            }
            .document()
        };
        let mut errors = 0;
        crate::check::run_cases(4096, |g| {
            let doc = string_document(g);
            let want = by_scalar(&doc);
            errors += usize::from(want.is_err());
            assert_eq!(Json::parse(&doc), want, "{doc:?}");
            let body = string_body(g);
            let literal = format!("\"{body}\"");
            assert_eq!(Json::parse(&literal), by_scalar(&literal), "{literal:?}");
        });
        // Both outcomes are exercised.
        assert!(
            (100..4000).contains(&errors),
            "{errors} of 4096 documents fail"
        );
    }

    #[test]
    fn round_trips_values() {
        for text in [
            "null",
            "true",
            "[1,2,3]",
            r#"{"a":1,"b":[false,"x"],"c":{"d":null}}"#,
            r#""esc \" \\ \n é""#,
            "-12.5",
        ] {
            let v = Json::parse(text).unwrap();
            let again = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, again, "{text}");
        }
    }

    #[test]
    fn pretty_matches_serde_json_shape() {
        let mut obj = Json::object();
        obj.set("RIR", "ARIN");
        obj.set("n", 3u32);
        obj.set("list", Json::Arr(vec![Json::from("a"), Json::from("b")]));
        obj.set("empty", Json::Arr(vec![]));
        assert_eq!(
            obj.to_string_pretty(),
            "{\n  \"RIR\": \"ARIN\",\n  \"n\": 3,\n  \"list\": [\n    \"a\",\n    \"b\"\n  ],\n  \"empty\": []\n}"
        );
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::from(7u64).to_string(), "7");
        assert_eq!(Json::from(2.5).to_string(), "2.5");
        assert_eq!(Json::from(0u32).to_string(), "0");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn object_access_helpers() {
        let v = Json::parse(r#"{"s":"x","n":4,"b":true,"a":[1],"z":null}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(4));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(|a| a.len()),
            Some(1)
        );
        assert!(v.get("z").is_some_and(Json::is_null));
        assert!(v.get("missing").is_none());
    }

    /// The char-by-char escaper [`Json`] wrote strings with before the
    /// shared [`write_escaped`]; kept as the reference it must match.
    fn reference_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0C}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    #[test]
    fn escaper_matches_char_by_char_reference() {
        crate::check::run_cases(4096, |g| {
            let mut s = String::new();
            for _ in 0..g.below(12) {
                match g.below(4) {
                    0 => s.push(char::from(g.below(0x20) as u8)),
                    1 => s.push(*g.pick(&['"', '\\', '\u{7f}'])),
                    _ => s.push_str(&g.unicode_string(4)),
                }
            }
            assert_escapes_as_reference(&s);
        });
    }

    fn assert_escapes_as_reference(s: &str) {
        let mut want = String::new();
        reference_escaped(&mut want, s);
        let mut got = String::new();
        write_escaped(&mut got, s).unwrap();
        assert_eq!(got, want, "{s:?}");
        assert_eq!(Json::parse(&got).unwrap().as_str(), Some(s));
    }

    /// The word scan against the reference where it can go wrong: one
    /// special byte at every offset of strings up to three words long, two
    /// at every pair of offsets (so several share one word), and whole runs
    /// of them, over ASCII filler and over filler whose bytes are all 0x80
    /// or above. The bytes beside the special set (space, U+007F) must pass
    /// through.
    #[test]
    fn escaper_matches_the_reference_at_every_offset_in_and_across_words() {
        let specials = [
            '"', '\\', '\n', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
        ];
        let neighbours = [' ', '\u{7f}', '!', '#', '[', ']'];
        for filler in ["a", "é"] {
            for len in 0..=24 {
                let at = |chars: &[(usize, char)]| -> String {
                    (0..len)
                        .map(|i| {
                            chars
                                .iter()
                                .find(|(pos, _)| *pos == i)
                                .map_or(filler.to_string(), |(_, c)| c.to_string())
                        })
                        .collect()
                };
                assert_escapes_as_reference(&at(&[]));
                for i in 0..len {
                    for &c in specials.iter().chain(&neighbours) {
                        assert_escapes_as_reference(&at(&[(i, c)]));
                    }
                    for j in i + 1..len {
                        for (a, b) in [('"', '\\'), ('\u{1}', '"'), ('\n', '\n')] {
                            assert_escapes_as_reference(&at(&[(i, a), (j, b)]));
                        }
                    }
                }
                for &c in &specials {
                    assert_escapes_as_reference(&c.to_string().repeat(len));
                }
            }
        }
    }

    #[test]
    fn decimal_writer_matches_display() {
        let mut values = vec![0, 1, 9, 10, 99, 100, u32::MAX as u64, u64::MAX];
        values.extend((1..20).map(|e| 10u64.pow(e) - 1));
        values.extend((1..20).map(|e| 10u64.pow(e)));
        let mut g = crate::check::Gen::new(7);
        values.extend((0..1000).map(|_| g.u64() >> g.below(64)));
        for v in values {
            let mut out = String::new();
            write_u64(&mut out, v).unwrap();
            assert_eq!(out, v.to_string());
        }
    }

    #[test]
    fn unicode_and_surrogates() {
        let v = Json::parse(r#""café 😀 直""#).unwrap();
        assert_eq!(v.as_str(), Some("café 😀 直"));
    }
}
