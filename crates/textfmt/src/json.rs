//! The workspace's JSON: one value tree with a [`Layout`] per container,
//! its writer (one escaper, one float policy in `From<f64>`) and its
//! reader, which infers layouts so `parse` then `render` reproduces any
//! document the writer produced. The policies are in ARCHITECTURE.md
//! "Text formats".

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::{Error, Pos};

/// Deeper nesting is an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// How a container is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// On one line.
    Inline,
    /// One item per line.
    Block,
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// `[...]`.
    Array(Layout, Vec<Json>),
    /// `{...}`: unique keys in document order.
    Object(Layout, Vec<(String, Json)>),
}

/// Integers are written as themselves. Floats follow the one float
/// policy: Rust's shortest round-trip `{:?}`, which keeps a `.` or an
/// exponent so they read back as floats; non-finite values, which JSON
/// cannot spell, become `null`.
macro_rules! from {
    ($($t:ty: $v:ident => $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}
from! {
    u32: n => Json::Num(n.to_string());
    u64: n => Json::Num(n.to_string());
    usize: n => Json::Num(n.to_string());
    f64: x => if x.is_finite() { Json::Num(format!("{x:?}")) } else { Json::Null };
    bool: b => Json::Bool(b);
    &str: s => Json::Str(s.to_string());
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn object<'a>(layout: Layout, pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        let pairs = pairs.into_iter().map(|(k, v)| (k.to_string(), v));
        Json::Object(layout, pairs.collect())
    }

    /// Renders a document: the value plus a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out + "\n"
    }

    fn write(&self, out: &mut String, depth: usize, inline: bool) {
        let (brackets, layout, items): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return out.push_str(&escape(s)),
            Json::Array(layout, items) => ("[]", layout, items.iter().map(|v| (None, v)).collect()),
            Json::Object(layout, pairs) => {
                let pairs = pairs.iter().map(|(k, v)| (Some(k.as_str()), v));
                ("{}", layout, pairs.collect())
            }
        };
        let inline = inline || *layout == Layout::Inline;
        out.push_str(&brackets[..1]);
        for (i, (key, value)) in items.iter().enumerate() {
            if !inline {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push_str(", ");
            }
            if let Some(key) = key {
                out.push_str(&(escape(key) + ": "));
            }
            value.write(out, depth + 1, inline);
        }
        if !inline && !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push_str(&brackets[1..]);
    }
}

/// The one string escaper: quotes, backslashes and control characters.
fn escape(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => write!(out, "\\u{:04x}", c as u32).expect("writing to a String"),
            c => out.push(c),
        }
    }
    out + "\""
}

/// Parses one document; trailing content is an error.
///
/// # Errors
///
/// The first syntax error, non-finite number or duplicate key.
pub fn parse(text: &str) -> Result<Json, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.at(p.pos).error("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte; always on a char boundary.
    pos: usize,
}

impl Parser<'_> {
    /// The line and column of byte `offset`.
    fn at(&self, offset: usize) -> Pos {
        let before = &self.text[..offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let line = before.matches('\n').count() + 1;
        let col = before[line_start..].chars().count() + 1;
        Pos { line, col }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, then consumes `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Json, Error> {
        self.skip_ws();
        if depth > MAX_DEPTH {
            let msg = format!("nesting deeper than {MAX_DEPTH}");
            return Err(self.at(self.pos).error(msg));
        }
        let rest = &self.text[self.pos..];
        match self.peek() {
            Some(b'[') => {
                let (layout, items) = self.seq(b']', |p| p.value(depth + 1))?;
                Ok(Json::Array(layout, items))
            }
            Some(b'{') => {
                // Key → byte offset of its first occurrence.
                let mut first: BTreeMap<String, usize> = BTreeMap::new();
                let (layout, pairs) = self.seq(b'}', |p| {
                    p.skip_ws();
                    let at = p.pos;
                    let key = p.string()?;
                    if let Some(first) = first.insert(key.clone(), at) {
                        let line = p.at(first).line;
                        let msg = format!("duplicate key '{key}' (first set at line {line})");
                        return Err(p.at(at).error(msg));
                    }
                    if !p.eat(b':') {
                        return Err(p.at(p.pos).error("expected ':'"));
                    }
                    Ok((key, p.value(depth + 1)?))
                })?;
                Ok(Json::Object(layout, pairs))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => {
                let len = rest.find(|c: char| !"0123456789+-.eE".contains(c));
                let number = &rest[..len.unwrap_or(rest.len())];
                if !number.parse::<f64>().is_ok_and(f64::is_finite) {
                    let msg = format!("malformed number '{number}'");
                    return Err(self.at(self.pos).error(msg));
                }
                self.pos += number.len();
                Ok(Json::Num(number.to_string()))
            }
            Some(b'n') if rest.starts_with("null") => self.word(4, Json::Null),
            Some(b't') if rest.starts_with("true") => self.word(4, Json::Bool(true)),
            Some(b'f') if rest.starts_with("false") => self.word(5, Json::Bool(false)),
            _ => Err(self.at(self.pos).error("expected a value")),
        }
    }

    /// Consumes a `len`-byte keyword spelling `value`.
    fn word(&mut self, len: usize, value: Json) -> Result<Json, Error> {
        self.pos += len;
        Ok(value)
    }

    /// Parses the container opening at `pos` through `close`, one `item`
    /// at a time; its layout is block iff it has items and spans lines.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<(Layout, Vec<T>), Error> {
        let start = self.pos;
        self.pos += 1;
        let mut items = Vec::new();
        if !self.eat(close) {
            loop {
                items.push(item(self)?);
                if self.eat(close) {
                    break;
                } else if !self.eat(b',') {
                    let msg = format!("expected ',' or '{}'", char::from(close));
                    return Err(self.at(self.pos).error(msg));
                }
            }
        }
        let block = !items.is_empty() && self.text[start..self.pos].contains('\n');
        let layout = if block { Layout::Block } else { Layout::Inline };
        Ok((layout, items))
    }

    fn string(&mut self) -> Result<String, Error> {
        let start = self.pos;
        if self.peek() != Some(b'"') {
            return Err(self.at(start).error("expected a string"));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let Some(i) = rest.find(['"', '\\']) else {
                return Err(self.at(start).error("unterminated string"));
            };
            out.push_str(&rest[..i]);
            self.pos += i;
            if rest[i..].starts_with('"') {
                self.pos += 1;
                return Ok(out);
            }
            let escape = self.text.as_bytes().get(self.pos + 1).copied();
            let c = match escape {
                Some(b'u') => self
                    .text
                    .get(self.pos + 2..self.pos + 6)
                    .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?)),
                Some(b'"') => Some('"'),
                Some(b'\\') => Some('\\'),
                Some(b'/') => Some('/'),
                Some(b'b') => Some('\u{8}'),
                Some(b'f') => Some('\u{c}'),
                Some(b'n') => Some('\n'),
                Some(b'r') => Some('\r'),
                Some(b't') => Some('\t'),
                _ => None,
            };
            let Some(c) = c else {
                return Err(self.at(self.pos).error("invalid escape"));
            };
            out.push(c);
            self.pos += if escape == Some(b'u') { 6 } else { 2 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_render_shortest_round_trip_and_stay_floats() {
        let float = |x: f64| Json::from(x).render().trim_end().to_string();
        assert_eq!(float(0.25), "0.25");
        assert_eq!(float(3.0), "3.0");
        assert_eq!(float(0.0), "0.0");
        assert_eq!(float(0.1111111111111111), "0.1111111111111111");
        assert_eq!(float(1e21), "1e21");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(float(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            escape("`m.keys` iterates \"hash\""),
            "\"`m.keys` iterates \\\"hash\\\"\""
        );
        assert_eq!(escape("\t\r\u{1}é"), "\"\\t\\r\\u0001é\"");
        let parsed = parse("\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9😀\"").expect("escapes");
        assert_eq!(parsed, Json::Str("\"\\/\u{8}\u{c}\n\r\té😀".into()));
    }

    #[test]
    fn layouts_render_as_declared() {
        let doc = Json::object(
            Layout::Block,
            [
                ("n", Json::from(1u64)),
                (
                    "peaks",
                    Json::Array(Layout::Inline, vec![4u64.into(), 4u64.into()]),
                ),
                ("none", Json::Array(Layout::Block, Vec::new())),
                (
                    "rows",
                    Json::Array(
                        Layout::Block,
                        vec![Json::object(
                            Layout::Inline,
                            [("a", Json::Null), ("b", true.into())],
                        )],
                    ),
                ),
            ],
        );
        let text = doc.render();
        assert_eq!(
            text,
            "{\n  \"n\": 1,\n  \"peaks\": [4, 4],\n  \"none\": [],\n  \"rows\": [\n    {\"a\": null, \"b\": true}\n  ]\n}\n"
        );
        // The empty block array reads back inline; everything else as built.
        let back = parse(&text).expect("parses");
        assert_eq!(back.render(), text);
    }

    #[test]
    fn errors_are_located() {
        for (text, msg) in [
            (
                "{\"a\": 1,\n \"a\": 2}",
                "line 2, col 2: duplicate key 'a' (first set at line 1)",
            ),
            ("{\"a\" 1}", "line 1, col 6: expected ':'"),
            ("[1 2]", "line 1, col 4: expected ',' or ']'"),
            ("\n  \"abc", "line 2, col 3: unterminated string"),
            ("\"\\q\"", "line 1, col 2: invalid escape"),
            ("\"\\ud800\"", "line 1, col 2: invalid escape"),
            ("\"\\u12\"", "line 1, col 2: invalid escape"),
            ("\"\\é\"", "line 1, col 2: invalid escape"),
            ("\"\\", "line 1, col 2: invalid escape"),
            ("1e999", "line 1, col 1: malformed number '1e999'"),
            ("1 2", "line 1, col 3: trailing content"),
            ("", "line 1, col 1: expected a value"),
        ] {
            assert_eq!(parse(text).expect_err(text).to_string(), msg);
        }
        let deep = "[".repeat(1000);
        assert!(parse(&deep)
            .expect_err("deep")
            .msg
            .contains("nesting deeper than 128"));
    }

    #[test]
    fn numbers_keep_their_spelling() {
        for (text, tree) in [
            ("2.50", Json::Num("2.50".into())),
            ("-12", Json::Num("-12".into())),
            ("1e3", Json::Num("1e3".into())),
            ("[]", Json::Array(Layout::Inline, Vec::new())),
            ("[\n]", Json::Array(Layout::Inline, Vec::new())),
        ] {
            assert_eq!(parse(text).expect(text), tree);
        }
        assert_eq!(Json::from(7usize), Json::Num("7".into()));
    }
}
