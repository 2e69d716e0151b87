//! The workspace's TOML subset: `[section]` headers over `key = value`
//! lines whose value is a quoted string or a bare scalar, with
//! quote-aware `#` comments. Entries before the first header form the
//! preamble, so headerless stream files parse too. The quoting and
//! duplicate rules are in ARCHITECTURE.md "Text formats".

use std::collections::BTreeMap;

use crate::{Error, Pos};

/// One `key = value` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key.
    pub key: String,
    /// The value's text: a quoted string without its quotes, or an
    /// unquoted scalar (number, boolean, bare word) as written.
    pub value: String,
    /// Where the key starts.
    pub pos: Pos,
}

impl Entry {
    /// An error about this entry: `'key' msg`, located at the key.
    pub fn error(&self, msg: &str) -> Error {
        self.pos.error(format!("'{}' {msg}", self.key))
    }
}

/// A `[name]` header and the entries under it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// The header's name.
    pub name: String,
    /// Where the header starts.
    pub pos: Pos,
    /// Entries in document order.
    pub entries: Vec<Entry>,
}

/// A lexed document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    /// Entries before the first header.
    pub preamble: Vec<Entry>,
    /// Sections in document order.
    pub sections: Vec<Section>,
}

/// Lexes a document.
///
/// # Errors
///
/// The first syntax error, duplicate section or duplicate key.
pub fn parse(text: &str) -> Result<Document, Error> {
    let mut doc = Document::default();
    // First line of each section, and of each key per section index
    // (the preamble is 0).
    let mut first_section: BTreeMap<&str, usize> = BTreeMap::new();
    let mut first_key: BTreeMap<(usize, &str), usize> = BTreeMap::new();
    for (idx, raw) in text.lines().enumerate() {
        // `part` is a subslice of `raw`.
        let at = |part: &str| {
            let offset = part.as_ptr() as usize - raw.as_ptr() as usize;
            let (line, col) = (idx + 1, raw[..offset].chars().count() + 1);
            Pos { line, col }
        };
        let line = strip_comment(raw).trim();
        let pos = at(line);
        if line.is_empty() {
            continue;
        } else if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']').map(str::trim) else {
                return Err(pos.error(format!("unterminated section header '{line}'")));
            };
            if let Some(first) = first_section.insert(name, pos.line) {
                let msg = format!("duplicate section '[{name}]' (first at line {first})");
                return Err(pos.error(msg));
            }
            let (name, entries) = (name.to_string(), Vec::new());
            doc.sections.push(Section { name, pos, entries });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(pos.error(format!("expected 'key = value', got '{line}'")));
        };
        let (key, value) = (key.trim(), value.trim());
        if key.is_empty() {
            return Err(pos.error("missing key before '='"));
        }
        let value = lex_value(value).map_err(|msg| at(value).error(msg))?;
        if let Some(first) = first_key.insert((doc.sections.len(), key), pos.line) {
            let within = doc.sections.last().map(|s| format!(" in [{}]", s.name));
            let within = within.unwrap_or_default();
            let msg = format!("duplicate key '{key}'{within} (first set at line {first})");
            return Err(pos.error(msg));
        }
        let entries = match doc.sections.last_mut() {
            Some(section) => &mut section.entries,
            None => &mut doc.preamble,
        };
        let key = key.to_string();
        entries.push(Entry { key, value, pos });
    }
    Ok(doc)
}

/// Quotes a string for writing; it reads back as the same text when
/// it holds no `"`.
pub fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

/// Drops a trailing `#` comment; a `#` inside a quoted string is content.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn lex_value(value: &str) -> Result<String, String> {
    if let Some(inner) = value.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return Err(format!("unterminated string {value}"));
        };
        if inner.contains('"') {
            return Err(format!("embedded quote in string {value}"));
        }
        return Ok(inner.to_string());
    } else if value.starts_with('[') {
        return Err(format!("arrays are not supported: {value}"));
    } else if value.contains('"') {
        return Err(format!("misplaced quote in value {value}"));
    } else if value.is_empty() {
        return Err("missing value".into());
    }
    Ok(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(text: &str) -> String {
        parse(text).expect_err(text).to_string()
    }

    #[test]
    fn lexes_sections_entries_and_values() {
        let doc = parse("top = 1\n\n[a]  # c\nname = \"x # y\" # c\n  bare = b\n").expect("parses");
        assert_eq!(doc.preamble[0].key, "top");
        assert_eq!(doc.preamble[0].value, "1");
        let a = &doc.sections[0];
        assert_eq!((a.name.as_str(), a.pos), ("a", Pos { line: 3, col: 1 }));
        assert_eq!(a.entries[0].value, "x # y");
        assert_eq!(a.entries[1].pos, Pos { line: 5, col: 3 });
        assert_eq!(a.entries[1].value, "b");
        assert_eq!(parse("").expect("empty"), Document::default());
    }

    #[test]
    fn quoting_rules_locate_the_value() {
        for (text, msg) in [
            ("k = \"open\n", "line 1, col 5: unterminated string \"open"),
            (
                "k = \"a\"b\"\n",
                "line 1, col 5: embedded quote in string \"a\"b\"",
            ),
            ("k = a\"b\n", "line 1, col 5: misplaced quote in value a\"b"),
            ("\nk =\n", "line 2, col 4: missing value"),
            (
                "k = [\"a\", \"b\"]\n",
                "line 1, col 5: arrays are not supported: [\"a\", \"b\"]",
            ),
            (" = 1\n", "line 1, col 2: missing key before '='"),
            ("[a\n", "line 1, col 1: unterminated section header '[a'"),
            ("k 1\n", "line 1, col 1: expected 'key = value', got 'k 1'"),
        ] {
            assert_eq!(err(text), msg);
        }
    }

    #[test]
    fn duplicates_name_the_first_line() {
        assert_eq!(
            err("k = 1\n\nk = 2\n"),
            "line 3, col 1: duplicate key 'k' (first set at line 1)"
        );
        assert_eq!(
            err("[s]\nk = 1\n[t]\nk = 1\n[s]\n"),
            "line 5, col 1: duplicate section '[s]' (first at line 1)"
        );
        assert_eq!(
            err("[s]\nk = 1\nk = 2\n"),
            "line 3, col 1: duplicate key 'k' in [s] (first set at line 2)"
        );
        // The same key in different sections is two keys.
        assert!(parse("k = 0\n[s]\nk = 1\n[t]\nk = 1\n").is_ok());
    }
}
