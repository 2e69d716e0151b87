//! The `float-sort` determinism rule: no source file under `src/` or
//! `crates/*/src` calls `partial_cmp`. Unwrapped, a float's partial
//! order panics on NaN mid-run; handled, it leaves NaN's place in a sort
//! to the input order. `f64::total_cmp` is the one float order.
//!
//! Clippy cannot state this rule: banning `PartialOrd::partial_cmp`
//! flags every `#[derive(PartialOrd)]`, and banning `f64::partial_cmp`
//! flags nothing. So this scan is the rule. It blanks comments and
//! literals first and skips the `fn partial_cmp` of a `PartialOrd` impl,
//! which defines the method rather than calling it. The canaries under
//! `tests/canaries/float-sort/` pin what it catches.

use std::path::{Path, PathBuf};

/// `src` with every comment and the body of every string and character
/// literal blanked to spaces, newlines kept, so line numbers survive and
/// a `//` inside a literal does not open a comment.
fn blank_comments_and_literals(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < chars.len() {
        let (c, next) = (chars[i], chars.get(i + 1).copied());
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                let pair = (chars[i], chars.get(i + 1).copied());
                if pair == ('/', Some('*')) || pair == ('*', Some('/')) {
                    depth += if pair.0 == '/' { 1 } else { -1 };
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == '"' {
            // A raw string's hashes precede the quote; its body ends at
            // the quote followed by as many hashes and has no escapes.
            let hashes = chars[..i].iter().rev().take_while(|&&h| h == '#').count();
            let raw = chars[..i - hashes].last() == Some(&'r');
            let hashes = if raw { hashes } else { 0 };
            out.push(c);
            i += 1;
            while i < chars.len() {
                if chars[i] == '"'
                    && chars[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    out.push('"');
                    i += 1;
                    break;
                }
                let escape = !raw && chars[i] == '\\' && i + 1 < chars.len();
                for _ in 0..if escape { 2 } else { 1 } {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A character literal, possibly escaped; a lifetime's quote
            // falls through as code.
            let from = if next == Some('\\') { i + 3 } else { i + 2 };
            let close = chars
                .get(from..)
                .and_then(|t| t.iter().position(|&q| q == '\''));
            let end = close.map_or(chars.len(), |n| from + n + 1);
            out.extend(std::iter::repeat_n(' ', end - i));
            i = end;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// 1-based lines of `src` that call `partial_cmp`.
fn partial_cmp_calls(src: &str) -> Vec<usize> {
    const NAME: &str = "partial_cmp";
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let code = blank_comments_and_literals(src);
    let mut lines = Vec::new();
    for (idx, line) in code.lines().enumerate() {
        let calls = line.match_indices(NAME).any(|(pos, _)| {
            let before = &line[..pos];
            let whole =
                !before.ends_with(is_ident) && !line[pos + NAME.len()..].starts_with(is_ident);
            let defines = before
                .trim_end()
                .strip_suffix("fn")
                .is_some_and(|head| !head.ends_with(is_ident));
            whole && !defines
        });
        if calls {
            lines.push(idx + 1);
        }
    }
    lines
}

/// Every `*.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn no_source_file_calls_partial_cmp() {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    for krate in std::fs::read_dir(root().join("crates")).expect("crates directory") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let hits: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let lines = partial_cmp_calls(&read(path));
            lines
                .into_iter()
                .map(move |l| format!("{}:{l}", path.display()))
        })
        .collect();
    assert!(
        hits.is_empty(),
        "float-sort: `partial_cmp` is a partial order; use `f64::total_cmp`:\n{}",
        hits.join("\n")
    );
}

#[test]
fn the_canaries_are_caught_and_cleared() {
    let dir = root().join("tests/canaries/float-sort");
    let violating = read(&dir.join("violating.rs"));
    let marked: Vec<usize> = (1..)
        .zip(violating.lines())
        .filter(|(_, line)| line.trim_end().ends_with("//~"))
        .map(|(n, _)| n)
        .collect();
    assert_eq!(marked.len(), 3, "violating.rs marks one line per form");
    assert_eq!(partial_cmp_calls(&violating), marked);
    assert_eq!(
        partial_cmp_calls(&read(&dir.join("clean.rs"))),
        Vec::<usize>::new()
    );
}

#[test]
fn literals_and_comments_are_told_apart() {
    let src = "let s = \"// x\"; a.partial_cmp(b);\n\
               let c = '\"'; let q = '\\''; /* partial_cmp /* nested */ */ b.partial_cmp(a);\n\
               let r = r#\"partial_cmp \"# ; fn partial_cmp() {}\n\
               fn f<'a>(x: &'a f64) {} // partial_cmp\n\
               not_partial_cmp(); partial_cmp_like();\n";
    assert_eq!(partial_cmp_calls(src), vec![1, 2]);
}
