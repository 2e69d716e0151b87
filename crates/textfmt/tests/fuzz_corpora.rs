//! Mutation fuzzing of the shared text-format layer over the checked-in
//! corpora: scenario and stream files and `tests/corpus/sections.toml`
//! (the one multi-section document) for the TOML reader, the perf
//! snapshots and the schedule certificate pin for the JSON reader.
//!
//! Each case mutates one corpus file (a byte flip, a truncation, a
//! duplicated line, an inserted quote, bracket or separator, or a line
//! break added after the next opening bracket or comma) and
//! requires that the reader does not panic, that any error is located
//! inside the mutated input, and that whatever JSON still parses renders
//! back to the same tree.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use pipefill_textfmt::{json, toml, Pos};
use proptest::prelude::*;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The sorted `*.<ext>` files of `dir`, read.
fn files_in(dir: &str, ext: &str) -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
        .expect("corpus directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    paths.sort();
    paths.iter().map(|p| read(p)).collect()
}

fn read(path: &Path) -> (String, String) {
    let text = std::fs::read_to_string(path).expect("corpus file");
    (path.display().to_string(), text)
}

/// `(path, text)` of every TOML corpus file.
fn toml_corpus() -> &'static [(String, String)] {
    static CORPUS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut corpus = files_in("examples/scenarios", "toml");
        corpus.extend(files_in("examples/streams", "toml"));
        corpus.push(read(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/sections.toml"),
        ));
        corpus
    })
}

/// `(path, text)` of every JSON corpus file.
fn json_corpus() -> &'static [(String, String)] {
    static CORPUS: OnceLock<Vec<(String, String)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let json = files_in(".", "json").into_iter();
        json.filter(|(path, _)| path.contains("BENCH_") || path.ends_with("-report.json"))
            .collect()
    })
}

/// Applies mutation `kind` (0..5) at `at`, a fraction of the input in
/// 1/65536ths.
fn mutate(text: &str, kind: u32, at: u32, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = (bytes.len() * at as usize) >> 16;
    match kind {
        0 if !bytes.is_empty() => bytes[i] ^= byte.max(1),
        1 => bytes.truncate(i),
        2 => {
            let start = bytes[..i]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |n| n + 1);
            let end = bytes[i..].iter().position(|&b| b == b'\n');
            let end = end.map_or(bytes.len(), |n| i + n + 1);
            let line = bytes[start..end].to_vec();
            bytes.splice(end..end, line);
        }
        3 => {
            let inserts = b"\"[]{},:#=\\\n";
            bytes.insert(i, inserts[byte as usize % inserts.len()]);
        }
        _ => {
            let next = bytes[i..].iter().position(|b| b"[{,".contains(b));
            let at = next.map_or(bytes.len(), |n| i + n + 1);
            bytes.insert(at, b'\n');
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn assert_inside(text: &str, pos: Pos, what: &str) {
    let lines: Vec<&str> = text.split('\n').collect();
    assert!(
        (1..=lines.len()).contains(&pos.line),
        "{what}: line {} outside 1..={}",
        pos.line,
        lines.len()
    );
    let len = lines[pos.line - 1].chars().count();
    assert!(
        (1..=len + 1).contains(&pos.col),
        "{what}: col {} outside 1..={} on line {}",
        pos.col,
        len + 1,
        pos.line
    );
}

#[test]
fn the_corpora_parse_and_the_json_renders_byte_for_byte() {
    let toml = toml_corpus();
    assert!(toml.len() >= 8, "{} TOML files", toml.len());
    for (path, text) in toml {
        let doc = toml::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(
            !doc.preamble.is_empty() || !doc.sections.is_empty(),
            "{path}"
        );
    }
    let json = json_corpus();
    assert_eq!(
        json.len(),
        3,
        "BENCH_fleet, BENCH_engine and schedcert-report"
    );
    for (path, text) in json {
        let tree = json::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(&tree.render(), text, "{path}");
    }
}

#[test]
fn the_multi_section_document_keeps_its_shape() {
    let (path, text) = toml_corpus().last().expect("sections.toml");
    let doc = toml::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
    let names: Vec<&str> = doc.sections.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["cluster", "fill", "faults", "empty", "output"]);
    let values: Vec<&str> = doc.preamble.iter().map(|e| e.value.as_str()).collect();
    assert_eq!(
        values,
        ["1", "fill sweep # the hash is content, not a comment"]
    );
    assert_eq!(doc.sections[1].entries[2].value, "'#' inside quotes stays");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    #[test]
    fn mutated_toml_never_panics_and_errors_are_located(
        file in 0usize..64,
        kind in 0u32..5,
        at in 0u32..65536,
        byte in 0u8..255,
    ) {
        let corpus = toml_corpus();
        let (path, text) = &corpus[file % corpus.len()];
        let text = mutate(text, kind, at, byte);
        let what = format!("{path} (mutation {kind} at {at}/65536, byte {byte})");
        match toml::parse(&text) {
            Ok(doc) => {
                let sections = doc.sections.iter();
                let entries = doc.preamble.iter().chain(sections.clone().flat_map(|s| &s.entries));
                for pos in sections.map(|s| s.pos).chain(entries.map(|e| e.pos)) {
                    assert_inside(&text, pos, &what);
                }
            }
            Err(e) => assert_inside(&text, e.pos, &what),
        }
    }

    #[test]
    fn mutated_json_never_panics_and_render_parse_is_identity(
        file in 0usize..64,
        kind in 0u32..5,
        at in 0u32..65536,
        byte in 0u8..255,
    ) {
        let corpus = json_corpus();
        let (path, text) = &corpus[file % corpus.len()];
        let text = mutate(text, kind, at, byte);
        let what = format!("{path} (mutation {kind} at {at}/65536, byte {byte})");
        match json::parse(&text) {
            Ok(tree) => {
                let rendered = tree.render();
                let back = json::parse(&rendered).unwrap_or_else(|e| panic!("{what}: {e}"));
                prop_assert_eq!(back, tree, "{}", what);
            }
            Err(e) => assert_inside(&text, e.pos, &what),
        }
    }
}
