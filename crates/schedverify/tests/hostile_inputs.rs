//! Stream files whose declared counts dwarf their own text must be
//! rejected at parse time, quickly and without allocating by the
//! declared count: a stage count beyond the device lines once aborted
//! the verifier on a multi-terabyte allocation, and a microbatch count
//! beyond the device lines kept well-formedness looping for minutes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pipefill_schedverify::StreamSet;

fn parse_fixture(name: &str) -> (Result<StreamSet, String>, Duration) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/hostile")
        .join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    #[expect(
        clippy::disallowed_methods,
        reason = "the parse-time bound is a wall-clock property; no result depends on it"
    )]
    let start = Instant::now();
    let parsed = StreamSet::parse(&text);
    (parsed, start.elapsed())
}

#[test]
fn a_stage_count_beyond_the_device_lines_is_an_error() {
    let (parsed, took) = parse_fixture("huge-stages.toml");
    let err = parsed.expect_err("100 billion stages cannot come from one device line");
    assert!(err.starts_with("line 3: stages = 100000000000"), "{err}");
    assert!(err.contains("missing device_1"), "{err}");
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

#[test]
fn a_microbatch_count_beyond_the_device_lines_is_an_error() {
    let (parsed, took) = parse_fixture("huge-microbatches.toml");
    let err = parsed.expect_err("300 million microbatches cannot fit in two tokens");
    assert!(err.starts_with("line 4: microbatches = 300000000"), "{err}");
    assert!(took < Duration::from_secs(1), "took {took:?}");
}

#[test]
fn the_chunk_count_counts_toward_the_bound() {
    let text = "stages = 1\nmicrobatches = 2\nchunks = 3\ndevice_0 = \"F0.0 F0.1 B0.0 B0.1\"\n";
    let err = StreamSet::parse(text).expect_err("3 × 2 forwards need 6 tokens");
    assert!(
        err.starts_with("line 2: microbatches = 2 × chunks = 3 (line 3)"),
        "{err}"
    );
    let overflow = format!(
        "stages = 1\nmicrobatches = {}\nchunks = 2\ndevice_0 = \"F0\"\n",
        usize::MAX
    );
    assert!(StreamSet::parse(&overflow).is_err());
    // Exactly enough tokens is not a parse error (well-formedness judges
    // what they are).
    let text = "stages = 1\nmicrobatches = 2\nchunks = 2\ndevice_0 = \"F0.0 F0.1 F1.0 F1.1\"\n";
    assert!(StreamSet::parse(text).is_ok());
}

/// The stream reader shares the workspace TOML lexer, so a half-quoted
/// value is the same error it is in a scenario file, not a value whose
/// stray quote was silently trimmed.
#[test]
fn half_quoted_values_are_rejected_like_scenario_files() {
    let open_count = "stages = \"2\nmicrobatches = 2\n\
                      device_0 = \"F0 F1 B0 B1 sync opt\"\n\
                      device_1 = \"F0 B0 F1 B1 sync opt\"\n";
    let err = StreamSet::parse(open_count).expect_err("unterminated count");
    assert_eq!(err, "line 1, col 10: unterminated string \"2");
    let trailing_quote = "stages = 2\nmicrobatches = 2\n\
                          device_0 = \"F0 F1 B0 B1 sync opt\"\n\
                          device_1 = F0 B0 F1 B1 sync opt\"\n";
    let err = StreamSet::parse(trailing_quote).expect_err("misplaced quote");
    assert_eq!(
        err,
        "line 4, col 12: misplaced quote in value F0 B0 F1 B1 sync opt\""
    );
    // A repeated count is a duplicate key, not last-write-wins.
    let err = StreamSet::parse("stages = 2\nstages = 1\n").expect_err("duplicate");
    assert_eq!(
        err,
        "line 2, col 1: duplicate key 'stages' (first set at line 1)"
    );
    // The checked-in examples still parse.
    for name in ["deadlock.toml", "hand-1f1b.toml"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/streams")
            .join(name);
        let text = std::fs::read_to_string(&path).expect("example stream");
        StreamSet::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
