//! A hand-rolled TOML-subset reader and writer for [`ScenarioSpec`].
//!
//! The workspace's dependency policy has no TOML crate (serde is a no-op
//! shim, like the hand-rolled CSV writer), and a scenario is one flat
//! table — so the grammar here is the minimal subset a spec needs:
//!
//! ```toml
//! # comment
//! [scenario]
//! backend = "fault"          # quoted strings
//! iterations = 120           # integers
//! mtbf_secs = 600.5          # floats
//! ```
//!
//! One `[scenario]` header, `key = value` lines, `#` comments (full-line
//! or trailing), blank lines. Unknown keys, duplicate keys, malformed
//! values and stray sections are errors — a typo'd scenario fails
//! loudly, never silently no-ops (the same stance the CLI flags take).
//! [`render`] writes only explicitly-set fields, so `render → parse` is
//! identity on the spec.

use pipefill_core::{BackendKind, PolicyKind};
use pipefill_pipeline::ScheduleKind;

use crate::spec::ScenarioSpec;

/// Parses a scenario document.
///
/// # Errors
///
/// Returns `line N: message` for syntax errors and the underlying
/// [`ScenarioSpec::set`] message for value errors. The parsed spec is
/// *not* validated — callers validate (or lower) after applying any
/// `--set` overrides, so an override can fix an incomplete file.
pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::default();
    let mut seen_header = false;
    // Key → line it was first set on, so a duplicate's error points at
    // both occurrences (in a hand-edited file the first one is usually
    // the stale line the author forgot to delete).
    let mut seen_keys: Vec<(String, usize)> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", idx + 1);
        let line = strip_comment(raw_line);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let Some(section) = section.strip_suffix(']') else {
                return Err(at(format!("unterminated section header '{line}'")));
            };
            if section.trim() != "scenario" {
                return Err(at(format!(
                    "unknown section '[{}]' (only [scenario] is accepted)",
                    section.trim()
                )));
            }
            if seen_header {
                return Err(at("duplicate [scenario] section".into()));
            }
            seen_header = true;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(at(format!("expected 'key = value', got '{line}'")));
        };
        if !seen_header {
            return Err(at("keys must follow the [scenario] header".into()));
        }
        let key = key.trim();
        let value = unquote(value.trim()).map_err(&at)?;
        if let Some((_, first)) = seen_keys.iter().find(|(k, _)| k == key) {
            return Err(at(format!(
                "duplicate key '{key}' (first set at line {first})"
            )));
        }
        spec.set(key, &value).map_err(|e| at(e.to_string()))?;
        seen_keys.push((key.to_string(), idx + 1));
    }
    if !seen_header {
        return Err("a scenario file needs a [scenario] section".into());
    }
    Ok(spec)
}

/// Renders a spec as a scenario document containing exactly its
/// explicitly-set fields, in canonical key order. `parse(render(spec))
/// == spec`.
pub fn render(spec: &ScenarioSpec) -> String {
    let mut out = String::from("[scenario]\n");
    let mut kv = |key: &str, value: String| {
        out.push_str(key);
        out.push_str(" = ");
        out.push_str(&value);
        out.push('\n');
    };
    if let Some(v) = &spec.name {
        kv("name", quote(v));
    }
    if let Some(v) = &spec.experiment {
        kv("experiment", quote(v));
    }
    if let Some(v) = spec.backend {
        kv("backend", quote(&backend_str(v)));
    }
    if let Some(v) = spec.schedule {
        kv("schedule", quote(&schedule_str(v)));
    }
    if let Some(v) = spec.seed {
        kv("seed", v.to_string());
    }
    if let Some(v) = spec.iterations {
        kv("iterations", v.to_string());
    }
    if let Some(v) = spec.horizon_secs {
        kv("horizon_secs", v.to_string());
    }
    if let Some(v) = spec.load {
        kv("load", v.to_string());
    }
    if let Some(v) = spec.fill_fraction {
        kv("fill_fraction", v.to_string());
    }
    if let Some(v) = spec.mtbf_secs {
        if v.is_finite() {
            kv("mtbf_secs", v.to_string());
        } else {
            kv("mtbf_secs", quote("none"));
        }
    }
    if let Some(v) = spec.checkpoint_secs {
        kv("checkpoint_secs", v.to_string());
    }
    if let Some(v) = spec.fast_forward {
        kv("fast_forward", quote(if v { "on" } else { "off" }));
    }
    if let Some(v) = spec.policy {
        kv("policy", quote(policy_str(v)));
    }
    if let Some(v) = spec.jobs {
        kv("jobs", v.to_string());
    }
    if let Some(v) = spec.gpus {
        kv("gpus", v.to_string());
    }
    if let Some(v) = spec.seeds {
        kv("seeds", v.to_string());
    }
    out
}

/// The canonical parseable spelling of a backend (its `Display` is
/// already lowercase).
fn backend_str(backend: BackendKind) -> String {
    backend.to_string()
}

/// The canonical parseable spelling of a schedule. `ScheduleKind`'s
/// `Display` prints presentation casing (`GPipe`, `ZB-H1`); its parser
/// is case-insensitive, but the writer emits the documented lowercase
/// forms so rendered files match what a human would type.
fn schedule_str(schedule: ScheduleKind) -> String {
    match schedule {
        ScheduleKind::GPipe => "gpipe".to_string(),
        ScheduleKind::OneFOneB => "1f1b".to_string(),
        ScheduleKind::Interleaved { chunks } => format!("interleaved:{chunks}"),
        ScheduleKind::ZbH1 => "zb-h1".to_string(),
    }
}

/// The canonical parseable spelling of a policy (`Display` prints
/// presentation forms like `Makespan-Min` the parser rejects).
fn policy_str(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::Fifo => "fifo",
        PolicyKind::Sjf => "sjf",
        PolicyKind::MakespanMin => "makespan-min",
        PolicyKind::DeadlineThenSjf => "edf",
    }
}

fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

/// Drops a trailing `#` comment, respecting double quotes.
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

/// Removes surrounding double quotes from a value, rejecting embedded
/// quotes and half-quoted forms. Bare (unquoted) values pass through for
/// the numeric keys.
fn unquote(value: &str) -> Result<String, String> {
    if let Some(inner) = value.strip_prefix('"') {
        let Some(inner) = inner.strip_suffix('"') else {
            return Err(format!("unterminated string {value}"));
        };
        if inner.contains('"') {
            return Err(format!("embedded quote in string {value}"));
        }
        return Ok(inner.to_string());
    }
    if value.contains('"') {
        return Err(format!("misplaced quote in value {value}"));
    }
    if value.is_empty() {
        return Err("missing value".into());
    }
    Ok(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_core::BackendKind;

    #[test]
    fn parses_a_full_fault_scenario() {
        let text = r#"
# a fault-storm scenario
[scenario]
name = "fault-storm"   # trailing comment
backend = "fault"
schedule = "1f1b"
seed = 3
iterations = 120
fill_fraction = 0.68
mtbf_secs = 600
checkpoint_secs = 2.5
"#;
        let spec = parse(text).unwrap();
        assert_eq!(spec.name.as_deref(), Some("fault-storm"));
        assert_eq!(spec.backend, Some(BackendKind::Fault));
        assert_eq!(spec.schedule, Some(ScheduleKind::OneFOneB));
        assert_eq!(spec.seed, Some(3));
        assert_eq!(spec.iterations, Some(120));
        assert_eq!(spec.mtbf_secs, Some(600.0));
        assert_eq!(spec.checkpoint_secs, Some(2.5));
        spec.validate().unwrap();
    }

    #[test]
    fn render_parse_round_trips() {
        let spec = ScenarioSpec::run(BackendKind::Fleet)
            .with_name("little-fleet")
            .with_jobs(2)
            .with_gpus(256)
            .with_iterations(40)
            .with_schedule(ScheduleKind::Interleaved { chunks: 3 })
            .with_policy(PolicyKind::MakespanMin)
            .with_mtbf_secs(f64::INFINITY)
            .with_fast_forward(false);
        let text = render(&spec);
        assert_eq!(parse(&text).unwrap(), spec);
        assert!(text.contains("mtbf_secs = \"none\""), "{text}");
        assert!(text.contains("fast_forward = \"off\""), "{text}");
        assert!(text.contains("schedule = \"interleaved:3\""), "{text}");
        assert!(text.contains("policy = \"makespan-min\""), "{text}");
    }

    #[test]
    fn rejects_malformed_documents() {
        let err = parse("backend = \"coarse\"").unwrap_err();
        assert!(err.contains("[scenario]"), "{err}");
        let err = parse("[scenario]\n[scenario]\n").unwrap_err();
        assert!(err.contains("duplicate [scenario]"), "{err}");
        let err = parse("[workload]\n").unwrap_err();
        assert!(err.contains("unknown section"), "{err}");
        let err = parse("[scenario]\nbackend \"coarse\"\n").unwrap_err();
        assert!(err.contains("key = value"), "{err}");
        let err = parse("[scenario]\nseed = 1\nseed = 2\n").unwrap_err();
        assert!(err.contains("duplicate key 'seed'"), "{err}");
        assert!(err.contains("(first set at line 2)"), "{err}");
        let err = parse("[scenario]\nwarp = 9\n").unwrap_err();
        assert!(err.contains("unknown scenario key"), "{err}");
        let err = parse("[scenario]\nbackend = \"coarse\n").unwrap_err();
        assert!(err.contains("unterminated string"), "{err}");
        let err = parse("[scenario]\nmtbf_secs = inf\n").unwrap_err();
        assert!(err.contains("'none'"), "{err}");
        let err = parse("[scenario]\nseed =\n").unwrap_err();
        assert!(err.contains("missing value"), "{err}");
        assert!(parse("").is_err());
    }

    #[test]
    fn duplicate_key_error_points_at_both_lines() {
        // Blank lines and comments between the two occurrences must not
        // skew either line number.
        let text = "[scenario]\n\n# pick a seed\nseed = 1\nbackend = \"coarse\"\n\nseed = 7\n";
        let err = parse(text).unwrap_err();
        assert_eq!(err, "line 7: duplicate key 'seed' (first set at line 4)");
        // Same key, different casing is a different key (the unknown-key
        // error fires first), so the duplicate check stays exact-match.
        let err = parse("[scenario]\nseed = 1\nSeed = 2\n").unwrap_err();
        assert!(err.contains("unknown scenario key"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let spec = parse("\n# header\n\n[scenario]  # inline\nbackend = \"coarse\"\n\n").unwrap();
        assert_eq!(spec.backend, Some(BackendKind::Coarse));
        // A '#' inside a quoted string is content, not a comment.
        let spec = parse("[scenario]\nname = \"exp #4\"\n").unwrap();
        assert_eq!(spec.name.as_deref(), Some("exp #4"));
    }
}
