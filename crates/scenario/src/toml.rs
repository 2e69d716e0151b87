//! The scenario-file reader and writer for [`ScenarioSpec`]: one flat
//! `[scenario]` table (`backend = "fault"`, `iterations = 120`, ...) in
//! the workspace TOML subset, `pipefill_textfmt::toml`.
//!
//! Unknown keys, malformed values and stray sections are errors — a
//! typo'd scenario fails loudly, never silently no-ops (the same stance
//! the CLI flags take). [`render`] writes only explicitly-set fields, so
//! `render → parse` is identity on the spec.

use pipefill_core::PolicyKind;
use pipefill_textfmt::toml::{self, quote};

use crate::spec::ScenarioSpec;

/// Parses a scenario document.
///
/// # Errors
///
/// Returns `line N, col M: message` for syntax errors and for the
/// underlying [`ScenarioSpec::set`] message of a bad value. The parsed
/// spec is *not* validated — callers validate (or lower) after applying
/// any `--set` overrides, so an override can fix an incomplete file.
pub fn parse(text: &str) -> Result<ScenarioSpec, String> {
    let doc = toml::parse(text)?;
    if let Some(entry) = doc.preamble.first() {
        let err = entry.pos.error("keys must follow the [scenario] header");
        return Err(err.into());
    }
    let mut spec = ScenarioSpec::default();
    for section in &doc.sections {
        let name = &section.name;
        if name != "scenario" {
            let msg = format!("unknown section '[{name}]' (only [scenario] is accepted)");
            return Err(section.pos.error(msg).into());
        }
        for entry in &section.entries {
            let set = spec.set(&entry.key, &entry.value);
            set.map_err(|e| entry.pos.error(e.to_string()))?;
        }
    }
    if doc.sections.is_empty() {
        return Err("a scenario file needs a [scenario] section".into());
    }
    Ok(spec)
}

/// Renders a spec as a scenario document containing exactly its
/// explicitly-set fields, in canonical key order. `parse(render(spec))
/// == spec`.
pub fn render(spec: &ScenarioSpec) -> String {
    fn text<T: ToString>(v: Option<T>) -> Option<String> {
        v.map(|v| v.to_string())
    }
    let mtbf = |v: f64| match v.is_finite() {
        true => v.to_string(),
        false => quote("none"),
    };
    let fast_forward = spec.fast_forward.map(|on| if on { "on" } else { "off" });
    // A backend's `Display` is already its parseable lowercase spelling,
    // and a schedule's is one once lowercased (`GPipe`, `ZB-H1`): the
    // writer emits the forms a human would type.
    let schedule = text(spec.schedule).map(|s| quote(&s.to_lowercase()));
    let fields = [
        ("name", spec.name.as_deref().map(quote)),
        ("experiment", spec.experiment.as_deref().map(quote)),
        ("backend", text(spec.backend).as_deref().map(quote)),
        ("schedule", schedule),
        ("seed", text(spec.seed)),
        ("iterations", text(spec.iterations)),
        ("horizon_secs", text(spec.horizon_secs)),
        ("load", text(spec.load)),
        ("fill_fraction", text(spec.fill_fraction)),
        ("mtbf_secs", spec.mtbf_secs.map(mtbf)),
        ("checkpoint_secs", text(spec.checkpoint_secs)),
        ("fast_forward", fast_forward.map(quote)),
        ("policy", spec.policy.map(|v| quote(policy_str(v)))),
        ("jobs", text(spec.jobs)),
        ("gpus", text(spec.gpus)),
        ("seeds", text(spec.seeds)),
    ];
    let mut out = String::from("[scenario]\n");
    for (key, value) in fields {
        if let Some(value) = value {
            out += &format!("{key} = {value}\n");
        }
    }
    out
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

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_core::BackendKind;
    use pipefill_pipeline::ScheduleKind;

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
        assert!(err.contains("duplicate section '[scenario]'"), "{err}");
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
        assert_eq!(
            err,
            "line 7, col 1: duplicate key 'seed' in [scenario] (first set at line 4)"
        );
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
