//! Report rendering: `human` for terminals, `json` for CI and the
//! checked-in `detlint-report.json`.
//!
//! The JSON (via `pipefill_textfmt::json`, one finding per line) is
//! sorted by (file, line, rule), so the checked-in report compares
//! byte-for-byte.

use pipefill_textfmt::json::{Json, Layout};

use crate::rules::{Finding, Suppression};

/// A whole-workspace lint result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Unsuppressed findings, sorted.
    pub violations: Vec<Finding>,
    /// Accepted suppressions, sorted.
    pub suppressions: Vec<Suppression>,
}

/// Schema version stamped into the JSON document.
pub const SCHEMA: u32 = 1;

/// Renders the machine-readable report (trailing newline included).
pub fn to_json(analysis: &Analysis) -> String {
    let row = |file: &str, line: usize, rule: &str, (key, text): (&'static str, &str)| {
        let fields = [
            ("file", file.into()),
            ("line", line.into()),
            ("rule", rule.into()),
            (key, text.into()),
        ];
        Json::object(Layout::Inline, fields)
    };
    let violations = analysis
        .violations
        .iter()
        .map(|v| row(&v.file, v.line, &v.rule, ("message", &v.message)));
    let suppressions = analysis
        .suppressions
        .iter()
        .map(|s| row(&s.file, s.line, &s.rule, ("reason", &s.reason)));
    let violations = Json::Array(Layout::Block, violations.collect());
    let suppressions = Json::Array(Layout::Block, suppressions.collect());
    let fields = [
        ("schema", SCHEMA.into()),
        ("violation_count", analysis.violations.len().into()),
        ("suppression_count", analysis.suppressions.len().into()),
        ("violations", violations),
        ("suppressions", suppressions),
    ];
    Json::object(Layout::Block, fields).render()
}

/// Renders the terminal report.
pub fn to_human(analysis: &Analysis) -> String {
    let mut out = String::new();
    for v in &analysis.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            v.file, v.line, v.rule, v.message
        ));
    }
    if !analysis.suppressions.is_empty() {
        out.push_str(&format!(
            "{} audited suppression(s):\n",
            analysis.suppressions.len()
        ));
        for s in &analysis.suppressions {
            out.push_str(&format!(
                "  {}:{}: allow({}) — {}\n",
                s.file, s.line, s.rule, s.reason
            ));
        }
    }
    if analysis.violations.is_empty() {
        out.push_str(&format!(
            "detlint: clean ({} suppression(s) on record)\n",
            analysis.suppressions.len()
        ));
    } else {
        out.push_str(&format!(
            "detlint: {} violation(s)\n",
            analysis.violations.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Analysis {
        Analysis {
            violations: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "hash-iter".into(),
                message: "`m.keys` iterates \"hash\"".into(),
            }],
            suppressions: vec![Suppression {
                file: "crates/y/src/lib.rs".into(),
                line: 9,
                rule: "wall-clock".into(),
                reason: "display only".into(),
            }],
        }
    }

    #[test]
    fn json_is_stable() {
        let doc = to_json(&sample());
        assert!(doc.contains("\"violation_count\": 1"), "{doc}");
        assert!(doc.ends_with("}\n"), "{doc}");
        assert_eq!(doc, to_json(&sample()), "rendering must be deterministic");
    }

    #[test]
    fn empty_analysis_renders_empty_arrays() {
        let doc = to_json(&Analysis::default());
        assert!(doc.contains("\"violations\": []"), "{doc}");
        assert!(doc.contains("\"suppressions\": []"), "{doc}");
    }

    #[test]
    fn human_mode_reports_both_sections() {
        let text = to_human(&sample());
        assert!(
            text.contains("crates/x/src/lib.rs:3: [hash-iter]"),
            "{text}"
        );
        assert!(text.contains("allow(wall-clock) — display only"), "{text}");
        assert!(text.contains("1 violation(s)"), "{text}");
    }
}
