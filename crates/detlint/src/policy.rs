//! The checked-in `detlint.toml` policy: crate tiers and per-rule
//! applicability.
//!
//! The policy is deliberately *total*: every crate directory under
//! `crates/` (plus the root `pipefill` facade package) must be assigned
//! a tier, and every known rule must be configured — a new crate or a
//! new rule cannot slip in un-audited. The file is a `[tiers]` section
//! and one `[rules.<id>]` section per rule in the workspace TOML subset.

use std::collections::BTreeMap;

use pipefill_textfmt::toml::{self, Entry, Value};

use crate::rules::RULE_IDS;

/// How strictly a crate is held to the determinism discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Simulation/state crates: results must be byte-identical across
    /// thread counts, runs and hosts. All rules apply.
    Deterministic,
    /// Entry-point crates (CLI, bench harness): may read clocks, env
    /// and argv, but still must not introduce ordering hazards.
    Driver,
    /// Walked but not linted (reserved; no crate uses it today).
    Exempt,
}

impl Tier {
    fn parse(s: &str) -> Result<Tier, String> {
        let all = [Tier::Deterministic, Tier::Driver, Tier::Exempt];
        all.into_iter()
            .find(|t| t.as_str() == s)
            .ok_or_else(|| format!("unknown tier '{s}' (expected deterministic|driver|exempt)"))
    }

    /// The policy-file spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Deterministic => "deterministic",
            Tier::Driver => "driver",
            Tier::Exempt => "exempt",
        }
    }
}

/// Per-rule applicability, from a `[rules.<id>]` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleConfig {
    /// Tiers the rule fires in.
    pub tiers: Vec<Tier>,
    /// Whether the rule also fires inside `#[cfg(test)]` code.
    pub in_tests: bool,
    /// When non-empty, the rule only fires in files whose name matches
    /// one of these (exact file-name match, e.g. `metrics.rs`).
    pub files: Vec<String>,
}

/// The parsed policy document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Policy {
    /// Crate directory name (or `pipefill` for the root package) → tier.
    pub tiers: BTreeMap<String, Tier>,
    /// Rule id → applicability.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Policy {
    /// Looks up a crate's tier.
    pub fn tier_of(&self, crate_name: &str) -> Option<Tier> {
        self.tiers.get(crate_name).copied()
    }

    /// Whether `rule` applies in `tier` for a file named `file_name`,
    /// on a line that is (`in_test`) or is not test code.
    pub fn applies(&self, rule: &str, tier: Tier, file_name: &str, in_test: bool) -> bool {
        let Some(cfg) = self.rules.get(rule) else {
            return false;
        };
        if tier == Tier::Exempt || !cfg.tiers.contains(&tier) {
            return false;
        }
        if in_test && !cfg.in_tests {
            return false;
        }
        cfg.files.is_empty() || cfg.files.iter().any(|f| f == file_name)
    }
}

/// Parses `detlint.toml`.
///
/// # Errors
///
/// `line N, col M: message` for syntax errors; unknown sections,
/// unknown or unconfigured rules, duplicate keys and bad tier names are
/// all errors.
pub fn parse(text: &str) -> Result<Policy, String> {
    let doc = toml::parse(text)?;
    if let Some(entry) = doc.preamble.first() {
        return Err(entry.pos.error("keys must follow a section header").into());
    }
    let mut tiers: BTreeMap<String, Tier> = BTreeMap::new();
    let mut rules: BTreeMap<String, RuleConfig> = BTreeMap::new();
    for section in &doc.sections {
        let name = section.name.as_str();
        if name == "tiers" {
            for entry in &section.entries {
                let tier = Tier::parse(string(entry)?).map_err(|e| entry.pos.error(e))?;
                tiers.insert(entry.key.clone(), tier);
            }
            continue;
        }
        let Some(rule) = name.strip_prefix("rules.") else {
            let msg = format!("unknown section '[{name}]' (expected [tiers] or [rules.<id>])");
            return Err(section.pos.error(msg).into());
        };
        if !RULE_IDS.contains(&rule) {
            let msg = format!("unknown rule '{rule}' (known: {})", RULE_IDS.join(", "));
            return Err(section.pos.error(msg).into());
        }
        let mut cfg = RuleConfig {
            tiers: Vec::new(),
            in_tests: true,
            files: Vec::new(),
        };
        for entry in &section.entries {
            let fail = |msg: &str| Err(entry.error(msg).into());
            match (entry.key.as_str(), &entry.value) {
                ("tiers", Value::Array(names)) => {
                    let tiers: Result<_, _> = names.iter().map(|n| Tier::parse(n)).collect();
                    cfg.tiers = tiers.map_err(|e| entry.pos.error(e))?;
                }
                ("files", Value::Array(files)) => cfg.files = files.clone(),
                ("in_tests", Value::Bare(b)) if b == "true" || b == "false" => {
                    cfg.in_tests = b == "true";
                }
                ("tiers" | "files", _) => return fail("expects an array like [\"a\", \"b\"]"),
                ("in_tests", _) => return fail("expects true or false"),
                _ => return fail("is not a rule key (expected tiers, in_tests or files)"),
            }
        }
        rules.insert(rule.to_string(), cfg);
    }
    for rule in RULE_IDS {
        let Some(cfg) = rules.get(*rule) else {
            return Err(format!(
                "rule '{rule}' is not configured — every known rule needs a [rules.{rule}] section"
            ));
        };
        if cfg.tiers.is_empty() {
            return Err(format!("rule '{rule}' lists no tiers"));
        }
    }
    if tiers.is_empty() {
        return Err("policy has no [tiers] section".into());
    }
    Ok(Policy { tiers, rules })
}

/// A `[tiers]` value: a quoted string.
fn string(entry: &Entry) -> Result<&str, String> {
    match &entry.value {
        Value::Str(s) => Ok(s),
        _ => Err(entry.error("expects a quoted string").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
# tiers
[tiers]
core = "deterministic"
cli = "driver"

[rules.hash-iter]
tiers = ["deterministic", "driver"]

[rules.wall-clock]
tiers = ["deterministic"]

[rules.ambient-env]
tiers = ["deterministic"]
in_tests = false

[rules.rand-crate]
tiers = ["deterministic", "driver"]

[rules.float-sort]
tiers = ["deterministic", "driver"]

[rules.metrics-cast]
tiers = ["deterministic"]
files = ["metrics.rs"]
"#;

    #[test]
    fn parses_a_full_policy() {
        let p = parse(MINI).unwrap();
        assert_eq!(p.tier_of("core"), Some(Tier::Deterministic));
        assert_eq!(p.tier_of("cli"), Some(Tier::Driver));
        assert!(p.applies("hash-iter", Tier::Deterministic, "fleet.rs", false));
        assert!(p.applies("hash-iter", Tier::Driver, "main.rs", false));
        assert!(!p.applies("wall-clock", Tier::Driver, "main.rs", false));
        assert!(!p.applies("ambient-env", Tier::Deterministic, "csv.rs", true));
        assert!(p.applies("metrics-cast", Tier::Deterministic, "metrics.rs", false));
        assert!(!p.applies("metrics-cast", Tier::Deterministic, "fleet.rs", false));
    }

    #[test]
    fn duplicate_keys_are_rejected_with_first_line() {
        let doc = format!("{MINI}\n[tiers]\n");
        let err = parse(&doc).unwrap_err();
        assert!(
            err.contains("duplicate") || err.contains("unknown"),
            "{err}"
        );
        let dup = MINI.replace(
            "core = \"deterministic\"",
            "core = \"deterministic\"\ncore = \"driver\"",
        );
        let err = parse(&dup).unwrap_err();
        assert!(err.contains("duplicate key 'core'"), "{err}");
        assert!(err.contains("first set at line"), "{err}");
    }

    #[test]
    fn missing_rule_config_is_an_error() {
        let truncated = MINI.replace("[rules.metrics-cast]", "[rules.float-sort]");
        let err = parse(&truncated).unwrap_err();
        assert!(
            err.contains("duplicate section") || err.contains("metrics-cast"),
            "{err}"
        );
    }

    #[test]
    fn unknown_rule_and_bad_tier_are_errors() {
        let err = parse("[rules.made-up]\ntiers = [\"deterministic\"]\n").unwrap_err();
        assert!(err.contains("unknown rule 'made-up'"), "{err}");
        let err = parse("[tiers]\ncore = \"golden\"\n").unwrap_err();
        assert!(err.contains("unknown tier 'golden'"), "{err}");
    }
}
