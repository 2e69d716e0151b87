//! `detlint` — the workspace determinism lint.
//!
//! Every headline claim this repo makes — byte-identical results at any
//! `--threads`, fast-forward on/off bit-for-bit equal, degenerate-config
//! conformance across four backends — rests on one invariant: nothing in
//! a simulation crate may observe hash iteration order, wall-clock time,
//! thread identity, the process environment, or unseeded randomness.
//! The proptests enforce that invariant *dynamically* for the seeds they
//! run; this crate proves the discipline *statically*, at CI time, for
//! every line of the workspace.
//!
//! The pipeline: a hand-rolled Rust lexer ([`lexer`]) classifies each
//! source line (code with literals blanked, comment text, test-region
//! membership); the rule engine ([`rules`]) applies repo-specific
//! determinism rules scoped by the checked-in `detlint.toml` policy
//! ([`policy`], crate tiers `deterministic` / `driver` / `exempt`);
//! individual sites are suppressible only via an audited annotation
//! ([`suppress`]) that the tool records in a machine-readable report
//! ([`report`], checked in as `detlint-report.json`). The `detlint` bin
//! exposes `human` and `json` output and exits nonzero on violations.
//!
//! The crate depends only on zero-dependency in-tree leaf crates
//! (`pipefill-textfmt`, for its policy and report formats), which it
//! also audits — so it stays buildable offline, and nothing it checks can
//! reach it through a dependency chain.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod walk;

pub use policy::{Policy, RuleConfig, Tier};
pub use report::{to_human, to_json, Analysis, SCHEMA};
pub use rules::{check_file, FileAnalysis, Finding, Suppression, ALLOW_AUDIT, RULE_IDS};
pub use walk::analyze_workspace;

/// Lints a single source string (fixtures, tests) as repo-relative
/// `file` under `tier`.
pub fn analyze_source(file: &str, source: &str, tier: Tier, policy: &Policy) -> FileAnalysis {
    let lines = lexer::lex(source);
    rules::check_file(file, tier, policy, &lines)
}

/// The canonical rule configuration used by unit and fixture tests: a
/// minimal `[tiers]` table plus the same `[rules.*]` stanzas the
/// checked-in `detlint.toml` carries. Kept here so fixture tests pin
/// rule behavior even if the workspace policy later retunes tiers.
pub const DEFAULT_POLICY_FOR_TESTS: &str = r#"
[tiers]
x = "deterministic"
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
in_tests = false
files = ["metrics.rs"]
"#;
