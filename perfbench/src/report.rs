//! Correctness bookkeeping and the result a run prints: a human-readable
//! table, then one JSON line.

use crate::json::{render, Value};
use crate::spec::{END_TO_END, LAYERS};
use crate::{Timings, Workload};

/// Correctness checks made during a run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// What each failed check found.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload run.
    pub workload: Workload,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Correctness checks.
    pub checks: Checks,
    /// The contract metrics, by name, in registry order after
    /// [`Report::finish`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Values shown in the table only: simulated outcomes and
    /// `failed_frac`, as `(name, unit, value)`; `None` where the workload
    /// has no such value.
    pub notes: Vec<(&'static str, &'static str, Option<f64>)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload, trace: bool) -> Report {
        Report {
            workload,
            trace,
            checks: Checks::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records `wall_s` and `setup_s`, and notes the unscaled host
    /// figures beside them.
    pub fn set_timings(&mut self, timings: &Timings) {
        self.set("wall_s", timings.wall_s);
        self.set("setup_s", timings.setup_s);
        self.notes.extend([
            ("host_wall_s", "s", Some(timings.host_wall_s)),
            ("host_slowdown", "ratio", Some(timings.host_slowdown)),
        ]);
    }

    /// The contract metric names this mode must report, with units.
    pub fn expected(&self) -> Vec<(&'static str, &'static str)> {
        if self.trace {
            LAYERS.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        }
    }

    /// Orders the metrics by registry and checks that every expected
    /// metric is present once and finite, and that end-to-end metrics
    /// are positive.
    pub fn finish(&mut self) {
        let expected = self.expected();
        let mut ordered = Vec::with_capacity(expected.len());
        let mut problems = Vec::new();
        for (name, _) in &expected {
            let found: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            match found.as_slice() {
                [v] if !v.is_finite() => problems.push(format!("{name} = {v} is not finite")),
                [v] if !self.trace && *v <= 0.0 => {
                    problems.push(format!("{name} = {v} is not positive"))
                }
                [v] => ordered.push((*name, *v)),
                [] => problems.push(format!("{name} was not measured")),
                _ => problems.push(format!("{name} was reported {} times", found.len())),
            }
        }
        for (name, _) in &self.metrics {
            if !expected.iter().any(|(n, _)| n == name) {
                problems.push(format!("{name} is not a registered metric"));
            }
        }
        for (name, _, value) in &self.notes {
            if value.is_some_and(|v| !v.is_finite()) {
                problems.push(format!("{name} is not finite"));
            }
        }
        let summary = problems.join("; ");
        self.checks
            .check(problems.is_empty(), || format!("metrics: {summary}"));
        self.metrics = ordered;
        let failed_frac = self.checks.failures.len() as f64 / self.checks.attempted as f64;
        self.notes.push(("failed_frac", "ratio", Some(failed_frac)));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let units = self.expected();
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = units
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or("", |&(_, u)| u);
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let doc = Value::Obj(vec![
            (
                "correct".to_string(),
                Value::Bool(self.checks.failures.is_empty()),
            ),
            (
                "attempted".to_string(),
                Value::Num(self.checks.attempted as f64),
            ),
            (
                "failed".to_string(),
                Value::Num(self.checks.failures.len() as f64),
            ),
            ("metrics".to_string(), Value::Obj(metrics)),
        ]);
        render(&doc, false)
    }

    /// The human-readable table printed above the result line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({}):\n",
            self.workload.name(),
            if self.trace {
                "traced run, per-layer metrics"
            } else {
                "end-to-end metrics, tracing off"
            }
        );
        let units = self.expected();
        for &(name, value) in &self.metrics {
            let unit = units.iter().find(|(n, _)| *n == name).map_or("", |u| u.1);
            out.push_str(&format!("  {name:<34} {value:>16.6} {unit}\n"));
        }
        for &(name, unit, value) in &self.notes {
            match value {
                Some(v) => out.push_str(&format!("  {name:<34} {v:>16.6} {unit}\n")),
                None => out.push_str(&format!("  {name:<34} {:>16} {unit}\n", "n/a")),
            }
        }
        out.push_str(&format!(
            "  checks: {} attempted, {} failed\n",
            self.checks.attempted,
            self.checks.failures.len()
        ));
        for failure in &self.checks.failures {
            out.push_str(&format!("  FAILED: {failure}\n"));
        }
        out
    }
}
