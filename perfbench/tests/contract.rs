//! The benchmark's own contract: the checked-in manifests match the
//! harness's tables, every name is well formed, every workload emits
//! every metric its mode promises, and the result line parses back.

use std::path::Path;

use pipefill_perfbench::json::{parse, Value};
use pipefill_perfbench::spec::{layer_map, manifest, END_TO_END, LAYERS, WORKLOADS};
use pipefill_perfbench::{run, Scale, Workload};

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn checked_in_manifests_match_the_harness_tables() {
    assert_eq!(
        read("../BENCHMARK.json"),
        manifest(),
        "BENCHMARK.json drifted: regenerate it with `perfbench --manifest`"
    );
    assert_eq!(
        read("layer_map.json"),
        layer_map(),
        "layer_map.json drifted: regenerate it with `perfbench --layer-map`"
    );
}

#[test]
fn the_recorded_baseline_covers_every_workload_and_metric() {
    let baseline = parse(&read("baseline.json")).expect("baseline.json is JSON");
    assert!(baseline.get("threads").and_then(Value::as_f64).is_some());
    let end_to_end = baseline.get("end_to_end").expect("end_to_end");
    let per_layer = baseline.get("per_layer").expect("per_layer");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let median = end_to_end
                .get(w.name)
                .and_then(|metrics| metrics.get(m.name))
                .and_then(|v| v.get("median"))
                .and_then(Value::as_f64);
            assert!(median.is_some_and(|v| v > 0.0), "{} {}", w.name, m.name);
        }
        for m in &LAYERS {
            let value = per_layer
                .get(w.name)
                .and_then(|metrics| metrics.get(m.name));
            assert!(
                value.and_then(Value::as_f64).is_some(),
                "{} {}",
                w.name,
                m.name
            );
        }
    }
}

#[test]
fn names_units_and_bounds_are_well_formed() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(LAYERS.iter().map(|m| m.name));
    for name in &names {
        assert!(well_formed_name(name), "{name}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    let units = END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(LAYERS.iter().map(|m| m.unit));
    for unit in units {
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
    for w in &WORKLOADS {
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    assert_eq!(WORKLOADS.len(), Workload::ALL.len());
}

#[test]
fn the_layer_map_targets_real_metrics_and_workloads() {
    for layer in &LAYERS {
        for m in layer.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == m.end_to_end),
                "{} -> {}",
                layer.name,
                m.end_to_end
            );
            for w in m.workloads {
                assert!(Workload::from_name(w).is_some(), "{} -> {w}", layer.name);
            }
        }
    }
}

/// The metric names and values of a parsed result line.
fn parsed_metrics(line: &str) -> Vec<(String, f64, String)> {
    let doc = parse(line).expect("the result line is JSON");
    let Value::Obj(fields) = &doc else {
        panic!("the result line is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert!(doc
        .get("attempted")
        .and_then(Value::as_f64)
        .is_some_and(|n| n >= 1.0));
    assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(0.0));
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        panic!("metrics is an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let keys: Vec<&str> = match m {
                Value::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("{name} is an object"),
            };
            assert_eq!(keys, ["value", "unit"], "{name}");
            (
                name.clone(),
                m.get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value"),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// Runs every workload in one mode at smoke scale and checks the
/// emitted metrics against the registry, returning each workload's
/// values by name.
fn every_workload_emits_every_metric(trace: bool) -> Vec<(Workload, Vec<(String, f64)>)> {
    let mut all = Vec::new();
    for workload in Workload::ALL {
        let report = run(workload, 3, 0.0, trace, &Scale::SMOKE);
        assert!(
            report.checks.failures.is_empty(),
            "{}: {:?}",
            workload.name(),
            report.checks.failures
        );
        let line = report.json_line();
        let parsed = parsed_metrics(&line);
        let expected = report.expected();
        assert_eq!(parsed.len(), expected.len(), "{}", workload.name());
        for ((name, value, unit), (want_name, want_unit)) in parsed.iter().zip(&expected) {
            assert_eq!(name, want_name);
            assert_eq!(unit, want_unit, "{name}");
            let reported = report
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .expect("parsed metric was reported");
            assert_eq!(value.to_bits(), reported.1.to_bits(), "{name} round trip");
        }
        assert!(report.table().contains("failed_frac"));
        all.push((
            workload,
            parsed.into_iter().map(|(n, v, _)| (n, v)).collect(),
        ));
    }
    all
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("{name} missing"))
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for (workload, metrics) in every_workload_emits_every_metric(false) {
        for m in &END_TO_END {
            assert!(
                value(&metrics, m.name) > 0.0,
                "{}: {}",
                workload.name(),
                m.name
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_separate_the_regimes() {
    for (workload, metrics) in every_workload_emits_every_metric(true) {
        let skip = value(&metrics, "core.ff_skip_frac");
        let evictions = value(&metrics, "scheduler.evictions");
        match workload {
            Workload::QuiescentFleet => assert!(skip > 0.0 && evictions == 0.0),
            Workload::FaultFleet => assert!(skip == 0.0 && evictions > 0.0),
            _ => assert!(skip == 0.0 && evictions == 0.0, "{}", workload.name()),
        }
        if workload != Workload::ScheduleCertify {
            assert!(value(&metrics, "core.step_ns_p50") > 0.0);
            assert!(value(&metrics, "sim_core.queue.push_pop_ns") > 0.0);
        } else {
            assert!(value(&metrics, "schedverify.verify_ns_per_instr") > 0.0);
            assert!(value(&metrics, "pipeline.execute_streams_us") > 0.0);
        }
    }
}
