//! The perf-snapshot format: a checked-in JSON record of wall-clock
//! timings pinning the simulator's performance trajectory.
//!
//! It is written and read through `pipefill_textfmt::json`. A snapshot
//! that fails [`Snapshot::validate`] (wrong schema, non-finite numbers,
//! an entry whose fast-forward never fired) is rejected loudly by the
//! `perf_snapshot --check` CI gate.
//!
//! Wall-clock numbers are only comparable on the same machine class, so
//! every snapshot carries a `runner_class` tag (the `PERF_RUNNER_CLASS`
//! environment variable at generation time); the regression gate
//! compares a fresh run's wall times against a recorded entry only when
//! the classes match, and otherwise falls back to schema + speedup-floor
//! checks. The skip count is deterministic, so [`Entry::check_skip_count`]
//! compares it exactly on every machine class.

use pipefill_textfmt::json::{self, Json, Layout};

/// Schema tag every snapshot must carry.
pub const SCHEMA: &str = "pipefill-perf-snapshot/v1";

/// The speedup floor `--check` enforces on every entry that measured
/// both modes: fast-forward must pay for itself by at least this factor.
pub const SPEEDUP_FLOOR: f64 = 10.0;

/// Allowed wall-clock regression before `--check` fails, as a fraction
/// of the recorded time (same runner class only).
pub const REGRESSION_TOLERANCE: f64 = 0.25;

/// Absolute slack added on top of [`REGRESSION_TOLERANCE`]: a fraction
/// of a sub-100ms measurement is timer noise, not a regression signal.
pub const NOISE_FLOOR_SECS: f64 = 0.1;

/// One checked-in perf-snapshot document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Must equal [`SCHEMA`].
    pub schema: String,
    /// Machine class the wall-clock numbers were measured on.
    pub runner_class: String,
    /// The measurements.
    pub entries: Vec<Entry>,
}

/// One measured configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Entry {
    /// Stable name the regression gate matches entries by.
    pub name: String,
    /// Which profile produced it (`ci` runs in the gate, `full` is the
    /// headline generated at snapshot-refresh time).
    pub profile: String,
    /// Concurrent main jobs simulated.
    pub jobs: u64,
    /// Total GPUs the simulated fleet represents.
    pub gpus: u64,
    /// Simulated span in seconds.
    pub simulated_secs: f64,
    /// Iterations the fast-forward skipped in the `on` run (must be
    /// positive — a snapshot whose skip never fired measures nothing).
    pub iterations_fast_forwarded: u64,
    /// Wall seconds with fast-forward on.
    pub wall_secs_ff_on: f64,
    /// Wall seconds with fast-forward off; 0 when the event-fidelity
    /// baseline was not measured for this entry.
    pub wall_secs_ff_off: f64,
    /// `wall_secs_ff_off / wall_secs_ff_on`; 0 when off was unmeasured.
    pub speedup: f64,
}

impl Entry {
    /// Checks a fresh measurement's skip count against this recorded
    /// entry. The count is a pure function of the configuration, not of
    /// the machine, so it must match exactly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the entry and both counts.
    pub fn check_skip_count(&self, fresh: &Entry) -> Result<(), String> {
        if fresh.iterations_fast_forwarded == self.iterations_fast_forwarded {
            Ok(())
        } else {
            Err(format!(
                "'{}' skipped {} iterations, but the snapshot records {}",
                self.name, fresh.iterations_fast_forwarded, self.iterations_fast_forwarded
            ))
        }
    }
}

impl Snapshot {
    /// Renders the document; `parse(to_json(s)) == s`.
    pub fn to_json(&self) -> String {
        let entries = self.entries.iter().map(|e| {
            let skipped = e.iterations_fast_forwarded;
            let fields = [
                ("name", e.name.as_str().into()),
                ("profile", e.profile.as_str().into()),
                ("jobs", e.jobs.into()),
                ("gpus", e.gpus.into()),
                ("simulated_secs", e.simulated_secs.into()),
                ("iterations_fast_forwarded", skipped.into()),
                ("wall_secs_ff_on", e.wall_secs_ff_on.into()),
                ("wall_secs_ff_off", e.wall_secs_ff_off.into()),
                ("speedup", e.speedup.into()),
            ];
            Json::object(Layout::Block, fields)
        });
        let fields = [
            ("schema", self.schema.as_str().into()),
            ("runner_class", self.runner_class.as_str().into()),
            ("entries", Json::Array(Layout::Block, entries.collect())),
        ];
        Json::object(Layout::Block, fields).render()
    }

    /// Parses a snapshot document.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON (located at a line and
    /// column), missing or mistyped fields, and unknown keys.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let mut snapshot = Snapshot::default();
        for (key, v) in object(&json::parse(text)?, "document")? {
            match (key.as_str(), v) {
                ("schema", Json::Str(s)) => snapshot.schema = s.clone(),
                ("runner_class", Json::Str(s)) => snapshot.runner_class = s.clone(),
                ("entries", Json::Array(_, items)) => {
                    let entries = items.iter().enumerate().map(|(i, e)| parse_entry(e, i));
                    snapshot.entries = entries.collect::<Result<_, _>>()?;
                }
                ("schema" | "runner_class" | "entries", other) => {
                    return Err(format!("{key}: mistyped value {other:?}"))
                }
                (other, _) => return Err(format!("unknown snapshot key '{other}'")),
            }
        }
        if snapshot.schema.is_empty() {
            return Err("snapshot is missing 'schema'".into());
        }
        Ok(snapshot)
    }

    /// Structural sanity: schema tag, finite positive timings, fired
    /// fast-forward, unique names, and the speedup identity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry and field.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!(
                "schema mismatch: expected '{SCHEMA}', got '{}'",
                self.schema
            ));
        }
        if self.runner_class.is_empty() {
            return Err("runner_class must be non-empty".into());
        }
        if self.entries.is_empty() {
            return Err("a snapshot needs at least one entry".into());
        }
        let mut names: Vec<&str> = Vec::new();
        for e in &self.entries {
            let ctx = |field: &str| format!("entry '{}': {field}", e.name);
            if e.name.is_empty() {
                return Err("an entry has an empty name".into());
            }
            if names.contains(&e.name.as_str()) {
                return Err(format!("duplicate entry name '{}'", e.name));
            }
            names.push(&e.name);
            if !matches!(e.profile.as_str(), "ci" | "full") {
                return Err(ctx(&format!("unknown profile '{}'", e.profile)));
            }
            if e.jobs == 0 || e.gpus == 0 {
                return Err(ctx("jobs and gpus must be positive"));
            }
            if !(e.simulated_secs > 0.0 && e.simulated_secs.is_finite()) {
                return Err(ctx("simulated_secs must be finite and positive"));
            }
            if e.iterations_fast_forwarded == 0 {
                return Err(ctx("fast-forward never fired; the entry measures nothing"));
            }
            if !(e.wall_secs_ff_on > 0.0 && e.wall_secs_ff_on.is_finite()) {
                return Err(ctx("wall_secs_ff_on must be finite and positive"));
            }
            if !(e.wall_secs_ff_off >= 0.0 && e.wall_secs_ff_off.is_finite()) {
                return Err(ctx("wall_secs_ff_off must be finite and non-negative"));
            }
            if !(e.speedup >= 0.0 && e.speedup.is_finite()) {
                return Err(ctx("speedup must be finite and non-negative"));
            }
            if (e.wall_secs_ff_off > 0.0) != (e.speedup > 0.0) {
                return Err(ctx("speedup and wall_secs_ff_off must be set together"));
            }
        }
        Ok(())
    }
}

fn parse_entry(value: &Json, index: usize) -> Result<Entry, String> {
    let what = format!("entries[{index}]");
    let mut e = Entry::default();
    for (key, v) in object(value, &what)? {
        match (key.as_str(), v) {
            ("name", Json::Str(s)) => e.name = s.clone(),
            ("profile", Json::Str(s)) => e.profile = s.clone(),
            ("jobs", _) => e.jobs = number(v, key)?,
            ("gpus", _) => e.gpus = number(v, key)?,
            ("simulated_secs", _) => e.simulated_secs = number(v, key)?,
            ("iterations_fast_forwarded", _) => e.iterations_fast_forwarded = number(v, key)?,
            ("wall_secs_ff_on", _) => e.wall_secs_ff_on = number(v, key)?,
            ("wall_secs_ff_off", _) => e.wall_secs_ff_off = number(v, key)?,
            ("speedup", _) => e.speedup = number(v, key)?,
            ("name" | "profile", other) => return Err(format!("{key}: mistyped value {other:?}")),
            (other, _) => return Err(format!("{what}: unknown key '{other}'")),
        }
    }
    if e.name.is_empty() {
        return Err(format!("{what} is missing 'name'"));
    }
    Ok(e)
}

fn object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    match value {
        Json::Object(_, pairs) => Ok(pairs),
        other => Err(format!("{what}: expected an object, got {other:?}")),
    }
}

/// A number that fits `T`: an integer field rejects `1.5` and `-3`.
fn number<T: std::str::FromStr>(value: &Json, what: &str) -> Result<T, String> {
    let parsed = match value {
        Json::Num(n) => n.parse().ok(),
        _ => None,
    };
    let kind = std::any::type_name::<T>();
    parsed.ok_or_else(|| format!("{what}: expected a {kind}, got {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            schema: SCHEMA.to_string(),
            runner_class: "test-runner".to_string(),
            entries: vec![
                Entry {
                    name: "fleet_headline".into(),
                    profile: "full".into(),
                    jobs: 1000,
                    gpus: 112_000,
                    simulated_secs: 604_800.0,
                    iterations_fast_forwarded: 274_000_000,
                    wall_secs_ff_on: 5.25,
                    wall_secs_ff_off: 320.5,
                    speedup: 61.0476,
                },
                Entry {
                    name: "fleet_speedup".into(),
                    profile: "ci".into(),
                    jobs: 64,
                    gpus: 7168,
                    simulated_secs: 14_400.0,
                    iterations_fast_forwarded: 400_000,
                    wall_secs_ff_on: 0.02,
                    wall_secs_ff_off: 0.51,
                    speedup: 25.5,
                },
            ],
        }
    }

    #[test]
    fn skip_count_must_match_exactly() {
        let recorded = &sample().entries[1];
        let mut fresh = recorded.clone();
        fresh.wall_secs_ff_on *= 3.0;
        recorded.check_skip_count(&fresh).unwrap();
        fresh.iterations_fast_forwarded += 1;
        let err = recorded.check_skip_count(&fresh).unwrap_err();
        assert_eq!(
            err,
            "'fleet_speedup' skipped 400001 iterations, but the snapshot records 400000"
        );
    }

    #[test]
    fn render_parse_round_trips() {
        let snap = sample();
        let text = snap.to_json();
        assert_eq!(Snapshot::parse(&text).unwrap(), snap);
        snap.validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_snapshots() {
        let mut s = sample();
        s.schema = "perf/v0".into();
        assert!(s.validate().unwrap_err().contains("schema mismatch"));

        let mut s = sample();
        s.runner_class.clear();
        assert!(s.validate().unwrap_err().contains("runner_class"));

        let mut s = sample();
        s.entries.clear();
        assert!(s.validate().unwrap_err().contains("at least one entry"));

        let mut s = sample();
        s.entries[1].name = s.entries[0].name.clone();
        assert!(s.validate().unwrap_err().contains("duplicate entry"));

        let mut s = sample();
        s.entries[0].iterations_fast_forwarded = 0;
        assert!(s.validate().unwrap_err().contains("never fired"));

        let mut s = sample();
        s.entries[0].wall_secs_ff_on = 0.0;
        assert!(s.validate().unwrap_err().contains("wall_secs_ff_on"));

        let mut s = sample();
        s.entries[0].speedup = f64::NAN;
        assert!(s.validate().unwrap_err().contains("speedup"));

        // Off and speedup must agree on whether the baseline ran.
        let mut s = sample();
        s.entries[0].wall_secs_ff_off = 0.0;
        assert!(s.validate().unwrap_err().contains("set together"));

        let mut s = sample();
        s.entries[0].profile = "nightly".into();
        assert!(s.validate().unwrap_err().contains("unknown profile"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(Snapshot::parse("").is_err());
        assert!(Snapshot::parse("{").is_err());
        assert!(Snapshot::parse("{\"schema\": \"x\"} trailing").is_err());
        assert!(Snapshot::parse("{\"bogus\": 1}").is_err());
        assert!(Snapshot::parse("{\"schema\": \"x\", \"entries\": [{\"warp\": 1}]}").is_err());
        assert!(Snapshot::parse("{\"schema\": \"x\", \"entries\": [{\"jobs\": -3}]}").is_err());
        assert!(Snapshot::parse("{\"schema\": \"x\", \"entries\": [{\"jobs\": 1.5}]}").is_err());
        // Escapes read back; an unknown one is an error.
        let snap = Snapshot::parse("{\"schema\": \"a\\\"b\"}").unwrap();
        assert_eq!(snap.schema, "a\"b");
        assert!(Snapshot::parse("{\"schema\": \"a\\qb\"}").is_err());
        // An entries list of non-objects is mistyped.
        assert!(Snapshot::parse("{\"entries\": [3]}").is_err());
    }

    #[test]
    fn duplicate_keys_are_rejected_not_overwritten() {
        let err = Snapshot::parse("{\"schema\": \"x\",\n \"schema\": \"y\"}").unwrap_err();
        assert_eq!(
            err,
            "line 2, col 2: duplicate key 'schema' (first set at line 1)"
        );
        let entry = "{\"name\": \"a\", \"jobs\": 1, \"jobs\": 2}";
        let err =
            Snapshot::parse(&format!("{{\"schema\": \"x\", \"entries\": [{entry}]}}")).unwrap_err();
        assert!(err.contains("duplicate key 'jobs'"), "{err}");
    }

    #[test]
    fn a_runner_class_needing_escapes_round_trips() {
        let mut snap = sample();
        snap.runner_class = "ci \"a\" \\b".to_string();
        let text = snap.to_json();
        assert!(
            text.contains(r#""runner_class": "ci \"a\" \\b","#),
            "{text}"
        );
        assert_eq!(Snapshot::parse(&text).unwrap(), snap);
    }

    #[test]
    fn checked_in_snapshots_reproduce_byte_for_byte() {
        for name in ["BENCH_fleet.json", "BENCH_engine.json"] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + name;
            let text = std::fs::read_to_string(&path).unwrap();
            let snap = Snapshot::parse(&text).unwrap();
            snap.validate().unwrap();
            assert_eq!(snap.to_json(), text, "{name}");
        }
    }
}
