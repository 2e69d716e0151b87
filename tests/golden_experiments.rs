//! Registry-driven golden-snapshot tests: every experiment in the
//! registry regenerates its table on the reduced golden grid and diffs
//! the CSV byte-for-byte against the reference committed under
//! `tests/golden/<name>.csv`. Refactors that silently shift paper
//! numbers fail here, not in a reviewer's plot — and a newly registered
//! experiment is pinned automatically (its first run under
//! `UPDATE_GOLDEN=1` creates the snapshot).
//!
//! To refresh the snapshots after an *intentional* model change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_experiments -- --include-ignored
//! ```
//!
//! and commit the diff — review then documents exactly which numbers
//! moved.

use pipefill::core::experiments::{Experiment, Scale, REGISTRY};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Serializes snapshot refreshes against the header check, which runs on
/// another test thread and must never read a half-written file.
fn lock_goldens() -> std::sync::MutexGuard<'static, ()> {
    static GOLDENS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GOLDENS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Byte-for-byte comparison against the committed snapshot, or a
/// refresh when `UPDATE_GOLDEN` is set.
fn golden_check(name: &str, fresh: &str) {
    let path = golden_dir().join(format!("{name}.csv"));
    #[expect(
        clippy::disallowed_methods,
        reason = "UPDATE_GOLDEN picks refresh over compare; the snapshot bytes never depend on it"
    )]
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    if update {
        let _guard = lock_goldens();
        std::fs::write(&path, fresh).expect("updating golden snapshot");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}; every registered experiment is \
             golden-pinned — create it with UPDATE_GOLDEN=1 and commit",
            path.display()
        )
    });
    assert_eq!(
        fresh, committed,
        "tests/golden/{name}.csv drifted; if the change is intentional, refresh \
         with UPDATE_GOLDEN=1 and commit the diff"
    );
}

/// Regenerates one experiment on its golden grid and checks the pin
/// plus the schema invariants the registry guarantees.
fn check_experiment(exp: &dyn Experiment) {
    let table = exp.run(&exp.grid(Scale::Golden));
    assert!(!table.is_empty(), "{} produced no rows", exp.name());
    assert_eq!(
        table.columns(),
        exp.columns(),
        "{}: table schema drifted from the declared columns",
        exp.name()
    );
    golden_check(exp.name(), &table.to_csv_string());
}

/// The analysis-only experiments (no simulation backend): cheap enough
/// to pin on every local `cargo test`.
#[test]
fn analysis_experiments_match_golden_snapshots() {
    for exp in REGISTRY.iter().filter(|e| !e.simulation_backed()) {
        check_experiment(*exp);
    }
}

/// The simulation-backed experiments on their reduced golden grids.
/// Heavier, so they ride the `--include-ignored` CI gate rather than
/// every local `cargo test`.
#[test]
#[ignore = "simulation-backed; run via cargo test -- --include-ignored (CI does)"]
fn simulation_experiments_match_golden_snapshots() {
    for exp in REGISTRY.iter().filter(|e| e.simulation_backed()) {
        check_experiment(*exp);
    }
}

/// Every file under `tests/golden/` must belong to a registered
/// experiment: a golden whose driver was deleted or renamed is an
/// orphan that would otherwise pin nothing forever.
#[test]
fn no_orphan_goldens() {
    let entries = std::fs::read_dir(golden_dir()).expect("tests/golden exists");
    for entry in entries {
        let name = entry.expect("readable dir entry").file_name();
        let name = name.to_string_lossy();
        let stem = name
            .strip_suffix(".csv")
            .unwrap_or_else(|| panic!("non-CSV file in tests/golden: {name}"));
        assert!(
            REGISTRY.iter().any(|e| e.name() == stem),
            "orphan golden tests/golden/{name}: no registered experiment produces it \
             (delete it or register the experiment)"
        );
    }
}

/// The registry pins the full evaluation surface: all 12+ experiments
/// are present, every one has a golden file committed, and names are
/// CSV-stem-safe.
#[test]
fn every_registered_experiment_has_a_committed_golden() {
    assert!(
        REGISTRY.len() >= 12,
        "registry shrank to {}",
        REGISTRY.len()
    );
    for exp in REGISTRY {
        assert!(
            exp.name()
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "{}: experiment names double as file stems",
            exp.name()
        );
        let path = golden_dir().join(format!("{}.csv", exp.name()));
        assert!(
            path.exists(),
            "{} has no golden snapshot; create it with UPDATE_GOLDEN=1 cargo test \
             --test golden_experiments -- --include-ignored",
            exp.name()
        );
        // The committed header must match the declared schema even
        // without rerunning the (possibly simulation-backed) sweep.
        let committed = {
            let _guard = lock_goldens();
            std::fs::read_to_string(&path).expect("readable golden")
        };
        let header = committed.lines().next().unwrap_or("");
        assert_eq!(
            header,
            exp.columns().join(","),
            "{}: golden header drifted from the declared schema",
            exp.name()
        );
    }
}
