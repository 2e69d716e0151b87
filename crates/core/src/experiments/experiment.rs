//! The `Experiment` abstraction: every paper driver behind one uniform
//! trait, returning a schema-carrying [`Table`].
//!
//! An experiment is a named, described sweep with a declared column
//! schema and a parameter [`Grid`] it can run at two scales: the full
//! paper grid ([`Scale::Full`]) and the reduced grid the golden-snapshot
//! suite pins byte-for-byte ([`Scale::Golden`]). Because the trait owns
//! the schema and the rows, persistence is generic — one CSV rendering,
//! one pretty-printer, one golden diff — instead of a `save_*`/`print_*`
//! pair per driver.

use std::path::Path;

/// Which parameter grid an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The full grid of the paper's evaluation (what `pipefill-cli exp`
    /// and `all` run).
    Full,
    /// The reduced grid the golden-snapshot tests pin. Identical to
    /// [`Scale::Full`] for pure-analysis experiments; shrunk for
    /// simulation-backed ones so the pin stays cheap.
    Golden,
}

/// The parameter bag of one experiment run. Each experiment reads the
/// axes it sweeps and ignores the rest; [`Experiment::grid`] supplies
/// the defaults at either scale and callers (CLI flags, scenario files)
/// override individual fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    /// Simulated main-job iterations per grid point.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
    /// Trace horizon in seconds (coarse-backend experiments).
    pub horizon_secs: u64,
    /// Replication count for multi-seed studies (seeds `1..=seeds`).
    pub seeds: u64,
    /// Fleet sizes (concurrent main jobs) for the fleet sweep.
    pub fleet_sizes: Vec<usize>,
}

impl Default for Grid {
    fn default() -> Self {
        Grid {
            iterations: 300,
            seed: 7,
            horizon_secs: 3600,
            seeds: 3,
            fleet_sizes: vec![1, 4, 16, 64],
        }
    }
}

/// One overridable axis of a [`Grid`]. Experiments declare which axes
/// they actually sweep ([`Experiment::axes`]) so callers can reject an
/// override of an axis the experiment would silently ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `Grid::iterations`.
    Iterations,
    /// `Grid::seed`.
    Seed,
    /// `Grid::horizon_secs`.
    HorizonSecs,
    /// `Grid::seeds`.
    Seeds,
}

impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Axis::Iterations => write!(f, "iterations"),
            Axis::Seed => write!(f, "seed"),
            Axis::HorizonSecs => write!(f, "horizon_secs"),
            Axis::Seeds => write!(f, "seeds"),
        }
    }
}

impl Grid {
    /// A grid with the given iteration count and seed (the knobs of the
    /// physical/fault-backend experiments).
    pub fn sim(iterations: usize, seed: u64) -> Grid {
        Grid {
            iterations,
            seed,
            ..Grid::default()
        }
    }

    /// A grid with the given trace horizon and seed (the knobs of the
    /// coarse-backend experiments).
    pub fn horizon(horizon_secs: u64, seed: u64) -> Grid {
        Grid {
            horizon_secs,
            seed,
            ..Grid::default()
        }
    }

    /// This grid with the explicitly-given axes overridden — the single
    /// implementation behind CLI `exp` flags and experiment-mode
    /// scenario files.
    pub fn with_overrides(
        mut self,
        iterations: Option<usize>,
        seed: Option<u64>,
        horizon_secs: Option<u64>,
        seeds: Option<u64>,
    ) -> Grid {
        if let Some(iterations) = iterations {
            self.iterations = iterations;
        }
        if let Some(seed) = seed {
            self.seed = seed;
        }
        if let Some(horizon_secs) = horizon_secs {
            self.horizon_secs = horizon_secs;
        }
        if let Some(seeds) = seeds {
            self.seeds = seeds;
        }
        self
    }
}

/// One table cell, rendered in CSV and on the terminal by its `Display`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, GPU totals, seeds).
    Int(u64),
    /// A float, rendered with Rust's shortest-round-trip `Display`.
    Float(f64),
    /// A string (model names, schedules, policies, sentinels).
    Str(String),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl Value {
    /// The float behind this cell, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(_) => None,
        }
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Int(v as u64)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// Builds a row of [`Value`]s from mixed cell expressions.
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::experiments::Value::from($v)),*]
    };
}
pub(crate) use row;

/// A schema-carrying result table: the uniform output of every
/// [`Experiment`]. Knows how to print itself aligned, render CSV, and
/// save that CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: &'static [&'static str],
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with the given column schema.
    pub fn new(columns: &'static [&'static str]) -> Table {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// A table with the given column schema holding `rows`, each
    /// checked as by [`Table::push`].
    pub(crate) fn with_rows(
        columns: &'static [&'static str],
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Table {
        let mut table = Table::new(columns);
        for row in rows {
            table.push(row);
        }
        table
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the schema; debug-panics on
    /// non-finite floats, so a `NaN` fails at construction rather than
    /// inside a golden diff.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity {} does not match the {}-column schema",
            row.len(),
            self.columns.len()
        );
        debug_assert!(
            row.iter()
                .all(|v| !matches!(v, Value::Float(x) if !x.is_finite())),
            "non-finite float in table row {row:?}"
        );
        self.rows.push(row);
    }

    /// The column schema.
    pub fn columns(&self) -> &'static [&'static str] {
        self.columns
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|&c| c == name)
    }

    /// A named column as floats (skipping non-numeric cells).
    pub fn f64_column(&self, name: &str) -> Vec<f64> {
        let Some(idx) = self.column_index(name) else {
            return Vec::new();
        };
        self.rows.iter().filter_map(|r| r[idx].as_f64()).collect()
    }

    /// The rows whose `column` cell equals `value`, as a table with the
    /// same schema: how callers pick results out by key.
    ///
    /// # Panics
    ///
    /// Panics if the schema has no such column.
    pub fn filter(&self, column: &str, value: impl Into<Value>) -> Table {
        let idx = self
            .column_index(column)
            .unwrap_or_else(|| panic!("no column '{column}' in {:?}", self.columns));
        let value = value.into();
        Table::with_rows(
            self.columns,
            self.rows.iter().filter(|r| r[idx] == value).cloned(),
        )
    }

    /// Renders the table as CSV (header + rows), byte-identical to what
    /// [`Table::save`] writes.
    pub fn to_csv_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes [`Table::to_csv_string`] to `path`, creating its parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv_string())
    }

    /// Prints the table with right-aligned columns sized to content.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: Vec<&str>| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
                out.push_str(cell);
            }
            println!("{out}");
        };
        line(self.columns.to_vec());
        for row in &rendered {
            line(row.iter().map(String::as_str).collect());
        }
    }
}

/// One registered experiment: a named driver with a declared schema and
/// grid, runnable at either [`Scale`]. Each implementation lives in its
/// own `experiments/<name>.rs`; listing it in
/// [`REGISTRY`](super::REGISTRY) makes it CLI-reachable (`exp <name>`),
/// CSV-writing, golden-pinned and scenario-addressable with no further
/// wiring.
pub trait Experiment: Sync {
    /// Canonical name: the CSV/golden file stem and the `exp` argument.
    fn name(&self) -> &'static str;

    /// Alternate names accepted by `exp <name>` and scenario files
    /// (the historical subcommand spellings).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description shown by `exp --list`.
    fn description(&self) -> &'static str;

    /// The column schema of the produced table.
    fn columns(&self) -> &'static [&'static str];

    /// Default grid parameters at the given scale.
    fn grid(&self, scale: Scale) -> Grid;

    /// The grid axes this experiment actually sweeps. Overrides on any
    /// other axis are rejected by the CLI and scenario validation
    /// instead of being silently ignored (the analysis experiments
    /// sweep none).
    fn axes(&self) -> &'static [Axis] {
        &[]
    }

    /// An optional summary line derived from the finished table (e.g.
    /// the agreement study's maximum disagreement), printed by the
    /// generic runners after the table itself.
    fn summary(&self, table: &Table) -> Option<String> {
        let _ = table;
        None
    }

    /// Whether this experiment drives a simulation backend (its golden
    /// pin rides the `--include-ignored` CI tier rather than every
    /// local `cargo test`).
    fn simulation_backed(&self) -> bool {
        false
    }

    /// Runs the sweep on the given grid.
    fn run(&self, grid: &Grid) -> Table;
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLS: &[&str] = &["a", "b", "c"];

    fn sample() -> Table {
        let mut t = Table::new(COLS);
        t.push(row![1usize, 2.5f64, "x"]);
        t.push(row![10usize, 0.125f64, "long-cell"]);
        t
    }

    #[test]
    fn save_writes_the_csv_rendering() {
        let t = sample();
        assert_eq!(t.to_csv_string(), "a,b,c\n1,2.5,x\n10,0.125,long-cell\n");
        #[expect(
            clippy::disallowed_methods,
            reason = "a per-process scratch path; the test reads back only what it wrote"
        )]
        let dir = std::env::temp_dir().join(format!("pipefill-table-{}", std::process::id()));
        let path = dir.join("t.csv");
        t.save(path.to_str().unwrap()).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            t.to_csv_string(),
            "save and to_csv_string must agree byte for byte"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn column_lookup_and_numeric_extraction() {
        let t = sample();
        assert_eq!(t.column_index("b"), Some(1));
        assert_eq!(t.column_index("nope"), None);
        assert_eq!(t.f64_column("b"), vec![2.5, 0.125]);
        assert_eq!(t.f64_column("a"), vec![1.0, 10.0]);
        assert!(t.f64_column("c").is_empty());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.filter("c", "x").rows(), [row![1usize, 2.5f64, "x"]]);
        assert_eq!(t.filter("b", 0.125).f64_column("a"), [10.0]);
        assert!(t.filter("a", 3usize).is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(COLS);
        t.push(row![1usize]);
    }

    /// Only meaningful under debug assertions (release builds accept
    /// the row), so the test is compiled out of `cargo test --release`
    /// entirely.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_are_flagged() {
        let mut t = Table::new(&["a"]);
        t.push(row![f64::NAN]);
    }

    #[test]
    fn with_overrides_touches_only_explicit_axes() {
        let grid = Grid::sim(40, 9).with_overrides(None, Some(3), Some(60), None);
        assert_eq!(grid.iterations, 40);
        assert_eq!(grid.seed, 3);
        assert_eq!(grid.horizon_secs, 60);
        assert_eq!(grid.seeds, Grid::default().seeds);
    }
}
