//! A minimal CSV writer (serde_json is not in the allowed dependency
//! set; experiment results are flat tables anyway).

use std::fmt::Display;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Writes experiment rows as CSV under a target directory.
///
/// # Example
///
/// ```no_run
/// use pipefill_core::CsvWriter;
///
/// let mut w = CsvWriter::create("target/experiments/fig4.csv", &["gpus", "days"]).unwrap();
/// w.row(&[&1024usize, &81.6f64]).unwrap();
/// w.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct CsvWriter {
    out: BufWriter<File>,
    columns: usize,
    path: PathBuf,
}

impl CsvWriter {
    /// Creates the file (and parent directories) and writes the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn create<P: AsRef<Path>>(path: P, header: &[&str]) -> std::io::Result<CsvWriter> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut out = BufWriter::new(File::create(&path)?);
        writeln!(out, "{}", header.join(","))?;
        Ok(CsvWriter {
            out,
            columns: header.len(),
            path,
        })
    }

    /// Writes one row.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header; debug-panics if a
    /// value renders as a non-finite float (`NaN`/`inf`), which would
    /// otherwise land silently in the CSV and poison every downstream
    /// plot and golden diff.
    pub fn row(&mut self, values: &[&dyn Display]) -> std::io::Result<()> {
        assert_eq!(
            values.len(),
            self.columns,
            "row arity mismatch in {}",
            self.path.display()
        );
        let mut first = true;
        for v in values {
            if !first {
                write!(self.out, ",")?;
            }
            let rendered = v.to_string();
            debug_assert!(
                !matches!(rendered.as_str(), "NaN" | "inf" | "-inf"),
                "non-finite value '{rendered}' written to {}",
                self.path.display()
            );
            write!(self.out, "{rendered}")?;
            first = false;
        }
        writeln!(self.out)
    }

    /// Flushes and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> std::io::Result<PathBuf> {
        self.out.flush()?;
        Ok(self.path)
    }
}

/// Default experiment-output directory.
pub const EXPERIMENTS_DIR: &str = "target/experiments";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = std::env::temp_dir().join(format!("pipefill-csv-{}", std::process::id()));
        let path = dir.join("t.csv");
        let mut w = CsvWriter::create(&path, &["a", "b"]).unwrap();
        w.row(&[&1, &2.5]).unwrap();
        w.row(&[&"x", &"y"]).unwrap();
        let p = w.finish().unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2.5\nx,y\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let dir = std::env::temp_dir().join(format!("pipefill-csv2-{}", std::process::id()));
        let mut w = CsvWriter::create(dir.join("t.csv"), &["a", "b"]).unwrap();
        let _ = w.row(&[&1]);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite value"))]
    fn non_finite_floats_are_flagged() {
        let dir = std::env::temp_dir().join(format!("pipefill-csv3-{}", std::process::id()));
        let mut w = CsvWriter::create(dir.join("t.csv"), &["a", "b"]).unwrap();
        let _ = w.row(&[&f64::NAN, &f64::INFINITY]);
        // Release builds write the row; the debug assertion is the guard
        // the simulation backends run under in CI.
        std::fs::remove_dir_all(dir).ok();
    }
}
