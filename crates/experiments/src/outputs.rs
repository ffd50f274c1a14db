//! Output sinks: aligned stdout tables and CSV files.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// An aligned text table that can also serialise itself as CSV.
///
/// ```
/// let mut t = mltc_experiments::TextTable::new(&["workload", "d"]);
/// t.row(vec!["village".into(), "3.8".into()]);
/// let s = t.to_string();
/// assert!(s.contains("village"));
/// assert_eq!(t.csv_string().lines().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// CSV form (headers + rows, comma-separated, quotes on demand).
    pub fn csv_string(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        let line = |cells: &[String]| cells.iter().map(esc).collect::<Vec<_>>().join(",");
        out.push_str(&line(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        writeln!(f, "{}", line.trim_end())?;
        writeln!(f, "{}", "-".repeat(line.trim_end().len()))?;
        for r in &self.rows {
            let mut line = String::new();
            for (i, c) in r.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", c, w = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Where experiment results go: a directory for CSV/PPM artefacts plus
/// echoing to stdout (suppressible for tests).
#[derive(Debug, Clone)]
pub struct Outputs {
    dir: PathBuf,
    quiet: bool,
}

impl Outputs {
    /// Results rooted at `dir` (created on demand), echoing to stdout.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            quiet: false,
        }
    }

    /// Like [`Outputs::new`] but silent on stdout (tests).
    pub fn quiet(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            quiet: true,
        }
    }

    /// The results directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Prints a section heading and table to stdout and writes
    /// `<name>.csv` into the results directory.
    ///
    /// # Panics
    ///
    /// Panics if the results directory or file cannot be written.
    pub fn table(&self, name: &str, title: &str, table: &TextTable) {
        if !self.quiet {
            println!("\n== {title} ==\n{table}");
        }
        fs::create_dir_all(&self.dir).expect("create results dir");
        let path = self.dir.join(format!("{name}.csv"));
        let mut f = fs::File::create(&path).expect("create csv");
        f.write_all(table.csv_string().as_bytes())
            .expect("write csv");
    }

    /// Prints a free-form note to stdout.
    pub fn note(&self, text: &str) {
        if !self.quiet {
            println!("{text}");
        }
    }

    /// Path for an auxiliary artefact (e.g. a PPM snapshot), creating the
    /// results directory.
    ///
    /// # Panics
    ///
    /// Panics if the results directory cannot be created.
    pub fn artefact_path(&self, name: &str) -> PathBuf {
        fs::create_dir_all(&self.dir).expect("create results dir");
        self.dir.join(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = TextTable::new(&["a", "long_header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("long_header"));
        assert!(s.lines().count() >= 4);
        let csv = t.csv_string();
        assert_eq!(csv, "a,long_header\nx,1\nlonger,2\n");
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = TextTable::new(&["v"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["say \"hi\"".into()]);
        let csv = t.csv_string();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_rows_rejected() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn outputs_write_csv_files() {
        let dir = std::env::temp_dir().join(format!("mltc_out_{}", std::process::id()));
        let out = Outputs::quiet(&dir);
        let mut t = TextTable::new(&["x"]);
        t.row(vec!["1".into()]);
        out.table("demo", "Demo", &t);
        let written = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(written, "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
