//! Plain-text tables, CSV and JSON output for the experiment harnesses.
//!
//! The JSON report is a flat array of flat objects, one per table row,
//! keyed by the column headers, with numeric cells emitted as JSON numbers
//! — so a script can read an experiment's rows without parsing the CSV.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width table printer for experiment summaries.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty; extra cells are kept).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 2));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `path` (headers first, comma-separated,
    /// cells containing commas quoted).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_csv(&self, path: &Path) {
        let mut text = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        text.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        text.push('\n');
        for row in &self.rows {
            text.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            text.push('\n');
        }
        write_file(path, &text);
    }

    /// Writes the table as a JSON array of records to `path`: one flat
    /// object per row keyed by the column headers (cells that parse as
    /// finite numbers are emitted unquoted, the rest as escaped strings).
    /// Missing cells are omitted; extra cells beyond the header are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, path: &Path) {
        let mut records = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let fields: Vec<String> = self
                .header
                .iter()
                .zip(row)
                .map(|(key, cell)| format!("{}:{}", json_string(key), json_value(cell)))
                .collect();
            records.push(format!("{{{}}}", fields.join(",")));
        }
        let body = if records.is_empty() {
            "[\n]\n".to_string()
        } else {
            format!("[\n  {}\n]\n", records.join(",\n  "))
        };
        write_file(path, &body);
    }

    /// Writes both report artifacts for one experiment table, the outputs
    /// `experiments <id> --out DIR` leaves behind: `path` as CSV and its
    /// `.json` sibling as the record array of [`Table::write_json`].
    ///
    /// # Panics
    ///
    /// Panics if either file cannot be written.
    pub fn write_reports(&self, path: &Path) {
        self.write_csv(path);
        self.write_json(&path.with_extension("json"));
    }
}

/// Quotes a string as JSON: backslash-escapes quotes and backslashes,
/// `\uXXXX` for control characters.
fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// A cell as a JSON value: unquoted when it is already a valid JSON
/// number token (finite, and not relying on Rust-only spellings like
/// `inf`, `1.` or `.5`), a string otherwise.
fn json_value(cell: &str) -> String {
    let looks_numeric = {
        let digits = cell.strip_prefix('-').unwrap_or(cell);
        !digits.is_empty()
            && digits.chars().all(|c| c.is_ascii_digit() || c == '.')
            && digits.chars().filter(|&c| c == '.').count() <= 1
            && !digits.starts_with('.')
            && !digits.ends_with('.')
            // JSON forbids leading zeros ("007", "01.5").
            && !(digits.len() > 1 && digits.starts_with('0') && !digits[1..].starts_with('.'))
    };
    if looks_numeric && cell.parse::<f64>().is_ok_and(f64::is_finite) {
        cell.to_string()
    } else {
        json_string(cell)
    }
}

/// Writes a text file, creating parent directories as needed.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_file(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("create results directory");
    }
    let mut f = fs::File::create(path).expect("create results file");
    f.write_all(content.as_bytes()).expect("write results file");
}

/// The results directory for an experiment id (e.g. `fig12`).
pub fn results_path(out_dir: &Path, id: &str, file: &str) -> PathBuf {
    out_dir.join(id).join(file)
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(["a,b", "c"]);
        t.row(["x", "y"]);
        let dir = std::env::temp_dir().join("varsaw-test-csv");
        let path = dir.join("t.csv");
        t.write_csv(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("\"a,b\",c\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_records_mirror_the_bench_format() {
        let mut t = Table::new(["id", "energy", "note"]);
        t.row(["fig9/varsaw", "-1.25", "tail \"avg\""])
            .row(["fig9/baseline", "0", "n/a"]);
        let dir = std::env::temp_dir().join("varsaw-test-json");
        let path = dir.join("t.json");
        t.write_json(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.contains(r#"{"id":"fig9/varsaw","energy":-1.25,"note":"tail \"avg\""}"#));
        assert!(text.contains(r#"{"id":"fig9/baseline","energy":0,"note":"n/a"}"#));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_values_quote_non_numbers() {
        assert_eq!(json_value("12.5"), "12.5");
        assert_eq!(json_value("-3"), "-3");
        assert_eq!(json_value("1.2.3"), "\"1.2.3\"");
        assert_eq!(json_value("inf"), "\"inf\"");
        assert_eq!(json_value("NaN"), "\"NaN\"");
        assert_eq!(json_value(".5"), "\".5\"");
        assert_eq!(json_value("5."), "\"5.\"");
        assert_eq!(json_value(""), "\"\"");
        // JSON rejects leading zeros; such cells must stay strings.
        assert_eq!(json_value("007"), "\"007\"");
        assert_eq!(json_value("-01.5"), "\"-01.5\"");
        assert_eq!(json_value("0"), "0");
        assert_eq!(json_value("0.25"), "0.25");
        assert_eq!(json_value("-0.5"), "-0.5");
    }

    #[test]
    fn write_reports_emits_csv_and_json_siblings() {
        let mut t = Table::new(["k", "v"]);
        t.row(["a", "1"]);
        let dir = std::env::temp_dir().join("varsaw-test-reports");
        t.write_reports(&dir.join("r.csv"));
        assert!(dir.join("r.csv").exists());
        assert!(dir.join("r.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.0), "1234");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1.2345), "1.234");
    }
}
