//! Minimal Markdown table rendering for experiment output.

use std::fmt::Write as _;

/// One rendered experiment table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    /// Table title (experiment id + paper artifact).
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table `{}`",
            self.title
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table as Markdown.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.title);
        let _ = writeln!(out, "{}", line(&self.columns));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "| {} |", sep.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n> {note}");
        }
        out
    }
}

/// Formats a float with sensible precision for table cells.
#[must_use]
pub fn fnum(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("demo", &["n", "rounds"]);
        t.push_row(vec!["64".into(), "5".into()]);
        t.push_row(vec!["128".into(), "5".into()]);
        t.note("rounds stay constant");
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| n   | rounds |"));
        assert!(s.contains("| 128 | 5      |"));
        assert!(s.contains("> rounds stay constant"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn fnum_precision() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(3.21987), "3.22");
        assert_eq!(fnum(42.37), "42.4");
        assert_eq!(fnum(12345.6), "12346");
    }
}
