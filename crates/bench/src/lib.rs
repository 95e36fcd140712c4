#![warn(missing_docs)]
// Scenario builders configure PathSpec field-by-field from its default —
// deliberately, so each parameter deviation from the standard path reads
// as a single labelled line.
#![allow(clippy::field_reassign_with_default)]

//! `tcpa-bench` — the reproduction harness.
//!
//! One scenario per table and figure of the paper's evaluation (see
//! DESIGN.md §5 for the index). Each scenario is a function returning a
//! [`Section`], registered under its slug in [`scenarios::entries`];
//! `repro_all` runs them all and concatenates the markdown that backs
//! EXPERIMENTS.md.
//!
//! Absolute numbers are not expected to match the paper — the substrate
//! is a simulator, not the authors' 1995 testbed — but each section
//! states the paper's claim, the measured result, and whether the *shape*
//! (who wins, what breaks, where the boundary lies) reproduces.

pub mod compare;
pub mod scenarios;
pub mod timing;

use std::fmt::Write as _;

/// One reproduced table/figure.
pub struct Section {
    /// Paper artifact id, e.g. `"Figure 4"`.
    pub id: String,
    /// Short title.
    pub title: String,
    /// What the paper reports.
    pub paper_claim: String,
    /// Workload / parameters used here.
    pub params: String,
    /// Preformatted body (plots, tables).
    pub body: String,
    /// Key measured values.
    pub measured: Vec<(String, String)>,
    /// One-line reproduction verdict.
    pub verdict: String,
}

impl Section {
    /// Renders the section as markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "*Paper:* {}\n", self.paper_claim);
        let _ = writeln!(out, "*Setup:* {}\n", self.params);
        if !self.body.is_empty() {
            let _ = writeln!(out, "```text\n{}```\n", self.body);
        }
        if !self.measured.is_empty() {
            let _ = writeln!(out, "| measured | value |");
            let _ = writeln!(out, "|---|---|");
            for (k, v) in &self.measured {
                let _ = writeln!(out, "| {k} | {v} |");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "**{}**\n", self.verdict);
        out
    }
}

/// Formats a rate in bytes/second the way the paper's figures discuss
/// slopes ("2.5 MB/sec").
pub fn fmt_rate(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1e6 {
        format!("{:.2} MB/s", bytes_per_sec / 1e6)
    } else if bytes_per_sec >= 1e3 {
        format!("{:.1} KB/s", bytes_per_sec / 1e3)
    } else {
        format!("{bytes_per_sec:.0} B/s")
    }
}

/// Simple fixed-width table builder for terminal/markdown-code output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..ncol {
                let _ = write!(line, "{:<w$}  ", cells[i], w = widths[i]);
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_renders_markdown() {
        let s = Section {
            id: "Figure 9".into(),
            title: "test".into(),
            paper_claim: "claim".into(),
            params: "params".into(),
            body: "plot\n".into(),
            measured: vec![("x".into(), "1".into())],
            verdict: "REPRODUCED".into(),
        };
        let md = s.render();
        assert!(md.contains("## Figure 9"));
        assert!(md.contains("| x | 1 |"));
        assert!(md.contains("**REPRODUCED**"));
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(2_500_000.0), "2.50 MB/s");
        assert_eq!(fmt_rate(64_000.0), "64.0 KB/s");
        assert_eq!(fmt_rate(12.0), "12 B/s");
    }

    #[test]
    fn table_renders_padded() {
        let mut t = TextTable::new(&["name", "n"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
    }
}
