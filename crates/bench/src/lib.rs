//! Shared harness utilities for the table/figure binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! reproduced paper; this library provides the text-table and CSV plumbing
//! they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::Path;

pub use msoc_core::LatencyHistogram;

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// let t = msoc_bench::render_table(
///     &["combo", "C_A"],
///     &[vec!["{A,B}".into(), "90.0".into()]],
/// );
/// assert!(t.contains("{A,B}"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width must match the header");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = |cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
    out
}

/// Writes rows as CSV (no quoting — callers pass clean numeric/label data).
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let mut text = headers.join(",");
    text.push('\n');
    for row in rows {
        text.push_str(&row.join(","));
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// True when `--flag` appears on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_pads_columns() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["xxxx".into(), "1".into()], vec!["y".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("xxxx  "));
        assert!(lines[3].starts_with("y     "));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("msoc_bench_test_csv");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("t.csv");
        write_csv(&path, &["f", "v"], &[vec!["1".into(), "2".into()]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "f,v\n1,2\n");
    }
}
