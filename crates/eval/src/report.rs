//! Plain-text table formatting for the experiments.
//!
//! The experiments print the same rows and series the paper's tables and
//! figures report; this module keeps the formatting consistent (fixed
//! width columns, right-aligned numbers) and easy to diff between runs.

/// Formats a table with a header row.  Columns are sized to their widest
/// cell; the first column is left-aligned and the rest are right-aligned.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(columns) {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&render_row(&header_cells, &widths));
    let total_width: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
    out.push_str(&"-".repeat(total_width));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row, &widths));
    }
    out
}

/// Formats an AUC or rate with four decimals, as in Table IV.
pub fn rate(value: f64) -> String {
    format!("{value:.4}")
}

/// A heading followed by an underline, used to separate experiments in the
/// combined report.
pub fn heading(title: &str) -> String {
    format!("\n{}\n{}\n", title, "=".repeat(title.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_contains_all_cells() {
        let table = format_table(
            &["algo", "time (s)"],
            &[
                vec!["NL".to_string(), "12.000".to_string()],
                vec!["PJ-i".to_string(), "0.125".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("algo"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("NL") && lines[2].contains("12.000"));
        assert!(lines[3].starts_with("PJ-i"));
        // right alignment: both time cells end at the same column
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(rate(0.94532), "0.9453");
        let h = heading("Table IV");
        assert!(h.contains("Table IV"));
        assert!(h.contains("========"));
    }

    #[test]
    fn table_handles_rows_shorter_than_headers() {
        let table = format_table(&["a", "b", "c"], &[vec!["x".to_string()]]);
        assert!(table.contains('x'));
    }
}
