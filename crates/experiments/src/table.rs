//! Plain-text table formatting in the style of the paper's tables.

use bitrobust_core::RobustEval;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use bitrobust_experiments::Table;
///
/// let mut t = Table::new(&["Model", "Err", "RErr p=1%"]);
/// t.row(&["RQuant", "4.32", "32.05"]);
/// t.row(&["Clipping 0.1", "4.82", "8.93"]);
/// println!("{}", t.render());
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: AsRef<str>>(header: &[S]) -> Self {
        Self { header: header.iter().map(|s| s.as_ref().to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the header.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row/header column mismatch");
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header column mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[c];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[c].saturating_sub(cell.len())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals (`4.32`).
pub fn pct(x: f64) -> String {
    format!("{:.2}", 100.0 * x)
}

/// Formats `mean ± std` percentages (`32.05±6.00`).
pub fn pct_pm(mean: f64, std: f64) -> String {
    format!("{:.2}±{:.2}", 100.0 * mean, 100.0 * std)
}

/// One row of an RErr table: the label, the clean `Err %`, then
/// `RErr ± std` per rate.
pub fn rerr_row(
    label: impl Into<String>,
    clean_error: f32,
    per_rate: &[RobustEval],
) -> Vec<String> {
    let mut row = vec![label.into(), pct(clean_error as f64)];
    row.extend(per_rate.iter().map(|r| pct_pm(r.mean_error as f64, r.std_error as f64)));
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["A", "Longer"]);
        t.row(&["x", "1"]);
        t.row(&["yyyy", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("A"));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["A", "B"]);
        t.row(&["only one"]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0432), "4.32");
        assert_eq!(pct_pm(0.3205, 0.06), "32.05±6.00");
    }
}
