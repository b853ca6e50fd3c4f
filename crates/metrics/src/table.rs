//! Plain-text tables for the figure harnesses.

/// A simple left-aligned text table.
///
/// The bench harnesses print one table per figure with the same rows and
/// series the paper reports, so `cargo bench` output doubles as the
/// reproduction record.
///
/// # Examples
///
/// ```
/// use egm_metrics::Table;
///
/// let mut t = Table::new(["strategy", "latency (ms)"]);
/// t.row(["flat pi=0.1", "457"]);
/// let text = t.render();
/// assert!(text.contains("strategy"));
/// assert!(text.contains("457"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..widths[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with `digits` decimal places, rendering NaN as "-".
pub fn num(value: f64, digits: usize) -> String {
    if value.is_nan() {
        "-".to_string()
    } else {
        format!("{value:.digits$}")
    }
}

/// Formats a fraction as a percentage with one decimal place.
pub fn pct(fraction: f64) -> String {
    num(fraction * 100.0, 1)
}

#[cfg(test)]
mod tests {
    use super::{num, pct, Table};

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["a", "long header"]);
        t.row(["wide cell value", "1"]);
        t.row(["x", "2"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        // Column 2 starts at the same offset in all data rows.
        let col2 = lines[2].find('1').expect("cell present");
        assert_eq!(lines[3].find('2').expect("cell present"), col2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["only"]);
        t.row(["a", "b"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(1.2345, 2), "1.23");
        assert_eq!(num(f64::NAN, 2), "-");
        assert_eq!(pct(0.3751), "37.5");
    }
}
