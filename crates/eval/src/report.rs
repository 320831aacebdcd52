//! Plain-text and CSV table rendering.
//!
//! The benchmarks and examples regenerate the paper's tables; this module
//! renders them as aligned ASCII tables (for the terminal) and CSV (for
//! further processing), without any dependency beyond the standard library.

/// A simple column-aligned table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (missing cells are rendered empty, extra cells are
    /// kept).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Render as an aligned ASCII table.
    pub fn to_ascii(&self) -> String {
        let columns = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; columns];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, width) in widths.iter().enumerate().take(columns) {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        let separator = {
            let mut line = String::from("+");
            for w in &widths {
                line.push_str(&"-".repeat(w + 2));
                line.push('+');
            }
            line
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        out.push_str(&separator);
        out.push('\n');
        out.push_str(&render_row(&self.headers));
        out.push('\n');
        out.push_str(&separator);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row));
            out.push('\n');
        }
        out.push_str(&separator);
        out.push('\n');
        out
    }

    /// Render as CSV (RFC-4180-style quoting for cells containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal, e.g. `96.9%`.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Format a float with the given number of decimals.
pub fn float(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_rendering_is_aligned() {
        let mut t = Table::new(
            "Table 1: Classification rule results",
            &["conf.", "#rules", "prec."],
        );
        t.row(&["1", "44", "100%"].map(String::from));
        t.row(&["0.8", "22", "96.9%"].map(String::from));
        let out = t.to_ascii();
        assert!(out.contains("Table 1"));
        assert!(out.contains("| conf."));
        assert!(out.contains("| 0.8 "));
        // Every data line has the same length.
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines
            .iter()
            .all(|l| l.chars().count() == lines[0].chars().count()));
    }

    #[test]
    fn csv_rendering_and_escaping() {
        let mut t = Table::new("", &["name", "value"]);
        t.row(&["plain".to_string(), "1".to_string()]);
        t.row(&["with, comma".to_string(), "quote \" inside".to_string()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with, comma\",\"quote \"\" inside\"");
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.row(&["only one".to_string()]);
        let out = t.to_ascii();
        assert!(out.contains("only one"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(percent(0.969), "96.9%");
        assert_eq!(percent(1.0), "100.0%");
        assert_eq!(float(27.333, 1), "27.3");
        assert_eq!(float(2.0, 0), "2");
    }
}
