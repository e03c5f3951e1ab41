//! Plain-text table rendering for the experiment binaries.
//!
//! Every harness binary prints the same rows/series the paper's figures
//! and tables report, as fixed-width text tables (easy to diff, easy to
//! paste into EXPERIMENTS.md) and optionally as CSV.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    /// Panics on arity mismatch — harness rows are produced by code, so a
    /// mismatch is a bug.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as CSV (no quoting; harness cells never contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as a JSON array of objects keyed by the header, with cells
    /// that parse as finite numbers emitted as numbers.
    pub fn to_json(&self) -> scwsc_core::json::Json {
        use scwsc_core::json::Json;
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.header
                        .iter()
                        .zip(row)
                        .map(|(key, cell)| {
                            let value = match cell.parse::<f64>() {
                                Ok(n) if n.is_finite() => Json::Num(n),
                                _ => Json::Str(cell.clone()),
                            };
                            (key.clone(), value)
                        })
                        .collect(),
                )
            })
            .collect();
        Json::Arr(rows)
    }
}

/// Formats seconds with milli precision.
pub fn secs(s: f64) -> String {
    format!("{s:.3}")
}

/// Formats a float compactly (trailing zeros trimmed at 2 decimals).
pub fn num(v: f64) -> String {
    if (v - v.round()).abs() < 1e-9 {
        format!("{}", v.round() as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["alg", "time"]);
        t.row(["CWSC", "1.5"]).row(["optimized CWSC", "0.7"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("alg"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].contains("optimized CWSC"));
        // all rows same width
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_output() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        TextTable::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn json_output_types_cells() {
        use scwsc_core::json::Json;
        let mut t = TextTable::new(["alg", "time"]);
        t.row(["CWSC", "1.5"]);
        let json = t.to_json();
        let rows = json.as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("alg").and_then(Json::as_str), Some("CWSC"));
        assert_eq!(rows[0].get("time").and_then(Json::as_f64), Some(1.5));
        // Round-trips through the parser.
        assert_eq!(Json::parse(&json.to_pretty()).unwrap(), json);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(3.0), "3");
        assert_eq!(num(1.23456), "1.23");
        assert_eq!(secs(0.12345), "0.123");
    }
}
