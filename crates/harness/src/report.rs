//! Result tables: the text/CSV/JSON output layer of the `repro` binary.
//!
//! A [`Table`] is one figure or table from the paper: rows = algorithms,
//! columns = the swept parameter (usually thread count), cells = mean
//! seconds (or a normalized ratio).

use nbq_util::stats::Summary;
use std::fmt::Write as _;
use std::path::Path;

/// One measured cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Mean across runs.
    pub mean: f64,
    /// Standard deviation across runs.
    pub stddev: f64,
}

impl Cell {
    /// A single measurement, no spread.
    pub fn exact(mean: f64) -> Cell {
        Cell { mean, stddev: 0.0 }
    }

    /// Throughput in Mops/s of `ops` operations per run, from per-run
    /// seconds; the spread propagates to first order:
    /// d(ops/t) = ops * dt / t^2.
    pub fn throughput(ops: u64, s: &Summary) -> Cell {
        let ops = ops as f64;
        Cell {
            mean: ops / s.mean / 1e6,
            stddev: ops * s.stddev / (s.mean * s.mean) / 1e6,
        }
    }
}

impl From<Summary> for Cell {
    fn from(s: Summary) -> Self {
        Cell {
            mean: s.mean,
            stddev: s.stddev,
        }
    }
}

/// A figure/table of results.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `fig6a`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Label of the swept column parameter, e.g. `threads`.
    pub param: String,
    /// Column parameter values.
    pub columns: Vec<u64>,
    /// Cell unit, e.g. `s` or `ratio`.
    pub unit: String,
    /// (row label, one cell per column).
    pub rows: Vec<(String, Vec<Cell>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, title: &str, param: &str, unit: &str, columns: Vec<u64>) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            param: param.to_string(),
            unit: unit.to_string(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row; must have one cell per column.
    pub fn push_row(&mut self, label: &str, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row {label} has {} cells for {} columns",
            cells.len(),
            self.columns.len()
        );
        self.rows.push((label.to_string(), cells));
    }

    /// Returns this table normalized row-wise against the row labelled
    /// `baseline` (the paper's Fig. 6(c)/(d) transformation).
    pub fn normalized_to(&self, baseline: &str, id: &str, title: &str) -> Table {
        let base = &self
            .rows
            .iter()
            .find(|(l, _)| l == baseline)
            .unwrap_or_else(|| panic!("baseline row {baseline} missing"))
            .1;
        let mut out = Table::new(id, title, &self.param, "ratio", self.columns.clone());
        for (label, cells) in &self.rows {
            let normed = cells
                .iter()
                .zip(base)
                .map(|(c, b)| {
                    assert!(b.mean != 0.0, "zero baseline cell");
                    Cell {
                        mean: c.mean / b.mean,
                        stddev: c.stddev / b.mean,
                    }
                })
                .collect();
            out.push_row(label, normed);
        }
        out
    }

    /// Renders an aligned text table.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {} — {} [{}] ==", self.id, self.title, self.unit);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(self.param.len()))
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = write!(s, "{:<label_w$}", self.param);
        for c in &self.columns {
            let _ = write!(s, " {c:>12}");
        }
        let _ = writeln!(s);
        for (label, cells) in &self.rows {
            let _ = write!(s, "{label:<label_w$}");
            for cell in cells {
                let _ = write!(s, " {:>12.6}", cell.mean);
            }
            let _ = writeln!(s);
        }
        s
    }

    /// Renders CSV (`row,param,mean,stddev` long format — easy to plot).
    pub fn render_csv(&self) -> String {
        let mut s = String::from("algorithm,");
        let _ = writeln!(s, "{},mean_{},stddev", self.param, self.unit);
        for (label, cells) in &self.rows {
            for (col, cell) in self.columns.iter().zip(cells) {
                let _ = writeln!(s, "{label},{col},{},{}", cell.mean, cell.stddev);
            }
        }
        s
    }

    /// Renders pretty-printed JSON (same shape serde_json derived when
    /// this module depended on it — kept hand-rolled so the workspace
    /// builds without registry access).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"id\": {},", json_str(&self.id));
        let _ = writeln!(s, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(s, "  \"param\": {},", json_str(&self.param));
        let cols: Vec<String> = self.columns.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(s, "  \"columns\": [{}],", cols.join(", "));
        let _ = writeln!(s, "  \"unit\": {},", json_str(&self.unit));
        // The host the rows were measured on: timings only compare
        // across runs with the same CPU count.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let _ = writeln!(s, "  \"host_cpus\": {cpus},");
        s.push_str("  \"rows\": [\n");
        for (i, (label, cells)) in self.rows.iter().enumerate() {
            let _ = writeln!(s, "    [");
            let _ = writeln!(s, "      {},", json_str(label));
            s.push_str("      [\n");
            for (j, cell) in cells.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "        {{ \"mean\": {}, \"stddev\": {} }}{}",
                    json_f64(cell.mean),
                    json_f64(cell.stddev),
                    if j + 1 < cells.len() { "," } else { "" }
                );
            }
            s.push_str("      ]\n");
            let _ = writeln!(s, "    ]{}", if i + 1 < self.rows.len() { "," } else { "" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Writes `<dir>/<id>.csv` and `<dir>/<id>.json`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.render_csv())?;
        std::fs::write(dir.join(format!("{}.json", self.id)), self.render_json())?;
        Ok(())
    }

    /// Merges rows from a previously written long-format CSV (the output
    /// of [`Table::render_csv`]) into this table, skipping rows whose
    /// label this table already has and cells whose column value is not
    /// in `self.columns`.
    ///
    /// This is how cross-build experiments compose: `ext-ordering` runs
    /// once per compiled ordering mode (`strict-sc` is a cargo feature,
    /// not a runtime switch), and the second build folds the first
    /// build's rows into its table before writing results.
    pub fn merge_csv_rows(&mut self, csv: &str) {
        use std::collections::HashMap;
        // label -> column -> cell, preserving first-seen label order.
        let mut labels: Vec<String> = Vec::new();
        let mut cells: HashMap<String, HashMap<u64, Cell>> = HashMap::new();
        for line in csv.lines().skip(1) {
            let mut f = line.splitn(4, ',');
            let (Some(label), Some(col), Some(mean), Some(stddev)) =
                (f.next(), f.next(), f.next(), f.next())
            else {
                continue;
            };
            let (Ok(col), Ok(mean), Ok(stddev)) = (
                col.parse::<u64>(),
                mean.parse::<f64>(),
                stddev.parse::<f64>(),
            ) else {
                continue;
            };
            if self.rows.iter().any(|(l, _)| l == label) {
                continue;
            }
            if !cells.contains_key(label) {
                labels.push(label.to_string());
            }
            cells
                .entry(label.to_string())
                .or_default()
                .insert(col, Cell { mean, stddev });
        }
        for label in labels {
            let row = &cells[&label];
            // Only merge rows that cover every column of this table;
            // partial rows would mislabel missing cells as measured.
            if self.columns.iter().all(|c| row.contains_key(c)) {
                let cells: Vec<Cell> = self.columns.iter().map(|c| row[c]).collect();
                self.push_row(&label, cells);
            }
        }
    }

    /// Looks up a cell by row label and column value.
    pub fn cell(&self, row: &str, column: u64) -> Option<Cell> {
        let col = self.columns.iter().position(|&c| c == column)?;
        let r = self.rows.iter().find(|(l, _)| l == row)?;
        r.1.get(col).copied()
    }
}

/// JSON string literal with the escapes table ids can contain.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; NaN/inf have no JSON form, so encode as null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t1", "demo", "threads", "s", vec![1, 2, 4]);
        t.push_row(
            "A",
            vec![
                Cell {
                    mean: 1.0,
                    stddev: 0.1,
                },
                Cell {
                    mean: 2.0,
                    stddev: 0.1,
                },
                Cell {
                    mean: 4.0,
                    stddev: 0.1,
                },
            ],
        );
        t.push_row(
            "B",
            vec![
                Cell {
                    mean: 2.0,
                    stddev: 0.2,
                },
                Cell {
                    mean: 2.0,
                    stddev: 0.2,
                },
                Cell {
                    mean: 2.0,
                    stddev: 0.2,
                },
            ],
        );
        t
    }

    #[test]
    fn text_render_contains_everything() {
        let out = sample().render_text();
        assert!(out.contains("t1"));
        assert!(out.contains("threads"));
        assert!(out.contains('A'));
        assert!(out.contains('B'));
        assert!(out.contains("4.000000"));
    }

    #[test]
    fn csv_long_format() {
        let csv = sample().render_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 6, "header + 2 rows x 3 cols");
        assert_eq!(lines[0], "algorithm,threads,mean_s,stddev");
        assert!(lines.contains(&"A,1,1,0.1"));
        assert!(lines.contains(&"B,4,2,0.2"));
    }

    #[test]
    fn normalization_divides_by_baseline_row() {
        let t = sample();
        let n = t.normalized_to("A", "t1n", "demo normalized");
        assert_eq!(n.cell("A", 1).unwrap().mean, 1.0);
        assert_eq!(n.cell("A", 4).unwrap().mean, 1.0);
        assert_eq!(n.cell("B", 1).unwrap().mean, 2.0);
        assert_eq!(n.cell("B", 4).unwrap().mean, 0.5);
        assert_eq!(n.unit, "ratio");
    }

    #[test]
    #[should_panic(expected = "baseline row X missing")]
    fn missing_baseline_panics() {
        sample().normalized_to("X", "x", "x");
    }

    #[test]
    #[should_panic(expected = "has 1 cells")]
    fn wrong_width_row_panics() {
        let mut t = sample();
        t.push_row(
            "C",
            vec![Cell {
                mean: 1.0,
                stddev: 0.0,
            }],
        );
    }

    #[test]
    fn files_are_written() {
        let dir = std::env::temp_dir().join(format!("nbq-report-test-{}", std::process::id()));
        sample().write_to(&dir).unwrap();
        assert!(dir.join("t1.csv").exists());
        assert!(dir.join("t1.json").exists());
        let json = std::fs::read_to_string(dir.join("t1.json")).unwrap();
        assert!(json.contains("\"id\": \"t1\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_csv_rows_appends_other_modes_and_skips_duplicates_and_partials() {
        let mut t = sample();
        let csv = "algorithm,threads,mean_s,stddev\n\
                   A,1,9,0\nA,2,9,0\nA,4,9,0\n\
                   C,1,5,0.5\nC,2,6,0.5\nC,4,7,0.5\n\
                   D,1,8,0\n";
        t.merge_csv_rows(csv);
        // A already exists: kept, not overwritten.
        assert_eq!(t.cell("A", 1).unwrap().mean, 1.0);
        // C covers all columns: merged.
        assert_eq!(t.cell("C", 2).unwrap().mean, 6.0);
        assert_eq!(t.cell("C", 4).unwrap().stddev, 0.5);
        // D only covers column 1: dropped rather than mislabeled.
        assert!(t.cell("D", 1).is_none());
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn cell_lookup() {
        let t = sample();
        assert!(t.cell("A", 2).is_some());
        assert!(t.cell("A", 3).is_none());
        assert!(t.cell("Z", 1).is_none());
    }
}
