//! Shared helpers for the `pte` benchmark harness.
//!
//! Every figure and table of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it (the `fig*` binaries, `table1_primitives`,
//! `search_time` and `size_analysis`) and prints the same rows/series the
//! paper reports, alongside the paper's numbers for comparison.

use std::fmt::Display;

/// Prints an experiment banner with the paper reference.
pub fn banner(title: &str, paper_ref: &str) {
    println!("==========================================================================");
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("==========================================================================");
}

/// Renders a horizontal ASCII bar for a magnitude (used for speedup charts).
pub fn bar(value: f64, per_unit: usize) -> String {
    let n = (value * per_unit as f64).round().max(0.0) as usize;
    "#".repeat(n.min(120))
}

/// Whether quick mode is requested (`PTE_QUICK=1`): trims search budgets so
/// the whole harness runs in seconds instead of minutes.
pub fn quick_mode() -> bool {
    std::env::var("PTE_QUICK").map(|v| v == "1").unwrap_or(false)
}

/// A minimal aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Display>(headers: &[S]) -> Self {
        TextTable { headers: headers.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Display>(&mut self, cells: &[S]) {
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate().take(cols) {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!("{}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
        for row in &self.rows {
            line(row);
        }
    }
}

/// The unified-search options used by the harness: paper-scale by default,
/// trimmed under `PTE_QUICK=1`.
pub fn harness_options() -> pte_core::UnifiedOptions {
    let mut options = pte_core::UnifiedOptions::default();
    if quick_mode() {
        options.random_per_layer = 8;
        options.tune.trials = 16;
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(3.0, 2), "######");
        assert_eq!(bar(0.0, 5), "");
    }

    #[test]
    fn table_renders_without_panic() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["1", "22"]);
        t.print();
    }
}
