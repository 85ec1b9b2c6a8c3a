//! Shared helpers for the `helios` experiment harness.
//!
//! Every table and figure of the evaluation (see DESIGN.md §4) has a
//! binary in `src/bin/` that prints its rows/series using the helpers
//! here; `EXPERIMENTS.md` records the outputs. Timing-based experiments
//! (F7 and the micro-benchmarks) live in `benches/` under criterion.

use helios_sim::stats::OnlineStats;

/// A labelled numeric series: one figure line or one table column.
#[derive(Debug, Clone)]
pub struct Series {
    /// Series label (scheduler name, strategy, …).
    pub label: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Series {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// Prints a set of series as an aligned table: one row per x value, one
/// column per series — the textual equivalent of a multi-line figure.
pub fn print_series_table(x_label: &str, series: &[Series]) {
    print!("{x_label:>14}");
    for s in series {
        print!(" {:>14}", truncate(&s.label, 14));
    }
    println!();
    let xs: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>14.4}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!(" {y:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Prints a markdown-style header row for a table experiment.
pub fn print_header(columns: &[&str]) {
    for c in columns {
        print!("{c:>16}");
    }
    println!();
    println!("{}", "-".repeat(16 * columns.len()));
}

fn truncate(s: &str, width: usize) -> &str {
    &s[..s.len().min(width)]
}

/// Aggregates repeated measurements and reports `mean ± std`.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    stats: OnlineStats,
}

impl Agg {
    /// Creates an empty aggregate.
    #[must_use]
    pub fn new() -> Agg {
        Agg::default()
    }

    /// Adds one measurement.
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
    }

    /// The mean of the measurements.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Formats as `mean±std`.
    #[must_use]
    pub fn display(&self) -> String {
        format!("{:.4}±{:.4}", self.stats.mean(), self.stats.std_dev())
    }
}

/// The default seed sweep used by every stochastic experiment.
#[must_use]
pub fn seeds(n: u64) -> std::ops::Range<u64> {
    0..n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let mut s = Series::new("heft");
        s.push(1.0, 2.0);
        s.push(2.0, 3.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.label, "heft");
    }

    #[test]
    fn agg_reports_mean() {
        let mut a = Agg::new();
        a.push(1.0);
        a.push(3.0);
        assert_eq!(a.mean(), 2.0);
        assert!(a.display().contains('±'));
    }

    #[test]
    fn printing_does_not_panic() {
        let mut s = Series::new("a-very-long-label-indeed");
        s.push(0.5, 1.5);
        print_series_table("x", &[s]);
        print_header(&["col1", "col2"]);
    }
}
