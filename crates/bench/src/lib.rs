#![forbid(unsafe_code)]

//! Shared harness utilities for the experiment suite.
//!
//! The `experiments` binary (this crate's `src/bin/experiments.rs`) prints
//! one markdown table per experiment of `EXPERIMENTS.md`, and the
//! `harness` binary runs the declarative specs under `experiments/`. This
//! library holds the bits they share: timing, table formatting, and
//! log–log slope fitting (used to check polynomial-degree predictions,
//! e.g. the `O(|D|^{2·cc_vertex})` bound of Lemma 4.3).

use ecrpq_core::product::ProductStats;
use ecrpq_core::{engine, EvalOptions, NoopTracer, Outcome, PreparedQuery};
use ecrpq_graph::{GraphDb, NodeId};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

pub mod harness;

/// The result and counters of a governed engine run that must have
/// completed: every experiment that runs unbudgeted asserts it.
pub fn complete<A>(o: Outcome<A>) -> (A, ProductStats) {
    assert!(o.termination.is_complete(), "an unbudgeted run completes");
    (o.answers, o.stats)
}

/// Unbudgeted product-search answers and merged counters, through the
/// governed engine entry point.
pub fn product_answers_with_stats(
    db: &GraphDb,
    prepared: &PreparedQuery,
    opts: &EvalOptions,
) -> (BTreeSet<Vec<NodeId>>, ProductStats) {
    complete(engine::answers_product_governed_traced(
        db,
        prepared,
        opts,
        &NoopTracer,
    ))
}

/// Times `f`, returning the median of `runs` executions.
pub fn time_median<T>(runs: usize, mut f: impl FnMut() -> T) -> Duration {
    assert!(runs >= 1);
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let out = f();
            let d = start.elapsed();
            std::hint::black_box(out);
            d
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A simple markdown table builder.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "ragged table row");
        self.rows.push(cells.to_vec());
    }

    /// Renders as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let inner: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            format!("| {} |", inner.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Least-squares slope of `log(y)` against `log(x)` — the empirical
/// polynomial degree of `y(x)`.
///
/// Returns `NaN` when fewer than two valid (positive) points exist.
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_is_two() {
        let xs: Vec<f64> = (1..=6).map(|i| (1 << i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x * x).collect();
        let s = loglog_slope(&xs, &ys);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn slope_handles_junk() {
        assert!(loglog_slope(&[1.0], &[1.0]).is_nan());
        assert!(loglog_slope(&[0.0, 0.0], &[1.0, 2.0]).is_nan());
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["n", "time"]);
        t.row(&["64".into(), "1.0ms".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| n "));
        assert!(md.contains("| 64"));
        assert_eq!(md.lines().count(), 3);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn time_median_returns_positive() {
        let d = time_median(3, || (0..1000).sum::<u64>());
        assert!(d.as_nanos() > 0);
    }
}
