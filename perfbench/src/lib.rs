//! The helios benchmark.
//!
//! Four workloads cover the layers a sweep passes through:
//!
//! * [`workloads::paper_grid`] — the paper's 1200-cell evaluation grid,
//!   sequential, through to the merged report bytes;
//! * [`workloads::resilient_store`] — a 1500-cell checkpoint-restart
//!   grid swept into a columnar store, cut at half and resumed;
//! * [`workloads::results_query`] — reading, merging and querying a
//!   50k-row four-shard store;
//! * [`workloads::large_run`] — 20,000-task workflows through the exec
//!   core.
//!
//! Each workload has an untraced run, which measures the end-to-end
//! metrics through the same entry points a user calls, and a traced
//! run, which drives the same work through the layers' public calls
//! with a [`span::Tracer`] around each call and reports per-layer self
//! times and work counts. See `perfbench/README.md`.

pub mod host;
pub mod replica;
pub mod span;
pub mod workloads;

use std::path::PathBuf;
use std::time::Instant;

/// Errors surfaced by a workload.
pub type Error = Box<dyn std::error::Error>;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MiB`, `count`, `bytes`, `frac`).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// How much work a run does: the benchmark's full size, or a small
/// version of every workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// A few cells, rows and executions of each workload.
    Small,
}

/// Everything a workload run needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The checkout root (specs are read relative to it).
    pub root: PathBuf,
    /// A private scratch directory for the run's stores.
    pub work: PathBuf,
    /// The `--seed` every generated input derives from.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Full or test size.
    pub scale: Scale,
}

impl Ctx {
    /// The offset added to every generated seed: disjoint seed ranges
    /// per `--seed`, and the committed inputs unchanged at seed 0.
    #[must_use]
    pub fn seed_shift(&self) -> u64 {
        (self.seed % 1_000_000) * 1000
    }

    /// Worker threads for parallel sweeps: `min(2, nproc)`.
    #[must_use]
    pub fn workers(&self) -> usize {
        host::nproc().clamp(1, 2)
    }
}

/// Output checks: each mismatch is one failed operation.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// Mismatches found.
    pub failed: u64,
    /// What mismatched.
    pub notes: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// The outcome of one run, untraced or traced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, executions, merges, queries).
    pub attempted: u64,
    /// The output checks and their mismatches.
    pub checks: Checks,
    /// The metrics the run reports.
    pub metrics: Vec<Metric>,
    /// Extra detail for the result file (pass counts, sample counts).
    pub detail: Vec<(String, f64)>,
    /// Each timed pass's wall, seconds (untraced runs).
    pub pass_walls: Vec<f64>,
    /// The traced run's spans, written out at the end.
    pub tracer: Option<span::Tracer>,
}

/// Runs `setup` several times and returns the last result with the
/// median wall: at least 5 repetitions and a second (at most 2001
/// repetitions), so a set-up is sampled over a window long enough to
/// ride out momentary host noise.
///
/// # Errors
///
/// The first error `setup` returns.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, Error>) -> Result<(T, f64), Error> {
    let begin = Instant::now();
    let mut walls = Vec::new();
    loop {
        let start = Instant::now();
        let out = setup()?;
        walls.push(start.elapsed().as_secs_f64());
        if walls.len() >= 2001 || (walls.len() >= 5 && begin.elapsed().as_secs_f64() >= 1.0) {
            return Ok((out, median(&walls)));
        }
    }
}

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: the digest the
/// expected-output file records.
#[must_use]
pub fn digest(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Reads a value from the committed expected-output file
/// (`perfbench/expected/seed0.json`) for the default seed.
///
/// # Errors
///
/// A missing or malformed file.
pub fn expected(ctx: &Ctx, key: &str) -> Result<serde_json::Value, Error> {
    let path = ctx.root.join("perfbench/expected/seed0.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let value: serde_json::Value = serde_json::from_str(&text)?;
    value
        .get(key)
        .cloned()
        .ok_or_else(|| format!("{} has no {key:?}", path.display()).into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
