//! The four workloads and what they share: seed-shifted spec loading,
//! the timed pass loop and the end-to-end metric set.

pub mod large_run;
pub mod paper_grid;
pub mod resilient_store;
pub mod results_query;

use std::time::Instant;

use std::path::Path;

use helios_core::store::DEFAULT_SEGMENT_ROWS;
use helios_core::{merge_shards, CampaignSpec, CellResult, ShardReport, StoreHeader, StoreWriter};

use crate::host::peak_rss_mb;
use crate::span::Tracer;
use crate::{quantile, Ctx, Error, Metric, Outcome, Scale};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = [
    "paper_grid",
    "resilient_store",
    "results_query",
    "large_run",
];

/// Runs the untraced measurement of workload `name`.
///
/// # Errors
///
/// Unknown workload names and errors from the helios calls.
pub fn untraced(name: &str, ctx: &Ctx) -> Result<Outcome, Error> {
    match name {
        "paper_grid" => paper_grid::untraced(ctx),
        "resilient_store" => resilient_store::untraced(ctx),
        "results_query" => results_query::untraced(ctx),
        "large_run" => large_run::untraced(ctx),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}").into()),
    }
}

/// Runs the traced replica of workload `name`.
///
/// # Errors
///
/// Unknown workload names and errors from the helios calls.
pub fn traced(name: &str, ctx: &Ctx) -> Result<Outcome, Error> {
    match name {
        "paper_grid" => paper_grid::traced(ctx),
        "resilient_store" => resilient_store::traced(ctx),
        "results_query" => results_query::traced(ctx),
        "large_run" => large_run::traced(ctx),
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}").into()),
    }
}

/// Reads the spec at `rel` (relative to the checkout root), shifts its
/// seeds by the run's seed and checks the replica can reproduce it.
///
/// # Errors
///
/// Unreadable or invalid specs.
pub fn load_spec(ctx: &Ctx, rel: &str) -> Result<CampaignSpec, Error> {
    let path = ctx.root.join(rel);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut spec = CampaignSpec::from_json(&text)?;
    spec.seeds.base += ctx.seed_shift();
    crate::replica::check_spec(&spec)?;
    Ok(spec)
}

/// The `--out` bytes of a sweep: the merged report for a whole grid,
/// the shard report itself for a test-scale shard (which cannot merge
/// alone). The merge is a `campaign.merge` span.
///
/// # Errors
///
/// Merge and serialization failures.
pub fn report_bytes(report: &ShardReport, t: &mut Tracer) -> Result<String, Error> {
    if report.shard_count > 1 {
        return Ok(serde_json::to_string_pretty(report)?);
    }
    let merged = t.span("campaign.merge", 0, |_| {
        merge_shards(std::slice::from_ref(report))
    })?;
    t.count("campaign.merge_rows", merged.cells.len() as f64);
    Ok(serde_json::to_string_pretty(&merged)?)
}

/// The passes of an untraced run: the first pass's full output, a
/// sample from every pass, and the passes whose output differed from
/// the first (a determinism check that needs no more memory than one
/// pass).
pub struct Runs<P, S> {
    /// The first pass's output.
    pub first: P,
    /// Each pass's wall with its sample, in order.
    pub samples: Vec<(f64, S)>,
    /// Indices of the passes whose output differed from the first.
    pub differing: Vec<usize>,
    /// The process's peak RSS right after the last pass, before the
    /// output checks allocate their own copies.
    pub peak_rss_mb: f64,
}

/// Repeats `pass` until the run's seconds are spent and at least `min`
/// passes ran (one at test scale), so a median never rests on a single
/// pass.
///
/// # Errors
///
/// The first error a pass returns.
pub fn passes<P, S>(
    ctx: &Ctx,
    min: usize,
    mut pass: impl FnMut() -> Result<P, Error>,
    sample: impl Fn(&P) -> S,
    same: impl Fn(&P, &P) -> bool,
) -> Result<Runs<P, S>, Error> {
    let min = if ctx.scale == Scale::Full { min } else { 1 };
    let begin = Instant::now();
    let mut first = None;
    let mut samples = Vec::new();
    let mut differing = Vec::new();
    while samples.len() < min || begin.elapsed().as_secs_f64() < ctx.seconds {
        let start = Instant::now();
        let p = pass()?;
        let wall = start.elapsed().as_secs_f64();
        samples.push((wall, sample(&p)));
        match &first {
            None => first = Some(p),
            Some(f) if !same(f, &p) => differing.push(samples.len() - 1),
            Some(_) => {}
        }
    }
    let first = first.ok_or("no pass ran")?;
    let peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Runs {
        first,
        samples,
        differing,
        peak_rss_mb,
    })
}

impl<P, S> Runs<P, S> {
    /// Records one failed check per pass that differed from the first.
    pub fn check_repeatable(&self, checks: &mut crate::Checks) {
        for i in &self.differing {
            checks.expect(false, || format!("pass {i} output differs from pass 0"));
        }
    }

    /// The end-to-end metrics of the run, given each pass's headline
    /// rate and every operation latency sample.
    #[must_use]
    pub fn end_to_end(&self, setup_s: f64, rates: &[f64], op_ms: &[f64]) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("throughput_per_s", crate::median(rates), "1/s"),
            Metric::new("op_ms_p50", windowed_quantile(op_ms, 0.5), "ms"),
            Metric::new("op_ms_p90", windowed_quantile(op_ms, 0.9), "ms"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }

    /// Every pass's wall, seconds.
    #[must_use]
    pub fn walls(&self) -> Vec<f64> {
        self.samples.iter().map(|(w, _)| *w).collect()
    }
}

/// Latency samples per quantile window.
const WINDOW: usize = 100;

/// The `q` quantile of `samples` (in time order) over each of
/// `len / WINDOW` consecutive, equal windows, then the median across
/// windows. A burst of host noise then moves one window's tail, not
/// the reported one. With fewer than [`WINDOW`] samples there is one
/// window.
fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    let windows = (samples.len() / WINDOW).max(1);
    let size = samples.len().div_ceil(windows).max(1);
    let per_window: Vec<f64> = samples.chunks(size).map(|w| quantile(w, q)).collect();
    crate::median(&per_window)
}

/// A [`StoreWriter`] whose calls are spans. The append that fills a
/// row group writes and fsyncs it, so it is a `store.flush` span; the
/// others are `store.append` spans. `store.flushes` counts fsync'd
/// records: the header and every group.
pub struct TracedWriter {
    writer: StoreWriter,
    buffered: usize,
}

impl TracedWriter {
    /// Creates a store (its header is one fsync'd record).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn create(path: &Path, header: &StoreHeader, t: &mut Tracer) -> Result<Self, Error> {
        let writer = t.span("store.flush", 0, |_| StoreWriter::create(path, header))?;
        t.count("store.flushes", 1.0);
        Ok(TracedWriter {
            writer,
            buffered: 0,
        })
    }

    /// Reopens a salvaged store for appending (part of `store.salvage`).
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn open_append(path: &Path, t: &mut Tracer) -> Result<Self, Error> {
        let writer = t.span("store.salvage", 0, |_| StoreWriter::open_append(path))?;
        Ok(TracedWriter {
            writer,
            buffered: 0,
        })
    }

    /// Appends one row.
    ///
    /// # Errors
    ///
    /// I/O failures from a group flush.
    pub fn append(&mut self, cell: &CellResult, t: &mut Tracer) -> Result<(), Error> {
        self.buffered += 1;
        let name = if self.buffered == DEFAULT_SEGMENT_ROWS {
            self.buffered = 0;
            t.count("store.flushes", 1.0);
            "store.flush"
        } else {
            "store.append"
        };
        let writer = &mut self.writer;
        t.span(name, cell.cell as u64, |_| writer.append_cell(cell))?;
        t.count("store.appends", 1.0);
        Ok(())
    }

    /// Flushes the buffered tail group, if any.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn finish(mut self, t: &mut Tracer) -> Result<(), Error> {
        if self.buffered > 0 {
            let writer = &mut self.writer;
            t.span("store.flush", 0, |_| writer.flush())?;
            t.count("store.flushes", 1.0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_quantile_shrugs_off_one_noisy_window() {
        let mut samples = vec![1.0; 300];
        samples.extend([1.0; 85]);
        samples.extend([9.0; 15]);
        assert_eq!(windowed_quantile(&samples, 0.9), 1.0);
        assert_eq!(windowed_quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }
}
