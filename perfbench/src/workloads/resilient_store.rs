//! `resilient_store`: a 1500-cell checkpoint-restart grid
//! (`perfbench/specs/resilient_store.json`) swept into a columnar store
//! by `SweepDriver::run_store` with `min(2, nproc)` workers. The first
//! invocation is cut at half the cells by `StoreOptions::limit`; the
//! second salvages the store and resumes. This is the durable write
//! path plus the resilient runner, with no annealing.

use std::path::{Path, PathBuf};
use std::time::Instant;

use helios_core::store::schema_names;
use helios_core::{
    read_store, recover_store, CampaignSpec, ShardReport, ShardSpec, StoreHeader, StoreOptions,
    SweepDriver,
};

use super::{load_spec, passes, report_bytes, TracedWriter};
use crate::replica::{run_cell, same_cells};
use crate::span::{layer_metrics, Tracer};
use crate::{digest, expected, timed_setup, Checks, Ctx, Error, Outcome, Scale};

/// The spec this workload sweeps, kept with the benchmark.
pub const SPEC: &str = "perfbench/specs/resilient_store.json";

fn shard(ctx: &Ctx) -> Result<ShardSpec, Error> {
    Ok(match ctx.scale {
        Scale::Full => ShardSpec::full(),
        Scale::Small => ShardSpec::new(1, 50)?,
    })
}

fn store_path(ctx: &Ctx) -> PathBuf {
    ctx.work.join("resilient.store")
}

fn owned_cells(ctx: &Ctx, spec: &CampaignSpec) -> Result<usize, Error> {
    let shard = shard(ctx)?;
    Ok(spec
        .expand()?
        .iter()
        .filter(|c| shard.owns(c.index))
        .count())
}

fn remove(path: &Path) -> Result<(), Error> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// What one cut-and-resume pass produced.
struct Pass {
    report: ShardReport,
    bytes: String,
    cut_remaining: usize,
    salvaged_rows: usize,
    resume_remaining: usize,
}

/// Sweeps a fresh store in two invocations: cut at `half`, then resume.
fn pass(ctx: &Ctx, spec: &CampaignSpec, jobs: usize, half: usize) -> Result<Pass, Error> {
    let path = store_path(ctx);
    remove(&path)?;
    let driver = SweepDriver::new(jobs);
    let shard = shard(ctx)?;
    let cut = StoreOptions {
        limit: Some(half),
        ..StoreOptions::default()
    };
    let first = driver.run_store(spec, shard, &path, &cut)?;
    let second = driver.run_store(spec, shard, &path, &StoreOptions::default())?;
    let bytes = report_bytes(&second.report, &mut Tracer::off())?;
    Ok(Pass {
        report: second.report,
        bytes,
        cut_remaining: first.remaining,
        salvaged_rows: second.salvaged_rows,
        resume_remaining: second.remaining,
    })
}

/// The untraced run: timed cut-and-resume store sweeps.
///
/// # Errors
///
/// Spec, sweep and store errors.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, Error> {
    let (spec, setup_s) = timed_setup(|| {
        let spec = load_spec(ctx, SPEC)?;
        spec.expand()?;
        remove(&store_path(ctx))?;
        Ok(spec)
    })?;
    let owned = owned_cells(ctx, &spec)?;
    let half = owned / 2;
    let jobs = ctx.workers();
    let resumed_whole = |p: &Pass| {
        p.cut_remaining == owned - half
            && p.salvaged_rows == half
            && p.resume_remaining == 0
            && p.report.cells.len() == owned
    };
    let runs = passes(
        ctx,
        3,
        || pass(ctx, &spec, jobs, half),
        resumed_whole,
        |a, b| a.bytes == b.bytes,
    )?;

    let mut checks = Checks::default();
    runs.check_repeatable(&mut checks);
    for (i, (_, whole)) in runs.samples.iter().enumerate() {
        checks.expect(*whole, || {
            format!("pass {i}: the cut left or the resume salvaged the wrong cells")
        });
    }
    let first = &runs.first;
    let stored = read_store(&store_path(ctx))?;
    checks.expect(
        stored.cells.len() == owned && stored.dropped_bytes == 0,
        || {
            format!(
                "the store holds {} of {owned} rows and {} torn bytes",
                stored.cells.len(),
                stored.dropped_bytes
            )
        },
    );
    let straight = SweepDriver::new(jobs).run_shard(&spec, shard(ctx)?)?;
    checks.expect(
        report_bytes(&straight, &mut Tracer::off())? == first.bytes,
        || "the cut-and-resume report differs from a straight run_shard".into(),
    );
    if ctx.seed == 0 && ctx.scale == Scale::Full {
        let want = expected(ctx, "resilient_store_report_fnv")?;
        let got = digest(first.bytes.as_bytes());
        checks.expect(want.as_str() == Some(got.as_str()), || {
            format!("report digest {got} differs from the recorded {want:?}")
        });
    }
    remove(&store_path(ctx))?;

    let rates: Vec<f64> = runs.samples.iter().map(|(w, _)| owned as f64 / w).collect();
    let op_ms: Vec<f64> = runs.samples.iter().map(|(w, _)| w * 1e3).collect();
    Ok(Outcome {
        attempted: (owned * rates.len()) as u64 + 1,
        checks,
        metrics: runs.end_to_end(setup_s, &rates, &op_ms),
        pass_walls: runs.walls(),
        detail: vec![
            ("passes".into(), rates.len() as f64),
            ("op_samples".into(), op_ms.len() as f64),
            ("cells_per_pass".into(), owned as f64),
            ("workers".into(), jobs as f64),
        ],
        tracer: None,
    })
}

/// One invocation of the replica of `run_store`: salvage or create the
/// store, run up to `limit` missing cells through the public-call
/// replica, append each row, flush the tail.
fn replica_invocation(
    ctx: &Ctx,
    path: &Path,
    limit: Option<usize>,
    t: &mut Tracer,
) -> Result<ShardReport, Error> {
    let (spec, cells) = t.span("campaign.expand", 0, |_| -> Result<_, Error> {
        let spec = load_spec(ctx, SPEC)?;
        let cells = spec.expand()?;
        Ok((spec, cells))
    })?;
    let shard = shard(ctx)?;
    let header = StoreHeader {
        spec_name: spec.name.clone(),
        spec_digest: spec.digest(),
        total_cells: cells.len(),
        shard_index: shard.index(),
        shard_count: shard.count(),
        columns: schema_names(),
    };
    let exists = std::fs::metadata(path).is_ok_and(|m| m.len() > 0);
    // Bytes this invocation writes: from the salvaged length (or zero
    // for a fresh store) to the final length.
    let (mut writer, mut done, len_start) = if exists {
        let salvage = t.span("store.salvage", 0, |_| recover_store(path))?;
        t.count("store.salvaged_rows", salvage.cells.len() as f64);
        if salvage.header != header {
            return Err("the salvaged store belongs to another campaign".into());
        }
        let writer = TracedWriter::open_append(path, t)?;
        (writer, salvage.cells, salvage.valid_bytes)
    } else {
        (TracedWriter::create(path, &header, t)?, Vec::new(), 0)
    };
    done.sort_by_key(|c| c.cell);
    let mut pending: Vec<_> = cells
        .iter()
        .filter(|c| shard.owns(c.index) && done.binary_search_by_key(&c.index, |d| d.cell).is_err())
        .collect();
    if let Some(cap) = limit {
        pending.truncate(cap);
    }
    for cell in pending {
        let result = run_cell(&spec, cell, t)?;
        writer.append(&result, t)?;
        done.push(result);
    }
    writer.finish(t)?;
    let len_after = std::fs::metadata(path)?.len();
    t.count("store.bytes_written", (len_after - len_start) as f64);
    done.sort_by_key(|c| c.cell);
    Ok(ShardReport {
        spec_name: spec.name.clone(),
        spec_digest: header.spec_digest,
        total_cells: cells.len(),
        shard_index: shard.index(),
        shard_count: shard.count(),
        cells: done,
    })
}

/// The traced run: one sequential untraced cut-and-resume pass as
/// reference, then the same two invocations through the replica with
/// spans around every layer call.
///
/// # Errors
///
/// Spec, sweep and store errors.
pub fn traced(ctx: &Ctx) -> Result<Outcome, Error> {
    let start = Instant::now();
    let spec = load_spec(ctx, SPEC)?;
    let owned = owned_cells(ctx, &spec)?;
    let half = owned / 2;
    let reference = pass(ctx, &spec, 1, half)?;
    let untraced_wall = start.elapsed().as_secs_f64();
    let reference_store = std::fs::read(store_path(ctx))?;

    let path = store_path(ctx);
    remove(&path)?;
    let mut t = Tracer::on();
    let start = Instant::now();
    let cut = replica_invocation(ctx, &path, Some(half), &mut t)?;
    let resumed = replica_invocation(ctx, &path, None, &mut t)?;
    let bytes = report_bytes(&resumed, &mut t)?;
    let wall = start.elapsed().as_secs_f64();
    let store = std::fs::read(&path)?;
    remove(&path)?;

    let mut checks = Checks::default();
    checks.expect(cut.cells.len() == half, || {
        format!(
            "the cut invocation finished {} cells, not {half}",
            cut.cells.len()
        )
    });
    checks.expect(same_cells(&resumed.cells, &reference.report.cells), || {
        "replica cells differ from the sweep driver's".into()
    });
    checks.expect(bytes == reference.bytes, || {
        "replica report bytes differ from the sweep driver's".into()
    });
    checks.expect(store == reference_store, || {
        "replica store bytes differ from a sequential run_store's".into()
    });
    Ok(Outcome {
        attempted: resumed.cells.len() as u64 + 1,
        checks,
        metrics: layer_metrics(&t, wall, untraced_wall),
        detail: vec![("cells".into(), resumed.cells.len() as f64)],
        tracer: Some(t),
        pass_walls: Vec::new(),
    })
}

/// The report digest the expected-output file records for seed 0.
///
/// # Errors
///
/// Spec, sweep and store errors.
pub fn record(ctx: &Ctx) -> Result<String, Error> {
    let spec = load_spec(ctx, SPEC)?;
    let half = owned_cells(ctx, &spec)? / 2;
    let out = pass(ctx, &spec, ctx.workers(), half)?;
    remove(&store_path(ctx))?;
    Ok(digest(out.bytes.as_bytes()))
}
