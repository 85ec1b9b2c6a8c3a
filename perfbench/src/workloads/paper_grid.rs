//! `paper_grid`: the paper's evaluation grid (`examples/specs/paper_grid.json`,
//! 5 families × 4 platforms × 12 schedulers × 5 seeds = 1200 cells of
//! 100 tasks), swept sequentially without durability through to the
//! merged `--out` report bytes.

use std::time::Instant;

use helios_core::{ShardReport, ShardSpec, SweepDriver};

use super::{load_spec, passes, report_bytes};
use crate::replica::{run_cell, same_cells};
use crate::span::{layer_metrics, Tracer};
use crate::{digest, expected, timed_setup, Checks, Ctx, Error, Outcome, Scale};

/// The committed spec this workload sweeps.
pub const SPEC: &str = "examples/specs/paper_grid.json";

/// Every this-many-th cell is re-run through the replica after the
/// untraced passes: a cross-check that works for every seed.
const SPOT_STRIDE: usize = 53;

fn shard(ctx: &Ctx) -> Result<ShardSpec, Error> {
    Ok(match ctx.scale {
        Scale::Full => ShardSpec::full(),
        Scale::Small => ShardSpec::new(1, 59)?,
    })
}

/// One sweep of the grid: the shard report and its `--out` bytes.
fn pass(ctx: &Ctx, spec: &helios_core::CampaignSpec) -> Result<(ShardReport, String), Error> {
    let report = SweepDriver::new(1).run_shard(spec, shard(ctx)?)?;
    let bytes = report_bytes(&report, &mut Tracer::off())?;
    Ok((report, bytes))
}

/// The untraced run: timed sweeps of the whole grid.
///
/// # Errors
///
/// Spec and sweep errors.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, Error> {
    let (spec, setup_s) = timed_setup(|| {
        let spec = load_spec(ctx, SPEC)?;
        spec.expand()?;
        Ok(spec)
    })?;
    let runs = passes(ctx, 3, || pass(ctx, &spec), |_| (), |a, b| a.1 == b.1)?;

    let mut checks = Checks::default();
    runs.check_repeatable(&mut checks);
    let (first_report, first_bytes) = &runs.first;
    if ctx.seed == 0 && ctx.scale == Scale::Full {
        let want = expected(ctx, "paper_grid_report_fnv")?;
        let got = digest(first_bytes.as_bytes());
        checks.expect(want.as_str() == Some(got.as_str()), || {
            format!("report digest {got} differs from the recorded {want:?}")
        });
    }
    let owned: Vec<_> = spec
        .expand()?
        .into_iter()
        .filter(|c| shard(ctx).is_ok_and(|s| s.owns(c.index)))
        .collect();
    checks.expect(first_report.cells.len() == owned.len(), || {
        format!(
            "{} cells reported, {} owned",
            first_report.cells.len(),
            owned.len()
        )
    });
    let mut spot = 0;
    for (cell, got) in owned.iter().zip(&first_report.cells).step_by(SPOT_STRIDE) {
        let again = run_cell(&spec, cell, &mut Tracer::off())?;
        spot += 1;
        checks.expect(same_cells(&[again], std::slice::from_ref(got)), || {
            format!("replica of cell {} differs from the sweep", cell.index)
        });
    }

    let cells = first_report.cells.len() as f64;
    let rates: Vec<f64> = runs.samples.iter().map(|(w, _)| cells / w).collect();
    let op_ms: Vec<f64> = runs.samples.iter().map(|(w, _)| w * 1e3).collect();
    Ok(Outcome {
        attempted: (cells as u64) * rates.len() as u64 + spot,
        checks,
        metrics: runs.end_to_end(setup_s, &rates, &op_ms),
        pass_walls: runs.walls(),
        detail: vec![
            ("passes".into(), rates.len() as f64),
            ("op_samples".into(), op_ms.len() as f64),
            ("cells_per_pass".into(), cells),
            ("spot_checked_cells".into(), spot as f64),
        ],
        tracer: None,
    })
}

/// The traced run: one untraced sweep as reference, then the same grid
/// through the public-call replica with a span around every layer call.
///
/// # Errors
///
/// Spec and sweep errors.
pub fn traced(ctx: &Ctx) -> Result<Outcome, Error> {
    let start = Instant::now();
    let spec = load_spec(ctx, SPEC)?;
    let (reference, reference_bytes) = pass(ctx, &spec)?;
    let untraced_wall = start.elapsed().as_secs_f64();

    let mut t = Tracer::on();
    let start = Instant::now();
    let (spec, cells) = t.span("campaign.expand", 0, |_| -> Result<_, Error> {
        let spec = load_spec(ctx, SPEC)?;
        let cells = spec.expand()?;
        Ok((spec, cells))
    })?;
    let shard = shard(ctx)?;
    let mut results = Vec::new();
    for cell in cells.iter().filter(|c| shard.owns(c.index)) {
        results.push(run_cell(&spec, cell, &mut t)?);
    }
    let report = ShardReport {
        spec_name: spec.name.clone(),
        spec_digest: spec.digest(),
        total_cells: cells.len(),
        shard_index: shard.index(),
        shard_count: shard.count(),
        cells: results,
    };
    let bytes = report_bytes(&report, &mut t)?;
    let wall = start.elapsed().as_secs_f64();

    let mut checks = Checks::default();
    checks.expect(same_cells(&report.cells, &reference.cells), || {
        "replica cells differ from the sweep driver's".into()
    });
    checks.expect(bytes == reference_bytes, || {
        "replica report bytes differ from the sweep driver's".into()
    });
    Ok(Outcome {
        attempted: report.cells.len() as u64 + 1,
        checks,
        metrics: layer_metrics(&t, wall, untraced_wall),
        detail: vec![("cells".into(), report.cells.len() as f64)],
        tracer: Some(t),
        pass_walls: Vec::new(),
    })
}

/// The report digest the expected-output file records for seed 0.
///
/// # Errors
///
/// Spec and sweep errors.
pub fn record(ctx: &Ctx) -> Result<String, Error> {
    let spec = load_spec(ctx, SPEC)?;
    Ok(digest(pass(ctx, &spec)?.1.as_bytes()))
}
