//! `results_query`: the read side of the store. Set-up writes a seeded
//! synthetic 50,400-row campaign over the real schema (5 families × 4
//! platforms × 12 schedulers × 210 seeds, about 1/7 incomplete) as 4
//! shard stores. A pass reads every shard, merges them, then runs a
//! fixed mix of 10 queries; passes repeat until at least 300 query
//! samples are in.

use std::path::PathBuf;
use std::time::Instant;

use helios_core::store::schema_names;
use helios_core::{
    merge_shards, read_store, run_query, CellResult, QueryOutput, ShardReport, StoreHeader,
    SweepReport,
};

use super::{passes, TracedWriter};
use crate::span::{layer_metrics, Tracer};
use crate::{timed_setup, Checks, Ctx, Error, Outcome, Scale};

/// Shard stores the campaign is split into.
const SHARDS: usize = 4;

/// The query mix: group-bys, filters with projections, and the
/// sweep's own aggregates.
pub const QUERIES: [&str; 10] = [
    "SELECT scheduler, count(*), avg_completed(makespan_secs) GROUP BY scheduler",
    "SELECT family, platform, avg_completed(slr), frac(completed) GROUP BY family, platform",
    "SELECT cell, makespan_secs WHERE completed = false",
    "SELECT family, min(slr), max(slr) GROUP BY family",
    "SELECT count(*)",
    "SELECT scheduler, sum(energy_j) WHERE platform = 'hpc_node' GROUP BY scheduler",
    "SELECT cell, family, slr WHERE slr > 4.5 AND completed = true",
    "SELECT platform, frac(completed) GROUP BY platform",
    "SELECT incomplete_reason, count(*) GROUP BY incomplete_reason",
    "SELECT scheduler, avg(transfers), max(failures) WHERE family = 'montage' GROUP BY scheduler",
];

/// Query samples every untraced run collects at least: three latency
/// windows.
const MIN_QUERY_SAMPLES: usize = 300;

/// Queries a traced run makes.
const TRACED_QUERIES: usize = 100;

const FAMILIES: [&str; 5] = ["montage", "cybershake", "epigenomics", "ligo", "sipht"];
const PLATFORMS: [&str; 4] = ["workstation", "hpc_node", "cluster4", "edge_soc"];
const REASONS: [&str; 3] = ["retries_exhausted", "all_devices_lost", "timed_out"];

fn seeds_per_combo(ctx: &Ctx) -> usize {
    match ctx.scale {
        Scale::Full => 210,
        Scale::Small => 10,
    }
}

/// SplitMix64: one well-mixed 64-bit word per `(seed, index)`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in [0, 1) from word `k` of cell `index`.
fn unit(seed: u64, index: u64, k: u64) -> f64 {
    (mix(seed ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d), index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The synthetic campaign, in expansion order (family × platform ×
/// scheduler × seed, seed innermost), like a real sweep.
#[must_use]
pub fn synthetic_cells(ctx: &Ctx) -> Vec<CellResult> {
    let seeds = seeds_per_combo(ctx);
    let schedulers = crate::span::PLAN_SPANS.map(|(name, _)| name);
    let mut cells = Vec::with_capacity(FAMILIES.len() * PLATFORMS.len() * 12 * seeds);
    for family in FAMILIES {
        for platform in PLATFORMS {
            for scheduler in schedulers {
                for s in 0..seeds {
                    let i = cells.len() as u64;
                    let u = |k| unit(ctx.seed, i, k);
                    let completed = u(0) >= 1.0 / 7.0;
                    let failures = (u(1) * 4.0) as u32;
                    cells.push(CellResult {
                        cell: cells.len(),
                        family: family.to_owned(),
                        platform: platform.to_owned(),
                        scheduler: scheduler.to_owned(),
                        seed: ctx.seed_shift() + s as u64,
                        makespan_secs: if completed { 10.0 + 990.0 * u(2) } else { 0.0 },
                        slr: if completed { 1.0 + 4.0 * u(3) } else { 0.0 },
                        energy_j: if completed { 1e3 + 1e6 * u(4) } else { 0.0 },
                        transfers: (u(5) * 500.0) as usize,
                        transfer_bytes: 1e9 * u(6),
                        failures,
                        retries: (u(7) * f64::from(failures + 1)) as u32,
                        completed,
                        wasted_work_secs: 5.0 * u(8),
                        recovery_overhead_secs: u(9),
                        makespan_degradation: 0.5 * u(10),
                        reroutes: 0,
                        partition_downtime_secs: 0.0,
                        rematerialized_tasks: 0,
                        rematerialized_bytes: 0.0,
                        incomplete_reason: (!completed)
                            .then(|| REASONS[(u(11) * 3.0) as usize].to_owned()),
                        capacity_secs: 0.0,
                        preemptions: 0,
                        drain_migrated_tasks: 0,
                        join_utilization: 0.0,
                    });
                }
            }
        }
    }
    cells
}

fn shard_path(ctx: &Ctx, s: usize) -> PathBuf {
    ctx.work.join(format!("results-{s}.store"))
}

/// The shard reports of the synthetic campaign (shard `s` owns the
/// cells whose index is `s - 1` modulo [`SHARDS`]).
fn shard_reports(cells: &[CellResult]) -> Vec<ShardReport> {
    (1..=SHARDS)
        .map(|s| ShardReport {
            spec_name: "perfbench-results-query".into(),
            spec_digest: "synthetic".into(),
            total_cells: cells.len(),
            shard_index: s,
            shard_count: SHARDS,
            cells: cells
                .iter()
                .filter(|c| c.cell % SHARDS == s - 1)
                .cloned()
                .collect(),
        })
        .collect()
}

/// Writes the synthetic campaign as [`SHARDS`] store files.
fn write_stores(ctx: &Ctx, t: &mut Tracer) -> Result<Vec<CellResult>, Error> {
    let cells = synthetic_cells(ctx);
    for shard in shard_reports(&cells) {
        let path = shard_path(ctx, shard.shard_index);
        let header = StoreHeader {
            spec_name: shard.spec_name.clone(),
            spec_digest: shard.spec_digest.clone(),
            total_cells: shard.total_cells,
            shard_index: shard.shard_index,
            shard_count: shard.shard_count,
            columns: schema_names(),
        };
        let mut writer = TracedWriter::create(&path, &header, t)?;
        for cell in &shard.cells {
            writer.append(cell, t)?;
        }
        writer.finish(t)?;
        t.count(
            "store.bytes_written",
            std::fs::metadata(&path)?.len() as f64,
        );
    }
    Ok(cells)
}

/// Reads every shard store and merges them.
fn read_and_merge(ctx: &Ctx, t: &mut Tracer) -> Result<SweepReport, Error> {
    let mut shards = Vec::with_capacity(SHARDS);
    for s in 1..=SHARDS {
        let path = shard_path(ctx, s);
        let salvage = t.span("store.read", 0, |_| read_store(&path))?;
        t.count("store.rows_read", salvage.cells.len() as f64);
        t.count("store.bytes_read", salvage.valid_bytes as f64);
        shards.push(salvage.to_shard_report());
    }
    let merged = t.span("campaign.merge", 0, |_| merge_shards(&shards))?;
    t.count("campaign.merge_rows", merged.cells.len() as f64);
    Ok(merged)
}

/// Runs query `q` of the mix as operation `op`.
fn query(q: usize, op: u64, cells: &[CellResult], t: &mut Tracer) -> Result<QueryOutput, Error> {
    let out = t.span("op.query", op, |t| {
        t.span("store.query", op, |_| run_query(QUERIES[q], cells))
    })?;
    t.count("store.queries", 1.0);
    t.count("store.query_rows_out", out.rows.len() as f64);
    Ok(out)
}

/// What one pass saw: merge wall, per-query walls and the answers.
struct Pass {
    merge_s: f64,
    query_s: Vec<f64>,
    merged: SweepReport,
    answers: Vec<QueryOutput>,
}

fn pass(ctx: &Ctx, t: &mut Tracer) -> Result<Pass, Error> {
    let start = Instant::now();
    let merged = read_and_merge(ctx, t)?;
    let merge_s = start.elapsed().as_secs_f64();
    let mut query_s = Vec::with_capacity(QUERIES.len());
    let mut answers = Vec::with_capacity(QUERIES.len());
    for q in 0..QUERIES.len() {
        let start = Instant::now();
        answers.push(query(q, q as u64, &merged.cells, t)?);
        query_s.push(start.elapsed().as_secs_f64());
    }
    Ok(Pass {
        merge_s,
        query_s,
        merged,
        answers,
    })
}

fn remove_stores(ctx: &Ctx) -> Result<(), Error> {
    for s in 1..=SHARDS {
        std::fs::remove_file(shard_path(ctx, s))?;
    }
    Ok(())
}

/// The JSON-path oracle: the same shards as pretty-printed JSON
/// reports, parsed back and merged, must equal the store merge, and
/// every query must answer the same over both.
fn check_json_path(cells: &[CellResult], first: &Pass, checks: &mut Checks) -> Result<(), Error> {
    let mut json_shards = Vec::with_capacity(SHARDS);
    for shard in shard_reports(cells) {
        let text = serde_json::to_string_pretty(&shard)?;
        json_shards.push(serde_json::from_str::<ShardReport>(&text)?);
    }
    let json_merged = merge_shards(&json_shards)?;
    checks.expect(
        serde_json::to_string_pretty(&json_merged)? == serde_json::to_string_pretty(&first.merged)?,
        || "the store merge differs from the JSON-path merge".into(),
    );
    for (q, answer) in first.answers.iter().enumerate() {
        let json_answer = run_query(QUERIES[q], &json_merged.cells)?;
        checks.expect(&json_answer == answer, || {
            format!("query {q} answers differently over the JSON path")
        });
    }
    Ok(())
}

/// The untraced run: timed read+merge passes, each followed by the
/// query mix.
///
/// # Errors
///
/// Store, merge and query errors.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, Error> {
    let (cells, setup_s) = timed_setup(|| write_stores(ctx, &mut Tracer::off()))?;
    let min = MIN_QUERY_SAMPLES.div_ceil(QUERIES.len());
    let runs = passes(
        ctx,
        min,
        || pass(ctx, &mut Tracer::off()),
        |p| (p.merge_s, p.query_s.clone()),
        |a, b| a.merged == b.merged && a.answers == b.answers,
    )?;
    remove_stores(ctx)?;

    let mut checks = Checks::default();
    runs.check_repeatable(&mut checks);
    let first = &runs.first;
    checks.expect(first.merged.cells.len() == cells.len(), || {
        format!(
            "merged {} of {} rows",
            first.merged.cells.len(),
            cells.len()
        )
    });
    check_json_path(&cells, first, &mut checks)?;

    let rows = cells.len() as f64;
    let rates: Vec<f64> = runs.samples.iter().map(|(_, (m, _))| rows / m).collect();
    let op_ms: Vec<f64> = runs
        .samples
        .iter()
        .flat_map(|(_, (_, q))| q.iter().map(|s| s * 1e3))
        .collect();
    Ok(Outcome {
        attempted: (rates.len() + op_ms.len()) as u64,
        checks,
        metrics: runs.end_to_end(setup_s, &rates, &op_ms),
        pass_walls: runs.walls(),
        detail: vec![
            ("passes".into(), rates.len() as f64),
            ("op_samples".into(), op_ms.len() as f64),
            ("rows".into(), rows),
        ],
        tracer: None,
    })
}

/// The fixed work of a traced run: set-up, then read+merge and the
/// query mix until [`TRACED_QUERIES`] queries ran. Also returns
/// whether every repeated query answered as its first run did.
fn fixed_work(ctx: &Ctx, t: &mut Tracer) -> Result<(Vec<CellResult>, Pass, bool), Error> {
    let cells = write_stores(ctx, t)?;
    let first = pass(ctx, t)?;
    let rounds = match ctx.scale {
        Scale::Full => TRACED_QUERIES.div_ceil(QUERIES.len()),
        Scale::Small => 2,
    };
    let mut repeatable = true;
    for round in 1..rounds {
        for q in 0..QUERIES.len() {
            let answer = query(
                q,
                (round * QUERIES.len() + q) as u64,
                &first.merged.cells,
                t,
            )?;
            repeatable &= answer == first.answers[q];
        }
    }
    Ok((cells, first, repeatable))
}

/// The traced run: the fixed work once untraced as reference, then
/// again with spans around every store and query call.
///
/// # Errors
///
/// Store, merge and query errors.
pub fn traced(ctx: &Ctx) -> Result<Outcome, Error> {
    let start = Instant::now();
    let (_, reference, _) = fixed_work(ctx, &mut Tracer::off())?;
    let untraced_wall = start.elapsed().as_secs_f64();

    let mut t = Tracer::on();
    let start = Instant::now();
    let (cells, traced, repeatable) = fixed_work(ctx, &mut t)?;
    let wall = start.elapsed().as_secs_f64();
    remove_stores(ctx)?;

    let mut checks = Checks::default();
    checks.expect(
        traced.merged == reference.merged && traced.answers == reference.answers,
        || "the traced run merged or answered differently from the untraced one".into(),
    );
    checks.expect(repeatable, || {
        "a repeated query answered differently".into()
    });
    check_json_path(&cells, &traced, &mut checks)?;
    let queries = t.counts().get("store.queries").copied().unwrap_or(0.0);
    Ok(Outcome {
        attempted: 1 + queries as u64,
        checks,
        metrics: layer_metrics(&t, wall, untraced_wall),
        detail: vec![("rows".into(), cells.len() as f64)],
        tracer: Some(t),
        pass_walls: Vec::new(),
    })
}
