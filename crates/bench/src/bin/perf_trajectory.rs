//! The pinned perf trajectory: emits `BENCH_<PR>.json` with the four
//! series every PR must keep honest (ROADMAP item 2).
//!
//! * `paper_grid_cells_per_sec` — grid cells executed per second,
//!   sweeping `examples/specs/paper_grid.json` (5 families × 4
//!   platforms × 12 schedulers × 5 seeds = 1200 cells of 100 tasks,
//!   link contention + data caching on) through the sequential
//!   `SweepDriver`. This is the end-to-end number: generation,
//!   planning and the exec-core step loop together.
//! * `paper_grid_journal_cells_per_sec` — the same grid driven through
//!   the cell store with per-cell commit (`SweepDriver::run_store`,
//!   `Commit::PerCell`, what `--journal` runs), so the durability tax —
//!   two fsync'd appends per cell — is a pinned number next to the
//!   store-free baseline instead of folklore.
//! * `merge_rows_per_sec` — shard-merge throughput over the columnar
//!   cell store: a 100k-row synthetic sweep split into 4 shard
//!   segments, read back and recombined by `merge_shards`. The JSON
//!   path (4 pretty-printed `ShardReport` files through serde) is
//!   timed next to it, so the store-vs-JSON gap is a pinned number.
//! * `synthetic_dag_steps_per_sec` — simulated events processed per
//!   second executing a 10⁵-task layered DAG through
//!   `Engine::execute_plan` (one Finish per task, one Arrival per
//!   edge), planning excluded. This isolates the `exec::drive` hot
//!   path the arena/batching work targets.
//!
//! Usage: `perf_trajectory [--smoke] [--out PATH]`
//!
//! `--smoke` shrinks both series (a 1/40 shard of the grid, one
//! iteration of a 10⁴-task DAG) so CI can verify the harness and the
//! JSON shape in seconds; committed trajectory files must come from a
//! full run. The JSON is stable-keyed so `BENCH_*.json` files diff
//! cleanly across PRs.

use std::time::Instant;

use helios_bench::TRAJECTORY_PR as PR;
use helios_core::campaign::{CampaignSpec, ShardSpec, SweepDriver};
use helios_core::{Engine, EngineConfig};
use helios_platform::presets;
use helios_sched::{RoundRobinScheduler, Scheduler};
use helios_workflow::generators::synthetic::{layered_random, LayeredConfig};

struct SeriesOut {
    name: &'static str,
    unit: &'static str,
    value: f64,
    detail: Vec<(&'static str, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{PR}.json"));
    if let Err(e) = run(smoke, &out_path) {
        eprintln!("perf_trajectory failed: {e}");
        std::process::exit(1);
    }
}

fn run(smoke: bool, out_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let grid = bench_paper_grid(smoke)?;
    let journal = bench_paper_grid_journal(smoke)?;
    let merge = bench_merge_rows(smoke)?;
    let dag = bench_synthetic_dag(smoke)?;
    let json = render(smoke, &[grid, journal, merge, dag]);
    std::fs::write(out_path, &json)?;
    eprintln!("wrote {out_path}");
    Ok(())
}

/// Cells/sec sweeping the committed paper grid spec (sequential, so the
/// number measures the exec core and not the `--jobs` fan-out).
fn bench_paper_grid(smoke: bool) -> Result<SeriesOut, Box<dyn std::error::Error>> {
    let spec_path = spec_path("examples/specs/paper_grid.json");
    let spec = CampaignSpec::from_json(&std::fs::read_to_string(&spec_path)?)?;
    let shard = if smoke {
        // 30 of 1200 cells: enough to touch every family and platform.
        ShardSpec::new(1, 40)?
    } else {
        ShardSpec::full()
    };
    let driver = SweepDriver::new(1);
    let start = Instant::now();
    let report = driver.run_shard(&spec, shard)?;
    let wall = start.elapsed().as_secs_f64();
    let cells = report.cells.len() as f64;
    Ok(SeriesOut {
        name: "paper_grid_cells_per_sec",
        unit: "cells/sec",
        value: cells / wall,
        detail: vec![("cells", cells), ("wall_secs", wall)],
    })
}

/// Cells/sec for the same grid slice through the cell store with
/// per-cell commit: identical execution plus two fsync'd record appends
/// per cell (an attempt record and a one-row group). The gap between
/// this and `paper_grid_cells_per_sec` is the durability overhead.
fn bench_paper_grid_journal(smoke: bool) -> Result<SeriesOut, Box<dyn std::error::Error>> {
    use helios_core::{Commit, StoreOptions};

    let spec_path = spec_path("examples/specs/paper_grid.json");
    let spec = CampaignSpec::from_json(&std::fs::read_to_string(&spec_path)?)?;
    let shard = if smoke {
        ShardSpec::new(1, 40)?
    } else {
        ShardSpec::full()
    };
    let store_path =
        std::env::temp_dir().join(format!("helios-bench-journal-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&store_path);
    let driver = SweepDriver::new(1);
    let opts = StoreOptions {
        commit: Commit::PerCell,
        ..StoreOptions::default()
    };
    let start = Instant::now();
    let run = driver.run_store(&spec, shard, &store_path, &opts)?;
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_file(&store_path);
    let cells = run.report.cells.len() as f64;
    Ok(SeriesOut {
        name: "paper_grid_journal_cells_per_sec",
        unit: "cells/sec",
        value: cells / wall,
        detail: vec![("cells", cells), ("wall_secs", wall)],
    })
}

/// Merge rows/sec over the columnar store: a synthetic sweep split into
/// 4 shard segment files, read back (salvage + checksum verification)
/// and recombined by `merge_shards`. The same shards as pretty-printed
/// JSON `ShardReport`s are timed next to it so the committed file pins
/// both sides of the store-vs-JSON comparison.
fn bench_merge_rows(smoke: bool) -> Result<SeriesOut, Box<dyn std::error::Error>> {
    use helios_core::store::{schema_names, StoreHeader, StoreWriter};
    use helios_core::{merge_shards, read_store, CellResult, ShardReport};

    let rows: usize = if smoke { 4_000 } else { 100_000 };
    let shard_count = 4usize;
    let dir = std::env::temp_dir().join(format!("helios-bench-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // A deterministic synthetic population: varied groups, ~1/7 lost
    // cells, repeating-binary float fractions.
    let cell = |i: usize| -> CellResult {
        let completed = i % 7 != 3;
        CellResult {
            cell: i,
            family: ["montage", "ligo", "sipht", "cybershake"][i % 4].to_owned(),
            platform: ["workstation", "hpc_node"][(i / 4) % 2].to_owned(),
            scheduler: ["heft", "olb", "mct"][(i / 8) % 3].to_owned(),
            seed: i as u64,
            makespan_secs: if completed { i as f64 / 7.0 } else { 0.0 },
            slr: i as f64 / 3.0,
            energy_j: i as f64 * 1.5,
            transfers: i % 100,
            transfer_bytes: i as f64 * 3e4,
            failures: (i % 5) as u32,
            retries: (i % 3) as u32,
            completed,
            wasted_work_secs: 0.0,
            recovery_overhead_secs: 0.0,
            makespan_degradation: 0.0,
            reroutes: 0,
            partition_downtime_secs: 0.0,
            rematerialized_tasks: 0,
            rematerialized_bytes: 0.0,
            incomplete_reason: (!completed).then(|| "retries_exhausted".to_owned()),
            capacity_secs: 0.0,
            preemptions: 0,
            drain_migrated_tasks: 0,
            join_utilization: 0.0,
        }
    };

    let mut store_bytes = 0u64;
    let mut json_bytes = 0u64;
    for s in 1..=shard_count {
        let shard_cells: Vec<CellResult> = (0..rows)
            .filter(|i| i % shard_count == s - 1)
            .map(cell)
            .collect();
        let header = StoreHeader {
            spec_name: "merge-bench".into(),
            spec_digest: "synthetic".into(),
            total_cells: rows,
            shard_index: s,
            shard_count,
            columns: schema_names(),
        };
        let path = dir.join(format!("s{s}.store"));
        let mut writer = StoreWriter::create(&path, &header)?;
        for c in &shard_cells {
            writer.append_cell(c)?;
        }
        writer.flush()?;
        store_bytes += std::fs::metadata(&path)?.len();
        let report = ShardReport {
            spec_name: "merge-bench".into(),
            spec_digest: "synthetic".into(),
            total_cells: rows,
            shard_index: s,
            shard_count,
            cells: shard_cells,
        };
        let jpath = dir.join(format!("s{s}.json"));
        std::fs::write(&jpath, serde_json::to_string_pretty(&report)?)?;
        json_bytes += std::fs::metadata(&jpath)?.len();
    }

    let start = Instant::now();
    let mut store_shards = Vec::with_capacity(shard_count);
    for s in 1..=shard_count {
        store_shards.push(read_store(&dir.join(format!("s{s}.store")))?.to_shard_report());
    }
    let store_merged = merge_shards(&store_shards)?;
    let store_wall = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut json_shards = Vec::with_capacity(shard_count);
    for s in 1..=shard_count {
        let text = std::fs::read_to_string(dir.join(format!("s{s}.json")))?;
        json_shards.push(serde_json::from_str::<ShardReport>(&text)?);
    }
    let json_merged = merge_shards(&json_shards)?;
    let json_wall = start.elapsed().as_secs_f64();

    assert_eq!(
        store_merged, json_merged,
        "store and JSON merge paths must agree"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(SeriesOut {
        name: "merge_rows_per_sec",
        unit: "rows/sec",
        value: rows as f64 / store_wall,
        detail: vec![
            ("rows", rows as f64),
            ("store_wall_secs", store_wall),
            ("json_wall_secs", json_wall),
            ("store_bytes", store_bytes as f64),
            ("json_bytes", json_bytes as f64),
        ],
    })
}

/// Steps/sec of `exec::drive` on a huge synthetic DAG: the engine
/// processes exactly one Finish event per task and one Arrival event
/// per edge, so events/wall-clock is the step-loop throughput.
fn bench_synthetic_dag(smoke: bool) -> Result<SeriesOut, Box<dyn std::error::Error>> {
    let (levels, width, iters) = if smoke {
        (50, 200, 1) // 10^4 tasks: shape check only.
    } else {
        (250, 400, 3) // 10^5 tasks, best-of-3.
    };
    let wf = layered_random(
        &LayeredConfig {
            levels,
            width,
            edge_prob: 0.004,
            // Small working sets so every task fits every device: the
            // series measures the step loop, not feasibility pruning.
            mean_gflop: 1.0,
            mean_bytes: 1e6,
            ..LayeredConfig::default()
        },
        42,
    )?;
    let platform = presets::hpc_node();
    // Round-robin keeps planning O(n): the series measures execution.
    let plan = RoundRobinScheduler::default().schedule(&wf, &platform)?;
    let engine = Engine::new(EngineConfig {
        link_contention: true,
        data_caching: true,
        ..Default::default()
    });
    let events = (wf.num_tasks() + wf.num_edges()) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let report = engine.execute_plan(&platform, &wf, &plan)?;
        let wall = start.elapsed().as_secs_f64();
        assert!(report.makespan().as_secs() > 0.0);
        best = best.min(wall);
    }
    Ok(SeriesOut {
        name: "synthetic_dag_steps_per_sec",
        unit: "steps/sec",
        value: events / best,
        detail: vec![
            ("tasks", wf.num_tasks() as f64),
            ("events", events),
            ("wall_secs", best),
        ],
    })
}

/// Locates a repo-relative path from either the repo root or a crate dir.
fn spec_path(rel: &str) -> std::path::PathBuf {
    let direct = std::path::PathBuf::from(rel);
    if direct.exists() {
        return direct;
    }
    // Fall back to CARGO_MANIFEST_DIR/../.. (crates/bench → repo root).
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    p
}

/// Hand-rendered stable-keyed JSON (two decimal places on rates keeps
/// run-to-run jitter out of diffs while pinning the magnitude).
fn render(smoke: bool, series: &[SeriesOut]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"pr\": {PR},\n"));
    s.push_str(&format!("  \"smoke\": {smoke},\n"));
    s.push_str("  \"series\": [\n");
    for (i, sr) in series.iter().enumerate() {
        s.push_str("    {\n");
        s.push_str(&format!("      \"name\": \"{}\",\n", sr.name));
        s.push_str(&format!("      \"unit\": \"{}\",\n", sr.unit));
        s.push_str(&format!("      \"value\": {:.2},\n", sr.value));
        for (j, (k, v)) in sr.detail.iter().enumerate() {
            let comma = if j + 1 == sr.detail.len() { "" } else { "," };
            // Counts render as integers, timings keep microsecond detail.
            if v.fract() == 0.0 && *v < 1e15 {
                s.push_str(&format!("      \"{k}\": {}{comma}\n", *v as u64));
            } else {
                s.push_str(&format!("      \"{k}\": {v:.6}{comma}\n"));
            }
        }
        s.push_str(if i + 1 == series.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}
