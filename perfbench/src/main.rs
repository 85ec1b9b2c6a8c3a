//! The helios benchmark runner.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_grid|resilient_store|results_query|large_run> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record-expected
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics for `--trace 0` and the per-layer
//! metrics for `--trace 1`. The full result, with the host fingerprint,
//! goes to `.perfbench/results/`; a traced run also writes its spans
//! there. `--record-expected` regenerates `perfbench/expected/seed0.json`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use helios_perfbench::host::{json_str, Fingerprint};
use helios_perfbench::workloads::{self, large_run, paper_grid, resilient_store};
use helios_perfbench::{Ctx, Error, Metric, Outcome, Scale};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: helios-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       \
         helios-perfbench --record-expected",
        workloads::NAMES.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = match std::env::current_dir() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("helios-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if argv == ["--record-expected"] {
        return finish(record_expected(&root));
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("helios-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    finish(run(&root, &args))
}

fn finish(result: Result<(), Error>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("helios-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A private scratch directory under `.perfbench/`, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<WorkDir, Error> {
        let dir = root
            .join(".perfbench")
            .join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(root: &Path, args: &Args) -> Result<(), Error> {
    let work = WorkDir::create(root)?;
    let ctx = Ctx {
        root: root.to_path_buf(),
        work: work.0.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
    };
    let fingerprint = Fingerprint::collect(root, &work.0, args.seed);
    let outcome = if args.trace {
        workloads::traced(&args.workload, &ctx)?
    } else {
        workloads::untraced(&args.workload, &ctx)?
    };
    for note in &outcome.checks.notes {
        eprintln!("check failed: {note}");
    }

    let results = root.join(".perfbench").join("results");
    std::fs::create_dir_all(&results)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(tracer) = &outcome.tracer {
        tracer.write_spans(&results.join(format!("{stem}.spans.jsonl")))?;
    }
    let file = result_file(args, &fingerprint, &outcome);
    std::fs::write(results.join(format!("{stem}.json")), file)?;
    println!("{}", result_line(&outcome));
    Ok(())
}

fn metrics_json(metrics: &[Metric]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// A JSON number with every digit Rust prints for the `f64` (shortest
/// round-trip form); non-finite values, which JSON cannot carry, as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.checks.failed == 0,
        outcome.attempted,
        outcome.checks.failed,
        metrics_json(&outcome.metrics)
    )
}

fn result_file(args: &Args, fingerprint: &Fingerprint, outcome: &Outcome) -> String {
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), number(*v)))
        .collect();
    let notes: Vec<String> = outcome.checks.notes.iter().map(|n| json_str(n)).collect();
    let walls: Vec<String> = outcome.pass_walls.iter().map(|w| number(*w)).collect();
    let error_rate = outcome.checks.failed as f64 / outcome.attempted.max(1) as f64;
    format!(
        "{{\n  \"workload\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \"host\": {{{}}},\n  \
         \"error_rate\": {},\n  \"detail\": {{{}}},\n  \"pass_walls_s\": [{}],\n  \"failed_checks\": [{}],\n  \"result\": {}\n}}\n",
        json_str(&args.workload),
        args.trace,
        number(args.seconds),
        fingerprint.json_members(),
        number(error_rate),
        detail.join(", "),
        walls.join(", "),
        notes.join(", "),
        result_line(outcome)
    )
}

/// Regenerates the expected outputs for the default seed.
fn record_expected(root: &Path) -> Result<(), Error> {
    let work = WorkDir::create(root)?;
    let ctx = Ctx {
        root: root.to_path_buf(),
        work: work.0.clone(),
        seed: 0,
        seconds: 0.0,
        scale: Scale::Full,
    };
    let makespans: Vec<String> = large_run::record(&ctx)?.into_iter().map(number).collect();
    let text = format!(
        "{{\n  \"paper_grid_report_fnv\": {},\n  \"resilient_store_report_fnv\": {},\n  \
         \"large_run_makespans\": [\n    {}\n  ]\n}}\n",
        json_str(&paper_grid::record(&ctx)?),
        json_str(&resilient_store::record(&ctx)?),
        makespans.join(",\n    ")
    );
    let path = root.join("perfbench/expected/seed0.json");
    std::fs::write(&path, text)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
