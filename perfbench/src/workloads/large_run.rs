//! `large_run`: the exec core at scale. Set-up generates the 5
//! scientific families at 20,000 tasks each. A pass plans each family
//! once on `hpc_node` with round-robin and executes the plan through
//! `Engine::execute_plan` (link contention and caching on, noise 0.1)
//! under 16 noise seeds: 80 executions, no SLR, as `helios run` does.

use std::time::Instant;

use helios_core::{Engine, EngineConfig};
use helios_platform::{presets, Platform};
use helios_sched::scheduler_by_name;
use helios_workflow::generators::WorkflowClass;
use helios_workflow::Workflow;

use super::passes;
use crate::span::{layer_metrics, plan_span, Tracer};
use crate::{expected, timed_setup, Checks, Ctx, Error, Outcome, Scale};

const SCHEDULER: &str = "round-robin";

fn sizes(ctx: &Ctx) -> (usize, u64) {
    match ctx.scale {
        Scale::Full => (20_000, 16),
        Scale::Small => (1_000, 2),
    }
}

/// The workflows of every family, seeded by the run's seed.
fn generate(ctx: &Ctx, t: &mut Tracer) -> Result<Vec<Workflow>, Error> {
    let (tasks, _) = sizes(ctx);
    let mut out = Vec::new();
    for (i, class) in WorkflowClass::ALL.into_iter().enumerate() {
        let seed = ctx.seed_shift() + i as u64;
        let wf = t.span("workflow.generate", i as u64, |_| {
            class.generate(tasks, seed)
        })?;
        t.count("workflow.generate_calls", 1.0);
        t.count("workflow.tasks", wf.num_tasks() as f64);
        out.push(wf);
    }
    Ok(out)
}

/// One pass: plan every family, execute each plan under every noise
/// seed. Returns each execution's wall and makespan.
fn pass(
    ctx: &Ctx,
    platform: &Platform,
    workflows: &[Workflow],
    t: &mut Tracer,
) -> Result<Vec<(f64, f64)>, Error> {
    let (_, noise_seeds) = sizes(ctx);
    let scheduler = scheduler_by_name(SCHEDULER).ok_or("round-robin is not in the lineup")?;
    let plan_name = plan_span(SCHEDULER).ok_or("round-robin has no plan span")?;
    let mut out = Vec::new();
    for (i, wf) in workflows.iter().enumerate() {
        let plan = t.span(plan_name, i as u64, |_| scheduler.schedule(wf, platform))?;
        t.count("sched.plan_calls", 1.0);
        for k in 0..noise_seeds {
            let engine = Engine::new(EngineConfig {
                seed: ctx.seed_shift() + 100 + k,
                noise_cv: 0.1,
                link_contention: true,
                data_caching: true,
                ..Default::default()
            });
            let op = out.len() as u64;
            let start = Instant::now();
            let report = t.span("op.execution", op, |t| {
                t.span("exec.execute", op, |_| {
                    engine.execute_plan(platform, wf, &plan)
                })
            })?;
            out.push((start.elapsed().as_secs_f64(), report.makespan().as_secs()));
            t.count("exec.executions", 1.0);
            t.count("exec.sim_tasks", wf.num_tasks() as f64);
            t.count("exec.transfers", report.transfers().count as f64);
            t.count("exec.transfer_bytes", report.transfers().bytes);
        }
    }
    Ok(out)
}

fn same_makespans(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn makespans(execs: &[(f64, f64)]) -> Vec<f64> {
    execs.iter().map(|(_, m)| *m).collect()
}

/// The untraced run: timed passes of plans plus executions.
///
/// # Errors
///
/// Generation, planning and execution errors.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, Error> {
    let (workflows, setup_s) = timed_setup(|| generate(ctx, &mut Tracer::off()))?;
    let platform = presets::hpc_node();
    let runs = passes(
        ctx,
        3,
        || pass(ctx, &platform, &workflows, &mut Tracer::off()),
        |execs| execs.iter().map(|(w, _)| *w).collect::<Vec<f64>>(),
        |a, b| same_makespans(&makespans(a), &makespans(b)),
    )?;

    let mut checks = Checks::default();
    runs.check_repeatable(&mut checks);
    let first = makespans(&runs.first);
    checks.expect(first.iter().all(|m| m.is_finite() && *m > 0.0), || {
        "an execution reported a non-positive makespan".into()
    });
    if ctx.seed == 0 && ctx.scale == Scale::Full {
        let want: Vec<f64> = expected(ctx, "large_run_makespans")?
            .as_array()
            .map(|a| a.iter().filter_map(serde_json::Value::as_f64).collect())
            .unwrap_or_default();
        checks.expect(same_makespans(&first, &want), || {
            "makespans differ from the recorded values".into()
        });
    }

    let (tasks_per_pass, _) = sizes(ctx);
    let sim_tasks = (tasks_per_pass * first.len()) as f64;
    let rates: Vec<f64> = runs.samples.iter().map(|(w, _)| sim_tasks / w).collect();
    let op_ms: Vec<f64> = runs
        .samples
        .iter()
        .flat_map(|(_, walls)| walls.iter().map(|w| w * 1e3))
        .collect();
    Ok(Outcome {
        attempted: op_ms.len() as u64,
        checks,
        metrics: runs.end_to_end(setup_s, &rates, &op_ms),
        pass_walls: runs.walls(),
        detail: vec![
            ("passes".into(), rates.len() as f64),
            ("op_samples".into(), op_ms.len() as f64),
            ("executions_per_pass".into(), first.len() as f64),
            ("sim_tasks_per_pass".into(), sim_tasks),
        ],
        tracer: None,
    })
}

/// The traced run: set-up and one pass untraced as reference, then
/// again with spans around generation, planning and every execution.
///
/// # Errors
///
/// Generation, planning and execution errors.
pub fn traced(ctx: &Ctx) -> Result<Outcome, Error> {
    let platform = presets::hpc_node();
    let start = Instant::now();
    let workflows = generate(ctx, &mut Tracer::off())?;
    let reference = makespans(&pass(ctx, &platform, &workflows, &mut Tracer::off())?);
    let untraced_wall = start.elapsed().as_secs_f64();
    drop(workflows);

    let mut t = Tracer::on();
    let start = Instant::now();
    let workflows = generate(ctx, &mut t)?;
    let traced = makespans(&pass(ctx, &platform, &workflows, &mut t)?);
    let wall = start.elapsed().as_secs_f64();

    let mut checks = Checks::default();
    checks.expect(same_makespans(&traced, &reference), || {
        "traced makespans differ from the untraced run's".into()
    });
    Ok(Outcome {
        attempted: traced.len() as u64,
        checks,
        metrics: layer_metrics(&t, wall, untraced_wall),
        detail: vec![("executions".into(), traced.len() as f64)],
        tracer: Some(t),
        pass_walls: Vec::new(),
    })
}

/// The makespans the expected-output file records for seed 0.
///
/// # Errors
///
/// Generation, planning and execution errors.
pub fn record(ctx: &Ctx) -> Result<Vec<f64>, Error> {
    let workflows = generate(ctx, &mut Tracer::off())?;
    Ok(makespans(&pass(
        ctx,
        &presets::hpc_node(),
        &workflows,
        &mut Tracer::off(),
    )?))
}
