//! The public-call replica of a sweep cell.
//!
//! [`run_cell`] does what `SweepDriver` does for one cell — generate
//! the workflow, plan it, execute the plan, compute the SLR — but
//! through the layers' public entry points, each inside a span, so the
//! traced run can attribute a cell's time to layers. It reproduces the
//! driver's `CellResult` bit for bit for every spec [`check_spec`]
//! accepts; the benchmark's tests and every traced run assert that.

use helios_core::campaign::spec::family_class;
use helios_core::{
    CampaignSpec, CellResult, DvfsKnob, Engine, EngineConfig, EngineError, IncompleteReason,
    ResilientRunner, SweepCell,
};
use helios_platform::presets;
use helios_sched::scheduler_by_name;

use crate::span::{plan_span, Tracer};

/// Refuses specs whose cells the replica cannot reproduce: per-scheduler
/// tuning, DVFS knobs, legacy fault injection and elasticity all take
/// crate-private paths inside the sweep driver.
///
/// # Errors
///
/// [`EngineError::Config`] naming the unsupported knob.
pub fn check_spec(spec: &CampaignSpec) -> Result<(), EngineError> {
    let unsupported = if spec.scheduler_params.is_some() {
        Some("scheduler_params")
    } else if spec.dvfs != DvfsKnob::Nominal {
        Some("dvfs")
    } else if spec.faults.is_some() {
        Some("faults")
    } else if spec.elasticity.is_some() {
        Some("elasticity")
    } else {
        None
    };
    match unsupported {
        Some(knob) => Err(EngineError::Config(format!(
            "the public-call replica cannot reproduce specs with {knob:?}"
        ))),
        None => Ok(()),
    }
}

/// Runs one cell of `spec` through the public layer calls, recording a
/// span per call (and an `op.cell` parent) in `t`.
///
/// # Errors
///
/// The errors the sweep driver would surface for the same cell.
pub fn run_cell(
    spec: &CampaignSpec,
    cell: &SweepCell,
    t: &mut Tracer,
) -> Result<CellResult, EngineError> {
    let op = cell.index as u64;
    t.span("op.cell", op, |t| cell_body(spec, cell, op, t))
}

fn cell_body(
    spec: &CampaignSpec,
    cell: &SweepCell,
    op: u64,
    t: &mut Tracer,
) -> Result<CellResult, EngineError> {
    let platform = presets::by_name(&cell.platform)
        .ok_or_else(|| EngineError::Config(format!("unknown platform {:?}", cell.platform)))?;
    let class = family_class(&cell.family)
        .ok_or_else(|| EngineError::Config(format!("unknown family {:?}", cell.family)))?;
    let scheduler = scheduler_by_name(&cell.scheduler)
        .ok_or_else(|| EngineError::Config(format!("unknown scheduler {:?}", cell.scheduler)))?;
    let plan_name = plan_span(&cell.scheduler)
        .ok_or_else(|| EngineError::Config(format!("unknown scheduler {:?}", cell.scheduler)))?;

    let wf = t.span("workflow.generate", op, |_| {
        class.generate(spec.tasks, cell.seed)
    })?;
    t.count("workflow.generate_calls", 1.0);
    t.count("workflow.tasks", wf.num_tasks() as f64);

    let config = EngineConfig {
        seed: cell.seed,
        noise_cv: spec.noise_cv,
        link_contention: spec.link_contention,
        data_caching: spec.data_caching,
        resilience: spec.resilience_config()?,
        step_budget: spec.cell_step_budget,
        ..Default::default()
    };
    let resilient = config.resilience.is_some();
    let mut result = blank_result(cell);

    let plan = t.span(plan_name, op, |_| scheduler.schedule(&wf, &platform));
    t.count("sched.plan_calls", 1.0);
    let outcome = match plan {
        Err(e) => Err(EngineError::from(e)),
        Ok(plan) if resilient => t.span("resilience.execute", op, |_| {
            ResilientRunner::new(config).execute_plan(&platform, &wf, &plan)
        }),
        Ok(plan) => {
            let report = t.span("exec.execute", op, |_| {
                Engine::new(config).execute_plan(&platform, &wf, &plan)
            });
            t.count("exec.executions", 1.0);
            t.count("exec.sim_tasks", wf.num_tasks() as f64);
            report
        }
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => match IncompleteReason::from_error(&e) {
            Some(reason) => {
                let counter = if reason == IncompleteReason::Infeasible {
                    "sched.plan_infeasible"
                } else {
                    "resilience.incomplete"
                };
                t.count(counter, 1.0);
                result.completed = false;
                result.incomplete_reason = Some(reason.as_str().to_owned());
                return Ok(result);
            }
            None => return Err(e),
        },
    };

    result.makespan_secs = report.makespan().as_secs();
    result.slr = t.span("metrics.slr", op, |_| report.slr(&wf, &platform))?;
    t.count("metrics.slr_calls", 1.0);
    result.energy_j = report.energy().total_j();
    result.transfers = report.transfers().count;
    result.transfer_bytes = report.transfers().bytes;
    result.failures = report.failures();
    result.retries = report.retries();
    if resilient {
        t.count("resilience.failures", f64::from(report.failures()));
        t.count("resilience.retries", f64::from(report.retries()));
    } else {
        t.count("exec.transfers", report.transfers().count as f64);
        t.count("exec.transfer_bytes", report.transfers().bytes);
    }
    if let Some(m) = report.resilience() {
        result.wasted_work_secs = m.wasted_work_secs;
        result.recovery_overhead_secs = m.recovery_overhead_secs;
        result.makespan_degradation = m.makespan_degradation;
        result.reroutes = m.reroutes;
        result.partition_downtime_secs = m.partition_downtime_secs;
        result.rematerialized_tasks = m.rematerialized_tasks;
        result.rematerialized_bytes = m.rematerialized_bytes;
    }
    Ok(result)
}

/// A zero-metric result carrying only the cell's coordinates.
fn blank_result(cell: &SweepCell) -> CellResult {
    CellResult {
        cell: cell.index,
        family: cell.family.clone(),
        platform: cell.platform.clone(),
        scheduler: cell.scheduler.clone(),
        seed: cell.seed,
        makespan_secs: 0.0,
        slr: 0.0,
        energy_j: 0.0,
        transfers: 0,
        transfer_bytes: 0.0,
        failures: 0,
        retries: 0,
        completed: true,
        wasted_work_secs: 0.0,
        recovery_overhead_secs: 0.0,
        makespan_degradation: 0.0,
        reroutes: 0,
        partition_downtime_secs: 0.0,
        rematerialized_tasks: 0,
        rematerialized_bytes: 0.0,
        incomplete_reason: None,
        capacity_secs: 0.0,
        preemptions: 0,
        drain_migrated_tasks: 0,
        join_utilization: 0.0,
    }
}

/// Whether two cell lists are identical bit for bit: same cells, and
/// every float with the same bit pattern.
#[must_use]
pub fn same_cells(a: &[CellResult], b: &[CellResult]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x == y
                && [
                    (x.makespan_secs, y.makespan_secs),
                    (x.slr, y.slr),
                    (x.energy_j, y.energy_j),
                    (x.transfer_bytes, y.transfer_bytes),
                    (x.wasted_work_secs, y.wasted_work_secs),
                    (x.recovery_overhead_secs, y.recovery_overhead_secs),
                    (x.makespan_degradation, y.makespan_degradation),
                    (x.partition_downtime_secs, y.partition_downtime_secs),
                    (x.rematerialized_bytes, y.rematerialized_bytes),
                    (x.capacity_secs, y.capacity_secs),
                    (x.join_utilization, y.join_utilization),
                ]
                .iter()
                .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}
