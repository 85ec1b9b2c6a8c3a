//! Tests of the static-plan executor (split out of `engine.rs` so the
//! path source holds only the hook implementation).

use super::*;
use crate::resilience::{RecoveryPolicy, ResilienceConfig};
use helios_platform::presets;
use helios_sched::HeftScheduler;
use helios_sim::trace::TraceKind;
use helios_sim::SimDuration;
use helios_workflow::generators::{cybershake, montage};

#[test]
fn ideal_execution_reproduces_the_plan() {
    let p = presets::hpc_node();
    let wf = montage(60, 1).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let report = Engine::default().execute_plan(&p, &wf, &plan).unwrap();
    // Insertion-based plans may interleave; the realized makespan can
    // only match or beat the plan (no non-idealities configured).
    let planned = plan.makespan().as_secs();
    let realized = report.makespan().as_secs();
    assert!(
        (realized - planned).abs() / planned < 1e-9,
        "realized {realized} vs planned {planned}"
    );
    report.schedule().validate(&wf, &p).unwrap();
    assert_eq!(report.failures(), 0);
    assert!(report.transfers().count > 0);
    assert!(report.energy().total_j() > 0.0);
}

#[test]
fn noise_perturbs_but_preserves_validity_of_precedence() {
    let p = presets::hpc_node();
    let wf = montage(60, 2).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let config = EngineConfig {
        noise_cv: 0.3,
        seed: 42,
        ..Default::default()
    };
    let report = Engine::new(config).execute_plan(&p, &wf, &plan).unwrap();
    // All tasks completed with coherent event ordering.
    assert_eq!(report.schedule().placements().len(), wf.num_tasks());
    let realized = report.makespan().as_secs();
    let planned = plan.makespan().as_secs();
    assert!(
        (realized - planned).abs() / planned > 1e-6,
        "noise must actually perturb timing"
    );
    // Precedence holds on realized times (durations differ from
    // model, so only check arrival ordering).
    for pl in report.schedule().placements() {
        for &e in wf.predecessors(pl.task) {
            let edge = wf.edge(e);
            let pred = report.schedule().placement(edge.src).unwrap();
            assert!(pred.finish <= pl.start + SimDuration::from_secs(1e-9));
        }
    }
}

#[test]
fn determinism_per_seed() {
    let p = presets::hpc_node();
    let wf = montage(50, 3).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let mut config = EngineConfig {
        noise_cv: 0.2,
        seed: 7,
        ..Default::default()
    };
    let a = Engine::new(config.clone())
        .execute_plan(&p, &wf, &plan)
        .unwrap();
    let b = Engine::new(config.clone())
        .execute_plan(&p, &wf, &plan)
        .unwrap();
    assert_eq!(a, b);
    config.seed = 8;
    let c = Engine::new(config).execute_plan(&p, &wf, &plan).unwrap();
    assert_ne!(a, c);
}

#[test]
fn contention_never_speeds_things_up() {
    let p = presets::hpc_node();
    let wf = cybershake(80, 1).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let free = Engine::default().execute_plan(&p, &wf, &plan).unwrap();
    let config = EngineConfig {
        link_contention: true,
        ..Default::default()
    };
    let contended = Engine::new(config).execute_plan(&p, &wf, &plan).unwrap();
    assert!(
        contended.makespan().as_secs() >= free.makespan().as_secs() - 1e-9,
        "contention {} vs free {}",
        contended.makespan(),
        free.makespan()
    );
}

#[test]
fn faults_extend_makespan_and_count() {
    let p = presets::hpc_node();
    let wf = montage(60, 4).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let clean = Engine::default().execute_plan(&p, &wf, &plan).unwrap();
    let config = EngineConfig {
        seed: 5,
        resilience: Some(ResilienceConfig::flat_retry(0.01, 0.002, 1_000)),
        ..Default::default()
    };
    let faulty = Engine::new(config).execute_plan(&p, &wf, &plan).unwrap();
    assert!(faulty.failures() > 0, "MTBF 10ms must trigger failures");
    assert_eq!(faulty.failures(), faulty.retries());
    assert!(faulty.makespan() > clean.makespan());
}

#[test]
fn checkpointing_reduces_fault_overhead() {
    let p = presets::hpc_node();
    let wf = cybershake(60, 5).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let base = EngineConfig {
        seed: 11,
        resilience: Some(ResilienceConfig::flat_retry(0.05, 0.002, 100_000)),
        ..Default::default()
    };
    let without = Engine::new(base.clone())
        .execute_plan(&p, &wf, &plan)
        .unwrap();
    let mut with = base;
    with.resilience.as_mut().unwrap().policy = RecoveryPolicy::CheckpointRestart {
        interval_secs: 0.01,
        overhead_secs: 0.0005,
        max_retries: 100_000,
    };
    let ckpt = Engine::new(with).execute_plan(&p, &wf, &plan).unwrap();
    assert!(
        ckpt.makespan() < without.makespan(),
        "checkpointing {} should beat restart-from-scratch {}",
        ckpt.makespan(),
        without.makespan()
    );
}

#[test]
fn retry_budget_enforced() {
    let p = presets::hpc_node();
    let wf = cybershake(60, 6).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    // MTBF far below task lengths and zero retries: must abort.
    let config = EngineConfig {
        seed: 13,
        resilience: Some(ResilienceConfig::flat_retry(0.01, 0.0, 0)),
        ..Default::default()
    };
    let err = Engine::new(config)
        .execute_plan(&p, &wf, &plan)
        .unwrap_err();
    assert!(matches!(err, EngineError::RetriesExhausted { .. }));
}

#[test]
fn tracing_records_executions_and_transfers() {
    let p = presets::hpc_node();
    let wf = montage(40, 6).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let config = EngineConfig {
        tracing: true,
        ..Default::default()
    };
    let report = Engine::new(config).execute_plan(&p, &wf, &plan).unwrap();
    let trace = report.trace().expect("tracing was requested");
    let execs = trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::Execution)
        .count();
    assert_eq!(execs, wf.num_tasks());
    let xfers = trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::Transfer)
        .count();
    assert_eq!(xfers, report.transfers().count);
    let json = report.chrome_trace(&p).unwrap();
    assert!(serde_json::from_str::<serde_json::Value>(&json).is_ok());
    // Without tracing: no trace in the report.
    let plain = Engine::default().execute_plan(&p, &wf, &plan).unwrap();
    assert!(plain.trace().is_none());
    assert!(plain.chrome_trace(&p).is_none());
}

#[test]
fn caching_reduces_transfers_and_never_hurts() {
    // CyberShake: two root products fan out to every synthesis task,
    // so per-device caching collapses most root transfers.
    let p = presets::hpc_node();
    let wf = cybershake(120, 3).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let plain = Engine::default().execute_plan(&p, &wf, &plan).unwrap();
    let config = EngineConfig {
        data_caching: true,
        ..Default::default()
    };
    let cached = Engine::new(config).execute_plan(&p, &wf, &plan).unwrap();
    assert!(
        cached.transfers().count < plain.transfers().count,
        "caching {} vs plain {} transfers",
        cached.transfers().count,
        plain.transfers().count
    );
    assert!(
        cached.makespan().as_secs() <= plain.makespan().as_secs() + 1e-9,
        "caching must never slow a run down"
    );
    assert_eq!(
        cached.schedule().placements().len(),
        wf.num_tasks(),
        "all tasks still complete"
    );
}

#[test]
fn caching_matters_most_under_contention() {
    let p = presets::hpc_node();
    let wf = cybershake(120, 4).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
    let base = EngineConfig {
        link_contention: true,
        ..Default::default()
    };
    let congested = Engine::new(base.clone())
        .execute_plan(&p, &wf, &plan)
        .unwrap();
    let mut cached_cfg = base;
    cached_cfg.data_caching = true;
    let cached = Engine::new(cached_cfg)
        .execute_plan(&p, &wf, &plan)
        .unwrap();
    assert!(
        cached.makespan() < congested.makespan(),
        "under contention, eliminating duplicate transfers must pay: {} vs {}",
        cached.makespan(),
        congested.makespan()
    );
}
