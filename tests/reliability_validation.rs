//! Cross-validation: the analytic schedule-reliability model must match
//! the empirical fault-free completion rate of the engine's Poisson
//! fault injection.
//!
//! With `max_retries = 0` a single fault aborts the run, so the
//! fraction of successful runs over many seeds estimates exactly the
//! probability the closed form predicts:
//! `R = exp(−Σ duration / MTBF)`.

use helios::core::{Engine, EngineConfig, EngineError, ResilienceConfig};
use helios::platform::presets;
use helios::sched::reliability::{schedule_reliability, uniform_rates};
use helios::sched::{HeftScheduler, Scheduler};
use helios::workflow::generators::montage;

#[test]
fn analytic_reliability_matches_monte_carlo() {
    let platform = presets::hpc_node();
    let wf = montage(60, 7).unwrap();
    let plan = HeftScheduler::default().schedule(&wf, &platform).unwrap();

    // Pick an MTBF that lands the prediction mid-range, where the test
    // has discriminating power.
    let busy: f64 = plan
        .placements()
        .iter()
        .map(|p| p.duration().as_secs())
        .sum();
    let mtbf = busy / f64::ln(2.0); // predicted R = 0.5
    let rates = uniform_rates(&platform, mtbf).unwrap();
    let predicted = schedule_reliability(&plan, &platform, &rates).unwrap();
    assert!(
        (predicted - 0.5).abs() < 1e-9,
        "by construction: {predicted}"
    );

    let runs = 400u64;
    let mut successes = 0u32;
    for seed in 0..runs {
        let config = EngineConfig {
            seed,
            resilience: Some(ResilienceConfig::flat_retry(mtbf, 0.0, 0)),
            ..Default::default()
        };
        match Engine::new(config).execute_plan(&platform, &wf, &plan) {
            Ok(_) => successes += 1,
            Err(EngineError::RetriesExhausted { .. }) => {}
            Err(e) => panic!("unexpected failure mode: {e}"),
        }
    }
    let observed = f64::from(successes) / runs as f64;
    // Binomial std dev at p=0.5, n=400 is 0.025; allow 4 sigma.
    assert!(
        (observed - predicted).abs() < 0.1,
        "Monte Carlo {observed} vs analytic {predicted}"
    );
}

#[test]
fn reliability_aware_plans_survive_more_often() {
    use helios::sched::reliability::ReliabilityAwareHeft;
    let platform = presets::hpc_node();

    // The accelerators are flaky; CPUs are solid. Analytic rates drive
    // the planner; the engine injects a uniform-MTBF approximation per
    // run would not discriminate, so we compare analytically here and
    // rely on `analytic_reliability_matches_monte_carlo` to anchor the
    // analytic model to the engine.
    let mut rates = vec![1e-9; platform.num_devices()];
    for rate in &mut rates[2..6] {
        *rate = 0.5; // GPUs: MTBF 2 s
    }
    let mut heft_rel = 0.0;
    let mut rel_rel = 0.0;
    for seed in 0..6 {
        let wf = montage(80, seed).unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &platform).unwrap();
        let relplan = ReliabilityAwareHeft::new(0.3, rates.clone())
            .schedule(&wf, &platform)
            .unwrap();
        heft_rel += schedule_reliability(&heft, &platform, &rates).unwrap();
        rel_rel += schedule_reliability(&relplan, &platform, &rates).unwrap();
    }
    assert!(
        rel_rel > heft_rel,
        "reliability-aware {rel_rel} must beat HEFT {heft_rel} on flaky GPUs"
    );
}
