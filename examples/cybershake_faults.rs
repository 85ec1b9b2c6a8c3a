//! Fault-tolerant execution of a CyberShake seismic-hazard workflow.
//!
//! Injects Poisson device failures at several MTBF settings and shows how
//! checkpoint/restart contains the damage compared to restarting failed
//! tasks from scratch.
//!
//! ```sh
//! cargo run --release --example cybershake_faults
//! ```

use helios::core::{Engine, EngineConfig, RecoveryPolicy, ResilienceConfig};
use helios::platform::presets;
use helios::sched::{HeftScheduler, Scheduler};
use helios::workflow::generators::cybershake;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = presets::hpc_node();
    let wf = cybershake(200, 3)?;
    let plan = HeftScheduler::default().schedule(&wf, &platform)?;

    let clean = Engine::new(EngineConfig::default()).execute_plan(&platform, &wf, &plan)?;
    println!(
        "workflow: {wf}\nfault-free makespan: {:.4}s\n",
        clean.makespan().as_secs()
    );
    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>10}",
        "MTBF (s)", "checkpoint", "makespan", "overhead", "failures"
    );

    for mtbf in [0.5, 0.1, 0.05] {
        for ckpt in [false, true] {
            let mut resilience = ResilienceConfig::flat_retry(mtbf, 0.005, 1_000_000);
            if ckpt {
                resilience.policy = RecoveryPolicy::CheckpointRestart {
                    interval_secs: 0.01,
                    overhead_secs: 0.0005,
                    max_retries: 1_000_000,
                };
            }
            let config = EngineConfig {
                seed: 99,
                resilience: Some(resilience),
                ..Default::default()
            };
            let report = Engine::new(config).execute_plan(&platform, &wf, &plan)?;
            let overhead = report.makespan().as_secs() / clean.makespan().as_secs() - 1.0;
            println!(
                "{mtbf:>10} {:>12} {:>11.4}s {:>9.1}% {:>10}",
                if ckpt { "yes" } else { "no" },
                report.makespan().as_secs(),
                overhead * 100.0,
                report.failures()
            );
        }
    }

    println!(
        "\nAs MTBF approaches task granularity, restart-from-scratch overhead \
         explodes while checkpointing pays only the lost tail of each attempt."
    );
    Ok(())
}
