//! Cross-path conformance: the hook-composed core with every feature
//! hook off must be byte-identical to the plain `Engine` path, over
//! random DAGs × presets × schedulers. This is the structural guarantee
//! the evaluation leans on — "mode off" and "mode absent" are the same
//! machine.

use proptest::prelude::*;

use helios_platform::{presets, Platform};
use helios_sched::{HeftScheduler, MinMinScheduler, Scheduler};
use helios_workflow::generators;
use helios_workflow::Workflow;

use crate::config::EngineConfig;
use crate::engine::Engine;

fn workflow(family: usize, n: usize, seed: u64) -> Workflow {
    match family {
        0 => generators::montage(n, seed),
        1 => generators::cybershake(n, seed),
        2 => generators::epigenomics(n, seed),
        3 => generators::ligo_inspiral(n, seed),
        _ => generators::sipht(n, seed),
    }
    .expect("generator accepts these sizes")
}

fn platform(preset: usize) -> Platform {
    match preset {
        0 => presets::workstation(),
        1 => presets::hpc_node(),
        2 => presets::cluster(2),
        _ => presets::edge_soc(),
    }
}

/// An [`EngineConfig`] with every feature hook explicitly present but
/// disabled: zero noise, contention/caching/tracing off, no
/// resilience, and a step budget too large to ever fire. Running the
/// core with these hooks engaged must be indistinguishable from the
/// default (hook-absent) configuration.
fn all_hooks_off(seed: u64) -> EngineConfig {
    EngineConfig {
        noise_cv: 0.0,
        seed,
        link_contention: false,
        data_caching: false,
        device_slowdown: None,
        tracing: false,
        resilience: None,
        elasticity: None,
        step_budget: Some(u64::MAX),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAG × preset × scheduler: the all-hooks-off composition
    /// (budget hook armed but unreachable, every other feature zeroed)
    /// is byte-identical to the plain default `Engine`.
    #[test]
    fn hooks_off_matches_plain_engine(
        family in 0usize..5,
        n in 20usize..60,
        wf_seed in 0u64..1_000,
        preset in 0usize..4,
        minmin: bool,
        engine_seed in 0u64..1_000,
    ) {
        let p = platform(preset);
        let wf = workflow(family, n, wf_seed);
        let plan = if minmin {
            MinMinScheduler::default().schedule(&wf, &p).unwrap()
        } else {
            HeftScheduler::default().schedule(&wf, &p).unwrap()
        };
        let plain_cfg = EngineConfig { seed: engine_seed, ..Default::default() };
        let plain = Engine::new(plain_cfg).execute_plan(&p, &wf, &plan).unwrap();
        let composed = Engine::new(all_hooks_off(engine_seed))
            .execute_plan(&p, &wf, &plan)
            .unwrap();
        prop_assert_eq!(plain, composed);
    }
}

#[cfg(test)]
mod pinned {
    use super::*;

    /// The seed-pinned sanity anchor for the property above: one cell
    /// per scheduler family, exact equality (not tolerance).
    #[test]
    fn hooks_off_identity_pinned_cell() {
        let p = presets::hpc_node();
        let wf = workflow(0, 50, 9);
        let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let plain = Engine::default().execute_plan(&p, &wf, &plan).unwrap();
        let composed = Engine::new(all_hooks_off(0))
            .execute_plan(&p, &wf, &plan)
            .unwrap();
        assert_eq!(plain, composed);
    }
}
