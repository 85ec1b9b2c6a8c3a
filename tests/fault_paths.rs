//! Resilience battery: fault paths through every runner and policy.
//!
//! Seeded fault injection must exercise all recovery paths: transient
//! failures that retry to completion, retry budgets that exhaust into
//! [`EngineError::RetriesExhausted`], byte-identical reports for
//! identical seeds under every recovery policy, exactly-once replica
//! cancellation, checkpoint frequency reducing wasted work, typed
//! whole-platform loss, and the monotonicity guarantee that a faulty
//! run can never finish earlier than its fault-free twin.

use helios_core::{
    merge_shards, CampaignSpec, Engine, EngineConfig, EngineError, FailureDomain, FailureModel,
    LinkFaultModel, OnlinePolicy, OnlineRunner, RecoveryPolicy, ResilienceConfig, ResilientRunner,
    ShardSpec, SweepDriver,
};
use helios_platform::presets;
use helios_platform::{DeviceBuilder, DeviceKind, InterconnectBuilder, Platform, PlatformBuilder};
use helios_sched::HeftScheduler;
use helios_workflow::generators::montage;
use helios_workflow::Workflow;

fn config(mtbf_secs: f64, max_retries: u32, seed: u64) -> EngineConfig {
    EngineConfig {
        seed,
        noise_cv: 0.05,
        resilience: Some(ResilienceConfig::flat_retry(mtbf_secs, 0.001, max_retries)),
        ..EngineConfig::default()
    }
}

fn resilient_config(seed: u64, failures: FailureModel, policy: RecoveryPolicy) -> EngineConfig {
    EngineConfig {
        seed,
        noise_cv: 0.1,
        resilience: Some(ResilienceConfig::new(failures, policy)),
        ..EngineConfig::default()
    }
}

/// One representative instance of each of the four recovery policies.
fn all_policies() -> Vec<RecoveryPolicy> {
    vec![
        RecoveryPolicy::RetryBackoff {
            base_secs: 0.001,
            factor: 2.0,
            cap_secs: 0.01,
            max_retries: 10_000,
        },
        RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 10_000,
        },
        RecoveryPolicy::CheckpointRestart {
            interval_secs: 0.005,
            overhead_secs: 0.0002,
            max_retries: 10_000,
        },
        RecoveryPolicy::Reschedule {
            scheduler: "heft".into(),
            overhead_secs: 0.001,
            max_retries: 10_000,
        },
    ]
}

#[test]
fn transient_faults_retry_to_completion() {
    let platform = presets::workstation();
    let wf = montage(40, 11).expect("montage");
    for policy in [OnlinePolicy::Jit, OnlinePolicy::RankedJit] {
        let clean = OnlineRunner::new(
            EngineConfig {
                seed: 3,
                noise_cv: 0.05,
                ..EngineConfig::default()
            },
            policy,
        )
        .run(&platform, &wf)
        .expect("fault-free run");
        assert_eq!(
            clean.failures(),
            0,
            "{}: no faults configured",
            policy.as_str()
        );
        assert_eq!(
            clean.retries(),
            0,
            "{}: no faults configured",
            policy.as_str()
        );

        // A tight-but-survivable MTBF with a deep retry budget: the run
        // must complete, having actually hit (and recovered from)
        // failures along the way. (Preset workflows have millisecond
        // makespans, so the MTBF must sit in the same decade to bite.)
        let report = OnlineRunner::new(config(0.02, 10_000, 3), policy)
            .run(&platform, &wf)
            .expect("faulty run survives with a deep retry budget");
        assert!(
            report.failures() > 0,
            "{}: a 20 ms MTBF must inject failures",
            policy.as_str()
        );
        assert!(
            report.retries() > 0,
            "{}: every recovered failure is a retry",
            policy.as_str()
        );
        assert!(
            report.makespan() > clean.makespan(),
            "{}: rework and restart overhead must cost wall-clock time",
            policy.as_str()
        );
    }
}

#[test]
fn exhausted_retry_budget_is_a_typed_error() {
    let platform = presets::workstation();
    let wf = montage(40, 11).expect("montage");
    // An MTBF far below any task duration makes every attempt fail with
    // near certainty; with a tiny budget the run must abort.
    let err = OnlineRunner::new(config(0.005, 2, 3), OnlinePolicy::Jit)
        .run(&platform, &wf)
        .expect_err("2 retries cannot survive a 5 ms MTBF");
    match err {
        EngineError::RetriesExhausted { attempts, .. } => {
            assert_eq!(attempts, 3, "budget of 2 retries = 3 attempts");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    let platform = presets::workstation();
    let wf = montage(40, 11).expect("montage");
    let run = |seed: u64| {
        OnlineRunner::new(config(0.02, 10_000, seed), OnlinePolicy::RankedJit)
            .run(&platform, &wf)
            .expect("faulty run")
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a, b, "identical seeds must give bit-identical reports");
    assert!(a.failures() > 0, "the fault process must actually fire");
    assert_eq!(a.failures(), b.failures());
    assert_eq!(a.retries(), b.retries());

    let c = run(10);
    assert_ne!(
        a, c,
        "a different seed must draw a different fault/noise process"
    );
}

#[test]
fn every_policy_is_byte_identical_per_seed() {
    let platform = presets::hpc_node();
    let wf = montage(50, 2).expect("montage");
    let sched = HeftScheduler::default();
    for policy in all_policies() {
        let mut fm = FailureModel::exponential(0.005);
        fm.degraded_prob = 0.1;
        fm.degraded_slowdown = 3.0;
        fm.degraded_repair_secs = 0.005;
        fm.restart_overhead_secs = 0.0005;
        let run = |seed: u64| {
            ResilientRunner::new(resilient_config(seed, fm.clone(), policy.clone()))
                .run(&platform, &wf, &sched)
                .expect("resilient run completes")
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "{}: identical seeds must serialize byte-identically",
            policy.name()
        );
        let m = a.resilience().expect("resilience metrics attached");
        assert!(
            m.transient_failures + m.degraded_failures > 0,
            "{}: the failure process must actually fire",
            policy.name()
        );
        let c = run(8);
        assert_ne!(
            a,
            c,
            "{}: a different seed must realize different failures",
            policy.name()
        );
    }
}

#[test]
fn replicate_k_cancels_losers_exactly_once() {
    let platform = presets::hpc_node();
    let wf = montage(50, 2).expect("montage");
    let cfg = resilient_config(
        5,
        FailureModel::exponential(0.05),
        RecoveryPolicy::ReplicateK {
            replicas: 3,
            max_retries: 10_000,
        },
    );
    let report = ResilientRunner::new(cfg)
        .run(&platform, &wf, &HeftScheduler::default())
        .expect("replicated run completes");
    let m = report.resilience().expect("metrics");
    assert!(m.replicas_cancelled > 0, "losers must be cancelled");
    // Exactly-once accounting: every launched copy either wins its task
    // or is cancelled exactly once — never both, never twice.
    assert_eq!(
        m.replicas_launched,
        wf.num_tasks() as u32 + m.replicas_cancelled,
        "launched = winners + cancelled (exactly-once cancellation)"
    );
}

#[test]
fn checkpoint_frequency_reduces_wasted_work() {
    let platform = presets::workstation();
    let wf = montage(40, 7).expect("montage");
    let sched = HeftScheduler::default();

    // Scale checkpoint intervals to the workload: take the mean planned
    // task duration so intervals straddle it (several snapshots per
    // attempt at the short end, none at the long end).
    let plan = helios_sched::Scheduler::schedule(&sched, &wf, &platform).expect("plan");
    let mean_task_secs = plan
        .placements()
        .iter()
        .map(|p| p.duration().as_secs())
        .sum::<f64>()
        / plan.placements().len() as f64;
    let intervals = [
        0.25 * mean_task_secs,
        1.0 * mean_task_secs,
        4.0 * mean_task_secs,
    ];

    let mean_wasted = |interval_secs: f64| -> f64 {
        let seeds = 0..8u64;
        let total: f64 = seeds
            .map(|seed| {
                let cfg = resilient_config(
                    seed,
                    FailureModel::exponential(0.01),
                    RecoveryPolicy::CheckpointRestart {
                        interval_secs,
                        overhead_secs: 0.02 * mean_task_secs,
                        max_retries: 10_000,
                    },
                );
                ResilientRunner::new(cfg)
                    .execute_plan(&platform, &wf, &plan)
                    .expect("checkpointed run completes")
                    .resilience()
                    .expect("metrics")
                    .wasted_work_secs
            })
            .sum();
        total / 8.0
    };

    let wasted: Vec<f64> = intervals.iter().map(|&i| mean_wasted(i)).collect();
    assert!(
        wasted[0] <= wasted[1] && wasted[1] <= wasted[2],
        "mean wasted work must be monotone non-increasing in checkpoint \
         frequency: {wasted:?} for intervals {intervals:?}"
    );
    assert!(
        wasted[0] < wasted[2],
        "frequent checkpoints must strictly beat rare ones on average: {wasted:?}"
    );
}

/// A platform with exactly one CPU and no links.
fn single_device_platform() -> Platform {
    let mut b = PlatformBuilder::new("solo");
    b.add_device(
        DeviceBuilder::new("cpu0", DeviceKind::Cpu)
            .build()
            .expect("device parameters are valid"),
    );
    b.interconnect(InterconnectBuilder::new().build());
    b.build().expect("single-device platform is valid")
}

#[test]
fn permanent_loss_of_the_only_device_is_a_typed_error() {
    let platform = single_device_platform();
    let wf = montage(12, 5).expect("montage");
    let mut fm = FailureModel::exponential(0.002);
    fm.permanent_prob = 1.0;
    for policy in all_policies() {
        // ReplicateK clamps to the feasible-device count, so it
        // degenerates to a single copy here — the loss path is the same.
        let cfg = resilient_config(3, fm.clone(), policy.clone());
        let err = ResilientRunner::new(cfg)
            .run(&platform, &wf, &HeftScheduler::default())
            .expect_err("losing the only device cannot complete");
        match err {
            EngineError::AllDevicesLost {
                completed, total, ..
            } => {
                assert!(
                    completed < total,
                    "{}: some tasks must be left unfinished",
                    policy.name()
                );
            }
            other => panic!("{}: expected AllDevicesLost, got {other:?}", policy.name()),
        }
    }
}

/// Satellite regression: charging retry time (and backoff delay) to the
/// device timeline means a fault-injected run can never finish earlier
/// than the fault-free run of the same seed.
#[test]
fn faulty_runs_never_finish_earlier_than_fault_free() {
    let platform = presets::workstation();
    let wf = montage(40, 11).expect("montage");
    let sched = HeftScheduler::default();

    for seed in 0..6u64 {
        // Static engine, legacy flat-retry fault model.
        let clean = Engine::new(EngineConfig {
            seed,
            noise_cv: 0.05,
            ..EngineConfig::default()
        })
        .run(&platform, &wf, &sched)
        .expect("clean engine run");
        let faulty = Engine::new(config(0.02, 10_000, seed))
            .run(&platform, &wf, &sched)
            .expect("faulty engine run");
        assert!(
            faulty.makespan() >= clean.makespan(),
            "seed {seed}: static plan — faults cost {} vs clean {}",
            faulty.makespan(),
            clean.makespan()
        );

        // ResilientRunner: degradation vs its own fault-free baseline is
        // non-negative for transient/degraded failure domains.
        for policy in all_policies() {
            let mut fm = FailureModel::exponential(0.02);
            fm.degraded_prob = 0.2;
            fm.degraded_slowdown = 2.0;
            fm.degraded_repair_secs = 0.02;
            let report = ResilientRunner::new(resilient_config(seed, fm, policy.clone()))
                .run(&platform, &wf, &sched)
                .expect("resilient run completes");
            let m = report.resilience().expect("metrics");
            assert!(
                m.makespan_degradation >= 0.0,
                "seed {seed} {}: faults can only delay completion, got {}",
                policy.name(),
                m.makespan_degradation
            );
        }
    }
}

/// A rack-style correlated failure domain over two GPUs and the NVLink
/// mesh of `hpc_node`, striking often enough to bite a millisecond-scale
/// makespan.
fn rack_domain() -> FailureDomain {
    FailureDomain {
        kind: "rack".into(),
        name: "rack0".into(),
        devices: vec!["gpu0".into(), "gpu1".into()],
        links: vec!["nvlink".into()],
        mttf_secs: 0.002,
        weibull_shape: None,
        degraded_prob: 0.3,
        permanent_prob: 0.0,
        outage_secs: 0.005,
    }
}

/// Monotonicity holds per fault class, not just in aggregate: link-only
/// faults, correlated domain strikes and device-only failures must each
/// fire (their own counters prove it) and must each only ever delay
/// completion relative to the fault-free twin.
#[test]
fn every_fault_class_fires_and_never_beats_fault_free() {
    let platform = presets::hpc_node();
    let wf = montage(50, 2).expect("montage");
    let sched = HeftScheduler::default();
    // An astronomically long device MTTF isolates the other classes.
    let never = 1.0e12;

    let classes: [(&str, ResilienceConfig); 3] = [
        (
            "link-only",
            ResilienceConfig::new(
                FailureModel::exponential(never),
                RecoveryPolicy::RetryBackoff {
                    base_secs: 0.001,
                    factor: 2.0,
                    cap_secs: 0.01,
                    max_retries: 10_000,
                },
            )
            .with_link_faults(LinkFaultModel::exponential(0.02)),
        ),
        (
            "correlated",
            ResilienceConfig::new(
                FailureModel::exponential(never),
                RecoveryPolicy::RetryBackoff {
                    base_secs: 0.001,
                    factor: 2.0,
                    cap_secs: 0.01,
                    max_retries: 10_000,
                },
            )
            .with_domains(vec![rack_domain()]),
        ),
        (
            "device-only",
            ResilienceConfig::new(
                FailureModel::exponential(0.02),
                RecoveryPolicy::RetryBackoff {
                    base_secs: 0.001,
                    factor: 2.0,
                    cap_secs: 0.01,
                    max_retries: 10_000,
                },
            ),
        ),
    ];

    for (class, res) in classes {
        let mut fired = 0u32;
        for seed in 0..6u64 {
            let cfg = EngineConfig {
                seed,
                noise_cv: 0.1,
                resilience: Some(res.clone()),
                ..EngineConfig::default()
            };
            let report = ResilientRunner::new(cfg)
                .run(&platform, &wf, &sched)
                .expect("faulty run completes");
            let m = report.resilience().expect("metrics");
            assert!(
                m.makespan_degradation >= 0.0,
                "{class} seed {seed}: faults can only delay completion, got {}",
                m.makespan_degradation
            );
            match class {
                "link-only" => {
                    fired += m.link_faults;
                    assert_eq!(
                        m.transient_failures + m.degraded_failures + m.permanent_failures,
                        0,
                        "{class} seed {seed}: device failures must stay off"
                    );
                }
                // Domain strikes abort member work through the same
                // transient/degraded counters; only the event count
                // proves the *correlated* process fired.
                "correlated" => fired += m.domain_events,
                _ => fired += m.transient_failures + m.degraded_failures,
            }
        }
        assert!(fired > 0, "{class}: the fault process must actually fire");
    }
}

/// A three-class fault sweep spec (device failures + link faults +
/// a correlated rack domain) over the workstation preset.
fn fault_sweep_spec(base_seed: u64) -> CampaignSpec {
    CampaignSpec::from_json(&format!(
        r#"{{
            "name": "fault-paths",
            "families": ["montage"],
            "platforms": ["workstation"],
            "schedulers": ["heft"],
            "seeds": {{"base": {base_seed}, "count": 4}},
            "tasks": 30,
            "noise_cv": 0.1,
            "resilience": {{
                "mttf_secs": 0.02,
                "degraded_prob": 0.1,
                "degraded_repair_secs": 0.01,
                "restart_overhead_secs": 0.0005,
                "policy": {{"kind": "retry-backoff", "base_secs": 0.0005,
                            "factor": 2.0, "cap_secs": 0.005,
                            "max_retries": 10000}}
            }},
            "interconnect_faults": {{
                "distribution": "exponential",
                "mttf_secs": 0.02,
                "degraded_prob": 0.3,
                "outage_secs": 0.005
            }},
            "failure_domains": [{{
                "kind": "rack", "name": "r0",
                "devices": ["cpu1", "gpu0"], "links": ["pcie3-x16"],
                "mttf_secs": 0.02, "degraded_prob": 0.5,
                "outage_secs": 0.005
            }}]
        }}"#
    ))
    .expect("fault sweep spec parses")
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// The full fault stack — device failures, link faults, correlated
    /// domain strikes — stays byte-identical per seed for every worker
    /// count and shard partition of the sweep grid.
    #[test]
    fn fault_sweeps_are_jobs_and_shard_invariant(base_seed in 0u64..1000) {
        let spec = fault_sweep_spec(base_seed);
        let reference = SweepDriver::new(1).run(&spec).expect("sequential sweep");
        let reference_json = serde_json::to_string(&reference).expect("serialize");

        let par = SweepDriver::new(4).run(&spec).expect("parallel sweep");
        proptest::prop_assert_eq!(
            &reference_json,
            &serde_json::to_string(&par).expect("serialize"),
            "--jobs must not change fault realizations"
        );

        for count in [2usize, 4] {
            let shards: Vec<_> = (1..=count)
                .map(|k| {
                    SweepDriver::new(2)
                        .run_shard(&spec, ShardSpec::new(k, count).expect("shard"))
                        .expect("shard sweep")
                })
                .collect();
            let merged = merge_shards(&shards).expect("merge");
            proptest::prop_assert_eq!(
                &reference_json,
                &serde_json::to_string(&merged).expect("serialize"),
                "a {}-way shard partition must merge byte-identically",
                count
            );
        }

        // The spec's fault processes must actually bite somewhere in the
        // grid, or the invariance above is vacuous.
        proptest::prop_assert!(
            reference
                .cells
                .iter()
                .any(|c| c.failures > 0 || c.reroutes > 0 || c.partition_downtime_secs > 0.0),
            "no fault fired anywhere in the sweep grid"
        );
    }
}

/// The fault process is part of the workload description, not ambient
/// randomness: the same resilient configuration must reproduce exactly
/// when the workflow is re-executed from a fresh `Workflow` value.
#[test]
fn resilient_reports_survive_workflow_reconstruction() {
    let platform = presets::hpc_node();
    let sched = HeftScheduler::default();
    let run = |wf: &Workflow| {
        ResilientRunner::new(resilient_config(
            11,
            FailureModel::weibull(0.04, 1.5),
            RecoveryPolicy::RetryBackoff {
                base_secs: 0.001,
                factor: 2.0,
                cap_secs: 0.01,
                max_retries: 10_000,
            },
        ))
        .run(&platform, wf, &sched)
        .expect("resilient run completes")
    };
    let a = run(&montage(50, 2).expect("montage"));
    let b = run(&montage(50, 2).expect("montage"));
    assert_eq!(a, b, "reports must not depend on Workflow identity");
}
