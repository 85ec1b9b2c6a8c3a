//! Engine configuration.

use helios_sim::SimDuration;

use crate::elastic::ElasticityConfig;
use crate::error::EngineError;
use crate::resilience::{RecoveryPolicy, ResilienceConfig};

/// Complete engine configuration.
///
/// The default is the *ideal* execution: no noise, no faults, no link
/// contention — under it, executing a plan reproduces the plan's timing
/// exactly (a property the test suite pins down).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Coefficient of variation of actual vs. modeled task duration
    /// (log-free multiplicative noise, clamped at 5% of the model).
    pub noise_cv: f64,
    /// Seed for all stochastic behaviour (noise, faults).
    pub seed: u64,
    /// Serialize transfers crossing the same link (FIFO per link)
    /// instead of letting them overlap freely.
    pub link_contention: bool,
    /// Cache data products at destination devices: when several
    /// consumers of one output run on the same device, only the first
    /// pays the transfer (the workflow-data-staging optimization of
    /// production workflow managers).
    pub data_caching: bool,
    /// Per-device runtime slowdown factors (thermal throttling,
    /// co-tenant interference), indexed by device id; a factor of 2.0
    /// makes every task on that device take twice its modeled time.
    /// Planners and dispatchers do not see these — only execution does.
    pub device_slowdown: Option<Vec<f64>>,
    /// Record an execution trace (task spans + transfer spans) in the
    /// report, exportable to Chrome trace JSON.
    pub tracing: bool,
    /// Failure model plus recovery policy, if any. The
    /// [`ResilientRunner`](crate::ResilientRunner) supports every
    /// policy; [`Engine`](crate::Engine),
    /// [`OnlineRunner`](crate::OnlineRunner) and
    /// [`EnsembleRunner`](crate::EnsembleRunner) accept the subset that
    /// maps onto their per-attempt occupancy model: exponential
    /// transient-only failures under retry-backoff (flat retry is
    /// [`ResilienceConfig::flat_retry`]) or checkpoint-restart.
    pub resilience: Option<ResilienceConfig>,
    /// Elastic capacity plan: timed join/drain/preempt/leave events
    /// plus stochastic spot churn
    /// ([`ElasticityConfig`](crate::ElasticityConfig)). Requires the
    /// [`ResilientRunner`](crate::ResilientRunner) — departures are
    /// recovered through the same machinery as permanent faults, so
    /// the other executors reject this knob.
    pub elasticity: Option<ElasticityConfig>,
    /// Watchdog budget on simulated events processed by the
    /// [`ResilientRunner`](crate::ResilientRunner) event loop (per run,
    /// so per campaign cell). Exceeding it aborts the run with
    /// [`EngineError::StepBudgetExceeded`] instead of grinding a
    /// pathological fault configuration forever; `None` disables the
    /// watchdog.
    pub step_budget: Option<u64>,
}

/// A [`ResilienceConfig`] resolved onto the per-attempt occupancy model
/// of the plain, online and ensemble executors.
#[derive(Debug, Clone)]
pub(crate) struct FaultView {
    /// Mean time between failures per device, seconds.
    pub mtbf_secs: f64,
    /// Fixed restart overhead paid before every retry.
    pub restart_overhead: SimDuration,
    /// `(interval, overhead)` of checkpoint-restart snapshots, if any.
    pub checkpoint: Option<(SimDuration, SimDuration)>,
    /// The recovery policy: the retry budget and the backoff before
    /// each retry.
    pub policy: RecoveryPolicy,
}

impl EngineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for a negative or non-finite
    /// noise coefficient.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !self.noise_cv.is_finite() || self.noise_cv < 0.0 {
            return Err(EngineError::Config(format!(
                "noise_cv must be non-negative, got {}",
                self.noise_cv
            )));
        }
        if let Some(slow) = &self.device_slowdown {
            for (i, &f) in slow.iter().enumerate() {
                if !(f.is_finite() && f > 0.0) {
                    return Err(EngineError::Config(format!(
                        "device_slowdown[{i}] must be positive, got {f}"
                    )));
                }
            }
        }
        if self.step_budget == Some(0) {
            return Err(EngineError::Config(
                "step_budget must be at least 1 simulated event".into(),
            ));
        }
        if let Some(res) = &self.resilience {
            res.validate()?;
        }
        if let Some(el) = &self.elasticity {
            el.validate()?;
        }
        Ok(())
    }

    /// [`validate`](EngineConfig::validate) plus the platform-dependent
    /// checks every executor runs at entry: a configured
    /// `device_slowdown` vector must name exactly one factor per device.
    /// A shorter vector used to silently un-slow the devices it missed
    /// (`v.get(device)` fell back to 1.0); now the mismatch is a typed
    /// error naming both counts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] on any validation failure.
    pub fn validate_for(&self, platform: &helios_platform::Platform) -> Result<(), EngineError> {
        self.validate()?;
        if let Some(slow) = &self.device_slowdown {
            if slow.len() != platform.num_devices() {
                return Err(EngineError::Config(format!(
                    "device_slowdown has {} factors but the platform has {} devices; \
                     list exactly one factor per device",
                    slow.len(),
                    platform.num_devices()
                )));
            }
        }
        Ok(())
    }

    /// Resolves the fault parameters the per-attempt occupancy model
    /// runs with; `None` without a [`ResilienceConfig`]. One maps onto
    /// the model only when its failure model is exponential and
    /// transient-only and its policy is retry-backoff or
    /// checkpoint-restart; richer configurations need the
    /// [`ResilientRunner`](crate::ResilientRunner). Parameter ranges are
    /// [`validate`](EngineConfig::validate)'s job.
    pub(crate) fn fault_view(&self) -> Result<Option<FaultView>, EngineError> {
        if self.elasticity.is_some() {
            return Err(EngineError::Config(
                "elastic capacity events require the ResilientRunner".into(),
            ));
        }
        let Some(res) = &self.resilience else {
            return Ok(None);
        };
        let fm = &res.failures;
        if fm.weibull_shape.is_some() || fm.degraded_prob > 0.0 || fm.permanent_prob > 0.0 {
            return Err(EngineError::Config(
                "this executor only models exponential transient-only failures; use the \
                 ResilientRunner for Weibull, degraded or permanent failure modes"
                    .into(),
            ));
        }
        if res.link_faults.is_some() || !res.domains.is_empty() {
            return Err(EngineError::Config(
                "interconnect faults and correlated failure domains require the \
                 ResilientRunner"
                    .into(),
            ));
        }
        let checkpoint = match res.policy {
            RecoveryPolicy::RetryBackoff { .. } => None,
            RecoveryPolicy::CheckpointRestart {
                interval_secs,
                overhead_secs,
                ..
            } => Some((
                SimDuration::from_secs(interval_secs),
                SimDuration::from_secs(overhead_secs),
            )),
            RecoveryPolicy::ReplicateK { .. } | RecoveryPolicy::Reschedule { .. } => {
                return Err(EngineError::Config(format!(
                    "policy {:?} requires the ResilientRunner",
                    res.policy.name()
                )))
            }
        };
        Ok(Some(FaultView {
            mtbf_secs: fm.mttf_secs,
            restart_overhead: SimDuration::from_secs(fm.restart_overhead_secs),
            checkpoint,
            policy: res.policy.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ideal() {
        let c = EngineConfig::default();
        assert_eq!(c.noise_cv, 0.0);
        assert!(c.resilience.is_none());
        assert!(!c.link_contention);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation() {
        let c = EngineConfig {
            noise_cv: -0.1,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let mut c = EngineConfig {
            device_slowdown: Some(vec![1.0, 0.0]),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.device_slowdown = Some(vec![1.0, 2.0]);
        assert!(c.validate().is_ok());
        let faulty = |mtbf_secs| EngineConfig {
            resilience: Some(ResilienceConfig::flat_retry(mtbf_secs, 0.0, 1)),
            ..Default::default()
        };
        assert!(faulty(0.0).validate().is_err());
        assert!(faulty(100.0).validate().is_ok());
    }

    #[test]
    fn slowdown_vector_must_match_the_platform_device_count() {
        // A workstation has more than two devices: a two-entry vector
        // used to silently leave the rest at full speed. Now it is a
        // typed config error naming both counts.
        let platform = helios_platform::presets::workstation();
        let c = EngineConfig {
            device_slowdown: Some(vec![1.5, 2.0]),
            ..Default::default()
        };
        assert!(c.validate().is_ok(), "length is a platform-level concern");
        let err = c.validate_for(&platform).unwrap_err().to_string();
        assert!(err.contains("2 factors"), "{err}");
        assert!(
            err.contains(&format!("{} devices", platform.num_devices())),
            "{err}"
        );
        let c = EngineConfig {
            device_slowdown: Some(vec![1.0; platform.num_devices()]),
            ..Default::default()
        };
        assert!(c.validate_for(&platform).is_ok());
        // Executors reject the mismatch at entry.
        let wf = helios_workflow::generators::synthetic::layered_random(
            &helios_workflow::generators::synthetic::LayeredConfig {
                levels: 2,
                width: 2,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        let bad = EngineConfig {
            device_slowdown: Some(vec![2.0]),
            ..Default::default()
        };
        let err = crate::Engine::new(bad)
            .run(
                &platform,
                &wf,
                &helios_sched::RoundRobinScheduler::default(),
            )
            .unwrap_err()
            .to_string();
        assert!(err.contains("1 factors"), "{err}");
    }

    #[test]
    fn fault_view_maps_compatible_policies_only() {
        use crate::resilience::FailureModel;
        // No resilience: nothing to inject.
        assert!(EngineConfig::default().fault_view().unwrap().is_none());

        // Retry-backoff maps with its policy, which supplies the backoff.
        let mk = |policy| EngineConfig {
            resilience: Some(ResilienceConfig::new(
                FailureModel::exponential(5.0),
                policy,
            )),
            ..Default::default()
        };
        let backoff = RecoveryPolicy::RetryBackoff {
            base_secs: 0.5,
            factor: 2.0,
            cap_secs: 4.0,
            max_retries: 9,
        };
        let v = mk(backoff.clone()).fault_view().unwrap().unwrap();
        assert_eq!(v.mtbf_secs, 5.0);
        assert_eq!(v.policy.max_retries(), 9);
        assert!(v.checkpoint.is_none());
        assert_eq!(v.policy, backoff);

        // Checkpoint-restart maps onto the checkpointing model.
        let v = mk(RecoveryPolicy::CheckpointRestart {
            interval_secs: 1.0,
            overhead_secs: 0.1,
            max_retries: 3,
        })
        .fault_view()
        .unwrap()
        .unwrap();
        assert_eq!(
            v.checkpoint,
            Some((SimDuration::from_secs(1.0), SimDuration::from_secs(0.1)))
        );

        // Replication and rescheduling need the ResilientRunner.
        assert!(mk(RecoveryPolicy::ReplicateK {
            replicas: 2,
            max_retries: 1
        })
        .fault_view()
        .is_err());

        // So do non-transient or non-exponential failure models.
        let mut c = EngineConfig {
            resilience: Some(ResilienceConfig::flat_retry(5.0, 0.0, 1)),
            ..Default::default()
        };
        c.resilience.as_mut().unwrap().failures.permanent_prob = 0.1;
        assert!(c.fault_view().is_err());
    }

    #[test]
    fn elasticity_requires_the_resilient_runner() {
        use crate::elastic::{ElasticEvent, ElasticEventKind, ElasticityConfig};
        let el = ElasticityConfig {
            events: vec![ElasticEvent {
                device: "gpu0".into(),
                at_secs: 1.0,
                kind: ElasticEventKind::Leave,
            }],
            churn: Vec::new(),
        };
        let c = EngineConfig {
            elasticity: Some(el),
            ..Default::default()
        };
        assert!(c.validate().is_ok());
        let err = c.fault_view().unwrap_err().to_string();
        assert!(err.contains("ResilientRunner"), "{err}");
        // An empty elasticity block is a config error, not a silent no-op.
        let c = EngineConfig {
            elasticity: Some(ElasticityConfig::default()),
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
