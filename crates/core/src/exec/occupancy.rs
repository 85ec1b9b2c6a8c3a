//! Per-attempt occupancy math: how long a task holds its device under
//! noise, checkpoint overhead and fault retries. Every execution path
//! charges its timeline through this single copy.

use helios_sim::{SimDuration, SimRng};
use helios_workflow::TaskId;

use crate::config::FaultView;
use crate::error::EngineError;
use crate::exec::{FAULT_STREAM_BASE, NOISE_STREAM_BASE};

/// Per-attempt execution outcome used by both the static and online
/// executors.
pub(crate) struct Occupancy {
    /// Total device time from start to completion, including retries.
    pub total: SimDuration,
    /// Fault-free device time (work + checkpoint writes, no retries):
    /// the duration dispatchers should calibrate their models against,
    /// since fault stalls carry no information about task cost.
    pub work: SimDuration,
    /// Faults that hit this task.
    pub failures: u32,
    /// Retries performed.
    pub retries: u32,
}

/// Computes how long `task` occupies its device, folding in noise
/// already applied to `actual_work`, plus checkpoint overheads and fault
/// retries. Fault draws come from stream `FAULT_STREAM_BASE + stream`,
/// keyed by the task's index so they never depend on event order.
/// Without a fault view the task holds its device for exactly
/// `actual_work`.
pub(crate) fn fault_occupancy(
    view: Option<&FaultView>,
    base_rng: &SimRng,
    stream: usize,
    actual_work: SimDuration,
    task: TaskId,
) -> Result<Occupancy, EngineError> {
    let Some(view) = view else {
        return Ok(Occupancy {
            total: actual_work,
            work: actual_work,
            failures: 0,
            retries: 0,
        });
    };
    let mut fault_rng = base_rng.fork(FAULT_STREAM_BASE + stream as u64);
    let ckpt_inflate = |work: SimDuration| match view.checkpoint {
        Some((interval, overhead)) => {
            let snapshots = (work.as_secs() / interval.as_secs()).floor();
            work + overhead * snapshots
        }
        None => work,
    };
    let work = ckpt_inflate(actual_work);

    let mut remaining = actual_work;
    let mut total = SimDuration::ZERO;
    let mut failures = 0u32;
    let mut retries = 0u32;
    loop {
        let effective = ckpt_inflate(remaining);
        let fault_at = SimDuration::from_secs(fault_rng.exponential(view.mtbf_secs));
        if fault_at >= effective {
            total += effective;
            return Ok(Occupancy {
                total,
                work,
                failures,
                retries,
            });
        }
        failures += 1;
        if retries >= view.policy.max_retries() {
            return Err(EngineError::RetriesExhausted {
                task,
                attempts: failures,
            });
        }
        retries += 1;
        let preserved = match view.checkpoint {
            Some((interval, overhead)) => {
                let stride = interval + overhead;
                let completed_units = (fault_at.as_secs() / stride.as_secs()).floor();
                interval * completed_units
            }
            None => SimDuration::ZERO,
        };
        remaining = remaining - preserved;
        let backoff = view.policy.backoff_delay_secs(retries);
        // The attempt's time, the restart overhead and any backoff all
        // occupy the device timeline: a faulty run can only be slower.
        total += fault_at + view.restart_overhead + SimDuration::from_secs(backoff);
    }
}

/// The task's multiplicative execution-noise factor, drawn from the
/// task's dedicated stream (`NOISE_STREAM_BASE + task`) so it is
/// identical wherever — and in whatever event order — the task runs.
pub(crate) fn noise_factor(noise_cv: f64, base_rng: &SimRng, task: usize) -> f64 {
    if noise_cv > 0.0 {
        let mut rng = base_rng.fork(NOISE_STREAM_BASE + task as u64);
        rng.normal(1.0, noise_cv).max(0.05)
    } else {
        1.0
    }
}

/// The device's static slowdown factor (1.0 when unconfigured or out of
/// range).
pub(crate) fn slowdown_factor(slowdown: Option<&Vec<f64>>, device: usize) -> f64 {
    slowdown.and_then(|v| v.get(device)).copied().unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::resilience::{FailureModel, RecoveryPolicy, ResilienceConfig};

    fn occupancy(config: &EngineConfig, work: f64, rng: &SimRng) -> Occupancy {
        let view = config.fault_view().unwrap();
        fault_occupancy(
            view.as_ref(),
            rng,
            0,
            SimDuration::from_secs(work),
            TaskId(0),
        )
        .unwrap()
    }

    #[test]
    fn occupancy_math() {
        let rng = SimRng::seed_from(1);
        // No faults: identity.
        let occ = occupancy(&EngineConfig::default(), 10.0, &rng);
        assert_eq!(occ.total.as_secs(), 10.0);
        assert_eq!(occ.failures, 0);
        // Checkpoints on a device that never fails: 10s work, 3s
        // interval → 3 snapshots × 0.5s.
        let cfg = EngineConfig {
            resilience: Some(ResilienceConfig::new(
                FailureModel::exponential(1e300),
                RecoveryPolicy::CheckpointRestart {
                    interval_secs: 3.0,
                    overhead_secs: 0.5,
                    max_retries: 0,
                },
            )),
            ..Default::default()
        };
        let occ = occupancy(&cfg, 10.0, &rng);
        assert!((occ.total.as_secs() - 11.5).abs() < 1e-9);
        assert_eq!(occ.failures, 0);
    }

    #[test]
    fn retries_pay_restart_overhead_and_backoff() {
        // Failures every ~1 ms against a 10 s task with a budget of 3:
        // the attempts run out.
        let cfg = EngineConfig {
            resilience: Some(ResilienceConfig::flat_retry(1e-3, 0.0, 3)),
            ..Default::default()
        };
        let view = cfg.fault_view().unwrap();
        let err = fault_occupancy(
            view.as_ref(),
            &SimRng::seed_from(2),
            4,
            SimDuration::from_secs(10.0),
            TaskId(4),
        )
        .err()
        .unwrap();
        assert!(matches!(
            err,
            EngineError::RetriesExhausted {
                task: TaskId(4),
                attempts: 4
            }
        ));
        // A backoff policy stretches the same fault trace by exactly the
        // policy's delays.
        let flat = EngineConfig {
            resilience: Some(ResilienceConfig::flat_retry(0.5, 0.25, 1_000)),
            ..Default::default()
        };
        let mut backoff = flat.clone();
        backoff.resilience.as_mut().unwrap().policy = RecoveryPolicy::RetryBackoff {
            base_secs: 1.0,
            factor: 2.0,
            cap_secs: 3.0,
            max_retries: 1_000,
        };
        let a = occupancy(&flat, 2.0, &SimRng::seed_from(3));
        let b = occupancy(&backoff, 2.0, &SimRng::seed_from(3));
        assert!(a.retries > 0);
        assert_eq!(a.retries, b.retries);
        let delays: f64 = (1..=b.retries)
            .map(|r| {
                backoff
                    .resilience
                    .as_ref()
                    .unwrap()
                    .policy
                    .backoff_delay_secs(r)
            })
            .sum();
        assert!((b.total.as_secs() - a.total.as_secs() - delays).abs() < 1e-9);
    }
}
