//! Reliability analysis and reliability-aware scheduling.
//!
//! Shrinking transistors make silicon less dependable (survey §II.A);
//! with per-device failure rates `λ_d` (transient faults as Poisson
//! processes), the probability a schedule completes fault-free is
//!
//! `R = Π exp(−λ_d(t) · duration(t)) = exp(−Σ λ · dur)`.
//!
//! [`schedule_reliability`] evaluates that product for any schedule;
//! [`ReliabilityAwareHeft`] biases HEFT's device selection toward
//! dependable devices, trading makespan for completion probability —
//! the same bi-objective shape as energy-aware HEFT.

use helios_platform::{DeviceId, Platform};
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// Validates a per-device failure-rate vector against a platform.
fn check_rates(platform: &Platform, rates: &[f64]) -> Result<(), SchedError> {
    if rates.len() != platform.num_devices() {
        return Err(SchedError::Internal(format!(
            "{} failure rates for {} devices",
            rates.len(),
            platform.num_devices()
        )));
    }
    for (i, &r) in rates.iter().enumerate() {
        if !(r.is_finite() && r >= 0.0) {
            return Err(SchedError::Internal(format!(
                "failure rate[{i}] = {r} must be non-negative"
            )));
        }
    }
    Ok(())
}

/// Uniform failure rates from a single MTBF (failures per second =
/// `1 / mtbf_secs`) — matches the exponential transient-only failure
/// model of the engine's
/// [`ResilienceConfig`](../../helios_core/resilience/struct.ResilienceConfig.html).
///
/// # Errors
///
/// Returns [`SchedError::Internal`] for a non-positive MTBF.
pub fn uniform_rates(platform: &Platform, mtbf_secs: f64) -> Result<Vec<f64>, SchedError> {
    if !(mtbf_secs.is_finite() && mtbf_secs > 0.0) {
        return Err(SchedError::Internal(format!(
            "mtbf {mtbf_secs} must be positive"
        )));
    }
    Ok(vec![1.0 / mtbf_secs; platform.num_devices()])
}

/// Probability that every placement executes without a transient fault,
/// given per-device failure rates (per second, indexed by device id).
///
/// # Errors
///
/// Returns [`SchedError::Internal`] for a malformed rate vector.
pub fn schedule_reliability(
    schedule: &Schedule,
    platform: &Platform,
    rates: &[f64],
) -> Result<f64, SchedError> {
    check_rates(platform, rates)?;
    let mut hazard = 0.0;
    for p in schedule.placements() {
        hazard += rates[p.device.0] * p.duration().as_secs();
    }
    Ok((-hazard).exp())
}

/// HEFT with reliability-biased device selection:
///
/// `score(d) = alpha · EFT(d)/min_EFT + (1 − alpha) · hazard(d)/min_hazard`
///
/// where `hazard(d) = λ_d · exec(d)` is the task's expected fault count
/// on `d`. `alpha = 1` reproduces plain HEFT.
#[derive(Debug, Clone)]
pub struct ReliabilityAwareHeft {
    alpha: f64,
    rates: Vec<f64>,
}

impl ReliabilityAwareHeft {
    /// Creates the scheduler with the time/reliability weight and
    /// per-device failure rates (per second, indexed by device id).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    #[must_use]
    pub fn new(alpha: f64, rates: Vec<f64>) -> ReliabilityAwareHeft {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha {alpha} must be in [0, 1]"
        );
        ReliabilityAwareHeft { alpha, rates }
    }
}

impl Scheduler for ReliabilityAwareHeft {
    fn name(&self) -> &str {
        "rel-heft"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        check_rates(platform, &self.rates)?;
        let ranks = analysis::bottom_levels(wf, platform)?;
        let mut order: Vec<TaskId> = (0..wf.num_tasks()).map(TaskId).collect();
        order.sort_by(|a, b| ranks[b.0].total_cmp(&ranks[a.0]).then(a.0.cmp(&b.0)));

        let mut ctx = SchedContext::new(wf, platform, true)?;
        for task in order {
            let mut candidates = Vec::new();
            for dev in ctx.feasible_devices(task).collect::<Vec<_>>() {
                let (start, finish) = ctx.eft(task, dev)?;
                let hazard = self.rates[dev.0] * ctx.exec_time(task, dev).as_secs();
                candidates.push((dev, start, finish, hazard));
            }
            if candidates.is_empty() {
                return Err(SchedError::NoFeasibleDevice(task));
            }
            let min_finish = candidates
                .iter()
                .map(|c| c.2.as_secs())
                .fold(f64::INFINITY, f64::min);
            let min_hazard = candidates
                .iter()
                .map(|c| c.3)
                .fold(f64::INFINITY, f64::min)
                .max(1e-300);
            let (dev, start, finish, _) = candidates
                .into_iter()
                .min_by(|a, b| {
                    let score = |c: &(DeviceId, _, helios_sim::SimTime, f64)| {
                        self.alpha * c.2.as_secs() / min_finish.max(1e-300)
                            + (1.0 - self.alpha) * c.3 / min_hazard
                    };
                    score(a).total_cmp(&score(b)).then(a.0.cmp(&b.0))
                })
                .ok_or_else(|| SchedError::Internal("no devices".into()))?;
            ctx.place(task, dev, start, finish)?;
        }
        ctx.into_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeftScheduler;
    use helios_platform::presets;
    use helios_workflow::generators::montage;

    #[test]
    fn reliability_is_a_probability_and_monotone() {
        let p = presets::hpc_node();
        let wf = montage(60, 1).unwrap();
        let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let rel_good = schedule_reliability(&plan, &p, &uniform_rates(&p, 1e4).unwrap()).unwrap();
        let rel_bad = schedule_reliability(&plan, &p, &uniform_rates(&p, 1.0).unwrap()).unwrap();
        assert!(rel_good > 0.99, "MTBF 10^4 s: {rel_good}");
        assert!(rel_bad < rel_good);
        assert!((0.0..=1.0).contains(&rel_bad));
        // Zero rates: certain success.
        let certain = schedule_reliability(&plan, &p, &vec![0.0; p.num_devices()]).unwrap();
        assert_eq!(certain, 1.0);
    }

    #[test]
    fn malformed_rates_rejected() {
        let p = presets::hpc_node();
        let wf = montage(30, 1).unwrap();
        let plan = HeftScheduler::default().schedule(&wf, &p).unwrap();
        assert!(schedule_reliability(&plan, &p, &[0.1]).is_err());
        assert!(schedule_reliability(&plan, &p, &vec![-1.0; p.num_devices()]).is_err());
        assert!(uniform_rates(&p, 0.0).is_err());
    }

    #[test]
    fn alpha_one_matches_heft() {
        let p = presets::hpc_node();
        let wf = montage(50, 2).unwrap();
        let rates = uniform_rates(&p, 100.0).unwrap();
        let rel = ReliabilityAwareHeft::new(1.0, rates)
            .schedule(&wf, &p)
            .unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        assert_eq!(rel.placements(), heft.placements());
    }

    #[test]
    fn low_alpha_buys_reliability_with_makespan() {
        let p = presets::hpc_node();
        // The GPUs are flaky (MTBF 10 s); everything else is solid.
        let mut rates = vec![1e-6; p.num_devices()];
        rates[2] = 0.1;
        rates[3] = 0.1;
        rates[4] = 0.1;
        rates[5] = 0.1;
        let mut time = [0.0f64; 2];
        let mut rel = [0.0f64; 2];
        for seed in 0..5 {
            let wf = montage(60, seed).unwrap();
            for (i, alpha) in [1.0, 0.2].into_iter().enumerate() {
                let plan = ReliabilityAwareHeft::new(alpha, rates.clone())
                    .schedule(&wf, &p)
                    .unwrap();
                plan.validate(&wf, &p).unwrap();
                time[i] += plan.makespan().as_secs();
                rel[i] += schedule_reliability(&plan, &p, &rates).unwrap();
            }
        }
        assert!(
            rel[1] > rel[0],
            "reliability-biased plans must be more reliable: {} vs {}",
            rel[1],
            rel[0]
        );
        assert!(
            time[1] >= time[0],
            "avoiding the fast flaky GPUs must cost time"
        );
    }
}
