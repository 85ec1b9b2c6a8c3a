//! Simulated-annealing schedule refinement.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use helios_platform::{DeviceId, Platform};
use helios_sim::{SimRng, SimTime};
use helios_workflow::{analysis, TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::{HeftScheduler, Scheduler};

/// A metaheuristic scheduler: simulated annealing over the joint space
/// of per-task *device assignments* and *priority values*, decoded by
/// insertion-based list scheduling and seeded with the HEFT solution.
///
/// Neighborhood moves:
///
/// * reassign one task to another memory-feasible device,
/// * nudge one task's priority (reordering it among its peers while the
///   decoder's readiness tracking preserves topological validity).
///
/// Acceptance follows Metropolis with geometric cooling; the best
/// schedule ever seen is returned, so the result is never worse than
/// the HEFT seed. Typical gains over HEFT are a few percent — the
/// interesting output is the *gap*, which bounds how much better any
/// list-ordering tweak could do (ablation experiment A14).
#[derive(Debug, Clone)]
pub struct AnnealingScheduler {
    iterations: u32,
    seed: u64,
}

impl AnnealingScheduler {
    /// Creates the scheduler with an iteration budget and RNG seed.
    #[must_use]
    pub fn new(iterations: u32, seed: u64) -> AnnealingScheduler {
        AnnealingScheduler { iterations, seed }
    }

    /// The iteration budget.
    #[must_use]
    pub fn iterations(&self) -> u32 {
        self.iterations
    }
}

impl Default for AnnealingScheduler {
    /// 2000 iterations, seed 0.
    fn default() -> Self {
        AnnealingScheduler::new(2000, 0)
    }
}

/// The integer key `f64::total_cmp` compares (its own bit transform).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Decodes (priority, assignment) into `ctx`, resetting it first:
/// repeatedly commits the highest-priority ready task to its assigned
/// device at its EFT. Returns the makespan in seconds, as
/// [`Schedule::makespan`] would report it; the placements stay in `ctx`.
fn decode(
    wf: &Workflow,
    ctx: &mut SchedContext<'_>,
    priority: &[f64],
    assignment: &[DeviceId],
) -> Result<f64, SchedError> {
    ctx.reset();
    let mut indegree: Vec<usize> = (0..wf.num_tasks())
        .map(|i| wf.predecessors(TaskId(i)).len())
        .collect();
    // Max-heap on (priority, lower id first). The key is unique, so tasks
    // pop in exactly the order a linear max scan would pick them.
    let key = |t: TaskId| (total_order_key(priority[t.0]), Reverse(t));
    let mut ready: BinaryHeap<_> = (0..wf.num_tasks())
        .filter(|&i| indegree[i] == 0)
        .map(|i| key(TaskId(i)))
        .collect();
    let mut makespan = SimTime::ZERO;
    while let Some((_, Reverse(task))) = ready.pop() {
        let dev = assignment[task.0];
        let (start, finish) = ctx.eft(task, dev)?;
        ctx.place(task, dev, start, finish)?;
        makespan = makespan.max(finish);
        for s in wf.successor_tasks(task) {
            indegree[s.0] -= 1;
            if indegree[s.0] == 0 {
                ready.push(key(s));
            }
        }
    }
    // Exactly the tasks that never became ready are unplaced.
    if let Some(i) = indegree.iter().position(|&d| d > 0) {
        return Err(SchedError::Unscheduled(TaskId(i)));
    }
    Ok(makespan.saturating_since(SimTime::ZERO).as_secs())
}

impl Scheduler for AnnealingScheduler {
    fn name(&self) -> &str {
        "annealing"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        // Seed state: HEFT assignment + upward-rank priorities.
        let heft = HeftScheduler::default().schedule(wf, platform)?;
        let mut assignment: Vec<DeviceId> = vec![DeviceId(0); wf.num_tasks()];
        for p in heft.placements() {
            assignment[p.task.0] = p.device;
        }
        let mut priority = analysis::bottom_levels(wf, platform)?;
        let priority_span = priority.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);

        // Memory-feasible device sets per task.
        let feasible: Vec<Vec<DeviceId>> = wf
            .tasks()
            .iter()
            .map(|t| {
                platform
                    .devices()
                    .iter()
                    .filter(|d| crate::placement_feasible(d, t))
                    .map(|d| d.id())
                    .collect()
            })
            .collect();
        for (i, f) in feasible.iter().enumerate() {
            if f.is_empty() {
                return Err(SchedError::NoFeasibleDevice(TaskId(i)));
            }
        }

        let mut rng = SimRng::seed_from(self.seed);
        let mut ctx = SchedContext::new(wf, platform, true)?;
        let mut current_cost = decode(wf, &mut ctx, &priority, &assignment)?;
        // The best candidate becomes a `Schedule` once, after the search.
        let (mut best_priority, mut best_assignment) = (priority.clone(), assignment.clone());
        let mut best_cost = current_cost;

        let t0 = 0.05 * current_cost.max(1e-12);
        let cooling = if self.iterations > 1 {
            (1e-3f64).powf(1.0 / f64::from(self.iterations - 1))
        } else {
            1.0
        };
        let mut temp = t0;

        for _ in 0..self.iterations {
            // Propose a neighbor.
            let task = TaskId(rng.uniform_usize(0, wf.num_tasks() - 1));
            let move_device = rng.chance(0.5) && feasible[task.0].len() > 1;
            let (old_dev, old_prio) = (assignment[task.0], priority[task.0]);
            if move_device {
                let new_dev = loop {
                    let d = *rng
                        .choose(&feasible[task.0])
                        .expect("feasible set is non-empty");
                    if d != old_dev || feasible[task.0].len() == 1 {
                        break d;
                    }
                };
                assignment[task.0] = new_dev;
            } else {
                priority[task.0] = (old_prio + rng.normal(0.0, 0.05 * priority_span)).max(0.0);
            }

            let cost = decode(wf, &mut ctx, &priority, &assignment)?;
            let accept =
                cost <= current_cost || rng.chance(((current_cost - cost) / temp).exp().min(1.0));
            if accept {
                current_cost = cost;
                if cost < best_cost {
                    best_priority.clone_from(&priority);
                    best_assignment.clone_from(&assignment);
                    best_cost = cost;
                }
            } else {
                // Revert.
                assignment[task.0] = old_dev;
                priority[task.0] = old_prio;
            }
            temp *= cooling;
        }
        decode(wf, &mut ctx, &best_priority, &best_assignment)?;
        ctx.into_schedule()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{montage, sipht};

    /// The seed decoder: a fresh context per candidate, a linear max
    /// scan over the ready set and a materialized schedule.
    fn reference_decode(
        wf: &Workflow,
        platform: &Platform,
        priority: &[f64],
        assignment: &[DeviceId],
    ) -> Result<Schedule, SchedError> {
        let mut ctx = SchedContext::new(wf, platform, true)?;
        let mut indegree: Vec<usize> = (0..wf.num_tasks())
            .map(|i| wf.predecessors(TaskId(i)).len())
            .collect();
        let mut ready: Vec<TaskId> = (0..wf.num_tasks())
            .filter(|&i| indegree[i] == 0)
            .map(TaskId)
            .collect();
        while !ready.is_empty() {
            let (idx, &task) = ready
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    priority[a.0].total_cmp(&priority[b.0]).then(b.0.cmp(&a.0))
                })
                .ok_or_else(|| SchedError::Internal("empty ready set".into()))?;
            ready.swap_remove(idx);
            let dev = assignment[task.0];
            let (start, finish) = ctx.eft(task, dev)?;
            ctx.place(task, dev, start, finish)?;
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    ready.push(s);
                }
            }
        }
        ctx.into_schedule()
    }

    /// The seed search loop over [`reference_decode`], keeping the best
    /// schedule itself rather than its (priority, assignment) pair.
    fn reference_schedule(
        sa: &AnnealingScheduler,
        wf: &Workflow,
        platform: &Platform,
    ) -> Result<Schedule, SchedError> {
        let heft = HeftScheduler::default().schedule(wf, platform)?;
        let mut assignment: Vec<DeviceId> = vec![DeviceId(0); wf.num_tasks()];
        for p in heft.placements() {
            assignment[p.task.0] = p.device;
        }
        let mut priority = analysis::bottom_levels(wf, platform)?;
        let priority_span = priority.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);
        let feasible: Vec<Vec<DeviceId>> = wf
            .tasks()
            .iter()
            .map(|t| {
                platform
                    .devices()
                    .iter()
                    .filter(|d| crate::placement_feasible(d, t))
                    .map(|d| d.id())
                    .collect()
            })
            .collect();
        if let Some(i) = feasible.iter().position(Vec::is_empty) {
            return Err(SchedError::NoFeasibleDevice(TaskId(i)));
        }
        let mut rng = SimRng::seed_from(sa.seed);
        let mut current_cost = reference_decode(wf, platform, &priority, &assignment)?
            .makespan()
            .as_secs();
        let mut best = reference_decode(wf, platform, &priority, &assignment)?;
        let mut best_cost = current_cost;
        let t0 = 0.05 * current_cost.max(1e-12);
        let cooling = if sa.iterations > 1 {
            (1e-3f64).powf(1.0 / f64::from(sa.iterations - 1))
        } else {
            1.0
        };
        let mut temp = t0;
        for _ in 0..sa.iterations {
            let task = TaskId(rng.uniform_usize(0, wf.num_tasks() - 1));
            let move_device = rng.chance(0.5) && feasible[task.0].len() > 1;
            let (old_dev, old_prio) = (assignment[task.0], priority[task.0]);
            if move_device {
                let new_dev = loop {
                    let d = *rng.choose(&feasible[task.0]).unwrap();
                    if d != old_dev || feasible[task.0].len() == 1 {
                        break d;
                    }
                };
                assignment[task.0] = new_dev;
            } else {
                priority[task.0] = (old_prio + rng.normal(0.0, 0.05 * priority_span)).max(0.0);
            }
            let candidate = reference_decode(wf, platform, &priority, &assignment)?;
            let cost = candidate.makespan().as_secs();
            let accept =
                cost <= current_cost || rng.chance(((current_cost - cost) / temp).exp().min(1.0));
            if accept {
                current_cost = cost;
                if cost < best_cost {
                    best = candidate;
                    best_cost = cost;
                }
            } else {
                assignment[task.0] = old_dev;
                priority[task.0] = old_prio;
            }
            temp *= cooling;
        }
        Ok(best)
    }

    #[test]
    fn matches_the_reference_decoder() {
        use helios_workflow::generators::WorkflowClass;
        let platforms = [
            presets::workstation(),
            presets::hpc_node(),
            presets::cluster(4),
            presets::edge_soc(),
        ];
        for class in WorkflowClass::ALL {
            for p in &platforms {
                for seed in 0..3 {
                    let wf = class.generate(30, seed).unwrap();
                    for iterations in [0, 1, 300] {
                        let sa = AnnealingScheduler::new(iterations, seed);
                        assert_eq!(
                            sa.schedule(&wf, p),
                            reference_schedule(&sa, &wf, p),
                            "{} on {} seed {seed}, {iterations} iterations",
                            class.as_str(),
                            p.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn never_worse_than_heft() {
        let p = presets::hpc_node();
        for seed in 0..3 {
            let wf = montage(60, seed).unwrap();
            let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
            let sa = AnnealingScheduler::new(300, seed)
                .schedule(&wf, &p)
                .unwrap();
            sa.validate(&wf, &p).unwrap();
            assert!(
                sa.makespan().as_secs() <= heft.makespan().as_secs() + 1e-9,
                "seed {seed}: SA {} vs HEFT {}",
                sa.makespan(),
                heft.makespan()
            );
        }
    }

    #[test]
    fn improves_on_a_known_instance() {
        // Deterministic instance where the HEFT seed is improvable
        // (layered DAG at CCR 1.0; all SA runs are seed-reproducible, so
        // this pins the improvement path, not a probability).
        use helios_workflow::generators::synthetic::{
            layered_random, scale_edges_to_ccr, LayeredConfig,
        };
        let p = presets::hpc_node();
        let wf = layered_random(&LayeredConfig::default(), 0).unwrap();
        let wf = scale_edges_to_ccr(&wf, &p, 1.0).unwrap();
        let heft = HeftScheduler::default().schedule(&wf, &p).unwrap();
        let sa = AnnealingScheduler::new(1500, 0).schedule(&wf, &p).unwrap();
        sa.validate(&wf, &p).unwrap();
        assert!(
            sa.makespan().as_secs() < heft.makespan().as_secs() * (1.0 - 1e-9),
            "SA {} must improve HEFT {} on this instance",
            sa.makespan(),
            heft.makespan()
        );
        let _ = sipht(20, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = presets::workstation();
        let wf = montage(40, 1).unwrap();
        let a = AnnealingScheduler::new(200, 5).schedule(&wf, &p).unwrap();
        let b = AnnealingScheduler::new(200, 5).schedule(&wf, &p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_returns_heft_seed() {
        let p = presets::workstation();
        let wf = montage(30, 2).unwrap();
        let sa = AnnealingScheduler::new(0, 0).schedule(&wf, &p).unwrap();
        sa.validate(&wf, &p).unwrap();
        // The decoded HEFT seed can differ slightly from HEFT itself
        // (decoder re-derives EFTs), but must be a valid full schedule.
        assert_eq!(sa.placements().len(), wf.num_tasks());
    }
}
