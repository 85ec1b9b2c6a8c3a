//! Batch-mode heuristics: Min-Min and Max-Min (Ibarra & Kim, 1977;
//! Maheswaran et al., 1999), extended with DAG readiness tracking.

use helios_platform::{DeviceId, Platform};
use helios_sim::SimTime;
use helios_workflow::{TaskId, Workflow};

use crate::context::SchedContext;
use crate::error::SchedError;
use crate::schedule::Schedule;
use crate::Scheduler;

/// Per ready task and device: the data-ready time and the (start,
/// finish) on the device's current timeline, plus the task's pick among
/// them. A task's predecessors are all placed once it is ready, so its
/// data-ready times, and any error computing them, are fixed then; a
/// commit changes only its own device's timeline, so only that column
/// can go stale.
struct Columns {
    devices: usize,
    /// `cells[task * devices + d]`, `None` where `d` cannot host `task`.
    cells: Vec<Option<(SimTime, SimTime, SimTime)>>,
    /// Per ready task, [`SchedContext::best_eft`]'s (device, start,
    /// finish) over its row.
    best: Vec<(DeviceId, SimTime, SimTime)>,
}

impl Columns {
    fn new(tasks: usize, devices: usize) -> Columns {
        Columns {
            devices,
            cells: vec![None; tasks * devices],
            best: vec![(DeviceId(0), SimTime::ZERO, SimTime::ZERO); tasks],
        }
    }

    fn row(&self, task: TaskId) -> &[Option<(SimTime, SimTime, SimTime)>] {
        &self.cells[task.0 * self.devices..][..self.devices]
    }

    /// Computes the row of a task that just became ready. Devices are
    /// visited in id order and predecessors in edge order, so the error
    /// is the one [`SchedContext::best_eft`] would return.
    fn fill(&mut self, ctx: &SchedContext<'_>, task: TaskId) -> Result<(), SchedError> {
        for d in 0..self.devices {
            let dev = DeviceId(d);
            self.cells[task.0 * self.devices + d] = if ctx.feasible(task, dev) {
                let ready = ctx.data_ready(task, dev)?;
                let (start, finish) = ctx.eft_after(task, dev, ready);
                Some((ready, start, finish))
            } else {
                None
            };
        }
        self.best[task.0] = self.pick(task).ok_or(SchedError::NoFeasibleDevice(task))?;
        Ok(())
    }

    /// Re-asks `dev`'s timeline for a ready task after a commit there.
    /// A reservation never moves a device's earliest start earlier, so
    /// a device that lost the pick still loses it; only a pick on `dev`
    /// is re-taken.
    fn refresh(&mut self, ctx: &SchedContext<'_>, task: TaskId, dev: DeviceId) {
        let Some((ready, start, finish)) = &mut self.cells[task.0 * self.devices + dev.0] else {
            return;
        };
        (*start, *finish) = ctx.eft_after(task, dev, *ready);
        if self.best[task.0].0 == dev {
            if let Some(best) = self.pick(task) {
                self.best[task.0] = best;
            }
        }
    }

    /// The minimum finish over the row, ties to the lower device id.
    fn pick(&self, task: TaskId) -> Option<(DeviceId, SimTime, SimTime)> {
        let mut best: Option<(DeviceId, SimTime, SimTime)> = None;
        for (d, cell) in self.row(task).iter().enumerate() {
            if let Some((_, start, finish)) = *cell {
                if best.is_none_or(|(_, _, bf)| finish < bf) {
                    best = Some((DeviceId(d), start, finish));
                }
            }
        }
        best
    }
}

/// Shared Min-Min / Max-Min sweep: repeatedly take every ready task's
/// minimum EFT and commit either the globally smallest (`max_min ==
/// false`) or the largest-of-minima (`max_min == true`), the first in
/// ready order on ties.
fn batch_schedule(
    wf: &Workflow,
    platform: &Platform,
    max_min: bool,
) -> Result<Schedule, SchedError> {
    let mut ctx = SchedContext::new(wf, platform, true)?;
    let mut columns = Columns::new(wf.num_tasks(), platform.num_devices());
    let mut indegree: Vec<usize> = (0..wf.num_tasks())
        .map(|i| wf.predecessors(TaskId(i)).len())
        .collect();
    let mut ready: Vec<TaskId> = Vec::new();
    for task in (0..wf.num_tasks())
        .filter(|&i| indegree[i] == 0)
        .map(TaskId)
    {
        columns.fill(&ctx, task)?;
        ready.push(task);
    }
    while !ready.is_empty() {
        // (index in ready, finish) of the pick.
        let mut pick: Option<(usize, SimTime)> = None;
        for (i, &task) in ready.iter().enumerate() {
            let finish = columns.best[task.0].2;
            let better = pick.is_none_or(|(_, best_finish)| {
                if max_min {
                    finish > best_finish
                } else {
                    finish < best_finish
                }
            });
            if better {
                pick = Some((i, finish));
            }
        }
        let (idx, _) = pick.ok_or_else(|| SchedError::Internal("empty ready set".into()))?;
        let task = ready.swap_remove(idx);
        let (dev, start, finish) = columns.best[task.0];
        ctx.place(task, dev, start, finish)?;
        for &other in &ready {
            columns.refresh(&ctx, other, dev);
        }
        // The tasks this commit readies go last in ready order, behind
        // tasks whose rows computed cleanly, so the first error here is
        // the first a full scan of the ready set would meet.
        for s in wf.successor_tasks(task) {
            indegree[s.0] -= 1;
            if indegree[s.0] == 0 {
                columns.fill(&ctx, s)?;
                ready.push(s);
            }
        }
    }
    ctx.into_schedule()
}

/// Min-Min: among ready tasks, commit the one with the smallest minimum
/// completion time first. Biases toward short tasks; can starve long
/// ones.
#[derive(Debug, Clone, Default)]
pub struct MinMinScheduler {
    _private: (),
}

impl Scheduler for MinMinScheduler {
    fn name(&self) -> &str {
        "min-min"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        batch_schedule(wf, platform, false)
    }
}

/// Max-Min: among ready tasks, commit the one with the *largest* minimum
/// completion time first — the long-task-first mirror of Min-Min.
#[derive(Debug, Clone, Default)]
pub struct MaxMinScheduler {
    _private: (),
}

impl Scheduler for MaxMinScheduler {
    fn name(&self) -> &str {
        "max-min"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        batch_schedule(wf, platform, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{cybershake, montage};

    /// The uncached sweep: every ready task's `best_eft` on every step.
    fn reference_batch_schedule(
        wf: &Workflow,
        platform: &Platform,
        max_min: bool,
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
            let mut pick: Option<(usize, _, _, _)> = None;
            for (i, &task) in ready.iter().enumerate() {
                let (dev, start, finish) = ctx.best_eft(task)?;
                let better = match pick {
                    None => true,
                    Some((_, _, _, best_finish)) => {
                        if max_min {
                            finish > best_finish
                        } else {
                            finish < best_finish
                        }
                    }
                };
                if better {
                    pick = Some((i, dev, start, finish));
                }
            }
            let (idx, dev, start, finish) =
                pick.ok_or_else(|| SchedError::Internal("empty ready set".into()))?;
            let task = ready.swap_remove(idx);
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

    #[test]
    fn column_cache_matches_the_uncached_sweep() {
        use helios_workflow::generators::WorkflowClass;
        let platforms = [
            presets::workstation(),
            presets::hpc_node(),
            presets::cluster(4),
            presets::edge_soc(),
        ];
        let mut infeasible = 0;
        for class in WorkflowClass::ALL {
            for p in &platforms {
                for seed in 0..3 {
                    let wf = class.generate(100, seed).unwrap();
                    for max_min in [false, true] {
                        let got = batch_schedule(&wf, p, max_min);
                        infeasible +=
                            usize::from(matches!(got, Err(SchedError::NoFeasibleDevice(_))));
                        assert_eq!(
                            got,
                            reference_batch_schedule(&wf, p, max_min),
                            "{} on {} seed {seed}, max_min {max_min}",
                            class.as_str(),
                            p.name()
                        );
                    }
                }
            }
        }
        assert!(infeasible > 0, "no instance took the infeasible path");
    }

    #[test]
    fn both_produce_valid_schedules() {
        let p = presets::hpc_node();
        for wf in [montage(50, 1).unwrap(), cybershake(50, 1).unwrap()] {
            for s in [
                MinMinScheduler::default().schedule(&wf, &p).unwrap(),
                MaxMinScheduler::default().schedule(&wf, &p).unwrap(),
            ] {
                s.validate(&wf, &p).unwrap();
            }
        }
    }

    #[test]
    fn min_min_and_max_min_differ() {
        let p = presets::hpc_node();
        let wf = cybershake(60, 2).unwrap();
        let a = MinMinScheduler::default().schedule(&wf, &p).unwrap();
        let b = MaxMinScheduler::default().schedule(&wf, &p).unwrap();
        assert_ne!(
            a.placements(),
            b.placements(),
            "orderings should diverge on heterogeneous ready sets"
        );
    }

    #[test]
    fn within_striking_distance_of_heft() {
        use crate::{HeftScheduler, Scheduler as _};
        let p = presets::hpc_node();
        let wf = montage(80, 3).unwrap();
        let heft = HeftScheduler::default()
            .schedule(&wf, &p)
            .unwrap()
            .makespan()
            .as_secs();
        for s in [
            MinMinScheduler::default().schedule(&wf, &p).unwrap(),
            MaxMinScheduler::default().schedule(&wf, &p).unwrap(),
        ] {
            let ratio = s.makespan().as_secs() / heft;
            assert!(ratio < 5.0, "batch heuristic {ratio}x of HEFT");
        }
    }
}
