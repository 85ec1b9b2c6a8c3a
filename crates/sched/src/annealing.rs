//! Simulated-annealing schedule refinement.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use helios_platform::{DeviceId, Platform};
use helios_sim::{SimDuration, SimRng, SimTime};
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

/// A task's ready-set key: max-heap order on (priority, lower id first),
/// the priority as the integer `f64::total_cmp` compares (its own bit
/// transform). The key is unique, so tasks pop in exactly the order a
/// linear max scan would pick them.
type Key = (i64, Reverse<TaskId>);

fn key(priority: f64, task: TaskId) -> Key {
    let bits = priority.to_bits() as i64;
    (bits ^ (((bits >> 63) as u64) >> 1) as i64, Reverse(task))
}

/// What a decode committed: the order, and per task its step, the step
/// it became ready at and its (device, start, finish).
#[derive(Debug, Clone, Default)]
struct Trace {
    order: Vec<TaskId>,
    pos: Vec<usize>,
    ready_at: Vec<usize>,
    slot: Vec<(DeviceId, SimTime, SimTime)>,
}

/// The makespan from which a candidate is certainly rejected, given the
/// Metropolis draw `u` and temperature `temp` it will be judged with.
/// Exactly, a worse `cost` is accepted iff `u < exp((current − cost) /
/// temp)`, i.e. iff `cost < current − temp·ln u`. The margins, 1e-6 of
/// `temp` in the exponent and 1e-6 relative, are orders of magnitude
/// above the rounding of that comparison and of the re-associated sums
/// in a decode's makespan bound, so a candidate cut at the cutoff is
/// one the exact comparison rejects. A draw of 0 accepts anything.
fn cutoff(current: f64, temp: f64, u: f64) -> f64 {
    if u > 0.0 {
        (current + temp * (1e-6 - u.ln())) * (1.0 + 1e-6)
    } else {
        f64::INFINITY
    }
}

/// Per task, the longest chain of its successors' execution times on
/// their `assignment` devices, transfers counted as 0. A committed
/// task's finish plus its tail bounds the makespan from below: every
/// successor starts no earlier than its predecessors finish.
fn fill_tails(ctx: &SchedContext<'_>, assignment: &[DeviceId], tails: &mut Vec<f64>) {
    let wf = ctx.workflow();
    tails.resize(wf.num_tasks(), 0.0);
    for &t in wf.topo_order().iter().rev() {
        tails[t.0] = tail(ctx, assignment, tails, t);
    }
}

/// `t`'s tail from its successors' tails.
fn tail(ctx: &SchedContext<'_>, assignment: &[DeviceId], tails: &[f64], t: TaskId) -> f64 {
    ctx.workflow()
        .successor_tasks(t)
        .map(|s| ctx.exec_time(s, assignment[s.0]).as_secs() + tails[s.0])
        .fold(0.0, f64::max)
}

/// How many candidate decodes ended early, and why.
#[cfg(test)]
#[derive(Debug, Default)]
struct Skips {
    reconverged: usize,
    cut: usize,
}

/// The search's decoder: the accepted state's trace and makespan, and
/// the last evaluated candidate's. A candidate replays the accepted
/// commits its move cannot change instead of re-deriving their EFTs,
/// copies the accepted commits after it re-converges with the accepted
/// trace, and stops once its makespan bound passes its cutoff.
struct Decoder<'a> {
    wf: &'a Workflow,
    /// Built once per schedule; every decode resets it.
    ctx: SchedContext<'a>,
    accepted: Trace,
    cost: f64,
    /// The last candidate's trace, valid when `changed`.
    candidate: Trace,
    /// Whether the last candidate changed any accepted commit.
    changed: bool,
    /// [`fill_tails`] of the assignment under evaluation.
    tails: Vec<f64>,
    /// Per edge, the transfer time between its endpoints' devices in the
    /// assignment under evaluation, `None` where the route fails (its
    /// task then asks the context, which reports the error).
    transfers: Vec<Option<SimDuration>>,
    /// The task the last candidate moved to another device. Accepted or
    /// reverted, it is synced again at the next evaluation.
    last_moved: Option<TaskId>,
    /// Scratch, kept to reuse its allocations.
    indegree: Vec<usize>,
    ready: BinaryHeap<Key>,
    stack: Vec<TaskId>,
    #[cfg(test)]
    skips: Skips,
}

impl<'a> Decoder<'a> {
    /// Decodes the seed state in full and accepts it.
    fn new(
        wf: &'a Workflow,
        platform: &'a Platform,
        priority: &[f64],
        assignment: &[DeviceId],
    ) -> Result<Decoder<'a>, SchedError> {
        let ctx = SchedContext::new(wf, platform, true)?;
        let mut tails = Vec::new();
        fill_tails(&ctx, assignment, &mut tails);
        let transfers = wf
            .edges()
            .iter()
            .map(|e| {
                ctx.transfer_time(e.bytes, assignment[e.src.0], assignment[e.dst.0])
                    .ok()
            })
            .collect();
        let mut decoder = Decoder {
            wf,
            ctx,
            accepted: Trace::default(),
            cost: 0.0,
            candidate: Trace::default(),
            // The seed decode lands in `candidate`; `accept` swaps it in.
            changed: true,
            tails,
            transfers,
            last_moved: None,
            indegree: Vec::new(),
            ready: BinaryHeap::new(),
            stack: Vec::new(),
            #[cfg(test)]
            skips: Skips::default(),
        };
        let cost = decoder.decode(priority, assignment, 0, None)?;
        decoder.accept(cost.ok_or_else(|| SchedError::Internal("full decode cut".into()))?);
        Ok(decoder)
    }

    /// The makespan after one move on `task`, or `None` if it is at
    /// least `cutoff`: `priority` and `assignment` hold the moved state,
    /// `old_priority` the task's accepted one. The accepted commits
    /// before step `p` stay. A device move or a lowered priority first
    /// matters at the task's own step. A raised priority matters at the
    /// first step since the task became ready that committed a key below
    /// its new one; without one, the task still commits at its step,
    /// nothing changes and nothing is decoded.
    fn evaluate(
        &mut self,
        priority: &[f64],
        assignment: &[DeviceId],
        task: TaskId,
        old_priority: f64,
        device_moved: bool,
        cutoff: f64,
    ) -> Result<Option<f64>, SchedError> {
        for t in self
            .last_moved
            .take()
            .into_iter()
            .chain(device_moved.then_some(task))
        {
            self.sync(assignment, t);
        }
        if device_moved {
            self.last_moved = Some(task);
        }
        let (order, pos) = (&self.accepted.order, self.accepted.pos[task.0]);
        let new = key(priority[task.0], task);
        let p = match new.cmp(&key(old_priority, task)) {
            _ if device_moved => pos,
            Ordering::Less => pos,
            Ordering::Equal => order.len(),
            Ordering::Greater => (self.accepted.ready_at[task.0]..pos)
                .find(|&k| key(priority[order[k].0], order[k]) < new)
                .unwrap_or(order.len()),
        };
        self.changed = p < order.len();
        if !self.changed {
            return Ok(Some(self.cost));
        }
        self.decode(priority, assignment, p, Some((task, cutoff)))
    }

    /// Re-derives what depends on `task`'s device in `assignment`: its
    /// edges' transfers, and its ancestors' tails, pushed up from its
    /// predecessors until a tail stays put. Both depend only on the
    /// assignment, so a priority move keeps them.
    fn sync(&mut self, assignment: &[DeviceId], task: TaskId) {
        let (wf, ctx) = (self.wf, &self.ctx);
        for &e in wf.predecessors(task).iter().chain(wf.successors(task)) {
            let edge = wf.edge(e);
            self.transfers[e.0] = ctx
                .transfer_time(edge.bytes, assignment[edge.src.0], assignment[edge.dst.0])
                .ok();
        }
        let preds = |t: TaskId| wf.predecessors(t).iter().map(|&e| wf.edge(e).src);
        self.stack.clear();
        self.stack.extend(preds(task));
        while let Some(t) = self.stack.pop() {
            let new = tail(ctx, assignment, &self.tails, t);
            if new != self.tails[t.0] {
                self.tails[t.0] = new;
                self.stack.extend(preds(t));
            }
        }
    }

    /// Makes the last evaluated candidate, of makespan `cost`, the
    /// accepted state. The candidate must not have been cut.
    fn accept(&mut self, cost: f64) {
        if self.changed {
            std::mem::swap(&mut self.accepted, &mut self.candidate);
        }
        self.cost = cost;
    }

    /// Decodes (priority, assignment) into the context and the candidate
    /// trace. The first `p` commits are replayed from the accepted trace
    /// as plain placements; from step `p` on, the highest-priority ready
    /// task is committed to its assigned device at its EFT. `p = 0` is
    /// the full decode. Returns the makespan in seconds, as
    /// [`Schedule::makespan`] would report it.
    ///
    /// A candidate decode, `stop = Some((moved task, cutoff))`, may end
    /// early, leaving the context and trace partial:
    ///
    /// * once the committed set and every committed slot equal the
    ///   accepted trace's and the moved task is committed, what is left
    ///   to decode is the accepted trace's own remainder (same timelines,
    ///   same ready set, same priorities and devices), so its commits are
    ///   copied and the context and trace end complete;
    /// * once the makespan bound, the largest committed finish plus
    ///   tail, exceeds the cutoff, the decode returns `None`. The EFTs
    ///   it skips cannot hold a routing error: the seed's upward ranks
    ///   average transfers over every device pair, so a platform with an
    ///   unroutable pair fails the search before any candidate.
    fn decode(
        &mut self,
        priority: &[f64],
        assignment: &[DeviceId],
        p: usize,
        stop: Option<(TaskId, f64)>,
    ) -> Result<Option<f64>, SchedError> {
        let (wf, ctx, prev, out) = (self.wf, &mut self.ctx, &self.accepted, &mut self.candidate);
        let (indegree, ready) = (&mut self.indegree, &mut self.ready);
        let (moved, cutoff) = stop.map_or((None, f64::INFINITY), |(t, c)| (Some(t), c));
        let n = wf.num_tasks();
        ctx.reset();
        out.order.clear();
        out.pos.resize(n, 0);
        out.ready_at.clear();
        out.ready_at.resize(n, 0);
        out.slot
            .resize(n, (DeviceId(0), SimTime::ZERO, SimTime::ZERO));
        indegree.clear();
        indegree.extend((0..n).map(|i| wf.predecessors(TaskId(i)).len()));
        ready.clear();
        let mut makespan = SimTime::ZERO;
        let mut bound = 0.0f64;
        // Tasks from step `p` on committed by only one of the candidate
        // and the accepted trace, or by both into different slots.
        let mut mismatched = 0usize;
        for step in 0..n {
            let (task, dev, start, finish) = if step < p {
                let task = prev.order[step];
                let (dev, start, finish) = prev.slot[task.0];
                (task, dev, start, finish)
            } else {
                if step == 0 {
                    // The seed decode has no accepted trace to read.
                    ready.extend(
                        (0..n)
                            .filter(|&i| indegree[i] == 0)
                            .map(|i| key(priority[i], TaskId(i))),
                    );
                } else if step == p {
                    // The ready set after the replayed prefix: the tasks
                    // the accepted trace commits from step `p` on but
                    // readied before it.
                    ready.extend(
                        prev.order[p..]
                            .iter()
                            .filter(|t| prev.ready_at[t.0] <= p)
                            .map(|&t| key(priority[t.0], t)),
                    );
                }
                let Some((_, Reverse(task))) = ready.pop() else {
                    break;
                };
                let dev = assignment[task.0];
                // Every task sits on its assigned device, so a candidate
                // takes its transfers from the table. The full decodes
                // ask the context: the last one decodes another
                // assignment.
                let table_ready = || {
                    wf.predecessors(task)
                        .iter()
                        .try_fold(SimTime::ZERO, |ready, &e| {
                            Some(ready.max(out.slot[wf.edge(e).src.0].2 + self.transfers[e.0]?))
                        })
                };
                let (start, finish) = match moved.and_then(|_| table_ready()) {
                    Some(ready) => ctx.eft_after(task, dev, ready),
                    None => ctx.eft(task, dev)?,
                };
                (task, dev, start, finish)
            };
            ctx.place(task, dev, start, finish)?;
            out.order.push(task);
            out.pos[task.0] = step;
            out.slot[task.0] = (dev, start, finish);
            makespan = makespan.max(finish);
            for s in wf.successor_tasks(task) {
                indegree[s.0] -= 1;
                if indegree[s.0] == 0 {
                    out.ready_at[s.0] = step + 1;
                    if step >= p {
                        ready.push(key(priority[s.0], s));
                    }
                }
            }
            bound = bound.max(finish.as_secs() + self.tails[task.0]);
            if bound > cutoff {
                #[cfg(test)]
                {
                    self.skips.cut += 1;
                }
                return Ok(None);
            }
            let Some(moved) = moved.filter(|_| step >= p) else {
                continue;
            };
            // `task` joins the candidate's committed set and `other` the
            // accepted trace's. A task the other side committed earlier
            // now counts only if its two slots differ; a task on one side
            // only counts.
            let other = prev.order[step];
            let same = |t: TaskId| out.slot[t.0] == prev.slot[t.0];
            if task == other {
                mismatched += usize::from(!same(task));
            } else {
                for (t, on_both_sides) in [
                    (task, prev.pos[task.0] < step),
                    (other, ctx.placement(other).is_some()),
                ] {
                    match (on_both_sides, same(t)) {
                        (true, true) => mismatched -= 1,
                        (true, false) => {}
                        (false, _) => mismatched += 1,
                    }
                }
            }
            if mismatched == 0 && ctx.placement(moved).is_some() {
                for k in step + 1..n {
                    let t = prev.order[k];
                    let (dev, start, finish) = prev.slot[t.0];
                    ctx.place(t, dev, start, finish)?;
                    out.order.push(t);
                    out.pos[t.0] = k;
                    out.slot[t.0] = prev.slot[t.0];
                    makespan = makespan.max(finish);
                    // Tasks already ready keep the step they became
                    // ready at here.
                    if indegree[t.0] > 0 {
                        out.ready_at[t.0] = prev.ready_at[t.0];
                    }
                }
                #[cfg(test)]
                {
                    self.skips.reconverged += 1;
                }
                return Ok(Some(makespan.saturating_since(SimTime::ZERO).as_secs()));
            }
        }
        // Exactly the tasks that never became ready are unplaced.
        if let Some(i) = indegree.iter().position(|&d| d > 0) {
            return Err(SchedError::Unscheduled(TaskId(i)));
        }
        Ok(Some(makespan.saturating_since(SimTime::ZERO).as_secs()))
    }
}

impl AnnealingScheduler {
    /// Runs the search and decodes its best state into the returned
    /// decoder's context.
    fn search<'a>(
        &self,
        wf: &'a Workflow,
        platform: &'a Platform,
    ) -> Result<Decoder<'a>, SchedError> {
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
        let mut decoder = Decoder::new(wf, platform, &priority, &assignment)?;
        // The best candidate becomes a `Schedule` once, after the search.
        let (mut best_priority, mut best_assignment) = (priority.clone(), assignment.clone());
        let mut best_cost = decoder.cost;

        let t0 = 0.05 * decoder.cost.max(1e-12);
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

            let current_cost = decoder.cost;
            // The draw `chance` takes below for a worse candidate, read
            // ahead: it fixes the cost from which the candidate loses.
            let u = rng.clone().uniform(0.0, 1.0);
            let cost = decoder.evaluate(
                &priority,
                &assignment,
                task,
                old_prio,
                move_device,
                cutoff(current_cost, temp, u),
            )?;
            let accepted = match cost {
                Some(cost) => (cost <= current_cost
                    || rng.chance(((current_cost - cost) / temp).exp().min(1.0)))
                .then_some(cost),
                // A cut candidate is worse: it takes its draw and loses.
                None => {
                    rng.uniform(0.0, 1.0);
                    None
                }
            };
            if let Some(cost) = accepted {
                decoder.accept(cost);
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
        decoder.decode(&best_priority, &best_assignment, 0, None)?;
        Ok(decoder)
    }
}

impl Scheduler for AnnealingScheduler {
    fn name(&self) -> &str {
        "annealing"
    }

    fn schedule(&self, wf: &Workflow, platform: &Platform) -> Result<Schedule, SchedError> {
        self.search(wf, platform)?.ctx.into_schedule()
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

    /// One move of the differential test: raise, lower, or clamp a
    /// priority to 0 (which leaves a zero priority unchanged), or move a
    /// task to another feasible device.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        Device,
        Raise,
        Lower,
        Clamp,
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random move sequences, each accepted or rejected: decoding a
        /// candidate from the accepted trace's unchanged prefix gives the
        /// makespan bits, placements and trace of a fresh full decode,
        /// and a move judged to change nothing leaves a fresh decode's
        /// commit order equal to the trace's. That holds for decodes that
        /// stop at re-convergence too. Each move gets a random finite
        /// cutoff; a candidate cut there must be one the exact Metropolis
        /// comparison rejects.
        #[test]
        fn prefix_reuse_matches_a_full_decode(
            family in 0usize..5,
            preset in 0usize..4,
            seed in 0u64..1_000,
            moves in proptest::prop::collection::vec(0u64..u64::MAX, 1..80),
            judge_seed in 0u64..u64::MAX,
        ) {
            use helios_workflow::generators::WorkflowClass;
            let platform = [
                presets::workstation(),
                presets::hpc_node(),
                presets::cluster(4),
                presets::edge_soc(),
            ][preset]
                .clone();
            let wf = WorkflowClass::ALL[family].generate(30, seed).unwrap();
            let Ok(heft) = HeftScheduler::default().schedule(&wf, &platform) else {
                return; // infeasible pairing
            };
            let n = wf.num_tasks();
            let mut assignment = vec![DeviceId(0); n];
            for p in heft.placements() {
                assignment[p.task.0] = p.device;
            }
            let mut priority = analysis::bottom_levels(&wf, &platform).unwrap();
            let span = priority.iter().fold(0.0f64, |a, &b| a.max(b)).max(1e-12);

            let mut decoder = Decoder::new(&wf, &platform, &priority, &assignment).unwrap();
            let mut judge = SimRng::seed_from(judge_seed);
            for bits in moves {
                // One draw per move: its kind, task, size and verdict.
                let kind = [Move::Device, Move::Raise, Move::Lower, Move::Clamp][(bits % 4) as usize];
                let pick = (bits >> 2) as usize % 1_000;
                let magnitude = ((bits >> 12) % 3_000) as f64 / 1_000.0;
                let accept = (bits >> 32) & 1 == 1;
                // Clamps hit a few tasks, so some find their priority at 0.
                let task = TaskId(if matches!(kind, Move::Clamp) { pick % 3 } else { pick % n });
                let (old_dev, old_prio) = (assignment[task.0], priority[task.0]);
                let step = span * 10f64.powf(-magnitude);
                match kind {
                    Move::Device => {
                        let feasible: Vec<DeviceId> = platform
                            .devices()
                            .iter()
                            .filter(|d| d.id() != old_dev && crate::placement_feasible(d, wf.task(task).unwrap()))
                            .map(|d| d.id())
                            .collect();
                        let Some(&dev) = feasible.get(pick % feasible.len().max(1)) else {
                            continue;
                        };
                        assignment[task.0] = dev;
                    }
                    Move::Raise => priority[task.0] = old_prio + step,
                    Move::Lower => priority[task.0] = (old_prio - step).max(0.0),
                    Move::Clamp => priority[task.0] = (old_prio - 2.0 * span).max(0.0),
                }
                let device_moved = matches!(kind, Move::Device);
                let (current, temp) = (decoder.cost, decoder.cost * 10f64.powf(-judge.uniform(0.0, 4.0)));
                let u = 1.0 - judge.uniform(0.0, 1.0);
                let got = decoder
                    .evaluate(&priority, &assignment, task, old_prio, device_moved, cutoff(current, temp, u))
                    .unwrap();
                let fresh = Decoder::new(&wf, &platform, &priority, &assignment).unwrap();
                // What the decoder keeps per assignment is the fresh one.
                proptest::prop_assert_eq!(&decoder.tails, &fresh.tails);
                proptest::prop_assert_eq!(&decoder.transfers, &fresh.transfers);
                let Some(got) = got else {
                    let cost = fresh.cost;
                    proptest::prop_assert!(
                        !(cost <= current || u < ((current - cost) / temp).exp().min(1.0)),
                        "cut a candidate of cost {} the draw {} accepts from {} at {}",
                        cost, u, current, temp
                    );
                    assignment[task.0] = old_dev;
                    priority[task.0] = old_prio;
                    continue;
                };
                proptest::prop_assert_eq!(got.to_bits(), fresh.cost.to_bits());
                // An unchanged move decodes nothing: the accepted trace
                // must already be the fresh one.
                let trace = if decoder.changed { &decoder.candidate } else { &decoder.accepted };
                proptest::prop_assert_eq!(&trace.order, &fresh.accepted.order);
                proptest::prop_assert_eq!(&trace.pos, &fresh.accepted.pos);
                proptest::prop_assert_eq!(&trace.ready_at, &fresh.accepted.ready_at);
                proptest::prop_assert_eq!(&trace.slot, &fresh.accepted.slot);
                if decoder.changed {
                    for t in (0..n).map(TaskId) {
                        proptest::prop_assert_eq!(decoder.ctx.placement(t), fresh.ctx.placement(t));
                    }
                }
                if accept {
                    decoder.accept(got);
                } else {
                    assignment[task.0] = old_dev;
                    priority[task.0] = old_prio;
                }
            }
        }
    }

    #[test]
    fn both_skips_fire_on_a_grid_instance() {
        let p = presets::hpc_node();
        let wf = montage(100, 0).unwrap();
        let decoder = AnnealingScheduler::new(500, 0).search(&wf, &p).unwrap();
        let Skips { reconverged, cut } = decoder.skips;
        assert!(
            reconverged > 0 && cut > 0,
            "reconverged {reconverged}, cut {cut}"
        );
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
