//! Simulated-annealing schedule refinement.

use std::cmp::{Ordering, Reverse};
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

/// The search's decoder: the accepted state's trace and makespan, and
/// the last evaluated candidate's. A candidate replays the accepted
/// commits its move cannot change instead of re-deriving their EFTs.
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
}

impl<'a> Decoder<'a> {
    /// Decodes the seed state in full and accepts it.
    fn new(
        wf: &'a Workflow,
        platform: &'a Platform,
        priority: &[f64],
        assignment: &[DeviceId],
    ) -> Result<Decoder<'a>, SchedError> {
        let mut decoder = Decoder {
            wf,
            ctx: SchedContext::new(wf, platform, true)?,
            accepted: Trace::default(),
            cost: 0.0,
            candidate: Trace::default(),
            // The seed decode lands in `candidate`; `accept` swaps it in.
            changed: true,
        };
        let cost = decoder.decode(priority, assignment, 0)?;
        decoder.accept(cost);
        Ok(decoder)
    }

    /// The makespan after one move on `task`: `priority` and `assignment`
    /// hold the moved state, `old_priority` the task's accepted one. The
    /// accepted commits before step `p` stay. A device move or a lowered
    /// priority first matters at the task's own step. A raised priority
    /// matters at the first step since the task became ready that
    /// committed a key below its new one; without one, the task still
    /// commits at its step, nothing changes and nothing is decoded.
    fn evaluate(
        &mut self,
        priority: &[f64],
        assignment: &[DeviceId],
        task: TaskId,
        old_priority: f64,
        device_moved: bool,
    ) -> Result<f64, SchedError> {
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
        if self.changed {
            self.decode(priority, assignment, p)
        } else {
            Ok(self.cost)
        }
    }

    /// Makes the last evaluated candidate, of makespan `cost`, the
    /// accepted state.
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
    fn decode(
        &mut self,
        priority: &[f64],
        assignment: &[DeviceId],
        p: usize,
    ) -> Result<f64, SchedError> {
        let (wf, ctx, prev, out) = (self.wf, &mut self.ctx, &self.accepted, &mut self.candidate);
        let n = wf.num_tasks();
        ctx.reset();
        out.order.clear();
        out.pos.resize(n, 0);
        out.ready_at.clear();
        out.ready_at.resize(n, 0);
        out.slot
            .resize(n, (DeviceId(0), SimTime::ZERO, SimTime::ZERO));
        let mut indegree: Vec<usize> = (0..n).map(|i| wf.predecessors(TaskId(i)).len()).collect();
        let mut ready: BinaryHeap<Key> = BinaryHeap::new();
        let mut makespan = SimTime::ZERO;
        for step in 0..n {
            let (task, dev, start, finish) = if step < p {
                let task = prev.order[step];
                let (dev, start, finish) = prev.slot[task.0];
                (task, dev, start, finish)
            } else {
                if step == p {
                    // The ready set after the replayed prefix.
                    ready.extend(
                        (0..n)
                            .filter(|&i| indegree[i] == 0 && ctx.placement(TaskId(i)).is_none())
                            .map(|i| key(priority[i], TaskId(i))),
                    );
                }
                let Some((_, Reverse(task))) = ready.pop() else {
                    break;
                };
                let dev = assignment[task.0];
                let (start, finish) = ctx.eft(task, dev)?;
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
        }
        // Exactly the tasks that never became ready are unplaced.
        if let Some(i) = indegree.iter().position(|&d| d > 0) {
            return Err(SchedError::Unscheduled(TaskId(i)));
        }
        Ok(makespan.saturating_since(SimTime::ZERO).as_secs())
    }
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
            let cost = decoder.evaluate(&priority, &assignment, task, old_prio, move_device)?;
            let accept =
                cost <= current_cost || rng.chance(((current_cost - cost) / temp).exp().min(1.0));
            if accept {
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
        decoder.decode(&best_priority, &best_assignment, 0)?;
        decoder.ctx.into_schedule()
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
        /// commit order equal to the trace's.
        #[test]
        fn prefix_reuse_matches_a_full_decode(
            family in 0usize..5,
            preset in 0usize..4,
            seed in 0u64..1_000,
            moves in proptest::prop::collection::vec(0u64..u64::MAX, 1..80),
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
                let got = decoder
                    .evaluate(&priority, &assignment, task, old_prio, device_moved)
                    .unwrap();
                let fresh = Decoder::new(&wf, &platform, &priority, &assignment).unwrap();
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
