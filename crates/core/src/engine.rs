//! The simulated plan executor.

use helios_platform::{DeviceId, DvfsLevel, Platform};
use helios_sched::{Placement, Schedule, Scheduler};
use helios_sim::trace::Trace;
use helios_sim::{EventQueue, SimRng, SimTime};
use helios_workflow::{TaskId, Workflow};

use crate::config::{EngineConfig, FaultView};
use crate::error::EngineError;
use crate::exec::{
    drive, fault_occupancy, finish_report, noise_factor, slowdown_factor, BudgetPoint,
    DeliveredCache, Hooks, LinkState,
};
use crate::report::{ExecutionReport, TransferStats};

/// The `helios` execution engine: runs workflows in simulated time under
/// a static plan, modeling noise, link contention and faults.
///
/// Under the default (ideal) [`EngineConfig`], executing a plan
/// reproduces the plan's timing exactly; every non-ideality moves the
/// realized schedule away from it, which is precisely what the
/// evaluation experiments measure.
///
/// The engine is the static-plan hook set over the execution core
/// ([`crate::exec`]): its [`Hooks`] implementation owns the
/// arrival/finish event vocabulary and the head-of-queue dispatch rule,
/// while the step loop, occupancy math, transfer staging, residency
/// caching and report accounting are the core's single copy.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// One input data product arrived at the consumer's device.
    Arrival(TaskId),
    /// A task finished on its device.
    Finish(TaskId),
}

impl Engine {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        Engine { config }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Plans with `scheduler`, then executes the plan.
    ///
    /// # Errors
    ///
    /// Propagates planning and execution errors.
    pub fn run(
        &self,
        platform: &Platform,
        wf: &Workflow,
        scheduler: &dyn Scheduler,
    ) -> Result<ExecutionReport, EngineError> {
        let plan = scheduler.schedule(wf, platform)?;
        self.execute_plan(platform, wf, &plan)
    }

    /// Executes a precomputed plan: device assignments, per-device order
    /// and DVFS levels are honored; times are re-derived event by event
    /// under the configured non-idealities.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::RetriesExhausted`] under fault injection
    /// when a task exceeds its retry budget, or propagates model errors.
    pub fn execute_plan(
        &self,
        platform: &Platform,
        wf: &Workflow,
        plan: &Schedule,
    ) -> Result<ExecutionReport, EngineError> {
        self.config.validate_for(platform)?;
        let mut exec = PlanExec::new(&self.config, platform, wf, plan)?;
        // Kick off: every device tries its queue head at t = 0.
        for d in 0..platform.num_devices() {
            exec.try_start(DeviceId(d), SimTime::ZERO)?;
        }
        drive(&mut exec)?;
        finish_report(
            platform,
            wf,
            exec.realized,
            exec.trace,
            exec.stats,
            exec.failures,
            exec.retries,
        )
    }
}

/// The static-plan hook set: per-device plan queues dispatched
/// head-first, with arrivals and finishes as the only events.
///
/// All per-device state lives in device-indexed arenas (the plan's
/// devices are dense platform indices), and per-task noise is drawn up
/// front from each task's dedicated stream — both byte-identical to the
/// map-keyed, fork-per-start layout they replaced, since device
/// iteration order and the noise streams are unchanged.
struct PlanExec<'a> {
    config: &'a EngineConfig,
    platform: &'a Platform,
    wf: &'a Workflow,
    view: Option<FaultView>,
    base_rng: SimRng,
    device_queue: Vec<Vec<TaskId>>,
    device_pos: Vec<usize>,
    device_busy: Vec<bool>,
    assigned_device: Vec<DeviceId>,
    level: Vec<DvfsLevel>,
    noise: Vec<f64>,
    inputs_pending: Vec<usize>,
    started: Vec<bool>,
    realized: Vec<Option<Placement>>,
    links: LinkState,
    stats: TransferStats,
    failures: u32,
    retries: u32,
    trace: Option<Trace>,
    delivered: DeliveredCache,
    queue: EventQueue<Event>,
    /// Scratch for one finish's outgoing arrivals, staged then
    /// bulk-pushed; reused across events to avoid per-step allocation.
    arrivals: Vec<(SimTime, TaskId)>,
    completed: usize,
}

impl<'a> PlanExec<'a> {
    fn new(
        config: &'a EngineConfig,
        platform: &'a Platform,
        wf: &'a Workflow,
        plan: &Schedule,
    ) -> Result<PlanExec<'a>, EngineError> {
        let n = wf.num_tasks();
        let nd = platform.num_devices();
        // Plan-derived structures, as dense device-indexed arenas.
        let mut device_queue: Vec<Vec<TaskId>> = vec![Vec::new(); nd];
        for (dev, q) in plan.tasks_by_device() {
            device_queue[dev.0] = q;
        }
        let mut assigned_device = vec![DeviceId(0); n];
        let mut level = vec![DvfsLevel(0); n];
        for p in plan.placements() {
            assigned_device[p.task.0] = p.device;
            level[p.task.0] = p.level;
        }
        let base_rng = SimRng::seed_from(config.seed);
        Ok(PlanExec {
            view: config.fault_view()?,
            trace: config.tracing.then(Trace::new),
            delivered: DeliveredCache::new(config.data_caching, n, nd),
            // Task-intrinsic noise: each task's factor comes from its own
            // stream, so drawing all of them up front replays the exact
            // values the per-start forks produced.
            noise: (0..n)
                .map(|t| noise_factor(config.noise_cv, &base_rng, t))
                .collect(),
            base_rng,
            config,
            platform,
            wf,
            device_queue,
            device_pos: vec![0; nd],
            device_busy: vec![false; nd],
            assigned_device,
            level,
            inputs_pending: (0..n).map(|i| wf.predecessors(TaskId(i)).len()).collect(),
            started: vec![false; n],
            realized: vec![None; n],
            links: LinkState::new(platform),
            stats: TransferStats::default(),
            failures: 0,
            retries: 0,
            queue: EventQueue::new(),
            arrivals: Vec::new(),
            completed: 0,
        })
    }

    /// A task starts when its inputs are at its device, it heads its
    /// device's plan queue, and the device is idle.
    fn try_start(&mut self, dev: DeviceId, now: SimTime) -> Result<(), EngineError> {
        if self.device_busy[dev.0] {
            return Ok(());
        }
        let pos = self.device_pos[dev.0];
        let q = &self.device_queue[dev.0];
        if pos >= q.len() {
            return Ok(());
        }
        let task = q[pos];
        if self.inputs_pending[task.0] != 0 || self.started[task.0] {
            return Ok(());
        }
        self.started[task.0] = true;
        self.device_busy[dev.0] = true;
        let device = self.platform.device(dev)?;
        let modeled = device.execution_time(self.wf.task(task)?.cost(), self.level[task.0])?;
        let noise = self.noise[task.0];
        let slow = slowdown_factor(self.config.device_slowdown.as_ref(), dev.0);
        let actual = modeled * noise * slow;
        let occ = fault_occupancy(self.view.as_ref(), &self.base_rng, task.0, actual, task)?;
        self.failures += occ.failures;
        self.retries += occ.retries;
        let finish = now + occ.total;
        self.realized[task.0] = Some(Placement {
            task,
            device: dev,
            level: self.level[task.0],
            start: now,
            finish,
        });
        self.queue.push(finish, Event::Finish(task));
        Ok(())
    }
}

impl Hooks for PlanExec<'_> {
    type Event = Event;

    fn budget(&self) -> Option<u64> {
        self.config.step_budget
    }

    fn budget_point(&self) -> BudgetPoint {
        BudgetPoint::AfterPop
    }

    fn completed(&self) -> usize {
        self.completed
    }

    fn total(&self) -> usize {
        self.wf.num_tasks()
    }

    fn exit_on_complete(&self) -> bool {
        false
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.queue.pop()
    }

    fn handle(&mut self, now: SimTime, event: Event) -> Result<(), EngineError> {
        match event {
            Event::Arrival(task) => {
                self.inputs_pending[task.0] -= 1;
                let dev = self.assigned_device[task.0];
                self.try_start(dev, now)
            }
            Event::Finish(task) => {
                self.completed += 1;
                let dev = self.assigned_device[task.0];
                self.device_busy[dev.0] = false;
                self.device_pos[dev.0] += 1;
                // Stage output transfers in edge order, then bulk-push:
                // a finish commonly fans out several same-timestamp
                // arrivals (cached or co-located consumers), which the
                // queue can sequence as one reserved batch. Staging
                // preserves the push order, so tie-break sequencing is
                // unchanged.
                let wf = self.wf;
                self.arrivals.clear();
                for &e in wf.successors(task) {
                    let edge = wf.edge(e);
                    let dst_dev = self.assigned_device[edge.dst.0];
                    if let Some(at) = self.delivered.lookup(task, dst_dev) {
                        // The product is already on (or en route to)
                        // that device: no second transfer.
                        self.arrivals.push((at.max(now), edge.dst));
                        continue;
                    }
                    // The transfer label is only rendered when a trace
                    // is actually recording.
                    let label = self
                        .trace
                        .is_some()
                        .then(|| format!("{}->{}", edge.src, edge.dst));
                    let arrival = self.links.transfer_arrival(
                        self.platform,
                        self.config.link_contention,
                        edge.bytes,
                        dev,
                        dst_dev,
                        now,
                        &mut self.stats,
                        self.trace
                            .as_mut()
                            .and_then(|t| label.as_deref().map(|l| (t, l))),
                    )?;
                    self.delivered.record(task, dst_dev, arrival);
                    self.arrivals.push((arrival, edge.dst));
                }
                let mut i = 0;
                while i < self.arrivals.len() {
                    let at = self.arrivals[i].0;
                    let mut j = i + 1;
                    while j < self.arrivals.len() && self.arrivals[j].0 == at {
                        j += 1;
                    }
                    self.queue.push_batch(
                        at,
                        self.arrivals[i..j]
                            .iter()
                            .map(|&(_, dst)| Event::Arrival(dst)),
                    );
                    i = j;
                }
                self.try_start(dev, now)
            }
        }
    }
}

#[cfg(test)]
#[path = "engine_tests.rs"]
mod tests;
