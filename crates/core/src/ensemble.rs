//! Workflow ensembles: orchestrating several workflows on one platform.
//!
//! Scientific discovery campaigns rarely run one DAG at a time — they
//! submit *ensembles*: parameter sweeps, observation batches, or
//! pipelines from several instruments arriving over time. The
//! [`EnsembleRunner`] shares the platform between members under a
//! configurable [`EnsemblePolicy`], dispatching just-in-time like
//! [`OnlineRunner`](crate::OnlineRunner) but with release-time gating
//! and inter-member arbitration.

use helios_energy::account;
use helios_platform::{DeviceId, Platform};
use helios_sched::{Placement, Schedule};
use helios_sim::{EventQueue, SimDuration, SimRng, SimTime};
use helios_workflow::{analysis, TaskId, Workflow};

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::exec::{fault_occupancy, noise_factor, slowdown_factor, LinkState};
use crate::report::TransferStats;

/// One workflow in an ensemble.
#[derive(Debug, Clone)]
pub struct EnsembleMember {
    /// The member's DAG.
    pub workflow: Workflow,
    /// When the member is submitted (its entry tasks cannot start
    /// earlier).
    pub arrival: SimTime,
    /// Relative importance under [`EnsemblePolicy::Priority`]; larger
    /// wins.
    pub priority: f64,
}

/// How the runner arbitrates between members competing for devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnsemblePolicy {
    /// Earlier-arrived members go first (ties by member index).
    #[default]
    Fifo,
    /// Higher-priority members go first.
    Priority,
    /// The member with the smallest fraction of completed work goes
    /// first — a max-min fair share of platform throughput.
    FairShare,
}

impl EnsemblePolicy {
    /// A short stable name for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EnsemblePolicy::Fifo => "fifo",
            EnsemblePolicy::Priority => "priority",
            EnsemblePolicy::FairShare => "fair-share",
        }
    }
}

/// Per-member outcome of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberReport {
    /// First task start.
    pub started: SimTime,
    /// Last task finish.
    pub finished: SimTime,
    /// `finished − arrival`: what the submitting scientist experiences.
    pub turnaround: SimDuration,
    /// The member's realized placements.
    pub schedule: Schedule,
}

/// Outcome of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleReport {
    /// Per-member results, in submission order.
    pub members: Vec<MemberReport>,
    /// Finish of the last task across members.
    pub makespan: SimDuration,
    /// Mean member turnaround.
    pub mean_turnaround: SimDuration,
    /// Total platform energy over the run.
    pub total_energy_j: f64,
    /// Aggregate transfer statistics.
    pub transfers: TransferStats,
    /// Injected faults, summed over tasks.
    pub failures: u32,
    /// Retries performed, summed over tasks.
    pub retries: u32,
}

/// Executes workflow ensembles with just-in-time dispatch.
#[derive(Debug, Clone)]
pub struct EnsembleRunner {
    config: EngineConfig,
    policy: EnsemblePolicy,
}

impl EnsembleRunner {
    /// Creates a runner.
    #[must_use]
    pub fn new(config: EngineConfig, policy: EnsemblePolicy) -> EnsembleRunner {
        EnsembleRunner { config, policy }
    }

    /// Runs the ensemble to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for an empty ensemble, or
    /// propagates model/dispatch errors.
    pub fn run(
        &self,
        platform: &Platform,
        members: &[EnsembleMember],
    ) -> Result<EnsembleReport, EngineError> {
        self.config.validate_for(platform)?;
        if members.is_empty() {
            return Err(EngineError::Config("ensemble has no members".into()));
        }

        // Flatten: global task index = (member, local id).
        let mut owner: Vec<usize> = Vec::new();
        let mut local: Vec<TaskId> = Vec::new();
        let mut base: Vec<usize> = Vec::with_capacity(members.len());
        for (m, member) in members.iter().enumerate() {
            base.push(owner.len());
            for i in 0..member.workflow.num_tasks() {
                owner.push(m);
                local.push(TaskId(i));
            }
        }
        let n = owner.len();
        let member_work: Vec<f64> = members
            .iter()
            .map(|m| m.workflow.total_gflop().max(1e-12))
            .collect();
        // Priorities inside a member: upward rank.
        let mut rank = vec![0.0f64; n];
        for (m, member) in members.iter().enumerate() {
            let levels = analysis::bottom_levels(&member.workflow, platform)?;
            for (i, &r) in levels.iter().enumerate() {
                rank[base[m] + i] = r;
            }
        }

        let gid = |m: usize, t: TaskId| base[m] + t.0;
        let mut preds_left: Vec<usize> = (0..n)
            .map(|g| members[owner[g]].workflow.predecessors(local[g]).len())
            .collect();
        let mut released = vec![false; n];
        let mut ready: Vec<usize> = Vec::new();
        let mut device_idle = vec![true; platform.num_devices()];
        let mut device_free_pred = vec![SimTime::ZERO; platform.num_devices()];
        let mut producer_device = vec![DeviceId(0); n];
        let mut realized: Vec<Option<Placement>> = vec![None; n];
        let mut done_work = vec![0.0f64; members.len()];

        let view = self.config.fault_view()?;
        let base_rng = SimRng::seed_from(self.config.seed);
        let mut links = LinkState::new(platform);
        let mut stats = TransferStats::default();
        let (mut failures, mut retries) = (0u32, 0u32);
        let mut completed = 0usize;

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Ev {
            Finish(usize),
            Release(usize),
        }
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for (m, member) in members.iter().enumerate() {
            for t in member.workflow.entry_tasks() {
                queue.push(member.arrival, Ev::Release(gid(m, t)));
            }
        }

        // Member-level arbitration key: smaller sorts first.
        let member_key = |m: usize, done_work: &[f64]| -> f64 {
            match self.policy {
                EnsemblePolicy::Fifo => members[m].arrival.as_secs(),
                EnsemblePolicy::Priority => -members[m].priority,
                EnsemblePolicy::FairShare => done_work[m] / member_work[m],
            }
        };

        macro_rules! dispatch {
            ($now:expr) => {{
                let now: SimTime = $now;
                'rounds: loop {
                    if ready.is_empty() || !device_idle.iter().any(|&i| i) {
                        break;
                    }
                    // Order ready tasks: member key, then rank.
                    let mut order = ready.clone();
                    order.sort_by(|&a, &b| {
                        member_key(owner[a], &done_work)
                            .total_cmp(&member_key(owner[b], &done_work))
                            .then(rank[b].total_cmp(&rank[a]))
                            .then(a.cmp(&b))
                    });
                    for g in order {
                        let wf = &members[owner[g]].workflow;
                        let task = local[g];
                        let cost = wf.task(task)?.cost();
                        let mut best: Option<(DeviceId, f64)> = None;
                        for d in 0..platform.num_devices() {
                            let dev = DeviceId(d);
                            let device = platform.device(dev)?;
                            if !helios_sched::placement_feasible(device, wf.task(task)?) {
                                continue;
                            }
                            let est = now.max(device_free_pred[d]);
                            let mut data_at = est;
                            for &e in wf.predecessors(task) {
                                let edge = wf.edge(e);
                                let t = platform.transfer_time(
                                    edge.bytes,
                                    producer_device[gid(owner[g], edge.src)],
                                    dev,
                                )?;
                                data_at = data_at.max(est + t);
                            }
                            let exec = device.execution_time(cost, device.nominal_level())?;
                            let score = (data_at + exec).as_secs();
                            if best.map_or(true, |(_, b)| score < b) {
                                best = Some((dev, score));
                            }
                        }
                        let (dev, _) = best.ok_or(EngineError::Sched(
                            helios_sched::SchedError::NoFeasibleDevice(task),
                        ))?;
                        if !device_idle[dev.0] {
                            continue; // wait for the preferred device
                        }
                        ready.retain(|&r| r != g);
                        device_idle[dev.0] = false;
                        let mut start = now;
                        for &e in wf.predecessors(task) {
                            let edge = wf.edge(e);
                            let arrival = links.transfer_arrival(
                                platform,
                                self.config.link_contention,
                                edge.bytes,
                                producer_device[gid(owner[g], edge.src)],
                                dev,
                                now,
                                &mut stats,
                                None,
                            )?;
                            start = start.max(arrival);
                        }
                        let device = platform.device(dev)?;
                        let modeled = device.execution_time(cost, device.nominal_level())?;
                        // Streams are keyed by the *global* task index,
                        // so each member task keeps its own draw.
                        let noise = noise_factor(self.config.noise_cv, &base_rng, g);
                        let slow = slowdown_factor(self.config.device_slowdown.as_ref(), dev.0);
                        let occ = fault_occupancy(
                            view.as_ref(),
                            &base_rng,
                            g,
                            modeled * noise * slow,
                            task,
                        )?;
                        failures += occ.failures;
                        retries += occ.retries;
                        let finish = start + occ.total;
                        device_free_pred[dev.0] = start + modeled;
                        realized[g] = Some(Placement {
                            task,
                            device: dev,
                            level: device.nominal_level(),
                            start,
                            finish,
                        });
                        producer_device[g] = dev;
                        queue.push(finish, Ev::Finish(g));
                        continue 'rounds;
                    }
                    break;
                }
            }};
        }

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Release(g) => {
                    released[g] = true;
                    if preds_left[g] == 0 {
                        ready.push(g);
                    }
                    dispatch!(now);
                }
                Ev::Finish(g) => {
                    completed += 1;
                    let m = owner[g];
                    let wf = &members[m].workflow;
                    done_work[m] += wf.task(local[g])?.cost().gflop();
                    let dev = realized[g].expect("placed before finishing").device;
                    device_idle[dev.0] = true;
                    for succ in wf.successor_tasks(local[g]) {
                        let sg = gid(m, succ);
                        preds_left[sg] -= 1;
                        released[sg] = true;
                        if preds_left[sg] == 0 {
                            ready.push(sg);
                        }
                    }
                    dispatch!(now);
                }
            }
        }

        if completed != n {
            return Err(EngineError::Stalled {
                completed,
                total: n,
            });
        }

        // Assemble per-member reports.
        let mut reports = Vec::with_capacity(members.len());
        let mut overall_finish = SimTime::ZERO;
        let mut turnaround_sum = SimDuration::ZERO;
        let mut total_energy = 0.0;
        for (m, member) in members.iter().enumerate() {
            let placements: Vec<Placement> = (0..member.workflow.num_tasks())
                .map(|i| realized[base[m] + i].expect("all completed"))
                .collect();
            let started = placements
                .iter()
                .map(|p| p.start)
                .min()
                .unwrap_or(member.arrival);
            let finished = placements
                .iter()
                .map(|p| p.finish)
                .max()
                .unwrap_or(member.arrival);
            overall_finish = overall_finish.max(finished);
            let turnaround = finished.saturating_since(member.arrival);
            turnaround_sum += turnaround;
            let schedule = Schedule::new(placements)?;
            // Active energy only: idle attribution across members is not
            // well-defined, so the ensemble total reports actives plus a
            // single platform idle computed below.
            total_energy += account(&schedule, &member.workflow, platform, false)?.active_j;
            reports.push(MemberReport {
                started,
                finished,
                turnaround,
                schedule,
            });
        }
        Ok(EnsembleReport {
            mean_turnaround: turnaround_sum / members.len() as f64,
            makespan: overall_finish.saturating_since(SimTime::ZERO),
            total_energy_j: total_energy,
            transfers: stats,
            failures,
            retries,
            members: reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_platform::presets;
    use helios_workflow::generators::{cybershake, montage};

    fn member(wf: Workflow, arrival: f64, priority: f64) -> EnsembleMember {
        EnsembleMember {
            workflow: wf,
            arrival: SimTime::from_secs(arrival),
            priority,
        }
    }

    #[test]
    fn empty_ensemble_rejected() {
        let p = presets::workstation();
        let r = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo);
        assert!(matches!(r.run(&p, &[]), Err(EngineError::Config(_))));
    }

    #[test]
    fn single_member_completes_like_online() {
        let p = presets::hpc_node();
        let wf = montage(50, 1).unwrap();
        let members = [member(wf.clone(), 0.0, 1.0)];
        let report = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
            .run(&p, &members)
            .unwrap();
        assert_eq!(report.members.len(), 1);
        assert_eq!(
            report.members[0].schedule.placements().len(),
            wf.num_tasks()
        );
        assert!(report.makespan.as_secs() > 0.0);
        assert_eq!(report.mean_turnaround, report.members[0].turnaround);
    }

    #[test]
    fn arrivals_gate_start_times() {
        let p = presets::hpc_node();
        let members = [
            member(montage(40, 1).unwrap(), 0.0, 1.0),
            member(montage(40, 2).unwrap(), 5.0, 1.0),
        ];
        let report = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
            .run(&p, &members)
            .unwrap();
        assert!(report.members[1].started >= SimTime::from_secs(5.0));
        assert!(report.members[0].started < SimTime::from_secs(1.0));
    }

    #[test]
    fn priority_policy_prefers_the_vip() {
        let p = presets::workstation();
        // Two identical members arriving together; the VIP should finish
        // no later than it does under FIFO-as-second.
        let wf = cybershake(60, 3).unwrap();
        let both = |policy, prio0: f64, prio1: f64| {
            let members = [
                member(wf.clone(), 0.0, prio0),
                member(wf.clone(), 0.0, prio1),
            ];
            EnsembleRunner::new(EngineConfig::default(), policy)
                .run(&p, &members)
                .unwrap()
        };
        let vip_second = both(EnsemblePolicy::Priority, 1.0, 10.0);
        // Member 1 is the VIP: its turnaround beats member 0's.
        assert!(
            vip_second.members[1].turnaround <= vip_second.members[0].turnaround,
            "VIP {} vs commoner {}",
            vip_second.members[1].turnaround,
            vip_second.members[0].turnaround
        );
    }

    #[test]
    fn fair_share_balances_turnarounds() {
        let p = presets::workstation();
        let members = [
            member(cybershake(60, 1).unwrap(), 0.0, 1.0),
            member(cybershake(60, 2).unwrap(), 0.0, 1.0),
        ];
        let fifo = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::Fifo)
            .run(&p, &members)
            .unwrap();
        let fair = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::FairShare)
            .run(&p, &members)
            .unwrap();
        let spread = |r: &EnsembleReport| {
            (r.members[0].turnaround.as_secs() - r.members[1].turnaround.as_secs()).abs()
        };
        assert!(
            spread(&fair) <= spread(&fifo) + 1e-9,
            "fair share should not widen the turnaround gap: fair {} fifo {}",
            spread(&fair),
            spread(&fifo)
        );
        // Everything still completes.
        for r in [&fifo, &fair] {
            for m in &r.members {
                assert_eq!(m.schedule.placements().len(), 60);
            }
        }
    }

    #[test]
    fn fault_tally_counts_injected_failures() {
        use crate::ResilienceConfig;
        let p = presets::hpc_node();
        let members = [
            member(montage(40, 1).unwrap(), 0.0, 1.0),
            member(cybershake(40, 2).unwrap(), 0.5, 1.0),
        ];
        let run = |resilience| {
            let config = EngineConfig {
                resilience,
                ..EngineConfig::default()
            };
            EnsembleRunner::new(config, EnsemblePolicy::Fifo)
                .run(&p, &members)
                .unwrap()
        };
        let clean = run(None);
        assert_eq!((clean.failures, clean.retries), (0, 0));
        let faulty = run(Some(ResilienceConfig::flat_retry(0.05, 0.01, 1_000)));
        assert!(faulty.failures > 0, "no fault injected");
        // Flat retry retries every failure it survives.
        assert_eq!(faulty.retries, faulty.failures);
    }

    #[test]
    fn member_precedence_is_respected() {
        let p = presets::hpc_node();
        let members = [
            member(montage(40, 5).unwrap(), 0.0, 1.0),
            member(cybershake(40, 6).unwrap(), 0.01, 2.0),
        ];
        let report = EnsembleRunner::new(EngineConfig::default(), EnsemblePolicy::FairShare)
            .run(&p, &members)
            .unwrap();
        for (m, rep) in report.members.iter().enumerate() {
            let wf = &members[m].workflow;
            for pl in rep.schedule.placements() {
                for &e in wf.predecessors(pl.task) {
                    let edge = wf.edge(e);
                    let pred = rep.schedule.placement(edge.src).unwrap();
                    assert!(
                        pred.finish.as_secs() <= pl.start.as_secs() + 1e-9,
                        "member {m}: {} before {}",
                        pl.task,
                        edge.src
                    );
                }
            }
        }
    }
}
