//! Virtual-time execution of schedules and the end-to-end harness.
//!
//! Figure 4's makespans "included both the computational cost of the
//! scheduling algorithm (the scheduling time), and the time spent on
//! servicing the requests on the cameras (the service time)" — so
//! [`RunResult::total`] is the sum of the two, and Figure 5's breakdown
//! falls out of the parts.

use aorta_obs::MetricsRegistry;
use aorta_sim::{CpuModel, OpCounter, SimDuration, SimRng};

use crate::problem::UNCOSTABLE;
use crate::{Algorithm, CostModel, Instance, Plan, COST_ESTIMATE_OPS};

/// The outcome of running one scheduling algorithm on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Algorithm display name.
    pub algorithm: &'static str,
    /// Virtual compute time of the algorithm (op count / CPU model).
    pub sched_time: SimDuration,
    /// Time from service start until the last request finishes.
    pub service_makespan: SimDuration,
    /// Raw counted operations.
    pub ops: u64,
    /// Requests serviced (always *n* here — failure modelling lives in the
    /// engine, not the scheduler study).
    pub completed: usize,
    /// Per-device total busy time.
    pub per_device_busy: Vec<SimDuration>,
}

impl RunResult {
    /// The paper's makespan: scheduling time plus service makespan.
    pub fn total(&self) -> SimDuration {
        self.sched_time + self.service_makespan
    }

    /// Records this run into a metrics registry: per-algorithm schedule
    /// time and makespan histograms, a completed-request counter, and one
    /// per-lane busy-time gauge (virtual µs) for utilization analysis.
    pub fn record_into(&self, registry: &mut MetricsRegistry) {
        let alg = [("algorithm", self.algorithm)];
        registry.observe("aorta_sched_time", &alg, self.sched_time);
        registry.observe("aorta_sched_service_makespan", &alg, self.service_makespan);
        registry.incr("aorta_sched_completed", &alg, self.completed as u64);
        registry.incr("aorta_sched_ops", &alg, self.ops);
        for (lane, busy) in self.per_device_busy.iter().enumerate() {
            registry.gauge_set(
                "aorta_sched_lane_busy_us",
                &[("algorithm", self.algorithm), ("lane", &lane.to_string())],
                busy.as_micros() as i64,
            );
        }
    }
}

/// Services a plan in virtual time, returning per-device busy times.
///
/// Devices are independent once assignments are fixed ("there is no
/// connection or communication among the devices", §7), so static plans
/// simulate per device; the dynamic LS plan serializes assignment decisions
/// through a global idle-device loop.
pub fn execute_plan<M: CostModel>(
    inst: &Instance,
    model: &M,
    plan: &Plan,
    ops: &mut OpCounter,
) -> Vec<SimDuration> {
    match service_steps(plan, model, ops) {
        Some(lanes) => lanes
            .iter()
            .map(|steps| steps.iter().map(|&(_, cost)| cost).sum())
            .collect(),
        None => list_schedule(inst, model, ops),
    }
}

/// One serviced request: its index and its estimated cost from the status
/// the previous step left the device in.
pub type Step = (usize, SimDuration);

/// The order each device of a static plan services its lane in, with each
/// step's cost: [`Plan::Sequences`] lanes run as given,
/// [`Plan::ShortestFirstPerDevice`] lanes in SRFE order (Algorithm 1.2).
/// `None` for [`Plan::ListDynamic`], which has no lanes.
///
/// # Panics
///
/// Panics if a lane holds a pair the model cannot cost.
pub fn service_steps<M: CostModel>(
    plan: &Plan,
    model: &M,
    ops: &mut OpCounter,
) -> Option<Vec<Vec<Step>>> {
    let shortest_first = matches!(plan, Plan::ShortestFirstPerDevice(_));
    let lanes = plan.per_device()?.iter().enumerate();
    Some(
        lanes
            .map(|(d, lane)| {
                if shortest_first {
                    srfe(model, d, lane, ops)
                } else {
                    in_sequence(model, d, lane)
                }
            })
            .collect(),
    )
}

/// Services `sequence` on `device` in the given order.
fn in_sequence<M: CostModel>(model: &M, device: usize, sequence: &[usize]) -> Vec<Step> {
    let mut status = model.initial_status(device);
    sequence
        .iter()
        .map(|&r| {
            let cost = model.cost(r, device, &status).expect(UNCOSTABLE);
            status = model.next_status(r, device, &status);
            (r, cost)
        })
        .collect()
}

/// SRFE (Algorithm 1.2) on one device: repeatedly service the remaining
/// request with the least estimated cost *from the device's current
/// physical status*. A tie goes to the request found first in the
/// remaining list, which each step's swap-removal reorders. Returns the
/// chosen order with each step's cost; their sum is the device's busy time.
///
/// # Panics
///
/// Panics if `requests` holds a request the model cannot cost on `device`.
/// Costability must not depend on status (see [`CostModel::cost`]), so a
/// lane LERFA assigned never does.
fn srfe<M: CostModel>(
    model: &M,
    device: usize,
    requests: &[usize],
    ops: &mut OpCounter,
) -> Vec<Step> {
    let mut remaining: Vec<usize> = requests.to_vec();
    let mut status = model.initial_status(device);
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let mut best_idx = 0;
        let mut best_cost = SimDuration::MAX;
        for (i, &r) in remaining.iter().enumerate() {
            ops.add(COST_ESTIMATE_OPS);
            let c = model.cost(r, device, &status).expect(UNCOSTABLE);
            if c < best_cost {
                best_cost = c;
                best_idx = i;
            }
        }
        let r = remaining.swap_remove(best_idx);
        steps.push((r, best_cost));
        status = model.next_status(r, device, &status);
    }
    steps
}

/// Greedy list scheduling: the earliest-idle device takes the first (in
/// request order) eligible unscheduled request.
fn list_schedule<M: CostModel>(
    inst: &Instance,
    model: &M,
    ops: &mut OpCounter,
) -> Vec<SimDuration> {
    let m = inst.n_devices();
    let mut free_at = vec![SimDuration::ZERO; m];
    let mut status: Vec<M::Status> = (0..m).map(|d| model.initial_status(d)).collect();
    let mut scheduled = vec![false; inst.n_requests()];
    let mut active: Vec<bool> = vec![true; m];
    let mut left = inst.n_requests();

    while left > 0 {
        // The earliest-idle device still able to take work.
        let d = match (0..m)
            .filter(|&d| active[d])
            .min_by_key(|&d| (free_at[d], d))
        {
            Some(d) => d,
            None => unreachable!("Instance guarantees every request has a candidate"),
        };
        ops.tick();
        let next = (0..inst.n_requests()).find(|&r| !scheduled[r] && inst.is_eligible(r, d));
        match next {
            Some(r) => {
                ops.add(COST_ESTIMATE_OPS);
                let c = model.cost(r, d, &status[d]).expect(UNCOSTABLE);
                free_at[d] += c;
                status[d] = model.next_status(r, d, &status[d]);
                scheduled[r] = true;
                left -= 1;
            }
            None => active[d] = false,
        }
    }
    free_at
}

/// What became of the orphans of a failed device after re-queuing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OrphanOutcome {
    /// `(request, new_device)` pairs moved onto surviving lanes.
    pub requeued: Vec<(usize, usize)>,
    /// Requests with no surviving eligible device; the caller must report
    /// these as failed — they are never silently dropped.
    pub dropped: Vec<usize>,
    /// Requests whose cheapest surviving lane already finishes past their
    /// deadline: re-queuing them would spend device time on work that can
    /// only be cancelled at completion, so they are dropped as counted
    /// expiries instead of retried forever.
    pub expired: Vec<usize>,
}

/// Fails over a static plan after device `failed` dies: drains its lane and
/// re-assigns each orphaned request to the surviving eligible device whose
/// lane it lengthens the least (measured by [`CostModel::sequence_cost`] with
/// the orphan appended). Requests eligible only on the dead device are
/// returned in [`OrphanOutcome::dropped`].
///
/// [`Plan::ListDynamic`] carries no lanes to repair — the dynamic scheduler
/// re-assigns naturally — so it is a documented no-op here.
pub fn requeue_orphans<M: CostModel>(
    plan: &mut Plan,
    inst: &Instance,
    model: &M,
    failed: usize,
    ops: &mut OpCounter,
) -> OrphanOutcome {
    requeue_orphans_with_deadlines(plan, inst, model, failed, &[], ops)
}

/// Deadline-aware variant of [`requeue_orphans`]: `deadlines[r]` is request
/// `r`'s remaining completion budget on the plan's own clock (the one
/// [`CostModel::sequence_cost`] measures). An orphan whose cheapest
/// surviving lane would still finish past its budget lands in
/// [`OrphanOutcome::expired`] rather than being moved. A missing entry or
/// [`SimDuration::MAX`] means unbounded, so an empty slice reproduces
/// [`requeue_orphans`] exactly.
pub fn requeue_orphans_with_deadlines<M: CostModel>(
    plan: &mut Plan,
    inst: &Instance,
    model: &M,
    failed: usize,
    deadlines: &[SimDuration],
    ops: &mut OpCounter,
) -> OrphanOutcome {
    let lanes = match plan {
        Plan::Sequences(lanes) | Plan::ShortestFirstPerDevice(lanes) => lanes,
        Plan::ListDynamic => return OrphanOutcome::default(),
    };
    let mut outcome = OrphanOutcome::default();
    if failed >= lanes.len() {
        return outcome;
    }
    let orphans = std::mem::take(&mut lanes[failed]);
    for r in orphans {
        let budget = deadlines.get(r).copied().unwrap_or(SimDuration::MAX);
        let mut best: Option<(SimDuration, usize)> = None;
        for &d in inst.eligible(r) {
            if d == failed || d >= lanes.len() {
                continue;
            }
            ops.add(COST_ESTIMATE_OPS);
            let mut lane = lanes[d].clone();
            lane.push(r);
            let cost = model.sequence_cost(d, &lane);
            if best.is_none_or(|(bc, _)| cost < bc) {
                best = Some((cost, d));
            }
        }
        match best {
            Some((cost, _)) if cost > budget => outcome.expired.push(r),
            Some((_, d)) => {
                lanes[d].push(r);
                outcome.requeued.push((r, d));
            }
            None => outcome.dropped.push(r),
        }
    }
    outcome
}

/// Runs one algorithm end to end: schedule, validate, service, and convert
/// counted operations into virtual scheduling time.
pub fn run_algorithm<M: CostModel>(
    algorithm: &Algorithm,
    inst: &Instance,
    model: &M,
    cpu: &CpuModel,
    rng: &mut SimRng,
) -> RunResult {
    let mut ops = OpCounter::new();
    let plan = algorithm.schedule(inst, model, &mut ops, rng);
    debug_assert_eq!(plan.validate(inst), Ok(()), "{}", algorithm.name());
    let per_device_busy = execute_plan(inst, model, &plan, &mut ops);
    let service_makespan = per_device_busy
        .iter()
        .copied()
        .max()
        .unwrap_or(SimDuration::ZERO);
    RunResult {
        algorithm: algorithm.name(),
        sched_time: cpu.time_for(&ops),
        service_makespan,
        ops: ops.total(),
        completed: inst.n_requests(),
        per_device_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{camera_instance, small_table};
    use crate::TableModel;

    #[test]
    fn sequences_plan_sums_lane_costs() {
        let (inst, model) = small_table();
        let plan = Plan::Sequences(vec![vec![0, 3], vec![1, 2]]);
        let mut ops = OpCounter::new();
        let busy = execute_plan(&inst, &model, &plan, &mut ops);
        assert_eq!(busy[0], SimDuration::from_secs(5));
        assert_eq!(busy[1], SimDuration::from_secs(7));
    }

    #[test]
    fn srfe_orders_by_proximity() {
        // One camera; requests whose optimal service order is not the
        // assignment order. SRFE must not exceed the assignment-order cost.
        let (_, model) = camera_instance(5, 1, 41);
        let lane: Vec<usize> = (0..5).collect();
        let mut ops = OpCounter::new();
        let shortest_first: SimDuration =
            srfe(&model, 0, &lane, &mut ops).iter().map(|s| s.1).sum();
        let fifo = model.sequence_cost(0, &lane);
        assert!(
            shortest_first <= fifo + SimDuration::from_micros(5),
            "srfe {shortest_first} should not exceed fifo {fifo}"
        );
    }

    #[test]
    fn srfe_steps_match_sequence_cost_of_the_chosen_order() {
        let (_, model) = camera_instance(6, 1, 47);
        let lane: Vec<usize> = (0..6).collect();
        let mut ops = OpCounter::new();
        let steps = srfe(&model, 0, &lane, &mut ops);
        let order: Vec<usize> = steps.iter().map(|s| s.0).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, lane, "every request serviced exactly once");
        // Each step's cost is the sequence cost of the chosen order's
        // prefix up to it, minus the prefix before it.
        for k in 0..steps.len() {
            let step = model.sequence_cost(0, &order[..=k]) - model.sequence_cost(0, &order[..k]);
            assert_eq!(steps[k].1, step, "step {k}");
        }
        let total: SimDuration = steps.iter().map(|s| s.1).sum();
        assert_eq!(total, model.sequence_cost(0, &order));
        // A FIFO plan services the lane as given at its sequence cost.
        let plan = Plan::Sequences(vec![lane.clone()]);
        let fifo = service_steps(&plan, &model, &mut ops).unwrap();
        assert_eq!(fifo[0].iter().map(|s| s.0).collect::<Vec<_>>(), lane);
        let fifo_total: SimDuration = fifo[0].iter().map(|s| s.1).sum();
        assert_eq!(fifo_total, model.sequence_cost(0, &lane));
    }

    #[test]
    fn srfe_counts_quadratic_estimates() {
        let (_, model) = camera_instance(4, 1, 42);
        let mut ops = OpCounter::new();
        let _ = srfe(&model, 0, &[0, 1, 2, 3], &mut ops);
        // 4 + 3 + 2 + 1 = 10 estimates.
        assert_eq!(ops.total(), 10 * COST_ESTIMATE_OPS);
    }

    #[test]
    fn list_scheduling_fills_idle_devices() {
        // 4 equal 1s jobs on 2 machines -> makespan 2s, perfectly balanced.
        let model = TableModel::identical_machines(vec![SimDuration::from_secs(1); 4], 2);
        let inst = model.instance();
        let mut ops = OpCounter::new();
        let busy = list_schedule(&inst, &model, &mut ops);
        assert_eq!(busy, vec![SimDuration::from_secs(2); 2]);
    }

    #[test]
    fn list_scheduling_respects_eligibility() {
        let s = SimDuration::from_secs;
        // r0, r1 only on d1; d0 must go inactive without stealing them.
        let model = TableModel::new(vec![vec![None, None], vec![Some(s(1)), Some(s(1))]]);
        let inst = model.instance();
        let mut ops = OpCounter::new();
        let busy = list_schedule(&inst, &model, &mut ops);
        assert_eq!(busy[0], SimDuration::ZERO);
        assert_eq!(busy[1], SimDuration::from_secs(2));
    }

    #[test]
    fn run_algorithm_reports_breakdown() {
        let (inst, model) = camera_instance(12, 4, 43);
        let mut rng = SimRng::seed(1);
        let result = run_algorithm(
            &Algorithm::LerfaSrfe,
            &inst,
            &model,
            &CpuModel::paper_notebook(),
            &mut rng,
        );
        assert_eq!(result.algorithm, "LERFA + SRFE");
        assert_eq!(result.completed, 12);
        assert!(result.ops > 0);
        assert!(result.sched_time > SimDuration::ZERO);
        assert!(result.service_makespan >= SimDuration::from_millis(360));
        assert_eq!(result.total(), result.sched_time + result.service_makespan);
        assert_eq!(result.per_device_busy.len(), 4);
        assert_eq!(
            result.per_device_busy.iter().copied().max().unwrap(),
            result.service_makespan
        );
    }

    #[test]
    fn all_five_algorithms_run_end_to_end() {
        let (inst, model) = camera_instance(20, 10, 44);
        let mut rng = SimRng::seed(2);
        for alg in Algorithm::paper_lineup() {
            let alg = match alg {
                Algorithm::Sa(_) => Algorithm::Sa(crate::SaConfig::quick()),
                other => other,
            };
            let r = run_algorithm(&alg, &inst, &model, &CpuModel::paper_notebook(), &mut rng);
            assert_eq!(r.completed, 20, "{}", alg.name());
            assert!(
                r.service_makespan >= SimDuration::from_millis(360),
                "{}",
                alg.name()
            );
            // All 20 requests serviced somewhere: busy time ≥ 20 × min cost.
            let total_busy: SimDuration = r.per_device_busy.iter().copied().sum();
            assert!(total_busy >= SimDuration::from_millis(360) * 20);
        }
    }

    #[test]
    fn requeue_moves_orphans_to_least_loaded_lane() {
        let s = SimDuration::from_secs;
        // Two identical machines; lane 0 is long, lane 1 short. When device
        // 2 (holding r4) dies, r4 must land on the shorter lane 1.
        let model = TableModel::identical_machines(vec![s(1); 5], 3);
        let inst = model.instance();
        let mut plan = Plan::Sequences(vec![vec![0, 1, 2], vec![3], vec![4]]);
        let mut ops = OpCounter::new();
        let outcome = requeue_orphans(&mut plan, &inst, &model, 2, &mut ops);
        assert_eq!(outcome.requeued, vec![(4, 1)]);
        assert!(outcome.dropped.is_empty());
        let Plan::Sequences(lanes) = &plan else {
            panic!("plan shape changed");
        };
        assert!(lanes[2].is_empty());
        assert_eq!(lanes[1], vec![3, 4]);
        assert!(ops.total() > 0, "re-assignment must cost estimate ops");
        // Every surviving request still appears exactly once.
        let mut all: Vec<usize> = lanes.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn requeue_expires_orphans_whose_cheapest_lane_misses_their_deadline() {
        let s = SimDuration::from_secs;
        // Same topology as above, but r4 has only 1s of budget left while
        // the shortest surviving lane would finish it at 2s — it must be
        // expired, not moved. A generous budget on the same orphan requeues.
        let model = TableModel::identical_machines(vec![s(1); 5], 3);
        let inst = model.instance();
        let tight = {
            let mut plan = Plan::Sequences(vec![vec![0, 1, 2], vec![3], vec![4]]);
            let mut deadlines = vec![SimDuration::MAX; 5];
            deadlines[4] = s(1);
            let mut ops = OpCounter::new();
            requeue_orphans_with_deadlines(&mut plan, &inst, &model, 2, &deadlines, &mut ops)
        };
        assert!(tight.requeued.is_empty());
        assert!(tight.dropped.is_empty());
        assert_eq!(tight.expired, vec![4]);
        let loose = {
            let mut plan = Plan::Sequences(vec![vec![0, 1, 2], vec![3], vec![4]]);
            let mut deadlines = vec![SimDuration::MAX; 5];
            deadlines[4] = s(2);
            let mut ops = OpCounter::new();
            requeue_orphans_with_deadlines(&mut plan, &inst, &model, 2, &deadlines, &mut ops)
        };
        assert_eq!(loose.requeued, vec![(4, 1)]);
        assert!(loose.expired.is_empty());
    }

    #[test]
    fn requeue_reports_sole_candidate_orphans_as_dropped() {
        let s = SimDuration::from_secs;
        // r1 is eligible only on device 1; when device 1 dies it cannot be
        // re-queued and must be reported dropped, not lost.
        // Rows are devices: device 0 can serve only r0, device 1 both.
        let model = TableModel::new(vec![vec![Some(s(1)), None], vec![Some(s(1)), Some(s(1))]]);
        let inst = model.instance();
        let mut plan = Plan::Sequences(vec![vec![0], vec![1]]);
        let mut ops = OpCounter::new();
        let outcome = requeue_orphans(&mut plan, &inst, &model, 1, &mut ops);
        assert_eq!(outcome.requeued, vec![]);
        assert_eq!(outcome.dropped, vec![1]);
    }

    #[test]
    fn requeue_is_noop_for_dynamic_plans() {
        let model = TableModel::identical_machines(vec![SimDuration::from_secs(1); 3], 2);
        let inst = model.instance();
        let mut plan = Plan::ListDynamic;
        let mut ops = OpCounter::new();
        let outcome = requeue_orphans(&mut plan, &inst, &model, 0, &mut ops);
        assert_eq!(outcome, OrphanOutcome::default());
        assert_eq!(plan, Plan::ListDynamic);
    }

    #[test]
    fn requeued_plan_still_validates_on_survivors() {
        let (inst, model) = camera_instance(10, 4, 46);
        let mut rng = SimRng::seed(5);
        let mut ops = OpCounter::new();
        let mut plan = Algorithm::LerfaSrfe.schedule(&inst, &model, &mut ops, &mut rng);
        let outcome = requeue_orphans(&mut plan, &inst, &model, 0, &mut ops);
        // Fully eligible instance: nothing may drop, and the repaired plan
        // must still place every request exactly once.
        assert!(outcome.dropped.is_empty());
        assert_eq!(plan.validate(&inst), Ok(()));
        let (Plan::ShortestFirstPerDevice(lanes) | Plan::Sequences(lanes)) = &plan else {
            panic!("static algorithm produced a dynamic plan");
        };
        assert!(lanes[0].is_empty(), "dead lane must be drained");
    }

    #[test]
    fn instant_cpu_isolates_service_time() {
        let (inst, model) = camera_instance(10, 5, 45);
        let mut rng = SimRng::seed(3);
        let r = run_algorithm(
            &Algorithm::Random,
            &inst,
            &model,
            &CpuModel::instant(),
            &mut rng,
        );
        assert_eq!(r.sched_time, SimDuration::ZERO);
        assert_eq!(r.total(), r.service_makespan);
    }

    #[test]
    fn record_into_emits_per_algorithm_and_per_lane_series() {
        let (inst, model) = camera_instance(10, 4, 45);
        let mut rng = SimRng::seed(6);
        let r = run_algorithm(
            &Algorithm::LerfaSrfe,
            &inst,
            &model,
            &CpuModel::paper_notebook(),
            &mut rng,
        );
        let mut reg = MetricsRegistry::new();
        r.record_into(&mut reg);
        let alg = [("algorithm", r.algorithm)];
        assert_eq!(reg.counter("aorta_sched_completed", &alg), 10);
        assert_eq!(reg.counter("aorta_sched_ops", &alg), r.ops);
        let prom = reg.to_prometheus();
        assert!(prom.contains("aorta_sched_time_count{algorithm=\"LERFA + SRFE\"} 1"));
        assert!(
            prom.contains("lane=\"0\""),
            "missing per-lane gauge: {prom}"
        );
        // Recording twice aggregates, never panics.
        r.record_into(&mut reg);
        assert_eq!(reg.counter("aorta_sched_completed", &alg), 20);
    }
}
