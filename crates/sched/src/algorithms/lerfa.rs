//! LERFA — Least Eligible Request First Assignment (Algorithm 1.1).
//!
//! ```text
//! 1. for each device dj in D: Wj = 0
//! 2. i = 1
//! 3. while there are unassigned requests:
//! 4.   for each request r that has i candidate devices:
//! 5.     for each candidate device dk of r:
//! 6.       Crk = estimated cost for servicing r on dk
//! 7.       Ek  = Wk + Crk
//! 8.     assign r to the device dl with the least E value
//! 9.     Wl += Crl
//! 10.  i++
//! ```
//!
//! The paper breaks ties in the candidate count in random order;
//! [`assign`] does exactly that for the §6.3 experiments. Cost estimates use
//! the device's *predicted* physical status after the requests already
//! assigned to it (sequence-dependence, §5.1).
//!
//! [`assign_in_order`] is the loop itself (lines 3–9), with the visiting
//! order, initial workloads, workload advance and a pre-commit verdict left
//! to the caller. Both [`assign`] and the engine's batch dispatch run it.

use std::convert::Infallible;

use aorta_sim::{OpCounter, SimDuration, SimRng};

use crate::{CostModel, Instance, COST_ESTIMATE_OPS};

/// What one LERFA pass decided for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision<R> {
    /// Assigned to `device` at its estimated `cost` there. The device's
    /// predicted status advanced, and so did its workload if the pass
    /// advances workload.
    Committed {
        /// The device.
        device: usize,
        /// The estimate, from the device's predicted status.
        cost: SimDuration,
    },
    /// The verdict refused the least-finish `device` for `reason`. Nothing
    /// was charged to the device: neither workload nor status moved.
    Rejected {
        /// The device.
        device: usize,
        /// The verdict's reason.
        reason: R,
    },
    /// No eligible device could cost the request.
    Unassigned,
}

/// The result of one LERFA pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment<R> {
    /// Per-device committed requests, in commit order: the sets SRFE
    /// orders, or the sequences a FIFO device services as they are.
    pub lanes: Vec<Vec<usize>>,
    /// One decision per visited request, in visiting order.
    pub decisions: Vec<Decision<R>>,
}

/// Runs the assignment for the §6.3 experiments, returning per-device
/// request sets: least-eligible-first order, random among equals, idle
/// devices, and every assignment accepted.
///
/// Execution order within each device is decided later by SRFE
/// (Algorithm 1.2) in the executor.
pub(crate) fn assign<M: CostModel>(
    inst: &Instance,
    model: &M,
    ops: &mut OpCounter,
    rng: &mut SimRng,
) -> Vec<Vec<usize>> {
    // Shuffle, then stable sort by candidate count.
    let mut order: Vec<usize> = (0..inst.n_requests()).collect();
    rng.shuffle(&mut order);
    order.sort_by_key(|&r| inst.eligible(r).len());
    ops.add(inst.n_requests() as u64); // sorting pass
    let idle = vec![SimDuration::ZERO; inst.n_devices()];
    let accept = |_, _, _, _| Ok::<(), Infallible>(());
    assign_in_order(inst, model, &order, &idle, true, accept, ops).lanes
}

/// LERFA's assignment loop over `order`: each request goes to the eligible
/// device with the least `workload + cost`, the first such device in the
/// request's eligibility order on a tie. Candidates the model cannot cost
/// are skipped; a request with none left is reported
/// [`Decision::Unassigned`].
///
/// * `initial_workload[d]` is the time device `d` is already busy for (line
///   1 starts it at zero).
/// * `advance_workload` decides whether a commit adds its cost to the
///   device's workload (line 9). A dispatcher that does not track device
///   workload turns it off; the predicted status still advances.
/// * `verdict(request, device, workload, cost)` judges the least-finish
///   device before commit, given the device's workload at that point. It
///   must be pure: an `Err` is reported as [`Decision::Rejected`] and
///   leaves the device untouched.
///
/// Requests absent from `order` are not visited.
///
/// # Panics
///
/// Panics if `initial_workload` does not hold one entry per device.
pub fn assign_in_order<M: CostModel, R>(
    inst: &Instance,
    model: &M,
    order: &[usize],
    initial_workload: &[SimDuration],
    advance_workload: bool,
    verdict: impl Fn(usize, usize, SimDuration, SimDuration) -> Result<(), R>,
    ops: &mut OpCounter,
) -> Assignment<R> {
    let m = inst.n_devices();
    assert_eq!(initial_workload.len(), m, "one initial workload per device");
    let mut workload = initial_workload.to_vec();
    let mut status: Vec<M::Status> = (0..m).map(|d| model.initial_status(d)).collect();
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut decisions = Vec::with_capacity(order.len());

    for &r in order {
        let mut best: Option<(SimDuration, SimDuration, usize)> = None;
        for &d in inst.eligible(r) {
            ops.add(COST_ESTIMATE_OPS);
            let Some(cost) = model.cost(r, d, &status[d]) else {
                continue;
            };
            let finish = workload[d] + cost;
            if best.is_none_or(|(best_finish, _, _)| finish < best_finish) {
                best = Some((finish, cost, d));
            }
        }
        let Some((_, cost, d)) = best else {
            decisions.push(Decision::Unassigned);
            continue;
        };
        if let Err(reason) = verdict(r, d, workload[d], cost) {
            decisions.push(Decision::Rejected { device: d, reason });
            continue;
        }
        if advance_workload {
            workload[d] += cost;
        }
        status[d] = model.next_status(r, d, &status[d]);
        lanes[d].push(r);
        decisions.push(Decision::Committed { device: d, cost });
    }
    Assignment { lanes, decisions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{camera_instance, small_table};

    #[test]
    fn balances_the_small_table_optimally() {
        let (inst, model) = small_table();
        let mut ops = OpCounter::new();
        let mut rng = SimRng::seed(2);
        let plan = assign(&inst, &model, &mut ops, &mut rng);
        // r2 is only eligible on d1, so it is assigned first; the balanced
        // outcome puts r0 and r3 on d0 (workload 5) and r1, r2 on d1 (7).
        assert!(plan[1].contains(&2));
        let w0: SimDuration = plan[0]
            .iter()
            .map(|&r| model.cost(r, 0, &()).unwrap())
            .sum();
        let w1: SimDuration = plan[1]
            .iter()
            .map(|&r| model.cost(r, 1, &()).unwrap())
            .sum();
        assert_eq!(w0.max(w1), SimDuration::from_secs(7));
    }

    #[test]
    fn least_eligible_requests_assigned_first() {
        // r0 eligible everywhere; r1 only on d0. If r1 were assigned last it
        // could pile onto d0 behind r0; LERFA assigns r1 first.
        let s = SimDuration::from_secs;
        let model =
            crate::TableModel::new(vec![vec![Some(s(5)), Some(s(5))], vec![Some(s(5)), None]]);
        let inst = model.instance();
        let mut ops = OpCounter::new();
        let mut rng = SimRng::seed(2);
        let plan = assign(&inst, &model, &mut ops, &mut rng);
        assert_eq!(plan[0], vec![1], "constrained request lands on d0 first");
        assert_eq!(plan[1], vec![0], "flexible request balances onto d1");
    }

    #[test]
    fn counts_cost_estimates() {
        let (inst, model) = camera_instance(10, 5, 3);
        let mut ops = OpCounter::new();
        let mut rng = SimRng::seed(3);
        let _ = assign(&inst, &model, &mut ops, &mut rng);
        // 10 requests × 5 candidates × COST_ESTIMATE_OPS, plus the sort pass.
        assert_eq!(ops.total(), 10 * 5 * COST_ESTIMATE_OPS + 10);
    }

    #[test]
    fn all_requests_assigned_exactly_once() {
        let (inst, model) = camera_instance(30, 7, 4);
        let mut ops = OpCounter::new();
        let mut rng = SimRng::seed(4);
        let plan = assign(&inst, &model, &mut ops, &mut rng);
        let mut all: Vec<usize> = plan.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..30).collect::<Vec<_>>());
    }

    /// A sequence-dependent model whose cost grows with the number of
    /// requests the device has serviced: `cost = 1s + status`.
    struct Counting;

    impl CostModel for Counting {
        type Status = u64;

        fn initial_status(&self, _device: usize) -> u64 {
            0
        }

        fn cost(&self, _request: usize, _device: usize, status: &u64) -> Option<SimDuration> {
            Some(SimDuration::from_secs(1 + status))
        }

        fn next_status(&self, _request: usize, _device: usize, status: &u64) -> u64 {
            status + 1
        }
    }

    fn accept(_: usize, _: usize, _: SimDuration, _: SimDuration) -> Result<(), Infallible> {
        Ok(())
    }

    /// The device of each decision, all of which must be commits.
    fn devices(decisions: &[Decision<Infallible>]) -> Vec<usize> {
        decisions
            .iter()
            .map(|d| match *d {
                Decision::Committed { device, .. } => device,
                _ => panic!("unexpected decision {d:?}"),
            })
            .collect()
    }

    #[test]
    fn caller_order_is_honoured_and_ties_keep_eligibility_order() {
        let s = SimDuration::from_secs;
        let model = crate::TableModel::identical_machines(vec![s(1); 4], 2);
        // r3 lists d1 first, so it takes d1 on the all-idle tie.
        let inst = Instance::new(2, vec![vec![0, 1], vec![0, 1], vec![0, 1], vec![1, 0]]);
        let zero = [SimDuration::ZERO; 2];
        let mut ops = OpCounter::new();
        let out = assign_in_order(&inst, &model, &[3, 2, 0], &zero, true, accept, &mut ops);
        // r3 -> d1; r2 -> d0 (less loaded); r0 ties at 2s and keeps d0,
        // the first in its eligibility order. r1 is never visited.
        assert_eq!(devices(&out.decisions), vec![1, 0, 0]);
        assert_eq!(out.lanes, vec![vec![2, 0], vec![3]]);
        assert_eq!(ops.total(), 3 * 2 * COST_ESTIMATE_OPS);
    }

    #[test]
    fn initial_workload_is_honoured() {
        let s = SimDuration::from_secs;
        let model = crate::TableModel::identical_machines(vec![s(1); 2], 2);
        let inst = model.instance();
        let mut ops = OpCounter::new();
        let out = assign_in_order(
            &inst,
            &model,
            &[0, 1],
            &[s(3), s(0)],
            true,
            accept,
            &mut ops,
        );
        // d0 is busy for 3s, so both requests fit on d1 first.
        assert_eq!(out.lanes, vec![vec![], vec![0, 1]]);
    }

    #[test]
    fn uncostable_candidates_are_skipped() {
        let s = SimDuration::from_secs;
        // d0 cannot cost r0 although the instance lists it first.
        let model = crate::TableModel::new(vec![vec![None], vec![Some(s(9))]]);
        let inst = Instance::new(2, vec![vec![0, 1]]);
        let mut ops = OpCounter::new();
        let out = assign_in_order(
            &inst,
            &model,
            &[0],
            &[SimDuration::ZERO; 2],
            true,
            accept,
            &mut ops,
        );
        assert_eq!(devices(&out.decisions), vec![1]);
    }

    #[test]
    fn a_request_with_no_costable_candidate_is_unassigned() {
        let s = SimDuration::from_secs;
        let model = crate::TableModel::new(vec![vec![None, Some(s(1))], vec![None, None]]);
        let inst = Instance::new(2, vec![vec![0, 1], vec![0]]);
        let mut ops = OpCounter::new();
        let out = assign_in_order(
            &inst,
            &model,
            &[0, 1],
            &[SimDuration::ZERO; 2],
            true,
            accept,
            &mut ops,
        );
        assert_eq!(out.decisions[0], Decision::Unassigned);
        assert_eq!(
            out.decisions[1],
            Decision::Committed {
                device: 0,
                cost: s(1)
            }
        );
        assert_eq!(out.lanes, vec![vec![1], vec![]]);
    }

    #[test]
    fn a_rejected_verdict_charges_the_device_nothing() {
        let s = SimDuration::from_secs;
        let inst = Instance::new(2, vec![vec![0], vec![0, 1]]);
        let reject_r0 = |r: usize, _: usize, _: SimDuration, _: SimDuration| {
            if r == 0 {
                Err("refused")
            } else {
                Ok(())
            }
        };
        let mut ops = OpCounter::new();
        let out = assign_in_order(
            &inst,
            &Counting,
            &[0, 1],
            &[SimDuration::ZERO; 2],
            true,
            reject_r0,
            &mut ops,
        );
        assert_eq!(
            out.decisions[0],
            Decision::Rejected {
                device: 0,
                reason: "refused"
            }
        );
        // Had r0 advanced d0's workload or status, r1 would cost 2s on d0
        // (or finish at 2s) and move to d1; it ties at 1s and keeps d0.
        assert_eq!(
            out.decisions[1],
            Decision::Committed {
                device: 0,
                cost: s(1)
            }
        );
        assert_eq!(out.lanes, vec![vec![1], vec![]]);
    }

    #[test]
    fn the_verdict_sees_the_workload_before_commit() {
        let s = SimDuration::from_secs;
        let model = crate::TableModel::identical_machines(vec![s(2); 3], 1);
        let inst = model.instance();
        // Refuse anything that would start after 3s of queued work.
        let start_by_3s = |_: usize, _: usize, queued: SimDuration, _: SimDuration| {
            if queued > s(3) {
                Err(queued)
            } else {
                Ok(())
            }
        };
        let mut ops = OpCounter::new();
        let out = assign_in_order(
            &inst,
            &model,
            &[0, 1, 2],
            &[s(1)],
            true,
            start_by_3s,
            &mut ops,
        );
        assert!(matches!(out.decisions[1], Decision::Committed { .. }));
        assert!(matches!(out.decisions[2], Decision::Rejected { reason, .. } if reason == s(5)));
    }

    #[test]
    fn a_commit_without_workload_advance_still_advances_status() {
        let s = SimDuration::from_secs;
        let zero = [SimDuration::ZERO; 2];
        let mut ops = OpCounter::new();
        // Sequence-independent costs: with workload frozen at zero every
        // request ties and piles onto d0; tracked workload balances.
        let table = crate::TableModel::identical_machines(vec![s(1); 2], 2);
        let inst = table.instance();
        let frozen = assign_in_order(&inst, &table, &[0, 1], &zero, false, accept, &mut ops);
        assert_eq!(frozen.lanes, vec![vec![0, 1], vec![]]);
        let tracked = assign_in_order(&inst, &table, &[0, 1], &zero, true, accept, &mut ops);
        assert_eq!(tracked.lanes, vec![vec![0], vec![1]]);
        // Sequence-dependent costs: the status still advances, so after r0
        // d0 costs 2s and r1 moves to d1 even with workload frozen.
        let frozen = assign_in_order(&inst, &Counting, &[0, 1], &zero, false, accept, &mut ops);
        assert_eq!(devices(&frozen.decisions), vec![0, 1]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (inst, model) = camera_instance(15, 4, 5);
        let run = |seed| {
            let mut ops = OpCounter::new();
            let mut rng = SimRng::seed(seed);
            assign(&inst, &model, &mut ops, &mut rng)
        };
        assert_eq!(run(9), run(9));
    }
}
