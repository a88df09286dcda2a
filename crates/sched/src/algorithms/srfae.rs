//! SRFAE — Shortest Request First Assignment and Execution (Algorithm 2).
//!
//! ```text
//! 1.  for each request ri, each device dj in Di:
//! 2.    insert (ri, dj) into a balanced BST T keyed by the pair's weight
//! 3.  for each device: Wj = 0; lock dj
//! 4.  while T not empty:
//! 5.    extract the node a with the least key; it names (ri, dj)
//! 6.    assign ri to dj (service immediately if free, else FIFO-queue)
//! 7.    w = key(a); delete a; mark ri serviced
//! 8.    for each unserviced rl with dj ∈ Dl:
//! 9.      Clj = cost of servicing rl on dj after ri
//! 10.     update key of (rl, dj) to Clj + w
//! 11. unlock all devices
//! ```
//!
//! The balanced BST is a `BTreeMap` keyed by `(weight, request, device)`
//! (the id components make keys unique). After each extraction, the keys of
//! the extracted device's remaining pairs become *cumulative completion
//! times* (`Clj + w`), and `Clj` is re-estimated from the device's new
//! physical status — the "cost recalculation … based on the new physical
//! status" step.

use std::collections::BTreeMap;

use aorta_sim::{OpCounter, SimDuration};

use crate::problem::UNCOSTABLE;
use crate::{CostModel, Instance, COST_ESTIMATE_OPS};

/// Weight per BST insert/delete/update, on top of the cost estimate itself.
const TREE_OP: u64 = 1;

/// Runs the assignment, returning per-device FIFO sequences.
pub(crate) fn assign<M: CostModel>(
    inst: &Instance,
    model: &M,
    ops: &mut OpCounter,
) -> Vec<Vec<usize>> {
    let n = inst.n_requests();
    let m = inst.n_devices();
    let mut per_device: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut status: Vec<M::Status> = (0..m).map(|d| model.initial_status(d)).collect();
    let mut cum_workload = vec![SimDuration::ZERO; m];
    let mut serviced = vec![false; n];

    // The balanced binary search tree T of (weight, request, device).
    let mut tree: BTreeMap<(SimDuration, usize, usize), ()> = BTreeMap::new();
    // Current key of each live (request, device) pair, for key updates.
    let mut key_of: Vec<Vec<Option<SimDuration>>> = vec![vec![None; m]; n];

    for (r, keys) in key_of.iter_mut().enumerate() {
        for &d in inst.eligible(r) {
            ops.add(COST_ESTIMATE_OPS + TREE_OP);
            let w = model.cost(r, d, &status[d]).expect(UNCOSTABLE);
            tree.insert((w, r, d), ());
            keys[d] = Some(w);
        }
    }

    while let Some((&(w, r, d), ())) = tree.iter().next() {
        ops.add(TREE_OP);
        tree.remove(&(w, r, d));
        debug_assert!(!serviced[r], "serviced requests are purged from T");

        // Assign ri to dj; queued FIFO (the executor services in order).
        per_device[d].push(r);
        serviced[r] = true;
        cum_workload[d] = w;
        status[d] = model.next_status(r, d, &status[d]);

        // Purge the other nodes of ri.
        for &d2 in inst.eligible(r) {
            if d2 != d {
                if let Some(k) = key_of[r][d2].take() {
                    ops.add(TREE_OP);
                    tree.remove(&(k, r, d2));
                }
            } else {
                key_of[r][d2] = None;
            }
        }

        // Recalculate keys of unserviced requests on dj from its new status.
        for rl in 0..n {
            if serviced[rl] {
                continue;
            }
            if let Some(old) = key_of[rl][d] {
                ops.add(COST_ESTIMATE_OPS + 2 * TREE_OP);
                tree.remove(&(old, rl, d));
                let c = model.cost(rl, d, &status[d]).expect(UNCOSTABLE);
                let new_key = c + cum_workload[d];
                tree.insert((new_key, rl, d), ());
                key_of[rl][d] = Some(new_key);
            }
        }
    }
    per_device
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::testutil::{camera_instance, small_table};
    use crate::Plan;

    #[test]
    fn services_globally_shortest_request_first() {
        let (inst, model) = small_table();
        let mut ops = OpCounter::new();
        let plan = assign(&inst, &model, &mut ops);
        // Smallest weight overall is (r0, d0) = 2s, so r0 heads d0's queue.
        assert_eq!(plan[0].first(), Some(&0));
    }

    #[test]
    fn solves_small_table_near_optimally() {
        let (inst, model) = small_table();
        let mut ops = OpCounter::new();
        let plan = assign(&inst, &model, &mut ops);
        let makespan = (0..2)
            .map(|d| model.sequence_cost(d, &plan[d]))
            .max()
            .unwrap();
        // Optimum is 7s; SRFAE achieves it on this instance.
        assert_eq!(makespan, SimDuration::from_secs(7));
    }

    #[test]
    fn cumulative_keys_spread_load() {
        // 4 identical requests, 2 identical devices: cumulative re-keying
        // must alternate devices (2 each), not pile all four on one.
        let model = crate::TableModel::identical_machines(vec![SimDuration::from_secs(1); 4], 2);
        let inst = model.instance();
        let mut ops = OpCounter::new();
        let plan = assign(&inst, &model, &mut ops);
        assert_eq!(plan[0].len(), 2, "{plan:?}");
        assert_eq!(plan[1].len(), 2, "{plan:?}");
    }

    #[test]
    fn produces_valid_plans_on_kinematic_instances() {
        for seed in 0..5 {
            let (inst, model) = camera_instance(20, 6, seed);
            let mut ops = OpCounter::new();
            let plan = Plan::Sequences(assign(&inst, &model, &mut ops));
            assert_eq!(plan.validate(&inst), Ok(()));
        }
    }

    #[test]
    fn respects_eligibility() {
        let s = SimDuration::from_secs;
        let model = crate::TableModel::new(vec![vec![Some(s(1)), None], vec![None, Some(s(1))]]);
        let inst = model.instance();
        let mut ops = OpCounter::new();
        let plan = assign(&inst, &model, &mut ops);
        assert_eq!(plan[0], vec![0]);
        assert_eq!(plan[1], vec![1]);
    }

    #[test]
    fn op_count_grows_with_instance_size() {
        let (i1, m1) = camera_instance(10, 5, 1);
        let (i2, m2) = camera_instance(30, 5, 1);
        let mut ops1 = OpCounter::new();
        let mut ops2 = OpCounter::new();
        assign(&i1, &m1, &mut ops1);
        assign(&i2, &m2, &mut ops2);
        assert!(ops2.total() > ops1.total());
    }
}
