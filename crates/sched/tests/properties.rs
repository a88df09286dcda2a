//! Property tests over random scheduling instances: every algorithm must
//! produce a valid schedule on any feasible instance, the executor's
//! accounting must be internally consistent, and the proposed heuristics
//! must stay within a constant factor of a trivial lower bound.

use proptest::prelude::*;

use aorta_sched::{
    execute_plan, run_algorithm, Algorithm, CostModel, Instance, SaConfig, TableModel,
};
use aorta_sim::{CpuModel, OpCounter, SimDuration, SimRng};

/// A random feasible instance: 1–12 requests, 1–5 devices, every request
/// eligible on a non-empty random subset, costs in the paper's range.
fn arb_instance() -> impl Strategy<Value = (Instance, TableModel)> {
    (1usize..=12, 1usize..=5).prop_flat_map(|(n, m)| {
        let costs = proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.8, 360_000u64..5_360_000), n),
            m,
        );
        costs.prop_map(move |mut grid| {
            // Guarantee feasibility: every request gets at least one device.
            for r in 0..n {
                if (0..m).all(|d| grid[d][r].is_none()) {
                    grid[r % m][r] = Some(1_000_000);
                }
            }
            let table = TableModel::new(
                grid.into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|c| c.map(SimDuration::from_micros))
                            .collect()
                    })
                    .collect(),
            );
            let inst = table.instance();
            (inst, table)
        })
    })
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::LerfaSrfe,
        Algorithm::Srfae,
        Algorithm::Ls,
        Algorithm::Sa(SaConfig {
            iterations: 300,
            ..SaConfig::default()
        }),
        Algorithm::Random,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plans are always valid: every request scheduled exactly once on an
    /// eligible device.
    #[test]
    fn prop_all_algorithms_produce_valid_plans(
        (inst, model) in arb_instance(),
        seed in 0u64..1000,
    ) {
        for alg in algorithms() {
            let mut ops = OpCounter::new();
            let mut rng = SimRng::seed(seed);
            let plan = alg.schedule(&inst, &model, &mut ops, &mut rng);
            prop_assert_eq!(plan.validate(&inst), Ok(()), "{}", alg.name());
        }
    }

    /// The reported service makespan is exactly the max per-device busy
    /// time, and total busy time equals the sum of scheduled request costs.
    #[test]
    fn prop_executor_accounting_consistent(
        (inst, model) in arb_instance(),
        seed in 0u64..1000,
    ) {
        for alg in algorithms() {
            let mut rng = SimRng::seed(seed);
            let r = run_algorithm(&alg, &inst, &model, &CpuModel::instant(), &mut rng);
            prop_assert_eq!(r.completed, inst.n_requests());
            let max_busy = r.per_device_busy.iter().copied().max().unwrap_or(SimDuration::ZERO);
            prop_assert_eq!(r.service_makespan, max_busy, "{}", alg.name());
        }
    }

    /// No schedule beats the trivial lower bound max(longest single request
    /// minimum cost, total minimum work / m).
    #[test]
    fn prop_makespan_respects_lower_bound(
        (inst, model) in arb_instance(),
        seed in 0u64..1000,
    ) {
        let m = inst.n_devices() as u64;
        // Lower bound: each request contributes at least its cheapest cost.
        let mins: Vec<SimDuration> = (0..inst.n_requests())
            .map(|r| {
                inst.eligible(r)
                    .iter()
                    .filter_map(|&d| model.cost(r, d, &()))
                    .min()
                    .expect("non-empty candidates")
            })
            .collect();
        let longest = mins.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let total: SimDuration = mins.iter().copied().sum();
        let bound = longest.max(total / m);
        for alg in algorithms() {
            let mut rng = SimRng::seed(seed);
            let r = run_algorithm(&alg, &inst, &model, &CpuModel::instant(), &mut rng);
            prop_assert!(
                r.service_makespan + SimDuration::from_micros(1) >= bound,
                "{} makespan {} below lower bound {}",
                alg.name(),
                r.service_makespan,
                bound
            );
        }
    }

    /// Executing the same plan twice gives the same busy profile
    /// (the executor itself is deterministic).
    #[test]
    fn prop_execution_deterministic(
        (inst, model) in arb_instance(),
        seed in 0u64..1000,
    ) {
        let mut rng = SimRng::seed(seed);
        let mut ops = OpCounter::new();
        let plan = Algorithm::LerfaSrfe.schedule(&inst, &model, &mut ops, &mut rng);
        let mut ops_a = OpCounter::new();
        let mut ops_b = OpCounter::new();
        let a = execute_plan(&inst, &model, &plan, &mut ops_a);
        let b = execute_plan(&inst, &model, &plan, &mut ops_b);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ops_a.total(), ops_b.total());
    }
}
