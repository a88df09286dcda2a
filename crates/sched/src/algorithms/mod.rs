//! The five scheduling algorithms evaluated in §6.3.

mod lerfa;
mod ls;
mod optimal;
mod random;
mod sa;
mod srfae;

pub use lerfa::{assign_in_order, Assignment, Decision};
pub use optimal::exhaustive_optimal;
pub use sa::SaConfig;

use aorta_sim::{OpCounter, SimRng};

use crate::{CostModel, Instance, Plan};

/// A scheduling algorithm under study.
#[derive(Debug, Clone, PartialEq)]
pub enum Algorithm {
    /// The paper's Algorithm 1 (SAP): Least Eligible Request First
    /// Assignment + Shortest Request First Execution.
    LerfaSrfe,
    /// The paper's Algorithm 2 (CAP): Shortest Request First Assignment and
    /// Execution over a balanced BST of request–device pairs.
    Srfae,
    /// Greedy List Scheduling: an idle device takes the first eligible
    /// unscheduled request.
    Ls,
    /// Simulated Annealing (Anagnostopoulos & Rabadi) over assignments and
    /// per-device sequences.
    Sa(SaConfig),
    /// Random assignment baseline.
    Random,
}

impl Algorithm {
    /// The display name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::LerfaSrfe => "LERFA + SRFE",
            Algorithm::Srfae => "SRFAE",
            Algorithm::Ls => "LS",
            Algorithm::Sa(_) => "SA",
            Algorithm::Random => "RANDOM",
        }
    }

    /// The five algorithms of §6.3 with default configurations, in the
    /// paper's figure order.
    pub fn paper_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::LerfaSrfe,
            Algorithm::Srfae,
            Algorithm::Ls,
            Algorithm::Sa(SaConfig::default()),
            Algorithm::Random,
        ]
    }

    /// Runs the assignment phase, counting elementary operations into `ops`.
    pub fn schedule<M: CostModel>(
        &self,
        inst: &Instance,
        model: &M,
        ops: &mut OpCounter,
        rng: &mut SimRng,
    ) -> Plan {
        match self {
            Algorithm::LerfaSrfe => {
                Plan::ShortestFirstPerDevice(lerfa::assign(inst, model, ops, rng))
            }
            Algorithm::Srfae => Plan::Sequences(srfae::assign(inst, model, ops)),
            Algorithm::Ls => ls::plan(),
            Algorithm::Sa(cfg) => Plan::Sequences(sa::assign(inst, model, cfg, ops, rng)),
            Algorithm::Random => Plan::Sequences(random::assign(inst, ops, rng)),
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for algorithm tests.

    use aorta_data::Location;
    use aorta_device::{Camera, CameraFailureModel, PhotoSize};
    use aorta_sim::{SimDuration, SimRng};

    use crate::{CameraPhotoModel, Instance, TableModel};

    /// A small sequence-independent instance with a known optimal makespan.
    ///
    /// Costs (device × request):
    /// ```text
    ///        r0   r1   r2   r3
    /// d0      2    4    -    3
    /// d1      3    2    5    -
    /// ```
    /// Optimal: d0 ← {r0, r3} (5), d1 ← {r1, r2} (7) → makespan 7.
    pub fn small_table() -> (Instance, TableModel) {
        let s = SimDuration::from_secs;
        let model = TableModel::new(vec![
            vec![Some(s(2)), Some(s(4)), None, Some(s(3))],
            vec![Some(s(3)), Some(s(2)), Some(s(5)), None],
        ]);
        let inst = model.instance();
        (inst, model)
    }

    /// A kinematic instance: `n` photo requests over `m` reliable cameras.
    pub fn camera_instance(n: usize, m: usize, seed: u64) -> (Instance, CameraPhotoModel) {
        let mut rng = SimRng::seed(seed);
        let cameras: Vec<Camera> = (0..m)
            .map(|i| {
                Camera::ceiling_mounted(i as u32, Location::new(i as f64, 3.0, 3.0))
                    .with_failure(CameraFailureModel::reliable())
            })
            .collect();
        let targets: Vec<Location> = (0..n)
            .map(|_| Location::new(rng.unit() * 8.0, rng.unit() * 6.0, 1.0))
            .collect();
        let model = CameraPhotoModel::new(cameras, &targets, PhotoSize::Medium);
        (Instance::fully_eligible(n, m), model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_sim::{OpCounter, SimRng};

    #[test]
    fn lineup_matches_paper_order() {
        let names: Vec<&str> = Algorithm::paper_lineup().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["LERFA + SRFE", "SRFAE", "LS", "SA", "RANDOM"]);
    }

    #[test]
    fn every_algorithm_produces_a_valid_plan() {
        let (inst, model) = testutil::small_table();
        for alg in Algorithm::paper_lineup() {
            let mut ops = OpCounter::new();
            let mut rng = SimRng::seed(42);
            let plan = alg.schedule(&inst, &model, &mut ops, &mut rng);
            assert_eq!(plan.validate(&inst), Ok(()), "{}", alg.name());
        }
    }

    #[test]
    fn every_algorithm_valid_on_kinematic_instance() {
        let (inst, model) = testutil::camera_instance(12, 4, 7);
        for alg in Algorithm::paper_lineup() {
            let mut ops = OpCounter::new();
            let mut rng = SimRng::seed(43);
            let plan = alg.schedule(&inst, &model, &mut ops, &mut rng);
            assert_eq!(plan.validate(&inst), Ok(()), "{}", alg.name());
        }
    }
}
