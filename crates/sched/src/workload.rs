//! Workload generators for the §6.3 experiments.
//!
//! * [`uniform_targets`] — Figure 4's uniform workload: *n* `photo()`
//!   requests with targets uniform over the lab floor, every camera a
//!   candidate for every request; by the PTZ kinematics each request's cost
//!   lands in the paper's `[0.36 s, 5.36 s]` interval.
//! * [`skewed_targets`] — Figure 6's skewed workload: "half of the 20
//!   requests each had 10 cameras as its candidate devices; for the other
//!   half, each could only be serviced on a subset … skewness = the size of
//!   the subset divided by the total number of cameras."
//! * [`uniform_table`] — a sequence-*independent* variant drawing request
//!   costs directly from `[0.36, 5.36]` s (for the ablation isolating the
//!   effect of sequence-dependence).

use aorta_device::PhotoSize;
use aorta_sim::{SimDuration, SimRng};

use crate::{CameraPhotoModel, Instance, TableModel};

/// Builds the ring of `m` reliable cameras used by the scheduling studies.
fn camera_ring(m: usize) -> Vec<aorta_device::Camera> {
    aorta_device::PervasiveLab::with_sizes(m, 0, 0)
        .with_reliable_cameras()
        .cameras
}

/// Figure 4's uniform workload: `n` requests over `m` cameras, all eligible.
pub fn uniform_targets(n: usize, m: usize, rng: &mut SimRng) -> (Instance, CameraPhotoModel) {
    let cameras = camera_ring(m);
    let lab = aorta_device::PervasiveLab::with_sizes(m, 0, 0);
    let targets = lab.random_floor_targets(n, rng);
    let model = CameraPhotoModel::new(cameras, &targets, PhotoSize::Medium);
    (Instance::fully_eligible(n, m), model)
}

/// Figure 6's skewed workload.
///
/// Half the requests are eligible on all `m` cameras; the other half only on
/// a random subset of `⌈skewness·m⌉` cameras.
///
/// # Panics
///
/// Panics if `skewness` is not in `(0, 1]`.
pub fn skewed_targets(
    n: usize,
    m: usize,
    skewness: f64,
    rng: &mut SimRng,
) -> (Instance, CameraPhotoModel) {
    assert!(
        skewness > 0.0 && skewness <= 1.0,
        "skewness must be in (0,1], got {skewness}"
    );
    let cameras = camera_ring(m);
    let lab = aorta_device::PervasiveLab::with_sizes(m, 0, 0);
    let targets = lab.random_floor_targets(n, rng);
    let subset_size = ((skewness * m as f64).round() as usize).clamp(1, m);
    let eligible = (0..n)
        .map(|r| {
            if r < n / 2 {
                (0..m).collect()
            } else {
                let mut devices: Vec<usize> = (0..m).collect();
                rng.shuffle(&mut devices);
                devices.truncate(subset_size);
                devices.sort_unstable();
                devices
            }
        })
        .collect();
    let model = CameraPhotoModel::new(cameras, &targets, PhotoSize::Medium);
    (Instance::new(m, eligible), model)
}

/// A sequence-independent workload: request costs drawn uniformly from the
/// paper's `[0.36 s, 5.36 s]` interval, identical on every device.
pub fn uniform_table(n: usize, m: usize, rng: &mut SimRng) -> (Instance, TableModel) {
    let costs: Vec<SimDuration> = (0..n)
        .map(|_| SimDuration::from_secs_f64(0.36 + rng.unit() * 5.0))
        .collect();
    let model = TableModel::identical_machines(costs, m);
    (model.instance(), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn uniform_workload_all_eligible_and_in_range() {
        let mut rng = SimRng::seed(51);
        let (inst, model) = uniform_targets(20, 10, &mut rng);
        assert_eq!(inst.n_requests(), 20);
        assert_eq!(inst.n_devices(), 10);
        for r in 0..20 {
            assert_eq!(inst.eligible(r).len(), 10);
            for d in 0..10 {
                let c = model.cost(r, d, &model.initial_status(d)).unwrap();
                assert!(c >= SimDuration::from_millis(360), "{c}");
                assert!(c <= SimDuration::from_millis(5360), "{c}");
            }
        }
    }

    #[test]
    fn skewed_workload_halves() {
        let mut rng = SimRng::seed(52);
        let (inst, _) = skewed_targets(20, 10, 0.3, &mut rng);
        for r in 0..10 {
            assert_eq!(inst.eligible(r).len(), 10, "first half fully eligible");
        }
        for r in 10..20 {
            assert_eq!(inst.eligible(r).len(), 3, "skewness 0.3 of 10 cameras");
        }
    }

    #[test]
    fn skew_one_is_fully_eligible() {
        let mut rng = SimRng::seed(53);
        let (inst, _) = skewed_targets(8, 5, 1.0, &mut rng);
        for r in 0..8 {
            assert_eq!(inst.eligible(r).len(), 5);
        }
    }

    #[test]
    #[should_panic(expected = "skewness")]
    fn zero_skew_rejected() {
        let mut rng = SimRng::seed(54);
        let _ = skewed_targets(4, 4, 0.0, &mut rng);
    }

    #[test]
    fn table_costs_in_paper_interval() {
        let mut rng = SimRng::seed(55);
        let (inst, model) = uniform_table(50, 10, &mut rng);
        for r in 0..50 {
            let c = model.cost(r, 0, &()).unwrap();
            assert!(c.as_secs_f64() >= 0.36 && c.as_secs_f64() <= 5.36, "{c}");
            // Identical machines: same cost everywhere.
            assert_eq!(Some(c), model.cost(r, 9, &()));
        }
        assert_eq!(inst.n_devices(), 10);
    }

    #[test]
    fn workloads_are_seed_deterministic() {
        let gen = |seed| {
            let mut rng = SimRng::seed(seed);
            let (_, model) = uniform_targets(5, 3, &mut rng);
            (0..5)
                .map(|r| model.cost(r, 0, &model.initial_status(0)))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
