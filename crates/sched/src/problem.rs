//! Problem instances and cost models.

use aorta_data::Location;
use aorta_device::{Camera, PhotoSize, PtzPosition};
use aorta_sim::SimDuration;

/// Elementary-operation weight of one cost estimate (movement computation
/// plus comparison) in the op-counting CPU model. All algorithms count cost
/// estimates with this same weight, so relative scheduling times are fair.
pub const COST_ESTIMATE_OPS: u64 = 5;

/// A scheduling-problem instance: *n* requests, *m* devices, and the
/// eligibility restriction `D_i ⊆ D` for each request (Figure 2 of the
/// paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    n_requests: usize,
    n_devices: usize,
    eligible: Vec<Vec<usize>>,
}

impl Instance {
    /// Creates an instance from per-request eligibility lists.
    ///
    /// # Panics
    ///
    /// Panics if any request has an empty eligibility set or references a
    /// device index out of range — such an instance has no feasible
    /// schedule, which is a caller bug, not a runtime condition.
    pub fn new(n_devices: usize, eligible: Vec<Vec<usize>>) -> Self {
        for (r, devs) in eligible.iter().enumerate() {
            assert!(!devs.is_empty(), "request {r} has no candidate devices");
            for &d in devs {
                assert!(d < n_devices, "request {r} names device {d} >= {n_devices}");
            }
        }
        Instance {
            n_requests: eligible.len(),
            n_devices,
            eligible,
        }
    }

    /// An instance where every request may run on every device.
    pub fn fully_eligible(n_requests: usize, n_devices: usize) -> Self {
        Instance::new(
            n_devices,
            (0..n_requests).map(|_| (0..n_devices).collect()).collect(),
        )
    }

    /// Number of requests *n*.
    pub fn n_requests(&self) -> usize {
        self.n_requests
    }

    /// Number of devices *m*.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// The candidate device set `D_i` of request `r`.
    pub fn eligible(&self, r: usize) -> &[usize] {
        &self.eligible[r]
    }

    /// True when request `r` may be serviced on device `d`.
    pub fn is_eligible(&self, r: usize, d: usize) -> bool {
        self.eligible[r].contains(&d)
    }
}

/// The cost oracle scheduling algorithms consult.
///
/// `Status` captures the device's *physical status* — the source of
/// sequence-dependence: "after executing an action, the current physical
/// status of a device may change, which will in turn change the cost of the
/// subsequent action executed on the device" (§5.1).
pub trait CostModel {
    /// Per-device physical status (e.g. a camera head position).
    type Status: Clone;

    /// The device's status before servicing anything.
    fn initial_status(&self, device: usize) -> Self::Status;

    /// Estimated cost of servicing `request` on `device` given its current
    /// status, or `None` when the pair cannot be costed (the device cannot
    /// perform the request). Whether a pair is costable must not depend on
    /// `status`: LERFA skips uncostable candidates, and every later step
    /// that re-costs an assigned pair from a different status relies on the
    /// answer staying `Some`.
    fn cost(&self, request: usize, device: usize, status: &Self::Status) -> Option<SimDuration>;

    /// The device's status after servicing `request`.
    fn next_status(&self, request: usize, device: usize, status: &Self::Status) -> Self::Status;

    /// Total cost of servicing `sequence` in order from the initial status.
    ///
    /// # Panics
    ///
    /// Panics if the sequence holds a pair the model cannot cost.
    fn sequence_cost(&self, device: usize, sequence: &[usize]) -> SimDuration {
        let mut status = self.initial_status(device);
        let mut total = SimDuration::ZERO;
        for &r in sequence {
            total += self.cost(r, device, &status).expect(UNCOSTABLE);
            status = self.next_status(r, device, &status);
        }
        total
    }
}

/// Panic message for costing a pair that an [`Instance`] or plan declares
/// serviceable but the model cannot cost: the two disagree, a caller bug.
pub(crate) const UNCOSTABLE: &str = "scheduled an uncostable (request, device) pair";

/// The kinematic cost model of the paper's experiments: every request is a
/// `photo()` of a target location, every device an AXIS-class PTZ camera,
/// and the cost is head travel plus capture time — hence in the paper's
/// `[0.36 s, 5.36 s]` range, and sequence-dependent through the head
/// position.
#[derive(Debug, Clone)]
pub struct CameraPhotoModel {
    cameras: Vec<Camera>,
    /// Per-camera, per-request target head position (aim clamped into the
    /// camera's travel range).
    aims: Vec<Vec<PtzPosition>>,
    size: PhotoSize,
}

impl CameraPhotoModel {
    /// Builds the model from cameras and photo target locations.
    pub fn new(cameras: Vec<Camera>, targets: &[Location], size: PhotoSize) -> Self {
        let aims = cameras
            .iter()
            .map(|cam| {
                targets
                    .iter()
                    .map(|t| cam.spec().clamp(cam.aim_at(t)))
                    .collect()
            })
            .collect();
        CameraPhotoModel {
            cameras,
            aims,
            size,
        }
    }

    /// The cameras backing the model.
    pub fn cameras(&self) -> &[Camera] {
        &self.cameras
    }

    /// The head position request `r` aims camera `d` at.
    pub fn aim(&self, device: usize, request: usize) -> PtzPosition {
        self.aims[device][request]
    }

    /// The photo size all requests use.
    pub fn size(&self) -> PhotoSize {
        self.size
    }
}

impl CostModel for CameraPhotoModel {
    type Status = PtzPosition;

    fn initial_status(&self, device: usize) -> PtzPosition {
        self.cameras[device].rest_position()
    }

    fn cost(&self, request: usize, device: usize, status: &PtzPosition) -> Option<SimDuration> {
        Some(self.cameras[device].estimate_photo_cost(
            *status,
            self.aims[device][request],
            self.size,
        ))
    }

    fn next_status(&self, request: usize, device: usize, _status: &PtzPosition) -> PtzPosition {
        self.aims[device][request]
    }
}

/// A sequence-*independent* cost model given by an explicit cost matrix —
/// the classic unrelated-machines setting, used for unit tests, the exact
/// solver, and the ablation that isolates the effect of sequence-dependence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableModel {
    /// `costs[d][r]`; `None` renders the pair uncostable (callers should
    /// keep the [`Instance`] consistent).
    costs: Vec<Vec<Option<SimDuration>>>,
}

impl TableModel {
    /// Builds a table model from `costs[device][request]`.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not all the same length.
    pub fn new(costs: Vec<Vec<Option<SimDuration>>>) -> Self {
        if let Some(first) = costs.first() {
            assert!(
                costs.iter().all(|row| row.len() == first.len()),
                "cost matrix rows have differing lengths"
            );
        }
        TableModel { costs }
    }

    /// A table where the cost of request `r` is the same on every device.
    pub fn identical_machines(per_request: Vec<SimDuration>, n_devices: usize) -> Self {
        let row: Vec<Option<SimDuration>> = per_request.into_iter().map(Some).collect();
        TableModel {
            costs: vec![row; n_devices],
        }
    }

    /// An [`Instance`] whose eligibility matches the table's `Some` entries.
    ///
    /// # Panics
    ///
    /// Panics (via [`Instance::new`]) when some request has no eligible
    /// device.
    pub fn instance(&self) -> Instance {
        let n = self.costs.first().map_or(0, Vec::len);
        let eligible = (0..n)
            .map(|r| {
                (0..self.costs.len())
                    .filter(|&d| self.costs[d][r].is_some())
                    .collect()
            })
            .collect();
        Instance::new(self.costs.len(), eligible)
    }
}

impl CostModel for TableModel {
    type Status = ();

    fn initial_status(&self, _device: usize) {}

    fn cost(&self, request: usize, device: usize, _status: &()) -> Option<SimDuration> {
        self.costs[device][request]
    }

    fn next_status(&self, _request: usize, _device: usize, _status: &()) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use aorta_data::Location;
    use aorta_device::CameraFailureModel;

    fn two_cameras() -> Vec<Camera> {
        vec![
            Camera::ceiling_mounted(0, Location::new(2.0, 3.0, 3.0))
                .with_failure(CameraFailureModel::reliable()),
            Camera::ceiling_mounted(1, Location::new(6.0, 3.0, 3.0))
                .with_failure(CameraFailureModel::reliable()),
        ]
    }

    #[test]
    fn instance_accessors() {
        let inst = Instance::new(3, vec![vec![0, 1], vec![2]]);
        assert_eq!(inst.n_requests(), 2);
        assert_eq!(inst.n_devices(), 3);
        assert_eq!(inst.eligible(0), &[0, 1]);
        assert!(inst.is_eligible(1, 2));
        assert!(!inst.is_eligible(1, 0));
    }

    #[test]
    fn fully_eligible_instance() {
        let inst = Instance::fully_eligible(4, 2);
        for r in 0..4 {
            assert_eq!(inst.eligible(r), &[0, 1]);
        }
    }

    #[test]
    #[should_panic(expected = "no candidate devices")]
    fn empty_eligibility_panics() {
        let _ = Instance::new(2, vec![vec![]]);
    }

    #[test]
    #[should_panic(expected = ">=")]
    fn out_of_range_device_panics() {
        let _ = Instance::new(2, vec![vec![5]]);
    }

    #[test]
    fn camera_model_costs_in_paper_range() {
        let cams = two_cameras();
        let targets = vec![Location::new(1.0, 1.0, 1.0), Location::new(7.0, 5.0, 1.0)];
        let model = CameraPhotoModel::new(cams, &targets, PhotoSize::Medium);
        for d in 0..2 {
            let mut status = model.initial_status(d);
            for r in 0..2 {
                let c = model.cost(r, d, &status).unwrap();
                assert!(c >= SimDuration::from_millis(360), "{c}");
                assert!(c <= SimDuration::from_millis(5360), "{c}");
                status = model.next_status(r, d, &status);
            }
        }
    }

    #[test]
    fn camera_model_is_sequence_dependent() {
        let cams = two_cameras();
        let targets = vec![
            Location::new(1.0, 1.0, 1.0),
            Location::new(1.2, 1.0, 1.0), // near target 0
            Location::new(7.0, 5.0, 1.0), // far away
        ];
        let model = CameraPhotoModel::new(cams, &targets, PhotoSize::Medium);
        // Servicing 0 then 1 (near each other) beats 0 then 2 then 1.
        let near_order = model.sequence_cost(0, &[0, 1]);
        let far_detour = model.sequence_cost(0, &[0, 2, 1]) - model.sequence_cost(0, &[2]);
        assert!(near_order < model.sequence_cost(0, &[0, 2]) + SimDuration::from_secs(10));
        assert!(near_order < far_detour + model.sequence_cost(0, &[2]));
        // Direct check: cost of request 1 after request 0 < after request 2.
        let after0 = model.next_status(0, 0, &model.initial_status(0));
        let after2 = model.next_status(2, 0, &model.initial_status(0));
        assert!(model.cost(1, 0, &after0).unwrap() < model.cost(1, 0, &after2).unwrap());
    }

    #[test]
    fn table_model_sequence_cost_is_sum() {
        let t = TableModel::new(vec![vec![
            Some(SimDuration::from_secs(1)),
            Some(SimDuration::from_secs(2)),
            None,
        ]]);
        assert_eq!(t.sequence_cost(0, &[0, 1]), SimDuration::from_secs(3));
        assert_eq!(t.sequence_cost(0, &[1, 0]), SimDuration::from_secs(3));
    }

    #[test]
    fn table_model_instance_follows_some_entries() {
        let t = TableModel::new(vec![
            vec![Some(SimDuration::from_secs(1)), None],
            vec![
                Some(SimDuration::from_secs(2)),
                Some(SimDuration::from_secs(3)),
            ],
        ]);
        let inst = t.instance();
        assert_eq!(inst.eligible(0), &[0, 1]);
        assert_eq!(inst.eligible(1), &[1]);
    }

    #[test]
    fn identical_machines_builder() {
        let t = TableModel::identical_machines(vec![SimDuration::from_secs(4)], 3);
        let inst = t.instance();
        assert_eq!(inst.n_devices(), 3);
        assert_eq!(t.cost(0, 2, &()), Some(SimDuration::from_secs(4)));
    }

    #[test]
    #[should_panic(expected = "differing lengths")]
    fn ragged_table_panics() {
        let _ = TableModel::new(vec![vec![None], vec![]]);
    }
}
