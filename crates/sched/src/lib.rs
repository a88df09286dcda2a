//! # aorta-sched — action workload scheduling
//!
//! §5 of the paper: given *n* action requests and *m* devices, each request
//! eligible on a subset of devices and each (request, device) pair weighted
//! by the *sequence-dependent* cost of executing the action there, find a
//! schedule minimizing the **makespan**. The problem reduces to makespan
//! minimization on unrelated parallel machines with sequence-dependent setup
//! times and machine-eligibility restrictions — NP-hard — so the paper
//! proposes two fast heuristics and compares them against three references:
//!
//! * [`Algorithm::LerfaSrfe`] — the paper's Algorithm 1 (SAP): *Least
//!   Eligible Request First Assignment* + *Shortest Request First Execution*,
//! * [`Algorithm::Srfae`] — the paper's Algorithm 2 (CAP): *Shortest Request
//!   First Assignment and Execution* over a balanced BST of request–device
//!   pairs,
//! * [`Algorithm::Ls`] — classic greedy List Scheduling,
//! * [`Algorithm::Sa`] — the Simulated Annealing of Anagnostopoulos &
//!   Rabadi,
//! * [`Algorithm::Random`] — the random-assignment baseline.
//!
//! [`run_algorithm`] executes any of them against a [`CostModel`] in virtual
//! time and reports the scheduling-time / service-time breakdown of
//! Figure 5. [`workload`] generates the uniform and skewed workloads of
//! Figures 4 and 6.
//!
//! # Example
//!
//! ```
//! use aorta_sched::{run_algorithm, workload, Algorithm};
//! use aorta_sim::{CpuModel, SimRng};
//!
//! let (inst, model) = workload::uniform_targets(20, 10, &mut SimRng::seed(1));
//! let mut rng = SimRng::seed(2);
//! let result = run_algorithm(
//!     &Algorithm::LerfaSrfe,
//!     &inst,
//!     &model,
//!     &CpuModel::paper_notebook(),
//!     &mut rng,
//! );
//! assert!(result.total() > aorta_sim::SimDuration::ZERO);
//! assert_eq!(result.completed, 20);
//! ```

#![warn(missing_docs)]

pub mod algorithms;
mod executor;
mod plan;
mod problem;
pub mod workload;

pub use algorithms::{assign_in_order, Algorithm, Assignment, Decision, SaConfig};
pub use executor::{
    execute_plan, requeue_orphans, requeue_orphans_with_deadlines, run_algorithm, service_steps,
    OrphanOutcome, RunResult, Step,
};
pub use plan::Plan;
pub use problem::{CameraPhotoModel, CostModel, Instance, TableModel, COST_ESTIMATE_OPS};
