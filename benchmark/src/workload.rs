//! Seeded workload generation and the timed set-up that hands the generated
//! inputs to the program.
//!
//! Generation (labs, AQ text, fault plans) is the benchmark's own code and
//! is never timed; [`setup`] times only what the program does with the
//! inputs: engine or cluster construction, AQ registration and fault
//! injection.

use aorta_cluster::{ClusterConfig, ShardManager};
use aorta_core::{AdmissionConfig, Aorta, AqPlan, EngineConfig};
use aorta_device::{CameraFailureModel, DeviceId, PervasiveLab};
use aorta_net::BreakerConfig;
use aorta_sim::{FaultConfig, FaultEvent, FaultPlan, SimDuration, SimTime};
use aorta_sql::ast::Statement;

use crate::system::System;
use crate::trace::Tracer;

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fleet-sized candidate lists on one engine: candidate join, costing
    /// and inline LERFA/SRFE dispatch dominate.
    Wave,
    /// The `wave` AQs and spike period, a larger camera fleet and four
    /// times its motes, on an 8-shard cluster stepped in parallel.
    Sharded,
    /// A saturated 4-shard cluster with the overload stack, device crashes,
    /// a WAL with one process crash recovered from its log, pushdown with
    /// windowed AQs, and obs on.
    Overload,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Wave, Workload::Sharded, Workload::Overload];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Wave => "wave",
            Workload::Sharded => "sharded",
            Workload::Overload => "overload",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Virtual seconds (= one-second steps) in one episode.
    pub fn steps(self) -> u64 {
        match self {
            Workload::Wave => 300,
            Workload::Sharded => 120,
            Workload::Overload => 600,
        }
    }

    /// Episodes per arm of the traced run's wall-clock comparisons (the
    /// median is used): more where an episode is short.
    pub fn timing_reps(self) -> usize {
        match self {
            Workload::Wave => 3,
            Workload::Sharded | Workload::Overload => 5,
        }
    }

    /// Whether the system is a single engine (event-level tracing and the
    /// coverage check apply) rather than a cluster.
    pub fn bare_engine(self) -> bool {
        self == Workload::Wave
    }
}

/// `wave` cameras: a fleet-sized candidate list whose working set still
/// fits the core-private caches of the 2-core development host; at 500
/// cameras a step cost 2.9 times as much and spread more from run to run.
pub const WAVE_CAMERAS: usize = 200;
/// `wave` motes (one spike each per period).
pub const FLEET_MOTES: usize = 240;
/// `sharded` cameras, split over its shards.
pub const SHARDED_CAMERAS: usize = 500;
/// `sharded` motes: four times the `wave` event rate, so that a step
/// carries enough work for two threads to share and a descheduled core
/// does not dominate its wall time.
pub const SHARDED_MOTES: usize = 4 * FLEET_MOTES;
/// Identical `coverage()` AQs of the ROADMAP baseline.
pub const FLEET_QUERIES: usize = 8;
/// Shards of the `sharded` workload.
pub const SHARDED_SHARDS: usize = 8;

/// `overload`: the E9 saturated cell scaled 8×.
pub const OVERLOAD_CAMERAS: usize = 96;
/// `overload` motes.
pub const OVERLOAD_MOTES: usize = 128;
/// `overload` AQs, each pinned to one mote.
pub const OVERLOAD_QUERIES: usize = 80;
/// `overload`: one AQ in this many detects through an `OVER LAST 3` window
/// (the scalar windowed path and the device-side window bank).
pub const OVERLOAD_WINDOWED_EVERY: usize = 4;
/// `overload` shards.
pub const OVERLOAD_SHARDS: usize = 4;
/// `overload` deadline budget (the E9 value).
pub const OVERLOAD_DEADLINE: SimDuration = SimDuration::from_secs(3);

/// Ablation knobs of one run of a workload. The defaults are the measured
/// configuration; the traced run flips one knob at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// In-network pushdown accounting.
    pub pushdown: bool,
    /// The engine's own trace buffer.
    pub trace: bool,
    /// The observability registry.
    pub obs: bool,
    /// Worker threads for cluster stepping.
    pub threads: usize,
}

impl Variant {
    /// The measured configuration of `workload` on a host with `cores`.
    pub fn measured(workload: Workload, cores: usize) -> Variant {
        Variant {
            pushdown: workload == Workload::Overload,
            trace: true,
            obs: workload == Workload::Overload,
            threads: cores,
        }
    }
}

/// Everything the generator hands the program: the lab, the AQ text and
/// the fault plan. Cloned per episode, outside the set-up timer.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The master seed (engine and cluster seeds derive from it).
    pub seed: u64,
    /// The generated lab.
    pub lab: PervasiveLab,
    /// One `CREATE AQ` statement per query.
    pub sql: Vec<String>,
    /// Faults injected after registration (empty plan = none).
    pub faults: FaultPlan<DeviceId>,
}

/// The photo AQ shape of every workload: a sensor event joined with the
/// camera that covers it.
fn photo_aq(name: &str, predicate: &str) -> String {
    format!(
        r#"CREATE AQ {name} AS SELECT photo(c.ip, s.loc, "p") FROM sensor s, camera c WHERE {predicate} AND coverage(c.id, s.loc)"#
    )
}

/// A lab of `cameras` ceiling cameras with `failure` and `motes` motes
/// spiking every `period`, their phases spread evenly across it so that
/// every epoch carries a similar load.
fn lab(
    cameras: usize,
    failure: CameraFailureModel,
    motes: usize,
    period: SimDuration,
) -> PervasiveLab {
    let mut lab = PervasiveLab::with_sizes(cameras, motes, 0)
        .with_periodic_events(period, period / motes as u64);
    for camera in &mut lab.cameras {
        *camera = camera.clone().with_failure(failure.clone());
    }
    lab
}

/// Generates the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let mut faults = FaultPlan::new();
    let (lab, sql) = match workload {
        Workload::Wave | Workload::Sharded => {
            // Reliable cameras that keep the calibrated load-independent
            // connect loss of the AXIS model, so `failed_share` has a
            // non-zero base without any request escalating between shards.
            let failure = CameraFailureModel {
                connect_loss: CameraFailureModel::axis_default().connect_loss,
                ..CameraFailureModel::reliable()
            };
            let (n_cameras, n_motes) = if workload == Workload::Wave {
                (WAVE_CAMERAS, FLEET_MOTES)
            } else {
                (SHARDED_CAMERAS, SHARDED_MOTES)
            };
            let lab = lab(n_cameras, failure, n_motes, SimDuration::from_secs(30));
            let sql = (0..FLEET_QUERIES)
                .map(|i| photo_aq(&format!("q{i}"), "s.accel_x > 500"))
                .collect();
            (lab, sql)
        }
        Workload::Overload => {
            let lab = lab(
                OVERLOAD_CAMERAS,
                CameraFailureModel::axis_default(),
                OVERLOAD_MOTES,
                SimDuration::from_secs(5),
            );
            let sql = (0..OVERLOAD_QUERIES)
                .map(|i| {
                    let pred = if i % OVERLOAD_WINDOWED_EVERY == 0 {
                        format!("MAX(s.accel_x) OVER LAST 3 >= 500 AND s.id = {i}")
                    } else {
                        format!("s.accel_x > 500 AND s.id = {i}")
                    };
                    photo_aq(&format!("q{i:02}"), &pred)
                })
                .collect();
            let devices: Vec<DeviceId> = (0..OVERLOAD_CAMERAS as u32)
                .map(DeviceId::camera)
                .chain((0..OVERLOAD_MOTES as u32).map(DeviceId::sensor))
                .collect();
            let config = FaultConfig {
                crash_rate: 0.3,
                ..FaultConfig::default()
            };
            let horizon = SimDuration::from_secs(workload.steps());
            faults = FaultPlan::generate(seed ^ 0xA0_87A5_EED5, horizon, &devices, &config);
            // One whole-shard process crash mid-run, recovered from its log.
            faults.schedule(
                SimTime::ZERO + horizon.mul_f64(0.5),
                FaultEvent::ProcessCrash(DeviceId::camera(0)),
            );
            (lab, sql)
        }
    };
    Inputs {
        workload,
        seed,
        lab,
        sql,
        faults,
    }
}

fn engine_config(workload: Workload, seed: u64, variant: Variant) -> EngineConfig {
    let mut config = EngineConfig::seeded(seed);
    if variant.pushdown {
        config = config.with_pushdown();
    }
    if variant.obs {
        config = config.with_observability();
    }
    if workload == Workload::Overload {
        config = config
            .with_deadline(OVERLOAD_DEADLINE)
            .with_admission(AdmissionConfig {
                rate_per_sec: 2.0,
                burst: 8.0,
                slo: SimDuration::from_secs(2),
                brownout_multiple: 0.5,
                shed_multiple: 2.0,
                protected_queries: 2,
            })
            .with_breakers(BreakerConfig::default());
    }
    config
}

/// Builds the system from `inputs`: construction, AQ registration and
/// fault injection. This is what `setup_s` times. With a tracer, every
/// call into a layer gets its own span; a bare engine registers through
/// the three public steps `CREATE AQ` is made of (parse, plan, register)
/// so each can be timed, a cluster through `execute_sql`.
pub fn setup(inputs: Inputs, variant: Variant, mut tracer: Option<&mut Tracer>) -> System {
    let Inputs {
        workload,
        seed,
        lab,
        sql,
        faults,
    } = inputs;
    let config = engine_config(workload, seed, variant);
    let mut system = match workload {
        Workload::Wave => {
            let mut aorta = Tracer::span(&mut tracer, "core.new", || {
                Box::new(Aorta::with_lab(config, lab))
            });
            if !variant.trace {
                aorta.disable_trace();
            }
            for stmt in &sql {
                match tracer.as_deref_mut() {
                    None => {
                        aorta.execute_sql(stmt).expect("generated AQs register");
                    }
                    Some(t) => register_split(&mut aorta, stmt, t),
                }
            }
            System::Engine(aorta)
        }
        Workload::Sharded | Workload::Overload => {
            let shards = if workload == Workload::Sharded {
                SHARDED_SHARDS
            } else {
                OVERLOAD_SHARDS
            };
            let mut cc = ClusterConfig::seeded(seed, shards).with_threads(variant.threads);
            cc.engine = config;
            if workload == Workload::Sharded {
                cc = cc.with_imbalance_threshold(u64::MAX);
            } else {
                cc = cc.with_wal(512);
            }
            let mut cluster = Tracer::span(&mut tracer, "cluster.new", || {
                Box::new(ShardManager::new(cc, lab))
            });
            if !variant.trace {
                for s in 0..cluster.shard_count() {
                    cluster.shard_mut(s).disable_trace();
                }
            }
            for stmt in &sql {
                Tracer::span(&mut tracer, "cluster.register", || {
                    cluster.execute_sql(stmt).expect("generated AQs register")
                });
            }
            System::Cluster(cluster)
        }
    };
    if !faults.is_empty() {
        Tracer::span(&mut tracer, "sim.inject_faults", || {
            system.inject_faults(faults)
        });
    }
    system
}

/// `CREATE AQ` as its three public steps, each in its own span.
fn register_split(aorta: &mut Aorta, stmt: &str, tracer: &mut Tracer) {
    let parsed = tracer.time("sql.parse", || {
        aorta_sql::parse(stmt).expect("generated SQL parses")
    });
    let Some(Statement::CreateAq(aq)) = parsed.into_iter().next() else {
        panic!("generated statements are CREATE AQ");
    };
    let plan = tracer.time("core.plan", || {
        AqPlan::plan(&aq.name, &aq.select, aorta.catalog()).expect("generated AQs plan")
    });
    tracer.time("core.register", || {
        aorta
            .register_query_plan(plan)
            .expect("generated AQs register")
    });
}
