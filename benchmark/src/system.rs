//! One driving surface over the two system shapes the workloads use: a
//! bare `Aorta` engine and a `ShardManager` cluster.

use aorta_cluster::ShardManager;
use aorta_core::{Aorta, EngineStats};
use aorta_device::DeviceId;
use aorta_sim::{FaultPlan, SimDuration};

use crate::trace::Tracer;

/// The sampling period every workload runs at (the engine default), and
/// the length of one benchmark step.
pub const STEP: SimDuration = SimDuration::from_secs(1);

/// The system under test.
pub enum System {
    /// One engine.
    Engine(Box<Aorta>),
    /// A sharded cluster.
    Cluster(Box<ShardManager>),
}

/// The deterministic result of an episode: counters, latencies and the
/// digest the correctness gate compares.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests admitted (each counted once, on the shard that created it).
    pub requests: u64,
    /// Requests that ended in a failure terminal state.
    pub failed: u64,
    /// Completions (full quality or degraded).
    pub completed: u64,
    /// Successes that landed after their deadline (must be 0).
    pub late_successes: u64,
    /// The conservation verdict.
    pub conservation: Result<(), String>,
    /// Event→completion latency of every completed request, seconds.
    pub latencies_s: Vec<f64>,
    /// FNV-1a over the rendered trace and the stats.
    pub digest: u64,
    /// FNV-1a over the stats alone (for ablations that turn the trace off).
    pub stats_digest: u64,
    /// Which failure states the failed requests ended in.
    pub breakdown: String,
    /// Shard crash recoveries replayed from the WAL (0 without a WAL).
    pub recoveries: u64,
    /// Log records those recoveries replayed.
    pub records_replayed: u64,
}

/// Failure terminal states of one engine's counters.
pub fn failures(s: &EngineStats) -> u64 {
    s.connect_failures
        + s.busy_rejections
        + s.no_candidate
        + s.timed_out
        + s.out_of_range
        + s.action_errors
        + s.orphaned
        + s.shed
        + s.expired
}

/// The non-zero failure counters summed over `stats`, e.g.
/// `no_candidate=72 shed=10`.
pub fn failure_breakdown(stats: &[EngineStats]) -> String {
    let sum = |f: fn(&EngineStats) -> u64| stats.iter().map(f).sum::<u64>();
    let parts: [(&str, u64); 9] = [
        ("connect", sum(|s| s.connect_failures)),
        ("busy", sum(|s| s.busy_rejections)),
        ("no_candidate", sum(|s| s.no_candidate)),
        ("timed_out", sum(|s| s.timed_out)),
        ("out_of_range", sum(|s| s.out_of_range)),
        ("action_error", sum(|s| s.action_errors)),
        ("orphaned", sum(|s| s.orphaned)),
        ("shed", sum(|s| s.shed)),
        ("expired", sum(|s| s.expired)),
    ];
    let nonzero: Vec<String> = parts
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(name, n)| format!("{name}={n}"))
        .collect();
    nonzero.join(" ")
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl System {
    /// Injects a fault plan.
    pub fn inject_faults(&mut self, plan: FaultPlan<DeviceId>) {
        match self {
            System::Engine(a) => a.inject_faults(plan),
            System::Cluster(c) => c.inject_faults(plan),
        }
    }

    /// Advances one step: the call the closed-loop caller times.
    pub fn step(&mut self) {
        match self {
            System::Engine(a) => a.run_for(STEP),
            System::Cluster(c) => c.run_for(STEP),
        }
    }

    /// Advances one step inside a `step` span. A bare engine is stepped one
    /// event instant at a time (`next_event_time` + `run_until`): an
    /// instant on the sampling grid is a scan/detect/dispatch epoch
    /// (`core.epoch`), any other instant runs queued executions
    /// (`core.execute`). Returns the step's wall milliseconds.
    pub fn step_traced(&mut self, tracer: &mut Tracer) -> f64 {
        let id = tracer.enter("step");
        match self {
            System::Engine(a) => {
                let target = a.now() + STEP;
                while let Some(t) = a.next_event_time().filter(|&t| t <= target) {
                    let name = if t.as_micros() % STEP.as_micros() == 0 {
                        "core.epoch"
                    } else {
                        "core.execute"
                    };
                    tracer.time(name, || a.run_until(t));
                }
                a.run_until(target);
            }
            System::Cluster(c) => c.run_for(STEP),
        }
        tracer.exit(id)
    }

    /// Requests admitted but not terminally resolved.
    pub fn pending(&self) -> u64 {
        match self {
            System::Engine(a) => a.pending_requests(),
            System::Cluster(c) => c.pending_requests(),
        }
    }

    /// Every engine of the system (one, or one per shard).
    pub fn engines(&self) -> Vec<&Aorta> {
        match self {
            System::Engine(a) => vec![a],
            System::Cluster(c) => (0..c.shard_count()).map(|s| c.shard(s)).collect(),
        }
    }

    /// Per-engine stats snapshots.
    pub fn engine_stats(&self) -> Vec<EngineStats> {
        self.engines().iter().map(|e| e.stats()).collect()
    }

    /// The deterministic outcome of the run so far.
    pub fn outcome(&self) -> Outcome {
        let engines = self.engines();
        let breakdown = failure_breakdown(&self.engine_stats());
        let latencies_s = engines
            .iter()
            .flat_map(|e| {
                e.latency_stats()
                    .iter()
                    .map(|d| d.as_secs_f64())
                    .collect::<Vec<_>>()
            })
            .collect();
        match self {
            System::Engine(a) => {
                let s = a.stats();
                let failed = failures(&s);
                let completed = s.executed + s.degraded;
                let accounted = completed + failed + a.pending_requests() + s.escalated_out;
                let conservation = if s.requests + s.escalated_in == accounted {
                    Ok(())
                } else {
                    Err(format!(
                        "requests {} + escalated_in {} != terminal + pending + escalated_out {}",
                        s.requests, s.escalated_in, accounted
                    ))
                };
                let stats = format!("{s:?}");
                Outcome {
                    requests: s.requests,
                    failed,
                    completed,
                    late_successes: s.late_successes,
                    conservation,
                    latencies_s,
                    digest: fnv1a64(format!("{}\n{stats}", a.trace().render()).as_bytes()),
                    stats_digest: fnv1a64(stats.as_bytes()),
                    breakdown,
                    recoveries: 0,
                    records_replayed: 0,
                }
            }
            System::Cluster(c) => {
                let wal = c.wal_report();
                let s = c.stats();
                let failed = s.per_shard.iter().map(failures).sum::<u64>()
                    + s.gateway_dropped
                    + s.gateway_expired;
                let stats = format!("{s:?}");
                Outcome {
                    requests: s.requests(),
                    failed,
                    completed: s.executed() + s.degraded(),
                    late_successes: s.late_successes(),
                    conservation: s.check_conservation(),
                    latencies_s,
                    digest: fnv1a64(format!("{}\n{stats}", c.render_trace()).as_bytes()),
                    stats_digest: fnv1a64(stats.as_bytes()),
                    breakdown,
                    recoveries: wal.as_ref().map_or(0, |w| w.recoveries),
                    records_replayed: wal.as_ref().map_or(0, |w| w.records_replayed),
                }
            }
        }
    }
}
