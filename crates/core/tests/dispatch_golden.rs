//! Golden dispatch corpus: a seeded grid of engine configurations whose
//! complete observable output — trace bytes, `EngineStats`, pending count,
//! state digest, escalation buffer and (when enabled) metrics — is pinned as
//! an FNV-1a digest per configuration.
//!
//! The grid exercises every dispatch path: both `DispatchPolicy` variants,
//! synchronization and probing on and off, deadlines with admission and
//! brownout, breakers with retries and escalation, a short request timeout,
//! and a crash-plus-loss fault plan. Any change to device assignment, SRFE
//! ordering, the per-assignment timeout and shed verdicts, or the spacing of
//! `Execute` events moves at least one digest.
//!
//! On a mismatch the test prints the full table of actual digests in
//! source form. Only paste it back when the behaviour change is intended.

use aorta_core::{AdmissionConfig, Aorta, DispatchPolicy, EngineConfig};
use aorta_device::{DeviceId, PervasiveLab};
use aorta_net::BreakerConfig;
use aorta_sim::{FaultEvent, FaultPlan, SimDuration, SimTime};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a grid point adds on top of the policy/sync/probe base.
#[derive(Clone, Copy)]
enum Extra {
    None,
    /// Tight deadline plus an admission gate that browns out and sheds.
    DeadlineAdmission,
    /// Breakers, failover retries, escalation and a short request timeout,
    /// under a camera crash storm that exhausts candidate sets.
    BreakersRetryEscalate,
    /// A camera crash and recovery, a mote crash and a loss burst.
    Faults,
    /// Observability on with a short request timeout.
    Observed,
}

fn lab() -> PervasiveLab {
    PervasiveLab::with_sizes(4, 12, 1)
        .with_periodic_events(SimDuration::from_secs(40), SimDuration::ZERO)
}

fn config(policy: DispatchPolicy, sync: bool, probe: bool, extra: Extra) -> EngineConfig {
    let mut c = EngineConfig::seeded(0x5EED).with_dispatch(policy);
    if !sync {
        c = c.without_sync();
    }
    if !probe {
        c = c.without_probing();
    }
    match extra {
        Extra::None | Extra::Faults => {}
        Extra::DeadlineAdmission => {
            c = c
                .with_deadline(SimDuration::from_secs(5))
                .with_admission(AdmissionConfig {
                    rate_per_sec: 1.0,
                    burst: 10.0,
                    slo: SimDuration::from_secs(3),
                    brownout_multiple: 0.5,
                    shed_multiple: 2.0,
                    protected_queries: 3,
                });
        }
        Extra::BreakersRetryEscalate => {
            c = c
                .with_breakers(BreakerConfig::default())
                .with_retries(2)
                .with_escalation();
            c.request_timeout = SimDuration::from_secs(3);
        }
        Extra::Observed => {
            c = c.with_observability();
            c.request_timeout = SimDuration::from_secs(2);
        }
    }
    if matches!(extra, Extra::Faults) {
        c = c.with_retries(1);
    }
    c
}

fn faults(extra: Extra) -> FaultPlan<DeviceId> {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut plan = FaultPlan::new();
    if matches!(extra, Extra::BreakersRetryEscalate) {
        for cam in 0..3 {
            plan.schedule(at(30), FaultEvent::Crash(DeviceId::camera(cam)));
            plan.schedule(at(125), FaultEvent::Recover(DeviceId::camera(cam)));
        }
        return plan;
    }
    plan.schedule(at(35), FaultEvent::Crash(DeviceId::camera(0)));
    plan.schedule(at(41), FaultEvent::Crash(DeviceId::sensor(3)));
    plan.schedule(at(78), FaultEvent::LossBurstStart { extra_loss: 0.6 });
    plan.schedule(at(95), FaultEvent::LossBurstEnd);
    plan.schedule(at(110), FaultEvent::Recover(DeviceId::camera(0)));
    plan.schedule(at(150), FaultEvent::Recover(DeviceId::sensor(3)));
    plan
}

/// Runs one grid point and digests everything it exposes.
fn digest(policy: DispatchPolicy, sync: bool, probe: bool, extra: Extra) -> u64 {
    let mut aorta = Aorta::with_lab(config(policy, sync, probe, extra), lab());
    for i in 0..12 {
        aorta
            .execute_sql(&format!(
                r#"CREATE AQ q{i} AS
                   SELECT photo(c.ip, s.loc, "p")
                   FROM sensor s, camera c
                   WHERE s.accel_x > 500 AND s.id = {i} AND coverage(c.id, s.loc)"#
            ))
            .unwrap();
    }
    aorta
        .execute_sql("CREATE AQ b AS SELECT beep(t.id) FROM sensor t, sensor s WHERE s.accel_x > 500 AND s.id < 4")
        .unwrap();
    if matches!(extra, Extra::Faults | Extra::BreakersRetryEscalate) {
        aorta.inject_faults(faults(extra));
    }
    aorta.run_for(SimDuration::from_secs(200));
    assert_eq!(
        aorta.trace().dropped(),
        0,
        "the trace ring overflowed, so the digest would not cover the whole run"
    );
    let escalated: Vec<(u32, SimTime, u32)> = aorta
        .drain_escalated()
        .iter()
        .map(|r| (r.query_id, r.created_at, r.attempts))
        .collect();
    let mut out = aorta.trace().render();
    out.push_str(&format!(
        "\n{:?}\npending={}\nstate={:#x}\nescalated={escalated:?}\n",
        aorta.stats(),
        aorta.pending_requests(),
        aorta.state_digest(),
    ));
    if let Some(prom) = aorta.metrics_prometheus() {
        out.push_str(&prom);
    }
    fnv1a(out.as_bytes())
}

fn grid() -> Vec<(String, DispatchPolicy, bool, bool, Extra)> {
    let mut points = Vec::new();
    for (pname, policy) in [
        ("scheduled", DispatchPolicy::Scheduled),
        ("min_cost", DispatchPolicy::MinCost),
    ] {
        for sync in [true, false] {
            for probe in [true, false] {
                points.push((
                    format!("{pname}/sync={sync}/probe={probe}"),
                    policy,
                    sync,
                    probe,
                    Extra::None,
                ));
            }
        }
        for (ename, extra) in [
            ("deadline_admission", Extra::DeadlineAdmission),
            ("breakers_retry_escalate", Extra::BreakersRetryEscalate),
            ("faults", Extra::Faults),
            ("observed", Extra::Observed),
        ] {
            points.push((format!("{pname}/{ename}"), policy, true, true, extra));
        }
    }
    points
}

/// Digests recorded from the engine whose dispatch still carried its own
/// inline LERFA/SRFE loops; the `aorta-sched` dispatch must reproduce them.
/// See the module docs for how to update them.
const GOLDEN: &[(&str, u64)] = &[
    ("scheduled/sync=true/probe=true", 0xbdc0c1cf81099398),
    ("scheduled/sync=true/probe=false", 0xfcb3117c809b077c),
    ("scheduled/sync=false/probe=true", 0xd7732d07d173c6e8),
    ("scheduled/sync=false/probe=false", 0xa6da615bb38a10cd),
    ("scheduled/deadline_admission", 0x1efcd0f9f4089125),
    ("scheduled/breakers_retry_escalate", 0xac2b283d12eb0c76),
    ("scheduled/faults", 0xf82c25fbb67a7409),
    ("scheduled/observed", 0x1b6093b619b06a74),
    ("min_cost/sync=true/probe=true", 0xd582a95dd812b5d1),
    ("min_cost/sync=true/probe=false", 0x482a3972ad83ee3c),
    ("min_cost/sync=false/probe=true", 0x41032447e16dcc69),
    ("min_cost/sync=false/probe=false", 0x7c41cff0b4c5d6c1),
    ("min_cost/deadline_admission", 0xbe4225ec6cede272),
    ("min_cost/breakers_retry_escalate", 0xeea2b156586753f7),
    ("min_cost/faults", 0x29a7a3e9d4b3cd9a),
    ("min_cost/observed", 0x474337b3287e8fac),
];

#[test]
fn dispatch_output_matches_the_golden_corpus() {
    let actual: Vec<(String, u64)> = grid()
        .into_iter()
        .map(|(name, policy, sync, probe, extra)| (name, digest(policy, sync, probe, extra)))
        .collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", {d:#018x}),\n"))
            .collect();
        panic!("dispatch digests differ from the golden corpus; actual:\n{table}");
    }
}

#[test]
fn golden_grid_points_are_distinct() {
    // Guards against a grid point that silently degenerates into another
    // (e.g. an extra that never takes effect).
    let mut digests: Vec<u64> = GOLDEN.iter().map(|&(_, d)| d).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), GOLDEN.len());
}
