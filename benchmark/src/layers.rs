//! The traced run: per-layer metrics measured from outside, by timing the
//! benchmark's own calls into each layer's public functions and by reading
//! the layers' public counters after the run.
//!
//! One traced episode is compared with an untraced reference episode of
//! the same seed (their difference is the tracing overhead, and their
//! digests must match); single-knob ablation episodes (trace off, pushdown
//! off, one thread, obs off) give the cost of the knob's layer.

use aorta_core::ActionRequest;
use aorta_device::DeviceKind;
use aorta_net::ScanOperator;
use aorta_sim::{SimRng, SimTime};

use crate::system::{Outcome, System};
use crate::trace::Tracer;
use crate::workload::{Inputs, Variant, Workload};
use crate::{
    backlog_growth, gate, host_cores, percentile, ratio, run_episode, Episode, Metric, Report,
};

/// Calls per post-run probe (route, scan); the probe reports the median.
const PROBE_CALLS: usize = 16;

/// A per-layer metric with the base it was derived from; `None` marks a
/// metric that does not apply to the workload (reported as 0).
struct Layer {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    base: String,
}

fn layer(name: &'static str, unit: &'static str, value: f64, base: String) -> Layer {
    Layer {
        name,
        unit,
        value: Some(value),
        base,
    }
}

fn absent(name: &'static str, unit: &'static str, why: &str) -> Layer {
    Layer {
        name,
        unit,
        value: None,
        base: why.to_string(),
    }
}

/// Median wall µs of `cheapest_local_candidate` (the candidate join plus
/// costing of every candidate) on a `fork_snapshot()` of the first engine,
/// for event tuples sampled from a fresh scan of the event kind.
fn route_probe(system: &System, tracer: &mut Tracer) -> Option<(f64, String)> {
    let engine = system.engines()[0];
    let plan = engine
        .catalog()
        .queries()
        .find(|p| p.device.is_some() && !p.actions.is_empty())?
        .clone();
    let device = plan.device.as_ref()?;
    let mut registry = engine.registry().clone();
    let mut rng = SimRng::seed(0x0807_E5CA);
    let events = ScanOperator::new(plan.event_kind).run(&mut registry, engine.now(), &mut rng);
    if events.is_empty() {
        return None;
    }
    let mut fork = engine.fork_snapshot();
    let mut us = Vec::with_capacity(PROBE_CALLS);
    let mut routed = 0;
    for k in 0..PROBE_CALLS {
        let request = ActionRequest {
            query_id: plan.query_id,
            action: plan.actions[0].action.clone(),
            event_tuple: events[k * events.len() / PROBE_CALLS].clone(),
            event_binding: plan.event_binding.clone(),
            event_kind: plan.event_kind,
            device_binding: Some((device.binding.clone(), device.kind)),
            args: plan.actions[0].args.clone(),
            candidates: Vec::new(),
            created_at: engine.now(),
            deadline: SimTime::MAX,
            degraded: false,
            attempts: 0,
            hops: 0,
        };
        let id = tracer.enter("core.route");
        routed += usize::from(fork.cheapest_local_candidate(&request).is_some());
        us.push(tracer.exit(id) * 1e3);
    }
    let devices = engine.registry().ids_of_kind(device.kind).len();
    Some((
        percentile(&us, 0.5),
        format!(
            "median of {PROBE_CALLS} calls over {devices} {} devices of engine 0, {routed} routed",
            device.kind
        ),
    ))
}

/// Median wall µs of one `ScanOperator::run` per scanned kind on a clone of
/// the first engine's registry, summed over the kinds an epoch scans.
fn scan_probe(system: &System, tracer: &mut Tracer) -> (f64, String) {
    let engine = system.engines()[0];
    let mut registry = engine.registry().clone();
    let mut rng = SimRng::seed(0x5CA9);
    let mut total = 0.0;
    let mut parts = Vec::new();
    for kind in [DeviceKind::Sensor, DeviceKind::Camera] {
        let devices = registry.ids_of_kind(kind).len();
        if devices == 0 {
            continue;
        }
        let mut us = Vec::with_capacity(PROBE_CALLS);
        for _ in 0..PROBE_CALLS {
            let id = tracer.enter("net.scan");
            std::hint::black_box(ScanOperator::new(kind).run(
                &mut registry,
                engine.now(),
                &mut rng,
            ));
            us.push(tracer.exit(id) * 1e3);
        }
        let median = percentile(&us, 0.5);
        total += median;
        parts.push(format!("{kind} {median:.1} us over {devices}"));
    }
    (total, format!("engine 0: {}", parts.join(", ")))
}

/// Runs the traced protocol for `inputs` and derives every per-layer metric.
pub fn run_traced(inputs: &Inputs) -> Report {
    let workload = inputs.workload;
    let cores = host_cores();
    let measured = Variant::measured(workload, cores);
    let steps = workload.steps() as f64;
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    // Runs `reps` untraced episodes of `variant`, gating each one; every
    // episode must reproduce `expect` (an arm with the trace off only its
    // stats) or, for the reference arm, its own first episode. Returns the
    // median wall seconds of the steps and the first episode.
    let reps = workload.timing_reps();
    let mut arm = |label: &str, variant: Variant, expect: Option<&Outcome>| -> (f64, Episode) {
        let mut times = Vec::with_capacity(reps);
        let mut first: Option<Episode> = None;
        for _ in 0..reps {
            let (episode, _) = run_episode(inputs, variant, None, None);
            let mut errs = gate(inputs, &episode);
            let want = expect.or(first.as_ref().map(|f| &f.outcome));
            if let Some(want) = want {
                let same = if variant.trace {
                    episode.outcome.digest == want.digest
                } else {
                    episode.outcome.stats_digest == want.stats_digest
                };
                if !same {
                    errs.push("outputs differ from the measured configuration".to_string());
                }
            }
            attempted += 1;
            failed += usize::from(!errs.is_empty());
            errors.extend(errs.into_iter().map(|e| format!("{label}: {e}")));
            times.push(episode.run_s());
            first.get_or_insert(episode);
        }
        (percentile(&times, 0.5), first.expect("at least one rep"))
    };
    let (ref_s, reference) = arm("untraced", measured, None);

    let mut tracer = Tracer::new();
    let (traced, system) = run_episode(inputs, measured, Some(&mut tracer), None);
    let route = route_probe(&system, &mut tracer);
    let scan = scan_probe(&system, &mut tracer);

    // Single-knob ablations: each must leave the deterministic outputs
    // unchanged; the wall difference per step is the knob's cost.
    let expect = Some(&reference.outcome);
    let trace_off_s = arm(
        "trace off",
        Variant {
            trace: false,
            ..measured
        },
        expect,
    )
    .0;
    let pushdown_off_s = measured.pushdown.then(|| {
        arm(
            "pushdown off",
            Variant {
                pushdown: false,
                ..measured
            },
            expect,
        )
        .0
    });
    let one_thread_s = (workload == Workload::Sharded && cores > 1).then(|| {
        arm(
            "1 thread",
            Variant {
                threads: 1,
                ..measured
            },
            expect,
        )
        .0
    });
    let obs_off_s = measured.obs.then(|| {
        arm(
            "obs off",
            Variant {
                obs: false,
                ..measured
            },
            expect,
        )
        .0
    });
    let mut traced_errs = gate(inputs, &traced);
    if traced.outcome.digest != reference.outcome.digest {
        traced_errs.push("digest differs from the untraced digest".to_string());
    }
    let per_step_ms = |with: f64, without: f64| (with - without) * 1e3 / steps;

    let traced_s = traced.run_s();
    let engines = system.engines();
    let stats = system.engine_stats();
    let sum = |f: fn(&aorta_core::EngineStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    let requests = sum(|s| s.requests);
    let aqs: usize = engines.iter().map(|e| e.catalog().query_count()).sum();
    let groups: usize = engines
        .iter()
        .map(|e| e.predicate_index().group_count())
        .sum();
    let step_ms = tracer.total_ms("step");
    let epochs = tracer.durations("core.epoch");
    let epoch_ms = tracer.total_ms("core.epoch");
    let execute_ms = tracer.total_ms("core.execute");
    let bare = workload.bare_engine();
    let cluster_only = "bare engine: no cluster";
    let engine_only = "cluster: shards are stepped inside the manager";
    let split = "cluster: parsed and planned inside execute_sql";

    let mut out = vec![
        if bare {
            layer(
                "sql.parse_ms",
                "ms",
                tracer.total_ms("sql.parse"),
                format!("{} statements", tracer.count("sql.parse")),
            )
        } else {
            absent("sql.parse_ms", "ms", split)
        },
        if bare {
            layer(
                "core.plan_ms",
                "ms",
                tracer.total_ms("core.plan"),
                format!("{} plans", tracer.count("core.plan")),
            )
        } else {
            absent("core.plan_ms", "ms", split)
        },
        layer(
            "core.register_ms",
            "ms",
            tracer.total_ms("core.register") + tracer.total_ms("cluster.register"),
            if bare {
                format!(
                    "{} register_query_plan calls",
                    tracer.count("core.register")
                )
            } else {
                format!(
                    "{} cluster execute_sql calls (parse + plan + register on every shard)",
                    tracer.count("cluster.register")
                )
            },
        ),
        layer(
            "core.index_groups_per_aq",
            "ratio",
            ratio(groups as f64, aqs as f64),
            format!("{groups} groups / {aqs} AQs over all engines"),
        ),
    ];
    if bare {
        out.extend([
            layer(
                "core.epoch_busy_share",
                "ratio",
                ratio(epoch_ms, step_ms),
                format!("{epoch_ms:.1} ms of {step_ms:.1} ms traced step time"),
            ),
            layer(
                "core.epoch_ms_p50",
                "ms",
                percentile(&epochs, 0.5),
                format!("{} epochs", epochs.len()),
            ),
            layer(
                "core.epoch_ms_p90",
                "ms",
                percentile(&epochs, 0.9),
                format!("{} epochs", epochs.len()),
            ),
            layer(
                "core.execute_busy_share",
                "ratio",
                ratio(execute_ms, step_ms),
                format!("{execute_ms:.1} ms of {step_ms:.1} ms traced step time"),
            ),
            layer(
                "core.executions",
                "count",
                tracer.count("core.execute") as f64,
                "non-sample event instants".to_string(),
            ),
        ]);
    } else {
        for (name, unit) in [
            ("core.epoch_busy_share", "ratio"),
            ("core.epoch_ms_p50", "ms"),
            ("core.epoch_ms_p90", "ms"),
            ("core.execute_busy_share", "ratio"),
            ("core.executions", "count"),
        ] {
            out.push(absent(name, unit, engine_only));
        }
    }
    let events = sum(|s| s.events_detected);
    let acquisitions = sum(|s| s.lock_acquisitions);
    let probes = sum(|s| s.probes);
    out.extend([
        layer(
            "core.requests_per_event",
            "ratio",
            ratio(requests, events),
            format!("{requests} requests / {events} events"),
        ),
        match route {
            Some((us, base)) => layer("core.route_us", "us", us, base),
            None => absent("core.route_us", "us", "no event tuple to route"),
        },
        layer(
            "core.lock_conflict_share",
            "ratio",
            ratio(sum(|s| s.lock_conflicts), acquisitions),
            format!(
                "{} conflicts / {acquisitions} acquisitions",
                sum(|s| s.lock_conflicts)
            ),
        ),
        layer(
            "core.shed_share",
            "ratio",
            ratio(sum(|s| s.shed), requests),
            format!("{} shed / {requests} requests", sum(|s| s.shed)),
        ),
        layer(
            "core.degraded_share",
            "ratio",
            ratio(sum(|s| s.degraded), requests),
            format!("{} degraded / {requests} requests", sum(|s| s.degraded)),
        ),
        layer("net.scan_us", "us", scan.0, scan.1),
        layer(
            "net.probes_per_request",
            "ratio",
            ratio(probes, requests),
            format!("{probes} probes / {requests} requests"),
        ),
        layer(
            "net.probe_timeout_share",
            "ratio",
            ratio(sum(|s| s.probe_timeouts), probes),
            format!("{} timeouts / {probes} probes", sum(|s| s.probe_timeouts)),
        ),
        layer(
            "net.breaker_trips",
            "count",
            sum(|s| s.breaker_trips),
            "breaker trips over all engines".to_string(),
        ),
    ]);

    if measured.pushdown {
        let push = engines.iter().map(|e| e.pushdown_stats()).fold(
            aorta_core::PushdownStats::default(),
            |mut a, p| {
                a.shipped_tuples += p.shipped_tuples;
                a.suppressed_tuples += p.suppressed_tuples;
                a.reply_bytes += p.reply_bytes;
                a.marker_bytes += p.marker_bytes;
                a.baseline_bytes += p.baseline_bytes;
                a
            },
        );
        let scanned = push.shipped_tuples + push.suppressed_tuples;
        out.extend([
            layer(
                "device.suppressed_share",
                "ratio",
                ratio(push.suppressed_tuples as f64, scanned as f64),
                format!(
                    "{} suppressed / {scanned} scanned tuples",
                    push.suppressed_tuples
                ),
            ),
            layer(
                "device.wire_saved_share",
                "ratio",
                ratio(push.saved_bytes() as f64, push.baseline_bytes as f64),
                format!(
                    "{} saved / {} baseline hop-weighted bytes",
                    push.saved_bytes(),
                    push.baseline_bytes
                ),
            ),
        ]);
    } else {
        out.push(absent("device.suppressed_share", "ratio", "pushdown off"));
        out.push(absent("device.wire_saved_share", "ratio", "pushdown off"));
    }
    out.push(match pushdown_off_s {
        Some(off) => layer(
            "device.pushdown_ms_per_step",
            "ms",
            per_step_ms(ref_s, off),
            format!("({ref_s:.3} s on - {off:.3} s off) / {steps} steps"),
        ),
        None => absent("device.pushdown_ms_per_step", "ms", "pushdown off"),
    });

    let trace_events: usize = engines
        .iter()
        .map(|e| e.trace().len() + e.trace().dropped() as usize)
        .sum();
    out.extend([
        layer(
            "sim.trace_events_per_request",
            "ratio",
            ratio(trace_events as f64, requests),
            format!("{trace_events} trace events / {requests} requests"),
        ),
        layer(
            "sim.trace_ms_per_step",
            "ms",
            per_step_ms(ref_s, trace_off_s),
            format!("({ref_s:.3} s on - {trace_off_s:.3} s off) / {steps} steps"),
        ),
    ]);

    let cluster = match &system {
        System::Cluster(c) => Some(c),
        System::Engine(_) => None,
    };
    match cluster.and_then(|c| c.wal_report()) {
        Some(wal) => {
            let appends: u64 = wal.per_shard.iter().map(|s| s.appends).sum();
            let bytes: u64 = wal.per_shard.iter().map(|s| s.bytes).sum();
            let recovery_ms: u64 = wal.recovery_wall_ms.iter().sum();
            out.extend([
                layer(
                    "wal.appends_per_request",
                    "ratio",
                    ratio(appends as f64, requests),
                    format!("{appends} appends / {requests} requests"),
                ),
                layer(
                    "wal.bytes_per_request",
                    "B",
                    ratio(bytes as f64, requests),
                    format!("{bytes} live log bytes / {requests} requests"),
                ),
                layer(
                    "wal.records_replayed",
                    "count",
                    wal.records_replayed as f64,
                    format!("{} recoveries", wal.recoveries),
                ),
                layer(
                    "wal.recovery_ms",
                    "ms",
                    recovery_ms as f64,
                    format!(
                        "{} recoveries (whole-ms wall clock from wal_report)",
                        wal.recoveries
                    ),
                ),
            ]);
        }
        None => {
            for (name, unit) in [
                ("wal.appends_per_request", "ratio"),
                ("wal.bytes_per_request", "B"),
                ("wal.records_replayed", "count"),
                ("wal.recovery_ms", "ms"),
            ] {
                out.push(absent(name, unit, "no WAL"));
            }
        }
    }

    match cluster {
        Some(c) => {
            let cs = c.stats();
            let per_shard: Vec<f64> = cs.per_shard.iter().map(|s| s.requests as f64).collect();
            let mean = per_shard.iter().sum::<f64>() / per_shard.len() as f64;
            let max = per_shard.iter().copied().fold(0.0, f64::max);
            out.extend([
                layer(
                    "cluster.shard_skew",
                    "ratio",
                    ratio(max, mean),
                    format!("max {max} / mean {mean:.1} requests per shard"),
                ),
                layer(
                    "cluster.escalations",
                    "count",
                    cs.escalated_out() as f64,
                    "requests escalated to the gateway".to_string(),
                ),
                layer(
                    "cluster.rerouted",
                    "count",
                    c.rerouted() as f64,
                    "gateway re-routes to a sibling".to_string(),
                ),
                layer(
                    "cluster.parked",
                    "count",
                    cs.gateway_parked as f64,
                    "escalations parked at the gateway at the end".to_string(),
                ),
            ]);
        }
        None => {
            for (name, unit) in [
                ("cluster.shard_skew", "ratio"),
                ("cluster.escalations", "count"),
                ("cluster.rerouted", "count"),
                ("cluster.parked", "count"),
            ] {
                out.push(absent(name, unit, cluster_only));
            }
        }
    }
    out.push(match one_thread_s {
        Some(one) => layer(
            "cluster.parallel_speedup",
            "ratio",
            ratio(one, ref_s),
            format!("{one:.3} s at 1 thread / {ref_s:.3} s at {cores} threads"),
        ),
        None => absent(
            "cluster.parallel_speedup",
            "ratio",
            "no parallel path (bare engine, WAL, or one core)",
        ),
    });
    out.push(match obs_off_s {
        Some(off) => layer(
            "obs.overhead_ms_per_step",
            "ms",
            per_step_ms(ref_s, off),
            format!("({ref_s:.3} s on - {off:.3} s off) / {steps} steps"),
        ),
        None => absent("obs.overhead_ms_per_step", "ms", "obs off"),
    });

    out.push(layer(
        "bench.trace_overhead_ms_per_step",
        "ms",
        per_step_ms(traced_s, ref_s),
        format!("({traced_s:.3} s traced - {ref_s:.3} s untraced) / {steps} steps"),
    ));
    if bare {
        let unaccounted = step_ms - epoch_ms - execute_ms;
        let share = ratio(unaccounted, step_ms);
        // A wall-clock ratio, so host noise can move it: reported and
        // warned about, not counted as a correctness failure.
        if share >= 0.10 {
            eprintln!(
                "warning: coverage: {:.1}% of traced step time is outside epoch and execute spans",
                share * 100.0
            );
        }
        out.push(layer(
            "bench.unaccounted_share",
            "ratio",
            share,
            format!("{unaccounted:.1} ms of {step_ms:.1} ms traced step time"),
        ));
    } else {
        out.push(absent("bench.unaccounted_share", "ratio", engine_only));
    }
    out.push(layer(
        "bench.backlog_growth",
        "ratio",
        backlog_growth(&traced.pending),
        "(mean pending, last quarter + 1) / (second quarter + 1)".to_string(),
    ));

    println!(
        "# {} seed={} host_cores={cores} traced episode: {} steps, {} requests, digest={:016x}",
        workload.name(),
        inputs.seed,
        traced.step_ms.len(),
        traced.outcome.requests,
        traced.outcome.digest
    );
    for l in &out {
        match l.value {
            Some(v) => println!("# {:<34} {v:>14.4} {:<5} {}", l.name, l.unit, l.base),
            None => println!("# {:<34} {:>14} {:<5} {}", l.name, "n/a", l.unit, l.base),
        }
    }
    write_spans(inputs, cores, &tracer);

    attempted += 1;
    failed += usize::from(!traced_errs.is_empty());
    errors.extend(traced_errs.into_iter().map(|e| format!("traced: {e}")));
    Report {
        attempted,
        failed,
        errors,
        metrics: out
            .into_iter()
            .map(|l| Metric {
                name: l.name,
                value: l.value.unwrap_or(0.0),
                unit: l.unit,
            })
            .collect(),
    }
}

/// Writes the traced episode's spans as JSON lines under `out/` next to
/// this benchmark's manifest.
fn write_spans(inputs: &Inputs, cores: usize, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        inputs.workload.name(),
        inputs.seed
    ));
    let header = format!(
        r#"{{"workload":"{}","seed":{},"host_cores":{cores},"steps":{}}}"#,
        inputs.workload.name(),
        inputs.seed,
        inputs.workload.steps()
    );
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl(&header)))
    {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
    }
}
