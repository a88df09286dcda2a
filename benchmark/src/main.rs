//! The Aorta benchmark: one closed-loop caller drives a seeded workload one
//! virtual second per call, times every call in wall time, checks that the
//! outputs are correct, and prints the end-to-end metrics (`--trace 0`,
//! wall times scaled by a host-speed reference, see [`speed`]) or the
//! per-layer metrics of a traced run (`--trace 1`). The last line of
//! standard output is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload wave --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `README.md` in this directory for the workloads and the metrics.

mod layers;
mod speed;
mod system;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use aorta_sim::FaultEvent;
use speed::Speedometer;
use system::{Outcome, System};
use trace::Tracer;
use workload::{Inputs, Variant, Workload};

/// Least set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// After every episode, set-up-only samples are taken for this share of
/// the episode's wall time (at least two), so a fast set-up gets many
/// samples and every set-up is sampled across the whole run.
const SETUP_SHARE: f64 = 0.1;
/// Steps an episode needs so that its p90 step time has ten samples
/// beyond it.
const MIN_STEPS: u64 = 100;
/// Least episodes per run; the wall-clock metrics are medians over them.
const MIN_EPISODES: usize = 3;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Logical cores of the host; the cluster workloads use this many threads.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One episode: a fresh set-up, then `workload.steps()` timed steps.
pub struct Episode {
    /// Wall seconds of the set-up.
    pub setup_s: f64,
    /// Wall milliseconds of every step.
    pub step_ms: Vec<f64>,
    /// Pending requests after every step (virtual, deterministic).
    pub pending: Vec<u64>,
    /// Counters, latencies and digests at the end.
    pub outcome: Outcome,
    /// With a speedometer: the set-up's interval, then every step's, on
    /// its clock.
    pub clock: Vec<(f64, f64)>,
}

impl Episode {
    /// Wall seconds of all steps.
    pub fn run_s(&self) -> f64 {
        self.step_ms.iter().sum::<f64>() / 1e3
    }
}

/// Runs one episode; with a tracer, every layer call is a span and a bare
/// engine is stepped event by event; with a speedometer, it ticks between
/// steps and the episode keeps every interval on its clock. The system is
/// returned for post-run probes.
pub fn run_episode(
    inputs: &Inputs,
    variant: Variant,
    tracer: Option<&mut Tracer>,
    mut speed: Option<&mut Speedometer>,
) -> (Episode, System) {
    let inputs = inputs.clone();
    let steps = inputs.workload.steps();
    let mut step_ms = Vec::with_capacity(steps as usize);
    let mut pending = Vec::with_capacity(steps as usize);
    let mut clock = Vec::new();
    let mut timed = |f: &mut dyn FnMut()| {
        let from = speed.as_deref().map(Speedometer::now);
        let t = Instant::now();
        f();
        let elapsed = t.elapsed().as_secs_f64();
        if let (Some(s), Some(from)) = (speed.as_deref_mut(), from) {
            clock.push((from, from + elapsed));
            s.maybe_tick();
        }
        elapsed
    };
    let (setup_s, system) = match tracer {
        None => {
            let (mut inputs, mut system) = (Some(inputs), None);
            let setup_s = timed(&mut || {
                system = inputs.take().map(|i| workload::setup(i, variant, None));
            });
            let mut system = system.expect("set up once");
            for _ in 0..steps {
                step_ms.push(timed(&mut || system.step()) * 1e3);
                pending.push(system.pending());
            }
            (setup_s, system)
        }
        Some(tracer) => {
            let id = tracer.enter("setup");
            let mut system = workload::setup(inputs, variant, Some(tracer));
            let setup_s = tracer.exit(id) / 1e3;
            for k in 0..steps {
                tracer.set_step(Some(k));
                step_ms.push(system.step_traced(tracer));
                tracer.set_step(None);
                pending.push(system.pending());
            }
            (setup_s, system)
        }
    };
    let outcome = system.outcome();
    let episode = Episode {
        setup_s,
        step_ms,
        pending,
        outcome,
        clock,
    };
    (episode, system)
}

/// Nearest-rank percentile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean pending requests over the second, third and last quarter of a run.
fn quarter_means(pending: &[u64]) -> (f64, f64, f64) {
    let q = pending.len() / 4;
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
    (
        mean(&pending[q..2 * q]),
        mean(&pending[2 * q..3 * q]),
        mean(&pending[3 * q..]),
    )
}

/// Mean pending requests over the last quarter of the run divided by the
/// mean over the second quarter (1 = flat backlog).
pub fn backlog_growth(pending: &[u64]) -> f64 {
    let (q2, _, q4) = quarter_means(pending);
    (q4 + 1.0) / (q2 + 1.0)
}

/// Whether the backlog grows steadily through the run: each later quarter
/// holds more pending requests than the one before, ending well above the
/// second quarter. Step and latency figures of such a run measure its
/// length, not the program.
fn backlog_grows(pending: &[u64]) -> bool {
    let (q2, q3, q4) = quarter_means(pending);
    q2 < q3 && q3 < q4 && q4 > 1.5 * q2 + 10.0
}

/// The correctness gate of one episode of `inputs`; returns every
/// violation.
pub fn gate(inputs: &Inputs, episode: &Episode) -> Vec<String> {
    let o = &episode.outcome;
    let mut errors = Vec::new();
    // Every scheduled process crash must have been recovered from the WAL
    // by replaying a non-empty log.
    let crashes = inputs
        .faults
        .iter()
        .filter(|(_, e)| matches!(e, FaultEvent::ProcessCrash(_)))
        .count() as u64;
    if o.recoveries != crashes || (crashes > 0 && o.records_replayed == 0) {
        errors.push(format!(
            "{} WAL recoveries replaying {} records for {crashes} process crashes",
            o.recoveries, o.records_replayed
        ));
    }
    if let Err(e) = &o.conservation {
        errors.push(format!("conservation: {e}"));
    }
    if o.late_successes != 0 {
        errors.push(format!("{} late successes", o.late_successes));
    }
    if o.requests == 0 || o.completed == 0 {
        errors.push(format!(
            "no work: {} requests, {} completions",
            o.requests, o.completed
        ));
    }
    if backlog_grows(&episode.pending) {
        errors.push(format!(
            "backlog grows steadily (last/second quarter {:.2})",
            backlog_growth(&episode.pending)
        ));
    }
    errors
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the result line.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of a run: the correctness verdict and its metrics.
pub struct Report {
    /// Operations (episodes) attempted.
    pub attempted: usize,
    /// Episodes that failed a correctness check.
    pub failed: usize,
    /// Correctness violations, one line each.
    pub errors: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `+ 0.0` turns a negative zero into 0.
                let v = if m.value.is_finite() {
                    m.value + 0.0
                } else {
                    0.0
                };
                format!(r#""{}":{{"value":{v},"unit":"{}"}}"#, m.name, m.unit)
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The untraced run: episodes back to back until `seconds` have passed
/// (and at least [`MIN_EPISODES`] have run), then the end-to-end metrics.
/// Every wall interval is scaled to the nominal speed of the host-speed
/// reference timed around it (see [`speed`]); each wall-clock metric is
/// then taken per episode and reported as the median over the episodes.
fn run_untraced(inputs: &Inputs, seconds: u64) -> Report {
    let workload = inputs.workload;
    let variant = Variant::measured(workload, host_cores());
    // Only `sharded` steps on more than one thread; set-ups run on one.
    let parallel = workload == Workload::Sharded;
    let mut speed = Speedometer::new(if parallel { variant.threads } else { 1 });
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let time_setup = |speed: &mut Speedometer| {
        let inputs = inputs.clone();
        let from = speed.now();
        let t0 = Instant::now();
        let system = workload::setup(inputs, variant, None);
        let elapsed = t0.elapsed().as_secs_f64();
        drop(system);
        speed.maybe_tick();
        (from, from + elapsed)
    };
    let mut episodes: Vec<Episode> = Vec::new();
    // Set-up intervals on the speedometer's clock.
    let mut setups: Vec<(f64, f64)> = Vec::new();
    assert!(workload.steps() >= MIN_STEPS, "episode too short for p90");
    while episodes.len() < MIN_EPISODES || start.elapsed() < budget {
        let episode = run_episode(inputs, variant, None, Some(&mut speed)).0;
        setups.push(episode.clock[0]);
        let share = Duration::from_secs_f64(episode.run_s() * SETUP_SHARE);
        episodes.push(episode);
        let t0 = Instant::now();
        for k in 0.. {
            if k >= 2 && t0.elapsed() >= share {
                break;
            }
            setups.push(time_setup(&mut speed));
        }
    }
    while setups.len() < SETUPS {
        setups.push(time_setup(&mut speed));
    }
    speed.tick();
    // Scaled set-up seconds, and scaled step milliseconds per episode.
    let setup_s: Vec<f64> = setups.iter().map(|&c| speed.scaled(c, false)).collect();
    let step_ms: Vec<Vec<f64>> = episodes
        .iter()
        .map(|e| {
            e.clock[1..]
                .iter()
                .map(|&c| speed.scaled(c, parallel) * 1e3)
                .collect()
        })
        .collect();

    let first = &episodes[0].outcome;
    let mut errors = Vec::new();
    let mut failed = 0;
    for (i, e) in episodes.iter().enumerate() {
        let mut errs = gate(inputs, e);
        if e.outcome.digest != first.digest {
            errs.push("digest differs from episode 0".to_string());
        }
        failed += usize::from(!errs.is_empty());
        errors.extend(errs.into_iter().map(|x| format!("episode {i}: {x}")));
    }
    // The median over episodes of `f(steps' ms, episode)`.
    let per_episode = |f: &dyn Fn(&[f64], &Episode) -> f64| {
        let v: Vec<f64> = episodes
            .iter()
            .zip(&step_ms)
            .map(|(e, s)| f(s, e))
            .collect();
        percentile(&v, 0.5)
    };
    let us_per_request =
        |ms: &[f64], e: &Episode| ratio(ms.iter().sum::<f64>() * 1e3, e.outcome.requests as f64);
    let runs: Vec<String> = episodes
        .iter()
        .map(|e| format!("{:.3}", e.run_s()))
        .collect();
    println!(
        "# {} seed={} host_cores={} episodes={} requests/episode={} failed: {} digest={:016x} episode_run_s=[{}]",
        workload.name(),
        inputs.seed,
        host_cores(),
        episodes.len(),
        first.requests,
        first.breakdown,
        first.digest,
        runs.join(",")
    );
    let raw_setup: Vec<f64> = setups.iter().map(|c| c.1 - c.0).collect();
    println!(
        "# unscaled wall: setup_s={:.6} us_per_request={:.2} step_ms_p50={:.3}; reference tick median {:.4} ms, on the step's threads {:.4} ms (nominal {})",
        percentile(&raw_setup, 0.5),
        per_episode(&|_, e| us_per_request(&e.step_ms, e)),
        per_episode(&|_, e| percentile(&e.step_ms, 0.5)),
        speed.median_tick_ms(false),
        speed.median_tick_ms(parallel),
        speed::NOMINAL_MS
    );
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: percentile(&setup_s, 0.5),
            unit: "s",
        },
        Metric {
            name: "us_per_request",
            value: per_episode(&us_per_request),
            unit: "us",
        },
        Metric {
            name: "step_ms_p50",
            value: per_episode(&|ms, _| percentile(ms, 0.5)),
            unit: "ms",
        },
        Metric {
            name: "step_ms_p90",
            value: per_episode(&|ms, _| percentile(ms, 0.9)),
            unit: "ms",
        },
        Metric {
            name: "latency_p50_s",
            value: percentile(&first.latencies_s, 0.5),
            unit: "s",
        },
        Metric {
            name: "latency_p99_s",
            value: percentile(&first.latencies_s, 0.99),
            unit: "s",
        },
        Metric {
            name: "failed_share",
            value: ratio(first.failed as f64, first.requests as f64),
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
    ];
    Report {
        attempted: episodes.len(),
        failed,
        errors,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: aorta-perfbench --workload <wave|sharded|overload> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let inputs = workload::generate(args.workload, args.seed);
    let report = if args.trace {
        layers::run_traced(&inputs)
    } else {
        run_untraced(&inputs, args.seconds)
    };
    for e in &report.errors {
        eprintln!("correctness: {e}");
    }
    println!("{}", report.json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
