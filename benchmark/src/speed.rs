//! Host-speed reference for the untraced run's wall-clock metrics.
//!
//! On the 2-core development host the speed of identical work switches
//! between a fast and a slow state, up to 1.8× apart, in phases lasting from
//! seconds to minutes. A pure integer loop barely slows down in the slow
//! state while collection-heavy code does, so the phases come from memory
//! contention with other tenants, not from the clock. A run's raw medians
//! follow the share of its time the host spent in each state, which puts
//! their run-to-run spread above any useful bound.
//!
//! The untraced run therefore times a fixed reference computation — the
//! benchmark's own code, never the program's — between steps and set-ups,
//! and reports each measured interval scaled by [`NOMINAL_MS`] ÷ the median
//! reference time around it: the interval's duration on a host that runs
//! the reference in [`NOMINAL_MS`]. A program change moves the scaled
//! figure as it moves the raw one; a host phase mostly does not, because
//! the reference slows down with it. Like the engine, the reference
//! allocates and works on ordered and hashed maps, formatted strings and a
//! sort.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Reference time of one tick on the development host in its fast state,
/// so scaled figures read like that host's fast-state wall time.
pub const NOMINAL_MS: f64 = 0.75;
/// Least wall time between two ticks. Ticks are rare so that the
/// reference's share of a run, and the cache lines it takes from the
/// program, stay small.
const TICK_EVERY_S: f64 = 0.05;
/// Reference samples within this many seconds of an interval scale it.
const HALO_S: f64 = 0.5;
/// Keys the reference inserts and probes per tick.
const KEYS: u64 = 2048;

/// One tick of reference work, the same on every call: it builds an
/// ordered map, a hashed map of formatted strings and a row vector from a
/// fixed pseudo-random key sequence, sorts the rows and probes both maps.
fn reference() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % (KEYS * 50)
    };
    let mut tree = BTreeMap::new();
    let mut names: HashMap<u64, String> = HashMap::new();
    let mut rows: Vec<(u64, f64)> = Vec::with_capacity(KEYS as usize);
    for i in 0..KEYS {
        let k = next();
        tree.insert(k, i);
        rows.push((k, (k as f64).sqrt()));
        if i % 4 == 0 {
            names.insert(k, format!("device-{k}"));
        }
    }
    rows.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut acc = 0u64;
    for i in 0..KEYS as usize {
        let k = next();
        if let Some((_, v)) = tree.range(k..).next() {
            acc = acc.wrapping_add(*v);
        }
        if let Some(name) = names.get(&k) {
            acc = acc.wrapping_add(name.len() as u64);
        }
        acc = acc.wrapping_add(rows[(i * 7) % rows.len()].0);
    }
    acc
}

/// Reference ticks along a run: (seconds since the speedometer's origin at
/// the tick's midpoint, tick ms), in order.
type Samples = Vec<(f64, f64)>;

/// A long-lived thread that runs the reference once per message. Lanes
/// live as long as the speedometer, so their allocations stay in their own
/// allocator arenas instead of reshuffling the arenas the program's
/// short-lived worker threads pick up (which grew the `sharded` peak RSS
/// from run to run when every tick spawned fresh threads).
struct Lane {
    go: Sender<()>,
    done: Receiver<()>,
    thread: JoinHandle<()>,
}

impl Lane {
    fn spawn() -> Lane {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel::<()>();
        let thread = std::thread::spawn(move || {
            for () in go_rx {
                black_box(reference());
                if done_tx.send(()).is_err() {
                    break;
                }
            }
        });
        Lane { go, done, thread }
    }
}

/// Times reference ticks along a run and scales wall intervals by them.
pub struct Speedometer {
    origin: Instant,
    /// Helper threads that run the reference beside the calling thread in
    /// a parallel tick: one fewer than the threads a parallel step runs on.
    lanes: Vec<Lane>,
    /// The reference on the calling thread alone.
    single: Samples,
    /// The reference on the calling thread and every lane at once, the
    /// slowest deciding as the slowest lane decides a parallel step (empty
    /// without lanes).
    parallel: Samples,
    last_tick: f64,
}

impl Speedometer {
    /// A speedometer for a workload whose steps run on `lanes` threads.
    pub fn new(lanes: usize) -> Speedometer {
        let mut s = Speedometer {
            origin: Instant::now(),
            lanes: (1..lanes).map(|_| Lane::spawn()).collect(),
            single: Vec::new(),
            parallel: Vec::new(),
            last_tick: f64::NEG_INFINITY,
        };
        // Take the first samples before anything is measured.
        for _ in 0..8 {
            s.tick();
        }
        s
    }

    /// Seconds since the speedometer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times the reference alone and, with more than one lane, on every
    /// lane at once (the calling thread being one of them).
    pub fn tick(&mut self) {
        let timed = |origin: Instant, run: &dyn Fn()| {
            let t0 = origin.elapsed().as_secs_f64();
            run();
            let t1 = origin.elapsed().as_secs_f64();
            ((t0 + t1) / 2.0, (t1 - t0) * 1e3)
        };
        self.single.push(timed(self.origin, &|| {
            black_box(reference());
        }));
        if !self.lanes.is_empty() {
            let lanes = &self.lanes;
            self.parallel.push(timed(self.origin, &|| {
                for lane in lanes {
                    lane.go.send(()).expect("reference lane runs");
                }
                black_box(reference());
                for lane in lanes {
                    lane.done.recv().expect("reference lane runs");
                }
            }));
        }
        self.last_tick = self.now();
    }

    /// Ticks if the last tick is at least [`TICK_EVERY_S`] old.
    pub fn maybe_tick(&mut self) {
        if self.now() - self.last_tick >= TICK_EVERY_S {
            self.tick();
        }
    }

    /// The ticks that scale work on one thread, or on every lane.
    fn samples(&self, parallel: bool) -> &Samples {
        if parallel && !self.lanes.is_empty() {
            &self.parallel
        } else {
            &self.single
        }
    }

    /// The median tick so far, milliseconds.
    pub fn median_tick_ms(&self, parallel: bool) -> f64 {
        let ticks: Vec<f64> = self.samples(parallel).iter().map(|s| s.1).collect();
        crate::percentile(&ticks, 0.5)
    }

    /// The interval `[from, to]` (seconds on this speedometer's clock) of
    /// work on one thread, or on every lane, scaled to the nominal
    /// reference speed, in seconds: its length times [`NOMINAL_MS`] ÷ the
    /// median tick within [`HALO_S`] of it. A tick follows every interval
    /// within [`TICK_EVERY_S`], so there always is one.
    pub fn scaled(&self, (from, to): (f64, f64), parallel: bool) -> f64 {
        let samples = self.samples(parallel);
        let lo = samples.partition_point(|s| s.0 < from - HALO_S);
        let hi = samples.partition_point(|s| s.0 <= to + HALO_S);
        let near: Vec<f64> = samples[lo..hi].iter().map(|s| s.1).collect();
        assert!(!near.is_empty(), "no reference tick near {from}..{to}");
        (to - from) * NOMINAL_MS / crate::percentile(&near, 0.5)
    }
}

impl Drop for Speedometer {
    /// Stops every lane and waits for it to end.
    fn drop(&mut self) {
        for Lane { go, done, thread } in self.lanes.drain(..) {
            drop((go, done));
            thread.join().expect("reference lane ends cleanly");
        }
    }
}
