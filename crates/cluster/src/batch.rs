//! Gateway-level batch scheduling across shards (experiment E8).
//!
//! Models one dispatch round the way the engine actually performs it, but
//! at cluster scale: each shard's gateway thread runs a **serial control
//! plane** — probe every local camera over the real link models (a dead
//! camera costs the full per-kind probe timeout), compute a LERFA + SRFE
//! schedule with op-counted CPU time (§5), and transmit one command
//! exchange per assignment — after which the cameras service their lanes
//! in parallel. This additivity is faithful to §4/§5: candidate devices
//! are locked for the whole assignment phase, so no action starts until
//! the shard's schedule is fixed and transmitted. Shards run concurrently;
//! the cluster makespan is the slowest shard.
//!
//! Cross-shard failover appears as a second wave: when a shard's entire
//! camera block is down (a shard-local crash storm), the gateway learns of
//! the exhaustion once that shard's probe pass completes and re-routes the
//! stranded requests to the sibling offering the cheapest eligible camera,
//! which schedules them after its own wave.
//!
//! Everything derives from the configured seed, so the whole outcome —
//! rendered by [`BatchOutcome::render`] — is byte-identical across runs.

use aorta_device::{DeviceId, DeviceKind, PervasiveLab, PhotoSize};
use aorta_net::{Channel, DeviceRegistry, Message, ProbeOutcome, Prober};
use aorta_sched::{run_algorithm, Algorithm, CameraPhotoModel, CostModel, Instance};
use aorta_sim::{CpuModel, SimDuration, SimRng, SimTime};

use crate::partition::stripe_of;

/// Parameters of one gateway batch round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Photo requests *n* (targets drawn uniformly over the lab floor).
    pub requests: usize,
    /// Cameras *m*, mounted in a row along the lab's x axis.
    pub cameras: usize,
    /// Shards *k*; cameras and targets partition into x-axis stripes.
    pub shards: usize,
    /// Seed for targets, link jitter, and scheduling tie-breaks.
    pub seed: u64,
    /// Cameras `0..crashed_cameras` are down for the whole round — with
    /// striped partitioning this is a shard-local crash storm (camera
    /// mounts are ordered by x, so low indices fill the low stripes).
    pub crashed_cameras: usize,
}

/// Per-shard timing breakdown of one batch round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBatchReport {
    /// Shard ID.
    pub shard: usize,
    /// Cameras owned (live + crashed).
    pub cameras: usize,
    /// Cameras that answered their probe.
    pub live_cameras: usize,
    /// Requests whose target falls in this shard's stripe.
    pub requests: usize,
    /// Requests adopted from siblings whose camera block was down.
    pub adopted: usize,
    /// Serial probe pass over every owned camera (timeouts included).
    pub probe_time: SimDuration,
    /// Op-counted LERFA + SRFE scheduling time (both waves).
    pub sched_time: SimDuration,
    /// Serial command-transmission time, one exchange per assignment.
    pub xmit_time: SimDuration,
    /// Parallel service makespan over this shard's camera lanes.
    pub service_time: SimDuration,
    /// When this shard's last request completes.
    pub makespan: SimDuration,
}

/// The outcome of one cluster batch round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Per-shard breakdowns, indexed by shard ID.
    pub per_shard: Vec<ShardBatchReport>,
    /// Cluster makespan: the slowest shard (shards run concurrently).
    pub makespan: SimDuration,
    /// Requests re-routed across shards by the gateway.
    pub rerouted: usize,
    /// Requests moved at admission by queue-depth saturation routing (the
    /// gateway tops overloaded shards off at an even quota).
    pub balanced: usize,
    /// Requests no shard could serve (every camera down).
    pub dropped: usize,
}

impl BatchOutcome {
    /// A canonical text rendering — the artifact E8's byte-identical
    /// determinism check compares.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.per_shard {
            out.push_str(&format!(
                "s{} cams={}/{} req={}+{} probe={} sched={} xmit={} service={} makespan={}\n",
                r.shard,
                r.live_cameras,
                r.cameras,
                r.requests,
                r.adopted,
                r.probe_time,
                r.sched_time,
                r.xmit_time,
                r.service_time,
                r.makespan,
            ));
        }
        out.push_str(&format!(
            "cluster makespan={} rerouted={} balanced={} dropped={}\n",
            self.makespan, self.rerouted, self.balanced, self.dropped
        ));
        out
    }
}

/// Runs one gateway batch round: `n` photo requests over `m` cameras
/// partitioned into `k` stripe shards.
pub fn run_photo_batch(cfg: &BatchConfig) -> BatchOutcome {
    assert!(cfg.shards > 0 && cfg.cameras > 0, "degenerate batch");
    let k = cfg.shards;
    let width = PervasiveLab::ROOM.0;
    let lab = PervasiveLab::with_sizes(cfg.cameras, 0, 0).with_reliable_cameras();
    let mut root = SimRng::seed(cfg.seed);
    let targets = lab.random_floor_targets(cfg.requests, &mut root.fork(1));

    // Partition cameras and targets into x stripes.
    let mut shard_cams: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, cam) in lab.cameras.iter().enumerate() {
        shard_cams[stripe_of(cam.mount().x, width, k)].push(i);
    }
    let mut shard_reqs: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (r, t) in targets.iter().enumerate() {
        shard_reqs[stripe_of(t.x, width, k)].push(r);
    }

    // Queue-depth saturation routing at admission: uniform targets still
    // land unevenly across stripes, and the cluster makespan is set by the
    // slowest shard, so the gateway levels predicted shard makespans before
    // dispatch. The prediction reuses LERFA + SRFE itself on last-known
    // status (the same planner the shard will run — no probe is spent
    // here, and a fresh seed-derived rng keeps the estimate a pure
    // function of the request set). While moving one request off the
    // slowest shard strictly lowers the pairwise max, move the one that
    // helps most: per sibling, the request it can serve cheapest.
    let cpu = CpuModel::paper_notebook();
    let full_models: Vec<Option<CameraPhotoModel>> = (0..k)
        .map(|s| {
            (!shard_cams[s].is_empty()).then(|| {
                let cams = shard_cams[s]
                    .iter()
                    .map(|&c| lab.cameras[c].clone())
                    .collect();
                CameraPhotoModel::new(cams, &targets, PhotoSize::Medium)
            })
        })
        .collect();
    // cheapest[r][s]: estimated micros for request r's cheapest camera on
    // shard s (None when the shard owns no cameras).
    let cheapest: Vec<Vec<Option<u64>>> = (0..targets.len())
        .map(|r| {
            full_models
                .iter()
                .map(|m| {
                    m.as_ref().map(|model| {
                        (0..model.cameras().len())
                            .filter_map(|d| model.cost(r, d, &model.initial_status(d)))
                            .map(SimDuration::as_micros)
                            .min()
                            .expect("model has cameras")
                    })
                })
                .collect()
        })
        .collect();
    // Predicted shard makespan: probe pass + op-counted scheduling +
    // per-assignment command exchange + parallel service, in micros.
    const EXCHANGE_EST_MICROS: u64 = 5_000;
    let est_shard = |s: usize, reqs: &[usize]| -> u64 {
        let m = shard_cams[s].len();
        let probe = m as u64 * EXCHANGE_EST_MICROS;
        if m == 0 || reqs.is_empty() {
            return probe;
        }
        let cams: Vec<_> = shard_cams[s]
            .iter()
            .map(|&c| lab.cameras[c].clone())
            .collect();
        let wave_targets: Vec<_> = reqs.iter().map(|&r| targets[r]).collect();
        let model = CameraPhotoModel::new(cams, &wave_targets, PhotoSize::Medium);
        let inst = Instance::fully_eligible(wave_targets.len(), m);
        let mut rng = SimRng::seed(cfg.seed ^ 0xE571_AA00).fork(s as u64);
        let res = run_algorithm(&Algorithm::LerfaSrfe, &inst, &model, &cpu, &mut rng);
        probe
            + res.sched_time.as_micros()
            + reqs.len() as u64 * EXCHANGE_EST_MICROS
            + res.service_makespan.as_micros()
    };
    // Two balancing phases. First, gap-halving rounds: while the predicted
    // spread between the slowest and fastest shard is material, shift a
    // batch of requests sized to close half the gap (the requests the
    // destination serves cheapest). Then a hill-climb polish: move single
    // requests off the slowest shard's critical lane while that strictly
    // lowers the pairwise max — bulk rounds equalize coarsely, single
    // moves then shave the critical lane the bulk metric can't see.
    let mut balanced = 0usize;
    if k > 1 {
        let mut est: Vec<u64> = (0..k).map(|s| est_shard(s, &shard_reqs[s])).collect();
        for _ in 0..24 {
            let Some(src) = (0..k)
                .filter(|&s| shard_reqs[s].len() > 1 && !shard_cams[s].is_empty())
                .max_by_key(|&s| (est[s], std::cmp::Reverse(s)))
            else {
                break;
            };
            let Some(dst) = (0..k)
                .filter(|&t| t != src && !shard_cams[t].is_empty())
                .min_by_key(|&t| (est[t], t))
            else {
                break;
            };
            let gap = est[src].saturating_sub(est[dst]);
            if gap < 10 * EXCHANGE_EST_MICROS {
                break;
            }
            let per_req = (est[src] / shard_reqs[src].len() as u64).max(1);
            let batch = (((gap / 2) / per_req).max(1) as usize).min(shard_reqs[src].len() - 1);
            let mut order: Vec<usize> = (0..shard_reqs[src].len()).collect();
            order.sort_by_key(|&p| (cheapest[shard_reqs[src][p]][dst], p));
            let mut take = order[..batch].to_vec();
            take.sort_unstable_by(|a, b| b.cmp(a));
            for p in take {
                let r = shard_reqs[src].remove(p);
                shard_reqs[dst].push(r);
                balanced += 1;
            }
            est[src] = est_shard(src, &shard_reqs[src]);
            est[dst] = est_shard(dst, &shard_reqs[dst]);
        }
        for _ in 0..8 * k + 64 {
            let Some(src) = (0..k)
                .filter(|&s| shard_reqs[s].len() > 1 && !shard_cams[s].is_empty())
                .max_by_key(|&s| (est[s], std::cmp::Reverse(s)))
            else {
                break;
            };
            let cur_max = est[src];
            // Only removals that shorten src's critical lane matter (every
            // removal shaves one command exchange; demand more than that).
            let mut reducing: Vec<(u64, usize)> = shard_reqs[src]
                .iter()
                .enumerate()
                .filter_map(|(pos, _)| {
                    let mut minus = shard_reqs[src].clone();
                    minus.remove(pos);
                    let v = est_shard(src, &minus);
                    (v + 2 * EXCHANGE_EST_MICROS < cur_max).then_some((v, pos))
                })
                .collect();
            reducing.sort();
            reducing.truncate(16);
            // Best move: (resulting pairwise max, dest, pos), minimized.
            let mut best: Option<(u64, usize, usize)> = None;
            for &(new_src, pos) in &reducing {
                let moved = shard_reqs[src][pos];
                for t in 0..k {
                    if t == src || shard_cams[t].is_empty() || cheapest[moved][t].is_none() {
                        continue;
                    }
                    let mut dst_plus = shard_reqs[t].clone();
                    dst_plus.push(moved);
                    let pair = new_src.max(est_shard(t, &dst_plus));
                    if pair < cur_max && best.is_none_or(|b| (pair, t, pos) < b) {
                        best = Some((pair, t, pos));
                    }
                }
            }
            let Some((_, t, pos)) = best else { break };
            let r = shard_reqs[src].remove(pos);
            shard_reqs[t].push(r);
            est[src] = est_shard(src, &shard_reqs[src]);
            est[t] = est_shard(t, &shard_reqs[t]);
            balanced += 1;
        }
    }

    // Serial probe pass per shard over the real communication layer: live
    // cameras cost a probe round-trip, dead ones the full probe timeout.
    let mut live: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut probe_time = vec![SimDuration::ZERO; k];
    for s in 0..k {
        let mut registry = DeviceRegistry::new();
        for &c in &shard_cams[s] {
            let id = registry.register(lab.cameras[c].clone().into(), SimTime::ZERO);
            if c < cfg.crashed_cameras {
                registry.set_online(id, false);
            }
        }
        let mut prober = Prober::new();
        let mut rng = root.fork(0x9B0 + s as u64);
        for &c in &shard_cams[s] {
            let id = DeviceId::camera(c as u32);
            let now = SimTime::ZERO + probe_time[s];
            let (outcome, elapsed) = prober.probe_timed(&mut registry, id, now, &mut rng);
            probe_time[s] += elapsed;
            if matches!(outcome, ProbeOutcome::Available { .. }) {
                live[s].push(c);
            }
        }
    }

    // Cross-shard failover: a shard with no live camera strands its whole
    // stripe; the gateway re-routes each stranded request to the sibling
    // whose cheapest eligible camera minimizes the estimated photo cost.
    // Those requests arrive once the dead shard's probe pass has finished.
    let sibling_models: Vec<Option<CameraPhotoModel>> = (0..k)
        .map(|s| {
            (!live[s].is_empty()).then(|| {
                let cams = live[s].iter().map(|&c| lab.cameras[c].clone()).collect();
                CameraPhotoModel::new(cams, &targets, PhotoSize::Medium)
            })
        })
        .collect();
    let mut adopted: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut adopted_arrival = vec![SimDuration::ZERO; k];
    let mut rerouted = 0usize;
    let mut dropped = 0usize;
    for s in 0..k {
        if !live[s].is_empty() {
            continue;
        }
        for &r in &shard_reqs[s] {
            let mut best: Option<(SimDuration, usize)> = None;
            for (t, model) in sibling_models.iter().enumerate() {
                let Some(model) = model else { continue };
                let cheapest = (0..model.cameras().len())
                    .filter_map(|d| model.cost(r, d, &model.initial_status(d)))
                    .min()
                    .expect("live shard has cameras");
                if best.is_none_or(|b| (cheapest, t) < b) {
                    best = Some((cheapest, t));
                }
            }
            match best {
                Some((_, t)) => {
                    rerouted += 1;
                    adopted[t].push(r);
                    adopted_arrival[t] = adopted_arrival[t].max(probe_time[s]);
                }
                None => dropped += 1,
            }
        }
    }

    // Per-shard waves: schedule, transmit, service.
    let registry = DeviceRegistry::new();
    let camera_link = registry.link(DeviceKind::Camera).clone();
    let mut per_shard = Vec::with_capacity(k);
    let mut cluster_makespan = SimDuration::ZERO;
    for s in 0..k {
        // Wave 1's scheduler rng is derived exactly as the admission-time
        // predictor derives it, so the gateway's balancing decisions are
        // made against the very schedule the shard will run.
        let mut wave_no: u64 = 0;
        let mut xmit_rng = root.fork(0xA40 + s as u64);
        let mut sched_time = SimDuration::ZERO;
        let mut xmit_time = SimDuration::ZERO;
        let mut service_time = SimDuration::ZERO;
        let cams: Vec<_> = live[s].iter().map(|&c| lab.cameras[c].clone()).collect();

        let mut wave = |reqs: &[usize],
                        sched_time: &mut SimDuration,
                        xmit_time: &mut SimDuration,
                        service_time: &mut SimDuration|
         -> SimDuration {
            if reqs.is_empty() || cams.is_empty() {
                return SimDuration::ZERO;
            }
            let wave_targets: Vec<_> = reqs.iter().map(|&r| targets[r]).collect();
            let model = CameraPhotoModel::new(cams.clone(), &wave_targets, PhotoSize::Medium);
            let inst = Instance::fully_eligible(wave_targets.len(), cams.len());
            let mut rng = SimRng::seed(cfg.seed ^ 0xE571_AA00).fork(s as u64 + wave_no * k as u64);
            wave_no += 1;
            let result = run_algorithm(&Algorithm::LerfaSrfe, &inst, &model, &cpu, &mut rng);
            // One command exchange per assignment: the gateway thread sends
            // the photo command and waits for the device's accept before
            // issuing the next (§4's synchronized dispatch).
            let channel = Channel::new(camera_link.clone());
            let mut xmit = SimDuration::ZERO;
            for (i, _) in reqs.iter().enumerate() {
                let command = Message::Photo {
                    target: model.aim(0, i),
                    size: PhotoSize::Medium,
                };
                if let Some(d) = channel.send(&command, &mut xmit_rng) {
                    xmit += d;
                }
                if let Some(d) = channel.send(&Message::PhotoAck { duration_us: 0 }, &mut xmit_rng)
                {
                    xmit += d;
                }
            }
            *sched_time += result.sched_time;
            *xmit_time += xmit;
            *service_time += result.service_makespan;
            result.sched_time + xmit + result.service_makespan
        };

        let wave1 = wave(
            &shard_reqs[s],
            &mut sched_time,
            &mut xmit_time,
            &mut service_time,
        );
        let wave1_end = probe_time[s] + wave1;
        let makespan = if adopted[s].is_empty() {
            wave1_end
        } else {
            let wave2 = wave(
                &adopted[s],
                &mut sched_time,
                &mut xmit_time,
                &mut service_time,
            );
            wave1_end.max(adopted_arrival[s]) + wave2
        };
        cluster_makespan = cluster_makespan.max(makespan);
        per_shard.push(ShardBatchReport {
            shard: s,
            cameras: shard_cams[s].len(),
            live_cameras: live[s].len(),
            requests: shard_reqs[s].len(),
            adopted: adopted[s].len(),
            probe_time: probe_time[s],
            sched_time,
            xmit_time,
            service_time,
            makespan,
        });
    }

    BatchOutcome {
        per_shard,
        makespan: cluster_makespan,
        rerouted,
        balanced,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize, crashed: usize) -> BatchConfig {
        BatchConfig {
            requests: 96,
            cameras: 24,
            shards,
            seed: 0xE8,
            crashed_cameras: crashed,
        }
    }

    #[test]
    fn batch_is_deterministic() {
        let a = run_photo_batch(&cfg(4, 6));
        let b = run_photo_batch(&cfg(4, 6));
        assert_eq!(a.render(), b.render());
        assert!(!a.render().is_empty());
    }

    #[test]
    fn sharding_shrinks_the_serial_control_plane() {
        let one = run_photo_batch(&cfg(1, 0));
        let four = run_photo_batch(&cfg(4, 0));
        assert_eq!(one.rerouted, 0);
        assert_eq!(four.rerouted, 0);
        let serial = |o: &BatchOutcome| {
            o.per_shard
                .iter()
                .map(|r| r.probe_time + r.sched_time + r.xmit_time)
                .max()
                .unwrap()
        };
        assert!(
            serial(&four) < serial(&one),
            "4-shard control plane {} should beat 1-shard {}",
            serial(&four),
            serial(&one)
        );
    }

    #[test]
    fn sharding_wins_once_the_control_plane_dominates() {
        // Below ~300 requests the monolith's serial control plane is cheap
        // enough that partitioning (which restricts camera choice) loses;
        // at this scale the cluster should win outright.
        let big = |shards| BatchConfig {
            requests: 320,
            cameras: 80,
            shards,
            seed: 0xE8,
            crashed_cameras: 0,
        };
        let one = run_photo_batch(&big(1));
        let four = run_photo_batch(&big(4));
        assert!(
            four.makespan < one.makespan,
            "4-shard makespan {} should beat 1-shard {}",
            four.makespan,
            one.makespan
        );
        assert!(four.balanced > 0, "gateway should level the stripes");
    }

    #[test]
    fn dead_shard_requests_fail_over_to_siblings() {
        // Crash shard 0's whole camera block (cameras are x-ordered, so
        // the first quarter of indices is exactly stripe 0).
        let out = run_photo_batch(&cfg(4, 6));
        assert_eq!(out.per_shard[0].live_cameras, 0);
        assert_eq!(out.dropped, 0, "siblings were available");
        assert_eq!(out.rerouted, out.per_shard[0].requests);
        let adopted: usize = out.per_shard.iter().map(|r| r.adopted).sum();
        assert_eq!(adopted, out.rerouted, "every reroute is adopted once");
    }

    #[test]
    fn all_cameras_down_drops_everything_counted() {
        let out = run_photo_batch(&cfg(2, 24));
        assert_eq!(out.rerouted, 0);
        assert_eq!(out.dropped, 96);
    }
}
