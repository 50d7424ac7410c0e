//! The traced run's layer arms: the workload's stream pushed through each
//! stacked layer on its own (bare Alg 1, Alg 3, and the one-shard serving
//! engine), plus the single-layer probes that the end-to-end passes never
//! isolate.

use crate::openloop::Schedule;
use crate::passes::{ingest, last_index, Tally, READ_BATCH};
use crate::setup::{bits_equal, Input, Spec, CHUNK};
use crate::spans::{Layer, Recorder};
use crate::stats::batch_ns;
use crate::ALLOC;
use gps_core::{post_stream, GpsSampler, InStreamEstimator, SamplerStats, TriangleWeight};
use gps_engine::EngineConfig;
use gps_serve::{EstimateEpoch, QueryHandle, ServeConfig, ServeEngine};
use gps_telemetry::HistogramSample;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Stages of the serving pipeline read back from the flight recorder.
pub const STAGES: [&str; 5] = [
    "arrival_batch",
    "shard_report",
    "merge",
    "seqlock_publish",
    "first_observation",
];

/// Alg 2 queries per round over the bare Alg 1 arm's final sample.
const QUERIES_PER_PASS: usize = 64;

/// Probe repetitions per batch-timed probe sample.
const PROBE_REPS: usize = 4;

#[derive(Default)]
pub struct LayerSamples {
    pub alg1_ns_per_edge: Vec<f64>,
    pub alg3_ns_per_edge: Vec<f64>,
    pub serve_ns_per_edge: Vec<f64>,
    pub stats: SamplerStats,
    pub query_ms: Vec<f64>,
    pub query_ns_per_sampled_edge: Vec<f64>,
    pub tri_probe_ns: Vec<f64>,
    pub wedge_probe_ns: Vec<f64>,
    pub bytes_per_edge: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub save_bytes_per_edge: Vec<f64>,
    pub push_ns: Vec<f64>,
    pub push_blocked_frac: Vec<f64>,
    pub finish_ms: Vec<f64>,
    pub batches: u64,
    pub queue_highwater: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub serve_read_ns: Vec<f64>,
    /// Freshness of each epoch the open serving arm observed, ms.
    pub fresh_ms: Vec<f64>,
    pub epochs: u64,
    pub edges_per_epoch: f64,
    pub stages: BTreeMap<&'static str, Vec<f64>>,
    pub traces_lost: u64,
    pub staleness: Option<HistogramSample>,
    pub late_ns: Vec<f64>,
}

/// Bare Alg 1 over the stream: ns per arrival, exact sampler counts, then
/// Alg 2 queries and adjacency probes against the final sample.
pub fn alg1(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    rec: &mut Recorder,
    l: &mut LayerSamples,
    t: &mut Tally,
) {
    let before = ALLOC.live();
    let (sampler, ns) = ingest::<GpsSampler<TriangleWeight>>(spec, inp, seed, rec, |_, _, _, _| {});
    let held = ALLOC.live().saturating_sub(before) as f64;
    let sampled = sampler.len().max(1) as f64;
    t.ops(inp.edges.len().div_ceil(CHUNK));
    l.alg1_ns_per_edge.push(ns as f64 / inp.edges.len() as f64);
    l.stats = sampler.stats();
    l.bytes_per_edge.push(held / sampled);
    for _ in 0..QUERIES_PER_PASS {
        let t0 = Instant::now();
        black_box(rec.span("alg2.query", Layer::PostStream, || {
            post_stream::estimate(&sampler)
        }));
        let ns = t0.elapsed().as_nanos() as f64;
        l.query_ms.push(ns / 1e6);
        l.query_ns_per_sampled_edge.push(ns / sampled);
    }
    let view = &sampler.view();
    let probes = &inp.probes;
    let tri = rec.span("graph.tri_probe", Layer::Compact, || {
        batch_ns(PROBE_REPS * probes.len(), {
            let mut i = 0;
            move || {
                black_box(view.triangles_closed_by(probes[i % probes.len()]));
                i += 1;
            }
        })
    });
    let wedge = rec.span("graph.wedge_probe", Layer::Compact, || {
        batch_ns(PROBE_REPS * probes.len(), {
            let mut i = 0;
            move || {
                black_box(view.wedges_closed_by(probes[i % probes.len()]));
                i += 1;
            }
        })
    });
    l.tri_probe_ns.push(tri);
    l.wedge_probe_ns.push(wedge);
    t.ops(QUERIES_PER_PASS + 2);
}

/// Alg 3 over the stream: ns per arrival, and `persist::save_estimator` at
/// the serving engine's checkpoint cadence (outside the ingest timing).
pub fn alg3(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    rec: &mut Recorder,
    l: &mut LayerSamples,
    t: &mut Tally,
) {
    let mut next_save = spec.checkpoint_every;
    let mut buf = Vec::new();
    let (est, ns) =
        ingest::<InStreamEstimator<TriangleWeight>>(spec, inp, seed, rec, |_, _, est, rec| {
            if est.sampler().arrivals() < next_save {
                return;
            }
            next_save += spec.checkpoint_every;
            buf.clear();
            let t0 = Instant::now();
            let saved = rec.span("persist.save", Layer::Persist, || {
                gps_core::persist::save_estimator(est, &mut buf)
            });
            let ms = t0.elapsed().as_nanos() as f64 / 1e6;
            t.ops(1);
            match saved {
                Ok(()) => {
                    l.save_ms.push(ms);
                    l.save_bytes_per_edge
                        .push(buf.len() as f64 / est.sampler().len().max(1) as f64);
                }
                Err(e) => t.fail(format!("{}: save_estimator failed: {e}", spec.name)),
            }
        });
    t.ops(inp.edges.len().div_ceil(CHUNK));
    l.alg3_ns_per_edge.push(ns as f64 / inp.edges.len() as f64);
    black_box(est.estimates());
}

/// One shard on the workload's m and seed, checkpointing at the workload's
/// cadence; batch size, queue depth and epoch cadence are the defaults.
fn serve_config(spec: &Spec, seed: u64) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            checkpoint_every: spec.checkpoint_every,
            ..EngineConfig::new(spec.capacity, 1, seed)
        },
        ..ServeConfig::new(spec.capacity, 1, seed)
    }
}

/// The final epoch covers every pushed arrival and restates the bare
/// single-threaded estimator bit for bit.
fn check_final_epoch(
    spec: &Spec,
    inp: &Input,
    ep: Option<EstimateEpoch>,
    pushed: usize,
    t: &mut Tally,
) {
    let Some(ep) = ep else {
        t.ops(1);
        t.fail(format!("{}: no final epoch", spec.name));
        return;
    };
    t.check(ep.edges_seen == pushed as u64, || {
        format!(
            "{}: final watermark {} != {pushed} pushed",
            spec.name, ep.edges_seen
        )
    });
    match &inp.reference {
        Some(reference) => t.check(bits_equal(&ep.estimates, reference), || {
            format!(
                "{}: final epoch differs from the bare in-stream estimator",
                spec.name
            )
        }),
        None => {
            t.ops(1);
            t.fail(format!("{}: no bare reference to check against", spec.name));
        }
    }
}

/// The one-shard serving engine in a closed loop: chunks pushed as fast as
/// accepted, then `finish`. Per-call push latency, how much of the wall
/// time the driver spends blocked in `push_batch`, `finish`, the engine's
/// own counters, and the final epoch's checks.
pub fn serve_closed(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    rec: &mut Recorder,
    l: &mut LayerSamples,
    t: &mut Tally,
) {
    let n = inp.edges.len();
    let mut serve = ServeEngine::with_config(serve_config(spec, seed), TriangleWeight::default());
    let start = Instant::now();
    let mut pushing = 0u128;
    for chunk in inp.edges.chunks(CHUNK) {
        let t0 = Instant::now();
        rec.span("engine.push_batch", Layer::Engine, || {
            serve.push_batch(chunk)
        });
        let ns = t0.elapsed().as_nanos();
        pushing += ns;
        l.push_ns.push(ns as f64);
    }
    let t0 = Instant::now();
    rec.span("engine.finish", Layer::Engine, || serve.finish());
    let finish = t0.elapsed().as_nanos();
    let wall = start.elapsed().as_nanos();
    t.ops(n.div_ceil(CHUNK) + 1);
    l.serve_ns_per_edge
        .push((pushing + finish) as f64 / n as f64);
    l.push_blocked_frac
        .push(pushing as f64 / wall.max(1) as f64);
    l.finish_ms.push(finish as f64 / 1e6);
    check_final_epoch(spec, inp, serve.handle().latest(), n, t);
    let tel = serve.telemetry();
    l.batches = tel.counter_value("gps_engine_batches_total").unwrap_or(0);
    l.queue_highwater = tel
        .gauge_value("gps_engine_queue_depth_highwater")
        .unwrap_or(0);
    l.checkpoints = tel
        .counter_value("gps_engine_checkpoints_total")
        .unwrap_or(0);
    l.checkpoint_bytes = tel
        .counter_value("gps_engine_checkpoint_bytes_total")
        .unwrap_or(0);
}

/// Epoch observations made by the open-loop driver.
#[derive(Default)]
struct Observer {
    version: u64,
    edges_seen: u64,
}

impl Observer {
    /// Records an observed epoch: a new version yields a freshness sample.
    fn see(
        &mut self,
        ep: Option<EstimateEpoch>,
        sched: &Schedule,
        l: &mut LayerSamples,
        t: &mut Tally,
    ) {
        let Some(ep) = ep else { return };
        if ep.version == self.version {
            return;
        }
        t.check(ep.version > self.version, || {
            format!(
                "epoch version went back from {} to {}",
                self.version, ep.version
            )
        });
        if ep.version < self.version {
            return;
        }
        t.check(ep.edges_seen >= self.edges_seen, || {
            format!("epoch {} watermark went back", ep.version)
        });
        self.version = ep.version;
        self.edges_seen = ep.edges_seen;
        if ep.edges_seen > 0 {
            l.fresh_ms.push(sched.fresh_ns(ep.edges_seen) / 1e6);
        }
    }
}

/// Keeps each epoch's provenance trace once, after the driver has observed
/// that epoch or a later one (so its first-observation stage is stamped
/// when it will be). Returns the newest version taken.
fn drain_traces(handle: &QueryHandle, taken: u64, observed: u64, l: &mut LayerSamples) -> u64 {
    let mut taken = taken;
    for tr in handle.recent_traces(gps_telemetry::DEFAULT_TRACE_CAPACITY) {
        if tr.version <= taken || tr.version > observed {
            continue;
        }
        // Versions count up from 1; a gap is a trace that left the
        // recorder before this drain reached it.
        l.traces_lost += tr.version - taken - 1;
        taken = tr.version;
        for sp in &tr.spans {
            if let Some(v) = l.stages.get_mut(sp.stage) {
                v.push(sp.duration_ns() as f64);
            }
        }
    }
    taken
}

/// The one-shard serving engine in an open loop at the workload's rate:
/// each chunk is pushed when its last arrival is due, and between due times
/// the driver polls `latest()`, timing one read batch per gap. Freshness,
/// read cost, epoch cadence, and the per-stage pipeline latencies.
pub fn serve_open(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    rec: &mut Recorder,
    l: &mut LayerSamples,
    t: &mut Tally,
) {
    for st in STAGES {
        l.stages.entry(st).or_default();
    }
    let n = inp.edges.len();
    let mut serve = ServeEngine::with_config(serve_config(spec, seed), TriangleWeight::default());
    let handle = serve.handle();
    let mut sched = Schedule::new(spec.rate);
    let mut obs = Observer::default();
    let mut taken = 0;
    for (k, chunk) in inp.edges.chunks(CHUNK).enumerate() {
        let last = last_index(k, chunk);
        let mut read_done = false;
        let wait = rec.begin("openloop.wait", Layer::Idle);
        loop {
            obs.see(handle.latest(), &sched, l, t);
            if sched.is_due(last) {
                break;
            }
            if !read_done {
                let mut seen = None;
                let ns = rec.span("serve.read_batch", Layer::Serve, || {
                    batch_ns(READ_BATCH, || seen = black_box(&handle).latest())
                });
                obs.see(seen, &sched, l, t);
                l.serve_read_ns.push(ns);
                t.ops(1);
                read_done = true;
            }
        }
        rec.end(wait);
        sched.offer(last);
        rec.span("engine.push_batch", Layer::Engine, || {
            serve.push_batch(chunk)
        });
        // The recorder keeps 64 traces; at one epoch per two chunks,
        // draining every 16 chunks never lets one fall out.
        if k % 16 == 15 {
            taken = drain_traces(&handle, taken, obs.version, l);
        }
    }
    // The engine ships only full batches before `finish`, so the last epoch
    // boundary at or below the pushed count is the watermark to wait for.
    let every = serve_config(spec, seed).engine.epoch_every;
    let mark = n as u64 / every * every;
    let end = rec.span("serve.watermark_wait", Layer::Serve, || {
        handle.wait_for_edges(mark)
    });
    if end.is_none() {
        t.fail(format!(
            "{}: watermark {mark} was never published",
            spec.name
        ));
    }
    obs.see(end, &sched, l, t);
    rec.span("engine.finish", Layer::Engine, || serve.finish());
    drain_traces(&handle, taken, u64::MAX, l);
    let tel = handle.telemetry();
    l.epochs = tel
        .counter_value("gps_serve_epochs_published_total")
        .unwrap_or(0);
    l.edges_per_epoch = n as f64 / l.epochs.max(1) as f64;
    l.staleness = tel
        .histogram_sample("gps_serve_publish_staleness_ns")
        .cloned();
    l.late_ns.extend(sched.lateness_ns);
    check_final_epoch(spec, inp, handle.latest(), n, t);
}
