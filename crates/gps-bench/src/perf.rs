//! Reproducible `GPSUpdate` throughput measurement — the harness behind the
//! `bench_baseline` binary and the committed `BENCH_PR2.json` trajectory.
//!
//! Each [`Scenario`] is a full-stream sampling run: weight function ×
//! synthetic stream × reservoir capacity, on the sampler's
//! `CompactAdjacency` store (the `compact` measurement of the JSON
//! document). Timing takes the best of `iters` runs (minimum wall time —
//! the standard way to suppress scheduler noise for CPU-bound loops);
//! stream generation and sampler construction are untimed.
//!
//! The same protocol extends to the `gps-baselines` samplers
//! ([`run_baselines`]): the update-cost half of the paper's Table 2, on the
//! same adjacency store as GPS so it stays a pure algorithm measurement.
//!
//! [`run_engine`] adds the sharded-ingest scaling grid: the `gps-engine`
//! `ShardedGps` at `S ∈ {1, 2, 4, 8}` shards over a fixed total budget on
//! the triangle-weight Holme–Kim scenario (optional `engine` section of
//! the JSON document).
//!
//! [`run_chaos`] adds the fault-injection grid: a scripted mid-stream
//! crash + checkpoint restore at `S ∈ {2, 4}` (recovery latency measured
//! externally as faulted-minus-clean wall time, exact loss/restart counts
//! from the engine's incident ledger) plus a gated serving probe that
//! counts degraded epochs published while one shard is stalled (optional
//! `chaos` section).

use crate::json::Value;
use gps_baselines::{
    JhaWedgeSampler, Mascot, TriangleEstimator, TriestBase, TriestImpr, UniformReservoir,
};
use gps_chaos::run_engine_scenario;
use gps_core::weights::{TriadWeight, TriangleWeight, UniformWeight};
use gps_core::GpsSampler;
use gps_engine::{EngineConfig, EngineHealth, FaultPlan, ShardedGps};
use gps_graph::types::Edge;
use gps_serve::{ClockMode, ServeConfig, ServeEngine};
use gps_stream::{gen, permuted};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Weight functions covered by the baseline (brackets the per-edge cost:
/// uniform ≈ floor, triangle/triad pay the common-neighbor intersection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightKind {
    /// `W ≡ 1` — no topology probe.
    Uniform,
    /// `W = 9·|△̂(k)| + 1` — the paper's headline weight.
    Triangle,
    /// Triangle + wedge mixture — heaviest per-edge cost.
    Triad,
}

impl WeightKind {
    /// All weights, in reporting order.
    pub const ALL: [WeightKind; 3] = [WeightKind::Uniform, WeightKind::Triangle, WeightKind::Triad];

    /// Stable scenario-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            WeightKind::Uniform => "uniform",
            WeightKind::Triangle => "triangle",
            WeightKind::Triad => "triad",
        }
    }
}

/// Stream generators covered by the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Holme–Kim: clustered power-law (many triangles; heavy intersection).
    HolmeKim,
    /// R-MAT (social parameters): skewed hub degrees.
    Rmat,
}

impl StreamKind {
    /// All streams, in reporting order.
    pub const ALL: [StreamKind; 2] = [StreamKind::HolmeKim, StreamKind::Rmat];

    /// Stable scenario-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::HolmeKim => "holme_kim",
            StreamKind::Rmat => "rmat",
        }
    }

    /// Generates the (seeded, permuted) edge stream at the given scale.
    /// Full-mode scales approximate the paper's §6 regime (graphs of
    /// hundreds of thousands of edges, reservoirs up to hundreds of
    /// thousands of slots); quick mode is CI-smoke sized.
    pub fn edges(self, quick: bool, seed: u64) -> Vec<Edge> {
        let edges = match (self, quick) {
            (StreamKind::HolmeKim, false) => gen::holme_kim(80_000, 4, 0.5, seed),
            (StreamKind::HolmeKim, true) => gen::holme_kim(2_000, 3, 0.5, seed),
            (StreamKind::Rmat, false) => gen::rmat(18, 320_000, gen::RmatParams::social(), seed),
            (StreamKind::Rmat, true) => gen::rmat(12, 8_000, gen::RmatParams::social(), seed),
        };
        permuted(&edges, seed ^ 0x5eed)
    }
}

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stream generator.
    pub stream: StreamKind,
    /// Weight function.
    pub weight: WeightKind,
    /// Reservoir capacity `m`.
    pub capacity: usize,
}

impl Scenario {
    /// Stable machine-readable name, e.g. `holme_kim/triangle/m2000`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/m{}",
            self.stream.name(),
            self.weight.name(),
            self.capacity
        )
    }
}

/// Timing result of one scenario.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Best-of-iters wall time for the full stream, in nanoseconds.
    pub elapsed_ns: u128,
    /// Nanoseconds per processed edge (best run).
    pub ns_per_edge: f64,
    /// Processed edges per second (best run).
    pub edges_per_sec: f64,
}

/// A measured scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The configuration.
    pub scenario: Scenario,
    /// Edges in the stream (arrivals processed per run).
    pub edges: usize,
    /// Sampler throughput on the compact adjacency.
    pub compact: Measurement,
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Reduced streams/capacities for CI smoke runs.
    pub quick: bool,
    /// Timed repetitions per scenario; the minimum is reported.
    pub iters: usize,
    /// Stream / sampler seed.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            quick: false,
            iters: 3,
            seed: 42,
        }
    }
}

/// Reservoir capacities measured per stream.
pub fn capacities(quick: bool) -> [usize; 2] {
    if quick {
        [500, 2_000]
    } else {
        [8_000, 16_000]
    }
}

fn time_once<W: gps_core::weights::EdgeWeight + Copy>(
    edges: &[Edge],
    capacity: usize,
    weight_fn: W,
    seed: u64,
) -> u128 {
    let mut sampler = GpsSampler::new(capacity, weight_fn, seed);
    let start = Instant::now();
    for &e in edges {
        sampler.process(e);
    }
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(sampler.len());
    elapsed
}

fn to_measurement(best_ns: u128, edges: usize) -> Measurement {
    let secs = best_ns as f64 / 1e9;
    Measurement {
        elapsed_ns: best_ns,
        ns_per_edge: best_ns as f64 / edges as f64,
        edges_per_sec: edges as f64 / secs.max(f64::MIN_POSITIVE),
    }
}

/// Best-of-`iters` sampler run over the whole stream.
fn time_best<W: gps_core::weights::EdgeWeight + Copy>(
    edges: &[Edge],
    capacity: usize,
    weight_fn: W,
    seed: u64,
    iters: usize,
) -> Measurement {
    let best = (0..iters.max(1))
        .map(|_| time_once(edges, capacity, weight_fn, seed))
        .min()
        .expect("at least one iteration");
    to_measurement(best, edges.len())
}

fn measure(edges: &[Edge], scenario: Scenario, cfg: &PerfConfig) -> Measurement {
    let (m, seed, iters) = (scenario.capacity, cfg.seed, cfg.iters);
    match scenario.weight {
        WeightKind::Uniform => time_best(edges, m, UniformWeight, seed, iters),
        WeightKind::Triangle => time_best(edges, m, TriangleWeight::default(), seed, iters),
        WeightKind::Triad => time_best(edges, m, TriadWeight::default(), seed, iters),
    }
}

/// Runs the full scenario grid (streams × weights × capacities),
/// invoking `progress` with each finished scenario.
pub fn run_all(cfg: &PerfConfig, mut progress: impl FnMut(&ScenarioResult)) -> Vec<ScenarioResult> {
    let mut results = Vec::new();
    for stream in StreamKind::ALL {
        let edges = stream.edges(cfg.quick, cfg.seed);
        for capacity in capacities(cfg.quick) {
            for weight in WeightKind::ALL {
                let scenario = Scenario {
                    stream,
                    weight,
                    capacity,
                };
                let result = ScenarioResult {
                    scenario,
                    edges: edges.len(),
                    compact: measure(&edges, scenario, cfg),
                };
                progress(&result);
                results.push(result);
            }
        }
    }
    results
}

/// A `gps-baselines` sampler timed over one full stream (same
/// best-of-iters protocol as the GPS grid).
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Estimator display name (e.g. `TRIEST`).
    pub name: &'static str,
    /// Stable machine-readable scenario name, e.g. `baseline/triest/m8000`.
    pub scenario: String,
    /// Stored-edge budget the estimator was configured for.
    pub capacity: usize,
    /// Edges in the stream (arrivals processed per run).
    pub edges: usize,
    /// Estimator throughput on the compact adjacency.
    pub compact: Measurement,
}

fn time_estimator(edges: &[Edge], mut est: Box<dyn TriangleEstimator>) -> u128 {
    let start = Instant::now();
    for &e in edges {
        est.process(e);
    }
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(est.stored_edges());
    elapsed
}

/// Times the store-based `gps-baselines` samplers: the update-cost half
/// of the paper's Table 2. NSAMP is excluded — it keeps no adjacency (its
/// cost is covered by the criterion `baselines` bench).
pub fn run_baselines(
    cfg: &PerfConfig,
    mut progress: impl FnMut(&BaselineResult),
) -> Vec<BaselineResult> {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = if cfg.quick { 500 } else { 8_000 };
    let p = (m as f64 / edges.len() as f64).min(1.0);
    let seed = cfg.seed;
    type Factory<'a> = Box<dyn Fn() -> Box<dyn TriangleEstimator> + 'a>;
    let factories: Vec<(&'static str, Factory)> = vec![
        (
            "triest",
            Box::new(move || Box::new(TriestBase::new(m, seed))),
        ),
        (
            "triest_impr",
            Box::new(move || Box::new(TriestImpr::new(m, seed))),
        ),
        ("mascot", Box::new(move || Box::new(Mascot::new(p, seed)))),
        (
            "jha",
            Box::new(move || Box::new(JhaWedgeSampler::new(m, (m / 8).max(16), seed))),
        ),
        (
            "uniform_reservoir",
            Box::new(move || Box::new(UniformReservoir::new(m, seed))),
        ),
    ];
    let mut results = Vec::new();
    for (name, factory) in &factories {
        let best = (0..cfg.iters.max(1))
            .map(|_| time_estimator(&edges, factory()))
            .min()
            .expect("at least one iteration");
        let result = BaselineResult {
            name: factory().name(),
            scenario: format!("baseline/{name}/m{m}"),
            capacity: m,
            edges: edges.len(),
            compact: to_measurement(best, edges.len()),
        };
        progress(&result);
        results.push(result);
    }
    results
}

/// Shard counts measured by the engine scaling grid.
pub const ENGINE_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Total reservoir budget of the engine scaling scenario. Full mode uses
/// the grid's largest single-reservoir capacity so the `S = 1` arm is
/// directly comparable to the `holme_kim/triangle/m16000` scenario.
pub fn engine_capacity(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        16_000
    }
}

/// One shard count of the engine scaling scenario: full-stream sharded
/// ingest (push + finish) at total budget `m/S` per shard.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// Shard / worker count `S`.
    pub shards: usize,
    /// Stable machine-readable name, e.g. `engine/holme_kim/triangle/m16000/s4`.
    pub scenario: String,
    /// Total reservoir budget `m` (split across shards).
    pub capacity: usize,
    /// Edges in the stream (arrivals pushed per run).
    pub edges: usize,
    /// Best-of-iters ingest numbers (includes batching, channel transfer
    /// and the final drain/join — everything between first push and owning
    /// the samplers).
    pub measurement: Measurement,
}

fn time_engine_once(edges: &[Edge], capacity: usize, shards: usize, seed: u64) -> u128 {
    let mut engine = ShardedGps::new(capacity, TriangleWeight::default(), seed, shards);
    let start = Instant::now();
    for &e in edges {
        engine.push(e);
    }
    engine.finish();
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(engine.len());
    elapsed
}

/// Measures the sharded engine's ingest throughput at `S ∈` [`ENGINE_SHARDS`]
/// on the triangle-weight Holme–Kim scenario (fixed *total* budget, so the
/// axis isolates sharding: per-shard reservoirs shrink as `m/S` and workers
/// run in parallel). The `S = 1` arm doubles as the engine-overhead
/// measurement against the bare-sampler scenario grid.
pub fn run_engine(cfg: &PerfConfig, mut progress: impl FnMut(&EngineResult)) -> Vec<EngineResult> {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = engine_capacity(cfg.quick);
    let mut results = Vec::new();
    for shards in ENGINE_SHARDS {
        let mut best = u128::MAX;
        for _ in 0..cfg.iters.max(1) {
            best = best.min(time_engine_once(&edges, m, shards, cfg.seed));
        }
        let result = EngineResult {
            shards,
            scenario: format!("engine/holme_kim/triangle/m{m}/s{shards}"),
            capacity: m,
            edges: edges.len(),
            measurement: to_measurement(best, edges.len()),
        };
        progress(&result);
        results.push(result);
    }
    results
}

/// Concurrent reader counts measured by the serving grid (the acceptance
/// axis: ingest rate at 0 / 1 / 4 readers hammering `latest()`).
pub const SERVE_READERS: [usize; 3] = [0, 1, 4];

/// Shard count of the serving scenario.
pub const SERVE_SHARDS: usize = 4;

/// One reader count of the serving scenario: full-stream ingest through
/// `gps-serve`'s `ServeEngine` (in-stream estimation in every worker,
/// epoch publication on) while `readers` threads hammer
/// `QueryHandle::latest()` in a loop.
#[derive(Clone, Debug)]
pub struct ServeResult {
    /// Concurrent reader threads.
    pub readers: usize,
    /// Stable machine-readable name, e.g.
    /// `serve/holme_kim/triangle/m16000/s4/r4`.
    pub scenario: String,
    /// Total reservoir budget `m` (split across [`SERVE_SHARDS`]).
    pub capacity: usize,
    /// Edges in the stream (arrivals pushed per run).
    pub edges: usize,
    /// Best-of-iters ingest numbers (push + finish, epochs publishing).
    pub measurement: Measurement,
    /// Total successful `latest()` reads across all readers (best run).
    pub reads: u64,
    /// Mean watermark lag `pushed − epoch.edges_seen` sampled during
    /// ingest (best run), in edges — the epoch staleness bound in action.
    pub staleness_mean_edges: f64,
    /// Maximum sampled watermark lag (best run), in edges.
    pub staleness_max_edges: u64,
}

struct ServeRun {
    elapsed: u128,
    reads: u64,
    staleness_mean: f64,
    staleness_max: u64,
}

fn time_serve_once(
    edges: &[Edge],
    capacity: usize,
    shards: usize,
    seed: u64,
    readers: usize,
) -> ServeRun {
    let mut serve = ServeEngine::new(capacity, TriangleWeight::default(), seed, shards);
    let stop = Arc::new(AtomicBool::new(false));
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let handle = serve.handle();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                // ordering: Relaxed — stop flag only ends the measurement
                // loop; no data travels through it.
                while !stop.load(Ordering::Relaxed) {
                    if handle.latest().is_some() {
                        reads += 1;
                    }
                    // A real reader does work between queries; without
                    // this, spinning readers on few cores starve ingest
                    // and the axis measures the scheduler, not the cell.
                    std::thread::yield_now();
                }
                reads
            })
        })
        .collect();
    let probe = serve.handle();
    let mut lag_sum = 0u128;
    let mut lag_samples = 0u64;
    let mut lag_max = 0u64;
    let start = Instant::now();
    for (i, chunk) in edges.chunks(1024).enumerate() {
        serve.push_batch(chunk);
        if i % 16 == 0 {
            let watermark = probe.latest().map_or(0, |e| e.edges_seen);
            let lag = serve.pushed().saturating_sub(watermark);
            lag_sum += lag as u128;
            lag_samples += 1;
            lag_max = lag_max.max(lag);
        }
    }
    serve.finish();
    let elapsed = start.elapsed().as_nanos();
    // ordering: Relaxed — shutdown signal after the timed region; reader
    // counts are collected via join(), which synchronizes.
    stop.store(true, Ordering::Relaxed);
    let reads = reader_handles.into_iter().map(|r| r.join().unwrap()).sum();
    std::hint::black_box(probe.latest());
    ServeRun {
        elapsed,
        reads,
        staleness_mean: lag_sum as f64 / lag_samples.max(1) as f64,
        staleness_max: lag_max,
    }
}

/// Measures live-serving ingest at `readers ∈` [`SERVE_READERS`] concurrent
/// query threads on the triangle-weight Holme–Kim scenario ([`SERVE_SHARDS`]
/// shards, fixed total budget): the `r0` arm prices in-stream estimation +
/// epoch publication against the plain engine, the `r1`/`r4` arms price
/// concurrent readers (which, by design, ingest should barely notice — the
/// read path never touches a lock the workers hold).
pub fn run_serve(cfg: &PerfConfig, mut progress: impl FnMut(&ServeResult)) -> Vec<ServeResult> {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = engine_capacity(cfg.quick);
    let mut results = Vec::new();
    for readers in SERVE_READERS {
        let mut best: Option<ServeRun> = None;
        for _ in 0..cfg.iters.max(1) {
            let run = time_serve_once(&edges, m, SERVE_SHARDS, cfg.seed, readers);
            if best.as_ref().is_none_or(|b| run.elapsed < b.elapsed) {
                best = Some(run);
            }
        }
        let best = best.expect("at least one iteration");
        let result = ServeResult {
            readers,
            scenario: format!("serve/holme_kim/triangle/m{m}/s{SERVE_SHARDS}/r{readers}"),
            capacity: m,
            edges: edges.len(),
            measurement: to_measurement(best.elapsed, edges.len()),
            reads: best.reads,
            staleness_mean_edges: round2(best.staleness_mean),
            staleness_max_edges: best.staleness_max,
        };
        progress(&result);
        results.push(result);
    }
    results
}

/// Shard counts measured by the chaos grid (the ISSUE acceptance axis:
/// crash recovery and degraded serving at `S ∈ {2, 4}`).
pub const CHAOS_SHARDS: [usize; 2] = [2, 4];

/// One shard count of the chaos scenario: the same full-stream sharded
/// ingest as the engine grid, but with a scripted mid-stream worker crash
/// that the supervisor must absorb via a checkpoint restore.
#[derive(Clone, Debug)]
pub struct ChaosResult {
    /// Shard / worker count `S`.
    pub shards: usize,
    /// Stable machine-readable name, e.g. `chaos/holme_kim/triangle/m16000/s4`.
    pub scenario: String,
    /// Total reservoir budget `m` (split across shards).
    pub capacity: usize,
    /// Edges in the stream (arrivals offered per run).
    pub edges: usize,
    /// Best-of-iters ingest with supervision + checkpointing armed but no
    /// fault injected — the honest denominator for recovery cost (both
    /// runs pay the checkpoint cadence).
    pub clean: Measurement,
    /// Best-of-iters ingest with the scripted crash + restore inline.
    pub faulted: Measurement,
    /// External wall-clock estimate of one crash-and-restore cycle:
    /// best faulted elapsed minus best clean elapsed, floored at zero
    /// (the engine itself never reads time into its estimates, so the
    /// latency is measured from outside).
    pub recovery_latency_ns: u128,
    /// Arrivals in the (checkpoint, crash] window the engine admits
    /// losing — exact, from [`EngineHealth`]; deterministic per seed.
    pub arrivals_lost: u64,
    /// Worker restarts the supervisor performed (1 for the single
    /// scripted crash).
    pub restarts: u64,
    /// Epochs a gated serving probe published while one shard was
    /// scripted to stall (timing-dependent; context for the next field).
    pub epochs: u64,
    /// Of those, epochs published in degraded mode (partial contributing
    /// set, honest per-color merge) once the publication gate expired.
    pub degraded_epochs: u64,
}

fn time_chaos_once(
    edges: &[Edge],
    capacity: usize,
    shards: usize,
    seed: u64,
    crash_at: Option<u64>,
) -> (u128, EngineHealth) {
    // Small batches so checkpoint boundaries actually precede the crash
    // site — otherwise the "restore" would be a from-scratch replay and
    // the loss window would swallow the whole substream so far.
    let cfg = EngineConfig {
        batch: 64,
        checkpoint_every: 64,
        ..EngineConfig::new(capacity, shards, seed)
    };
    let plan = match crash_at {
        Some(at) => FaultPlan::new().panic_at(shards - 1, at),
        None => FaultPlan::new(),
    };
    let start = Instant::now();
    let out = run_engine_scenario(cfg, TriangleWeight::default(), edges.iter().copied(), plan);
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(out.estimate.triangles.value);
    (elapsed, out.health)
}

/// Runs a quick-scale serving engine with one shard scripted to stall for
/// 400 ms behind a 50 ms publication gate (and a slowdown on shard 0 so a
/// live shard keeps reporting through the stall window), then counts the
/// epochs published and how many were degraded. Probe size is fixed at
/// quick scale regardless of mode: the metric is the gate's behavior
/// during the stall window, not throughput.
fn probe_degraded_epochs(shards: usize, seed: u64) -> (u64, u64) {
    let edges = StreamKind::HolmeKim.edges(true, seed);
    let cfg = ServeConfig {
        engine: EngineConfig {
            batch: 16,
            epoch_every: 32,
            checkpoint_every: 32,
            ..EngineConfig::new(edges.len() / 4, shards, seed)
        },
        subscribe_depth: 1 << 15,
        gate_timeout: Some(Duration::from_millis(50)),
        clock: ClockMode::Wall,
    };
    let faults = FaultPlan::new()
        .stall_at(shards - 1, 1, 400)
        .slowdown_at(0, 1, 2_000, 250);
    let mut serve = ServeEngine::with_config_and_faults(cfg, TriangleWeight::default(), faults);
    let sub = serve.handle().subscribe().expect("engine is live");
    serve.push_stream(edges.iter().copied());
    serve.finish();
    let mut epochs = 0u64;
    let mut degraded = 0u64;
    for epoch in sub {
        epochs += 1;
        if epoch.degraded() {
            degraded += 1;
        }
    }
    (epochs, degraded)
}

/// Measures crash recovery at `S ∈` [`CHAOS_SHARDS`] on the triangle-weight
/// Holme–Kim scenario: each shard count runs the stream clean (supervision
/// and checkpointing armed, no fault) and faulted (scripted panic on the
/// last shard a quarter into its expected substream), best of `iters`
/// each. Loss and restart counts come from the engine's deterministic
/// incident ledger; a gated serving probe contributes the degraded-epoch
/// count under a scripted stall.
pub fn run_chaos(cfg: &PerfConfig, mut progress: impl FnMut(&ChaosResult)) -> Vec<ChaosResult> {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = engine_capacity(cfg.quick);
    let mut results = Vec::new();
    for shards in CHAOS_SHARDS {
        // A quarter into the expected per-shard substream: far enough in
        // that checkpoints exist, early enough that every shard count
        // reaches it even with hash-partition imbalance.
        let crash_at = (edges.len() / shards / 4).max(1) as u64;
        let mut clean_best = u128::MAX;
        let mut faulted_best = u128::MAX;
        let mut health = EngineHealth::default();
        for _ in 0..cfg.iters.max(1) {
            clean_best = clean_best.min(time_chaos_once(&edges, m, shards, cfg.seed, None).0);
            let (elapsed, h) = time_chaos_once(&edges, m, shards, cfg.seed, Some(crash_at));
            faulted_best = faulted_best.min(elapsed);
            // The ledger is deterministic per (seed, plan): identical
            // across iterations, so keeping the last run's copy is exact.
            health = h;
        }
        let (epochs, degraded_epochs) = probe_degraded_epochs(shards, cfg.seed);
        let result = ChaosResult {
            shards,
            scenario: format!("chaos/holme_kim/triangle/m{m}/s{shards}"),
            capacity: m,
            edges: edges.len(),
            clean: to_measurement(clean_best, edges.len()),
            faulted: to_measurement(faulted_best, edges.len()),
            recovery_latency_ns: faulted_best.saturating_sub(clean_best),
            arrivals_lost: health.lost_arrivals,
            restarts: health.incidents.iter().map(|i| u64::from(i.restarts)).sum(),
            epochs,
            degraded_epochs,
        };
        progress(&result);
        results.push(result);
    }
    results
}

/// Shard counts swept by the simulated scale-out grid per mode. Full mode
/// reaches `S = 256` — far beyond physical cores; the simulator runs nodes
/// as events, not threads, so the axis is pure algorithm behavior.
pub fn sim_shards(quick: bool) -> &'static [usize] {
    if quick {
        &[16, 64]
    } else {
        &[16, 64, 256]
    }
}

/// Runs the `gps-sim` discrete-event scale-out sweep: shard counts from
/// [`sim_shards`] × keyspace skew (hash vs Zipf) × fault scenario (clean /
/// straggler / crash-restore), every point in **virtual time** over the
/// production sampler/estimator/merge code. Unlike the wall-clock grids,
/// every number here is bit-deterministic per seed.
pub fn run_sim(
    cfg: &PerfConfig,
    mut progress: impl FnMut(&gps_sim::SweepPoint),
) -> Vec<gps_sim::SweepPoint> {
    let (n_edges, capacity) = if cfg.quick {
        (6_000, 3_000)
    } else {
        (20_000, 8_192)
    };
    gps_sim::sweep(sim_shards(cfg.quick), n_edges, capacity, cfg.seed, |p| {
        progress(p)
    })
}

/// One deterministic telemetry capture for the baseline document: the
/// engine's `Stable`-class counters after a clean, checkpointed run, plus
/// the FNV-1a fingerprint of the whole stable snapshot (counters *and*
/// histograms). Everything here is a pure function of seed + mode — no
/// wall clock — so a committed document re-validates bit-for-bit.
#[derive(Clone, Debug)]
pub struct TelemetryResult {
    /// Stable scenario name (`telemetry/holme_kim/triangle/mM/sS`).
    pub scenario: String,
    /// Stream length.
    pub edges: usize,
    /// Shard count of the capture run.
    pub shards: usize,
    /// `{:016x}` digest of the stable snapshot's text exposition.
    pub stable_fingerprint: String,
    /// Stable counters `(name, value)`, in snapshot (name) order.
    pub counters: Vec<(String, u64)>,
}

/// Captures the `telemetry` section: one clean engine run on the
/// triangle-weight Holme–Kim scenario with checkpointing armed, reduced to
/// its deterministic stable subset (see `TelemetrySnapshot::stable` in
/// `gps-telemetry`). Timing-class metrics and the event ring are excluded
/// on purpose — the committed numbers must replay exactly under
/// `bench_baseline --check`.
pub fn run_telemetry(cfg: &PerfConfig) -> TelemetryResult {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = engine_capacity(cfg.quick);
    let shards = 2usize;
    let engine_cfg = EngineConfig {
        checkpoint_every: 64,
        ..EngineConfig::new(m, shards, cfg.seed)
    };
    let outcome = run_engine_scenario(
        engine_cfg,
        TriangleWeight::default(),
        edges.iter().copied(),
        FaultPlan::new(),
    );
    let stable = outcome.telemetry.stable();
    TelemetryResult {
        scenario: format!("telemetry/holme_kim/triangle/m{m}/s{shards}"),
        edges: edges.len(),
        shards,
        stable_fingerprint: format!("{:016x}", stable.fingerprint()),
        counters: stable
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect(),
    }
}

/// One stage row of the trace section: latency attribution for a pipeline
/// stage across every epoch of the traced run.
#[derive(Clone, Debug)]
pub struct TraceStage {
    /// Stage name from the trace-stage catalog (`docs/observability.md`).
    pub stage: String,
    /// Epochs that recorded this stage.
    pub count: u64,
    /// Median stage latency (nearest-rank) in clock nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile stage latency (nearest-rank) in clock nanoseconds.
    pub p99_ns: u64,
}

/// The `trace` section of the baseline document: per-stage latency
/// attribution from the serving stack's flight recorder over one
/// manual-clock run. Every field is stable — the run drives the clock
/// itself, so the percentiles replay bit-for-bit under `--check`.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// Stable scenario name (`trace/holme_kim/triangle/mM/s1`).
    pub scenario: String,
    /// Stream length of the traced run.
    pub edges: usize,
    /// Epochs retained by the flight recorder (all of them — the run is
    /// sized under the recorder capacity).
    pub epochs: usize,
    /// Per-stage attribution rows, in stage-name order.
    pub stages: Vec<TraceStage>,
    /// `{:016x}` FNV-1a digest of the rows plus every retained trace's
    /// own fingerprint.
    pub stable_fingerprint: String,
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile_ns(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Captures the `trace` section: a single-shard serving engine on the
/// manual clock, driven one epoch-sized batch at a time — push a batch,
/// wait for its epoch, advance the clock one fixed step. Because the
/// driver owns the clock, every span the flight recorder stamps is a pure
/// function of seed + mode (the inter-epoch `arrival_batch` stage is
/// exactly one step; the in-publication stages are zero-width), so the
/// percentile table and its fingerprint replay exactly under
/// `bench_baseline --check`.
pub fn run_trace(cfg: &PerfConfig) -> TraceResult {
    let m = engine_capacity(cfg.quick);
    let chunk = 64usize;
    // Sized under the flight recorder's 64-trace capacity (one epoch per
    // chunk, plus the start-of-worker and drain-end epochs).
    let chunks = if cfg.quick { 16 } else { 48 };
    let mut edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    edges.truncate(chunk * chunks);
    let serve_cfg = ServeConfig {
        engine: EngineConfig {
            batch: chunk,
            epoch_every: chunk as u64,
            ..EngineConfig::new(m, 1, cfg.seed)
        },
        subscribe_depth: 1 << 10,
        gate_timeout: None,
        clock: ClockMode::Manual,
    };
    let mut serve = ServeEngine::with_config(serve_cfg, TriangleWeight::default());
    let handle = serve.handle();
    let step = Duration::from_micros(250);
    let mut pushed = 0u64;
    for batch in edges.chunks(chunk) {
        serve.push_batch(batch);
        pushed += batch.len() as u64;
        // Blocks until the batch's epoch publishes; also stamps its
        // first-observation span at the current (pre-advance) instant.
        handle.wait_for_edges(pushed);
        serve.advance_clock(step);
    }
    serve.finish();
    // Observe the drain-end epoch so its trace is complete too.
    std::hint::black_box(handle.latest());
    let traces = handle.recent_traces(gps_telemetry::DEFAULT_TRACE_CAPACITY);
    let mut by_stage: std::collections::BTreeMap<&'static str, Vec<u64>> =
        std::collections::BTreeMap::new();
    for t in &traces {
        for s in &t.spans {
            by_stage.entry(s.stage).or_default().push(s.duration_ns());
        }
    }
    let stages: Vec<TraceStage> = by_stage
        .into_iter()
        .map(|(stage, mut d)| {
            d.sort_unstable();
            TraceStage {
                stage: stage.to_string(),
                count: d.len() as u64,
                p50_ns: percentile_ns(&d, 50),
                p99_ns: percentile_ns(&d, 99),
            }
        })
        .collect();
    let scenario = format!("trace/holme_kim/triangle/m{m}/s1");
    let mut text = format!("{scenario} edges={} epochs={}", edges.len(), traces.len());
    for s in &stages {
        text.push_str(&format!(
            " {}:{}:{}:{}",
            s.stage, s.count, s.p50_ns, s.p99_ns
        ));
    }
    // FNV-1a over the rows, then fold in every retained trace's own digest
    // so the committed fingerprint pins full timelines, not just the table.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for t in &traces {
        h ^= t.fingerprint();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TraceResult {
        scenario,
        edges: edges.len(),
        epochs: traces.len(),
        stages,
        stable_fingerprint: format!("{h:016x}"),
    }
}

fn measurement_json(m: &Measurement) -> Value {
    Value::object(vec![
        ("elapsed_ns", Value::Number(m.elapsed_ns as f64)),
        ("ns_per_edge", Value::Number(round2(m.ns_per_edge))),
        ("edges_per_sec", Value::Number(round2(m.edges_per_sec))),
    ])
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Schema tag checked by the CI smoke run.
pub const SCHEMA: &str = "gps-bench/bench-baseline/v2";

/// The optional grids of a baseline document, bundled for
/// [`results_json`]. Each defaults to empty, and an empty grid's key is
/// omitted from the JSON, keeping documents produced before that grid
/// existed valid under the same schema.
#[derive(Clone, Copy, Default)]
pub struct OptionalGrids<'a> {
    /// Ported `gps-baselines` grid from [`run_baselines`] (`baseline_samplers` key).
    pub baselines: &'a [BaselineResult],
    /// Sharded-ingest scaling grid from [`run_engine`] (`engine` key).
    pub engine: &'a [EngineResult],
    /// Live-serving grid from [`run_serve`] (`serve` key).
    pub serve: &'a [ServeResult],
    /// Fault-injection grid from [`run_chaos`] (`chaos` key).
    pub chaos: &'a [ChaosResult],
    /// Simulated scale-out sweep from [`run_sim`] (`sim` key).
    pub sim: &'a [gps_sim::SweepPoint],
    /// Deterministic telemetry capture from [`run_telemetry`]
    /// (`telemetry` key; `None` omits it).
    pub telemetry: Option<&'a TelemetryResult>,
    /// Deterministic flight-recorder latency attribution from
    /// [`run_trace`] (`trace` key; `None` omits it).
    pub trace: Option<&'a TraceResult>,
}

/// Builds the machine-readable baseline document; the [`OptionalGrids`]
/// sections are emitted only when non-empty.
pub fn results_json(
    cfg: &PerfConfig,
    git_rev: &str,
    results: &[ScenarioResult],
    grids: OptionalGrids<'_>,
) -> Value {
    let OptionalGrids {
        baselines,
        engine,
        serve,
        chaos,
        sim,
        telemetry,
        trace,
    } = grids;
    let mut fields = vec![
        ("schema", Value::String(SCHEMA.into())),
        ("git_rev", Value::String(git_rev.into())),
        (
            "mode",
            Value::String(if cfg.quick { "quick" } else { "full" }.into()),
        ),
        ("iters", Value::Number(cfg.iters as f64)),
        ("seed", Value::Number(cfg.seed as f64)),
        (
            "scenarios",
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::object(vec![
                            ("name", Value::String(r.scenario.name())),
                            ("stream", Value::String(r.scenario.stream.name().into())),
                            ("weight", Value::String(r.scenario.weight.name().into())),
                            ("capacity", Value::Number(r.scenario.capacity as f64)),
                            ("edges", Value::Number(r.edges as f64)),
                            ("compact", measurement_json(&r.compact)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if !baselines.is_empty() {
        fields.push((
            "baseline_samplers",
            Value::Array(
                baselines
                    .iter()
                    .map(|r| {
                        Value::object(vec![
                            ("name", Value::String(r.scenario.clone())),
                            ("method", Value::String(r.name.into())),
                            ("capacity", Value::Number(r.capacity as f64)),
                            ("edges", Value::Number(r.edges as f64)),
                            ("compact", measurement_json(&r.compact)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !engine.is_empty() {
        let s1_rate = engine
            .iter()
            .find(|r| r.shards == 1)
            .map(|r| r.measurement.edges_per_sec);
        fields.push((
            "engine",
            Value::object(vec![
                ("stream", Value::String("holme_kim".into())),
                ("weight", Value::String("triangle".into())),
                ("capacity", Value::Number(engine[0].capacity as f64)),
                ("edges", Value::Number(engine[0].edges as f64)),
                (
                    "shards",
                    Value::Array(
                        engine
                            .iter()
                            .map(|r| {
                                let mut entry = vec![
                                    ("name", Value::String(r.scenario.clone())),
                                    ("shards", Value::Number(r.shards as f64)),
                                    ("elapsed_ns", Value::Number(r.measurement.elapsed_ns as f64)),
                                    (
                                        "ns_per_edge",
                                        Value::Number(round2(r.measurement.ns_per_edge)),
                                    ),
                                    (
                                        "edges_per_sec",
                                        Value::Number(round2(r.measurement.edges_per_sec)),
                                    ),
                                ];
                                if let Some(s1) = s1_rate {
                                    entry.push((
                                        "speedup_vs_s1",
                                        Value::Number(round2(r.measurement.edges_per_sec / s1)),
                                    ));
                                }
                                Value::object(entry)
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if !serve.is_empty() {
        let r0_rate = serve
            .iter()
            .find(|r| r.readers == 0)
            .map(|r| r.measurement.edges_per_sec);
        fields.push((
            "serve",
            Value::object(vec![
                ("stream", Value::String("holme_kim".into())),
                ("weight", Value::String("triangle".into())),
                ("capacity", Value::Number(serve[0].capacity as f64)),
                ("shards", Value::Number(SERVE_SHARDS as f64)),
                ("edges", Value::Number(serve[0].edges as f64)),
                (
                    "readers",
                    Value::Array(
                        serve
                            .iter()
                            .map(|r| {
                                let mut entry = vec![
                                    ("name", Value::String(r.scenario.clone())),
                                    ("readers", Value::Number(r.readers as f64)),
                                    ("elapsed_ns", Value::Number(r.measurement.elapsed_ns as f64)),
                                    (
                                        "ns_per_edge",
                                        Value::Number(round2(r.measurement.ns_per_edge)),
                                    ),
                                    (
                                        "edges_per_sec",
                                        Value::Number(round2(r.measurement.edges_per_sec)),
                                    ),
                                    ("reads", Value::Number(r.reads as f64)),
                                    (
                                        "staleness_mean_edges",
                                        Value::Number(r.staleness_mean_edges),
                                    ),
                                    (
                                        "staleness_max_edges",
                                        Value::Number(r.staleness_max_edges as f64),
                                    ),
                                ];
                                if let Some(r0) = r0_rate {
                                    entry.push((
                                        "rate_vs_r0",
                                        Value::Number(round2(r.measurement.edges_per_sec / r0)),
                                    ));
                                }
                                Value::object(entry)
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if !chaos.is_empty() {
        fields.push((
            "chaos",
            Value::object(vec![
                ("stream", Value::String("holme_kim".into())),
                ("weight", Value::String("triangle".into())),
                ("capacity", Value::Number(chaos[0].capacity as f64)),
                ("edges", Value::Number(chaos[0].edges as f64)),
                (
                    "shards",
                    Value::Array(
                        chaos
                            .iter()
                            .map(|r| {
                                Value::object(vec![
                                    ("name", Value::String(r.scenario.clone())),
                                    ("shards", Value::Number(r.shards as f64)),
                                    ("clean", measurement_json(&r.clean)),
                                    ("faulted", measurement_json(&r.faulted)),
                                    (
                                        "recovery_latency_ns",
                                        Value::Number(r.recovery_latency_ns as f64),
                                    ),
                                    ("arrivals_lost", Value::Number(r.arrivals_lost as f64)),
                                    ("restarts", Value::Number(r.restarts as f64)),
                                    ("epochs", Value::Number(r.epochs as f64)),
                                    ("degraded_epochs", Value::Number(r.degraded_epochs as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if !sim.is_empty() {
        fields.push((
            "sim",
            Value::object(vec![
                ("edges", Value::Number(sim[0].pushed as f64)),
                (
                    "points",
                    Value::Array(
                        sim.iter()
                            .map(|p| {
                                // Booleans as 0/1: the document stays in the
                                // numbers-and-strings subset the rest of the
                                // schema uses.
                                Value::object(vec![
                                    ("name", Value::String(p.name())),
                                    ("shards", Value::Number(p.shards as f64)),
                                    ("aggregators", Value::Number(p.aggregators as f64)),
                                    ("skew", Value::String(p.skew.into())),
                                    ("scenario", Value::String(p.scenario.into())),
                                    ("seed", Value::Number(p.seed as f64)),
                                    ("pushed", Value::Number(p.pushed as f64)),
                                    ("exact_triangles", Value::Number(p.exact_triangles as f64)),
                                    ("exact_wedges", Value::Number(p.exact_wedges as f64)),
                                    ("tri_are", Value::Number(round2(p.tri_are))),
                                    ("wedge_are", Value::Number(round2(p.wedge_are))),
                                    (
                                        "tri_covered",
                                        Value::Number(f64::from(u8::from(p.tri_covered))),
                                    ),
                                    (
                                        "wedge_covered",
                                        Value::Number(f64::from(u8::from(p.wedge_covered))),
                                    ),
                                    ("epochs", Value::Number(p.epochs as f64)),
                                    ("degraded_epochs", Value::Number(p.degraded_epochs as f64)),
                                    ("staleness_max_ns", Value::Number(p.staleness_max_ns as f64)),
                                    (
                                        "staleness_mean_ns",
                                        Value::Number(p.staleness_mean_ns as f64),
                                    ),
                                    ("arrivals_lost", Value::Number(p.lost_arrivals as f64)),
                                    ("restarts", Value::Number(p.restarts as f64)),
                                    (
                                        "tree_identical",
                                        Value::Number(f64::from(u8::from(p.tree_identical))),
                                    ),
                                    ("finished_at_ns", Value::Number(p.finished_at_ns as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(t) = telemetry {
        fields.push((
            "telemetry",
            Value::object(vec![
                ("scenario", Value::String(t.scenario.clone())),
                ("edges", Value::Number(t.edges as f64)),
                ("shards", Value::Number(t.shards as f64)),
                (
                    "stable_fingerprint",
                    Value::String(t.stable_fingerprint.clone()),
                ),
                (
                    "counters",
                    Value::Array(
                        t.counters
                            .iter()
                            .map(|(name, value)| {
                                // Counter values are bounded by stream
                                // length × small constants, far below
                                // 2^53 — exact in a JSON number.
                                Value::object(vec![
                                    ("name", Value::String(name.clone())),
                                    ("value", Value::Number(*value as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(t) = trace {
        fields.push((
            "trace",
            Value::object(vec![
                ("scenario", Value::String(t.scenario.clone())),
                ("edges", Value::Number(t.edges as f64)),
                ("epochs", Value::Number(t.epochs as f64)),
                (
                    "stable_fingerprint",
                    Value::String(t.stable_fingerprint.clone()),
                ),
                (
                    "stages",
                    Value::Array(
                        t.stages
                            .iter()
                            .map(|s| {
                                Value::object(vec![
                                    ("stage", Value::String(s.stage.clone())),
                                    ("count", Value::Number(s.count as f64)),
                                    ("p50_ns", Value::Number(s.p50_ns as f64)),
                                    ("p99_ns", Value::Number(s.p99_ns as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    Value::object(fields)
}

/// Fields every scenario entry of a baseline document must carry.
pub const REQUIRED_SCENARIO_FIELDS: [&str; 6] =
    ["name", "stream", "weight", "capacity", "edges", "compact"];

/// Validates a parsed baseline document's shape. Returns the list of
/// problems (empty = valid).
pub fn validate_baseline(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    match doc.get_str("schema") {
        Some(SCHEMA) => {}
        Some(other) => problems.push(format!("unexpected schema '{other}'")),
        None => problems.push("missing 'schema'".into()),
    }
    for key in ["git_rev", "mode"] {
        if doc.get_str(key).is_none() {
            problems.push(format!("missing '{key}'"));
        }
    }
    let Some(scenarios) = doc.get("scenarios").and_then(Value::as_array) else {
        problems.push("missing 'scenarios' array".into());
        return problems;
    };
    if scenarios.is_empty() {
        problems.push("'scenarios' is empty".into());
    }
    for (i, s) in scenarios.iter().enumerate() {
        for field in REQUIRED_SCENARIO_FIELDS {
            if s.get(field).is_none() {
                problems.push(format!("scenario {i} missing '{field}'"));
            }
        }
        validate_measurements(s, &format!("scenario {i}"), &mut problems);
    }
    // Optional section (absent in documents predating the baselines port):
    // the gps-baselines grid, same measurement shape as the scenarios.
    if let Some(baselines) = doc.get("baseline_samplers").and_then(Value::as_array) {
        for (i, s) in baselines.iter().enumerate() {
            for field in ["name", "method", "capacity", "edges", "compact"] {
                if s.get(field).is_none() {
                    problems.push(format!("baseline {i} missing '{field}'"));
                }
            }
            validate_measurements(s, &format!("baseline {i}"), &mut problems);
        }
    }
    // Optional section (absent in documents predating gps-engine): the
    // sharded-ingest scaling grid.
    if let Some(engine) = doc.get("engine") {
        for field in ["stream", "weight", "capacity", "edges"] {
            if engine.get(field).is_none() {
                problems.push(format!("engine section missing '{field}'"));
            }
        }
        match engine.get("shards").and_then(Value::as_array) {
            Some(entries) if !entries.is_empty() => {
                for (i, entry) in entries.iter().enumerate() {
                    match entry.get_f64("shards") {
                        Some(s) if s >= 1.0 => {}
                        _ => problems.push(format!("engine entry {i} has invalid 'shards'")),
                    }
                    for field in ["name", "elapsed_ns", "ns_per_edge", "edges_per_sec"] {
                        match (field, entry.get(field)) {
                            (_, None) => {
                                problems.push(format!("engine entry {i} missing '{field}'"))
                            }
                            ("name", Some(_)) => {}
                            (_, Some(v)) => match v.as_f64() {
                                Some(x) if x > 0.0 => {}
                                _ => problems
                                    .push(format!("engine entry {i} {field} is not positive")),
                            },
                        }
                    }
                }
            }
            _ => problems.push("engine section missing 'shards' entries".into()),
        }
    }
    // Optional section (absent in documents predating gps-serve): the
    // live-serving grid — ingest under concurrent readers plus staleness.
    if let Some(serve) = doc.get("serve") {
        for field in ["stream", "weight", "capacity", "shards", "edges"] {
            if serve.get(field).is_none() {
                problems.push(format!("serve section missing '{field}'"));
            }
        }
        match serve.get("readers").and_then(Value::as_array) {
            Some(entries) if !entries.is_empty() => {
                for (i, entry) in entries.iter().enumerate() {
                    if entry.get("name").is_none() {
                        problems.push(format!("serve entry {i} missing 'name'"));
                    }
                    // Counters that may legitimately be zero (r0 has no
                    // reads; a fast quick run may sample zero lag).
                    for field in [
                        "readers",
                        "reads",
                        "staleness_mean_edges",
                        "staleness_max_edges",
                    ] {
                        match entry.get_f64(field) {
                            Some(x) if x >= 0.0 => {}
                            Some(_) => {
                                problems.push(format!("serve entry {i} {field} is negative"))
                            }
                            None => problems.push(format!("serve entry {i} missing '{field}'")),
                        }
                    }
                    for field in ["elapsed_ns", "ns_per_edge", "edges_per_sec"] {
                        match entry.get_f64(field) {
                            Some(x) if x > 0.0 => {}
                            Some(_) => {
                                problems.push(format!("serve entry {i} {field} is not positive"))
                            }
                            None => problems.push(format!("serve entry {i} missing '{field}'")),
                        }
                    }
                }
            }
            _ => problems.push("serve section missing 'readers' entries".into()),
        }
    }
    // Optional section (absent in documents predating the fault-tolerance
    // work): the crash-recovery grid — clean vs faulted ingest, exact loss
    // ledger counts, and the gated degraded-epoch probe.
    if let Some(chaos) = doc.get("chaos") {
        for field in ["stream", "weight", "capacity", "edges"] {
            if chaos.get(field).is_none() {
                problems.push(format!("chaos section missing '{field}'"));
            }
        }
        match chaos.get("shards").and_then(Value::as_array) {
            Some(entries) if !entries.is_empty() => {
                for (i, entry) in entries.iter().enumerate() {
                    if entry.get("name").is_none() {
                        problems.push(format!("chaos entry {i} missing 'name'"));
                    }
                    match entry.get_f64("shards") {
                        Some(s) if s >= 1.0 => {}
                        _ => problems.push(format!("chaos entry {i} has invalid 'shards'")),
                    }
                    if entry.get("clean").is_none() {
                        problems.push(format!("chaos entry {i} missing 'clean'"));
                    }
                    if entry.get("faulted").is_none() {
                        problems.push(format!("chaos entry {i} missing 'faulted'"));
                    }
                    validate_measurement_objects(
                        entry,
                        &["clean", "faulted"],
                        &format!("chaos entry {i}"),
                        &mut problems,
                    );
                    // A supervised crash always loses at least the
                    // panicking arrival and restarts the worker once —
                    // zeros here mean the scripted fault never fired.
                    for field in ["arrivals_lost", "restarts"] {
                        match entry.get_f64(field) {
                            Some(x) if x >= 1.0 => {}
                            Some(_) => problems.push(format!(
                                "chaos entry {i} {field} says the scripted crash never fired"
                            )),
                            None => problems.push(format!("chaos entry {i} missing '{field}'")),
                        }
                    }
                    // Timing-dependent counters that may legitimately be
                    // zero (an instant recovery, a race-free probe run).
                    for field in ["recovery_latency_ns", "epochs", "degraded_epochs"] {
                        match entry.get_f64(field) {
                            Some(x) if x >= 0.0 => {}
                            Some(_) => {
                                problems.push(format!("chaos entry {i} {field} is negative"))
                            }
                            None => problems.push(format!("chaos entry {i} missing '{field}'")),
                        }
                    }
                }
            }
            _ => problems.push("chaos section missing 'shards' entries".into()),
        }
    }
    // Optional section (absent in documents predating gps-sim): the
    // discrete-event scale-out sweep — virtual-time quality numbers, so
    // the checks are about ledger shape, not wall-clock positivity.
    if let Some(sim) = doc.get("sim") {
        if sim.get("edges").is_none() {
            problems.push("sim section missing 'edges'".into());
        }
        match sim.get("points").and_then(Value::as_array) {
            Some(points) if !points.is_empty() => {
                for (i, p) in points.iter().enumerate() {
                    for field in ["name", "skew", "scenario"] {
                        if p.get_str(field).is_none() {
                            problems.push(format!("sim point {i} missing '{field}'"));
                        }
                    }
                    match p.get_f64("shards") {
                        Some(s) if s >= 1.0 => {}
                        _ => problems.push(format!("sim point {i} has invalid 'shards'")),
                    }
                    // The merge-tree identity is the simulator's core
                    // claim: a 0 here means the tree merge diverged from
                    // the flat merge and the document must not validate.
                    match p.get_f64("tree_identical") {
                        Some(x) => {
                            if x != 1.0 {
                                problems.push(format!(
                                    "sim point {i} tree_identical says the merge tree diverged"
                                ));
                            }
                        }
                        None => problems.push(format!("sim point {i} missing 'tree_identical'")),
                    }
                    for field in [
                        "pushed",
                        "tri_are",
                        "wedge_are",
                        "tri_covered",
                        "wedge_covered",
                        "epochs",
                        "degraded_epochs",
                        "staleness_max_ns",
                        "staleness_mean_ns",
                        "arrivals_lost",
                        "restarts",
                        "finished_at_ns",
                    ] {
                        match p.get_f64(field) {
                            Some(x) if x >= 0.0 => {}
                            Some(_) => problems.push(format!("sim point {i} {field} is negative")),
                            None => problems.push(format!("sim point {i} missing '{field}'")),
                        }
                    }
                }
            }
            _ => problems.push("sim section missing 'points' entries".into()),
        }
    }
    // Optional section (absent in documents predating gps-telemetry): one
    // deterministic stable-counter capture plus the digest that pins it.
    if let Some(t) = doc.get("telemetry") {
        if t.get_str("scenario").is_none() {
            problems.push("telemetry section missing 'scenario'".into());
        }
        for field in ["edges", "shards"] {
            match t.get_f64(field) {
                Some(x) if x >= 1.0 => {}
                _ => problems.push(format!("telemetry section has invalid '{field}'")),
            }
        }
        match t.get_str("stable_fingerprint") {
            Some(fp) if fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit()) => {}
            Some(_) => {
                problems.push("telemetry stable_fingerprint is not a 64-bit hex digest".into())
            }
            None => problems.push("telemetry section missing 'stable_fingerprint'".into()),
        }
        match t.get("counters").and_then(Value::as_array) {
            Some(entries) if !entries.is_empty() => {
                for (i, entry) in entries.iter().enumerate() {
                    if entry.get_str("name").is_none() {
                        problems.push(format!("telemetry counter {i} missing 'name'"));
                    }
                    match entry.get_f64("value") {
                        Some(x) if x >= 0.0 => {}
                        Some(_) => {
                            problems.push(format!("telemetry counter {i} value is negative"))
                        }
                        None => problems.push(format!("telemetry counter {i} missing 'value'")),
                    }
                }
                // A capture without the engine's arrival ledger measured
                // nothing — the section must carry the core counter.
                if !entries
                    .iter()
                    .any(|e| e.get_str("name") == Some("gps_engine_arrivals_total"))
                {
                    problems.push("telemetry counters missing 'gps_engine_arrivals_total'".into());
                }
            }
            _ => problems.push("telemetry section missing 'counters' entries".into()),
        }
    }
    // Optional section (absent in documents predating the flight
    // recorder): per-stage latency attribution plus the digest pinning
    // the retained timelines.
    if let Some(t) = doc.get("trace") {
        if t.get_str("scenario").is_none() {
            problems.push("trace section missing 'scenario'".into());
        }
        for field in ["edges", "epochs"] {
            match t.get_f64(field) {
                Some(x) if x >= 1.0 => {}
                _ => problems.push(format!("trace section has invalid '{field}'")),
            }
        }
        match t.get_str("stable_fingerprint") {
            Some(fp) if fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit()) => {}
            Some(_) => problems.push("trace stable_fingerprint is not a 64-bit hex digest".into()),
            None => problems.push("trace section missing 'stable_fingerprint'".into()),
        }
        match t.get("stages").and_then(Value::as_array) {
            Some(entries) if !entries.is_empty() => {
                for (i, entry) in entries.iter().enumerate() {
                    if entry.get_str("stage").is_none() {
                        problems.push(format!("trace stage {i} missing 'stage'"));
                    }
                    match entry.get_f64("count") {
                        Some(x) if x >= 1.0 => {}
                        _ => problems.push(format!("trace stage {i} has invalid 'count'")),
                    }
                    for field in ["p50_ns", "p99_ns"] {
                        match entry.get_f64(field) {
                            Some(x) if x >= 0.0 => {}
                            _ => problems.push(format!("trace stage {i} has invalid '{field}'")),
                        }
                    }
                }
                // A traced run that never reached the merge stage traced
                // nothing — the table must carry the pipeline's heart.
                if !entries.iter().any(|e| e.get_str("stage") == Some("merge")) {
                    problems.push("trace stages missing 'merge'".into());
                }
            }
            _ => problems.push("trace section missing 'stages' entries".into()),
        }
    }
    problems
}

/// Checks the `compact` measurement object of one entry.
fn validate_measurements(entry: &Value, what: &str, problems: &mut Vec<String>) {
    validate_measurement_objects(entry, &["compact"], what, problems);
}

/// Checks the named measurement objects of one entry (those present; the
/// caller reports which keys are required).
fn validate_measurement_objects(
    entry: &Value,
    keys: &[&str],
    what: &str,
    problems: &mut Vec<String>,
) {
    for key in keys {
        if let Some(m) = entry.get(key) {
            for field in ["elapsed_ns", "ns_per_edge", "edges_per_sec"] {
                match m.get_f64(field) {
                    Some(x) if x > 0.0 => {}
                    Some(_) => problems.push(format!("{what} {key}.{field} is not positive")),
                    None => problems.push(format!("{what} {key} missing '{field}'")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny_cfg() -> PerfConfig {
        PerfConfig {
            quick: true,
            iters: 1,
            seed: 7,
        }
    }

    #[test]
    fn scenario_names_are_stable() {
        let s = Scenario {
            stream: StreamKind::HolmeKim,
            weight: WeightKind::Triangle,
            capacity: 2000,
        };
        assert_eq!(s.name(), "holme_kim/triangle/m2000");
    }

    #[test]
    fn quick_streams_are_nonempty_and_deterministic() {
        for kind in StreamKind::ALL {
            let a = kind.edges(true, 3);
            let b = kind.edges(true, 3);
            assert!(!a.is_empty());
            assert_eq!(a, b, "stream generation must be seeded");
        }
    }

    #[test]
    fn baseline_document_round_trips_and_validates() {
        // One micro-scenario end to end: measure, emit, parse, validate.
        let cfg = tiny_cfg();
        let edges = StreamKind::HolmeKim.edges(true, cfg.seed);
        let scenario = Scenario {
            stream: StreamKind::HolmeKim,
            weight: WeightKind::Uniform,
            capacity: 128,
        };
        let compact = measure(&edges, scenario, &cfg);
        let result = ScenarioResult {
            scenario,
            edges: edges.len(),
            compact,
        };
        // Without the optional sections (the committed-file shape)…
        let doc = results_json(
            &cfg,
            "deadbeef",
            std::slice::from_ref(&result),
            OptionalGrids::default(),
        );
        assert!(doc.get("baseline_samplers").is_none());
        assert!(doc.get("engine").is_none());
        assert!(doc.get("serve").is_none());
        assert!(doc.get("chaos").is_none());
        assert!(doc.get("sim").is_none());
        assert!(doc.get("telemetry").is_none());
        assert!(doc.get("trace").is_none());
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        assert_eq!(parsed, doc);
        assert!(validate_baseline(&parsed).is_empty());
        // …and with both of them.
        let baseline = BaselineResult {
            name: "TRIEST",
            scenario: "baseline/triest/m128".into(),
            capacity: 128,
            edges: edges.len(),
            compact,
        };
        let engine = [1usize, 2]
            .map(|shards| EngineResult {
                shards,
                scenario: format!("engine/holme_kim/triangle/m128/s{shards}"),
                capacity: 128,
                edges: edges.len(),
                measurement: compact,
            })
            .to_vec();
        let serve = SERVE_READERS
            .map(|readers| ServeResult {
                readers,
                scenario: format!("serve/holme_kim/triangle/m128/s4/r{readers}"),
                capacity: 128,
                edges: edges.len(),
                measurement: compact,
                reads: if readers == 0 { 0 } else { 17 },
                staleness_mean_edges: 12.5,
                staleness_max_edges: 99,
            })
            .to_vec();
        let chaos = CHAOS_SHARDS
            .map(|shards| ChaosResult {
                shards,
                scenario: format!("chaos/holme_kim/triangle/m128/s{shards}"),
                capacity: 128,
                edges: edges.len(),
                clean: compact,
                faulted: compact,
                recovery_latency_ns: 120_000,
                arrivals_lost: 33,
                restarts: 1,
                epochs: 40,
                degraded_epochs: 3,
            })
            .to_vec();
        let sim = vec![gps_sim::SweepPoint {
            shards: 16,
            aggregators: 2,
            skew: "hash",
            scenario: "clean",
            seed: 7,
            pushed: 6_000,
            exact_triangles: 900,
            exact_wedges: 40_000,
            tri_are: 0.12,
            wedge_are: 0.01,
            tri_covered: true,
            wedge_covered: true,
            epochs: 12,
            degraded_epochs: 1,
            staleness_max_ns: 5_000_000,
            staleness_mean_ns: 800_000,
            lost_arrivals: 0,
            restarts: 0,
            tree_identical: true,
            finished_at_ns: 9_000_000,
        }];
        let telemetry = TelemetryResult {
            scenario: "telemetry/holme_kim/triangle/m128/s2".into(),
            edges: edges.len(),
            shards: 2,
            stable_fingerprint: "00c0ffee00c0ffee".into(),
            counters: vec![
                ("gps_engine_arrivals_total".into(), edges.len() as u64),
                ("gps_sampler_inserts_total".into(), 77),
            ],
        };
        let trace = TraceResult {
            scenario: "trace/holme_kim/triangle/m128/s1".into(),
            edges: edges.len(),
            epochs: 18,
            stages: vec![
                TraceStage {
                    stage: "arrival_batch".into(),
                    count: 18,
                    p50_ns: 250_000,
                    p99_ns: 250_000,
                },
                TraceStage {
                    stage: "merge".into(),
                    count: 18,
                    p50_ns: 0,
                    p99_ns: 0,
                },
            ],
            stable_fingerprint: "00c0ffee00c0ffee".into(),
        };
        let doc = results_json(
            &cfg,
            "deadbeef",
            &[result],
            OptionalGrids {
                baselines: &[baseline],
                engine: &engine,
                serve: &serve,
                chaos: &chaos,
                sim: &sim,
                telemetry: Some(&telemetry),
                trace: Some(&trace),
            },
        );
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        assert_eq!(parsed, doc);
        assert!(validate_baseline(&parsed).is_empty());
        let chaos_entries = parsed
            .get("chaos")
            .and_then(|c| c.get("shards"))
            .and_then(Value::as_array)
            .expect("chaos section present");
        assert_eq!(chaos_entries.len(), CHAOS_SHARDS.len());
        assert_eq!(chaos_entries[0].get_f64("arrivals_lost"), Some(33.0));
        assert_eq!(chaos_entries[0].get_f64("degraded_epochs"), Some(3.0));
        let entries = parsed
            .get("engine")
            .and_then(|e| e.get("shards"))
            .and_then(Value::as_array)
            .expect("engine section present");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].get_f64("speedup_vs_s1"), Some(1.0));
        let readers = parsed
            .get("serve")
            .and_then(|s| s.get("readers"))
            .and_then(Value::as_array)
            .expect("serve section present");
        assert_eq!(readers.len(), SERVE_READERS.len());
        assert_eq!(readers[0].get_f64("reads"), Some(0.0));
        assert_eq!(readers[0].get_f64("rate_vs_r0"), Some(1.0));
        let points = parsed
            .get("sim")
            .and_then(|s| s.get("points"))
            .and_then(Value::as_array)
            .expect("sim section present");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get_str("name"), Some("sim/s16/hash/clean"));
        assert_eq!(points[0].get_f64("tree_identical"), Some(1.0));
        assert_eq!(points[0].get_f64("wedge_covered"), Some(1.0));
        let tele = parsed.get("telemetry").expect("telemetry section present");
        assert_eq!(tele.get_str("stable_fingerprint"), Some("00c0ffee00c0ffee"));
        let counters = tele
            .get("counters")
            .and_then(Value::as_array)
            .expect("telemetry counters present");
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get_str("name"),
            Some("gps_engine_arrivals_total")
        );
        assert_eq!(counters[0].get_f64("value"), Some(edges.len() as f64));
        let tr = parsed.get("trace").expect("trace section present");
        assert_eq!(tr.get_f64("epochs"), Some(18.0));
        let stages = tr
            .get("stages")
            .and_then(Value::as_array)
            .expect("trace stages present");
        assert_eq!(stages[0].get_str("stage"), Some("arrival_batch"));
        assert_eq!(stages[0].get_f64("p50_ns"), Some(250_000.0));
    }

    #[test]
    fn telemetry_capture_is_deterministic_and_validates() {
        let cfg = tiny_cfg();
        let a = run_telemetry(&cfg);
        let b = run_telemetry(&cfg);
        // The capture is the stable subset of a seeded engine run: two
        // invocations must agree to the bit, digest included.
        assert_eq!(a.stable_fingerprint, b.stable_fingerprint);
        assert_eq!(a.counters, b.counters);
        // A clean run loses nothing: arrivals == stream length, zero
        // restarts, zero losses — and the always-on sampler ledger moved.
        let counter = |name: &str| a.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(counter("gps_engine_arrivals_total"), Some(a.edges as u64));
        assert_eq!(counter("gps_engine_lost_arrivals_total"), Some(0));
        assert_eq!(counter("gps_engine_restarts_total"), Some(0));
        assert!(counter("gps_sampler_inserts_total").unwrap() > 0);
        assert!(counter("gps_engine_checkpoints_total").unwrap() > 0);
        // And the emitted section round-trips through the validator.
        let doc = results_json(
            &cfg,
            "deadbeef",
            &[],
            OptionalGrids {
                telemetry: Some(&a),
                ..OptionalGrids::default()
            },
        );
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        let problems = validate_baseline(&parsed);
        // The empty scenarios array is the only complaint expected here.
        assert!(
            problems.iter().all(|p| p.contains("scenarios")),
            "{problems:?}"
        );
    }

    #[test]
    fn validation_catches_malformed_telemetry() {
        let doc = json::parse(
            r#"{
                "schema": "gps-bench/bench-baseline/v2",
                "git_rev": "deadbeef",
                "mode": "quick",
                "scenarios": [],
                "telemetry": {
                    "scenario": "telemetry/x",
                    "edges": 10,
                    "shards": 2,
                    "stable_fingerprint": "nope",
                    "counters": [{"name": "gps_sampler_inserts_total", "value": 3}]
                }
            }"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("stable_fingerprint is not a 64-bit hex digest")));
        assert!(problems
            .iter()
            .any(|p| p.contains("missing 'gps_engine_arrivals_total'")));
    }

    #[test]
    fn trace_capture_is_deterministic_and_validates() {
        let cfg = tiny_cfg();
        let a = run_trace(&cfg);
        let b = run_trace(&cfg);
        // The driver owns the manual clock, so two runs agree to the bit —
        // including the digest that folds every retained timeline.
        assert_eq!(a.stable_fingerprint, b.stable_fingerprint);
        assert_eq!(a.epochs, b.epochs);
        // One epoch per chunk plus the start-of-worker and drain-end
        // publications, all under the recorder capacity.
        assert!(a.epochs >= 17, "only {} epochs traced", a.epochs);
        let stage = |name: &str| a.stages.iter().find(|s| s.stage == name);
        let merge = stage("merge").expect("merge stage recorded");
        assert_eq!(merge.count, a.epochs as u64, "every epoch merges");
        assert_eq!(
            merge.p99_ns, 0,
            "in-publication stages are zero-width under the driven clock"
        );
        let batch = stage("arrival_batch").expect("arrival_batch stage recorded");
        assert_eq!(
            batch.p50_ns, 250_000,
            "inter-epoch latency is exactly the driver's clock step"
        );
        // And the emitted section round-trips through the validator.
        let doc = results_json(
            &cfg,
            "deadbeef",
            &[],
            OptionalGrids {
                trace: Some(&a),
                ..OptionalGrids::default()
            },
        );
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        let problems = validate_baseline(&parsed);
        // The empty scenarios array is the only complaint expected here.
        assert!(
            problems.iter().all(|p| p.contains("scenarios")),
            "{problems:?}"
        );
    }

    #[test]
    fn validation_catches_malformed_trace() {
        let doc = json::parse(
            r#"{
                "schema": "gps-bench/bench-baseline/v2",
                "git_rev": "deadbeef",
                "mode": "quick",
                "scenarios": [],
                "trace": {
                    "scenario": "trace/x",
                    "edges": 10,
                    "epochs": 0,
                    "stable_fingerprint": "nope",
                    "stages": [{"stage": "arrival_batch", "count": 3, "p50_ns": -1, "p99_ns": 0}]
                }
            }"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("trace section has invalid 'epochs'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("trace stable_fingerprint is not a 64-bit hex digest")));
        assert!(problems
            .iter()
            .any(|p| p.contains("trace stage 0 has invalid 'p50_ns'")));
        assert!(problems.iter().any(|p| p.contains("missing 'merge'")));
    }

    #[test]
    fn sim_sweep_runs_the_quick_grid_deterministically() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let points = run_sim(&cfg, |_| seen += 1);
        // 2 shard counts × 2 skews × 3 scenarios in quick mode.
        assert_eq!(points.len(), 12);
        assert_eq!(seen, 12);
        for p in &points {
            assert!(p.tree_identical, "{}: merge tree diverged", p.name());
            assert!(p.epochs > 0, "{}: no publishes", p.name());
            match p.scenario {
                "crash_restore" => assert!(p.lost_arrivals > 0 && p.restarts == 1),
                _ => assert!(p.lost_arrivals == 0 && p.restarts == 0),
            }
        }
        // Virtual time makes the whole sweep reproducible bit-for-bit.
        let again = run_sim(&cfg, |_| {});
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.tri_are.to_bits(), b.tri_are.to_bits(), "{}", a.name());
            assert_eq!(a.finished_at_ns, b.finished_at_ns, "{}", a.name());
        }
    }

    #[test]
    fn serve_grid_measures_every_reader_count() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let results = run_serve(&cfg, |_| seen += 1);
        assert_eq!(results.len(), SERVE_READERS.len());
        assert_eq!(seen, SERVE_READERS.len());
        for (r, readers) in results.iter().zip(SERVE_READERS) {
            assert_eq!(r.readers, readers);
            assert!(r.measurement.edges_per_sec > 0.0);
            assert!(r.scenario.starts_with("serve/"));
            assert!(r.staleness_mean_edges >= 0.0);
            if readers == 0 {
                assert_eq!(r.reads, 0, "no readers, no reads");
            }
        }
    }

    #[test]
    fn engine_grid_measures_every_shard_count() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let results = run_engine(&cfg, |_| seen += 1);
        assert_eq!(results.len(), ENGINE_SHARDS.len());
        assert_eq!(seen, ENGINE_SHARDS.len());
        for (r, s) in results.iter().zip(ENGINE_SHARDS) {
            assert_eq!(r.shards, s);
            assert!(r.measurement.edges_per_sec > 0.0);
            assert!(r.scenario.starts_with("engine/"));
        }
    }

    #[test]
    fn chaos_grid_measures_every_shard_count_and_records_the_crash() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let results = run_chaos(&cfg, |_| seen += 1);
        assert_eq!(results.len(), CHAOS_SHARDS.len());
        assert_eq!(seen, CHAOS_SHARDS.len());
        for (r, s) in results.iter().zip(CHAOS_SHARDS) {
            assert_eq!(r.shards, s);
            assert!(r.scenario.starts_with("chaos/"));
            assert!(r.clean.edges_per_sec > 0.0);
            assert!(r.faulted.edges_per_sec > 0.0);
            // The scripted crash must actually fire and be on the ledger —
            // a zero here would make the grid vacuous.
            assert!(r.restarts >= 1, "s{s}: scripted crash never fired");
            assert!(r.arrivals_lost >= 1, "s{s}: crash must lose its window");
        }
    }

    #[test]
    fn ported_baseline_grid_measures_every_sampler() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let results = run_baselines(&cfg, |_| seen += 1);
        assert_eq!(results.len(), 5);
        assert_eq!(seen, 5);
        for r in &results {
            assert!(r.compact.edges_per_sec > 0.0);
            assert!(r.scenario.starts_with("baseline/"));
        }
    }

    #[test]
    fn validation_catches_missing_fields() {
        let doc = json::parse(r#"{"schema": "gps-bench/bench-baseline/v2"}"#).unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems.iter().any(|p| p.contains("scenarios")));
        assert!(problems.iter().any(|p| p.contains("git_rev")));

        // A v1 document (with the retired hash-map arm) is another schema.
        let doc = json::parse(r#"{"schema": "gps-bench/bench-baseline/v1"}"#).unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems.iter().any(|p| p.contains("unexpected schema")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v2", "git_rev": "x", "mode": "full",
                "scenarios": [{"name": "a", "compact": {"elapsed_ns": 0}}]}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems.iter().any(|p| p.contains("missing 'stream'")));
        assert!(problems.iter().any(|p| p.contains("not positive")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v2", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "baseline_samplers": [{"name": "baseline/triest/m8"}]}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("baseline 0 missing 'method'")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v2", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "serve": {"stream": "holme_kim",
                          "readers": [{"readers": -1, "elapsed_ns": 5}]}}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("serve section missing 'shards'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("serve entry 0 readers is negative")));
        assert!(problems
            .iter()
            .any(|p| p.contains("serve entry 0 missing 'reads'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("serve entry 0 missing 'edges_per_sec'")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v2", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "engine": {"stream": "holme_kim",
                           "shards": [{"shards": 0, "elapsed_ns": -1}]}}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("engine section missing 'weight'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("engine entry 0 has invalid 'shards'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("engine entry 0 elapsed_ns is not positive")));
        assert!(problems
            .iter()
            .any(|p| p.contains("engine entry 0 missing 'edges_per_sec'")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v2", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "chaos": {"stream": "holme_kim",
                          "shards": [{"shards": 2, "restarts": 0,
                                      "clean": {"elapsed_ns": -4},
                                      "degraded_epochs": -1}]}}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos section missing 'weight'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 missing 'name'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 missing 'faulted'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 clean.elapsed_ns is not positive")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 restarts says the scripted crash never fired")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 missing 'arrivals_lost'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 degraded_epochs is negative")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v2", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "sim": {"points": [{"shards": 16, "skew": "hash",
                                    "tree_identical": 0, "tri_are": -0.5}]}}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("sim section missing 'edges'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 missing 'name'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 tree_identical says the merge tree diverged")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 tri_are is negative")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 missing 'restarts'")));
    }
}
