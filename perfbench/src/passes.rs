//! The timed passes: each workload's closed loop, its queries, and its open
//! loop. Every call into a layer is wrapped in a span of the recorder it is
//! given, so the same code runs traced and untraced.

use crate::openloop::Schedule;
use crate::setup::{bits_equal, Input, Kind, Spec, Truth, CHUNK};
use crate::spans::{Layer, Recorder};
use crate::stats::{batch_ns, Best};
use crate::ALLOC;
use gps_core::{post_stream, GpsSampler, InStreamEstimator, TriadEstimates, TriangleWeight};
use gps_graph::Edge;
use std::hint::black_box;
use std::time::Instant;

/// Back-to-back reads per read sample: one read is below clock resolution.
pub const READ_BATCH: usize = 256;

/// Relative tolerance of the final in-stream wedge estimate against the
/// exact count on `instream-hk`.
pub const WEDGE_TOLERANCE: f64 = 0.05;

/// Operations attempted and failed, with a note per failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }
}

/// End-to-end samples. Latencies are kept per operation, indexed by the
/// chunk after which (queries, freshness) or before which (reads) the
/// operation runs, as the best time over the run's passes.
#[derive(Default)]
pub struct Samples {
    /// Arrivals per second of each pass.
    pub edges_per_s: Vec<f64>,
    /// Nanoseconds inside the ingest calls of each chunk.
    pub ingest_ns: Best,
    pub query_ms: Best,
    pub fresh_ms: Best,
    pub read_ns: Best,
    pub held_bytes: Vec<f64>,
    pub late_ns: Vec<f64>,
    /// Final estimates of the first pass; later passes must match them.
    pub first_final: Option<TriadEstimates>,
    /// (covered, total) 95% intervals against the exact counts.
    pub ci_triangles: (u32, u32),
    pub ci_wedges: (u32, u32),
}

impl Samples {
    /// Output checks every pass's final estimate goes through.
    fn final_estimate(&mut self, spec: &Spec, est: &TriadEstimates, truth: Truth, t: &mut Tally) {
        match &self.first_final {
            None => self.first_final = Some(*est),
            Some(first) => t.check(bits_equal(first, est), || {
                format!("{}: final estimates differ between passes", spec.name)
            }),
        }
        if spec.kind == Kind::InStream {
            let err = est.wedges.are(truth.wedges);
            t.check(err <= WEDGE_TOLERANCE, || {
                format!(
                    "{}: wedge estimate off by {err:.4} (tolerance {WEDGE_TOLERANCE})",
                    spec.name
                )
            });
        }
        let covers = |e: &gps_core::Estimate, x: f64| {
            let (lo, hi) = e.ci95();
            u32::from(lo <= x && x <= hi)
        };
        self.ci_triangles.0 += covers(&est.triangles, truth.triangles);
        self.ci_triangles.1 += 1;
        self.ci_wedges.0 += covers(&est.wedges, truth.wedges);
        self.ci_wedges.1 += 1;
    }
}

fn rate(edges: usize, ns: u128) -> f64 {
    edges as f64 * 1e9 / ns.max(1) as f64
}

pub fn last_index(k: usize, chunk: &[Edge]) -> u64 {
    (k * CHUNK + chunk.len() - 1) as u64
}

/// Spins until arrival `last` is due.
fn wait_due(sched: &Schedule, last: u64) {
    while !sched.is_due(last) {
        std::hint::spin_loop();
    }
}

/// Times one retrospective Alg 2 query over `sampler`.
fn query(rec: &mut Recorder, sampler: &GpsSampler<TriangleWeight>) -> (f64, TriadEstimates) {
    let t0 = Instant::now();
    let est = rec.span("alg2.query", Layer::PostStream, || {
        post_stream::estimate(sampler)
    });
    (t0.elapsed().as_nanos() as f64 / 1e6, est)
}

/// A single-threaded ingest layer the closed loops feed chunk by chunk.
pub trait Ingest: Sized {
    /// Span name of one chunk's calls.
    const SPAN: &'static str;
    const LAYER: Layer;
    fn build(spec: &Spec, seed: u64) -> Self;
    fn process(&mut self, e: Edge);
}

impl Ingest for GpsSampler<TriangleWeight> {
    const SPAN: &'static str = "alg1.process";
    const LAYER: Layer = Layer::Reservoir;
    fn build(spec: &Spec, seed: u64) -> Self {
        GpsSampler::new(spec.capacity, TriangleWeight::default(), seed)
    }
    fn process(&mut self, e: Edge) {
        GpsSampler::process(self, e);
    }
}

impl Ingest for InStreamEstimator<TriangleWeight> {
    const SPAN: &'static str = "alg3.process";
    const LAYER: Layer = Layer::InStream;
    fn build(spec: &Spec, seed: u64) -> Self {
        InStreamEstimator::new(spec.capacity, TriangleWeight::default(), seed)
    }
    fn process(&mut self, e: Edge) {
        InStreamEstimator::process(self, e);
    }
}

/// Feeds the whole stream to a fresh `P`, one span per chunk, and returns
/// it with the nanoseconds spent inside `process`. `after` runs after each
/// chunk, outside the timing, with the chunk's index and its nanoseconds.
pub fn ingest<P: Ingest>(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    rec: &mut Recorder,
    mut after: impl FnMut(usize, f64, &P, &mut Recorder),
) -> (P, u128) {
    let mut p = P::build(spec, seed);
    let mut ns = 0u128;
    for (k, chunk) in inp.edges.chunks(CHUNK).enumerate() {
        let t0 = Instant::now();
        let open = rec.begin(P::SPAN, P::LAYER);
        for &e in chunk {
            p.process(e);
        }
        rec.end(open);
        let chunk_ns = t0.elapsed().as_nanos();
        ns += chunk_ns;
        after(k, chunk_ns as f64, &p, rec);
    }
    (p, ns)
}

/// One closed-loop pass and its retrospective queries: one Alg 2 query over
/// the live reservoir after every `spec.query_every`-th chunk once the
/// reservoir is full, outside the ingest timing. The set-up's warm-up pass
/// runs without them.
pub fn closed(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    queries: bool,
    rec: &mut Recorder,
    s: &mut Samples,
    t: &mut Tally,
) {
    let n = inp.edges.len();
    t.ops(n.div_ceil(CHUNK));
    let before = ALLOC.live();
    match spec.kind {
        Kind::InStream => {
            let (est, ns) = ingest::<InStreamEstimator<TriangleWeight>>(
                spec,
                inp,
                seed,
                rec,
                |k, ns, est, rec| {
                    s.ingest_ns.see(k, ns);
                    let sampler = est.sampler();
                    if queries && sampler.len() == sampler.capacity() && k % spec.query_every == 0 {
                        t.ops(1);
                        s.query_ms.see(k, query(rec, sampler).0);
                    }
                },
            );
            s.edges_per_s.push(rate(n, ns));
            s.held_bytes
                .push(ALLOC.live().saturating_sub(before) as f64);
            s.final_estimate(spec, &est.estimates(), inp.truth, t);
        }
        Kind::Retro => {
            let mut held = None;
            let (sampler, ns) = ingest::<GpsSampler<TriangleWeight>>(
                spec,
                inp,
                seed,
                rec,
                |k, ns, sampler, rec| {
                    s.ingest_ns.see(k, ns);
                    if sampler.len() == sampler.capacity() {
                        // The sample size is fixed from here on; measure
                        // the bytes it holds before queries allocate
                        // alongside it.
                        held.get_or_insert_with(|| ALLOC.live().saturating_sub(before));
                        if queries && k % spec.query_every == 0 {
                            t.ops(1);
                            s.query_ms.see(k, query(rec, sampler).0);
                        }
                    }
                },
            );
            s.edges_per_s.push(rate(n, ns));
            s.held_bytes
                .push(held.unwrap_or_else(|| ALLOC.live().saturating_sub(before)) as f64);
            let (_, live) = query(rec, &sampler);
            check_round_trip(spec, &sampler, &live, seed, t);
            s.final_estimate(spec, &live, inp.truth, t);
        }
    }
}

/// Alg 2 over a `persist` save/load round trip must equal Alg 2 over the
/// live sample, bit for bit.
fn check_round_trip(
    spec: &Spec,
    sampler: &GpsSampler<TriangleWeight>,
    live: &TriadEstimates,
    seed: u64,
    t: &mut Tally,
) {
    let mut buf = Vec::new();
    let restored = gps_core::persist::save(sampler, &mut buf)
        .and_then(|()| gps_core::persist::load(&buf[..]))
        .map(|saved| saved.into_sampler(TriangleWeight::default(), seed));
    match restored {
        Ok(back) => t.check(bits_equal(live, &post_stream::estimate(&back)), || {
            format!(
                "{}: Alg 2 over the persisted sample differs from the live sample",
                spec.name
            )
        }),
        Err(e) => {
            t.ops(1);
            t.fail(format!("{}: persist round trip failed: {e}", spec.name));
        }
    }
}

/// One open-loop pass at the workload's fixed rate: freshness, reads and
/// generator lateness.
pub fn open(
    spec: &Spec,
    inp: &Input,
    seed: u64,
    rec: &mut Recorder,
    s: &mut Samples,
    t: &mut Tally,
) {
    let n = inp.edges.len();
    t.ops(n.div_ceil(CHUNK));
    match spec.kind {
        Kind::InStream => {
            let mut est = InStreamEstimator::new(spec.capacity, TriangleWeight::default(), seed);
            let mut sched = Schedule::new(spec.rate);
            for (k, chunk) in inp.edges.chunks(CHUNK).enumerate() {
                let last = last_index(k, chunk);
                let wait = rec.begin("openloop.wait", Layer::Idle);
                if !sched.is_due(last) {
                    let ns = rec.span("alg3.read_batch", Layer::InStream, || {
                        batch_ns(READ_BATCH, || {
                            black_box(black_box(&est).estimates());
                        })
                    });
                    s.read_ns.see(k, ns);
                    t.ops(1);
                }
                wait_due(&sched, last);
                rec.end(wait);
                sched.offer(last);
                rec.span("alg3.process", Layer::InStream, || {
                    for &e in chunk {
                        est.process(e);
                    }
                });
                black_box(est.estimates());
                s.fresh_ms.see(k, sched.fresh_ns(last + 1) / 1e6);
            }
            s.late_ns.extend(sched.lateness_ns);
            s.final_estimate(spec, &est.estimates(), inp.truth, t);
        }
        Kind::Retro => {
            let mut sampler = GpsSampler::new(spec.capacity, TriangleWeight::default(), seed);
            let mut sched = Schedule::new(spec.rate);
            let mut probe = 0usize;
            for (k, chunk) in inp.edges.chunks(CHUNK).enumerate() {
                let last = last_index(k, chunk);
                let wait = rec.begin("openloop.wait", Layer::Idle);
                if !sched.is_due(last) {
                    let ns = rec.span("alg1.read_batch", Layer::Reservoir, || {
                        batch_ns(READ_BATCH, || {
                            probe = (probe + 1) % inp.probes.len();
                            black_box(black_box(&sampler).inclusion_prob(inp.probes[probe]));
                        })
                    });
                    s.read_ns.see(k, ns);
                    t.ops(1);
                }
                wait_due(&sched, last);
                rec.end(wait);
                sched.offer(last);
                rec.span("alg1.process", Layer::Reservoir, || {
                    for &e in chunk {
                        sampler.process(e);
                    }
                });
                if sampler.len() == sampler.capacity() {
                    t.ops(1);
                    black_box(query(rec, &sampler));
                    s.fresh_ms.see(k, sched.fresh_ns(last + 1) / 1e6);
                }
            }
            s.late_ns.extend(sched.lateness_ns);
            let (_, live) = query(rec, &sampler);
            s.final_estimate(spec, &live, inp.truth, t);
        }
    }
}
