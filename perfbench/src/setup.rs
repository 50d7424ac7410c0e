//! Workload specifications and the seeded inputs each run builds before
//! its first timed pass.

use gps_core::{InStreamEstimator, TriadEstimates, TriangleWeight};
use gps_graph::{exact, CsrGraph, Edge};
use gps_stream::{gen, permuted};
use std::time::Instant;

/// Arrivals per ingest call, per span, and per open-loop offer.
pub const CHUNK: usize = 1_024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Single-threaded Alg 3 over Holme–Kim.
    InStream,
    /// Single-threaded Alg 1 with periodic Alg 2 queries over R-MAT.
    Retro,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub capacity: usize,
    /// Fixed open-loop offered rate, arrivals per second. Constants, never
    /// derived from a measurement, so two builds are offered the same load.
    pub rate: f64,
    /// Chunks between two Alg 2 queries of the closed loop once the
    /// reservoir is full. On `instream-hk` a query over the m = 16k sample
    /// costs about 25 chunks' ingest; one after every chunk would fill most
    /// of a round and leave fewer passes for each query's best time.
    pub query_every: usize,
    /// Per-shard arrivals between two recovery checkpoints of the traced
    /// run's serving arms (and between the Alg 3 arm's `persist` saves):
    /// 32,768 as deployed, scaled down with the quick stream.
    pub checkpoint_every: u64,
    pub quick: bool,
}

pub const WORKLOADS: [&str; 2] = ["instream-hk", "retro-rmat"];

impl Spec {
    pub fn by_name(name: &str, quick: bool) -> Option<Spec> {
        let (kind, capacity, rate, query_every) = match name {
            "instream-hk" => (Kind::InStream, 16_000, 1_000_000.0, 2),
            "retro-rmat" => (Kind::Retro, 4_000, 800_000.0, 1),
            _ => return None,
        };
        let name = WORKLOADS.into_iter().find(|w| *w == name)?;
        // Quick mode shrinks the stream about 16x and the reservoir 8x, so
        // the reservoir still fills and evicts.
        let (capacity, checkpoint_every) = if quick {
            (capacity / 8, 32_768 / 16)
        } else {
            (capacity, 32_768)
        };
        Some(Spec {
            name,
            kind,
            capacity,
            rate,
            query_every,
            checkpoint_every,
            quick,
        })
    }

    /// The workload's seeded, permuted edge stream.
    pub fn stream(&self, seed: u64) -> Vec<Edge> {
        let edges = match (self.kind, self.quick) {
            (Kind::InStream, false) => gen::holme_kim(80_000, 4, 0.5, seed),
            (Kind::InStream, true) => gen::holme_kim(5_000, 4, 0.5, seed),
            (Kind::Retro, false) => gen::rmat(18, 320_000, gen::RmatParams::social(), seed),
            (Kind::Retro, true) => gen::rmat(14, 20_000, gen::RmatParams::social(), seed),
        };
        permuted(&edges, seed ^ 0x5eed)
    }
}

/// Exact counts of the whole stream's graph.
#[derive(Clone, Copy, Debug)]
pub struct Truth {
    pub triangles: f64,
    pub wedges: f64,
}

pub struct Input {
    pub edges: Vec<Edge>,
    pub truth: Truth,
    /// Traced runs only: [`reference`], what the serving arms' final epochs
    /// must restate.
    pub reference: Option<TriadEstimates>,
    /// A fixed probe set: every 64th stream edge.
    pub probes: Vec<Edge>,
    pub gen_s: f64,
    pub exact_s: f64,
}

/// Builds the inputs: stream and exact truth.
pub fn build(spec: &Spec, seed: u64) -> Input {
    let t = Instant::now();
    let edges = spec.stream(seed);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let g = CsrGraph::from_edges(&edges);
    let truth = Truth {
        triangles: exact::triangle_count(&g) as f64,
        wedges: exact::wedge_count(&g) as f64,
    };
    let exact_s = t.elapsed().as_secs_f64();
    let probes = edges.iter().step_by(64).copied().collect();
    Input {
        edges,
        truth,
        reference: None,
        probes,
        gen_s,
        exact_s,
    }
}

/// A bare `InStreamEstimator` over the whole stream with the engine's seed:
/// what an `S = 1` serving engine must publish at the end (shard 0 runs on
/// the engine seed).
pub fn reference(spec: &Spec, inp: &Input, seed: u64) -> TriadEstimates {
    let mut est = InStreamEstimator::new(spec.capacity, TriangleWeight::default(), seed);
    est.process_stream(inp.edges.iter().copied());
    est.estimates()
}

/// Whether two estimate bundles agree to the bit.
pub fn bits_equal(a: &TriadEstimates, b: &TriadEstimates) -> bool {
    let f = |e: &TriadEstimates| {
        [
            e.triangles.value,
            e.triangles.variance,
            e.wedges.value,
            e.wedges.variance,
            e.tri_wedge_cov,
            e.clustering.value,
            e.clustering.variance,
        ]
        .map(f64::to_bits)
    };
    f(a) == f(b)
}
