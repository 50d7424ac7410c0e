//! # graph-priority-sampling
//!
//! A production-oriented Rust implementation of **Graph Priority Sampling
//! (GPS)** from *"On Sampling from Massive Graph Streams"* (Ahmed, Duffield,
//! Willke, Rossi — VLDB 2017 / arXiv:1703.02625), together with every
//! substrate its evaluation depends on: graph storage and exact counting,
//! stream generators, the baseline estimators it is compared against, and a
//! harness regenerating each table and figure of the paper.
//!
//! ## What GPS does
//!
//! GPS maintains a **fixed-size, weight-sensitive sample of edges** over a
//! one-pass edge stream. Sampling weights may depend on the sampled
//! topology each edge encounters (e.g. how many sampled triangles it
//! closes), which lets one sample serve many estimation goals; unbiased
//! Horvitz–Thompson estimators — with unbiased variance estimates — are
//! available for arbitrary subgraph counts, either *post-stream* (from the
//! reservoir, at any time) or *in-stream* (snapshots taken as subgraphs are
//! completed; lower variance).
//!
//! ## Crate map
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | `GpsSampler` (Alg 1), weight functions, post-stream (Alg 2) & in-stream (Alg 3) estimation, generic motif snapshots, subset sums |
//! | [`graph`] | node/edge types, adjacency & CSR storage, exact triangle/wedge counting, incremental counters, edge-list I/O |
//! | [`stream`] | seeded permutations, checkpoint scheduling, synthetic workload generators, the evaluation corpus |
//! | [`baselines`] | TRIEST / TRIEST-IMPR, MASCOT(-C), NSAMP(+bulk), JHA wedge sampling, uniform reservoir — store-based ones on the same `CompactAdjacency` as GPS |
//! | [`engine`] | `ShardedGps`: hash-partitioned multi-threaded ingest over `S` independent reservoirs, unbiased cross-shard estimate merging (honest `S > 1` CIs), in-stream estimation inside the workers, composed snapshots |
//! | [`serve`] | `ServeEngine`: live queries while ingest runs — epoch-published merged estimates, lock-free `QueryHandle::latest`, blocking watermark waits, bounded subscriptions |
//! | [`stats`] | running moments, ARE/MARE metrics, table rendering |
//!
//! `docs/paper-map.md` in the repository maps the paper's algorithms and
//! estimator equations to the concrete modules and functions above.
//!
//! ## Quick start
//!
//! ```
//! use graph_priority_sampling::prelude::*;
//!
//! // A small synthetic social-graph stream.
//! let edges = gps_stream::gen::holme_kim(2_000, 3, 0.5, 7);
//! let stream = gps_stream::permuted(&edges, 99);
//!
//! // Sample 1/6 of the stream with triangle-optimized weights and
//! // estimate in-stream.
//! let mut est = InStreamEstimator::new(edges.len() / 6, TriangleWeight::default(), 42);
//! for e in stream {
//!     est.process(e);
//! }
//! let triads = est.estimates();
//! let (lb, ub) = triads.triangles.ci95();
//! assert!(lb <= triads.triangles.value && triads.triangles.value <= ub);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gps_baselines as baselines;
pub use gps_core as core;
pub use gps_engine as engine;
pub use gps_graph as graph;
pub use gps_serve as serve;
pub use gps_stats as stats;
pub use gps_stream as stream;

/// One-line imports for the common workflow.
pub mod prelude {
    pub use gps_baselines::{self, TriangleEstimator};
    pub use gps_core::local::LocalTriangleCounter;
    pub use gps_core::{
        self, persist, post_stream, Arrival, Estimate, GpsSampler, InStreamEstimator, MotifCounter,
        TriadEstimates, TriadWeight, TriangleWeight, UniformWeight, WedgeWeight,
    };
    pub use gps_engine::{self, EngineConfig, ShardedGps};
    pub use gps_graph::{self, CsrGraph, Edge, IncrementalCounter, NodeId};
    pub use gps_serve::{
        self, ClockMode, EpochTrace, EstimateEpoch, QueryHandle, ServeConfig, ServeEngine,
        TraceCause,
    };
    pub use gps_stream::{self, batched, permuted, Checkpoints};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let edges = gps_stream::gen::erdos_renyi(100, 300, 1);
        let mut sampler = GpsSampler::new(64, UniformWeight, 2);
        for e in permuted(&edges, 3) {
            sampler.process(e);
        }
        assert_eq!(sampler.len(), 64);
        let est = post_stream::estimate(&sampler);
        assert!(est.wedges.value >= 0.0);
    }
}
