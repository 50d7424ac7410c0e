//! NSAMP — neighborhood sampling (Pavan, Tangwongsan, Tirthapura & Wu,
//! VLDB 2013).
//!
//! Each of `r` independent estimators maintains a *neighborhood sample*:
//!
//! 1. `e1`: a uniform edge from the stream (reservoir of size 1);
//! 2. `e2`: a uniform edge among stream edges adjacent to `e1` that arrived
//!    after `e1` (`c` counts those);
//! 3. a flag set when the edge closing the wedge `(e1, e2)` arrives while
//!    `(e1, e2)` is the current pair.
//!
//! A specific triangle with edges ordered `a < b < c` is detected with
//! probability `(1/t)·(1/|N_t(a)|)`, so `X = t · c · 1{detected}` is
//! unbiased for the triangle count and the final estimate averages over the
//! `r` estimators. Every estimator touches every arrival, so the per-edge
//! cost is `O(r)` — the paper's observation that NSAMP is slow without bulk
//! processing is reproduced by the benchmarks.

use crate::common::{nsamp_estimate, NeighborhoodEstimator, TriangleEstimator};
use gps_graph::types::{Edge, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// NSAMP with `r` parallel neighborhood estimators.
///
/// NSAMP keeps **no adjacency structure** — each
/// [`NeighborhoodEstimator`] holds at most two concrete edges; the
/// estimator state is shared with [`crate::nsamp_bulk::NSampBulk`] via
/// `common`.
pub struct NSamp {
    estimators: Vec<NeighborhoodEstimator>,
    t: u64,
    rng: SmallRng,
}

impl NSamp {
    /// Creates an NSAMP estimator with `r` independent neighborhood
    /// samplers. The paper's reference configuration uses `r = 128·1024`
    /// estimators for accurate results; anything ≥ a few thousand gives
    /// usable estimates on 10⁵-edge streams.
    pub fn new(r: usize, seed: u64) -> Self {
        assert!(r > 0, "need at least one estimator");
        NSamp {
            estimators: vec![NeighborhoodEstimator::default(); r],
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Number of parallel estimators.
    pub fn estimator_count(&self) -> usize {
        self.estimators.len()
    }

    #[inline]
    fn adjacent(e: Edge, u: NodeId, v: NodeId) -> bool {
        e.touches(u) || e.touches(v)
    }
}

impl TriangleEstimator for NSamp {
    fn process(&mut self, edge: Edge) {
        self.t += 1;
        let t = self.t;
        for est in &mut self.estimators {
            // Level 1: reservoir of size 1 over all edges.
            if est.e1.is_none() || self.rng.random_range(0..t) == 0 {
                est.reset_with(edge);
                continue;
            }
            let e1 = est.e1.expect("checked above");
            if e1 == edge {
                continue;
            }
            // Level 2: reservoir of size 1 over N(e1).
            if Self::adjacent(edge, e1.u(), e1.v()) {
                est.c += 1;
                if self.rng.random_range(0..est.c) == 0 {
                    est.e2 = Some(edge);
                    est.closed = false;
                }
            }
            // Detection: does this arrival close the current wedge?
            if !est.closed && est.closing_edge() == Some(edge) {
                est.closed = true;
            }
        }
    }

    fn triangle_estimate(&self) -> f64 {
        nsamp_estimate(&self.estimators, self.t)
    }

    fn stored_edges(&self) -> usize {
        // Each estimator stores at most two edges.
        self.estimators.iter().map(|e| e.stored_edges()).sum()
    }

    fn name(&self) -> &'static str {
        "NSAMP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::exact;
    use gps_stream::{gen, permuted};

    #[test]
    fn single_triangle_is_found_in_expectation() {
        // Tiny stream: one triangle plus noise; with many estimators the
        // average detects it.
        let edges = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(3, 4),
            Edge::new(5, 6),
        ];
        let runs = 200;
        let mut sum = 0.0;
        for seed in 0..runs {
            let mut n = NSamp::new(64, seed);
            for &e in &edges {
                n.process(e);
            }
            sum += n.triangle_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - 1.0).abs() < 0.25,
            "mean {mean} should approach 1 triangle"
        );
    }

    #[test]
    fn estimator_is_unbiased_on_clustered_graph() {
        let edges = gen::holme_kim(200, 3, 0.5, 21);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let runs = 40;
        let mut sum = 0.0;
        for seed in 0..runs {
            let stream = permuted(&edges, 900 + seed);
            let mut n = NSamp::new(512, seed);
            for &e in &stream {
                n.process(e);
            }
            sum += n.triangle_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.20,
            "NSAMP mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn no_triangles_means_zero_estimate() {
        let mut n = NSamp::new(128, 3);
        for i in 0..100u32 {
            n.process(Edge::new(i, i + 1));
        }
        assert_eq!(n.triangle_estimate(), 0.0);
    }

    #[test]
    fn stored_edges_is_bounded_by_two_per_estimator() {
        let mut n = NSamp::new(32, 1);
        for e in gen::erdos_renyi(50, 200, 2) {
            n.process(e);
        }
        assert!(n.stored_edges() <= 64);
        assert!(n.stored_edges() >= 32, "every estimator holds an e1 by now");
    }

    // closing_edge geometry is covered by the NeighborhoodEstimator unit
    // tests in `common`, where the shared state now lives.
}
