//! Uniform edge reservoir with post-hoc Horvitz–Thompson scaling.
//!
//! The natural strawman (and the scheme GPS degenerates to under uniform
//! weights, cf. Vitter 1985): keep a uniform size-`M` reservoir, count the
//! triangles fully inside the sample at query time, and divide by the joint
//! inclusion probability of three specific edges,
//! `M(M−1)(M−2) / (t(t−1)(t−2))`.
//!
//! Unlike TRIEST-BASE, the count is recomputed at query time rather than
//! maintained incrementally — making queries `O(M^{3/2})` but arrivals
//! cheaper. The experiment harness uses it to separate "weighted vs uniform
//! sampling" effects from "incremental vs post-hoc counting" effects.

use crate::common::{EdgeSampleStore, TriangleEstimator};
use gps_graph::csr::CsrGraph;
use gps_graph::exact;
use gps_graph::types::Edge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform reservoir of edges with query-time triangle counting.
pub struct UniformReservoir {
    capacity: usize,
    store: EdgeSampleStore,
    t: u64,
    rng: SmallRng,
}

impl UniformReservoir {
    /// Creates a uniform reservoir of `capacity` edges.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 3, "need capacity ≥ 3 for triangle scaling");
        UniformReservoir {
            capacity,
            store: EdgeSampleStore::new(),
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Exact triangle count within the current sample.
    pub fn sample_triangles(&self) -> u64 {
        let g = CsrGraph::from_edges(self.store.edges());
        exact::triangle_count(&g)
    }

    /// Stream position.
    pub fn arrivals(&self) -> u64 {
        self.t
    }
}

impl TriangleEstimator for UniformReservoir {
    fn process(&mut self, edge: Edge) {
        if self.store.contains(edge) {
            return;
        }
        self.t += 1;
        if self.store.len() < self.capacity {
            self.store.insert(edge);
        } else if self.rng.random::<f64>() < self.capacity as f64 / self.t as f64 {
            let victim = self.rng.random_range(0..self.store.len());
            self.store.remove_at(victim);
            self.store.insert(edge);
        }
    }

    fn triangle_estimate(&self) -> f64 {
        let t = self.t as f64;
        let m = self.capacity as f64;
        let scale = ((t * (t - 1.0) * (t - 2.0)) / (m * (m - 1.0) * (m - 2.0))).max(1.0);
        self.sample_triangles() as f64 * scale
    }

    fn stored_edges(&self) -> usize {
        self.store.len()
    }

    fn name(&self) -> &'static str {
        "UNIF-RES"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_stream::{gen, permuted};

    #[test]
    fn exact_when_everything_fits() {
        let mut r = UniformReservoir::new(64, 1);
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                r.process(Edge::new(a, b));
            }
        }
        assert_eq!(r.triangle_estimate(), 20.0);
    }

    #[test]
    fn capacity_is_respected() {
        let mut r = UniformReservoir::new(10, 2);
        for e in gen::erdos_renyi(80, 300, 4) {
            r.process(e);
            assert!(r.stored_edges() <= 10);
        }
    }

    #[test]
    fn unbiased_on_average() {
        let edges = gen::holme_kim(300, 3, 0.6, 31);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let runs = 100;
        let mut sum = 0.0;
        for seed in 0..runs {
            let stream = permuted(&edges, 700 + seed);
            let mut r = UniformReservoir::new(edges.len() / 3, seed);
            for &e in &stream {
                r.process(e);
            }
            sum += r.triangle_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.15,
            "uniform reservoir mean {mean} vs truth {truth}"
        );
    }
}
