//! MASCOT — Bernoulli edge-sampling triangle estimators (Lim & Kang,
//! KDD 2015).
//!
//! MASCOT samples each edge independently with a fixed probability `p`
//! (memory is *not* fixed: expected stored edges are `p·|K|`; the GPS paper
//! accounts for this by first running MASCOT and giving the other methods
//! its realized sample size). Two variants:
//!
//! - [`Mascot`] (the improved, "unconditional" variant): every arriving edge
//!   contributes the sample triangles it closes, weighted `1/p²` (only the
//!   two earlier edges are random).
//! - [`MascotC`] (basic, "conditional"): only *sampled* arrivals contribute,
//!   weighted `1/p³`.

use crate::common::{EdgeSampleStore, TriangleEstimator};
use gps_graph::types::Edge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// MASCOT with unconditional counting (weight `1/p²`).
pub struct Mascot {
    p: f64,
    store: EdgeSampleStore,
    estimate: f64,
    rng: SmallRng,
}

impl Mascot {
    /// Creates a MASCOT estimator sampling edges with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0, 1]"
        );
        Mascot {
            p,
            store: EdgeSampleStore::new(),
            estimate: 0.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The sampling probability `p`.
    pub fn probability(&self) -> f64 {
        self.p
    }
}

impl TriangleEstimator for Mascot {
    fn process(&mut self, edge: Edge) {
        if self.store.contains(edge) {
            return;
        }
        // Unconditional counting: the arriving edge is deterministic; the
        // two earlier triangle edges are each sampled with probability p.
        let closed = self.store.common_neighbors(edge) as f64;
        self.estimate += closed / (self.p * self.p);
        if self.rng.random::<f64>() < self.p {
            self.store.insert(edge);
        }
    }

    fn triangle_estimate(&self) -> f64 {
        self.estimate
    }

    fn stored_edges(&self) -> usize {
        self.store.len()
    }

    fn name(&self) -> &'static str {
        "MASCOT"
    }
}

/// MASCOT-C with conditional counting (weight `1/p³`).
pub struct MascotC {
    p: f64,
    store: EdgeSampleStore,
    estimate: f64,
    rng: SmallRng,
}

impl MascotC {
    /// Creates a MASCOT-C estimator sampling edges with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0, 1]"
        );
        MascotC {
            p,
            store: EdgeSampleStore::new(),
            estimate: 0.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TriangleEstimator for MascotC {
    fn process(&mut self, edge: Edge) {
        if self.store.contains(edge) {
            return;
        }
        if self.rng.random::<f64>() < self.p {
            let closed = self.store.common_neighbors(edge) as f64;
            self.estimate += closed / (self.p * self.p * self.p);
            self.store.insert(edge);
        }
    }

    fn triangle_estimate(&self) -> f64 {
        self.estimate
    }

    fn stored_edges(&self) -> usize {
        self.store.len()
    }

    fn name(&self) -> &'static str {
        "MASCOT-C"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::exact;
    use gps_stream::{gen, permuted};

    fn k6() -> Vec<Edge> {
        let mut v = vec![];
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                v.push(Edge::new(a, b));
            }
        }
        v
    }

    #[test]
    fn p_equals_one_is_exact() {
        let mut m = Mascot::new(1.0, 1);
        let mut mc = MascotC::new(1.0, 1);
        for e in k6() {
            m.process(e);
            mc.process(e);
        }
        assert_eq!(m.triangle_estimate(), 20.0); // C(6,3)
        assert_eq!(mc.triangle_estimate(), 20.0);
        assert_eq!(m.stored_edges(), 15);
    }

    #[test]
    fn stored_edges_near_expectation() {
        let edges = gen::erdos_renyi(500, 4000, 3);
        let mut m = Mascot::new(0.25, 5);
        for e in edges {
            m.process(e);
        }
        let expected = 1000.0;
        let got = m.stored_edges() as f64;
        assert!(
            (got - expected).abs() < 150.0,
            "stored {got} should be near Binomial mean {expected}"
        );
    }

    #[test]
    fn both_variants_are_unbiased_on_average() {
        let edges = gen::holme_kim(300, 3, 0.5, 11);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let runs = 120;
        let (mut m_sum, mut c_sum) = (0.0, 0.0);
        for seed in 0..runs {
            let stream = permuted(&edges, 100 + seed);
            let mut m = Mascot::new(0.4, seed);
            let mut c = MascotC::new(0.4, seed + 5000);
            for &e in &stream {
                m.process(e);
                c.process(e);
            }
            m_sum += m.triangle_estimate();
            c_sum += c.triangle_estimate();
        }
        let m_mean = m_sum / runs as f64;
        let c_mean = c_sum / runs as f64;
        assert!(
            (m_mean - truth).abs() / truth < 0.10,
            "MASCOT mean {m_mean} vs {truth}"
        );
        assert!(
            (c_mean - truth).abs() / truth < 0.15,
            "MASCOT-C mean {c_mean} vs {truth}"
        );
    }

    #[test]
    fn unconditional_beats_conditional() {
        let edges = gen::holme_kim(300, 3, 0.5, 13);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let runs = 60;
        let (mut m_sq, mut c_sq) = (0.0, 0.0);
        for seed in 0..runs {
            let stream = permuted(&edges, 300 + seed);
            let mut m = Mascot::new(0.3, seed);
            let mut c = MascotC::new(0.3, seed);
            for &e in &stream {
                m.process(e);
                c.process(e);
            }
            let em = (m.triangle_estimate() - truth) / truth;
            let ec = (c.triangle_estimate() - truth) / truth;
            m_sq += em * em;
            c_sq += ec * ec;
        }
        assert!(
            m_sq < c_sq,
            "MASCOT MSE {m_sq:.4} should beat MASCOT-C {c_sq:.4}"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_zero_probability() {
        let _ = Mascot::new(0.0, 0);
    }
}
