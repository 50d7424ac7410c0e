//! TRIEST — reservoir-sampling triangle estimators (De Stefani, Epasto,
//! Riondato & Upfal, KDD 2016), insertion-only variants as used in the
//! paper's comparison (Tables 2–3).

use crate::common::{EdgeSampleStore, TriangleEstimator};
use gps_graph::types::Edge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// TRIEST-BASE: classic uniform reservoir over edges; counts triangles
/// *inside the sample* and rescales by the inverse probability that all
/// three edges of a triangle are jointly sampled,
/// `ξ(t) = t(t−1)(t−2) / (M(M−1)(M−2))`.
///
/// ```
/// use gps_baselines::{TriangleEstimator, TriestBase};
/// use gps_graph::Edge;
///
/// // A reservoir big enough to hold the whole stream is exact: K4 has
/// // C(4,3) = 4 triangles.
/// let mut est = TriestBase::new(100, 7);
/// for a in 0..4u32 {
///     for b in (a + 1)..4 {
///         est.process(Edge::new(a, b));
///     }
/// }
/// assert_eq!(est.triangle_estimate(), 4.0);
/// assert_eq!(est.stored_edges(), 6);
/// ```
pub struct TriestBase {
    capacity: usize,
    store: EdgeSampleStore,
    sample_triangles: f64,
    t: u64,
    rng: SmallRng,
}

impl TriestBase {
    /// Creates a TRIEST-BASE estimator with reservoir capacity `capacity`
    /// (must be ≥ 3 so the scaling factor is defined).
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 3, "TRIEST needs capacity ≥ 3");
        TriestBase {
            capacity,
            store: EdgeSampleStore::new(),
            sample_triangles: 0.0,
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn scaling(&self) -> f64 {
        let t = self.t as f64;
        let m = self.capacity as f64;
        ((t * (t - 1.0) * (t - 2.0)) / (m * (m - 1.0) * (m - 2.0))).max(1.0)
    }

    /// Current stream position.
    pub fn arrivals(&self) -> u64 {
        self.t
    }
}

impl TriangleEstimator for TriestBase {
    fn process(&mut self, edge: Edge) {
        if self.store.contains(edge) {
            return; // simplified streams have unique edges; be defensive
        }
        self.t += 1;
        if self.store.len() < self.capacity {
            self.sample_triangles += self.store.common_neighbors(edge) as f64;
            self.store.insert(edge);
        } else if self.rng.random::<f64>() < self.capacity as f64 / self.t as f64 {
            let victim_idx = self.rng.random_range(0..self.store.len());
            let victim = self.store.remove_at(victim_idx);
            self.sample_triangles -= self.store.common_neighbors(victim) as f64;
            self.sample_triangles += self.store.common_neighbors(edge) as f64;
            self.store.insert(edge);
        }
    }

    fn triangle_estimate(&self) -> f64 {
        self.sample_triangles * self.scaling()
    }

    fn stored_edges(&self) -> usize {
        self.store.len()
    }

    fn name(&self) -> &'static str {
        "TRIEST"
    }
}

/// TRIEST-IMPR: counts on *every* arrival before the sampling step, weighted
/// by `η(t) = max(1, (t−1)(t−2) / (M(M−1)))`, and never decrements. The
/// counter itself is the (unbiased) estimate — strictly lower variance than
/// BASE on the same reservoir.
pub struct TriestImpr {
    capacity: usize,
    store: EdgeSampleStore,
    counter: f64,
    t: u64,
    rng: SmallRng,
}

impl TriestImpr {
    /// Creates a TRIEST-IMPR estimator with reservoir capacity `capacity`.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity >= 2, "TRIEST-IMPR needs capacity ≥ 2");
        TriestImpr {
            capacity,
            store: EdgeSampleStore::new(),
            counter: 0.0,
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl TriangleEstimator for TriestImpr {
    fn process(&mut self, edge: Edge) {
        if self.store.contains(edge) {
            return;
        }
        self.t += 1;
        let t = self.t as f64;
        let m = self.capacity as f64;
        let eta = (((t - 1.0) * (t - 2.0)) / (m * (m - 1.0))).max(1.0);
        self.counter += eta * self.store.common_neighbors(edge) as f64;
        if self.store.len() < self.capacity {
            self.store.insert(edge);
        } else if self.rng.random::<f64>() < m / t {
            let victim_idx = self.rng.random_range(0..self.store.len());
            self.store.remove_at(victim_idx);
            self.store.insert(edge);
        }
    }

    fn triangle_estimate(&self) -> f64 {
        self.counter
    }

    fn stored_edges(&self) -> usize {
        self.store.len()
    }

    fn name(&self) -> &'static str {
        "TRIEST-IMPR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::exact;
    use gps_stream::{gen, permuted};

    fn k5() -> Vec<Edge> {
        let mut v = vec![];
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                v.push(Edge::new(a, b));
            }
        }
        v
    }

    #[test]
    fn base_is_exact_when_reservoir_holds_everything() {
        let mut est = TriestBase::new(100, 1);
        for e in k5() {
            est.process(e);
        }
        assert_eq!(est.triangle_estimate(), 10.0); // C(5,3)
        assert_eq!(est.stored_edges(), 10);
    }

    #[test]
    fn impr_is_exact_when_reservoir_holds_everything() {
        let mut est = TriestImpr::new(100, 1);
        for e in k5() {
            est.process(e);
        }
        assert_eq!(est.triangle_estimate(), 10.0);
    }

    #[test]
    fn reservoir_never_exceeds_capacity() {
        let mut est = TriestBase::new(8, 3);
        for e in gen::erdos_renyi(100, 400, 7) {
            est.process(e);
            assert!(est.stored_edges() <= 8);
        }
        assert_eq!(est.stored_edges(), 8);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut est = TriestBase::new(10, 0);
        est.process(Edge::new(0, 1));
        est.process(Edge::new(1, 0));
        assert_eq!(est.arrivals(), 1);
    }

    #[test]
    fn base_and_impr_are_unbiased_on_average() {
        let edges = gen::holme_kim(400, 3, 0.5, 99);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let m = edges.len() / 4;
        let runs = 80;
        let (mut base_sum, mut impr_sum) = (0.0, 0.0);
        for seed in 0..runs {
            let stream = permuted(&edges, 500 + seed);
            let mut base = TriestBase::new(m, seed);
            let mut impr = TriestImpr::new(m, seed);
            for &e in &stream {
                base.process(e);
                impr.process(e);
            }
            base_sum += base.triangle_estimate();
            impr_sum += impr.triangle_estimate();
        }
        let base_mean = base_sum / runs as f64;
        let impr_mean = impr_sum / runs as f64;
        assert!(
            (base_mean - truth).abs() / truth < 0.15,
            "TRIEST-BASE mean {base_mean} vs truth {truth}"
        );
        assert!(
            (impr_mean - truth).abs() / truth < 0.10,
            "TRIEST-IMPR mean {impr_mean} vs truth {truth}"
        );
    }

    #[test]
    fn impr_has_lower_error_than_base() {
        // The headline claim of the TRIEST paper, also visible in the GPS
        // paper's Table 3.
        let edges = gen::holme_kim(400, 3, 0.5, 7);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let m = edges.len() / 5;
        let runs = 60;
        let (mut base_sq, mut impr_sq) = (0.0, 0.0);
        for seed in 0..runs {
            let stream = permuted(&edges, 800 + seed);
            let mut base = TriestBase::new(m, seed);
            let mut impr = TriestImpr::new(m, seed);
            for &e in &stream {
                base.process(e);
                impr.process(e);
            }
            let b = (base.triangle_estimate() - truth) / truth;
            let i = (impr.triangle_estimate() - truth) / truth;
            base_sq += b * b;
            impr_sq += i * i;
        }
        assert!(
            impr_sq < base_sq,
            "IMPR MSE ({impr_sq:.4}) should beat BASE ({base_sq:.4})"
        );
    }
}
