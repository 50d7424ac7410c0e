//! Bulk-processed NSAMP.
//!
//! The paper notes NSAMP "achieves a near-linear total time if and only if
//! running in bulk-processing. Otherwise the algorithm is too slow and not
//! practical even for medium size graphs" (§6). This module implements the
//! two optimizations that remove the naive `O(r)` per-edge cost:
//!
//! 1. **Geometric skipping for level-1 resampling.** At time `t` each of
//!    the `r` estimators independently replaces its `e1` with probability
//!    `1/t`; instead of `r` coin flips we draw the number of successes and
//!    pick that many estimators — `O(E[successes]) = O(r/t)` amortized,
//!    `O(r·ln T)` over the whole stream.
//! 2. **Endpoint inverted index.** Level-2 updates and wedge-closure checks
//!    only concern estimators whose `e1` touches an endpoint of the arrival
//!    (the closing edge of a wedge shares a node with `e1`), so an index
//!    `node → estimator ids` reduces per-edge work to the estimators that
//!    can actually react.
//!
//! The estimator state and the resulting statistics are identical in
//! distribution to the naive [`crate::nsamp::NSamp`]; only the schedule of
//! RNG draws differs.

use crate::common::{nsamp_estimate, NeighborhoodEstimator, TriangleEstimator};
use gps_graph::types::{Edge, NodeId};
use gps_graph::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// NSAMP with bulk processing: statistically equivalent to
/// [`crate::nsamp::NSamp`] at a fraction of the per-edge cost.
///
/// Like the naive variant, the per-estimator state
/// ([`NeighborhoodEstimator`], shared via `common`) holds at most two
/// concrete edges and no adjacency structure; the `node → estimators`
/// inverted index below maps nodes to *estimator ids*, not edges.
pub struct NSampBulk {
    estimators: Vec<NeighborhoodEstimator>,
    /// node → ids of estimators whose current `e1` touches the node.
    /// Entries go stale when `e1` changes; consumers re-validate.
    index: FxHashMap<NodeId, Vec<u32>>,
    t: u64,
    rng: SmallRng,
}

impl NSampBulk {
    /// Creates a bulk-processed NSAMP with `r` estimators.
    pub fn new(r: usize, seed: u64) -> Self {
        assert!(r > 0, "need at least one estimator");
        NSampBulk {
            estimators: vec![NeighborhoodEstimator::default(); r],
            index: FxHashMap::default(),
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Number of estimators.
    pub fn estimator_count(&self) -> usize {
        self.estimators.len()
    }

    fn assign_e1(&mut self, id: u32, edge: Edge) {
        self.estimators[id as usize] = NeighborhoodEstimator {
            e1: Some(edge),
            ..Default::default()
        };
        self.index.entry(edge.u()).or_default().push(id);
        self.index.entry(edge.v()).or_default().push(id);
    }

    /// Visits estimators whose **current** `e1` touches `node`, compacting
    /// stale index entries in passing.
    fn touching(&mut self, node: NodeId, out: &mut Vec<u32>) {
        let Some(ids) = self.index.get_mut(&node) else {
            return;
        };
        ids.retain(|&id| {
            let live = self.estimators[id as usize]
                .e1
                .is_some_and(|e1| e1.touches(node));
            if live {
                out.push(id);
            }
            live
        });
        if ids.is_empty() {
            self.index.remove(&node);
        }
    }
}

impl TriangleEstimator for NSampBulk {
    fn process(&mut self, edge: Edge) {
        self.t += 1;
        let t = self.t;
        let r = self.estimators.len();

        // Level 1 via geometric skipping: each estimator flips p = 1/t; the
        // number of successes is Binomial(r, 1/t), sampled by walking
        // geometric gaps so the cost is proportional to the successes.
        if t == 1 {
            for id in 0..r as u32 {
                self.assign_e1(id, edge);
            }
        } else {
            let p = 1.0 / t as f64;
            let log1p = (1.0 - p).ln();
            let mut i = 0usize;
            loop {
                // Skip ~Geometric(p) failures.
                let u: f64 = 1.0 - self.rng.random::<f64>();
                let skip = (u.ln() / log1p).floor() as usize;
                i += skip;
                if i >= r {
                    break;
                }
                self.assign_e1(i as u32, edge);
                i += 1;
            }
        }

        // Levels 2 + closure detection: only estimators whose e1 touches an
        // endpoint of this arrival can react.
        let mut ids = Vec::new();
        self.touching(edge.u(), &mut ids);
        self.touching(edge.v(), &mut ids);
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            let est = &mut self.estimators[id as usize];
            let e1 = est.e1.expect("indexed estimators have e1");
            if e1 == edge {
                continue; // the arrival that just became e1
            }
            if edge.adjacent(&e1) {
                est.c += 1;
                if self.rng.random_range(0..est.c) == 0 {
                    est.e2 = Some(edge);
                    est.closed = false;
                }
            }
            if !est.closed && est.closing_edge() == Some(edge) {
                est.closed = true;
            }
        }
    }

    fn triangle_estimate(&self) -> f64 {
        nsamp_estimate(&self.estimators, self.t)
    }

    fn stored_edges(&self) -> usize {
        self.estimators.iter().map(|e| e.stored_edges()).sum()
    }

    fn name(&self) -> &'static str {
        "NSAMP-BULK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::exact;
    use gps_stream::{gen, permuted};

    #[test]
    fn unbiased_on_clustered_graph() {
        let edges = gen::holme_kim(200, 3, 0.5, 21);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let runs = 40;
        let mut sum = 0.0;
        for seed in 0..runs {
            let stream = permuted(&edges, 900 + seed);
            let mut n = NSampBulk::new(512, seed);
            for &e in &stream {
                n.process(e);
            }
            sum += n.triangle_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.20,
            "NSAMP-BULK mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn matches_naive_variant_in_distribution() {
        // Same estimator count, same workload: the *means over seeds* of
        // naive and bulk NSAMP must agree (they sample the same process).
        use crate::nsamp::NSamp;
        let edges = gen::holme_kim(150, 3, 0.6, 5);
        let runs = 60;
        let (mut naive_sum, mut bulk_sum) = (0.0, 0.0);
        for seed in 0..runs {
            let stream = permuted(&edges, 3_000 + seed);
            let mut a = NSamp::new(256, seed);
            let mut b = NSampBulk::new(256, seed + 9_999);
            for &e in &stream {
                a.process(e);
                b.process(e);
            }
            naive_sum += a.triangle_estimate();
            bulk_sum += b.triangle_estimate();
        }
        let (na, bu) = (naive_sum / runs as f64, bulk_sum / runs as f64);
        assert!(
            (na - bu).abs() / na.max(1.0) < 0.25,
            "naive mean {na} and bulk mean {bu} should agree"
        );
    }

    #[test]
    fn no_triangles_means_zero() {
        let mut n = NSampBulk::new(64, 3);
        for i in 0..200u32 {
            n.process(Edge::new(i, i + 1));
        }
        assert_eq!(n.triangle_estimate(), 0.0);
    }

    #[test]
    fn index_stays_consistent_under_heavy_replacement() {
        // Small t keeps level-1 replacement frequent, churning the index.
        let mut n = NSampBulk::new(16, 7);
        for e in gen::erdos_renyi(30, 200, 9) {
            n.process(e);
        }
        // Every estimator has a current e1 and every (estimator, endpoint)
        // pair is findable through the index.
        for (id, est) in n.estimators.iter().enumerate() {
            let e1 = est.e1.expect("all estimators seeded by now");
            for node in [e1.u(), e1.v()] {
                assert!(
                    n.index
                        .get(&node)
                        .is_some_and(|ids| ids.contains(&(id as u32))),
                    "estimator {id} missing from index of node {node}"
                );
            }
        }
        assert!(n.stored_edges() >= 16);
    }

    #[test]
    fn first_arrival_seeds_every_estimator() {
        let mut n = NSampBulk::new(8, 1);
        n.process(Edge::new(5, 6));
        assert_eq!(n.stored_edges(), 8);
    }
}
