//! Shared infrastructure for the baseline estimators.

use gps_graph::hash::FxHashMap;
use gps_graph::types::{Edge, EdgeKey};
use gps_graph::CompactAdjacency;

/// A streaming triangle-count estimator: the minimal interface the
/// experiment harness needs to drive GPS and every baseline uniformly.
pub trait TriangleEstimator {
    /// Observes one stream arrival.
    fn process(&mut self, edge: Edge);

    /// Current estimate of the number of triangles among all edges streamed
    /// so far.
    fn triangle_estimate(&self) -> f64;

    /// Number of edges currently stored (memory footprint proxy; the paper
    /// compares methods at equal stored-edge budgets).
    fn stored_edges(&self) -> usize;

    /// Short display name for tables.
    fn name(&self) -> &'static str;
}

/// An edge sample supporting O(1) uniform eviction *and* O(1) adjacency
/// queries — the store both TRIEST variants, MASCOT, JHA and the uniform
/// reservoir are built on. (Uniform eviction needs an indexable vector;
/// triangle counting needs neighbor sets; this keeps the two views in sync.)
///
/// The adjacency view is the same cache-friendly [`CompactAdjacency`] that
/// backs `GpsSampler` — so Table 2/3 comparisons measure *algorithms*, not
/// data structures.
#[derive(Clone, Debug)]
pub struct EdgeSampleStore {
    edges: Vec<Edge>,
    positions: FxHashMap<EdgeKey, usize>,
    adj: CompactAdjacency<()>,
}

impl Default for EdgeSampleStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeSampleStore {
    /// Empty store.
    pub fn new() -> Self {
        EdgeSampleStore {
            edges: Vec::new(),
            positions: FxHashMap::default(),
            adj: CompactAdjacency::new(),
        }
    }

    /// Number of stored edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if nothing is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether `edge` is stored.
    #[inline]
    pub fn contains(&self, edge: Edge) -> bool {
        self.positions.contains_key(&edge.key())
    }

    /// Inserts an edge; returns `false` if it was already present.
    pub fn insert(&mut self, edge: Edge) -> bool {
        if self.contains(edge) {
            return false;
        }
        self.positions.insert(edge.key(), self.edges.len());
        self.edges.push(edge);
        self.adj.insert(edge, ());
        true
    }

    /// Removes a specific edge; returns `false` if absent.
    pub fn remove(&mut self, edge: Edge) -> bool {
        let Some(pos) = self.positions.remove(&edge.key()) else {
            return false;
        };
        self.edges.swap_remove(pos);
        if pos < self.edges.len() {
            self.positions.insert(self.edges[pos].key(), pos);
        }
        self.adj.remove(edge);
        true
    }

    /// Removes and returns the edge at a uniformly chosen index (caller
    /// supplies the index to keep RNG ownership with the estimator).
    pub fn remove_at(&mut self, index: usize) -> Edge {
        let edge = self.edges[index];
        self.remove(edge);
        edge
    }

    /// Number of common sampled neighbors of the endpoints of `edge` — the
    /// number of sample triangles `edge` would close.
    #[inline]
    pub fn common_neighbors(&self, edge: Edge) -> usize {
        self.adj.common_neighbor_count(edge.u(), edge.v())
    }

    /// Sampled degree of a node.
    #[inline]
    pub fn degree(&self, node: gps_graph::NodeId) -> usize {
        self.adj.degree(node)
    }

    /// The stored edges (arbitrary order).
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Read access to the adjacency view.
    #[inline]
    pub fn adjacency(&self) -> &CompactAdjacency<()> {
        &self.adj
    }
}

/// One NSAMP neighborhood estimator (Pavan et al., VLDB 2013): a uniform
/// stream edge `e1`, a uniform later edge `e2` adjacent to it, the count
/// `c = |N_t(e1)|` of adjacent successors seen, and whether the wedge's
/// closing edge has arrived. Shared by the naive and bulk-processed NSAMP
/// drivers, which differ only in how they *schedule* updates over a vector
/// of these.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeighborhoodEstimator {
    /// Level-1 sample: a uniform edge of the stream.
    pub e1: Option<Edge>,
    /// Level-2 sample: a uniform edge among those adjacent to `e1` that
    /// arrived after it.
    pub e2: Option<Edge>,
    /// `|N_t(e1)|` so far: adjacent edges arriving after `e1`.
    pub c: u64,
    /// Closing edge of the wedge `(e1, e2)` has arrived while the pair held.
    pub closed: bool,
}

impl NeighborhoodEstimator {
    /// Resets the estimator around a fresh level-1 edge.
    pub fn reset_with(&mut self, e1: Edge) {
        *self = NeighborhoodEstimator {
            e1: Some(e1),
            ..Default::default()
        };
    }

    /// The wedge-completing edge, if `e1`/`e2` currently form a wedge.
    pub fn closing_edge(&self) -> Option<Edge> {
        let (e1, e2) = (self.e1?, self.e2?);
        let shared = e1.shared_endpoint(&e2)?;
        let a = e1.other(shared).expect("shared endpoint is on e1");
        let b = e2.other(shared).expect("shared endpoint is on e2");
        Edge::try_new(a, b)
    }

    /// Edges currently held (0–2): the memory-footprint contribution.
    #[inline]
    pub fn stored_edges(&self) -> usize {
        self.e1.is_some() as usize + self.e2.is_some() as usize
    }
}

/// `Σ c·1{closed} · t / r` — the unbiased NSAMP triangle estimate over a
/// pool of estimators at stream position `t` (shared by both drivers).
pub(crate) fn nsamp_estimate(estimators: &[NeighborhoodEstimator], t: u64) -> f64 {
    let sum: f64 = estimators
        .iter()
        .filter(|e| e.closed)
        .map(|e| e.c as f64)
        .sum();
    sum * t as f64 / estimators.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_keep_views_consistent() {
        let mut s = EdgeSampleStore::new();
        assert!(s.insert(Edge::new(0, 1)));
        assert!(s.insert(Edge::new(1, 2)));
        assert!(s.insert(Edge::new(0, 2)));
        assert!(!s.insert(Edge::new(2, 0)), "duplicate rejected");
        assert_eq!(s.len(), 3);
        assert_eq!(s.common_neighbors(Edge::new(0, 1)), 1);
        assert!(s.remove(Edge::new(1, 2)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.common_neighbors(Edge::new(0, 1)), 0);
        assert!(!s.remove(Edge::new(1, 2)));
        assert_eq!(s.degree(0), 2);
    }

    #[test]
    fn swap_remove_keeps_positions_valid() {
        let mut s = EdgeSampleStore::new();
        for i in 0..10u32 {
            s.insert(Edge::new(i, i + 1));
        }
        // Remove from the middle repeatedly; each stored edge must stay
        // findable and removable.
        while !s.is_empty() {
            let e = s.remove_at(s.len() / 2);
            assert!(!s.contains(e));
        }
    }

    #[test]
    fn remove_at_returns_the_indexed_edge() {
        let mut s = EdgeSampleStore::new();
        s.insert(Edge::new(3, 4));
        let e = s.remove_at(0);
        assert_eq!(e, Edge::new(3, 4));
        assert!(s.is_empty());
    }

    #[test]
    fn neighborhood_estimator_closing_edge_geometry() {
        let mut est = NeighborhoodEstimator {
            e1: Some(Edge::new(1, 2)),
            e2: Some(Edge::new(2, 3)),
            ..Default::default()
        };
        assert_eq!(est.closing_edge(), Some(Edge::new(1, 3)));
        assert_eq!(est.stored_edges(), 2);
        est.e2 = Some(Edge::new(4, 5));
        assert_eq!(
            est.closing_edge(),
            None,
            "non-adjacent pair has no closing edge"
        );
        est.reset_with(Edge::new(7, 8));
        assert_eq!(est.stored_edges(), 1);
        assert_eq!(est.c, 0);
        assert!(!est.closed);
    }
}
