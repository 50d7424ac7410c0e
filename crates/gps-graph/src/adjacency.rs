//! Dynamic undirected adjacency structure with per-edge values.
//!
//! [`AdjacencyMap<V>`] supports O(1) expected-time edge insertion, deletion
//! and membership tests, and neighbor iteration, while storing an arbitrary
//! value `V` per edge (the sampler stores reservoir slot ids; plain graph
//! uses store `()`).
//!
//! Every sampler runs on [`crate::CompactAdjacency`]; this map remains the
//! simple reference implementation — the oracle the differential tests
//! compare the compact store against — and backs the exact incremental
//! counter ([`crate::IncrementalCounter`]), which has no hot-path pressure.
//!
//! Common-neighbor enumeration — the inner loop of both the triangle-count
//! weight function `W(k, K̂) = 9|△̂(k)| + 1` and the post-stream estimator —
//! iterates the smaller of the two endpoint neighborhoods and probes the
//! larger, giving the `O(min(deg(v1), deg(v2)))` cost the paper claims in
//! §3.2 (S4).

use crate::hash::{FxHashMap, FxHashSet};
use crate::types::{Edge, NodeId};

/// A dynamic undirected graph storing a value of type `V` on every edge.
///
/// Both endpoints index the edge, so each logical edge is stored twice; the
/// value is kept on both sides and must therefore be `Copy` (reservoir slot
/// ids are `u32`s). Self-loops are rejected by construction of [`Edge`].
#[derive(Clone, Debug)]
pub struct AdjacencyMap<V: Copy> {
    adj: FxHashMap<NodeId, FxHashMap<NodeId, V>>,
    num_edges: usize,
}

impl<V: Copy> Default for AdjacencyMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy> AdjacencyMap<V> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        AdjacencyMap {
            adj: FxHashMap::default(),
            num_edges: 0,
        }
    }

    /// Creates an empty graph sized for roughly `nodes` distinct nodes.
    pub fn with_node_capacity(nodes: usize) -> Self {
        AdjacencyMap {
            adj: FxHashMap::with_capacity_and_hasher(nodes, Default::default()),
            num_edges: 0,
        }
    }

    /// Number of edges currently present.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of nodes with at least one incident edge.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Returns `true` if no edges are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_edges == 0
    }

    /// Inserts `edge` with associated `value`, returning the previous value
    /// if the edge was already present (in which case the value is replaced).
    pub fn insert(&mut self, edge: Edge, value: V) -> Option<V> {
        let (u, v) = edge.endpoints();
        let prev = self.adj.entry(u).or_default().insert(v, value);
        self.adj.entry(v).or_default().insert(u, value);
        if prev.is_none() {
            self.num_edges += 1;
        }
        prev
    }

    /// Removes `edge`, returning its value if it was present. Nodes whose
    /// last incident edge is removed are dropped from the node table.
    pub fn remove(&mut self, edge: Edge) -> Option<V> {
        let (u, v) = edge.endpoints();
        let value = match self.adj.get_mut(&u) {
            Some(nbrs) => nbrs.remove(&v)?,
            None => return None,
        };
        if self.adj.get(&u).is_some_and(FxHashMap::is_empty) {
            self.adj.remove(&u);
        }
        if let Some(nbrs) = self.adj.get_mut(&v) {
            nbrs.remove(&u);
            if nbrs.is_empty() {
                self.adj.remove(&v);
            }
        }
        self.num_edges -= 1;
        Some(value)
    }

    /// Returns `true` if `edge` is present.
    #[inline]
    pub fn contains(&self, edge: Edge) -> bool {
        self.get(edge).is_some()
    }

    /// Returns the value stored on `edge`, if present.
    #[inline]
    pub fn get(&self, edge: Edge) -> Option<V> {
        self.adj
            .get(&edge.u())
            .and_then(|nbrs| nbrs.get(&edge.v()))
            .copied()
    }

    /// Replaces the value on an existing edge; returns `false` if the edge is
    /// absent.
    pub fn set(&mut self, edge: Edge, value: V) -> bool {
        let (u, v) = edge.endpoints();
        let Some(slot) = self.adj.get_mut(&u).and_then(|n| n.get_mut(&v)) else {
            return false;
        };
        *slot = value;
        let other = self
            .adj
            .get_mut(&v)
            .and_then(|n| n.get_mut(&u))
            .expect("edge stored on one side only");
        *other = value;
        true
    }

    /// Degree of `node` (0 if unknown).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj.get(&node).map_or(0, FxHashMap::len)
    }

    /// Iterates over the neighbors of `node` together with the value on the
    /// connecting edge.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, V)> + '_ {
        self.adj
            .get(&node)
            .into_iter()
            .flat_map(|nbrs| nbrs.iter().map(|(&n, &v)| (n, v)))
    }

    /// Iterates over all nodes with at least one incident edge.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adj.keys().copied()
    }

    /// Iterates over every edge exactly once (via its normalized
    /// orientation) together with its value.
    pub fn edges(&self) -> impl Iterator<Item = (Edge, V)> + '_ {
        self.adj.iter().flat_map(|(&u, nbrs)| {
            nbrs.iter()
                .filter(move |(&n, _)| u < n)
                .map(move |(&n, &val)| (Edge::new(u, n), val))
        })
    }

    /// Calls `f(w, value_uw, value_vw)` for every common neighbor `w` of `u`
    /// and `v`, iterating the smaller neighborhood and probing the larger.
    ///
    /// This is the workhorse of triangle-weight computation: for an arriving
    /// edge `k = (u, v)` the number of calls equals `|△̂(k)|`, the number of
    /// sampled triangles `k` would complete.
    #[inline]
    pub fn for_each_common_neighbor<F>(&self, u: NodeId, v: NodeId, mut f: F)
    where
        F: FnMut(NodeId, V, V),
    {
        let (Some(nu), Some(nv)) = (self.adj.get(&u), self.adj.get(&v)) else {
            return;
        };
        Self::intersect_maps(nu, nv, &mut f);
    }

    /// The intersection kernel shared by
    /// [`AdjacencyMap::for_each_common_neighbor`] and
    /// [`AdjacencyMap::for_each_completion`]: `f(w, value_uw, value_vw)`
    /// per common key of `u`'s neighbor map `nu` and `v`'s `nv`, iterating
    /// the smaller map and probing the larger.
    fn intersect_maps<F>(nu: &FxHashMap<NodeId, V>, nv: &FxHashMap<NodeId, V>, f: &mut F)
    where
        F: FnMut(NodeId, V, V),
    {
        let (small, large) = if nu.len() <= nv.len() {
            (nu, nv)
        } else {
            (nv, nu)
        };
        let small_is_u = std::ptr::eq(small, nu);
        for (&w, &val_small) in small {
            if let Some(&val_large) = large.get(&w) {
                if small_is_u {
                    f(w, val_small, val_large);
                } else {
                    f(w, val_large, val_small);
                }
            }
        }
    }

    /// Fused completion walk (API parity with
    /// `CompactAdjacency::for_each_completion`): one resolution per
    /// endpoint, then `tri(w, value_uw, value_vw)` per common neighbor and
    /// `wedge(value)` per edge incident to `u` excluding `(u, v)`, then per
    /// edge incident to `v` likewise.
    pub fn for_each_completion<FT, FW>(&self, u: NodeId, v: NodeId, mut tri: FT, mut wedge: FW)
    where
        FT: FnMut(NodeId, V, V),
        FW: FnMut(V),
    {
        match (self.adj.get(&u), self.adj.get(&v)) {
            (Some(nu), Some(nv)) => {
                Self::intersect_maps(nu, nv, &mut tri);
                for (&n, &val) in nu {
                    if n != v {
                        wedge(val);
                    }
                }
                for (&n, &val) in nv {
                    if n != u {
                        wedge(val);
                    }
                }
            }
            // One endpoint absent: the edge (u, v) cannot be present, so no
            // exclusion check is needed on the surviving list.
            (Some(n), None) | (None, Some(n)) => {
                for &val in n.values() {
                    wedge(val);
                }
            }
            (None, None) => {}
        }
    }

    /// Number of common neighbors of `u` and `v` — i.e. the number of
    /// triangles an edge `(u, v)` closes in the current graph.
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let mut count = 0;
        self.for_each_common_neighbor(u, v, |_, _, _| count += 1);
        count
    }

    /// Fused per-edge topology query (API parity with
    /// `CompactAdjacency::triad_counts`): `(common_neighbors,
    /// degree(u) + degree(v), edge_present)`.
    pub fn triad_counts(&self, u: NodeId, v: NodeId) -> (usize, usize, bool) {
        (
            self.common_neighbor_count(u, v),
            self.degree(u) + self.degree(v),
            self.contains(Edge::new(u, v)),
        )
    }

    /// Fused `(common_neighbors, edge_present)` query (API parity with
    /// `CompactAdjacency::triangle_closure_counts`). Composes the two
    /// original lookups — deliberately no extra degree probes, so this map
    /// stays a faithful pre-refactor cost model when benchmarked.
    pub fn triangle_closure_counts(&self, u: NodeId, v: NodeId) -> (usize, bool) {
        (
            self.common_neighbor_count(u, v),
            self.contains(Edge::new(u, v)),
        )
    }

    /// Fused degree-sum + presence query (API parity with
    /// `CompactAdjacency::wedge_closure_counts`).
    pub fn wedge_closure_counts(&self, u: NodeId, v: NodeId) -> (usize, bool) {
        (
            self.degree(u) + self.degree(v),
            self.contains(Edge::new(u, v)),
        )
    }

    /// Removes all edges and nodes.
    pub fn clear(&mut self) {
        self.adj.clear();
        self.num_edges = 0;
    }

    /// Collects the node set (mainly for tests / diagnostics).
    pub fn node_set(&self) -> FxHashSet<NodeId> {
        self.adj.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> AdjacencyMap<u32> {
        let mut g = AdjacencyMap::new();
        g.insert(Edge::new(1, 2), 10);
        g.insert(Edge::new(2, 3), 20);
        g.insert(Edge::new(1, 3), 30);
        g
    }

    #[test]
    fn insert_is_idempotent_on_edge_count() {
        let mut g = AdjacencyMap::new();
        assert_eq!(g.insert(Edge::new(1, 2), 7), None);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(
            g.insert(Edge::new(2, 1), 8),
            Some(7),
            "reinsert replaces value"
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.get(Edge::new(1, 2)), Some(8));
    }

    #[test]
    fn remove_returns_value_and_prunes_nodes() {
        let mut g = triangle_graph();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.remove(Edge::new(2, 3)), Some(20));
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 3, "2 and 3 still touch edges to 1");
        assert_eq!(g.remove(Edge::new(1, 2)), Some(10));
        assert_eq!(g.remove(Edge::new(1, 3)), Some(30));
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.remove(Edge::new(1, 3)), None);
    }

    #[test]
    fn degree_and_neighbors() {
        let g = triangle_graph();
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(99), 0);
        let mut nbrs: Vec<(NodeId, u32)> = g.neighbors(1).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![(2, 10), (3, 30)]);
        assert_eq!(g.neighbors(42).count(), 0);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle_graph();
        let mut edges: Vec<Edge> = g.edges().map(|(e, _)| e).collect();
        edges.sort();
        assert_eq!(
            edges,
            vec![Edge::new(1, 2), Edge::new(1, 3), Edge::new(2, 3)]
        );
    }

    #[test]
    fn common_neighbors_orients_values_correctly() {
        let g = triangle_graph();
        // Common neighbor of (1, 2) is 3: value on (1,3) = 30, value on (2,3) = 20.
        let mut seen = vec![];
        g.for_each_common_neighbor(1, 2, |w, vu, vv| seen.push((w, vu, vv)));
        assert_eq!(seen, vec![(3, 30, 20)]);

        // And in the reverse argument order the values swap.
        let mut seen = vec![];
        g.for_each_common_neighbor(2, 1, |w, vu, vv| seen.push((w, vu, vv)));
        assert_eq!(seen, vec![(3, 20, 30)]);
    }

    #[test]
    fn common_neighbor_count_on_book_graph() {
        // "Book" graph: triangle (1,2,3) plus pendant 4-1, and edge (2,4)
        // making a second triangle (1,2,4).
        let mut g = triangle_graph();
        g.insert(Edge::new(1, 4), 40);
        g.insert(Edge::new(2, 4), 50);
        assert_eq!(g.common_neighbor_count(1, 2), 2); // 3 and 4
        assert_eq!(g.common_neighbor_count(3, 4), 2); // 1 and 2 (no edge 3-4 needed)
        assert_eq!(g.common_neighbor_count(1, 99), 0);
    }

    #[test]
    fn set_updates_both_directions() {
        let mut g = triangle_graph();
        assert!(g.set(Edge::new(3, 2), 99));
        assert_eq!(g.get(Edge::new(2, 3)), Some(99));
        // Value visible from both endpoints' neighbor lists.
        assert_eq!(g.neighbors(2).find(|&(n, _)| n == 3), Some((3, 99)));
        assert_eq!(g.neighbors(3).find(|&(n, _)| n == 2), Some((2, 99)));
        assert!(!g.set(Edge::new(5, 6), 1));
    }

    #[test]
    fn clear_resets() {
        let mut g = triangle_graph();
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.num_nodes(), 0);
    }
}
