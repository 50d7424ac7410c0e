//! Holme–Kim power-law graphs with tunable clustering.

use gps_graph::types::{Edge, NodeId};
use gps_graph::CompactAdjacency;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a Holme–Kim "power-law cluster" graph: Barabási–Albert growth
/// where, after each preferential-attachment step, a *triad formation* step
/// fires with probability `triad_p` and connects the new node to a random
/// neighbor of the node it just attached to — closing a triangle.
///
/// This is the stand-in for the paper's high-clustering social graphs
/// (ca-hollywood-2009 α≈0.31, socfb-* α≈0.10): `triad_p` directly dials the
/// global clustering coefficient while keeping the BA degree tail.
///
/// The growing graph lives in a [`CompactAdjacency`] — the same store as
/// the samplers it feeds: the triad step's uniform-neighbor draw is O(1)
/// slice indexing, and duplicate suppression is answered by the
/// adjacency's own membership check on insert (no separate hash-set
/// accumulator). Output is fully deterministic in the seed; which graph a
/// seed yields also depends on the store's neighbor order, so a change to
/// that order changes every seeded Holme–Kim stream.
///
/// # Panics
/// Panics if `n <= m_per_node`, `m_per_node == 0`, or `triad_p ∉ [0, 1]`.
pub fn holme_kim(n: NodeId, m_per_node: usize, triad_p: f64, seed: u64) -> Vec<Edge> {
    assert!(m_per_node >= 1);
    assert!(
        (n as usize) > m_per_node,
        "need more nodes than edges per node"
    );
    assert!(
        (0.0..=1.0).contains(&triad_p),
        "triad_p must be a probability"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let m0 = m_per_node + 1;
    let expected_edges = m0 * (m0 - 1) / 2 + (n as usize - m0) * m_per_node;
    let mut edges: Vec<Edge> = Vec::with_capacity(expected_edges);
    let mut graph: CompactAdjacency<()> =
        CompactAdjacency::with_capacity(n as usize, expected_edges);
    let mut stubs: Vec<NodeId> = Vec::with_capacity(expected_edges * 2);

    // Dedup against the growing adjacency itself: `insert` answers "was it
    // new?" from the endpoint's own neighbor list, replacing the separate
    // hash-set accumulator the other generators use.
    let add = |edges: &mut Vec<Edge>,
               graph: &mut CompactAdjacency<()>,
               stubs: &mut Vec<NodeId>,
               e: Edge|
     -> bool {
        if graph.insert(e, ()).is_none() {
            edges.push(e);
            stubs.push(e.u());
            stubs.push(e.v());
            true
        } else {
            false
        }
    };

    for a in 0..m0 as NodeId {
        for b in (a + 1)..m0 as NodeId {
            add(&mut edges, &mut graph, &mut stubs, Edge::new(a, b));
        }
    }

    for v in m0 as NodeId..n {
        let mut last_attached: Option<NodeId> = None;
        let mut added = 0usize;
        // Cap attempts: in pathological corners (tiny graphs) both PA and
        // triad steps can keep hitting existing edges.
        let mut attempts = 0usize;
        while added < m_per_node && attempts < 50 * m_per_node {
            attempts += 1;
            let use_triad = last_attached.is_some() && rng.random::<f64>() < triad_p;
            let target = if use_triad {
                // Triad formation: random neighbor of the last attachee.
                let anchor = last_attached.unwrap();
                let neighbors = graph.neighbor_slice(anchor);
                neighbors[rng.random_range(0..neighbors.len())].0
            } else {
                stubs[rng.random_range(0..stubs.len())]
            };
            if target == v {
                continue;
            }
            let e = Edge::new(v, target);
            if add(&mut edges, &mut graph, &mut stubs, e) {
                added += 1;
                last_attached = Some(target);
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_simple;
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::degrees::DegreeStats;
    use gps_graph::exact;

    #[test]
    fn simple_and_roughly_sized() {
        let edges = holme_kim(1000, 3, 0.5, 7);
        assert_simple(&edges);
        // All but boundary-case retries should land: ≥ 95% of nominal.
        let nominal = 6 + 997 * 3;
        assert!(
            edges.len() >= nominal * 95 / 100,
            "got {} of {nominal}",
            edges.len()
        );
    }

    #[test]
    fn triad_probability_raises_clustering() {
        let low = holme_kim(4000, 3, 0.0, 13);
        let high = holme_kim(4000, 3, 0.9, 13);
        let a_low = exact::global_clustering(&CsrGraph::from_edges(&low));
        let a_high = exact::global_clustering(&CsrGraph::from_edges(&high));
        assert!(
            a_high > 2.0 * a_low,
            "triad formation should raise clustering: {a_low} vs {a_high}"
        );
        assert!(
            a_high > 0.1,
            "high triad_p should give strong clustering, got {a_high}"
        );
    }

    #[test]
    fn keeps_heavy_tail() {
        let edges = holme_kim(3000, 2, 0.6, 3);
        let stats = DegreeStats::of(&CsrGraph::from_edges(&edges));
        assert!(stats.is_heavy_tailed());
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(holme_kim(500, 2, 0.5, 1), holme_kim(500, 2, 0.5, 1));
        assert_ne!(holme_kim(500, 2, 0.5, 1), holme_kim(500, 2, 0.5, 2));
    }

    #[test]
    fn seeded_output_is_pinned() {
        // FNV-1a over the edge sequence: any change to the draw order or
        // to the adjacency's neighbor order shows up here.
        let edges = holme_kim(400, 3, 0.5, 9);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in &edges {
            for x in [e.u(), e.v()] {
                h = (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!((edges.len(), h), (1194, 0x02fd_3d0d_fc09_fc21));
    }
}
