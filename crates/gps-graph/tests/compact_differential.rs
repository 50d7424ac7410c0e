//! Differential property tests: [`CompactAdjacency`] against the
//! [`AdjacencyMap`] oracle under random edit sequences.
//!
//! Every sampler holds the compact store, so any observable divergence
//! from the map is a sampler-corrupting bug. Every property drives both
//! structures through the same operations and compares every return value
//! plus full observable state (degrees, neighbor sets, edge sets,
//! common-neighbor and completion enumeration with value orientation).

use gps_graph::types::{Edge, NodeId};
use gps_graph::{AdjacencyMap, CompactAdjacency, EdgeHints, FxHashMap};
use proptest::prelude::*;

/// A random edit operation over a small node universe.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(Edge, u32),
    Remove(Edge),
    Set(Edge, u32),
}

/// Strategy: a sequence of ops over `max_n` nodes. Insert is weighted
/// heaviest so graphs actually grow; remove/set target the same universe so
/// they hit both present and absent edges.
fn arb_ops(max_n: NodeId, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..6, 0..max_n, 0..max_n, any::<u32>()), 0..max_len).prop_map(|raw| {
        raw.into_iter()
            .filter_map(|(kind, a, b, val)| {
                let edge = Edge::try_new(a, b)?;
                Some(match kind {
                    0..=2 => Op::Insert(edge, val),
                    3 | 4 => Op::Remove(edge),
                    _ => Op::Set(edge, val),
                })
            })
            .collect()
    })
}

/// Asserts full observable equivalence of the two structures.
fn assert_equivalent(compact: &CompactAdjacency<u32>, oracle: &AdjacencyMap<u32>, max_n: NodeId) {
    assert_eq!(compact.num_edges(), oracle.num_edges());
    assert_eq!(compact.num_nodes(), oracle.num_nodes());
    assert_eq!(compact.is_empty(), oracle.is_empty());
    assert_eq!(compact.node_set(), oracle.node_set());

    let mut ce: Vec<(Edge, u32)> = compact.edges().collect();
    let mut oe: Vec<(Edge, u32)> = oracle.edges().collect();
    ce.sort_unstable();
    oe.sort_unstable();
    assert_eq!(ce, oe, "edge sets diverged");

    for node in 0..max_n {
        assert_eq!(compact.degree(node), oracle.degree(node), "degree({node})");
        let mut cn: Vec<(NodeId, u32)> = compact.neighbors(node).collect();
        let mut on: Vec<(NodeId, u32)> = oracle.neighbors(node).collect();
        cn.sort_unstable();
        on.sort_unstable();
        assert_eq!(cn, on, "neighbors({node})");
    }

    // Common-neighbor enumeration must agree as a set, including the value
    // orientation (first value = edge to the first argument).
    for u in 0..max_n {
        for v in (u + 1)..max_n {
            let mut cc: Vec<(NodeId, u32, u32)> = vec![];
            compact.for_each_common_neighbor(u, v, |w, vu, vv| cc.push((w, vu, vv)));
            let mut oc: Vec<(NodeId, u32, u32)> = vec![];
            oracle.for_each_common_neighbor(u, v, |w, vu, vv| oc.push((w, vu, vv)));
            cc.sort_unstable();
            oc.sort_unstable();
            assert_eq!(cc, oc, "common neighbors of ({u}, {v})");
            assert_eq!(
                compact.common_neighbor_count(u, v),
                oracle.common_neighbor_count(u, v)
            );
            assert_eq!(
                compact.triad_counts(u, v),
                oracle.triad_counts(u, v),
                "triad_counts({u}, {v})"
            );
            assert_eq!(
                compact.wedge_closure_counts(u, v),
                oracle.wedge_closure_counts(u, v),
                "wedge_closure_counts({u}, {v})"
            );
        }
    }

    // The fused completion walk must agree in both argument orders.
    for u in 0..max_n {
        for v in (0..max_n).filter(|&v| v != u) {
            assert_eq!(
                completions(|t, w| compact.for_each_completion(u, v, t, w)),
                completions(|t, w| oracle.for_each_completion(u, v, t, w)),
                "for_each_completion({u}, {v})"
            );
        }
    }
}

/// Triangle and wedge callbacks of one completion walk, each as a sorted
/// multiset (the two stores enumerate in different orders).
type Completions = (Vec<(NodeId, u32, u32)>, Vec<u32>);

fn completions<F>(walk: F) -> Completions
where
    F: FnOnce(&mut dyn FnMut(NodeId, u32, u32), &mut dyn FnMut(u32)),
{
    let (mut tri, mut wedge) = (vec![], vec![]);
    walk(&mut |w, vu, vv| tri.push((w, vu, vv)), &mut |x| {
        wedge.push(x)
    });
    tri.sort_unstable();
    wedge.sort_unstable();
    (tri, wedge)
}

proptest! {
    #[test]
    fn random_edit_sequences_match_oracle(ops in arb_ops(16, 200)) {
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    prop_assert_eq!(compact.insert(e, v), oracle.insert(e, v), "insert {}", e);
                }
                Op::Remove(e) => {
                    prop_assert_eq!(compact.remove(e), oracle.remove(e), "remove {}", e);
                }
                Op::Set(e, v) => {
                    prop_assert_eq!(compact.set(e, v), oracle.set(e, v), "set {}", e);
                }
            }
            prop_assert_eq!(compact.num_edges(), oracle.num_edges());
            prop_assert_eq!(compact.num_nodes(), oracle.num_nodes());
            for probe in [Edge::new(0, 1), Edge::new(2, 9), Edge::new(7, 15)] {
                prop_assert_eq!(compact.get(probe), oracle.get(probe));
                prop_assert_eq!(compact.contains(probe), oracle.contains(probe));
            }
        }
        assert_equivalent(&compact, &oracle, 16);
    }

    #[test]
    fn dense_universe_exercises_spill_and_hash_probe(ops in arb_ops(8, 400)) {
        // 8 nodes, up to 28 edges: degrees reach 7, crossing the inline→spill
        // boundary many times as edges churn.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    prop_assert_eq!(compact.insert(e, v), oracle.insert(e, v));
                }
                Op::Remove(e) => {
                    prop_assert_eq!(compact.remove(e), oracle.remove(e));
                }
                Op::Set(e, v) => {
                    prop_assert_eq!(compact.set(e, v), oracle.set(e, v));
                }
            }
        }
        assert_equivalent(&compact, &oracle, 8);
    }

    #[test]
    fn hub_graphs_hit_every_probe_strategy(
        spokes in 1u32..200,
        removals in prop::collection::vec(1u32..200, 0..60),
    ) {
        // Star around node 0 with a rim edge per spoke pair: hub degree
        // crosses both the spill classes and LINEAR_PROBE_MAX, so the
        // common-neighbor kernel runs its hash-probe arm against the oracle.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        let hub = 1000;
        for s in 1..=spokes {
            let e = Edge::new(hub, s);
            compact.insert(e, s);
            oracle.insert(e, s);
            if s > 1 {
                let rim = Edge::new(s - 1, s);
                compact.insert(rim, 500 + s);
                oracle.insert(rim, 500 + s);
            }
        }
        // A second, smaller hub sharing every third spoke: hub–hub
        // intersections exercise the lopsided sorted-vs-sorted kernel arm.
        let hub2 = 2000;
        compact.insert(Edge::new(hub, hub2), 7);
        oracle.insert(Edge::new(hub, hub2), 7);
        for s in (1..=spokes).step_by(3) {
            let e = Edge::new(hub2, s);
            compact.insert(e, 9000 + s);
            oracle.insert(e, 9000 + s);
        }
        let mut ch: Vec<(NodeId, u32, u32)> = vec![];
        compact.for_each_common_neighbor(hub, hub2, |w, a, b| ch.push((w, a, b)));
        let mut oh: Vec<(NodeId, u32, u32)> = vec![];
        oracle.for_each_common_neighbor(hub, hub2, |w, a, b| oh.push((w, a, b)));
        ch.sort_unstable();
        oh.sort_unstable();
        prop_assert_eq!(ch, oh, "hub-hub common neighbors");
        prop_assert_eq!(
            compact.triad_counts(hub, hub2),
            oracle.triad_counts(hub, hub2)
        );
        for &r in &removals {
            let r = (r % spokes) + 1;
            let e = Edge::new(hub, r);
            prop_assert_eq!(compact.remove(e), oracle.remove(e));
        }
        for s in 1..spokes {
            let (u, v) = (s, s + 1);
            let mut cc: Vec<(NodeId, u32, u32)> = vec![];
            compact.for_each_common_neighbor(u, v, |w, vu, vv| cc.push((w, vu, vv)));
            let mut oc: Vec<(NodeId, u32, u32)> = vec![];
            oracle.for_each_common_neighbor(u, v, |w, vu, vv| oc.push((w, vu, vv)));
            cc.sort_unstable();
            oc.sort_unstable();
            prop_assert_eq!(cc, oc, "common neighbors of rim edge ({}, {})", u, v);
        }
        prop_assert_eq!(compact.degree(hub), oracle.degree(hub));
        prop_assert_eq!(compact.num_edges(), oracle.num_edges());
    }
}

proptest! {
    #[test]
    fn triangle_closure_matches_oracle(ops in arb_ops(12, 250)) {
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        for &op in &ops {
            match op {
                Op::Insert(e, v) => {
                    compact.insert(e, v);
                    oracle.insert(e, v);
                }
                Op::Remove(e) => {
                    compact.remove(e);
                    oracle.remove(e);
                }
                Op::Set(e, v) => {
                    compact.set(e, v);
                    oracle.set(e, v);
                }
            }
        }
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                prop_assert_eq!(
                    compact.triangle_closure_counts(u, v),
                    oracle.triangle_closure_counts(u, v),
                    "triangle_closure_counts({}, {})", u, v
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn hinted_insert_and_remove_match_oracle(ops in arb_ops(10, 300)) {
        // The reservoir's own path: insert with hints, keep the hints with
        // the edge, evict through them. A remove of an absent edge passes
        // the hints of the edge's previous life, which are stale by then
        // and must fall back to the id lookup.
        let mut compact: CompactAdjacency<u32> = CompactAdjacency::new();
        let mut oracle: AdjacencyMap<u32> = AdjacencyMap::new();
        let mut hints: FxHashMap<Edge, EdgeHints> = FxHashMap::default();
        for &op in &ops {
            let e = match op {
                Op::Insert(e, v) => {
                    let (prev, h) = compact.insert_with_hints(e, v);
                    prop_assert_eq!(prev, oracle.insert(e, v), "insert {}", e);
                    hints.insert(e, h);
                    e
                }
                Op::Remove(e) => {
                    let h = hints.get(&e).copied().unwrap_or_default();
                    prop_assert_eq!(compact.remove_hinted(e, h), oracle.remove(e), "remove {}", e);
                    e
                }
                Op::Set(e, v) => {
                    prop_assert_eq!(compact.set(e, v), oracle.set(e, v), "set {}", e);
                    e
                }
            };
            // After each step: the edge set, and both touched endpoints'
            // lists and completion walk; the full comparison runs at the end.
            prop_assert_eq!(compact.num_nodes(), oracle.num_nodes());
            let mut ce: Vec<(Edge, u32)> = compact.edges().collect();
            let mut oe: Vec<(Edge, u32)> = oracle.edges().collect();
            ce.sort_unstable();
            oe.sort_unstable();
            prop_assert_eq!(ce, oe, "edge sets diverged after {:?}", op);
            let (u, v) = e.endpoints();
            for node in [u, v] {
                let mut cn: Vec<(NodeId, u32)> = compact.neighbors(node).collect();
                let mut on: Vec<(NodeId, u32)> = oracle.neighbors(node).collect();
                cn.sort_unstable();
                on.sort_unstable();
                prop_assert_eq!(cn, on, "neighbors({}) after {:?}", node, op);
            }
            prop_assert_eq!(
                completions(|t, w| compact.for_each_completion(u, v, t, w)),
                completions(|t, w| oracle.for_each_completion(u, v, t, w)),
                "for_each_completion after {:?}", op
            );
        }
        assert_equivalent(&compact, &oracle, 10);
    }
}
