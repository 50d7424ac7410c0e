//! Topology weights against a shadow-adjacency oracle.
//!
//! The sampler answers its weight queries from `CompactAdjacency`. These
//! properties rebuild the sampled topology in the simple reference
//! [`AdjacencyMap`] from `GpsSampler::edges()` and check that every
//! arrival's weight is the one the weight function's public coefficients
//! give for the oracle's counts: triangles closed `|Γ̂(u) ∩ Γ̂(v)|` and
//! wedges closed `deĝ(u) + deĝ(v)`. Capacities sit well below the stream
//! length, so the checks run while the reservoir evicts — the hinted
//! remove path, node-slot reuse and spill-block churn all feed the
//! counts the next arrival is weighed against.

use gps_core::weights::{EdgeWeight, TriadWeight, TriangleWeight, UniformWeight, WedgeWeight};
use gps_core::{Arrival, GpsSampler};
use gps_graph::types::Edge;
use gps_graph::AdjacencyMap;
use gps_stream::{gen, permuted};
use proptest::prelude::*;

/// Random edge stream (duplicates intentionally allowed: the duplicate
/// skip must agree with the oracle's membership too).
fn arb_stream(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(a, b)| Edge::try_new(a, b))
            .collect()
    })
}

fn oracle_of<W: EdgeWeight>(sampler: &GpsSampler<W>) -> AdjacencyMap<()> {
    let mut oracle = AdjacencyMap::new();
    for s in sampler.edges() {
        oracle.insert(s.edge, ());
    }
    oracle
}

fn triangles(oracle: &AdjacencyMap<()>, e: Edge) -> f64 {
    oracle.common_neighbor_count(e.u(), e.v()) as f64
}

fn wedges(oracle: &AdjacencyMap<()>, e: Edge) -> f64 {
    (oracle.degree(e.u()) + oracle.degree(e.v())) as f64
}

fn triangle_rule(w: TriangleWeight) -> impl Fn(&AdjacencyMap<()>, Edge) -> f64 {
    move |g, e| w.coefficient * triangles(g, e) + w.floor
}

fn wedge_rule(w: WedgeWeight) -> impl Fn(&AdjacencyMap<()>, Edge) -> f64 {
    move |g, e| w.coefficient * wedges(g, e) + w.floor
}

fn triad_rule(w: TriadWeight) -> impl Fn(&AdjacencyMap<()>, Edge) -> f64 {
    move |g, e| {
        w.triangle_coefficient * triangles(g, e) + w.wedge_coefficient * wedges(g, e) + w.floor
    }
}

/// Streams `stream` through a sampler and checks every non-duplicate
/// arrival's weight — and, when admitted, its stored weight — against
/// `rule` evaluated on the oracle. The oracle is rebuilt from
/// `sampler.edges()` before every `rebuild_every`-th arrival and shadowed
/// from the arrival outcomes in between.
fn check_weights<W: EdgeWeight>(
    stream: &[Edge],
    capacity: usize,
    weight_fn: W,
    seed: u64,
    rule: impl Fn(&AdjacencyMap<()>, Edge) -> f64,
    rebuild_every: usize,
) {
    let mut sampler = GpsSampler::new(capacity, weight_fn, seed);
    let mut oracle = AdjacencyMap::new();
    let mut evictions = 0;
    for (i, &e) in stream.iter().enumerate() {
        if i % rebuild_every == 0 {
            oracle = oracle_of(&sampler);
        }
        let want = rule(&oracle, e);
        let present = oracle.contains(e);
        let (weight, admitted) = match sampler.process(e) {
            Arrival::Duplicate => {
                assert!(present, "arrival {i} ({e}) skipped but not sampled");
                continue;
            }
            Arrival::Rejected { weight } => (weight, false),
            Arrival::Inserted { weight } => (weight, true),
            Arrival::Replaced { weight, evicted } => {
                assert!(
                    oracle.remove(evicted).is_some(),
                    "evicted {evicted} not sampled"
                );
                evictions += 1;
                (weight, true)
            }
        };
        assert!(!present, "arrival {i} ({e}) is sampled but was not skipped");
        assert_eq!(weight.to_bits(), want.to_bits(), "arrival {i} ({e}) weight");
        if admitted {
            let stored = sampler
                .view()
                .weight_of(e)
                .expect("admitted edge is sampled");
            assert_eq!(
                stored.to_bits(),
                want.to_bits(),
                "arrival {i} ({e}) stored weight"
            );
            oracle.insert(e, ());
        }
    }
    let mut shadow: Vec<Edge> = oracle.edges().map(|(e, _)| e).collect();
    let mut sampled: Vec<Edge> = sampler.edges().map(|s| s.edge).collect();
    shadow.sort_unstable();
    sampled.sort_unstable();
    assert_eq!(shadow, sampled, "shadow diverged from the reservoir");
    if stream.len() >= 4 * capacity {
        assert!(evictions > 0, "no eviction pressure");
    }
}

proptest! {
    #[test]
    fn triangle_weight_matches_oracle_counts(
        stream in arb_stream(12, 400),
        capacity in 1usize..48,
        coefficient in 0.5f64..20.0,
        seed in any::<u64>(),
    ) {
        let w = TriangleWeight { coefficient, floor: 1.0 };
        check_weights(&stream, capacity, w, seed, triangle_rule(w), 1);
    }

    #[test]
    fn triad_weight_matches_oracle_counts(
        stream in arb_stream(16, 250),
        capacity in 1usize..24,
        seed in any::<u64>(),
    ) {
        let w = TriadWeight::default();
        check_weights(&stream, capacity, w, seed, triad_rule(w), 1);
    }

    #[test]
    fn uniform_and_wedge_weights_match_oracle_counts(
        stream in arb_stream(32, 300),
        capacity in 1usize..32,
        seed in any::<u64>(),
    ) {
        check_weights(&stream, capacity, UniformWeight, seed, |_, _| 1.0, 1);
        let w = WedgeWeight::default();
        check_weights(&stream, capacity, w, seed, wedge_rule(w), 1);
    }
}

#[test]
fn holme_kim_stream_weights_match_oracle_at_scale() {
    // A clustered stream large enough to force evictions, node slot reuse,
    // spill-block churn and the binary-search intersection arm.
    let edges = permuted(&gen::holme_kim(3_000, 4, 0.6, 11), 5);
    assert!(edges.len() > 10_000);
    let w = TriangleWeight::default();
    check_weights(&edges, 1_500, w, 42, triangle_rule(w), 64);
}

#[test]
fn rmat_stream_weights_match_oracle_with_hubs() {
    // R-MAT's skewed degrees produce hubs whose sampled degree blows past
    // every inline/linear-probe threshold.
    let edges = permuted(&gen::rmat(12, 20_000, gen::RmatParams::social(), 3), 9);
    let w = TriadWeight::default();
    check_weights(&edges, 2_000, w, 7, triad_rule(w), 64);
}
