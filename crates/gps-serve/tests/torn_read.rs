//! Torn-read stress over the public serving API: reader threads hammer a
//! `QueryHandle` while the engine ingests, asserting the invariants the
//! `EpochCell` seqlock and the board gate guarantee — no epoch is ever
//! internally inconsistent, versions and watermarks are monotone per
//! reader, and estimates are always finite.
//!
//! This is the CI sanitizer target: `cargo miri test -p gps-serve --test
//! torn_read` checks the same protocol the gps-analyze interleaving models
//! verify, but against the *real* atomics under Miri's weak-memory
//! machinery (and under ThreadSanitizer in the nightly job). Iteration
//! counts scale down under Miri, where each interleaving costs orders of
//! magnitude more than native.

use gps_core::weights::TriangleWeight;
use gps_graph::types::Edge;
use gps_serve::{EstimateEpoch, ServeEngine};
use std::time::Duration;

fn clique_edges(n: u32) -> Vec<Edge> {
    let mut edges = vec![];
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push(Edge::new(u, v));
        }
    }
    edges
}

/// Stream size and reader count shrink under Miri.
fn scale() -> (u32, usize) {
    if cfg!(miri) {
        (12, 2)
    } else {
        (60, 4)
    }
}

#[test]
fn concurrent_queries_never_observe_torn_epochs() {
    let (n, readers) = scale();
    let edges = clique_edges(n);
    let total = edges.len() as u64;
    let mut serve = ServeEngine::new(64, TriangleWeight::default(), 97, 2);
    let threads: Vec<_> = (0..readers)
        .map(|_| {
            let handle = serve.handle();
            std::thread::spawn(move || {
                let (mut last_v, mut last_w, mut reads) = (0u64, 0u64, 0u64);
                // Checks one observed epoch; true once it is the final one.
                let mut check = |e: EstimateEpoch| {
                    // A torn read would mix words from two epochs: version
                    // or watermark regressing, or a non-finite estimate
                    // decoded from mismatched halves.
                    assert!(e.version >= last_v, "version regressed");
                    assert!(e.edges_seen >= last_w, "watermark regressed");
                    assert!(
                        e.estimates.triangles.value.is_finite()
                            && e.estimates.triangles.variance.is_finite(),
                        "non-finite estimate decoded"
                    );
                    assert!(e.edges_seen <= total, "watermark beyond the stream");
                    last_v = e.version;
                    last_w = e.edges_seen;
                    reads += 1;
                    e.edges_seen == total
                };
                // Read until the final watermark is observed, so every
                // reader reads at least once however the threads race
                // the ingest.
                loop {
                    if handle.latest().is_some_and(&mut check) {
                        break;
                    }
                    if handle.is_closed() {
                        // Ingest is over: the final epoch is published or
                        // missing, and the bounded wait turns a missing
                        // one into a failure instead of a hang.
                        let last = handle
                            .wait_for_edges_timeout(total, Duration::from_secs(30))
                            .expect("final epoch never published");
                        assert!(check(last), "final epoch below the stream");
                        break;
                    }
                    std::thread::yield_now();
                }
                reads
            })
        })
        .collect();
    for chunk in edges.chunks(7) {
        serve.push_batch(chunk);
    }
    serve.finish();
    let reads: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(reads > 0, "readers never saw an epoch");
    let last = serve.handle().latest().expect("final epoch");
    assert_eq!(last.edges_seen, edges.len() as u64);
}

#[test]
fn subscription_stream_is_gap_free_and_consistent() {
    let (n, _) = scale();
    let edges = clique_edges(n);
    let mut serve = ServeEngine::new(64, TriangleWeight::default(), 5, 2);
    let handle = serve.handle();
    let mut sub = handle.subscribe().expect("live engine");
    let collector = std::thread::spawn(move || {
        let mut last_v = 0u64;
        let mut count = 0u64;
        while let Some(e) = sub.recv() {
            assert!(e.version > last_v, "subscription replayed or regressed");
            assert!(e.estimates.triangles.value.is_finite());
            last_v = e.version;
            count += 1;
        }
        count
    });
    for chunk in edges.chunks(5) {
        serve.push_batch(chunk);
    }
    serve.finish();
    let delivered = collector.join().unwrap();
    assert!(delivered > 0, "no epochs delivered");
}
