//! Per-edge update cost of every estimator at equal stored-edge budgets —
//! the timing half of paper Table 2 as a microbenchmark. Expected shape:
//! MASCOT and TRIEST are cheapest (no weight computation), GPS costs a
//! set-intersection more, NSAMP is slowest (O(r) per edge without bulk
//! processing, as the paper observes).
//!
//! Every store-based estimator holds the same `CompactAdjacency` as GPS,
//! so a slow baseline cannot be blamed on its data structure.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gps_baselines::{
    JhaWedgeSampler, Mascot, NSamp, NSampBulk, TriangleEstimator, TriestBase, TriestImpr,
    UniformReservoir,
};
use gps_bench::adapters::{GpsInStream, GpsPost};
use gps_stream::{gen, permuted};

fn bench_baselines(c: &mut Criterion) {
    let edges = permuted(&gen::holme_kim(20_000, 3, 0.5, 9), 4);
    let m = 4_000;
    let p = m as f64 / edges.len() as f64;

    let mut group = c.benchmark_group("baseline_updates");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    macro_rules! bench_est {
        ($label:expr, $make:expr) => {
            group.bench_function($label, |b| {
                b.iter_batched(
                    || $make,
                    |mut est| {
                        for &e in &edges {
                            est.process(e);
                        }
                        est.stored_edges()
                    },
                    BatchSize::LargeInput,
                )
            });
        };
    }

    bench_est!("triest_base", TriestBase::new(m, 1));
    bench_est!("triest_impr", TriestImpr::new(m, 1));
    bench_est!("mascot", Mascot::new(p, 1));
    bench_est!("jha_wedge", JhaWedgeSampler::new(m, m / 8, 1));
    bench_est!("uniform_reservoir", UniformReservoir::new(m, 1));
    bench_est!("gps_post", GpsPost::new(m, 1));
    bench_est!("gps_in_stream", GpsInStream::new(m, 1));
    bench_est!("nsamp_r512", NSamp::new(512, 1));
    bench_est!("nsamp_bulk_r512", NSampBulk::new(512, 1));
    bench_est!("nsamp_bulk_r4096", NSampBulk::new(4096, 1));

    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
