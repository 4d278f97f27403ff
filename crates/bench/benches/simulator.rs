//! Simulator benchmarks: packets per wall-clock second when executing the
//! compiled NAT fast path (the substrate behind the E4 throughput sweep).

use criterion::{criterion_group, criterion_main, Criterion};
use nova::CompileConfig;
use std::time::Duration;

fn packet_rate(c: &mut Criterion) {
    let out = bench::compile(bench::Benchmark::Nat, &CompileConfig::default());
    let mut g = c.benchmark_group("simulator");
    g.sample_size(20);
    g.measurement_time(Duration::from_secs(10));
    g.bench_function("nat-64pkt-64B", |b| {
        b.iter(|| {
            let res = bench::run_chip_throughput(bench::Benchmark::Nat, &out, 64, 64, 1, 4);
            std::hint::black_box(res.cycles)
        })
    });
    g.finish();
}

criterion_group!(benches, packet_rate);
criterion_main!(benches);
