//! Criterion bench for the Figure 7 pipeline: per-flow throughput
//! distributions of MPTCP on topo-1-style traffic.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use ft_bench::experiments::common;
use ft_bench::report::summary;
use topology::ClosParams;
use traffic::patterns::clustered_all_to_all;

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(ClosParams::mini());
    let inst = common::instance(&ft, PodMode::Global);
    let pairs = clustered_all_to_all(inst.net.num_servers(), 8);
    c.bench_function("fig7/throughput_distribution", |b| {
        b.iter(|| {
            let rates = common::mptcp_rates(
                &inst.net,
                &pairs,
                &common::route_table(&inst.net, &pairs, 8),
            );
            summary(&rates)
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
