//! Criterion bench for the Figure 6 pipeline: k-shortest-path MPTCP
//! steady-state allocation vs the LP baselines at a tiny scale.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use ft_bench::experiments::common;
use mcf::greedy::max_total_flow;
use topology::ClosParams;
use traffic::patterns::permutation;

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(ClosParams::mini());
    let inst = common::instance(&ft, PodMode::Global);
    let pairs = permutation(inst.net.num_servers(), 1);
    c.bench_function("fig6/mptcp_rates_k8", |b| {
        b.iter(|| {
            common::mptcp_rates(
                &inst.net,
                &pairs,
                &common::route_table(&inst.net, &pairs, 8),
            )
        });
    });
    let coms = common::commodities(&inst.net, &pairs, 10.0);
    c.bench_function("fig6/lp_avg_greedy", |b| {
        b.iter(|| max_total_flow(&inst.net.graph, &coms));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
