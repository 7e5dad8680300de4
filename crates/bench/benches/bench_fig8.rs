//! Criterion bench for the Figure 8 pipeline: trace synthesis + fluid FCT
//! simulation on a small flat-tree.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use flowsim::{run, RunOpts, SimConfig, Transport};
use ft_bench::experiments::common;
use topology::ClosParams;
use traffic::traces::TraceParams;

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(ClosParams::mini());
    let inst = common::instance(&ft, PodMode::Global);
    let mut params = TraceParams::web(64, 4, 16, 1);
    params.duration_s = 0.1;
    let trace = params.generate();
    let flows: Vec<flowsim::FlowSpec> = trace
        .flows
        .iter()
        .map(|f| flowsim::FlowSpec {
            id: f.id,
            src: inst.net.servers[f.src],
            dst: inst.net.servers[f.dst],
            bytes: f.bytes,
            start: f.start,
        })
        .collect();
    c.bench_function("fig8/fct_simulation_web_mini", |b| {
        b.iter(|| {
            let cfg = SimConfig {
                transport: Transport::Mptcp {
                    k: 8,
                    coupled: true,
                },
                ..SimConfig::default()
            };
            run(&inst.net.graph, &flows, &cfg, RunOpts::default())
                .expect("valid workload")
                .result
                .mean_fct()
        });
    });
    c.bench_function("fig8/trace_synthesis", |b| {
        b.iter(|| params.generate().flows.len());
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
