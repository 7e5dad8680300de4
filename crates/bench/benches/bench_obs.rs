//! Criterion bench for the observability layer's zero-cost contract:
//! the same engine workload with default options, the no-op sink, an
//! in-memory ring sink, and a JSONL sink writing to a `Vec<u8>`.
//! `obs/noop` must track `obs/untraced` (the < 2% budget pinned in
//! DESIGN.md); the other two show the cost of actually recording.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use flowsim::{
    run, JsonlSink, NoopSink, RingSink, RunOpts, SimConfig, SimResult, TraceSink, Transport,
};
use ft_bench::experiments::common;

fn workload(net: &topology::DcNetwork, rounds: u64) -> Vec<flowsim::FlowSpec> {
    let pairs = traffic::patterns::permutation(net.num_servers(), 11);
    let mut flows = Vec::new();
    for round in 0..rounds {
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let id = round * pairs.len() as u64 + i as u64;
            flows.push(flowsim::FlowSpec {
                id,
                src: net.servers[s],
                dst: net.servers[d],
                bytes: 2.5e7,
                start: id as f64 * 1e-3,
            });
        }
    }
    flows
}

/// A run with `sink` as the only non-default option.
fn traced<S: TraceSink>(
    net: &topology::DcNetwork,
    flows: &[flowsim::FlowSpec],
    cfg: &SimConfig,
    sink: S,
) -> SimResult {
    let opts = RunOpts {
        provider: None,
        faults: None,
        telemetry: None,
        sink,
    };
    run(&net.graph, flows, cfg, opts)
        .expect("valid workload")
        .result
}

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let flows = workload(&net, 4);
    let cfg = SimConfig {
        transport: Transport::TcpEcmp,
        ..SimConfig::default()
    };
    c.bench_function("obs/untraced", |b| {
        b.iter(|| {
            run(&net.graph, &flows, &cfg, RunOpts::default())
                .expect("valid workload")
                .result
                .end_time
        });
    });
    c.bench_function("obs/noop", |b| {
        b.iter(|| traced(&net, &flows, &cfg, &mut NoopSink).end_time);
    });
    c.bench_function("obs/ring", |b| {
        b.iter(|| {
            let mut sink = RingSink::new(4096);
            let out = traced(&net, &flows, &cfg, &mut sink);
            (out.end_time, sink.len())
        });
    });
    c.bench_function("obs/jsonl_vec", |b| {
        b.iter(|| {
            let mut sink = JsonlSink::new(Vec::new());
            let out = traced(&net, &flows, &cfg, &mut sink);
            (out.end_time, sink.written())
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
