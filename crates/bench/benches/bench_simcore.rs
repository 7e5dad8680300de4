//! Criterion bench for the simulation engine refactor: the interned-path
//! event loop (`flowsim::run`) against the preserved pre-refactor
//! engine (`flowsim::reference::simulate_reference`) on the same
//! mini-topo-1 permutation workload, with and without a mid-run cable
//! failure. The two produce bit-identical results (pinned by
//! `golden_simresult`); this measures the speedup of path interning, the
//! reusable allocation workspace, and the failure-epoch route cache.

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use flowsim::reference::simulate_reference;
use flowsim::{run, LinkFailure, RunOpts, SimConfig, Transport};
use ft_bench::experiments::common;
use mcf::{AllocWorkspace, IncrementalAllocator};
use netgraph::{Graph, LinkId};
use topology::DcNetwork;

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("switch-switch link")
}

fn workload(net: &DcNetwork, rounds: u64) -> Vec<flowsim::FlowSpec> {
    // Repeated rounds of one permutation with staggered starts: a steady
    // stream of arrival events at moderate concurrency, the regime the
    // experiments (fig8 traces) actually run in.
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

/// Deterministic synthetic groups (8 subflows, 3–5 links each) over a
/// fixed link range, mimicking the engine's MPTCP churn.
fn churn_groups(n_links: usize, n_groups: usize) -> Vec<Vec<Vec<usize>>> {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    };
    (0..n_groups)
        .map(|_| {
            (0..8)
                .map(|_| {
                    let len = 3 + (next() % 3) as usize;
                    (0..len)
                        .map(|_| (next() % n_links as u64) as usize)
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Allocator-level comparison on an arrival/departure churn: the
/// incremental allocator applies each edit and re-allocates, while the
/// from-scratch variant rebuilds an [`AllocWorkspace`] per event — the
/// exact work `connection_rates` used to do inside the engine. Both
/// produce bit-identical rates (pinned by the mcf proptests); this
/// measures the per-event cost gap.
fn bench_alloc_churn(c: &mut Criterion) {
    const LINKS: usize = 768;
    const RESIDENT: usize = 64;
    const STEPS: usize = 256;
    let caps = vec![10.0f64; LINKS];
    let groups = churn_groups(LINKS, RESIDENT + STEPS);
    c.bench_function("simcore/alloc_incremental_churn", |b| {
        b.iter(|| {
            let mut a = IncrementalAllocator::new();
            for g in &groups[..RESIDENT] {
                a.push_group(1.0, g.iter().map(|p| p.iter().copied()));
            }
            a.allocate(&caps);
            let mut acc = 0.0f64;
            for (step, g) in groups[RESIDENT..].iter().enumerate() {
                a.swap_remove_group(step % RESIDENT);
                a.push_group(1.0, g.iter().map(|p| p.iter().copied()));
                a.allocate(&caps);
                acc += a.group_rate_sum(a.group_at(0));
            }
            acc
        });
    });
    c.bench_function("simcore/alloc_workspace_churn", |b| {
        b.iter(|| {
            let mut resident: Vec<&Vec<Vec<usize>>> = groups[..RESIDENT].iter().collect();
            let mut ws = AllocWorkspace::new();
            let mut acc = 0.0f64;
            for (step, g) in groups[RESIDENT..].iter().enumerate() {
                resident.swap_remove(step % RESIDENT);
                resident.push(g);
                for grp in &resident {
                    for path in *grp {
                        ws.push_entity(1.0, path.iter().copied());
                    }
                }
                let rates = ws.allocate(&caps);
                acc += rates[0];
                ws.clear();
            }
            acc
        });
    });
}

fn bench(c: &mut Criterion) {
    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let flows = workload(&net, 6);
    let fail = vec![LinkFailure {
        time: 0.05,
        link: first_cable(&net.graph),
    }];
    let transports = [
        ("ecmp", Transport::TcpEcmp),
        (
            "mptcp8",
            Transport::Mptcp {
                k: 8,
                coupled: true,
            },
        ),
    ];
    for (tname, transport) in transports {
        let cfg = SimConfig {
            transport,
            ..SimConfig::default()
        };
        let cfg_fail = SimConfig {
            link_failures: fail.clone(),
            ..cfg.clone()
        };
        c.bench_function(&format!("simcore/engine_{tname}"), |b| {
            b.iter(|| {
                run(&net.graph, &flows, &cfg, RunOpts::default())
                    .expect("valid workload")
                    .result
                    .end_time
            });
        });
        c.bench_function(&format!("simcore/reference_{tname}"), |b| {
            b.iter(|| simulate_reference(&net.graph, &flows, &cfg).end_time);
        });
        c.bench_function(&format!("simcore/engine_{tname}_failure"), |b| {
            b.iter(|| {
                run(&net.graph, &flows, &cfg_fail, RunOpts::default())
                    .expect("valid workload")
                    .result
                    .end_time
            });
        });
        c.bench_function(&format!("simcore/reference_{tname}_failure"), |b| {
            b.iter(|| simulate_reference(&net.graph, &flows, &cfg_fail).end_time);
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench, bench_alloc_churn
}
criterion_main!(benches);
