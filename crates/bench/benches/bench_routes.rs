//! Criterion bench for the shared route plane: the parallel full-table
//! precompute, one failure set applied to every pair through the
//! failure rule (only footprint-affected pairs re-run Yen), and the failure-epoch simulation that motivated
//! the fix — switch-level splicing under faults against the old
//! server-level re-Yen per server pair (kept here as the oracle
//! provider). All variants are bit-identical in output (pinned by
//! `route_equivalence`); this measures the wall-clock they trade.
//!
//! The `route_plane/ecmp_*` group does the same for ECMP: per-flow
//! route calls over a k=16 fat-tree permutation, the old per-pair
//! enumeration (every equal-cost path built and interned) against the
//! DAG-unranking `EcmpProvider` (pinned equal by `ecmp_unrank`).

use criterion::{criterion_group, criterion_main, Criterion};
use flat_tree::PodMode;
use flowsim::provider::{PathProvider, RoutedConn};
use flowsim::sim::FlowSpec;
use flowsim::{run, FailedLinks, LinkFailure, RunOpts, SimConfig, Transport};
use ft_bench::experiments::common;
use netgraph::{ecmp, yen, Graph, LinkId, NodeId, PathArena, PathId};
use routing::{ksp, RouteTable};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use topology::{fat_tree, DcNetwork};

/// The pre-unranking ECMP provider, fault-free: enumerate the pair's
/// whole equal-cost set, intern every member, hash-select one.
#[derive(Default)]
struct EnumerationOracle {
    cache: HashMap<(NodeId, NodeId), Vec<PathId>>,
}

impl PathProvider for EnumerationOracle {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        _failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        let set = self
            .cache
            .entry((spec.src, spec.dst))
            .or_insert_with(|| arena.intern_all(&ecmp::equal_cost_paths(g, spec.src, spec.dst)));
        let h = ecmp::flow_hash(spec.src, spec.dst, spec.id);
        let chosen = *set.get((h % set.len().max(1) as u64) as usize)?;
        Some(RoutedConn {
            path_ids: vec![chosen],
            subflow_weight: 1.0,
        })
    }
}

/// Routes every flow once through `p` into a fresh arena.
fn route_all(g: &Graph, flows: &[FlowSpec], p: &mut dyn PathProvider) -> usize {
    let mut arena = PathArena::new();
    let failed = FailedLinks::new(g.link_count());
    for f in flows {
        black_box(p.route(g, &mut arena, &failed, f));
    }
    arena.len()
}

/// The pre-fix behavior under failures, as a provider: a from-scratch
/// masked server-level Yen run per server pair, per failure epoch.
struct ServerLevelOracle {
    k: usize,
    cache: HashMap<(netgraph::NodeId, netgraph::NodeId), Option<RoutedConn>>,
    epoch: u64,
}

impl PathProvider for ServerLevelOracle {
    fn route(
        &mut self,
        g: &Graph,
        arena: &mut PathArena,
        failed: &FailedLinks,
        spec: &FlowSpec,
    ) -> Option<RoutedConn> {
        if failed.epoch() != self.epoch {
            self.cache.clear();
            self.epoch = failed.epoch();
        }
        if let Some(hit) = self.cache.get(&(spec.src, spec.dst)) {
            return hit.clone();
        }
        let paths = yen::k_shortest_paths_by(g, spec.src, spec.dst, self.k, |l| {
            if failed.is_down(l) {
                f64::INFINITY
            } else {
                1.0
            }
        });
        let conn = (!paths.is_empty()).then(|| {
            let w = 1.0 / paths.len() as f64;
            RoutedConn {
                path_ids: arena.intern_all(&paths),
                subflow_weight: w,
            }
        });
        self.cache.insert((spec.src, spec.dst), conn.clone());
        conn
    }
}

/// Simulates `flows` with routes from `p`.
fn run_with(
    g: &Graph,
    flows: &[FlowSpec],
    cfg: &SimConfig,
    p: &mut dyn PathProvider,
) -> flowsim::SimResult {
    let opts = RunOpts {
        provider: Some(p),
        ..RunOpts::default()
    };
    run(g, flows, cfg, opts).expect("valid workload").result
}

fn first_cable(g: &Graph) -> LinkId {
    g.link_ids()
        .find(|&l| {
            let info = g.link(l);
            g.node(info.src).kind.is_switch() && g.node(info.dst).kind.is_switch()
        })
        .expect("switch-switch link")
}

fn workload(net: &DcNetwork, rounds: u64) -> Vec<flowsim::FlowSpec> {
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

fn bench(c: &mut Criterion) {
    // ECMP route calls over a k=16 fat-tree permutation (1,024 flows,
    // 64 equal-cost paths per inter-pod pair).
    let fat = fat_tree(16).build().net;
    let ecmp_flows = workload(&fat, 1);
    c.bench_function("route_plane/ecmp_enumerate_k16", |b| {
        b.iter(|| route_all(&fat.graph, &ecmp_flows, &mut EnumerationOracle::default()));
    });
    c.bench_function("route_plane/ecmp_unrank_k16", |b| {
        b.iter(|| route_all(&fat.graph, &ecmp_flows, &mut flowsim::EcmpProvider::new()));
    });

    let ft = common::flat_tree_over(common::mini_topo(1));
    let net = common::instance(&ft, PodMode::Global).net;
    let g = &net.graph;
    let k = 8;

    // Full-table parallel precompute (what perfsnap records as
    // `route_precompute`), and the same build pinned to one worker.
    c.bench_function("route_plane/precompute_full", |b| {
        b.iter(|| black_box(RouteTable::build(g, k)));
    });
    let pairs = RouteTable::ingress_pairs(g);
    c.bench_function("route_plane/precompute_full_1thread", |b| {
        b.iter(|| black_box(RouteTable::build_for_pairs_with_threads(g, k, &pairs, 1)));
    });

    // One dead cable applied to every pair of the table: only the switch
    // pairs whose footprint crosses it re-run Yen.
    let table = RouteTable::build(g, k);
    let cable = first_cable(g);
    let reverse = g.link(cable).reverse;
    let is_down = |l| l == cable || Some(l) == reverse;
    c.bench_function("route_plane/one_cable_down", |b| {
        b.iter(|| {
            let mut masked = ksp::MaskedPaths::new();
            for &(a, z) in &pairs {
                let routes = table.get(a, z).expect("full table");
                black_box(ksp::switch_paths_under(
                    g,
                    k,
                    (a, z),
                    routes,
                    is_down,
                    &mut masked,
                ));
            }
            masked
        });
    });

    // The failure-epoch simulation itself: fixed provider vs the old
    // server-level re-Yen, same workload as `sim_mptcp8_failure`.
    let flows = workload(&net, 6);
    let cfg = SimConfig {
        transport: Transport::Mptcp { k, coupled: true },
        link_failures: vec![LinkFailure {
            time: 0.05,
            link: cable,
        }],
        ..SimConfig::default()
    };
    let shared = Arc::new(table);
    c.bench_function("sim_mptcp8_failure/switch_level_shared", |b| {
        b.iter(|| {
            let mut p = flowsim::provider::MptcpProvider::with_shared(shared.clone(), true);
            black_box(run_with(g, &flows, &cfg, &mut p))
        });
    });
    c.bench_function("sim_mptcp8_failure/switch_level_lazy", |b| {
        b.iter(|| {
            let mut p = flowsim::provider::MptcpProvider::new(k, true);
            black_box(run_with(g, &flows, &cfg, &mut p))
        });
    });
    c.bench_function("sim_mptcp8_failure/server_level_oracle", |b| {
        b.iter(|| {
            let mut p = ServerLevelOracle {
                k,
                cache: HashMap::new(),
                epoch: 0,
            };
            black_box(run_with(g, &flows, &cfg, &mut p))
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
