//! Shared builders and allocation helpers for the experiments.

use flat_tree::{FlatTree, FlatTreeInstance, FlatTreeParams, ModeAssignment, PodMode};
use flowsim::alloc::{connection_rates, ConnPaths};
use mcf::Commodity;
use netgraph::NodeId;
use routing::{ksp, RouteTable};
use std::sync::Arc;
use topology::{ClosParams, DcNetwork};

/// Mini-scale counterpart of a Table 2 topology: same layer structure and
/// oversubscription ratios, reduced counts. `--full` experiments use
/// `ClosParams::topo(i)` directly.
pub fn mini_topo(i: usize) -> ClosParams {
    match i {
        // topo-1: uniform layers, 4:1 at the edge. 256 servers.
        1 => ClosParams {
            pods: 4,
            edges_per_pod: 4,
            aggs_per_pod: 4,
            servers_per_edge: 16,
            edge_uplinks: 4,
            agg_uplinks: 4,
            num_cores: 16,
            link_gbps: 10.0,
        },
        // topo-2: a proportional down-scale of topo-1. 192 servers.
        2 => ClosParams {
            pods: 3,
            ..mini_topo(1)
        },
        // topo-3: twice topo-1's edge oversubscription. 512 servers.
        3 => ClosParams {
            servers_per_edge: 32,
            ..mini_topo(1)
        },
        // topo-4: fewer, larger aggregation/core switches. 256 servers.
        4 => ClosParams {
            pods: 2,
            edges_per_pod: 8,
            aggs_per_pod: 4,
            servers_per_edge: 16,
            edge_uplinks: 4,
            agg_uplinks: 8,
            num_cores: 8,
            link_gbps: 10.0,
        },
        // topo-5: 2:1 at edge and 2:1 at aggregation. 256 servers.
        5 => ClosParams {
            edge_uplinks: 8,
            ..mini_topo(1)
        },
        // topo-6: topo-5 with larger aggregation/core switches.
        6 => ClosParams {
            pods: 4,
            edges_per_pod: 4,
            aggs_per_pod: 2,
            servers_per_edge: 16,
            edge_uplinks: 8,
            agg_uplinks: 8,
            num_cores: 8,
            link_gbps: 10.0,
        },
        _ => panic!("topo-1..6"),
    }
}

/// The Clos parameters for an experiment, mini or full.
pub fn topo(i: usize, full: bool) -> ClosParams {
    if full {
        ClosParams::topo(i)
    } else {
        mini_topo(i)
    }
}

/// Builds the flat-tree over a Clos layout with the §3.4-profiled
/// `(m, n)` split: "vary m and n until they result in the shortest
/// average path length over all server pairs" in global mode.
pub fn flat_tree_over(clos: ClosParams) -> FlatTree {
    let (m, n) = flat_tree::profile::best_mn(&clos).expect("profilable layout");
    FlatTree::new(FlatTreeParams::new(clos, m, n)).expect("valid flat-tree params")
}

/// Instantiates a uniform mode.
pub fn instance(ft: &FlatTree, mode: PodMode) -> FlatTreeInstance {
    ft.instantiate(&ModeAssignment::uniform(ft.pods(), mode))
}

/// Steady-state per-connection MPTCP rates (Gbps) for a batch of
/// (src index, dst index) pairs: coupled subflows over the k-shortest
/// paths of a table that covers every pair's switch pair (see
/// [`route_table`]).
pub fn mptcp_rates(net: &DcNetwork, pairs: &[(usize, usize)], table: &RouteTable) -> Vec<f64> {
    let g = &net.graph;
    let mut masked = ksp::MaskedPaths::new();
    let conns: Vec<ConnPaths> = pairs
        .iter()
        .map(|&(s, d)| {
            let (src, dst) = (net.servers[s], net.servers[d]);
            let paths = ksp::server_paths_under(
                g,
                table.k(),
                src,
                dst,
                |_| false,
                &mut masked,
                |a, b| table.get(a, b).expect("pair covered by the route table"),
            );
            assert!(!paths.is_empty(), "pair ({s},{d}) unroutable");
            let w = 1.0 / paths.len() as f64;
            ConnPaths {
                paths,
                subflow_weight: w,
            }
        })
        .collect();
    connection_rates(&g.capacities(), &conns)
}

/// The ingress/egress switch-pair route domain of a batch of server
/// index pairs (intra-rack pairs need no switch paths and are skipped).
pub fn switch_pairs(net: &DcNetwork, pairs: &[(usize, usize)]) -> Vec<(NodeId, NodeId)> {
    let g = &net.graph;
    pairs
        .iter()
        .filter_map(|&(s, d)| {
            let si = g.server_uplink_switch(net.servers[s])?;
            let di = g.server_uplink_switch(net.servers[d])?;
            (si != di).then_some((si, di))
        })
        .collect()
}

/// One parallel-built route table covering a pair batch at `k`, shared
/// (via `Arc`) by every cell that routes it.
pub fn route_table(net: &DcNetwork, pairs: &[(usize, usize)], k: usize) -> Arc<RouteTable> {
    Arc::new(RouteTable::build_for_pairs(
        &net.graph,
        k,
        &switch_pairs(net, pairs),
    ))
}

/// Index pairs → unit-demand commodities with NIC-rate demand.
pub fn commodities(net: &DcNetwork, pairs: &[(usize, usize)], demand: f64) -> Vec<Commodity> {
    pairs
        .iter()
        .map(|&(s, d)| Commodity {
            src: net.servers[s],
            dst: net.servers[d],
            demand,
        })
        .collect()
}

/// Index pairs → `flowsim` specs, simultaneous, equal bytes.
pub fn flow_specs(net: &DcNetwork, pairs: &[(usize, usize)], bytes: f64) -> Vec<flowsim::FlowSpec> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| flowsim::FlowSpec {
            id: i as u64,
            src: net.servers[s],
            dst: net.servers[d],
            bytes,
            start: 0.0,
        })
        .collect()
}

/// NIC rate of every network in this repo (Gbps).
pub fn nic_gbps() -> f64 {
    10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minis_preserve_oversubscription_ratios() {
        for i in 1..=6 {
            let mini = mini_topo(i);
            let full = ClosParams::topo(i);
            mini.validate().unwrap();
            assert_eq!(
                mini.edge_oversubscription(),
                full.edge_oversubscription(),
                "topo-{i} edge OR"
            );
            assert_eq!(
                mini.agg_oversubscription(),
                full.agg_oversubscription(),
                "topo-{i} agg OR"
            );
        }
    }

    #[test]
    fn minis_support_flat_tree() {
        for i in 1..=6 {
            let ft = flat_tree_over(mini_topo(i));
            let inst = instance(&ft, PodMode::Global);
            inst.net.validate().unwrap();
        }
    }

    #[test]
    fn shared_rates_match_lazy_rates() {
        let ft = flat_tree_over(mini_topo(2));
        let inst = instance(&ft, PodMode::Global);
        let pairs = traffic::patterns::permutation(inst.net.num_servers(), 7);
        for k in [4usize, 8] {
            let mut lazy = RouteTable::new(k);
            for &(a, b) in &switch_pairs(&inst.net, &pairs) {
                lazy.get_or_compute(&inst.net.graph, a, b);
            }
            assert_eq!(
                mptcp_rates(&inst.net, &pairs, &route_table(&inst.net, &pairs, k)),
                mptcp_rates(&inst.net, &pairs, &lazy),
                "k={k}"
            );
        }
    }

    #[test]
    fn mptcp_rates_respect_nic() {
        let ft = flat_tree_over(mini_topo(2));
        let inst = instance(&ft, PodMode::Global);
        let pairs = traffic::patterns::permutation(inst.net.num_servers(), 3);
        let rates = mptcp_rates(&inst.net, &pairs, &route_table(&inst.net, &pairs, 8));
        assert_eq!(rates.len(), pairs.len());
        assert!(rates.iter().all(|&r| r > 0.0 && r <= nic_gbps() + 1e-6));
    }
}
